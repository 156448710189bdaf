"""Command-line front end.

`_GRAMMAR` declares each subcommand with its arguments; `ktgw --help` and
`ktgw COMMAND --help` print them.

Exit codes: 0 success, 1 internal cross-check failure, 2 invalid input.
Diagnostics go to stderr, data to stdout.  Exact rationals are serialised as
num/den string pairs; floating geometry fields carry an "approx" marker.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .arith import (
    aut_weight_sum,
    aut_weight_sum_closed,
    cesaro_check,
    count_sublattices_hnf,
    sigma,
)
from .geometry import (
    cr_residual,
    eval_class_integrate,
    solve_torus_data,
    symplectic_area,
)
from .gwcount import (
    MODULI_BUDGET,
    GWResult,
    aut_size_smith,
    component_count,
    component_eval_class,
    gw_closed_form,
    gw_enumerated,
    moduli_components,
)
from .homs import homology_class
from .nilalg import HomologyClass

SCHEMA_VERSION = "1"
# Largest `verify identities --max` and `baseline LMAX`.  Both costs grow
# about quadratically, to about 1.4 s and 3.3 s at these limits (Intel Xeon,
# Python 3.11).  `verify oracle|geometry|all` are bounded instead by the
# moduli budget on the components they sweep.
IDENTITIES_MAX = 400
BASELINE_LMAX = 5000

_GW_COLUMNS = ("a13", "a23", "a14", "a24", "method", "m", "n",
               "e134", "e234", "e124", "agrees")
_MODULI_COLUMNS = ("d", "k", "l", "dp1", "dp2", "dp3", "dp4",
                   "dq1", "dq2", "dq3", "dq4", "tau1", "tau2", "theta",
                   "c0_n2", "aut_size", "ev_e134", "ev_e234", "ev_e124",
                   "cr_residual")
_BASELINE_COLUMNS = ("ell", "hnf_count", "sigma1", "equal")

_CSV_DOC = f"""\
CSV column layouts (fixed):
  gw:       {','.join(_GW_COLUMNS)}
  moduli:   {','.join(_MODULI_COLUMNS[:15])},
            {','.join(_MODULI_COLUMNS[15:])}
  baseline: {','.join(_BASELINE_COLUMNS)}
Rationals are printed as num/den (or plain integers); floats are decimal.
"""


# ---------------------------------------------------------------------------
# Output records
# ---------------------------------------------------------------------------
# Each command builds one leaf tuple per record, in the order of its column
# tuple.  Its JSON document comes from two %-templates that json.dumps(shape,
# indent=2) builds at import from the schema-v1 shape: one list item, at its
# indent, where a rational column has the holes col.num and col.den; and one
# envelope, whose list is the single hole items and whose other holes name
# the command's arguments.  The lists are never empty, and every filled value
# is a decimal integer, a float or a fixed word, so no hole needs escaping.

_hole = "%({})s".format
# The repr of each non-finite float, as json.dumps spells it.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _frac(col: str) -> Dict[str, str]:
    return {"num": _hole(col + ".num"), "den": _hole(col + ".den")}


def _approx(col: str) -> Dict[str, object]:
    return {"value": _hole(col), "approx": True}


def _unquote(text: str, *names: str) -> str:
    """JSON text with the holes of names out of their string quotes."""
    for name in names:
        text = text.replace(f'"{_hole(name)}"', _hole(name))
    return text


def _envelope(command: str, fields: Dict[str, object]) -> str:
    """The template of a document; its holes items and agrees are bare."""
    return _unquote(json.dumps({"schema_version": SCHEMA_VERSION,
                                "command": command, **fields}, indent=2),
                    "items", "agrees")


class _Items:
    """A list item template, at its indent in the envelope.  A column whose
    hole is an approx value is a float; one with a col.num hole a rational."""

    def __init__(self, columns: Sequence[str], shape: Dict[str, object],
                 *bare: str) -> None:
        text = json.dumps(shape, indent=2)
        self.columns = columns
        self.floats = [col for col in columns
                       if f'"value": "{_hole(col)}"' in text]
        self.fracs = [(col, col + ".num", col + ".den") for col in columns
                      if _hole(col + ".num") in text]
        self.template = _unquote(text, *bare, *self.floats).replace(
            "\n", "\n    ")


_GW_ITEMS = _Items(_GW_COLUMNS, {
    "input_class": [_hole(col) for col in _GW_COLUMNS[:4]],
    "normalized": [_hole(col) for col in ("m", "m", "n", "n")],
    **{col: _hole(col) for col in ("m", "n", "method")},
    "gw": {col: _frac(col) for col in _GW_COLUMNS[7:10]},
})
_MODULI_ITEMS = _Items(_MODULI_COLUMNS, {
    **{col: _hole(col) for col in _MODULI_COLUMNS[:3]},
    "hom": {"dp": [_frac(col) for col in _MODULI_COLUMNS[3:7]],
            "dq": [_frac(col) for col in _MODULI_COLUMNS[7:11]]},
    **{col: _approx(col) for col in _MODULI_COLUMNS[11:14]},
    "c0_n2": _frac("c0_n2"),
    "aut_size": _hole("aut_size"),
    "eval_class": {col[3:]: _frac(col) for col in _MODULI_COLUMNS[16:19]},
    "cr_residual": _approx("cr_residual"),
})
_BASELINE_ITEMS = _Items(_BASELINE_COLUMNS, {
    col: _hole(col) for col in _BASELINE_COLUMNS}, "equal")

_GW_FIELDS = {
    "class": [_hole(col) for col in _GW_COLUMNS[:4]],
    "method": _hole("method"),
    "results": [_hole("items")],
}
_GW_JSON = _envelope("gw", _GW_FIELDS)
_GW_AGREES_JSON = _envelope("gw", {**_GW_FIELDS, "agrees": _hole("agrees")})
_MODULI_JSON = _envelope("moduli", {"m": _hole("m"), "n": _hole("n"),
                                    "components": [_hole("items")]})
_BASELINE_JSON = _envelope("baseline", {"rows": [_hole("items")]})


def _fill(items: _Items, rows: List[tuple]) -> List[str]:
    """The JSON list items of rows, each filled from a plain dict."""
    filled = []
    for row in rows:
        leaves = dict(zip(items.columns, row))
        for col, num, den in items.fracs:
            v = leaves[col]
            leaves[num], leaves[den] = v.numerator, v.denominator
        for col in items.floats:
            text = repr(leaves[col])
            leaves[col] = _FLOAT_WORDS.get(text, text)
        filled.append(items.template % leaves)
    return filled


def _print_json(envelope: str, items: _Items, rows: List[tuple],
                **holes: object) -> None:
    holes["items"] = ",\n    ".join(_fill(items, rows))
    print(envelope % holes)


# ---------------------------------------------------------------------------
# gw
# ---------------------------------------------------------------------------


def _check_printable(results: List[GWResult]) -> None:
    """Refuse an invariant with more digits than the interpreter prints.

    str() of an int raises past sys.get_int_max_str_digits() digits; a
    limit of 0, or an interpreter without one, prints any int.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    widest = max(max(abs(v.numerator), v.denominator)
                 for r in results for v in r.gw.coords())
    # 2^(3 limit) < 10^limit, so the power is only built for very long ints.
    if limit and widest.bit_length() > 3 * limit and widest >= 10 ** limit:
        raise ValueError(f"the invariant has over {limit} digits, past this "
                         f"interpreter's limit for printing an integer")


def _cmd_gw(args: argparse.Namespace) -> int:
    A = HomologyClass(args.a13, args.a23, args.a14, args.a24)
    results: List[GWResult] = []
    if args.method in ("closed", "both"):
        results.append(gw_closed_form(A))
    if args.method in ("enumerate", "both"):
        results.append(gw_enumerated(A))
    agrees = results[0].gw == results[1].gw if len(results) == 2 else None
    _check_printable(results)
    flag = "" if agrees is None else str(agrees).lower()
    rows = [(*A.coords(), r.method, r.m, r.n, *r.gw.coords(), flag)
            for r in results]
    if args.format == "json":
        envelope = _GW_JSON if agrees is None else _GW_AGREES_JSON
        _print_json(envelope, _GW_ITEMS, rows, **vars(args), agrees=flag)
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows([_GW_COLUMNS, *rows])
    else:
        a13, a23, a14, a24, _, m, n = rows[0][:7]
        lines = [f"class:      {[a13, a23, a14, a24]}",
                 f"normalized: {[m, m, n, n]}   m={m} n={n}"]
        for _, _, _, _, method, _, _, e134, e234, e124, _ in rows:
            lines.append(f"{method:>10}: e134={e134} e234={e234} e124={e124}")
        if flag:
            lines.append(f"agrees: {flag}")
        print("\n".join(lines))
    if agrees is False:
        print("error: closed and enumerated invariants disagree",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------


def _cmd_moduli(args: argparse.Namespace) -> int:
    comps = moduli_components(args.m, args.n)
    ev = component_eval_class(args.m, args.n).coords()
    rows = []
    for comp in comps:
        sol = solve_torus_data(comp.hom)
        dp, dq = comp.hom.lie
        rows.append((comp.d, comp.k, comp.ell, *dp, *dq, sol.tau1, sol.tau2,
                     sol.theta(), sol.c0_n2, comp.aut_size, *ev,
                     cr_residual(sol)))
    if args.format == "json":
        _print_json(_MODULI_JSON, _MODULI_ITEMS, rows, **vars(args))
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows([_MODULI_COLUMNS, *rows])
    else:
        print(f"moduli components of [{args.m}, {args.m}, {args.n}, {args.n}]"
              f" ({len(rows)} components)")
        print(f"{'d':>3} {'k':>3} {'l':>3} {'matrix (dp | dq)':<26} "
              f"{'tau1':>9} {'tau2':>9} {'theta':>9} {'c0':>7} "
              f"{'|Aut|':>5} {'eval':>9} {'residual':>9}")
        for (d, k, ell, *h, tau1, tau2, theta, c0, aut, ev134, _, _,
             res) in rows:
            mat = "[%s,%s,%s,%s | %s,%s,%s,%s]" % tuple(h)
            print(f"{d:>3} {k:>3} {ell:>3} {mat:<26} {tau1:>9.5f} "
                  f"{tau2:>9.5f} {theta:>9.5f} {str(c0):>7} {aut:>5} "
                  f"{str(ev134):>9} {res:>9.2e}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class _Sweep:
    """A named count of checks and failures, with the first failure's detail."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checked = 0
        self.failed = 0
        self.first_failure = ""

    def check(self, ok: bool, detail: str) -> None:
        self.checked += 1
        if not ok:
            if not self.failed:
                self.first_failure = detail
            self.failed += 1


def _verify_identities(max_n: int) -> List[_Sweep]:
    weight = _Sweep("identities/weight-sum")
    for m in range(1, max_n + 1):
        for n in range(0, max_n + 1):
            ok = aut_weight_sum(m, n) == aut_weight_sum_closed(m, n)
            weight.check(ok, f"weight sum mismatch at m={m} n={n}")
    hnf = _Sweep("identities/hnf-sigma1")
    for ell in range(1, max_n + 1):
        ok = count_sublattices_hnf(ell) == sigma(1, ell)
        hnf.check(ok, f"sublattice count mismatch at ell={ell}")
    ces = _Sweep("identities/cesaro")
    funcs = {"one": lambda v: 1, "id": lambda v: v, "square": lambda v: v * v}
    for fname, f in funcs.items():
        for n in range(1, max_n + 1):
            ok = cesaro_check(f, n).equal
            ces.check(ok, f"cesaro mismatch at f={fname} n={n}")
    return [weight, hnf, ces]


def _sweep_classes(max_n: int) -> Iterator[Tuple[int, int]]:
    """Invariants (m, n) of the classes [m, m, n, n] a verify sweep covers.

    Yields m != 0 and |m|, |n| <= max_n in lexicographic order.
    """
    span = range(-max_n, max_n + 1)
    return ((m, n) for m in span if m != 0 for n in span)


def _verify_oracle(max_n: int) -> List[_Sweep]:
    gw = _Sweep("oracle/closed-vs-enumerated")
    auts = _Sweep("oracle/aut-formula-vs-smith")
    counts = _Sweep("oracle/component-count")
    for m, n in _sweep_classes(max_n):
        A = HomologyClass(m, m, n, n)
        ok = gw_closed_form(A).gw == gw_enumerated(A).gw
        gw.check(ok, f"invariant mismatch at m={m} n={n}")
        comps = moduli_components(m, n)
        counts.check(len(comps) == component_count(m, n),
                     f"component count mismatch at m={m} n={n}")
        for comp in comps:
            ok = comp.aut_size == aut_size_smith(comp.hom)
            auts.check(ok, f"aut mismatch at m={m} n={n} "
                           f"(d,k,l)=({comp.d},{comp.k},{comp.ell})")
    return [gw, auts, counts]


def _verify_geometry(max_n: int) -> List[_Sweep]:
    residual = _Sweep("geometry/cr-residual")
    area = _Sweep("geometry/area-positivity")
    cycle = _Sweep("geometry/eval-cycle")
    for m, n in _sweep_classes(max_n):
        expected = component_eval_class(m, n)
        for comp in moduli_components(m, n):
            where = (f"m={m} n={n} "
                     f"(d,k,l)=({comp.d},{comp.k},{comp.ell})")
            sol = solve_torus_data(comp.hom)
            res = cr_residual(sol)
            residual.check(res < 1e-9, f"residual {res:g} at {where}")
            cls = homology_class(comp.hom)
            ar = symplectic_area(cls, sol.cos_theta, sol.sin_theta)
            area.check(ar > 0, f"area {ar:g} at {where}")
            cycle.check(eval_class_integrate(sol) == expected,
                        f"cycle class mismatch at {where}")
    return [residual, area, cycle]


def _check_sweep_budget(max_n: int) -> None:
    """Refuse a sweep over more than MODULI_BUDGET moduli components.

    Each (m, n) has at least |m| components, so K (K + 1) (2K + 1) bounds
    the total from below and refuses a large K before the exact count.
    """
    total = max_n * (max_n + 1) * (2 * max_n + 1)
    if total <= MODULI_BUDGET:
        total = sum(component_count(m, n) for m, n in _sweep_classes(max_n))
    if total > MODULI_BUDGET:
        raise ValueError(f"verify --max {max_n} sweeps at least {total} "
                         f"moduli components, over the moduli budget of "
                         f"{MODULI_BUDGET}")


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max < 1:
        raise ValueError("--max must be at least 1")
    if args.suite in ("identities", "all") and args.max > IDENTITIES_MAX:
        raise ValueError(f"verify identities --max {args.max} exceeds "
                         f"the limit of {IDENTITIES_MAX}")
    if args.suite in ("oracle", "geometry", "all"):
        _check_sweep_budget(args.max)
    sweeps: List[_Sweep] = []
    if args.suite in ("identities", "all"):
        sweeps.extend(_verify_identities(args.max))
    if args.suite in ("oracle", "all"):
        sweeps.extend(_verify_oracle(args.max))
    if args.suite in ("geometry", "all"):
        sweeps.extend(_verify_geometry(args.max))
    failed = False
    for sweep in sweeps:
        status = "FAIL" if sweep.failed else "ok"
        print(f"{sweep.name}: {sweep.checked} checks, "
              f"{sweep.failed} failures [{status}]")
        if sweep.failed and not failed:
            failed = True
            print(f"first counterexample: {sweep.first_failure}",
                  file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def _cmd_baseline(args: argparse.Namespace) -> int:
    if args.lmax < 1:
        raise ValueError("lmax must be at least 1")
    if args.lmax > BASELINE_LMAX:
        raise ValueError(f"lmax {args.lmax} exceeds the baseline limit of "
                         f"{BASELINE_LMAX}")
    rows = []
    for ell in range(1, args.lmax + 1):
        count = count_sublattices_hnf(ell)
        s1 = sigma(1, ell)
        rows.append((ell, count, s1, str(count == s1).lower()))
    if args.format == "json":
        _print_json(_BASELINE_JSON, _BASELINE_ITEMS, rows)
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows([_BASELINE_COLUMNS, *rows])
    else:
        print(f"{'ell':>5} {'hnf':>8} {'sigma1':>8} {'equal':>6}")
        for ell, count, s1, equal in rows:
            print(f"{ell:>5} {count:>8} {s1:>8} {equal:>6}")
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


# The plain spelling of an int: int() also reads "+5", "1_0", " 5" and
# non-ASCII digits, which are left to argparse.
_PLAIN_INT = re.compile("-?[0-9]+")


class _Arg:
    """An argument of a command: a positional named by its dest, or an
    option by its --flag.  Its value is an int, or one of its choices."""

    def __init__(self, name: str, choices: Optional[Tuple[str, ...]] = None,
                 default: object = None, help: Optional[str] = None) -> None:
        self.name, self.choices = name, choices
        self.default, self.help = default, help
        self.dest = name.lstrip("-")

    def read(self, token: str) -> object:
        """The value argparse reads from a plain token; else ValueError."""
        if self.choices is None:
            if _PLAIN_INT.fullmatch(token):
                return int(token)
        elif token in self.choices:
            return token
        raise ValueError(token)


class _Command:
    """A subcommand: its handler, help line, positionals and options."""

    def __init__(self, func: Callable[[argparse.Namespace], int], help: str,
                 positionals: Tuple[_Arg, ...],
                 options: Tuple[_Arg, ...]) -> None:
        self.func, self.help = func, help
        self.positionals, self.options = positionals, options
        self.flags = {opt.name: opt for opt in options}
        self.defaults = {opt.dest: opt.default for opt in options}


_FORMAT = _Arg("--format", ("json", "csv", "text"), "text",
               "output format (default text)")
# The one declaration of the command line: build_parser and _read both
# read it.
_GRAMMAR = {
    "gw": _Command(_cmd_gw, "invariant of the class [a13, a23, a14, a24]",
                   tuple(map(_Arg, ("a13", "a23", "a14", "a24"))),
                   (_FORMAT, _Arg("--method", ("closed", "enumerate",
                                               "both"), "both"))),
    "moduli": _Command(_cmd_moduli, "moduli components of [m, m, n, n]",
                       (_Arg("m"), _Arg("n")), (_FORMAT,)),
    "verify": _Command(_cmd_verify, "run a verification sweep",
                       (_Arg("suite", ("identities", "oracle", "geometry",
                                       "all")),),
                       (_Arg("--max", default=8,
                             help="sweep bound (default 8)"),)),
    "baseline": _Command(_cmd_baseline, "sublattice counts against sigma_1",
                         (_Arg("lmax"),), (_FORMAT,)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ktgw` parser, built once; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="ktgw",
        description="Exact genus-one family curve counts for the "
                    "Kodaira-Thurston manifold.",
        epilog=_CSV_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _GRAMMAR.items():
        p = sub.add_parser(name, help=command.help)
        for arg in command.positionals + command.options:
            p.add_argument(arg.name, choices=arg.choices,
                           type=int if arg.choices is None else None,
                           default=arg.default, help=arg.help)
        p.set_defaults(func=command.func)
    return parser


def _read(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace of a plain command line, equal to argparse's, or None.

    A plain command line is a command, exactly its positionals, then pairs
    of a full --flag and a legal value, where the last pair of a flag wins.
    """
    command = _GRAMMAR.get(argv[0]) if argv else None
    if command is None:
        return None
    end = 1 + len(command.positionals)
    if len(argv) < end or (len(argv) - end) % 2:
        return None
    args = [*command.positionals, *map(command.flags.get, argv[end::2])]
    if None in args:
        return None
    values = {"command": argv[0], "func": command.func, **command.defaults}
    try:
        for arg, token in zip(args, [*argv[1:end], *argv[end + 1::2]]):
            values[arg.dest] = arg.read(token)
    except ValueError:
        return None
    return argparse.Namespace(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line, by default sys.argv[1:], and return its exit
    code.

    A plain command line (see _read) is read directly.  Any other, and
    every request for help, goes through argparse, which prints its help
    and usage errors (exit 2) as it always has.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
