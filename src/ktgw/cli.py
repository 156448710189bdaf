"""Command-line front end.

`_GRAMMAR` declares each subcommand with its handler and arguments; `main`
dispatches through it, and `ktgw --help` and `ktgw COMMAND --help` print it.

Exit codes: 0 success, 1 internal cross-check failure, 2 invalid input,
3 stdout could not be written (`main_entry`).
Diagnostics go to stderr, data to stdout.  Exact rationals are serialised as
num/den string pairs; floating geometry fields carry an "approx" marker.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import sys
import types
from collections.abc import Callable, Iterable, Iterator, Sequence

from .arith import (
    aut_weight_total,
    aut_weight_total_closed,
    cesaro_check,
    gcd_tally,
    sigma,
    sublattice_counts,
)
from .geometry import (
    eval_class_integrate,
    label_solver,
    solve_columns,
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
    moduli_divisors,
)
from .homs import homology_class
from .nilalg import HomologyClass

SCHEMA_VERSION = "1"
# Largest `verify identities --max`, about 0.15 s and quadratic in it, and
# `baseline LMAX`, about 0.05 s by its sieve but kept so that no refusal
# changes (Intel Xeon, Python 3.11).  `verify oracle|geometry|all` are
# bounded instead by the moduli budget on the components they sweep.
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
# _write is the one writer of stdout.  Each command hands its records to its
# _Output, which fills them into JSON list items or CSV lines; a text table
# reads the CSV lines back by column name, so all three formats print the
# same cells.  A CSV line is its cells joined by commas, as csv.writer
# writes them, for no cell holds a comma, a quote or a line break.
# The JSON document comes from two %-templates that _layout writes at
# import, as json.dumps(shape, indent=2) lays out the schema-v1 shape, whose
# every str is a %s hole named by the leaf that fills it: a column, col.num
# and col.den of a rational column, or col.value of a float column.  One is
# a list item, at its indent; the other is the envelope, whose list is the
# single hole items.  The lists are never empty, and every filled value is a
# decimal integer, a float or a fixed word, so no hole needs escaping.
# Each template is filled once per group of records, then once per row.

# The repr of each non-finite float, as json.dumps spells it.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _frac(col: str) -> dict[str, str]:
    return {"num": col + ".num", "den": col + ".den"}


def _layout(shape: object, bare: set[str], holes: list[str],
            pad: str) -> str:
    """shape as json.dumps(shape, indent=2) writes it at indent pad, with
    each str a %s hole, quoted unless it is in bare, appended to holes."""
    if shape is True:
        return "true"
    if isinstance(shape, str):
        holes.append(shape)
        return "%s" if shape in bare else '"%s"'
    inner = pad + "  "
    if isinstance(shape, dict):
        return "{%s\n%s}" % (",".join(
            f'\n{inner}"{key}": {_layout(value, bare, holes, inner)}'
            for key, value in shape.items()), pad)
    return "[%s\n%s]" % (",".join(
        f"\n{inner}{_layout(value, bare, holes, inner)}" for value in shape),
        pad)


def _leaves(columns: Sequence[str],
            holes: list[str]) -> Callable[[dict], tuple]:
    """The function that picks the leaves named by holes from a dict of the
    values of columns.

    A group's flat leaves are its columns (two or more), then the
    numerator and denominator of each rational column, then the JSON word
    of each float column."""
    named = set(holes)
    fracs, floats = ([col for col in columns if col + leaf in named]
                     for leaf in (".num", ".value"))
    names = [*columns, *(col + part for col in fracs
                         for part in (".num", ".den")),
             *(col + ".value" for col in floats)]
    index = {name: i for i, name in enumerate(names)}
    get = operator.itemgetter(*columns)
    pick = operator.itemgetter(*map(index.__getitem__, holes))

    def leaves_of(values: dict) -> tuple:
        leaves = [*get(values)]
        for v in map(values.__getitem__, fracs):
            leaves += v.numerator, v.denominator
        for col in floats:
            leaves.append(_json_float(values[col]))
        return pick(leaves)

    return leaves_of


def _json_float(x: float) -> str:
    """x as json.dumps writes it: its repr, or the word of a non-finite
    float."""
    text = repr(x)
    return _FLOAT_WORDS.get(text, text)


def _ratio(num: object, den: object) -> str:
    """The CSV cell of the rational num / den: num alone when den is 1."""
    return f"{num}/{den}" if den != 1 else str(num)


def _write(lines: list[str], end: str = "\n") -> None:
    """Write each of lines, ended by end, to stdout: its one writer.  The
    last end is a write of its own, as print's newline is: an unbuffered
    stdout loses, with no error, what a reader that exits mid-write left
    unread, and only the next write fails."""
    if lines:
        sys.stdout.write(end.join(lines))
        sys.stdout.write(end)


class _Output:
    """A command's CSV columns and JSON templates, and the writer of its
    records in both.  bare are the item holes written as JSON words, as is
    each float's col.value; holes and envelope_holes name the leaves of the
    holes of the item and the envelope.

    A group is a dict over group_columns: each column with no leaf in
    varying, and each other leaf of a column that has one (col.den where
    only col.num varies).  A row is a tuple of its varying leaves, in the
    order row_leaves of their holes in the item.  gw and baseline vary no
    leaf, so each of their records is a group of its own."""

    def __init__(self, fields: dict[str, object], columns: Sequence[str],
                 item: dict[str, object], varying: Iterable[str] = (),
                 bare: Iterable[str] = ()) -> None:
        self.columns, self.holes, self.envelope_holes = columns, [], []
        bare = {*bare, *(col + ".value" for col in columns)}
        parts = _layout(item, bare, self.holes, "    ").split("%s")
        # A varying leaf's hole is written %%s, for the row stage.
        self.item = parts[0] + "".join(
            ("%%s" if hole in varying else "%s") + part
            for hole, part in zip(self.holes, parts[1:]))
        self.row_leaves = tuple(h for h in self.holes if h in varying)
        self.group_holes = [h for h in self.holes if h not in varying]
        split = {leaf.partition(".")[0] for leaf in varying}
        self.group_columns = tuple(dict.fromkeys(
            hole if hole.partition(".")[0] in split else hole.partition(".")[0]
            for hole in self.group_holes))
        self._group_leaves = _leaves(self.group_columns, self.group_holes)
        self._row_floats = [i for i, leaf in enumerate(self.row_leaves)
                            if leaf.endswith(".value")]
        # Each CSV column: whether it is rational and whether it varies; and
        # the row leaves of each varying one, a rational's numerator and its
        # denominator, or None where the group holds it.
        index = {leaf: i for i, leaf in enumerate(self.row_leaves)}
        self._cells = [(col, col + ".num" in self.holes, col in split)
                       for col in columns]
        self._row_cells = [
            (index[col + ".num"], index.get(col + ".den")) if rational else
            (index[col] if col in index else index[col + ".value"], None)
            for col, rational, varies in self._cells if varies]
        self.envelope = _layout({"schema_version": "schema_version",
                                 "command": "command", **fields},
                                {"items", "agrees"}, self.envelope_holes, "")
        self._pick_envelope = operator.itemgetter(*self.envelope_holes)

    def fill(self, fmt: str, group: dict) -> str:
        """The JSON item of group, if fmt is json, else its CSV line, with a
        %s hole for each varying leaf: the whole record when none varies."""
        if fmt == "json":
            return self.item % self._group_leaves(group)
        return ",".join(
            _ratio("%s", group.get(col + ".den", 1)) if varies else
            _ratio(group[col].numerator, group[col].denominator) if rational
            else str(group[col]) for col, rational, varies in self._cells)

    def fill_rows(self, fmt: str, group: dict, rows: list[tuple]) -> list[str]:
        """The JSON items, if fmt is json, else the CSV lines, of the rows
        of group: one fill of the group, then one % per row."""
        line = self.fill(fmt, group)
        if fmt == "json":
            # Finite only if every float is; else each gets its JSON word.
            if not math.isfinite(sum([row[i] for row in rows
                                      for i in self._row_floats])):
                rows = [tuple(_json_float(v) if type(v) is float else v
                              for v in row) for row in rows]
            return [line % row for row in rows]
        return [line % tuple(row[i] if j is None else _ratio(row[i], row[j])
                             for i, j in self._row_cells) for row in rows]

    def named(self, lines: list[str]) -> list[dict[str, str]]:
        """The cells of each CSV line by column name."""
        return [dict(zip(self.columns, line.split(","))) for line in lines]

    def print(self, fmt: str, lines: list[str], **holes: object) -> None:
        """Write lines, the records filled as fmt, csv or json: under the
        header, or as the envelope's items, with its other holes filled
        from holes."""
        if fmt == "csv":
            _write([",".join(self.columns), *lines], "\r\n")
        else:
            holes["schema_version"] = SCHEMA_VERSION
            holes["items"] = ",\n    ".join(lines)
            _write([self.envelope % self._pick_envelope(holes)])


_GW_FIELDS = {"class": [*_GW_COLUMNS[:4]], "method": "method",
              "results": ["items"]}
_GW_ITEM = {"input_class": [*_GW_COLUMNS[:4]],
            "normalized": ["m", "m", "n", "n"], "m": "m", "n": "n",
            "method": "method",
            "gw": {col: _frac(col) for col in _GW_COLUMNS[7:10]}}
_GW = _Output(_GW_FIELDS, _GW_COLUMNS, _GW_ITEM)
_GW_AGREES = _Output({**_GW_FIELDS, "agrees": "agrees"}, _GW_COLUMNS, _GW_ITEM)
_MODULI_ITEM = {
    **{col: col for col in _MODULI_COLUMNS[:3]},
    "hom": {"dp": [_frac(col) for col in _MODULI_COLUMNS[3:7]],
            "dq": [_frac(col) for col in _MODULI_COLUMNS[7:11]]},
    **{col: {"value": col + ".value", "approx": True}
       for col in _MODULI_COLUMNS[11:14]},
    "c0_n2": _frac("c0_n2"),
    "aut_size": "aut_size",
    "eval_class": {col[3:]: _frac(col) for col in _MODULI_COLUMNS[16:19]},
    "cr_residual": {"value": "cr_residual.value", "approx": True},
}
# The leaves of a moduli component that depend on more than its divisor d.
# dq3 and dq4 vary with the label, but keep one denominator per divisor.
_MODULI = _Output({"m": "m", "n": "n", "components": ["items"]},
                  _MODULI_COLUMNS, _MODULI_ITEM, frozenset({
                      "k", "l", "dq3.num", "dq4.num", "tau1.value",
                      "c0_n2.num", "c0_n2.den", "aut_size",
                      "cr_residual.value"}))
_BASELINE = _Output({"rows": ["items"]}, _BASELINE_COLUMNS,
                    {col: col for col in _BASELINE_COLUMNS},
                    bare=("equal",))


# ---------------------------------------------------------------------------
# gw
# ---------------------------------------------------------------------------


def _check_printable(results: list[GWResult]) -> None:
    """Refuse an invariant with more digits than the interpreter prints.

    str() of an int raises past sys.get_int_max_str_digits() digits; a
    limit of 0, or an interpreter without one, prints any int.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    widest = 0
    for r in results:
        for v in r.gw.coords():
            num, den = abs(v.numerator), v.denominator
            if num > widest:
                widest = num
            if den > widest:
                widest = den
    # 2^(3 limit) < 10^limit, so the power is only built for very long ints.
    if limit and widest.bit_length() > 3 * limit and widest >= 10 ** limit:
        raise ValueError(f"the invariant has over {limit} digits, past this "
                         f"interpreter's limit for printing an integer")


def _agree(closed: GWResult, enumerated: GWResult) -> bool:
    """Whether the two routes found the same (m, n) and invariant."""
    return ((closed.m, closed.n, closed.gw)
            == (enumerated.m, enumerated.n, enumerated.gw))


def _cmd_gw(args: argparse.Namespace) -> int:
    A = HomologyClass(args.a13, args.a23, args.a14, args.a24)
    results: list[GWResult] = []
    if args.method in ("closed", "both"):
        results.append(gw_closed_form(A))
    if args.method in ("enumerate", "both"):
        results.append(gw_enumerated(A))
    _check_printable(results)
    flag = "" if len(results) == 1 else str(_agree(*results)).lower()
    output = _GW_AGREES if flag else _GW
    lines = [output.fill(args.format, {
        "a13": A.a13, "a23": A.a23, "a14": A.a14, "a24": A.a24,
        "method": r.method, "m": r.m, "n": r.n, "e134": r.gw.e134,
        "e234": r.gw.e234, "e124": r.gw.e124, "agrees": flag})
        for r in results]
    if args.format == "text":
        rows = output.named(lines)
        m, n = rows[0]["m"], rows[0]["n"]
        cls = ", ".join(rows[0][col] for col in _GW_COLUMNS[:4])
        _write([f"class:      [{cls}]",
                f"normalized: [{m}, {m}, {n}, {n}]   m={m} n={n}",
                *(f"{row['method']:>10}: e134={row['e134']} "
                  f"e234={row['e234']} e124={row['e124']}" for row in rows),
                *([f"agrees: {flag}"] if flag else [])])
    else:
        output.print(args.format, lines, **vars(args), agrees=flag)
    if flag == "false":
        print("error: closed and enumerated invariants disagree",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------


def _moduli_rows(d: int, dp: tuple, a: int, labels: list[tuple],
                 ev: tuple) -> tuple[dict, list[tuple]]:
    """The _MODULI group and rows of the labels of one divisor d of
    `gwcount.moduli_divisors`, with dp column dp, dq h1 = dq h2 = a and the
    evaluation class ev, in one pass over the labels.

    A row is in the order of _MODULI.row_leaves; one call of the divisor's
    `label_solver` gives its tau1, c0_n2 and residual."""
    c, e = dp[2:]
    tau2, cos, sin = solve_columns(c, e, a, a)
    solve = label_solver(c, e, a, a, tau2, cos, sin)
    # dp is reduced, so it is its own Lie column.  dq's Lie h4 is z - a^2/2:
    # over 2 when a is odd, else over 1.
    den4 = 2 if a % 2 else 1
    shift = den4 * a * a // 2
    rows = []
    for k, ell, q3, z, aut_size, _ in labels:
        tau1, c0n, c0d, res = solve(q3, z)
        rows.append((k, ell, q3, den4 * z - shift, tau1, c0n, c0d, aut_size,
                     res))
    (p1, p2, p3, p4), (e134, e234, e124) = dp, ev
    group = {"d": d, "dp1": p1, "dp2": p2, "dp3": p3, "dp4": p4, "dq1": a,
             "dq2": a, "dq3.den": 1, "dq4.den": den4, "tau2": tau2,
             "theta": math.atan2(sin, cos), "ev_e134": e134,
             "ev_e234": e234, "ev_e124": e124}
    return group, rows


def _moduli_text(row: dict[str, str]) -> str:
    """The text table line of a component, read from its CSV cells."""
    mat = "[%s,%s,%s,%s | %s,%s,%s,%s]" % tuple(
        row[col] for col in _MODULI_COLUMNS[3:11])
    angles = " ".join(f"{float(row[col]):>9.5f}"
                      for col in ("tau1", "tau2", "theta"))
    return (f"{row['d']:>3} {row['k']:>3} {row['l']:>3} {mat:<26} {angles} "
            f"{row['c0_n2']:>7} {row['aut_size']:>5} {row['ev_e134']:>9} "
            f"{float(row['cr_residual']):>9.2e}")


def _cmd_moduli(args: argparse.Namespace) -> int:
    divisors = moduli_divisors(args.m, args.n)
    ev = component_eval_class(args.m, args.n).coords()
    lines = []
    for d, dp, a, labels in divisors:
        lines += _MODULI.fill_rows(args.format,
                                   *_moduli_rows(d, dp, a, labels, ev))
    if args.format != "text":
        _MODULI.print(args.format, lines, **vars(args))
        return 0
    _write([f"moduli components of [{args.m}, {args.m}, {args.n}, "
            f"{args.n}] ({len(lines)} components)",
            f"{'d':>3} {'k':>3} {'l':>3} {'matrix (dp | dq)':<26} "
            f"{'tau1':>9} {'tau2':>9} {'theta':>9} {'c0':>7} "
            f"{'|Aut|':>5} {'eval':>9} {'residual':>9}",
            *map(_moduli_text, _MODULI.named(lines))])
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class _Sweep:
    """A named count of checks and failures; formats the first failure only."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checked = 0
        self.failed = 0
        self.first_failure = ""

    def check(self, ok: bool, fmt: str, *args: object) -> None:
        self.checked += 1
        if not ok:
            if not self.failed:
                self.first_failure = fmt.format(*args)
            self.failed += 1


def _verify_identities(max_n: int) -> list[_Sweep]:
    weight = _Sweep("identities/weight-sum")
    for m in range(1, max_n + 1):
        for n in range(0, max_n + 1):
            if aut_weight_total(m, n) != aut_weight_total_closed(m, n):
                weight.check(False, "weight sum mismatch at m={} n={}", m, n)
    # Only a mismatch calls check; every pair is one check.
    weight.checked = max_n * (max_n + 1)
    hnf = _Sweep("identities/hnf-sigma1")
    counts = sublattice_counts(max_n)
    for ell in range(1, max_n + 1):
        hnf.check(counts[ell] == sigma(1, ell),
                  "sublattice count mismatch at ell={}", ell)
    ces = _Sweep("identities/cesaro")
    # Each i <= d <= max_n meets one gcd, whatever the function and n.
    tally = gcd_tally(max_n)
    funcs = {"one": lambda v: 1, "id": lambda v: v, "square": lambda v: v * v}
    for fname, f in funcs.items():
        for n in range(1, max_n + 1):
            ok = cesaro_check(f, n, tally).equal
            ces.check(ok, "cesaro mismatch at f={} n={}", fname, n)
    return [weight, hnf, ces]


def _sweep_classes(max_n: int) -> Iterator[tuple[int, int]]:
    """Invariants (m, n) of the classes [m, m, n, n] a verify sweep covers.

    Yields m != 0 and |m|, |n| <= max_n in lexicographic order.
    """
    span = range(-max_n, max_n + 1)
    return ((m, n) for m in span if m != 0 for n in span)


def _verify_oracle(max_n: int) -> list[_Sweep]:
    gw = _Sweep("oracle/closed-vs-enumerated")
    auts = _Sweep("oracle/aut-formula-vs-smith")
    counts = _Sweep("oracle/component-count")
    for m, n in _sweep_classes(max_n):
        # One pass over the walk checks each label's |Aut| against its
        # Smith index and counts the labels and their weights g / |Aut|.
        g = math.gcd(m, n)
        listed = weights = 0
        for d, _, _, labels in moduli_divisors(m, n):
            listed += len(labels)
            for k, ell, _, _, aut_size, hom in labels:
                weights += g // aut_size
                auts.check(aut_size == aut_size_smith(hom),
                           "aut mismatch at m={} n={} (d,k,l)=({},{},{})",
                           m, n, d, k, ell)
        A = HomologyClass(m, m, n, n)
        if not _agree(gw_closed_form(A), gw_enumerated(A)):
            gw.check(False, "invariant mismatch at m={} n={}", m, n)
        else:
            # The walked weights add up to g times the pair sum, in the same
            # check as the invariants.
            gw.check(weights == aut_weight_total(m, n),
                     "component weight sum mismatch at m={} n={}", m, n)
        counts.check(listed == component_count(m, n),
                     "component count mismatch at m={} n={}", m, n)
    return [gw, auts, counts]


def _verify_geometry(max_n: int) -> list[_Sweep]:
    residual = _Sweep("geometry/cr-residual")
    area = _Sweep("geometry/area-positivity")
    cycle = _Sweep("geometry/eval-cycle")
    at = " at m={} n={} (d,k,l)=({},{},{})"
    for m, n in _sweep_classes(max_n):
        expected = component_eval_class(m, n)
        for d, dp, a, labels in moduli_divisors(m, n):
            c, e = dp[2:]
            tau2, cos, sin = solve_columns(c, e, a, a)
            solve = label_solver(c, e, a, a, tau2, cos, sin)
            for k, ell, q3, z, _, hom in labels:
                where = (m, n, d, k, ell)
                res = solve(q3, z)[3]
                residual.check(res < 1e-9, "residual {:g}" + at, res, *where)
                ar = symplectic_area(homology_class(hom), cos, sin)
                area.check(ar > 0, "area {:g}" + at, ar, *where)
                # The class reads the component's own columns.
                cycle.check(eval_class_integrate(hom) == expected,
                            "cycle class mismatch" + at, *where)
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


# The sweeps of each verify suite; `all` runs every suite in this order.
_SUITES = {"identities": _verify_identities, "oracle": _verify_oracle,
           "geometry": _verify_geometry}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max < 1:
        raise ValueError("--max must be at least 1")
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    if "identities" in suites and args.max > IDENTITIES_MAX:
        raise ValueError(f"verify identities --max {args.max} exceeds "
                         f"the limit of {IDENTITIES_MAX}")
    if suites != ["identities"]:
        _check_sweep_budget(args.max)
    sweeps = [sweep for suite in suites for sweep in _SUITES[suite](args.max)]
    _write([f"{sweep.name}: {sweep.checked} checks, {sweep.failed} failures "
            f"[{'FAIL' if sweep.failed else 'ok'}]" for sweep in sweeps])
    failed = [sweep for sweep in sweeps if sweep.failed]
    if failed:
        print(f"first counterexample: {failed[0].first_failure}",
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
    counts = sublattice_counts(args.lmax)
    lines = []
    for ell in range(1, args.lmax + 1):
        s1 = sigma(1, ell)
        lines.append(_BASELINE.fill(args.format, {
            "ell": ell, "hnf_count": counts[ell], "sigma1": s1,
            "equal": str(counts[ell] == s1).lower()}))
    if args.format == "text":
        _write([f"{'ell':>5} {'hnf':>8} {'sigma1':>8} {'equal':>6}",
                *(f"{row['ell']:>5} {row['hnf_count']:>8} {row['sigma1']:>8} "
                  f"{row['equal']:>6}" for row in _BASELINE.named(lines))])
    else:
        _BASELINE.print(args.format, lines, **vars(args))
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


class _Arg:
    """An argument of a command: a positional named by its dest, or an
    option by its --flag.  Its value is an int, or one of its choices."""

    def __init__(self, name: str, choices: tuple[str, ...] | None = None,
                 default: object = None, help: str | None = None) -> None:
        self.name, self.choices = name, choices
        self.default, self.help = default, help
        self.dest = name.lstrip("-")

    def read(self, token: str) -> object:
        """The value argparse reads from a plain token; else ValueError."""
        if self.choices is None:
            # The plain spelling of an int, an optional - then ASCII digits:
            # int() also reads "+5", "1_0", " 5" and non-ASCII digits, which
            # are left to argparse.
            digits = token[1:] if token[:1] == "-" else token
            if digits.isdigit() and digits.isascii():
                return int(token)
        elif token in self.choices:
            return token
        raise ValueError(token)


class _Command:
    """A subcommand: its handler, help line, positionals and options."""

    def __init__(self, func: Callable[[argparse.Namespace], int], help: str,
                 positionals: tuple[_Arg, ...],
                 options: tuple[_Arg, ...]) -> None:
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
                       (_Arg("suite", (*_SUITES, "all")),),
                       (_Arg("--max", default=8,
                             help="sweep bound (default 8)"),)),
    "baseline": _Command(_cmd_baseline, "sublattice counts against sigma_1",
                         (_Arg("lmax"),), (_FORMAT,)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ktgw` parser, built once; parsing does not change it.  Only a
    command line that _read refuses imports argparse."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file: object = None) -> None:
            """By _write and flushed: argparse's own write drops errors."""
            _write(self.format_help().splitlines())
            sys.stdout.flush()

    parser = Parser(
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
    return parser


def _read(argv: Sequence[str]) -> types.SimpleNamespace | None:
    """The namespace of a plain command line, whose vars() equal those of
    argparse's, or None.

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
    values = {"command": argv[0], **command.defaults}
    try:
        for arg, token in zip(args, [*argv[1:end], *argv[end + 1::2]]):
            values[arg.dest] = arg.read(token)
    except ValueError:
        return None
    return types.SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line, by default sys.argv[1:], and return its exit
    code.

    A plain command line (see _read) is read directly, without importing
    argparse.  Any other, and every request for help, goes through
    argparse, which prints usage errors (exit 2) as it always has, and its
    help by _write.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return _GRAMMAR[args.command].func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    """Exit with main's code, or with 3 and one line on stderr when stdout
    is closed or a write to it fails, as into a closed pipe or a full
    device."""
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            # The flush at exit then writes what is left to devnull.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = 3
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()
