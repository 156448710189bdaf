import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktgw import arith, cli, geometry, gwcount
from ktgw.cli import BASELINE_LMAX, IDENTITIES_MAX, main
from ktgw.cli import _check_printable as check_printable
from ktgw.cli import _check_sweep_budget as check_sweep_budget
from ktgw.gwcount import (GWResult, component_eval_class, gw_closed_form,
                          gw_enumerated, moduli_divisors)
from ktgw.nilalg import H3_ZERO, H3Class, HomologyClass, Rational
from oracles import (bent_label_terms, cr_residual_affine, fraction,
                     hnf_matrices, label_component, lie, rational, replace,
                     solve_torus_fractions, walk_components)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def frac_of(obj):
    return Fraction(int(obj["num"]), int(obj["den"]))


def flip_normalized_n(normalize_class):
    """normalize_class with the sign of the n it returns flipped."""
    def flipped(A):
        M, out = normalize_class(A)
        return M, HomologyClass(out.a13, out.a23, -out.a14, -out.a24)
    return flipped


class TestGwCommand:
    def test_both_agree(self, capsys):
        code, out, err = run(capsys, "gw", "1", "1", "0", "0",
                             "--method", "both", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["agrees"] is True
        assert len(payload["results"]) == 2
        for result in payload["results"]:
            assert frac_of(result["gw"]["e134"]) == 1
            assert frac_of(result["gw"]["e234"]) == 1
            assert frac_of(result["gw"]["e124"]) == 0

    def test_json_roundtrips_exact_values(self, capsys):
        code, out, _ = run(capsys, "gw", "2", "4", "1", "2",
                           "--method", "closed", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        expected = gw_closed_form(HomologyClass(2, 4, 1, 2)).gw
        got = payload["results"][0]["gw"]
        assert frac_of(got["e134"]) == fraction(expected.e134)
        assert frac_of(got["e234"]) == fraction(expected.e234)
        assert [int(v) for v in payload["results"][0]["normalized"]] == \
            [2, 2, 1, 1]

    def test_plucker_violation_exit_2(self, capsys):
        code, out, err = run(capsys, "gw", "1", "0", "0", "1")
        assert code == 2
        assert "Plücker" in err
        assert out == ""

    def test_unprovable_prime_g_exit_2(self, capsys):
        big = str(2 ** 89 - 1)
        code, out, err = run(capsys, "gw", big, big, "0", "0",
                             "--format", "json")
        assert code == 2
        assert out == ""
        assert "Miller-Rabin" in err

    def test_zero_class(self, capsys):
        code, out, _ = run(capsys, "gw", "0", "0", "0", "0",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agrees"] is True
        assert frac_of(payload["results"][0]["gw"]["e134"]) == 0

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "gw", "2", "2", "0", "0", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["a13", "a23", "a14", "a24", "method", "m", "n",
                           "e134", "e234", "e124", "agrees"]
        assert rows[1][:7] == ["2", "2", "0", "0", "closed", "2", "0"]
        assert rows[1][7] == "5"
        assert rows[2][4] == "enumerated"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "gw", "1", "1", "0", "0")
        assert code == 0
        assert "agrees: true" in out

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gw", "3", "6", "2", "4", "--format", "json")
        _, out2, _ = run(capsys, "gw", "3", "6", "2", "4", "--format", "json")
        assert out1 == out2

    def test_unsplittable_g_exit_2(self, capsys):
        # g is a semiprime whose factors both lie above the 10^7 split limit.
        g = str(100000007 * 100000037)
        code, out, err = run(capsys, "gw", g, g, "0", "0",
                             "--method", "closed")
        assert code == 2
        assert out == ""
        assert "cannot split" in err

    def test_both_methods_split_g_once(self, capsys, monkeypatch):
        # g = 1009 * 1013 has no prime factor below the trial-division
        # primes, so each factorization of g scans for a split once, after a
        # composite verdict.  The closed form, the budget check and the
        # weight sum all factor g.
        verdicts = []
        arith_is_prime = arith._is_prime

        def is_prime(n):
            verdicts.append(arith_is_prime(n))
            return verdicts[-1]

        monkeypatch.setattr(arith, "_is_prime", is_prime)
        arith._factorize.cache_clear()
        g = str(1009 * 1013)
        code, out, _ = run(capsys, "gw", g, g, "0", "0", "--method", "both")
        assert code == 0
        assert out.endswith("agrees: true\n")
        assert verdicts.count(False) == 1

    def test_enumeration_over_budget_exit_2(self, capsys):
        # g = 2^6 3^4 5^2 7 11 13 17 19 23 has 6720 divisors, so the class
        # has 6720^2 = 45158400 divisor pairs.
        big = str(963761198400)
        for method in ("both", "enumerate"):
            code, out, err = run(capsys, "gw", big, big, "0", "0",
                                 "--method", method)
            assert code == 2
            assert out == ""
            assert "budget" in err
        code, out, _ = run(capsys, "gw", big, big, "0", "0",
                           "--method", "closed")
        assert code == 0
        assert out

    def test_enumeration_gcd_bits_at_literal_edge(self, capsys):
        # README documents 1024 bits.  3^646 has exactly 1024 and 647
        # divisors, so its class answers with sigma_2(3^646); 2 * 3^646 has
        # 1025 and is refused before anything is printed.
        g = 3 ** 646
        assert (g.bit_length(), (2 * g).bit_length()) == (1024, 1025)
        code, out, err = run(capsys, "gw", str(g), str(g), "0", "0",
                             "--method", "enumerate")
        sigma2 = (3 ** 1294 - 1) // 8
        assert (code, err) == (0, "")
        assert out.endswith(f"enumerated: e134={sigma2} e234={sigma2} "
                            f"e124=0\n")
        code, out, err = run(capsys, "gw", str(2 * g), str(2 * g), "0", "0",
                             "--method", "enumerate")
        assert (code, out) == (2, "")
        assert err == ("error: gcd(m, n) has 1025 bits, over the enumeration "
                       "limit of 1024\n")

    def test_split_refusal_names_literal_limit(self, capsys):
        # README documents the 10^7 split limit; the refusal names it.
        g = 10000019 * 10000079
        code, out, err = run(capsys, "gw", str(g), str(g), "0", "0",
                             "--method", "closed")
        assert (code, out) == (2, "")
        assert err == (f"error: cannot split {g}: it is composite with no "
                       f"prime factor up to 10000000\n")

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_normalization_sign_defect_exit_1(self, capsys, monkeypatch,
                                              fmt):
        # The invariant reads n only through n^2, so a wrong sign of n on
        # the enumerated route shows only in the (m, n) the routes compare.
        monkeypatch.setattr(gwcount, "normalize_class",
                            flip_normalized_n(gwcount.normalize_class))
        code, out, err = run(capsys, "gw", "-6", "4", "9", "-6",
                             "--method", "both", "--format", fmt)
        assert code == 1
        assert out
        assert err == "error: closed and enumerated invariants disagree\n"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("method, made", [("both", 5), ("closed", 2)])
    def test_fractions_per_op(self, capsys, monkeypatch, fmt, method, made):
        # Each route builds a Rational only for the E134 and E234
        # coefficients it returns, and the enumerated route reads one from
        # its evaluation class.
        counts = []
        init = Rational.__init__

        def counted(self, *args, **kwargs):
            counts[-1] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Rational, "__init__", counted)
        for A in [(-6, 4, 9, -6), (0, 5, 0, -15), (1200, 0, 600, 0),
                  (2 ** 70, 2 ** 71, 3, 6)]:
            counts.append(0)
            code, _, _ = run(capsys, "gw", *map(str, A), "--method", method,
                             "--format", fmt)
            assert code == 0
        assert counts == [made] * 4

    def test_enumeration_answers_large_gcd(self, capsys):
        # 2^61 - 1 is prime (4 divisor pairs) and 10^9 has 100^2 pairs,
        # though their classes have over 10^11 components.
        for big in (str(2 ** 61 - 1), str(10 ** 9)):
            code, out, err = run(capsys, "gw", big, big, "0", "0")
            assert code == 0
            assert out.endswith("agrees: true\n")
            assert err == ""

    def test_invariant_past_digit_limit_exit_2(self, capsys):
        # e134 has about 4500 digits, past the interpreter's limit of 4300
        # for converting an int to str, so no format can print it.
        big = str(10 ** 1500)
        for fmt in ("text", "json", "csv"):
            code, out, err = run(capsys, "gw", big, big, "1", "1",
                                 "--method", "closed", "--format", fmt)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")
            assert err.count("\n") == 1

    def test_digit_limit_refusal_in_own_words(self, capsys):
        limit = sys.get_int_max_str_digits()
        big = str(10 ** 1500)
        _, _, err = run(capsys, "gw", big, big, "1", "1", "--method", "closed")
        assert err == (f"error: the invariant has over {limit} digits, past "
                       f"this interpreter's limit for printing an integer\n")
        # The refusal starts at exactly limit + 1 digits, in the numerator
        # or the denominator of any coordinate.
        def result(*gw):
            return GWResult(0, 0, H3Class(*gw), "closed")

        most = 10 ** limit - 1
        check_printable([result(-most, 1, Rational(1, most))])
        for gw in [(10 ** limit, 0, 0), (0, -(10 ** limit), 0),
                   (0, 0, Rational(1, 10 ** limit))]:
            with pytest.raises(ValueError, match="invariant has over"):
                check_printable([result(1, 1, 1), result(*gw)])

    def test_disagreeing_routes_exit_1(self, capsys, monkeypatch):
        real = cli.gw_enumerated
        monkeypatch.setattr(cli, "gw_enumerated",
                            lambda A: replace(real(A), gw=H3_ZERO))
        for fmt in ("text", "json", "csv"):
            code, out, err = run(capsys, "gw", "2", "4", "1", "2",
                                 "--format", fmt)
            assert code == 1
            assert out != ""
            assert err == "error: closed and enumerated invariants disagree\n"


# Reference list items, built with json.dumps from a row by the README's
# schema rules: integers are decimal strings, rationals {"num", "den"}
# string pairs, floats {"value", "approx": true}, and booleans bare.
def ref_frac(v):
    v = fraction(v)
    return {"num": str(v.numerator), "den": str(v.denominator)}


def ref_approx(x):
    return {"value": x, "approx": True}


def ref_gw_item(row):
    a13, a23, a14, a24, method, m, n, e134, e234, e124, _ = row
    return {"input_class": [str(v) for v in (a13, a23, a14, a24)],
            "normalized": [str(v) for v in (m, m, n, n)],
            "m": str(m), "n": str(n), "method": method,
            "gw": {"e134": ref_frac(e134), "e234": ref_frac(e234),
                   "e124": ref_frac(e124)}}


def component_rows(comps, ev):
    """The moduli row of each component by the references of
    `tests/oracles.py`, with evaluation class ev: its Lie columns by `lie`,
    its torus solved through Fractions by `solve_torus_fractions`, and its
    residual rounded from scratch by `cr_residual_affine`."""
    rows = []
    for comp in comps:
        sol = solve_torus_fractions(comp.hom)
        dp, dq = lie(comp.hom)
        rows.append((comp.d, comp.k, comp.ell, *dp, *dq, sol.tau1, sol.tau2,
                     sol.theta(), sol.c0_n2, comp.aut_size, *ev,
                     cr_residual_affine(sol)))
    return rows


def stage_values(row, names):
    """The values of a full moduli row named by names: a column's value, or
    the numerator or denominator of a rational column, col.num or col.den,
    or the float of col.value."""
    values = []
    for name in names:
        col, _, leaf = name.partition(".")
        value = row[cli._MODULI_COLUMNS.index(col)]
        values.append(value.numerator if leaf == "num" else
                      value.denominator if leaf == "den" else value)
    return tuple(values)


def full_moduli_row(group, label):
    """The full moduli row of a group and a row of the command's pass, each
    rational a Fraction."""
    value = dict(group)
    value.update(zip(cli._MODULI.row_leaves, label))
    for col in ("dq3", "dq4", "c0_n2"):
        value[col] = Fraction(value.pop(col + ".num"),
                              value.pop(col + ".den"))
    for col in ("tau1", "cr_residual"):
        value[col] = value.pop(col + ".value")
    return tuple(value[col] for col in cli._MODULI_COLUMNS)


def pass_rows(m, n, labelled):
    """The full moduli rows of the command's one pass over the labels of
    each (d, dp, dq h1, labels) of labelled, in the class (m, n)."""
    ev = component_eval_class(m, n).coords()
    return [full_moduli_row(group, label)
            for d, dp, a, labels in labelled
            for group, rows in [cli._moduli_rows(d, dp, a, labels, ev)]
            for label in rows]


def component_labels(comps):
    """The labels of components of one divisor, as `moduli_divisors` gives
    them: (d, dp, dq h1, labels)."""
    hom = comps[0].hom
    return (comps[0].d, hom.dp, hom.dq[0],
            [(c.k, c.ell, *c.hom.dq[2:], c.aut_size, c.hom) for c in comps])


def ref_moduli_item(row):
    d, k, ell, *h, tau1, tau2, theta, c0, aut, e134, e234, e124, res = row
    return {"d": str(d), "k": str(k), "l": str(ell),
            "hom": {"dp": [ref_frac(v) for v in h[:4]],
                    "dq": [ref_frac(v) for v in h[4:]]},
            "tau1": ref_approx(tau1), "tau2": ref_approx(tau2),
            "theta": ref_approx(theta), "c0_n2": ref_frac(c0),
            "aut_size": str(aut),
            "eval_class": {"e134": ref_frac(e134), "e234": ref_frac(e234),
                           "e124": ref_frac(e124)},
            "cr_residual": ref_approx(res)}


def ref_baseline_item(row):
    ell, count, s1, equal = row
    return {"ell": str(ell), "hnf_count": str(count), "sigma1": str(s1),
            "equal": {"true": True, "false": False}[equal]}


def ref_item_text(item):
    """json.dumps of a list item, at its indent in the payload."""
    return json.dumps(item, indent=2).replace("\n", "\n    ")


_INTS = (st.integers()
         | st.integers(min_value=2 ** 64, max_value=2 ** 200)
         | st.integers(min_value=-2 ** 200, max_value=-2 ** 64))
_RATS = _INTS | (st.fractions() | st.builds(Fraction, _INTS,
                                            _INTS.filter(bool))).map(rational)
_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.1e138])
_BOOLS = st.sampled_from(["true", "false"])
_ROWS = {
    "gw": st.tuples(*[_INTS] * 4, st.sampled_from(["closed", "enumerated"]),
                    _INTS, _INTS, *[_RATS] * 3, _BOOLS | st.just("")),
    "moduli": st.tuples(*[_INTS] * 3, *[_RATS] * 8, *[_FLOATS] * 3, _RATS,
                        _INTS, *[_RATS] * 3, _FLOATS),
    "baseline": st.tuples(*[_INTS] * 3, _BOOLS),
}
# moduli's items filled in one stage, each row a group of its own.
_FLAT_MODULI = cli._Output({}, cli._MODULI_COLUMNS, cli._MODULI_ITEM)
_TEMPLATES = {
    "gw": (cli._GW, ref_gw_item),
    "moduli": (_FLAT_MODULI, ref_moduli_item),
    "baseline": (cli._BASELINE, ref_baseline_item),
}
# The holes each template may have.  An item's name its leaves: a column,
# col.num and col.den of a rational column, and col.value of a float
# column.  An envelope's name schema_version, the command's arguments, the
# items and the gw flag agrees.
_RATIONAL_COLUMNS = {*cli._GW_COLUMNS[7:10], *cli._MODULI_COLUMNS[3:11],
                     "c0_n2", *cli._MODULI_COLUMNS[16:19]}
_FLOAT_COLUMNS = {"tau1", "tau2", "theta", "cr_residual"}


def item_leaves(columns):
    return {*columns,
            *(col + part for col in _RATIONAL_COLUMNS & set(columns)
              for part in (".num", ".den")),
            *(col + ".value" for col in _FLOAT_COLUMNS & set(columns))}


_GW_ARGS = {"command", "a13", "a23", "a14", "a24", "method"}
_HOLES = {
    **{command: (items.item, items.holes, item_leaves(items.columns))
       for command, (items, _) in _TEMPLATES.items()},
    "gw-envelope": (cli._GW.envelope, cli._GW.envelope_holes,
                    _GW_ARGS | {"schema_version", "items"}),
    "gw-agrees-envelope": (cli._GW_AGREES.envelope,
                           cli._GW_AGREES.envelope_holes,
                           _GW_ARGS | {"schema_version", "items", "agrees"}),
    "moduli-envelope": (cli._MODULI.envelope, cli._MODULI.envelope_holes,
                        {"command", "m", "n", "schema_version", "items"}),
    "baseline-envelope": (cli._BASELINE.envelope,
                          cli._BASELINE.envelope_holes,
                          {"command", "schema_version", "items"}),
    "moduli-divisor": (cli._MODULI.item, cli._MODULI.group_holes,
                       item_leaves(cli._MODULI.group_columns)),
}
# The %%s holes of a template filled in two stages, and the leaves they may
# name: the leaves of a moduli column.
_LABEL_HOLES = {
    "moduli-divisor": (cli._MODULI.row_leaves,
                       item_leaves(cli._MODULI_COLUMNS)),
}
_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]


def ref_moduli_text(row):
    """A moduli text table line of a full row, formatted column by column."""
    d, k, ell, *h, tau1, tau2, theta, c0, aut, ev134, _, _, res = row
    mat = "[%s,%s,%s,%s | %s,%s,%s,%s]" % tuple(map(str, h))
    return (f"{d:>3} {k:>3} {ell:>3} {mat:<26} {tau1:>9.5f} {tau2:>9.5f} "
            f"{theta:>9.5f} {str(c0):>7} {aut:>5} {str(ev134):>9} "
            f"{res:>9.2e}")


def fill(output, fmt, row):
    """The JSON item or CSV line of a full row, a group of its own."""
    return output.fill(fmt, dict(zip(output.columns, row)))


def json_out(*argv):
    """stdout of a JSON command that exits 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    return out.getvalue()


def ref_gw_payload(A, method):
    results = []
    if method in ("closed", "both"):
        results.append(gw_closed_form(A))
    if method in ("enumerate", "both"):
        results.append(gw_enumerated(A))
    payload = {"schema_version": "1", "command": "gw",
               "class": [str(v) for v in A.coords()], "method": method,
               "results": [ref_gw_item((*A.coords(), r.method, r.m, r.n,
                                        *r.gw.coords(), ""))
                           for r in results]}
    if method == "both":
        payload["agrees"] = ((results[0].m, results[0].n, results[0].gw)
                             == (results[1].m, results[1].n, results[1].gw))
    return payload


class TestJsonTemplates:
    @pytest.mark.parametrize("command", sorted(_HOLES))
    def test_holes_name_columns(self, command):
        # Each %s of a template is one hole, named by its leaf in holes.  In
        # a template filled in two stages, each %%s is a hole of the second,
        # named by a label leaf.
        template, holes, names = _HOLES[command]
        label_holes, label_names = _LABEL_HOLES.get(command, ([], set()))
        assert template.count("%%s") == len(label_holes)
        assert set(label_holes) <= label_names
        template = template.replace("%%s", "")
        assert template.count("%s") == len(holes)
        assert "%" not in template.replace("%s", "")
        assert set(holes) <= names
        if command.endswith("envelope"):
            assert holes.count("items") == 1

    @pytest.mark.parametrize("command", sorted(_TEMPLATES))
    @given(data=st.data())
    def test_matches_json_dumps_indent_2(self, command, data):
        items, ref_item = _TEMPLATES[command]
        row = data.draw(_ROWS[command])
        assert len(row) == len(items.columns)
        assert fill(items, "json", row) == ref_item_text(ref_item(row))
        ref, out = io.StringIO(), io.StringIO()
        csv.writer(ref).writerows([items.columns, row])
        with redirect_stdout(out):
            items.print("csv", [fill(items, "csv", row)])
        assert out.getvalue() == ref.getvalue()

    def test_special_leaves(self):
        big, nan, inf = 2 ** 70, float("nan"), float("inf")
        rows = {
            "gw": [(-big, big, 0, 1, "closed", big, -big, Rational(-1, 3),
                    Rational(big, 7), 0, "false")],
            "moduli": [(1, big, -big, 0, 0, 1, Rational(-3, 2), -1, big, 0,
                        Rational(-big, 3), nan, inf, -inf, Rational(-1, 2),
                        big, Rational(big, 3), -big, 0, -0.0),
                       (1, 2, 3, 0, 0, 1, 0, 1, 1, 0, 1, 5e-324, 2.1e138,
                        -2.1e138, 0, 1, 1, 1, 0, 0.5)],
            "baseline": [(big, big, big + 1, "false")],
        }
        for command, (items, ref_item) in _TEMPLATES.items():
            assert [fill(items, "json", row) for row in rows[command]] == [
                ref_item_text(ref_item(row)) for row in rows[command]]

    @pytest.mark.parametrize("special", _SPECIAL_FLOATS)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_stages_match_one_stage_fill(self, special, data):
        # Rows that share a divisor part, special in tau2 and theta, give
        # from their group and rows the JSON items, CSV lines and text
        # lines of the full rows, each filled in one stage.  Within the
        # divisor, dq3 and dq4 each keep one denominator.
        output, columns = cli._MODULI, cli._MODULI_COLUMNS
        rows = data.draw(st.lists(_ROWS["moduli"], min_size=1, max_size=4))
        shared = {col: rows[0][columns.index(col)]
                  for col in output.group_columns if col in columns}
        shared["tau2"] = special
        shared["theta"] = data.draw(st.sampled_from(_SPECIAL_FLOATS))
        dens = {"dq3": data.draw(st.integers(1, 5)),
                "dq4": data.draw(st.integers(1, 5))}
        full = []
        for row in rows:
            value = dict(zip(columns, row)) | shared
            for col, den in dens.items():
                # den t + 1 is prime to den.
                value[col] = Rational(den * data.draw(_INTS) + 1, den)
            full.append(tuple(value[col] for col in columns))
        group = dict(zip(output.group_columns,
                         stage_values(full[0], output.group_columns)))
        labels = [stage_values(row, output.row_leaves) for row in full]
        staged = {fmt: output.fill_rows(fmt, group, labels)
                  for fmt in ("json", "csv", "text")}
        assert staged["json"] == [fill(_FLAT_MODULI, "json", row)
                                  for row in full]
        lines = [fill(_FLAT_MODULI, "csv", row) for row in full]
        assert staged["csv"] == staged["text"] == lines
        ref = io.StringIO()
        csv.writer(ref).writerows(full)
        assert "".join(line + "\r\n" for line in lines) == ref.getvalue()
        assert list(map(cli._moduli_text, output.named(staged["text"]))) == \
            list(map(ref_moduli_text, full))

    def test_label_leaves_in_item_order(self):
        # A row fills its template as it stands, so its leaves come in the
        # order of their holes in the item, which _moduli_rows follows.
        assert cli._MODULI.row_leaves == (
            "k", "l", "dq3.num", "dq4.num", "tau1.value", "c0_n2.num",
            "c0_n2.den", "aut_size", "cr_residual.value")
        assert cli._MODULI.group_columns == (
            "d", "dp1", "dp2", "dp3", "dp4", "dq1", "dq2", "dq3.den",
            "dq4.den", "tau2", "theta", "ev_e134", "ev_e234", "ev_e124")

    def test_divisor_holes_are_leaves_constant_per_divisor(self):
        # A hole is a divisor hole when its leaf takes one value on all
        # components of each divisor of each class.  dq3 and dq4 vary with
        # the label, but each keeps one denominator.
        holes, varies = _FLAT_MODULI.holes, set()
        assert cli._MODULI.holes == holes
        for m, n in cli._sweep_classes(12):
            first = {}
            for row in component_rows(walk_components(m, n),
                                      component_eval_class(m, n).coords()):
                leaves = _FLAT_MODULI._group_leaves(
                    dict(zip(cli._MODULI_COLUMNS, row)))
                varies |= {hole for hole, a, b in zip(
                    holes, first.setdefault(row[0], leaves), leaves)
                    if a != b}
        assert cli._MODULI.group_holes == [
            hole for hole in holes if hole not in varies]
        assert len(cli._MODULI.group_holes) == 23

    @settings(max_examples=15, deadline=None)
    @given(m=st.integers(-12, 12).filter(bool), n=st.integers(-12, 12))
    def test_moduli_command_matches_reference(self, m, n):
        items = [ref_moduli_item(row) for row in component_rows(
            walk_components(m, n), component_eval_class(m, n).coords())]
        payload = {"schema_version": "1", "command": "moduli",
                   "m": str(m), "n": str(n), "components": items}
        assert json_out("moduli", str(m), str(n)) == \
            json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("method", ["closed", "enumerate", "both"])
    @settings(max_examples=15, deadline=None)
    @given(p=st.integers(-9, 9), q=st.integers(-9, 9),
           s=st.integers(-9, 9), t=st.integers(-9, 9))
    def test_gw_command_matches_reference(self, method, p, q, s, t):
        # [s p, s q, t p, t q] meets the Plücker relation a13 a24 = a23 a14.
        A = HomologyClass(s * p, s * q, t * p, t * q)
        assert json_out("gw", *map(str, A.coords()), "--method", method) == \
            json.dumps(ref_gw_payload(A, method), indent=2) + "\n"

    @settings(max_examples=15, deadline=None)
    @given(lmax=st.integers(1, 60))
    def test_baseline_command_matches_reference(self, lmax):
        rows = [(ell, len(list(hnf_matrices(ell))), arith.sigma(1, ell))
                for ell in range(1, lmax + 1)]
        payload = {"schema_version": "1", "command": "baseline",
                   "rows": [ref_baseline_item((ell, c, s1,
                                               str(c == s1).lower()))
                            for ell, c, s1 in rows]}
        assert json_out("baseline", str(lmax)) == \
            json.dumps(payload, indent=2) + "\n"


class TestModuliCommand:
    def test_component_count(self, capsys):
        code, out, _ = run(capsys, "moduli", "2", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["components"]) == 4

    def test_single_component_fields(self, capsys):
        code, out, _ = run(capsys, "moduli", "1", "0", "--format", "json")
        assert code == 0
        comp = json.loads(out)["components"][0]
        assert comp["aut_size"] == "1"
        assert comp["tau2"]["approx"] is True
        assert comp["tau2"]["value"] == pytest.approx(2 ** 0.5)
        assert frac_of(comp["c0_n2"]) == Fraction(-1, 2)
        assert comp["cr_residual"]["value"] < 1e-9
        assert frac_of(comp["hom"]["dq"][3]) == Fraction(1, 2)

    def test_zero_m_exit_2(self, capsys):
        code, out, err = run(capsys, "moduli", "0", "1")
        assert code == 2
        assert "obstructed" in err

    def test_over_budget_exit_2(self, capsys):
        # 100000 sigma_0(100000) = 3.6 * 10^6 components, none solved.
        code, out, err = run(capsys, "moduli", "100000", "0",
                             "--format", "json")
        assert code == 2
        assert out == ""
        assert "moduli budget" in err

    def test_huge_m_refused_before_factoring(self, capsys):
        # |m| alone proves more than 10^4 components; gcd(m, 0) = m =
        # 100000007 * 100000037 would be refused by the 10^7 split scan.
        code, out, err = run(capsys, "moduli", "10000004400000259", "0")
        assert code == 2
        assert out == ""
        assert "at least 10000004400000259 moduli components" in err
        assert "moduli budget" in err

    def test_huge_n_exit_2(self, capsys):
        # m^2 + n^2 = dp h3^2 + dp h4^2 at d = 1 passes the largest float.
        for m, n in [(1, 2 * 10 ** 154), (1, 10 ** 200), (2, 2 * 10 ** 200)]:
            code, out, err = run(capsys, "moduli", str(m), str(n))
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        code, out, _ = run(capsys, "moduli", "1", str(10 ** 154))
        assert code == 0
        assert "(1 components)" in out

    def test_residual_overflow_exit_2(self, capsys):
        # Both columns fit a float, but a square of the Cauchy-Riemann
        # defect does not: a refusal, not a failed cross-check.
        for m, n in [(2, 10 ** 154), (7, 10 ** 153 + 3)]:
            for fmt in ["text", "json", "csv"]:
                code, out, err = run(capsys, "moduli", str(m), str(n),
                                     "--format", fmt)
                assert code == 2
                assert out == ""
                assert err == ("error: the Cauchy-Riemann defect of this "
                               "torus passes the largest float\n")

    def test_budget_at_literal_edge(self, capsys):
        # README documents 10^4 components: |m| sigma_0(gcd(m, 1)) = |m|.
        code, out, err = run(capsys, "moduli", "10000", "1")
        assert (code, err) == (0, "")
        assert "(10000 components)" in out
        code, out, err = run(capsys, "moduli", "10001", "1")
        assert (code, out) == (2, "")
        assert "moduli budget of 10000" in err

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "moduli", "2", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 4
        assert rows[0][:3] == ["d", "k", "l"]


def exact(row):
    """row with each float as its hex and each rational as a Fraction."""
    return tuple(v.hex() if isinstance(v, float) else fraction(v)
                 for v in row)


class TestDivisorLoop:
    """The moduli rows of the command's one pass per divisor are those of
    the references of `tests/oracles.py`, to the last bit."""

    def test_small_classes_bitwise(self):
        for m, n in cli._sweep_classes(12):
            comps = walk_components(m, n)
            ev = component_eval_class(m, n).coords()
            assert list(map(exact, pass_rows(m, n, moduli_divisors(m, n)))) \
                == list(map(exact, component_rows(comps, ev))), (m, n)

    @pytest.mark.parametrize("m, n, d", [
        (1200, 23757, 3), (10 ** 9, 10 ** 9, 40000), (-123456, 7890, 6)])
    def test_sampled_labels_bitwise(self, m, n, d):
        rng = random.Random(m + n + d)
        span = abs(m) // d
        # The last label has l = |m|/d, whose hom is reparametrised.
        labels = sorted((rng.randint(1, span), rng.randint(1, d))
                        for _ in range(39)) + [(span, rng.randint(1, d))]
        comps = [label_component(m, n, d, k, ell) for ell, k in labels]
        ev = component_eval_class(m, n).coords()
        assert list(map(exact, pass_rows(m, n, [component_labels(comps)]))) \
            == list(map(exact, component_rows(comps, ev)))

    @pytest.mark.parametrize("m, n, refusal", [
        (1, 2 * 10 ** 154, "a column of the homomorphism is too long for a "
                           "floating tau and theta"),
        (2, 10 ** 154, "the Cauchy-Riemann defect of this torus passes the "
                       "largest float"),
        (7, 10 ** 153 + 3, "the Cauchy-Riemann defect of this torus passes "
                           "the largest float"),
    ])
    def test_refusals_keep_their_text(self, m, n, refusal, capsys):
        # The references cannot form these rows either.
        comps = walk_components(m, n)
        ev = component_eval_class(m, n).coords()
        with pytest.raises((OverflowError, ValueError)):
            component_rows(comps, ev)
        with pytest.raises(ValueError) as exc:
            pass_rows(m, n, moduli_divisors(m, n))
        assert str(exc.value) == refusal
        for fmt in ["text", "json", "csv"]:
            assert run(capsys, "moduli", str(m), str(n), "--format", fmt) \
                == (2, "", f"error: {refusal}\n")


class TestVerifyCommand:
    def test_identities(self, capsys):
        code, out, _ = run(capsys, "verify", "identities", "--max", "25")
        assert code == 0
        assert "identities/weight-sum" in out
        assert "0 failures" in out

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--max", "4")
        assert code == 0
        assert "oracle/closed-vs-enumerated" in out

    def test_geometry(self, capsys):
        code, out, _ = run(capsys, "verify", "geometry", "--max", "2")
        assert code == 0
        assert "geometry/cr-residual" in out
        assert "geometry/eval-cycle" in out

    @pytest.mark.parametrize("dtau1, dc0, worst", [
        (0.1, 0, "1.27279"), (0.0, Fraction(1, 10), "0.3")])
    def test_planted_torus_fails_residual(self, capsys, monkeypatch, dtau1,
                                          dc0, worst):
        # A wrong tau1 or c0_n2 in the per-label solve fails the residual
        # gate of every component, and nothing else.
        monkeypatch.setattr(geometry, "_label_terms", bent_label_terms(
            geometry._label_terms, dtau1, dc0))
        code, out, err = run(capsys, "verify", "geometry", "--max", "3")
        assert code == 1
        assert out == ("geometry/cr-residual: 114 checks, 114 failures "
                       "[FAIL]\n"
                       "geometry/area-positivity: 114 checks, 0 failures "
                       "[ok]\n"
                       "geometry/eval-cycle: 114 checks, 0 failures [ok]\n")
        assert err == (f"first counterexample: residual {worst} at m=-3 "
                       f"n=-3 (d,k,l)=(1,1,1)\n")

    def test_failed_identity_exit_1(self, capsys, monkeypatch):
        real_weight = cli.aut_weight_total_closed
        real_counts = cli.sublattice_counts
        monkeypatch.setattr(
            cli, "aut_weight_total_closed",
            lambda m, n: real_weight(m, n) + ((m, n) in ((2, 1), (3, 3))))
        monkeypatch.setattr(cli, "sublattice_counts",
                            lambda lmax: [c + (ell == 2) for ell, c
                                          in enumerate(real_counts(lmax))])
        code, out, err = run(capsys, "verify", "identities", "--max", "3")
        assert code == 1
        assert out == ("identities/weight-sum: 12 checks, 2 failures [FAIL]\n"
                       "identities/hnf-sigma1: 3 checks, 1 failures [FAIL]\n"
                       "identities/cesaro: 9 checks, 0 failures [ok]\n")
        assert err == "first counterexample: weight sum mismatch at m=2 n=1\n"

    def test_component_weight_defect_exit_1(self, capsys, monkeypatch):
        # Walk the first label twice in place of the first one with another
        # |Aut|: the count holds and every walked |Aut| matches its Smith
        # index, so only the sum of the walked weights sees it.
        real = cli.moduli_divisors

        def doubled(m, n):
            walk = real(m, n)
            first = walk[0][3][0]
            for _, _, _, labels in walk:
                for i, label in enumerate(labels):
                    if label[4] != first[4]:
                        labels[i] = first
                        return walk
            return walk

        monkeypatch.setattr(cli, "moduli_divisors", doubled)
        code, out, err = run(capsys, "verify", "oracle", "--max", "6")
        assert code == 1
        assert out == (
            "oracle/closed-vs-enumerated: 156 checks, 62 failures [FAIL]\n"
            "oracle/aut-formula-vs-smith: 894 checks, 0 failures [ok]\n"
            "oracle/component-count: 156 checks, 0 failures [ok]\n")
        assert err == ("first counterexample: component weight sum "
                       "mismatch at m=-6 n=-6\n")

    def test_dropped_label_fails_only_count(self, capsys, monkeypatch):
        # A walk that loses the last label of d = 2 of (4, 6), and a pair
        # sum that loses that label's weight g / |Aut| with it: every check
        # but the label count sees a consistent class.
        real_walk, real_total = cli.moduli_divisors, cli.aut_weight_total

        def dropped(m, n):
            walk = real_walk(m, n)
            if (m, n) == (4, 6):
                assert walk[-1][0] == 2
                walk[-1][3].pop()
            return walk

        def total(m, n):
            if (m, n) != (4, 6):
                return real_total(m, n)
            return real_total(m, n) - 2 // real_walk(m, n)[-1][3][-1][4]

        monkeypatch.setattr(cli, "moduli_divisors", dropped)
        monkeypatch.setattr(cli, "aut_weight_total", total)
        code, out, err = run(capsys, "verify", "oracle", "--max", "6")
        assert code == 1
        assert out == (
            "oracle/closed-vs-enumerated: 156 checks, 0 failures [ok]\n"
            "oracle/aut-formula-vs-smith: 893 checks, 0 failures [ok]\n"
            "oracle/component-count: 156 checks, 1 failures [FAIL]\n")
        assert err == ("first counterexample: component count mismatch at "
                       "m=4 n=6\n")

    def test_wrong_aut_names_its_label(self, capsys, monkeypatch):
        # One label of (4, 6) walked with |Aut| one too large; its Smith
        # index is read from its hom, which is untouched.
        real = cli.moduli_divisors

        def wrong(m, n):
            walk = real(m, n)
            if (m, n) == (4, 6):
                labels = walk[1][3]
                k, ell, q3, z, aut_size, hom = labels[3]
                labels[3] = (k, ell, q3, z, aut_size + 1, hom)
            return walk

        monkeypatch.setattr(cli, "moduli_divisors", wrong)
        _, auts, counts = cli._verify_oracle(6)
        assert (auts.checked, auts.failed) == (894, 1)
        assert auts.first_failure == "aut mismatch at m=4 n=6 (d,k,l)=(2,2,2)"
        assert (counts.checked, counts.failed) == (156, 0)
        code, out, _ = run(capsys, "verify", "oracle", "--max", "6")
        assert code == 1
        assert ("oracle/aut-formula-vs-smith: 894 checks, 1 failures "
                "[FAIL]\n") in out

    def test_cesaro_tally_defect_exit_1(self, capsys, monkeypatch):
        # One more i counted with gcd(i, 4) = 1 adds f(1) = 1 to the left
        # side of every n that 4 divides, for each of the three functions.
        real = cli.gcd_tally

        def off_by_one(max_d):
            tally = real(max_d)
            assert tally[4][0] == (1, 2)
            tally[4] = ((1, 3), *tally[4][1:])
            return tally

        monkeypatch.setattr(cli, "gcd_tally", off_by_one)
        code, out, err = run(capsys, "verify", "identities", "--max", "10")
        assert code == 1
        assert out == ("identities/weight-sum: 110 checks, 0 failures [ok]\n"
                       "identities/hnf-sigma1: 10 checks, 0 failures [ok]\n"
                       "identities/cesaro: 30 checks, 6 failures [FAIL]\n")
        assert err == "first counterexample: cesaro mismatch at f=one n=4\n"

    def test_invariant_mismatch_reported_before_weights(self, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(
            cli, "gw_closed_form",
            lambda A: GWResult(0, 0, H3Class(A.a13, 0, 0), "closed"))
        code, out, err = run(capsys, "verify", "oracle", "--max", "1")
        assert code == 1
        assert out.startswith(
            "oracle/closed-vs-enumerated: 6 checks, 6 failures [FAIL]\n")
        assert err == ("first counterexample: invariant mismatch at "
                       "m=-1 n=-1\n")

    def test_normalization_sign_defect_exit_1(self, capsys, monkeypatch):
        # n = 0 keeps its sign, so the six classes with n = 0 pass.
        monkeypatch.setattr(gwcount, "normalize_class",
                            flip_normalized_n(gwcount.normalize_class))
        code, out, err = run(capsys, "verify", "oracle", "--max", "3")
        assert code == 1
        assert out.startswith(
            "oracle/closed-vs-enumerated: 42 checks, 36 failures [FAIL]\n")
        assert err == ("first counterexample: invariant mismatch at "
                       "m=-3 n=-3\n")

    def test_sieve_catches_factoring_defect(self, capsys):
        # With every exponent read as 1, sigma(1, 4) = 3; the sieve, which
        # never factors, still counts 7 sublattices of index 4.
        real = arith._factorize
        arith.divisors.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(arith, "_factorize",
                           lambda n: tuple((p, 1) for p, _ in real(n)))
                code, out, _ = run(capsys, "verify", "identities", "--max",
                                   "12")
                assert code == 1
                assert ("identities/hnf-sigma1: 12 checks, 4 failures "
                        "[FAIL]\n") in out
                code, out, _ = run(capsys, "baseline", "12")
                assert code == 0
                assert "    4        7        3  false" in out.splitlines()
        finally:
            arith.divisors.cache_clear()

    def test_passing_check_formats_nothing(self):
        class Unformattable:
            def __format__(self, spec):
                raise AssertionError("formatted a passing check")

        sweep = cli._Sweep("s")
        sweep.check(True, "{} at {:g}", Unformattable(), Unformattable())
        sweep.check(False, "x={} y={:g}", 3, 0.5)
        sweep.check(False, "{}", Unformattable())
        assert (sweep.checked, sweep.failed) == (3, 2)
        assert sweep.first_failure == "x=3 y=0.5"

    def test_bad_max(self, capsys):
        code, _, err = run(capsys, "verify", "identities", "--max", "0")
        assert code == 2

    def test_sweep_over_budget_exit_2(self, capsys):
        # --max 15 sweeps 11808 components; --max 14 stays inside the budget.
        check_sweep_budget(14)
        for suite, bound in [("oracle", "15"), ("geometry", "15"),
                             ("all", "15"), ("geometry", str(10 ** 12))]:
            code, out, err = run(capsys, "verify", suite, "--max", bound)
            assert code == 2
            assert out == ""
            assert "moduli budget" in err

    def test_identities_over_limit_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "identities", "--max",
                             str(IDENTITIES_MAX + 1))
        assert code == 2
        assert out == ""
        assert f"limit of {IDENTITIES_MAX}" in err

    def test_identities_limit_at_literal_edge(self, capsys, monkeypatch):
        # README documents --max 400; the sweep is stubbed, as only the
        # gate is under test.
        seen = []
        monkeypatch.setitem(cli._SUITES, "identities",
                            lambda max_n: seen.append(max_n) or [])
        assert run(capsys, "verify", "identities", "--max", "400") == \
            (0, "", "")
        code, out, err = run(capsys, "verify", "identities", "--max", "401")
        assert (code, out, seen) == (2, "", [400])
        assert "limit of 400" in err

    def test_format_flag_rejected(self, capsys):
        # verify prints text only, so it takes no --format.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "identities", "--max", "2", "--format", "json"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        for argv in (["gw", "1", "1", "0", "0"], ["moduli", "1", "0"],
                     ["baseline", "3"]):
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            assert json.loads(out)["command"] == argv[0]


class TestBaselineCommand:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "baseline", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["1", "1", "1", "true"]

    def test_row_six(self, capsys):
        code, out, _ = run(capsys, "baseline", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][5]
        assert row == {"ell": "6", "hnf_count": "12", "sigma1": "12",
                       "equal": True}

    def test_all_rows_equal_to_100(self, capsys):
        code, out, _ = run(capsys, "baseline", "100", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 100
        assert all(row[3] == "true" for row in rows)

    def test_bad_lmax(self, capsys):
        code, _, _ = run(capsys, "baseline", "0")
        assert code == 2

    def test_limit_at_literal_edge(self, capsys):
        # README documents LMAX up to 5000.
        code, out, err = run(capsys, "baseline", "5000", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.count(",true") == 5000
        code, out, err = run(capsys, "baseline", "5001")
        assert (code, out) == (2, "")
        assert "baseline limit of 5000" in err

    def test_over_limit_exit_2(self, capsys):
        code, out, err = run(capsys, "baseline", str(BASELINE_LMAX + 1),
                             "--format", "json")
        assert code == 2
        assert out == ""
        assert f"baseline limit of {BASELINE_LMAX}" in err


# Tokens for drawn command lines: plain ints, ints that only int() reads,
# every flag and value, and what argparse alone handles.
ODD_INTS = ("+5", "1_0", "-1_0", "\u0665", "-\u0665", "", " 5", "5 ", "-",
            "--5", "0x10", "5" * 5000)
JUNK = ("--meth", "--form", "--m", "--format=json", "--max=3", "--", "-h",
        "--help", "-x", "junk", "--format", "--method", "--max", "json",
        "closed", "all", "gw", "verify")
plain_int = st.integers(-10 ** 30, 10 ** 30).map(str) | st.sampled_from(
    ("007", "-0"))
token = plain_int | st.sampled_from(ODD_INTS + JUNK)


@st.composite
def command_lines(draw):
    """Plain command lines of the grammar, most with one token off."""
    name = draw(st.sampled_from(sorted(cli._GRAMMAR)))
    command = cli._GRAMMAR[name]

    def legal(arg):
        return st.sampled_from(arg.choices) if arg.choices else plain_int

    argv = [name, *(draw(legal(arg)) for arg in command.positionals)]
    for _ in range(draw(st.integers(0, 3))):
        opt = draw(st.sampled_from(command.options))
        argv += [opt.name, draw(legal(opt))]
    edit = draw(st.sampled_from(("keep", "replace", "insert", "delete")))
    if edit != "keep":
        i = draw(st.integers(0, len(argv) - (edit != "insert")))
        argv[i:i + (edit != "insert")] = [] if edit == "delete" else [
            draw(token)]
    return argv


def outcome(argv=None):
    """(exit code, stdout, stderr) of main, which may raise SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCommandLineReader:
    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_read_matches_argparse(self, argv):
        args = cli._read(argv)
        if args is not None:
            expected = cli.build_parser().parse_args(argv)
            assert vars(args) == vars(expected)

    @pytest.mark.parametrize("argv", [
        ["gw", "1", "2", "3"],
        ["gw", "1", "2", "3", "4", "5"],
        ["gw", "1", "2", "3", "4", "--format", "xml"],
        ["moduli", "1", "0", "--format"],
        ["verify", "all", "--max"],
        ["-h"],
        ["gw", "-h"],
        ["moduli", "5" * 5000, "0"],
        # Read by argparse alone.
        ["gw", "2", "4", "1", "2", "--format=json"],
        ["gw", "2", "4", "1", "2", "--meth", "closed"],
        ["gw", "+6", "6", "4", "4"],
        ["moduli", "1_000", "0"],
        ["moduli", " 3", "0"],
        ["moduli", "\u0663", "0"],
        ["moduli", "\u00b2", "0"],
        ["moduli", "-", "0"],
        ["moduli", "--", "-1", "0"],
    ])
    def test_refused_lines_fall_back_to_argparse(self, argv, monkeypatch):
        """What the reader refuses, argparse answers exactly as it would
        alone; messages are compared live, as they vary across versions."""
        assert cli._read(argv) is None
        got = outcome(argv)
        monkeypatch.setattr(cli, "_read", lambda argv: None)
        assert got == outcome(argv)

    @pytest.mark.parametrize("argv", [["gw", "2", "4", "1", "2"],
                                      ["gw", "1", "2", "3"]])
    def test_argv_none_reads_sys_argv(self, argv, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["ktgw", *argv])
        got = outcome()
        monkeypatch.setattr(cli, "_read", lambda argv: None)
        assert got == outcome(argv)


class TestCsvLayouts:
    def test_help_epilog_matches_headers(self, capsys):
        """The layouts `ktgw --help` documents are the headers printed."""
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        # A layout is "  name:  cols", wrapped onto deeper-indented lines.
        layouts = {name: re.sub(r"\s+", "", cols).split(",")
                   for name, cols in re.findall(
                       r"^  (\w+):\s+(\S+(?:\n {4,}\S+)*)", help_text,
                       re.M)}
        assert set(layouts) == {"gw", "moduli", "baseline"}
        for argv in (["gw", "2", "4", "1", "2"], ["moduli", "2", "0"],
                     ["baseline", "3"]):
            code, out, _ = run(capsys, *argv, "--format", "csv")
            assert code == 0
            assert next(csv.reader(io.StringIO(out))) == layouts[argv[0]]


class TestEntryPoint:
    def test_module_exit_codes(self):
        """`python -m ktgw.cli` passes main's return value to SystemExit."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        for argv, expected in ((["gw", "1", "1", "0", "0"], 0),
                               (["gw", "1", "0", "0", "1"], 2),
                               (["verify", "all", "--format", "json"], 2)):
            proc = subprocess.run([sys.executable, "-m", "ktgw.cli", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=60)
            assert proc.returncode == expected, (argv, proc.stderr)
            if expected == 0:
                assert "agrees: true" in proc.stdout
            else:
                assert proc.stdout == ""

    @pytest.mark.parametrize("argv, stdout, reason", [
        (["moduli", "9973", "1"], "pipe", "Broken pipe"),
        (["moduli", "9973", "1", "--format", "json"], "pipe", "Broken pipe"),
        (["gw", "2", "4", "1", "2"], "closed", "stdout is closed"),
        (["gw", "2", "4", "1", "2"], "/dev/full", "No space left"),
        (["verify", "all", "--max", "3"], "/dev/full", "No space left"),
        (["--help"], "/dev/full", "No space left"),
        (["moduli", "--help"], "/dev/full", "No space left"),
    ])
    def test_unwritable_stdout_exit_3(self, argv, stdout, reason):
        """A write to stdout that fails, or a closed stdout, exits 3 with
        one line on stderr and no traceback; so does argparse's help, which
        argparse itself would drop."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        cmd = [sys.executable, "-m", "ktgw.cli", *argv]
        if stdout == "pipe":
            # The reader takes one line and closes the pipe.
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            proc.stderr.close()
            code = proc.wait(timeout=60)
        else:
            if stdout == "/dev/full" and not os.path.exists(stdout):
                pytest.skip("no /dev/full")
            if stdout == "closed":
                # The child starts with fd 1 closed.
                cmd = ["/bin/sh", "-c", '"$@" >&-', "sh", *cmd]
                target = None
            else:
                target = open(stdout, "w")
            try:
                proc = subprocess.run(cmd, env=env, stdout=target,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=60)
            finally:
                if target is not None:
                    target.close()
            code, err = proc.returncode, proc.stderr
        assert code == 3, err
        assert err.startswith("error: cannot write output: ")
        assert err.count("\n") == 1 and reason in err
        assert "Traceback" not in err

    def test_import_loads_no_introspection_modules(self):
        """Importing ktgw.cli in a bare interpreter loads none of
        dataclasses, inspect and typing.  -I -S keeps the environment and
        site .pth files, which may import them first, out."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import ktgw.cli; print(sorted("
                "{'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code,
                               str(src)], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("argv, loaded", [
        ([], []),
        (["gw", "2", "4", "1", "2"], []),
        (["verify", "identities", "--max", "3"], []),
        (["gw", "2", "4", "1", "2", "--format", "json"], []),
        (["gw", "2", "4", "1", "2", "--format", "csv"], []),
        (["moduli", "-3", "2"], []),
        (["moduli", "-3", "2", "--format", "csv"], []),
        (["moduli", "-3", "2", "--format", "json"], []),
        (["verify", "all", "--max", "2"], []),
        (["baseline", "20"], []),
        (["baseline", "20", "--format", "csv"], []),
        (["baseline", "20", "--format", "json"], []),
        (["gw", "2", "4", "1", "2", "--format=json"],
         ["argparse", "gettext", "re"]),
    ])
    def test_loads_argparse_csv_json_only_when_needed(self, argv, loaded):
        """Importing ktgw.cli, then running argv if it is not empty, loads
        exactly the loaded ones of argparse, csv, json, gettext, fractions,
        decimal, numbers and re.  A plain command line, in every format,
        loads none of them: ktgw writes JSON and CSV itself and never needs
        fractions.  A command line that is not plain reads argparse, which
        brings gettext and re.  -I -S keeps site hooks that import them
        out."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import ktgw.cli; argv = sys.argv[2:]; "
                "rc = ktgw.cli.main(argv) if argv else 0; print(sorted("
                "{'argparse', 'csv', 'gettext', 'json', 'fractions', "
                "'decimal', 'numbers', 're'} & set(sys.modules))); "
                "sys.exit(rc)")
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code,
                               str(src), *argv], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(loaded)
