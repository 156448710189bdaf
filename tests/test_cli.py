import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktgw import arith, cli
from ktgw.cli import BASELINE_LMAX, IDENTITIES_MAX, main
from ktgw.cli import _check_printable as check_printable
from ktgw.cli import _check_sweep_budget as check_sweep_budget
from ktgw.geometry import cr_residual, solve_torus_data
from ktgw.gwcount import (GWResult, component_eval_class, gw_closed_form,
                          gw_enumerated, moduli_components)
from ktgw.nilalg import H3_ZERO, H3Class, HomologyClass


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def frac_of(obj):
    return Fraction(int(obj["num"]), int(obj["den"]))


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
        assert frac_of(got["e134"]) == expected.e134
        assert frac_of(got["e234"]) == expected.e234
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
        check_printable([result(-most, 1, Fraction(1, most))])
        for gw in [(10 ** limit, 0, 0), (0, -(10 ** limit), 0),
                   (0, 0, Fraction(1, 10 ** limit))]:
            with pytest.raises(ValueError, match="invariant has over"):
                check_printable([result(1, 1, 1), result(*gw)])

    def test_disagreeing_routes_exit_1(self, capsys, monkeypatch):
        real = cli.gw_enumerated
        monkeypatch.setattr(cli, "gw_enumerated",
                            lambda A: dataclasses.replace(real(A), gw=H3_ZERO))
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
    v = Fraction(v)
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
_RATS = _INTS | st.fractions() | st.builds(Fraction, _INTS, _INTS.filter(bool))
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
_TEMPLATES = {
    "gw": (cli._GW_ITEMS, ref_gw_item),
    "moduli": (cli._MODULI_ITEMS, ref_moduli_item),
    "baseline": (cli._BASELINE_ITEMS, ref_baseline_item),
}
# The holes each template may have: an item's name its columns, and an
# envelope's name the command's arguments, the items and the gw flag agrees.
_GW_ARGS = {"a13", "a23", "a14", "a24", "method"}
_HOLES = {
    **{command: (items.template, set(items.columns))
       for command, (items, _) in _TEMPLATES.items()},
    "gw-envelope": (cli._GW_JSON, _GW_ARGS | {"items"}),
    "gw-agrees-envelope": (cli._GW_AGREES_JSON,
                           _GW_ARGS | {"items", "agrees"}),
    "moduli-envelope": (cli._MODULI_JSON, {"m", "n", "items"}),
    "baseline-envelope": (cli._BASELINE_JSON, {"items"}),
}


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
        payload["agrees"] = results[0].gw == results[1].gw
    return payload


class TestJsonTemplates:
    @pytest.mark.parametrize("command", sorted(_HOLES))
    def test_holes_name_columns(self, command):
        template, names = _HOLES[command]
        hole = re.compile(r"%\((\w+)(\.num|\.den)?\)s")
        assert {m[1] for m in hole.finditer(template)} <= names
        assert "%" not in hole.sub("", template)
        if command.endswith("envelope"):
            assert template.count("%(items)s") == 1

    @pytest.mark.parametrize("command", sorted(_TEMPLATES))
    @given(data=st.data())
    def test_matches_json_dumps_indent_2(self, command, data):
        items, ref_item = _TEMPLATES[command]
        row = data.draw(_ROWS[command])
        assert len(row) == len(items.columns)
        assert cli._fill(items, [row]) == [ref_item_text(ref_item(row))]

    def test_special_leaves(self):
        big, nan, inf = 2 ** 70, float("nan"), float("inf")
        rows = {
            "gw": [(-big, big, 0, 1, "closed", big, -big, Fraction(-1, 3),
                    Fraction(big, 7), 0, "false")],
            "moduli": [(1, big, -big, 0, 0, 1, Fraction(-3, 2), -1, big, 0,
                        Fraction(-big, 3), nan, inf, -inf, Fraction(-1, 2),
                        big, Fraction(big, 3), -big, 0, -0.0),
                       (1, 2, 3, 0, 0, 1, 0, 1, 1, 0, 1, 5e-324, 2.1e138,
                        -2.1e138, 0, 1, 1, 1, 0, 0.5)],
            "baseline": [(big, big, big + 1, "false")],
        }
        for command, (items, ref_item) in _TEMPLATES.items():
            assert cli._fill(items, rows[command]) == [
                ref_item_text(ref_item(row)) for row in rows[command]]

    @settings(max_examples=15, deadline=None)
    @given(m=st.integers(-12, 12).filter(bool), n=st.integers(-12, 12))
    def test_moduli_command_matches_reference(self, m, n):
        ev = component_eval_class(m, n).coords()
        items = []
        for comp in moduli_components(m, n):
            sol = solve_torus_data(comp.hom)
            dp, dq = comp.hom.lie
            items.append(ref_moduli_item((
                comp.d, comp.k, comp.ell, *dp, *dq, sol.tau1, sol.tau2,
                sol.theta(), sol.c0_n2, comp.aut_size, *ev,
                cr_residual(sol))))
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
        rows = [(ell, arith.count_sublattices_hnf(ell), arith.sigma(1, ell))
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

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "moduli", "2", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 4
        assert rows[0][:3] == ["d", "k", "l"]


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

    def test_failed_identity_exit_1(self, capsys, monkeypatch):
        real_weight = cli.aut_weight_sum_closed
        real_hnf = cli.count_sublattices_hnf
        monkeypatch.setattr(
            cli, "aut_weight_sum_closed",
            lambda m, n: real_weight(m, n) + ((m, n) in ((2, 1), (3, 3))))
        monkeypatch.setattr(cli, "count_sublattices_hnf",
                            lambda ell: real_hnf(ell) + (ell == 2))
        code, out, err = run(capsys, "verify", "identities", "--max", "3")
        assert code == 1
        assert out == ("identities/weight-sum: 12 checks, 2 failures [FAIL]\n"
                       "identities/hnf-sigma1: 3 checks, 1 failures [FAIL]\n"
                       "identities/cesaro: 9 checks, 0 failures [ok]\n")
        assert err == "first counterexample: weight sum mismatch at m=2 n=1\n"

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
