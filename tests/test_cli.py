import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath as mp

from hasseweil import cli, errors
from hasseweil.cli import main
from hasseweil.curves import WeierstrassCurve


def run_cli(args):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


# Full `bsd --json` stdout of the reference reports: every digit of the
# heights, regulator, period and leading term is pinned.
BSD_JSON = {
    "37a": (
        ["0", "0", "1", "-1", "0", "--gen", "0,0"],
        '{"L_leading": {"err": 3.1449447961901674e-19, '
        '"value": 0.3059997738340523}, "N": 37, "curve": ["0", "0", "1", "-1", '
        '"0"], "flags": [], "omega": {"err": 3.5482055264208195e-16, '
        '"value": 5.986917292463919}, '
        '"rank_analytic": 1, "regulator": {"err": 2.365253845339706e-19, '
        '"value": 0.05111140823996884}, '
        '"sha_predicted": {"err": 1.0000649213895276e-12, "value": 1.0}, '
        '"tamagawa": {"37": 1}, "torsion": 1, "w": -1}\n',
    ),
    "389a": (
        ["0", "1", "1", "-2", "0", "--gen=-1,1", "--gen=0,0"],
        '{"L_leading": {"err": 1.7560093135645592e-17, '
        '"value": 0.7593165002884268}, "N": 389, "curve": ["0", "1", "1", '
        '"-2", "0"], "flags": [], "omega": {"err": 2.803216673639636e-16, '
        '"value": 4.98042512171011}, "rank_analytic": 2, '
        '"regulator": {"err": 8.191344880744942e-18, "value": 0.15246017794314376}, '
        '"sha_predicted": {"err": 1.0001331386374583e-12, '
        '"value": 1.0}, "tamagawa": {"389": 1}, "torsion": 1, '
        '"w": 1}\n',
    ),
    "5077a": (
        ["0", "0", "1", "-7", "6", "--gen=-2,3", "--gen=-1,3", "--gen=0,2"],
        '{"L_leading": {"err": 6.720015258233302e-17, '
        '"value": 1.7318499001193006}, "N": 5077, "curve": ["0", "0", "1", '
        '"-7", "6"], "flags": [], "omega": {"err": 3.9590866637266763e-16, '
        '"value": 4.151687983086933}, "rank_analytic": 3, '
        '"regulator": {"err": 2.230738822402432e-17, "value": 0.417143558758384}, '
        '"sha_predicted": {"err": 1.0001876399439799e-12, '
        '"value": 1.0}, "tamagawa": {"5077": 1}, "torsion": 1, '
        '"w": -1}\n',
    ),
    "234446a": (
        ["1", "-1", "0", "-79", "289",
         "--gen=0,17", "--gen=3,7", "--gen=4,3", "--gen=5,-2"],
        '{"L_leading": {"err": 2.0499298866828395e-16, '
        '"value": 8.943847395900889}, "N": 234446, "curve": ["1", "-1", "0", '
        '"-79", "289"], "flags": [], "omega": {"err": 1.7888551509866324e-17, '
        '"value": 2.9726718472633356}, "rank_analytic": 4, '
        '"regulator": {"err": 7.611281791102688e-17, '
        '"value": 1.504344888275284}, '
        '"sha_predicted": {"err": 1.0000795329930471e-12, '
        '"value": 1.0}, "tamagawa": {"117223": 1, "2": 2}, '
        '"torsion": 1, "w": 1}\n',
    ),
}


def run_bsd(name):
    """Run a recorded `bsd --json` report; its stdout must match byte for byte."""
    argv, recorded = BSD_JSON[name]
    code, out = run_cli(["bsd", "--json", *argv])
    assert (code, out) == (0, recorded)
    return json.loads(out)


class TestAnalyze:
    def test_text_report(self):
        code, out = run_cli(["analyze", "0", "0", "1", "-1", "0"])
        assert code == 0
        assert "conductor N = 37" in out
        assert "I1" in out

    def test_json_schema(self):
        code, out = run_cli(["analyze", "--json", "0", "0", "1", "-1", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["conductor"] == 37
        assert payload["minimal_model"] == ["0", "0", "1", "-1", "0"]
        assert payload["local_data"][0]["kodaira"] == "I1"
        assert payload["torsion"]["structure"] == "trivial"

    def test_json_array_input(self):
        code, out = run_cli(["analyze", "--json", '["0","-1","1","-10","-20"]'])
        assert code == 0
        assert json.loads(out)["conductor"] == 11

    def test_determinism(self):
        runs = [
            run_cli(["analyze", "--json", "0", "-1", "1", "-10", "-20"])[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_singular_exit_code(self):
        code, _ = run_cli(["analyze", "0", "0", "0", "0", "0"])
        assert code == 3

    def test_parse_error_exit_code(self):
        code, _ = run_cli(["analyze", "0", "0", "one", "-1", "0"])
        assert code == 2

    def test_negative_fraction_after_a_space(self):
        # argparse read '-5/2' and '-1e1' as unknown options (exit 2)
        spaced = run_cli(["analyze", "--json", "0", "-5/2", "1", "0", "0"])
        assert spaced == run_cli(["analyze", "--json", '["0","-5/2","1","0","0"]'])
        assert spaced[0] == 0
        assert json.loads(run_cli(["analyze", "--json", "-1e1", "0", "1", "0", "0"])[1])[
            "curve"] == ["-10", "0", "1", "0", "0"]
        assert run_cli(["rank", "0", "-1/2", "1", "0", "0"])[0] == 0
        assert run_cli(["zetacheck", "0", "-1/2", "1", "0", "0", "--pmax", "5"])[0] == 0
        lvalue = ["lvalue", "--json", "0", "0", "1", "-1", "0"]
        assert run_cli([*lvalue, "--s", "-i"]) == run_cli([*lvalue, "--s=-i"])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.builds(lambda n, d: f"{n}/{d}" if d > 1 else str(n),
                              st.integers(-100, 100), st.sampled_from([1, 2, 3, 4, 6])),
                    min_size=5, max_size=5))
    def test_json_local_data_fuzz(self, coefficients):
        code, out = run_cli(["analyze", "--json", *coefficients])
        assert code in (0, 3), coefficients
        if code == 3:
            return
        named = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}
        for d in json.loads(out)["local_data"]:
            n = d["kodaira"][1:].rstrip("*")
            m = named.get(d["kodaira"]) or (int(n) + 5 if d["kodaira"].endswith("*") else int(n))
            assert d["m"] == m, (coefficients, d)
            assert d["f_p"] == d["ord_disc"] + 1 - d["m"], (coefficients, d)


def test_discriminant_factored_once_per_command(monkeypatch):
    # the minimal model's factorization gives the bad primes and the torsion search
    from hasseweil import numtheory

    calls, factorize = [], numtheory.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("hasseweil") and getattr(module, "factorize", None) is factorize:
            monkeypatch.setattr(module, "factorize", counting)
    # 11a, minimal and as its image under u = 1/6, (r, s, t) = (1, 1, 1)
    for ainvs in (["0", "-1", "1", "-10", "-20"], ["12", "36", "648", "-15552", "-1492992"]):
        for command in ("analyze", "bsd"):
            calls.clear()
            code, _ = run_cli([command, "--json", *ainvs])
            assert code == 0
            assert sum(n % 161051 == 0 for n in calls) == 1, (command, ainvs, calls)


class TestValues:
    def test_lvalue_e11(self):
        code, out = run_cli(
            ["lvalue", "--json", "0", "-1", "1", "-10", "-20", "--s", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["L"]["value"].startswith("0.253841860")
        assert float(payload["L"]["err"]) < 1e-20
        assert payload["root_number"] == 1

    def test_lvalue_trivial_zero(self):
        # 1/Gamma(s) is 0 at s = 0: a value, not a gamma-pole parse error
        code, out = run_cli(
            ["lvalue", "--json", "0", "-1", "1", "-10", "-20", "--s", "0"]
        )
        assert code == 0
        assert json.loads(out)["L"] == {"value": "0.0", "err": "0.0"}

    def test_value_shows_only_the_digits_its_bound_supports(self):
        # 389a: Lambda(1) is 0 to far below its err, so no digit is printed
        code, out = run_cli(["lambda", "--json", "0", "1", "1", "-2", "0", "--s", "1"])
        assert code == 0
        assert json.loads(out)["Lambda"] == {"value": "0.0", "err": "1.0e-30"}
        # 11a: err 1.0e-30 at s = 1 as everywhere else, so all 30 digits, the last one rounded
        _, out = run_cli(["lvalue", "--json", "0", "-1", "1", "-10", "-20", "--s", "1"])
        shown = json.loads(out)["L"]
        assert shown == {"value": "0.253841860855910684337758923351", "err": "1.0e-30"}
        _, out_70 = run_cli(["lvalue", "--json", "0", "-1", "1", "-10", "-20", "--s", "1",
                             "--prec", "70"])
        with mp.workdps(80):
            exact = mp.mpf(json.loads(out_70)["L"]["value"])
            assert abs(mp.mpf(shown["value"]) - exact) <= mp.mpf(shown["err"])

    @pytest.mark.parametrize("argv, err", [
        (["lvalue", "0", "0", "1", "-1", "0", "--s", "0.5"], "5.74e-31"),
        (["lvalue", "0", "1", "1", "-2", "0", "--s", "2"], "1.02e-31"),
        (["lvalue", "0", "0", "1", "-7", "6", "--s", "1.5"], "2.96e-32"),
        (["lambda", "0", "1", "1", "-2", "0", "--s", "1"], "1.0e-30"),
    ], ids=["37a-0.5", "389a-2", "5077a-1.5", "389a-Lambda-1"])
    def test_err_rounded_up(self, argv, err):
        # err is the bound's decimal value rounded up to three digits, never below
        # it (these printed 5.73e-31, 1.01e-31 and 2.95e-32); the mpf nearest 10^-30
        # lies just above it, and still prints 1.0e-30
        from fractions import Fraction

        from hasseweil import analytic

        code, out = run_cli([*argv, "--json"])
        key = "L" if argv[0] == "lvalue" else "Lambda"
        assert code == 0 and json.loads(out)[key]["err"] == err
        ctx = analytic.AnalyticContext(WeierstrassCurve(*map(int, argv[1:6])))
        evaluate = analytic.l_value if key == "L" else analytic.lambda_value
        bound = Fraction(cli._fmt(evaluate(ctx, float(argv[-1])).bound))
        assert bound <= Fraction(err) < bound + Fraction(err) / 100

    def test_err_format(self):
        fmt = cli._fmt_err
        assert [fmt(x) for x in (1e-12, 1.0000649213895276e-12, 9.995e-31, 0.00123)] == [
            "1.0e-12", "1.01e-12", "1.0e-30", "0.00123"]
        with mp.workdps(45):
            assert fmt(mp.mpf(10) ** -30) == "1.0e-30"
            assert fmt(mp.mpf("5.7340908e-31")) == "5.74e-31"
            assert fmt(mp.mpf("9.9951e-31")) == "1.0e-30"
        with mp.workdps(420):  # past the range of a double
            assert fmt(mp.mpf(10) ** -400) == "1.0e-400"
        assert (fmt(0.0), fmt(float("nan"))) == ("0.0", "nan")

    def test_bounded_format(self):
        fmt = cli._fmt_bounded
        with mp.workdps(60):
            assert fmt(mp.mpf("0.12345678901234567890123456"), mp.mpf("1e-24")) == (
                "0.123456789012345678901235")
            assert fmt(mp.mpf("0.123456789"), mp.mpf("3e-5")) == "0.12346"
            # to err's decimal place, however many significant digits that takes
            assert fmt(mp.mpf("-1.23456789"), mp.mpf("1e-20")) == "-1.23456789"
            assert fmt(mp.mpf("866643905517223976688655284655437030002477.575052634969"),
                       mp.mpf("1e-6")) == "866643905517223976688655284655437030002477.575053"
            assert fmt(mp.mpf("4e-7"), mp.mpf("1e-6")) == "0.0"
            assert fmt(mp.mpc("1.5", "1e-9"), mp.mpf("1e-6")) == "1.5"
            assert fmt(mp.mpc("1e-9", "0.25"), mp.mpf("1e-6")) == "0.0+0.25i"
            assert fmt(mp.mpc("0.5", "-0.2500001"), mp.mpf("1e-3")) == "0.5-0.25i"
            # err 0 marks an exact value
            assert fmt(mp.mpf("0.125"), mp.mpf(0)) == "0.125"
            assert fmt(mp.mpf(0), mp.mpf(0)) == "0.0"

    def test_lambda_functional_equation(self):
        _, out_a = run_cli(["lambda", "--json", "0", "0", "1", "-1", "0", "--s", "1.3"])
        _, out_b = run_cli(["lambda", "--json", "0", "0", "1", "-1", "0", "--s", "0.7"])
        a = float(json.loads(out_a)["Lambda"]["value"])
        b = float(json.loads(out_b)["Lambda"]["value"])
        assert abs(a + b) < 1e-8  # w = -1

    def test_rank(self):
        code, out = run_cli(["rank", "--json", "0", "0", "1", "-1", "0"])
        payload = json.loads(out)
        assert payload["rank_analytic"] == 1
        assert payload["root_number"] == -1
        assert payload["inspected"] == [[1, "0.296239"]]  # six significant digits

    def test_rank_three(self):
        code, out = run_cli(["rank", "--json", "0", "0", "1", "-7", "6"])  # 5077a
        assert code == 0
        payload = json.loads(out)
        assert payload["rank_analytic"] == 3
        # the vanishing order only to the decimal place of its bound: 0.0
        assert payload["inspected"] == [[1, "0.0"], [3, "19.6397"]]

    def test_non_finite_s_is_parse_error(self, capsys):
        for s in ("nan", "1e400", "nan+1i", "inf", "1-infi"):
            code, out = run_cli(["lvalue", "0", "0", "1", "-1", "0", "--s", s])
            assert (code, out) == (2, ""), s
            assert capsys.readouterr().err == f"parse error: s must be finite, got {s!r}\n"

    def test_evaluation_failure_is_precision_exhausted(self, capsys):
        # a finite s at which mpmath gives up is not bad input
        code, out = run_cli(["lvalue", "0", "0", "1", "-1", "0", "--s", "1e300"])
        assert (code, out) == (4, "")
        err = capsys.readouterr().err
        assert err.startswith("precision exhausted: ") and err.count("\n") == 1
        code, out = run_cli(["lvalue", "0", "0", "1", "-1", "0", "--s", "abc"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.parametrize("argv", [
        ["lambda", "0", "-1", "1", "-10", "-20", "--s", "45"],
        ["lvalue", "0", "-1", "1", "-10", "-20", "--s", "3+60i"],
        ["lambda", "0", "0", "1", "-1", "0", "--s", "200"],
        ["lambda", "0", "1", "1", "-2", "0", "--s", "-30+20i"],
    ], ids=["11a-45", "11a-L-3+60i", "37a-200", "389a--30+20i"])
    def test_past_the_former_guard_within_err_of_prec_70(self, argv):
        # s that the n_max guard refused: every printed digit within err of a
        # --prec 70 run, Lambda(200) on 37a (6.0e369) to its 30th decimal
        code, out = run_cli([*argv, "--json"])
        code_70, out_70 = run_cli([*argv, "--json", "--prec", "70"])
        assert (code, code_70) == (0, 0)
        key = "L" if argv[0] == "lvalue" else "Lambda"
        shown, exact = json.loads(out)[key], json.loads(out_70)[key]
        assert shown["err"] == "1.0e-30"
        with mp.workdps(500):
            value, value_70 = (mp.mpmathify(v["value"].replace("i", "j")) for v in (shown, exact))
            assert abs(value - value_70) <= mp.mpf(shown["err"]), argv

    def test_s_past_the_cap_is_precision_exhausted_at_once(self, capsys):
        # the plan's cap refuses these before any node or a_n is computed
        for s in ("1e300", "1e300+1i", "1e307", "1.7e308", "-1e5", "1e5+0.5i"):
            started = time.perf_counter()
            code, out = run_cli(["lvalue", "0", "0", "1", "-1", "0", f"--s={s}"])
            assert time.perf_counter() - started < 1, s
            assert (code, out) == (4, ""), s
            err = capsys.readouterr().err
            assert err.startswith("precision exhausted: a node table") and err.count("\n") == 1

    def test_large_t_refused_before_the_node_walk(self, monkeypatch, capsys):
        # at s = 1 + 10^6 i on 11a the walk could stop only past the nodes the cap
        # leaves, so no node's bound is taken (the walk was 1,371,888 steps)
        from hasseweil import analytic

        walked = []
        log_bump = analytic._log_bump
        monkeypatch.setattr(analytic, "_log_bump", lambda c: walked.append(c) or log_bump(c))
        code, out = run_cli(["lambda", "0", "-1", "1", "-10", "-20", "--s", "1+1e6i"])
        assert (code, out) == (4, "") and len(walked) < 100
        assert capsys.readouterr().err.startswith("precision exhausted: a node table")

    @pytest.mark.parametrize("command", ["lvalue", "lambda"])
    @pytest.mark.parametrize("s", ["nan", "inf", "1e300", "1e307", "1.7e308", "-1e5",
                                   "1e5+0.5i", "1+1e308i"])
    def test_extreme_s_exits_with_a_documented_code(self, command, s, capsys):
        code, out = run_cli([command, "0", "0", "1", "-1", "0", f"--s={s}"])
        assert code in {0, 2, 4}
        err = capsys.readouterr().err
        assert err.count("\n") == (code != 0) and "Traceback" not in err

    def test_negative_complex_s_space_separated(self):
        # argparse reads '-1.5+0.25i' as an option unless it follows '='
        spaced = run_cli(["lambda", "--json", "0", "1", "1", "-2", "0", "--s", "-1.5+0.25i"])
        assert spaced == run_cli(["lambda", "--json", "0", "1", "1", "-2", "0",
                                  "--s=-1.5+0.25i"])
        assert spaced[0] == 0
        assert json.loads(spaced[1])["s"] == "-1.5+0.25i"
        spaced = run_cli(["bsd", "--json", "0", "0", "1", "-1", "0", "--gen", "-1,0"])
        assert spaced == run_cli(["bsd", "--json", "0", "0", "1", "-1", "0", "--gen=-1,0"])
        assert spaced[0] == 0

    def test_low_precision_root_number(self):
        # w is measured at one fixed accuracy whatever --prec asks for
        code, out = run_cli(["lvalue", "--json", "0", "0", "1", "-7", "6", "--s", "1+2i",
                             "--prec", "12"])
        assert code == 0
        assert json.loads(out)["root_number"] == -1

    def test_rank_four(self):
        code, out = run_cli(["rank", "--json", "1", "-1", "0", "-79", "289"])  # 234446a
        assert code == 0
        payload = json.loads(out)
        assert (payload["rank_analytic"], payload["root_number"]) == (4, 1)
        assert [k for k, _ in payload["inspected"]] == [0, 2, 4]

    def test_rank_five(self):
        code, out = run_cli(["rank", "--json", "0", "0", "1", "-79", "342"])  # 19047851a
        assert code == 0
        payload = json.loads(out)
        assert (payload["rank_analytic"], payload["root_number"]) == (5, -1)
        assert [k for k, _ in payload["inspected"]] == [1, 3, 5]

    def test_outside_strip_is_precondition_error(self):
        # complex s parses but a nonsense generator hits exit 5
        code, _ = run_cli(["bsd", "0", "0", "1", "-1", "0", "--gen", "5,5"])
        assert code == 5

    def test_zero_denominator_is_parse_error(self, capsys):
        code, out = run_cli(["bsd", "0", "0", "1", "-1", "0", "--gen", "1/0,1"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_nonpositive_precision_is_parse_error(self, capsys):
        for prec in ("0", "-5"):
            code, out = run_cli(["lvalue", "0", "0", "1", "-1", "0", "--prec", prec])
            assert (code, out) == (2, "")
            assert "positive integer" in capsys.readouterr().err

    def test_truncation_options_validated(self, capsys):
        e37 = ["0", "0", "1", "-1", "0"]
        for argv in (
            ["zetacheck", *e37, "--pmax", "-3"],
            ["zetacheck", *e37, "--pmax", "1"],
            ["zetacheck", *e37, "--kmax", "0"],
        ):
            code, out = run_cli(argv)
            assert (code, out) == (2, ""), argv
            assert "must be" in capsys.readouterr().err

    def test_truncation_options_only_where_read(self):
        e37 = ["0", "0", "1", "-1", "0"]
        for argv in (
            ["analyze", *e37, "--pmax", "5"],
            ["analyze", *e37, "--prec", "20"],
            ["bsd", *e37, "--nmax", "100"],
            ["lvalue", *e37, "--nmax", "100"],
            ["lambda", *e37, "--nmax", "100"],
            ["rank", *e37, "--nmax", "100"],
            ["lvalue", *e37, "--kmax", "2"],
            ["zetacheck", *e37, "--nmax", "100"],
            ["zetacheck", *e37, "--prec", "20"],
        ):
            assert run_cli(argv)[0] == 2, argv


class TestBsd:
    def test_no_quadrature_at_runtime(self, monkeypatch):
        # Omega is the AGM enclosure alone: the quadrature oracle and its
        # polyroots never run, and every recorded report is unchanged
        from hasseweil import bsd

        def refuse(*args, **kwargs):
            raise AssertionError("the quadrature oracle ran")

        monkeypatch.setattr(mp, "quad", refuse)
        monkeypatch.setattr(bsd, "_cubic_roots", refuse)
        for name in BSD_JSON:
            run_bsd(name)

    @pytest.mark.parametrize("curve", [["0", "0", "1", "-1", "0"], ["0", "-1", "1", "-10", "-20"]],
                             ids=["disc>0", "disc<0"])
    def test_missed_root_exits_4(self, monkeypatch, capsys, curve):
        # a real root the bisection missed is an error, never a wrong Omega
        from hasseweil import bsd

        brackets = bsd._cubic_brackets
        monkeypatch.setattr(bsd, "_cubic_brackets", lambda *c: brackets(*c)[1:])
        assert run_cli(["bsd", *curve]) == (4, "")
        assert "real roots bracketed" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(BSD_JSON))
    def test_omega_err_covers_the_printed_double(self, name):
        # the recorded Omega within its err of the quadrature at 70 digits
        from hasseweil.bsd import real_period_quadrature

        omega = json.loads(BSD_JSON[name][1])["omega"]
        ainvs = BSD_JSON[name][0][:5]
        exact = real_period_quadrature(WeierstrassCurve(*map(int, ainvs)), 70)
        with mp.workdps(70):
            assert abs(mp.mpf(omega["value"]) - exact) <= omega["err"]

    def test_report(self):
        payload = run_bsd("37a")
        assert abs(float(payload["sha_predicted"]["value"]) - 1) < 1e-4
        assert payload["rank_analytic"] == 1
        assert payload["flags"] == []

    def test_rank_two_report(self):
        payload = run_bsd("389a")
        assert payload["rank_analytic"] == 2
        assert abs(float(payload["sha_predicted"]["value"]) - 1) < 1e-4

    def test_rank_three_report(self):
        payload = run_bsd("5077a")
        assert payload["rank_analytic"] == 3
        assert abs(float(payload["sha_predicted"]["value"]) - 1) < 1e-4

    def test_rank_four_report(self):
        payload = run_bsd("234446a")
        assert (payload["rank_analytic"], payload["w"]) == (4, 1)
        assert abs(float(payload["sha_predicted"]["value"]) - 1) < 1e-4
        assert payload["flags"] == []

    def test_text_errs_round_up(self):
        # each err of the text report is the JSON's err rounded up to three digits
        import re

        code, text = run_cli(["bsd", *BSD_JSON["37a"][0]])
        assert code == 0
        printed = dict(re.findall(r"^(L-leading|omega|sha_predicted) = \S+ \+- (\S+)$", text,
                                  re.MULTILINE))
        assert printed == {"L-leading": "3.15e-19", "omega": "3.55e-16",
                           "sha_predicted": "1.01e-12"}

    def test_round_trip_schema(self):
        _, out = run_cli(["bsd", "--json", "0", "-1", "1", "-10", "-20"])
        payload = json.loads(out)
        assert payload["torsion"] == 5
        assert payload["tamagawa"] == {"11": 5}


class TestZetacheck:
    def test_all_pass(self):
        code, out = run_cli(
            ["zetacheck", "--json", "0", "0", "1", "-1", "0", "--pmax", "7"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert [c["p"] for c in payload["checks"]] == [2, 3, 5, 7]

    def test_counts_each_extension_field_once(self, monkeypatch):
        # the trace-formula and zeta-factorization checks read the same
        # #E(F_{p^k}); the curve keeps it, so each field is enumerated once
        from hasseweil import localdata

        calls = []
        count = localdata._count_points_gf

        def counting(coeffs, p, k, *rest):
            calls.append((p, k))
            return count(coeffs, p, k, *rest)

        monkeypatch.setattr(localdata, "_count_points_gf", counting)
        code, out = run_cli(
            ["zetacheck", "0", "0", "1", "-1", "0", "--pmax", "7", "--kmax", "3", "--json"]
        )
        assert code == 0
        assert sorted(calls) == [(p, k) for p in (2, 3, 5, 7) for k in (2, 3)]
        checks = ", ".join(
            f'{{"p": {p}, "trace_formula": true, "zeta_factorization": true}}'
            for p in (2, 3, 5, 7)
        )
        assert out == f'{{"all_ok": true, "checks": [{checks}], "kmax": 3}}\n'

    def test_field_past_enumeration_limit_fails_up_front(self, capsys):
        # 3^40 > ENUM_LIMIT: rejected before F_{2^k} is enumerated
        start = time.perf_counter()
        code, out = run_cli(["zetacheck", "0", "0", "1", "-1", "0", "--pmax", "3", "--kmax", "40"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("parse error: field size 3^40 exceeds")


class TestMotive:
    def test_gamma_triples(self, tmp_path):
        path = tmp_path / "h1.json"
        path.write_text(json.dumps({"weight": 1, "hodge": {"0,1": 1, "1,0": 1}}))
        code, out = run_cli(["motive", "--json", "--file", str(path)])
        assert code == 0
        assert json.loads(out)["gamma"] == [["C", 0, 1]]

    def test_wd_local_factor(self, tmp_path):
        path = tmp_path / "st.json"
        path.write_text(
            json.dumps(
                {
                    "wd": {
                        "p": 5,
                        "phi": [["1", "0"], ["0", "5"]],
                        "N": [["0", "1"], ["0", "0"]],
                    }
                }
            )
        )
        code, out = run_cli(["motive", "--json", "--file", str(path)])
        payload = json.loads(out)
        assert payload["local_factor_denominator"] == ["1", "-1"]
        assert payload["compatibility"] is True

    def test_bad_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        for text in (
            "{",
            '{"wd": {"p": 5}}',
            '{"hodge": 5}',
            '{"weight": "x"}',
            '{"weight": 1, "hodge": {"0,1": [1], "1,0": 1}}',
            '{"wd": {"p": 0, "phi": [["1"]]}}',
            '{"wd": {"p": 5, "phi": [["1", "0"], ["0"]]}}',
            '{"wd": {"p": 5, "phi": 5}}',
            "[1, 2]",
            "null",
        ):
            path.write_text(text)
            code, out = run_cli(["motive", "--file", str(path)])
            assert (code, out) == (2, ""), text
            assert capsys.readouterr().err.startswith("parse error:"), text

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers(-6, 6) | st.floats()
            | st.sampled_from(["1/2", "1/0", "0,1", "1,0", "x"]),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(
                st.sampled_from(["hodge", "weight", "wd", "hodge_data", "middle_plus",
                                 "middle_minus", "p", "phi", "N", "inertia_invariants",
                                 "0,1", "1,0"]),
                inner, max_size=4,
            ),
            max_leaves=10,
        )
    )
    def test_any_json_exits_with_a_documented_code(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzzed-motive.json"
        path.write_text(json.dumps(data))
        assert run_cli(["motive", "--json", "--file", str(path)])[0] in {0, 2, 3, 4, 5}

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code, out = run_cli(["motive", "--file", str(tmp_path / "absent.json")])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("parse error: cannot read")


class TestSnf:
    def test_inline_matrix(self):
        code, out = run_cli(["snf", "--json", "[[2,0],[0,3]]"])
        assert code == 0
        payload = json.loads(out)
        assert payload["elementary_divisors"] == [1, 6]
        assert payload["torsion_order"] == 6

    def test_file_input(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('[["2","4"],["6","8"]]')
        code, out = run_cli(["snf", "--json", "--file", str(path)])
        assert json.loads(out)["elementary_divisors"] == [2, 4]

    def test_ragged_matrix_is_parse_error(self, capsys):
        for matrix in ("[[1,2],[3]]", "[[1,2],3]"):
            code, out = run_cli(["snf", matrix])
            assert (code, out) == (2, "")
            err = capsys.readouterr().err
            assert err.startswith("parse error:") and err.count("\n") == 1

    def test_non_integer_entries_are_parse_errors(self, capsys):
        for matrix in ('[[1.5,2],[3,true]]', '[[1,2],[3,true]]', '[[2.0]]',
                       '[["1.5"]]', '[["0x10"]]', '[[" 7"]]', '[[null]]', '"12"'):
            code, out = run_cli(["snf", "--json", matrix])
            assert (code, out) == (2, ""), matrix
            assert capsys.readouterr().err.startswith("parse error:")
        code, out = run_cli(["snf", "--json", '[["-12", "+3"], [4, 0]]'])
        assert code == 0 and json.loads(out)["torsion_order"] == 12

    def test_no_matrix_is_parse_error(self, capsys):
        assert run_cli(["snf"]) == (2, "")
        assert capsys.readouterr().err == "parse error: snf needs a matrix argument or --file\n"

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code, out = run_cli(["snf", "--file", str(tmp_path / "absent.json")])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("parse error: cannot read")


class TestParser:
    E37 = ["0", "0", "1", "-1", "0"]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_share_no_state(self, monkeypatch):
        from hasseweil import analytic, bsd

        reports, contexts = [], []

        def report(curve, gens, digits):
            reports.append((len(gens), digits))
            raise errors.PrecisionExhausted("stop")

        def value(ctx, s):
            contexts.append((ctx.n_max, ctx.digits))
            return analytic.ValueWithBound(mp.mpf(0), mp.mpf(0))

        monkeypatch.setattr(bsd, "bsd_report", report)
        monkeypatch.setattr(analytic, "l_value", value)
        for argv in (["--gen", "0,0", "--gen=1,0", "--prec", "20"], [], ["--gen", "0,0"]):
            assert run_cli(["bsd", *self.E37, *argv])[0] == 4
        assert reports == [(2, 20), (0, 30), (1, 30)]
        curve = WeierstrassCurve(*map(int, self.E37))
        n_max = {d: analytic.AnalyticContext(curve, digits=d).n_max for d in (12, 30)}
        for argv in (["--prec", "12"], []):
            assert run_cli(["lvalue", *self.E37, *argv])[0] == 0
        assert contexts == [(n_max[12], 12), (n_max[30], 30)]


PACKAGE_ERRORS = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.HasseWeilError)]


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=[cls.__name__ for cls in PACKAGE_ERRORS])
def test_every_package_error_has_an_exit_code(error, monkeypatch, capsys):
    def failing(curve):
        raise error("injected")

    monkeypatch.setattr(cli, "conductor", failing)
    code, out = run_cli(["analyze", "0", "0", "1", "-1", "0"])
    assert code == {errors.SingularCurve: 3, errors.PrecisionExhausted: 4}.get(error, 5)
    assert out == ""
    err = capsys.readouterr().err
    assert err.endswith(": injected\n") and err.count("\n") == 1


class TestInstalledEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hasseweil.cli", "snf", "[[1]]"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_module_runs_from_a_checkout(self, tmp_path):
        # `python -m hasseweil` with only src/ on the path, exit codes intact
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "hasseweil", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, text=True)

        proc = run("snf", "[[2,4],[6,8]]", "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["elementary_divisors"] == [2, 4]
        proc = run("analyze", "0", "0", "0", "0", "0")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("singular curve: ")
