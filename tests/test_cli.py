import json
import subprocess
import sys

from hasseweil.cli import main


def run_cli(args):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


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

    def test_outside_strip_is_precondition_error(self):
        # complex s parses but a nonsense generator hits exit 5
        code, _ = run_cli(["bsd", "0", "0", "1", "-1", "0", "--gen", "5,5"])
        assert code == 5

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
            ["lvalue", *e37, "--nmax", "-5"],
            ["rank", *e37, "--nmax", "0"],
        ):
            code, out = run_cli(argv)
            assert (code, out) == (2, ""), argv
            assert "must be" in capsys.readouterr().err

    def test_truncation_options_only_where_read(self):
        e37 = ["0", "0", "1", "-1", "0"]
        for argv in (
            ["analyze", *e37, "--pmax", "5"],
            ["bsd", *e37, "--nmax", "100"],
            ["lvalue", *e37, "--kmax", "2"],
            ["zetacheck", *e37, "--nmax", "100"],
        ):
            assert run_cli(argv)[0] == 2, argv


class TestBsd:
    def test_report(self):
        code, out = run_cli(
            ["bsd", "--json", "0", "0", "1", "-1", "0", "--gen", "0,0"]
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(float(payload["sha_predicted"]["value"]) - 1) < 1e-4
        assert payload["rank_analytic"] == 1
        assert payload["flags"] == []

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


class TestMotive:
    def test_gamma_triples(self, tmp_path):
        path = tmp_path / "h1.json"
        path.write_text(json.dumps({"weight": 1, "hodge": {"0,1": 1, "1,0": 1}}))
        code, out = run_cli(["motive", "--json", "--file", str(path), "--gamma"])
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

    def test_bad_file_is_parse_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{")
        code, _ = run_cli(["motive", "--file", str(path)])
        assert code == 2

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

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code, out = run_cli(["snf", "--file", str(tmp_path / "absent.json")])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("parse error: cannot read")


class TestInstalledEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hasseweil.cli", "snf", "[[1]]"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
