import json
import warnings

import pytest

from fraccal.cli import main
from fraccal.gammafn import gamma


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fracop_builtin_contour(capsys):
    code, out = run_cli(capsys, "fracop", "--builtin", "geometric",
                        "--alpha", "0.5", "--mode", "deriv",
                        "--eval", "0.2", "--method", "contour")
    assert code == 0
    doc = json.loads(out)
    expect = gamma(1.5) * 1.2 ** -1.5
    assert abs(complex(*doc["value"]) - expect) < 1e-8
    assert doc["method"] == "contour"


def test_fracop_alpha_zero_echo(capsys):
    code, out = run_cli(capsys, "fracop", "--builtin", "exp",
                        "--alpha", "0", "--eval", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert abs(complex(*doc["value"]) - 2.718281828459045) < 1e-10


def test_fracop_malformed_series(capsys):
    code = main(["fracop", "--series", "{broken", "--alpha", "0.5"])
    assert code == 2


def test_fracop_series_json(capsys):
    series = json.dumps({"coeffs": [[0.0, 0.0], [1.0, 0.0]],
                         "radius_hint": None, "type_hint": 0.0})
    code, out = run_cli(capsys, "fracop", "--series", series, "--alpha", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert abs(complex(*doc["coeffs"][1]) - 1.3293403881791384) < 1e-12


def test_verify_euler_ltf(capsys):
    code, out = run_cli(capsys, "verify", "euler-ltf")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "fraccal-report/1"
    assert doc["pass"]
    assert doc["suites"]["max_residual"] <= 1e-10


def test_verify_watson_contrapositive(capsys):
    code, out = run_cli(capsys, "verify", "watson", "--A", "2")
    assert code == 1
    doc = json.loads(out)
    assert not doc["pass"]


def test_verify_watson_default(capsys):
    code, out = run_cli(capsys, "verify", "watson")
    assert code == 0
    doc = json.loads(out)
    assert doc["suites"]["inside"]["pass"]
    assert not doc["suites"]["beyond"]["pass"]


def test_verify_report_is_byte_stable(capsys):
    _, out1 = run_cli(capsys, "verify", "euler-ltf", "--seed", "7")
    _, out2 = run_cli(capsys, "verify", "euler-ltf", "--seed", "7")
    assert out1 == out2


def test_table_psi_polys_csv(capsys):
    code, out = run_cli(capsys, "table", "psi-polys", "--builtin", "geometric",
                        "--n", "3", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "1,3,3,1"


def test_table_remainders(capsys):
    code, out = run_cli(capsys, "table", "asymptotic-remainders",
                        "--zeta", "10", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 26  # header + 25 rows
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    # |P_n| decreases to the optimal order, then grows factorially
    n_min = vals.index(min(vals))
    assert 5 <= n_min <= 15
    assert vals[-1] > vals[n_min]


def test_table_stokes_grid(capsys):
    code, out = run_cli(capsys, "table", "stokes-grid",
                        "--kappa-range", "0:0.4:0.1",
                        "--mu-range", "0:0.4:0.1", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 26


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "verify", "euler-ltf", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["pass"]


def test_verify_all_passes_with_warnings_as_errors(capsys):
    # masked branches of the array engine must not leak numpy divide/invalid
    # warnings (nor any other warning) into a full verification run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "verify", "all")
    assert code == 0
    assert json.loads(out)["pass"]
