import cmath
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from fraccal import cli, fracops, hyp, transforms, whittaker
from fraccal.cli import RunConfig, main
from fraccal.gammafn import gamma
from fraccal.transforms import verify_lm_duality
from fraccal.whittaker import (phase_amplitude_values, stokes_multipliers_whittaker,
                               verify_dual_monodromy, verify_eg_ltf, verify_goursat_ltf,
                               verify_mw_system, whittaker_dual_pair)


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


def test_fracop_builtin_contour_integral_beyond_the_unit_disk(capsys):
    # at t = 1.2-0.3i 372 of the 912 kernel nodes take the ODE fallback
    code, out = run_cli(capsys, "fracop", "--builtin", "geometric", "--alpha=0.5",
                        "--mode", "integ", "--eval=1.2-0.3j", "--method", "contour")
    assert code == 0
    t = 1.2 - 0.3j
    expect = complex(mp.hyp2f1(1, 1, 1.5, -t) / mp.gamma(1.5))
    assert abs(complex(*json.loads(out)["value"]) - expect) <= 1e-8


def test_fracop_contour_derivative_past_the_first_block_of_k(capsys, monkeypatch):
    # the contour series of exp at t = 1.5 reaches k = 24, where the kernel
    # splits its nodes at |w| = 0.9 instead of 0.8
    asked, deriv_kernel = [], fracops._deriv_kernel

    def recording(*args):
        kernel_sum = deriv_kernel(*args)
        return lambda k: asked.append(k) or kernel_sum(k)

    monkeypatch.setattr(fracops, "_deriv_kernel", recording)
    code, out = run_cli(capsys, "fracop", "--builtin", "exp", "--alpha=1.5",
                        "--eval=1.5", "--method", "contour")
    assert code == 0 and max(asked) >= 24
    expect = complex(mp.gamma(2.5) * mp.hyp1f1(2.5, 1, 1.5))
    assert abs(complex(*json.loads(out)["value"]) - expect) <= 1e-9 * abs(expect)


@pytest.mark.parametrize("argv", [
    ["fracop", "--builtin", "geometric", "--alpha=0.5", "--eval=0.3", "--method", "contour"],
    ["verify", "euler-ltf"]])
def test_nan_tol_is_refused(capsys, argv):
    # the contour op ended in a ValueError traceback and the suite reported
    # "tolerance": NaN with exit 1
    assert main(argv + ["--tol", "nan"]) == 2
    assert capsys.readouterr().err == "error: tol must be >= 1e-14\n"


@pytest.mark.parametrize("mode", ["deriv", "integ"])
def test_fracop_contour_refuses_a_point_that_is_not_finite(capsys, mode):
    # the integral ran until it was killed, the derivative raised "terms are
    # not decaying"
    assert main(["fracop", "--builtin", "exp", "--alpha=0.5", "--eval=nanj",
                 "--method", "contour", "--mode", mode]) == 2
    assert capsys.readouterr().err == "error: t = nanj is not finite\n"


@pytest.mark.parametrize("method", ["series", "contour"])
@pytest.mark.parametrize("t", ["nan", "inf"])
def test_fracop_refuses_a_point_that_is_not_finite_on_either_path(capsys, method, t):
    # the series path printed NaN tokens with exit 0
    assert main(["fracop", "--builtin", "exp", "--alpha=0.5", f"--eval={t}",
                 "--method", method]) == 2
    assert capsys.readouterr().err == f"error: t = ({t}+0j) is not finite\n"


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
    # a second run in the same process must not see state left by the first
    for suite in ("euler-ltf", "all"):
        _, out1 = run_cli(capsys, "verify", suite, "--seed", "7")
        _, out2 = run_cli(capsys, "verify", suite, "--seed", "7")
        assert out1 == out2


def test_touchstone_integrates_each_zeta_once(capsys, monkeypatch):
    zetas = []
    members = transforms._laplace_members

    def counting(ms):
        zetas.extend(zeta for _, _, zeta, *_ in ms)
        return members(ms)

    monkeypatch.setattr(transforms, "_laplace_members", counting)
    run_cli(capsys, "table", "asymptotic-remainders", "--zeta", "10")
    assert zetas == [10.0]
    zetas.clear()
    run_cli(capsys, "verify", "watson")
    assert sorted(z.real for z in zetas) == [8.0, 16.0, 32.0]


def test_verify_monodromy_continues_no_ode_lane(capsys, monkeypatch):
    # the surface points near |1-t| = 1 take the 1/z series, not the crescent
    calls = []
    cont = hyp._continue

    def counted(*args, **kwargs):
        calls.append(args)
        return cont(*args, **kwargs)

    monkeypatch.setattr(hyp, "_continue", counted)
    code, _ = run_cli(capsys, "verify", "monodromy")
    assert code == 0 and calls == []


def _passes(monkeypatch, run) -> int:
    """Runs run() and returns the number of hyp._hyp2f1_calls passes it
    made."""
    passes, calls = [0], hyp._hyp2f1_calls

    def counted(*args, **kwargs):
        passes[0] += 1
        return calls(*args, **kwargs)

    monkeypatch.setattr(hyp, "_hyp2f1_calls", counted)
    run()
    monkeypatch.undo()
    return passes[0]


def test_checks_make_one_2f1_pass_each(monkeypatch):
    # eg-ltf's four hypergeometric factors, goursat's K and F at the fit
    # points and rings of both sides and kappa, dual monodromy's five functions
    d, m = whittaker_dual_pair(0.3, 0.1), stokes_multipliers_whittaker(0.3, 0.1)
    for run in (lambda: cli._suite_eg_ltf(RunConfig()),
                lambda: cli._suite_goursat(RunConfig()),
                lambda: verify_dual_monodromy(d, m)):
        assert _passes(monkeypatch, run) == 1


def test_quadrature_levels_make_one_2f1_pass_each(monkeypatch):
    # every ray meets tol at the rule's first level: all four
    # surface branches of mw-system and the dual-monodromy check's functions
    # in one pass, and I_alpha F of both alpha in one pass
    assert _passes(monkeypatch, lambda: cli._suite_monodromy(RunConfig())) == 1
    assert _passes(monkeypatch, lambda: cli._suite_lm_duality(RunConfig())) == 1


def test_goursat_suite_equals_its_one_case_calls():
    suite = cli._suite_goursat(RunConfig())["instances"]
    for kappa, rep in zip((0.0, 0.5), suite):
        alone = verify_goursat_ltf(whittaker_dual_pair(kappa, 0.17),
                                   stokes_multipliers_whittaker(kappa, 0.17))
        assert repr({**alone, "mu": 0.17}) == repr(rep)


def test_monodromy_and_eg_ltf_suites_equal_their_one_case_calls():
    d, m = whittaker_dual_pair(0.3, 0.1), stokes_multipliers_whittaker(0.3, 0.1)
    suite = cli._suite_monodromy(RunConfig())
    assert repr(suite["dual_monodromy"]) == repr(verify_dual_monodromy(d, m, tol=1e-6))
    assert repr(suite["mw_system"]) == repr(verify_mw_system(0.3, 0.1, m))
    alone = verify_eg_ltf(d, m, tol=1e-6)
    assert repr({**alone, "kappa": 0.3, "mu": 0.1}) == repr(cli._suite_eg_ltf(RunConfig()))


def test_no_suite_builds_a_dual_series(monkeypatch):
    # the suites plan from (kappa, mu); a dual pair's Taylor data is never read
    def refuse(*args, **kwargs):
        raise AssertionError("whittaker_dual_pair called")

    monkeypatch.setattr(cli, "whittaker_dual_pair", refuse)
    monkeypatch.setattr(whittaker, "whittaker_dual_pair", refuse)
    for name, suite in cli._SUITES.items():
        assert suite(RunConfig())["pass"], name


def test_table_psi_polys_csv(capsys):
    code, out = run_cli(capsys, "table", "psi-polys", "--builtin", "geometric",
                        "--n", "3", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "1,3,3,1"


def test_table_csv_out_file(tmp_path, capsys):
    path = tmp_path / "psi.csv"
    code, out = run_cli(capsys, "table", "psi-polys", "--n", "2", "--output", "csv",
                        "--out", str(path))
    assert code == 0
    assert path.read_text() == out == "c0,c1,c2\n1,2,1\n"


def test_fracop_exp_series_past_k_170(capsys):
    code, out = run_cli(capsys, "fracop", "--builtin", "exp", "--alpha", "0.5",
                        "--truncation", "200", "--eval", "0.3")
    assert code == 0
    expect = complex(mp.gamma(1.5) * mp.hyp1f1(1.5, 1, 0.3))
    assert abs(complex(*json.loads(out)["value"]) - expect) < 1e-13


def test_fracop_large_alpha(capsys):
    # Gamma(151) = 5.7e262 is a double; Gamma(201) overflows and is refused
    code, out = run_cli(capsys, "fracop", "--alpha=150", "--truncation", "4")
    assert code == 0
    assert abs(complex(*json.loads(out)["coeffs"][0]) - 5.7133839564453e262) < 1e250
    assert main(["fracop", "--alpha=200", "--truncation", "4"]) == 2


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


@pytest.mark.parametrize("step", ["0", "-0.1", "nan"])
def test_table_refuses_a_range_step_that_is_not_positive(capsys, step):
    # a step of 0 or below added points without end
    assert main(["table", "stokes-grid", "--kappa-range", f"0:1:{step}",
                 "--mu-range", "0.1"]) == 2
    assert capsys.readouterr().err.startswith("error: range step must be > 0")


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


def test_fracop_series_with_contour_is_refused(capsys):
    # the contour method evaluates builtin oracles only; a --series must not
    # silently come back as the geometric oracle's value
    series = json.dumps({"coeffs": [[1, 0], [2, 0], [3, 0]]})
    argv = ["fracop", "--series", series, "--alpha", "0.5", "--eval", "0.3"]
    assert main(argv + ["--method", "contour"]) == 2
    assert "--series" in capsys.readouterr().err
    code, out = run_cli(capsys, *argv, "--method", "series")
    assert code == 0
    assert abs(complex(*json.loads(out)["value"]) - 2.1325) < 1e-4


def test_lm_duality_suite_matches_scalar_calls():
    scalar = {(name, alpha, z): verify_lm_duality(*trio, alpha, z, 0.0, 1e-12)
              for name, alpha, trio in cli._lm_duality_cases()
              for z in (2.0, 3.0, 5.0)}
    rep = cli._suite_lm_duality(RunConfig())
    expect = [{"function": name, "alpha": alpha, "zeta": z,
               "residual_deriv": scalar[name, alpha, z]["residual_deriv"],
               "residual_integ": scalar[name, alpha, z]["residual_integ"]}
              for alpha in (0.5, 1.5) for z in (2.0, 3.0, 5.0)
              for name in ("geometric", "polynomial")]
    assert rep["cases"] == expect
    assert rep["max_residual"] == max(max(c["residual_deriv"], c["residual_integ"])
                                      for c in expect)


def test_lm_duality_suite_integrates_once(monkeypatch):
    calls = []

    def counted(members, *rest):
        calls.append(len(members))
        return rule(members, *rest)

    rule = transforms._exp_sinh
    monkeypatch.setattr(transforms, "_exp_sinh", counted)
    cli._suite_lm_duality(RunConfig())
    # 4 cases x 4 transforms x 3 zeta, less the plain transform of each F,
    # which both alpha share
    assert calls == [42]


def test_jumps_suite_runs_one_continuation_and_one_row_sum_pass(monkeypatch):
    counts = dict.fromkeys(("_continue", "_summed"), 0)
    for name in counts:
        def counted(*args, _name=name, _real=getattr(hyp, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(hyp, name, counted)
    cli._suite_jumps(RunConfig())
    assert counts["_continue"] == 1  # the eight loops are its lanes
    for seed in (6, 42):
        counts["_summed"] = 0
        list(cli._jump_cases(seed, 12, 0.13))
        assert counts["_summed"] == 1  # both sides and inner 2F1 of every case


def test_monodromy_suite_matches_scalar_calls():
    rep = cli._suite_monodromy(RunConfig())["mw_system"]
    kappa, mu = 0.3 + 0j, 0.1

    def case(kap, T1, zeta):
        p1p = phase_amplitude_values(kap, mu, zeta, math.pi, 1, 1e-10)
        p1m = phase_amplitude_values(kap, mu, zeta, -math.pi, 1, 1e-10)
        p2p = phase_amplitude_values(kap, mu, zeta, math.pi, 2, 1e-10)
        lhs = p1p - p1m
        rhs = T1 * cmath.exp(-zeta) * zeta ** (-2.0 * kap) * p2p
        return lhs, rhs, abs(lhs - rhs) / max(abs(rhs), 1e-300)

    m = stokes_multipliers_whittaker(kappa, mu)
    T1, T1_refl = m.T1, m.T2 * cmath.exp(-2j * math.pi * kappa)
    expect = []
    for zeta in (3.0, 4.0, 5.0, 6.0):
        lhs, rhs, rel = case(kappa, T1, zeta)
        rel2 = case(-kappa, T1_refl, zeta)[2]
        expect.append({"zeta": zeta, "jump_p1": [lhs.real, lhs.imag],
                       "predicted": [rhs.real, rhs.imag],
                       "relative_residual": rel,
                       "mw2_companion_relative_residual": rel2,
                       "below_measurable_threshold": abs(rhs) < 1e-12})
    assert rep["cases"] == expect


@pytest.mark.parametrize("suite, planned", [("monodromy", 842), ("goursat", 272),
                                            ("lm-duality", 343)])
def test_verify_suites_plan_each_conjugate_pair_once(capsys, monkeypatch, suite, planned):
    # mw-system's P_1 rays at arg zeta = +-pi and goursat's fit grids and
    # rings are mirror images: their real-parameter 2F1 elements fold onto
    # one another and are planned once (1224 and 736 elements unfolded);
    # lm-duality's rays of one scale share their nodes, each of which the
    # Laplace rule hands the 2F1 pass once
    sizes, plan = [], hyp._plan

    def planned_(tabs, g, z, side, jobs, inv=True, pfaff=True):
        if pfaff:
            sizes.append(len(z))
        return plan(tabs, g, z, side, jobs, inv, pfaff)
    monkeypatch.setattr(hyp, "_plan", planned_)
    code, _ = run_cli(capsys, "verify", suite)
    assert code == 0 and sum(sizes) == planned
