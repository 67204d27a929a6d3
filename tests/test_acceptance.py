"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with its measured figure.

Every tolerance here is pinned; run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.  Criteria 04-06, 08, 09 and 11 take their
cases from the `fraccal verify` suites in fraccal.cli and apply their own
bounds to the figures those report.
"""

import cmath
import math
import random

import mpmath as mp
import pytest

from fraccal import cli
from fraccal.cli import RunConfig
from fraccal.fracops import (frac_deriv_contour, frac_deriv_series, frac_h1,
                             frac_integ_series, psi_limit_check,
                             psi_polynomial)
from fraccal.gammafn import gamma
from fraccal.hyp import geom_alpha_check
from fraccal.series import PowerSeries, eval_series, geometric_series
from fraccal.transforms import watson_gevrey_check
from fraccal.whittaker import (stokes_multipliers_whittaker,
                               verify_dual_monodromy, verify_eg_ltf,
                               verify_mw_system, whittaker_dual_pair)

mp.mp.dps = 30


def _report(num: int, label: str, ok: bool, figure: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label} ({figure})")
    assert ok


def test_criterion_01_monomial_law():
    worst = 0.0
    for alpha in (0.5, 1.5, -0.5, 0.3 + 0.2j):
        F = PowerSeries((0.0,) * 10 + (1.0,))
        D = frac_deriv_series(F, alpha)
        I = frac_integ_series(F, alpha)
        for k in range(11):
            Fk = PowerSeries((0.0,) * k + (1.0,))
            ref = complex(mp.gamma(alpha + k + 1) / mp.factorial(k))
            dk = frac_deriv_series(Fk, alpha).coeffs[k]
            ik = frac_integ_series(Fk, alpha).coeffs[k]
            worst = max(worst, abs(dk - ref) / abs(ref),
                        abs(ik - 1.0 / ref) * abs(ref))
    _report(1, "monomial coefficient law", worst <= 1e-12, f"max rel {worst:.2e}")


def _tube_grid():
    pts = []
    for r, angles in ((0.25, (0.7, 1.8, 2.9)), (0.45, (0.4, 1.2, 2.2, 3.0)),
                      (0.6, (0.2, 0.6, 0.9))):
        for a in angles:
            pts.append(r * cmath.exp(1j * a))
            pts.append(r * cmath.exp(-1j * a))
    return pts[:20]


def test_criterion_02_geometric_closed_form():
    grid = _tube_grid()
    assert len(grid) == 20
    F = cli._geometric
    series = geometric_series(160)
    worst = 0.0
    for alpha in (0.5, 1.3, -0.4):
        D = frac_deriv_series(series, alpha)
        for t in grid:
            truth = gamma(alpha + 1.0) * (1.0 + t) ** (-alpha - 1.0)
            via_series = eval_series(D, t).value
            via_contour = frac_deriv_contour(F, alpha, 1.0, 0.5, t, tol=1e-10)
            via_h1 = frac_h1(F, alpha, 0.8, t, "deriv", tol=1e-10)
            worst = max(worst, abs(via_series - truth), abs(via_contour - truth),
                        abs(via_h1 - truth))
    _report(2, "geometric derivative three ways", worst <= 1e-7,
            f"max abs {worst:.2e}")


def test_criterion_03_inverse_pair():
    rng = random.Random(42)
    worst = 0.0
    for _ in range(100):
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(64)]
        F = PowerSeries(coeffs)
        alpha = complex(rng.uniform(-0.9, 1.5), rng.uniform(-0.5, 0.5))
        RT = frac_integ_series(frac_deriv_series(F, alpha), alpha)
        worst = max(worst, max(abs(a - b) / max(abs(a), 1e-30)
                               for a, b in zip(F.coeffs, RT.coeffs)))
    _report(3, "integral inverts derivative coefficientwise", worst <= 1e-13,
            f"max rel {worst:.2e}")


def test_criterion_04_lm_duality():
    worst = cli._suite_lm_duality(RunConfig())["max_residual"]
    _report(4, "transform duality for both operator directions", worst <= 1e-8,
            f"max residual {worst:.2e}")


def test_criterion_05_euler_ltf():
    worst = cli._suite_euler_ltf(RunConfig())["max_residual"]
    _report(5, "linear transformation identity", worst <= 1e-10,
            f"max residual {worst:.2e}")


def test_criterion_06_monodromic_jump():
    worst = max(abs(measured - predicted) / max(abs(predicted), 1e-12)
                for *_, measured, predicted in cli._jump_cases(6, 12, 0.13))
    _report(6, "two-sided cut jump matches the connection formula",
            worst <= 1e-8, f"max rel {worst:.2e}")


@pytest.mark.xfail(strict=True, reason="the claimed constant small-t limit of "
                   "the geometric jump is not what direct continuation of the "
                   "hypergeometric equation yields; the measured jump follows "
                   "2*pi*i*alpha*e^{i*pi*alpha}*(1+t)^(alpha-1)*(t*e^{i*pi})^(-alpha) "
                   "under every loop convention tested")
def test_criterion_06b_geometric_jump_constant_limit():
    alpha = 0.5
    worst = math.inf
    for t in (0.05, 0.02):
        for conv in ("rotate", "literal"):
            r = geom_alpha_check(alpha, t, conv)
            target = 2j * math.pi * cmath.exp(1j * math.pi * alpha)
            worst = min(worst, abs(r["measured"] - target))
    _report(6, "geometric jump tends to 2*pi*i*e^{i*pi*alpha}", worst <= 1e-8,
            f"best deviation {worst:.2e}")


def test_criterion_07_pole_limit_polynomials():
    G = geometric_series(48)
    ok = True
    figs = []
    for n in range(4):
        psi = psi_polynomial(G, n)
        scale = max(abs(psi(0.5)), 1.0)
        r1 = psi_limit_check(G, n, 0.5, 1e-4)
        r2 = psi_limit_check(G, n, 0.5, 5e-5)
        ratio = r1 / r2 if r2 > 0 else 2.0
        ok = ok and r1 <= 1e-3 * scale and 1.8 <= ratio <= 2.2
        figs.append(f"n={n}: res {r1:.1e}, ratio {ratio:.2f}")
    psi3 = [c.real for c in psi_polynomial(G, 3).coeffs]
    ok = ok and psi3 == [1.0, 3.0, 3.0, 1.0]
    _report(7, "pole-limit polynomials with first-order epsilon scaling", ok,
            "; ".join(figs))


def test_criterion_08_watson_bound_both_outcomes():
    P, p = cli._touchstone()
    good = watson_gevrey_check(P, p, 0.5, 1.0)
    bad = watson_gevrey_check(P, p, 2.0, 1.0)
    ok = good["pass"] and math.isfinite(good["M_fit"]) and not bad["pass"]
    _report(8, "factorial remainder bound holds inside and breaks beyond", ok,
            f"M fit {good['M_fit']:.3f}; beyond-ratio {bad['stability_ratio']:.1f}")


def test_criterion_09_whittaker_duality_closure():
    kappas = (0.05, 0.15, 0.25, 0.35, 0.45)
    mus = (0.05, 0.1, 0.15, 0.22, 0.3)
    worst_eg = worst_dm = 0.0
    for kap in kappas:
        for mu in mus:
            d = whittaker_dual_pair(kap, mu)
            m = stokes_multipliers_whittaker(kap, mu)
            eg = verify_eg_ltf(d, m)
            dm = verify_dual_monodromy(d, m)
            worst_eg = max(worst_eg, eg["max_residual"])
            worst_dm = max(worst_dm, dm["max_residual"])
    ok = worst_eg <= 1e-6 and worst_dm <= 1e-6
    fits_ok = cli._suite_goursat(RunConfig())["pass"]
    _report(9, "duality closure on the 5x5 grid plus logarithmic cases",
            ok and fits_ok,
            f"eg max {worst_eg:.2e}, monodromy max {worst_dm:.2e}, "
            f"log-case fits {'ok' if fits_ok else 'failed'}")


def test_criterion_10_mw_jump_scaling():
    m = stokes_multipliers_whittaker(0.0, 0.3)
    rep = verify_mw_system(0.0, 0.3, m)
    ok = rep["pass"] and abs(rep["log_slope"] + 1.0) <= 0.1
    _report(10, "transform-side jump decays like e^{-zeta}", ok,
            f"slope {rep['log_slope']:.3f}, max rel res "
            f"{rep['max_relative_residual']:.2e}")


def test_criterion_11_uniqueness():
    P1, _ = cli._touchstone()
    coeffs = [(-1.0) ** k for k in range(16)]
    P2 = lambda z: sum(c * math.factorial(k) / z ** k
                       for k, c in enumerate(coeffs))
    z = 50.0
    diff = abs(P1(z) - P2(z))
    envelope = math.factorial(16) / (0.5 ** 16 * z ** 16)
    _report(11, "matching leading coefficients pin the transform to the "
            "factorial envelope", diff <= envelope,
            f"diff {diff:.2e} vs envelope {envelope:.2e}")
