import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from fraccal import series, transforms, whittaker
from fraccal.errors import ConvergenceError, DomainError
from fraccal.gammafn import pochhammer
from fraccal.hyp import Hyp2F1Params, hyp2f1, hyp2f1_continue
from fraccal.series import PowerSeries, estimate_growth
from fraccal.whittaker import (DualPair, MonodromyTriple, PWDEParams,
                               WhittakerSurface, borel_duals,
                               continue_series_along,
                               mon1_mw1_consistency,
                               normalize_ode, phase_amplitude_recurrence,
                               phase_amplitude_values,
                               stokes_multipliers_whittaker,
                               verify_dual_monodromy, verify_eg_ltf,
                               verify_goursat_ltf, verify_mw_system,
                               whittaker_dual_pair)

mp.mp.dps = 30


# --- reduction to normal form -------------------------------------------------

def test_normalize_fixed_point():
    # already in normal form: a = 0, b = -(1/4 - kappa/z + (mu^2-1/4)/z^2 + ...)
    kap, mu, beta0 = 0.3, 0.7, 0.2
    b = PowerSeries((-0.25, kap, -(mu ** 2 - 0.25), -beta0, 0.0))
    a = PowerSeries((0.0,) * 5)
    nrm = normalize_ode(a, b)
    assert abs(nrm.scale - 1.0) < 1e-14
    assert abs(nrm.params.kappa - kap) < 1e-14
    assert abs(nrm.params.mu - mu) < 1e-14
    assert abs(nrm.params.beta[0] - beta0) < 1e-14
    assert nrm.potential_residual([3.0, 5.0 + 1.0j]) < 1e-14


def test_normalize_constant_damping():
    # u'' + u' = 0: characteristic roots {0, -1}
    a = PowerSeries((1.0, 0.0, 0.0, 0.0, 0.0))
    b = PowerSeries((0.0,) * 5)
    nrm = normalize_ode(a, b)
    assert abs(nrm.params.kappa) < 1e-14
    assert abs(nrm.params.mu - 0.5) < 1e-14
    assert nrm.params.pure_whittaker
    assert nrm.potential_residual([2.0, 4.0 + 1.0j, 10.0]) <= 1e-12


def test_normalize_round_trip_generic():
    a = PowerSeries((0.4, 0.2, -0.1, 0.05, 0.0, 0.0))
    b = PowerSeries((-0.3, 0.1, 0.07, -0.02, 0.01, 0.0))
    nrm = normalize_ode(a, b)
    assert nrm.potential_residual([3.0, 4.0 - 2.0j, 8.0]) <= 1e-12
    assert not nrm.params.pure_whittaker


def test_normalize_degenerate():
    a = PowerSeries((2.0, 0.0))
    b = PowerSeries((1.0, 0.0))  # a0^2 = 4 b0
    with pytest.raises(DomainError):
        normalize_ode(a, b)


# --- recurrence and duals ------------------------------------------------------

def test_recurrence_examples():
    pa = phase_amplitude_recurrence(PWDEParams(0.0, 0.5), 4)
    assert abs(pa.c1[1]) < 1e-15
    pa = phase_amplitude_recurrence(PWDEParams(0.0, 0.0), 4)
    assert abs(pa.c1[1] + 0.25) < 1e-15
    with pytest.raises(DomainError):
        phase_amplitude_recurrence(PWDEParams(0.1, 0.1), 100)


def test_recurrence_whittaker_product_formula():
    kap, mu = 0.3, 0.7
    pa = phase_amplitude_recurrence(PWDEParams(kap, mu), 12)
    for k in range(1, 12):
        prod = 1.0
        for j in range(1, k + 1):
            prod *= (mu ** 2 - (kap + 0.5 - j) ** 2) / j
        assert abs(pa.c1[k] - prod) <= 1e-12 * max(1.0, abs(prod))


def test_recurrence_branch_symmetry():
    # c2(kappa, beta) = (-1)^n c1(-kappa, beta') with beta'_j = (-1)^{j+1} beta_j
    kap, mu = 0.23, 0.41
    beta = (0.1, -0.05, 0.02)
    pa = phase_amplitude_recurrence(PWDEParams(kap, mu, beta), 10)
    beta_ref = tuple((-1.0) ** (j + 1) * b for j, b in enumerate(beta))
    ref = phase_amplitude_recurrence(PWDEParams(-kap, mu, beta_ref), 10)
    for n in range(10):
        assert abs(pa.c2[n] - (-1.0) ** n * ref.c1[n]) < 1e-12



@pytest.mark.parametrize("beta, N", [((), 64), ((0.2, -0.1j, 0.05), 40)])
def test_recurrence_convolution_runs_over_the_given_beta_only(beta, N):
    # c_n takes beta_j c_{n-2-j} for j < min(n - 1, len(beta)), summed in j
    # order: the same coefficients, bit for bit, as the convolution over
    # every j < n - 1 with the missing beta_j left out
    k, m = 0.3 + 0.1j, 0.45 + 0j
    pa = phase_amplitude_recurrence(PWDEParams(k, m, beta), N)
    c1 = [1.0 + 0.0j]
    c2 = [1.0 + 0.0j]
    for n in range(1, N):
        conv1 = sum(beta[j] * c1[n - 2 - j] for j in range(n - 1) if j < len(beta))
        conv2 = sum(beta[j] * c2[n - 2 - j] for j in range(n - 1) if j < len(beta))
        c1.append(((m ** 2 - (n - k - 0.5) ** 2) * c1[n - 1] + conv1) / n)
        c2.append((((n + k - 0.5) ** 2 - m ** 2) * c2[n - 1] - conv2) / n)
    assert [repr(v) for v in pa.c1] == [repr(complex(v)) for v in c1]
    assert [repr(v) for v in pa.c2] == [repr(complex(v)) for v in c2]

def test_borel_duals_match_hypergeometric_taylor():
    kap, mu = 0.3, 0.1
    d = whittaker_dual_pair(kap, mu, N=16)
    a1, b1 = 0.5 - kap - mu, 0.5 - kap + mu
    a2, b2 = 0.5 + kap - mu, 0.5 + kap + mu
    for k in range(16):
        f1k = (-1.0) ** k * pochhammer(a1, k) * pochhammer(b1, k) / math.factorial(k) ** 2
        f2k = pochhammer(a2, k) * pochhammer(b2, k) / math.factorial(k) ** 2
        assert abs(d.F1.coeffs[k] - f1k) <= 1e-10 * max(1.0, abs(f1k))
        assert abs(d.F2.coeffs[k] - f2k) <= 1e-10 * max(1.0, abs(f2k))


def test_trivial_dual():
    from fraccal.whittaker import PhaseAmplitudePair
    pa = PhaseAmplitudePair((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    d = borel_duals(pa)
    assert d.F1.coeffs == (1.0 + 0j, 0.0 + 0j, 0.0 + 0j)


def test_f1_radius_estimate():
    d = whittaker_dual_pair(0.3, 0.1, N=32)
    est = estimate_growth(d.F1)
    assert abs(est.a - 1.0) <= 0.2


# --- surface evaluators vs ODE continuation -----------------------------------

def _continue_circle(p, rho, th0, th1, n=120):
    x0 = rho * cmath.exp(1j * th0)
    f0 = hyp2f1(p, x0)
    fp0 = p.a * p.b / p.c * hyp2f1(Hyp2F1Params(p.a + 1, p.b + 1, p.c + 1), x0)
    path = [rho * cmath.exp(1j * (th0 + (th1 - th0) * k / n)) for k in range(n + 1)]
    return hyp2f1_continue(p, path, start=(f0, fp0))[0]


def test_surface_evaluators_match_continuation():
    surf = WhittakerSurface(0.3, 0.1)
    # F1 beyond the principal sheet: x = -t continuation
    for theta in (3.5, -3.6):
        sgn = 1 if theta > 0 else -1
        got = surf.f1(1.4, theta)
        ref = _continue_circle(surf.p1, 1.4, -sgn * 0.2, theta - sgn * math.pi)
        assert abs(got - ref) < 1e-12
    # F2 on and beyond its sheet
    for theta in (-2.0, -4.0, 0.9, 2.2):
        got = surf.f2(1.45, theta)
        ref = _continue_circle(surf.p2, 1.45, -0.2, theta)
        assert abs(got - ref) < 1e-11


def _mp_surface(p, r, phi):
    """2F1(p; r e^{i phi}) at 30 digits: the cut plane for -2 pi < phi < 0,
    the rims phi = 0 (from below) and -2 pi (from above), and beyond them
    one crossing, which adds T^{+-} (1-x)^s 2F1(c-a, c-b; s+1; 1-x) where
    |x| > 1, the inner 2F1 taken from below on its cut."""
    a, b, c = (mp.mpc(v) for v in (p.a, p.b, p.c))
    if phi in (0.0, -2.0 * math.pi):
        return complex(mp.hyp2f1(a, b, c, mp.mpc(r, 1e-40 if phi else -1e-40)))
    x = mp.mpc(-r) if phi == math.pi else mp.mpf(r) * mp.expj(phi)
    val = mp.hyp2f1(a, b, c, x)
    if r > 1.0 and not -2.0 * math.pi < phi < 0.0:
        sign, s, u = (1 if phi > 0 else -1), c - a - b, 1 - x
        T = (-sign * 2j * mp.pi * mp.expj(sign * mp.pi * s) * mp.gamma(c)
             / (mp.gamma(a) * mp.gamma(b) * mp.gamma(s + 1)))
        inner = mp.hyp2f1(c - a, c - b, s + 1, u - 1e-40j if u.imag == 0 else u)
        val += T * mp.exp(s * mp.log(u)) * inner
    return complex(val)


# (kappa, mu), then arg t of F_1 and of F_2 at a rim or past it
_SURFACE_PAIRS = [(0.3, 0.1), (0.17 + 0.05j, 0.4)]
_F1_ARGS = (math.pi, -math.pi, 3.7, 5.9, -3.3, -6.0)
_F2_ARGS = (0.0, -2.0 * math.pi, math.pi, 0.4, 2.5)


@pytest.mark.parametrize("kappa, mu", _SURFACE_PAIRS)
@pytest.mark.parametrize("rho", (0.6, 1.5))
def test_surface_rims_and_crossings_match_the_jump_formula(kappa, mu, rho):
    # F_1(t) = 2F1(p1; -t), -t = rho e^{i(theta - pi)}; F_2(t) = 2F1(p2; t).
    # Rims theta = +-pi of F_1 and 0, -2 pi of F_2; pi of F_2 puts the inner
    # 2F1 on its cut; rho < 1 crosses without a jump
    surf = WhittakerSurface(kappa, mu)
    for f, p, args, shift in ((surf.f1, surf.p1, _F1_ARGS, math.pi),
                              (surf.f2, surf.p2, _F2_ARGS, 0.0)):
        for theta in args:
            ref = _mp_surface(p, rho, theta - shift)
            assert abs(f(rho, theta) - ref) <= 1e-13 * abs(ref), theta


@pytest.mark.parametrize("rho", (1.981, 1.99, 2.0, 2.01, 2.02))
def test_surface_rims_in_the_band_where_no_old_route_converges(rho):
    # |1-x| and |1-w| are both near 1 on these rims: only the 1/z route
    # (1/x ~ 0.5) reaches them; F_1 on theta = +-pi, F_2 on 0 and -2 pi, and
    # F_2 at theta = pi and rho - 0.98, whose crossing's inner 2F1 is on its
    # cut at 1 + rho - 0.98
    surf = WhittakerSurface(0.3, 0.1)
    for f, p, r, args, shift in (
            (surf.f1, surf.p1, rho, (math.pi, -math.pi), math.pi),
            (surf.f2, surf.p2, rho, (0.0, -2.0 * math.pi), 0.0),
            (surf.f2, surf.p2, rho - 0.98, (math.pi,), 0.0)):
        for theta in args:
            ref = _mp_surface(p, r, theta - shift)
            assert abs(f(r, theta) - ref) <= 1e-13 * abs(ref), theta


def test_surface_f1_evaluates_its_sheet_when_the_inner_2f1_is_degenerate():
    # kappa = -1/2: the inner 2F1(c-a, c-b; 2 kappa + 1; .) has c = 0, so only
    # a crossing beyond |t| = 1 may need it
    surf = WhittakerSurface(-0.5, 0.2)
    for rho, theta in ((1.5, 0.4), (1.5, -2.9), (0.6, math.pi), (0.7, 3.7)):
        ref = _mp_surface(surf.p1, rho, theta - math.pi)
        assert abs(surf.f1(rho, theta) - ref) <= 1e-13 * abs(ref)
    with pytest.raises(DomainError):
        surf.f1(1.5, 3.7)


def test_surface_domain_refusals():
    surf = WhittakerSurface(0.3, 0.1)
    for theta in (2.0 * math.pi, -2.0 * math.pi, 2.0 * math.pi - 5e-15, -7.0):
        with pytest.raises(DomainError, match="F_1 evaluator covers"):
            surf.f1(1.5, theta)
    for theta in (math.pi + 1e-13, -2.0 * math.pi - 1e-13, -7.0, 4.0):
        with pytest.raises(DomainError, match="F_2 evaluator covers"):
            surf.f2(1.5, theta)
    # within 1e-14 of its ends F_2 takes their values: the lower rim, and
    # t = -rho reached from arg t < pi
    assert surf.f2(1.5, -2.0 * math.pi - 5e-15) == surf.f2(1.5, -2.0 * math.pi)
    assert surf.f2(1.5, math.pi + 5e-15) == surf.f2(1.5, math.pi)
    for f in (surf.f1, surf.f2):
        with pytest.raises(DomainError, match="rho must be positive"):
            f(np.array([1.5, 0.0]), -1.0)


def test_surface_batch_equals_point_calls():
    surf = WhittakerSurface(0.17 + 0.05j, 0.4)
    for f, args in ((surf.f1, _F1_ARGS + (0.3, -2.0)), (surf.f2, _F2_ARGS + (-1.0, -5.0))):
        rho, theta = np.meshgrid((0.6, 1.5, 2.3), args)
        batch = f(rho, theta)
        assert batch.shape == rho.shape
        single = [f(r, th) for r, th in zip(rho.ravel().tolist(), theta.ravel().tolist())]
        assert repr(batch.ravel().tolist()) == repr(single)


def test_phase_amplitude_against_whittaker_w():
    kap, mu = 0.3, 0.1
    for z in (5.0, 8.0):
        got = phase_amplitude_values(kap, mu, z, 0.0, 1, 1e-11)
        ref = complex(mp.whitw(kap, mu, z)) * cmath.exp(z / 2) * z ** (-kap)
        assert abs(got - ref) <= 1e-9 * abs(ref)


# --- stokes multipliers ---------------------------------------------------------

def test_stokes_symmetry_and_degeneracy():
    t0 = stokes_multipliers_whittaker(0.0, 0.0)
    assert abs(t0.T1 - t0.T2) < 1e-14
    # mu = kappa - 1/2 puts a Gamma pole in the T1 denominator
    tz = stokes_multipliers_whittaker(0.3, 0.3 - 0.5)
    assert tz.T1 == 0.0
    assert stokes_multipliers_whittaker(0.5, 0.17).goursat


def test_stokes_convention_against_connection_coefficient():
    # T1 = -e^{-2 pi i k} Gamma(1+2k) T^+(a1, b1, 1)
    from fraccal.hyp import connection_coefficient
    from fraccal.gammafn import gamma
    kap, mu = 0.3, 0.1
    m = stokes_multipliers_whittaker(kap, mu)
    tp = connection_coefficient(Hyp2F1Params(0.5 - kap - mu, 0.5 - kap + mu, 1.0), 1)
    expect = -cmath.exp(-2j * math.pi * kap) * gamma(1.0 + 2 * kap) * tp
    assert abs(m.T1 - expect) < 1e-13


# --- verification suites ---------------------------------------------------------

def test_dual_monodromy_whittaker():
    d = whittaker_dual_pair(0.25, 0.1)
    m = stokes_multipliers_whittaker(0.25, 0.1)
    rep = verify_dual_monodromy(d, m)
    assert rep["pass"]
    assert rep["max_residual"] <= 1e-6
    # the printed F2-variant does not hold; the report records it per case
    recorded = [c for c in rep["cases"] if "mon2_residual_printed_f2" in c]
    assert recorded and all(c["mon2_residual_printed_f2"] > 1e-3 for c in recorded)


def test_dual_monodromy_kappa_zero_reduces_to_jumps():
    d = whittaker_dual_pair(0.0, 0.3)
    m = stokes_multipliers_whittaker(0.0, 0.3)
    rep = verify_dual_monodromy(d, m, t_grid=[1.5, 1.3 + 0.4j, 1.4 - 0.6j])
    assert rep["pass"] and rep["max_residual"] <= 1e-8


def test_dual_monodromy_trivial_triple():
    # kappa = 0, mu = 1/2: both duals are constants, T1 = T2 = 0
    d = whittaker_dual_pair(0.0, 0.5)
    m = stokes_multipliers_whittaker(0.0, 0.5)
    assert abs(m.T1) == 0.0 and abs(m.T2) == 0.0
    rep = verify_dual_monodromy(d, m, t_grid=[1.5, 1.2 + 0.5j])
    assert rep["pass"] and rep["max_residual"] < 1e-12


def test_dual_monodromy_perturbed_skips():
    pa = phase_amplitude_recurrence(PWDEParams(0.2, 0.1, (0.1,)), 16)
    d = borel_duals(pa)
    m = MonodromyTriple(0.1, 0.1, 0.2)
    rep = verify_dual_monodromy(d, m)
    assert not rep["pass"]
    assert all("skipped" in c for c in rep["cases"])


def test_eg_ltf_whittaker():
    d = whittaker_dual_pair(0.3, 0.1)
    m = stokes_multipliers_whittaker(0.3, 0.1)
    rep = verify_eg_ltf(d, m)
    assert rep["pass"] and rep["max_residual"] <= 1e-7


def test_eg_ltf_half_integer_two_kappa():
    d = whittaker_dual_pair(0.25, 0.15)
    m = stokes_multipliers_whittaker(0.25, 0.15)
    rep = verify_eg_ltf(d, m)
    assert rep["pass"] and rep["max_residual"] <= 1e-7


def test_eg_ltf_conditioning_warning():
    # small sin(2 pi kappa) is reported in the flag, not warned about
    d = whittaker_dual_pair(0.495, 0.1)
    m = stokes_multipliers_whittaker(0.495, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_eg_ltf(d, m, t_grid=[1.5 + 0.4j])
    assert rep["ill_conditioned"]


def _refuse_2f1(monkeypatch):
    def refuse(*args):
        raise AssertionError("2F1 pass made")

    monkeypatch.setattr(whittaker, "_hyp2f1_parts", refuse)
    monkeypatch.setattr(whittaker, "_laplace_members", refuse)


@pytest.mark.parametrize("t", [0.5, -2.0, 0.0])
def test_eg_ltf_refuses_a_real_grid_point(monkeypatch, t):
    # 1+t or 1-t lies on [1, oo), where the check's 2F1s take no side; the
    # grid is checked before any 2F1 call
    _refuse_2f1(monkeypatch)
    d = whittaker_dual_pair(0.3, 0.1)
    m = stokes_multipliers_whittaker(0.3, 0.1)
    with pytest.raises(DomainError, match=rf"t_grid point {t} is real"):
        verify_eg_ltf(d, m, t_grid=[1.5 + 0.4j, t])


@pytest.mark.parametrize("s", [0.2, -0.2])
def test_goursat_refuses_a_real_grid_point(monkeypatch, s):
    _refuse_2f1(monkeypatch)
    d = whittaker_dual_pair(0.5, 0.1)
    m = stokes_multipliers_whittaker(0.5, 0.1)
    with pytest.raises(DomainError, match=rf"s_grid point {s} is real"):
        verify_goursat_ltf(d, m, s_grid=[0.1 + 0.1j, s])


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("check, kappa, grid, message", [
    (verify_goursat_ltf, 0.5, [], "s_grid is empty"),
    (verify_goursat_ltf, 0.5, [0.1 + 0.1j, complex(_NAN, 0.1)], "s_grid point .* not finite"),
    (verify_dual_monodromy, 0.3, [1.5, complex(_NAN, 1.0)], "t_grid point .* not finite"),
    (verify_eg_ltf, 0.3, [complex(1.5, _INF)], "t_grid point .* not finite"),
    (verify_mw_system, 0.3, [3.0, _NAN], "zeta_grid point .* not finite"),
    (verify_mw_system, 0.3, [3.0, 3.0], "zeta_grid repeats a point")])
def test_checks_refuse_a_bad_grid_before_any_2f1_pass(monkeypatch, check, kappa, grid, message):
    # an empty fit grid, a point that is not finite and a repeated zeta (whose
    # log-slope fit is rank deficient) end in a DomainError, not in numpy's
    # errors, an IndexError, a QuadratureError or a RankWarning
    _refuse_2f1(monkeypatch)
    m = stokes_multipliers_whittaker(kappa, 0.1)
    first = (kappa, 0.1) if check is verify_mw_system else (whittaker_dual_pair(kappa, 0.1),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            check(*first, m, grid)


@pytest.mark.parametrize("call", [
    lambda m: verify_mw_system(0.3, 0.1, m, zeta_grid=[]),
    lambda m: verify_mw_system(0.3, 0.1, m, zeta_grid=[40.0]),  # below the threshold
    lambda m: verify_eg_ltf(whittaker_dual_pair(0.3, 0.1), m, t_grid=[])])
def test_a_check_that_measures_no_case_fails(call):
    rep = call(stokes_multipliers_whittaker(0.3, 0.1))
    assert not rep["pass"]
    assert all(c.get("below_measurable_threshold") for c in rep["cases"])


def test_goursat_cases():
    for kap, expected_c in ((0.0, -1.0 / (2j * math.pi)), (0.5, 1.0 / (2j * math.pi))):
        d = whittaker_dual_pair(kap, 0.17)
        m = stokes_multipliers_whittaker(kap, 0.17)
        rep = verify_goursat_ltf(d, m)
        assert rep["pass"], rep
        for side in ("f1", "f2"):
            C = complex(*rep["sides"][side]["C"])
            assert abs(C - expected_c) <= 1e-6
            assert rep["sides"][side]["psi_radius_estimate"] >= 0.9


@pytest.mark.parametrize("kap", [0.0, 0.5])
def test_goursat_report_does_not_depend_on_the_taylor_truncation(kap):
    # the fractional integrals are closed forms, not sums of the Taylor data
    m = stokes_multipliers_whittaker(kap, 0.17)
    short, full = (verify_goursat_ltf(whittaker_dual_pair(kap, 0.17, N=n), m)
                   for n in (8, 32))
    assert short["pass"] and full["pass"]
    assert repr(short) == repr(full)


def test_goursat_sums_no_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval_series called")

    monkeypatch.setattr(series, "eval_series", refuse)
    monkeypatch.setattr(whittaker, "eval_series", refuse)
    m = stokes_multipliers_whittaker(0.5, 0.17)
    assert verify_goursat_ltf(whittaker_dual_pair(0.5, 0.17), m)["pass"]


def test_goursat_t1_zero():
    # T1 = 0: the log term is absent and F1 is outright analytic
    d = whittaker_dual_pair(0.0, 0.5)
    m = stokes_multipliers_whittaker(0.0, 0.5)
    rep = verify_goursat_ltf(d, m)
    assert rep["sides"]["f1"]["fit_residual"] <= 1e-8


def test_mw_system():
    m = stokes_multipliers_whittaker(0.0, 0.3)
    rep = verify_mw_system(0.0, 0.3, m)
    assert rep["pass"]
    assert rep["max_relative_residual"] <= 1e-8
    assert abs(rep["log_slope"] + 1.0) <= 0.1


def test_mw_system_kappa_reflection():
    m = stokes_multipliers_whittaker(0.2, 0.1)
    rep = verify_mw_system(0.2, 0.1, m, zeta_grid=[3.0, 5.0])
    assert rep["pass"]
    assert abs(rep["log_slope_detrended"] + 1.0) <= 0.1


def test_mw_system_fails_a_wrong_T2():
    # the companion check takes T_1(-kappa) = T_2(kappa) e^{-2 pi i kappa}
    # from the triple it is given, so a wrong T2 no longer passes unseen
    for kappa in (0.3, -0.2 + 0.1j, 0.0):
        m, refl = (stokes_multipliers_whittaker(k, 0.1) for k in (kappa, -kappa))
        assert abs(m.T2 * cmath.exp(-2j * math.pi * kappa) - refl.T1) <= 4e-16 * abs(refl.T1)
    m = stokes_multipliers_whittaker(0.3, 0.1)
    assert verify_mw_system(0.3, 0.1, m)["pass"]
    rep = verify_mw_system(0.3, 0.1, MonodromyTriple(m.T1, m.T2 * (1 + 1e-6), m.kappa))
    assert not rep["pass"]
    assert min(c["mw2_companion_relative_residual"] for c in rep["cases"]) > 5e-7


def test_mw_system_fails_a_wrong_T1():
    # it passes at tol = 1e-10 itself (worst residual about 8e-13), so T1
    # wrong in its 9th digit fails
    m = stokes_multipliers_whittaker(0.3, 0.1)
    rep = verify_mw_system(0.3, 0.1, m)
    assert rep["pass"] and rep["max_relative_residual"] <= 1e-11
    bad = verify_mw_system(0.3, 0.1, MonodromyTriple(m.T1 * (1 + 1e-9), m.T2, m.kappa))
    assert not bad["pass"]
    assert max(c["relative_residual"] for c in bad["cases"]) > 5e-10


def test_mw_system_integrates_its_rays_once(monkeypatch):
    calls = []

    def counted(members, *rest):
        calls.append(len(members))
        return rule(members, *rest)

    rule = transforms._exp_sinh
    monkeypatch.setattr(transforms, "_exp_sinh", counted)
    verify_mw_system(0.3, 0.1, stokes_multipliers_whittaker(0.3, 0.1))
    # {P_1 at arg zeta = +-pi, P_2 at pi} x {kappa, -kappa} x 4 zeta
    assert calls == [24]


def test_surface_rays_of_several_evaluators_match_one_ray_calls():
    up, down = WhittakerSurface(0.3, 0.1), WhittakerSurface(-0.3, 0.1)
    rays = [(up.f1, None, 3.0 * cmath.exp(1j * math.pi), 0.0, 1e-10, -math.pi + 0.5, None),
            (down.f2, None, 4.0 * cmath.exp(1j * math.pi), 0.0, 1e-10, -math.pi, None),
            (up.f2, None, 5.0 * cmath.exp(-1j), 0.0, 1e-10, 1.0, 0.6),
            (up.f1, None, 6.0 + 0j, 0.0, 1e-10, 0.2, None),
            (up.f1, None, 4.0 * cmath.exp(1j * math.pi), 0.0, 1e-10, -math.pi + 0.5, None)]
    got = transforms._laplace_members(rays)
    assert [repr(g) for g in got] == [repr(transforms._laplace_members([r])[0])
                                      for r in rays]


def test_mon1_mw1_consistency():
    rep = mon1_mw1_consistency(0.3, 0.1)
    assert rep["pass"] and rep["relative_residual"] <= 1e-5


def test_mon1_mw1_consistency_integrates_once(monkeypatch):
    calls = []

    def counted(members, *rest):
        calls.append(len(members))
        return rule(members, *rest)

    rule = transforms._exp_sinh
    monkeypatch.setattr(transforms, "_exp_sinh", counted)
    mon1_mw1_consistency(0.3, 0.1)
    # the t^{2 kappa} transform of the Mon-1 side and the P_2 ray
    assert calls == [2]


def test_continue_series_along():
    from fraccal.series import geometric_series, eval_series
    g = geometric_series(64)
    shifted, err = continue_series_along(g, [0.2, 0.3 + 0.2j])
    got = eval_series(shifted, 0.05).value
    target = 1.0 / (1.0 + (0.3 + 0.2j) + 0.05)
    assert abs(got - target) < 1e-6
    with pytest.raises(ConvergenceError):
        continue_series_along(g, [-0.5, -0.93])  # pushes into the pole at -1


def test_f1_sectorial_growth_is_subexponential():
    # log |F1| along a ray grows at most logarithmically (type 0)
    surf = WhittakerSurface(0.3, 0.1)
    ray = 2.0
    vals = [abs(surf.f1(r, ray)) for r in (5.0, 10.0, 20.0, 40.0)]
    import math as _m
    slopes = [( _m.log(vals[i+1]) - _m.log(vals[i]) ) / (20.0 - 10.0)
              for i in range(len(vals) - 1)]
    assert all(abs(s) < 0.05 for s in slopes)


@pytest.mark.parametrize("which, arg", [(1, math.pi), (1, -math.pi), (1, 0.3),
                                        (2, math.pi), (2, -1.0), (2, -math.pi)])
def test_phase_amplitude_zeta_arrays_match_scalar_calls(which, arg):
    # (2, -1.0) and (2, -pi) take beyond-sheet rays with the flattened
    # branch-point singularity
    moduli = np.array([3.0, 4.0, 5.0, 6.0, 9.5])
    got = phase_amplitude_values(0.3, 0.1, moduli, arg, which, 1e-10)
    assert got.shape == moduli.shape
    for z, g in zip(moduli.tolist(), got.tolist()):
        assert repr(g) == repr(phase_amplitude_values(0.3, 0.1, z, arg, which, 1e-10))
