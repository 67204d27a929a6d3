import cmath
import math
import random
import sys
import threading

import mpmath as mp
import numpy as np
import pytest

from fraccal import fracops, hyp
from fraccal.cli import main
from fraccal.contours import cauchy_eval, gamma_contour
from fraccal.errors import ConvergenceError, DomainError, GammaPoleError, \
    PreconditionError
from fraccal.fracops import (FractionalOrder, _PowerSums, _deriv_kernel,
                             _integ_kernel, _powers,
                             contour_quadrature_nodes, frac_deriv_contour,
                             frac_deriv_series,
                             frac_deriv_series_normalized, frac_h1,
                             frac_integ_contour, frac_integ_series,
                             frac_of_pfq, psi_coefficients_contour,
                             psi_limit_check, psi_polynomial)
from fraccal.gammafn import gamma
from fraccal.hyp import Hyp2F1Params, PFQParams, hyp2f1, hyp_pfq
from fraccal.series import (PowerSeries, estimate_growth, eval_series,
                            exp_series, geometric_series, monomial)
from fraccal.transforms import h_norm
from fraccal.utils import dist_to_positive_ray

mp.mp.dps = 30

GEOM = lambda z: 1.0 / (1.0 + z)


def test_monomial_law():
    d = frac_deriv_series(monomial(1, 4), 0.5)
    assert abs(d.coeffs[1] - 1.3293403881791384) < 1e-12
    i = frac_integ_series(monomial(1, 4), 0.5)
    assert abs(i.coeffs[1] - 0.7522527780636744) < 1e-12


def test_alpha_zero_identity():
    F = PowerSeries((1.0, -0.3 + 0.2j, 0.7), radius_hint=2.0)
    G = frac_deriv_series(F, 0.0)
    assert max(abs(a - b) for a, b in zip(F.coeffs, G.coeffs)) < 1e-15
    assert G.radius_hint == 2.0


def test_geometric_alpha_one():
    G = frac_deriv_series(geometric_series(8), 1.0)
    expect = [(-1.0) ** k * (k + 1) for k in range(8)]
    assert max(abs(c - e) for c, e in zip(G.coeffs, expect)) < 1e-13


def test_inverse_pair_random():
    rng = random.Random(42)
    for _ in range(20):
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(64)]
        F = PowerSeries(coeffs)
        alpha = complex(rng.uniform(-0.8, 1.5), rng.uniform(-0.5, 0.5))
        RT = frac_integ_series(frac_deriv_series(F, alpha), alpha)
        worst = max(abs(a - b) / max(abs(a), 1e-30) for a, b in zip(F.coeffs, RT.coeffs))
        assert worst < 1e-13


def test_commutation_exact():
    F = geometric_series(48)
    a, b = 0.5, 1.3 - 0.2j
    AB = frac_deriv_series(frac_deriv_series(F, a), b)
    BA = frac_deriv_series(frac_deriv_series(F, b), a)
    worst = max(abs(x - y) / max(abs(x), 1e-30) for x, y in zip(AB.coeffs, BA.coeffs))
    assert worst < 1e-13


def test_singularity_preservation():
    # the derivative transform keeps the distance-to-singularity (radius)
    F = geometric_series(256)
    G = frac_deriv_series(F, 0.5)
    est = estimate_growth(G)
    assert abs(est.a - 1.0) <= 0.2
    assert G.radius_hint == 1.0


def test_deriv_series_pole():
    with pytest.raises(GammaPoleError):
        frac_deriv_series(geometric_series(8), -2.0)


def test_integ_series_entire_at_negative_integers():
    # k!/Gamma(alpha+k+1) continues through alpha = -1 with leading zeros
    F = exp_series(6)
    G = frac_integ_series(F, -1.0)
    assert G.coeffs[0] == 0.0
    assert abs(G.coeffs[1] - 1.0) < 1e-14  # 1!/0! * f_1 = 1/1!
    assert abs(G.coeffs[3] - 3.0 / 6.0) < 1e-14  # 3!/2! * 1/3!


def test_base_domain_guard():
    with pytest.raises(DomainError):
        FractionalOrder(-1.5).require_base()
    with pytest.raises(DomainError):
        frac_deriv_contour(GEOM, -1.5, 1.0, 0.5, 0.2)


def test_frac_of_pfq():
    sc, prm = frac_of_pfq(PFQParams((1, 1), (1,)), 0.5, "deriv")
    assert abs(sc - gamma(1.5)) < 1e-14
    assert prm.simplified().num == (1.5 + 0j,)
    val = sc * hyp_pfq(prm, 0.3)
    assert abs(val - gamma(1.5) * 1.3 ** -1.5) < 1e-12
    sc_i, prm_i = frac_of_pfq(PFQParams((1, 1), (1,)), 0.5, "integ")
    ref = hyp2f1(Hyp2F1Params(1, 1, 1.5), -0.3) / gamma(1.5)
    assert abs(sc_i * hyp_pfq(prm_i, 0.3) - ref) < 1e-12
    sc0, prm0 = frac_of_pfq(PFQParams((1, 1), (1,)), 0.0, "deriv")
    assert abs(sc0 - 1.0) < 1e-14
    assert abs(hyp_pfq(prm0, 0.4) - hyp_pfq(PFQParams((1, 1), (1,)), 0.4)) < 1e-12


def test_deriv_contour_geometric():
    val = frac_deriv_contour(GEOM, 0.5, 1.0, 0.5, 0.2)
    assert abs(val - gamma(1.5) * 1.2 ** -1.5) <= 1e-8
    val0 = frac_deriv_contour(GEOM, 0.0, 1.0, 0.5, 0.2)
    assert abs(val0 - GEOM(0.2)) <= 1e-10


def test_deriv_contour_exp_vs_series():
    E = lambda z: np.exp(z)
    val = frac_deriv_contour(E, 0.5, 2.0, 0.5, 0.1)
    ser = eval_series(frac_deriv_series(exp_series(40), 0.5), 0.1).value
    assert abs(val - ser) <= 1e-7


def test_integ_contour():
    val = frac_integ_contour(GEOM, 0.5, 1.0, 0.5, 0.2)
    ref = hyp2f1(Hyp2F1Params(1, 1, 1.5), -0.2) / gamma(1.5)
    assert abs(val - ref) <= 1e-8
    val0 = frac_integ_contour(GEOM, 0.0, 1.0, 0.5, 0.2)
    assert abs(val0 - GEOM(0.2)) <= 1e-10
    # complex alpha, |t| > 0.5: nodes in all three kernel branches
    a, t = 0.3 + 0.4j, 0.6 - 0.2j
    valc = frac_integ_contour(GEOM, a, 1.0, 0.5, t)
    refc = complex(mp.hyp2f1(1, 1, a + 1, -t) / mp.gamma(a + 1))
    assert abs(valc - refc) <= 1e-8


def test_round_trip_polynomial_via_contour():
    P = PowerSeries((1.0, 2.0, 3.0))
    D = frac_deriv_series(P, 0.5)
    dfun = lambda z: D.coeffs[0] + D.coeffs[1] * z + D.coeffs[2] * z * z
    val = frac_integ_contour(dfun, 0.5, 1.0, 0.5, 0.4)
    assert abs(val - eval_series(P, 0.4).value) <= 1e-9


def test_contour_detects_undeclared_type():
    # exp has type 1; r = 0.5 below it must fail to converge
    with pytest.raises(ConvergenceError):
        frac_deriv_contour(np.exp, 0.5, 0.5, 0.5, 0.1, T=80.5)


def test_contour_refuses_a_dropped_ray_tail():
    # T this close to t drops ray tails far above tol: these returned
    # 0.0096-0.0357i and 0.5893 against Gamma(1.5) (1+t)^-1.5 =
    # 0.1791-0.0093i and 0.6742
    for t, T in ((1.9 + 0.1j, 2.0), (0.2, 0.6)):
        with pytest.raises(ConvergenceError):
            frac_deriv_contour(GEOM, 0.5, 1.0, 0.5, t, T=T)
    # at the default T = A + 20 the tails of exp at r = 2 are 7.9e-11 of
    # this value: enough for tol 1e-10, not for 1e-11
    t = 1.41 - 0.251j
    ref = complex(mp.gamma(2.5) * mp.hyp1f1(2.5, 1, t))
    val = frac_deriv_contour(np.exp, 1.5, 2.0, 0.5, t)
    assert 1e-11 < abs(val - ref) / abs(ref) < 1e-10
    with pytest.raises(ConvergenceError):
        frac_deriv_contour(np.exp, 1.5, 2.0, 0.5, t, tol=1e-11)
    with pytest.raises(ConvergenceError):
        frac_integ_contour(np.exp, -0.5, 2.0, 0.5, 1.37 - 0.0616j, tol=1e-11)


@pytest.mark.parametrize("op", [frac_deriv_contour, frac_integ_contour])
def test_contour_operators_refuse_a_nan_tol(op):
    for tol in (math.nan, 1e-15):
        with pytest.raises(DomainError, match="tol must be >= 1e-14"):
            op(GEOM, 0.5, 1.0, 0.5, 0.3, tol=tol)


_SILENT_AT_LARGE_ALPHA = pytest.mark.xfail(
    strict=True, reason="the contour operators carry no error estimate: at "
    "larger alpha the value misses tol with no flag (ROADMAP item 5)")


@pytest.mark.parametrize("alpha, t", [
    (3.3, 1.45 + 0.4j),  # 3.7e-11 relative
    pytest.param(4.0, 1.45 + 0.4j, marks=_SILENT_AT_LARGE_ALPHA),  # 6.6e-10
    pytest.param(5.0, 1.45 + 0.4j, marks=_SILENT_AT_LARGE_ALPHA),  # 3.1e-8
    pytest.param(3.3, 1.7 - 0.45j, marks=_SILENT_AT_LARGE_ALPHA)])  # 1.4e-9
def test_contour_deriv_meets_tol_or_raises(alpha, t):
    # Gamma(alpha+1) (1+t)^{-alpha-1} at the default tol = 1e-10 (relative)
    ref = complex(mp.gamma(alpha + 1) * (1 + mp.mpc(t)) ** (-alpha - 1))
    try:
        val = frac_deriv_contour(GEOM, alpha, 1.0, 0.5, t)
    except ConvergenceError:
        return
    assert abs(val - ref) <= 1e-10 * abs(ref)


# (A, t) pairs whose refinement reaches the rays only, the cap only, or both
NODE_CASES = [(0.3, 0.8 + 0.2j), (0.5, 0.9 + 0.4j), (0.5, 0.2 + 0.4j),
              (0.3, 0.1 - 0.25j), (1.0, 0.9 + 0.5j), (0.5, -0.3 - 0.35j), (0.5, -0.45)]


@pytest.mark.parametrize("A, t", NODE_CASES)
def test_node_rule_on_the_boundary(A, t):
    T = A + 40.0
    xi, dw = contour_quadrature_nodes(A, T, refine_near=t)
    dist = np.where(xi.real <= 0.0, np.abs(xi), np.abs(xi.imag))
    assert np.all(np.abs(dist - A) <= 1e-15 * np.maximum(1.0, np.abs(xi)))
    assert np.all(xi.real <= T)
    # the weights integrate dxi from T + iA to T - iA, and the residue of e^{-xi}/xi
    assert abs(dw.sum() + 2j * A) <= 1e-13
    assert abs(np.sum(dw * np.exp(-xi) / xi) / (2j * math.pi) - 1.0) <= 1e-13


def test_node_rule_has_no_sliver_panels():
    # rounding copies of one panel edge (0.6 and 0.6000000000000001 at A = 0.3,
    # t = 0.8+0.2i) made panels about 1e-16 wide; a panel's arc length is the
    # sum of its |weights|
    n = 24
    for A in (0.3, 0.5):
        T = A + 40.0
        ts = [complex(x, y) for x in np.linspace(-0.45, 3.0, 24)
              for y in np.linspace(-0.95, 0.95, 9) * A]
        ts += [0.8 + 0.2j, 0.9 + 0.4j]
        for t in ts:
            if dist_to_positive_ray(t) >= A:
                continue
            _, dw = contour_quadrature_nodes(A, T, n, refine_near=t)
            width = np.abs(dw).reshape(-1, n).sum(axis=1)
            assert width.min() > 1e-12 * T, (A, t)


@pytest.mark.parametrize("op", [frac_deriv_contour, frac_integ_contour])
def test_contour_operators_refuse_points_off_the_truncated_contour(op):
    # T <= A: the rays would end inside the cap (this returned 0.5665 for
    # the derivative, against Gamma(1.5) 1.2^-1.5 = 0.6742)
    for T in (0.4, 0.5):
        with pytest.raises(DomainError):
            op(GEOM, 0.5, 1.0, 0.5, 0.2, T=T)
    # Re t >= T: t lies outside the truncated contour (the derivative
    # returned -0.0373+0.0126i and -0.0731 against 0.1351-0.0058i and 0.0928)
    for t, T in ((2.5 + 0.1j, 2.0), (3.5, 3.0), (2.0, 2.0)):
        with pytest.raises(DomainError):
            op(GEOM, 0.5, 1.0, 0.5, t, T=T)
    with pytest.raises(DomainError):
        op(GEOM, 0.5, 1.0, 0.5, 0.3 + 0.5j)


def test_boundary_integrals_refuse_points_outside_the_tube():
    for t in (0.3 + 0.5j, -0.6, 0.0 - 0.8j):
        with pytest.raises(DomainError):
            frac_h1(GEOM, 0.5, 0.5, t, "deriv")
        with pytest.raises(DomainError):
            cauchy_eval(GEOM, 0.5, t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.nan, complex(0.1, math.nan), complex(math.inf, 0.1),
                               complex(0.1, -math.inf)])
def test_contour_operators_refuse_points_that_are_not_finite(t):
    # t = nan passed the tube test: the integral then looped for ever on a
    # continuation path to nan and the derivative raised "terms are not
    # decaying" after a RuntimeWarning
    for op in (frac_deriv_contour, frac_integ_contour):
        with pytest.raises(DomainError, match="not finite"):
            op(GEOM, 0.5, 1.0, 0.5, t)
    with pytest.raises(DomainError, match="not finite"):
        frac_h1(GEOM, 0.5, 0.5, t, "deriv")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: frac_deriv_contour(GEOM, 0.5, 1.0, 0.5, 0.3, T=math.inf),
    lambda: frac_integ_contour(GEOM, 0.5, 1.0, 0.5, 0.3, T=math.inf),
    lambda: psi_coefficients_contour(GEOM, 2, 1.0, 0.5, T=math.inf),
    lambda: contour_quadrature_nodes(0.5, math.inf),
    lambda: contour_quadrature_nodes(0.5, 40.5, 0),
    lambda: contour_quadrature_nodes(0.5, 40.5, -2),
    lambda: contour_quadrature_nodes(0.5, 40.5, 2.0),
    lambda: gamma_contour(math.inf, math.inf),
    lambda: gamma_contour(math.nan, 2.0),
    lambda: gamma_contour(0.5, math.nan),
], ids=["deriv-T-inf", "integ-T-inf", "psi-T-inf", "nodes-T-inf", "nodes-0-per-panel",
        "nodes-negative-per-panel", "nodes-float-per-panel", "contour-A-inf",
        "contour-A-nan", "contour-T-nan"])
def test_contours_refuse_an_infinite_truncation_and_empty_panels(call):
    # T = inf returned 0.3850 for the derivative, against Gamma(1.5) 1.3^-1.5
    # = 0.5979, after a RuntimeWarning; no panel, or a float count, ended in
    # numpy's ValueError or TypeError
    with pytest.raises(DomainError):
        call()


def test_contour_series_agreement_grid():
    # |contour - series eval| small across alphas and points; the closed form
    # Gamma(alpha+1) (1+t)^{-alpha-1} also covers Re t > 1, past the series radius
    S = geometric_series(128)
    for alpha in (0.5, 1.3, -0.4, 0.3 + 0.4j):
        D = frac_deriv_series(S, alpha)
        for t in (0.2, 0.35 + 0.2j, -0.25 + 0.1j, 1.3 - 0.2j):
            con = frac_deriv_contour(GEOM, alpha, 1.0, 0.5, t)
            closed = gamma(alpha + 1.0) * (1.0 + t) ** (-alpha - 1.0)
            assert abs(con - closed) <= 1e-7
            if abs(t) < 1.0:
                assert abs(con - eval_series(D, t).value) <= 1e-7


# kernel branch -> (mode, node filter); the contour kernels pick the branch
# per node from |w| (and |w/(w-1)| for the integral), except that an integer
# alpha >= 0 takes the terminating form of the derivative at every node.  The
# derivative sums |w| <= 0.9 by the direct series, but for k < 24 only
# |w| <= 0.8: the shell between takes the 1/w form there
KERNEL_BRANCHES = {
    "deriv-direct": ("deriv", lambda w: abs(w) <= 0.9),
    "deriv-shell": ("deriv", lambda w: 0.8 < abs(w) <= 0.9 and abs(w.imag) > 0.05),
    "deriv-inverse": ("deriv", lambda w: abs(w) > 0.9 and abs(w.imag) > 0.05),
    "deriv-terminating": ("deriv", lambda w: abs(w.imag) > 0.05),
    "integ-direct": ("integ", lambda w: abs(w) <= 0.9),
    "integ-pfaff": ("integ", lambda w: abs(w) > 0.9 and abs(w / (w - 1.0)) <= 0.9),
}
KERNEL_CASES = [(branch, alpha) for branch in sorted(KERNEL_BRANCHES)
                for alpha in ((0, 1, 2, 3) if branch.endswith("terminating")
                              else (-0.5, 0.3 + 0.4j, 1.5))]


@pytest.mark.parametrize("branch, alpha", KERNEL_CASES)
def test_kernel_moment_sums_match_mpmath(branch, alpha):
    # sum_j b_j f_k(w_j) from node moments against per-node mpmath 2F1, for
    # every k up to 47, so that the blocks of k cross their edges; the direct
    # sets include a node at |w| = 0.9, where truncation is latest.  All nodes
    # lie in one branch, so the kernel's other moment sets are empty, but for
    # the derivative's shell and direct sets, which cross the split of k < 24
    mode, keep = KERNEL_BRANCHES[branch]
    rng = random.Random(branch)
    w = [0.9 * cmath.exp(2.5j)] if branch.endswith("direct") else []
    while len(w) < 8:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if keep(z):
            w.append(z)
    b = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in w]
    a = complex(alpha)
    kernel_sum = (_deriv_kernel if mode == "deriv" else _integ_kernel)(
        a, np.array(w), np.array(b))
    for k in range(48):
        if branch.endswith("terminating"):  # Euler's transformation, exact
            f = lambda wj: (1 - wj) ** (-a - 1) * mp.hyp2f1(-a, k, k + 1, wj)
        elif branch.endswith("pfaff"):  # mpmath is slow at |w| > 1 here
            f = lambda wj: mp.hyp2f1(a, 1, a + k + 1, wj / (wj - 1)) / (1 - wj)
        elif mode == "deriv":
            f = lambda wj: mp.hyp2f1(a + k + 1, 1, k + 1, wj)
        else:
            f = lambda wj: mp.hyp2f1(k + 1, 1, a + k + 1, wj)
        terms = [bj * complex(f(mp.mpc(wj))) for wj, bj in zip(w, b)]
        assert abs(kernel_sum(k) - sum(terms)) <= 1e-13 * sum(abs(x) for x in terms)


def _kernel_nodes(seed):
    # nodes in every branch of both kernels, away from the cut [1, oo)
    rng = random.Random(seed)
    w = []
    while len(w) < 40:
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if abs(z.imag) > 0.2 or z.real < 0.8:
            w.append(z)
    return np.array(w), np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in w])


@pytest.mark.parametrize("mode, alpha", [("deriv", 0.3 + 0.4j), ("deriv", 2.0),
                                         ("integ", 0.5)])
def test_kernel_sums_do_not_depend_on_request_order(mode, alpha):
    kernel = _deriv_kernel if mode == "deriv" else _integ_kernel
    w, b = _kernel_nodes(3)
    first = kernel(complex(alpha), w, b)
    first(40)
    got = [first(k) for k in range(41)]
    fresh = kernel(complex(alpha), w, b)
    assert repr(got) == repr([fresh(k) for k in range(41)])


_CACHE_ALPHAS = (0.5, 0.3 + 0.4j, 2.0, -0.9)


def _cache_nodes():
    # nodes of every branch of the derivative kernel but none of the
    # integral's ODE fallback, which keeps no coefficients
    w, b = _kernel_nodes(3)
    keep = (np.abs(w) <= 0.9) | (np.abs(w / (w - 1.0)) <= 0.9)
    return w[keep], b[keep]


def _kernel_values(alphas, w, b) -> dict:
    # repr of both kernels' sums for k < 30, two blocks of k, at each alpha
    return {(kernel.__name__, a): repr([f(k) for k in range(30)])
            for a in alphas for kernel in (_deriv_kernel, _integ_kernel)
            for f in [kernel(complex(a), w, b, 1e-13)]}


def _kept_alphas() -> set:
    return {complex(float.fromhex(key[1]), float.fromhex(key[2]))
            for key in hyp._STORE.entries if isinstance(key[0], str)}


def test_kept_kernel_coefficients_do_not_change_a_value():
    # cold, warm, warmed by nodes whose rows stop sooner, in reverse order,
    # and after the cache has dropped the blocks of every alpha while it was
    # filled past its bound
    w, b = _cache_nodes()
    hyp._STORE.clear()
    cold = _kernel_values(_CACHE_ALPHAS, w, b)
    assert _kept_alphas() == set(map(complex, _CACHE_ALPHAS))
    assert _kernel_values(_CACHE_ALPHAS, w, b) == cold
    hyp._STORE.clear()
    _kernel_values(_CACHE_ALPHAS, 0.5 * w, b)
    assert _kernel_values(_CACHE_ALPHAS, w, b) == cold
    hyp._STORE.clear()
    assert _kernel_values(_CACHE_ALPHAS[::-1], w, b) == cold
    fill = iter(np.linspace(0.01, 0.49, 2000))
    while _kept_alphas() & set(map(complex, _CACHE_ALPHAS)):
        _deriv_kernel(complex(next(fill)), w, b)(0)
    kept = sum(map(hyp._nbytes, hyp._STORE.entries.values()))
    assert kept == hyp._STORE.held
    assert 0.5 * hyp._STORE.bound < kept <= hyp._STORE.bound
    assert _kernel_values(_CACHE_ALPHAS, w, b) == cold


def test_threads_sharing_the_kernel_coefficients_get_the_same_values():
    w, b = _cache_nodes()
    expect = _kernel_values(_CACHE_ALPHAS, w, b)
    got, errors = [None] * 2, []

    def work(i):
        try:
            got[i] = _kernel_values(_CACHE_ALPHAS, w, b)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            hyp._STORE.clear()
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert not errors
            assert got == [expect, expect]
    finally:
        sys.setswitchinterval(interval)


def test_threads_sharing_a_small_store_get_the_same_values(monkeypatch):
    # kernel blocks and 2F1 rows in four threads, with a store bound so small
    # that they drop each other's entries, and some outgrow it, as they run
    w, b = _cache_nodes()
    zs = np.array([0.4 + 0.2j, -0.8 + 0.3j, 0.95j, 2.5 - 1.0j])

    def values():
        return (_kernel_values(_CACHE_ALPHAS, w, b),
                repr(hyp2f1(Hyp2F1Params(0.3, 0.7 + 0.1j, 1.9), zs).tolist()))

    hyp._STORE.clear()
    expect = values()
    monkeypatch.setattr(hyp._STORE, "bound", 1 << 18)
    got, errors = [None] * 4, []

    def work(i):
        try:
            got[i] = values()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            hyp._STORE.clear()
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert not errors
            assert got == [expect] * 4
            # the running total lost no update
            held = sum(map(hyp._nbytes, hyp._STORE.entries.values()))
            assert held == hyp._STORE.held <= hyp._STORE.bound
    finally:
        sys.setswitchinterval(interval)


def test_kept_kernel_coefficients_refuse_writes():
    w, b = _cache_nodes()
    hyp._STORE.clear()
    _kernel_values(_CACHE_ALPHAS, w, b)
    arrays = [x for entry in hyp._STORE.entries.values() for x in getattr(entry, "arrays", entry)]
    # per block of k: d, |d|, c and the factors for each non-integer
    # derivative, two rows' d and |d| for each integral, one matrix for the
    # terminating derivative at alpha = 2
    assert len(arrays) == 2 * (3 * 4 + 4 * 4 + 1)
    for x in arrays:
        with pytest.raises(ValueError):
            x[0, 0] = 0.0


def _record_kernel_requests(monkeypatch) -> list:
    # the k asked of every derivative kernel built from here on, in order
    asked, deriv_kernel = [], fracops._deriv_kernel

    def recording(*args):
        kernel_sum = deriv_kernel(*args)
        return lambda k: asked.append(k) or kernel_sum(k)

    monkeypatch.setattr(fracops, "_deriv_kernel", recording)
    return asked


@pytest.mark.parametrize("block", [None, 5])
def test_contour_kernel_builds_coefficients_a_block_of_k_at_a_time(monkeypatch, block):
    # one frac_deriv_contour evaluation builds one coefficient matrix per
    # block of k it asks for, never one coefficient row per k
    if block is not None:
        monkeypatch.setattr(fracops, "_K_BLOCK", block)
    rows, series_rows = [], fracops._series_rows

    def counting(m, kept, *args):
        rows.append(kept.coef.shape[0])
        return series_rows(m, kept, *args)

    monkeypatch.setattr(fracops, "_series_rows", counting)
    asked = _record_kernel_requests(monkeypatch)
    frac_deriv_contour(GEOM, 0.5, 1.0, 0.5, 1.2 - 0.3j)
    K, size = len(asked), fracops._K_BLOCK
    assert asked == list(range(K)) and K > 5
    assert rows == [size] * -(-K // size)


def test_first_block_of_the_contour_kernel_stops_its_rows_at_radius_08(monkeypatch):
    # at this t the nodes reach |w| = 0.8996; the block k < 24 sums the direct
    # series only over |w| <= 0.8, so its rows stop where 0.8^n reaches the
    # row tolerance 1e-13 (145 terms), not 0.9^n (313 terms)
    t = 1.24 + 0.38j
    xi, _ = contour_quadrature_nodes(0.5, 40.5, 24, refine_near=t)
    r = np.abs(t / xi)
    assert 0.899 < r[r <= 0.9].max() and np.count_nonzero((r > 0.8) & (r <= 0.9)) > 50
    lengths, upto = [], _PowerSums.upto
    monkeypatch.setattr(_PowerSums, "upto", lambda m, n: lengths.append(n) or upto(m, n))
    asked = _record_kernel_requests(monkeypatch)
    val = frac_deriv_contour(GEOM, 0.5, 1.0, 0.5, t)
    assert max(asked) < 24
    assert sorted(lengths) == [24, 24, 145]  # the two 1/w moment sets, then the rows
    assert abs(val - gamma(1.5) * (1.0 + t) ** -1.5) <= 1e-10 * abs(val)


def _moment_nodes(n_nodes, seed):
    rng = random.Random(seed)
    v = [rng.uniform(0.0, 1.1) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
         for _ in range(n_nodes)]
    return np.array(v), np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in v])


def _sums(v, b):  # the moments of a power table built for v alone
    return _PowerSums(_powers(v), b)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 400])
def test_power_sums_across_block_edges(n):
    # moments are built 32 at a time; any request is a prefix of a longer
    # one and agrees with a running power vector summed one n at a time
    v, b = _moment_nodes(40, n)
    m = _sums(v, b)
    got = m.upto(n)
    assert isinstance(got, np.ndarray) and got.shape == (n,)
    assert repr(got.tolist()) == repr(_sums(v, b).upto(400)[:n].tolist())
    assert np.shares_memory(m.upto(n), m.upto(n))  # a view, not a copy
    p = b.copy()
    for s_n in got.tolist():
        assert abs(s_n - p.sum()) <= 1e-14 * np.abs(p).sum()
        p *= v


def test_power_sums_do_not_depend_on_request_order():
    v, b = _moment_nodes(60, 7)
    m = _sums(v, b)
    m.upto(5)
    m.upto(40)
    assert repr(m.upto(100).tolist()) == repr(_sums(v, b).upto(100).tolist())
    assert repr(m.upto(3).tolist()) == repr(_sums(v, b).upto(3).tolist())


def test_power_sums_match_mpmath():
    # per-n 30-digit sums; the error is measured against sum_j |b_j| |v_j|^n
    v, b = _moment_nodes(512, 5)
    s = _sums(v, b).upto(400)
    for n in (0, 1, 31, 32, 33, 64, 65, 128, 399):
        ref = complex(mp.fsum(mp.mpc(bj) * mp.mpc(vj) ** n
                              for vj, bj in zip(v.tolist(), b.tolist())))
        assert abs(s[n] - ref) <= 1e-14 * float(np.sum(np.abs(b) * np.abs(v) ** n))


@pytest.mark.parametrize("n", [1, 33, 100])
def test_power_sums_of_negated_nodes_alternate_in_sign(n):
    # the derivative kernel takes the moments of 1/w from those of q = -1/w
    v, b = _moment_nodes(40, 11)
    s = _sums(v, b).upto(n).copy()
    s[1::2] *= -1.0
    assert repr(_sums(-v, b).upto(n).tolist()) == repr(s.tolist())


@pytest.mark.parametrize("n", [1, 33, 100])
def test_power_sums_of_a_column_slice_equal_a_table_built_alone(n):
    # the kernels build one table over all their node sets; each set's moments
    # are those of its own table
    u, bu = _moment_nodes(25, 12)
    v, bv = _moment_nodes(40, 13)
    pw = _powers(np.concatenate((u, v)))
    for cols, nodes, b in ((slice(None, u.size), u, bu), (slice(u.size, None), v, bv)):
        shared = _PowerSums(pw[:, cols], b)
        assert shared.rho == _sums(nodes, b).rho
        assert repr(shared.upto(n).tolist()) == repr(_sums(nodes, b).upto(n).tolist())


def _branch_nodes():
    # six nodes in each branch of the two kernels, away from the cut [1, oo):
    # near (|w| <= 0.9, one on the circle), and past it the Pfaff disk
    # |w/(w-1)| <= 0.9 and the hard nodes outside both, all far for the
    # derivative kernel; then one in the derivative's shell 0.8 < |w| <= 0.9
    # next to its inner edge, far for k < 24 and near after
    rng = random.Random(21)
    branches = [[0.9 * cmath.exp(2.5j)], [], []]
    while min(map(len, branches)) < 6:
        w = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if abs(w.imag) < 0.2 and w.real > 0.8:
            continue
        branch = 0 if abs(w) <= 0.9 else 1 if abs(w / (w - 1.0)) <= 0.9 else 2
        if len(branches[branch]) < 6:
            branches[branch].append(w)
    w = np.array([x for branch in branches for x in branch] + [0.8001 * cmath.exp(-2.7j)])
    return w, np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in w])


# the integral's alphas are ones where mpmath's 2F1 stays fast at the nodes
# with 0.8 < |w/(w-1)| < 1 (at alpha = -0.5 or 1.5 it takes 50 ms a call there)
@pytest.mark.parametrize("mode, alpha", [
    ("deriv", -0.5), ("deriv", 0.3 + 0.4j), ("deriv", 1.5),
    ("integ", -0.6 - 0.3j), ("integ", 0.3 + 0.4j), ("integ", 1.2 - 0.5j)])
def test_kernels_on_every_branch_match_mpmath(mode, alpha):
    # rows summed to 1e-13, the tolerance frac_*_contour uses at tol = 1e-10;
    # every k up to 47, so the blocks of k cross their edges
    w, b = _branch_nodes()
    a = complex(alpha)
    kernel_sum = (_deriv_kernel if mode == "deriv" else _integ_kernel)(a, w, b, 1e-13)
    for k in range(48):
        if mode == "deriv":
            f = lambda wj: mp.hyp2f1(a + k + 1, 1, k + 1, wj)
        else:  # in Pfaff's form, where mpmath is fast at every node
            f = lambda wj: mp.hyp2f1(a, 1, a + k + 1, wj / (wj - 1)) / (1 - wj)
        terms = [bj * complex(f(mp.mpc(wj))) for wj, bj in zip(w.tolist(), b.tolist())]
        assert abs(kernel_sum(k) - sum(terms)) <= 1e-12 * sum(abs(x) for x in terms), k


@pytest.mark.parametrize("k", [0, 1, 5])
def test_integ_kernel_matches_the_euler_integral(k):
    # for Re alpha > 0 Cauchy's formula turns the kernel sum into
    # Gamma(alpha+k+1)/(k! Gamma(alpha)) int_0^1 s^k (1-s)^{alpha-1} F(ts) e^{-rts} ds,
    # an oracle free of 2F1; at t = 0.8+0.2i many nodes take the ODE fallback
    a, t, r, A = 0.5, 0.8 + 0.2j, 1.0, 0.5
    xi, dw = contour_quadrature_nodes(A, A + 40.0 / r, 24, refine_near=t)
    w = t / xi
    assert ((np.abs(w) > 0.9) & (np.abs(w / (w - 1.0)) > 0.9)).sum() > 100
    kernel_sum = _integ_kernel(a, w, GEOM(xi) * np.exp(-r * xi) / xi * dw / (2j * math.pi))
    euler = mp.quad(lambda s: s ** k * (1 - s) ** (a - 1) / (1 + t * s) * mp.exp(-r * t * s),
                    [0, 1])
    ref = complex(mp.gamma(a + k + 1) / (mp.factorial(k) * mp.gamma(a)) * euler)
    assert abs(kernel_sum(k) - ref) <= 1e-11 * abs(ref)


H1F = lambda z: z / (1.0 + z * z) ** 2


def test_h1_cauchy_reproduction():
    got = frac_h1(H1F, 0.0, 0.5, 0.3, "deriv")
    assert abs(got - H1F(0.3)) <= 1e-9


def _h1_taylor(n=64):
    coeffs = [0.0] * n
    for k in range((n - 1) // 2):
        coeffs[2 * k + 1] = (k + 1) * (-1.0) ** k
    return PowerSeries(tuple(coeffs), radius_hint=1.0)


def test_h1_deriv_matches_series():
    got = frac_h1(H1F, 0.5, 0.5, 0.2, "deriv")
    ser = eval_series(frac_deriv_series(_h1_taylor(), 0.5), 0.2).value
    assert abs(got - ser) <= 1e-8


def test_h1_round_trip():
    got_i = frac_h1(H1F, 0.5, 0.5, 0.1, "integ")
    ser = eval_series(frac_integ_series(_h1_taylor(), 0.5), 0.1).value
    assert abs(got_i - ser) <= 1e-8


def test_h1_precondition():
    with pytest.raises(PreconditionError):
        frac_h1(lambda z: 1.0, 0.5, 0.5, 0.1, "deriv")


def test_psi_polynomial():
    psi = psi_polynomial(geometric_series(8), 3)
    assert [c.real for c in psi.coeffs] == [1.0, 3.0, 3.0, 1.0]
    assert psi(0.5) == pytest.approx((1.5) ** 3)
    assert psi_polynomial(exp_series(4), 0).coeffs == (1.0 + 0j,)
    e2 = psi_polynomial(exp_series(4), 2)
    assert [c.real for c in e2.coeffs] == pytest.approx([1.0, -2.0, 0.5])
    with pytest.raises(DomainError):
        psi_polynomial(exp_series(3), 5)


def test_psi_limit_check():
    G = geometric_series(32)
    r1 = psi_limit_check(G, 2, 0.5, 1e-4)
    assert r1 <= 1e-3 * 2.25
    r2 = psi_limit_check(G, 2, 0.5, 5e-5)
    assert 1.8 <= r1 / r2 <= 2.2  # first-order limit: Richardson halving
    r0 = psi_limit_check(exp_series(24), 0, 0.3, 1e-4)
    assert r0 <= 1e-3


def test_psi_limit_eps_validation():
    with pytest.raises(DomainError):
        psi_limit_check(geometric_series(16), 1, 0.2, 1e-2)
    # the Gamma-free normalized transform stays first order down to tiny eps,
    # where Gamma(alpha+1) would snap to its pole
    assert 1e-14 <= psi_limit_check(geometric_series(16), 1, 0.2, 1e-13) <= 1e-13


def test_psi_limit_check_first_order_at_tiny_eps():
    for F, t in ((geometric_series(16), 0.2), (exp_series(24), 0.3)):
        for n in (0, 1, 2, 3):
            for eps in (1e-12, 1e-13):
                r1 = psi_limit_check(F, n, t, eps)
                r2 = psi_limit_check(F, n, t, eps / 2.0)
                assert 0.0 < r1 <= 10.0 * eps
                assert 1.8 <= r1 / r2 <= 2.2


def test_psi_coefficients_contour():
    got = psi_coefficients_contour(GEOM, 3, 1.0, 0.5)
    assert max(abs(g - e) for g, e in zip(got, (1, -1, 1, -1))) <= 1e-9
    ones = psi_coefficients_contour(lambda z: 1.0, 2, 1.0, 0.5)
    assert abs(ones[0] - 1.0) < 1e-10 and abs(ones[1]) < 1e-10 and abs(ones[2]) < 1e-10
    expc = psi_coefficients_contour(lambda z: np.exp(z), 3, 2.0, 0.5)
    assert max(abs(g - 1.0 / math.factorial(j)) for j, g in enumerate(expc)) <= 1e-8


def test_psi_coefficients_contour_probes_the_rays():
    # F = e^t at A = 0.5: r at or near the type of F must raise, not return
    # 1/k! to a few digits (r = 0.9: the weighted integrand grows; r = 1.5:
    # the dropped s = 0 ray tail is 7.8e-9 against tol 1e-11)
    E = lambda z: np.exp(z)
    for r in (0.9, 1.2, 1.5):
        with pytest.raises(ConvergenceError):
            psi_coefficients_contour(E, 2, r, 0.5)
    got = psi_coefficients_contour(E, 2, 3.0, 0.5)
    assert max(abs(g - 1.0 / math.factorial(j)) for j, g in enumerate(got)) <= 1e-11


def test_entire_in_alpha():
    # F(t, alpha)/Gamma(alpha+1) on a small circle around alpha = -n-1 is
    # fitted by a polynomial: no pole survives the normalization
    F = geometric_series(48)
    t = 0.4
    for n in (0, 2):
        center = -(n + 1.0)
        zs = [center + 0.1 * cmath.exp(2j * math.pi * k / 16) for k in range(16)]
        vals = [eval_series(frac_deriv_series_normalized(F, a), t).value for a in zs]
        V = np.vander(np.array(zs) - center, 12, increasing=True)
        coef, *_ = np.linalg.lstsq(V, np.array(vals), rcond=None)
        probes = [center + 0.1 * cmath.exp(2j * math.pi * (k + 0.5) / 16) for k in range(8)]
        for z in probes:
            fit = sum(c * (z - center) ** j for j, c in enumerate(coef))
            truth = eval_series(frac_deriv_series_normalized(F, z), t).value
            assert abs(fit - truth) <= 1e-6 * max(1.0, abs(truth))


def test_extended_precision_mode():
    # the extended row is Gamma(alpha+k+1)/k! at 34 digits, rounded to doubles
    F = geometric_series(48)
    for alpha in (0.5, 0.3 + 0.4j, -1.7, 2.25):
        d = frac_deriv_series(F, alpha, precision="extended")
        i = frac_integ_series(F, alpha, precision="extended")
        with mp.workdps(34):
            for k in range(48):
                ref = complex((-1) ** k * mp.gamma(mp.mpc(alpha) + k + 1) / mp.factorial(k))
                assert abs(d.coeffs[k] - ref) <= 1e-15 * abs(ref)
                assert abs(i.coeffs[k] - 1.0 / ref) <= 1e-15 * abs(1.0 / ref)


def test_extended_precision_refuses_poles_like_double():
    for precision in ("double", "extended"):
        with pytest.raises(GammaPoleError):
            frac_deriv_series(geometric_series(8), -2.0, precision=precision)
        assert main(["fracop", "--alpha=-2", "--precision", precision]) == 2


def test_integ_series_at_negative_integers_any_truncation():
    # k!/Gamma(k-s+1) = k!/(k-s)!, exact in doubles, past k = 170 too
    rng = random.Random(16)
    F = PowerSeries([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(200)])
    for s in (1, 2, 3):
        for precision in ("double", "extended"):
            G = frac_integ_series(F, -s, precision=precision)
            assert G.coeffs == tuple(0j if k < s else c * math.perm(k, s)
                                     for k, c in enumerate(F.coeffs))
    assert main(["fracop", "--alpha=-2", "--mode", "integ", "--truncation", "200",
                 "--eval", "0.3"]) == 0
    # order s > 170: all zeros up to k = s, past it s! leaves the double range
    assert frac_integ_series(F.truncated(171), -171).coeffs == (0j,) * 171
    with pytest.raises(DomainError):
        frac_integ_series(F, -171)


def test_singular_set_stable_under_composition():
    # probe-centered radius estimates see the same singularity (at -1)
    # before and after a second fractional application
    from fraccal.series import taylor_shift
    F1 = frac_deriv_series(geometric_series(256), 0.5)
    F2 = frac_integ_series(F1, 0.3)
    for F in (F1, F2):
        assert abs(estimate_growth(F).a - 1.0) <= 0.2
        shifted = taylor_shift(F, 0.3).truncated(64)
        assert abs(estimate_growth(shifted).a - 1.3) <= 0.26


def _arrays_only(F):
    """F, refusing every call that does not pass an ndarray."""
    def G(z):
        if not isinstance(z, np.ndarray):
            raise TypeError(f"F called on the single point {z!r}")
        return F(z)
    return G


def test_boundary_probes_call_F_on_arrays():
    # the decay and growth probes evaluate F once on an ndarray of points
    for F, run in ((H1F, lambda F: cauchy_eval(F, 0.5, 0.2)),
                   (H1F, lambda F: frac_h1(F, 0.5, 0.5, 0.2, "deriv")),
                   (GEOM, lambda F: h_norm(F, 1.0, 0.5)),
                   (lambda t: 1.0, lambda F: h_norm(F, 1.0, 0.5)),
                   (GEOM, lambda F: frac_deriv_contour(F, 0.5, 1.0, 0.5, 0.2))):
        assert repr(run(_arrays_only(F))) == repr(run(F))
    # a scalar return is broadcast over the probe points; the decisions stand
    with pytest.raises(PreconditionError):
        cauchy_eval(_arrays_only(lambda z: 1.0), 0.5, 0.2)
    with pytest.raises(PreconditionError):
        frac_h1(_arrays_only(lambda z: 1.0), 0.5, 0.5, 0.1, "deriv")
    with pytest.raises(PreconditionError):
        h_norm(_arrays_only(np.exp), 0.5, 0.5)
    with pytest.raises(ConvergenceError):
        frac_deriv_contour(_arrays_only(np.exp), 0.5, 0.5, 0.5, 0.1, T=80.5)
