import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from fraccal.contours import cauchy_eval
from fraccal.errors import ConvergenceError, DomainError, GammaPoleError, \
    PreconditionError
from fraccal.fracops import (FractionalOrder, _deriv_kernel, _integ_kernel,
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
# per node from |w| (and |w/(w-1)| for the integral)
KERNEL_BRANCHES = {
    "deriv-direct": ("deriv", lambda w: abs(w) <= 0.9),
    "deriv-inverse": ("deriv", lambda w: abs(w) > 0.9 and abs(w.imag) > 0.05),
    "integ-direct": ("integ", lambda w: abs(w) <= 0.9),
    "integ-pfaff": ("integ", lambda w: abs(w) > 0.9 and abs(w / (w - 1.0)) <= 0.9),
}


@pytest.mark.parametrize("alpha", (-0.5, 0.3 + 0.4j, 1.5))
@pytest.mark.parametrize("branch", sorted(KERNEL_BRANCHES))
def test_kernel_moment_sums_match_mpmath(branch, alpha):
    # sum_j b_j f_k(w_j) from node moments against per-node mpmath 2F1; the
    # direct-series sets include a node at |w| = 0.9, where truncation is latest
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
    for k in (0, 1, 7, 30):
        A, C = (a + k + 1, k + 1) if mode == "deriv" else (k + 1, a + k + 1)
        terms = [bj * complex(mp.hyp2f1(A, 1, C, wj)) for wj, bj in zip(w, b)]
        assert abs(kernel_sum(k) - sum(terms)) <= 1e-13 * sum(abs(x) for x in terms)


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
    with pytest.warns(RuntimeWarning):
        psi_limit_check(geometric_series(16), 1, 0.2, 1e-10)


def test_psi_coefficients_contour():
    got = psi_coefficients_contour(GEOM, 3, 1.0, 0.5)
    assert max(abs(g - e) for g, e in zip(got, (1, -1, 1, -1))) <= 1e-9
    ones = psi_coefficients_contour(lambda z: 1.0, 2, 1.0, 0.5)
    assert abs(ones[0] - 1.0) < 1e-10 and abs(ones[1]) < 1e-10 and abs(ones[2]) < 1e-10
    expc = psi_coefficients_contour(lambda z: np.exp(z), 3, 2.0, 0.5)
    assert max(abs(g - 1.0 / math.factorial(j)) for j, g in enumerate(expc)) <= 1e-8


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
    F = geometric_series(48)
    a = frac_deriv_series(F, 0.5, precision="double")
    b = frac_deriv_series(F, 0.5, precision="extended")
    worst = max(abs(x - y) / max(abs(x), 1e-30) for x, y in zip(a.coeffs, b.coeffs))
    assert worst < 1e-13


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
