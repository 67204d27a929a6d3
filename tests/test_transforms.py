import cmath
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraccal.contours import Line, QuadratureSpec, integrate_path
from fraccal.errors import DomainError, FraccalError, PreconditionError
from fraccal.gammafn import gamma
from fraccal.hyp import Hyp2F1Params, _call_part, _hyp2f1_parts, _regularized_part, hyp2f1
from fraccal.series import PowerSeries, exp_series, geometric_series
from fraccal.transforms import (AsymptoticSeries, LaplaceOracle,
                                _laplace_members, borel_log_scaled,
                                borel_map, h_norm, inverse_borel, laplace_alpha,
                                laplace_quadrature, remainder,
                                s_side_representation_check,
                                to_standard_transform, verify_lm_duality,
                                watson_gevrey_check)
from fraccal.whittaker import WhittakerSurface, phase_amplitude_values

mp.mp.dps = 30

GEOM = lambda t: 1.0 / (1.0 + t)


def geometric_oracle(tol=1e-13):
    return LaplaceOracle(lambda z: laplace_quadrature(GEOM, z, 0.0, tol), 0.0)


def test_laplace_normalization():
    assert abs(laplace_quadrature(lambda t: 1.0, 2.0) - 1.0) < 1e-11
    assert abs(laplace_quadrature(lambda t: t, 2.0) - 0.5) < 1e-11
    with pytest.raises(DomainError):
        laplace_quadrature(lambda t: 1.0, 0.5, type_bound=1.0)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, 1e-20])
@pytest.mark.parametrize("call", [
    lambda tol: laplace_quadrature(GEOM, 2.0, 0.0, tol),
    lambda tol: laplace_alpha(GEOM, 0.5, 2.0, 0.0, tol),
    lambda tol: phase_amplitude_values(0.3, 0.1, 4.0, 0.0, 1, tol)])
def test_laplace_refuses_a_tol_below_its_floor(call, tol):
    # these integrated silently at 1e-14 (0.7226572337764 for the
    # geometric F at zeta = 2 and tol NaN)
    with pytest.raises(DomainError, match="tol must be >= 1e-14"):
        call(tol)


def test_laplace_geometric_closed_form():
    got = laplace_quadrature(GEOM, 3.0)
    ref = complex(3 * mp.exp(3) * mp.e1(3))
    assert abs(got - ref) <= 1e-9


def test_laplace_alpha():
    assert abs(laplace_alpha(lambda t: 1.0, 0.5, 2.0) - 0.8862269254527586) < 1e-11
    assert abs(laplace_alpha(lambda t: t, 0.5, 2.0) - 0.6646701940895692) < 1e-11
    # alpha = 0 reduces to the plain transform
    a0 = laplace_alpha(GEOM, 0.0, 3.0)
    assert abs(a0 - laplace_quadrature(GEOM, 3.0)) < 1e-10
    # singular-endpoint order handled for negative alpha
    assert abs(laplace_alpha(lambda t: 1.0, -0.4, 3.0) - gamma(0.6)) < 1e-10
    # the rule's range covers the growth of t^alpha: tol holds
    got = laplace_alpha(lambda t: 1.0 + t, 1.5, 2.0, 0.0, 1e-12)
    assert abs(got - (gamma(2.5) + gamma(3.5) / 2.0)) <= 1e-12


@pytest.mark.parametrize("alpha, max_levels", [(1.2 + 0.5j, 8), (1.5, 6), (2.3, 7)])
def test_laplace_alpha_flattens_orders_of_one_and_above(alpha, max_levels):
    # the endpoint behaviour s^alpha, Re alpha >= 1 too, needs no refinement
    # past a few passes; F is called once per pass of the one-member family
    calls = []

    def F(t):
        calls.append(len(t))
        return GEOM(t)

    got = laplace_alpha(F, alpha, 1.0, 0.0, 1e-12)
    assert len(calls) <= max_levels
    a = mp.mpc(alpha)
    ref = complex(mp.quad(lambda t: mp.exp(-t) * t ** a / (1 + t), [0, 1, mp.inf]))
    assert abs(got - ref) <= 1e-13 * abs(ref)


class _PowerLine:
    """z0 + direction * (length * s^p); flattens an endpoint singularity."""

    def __init__(self, z0, direction, length, p):
        self.z0, self.direction, self.length, self.p = z0, direction, length, p

    def point(self, s):
        return self.z0 + self.direction * self.length * s ** self.p

    def tangent(self, s, z=None):
        return self.direction * self.length * self.p * s ** (self.p - 1)


def _ray_path(T, p0, p1):
    """The moduli [0, 3 2^j] of a Laplace ray, cut at 1 and at 3, 6, 12, ...:
    3 2^j is the first of 6, 12, 24, ... at or beyond T (T >= 4).  A
    _PowerLine of exponent p0 flattens t^alpha at 0, and _PowerLines of
    exponent p1 a singularity at |t| = 1 on both sides, where set.  These
    are the GK15 paths the exp-sinh rule replaced, kept as its reference."""
    if p1 is None:
        path = [_PowerLine(0.0, 1.0, 1.0, p0) if p0 else Line(0.0, 1.0), Line(1.0, 3.0)]
    else:
        path = [_PowerLine(0.0, 1.0, 0.5, p0) if p0 else Line(0.0, 0.5),
                _PowerLine(1.0, -1.0, 0.5, p1), _PowerLine(1.0, 1.0, 2.0, p1)]
    edge = 3.0
    while edge < T:
        path.append(Line(edge, 2.0 * edge))
        edge *= 2.0
    return path


@pytest.mark.parametrize("T", [4.0, 6.0, 6.5, 11.5, 24.0, 47.0])
@pytest.mark.parametrize("p0, p1", [(None, None), (3, None), (None, 4), (2, 3)])
def test_ray_path_tail_edges_are_3_times_powers_of_two(T, p0, p1):
    ends = [(complex(seg.point(0.0)).real, complex(seg.point(1.0)).real)
            for seg in _ray_path(T, p0, p1)]
    tail = [b for a, b in ends if a >= 3.0]
    assert [a for a, _ in ends if a >= 3.0] == [3.0] + tail[:-1]
    assert tail == [3.0 * 2.0 ** k for k in range(1, len(tail) + 1)]
    assert tail[-1] >= T > tail[-1] / 2.0


@pytest.mark.parametrize("F, alpha, zeta, singular, p0, p1", [
    (GEOM, None, 3.0, None, None, None),
    (lambda t: 1.0 + t, 1.5, 2.0, None, 2, None),
    (lambda t: 1.0, -0.4, 3.0, None, 4, None),
    (GEOM, None, 2.0, 0.5, None, 4),
    (GEOM, 0.5, 2.0, 0.3, 2, 3)])
def test_laplace_members_match_gk15_along_the_ray_paths(F, alpha, zeta, singular, p0, p1):
    # adaptive GK15 along _ray_path, truncated at 24 (e^{-48} and below),
    # is an independent reference for the exp-sinh rule, also on a ray
    # split at a declared |t| = 1
    got, = _laplace_members([(F, alpha, zeta, 0.0, 1e-12, None, singular)])
    a = 0.0 if alpha is None else alpha
    ref, _ = integrate_path(lambda z: np.exp(-zeta * z.real) * z.real ** a * F(z.real + 0j),
                            _ray_path(24.0, p0, p1), QuadratureSpec(tol=1e-14), arclength=True)
    assert abs(got - zeta ** (1.0 + a) * ref) <= 1e-12


@pytest.mark.parametrize("zeta", [1.0, 2.0, 2.8, 5.0])
@pytest.mark.parametrize("m", range(5))
def test_laplace_horizon_covers_algebraic_growth(m, zeta):
    # the rays have no horizon: one set from the exponential type alone
    # (T = 11.5 at 2.8) misses t^4 by 6.0e-11 and t^3 by 1.8e-11 relative
    got = laplace_quadrature(lambda t: t ** m, zeta, 0.0, 1e-12)
    assert abs(got - math.factorial(m) / zeta ** m) <= 1e-12
    got = laplace_alpha(lambda t: t ** m, 0.5, zeta, 0.0, 1e-12)
    assert abs(got - gamma(m + 1.5) / zeta ** m) <= 1e-12


@pytest.mark.parametrize("zeta", [1e4, 1e6, 1e10, 1e300, math.inf, math.nan, 1e-320])
def test_laplace_at_extreme_zeta_meets_tol_or_raises(zeta):
    # nodes fixed in t miss e^{-zeta t} from zeta = 2e4 (0 at 1e6, where the
    # answer is about 1); 1e300 and inf must not overflow or warn
    refs = [lambda z: z * mp.exp(z) * mp.e1(z),
            lambda z: mp.gamma(1.5) * z ** 1.5 * mp.hyperu(1.5, 1.5, z)]
    for call, ref in zip((lambda: laplace_quadrature(GEOM, zeta, 0.0, 1e-12),
                          lambda: laplace_alpha(GEOM, 0.5, zeta, 0.0, 1e-12)), refs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = call()
            except FraccalError:
                continue
        assert abs(got - complex(ref(mp.mpf(zeta)))) <= 1e-12


@pytest.mark.parametrize("alpha, zeta", [(1.5 + 0.3j, 3.0 + 1.5j), (-0.4, 0.3 + 2.0j),
                                         (0.2 - 0.7j, 1.5 + 400.0j), (0.0, 2.0 - 1.9j)])
def test_laplace_at_complex_zeta_turns_the_ray(alpha, zeta):
    # on arg t = -arg zeta, e^{-zeta t} does not oscillate; on the real ray
    # 0.3 + 2i and 1.5 + 400i are out of the rule's reach
    got = laplace_alpha(GEOM, alpha, zeta, 0.0, 1e-12)
    a, z = mp.mpc(alpha), mp.mpc(zeta)
    assert abs(got - complex(mp.gamma(a + 1) * z ** (a + 1) * mp.hyperu(a + 1, a + 1, z))) <= 1e-12


def test_laplace_member_that_misses_tol_refines_alone():
    # a peak of width 0.1 at t = 2 needs levels past h = 1/32; the member
    # beside it is done at the first, and F is not called for it again
    peak = lambda t: 1.0 / ((t - 2.0) ** 2 + 0.01)
    calls = {peak: [], GEOM: []}

    def counted(f):
        return lambda t: calls[f].append(len(t)) or f(t)

    got = _laplace_members([(counted(peak), None, 1.0 + 0j, 0.0, 1e-8, None, None),
                            (counted(GEOM), None, 1.0 + 0j, 0.0, 1e-8, None, None)])
    ref = mp.quad(lambda t: mp.exp(-t) / ((t - 2) ** 2 + mp.mpf("0.01")), [0, 1.9, 2, 2.1, mp.inf])
    assert abs(got[0] - complex(ref)) <= 1e-8
    assert len(calls[peak]) > 1 and len(calls[GEOM]) == 1
    assert [repr(g) for g in got] == [repr(_laplace_members([m])[0]) for m in
                                      [(peak, None, 1.0 + 0j, 0.0, 1e-8, None, None),
                                       (GEOM, None, 1.0 + 0j, 0.0, 1e-8, None, None)]]


@pytest.mark.parametrize("alpha", [math.inf, math.nan, complex(0.5, math.inf), -0.9])
def test_laplace_alpha_at_extreme_alpha_meets_tol_or_raises(alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = laplace_alpha(lambda t: 1.0, alpha, 3.0, 0.0, 1e-12)
        except FraccalError:
            assert not cmath.isfinite(alpha)
            return
    assert abs(got - gamma(alpha + 1.0)) <= 1e-12  # -0.9: nodes down to t ~ 1e-210


@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.6, 0.9])
def test_laplace_member_nodes_never_round_to_the_singularity(sigma):
    # F is inf at |t| = 1: no node may round to it, and the nodes nearer to
    # it than a double resolves carry their exact complements
    got, = _laplace_members([(lambda t: abs(1 - t) ** -sigma, None, 2, 0, 1e-12, None, sigma)])
    s = mp.mpf(sigma)
    ref = 2 * mp.exp(-2) * (mp.hyp1f1(1 - s, 2 - s, 2) / (1 - s) + mp.gamma(1 - s) * 2 ** (s - 1))
    assert abs(got - complex(ref)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(2.0, 7.99), st.floats(2.0, 7.99))
def test_laplace_members_of_one_scale_share_every_node(z1, z2):
    # margins in [2, 8) have the scale c = 1/4: a family is one F call on
    # the union of its members' nodes, each evaluated once
    def moduli(zetas):
        seen = []
        laplace_quadrature(lambda t: seen.append(t.real) or GEOM(t), np.array(zetas))
        assert len(seen) == 1  # one level
        return seen[0].tolist()

    both, one, two = moduli([z1, z2]), set(moduli([z1])), set(moduli([z2]))
    assert len(set(both)) == len(both)
    assert set(both) == one | two
    assert len(one & two) >= 0.8 * min(len(one), len(two))


def test_lm_duality():
    alpha = 0.5
    dF = lambda t: gamma(1.5) * (1.0 + t) ** -1.5
    iF = lambda t: hyp2f1(Hyp2F1Params(1, 1, 1.5), -t) / gamma(1.5)
    out = verify_lm_duality(GEOM, dF, iF, alpha, 3.0)
    assert out["residual_deriv"] <= 1e-8
    assert out["residual_integ"] <= 1e-8
    # alpha = 0: both identities collapse to the plain transform
    out0 = verify_lm_duality(GEOM, GEOM, GEOM, 0.0, 3.0)
    assert out0["residual_deriv"] <= 1e-10
    # polynomial case with closed forms on both sides
    poly = lambda t: 1.0 + t
    dpoly = lambda t: gamma(1.5) + gamma(2.5) * t
    ipoly = lambda t: 1.0 / gamma(1.5) + t / gamma(2.5)
    outp = verify_lm_duality(poly, dpoly, ipoly, 0.5, 2.0)
    assert outp["residual_deriv"] <= 1e-10
    assert outp["residual_integ"] <= 1e-10


def test_inverse_borel_rounds_each_coefficient_once():
    # one correctly rounded division by the exact k!, also past k = 170
    ones = inverse_borel(AsymptoticSeries((1.0,) * 200)).coeffs
    assert ones == tuple(complex(float(Fraction(1, math.factorial(k))))
                         for k in range(200))


def test_borel_maps():
    p = borel_map(exp_series(5))
    assert all(abs(v - 1.0) < 1e-15 for v in p.p)
    g = borel_map(geometric_series(10))
    assert abs(g.p[4] - 24.0) < 1e-12
    F = geometric_series(16)
    assert inverse_borel(borel_map(F)).coeffs == F.coeffs
    with pytest.raises(OverflowError):
        borel_map(PowerSeries((1.0,) * 200))
    logs = borel_log_scaled(PowerSeries((1.0,) * 200))
    assert logs[180][0] == pytest.approx(math.lgamma(181))


def test_remainder():
    P = geometric_oracle()
    p = borel_map(geometric_series(26))
    z = 7.0 + 2.0j
    assert remainder(P, p, 0, z) == P(z)
    # an exact rational in 1/zeta has zero remainder past its degree
    coeffs = (1.0, -0.5, 2.0)
    rat = LaplaceOracle(lambda z: coeffs[0] + coeffs[1] / z + coeffs[2] / z ** 2, 0.0)
    ps = AsymptoticSeries(coeffs)
    assert abs(remainder(rat, ps, 3, 9.0)) < 1e-15
    r5 = remainder(P, p, 5, 10.0)
    assert abs(r5) <= math.factorial(5) / (0.5 ** 5 * 1e5)


def test_watson_bound_both_outcomes():
    P = geometric_oracle()
    p = borel_map(geometric_series(26))
    good = watson_gevrey_check(P, p, 0.5, 1.0)
    assert good["pass"] and math.isfinite(good["M_fit"])
    bad = watson_gevrey_check(P, p, 2.0, 1.0)
    assert not bad["pass"]
    assert bad["stability_ratio"] > 1.5


def test_watson_polynomial_case():
    coeffs = (1.0, 2.0, -1.0)
    rat = LaplaceOracle(lambda z: coeffs[0] + coeffs[1] / z + coeffs[2] / z ** 2, 0.0)
    ps = AsymptoticSeries(coeffs + (0.0,) * 22)
    res = watson_gevrey_check(rat, ps, 0.5, 1.0)
    assert res["pass"]
    assert res["worst_n"] <= 3


def test_asymptotic_correctness():
    # |P_n(zeta)| * |zeta|^n stays bounded for n <= 8 on [10, 100]
    P = geometric_oracle()
    p = borel_map(geometric_series(26))
    for n in range(9):
        for z in (10.0, 30.0, 100.0):
            val = abs(remainder(P, p, n, z)) * z ** n
            assert val <= 10.0 * math.factorial(n)


def test_normalization_reproduces_leading_coefficient():
    P = geometric_oracle()
    assert abs(P(200.0) - 1.0) < 0.01  # p_0 = f_0 = 1


def test_uniqueness_constructive():
    # two analytic functions sharing 16 Taylor coefficients have transforms
    # within the order-16 Watson envelope far out
    P1 = geometric_oracle(1e-13)
    coeffs = [(-1.0) ** k for k in range(16)]
    P2 = lambda z: sum(c * math.factorial(k) / z ** (k + 1) for k, c in enumerate(coeffs)) * z
    z = 50.0
    diff = abs(P1(z) - P2(z))
    envelope = math.factorial(16) / (0.5 ** 16 * z ** 16)
    assert diff <= envelope


def test_h_norm():
    v = h_norm(lambda t: 1.0, 1.0, 0.5)
    xs = np.linspace(0, 60, 400001)
    f = np.exp(-np.sqrt(xs ** 2 + 0.25))
    ray = float(np.sum(f[1:] + f[:-1])) * (xs[1] - xs[0]) / 2  # trapezoid rule
    arc = math.pi * 0.5 * math.exp(-0.5)
    ref = 2 * ray + arc
    assert abs(v - ref) / ref <= 1e-6
    assert h_norm(lambda t: 1.0, 1.0, 0.5) > h_norm(lambda t: 1.0, 2.0, 0.5) \
        > h_norm(lambda t: 1.0, 4.0, 0.5)
    with pytest.raises(PreconditionError):
        h_norm(lambda t: cmath.exp(t), 0.5, 0.5, type_bound=1.0)


def test_standard_transform_helper():
    P = geometric_oracle()
    std = to_standard_transform(P)
    assert abs(std(3.0) - P(3.0) / 3.0) < 1e-14


def test_s_side_representation_probe():
    out = s_side_representation_check()
    assert out["pass"], out


_ZETAS = np.array([2.0, 3.0 + 1.5j, 5.0, 40.0 - 3.0j])
_P15 = Hyp2F1Params(1, 1, 1.5)


@pytest.mark.parametrize("F", [GEOM, lambda t: hyp2f1(_P15, -t), lambda t: 1.0])
def test_laplace_zeta_arrays_match_scalar_calls(F):
    got = laplace_quadrature(F, _ZETAS, 0.0, 1e-12)
    assert got.shape == _ZETAS.shape and got.dtype == complex
    for z, g in zip(_ZETAS.tolist(), got.tolist()):
        assert repr(g) == repr(laplace_quadrature(F, z, 0.0, 1e-12))
    for alpha in (0.5, -0.4, 1.5 + 0.3j):
        got = laplace_alpha(F, alpha, _ZETAS, 0.0, 1e-11)
        assert got.shape == _ZETAS.shape
        for z, g in zip(_ZETAS.tolist(), got.tolist()):
            assert repr(g) == repr(laplace_alpha(F, alpha, z, 0.0, 1e-11))
    # any shape; a scalar gives a complex
    grid = laplace_quadrature(F, _ZETAS.reshape(2, 2), 0.0, 1e-12)
    assert grid.shape == (2, 2)
    assert repr(grid[1, 0]) == repr(laplace_quadrature(F, _ZETAS, 0.0, 1e-12)[2])
    assert type(laplace_quadrature(F, np.float64(3.0))) is complex
    assert type(laplace_alpha(F, 0.5, 3.0)) is complex


def test_laplace_zeta_array_domain():
    with pytest.raises(DomainError):
        laplace_quadrature(GEOM, np.array([2.0, 0.5]), type_bound=1.0)
    with pytest.raises(DomainError):
        laplace_alpha(GEOM, 0.5, np.array([0.5, 2.0]), type_bound=1.0)
    assert laplace_quadrature(GEOM, np.array([])).shape == (0,)


def test_lm_duality_zeta_arrays_match_scalar_calls():
    alpha = 0.5
    g1 = gamma(alpha + 1.0)
    trio = (GEOM, lambda t: g1 * (1.0 + t) ** (-alpha - 1.0),
            lambda t: hyp2f1(_P15, -t) / g1)
    out = verify_lm_duality(*trio, alpha, _ZETAS, 0.0, 1e-12)
    for i, z in enumerate(_ZETAS.tolist()):
        ref = verify_lm_duality(*trio, alpha, z, 0.0, 1e-12)
        assert set(out) == set(ref)
        for key, value in ref.items():
            assert type(value) is type(out[key][i].item())
            assert repr(out[key][i].item()) == repr(value)


def test_laplace_members_match_one_member_integrations():
    hyp_F = lambda t: hyp2f1(_P15, -t)
    one = lambda t: 1.0  # a constant comes back as a scalar
    up, down = WhittakerSurface(0.3, 0.1), WhittakerSurface(-0.3, 0.1)
    members = [(one, None, 0.8 + 0.5j, 0.0, 1e-12, None, None),  # |zeta| < 1
               (GEOM, 0.5 + 0j, 2.0 + 0j, 0.0, 1e-11, None, None),
               (hyp_F, None, 5.0 + 0j, 0.0, 1e-12, None, None),
               (hyp_F, 1.5 + 0.3j, 40.0 - 3.0j, 0.0, 1e-11, None, None),
               # surface rays: rotated, beyond-sheet with a singularity at |t| = 1
               (up.f1, None, 3.0 * cmath.exp(1j * math.pi), 0.0, 1e-10, -math.pi + 0.5, None),
               (down.f2, None, 4.0 * cmath.exp(1j * math.pi), 0.0, 1e-10, -math.pi, None),
               (up.f2, None, 5.0 * cmath.exp(-1j), 0.0, 1e-10, 1.0, 0.6),
               (up.f2, 0.5 + 0j, 5.0 * cmath.exp(-1j), 0.0, 1e-10, 1.0, 0.6),
               (up.f1, None, 6.0 + 0j, 0.0, 1e-10, 0.2, None),
               (up.f1, None, 4.0 * cmath.exp(1j * math.pi), 0.0, 1e-10, -math.pi + 0.5, None),
               (GEOM, 0.5 + 0j, 2.0 + 0j, 0.0, 1e-11, None, None),  # repeats
               (up.f1, None, 3.0 * cmath.exp(1j * math.pi), 0.0, 1e-10, -math.pi + 0.5, None)]
    got = _laplace_members(members)
    assert [repr(g) for g in got] == [repr(_laplace_members([m])[0]) for m in members]
    assert repr(got[0]) == repr(laplace_quadrature(one, 0.8 + 0.5j, 0.0, 1e-12))
    assert repr(got[4]) == repr(phase_amplitude_values(0.3, 0.1, 3.0, math.pi, 1, 1e-10))


def test_laplace_members_evaluate_the_callers_parts_alongside():
    # the caller's parts join the first level's 2F1 pass; neither their
    # results nor the members' values depend on it
    up, down = WhittakerSurface(0.3, 0.1), WhittakerSurface(-0.3, 0.1)
    members = [(GEOM, 0.5 + 0j, 2.0 + 0j, 0.0, 1e-11, None, None),
               (up.f1_part, None, 3.0 * cmath.exp(1j * math.pi), 0.0, 1e-10,
                -math.pi + 0.5, None),
               (down.f2_part, None, 4.0 * cmath.exp(1j * math.pi), 0.0, 1e-10, -math.pi, None)]
    parts = [_call_part(_P15, np.array([0.3 + 0.2j, -2.0 + 0.5j, 0.3 - 0.2j])),
             _regularized_part(0.2, 0.4, -1.0, 0.5 + 0.1j),  # at a pole of Gamma(c)
             up.f1_part(np.array([1.5, 2.0]), np.array([2.8, -2.8]))]
    for batch in (members, []):
        got = _laplace_members(batch, parts)
        assert len(got) == len(batch) + len(parts)
        assert [repr(g) for g in got[:len(batch)]] == [repr(g) for g in _laplace_members(batch)]
        assert [repr(g) for g in got[len(batch):]] == [repr(g) for g in _hyp2f1_parts(parts)]


def test_laplace_member_with_a_declared_singularity_meets_tol():
    # the ray's piece flattened at |t| = 1 from below runs from 1 down to
    # 1/2: it must add its integral, not subtract it
    got, = _laplace_members([(GEOM, None, 2.0 + 0j, 0.0, 1e-12, None, 0.5)])
    ref = 2 * mp.exp(2) * mp.e1(2)
    assert abs(got - complex(ref)) <= 1e-11
    # P_2 beyond its sheet is continuous in kappa at 0, where its ray starts
    # to declare |t - 1|^{-2 kappa}
    plain, declared = (phase_amplitude_values(k, 0.1, 5.0, -1.0, 2) for k in (0.0, 1e-9))
    assert abs(declared - plain) <= 1e-8


def test_laplace_member_domain_error_in_a_batch():
    bad = (GEOM, 0.5 + 0j, 0.5 + 0j, 1.0, 1e-12, None, None)
    good = [(GEOM, None, 2.0 + 0j, 1.0, 1e-12, None, None),
            (lambda t: 1.0, 0.5 + 0j, 3.0 + 0j, 0.0, 1e-12, None, None)]
    with pytest.raises(DomainError) as alone:
        _laplace_members([bad])
    with pytest.raises(DomainError) as batch:
        _laplace_members([good[0], bad, good[1]])
    assert str(batch.value) == str(alone.value)
