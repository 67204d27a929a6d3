"""Laplace transform pair, Borel coefficient map, asymptotic remainders and
the Watson/Gevrey bound checks.

The transform carries the non-standard zeta prefactor

    P(zeta) = zeta * int_0^oo e^{-zeta t} F(t) dt,

so that L{1} = 1 and the large-zeta expansion of P has coefficients
p_k = f_k k! directly.  to_standard_transform converts to the classical
normalization (divide by zeta).

Every Laplace integral of the library, along the positive axis here and
along rotated rays of the log-Riemann surface in whittaker, is a member of
_laplace_members: one path rule, one integrate_paths family per batch.  The
functions integrated (F, the operator images, the surface functions) are
numpy expressions: they receive an ndarray of quadrature nodes, see
contours.integrate_path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .contours import (Line, QuadratureSpec, _PowerLine, gamma_contour,
                       integrate_path, integrate_paths)
from .errors import DomainError, PreconditionError
from .gammafn import gamma
from .hyp import _hyp2f1_parts, _Part
from .series import PowerSeries
from .utils import as_family, family_result, require_tol

_FACTORIAL_LIMIT = 170  # k! overflows double beyond this


@dataclass(frozen=True)
class AsymptoticSeries:
    """Coefficients p_k of a 1/zeta expansion; p_k = f_k k! for some
    convergent Taylor series."""

    p: tuple
    gevrey_scale: Optional[float] = None  # the A of the n!/A^n envelope, if known

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(complex(v) for v in self.p))
        if not self.p:
            raise DomainError("need at least one coefficient")

    def partial_sum(self, n: int, zeta: complex) -> complex:
        acc = 0.0 + 0.0j
        for k in range(min(n, len(self.p)) - 1, -1, -1):
            acc = acc / zeta + self.p[k]
        return acc


@dataclass(frozen=True)
class LaplaceOracle:
    """Evaluator of a transform P(zeta) analytic for Re zeta > type_bound."""

    evaluator: Callable[[complex], complex]
    type_bound: float = 0.0

    def __call__(self, zeta: complex) -> complex:
        return self.evaluator(complex(zeta))


def borel_map(F: PowerSeries) -> AsymptoticSeries:
    """p_k = f_k k!; raises OverflowError past k = 170 (double range)."""
    if F.truncation > _FACTORIAL_LIMIT + 1:
        raise OverflowError(
            f"k! overflows double precision beyond k = {_FACTORIAL_LIMIT}; "
            "truncate the series or use borel_log_scaled")
    return AsymptoticSeries(tuple(c * math.factorial(k) for k, c in enumerate(F.coeffs)),
                            gevrey_scale=F.radius_hint)


def inverse_borel(p: AsymptoticSeries, radius_hint: Optional[float] = None) -> PowerSeries:
    """f_k = p_k / k!, each part one correctly rounded division by the exact
    integer k!, so that k past 170 works too."""
    def over(x: float, k: int) -> float:
        return float(Fraction(x) / math.factorial(k)) if math.isfinite(x) else x

    return PowerSeries(tuple(complex(over(v.real, k), over(v.imag, k))
                             for k, v in enumerate(p.p)),
                       radius_hint=radius_hint if radius_hint is not None else p.gevrey_scale)


def borel_log_scaled(F: PowerSeries):
    """(log |p_k|, phase p_k) pairs; the overflow-safe representation."""
    out = []
    for k, c in enumerate(F.coeffs):
        if c == 0:
            out.append((-math.inf, 0.0))
        else:
            out.append((math.log(abs(c)) + math.lgamma(k + 1), cmath.phase(c)))
    return out


def to_standard_transform(P: Callable[[complex], complex]) -> Callable[[complex], complex]:
    """Convert the zeta-normalized transform to the classical one."""
    return lambda zeta: P(zeta) / zeta


def _truncation_horizon(re_margin: float, tol: float, power: float = 0.0) -> float:
    # e^{-margin T} T^power < 0.01 tol, by fixed-point steps from power = 0
    T = max(4.0, -math.log(0.01 * tol) / re_margin)
    for _ in range(4 if power > 0 else 0):
        T = max(4.0, (power * math.log(T) - math.log(0.01 * tol)) / re_margin)
    return T


def _ray_path(T: float, p0: Optional[int], p1: Optional[int]) -> list:
    """The moduli [0, 3 2^j] of a Laplace ray, cut at 1 and at 3, 6, 12, ...:
    3 2^j is the first of 6, 12, 24, ... at or beyond the horizon T (T >= 4),
    so rays of any horizons share their tail segments.  A _PowerLine of
    exponent p0 flattens t^alpha at 0, and _PowerLines of exponent p1 a
    singularity at |t| = 1 on both sides, where set."""
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


def _laplace_members(members: Sequence[tuple]) -> list:
    """The value of each member (F, alpha, zeta, type_bound, tol, theta,
    singular), from one integrate_paths call over the distinct members.

    A member is the transform along the ray arg t = theta, at w = zeta
    e^{i theta}, of F on that ray:

        w^{1+alpha} int_0^oo e^{-w s} s^alpha F(s e^{i theta}) ds,

    with prefactor w and no power for alpha None.  theta None is the
    positive axis and F a function of t; otherwise F takes the (moduli,
    angles) of surface points.  tol (at least 1e-14) bounds the integral:
    it is truncated at the first 3 2^j at or beyond the T where
    e^{-(Re w - type_bound) T} T^{max(Re alpha, 0)} < 0.01 tol, and refined
    to GK tolerance tol along _ray_path, which flattens s^alpha (to order
    p (Re alpha + 1) - 1 >= 1 in t = s^p, p >= 2, as in laplace_alpha) and
    a declared singularity |t - 1|^{-singular} (0 < singular < 1).  Each
    distinct F is evaluated once per level, on all (modulus, angle) pairs
    of its members' nodes.  F returns its values there, or a hyp part
    (hyp._Part); the parts of all F of a level are evaluated in one 2F1
    pass (hyp._hyp2f1_parts), which sums each distinct point once, so
    members that differ in zeta alone share the 2F1 values of the tail
    segments they have in common, at least at the first level."""
    distinct = list(dict.fromkeys(members))
    paths, specs, rate, scale, angle, alphas, fn_of = [], [], [], [], [], [], []
    fns, plane = {}, {}  # index and kind of each distinct F
    for F, alpha, zeta, type_bound, tol, theta, singular in distinct:
        w = zeta if theta is None else zeta * cmath.exp(1j * theta)
        margin = w.real - type_bound
        if margin <= 0:
            raise DomainError(f"Re(zeta e^(i theta)) = {w.real} must exceed the "
                              f"type bound {type_bound}")
        p0 = p1 = None
        if alpha is not None:
            if alpha.real <= -1.0:
                raise DomainError("Re alpha must exceed -1")
            p0 = max(2, math.ceil(2.0 / (alpha.real + 1.0)))
        if singular is not None and singular > 0:
            if singular >= 1.0:
                raise DomainError(f"|t-1|^(-{singular}) at |t| = 1: the ray integral "
                                  "diverges")
            p1 = max(2, math.ceil(2.0 / (1.0 - singular)))
        tol = max(1e-14, tol)
        T = _truncation_horizon(margin, tol, 0.0 if alpha is None else alpha.real)
        paths.append(_ray_path(T, p0, p1))
        specs.append(QuadratureSpec(tol=tol))
        rate.append(-w)
        scale.append(w if alpha is None else w ** (1.0 + alpha))
        angle.append(0.0 if theta is None else theta)
        alphas.append(alpha)
        plane[F] = theta is None
        fn_of.append(fns.setdefault(F, len(fns)))
    rate, fn_of = np.array(rate), np.array(fn_of)
    angle = np.array(angle, dtype=float) + 0.0  # rays -0.0 and 0.0 are one: F sees 0.0
    powered = np.array([a is not None for a in alphas])
    alphas = np.array([0.0 if a is None else a for a in alphas], dtype=complex)

    def g(s: np.ndarray, k: np.ndarray) -> np.ndarray:
        s = s.real  # moduli: s = 0 is an endpoint, never a node
        fid, vals = fn_of[k], np.empty(len(s), dtype=complex)
        parts, at = [], []
        for i, F in enumerate(fns):
            ix = np.flatnonzero(fid == i)
            if len(ix):  # a function whose members are all done sits out
                v = F(s[ix] + 0j) if plane[F] else F(s[ix], angle[k[ix]])
                if isinstance(v, _Part):
                    parts.append(v)
                    at.append(ix)
                else:
                    vals[ix] = v
        for ix, v in zip(at, _hyp2f1_parts(parts)):  # the level's one 2F1 pass
            vals[ix] = v
        out = np.exp(rate[k] * s)
        sel = powered[k]
        if sel.any():
            out[sel] *= s[sel] ** alphas[k[sel]]
        return out * vals

    # arclength, against |ds|: a singular ray's piece flattened at |t| = 1
    # from below runs from 1 down to 1/2
    res = integrate_paths(g, paths, specs, True)
    value = {m: a * r.value for m, a, r in zip(distinct, scale, res)}
    return [value[m] for m in members]


def _plane_member(F: Callable[[np.ndarray], np.ndarray], alpha, zeta: complex,
                  type_bound: float, tol: float) -> tuple:
    """The _laplace_members member of laplace_alpha (laplace_quadrature for
    alpha None) of F at zeta: tol on the transform is tol / max(|zeta|,
    1)^{1 + max(Re alpha, 0)} on the integral."""
    require_tol(tol)
    if alpha is not None:
        alpha = complex(getattr(alpha, "alpha", alpha))
    weight = max(abs(zeta), 1.0) ** (1.0 + max(0.0 if alpha is None else alpha.real, 0.0))
    return F, alpha, zeta, type_bound, tol / weight, None, None


def laplace_quadrature(F: Callable[[np.ndarray], np.ndarray], zeta,
                       type_bound: float = 0.0, tol: float = 1e-12):
    """zeta * int_0^oo e^{-zeta t} F(t) dt for Re zeta > type_bound.

    An array of zeta is integrated as one family (contours.integrate_paths)
    and gives an ndarray of its shape, each element equal to the scalar
    call's complex."""
    zetas, shape = as_family(zeta)
    return family_result(_laplace_members([_plane_member(F, None, z, type_bound, tol)
                                           for z in zetas]), shape)


def laplace_alpha(F: Callable[[np.ndarray], np.ndarray], alpha, zeta,
                  type_bound: float = 0.0, tol: float = 1e-12):
    """zeta^{1+alpha} int_0^oo e^{-zeta t} t^alpha F(t) dt (principal power).

    The algebraic endpoint factor t^alpha is flattened by a power piece
    t = s^p of the path, p = max(2, ceil(2 / (Re alpha + 1))): the integrand
    then starts as s^{p (alpha + 1) - 1}, of real order at least 1, and at
    least 3 for Re alpha >= 1, where p = 1 would leave s^alpha unflattened.
    An array of zeta is integrated as one family, as in laplace_quadrature.
    """
    zetas, shape = as_family(zeta)
    return family_result(_laplace_members([_plane_member(F, alpha, z, type_bound, tol)
                                           for z in zetas]), shape)


def _lm_duality_reports(cases: Sequence[tuple], type_bound: float = 0.0,
                        tol: float = 1e-12) -> list:
    """verify_lm_duality's report for each case (F, d_alpha_F, i_alpha_F,
    alpha, zeta), from one integration of the members of all cases."""
    fams = [(as_family(zeta), ((F, alpha), (d_alpha_F, None), (F, None), (i_alpha_F, alpha)))
            for F, d_alpha_F, i_alpha_F, alpha, zeta in cases]
    vals = iter(_laplace_members([_plane_member(G, a, z, type_bound, tol)
                                  for (zetas, _), pairs in fams
                                  for G, a in pairs for z in zetas]))
    reports = []
    for (zetas, shape), _ in fams:
        lhs_d, rhs_d, lhs_i, rhs_i = [[next(vals) for _ in zetas] for _ in range(4)]
        res_d = [abs(a - b) for a, b in zip(lhs_d, rhs_d)]
        res_i = [abs(a - b) for a, b in zip(lhs_i, rhs_i)]
        reports.append({"residual_deriv": family_result(res_d, shape, float),
                        "residual_integ": family_result(res_i, shape, float),
                        "transform_value": family_result(lhs_d, shape),
                        "laplace_value": family_result(lhs_i, shape)})
    return reports


def verify_lm_duality(F: Callable[[np.ndarray], np.ndarray],
                      d_alpha_F: Callable[[np.ndarray], np.ndarray],
                      i_alpha_F: Callable[[np.ndarray], np.ndarray],
                      alpha, zeta, type_bound: float = 0.0,
                      tol: float = 1e-12) -> dict:
    """Residuals of the two transform identities

        zeta^{1+alpha} int e^{-zeta t} t^alpha F dt
            = zeta int e^{-zeta t} D_alpha{F} dt,
        zeta int e^{-zeta t} F dt
            = zeta^{1+alpha} int e^{-zeta t} t^alpha I_alpha{F} dt,

    given closed-form (or series-backed) evaluators for the operator images.
    An array of zeta gives ndarrays of its shape; the four transforms at
    every zeta are integrated as one family.
    """
    return _lm_duality_reports([(F, d_alpha_F, i_alpha_F, alpha, zeta)],
                               type_bound, tol)[0]


def remainder(P: LaplaceOracle, p: AsymptoticSeries, n: int, zeta: complex) -> complex:
    """P(zeta) - sum_{k<n} p_k / zeta^k; n = 0 returns P(zeta)."""
    if n < 0:
        raise DomainError("n must be non-negative")
    zeta = complex(zeta)
    if zeta.real <= P.type_bound:
        raise DomainError("Re zeta must exceed the oracle's type bound")
    if n == 0:
        return P(zeta)
    if n > len(p.p):
        raise DomainError(f"only {len(p.p)} coefficients available")
    return P(zeta) - p.partial_sum(n, zeta)


def watson_gevrey_check(P: LaplaceOracle, p: AsymptoticSeries, A: float,
                        r: float, n_max: int = 24,
                        zeta_grid: Optional[Sequence[complex]] = None) -> dict:
    """Estimate M = sup over the grid and n <= n_max of
    A^n |zeta|^n |P_n(zeta)| / n!, with a stability probe.

    pass requires the sup to be finite and the n_max -> n_max/2 ratio below
    1.5; a remainder envelope that beats n!/A^n fails the probe, which is the
    expected outcome when A exceeds the distance-to-singularity of the Borel
    sum.
    """
    if A <= 0 or r <= P.type_bound:
        raise PreconditionError("need 0 < A and r above the type bound")
    grid = list(zeta_grid) if zeta_grid is not None else [8.0, 16.0, 32.0]
    n_max = min(n_max, len(p.p))
    sup_half = 0.0
    sup_full = 0.0
    worst_n = 0
    for zeta in grid:
        zeta = complex(zeta)
        if zeta.real < r:
            raise PreconditionError("grid point below r")
        pval = P(zeta)
        acc = 0.0 + 0.0j
        scale = 1.0
        for n in range(n_max + 1):
            rem = pval - acc  # P_n with the n-term partial sum
            weighted = scale * abs(rem)
            if n <= n_max // 2:
                sup_half = max(sup_half, weighted)
            if weighted > sup_full:
                sup_full = weighted
                worst_n = n
            if n < n_max:
                acc += p.p[n] / zeta ** n
                scale *= A * abs(zeta) / (n + 1.0)
    ratio = sup_full / sup_half if sup_half > 0 else math.inf
    ok = math.isfinite(sup_full) and ratio < 1.5
    return {"M_fit": sup_full, "pass": ok, "stability_ratio": ratio,
            "worst_n": worst_n, "n_max": n_max, "A": A, "r": r}


def h_norm(F: Callable[[np.ndarray], np.ndarray], r: float, A: float,
           type_bound: float = 0.0, tol: float = 1e-9) -> float:
    """The weighted boundary norm int_{gamma(A)} e^{-r|t|} |F(t)| |dt|.

    Requires r above the declared exponential type; the truncation tail
    e^{-(r - R) T} is certified against the requested tolerance.
    """
    if r <= type_bound:
        raise PreconditionError(
            f"r = {r} does not exceed the declared type {type_bound}; "
            "the weighted tail diverges")
    T = A + _truncation_horizon(r - type_bound, tol)
    contour = gamma_contour(A, T)
    # empirical tail sanity on top of the declared bound
    ends = np.array([complex(T, A), complex(T / 2.0, A)])
    f1, f0 = np.broadcast_to(F(ends), ends.shape).tolist()
    e1 = abs(f1) * math.exp(-r * abs(complex(T, A)))
    e0 = abs(f0) * math.exp(-r * abs(complex(T / 2.0, A)))
    if e1 > max(e0, 1e-290) * 1.01 and e1 > tol:
        raise PreconditionError("sampled integrand grows along the ray; "
                                "declared type looks too small")
    val, _ = integrate_path(lambda t: np.exp(-r * np.abs(t)) * np.abs(F(t)),
                            contour, QuadratureSpec(tol=tol), arclength=True)
    return abs(val)


def s_side_representation_check(zeta: complex = 6.0, alpha: complex = 0.5,
                                r: float = 1.5, y_max: float = 400.0,
                                tol: float = 1e-7) -> dict:
    """Consistency probe of the transform-plane integral representation

        P(zeta, alpha) = Gamma(alpha+1)/(2 pi i)
            * int_{r-i oo}^{r+i oo} (1 - z/zeta)^{-alpha-1} P(z)/z dz

    on the geometric touchstone F = 1/(1+t).  Exercised at a single point;
    the representation converges too slowly for production use.
    """
    F = lambda t: 1.0 / (1.0 + t)
    lhs = laplace_alpha(F, alpha, zeta, 0.0, 1e-11)

    def integrand(z: np.ndarray) -> np.ndarray:
        Pz = laplace_quadrature(F, z, 0.0, 1e-10)  # the level's nodes as one family
        return (1.0 - z / zeta) ** (-alpha - 1.0) * Pz / z

    segs = [Line(complex(r, -y_max), complex(r, -2.0)),
            Line(complex(r, -2.0), complex(r, 2.0)),
            Line(complex(r, 2.0), complex(r, y_max))]
    val, _ = integrate_path(integrand, segs, QuadratureSpec(tol=1e-8))
    rhs = gamma(alpha + 1.0) * val / (2j * math.pi)
    # algebraic tail |y|^{-1-Re alpha} / (1+Re alpha) per ray end
    tail = 2.0 * abs(zeta) ** (alpha.real + 1.0) * y_max ** (-alpha.real - 1.0) / (alpha.real + 1.0) / (2.0 * math.pi)
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "tail_bound": tail, "pass": abs(lhs - rhs) <= max(tol, 3.0 * tail)}
