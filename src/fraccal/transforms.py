"""Laplace transform pair, Borel coefficient map, asymptotic remainders and
the Watson/Gevrey bound checks.

The transform carries the non-standard zeta prefactor

    P(zeta) = zeta * int_0^oo e^{-zeta t} F(t) dt,

so that L{1} = 1 and the large-zeta expansion of P has coefficients
p_k = f_k k! directly.  to_standard_transform converts to the classical
normalization (divide by zeta).

Every Laplace integral of the library, along the positive axis here and
along rotated rays of the log-Riemann surface in whittaker, is a member of
_laplace_members: one nested double-exponential rule, with no truncation
horizon, per batch.  The functions integrated (F, the operator images, the
surface functions) are numpy expressions: they receive an ndarray of nodes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .contours import (_DE_LOG_COSH, _FROM_0, _FROM_1, _TANH, Line, QuadratureSpec,
                       _de_grid, gamma_contour, integrate_path)
from .errors import DomainError, PreconditionError, QuadratureError
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


# The Laplace rule: levels h = 1/32, 1/64, 1/128 and 1/256 of the grid
# contours._DE_U (step 1/256); the first level's even nodes give h = 1/16
_H, _LEVELS = 1.0 / 32.0, 4
_STEP = 2 ** (_LEVELS - 1)  # the first level's step in grid indices
_CUT = -70.0 * math.log(2.0)  # a node below 2^-70 of its piece's peak is dropped
_ROUNDOFF = 50.0 * 2.0 ** -52  # estimates below this part of h sum |terms| are rounding


def _laplace_members(members: Sequence[tuple], parts: Sequence[_Part] = ()) -> list:
    """The value of each member (F, alpha, zeta, type_bound, tol, theta,
    singular), from one _exp_sinh call over the distinct members, followed
    by the result of each of the caller's hyp parts.

    A member is w^{1+alpha} int_0^oo e^{-w s} s^alpha F(s e^{i theta}) ds,
    w = zeta e^{i theta}, with prefactor w and no power for alpha None,
    within tol.  theta None is the positive axis and F a function of t,
    turned to arg t = -arg zeta at complex zeta (the same integral by
    Cauchy, F analytic between); otherwise F takes the (moduli, angles) of
    surface points.  |F| grows at most like e^{type_bound s} s^m.  singular
    (< 1), if not None, declares F = |1 - t|^{-singular} g, g smooth on
    either side of |t| = 1, and splits the ray there.

    The rule (Takahasi & Mori, Publ. RIMS 9 (1974); Bailey, Jeyabalan & Li,
    Exp. Math. 14 (2005)) is the trapezoid rule in u, |u| <= 7, of s = c
    exp(pi/2 sinh u), or on a split ray of tanh-sinh s = 1/(1 + e^{-pi sinh
    u}) on [0, 1] and s = 1 + c exp(pi/2 sinh u) beyond.  c = 2^k, k even,
    has c margin in [1/2, 2), margin = Re w - type_bound, so members whose
    margins lie in one [2, 8) 4^j share every node.  A term is cosh u exp(E) F
    (times (|1 - s|/d)^singular, d the node's exact complement), E holding
    e^{-w s} s^alpha, the prefactor and ds/du.  A piece drops the u_j where
    that, times e^{type_bound s} |1 - s|^{-singular}, is below 2^-70 of its
    peak; it raises QuadratureError if it keeps an end of the grid.

    Level h = 1/32 of all members is one pass: F is called once per ray and
    scale, on the hull of its members' nodes, and its hyp parts go with the
    caller's to one 2F1 pass (hyp._hyp2f1_parts).  The estimate is |S_h -
    S_2h|, S_2h from the even nodes.  A member whose estimate exceeds
    max(tol, 50 eps h sum |terms|) adds its odd nodes of h/2, in one more
    pass of such members only, down to h = 1/256, then raises
    QuadratureError.  So no value depends on the other members."""
    distinct = list(dict.fromkeys(members))
    values, extra = _exp_sinh(distinct, parts)
    value = dict(zip(distinct, values))
    return [value[m] for m in members] + extra


def _exp_sinh(members: list, parts: Sequence[_Part] = ()) -> tuple:
    """(the value of each distinct member, the results of parts); see
    _laplace_members."""
    if not members:
        return [], _hyp2f1_parts(list(parts))
    pieces, groups = [], {}  # (member, group, w, alpha, margin, singular, k); ray: number
    for i, (F, alpha, zeta, type_bound, tol, theta, singular) in enumerate(members):
        zeta = complex(zeta)
        w = zeta if theta is None else zeta * cmath.exp(1j * theta)
        if not (cmath.isfinite(zeta) and w.real - type_bound > 0):
            raise DomainError(f"Re(zeta e^(i theta)) = {w.real} must be finite and "
                              f"exceed the type bound {type_bound}")
        plane, angle = theta is None, 0.0 if theta is None else theta + 0.0  # -0.0 is 0.0
        if plane and zeta.imag != 0.0:
            angle, w = -cmath.phase(zeta), complex(abs(zeta))
        margin, alpha = w.real - type_bound, 0j if alpha is None else complex(alpha)
        if not margin >= 2.0 ** -990:
            raise DomainError(f"margin {margin:.3g} over the type bound: below the double range")
        if not (cmath.isfinite(alpha) and alpha.real > -1.0):
            raise DomainError(f"alpha = {alpha}: Re alpha must be finite and exceed -1")
        if singular is not None and not singular < 1.0:
            raise DomainError(f"|t-1|^(-{singular}) at |t| = 1: the ray integral diverges")
        k = -2 * math.floor(math.log2(margin) / 2.0 + 0.5)
        for kind, kk, sig in ([(_FROM_0, k, 0.0)] if singular is None else
                              [(_TANH, 0, singular), (_FROM_1, k, singular)]):
            g = groups.setdefault((F, plane, angle, kind, kk), len(groups))
            pieces.append((i, g, w, alpha, margin, sig, kk))
    member, group, w, alpha, margin, sigma, k = (np.array(c) for c in zip(*pieces))
    base = (1.0 + alpha) * np.log(w * np.ldexp(1.0, k))  # (1 + alpha) log(w c)
    grids = [_de_grid(kind, kk) for _, _, _, kind, kk in groups]
    with np.errstate(all="ignore"):  # the kept nodes of each piece, on the first level
        s, ls, lj, ld = np.array([grids[g][:4, ::_STEP] for g in group]).transpose(1, 0, 2)
        peak = base.real[:, None] + alpha.real[:, None] * ls + lj + _DE_LOG_COSH[::_STEP] \
            - margin[:, None] * s - sigma[:, None] * ld
        keep = peak >= np.max(peak, axis=1, keepdims=True) + _CUT
    lo, hi = keep.argmax(axis=1), keep.shape[1] - 1 - keep[:, ::-1].argmax(axis=1)
    at_end = (lo == 0) | (hi == keep.shape[1] - 1)
    if at_end.any():
        raise QuadratureError(f"member {member[at_end.argmax()]}: not negligible at |u| = 7")
    lo, hi, n = lo * _STEP, hi * _STEP, len(members)
    tol = np.array([m[4] for m in members])
    value, total, absolute = np.zeros(n, dtype=complex), 0j, 0.0
    active, pending, extra = np.ones(n, dtype=bool), list(parts), []
    for level in range(_LEVELS):
        off, step = (0, _STEP) if level == 0 else (_STEP >> level, 2 * _STEP >> level)
        nodes, calls = [], []
        for (F, plane, angle, _, _), g in groups.items():  # F on the hull of its pieces' nodes
            mine = np.flatnonzero((group == g) & active[member])
            j = np.arange(lo[mine].min() + off, hi[mine].max() - off + 1, step) if len(mine) else []
            if len(j):
                nodes.append((g, mine, j))
                s = grids[g][0, j]
                calls.append(F(s * cmath.exp(1j * angle)) if plane else F(s, angle))
        got = iter(_hyp2f1_parts([v for v in calls if isinstance(v, _Part)] + pending))
        calls = [next(got) if isinstance(v, _Part) else v for v in calls]  # the level's one pass
        pending, extra = [], extra + list(got)
        sums = np.zeros((3, len(pieces)), dtype=complex)  # sum, the even nodes' one, sum |terms|
        for (g, mine, j), v in zip(nodes, calls):
            s, ls, lj, _, lc = grids[g][:, j]
            with np.errstate(all="ignore"):
                E = base[mine, None] + alpha[mine, None] * ls + lj + _DE_LOG_COSH[j] \
                    - w[mine, None] * s + sigma[mine, None] * lc
                inside = (j >= lo[mine, None] + off) & (j <= hi[mine, None] - off)
                terms = np.where(inside, np.exp(E) * v, 0.0)
            # zeros pad a piece to the hull; in-order sums leave it its own sum
            sums[:, mine] = [terms.cumsum(axis=1)[:, -1], np.abs(terms).cumsum(axis=1)[:, -1],
                             np.where(j % (2 * _STEP) == 0, terms, 0.0).cumsum(axis=1)[:, -1]]
        new, size, even = (np.bincount(member, x.real, n) + 1j * np.bincount(member, x.imag, n)
                           for x in sums)
        h, absolute = _H / 2 ** level, absolute + size.real
        total, last = (new, even) if level == 0 else (total + new, total)
        err = np.abs(h * total - 2.0 * h * last)  # |S_h - S_2h|
        value = np.where(active, h * total, value)
        if not np.isfinite(value).all():
            raise QuadratureError(f"member {(~np.isfinite(value)).argmax()}: the integrand "
                                  "is not finite in double precision")
        active &= ~(err <= np.maximum(tol, _ROUNDOFF * h * absolute))
        if not active.any():
            return value.tolist(), extra
    i = active.argmax()
    raise QuadratureError(f"member {i}: the exp-sinh rule misses tol {tol[i]:.3e} at "
                          f"h = {_H / 2 ** (_LEVELS - 1)} (estimate {err[i]:.3e})")


def _plane_member(F, alpha, zeta: complex, type_bound: float, tol: float) -> tuple:
    """laplace_alpha's _laplace_members member (laplace_quadrature's: alpha None)."""
    require_tol(tol)
    if alpha is not None:
        alpha = complex(getattr(alpha, "alpha", alpha))
    return F, alpha, zeta, type_bound, tol, None, None


def laplace_quadrature(F: Callable[[np.ndarray], np.ndarray], zeta,
                       type_bound: float = 0.0, tol: float = 1e-12):
    """zeta * int_0^oo e^{-zeta t} F(t) dt for Re zeta > type_bound, within
    tol.  An array of zeta is integrated as one family and gives an ndarray
    of its shape, each element equal to the scalar call's complex."""
    zetas, shape = as_family(zeta)
    return family_result(_laplace_members([_plane_member(F, None, z, type_bound, tol)
                                           for z in zetas]), shape)


def laplace_alpha(F: Callable[[np.ndarray], np.ndarray], alpha, zeta,
                  type_bound: float = 0.0, tol: float = 1e-12):
    """zeta^{1+alpha} int_0^oo e^{-zeta t} t^alpha F(t) dt (principal power),
    Re alpha > -1, within tol; an array of zeta as in laplace_quadrature."""
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
    T = A + max(4.0, -math.log(0.01 * tol) / (r - type_bound))  # e^{-(r - R) T} < tol / 100
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
