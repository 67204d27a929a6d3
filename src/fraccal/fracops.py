"""Fractional derivative and integral operators on the tube spaces.

At series level the operators scale Taylor coefficients by
Gamma(alpha+k+1)/k! (derivative) and its reciprocal (integral); both are
computed by the stable product recurrence r_k = r_{k-1} (alpha+k)/k seeded
with Gamma(alpha+1), which continues analytically to every alpha off the
negative integers.  The contour representations sum kernel integrals over
gamma(A) with Gauss hypergeometric kernels, each one a scalar coefficient row
dotted with power sums of the quadrature nodes that are built once per
evaluation on the pieces of contours.gamma_contour(A, T), which refuse T <= A
(as the operators refuse Re t >= T); the simplified single-integral forms
apply when F is integrable against |dxi|/|xi| on the boundary.  Boundary
functions F are numpy expressions, evaluated on the whole ndarray of
boundary points at once (the decay probes included).
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .contours import (QuadratureSpec, ReversedSegment, _require_in_tube,
                       check_h1_decay, gamma_contour, infinite_tube_boundary,
                       integrate_path)
from .errors import ConvergenceError, DomainError
from .gammafn import gamma
from .hyp import PFQParams, hyp2f1, hyp2f1_continue, Hyp2F1Params
from .series import PowerSeries, eval_series
from .utils import dist_to_positive_ray, is_nonpositive_int


@dataclass(frozen=True)
class FractionalOrder:
    """Order alpha of a fractional operator; base operators need Re > -1."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        object.__setattr__(self, "alpha", a)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise DomainError("alpha must be finite")

    def require_base(self) -> complex:
        if self.alpha.real <= -1.0:
            raise DomainError(f"Re(alpha) = {self.alpha.real} <= -1 needs the "
                              "continued coefficient transform, not a base operator")
        return self.alpha


def _alpha_of(value) -> complex:
    if isinstance(value, FractionalOrder):
        return value.alpha
    return FractionalOrder(complex(value)).alpha


def _gamma_ratio_row(alpha: complex, n: int) -> list:
    """[Gamma(alpha+k+1)/k! for k < n], product recurrence."""
    r = gamma(alpha + 1.0)  # raises GammaPoleError at negative integer alpha
    out = [r]
    for k in range(1, n):
        r = r * (alpha + k) / k
        out.append(r)
    return out


def _gamma_ratio_row_extended(alpha: complex, n: int) -> list:
    """Quad-equivalent (34-digit) version of the ratio row for ill-conditioned
    recurrences; returns doubles rounded from mpmath intermediates."""
    import mpmath as mp

    with mp.workdps(34):
        a = mp.mpc(alpha)
        r = mp.gamma(a + 1)
        out = [complex(r)]
        for k in range(1, n):
            r = r * (a + k) / k
            out.append(complex(r))
    return out


def frac_deriv_series(F: PowerSeries, alpha, precision: str = "double") -> PowerSeries:
    """Coefficient map f_k -> f_k * Gamma(alpha+k+1)/k!; growth hints kept.

    Valid for Re(alpha) > -1 and, by analytic continuation of the ratio, for
    every alpha that is not a negative integer.
    """
    a = _alpha_of(alpha)
    row = (_gamma_ratio_row_extended if precision == "extended"
           else _gamma_ratio_row)(a, F.truncation)
    return F.map_coeffs(lambda k, c: c * row[k])


def frac_integ_series(F: PowerSeries, alpha, precision: str = "double") -> PowerSeries:
    """Inverse coefficient map f_k -> f_k * k! / Gamma(alpha+k+1).

    Entire in alpha: at alpha = -m the leading coefficients multiply the
    zeros of 1/Gamma, so the transform stays finite where the derivative
    transform has poles.
    """
    a = _alpha_of(alpha)
    m = is_nonpositive_int(a + 1.0)
    if m is not None:
        # k!/Gamma(alpha+k+1) = 0 for k < -alpha-... below the pole line,
        # k!/(k+alpha)! above it
        shift = 1 - m  # alpha = m - 1, coefficients vanish for k < shift
        out = []
        for k, c in enumerate(F.coeffs):
            if k < shift:
                out.append(0.0 + 0.0j)
            else:
                out.append(c * math.factorial(k) / math.factorial(k - shift))
        return PowerSeries(tuple(out), F.radius_hint, F.type_hint)
    row = (_gamma_ratio_row_extended if precision == "extended"
           else _gamma_ratio_row)(a, F.truncation)
    return F.map_coeffs(lambda k, c: c / row[k])


def frac_deriv_series_normalized(F: PowerSeries, alpha) -> PowerSeries:
    """Coefficients f_k (alpha+1)_k / k!, i.e. the derivative transform divided
    by Gamma(alpha+1); entire in alpha, used for the pole-limit checks."""
    a = _alpha_of(alpha)
    out = []
    r = 1.0 + 0.0j
    for k, c in enumerate(F.coeffs):
        if k > 0:
            r = r * (a + k) / k
        out.append(c * r)
    return PowerSeries(tuple(out), F.radius_hint, F.type_hint)


def frac_of_pfq(params: PFQParams, alpha, mode: str):
    """Parameter-level action on the alternating hypergeometric family.

    deriv: scale Gamma(alpha+1), upper += (alpha+1,), lower += (1,)
    integ: scale 1/Gamma(alpha+1), upper += (1,), lower += (alpha+1,)
    """
    if not isinstance(params, PFQParams):
        params = PFQParams(*params)
    a = FractionalOrder(_alpha_of(alpha))
    a.require_base()
    al = a.alpha
    if mode == "deriv":
        return gamma(al + 1.0), PFQParams(params.num + (al + 1.0,), params.den + (1.0,))
    if mode == "integ":
        # PFQParams validation rejects a non-positive-integer lower parameter
        return 1.0 / gamma(al + 1.0), PFQParams(params.num + (1.0,), params.den + (al + 1.0,))
    raise DomainError(f"mode must be 'deriv' or 'integ', got {mode!r}")


# ---------------------------------------------------------------------------
# Contour representations
# ---------------------------------------------------------------------------

def _insert_dyadic(edges: list, x0: float, scale: float, span: float,
                   lo: float, hi: float) -> list:
    """Add edges x0 +- scale * 2^j up to span around x0, clipped to [lo, hi];
    edges within 4 ulps of the larger end merge, a given edge winning."""
    new, s = [x0], scale
    while s <= span:
        new += (x0 - s, x0 + s)
        s *= 2.0
    out = sorted(set(edges).union(x for x in new if lo < x < hi))
    tol = 4.0 * math.ulp(max(abs(lo), abs(hi)))
    for i in reversed([i for i in range(1, len(out)) if out[i] - out[i - 1] <= tol]):
        del out[i - (out[i] in edges)]
    return out


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    # the rule on [0, 1]; numpy.polynomial loads on first use, not at import
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def contour_quadrature_nodes(A: float, T: float, n_per_panel: int = 24,
                             refine_near: Optional[complex] = None):
    """Fixed Gauss-Legendre nodes xi and oriented weights dw on the pieces of
    gamma_contour(A, T), positively oriented.

    The node set is shared across the kernel integrals of a contour-series
    evaluation, so each kernel sum reduces to scalar coefficients dotted with
    node moments built once per evaluation.  refine_near adds dyadically
    shrinking panels towards the contour point closest to the given t: the
    kernels blow up like a power of 1/(1 - t/xi) there.
    """
    # ray panel edges in x = Re t: fine near the cap, geometric growth outward
    edges = [0.0, 0.5 * A, A]
    while edges[-1] < T:
        edges.append(min(2.0 * edges[-1], T))
    cap_edges = [0.5, 0.75, 1.0, 1.25, 1.5]  # angle in units of pi

    if refine_near is not None:
        t = complex(refine_near)
        d = max(abs(dist_to_positive_ray(t) - A), 1e-6 * A) if t.real > 0 \
            else max(abs(abs(t) - A), 1e-6 * A)
        if t.real > 0:
            edges = _insert_dyadic(edges, t.real, max(d / 2.0, 1e-4 * A),
                                   4.0 * A, 0.0, T)
        if t.real < 0.5 * A or abs(t) < 2.0 * A:
            th = abs(cmath.phase(t)) / math.pi  # cap refinement is symmetric
            for target in (th, 2.0 - th):
                cap_edges = _insert_dyadic(cap_edges, target,
                                           max(d / (2.0 * A * math.pi), 1e-4),
                                           0.5, 0.5, 1.5)

    # Gauss-Legendre panels in each piece's own parameter: x / T on a ray,
    # 2 theta - 1 and 2 theta - 2 on the cap halves; panel starts and widths
    # come from the edges in x and theta, so narrow panels keep their digits
    k = cap_edges.index(1.0)
    lo = ([x / T for x in edges[:-1]] + [2.0 * c - 1.0 for c in cap_edges[:k]]
          + [2.0 * c - 2.0 for c in cap_edges[k:-1]])
    h = np.array([(b - a) / T for a, b in zip(edges, edges[1:])]
                 + [2.0 * (b - a) for a, b in zip(cap_edges, cap_edges[1:])])
    u, w = _gauss_legendre(n_per_panel)
    s, ds = (np.array(lo)[:, None] + h[:, None] * u).ravel(), (h[:, None] * w).ravel()
    i, j = (len(edges) - 1) * n_per_panel, (len(edges) - 1 + k) * n_per_panel
    ray, cap = (s[:i], ds[:i]), ((s[i:j], ds[i:j]), (s[j:], ds[j:]))

    def mapped(seg, s, ds):  # a reversed segment walks its inner one back
        if isinstance(seg, ReversedSegment):
            return mapped(seg.seg, s[::-1], -ds[::-1])
        xi = seg.point(s)
        return xi, seg.tangent(s, xi) * ds

    parts = [mapped(seg, *p) for seg, p in zip(gamma_contour(A, T).segments(),
                                               (ray, *cap, ray))]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


class _PowerSums:
    """Node moments s_n = sum_j b_j v_j^n, extended on demand.

    A running power vector builds them one n at a time, so no n-by-node
    table is ever held.
    """

    def __init__(self, v: np.ndarray, b: np.ndarray):
        self.v = v
        self.rho = float(np.abs(v).max(initial=0.0))
        self._p = np.array(b, dtype=complex)
        self._s = []
        self.span = 64  # coefficient-row length a series sum tries first

    def upto(self, n: int) -> list:
        """s_0 .. s_{n-1}."""
        while len(self._s) < n:
            self._s.append(self._p.sum())
            self._p *= self.v
        return self._s[:n]


def _series_b1_sum(m: _PowerSums, A: complex, C: complex,
                   tol: float = 1e-16, budget: int = 20000) -> complex:
    """sum_j b_j 2F1(A, 1; C; v_j) as sum_n (A)_n/(C)_n s_n.

    Stops at the first n > 4 with |(A)_n/(C)_n| rho^n <= tol, rho = max|v_j|;
    the caller guarantees convergence and a transient-free term ratio.
    """
    n = m.span
    while True:
        j = np.arange(n - 1)
        d = np.concatenate(([1.0 + 0.0j], np.cumprod((A + j) / (C + j))))
        small = np.flatnonzero(np.abs(d[5:]) * m.rho ** np.arange(5, n) <= tol)
        if small.size:
            stop = 6 + small[0]
            m.span = stop + 16  # the stop moves little from one k to the next
            return complex(np.dot(d[:stop], m.upto(stop)))
        if n > budget:
            raise ConvergenceError("kernel series stalled")
        n = min(2 * n, budget + 1)


def _deriv_kernel(a: complex, w: np.ndarray, b: np.ndarray) -> Callable[[int], complex]:
    """k -> sum_j b_j 2F1(alpha+k+1, 1; k+1; w_j) off the cut [1, oo), stable
    in k; the node moments are built once and shared by every k.

    Integer alpha >= 0 has the terminating rational form
    (1-w)^{-alpha-1} 2F1(-alpha, k; k+1; w).  Otherwise the direct series is
    transient-free for |w| <= 0.9 and the 1/w expansion (whose second series
    terminates because c - b = k is a positive integer) covers the rest; in
    q = -1/w its first term is a power q^k of the node and its second a
    polynomial in 1/w, so both become moment sums too.
    """
    if abs(a.imag) < 1e-12 and abs(a.real - round(a.real)) < 1e-12 and a.real >= 0:
        m = round(a.real)
        scaled = (1.0 - w) ** (-m - 1.0) * b

        def terminating(k: int) -> complex:
            poly = np.ones_like(w)
            coeff = np.ones_like(w)
            for j in range(m):
                coeff = coeff * ((j - m) * (k + j)) / ((k + 1.0 + j) * (j + 1.0)) * w
                poly += coeff
            return complex(np.sum(poly * scaled))
        return terminating

    near = np.abs(w) <= 0.9
    direct = _PowerSums(w[near], b[near])
    wf, bf = w[~near], b[~near]
    q = -1.0 / wf
    # term1: r1 (-w)^{-(a+k+1)} (1-1/w)^{-a-1} = r1 q^k (-w)^{-(a+1)} (1-1/w)^{-a-1}
    far1 = _PowerSums(q, bf * (-wf) ** (-(a + 1.0)) * (1.0 - 1.0 / wf) ** (-a - 1.0))
    # term2 = k/(a+k) (-w)^{-1} 2F1(1, 1-k; 1-a-k; 1/w), a polynomial of degree k-1
    far2 = _PowerSums(1.0 / wf, bf * q)

    def kernel_sum(k: int) -> complex:
        # Gamma(k+1) Gamma(1-a')/Gamma(k+1-a') with a' = a+k+1 reduces to
        # (-1)^k k! / (a+1)_k; built as a product to stay Gamma-free
        r1 = (-1.0) ** k * math.prod(j / (a + j) for j in range(1, k + 1))
        total = _series_b1_sum(direct, a + k + 1.0, k + 1.0) + r1 * far1.upto(k + 1)[k]
        if k > 0:
            j = np.arange(k - 1)
            c = np.concatenate(([1.0 + 0.0j], np.cumprod(
                ((1.0 + j) * (1.0 - k + j)) / ((1.0 - a - k + j) * (j + 1.0)))))
            total += (k / (a + k)) * complex(np.dot(c, far2.upto(k)))
        return total
    return kernel_sum


def _integ_kernel(a: complex, w: np.ndarray, b: np.ndarray) -> Callable[[int], complex]:
    """k -> sum_j b_j 2F1(k+1, 1; alpha+k+1; w_j) off the cut, stable in k.

    Direct series and the Pfaff map v = w/(w-1) are both transient-free and
    summed through node moments; the residual crescent near w = e^{+-i pi/3}
    falls back to ODE-stepping continuation seeded inside the unit disk.
    """
    near = np.abs(w) <= 0.9
    direct = _PowerSums(w[near], b[near])
    wr, br = w[~near], b[~near]
    v = wr / (wr - 1.0)
    pf = np.abs(v) <= 0.9
    pfaff = _PowerSums(v[pf], br[pf] / (1.0 - wr[pf]))
    hard_w, hard_b = wr[~pf], br[~pf]

    def kernel_sum(k: int) -> complex:
        total = _series_b1_sum(direct, k + 1.0, a + k + 1.0)
        total += _series_b1_sum(pfaff, a, a + k + 1.0)
        if hard_w.size:
            prm = Hyp2F1Params(k + 1.0, 1.0, a + k + 1.0)
            # continuation seeded inside the unit disk on the ray of each node
            vals = [hyp2f1_continue(prm, [0.45 * wi / abs(wi), complex(wi)])[0]
                    for wi in hard_w]
            total += complex(np.dot(vals, hard_b))
        return total
    return kernel_sum


def _contour_series(F: Callable[[np.ndarray], np.ndarray], alpha, r: float, A: float,
                    t: complex, mode: str, tol: float, k_max: int,
                    n_per_panel: int, T: Optional[float]) -> complex:
    al = FractionalOrder(_alpha_of(alpha))
    al.require_base()
    a = al.alpha
    if r <= 0:
        raise DomainError("r must be positive")
    T = T if T is not None else A + 40.0 / r
    t = _require_in_tube(t, A, T)
    xi, dw = contour_quadrature_nodes(A, T, n_per_panel, refine_near=t)  # refuses T <= A
    # the weighted integrand must decay along the rays, else r <= type(F)
    probe = np.array([complex(T / 2.0, A), complex(T, A)])
    f_mid, f_end = np.broadcast_to(F(probe), probe.shape).tolist()
    g_mid = abs(f_mid) * math.exp(-r * T / 2.0)
    g_end = abs(f_end) * math.exp(-r * T)
    if g_end > g_mid + 1e-280:
        raise ConvergenceError(
            "weighted integrand grows along the contour rays; the declared "
            "rate r does not exceed the exponential type of F")
    base = F(xi) * np.exp(-r * xi) / xi * dw / (2j * math.pi)
    w_arg = t / xi

    if mode == "deriv":
        weight = gamma(a + 1.0)
    else:
        weight = 1.0 / gamma(a + 1.0)
    kernel_sum = (_deriv_kernel if mode == "deriv" else _integ_kernel)(a, w_arg, base)
    total = 0.0 + 0.0j
    small_run = 0
    for k in range(k_max + 1):
        term = weight * kernel_sum(k)
        total += term
        if abs(term) <= tol * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                return total
        else:
            small_run = 0
        if mode == "deriv":
            # Gamma(alpha+k+1) (rt)^k / (k!)^2
            weight *= (a + k + 1.0) * (r * t) / (k + 1.0) ** 2
        else:
            # (rt)^k / Gamma(alpha+k+1); the companion expansion carries no
            # extra k! (the k = 0 normalization identity fixes the weight)
            weight *= (r * t) / (a + k + 1.0)
    raise ConvergenceError(
        "contour series terms are not decaying; the declared rate r likely "
        "does not exceed the exponential type of F")


def frac_deriv_contour(F: Callable[[np.ndarray], np.ndarray], alpha, r: float,
                       A: float, t: complex, tol: float = 1e-10,
                       k_max: int = 80, n_per_panel: int = 24,
                       T: Optional[float] = None) -> complex:
    """D_alpha{F}(t) as sum_k Gamma(alpha+k+1)/(k!)^2 (r t)^k f_k(alpha,r,t)
    with boundary-kernel coefficients f_k; valid for t in the tube of width
    A < a(F) and any r above the exponential type of F."""
    return _contour_series(F, alpha, r, A, t, "deriv", tol, k_max, n_per_panel, T)


def frac_integ_contour(F: Callable[[np.ndarray], np.ndarray], alpha, r: float,
                       A: float, t: complex, tol: float = 1e-10,
                       k_max: int = 80, n_per_panel: int = 24,
                       T: Optional[float] = None) -> complex:
    """I_alpha{F}(t); same structure with the reciprocal weights and the
    transposed kernel parameters."""
    return _contour_series(F, alpha, r, A, t, "integ", tol, k_max, n_per_panel, T)


def frac_h1(F: Callable[[np.ndarray], np.ndarray], alpha, a: float, t: complex,
            mode: str, tol: float = 1e-11) -> complex:
    """Single-integral forms for F integrable against |dxi|/|xi| on gamma(a):

    deriv: Gamma(alpha+1)/(2 pi i) * \\oint (1 - t/xi)^{-alpha-1} F(xi)/xi dxi
    integ: 1/(Gamma(alpha+1) 2 pi i) * \\oint 2F1(1,1;alpha+1;t/xi) F(xi)/xi dxi
    """
    al = FractionalOrder(_alpha_of(alpha))
    al.require_base()
    av = al.alpha
    t = _require_in_tube(t, a)
    check_h1_decay(F, gamma_contour(a, max(40.0, 4.0 * abs(t))))
    segs = infinite_tube_boundary(a, scale=max(10.0, 2.0 * abs(t)))
    if mode == "deriv":
        g = gamma(av + 1.0)

        def integrand(xi):
            return g * (1.0 - t / xi) ** (-av - 1.0) * F(xi) / xi
    elif mode == "integ":
        g = 1.0 / gamma(av + 1.0)
        prm = Hyp2F1Params(1.0, 1.0, av + 1.0)

        def integrand(xi):
            return g * hyp2f1(prm, t / xi) * F(xi) / xi
    else:
        raise DomainError(f"mode must be 'deriv' or 'integ', got {mode!r}")
    val, _ = integrate_path(integrand, segs, QuadratureSpec(tol=tol))
    return val / (2j * math.pi)


# ---------------------------------------------------------------------------
# Pole-limit polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiPolynomial:
    """Degree-n polynomial with coefficients (-1)^j C(n,j) f_j: the limit of
    the normalized derivative transform at alpha -> -n-1."""

    degree: int
    coeffs: tuple

    def __call__(self, t: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def psi_polynomial(F: PowerSeries, n: int) -> PsiPolynomial:
    if n < 0:
        raise DomainError("n must be non-negative")
    if F.truncation <= n:
        raise DomainError("series truncation must exceed n")
    coeffs = tuple((-1.0) ** j * math.comb(n, j) * F.coeffs[j] for j in range(n + 1))
    return PsiPolynomial(n, coeffs)


def psi_limit_check(F: PowerSeries, n: int, t: complex, eps: float) -> float:
    """Residual |F(t, -n-1+eps)/Gamma(-n+eps) - Psi_{n,F}(t)|; O(eps) when the
    pole-limit identity holds."""
    if not 0 < eps <= 1e-3:
        raise DomainError("eps must be in (0, 1e-3]")
    if eps < 1e-9:
        warnings.warn("eps below 1e-9 risks cancellation in the Gamma ratio",
                      RuntimeWarning, stacklevel=2)
    alpha = -(n + 1.0) + eps
    G = frac_deriv_series(F, alpha)
    val = eval_series(G, t).value / gamma(alpha + 1.0)
    return abs(val - psi_polynomial(F, n)(t))


def psi_coefficients_contour(F: Callable[[np.ndarray], np.ndarray], n: int, r: float,
                             A: float, T: Optional[float] = None,
                             tol: float = 1e-11) -> list:
    """Taylor coefficients f_0..f_n recovered from boundary data:
    f_j = (1/2 pi i) sum_{s<=j} r^{j-s}/(j-s)! \\oint F(xi) e^{-r xi} xi^{-1-s} dxi."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if r <= 0:
        raise DomainError("r must be positive")
    contour = gamma_contour(A, T if T is not None else A + 40.0 / r)
    spec = QuadratureSpec(tol=tol)
    loop_vals = []
    for s in range(n + 1):
        val, _ = integrate_path(lambda xi, s=s: F(xi) * np.exp(-r * xi) / xi ** (1 + s),
                                contour, spec, decay_rate=r)
        loop_vals.append(val / (2j * math.pi))
    out = []
    for j in range(n + 1):
        acc = sum(r ** (j - s) / math.factorial(j - s) * loop_vals[s] for s in range(j + 1))
        out.append(acc)
    return out
