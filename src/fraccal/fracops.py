"""Fractional derivative and integral operators on the tube spaces.

At series level the operators scale Taylor coefficients by
Gamma(alpha+k+1)/k! (derivative) and its reciprocal (integral), all through
one product recurrence r_k = r_{k-1} (alpha+k)/k in double or 34-digit
precision: seeded with Gamma(alpha+1) off the negative integers, with 1 for
the Gamma-free normalized transform, and at alpha = -s, where the integral
is 0 for k < s, with s! at k = s (k!/(k-s)!, exact below 2^53).  The contour
representations sum kernel integrals over gamma(A) with Gauss hypergeometric
kernels, as coefficient rows times power sums of the quadrature nodes on the
pieces of gamma_contour(A, T), which refuse T <= A (as the operators refuse
Re t >= T).  The power sums come from one power table per evaluation, 32 at
a time as one product of a 32-by-node table with a running power vector;
the rows of 24 consecutive k are one matrix, summed as one product, and
each row stops where its terms fall below tol/1000.  The simplified
single-integral forms apply when F is integrable against |dxi|/|xi| on the
boundary.  Boundary functions F are numpy expressions, evaluated on the whole
ndarray of boundary points at once (the decay probes included); the contour
operators and psi_coefficients_contour share one ray probe and tail bound.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .contours import (QuadratureSpec, ReversedSegment, _require_in_tube,
                       _SegmentStack, _single_integral, gamma_contour,
                       integrate_paths)
from .errors import ConvergenceError, DomainError, GammaPoleError
from .gammafn import gamma
from .hyp import PFQParams, hyp2f1, Hyp2F1Params, _continue, _Schedule
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


def _ratio_row(alpha, n: int, r0) -> list:
    """[r_0 .. r_{n-1}] with r_k = r_{k-1} (alpha+k)/k, i.e. r0 times
    Gamma(alpha+k+1)/(Gamma(alpha+1) k!): the one coefficient law of the
    series maps, on doubles or on mpmath numbers alike."""
    out = [r0]
    for k in range(1, n):
        r0 = r0 * (alpha + k) / k
        out.append(r0)
    return out


def _gamma_ratio_row(alpha: complex, n: int, precision: str = "double") -> list:
    """[Gamma(alpha+k+1)/k! for k < n]; "extended" runs the recurrence on
    34-digit mpmath numbers and rounds each entry to a double."""
    pole = is_nonpositive_int(alpha + 1.0)  # refused in either precision
    if pole is not None:
        raise GammaPoleError(pole)
    if precision != "extended":
        return _ratio_row(alpha, n, gamma(alpha + 1.0))
    import mpmath as mp
    with mp.workdps(34):
        a = mp.mpc(alpha)
        return [complex(r) for r in _ratio_row(a, n, mp.gamma(a + 1))]


def frac_deriv_series(F: PowerSeries, alpha, precision: str = "double") -> PowerSeries:
    """Coefficient map f_k -> f_k * Gamma(alpha+k+1)/k!; growth hints kept.

    Valid for Re(alpha) > -1 and, by analytic continuation of the ratio, for
    every alpha that is not a negative integer.
    """
    row = _gamma_ratio_row(_alpha_of(alpha), F.truncation, precision)
    return F.map_coeffs(lambda k, c: c * row[k])


def frac_integ_series(F: PowerSeries, alpha, precision: str = "double") -> PowerSeries:
    """Inverse coefficient map f_k -> f_k * k! / Gamma(alpha+k+1).

    Entire in alpha: at alpha = -s the leading coefficients multiply the
    zeros of 1/Gamma, so the transform stays finite where the derivative
    transform has poles.
    """
    a = _alpha_of(alpha)
    m = is_nonpositive_int(a + 1.0)
    if m is None:
        row = _gamma_ratio_row(a, F.truncation, precision)
        return F.map_coeffs(lambda k, c: c / row[k])
    s = 1 - m  # alpha = -s: 0 for k < s, then k!/(k-s)!, the row of order s from s!
    if s > 170 and F.truncation > s:
        raise DomainError(f"k!/(k-{s})! overflows double precision")
    row = _ratio_row(s, F.truncation - s, math.factorial(s))  # exact below 2^53
    return F.map_coeffs(lambda k, c: c * row[k - s] if k >= s else 0j)


def frac_deriv_series_normalized(F: PowerSeries, alpha) -> PowerSeries:
    """Coefficients f_k (alpha+1)_k / k!, i.e. the derivative transform divided
    by Gamma(alpha+1); entire in alpha, used for the pole-limit checks."""
    row = _ratio_row(_alpha_of(alpha), F.truncation, 1.0 + 0.0j)
    return F.map_coeffs(lambda k, c: c * row[k])


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

    stack, back = _tube_stack(A, T)
    parts = [(s[::-1], -ds[::-1]) if b else (s, ds)
             for b, (s, ds) in zip(back, (ray, *cap, ray))]
    seg_of = np.repeat(np.arange(len(parts)), [len(s) for s, _ in parts])
    xi, dz = stack.map(seg_of, np.concatenate([s for s, _ in parts]))
    return xi, dz * np.concatenate([ds for _, ds in parts])


@functools.lru_cache(maxsize=8)
def _tube_stack(A: float, T: float) -> tuple:
    """The pieces of gamma_contour(A, T) as a _SegmentStack, which maps the
    nodes of all of them in one numpy expression per kind, and per piece
    whether it is reversed: a reversed piece is stacked as its inner segment,
    which its nodes walk back, their weights negated."""
    pieces = gamma_contour(A, T).segments()
    back = tuple(isinstance(seg, ReversedSegment) for seg in pieces)
    return _SegmentStack([seg.seg if b else seg for seg, b in zip(pieces, back)]), back


_BLOCK = 32  # moments per matrix-vector product in _PowerSums
_K_BLOCK = 24  # series indices k whose kernel sums are built together
_ROW_BUDGET = 20000  # terms of a kernel series row at most
# the derivative kernel's direct series takes |w| <= 0.8 in blocks of k below
# _SHELL_K and |w| <= 0.9 after; see _deriv_kernel
_DIRECT_RADII = (0.8, 0.9)
_SHELL_K = 24


def _powers(v: np.ndarray) -> np.ndarray:
    """The (_BLOCK+1)-by-node table P[i, j] = v_j^i, by repeated products."""
    pw = np.empty((_BLOCK + 1, v.size), dtype=complex)
    pw[0] = 1.0
    for i in range(1, _BLOCK + 1):
        np.multiply(pw[i - 1], v, out=pw[i])
    return pw


class _PowerSums:
    """Node moments s_n = sum_j b_j v_j^n, extended on demand a block at a time.

    pw is _powers(v), or the columns of v in a table shared by several node
    sets (one table per kernel evaluation): its first _BLOCK rows are the
    table P and its last the step v_j^_BLOCK.  Each block of moments is one
    product P @ p with the running vector p_j = b_j v_j^n0, so no longer
    table is ever held; a column slice gives the moments of a table built
    alone, bit for bit.
    """

    def __init__(self, pw: np.ndarray, b: np.ndarray):
        self.rho = float(np.abs(pw[1]).max(initial=0.0))
        self._table, self._step = pw[:_BLOCK], pw[_BLOCK]
        self._p = np.array(b, dtype=complex)
        self._s = np.empty(0, dtype=complex)

    def upto(self, n: int) -> np.ndarray:
        """s_0 .. s_{n-1}, as a view of the stored moments."""
        if n > self._s.size:
            blocks = [self._s]
            for _ in range(-(-(n - self._s.size) // _BLOCK)):
                blocks.append(self._table @ self._p)
                self._p *= self._step
            self._s = np.concatenate(blocks)
        return self._s[:n]


def _series_rows(m: _PowerSums, A: np.ndarray, C: np.ndarray,
                 tol: float = 1e-16) -> np.ndarray:
    """[sum_j b_j 2F1(A_i, 1; C_i; v_j) for each i] as sum_n d_in s_n, with
    d_in = (A_i)_n/(C_i)_n one matrix built by one cumprod along n and all
    rows summed as one product with the moments s_n.

    Row i stops at the first n > 4 with |d_in| rho^n <= tol, rho = max|v_j|,
    and is zero past its stop; the caller guarantees convergence and a
    transient-free term ratio.
    """
    n = 64  # the terms fall like n^e rho^n, e = max Re(A_i - C_i): reach tol
    if 0.0 < m.rho < 1.0:
        n0 = math.log(tol) / math.log(m.rho)  # where rho^n alone reaches tol
        e = max(0.0, float((A - C).real.max()))
        n = max(n, int(n0 + e * math.log(n0) / -math.log(m.rho)) + 16)
    while True:
        j = np.arange(n - 1.0)
        d = np.ones((A.size, n), dtype=complex)
        if C.dtype.kind == "f":  # numpy's complex division by a real, to the bit
            inv = 1.0 / (C[:, None] + j)
            d.real[:, 1:] = (A.real[:, None] + j) * inv
            d.imag[:, 1:] = A.imag[:, None] * inv
        else:
            np.divide(A[:, None] + j, C[:, None] + j, out=d[:, 1:])
        np.cumprod(d, axis=1, out=d)
        small = np.abs(d[:, 5:]) * m.rho ** np.arange(5, n) <= tol
        if small.any(axis=1).all():
            break
        if n > _ROW_BUDGET:
            raise ConvergenceError("kernel series stalled")
        n = min(2 * n, _ROW_BUDGET + 1)
    stop = 6 + small.argmax(axis=1)
    n = int(stop.max())
    d = d[:, :n]
    d[np.arange(n) >= stop[:, None]] = 0.0
    return d @ m.upto(n)


def _blockwise(block: Callable[[np.ndarray], list]) -> Callable[[int], complex]:
    """k -> block(ks)[k - ks[0]], ks the aligned run of _K_BLOCK indices that
    holds k, built on its first request: no value depends on request order."""
    blocks = functools.cache(lambda i: block(np.arange(i * _K_BLOCK, (i + 1) * _K_BLOCK)))
    return lambda k: blocks(k // _K_BLOCK)[k % _K_BLOCK]


def _deriv_kernel(a: complex, w: np.ndarray, b: np.ndarray,
                  tol: float = 1e-16) -> Callable[[int], complex]:
    """k -> sum_j b_j 2F1(alpha+k+1, 1; k+1; w_j) off the cut [1, oo), stable
    in k; coefficients are built _K_BLOCK k at a time, each block's sums as
    matrix products with node moments, the direct series summed to tol.

    Integer alpha >= 0 has the terminating rational form (1-w)^{-alpha-1}
    2F1(-alpha, k; k+1; w), a moment sum in 1-w.  Otherwise the direct series
    (transient-free for |w| <= 0.9) covers the near nodes and the 1/w
    expansion (whose second series terminates because c - b = k is a
    positive integer) the rest; in q = -1/w its first term is a power q^k of
    the node and its second a polynomial in 1/w = -q, so both become moment
    sums too.

    The split between them is chosen per block of k.  The direct rows run
    until |w|^n reaches tol, so a smaller radius shortens them (about 145
    terms at 0.8 against 310 at 0.9 for tol = 1e-13), while the 1/w form
    loses about |w|^{-k} to rounding.  A block whose k are all below
    _SHELL_K = 24 takes the direct series for |w| <= 0.8, later blocks for
    |w| <= 0.9.  No block's 1/w error then exceeds the one accepted at
    |w| = 0.9 and k = 47: against 30-digit mpmath, at every sampled alpha
    (Re alpha from -0.9 to 3) the error at |w| = 0.8 and k = 23 stays below
    it (2.5e-12 against 5.7e-12 relative at alpha = -0.5), whereas 0.8 at
    k = 35 would exceed it 9 to 18 times.  The nodes are ordered by band,
    so the direct sets of both splits are leading w columns and their q
    sets trailing q columns of one power table; the moments of 1/w are
    those of q with odd n negated.
    """
    if abs(a.imag) < 1e-12 and abs(a.real - round(a.real)) < 1e-12 and a.real >= 0:
        m = round(a.real)
        u = 1.0 - w
        moments = np.array([np.sum(u ** (n - m - 1) * b) for n in range(m + 1)])
        i = np.arange(m)
        # 2F1(-m, k; k+1; w) = m!/(k+1)_m sum_n (k)_n/n! (1-w)^n; in this basis
        # the coefficients are positive and nothing cancels near w = 1
        return _blockwise(lambda ks: (np.cumprod(np.hstack((
            np.prod((i + 1.0) / (ks[:, None] + 1.0 + i), axis=1)[:, None],
            (ks[:, None] + i) / (i + 1.0))), axis=1) @ moments).tolist())

    # bands |w| <= 0.8, 0.8 < |w| <= 0.9 and |w| > 0.9 in turn, each in its
    # node order: every split is then w[:n] direct and w[n:] by 1/w
    band = np.searchsorted(_DIRECT_RADII, np.abs(w))
    order = np.argsort(band, kind="stable")
    w, b = w[order], b[order]
    n8, n9 = np.searchsorted(band[order], (1, 2)).tolist()
    wf, bf = w[n8:], b[n8:]
    q = -1.0 / wf
    pw = _powers(np.concatenate((w[:n9], q)))  # one table: w of |w| <= 0.9, then q
    # term1: r1 (-w)^{-(a+k+1)} (1-1/w)^{-a-1} = r1 q^k (1-w)^{-(a+1)} off the cut
    # term2 = k/(a+k) (-w)^{-1} 2F1(1, 1-k; 1-a-k; 1/w), a polynomial of degree
    # k-1 in 1/w = -q: the moments of q with odd n negated
    u, e = 1.0 - wf, -(a + 1.0)
    # (1-w)^e = exp(e log(1-w)) on the principal branch, in real arithmetic
    lr, li = np.log(np.abs(u)), np.arctan2(u.imag, u.real)
    mag, ph = np.exp(e.real * lr - e.imag * li), e.real * li + e.imag * lr
    b1 = np.empty(len(u), dtype=complex)
    np.multiply(mag, np.cos(ph), out=b1.real)
    np.multiply(mag, np.sin(ph), out=b1.imag)
    b1, b2 = bf * b1, bf * q

    @functools.cache
    def split(n: int) -> tuple:
        """direct sums over w[:n], 1/w sums over the rest: three moment sets"""
        cols = slice(n9 + n - n8, None)
        return (_PowerSums(pw[:, :n], b[:n]), _PowerSums(pw[:, cols], b1[n - n8:]),
                _PowerSums(pw[:, cols], b2[n - n8:]))

    def block(ks: np.ndarray) -> list:
        k1 = int(ks[-1]) + 1
        # Gamma(k+1) Gamma(1-a')/Gamma(k+1-a') with a' = a+k+1 reduces to
        # (-1)^k k! / (a+1)_k; built as a product to stay Gamma-free
        r1 = np.cumprod([1.0] + [j / (a + j) for j in range(1, k1)]).tolist()
        # row k: term2's coefficients, zero past degree k-1 (lower triangular)
        # but for row 0, whose term2 is 0
        j = np.arange(k1 - 1)
        c = np.ones((ks.size, k1), dtype=complex)
        np.cumprod(((1.0 + j) * (1.0 - ks[:, None] + j))
                   / ((1.0 - a - ks[:, None] + j) * (j + 1.0)), axis=1, out=c[:, 1:])
        direct, far1, far2 = split(n8 if k1 <= _SHELL_K else n9)
        p1, p2 = far1.upto(k1).tolist(), far2.upto(k1).copy()
        p2[1::2] *= -1.0
        sums = _series_rows(direct, a + ks + 1.0, ks + 1.0, tol)
        poly = c @ p2
        return [s + (-1.0) ** k * r1[k] * p1[k] + (k / (a + k)) * pk  # 0 at k = 0
                for s, k, pk in zip(sums.tolist(), ks.tolist(), poly.tolist())]
    return _blockwise(block)


def _integ_kernel(a: complex, w: np.ndarray, b: np.ndarray,
                  tol: float = 1e-16) -> Callable[[int], complex]:
    """k -> sum_j b_j 2F1(k+1, 1; alpha+k+1; w_j) off the cut, stable in k.

    Direct series and the Pfaff map v = w/(w-1) are both transient-free and
    summed to tol through node moments of one shared power table, _K_BLOCK
    values of k at a time.  The nodes outside both disks are not a small
    crescent (at A = 0.5, t = 1.2-0.3i they are 372 of 912, with |w| up to
    2.5 and some within 0.16 of the cut): each is continued along its ray
    from 0.45 w/|w| by the batched Taylor-ODE engine, all of them as the
    lanes of one continuation per k, on radial step schedules built once for
    the kernel.
    """
    near = np.abs(w) <= 0.9
    wr, br = w[~near], b[~near]
    v = wr / (wr - 1.0)
    pf = np.abs(v) <= 0.9
    pw = _powers(np.concatenate((w[near], v[pf])))  # one table for both series
    nn = np.count_nonzero(near)
    direct = _PowerSums(pw[:, :nn], b[near])
    pfaff = _PowerSums(pw[:, nn:], br[pf] / (1.0 - wr[pf]))
    hard_w, hard_b = wr[~pf], br[~pf]
    if hard_w.size:
        lanes = _Schedule([[0.45 * wi / abs(wi), wi] for wi in hard_w.tolist()])
    series = _blockwise(lambda ks: (
        _series_rows(direct, ks + 1.0, a + ks + 1.0, tol)
        + _series_rows(pfaff, np.full(ks.size, a), a + ks + 1.0, tol)).tolist())

    def kernel_sum(k: int) -> complex:
        total = series(k)
        if hard_w.size:
            f, _ = _continue(k + 1.0, 1.0, a + k + 1.0, lanes)
            total += complex(np.dot(f, hard_b))
        return total
    return kernel_sum


def _ray_tails(F: Callable[[np.ndarray], np.ndarray], r: float, A: float, T: float,
               n: int = 1) -> list:
    """Bounds of the ray tails beyond T that gamma_contour(A, T) drops from
    (1/2 pi i) \\oint F(xi) e^{-r xi} xi^{-1-s} dxi, one for each s < n.

    Raises ConvergenceError when F e^{-r xi} grows along the rays, i.e. r
    does not exceed the exponential type of F.  To leading order a tail is
    |G(T-iA)/(T-iA)^{1+s} - G(T+iA)/(T+iA)^{1+s}| / (2 pi lam), G = F e^{-r xi}
    decaying at the rate lam = log(g_mid/g_end) / (T/2) seen between the probes.
    """
    probe = np.array([complex(T / 2.0, A), complex(T, A), complex(T, -A)])
    f_mid, f_end, f_low = np.broadcast_to(F(probe), probe.shape).tolist()
    g_mid = abs(f_mid) * math.exp(-r * T / 2.0)
    g_end = abs(f_end) * math.exp(-r * T)
    if g_end > g_mid + 1e-280:
        raise ConvergenceError(
            "weighted integrand grows along the contour rays; the declared "
            "rate r does not exceed the exponential type of F")
    scale = (T / 2.0 / math.log(g_mid / g_end) if 0.0 < g_end < g_mid
             else 0.0 if g_end == 0.0 else math.inf)
    low, end, tails = f_low * cmath.exp(-r * probe[2]), f_end * cmath.exp(-r * probe[1]), []
    for _ in range(n):
        low, end = low / probe[2], end / probe[1]
        tail = abs(low - end) / (2.0 * math.pi)
        tails.append(tail * scale if tail else 0.0)
    return tails


def _contour_series(F: Callable[[np.ndarray], np.ndarray], alpha, r: float, A: float,
                    t: complex, mode: str, tol: float, k_max: int,
                    n_per_panel: int, T: Optional[float]) -> complex:
    al = FractionalOrder(_alpha_of(alpha))
    al.require_base()
    a = al.alpha
    if r <= 0:
        raise DomainError("r must be positive")
    if not tol >= 1e-14:  # NaN included
        raise DomainError("tol must be >= 1e-14")
    T = T if T is not None else A + 40.0 / r
    t = _require_in_tube(t, A, T)
    xi, dw = contour_quadrature_nodes(A, T, n_per_panel, refine_near=t)  # refuses T <= A
    tail, = _ray_tails(F, r, A, T)  # per unit of the kernel: times the summed weights
    base = F(xi) * np.exp(-r * xi) / xi * dw / (2j * math.pi)
    w_arg = t / xi

    weight = gamma(a + 1.0) if mode == "deriv" else 1.0 / gamma(a + 1.0)
    # kernel series summed 1000 times below the operator's tolerance
    kernel_sum = (_deriv_kernel if mode == "deriv" else _integ_kernel)(
        a, w_arg, base, tol / 1000.0)
    total = 0.0 + 0.0j
    weights = 0.0 + 0.0j
    small_run = 0
    for k in range(k_max + 1):
        term = weight * kernel_sum(k)
        total += term
        weights += weight
        if abs(term) <= tol * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                if tail * abs(weights) > tol * abs(total):
                    raise ConvergenceError(f"the contour drops ray tails beyond T = {T:.4g} "
                                           f"of {tail * abs(weights):.3g}; raise T")
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
    return _single_integral(integrand, F, a, t, QuadratureSpec(tol=tol))


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
    G = frac_deriv_series_normalized(F, -(n + 1.0) + eps)
    return abs(eval_series(G, t).value - psi_polynomial(F, n)(t))


def psi_coefficients_contour(F: Callable[[np.ndarray], np.ndarray], n: int, r: float,
                             A: float, T: Optional[float] = None,
                             tol: float = 1e-11) -> list:
    """Taylor coefficients f_0..f_n recovered from boundary data:
    f_j = (1/2 pi i) sum_{s<=j} r^{j-s}/(j-s)! \\oint F(xi) e^{-r xi} xi^{-1-s} dxi."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if r <= 0:
        raise DomainError("r must be positive")
    T = T if T is not None else A + 40.0 / r
    contour = gamma_contour(A, T)  # refuses T <= A
    tail = max(_ray_tails(F, r, A, T, n + 1))
    if tail > tol:
        raise ConvergenceError(f"the contour drops ray tails beyond T = {T:.4g} "
                               f"of {tail:.3g}; raise T")
    # the n + 1 loop integrals as one family over the same contour
    res = integrate_paths(lambda xi, s: F(xi) * np.exp(-r * xi) / xi ** (1 + s),
                          [contour] * (n + 1), [QuadratureSpec(tol=tol)] * (n + 1))
    loop_vals = [val / (2j * math.pi) for val, _ in res]
    out = []
    for j in range(n + 1):
        acc = sum(r ** (j - s) / math.factorial(j - s) * loop_vals[s] for s in range(j + 1))
        out.append(acc)
    return out
