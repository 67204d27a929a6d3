"""Gauss and generalized hypergeometric functions with analytic continuation.

The 2F1 evaluator works from the direct series inside |z| <= 0.7 and reaches
the rest of the cut plane through the z -> 1-z linear transformation and the
Pfaff map z -> z/(z-1), composed at most once.  Arguments on the cut (1, oo)
carry a side flag selecting lim_{eps->0+} of z +- i*eps.  When c-a-b is
within 1e-6 of an integer the z -> 1-z formula is replaced by the logarithmic
(Goursat) expansions.  A Taylor-step continuation of the hypergeometric ODE
along arbitrary polyline paths is provided for monodromy measurements.

Every series is a sum over a coefficient row: the Taylor coefficients
(a)_n (b)_n / ((c)_n n!), built by one vectorised ratio cumprod and grown by
doubling, and for the Goursat forms the digamma brackets as a cumsum.  The
rows and the constants of each parameter triple (the 1-z connection
constants, the Goursat prefactors, the Pfaff inner parameters, the
connection coefficients T^{+-}) are kept in a table per (a, b, c) among the
_CACHE_SIZE most recently used, so an evaluation costs one power vector
z^n and a sequential partial sum.  Where a sum stops depends on z, tol and
the parameters only, so a value never depends on what the cache holds.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (BudgetError, ConvergenceError, DegenerateCaseError,
                     DomainError, GammaPoleError)
from .gammafn import digamma, gamma, rgamma
from .utils import cpow, is_nonpositive_int, near_integer

_PARAM_TOL = 1e-13
_INT_DEGENERACY_TOL = 1e-6  # routes c-a-b to the logarithmic forms


@dataclass(frozen=True)
class Hyp2F1Params:
    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))
        if is_nonpositive_int(self.c) is not None:
            raise DomainError(f"lower parameter c = {self.c} is a non-positive integer")

    @property
    def s(self) -> complex:
        """c - a - b, the exponent at z = 1."""
        return self.c - self.a - self.b


@dataclass(frozen=True)
class PFQParams:
    """p+1 upper and p lower parameters of the alternating-sign series."""

    num: tuple
    den: tuple

    def __post_init__(self):
        object.__setattr__(self, "num", tuple(complex(v) for v in self.num))
        object.__setattr__(self, "den", tuple(complex(v) for v in self.den))
        if len(self.num) != len(self.den) + 1:
            raise DomainError("need p+1 upper and p lower parameters")
        for bj in self.den:
            if is_nonpositive_int(bj) is not None:
                raise DomainError(f"lower parameter {bj} is a non-positive integer")

    def simplified(self) -> "PFQParams":
        """Cancel matching upper/lower parameter pairs (exact within 1e-13)."""
        num = list(self.num)
        den = list(self.den)
        for bj in list(den):
            for ai in num:
                if abs(ai - bj) < _PARAM_TOL:
                    num.remove(ai)
                    den.remove(bj)
                    break
        if len(num) != len(den) + 1:
            # cancellation below 2F1 level is not representable; keep original
            return self
        return PFQParams(tuple(num), tuple(den))


def _cut_side_power(u: complex, exponent: complex, z_side: Optional[int]) -> complex:
    """u**exponent where u = 1-z; on the negative real axis the z-side flag
    fixes the branch (z = x + i*eps, x > 1  =>  arg u -> -pi)."""
    if u == 0:
        return 0.0 + 0.0j if exponent != 0 else 1.0 + 0.0j
    if z_side is not None and u.imag == 0.0 and u.real < 0.0:
        return cpow(abs(u), -z_side * math.pi, exponent)
    return cmath.exp(exponent * cmath.log(u))


_CACHE_SIZE = 128  # parameter triples whose coefficient tables are kept
_ROW_START = 128   # length of a new coefficient row; rows then double
_ONE = np.ones(1, dtype=complex)  # the start of every row, never written
_EMPTY = np.empty(0)
_ONE.flags.writeable = _EMPTY.flags.writeable = False


class _Row:
    """Coefficients d_n of sum_n d_n x^n: d_0 = 1 and d_{n+1} = d_n r_n with
    r_n = (a+n)(b+n) / ((c+n)(e+n)).

    With brackets=True the row also holds the digamma brackets
    h_n = psi(a+n) + psi(b+n) - psi(c+n) - psi(e+n) of the logarithmic
    series.  A row grows by doubling from a fixed length, and each block
    continues both recurrences with a sequential accumulate seeded by the
    last entry, so entry n has the same value however far the row has grown.
    """

    def __init__(self, a: complex, b: complex, c: complex, e: complex,
                 brackets: bool = False):
        self.abce = (a, b, c, e)
        self.moduli = (abs(a), abs(b), abs(c), abs(e))
        ends = [n for n in (is_nonpositive_int(a), is_nonpositive_int(b))
                if n is not None]
        # a terminating row has 1 - n nonzero terms
        self.stop = min(1 - n for n in ends) if ends else None
        self.coef = _ONE
        self.absr = _EMPTY  # |r_n| for n < len(coef) - 1
        self.h = np.array([digamma(a) + digamma(b) - digamma(c) - digamma(e)]) \
            if brackets else None
        self._lock = threading.Lock()

    def grow(self, n: int) -> None:
        """Extend the row to at least n coefficients.

        Rows are shared between threads: growth holds the row's lock, and
        coef is replaced last, so a reader that finds coef long enough also
        finds absr and h long enough.
        """
        if len(self.coef) >= n:
            return
        a, b, c, e = self.abce
        with self._lock:
            while len(self.coef) < n:
                j = np.arange(len(self.coef) - 1,
                              max(2 * len(self.coef), _ROW_START) - 1, dtype=float)
                r = (a + j) * (b + j) / ((c + j) * (e + j))
                self.absr = np.concatenate((self.absr, abs(r)))
                if self.h is not None:
                    inc = 1.0 / (a + j) + 1.0 / (b + j) - 1.0 / (c + j) - 1.0 / (e + j)
                    self.h = np.concatenate(
                        (self.h, np.concatenate((self.h[-1:], inc)).cumsum()[1:]))
                self.coef = np.concatenate(
                    (self.coef, np.concatenate((self.coef[-1:], r)).cumprod()[1:]))

    def peak(self, q: float, n_max: int) -> int:
        """Index of the largest term |d_n x^n| (|x| = q) among the first
        n_max: after it every ratio |r_n| q is below 1.

        For a series that does not terminate, |r_n| <= (n+|a|)(n+|b|) /
        ((n-|c|)(n-|e|)) bounds the last index where |r_n| q can reach 1,
        so the scan needs q < 1 and never depends on the row's length.
        """
        if self.stop is not None:
            k = self.stop - 1
        else:
            ma, mb, mc, me = self.moduli
            lin = mc + me + q * (ma + mb)
            const = mc * me - q * ma * mb
            root = (lin + math.sqrt(max(lin * lin - 4.0 * (1.0 - q) * const, 0.0))) \
                / (2.0 * (1.0 - q))
            k = int(max(root, mc, me)) + 1
        k = min(k, n_max)
        if k == 0:
            return 0
        self.grow(k + 1)
        rising = self.absr[k - 1::-1] * q >= 1.0  # indices k-1 down to 0
        i = int(rising.argmax())
        return k - i if rising[i] else 0


def _row_sum(row: _Row, x: complex, tol: float, max_terms: int,
             log_x: Optional[complex] = None) -> complex:
    """sum_n d_n x^n over a coefficient row, or sum_n d_n (log_x + h_n) x^n
    over a row with digamma brackets.

    The value is the sequential partial sum up to the third consecutive term
    at or below tol times its partial sum, counting only terms past the
    largest one (Re c far below 0 makes the terms fall and then rise again).
    Where the sum stops depends on x, tol and the parameters alone, never on
    how far the row has been grown.  A terminating row ends at its last term.
    """
    q = abs(x)
    if row.stop is None and q >= 1.0:
        raise BudgetError(f"2F1 series does not converge (|x| = {q:.4g})")
    n_max = max_terms if row.stop is None else min(row.stop, max_terms)
    first = row.peak(q, n_max) + 1
    n = first + 8
    if 0.0 < q < 1.0 and 0.0 < tol < 1.0:
        n += int(math.log(tol) / math.log(q))
    while True:
        n = min(n, n_max)
        row.grow(n)
        pw = np.empty(n, dtype=complex)
        pw.fill(x)
        pw[0] = 1.0
        terms = row.coef[:n] * pw.cumprod()
        if log_x is not None:
            terms *= log_x + row.h[:n]
        partial = terms.cumsum()
        small = abs(terms) <= tol * abs(partial)
        small[:first] = False
        run = small[:-2] & small[1:-1]
        run &= small[2:]
        if run.any():
            return complex(partial[run.argmax() + 2])
        if n == row.stop:
            return complex(partial[-1])
        if n == n_max:
            raise BudgetError(f"2F1 series did not converge (|x| = {q:.4g})")
        n *= 2


class _Table:
    """What 2F1(a, b; c; .) needs that does not depend on z: the Taylor row,
    the constants and rows of the z -> 1-z connection, the Pfaff inner
    parameters and the connection coefficients T^{+-}; each piece is built
    on first use."""

    def __init__(self, a: complex, b: complex, c: complex):
        self.a, self.b, self.c = a, b, c
        self.s = c - a - b
        self.taylor = _Row(a, b, c, 1.0)

    @cached_property
    def gap(self) -> Optional[int]:
        """The integer c-a-b snaps to, or None."""
        return near_integer(self.s, _INT_DEGENERACY_TOL)

    @cached_property
    def at1(self) -> tuple:
        """Data of the z -> 1-z route, by gap: (A, B, row of A, row of B)
        without one; (finite-part coefficients, prefactor, logarithmic row)
        of the Goursat form for m >= 0; the Euler-transformed triple for
        m < 0."""
        a, b, c, s, m = self.a, self.b, self.c, self.s, self.gap
        if m is None:
            A = gamma(c) * gamma(a + b - c) * rgamma(a) * rgamma(b)
            B = gamma(c) * gamma(s) * rgamma(c - a) * rgamma(c - b)
            return A, B, _Row(c - a, c - b, s + 1.0, 1.0), _Row(a, b, 1.0 - s, 1.0)
        if m < 0:
            return c - a, c - b, c
        c = a + b + m
        fin = []
        if m > 0:
            coeff = math.factorial(m - 1) * gamma(c) * rgamma(a + m) * rgamma(b + m)
            for n in range(m):
                fin.append(coeff)
                if n < m - 1:
                    coeff *= (a + n) * (b + n) / ((n + 1.0) * (n - m + 1.0))
        pref = (-1.0) ** m * gamma(c) * rgamma(a) * rgamma(b) / math.factorial(m)
        return tuple(reversed(fin)), pref, _Row(a + m, b + m, 1.0, m + 1.0, brackets=True)

    @cached_property
    def pfaff(self) -> Hyp2F1Params:
        """Parameters of 2F1(a, c-b; c; z/(z-1))."""
        return Hyp2F1Params(self.a, self.c - self.b, self.c)

    @cached_property
    def connection(self) -> dict:
        """{+1: T^+, -1: T^-}, see connection_coefficient."""
        return {sign: (-sign * 2.0j * math.pi * cmath.exp(sign * 1j * math.pi * self.s)
                       * gamma(self.c) * rgamma(self.a) * rgamma(self.b)
                       * rgamma(self.s + 1.0))
                for sign in (1, -1)}


@lru_cache(maxsize=_CACHE_SIZE)
def _table(a: complex, b: complex, c: complex) -> _Table:
    """The coefficient table of (a, b, c), shared by every evaluation with
    that triple while it is among the _CACHE_SIZE most recently used."""
    return _Table(a, b, c)


def _series_2f1(a: complex, b: complex, c: complex, z: complex,
                tol: float = 1e-16, max_terms: int = 20000) -> complex:
    """Direct Gauss series; caller guarantees |z| < 1 or a terminating a/b."""
    return _row_sum(_table(complex(a), complex(b), complex(c)).taylor,
                    complex(z), tol, max_terms)


def _continuation_at_1(t: _Table, z: complex, z_side: Optional[int],
                       tol: float, max_terms: int) -> complex:
    u = 1.0 - z
    m = t.gap
    if m is None:
        A, B, row_a, row_b = t.at1
        t1 = 0.0 + 0.0j
        if A != 0:
            t1 = _cut_side_power(u, t.s, z_side) * A * _row_sum(row_a, u, tol, max_terms)
        t2 = 0.0 + 0.0j
        if B != 0:
            t2 = B * _row_sum(row_b, u, tol, max_terms)
        return t1 + t2
    if m < 0:
        # negative integer exponent: peel off u^s with the Euler transformation,
        # which flips the gap to -m >= 1
        pw = _cut_side_power(u, t.s, z_side)
        return pw * _continuation_at_1(_table(*t.at1), z, z_side, tol, max_terms)
    # Goursat's logarithmic form for integer m >= 0:
    #   sum_{n<m} fin_n u^n - pref u^m sum_n d_n (log u + h_n) u^n
    if u == 0:
        raise DomainError("2F1 logarithmic case is singular at z = 1")
    log_u = cmath.log(u) if not (z_side is not None and u.imag == 0.0 and u.real < 0.0) \
        else complex(math.log(abs(u)), -z_side * math.pi)
    fin, pref, row = t.at1
    finite = 0.0 + 0.0j
    for coeff in fin:
        finite = finite * u + coeff
    return finite - pref * u ** m * _row_sum(row, u, tol, max_terms, log_u)


def hyp2f1(p: Hyp2F1Params, z: complex, side: Optional[int] = None,
           tol: float = 1e-16, max_terms: int = 20000, _depth: int = 0) -> complex:
    """2F1(a, b; c; z) on the plane cut along (1, +oo).

    side (+1/-1) selects the boundary value from the upper/lower half-plane
    when z lies on the cut; elsewhere it is ignored.
    """
    if not isinstance(p, Hyp2F1Params):
        p = Hyp2F1Params(*p)
    z = complex(z)
    a, b, c = p.a, p.b, p.c
    if z == 0:
        return 1.0 + 0.0j
    t = _table(a, b, c)
    if t.taylor.stop is not None:
        return _row_sum(t.taylor, z, tol, max_terms)  # terminating, any z
    if abs(c - b) < _PARAM_TOL:
        return _cut_side_power(1.0 - z, -a, side)
    if abs(c - a) < _PARAM_TOL:
        return _cut_side_power(1.0 - z, -b, side)
    if z == 1.0:
        if p.s.real > 0:
            return gamma(c) * gamma(p.s) * rgamma(c - a) * rgamma(c - b)
        raise DomainError("2F1 singular at z = 1 for Re(c-a-b) <= 0")

    on_cut = z.imag == 0.0 and z.real > 1.0
    if on_cut and side is None:
        raise DomainError("z on the cut (1, oo): a side flag (+1/-1) is required")

    r_direct = abs(z)
    r_at1 = abs(1.0 - z)
    w = z / (z - 1.0)
    r_pfaff = abs(w)
    r_pfaff1 = abs(1.0 - w)
    # the route with the smallest series argument, ties in this order; the
    # effective argument of the pfaff route is that of its best sub-route
    r_best = min(r_direct, r_at1)
    if _depth == 0:
        r_best = min(r_best, r_pfaff, r_pfaff1)
    if r_best <= 0.98:
        if r_best == r_direct:
            return _row_sum(t.taylor, z, tol, max_terms)
        if r_best == r_at1:
            return _continuation_at_1(t, z, side, tol, max_terms)
        # (1-z)^{-a} 2F1(a, c-b; c; w); crossing to w flips the cut side
        w_side = -side if side is not None else None
        inner = hyp2f1(t.pfaff, w, side=w_side, tol=tol, max_terms=max_terms,
                       _depth=_depth + 1)
        return _cut_side_power(1.0 - z, -a, side) * inner
    # crescent around e^{+-i pi/3} where every ratio is ~1: continue the ODE
    # from a series-seeded point, detouring through +-1.2i to stay clear of
    # both singular points (off-cut arguments only; |1-z| >= 0.98 here)
    if not on_cut and abs(z.imag) > 1e-13 * abs(z):
        sgn = 1.0 if z.imag > 0 else -1.0
        seed = 0.45j * sgn
        f0 = _series_2f1(a, b, c, seed, tol, max_terms)
        fp0 = _series_2f1(a + 1, b + 1, c + 1, seed, tol, max_terms) * a * b / c
        val, _ = hyp2f1_continue(p, [seed, 1.2j * sgn, z], start=(f0, fp0))
        return val
    raise ConvergenceError(
        f"no convergent 2F1 route for z = {z:.6g} "
        f"(|z|, |1-z|, |w|, |1-w| = {r_direct:.3g}, {r_at1:.3g}, {r_pfaff:.3g}, {r_pfaff1:.3g})")


def euler_ltf_check(p: Hyp2F1Params, t: complex) -> float:
    """|LHS - RHS| of the z -> 1-z linear transformation at t.

    The left side is forced through the direct series so the two sides stay
    independent; requires |t| < 1 and a non-integer exponent c-a-b.
    """
    if not isinstance(p, Hyp2F1Params):
        p = Hyp2F1Params(*p)
    t = complex(t)
    s = p.s
    if near_integer(s, _INT_DEGENERACY_TOL) is not None:
        raise DegenerateCaseError(
            f"c-a-b = {s} is within {_INT_DEGENERACY_TOL} of an integer; "
            "use the logarithmic form")
    if abs(t) >= 1.0:
        raise DomainError("check requires |t| < 1 for the direct-series side")
    if abs(1.0 - t) >= 1.0:
        raise DomainError("check requires |1-t| < 1 for the transformed side")
    lhs = _series_2f1(p.a, p.b, p.c, t)
    rhs = _continuation_at_1(_table(p.a, p.b, p.c), t, None, 1e-16, 20000)
    return abs(lhs - rhs)


def connection_coefficient(p: Hyp2F1Params, sign: int) -> complex:
    """T^{+-}(a,b,c) = -+ 2 pi i e^{+- i pi (c-a-b)} Gamma(c) /
    (Gamma(a) Gamma(b) Gamma(c-a-b+1)).

    Zero when 1/Gamma(a) or 1/Gamma(b) vanishes (polynomial case, no branch
    jump); finite for every integer c-a-b >= 0.
    """
    if not isinstance(p, Hyp2F1Params):
        p = Hyp2F1Params(*p)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    return _table(p.a, p.b, p.c).connection[sign]


def monodromic_jump_2f1(p: Hyp2F1Params, t: complex, sign: int) -> complex:
    """Predicted jump T^{sign} (1-t)^{c-a-b} 2F1(c-a, c-b; c-a-b+1; 1-t).

    For t on the cut the power takes the branch of the base point for that
    sign: arg(1-t) = -sign*pi.  The measured two-sided difference
    hyp2f1(side +) - hyp2f1(side -) equals the sign = -1 value.
    """
    if not isinstance(p, Hyp2F1Params):
        p = Hyp2F1Params(*p)
    t = complex(t)
    s = p.s
    inner = Hyp2F1Params(p.c - p.a, p.c - p.b, s + 1.0)  # raises on degenerate c
    pw = _cut_side_power(1.0 - t, s, sign if (t.imag == 0.0 and t.real > 1.0) else None)
    return connection_coefficient(p, sign) * pw * hyp2f1(inner, 1.0 - t)


def hyp_pfq(params: PFQParams, t: complex, tol: float = 1e-14,
            max_terms: int = 100000) -> complex:
    """Alternating-sign generalized hypergeometric series

        sum_k (-1)^k prod (a_i)_k / prod (b_j)_k * t^k / k!

    i.e. the standard p+1Fp at argument -t.  Direct summation only; |t| < 1
    unless an upper parameter terminates the series.
    """
    if not isinstance(params, PFQParams):
        params = PFQParams(*params)
    t = complex(t)
    terminating = any(is_nonpositive_int(ai) is not None for ai in params.num)
    if abs(t) >= 1.0 and not terminating:
        raise DomainError("direct series needs |t| < 1")
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    small = 0
    for k in range(max_terms):
        ratio = (-t) / (k + 1.0)
        for ai in params.num:
            ratio *= ai + k
        for bj in params.den:
            ratio /= bj + k
        term *= ratio
        if term == 0:
            return total
        total += term
        if abs(term) <= tol * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise BudgetError("pFq series did not converge within the term budget")


# ---------------------------------------------------------------------------
# Continuation of 2F1 along paths (Taylor stepping of the Gauss ODE)
# ---------------------------------------------------------------------------

def _taylor_step(p: Hyp2F1Params, z0: complex, u0: complex, u1: complex,
                 h: complex, n_terms: int = 42):
    """Advance (F, F') by h using the local Taylor solution of
    z(1-z) F'' + (c - (a+b+1) z) F' - a b F = 0."""
    a, b, c = p.a, p.b, p.c
    p0 = z0 * (1.0 - z0)
    p1 = 1.0 - 2.0 * z0
    q0 = c - (a + b + 1.0) * z0
    q1 = -(a + b + 1.0)
    r = -a * b
    u = [u0, u1]
    for n in range(n_terms - 2):
        num = (p1 * n + q0) * (n + 1.0) * u[n + 1] + ((-1.0) * n * (n - 1.0) + q1 * n + r) * u[n]
        u.append(-num / (p0 * (n + 2.0) * (n + 1.0)))
    f = 0.0 + 0.0j
    fp = 0.0 + 0.0j
    for n in range(len(u) - 1, -1, -1):
        f = f * h + u[n]
        if n >= 1:
            fp = fp * h + n * u[n]
    # tail indicator: magnitude of the last term kept
    tail = abs(u[-1]) * abs(h) ** (len(u) - 1)
    return f, fp, tail


def hyp2f1_continue(p: Hyp2F1Params, path: Sequence[complex],
                    start: Optional[tuple] = None, tol: float = 1e-12):
    """Analytic continuation of (2F1, 2F1') along a polyline of points.

    Starting values default to the direct series at path[0] (requires
    |path[0]| < 1).  Steps never exceed 0.3 * dist(z, {0, 1}); raises
    ConvergenceError if the path pinches a singular point.
    """
    if not isinstance(p, Hyp2F1Params):
        p = Hyp2F1Params(*p)
    pts = [complex(z) for z in path]
    if len(pts) < 2:
        raise DomainError("path needs at least two points")
    if start is None:
        z0 = pts[0]
        if abs(z0) >= 0.95:
            raise DomainError("path must start inside the unit disk for series seeding")
        f = _series_2f1(p.a, p.b, p.c, z0)
        fp = _series_2f1(p.a + 1, p.b + 1, p.c + 1, z0) * p.a * p.b / p.c
    else:
        f, fp = start
        z0 = pts[0]
    for target in pts[1:]:
        while z0 != target:
            dist = min(abs(z0), abs(z0 - 1.0))
            if dist < 1e-9:
                raise ConvergenceError(f"continuation path pinches a singular point at {z0:.4g}")
            step = target - z0
            hmax = 0.3 * dist
            if abs(step) > hmax:
                step *= hmax / abs(step)
            nf, nfp, tail = _taylor_step(p, z0, f, fp, step)
            if tail > tol * max(1.0, abs(nf)):
                # order-42 Taylor rarely needs this; halve once and re-check
                nf, nfp, tail = _taylor_step(p, z0, f, fp, step / 2.0)
                if tail > tol * max(1.0, abs(nf)):
                    raise ConvergenceError("continuation step failed its tail check")
                step = step / 2.0
            f, fp = nf, nfp
            z0 = z0 + step
    return f, fp


def circle_path(center: complex, start: complex, turns: float = 1.0,
                n: int = 64) -> list:
    """Polyline approximating start -> (around center by 2*pi*turns)."""
    rad = start - center
    return [center + rad * cmath.exp(2j * math.pi * turns * k / n) for k in range(n + 1)]


def geom_alpha_check(alpha: complex, t: complex, convention: str = "rotate") -> dict:
    """Measure the branch jump of z -> 2F1(1, 1; alpha+1; z) at z = -t under a
    stated loop convention and compare it with two closed forms.

    convention "rotate": continue along the loop where 1-z winds once
    counterclockwise around 0 (i.e. 1+t gains a factor e^{2 pi i}).
    convention "literal": continue along the loop z(th) = (1+t) e^{i th} - 1
    read off the star-point definition t* = 1 - (1+t) e^{2 pi i}.

    Returns the measured jump, the claimed constant-limit form
    2 pi i e^{i pi alpha} / (1+t), the derived form
    2 pi i alpha e^{i pi alpha} (1+t)^{alpha-1} (-t)^{-alpha}, and both
    residuals.  Nothing is asserted here; callers decide what validates.
    """
    alpha = complex(alpha)
    t = complex(t)
    p = Hyp2F1Params(1.0, 1.0, alpha + 1.0)
    z0 = -t
    if convention == "rotate":
        loop = circle_path(1.0, z0, turns=1.0)
    elif convention == "literal":
        loop = circle_path(-1.0, z0, turns=1.0)
    else:
        raise DomainError(f"unknown convention {convention!r}")
    f_start = _series_2f1(p.a, p.b, p.c, z0) if abs(z0) < 0.95 else hyp2f1(p, z0)
    fp_start = _series_2f1(p.a + 1, p.b + 1, p.c + 1, z0) * p.a * p.b / p.c \
        if abs(z0) < 0.95 else None
    if fp_start is None:
        raise DomainError("check needs |t| < 0.95")
    f_end, _ = hyp2f1_continue(p, loop, start=(f_start, fp_start))
    measured = f_end - f_start
    claimed = 2j * math.pi * cmath.exp(1j * math.pi * alpha) / (1.0 + t)
    # branch of -t fixed as t e^{+i pi}, matching the counterclockwise loop
    derived = (2j * math.pi * alpha * cmath.exp(1j * math.pi * alpha)
               * (1.0 + t) ** (alpha - 1.0)
               * cpow(abs(t), cmath.phase(t) + math.pi, -alpha))
    return {
        "convention": convention,
        "measured": measured,
        "claimed_form": claimed,
        "derived_form": derived,
        "residual_claimed": abs(measured - claimed),
        "residual_derived": abs(measured - derived),
    }
