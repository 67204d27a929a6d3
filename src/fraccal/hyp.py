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
_CACHE_SIZE most recently used.  hyp2f1 takes an array of arguments: each
element picks its route by masks, and every series route sums all of its
elements at once, in blocks of power vectors z^n grouped by term count.
Where a sum stops depends on z, tol and the parameters only, so a value
never depends on what the cache holds or on the other elements of its
batch; a scalar call is a batch of one.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
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


def _cut_side_log(u: np.ndarray, z_side: Optional[int]) -> np.ndarray:
    """Principal log u elementwise (u != 0); on the negative real axis the
    z-side flag fixes the branch (z = x + i*eps, x > 1  =>  arg u -> -pi)."""
    lg = np.log(u)
    if z_side is not None:
        lg.imag[(u.imag == 0.0) & (u.real < 0.0)] = -z_side * math.pi
    return lg


def _cut_side_power(u: np.ndarray, exponent: complex, z_side: Optional[int]) -> np.ndarray:
    """u**exponent elementwise, u = 1-z, on the branch of _cut_side_log."""
    out = np.full(u.shape, 0.0 if exponent != 0 else 1.0, dtype=complex)
    nz = u != 0
    out[nz] = np.exp(exponent * _cut_side_log(u[nz], z_side))
    return out


_CACHE_SIZE = 128  # parameter triples whose coefficient tables are kept
_ROW_START = 128   # length of a new coefficient row; rows then double
_BLOCK = 1 << 16   # entries of the largest temporary block (1 MB of complex)
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
        self._rise = None  # (q_max, lookup) of the widest risers() call
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

    def risers(self, q_max: float, cap: int) -> Optional[tuple]:
        """Where terms can rise for |x| <= q_max: None if nowhere, else the
        lookup of _rise_lookup over the candidate indices j < cap whose ratio
        |r_j| can reach 1/|x|.  The row is grown past them.

        A terminating row has its candidates below its last term.  Otherwise
        |r_n| <= (n+|a|)(n+|b|) / ((n-|c|)(n-|e|)) bounds the last index k
        where |r_n| q can reach 1, so for every |x| <= q_max the candidates
        lie below k(q_max).  The lookup for the largest q_max asked so far is
        kept and serves every smaller one: past k(q) no ratio reaches 1/q.
        """
        if self.stop is not None:
            k = min(self.stop - 1, cap)
            self.grow(k + 1)
            return _rise_lookup(self.absr, np.arange(k))
        kept = self._rise
        if kept is None or q_max > kept[0]:
            ma, mb, mc, me = self.moduli
            lin = mc + me + q_max * (ma + mb)
            const = mc * me - q_max * ma * mb
            root = (lin + math.sqrt(max(lin * lin - 4.0 * (1.0 - q_max) * const, 0.0))) \
                / (2.0 * (1.0 - q_max))
            k = int(max(root, mc, me)) + 1
            self.grow(k + 1)
            kept = self._rise = (q_max, _rise_lookup(
                self.absr, np.flatnonzero(self.absr[:k] >= 1.0 / q_max)))
        look = kept[1]
        if look is not None and look[1][-1] >= cap:  # a cap below a candidate
            j = look[1][1:]
            look = _rise_lookup(self.absr, j[j < cap])
        return look


def _rise_lookup(absr: np.ndarray, j: np.ndarray) -> Optional[tuple]:
    """(-m, [-1, j_1, j_2, ...]) for candidate indices j_1 < j_2 < ..., with
    m_i = max_{i' >= i} absr[j_i'], or None without candidates.  For |x| = q
    the last candidate with absr >= 1/q is entry L of the second array,
    L = #{i : m_i >= 1/q}, a binary search on -m (which ascends)."""
    if not j.size:
        return None
    return -np.maximum.accumulate(absr[j][::-1])[::-1], np.concatenate(([-1], j))


# padding (in terms) that costs less than summing one more block
_MERGE_TERMS = 1024


def _blocks(n: np.ndarray, top: int):
    """Groups of element indices to sum together, with their width: elements
    sorted by their term estimate n, cut at powers of two (at most top), and
    adjacent groups merged while padding them costs less than one more
    block."""
    order = n.argsort()
    ns = n[order].tolist()
    start = 0
    while start < len(ns):
        width = min(1 << (ns[start] - 1).bit_length(), top)
        end = bisect.bisect_right(ns, width, start)
        while end < len(ns):
            wider = min(1 << (ns[end] - 1).bit_length(), top)
            if (end - start) * (wider - width) > _MERGE_TERMS:
                break
            width, end = wider, bisect.bisect_right(ns, wider, end)
        yield order[start:end], width
        start = end


def _row_sums(jobs: list, tol: float, max_terms: int) -> list:
    """Row sums for a list of jobs (row, x, log_x): sum_n d_n x^n over a
    coefficient row (log_x None), or sum_n d_n (log_x + h_n) x^n over a row
    with digamma brackets, for every element of each array x.

    Each value is the sequential partial sum up to the third consecutive term
    at or below tol times its partial sum, counting only terms past the
    largest one (Re c far below 0 makes the terms fall and then rise again);
    a terminating row ends at its last term.  Where a sum stops depends on
    its row, x, tol and max_terms alone, never on the other elements or on
    how far a row has been grown, so a value is the same in any batch.  All
    elements of all jobs are summed together in padded blocks of similar
    term counts; elements whose sums have not stopped within their block are
    summed again twice as wide.

    Returns per job the values and the condition estimates max |term| / |sum|
    over the summed terms.
    """
    if not jobs:
        return []
    rows = [row for row, _, _ in jobs]
    sizes = [len(x) for _, x, _ in jobs]
    bounds = [0, *itertools.accumulate(sizes)]
    x = np.concatenate([x for _, x, _ in jobs]) if len(jobs) > 1 else jobs[0][1]
    q = np.abs(x)
    first = np.empty(len(x), dtype=int)  # the first term past the largest
    first[:] = 1
    rising_any = False
    caps = [max_terms if r.stop is None else min(r.stop, max_terms) for r in rows]
    for row, cap, lo, hi in zip(rows, caps, bounds, bounds[1:]):
        q_max = float(np.maximum.reduce(q[lo:hi]))
        if row.stop is None and q_max >= 1.0:
            raise BudgetError(f"2F1 series does not converge (|x| = {q_max:.4g})")
        look = row.risers(q_max, cap)
        if look is not None:  # past the last index with |r_j| >= 1/q
            neg_m, j = look
            first[lo:hi] = j[neg_m.searchsorted(-1.0 / np.maximum(q[lo:hi], 1e-300),
                                                side="right")] + 2
            rising_any = True
    job = np.repeat(np.arange(len(jobs)), sizes) if len(jobs) > 1 else None
    top = max(caps)
    cap = top if min(caps) == top else np.repeat(caps, sizes)
    n = first + 8
    if 0.0 < tol < 1.0:  # and the terms to reach tol at the rate q^n (q < 1)
        n += (math.log(tol) / np.log(np.minimum(np.maximum(q, 1e-300), 1.0 - 1e-16))
              ).astype(int)
    n = np.minimum(n, cap)
    brackets = [lx is not None for _, _, lx in jobs]
    if any(brackets):
        log_x = np.concatenate([np.zeros(k) if lx is None else lx
                                for k, (_, _, lx) in zip(sizes, jobs)])
    if len(set(brackets)) == 1:
        pending = list(_blocks(n, top))
    else:  # a block holds rows of one kind
        pending = []
        for flag in (False, True):
            sel = np.flatnonzero(np.repeat(brackets, sizes) == flag)
            pending += [(sel[i], w) for i, w in _blocks(n[sel], top)]
    vals = np.empty(len(x), dtype=complex)
    cond = np.empty(len(x))
    while pending:
        ix, w = pending.pop()
        m = len(ix)
        if m * w > _BLOCK and m > 1:  # keep every temporary near _BLOCK entries
            step = max(1, _BLOCK // w)
            pending += [(ix[i:i + step], w) for i in range(0, m, step)]
            continue
        used, which = [0], None
        if job is not None:
            ids = job[ix]
            if np.minimum.reduce(ids) == np.maximum.reduce(ids):
                used = [int(ids[0])]
            else:
                present = np.bincount(ids, minlength=len(jobs)) > 0
                used, which = np.flatnonzero(present), (present.cumsum() - 1)[ids]
        for j in used:
            rows[j].grow(w)
        terms = np.empty((m, w), dtype=complex)
        terms[:, 1:] = x[ix, None]
        terms[:, 0] = 1.0
        np.multiply.accumulate(terms, axis=1, out=terms)  # the powers x^n
        terms *= _stacked([rows[j].coef for j in used], w, which)
        if brackets[used[0]]:
            terms *= log_x[ix, None] + _stacked([rows[j].h for j in used], w, which)
        partial = terms.cumsum(axis=1)
        mag = np.abs(terms)
        bound = np.abs(partial)
        bound *= tol
        small = mag <= bound
        small[:, 0] = False
        run = small[:, :-2] & small[:, 1:-1]
        run &= small[:, 2:]
        if rising_any:
            run &= np.arange(w - 2) >= first[ix, None]
        if isinstance(cap, np.ndarray):
            cap_ix = cap[ix]
            lowest = int(np.minimum.reduce(cap_ix))
        else:
            cap_ix = lowest = cap
        if lowest < w:  # no term past an element's cap
            run &= np.arange(w - 2) < np.reshape(cap_ix, (-1, 1)) - 2
        r = np.arange(m)
        at = run.argmax(axis=1) if w > 2 else np.zeros(m, dtype=int)
        hit = run[r, at] if w > 2 else np.zeros(m, dtype=bool)
        at += 2
        full = ~hit & (cap_ix <= w) if lowest <= w else None
        if full is not None and full.any():  # every allowed term summed, no stop
            last = np.repeat([row.stop == c for row, c in zip(rows, caps)], sizes)[ix]
            if (full & ~last).any():
                raise BudgetError("2F1 series did not converge "
                                  f"(|x| = {q[ix[full & ~last]].max():.4g})")
            at[full] = (np.broadcast_to(cap_ix, (m,)) - 1)[full]  # a terminating row's end
            hit |= full
        if np.count_nonzero(hit) < m:
            pending.append((ix[~hit], min(2 * w, top)))
        total = partial[r, at]
        vals[ix] = total  # a retried element is overwritten by its retry
        cond[ix] = np.maximum.accumulate(mag, axis=1, out=mag)[r, at] \
            / np.maximum(np.abs(total), 1e-300)
    return [(vals[lo:hi], cond[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _stacked(rows: list, w: int, which: Optional[np.ndarray]) -> np.ndarray:
    """The first w entries of one row, or per element those of rows[which]."""
    if which is None:
        return rows[0][:w]
    out = np.empty((len(rows), w), dtype=rows[0].dtype)
    for i, row in enumerate(rows):
        out[i] = row[:w]
    return out[which]


def _checked(vals: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """vals, unless a sum's largest term exceeds it so far that rounding
    (2.2e-16 times the condition estimate) could reach 1e-10 relative."""
    bad = ~(2.2e-16 * cond <= 1e-10)
    if bad.any():
        raise ConvergenceError(
            f"2F1 series cancels: max|term|/|sum| = {cond[bad].max():.3g} "
            "leaves fewer than 10 correct digits")
    return vals


def _summed(jobs: list, tol: float, max_terms: int) -> list:
    """The checked values of _row_sums, per job."""
    return [_checked(v, c) for v, c in _row_sums(jobs, tol, max_terms)]


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
    def pfaff(self) -> tuple:
        """Parameters of 2F1(a, c-b; c; z/(z-1))."""
        return self.a, self.c - self.b, self.c

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
    """Direct Gauss series at one point; caller guarantees |z| < 1 or a
    terminating a/b."""
    row = _table(complex(a), complex(b), complex(c)).taylor
    return complex(_summed([(row, np.array([complex(z)]), None)], tol, max_terms)[0][0])


def _plan_at_1(t: _Table, z: np.ndarray, z_side: Optional[int], jobs: list):
    """The z -> 1-z route on an array of z: appends its row sums to jobs and
    returns the function that assembles the values from their results."""
    u = 1.0 - z
    m = t.gap
    if m is None:
        A, B, row_a, row_b = t.at1
        ia = ib = None
        if A != 0:
            ia = len(jobs)
            jobs.append((row_a, u, None))
            pw_a = _cut_side_power(u, t.s, z_side) * A
        if B != 0:
            ib = len(jobs)
            jobs.append((row_b, u, None))

        def assemble(sums):
            vals = pw_a * sums[ia] if ia is not None else np.zeros(z.shape, dtype=complex)
            return vals + B * sums[ib] if ib is not None else vals
        return assemble
    if m < 0:
        # negative integer exponent: peel off u^s with the Euler transformation,
        # which flips the gap to -m >= 1
        inner = _plan_at_1(_table(*t.at1), z, z_side, jobs)
        pw = _cut_side_power(u, t.s, z_side)
        return lambda sums: pw * inner(sums)
    # Goursat's logarithmic form for integer m >= 0:
    #   sum_{n<m} fin_n u^n - pref u^m sum_n d_n (log u + h_n) u^n
    if (u == 0).any():
        raise DomainError("2F1 logarithmic case is singular at z = 1")
    fin, pref, row = t.at1
    finite = np.zeros(z.shape, dtype=complex)
    for coeff in fin:
        finite = finite * u + coeff
    i = len(jobs)
    jobs.append((row, u, _cut_side_log(u, z_side)))
    return lambda sums: finite - pref * u ** m * sums[i]


def hyp2f1(p: Hyp2F1Params, z, side: Optional[int] = None,
           tol: float = 1e-16, max_terms: int = 20000):
    """2F1(a, b; c; z) on the plane cut along (1, +oo), for a scalar z (a
    complex is returned) or elementwise on an array of any shape.

    side (+1/-1) selects the boundary value from the upper/lower half-plane
    where z lies on the cut; elsewhere it is ignored.  Each element takes the
    route with the smallest series argument, all series of all elements are
    summed together, and a value does not depend on the other elements.
    Raises ConvergenceError when a series cancels so far that fewer than 10
    digits would survive rounding.
    """
    if not isinstance(p, Hyp2F1Params):
        p = Hyp2F1Params(*p)
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    out = np.ones(flat.shape, dtype=complex)
    nz = flat != 0
    if nz.any():
        jobs = []
        assemble = _plan(_table(p.a, p.b, p.c), flat[nz], side, jobs, tol, max_terms)
        out[nz] = assemble(_summed(jobs, tol, max_terms))
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _plan(t: _Table, z: np.ndarray, side: Optional[int], jobs: list, tol: float,
          max_terms: int, depth: int = 0):
    """Routes of 2F1 on the table t at a 1-d array of z != 0: appends the row
    sums they need to jobs and returns the function that assembles the
    values from their results.  depth 1 is the inner function of the Pfaff
    route, which may not take the Pfaff route again."""
    a, b, c = t.a, t.b, t.c
    if t.taylor.stop is not None:  # terminating, any z
        i = len(jobs)
        jobs.append((t.taylor, z, None))
        return lambda sums: sums[i]
    if abs(c - b) < _PARAM_TOL:
        return lambda sums, v=_cut_side_power(1.0 - z, -a, side): v
    if abs(c - a) < _PARAM_TOL:
        return lambda sums, v=_cut_side_power(1.0 - z, -b, side): v
    out = np.empty(z.shape, dtype=complex)
    at_one = z == 1.0
    if at_one.any():
        if t.s.real <= 0:
            raise DomainError("2F1 singular at z = 1 for Re(c-a-b) <= 0")
        out[at_one] = gamma(c) * gamma(t.s) * rgamma(c - a) * rgamma(c - b)
    rest = np.flatnonzero(~at_one)
    z = z[rest]
    on_cut = (z.imag == 0.0) & (z.real > 1.0)
    if side is None and on_cut.any():
        raise DomainError("z on the cut (1, oo): a side flag (+1/-1) is required")

    r_direct = np.abs(z)
    r_at1 = np.abs(1.0 - z)
    w = z / (z - 1.0)
    # the route with the smallest series argument, ties in this order; the
    # effective argument of the pfaff route is that of its best sub-route
    r_best = np.minimum(r_direct, r_at1)
    if depth == 0:
        r_best = np.minimum(r_best, np.minimum(np.abs(w), np.abs(1.0 - w)))
    series = r_best <= 0.98
    direct = series & (r_best == r_direct)
    at1 = series & ~direct & (r_best == r_at1)
    pfaff = series & ~direct & ~at1
    parts = []
    if direct.any():
        i = len(jobs)
        jobs.append((t.taylor, z[direct], None))
        parts.append((rest[direct], lambda sums, i=i: sums[i]))
    if at1.any():
        parts.append((rest[at1], _plan_at_1(t, z[at1], side, jobs)))
    if pfaff.any():
        # (1-z)^{-a} 2F1(a, c-b; c; w); crossing to w flips the cut side
        w_side = -side if side is not None else None
        inner = _plan(_table(*t.pfaff), w[pfaff], w_side, jobs, tol, max_terms, depth + 1)
        pw = _cut_side_power(1.0 - z[pfaff], -a, side)
        parts.append((rest[pfaff], lambda sums: pw * inner(sums)))
    # crescent around e^{+-i pi/3} where every ratio is ~1: continue the ODE
    # from a series-seeded point, detouring through +-1.2i to stay clear of
    # both singular points (off-cut arguments only; |1-z| >= 0.98 here)
    starts = {}  # (F, F') at the seed +-0.45i, per half-plane
    for i in np.flatnonzero(~series):
        zi = complex(z[i])
        if on_cut[i] or not abs(zi.imag) > 1e-13 * abs(zi):
            raise ConvergenceError(f"no convergent 2F1 route for z = {zi:.6g} "
                                   f"(|z|, |1-z| = {abs(zi):.3g}, {abs(1.0 - zi):.3g})")
        sgn = 1.0 if zi.imag > 0 else -1.0
        seed = 0.45j * sgn
        if sgn not in starts:
            starts[sgn] = (_series_2f1(a, b, c, seed, tol, max_terms),
                           _series_2f1(a + 1, b + 1, c + 1, seed, tol, max_terms) * a * b / c)
        out[rest[i]], _ = hyp2f1_continue(Hyp2F1Params(a, b, c), [seed, 1.2j * sgn, zi],
                                          start=starts[sgn])

    def assemble(sums):
        for idx, part in parts:
            out[idx] = part(sums)
        return out
    return assemble


def euler_ltf_check(p: Hyp2F1Params, t):
    """|LHS - RHS| of the z -> 1-z linear transformation at t, a point (a
    float is returned) or an array of points.

    The left side is forced through the direct series so the two sides stay
    independent; requires |t| < 1 and a non-integer exponent c-a-b.
    """
    if not isinstance(p, Hyp2F1Params):
        p = Hyp2F1Params(*p)
    ts = np.asarray(t, dtype=complex)
    s = p.s
    if near_integer(s, _INT_DEGENERACY_TOL) is not None:
        raise DegenerateCaseError(
            f"c-a-b = {s} is within {_INT_DEGENERACY_TOL} of an integer; "
            "use the logarithmic form")
    if (np.abs(ts) >= 1.0).any():
        raise DomainError("check requires |t| < 1 for the direct-series side")
    if (np.abs(1.0 - ts) >= 1.0).any():
        raise DomainError("check requires |1-t| < 1 for the transformed side")
    t = _table(p.a, p.b, p.c)
    jobs = [(t.taylor, ts.ravel(), None)]
    assemble = _plan_at_1(t, ts.ravel(), None, jobs)
    sums = _summed(jobs, 1e-16, 20000)
    res = np.abs(sums[0] - assemble(sums))
    return float(res[0]) if ts.ndim == 0 else res.reshape(ts.shape)


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
    pw = _cut_side_power(np.array([1.0 - t]), s,
                         sign if (t.imag == 0.0 and t.real > 1.0) else None)
    return connection_coefficient(p, sign) * complex(pw[0]) * hyp2f1(inner, 1.0 - t)


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
