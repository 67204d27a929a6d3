"""Gauss and generalized hypergeometric functions with analytic continuation.

The 2F1 evaluator takes, per element, the series with the smallest argument:
the direct series, the z -> 1-z and z -> 1/z linear transformations, or the
Pfaff map z -> z/(z-1), composed at most once with one of the others.  The
1/z route needs a-b away from an integer; an element whose two 1/z terms
cancel is evaluated again without it, one whose route's constants overflow
takes the next route.  Arguments on the cut (1, oo) carry a side flag
selecting lim_{eps->0+} of z +- i*eps.  When c-a-b is within 1e-6 of an
integer the z -> 1-z formula is replaced by the logarithmic (Goursat)
expansions.  The crescent around e^{+-i pi/3}, where no series converges
fast, is reached by continuing the hypergeometric ODE.

The 1-z and 1/z routes have one term form: a list of (constant C,
exponent e, row), whose value is the sum of C base^{-e} 2F1(row; x) with
base = x = 1-z, or base = -z and x = 1/z; one assembler forms it for every
table of a route, a constant 0 making its term 0, and only 1/z checks the
cancellation of its terms.  At z = 1 a power (1-z)^e (the closed forms for
c = b or c = a, the jump's (1-t)^{c-a-b}) is 0 where Re(e) > 0, 1 where
e = 0, and raises DomainError otherwise.

One engine continues (F, F') along polylines ("lanes") by Taylor steps of
the ODE: it serves hyp2f1's crescent, hyp2f1_continue (monodromy loops) and
the integral kernel of fracops.  Each lane's step schedule is fixed by its
path alone (steps of at most 0.3 dist(z, {0, 1})); the transfer matrices of
every step of every lane are built in one numpy pass over (term, step)
arrays and the states carried step by step across all lanes at once, then
a second pass evaluates every step at its carried state and corrects the
states.  A lane's value equals running it alone, bit for bit.

Every series, of 2F1 or of p+1Fp (hyp_pfq, scalar or array t), is a sum
over a coefficient row prod (a_i)_n / prod (b_j)_n of a list of upper and
one of lower parameters, built by one vectorised ratio cumprod and grown by
doubling, and for the Goursat forms the digamma brackets as a cumsum; one
row-sum engine sums them all and raises ConvergenceError on cancellation.
The rows and the constants of each parameter triple (the 1-z and 1/z
terms, the Goursat form, the connection coefficients T^{+-}) are kept in a
table per (a, b, c) among the _CACHE_SIZE most recently used, as is each
p+1Fp row.  Every evaluation is a batch of one:
hyp2f1 is the one-call case of a pass over a list of calls (parameters,
array of arguments, sides) whose elements one planner routes together by
one argmin, each route's powers formed at once; their series are summed in
one pass, in blocks of power vectors z^n grouped by term count.  A pass,
the one place that merges repeated points, folds the elements of real
parameter triples onto the upper half-plane (Schwarz reflection, exact in
rounding too) and plans each distinct element once.
geom_alpha_check is the one-case call of a check whose loops are the lanes
of one continuation.  Where a sum stops depends on z, tol and the
parameters only, so a value never depends on what the cache holds or on the
other elements or calls of its batch.

A wrapper that pre- or post-processes 2F1 values (the regularized 2F1, the
surface continuation below, the Whittaker duals) has one part form: a
_Part, its list of calls and the function that turns their values into
its result.  Its value is the one-part case of _hyp2f1_parts, which runs
every part of a batch through one _hyp2f1_calls pass; so a check, or a
quadrature level, hands all its 2F1 calls to one pass.

This module alone knows how a 2F1 value crosses its cut: the jump
T^{+-} (1-z)^{c-a-b} 2F1(c-a, c-b; c-a-b+1; 1-z) (DLMF 15.2.3) is built in
_jump_factors only.  monodromic_jump_2f1 returns it, and _surface_part
continues 2F1 on the log-Riemann surface of its argument (the cut plane,
both rims and one crossing either way), as the Whittaker duals need.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BudgetError, ConvergenceError, DegenerateCaseError, DomainError
from .gammafn import digamma, gamma, pochhammer, rgamma
from .utils import cpow, is_nonpositive_int, near_integer

_PARAM_TOL = 1e-13
_INT_DEGENERACY_TOL = 1e-6  # routes c-a-b to the logarithmic forms
# the z -> 1/z route: a-b at least _INV_GAP from an integer, 1/|z| at most
# _INV_MAX, and its two terms cancelling by at most _INV_COND
_INV_GAP, _INV_MAX, _INV_COND = 0.1, 0.8, 10.0
_R_TAIL = np.array([np.inf, np.inf, 0.98] + [np.inf] * 5)  # the route table past 1-z


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
        return PFQParams(tuple(num), tuple(den))


def _cut_side_log(u: np.ndarray, z_side: Optional[np.ndarray]) -> np.ndarray:
    """Principal log u elementwise (u != 0); on the negative real axis the
    z-side flags, one per element, fix the branch
    (z = x + i*eps, x > 1  =>  arg u -> -pi)."""
    lg = np.log(u)
    if z_side is not None:
        neg = (u.imag == 0.0) & (u.real < 0.0)
        if np.count_nonzero(neg):
            lg.imag[neg] = -z_side[neg] * math.pi
    return lg


def _cut_side_power(u: np.ndarray, exponent: complex,
                    z_side: Optional[np.ndarray]) -> np.ndarray:
    """u**exponent elementwise, u = 1-z, on the branch of _cut_side_log; at
    u = 0 it is 1 for exponent 0 and 0 for Re(exponent) > 0, and raises
    DomainError for any other exponent."""
    out = np.full(u.shape, 0.0 if exponent != 0 else 1.0, dtype=complex)
    nz = u != 0
    if exponent != 0 and not exponent.real > 0 and np.count_nonzero(nz) < u.size:
        raise DomainError(f"(1-z)^({exponent:.6g}) is singular at z = 1")
    out[nz] = np.exp(exponent * _cut_side_log(u[nz], _part(z_side, nz)))
    return out


def _part(side: Optional[np.ndarray], sel) -> Optional[np.ndarray]:
    """The side flags of the elements sel, or None without flags."""
    return None if side is None else side[sel]


_CACHE_SIZE = 128  # parameter triples whose coefficient tables are kept
_ROW_START = 128   # length of a new coefficient row; rows then double
_BLOCK = 1 << 14   # entries of the largest temporary block (256 KB of complex)
_ONE = np.ones(1, dtype=complex)  # the start of every row, never written
_EMPTY = np.empty(0)
_ONE.flags.writeable = _EMPTY.flags.writeable = False


class _Row:
    """Coefficients d_n of sum_n d_n x^n: d_0 = 1 and d_{n+1} = d_n r_n with
    r_n = prod_i (a_i+n) / prod_j (b_j+n) over the upper parameters num and
    the lower parameters den, as many of each: ((a, b), (c, 1)) is the
    Taylor row of 2F1(a, b; c), (num, den + (1,)) that of a p+1Fp.

    With brackets=True the row also holds the digamma brackets
    h_n = sum_i psi(a_i+n) - sum_j psi(b_j+n) of the logarithmic series.  A
    row grows by doubling from a fixed length, and each block continues both
    recurrences with a sequential accumulate seeded by the last entry, so
    entry n has the same value however far the row has grown.
    """

    def __init__(self, num: tuple, den: tuple, brackets: bool = False):
        self.num, self.den = num, den
        ends = [n for n in map(is_nonpositive_int, num) if n is not None]
        # a terminating row has 1 - n nonzero terms
        self.stop = min(1 - n for n in ends) if ends else None
        self.coef = _ONE
        self.absr = _EMPTY  # |r_n| for n < len(coef) - 1
        self.h = np.array([_signed_sum(digamma, num, den)]) if brackets else None
        self._rise = None  # (q_max, cap, lookup) of the last lookup worked out
        self._lock = threading.Lock()

    def grow(self, n: int) -> None:
        """Extend the row to at least n coefficients.

        Rows are shared between threads: growth holds the row's lock, and
        coef is replaced last, so a reader that finds coef long enough also
        finds absr and h long enough.
        """
        if len(self.coef) >= n:
            return
        with self._lock:
            while len(self.coef) < n:
                j = np.arange(len(self.coef) - 1,
                              max(2 * len(self.coef), _ROW_START) - 1, dtype=float)
                r = math.prod([v + j for v in self.num]) / math.prod([v + j for v in self.den])
                self.absr = np.concatenate((self.absr, abs(r)))
                if self.h is not None:
                    inc = _signed_sum(lambda v: 1.0 / (v + j), self.num, self.den)
                    self.h = np.concatenate(
                        (self.h, np.concatenate((self.h[-1:], inc)).cumsum()[1:]))
                self.coef = np.concatenate(
                    (self.coef, np.concatenate((self.coef[-1:], r)).cumprod()[1:]))

    def risers(self, q_max: float, cap: int) -> Optional[tuple]:
        """Where terms can rise for |x| <= q_max: None if nowhere, else the
        lookup of _rise_lookup over the candidate indices j < cap whose ratio
        |r_j| can reach 1/|x|.  The row is grown past them.

        A terminating row has its candidates below its last term.  Otherwise
        |r_n| <= prod_i (n+|a_i|) / prod_j (n-|b_j|) past M = max_j |b_j|, a
        bound that falls with n, so for every |x| <= q_max the candidates lie
        below k, the first n > M where q_max times it is below 1 (bisected).
        The row is grown to min(k, cap) only.  The lookup of the last call is
        kept and serves every call with no larger q_max and cap: past k(q) no
        ratio reaches 1/q.
        """
        if self.stop is not None:
            k = min(self.stop - 1, cap)
            self.grow(k + 1)
            return _rise_lookup(self.absr, np.arange(k))
        if q_max == 0.0:  # every term past the first vanishes
            return None
        kept = self._rise
        if kept is None or q_max > kept[0] or cap > kept[1]:
            def below(n):  # q_max times the bound on |r_n| is below 1 (n > M)
                return q_max * math.prod(n + abs(v) for v in self.num) \
                    < math.prod(n - abs(v) for v in self.den)
            k = hi = int(max(abs(v) for v in self.den)) + 1
            while not below(hi):
                hi *= 2
            k = min(k + bisect.bisect_left(range(k, hi), True, key=below), cap)
            self.grow(k + 1)
            kept = self._rise = (q_max, cap, _rise_lookup(
                self.absr, np.flatnonzero(self.absr[:k] >= 1.0 / q_max)))
        look = kept[2]
        if look is not None and look[1][-1] >= cap:  # a cap below a candidate
            j = look[1][1:]
            look = _rise_lookup(self.absr, j[j < cap])
        return look


def _signed_sum(f, num: tuple, den: tuple):
    """f(a_1) + f(a_2) + ... - f(b_1) - f(b_2) - ..., summed in this order."""
    out = f(num[0])
    for v in num[1:]:
        out = out + f(v)
    for v in den:
        out = out - f(v)
    return out


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
    sorted by their term estimate n, cut at multiples of 8 (at most top), and
    adjacent groups merged while padding them costs less than one more
    block."""
    order = n.argsort()
    ns = n[order].tolist()
    start = 0
    while start < len(ns):
        width = min(-(-ns[start] // 8) * 8, top)
        end = bisect.bisect_right(ns, width, start)
        while end < len(ns):
            wider = min(-(-ns[end] // 8) * 8, top)
            if (end - start) * (wider - width) > _MERGE_TERMS:
                break
            width, end = wider, bisect.bisect_right(ns, wider, end)
        yield order[start:end], width
        start = end


@np.errstate(over="ignore", invalid="ignore")
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
    over the summed terms.  Rows are grown and summed without floating-point
    warnings: coefficients past the double range make their sums inf or NaN,
    which end in BudgetError here or ConvergenceError in _summed.
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
    for row, cap, lo, hi, q_max in zip(rows, caps, bounds, bounds[1:],
                                       np.maximum.reduceat(q, bounds[:-1]).tolist()):
        if row.stop is None and q_max >= 1.0:
            raise BudgetError(f"hypergeometric series does not converge (|x| = {q_max:.4g})")
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
                raise BudgetError("hypergeometric series did not converge "
                                  f"(|x| = {q[ix[full & ~last]].max():.4g})")
            at[full] = (np.broadcast_to(cap_ix, (m,)) - 1)[full]  # a terminating row's end
            hit |= full
        if np.count_nonzero(hit) < m:
            pending.append((ix[~hit], min(2 * w, top)))
        total = partial[r, at]
        vals[ix] = total  # a retried element is overwritten by its retry
        # the largest |term| up to each element's stop: no term past first
        # grows, so the largest of the block row, unless the row holds terms
        # past a cap or an overflow (inf, or inf * 0 = NaN) past the stop
        top_term = mag.max(axis=1)
        if lowest < w or not np.isfinite(top_term).all():
            top_term = np.max(mag, axis=1, where=np.arange(w) <= at[:, None], initial=0.0)
        cond[ix] = top_term / np.maximum(np.abs(total), 1e-300)
    return [(vals[lo:hi], cond[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _stacked(rows: list, w: int, which: Optional[np.ndarray]) -> np.ndarray:
    """The first w entries of one row, or per element those of rows[which]."""
    if which is None:
        return rows[0][:w]
    out = np.empty((len(rows), w), dtype=rows[0].dtype)
    for i, row in enumerate(rows):
        out[i] = row[:w]
    return out[which]


def _summed(jobs: list, tol: float, max_terms: int) -> list:
    """The values of _row_sums per job, unless a sum's largest term exceeds it
    so far that rounding (2.2e-16 times the condition) could reach 1e-10."""
    sums = _row_sums(jobs, tol, max_terms)
    cond = np.concatenate([c for _, c in sums] or [_EMPTY])
    bad = ~(2.2e-16 * cond <= 1e-10)
    if np.count_nonzero(bad):
        raise ConvergenceError(
            f"hypergeometric series cancels: max|term|/|sum| = {cond[bad].max():.3g} "
            "leaves fewer than 10 correct digits")
    return [v for v, _ in sums]


class _Table:
    """What 2F1(a, b; c; .) needs that does not depend on z: the Taylor row,
    the terms of the z -> 1-z and z -> 1/z connections, the Goursat form
    and the connection coefficients T^{+-}; each piece is built on first use.

    A connection route is a list of terms (constant C, exponent e, row), its
    value the sum of C base^{-e} 2F1(row; x) over them: base = x = 1-z for
    at1, base = -z and x = 1/z for at_inf."""

    def __init__(self, a: complex, b: complex, c: complex):
        self.a, self.b, self.c = a, b, c
        self.s = c - a - b
        self.taylor = _Row((a, b), (c, 1.0))
        self.real = not (a.imag or b.imag or c.imag)  # conjugate-symmetric in z
        # for _plan: the route of every z, else -1 (0 sums a terminating row,
        # 7 and 8 are (1-z)^-a and (1-z)^-b), and whether 1/z may be taken
        self.kind = (0 if self.taylor.stop is not None else 7 if abs(c - b) < _PARAM_TOL else
                     8 if abs(c - a) < _PARAM_TOL else -1, near_integer(a - b, _INV_GAP) is None)

    @cached_property
    def gap(self) -> Optional[int]:
        """The integer c-a-b snaps to, or None."""
        return near_integer(self.s, _INT_DEGENERACY_TOL)

    @cached_property
    def at1(self) -> tuple:
        """The terms of the z -> 1-z route off the integers c-a-b:
        A u^s 2F1(c-a, c-b; s+1; u) + B 2F1(a, b; 1-s; u) at u = 1-z."""
        a, b, c, s = self.a, self.b, self.c, self.s
        return ((gamma(c) * gamma(a + b - c) * rgamma(a) * rgamma(b), -s,
                 _Row((c - a, c - b), (s + 1.0, 1.0))),
                (gamma(c) * gamma(s) * rgamma(c - a) * rgamma(c - b), 0,
                 _Row((a, b), (1.0 - s, 1.0))))

    @cached_property
    def goursat(self) -> tuple:
        """The z -> 1-z route at an integer c-a-b = m (gap): (e, fin, pref,
        row) of u^e (sum_{n<m} fin_n u^n - pref u^m sum_n d_n (log u + h_n)
        u^n) at u = 1-z, m = len(fin), fin highest power first.  For m >= 0
        e = 0; for m < 0 the Euler transformation peels off e = c-a-b and
        the rest is that of (c-a, c-b, c), whose m is -m."""
        a, b, m = self.a, self.b, self.gap
        if m < 0:
            return (self.s, *_table(self.c - a, self.c - b, self.c).goursat[1:])
        c = a + b + m
        fin = []
        if m > 0:
            coeff = math.factorial(m - 1) * gamma(c) * rgamma(a + m) * rgamma(b + m)
            for n in range(m):
                fin.append(coeff)
                if n < m - 1:
                    coeff *= (a + n) * (b + n) / ((n + 1.0) * (n - m + 1.0))
        pref = (-1.0) ** m * gamma(c) * rgamma(a) * rgamma(b) / math.factorial(m)
        return 0, tuple(reversed(fin)), pref, _Row((a + m, b + m), (1.0, m + 1.0), brackets=True)

    @cached_property
    def at_inf(self) -> tuple:
        """The terms of the z -> 1/z route (DLMF 15.8.2): C_1 (-z)^{-a}
        2F1(a, a-c+1; a-b+1; 1/z) + C_2 (-z)^{-b} 2F1(b, b-c+1; b-a+1; 1/z)."""
        a, b, c = self.a, self.b, self.c
        return ((gamma(c) * gamma(b - a) * rgamma(b) * rgamma(c - a), a,
                 _Row((a, a - c + 1.0), (a - b + 1.0, 1.0))),
                (gamma(c) * gamma(a - b) * rgamma(a) * rgamma(c - b), b,
                 _Row((b, b - c + 1.0), (b - a + 1.0, 1.0))))

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


@lru_cache(maxsize=_CACHE_SIZE)
def _pfq_row(num: tuple, den: tuple) -> _Row:
    """The row of the p+1Fp (num; den), kept as _table keeps 2F1 tables."""
    return _Row(num, den + (1.0,))


def _series_seed(a, b, c, z) -> tuple:
    """(F, F') of 2F1(a, b; c) at z, a point or a 1-d array, from the direct
    series, to start an ODE continuation; the caller guarantees |z| < 1.
    a, b and c are numbers or arrays of one entry per z.
    F' = a b / c 2F1(a+1, b+1; c+1; z), and the rows of every triple are
    summed together."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    prm = np.array(np.broadcast_arrays(a, b, c, zs)[:3], dtype=complex)
    groups = {}
    for i, abc in enumerate(prm.T.tolist()):
        groups.setdefault(tuple(abc), []).append(i)
    jobs = []
    for (a1, b1, c1), idx in groups.items():
        jobs += [(_table(a1, b1, c1).taylor, zs[idx], None),
                 (_table(a1 + 1.0, b1 + 1.0, c1 + 1.0).taylor, zs[idx], None)]
    sums = _summed(jobs, 1e-16, 20000)
    f, g = np.empty((2, zs.size), dtype=complex)
    for j, idx in enumerate(groups.values()):
        f[idx], g[idx] = sums[2 * j], sums[2 * j + 1]
    g = g * prm[0] * prm[1] / prm[2]
    return (complex(f[0]), complex(g[0])) if np.ndim(z) == 0 else (f, g)


def _spread(values: list, size: list):
    """values[i] for the size[i] elements of block i; one value stays a number."""
    return values[0] if len(values) == 1 else np.repeat(values, size)


def _job(jobs: list, coef, row: _Row, x: np.ndarray, log_x=None) -> int:
    """Appends (row, x, log_x) to jobs, x = 0 where coef is 0; its index."""
    jobs.append((row, x if coef != 0 else np.zeros(x.shape, dtype=complex), log_x))
    return len(jobs) - 1


def _cat(sums: list, ids: list) -> np.ndarray:
    return sums[ids[0]] if len(ids) == 1 else np.concatenate([sums[i] for i in ids])


def _plan_terms(groups: list, lg: np.ndarray, x: np.ndarray, jobs: list,
                bound: Optional[float] = None):
    """A connection route on a 1-d array of elements in blocks [lo:hi] of one
    table each, groups = [(terms, lo, hi), ...] with the route's terms of
    each table: appends the row sums at x to jobs and returns the function
    that assembles from their results the sum over the terms (C, e, row) of
    C exp(-e lg) 2F1(row; x), lg the log of the route's base, every table in
    one expression.  A constant 0 makes its term 0.  With a bound, a value
    whose terms cancel beyond it (sum |term| > bound |value|) is NaN."""
    size = [hi - lo for _, lo, hi in groups]
    # the power times C, in this order: numpy's complex product may round
    # its last bit differently with the operands swapped
    terms = [([_job(jobs, C, row, x[lo:hi]) for (C, _, row), (_, lo, hi) in zip(term, groups)],
              np.exp(_spread([-e if C != 0 else 0.0 for C, e, _ in term], size) * lg)
              * _spread([C for C, _, _ in term], size))
             for term in zip(*[terms for terms, _, _ in groups])]

    def assemble(sums):
        parts = [pw * _cat(sums, ids) for ids, pw in terms]
        vals = sum(parts[1:], parts[0])
        if bound is not None:
            vals[~(sum(map(np.abs, parts)) <= bound * np.abs(vals))] = np.nan
        return vals
    return assemble


def _plan_goursat(t: _Table, z: np.ndarray, side: Optional[np.ndarray], jobs: list):
    """The z -> 1-z route of one table at an integer c-a-b on an array of
    z != 1, in the Goursat form of _Table.goursat: appends its row sum to
    jobs and returns the function that assembles the values from it."""
    u = 1.0 - z
    lg = _cut_side_log(u, side)
    e, fin, pref, row = t.goursat
    finite, i = np.zeros(z.shape, dtype=complex), _job(jobs, 1, row, u, lg)
    for coeff in fin:
        finite = finite * u + coeff
    pw = np.exp(e * lg) if e != 0 else None

    def goursat(sums):
        vals = finite - pref * u ** len(fin) * sums[i]
        return vals if pw is None else pw * vals
    return goursat


def _usable(t: _Table, route: int) -> bool:
    """Whether the constants of route 1 or 5 (1-z) or 2 (1/z) of t are finite."""
    try:
        consts = ((*t.goursat[1], t.goursat[2]) if route == 5 else
                  [C for C, _, _ in (t.at1 if route == 1 else t.at_inf)])
        return all(map(cmath.isfinite, consts))
    except DomainError:
        return False


def hyp2f1(p: Hyp2F1Params, z, side=None,
           tol: float = 1e-16, max_terms: int = 20000):
    """2F1(a, b; c; z) on the plane cut along (1, +oo), for a scalar z (a
    complex is returned) or elementwise on an array of any shape.

    side (+1/-1, or an array of them that broadcasts against z) selects the
    boundary value from the upper/lower half-plane where an element lies on
    the cut; elsewhere it is ignored.  Each element takes the
    route with the smallest series argument, all series of all elements are
    summed together, and a value does not depend on the other elements.
    For real a, b, c an element below the real axis or on the lower rim is
    evaluated as the conjugate of its mirror image, which the routes give
    exactly (a zero imaginary part keeps its sign), and each distinct element
    is summed once.  Raises ConvergenceError when a series cancels so far
    that fewer than 10 digits would survive rounding.
    This is the one-call case of _hyp2f1_calls.
    """
    return _hyp2f1_calls([(p, z, side)], tol, max_terms)[0]


class _Part(NamedTuple):
    """A 2F1 evaluation in part form: its list of hyp2f1 calls (p, z, side)
    and the function that turns their values into its result.  A wrapper
    that pre- or post-processes 2F1 values builds a part, and its value is
    the one-part case of _hyp2f1_parts, so a caller may pass the parts of
    many wrappers to one pass."""

    calls: list
    finish: Callable

    def then(self, f: Callable) -> "_Part":
        """The part whose result is f of this part's result."""
        return _Part(self.calls, lambda vals: f(self.finish(vals)))


def _call_part(p: Hyp2F1Params, z, side=None) -> _Part:
    """hyp2f1(p, z, side) as a part."""
    return _Part([(p, z, side)], operator.itemgetter(0))


def _hyp2f1_parts(parts: list) -> list:
    """The result of each part, the calls of all parts evaluated in one
    _hyp2f1_calls pass; a result does not depend on the other parts."""
    if not parts:
        return []
    vals = _hyp2f1_calls([call for part in parts for call in part.calls])
    bounds = [0, *itertools.accumulate(len(part.calls) for part in parts)]
    return [part.finish(vals[lo:hi]) for part, lo, hi in zip(parts, bounds, bounds[1:])]


def _regularized_part(a, b, c, z, side=None) -> _Part:
    """2F1(a, b; c; z) / Gamma(c), entire in c: at c = 1-n the limit (a)_n
    (b)_n z^n / n! 2F1(a+n, b+n; 1+n; z) (DLMF 15.2.3_5).  z and side are as
    for hyp2f1, and a scalar z is an array of one element."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    pole = is_nonpositive_int(complex(c))
    if pole is None:
        part = _Part([(Hyp2F1Params(a, b, c), zs, side)], lambda vals: vals[0] / gamma(c))
    else:
        n = 1 - pole
        coeff = pochhammer(a, n) * pochhammer(b, n) / math.factorial(n)
        part = _Part([(Hyp2F1Params(a + n, b + n, 1 + n), zs, side)],
                    lambda vals: coeff * zs ** n * vals[0])
    return part if np.ndim(z) else part.then(lambda v: complex(v[0]))


def _hyp2f1_calls(calls: list, tol: float = 1e-16, max_terms: int = 20000,
                  inv: bool = True) -> list:
    """hyp2f1(p, z, side) for each (p, z, side) of calls: the elements of
    all calls are routed by one _plan (one table per parameters) and all row
    sums summed in one pass; a value does not depend on the other calls.
    The elements that come back NaN (a 1/z route whose terms cancel) are
    planned again, all in one more pass, with inv=False: without 1/z.

    This pass alone merges repeated points.  For real a, b, c,
    2F1(conj z) = conj 2F1(z) (Schwarz reflection), and the routes are
    exactly conjugate-symmetric in rounding too.  So an element of a
    real-parameter table with Im z < 0, or on the lower rim (z > 1, side
    -1), is folded onto the upper half-plane (z -> conj z, side -> -side).
    Then each distinct (table, z, side), bit for bit, of a pass of two or
    more elements is planned and summed once, and a folded element's value
    is unfolded: a nonzero imaginary part is negated, a zero one keeps its
    sign.  A value is thus exactly that of its own one-element pass."""
    per_call, ids = [], {}
    for p, z, side in calls:
        p = p if isinstance(p, Hyp2F1Params) else Hyp2F1Params(*p)
        zs = np.asarray(z, dtype=complex)
        per_call.append((zs.shape, zs.ravel(), ids.setdefault((p.a, p.b, p.c), len(ids)),
                     None if side is None else np.broadcast_to(side, zs.shape).ravel()))
    if not per_call:
        return []
    shapes, zl, ks, sl = zip(*per_call)
    size = [x.size for x in zl]
    z = zl[0] if len(zl) == 1 else np.concatenate(zl)
    g = np.repeat(ks, size) if len(ids) > 1 else None
    side = sl[0] if len(sl) == 1 else None if all(s is None for s in sl) else np.concatenate(
        [np.full(n, np.nan) if s is None else s for s, n in zip(sl, size)])
    tabs = [_table(*abc) for abc in ids]
    low, g, z, side, back = _distinct(tabs, g, z, side)
    vals = _evaluate(tabs, g, z, side, tol, max_terms, inv)[back]
    if low is not None:
        flip = low & (vals.imag != 0.0)
        vals.imag[flip] = -vals.imag[flip]
    return [vals[hi - n:hi].reshape(shape) if shape else complex(vals[hi - 1])
            for shape, n, hi in zip(shapes, size, itertools.accumulate(size))]


def _distinct(tabs: list, g: Optional[np.ndarray], z: np.ndarray,
              side: Optional[np.ndarray]) -> tuple:
    """(low, g, z, side, back): the mask of the elements of real-parameter
    tables below the real axis or on the lower rim of the cut (None if there
    is none); the tables, arguments and sides of the distinct (table, z,
    side), bit for bit, with those elements folded onto the upper
    half-plane; and for every element the position of its own among those.
    A one-element pass is its own distinct element (back is a slice)."""
    low, real = None, [t.real for t in tabs]
    if any(real):
        below = z.imag < 0.0
        fold = below if side is None else below | (side < 0.0) & (z.imag == 0.0) & (z.real > 1.0)
        if not all(real):
            real = np.array(real)[g]
            below &= real
            fold &= real
        if fold.any():
            low, z = fold, np.where(below, z.conj(), z)
            if side is not None:  # a NaN side (none) keeps its bits
                side = np.where(low & (side == side), -side, side)
    n = len(z)
    if n < 2:
        return low, g, z, side, slice(None)
    # the bits of z, the table and the side's bits; equal keys sort together
    key = [*z.view(np.int64).reshape(n, 2).T, *(() if g is None else (g,)),
           *(() if side is None else (np.asarray(side, dtype=float).view(np.int64),))]
    order = np.lexsort(key)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for col in key:
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    back = np.empty(n, dtype=int)
    back[order] = np.cumsum(new) - 1
    first = order[new]
    return low, _part(g, first), z[first], _part(side, first), back


def _evaluate(tabs: list, g: Optional[np.ndarray], z: np.ndarray,
              side: Optional[np.ndarray], tol: float, max_terms: int, inv: bool) -> np.ndarray:
    """The values of the _hyp2f1_calls elements z (element i on tabs[g[i]],
    side NaN where it has none), as they are: one _plan and one row-sum pass,
    and one more without 1/z for the elements that come back NaN."""
    redo, vals = slice(None), np.empty(len(z), complex)
    for inv in (inv, False):
        jobs = []
        assemble = _plan(tabs, _part(g, redo), z[redo], _part(side, redo), jobs, inv)
        vals[redo] = assemble(_summed(jobs, tol, max_terms))
        redo = np.isnan(vals).nonzero()[0] if inv else ()
        if not len(redo):
            break
    return vals


def _plan(tabs: list, g: Optional[np.ndarray], z: np.ndarray, side: Optional[np.ndarray],
          jobs: list, inv: bool = True, pfaff: bool = True):
    """Routes of 2F1 at a 1-d array of z, element i on tabs[g[i]] (g None for
    one table), side NaN where it has none: one argmin routes all elements,
    each route plans its elements together, one row sum per (table, row) in
    jobs; returns the function assembling the values from their results.
    pfaff=False plans the Pfaff route's inner functions; inv=False no 1/z."""
    n_t, (fix, gate) = len(tabs), zip(*[t.kind for t in tabs])
    # the series arguments of the direct, 1-z, 1/z and Pfaff routes (infinity
    # where not allowed), 0.98 for the crescent, and routes 5 to 9 (1-z at an
    # integer c-a-b, z = 1, _Table.kind's, z = 0), infinite unless taken; each
    # element takes the smallest, ties in this order.  The Pfaff route's is
    # min(|w|, |1-w|); its inner function may take 1/w = 1 - 1/z
    r = np.empty((len(z), 10))
    np.abs(z, out=r[:, 0])
    np.abs(zm := z - 1.0, out=r[:, 1])
    r[:, 2:] = _R_TAIL
    one = None
    if np.count_nonzero(real := z.imag == 0.0):  # where z = 0, z = 1 and the cut lie
        if np.count_nonzero(at := r[:, :2] == 0.0):
            r[at[:, 0], 9], r[at[:, 1], 6], one = -3.0, -1.0, at[:, 1]
        if np.count_nonzero(cut := real & (z.real > 1.0)):
            cut &= True if side is None else np.isnan(side)
            if np.count_nonzero(cut & (fix[0] < 0 if g is None else np.array(fix)[g] < 0)):
                raise DomainError("z on the cut (1, oo): a side flag (+1/-1) is required")
    if inv and any(gate) and np.count_nonzero(far := r[:, 0] * _INV_MAX >= 1.0):
        np.divide(1.0, r[:, 0], out=r[:, 2], where=far if all(gate) else far & np.array(gate)[g])
    if pfaff:
        w = z / zm if one is None else np.divide(z, zm, out=np.zeros_like(z), where=~one)
        np.minimum(np.abs(w), np.abs(1.0 - w), out=r[:, 3])
        if np.count_nonzero(np.isfinite(z)) < len(z):  # no route converges there
            r[~np.isfinite(z), :4] = np.inf
    if any(t.gap is not None for t in tabs):
        rows = slice(None) if g is None else np.array([t.gap is not None for t in tabs])[g]
        r[rows, 5], r[rows, 1] = r[rows, 1], np.inf
    if max(fix) >= 0:
        rows = slice(None) if g is None else np.array(fix)[g] >= 0
        r[rows, fix[0] if g is None else np.array(fix)[g][rows]] = -2.0
    while True:  # an element whose route's constants overflow takes the next
        route = r.argmin(axis=1)
        key = route if g is None else route * n_t + g
        count = np.bincount(key)
        keys = count.nonzero()[0].tolist()
        bad = [k for k in keys if k // n_t in (1, 2, 5) and not _usable(tabs[k % n_t], k // n_t)]
        if not bad:
            break
        for k in bad:
            r[key == k, k // n_t] = np.inf
    order = key.argsort(kind="stable") if len(keys) > 1 else None
    routes, hi, count = {}, 0, count.tolist()
    for k in keys:  # (table, lo, hi) per route
        routes.setdefault(k // n_t, []).append((tabs[k % n_t], hi, hi + count[k]))
        hi += count[k]
    out, parts = np.empty(z.shape, dtype=complex), []
    for k, groups in routes.items():
        start = groups[0][1]
        ix = slice(None) if order is None else order[start:groups[-1][2]]
        groups = [(t, lo - start, hi - start) for t, lo, hi in groups]
        zk, sk = z[ix], _part(side, ix)
        if k == 0:
            ids = [_job(jobs, 1, t.taylor, zk[lo:hi]) for t, lo, hi in groups]
            parts.append((ix, lambda sums, ids=ids: _cat(sums, ids)))
        elif k < 3:  # base = x = 1-z, or base = -z (arg -side pi on the cut) and x = 1/z
            base = 1.0 - zk if k == 1 else -zk
            parts.append((ix, _plan_terms(
                [(t.at1 if k == 1 else t.at_inf, lo, hi) for t, lo, hi in groups],
                _cut_side_log(base, sk), base if k == 1 else 1.0 / zk, jobs,
                None if k == 1 else _INV_COND)))
        elif k == 3:  # (1-z)^{-a} 2F1(a, c-b; c; w), in one more round; w flips sides
            n = [hi - lo for _, lo, hi in groups]
            inner = _plan([_table(t.a, t.c - t.b, t.c) for t, _, _ in groups],
                          None if len(groups) == 1 else np.repeat(np.arange(len(groups)), n),
                          w[ix], None if sk is None else -sk, jobs, inv, pfaff=False)
            pw = np.exp(_spread([-t.a for t, _, _ in groups], n) * _cut_side_log(1.0 - zk, sk))
            parts.append((ix, lambda sums, pw=pw, inner=inner: pw * inner(sums)))
        for t, lo, hi in groups if k > 3 else ():
            zt, st, it = zk[lo:hi], _part(sk, slice(lo, hi)), ix if order is None else ix[lo:hi]
            if k == 4:
                # crescent around e^{+-i pi/3} where every ratio is ~1: the ODE
                # from a series-seeded point, via +-1.2i clear of 0 and 1 (off the
                # real axis only), one continuation with a lane per element
                stuck = ~(np.abs(zt.imag) > 1e-13 * np.abs(zt))
                if stuck.any():
                    zi = complex(zt[stuck][0])
                    raise ConvergenceError(f"no convergent 2F1 route for z = {zi:.6g} "
                                           f"(|z|, |1-z| = {abs(zi):.3g}, {abs(1.0 - zi):.3g})")
                sgn = np.where(zt.imag > 0, 1.0, -1.0).tolist()
                paths = [[0.45j * s, 1.2j * s, zi] for s, zi in zip(sgn, zt.tolist())]
                out[it] = _continue(t.a, t.b, t.c, _Schedule(paths))[0]
            elif k == 5:
                parts.append((it, _plan_goursat(t, zt, st, jobs)))
            elif k == 6:
                if t.s.real <= 0:
                    raise DomainError("2F1 singular at z = 1 for Re(c-a-b) <= 0")
                out[it] = gamma(t.c) * gamma(t.s) * rgamma(t.c - t.a) * rgamma(t.c - t.b)
            else:  # 1 at z = 0; an element without a side takes the principal branch
                out[it] = 1.0 if k == 9 else _cut_side_power(
                    1.0 - zt, -t.a if k == 7 else -t.b,
                    None if st is None else np.nan_to_num(st, nan=-1.0))

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
    p = p if isinstance(p, Hyp2F1Params) else Hyp2F1Params(*p)
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
    t, z = _table(p.a, p.b, p.c), ts.ravel()
    jobs = [(t.taylor, z, None)]
    assemble = _plan_terms([(t.at1, 0, z.size)], _cut_side_log(1.0 - z, None), 1.0 - z, jobs)
    sums = _summed(jobs, 1e-16, 20000)
    res = np.abs(sums[0] - assemble(sums))
    return float(res[0]) if ts.ndim == 0 else res.reshape(ts.shape)


def connection_coefficient(p: Hyp2F1Params, sign: int) -> complex:
    """T^{+-}(a,b,c) = -+ 2 pi i e^{+- i pi (c-a-b)} Gamma(c) /
    (Gamma(a) Gamma(b) Gamma(c-a-b+1)).

    Zero when 1/Gamma(a) or 1/Gamma(b) vanishes (polynomial case, no branch
    jump); finite for every integer c-a-b >= 0.
    """
    p = p if isinstance(p, Hyp2F1Params) else Hyp2F1Params(*p)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    return _table(p.a, p.b, p.c).connection[sign]


def monodromic_jump_2f1(p: Hyp2F1Params, t: complex, sign: int) -> complex:
    """Predicted jump T^{sign} (1-t)^{c-a-b} 2F1(c-a, c-b; c-a-b+1; 1-t).

    For t on the cut the power takes the branch of the base point for that
    sign: arg(1-t) = -sign*pi.  The measured two-sided difference
    hyp2f1(side +) - hyp2f1(side -) equals the sign = -1 value.
    """
    pref, call = _jump_factors(p, t, sign)
    return pref * hyp2f1(*call)


def _jump_factors(p: Hyp2F1Params, t, sign) -> tuple:
    """The prefactor T^{sign} (1-t)^{c-a-b} of monodromic_jump_2f1 and the
    hyp2f1 arguments (inner parameters, 1-t, None) of the 2F1 it multiplies,
    at a point t or an array of them with one sign each.  A point keeps
    Python's complex product, whose last bit numpy's may not reproduce."""
    p = p if isinstance(p, Hyp2F1Params) else Hyp2F1Params(*p)
    ts = np.asarray(t, dtype=complex)
    signs = np.broadcast_to(sign, ts.shape)
    inner = Hyp2F1Params(p.c - p.a, p.c - p.b, p.s + 1.0)  # raises on degenerate c
    if not ((signs == 1) | (signs == -1)).all():
        raise DomainError("sign must be +1 or -1")
    u = 1.0 - ts
    # the sign picks arg(1-t) = -sign*pi where 1-t < 0, i.e. on the cut only
    pw = _cut_side_power(np.atleast_1d(u), p.s, np.atleast_1d(signs))
    T = _table(p.a, p.b, p.c).connection
    if ts.ndim == 0:
        return T[int(sign)] * complex(pw[0]), (inner, complex(u), None)
    return np.where(signs > 0, T[1], T[-1]) * pw, (inner, u, None)


def _surface_part(p: Hyp2F1Params, r: np.ndarray, phi: np.ndarray,
                  x: Optional[np.ndarray] = None) -> _Part:
    """The part of 2F1(p; x = r e^{i phi}) for 1-d arrays r > 0, -3 pi < phi
    <= pi: the cut plane for -2 pi < phi < 0, its rims phi = 0 (side -1) and
    -2 pi (side +1), and one crossing either way, which adds the jump T^{+-}
    of _jump_factors where |x| > 1, its inner 2F1 on side -1 so that x = -r
    (phi = pi) works.  The inner parameters are built only when a jump is
    added.  x may be given as formed by the caller, so that points of
    mirrored phi are exact conjugates; off the rims it carries no side, so
    that such a pair is one element of a 2F1 pass."""
    top = np.abs(phi) <= 1e-14
    bottom = np.abs(phi + 2.0 * math.pi) <= 1e-14
    if x is None:
        x = np.where(np.abs(phi - math.pi) <= 1e-14, -r + 0j, r * np.exp(1j * phi))
    plane = (p, np.where(top | bottom, r + 0j, x),
             np.where(bottom, 1.0, np.where(top, -1.0, np.nan)))
    up = phi > 1e-14
    far = np.flatnonzero((up | (phi < -2.0 * math.pi - 1e-14)) & (r > 1.0))
    if not far.size:
        return _call_part(*plane)
    pref, (inner, u, _) = _jump_factors(p, x[far], np.where(up[far], 1, -1))

    def crossed(vals):
        vals[0][far] += pref * vals[1]
        return vals[0]
    return _Part([plane, (inner, u, -1.0)], crossed)


def hyp_pfq(params: PFQParams, t, tol: float = 1e-14, max_terms: int = 100000):
    """Alternating-sign generalized hypergeometric series

        sum_k (-1)^k prod (a_i)_k / prod (b_j)_k * t^k / k!

    i.e. the standard p+1Fp at argument -t, for a scalar t (a complex is
    returned) or elementwise on an array of any shape, as one row sum of the
    series engine of hyp2f1; |t| < 1 unless an upper parameter terminates
    the series.  Raises ConvergenceError when the series cancels so far that
    fewer than 10 digits would survive rounding, or BudgetError (a
    ConvergenceError) when it has not converged within max_terms terms.
    """
    if not isinstance(params, PFQParams):
        params = PFQParams(*params)
    ts = np.asarray(t, dtype=complex)
    if not ts.size:
        return np.empty(ts.shape, dtype=complex)
    row = _pfq_row(params.num, params.den)
    if row.stop is None and (np.abs(ts) >= 1.0).any():
        raise DomainError("direct series needs |t| < 1")
    vals = _summed([(row, -ts.ravel(), None)], tol, max_terms)[0]
    return complex(vals[0]) if ts.ndim == 0 else vals.reshape(ts.shape)


# ---------------------------------------------------------------------------
# Continuation of 2F1 along paths (Taylor stepping of the Gauss ODE)
# ---------------------------------------------------------------------------

_TAYLOR_TERMS = 42   # terms of every local Taylor solution
_STEP_BLOCK = 1024   # steps whose transfer matrices are built together


def _steps(path: Sequence[complex]) -> tuple:
    """The step schedule of a polyline: lists of the start z0, the step h
    and the index of the path point each step heads for.

    Steps head straight for the next point and never exceed
    0.3 * dist(z0, {0, 1}), so the schedule depends on the geometry alone.
    Raises DomainError for a point that is not finite (no step reaches it)
    and ConvergenceError where the path pinches a singular point.
    """
    pts = [complex(z) for z in path]
    for z in pts:
        if not cmath.isfinite(z):
            raise DomainError(f"continuation path point {z} is not finite")
    z0, zs, hs, seg = pts[0], [], [], []
    for j in range(1, len(pts)):
        target = pts[j]
        while z0 != target:
            dist = min(abs(z0), abs(z0 - 1.0))
            if dist < 1e-9:
                raise ConvergenceError(f"continuation path pinches a singular point at {z0:.4g}")
            h = target - z0
            hmax = 0.3 * dist
            if abs(h) > hmax:
                h *= hmax / abs(h)
            zs.append(z0)
            hs.append(h)
            seg.append(j)
            z0 = z0 + h
    return zs, hs, seg


def _taylor(a: np.ndarray, b: np.ndarray, c: np.ndarray, z0: np.ndarray,
            h: np.ndarray, x: np.ndarray) -> tuple:
    """Per step, the local Taylor solution of
    z(1-z) F'' + (c - (a+b+1) z) F' - a b F = 0 from z0 by h, for starting
    values x = (F, F') at z0 of shape (2, ..., S): returns (F, F') at z0 + h,
    of the shape of x, and the last kept term.  a, b, c hold one entry per
    step, or one for all steps.

    The scaled terms v_n = u_n h^n start from v_0 = F, v_1 = h F' and obey
    v_{n+2} = alpha_n v_{n+1} + beta_n v_n; both sums take the terms
    smallest first, h F' as the sum of the tail sums sum_{m >= n} v_m.
    """
    n = np.arange(_TAYLOR_TERMS - 2.0)[:, None]
    s = a + b + 1.0
    ph = h / (z0 * (1.0 - z0))
    alpha = n * (-(1.0 - 2.0 * z0) * ph)
    alpha += -(c - s * z0) * ph
    alpha *= 1.0 / (n + 2.0)
    beta = (n * (n - 1.0 + s) + a * b) * (1.0 / ((n + 2.0) * (n + 1.0)))
    beta = beta * (ph * h)
    v = [x[0], x[1] * h]  # v[n] = v_n
    for i in range(_TAYLOR_TERMS - 2):
        nxt = alpha[i] * v[i + 1]
        nxt += beta[i] * v[i]
        v.append(nxt)
    f, df = v[-1].copy(), v[-1].copy()  # F and h F', as running tail sums
    for term in v[-2:0:-1]:
        f += term
        df += f
    f += v[0]
    df /= h
    return np.array([f, df]), v[-1]


_BASIS = np.eye(2, dtype=complex)[:, :, None]  # the columns (1, 0) and (0, 1)


class _Schedule:
    """The _steps of a list of polylines ("lanes"), flattened lane by lane,
    with the layout that carries all lanes step by step: lanes sorted by
    falling step count, so the lanes still moving at step i are a prefix."""

    def __init__(self, paths: list):
        self.paths = [[complex(z) for z in p] for p in paths]
        plans = [_steps(p) for p in self.paths]
        self.counts = counts = np.array([len(pl[0]) for pl in plans], dtype=int)
        self.z0 = np.array([z for pl in plans for z in pl[0]], dtype=complex)
        self.h = np.array([z for pl in plans for z in pl[1]], dtype=complex)
        self.seg = [j for pl in plans for j in pl[2]]
        self.lane = np.repeat(np.arange(len(plans)), counts)
        self.first = counts.cumsum() - counts
        self.order = np.argsort(-counts, kind="stable")
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(len(plans))
        self.at = np.arange(len(self.h)) - np.repeat(self.first, counts)
        width = int(counts.max(initial=0))
        self.moving = counts[self.order][None, :] > np.arange(width)[:, None]
        self.active = self.moving.sum(axis=1).tolist()

    def padded(self, x: np.ndarray) -> np.ndarray:
        """Per-step data x (..., S) laid out as (step, ..., lane)."""
        out = np.zeros((len(self.active), *x.shape[:-1], len(self.order)), dtype=x.dtype)
        out[self.at, ..., self.rank[self.lane]] = np.moveaxis(x, -1, 0)
        return out

    def flat(self, x: np.ndarray) -> np.ndarray:
        """Padded data x (step, ..., lane) back to per step (..., S)."""
        return np.moveaxis(x[self.at, ..., self.rank[self.lane]], 0, -1)


def _continue(a, b, c, lanes: _Schedule, start: Optional[tuple] = None,
              tol: float = 1e-12) -> tuple:
    """(F, F') of 2F1(a, b; c) at the end of each lane of the schedule,
    continued by Taylor steps of the Gauss ODE from start = (F, F') at the
    lane's first point, by default the direct series there.

    a, b, c and the entries of start are scalars or arrays of one entry per
    lane.  A first pass builds the transfer matrix M_i of every step of
    every lane (the local Taylor solutions of the basis (1, 0), (0, 1)) and
    carries the states x_i across all lanes at once.  The local series of
    the basis carry both solutions of the ODE, which at large parameters
    grow far beyond x before they cancel, and so does their rounding; so a
    second pass evaluates the local solution y_{i+1} = T_i(x_i) of every
    step at its state and carries the correction e_i = x'_i - x_i by
    e_{i+1} = M_i e_i + (y_{i+1} - x_{i+1}): exact as T_i is linear, and
    e is small, so the rounding of M_i no longer counts.  The tail check
    compares the last kept term of y_{i+1} with tol * max(1, |F|); where it
    fails, that step is halved and the lane re-planned from there, and
    ConvergenceError is raised if the half step fails too.  Every operation
    acts per step or per lane, so a lane's value is the same in any batch.
    """
    n_lanes = len(lanes.paths)
    prm = [np.broadcast_to(np.asarray(x, dtype=complex), (n_lanes,)) for x in (a, b, c)]
    shared = all((x == x[0]).all() for x in prm)
    if start is None:
        start = _series_seed(*prm, [pth[0] for pth in lanes.paths])
    state = np.array([np.broadcast_to(x, (n_lanes,)) for x in start], dtype=complex)
    ids = np.arange(n_lanes)  # the lanes of the schedule in state
    while True:
        sch = lanes

        def local(x):  # T_i(x_i) for every step, in blocks of steps
            out = np.empty(x.shape, dtype=complex)
            last = np.empty(x.shape[1:], dtype=complex)
            for lo in range(0, len(sch.h), _STEP_BLOCK):
                sl = slice(lo, lo + _STEP_BLOCK)
                out[..., sl], last[..., sl] = _taylor(
                    *(p[:1] if shared else p[ids][sch.lane[sl]] for p in prm),
                    sch.z0[sl], sch.h[sl], x[..., sl])
            return out, last

        def carry(x0, r=0.0):  # (step, 2, lane): x_{i+1} = M_i x_i + r_i
            out = np.empty((len(sch.active) + 1, 2, len(ids)), dtype=complex)
            out[0] = x0
            out[1:] = r
            for i, k in enumerate(sch.active):
                nxt = out[i + 1, :, :k]
                nxt += m0[i, :, :k] * out[i, 0, :k]
                nxt += m1[i, :, :k] * out[i, 1, :k]
            return out

        m = sch.padded(local(np.broadcast_to(_BASIS, (2, 2, len(sch.h))))[0])
        m0, m1 = m[:, :, 0].copy(), m[:, :, 1].copy()  # the columns of M_i
        xs = carry(state[:, ids[sch.order]])
        y, last = (sch.padded(v) for v in local(sch.flat(xs[:-1])))
        xc = xs + carry(0.0, y - xs[1:])  # x'_i = x_i + e_i
        bad = ~(np.abs(last) <= tol * np.maximum(1.0, np.abs(xc[1:, 0]))) & sch.moving
        failed = bad.any(axis=0)
        done = sch.order[~failed]
        state[:, ids[done]] = xc[sch.counts[done], :, sch.rank[done]].T
        if not failed.any():
            return state[0], state[1]
        # halve each failing lane's first failing step and re-plan from there
        redo = sch.order[failed]
        i = bad[:, failed].argmax(axis=0)
        g = sch.first[redo] + i
        z0, half = sch.z0[g], sch.h[g] / 2.0
        x0 = xc[i, :, failed].T
        nx, th = _taylor(*(p[:1] if shared else p[ids[redo]] for p in prm), z0, half, x0)
        if not (np.abs(th) <= tol * np.maximum(1.0, np.abs(nx[0]))).all():
            raise ConvergenceError("continuation step failed its tail check")
        ids = ids[redo]
        state[:, ids] = nx
        lanes = _Schedule([[z] + sch.paths[r][sch.seg[j]:] for r, j, z in
                           zip(redo.tolist(), g.tolist(), (z0 + half).tolist())])


def hyp2f1_continue(p: Hyp2F1Params, path: Sequence[complex],
                    start: Optional[tuple] = None, tol: float = 1e-12):
    """Analytic continuation of (2F1, 2F1') along a polyline of points.

    Starting values default to the direct series at path[0] (requires
    |path[0]| < 1).  The path is one lane of the batched Taylor-ODE engine,
    and its value equals that lane's in any batch, bit for bit: its steps
    never exceed 0.3 * dist(z, {0, 1}) and are fixed by the path alone, a
    step whose last kept term fails the tail check is halved, and
    ConvergenceError is raised if the path pinches a singular point or a
    half step fails too.
    """
    p = p if isinstance(p, Hyp2F1Params) else Hyp2F1Params(*p)
    pts = [complex(z) for z in path]
    if len(pts) < 2:
        raise DomainError("path needs at least two points")
    if start is None and abs(pts[0]) >= 0.95:
        raise DomainError("path must start inside the unit disk for series seeding")
    f, fp = _continue(p.a, p.b, p.c, _Schedule([pts]), start, tol=tol)
    return complex(f[0]), complex(fp[0])


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
    This is the one-case call of _geom_alpha_checks.
    """
    return _geom_alpha_checks([(alpha, t, convention)])[0]


def _geom_alpha_checks(cases: list) -> list:
    """geom_alpha_check for each (alpha, t, convention) of cases.  Every case
    is validated before any is evaluated; then all are seeded at z = -t in
    one series pass and their loops are the lanes of one continuation, so a
    report equals its one-case call, bit for bit."""
    centers = {"rotate": 1.0, "literal": -1.0}
    cases = [(complex(alpha), complex(t), conv) for alpha, t, conv in cases]
    for alpha, t, conv in cases:
        Hyp2F1Params(1.0, 1.0, alpha + 1.0)  # refuses a non-positive integer c
        if conv not in centers:
            raise DomainError(f"unknown convention {conv!r}")
        if abs(t) >= 0.95:
            raise DomainError("check needs |t| < 0.95")
    c = np.array([alpha + 1.0 for alpha, _, _ in cases])
    start = _series_seed(1.0, 1.0, c, np.array([-t for _, t, _ in cases]))
    loops = _Schedule([circle_path(centers[conv], -t, n=24) for _, t, conv in cases])
    f_end, _ = _continue(1.0, 1.0, c, loops, start)
    reports = []
    for (alpha, t, conv), f1, f0 in zip(cases, f_end.tolist(), start[0].tolist()):
        measured = f1 - f0
        claimed = 2j * math.pi * cmath.exp(1j * math.pi * alpha) / (1.0 + t)
        # branch of -t fixed as t e^{+i pi}, matching the counterclockwise loop
        derived = (2j * math.pi * alpha * cmath.exp(1j * math.pi * alpha)
                   * (1.0 + t) ** (alpha - 1.0)
                   * cpow(abs(t), cmath.phase(t) + math.pi, -alpha))
        reports.append({"convention": conv, "measured": measured,
                        "claimed_form": claimed, "derived_form": derived,
                        "residual_claimed": abs(measured - claimed),
                        "residual_derived": abs(measured - derived)})
    return reports
