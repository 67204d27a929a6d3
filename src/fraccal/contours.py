"""Tube-boundary geometry and adaptive complex path quadrature.

gamma(A) = {t : dist(t, (0,+inf)) = A}, two rays at Im t = +-A joined by
the left semicircle of radius A, is built here only: cut at Re t = T > A by
gamma_contour(A, T), unbounded in infinite_tube_boundary.  Orientation "ccw"
is positive: closed with the vertical segment at Re t = T, the curve winds
once counterclockwise around every point of the tube, so Cauchy-type
integrals come out with the usual sign (e.g. the residue check integral of
e^{-xi}/xi gives +2*pi*i).  The pieces run upper ray inward (the outward
ray reversed), cap through -A split at pi, lower ray out.  A segment has
point(s) and tangent(s, z=None), z = point(s) sparing an Arc a second exp.

integrate_path is an adaptive Gauss-Kronrod 7-15 scheme over the segments,
refined breadth-first from the two halves of every segment (depth 1): each
level maps the nodes of every open panel of every segment to one array and
calls the integrand once on it, so an integrand is a numpy expression in an
ndarray of points (wrap a scalar-only callable in np.vectorize).  The nodes
of a level are mapped one segment kind at a time (_SegmentStack): the
segments of a kind are stacked into one segment with array fields, whose
own point and tangent map all of their nodes in one numpy expression.
integrate_paths refines a family of integrals, such as one Laplace
transform at several zeta, in the same levels: one call f(z, which) per
level serves all of them, which[i] naming the path of z[i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, QuadratureError
from .utils import dist_to_positive_ray, require_tol

# QUADPACK dqk15 nodes and weights on [-1, 1]
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)
# the 15 nodes in panel-sum order (+x_i, then -x_i), their Kronrod weights,
# and the columns and weights of the Gauss nodes x_1, x_3, x_5, x_7 = 0
_PAIRS = [(i, sgn) for i, x in enumerate(_XGK)
          for sgn in ((1.0,) if x == 0.0 else (1.0, -1.0))]
_NODES = np.array([sgn * _XGK[i] for i, sgn in _PAIRS])
_K15 = np.array([_WGK[i] for i, _ in _PAIRS])
_G7_COLS = [j for j, (i, _) in enumerate(_PAIRS) if i % 2 == 1]
_G7 = np.array([_WG[_PAIRS[j][0] // 2] for j in _G7_COLS])
_LEVEL_PANELS = 1024  # open panels per integrand call at most
_H1_PROBES = 6  # dyadic probe points per ray of check_h1_decay


@dataclass(frozen=True)
class Line:
    z0: complex
    z1: complex

    def point(self, s):
        return self.z0 + (self.z1 - self.z0) * s

    def tangent(self, s, z=None):
        return self.z1 - self.z0  # constant, broadcasts against s


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def point(self, s):
        th = self.theta0 + (self.theta1 - self.theta0) * s
        return self.center + self.radius * np.exp(1j * th)

    def tangent(self, s, z=None):
        z = self.point(s) if z is None else z
        return 1j * (self.theta1 - self.theta0) * (z - self.center)


@dataclass(frozen=True)
class _PowerLine:
    """z0 + direction * (length * s^p); flattens an endpoint singularity."""

    z0: complex
    direction: complex
    length: float
    p: int

    def point(self, s):
        return self.z0 + self.direction * self.length * s ** self.p

    def tangent(self, s, z=None):
        return self.direction * self.length * self.p * s ** (self.p - 1)


@dataclass(frozen=True)
class InfiniteRay:
    """Ray z0 + direction * scale * s/(1-s); s in [0, 1) compresses [0, inf).

    Gauss-Kronrod nodes are interior, so s = 1 is never sampled; integrands
    must decay at least like |z|^{-1-eps} for the compressed integral to
    converge.
    """

    z0: complex
    direction: complex
    scale: float = 10.0

    def point(self, s):
        return self.z0 + self.direction * self.scale * s / (1.0 - s)

    def tangent(self, s, z=None):
        return self.direction * self.scale / (1.0 - s) ** 2


@dataclass(frozen=True)
class ReversedSegment:
    seg: object

    def point(self, s):
        return self.seg.point(1.0 - s)

    def tangent(self, s, z=None):
        return -self.seg.tangent(1.0 - s, z)


@dataclass(frozen=True)
class QuadratureSpec:
    tol: float = 1e-10
    max_depth: int = 16

    def __post_init__(self):
        require_tol(self.tol)
        if not self.max_depth >= 1:  # refinement starts at depth 1
            raise DomainError("max_depth must be >= 1")


@dataclass(frozen=True)
class NeighborhoodContour:
    """gamma(A) truncated at Re t = T, with ray decay hints for tail bounds."""

    A: float
    T: float
    orientation: str = "ccw"

    def __post_init__(self):
        if not 0 < self.A < math.inf:
            raise DomainError("A must be positive and finite")
        if not self.A < self.T < math.inf:
            raise DomainError("T must be finite and exceed A")
        if self.orientation not in ("ccw", "cw"):
            raise DomainError("orientation must be 'ccw' or 'cw'")

    def segments(self) -> list:
        return _tube_pieces(self.A, lambda z0: Line(z0, z0 + self.T), self.orientation)

    def ray_endpoints(self) -> tuple:
        return complex(self.T, self.A), complex(self.T, -self.A)

    def contains(self, t: complex) -> bool:
        return dist_to_positive_ray(t) < self.A and t.real < self.T


def _tube_pieces(A: float, ray: Callable, orientation: str) -> list:
    """gamma(A) as [upper ray, cap to pi, cap from pi, lower ray] (GK15 samples
    the cap at twice the rays' density), ray(z0) running out from z0 = +-iA."""
    segs = [ReversedSegment(ray(complex(0.0, A))),
            Arc(0.0, A, math.pi / 2.0, math.pi),
            Arc(0.0, A, math.pi, 3.0 * math.pi / 2.0), ray(complex(0.0, -A))]
    if orientation == "cw":
        segs = [s.seg if isinstance(s, ReversedSegment) else ReversedSegment(s)
                for s in reversed(segs)]
    elif orientation != "ccw":
        raise DomainError("orientation must be 'ccw' or 'cw'")
    return segs


def infinite_tube_boundary(A: float, orientation: str = "ccw",
                           scale: float = 10.0) -> list:
    """gamma(A) with untruncated rays (compressed parametrization); for
    integrands with algebraic decay where no finite T is adequate."""
    if not A > 0:
        raise DomainError("A must be positive")
    return _tube_pieces(A, lambda z0: InfiniteRay(z0, 1.0, scale), orientation)


def _require_in_tube(t, A: float, T: float = math.inf) -> complex:
    """complex(t), refused unless t is finite and lies inside gamma(A) cut
    at Re t = T."""
    t = complex(t)
    if not (math.isfinite(t.real) and math.isfinite(t.imag)):
        raise DomainError(f"t = {t} is not finite")
    if dist_to_positive_ray(t) >= A:
        raise DomainError(f"t = {t:.6g} is outside the tube of width {A:.4g}")
    if t.real >= T:
        raise DomainError(f"t = {t:.6g} lies beyond the truncation Re t = {T:.4g}")
    return t


def gamma_contour(A: float, T: float, orientation: str = "ccw") -> NeighborhoodContour:
    return NeighborhoodContour(A=A, T=T, orientation=orientation)


class IntegralResult(NamedTuple):
    value: complex
    err_est: float


# the kinds _SegmentStack stacks, each with its fields that stay scalars
# (numpy takes fast paths for a scalar power: s ** 2 is square(s))
_STACKED_KINDS = {Line: (), Arc: (), _PowerLine: ("p",), InfiniteRay: ()}


class _SegmentStack:
    """A list of segments grouped by kind, the fields of each group stacked.

    A group maps the nodes of all of its members as one segment of its kind
    whose fields are the members' stacked fields, reversed as often as they
    are, by that kind's own point and tangent.  So every node gets the
    operations, in the same order, that its segment applies to scalar
    fields, in the same float or complex arithmetic: members share a group
    only if each field is real in all of them or complex in all of them,
    and a field that stays a scalar has one value in all of them.  A
    segment of any other class is a group alone.
    """

    def __init__(self, segs: Sequence):
        groups = {}  # key: (number, [(segment number, its fields or itself)])
        self._group = np.empty(len(segs), dtype=int)
        for j, seg in enumerate(segs):
            flips, inner = 0, seg
            while isinstance(inner, ReversedSegment):
                flips, inner = flips + 1, inner.seg
            kind = type(inner)
            if kind in _STACKED_KINDS:
                fields = vars(inner)
                key = (kind, flips) + tuple(
                    (name, v if name in _STACKED_KINDS[kind]
                     else isinstance(v, (complex, np.complexfloating)))
                    for name, v in fields.items())
            else:
                key, fields = j, seg
            k, members = groups.setdefault(key, (len(groups), []))
            self._group[j] = k
            members.append((j, fields))
        self._segments = [self._stacked(key, members, len(segs))
                          for key, (_, members) in groups.items()]

    @staticmethod
    def _stacked(key, members: list, n: int) -> Callable:
        """The function (sel, ndim) -> one segment mapping the members
        numbered sel of group key at parameters of ndim dimensions."""
        if not isinstance(key, tuple):
            return lambda sel, ndim: members[0][1]
        kind, flips, *types = key
        scalars = {name: v for name, v in types if name in _STACKED_KINDS[kind]}
        numbers = [j for j, _ in members]
        columns = []  # (name, the field of segment j at j)
        for name, cplx in types:
            if name not in scalars:
                col = np.zeros(n, dtype=complex if cplx else float)
                col[numbers] = [fields[name] for _, fields in members]
                columns.append((name, col))

        def segment(sel, ndim):
            per_row = (slice(None),) + (None,) * (ndim - 1)
            seg = kind(**scalars, **{name: col[sel][per_row] for name, col in columns})
            for _ in range(flips):
                seg = ReversedSegment(seg)
            return seg
        return segment

    def map(self, seg_of: np.ndarray, s: np.ndarray) -> tuple:
        """Points z and tangents dz at the parameters s[i] (an array of any
        trailing shape per i) of segment seg_of[i]; a tangent is given its
        points."""
        z = np.empty(s.shape, dtype=complex)
        dz = np.empty(s.shape, dtype=complex)
        group = self._group[seg_of] if len(self._segments) > 1 else None
        for k, segment in enumerate(self._segments):
            rows = slice(None) if group is None else (group == k).nonzero()[0]
            u = s[rows]
            if len(u):
                seg = segment(seg_of[rows], s.ndim)
                z[rows] = w = seg.point(u)
                dz[rows] = seg.tangent(u, w)
        return z, dz


def _gk15_level(f: Callable, stack: _SegmentStack, member: np.ndarray,
                seg_of: np.ndarray, s0: np.ndarray, s1: np.ndarray,
                arclength: bool) -> tuple:
    """GK15 value and error estimate of every panel [s0, s1] of segment
    seg_of of the stack, from one integrand call on all of their nodes;
    member[j] is the path that segment j belongs to."""
    mid = 0.5 * (s0 + s1)
    half = 0.5 * (s1 - s0)
    s = mid[:, None] + half[:, None] * _NODES
    z, dz = stack.map(seg_of, s)
    which = np.repeat(member[seg_of], len(_NODES))
    vals = (f(z.ravel(), which) * (np.abs(dz) if arclength else dz).ravel()).reshape(s.shape)
    # sequential sums in node order, as a scalar panel loop adds them
    fk = (vals * _K15).cumsum(axis=1)[:, -1] * half
    fg = (vals[:, _G7_COLS] * _G7).cumsum(axis=1)[:, -1] * half
    return fk, np.abs(fk - fg)


def _halves(first: int, seg_of: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            depth: int) -> list:
    """The children [lo, mid] and [mid, hi] of the panels [lo, hi], numbered
    from first in that order, as runs (first number, segments, s0, s1,
    depth) of at most _LEVEL_PANELS panels, the leftmost run last: it is
    taken next."""
    mid = 0.5 * (lo + hi)
    seg_of = np.repeat(seg_of, 2)
    s0, s1 = np.empty(2 * len(lo)), np.empty(2 * len(lo))
    s0[0::2], s0[1::2] = lo, mid
    s1[0::2], s1[1::2] = mid, hi
    return [(first + i, seg_of[i:i + _LEVEL_PANELS], s0[i:i + _LEVEL_PANELS],
             s1[i:i + _LEVEL_PANELS], depth)
            for i in reversed(range(0, len(s0), _LEVEL_PANELS))]


def integrate_paths(f: Callable, paths: Sequence, specs: Sequence[QuadratureSpec],
                    arclength: bool = False) -> list:
    """Integrate one integrand family along several paths in lock-step.

    f(z, which) takes an ndarray of complex points and an equally long
    integer array, which[i] being the index in paths of the path that z[i]
    lies on, and returns their values (a constant may come back as a
    scalar).  Returns one IntegralResult per path; specs[k] applies to
    paths[k].

    Refinement is breadth-first and shared: every level evaluates the open
    panels of all segments of all paths in one call.  It starts at depth 1,
    from the two halves of every segment: the depth-0 panel [0, 1] of a
    segment is never evaluated, its value and error being the sums of its
    halves', since a GK15 panel over a whole segment is rarely accepted.  A
    panel at depth d of path k is accepted when its error estimate is at
    most max(tol_seg / 2^d, 2e-16 (1 + |value|)), tol_seg = specs[k].tol /
    #segments of path k, otherwise it is halved; QuadratureError is raised
    for a panel at specs[k].max_depth that is not accepted.  Accepted values
    are summed child pair by child pair, as a depth-first recursion would,
    then segment by segment.  Every panel of path k is therefore decided and
    summed as in an integration of path k alone, so each result equals the
    one-path result exactly.  A level of more than _LEVEL_PANELS open
    panels is cut into runs of that many, taken depth-first from the left,
    so an integral that never converges fails at the panel the recursion
    fails at, after bounded work.  The nodes of every level are mapped by a
    _SegmentStack built once per call, one numpy expression per segment
    kind.  arclength=True integrates against |dt| instead of dt.
    """
    paths = [p.segments() if isinstance(p, NeighborhoodContour) else list(p)
             for p in paths]
    if len(specs) != len(paths):
        raise DomainError(f"{len(specs)} specs for {len(paths)} paths")
    segs = [seg for p in paths for seg in p]
    stack = _SegmentStack(segs)
    member = np.repeat(np.arange(len(paths)), [len(p) for p in paths])
    seg_tol = np.array([specs[k].tol / len(paths[k]) for k in member.tolist()])
    seg_depth = np.array([specs[k].max_depth for k in member.tolist()], dtype=int)
    n = len(segs)  # panels numbered in the order they are made
    # per run: first number, values, errors, first child's number or -1; the
    # depth-0 panels 0..n-1 are their children's sums, set below
    done = [(0, np.zeros(n, dtype=complex), np.zeros(n), np.arange(n, 3 * n, 2))]
    # runs of open panels at one depth: (first number, segments, s0, s1, depth)
    todo = _halves(n, np.arange(n), np.zeros(n), np.ones(n), 1)
    n *= 3
    while todo:
        first, seg_of, s0, s1, depth = todo.pop()
        val, err = _gk15_level(f, stack, member, seg_of, s0, s1, arclength)
        tol = seg_tol[seg_of] / 2.0 ** depth
        split = ~(err <= np.maximum(tol, 2e-16 * (1.0 + np.abs(val))))
        stuck = split & (depth >= seg_depth[seg_of])
        if stuck.any():
            i = int(stuck.argmax())
            where = f" of path {member[seg_of[i]]}" if len(paths) > 1 else ""
            raise QuadratureError(
                f"max_depth exceeded on segment piece [{s0[i]:.4g}, {s1[i]:.4g}]"
                f"{where} (err {err[i]:.3e} vs tol {tol[i]:.3e})")
        n_split = np.count_nonzero(split)
        child = np.full(len(s0), -1)
        child[split] = np.arange(n, n + 2 * n_split, 2)
        done.append((first, val, err, child))
        todo += _halves(n, seg_of[split], s0[split], s1[split], depth + 1)
        n += 2 * n_split
    vals, errs = np.empty(n, dtype=complex), np.empty(n)
    for first, val, err, _ in done:
        vals[first:first + len(val)], errs[first:first + len(val)] = val, err
    for first, _, _, child in reversed(done):  # children are numbered after parents
        split = np.flatnonzero(child >= 0) + first
        left = child[child >= 0]
        vals[split] = vals[left] + vals[left + 1]
        errs[split] = errs[left] + errs[left + 1]
    out = []
    lo = 0
    for p in paths:
        total = 0.0 + 0.0j
        err_total = 0.0
        for v, e in zip(vals[lo:lo + len(p)].tolist(), errs[lo:lo + len(p)].tolist()):
            total += v
            err_total += e
        out.append(IntegralResult(total, err_total))
        lo += len(p)
    return out


def integrate_path(f: Callable, path, spec: Optional[QuadratureSpec] = None,
                   decay_rate: Optional[float] = None,
                   arclength: bool = False) -> IntegralResult:
    """Integrate f along a path (a NeighborhoodContour or segment list).

    f takes an ndarray of complex points and returns their values (a
    constant may come back as a scalar).  This is integrate_paths with one
    path; see there for the refinement, which starts from the halves of
    every segment at depth 1, and its QuadratureError.

    decay_rate r certifies |f| <~ |f(endpoint)| e^{-r (Re t - T)} beyond the
    ray truncation; the implied tail bound |f(end)| / r per ray is folded
    into err_est.  arclength=True integrates against |dt| instead of dt.
    """
    if decay_rate and decay_rate < 0:
        raise PreconditionError("decay certificate must be positive")
    total, err_total = integrate_paths(lambda z, which: f(z), [path],
                                       [spec or QuadratureSpec()], arclength)[0]
    if decay_rate and isinstance(path, NeighborhoodContour):
        ends = np.array(path.ray_endpoints(), dtype=complex)
        for v in np.broadcast_to(f(ends), ends.shape):
            err_total += float(abs(v)) / decay_rate
    return IntegralResult(total, err_total)


def cauchy_eval(F: Callable[[np.ndarray], np.ndarray], a: float, t: complex,
                T: Optional[float] = None,
                spec: Optional[QuadratureSpec] = None) -> complex:
    """Reproduce F(t) from its boundary values:
    (1/2*pi*i) \\oint_{gamma(a)} (1 - t/xi)^{-1} F(xi)/xi dxi.

    F must be integrable against |dxi|/|xi| on gamma(a) (Hardy-type
    condition, checked crudely via the sampled ray decay); t must lie in the
    open tube of width a.  F is evaluated on ndarrays of boundary points.
    """
    return _single_integral(lambda xi: F(xi) / (xi - t), F, a, t,
                            spec or QuadratureSpec(tol=1e-11), T)


def _single_integral(integrand, F, a: float, t: complex, spec: QuadratureSpec,
                     T: Optional[float] = None) -> complex:
    """(1/2 pi i) \\oint_{gamma(a)} integrand(xi) dxi on the untruncated boundary for a
    single-integral form of F at t; refuses t outside the open tube of width a, and F
    if sampled |F| does not decay along the rays out to T (default max(40, 4|t| + 10a))."""
    t = _require_in_tube(t, a)
    check_h1_decay(F, gamma_contour(a, T if T is not None else
                                    max(40.0, 4.0 * abs(t) + 10.0 * a)))
    segs = infinite_tube_boundary(a, scale=max(10.0, 2.0 * abs(t)))
    val, _ = integrate_path(integrand, segs, spec)
    return val / (2j * math.pi)


def check_h1_decay(F, contour: NeighborhoodContour) -> None:
    """Sampled check that the boundary integrand of the Hardy-type norm is
    summable: |F| must decay along the rays (the measure |dxi|/|xi| alone is
    only logarithmically convergent).  Raises PreconditionError."""
    A, T = contour.A, contour.T
    # geometric probe spacing so each sample stands for one dyadic block
    n = _H1_PROBES
    xs = [A + (T - A) * 2.0 ** (k - n + 1) for k in range(n)]
    pts = np.array([complex(x, sign * A) for sign in (1.0, -1.0) for x in xs])
    values = np.broadcast_to(F(pts), pts.shape).tolist()
    for vals in (values[:n], values[n:]):
        vals = [abs(v) for v in vals]
        head = sum(vals[: n // 2]) / (n // 2)
        tail = sum(vals[n // 2:]) / (n - n // 2)
        if tail > 0.8 * head + 1e-12:
            raise PreconditionError(
                "sampled |F| does not decay along the rays; the Hardy-type "
                "boundary integral looks divergent")
