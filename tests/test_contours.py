import cmath
import math
import random

import numpy as np
import pytest

import fraccal
from fraccal import contours
from fraccal.contours import (Arc, InfiniteRay, Line, NeighborhoodContour,
                              QuadratureSpec, ReversedSegment, _PowerLine,
                              cauchy_eval, check_h1_decay,
                              gamma_contour, infinite_tube_boundary,
                              integrate_path, integrate_paths)
from fraccal.errors import DomainError, PreconditionError, QuadratureError
from fraccal.utils import dist_to_positive_ray


def test_contour_geometry():
    c = gamma_contour(1.0, 10.0)
    pts = [seg.point(s) for seg in c.segments() for s in (0.0, 0.31, 0.77, 1.0)]
    for p in pts:
        assert abs(dist_to_positive_ray(p) - 1.0) < 1e-12
    assert min(p.real for p in pts) == pytest.approx(-1.0)
    assert c.contains(0.5) and not c.contains(-2.0)


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(tol=1e-15)
    with pytest.raises(DomainError):
        gamma_contour(1.0, 0.5)
    with pytest.raises(DomainError):
        NeighborhoodContour(A=-1.0, T=2.0)


def test_max_depth_below_one_is_refused():
    # refinement starts at depth 1, so a cap below it means nothing
    for depth in (0, -1):
        with pytest.raises(DomainError, match="max_depth"):
            QuadratureSpec(max_depth=depth)
    spec = QuadratureSpec(tol=1e-12, max_depth=1)
    val, _ = integrate_path(lambda z: z ** 3, [Line(0.0, 1.0)], spec)
    assert abs(val - 0.25) <= 1e-15
    with pytest.raises(QuadratureError, match=r"\[0, 0.5\]"):
        integrate_path(lambda z: 1.0 / ((z - 0.3) ** 2 + 1e-4), [Line(0.0, 1.0)], spec)


def test_residue_integral():
    c = gamma_contour(1.0, 41.0)
    res, err = integrate_path(lambda z: np.exp(-z) / z, c,
                              QuadratureSpec(tol=1e-12), decay_rate=1.0)
    assert abs(res - 2j * math.pi) < 1e-10
    assert err < 1e-6


def test_zero_linearity_reversal():
    c = gamma_contour(1.0, 30.0)
    spec = QuadratureSpec(tol=1e-12)
    z0, _ = integrate_path(lambda z: 0.0, c, spec)
    assert z0 == 0.0
    f = lambda z: np.exp(-z) * z
    v1, _ = integrate_path(f, c, spec, decay_rate=1.0)
    v2, _ = integrate_path(lambda z: 2.0 * f(z), c, spec, decay_rate=1.0)
    assert abs(v2 - 2.0 * v1) < 1e-13
    rev, _ = integrate_path(f, gamma_contour(1.0, 30.0, "cw"), spec, decay_rate=1.0)
    assert abs(rev + v1) < 1e-12


def test_path_independence():
    f = lambda z: np.exp(-1.3 * z) / (1.0 + z) ** 2
    spec = QuadratureSpec(tol=1e-12)
    ia, _ = integrate_path(f, gamma_contour(0.3, 35.0), spec, decay_rate=1.3)
    ib, _ = integrate_path(f, gamma_contour(0.7, 35.0), spec, decay_rate=1.3)
    assert abs(ia - ib) <= 1e-9


def test_cauchy_eval():
    F = lambda x: x / (1.0 + x * x) ** 2
    assert abs(cauchy_eval(F, 0.5, 0.2) - F(0.2)) <= 1e-9
    assert abs(cauchy_eval(F, 0.5, 0.0) - F(0.0)) <= 1e-12
    c = 2.0 - 1.5j
    scaled = cauchy_eval(lambda x: c * F(x), 0.5, 0.3)
    assert abs(scaled - c * cauchy_eval(F, 0.5, 0.3)) <= 1e-10
    with pytest.raises(DomainError):
        cauchy_eval(F, 0.5, -1.0)


def test_h1_precondition():
    with pytest.raises(PreconditionError):
        check_h1_decay(lambda z: 1.0, gamma_contour(0.5, 40.0))
    # decaying function passes
    check_h1_decay(lambda z: 1.0 / (1.0 + z) ** 2, gamma_contour(0.5, 40.0))


def test_err_est_covers_true_error():
    # closed-form oracle: int_0^1 x e^{i w x} dx, err_est should bound the
    # true error in at least 95% of randomized trials
    rng = random.Random(31)
    covered = 0
    trials = 40
    for _ in range(trials):
        w = rng.uniform(0.5, 40.0)
        f = lambda x: x * np.exp(1j * w * x)
        ref = (cmath.exp(1j * w) / (1j * w)
               - (cmath.exp(1j * w) - 1.0) / (1j * w) ** 2)
        val, err = integrate_path(f, [Line(0.0, 1.0)], QuadratureSpec(tol=1e-9))
        if abs(val - ref) <= max(err, 1e-15):
            covered += 1
    assert covered >= 0.95 * trials


@pytest.mark.parametrize("pieces", [
    lambda o: gamma_contour(0.5, 6.0, o).segments(),
    lambda o: infinite_tube_boundary(0.5, o, scale=3.0)])
def test_tube_pieces_join_up_and_reverse(pieces):
    s = np.array([0.05, 0.2, 0.7, 0.95])
    ccw, cw = pieces("ccw"), pieces("cw")
    assert len(ccw) == len(cw) == 4
    for a, b in zip(ccw, ccw[1:]):  # upper ray in, cap halves, lower ray out
        assert abs(a.point(1.0) - b.point(0.0)) < 1e-15
    assert abs(ccw[1].point(1.0) + 0.5) < 1e-15
    for fwd, back in zip(ccw, reversed(cw)):  # cw walks the same pieces back
        assert np.allclose(back.point(1.0 - s), fwd.point(s), rtol=0, atol=1e-15)
        assert np.allclose(back.tangent(1.0 - s), -fwd.tangent(s), rtol=1e-15)
    with pytest.raises(DomainError):
        pieces("up")


def test_arc_tangent_reuses_the_point():
    arc = Arc(0.3 - 0.1j, 0.7, 0.4, 2.9)
    s = np.linspace(0.0, 1.0, 11)
    z = arc.point(s)
    th = 0.4 + 2.5 * s
    exact = 1j * 0.7 * 2.5 * np.exp(1j * th)
    assert np.allclose(arc.tangent(s, z), exact, rtol=1e-15, atol=0)
    assert np.array_equal(arc.tangent(s), arc.tangent(s, z))


def test_infinite_rays():
    segs = infinite_tube_boundary(0.5)
    val, _ = integrate_path(lambda z: 1.0 / (z * (1.0 + z ** 2)), segs,
                            QuadratureSpec(tol=1e-11))
    # winds once around 0; poles at +-i lie outside the tube:
    # residue at 0 of 1/(z (1+z^2)) is 1
    assert abs(val - 2j * math.pi) < 1e-9


# --- breadth-first refinement against a depth-first GK15 reference ----------

_RX = (0.991455371120813, 0.949107912342759, 0.864864423359769,
       0.741531185599394, 0.586087235467691, 0.405845151377397,
       0.207784955007898, 0.0)
_RWK = (0.022935322010529, 0.063092092629979, 0.104790010322250,
        0.140653259715525, 0.169004726639267, 0.190350578064785,
        0.204432940075298, 0.209482141084728)
_RWG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)


def _ref_panel(f, seg, s0, s1):
    """One GK15 panel, nodes in the order +x_i, -x_i, summed in that order."""
    mid, half = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
    nodes, wk, wg = [], [], []
    for i, x in enumerate(_RX):
        for sgn in ((1.0,) if x == 0.0 else (1.0, -1.0)):
            nodes.append(mid + sgn * half * x)
            wk.append(_RWK[i])
            wg.append(_RWG[i // 2] if i % 2 == 1 else 0.0)
    s = np.array(nodes)
    vals = f(np.asarray(seg.point(s), dtype=complex)) * seg.tangent(s)
    fk = sum(w * v for w, v in zip(wk, vals)) * half
    fg = sum(w * v for w, v in zip(wg, vals) if w) * half
    return fk, abs(fk - fg)


def _ref_adaptive(f, seg, s0, s1, tol, depth, max_depth, stats):
    stats["panels"] += 1
    stats["depth"] = max(stats["depth"], depth)
    val, err = _ref_panel(f, seg, s0, s1)
    if err <= max(tol, 2e-16 * (1.0 + abs(val))):
        return val, err
    if depth >= max_depth:
        raise QuadratureError(
            f"max_depth exceeded on segment piece [{s0:.4g}, {s1:.4g}] "
            f"(err {err:.3e} vs tol {tol:.3e})")
    sm = 0.5 * (s0 + s1)
    v1, e1 = _ref_adaptive(f, seg, s0, sm, tol / 2.0, depth + 1, max_depth, stats)
    v2, e2 = _ref_adaptive(f, seg, sm, s1, tol / 2.0, depth + 1, max_depth, stats)
    return v1 + v2, e1 + e2


def _ref_integrate(f, segs, spec):
    """The recursion from the halves of every segment at depth 1."""
    stats = {"panels": 0, "depth": 0}
    total, err = 0.0 + 0.0j, 0.0
    for seg in segs:
        tol = spec.tol / len(segs) / 2.0
        v1, e1 = _ref_adaptive(f, seg, 0.0, 0.5, tol, 1, spec.max_depth, stats)
        v2, e2 = _ref_adaptive(f, seg, 0.5, 1.0, tol, 1, spec.max_depth, stats)
        total += v1 + v2
        err += e1 + e2
    return total, err, stats


def _counting(f):
    seen = []

    def g(z):
        seen.append(len(z))
        return f(z)
    return g, seen


@pytest.mark.parametrize("case, tol", [("peak", 1e-10), ("contour", 1e-12),
                                       ("endpoint", 1e-12)])
def test_breadth_first_matches_recursive_gk15(case, tol, monkeypatch):
    if case == "peak":  # a Lorentzian of width 0.01 on [0, 1]: depth 8
        f = lambda z: 1.0 / ((z - 0.3) ** 2 + 1e-4)
        segs = [Line(0.0, 1.0)]
    elif case == "contour":  # four segments of two kinds: depth 7
        f = lambda z: np.exp(-1.3 * z) / (1.0 + z) ** 2
        segs = gamma_contour(0.3, 35.0).segments()
    else:  # z^{5/2} at the endpoint 0: depth 6
        f = lambda z: z ** 2.5 * np.exp(1j * z)
        segs = [Line(0.0, 0.5), Line(0.5, 2.0)]
    spec = QuadratureSpec(tol=tol)
    ref, ref_err, stats = _ref_integrate(f, segs, spec)
    g, seen = _counting(f)
    val, err = integrate_path(g, segs, spec)
    assert stats["depth"] >= 4
    assert sum(seen) == 15 * stats["panels"]
    assert len(seen) == stats["depth"]  # one integrand call per level from 1
    assert abs(val - ref) <= 1e-15 * abs(ref)
    assert abs(err - ref_err) <= 1e-15 * ref_err + 1e-300
    # a level split over several integrand calls gives the same sums
    monkeypatch.setattr(contours, "_LEVEL_PANELS", 3)
    assert integrate_path(f, segs, spec) == (val, err)


class _Parabola:
    """A segment of a class _SegmentStack does not stack."""

    def point(self, s):
        return (1.0 + 2j) * s ** 2

    def tangent(self, s, z=None):
        return (2.0 + 4j) * s


# every kind with real and complex fields, int fields and several exponents
_KINDS = [
    Line(0.0, 1.0), Line(2, 5), Line(-7.0, -9.0), Line(0.3j, 2.0 - 0.3j),
    Line(1.0, 1.0 + 2j), Line(-0.5, 4.0),
    Arc(0.0, 0.5, math.pi / 2.0, math.pi), Arc(10.0, 1.0, 0.0, math.pi),
    Arc(0.3 - 0.1j, 0.7, 2.9, 0.4),
    _PowerLine(0.0, 1.0, 1.0, 2), _PowerLine(1.0, -1.0, 0.5, 3),
    _PowerLine(1j, 1.0 + 1j, 2.0, 2), _PowerLine(-6.0, -1.0, 1.0, 4),
    _PowerLine(0.0, 1.0, 0.5, 2.0),
    InfiniteRay(0.5j, 1.0, 10.0), InfiniteRay(20j, 1j, 5.0),
    InfiniteRay(-0.5j, 1.0, 3.0), InfiniteRay(1.0, cmath.exp(0.3j), 2.0),
    _Parabola(),
]


@pytest.mark.parametrize("ndim", [1, 2])
def test_stacked_mapping_equals_each_kinds_map(ndim):
    segs = (_KINDS + [ReversedSegment(seg) for seg in _KINDS]
            + [ReversedSegment(ReversedSegment(_KINDS[3]))])
    rng = np.random.default_rng(5)
    seg_of = rng.permutation(np.repeat(np.arange(len(segs)), 3))
    if ndim == 1:
        s = rng.uniform(0.01, 0.99, len(seg_of))
    else:  # GK15 panels, as a quadrature level lays them out
        s0 = rng.uniform(0.0, 0.9, len(seg_of))
        s1 = s0 + rng.uniform(0.001, 0.1, len(seg_of))
        s = 0.5 * (s0 + s1)[:, None] + 0.5 * (s1 - s0)[:, None] * contours._NODES
    z, dz = contours._SegmentStack(segs).map(seg_of, s)
    for j, seg in enumerate(segs):
        rows = seg_of == j
        ref = np.empty(s[rows].shape, dtype=complex)
        ref[:] = seg.point(s[rows])
        ref_dz = np.empty(ref.shape, dtype=complex)
        ref_dz[:] = seg.tangent(s[rows], ref)
        assert repr(z[rows].tolist()) == repr(ref.tolist()), seg
        assert repr(dz[rows].tolist()) == repr(ref_dz.tolist()), seg


def test_no_integrand_call_sees_a_depth_0_panel(monkeypatch):
    panels = []
    level = contours._gk15_level

    def spy(f, stack, member, seg_of, s0, s1, arclength):
        panels.append((seg_of, s0, s1))
        return level(f, stack, member, seg_of, s0, s1, arclength)

    monkeypatch.setattr(contours, "_gk15_level", spy)
    g, seen = _counting(lambda z: np.exp(-1.3 * z) / (1.0 + z) ** 2)
    integrate_path(g, gamma_contour(0.3, 35.0), QuadratureSpec(tol=1e-12))
    assert len(seen) == len(panels) >= 4
    assert all(np.all(s1 - s0 <= 0.5) for _, s0, s1 in panels)
    # the first level is the two halves of every segment
    seg_of, s0, s1 = panels[0]
    assert seg_of.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    assert s0.tolist() == [0.0, 0.5] * 4 and s1.tolist() == [0.5, 1.0] * 4
    assert seen[0] == 15 * 8


@pytest.mark.parametrize("f, exact", [(lambda z: z ** 3 - 2.0 * z, -0.75),
                                      (np.exp, math.e - 1.0)])
def test_segments_once_accepted_whole_meet_their_tol(f, exact):
    # GK15 accepts either integrand over the whole of [0, 1]; each now
    # starts from the halves, with half the tolerance, and is accepted there
    tol = 1e-13
    stack, zero = contours._SegmentStack([Line(0.0, 1.0)]), np.zeros(1, dtype=int)
    _, whole_err = contours._gk15_level(lambda z, k: f(z), stack, zero, zero,
                                        np.zeros(1), np.ones(1), False)
    assert whole_err[0] <= tol
    g, seen = _counting(f)
    val, err = integrate_path(g, [Line(0.0, 1.0)], QuadratureSpec(tol=tol))
    assert seen == [30]
    assert abs(val - exact) <= tol and err <= tol


@pytest.mark.parametrize("case", ["pole", "noise"])
def test_breadth_first_raises_where_the_recursion_does(case):
    if case == "pole":  # 1/(z - 0.3) is not integrable
        f = lambda z: 1.0 / (z - 0.3)
        spec = QuadratureSpec(tol=1e-10, max_depth=8)
    else:  # noise above the tolerance: every panel splits down to max_depth
        f = lambda z: 1.0 + 1e-6 * np.sin(1e7 * z.real)
        spec = QuadratureSpec(tol=1e-12, max_depth=16)
    with pytest.raises(QuadratureError) as ref:
        _ref_integrate(f, [Line(0.0, 1.0)], spec)
    g, seen = _counting(f)
    with pytest.raises(QuadratureError) as got:
        integrate_path(g, [Line(0.0, 1.0)], spec)
    # both give up on the same piece; past _LEVEL_PANELS open panels a level
    # is taken in runs from the left, so not all 2^16 panels are evaluated
    assert str(got.value) == str(ref.value)
    assert sum(seen) <= 15 * contours._LEVEL_PANELS * (spec.max_depth + 2)


# --- families of integrals refined in lock-step -----------------------------

# (integrand, path, spec, integrand calls of the path alone); the paths lie
# in disjoint regions, told apart by _region
_FAMILY = [
    # a cubic: GK15 is exact, every panel is accepted at level 1
    (lambda z: z ** 3 - 2.0 * z, [Line(2.0, 2.4), Line(2.4, 3.0)],
     QuadratureSpec(tol=1e-12), 1),
    # a Lorentzian of width 0.01 on [0, 1]: depth 8
    (lambda z: 1.0 / ((z - 0.3) ** 2 + 1e-4), [Line(0.0, 1.0)],
     QuadratureSpec(tol=1e-10), 8),
    (lambda z: np.exp(1j * z) / z, [Arc(10.0, 1.0, 0.0, math.pi),
                                    Arc(10.0, 1.0, math.pi, 2.0 * math.pi)],
     QuadratureSpec(tol=1e-11), None),
    (lambda z: 1.0 / z ** 2, [InfiniteRay(20j, 1j, 5.0)],
     QuadratureSpec(tol=1e-9), None),
    # (z + 6)^{-1/2}, flattened at z = -6 by the power substitution
    (lambda z: (z + 6.0) ** -0.5 * np.exp(z + 6.0),
     [_PowerLine(-6.0, -1.0, 1.0, 2), Line(-7.0, -9.0), Line(-9.0, -12.0)],
     QuadratureSpec(tol=1e-12, max_depth=20), None),
]


def _region(z):
    """The member of _FAMILY whose path passes through z, else -1."""
    if z.real <= -5.0:
        return 4
    if z.imag >= 20.0:
        return 3
    if abs(abs(z - 10.0) - 1.0) < 1e-9:
        return 2
    if abs(z.imag) < 1e-12:
        return 0 if z.real >= 2.0 else 1
    return -1


def test_integrate_paths_matches_single_paths():
    singles = []
    for fk, path, spec, n_calls in _FAMILY:
        g, seen = _counting(fk)
        singles.append(integrate_path(g, path, spec))
        if n_calls is not None:
            assert len(seen) == n_calls
    calls = []

    def f(z, which):
        calls.append(len(z))
        assert which.shape == z.shape and which.dtype.kind == "i"
        assert [_region(zi) for zi in z.tolist()] == which.tolist()
        out = np.empty(z.shape, dtype=complex)
        for k, (fk, *_) in enumerate(_FAMILY):
            out[which == k] = fk(z[which == k])
        return out

    got = integrate_paths(f, [p for _, p, _, _ in _FAMILY],
                          [s for _, _, s, _ in _FAMILY])
    # one integrand call per level, as many levels as the deepest member
    assert len(calls) == 8
    assert len(got) == len(_FAMILY)
    for res, ref in zip(got, singles):
        assert repr(res.value) == repr(ref.value)
        assert repr(res.err_est) == repr(ref.err_est)


def test_integrate_paths_edge_cases():
    assert fraccal.integrate_paths is integrate_paths
    spec = QuadratureSpec()
    assert integrate_paths(lambda z, k: z, [], []) == []
    res = integrate_paths(lambda z, k: 1.0, [[], gamma_contour(1.0, 5.0)], [spec] * 2)
    assert res[0] == (0.0, 0.0)
    assert res[1] == integrate_path(lambda z: 1.0, gamma_contour(1.0, 5.0))
    with pytest.raises(DomainError):
        integrate_paths(lambda z, k: z, [[Line(0.0, 1.0)]], [])


def test_integrate_paths_non_converging_member():
    paths = [[Line(0.0, 1.0)], [Line(0.0, 1.0), Line(1.0, 2.0)], [Line(0.0, 1.0)]]
    specs = [QuadratureSpec(tol=1e-12), QuadratureSpec(tol=1e-10, max_depth=8),
             QuadratureSpec(tol=1e-12)]
    seen = []

    def f(z, which):
        seen.append(len(z))
        # member 1 carries 1/(z - 0.3), which is not integrable
        return np.where(which == 1, 1.0 / (z - 0.3), np.exp(-z))

    with pytest.raises(QuadratureError, match="of path 1"):
        integrate_paths(f, paths, specs)
    assert len(seen) <= specs[1].max_depth + 1
    assert sum(seen) <= 15 * contours._LEVEL_PANELS * (specs[1].max_depth + 2)
