import cmath
import math
import random
import sys
import threading
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraccal import hyp
from fraccal.errors import (BudgetError, ConvergenceError, DegenerateCaseError,
                            DomainError)
from fraccal.fracops import _deriv_kernel
from fraccal.gammafn import gamma
from fraccal.hyp import (Hyp2F1Params, PFQParams, circle_path,
                         connection_coefficient, euler_ltf_check,
                         geom_alpha_check, hyp2f1, hyp2f1_continue, hyp_pfq,
                         monodromic_jump_2f1, _series_seed)

mp.mp.dps = 30


def test_geometric_case():
    p = Hyp2F1Params(1, 1, 1)
    z = 0.3 + 0.1j
    assert abs(hyp2f1(p, z) - 1.0 / (1.0 - z)) <= 1e-12 / abs(1 - z)


def test_value_at_half():
    # independent oracle: raw series summation
    acc, term = 0.0, 1.0
    a = b = 0.5
    for k in range(200):
        acc += term
        term *= (a + k) * (b + k) / ((1.0 + k) * (k + 1.0)) * 0.5
    got = hyp2f1(Hyp2F1Params(0.5, 0.5, 1.0), 0.5)
    assert abs(got - acc) < 1e-14
    assert abs(got - 1.1803405990160332) < 1e-9


def test_empty_sum_and_terminating():
    assert hyp2f1(Hyp2F1Params(0.3, -1.2, 2.0), 0.0) == 1.0
    # a = -2 terminates: polynomial valid far outside the disk
    p = Hyp2F1Params(-2.0, 0.7, 1.3)
    z = 5.0 + 2.0j
    ref = complex(mp.hyp2f1(-2, 0.7, 1.3, z))
    assert abs(hyp2f1(p, z) - ref) < 1e-12 * abs(ref)


def test_continuation_matches_mpmath():
    rng = random.Random(19)
    worst = 0.0
    for _ in range(120):
        a = complex(rng.uniform(-2, 3), rng.uniform(-0.8, 0.8))
        b = complex(rng.uniform(-2, 3), rng.uniform(-0.8, 0.8))
        c = complex(rng.uniform(0.3, 4), rng.uniform(-0.8, 0.8))
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2, 2))
        if abs(z) < 0.05 or abs(z - 1) < 0.05:
            continue
        if z.imag == 0:
            z += 1e-12j
        got = hyp2f1(Hyp2F1Params(a, b, c), z)
        ref = complex(mp.hyp2f1(a, b, c, z))
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-8))
    assert worst < 5e-11


def test_logarithmic_cases():
    rng = random.Random(23)
    for m in (0, 1, 2, -1):
        a = complex(rng.uniform(0.2, 2), rng.uniform(-0.4, 0.4))
        b = complex(rng.uniform(0.2, 2), rng.uniform(-0.4, 0.4))
        c = a + b + m
        z = 0.8 + 0.3j
        got = hyp2f1(Hyp2F1Params(a, b, c), z)
        ref = complex(mp.hyp2f1(a, b, c, z))
        assert abs(got - ref) / abs(ref) < 1e-11


def test_cut_sides():
    p = Hyp2F1Params(0.4, 0.9, 1.7)
    x = 1.5
    for side in (1, -1):
        got = hyp2f1(p, x, side=side)
        ref = complex(mp.hyp2f1(0.4, 0.9, 1.7, mp.mpc(x, side * 1e-25)))
        assert abs(got - ref) < 1e-12 * abs(ref)
    with pytest.raises(DomainError):
        hyp2f1(p, x)  # side required on the cut


def test_c_validation():
    with pytest.raises(DomainError):
        Hyp2F1Params(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        Hyp2F1Params(1.0, 1.0, -3.0)


def test_euler_ltf_check_examples():
    assert euler_ltf_check(Hyp2F1Params(0.3, 0.7, 1.9), 0.4) <= 1e-11
    assert euler_ltf_check(Hyp2F1Params(1.0, 1.0, 2.5), 0.9) <= 1e-10
    assert euler_ltf_check(Hyp2F1Params(0.0, 0.7, 1.9), 0.5) == 0.0
    with pytest.raises(DegenerateCaseError):
        euler_ltf_check(Hyp2F1Params(0.5, 0.5, 2.0), 0.4)  # c-a-b = 1


def test_gauss_ode_residual():
    # termwise-differentiated series satisfies the hypergeometric equation
    rng = random.Random(7)
    for _ in range(20):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.2, 2.0)
        c = rng.uniform(0.6, 3.0)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
        f, fp = _series_seed(a, b, c, z)
        fpp = _series_seed(a + 1, b + 1, c + 1, z)[1] * a * b / c
        res = z * (1 - z) * fpp + (c - (a + b + 1) * z) * fp - a * b * f
        assert abs(res) <= 1e-8 * max(1.0, abs(f))


def test_connection_coefficient():
    got = connection_coefficient(Hyp2F1Params(0.5, 0.5, 1.0), 1)
    assert abs(got - (-2j)) < 1e-12
    # polynomial case: no branch jump
    assert connection_coefficient(Hyp2F1Params(-2.0, 0.7, 1.3), 1) == 0.0
    # T+ / T- = -e^{2 pi i (c-a-b)}
    p = Hyp2F1Params(0.37, 1.21, 2.53)
    ratio = connection_coefficient(p, 1) / connection_coefficient(p, -1)
    assert abs(ratio + cmath.exp(2j * math.pi * p.s)) < 1e-13


def test_jump_consistency():
    rng = random.Random(40)
    for _ in range(25):
        a = rng.uniform(0.1, 2.0)
        b = rng.uniform(0.1, 2.0)
        c = rng.uniform(0.5, 3.0)
        if abs((c - a - b) - round(c - a - b)) < 0.05:
            continue
        x = rng.uniform(1.05, 1.9)
        p = Hyp2F1Params(a, b, c)
        measured = hyp2f1(p, x, side=1) - hyp2f1(p, x, side=-1)
        predicted = monodromic_jump_2f1(p, x, -1)
        assert abs(measured - predicted) <= 1e-8 * max(abs(predicted), 1e-12)


def test_jump_off_cut_two_sided_continuation():
    # predicted jump vs. directly continued values at t = 1.2
    p = Hyp2F1Params(0.3, 0.7, 1.9)
    t = 1.2
    measured = hyp2f1(p, t, side=1) - hyp2f1(p, t, side=-1)
    pred = monodromic_jump_2f1(p, t, -1)
    assert abs(measured - pred) <= 1e-9


def test_loop_continuation_equals_gm_jump():
    p = Hyp2F1Params(0.3, 0.7, 1.9)
    z0 = 0.4
    f_end, _ = hyp2f1_continue(p, circle_path(1.0, z0))
    jump = f_end - hyp2f1(p, z0)
    assert abs(jump - monodromic_jump_2f1(p, z0, 1)) < 1e-12


def test_geom_alpha_conventions():
    # the derived closed form matches the measured loop jump; the printed
    # constant-limit form does not, under either star convention
    for alpha in (0.5, 1.3, 0.3 + 0.2j):
        r = geom_alpha_check(alpha, 0.3, "rotate")
        assert r["residual_derived"] < 1e-10
        assert r["residual_claimed"] > 1e-2
        lit = geom_alpha_check(alpha, 0.3, "literal")
        assert abs(lit["measured"]) < 1e-12  # loop encloses no branch point
        assert lit["residual_claimed"] > 1e-2


# the grid of the jumps suite and the inputs of criterion 06b
_GEOM_CASES = [(alpha, t, conv) for alpha in (0.5, 0.3 + 0.2j) for t in (0.3, 0.1)
               for conv in ("rotate", "literal")] + \
    [(0.5, t, conv) for t in (0.05, 0.02) for conv in ("rotate", "literal")]


def test_geom_alpha_check_refuses_large_t_before_evaluating(monkeypatch):
    calls = []
    for name in ("_series_seed", "_continue", "hyp2f1"):
        monkeypatch.setattr(hyp, name, lambda *a, **k: calls.append(a))
    for t in (0.95, -0.97, 0.6 + 0.8j):
        with pytest.raises(DomainError):
            geom_alpha_check(0.5, t)
    # one bad case refuses the whole batch before any case is evaluated
    for bad in ((0.5, 0.95, "rotate"), (0.5, 0.3, "sideways"), (-1.0, 0.3, "rotate")):
        for cases in (_GEOM_CASES + [bad], [bad] + _GEOM_CASES):
            with pytest.raises(DomainError):
                hyp._geom_alpha_checks(cases)
    assert calls == []


def test_batched_geom_checks_equal_one_case_calls():
    alone = [geom_alpha_check(*case) for case in _GEOM_CASES]
    for cases, expect in ((_GEOM_CASES, alone), (_GEOM_CASES[::-1], alone[::-1])):
        assert [repr(r) for r in hyp._geom_alpha_checks(cases)] == \
            [repr(r) for r in expect]
    # and the jump is that of the loop continued alone from the seed at -t
    for (alpha, t, conv), r in zip(_GEOM_CASES, alone):
        p = Hyp2F1Params(1.0, 1.0, alpha + 1.0)
        start = _series_seed(p.a, p.b, p.c, -t)
        loop = circle_path(1.0 if conv == "rotate" else -1.0, -t, n=24)
        assert repr(hyp2f1_continue(p, loop, start)[0] - start[0]) == repr(r["measured"])


@pytest.mark.parametrize("a, b, c, z", [(1.0, 1.0, 1.5, -0.3), (0.3 + 0.2j, -1.7, 2.4, 0.45j),
                                        (2.5, 0.5, -0.5 + 1j, 0.6 - 0.3j)])
def test_series_seed_matches_mpmath(a, b, c, z):
    f, fp = _series_seed(a, b, c, z)
    ref = mp.hyp2f1(a, b, c, z)
    dref = mp.diff(lambda x: mp.hyp2f1(a, b, c, x), z)
    assert abs(f - complex(ref)) <= 1e-14 * abs(ref)
    assert abs(fp - complex(dref)) <= 1e-13 * abs(dref)


def test_hyp_pfq():
    prm = PFQParams((1.0, 1.0), (1.0,))
    assert abs(hyp_pfq(prm, 0.5) - 2.0 / 3.0) < 1e-7
    assert hyp_pfq(PFQParams((0.0, 1.3), (0.7,)), 0.9) == 1.0
    # brute-force oracle, 10k terms
    num, den = (0.5, 0.5, 1.5), (1.0, 1.0)
    t = 0.25
    acc, term = 0.0, 1.0
    for k in range(10000):
        acc += term
        ratio = (-t) / (k + 1.0)
        for ai in num:
            ratio *= ai + k
        for bj in den:
            ratio /= bj + k
        term *= ratio
    got = hyp_pfq(PFQParams(num, den), t)
    assert abs(got - acc) < 1e-12
    ref = complex(mp.hyp3f2(0.5, 0.5, 1.5, 1.0, 1.0, -0.25))
    assert abs(got - ref) < 1e-12
    with pytest.raises(DomainError):
        hyp_pfq(prm, 1.2)
    with pytest.raises(DomainError):
        PFQParams((1.0, 1.0), (0.0,))


def test_pfq_simplify():
    prm = PFQParams((1.0, 1.0, 1.5), (1.0, 1.0))
    simple = prm.simplified()
    assert simple.num == (1.5 + 0j,)
    assert simple.den == ()


@pytest.mark.parametrize("c", [-50.7, -80.25])
def test_cancelling_series_raise(c):
    # on the 1-z route at large negative Re c the connection series have
    # terms about 4e15 times their sums: no digit survives, so hyp2f1 must
    # raise rather than return values off by 1.25e2 (c = -50.7) or 3.6e26
    a, b, z = -0.04099786621961243, 2.1694647751380387, 0.6 - 0.2j
    with pytest.raises(ConvergenceError):
        hyp2f1(Hyp2F1Params(a, b, c), z)
    row_a, row_b = (hyp._row(*prm) for _, _, prm in
                    hyp._table(complex(a), complex(b), complex(c)).at1)
    u = np.array([1.0 - z])
    (_, cond_a), (_, cond_b) = hyp._row_sums([(row_a, u, None), (row_b, u, None)],
                                             1e-16, 20000)
    assert max(cond_a[0], cond_b[0]) > 1e15
    # a series of positive terms is perfectly conditioned
    (_, cond), = hyp._row_sums([(hyp._row((1 + 0j, 1 + 0j), (1 + 0j, 1.0)),
                                 np.array([0.3 + 0j]), None)], 1e-16, 20000)
    assert cond[0] <= 1.0


@pytest.mark.parametrize("top", [20000, 600, 37])
def test_row_sum_blocks_are_multiples_of_8_covering_their_estimates(top):
    # _row_sums caps every estimate at its row's cap, at most top; a block
    # is as wide as its largest estimate rounded up to a multiple of 8, or
    # top, so no wider than needed and never too narrow
    rng = np.random.default_rng(3)
    n = np.minimum(np.concatenate([rng.integers(9, 60, 300), rng.integers(60, 5000, 100),
                                   [9, 16, 17, top]]), top)
    covered = []
    for ix, w in hyp._blocks(n, top):
        assert w == min(-(-n[ix].max() // 8) * 8, top)
        covered += ix.tolist()
    assert sorted(covered) == list(range(len(n)))


def test_direct_series_sums_past_rising_terms():
    # with Re c far below 0 the terms fall, then rise again near k = -Re c;
    # three small terms before that point must not end the sum
    a, b, c = -0.04099786621961243, 2.1694647751380387, -36.1531529679307
    z = 0.47516452860687963 - 0.15571539814689916j
    ref = complex(mp.hyp2f1(a, b, c, z))
    got = hyp2f1(Hyp2F1Params(a, b, c), z)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def _cplx(lo, hi, im):
    return st.builds(complex, st.floats(lo, hi), st.floats(-im, im))


def _disk(r):
    return st.builds(cmath.rect, st.floats(0.0, r), st.floats(-math.pi, math.pi))


@st.composite
def _route_cases(draw):
    """(a, b, c, z) aimed at one route of hyp2f1 each."""
    route = draw(st.sampled_from(("direct", "one-minus-z", "pfaff", "gap",
                                  "terminating", "1/z")))
    a, b = draw(_cplx(-2.0, 2.5, 0.6)), draw(_cplx(-2.0, 2.5, 0.6))
    c = draw(_cplx(0.3, 3.5, 0.6))
    w = draw(_disk(0.7))
    if route == "direct":
        z = w
    elif route == "one-minus-z":
        z = 1.0 - w
    elif route == "pfaff":
        z = w / (w - 1.0)
    elif route == "1/z":
        z = 1.0 / draw(_disk(0.8).filter(lambda v: abs(v) > 0.05))
    elif route == "gap":
        # integer c-a-b = m < 0, 0 or > 0; Im a, Im b > 0 keeps c off the poles
        a = complex(a.real, 0.1 + abs(a.imag))
        b = complex(b.real, 0.1 + abs(b.imag))
        c = a + b + draw(st.integers(-2, 3))
        z = 1.0 - draw(_disk(0.7).filter(lambda v: abs(v) > 0.05))
    else:
        a = complex(-draw(st.integers(0, 6)))
        z = draw(_disk(3.0))
    return route, a, b, c, z


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_route_cases())
def test_routes_match_mpmath(case):
    route, a, b, c, z = case
    if z == 0 or abs(1.0 - z) < 1e-3:
        return
    if z.imag == 0.0 and z.real > 1.0:
        z += 1e-12j
    ref = complex(mp.hyp2f1(a, b, c, z))
    got = hyp2f1(Hyp2F1Params(a, b, c), z)
    assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-3), route


# one triple per route: direct, 1-z, Pfaff, gaps m = -1, 0, 2, terminating
_GRID_PARAMS = [(0.3, 0.7, 1.9), (1.2 + 0.3j, -0.4, 2.1 - 0.2j),
                (0.5 + 0.2j, 0.8, 0.3 + 0.2j), (0.4 + 0.1j, 0.9, 1.3 + 0.1j),
                (0.6 + 0.2j, 1.1 - 0.3j, 3.7 - 0.1j), (-3.0, 0.7, 1.3)]
_GRID_Z = [0.3 + 0.2j, -0.5 + 0.1j, 0.8 - 0.3j, 1.2 + 0.4j, -2.0 + 0.5j, 1.5]
# the same routes further out, where the series need longer rows
_FAR_Z = [0.5 + 0.7j, -0.6 - 0.6j, 1.0 - 0.9j, 1.9]


def _values(points):
    return [repr(hyp2f1(Hyp2F1Params(*abc), z, side=1))
            for abc in _GRID_PARAMS for z in points]


def _clear_caches():
    hyp._table.cache_clear()
    hyp._STORE.clear()


def test_values_do_not_depend_on_the_cache():
    _clear_caches()
    cold = _values(_GRID_Z)
    far = _values(_FAR_Z)  # grows the rows the grid used
    assert _values(_GRID_Z) == cold
    # the far values agree whether their rows grew in one step or in two
    _clear_caches()
    assert _values(_FAR_Z) == far


def test_threads_sharing_the_tables_get_the_same_values():
    _clear_caches()
    expect = _values(_GRID_Z + _FAR_Z)
    got = [None] * 4
    errors = []

    def work(i):
        try:
            got[i] = _values(_GRID_Z + _FAR_Z)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            _clear_caches()
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert not errors
            assert all(g == expect for g in got)
    finally:
        sys.setswitchinterval(interval)


def test_table_cache_is_bounded():
    hyp._table.cache_clear()
    for k in range(hyp._CACHE_SIZE + 40):
        hyp2f1(Hyp2F1Params(0.3 + 0.01 * k, 0.7, 1.9), 0.4 + 0.2j)
    assert hyp._table.cache_info().currsize == hyp._CACHE_SIZE


def test_values_do_not_depend_on_contour_blocks_dropping_the_rows():
    # fracops' contour kernels keep their blocks in the same store: filled
    # past its bound by them, it holds no 2F1 row any more
    _clear_caches()
    expect = _values(_GRID_Z + _FAR_Z)
    w = 0.5 * np.exp(1j * np.linspace(0.1, 6.2, 40))
    fill = iter(np.linspace(0.01, 0.49, 2000))
    while any(isinstance(key[0], tuple) for key in hyp._STORE.entries):
        _deriv_kernel(complex(next(fill)), w, np.ones(w.size))(0)
    assert _values(_GRID_Z + _FAR_Z) == expect


def test_rows_of_failed_calls_stay_within_the_store_bound():
    # each call raises BudgetError once its row has doubled to 131,072
    # terms (3 MB); kept by count, 40 such rows held 120 MB
    hyp._STORE.clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for k in range(40):
            with pytest.raises(BudgetError):
                hyp_pfq(PFQParams((0.5 + 0.01 * k, 0.5, 1.5), (1.0, 1.0)), 0.99995)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown <= hyp._STORE.bound + (10 << 20)


# points for every route of the triples above: direct, 1-z, Pfaff, the
# crescent around e^{+-i pi/3}, the cut (with the side flag), and z = 0
_ROUTE_Z = [0.3 + 0.2j, -0.5 + 0.1j, 0.8 - 0.3j, 0.9 + 0.05j, -2.0 + 0.5j,
            -6.0 - 1.0j, 0.5 + 0.86j, 0.5 - 0.86j, 1.5, 3.0, 0.0]


@pytest.mark.parametrize("side", [1, -1])
def test_batch_values_equal_single_calls(side):
    for abc in _GRID_PARAMS:
        p = Hyp2F1Params(*abc)
        batch = hyp2f1(p, np.array(_ROUTE_Z), side=side)
        single = [hyp2f1(p, z, side=side) for z in _ROUTE_Z]
        assert [repr(complex(v)) for v in batch] == [repr(v) for v in single]
        # any subset, order and shape gives the same values
        rev = hyp2f1(p, np.array(_ROUTE_Z[::-1]).reshape(1, -1), side=side)
        assert rev.shape == (1, len(_ROUTE_Z))
        assert [repr(complex(v)) for v in rev[0, ::-1]] == [repr(v) for v in single]
        for z, v in zip(_ROUTE_Z, single):
            assert isinstance(v, complex)
            if z.imag == 0.0 and z.real > 1.0:
                z += side * 1e-25j
            ref = complex(mp.hyp2f1(*abc, z))
            assert abs(v - ref) <= 1e-11 * max(abs(ref), 1.0)


# --- batched Taylor-ODE continuation ------------------------------------------

def _mp_loop_around_1(a, b, c, z):
    """2F1 continued once counterclockwise around z = 1 from z, by the z -> 1-z
    connection formula in mpmath: the (1-z)^{c-a-b} term gains e^{2 pi i s}."""
    s = c - a - b
    g = mp.gamma
    first = g(c) * g(s) / (g(c - a) * g(c - b)) * mp.hyp2f1(a, b, 1 - s, 1 - z)
    second = (g(c) * g(-s) / (g(a) * g(b)) * (1 - mp.mpc(z)) ** s
              * mp.hyp2f1(c - a, c - b, 1 + s, 1 - z))
    return complex(first + mp.exp(2j * mp.pi * s) * second)


def _rel(got, ref):
    return abs(got - ref) / abs(ref)


@pytest.mark.parametrize("abc", [(0.3, 0.7, 1.9), (1.2 + 0.3j, -0.4 + 0.2j, 2.1 - 0.2j),
                                 (0.5 + 0.2j, 0.8, 0.9 + 0.35j)])
def test_continuation_along_loops_matches_mpmath(abc):
    p = Hyp2F1Params(*abc)
    # once around 1: the branch jump of the z -> 1-z connection
    for z0 in (0.4, 0.3 - 0.2j):
        f, _ = hyp2f1_continue(p, circle_path(1.0, z0))
        assert _rel(f, _mp_loop_around_1(*abc, z0)) <= 1e-12
    # around 0 alone 2F1 is single-valued; an open arc ends on the principal sheet
    f, _ = hyp2f1_continue(p, circle_path(0.0, -0.6))
    assert _rel(f, complex(mp.hyp2f1(*abc, -0.6))) <= 1e-12
    f, fp = hyp2f1_continue(p, circle_path(0.0, 0.45j, turns=0.7)[:-1] + [-0.9 - 2.2j])
    z = -0.9 - 2.2j
    assert _rel(f, complex(mp.hyp2f1(*abc, z))) <= 1e-12
    assert _rel(fp, complex(mp.diff(lambda x: mp.hyp2f1(*abc, x), z))) <= 1e-12


@pytest.mark.parametrize("theta", [0.0445, -0.0445, 0.5, 1.0, -2.5])
def test_radial_continuation_matches_mpmath(theta):
    # the integral kernel's rays: from 0.45 e^{i theta} out to |w| = 2.7; at
    # theta = +-0.0445 the end lies 0.12 from the cut
    u = cmath.exp(1j * theta)
    for abc in [(0.3, 0.7, 1.9), (0.2 + 0.5j, 1.3 - 0.4j, 0.7 + 0.9j)]:
        f, _ = hyp2f1_continue(Hyp2F1Params(*abc), [0.45 * u, 2.7 * u])
        assert _rel(f, complex(mp.hyp2f1(*abc, 2.7 * u))) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 0.3 + 0.4j])
def test_kernel_triples_continue_to_mpmath(alpha):
    # the parameters (k+1, 1; alpha+k+1) of the integral kernel, k <= 40
    for k in (0, 4, 5, 17, 40):
        abc = (k + 1.0, 1.0, alpha + k + 1.0)
        for w in (2.7 * cmath.exp(0.0445j), 1.8 - 1.1j, -1.9 + 1.7j, 0.6 + 1.2j):
            f, _ = hyp2f1_continue(Hyp2F1Params(*abc), [0.45 * w / abs(w), w])
            with mp.workdps(20):
                ref = complex(mp.hyp2f1(*abc, w))
            assert _rel(f, ref) <= 1e-12, (k, w)


def test_lanes_equal_single_runs_bit_for_bit():
    # mixed parameters and path lengths in one batch
    cases = [((0.3, 0.7, 1.9), circle_path(1.0, 0.4)),
             ((2.0, 1.0, 2.5 + 0.4j), [0.45j, 2.5 + 0.12j]),
             ((0.2 + 0.5j, 1.3 - 0.4j, 0.7 + 0.9j), [-0.3, -0.3 + 2.0j, 1.6 + 0.8j]),
             ((0.3, 0.7, 1.9), [0.1, 0.2]),
             ((41.0, 1.0, 41.3 + 0.4j), [-0.45, -2.7])]
    a, b, c = (np.array([abc[i] for abc, _ in cases], dtype=complex) for i in range(3))
    # seeded by the direct series at each lane's start, all triples at once
    f, fp = hyp._continue(a, b, c, hyp._Schedule([path for _, path in cases]))
    for i, (abc, path) in enumerate(cases):
        alone = hyp2f1_continue(Hyp2F1Params(*abc), path)
        assert (repr(complex(f[i])), repr(complex(fp[i]))) == tuple(map(repr, alone))
    # and a lane's value does not depend on where it sits in the batch
    starts = [_series_seed(*abc, path[0]) for abc, path in cases][::-1]
    rev = hyp._continue(a[::-1], b[::-1], c[::-1],
                        hyp._Schedule([path for _, path in cases][::-1]),
                        ([s[0] for s in starts], [s[1] for s in starts]))
    assert [repr(v) for v in rev[0][::-1]] == [repr(v) for v in f]


@pytest.mark.parametrize("path", [[0.1, math.nan], [0.1, math.inf],
                                  [0.1, complex(0.5, math.nan), -0.3]])
def test_continuation_refuses_a_path_point_that_is_not_finite(path):
    # no step reaches such a point: the schedule looped for ever
    with pytest.raises(DomainError, match="not finite"):
        hyp2f1_continue(Hyp2F1Params(0.5, 0.5, 1.5), path)


def test_failing_tail_check_halves_the_step(monkeypatch):
    p = Hyp2F1Params(0.3, 0.7, 1.9)
    path = [0.4, 0.5 + 0.6j, -0.5 + 0.3j]
    default, _ = hyp2f1_continue(p, path)
    passes = []
    taylor = hyp._taylor
    monkeypatch.setattr(hyp, "_taylor", lambda *a: passes.append(1) or taylor(*a))
    # full steps (0.3 dist) leave a last term near 1e-25, half steps 1e-37:
    # 1e-28 fails some full steps and passes their halves
    f, _ = hyp2f1_continue(p, path, tol=1e-28)
    assert len(passes) > 2  # the two passes of the planned steps, then halves
    assert _rel(f, default) <= 1e-12
    with pytest.raises(ConvergenceError):
        hyp2f1_continue(p, path, tol=1e-40)


def test_continuation_through_a_singular_point_raises():
    p = Hyp2F1Params(0.3, 0.7, 1.9)
    for path in ([0.5, 1.0], [0.4, 0.4j, 0.0, -0.3], [0.3, 1.0 + 1e-12j, 1.2j]):
        with pytest.raises(ConvergenceError):
            hyp2f1_continue(p, path)


def test_mixed_sides_equal_scalar_calls():
    xs = [1.5, 3.0, 1.5, 3.0, 0.3 + 0.2j, 1.05, 7.0]
    sides = [1, 1, -1, -1, 1, -1, 1]
    for abc in _GRID_PARAMS:
        p = Hyp2F1Params(*abc)
        batch = hyp2f1(p, xs, side=sides)
        single = [hyp2f1(p, x, side=s) for x, s in zip(xs, sides)]
        assert [repr(complex(v)) for v in batch] == [repr(v) for v in single]
        # a side array broadcasts against z
        grid = hyp2f1(p, np.array([xs, xs]), side=np.array([[1], [-1]]))
        assert [repr(complex(v)) for v in grid[1]] == \
            [repr(hyp2f1(p, x, side=-1)) for x in xs]
    with pytest.raises(DomainError):
        hyp2f1(Hyp2F1Params(0.4, 0.9, 1.7), [0.3, 1.5])  # an on-cut element, no side


def test_batched_calls_equal_separate_calls():
    # direct, 1-z, Pfaff, logarithmic (c-a-b = 1 and -1), terminating,
    # crescent, both cut sides and z = 0, scalar and array arguments
    calls = [((0.3, 0.7, 1.9), 0.3 + 0.2j, None),
             ((0.3, 0.7, 1.9), [0.8 - 0.3j, -2.0 + 0.5j, 0.0], None),
             (Hyp2F1Params(0.5, 0.25, 1.75), 0.8 + 0.3j, None),
             ((0.5, 0.75, 0.25), np.array([[0.7 - 0.2j], [-3.0 + 0.1j]]), None),
             ((-3.0, 0.7, 1.3), 5.0 + 2.0j, None),
             ((0.3, 0.7, 1.9), [0.5 + 0.86j, 0.5 - 0.86j], None),
             ((0.4, 0.9, 1.7), [1.5, 1.5, 3.0], [1, -1, -1]),
             ((1.2 + 0.3j, -0.4, 2.1 - 0.2j), 0.0, None)]
    batch = hyp._hyp2f1_calls(calls)
    for (p, z, side), got in zip(calls, batch):
        alone = hyp2f1(p, z, side)
        assert np.shape(got) == np.shape(alone)
        assert repr(np.ravel(got).tolist()) == repr(np.ravel(alone).tolist())
    rev = hyp._hyp2f1_calls(calls[::-1])[::-1]
    assert repr([np.ravel(v).tolist() for v in rev]) == \
        repr([np.ravel(v).tolist() for v in batch])
    # one cancelling call refuses the batch
    cancelling = ((-0.04099786621961243, 2.1694647751380387, -50.7), 0.6 - 0.2j, None)
    with pytest.raises(ConvergenceError):
        hyp._hyp2f1_calls(calls[:3] + [cancelling] + calls[3:])


def _regularized(a, b, c, z, side=None):
    """The regularized 2F1 as its one-part pass."""
    return hyp._hyp2f1_parts([hyp._regularized_part(a, b, c, z, side)])[0]


# one point per route of the 2F1 behind the regularized form: direct, 1-z,
# Pfaff, the negative axis, both cut sides and the crescent, where hyp2f1's
# ODE route is itself up to 2.7e-12 off mpmath
_REGULARIZED_POINTS = ((0.4 + 0.3j, None, 1e-13), (0.9 - 0.2j, None, 1e-13),
                       (-2.5 + 0.5j, None, 1e-13), (-3.0, None, 1e-13),
                       (2.5, 1, 1e-13), (2.5, -1, 1e-13), (0.55 + 0.85j, None, 1e-11))


@pytest.mark.parametrize("ab", [(0.3 + 0.2j, -0.7 + 0.1j), (-0.17, 0.17)])
@pytest.mark.parametrize("c", [0, -1, -2])
def test_regularized_2f1_at_the_poles_matches_mpmath(ab, c):
    a, b = ab
    with mp.workdps(60):
        eps = mp.mpf("1e-30")
        for z, side, tol in _REGULARIZED_POINTS:
            zz = mp.mpc(z) + (0 if side is None else side * mp.mpf("1e-50") * 1j)
            ref = complex(mp.hyp2f1(a, b, c + eps, zz) / mp.gamma(c + eps))
            got = _regularized(a, b, c, z, side)
            assert abs(got - ref) <= tol * abs(ref), (z, side)


def test_regularized_2f1_off_the_poles_is_the_quotient():
    a, b = 0.3 + 0.2j, -0.7 + 0.1j
    z = np.array([0.4 + 0.3j, -2.5 + 0.5j, 2.5, 2.5])
    side = np.array([1, 1, 1, -1])
    for c in (0.5, 2.0, 1.3 - 0.2j, -0.5 + 0.1j, -1.0 + 1e-3):
        got = _regularized(a, b, c, z, side)
        want = hyp2f1(Hyp2F1Params(a, b, c), z, side) / gamma(c)
        assert repr(got.tolist()) == repr(want.tolist())


def test_regularized_2f1_arrays_equal_scalar_calls():
    a, b = 0.3 + 0.2j, -0.7 + 0.1j
    z = np.array([[0.4 + 0.3j, -2.5 + 0.5j, 0.0], [2.5, 2.5, 0.55 + 0.85j]])
    side = np.array([[1, 1, 1], [1, -1, -1]])
    for c in (0, -2, 0.5, 1.3 - 0.2j):
        got = _regularized(a, b, c, z, side)
        assert got.shape == z.shape
        alone = [_regularized(a, b, c, x, s)
                 for x, s in zip(z.ravel().tolist(), side.ravel().tolist())]
        assert repr(got.ravel().tolist()) == repr(alone)


@pytest.mark.parametrize("abc, t, sign, old", [
    ((0.3, 0.7, 1.9), 1.2, -1, 0.3159515771569251j),
    ((0.3, 0.7, 1.9), 0.4, 1, 0.7846307797930225 + 2.414845233729962j),
    ((1.2 + 0.3j, -0.4 + 0.2j, 2.1 - 0.2j), 1.6, 1, -0.5416470139725791 + 0.5275261253894521j),
    ((0.5, 0.25, 1.75), 0.3 - 0.2j, -1, 1.191490126074376 - 1.1667206293623866j)])
def test_monodromic_jump_keeps_its_values(abc, t, sign, old):
    # prefactor times the inner 2F1, bit for bit as one product
    assert repr(monodromic_jump_2f1(Hyp2F1Params(*abc), t, sign)) == repr(old)


@pytest.mark.parametrize("abc, z, side, old", [
    ((0.3, 0.45, 1.7), 0.4 + 0.2j, None, 1.0351056448345457 + 0.021964767796531746j),  # direct
    ((0.3, 0.45, 1.7), 0.8 + 0.3j, None, 1.0798007131877652 + 0.05327046544374925j),  # 1-z
    ((0.3, 0.45, 1.7), -2.0 + 0.5j, None, 0.8980554923033197 + 0.01703202531689765j),  # Pfaff
    ((0.3, 0.45, -0.25), 0.8 + 0.3j, None, 0.852454499988318 - 1.6205163859458325j),  # m = -1
    ((0.3, 0.45, 0.75), 0.8 + 0.3j, None, 1.1855339101551123 + 0.18924256443561804j),  # m = 0
    ((0.3, 0.45, 2.75), 0.8 + 0.3j, None, 1.0469785503974134 + 0.025538868810424033j),  # m = 2
    ((-3.0, 0.7, 1.3), 5.0 + 2.0j, None, -3.169352386743693 - 25.590757069017943j),
    ((0.3, 0.45, 1.7), 0.5 + 0.85j, None, 1.0143916723602595 + 0.08261189390726634j),  # crescent
    ((0.3, 0.45, 1.7), 2.5, 1, 1.109088213625113 + 0.311540083067404j),  # 1/z, cut
    ((0.3, 0.45, 1.7), 2.5, -1, 1.109088213625113 - 0.311540083067404j),  # 1/z, cut
    ((0.3, 0.7, -30.5), -0.5, None, 1.003509581685243 + 0j),  # rising terms
    ((0.3, 0.45, 1.7), 3.0 + 3.0j, None, 0.9201749335678463 + 0.24644475585151238j)])  # 1/z
def test_routes_keep_their_values(abc, z, side, old):
    # one input per route, pinned by repr: the coefficient rows built from
    # parameter lists must keep every 2F1 value bit for bit
    assert repr(hyp2f1(Hyp2F1Params(*abc), z, side)) == repr(old)


def _mp_cut(abc, x, side):
    return complex(mp.hyp2f1(*abc, mp.mpc(x, side * mp.mpf("1e-40"))))


@pytest.mark.parametrize("abc, z, side, old", [
    ((2.3, 0.4, 1.3), 0.8 + 0.3j, None, 1.2102561800079368 + 1.6579191909345943j),  # 1-z
    ((2.3, 0.4, 1.3), 0.9 - 0.2j, None, 1.190874798128667 - 3.0447399096236025j),  # 1-z
    ((2.3, 0.4, 1.3), 3 + 1j, None, 0.1585069480486492 + 0.3835052871180327j),  # 1/z
    ((2.3, 0.4, 1.3), -2.5 + 2j, None, 0.4205391954544849 + 0.11076503502534994j),  # Pfaff
    ((2.3, 0.4, 1.3), 2.5, 1, 0.1280073345124009 + 0.39396606606650186j),  # 1/z, cut
    ((2.3, 0.4, 1.3), 2.5, -1, 0.1280073345124009 - 0.39396606606650186j),
    ((0.4, 2.3, 1.3), 0.8 + 0.3j, None, 1.210256180007937 + 1.6579191909345945j),
    ((0.4, 2.3, 1.3), 0.9 - 0.2j, None, 1.1908747981286671 - 3.044739909623603j),
    ((0.4, 2.3, 1.3), 3 + 1j, None, 0.1585069480486492 + 0.3835052871180327j),
    ((0.4, 2.3, 1.3), -2.5 + 2j, None, 0.42053919545448476 + 0.11076503502535012j),
    ((0.4, 2.3, 1.3), 2.5, 1, 0.1280073345124009 + 0.39396606606650186j),
    ((0.4, 2.3, 1.3), 2.5, -1, 0.1280073345124009 - 0.39396606606650186j)])
def test_zero_connection_constants_keep_their_values(abc, z, side, old):
    # c-a = -1 or c-b = -1: the 1-z constant B is 0, and so is the 1/z
    # constant C_1 or C_2; a zero constant's term adds nothing
    t = hyp._table(*map(complex, abc))
    assert t.at1[1][0] == 0
    assert t.at_inf[0 if abc[0] > abc[1] else 1][0] == 0
    got = hyp2f1(Hyp2F1Params(*abc), z, side)
    assert repr(got) == repr(old)
    ref = complex(mp.hyp2f1(*abc, z)) if side is None else _mp_cut(abc, z, side)
    assert abs(got - ref) <= 1e-14 * abs(ref)


def test_powers_at_z_1_vanish_only_for_a_positive_real_part():
    # (1-z)^{-a} for c = b and (1-z)^{-b} for c = a diverge at z = 1 unless
    # Re of the exponent is positive, and so does the jump's (1-t)^{c-a-b}
    for abc in [(0.5, 0.3, 0.3), (0.3, 0.5, 0.3), (0.3j, 0.7, 0.7)]:
        with pytest.raises(DomainError, match="singular at z = 1"):
            hyp2f1(Hyp2F1Params(*abc), 1.0)
        with pytest.raises(DomainError, match="singular at z = 1"):
            hyp2f1(Hyp2F1Params(*abc), np.array([0.5, 1.0]))
    with pytest.raises(DomainError, match="singular at z = 1"):
        monodromic_jump_2f1(Hyp2F1Params(0.5, 0.7, 0.9), 1.0, 1)
    assert repr(hyp2f1(Hyp2F1Params(-0.5, 0.3, 0.3), 1.0)) == repr(0j)
    assert repr(monodromic_jump_2f1(Hyp2F1Params(0.5, 0.7, 1.9), 1.0, 1)) == repr(0j)
    # and a zero exponent leaves 1: 2F1(0, b; b; z) = 1 sums its terminating row
    assert hyp2f1(Hyp2F1Params(0.0, 0.3, 0.3), 1.0) == 1


@pytest.mark.parametrize("x", [1.981, 1.99, 2.0, 2.01, 2.02])
@pytest.mark.parametrize("side", [1, -1])
def test_cut_band_is_reached_by_the_1_over_z_route(x, side):
    # |1-x| and |1-w| are both near 1 here, 1/x near 0.5
    got = hyp2f1(Hyp2F1Params(0.3, 0.45, 1.7), x, side)
    ref = _mp_cut((0.3, 0.45, 1.7), x, side)
    assert abs(got - ref) <= 1e-13 * abs(ref)


# the 1/z route (a-b = -0.15); a-b and c-a-b within 0.1 of an integer, so
# that neither z nor the Pfaff route's w takes it
@pytest.mark.parametrize("abc, gated", [((0.3, 0.45, 1.7), False),
                                        ((0.3, 1.35, 1.7), True),
                                        ((0.3 + 0.2j, 1.27 + 0.2j, 2.6 + 0.4j), True)])
def test_cut_rims_out_to_six_match_mpmath(abc, gated):
    p = Hyp2F1Params(*abc)
    xs = np.array([1.3, 1.7, 2.5, 3.5, 4.5, 6.0])
    for side in (1, -1):
        got = hyp2f1(p, xs, side)
        old = hyp._hyp2f1_calls([(p, xs, side)], inv=False)[0]
        assert (repr(got.tolist()) == repr(old.tolist())) == gated
        for x, v in zip(xs.tolist(), got.tolist()):
            ref = _mp_cut(abc, x, side)
            assert abs(v - ref) <= 1e-13 * abs(ref), (x, side)


def test_large_c_sums_directly_without_the_1_over_z_constants():
    # Gamma(180) overflows: the 1/z constants are built only when a point
    # takes that route
    hyp._table.cache_clear()
    got = hyp2f1(Hyp2F1Params(0.5, 0.3, 180), 0.5 + 0.1j)
    row = hyp._row(*hyp._table(0.5, 0.3, 180).taylor)
    direct = hyp._summed([(row, np.array([0.5 + 0.1j]), None)], 1e-16, 20000)[0]
    assert repr(got) == repr(complex(direct[0]))
    assert "at_inf" not in vars(hyp._table(0.5, 0.3, 180))


def test_non_finite_arguments_have_no_route():
    # refused before any arithmetic, so without a floating-point warning
    p = Hyp2F1Params(0.3, 0.45, 1.7)
    for z in (complex(math.nan, 1.0), complex(math.inf, 0.0), complex(2.0, math.nan),
              complex(-math.inf, 1.0)):
        with pytest.raises(ConvergenceError, match="no convergent 2F1 route"):
            hyp2f1(p, z, 1)
    for z in (math.nan, -math.inf, complex(0.0, math.inf)):
        with pytest.raises(ConvergenceError, match="no convergent 2F1 route"):
            hyp2f1(Hyp2F1Params(0.3, 0.7, 1.9), z)


def test_cancelling_1_over_z_terms_take_the_old_routes():
    # for 2F1(1.5, 1.25; 4.5) the two 1/z terms cancel by ~30 at 0.75+-1i and
    # 0.75-1.25i, and by at most 6 at 3+3i, 2.5+0.5i and 4+0.5i; the old
    # routes' series there have arguments near 0.97 and lose up to 1.7e-11
    p = Hyp2F1Params(1.5, 1.25, 4.5)
    zs = [0.75 + 1j, 3 + 3j, 0.75 - 1.25j, 2.5 + 0.5j, 0.75 - 1j, 4 + 0.5j]
    batch = hyp2f1(p, np.array(zs))
    single = [hyp2f1(p, z) for z in zs]
    assert repr(batch.tolist()) == repr(single)
    old = hyp._hyp2f1_calls([(p, zs, None)], inv=False)[0].tolist()
    fallback = [v == o for v, o in zip(single, old)]
    assert fallback == [True, False, True, False, True, False]
    for z, v, fell in zip(zs, single, fallback):
        ref = complex(mp.hyp2f1(1.5, 1.25, 4.5, z))
        assert abs(v - ref) <= (1e-10 if fell else 1e-14) * abs(ref)


# each of these sums has a largest term 7e11 to 2e53 times the sum (5e5 for
# the last): a plain summation returns them off by 2e37 ... 1.7e-4 relative
_PFQ_CANCELLING = [((20, 20), (1,), 0.9), ((30, -0.5), (2,), 0.95),
                   ((12.5, 9.3), (1.5,), 0.8), ((0.5, 2, 3), (-20.5, 1.5), 0.7),
                   ((0.4, 1.1, 2.2), (-9.6, -14.2), 0.5), ((1, 1), (-25.7,), 0.6)]
_PFQ_ACCURATE = [((0.3, 0.7), (-30.5,), 0.5), ((0.5, 0.5, 1.5), (1, 1), 0.25),
                 ((2, 0.5, 0.5), (-7.5, 3), 0.8), ((1, 1, 1), (-18.4, 2), 0.45)]


def _pfq_cases():
    """The pinned inputs and 80 seeded ones (p = 0, 1, 2; lower parameters
    down to -25 so that terms rise; |t| < 0.95)."""
    rng = random.Random(2017)
    cases = _PFQ_CANCELLING + _PFQ_ACCURATE
    for _ in range(80):
        p = rng.randrange(3)
        num = tuple(complex(rng.uniform(-3, 12), rng.uniform(-1, 1)) for _ in range(p + 1))
        den = tuple(rng.uniform(-25, 6) for _ in range(p))
        cases.append((num, den, cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(-3, 3))))
    return cases


@pytest.mark.parametrize("num, den, t", _pfq_cases())
def test_hyp_pfq_matches_mpmath_or_raises(num, den, t):
    ref = complex(mp.hyper(num, den, -t))
    try:
        got = hyp_pfq(PFQParams(num, den), t)
    except ConvergenceError:
        assert (num, den, t) not in _PFQ_ACCURATE
        return
    assert (num, den, t) not in _PFQ_CANCELLING[:5]
    bound = 1e-12 if (num, den, t) in _PFQ_ACCURATE else 1e-10
    assert abs(got - ref) <= bound * abs(ref)


def test_hyp_pfq_keeps_its_rows():
    prm = PFQParams((0.5, 0.5, 1.5), (1.0, 1.0))
    hyp._STORE.clear()
    fresh = [hyp_pfq(prm, t) for t in (0.25, -0.6 + 0.3j)]
    hyp._STORE.clear()
    hyp_pfq(prm, 0.9j)  # grows the kept row past what 0.25 needs
    row = hyp._STORE.entries[(prm.num, prm.den + (1.0,), False)]
    again = [hyp_pfq(prm, t) for t in (0.25, -0.6 + 0.3j)]
    assert hyp._row(prm.num, prm.den + (1.0,)) is row  # both calls summed the kept row
    assert [repr(v) for v in again] == [repr(v) for v in fresh]


def test_hyp_pfq_arrays_and_the_unit_disk():
    prm = PFQParams((0.5, 0.5, 1.5), (1.0, 1.0))
    ts = np.array([[0.25, -0.6 + 0.3j, 0.0], [0.9j, 0.5, 1e-3]])
    got = hyp_pfq(prm, ts)
    assert got.shape == ts.shape
    assert [repr(v) for v in got.ravel().tolist()] == [repr(hyp_pfq(prm, t)) for t in ts.ravel()]
    assert hyp_pfq(prm, np.zeros((2, 0))).shape == (2, 0)
    # a terminating series evaluates anywhere, a non-terminating one needs |t| < 1
    poly = PFQParams((-3.0, 1.3), (0.7,))
    for t in (2.5, -1.5 + 2j, np.array([1.0, 3.0j])):
        ref = np.vectorize(lambda x: complex(mp.hyp2f1(-3, 1.3, 0.7, -x)))(t)
        assert np.all(np.abs(hyp_pfq(poly, t) - ref) <= 1e-14 * np.abs(ref))
    for t in (1.0, -1.2, np.array([0.5, 1.1j])):
        with pytest.raises(DomainError):
            hyp_pfq(prm, t)
    # near |t| = 1 the rising-term bound is far past max_terms: the row stops
    # at max_terms and the sum runs out of its budget; the message does not
    # round the modulus up to 1
    with pytest.raises(BudgetError) as exc:
        hyp_pfq(PFQParams((1.0, 1.0), (1.0,)), 1 - 1e-9)
    assert f"(|x| = {1 - 1e-9!r})" in str(exc.value)


def _one_pass_calls():
    """A derandomized batch over 52 distinct triples, four per kind: the
    direct series, 1-z off the integers and at c-a-b = 2 and -1, 1/z and
    its cancellation fallback, Pfaff then direct, 1-z and 1/z, the
    crescent, terminating rows and c-b = 0 (both on and off the cut), with
    z = 0 and z = 1 among the points and both cut sides."""
    rng = random.Random(1908)

    def u(lo, hi):
        return round(rng.uniform(lo, hi), 4)
    calls = []
    for _ in range(4):
        a, b = u(0.15, 0.85), u(1.15, 1.6)
        calls += [
            ((a, b, u(1.6, 2.9)), [0.3 + 0.2j, 0.0, -0.4 + u(-0.2, 0.2) * 1j], None),  # direct
            ((a, b, a + b + u(0.2, 0.7)), [0.8 - 0.3j, 1.0, 0.85 + u(0, 0.2) * 1j], None),  # 1-z
            ((a, b, a + b + 2), [0.85 + 0.2j, 0.8 - u(0.1, 0.3) * 1j], None),  # c-a-b = 2
            ((a, b, a + b - 1), [0.8 + 0.3j, 0.9 - u(0, 0.2) * 1j], None),  # c-a-b = -1
            ((a, a + u(0.2, 0.8), u(1.2, 2.5)), [3 + 3j, 2.5, 2.5], [1, 1, -1]),  # 1/z
            ((1.5 + u(-0.02, 0.02), 1.25, 4.5), [0.75 + 1j, 0.75 - 1.25j], None),  # cancels
            ((a, b, u(1.6, 2.9)), [-0.9 + u(-0.1, 0.1) * 1j], None),  # Pfaff, direct
            ((a, b, u(1.6, 2.9)), [-6 - 1j, -3.0], None),  # Pfaff, 1-z
            ((a, a + 1, a + 1 + u(0.6, 0.9)), [1.965 + 0.527j], None),  # Pfaff, 1/z
            ((a, b, u(1.6, 2.9)), [0.5 + 0.86j, 0.5 - 0.86j], None),  # crescent
            ((-rng.randrange(1, 6), b, u(1.1, 2.2)), [5 + 2j, 3.0, 0.0], None),  # terminating
            ((a, b, b), [0.5 + 0.5j, 2.0, 0.0], [1, -1, 1]),  # c = b
            ((b, a, b), [0.4 - 0.3j, 1.5], -1)]  # c = a
    return calls


def test_one_pass_routes_each_element_as_its_one_call_pass(monkeypatch):
    calls = _one_pass_calls()
    assert len({tuple(map(complex, p)) for p, _, _ in calls}) >= 40
    seen = []  # the rounds (pfaff, inv) and route helpers (name, tables) in order
    plan, terms, goursat, cont = hyp._plan, hyp._plan_terms, hyp._plan_goursat, hyp._continue

    def planned(tabs, g, z, side, jobs, inv=True, pfaff=True):
        seen.append((pfaff, inv))
        return plan(tabs, g, z, side, jobs, inv, pfaff)

    def spy(f, key):
        def wrapped(*args, **kwargs):
            seen.append(key(*args))
            return f(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(hyp, "_plan", planned)
    # the one assembler of the 1-z and 1/z routes, where only 1/z passes a bound
    monkeypatch.setattr(hyp, "_plan_terms", spy(terms, lambda groups, lg, x, jobs, bound=None:
                                                ("1-z" if bound is None else "1/z", len(groups))))
    monkeypatch.setattr(hyp, "_plan_goursat", spy(goursat, lambda *_: ("goursat", 1)))
    monkeypatch.setattr(hyp, "_continue", spy(cont, lambda *args: ("ode", len(args[3].paths))))
    batch = hyp._hyp2f1_calls(calls)
    # the top round forms the 1-z and 1/z values of four and eight tables in
    # one expression each, the Pfaff round those of its four 1-z and four
    # 1/w tables; Goursat's forms and the crescent lanes go one table at a
    # time, the crescent pair 0.5 +- 0.86i of a real triple folded onto one
    # lane; the cancelling 1/z elements are planned again without 1/z
    assert seen == [(True, True), ("1-z", 4), ("1/z", 8), (False, True), ("1-z", 4),
                    ("1/z", 4), *[("ode", 1)] * 4, *[("goursat", 1)] * 8, (True, False),
                    (False, False), ("1-z", 4)]
    monkeypatch.undo()
    single = [hyp._hyp2f1_calls([call])[0] for call in calls]
    assert [repr(np.ravel(v).tolist()) for v in batch] == \
        [repr(np.ravel(v).tolist()) for v in single]
    rev = hyp._hyp2f1_calls(calls[::-1])[::-1]
    assert [repr(np.ravel(v).tolist()) for v in rev] == \
        [repr(np.ravel(v).tolist()) for v in batch]


def test_a_pass_of_many_calls_sums_once_and_plans_in_two_rounds(monkeypatch):
    counts = {"sums": 0, "plans": 0}
    row_sums, plan = hyp._row_sums, hyp._plan

    def summed(*args):
        counts["sums"] += 1
        return row_sums(*args)

    def planned(*args, **kwargs):
        counts["plans"] += 1
        return plan(*args, **kwargs)
    monkeypatch.setattr(hyp, "_row_sums", summed)
    monkeypatch.setattr(hyp, "_plan", planned)
    # direct, 1-z and Pfaff elements on twelve tables
    calls = [((0.2 + 0.1 * k, 0.45, 1.7 + 0.05 * k), [0.3 + 0.2j, 0.8 - 0.3j, -3.0 + 1.0j],
              None) for k in range(12)]
    hyp._hyp2f1_calls(calls)
    assert counts == {"sums": 1, "plans": 2}


def test_overflowing_connection_constants_pass_to_the_next_route():
    # Gamma(180) overflows: the 1-z route (|1-z| = 0.14) gives way to the
    # direct series (|z| = 0.906); at -3+1j the 1/z route gives way to the
    # Pfaff route, whose inner 1-z gives way to the direct series
    got = hyp2f1(Hyp2F1Params(0.5, 0.5, 180), 0.9 + 0.1j)
    ref = complex(mp.hyp2f1(0.5, 0.5, 180, mp.mpc(0.9, 0.1)))
    assert abs(got - ref) <= 1e-12 * abs(ref)
    got = hyp2f1(Hyp2F1Params(0.5, 0.3, 180), -3 + 1j)
    assert abs(got - complex(mp.hyp2f1(0.5, 0.3, 180, -3 + 1j))) <= 1e-12 * abs(got)
    # a point that sums directly builds no constants at all
    hyp._table.cache_clear()
    hyp2f1(Hyp2F1Params(0.5, 0.3, 180), 0.5 + 0.1j)
    assert {"at1", "goursat", "at_inf"}.isdisjoint(vars(hyp._table(0.5, 0.3, 180)))
    # on the cut every series route overflows or diverges
    with pytest.raises(ConvergenceError, match="no convergent 2F1 route"):
        hyp2f1(Hyp2F1Params(0.5, 0.3, 180), 1.5, 1)


def test_parts_of_one_pass_equal_their_passes_alone(monkeypatch):
    # a surface part with points past the cut crossing either way (a jump
    # added), the regularized 2F1 at its pole c = 0 and at c = -1 for a
    # scalar z, and a plain call
    p = Hyp2F1Params(0.2 - 0.1j, 0.4 + 0.3j, 1.0)
    parts = [hyp._surface_part(p, np.array([1.5, 0.7, 2.0, 1.3]),
                               np.array([0.6, 0.6, -2.0 * math.pi - 0.5, -1.0])),
             hyp._regularized_part(0.3 + 0.2j, -0.7 + 0.1j, 0, np.array([0.4 + 0.3j, 2.5, 2.5]),
                                   np.array([1, 1, -1])),
             hyp._regularized_part(0.3 + 0.2j, -0.7 + 0.1j, -1, 0.4 + 0.3j),
             hyp._call_part(Hyp2F1Params(1, 1, 1.5), np.array([-0.3, 0.9 + 0.2j]))]
    assert len(parts[0].calls) == 2  # the part adds the jump's inner 2F1
    passes = []
    calls = hyp._hyp2f1_calls
    monkeypatch.setattr(hyp, "_hyp2f1_calls", lambda c: passes.append(len(c)) or calls(c))
    batch = hyp._hyp2f1_parts(parts)
    assert passes == [5]
    monkeypatch.undo()
    alone = [hyp._hyp2f1_parts([part])[0] for part in parts]
    assert [repr(np.ravel(v).tolist()) for v in batch] == \
        [repr(np.ravel(v).tolist()) for v in alone]
    assert isinstance(batch[2], complex)
    assert repr(batch[3].tolist()) == repr(hyp2f1(Hyp2F1Params(1, 1, 1.5),
                                                  np.array([-0.3, 0.9 + 0.2j])).tolist())


@pytest.mark.parametrize("abc, z", [((200.5, 0.3, 1.5), 0.7 + 0.6j),  # BudgetError
                                    ((315.38 + 0.91j, -1.19, 0.58), 1.1 - 0.05j)])
def test_coefficients_past_the_double_range_end_in_a_typed_error(abc, z):
    # the rows overflow to inf and nan: a fraccal error, never numpy's warning
    hyp._table.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            hyp2f1(Hyp2F1Params(*abc), z)


# --- conjugate folding of real-parameter passes --------------------------------

def _raw(abc, z, side=None):
    """The values of one table's elements as the engine forms them, unfolded."""
    p = Hyp2F1Params(*abc)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    side = np.full(z.shape, np.nan if side is None else float(side))
    return hyp._evaluate([hyp._table(p.a, p.b, p.c)], np.zeros(len(z), int), z, side,
                         1e-16, 20000, True)


def _bits(v):
    return np.asarray(v, dtype=complex).view(np.int64).tolist()


def _unfolded(v):
    """conj v, except that a zero imaginary part keeps its sign."""
    v = np.array(v, dtype=complex)
    flip = v.imag != 0.0
    v.imag[flip] = -v.imag[flip]
    return v


def _symmetry_cases():
    """(abc, points above the real axis, cut points x > 1): the triples and
    points of _one_pass_calls, then 60 seeded real triples of every kind
    (Re c far below 0, integer c-a-b, terminating, c = b, a-b an integer)
    at points over the upper half-plane and the crescent."""
    cases = []
    for abc, zs, _ in _one_pass_calls():
        z = np.array(zs, dtype=complex)
        if all(complex(v).imag == 0.0 for v in abc):
            cases.append((abc, np.where(z.imag < 0, z.conj(), z)[z.imag != 0],
                          z.real[(z.imag == 0) & (z.real > 1)]))
    rng = random.Random(2027)

    def u(lo, hi):
        return rng.uniform(lo, hi)
    for i in range(60):
        a, b = u(-2.5, 2.5), u(-2.5, 2.5)
        c = (u(0.2, 3.5), a + b + rng.choice([-2, -1, 0, 1, 2]), u(-3.5, -0.1), b,
             u(-24.0, -20.0), u(0.2, 3.5))[i % 6]
        if i % 6 == 5:
            b = a + rng.choice([0, 1, 2])
        if i % 7 == 3:
            a = float(-rng.randrange(0, 6))
        if i % 6 == 4:  # the rising rows, in the disk where they sum directly
            r, near, x = np.array([u(0.0, 0.4) for _ in range(16)]), [], []
        else:
            r = np.array([u(0.0, 0.95) for _ in range(8)] + [u(0.5, 1.5) for _ in range(8)]
                         + [u(1.2, 8.0) for _ in range(8)])
            near = [0.5 + 0.866j + 0.05 * (u(-1, 1) + 1j * u(-1, 1)) for _ in range(6)]
            x = [u(1.0001, 9.0) for _ in range(6)] + [1.5]
        z = np.concatenate((r * np.exp(1j * np.array([u(1e-6, math.pi - 1e-6) for _ in r])),
                            near))
        cases.append(((a, b, c), z, np.array(x)))
    return cases


def test_real_parameter_2f1_is_exactly_conjugate_symmetric_on_every_route(monkeypatch):
    # the premise of the fold: for real a, b, c the engine gives at conj z,
    # and on the lower rim, exactly the unfolded value of z and of the upper
    # rim, bit for bit, signed zeros included; and hyp2f1, which folds,
    # returns those values
    routes = set()
    plan, terms, goursat, cont = hyp._plan, hyp._plan_terms, hyp._plan_goursat, hyp._continue

    def planned(tabs, g, z, side, jobs, inv=True, pfaff=True):
        routes.update(() if pfaff else ("pfaff",))
        return plan(tabs, g, z, side, jobs, inv, pfaff)

    def spy(f, name):
        def wrapped(*args, **kwargs):
            routes.add(name(*args))
            return f(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(hyp, "_plan", planned)
    monkeypatch.setattr(hyp, "_plan_terms", spy(terms, lambda groups, lg, x, jobs, bound=None:
                                                "1-z" if bound is None else "1/z"))
    monkeypatch.setattr(hyp, "_plan_goursat", spy(goursat, lambda *_: "goursat"))
    monkeypatch.setattr(hyp, "_continue", spy(cont, lambda *_: "ode"))
    compared = zeros = refused = 0
    for abc, z, x in _symmetry_cases():
        for pts, up, down in ((z, None, None), (x, 1, -1)):
            if not pts.size:
                continue
            lower = pts.conj() if up is None else pts
            try:
                above = _raw(abc, pts, up)
            except (ConvergenceError, DomainError) as exc:
                with pytest.raises(type(exc)):
                    _raw(abc, lower, down)
                refused += 1
                continue
            below = _raw(abc, lower, down)
            assert _bits(_unfolded(above)) == _bits(below)
            assert _bits(hyp2f1(Hyp2F1Params(*abc), lower, down)) == _bits(below)
            compared += pts.size
            zeros += np.count_nonzero(above.imag == 0.0)
    assert routes >= {"1-z", "1/z", "pfaff", "goursat", "ode"}
    # plain conj would flip the zero imaginary parts; a refusal is refused
    # on both sides alike
    assert compared > 1900 and zeros > 40 and refused <= 2


def test_a_pass_sums_conjugate_rim_and_repeated_elements_once(monkeypatch):
    p, q = (0.3, 0.45, 1.7), (0.3 + 0.1j, 0.45, 1.7)  # q folds nothing
    calls = [(p, [0.3 + 0.2j, -2.0 - 0.5j, 0.5 - 0.86j, 0.3 + 0.2j, complex(0.9, -0.0)], None),
             (p, [2.5, 2.5, 1.5, 1.5, complex(2.5, -0.0)], [1, -1, -1, 1, -1]),
             (q, [0.3 + 0.2j, 0.3 - 0.2j], None),
             (p, [0.3 - 0.2j, -2.0 + 0.5j, 0.5 + 0.86j, 0.9 + 0.0j], None),
             ((-3, 0.45, 1.7), [4.0, 4.0, 2.0 - 1.0j, 2.0 + 1.0j], [-1, 1, 1, 1])]
    sizes, plan = [], hyp._plan

    def planned(tabs, g, z, side, jobs, inv=True, pfaff=True):
        sizes.append(len(z)) if pfaff else None
        return plan(tabs, g, z, side, jobs, inv, pfaff)
    monkeypatch.setattr(hyp, "_plan", planned)
    batch = hyp._hyp2f1_calls(calls)
    # p: 0.3+0.2i, -2+0.5i, 0.5+0.86i, 0.9-0i, 0.9+0i, and 2.5, 1.5, 2.5-0i
    # on side +1; q: both; the terminating row: 4 on side +1, 2+i on each side
    assert sizes == [13]
    monkeypatch.undo()
    single = [[hyp._hyp2f1_calls([(abc, zi, si)])[0]
               for zi, si in zip(zs, np.broadcast_to(np.asarray(side, dtype=float), len(zs))
                                 if side is not None else [None] * len(zs))]
              for abc, zs, side in calls]
    assert [_bits(v) for v in batch] == [_bits(v) for v in single]
    rev = hyp._hyp2f1_calls(calls[::-1])[::-1]
    assert [_bits(v) for v in rev] == [_bits(v) for v in batch]


@pytest.mark.parametrize("calls, planned", [
    # complex parameters: nothing folds, repeats merge; x + 0i and x - 0i,
    # the two rims, and a NaN side (none) against side +1 stay apart
    ([((0.3 + 0.1j, 0.45, 1.7), [0.3 + 0.2j, 0.3 - 0.2j, 0.3 + 0.2j, 0.9 + 0j,
                                  complex(0.9, -0.0), 0.9 + 0j], None),
      ((0.3 + 0.1j, 0.45, 1.7), [2.5, 2.5, 2.5, 1.5, 0.3 + 0.2j], [1, -1, 1, 1, 1]),
      ((0.2 - 0.3j, 0.45, 1.7), [0.3 + 0.2j, 0.3 + 0.2j], None)], 9),
    # real parameters, every element on or above the real axis
    ([((0.3, 0.45, 1.7), [0.3 + 0.2j, -2.0 + 0.5j, 0.3 + 0.2j, 0.5 + 0.86j, 0.9 + 0j,
                          complex(0.9, -0.0), 0.5 + 0.86j], None),
      ((0.3, 0.45, 1.7), [2.5, 2.5, 1.5, 0.9 + 0j], [1, 1, 1, 1]),
      ((-3, 0.45, 1.7), [4.0, 4.0, 0.3 + 0.2j], [1, 1, np.nan])], 10),
], ids=["complex-parameters", "real-parameters-upper"])
def test_a_pass_plans_each_distinct_element_once(monkeypatch, calls, planned):
    keys, plan = [], hyp._plan

    def spy(tabs, g, z, side, jobs, inv=True, pfaff=True):
        if pfaff:
            sides = np.full(len(z), np.nan) if side is None else side
            keys.extend(zip(z.real.view(np.int64).tolist(), z.imag.view(np.int64).tolist(),
                            [0] * len(z) if g is None else g.tolist(),
                            sides.view(np.int64).tolist()))
        return plan(tabs, g, z, side, jobs, inv, pfaff)
    monkeypatch.setattr(hyp, "_plan", spy)
    batch = hyp._hyp2f1_calls(calls)
    assert len(keys) == len(set(keys)) == planned
    monkeypatch.undo()
    single = [[hyp._hyp2f1_calls([(abc, zi, si)])[0]
               for zi, si in zip(zs, [None] * len(zs) if side is None else side)]
              for abc, zs, side in calls]
    assert [_bits(v) for v in batch] == [_bits(v) for v in single]


def _old_cond(job, value):
    """max |term| / |sum| up to where the partial sum of one element first
    equals value: the condition estimate with the stop masked, recomputed
    term by term for one element of a job (row, x, log_x)."""
    row, x, log_x = job
    n = 4096 if row.stop is None else row.stop
    row.grow(n)
    pw = np.full(n, x, dtype=complex)
    pw[0] = 1.0
    terms = np.multiply.accumulate(pw) * row.coef[0, :n]
    if log_x is not None:
        terms *= log_x + row.h[0, :n]
    stop = int(np.flatnonzero(terms.cumsum() == value)[0])
    return np.abs(terms[:stop + 1]).max() / np.maximum(np.abs(terms[stop:stop + 1].cumsum() * 0 + value), 1e-300)[0]


def test_row_sum_condition_estimates_equal_the_masked_maximum():
    # rising rows (Re c <= -20), terminating rows (exact and within 1e-13 of
    # an integer, at |x| up to 4) and a Goursat row with digamma brackets,
    # summed in one pass so blocks mix their caps
    rows = [hyp._row(*hyp._table(*abc).taylor) for abc in
            [(-0.04 + 0j, 2.17 + 0j, c + 0j) for c in (-20.5, -36.15, -24.3)]
            + [(-4.0 + 0j, 1.3 + 0j, 0.7 + 0j), (-4.0 + 1e-13 + 0j, 1.3 + 0j, 0.7 + 0j),
               (0.3 + 0j, 1.45 + 0j, 1.7 + 0j)]]
    xs = [np.array([0.47 - 0.15j, 0.3 + 0.4j, -0.6 + 0j])] * 3 + \
        [np.array([3.0 + 1.0j, -4.0 + 0j, 0.5 + 0j])] * 2 + [np.array([0.2 + 0.1j, 0.9 - 0.1j])]
    jobs = [(row, x, None) for row, x in zip(rows, xs)]
    e, fin, pref, prm = hyp._table(0.3 + 0j, 0.45 + 0j, 2.75 + 0j).goursat
    brow = hyp._row(*prm, brackets=True)
    u = np.array([0.3 + 0.2j, 0.05 - 0.4j])
    jobs.append((brow, u, np.log(u)))
    sums = hyp._row_sums(jobs, 1e-16, 20000)
    rising = 0
    for job, (vals, cond) in zip(jobs, sums):
        for i, (v, c) in enumerate(zip(vals.tolist(), cond.tolist())):
            assert c == _old_cond((job[0], job[1][i], None if job[2] is None else job[2][i]), v)
            rising += c > 1.0
    assert rising >= 3
