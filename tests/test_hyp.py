import cmath
import math
import random
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraccal import hyp
from fraccal.errors import (BudgetError, ConvergenceError, DegenerateCaseError,
                            DomainError)
from fraccal.hyp import (Hyp2F1Params, PFQParams, circle_path,
                         connection_coefficient, euler_ltf_check,
                         geom_alpha_check, hyp2f1, hyp2f1_continue, hyp_pfq,
                         monodromic_jump_2f1, _series_2f1, _series_seed)

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
        f = _series_2f1(a, b, c, z)
        fp = _series_2f1(a + 1, b + 1, c + 1, z) * a * b / c
        fpp = _series_2f1(a + 2, b + 2, c + 2, z) * a * (a + 1) * b * (b + 1) / (c * (c + 1))
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


def test_geom_alpha_check_refuses_large_t_before_evaluating(monkeypatch):
    calls = []
    monkeypatch.setattr(hyp, "_series_2f1", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(hyp, "hyp2f1", lambda *a, **k: calls.append(a))
    for t in (0.95, -0.97, 0.6 + 0.8j):
        with pytest.raises(DomainError):
            geom_alpha_check(0.5, t)
    assert calls == []


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
    _, _, row_a, row_b = hyp._table(complex(a), complex(b), complex(c)).at1
    u = np.array([1.0 - z])
    (_, cond_a), (_, cond_b) = hyp._row_sums([(row_a, u, None), (row_b, u, None)],
                                             1e-16, 20000)
    assert max(cond_a[0], cond_b[0]) > 1e15
    # a series of positive terms is perfectly conditioned
    (_, cond), = hyp._row_sums([(hyp._table(1 + 0j, 1 + 0j, 1 + 0j).taylor,
                                 np.array([0.3 + 0j]), None)], 1e-16, 20000)
    assert cond[0] <= 1.0


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
                                  "terminating")))
    a, b = draw(_cplx(-2.0, 2.5, 0.6)), draw(_cplx(-2.0, 2.5, 0.6))
    c = draw(_cplx(0.3, 3.5, 0.6))
    w = draw(_disk(0.7))
    if route == "direct":
        z = w
    elif route == "one-minus-z":
        z = 1.0 - w
    elif route == "pfaff":
        z = w / (w - 1.0)
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


def test_values_do_not_depend_on_the_cache():
    hyp._table.cache_clear()
    cold = _values(_GRID_Z)
    far = _values(_FAR_Z)  # grows the rows the grid used
    assert _values(_GRID_Z) == cold
    # the far values agree whether their rows grew in one step or in two
    hyp._table.cache_clear()
    assert _values(_FAR_Z) == far


def test_threads_sharing_the_tables_get_the_same_values():
    hyp._table.cache_clear()
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
            hyp._table.cache_clear()
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
