import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from fraccal.errors import DomainError
from fraccal.series import (PowerSeries, add, cauchy_product, estimate_growth,
                            eval_series, exp_series, geometric_series,
                            monomial, scale, series_arith, taylor_shift)


def test_arith_examples():
    A = PowerSeries((1.0, 1.0))
    B = PowerSeries((0.0, -1.0))
    assert add(A, B).coeffs == (1.0 + 0j, 0.0 + 0j)
    prod = cauchy_product(geometric_series(4), PowerSeries((1.0, 1.0, 0.0, 0.0)))
    assert all(abs(c - e) < 1e-15 for c, e in zip(prod.coeffs, (1, 0, 0, 0)))
    assert scale(PowerSeries((2.0, 4.0)), 0.5).coeffs == (1.0 + 0j, 2.0 + 0j)
    assert series_arith("add", A, B).coeffs == (1.0 + 0j, 0.0 + 0j)


def test_exp_series_past_the_double_range_of_k_factorial():
    # 1/k! as int/int true division: correctly rounded, 0 past k ~ 177
    e = exp_series(200)
    assert e.coeffs == tuple(complex(1 / math.factorial(k)) for k in range(200))
    assert e.coeffs[199] == 0.0


def test_eval_series():
    g = geometric_series(64)
    v = eval_series(g, 0.5)
    assert abs(v.value - 2.0 / 3.0) < 1e-6
    e = exp_series(20)
    assert abs(eval_series(e, 1.0).value - math.e) < 1e-12
    F = PowerSeries((3.0 + 1.0j, 2.0))
    assert eval_series(F, 0.0).value == 3.0 + 1.0j


def test_eval_radius_guard():
    g = geometric_series(16)
    with pytest.raises(DomainError):
        eval_series(g, 1.2)


def test_rejects_bad_coefficients():
    with pytest.raises(DomainError):
        PowerSeries((1.0, float("nan")))
    with pytest.raises(DomainError):
        PowerSeries(())
    with pytest.raises(DomainError):
        scale(PowerSeries((1.0,)), float("inf"))


def test_growth_estimates():
    g = estimate_growth(geometric_series(64))
    assert g.estimated
    assert abs(g.a - 1.0) <= 0.2
    e = estimate_growth(exp_series(48))
    assert e.a is None or e.a == math.inf or e.a > 10
    assert abs(e.R - 1.0) <= 0.2
    p = estimate_growth(PowerSeries((1.0, 2.0) + (0.0,) * 14))
    assert p.a is None or p.a == math.inf
    assert p.R == 0.0


def test_json_round_trip():
    F = PowerSeries((1.0, -2.0 + 0.5j), radius_hint=1.5, type_hint=0.0)
    G = PowerSeries.from_json(F.to_json())
    assert G == F
    with pytest.raises(DomainError):
        PowerSeries.from_json("{not json")
    # wire format is exactly [[re, im], ...]
    obj = json.loads(F.to_json())
    assert obj["coeffs"][1] == [-2.0, 0.5]


_coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(_coeff, min_size=1, max_size=10),
       st.lists(_coeff, min_size=1, max_size=10),
       st.lists(_coeff, min_size=1, max_size=10))
def test_cauchy_product_assoc_comm(a, b, c):
    A, B, C = PowerSeries(a), PowerSeries(b), PowerSeries(c)
    ab = cauchy_product(A, B)
    ba = cauchy_product(B, A)
    for x, y in zip(ab.coeffs, ba.coeffs):
        assert abs(x - y) <= 1e-13 * max(1.0, abs(x))
    lhs = cauchy_product(ab, C)
    rhs = cauchy_product(A, cauchy_product(B, C))
    for x, y in zip(lhs.coeffs, rhs.coeffs):
        assert abs(x - y) <= 1e-13 * max(1.0, abs(x), abs(y))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 1000), st.integers(0, 1000))
def test_eval_of_product_is_product_of_evals(seed_a, seed_b):
    import random
    ra, rb = random.Random(seed_a), random.Random(seed_b)
    A = PowerSeries([complex(ra.uniform(-1, 1), ra.uniform(-1, 1)) for _ in range(40)],
                    radius_hint=1.0)
    B = PowerSeries([complex(rb.uniform(-1, 1), rb.uniform(-1, 1)) for _ in range(40)],
                    radius_hint=1.0)
    t = 0.4 + 0.25j  # |t| = 0.47, well inside
    prod = eval_series(cauchy_product(A, B), t).value
    sep = eval_series(A, t).value * eval_series(B, t).value
    assert abs(prod - sep) <= 1e-10 * max(1.0, abs(sep))


def test_taylor_shift():
    g = geometric_series(64)
    shifted = taylor_shift(g, 0.2)
    # f(0.2 + s) around s: compare against direct evaluation
    got = eval_series(shifted, 0.1).value
    assert abs(got - 1.0 / 1.3) < 1e-12
    assert taylor_shift(monomial(2, 4), 0.0).coeffs == monomial(2, 4).coeffs
