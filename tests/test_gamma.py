import cmath
import math
import random

import mpmath as mp
import pytest

from fraccal.errors import DomainError, GammaPoleError
from fraccal.fracops import _gamma_ratio_row
from fraccal.gammafn import digamma, gamma, loggamma, pochhammer, rgamma

mp.mp.dps = 30


def test_known_values():
    assert gamma(1.0) == pytest.approx(1.0, abs=1e-14)
    assert gamma(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(2.5).real == pytest.approx(1.3293403881791384, rel=1e-13)


def test_large_arguments_against_mpmath():
    # the Lanczos power alone overflows from Re z ~ 141; Gamma itself at 171.62
    for z in (150.0, 171.0, 142.9 + 3.0j, -150.5):
        ref = complex(mp.gamma(z))
        assert abs(gamma(z) - ref) <= 5e-13 * abs(ref)
    with pytest.raises(DomainError):
        gamma(172.0)
    assert gamma(-180.5) == 0.0  # about 1e-334: underflows, is not refused


def test_against_mpmath_grid():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(200):
        z = complex(rng.uniform(-8, 12), rng.uniform(-8, 8))
        if abs(z.imag) < 1e-3 and z.real < 0.5:
            continue
        ref = complex(mp.gamma(z))
        worst = max(worst, abs(gamma(z) - ref) / abs(ref))
    assert worst < 1e-13


def test_reflection_identity():
    rng = random.Random(3)
    for _ in range(100):
        z = complex(rng.uniform(-4, 4), rng.uniform(-3, 3))
        if abs(z - round(z.real)) < 0.05:
            continue
        val = gamma(z) * gamma(1.0 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(val - 1.0) < 1e-12


def test_poles():
    for n in (0, -1, -5):
        with pytest.raises(GammaPoleError) as exc:
            gamma(n)
        assert exc.value.pole == n
    assert rgamma(-3.0) == 0.0
    assert rgamma(2.0) == pytest.approx(1.0)


def test_ratio_row_matches_mpmath():
    for alpha in (0.5, -0.5, 1.5, 0.3 + 0.2j, -1.7):
        for k in (0, 1, 7, 63, 170, 255):
            ref = complex(mp.gamma(alpha + k + 1) / mp.factorial(k))
            got = _gamma_ratio_row(alpha, k + 1)[k]
            assert abs(got - ref) / abs(ref) < 5e-13


def test_digamma_and_pochhammer():
    rng = random.Random(5)
    for _ in range(60):
        z = complex(rng.uniform(-6, 8), rng.uniform(-4, 4))
        if abs(z.imag) < 1e-2 and z.real < 0.5:
            continue
        assert abs(digamma(z) - complex(mp.digamma(z))) < 1e-12 * max(1.0, abs(z))
    assert pochhammer(2.0, 3) == pytest.approx(24.0)
    assert pochhammer(0.3 + 0.1j, 0) == 1.0


def test_loggamma_ratio_safety():
    # exp of log-gamma differences must agree with the direct ratio
    a, k = 0.7 - 0.4j, 40
    direct = _gamma_ratio_row(a, k + 1)[k]
    via_log = cmath.exp(loggamma(a + k + 1) - loggamma(k + 1.0))
    assert abs(direct - via_log) / abs(direct) < 1e-11


@pytest.mark.parametrize("z", [170.5, 171.5, 171.7, 172.5, 180, 200 + 3j, 171 + 2j,
                               175 + 40j, 160 + 80j, 300 - 100j])
def test_rgamma_is_entire_past_the_range_of_gamma(z):
    # where Gamma(z) overflows a double, 1/Gamma(z) is subnormal or 0
    got, ref = rgamma(z), complex(mp.rgamma(z))
    if abs(ref) >= 2.2250738585072014e-308:
        assert abs(got - ref) <= 1e-12 * abs(ref)
    else:
        assert abs(got - ref) <= 1e-300


def test_rgamma_keeps_its_values_where_gamma_is_finite():
    for z in (0.5, 3.7, -2.5 + 1j, 100 + 50j, 170.5, 171.6, 0.3 - 80j):
        assert repr(rgamma(z)) == repr(1.0 / gamma(z))


def test_rgamma_refuses_where_its_value_overflows():
    # far left of the poles Gamma(z) is subnormal or 0 and |1/Gamma(z)| is
    # past the double range: a DomainError, not inf or ZeroDivisionError
    for z in (-180.5 + 0.5j, -175.5 + 0.5j, -171.5 + 0.3j):
        assert abs(mp.rgamma(z)) > mp.mpf("1.8e308")
        with pytest.raises(DomainError, match="overflows"):
            rgamma(z)
    z = -170.5 + 0.2j  # just inside the range
    ref = complex(mp.rgamma(z))
    assert abs(rgamma(z) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("fn", [gamma, loggamma, rgamma, digamma])
@pytest.mark.parametrize("z", [complex(math.nan, 0.0), math.inf, -math.inf,
                               complex(0.0, math.inf)])
def test_a_point_that_is_not_finite_is_refused(fn, z):
    # NaN raised ValueError, +-inf OverflowError and Gamma(i inf)
    # ZeroDivisionError; log-Gamma and digamma at i inf returned NaN
    with pytest.raises(DomainError, match="is not finite"):
        fn(z)
