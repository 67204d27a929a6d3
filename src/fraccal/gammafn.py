"""Complex gamma, log-gamma, reciprocal gamma and digamma.

Lanczos approximation (g = 7, 9 terms) with the reflection formula for
Re z < 0.5.  Relative accuracy is ~1e-14 over the moderate-parameter range
this library works in (|z| up to a few hundred after recurrence shifts).
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, GammaPoleError
from .utils import is_nonpositive_int

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _lanczos_series(z: complex) -> complex:
    # z is shifted so that the series argument is z-1 with Re >= -0.5
    x = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (z + i - 1.0)
    return x


def gamma(z: complex) -> complex:
    """Gamma(z) for complex z; GammaPoleError at its poles, DomainError on overflow."""
    z = complex(z)
    pole = is_nonpositive_int(z)
    if pole is not None:
        raise GammaPoleError(pole)
    if z.real < 0.5:
        # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1 - z)); logs where Gamma(1 - z) overflows
        try:
            return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
        except DomainError:
            return cmath.exp(loggamma(z))
    s = _lanczos_series(z)
    t = z + _LANCZOS_G - 0.5
    try:
        return _SQRT_2PI * t ** (z - 0.5) * cmath.exp(-t) * s
    except OverflowError:  # the power alone overflows from Re z ~ 141
        pass
    try:  # so split it in halves around e^{-t}
        h = t ** (0.5 * (z - 0.5))
        g = _SQRT_2PI * h * cmath.exp(-t) * h * s
        if cmath.isfinite(g):
            return g
    except OverflowError:
        pass
    raise DomainError(f"Gamma({z:.6g}) overflows a double")


def loggamma(z: complex) -> complex:
    """log Gamma(z) up to multiples of 2*pi*i.

    Safe inside exp(loggamma(a) - loggamma(b)) ratios, which is the only way
    it is used here; the imaginary part is not a continuous branch.
    """
    z = complex(z)
    pole = is_nonpositive_int(z)
    if pole is not None:
        raise GammaPoleError(pole)
    if z.real < 0.5:
        return cmath.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) - loggamma(1.0 - z)
    s = _lanczos_series(z)
    t = z + _LANCZOS_G - 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z - 0.5) * cmath.log(t) - t + cmath.log(s)


def rgamma(z: complex) -> complex:
    """1 / Gamma(z); entire, returns exactly 0.0 at the poles of Gamma, and
    exp(-log Gamma(z)), a subnormal or 0, where Gamma(z) overflows.
    DomainError where 1/Gamma(z) itself overflows (far left of the poles)."""
    z = complex(z)
    if is_nonpositive_int(z) is not None:
        return 0.0 + 0.0j
    try:
        r = 1.0 / gamma(z)
        if cmath.isfinite(r):
            return r
    except DomainError:
        return cmath.exp(-loggamma(z))
    except ZeroDivisionError:  # Gamma(z) underflows to 0
        pass
    raise DomainError(f"1/Gamma({z:.6g}) overflows a double")


def pochhammer(a: complex, k: int) -> complex:
    """(a)_k = a (a+1) ... (a+k-1); (a)_0 = 1."""
    r = 1.0 + 0.0j
    for j in range(k):
        r *= a + j
    return r


# Bernoulli-number coefficients B_{2n}/(2n) for the digamma asymptotic tail.
_PSI_ASY = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(z: complex) -> complex:
    """psi(z) = Gamma'(z)/Gamma(z) via recurrence + asymptotic series."""
    z = complex(z)
    pole = is_nonpositive_int(z)
    if pole is not None:
        raise GammaPoleError(pole)
    if z.real < 0.5:
        # psi(z) = psi(1-z) - pi cot(pi z)
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    acc = 0.0 + 0.0j
    while abs(z) < 12.0:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    tail = 0.0 + 0.0j
    p = w
    for c in _PSI_ASY:
        tail -= c * p
        p *= w
    return acc + cmath.log(z) - 0.5 / z + tail
