"""Small shared numeric helpers."""

from __future__ import annotations

import cmath
import math

import numpy as np


def dist_to_positive_ray(t: complex) -> float:
    """Distance from t to the closed ray [0, +inf) on the real axis."""
    x, y = t.real, t.imag
    if x <= 0.0:
        return abs(t)
    return abs(y)


def cpow(modulus: float, arg: float, exponent: complex) -> complex:
    """(modulus * e^{i*arg}) ** exponent with the arg taken literally.

    Used wherever a formula marks a point with an explicit rotation such as
    (t - 1) e^{-i pi}; the branch is then part of the formula, not of the
    principal-value convention.
    """
    if modulus == 0.0:
        if exponent == 0:
            return 1.0 + 0.0j
        return 0.0 + 0.0j
    return cmath.exp(exponent * (math.log(modulus) + 1j * arg))


def principal_power(z: complex, exponent: complex) -> complex:
    """z**exponent with the principal log of cmath."""
    if z == 0:
        return 0.0 + 0.0j if exponent != 0 else 1.0 + 0.0j
    return cmath.exp(exponent * cmath.log(z))


def is_nonpositive_int(z: complex, tol: float = 1e-12) -> int | None:
    """Return the integer n <= 0 that z approximates, else None."""
    if abs(z.imag) > tol:
        return None
    n = round(z.real)
    if n <= 0 and abs(z.real - n) <= tol:
        return n
    return None


def near_integer(z: complex, tol: float = 1e-6) -> int | None:
    """Return round(Re z) when z is within tol of a (real) integer."""
    if abs(z.imag) > tol:
        return None
    n = round(z.real)
    if abs(z.real - n) <= tol:
        return n
    return None


def as_family(zeta) -> tuple:
    """The members of a scalar or array argument as a list of complex, and
    the shape to give the results (None for a scalar); see family_result."""
    if np.ndim(zeta) == 0:
        return [complex(zeta)], None
    zeta = np.asarray(zeta)
    return [complex(z) for z in zeta.ravel().tolist()], zeta.shape


def family_result(values: list, shape, dtype=complex):
    """values[0] for a scalar argument (shape None), else an ndarray of the
    argument's shape."""
    return values[0] if shape is None else np.array(values, dtype=dtype).reshape(shape)
