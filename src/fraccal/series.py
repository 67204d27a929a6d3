"""Truncated complex power series and growth-metadata estimation.

A PowerSeries holds the leading Taylor coefficients f_0..f_{N-1} of a
function analytic near 0, together with advisory growth hints: the distance
from 0 to the nearest singularity (radius_hint) and the exponential type of
the function at infinity (type_hint).  The hints gate evaluation but are
never inferred silently; estimate_growth returns estimates flagged as such.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .errors import DomainError

DEFAULT_TRUNCATION = 64


def _as_coeff_tuple(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    out = tuple(complex(c) for c in coeffs)
    if not out:
        raise DomainError("series needs at least one coefficient")
    for c in out:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise DomainError("non-finite coefficient in series")
    return out


@dataclass(frozen=True)
class PowerSeries:
    """Truncated Taylor series sum_k f_k t^k with optional growth hints."""

    coeffs: tuple[complex, ...]
    radius_hint: Optional[float] = None
    type_hint: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeff_tuple(self.coeffs))
        if self.radius_hint is not None and not self.radius_hint > 0:
            raise DomainError("radius_hint must be positive")
        if self.type_hint is not None and self.type_hint < 0:
            raise DomainError("type_hint must be non-negative")

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    def truncated(self, n: int) -> "PowerSeries":
        if n < 1:
            raise DomainError("truncation must be >= 1")
        return PowerSeries(self.coeffs[:n], self.radius_hint, self.type_hint)

    def map_coeffs(self, fn) -> "PowerSeries":
        return PowerSeries(tuple(fn(k, c) for k, c in enumerate(self.coeffs)),
                           self.radius_hint, self.type_hint)

    def to_json(self) -> str:
        return json.dumps({
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
            "radius_hint": self.radius_hint,
            "type_hint": self.type_hint,
        })

    @staticmethod
    def from_json(text: str) -> "PowerSeries":
        try:
            obj = json.loads(text)
            coeffs = [complex(re, im) for re, im in obj["coeffs"]]
        except (ValueError, TypeError, KeyError) as exc:
            raise DomainError(f"malformed series JSON: {exc}") from exc
        return PowerSeries(coeffs, obj.get("radius_hint"), obj.get("type_hint"))


class GrowthEstimate(NamedTuple):
    """estimate_growth output; values are estimates, never asserted exact.

    a is None when the tail gives no information, math.inf for entire-looking
    series; same conventions for R.
    """

    a: Optional[float]
    R: Optional[float]
    estimated: bool = True


def _min_truncation(*series: PowerSeries) -> int:
    return min(s.truncation for s in series)


def _merge_hints(a: Optional[float], b: Optional[float], take) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return take(a, b)


def add(A: PowerSeries, B: PowerSeries) -> PowerSeries:
    n = _min_truncation(A, B)
    return PowerSeries(
        tuple(A.coeffs[k] + B.coeffs[k] for k in range(n)),
        _merge_hints(A.radius_hint, B.radius_hint, min),
        _merge_hints(A.type_hint, B.type_hint, max),
    )


def scale(A: PowerSeries, c: complex) -> PowerSeries:
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise DomainError("non-finite scalar")
    return PowerSeries(tuple(c * a for a in A.coeffs), A.radius_hint, A.type_hint)


def cauchy_product(A: PowerSeries, B: PowerSeries) -> PowerSeries:
    """Coefficients c_k = sum_{j<=k} a_j b_{k-j}, truncated to the shorter input."""
    n = _min_truncation(A, B)
    a, b = A.coeffs, B.coeffs
    out = []
    for k in range(n):
        out.append(sum(a[j] * b[k - j] for j in range(k + 1)))
    return PowerSeries(
        tuple(out),
        _merge_hints(A.radius_hint, B.radius_hint, min),
        _merge_hints(A.type_hint, B.type_hint, max),
    )


def series_arith(op: str, A: PowerSeries, other) -> PowerSeries:
    """Dispatcher for {add|scale|cauchy_product}, mainly for the CLI."""
    if op == "add":
        return add(A, other)
    if op == "scale":
        return scale(A, other)
    if op == "cauchy_product":
        return cauchy_product(A, other)
    raise DomainError(f"unknown series op {op!r}")


class EvalResult(NamedTuple):
    value: complex
    last_term: float  # |f_{N-1} t^{N-1}|, a truncation indicator


def eval_series(F: PowerSeries, t: complex) -> EvalResult:
    """Horner evaluation of the stored terms.

    Requires a finite t, with |t| < radius_hint when the hint is set; the
    magnitude of the final stored term is returned so callers can judge
    truncation error.
    """
    t = complex(t)
    if not cmath.isfinite(t):
        raise DomainError(f"t = {t} is not finite")
    if F.radius_hint is not None and abs(t) >= F.radius_hint:
        raise DomainError(f"|t| = {abs(t):.6g} outside radius_hint {F.radius_hint:.6g}")
    acc = 0.0 + 0.0j
    for c in reversed(F.coeffs):
        acc = acc * t + c
    last = abs(F.coeffs[-1]) * abs(t) ** (F.truncation - 1)
    return EvalResult(acc, last)


def taylor_shift(F: PowerSeries, t0: complex) -> PowerSeries:
    """Re-center the truncated series at t0: coefficients of F(t0 + s).

    Exact for the stored truncation (binomial re-expansion); the result
    carries no radius hint since re-centering changes the disk.
    """
    n = F.truncation
    new = [0.0 + 0.0j] * n
    # g_j = sum_{k>=j} C(k, j) f_k t0^{k-j}
    for k, fk in enumerate(F.coeffs):
        if fk == 0:
            continue
        binom = 1.0
        pw = t0 ** k
        for j in range(k + 1):
            new[j] += fk * binom * pw
            if j < k:
                binom = binom * (k - j) / (j + 1)
                pw = pw / t0 if t0 != 0 else 0.0
    if t0 == 0:
        return PowerSeries(F.coeffs, None, F.type_hint)
    return PowerSeries(tuple(new), None, F.type_hint)


def estimate_growth(F: PowerSeries) -> GrowthEstimate:
    """Ratio/root-test estimate of (a, R) from the stored tail.

    a is taken from the median of |f_k / f_{k+1}| over the last half of the
    stored coefficients, with a root-test cross-check; R from
    limsup |f_k k!|^{1/k} (the type of the Borel dual).  Purely advisory.
    """
    n = F.truncation
    if n < 8:
        raise DomainError("need truncation >= 8 to estimate growth")
    tail = F.coeffs[n // 2:]
    if all(c == 0 for c in tail):
        if any(c != 0 for c in F.coeffs):
            return GrowthEstimate(a=math.inf, R=0.0)  # polynomial: entire, type 0
        return GrowthEstimate(a=None, R=None)

    ratios = []
    k0 = n // 2
    for i in range(len(tail) - 1):
        fk, fk1 = tail[i], tail[i + 1]
        if fk != 0 and fk1 != 0:
            ratios.append(abs(fk) / abs(fk1))
    if len(ratios) >= 4:
        ratios.sort()
        a_est = ratios[len(ratios) // 2]
    else:
        # sparse tail: fall back to the root test on non-zero entries
        roots = [abs(c) ** (-1.0 / (k0 + i)) for i, c in enumerate(tail) if c != 0]
        a_est = min(roots) if roots else None

    # Borel-dual type: limsup |f_k k!|^{1/k} over the tail
    logs = []
    for i, c in enumerate(tail):
        k = k0 + i
        if c != 0:
            logs.append((math.log(abs(c)) + math.lgamma(k + 1)) / k)
    R_est = math.exp(max(logs)) if logs else 0.0

    if a_est is not None and (a_est > 1e6 or not math.isfinite(a_est)):
        a_est = math.inf
    if R_est < 1e-6:
        R_est = 0.0
    return GrowthEstimate(a=a_est, R=R_est)


def geometric_series(n: int = DEFAULT_TRUNCATION) -> PowerSeries:
    """1/(1+t): f_k = (-1)^k, radius 1, type 0."""
    return PowerSeries(tuple((-1.0) ** k for k in range(n)), radius_hint=1.0, type_hint=0.0)


def exp_series(n: int = DEFAULT_TRUNCATION) -> PowerSeries:
    """e^t: f_k = 1/k!, entire of type 1."""
    return PowerSeries(tuple(1 / math.factorial(k) for k in range(n)), type_hint=1.0)


def monomial(k: int, n: Optional[int] = None) -> PowerSeries:
    """t^k padded to truncation n (default k+1)."""
    n = max(k + 1, n or k + 1)
    coeffs = [0.0] * n
    coeffs[k] = 1.0
    return PowerSeries(tuple(coeffs), type_hint=0.0)
