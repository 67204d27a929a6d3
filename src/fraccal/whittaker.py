"""Perturbed Whittaker equations, phase-amplitude series, Borel duals and the
monodromic verification stack.

The normal form treated here is

    u'' = (1/4 - kappa/z + (mu^2 - 1/4)/z^2 + z^{-3} sum_k beta_k z^{-k}) u

with solutions u_1 = e^{-z/2} z^{kappa} P_1(z), u_2 = e^{z/2} z^{-kappa}
P_2(z).  For beta = 0 the Borel duals of P_1, P_2 are Gauss hypergeometric
functions, which makes every monodromic relation checkable numerically; the
surface evaluators below were pinned against direct ODE continuation, and
the Stokes multipliers against measured jumps.  The phase-amplitudes are
Laplace integrals of the duals along rotated rays, members of
transforms._laplace_members.

Branch bookkeeping: surface points are passed as (modulus, continuous
argument).  Canonical sheets: arg t in (-pi, pi) for F_1, (-2 pi, 0) for
F_2, each extended by one cut crossing.  Both duals are one continued 2F1,
hyp._surface_part, in two frames: F_1(t) = 2F1(p1; -t) with -t at arg
theta - pi, formed as -(rho e^{i theta}), and F_2(t) = 2F1(p2; t); the
cut-crossing jump is hyp's.
Their fractional integrals I_q F_j, in which the monodromic relations are
stated, are regularized 2F1 (hyp._regularized_part), entire in the order q.
Every check hands the 2F1 calls of all its functions, as hyp parts, to one
pass (hyp._hyp2f1_parts), and the rays' surface functions are parts too, so
each quadrature level evaluates them all in one pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .gammafn import rgamma
from .hyp import (Hyp2F1Params, _call_part, _hyp2f1_parts, _Part, _regularized_part,
                  _surface_part)
from .series import PowerSeries, eval_series, taylor_shift
from .transforms import _laplace_members
from .utils import as_family, cpow, family_result, principal_power, require_tol

_BETA_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class PWDEParams:
    """(kappa, mu, beta_0, beta_1, ...) of the normal form above."""

    kappa: complex
    mu: complex
    beta: tuple = ()
    beta_radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kappa", complex(self.kappa))
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "beta", tuple(complex(b) for b in self.beta))
        if self.beta_radius < 0:
            raise DomainError("beta_radius must be non-negative")

    @property
    def pure_whittaker(self) -> bool:
        return all(abs(b) < _BETA_ZERO_TOL for b in self.beta)


@dataclass(frozen=True)
class PhaseAmplitudePair:
    """Formal 1/z coefficients of P_1 and P_2, both normalized to c_0 = 1."""

    c1: tuple
    c2: tuple

    def __post_init__(self):
        object.__setattr__(self, "c1", tuple(complex(v) for v in self.c1))
        object.__setattr__(self, "c2", tuple(complex(v) for v in self.c2))
        if abs(self.c1[0] - 1.0) > 1e-14 or abs(self.c2[0] - 1.0) > 1e-14:
            raise DomainError("phase-amplitude series must start at 1")


@dataclass(frozen=True)
class MonodromyTriple:
    T1: complex
    T2: complex
    kappa: complex

    @property
    def goursat(self) -> bool:
        """True when 2*kappa is an integer and the log-form relations apply."""
        two_k = 2.0 * complex(self.kappa)
        return abs(two_k.imag) < 1e-12 and abs(two_k.real - round(two_k.real)) < 1e-12


@dataclass(frozen=True)
class DualPair:
    """Borel duals F_1, F_2 of a phase-amplitude pair.

    family is ("whittaker", kappa, mu) when closed-form continuation across
    cuts is available; None for perturbed pairs, which are then usable only
    within their convergence disk.
    """

    F1: PowerSeries
    F2: PowerSeries
    family: Optional[tuple] = None


class DegenerateGoursat(DomainError):
    def __init__(self):
        super().__init__("2 kappa is an integer: use verify_goursat_ltf")


# ---------------------------------------------------------------------------
# Reduction to the normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedODE:
    """Reduction record: u = w exp(-(1/2) int a), z = scale * z_new."""

    params: PWDEParams
    scale: complex
    q: tuple  # potential coefficients of the intermediate w'' = q(z) w

    def potential_residual(self, zeta_grid: Sequence[complex]) -> float:
        """max |q_hat(z) - normal_form(z)| over the grid (new variable)."""
        p = self.params
        worst = 0.0
        for z in zeta_grid:
            z = complex(z)
            qhat = sum(self.scale ** (2 - m) * self.q[m] * z ** (-m)
                       for m in range(len(self.q)))
            target = 0.25 - p.kappa / z + (p.mu ** 2 - 0.25) / z ** 2
            target += sum(b * z ** (-k - 3) for k, b in enumerate(p.beta))
            worst = max(worst, abs(qhat - target))
        return worst


def normalize_ode(a_series: PowerSeries, b_series: PowerSeries) -> NormalizedODE:
    """Reduce u'' + a(z) u' + b(z) u = 0 (a, b given as 1/z series) to the
    normal form, via u = w exp(-(1/2) int a) and the dilation fixing the
    leading potential coefficient to 1/4.

    Requires a_0^2 - 4 b_0 != 0 (distinct characteristic roots).
    """
    a = a_series.coeffs
    b = b_series.coeffs
    n = min(len(a), len(b))
    disc = a[0] ** 2 - 4.0 * b[0]
    if abs(disc) < 1e-14:
        raise DomainError("equal characteristic roots (a_0^2 = 4 b_0) are unsupported")
    q = []
    for m in range(n):
        qm = sum(a[i] * a[m - i] for i in range(m + 1)) / 4.0
        if m >= 2:
            qm -= 0.5 * (m - 1) * a[m - 1]
        q.append(qm - b[m])
    c = 1.0 / (2.0 * cmath.sqrt(q[0]))
    kappa = -c * q[1] if n > 1 else 0.0
    mu = cmath.sqrt((q[2] if n > 2 else 0.0) + 0.25)
    beta = tuple(c ** (-k - 1) * q[k + 3] for k in range(max(0, n - 3)))
    return NormalizedODE(params=PWDEParams(kappa, mu, beta), scale=c, q=tuple(q))


# ---------------------------------------------------------------------------
# Formal series and Borel duals
# ---------------------------------------------------------------------------

def phase_amplitude_recurrence(p: PWDEParams, N: int) -> PhaseAmplitudePair:
    """Order-by-order solution of the normal form for both exponential
    branches; coefficients grow factorially, so N is capped at 64."""
    if not 1 <= N <= 64:
        raise DomainError("N must be in 1..64 (coefficients grow like n!)")
    k, m = p.kappa, p.mu
    c1 = [1.0 + 0.0j]
    c2 = [1.0 + 0.0j]
    for n in range(1, N):
        conv1 = sum(p.beta[j] * c1[n - 2 - j] for j in range(min(n - 1, len(p.beta))))
        conv2 = sum(p.beta[j] * c2[n - 2 - j] for j in range(min(n - 1, len(p.beta))))
        c1.append(((m ** 2 - (n - k - 0.5) ** 2) * c1[n - 1] + conv1) / n)
        c2.append((((n + k - 0.5) ** 2 - m ** 2) * c2[n - 1] - conv2) / n)
    return PhaseAmplitudePair(tuple(c1), tuple(c2))


def borel_duals(pa: PhaseAmplitudePair) -> DualPair:
    """f_{j,k} = c_{j,k} / k!; radius hints are left unset (the perturbed
    singularity location is not computable from finitely many terms)."""
    f1 = tuple(c / math.factorial(k) for k, c in enumerate(pa.c1))
    f2 = tuple(c / math.factorial(k) for k, c in enumerate(pa.c2))
    return DualPair(PowerSeries(f1), PowerSeries(f2), family=None)


def whittaker_dual_pair(kappa: complex, mu: complex, N: int = 32) -> DualPair:
    """Dual pair of the unperturbed equation; the Taylor data comes from the
    recurrence while evaluation and continuation use the hypergeometric
    closed forms F_1(t) = 2F1(1/2-k-m, 1/2-k+m; 1; -t) etc."""
    kappa, mu = complex(kappa), complex(mu)
    pa = phase_amplitude_recurrence(PWDEParams(kappa, mu), N)
    base = borel_duals(pa)
    F1 = PowerSeries(base.F1.coeffs, radius_hint=1.0, type_hint=0.0)
    F2 = PowerSeries(base.F2.coeffs, radius_hint=1.0, type_hint=0.0)
    return DualPair(F1, F2, family=("whittaker", kappa, mu))


def _whittaker_family(d: DualPair) -> tuple:
    if d.family is None or d.family[0] != "whittaker":
        raise DomainError("closed-form continuation needs a Whittaker dual pair")
    return d.family[1], d.family[2]


def stokes_multipliers_whittaker(kappa: complex, mu: complex) -> MonodromyTriple:
    """T_1 = 2 pi i / (Gamma(1/2-k-m) Gamma(1/2-k+m)) and
    T_2 = 2 pi i e^{2 pi i k} / (Gamma(1/2+k-m) Gamma(1/2+k+m)).

    These are the cut-jump connection coefficients of the dual
    hypergeometric functions with the phase normalization fixed by matching
    the measured jumps (re-asserted in the test suite).  Gamma poles give
    exact zeros: the terminating cases carry no branch jump.
    """
    kappa, mu = complex(kappa), complex(mu)
    T1 = 2j * math.pi * rgamma(0.5 - kappa - mu) * rgamma(0.5 - kappa + mu)
    T2 = 2j * math.pi * cmath.exp(2j * math.pi * kappa) * \
        rgamma(0.5 + kappa - mu) * rgamma(0.5 + kappa + mu)
    return MonodromyTriple(T1, T2, kappa)


# ---------------------------------------------------------------------------
# Surface evaluators (Whittaker case)
# ---------------------------------------------------------------------------

class WhittakerSurface:
    """F_1, F_2 on the log-Riemann surface, one crossing beyond the canonical
    sheets; the continuation laws were validated against ODE-path
    continuation of the hypergeometric equation."""

    def __init__(self, kappa: complex, mu: complex):
        self.kappa = complex(kappa)
        self.mu = complex(mu)
        self.p1 = Hyp2F1Params(0.5 - kappa - mu, 0.5 - kappa + mu, 1.0)
        self.p2 = Hyp2F1Params(0.5 + kappa - mu, 0.5 + kappa + mu, 1.0)

    def f1(self, rho, theta):
        """F_1 at the surface points rho e^{i theta}, |theta| < 2 pi: F_1(t) =
        2F1(p1; -t) with -t at arg theta - pi.  rho and theta broadcast
        against each other; two scalars give a complex.  The value of
        f1_part."""
        return _hyp2f1_parts([self.f1_part(rho, theta)])[0]

    def f1_part(self, rho, theta) -> _Part:
        """f1(rho, theta) as a hyp part.  -t is formed as -(rho e^{i theta}),
        so mirrored theta give exactly conjugate points (rho e^{i(theta -
        pi)} would not be), which a real-parameter 2F1 pass sums once."""
        r, th = _surface_points(rho, theta)
        if (np.abs(th) >= 2.0 * math.pi - 1e-14).any():
            raise DomainError("F_1 evaluator covers |arg t| < 2 pi only")
        return _surface_part(self.p1, r, th - math.pi, -(r * np.exp(1j * th))).then(
            partial(_shaped, rho, theta))

    def f2(self, rho, theta):
        """F_2 = 2F1(p2; t) at the surface points; canonical sheet -2 pi < arg
        t < 0, extended by one upward crossing to arg t <= pi.  The value of
        f2_part."""
        return _hyp2f1_parts([self.f2_part(rho, theta)])[0]

    def f2_part(self, rho, theta) -> _Part:
        """f2(rho, theta) as a hyp part."""
        r, th = _surface_points(rho, theta)
        if not (((th > -2.0 * math.pi + 1e-14) & (th <= math.pi + 1e-14))
                | (np.abs(th + 2.0 * math.pi) <= 1e-14)).all():
            raise DomainError("F_2 evaluator covers -2 pi < arg t <= pi only")
        return _surface_part(self.p2, r, th).then(partial(_shaped, rho, theta))


def _surface_points(rho, theta) -> tuple:
    r, th = np.broadcast_arrays(np.atleast_1d(np.asarray(rho, dtype=float)),
                                np.atleast_1d(np.asarray(theta, dtype=float)))
    if not (r > 0).all():
        raise DomainError("rho must be positive")
    return r.ravel(), th.ravel()


def _shaped(rho, theta, values: np.ndarray):
    """values as a complex for scalar rho and theta, else in their shape."""
    shape = np.broadcast_shapes(np.shape(rho), np.shape(theta))
    return values.reshape(shape) if shape else complex(values[0])


# ---------------------------------------------------------------------------
# Laplace evaluation of the phase-amplitudes along rotated rays
# ---------------------------------------------------------------------------

def _phase_amplitude_rays(surf: WhittakerSurface, moduli: list, zeta_arg: float,
                          which: int, tol: float) -> list:
    """The transforms._laplace_members members that give P_which of surf's
    equation at each zeta = modulus e^{i zeta_arg}; their functions are
    surf's part forms, so a quadrature level evaluates all surface branches
    in one 2F1 pass."""
    require_tol(tol)
    zetas = [z * cmath.exp(1j * zeta_arg) for z in moduli]
    ray = -zeta_arg
    if which == 1:
        # F_1 singular at arg t = +-pi; keep 0.5 rad clear of the cut
        ray = max(-math.pi + 0.5, min(math.pi - 0.5, ray))
        return [(surf.f1_part, None, zeta, 0.0, tol, ray, None) for zeta in zetas]
    if which == 2:
        # F_2 regular on (-2 pi, 0); beyond-sheet rays carry the branch-point
        # factor |t-1|^{-2 Re kappa}
        ray = max(-2.0 * math.pi + 0.5, min(math.pi - 0.5, ray))
        sing = 2.0 * surf.kappa.real if ray > 1e-12 else None
        return [(surf.f2_part, None, zeta, 0.0, tol, ray, sing) for zeta in zetas]
    raise DomainError("which must be 1 or 2")


def phase_amplitude_values(kappa: complex, mu: complex, zeta_abs,
                           zeta_arg: float, which: int,
                           tol: float = 1e-10):
    """P_1 or P_2 of the unperturbed equation at zeta_abs e^{i zeta_arg} by
    Laplace quadrature of the dual function along an adapted ray.  An array
    of zeta_abs gives an ndarray of its shape, from one family integration
    along the ray."""
    kappa, mu = complex(kappa), complex(mu)
    moduli, shape = as_family(zeta_abs)
    rays = _phase_amplitude_rays(WhittakerSurface(kappa, mu), moduli, zeta_arg, which, tol)
    return family_result(_laplace_members(rays), shape)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def default_t_grid(n: int = 12) -> list:
    """Points with 1.2 <= |t| <= 2 keeping 0.1 rad clear of both cuts."""
    out = []
    radii = (1.2, 1.45, 1.7, 2.0)
    angles = (0.35, 1.5, 2.6)
    for i, r in enumerate(radii):
        for j, a in enumerate(angles):
            sgn = 1.0 if (i + j) % 2 == 0 else -1.0
            out.append(r * cmath.exp(1j * sgn * a))
    return out[:n]


def default_zeta_grid() -> list:
    return [3.0, 4.0, 5.0, 6.0]


def _sheet_difference(f_part, rho: np.ndarray, phi: np.ndarray) -> _Part:
    """The part of f(rho, phi - pi) - f(rho, phi + pi), both sheets in one
    part f_part of f."""
    both = f_part(np.concatenate((rho, rho)), np.concatenate((phi - math.pi, phi + math.pi)))
    return both.then(lambda v: v[:len(rho)] - v[len(rho):])


def verify_dual_monodromy(d: DualPair, m: MonodromyTriple,
                          t_grid: Optional[Sequence[complex]] = None,
                          tol: float = 1e-6) -> dict:
    """Residuals of the time-side monodromic relations on the grid.

    The F_1 relation is checked as printed:

        F1(t e^{-i pi}) - F1(t e^{i pi}) = T1 (t-1)^{2k} I_{2k}{F2((t-1)e^{-i pi})}

    at every grid point.  The F_2 relation is checked on the half-grid
    arg t <= 0 (the natural sheet of F_2) in three forms: the printed
    variant with F_2, the printed variant with F_1 substituted, and the
    validated continuation form, whose coefficient is T2 e^{-4 pi i kappa}
    on principal powers.  `pass` refers to the printed F_1 relation plus
    the validated F_2 form.
    """
    if d.family is not None and d.family[0] == "whittaker":
        parts, finish = _dual_monodromy_plan(*_whittaker_family(d), m, t_grid, tol)
        return finish(_hyp2f1_parts(parts))
    why = "continuation unavailable: perturbed dual pair is known only inside its convergence disk"
    grid = _grid_points(t_grid if t_grid is not None else default_t_grid(), "t_grid").tolist()
    return _dual_monodromy_report([{"t": _c(t), "skipped": why} for t in grid], 0.0, tol)


def _dual_monodromy_plan(kappa, mu, m: MonodromyTriple, t_grid, tol: float) -> tuple:
    """(parts, finish) of verify_dual_monodromy for the Whittaker pair
    (kappa, mu): the hyp parts of every function value on the grid (side
    flags act on the cut only), and finish, which makes their results the report."""
    ts = _grid_points(t_grid if t_grid is not None else default_t_grid(), "t_grid").tolist()
    surf = WhittakerSurface(kappa, mu)
    k2 = 2.0 * complex(kappa)
    outside = [t for t in ts if abs(t) > 1.0]
    f2_side = [t for t in outside if cmath.phase(t) <= 1e-14]  # F_2 sheet half-grid
    rho, phi, rho2, phi2 = (np.array([f(t) for t in pts]) for pts in (outside, f2_side)
                            for f in (abs, cmath.phase))
    a1, b1, a2, b2 = surf.p1.a, surf.p1.b, surf.p2.a, surf.p2.b
    # I_{2k} F_2 at (t-1) e^{-i pi} and I_{-2k} F_j at (1+t) e^{-i pi}
    parts = [_sheet_difference(surf.f1_part, rho, phi),
             _regularized_part(a2, b2, 1.0 + k2, 1.0 - np.array(outside), side=-1),
             _sheet_difference(surf.f2_part, rho2, phi2),
             _regularized_part(a1, b1, 1.0 - k2, 1.0 + np.array(f2_side), side=-1),
             _regularized_part(a2, b2, 1.0 - k2, -(1.0 + np.array(f2_side)))]

    def finish(vals: list) -> dict:
        lhs1, in1, lhs2, in2, in2_f2 = vals
        cases, max_res = [], 0.0
        i = j = 0
        for t in ts:
            if abs(t) <= 1.0:
                cases.append({"t": _c(t), "skipped": "relations are trivial "
                              "inside the unit disk"})
                continue
            rhs1 = m.T1 * principal_power(t - 1.0, k2) * complex(in1[i])
            res1 = abs(complex(lhs1[i]) - rhs1)
            i += 1
            entry = {"t": _c(t), "mon1_residual": res1}
            max_res = max(max_res, res1)
            if cmath.phase(t) <= 1e-14:
                inner, left = complex(in2[j]), complex(lhs2[j])
                mark = cpow(abs(1.0 + t), math.pi + cmath.phase(1.0 + t), -k2)
                printed_f1 = m.T2 * mark * inner
                printed_f2 = m.T2 * mark * complex(in2_f2[j])
                valid = m.T2 * cmath.exp(-2j * math.pi * k2) * \
                    principal_power(1.0 + t, -k2) * inner
                res2 = abs(left - valid)
                entry["mon2_residual_validated"] = res2
                entry["mon2_residual_printed_f2"] = abs(left - printed_f2)
                entry["mon2_residual_printed_f1"] = abs(left - printed_f1)
                max_res = max(max_res, res2)
                j += 1
            cases.append(entry)
        return _dual_monodromy_report(cases, max_res, tol)
    return parts, finish


def _dual_monodromy_report(cases: list, max_res: float, tol: float) -> dict:
    n = sum("skipped" not in c for c in cases)
    return {"suite": "dual-monodromy", "cases": cases, "n_checked": n,
            "max_residual": max_res, "tolerance": tol, "pass": n > 0 and max_res <= tol,
            "notes": "F2-side validated form has coefficient T2 e^{-4 pi i kappa} "
                     "on principal powers; both printed variants are recorded"}


def verify_eg_ltf(d: DualPair, m: MonodromyTriple,
                  t_grid: Optional[Sequence[complex]] = None,
                  tol: float = 1e-6) -> dict:
    """Both linear transformation identities on the grid (2 kappa not an
    integer).  The F_2-side leading term carries the e^{-4 pi i kappa}
    branch normalization fixed by measurement; the F_2 side is evaluated on
    its own sheet (arg t < 0).  This is _eg_ltf_report of d's pair."""
    return _eg_ltf_report(*_whittaker_family(d), m, t_grid, tol)


def _eg_ltf_report(kappa, mu, m: MonodromyTriple, t_grid=None, tol: float = 1e-6) -> dict:
    """verify_eg_ltf of the Whittaker pair (kappa, mu), in one 2F1 pass."""
    if m.goursat:
        raise DegenerateGoursat()
    k2 = 2.0 * complex(kappa)
    surf = WhittakerSurface(kappa, mu)
    sin_factor = 2j * cmath.sin(math.pi * k2)
    ts = _grid_points(t_grid if t_grid is not None else default_t_grid(), "t_grid",
                      real_ok=False)
    t2s = np.where(ts.imag < 0, ts, ts.conj())  # F_2 sheet
    # each hypergeometric factor on the whole grid at once; phi1 and phi2 are
    # the regularized 2F1(a1, b1; 1-2k; .) and 2F1(a2, b2; 1+2k; .)
    p1, p2, x = surf.p1, surf.p2, np.array([1.0 + ts, 1.0 - t2s])
    f_p1, f_p2, (f_phi1, f_phi1_2), (f_phi2, f_phi2_2) = _hyp2f1_parts([
        _call_part(p1, -ts), _call_part(p2, t2s),
        _regularized_part(p1.a, p1.b, 1.0 - k2, x),
        _regularized_part(p2.a, p2.b, 1.0 + k2, x)])
    cases = []
    max_res = 0.0
    for i, t in enumerate(ts.tolist()):
        lhs1 = sin_factor * f_p1[i]
        rhs1 = (-m.T1 * principal_power(1.0 + t, k2) * f_phi2[i]
                + m.T2 * cmath.exp(-1j * math.pi * k2) * f_phi1[i])
        res1 = float(abs(lhs1 - rhs1))
        t2 = t if t.imag < 0 else t.conjugate()
        lhs2 = sin_factor * f_p2[i]
        rhs2 = (m.T2 * cmath.exp(-2j * math.pi * k2) *
                principal_power(t2 - 1.0, -k2) * f_phi1_2[i]
                - m.T1 * f_phi2_2[i])
        res2 = float(abs(lhs2 - rhs2))
        cases.append({"t": _c(t), "residual_f1": res1, "residual_f2": res2})
        max_res = max(max_res, res1, res2)
    return {"suite": "eg-ltf", "cases": cases, "max_residual": max_res,
            "tolerance": tol, "pass": bool(cases) and max_res <= tol,
            "ill_conditioned": abs(sin_factor) < 0.1,
            "notes": "F2-side leading coefficient validated as T2 e^{-4 pi i kappa}"}


def _grid_points(grid, name: str, real_ok: bool = True) -> np.ndarray:
    """grid as a complex array.  DomainError names its first point that is
    not finite, and unless real_ok its first real point x: there 1 + x or
    1 - x lies on [1, oo), where the 2F1s of the transformation checks are
    singular or on their cut, and the checks take no side."""
    pts = np.array(list(grid), dtype=complex)
    if not np.isfinite(pts).all():
        raise DomainError(f"{name} point {complex(pts[~np.isfinite(pts)][0])} is not finite")
    real = pts.real[pts.imag == 0.0]
    if not real_ok and real.size:
        raise DomainError(f"{name} point {float(real[0])!r} is real: 1 + x or 1 - x lies on "
                          "[1, oo), the 2F1 cut, and the check takes no side")
    return pts


def verify_goursat_ltf(d: DualPair, m: MonodromyTriple,
                       s_grid: Optional[Sequence[complex]] = None,
                       n_psi: int = 14, tol: float = 1e-6) -> dict:
    """Fit of the logarithmic transformation structure near t = -1 for
    integer 2 kappa:

        F1(t) = C1 T1 (1+t)^{2k} log(1+t) I_{2k}{F2(1+t)} + Psi1(1+t)

    and the F_2 counterpart with I_{-2k}{F_1}.  C_j come from a linear
    least-squares fit against an analytic remainder polynomial; analyticity
    of the remainders is confirmed by the decay of ring-sampled Taylor
    coefficients.  This is the one-case call of _goursat_reports.
    """
    return _goursat_reports([(*_whittaker_family(d), m, s_grid, n_psi, tol)])[0]


def _goursat_reports(cases: Sequence[tuple]) -> list:
    """verify_goursat_ltf for each (kappa, mu, m, s_grid, n_psi, tol) of cases.
    Every case is validated before any is evaluated; then the 2F1 values of
    all cases, on their fit grids and sample rings, are one pass, so a
    report equals its one-case call, bit for bit.  The ring is built from
    its first quadrant by exact conjugation and negation, and the default
    fit grids from their upper halves by exact conjugation, so the
    real-parameter 2F1s of the pass sum each conjugate pair once."""
    ring, n_ring = 0.55, 64
    # half-step ring samples dodge the negative-real axis of log(s)
    quad = ring * np.exp(2j * math.pi * (np.arange(n_ring // 4) + 0.5) / n_ring)
    ring_pts = np.concatenate((quad, -quad[::-1].conj(), -quad, quad[::-1].conj()))
    plans = [_goursat_sides(*case[:4], ring_pts) for case in cases]
    vals = iter(_hyp2f1_parts([part for _, sides in plans for *_, parts in sides
                               for part in parts]))
    reports = []
    for (*_, n_psi, tol), (k2i, sides) in zip(cases, plans):
        fits = {}
        max_res = 0.0
        for label, T, pts, n_pole, parts in sides:
            k_pts, y, k_ring, f_ring = (next(vals) for _ in parts)
            A = np.column_stack([T * k_pts] + [pts ** -j for j in range(1, n_pole + 1)]
                                + [pts ** j for j in range(n_psi)])
            sol, *_ = np.linalg.lstsq(A, y, rcond=None)
            fit_res = float(np.max(np.abs(A @ sol - y)))
            C = complex(sol[0])
            pole_part = sol[1:1 + n_pole]
            psi = sol[1 + n_pole:]
            samples = f_ring - C * T * k_ring
            samples -= sum(pc * ring_pts ** -(i + 1) for i, pc in enumerate(pole_part))
            ks = np.arange(n_ring)
            coeffs = np.fft.fft(samples) / n_ring * \
                np.exp(-1j * math.pi * ks / n_ring)
            mags = np.abs(coeffs[: n_ring // 2]) / ring ** np.arange(n_ring // 2)
            js = np.arange(8, 22)
            tail = np.maximum(mags[js], 1e-18)
            radius_est = float(np.exp(-np.polyfit(js, np.log(tail), 1)[0]))
            fits[label] = {"C": _c(C), "fit_residual": fit_res,
                           "psi_leading": [_c(c) for c in psi[:4]],
                           "principal_part": [_c(c) for c in pole_part],
                           "psi_radius_estimate": radius_est}
            max_res = max(max_res, fit_res)
        analytic_ok = all(fits[k]["psi_radius_estimate"] >= 0.9 for k in fits)
        reports.append({"suite": "goursat-ltf", "kappa2": k2i, "sides": fits,
                        "max_residual": max_res, "tolerance": tol,
                        "psi_analytic": analytic_ok,
                        "pass": max_res <= tol and analytic_ok})
    return reports


def _goursat_sides(kappa, mu, m: MonodromyTriple, s_grid, ring_pts: np.ndarray) -> tuple:
    """(integer 2 kappa, sides) of a verify_goursat_ltf case, a side being
    (label, T, fit points, n_pole, parts): the parts of the logarithmic term
    K and of F at the fit points and at ring_pts.  The F_2 side carries a
    finite principal part of order 2 kappa (n_pole) on top of the
    logarithmic structure; it is fitted and reported separately."""
    if not m.goursat:
        raise DomainError("verify_goursat_ltf needs integer 2 kappa")
    k2i = round((2.0 * complex(kappa)).real)
    surf = WhittakerSurface(kappa, mu)
    p1, p2 = surf.p1, surf.p2

    # s^{2k} log(s) I_{2k}F_2(s) and s^{-2k} log(s) I_{-2k}F_1(s) on arrays of
    # s; the log branch must share the cut of the function being matched:
    # F_1's singular ray is s < 0 (principal log), F_2's is s > 0
    def K1(s):
        log = np.log(s)
        return _regularized_part(p2.a, p2.b, 1.0 + k2i, s).then(
            lambda v: np.exp(k2i * log) * log * v)

    def K2(s):
        log02 = np.log(np.abs(s)) + 1j * (np.angle(s) % (2.0 * math.pi))
        return _regularized_part(p1.a, p1.b, 1.0 - k2i, -s).then(
            lambda v: np.exp(-k2i * log02) * log02 * v)

    if s_grid is not None:
        grid1 = grid2 = _grid_points(s_grid, "s_grid", real_ok=False)
        if not grid1.size:
            raise DomainError("s_grid is empty: the fit has no points")
    else:
        # arg s on [-2.6, 2.6] and [0.25, 2 pi - 0.25], 14 points each, the
        # lower half of each the mirror image of its upper half
        up1 = np.exp(1j * np.linspace(-2.6, 2.6, 14)[7:])
        up2 = np.exp(1j * np.linspace(0.25, 2.0 * math.pi - 0.25, 14)[:7])
        grid1, grid2 = (np.outer((0.15, 0.32), e).ravel() for e in (
            np.concatenate((up1[::-1].conj(), up1)), np.concatenate((up2, up2[::-1].conj()))))
    return k2i, [(label, T, pts, n_pole, [K(pts), F_of_s(pts), K(ring_pts), F_of_s(ring_pts)])
                 for label, K, T, F_of_s, pts, n_pole in (
                     ("f1", K1, m.T1, lambda s: _call_part(p1, 1.0 - s), grid1, 0),
                     ("f2", K2, m.T2, lambda s: _call_part(p2, 1.0 + s), grid2, max(0, k2i)))]


def verify_mw_system(kappa: complex, mu: complex, m: MonodromyTriple,
                     zeta_grid: Optional[Sequence[float]] = None,
                     tol: float = 1e-10) -> dict:
    """Transform-side monodromic relation for the unperturbed pair.

    The P_1 relation is measured directly through rotated-ray Laplace
    integrals of the dual functions.  The P_2 relation is verified as the
    P_1 relation of the kappa-reflected companion system (P_2(z; kappa) =
    P_1(z e^{-i pi}; -kappa) is an exact substitution identity), whose
    multiplier T_1(-kappa) = m.T2 e^{-2 pi i kappa} comes from m.  All rays,
    six per grid point, are one family integration; the two P_1 rays of a
    kappa at arg zeta = +-pi are mirror images whose surface points are exact
    conjugates, so for real kappa and mu each 2F1 pass sums their points
    once.  The report includes the log-slope of the measured jump against
    e^{-zeta}.  It passes when every relative residual above the measurable
    threshold is at most 100 tol, and it fails when no case is above it.
    """
    return _mw_system(kappa, mu, m, zeta_grid, tol)[0]


def _mw_system(kappa, mu, m: MonodromyTriple, zeta_grid=None, tol=1e-10, parts=()) -> tuple:
    """(verify_mw_system's report, the results of parts from its first level)."""
    grid = [float(z) for z in (zeta_grid if zeta_grid is not None
                               else default_zeta_grid())]
    _grid_points(grid, "zeta_grid")
    if len(set(grid)) < len(grid):
        raise DomainError("zeta_grid repeats a point: the log-slope fit needs distinct zeta")
    kappa, mu = complex(kappa), complex(mu)
    surfs = [WhittakerSurface(kap, mu) for kap in (kappa, -kappa)]
    rays = [ray for surf in surfs for arg, which in ((math.pi, 1), (-math.pi, 1), (math.pi, 2))
            for ray in _phase_amplitude_rays(surf, as_family(grid)[0], arg, which, tol)]
    vals = _laplace_members(rays, parts)
    extra, vals = vals[len(rays):], np.array(vals[:len(rays)]).reshape(2, 3, -1).tolist()

    def mw1_cases(kap, T1_val, p1p, p1m, p2p):
        """(lhs, rhs, relative residual) per zeta from P_1(+-pi), P_2(pi)."""
        out = []
        for zeta, a, b, c in zip(grid, p1p, p1m, p2p):
            lhs = a - b
            rhs = T1_val * cmath.exp(-zeta) * zeta ** (-2.0 * kap) * c
            out.append((lhs, rhs, abs(lhs - rhs) / max(abs(rhs), 1e-300)))
        return out

    refl_T1 = m.T2 * cmath.exp(-2j * math.pi * kappa)  # T_1(-kappa)
    cases = []
    jumps = []
    max_rel = 0.0
    for z, (lhs, rhs, rel), (_, _, rel2) in zip(grid, mw1_cases(kappa, m.T1, *vals[0]),
                                                 mw1_cases(-kappa, refl_T1, *vals[1])):
        below_floor = abs(rhs) < 1e-12
        cases.append({"zeta": z, "jump_p1": _c(lhs), "predicted": _c(rhs),
                      "relative_residual": rel,
                      "mw2_companion_relative_residual": rel2,
                      "below_measurable_threshold": below_floor})
        jumps.append(abs(lhs))
        if not below_floor:
            max_rel = max(max_rel, rel, rel2)
    slope = slope_detrended = None
    if len(grid) >= 2 and all(j > 0 for j in jumps):
        slope = float(np.polyfit(grid, np.log(jumps), 1)[0])
        # remove the known algebraic zeta^{-2 kappa} weight before the fit
        detr = [math.log(j) + 2.0 * kappa.real * math.log(z)
                for j, z in zip(jumps, grid)]
        slope_detrended = float(np.polyfit(grid, detr, 1)[0])
    measured = not all(c["below_measurable_threshold"] for c in cases)
    return {"suite": "mw-system", "cases": cases,
            "max_relative_residual": max_rel,
            "log_slope": slope, "log_slope_detrended": slope_detrended,
            "tolerance": tol,
            "pass": measured and max_rel <= tol * 100 and
                    (slope_detrended is None or abs(slope_detrended + 1.0) <= 0.1),
            "notes": "MW2 checked as the MW1 relation of the kappa-reflected "
                     "companion (exact substitution identity)"}, extra


def _monodromy_reports(kappa, mu, m: MonodromyTriple, dm_tol: float) -> tuple:
    """verify_dual_monodromy (tol dm_tol) and verify_mw_system of (kappa, mu) in one family."""
    parts, finish = _dual_monodromy_plan(kappa, mu, m, None, dm_tol)
    mw, vals = _mw_system(kappa, mu, m, parts=parts)
    return finish(vals), mw


def mon1_mw1_consistency(kappa: complex, mu: complex, zeta: float = 4.0,
                         tol: float = 1e-5) -> dict:
    """Laplace transform of the time-side jump relation against the
    transform-side one: L applied to the Mon-1 right side must reproduce the
    MW-1 right side (shift -> e^{-zeta}, fractional weight -> zeta^{-2k})."""
    kappa, mu = complex(kappa), complex(mu)
    k2 = 2.0 * kappa
    if k2.real <= -1.0:
        raise DomainError("needs Re(2 kappa) > -1")
    surf = WhittakerSurface(kappa, mu)
    m = stokes_multipliers_whittaker(kappa, mu)
    # the t^{2 kappa} transform of I_{2 kappa} F_2(-t), the regularized
    # 2F1(a2, b2; 1+2 kappa; -t), and the P_2 ray at arg zeta = pi, as one family
    a2, b2 = surf.p2.a, surf.p2.b
    left = (lambda t: _regularized_part(a2, b2, 1.0 + k2, -t), k2, complex(zeta),
            0.0, 1e-12, None, None)
    lap, p2 = _laplace_members([left] + _phase_amplitude_rays(surf, [complex(zeta)], math.pi,
                                                             2, 1e-11))
    shift = m.T1 * cmath.exp(-zeta) * zeta ** (-k2)
    lhs, rhs = shift * lap, shift * p2
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return {"suite": "mon1-mw1-consistency", "zeta": zeta, "lhs": _c(lhs),
            "rhs": _c(rhs), "relative_residual": rel, "pass": rel <= tol}


def continue_series_along(F: PowerSeries, path: Sequence[complex],
                          tol: float = 1e-6):
    """Re-expansion continuation of a truncated series along a polyline.

    Each hop re-centers by Taylor shift; the dropped tail is estimated from
    a ratio-test radius of the current expansion, and the accumulated
    estimate must stay below tol.  Intended for perturbed dual pairs at
    small |t|; raises ConvergenceError when a hop nears the estimated
    radius.
    """
    from .series import estimate_growth

    pts = [complex(z) for z in path]
    cur = F
    center = 0.0 + 0.0j
    err = 0.0
    n = F.truncation
    # radius is estimated once at the anchor (re-centered truncations corrupt
    # their own tails) and shrunk by the worst case along the walk
    est = estimate_growth(F)
    r_cur = est.a if est.a is not None else math.inf
    for target in pts:
        step = target - center
        if step != 0:
            ratio = abs(step) / r_cur if math.isfinite(r_cur) else 0.0
            if ratio >= 0.8:
                raise ConvergenceError(
                    f"hop of {abs(step):.3g} approaches the remaining radius "
                    f"bound {r_cur:.3g} at {target:.4g}")
            if ratio > 0:
                err += ratio ** n / (1.0 - ratio)
            err += eval_series(cur, step).last_term
            if err > tol:
                raise ConvergenceError(
                    f"truncation estimate {err:.2e} exceeds {tol:.1e} at {target:.4g}")
            if math.isfinite(r_cur):
                r_cur -= abs(step)
        cur = taylor_shift(cur, step)
        center = target
    return cur, err


def _c(z: complex) -> list:
    """JSON-friendly [re, im]."""
    z = complex(z)
    return [z.real, z.imag]
