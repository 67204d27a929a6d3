"""The four benchmark workloads: seeded inputs, the timed call, the mpmath
reference and the output check.

Each workload turns a seed into a list of operations (one "round").  The
program sees only what an operation carries: a CLI argv for the three
CLI-driven workloads, or the arguments of one scalar ``fraccal.hyp2f1``
call.  This module imports neither numpy nor mpmath at import time, so the
set-up probe can time ``import fraccal`` on its own; mpmath is imported by
the reference functions, which run outside every timed region.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Optional

REF_DPS = 30
# The contour ops are checked at the CLI's default --tol; the CLI computes
# them to a hundredth of it.
CONTOUR_TOL = 1e-8
# ROADMAP correctness target for scalar 2F1 values.
HYP_TOL = 1e-10
# -log10 of a relative error of exactly 0 (beyond double precision)
DIGITS_CAP = 17.0

# t is drawn from the tube of width 0.45 around [0, oo) with this Re range;
# the CLI puts the contour at A = 0.5.
TUBE = 0.45
RE_MIN, RE_MAX = -0.45, 1.5
# largest seeded move of a contour point, as a share of its lattice cell
JITTER = 0.01
# real non-integer, complex and integer orders (integers take the
# terminating kernel branch of the derivative)
ALPHAS = ("0.5", "0.3+0.4j", "1", "1.5", "0.75-0.25j", "-0.5", "2")
BUILTINS = ("geometric", "exp")
SUITES = ("euler-ltf", "jumps", "lm-duality", "watson", "monodromy",
          "eg-ltf", "goursat")


@dataclass(frozen=True)
class Op:
    """One operation: its input class and what the program is given."""

    region: str
    args: tuple


@dataclass(frozen=True)
class Check:
    ok: bool
    digits: Optional[float] = None  # -log10(relative error), when known
    reason: str = ""


def digits_of(rel_err: float) -> float:
    return DIGITS_CAP if rel_err <= 0.0 else min(DIGITS_CAP, -math.log10(rel_err))


def check_value(value: complex, ref: complex, tol: float) -> Check:
    """A value passes when it is finite and within tol relative of ref."""
    if not (cmath.isfinite(value)):
        return Check(False, reason="non-finite value")
    err = abs(value - ref) / abs(ref)
    if err > tol:
        return Check(False, digits_of(err), f"relative error {err:.3g} > {tol:g}")
    return Check(True, digits_of(err))


def _fmt_complex(z: complex) -> str:
    """CLI form of a complex number that complex() reads back exactly."""
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def call_cli(fraccal, argv: tuple) -> tuple:
    """Run the CLI in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fraccal.cli.main(list(argv))
    return rc, out.getvalue()


class Workload:
    name = ""
    why = ""
    # whole rounds the timed loop runs at least, whatever --seconds says
    min_rounds = 1

    def make_ops(self, seed: int) -> list:
        raise NotImplementedError

    def warmup_op(self) -> Op:
        """Fixed cheap operation whose first call is part of set-up."""
        raise NotImplementedError

    def call(self, fraccal, op: Op) -> Any:
        raise NotImplementedError

    def reference(self, op: Op) -> Any:
        return None

    def check(self, op: Op, output: Any, ref: Any) -> Check:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# fracop --method contour
# ---------------------------------------------------------------------------

def _in_tube(t: complex) -> bool:
    if t.real <= 0.0:
        return abs(t) < TUBE
    return abs(t.imag) < TUBE


def tube_points(n: int, g: int) -> list:
    """The rank-1 lattice (n, g), centred in its cells, mapped onto the box
    around the tube; the points inside the tube, in lattice order."""
    pts = []
    for i in range(n):
        x = (i + 0.5) / n
        y = ((i * g) % n + 0.5) / n
        t = complex(RE_MIN + x * (RE_MAX - RE_MIN), TUBE * (2.0 * y - 1.0))
        if _in_tube(t):
            pts.append(t)
    return pts


class ContourWorkload(Workload):
    def __init__(self, name: str, mode: str, lattice: tuple, why: str):
        self.name = name
        self.mode = mode
        self.lattice = lattice  # rank-1 lattice (n points, generator g)
        self.why = why

    def _op(self, builtin: str, alpha: str, t: complex) -> Op:
        argv = ("fracop", "--builtin", builtin, f"--alpha={alpha}",
                "--mode", self.mode, f"--eval={_fmt_complex(t)}",
                "--method", "contour")
        return Op(builtin, argv)

    def make_ops(self, seed: int) -> list:
        """One op per lattice point, with alpha and F cycling along the
        lattice order (which runs along Re t) and the sign of Im t flipping
        every second point; the seed moves each point by up to JITTER of
        its lattice cell and picks the order.

        An op costs from milliseconds to seconds depending on where t lies
        and on alpha, so the points and their alpha and F stay put: a seed
        changes the values computed but not the cost mix.
        """
        rng = random.Random(seed)
        n = self.lattice[0]
        dx = JITTER * (RE_MAX - RE_MIN) / n
        dy = JITTER * 2.0 * TUBE / n
        ops = []
        for i, t in enumerate(tube_points(*self.lattice)):
            t = t.conjugate() if (i // 2) % 2 else t
            while True:
                moved = t + complex(rng.uniform(-dx, dx), rng.uniform(-dy, dy))
                if _in_tube(moved):
                    break
            ops.append(self._op(BUILTINS[i % len(BUILTINS)],
                                ALPHAS[i % len(ALPHAS)], moved))
        rng.shuffle(ops)
        return ops

    def warmup_op(self) -> Op:
        return self._op("geometric", "0.5", 0.2 + 0.1j)

    def call(self, fraccal, op: Op):
        return call_cli(fraccal, op.args)

    def reference(self, op: Op) -> complex:
        import mpmath
        builtin = op.args[2]
        alpha = complex(op.args[3].split("=", 1)[1])
        t = complex(op.args[6].split("=", 1)[1])
        with mpmath.workdps(REF_DPS):
            a, t = mpmath.mpc(alpha), mpmath.mpc(t)
            if self.mode == "deriv":
                if builtin == "geometric":
                    v = mpmath.gamma(a + 1) * (1 + t) ** (-a - 1)
                else:
                    v = mpmath.gamma(a + 1) * mpmath.hyp1f1(a + 1, 1, t)
            elif builtin == "geometric":
                v = mpmath.hyp2f1(1, 1, a + 1, -t) / mpmath.gamma(a + 1)
            else:
                v = mpmath.hyp1f1(1, a + 1, t) / mpmath.gamma(a + 1)
            return complex(v)

    def check(self, op: Op, output, ref: complex) -> Check:
        rc, text = output
        if rc != 0:
            return Check(False, reason=f"exit code {rc}")
        value = complex(*json.loads(text)["value"])
        return check_value(value, ref, CONTOUR_TOL)


# ---------------------------------------------------------------------------
# verify <suite>
# ---------------------------------------------------------------------------

def _residuals(node, out: list) -> list:
    """Values of the suite-level ``max_*residual*`` fields of a report; the
    per-case fields include recorded discrepancies outside the pass rule."""
    if isinstance(node, dict):
        for key, val in node.items():
            if key.startswith("max_") and "residual" in key:
                out.append(float(val))
            else:
                _residuals(val, out)
    elif isinstance(node, list):
        for val in node:
            _residuals(val, out)
    return out


class VerifyWorkload(Workload):
    name = "verify-all"
    why = ("the only workload heavy in contours GK15, transforms Laplace "
           "quadrature and whittaker; no fracops contour work")
    # each (suite, --seed) input repeats, so its report can be compared
    # with its first run
    min_rounds = 2
    seeds_per_round = 2

    def make_ops(self, seed: int) -> list:
        rng = random.Random(seed)
        seeds = [rng.randrange(1, 10 ** 6) for _ in range(self.seeds_per_round)]
        ops = [Op(suite, ("verify", suite, "--seed", str(s)))
               for s in seeds for suite in SUITES]
        rng.shuffle(ops)
        return ops

    def warmup_op(self) -> Op:
        return Op("euler-ltf", ("verify", "euler-ltf"))

    def call(self, fraccal, op: Op):
        return call_cli(fraccal, op.args)

    def check(self, op: Op, output, ref) -> Check:
        rc, text = output
        if rc != 0:
            return Check(False, reason=f"exit code {rc}")
        report = json.loads(text)
        if report.get("pass") is not True:
            return Check(False, reason="report does not pass")
        res = _residuals(report["suites"], [])
        return Check(True, digits_of(max(res)) if res else None)


# ---------------------------------------------------------------------------
# scalar hyp2f1
# ---------------------------------------------------------------------------

def _disc(rng: random.Random, r: float) -> complex:
    while True:
        z = complex(rng.uniform(-r, r), rng.uniform(-r, r))
        if abs(z) < r:
            return z


def _z_one_minus(rng):
    while True:
        z = 1.0 - _disc(rng, 0.7)
        if abs(1.0 - z) < abs(z) and z.imag != 0.0:
            return z


def _z_pfaff(rng):
    while True:
        w = _disc(rng, 0.7)
        z = w / (w - 1.0)
        if min(abs(w), abs(1.0 - w)) < min(abs(z), abs(1.0 - z)):
            return z


def _z_crescent(rng):
    # every route ratio above 0.98 near e^{+-i pi/3}: the ODE route
    while True:
        z = complex(rng.uniform(0.3, 0.7), rng.choice((1.0, -1.0)) * rng.uniform(0.7, 1.0))
        w = z / (z - 1.0)
        if min(abs(z), abs(1.0 - z), abs(w), abs(1.0 - w)) > 0.98:
            return z


def _params(rng):
    return _disc(rng, 5.0), _disc(rng, 5.0), _disc(rng, 5.0)


def _gen_direct(rng):
    return (*_params(rng), _disc(rng, 0.7), None)


def _gen_one_minus_z(rng):
    return (*_params(rng), _z_one_minus(rng), None)


def _gen_pfaff(rng):
    return (*_params(rng), _z_pfaff(rng), None)


def _gen_log(rng):
    a, b, _ = _params(rng)
    return (a, b, a + b + rng.randint(-2, 3), _z_one_minus(rng), None)


def _gen_crescent(rng):
    return (*_params(rng), _z_crescent(rng), None)


def _gen_cut(rng):
    return (*_params(rng), complex(1.0 + rng.uniform(0.05, 3.0), 0.0),
            rng.choice((1, -1)))


def _gen_near_int(rng):
    # Open item 3: c-a-b within 1e-9..1e-5 of an integer
    a, b, _ = _params(rng)
    delta = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-9.0, -5.0)
    return (a, b, a + b + rng.randint(-2, 3) + delta, _z_one_minus(rng), None)


def _gen_large_real(rng):
    # Open item 3: real parameters up to 40
    a, b, c = (rng.uniform(-40.0, 40.0) for _ in range(3))
    z = _disc(rng, 0.9)
    return (complex(a), complex(b), complex(c), z, None)


# region -> (share of a round, generator); the shares sum to 1
HYP_REGIONS = {
    "direct": (0.30, _gen_direct),
    "one-minus-z": (0.15, _gen_one_minus_z),
    "pfaff": (0.15, _gen_pfaff),
    "log": (0.10, _gen_log),
    "crescent": (0.10, _gen_crescent),
    "cut": (0.10, _gen_cut),
    "near-int": (0.05, _gen_near_int),
    "large-real": (0.05, _gen_large_real),
}


def hyp_reference(a: complex, b: complex, c: complex, z: complex,
                  side: Optional[int]) -> complex:
    import mpmath
    with mpmath.workdps(REF_DPS):
        im = z.imag if side is None else side * mpmath.mpf("1e-40")
        return complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(z.real, im)))


class HypWorkload(Workload):
    name = "hyp2f1-points"
    why = ("many small scalar hyp2f1 calls over every route, including "
           "Open-item-3 inputs; the contour workloads batch this layer")
    min_rounds = 2
    round_size = 600

    def make_ops(self, seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for region, (share, gen) in HYP_REGIONS.items():
            ops += [Op(region, gen(rng))
                    for _ in range(max(1, round(share * self.round_size)))]
        rng.shuffle(ops)
        return ops

    def warmup_op(self) -> Op:
        return Op("direct", (0.5 + 0.25j, 1.5 - 0.5j, 2.25 + 0.5j, 0.3 + 0.2j, None))

    def call(self, fraccal, op: Op) -> complex:
        a, b, c, z, side = op.args
        return fraccal.hyp2f1(fraccal.Hyp2F1Params(a, b, c), z, side)

    def reference(self, op: Op) -> complex:
        return hyp_reference(*op.args)

    def check(self, op: Op, output, ref: complex) -> Check:
        return check_value(complex(output), ref, HYP_TOL)


WORKLOADS = {
    wl.name: wl for wl in (
        ContourWorkload(
            "contour-deriv", "deriv", (34, 21),
            "almost all fracops numpy kernel time (_vec_series_b1); no hyp "
            "scalar calls and no contours quadrature"),
        ContourWorkload(
            "contour-integ", "integ", (22, 5),
            "dominated by scalar hyp2f1_continue ODE stepping over the "
            "crescent nodes; kept apart so it does not hide kernel changes"),
        VerifyWorkload(),
        HypWorkload(),
    )
}
