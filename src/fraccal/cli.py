"""Command-line front end: operator evaluation, verification suites and
machine-readable tables.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
or domain error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError
from .fracops import frac_deriv_contour, frac_deriv_series, frac_integ_contour, \
    frac_integ_series, psi_polynomial
from .gammafn import gamma
from .hyp import (Hyp2F1Params, _call_part, _geom_alpha_checks, _hyp2f1_calls,
                  _jump_factors, euler_ltf_check)
from .hyp import hyp2f1  # noqa: F401  (bench/test_bench.py checks cli's binding of it)
from .series import PowerSeries, eval_series, exp_series, geometric_series
from .transforms import (LaplaceOracle, _lm_duality_reports, borel_map,
                         laplace_quadrature, remainder, watson_gevrey_check)
from .whittaker import (_eg_ltf_report, _goursat_reports, _monodromy_reports,
                        stokes_multipliers_whittaker, whittaker_dual_pair)
from .utils import require_tol

SCHEMA = "fraccal-report/1"


@dataclass
class RunConfig:
    tol: float = 1e-8
    truncation: int = 64
    precision: str = "double"
    output: str = "json"
    seed: int = 42

    def __post_init__(self):
        require_tol(self.tol)
        if self.precision not in ("double", "extended"):
            raise DomainError("precision must be double or extended")
        if self.output not in ("json", "csv"):
            raise DomainError("output must be json or csv")

    def as_dict(self) -> dict:
        return {"tol": self.tol, "truncation": self.truncation,
                "precision": self.precision, "output": self.output,
                "seed": self.seed}


def _builtin_series(name: str, n: int, kappa=None, mu=None) -> PowerSeries:
    if name == "geometric":
        return geometric_series(n)
    if name == "exp":
        return exp_series(n)
    if name == "whittaker-f1":
        if kappa is None or mu is None:
            raise DomainError("whittaker-f1 needs --kappa and --mu")
        return whittaker_dual_pair(kappa, mu, min(n, 64)).F1
    if name == "whittaker-f2":
        if kappa is None or mu is None:
            raise DomainError("whittaker-f2 needs --kappa and --mu")
        return whittaker_dual_pair(kappa, mu, min(n, 64)).F2
    raise DomainError(f"unknown builtin {name!r} (geometric, exp, "
                      "whittaker-f1, whittaker-f2)")


def _geometric(t):
    return 1.0 / (1.0 + t)


def _builtin_oracle(name: str):
    if name == "geometric":
        return _geometric, 1.0, 0.0  # (fn, a, R)
    if name == "exp":
        return np.exp, math.inf, 1.0
    raise DomainError(f"builtin {name!r} has no contour oracle")


def _emit(obj, args) -> None:
    """Print a report (a dict, as JSON, or CSV text) and write it to --out."""
    text = obj if isinstance(obj, str) else json.dumps(obj, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# fracop
# ---------------------------------------------------------------------------

def cmd_fracop(args, cfg: RunConfig) -> int:
    alpha = complex(args.alpha)
    out = {"schema": SCHEMA, "command": "fracop", "version": __version__,
           "alpha": [alpha.real, alpha.imag], "mode": args.mode}
    if args.eval is not None and args.method == "contour":
        if args.series:
            raise DomainError("--method contour evaluates a --builtin function; "
                              "a --series is evaluated with --method series")
        fn, a_width, rtype = _builtin_oracle(args.builtin or "geometric")
        t = complex(args.eval)
        op_contour = frac_deriv_contour if args.mode == "deriv" else frac_integ_contour
        r = max(1.0, 2.0 * rtype)
        A = min(0.5, 0.8 * a_width) if math.isfinite(a_width) else 0.5
        val = op_contour(fn, alpha, r, A, t, tol=max(cfg.tol * 1e-2, 1e-12))
        out["method"] = "contour"
        out["t"] = [t.real, t.imag]
        out["r"] = r
        out["A"] = A
        out["value"] = [val.real, val.imag]
        _emit(out, args)
        return 0
    if args.series:
        F = PowerSeries.from_json(args.series)
    else:
        F = _builtin_series(args.builtin or "geometric", cfg.truncation,
                            args.kappa, args.mu)
    op_series = frac_deriv_series if args.mode == "deriv" else frac_integ_series
    G = op_series(F, alpha, precision=cfg.precision)
    if args.eval is None:
        out["method"] = "series-coefficients"
        out["coeffs"] = [[c.real, c.imag] for c in G.coeffs]
    else:
        t = complex(args.eval)
        val = eval_series(G, t)
        out["method"] = "series"
        out["t"] = [t.real, t.imag]
        out["value"] = [val.value.real, val.value.imag]
        out["truncation_indicator"] = val.last_term
    _emit(out, args)
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_euler_ltf(cfg: RunConfig) -> dict:
    params = [(0.3, 0.7, 1.9), (1.0, 1.0, 2.5), (0.5, 0.5, 1.3),
              (1.2, 0.4, 2.1), (0.25, 1.5, 2.9)]
    points = [0.4, 0.55 + 0.15j, 0.3 - 0.2j, 0.62 + 0.2j, 0.5 - 0.1j]
    cases = []
    worst = 0.0
    for a, b, c in params:
        for t, res in zip(points, euler_ltf_check(Hyp2F1Params(a, b, c), points)):
            cases.append({"a": a, "b": b, "c": c,
                          "t": [complex(t).real, complex(t).imag],
                          "residual": float(res)})
            worst = max(worst, float(res))
    tol = min(cfg.tol, 1e-10)
    return {"suite": "euler-ltf", "cases": cases, "max_residual": worst,
            "tolerance": tol, "pass": worst <= tol}


def _jump_cases(seed: int, n: int, shift: float):
    """n seeded cut-jump cases (a, b, c, x, measured, predicted) of 2F1 at
    x > 1; c is moved by shift when c - a - b is within 0.05 of an integer.
    Both sides of every case and the inner 2F1 of every predicted jump are
    summed in one pass."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        a = rng.uniform(0.1, 2.0)
        b = rng.uniform(0.1, 2.0)
        c = rng.uniform(0.5, 3.0)
        if abs((c - a - b) - round(c - a - b)) < 0.05:
            c += shift
        x = rng.uniform(1.05, 1.9)
        cases.append((a, b, c, x, Hyp2F1Params(a, b, c)))
    factors = [_jump_factors(p, x, -1) for *_, x, p in cases]
    vals = _hyp2f1_calls([(p, [x, x], [+1, -1]) for *_, x, p in cases]
                         + [call for _, call in factors])
    for (a, b, c, x, _), (upper, lower), (pref, _), inner in zip(
            cases, vals, factors, vals[n:]):
        yield a, b, c, x, complex(upper - lower), pref * inner


def _suite_jumps(cfg: RunConfig) -> dict:
    cases = []
    worst = 0.0
    for a, b, c, x, measured, predicted in _jump_cases(cfg.seed, 10, 0.11):
        rel = abs(measured - predicted) / max(abs(predicted), 1e-30)
        cases.append({"a": a, "b": b, "c": c, "t": x, "relative_residual": rel})
        worst = max(worst, rel)
    grid = [(alpha, t, conv) for alpha in (0.5, 0.3 + 0.2j) for t in (0.3, 0.1)
            for conv in ("rotate", "literal")]
    geom = []
    geom_ok = True
    for (alpha, t, conv), r in zip(grid, _geom_alpha_checks(grid)):
        geom.append({
            "alpha": [complex(alpha).real, complex(alpha).imag],
            "t": t, "convention": conv,
            "residual_printed_form": r["residual_claimed"],
            "residual_derived_form": r["residual_derived"],
        })
        if conv == "rotate":
            geom_ok = geom_ok and r["residual_derived"] <= 1e-10
    tol = min(cfg.tol, 1e-8)
    return {"suite": "jumps", "cases": cases, "max_residual": worst,
            "geometric_jump": geom,
            "geometric_notes": "neither star-point convention reproduces the "
                               "printed constant-limit form; the measured loop "
                               "jump matches 2 pi i alpha e^{i pi alpha} "
                               "(1+t)^{alpha-1} (t e^{i pi})^{-alpha}",
            "tolerance": tol, "pass": worst <= tol and geom_ok}


def _lm_duality_cases():
    """(function name, alpha, (F, D_alpha F, I_alpha F)) of each lm-duality
    case; both alpha share each F, so its plain transform is integrated once.
    I_alpha F of the geometric case is a hyp part, so that the quadrature
    level evaluates those of both alpha in one 2F1 pass."""
    poly = lambda t: 1.0 + t
    for alpha in (0.5, 1.5):
        g1, g2 = gamma(alpha + 1.0), gamma(alpha + 2.0)
        p = Hyp2F1Params(1, 1, alpha + 1.0)
        dF = lambda t, al=alpha, g1=g1: g1 * (1.0 + t) ** (-al - 1.0)
        iF = lambda t, p=p, g1=g1: _call_part(p, -t).then(lambda v: v / g1)
        dpoly = lambda t, g1=g1, g2=g2: g1 + g2 * t
        ipoly = lambda t, g1=g1, g2=g2: 1.0 / g1 + t / g2
        yield "geometric", alpha, (_geometric, dF, iF)
        yield "polynomial", alpha, (poly, dpoly, ipoly)


def _suite_lm_duality(cfg: RunConfig) -> dict:
    zetas = (2.0, 3.0, 5.0)
    table = list(_lm_duality_cases())
    reps = _lm_duality_reports([(*trio, alpha, np.array(zetas)) for _, alpha, trio in table],
                               0.0, 1e-12)
    cases = [{"function": name, "alpha": alpha, "zeta": zeta,
              "residual_deriv": float(rep["residual_deriv"][i]),
              "residual_integ": float(rep["residual_integ"][i])}
             for (name, alpha, _), rep in zip(table, reps) for i, zeta in enumerate(zetas)]
    cases.sort(key=lambda c: (c["alpha"], c["zeta"]))  # stable: functions keep their order
    worst = max([0.0] + [max(c["residual_deriv"], c["residual_integ"]) for c in cases])
    return {"suite": "lm-duality", "cases": cases, "max_residual": worst,
            "tolerance": cfg.tol, "pass": worst <= cfg.tol}


def _touchstone() -> tuple:
    """(P, p) of the geometric Laplace touchstone F = 1/(1+t): the transform
    P, integrated once per distinct zeta for the life of this pair, and
    p = borel_map of F's Taylor series."""
    P = LaplaceOracle(functools.cache(
        lambda z: laplace_quadrature(_geometric, z, 0.0, 1e-13)), 0.0)
    return P, borel_map(geometric_series(26))


def _suite_watson(cfg: RunConfig, A: float = None) -> dict:
    P, p = _touchstone()
    if A is not None:
        # explicit scale: pass iff the bound actually holds there
        res = watson_gevrey_check(P, p, A, 1.0)
        return {"suite": "watson", "A": A, "r": 1.0, "result": res,
                "pass": res["pass"]}
    # default: the geometric touchstone must hold at A = 0.5 and break at A = 2
    good = watson_gevrey_check(P, p, 0.5, 1.0)
    bad = watson_gevrey_check(P, p, 2.0, 1.0)
    return {"suite": "watson", "r": 1.0,
            "inside": good, "beyond": bad,
            "pass": good["pass"] and not bad["pass"]}


def _suite_monodromy(cfg: RunConfig) -> dict:
    """Both checks in one Laplace family, so one 2F1 pass per level."""
    kappa, mu = 0.3, 0.1
    m = stokes_multipliers_whittaker(kappa, mu)
    dm, mw = _monodromy_reports(kappa, mu, m, min(cfg.tol * 1e2, 1e-6))
    return {"suite": "monodromy", "kappa": kappa, "mu": mu,
            "dual_monodromy": dm, "mw_system": mw,
            "pass": dm["pass"] and mw["pass"]}


def _suite_eg_ltf(cfg: RunConfig) -> dict:
    kappa, mu = 0.3, 0.1
    m = stokes_multipliers_whittaker(kappa, mu)
    rep = _eg_ltf_report(kappa, mu, m, tol=min(cfg.tol * 1e2, 1e-6))
    rep["kappa"] = kappa
    rep["mu"] = mu
    return rep


def _suite_goursat(cfg: RunConfig) -> dict:
    """Both kappa instances in one _goursat_reports call, so one 2F1 pass."""
    cases = [(kappa, 0.17, stokes_multipliers_whittaker(kappa, 0.17), None, 14,
              min(cfg.tol * 1e2, 1e-6)) for kappa in (0.0, 0.5)]
    out = {"suite": "goursat", "instances": _goursat_reports(cases)}
    for rep in out["instances"]:
        rep["mu"] = 0.17
    out["pass"] = all(rep["pass"] for rep in out["instances"])
    return out


_SUITES = {
    "euler-ltf": _suite_euler_ltf,
    "jumps": _suite_jumps,
    "lm-duality": _suite_lm_duality,
    "watson": _suite_watson,
    "monodromy": _suite_monodromy,
    "eg-ltf": _suite_eg_ltf,
    "goursat": _suite_goursat,
}


def cmd_verify(args, cfg: RunConfig) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        fn = _SUITES[name]
        if name == "watson" and args.A is not None:
            reports.append(fn(cfg, A=args.A))
        else:
            reports.append(fn(cfg))
    ok = all(r["pass"] for r in reports)
    out = {"schema": SCHEMA, "command": "verify", "version": __version__,
           "config": cfg.as_dict(),
           "suites": reports if args.suite == "all" else reports[0],
           "pass": ok}
    _emit(out, args)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def cmd_table(args, cfg: RunConfig) -> int:
    rows = []
    if args.what == "asymptotic-remainders":
        zeta = args.zeta if args.zeta is not None else 10.0
        P, p = _touchstone()
        header = ["n", "abs_P_n"]
        for n in range(25):
            rows.append([n, abs(remainder(P, p, n, zeta))])
    elif args.what == "psi-polys":
        F = _builtin_series(args.builtin or "geometric", cfg.truncation,
                            args.kappa, args.mu)
        n = args.n if args.n is not None else 3
        poly = psi_polynomial(F, n)
        header = [f"c{j}" for j in range(n + 1)]
        rows.append([c.real if abs(c.imag) < 1e-15 else [c.real, c.imag]
                     for c in poly.coeffs])
    elif args.what == "stokes-grid":
        kgrid = _parse_range(args.kappa_range or "0:0.4:0.1")
        mgrid = _parse_range(args.mu_range or "0:0.4:0.1")
        header = ["kappa", "mu", "T1_re", "T1_im", "T2_re", "T2_im"]
        for k in kgrid:
            for mv in mgrid:
                t = stokes_multipliers_whittaker(k, mv)
                rows.append([k, mv, t.T1.real, t.T1.imag, t.T2.real, t.T2.imag])
    else:
        raise DomainError(f"unknown table {args.what!r}")

    if cfg.output == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        _emit("\n".join(lines), args)
    else:
        _emit({"schema": SCHEMA, "command": "table", "version": __version__,
               "what": args.what, "header": header, "rows": rows}, args)
    return 0


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _parse_range(text: str) -> list:
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise DomainError("ranges are start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if not step > 0:  # NaN included
        raise DomainError(f"range step must be > 0, got {step}")
    out = []
    x = start
    while x <= stop + 1e-12:
        out.append(round(x, 12))
        x += step
    return out


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-8)
    common.add_argument("--truncation", type=int, default=64)
    common.add_argument("--precision", choices=("double", "extended"),
                        default="double")
    common.add_argument("--output", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--out", help="write the report to this path as well")

    ap = argparse.ArgumentParser(prog="fraccal",
                                 description="fractional calculus and "
                                 "monodromy verification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fracop", help="apply a fractional operator",
                       parents=[common])
    p.add_argument("--builtin", help="geometric | exp | whittaker-f1 | whittaker-f2")
    p.add_argument("--series", help="series as JSON {coeffs: [[re,im],...], ...}")
    p.add_argument("--alpha", type=complex, required=True)
    p.add_argument("--mode", choices=("deriv", "integ"), default="deriv")
    p.add_argument("--eval", type=complex, default=None)
    p.add_argument("--method", choices=("series", "contour"), default="series")
    p.add_argument("--kappa", type=float)
    p.add_argument("--mu", type=float)

    p = sub.add_parser("verify", help="run a verification suite",
                       parents=[common])
    p.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p.add_argument("--A", type=float, default=None,
                   help="override the Watson-bound scale A")

    p = sub.add_parser("table", help="emit a plot-ready table",
                       parents=[common])
    p.add_argument("what", choices=("asymptotic-remainders", "psi-polys",
                                    "stokes-grid"))
    p.add_argument("--zeta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--builtin")
    p.add_argument("--kappa", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--kappa-range", dest="kappa_range")
    p.add_argument("--mu-range", dest="mu_range")
    return ap


_parser = functools.lru_cache(maxsize=1)(build_parser)  # built on first use


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig(tol=args.tol, truncation=args.truncation,
                        precision=args.precision, output=args.output,
                        seed=args.seed)
        if args.command == "fracop":
            return cmd_fracop(args, cfg)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if args.command == "table":
            return cmd_table(args, cfg)
        raise DomainError(f"unknown command {args.command!r}")
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
