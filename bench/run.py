#!/usr/bin/env python3
"""fraccal benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One caller in one thread runs a closed loop: the next operation
starts when the previous one returns.  The loop runs whole rounds (the
seeded operation list) until ``--seconds`` have passed and the workload's
minimum round count is reached.  Every output is checked against its
reference after the loop.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Details and, when traced, the spans go to ``.bench_out/``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 8
PROBE_TIMEOUT_S = 120
# The host is shared: its speed swings by up to 1.7x within seconds and
# minutes, for fraccal and a plain Python loop alike.  Every timed call is
# bracketed by speed probes, and times are reported at the host speed at
# which speed_probe() takes CAL_REF_S, about its time on a quiet reference
# host (2 vCPU, Python 3.11.7).
CAL_REF_S = 1.0e-3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

# numpy, mpmath and the tracer are imported where they are used: the set-up
# probe runs this file and times the import of fraccal, which pulls numpy in.
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def import_fraccal():
    """Import fraccal from this checkout's src/, never from elsewhere."""
    pkg = SRC / "fraccal"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no fraccal sources at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fraccal
    import fraccal.cli  # noqa: F401  (the CLI workloads call fraccal.cli.main)
    if Path(fraccal.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"fraccal imported from {fraccal.__file__}, not {pkg}")
    return fraccal


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop that does not touch fraccal: how
    fast the host runs this process at the moment."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i
    return time.perf_counter() - t0


def probe_setup(name: str) -> float:
    """Seconds for ``import fraccal`` plus the workload's warm-up call, in a
    fresh process (the body of one set-up probe), at the reference speed of
    the host."""
    wl = workloads.WORKLOADS[name]
    before = speed_probe()
    t0 = time.perf_counter()
    fraccal = import_fraccal()
    wl.call(fraccal, wl.warmup_op())
    elapsed = time.perf_counter() - t0
    return elapsed * 2.0 * CAL_REF_S / (before + speed_probe())


def measure_setup(name: str, repeats: int = SETUP_REPEATS) -> list:
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", name],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------

_UNSET = object()


class Run:
    """Latencies and outputs of the rounds of one workload run."""

    def __init__(self, wl, fraccal, ops):
        self.wl, self.fraccal, self.ops = wl, fraccal, ops
        # untraced calls of each input: seconds as measured, and at the
        # reference speed of the host
        self.latencies = [[] for _ in ops]
        self.scaled = [[] for _ in ops]
        self.speed = []  # speed_probe() times taken between untraced calls
        self.first = [_UNSET] * len(ops)
        self.executions = 0
        self.nondeterministic = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.rounds = 0
        self.traced_rounds = 0

    def round(self, tr=None) -> None:
        clock = time.perf_counter
        wl, fraccal = self.wl, self.fraccal
        begin = clock()
        probing = 0.0
        before = None
        for i, op in enumerate(self.ops):
            if tr is not None:
                tr.op_id = i
            elif before is None:
                before = speed_probe()
                probing += before
            t0 = clock()
            try:
                out = wl.call(fraccal, op)
            except Exception as exc:  # a raised op is a failed op, not a crash
                out = exc
            dt = clock() - t0
            if tr is None:
                after = speed_probe()
                probing += after
                self.latencies[i].append(dt)
                self.scaled[i].append(dt * 2.0 * CAL_REF_S / (before + after))
                self.speed.append(after)
                before = after
            self._record(i, out)
        wall = clock() - begin - probing
        if tr is None:
            self.untraced_s += wall
            self.rounds += 1
        else:
            self.traced_s += wall
            self.traced_rounds += 1

    def _record(self, i: int, out) -> None:
        self.executions += 1
        if self.first[i] is _UNSET:
            self.first[i] = out
        elif not _same(out, self.first[i]):
            self.nondeterministic += 1


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b or repr(a) == repr(b)


def run_loop(run: Run, seconds: float, trace: bool):
    """Closed loop of whole rounds; traced runs alternate an untraced and a
    traced round over the same operations."""
    tr = None
    if trace:
        import tracer
        tr = tracer.Tracer()
    begin = time.perf_counter()
    while (run.rounds < run.wl.min_rounds
           or time.perf_counter() - begin < seconds):
        run.round()
        if tr is not None:
            with tr:
                run.round(tr)
    return tr


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def check_outputs(run: Run, refs: list) -> dict:
    """Check the first output of every op; its repeats must equal it."""
    reps = run.executions // len(run.ops)  # every round runs every op
    failed = 0
    digits = []
    regions = {}
    reasons = {}
    for op, out, ref in zip(run.ops, run.first, refs):
        if isinstance(out, Exception):
            chk = workloads.Check(False, reason=type(out).__name__)
        else:
            chk = run.wl.check(op, out, ref)
        reg = regions.setdefault(op.region, {"inputs": 0, "failed_inputs": 0})
        reg["inputs"] += 1
        if chk.ok:
            if chk.digits is not None:
                digits.append(chk.digits)
        else:
            failed += reps
            reg["failed_inputs"] += 1
            key = "tolerance" if chk.reason.startswith("relative") else chk.reason
            reasons[key] = reasons.get(key, 0) + 1
    return {"failed": failed, "digits_min": min(digits) if digits else 0.0,
            "regions": regions, "reasons": reasons}


def tail(per_input: list, repeats: int) -> tuple:
    """(value, percentile, samples) at the highest percentile with
    TAIL_BEYOND samples beyond it, over every execution of the run, each
    taken at its input's median latency."""
    vals = sorted(per_input)
    samples = len(vals) * repeats
    idx = max(0, samples - 1 - TAIL_BEYOND)
    return vals[idx // repeats], 100.0 * (idx + 1) / samples, samples


def end_to_end(run: Run, setup_times: list, checked: dict) -> tuple:
    # the host's speed swings within seconds: each call is scaled by the
    # probes on either side of it, and an input's latency is the median of
    # its repeats
    per_input = [statistics.median(v) for v in run.scaled]
    raw = [statistics.median(v) for v in run.latencies]
    tail_s, tail_pct, tail_samples = tail(per_input, run.rounds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # one caller in a closed loop: throughput is 1 / mean latency
        "ops_per_s": (len(per_input) / sum(per_input), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(per_input), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "digits_min": (checked["digits_min"], "digits"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"tail_percentile": round(tail_pct, 2), "tail_samples": tail_samples,
             "host_scale": CAL_REF_S / statistics.median(run.speed),
             "unscaled": {"ops_per_s": len(raw) / sum(raw),
                          "op_p50_ms": 1e3 * statistics.median(raw),
                          "op_tail_ms": 1e3 * tail(raw, run.rounds)[0]},
             "loop_ops_per_s": run.rounds * len(run.ops) / run.untraced_s,
             "setup_times_s": setup_times}
    return metrics, notes


LAYERS = ("cli", "fracops", "hyp", "gammafn", "contours", "transforms",
          "whittaker", "series")
CALLS_PER_OP = ("hyp.hyp2f1", "hyp.hyp2f1_continue", "contours.integrate_path")


def per_layer(run: Run, tr) -> dict:
    """Per-round layer metrics of the traced rounds."""
    import numpy as np
    import tracer
    rounds = run.traced_rounds
    summary = tr.summary()
    metrics = {}
    for name in tracer.NAMES:
        metrics[f"{name}.calls"] = (summary[name]["calls"] / rounds, "count")
        metrics[f"{name}.self_s"] = (summary[name]["self_s"] / rounds, "s")
    for name in CALLS_PER_OP:
        metrics[f"{name}.calls_per_op"] = (
            summary[name]["calls"] / (rounds * len(run.ops)), "count/op")
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (sum(
            v["failed"] for k, v in summary.items()
            if k.split(".")[0] == layer) / rounds, "count")
    spans = tr.arrays()
    top = spans["parent"] < 0
    per_op = np.bincount(spans["op"][top], minlength=len(run.ops),
                         weights=(spans["end"] - spans["start"])[top])
    metrics["bench.self_s"] = ((run.traced_s - per_op.sum()) / rounds, "s")
    for suite in workloads.SUITES:
        idx = [i for i, op in enumerate(run.ops)
               if op.args[:2] == ("verify", suite)]
        metrics[f"cli.verify.{suite}.s"] = (
            float(per_op[idx].sum()) / (rounds * len(idx)) if idx else 0.0, "s")
    metrics["trace.overhead_frac"] = (run.traced_s / run.untraced_s - 1.0, "fraction")
    return metrics


# ---------------------------------------------------------------------------

def execute(wl, fraccal, ops: list, seconds: float, trace: bool) -> tuple:
    """References first (untimed), then the timed loop, then the checks."""
    refs = [wl.reference(op) for op in ops]
    run = Run(wl, fraccal, ops)
    tr = run_loop(run, seconds, trace)
    return run, tr, check_outputs(run, refs)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS, ops=None) -> dict:
    """One benchmark run; returns the result object plus details."""
    wl = workloads.WORKLOADS[name]
    fraccal = import_fraccal()
    # half the set-up probes before the timed loop and half after, so a
    # slow spell of the machine does not decide the median
    setup_times = [] if trace else measure_setup(name, setup_repeats // 2)
    ops = wl.make_ops(seed) if ops is None else ops
    wl.call(fraccal, wl.warmup_op())
    run, tr, checked = execute(wl, fraccal, ops, seconds, trace)
    if not trace:
        setup_times += measure_setup(name, setup_repeats - len(setup_times))
    details = {"workload": name, "seed": seed, "trace": int(trace),
               "rounds": run.rounds, "traced_rounds": run.traced_rounds,
               "inputs": len(ops), "executions": run.executions,
               "nondeterministic": run.nondeterministic,
               "regions": checked["regions"], "fail_reasons": checked["reasons"]}
    if trace:
        metrics = per_layer(run, tr)
        details["spans"] = len(tr.name)
    else:
        metrics, notes = end_to_end(run, setup_times, checked)
        details.update(notes)
    result = {
        "correct": run.nondeterministic == 0,
        "attempted": run.executions,
        "failed": checked["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "details": details, "tracer": tr}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="WORKLOAD",
                    choices=sorted(workloads.WORKLOADS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.probe_setup:
            print(repr(probe_setup(args.probe_setup)))
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    details, result = out["details"], out["result"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if out["tracer"] is not None:
        out["tracer"].save(stem.with_suffix(".spans.npz"))
    stem.with_suffix(".json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print("# " + json.dumps(details, sort_keys=True))
    for key, m in result["metrics"].items():
        print(f"# {key:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
