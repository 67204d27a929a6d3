"""Tests of the benchmark itself: tiny runs of every workload, the output
checker, and the tracer's rebinding and self-time bookkeeping."""

import json
import sys

import pytest

import run as bench
import tracer
import workloads
from workloads import WORKLOADS

E2E = {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "digits_min",
       "rss_peak_mb"}


@pytest.fixture(scope="module")
def fraccal():
    return bench.import_fraccal()


def tiny_ops(name):
    wl = WORKLOADS[name]
    if name == "hyp2f1-points":
        return wl.make_ops(5)[:8]
    return [wl.warmup_op()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run(name):
    out = bench.run_workload(name, seed=5, seconds=0, trace=False,
                             setup_repeats=1, ops=tiny_ops(name))
    res = out["result"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == E2E
    assert all(m["value"] > 0 for m in res["metrics"].values())
    if name != "hyp2f1-points":  # the 2F1 mix holds known accuracy holes
        assert res["failed"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = WORKLOADS[name]
    assert wl.make_ops(7) == wl.make_ops(7)
    assert wl.make_ops(7) != wl.make_ops(8)


def test_contour_points_lie_in_the_tube():
    ops = WORKLOADS["contour-integ"].make_ops(3)
    assert len(ops) >= 11
    for op in ops:
        t = complex(op.args[6].split("=", 1)[1])
        assert workloads.RE_MIN <= t.real <= workloads.RE_MAX
        assert workloads._in_tube(t)


def test_hyp_region_shares():
    ops = WORKLOADS["hyp2f1-points"].make_ops(3)
    counts = {}
    for op in ops:
        counts[op.region] = counts.get(op.region, 0) + 1
    size = WORKLOADS["hyp2f1-points"].round_size
    assert counts == {r: round(share * size)
                      for r, (share, _) in workloads.HYP_REGIONS.items()}


def _perturb_cli(output):
    rc, text = output
    rep = json.loads(text)
    rep["value"] = [v * (1.0 + 1e-6) for v in rep["value"]]
    return rc, json.dumps(rep)


@pytest.mark.parametrize("name, perturb", [
    ("contour-deriv", _perturb_cli),
    ("hyp2f1-points", lambda v: v * (1.0 + 1e-6)),
])
def test_checker_fails_a_perturbed_result(fraccal, name, perturb):
    wl = WORKLOADS[name]
    op = wl.warmup_op()
    ref = wl.reference(op)
    out = wl.call(fraccal, op)
    assert wl.check(op, out, ref).ok
    assert not wl.check(op, perturb(out), ref).ok


@pytest.mark.parametrize("name, target", [
    ("contour-deriv", "fraccal.cli.frac_deriv_contour"),
    ("hyp2f1-points", "fraccal.hyp2f1"),
])
def test_raised_convergence_error_is_failed(fraccal, monkeypatch, name, target):
    def boom(*args, **kwargs):
        raise fraccal.ConvergenceError("forced")

    monkeypatch.setattr(target, boom)
    wl = WORKLOADS[name]
    run, _, checked = bench.execute(wl, fraccal, [wl.warmup_op()], 0, False)
    assert run.executions >= 1
    assert checked["failed"] == run.executions


def bound_wrappers(fraccal) -> list:
    """(owner, attribute) of every tracing wrapper still bound in fraccal."""
    owners = [m for name, m in sys.modules.items()
              if name == "fraccal" or name.startswith("fraccal.")]
    owners.append(fraccal.WhittakerSurface)
    return [(owner, key) for owner in owners for key, val in vars(owner).items()
            if getattr(val, "__bench_traced__", False)]


def test_traced_run_restores_every_binding(fraccal):
    surface_f1 = fraccal.WhittakerSurface.f1
    hyp2f1 = fraccal.hyp.hyp2f1
    ops = [WORKLOADS["verify-all"].warmup_op()]
    run, tr, checked = bench.execute(WORKLOADS["verify-all"], fraccal, ops, 0, True)
    assert bound_wrappers(fraccal) == []
    assert fraccal.WhittakerSurface.f1 is surface_f1
    assert fraccal.hyp.hyp2f1 is hyp2f1 and fraccal.cli.hyp2f1 is hyp2f1
    summary = tr.summary()
    assert summary["cli"]["calls"] == run.traced_rounds
    assert summary["hyp.other"]["calls"] > 0  # euler_ltf_check, via cli's own name
    assert summary["fracops.contour"]["calls"] == 0
    layer = bench.per_layer(run, tr)
    assert layer["cli.verify.euler-ltf.s"][0] > 0
    assert layer["cli.verify.monodromy.s"][0] == 0


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    # cli [0, 10] > hyp.hyp2f1 [1, 4] > gammafn [2, 3]; series [5, 6]
    for name, start, end, parent in (("cli", 0, 10, -1), ("hyp.hyp2f1", 1, 4, 0),
                                     ("gammafn", 2, 3, 1), ("series", 5, 6, 0)):
        tr.name.append(tracer.NAMES.index(name))
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
        tr.op.append(0)
        tr.raised.append(0)
    s = tr.summary()
    assert s["cli"]["self_s"] == 6.0
    assert s["hyp.hyp2f1"]["self_s"] == 2.0
    assert s["gammafn"]["self_s"] == 1.0
    assert s["series"]["self_s"] == 1.0


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "verify-all", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_tail_counts_every_execution():
    # 3 inputs x 20 rounds: the 50th of 60 samples is the slowest input's
    assert bench.tail([0.3, 0.1, 0.2], 20) == (0.3, pytest.approx(250 / 3), 60)
    assert bench.tail([float(i) for i in range(30)], 1) == (
        19.0, pytest.approx(200 / 3), 30)
