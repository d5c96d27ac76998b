"""Self-tests of the benchmark harness.

Run from the repository root with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (sets the BLAS thread cap before numpy loads)
import spans  # noqa: E402
from agvlink import analysis, cli, stability  # noqa: E402
from workloads import WORKLOADS, Command, Workload, check_sweep  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Which wrapped layers each workload calls; every other layer must read 0.
CALLED = {
    "sweeps-montecarlo": {
        "cli.main", "analysis.sweep_trace_time", "analysis.sweep_sampling_time",
        "analysis.montecarlo_instability", "analysis.instability_probability",
        "control.build_reference_track", "stability.outage_tolerance",
        "channel.build_outage_model", "channel.sample_outage_sequence",
        "analysis.longest_outage_run", "control.simulate_closed_loop",
        "analysis.write_sweep_csv", "analysis.write_montecarlo_csv"},
    "simulate-csv": {
        "cli.main", "control.build_reference_track",
        "channel.build_outage_model", "channel.sample_outage_sequence",
        "control.simulate_closed_loop", "control.write_trajectory_csv"},
}
WRAPPED = {f"{layer}.{fn}" for layer, fns in spans.WRAPPED.items()
           for fn in fns}


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        *spans.LAYER_METRICS, *run.SETUP_METRICS, *run.COMMAND_METRICS,
        *run.DIAGNOSTICS]
    assert set(CALLED) == set(WORKLOADS)
    assert {c.args[0] for wl in WORKLOADS.values() for c in wl.commands} \
        == set(run.COMMANDS)


def test_error_row_raises_ops_failed_frac(tmp_path):
    sweep = Command(("sweep-trace", "--grid-s", "2,3"), 2, check_sweep)
    wl = Workload("tiny", (sweep,))
    out = run.reference_path(tmp_path, 0)
    assert cli.main(sweep.argv(1, out)) == 0
    good = run.Output(True, "same", "")
    passes = [run.Pass(1.0, 1.0, [good], [1.0]),
              run.Pass(1.0, 1.0, [good], [1.0])]
    assert run.count_failed(wl, passes, tmp_path, 1) == 0

    # flag one row the way a sweep reports a ParameterError at a grid point
    lines = out.read_text().splitlines()
    row = next(i for i, line in enumerate(lines)
               if not line.startswith("#")) + 1
    lines[row] = lines[row].rsplit(",", 1)[0] + ",error:ParameterError"
    out.write_text("\n".join(lines) + "\n")
    assert check_sweep(sweep, out, "", 1) == 1
    failed = run.count_failed(wl, passes, tmp_path, 1)
    assert failed / (wl.ops_per_pass * len(passes)) == 0.5

    crashed = [passes[0],
               run.Pass(1.0, 1.0, [run.Output(False, None, "")], [1.0])]
    assert run.count_failed(wl, crashed, tmp_path, 1) == 1 + 2


def test_self_time_subtracts_children():
    s = spans.Span
    tree = [s(0, None, 0, "root", 0.0, 10.0),
            s(1, 0, 0, "a", 1.0, 3.0),
            s(2, 0, 0, "b", 2.0, 4.0),       # overlaps a: counted once
            s(3, 1, 0, "a.child", 1.5, 2.5),
            s(4, 0, 0, "c", 9.0, 12.0)]      # clipped at the parent's end
    assert spans.self_times(tree) == pytest.approx(
        {0: 10.0 - 3.0 - 1.0, 1: 2.0 - 1.0, 2: 2.0, 3: 1.0, 4: 3.0})


def test_wrappers_patch_every_lookup_site_and_restore():
    original = stability.outage_tolerance
    tracer = spans.Tracer()
    with tracer.patched():
        assert analysis.outage_tolerance is cli.outage_tolerance \
            is stability.outage_tolerance is not original
        analysis.instability_probability(analysis.ScenarioConfig(trace_time=2.0))
    assert analysis.outage_tolerance is cli.outage_tolerance is original
    root, = [sp for sp in tracer.spans if sp.parent_id is None]
    assert root.name == "analysis.instability_probability"
    assert sorted(sp.name for sp in tracer.spans if sp.parent_id == root.span_id) \
        == ["channel.build_outage_model", "control.build_reference_track",
            "stability.outage_tolerance"]
    assert tracer.counts[(0, "stability.outage_tolerance.candidates")] > 0


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "MIN_PASSES", 2)   # one untraced, one traced
        mp.setattr(run, "IMPORTTIME_REPS", 1)
        return {name: run.measure(wl, 1, 0.0, True,
                                  tmp_path_factory.mktemp(name))
                for name, wl in WORKLOADS.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_layer_metric_emitted(traced_runs, name):
    metrics, units, attempted, failed, passes, *_ = traced_runs[name]
    assert attempted > 0 and failed == 0
    assert [p.traced for p in passes] == [False, True]
    commands = {c.args[0] for c in WORKLOADS[name].commands}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units
    assert set(metrics) == set(units)
    for metric, value in metrics.items():
        assert math.isfinite(value), metric
        layer = metric.rpartition(".")[0]
        if layer in WRAPPED:
            assert (value > 0) == (layer in CALLED[name]), metric
        elif metric.startswith("wall."):
            assert (value > 0) == (metric[5:-2] in commands), metric
        elif metric != "trace.overhead_s":
            assert value > 0, metric
