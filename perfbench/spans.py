"""In-memory span tracer that wraps agvlink's layer entry points from outside.

A traced pass swaps each wrapped function for a timing wrapper in every
module namespace that holds it, because `from .stability import
outage_tolerance` makes `agvlink.analysis` and `agvlink.cli` look the name up
in their own globals. Spans stay in a list until the run ends; a span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Layer entry points only. The per-step helpers (wrap_angle, control_law,
# plant_step, ...) and the scalar channel functions run millions of times
# inside the simulator and the outage model; a span on each would cost more
# than the layer it measures.
WRAPPED = {
    "control": ("build_reference_track", "simulate_closed_loop",
                "write_trajectory_csv"),
    "stability": ("outage_tolerance",),
    "channel": ("build_outage_model", "sample_outage_sequence"),
    "analysis": ("instability_probability", "sweep_sampling_time",
                 "sweep_trace_time", "montecarlo_instability",
                 "longest_outage_run", "write_sweep_csv",
                 "write_montecarlo_csv"),
    "cli": ("main",),
}
NAMESPACES = ("agvlink", "agvlink.control", "agvlink.stability",
              "agvlink.channel", "agvlink.analysis", "agvlink.cli")


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    pass_id: int
    name: str
    start: float
    end: float


def _file_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _count_outage_tolerance(args, report):
    n_steps = args["track"].n_steps
    return {"candidates": len(report.history),
            "steps_bound": sum(n_steps - scan.n for scan in report.history)}


# Work counts taken at the span boundary: f(bound arguments, result) -> dict.
COUNTERS = {
    "stability.outage_tolerance": _count_outage_tolerance,
    "control.simulate_closed_loop": lambda a, traj: {"steps": len(traj)},
    "control.write_trajectory_csv": lambda a, _: {
        "rows": len(a["traj"]), "bytes": _file_bytes(a["path"])},
    "channel.sample_outage_sequence": lambda a, seq: {"slots": len(seq)},
    "analysis.write_sweep_csv": lambda a, _: {"bytes": _file_bytes(a["path"])},
    "analysis.write_montecarlo_csv": lambda a, _: {
        "bytes": _file_bytes(a["path"])},
}


class Tracer:
    """Records one span per wrapped call, tagged with the current pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.pass_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, self.pass_id, name,
                                       start, end))
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    slot = (self.pass_id, f"{name}.{key}")
                    self.counts[slot] = self.counts.get(slot, 0) + value
            return result

        return wrapper

    @contextmanager
    def patched(self, pass_id: int = 0):
        """Install the wrappers in every agvlink namespace; undo on exit.

        Spans and counts recorded meanwhile are tagged with `pass_id`.
        """
        self.pass_id = pass_id
        modules = [importlib.import_module(m) for m in NAMESPACES]
        undo = []
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"agvlink.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.span_id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


# (metric name, unit) in emission order; BENCHMARK.json lists the same set.
LAYER_METRICS = (
    [(f"stability.outage_tolerance.{k}", u) for k, u in (
        ("calls", "count"), ("self_s", "s"), ("candidates", "count"),
        ("ms_per_candidate", "ms"), ("steps_bound", "count"),
        ("ns_per_step_bound", "ns"))]
    + [(f"control.simulate_closed_loop.{k}", u) for k, u in (
        ("calls", "count"), ("steps", "count"), ("self_s", "s"),
        ("us_per_step", "us"))]
    + [(f"control.write_trajectory_csv.{k}", u) for k, u in (
        ("rows", "count"), ("bytes", "B"), ("self_s", "s"),
        ("mb_per_s", "MB/s"))]
    + [("control.build_reference_track.calls", "count"),
       ("control.build_reference_track.self_s", "s")]
    + [(f"channel.sample_outage_sequence.{k}", u) for k, u in (
        ("calls", "count"), ("slots", "count"), ("self_s", "s"),
        ("ns_per_slot", "ns"))]
    + [(f"channel.build_outage_model.{k}", u) for k, u in (
        ("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))]
    + [(f"analysis.{f}.self_s", "s") for f in WRAPPED["analysis"]]
    + [("analysis.write_sweep_csv.bytes", "B"),
       ("analysis.write_montecarlo_csv.bytes", "B"),
       ("cli.main.self_s", "s")]
)


def pass_metrics(spans: list[Span], counts: dict[tuple[int, str], float],
                 pass_id: int) -> dict[str, float]:
    """LAYER_METRICS values for one traced pass (0 for a layer not called)."""
    mine = [s for s in spans if s.pass_id == pass_id]
    own = self_times(mine)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for s in mine:
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + own[s.span_id]

    def count(key: str) -> float:
        return counts.get((pass_id, key), 0)

    ot, sim, csv_w = ("stability.outage_tolerance",
                      "control.simulate_closed_loop",
                      "control.write_trajectory_csv")
    sampler, model = "channel.sample_outage_sequence", "channel.build_outage_model"
    derived = {
        f"{ot}.candidates": count(f"{ot}.candidates"),
        f"{ot}.ms_per_candidate": _ratio(busy.get(ot, 0.0),
                                         count(f"{ot}.candidates"), 1e3),
        f"{ot}.steps_bound": count(f"{ot}.steps_bound"),
        f"{ot}.ns_per_step_bound": _ratio(busy.get(ot, 0.0),
                                          count(f"{ot}.steps_bound"), 1e9),
        f"{sim}.steps": count(f"{sim}.steps"),
        f"{sim}.us_per_step": _ratio(busy.get(sim, 0.0),
                                     count(f"{sim}.steps"), 1e6),
        f"{csv_w}.rows": count(f"{csv_w}.rows"),
        f"{csv_w}.bytes": count(f"{csv_w}.bytes"),
        f"{csv_w}.mb_per_s": _ratio(count(f"{csv_w}.bytes"),
                                    busy.get(csv_w, 0.0), 1e-6),
        f"{sampler}.slots": count(f"{sampler}.slots"),
        f"{sampler}.ns_per_slot": _ratio(busy.get(sampler, 0.0),
                                         count(f"{sampler}.slots"), 1e9),
        f"{model}.us_per_call": _ratio(busy.get(model, 0.0),
                                       calls.get(model, 0), 1e6),
        "analysis.write_sweep_csv.bytes": count("analysis.write_sweep_csv.bytes"),
        "analysis.write_montecarlo_csv.bytes":
            count("analysis.write_montecarlo_csv.bytes"),
    }
    out = {}
    for name, _ in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if name in derived:
            out[name] = float(derived[name])
        elif field == "calls":
            out[name] = float(calls.get(layer, 0))
        else:  # self_s
            out[name] = busy.get(layer, 0.0)
    return out
