"""Control/channel composition: instability probability, sweeps, Monte-Carlo.

The analytic pipeline joins the two halves of the model: the stability search
yields the largest tolerable loss run n_max for a track sampled at ts, the
channel model yields the per-slot loss probability p1 and the conditional
back-to-back probability p_bb at the track's top speed, and the headline
figure is the probability that the channel produces a run long enough to
destabilize the loop,

    p_us = P_e(n_max) = p1 * p_bb^(n_max - 1).

Sweeps re-run that composition across sampling periods or trace times and
emit one CSV row per grid point; the Monte-Carlo driver validates the chain
by sampling fading sequences and counting destabilizing bursts directly.

p_us routinely underflows float64 on slow channels (log10 values in the
thousands), so every result carries log10_p_us alongside the float field;
the CSV schema keeps the plain probability column.
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._io import _fmt, write_shares, write_table
from ._version import __version__
from .channel import (
    PRNG_ID,
    LinkParams,
    OutageModel,
    build_outage_model,
    consecutive_outage_log10,
    consecutive_outage_prob,
    sample_outage_sequence,
)
from .control import Gains, TrackSpec, build_reference_track, simulate_closed_loop
from .exceptions import NumericConsistencyError, ParameterError
from .stability import outage_tolerance

__all__ = [
    "ScenarioConfig", "PointResult", "SweepRow", "SweepResult",
    "MonteCarloRow", "MonteCarloResult", "instability_probability",
    "sweep_sampling_time", "sweep_trace_time", "montecarlo_instability",
    "longest_outage_run", "wilson_interval", "write_sweep_csv",
    "write_montecarlo_csv", "DEFAULT_TS_GRID", "DEFAULT_TRACE_GRID",
]

DEFAULT_TS_GRID = tuple((10 + 5 * i) * 1e-4 for i in range(19))   # 1..10 ms step 0.5
DEFAULT_TRACE_GRID = (20.0, 100.0, 333.0, 500.0, 1000.0)

_Z95 = 1.959963984540054   # two-sided 95% normal quantile

# Fewest outage slots worth a forked share of Monte-Carlo runs: sampling and
# scanning a slot takes about 0.16-0.27 us, so a share this large is
# 0.04-0.07 s of work against a fork and the reading back of its few lines,
# 4-14 ms (2-core x86-64 VM).
_MIN_SHARE_SLOTS = 1 << 18
# A co-simulated slot also steps the closed loop, about 0.9-1.4 us against
# 0.16-0.27 us to sample and scan it, 5-10 times a sampled slot in all:
# 6 slots' worth.
_COSIM_SLOT_WEIGHT = 6


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-specified operating point (link + gains + track + timing)."""

    link: LinkParams = LinkParams()
    gains: Gains = Gains()
    track: TrackSpec = TrackSpec()
    ts: float = 1e-3
    trace_time: float = 500.0
    phi_convention: str = "zorzi_sqrt"
    margin: float = 0.0
    seed: int = 12345

    def __post_init__(self) -> None:
        if not 0.0 < self.ts < math.inf:
            raise ParameterError("ts must be positive and finite")
        if not self.ts <= self.trace_time < math.inf:
            raise ParameterError("trace_time must be finite and at least one "
                                 "sampling period")
        if not 0.0 <= self.margin < 1.0:
            raise ParameterError("margin must lie in [0, 1)")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")


@dataclass(frozen=True)
class PointResult:
    """Instability probability at a single operating point."""

    n_max: int
    p_us: float
    log10_p_us: float
    nu_max: float
    model: OutageModel
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep; column order mirrors the CSV schema."""

    ts_s: float
    trace_time_s: float
    nu_max_mps: float
    rho: float
    p1: float
    p_bb: float
    n_max: int
    p_us: float
    log10_p_us: float
    flags: str
    message: str = ""   # why an error row failed; not a CSV column


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep rows plus the config they were derived from."""

    axis: str
    rows: tuple[SweepRow, ...]
    config: ScenarioConfig


@dataclass(frozen=True)
class MonteCarloRow:
    run_id: int
    seed: int
    max_burst_len: int
    unstable_flag: bool
    max_tracking_error_m: float


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical instability frequency with a 95% Wilson interval."""

    rows: tuple[MonteCarloRow, ...]
    runs: int
    unstable_count: int
    frequency: float
    ci_low: float
    ci_high: float
    point: PointResult
    config: ScenarioConfig


def instability_probability(cfg: ScenarioConfig) -> PointResult:
    """Outage tolerance and the probability of a run that long.

    A zero tolerance (already unstable without losses) degenerates to
    p_us = p1 and is flagged 'nmax_zero'; a tolerance search that hit its
    track-length cap is flagged 'nmax_capped' (reported p_us is then an
    upper bound).
    """
    track = build_reference_track(cfg.track, cfg.trace_time, cfg.ts)
    report = outage_tolerance(track, cfg.gains, cfg.margin)
    nu_max = track.max_speed
    model = build_outage_model(cfg.link, cfg.ts, nu_max, cfg.phi_convention)
    flags: list[str] = []
    if report.n_max == 0:
        flags.append("nmax_zero")
    if report.capped:
        flags.append("nmax_capped")
    n = max(report.n_max, 1)
    p_us = consecutive_outage_prob(n, model.p1, model.p_bb)
    log10_p_us = consecutive_outage_log10(n, model.p1, model.p_bb)
    return PointResult(n_max=report.n_max, p_us=p_us, log10_p_us=log10_p_us,
                       nu_max=nu_max, model=model, flags=tuple(flags))


def _checked_grid(grid, name: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in grid)
    if not values:
        raise ParameterError(f"{name} grid must be non-empty")
    if not all(0.0 < v < math.inf for v in values):
        raise ParameterError(f"{name} grid values must be positive and finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParameterError(f"{name} grid must be strictly ascending")
    return values


def _sweep_point(cfg: ScenarioConfig, axis_field: str, value: float) -> SweepRow:
    """Evaluate one grid point; failures become flagged rows, not aborts."""
    ts = value if axis_field == "ts" else cfg.ts
    trace_time = value if axis_field == "trace_time" else cfg.trace_time
    try:
        pt = instability_probability(replace(cfg, **{axis_field: value}))
        return SweepRow(ts_s=ts, trace_time_s=trace_time,
                        nu_max_mps=pt.nu_max, rho=pt.model.rho,
                        p1=pt.model.p1, p_bb=pt.model.p_bb,
                        n_max=pt.n_max, p_us=pt.p_us,
                        log10_p_us=pt.log10_p_us,
                        flags=";".join(pt.flags))
    except (ParameterError, NumericConsistencyError) as exc:
        return SweepRow(ts_s=ts, trace_time_s=trace_time,
                        nu_max_mps=math.nan, rho=math.nan, p1=math.nan,
                        p_bb=math.nan, n_max=-1, p_us=math.nan,
                        log10_p_us=math.nan,
                        flags=f"error:{type(exc).__name__}",
                        message=str(exc))


def sweep_sampling_time(cfg: ScenarioConfig,
                        ts_grid=DEFAULT_TS_GRID) -> SweepResult:
    """p_us across sampling periods at fixed trace time (track re-sampled)."""
    grid = _checked_grid(ts_grid, "ts")
    rows = tuple(_sweep_point(cfg, "ts", ts) for ts in grid)
    return SweepResult(axis="ts_s", rows=rows, config=cfg)


def sweep_trace_time(cfg: ScenarioConfig,
                     t_grid=DEFAULT_TRACE_GRID) -> SweepResult:
    """p_us across trace times (velocity sweep) at fixed sampling period."""
    grid = _checked_grid(t_grid, "trace_time")
    rows = tuple(_sweep_point(cfg, "trace_time", t) for t in grid)
    return SweepResult(axis="trace_time_s", rows=rows, config=cfg)


def longest_outage_run(outages: np.ndarray) -> int:
    """Length of the longest run of consecutive True entries."""
    flat = np.asarray(outages, dtype=bool).ravel()
    padded = np.concatenate(([False], flat, [False])).view(np.int8)
    edges = np.flatnonzero(np.diff(padded))
    if edges.size == 0:
        return 0
    return int(np.max(edges[1::2] - edges[0::2]))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion.

    The lower bound center - half is taken in its cancellation-free form
    p_hat^2 / (denom (center + half)), so it is exactly 0 at 0 successes.
    """
    if trials < 1 or not 0 <= successes <= trials:
        raise ParameterError("need 0 <= successes <= trials, trials >= 1")
    z = _Z95
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials
                                   + z * z / (4.0 * trials * trials))
    return p_hat * p_hat / (denom * (center + half)), min(1.0, center + half)


def _write_runs(out, cfg: ScenarioConfig, model: OutageModel, slots: int,
                track, lo: int, hi: int) -> None:
    """Write one line per run lo..hi-1 to `out`: its longest loss run and,
    with a `track` to drive the closed loop along, `,` and the worst
    tracking error as its `repr`, which reads back exactly."""
    for run_id in range(lo, hi):
        outages = sample_outage_sequence(model.rho, model.gamma_th, slots,
                                         cfg.seed, stream=run_id)
        line = str(longest_outage_run(outages))
        if track is not None:
            traj = simulate_closed_loop(track, cfg.gains, outages)
            line += f",{float(np.max(traj.position_error()))!r}"
        out.write(line + "\n")


def montecarlo_instability(cfg: ScenarioConfig, runs: int,
                           cosimulate: bool = False) -> MonteCarloResult:
    """Empirical instability frequency over sampled fading traces.

    Each run draws one fading sequence covering the whole trace (stream =
    run index under the generator's jump-ahead splitting) and is counted
    unstable when it contains a loss run of at least n_max + 1 slots — the
    shortest run the tolerance analysis cannot absorb. With `cosimulate`
    the closed loop is driven by the same loss sequence to record the
    realized worst tracking error; otherwise that column is NaN.

    The runs are worth one share per `_MIN_SHARE_SLOTS` sampled slots (a
    co-simulated slot counts `_COSIM_SLOT_WEIGHT`), and `_io.write_shares`
    caps the shares at one per usable CPU and one per run: this process
    runs the first share and a forked child each other. A child samples,
    scans and simulates in numpy and Python floats, and calls no BLAS. A run
    depends only on its index, so the rows do not depend on the split.
    """
    if runs < 1:
        raise ParameterError("runs must be at least 1")
    point = instability_probability(cfg)
    track = build_reference_track(cfg.track, cfg.trace_time, cfg.ts)
    slots = track.n_steps
    work = runs * slots * (_COSIM_SLOT_WEIGHT if cosimulate else 1)
    text = io.StringIO()
    try:   # a run's normals, which numpy may refuse, before any fork
        np.empty(2 * slots)
    except (MemoryError, ValueError):
        raise ParameterError(f"a run of {slots} slots is too many to "
                             "sample") from None
    write_shares(text, runs, work // _MIN_SHARE_SLOTS,
                 lambda out, lo, hi: _write_runs(
                     out, cfg, point.model, slots,
                     track if cosimulate else None, lo, hi),
                 "running Monte-Carlo runs")
    rows = []
    for run_id, line in enumerate(text.getvalue().splitlines()):
        burst, *max_err = line.split(",")
        burst = int(burst)
        rows.append(MonteCarloRow(
            run_id=run_id, seed=cfg.seed, max_burst_len=burst,
            unstable_flag=burst >= point.n_max + 1,
            max_tracking_error_m=float(max_err[0]) if max_err else math.nan))
    unstable_count = sum(row.unstable_flag for row in rows)
    ci_low, ci_high = wilson_interval(unstable_count, runs)
    return MonteCarloResult(rows=tuple(rows), runs=runs,
                            unstable_count=unstable_count,
                            frequency=unstable_count / runs,
                            ci_low=ci_low, ci_high=ci_high,
                            point=point, config=cfg)


# --- CSV emission ----------------------------------------------------------

SWEEP_COLUMNS = ["ts_s", "trace_time_s", "nu_max_mps", "rho", "p1", "p_bb",
                 "n_max", "p_us", "flags"]
MONTECARLO_COLUMNS = ["run_id", "seed", "max_burst_len", "unstable_flag",
                      "max_tracking_error_m"]


def _flatten_config(value: dict, prefix: str = "") -> list[tuple[str, str]]:
    """(dotted key, text) for each leaf of a nested dict such as asdict(cfg)."""
    out: list[tuple[str, str]] = []
    for name, sub in value.items():
        if isinstance(sub, dict):
            out += _flatten_config(sub, f"{prefix}{name}.")
        else:
            out.append((prefix + name, _fmt(sub)))
    return out


def _metadata_lines(cfg: ScenarioConfig, extra: dict | None = None) -> list[str]:
    """'#'-prefixed header block: version, PRNG, each config field, `extra`.

    Deliberately timestamp-free so identical inputs give identical bytes.
    """
    lines = [f"# version = {__version__}", f"# prng = {PRNG_ID}"]
    lines += [f"# config.{key} = {val}"
              for key, val in _flatten_config(asdict(cfg))]
    if extra:
        lines += [f"# {key} = {val}" for key, val in extra.items()]
    return lines


def _rows(rows, columns: list[str]):
    return ([getattr(row, col) for col in columns] for row in rows)


def write_sweep_csv(result: SweepResult, path) -> None:
    write_table(path, SWEEP_COLUMNS, _rows(result.rows, SWEEP_COLUMNS),
                _metadata_lines(result.config, {"sweep_axis": result.axis}))


def write_montecarlo_csv(result: MonteCarloResult, path) -> None:
    extra = {"n_max": result.point.n_max,
             "analytic_p_us": _fmt(result.point.p_us),
             "analytic_log10_p_us": _fmt(result.point.log10_p_us),
             "runs": result.runs,
             "unstable_frequency": _fmt(result.frequency),
             "ci95_low": _fmt(result.ci_low),
             "ci95_high": _fmt(result.ci_high)}
    write_table(path, MONTECARLO_COLUMNS,
                _rows(result.rows, MONTECARLO_COLUMNS),
                _metadata_lines(result.config, extra))
