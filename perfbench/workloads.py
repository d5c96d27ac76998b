"""The benchmark's workloads and the output checks run after each timed region.

A workload pass is a fixed list of `agvlink.cli.main(argv)` calls. The grids,
run counts and lap lengths are scaled down from the CLI defaults; each scaled
input still drives the same layers as the default. On the 2-core Xeon VM
the baseline comes from, CPU speed swings by up to 40% over a few seconds,
so the benchmark has two workloads with long runs rather than four with
short ones: `sweeps-montecarlo` holds the three analysis commands that run
the tolerance search, and `simulate-csv` is the single-run trajectory path
that never searches. The traced run still reports each command's own wall
time (`wall.<command>_s`), so the ellipse sweep, which must not change under
a circle-only shortcut, and the Monte-Carlo run are each visible on their own.

A check returns how many of a command's operations failed. An operation is a
grid point for a sweep, a run for Monte-Carlo and a row for a trajectory.
Checks never pin n_max values or output digests: a change to the stability
model moves them on purpose.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from agvlink.channel import (
    build_outage_model,
    consecutive_outage_prob,
    sample_outage_sequence,
)
from agvlink.cli import load_config
from agvlink.control import build_reference_track, simulate_closed_loop
from agvlink.stability import evaluate_candidate

HERE = Path(__file__).resolve().parent
ELLIPSE_INI = HERE / "ellipse.ini"

SWEEP_TRACE_GRID_S = (20, 50, 100)
SWEEP_TS_GRID_MS = (1, 2, 4, 8)
ELLIPSE_LAP_S = 100
MC_LAP_S = 20
MC_RUNS = 16
SIM_LAP_S = 100


@dataclass(frozen=True)
class Command:
    """One CLI call of a pass, with the check of the CSV it writes."""

    args: tuple[str, ...]        # CLI arguments before --seed and --out
    ops: int
    check: Callable[["Command", Path, str, int], int]
    config: Path | None = None

    def argv(self, seed: int, out: Path) -> list[str]:
        extra = ["--config", str(self.config)] if self.config else []
        return [*self.args, *extra, "--seed", str(seed), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]

    @property
    def ops_per_pass(self) -> int:
        return sum(c.ops for c in self.commands)


def _data_rows(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """('# key = value' metadata, CSV rows as dicts) of an agvlink CSV."""
    meta, body = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            else:
                body.append(line)
    return meta, list(csv.DictReader(body))


def _boundary_holds(cmd: Command, row: dict[str, str]) -> bool:
    """An independent scan: n_max is stable and n_max + 1 is not."""
    scenario = load_config(str(cmd.config) if cmd.config else None).scenario
    track = build_reference_track(scenario.track, float(row["trace_time_s"]),
                                  float(row["ts_s"]))
    n_max = int(row["n_max"])
    return (evaluate_candidate(track, scenario.gains, n_max,
                               scenario.margin).stable
            and not evaluate_candidate(track, scenario.gains, n_max + 1,
                                       scenario.margin).stable)


def check_sweep(cmd: Command, path: Path, stdout: str, seed: int) -> int:
    """Failed grid points: error flags, p_us mismatches, a wrong boundary."""
    _, rows = _data_rows(path)
    failed = abs(cmd.ops - len(rows))
    good = []
    for row in rows:
        try:
            ok = ("error:" not in row["flags"]
                  and float(row["p_us"]) == consecutive_outage_prob(
                      int(row["n_max"]), float(row["p1"]), float(row["p_bb"])))
        except (ValueError, ArithmeticError) as exc:   # ParameterError too
            ok = False
            print(f"check: row {row} raised {exc!r}")
        if ok:
            good.append(row)
        failed += not ok
    if good:
        axis = "ts_s" if cmd.args[0] == "sweep-ts" else "trace_time_s"
        smallest = min(good, key=lambda r: float(r[axis]))
        failed += not _boundary_holds(cmd, smallest)
    return failed


def check_montecarlo(cmd: Command, path: Path, stdout: str, seed: int) -> int:
    """Failed runs: wrong unstable flags or count, non-finite errors."""
    meta, rows = _data_rows(path)
    threshold = int(meta["n_max"]) + 1
    match = re.search(r"unstable (\d+)/(\d+)", stdout)
    bursts = [int(r["max_burst_len"]) for r in rows]
    counted = sum(b >= threshold for b in bursts)
    if match is None or int(match.group(1)) != counted \
            or int(match.group(2)) != len(rows):
        return cmd.ops
    failed = abs(cmd.ops - len(rows))
    for row, burst in zip(rows, bursts):
        failed += (row["unstable_flag"] != str(int(burst >= threshold))
                   or not math.isfinite(float(row["max_tracking_error_m"])))
    return failed


def check_trajectory(cmd: Command, path: Path, stdout: str, seed: int) -> int:
    """Failed rows: CSV values that do not parse back to the Trajectory."""
    scenario = load_config(None).scenario
    track = build_reference_track(scenario.track, SIM_LAP_S, scenario.ts)
    model = build_outage_model(scenario.link, scenario.ts, track.max_speed,
                               scenario.phi_convention)
    schedule = sample_outage_sequence(model.rho, model.gamma_th,
                                      track.n_steps, seed)
    traj = simulate_closed_loop(track, scenario.gains, schedule)
    k = np.arange(len(traj))
    expected = np.column_stack([
        k, k * traj.ts, track.xs[k], track.ys[k], track.thetas[k],
        traj.x_c, traj.y_c, traj.theta_c, traj.x_e, traj.y_e, traj.theta_e,
        traj.nu_applied, traj.omega_applied, traj.outage])
    got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if got.shape != expected.shape:
        return cmd.ops
    same = (got == expected) | (np.isnan(got) & np.isnan(expected))
    return int(np.count_nonzero(~same.all(axis=1)))


WORKLOADS = {wl.name: wl for wl in (
    Workload("sweeps-montecarlo", (
        Command(("sweep-trace", "--grid-s",
                 ",".join(map(str, SWEEP_TRACE_GRID_S))),
                len(SWEEP_TRACE_GRID_S), check_sweep),
        Command(("sweep-ts", "--grid-ms", ",".join(map(str, SWEEP_TS_GRID_MS)),
                 "--trace-time-s", str(ELLIPSE_LAP_S)),
                len(SWEEP_TS_GRID_MS), check_sweep, ELLIPSE_INI),
        Command(("montecarlo", "--trace-time-s", str(MC_LAP_S),
                 "--runs", str(MC_RUNS), "--cosimulate"),
                MC_RUNS, check_montecarlo),
    )),
    Workload("simulate-csv", (
        Command(("simulate", "--sample-outages",
                 "--trace-time-s", str(SIM_LAP_S)),
                math.ceil(SIM_LAP_S / 1e-3), check_trajectory),
    )),
)}
