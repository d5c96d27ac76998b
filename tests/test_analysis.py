"""Composition-layer tests: point evaluation, sweeps, Monte-Carlo, CSV output.

The analytic chain is checked against its own factorization (p_us must equal
p1 * p_bb^(n_max - 1) to floating precision), the run detector against a plain
loop over random bit strings, the Monte-Carlo counting against a recount of
its own draws, and the Wilson interval against scipy's implementation.
"""

import io
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from agvlink import (
    DEFAULT_TRACE_GRID,
    DEFAULT_TS_GRID,
    ParameterError,
    PointResult,
    ScenarioConfig,
    TrackSpec,
    instability_probability,
    longest_outage_run,
    montecarlo_instability,
    sweep_sampling_time,
    sweep_trace_time,
    wilson_interval,
    write_montecarlo_csv,
    write_sweep_csv,
)
from agvlink import analysis
from agvlink.analysis import MONTECARLO_COLUMNS, SWEEP_COLUMNS

from conftest import close, needs_fork, rel_close


@pytest.fixture(scope="module")
def short_cfg():
    """A 2 s lap: cheap tolerance scan (2000 steps) with nonzero n_max."""
    return ScenarioConfig(trace_time=2.0, ts=1e-3)


@pytest.fixture(scope="module")
def short_point(short_cfg):
    return instability_probability(short_cfg)


@pytest.fixture
def inject_point(monkeypatch):
    """Make `montecarlo_instability` count bursts against the given point."""
    return lambda point: monkeypatch.setattr(
        analysis, "instability_probability", lambda cfg: point)


# --- configuration -----------------------------------------------------------

def test_scenario_config_defaults_and_validation():
    cfg = ScenarioConfig()
    assert cfg.ts == 1e-3 and cfg.trace_time == 500.0
    assert cfg.phi_convention == "zorzi_sqrt"
    with pytest.raises(ParameterError):
        ScenarioConfig(ts=0.0)
    with pytest.raises(ParameterError):
        ScenarioConfig(ts=2e-3, trace_time=1e-3)
    for bad in (dict(ts=math.nan), dict(ts=math.inf),
                dict(trace_time=math.nan), dict(trace_time=math.inf)):
        with pytest.raises(ParameterError):
            ScenarioConfig(**bad)
    with pytest.raises(ParameterError):
        ScenarioConfig(margin=-0.1)
    with pytest.raises(ParameterError):   # nothing lies below 1 - margin <= 0
        ScenarioConfig(margin=1.0)
    with pytest.raises(ParameterError):   # PCG64 takes no negative seed
        ScenarioConfig(seed=-1)


def test_default_grids():
    assert DEFAULT_TS_GRID[0] == pytest.approx(1e-3)
    assert DEFAULT_TS_GRID[-1] == pytest.approx(1e-2)
    assert len(DEFAULT_TS_GRID) == 19
    steps = np.diff(DEFAULT_TS_GRID)
    assert np.allclose(steps, 5e-4)
    assert DEFAULT_TRACE_GRID == (20.0, 100.0, 333.0, 500.0, 1000.0)


# --- point evaluation --------------------------------------------------------

def test_instability_probability_factorization(short_point):
    pt = short_point
    assert pt.n_max > 0
    assert pt.flags == ()
    # the headline number must be exactly the run-length formula
    expected_log10 = (math.log10(pt.model.p1)
                      + (pt.n_max - 1) * math.log10(pt.model.p_bb))
    assert close(pt.log10_p_us, expected_log10, 1e-12 * abs(expected_log10))
    if pt.p_us > 0.0:
        assert rel_close(pt.p_us, 10.0 ** pt.log10_p_us, 1e-9)
    # the channel is evaluated at the track's top speed
    assert pt.nu_max == pytest.approx(2 * math.pi * 350.0 / 2.0, rel=1e-12)


def test_instability_probability_nmax_zero_flag(short_cfg):
    # a margin beyond the no-loss spectral radius kills every candidate
    pt = instability_probability(replace(short_cfg, margin=2e-2))
    assert pt.n_max == 0
    assert "nmax_zero" in pt.flags
    assert pt.p_us == pt.model.p1
    assert pt.log10_p_us == pytest.approx(math.log10(pt.model.p1), rel=1e-12)


def test_instability_probability_capped_flag():
    # a single-step track cannot verify any failing candidate
    cfg = ScenarioConfig(track=TrackSpec(semi_axis_a=1e-3),
                         trace_time=1e-3, ts=1e-3)
    pt = instability_probability(cfg)
    assert "nmax_capped" in pt.flags


# --- sweeps ------------------------------------------------------------------

def test_sweep_trace_time_rows(short_cfg):
    grid = (0.5, 2.0)
    res = sweep_trace_time(short_cfg, grid)
    assert res.axis == "trace_time_s"
    assert res.config == short_cfg
    assert [r.trace_time_s for r in res.rows] == list(grid)
    assert all(r.ts_s == short_cfg.ts for r in res.rows)
    # shorter lap = faster vehicle = weaker slot-to-slot correlation
    assert res.rows[0].nu_max_mps == pytest.approx(4 * res.rows[1].nu_max_mps,
                                                   rel=1e-12)
    for row in res.rows:
        assert row.flags == ""
        assert row.n_max >= 0
        assert 0.0 <= row.p1 <= 1.0 and 0.0 <= row.p_bb <= 1.0
    # the 2.0 s row must agree with the direct point evaluation
    direct = instability_probability(short_cfg)
    assert res.rows[1].n_max == direct.n_max
    assert res.rows[1].log10_p_us == direct.log10_p_us


def test_sweep_sampling_time_rows():
    cfg = ScenarioConfig(trace_time=2.0, ts=1e-3)
    res = sweep_sampling_time(cfg, (1e-3, 2e-3))
    assert res.axis == "ts_s"
    assert [r.ts_s for r in res.rows] == [1e-3, 2e-3]
    assert all(r.trace_time_s == 2.0 for r in res.rows)
    assert all(r.flags == "" for r in res.rows)
    # coarser sampling tolerates fewer dropped samples
    assert res.rows[1].n_max < res.rows[0].n_max


def test_sweep_flags_bad_point_instead_of_aborting():
    # second grid point implies trace_time < ts, which the config rejects;
    # the sweep must keep going and flag that row
    cfg = ScenarioConfig(trace_time=1.5e-3, ts=1e-3)
    res = sweep_sampling_time(cfg, (1e-3, 2e-3))
    good, bad = res.rows
    assert not good.flags.startswith("error") and good.n_max >= 0
    assert bad.flags == "error:ParameterError"
    assert good.message == ""
    assert "at least one sampling period" in bad.message
    assert bad.n_max == -1
    assert math.isnan(bad.p_us) and math.isnan(bad.rho)


def test_sweep_grid_validation(short_cfg):
    with pytest.raises(ParameterError):
        sweep_sampling_time(short_cfg, ())
    with pytest.raises(ParameterError):
        sweep_sampling_time(short_cfg, (2e-3, 1e-3))
    with pytest.raises(ParameterError):
        sweep_trace_time(short_cfg, (0.0, 1.0))
    with pytest.raises(ParameterError):
        sweep_trace_time(short_cfg, (1.0, 1.0))
    with pytest.raises(ParameterError):
        sweep_sampling_time(short_cfg, (1e-3, math.nan))
    with pytest.raises(ParameterError):
        sweep_trace_time(short_cfg, (2.0, math.inf))


# --- longest run -------------------------------------------------------------

def _longest_run_reference(bits):
    best = run = 0
    for b in bits:
        run = run + 1 if b else 0
        best = max(best, run)
    return best


def test_longest_outage_run_small_cases():
    assert longest_outage_run(np.array([], dtype=bool)) == 0
    assert longest_outage_run(np.zeros(5, dtype=bool)) == 0
    assert longest_outage_run(np.ones(7, dtype=bool)) == 7
    assert longest_outage_run(np.array([1, 0, 1, 1], dtype=bool)) == 2
    assert longest_outage_run(np.array([1, 1, 0, 1, 1, 1], dtype=bool)) == 3
    assert longest_outage_run(np.array([0, 1, 0], dtype=bool)) == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), max_size=60))
def test_longest_outage_run_matches_reference(bits):
    assert longest_outage_run(np.array(bits, dtype=bool)) == \
        _longest_run_reference(bits)


# --- Wilson interval ---------------------------------------------------------

def test_wilson_interval_matches_scipy():
    for k, n in ((0, 10), (10, 10), (3, 10), (1, 1000), (500, 1000),
                 (999, 1000)):
        lo, hi = wilson_interval(k, n)
        ref = binomtest(k, n).proportion_ci(confidence_level=0.95,
                                            method="wilson")
        assert rel_close(lo, ref.low, 1e-10) or close(lo, ref.low, 1e-12)
        assert rel_close(hi, ref.high, 1e-10) or close(hi, ref.high, 1e-12)


def test_wilson_interval_lower_bound_is_zero_at_zero_successes():
    # center - half would cancel inexactly (3.47e-18 at n = 100)
    for n in (1, 12, 16, 100, 1000, 10**6):
        lo, hi = wilson_interval(0, n)
        assert lo == 0.0 and 0.0 < hi < 1.0, (n, lo, hi)


def test_wilson_interval_validation():
    with pytest.raises(ParameterError):
        wilson_interval(1, 0)
    with pytest.raises(ParameterError):
        wilson_interval(-1, 10)
    with pytest.raises(ParameterError):
        wilson_interval(11, 10)


# --- Monte-Carlo driver ------------------------------------------------------

def test_montecarlo_counting_consistency(short_cfg, short_point,
                                         inject_point):
    # probe the burst spread first, then inject a tolerance between the
    # extremes so both outcomes occur across the same 64 runs
    probe = montecarlo_instability(short_cfg, runs=64)
    bursts = [r.max_burst_len for r in probe.rows]
    assert min(bursts) < max(bursts)
    fake = replace(short_point, n_max=min(bursts))
    inject_point(fake)
    res = montecarlo_instability(short_cfg, runs=64)
    assert res.runs == 64 and len(res.rows) == 64
    assert [r.run_id for r in res.rows] == list(range(64))
    assert all(r.seed == short_cfg.seed for r in res.rows)
    assert [r.max_burst_len for r in res.rows] == bursts   # same draws
    recount = sum(b >= fake.n_max + 1 for b in bursts)
    assert res.unstable_count == recount
    assert 0 < res.unstable_count < 64   # both outcomes realized
    assert res.frequency == res.unstable_count / 64
    assert (res.ci_low, res.ci_high) == wilson_interval(res.unstable_count, 64)
    assert all(r.unstable_flag == (r.max_burst_len >= fake.n_max + 1)
               for r in res.rows)
    assert all(math.isnan(r.max_tracking_error_m) for r in res.rows)


def test_montecarlo_deterministic(short_cfg):
    a = montecarlo_instability(short_cfg, runs=8)
    b = montecarlo_instability(short_cfg, runs=8)
    assert a.rows == b.rows
    # different seed changes the drawn bursts
    c = montecarlo_instability(replace(short_cfg, seed=999), runs=8)
    assert [r.max_burst_len for r in c.rows] != [r.max_burst_len
                                                 for r in a.rows]


def test_montecarlo_cosimulate_records_error():
    cfg = ScenarioConfig(track=TrackSpec(semi_axis_a=10.0), trace_time=2.0,
                         ts=5e-3)
    res = montecarlo_instability(cfg, runs=2, cosimulate=True)
    assert all(math.isfinite(r.max_tracking_error_m) for r in res.rows)
    assert all(r.max_tracking_error_m > 0.0 for r in res.rows)


def test_montecarlo_rejects_bad_runs(short_cfg):
    with pytest.raises(ParameterError):
        montecarlo_instability(short_cfg, runs=0)


@needs_fork
@pytest.mark.parametrize("cosimulate", [False, True])
def test_montecarlo_split_matches_one_process(short_cfg, forks, monkeypatch,
                                              cosimulate):
    # 7 runs of 2000 slots are too little work to fork for ...
    alone = montecarlo_instability(short_cfg, runs=7, cosimulate=cosimulate)
    assert forks == []
    # ... until every slot is worth a share: 3 shares of 2, 2 and 3 runs
    monkeypatch.setattr(analysis, "_MIN_SHARE_SLOTS", 1)
    split = montecarlo_instability(short_cfg, runs=7, cosimulate=cosimulate)
    assert len(forks) == 2
    assert split == alone
    assert [r.run_id for r in split.rows] == list(range(7))
    assert all(math.isnan(r.max_tracking_error_m) != cosimulate
               for r in split.rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert montecarlo_instability(short_cfg, runs=7,
                                  cosimulate=cosimulate) == alone
    assert len(forks) == 2


@needs_fork
@pytest.mark.parametrize("failing", ["child", "parent"])
def test_montecarlo_split_failure_raises_and_reaps(short_cfg, forks,
                                                   monkeypatch, capfd, failing):
    monkeypatch.setattr(analysis, "_MIN_SHARE_SLOTS", 1)
    real_write_runs = analysis._write_runs

    def write_runs(out, cfg, model, slots, track, lo, hi):
        if (lo > 0) == (failing == "child"):
            raise ValueError("injected")
        real_write_runs(out, cfg, model, slots, track, lo, hi)

    monkeypatch.setattr(analysis, "_write_runs", write_runs)
    expected = ((RuntimeError, "Monte-Carlo runs from 2 exited with status 1")
                if failing == "child" else (ValueError, "injected"))
    with pytest.raises(expected[0], match=expected[1]):
        montecarlo_instability(short_cfg, runs=7)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):    # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    assert ("ValueError: injected" in capfd.readouterr().err) == (
        failing == "child")


# --- CSV emission ------------------------------------------------------------

def _split_csv(text: str):
    lines = text.strip().split("\n")
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return meta, body


def test_write_sweep_csv_schema(tmp_path, short_cfg):
    res = sweep_trace_time(short_cfg, (0.5, 2.0))
    out = tmp_path / "sweep.csv"
    write_sweep_csv(res, out)
    meta, body = _split_csv(out.read_text())
    assert body[0] == ",".join(SWEEP_COLUMNS)
    assert len(body) == 1 + len(res.rows)
    fields = body[1].split(",")
    assert len(fields) == len(SWEEP_COLUMNS)
    assert int(fields[SWEEP_COLUMNS.index("n_max")]) == res.rows[0].n_max
    assert float(fields[0]) == 1e-3
    # metadata block carries config, conventions, and generator identity,
    # each fact once
    joined = "\n".join(meta)
    assert "# version = " in joined
    assert "# prng = pcg64-ziggurat" in joined
    assert "# config.phi_convention = zorzi_sqrt" in joined
    assert sum("phi_convention" in m for m in meta) == 1
    assert "# config.link.num_agvs = 50" in joined
    assert "# config.ts = 0.001" in joined
    assert "# sweep_axis = trace_time_s" in joined
    assert not any("time" in m and "=" in m and "trace" not in m
                   and "runs" not in m for m in meta
                   if "timestamp" in m)   # no wall-clock stamps


def test_write_sweep_csv_deterministic(tmp_path, short_cfg):
    res = sweep_trace_time(short_cfg, (0.5, 2.0))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(res, first)
    write_sweep_csv(res, second)
    assert first.read_bytes() == second.read_bytes()


def test_write_sweep_csv_accepts_handle(short_cfg):
    res = sweep_trace_time(short_cfg, (0.5, 2.0))
    buf = io.StringIO()
    write_sweep_csv(res, buf)
    meta, body = _split_csv(buf.getvalue())
    assert body[0] == ",".join(SWEEP_COLUMNS)


def test_write_montecarlo_csv_schema(tmp_path, short_cfg, short_point,
                                     inject_point):
    inject_point(replace(short_point, n_max=3))
    res = montecarlo_instability(short_cfg, runs=16)
    out = tmp_path / "mc.csv"
    write_montecarlo_csv(res, out)
    meta, body = _split_csv(out.read_text())
    assert body[0] == ",".join(MONTECARLO_COLUMNS)
    assert len(body) == 1 + 16
    joined = "\n".join(meta)
    assert "# n_max = 3" in joined
    assert "# runs = 16" in joined
    assert "# unstable_frequency = " in joined
    assert "# ci95_low = " in joined and "# ci95_high = " in joined
    flags = {row.split(",")[MONTECARLO_COLUMNS.index("unstable_flag")]
             for row in body[1:]}
    assert flags <= {"0", "1"}
    run_ids = [int(row.split(",")[0]) for row in body[1:]]
    assert run_ids == list(range(16))
