"""Unit tests for the tracking loop: transforms, control law, plant, tracks."""

import csv
import io
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agvlink import (
    Gains,
    ParameterError,
    TrackSpec,
    Trajectory,
    build_reference_track,
    control_law,
    plant_step,
    simulate_closed_loop,
    tracking_error,
    wrap_angle,
    write_trajectory_csv,
)
from agvlink import control
from agvlink.channel import LinkParams, build_outage_model, sample_outage_sequence
from agvlink.control import TRAJECTORY_COLUMNS

from conftest import closed_loop_per_step, delayed_position_error, needs_fork

finite_angle = st.floats(-50.0, 50.0)
small_coord = st.floats(-1e3, 1e3)


# --- angle wrapping ----------------------------------------------------------

@given(finite_angle)
def test_wrap_angle_range(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi


@given(finite_angle)
def test_wrap_angle_preserves_direction(a):
    w = wrap_angle(a)
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)


# --- tracking error ----------------------------------------------------------

def test_tracking_error_identity():
    p = (3.0, -4.0, 1.2)
    assert tracking_error(*p, *p) == (0.0, 0.0, 0.0)


def test_tracking_error_axis_aligned():
    x_e, y_e, theta_e = tracking_error(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert math.isclose(x_e, 1.0, abs_tol=1e-15)
    assert math.isclose(y_e, 0.0, abs_tol=1e-15)
    assert theta_e == 0.0


def test_tracking_error_quarter_turn():
    # displacement (1, 0) seen from a vehicle heading +90 degrees
    x_e, y_e, theta_e = tracking_error(1.0, 0.0, 0.0, 0.0, 0.0, math.pi / 2.0)
    assert math.isclose(x_e, 0.0, abs_tol=1e-15)
    assert math.isclose(y_e, -1.0, abs_tol=1e-15)
    assert math.isclose(theta_e, -math.pi / 2.0)


@given(small_coord, small_coord, small_coord, small_coord, finite_angle,
       finite_angle)
def test_tracking_error_rotation_preserves_norm(xr, yr, xc, yc, thr, thc):
    x_e, y_e, _ = tracking_error(xr, yr, thr, xc, yc, thc)
    assert math.isclose(math.hypot(x_e, y_e), math.hypot(xr - xc, yr - yc),
                        rel_tol=1e-12, abs_tol=1e-12)


# --- control law --------------------------------------------------------------

def test_control_law_zero_error_passthrough():
    assert control_law(0.0, 0.0, 0.0, 4.4, 0.0126, Gains()) == (4.4, 0.0126)


def test_control_law_longitudinal_term():
    nu, omega = control_law(1.0, 0.0, 0.0, 2.0, 0.0, Gains())
    assert math.isclose(nu, 12.0, rel_tol=1e-15)
    assert omega == 0.0


def test_control_law_lateral_heading_terms():
    nu, omega = control_law(0.0, 1.0, math.pi / 6.0, 4.4, 0.0126, Gains())
    expected = 0.0126 + 4.4 * (0.0064 + 0.16 * 0.5)
    assert math.isclose(omega, expected, rel_tol=1e-12)
    assert math.isclose(nu, 4.4 * math.cos(math.pi / 6.0), rel_tol=1e-15)


def test_control_law_wraps_heading_error():
    # 2*pi-offset heading errors must command identically
    u1 = control_law(0.0, 0.0, 0.1, 4.4, 0.0, Gains())
    u2 = control_law(0.0, 0.0, 0.1 + 2.0 * math.pi, 4.4, 0.0, Gains())
    assert math.isclose(u1[0], u2[0], rel_tol=1e-12)
    assert math.isclose(u1[1], u2[1], rel_tol=1e-12)


def test_gains_must_be_positive():
    for bad in (dict(k_x=0.0), dict(k_y=-1.0), dict(k_theta=0.0)):
        with pytest.raises(ParameterError):
            Gains(**bad)


# --- plant step ----------------------------------------------------------------

def test_plant_step_zero_input():
    assert plant_step(1.0, 2.0, 0.5, 0.0, 0.0, 0.1) == (1.0, 2.0, 0.5)


def test_plant_step_axis_aligned():
    x, y, theta = plant_step(0.0, 0.0, 0.0, 1.0, 0.0, 0.1)
    assert math.isclose(x, 0.1) and y == 0.0 and theta == 0.0


def test_plant_step_substitution():
    x, y, theta = plant_step(1.0, 1.0, math.pi / 2.0, 2.0, 1.0, 0.01)
    assert math.isclose(x, 1.0, abs_tol=1e-15)
    assert math.isclose(y, 1.02, rel_tol=1e-14)
    assert math.isclose(theta, math.pi / 2.0 + 0.01, rel_tol=1e-14)


def test_plant_step_requires_positive_ts():
    with pytest.raises(ParameterError):
        plant_step(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)


@given(st.integers(1, 200), st.floats(0.01, 10.0), st.floats(1e-4, 0.1),
       finite_angle)
def test_plant_step_straight_line_accumulates_exactly(n, nu, ts, theta):
    # constant heading: N steps advance exactly N*ts*nu along the heading
    x, y, th = 0.0, 0.0, theta
    for _ in range(n):
        x, y, th = plant_step(x, y, th, nu, 0.0, ts)
    along = x * math.cos(theta) + y * math.sin(theta)
    assert math.isclose(along, n * ts * nu, rel_tol=1e-9)
    assert th == theta


# --- reference tracks ------------------------------------------------------------

def test_track_sample_count_matches_ceiling():
    tr = build_reference_track(TrackSpec(), 500.0, 1e-3)
    assert tr.n_steps == 500_000
    tr = build_reference_track(TrackSpec(semi_axis_a=10.0), 1.0, 0.3)
    assert tr.n_steps == math.ceil(1.0 / 0.3)


def test_track_circle_constant_speed_and_rate():
    tr = build_reference_track(TrackSpec(), 500.0, 1e-3)
    nu_expected = 2.0 * math.pi * 350.0 / 500.0
    assert np.allclose(tr.nus, nu_expected, rtol=1e-12)
    assert abs(nu_expected - 4.398) < 1e-3
    assert np.allclose(tr.omegas, 2.0 * math.pi / 500.0, rtol=1e-12)


def test_track_start_pose_matches_tangent():
    tr = build_reference_track(TrackSpec(), 500.0, 1e-3)
    assert math.isclose(tr.xs[0], -350.0, abs_tol=1e-9)
    assert math.isclose(tr.ys[0], 0.0, abs_tol=1e-9)
    assert math.isclose(math.remainder(tr.thetas[0] - (-math.pi / 2.0),
                                       2.0 * math.pi), 0.0, abs_tol=1e-12)


def test_track_closure():
    for spec, T in ((TrackSpec(), 125.0),
                    (TrackSpec(shape="ellipse", semi_axis_a=350.0,
                               semi_axis_b=150.0), 125.0)):
        tr = build_reference_track(spec, T, 1e-2)
        circumference = 2.0 * math.pi * spec.semi_axis_a
        assert math.hypot(tr.xs[-1] - tr.xs[0],
                          tr.ys[-1] - tr.ys[0]) < 1e-6 * circumference
        assert tr.thetas[-1] == tr.thetas[0] + 2.0 * math.pi


TRACKS = {"circle": TrackSpec(semi_axis_a=10.0),
          "ellipse": TrackSpec(shape="ellipse", semi_axis_a=350.0,
                               semi_axis_b=200.0)}


@pytest.mark.parametrize("spec", TRACKS.values(), ids=TRACKS.keys())
def test_track_blocks_equal_the_lap_views(spec):
    # the simulator and the writer read `at` by blocks, the per-step
    # reference and `check_trajectory` read the lap views; blocks that
    # straddle both lap seams of 800 steps and the simulator's 1024-step
    # block edge agree with the views bit for bit, headings one turn on a lap
    track = build_reference_track(spec, 4.0, 5e-3)
    n = track.n_steps
    views = (track.xs, track.ys, track.thetas, track.nus, track.omegas)
    for lo, hi in ((0, 1), (0, n + 1), (n - 3, n + 5), (1020, 1030),
                   (2 * n - 2, 2 * n + 3)):
        turns, r = np.divmod(np.arange(lo, hi), n)
        want = [view[r] for view in views]
        want[2] = want[2] + 2.0 * math.pi * turns
        for got, expected in zip(track.at(np.arange(lo, hi)), want):
            assert np.array_equal(got, expected), (lo, hi)
    # a single step, as the simulator reads its start pose
    assert [float(v) for v in track.at(n + 7)] == [
        float(v[0]) for v in track.at([n + 7])]


@pytest.mark.parametrize("b", [None, 100.0, 200.0, 600.0])
def test_track_heading_is_the_unwrapped_velocity_direction(b):
    # the closed-form heading rises strictly over a lap and agrees with the
    # unwrapped direction of the analytic velocity to a few ulp of 2 pi
    spec = (TrackSpec(semi_axis_a=350.0) if b is None else
            TrackSpec(shape="ellipse", semi_axis_a=350.0, semi_axis_b=b))
    track = build_reference_track(spec, 20.0, 4e-3)
    assert np.all(np.diff(track.thetas) > 0.0)
    phi = math.pi + 2.0 * math.pi * np.arange(track.n_steps + 1) / track.n_steps
    direction = np.unwrap(np.arctan2(spec.axis_b * np.cos(phi),
                                     -spec.semi_axis_a * np.sin(phi)))
    assert np.max(np.abs(track.thetas - direction)) <= 4 * np.spacing(2.0 * math.pi)


def test_track_headings_match_velocity_direction():
    tr = build_reference_track(TrackSpec(shape="ellipse", semi_axis_a=350.0,
                                         semi_axis_b=150.0), 200.0, 1e-2)
    # finite-difference velocity direction at sample k agrees with theta_r(k)
    k = 517
    h = 1
    dx = tr.xs[k + h] - tr.xs[k - h]
    dy = tr.ys[k + h] - tr.ys[k - h]
    assert math.isclose(math.atan2(dy, dx), wrap_angle(tr.thetas[k]),
                        abs_tol=1e-4)


def test_track_speeds_match_finite_differences():
    tr = build_reference_track(TrackSpec(shape="ellipse", semi_axis_a=350.0,
                                         semi_axis_b=150.0), 200.0, 1e-2)
    mid = (tr.xs[1:] - tr.xs[:-1]) ** 2 + (tr.ys[1:] - tr.ys[:-1]) ** 2
    fd_speed = np.sqrt(mid) / tr.ts
    # centered comparison: fd over [k, k+1] ~ speed at k + 1/2
    avg = 0.5 * (tr.nus[1:] + tr.nus[:-1])
    assert np.max(np.abs(fd_speed - avg) / np.max(avg)) < 1e-4


def test_track_ellipse_turn_rate_matches_heading_derivative():
    tr = build_reference_track(TrackSpec(shape="ellipse", semi_axis_a=350.0,
                                         semi_axis_b=150.0), 200.0, 1e-2)
    fd_omega = (tr.thetas[2:] - tr.thetas[:-2]) / (2.0 * tr.ts)
    assert np.max(np.abs(fd_omega - tr.omegas[1:-1])) < 1e-3 * np.max(
        np.abs(tr.omegas))


def test_track_invalid_parameters():
    # every consumer of a track (the tolerance search, a single lag
    # candidate, the simulator) reaches these refusals first
    for trace_time, ts in ((500.0, 0.0), (500.0, -1e-3),
                           (1e-4, 1e-3),                 # trace_time < ts
                           (500.0, math.nan), (500.0, math.inf),
                           (math.nan, 1e-3), (math.inf, 1e-3)):
        with pytest.raises(ParameterError):
            build_reference_track(TrackSpec(), trace_time, ts)
    # a lap of more steps than numpy can index; one of 1e15 steps is a
    # formula like any other
    with pytest.raises(ParameterError, match=r"trace_time / ts .* too many"):
        build_reference_track(TrackSpec(), 1e20, 1e-3)
    assert build_reference_track(TrackSpec(), 1e12, 1e-3).n_steps == 10**15
    # one-step laps refused with no warning before: 1e-300 s, whose turn
    # rate's cube overflows a float, 1e-101 s, whose cube times the
    # semi-axes does, and 1e-200 s on 1e150 m, whose speed does
    for axis, lap in ((350.0, "1e-300"), (350.0, "1e-101"), (1e150, "1e-200")):
        with warnings.catch_warnings(), pytest.raises(
                ParameterError, match=re.escape(
                    f"track semi-axes {axis!r} and {axis!r} m at trace_time "
                    f"/ ts = {lap} / {lap} give a speed or turn rate that is "
                    "not finite")):
            warnings.simplefilter("error")
            build_reference_track(TrackSpec(semi_axis_a=axis), float(lap),
                                  float(lap))
    with pytest.raises(ParameterError):
        TrackSpec(semi_axis_a=-1.0)
    with pytest.raises(ParameterError, match="semi_axis_b is for an ellipse"):
        TrackSpec(shape="circle", semi_axis_b=200.0)
    with pytest.raises(ParameterError):
        TrackSpec(shape="square")
    # semi-axes so small (0 / 0) or so large (inf / inf) that nu * nu leaves
    # no finite turn rate
    for a in (1e-320, 1e308):
        with pytest.raises(ParameterError, match=re.escape(f"semi-axes {a!r}")):
            build_reference_track(TrackSpec(semi_axis_a=a), 20.0, 1e-3)


# --- closed-loop simulation -------------------------------------------------------

def test_no_outage_run_tracks_tightly(small_track, gains):
    sched = np.zeros(small_track.n_steps, dtype=bool)
    traj = simulate_closed_loop(small_track, gains, sched)
    err = traj.position_error()
    settled = err[int(1.0 / small_track.ts):]
    assert np.max(settled) < 1e-3


def test_all_outages_hold_first_input(tiny_track, gains):
    sched = np.ones(200, dtype=bool)
    traj = simulate_closed_loop(tiny_track, gains, sched)
    # every applied command equals u(0): constant-twist motion
    assert np.all(traj.nu_applied == traj.nu_applied[0])
    assert np.all(traj.omega_applied == traj.omega_applied[0])
    # oracle: iterate the plant directly under the frozen command
    p = (tiny_track.xs[0], tiny_track.ys[0], tiny_track.thetas[0])
    u = (float(traj.nu_applied[0]), float(traj.omega_applied[0]))
    for k in range(1, 200):
        p = plant_step(*p, *u, tiny_track.ts)
        assert math.isclose(p[0], traj.x_c[k], abs_tol=1e-9)
        assert math.isclose(p[1], traj.y_c[k], abs_tol=1e-9)


def test_outage_flags_recorded_after_first_sample(tiny_track, gains):
    sched = np.zeros(100, dtype=bool)
    sched[0] = True         # first sample is always delivered by convention
    sched[10:13] = True
    traj = simulate_closed_loop(tiny_track, gains, sched)
    assert not traj.outage[0] and sched[0]   # the caller's schedule is kept
    assert np.array_equal(traj.outage[10:13], [True] * 3)


def test_isolated_outage_forgotten(small_track, gains):
    n = small_track.n_steps
    clean = np.zeros(n, dtype=bool)
    one = clean.copy()
    one[n // 2] = True
    t_clean = simulate_closed_loop(small_track, gains, clean)
    t_one = simulate_closed_loop(small_track, gains, one)
    d = math.hypot(t_clean.x_c[-1] - t_one.x_c[-1],
                   t_clean.y_c[-1] - t_one.y_c[-1])
    assert d < 1e-6


def test_blocked_simulator_matches_per_step_loop(tiny_track, gains):
    # the 4000-step lap is no whole number of blocks, so block edges and the
    # lap seam fall apart; 2.5 laps cross two seams
    block = control._SIM_BLOCK
    assert tiny_track.n_steps % block
    rng = np.random.default_rng(16)
    for steps in (1, block - 1, block, block + 1,
                  5 * tiny_track.n_steps // 2):
        sched = rng.random(steps) < 0.4
        traj = simulate_closed_loop(tiny_track, gains, sched)
        got = (traj.x_c, traj.y_c, traj.theta_c, traj.x_e, traj.y_e,
               traj.theta_e, traj.nu_applied, traj.omega_applied, traj.outage)
        want = closed_loop_per_step(tiny_track, gains, sched)
        for name, a, b in zip(("x_c", "y_c", "theta_c", "x_e", "y_e",
                               "theta_e", "nu_applied", "omega_applied",
                               "outage"), got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                steps, name)


def test_simulator_memory_does_not_grow_with_the_run(small_track, gains):
    # beyond its nine output arrays (65 bytes a step) the simulator holds one
    # block of Python floats, whatever the run's length; lists of the whole
    # run would add about 8 MB at 20 000 steps. (Each step costs about 30 us
    # under tracemalloc, so the runs are kept short.)
    extra = {}
    for steps in (20_000, 40_000):
        sched = np.zeros(steps, dtype=bool)
        sched[::7] = True
        tracemalloc.start()
        try:
            traj = simulate_closed_loop(small_track, gains, sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == steps
        extra[steps] = (peak - 65 * steps) / 2**20
    assert max(extra.values()) < 2.0, extra
    assert abs(extra[40_000] - extra[20_000]) < 0.25, extra


@pytest.fixture(scope="module")
def lap20():
    """The 20 s circle at 1 ms: 20 000 steps, no whole number of blocks."""
    return build_reference_track(TrackSpec(), 20.0, 1e-3)


def _burst_cycle(steps, n):
    """One delivery, then n losses, repeated."""
    return np.arange(steps) % (n + 1) != 0


def _sampled(track, steps, runs):
    """Loss schedules of the default link at the track's top speed."""
    model = build_outage_model(LinkParams(), track.ts, track.max_speed)
    return [sample_outage_sequence(model.rho, model.gamma_th, steps, seed,
                                   stream=stream) for seed, stream in runs]


def test_simulator_matches_per_step_loop_on_sampled_runs(lap20, gains):
    # the loop's written-out step is the kernel functions' bit for bit on
    # sampled and burst-cycle runs: on a lap of 19.5 blocks, on the ellipse,
    # and for runs shorter than a block
    assert lap20.n_steps % control._SIM_BLOCK
    ellipse = build_reference_track(
        TrackSpec(shape="ellipse", semi_axis_b=200.0), 20.0, 4e-3)
    for track, schedules in (
            (lap20, [*_sampled(lap20, lap20.n_steps, [(1, 5), (7, 2)]),
                     _burst_cycle(lap20.n_steps, 120)]),
            (ellipse, _sampled(ellipse, ellipse.n_steps, [(3, 0), (11, 3)])),
            (ellipse, _sampled(ellipse, 300, [(5, 0), (9, 1)]))):
        for sched in schedules:
            traj = simulate_closed_loop(track, gains, sched)
            want = closed_loop_per_step(track, gains, sched)
            for field, b in zip(fields(traj)[1:], want):   # after ts
                a = getattr(traj, field.name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                    field.name)


def test_simulator_tells_burst_cycles_apart(lap20, gains):
    # the held loop on the 20 s circle at 1 ms survives a burst cycle of up
    # to 113 losses, rho(A_L^n A_D) < 1: at 100 it keeps the loss-free
    # standing error of 3.92e-3 m, at 120 it diverges within the lap
    calm, wild = (
        np.max(simulate_closed_loop(lap20, gains, _burst_cycle(
            lap20.n_steps, n)).position_error()) for n in (100, 120))
    assert calm < 4e-3
    assert wild > 1.0


def test_delay_oracle_matches_simulator(tiny_track, gains):
    # the tests' constant-delay oracle is the package's loop at lag 0, bit
    # for bit, across the lap seam and on a track whose speed varies
    ellipse = build_reference_track(
        TrackSpec(shape="ellipse", semi_axis_b=200.0), 20.0, 4e-3)
    for track, steps in ((tiny_track, 5 * tiny_track.n_steps // 2),
                         (ellipse, 2 * ellipse.n_steps)):
        want = simulate_closed_loop(track, gains, np.zeros(steps, dtype=bool))
        got = delayed_position_error(track, gains, 0, steps)
        assert got.tobytes() == want.position_error().tobytes()


def test_delay_oracle_waits_for_first_command(tiny_track, gains):
    # at lag n no command arrives before step n, so the vehicle waits at the
    # start pose until then and moves after
    n = 7
    err = delayed_position_error(tiny_track, gains, n, 60)
    start = (tiny_track.xs[0], tiny_track.ys[0], tiny_track.thetas[0])
    x_e, y_e, _ = np.array([tracking_error(tiny_track.xs[k], tiny_track.ys[k],
                                           tiny_track.thetas[k], *start)
                            for k in range(n + 2)]).T
    offset = np.hypot(x_e, y_e)
    assert err[:n + 1].tobytes() == offset[:n + 1].tobytes()
    assert err[n + 1] != offset[n + 1]


def test_simulation_wraps_laps(tiny_track, gains):
    # the 10 m/2 s toy circle has a coarse-Euler standing error ~2e-2 m;
    # the point here is continuity across the lap seam, not tightness
    steps = 3 * tiny_track.n_steps
    traj = simulate_closed_loop(tiny_track, gains, np.zeros(steps, dtype=bool))
    err = traj.position_error()
    assert np.max(err[200:]) < 5e-2
    # heading keeps accumulating across laps rather than jumping
    dtheta = np.abs(np.diff(traj.theta_c))
    assert np.max(dtheta) < 0.1


def test_trajectory_csv_schema_and_determinism(tmp_path, tiny_track, gains):
    sched = np.zeros(50, dtype=bool)
    sched[7:9] = True
    traj = simulate_closed_loop(tiny_track, gains, sched)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(traj, tiny_track, p1)
    write_trajectory_csv(traj, tiny_track, p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == ("k,t,x_r,y_r,theta_r,x_c,y_c,theta_c,"
                        "x_e,y_e,theta_e,nu_applied,omega_applied,outage_flag")
    assert len(lines) == 51
    assert lines[8].endswith(",1")    # outage flag serialized as 0/1
    assert lines[1].split(",")[1] == "0.0"


def _per_row_trajectory_csv(traj, track, fh):
    """Reference: the row-at-a-time writer, one csv.writer row per step."""
    n_steps = track.n_steps
    lap_turn = 2.0 * math.pi
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TRAJECTORY_COLUMNS)
    for k in range(len(traj)):
        r = k % n_steps
        lap = k // n_steps
        writer.writerow([
            k, repr(k * traj.ts),
            repr(float(track.xs[r])), repr(float(track.ys[r])),
            repr(float(track.thetas[r] + lap * lap_turn)),
            repr(float(traj.x_c[k])), repr(float(traj.y_c[k])),
            repr(float(traj.theta_c[k])),
            repr(float(traj.x_e[k])), repr(float(traj.y_e[k])),
            repr(float(traj.theta_e[k])),
            repr(float(traj.nu_applied[k])), repr(float(traj.omega_applied[k])),
            int(traj.outage[k]),
        ])


def lossy(steps):
    sched = np.zeros(steps, dtype=bool)
    sched[5::97] = True
    sched[300:340] = True
    return sched


def assert_same_csv(got: str, want: str, rows: int) -> None:
    # name the first differing line; pytest's diff of a whole run is slow
    first_bad = next((i for i, (a, b) in enumerate(
        zip(got.split("\n"), want.split("\n"))) if a != b), None)
    assert got == want, (rows, first_bad)
    assert got.count("\n") == rows + 1


def test_trajectory_csv_matches_per_row_repr(tiny_track, gains):
    circle = build_reference_track(TrackSpec(semi_axis_a=10.0), 4.0, 5e-3)
    ellipse = build_reference_track(TrackSpec(shape="ellipse",
                                              semi_axis_a=350.0,
                                              semi_axis_b=200.0), 20.0, 1e-2)
    # block edges at 1024 rows, 2.5 laps of a fast circle and of an ellipse
    cases = [(simulate_closed_loop(tiny_track, gains, lossy(n)), tiny_track)
             for n in (1, 1023, 1024, 1025, 2 * 1024 + 3)]
    cases += [(simulate_closed_loop(tr, gains, lossy(5 * tr.n_steps // 2)), tr)
              for tr in (circle, ellipse)]
    # values whose shortest repr differs from a fixed-precision format
    special = np.array([-0.0, 1e-05, 1.5e-07, 1e16, 1.2345678901234568e17,
                        5e-324, math.nan, math.inf, -math.inf])
    steps = 1030
    cols = [np.roll(np.resize(special, steps), j) for j in range(8)]
    cases.append((Trajectory(1e-3, *cols, outage=np.arange(steps) % 3 == 1),
                  tiny_track))

    for traj, track in cases:
        got, want = io.StringIO(), io.StringIO()
        write_trajectory_csv(traj, track, got)
        _per_row_trajectory_csv(traj, track, want)
        assert_same_csv(got.getvalue(), want.getvalue(), len(traj))


@pytest.fixture
def split_run(tiny_track, gains, forks):
    """A lossy 6.25-lap run that three processes write, and a list that
    records each fork. 25 001 rows is a multiple of neither 1024 nor 3."""
    traj = simulate_closed_loop(tiny_track, gains, lossy(25_001))
    return traj, forks


@needs_fork
def test_trajectory_csv_split_matches_per_row_repr(tmp_path, tiny_track,
                                                   split_run):
    traj, forks = split_run
    want = io.StringIO()
    _per_row_trajectory_csv(traj, tiny_track, want)
    want = want.getvalue()
    path = tmp_path / "run.csv"
    write_trajectory_csv(traj, tiny_track, path)
    assert len(forks) == 2
    assert_same_csv(path.read_bytes().decode(), want, len(traj))
    got = io.StringIO()
    write_trajectory_csv(traj, tiny_track, got)
    assert len(forks) == 4
    assert_same_csv(got.getvalue(), want, len(traj))


@needs_fork
@pytest.mark.parametrize("failing", ["child", "parent"])
def test_trajectory_csv_split_failure_raises_and_reaps(tiny_track, split_run,
                                                       monkeypatch, capfd,
                                                       failing):
    traj, forks = split_run
    real_write_rows = control._write_rows

    def write_rows(fh, traj, track, lo, hi):
        if (lo > 0) == (failing == "child"):
            raise ValueError("injected")
        real_write_rows(fh, traj, track, lo, hi)

    monkeypatch.setattr(control, "_write_rows", write_rows)
    expected = ((RuntimeError, "exited with status 1") if failing == "child"
                else (ValueError, "injected"))
    with pytest.raises(expected[0], match=expected[1]):
        write_trajectory_csv(traj, tiny_track, io.StringIO())
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):    # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    # a failing child reports its own traceback on standard error
    assert ("ValueError: injected" in capfd.readouterr().err) == (
        failing == "child")
