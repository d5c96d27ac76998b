"""Unit tests for the linearization, the delayed-loop root count, and the
tolerance search."""

import math

import numpy as np
import pytest

from agvlink import (
    Gains,
    NumericConsistencyError,
    ParameterError,
    TrackSpec,
    build_reference_track,
    evaluate_candidate,
    outage_tolerance,
    simulate_closed_loop,
    simulate_delay_stability,
    write_stability_csv,
)
from agvlink.stability import _error_frame_loop, _OperatingPoint

from conftest import jacobian_fd_pairs


# --- error-frame matrices -----------------------------------------------------

def _lag0_matrix(nu, delta, ts, g):
    """M0 + U V: the loop closed through the current error."""
    m0, u, v = _error_frame_loop(nu, delta, ts, g)
    return m0 + u @ v


def test_lag0_matrix_printed_example():
    a = _lag0_matrix(4.4, 0.0, 1e-3, Gains())
    expected = np.array([[0.99, 0.0, 0.0],
                         [0.0, 1.0, 0.0044],
                         [0.0, -2.816e-5, 0.999296]])
    assert np.allclose(a, expected, rtol=0.0, atol=1e-12)


def test_lag0_matrix_identity_limit():
    a = _lag0_matrix(4.4, 0.3e-12, 1e-12, Gains())
    assert np.allclose(a, np.eye(3), atol=1e-10)


def test_error_frame_loop_matches_finite_differences():
    # M0 + U V, M0 and U V, each against its own perturbation
    worst = 0.0
    for pairs in jacobian_fd_pairs(np.random.default_rng(7), 100, Gains()):
        worst = max(worst, max(float(np.max(np.abs(fd - a))) for a, fd in pairs))
    assert worst < 1e-6


def _companion(point, n):
    """Reference: state matrix over (error, the last n command deviations),
    whose eigenvalues are the roots of det(z^(n+1) I - z^n M0 - Mn)."""
    if n == 0:
        return point.m0 + point.u @ point.v
    dim = 3 + 2 * n
    out = np.zeros((dim, dim))
    out[:3, :3] = point.m0
    out[:3, -2:] = point.u
    out[3:5, :3] = point.v
    rows = np.arange(5, dim)
    out[rows, rows - 2] = 1.0
    return out


ROOT_CASES = [(TrackSpec(), 20.0, 1e-3), (TrackSpec(), 500.0, 4e-3),
              (TrackSpec(), 2.0, 1e-3),
              (TrackSpec(shape="ellipse", semi_axis_b=50.0), 20.0, 4e-3)]


def test_operating_point_is_error_frame_jacobian(gains):
    # lag 0 closes the loop through M0 + U V
    from agvlink.stability import _operating_points
    track = build_reference_track(TrackSpec(), 20.0, 1e-3)
    point, = _operating_points(track, gains)
    lag0 = _lag0_matrix(track.nus[0], track.thetas[1] - track.thetas[0],
                        track.ts, gains)
    assert math.isclose(point.spectral_radius(0, 1.0),
                        float(np.max(np.abs(np.linalg.eigvals(lag0)))),
                        rel_tol=1e-9)


def test_root_count_matches_eigenvalues(gains):
    # the argument-principle count that decides stability, against the
    # companion eigenvalues, on both sides of each boundary and under a margin
    from agvlink.stability import _operating_points
    for spec, trace_time, ts in ROOT_CASES:
        track = build_reference_track(spec, trace_time, ts)
        for point in _operating_points(track, gains):
            for n in (0, 1, 2, 3, 5, 8, 13, 17, 21, 36, 37, 38, 39, 73, 74, 90):
                roots = np.abs(np.linalg.eigvals(_companion(point, n)))
                for radius in (1.0, 1.0 - 1e-3):
                    assert point.roots_outside(n, radius) == \
                        int(np.sum(roots >= radius)), (spec, point.step, n, radius)


def test_spectral_radius_matches_eigenvalues(gains):
    from agvlink.stability import _operating_points
    for spec, trace_time, ts in ROOT_CASES:
        track = build_reference_track(spec, trace_time, ts)
        for point in _operating_points(track, gains):
            for n in (0, 6, 37, 38, 73, 74):
                ref = float(np.max(np.abs(np.linalg.eigvals(_companion(point, n)))))
                for limit in (1.0, 1.0 - 1e-3):
                    assert abs(point.spectral_radius(n, limit) - ref) < 1e-10, \
                        (spec, point.step, n, limit)


# --- tolerance search ------------------------------------------------------------

@pytest.fixture(scope="module")
def search_track():
    # 2 s lap at 1 ms: the boundary is interior (n_max = 6 of 2000
    # candidates), and at 1100 m/s the lag-0 loop is already slow to settle
    return build_reference_track(TrackSpec(), 2.0, 1e-3)


def test_outage_tolerance_boundary_consistency(search_track, gains):
    report = outage_tolerance(search_track, gains)
    assert report.n_max > 0 and not report.capped
    at = evaluate_candidate(search_track, gains, report.n_max)
    above = evaluate_candidate(search_track, gains, report.n_max + 1)
    assert at.stable and not above.stable
    assert at.worst_spectral_radius < 1.0 <= above.worst_spectral_radius


def test_outage_tolerance_radii_cover_scan_range(search_track, gains):
    # the recorded scans cover lag 0 up to the first unstable lag
    report = outage_tolerance(search_track, gains)
    assert [s.n for s in report.history] == [0, report.n_max, report.n_max + 1]
    assert [s.stable for s in report.history] == [True, True, False]
    assert max(s.worst_spectral_radius for s in report.history[:2]) < 1.0
    assert report.first_violation_step is None
    assert report.margin == 0.0
    assert report.ts == search_track.ts


def test_outage_tolerance_decides_by_counts_alone(monkeypatch, search_track,
                                                  gains):
    # the search brackets no spectral radius, and its root counts stay
    # within lag 0 plus the ramp and the bisection at each operating point
    def no_radius(self, n, limit):
        raise AssertionError(f"spectral radius of lag {n} computed")

    counts = []
    count = _OperatingPoint.roots_outside

    def counted(self, n, radius):
        counts.append(n)
        return count(self, n, radius)

    circle = build_reference_track(TrackSpec(), 500.0, 1e-3)
    ellipse = build_reference_track(
        TrackSpec(shape="ellipse", semi_axis_b=200.0), 100.0, 1e-3)
    monkeypatch.setattr(_OperatingPoint, "spectral_radius", no_radius)
    monkeypatch.setattr(_OperatingPoint, "roots_outside", counted)
    for track, margin in ((circle, 0.0), (circle, 1e-3), (ellipse, 0.0),
                          (search_track, 2e-2)):
        counts.clear()
        report = outage_tolerance(track, gains, margin)
        bound = 2 * math.ceil(math.log2(report.n_max + 2)) + 3
        assert 0 < len(counts) <= bound * len(report.points), (track, margin)


def test_outage_tolerance_monotone_in_margin(search_track, gains):
    loose = outage_tolerance(search_track, gains, margin=0.0)
    tight = outage_tolerance(search_track, gains, margin=1e-4)
    assert tight.n_max <= loose.n_max


def test_outage_tolerance_zero_when_margin_kills_slow_mode(search_track, gains):
    # this track's no-loss spectral radius is ~0.98974; a margin beyond
    # 1 - 0.98974 classifies even n = 0 as failing
    report = outage_tolerance(search_track, gains, margin=2e-2)
    assert report.n_max == 0
    assert report.first_violation_step is not None


def test_outage_tolerance_cap_flag(gains):
    # a single-step track has no candidate beyond n = 0, so the search caps
    # without being able to verify the failure side
    track = build_reference_track(TrackSpec(semi_axis_a=1e-3), 1e-3, 1e-3)
    assert track.n_steps == 1
    report = outage_tolerance(track, gains)
    assert report.capped
    assert report.n_max == 0
    assert report.first_violation_step is None


def test_outage_tolerance_scales_inversely_with_ts(gains):
    n1 = outage_tolerance(build_reference_track(TrackSpec(), 2.0, 1e-3),
                          gains).n_max
    n2 = outage_tolerance(build_reference_track(TrackSpec(), 2.0, 2e-3),
                          gains).n_max
    assert n2 < n1
    assert abs(n1 - 2 * n2) <= max(2, 0.01 * n1)


def test_evaluate_candidate_validates_range(search_track, gains):
    with pytest.raises(ParameterError):
        evaluate_candidate(search_track, gains, -1)
    with pytest.raises(ParameterError):
        evaluate_candidate(search_track, gains, search_track.n_steps)


def test_delay_oracle_brackets_boundary(gains):
    track = build_reference_track(TrackSpec(), 20.0, 1e-2)   # n_max = 6
    n_max = outage_tolerance(track, gains).n_max
    assert simulate_delay_stability(track, gains, 0)
    assert simulate_delay_stability(track, gains, n_max // 2)
    assert not simulate_delay_stability(track, gains, 2 * n_max)
    with pytest.raises(ParameterError):
        simulate_delay_stability(track, gains, -1)


def test_ellipse_delay_oracle_brackets_boundary(gains):
    # the frozen-time test on a 350 x 200 m ellipse (n_max = 38) against
    # nonlinear runs with a constant delay on both sides of the boundary
    track = build_reference_track(
        TrackSpec(shape="ellipse", semi_axis_b=200.0), 100.0, 4e-3)
    n_max = outage_tolerance(track, gains).n_max
    assert n_max > 0
    assert evaluate_candidate(track, gains, n_max).stable
    assert simulate_delay_stability(track, gains, n_max)
    assert not evaluate_candidate(track, gains, n_max + 1).stable
    assert not simulate_delay_stability(track, gains, n_max + 1)


@pytest.mark.xfail(strict=True, reason=(
    "the constant-delay run starts at the track's start and ends before it "
    "has spent a window on the fastest stretch"))
def test_delay_oracle_rejects_fast_ellipse_lag(gains):
    # on a short, fast ellipse (n_max = 17) the frozen-time test finds lag 18
    # unstable at the fastest speed; the nonlinear oracle still settles
    track = build_reference_track(
        TrackSpec(shape="ellipse", semi_axis_b=200.0), 20.0, 4e-3)
    n_max = outage_tolerance(track, gains).n_max
    assert n_max == 17
    assert not evaluate_candidate(track, gains, n_max + 1).stable
    assert not simulate_delay_stability(track, gains, n_max + 1)


@pytest.mark.parametrize("margin", [0.0, 1.5e-2])
def test_ellipse_samples_agree_with_dense_lap(gains, margin):
    # the test samples FROZEN_POINTS speeds of the lap; on this fast ellipse
    # the lag each step tolerates alone falls from 31 (slowest) to 17
    # (fastest), and the slowest binds first under a margin (n_max = 9)
    from agvlink.stability import _operating_point
    track = build_reference_track(
        TrackSpec(shape="ellipse", semi_axis_b=200.0), 20.0, 4e-3)
    n_max = outage_tolerance(track, gains, margin).n_max
    assert n_max > 0
    limit = 1.0 - margin
    lap = [_operating_point(track, gains, k) for k in range(0, track.n_steps, 25)]
    assert all(p.roots_outside(n_max, limit) == 0 for p in lap)
    assert any(p.roots_outside(n_max + 1, limit) > 0 for p in lap)


def _burst_error(track, gains, start, length):
    """Position error of a run of one lap with `length` losses from `start`."""
    schedule = np.zeros(track.n_steps, dtype=bool)
    schedule[start:start + length] = True
    return simulate_closed_loop(track, gains, schedule).position_error()


def test_forced_burst_under_zero_order_hold(gains):
    # n_max models a persistent delay, not a burst: on a circle the held
    # command is the nominal one, so a settled vehicle rides out a burst far
    # beyond n_max almost untouched
    circle = build_reference_track(TrackSpec(), 20.0, 1e-2)   # 2000 steps
    assert outage_tolerance(circle, gains).n_max == 6
    clean = _burst_error(circle, gains, 0, 0)
    assert np.max(np.abs(_burst_error(circle, gains, 500, 200) - clean)) < 1e-11
    # on the fast 350 x 200 m ellipse the curvature changes under the held
    # command: 800 losses (3.2 s) carry the vehicle past the divergence
    # limit of the delay oracle, a fifth of the larger semi-axis
    ellipse = build_reference_track(
        TrackSpec(shape="ellipse", semi_axis_b=200.0), 20.0, 4e-3)
    assert np.max(_burst_error(ellipse, gains, 0, 0)) < 0.05
    assert np.max(_burst_error(ellipse, gains, 500, 800)) > 0.2 * 350.0


def test_stability_csv(tmp_path, search_track, gains):
    report = outage_tolerance(search_track, gains)
    out = tmp_path / "report.csv"
    write_stability_csv(report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "n_candidate,stable_flag,worst_spectral_radius,argmax_k"
    assert len(lines) == len(report.history) + 1
    stable_flags = {int(row.split(",")[1]) for row in lines[1:]}
    assert stable_flags <= {0, 1}


def test_stability_csv_rows_match_evaluate_candidate(tmp_path, search_track,
                                                     gains):
    # the radii the report brackets on demand are those of an eager scan
    ellipse = build_reference_track(
        TrackSpec(shape="ellipse", semi_axis_b=200.0), 20.0, 4e-3)
    out = tmp_path / "report.csv"
    for track in (search_track, ellipse):
        write_stability_csv(outage_tolerance(track, gains), out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        scans = [evaluate_candidate(track, gains, int(row[0])) for row in rows]
        assert rows == [[str(s.n), str(int(s.stable)),
                         repr(s.worst_spectral_radius), str(s.argmax_k)]
                        for s in scans]
    assert [s.n for s in scans] == [0, 17, 18]
    assert [s.argmax_k for s in scans] == [0, 1250, 1250]
