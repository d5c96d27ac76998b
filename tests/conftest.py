"""Shared fixtures and reporting helpers for the test suite."""

import math
import os
from collections import deque
from pathlib import Path

import mpmath
import numpy as np
import pytest

import agvlink
from agvlink import (
    Gains,
    TrackSpec,
    build_reference_track,
    control_law,
    plant_step,
    tracking_error,
)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the platform cannot fork")


def package_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(agvlink.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


@pytest.fixture
def forks(monkeypatch):
    """Three usable CPUs, and a list that records each fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.fixture(scope="session")
def gains():
    return Gains()


@pytest.fixture(scope="session")
def small_track():
    """Default geometry at nominal speed, coarser slots (100k steps).

    5 ms slots keep the forward-Euler standing error ~2e-4 m, comfortably
    inside the 1e-3 m tracking bound the tight-tracking tests assert.
    """
    return build_reference_track(TrackSpec(), trace_time=500.0, ts=5e-3)


@pytest.fixture(scope="session")
def tiny_track():
    """Small, moderately-paced track for API-contract tests (4000 steps)."""
    return build_reference_track(TrackSpec(semi_axis_a=10.0), trace_time=20.0,
                                 ts=5e-3)


def report_criterion(number: int, label: str, ok: bool, detail: str) -> None:
    """One pass/fail line per acceptance criterion, then the assertion."""
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance criterion {number:02d}] {label}: {status} ({detail})")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def within_pct(value: float, anchor: float, pct: float) -> bool:
    return abs(value - anchor) <= pct * abs(anchor)


def wrap_to_pi(angle: float) -> float:
    return math.remainder(angle, 2.0 * math.pi)


def _marcum_q1_mp(a, b):
    """Q1(a, b) by 30-digit mpmath quadrature of its density
    x exp(-(x^2 + a^2)/2) I0(a x), which is below exp(-800) beyond a +- 40."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def density(x):
            return x * mpmath.exp(-(x * x + a * a) / 2) * mpmath.besseli(0, a * x)

        if b >= a:
            return mpmath.quad(density, [b, b + 40])
        lo = max(a - 40, 0)
        return 1 - mpmath.quad(density, [lo, b]) if b > lo else mpmath.mpf(1)


def one_minus_pbb_mp(gamma_th: float, rho: float) -> float:
    """1 - p_bb = [Q1(phi, rho phi) - Q1(rho phi, phi)] / (e^gamma_th - 1),
    phi = sqrt(2 gamma_th / (1 - rho^2)), all in 30-digit arithmetic."""
    with mpmath.workdps(30):
        r = mpmath.mpf(abs(rho))
        phi = mpmath.sqrt(2 * mpmath.mpf(gamma_th) / (1 - r * r))
        numerator = _marcum_q1_mp(phi, r * phi) - _marcum_q1_mp(r * phi, phi)
        return float(numerator / mpmath.expm1(gamma_th))


def reference_per_step(track, steps):
    """Yield (x_r, y_r, theta_r, nu_r, omega_r) for steps 0..steps-1, one
    `.item` lookup each: step k reads sample k mod n_steps of the lap views,
    with the heading continued by k // n_steps turns of exactly 2 pi."""
    xs, ys, thetas = track.xs.item, track.ys.item, track.thetas.item
    nus, omegas = track.nus.item, track.omegas.item
    n_steps, lap_turn = track.n_steps, 2.0 * math.pi
    for k in range(steps):
        r = k % n_steps
        yield (xs(r), ys(r), thetas(r) + k // n_steps * lap_turn,
               nus(r), omegas(r))


def closed_loop_per_step(track, gains, schedule):
    """The lossy closed loop one step at a time: the kernel functions on the
    reference of `reference_per_step`, the hold register, and one store per
    value. Returns the nine `Trajectory` arrays in field order (x_c, y_c,
    theta_c, x_e, y_e, theta_e, nu_applied, omega_applied, outage)."""
    lost = np.array(schedule, dtype=bool)
    lost[0] = False
    columns = np.empty((8, len(lost)))
    x, y, th = track.xs.item(0), track.ys.item(0), track.thetas.item(0)
    for k, (x_r, y_r, th_r, nu_r, om_r) in enumerate(
            reference_per_step(track, len(lost))):
        xe, ye, the = tracking_error(x_r, y_r, th_r, x, y, th)
        if not lost[k]:
            hold = control_law(xe, ye, the, nu_r, om_r, gains)
        columns[:, k] = x, y, th, xe, ye, the, *hold
        x, y, th = plant_step(x, y, th, *hold, track.ts)
    return (*columns, lost)


def delayed_position_error(track, gains, n, steps):
    """Per-step position error of a loss-free run of `steps` steps in which
    every command reaches the vehicle n samples after it was computed: the
    command applied at step k was computed from the pose at step k - n. No
    command has arrived during the first n steps, so the vehicle waits at the
    start with a zero command. It steps with the simulator's kernel functions
    on the reference of `reference_per_step`."""
    x, y, th = track.xs.item(0), track.ys.item(0), track.thetas.item(0)
    in_flight = deque([(0.0, 0.0)] * n)
    x_e, y_e = np.empty(steps), np.empty(steps)
    for k, (x_r, y_r, th_r, nu_r, om_r) in enumerate(
            reference_per_step(track, steps)):
        xe, ye, the = tracking_error(x_r, y_r, th_r, x, y, th)
        x_e[k], y_e[k] = xe, ye
        in_flight.append(control_law(xe, ye, the, nu_r, om_r, gains))
        x, y, th = plant_step(x, y, th, *in_flight.popleft(), track.ts)
    return np.hypot(x_e, y_e)


def settles_under_delay(track, gains, n):
    """Nonlinear check of lag n: does the loop settle with commands n samples
    old?

    The vehicle waits for its first command, which kicks it about nu * n * ts
    behind the reference. The position error is then compared over two
    windows of W = 4(n + 1) samples plus one slow-mode time constant
    2/(k_theta nu_max): the first after the kick and the last of a run six
    windows long. Stable means the error stays finite and below a fifth of
    the larger semi-axis, and swings less (max - min) over the last window
    than over the first: a stable loop settles onto its constant standing
    error, an unstable one swings ever wider.

    The run lasts only about 0.13 of a lap on the fast tracks checked, too
    short for a slow divergence to show. On the 350 m circle traced in 20 s
    at 4 ms (n_max = 17) it calls lags up to 20 stable, where the root count
    (exact on a circle) does not. On the 350 x 200 m ellipse at the same T
    and ts it calls lag 18 stable, as an 8-lap run confirms, where the
    frozen-time test is conservative; but it calls every lag up to 29
    stable, and 8-lap runs diverge from lag 23 on.
    """
    diverged = 0.2 * max(track.spec.semi_axis_a, track.spec.axis_b)
    tau = 2.0 / (gains.k_theta * track.max_speed)
    window = 4 * (n + 1) + int(math.ceil(tau / track.ts))
    err = delayed_position_error(track, gains, n, n + 6 * window)
    if not np.all(np.isfinite(err)) or float(np.max(err)) >= diverged:
        return False
    return float(np.ptp(err[-window:])) < float(np.ptp(err[n:n + window]))


def _error_step(e_cur, e_stale, ref, ref_next, nu, omega, ts, g):
    """One nonlinear step in error coordinates: the vehicle sits at error
    e_cur from the reference pose ref = (x, y, theta) and applies the command
    computed from the stale error e_stale; the next error is taken against
    ref_next. It runs the simulator's own kernel functions."""
    th_c = ref[2] - e_cur[2]
    c, s = math.cos(th_c), math.sin(th_c)
    veh = (ref[0] - (c * e_cur[0] - s * e_cur[1]),
           ref[1] - (s * e_cur[0] + c * e_cur[1]), th_c)
    u = control_law(*e_stale, nu, omega, g)
    return np.array(tracking_error(*ref_next, *plant_step(*veh, *u, ts)))


def jacobian_fd_pairs(rng, samples, g, h=1e-7):
    """Yield, per random point, (matrix, central finite difference) for
    M0 + U V, M0 and U V: the current and the stale error perturbed together,
    the current error alone and the stale error alone. The reference moves
    under its nominal command, so zero error is an exact trajectory."""
    from agvlink.stability import _error_frame_loop
    zero = np.zeros(3)
    for _ in range(samples):
        theta = rng.uniform(-math.pi, math.pi)
        nu = rng.uniform(0.1, 5.0)
        om = rng.uniform(-1.0, 1.0)
        ts = rng.uniform(1e-4, 1e-2)
        ref = (0.37, -0.81, theta)
        ref_next = plant_step(*ref, nu, om, ts)
        args = (ref, ref_next, nu, om, ts, g)
        m0, u, v = _error_frame_loop(nu, ref_next[2] - ref[2], ts, g)
        fds = np.zeros((3, 3, 3))
        for j in range(3):
            d = np.zeros(3)
            d[j] = h
            for i, (d_cur, d_stale) in enumerate(((d, d), (d, zero), (zero, d))):
                fds[i][:, j] = (_error_step(d_cur, d_stale, *args)
                                - _error_step(-d_cur, -d_stale, *args)) / (2.0 * h)
        yield ((m0 + u @ v, fds[0]), (m0, fds[1]), (u @ v, fds[2]))
