"""Shared fixtures and reporting helpers for the test suite."""

import math

import mpmath
import numpy as np
import pytest

from agvlink import (
    Gains,
    Pose,
    TrackSpec,
    build_reference_track,
    control_law,
    plant_step,
    split_jacobians,
    tracking_error,
)


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


def _perturbed_step(d_cur, d_stale, th_k, th_kn, nu_r, om_r, ts, g):
    """One nonlinear step with the current and the stale pose perturbed apart."""
    xr_k = np.array([0.37, -0.81, th_k])
    xr_kn = np.array([-0.11, 0.52, th_kn])
    err = tracking_error(Pose(*xr_kn), Pose(*(xr_kn + d_stale)))
    u = control_law(err, nu_r, om_r, g)
    nxt = plant_step(Pose(*(xr_k + d_cur)), u, ts)
    return np.array([nxt.x, nxt.y, nxt.theta])


def jacobian_fd_pairs(rng, samples, g, h=1e-7):
    """Yield, per random point, (Jacobian, central finite difference) for the
    lag-0 Jacobian, A_cur and A_stale: both poses, the current pose alone and
    the stale pose alone perturbed."""
    zero = np.zeros(3)
    for _ in range(samples):
        th_k, th_kn = rng.uniform(-math.pi, math.pi, 2)
        nu = rng.uniform(0.1, 5.0)
        om = rng.uniform(-1.0, 1.0)
        ts = rng.uniform(1e-4, 1e-2)
        args = (th_k, th_kn, nu, om, ts, g)
        a_cur, a_stale = split_jacobians(th_k, th_kn, nu, ts, g)
        fds = np.zeros((3, 3, 3))
        for j in range(3):
            d = np.zeros(3)
            d[j] = h
            for i, (d_cur, d_stale) in enumerate(((d, d), (d, zero), (zero, d))):
                fds[i][:, j] = (_perturbed_step(d_cur, d_stale, *args)
                                - _perturbed_step(-d_cur, -d_stale, *args)) / (2.0 * h)
        yield ((a_cur + a_stale, fds[0]), (a_cur, fds[1]), (a_stale, fds[2]))
