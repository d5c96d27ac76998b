"""Kinematic unicycle tracking of a closed reference path.

The vehicle state is a planar pose (x, y, theta). A cloud controller measures
the tracking error in the vehicle frame,

    x_e =  cos(theta_c) dx + sin(theta_c) dy
    y_e = -sin(theta_c) dx + cos(theta_c) dy      (dx, dy = reference - actual)
    theta_e = theta_r - theta_c

and sends back the velocity command

    nu    = nu_r cos(theta_e) + k_x x_e
    omega = omega_r + nu_r (k_y y_e + k_theta sin(theta_e))

which the vehicle integrates with a forward-Euler step of period ts.
`tracking_error`, `control_law` and `plant_step` are these three equations on
plain floats, and the closed-loop simulator steps by calling them. Commands
travel over a lossy downlink: on a lost packet the vehicle keeps applying the
last delivered command (zero-order hold). The simulator can also deliver
every command a fixed number of samples late. The uplink is ideal, so the
error is always measured from the fresh state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import csv_sink
from .exceptions import ParameterError

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = angle - TWO_PI * math.floor((angle + math.pi) / TWO_PI)
    # floor rounding can land exactly on -pi; the convention here is (-pi, pi]
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class Gains:
    """Feedback gains; k_x in 1/s, k_y and k_theta in 1/m."""

    k_x: float = 10.0
    k_y: float = 6.4e-3
    k_theta: float = 0.16

    def __post_init__(self) -> None:
        if min(self.k_x, self.k_y, self.k_theta) <= 0.0:
            raise ParameterError("feedback gains must be strictly positive")


@dataclass(frozen=True)
class TrackSpec:
    """Parametric closed-track geometry.

    shape 'circle' uses semi_axis_a as the radius; 'ellipse' uses both
    semi-axes with a constant-rate parameter (speed varies along the path).
    """

    shape: str = "circle"
    semi_axis_a: float = 350.0
    semi_axis_b: float | None = None
    start_angle: float = math.pi
    direction: str = "ccw"

    def __post_init__(self) -> None:
        if self.shape not in ("circle", "ellipse"):
            raise ParameterError(f"unknown track shape {self.shape!r}")
        if self.direction not in ("ccw", "cw"):
            raise ParameterError(f"unknown track direction {self.direction!r}")
        b = self.semi_axis_b if self.semi_axis_b is not None else self.semi_axis_a
        if self.semi_axis_a <= 0.0 or b <= 0.0:
            raise ParameterError("track semi-axes must be strictly positive")

    @property
    def axis_b(self) -> float:
        return self.semi_axis_b if self.semi_axis_b is not None else self.semi_axis_a


@dataclass(frozen=True)
class ReferenceTrack:
    """Sampled closed reference path.

    Arrays hold n_steps + 1 samples (index n_steps closes the lap onto index 0;
    headings at the closure differ by one full turn because theta accumulates).
    """

    xs: np.ndarray
    ys: np.ndarray
    thetas: np.ndarray
    nus: np.ndarray
    omegas: np.ndarray
    ts: float
    trace_time: float
    spec: TrackSpec

    @property
    def n_steps(self) -> int:
        return len(self.xs) - 1

    @property
    def max_speed(self) -> float:
        return float(np.max(self.nus))

    def heading_per_lap(self) -> float:
        """Accumulated heading change over one closed lap (+-2*pi)."""
        return float(self.thetas[-1] - self.thetas[0])


def build_reference_track(spec: TrackSpec, trace_time: float, ts: float) -> ReferenceTrack:
    """Sample a closed track traced in `trace_time` seconds at period `ts`.

    The path parameter advances by exactly one turn over ceil(trace_time/ts)
    steps, so the final sample closes onto the first (positions exactly,
    heading up to one accumulated turn). Reference velocities come from the
    analytic derivatives of the parametrization.
    """
    if not 0.0 < ts < math.inf:
        raise ParameterError("sampling period ts must be positive and finite")
    if not ts <= trace_time < math.inf:
        raise ParameterError("trace_time must be finite and at least one "
                             "sampling period")
    steps = trace_time / ts
    if not math.isfinite(steps):
        raise ParameterError(f"trace_time / ts = {trace_time!r} / {ts!r} "
                             "is not a finite step count")
    n_steps = math.ceil(steps)
    sign = 1.0 if spec.direction == "ccw" else -1.0
    a, b = spec.semi_axis_a, spec.axis_b

    k = np.arange(n_steps + 1)
    phi = spec.start_angle + sign * TWO_PI * k / n_steps
    phi_dot = sign * TWO_PI / (n_steps * ts)

    xs = a * np.cos(phi)
    ys = b * np.sin(phi)
    x_dot = -a * np.sin(phi) * phi_dot
    y_dot = b * np.cos(phi) * phi_dot
    nus = np.hypot(x_dot, y_dot)
    # curvature rate omega = (x' y'' - y' x'') / nu^2 with the second
    # derivatives of the constant-rate parametrization
    omegas = (a * b * phi_dot**3) / (nus * nus)
    thetas = np.unwrap(np.arctan2(y_dot, x_dot))

    return ReferenceTrack(xs=xs, ys=ys, thetas=thetas, nus=nus, omegas=omegas,
                          ts=float(ts), trace_time=float(trace_time), spec=spec)


def tracking_error(x_r: float, y_r: float, theta_r: float,
                   x: float, y: float, theta: float) -> tuple[float, float, float]:
    """(x_e, y_e, theta_e): the reference pose minus the vehicle pose, rotated
    into the vehicle frame; theta_e is left unwrapped."""
    c, s = math.cos(theta), math.sin(theta)
    dx, dy = x_r - x, y_r - y
    return c * dx + s * dy, -s * dx + c * dy, theta_r - theta


def control_law(x_e: float, y_e: float, theta_e: float, nu_r: float,
                omega_r: float, g: Gains) -> tuple[float, float]:
    """Tracking feedback (nu, omega); reduces to (nu_r, omega_r) at zero error.

    theta_e is wrapped into (-pi, pi] first: the law is derived for small
    errors and accumulated headings would otherwise feed spurious full turns
    into the trig terms on long runs.
    """
    th = wrap_angle(theta_e)
    return (nu_r * math.cos(th) + g.k_x * x_e,
            omega_r + nu_r * (g.k_y * y_e + g.k_theta * math.sin(th)))


def plant_step(x: float, y: float, theta: float, nu: float, omega: float,
               ts: float) -> tuple[float, float, float]:
    """One forward-Euler step of the unicycle difference equation."""
    if ts <= 0.0:
        raise ParameterError("sampling period ts must be positive")
    return (x + ts * math.cos(theta) * nu,
            y + ts * math.sin(theta) * nu,
            theta + ts * omega)


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop run: per-step states, errors, applied commands, loss flags."""

    ts: float
    x_c: np.ndarray
    y_c: np.ndarray
    theta_c: np.ndarray
    x_e: np.ndarray
    y_e: np.ndarray
    theta_e: np.ndarray
    nu_applied: np.ndarray
    omega_applied: np.ndarray
    outage: np.ndarray

    def __len__(self) -> int:
        return len(self.x_c)

    def position_error(self) -> np.ndarray:
        """Per-step ||(x_e, y_e)||."""
        return np.hypot(self.x_e, self.y_e)


def simulate_closed_loop(track: ReferenceTrack, g: Gains,
                         outage_schedule, delay: int = 0) -> Trajectory:
    """Run the delayed closed loop against `track`.

    outage_schedule[k] true means the downlink packet at step k is lost and
    the previous delivered command is held. The first command is always
    delivered (the hold register must be seeded), so schedule[0] is ignored.
    The run length equals len(outage_schedule); schedules longer than one lap
    wrap around the closed track with the heading continued across laps.

    With delay = n > 0 every command reaches the vehicle n samples after it
    was computed: the command applied at step k was computed from the state
    at step k - n, and outage_schedule[k] refers to the packet arriving at
    step k (the first arrival, at step n, is always delivered). No command
    has arrived during the first n steps, so the vehicle waits at the start
    with zero velocity and the run begins about nu_r * n * ts behind the
    reference.

    Each step is `tracking_error`, `control_law` and `plant_step`; the loop
    adds only the hold register and the commands in flight.
    """
    schedule = np.asarray(outage_schedule, dtype=bool)
    steps = len(schedule)
    if steps == 0:
        raise ParameterError("outage schedule must contain at least one step")
    if delay < 0:
        raise ParameterError("command delay must be nonnegative")

    n_steps = track.n_steps
    ts = track.ts
    # .item returns Python floats: arithmetic on them is several times
    # cheaper than on numpy scalars and rounds identically
    xs, ys, thetas = track.xs.item, track.ys.item, track.thetas.item
    nus, omegas = track.nus.item, track.omegas.item
    lost = schedule.item
    lap_turn = track.heading_per_lap()

    out_xc = np.empty(steps); out_yc = np.empty(steps); out_thc = np.empty(steps)
    out_xe = np.empty(steps); out_ye = np.empty(steps); out_the = np.empty(steps)
    out_nu = np.empty(steps); out_om = np.empty(steps)
    out_flag = np.zeros(steps, dtype=bool)

    x = xs(0); y = ys(0); th = thetas(0)
    hold = (0.0, 0.0)
    # commands in flight: slot k % delay holds the one computed at step k - delay
    sent = [hold] * delay

    for k in range(steps):
        r = k % n_steps
        xe, ye, the = tracking_error(xs(r), ys(r),
                                     thetas(r) + k // n_steps * lap_turn,
                                     x, y, th)
        if delay or k == 0 or not lost(k):
            cmd = control_law(xe, ye, the, nus(r), omegas(r), g)
        if delay:   # send this step's command, take the one arriving now
            slot = k % delay
            cmd, sent[slot] = sent[slot], cmd
        if k == delay or (k > delay and not lost(k)):
            hold = cmd
        elif k > delay:
            out_flag[k] = True
        out_xc[k] = x; out_yc[k] = y; out_thc[k] = th
        out_xe[k] = xe; out_ye[k] = ye; out_the[k] = the
        out_nu[k], out_om[k] = hold
        x, y, th = plant_step(x, y, th, *hold, ts)

    return Trajectory(ts=ts, x_c=out_xc, y_c=out_yc, theta_c=out_thc,
                      x_e=out_xe, y_e=out_ye, theta_e=out_the,
                      nu_applied=out_nu, omega_applied=out_om, outage=out_flag)


# Rows per formatted block: enough to amortise the numpy calls, few enough
# that the block's Python floats and strings stay small beside the run.
_CSV_BLOCK_ROWS = 1024

TRAJECTORY_COLUMNS = ["k", "t", "x_r", "y_r", "theta_r", "x_c", "y_c", "theta_c",
                      "x_e", "y_e", "theta_e", "nu_applied", "omega_applied",
                      "outage_flag"]


def write_trajectory_csv(traj: Trajectory, track: ReferenceTrack, path) -> None:
    """Write a run to CSV (one row per step, header mandatory, SI units).

    Each float is written as its shortest round-trip `repr` and each outage
    flag as 0 or 1. Rows are formatted and written in blocks of
    `_CSV_BLOCK_ROWS`, so memory does not grow with the length of the run.
    """
    n_steps = track.n_steps
    lap_turn = track.heading_per_lap()
    states = [np.asarray(c, dtype=np.float64) for c in (
        traj.x_c, traj.y_c, traj.theta_c, traj.x_e, traj.y_e, traj.theta_e,
        traj.nu_applied, traj.omega_applied)]
    flags = np.asarray(traj.outage, dtype=bool).view(np.uint8)
    with csv_sink(path) as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for lo in range(0, len(traj), _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, len(traj))
            k = np.arange(lo, hi)
            r = k % n_steps
            floats = [k * traj.ts, track.xs[r], track.ys[r],
                      track.thetas[r] + k // n_steps * lap_turn,
                      *(c[lo:hi] for c in states)]
            columns = [map(str, k.tolist()),
                       *(map(repr, f.tolist()) for f in floats),
                       map(str, flags[lo:hi].tolist())]
            fh.writelines(",".join(row) + "\n" for row in zip(*columns))
