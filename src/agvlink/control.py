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
plain floats. The closed-loop simulator writes the same expressions out in
its loop, in the same order, so every value it records equals the
functions' bit for bit; a step then makes no function calls and takes one
cos and sin of the heading instead of two of each. Commands
travel over a lossy downlink: on a lost packet the vehicle keeps applying the
last delivered command (zero-order hold). The uplink is ideal, so the error
is always measured from the fresh state.
The reference track is a formula, not a stored lap: each reader evaluates
`ReferenceTrack.at` at the steps it reads, so no memory grows with the lap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._io import csv_sink, write_shares
from .exceptions import ParameterError

__all__ = [
    "Gains", "TrackSpec", "ReferenceTrack", "Trajectory",
    "build_reference_track", "tracking_error", "control_law", "plant_step",
    "simulate_closed_loop", "wrap_angle", "write_trajectory_csv",
]

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
    A lap starts at (-semi_axis_a, 0) and runs counter-clockwise.
    """

    shape: str = "circle"
    semi_axis_a: float = 350.0
    semi_axis_b: float | None = None

    def __post_init__(self) -> None:
        if self.shape not in ("circle", "ellipse"):
            raise ParameterError(f"unknown track shape {self.shape!r}")
        if self.shape == "circle" and self.semi_axis_b is not None:
            raise ParameterError("a circle's radius is semi_axis_a; "
                                 "semi_axis_b is for an ellipse only")
        if self.semi_axis_a <= 0.0 or self.axis_b <= 0.0:
            raise ParameterError("track semi-axes must be strictly positive")

    @property
    def axis_b(self) -> float:
        return self.semi_axis_b if self.semi_axis_b is not None else self.semi_axis_a


@dataclass(frozen=True)
class ReferenceTrack:
    """A closed reference path sampled at period ts, n_steps steps a lap.

    The lap views `xs`, `ys`, `thetas`, `nus` and `omegas` hold `at`'s
    n_steps + 1 samples of one lap, computed on first read.
    """

    spec: TrackSpec
    ts: float
    n_steps: int

    @property
    def max_speed(self) -> float:
        """The path's top speed, max(a, b) times the parameter rate."""
        return max(self.spec.semi_axis_a, self.spec.axis_b) * (
            TWO_PI / (self.n_steps * self.ts))

    def at(self, k) -> tuple[np.ndarray, ...]:
        """(x_r, y_r, theta_r, nu_r, omega_r) at integer steps k.

        Step k is step k mod n_steps of the lap, its heading one turn on per
        lap. Velocities are the analytic derivatives of the parametrization;
        the heading, their direction, is the circle's tangent angle (phi -
        3 pi/2, so a lap starts at -pi/2) plus the ellipse's angle from it,
        which lies in (-pi/2, pi/2), so it needs no unwrapping.
        """
        lap, r = np.divmod(k, self.n_steps)
        a, b = self.spec.semi_axis_a, self.spec.axis_b
        # a numpy float, so that a cube too large for a float is inf
        phi_dot = np.float64(TWO_PI / (self.n_steps * self.ts))
        phi = math.pi + TWO_PI * r / self.n_steps
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
        nus = np.hypot(-a * sin_phi * phi_dot, b * cos_phi * phi_dot)
        # curvature rate omega = (x' y'' - y' x'') / nu^2 with the second
        # derivatives of the constant-rate parametrization
        omegas = (a * b * phi_dot**3) / (nus * nus)
        thetas = (phi - 1.5 * math.pi
                  + np.arctan2((a - b) * sin_phi * cos_phi,
                               a * sin_phi * sin_phi + b * cos_phi * cos_phi))
        return a * cos_phi, b * sin_phi, thetas + TWO_PI * lap, nus, omegas

    @cached_property
    def _lap(self) -> tuple[np.ndarray, ...]:
        return self.at(np.arange(self.n_steps + 1))

    xs, ys, thetas, nus, omegas = (property(lambda self, i=i: self._lap[i])
                                   for i in range(5))


def build_reference_track(spec: TrackSpec, trace_time: float, ts: float) -> ReferenceTrack:
    """The closed track traced in `trace_time` seconds at period `ts`.

    The path parameter advances by exactly one turn over ceil(trace_time/ts)
    steps, so step n_steps closes onto step 0 (the heading one turn on).
    Nothing is sampled here but the slowest and the fastest step, whose
    speed and turn rate must be finite.
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
    if n_steps > np.iinfo(np.intp).max:
        raise ParameterError(f"trace_time / ts = {trace_time!r} / {ts!r} "
                             f"needs {n_steps} steps, too many to sample")
    track = ReferenceTrack(spec=spec, ts=float(ts), n_steps=n_steps)
    # a semi-axis so small that nu * nu underflows gives 0 / 0 turn rates,
    # one so large that it overflows gives inf / inf, and a lap of few, very
    # short steps gives a turn rate too large for a float; speed and turn
    # rate are extreme at steps 0 and n_steps / 4
    with np.errstate(all="ignore"):
        finite = np.isfinite(track.at([0, n_steps // 4])[3:]).all()
    if not finite:
        raise ParameterError(f"track semi-axes {spec.semi_axis_a!r} and "
                             f"{spec.axis_b!r} m at trace_time / ts = "
                             f"{trace_time!r} / {ts!r} give a speed or turn "
                             "rate that is not finite")
    return track


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
    if ts <= 0.0:   # plant_step's refusal, made once
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


# Steps per block of the simulator: enough to amortise the numpy calls that
# read the track and store the outputs, few enough that the block's Python
# floats (eight lists of them) stay well under 1 MB however long the run is.
_SIM_BLOCK = 1 << 10


def simulate_closed_loop(track: ReferenceTrack, g: Gains,
                         outage_schedule) -> Trajectory:
    """Run the closed loop against `track`.

    outage_schedule[k] true means the downlink packet at step k is lost and
    the previous delivered command is held. The first command is always
    delivered (the hold register must be seeded), so schedule[0] is ignored.
    The run length equals len(outage_schedule); schedules longer than one lap
    wrap around the closed track with the heading continued across laps.

    Each step is `tracking_error`, `control_law` and `plant_step` on Python
    floats, written out in the loop, plus the hold register. It runs
    `_SIM_BLOCK` steps at a time: a block reads its stretch of the track
    from `track.at` as Python floats, keeps the per-step values in lists and
    stores them into the output arrays once at the block's end.
    """
    out_flag = np.array(outage_schedule, dtype=bool)   # a copy: step 0 is cleared
    steps = len(out_flag)
    if steps == 0:
        raise ParameterError("outage schedule must contain at least one step")
    out_flag[0] = False   # the first command seeds the hold register

    ts = track.ts
    if ts <= 0.0:   # plant_step's refusal, made once
        raise ParameterError("sampling period ts must be positive")
    k_x, k_y, k_theta = g.k_x, g.k_y, g.k_theta
    cos, sin = math.cos, math.sin
    outputs = [np.empty(steps) for _ in range(8)]
    x, y, th = (float(v) for v in track.at(0)[:3])

    for lo in range(0, steps, _SIM_BLOCK):
        hi = min(lo + _SIM_BLOCK, steps)
        values = [[] for _ in range(8)]
        (put_xc, put_yc, put_thc, put_xe, put_ye, put_the,
         put_nu, put_om) = [v.append for v in values]
        for x_r, y_r, th_r, nu_r, om_r, lost in zip(
                *(v.tolist() for v in track.at(np.arange(lo, hi))),
                out_flag[lo:hi].tolist()):
            c, s = cos(th), sin(th)   # tracking_error's and plant_step's
            dx, dy = x_r - x, y_r - y
            xe, ye, the = c * dx + s * dy, -s * dx + c * dy, th_r - th
            if not lost:   # control_law
                w = wrap_angle(the)
                nu = nu_r * cos(w) + k_x * xe
                om = om_r + nu_r * (k_y * ye + k_theta * sin(w))
            put_xc(x); put_yc(y); put_thc(th)
            put_xe(xe); put_ye(ye); put_the(the)
            put_nu(nu); put_om(om)
            x, y, th = x + ts * c * nu, y + ts * s * nu, th + ts * om
        for out, vals in zip(outputs, values):
            out[lo:hi] = vals

    return Trajectory(ts, *outputs, outage=out_flag)   # in field order


# Rows per formatted block: enough to amortise the numpy calls, few enough
# that the block's Python floats and strings stay small beside the run.
_CSV_BLOCK_ROWS = 1024
# Fewest rows worth a forked writer: formatting them takes about 0.1 s, a
# fork and copying the child's text back under 0.01 s (2-core x86-64 VM).
_MIN_SHARE_ROWS = 8 * _CSV_BLOCK_ROWS

TRAJECTORY_COLUMNS = ["k", "t", "x_r", "y_r", "theta_r", "x_c", "y_c", "theta_c",
                      "x_e", "y_e", "theta_e", "nu_applied", "omega_applied",
                      "outage_flag"]


def _write_rows(fh, traj: Trajectory, track: ReferenceTrack,
                lo: int, hi: int) -> None:
    """Write rows lo..hi-1 of the run to `fh`, _CSV_BLOCK_ROWS at a time."""
    states = [np.asarray(c, dtype=np.float64) for c in (
        traj.x_c, traj.y_c, traj.theta_c, traj.x_e, traj.y_e, traj.theta_e,
        traj.nu_applied, traj.omega_applied)]
    flags = np.asarray(traj.outage, dtype=bool).view(np.uint8)
    for start in range(lo, hi, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, hi)
        k = np.arange(start, stop)
        floats = [k * traj.ts, *track.at(k)[:3],
                  *(c[start:stop] for c in states)]
        columns = [map(str, k.tolist()),
                   *(map(repr, f.tolist()) for f in floats),
                   map(str, flags[start:stop].tolist())]
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def write_trajectory_csv(traj: Trajectory, track: ReferenceTrack, path) -> None:
    """Write a run to CSV (one row per step, header mandatory, SI units).

    The reference columns come from `track.at`, as the simulator's do.
    Each float is written as its shortest round-trip `repr` and each outage
    flag as 0 or 1. Rows are formatted in blocks of `_CSV_BLOCK_ROWS`, so
    memory does not grow with the length of the run. A run is worth one
    share per `_MIN_SHARE_ROWS` rows, and `_io.write_shares` caps the shares
    at one per usable CPU: this process writes the first, and a forked child
    formats each other share, which is appended in order, so the bytes do
    not depend on the split. A child only formats rows: it calls no BLAS. A
    child that fails makes this call raise.
    """
    with csv_sink(path) as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        write_shares(fh, len(traj), len(traj) // _MIN_SHARE_ROWS,
                     lambda out, lo, hi: _write_rows(out, traj, track, lo, hi),
                     "writing trajectory rows")
