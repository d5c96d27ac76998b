"""Stability of the delayed tracking loop.

A command that reaches the vehicle n samples late closes the loop through the
pose n samples ago. Let x be the vehicle's pose minus the reference pose,
rotated into the reference's heading (to first order, minus the tracking
error (x_e, y_e, theta_e)), and let the reference move at speed nu while its
heading turns by delta per step. Linearized about the zero-error trajectory,
one step is

    x[k+1] = M0 x[k] + U c[k-n],      c[k-n] = V x[k-n],

where c is the command's deviation (nu, omega) computed n samples ago and,
with P(a) the rotation by a about the vertical axis,

    M0 = P(-delta) [[1, 0, 0], [0, 1, ts nu], [0, 0, 1]],
    U  = ts P(-delta)[:, (0, 2)],
    V  = [[-k_x, 0, 0], [0, -k_y nu, -k_theta nu]].

These depend only on nu, delta, ts and the gains. On a circle they are the
same at every step, the delayed loop is linear and time-invariant, and lag n
is stable exactly when every root of

    det(z^(n+1) I - z^n M0 - Mn),      Mn = U V,

has modulus below 1 - margin. Because Mn has rank 2 this is a polynomial of
degree 2n + 3, and its roots on or outside a circle are counted by the
argument principle at a cost that grows with n only, not with the track
length. That count is the one stability test: `outage_tolerance`'s search
decides every lag by counts alone. A spectral radius costs about 45 counts,
so it is bracketed, by the same count, only where it is read: by
`evaluate_candidate` and by a report's `history`. (The roots are also the
eigenvalues of a (3 + 2n)-dimensional companion matrix that carries the two
command components through the delay line; the tests check the count against
them, and M0 and Mn against finite differences of the nonlinear step.)

The search needs few counts because the boundary has a closed-form guess. On
a circle n_max lies within one lag of the smaller of two decoupled mode
limits (`_mode_limit`): the longitudinal loop x[k+1] = x[k] - k_x ts x[k-n]
(Levin & May, 1976) and the lateral delay margin tau nu ~ 8.09 m of
s^2 + e^(-s tau) (k_theta nu s + k_y nu^2) at the default gains. The search
counts lag 0, that guess and one neighbour, and brackets further only when
the guess was wrong. Like any bracket it assumes that every lag up to n_max
is stable and none just above it is; the tests check that on small tracks.

An ellipse is tested in frozen time: the loop above is formed at the
FROZEN_POINTS steps of the first quarter-lap, found in closed form, whose
speeds are spaced evenly from the fastest to the slowest (on the ellipse the
speed fixes the curvature), and a lag is stable when it is stable at each
of them. This samples the lap, it does not cover it: a lag unstable only
between two samples would pass. On the ellipses checked, the lag a step
tolerates alone never grew with its speed, so without a margin the fastest
sample binds; under a margin the slowest can bind first, its slow mode lying
nearest the circle. The tests check the samples against every 25th step of
a lap on which that lag falls from 31 to 17.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from ._io import write_table
from .control import TWO_PI, Gains, ReferenceTrack
from .exceptions import ParameterError

if TYPE_CHECKING:   # for the annotations; each function imports numpy itself
    import numpy as np

__all__ = [
    "CandidateScan", "StabilityReport", "evaluate_candidate",
    "outage_tolerance", "write_stability_csv",
]

FROZEN_POINTS = 5
_REFINE_LEVELS = 16


def _char_poly(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(s I - a), highest power first."""
    import numpy as np
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    m2 = ((a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
          + (a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0])
          + (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
    det = (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
           - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
           + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))
    return np.array([1.0, -tr, m2, -det])


@dataclass(frozen=True)
class _OperatingPoint:
    """Error-frame delayed loop at one track step."""

    step: int
    # rows a0, a1, a2 of det(z I - M0 - w Mn) = a0 + w a1 + w^2 a2, as cubics
    # in s = z - 1, whose coefficients scale with ts and keep their digits
    # near z = 1
    poly: np.ndarray = field(repr=False)

    def spectral_radius(self, n: int, limit: float) -> float:
        """Largest root modulus, bracketed by root counts to within 1e-12.

        The bracket grows from `limit` in steps that quadruple, then halves;
        the result is below `limit` exactly when no root lies on or outside
        the circle of radius `limit`.
        """
        step = 1e-9
        if self.roots_outside(n, limit):
            lo, hi = limit, limit + step
            while self.roots_outside(n, hi):
                lo, step = hi, 4.0 * step
                hi = limit + step
        else:
            lo, hi = max(limit - step, 0.0), limit
            while lo > 0.0 and not self.roots_outside(n, lo):
                hi, step = lo, 4.0 * step
                lo = max(limit - step, 0.0)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if self.roots_outside(n, mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def _h(self, n: int, radius: float, phi: np.ndarray) -> np.ndarray:
        """a0 + w a1 + w^2 a2 at z = radius e^(i phi), w = z^-n, scaled by
        min(1, radius^(2n)) so that no term's factor exceeds 1."""
        import numpy as np
        lag = radius ** n if radius <= 1.0 else radius ** -n
        c0, c2 = (lag * lag, 1.0) if radius <= 1.0 else (1.0, lag * lag)
        a = self.poly
        s = (radius - 1.0) + radius * 2j * np.sin(0.5 * phi) * np.exp(0.5j * phi)
        a0, a1, a2 = ((a[:, 0] * s + a[:, 1]) * s + a[:, 2]) * s + a[:, 3]
        w = np.exp(-1j * n * phi)
        return c0 * a0 + w * (lag * a1 + c2 * w * a2)

    def roots_outside(self, n: int, radius: float) -> int:
        """Roots of det(z^(n+1) I - z^n M0 - Mn) with |z| >= radius.

        Argument principle: with w = z^-n the degree-(2n + 3) polynomial
        z^(2n) (a0 + w a1 + w^2 a2) has 2n + wind roots inside the circle,
        wind being the turns of a0 + w a1 + w^2 a2 around zero along it. Real
        coefficients make the upper half circle carry half the turns;
        sampling steps that turn by more than pi/4 are subdivided, and a zero
        met on the circle (or a step that stays unresolved) counts as a root
        outside.
        """
        import numpy as np
        phi = np.linspace(0.0, math.pi, 16 * (n + 2) + 1)
        lo, hi = phi[:-1], phi[1:]
        vals = self._h(n, radius, phi)
        h_lo, h_hi = vals[:-1], vals[1:]
        turned = 0.0
        split = np.linspace(0.0, 1.0, 9)
        for _ in range(_REFINE_LEVELS):
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.angle(h_hi / h_lo)
            if not np.all(np.isfinite(step)):
                return 1
            coarse = np.abs(step) > 0.25 * math.pi
            turned += float(np.sum(step[~coarse]))
            if not coarse.any():
                return 3 - round(turned / math.pi)
            grid = lo[coarse, None] + split * (hi - lo)[coarse, None]
            vals = self._h(n, radius, grid.ravel()).reshape(grid.shape)
            lo, hi = grid[:, :-1].ravel(), grid[:, 1:].ravel()
            h_lo, h_hi = vals[:, :-1].ravel(), vals[:, 1:].ravel()
        return 1


def _error_frame_loop(nu: float, delta: float, ts: float,
                      g: Gains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M0, U, V) at reference speed nu with the heading turning delta per step."""
    import numpy as np
    c, s = math.cos(delta), math.sin(delta)
    back = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])   # P(-delta)
    shear = np.eye(3)
    shear[1, 2] = ts * nu
    v = np.array([[-g.k_x, 0.0, 0.0], [0.0, -g.k_y * nu, -g.k_theta * nu]])
    return back @ shear, ts * back[:, (0, 2)], v


def _operating_point(track: ReferenceTrack, g: Gains, k: int) -> _OperatingPoint:
    """The error-frame delayed loop frozen at track step k."""
    import numpy as np
    _, _, thetas, nus, _ = track.at([k, k + 1])
    m0, u, v = _error_frame_loop(float(nus[0]), float(thetas[1] - thetas[0]),
                                 track.ts, g)
    d0 = m0 - np.eye(3)
    mn = u @ v
    a0 = _char_poly(d0)
    plus, minus = _char_poly(d0 + mn), _char_poly(d0 - mn)
    return _OperatingPoint(k, np.array(
        [a0, 0.5 * (plus - minus), 0.5 * (plus + minus) - a0])[:, :, None])


def _operating_points(track: ReferenceTrack, g: Gains) -> tuple[_OperatingPoint, ...]:
    """The frozen-time points, fastest first. On the ellipse speed v phi' is
    reached at phi = pi + psi, sin^2 psi = (v^2 - b^2) / (a^2 - b^2): on the
    first quarter-lap, at the step nearest psi n_steps / (2 pi)."""
    import numpy as np
    a, b = track.spec.semi_axis_a, track.spec.axis_b
    if a == b:
        steps = [0]
    else:
        v = np.linspace(max(a, b), min(a, b), FROZEN_POINTS)
        psi = np.arcsin(np.sqrt((v * v - b * b) / (a * a - b * b)))
        steps = dict.fromkeys(map(int, np.rint(psi * track.n_steps / TWO_PI)))
    return tuple(_operating_point(track, g, k) for k in steps)


def _mode_limit(nu: float, ts: float, g: Gains) -> float:
    """The lag at which the first of two decoupled modes of the circle's loop
    loses stability; n_max lies within a lag of it on the circles checked.

    Longitudinal: x[k+1] = x[k] - a x[k-n] with a = k_x ts is stable iff
    a < 2 sin(pi / (2 (2n + 1))) (Levin & May, 1976). Lateral: the delay
    margin of s^2 + e^(-s tau) (k_theta nu s + k_y nu^2) is
    tau = atan(k_theta w / k_y) / (w nu), or tau / ts lags, with the
    crossover at s = i w nu and w^2 = (k_theta^2 + sqrt(k_theta^4 + 4 k_y^2)) / 2.
    """
    w = math.sqrt(0.5 * (g.k_theta ** 2
                         + math.hypot(g.k_theta ** 2, 2.0 * g.k_y)))
    try:
        longitudinal = (0.25 * math.pi / math.asin(min(0.5 * g.k_x * ts, 1.0))
                        - 0.5)
        lateral = math.atan(g.k_theta * w / g.k_y) / (w * nu * ts)
    except ZeroDivisionError:   # k_x ts or nu ts underflowed: no bound
        return math.inf
    return min(longitudinal, lateral)


@dataclass(frozen=True)
class CandidateScan:
    """One lag candidate, classified by its largest root modulus.

    worst_spectral_radius is the largest root modulus over the operating
    points and argmax_k the track step of the point where it occurs.
    """

    n: int
    stable: bool
    worst_spectral_radius: float
    argmax_k: int


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the outage-tolerance search.

    history scans lags, those of 0, n_max and n_max + 1 that the search
    reached, as `evaluate_candidate` does; radii are bracketed on first read.
    """

    n_max: int
    margin: float = 0.0
    capped: bool = False
    lags: tuple[int, ...] = ()
    points: tuple[_OperatingPoint, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def history(self) -> tuple[CandidateScan, ...]:
        return tuple(_scan(self.points, n, self.margin) for n in self.lags)


def _check_margin(margin: float) -> None:
    if not 0.0 <= margin < 1.0:
        raise ParameterError("stability margin must lie in [0, 1)")


def _scan(points: tuple[_OperatingPoint, ...], n: int, margin: float) -> CandidateScan:
    import numpy as np
    radii = [p.spectral_radius(n, 1.0 - margin) for p in points]
    worst = int(np.argmax(radii))
    return CandidateScan(n, bool(radii[worst] < 1.0 - margin),
                         float(radii[worst]), points[worst].step)


def evaluate_candidate(track: ReferenceTrack, g: Gains, n: int,
                       margin: float = 0.0) -> CandidateScan:
    """Classify lag n: stable iff every root modulus is below 1 - margin."""
    _check_margin(margin)
    if not 0 <= n <= track.n_steps - 1:
        raise ParameterError(
            f"candidate lag must lie in [0, {track.n_steps - 1}], got {n}")
    return _scan(_operating_points(track, g), n, margin)


def outage_tolerance(track: ReferenceTrack, g: Gains,
                     margin: float = 0.0) -> StabilityReport:
    """Largest lag n at which the delayed loop is stable.

    Every lag is decided by root counts: lag 0 first, then the seed n^,
    the lag of `_mode_limit` at the track's top speed (lag 1 under a
    margin or past an eighth of the lap), then n^ + 1 if n^ is stable or
    n^ - 1 if not. On the circles checked that settles the boundary; where
    the seed is wrong, the bracket grows upward in doubling steps, or falls
    to (0, n^ - 1), and a bisection ends it. No spectral radius is computed
    here; the report's history brackets those of lag 0, n_max and n_max + 1
    when it is read. Candidates are capped at n_steps - 1; hitting the cap
    is flagged since the failure side cannot then be verified.
    """
    _check_margin(margin)
    if track.n_steps < 1:
        raise ParameterError("track must contain at least one step")
    points = _operating_points(track, g)
    limit = 1.0 - margin

    def counted_stable(n: int) -> bool:
        return all(p.roots_outside(n, limit) == 0 for p in points)

    if not counted_stable(0):
        return StabilityReport(n_max=0, margin=margin, lags=(0,), points=points)
    cap = track.n_steps - 1

    # lo is counted stable; hi is counted unstable, or lies past the cap
    lo, hi = 0, cap + 1
    # the mode limits are unit-circle crossings of a loop whose heading turns
    # little over the delay. Under a margin the slow mode can bind far below
    # them, and on a lap so short that the seed's delay turns the heading by
    # pi/4 or more, stability can come back further up the lap; there the
    # bracket grows from lag 1 instead
    guess = _mode_limit(track.max_speed, track.ts, g)
    if margin > 0.0 or 8.0 * guess >= track.n_steps:
        guess = 1.0
    seed = min(max(int(guess), 1), cap)
    if counted_stable(seed):
        lo, step = seed, 1
        while lo < cap:
            n = min(lo + step, cap)
            if not counted_stable(n):
                hi = n
                break
            lo, step = n, 2 * step
    elif seed > 1 and counted_stable(seed - 1):
        lo, hi = seed - 1, seed
    else:
        # the seed lies far above the boundary: bisect below it
        hi = max(seed - 1, 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if counted_stable(mid):
            lo = mid
        else:
            hi = mid

    lags = (0, lo) if lo > 0 else (0,)
    capped = lo == cap
    return StabilityReport(n_max=lo, margin=margin, capped=capped,
                           lags=lags if capped else lags + (lo + 1,),
                           points=points)


STABILITY_COLUMNS = ["n_candidate", "stable_flag", "worst_spectral_radius",
                     "argmax_k"]


def write_stability_csv(report: StabilityReport, path) -> None:
    """Write the tolerance-search history to CSV (one row per candidate)."""
    write_table(path, STABILITY_COLUMNS,
                ((rec.n, rec.stable, rec.worst_spectral_radius, rec.argmax_k)
                 for rec in report.history))
