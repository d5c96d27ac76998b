"""Correlated Rayleigh fading outage model for the downlink.

Each slot of length ts carries one command packet of D bits to one of N
vehicles sharing bandwidth B, so the required spectral efficiency is
R = D*N/(ts*B) and a packet is lost when the instantaneous SNR falls below
gamma_th = (2^R - 1)/avg_snr. The channel gain follows a first-order
Gauss-Markov process whose slot-to-slot correlation is rho = J0(2*pi*f_d*ts)
with Doppler f_d = v*f_c/c. Consecutive losses are then governed by the
back-to-back conditional outage probability

    p_bb = 1 - [Q1(phi, rho*phi) - Q1(rho*phi, phi)] / (e^gamma_th - 1)

(Q1 = first-order Marcum function), and a run of n losses has probability
P_e(n) = p1 * p_bb^(n-1).

Both special functions come from scipy.special: J0 is `j0`, and Q1 is taken
from the noncentral chi-square distribution with two degrees of freedom,
Q1(a, b) = 1 - chndtr(b^2, 2, a^2). Their numpy scalars are converted to
Python floats, whose repr the CSV writers print as plain numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, j0

from .exceptions import NumericConsistencyError, ParameterError

SPEED_OF_LIGHT = 299_792_458.0
DEFAULT_CARRIER_FREQ = 5.9e9
RHO_LIMIT = 1.0 - 1e-9
PRNG_ID = "pcg64-polar"

PHI_CONVENTIONS = ("zorzi_sqrt", "paper_literal")


@dataclass(frozen=True)
class LinkParams:
    """Shared-downlink parameters; avg_snr is linear, not dB."""

    bandwidth_hz: float = 10e6
    num_agvs: int = 50
    payload_bits: int = 78 * 8
    avg_snr: float = 10.0
    carrier_freq_hz: float = DEFAULT_CARRIER_FREQ

    def __post_init__(self) -> None:
        if min(self.bandwidth_hz, self.num_agvs, self.payload_bits,
               self.avg_snr, self.carrier_freq_hz) <= 0:
            raise ParameterError("all link parameters must be strictly positive")


@dataclass(frozen=True)
class OutageModel:
    """Derived per-slot outage quantities for one operating point."""

    gamma_th: float
    rho: float
    phi: float
    p1: float
    p_bb: float
    phi_convention: str = "zorzi_sqrt"


def spectral_efficiency(payload_bits: float, num_agvs: float, ts: float,
                        bandwidth_hz: float) -> float:
    """Bits per second per Hz needed to serve every vehicle each slot."""
    if min(payload_bits, num_agvs, ts, bandwidth_hz) <= 0:
        raise ParameterError("spectral efficiency inputs must be positive")
    return payload_bits * num_agvs / (ts * bandwidth_hz)


def snr_threshold(rate: float, avg_snr: float) -> float:
    """Normalized SNR below which a packet at spectral efficiency `rate` fails."""
    if rate < 0 or avg_snr <= 0:
        raise ParameterError("rate must be nonnegative and avg_snr positive")
    try:
        gamma_th = (2.0 ** rate - 1.0) / avg_snr
    except OverflowError:
        gamma_th = math.inf
    if not math.isfinite(gamma_th):
        raise ParameterError(
            f"SNR threshold (2**R - 1)/avg_snr is not finite at R = {rate!r}, "
            f"avg_snr = {avg_snr!r}")
    return gamma_th


def outage_probability(gamma_th: float) -> float:
    """Unconditional per-slot loss probability of the Rayleigh channel."""
    if gamma_th < 0:
        raise ParameterError("gamma_th must be nonnegative")
    return -math.expm1(-gamma_th)


def doppler_shift(velocity: float, carrier_freq: float = DEFAULT_CARRIER_FREQ) -> float:
    """Doppler spread of a carrier seen from a platform moving at `velocity`."""
    if velocity < 0:
        raise ParameterError("velocity must be nonnegative")
    return velocity * carrier_freq / SPEED_OF_LIGHT


def fading_correlation(f_d: float, ts: float) -> float:
    """Slot-to-slot gain correlation J0(2*pi*f_d*ts), clamped away from +-1.

    The clamp (at 1 - 1e-9) keeps the conditional-outage expression finite at
    zero Doppler instead of special-casing a degenerate fully-coherent slot.
    """
    if not (0.0 <= f_d < math.inf and 0.0 < ts < math.inf):
        raise ParameterError(
            "f_d must be finite and nonnegative, ts finite and positive")
    rho = float(j0(2.0 * math.pi * f_d * ts))
    return min(max(rho, -RHO_LIMIT), RHO_LIMIT)


# --- outage chain ----------------------------------------------------------

def phi_variable(gamma_th: float, rho: float, convention: str = "zorzi_sqrt") -> float:
    """Noncentrality variable feeding the Marcum terms of p_bb.

    zorzi_sqrt uses sqrt(2*gamma_th/(1-rho^2)), the form whose rho -> 0 limit
    reproduces the unconditional loss probability; paper_literal keeps the
    unsquare-rooted variant for side-by-side comparisons.
    """
    if convention not in PHI_CONVENTIONS:
        raise ParameterError(f"unknown phi convention {convention!r}")
    if gamma_th <= 0:
        raise ParameterError("gamma_th must be positive")
    if abs(rho) >= 1.0:
        raise ParameterError("|rho| must be below 1 (clamp upstream)")
    ratio = 2.0 * gamma_th / (1.0 - rho * rho)
    return math.sqrt(ratio) if convention == "zorzi_sqrt" else ratio


def back_to_back_prob(gamma_th: float, rho: float,
                      convention: str = "zorzi_sqrt") -> float:
    """Conditional loss probability given a loss in the previous slot.

    Evaluated with |rho|: the envelope statistics depend on the squared
    correlation, and J0 swings negative at fast Doppler.
    """
    ar = abs(rho)
    phi = phi_variable(gamma_th, ar, convention)
    # Q1(a, b) = 1 - chndtr(b^2, 2, a^2), so the numerator
    # Q1(phi, rho phi) - Q1(rho phi, phi) needs no constant term
    hi, lo = phi * phi, (ar * phi) ** 2
    numerator = float(chndtr(hi, 2, lo) - chndtr(lo, 2, hi))
    p_bb = 1.0 - numerator / math.expm1(gamma_th)
    if not -1e-6 <= p_bb <= 1.0 + 1e-6:
        raise NumericConsistencyError(
            f"back-to-back probability {p_bb} out of range before clamping")
    return min(max(p_bb, 0.0), 1.0)


def consecutive_outage_prob(n: int, p1: float, p_bb: float) -> float:
    """Probability of n consecutive losses, p1 * p_bb^(n-1).

    Evaluated in the log domain for long runs; underflows to 0.0 only when
    the true value is below the smallest positive float.
    """
    if n < 1:
        raise ParameterError("run length n must be at least 1")
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p_bb <= 1.0):
        raise ParameterError("p1 and p_bb must be probabilities")
    if n == 1:
        return p1
    if p_bb == 0.0:
        return 0.0
    if n <= 50:
        return p1 * p_bb ** (n - 1)
    log_p = math.log(p1) + (n - 1) * math.log(p_bb) if p1 > 0 else -math.inf
    return math.exp(log_p) if log_p > -745.0 else 0.0


def consecutive_outage_log10(n: int, p1: float, p_bb: float) -> float:
    """log10 of consecutive_outage_prob; representable far past underflow."""
    if n < 1:
        raise ParameterError("run length n must be at least 1")
    if p1 <= 0.0 or (p_bb <= 0.0 and n > 1):
        return -math.inf
    return (math.log10(p1) + (n - 1) * math.log10(p_bb)) if n > 1 else math.log10(p1)


def build_outage_model(link: LinkParams, ts: float, velocity: float,
                       convention: str = "zorzi_sqrt") -> OutageModel:
    """Assemble the per-slot outage quantities for one operating point."""
    rate = spectral_efficiency(link.payload_bits, link.num_agvs, ts,
                               link.bandwidth_hz)
    gamma_th = snr_threshold(rate, link.avg_snr)
    f_d = doppler_shift(velocity, link.carrier_freq_hz)
    rho = fading_correlation(f_d, ts)
    phi = phi_variable(gamma_th, abs(rho), convention)
    return OutageModel(gamma_th=gamma_th, rho=rho, phi=phi,
                       p1=outage_probability(gamma_th),
                       p_bb=back_to_back_prob(gamma_th, rho, convention),
                       phi_convention=convention)


# --- samplers --------------------------------------------------------------

def _polar_normals(gen: np.random.Generator, count: int) -> np.ndarray:
    """Standard normals via the Marsaglia polar transform.

    Fixed-chunk rejection keeps the draw order deterministic for a given
    bit-generator state, independent of platform math libraries.
    """
    out = np.empty(count)
    filled = 0
    chunk = 1 << 16
    while filled < count:
        u = 2.0 * gen.random(chunk) - 1.0
        v = 2.0 * gen.random(chunk) - 1.0
        s = u * u + v * v
        keep = (s > 0.0) & (s < 1.0)
        u, v, s = u[keep], v[keep], s[keep]
        factor = np.sqrt(-2.0 * np.log(s) / s)
        pair = np.empty(2 * len(s))
        pair[0::2] = u * factor
        pair[1::2] = v * factor
        take = min(len(pair), count - filled)
        out[filled:filled + take] = pair[:take]
        filled += take
    return out


def _generator(seed: int, stream: int) -> np.random.Generator:
    bits = np.random.PCG64(seed)
    if stream:
        bits = bits.jumped(stream)   # documented parallel-stream splitting rule
    return np.random.Generator(bits)


def sample_fading_gains(rho: float, length: int, seed: int,
                        stream: int = 0) -> np.ndarray:
    """Complex Gauss-Markov gain sequence h(k) = rho h(k-1) + sqrt(1-rho^2) w(k).

    h(0) and the innovations w are circularly-symmetric unit Gaussians, so
    the marginal stays unit Rayleigh-power for every k.
    """
    if abs(rho) >= 1.0:
        raise ParameterError("|rho| must be below 1")
    if length < 1:
        raise ParameterError("length must be at least 1")
    z = _polar_normals(_generator(seed, stream), 2 * length)
    cplx = (z[0::2] + 1j * z[1::2]) * math.sqrt(0.5)
    h0 = cplx[0]
    if length == 1:
        return cplx[:1]
    from scipy.signal import lfilter   # deferred: it dominates `import agvlink`

    innovation_gain = math.sqrt(1.0 - rho * rho)
    tail, _ = lfilter([innovation_gain], [1.0, -rho], cplx[1:],
                      zi=np.array([rho * h0]))
    return np.concatenate(([h0], tail))


def sample_outage_sequence(rho: float, gamma_th: float, length: int, seed: int,
                           stream: int = 0) -> np.ndarray:
    """Boolean loss sequence: slot k lost when the gain power drops below gamma_th."""
    if gamma_th < 0:
        raise ParameterError("gamma_th must be nonnegative")
    h = sample_fading_gains(rho, length, seed, stream)
    return (h.real * h.real + h.imag * h.imag) < gamma_th
