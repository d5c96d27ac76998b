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
Python floats, whose repr the CSV writers print as plain numbers. Each is
imported by the one function that calls it: importing scipy.special takes
~0.27 s (scipy's array-API shim), which only commands that evaluate the
channel need. `build_outage_model` runs before any share is forked, so the
children inherit the module. numpy (0.07-0.10 s to import) loads at the
first computation too, here as in every module of the package: `np` is
bound from `_lazy`, which defers loading numpy to its first use.

The sampler's normals are numpy's ziggurat `standard_normal`: nearly every
value is a table product, not a `log` per pair as in the old polar method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .exceptions import NumericConsistencyError, ParameterError

__all__ = [
    "LinkParams", "OutageModel", "spectral_efficiency", "snr_threshold",
    "outage_probability", "doppler_shift", "fading_correlation",
    "phi_variable", "back_to_back_prob",
    "consecutive_outage_prob", "consecutive_outage_log10",
    "build_outage_model", "sample_fading_gains", "sample_outage_sequence",
    "SPEED_OF_LIGHT", "DEFAULT_CARRIER_FREQ", "PRNG_ID",
]

SPEED_OF_LIGHT = 299_792_458.0
DEFAULT_CARRIER_FREQ = 5.9e9
RHO_LIMIT = 1.0 - 1e-9
PRNG_ID = "pcg64-ziggurat"

PHI_CONVENTIONS = ("zorzi_sqrt", "paper_literal")

# Slots per block of the fading recursion: its two Python lists (innovations
# and results) take about 40 bytes a slot each against numpy's 16, so a
# block holds about 160 kB of them however long the run is; blocks 8 times
# as long run no faster.
_AR1_BLOCK = 1 << 11


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
    from scipy.special import j0
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
    correlation, and J0 swings negative at fast Doppler. From gamma_th = 38
    on, where expm1 may overflow and chndtr give NaN, p_bb is exactly 1.0:
    the numerator is at most 1 and e^38 - 1 > 2^54.
    """
    from scipy.special import chndtr
    ar = abs(rho)
    phi = phi_variable(gamma_th, ar, convention)
    if 38.0 <= gamma_th < math.inf:
        return 1.0
    # Q1(a, b) = 1 - chndtr(b^2, 2, a^2), so the numerator
    # Q1(phi, rho phi) - Q1(rho phi, phi) needs no constant term
    hi, lo = phi * phi, (ar * phi) ** 2
    numerator = float(chndtr(hi, 2, lo) - chndtr(lo, 2, hi))
    p_bb = 1.0 - numerator / math.expm1(gamma_th)
    if not -1e-6 <= p_bb <= 1.0 + 1e-6:
        raise NumericConsistencyError(
            f"back-to-back probability {p_bb} out of range before clamping")
    return min(max(p_bb, 0.0), 1.0)


def _check_run(n: int, p1: float, p_bb: float) -> None:
    if n < 1:
        raise ParameterError("run length n must be at least 1")
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p_bb <= 1.0):
        raise ParameterError("p1 and p_bb must be probabilities")


def consecutive_outage_prob(n: int, p1: float, p_bb: float) -> float:
    """Probability of n consecutive losses, p1 * p_bb^(n-1).

    One float power, within 2 ulp of the exact value; it underflows
    quietly to 0.0 (consecutive_outage_log10 does not) and cannot overflow,
    since p_bb <= 1.
    """
    _check_run(n, p1, p_bb)
    return p1 * p_bb ** (n - 1)


def consecutive_outage_log10(n: int, p1: float, p_bb: float) -> float:
    """log10 of consecutive_outage_prob; representable far past underflow."""
    _check_run(n, p1, p_bb)
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
                       p_bb=back_to_back_prob(gamma_th, rho, convention))


# --- samplers --------------------------------------------------------------

def _generator(seed: int, stream: int) -> np.random.Generator:
    # jumped(0) leaves the state as it is, so stream 0 is PCG64(seed) itself
    return np.random.Generator(np.random.PCG64(seed).jumped(stream))


def sample_fading_gains(rho: float, length: int, seed: int,
                        stream: int = 0) -> np.ndarray:
    """Complex Gauss-Markov gain sequence h(k) = rho h(k-1) + sqrt(1-rho^2) w(k).

    h(0) and the innovations w are circularly-symmetric unit Gaussians, so
    the marginal stays unit Rayleigh-power for every k; their parts are
    `standard_normal` draws in order, so a shorter run is a prefix of a
    longer one. The recursion runs in Python complex floats, `_AR1_BLOCK`
    slots at a time.
    """
    if abs(rho) >= 1.0:
        raise ParameterError("|rho| must be below 1")
    if length < 1:
        raise ParameterError("length must be at least 1")
    z = _generator(seed, stream).standard_normal(2 * length)
    z *= math.sqrt(0.5)
    cplx = z.view(np.complex128)
    innovation_gain = math.sqrt(1.0 - rho * rho)
    h = cplx[0].item()
    for lo in range(1, length, _AR1_BLOCK):
        hi = lo + _AR1_BLOCK
        innovations = (innovation_gain * cplx[lo:hi]).tolist()
        cplx[lo:hi] = [h := rho * h + w for w in innovations]
    return cplx


def sample_outage_sequence(rho: float, gamma_th: float, length: int, seed: int,
                           stream: int = 0) -> np.ndarray:
    """Boolean loss sequence: slot k lost when the gain power drops below gamma_th."""
    if gamma_th < 0:
        raise ParameterError("gamma_th must be nonnegative")
    h = sample_fading_gains(rho, length, seed, stream)
    return (h.real * h.real + h.imag * h.imag) < gamma_th
