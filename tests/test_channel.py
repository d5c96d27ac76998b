"""Channel-model tests: link algebra, fading correlation, outage chain, samplers.

The back-to-back probability is checked against Marcum Q1 taken from the
noncentral-chi-square survival function (`scipy.stats.ncx2`) and, at the rho
clamp, against mpmath quadrature of the Q1 density; J0 against tabulated
values; samplers against their analytic marginals at 3-sigma tolerances with
fixed seeds.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special as sp
from scipy.stats import ncx2

from agvlink import (
    DEFAULT_CARRIER_FREQ,
    SPEED_OF_LIGHT,
    LinkParams,
    NumericConsistencyError,
    ParameterError,
    back_to_back_prob,
    build_outage_model,
    consecutive_outage_log10,
    consecutive_outage_prob,
    doppler_shift,
    fading_correlation,
    outage_probability,
    phi_variable,
    sample_fading_gains,
    sample_outage_sequence,
    snr_threshold,
    spectral_efficiency,
)
from agvlink.channel import PHI_CONVENTIONS, RHO_LIMIT

from conftest import close, one_minus_pbb_mp, rel_close


def marcum_oracle(a: float, b: float) -> float:
    """Q1(a, b) via the noncentral-chi-square survival function (scipy)."""
    return float(ncx2.sf(b * b, 2, a * a))


# --- link algebra ------------------------------------------------------------

def test_spectral_efficiency_shared_downlink():
    # 50 vehicles x 624 bits each, one delivery per 1 ms slot over 10 MHz
    assert spectral_efficiency(624, 50, 1e-3, 10e6) == pytest.approx(3.12,
                                                                     abs=1e-15)
    assert spectral_efficiency(624, 50, 2e-3, 10e6) == pytest.approx(1.56,
                                                                     abs=1e-15)
    # doubling the fleet doubles the required rate
    assert spectral_efficiency(624, 100, 1e-3, 10e6) == pytest.approx(
        2 * spectral_efficiency(624, 50, 1e-3, 10e6), rel=1e-15)


def test_spectral_efficiency_rejects_nonpositive():
    for args in ((0, 50, 1e-3, 10e6), (624, 0, 1e-3, 10e6),
                 (624, 50, 0.0, 10e6), (624, 50, 1e-3, -1.0)):
        with pytest.raises(ParameterError):
            spectral_efficiency(*args)


def test_snr_threshold_values():
    assert snr_threshold(0.0, 10.0) == 0.0
    assert snr_threshold(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    # nominal operating point: R = 3.12 at 10 dB average SNR
    assert snr_threshold(3.12, 10.0) == pytest.approx((2.0 ** 3.12 - 1) / 10,
                                                      rel=1e-15)
    with pytest.raises(ParameterError):
        snr_threshold(-0.1, 10.0)
    with pytest.raises(ParameterError):
        snr_threshold(1.0, 0.0)
    # a threshold that is not finite is refused: 2**R overflows at a
    # nanosecond slot, and a subnormal SNR overflows the division
    with pytest.raises(ParameterError, match="not finite"):
        snr_threshold(spectral_efficiency(624, 50, 1e-9, 10e6), 10.0)
    with pytest.raises(ParameterError, match="not finite"):
        snr_threshold(3.12, 1e-320)


def test_outage_probability_rayleigh():
    assert outage_probability(0.0) == 0.0
    gamma = (2.0 ** 3.12 - 1) / 10
    assert outage_probability(gamma) == pytest.approx(1 - math.exp(-gamma),
                                                      rel=1e-15)
    assert outage_probability(gamma) == pytest.approx(0.53670343, abs=5e-8)
    assert outage_probability(1e4) == 1.0
    with pytest.raises(ParameterError):
        outage_probability(-1e-9)


def test_doppler_shift_scaling():
    assert doppler_shift(0.0) == 0.0
    # v = c maps the carrier onto itself; default carrier is 5.9 GHz
    assert doppler_shift(SPEED_OF_LIGHT) == pytest.approx(DEFAULT_CARRIER_FREQ,
                                                          rel=1e-15)
    assert doppler_shift(SPEED_OF_LIGHT, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert doppler_shift(8.8) == pytest.approx(2 * doppler_shift(4.4),
                                               rel=1e-15)
    with pytest.raises(ParameterError):
        doppler_shift(-1.0)


# --- fading correlation ------------------------------------------------------

def test_fading_correlation_clamps_at_zero_doppler():
    # J0(0) = 1 would blow up the conditional-outage expression; the clamp
    # returns the largest admissible coefficient instead
    assert fading_correlation(0.0, 1e-3) == RHO_LIMIT
    assert fading_correlation(1e-12, 1e-3) == RHO_LIMIT


def test_fading_correlation_tracks_j0():
    # pick f_d * ts so the J0 argument lands at 1.0 and at the first zero
    ts = 1e-3
    f_one = 1.0 / (2 * math.pi * ts)
    assert fading_correlation(f_one, ts) == pytest.approx(
        0.7651976865579666, rel=1e-15)
    f_zero = 2.404825557695773 / (2 * math.pi * ts)
    assert abs(fading_correlation(f_zero, ts)) < 1e-13
    # fast-Doppler region goes negative and is passed through unclamped
    f_neg = math.pi / (2 * math.pi * ts)
    assert fading_correlation(f_neg, ts) == pytest.approx(
        -0.3042421776440939, abs=1e-14)
    assert fading_correlation(f_neg, ts) < -0.30


def test_fading_correlation_rejects_bad_inputs():
    for f_d, ts in ((-1.0, 1e-3), (10.0, 0.0), (math.inf, 1e-3),
                    (math.nan, 1e-3), (10.0, math.inf), (10.0, math.nan)):
        with pytest.raises(ParameterError):
            fading_correlation(f_d, ts)


# --- outage chain ------------------------------------------------------------

def test_phi_variable_conventions():
    gamma, rho = 0.7, 0.9
    sqrt_form = phi_variable(gamma, rho, "zorzi_sqrt")
    literal = phi_variable(gamma, rho, "paper_literal")
    assert sqrt_form == pytest.approx(math.sqrt(2 * gamma / (1 - rho * rho)),
                                      rel=1e-15)
    assert literal == pytest.approx(sqrt_form ** 2, rel=1e-15)
    assert phi_variable(0.5, 0.0) == 1.0
    assert set(PHI_CONVENTIONS) == {"zorzi_sqrt", "paper_literal"}


def test_phi_variable_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        phi_variable(0.7, 0.9, "sideways")
    with pytest.raises(ParameterError):
        phi_variable(0.0, 0.5)
    with pytest.raises(ParameterError):
        phi_variable(0.7, 1.0)


def test_back_to_back_matches_independent_composition():
    # assemble P_bb from the scipy Marcum oracle and compare
    for gamma in (0.05, 0.3, 0.7693878389952673, 2.0):
        for rho in (0.05, 0.3, 0.76938, 0.92740925, 0.99):
            phi = math.sqrt(2 * gamma / (1 - rho * rho))
            ref = 1.0 - (marcum_oracle(phi, rho * phi)
                         - marcum_oracle(rho * phi, phi)) / math.expm1(gamma)
            assert rel_close(back_to_back_prob(gamma, rho), ref, 1e-9)


def test_back_to_back_limits():
    # rho -> 0 collapses the conditional onto the unconditional loss rate
    for gamma in (0.01, 0.1, 0.7693878389952673, 2.0, 10.0):
        p1 = outage_probability(gamma)
        assert abs(back_to_back_prob(gamma, 1e-6) - p1) < 1e-6
    # near-full correlation makes a repeat loss almost certain
    assert back_to_back_prob(0.7693878389952673, RHO_LIMIT) > 0.999
    # the sign of rho is irrelevant: envelope statistics see rho^2
    assert back_to_back_prob(0.5, -0.4) == back_to_back_prob(0.5, 0.4)


def test_back_to_back_rejects_nan():
    # an infinite threshold makes the Marcum terms NaN, which is no probability
    with pytest.raises(NumericConsistencyError):
        back_to_back_prob(math.inf, 0.5)


def test_back_to_back_matches_mpmath_at_rho_limit():
    # the clamp at zero Doppler gives phi ~ 3e4: Q1's large-argument regime
    link = LinkParams()
    for ts in (1e-3, 4e-3, 8e-3):
        gamma = snr_threshold(spectral_efficiency(
            link.payload_bits, link.num_agvs, ts, link.bandwidth_hz), link.avg_snr)
        ref = one_minus_pbb_mp(gamma, RHO_LIMIT)
        assert rel_close(1.0 - back_to_back_prob(gamma, RHO_LIMIT), ref, 1e-7), ts


def test_back_to_back_monte_carlo_conditional():
    gamma, rho, n = 0.7693878389952673, 0.9, 1_000_000
    losses = sample_outage_sequence(rho, gamma, n, seed=2024)
    prev, cur = losses[:-1], losses[1:]
    conditioning = int(prev.sum())
    freq = float((prev & cur).sum()) / conditioning
    p_bb = back_to_back_prob(gamma, rho)
    sigma = math.sqrt(p_bb * (1 - p_bb) / conditioning)
    assert abs(freq - p_bb) < 3 * sigma, (freq, p_bb, 3 * sigma)


def test_consecutive_outage_prob_small_n():
    p1, p_bb = 0.5367, 0.8378
    assert consecutive_outage_prob(1, p1, p_bb) == p1
    expected = p1
    for _ in range(4):
        expected *= p_bb
    assert rel_close(consecutive_outage_prob(5, p1, p_bb), expected, 1e-15)


def test_consecutive_outage_prob_log_domain_consistency():
    p1, p_bb = 0.536703, 0.837792
    # n = 155 crosses the log-domain branch; compare to direct float power
    direct = p1 * p_bb ** 154
    assert rel_close(consecutive_outage_prob(155, p1, p_bb), direct, 1e-12)
    got_log = consecutive_outage_log10(155, p1, p_bb)
    assert close(got_log, math.log10(direct), 1e-9)
    # affine in n with slope log10(p_bb)
    slope = consecutive_outage_log10(11, p1, p_bb) - consecutive_outage_log10(
        10, p1, p_bb)
    assert rel_close(slope, math.log10(p_bb), 1e-12)


def test_consecutive_outage_prob_underflow():
    p1, p_bb = 0.5, 0.5
    n = 4000   # log10 ~ -1204, far below the float64 floor
    assert consecutive_outage_prob(n, p1, p_bb) == 0.0
    log10_val = consecutive_outage_log10(n, p1, p_bb)
    assert math.isfinite(log10_val)
    assert close(log10_val, math.log10(p1) + (n - 1) * math.log10(p_bb), 1e-6)
    assert consecutive_outage_log10(5, 0.0, 0.5) == -math.inf
    assert consecutive_outage_prob(3, 0.5, 0.0) == 0.0


def test_consecutive_outage_prob_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        consecutive_outage_prob(0, 0.5, 0.5)
    with pytest.raises(ParameterError):
        consecutive_outage_prob(2, 1.5, 0.5)
    with pytest.raises(ParameterError):
        consecutive_outage_log10(0, 0.5, 0.5)


def test_build_outage_model_nominal_point():
    # default link, 1 ms slots, one 500 s lap of the default circle
    velocity = 2 * math.pi * 350.0 / 500.0
    model = build_outage_model(LinkParams(), ts=1e-3, velocity=velocity)
    gamma_ref = (2.0 ** 3.12 - 1) / 10
    assert rel_close(model.gamma_th, gamma_ref, 1e-12)
    f_d = velocity * 5.9e9 / SPEED_OF_LIGHT
    assert rel_close(model.rho, float(sp.j0(2 * math.pi * f_d * 1e-3)), 1e-12)
    assert model.rho == pytest.approx(0.92740925, abs=5e-9)
    assert rel_close(model.p1, 1 - math.exp(-gamma_ref), 1e-12)
    phi = math.sqrt(2 * gamma_ref / (1 - model.rho ** 2))
    ref_pbb = 1.0 - (marcum_oracle(phi, model.rho * phi)
                     - marcum_oracle(model.rho * phi, phi)) / math.expm1(
                         gamma_ref)
    assert rel_close(model.p_bb, ref_pbb, 1e-9)
    assert model.p_bb == pytest.approx(0.837791513, abs=5e-9)
    assert model.phi == phi_variable(model.gamma_th, abs(model.rho))
    assert model.phi_convention == "zorzi_sqrt"


def test_build_outage_model_fast_lap_negative_rho():
    # a 100 s lap pushes the Doppler past the first J0 zero
    velocity = 2 * math.pi * 350.0 / 100.0
    model = build_outage_model(LinkParams(), ts=1e-3, velocity=velocity)
    assert model.rho == pytest.approx(-0.150920331, abs=5e-9)
    assert model.p_bb == pytest.approx(0.542142483, abs=5e-9)
    # weak |rho| keeps the conditional near the unconditional rate
    assert abs(model.p_bb - model.p1) < 0.01


def test_build_outage_model_literal_convention():
    model = build_outage_model(LinkParams(), ts=1e-3, velocity=4.0,
                               convention="paper_literal")
    assert model.phi_convention == "paper_literal"
    assert model.phi == pytest.approx(
        phi_variable(model.gamma_th, abs(model.rho), "paper_literal"),
        rel=1e-15)


def test_outage_model_fields_are_python_floats():
    # a numpy scalar would reach the CSV writers as "np.float64(...)"
    for velocity in (0.0, 0.1):
        model = build_outage_model(LinkParams(), ts=1e-3, velocity=velocity)
        for name in ("gamma_th", "rho", "phi", "p1", "p_bb"):
            assert type(getattr(model, name)) is float, (velocity, name)


def test_import_leaves_signal_and_stats_unloaded():
    # both are slow to import and only some commands need them
    import agvlink
    src = os.path.dirname(os.path.dirname(os.path.abspath(agvlink.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, agvlink; "
             "print(sorted(m for m in ('scipy.signal', 'scipy.stats') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_link_params_validation():
    with pytest.raises(ParameterError):
        LinkParams(bandwidth_hz=0.0)
    with pytest.raises(ParameterError):
        LinkParams(avg_snr=-1.0)


# --- samplers ----------------------------------------------------------------

def test_sample_fading_gains_reproducible_streams():
    a = sample_fading_gains(0.9, 1000, seed=7)
    b = sample_fading_gains(0.9, 1000, seed=7)
    c = sample_fading_gains(0.9, 1000, seed=7, stream=1)
    d = sample_fading_gains(0.9, 1000, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # the start sample only depends on seed/stream, not requested length
    assert sample_fading_gains(0.9, 1, seed=7)[0] == a[0]


def test_sample_fading_gains_follow_ar1_recursion_bit_for_bit():
    # the filter computes h(k) = rho h(k-1) + sqrt(1 - rho^2) w(k), h(0) = w(0)
    from agvlink.channel import _generator, _polar_normals
    for rho in (0.0, 0.3, -0.4, 0.9997, 0.999999, RHO_LIMIT):
        for length in (1, 2, 7, 100_000):
            z = _polar_normals(_generator(3, 1), 2 * length)
            w = (z[0::2] + 1j * z[1::2]) * math.sqrt(0.5)
            h = w[0].item()
            ref = [h]
            for innovation in (math.sqrt(1.0 - rho * rho) * w[1:]).tolist():
                h = rho * h + innovation
                ref.append(h)
            ref = np.array(ref)
            got = sample_fading_gains(rho, length, seed=3, stream=1)
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes(), (rho, length)


def test_sample_fading_gains_marginals():
    n, rho = 200_000, 0.95
    h = sample_fading_gains(rho, n, seed=11)
    power = np.abs(h) ** 2
    # unit-exponential power, but the AR(1) correlation inflates the variance
    # of the sample mean by (1 + rho^2)/(1 - rho^2)
    inflation = (1 + rho * rho) / (1 - rho * rho)
    assert abs(power.mean() - 1.0) < 3.0 * math.sqrt(inflation / n)
    corr = np.vdot(h[:-1], h[1:]).real / (n - 1)
    assert abs(corr - rho) < 3.0 * math.sqrt(inflation / n)
    # real and imaginary parts each have variance 1/2
    assert abs(np.var(h.real) - 0.5) < 1.5 * math.sqrt(inflation / n)
    assert abs(np.var(h.imag) - 0.5) < 1.5 * math.sqrt(inflation / n)


def test_sample_fading_gains_independent_when_rho_zero():
    n = 100_000
    losses = sample_outage_sequence(0.0, 0.7693878389952673, n, seed=5)
    x = losses[:-1].astype(float)
    y = losses[1:].astype(float)
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 3.0 / math.sqrt(n)


def test_sample_fading_gains_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        sample_fading_gains(1.0, 10, seed=1)
    with pytest.raises(ParameterError):
        sample_fading_gains(0.5, 0, seed=1)
    with pytest.raises(ParameterError):
        sample_outage_sequence(0.5, -0.1, 10, seed=1)


def test_sample_outage_sequence_rate():
    gamma = 0.7693878389952673
    n = 1_000_000
    losses = sample_outage_sequence(0.927409, gamma, n, seed=42)
    p1 = outage_probability(gamma)
    sigma = math.sqrt(p1 * (1 - p1) / n)
    assert abs(losses.mean() - p1) < 3 * sigma
