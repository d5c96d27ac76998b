"""Stability and outage analysis of a cloud-controlled AGV on a fading link.

The package splits along the system boundary: `control` holds the unicycle
tracking loop (reference tracks, and the error transform, control law and
plant step that the closed-loop simulator calls), `stability`
linearizes that loop with every command n samples old and searches for the
largest lag at which it stays stable, `channel` models the correlated
Rayleigh downlink (per-slot and back-to-back outage probabilities, with J0
and Marcum Q1 taken from scipy.special, and fading samplers), `analysis`
composes the two sides into the instability probability and its parameter
sweeps, and `cli` exposes everything as subcommands.
"""

from ._version import __version__
from .analysis import (
    DEFAULT_TRACE_GRID,
    DEFAULT_TS_GRID,
    MonteCarloResult,
    MonteCarloRow,
    PointResult,
    ScenarioConfig,
    SweepResult,
    SweepRow,
    instability_probability,
    longest_outage_run,
    montecarlo_instability,
    sweep_sampling_time,
    sweep_trace_time,
    wilson_interval,
    write_montecarlo_csv,
    write_sweep_csv,
)
from .channel import (
    DEFAULT_CARRIER_FREQ,
    PRNG_ID,
    SPEED_OF_LIGHT,
    LinkParams,
    OutageModel,
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
from .control import (
    Gains,
    ReferenceTrack,
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
from .exceptions import (
    NumericConsistencyError,
    ParameterError,
)
from .stability import (
    CandidateScan,
    StabilityReport,
    evaluate_candidate,
    outage_tolerance,
    simulate_delay_stability,
    write_stability_csv,
)

__all__ = [
    "__version__",
    # control
    "Gains", "TrackSpec", "ReferenceTrack", "Trajectory",
    "build_reference_track", "tracking_error", "control_law", "plant_step",
    "simulate_closed_loop", "wrap_angle", "write_trajectory_csv",
    # stability
    "CandidateScan", "StabilityReport", "evaluate_candidate",
    "outage_tolerance", "simulate_delay_stability", "write_stability_csv",
    # channel
    "LinkParams", "OutageModel", "spectral_efficiency", "snr_threshold",
    "outage_probability", "doppler_shift", "fading_correlation",
    "phi_variable", "back_to_back_prob",
    "consecutive_outage_prob", "consecutive_outage_log10",
    "build_outage_model", "sample_fading_gains", "sample_outage_sequence",
    "SPEED_OF_LIGHT", "DEFAULT_CARRIER_FREQ", "PRNG_ID",
    # analysis
    "ScenarioConfig", "PointResult", "SweepRow", "SweepResult",
    "MonteCarloRow", "MonteCarloResult", "instability_probability",
    "sweep_sampling_time", "sweep_trace_time", "montecarlo_instability",
    "longest_outage_run", "wilson_interval", "write_sweep_csv",
    "write_montecarlo_csv", "DEFAULT_TS_GRID", "DEFAULT_TRACE_GRID",
    # errors
    "ParameterError", "NumericConsistencyError",
]
