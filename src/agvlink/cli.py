"""Command-line front end: config ingestion, subcommands, CSV emission.

Config files are INI with unit-suffixed keys; every key is optional and
falls back to the built-in factory defaults (10 MHz shared by 50 vehicles,
78-byte commands, 10 dB average SNR, gains 10 / 0.0064 / 0.16, circular
350 m track traced in 500 s at 1 ms slots):

    [link]
    bandwidth_hz = 10000000.0
    num_agvs = 50
    payload_bytes = 78.0
    snr_db = 10.0            ; or snr_linear = 10.0 (not both)
    carrier_freq_hz = 5900000000.0

    [gains]
    k_x_per_s = 10.0
    k_y_per_m = 0.0064
    k_theta_per_m = 0.16

    [track]
    shape = circle           ; or ellipse
    semi_axis_a_m = 350.0
    semi_axis_b_m = 200.0    ; ellipse only
    start_angle_rad = 3.141592653589793
    direction = ccw          ; or cw

    [sim]
    ts_s = 0.001             ; or ts_ms = 1.0 (not both)
    trace_time_s = 500.0
    phi_convention = zorzi_sqrt
    margin = 0.0
    seed = 12345

    [sweep]
    ts_grid_ms = 1.0, 1.5, 2.0
    trace_grid_s = 20, 100, 333, 500, 1000

Unknown sections or keys are rejected with a diagnostic naming the key.
Command-line flags override file values, which override defaults. Exit
codes: 0 success (including sweeps with flagged failure rows), 2 for
configuration or usage errors, 3 for internal consistency violations.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._io import csv_sink
from ._version import __version__
from .analysis import (
    DEFAULT_TRACE_GRID,
    DEFAULT_TS_GRID,
    ScenarioConfig,
    instability_probability,
    montecarlo_instability,
    sweep_sampling_time,
    sweep_trace_time,
    write_montecarlo_csv,
    write_sweep_csv,
)
from .channel import (
    PHI_CONVENTIONS,
    LinkParams,
    build_outage_model,
    consecutive_outage_prob,
    sample_outage_sequence,
    spectral_efficiency,
)
from .control import (
    Gains,
    TrackSpec,
    build_reference_track,
    simulate_closed_loop,
    write_trajectory_csv,
)
from .exceptions import NumericConsistencyError, ParameterError
from .stability import outage_tolerance, write_stability_csv


class ConfigError(ParameterError):
    """Invalid or unknown configuration content."""


_SCHEMA = {
    "link": ("bandwidth_hz", "num_agvs", "payload_bytes", "snr_db",
             "snr_linear", "carrier_freq_hz"),
    "gains": ("k_x_per_s", "k_y_per_m", "k_theta_per_m"),
    "track": ("shape", "semi_axis_a_m", "semi_axis_b_m", "start_angle_rad",
              "direction"),
    "sim": ("ts_s", "ts_ms", "trace_time_s", "phi_convention", "margin",
            "seed"),
    "sweep": ("ts_grid_ms", "trace_grid_s"),
}


@dataclass(frozen=True)
class CliConfig:
    """Scenario plus the sweep grids that ride along in the [sweep] section."""

    scenario: ScenarioConfig
    ts_grid: tuple[float, ...] = DEFAULT_TS_GRID
    trace_grid: tuple[float, ...] = DEFAULT_TRACE_GRID


def _float_key(section: dict, sec: str, key: str, default: float, *,
               positive: bool = False, nonnegative: bool = False) -> float:
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{sec}.{key} must be a number, got {raw!r}") from None
    if positive and value <= 0.0:
        raise ConfigError(f"{sec}.{key} must be > 0, got {value}")
    if nonnegative and value < 0.0:
        raise ConfigError(f"{sec}.{key} must be >= 0, got {value}")
    if not math.isfinite(value):
        raise ConfigError(f"{sec}.{key} must be finite, got {value}")
    return value


def _snr_from_db(snr_db: float, name: str) -> float:
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ConfigError(f"{name} is too large, got {snr_db} dB") from None
    if snr == 0.0:    # underflow: no link parameter may be zero
        raise ConfigError(f"{name} is too small, got {snr_db} dB")
    return snr


def _int_key(section: dict, sec: str, key: str, default: int, *,
             minimum: int | None = None) -> int:
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{sec}.{key} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{sec}.{key} must be >= {minimum}, got {value}")
    return value


def _choice_key(section: dict, sec: str, key: str, default: str,
                choices: tuple[str, ...]) -> str:
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        return default
    value = raw.strip()
    if value not in choices:
        raise ConfigError(f"{sec}.{key} must be one of {choices}, got {value!r}")
    return value


def _grid_key(section: dict, sec: str, key: str,
              default: tuple[float, ...], scale: float) -> tuple[float, ...]:
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        return default
    try:
        values = tuple(float(tok) * scale for tok in raw.split(","))
    except ValueError:
        raise ConfigError(
            f"{sec}.{key} must be a comma-separated number list, got {raw!r}"
        ) from None
    return values


def load_config(path: str | None) -> CliConfig:
    """Read an INI config (or None for pure defaults) into a CliConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(
                f"unknown config section [{sec}]; expected one of "
                f"{sorted(_SCHEMA)}")
        for key in parser[sec]:
            if key not in _SCHEMA[sec]:
                raise ConfigError(
                    f"unknown key {sec}.{key}; accepted keys in [{sec}]: "
                    f"{', '.join(_SCHEMA[sec])}")
    sections = {sec: dict(parser[sec]) if parser.has_section(sec) else {}
                for sec in _SCHEMA}

    link_sec = sections["link"]
    if "snr_db" in link_sec and "snr_linear" in link_sec:
        raise ConfigError("link.snr_db and link.snr_linear are mutually "
                          "exclusive; give one")
    if "snr_db" in link_sec:
        avg_snr = _snr_from_db(_float_key(link_sec, "link", "snr_db", 10.0),
                               "link.snr_db")
    else:
        avg_snr = _float_key(link_sec, "link", "snr_linear", 10.0,
                             positive=True)
    payload_bytes = _float_key(link_sec, "link", "payload_bytes", 78.0,
                               positive=True)
    payload_bits = int(round(8.0 * payload_bytes))
    if payload_bits < 1:
        raise ConfigError("link.payload_bytes must round to >= 1 bit")
    link = LinkParams(
        bandwidth_hz=_float_key(link_sec, "link", "bandwidth_hz", 10e6,
                                positive=True),
        num_agvs=_int_key(link_sec, "link", "num_agvs", 50, minimum=1),
        payload_bits=payload_bits,
        avg_snr=avg_snr,
        carrier_freq_hz=_float_key(link_sec, "link", "carrier_freq_hz", 5.9e9,
                                   positive=True))

    gains_sec = sections["gains"]
    gains = Gains(
        k_x=_float_key(gains_sec, "gains", "k_x_per_s", 10.0, positive=True),
        k_y=_float_key(gains_sec, "gains", "k_y_per_m", 6.4e-3, positive=True),
        k_theta=_float_key(gains_sec, "gains", "k_theta_per_m", 0.16,
                           positive=True))

    track_sec = sections["track"]
    axis_b_raw = track_sec.get("semi_axis_b_m", "")
    track = TrackSpec(
        shape=_choice_key(track_sec, "track", "shape", "circle",
                          ("circle", "ellipse")),
        semi_axis_a=_float_key(track_sec, "track", "semi_axis_a_m", 350.0,
                               positive=True),
        semi_axis_b=None if axis_b_raw.strip() == "" else _float_key(
            track_sec, "track", "semi_axis_b_m", 350.0, positive=True),
        start_angle=_float_key(track_sec, "track", "start_angle_rad", math.pi),
        direction=_choice_key(track_sec, "track", "direction", "ccw",
                              ("ccw", "cw")))

    sim_sec = sections["sim"]
    if "ts_s" in sim_sec and "ts_ms" in sim_sec:
        raise ConfigError("sim.ts_s and sim.ts_ms are mutually exclusive; "
                          "give one")
    if "ts_ms" in sim_sec:
        ts = _float_key(sim_sec, "sim", "ts_ms", 1.0, positive=True) * 1e-3
    else:
        ts = _float_key(sim_sec, "sim", "ts_s", 1e-3, positive=True)
    scenario = ScenarioConfig(
        link=link, gains=gains, track=track, ts=ts,
        trace_time=_float_key(sim_sec, "sim", "trace_time_s", 500.0,
                              positive=True),
        phi_convention=_choice_key(sim_sec, "sim", "phi_convention",
                                   "zorzi_sqrt", PHI_CONVENTIONS),
        margin=_float_key(sim_sec, "sim", "margin", 0.0, nonnegative=True),
        seed=_int_key(sim_sec, "sim", "seed", 12345, minimum=0))

    sweep_sec = sections["sweep"]
    return CliConfig(
        scenario=scenario,
        ts_grid=_grid_key(sweep_sec, "sweep", "ts_grid_ms",
                          DEFAULT_TS_GRID, 1e-3),
        trace_grid=_grid_key(sweep_sec, "sweep", "trace_grid_s",
                             DEFAULT_TRACE_GRID, 1.0))


def parse_config(path: str) -> ScenarioConfig:
    """Validated scenario from an INI file (defaults fill absent keys)."""
    return load_config(path).scenario


def emit_config(cfg: ScenarioConfig) -> str:
    """Render a scenario as INI text; parse_config inverts it exactly.

    The SNR and sampling period are written with the lossless keys
    (snr_linear, ts_s) so the round trip is bit-identical; the dB and
    millisecond spellings remain accepted on input.
    """
    lines = [
        "[link]",
        f"bandwidth_hz = {cfg.link.bandwidth_hz!r}",
        f"num_agvs = {cfg.link.num_agvs}",
        f"payload_bytes = {cfg.link.payload_bits / 8.0!r}",
        f"snr_linear = {cfg.link.avg_snr!r}",
        f"carrier_freq_hz = {cfg.link.carrier_freq_hz!r}",
        "",
        "[gains]",
        f"k_x_per_s = {cfg.gains.k_x!r}",
        f"k_y_per_m = {cfg.gains.k_y!r}",
        f"k_theta_per_m = {cfg.gains.k_theta!r}",
        "",
        "[track]",
        f"shape = {cfg.track.shape}",
        f"semi_axis_a_m = {cfg.track.semi_axis_a!r}",
    ]
    if cfg.track.semi_axis_b is not None:
        lines.append(f"semi_axis_b_m = {cfg.track.semi_axis_b!r}")
    lines += [
        f"start_angle_rad = {cfg.track.start_angle!r}",
        f"direction = {cfg.track.direction}",
        "",
        "[sim]",
        f"ts_s = {cfg.ts!r}",
        f"trace_time_s = {cfg.trace_time!r}",
        f"phi_convention = {cfg.phi_convention}",
        f"margin = {cfg.margin!r}",
        f"seed = {cfg.seed}",
        "",
    ]
    return "\n".join(lines)


# --- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agvlink",
        description="Stability and outage analysis of a cloud-controlled AGV "
                    "on a fading downlink.",
        epilog="Precedence: command-line flags override config-file values, "
               "which override built-in defaults.")
    parser.add_argument("--version", action="version",
                        version=f"agvlink {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def common(p: argparse.ArgumentParser, out_default=None) -> None:
        p.add_argument("--config", metavar="PATH",
                       help="INI config file (see module docs for schema)")
        p.add_argument("--ts-ms", type=float, metavar="MS",
                       help="sampling period in milliseconds")
        p.add_argument("--trace-time-s", type=float, metavar="S",
                       help="time to complete one lap of the track")
        p.add_argument("--snr-db", type=float, metavar="DB",
                       help="average link SNR in dB")
        p.add_argument("--seed", type=int, metavar="N",
                       help="base PRNG seed")
        p.add_argument("--margin", type=float, metavar="M",
                       help="stability margin on the spectral radius, 0 <= M < 1")
        p.add_argument("--phi-convention", choices=PHI_CONVENTIONS,
                       help="Marcum-argument convention for p_bb")
        p.add_argument("--out", metavar="PATH", default=out_default,
                       help="output CSV path (default: standard output)")

    p = sub.add_parser("nmax", help="largest tolerable loss run on the track")
    common(p)

    p = sub.add_parser("channel", help="per-slot outage model table")
    common(p)
    p.add_argument("--velocity-mps", type=float, metavar="V",
                   help="vehicle speed for the Doppler term "
                        "(default: track top speed)")
    p.add_argument("--n-list", default="1", metavar="N,N,...",
                   help="loss-run lengths to tabulate (default: 1)")

    p = sub.add_parser("sweep-ts", help="instability sweep over sampling period")
    common(p)
    p.add_argument("--grid-ms", metavar="MS,MS,...",
                   help="sampling-period grid in milliseconds")

    p = sub.add_parser("sweep-trace", help="instability sweep over trace time")
    common(p)
    p.add_argument("--grid-s", metavar="S,S,...",
                   help="trace-time grid in seconds")

    p = sub.add_parser("simulate", help="closed-loop trajectory CSV")
    common(p)
    p.add_argument("--steps", type=int, metavar="K",
                   help="simulation length in samples (default: one lap)")
    p.add_argument("--burst-start", type=int, metavar="K",
                   help="start index of a forced loss burst")
    p.add_argument("--burst-len", type=int, metavar="N",
                   help="length of the forced loss burst")
    p.add_argument("--sample-outages", action="store_true",
                   help="draw losses from the fading model instead")

    p = sub.add_parser("montecarlo", help="empirical instability frequency")
    common(p)
    p.add_argument("--runs", type=int, default=100, metavar="R",
                   help="number of independent traces (default: 100)")
    p.add_argument("--cosimulate", action="store_true",
                   help="drive the closed loop with each sampled trace")

    return parser


def _scenario_from_args(args: argparse.Namespace) -> tuple[ScenarioConfig,
                                                           CliConfig]:
    cli_cfg = load_config(getattr(args, "config", None))
    scenario = cli_cfg.scenario
    overrides = {}
    if getattr(args, "ts_ms", None) is not None:
        if not 0.0 < args.ts_ms < math.inf:
            raise ConfigError(f"--ts-ms must be > 0 and finite, got {args.ts_ms}")
        overrides["ts"] = args.ts_ms * 1e-3
    if getattr(args, "trace_time_s", None) is not None:
        if not 0.0 < args.trace_time_s < math.inf:
            raise ConfigError("--trace-time-s must be > 0 and finite, "
                              f"got {args.trace_time_s}")
        overrides["trace_time"] = args.trace_time_s
    if getattr(args, "snr_db", None) is not None:
        if not math.isfinite(args.snr_db):
            raise ConfigError(f"--snr-db must be finite, got {args.snr_db}")
        overrides["link"] = replace(
            scenario.link, avg_snr=_snr_from_db(args.snr_db, "--snr-db"))
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "margin", None) is not None:
        if not 0.0 <= args.margin < 1.0:
            raise ConfigError("--margin must lie in [0, 1)")
        overrides["margin"] = args.margin
    if getattr(args, "phi_convention", None) is not None:
        overrides["phi_convention"] = args.phi_convention
    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario, cli_cfg


def _out_handle(args: argparse.Namespace):
    return args.out if args.out is not None else sys.stdout


def _parse_flag_grid(raw: str, name: str, scale: float) -> tuple[float, ...]:
    try:
        return tuple(float(tok) * scale for tok in raw.split(","))
    except ValueError:
        raise ConfigError(
            f"{name} must be a comma-separated number list, got {raw!r}"
        ) from None


def _cmd_nmax(args: argparse.Namespace) -> int:
    scenario, _ = _scenario_from_args(args)
    track = build_reference_track(scenario.track, scenario.trace_time,
                                  scenario.ts)
    report = outage_tolerance(track, scenario.gains, scenario.margin)
    if args.out is not None:
        write_stability_csv(report, args.out)
    print(report.n_max)
    return 0


def _cmd_channel(args: argparse.Namespace) -> int:
    scenario, _ = _scenario_from_args(args)
    if args.velocity_mps is not None:
        if args.velocity_mps < 0:
            raise ConfigError("--velocity-mps must be >= 0")
        velocity = args.velocity_mps
    else:
        track = build_reference_track(scenario.track, scenario.trace_time,
                                      scenario.ts)
        velocity = track.max_speed
    try:
        n_list = [int(tok) for tok in args.n_list.split(",")]
    except ValueError:
        raise ConfigError(f"--n-list must be comma-separated integers, "
                          f"got {args.n_list!r}") from None
    if any(n < 1 for n in n_list):
        raise ConfigError("--n-list entries must be >= 1")
    model = build_outage_model(scenario.link, scenario.ts, velocity,
                               scenario.phi_convention)
    rate = spectral_efficiency(scenario.link.payload_bits,
                               scenario.link.num_agvs, scenario.ts,
                               scenario.link.bandwidth_hz)
    with csv_sink(_out_handle(args)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "R", "gamma_th", "rho", "phi", "P1", "Pbb",
                         "Pe(n)"])
        for n in n_list:
            writer.writerow([n, repr(rate), repr(model.gamma_th),
                             repr(model.rho), repr(model.phi),
                             repr(model.p1), repr(model.p_bb),
                             repr(consecutive_outage_prob(
                                 n, model.p1, model.p_bb))])
    return 0


def _cmd_sweep_ts(args: argparse.Namespace) -> int:
    scenario, cli_cfg = _scenario_from_args(args)
    grid = cli_cfg.ts_grid
    if args.grid_ms is not None:
        grid = _parse_flag_grid(args.grid_ms, "--grid-ms", 1e-3)
    result = sweep_sampling_time(scenario, grid)
    write_sweep_csv(result, _out_handle(args))
    return 0


def _cmd_sweep_trace(args: argparse.Namespace) -> int:
    scenario, cli_cfg = _scenario_from_args(args)
    grid = cli_cfg.trace_grid
    if args.grid_s is not None:
        grid = _parse_flag_grid(args.grid_s, "--grid-s", 1.0)
    result = sweep_trace_time(scenario, grid)
    write_sweep_csv(result, _out_handle(args))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario, _ = _scenario_from_args(args)
    track = build_reference_track(scenario.track, scenario.trace_time,
                                  scenario.ts)
    steps = args.steps if args.steps is not None else track.n_steps
    if steps < 1:
        raise ConfigError("--steps must be >= 1")
    if args.sample_outages and (args.burst_len is not None
                                or args.burst_start is not None):
        raise ConfigError("--sample-outages excludes --burst-len and "
                          "--burst-start")
    if args.sample_outages:
        model = build_outage_model(scenario.link, scenario.ts,
                                   track.max_speed, scenario.phi_convention)
        schedule = sample_outage_sequence(model.rho, model.gamma_th, steps,
                                          scenario.seed)
    else:
        schedule = np.zeros(steps, dtype=bool)
        if args.burst_len is not None:
            if args.burst_len < 1:
                raise ConfigError("--burst-len must be >= 1")
            start = args.burst_start if args.burst_start is not None else 1
            if start < 0 or start >= steps:
                raise ConfigError("--burst-start must lie inside the run")
            schedule[start:start + args.burst_len] = True
        elif args.burst_start is not None:
            raise ConfigError("--burst-start requires --burst-len")
    traj = simulate_closed_loop(track, scenario.gains, schedule)
    write_trajectory_csv(traj, track, _out_handle(args))
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    scenario, _ = _scenario_from_args(args)
    if args.runs < 1:
        raise ConfigError("--runs must be >= 1")
    result = montecarlo_instability(scenario, args.runs,
                                    cosimulate=args.cosimulate)
    write_montecarlo_csv(result, _out_handle(args))
    if args.out is not None:
        print(f"unstable {result.unstable_count}/{result.runs} "
              f"frequency={result.frequency!r} "
              f"ci95=[{result.ci_low!r}, {result.ci_high!r}] "
              f"n_max={result.point.n_max}")
    return 0


_COMMANDS = {
    "nmax": _cmd_nmax,
    "channel": _cmd_channel,
    "sweep-ts": _cmd_sweep_ts,
    "sweep-trace": _cmd_sweep_trace,
    "simulate": _cmd_simulate,
    "montecarlo": _cmd_montecarlo,
}


def dispatch(args: argparse.Namespace) -> int:
    """Run the selected subcommand; exceptions map to exit codes in main()."""
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required "
              f"(one of: {', '.join(_COMMANDS)})", file=sys.stderr)
        return 2
    try:
        return dispatch(args)
    except ParameterError as exc:          # includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericConsistencyError, ArithmeticError, LookupError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
