"""Command-line front end: config ingestion, subcommands, CSV emission.

Config files are INI with unit-suffixed keys; every key is optional and
falls back to the built-in factory defaults (10 MHz shared by 50 vehicles,
78-byte commands, 10 dB average SNR, gains 10 / 0.0064 / 0.16, circular
350 m track traced in 500 s at 1 ms slots). This file spells them all out:

    [link]
    bandwidth_hz = 10000000.0
    num_agvs = 50
    payload_bytes = 78.0
    ; flag --snr-db
    snr_db = 10.0
    carrier_freq_hz = 5900000000.0

    [gains]
    k_x_per_s = 10.0
    k_y_per_m = 0.0064
    k_theta_per_m = 0.16

    [track]
    ; or ellipse
    shape = circle
    semi_axis_a_m = 350.0
    ; ellipse only (a circle refuses it); defaults to semi_axis_a_m
    ; semi_axis_b_m = 200.0

    [sim]
    ; flag --ts-ms
    ts_ms = 1.0
    ; flag --trace-time-s
    trace_time_s = 500.0
    ; or paper_literal; flag --phi-convention
    phi_convention = zorzi_sqrt
    ; 0 <= margin < 1; flag --margin
    margin = 0.0
    ; flag --seed
    seed = 12345

    [sweep]
    ; defaults to 1 to 10 ms in steps of 0.5; flag --grid-ms
    ; ts_grid_ms = 1.0, 1.5, 2.0
    ; flag --grid-s
    trace_grid_s = 20, 100, 333, 500, 1000

Unknown sections or keys are rejected with a diagnostic naming the key. Each
flag shared by the subcommands is the key it names: the same parser checks
both, and the flag's value replaces the file's. The subcommand-only options
(--velocity-mps, --n-list, --steps, --burst-start, --burst-len, --runs) go
through the same family of parsers, so every option is checked once and a
bad value is reported with its flag's name. Exit codes: 0 success (including
sweeps with flagged failure rows, each also reported on standard error), 1
when the reader of standard output goes away before the output is written,
2 for configuration or usage errors, 3 for internal consistency violations.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from ._io import write_table
from ._version import __version__
from .analysis import (
    DEFAULT_TRACE_GRID,
    DEFAULT_TS_GRID,
    ScenarioConfig,
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
    doppler_shift,
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
from .exceptions import ParameterError
from .stability import outage_tolerance, write_stability_csv


class ConfigError(ParameterError):
    """Invalid or unknown configuration content."""


def _number(raw: str, name: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _positive(raw: str, name: str) -> float:
    value = _number(raw, name)
    if value <= 0.0:
        raise ConfigError(f"{name} must be > 0, got {value}")
    return value


def _nonnegative(raw: str, name: str) -> float:
    value = _number(raw, name)
    if value < 0.0:
        raise ConfigError(f"{name} must be >= 0, got {value}")
    return value


def _margin(raw: str, name: str) -> float:
    value = _number(raw, name)
    if not 0.0 <= value < 1.0:
        raise ConfigError(f"{name} must lie in [0, 1), got {value}")
    return value


def _payload_bits(raw: str, name: str) -> int:
    bits = int(round(8.0 * _positive(raw, name)))
    if bits < 1:
        raise ConfigError(f"{name} must round to >= 1 bit")
    return bits


def _snr_db(raw: str, name: str) -> float:
    snr_db = _number(raw, name)
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ConfigError(f"{name} is too large, got {snr_db} dB") from None
    if snr < sys.float_info.min:    # underflow to zero or a subnormal
        raise ConfigError(f"{name} is too small, got {snr_db} dB")
    return snr


def _integer(minimum: int):
    def parse(raw: str, name: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")
        return value
    return parse


def _choice(*choices: str):
    def parse(raw: str, name: str) -> str:
        if raw not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {raw!r}")
        return raw
    return parse


def _grid(scale: float):
    def parse(raw: str, name: str) -> tuple[float, ...]:
        try:
            return tuple(float(tok) * scale for tok in raw.split(","))
        except ValueError:
            raise ConfigError(f"{name} must be a comma-separated number list, "
                              f"got {raw!r}") from None
    return parse


def _counts(raw: str, name: str) -> list[int]:
    return [_integer(1)(tok, name) for tok in raw.split(",")]


@dataclass(frozen=True)
class CliConfig:
    """Scenario plus the sweep grids that ride along in the [sweep] section."""

    scenario: ScenarioConfig
    ts_grid: tuple[float, ...] = DEFAULT_TS_GRID
    trace_grid: tuple[float, ...] = DEFAULT_TRACE_GRID


# section -> key -> (dataclass, field, parser)
_SCHEMA = {
    "link": {"bandwidth_hz": (LinkParams, "bandwidth_hz", _positive),
             "num_agvs": (LinkParams, "num_agvs", _integer(1)),
             "payload_bytes": (LinkParams, "payload_bits", _payload_bits),
             "snr_db": (LinkParams, "avg_snr", _snr_db),
             "carrier_freq_hz": (LinkParams, "carrier_freq_hz", _positive)},
    "gains": {"k_x_per_s": (Gains, "k_x", _positive),
              "k_y_per_m": (Gains, "k_y", _positive),
              "k_theta_per_m": (Gains, "k_theta", _positive)},
    "track": {"shape": (TrackSpec, "shape", _choice("circle", "ellipse")),
              "semi_axis_a_m": (TrackSpec, "semi_axis_a", _positive),
              "semi_axis_b_m": (TrackSpec, "semi_axis_b", _positive)},
    "sim": {"ts_ms": (ScenarioConfig, "ts",
                      lambda raw, name: _positive(raw, name) * 1e-3),
            "trace_time_s": (ScenarioConfig, "trace_time", _positive),
            "phi_convention": (ScenarioConfig, "phi_convention",
                               _choice(*PHI_CONVENTIONS)),
            "margin": (ScenarioConfig, "margin", _margin),
            "seed": (ScenarioConfig, "seed", _integer(0))},
    "sweep": {"ts_grid_ms": (CliConfig, "ts_grid", _grid(1e-3)),
              "trace_grid_s": (CliConfig, "trace_grid", _grid(1.0))},
}

def _read_values(path: str | None) -> dict:
    """{(dataclass, field): parsed value} for each non-blank key in the file."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
    values = {}
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(
                f"unknown config section [{sec}]; expected one of "
                f"{sorted(_SCHEMA)}")
        for key, raw in parser[sec].items():
            if key not in _SCHEMA[sec]:
                raise ConfigError(
                    f"unknown key {sec}.{key}; accepted keys in [{sec}]: "
                    f"{', '.join(_SCHEMA[sec])}")
            cls, field, parse = _SCHEMA[sec][key]
            if raw:
                values[cls, field] = parse(raw, f"{sec}.{key}")
    return values


def _build(values: dict) -> CliConfig:
    def make(cls, **parts):
        return cls(**parts, **{f: v for (c, f), v in values.items() if c is cls})
    return make(CliConfig, scenario=make(
        ScenarioConfig, link=make(LinkParams), gains=make(Gains),
        track=make(TrackSpec)))


def load_config(path: str | None) -> CliConfig:
    """Read an INI config (or None for pure defaults) into a CliConfig."""
    return _build(_read_values(path))


# --- command line ------------------------------------------------------------

# flag -> (checker, metavar, help). The checker is the (section, key) of the
# config key the flag stands for, or the parser of a subcommand-only value;
# None takes the value as given (a path). A flag without a metavar is a switch.
_SHARED = {
    "--config": (None, "PATH", "INI config file (see module docs for schema)"),
    "--ts-ms": (("sim", "ts_ms"), "MS", "sampling period in milliseconds"),
    "--trace-time-s": (("sim", "trace_time_s"), "S",
                       "time to complete one lap of the track"),
    "--snr-db": (("link", "snr_db"), "DB", "average link SNR in dB"),
    "--seed": (("sim", "seed"), "N", "base PRNG seed"),
    "--margin": (("sim", "margin"), "M",
                 "stability margin on the spectral radius, 0 <= M < 1"),
    "--phi-convention": (("sim", "phi_convention"),
                         "{" + ",".join(PHI_CONVENTIONS) + "}",
                         "Marcum-argument convention for p_bb"),
    "--out": (None, "PATH", "output CSV path (default: standard output)"),
}


def _parse(args: argparse.Namespace, options: dict) -> CliConfig:
    """Check each given option under its flag name.

    A config key's flag replaces the --config file's value for that key's
    field; any other option's parsed value replaces its string in `args`.
    """
    values = _read_values(args.config)
    for flag, (check, _, _) in options.items():
        dest = flag[2:].replace("-", "_")
        raw = getattr(args, dest)
        if check is None or raw is None:
            continue
        if isinstance(check, tuple):
            cls, field, parse = _SCHEMA[check[0]][check[1]]
            values[cls, field] = parse(raw, flag)
        else:
            setattr(args, dest, check(raw, flag))
    return _build(values)


def _out_handle(args: argparse.Namespace):
    return args.out if args.out is not None else sys.stdout


def _cmd_nmax(cfg: CliConfig, args: argparse.Namespace) -> int:
    scenario = cfg.scenario
    track = build_reference_track(scenario.track, scenario.trace_time,
                                  scenario.ts)
    report = outage_tolerance(track, scenario.gains, scenario.margin)
    if args.out is not None:
        write_stability_csv(report, args.out)
    print(report.n_max)
    return 0


def _cmd_channel(cfg: CliConfig, args: argparse.Namespace) -> int:
    scenario = cfg.scenario
    if args.velocity_mps is not None:
        velocity = args.velocity_mps
        f_c = scenario.link.carrier_freq_hz
        if not math.isfinite(doppler_shift(velocity, f_c)):
            raise ConfigError(f"--velocity-mps must give a finite Doppler "
                              f"shift at {f_c} Hz, got {velocity}")
    else:
        track = build_reference_track(scenario.track, scenario.trace_time,
                                      scenario.ts)
        velocity = track.max_speed
    model = build_outage_model(scenario.link, scenario.ts, velocity,
                               scenario.phi_convention)
    rate = spectral_efficiency(scenario.link.payload_bits,
                               scenario.link.num_agvs, scenario.ts,
                               scenario.link.bandwidth_hz)
    rows = [(n, rate, model.gamma_th, model.rho, model.phi, model.p1,
             model.p_bb, consecutive_outage_prob(n, model.p1, model.p_bb))
            for n in args.n_list or [1]]
    write_table(_out_handle(args),
                ["n", "R", "gamma_th", "rho", "phi", "P1", "Pbb", "Pe(n)"], rows)
    return 0


def _cmd_sweep(cfg: CliConfig, args: argparse.Namespace) -> int:
    if args.command == "sweep-ts":
        result = sweep_sampling_time(cfg.scenario, cfg.ts_grid)
    else:
        result = sweep_trace_time(cfg.scenario, cfg.trace_grid)
    write_sweep_csv(result, _out_handle(args))
    for row in result.rows:
        if row.message:
            print(f"warning: {result.axis} = {getattr(row, result.axis)!r}: "
                  f"{row.flags}: {row.message}", file=sys.stderr)
    return 0


def _cmd_simulate(cfg: CliConfig, args: argparse.Namespace) -> int:
    scenario = cfg.scenario
    track = build_reference_track(scenario.track, scenario.trace_time,
                                  scenario.ts)
    steps = args.steps if args.steps is not None else track.n_steps
    if args.sample_outages and (args.burst_len is not None
                                or args.burst_start is not None):
        raise ConfigError("--sample-outages excludes --burst-len and "
                          "--burst-start")
    if args.sample_outages:
        model = build_outage_model(scenario.link, scenario.ts,
                                   track.max_speed, scenario.phi_convention)
    # a schedule (1 byte per step) beyond numpy's largest size (ValueError)
    # or beyond the memory left (MemoryError), or a trajectory (65 bytes per
    # step) beyond the memory left, makes the run too long to simulate
    too_long = (f"--steps must fit in memory, got {steps}"
                if args.steps is not None else
                f"--trace-time-s / --ts-ms must give a lap that fits in "
                f"memory, got {steps} steps")
    try:
        schedule = (sample_outage_sequence(model.rho, model.gamma_th, steps,
                                           scenario.seed)
                    if args.sample_outages else np.zeros(steps, dtype=bool))
    except ParameterError:
        raise
    except (MemoryError, ValueError):
        raise ConfigError(too_long) from None
    if args.burst_len is not None:
        start = args.burst_start if args.burst_start is not None else 1
        if start >= steps:
            raise ConfigError("--burst-start must lie inside the run")
        if start + args.burst_len > steps:
            raise ConfigError(
                f"--burst-len must end inside the run of {steps} steps, "
                f"got {args.burst_len} from step {start}")
        schedule[start:start + args.burst_len] = True
    elif args.burst_start is not None:
        raise ConfigError("--burst-start requires --burst-len")
    try:
        traj = simulate_closed_loop(track, scenario.gains, schedule)
    except MemoryError:
        raise ConfigError(too_long) from None
    write_trajectory_csv(traj, track, _out_handle(args))
    return 0


def _cmd_montecarlo(cfg: CliConfig, args: argparse.Namespace) -> int:
    result = montecarlo_instability(cfg.scenario, args.runs or 100,
                                    cosimulate=args.cosimulate)
    write_montecarlo_csv(result, _out_handle(args))
    if args.out is not None:
        print(f"unstable {result.unstable_count}/{result.runs} "
              f"frequency={result.frequency!r} "
              f"ci95=[{result.ci_low!r}, {result.ci_high!r}] "
              f"n_max={result.point.n_max}")
    return 0


# subcommand -> (handler, help, its own options after the shared ones)
_COMMANDS = {
    "nmax": (_cmd_nmax, "largest tolerable loss run on the track", {}),
    "channel": (_cmd_channel, "per-slot outage model table", {
        "--velocity-mps": (_nonnegative, "V",
                           "vehicle speed for the Doppler term "
                           "(default: track top speed)"),
        "--n-list": (_counts, "N,N,...",
                     "loss-run lengths to tabulate (default: 1)")}),
    "sweep-ts": (_cmd_sweep, "instability sweep over sampling period", {
        "--grid-ms": (("sweep", "ts_grid_ms"), "MS,MS,...",
                      "sampling-period grid in milliseconds")}),
    "sweep-trace": (_cmd_sweep, "instability sweep over trace time", {
        "--grid-s": (("sweep", "trace_grid_s"), "S,S,...",
                     "trace-time grid in seconds")}),
    "simulate": (_cmd_simulate, "closed-loop trajectory CSV", {
        "--steps": (_integer(1), "K",
                    "simulation length in samples (default: one lap)"),
        "--burst-start": (_integer(1), "K",
                          "start index of a forced loss burst, >= 1 "
                          "(default: 1)"),
        "--burst-len": (_integer(1), "N", "length of the forced loss burst"),
        "--sample-outages": (None, None,
                             "draw losses from the fading model instead")}),
    "montecarlo": (_cmd_montecarlo, "empirical instability frequency", {
        "--runs": (_integer(1), "R",
                   "number of independent traces (default: 100)"),
        "--cosimulate": (None, None,
                         "drive the closed loop with each sampled trace")}),
}


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
    for name, (_, summary, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, (_, metavar, text) in {**_SHARED, **own}.items():
            if metavar is None:
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, metavar=metavar, help=text)
    return parser


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
    handler, _, own = _COMMANDS[args.command]
    try:
        code = handler(_parse(args, {**_SHARED, **own}), args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of standard output is gone. Point it at devnull so that
        # the flush at exit cannot fail again, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ParameterError as exc:          # includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a writer could not open the --out path; other failures propagate
        if args.out is None or exc.filename != args.out:
            raise
        print(f"error: cannot write --out {args.out}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except (ArithmeticError, LookupError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
