"""CLI tests: config ingestion, flag precedence, subcommands, exit codes.

Everything runs through `main(argv)` in-process so exit codes and the exact
stdout/stderr bytes are observable. Two tests run a subprocess: one so that
the memory limit it lowers is not the test process's own, one so that its
standard output can be a pipe nobody reads.
"""

import argparse
import ast
import inspect
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import agvlink
from agvlink import (
    DEFAULT_TRACE_GRID,
    DEFAULT_TS_GRID,
    Gains,
    NumericConsistencyError,
    ScenarioConfig,
    TrackSpec,
    build_reference_track,
    outage_tolerance,
)
from agvlink import analysis, channel, cli, control, exceptions, stability
from agvlink.cli import CliConfig, ConfigError, load_config, main

from conftest import needs_fork, package_env


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config loading ----------------------------------------------------------

def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg == CliConfig(ScenarioConfig())
    assert cfg.ts_grid == DEFAULT_TS_GRID
    assert cfg.trace_grid == DEFAULT_TRACE_GRID


def test_docstring_config_block_is_the_defaults(tmp_path):
    # the INI block in the module docs is a loadable file of the defaults
    doc = cli.__doc__
    block = textwrap.dedent(doc[doc.index("    [link]"):doc.index("\nUnknown")])
    cfg = load_config(write(tmp_path, block))
    assert cfg.scenario == ScenarioConfig()
    assert cfg.trace_grid == DEFAULT_TRACE_GRID
    assert cfg == CliConfig(ScenarioConfig())


def test_flags_keys_and_docs_do_not_drift():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, p in subparsers.choices.items():
        options = {**cli._SHARED, **cli._COMMANDS[name][2]}
        for action in p._actions:
            flag = action.option_strings[0]
            if flag in ("-h", "--config", "--out") or action.nargs == 0:
                continue
            check = options[flag][0]
            assert check is not None, (name, flag)
            if isinstance(check, tuple):
                sec, key = check
                assert key in cli._SCHEMA[sec], (name, flag)
    for keys in cli._SCHEMA.values():
        for key in keys:
            assert re.search(rf"\b{key}\b", cli.__doc__), key


def test_load_config_empty_file_is_defaults(tmp_path):
    assert load_config(write(tmp_path, "")).scenario == ScenarioConfig()


def test_load_config_conversions(tmp_path):
    text = """
[link]
snr_db = 20.0
payload_bytes = 39

[sim]
ts_ms = 2.5
trace_time_s = 200.0
"""
    cfg = load_config(write(tmp_path, text)).scenario
    assert cfg.link.avg_snr == pytest.approx(100.0, rel=1e-15)
    assert cfg.link.payload_bits == 312
    assert cfg.ts == pytest.approx(2.5e-3, rel=1e-15)
    assert cfg.trace_time == 200.0
    # the keys without a unit conversion are read back bit for bit
    text = """
[link]
bandwidth_hz = 20000000.0
num_agvs = 7
carrier_freq_hz = 2400000000.0
"""
    cfg = load_config(write(tmp_path, text)).scenario
    assert cfg.link == replace(ScenarioConfig().link, bandwidth_hz=2e7,
                               num_agvs=7, carrier_freq_hz=2.4e9)


def test_load_config_ellipse_and_gains(tmp_path):
    text = """
[gains]
k_x_per_s = 5.0
k_y_per_m = 0.01
k_theta_per_m = 0.2

[track]
shape = ellipse
semi_axis_a_m = 350.0
semi_axis_b_m = 200.0

[sim]
phi_convention = paper_literal
margin = 0.001
seed = 42
"""
    cfg = load_config(write(tmp_path, text)).scenario
    assert cfg.gains == Gains(k_x=5.0, k_y=0.01, k_theta=0.2)
    assert cfg.track.shape == "ellipse"
    assert cfg.track.semi_axis_b == 200.0
    assert cfg.phi_convention == "paper_literal"
    assert cfg.margin == 1e-3
    assert cfg.seed == 42


def test_load_config_sweep_grids(tmp_path):
    text = """
[sweep]
ts_grid_ms = 1.0, 1.5, 2.0
trace_grid_s = 20, 100
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.ts_grid == pytest.approx((1e-3, 1.5e-3, 2e-3))
    assert cfg.trace_grid == (20.0, 100.0)


def test_load_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match=r"link\.bandwidth_mhz"):
        load_config(write(tmp_path, "[link]\nbandwidth_mhz = 10\n"))
    with pytest.raises(ConfigError, match=r"\[made_up\]"):
        load_config(write(tmp_path, "[made_up]\nfoo = 1\n"))
    # keys that are no longer read fail loudly and name the accepted ones
    for sec, key, accepted in (("sim", "ts_s", "ts_ms"),
                               ("link", "snr_linear", "snr_db"),
                               ("track", "start_angle_rad", "semi_axis_a_m"),
                               ("track", "direction", "shape")):
        with pytest.raises(ConfigError, match=rf"unknown key {sec}\.{key}; "
                           rf"accepted keys in \[{sec}\]: .*\b{accepted}\b"):
            load_config(write(tmp_path, f"[{sec}]\n{key} = 1\n"))


def test_load_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError, match=r"link\.bandwidth_hz"):
        load_config(write(tmp_path, "[link]\nbandwidth_hz = 0\n"))
    with pytest.raises(ConfigError, match="must be a number"):
        load_config(write(tmp_path, "[sim]\ntrace_time_s = fast\n"))
    with pytest.raises(ConfigError, match="must be an integer"):
        load_config(write(tmp_path, "[sim]\nseed = 1.5\n"))
    with pytest.raises(ConfigError, match=r"sim\.seed must be >= 0"):
        load_config(write(tmp_path, "[sim]\nseed = -5\n"))
    with pytest.raises(ConfigError, match=r"sim\.margin must lie in \[0, 1\)"):
        load_config(write(tmp_path, "[sim]\nmargin = 1.5\n"))
    with pytest.raises(ConfigError, match="must be one of"):
        load_config(write(tmp_path, "[track]\nshape = square\n"))
    with pytest.raises(ConfigError, match="must be one of"):
        load_config(write(tmp_path, "[sim]\nphi_convention = bogus\n"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.ini"))


# --- exit codes --------------------------------------------------------------

def test_main_requires_subcommand(capsys):
    assert main([]) == 2
    assert "subcommand is required" in capsys.readouterr().err


def test_main_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_main_version(capsys):
    assert main(["--version"]) == 0
    assert "agvlink" in capsys.readouterr().out


def test_package_all_names_unique_and_resolvable():
    modules = (control, stability, channel, analysis, exceptions)
    assert agvlink.__all__ == ["__version__",
                               *(name for m in modules for name in m.__all__)]
    assert len(set(agvlink.__all__)) == len(agvlink.__all__)
    for module in modules:
        # every public def and class is listed where it is defined
        tree = ast.parse(inspect.getsource(module))
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")}
        assert defined <= set(module.__all__), (module.__name__, defined)
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(agvlink, name) is obj, name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def test_every_public_name_is_read_outside_the_tests():
    # a public name that no code of the package or of the benchmark reads is
    # API that only the tests use; a name counts where it is loaded, as a
    # name or an attribute, not where it is defined or listed in __all__
    sources = [*Path(agvlink.__file__).parent.glob("*.py"),
               *(Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")]
    loaded = set()
    for path in sources:
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert [name for name in agvlink.__all__ if name not in loaded] == []


def test_main_config_error_is_exit_2(tmp_path, capsys):
    path = write(tmp_path, "[link]\nwat = 1\n")
    assert main(["nmax", "--config", path]) == 2
    assert "link.wat" in capsys.readouterr().err
    # a billion vehicles pass the key check; the 2**R they need overflows
    path = write(tmp_path, "[link]\nnum_agvs = 1000000000\n")
    assert main(["channel", "--config", path]) == 2
    assert "not finite" in capsys.readouterr().err
    # a semi-axis so small that the track's turn rates are 0 / 0
    path = write(tmp_path, "[track]\nsemi_axis_a_m = 1e-320\n")
    for args in (["nmax"], ["simulate"], ["montecarlo", "--cosimulate"]):
        assert main(args + ["--config", path, "--trace-time-s", "20"]) == 2
        assert "track semi-axes 1e-320" in capsys.readouterr().err, args
    # a circle takes no second semi-axis
    path = write(tmp_path, "[track]\nshape = circle\nsemi_axis_b_m = 200\n")
    assert main(["simulate", "--config", path, "--trace-time-s", "20",
                 "--ts-ms", "4"]) == 2
    assert "semi_axis_b is for an ellipse" in capsys.readouterr().err
    # an --out path that cannot be opened is named, and nothing is written
    out = tmp_path / "missing" / "x.csv"
    for args in (["nmax"], ["channel"], ["sweep-trace", "--grid-s", "2"],
                 ["simulate"], ["montecarlo", "--runs", "2"]):
        assert main(args + ["--trace-time-s", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: cannot write --out {out}: "
                                "No such file or directory\n"), args
        assert captured.out == "", args


def test_main_bad_flag_values_exit_2(capsys):
    # a margin of 1 or more is refused with the flags, before any search
    assert main(["sweep-ts", "--margin", "1.5", "--trace-time-s", "2"]) == 2
    assert "--margin" in capsys.readouterr().err
    assert main(["nmax", "--ts-ms", "-1", "--trace-time-s", "2"]) == 2
    assert main(["nmax", "--margin", "-0.5", "--trace-time-s", "2"]) == 2
    assert main(["montecarlo", "--runs", "0", "--trace-time-s", "2"]) == 2
    capsys.readouterr()
    assert main(["montecarlo", "--seed", "-1", "--trace-time-s", "2"]) == 2
    assert "--seed" in capsys.readouterr().err
    # non-finite periods, lap times and SNRs are refused by name
    for flag, args in (("--ts-ms", ["nmax", "--ts-ms", "nan"]),
                       ("--ts-ms", ["nmax", "--ts-ms", "inf"]),
                       ("--trace-time-s", ["nmax", "--trace-time-s", "nan"]),
                       ("--trace-time-s", ["nmax", "--trace-time-s", "inf"]),
                       ("--snr-db", ["nmax", "--snr-db", "nan",
                                     "--trace-time-s", "2"]),
                       ("--snr-db", ["channel", "--snr-db", "inf"])):
        assert main(args) == 2, args
        assert flag in capsys.readouterr().err, args
    # a non-finite grid entry is refused before any point is evaluated
    assert main(["sweep-ts", "--grid-ms", "1,nan", "--trace-time-s", "2"]) == 2
    assert main(["sweep-trace", "--grid-s", "2,inf"]) == 2
    assert "grid values must be positive and finite" in capsys.readouterr().err
    # a period so short that the lap has no finite step count, and one whose
    # rate overflows 2**R, are refused rather than failing in the arithmetic
    assert main(["nmax", "--ts-ms", "1e-320"]) == 2
    assert "not a finite step count" in capsys.readouterr().err
    # one-step laps so short that the turn rate overflows: its cube alone,
    # or its cube times the semi-axes
    for trace_time, ts_ms, ts in (("1e-300", "1e-297", "1e-300"),
                                  ("1e-101", "1e-98", "9.999999999999999e-102")):
        for command in ("nmax", "channel", "simulate"):
            assert main([command, "--ts-ms", ts_ms,
                         "--trace-time-s", trace_time]) == 2
            assert capsys.readouterr().err == (
                f"error: track semi-axes 350.0 and 350.0 m at trace_time / ts "
                f"= {trace_time} / {ts} give a speed or turn rate that is not "
                "finite\n"), command
    assert main(["channel", "--ts-ms", "1e-6", "--velocity-mps", "1"]) == 2
    assert "not finite" in capsys.readouterr().err
    # a lap of more steps than numpy can index is refused; 1e15 steps are not
    assert main(["nmax", "--trace-time-s", "1e20"]) == 2
    assert "too many to sample" in capsys.readouterr().err
    assert main(["nmax", "--trace-time-s", "1e12"]) == 0
    assert capsys.readouterr().err == ""
    # subcommand-only options go through the same parsers, under their names
    for flag, args in (("--velocity-mps", ["channel", "--velocity-mps", "nan"]),
                       ("--velocity-mps", ["channel", "--velocity-mps", "inf"]),
                       ("--runs", ["montecarlo", "--runs", "x"]),
                       ("--steps", ["simulate", "--steps", "x"]),
                       ("--burst-len", ["simulate", "--burst-len", "x"]),
                       ("--n-list", ["channel", "--n-list", "1,x"])):
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert f"error: {flag} must " in err and "usage" not in err, args
    # values that pass their parser but overflow what they feed: a Doppler
    # shift, and a loss schedule numpy refuses before it allocates anything
    huge = str(10 ** 20)
    lap_too_long = ("--trace-time-s / --ts-ms must give a lap that fits in "
                    "memory, got 1000000000000000 steps")
    for args, want in (
            (["channel", "--velocity-mps", "1e308"],
             "--velocity-mps must give a finite Doppler shift at "
             "5900000000.0 Hz, got 1e+308"),
            (["simulate", "--trace-time-s", "2", "--steps", huge],
             f"--steps must fit in memory, got {huge}"),
            (["simulate", "--trace-time-s", "2", "--steps", huge,
              "--sample-outages"], f"--steps must fit in memory, got {huge}"),
            # without --steps the run is one lap, which the message names
            (["simulate", "--trace-time-s", "1e12"], lap_too_long),
            (["simulate", "--trace-time-s", "1e12", "--sample-outages"],
             lap_too_long)):
        assert main(args) == 2, args
        assert f"error: {want}" in capsys.readouterr().err, args


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm and relies on RLIMIT_AS")
def test_simulate_trajectory_beyond_memory_exits_2():
    # 50 M steps: the loss schedule (50 MB) fits in 1 GiB more than the
    # child has mapped after its imports, the trajectory (3.25 GB) does not
    code = textwrap.dedent("""
        import os, resource, sys
        from agvlink.cli import main
        with open("/proc/self/statm") as fh:
            mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        limit = mapped + (1 << 30)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        sys.exit(main(["simulate", "--trace-time-s", "2",
                       "--steps", "50000000"]))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          text=True, capture_output=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: --steps must fit in memory, got 50000000\n"


ELLIPSE = "[track]\nshape = ellipse\nsemi_axis_a_m = 350\nsemi_axis_b_m = 200\n"


def test_long_lap_is_read_not_sampled(tmp_path, capsys):
    # a lap of 1e15 steps: the analytic commands read a few of its steps,
    # while a Monte-Carlo run would sample every slot and is refused before
    # a share is forked
    for config in ([], ["--config", write(tmp_path, ELLIPSE)]):
        for args in (["nmax", "--trace-time-s", "1e12"],
                     ["channel", "--trace-time-s", "1e12"],
                     ["sweep-trace", "--grid-s", "1e12"]):
            assert main(args + config) == 0, args + config
            out, err = capsys.readouterr()
            assert err == "" and "error:" not in out, args + config
    for cosimulate in ([], ["--cosimulate"]):
        assert main(["montecarlo", "--trace-time-s", "1e12", "--runs", "2",
                     *cosimulate]) == 2
        assert capsys.readouterr().err == (
            "error: a run of 1000000000000000 slots is too many to sample\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm and relies on RLIMIT_AS")
def test_nmax_memory_does_not_grow_with_the_lap(tmp_path):
    # laps of 25 M steps (circle, 500 s) and 5 M steps (ellipse, 100 s) at
    # 0.02 ms: five stored arrays of the circle's lap alone would need 1 GB,
    # more than the 1 GiB the child may map beyond its imports
    code = textwrap.dedent(f"""
        import os, resource, sys
        from agvlink.cli import main
        with open("/proc/self/statm") as fh:
            mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        limit = mapped + (1 << 30)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        sys.exit(main(["nmax", "--ts-ms", "0.02"])
                 or main(["nmax", "--ts-ms", "0.02", "--trace-time-s", "100",
                          "--config", {write(tmp_path, ELLIPSE)!r}]))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          text=True, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "7853\n7852\n", "")


@pytest.mark.parametrize("args", [["nmax"], ["sweep-trace"], ["channel"],
                                  ["simulate", "--trace-time-s", "20"]],
                         ids=lambda args: args[0])
def test_closed_stdout_exits_1_quietly(args):
    # the read end is closed before the start, so every write to standard
    # output fails with EPIPE; the 20 s lap's rows are split over processes
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run([sys.executable, "-m", "agvlink", *args],
                              stdout=writer, stderr=subprocess.PIPE,
                              env=package_env(), timeout=120)
    finally:
        os.close(writer)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_snr_db_flag_too_large_exits_2(capsys):
    # 10 ** (4000 / 10) overflows a float; the flag is refused by name
    assert main(["channel", "--snr-db", "4000"]) == 2
    assert "--snr-db" in capsys.readouterr().err


def test_snr_db_config_key_too_large_exits_2(tmp_path, capsys):
    path = write(tmp_path, "[link]\nsnr_db = 4000\n")
    with pytest.raises(ConfigError, match=r"link\.snr_db"):
        load_config(path)
    assert main(["channel", "--config", path]) == 2
    assert "link.snr_db" in capsys.readouterr().err


def test_snr_db_flag_too_small_exits_2(tmp_path, capsys):
    # 10 ** (-4000 / 10) underflows to 0 and 10 ** (-3200 / 10) to a
    # subnormal; the flag is refused by name before any output is opened
    out = tmp_path / "x.csv"
    for snr_db in ("-4000", "-3200"):
        assert main(["channel", "--snr-db", snr_db, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--snr-db" in err and "too small" in err
        assert not out.exists()


def test_snr_db_config_key_too_small_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for snr_db in ("-4000", "-3200"):
        path = write(tmp_path, f"[link]\nsnr_db = {snr_db}\n")
        with pytest.raises(ConfigError, match=r"link\.snr_db is too small"):
            load_config(path)
        assert main(["channel", "--config", path, "--out", str(out)]) == 2
        assert "link.snr_db" in capsys.readouterr().err
        assert not out.exists()


def test_main_internal_failure_is_exit_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericConsistencyError("synthetic breakage")

    monkeypatch.setattr("agvlink.cli.montecarlo_instability", boom)
    assert main(["montecarlo", "--trace-time-s", "2"]) == 3
    assert "synthetic breakage" in capsys.readouterr().err


# --- subcommands -------------------------------------------------------------

def test_nmax_prints_bare_integer(capsys, tmp_path):
    assert main(["nmax", "--trace-time-s", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.isdigit()
    track = build_reference_track(TrackSpec(), 2.0, 1e-3)
    assert int(out) == outage_tolerance(track, Gains()).n_max
    # --out adds the per-candidate scan CSV without changing stdout
    scan = tmp_path / "scan.csv"
    assert main(["nmax", "--trace-time-s", "2", "--out", str(scan)]) == 0
    assert capsys.readouterr().out.strip() == out
    header = scan.read_text().splitlines()[0]
    assert header == "n_candidate,stable_flag,worst_spectral_radius,argmax_k"


def test_channel_table_schema(capsys):
    assert main(["channel", "--velocity-mps", "4.39822971502571",
                 "--n-list", "1,2,5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,R,gamma_th,rho,phi,P1,Pbb,Pe(n)"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 5]
    first = rows[0]
    assert float(first[1]) == pytest.approx(3.12, rel=1e-12)
    assert float(first[3]) == pytest.approx(0.92740925, abs=5e-9)
    # Pe(1) is the unconditional loss probability
    assert float(first[7]) == float(first[5])
    # Pe(n) = P1 * Pbb^(n-1)
    p1, pbb = float(first[5]), float(first[6])
    assert float(rows[2][7]) == pytest.approx(p1 * pbb ** 4, rel=1e-12)


def test_channel_zero_velocity(capsys):
    assert main(["channel", "--velocity-mps", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rho = float(lines[1].split(",")[3])
    assert rho == pytest.approx(1.0 - 1e-9, rel=1e-12)


def test_heavy_load_channel_commands_exit_0(tmp_path, capsys):
    # thresholds far past gamma_th = 38 (250 vehicles; a 0.3 ms slot at zero
    # Doppler; a 0.1 ms grid point) lose every packet: P1 = Pbb = 1.0
    path = write(tmp_path, "[link]\nnum_agvs = 250\n")
    for args in (["channel", "--config", path],
                 ["channel", "--velocity-mps", "0", "--ts-ms", "0.3"]):
        assert main(args) == 0, args
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert (row[5], row[6]) == ("1.0", "1.0"), args
    out = tmp_path / "sweep.csv"
    assert main(["sweep-ts", "--grid-ms", "0.1,1", "--trace-time-s", "20",
                 "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert (rows[0][4], rows[0][5]) == ("1.0", "1.0")
    assert [r[-1] for r in rows] == ["", ""]
    assert capsys.readouterr().err == ""


def test_channel_table_plain_numbers(capsys):
    # at low speed every cell must be a bare number, never "np.float64(...)"
    assert main(["channel", "--n-list", "1,2", "--velocity-mps", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "np." not in out
    for line in out.strip().splitlines()[1:]:
        for cell in line.split(","):
            float(cell)


def test_flag_overrides_config_file(tmp_path, capsys):
    # config says 5 ms slots; the flag forces 1 ms and must win (R = 3.12)
    path = write(tmp_path, "[sim]\nts_ms = 5\n")
    assert main(["channel", "--config", path, "--ts-ms", "1",
                 "--velocity-mps", "4.4"]) == 0
    rate = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
    assert rate == pytest.approx(3.12, rel=1e-12)
    # without the flag the config value applies (R = 0.624)
    assert main(["channel", "--config", path, "--velocity-mps", "4.4"]) == 0
    rate = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
    assert rate == pytest.approx(0.624, rel=1e-12)


def test_flag_replaces_its_config_key(tmp_path, capsys):
    base = ["channel", "--velocity-mps", "4.4"]
    assert main(base) == 0
    defaults = capsys.readouterr().out
    path = write(tmp_path, "[link]\nsnr_db = 3\n[sim]\nts_ms = 5\n")
    assert main(base + ["--config", path, "--ts-ms", "1",
                        "--snr-db", "10"]) == 0
    assert capsys.readouterr().out == defaults
    path = write(tmp_path, "[sweep]\nts_grid_ms = 3, 4\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep-ts", "--config", path, "--trace-time-s", "2",
                 "--grid-ms", "1,2", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines()
             if not l.startswith("#")]
    assert [float(l.split(",")[0]) for l in lines[1:]] == [1e-3, 2e-3]
    # the file's value is still checked when a flag replaces it
    path = write(tmp_path, "[sim]\nmargin = 2\n")
    assert main(["nmax", "--config", path, "--margin", "0.1"]) == 2
    assert "sim.margin" in capsys.readouterr().err


def test_sweep_ts_flag_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-ts", "--trace-time-s", "2", "--grid-ms", "1,2",
                 "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "ts_s,trace_time_s,nu_max_mps,rho,p1,p_bb,n_max,p_us,flags"
    assert len(lines) == 3
    assert [float(l.split(",")[0]) for l in lines[1:]] == [1e-3, 2e-3]


def test_sweep_trace_config_grid(tmp_path):
    path = write(tmp_path, "[sweep]\ntrace_grid_s = 0.5, 2\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep-trace", "--config", path, "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines()
             if not l.startswith("#")]
    assert [float(l.split(",")[1]) for l in lines[1:]] == [0.5, 2.0]


def test_sweep_with_flagged_row_still_exits_zero(tmp_path, capsys):
    # 2 ms grid point exceeds the 1.5 ms trace; row is flagged, not fatal,
    # and standard error says which point failed and why
    out = tmp_path / "sweep.csv"
    assert main(["sweep-ts", "--trace-time-s", "0.0015", "--grid-ms", "1,2",
                 "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines()
             if not l.startswith("#")]
    assert lines[2].split(",")[-1] == "error:ParameterError"
    assert lines[2].split(",")[6] == "-1"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "ts_s = 0.002" in err[0] and "sampling period" in err[0]
    # a billion vehicles make 2**R overflow at every point; the message is
    # kept
    path = write(tmp_path, "[link]\nnum_agvs = 1000000000\n")
    assert main(["sweep-trace", "--config", path, "--grid-s", "20",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].endswith(",error:ParameterError")
    err = capsys.readouterr().err
    assert "trace_time_s = 20.0" in err and "not finite" in err


def test_simulate_burst_injection(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--trace-time-s", "2", "--steps", "50",
                 "--burst-start", "2", "--burst-len", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("k,t,x_r,y_r,theta_r,x_c,y_c,theta_c")
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 50   # one row per step, k = 0..49
    flags = [int(r[-1]) for r in rows]
    assert flags[2:5] == [1, 1, 1]
    assert sum(flags) == 3
    # start pose: angle pi on the default 350 m circle, heading -pi/2
    assert float(rows[0][5]) == pytest.approx(-350.0, rel=1e-12)
    assert float(rows[0][6]) == pytest.approx(0.0, abs=1e-9)
    # a burst that would run past the last step is refused, not truncated
    out.unlink()
    assert main(["simulate", "--trace-time-s", "2", "--steps", "50",
                 "--burst-start", "48", "--burst-len", "5",
                 "--out", str(out)]) == 2
    assert "error: --burst-len must end inside the run of 50 steps, got 5 " \
        "from step 48" in capsys.readouterr().err
    assert not out.exists()
    # the last two steps still take a burst that ends with the run
    assert main(["simulate", "--trace-time-s", "2", "--steps", "50",
                 "--burst-start", "48", "--burst-len", "2",
                 "--out", str(out)]) == 0
    flags = [int(l.split(",")[-1]) for l in out.read_text().splitlines()[1:]]
    assert flags[48:] == [1, 1] and sum(flags) == 2


def test_simulate_flag_validation(capsys):
    base = ["simulate", "--trace-time-s", "2", "--steps", "50"]
    assert main(base + ["--burst-start", "3"]) == 2
    assert main(base + ["--burst-len", "2", "--sample-outages"]) == 2
    assert main(base + ["--burst-start", "5", "--sample-outages"]) == 2
    assert main(base + ["--burst-len", "0"]) == 2
    assert main(base + ["--burst-len", "2", "--burst-start", "99"]) == 2
    capsys.readouterr()
    # step 0's command is always delivered, so a burst there would lose one
    assert main(base + ["--burst-len", "3", "--burst-start", "0"]) == 2
    assert "error: --burst-start must be >= 1, got 0" in capsys.readouterr().err


def test_simulate_sampled_outages(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--trace-time-s", "2", "--steps", "400",
                 "--sample-outages", "--seed", "7", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    loss_rate = sum(int(r[-1]) for r in rows) / len(rows)
    assert 0.3 < loss_rate < 0.8   # p1 ~ 0.54 at this operating point


def test_montecarlo_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--trace-time-s", "2", "--runs", "4",
                 "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "unstable" in summary and "n_max=" in summary
    lines = out.read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "run_id,seed,max_burst_len,unstable_flag,max_tracking_error_m"
    assert len(body) == 5
    # stdout stays pure CSV when no --out is given
    assert main(["montecarlo", "--trace-time-s", "2", "--runs", "2"]) == 0
    stdout = capsys.readouterr().out
    assert "unstable " not in stdout.splitlines()[-1]
    assert "run_id," in stdout


def test_diverging_runs_are_written(tmp_path, capsys):
    # at 300 ms the loop leaves the floats within the run: the trajectory
    # keeps every row, nan from the failing step on, and a co-simulated run's
    # worst tracking error is inf
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--ts-ms", "300", "--steps", "3000",
                 "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert len(rows) == 3000
    assert rows[-1][5:13] == ["nan"] * 8
    assert main(["montecarlo", "--ts-ms", "300", "--trace-time-s", "600",
                 "--runs", "2", "--cosimulate", "--out", str(out)]) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert [l.rsplit(",", 1)[1] for l in body] == [
        "max_tracking_error_m", "inf", "inf"]
    assert capsys.readouterr().err == ""


@needs_fork
@pytest.mark.parametrize("cosimulate", [False, True])
def test_montecarlo_bytes_do_not_depend_on_split(tmp_path, capsys, forks,
                                                 monkeypatch, cosimulate):
    args = ["montecarlo", "--runs", "8", "--trace-time-s", "20",
            *(["--cosimulate"] if cosimulate else [])]
    out = tmp_path / "mc.csv"
    # forced on: 3 shares of 2, 3 and 3 runs
    monkeypatch.setattr(analysis, "_MIN_SHARE_SLOTS", 1)
    assert main(args + ["--out", str(out)]) == 0
    split = (out.read_bytes(), capsys.readouterr())
    assert len(forks) == 2
    # forced off: one usable CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(args + ["--out", str(out)]) == 0
    assert (out.read_bytes(), capsys.readouterr()) == split
    assert len(forks) == 2


def test_cli_output_deterministic(tmp_path):
    args = ["sweep-trace", "--grid-s", "0.5,2", "--ts-ms", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
