"""CLI tests: config ingestion, flag precedence, subcommands, exit codes.

Everything runs through `main(argv)` in-process so exit codes and the exact
stdout/stderr bytes are observable; no subprocesses needed.
"""

from dataclasses import replace

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
from agvlink.cli import ConfigError, load_config, main


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config loading ----------------------------------------------------------

def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.scenario == ScenarioConfig()
    assert cfg.ts_grid == DEFAULT_TS_GRID
    assert cfg.trace_grid == DEFAULT_TRACE_GRID


def test_parse_config_empty_file_is_defaults(tmp_path):
    assert load_config(write(tmp_path, "")).scenario == ScenarioConfig()


def test_parse_config_conversions(tmp_path):
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
    # the lossless spellings are read back bit for bit
    text = """
[link]
bandwidth_hz = 20000000.0
num_agvs = 7
snr_linear = 3.7
carrier_freq_hz = 2400000000.0

[sim]
ts_s = 0.0025
"""
    cfg = load_config(write(tmp_path, text)).scenario
    assert cfg.link == replace(ScenarioConfig().link, bandwidth_hz=2e7,
                               num_agvs=7, avg_snr=3.7, carrier_freq_hz=2.4e9)
    assert cfg.ts == 0.0025


def test_parse_config_ellipse_and_gains(tmp_path):
    text = """
[gains]
k_x_per_s = 5.0
k_y_per_m = 0.01
k_theta_per_m = 0.2

[track]
shape = ellipse
semi_axis_a_m = 350.0
semi_axis_b_m = 200.0
start_angle_rad = 0.25
direction = cw

[sim]
phi_convention = paper_literal
margin = 0.001
seed = 42
"""
    cfg = load_config(write(tmp_path, text)).scenario
    assert cfg.gains == Gains(k_x=5.0, k_y=0.01, k_theta=0.2)
    assert cfg.track.shape == "ellipse"
    assert cfg.track.semi_axis_b == 200.0
    assert cfg.track.start_angle == 0.25
    assert cfg.track.direction == "cw"
    assert cfg.phi_convention == "paper_literal"
    assert cfg.margin == 1e-3
    assert cfg.seed == 42


def test_parse_config_sweep_grids(tmp_path):
    text = """
[sweep]
ts_grid_ms = 1.0, 1.5, 2.0
trace_grid_s = 20, 100
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.ts_grid == pytest.approx((1e-3, 1.5e-3, 2e-3))
    assert cfg.trace_grid == (20.0, 100.0)


def test_parse_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match=r"link\.bandwidth_mhz"):
        load_config(write(tmp_path, "[link]\nbandwidth_mhz = 10\n"))
    with pytest.raises(ConfigError, match=r"\[made_up\]"):
        load_config(write(tmp_path, "[made_up]\nfoo = 1\n"))


def test_parse_config_mutual_exclusions(tmp_path):
    with pytest.raises(ConfigError, match="mutually exclusive"):
        load_config(write(tmp_path,
                          "[link]\nsnr_db = 10\nsnr_linear = 10\n"))
    with pytest.raises(ConfigError, match="mutually exclusive"):
        load_config(write(tmp_path, "[sim]\nts_s = 0.001\nts_ms = 1\n"))


def test_parse_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError, match=r"link\.bandwidth_hz"):
        load_config(write(tmp_path, "[link]\nbandwidth_hz = 0\n"))
    with pytest.raises(ConfigError, match="must be a number"):
        load_config(write(tmp_path, "[sim]\ntrace_time_s = fast\n"))
    with pytest.raises(ConfigError, match="must be an integer"):
        load_config(write(tmp_path, "[sim]\nseed = 1.5\n"))
    with pytest.raises(ConfigError, match=r"sim\.seed must be >= 0"):
        load_config(write(tmp_path, "[sim]\nseed = -5\n"))
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
    assert len(set(agvlink.__all__)) == len(agvlink.__all__)
    for name in agvlink.__all__:
        assert hasattr(agvlink, name), name


def test_main_config_error_is_exit_2(tmp_path, capsys):
    path = write(tmp_path, "[link]\nwat = 1\n")
    assert main(["nmax", "--config", path]) == 2
    assert "link.wat" in capsys.readouterr().err
    # a subnormal linear SNR passes the key check; its threshold is refused
    path = write(tmp_path, "[link]\nsnr_linear = 1e-320\n")
    assert main(["channel", "--config", path]) == 2
    assert "not finite" in capsys.readouterr().err


def test_main_bad_flag_values_exit_2(capsys):
    # a margin of 1 or more is refused with the flags, before any search
    assert main(["sweep-ts", "--margin", "1.5", "--trace-time-s", "2"]) == 2
    assert "--margin" in capsys.readouterr().err
    assert main(["nmax", "--ts-ms", "-1", "--trace-time-s", "2"]) == 2
    assert main(["nmax", "--margin", "-0.5", "--trace-time-s", "2"]) == 2
    assert main(["montecarlo", "--runs", "0", "--trace-time-s", "2"]) == 2
    assert main(["montecarlo", "--seed", "-1", "--trace-time-s", "2"]) == 2
    capsys.readouterr()
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
    assert main(["channel", "--ts-ms", "1e-6", "--velocity-mps", "1"]) == 2
    assert "not finite" in capsys.readouterr().err


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


def test_sweep_with_flagged_row_still_exits_zero(tmp_path):
    # 2 ms grid point exceeds the 1.5 ms trace; row is flagged, not fatal
    out = tmp_path / "sweep.csv"
    assert main(["sweep-ts", "--trace-time-s", "0.0015", "--grid-ms", "1,2",
                 "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines()
             if not l.startswith("#")]
    assert lines[2].split(",")[-1] == "error:ParameterError"
    assert lines[2].split(",")[6] == "-1"


def test_simulate_burst_injection(tmp_path):
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


def test_simulate_flag_validation(capsys):
    base = ["simulate", "--trace-time-s", "2", "--steps", "50"]
    assert main(base + ["--burst-start", "3"]) == 2
    assert main(base + ["--burst-len", "2", "--sample-outages"]) == 2
    assert main(base + ["--burst-start", "5", "--sample-outages"]) == 2
    assert main(base + ["--burst-len", "0"]) == 2
    assert main(base + ["--burst-len", "2", "--burst-start", "99"]) == 2
    capsys.readouterr()


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


def test_cli_output_deterministic(tmp_path):
    args = ["sweep-trace", "--grid-s", "0.5,2", "--ts-ms", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
