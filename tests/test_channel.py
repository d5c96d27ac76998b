"""Channel-model tests: link algebra, fading correlation, outage chain, samplers.

The back-to-back probability is checked against Marcum Q1 taken from the
noncentral-chi-square survival function (`scipy.stats.ncx2`) and, at the rho
clamp, against mpmath quadrature of the Q1 density; J0 against tabulated
values; samplers against their analytic marginals at 3-sigma tolerances with
fixed seeds.
"""

import ast
import hashlib
import inspect
import math
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special as sp
from scipy.stats import ncx2

import agvlink
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
from agvlink.channel import PHI_CONVENTIONS, PRNG_ID, RHO_LIMIT

from conftest import close, needs_fork, one_minus_pbb_mp, package_env, rel_close


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


def test_back_to_back_is_one_at_heavy_load():
    # from gamma_th = 38 the Marcum numerator (at most 1) over e^38 - 1 rounds
    # away; past 709.8 expm1 overflows and at the rho clamp chndtr gives NaN
    # from about 46, so the answer must come without them
    for rho in (0.0, 0.5, RHO_LIMIT):
        for gamma in (38.0, 46.0, 706.0, 710.0, 2.5e8):
            assert back_to_back_prob(gamma, rho) == 1.0, (gamma, rho)


def test_back_to_back_below_38_is_the_formula():
    # below the cut-off the Marcum terms still decide, bit for bit
    for rho in (0.0, 0.5, -0.9, RHO_LIMIT):
        for gamma in (0.05, 0.7693878389952673, 10.0, 30.0, 37.13,
                      math.nextafter(38.0, 0.0)):
            ar = abs(rho)
            phi = phi_variable(gamma, ar)
            hi, lo = phi * phi, (ar * phi) ** 2
            p_bb = 1.0 - float(sp.chndtr(hi, 2, lo)
                               - sp.chndtr(lo, 2, hi)) / math.expm1(gamma)
            assert back_to_back_prob(gamma, rho) == min(max(p_bb, 0.0), 1.0)


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


def test_consecutive_outage_prob_matches_mpmath():
    # the default link at 1 ms on the 20, 100 and 1000 s laps of the default
    # circle; n spans the n_max values of the sweeps (73 at 20 s, 156 at 100 s,
    # 1570 at 0.1 ms); 1570 underflows on the two fast laps, 40 000 on all
    link = LinkParams()
    for lap_s in (20.0, 100.0, 1000.0):
        model = build_outage_model(link, 1e-3, 2 * math.pi * 350.0 / lap_s)
        p1, p_bb = model.p1, model.p_bb
        for n in (1, 2, 50, 51, 73, 156, 1570, 40_000):
            got = consecutive_outage_prob(n, p1, p_bb)
            with mpmath.workdps(50):
                exact = mpmath.mpf(p1) * mpmath.mpf(p_bb) ** (n - 1)
                if exact < mpmath.ldexp(1, -1075):   # rounds to 0.0
                    assert got == 0.0, (lap_s, n, got)
                    continue
                err = float(abs(got - exact) / exact)
            # about 2 ulp: one correctly rounded power and one product
            assert err <= 4.5e-16, (lap_s, n, err)
            assert close(consecutive_outage_log10(n, p1, p_bb),
                         math.log10(got), 1e-9), (lap_s, n)
    # the log10 companion is affine in n with slope log10(p_bb)
    p1, p_bb = 0.536703, 0.837792
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
    # the probability and its log10 share one check
    for fn in (consecutive_outage_prob, consecutive_outage_log10):
        for args in ((0, 0.5, 0.5), (2, 1.5, 0.5), (5, 0.5, 1.5),
                     (2, -0.1, 0.5), (2, 0.5, -0.1), (2, math.nan, 0.5),
                     (2, 0.5, math.nan)):
            with pytest.raises(ParameterError):
                fn(*args)


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
    assert model.phi == pytest.approx(
        phi_variable(model.gamma_th, abs(model.rho), "paper_literal"),
        rel=1e-15)


def test_outage_model_fields_are_python_floats():
    # a numpy scalar would reach the CSV writers as "np.float64(...)"
    for velocity in (0.0, 0.1):
        model = build_outage_model(LinkParams(), ts=1e-3, velocity=velocity)
        for name in ("gamma_th", "rho", "phi", "p1", "p_bb"):
            assert type(getattr(model, name)) is float, (velocity, name)


def _run_probe(probe: str) -> list[str]:
    """Standard output lines of `probe` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", probe], env=package_env(),
                          check=True, capture_output=True,
                          text=True).stdout.splitlines()


def test_import_leaves_signal_and_stats_unloaded():
    # scipy.special is the only scipy subpackage the package uses, and it
    # loads on the first channel computation: importing the package, loading
    # a config, `nmax` and `simulate` without sampling load no scipy at all.
    # scipy.signal and scipy.stats are slow to import and never load.
    lines = _run_probe(
        "import contextlib, io, os, sys, agvlink\n"
        "from agvlink.cli import load_config, main\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m == 'scipy' or m.startswith('scipy.'))\n"
        "load_config(None)\n"
        "stages = [loaded()]\n"
        "for argv in (['nmax', '--trace-time-s', '2'],\n"
        "             ['simulate', '--trace-time-s', '2', '--steps', '400',\n"
        "              '--out', os.devnull],\n"
        "             ['channel', '--out', os.devnull],\n"
        "             ['simulate', '--trace-time-s', '2', '--steps', '400',\n"
        "              '--sample-outages', '--out', os.devnull],\n"
        "             ['montecarlo', '--trace-time-s', '2', '--runs', '2',\n"
        "              '--cosimulate', '--out', os.devnull]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    stages.append(loaded())\n"
        "for stage in stages:\n"
        "    print(' '.join(stage))\n")
    # after the imports and config, nmax, simulate, channel, sampled
    # simulate and montecarlo
    assert lines[:3] == ["", "", ""]
    assert all("scipy.special" in line.split() for line in lines[3:])
    assert not any(m in line.split() for line in lines
                   for m in ("scipy.signal", "scipy.stats"))


def test_commands_that_compute_nothing_leave_numpy_unloaded(tmp_path):
    # numpy loads at the first computation: importing the package, loading a
    # config, --version, --help, a refused option and a refused config key
    # load none of it, and the first command that computes loads it. The
    # unloaded `numpy` is in sys.modules from the import on; its submodules
    # are not.
    good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
    good.write_text("[sim]\nts_ms = 2.0\n")
    bad.write_text("[sim]\nts_msec = 2.0\n")
    lines = _run_probe(
        "import contextlib, io, sys, agvlink, agvlink.cli\n"
        "from agvlink.cli import load_config, main\n"
        "def loaded():\n"
        "    return any(m.startswith('numpy.') for m in sys.modules)\n"
        "load_config(None)\n"
        f"load_config({str(good)!r})\n"
        "print(loaded())\n"
        "for argv in (['--version'], ['--help'], ['nmax', '--ts-ms', '0'],\n"
        f"             ['nmax', '--config', {str(bad)!r}],\n"
        "             ['nmax', '--trace-time-s', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code, loaded())\n")
    assert lines == ["False", "0 False", "0 False", "2 False", "2 False",
                     "0 True"]


def test_numpy_binding_is_the_loaded_module():
    # numpy imported first is bound as it is
    assert _run_probe(
        "import numpy, agvlink\n"
        "print(agvlink.control.np is numpy)\n") == ["True"]
    # bound before numpy loads, every module's `np` is numpy itself, a
    # plain module, once the first computation has loaded it
    lines = _run_probe(
        "import contextlib, io, sys, types, agvlink, agvlink.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert agvlink.cli.main(['nmax', '--trace-time-s', '2']) == 0\n"
        "import agvlink._rows\n"
        "numpy = sys.modules['numpy']\n"
        "binding = {name: vars(m)['np'] for name, m in sys.modules.items()\n"
        "           if name.startswith('agvlink') and 'np' in vars(m)}\n"
        "print(' '.join(sorted(binding)))\n"
        "print(type(numpy) is types.ModuleType,\n"
        "      all(np is numpy for np in binding.values()))\n")
    assert lines == ["agvlink._lazy agvlink._rows agvlink.analysis "
                     "agvlink.channel agvlink.cli agvlink.control "
                     "agvlink.stability", "True True"]
    # a numpy that cannot be found fails the import, naming numpy
    assert _run_probe(
        "import sys\n"
        "from importlib.machinery import PathFinder\n"
        "class WithoutNumpy(PathFinder):\n"
        "    @classmethod\n"
        "    def find_spec(cls, name, path=None, target=None):\n"
        "        if name.partition('.')[0] != 'numpy':\n"
        "            return super().find_spec(name, path, target)\n"
        "sys.meta_path[sys.meta_path.index(PathFinder)] = WithoutNumpy\n"
        "try:\n"
        "    import agvlink\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n") == ["numpy"]


def test_only_the_lazy_helper_imports_numpy():
    # numpy loads at its first use because `_lazy` binds it so: every other
    # module that reads `np` binds it from there at module level, and keeps
    # its annotations unevaluated, so that none of them reads numpy at import
    package = Path(agvlink.__file__).parent
    importers, readers = [], {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom)
                     and node.level == 0 else [])
            if any(n.partition(".")[0] == "numpy" for n in names):
                importers.append(path.name)
        if path.name != "_lazy.py" and any(
                isinstance(node, ast.Name) and node.id == "np"
                for node in ast.walk(tree)):
            readers[path.name] = {
                (node.level, node.module, alias.name, alias.asname)
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert importers == ["_lazy.py"]
    assert sorted(readers) == ["_rows.py", "analysis.py", "channel.py",
                               "cli.py", "control.py", "stability.py"]
    for name, imports in readers.items():
        assert {(1, "_lazy", "np", None),
                (0, "__future__", "annotations", None)} <= imports, name


def test_annotations_evaluate_at_run_time():
    # `np` is a module global of every module that names it, so the
    # annotations evaluate with no namespace passed in (and load numpy)
    for name in agvlink.__all__:
        obj = getattr(agvlink, name)
        members = ([obj, *(m for m in vars(obj).values() if inspect.isfunction(m))]
                   if inspect.isclass(obj) else [obj])
        for member in members:
            if callable(member):
                typing.get_type_hints(member)
    hints = typing.get_type_hints(agvlink.Trajectory)
    assert hints["x_e"] is np.ndarray


@needs_fork
def test_scipy_special_loads_before_any_fork():
    # a module first imported in a forked child is imported again by every
    # child; the outage model is built and the track sampled before the
    # Monte-Carlo runs and the trajectory rows are forked, so the children
    # inherit scipy.special and numpy. Callers bind write_shares by name;
    # _fork_share is the one fork point.
    lines = _run_probe(
        "import contextlib, io, os, sys\n"
        "from agvlink import _io, analysis\n"
        "from agvlink.cli import main\n"
        "analysis._MIN_SHARE_SLOTS = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork_share, seen = _io._fork_share, []\n"
        "def recording_fork_share(*args):\n"
        "    seen.append(('scipy.special' in sys.modules,\n"
        "                 any(m.startswith('numpy.') for m in sys.modules)))\n"
        "    return fork_share(*args)\n"
        "_io._fork_share = recording_fork_share\n"
        "for argv in (['montecarlo', '--trace-time-s', '2', '--runs', '2',\n"
        "              '--cosimulate', '--out', os.devnull],\n"
        "             ['simulate', '--sample-outages', '--trace-time-s', '20',\n"
        "              '--out', os.devnull]):\n"
        "    del seen[:]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    print(argv[0], seen)\n")
    # two processes: one forked child per command
    assert lines == ["montecarlo [(True, True)]", "simulate [(True, True)]"]


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
    # h(k) = rho h(k-1) + sqrt(1 - rho^2) w(k), h(0) = w(0), checked against
    # an explicit loop and against scipy's direct-form filter; the lengths
    # include both sides of the sampler's block edges
    from scipy.signal import lfilter

    from agvlink.channel import _AR1_BLOCK, _generator
    for rho in (0.0, 0.3, -0.4, 0.9997, 0.999999, RHO_LIMIT):
        for length in (1, 2, 7, _AR1_BLOCK, _AR1_BLOCK + 1,
                       2 * _AR1_BLOCK + 1, 100_000):
            z = _generator(3, 1).standard_normal(2 * length)
            w = (z[0::2] + 1j * z[1::2]) * math.sqrt(0.5)
            h = w[0].item()
            ref = [h]
            for innovation in (math.sqrt(1.0 - rho * rho) * w[1:]).tolist():
                h = rho * h + innovation
                ref.append(h)
            ref = np.array(ref)
            filtered, _ = lfilter([math.sqrt(1.0 - rho * rho)], [1.0, -rho],
                                  w[1:], zi=np.array([rho * w[0]]))
            filtered = np.concatenate((w[:1], filtered))
            got = sample_fading_gains(rho, length, seed=3, stream=1)
            assert got.dtype == ref.dtype == filtered.dtype
            assert got.tobytes() == ref.tobytes(), (rho, length)
            assert got.tobytes() == filtered.tobytes(), (rho, length)


def test_sample_fading_gains_prefix_does_not_depend_on_length():
    # the normals are drawn in order whatever the length, so a run is a byte
    # prefix of every longer run with the same seed and stream; the lengths
    # cover both sides of the recursion's block edge
    from agvlink.channel import _AR1_BLOCK
    longest = sample_fading_gains(0.9, 3 * (1 << 16), seed=9, stream=4)
    for n in (1, 2, 3, _AR1_BLOCK, _AR1_BLOCK + 1, 65_536, 131_071):
        got = sample_fading_gains(0.9, n, seed=9, stream=4)
        assert got.tobytes() == longest[:n].tobytes(), n


def test_sampler_memory_holds_one_short_block():
    # the recursion's Python lists (about 80 bytes a slot) hold one block,
    # so a 20 000-slot loss sequence peaks at about 40 bytes a slot; blocks
    # of 16 384 slots made it 82
    slots = 20_000
    tracemalloc.start()
    try:
        sample_outage_sequence(0.927409, 0.7693878389952673, slots, seed=1,
                               stream=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / slots <= 48, peak / slots


def test_sample_outage_sequence_stream_is_pinned():
    # PRNG_ID names the stream: these bytes may change only with it
    assert PRNG_ID == "pcg64-ziggurat"
    gamma = 0.7693878389952673
    for (length, seed, stream), digest in (
            ((1000, 1, 0), "cf197119787a75df23af3207d27009b5"
                           "e082a2e25529ca41c81db849ef0e23de"),
            ((20_000, 1, 3), "b431b4e5621f3dc625a49091eb74d9dd"
                             "2eb0f67f5960b8ba0c46b13a2b60c187"),
            ((100_001, 7, 2), "dd3b252afe2ed1764aa6d82ae7a63489"
                              "147546423df9ea4578ce433a172fa436")):
        losses = sample_outage_sequence(0.927409, gamma, length, seed, stream)
        assert hashlib.sha256(losses.tobytes()).hexdigest() == digest, (
            length, seed, stream)


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
