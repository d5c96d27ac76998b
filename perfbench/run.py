"""agvlink benchmark: run one workload in-process and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweeps-montecarlo --seed 1 --seconds 10 --trace 0

A pass makes the workload's fixed list of `agvlink.cli.main(argv)` calls in
this process, one after another (a closed loop with one client); passes
repeat until `--seconds` have passed, with at least three. The seed reaches the program
only through the CLI's `--seed`. Outputs go to a per-run temporary directory
under `.perfbench_out/` and are checked after the timed region, then deleted.

`--trace 0` prints the end-to-end metrics: `setup_s` (median over fresh
interpreters of `import agvlink` plus the workload's config load, measured
from process start to exit), `wall_s` (median pass) and `peak_rss_mb`.
`--trace 1` alternates untraced and traced passes, so both see the same drift
in machine speed, and prints the per-layer metrics: span figures from the
traced passes, the wall time of each CLI command from the untraced ones. The
spans are written to `.perfbench_out/` when the run ends. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

import spans as spanlib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
# The cap has to be in the environment before numpy loads OpenBLAS; the
# set-up subprocesses inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(NPROC)

MIN_PASSES = 3
SETUP_REPS = 5
IMPORTTIME_REPS = 3
SETUP_CODE = ("import sys, agvlink, agvlink.cli\n"
              "for path in sys.argv[1:]: agvlink.cli.load_config(path or None)")
IMPORTED_MODULES = ("channel", "control", "stability", "analysis", "cli")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUP_METRICS = ([("setup.import_s", "s")]
                 + [(f"setup.import.{m}_s", "s") for m in IMPORTED_MODULES])
# Median wall time of each CLI command within an untraced pass (0 on a
# workload that does not run it), so a gain on one command cannot hide a
# loss on another of the same workload.
COMMANDS = ("sweep-trace", "sweep-ts", "montecarlo", "simulate")
COMMAND_METRICS = tuple((f"wall.{c}_s", "s") for c in COMMANDS)
DIAGNOSTICS = (("process.cpu_s", "s"), ("trace.overhead_s", "s"))


@dataclass
class Output:
    """What one command of a pass left behind."""

    ok: bool
    sha256: str | None
    stdout: str


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outputs: list[Output]
    command_s: list[float]
    traced: bool = False


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(wl) -> float:
    """Median wall time of a fresh interpreter that imports and loads config."""
    cmd = [sys.executable, "-c", SETUP_CODE,
           *(str(c.config or "") for c in wl.commands)]
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, env=_child_env(),
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per agvlink module from `-X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(agvlink\S*)", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    out = {"setup.import_s": cumulative["agvlink"] + cumulative["agvlink.cli"]}
    for module in IMPORTED_MODULES:
        out[f"setup.import.{module}_s"] = cumulative[f"agvlink.{module}"]
    return out


def import_times() -> dict[str, float]:
    cmd = [sys.executable, "-X", "importtime", "-c",
           "import agvlink; import agvlink.cli"]
    runs = [parse_importtime(subprocess.run(
        cmd, check=True, cwd=ROOT, env=_child_env(), capture_output=True,
        text=True).stderr) for _ in range(IMPORTTIME_REPS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def reference_path(tmp: Path, index: int) -> Path:
    return tmp / f"reference{index}.csv"


def run_passes(wl, seed: int, seconds: float, tmp: Path,
               tracer=None) -> list[Pass]:
    """Timed passes until `seconds` are spent (at least MIN_PASSES).

    With a tracer, every odd pass runs with the tracer's wrappers installed.
    The first good output of each command is kept for the checks; later
    outputs are only hashed, then deleted.
    """
    from agvlink import cli

    passes: list[Pass] = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        results, command_s = [], []
        with tracer.patched(len(passes)) if traced else nullcontext():
            start, cpu = time.perf_counter(), time.process_time()
            for i, command in enumerate(wl.commands):
                out = tmp / f"pass{len(passes)}-{i}.csv"
                captured = io.StringIO()
                began = time.perf_counter()
                try:
                    with redirect_stdout(captured):
                        rc = cli.main(command.argv(seed, out))
                except Exception:    # a crashing command fails its operations
                    traceback.print_exc()
                    rc = None
                command_s.append(time.perf_counter() - began)
                results.append((rc == 0 and out.is_file(), out,
                                captured.getvalue()))
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        outputs = []
        for i, (ok, out, stdout) in enumerate(results):
            outputs.append(Output(ok, _sha256(out) if ok else None, stdout))
            if ok and not reference_path(tmp, i).exists():
                out.rename(reference_path(tmp, i))
            else:
                out.unlink(missing_ok=True)
        passes.append(Pass(wall, cpu, outputs, command_s, traced))
    return passes


def count_failed(wl, passes: list[Pass], tmp: Path, seed: int) -> int:
    """Failed operations over all passes.

    Each command's kept output is checked once; an output byte-identical to
    it fails the same operations, and any other output fails all of them.
    """
    failed = 0
    for i, command in enumerate(wl.commands):
        outputs = [p.outputs[i] for p in passes]
        first = next((o for o in outputs if o.ok), None)
        ref_failed = command.ops
        if first is not None:
            try:
                ref_failed = command.check(command, reference_path(tmp, i),
                                           first.stdout, seed)
            except Exception:    # an output the check cannot read fails it
                traceback.print_exc()
        failed += sum(ref_failed if o.ok and o.sha256 == first.sha256
                      else command.ops for o in outputs)
    return failed


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {"nproc": NPROC, "cpu_model": cpu_model,
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_commit": commit}


def measure(wl, seed: int, seconds: float, trace: bool, tmp: Path):
    """(metrics, units, attempted, failed, passes, sha256s, spans)."""
    if not trace:
        setup_s = measure_setup(wl)
        passes = run_passes(wl, seed, seconds, tmp)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": setup_s,
                   "wall_s": statistics.median(p.wall_s for p in passes),
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
        span_list = []
    else:
        tracer = spanlib.Tracer()
        passes = run_passes(wl, seed, seconds, tmp, tracer)
        untraced = [p for p in passes if not p.traced]
        traced = [i for i, p in enumerate(passes) if p.traced]
        per_pass = [spanlib.pass_metrics(tracer.spans, tracer.counts, i)
                    for i in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name, _ in spanlib.LAYER_METRICS}
        metrics.update(import_times())
        for (name, _), command in zip(COMMAND_METRICS, COMMANDS):
            i = next((i for i, c in enumerate(wl.commands)
                      if c.args[0] == command), None)
            metrics[name] = (0.0 if i is None else
                             statistics.median(p.command_s[i] for p in untraced))
        metrics["process.cpu_s"] = statistics.median(p.cpu_s for p in untraced)
        metrics["trace.overhead_s"] = (
            statistics.median(passes[i].wall_s for i in traced)
            - statistics.median(p.wall_s for p in untraced))
        units = dict([*spanlib.LAYER_METRICS, *SETUP_METRICS,
                      *COMMAND_METRICS, *DIAGNOSTICS])
        span_list = tracer.spans
    failed = count_failed(wl, passes, tmp, seed)
    shas = [next((p.outputs[i].sha256 for p in passes if p.outputs[i].ok), None)
            for i in range(len(wl.commands))]
    return (metrics, units, wl.ops_per_pass * len(passes), failed, passes,
            shas, span_list)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "agvlink" / "__init__.py").is_file():
        print(f"error: no agvlink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import agvlink
    from workloads import WORKLOADS

    if Path(agvlink.__file__).resolve().parent != SRC / "agvlink":
        print(f"error: imported agvlink from {agvlink.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        metrics, units, attempted, failed, passes, shas, span_list = measure(
            wl, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if span_list:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in span_list:
                fh.write(json.dumps(asdict(span)) + "\n")
    env = environment()
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "output_sha256": shas,
              "pass_wall_s": [p.wall_s for p in passes],
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    walls = sorted(p.wall_s for p in passes)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  pass wall min/median/max "
          f"{walls[0]:.4f}/{statistics.median(walls):.4f}/{walls[-1]:.4f} s")
    print("environment " + json.dumps(env))
    for command, sha in zip(wl.commands, shas):
        print(f"output sha256 {sha}  {command.args[0]}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"ops_failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
