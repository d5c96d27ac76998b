"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out perfbench/BENCH_seed.json

Workloads, run length and bounds come from BENCHMARK.json. Seeds are the
outer loop, so slow drift on a shared machine spreads over every workload.
For each workload and metric it reports the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median; an
end-to-end spread above a third of its bound is marked.
With `--against RECORD` it also compares each end-to-end median with that
record's and marks a change worse than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--note", default="",
                        help="free text stored with the record")
    parser.add_argument("--against", type=Path,
                        help="earlier record whose medians to compare with")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    environment = None
    for seed in parse_seeds(args.seeds):
        for name in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            environment = environment or next(
                json.loads(line.partition(" ")[2]) for line in lines
                if line.startswith("environment "))
            result["run_s"] = time.perf_counter() - start
            results[name].append(result)
            print(", ".join(
                [f"seed {seed} {name}: run {result['run_s']:.1f} s",
                 f"correct {result['correct']}"]
                + [f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                   if k in bounds]), flush=True)

    summary = {}
    for name, runs in results.items():
        metrics = {}
        for metric in runs[0]["metrics"]:
            stats = summarise([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            metrics[metric] = stats
            bound = bounds.get(metric)
            if args.trace == 0:
                flag = ("" if bound is None or stats["spread"] < bound / 3
                        else "  <-- unsteady")
                print(f"{name:18s} {metric:12s} median {stats['median']:.5g} "
                      f"spread {stats['spread']:.4f}{flag}")
        summary[name] = {
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s": summarise([r["run_s"] for r in runs]),
            "metrics": metrics}
    if args.against:
        before = json.loads(args.against.read_text())["workloads"]
        for name, data in summary.items():
            for metric, bound in bounds.items():
                old = before[name]["metrics"][metric]["median"]
                new = data["metrics"][metric]["median"]
                worse = (new / old - 1) * (1 if lower_is_better[metric] else -1)
                flag = "  <-- worse than bound" if worse > bound else ""
                print(f"{name:18s} {metric:12s} median {old:.5g} -> {new:.5g} "
                      f"({worse:+.1%} worse, bound {bound:.0%}){flag}")
    if args.out:
        args.out.write_text(json.dumps({
            "note": args.note, "environment": environment, "seeds": args.seeds,
            "trace": args.trace,
            "run_seconds": spec["run_seconds"], "workloads": summary},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
