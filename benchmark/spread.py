"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workloads census-long spectral --seeds 1-10
    python3 benchmark/spread.py --workloads all --seeds 1-10 --save benchmark/baseline.json

Runs one at a time, from the root of the checkout, with BENCHMARK.json's
run_seconds.  For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), and the spread
(Q3 - Q1) / median next to the metric's bound.  --trace 1 runs the traced
variant instead and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True,
                        help=f"'all' or some of: {' '.join(names)}")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()
    chosen = names if args.workloads == ["all"] else args.workloads
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {}
    for workload in chosen:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", flush=True)
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        table = {}
        for metric in runs[0]["metrics"]:
            table[metric] = summarize([r["metrics"][metric]["value"] for r in runs])
            row = table[metric]
            bound = bounds.get(metric)
            spread = "-" if row["spread"] is None else f"{row['spread']:.3f}"
            print(f"  {workload:14s} {metric:28s} median {row['median']:<12.5g} "
                  f"q1 {row['q1']:<12.5g} q3 {row['q3']:<12.5g} spread {spread}"
                  + (f" bound {bound}" if bound is not None else ""), flush=True)
        summary[workload] = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": table,
        }
    if args.save:
        args.save.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
