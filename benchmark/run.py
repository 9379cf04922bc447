"""Benchmark of the convexcycles census and spectral layers.

    python3 benchmark/run.py --workload census-random --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
./src, nothing needs installing.  One closed-loop client runs one op at a
time in this process for --seconds seconds, cycling over the workload's
seeded inputs, and checks every op's output.  --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics, from an
untimed counting pass followed by ops that alternate traced and untraced.
The last line of stdout is the result object; the full run record goes to
.bench_out/.  See benchmark/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


# ---------------------------------------------------------------- environment


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def host_load() -> dict:
    """/proc/loadavg and the aggregate CPU ticks of /proc/stat, read only."""
    load = _read("/proc/loadavg")
    stat = _read("/proc/stat")
    ticks = [int(x) for x in stat.splitlines()[0].split()[1:]] if stat else []
    return {
        "loadavg": load.split()[:3] if load else None,
        "steal_ticks": ticks[7] if len(ticks) > 7 else None,
        "total_ticks": sum(ticks) if ticks else None,
    }


def environment(cc) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    try:
        threads = cc.cli._build_parser().parse_args(["analyze", "-"]).threads
    except (AttributeError, SystemExit):
        threads = None
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "cli_default_threads": threads,
    }


# ---------------------------------------------------------------- measuring


def attempt(op, case, tamper=None) -> tuple[float, list[str]]:
    """Time one op and check its output.  Any exception the program raises
    is a failed op, never a crash of the run.  `tamper` alters the output
    before the check, for the self-test."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = op.run(case)
    except Exception as exc:
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    if tamper is not None:
        result = tamper(result)
    try:
        return elapsed, op.check(case, result)
    except Exception as exc:
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


def sample_setup() -> float:
    """Seconds for a fresh interpreter to start and import convexcycles."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import convexcycles"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=60,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import convexcycles failed: {proc.stderr.decode()[-300:]}")
    return elapsed


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, case, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{case.name}: " + "; ".join(problems))


def untraced_run(op, cases, seconds: float, tally: Tally,
                 ref: reference.Reference) -> tuple[dict, dict]:
    """Whole rounds over the cases for `seconds`, with a fresh-interpreter
    import sample and a reference-kernel time after every op.  A round
    starts only if it should end in time, so every op of the workload is
    sampled equally often.

    Each op time and each import sample is scaled by REF_S over the mean of
    the kernel times just before and just after it, so that host slowness
    cancels (see reference.py); the raw times stay in the run record.
    ops_per_s is the median over rounds of ops completed per scaled second:
    every round holds the same inputs, so a burst of host load moves a few
    rounds, not the median."""
    op_s, setup_s, raw_op_s, raw_setup_s, round_rates = [], [], [], [], []
    ref_s = [ref.time()]
    start = time.perf_counter()
    last = 0.0
    while not round_rates or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        busy, completed = 0.0, 0
        for case in cases:
            elapsed, problems = attempt(op, case)
            tally.add(case, problems)
            setup = sample_setup()
            ref_s.append(ref.time())
            scale = reference.REF_S / ((ref_s[-2] + ref_s[-1]) / 2)
            raw_op_s.append(elapsed)
            raw_setup_s.append(setup)
            op_s.append(elapsed * scale)
            setup_s.append(setup * scale)
            busy += elapsed * scale
            completed += not problems
        round_rates.append(completed / busy)
        last = time.perf_counter() - began
    value, percentile = tail(op_s)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (statistics.median(round_rates), "1/s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    # The tail repeats less well than the median, so it stays in the record.
    samples = {"op_s": op_s, "setup_s": setup_s, "round_ops_per_s": round_rates,
               "op_s.tail": value, "tail_percentile": percentile,
               "raw_op_s": raw_op_s, "raw_setup_s": raw_setup_s, "reference_s": ref_s,
               "raw_op_s.p50": statistics.median(raw_op_s),
               "raw_setup_s.p50": statistics.median(raw_setup_s),
               "reference_s.p50": statistics.median(ref_s)}
    return metrics, samples


def traced_run(op, cases, seconds: float, tally: Tally, modules: dict,
               ref: reference.Reference) -> tuple[dict, dict]:
    """An untimed counting pass over the cases, then `seconds` of ops in
    traced/untraced pairs on the same case, so that trace.overhead compares
    ops of one run.  Op times and self times are scaled by the reference
    kernel, as in untraced_run."""
    tracer = tracing.Tracer(modules)
    with tracing.allocation_tracing():
        for case in cases:
            with tracer.installed(counting=True):
                _, problems = attempt(op, case)
            tally.add(case, problems)
    counts = {name: tracer.counts[name] / len(cases) for name in tracing.COUNTERS}

    traced, untraced = [], []
    ref_s = [ref.time()]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        case = cases[(i // 2) % len(cases)]
        if i % 2 == 0:
            with tracer.installed():
                elapsed, problems = attempt(op, case)
        else:
            elapsed, problems = attempt(op, case)
        tally.add(case, problems)
        ref_s.append(ref.time())
        scale = reference.REF_S / ((ref_s[-2] + ref_s[-1]) / 2)
        if i % 2 == 0:
            traced.append(elapsed * scale)
            tracer.self_times[-1] = {k: v * scale for k, v in tracer.self_times[-1].items()}
        else:
            untraced.append(elapsed * scale)
        i += 1

    self_s = tracer.layer_medians()
    metrics = {f"{layer}.self_s": (self_s[layer], "s") for layer in tracing.LAYERS
               if layer != "spectral"}
    metrics["spectral.expand_self_s"] = (self_s["spectral"], "s")
    for layer in tracing.ALLOC_LAYERS:
        metrics[f"{layer}.peak_alloc_mb"] = (tracer.alloc_peak.get(layer, 0) / 2**20, "MiB")
    for name in tracing.COUNTERS:
        metrics[name] = (counts[name], "count/op")
    verified = counts["enumeration.verify_calls"]
    metrics["enumeration.yield"] = (
        counts["enumeration.convex"] / verified if verified else 0.0, "ratio"
    )
    for layer in tracing.LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    samples = {
        "traced_op_s": traced,
        "untraced_op_s": untraced,
        "layer_share": tracer.layer_shares(),
        "declined": dict(tracer.declined),
        "counts_base_ops": len(cases),
        "absent_counters": [name for name in tracing.COUNTERS if not counts[name]],
        "missing_targets": tracer.missing,
        "spans": tracer.spans,
        "reference_s": ref_s,
    }
    return metrics, samples


# ---------------------------------------------------------------- main


def load_package():
    if not (SRC / "convexcycles" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}/convexcycles; "
                         "run from the root of a convexcycles checkout")
    sys.path.insert(0, str(SRC))
    cc = importlib.import_module("convexcycles")
    modules = {name: importlib.import_module(name) for name in
               ("convexcycles", "convexcycles.cli", "convexcycles.convexity")}
    return cc, modules


@contextmanager
def inputs_dir(workload: str, cases, tag: str):
    """Write the cases' graph6 files to a fresh directory under .bench_work
    and run the block in it; the directory is removed afterwards."""
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if workload != "spectral":
        for case in cases:
            (workdir / case.name).write_text(workloads.graph6(case.n, case.edges))
    os.chdir(workdir)
    try:
        yield workdir
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def load_golden(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    path = HERE / "golden" / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cc, modules = load_package()
    env = environment(cc)
    load_before = host_load()
    start = time.perf_counter()
    cases = workloads.build(args.workload, args.seed)
    inputs_s = time.perf_counter() - start
    op = workloads.make_op(args.workload, cc, load_golden(args.workload, args.seed))
    tally = Tally()
    ref = reference.Reference(args.workload)
    with inputs_dir(args.workload, cases, args.workload):
        warmup_s, problems = attempt(op, cases[0])
        tally.add(cases[0], problems)
        if args.trace:
            metrics, samples = traced_run(op, cases, args.seconds, tally, modules, ref)
        else:
            metrics, samples = untraced_run(op, cases, args.seconds, tally, ref)
    load_after = host_load()
    if load_before["steal_ticks"] is not None and load_after["steal_ticks"] is not None:
        steal_share = ((load_after["steal_ticks"] - load_before["steal_ticks"])
                       / max(1, load_after["total_ticks"] - load_before["total_ticks"]))
    else:
        steal_share = None

    failed = len(tally.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "host_load_before": load_before,
        "host_load_after": load_after,
        "steal_share": steal_share,
        "inputs_s": inputs_s,
        "warmup_s": warmup_s,
        "cases": [case.name for case in cases],
        "attempted": tally.attempted,
        "failed": failed,
        "error_rate": failed / tally.attempted,
        "failures": tally.failures[:20],
        "metrics": {name: value for name, (value, _) in metrics.items()},
        **samples,
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for failure in tally.failures[:5]:
        print(f"FAILED {failure}")
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
