"""Benchmark entry point for edgeiso.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports edgeiso from its
``src`` directory.  With ``--trace 0`` it measures the end-to-end
metrics with tracing off: set-up time of fresh interpreters, and the
mean wall time of verified passes that a ``worker.py`` process repeats
for ``--seconds`` seconds, with the scan throughput and peak memory
that go with it.  Both times are scaled by ``calibrate``'s yardsticks,
timed next to them, to what they would read on a steady host; the raw
times are printed beside them.  With ``--trace 1`` it alternates plain and
traced passes in one process for the same time, and reports per-layer
self times and work counters, the tracing overhead and a scan-strategy
probe table.

Every pass is checked against ``reference.json``; ``attempted`` and
``failed`` in the result count those checks, so ``failed/attempted``
is the failure ratio.  The lines before the last describe the
environment and list every metric with its unit; the last line is the
JSON result.  The metric names and units must match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(args, threads: int) -> dict:
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "EDGEISO_THREADS": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing edgeiso.cli and
    building the workload's inputs, raw and scaled by the median of the
    yardstick interpreters started before each sample.  One untimed
    start of each warms the caches."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            f"import workloads; "
            f"workloads.WORKLOADS[{name!r}].setup({seed}, workloads.load_reference())")
    samples, starts = [], []
    for i in range(SETUP_SAMPLES + 1):
        yardstick = calibrate.start_s()
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
        if i:
            samples.append(time.perf_counter() - start)
            starts.append(yardstick)
    raw = statistics.median(samples)
    return raw, raw * calibrate.REFERENCE_START_S / statistics.median(starts)


def run_plain(workload, args, tally) -> dict[str, tuple[float, str]]:
    """The mean pass rather than the median: with the host's swings
    scaled out, the mean spread least from run to run on a shared
    2-vCPU host."""
    raw_setup_s, setup_s = measure_setup(workload.name, args.seed)
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), workload.name, str(args.seed),
         str(args.seconds)],
        check=True, stdout=subprocess.PIPE, text=True)
    report = json.loads(done.stdout.splitlines()[-1])
    tally.attempted += report["attempted"]
    tally.failed += report["failed"]
    times = report["times"]
    subsets = report["subsets"]
    peak_kib = report["peak_rss_kib"]
    raw = statistics.fmean(times)
    slowdown = calibrate.slowdown(report["slices"])
    wall = raw / slowdown
    print(f"passes: {len(times)}  min {min(times):.4f} s  median {statistics.median(times):.4f} s  "
          f"mean {raw:.4f} s  max {max(times):.4f} s")
    print(f"host slowdown against the reference: {slowdown:.4f} over "
          f"{len(report['slices'])} calibration slices")
    print(f"{'raw wall_s':<48} {raw:.6g} s")
    print(f"{'raw subsets_per_s':<48} {subsets / raw:.6g} 1/s")
    print(f"{'raw setup_s':<48} {raw_setup_s:.6g} s")
    return {
        "wall_s": (wall, "s"),
        "subsets_per_s": (subsets / wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def run_traced(workload, args, threads: int, tally) -> dict[str, tuple[float, str]]:
    reference = workloads.load_reference()
    inputs = workload.setup(args.seed, reference)
    workloads.timed_pass(workload, inputs, tally)  # warm-up
    tracer = layers.traced()
    plain, traced = [], []
    claims: dict[str, float] = {}
    deadline = time.perf_counter() + args.seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        elapsed, result = workloads.timed_pass(workload, inputs, tally)
        plain.append(elapsed)
        for claim, spent in result.claim_elapsed.items():  # untraced claim times
            claims[claim] = claims.get(claim, 0.0) + spent
        with tracer:
            traced.append(workloads.timed_pass(workload, inputs, tally)[0])
    passes = len(traced)
    claims = {claim: spent / len(plain) for claim, spent in claims.items()}
    out = layers.layer_metrics(tracer, passes, sum(traced) / passes,
                               reference["casebook"]["claims"], claims)
    out["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    out.update(layers.scan_probe(threads, tally.check))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "edgeiso" / "__init__.py").is_file():
        print(f"error: no edgeiso sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    threads = nproc()
    os.environ["EDGEISO_THREADS"] = str(threads)
    workload = workloads.WORKLOADS[args.workload]
    print("environment: " + json.dumps(environment(args, threads)))

    tally = workloads.PassResult()
    if args.trace:
        metrics = run_traced(workload, args, threads, tally)
    else:
        metrics = run_plain(workload, args, tally)

    declared = declared_metrics(bool(args.trace))
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        print(f"error: metrics {sorted(set(produced) ^ set(declared))} differ from "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:.6g} {unit}")
    print(f"{'fail_ratio':<48} {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} verifications)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
