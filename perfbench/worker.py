"""One measuring process of a plain (untraced) benchmark run.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS

Builds the workload's inputs, runs one verified warm-up pass, then
verified passes for SECONDS (at least one), each after calibration
slices that take about a twentieth of the pass before, and prints a
JSON line with the pass times, the slice times, the verification
counts and the process's peak RSS.  ``run.py`` starts one per run.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402

SLICE_SHARE = 0.05


def main(name: str, seed: int, seconds: float) -> None:
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed, workloads.load_reference())
    tally = workloads.PassResult()
    last = workloads.timed_pass(workload, inputs, tally)[0]  # warm-up, still verified
    times: list[float] = []
    slices: list[float] = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        slices += calibrate.slices(SLICE_SHARE * last)
        last = workloads.timed_pass(workload, inputs, tally)[0]
        times.append(last)
    print(json.dumps({
        "times": times,
        "slices": slices,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "subsets": inputs["subsets"],
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
