"""The yardsticks by which the plain run scales its times to a steady host.

On a shared host the speed of a CPU swings by up to 2x in phases of
seconds to minutes, and a whole run can fall inside one slow phase, so
raw times of the same code spread by 20-40% from run to run.  Fixed work
that shares no code with edgeiso slows down with the host: the
benchmark times it next to the work it measures, and reports each time
as it would read on a host where the fixed work takes its reference
time.  The fixed work never changes, so a change to edgeiso moves the
scaled times as much as the raw ones.

Passes are scaled by slices of a pure-Python loop.  Set-up is scaled by
fresh interpreters that import numpy, because starting an interpreter
is mostly loading and page faults, which slow down in other proportion
than the loop does.
"""

from __future__ import annotations

import subprocess
import sys
import time

LOOP = 150_000
# About the fastest times seen on a 2.1 GHz Xeon vCPU under Python 3.11
# with numpy 2.4.  Changing either rescales every later result.
REFERENCE_SLICE_S = 0.006
REFERENCE_START_S = 0.15


def slice_s() -> float:
    """Wall time of one slice of the fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i & 7
    return time.perf_counter() - start


def slices(seconds: float) -> list[float]:
    """Times of about ``seconds / REFERENCE_SLICE_S`` slices, at least one."""
    return [slice_s() for _ in range(max(1, round(seconds / REFERENCE_SLICE_S)))]


def slowdown(times: list[float]) -> float:
    """How many times slower than the reference the host ran these slices."""
    return sum(times) / len(times) / REFERENCE_SLICE_S


def start_s() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start
