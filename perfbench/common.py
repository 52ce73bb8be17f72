"""Helpers shared by the benchmark's workloads and its two commands."""

from __future__ import annotations

import os
import resource
import statistics
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of this folder).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space for journals and span files; emptied at the start of a run.
WORK = os.path.join(ROOT, ".perfbench_work")

KERNELS = (
    "blackscholes",
    "dct8x8",
    "dwt",
    "fft",
    "histogram",
    "hotspot",
    "laplacian",
    "mean_filter",
    "sobel",
    "srad",
)

#: p95 is reported only with at least this many samples (ten beyond it).
MIN_P95_SAMPLES = 200


def round_count(seconds: float, round_s: float, minimum: int) -> int:
    """Rounds in a run: ``seconds`` of work at the reference round time.

    A run does a fixed amount of work for a given ``--seconds``, so its
    job count, and with it the memory the service keeps per finished job,
    does not depend on how fast the program ran.
    """
    return max(minimum, round(seconds / round_s))


def trace_specs(seed: int, size: int, jobs: int, pin_every: int = 0) -> list:
    """The program's seeded multi-tenant traffic, as ``jobs`` job specs.

    ``repro.cluster.loadgen.generate_trace`` draws each job's kernel (one of
    the ten), tenant (Zipf 1.2 over four) and QoS class (bronze, silver,
    gold as 6:3:1); input seeds are the job's index in the trace.  The
    benchmark submits the specs closed-loop, so the trace's arrival times
    go unused.  With ``pin_every``, every ``pin_every``-th job pins
    ``gpu-baseline``.
    """
    from repro.cluster.loadgen import TraceConfig, generate_trace

    trace = generate_trace(
        TraceConfig(jobs=jobs, seed=seed, kernels=KERNELS, size=size, job_prefix="job")
    )
    return [
        replace(arrival.spec, policy="gpu-baseline")
        if pin_every and index % pin_every == 0
        else arrival.spec
        for index, arrival in enumerate(trace)
    ]


def trace_overhead_pct(rounds: Sequence[dict]) -> float:
    """Tracing overhead measured by alternating rounds in one process.

    The median traced round's wall time over the median untraced round's,
    minus one, in percent.
    """
    on = statistics.median(r["wall_s"] for r in rounds if r["traced"])
    off = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    return (on / off - 1.0) * 100.0


def _no_fsync(_fd: int) -> None:
    """``os.fsync`` on a memory-backed file system: nothing to wait for."""


def memory_backed_journals() -> None:
    """Make this process's journals behave as on a memory-backed directory.

    The benchmark writes only inside its checkout, whose shared disk made
    each per-record fsync wait on other tenants' I/O.  Only the program's
    journals call ``os.fsync``; their encoding and writes stay measured.
    """
    os.fsync = _no_fsync


def use_source_tree() -> None:
    """Import the program from the checkout's ``src`` directory."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Another process's peak resident set (``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


class Checks:
    """Named pass/fail output checks; a run is correct when all pass."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.passed = 0

    def check(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr, flush=True)
