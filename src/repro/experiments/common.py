"""Shared machinery for reproducing the paper's figures and tables.

Every ``figN.py`` module builds on :class:`ExperimentContext`: it
constructs the right platform for a policy (GPU-only for the baseline and
software pipelining, TPU-only for the "edge TPU" reference, the full
Jetson-Nano analogue otherwise), executes the kernel's workload, and
memoizes results so one experiment sweep never re-runs an identical
(kernel, policy, size, seed) combination.  Every runtime the sweep builds
computes over the context's one result store, so HLOPs that repeat across
policies are computed once per sweep.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import ExecutionReport
from repro.core.runtime import RuntimeConfig, SHMTRuntime
from repro.core.schedulers.base import Scheduler, make_scheduler
from repro.core.vop import VOPCall
from repro.devices.perf_model import benchmark_names
from repro.devices.platform import (
    Platform,
    gpu_only_platform,
    gpu_tpu_platform,
    jetson_nano_platform,
)
from repro.devices.edgetpu import EdgeTPUDevice
from repro.exec import ResultCache, make_backend
from repro.metrics.stats import geometric_mean
from repro.workloads.generator import Size, generate

#: The Figure 6 policy lineup, in the paper's presentation order.
FIG6_POLICIES = (
    "IRA-sampling",
    "sw-pipelining",
    "even-distribution",
    "work-stealing",
    "QAWS-TS",
    "QAWS-TU",
    "QAWS-TR",
    "QAWS-LS",
    "QAWS-LU",
    "QAWS-LR",
)

#: Figure 7/8 policy lineup (quality figures).
QUALITY_POLICIES = (
    "edge-tpu-only",
    "IRA-sampling",
    "work-stealing",
    "QAWS-TS",
    "QAWS-TU",
    "QAWS-TR",
    "QAWS-LS",
    "QAWS-LU",
    "QAWS-LR",
    "oracle",
)

BASELINE = "gpu-baseline"


def platform_for(policy: str) -> Platform:
    """The hardware a policy runs on (mirrors the paper's setups)."""
    if policy in ("gpu-baseline", "sw-pipelining"):
        return gpu_only_platform()
    if policy == "edge-tpu-only":
        return Platform(devices=[EdgeTPUDevice()])
    if policy == "even-distribution":
        return gpu_tpu_platform()
    return jetson_nano_platform()


@dataclass
class ExperimentSettings:
    """Knobs shared by every experiment run."""

    size: Optional[Size] = None
    seed: int = 0
    kernels: Sequence[str] = field(default_factory=lambda: list(benchmark_names()))
    runtime_config: RuntimeConfig = field(default_factory=RuntimeConfig)


class ExperimentContext:
    """Caches workloads, references, and policy runs for one settings set.

    The context owns one :class:`~repro.exec.cache.ResultCache`, and every
    runtime it builds (:meth:`runtime`) computes over it: the policies of
    a sweep partition the same input into the same blocks, so each block
    result is computed once per sweep and served bit-identically to the
    rest.  ``store`` hands an existing context's store to a derived one
    (Figure 12's per-size contexts); the store lives as long as the
    contexts that hold it.

    Thread-safe: :meth:`run` and :meth:`reference` may be called from the
    runner's ``--jobs`` fan-out workers; identical in-flight requests are
    deduplicated so each (kernel, policy) executes exactly once.  Runs are
    deterministic (each builds its own seeded RNG), so results are
    independent of worker interleaving.
    """

    def __init__(
        self,
        settings: Optional[ExperimentSettings] = None,
        store: Optional[ResultCache] = None,
    ) -> None:
        self.settings = settings or ExperimentSettings()
        self.store = store if store is not None else ResultCache()
        self._calls: Dict[str, VOPCall] = {}
        self._references: Dict[str, np.ndarray] = {}
        self._runs: Dict[Tuple[str, str], ExecutionReport] = {}
        self._lock = threading.Lock()
        self._inflight: Dict[Tuple[str, str], threading.Event] = {}

    def call(self, kernel: str) -> VOPCall:
        with self._lock:
            call = self._calls.get(kernel)
        if call is None:
            call = generate(kernel, size=self.settings.size, seed=self.settings.seed)
            with self._lock:
                call = self._calls.setdefault(kernel, call)
        return call

    def reference(self, kernel: str) -> np.ndarray:
        """FP64 full-input reference output for quality metrics."""
        with self._lock:
            reference = self._references.get(kernel)
        if reference is None:
            call = self.call(kernel)
            reference = np.asarray(
                call.spec.reference(
                    call.data.astype(np.float64), call.resolve_context()
                )
            )
            with self._lock:
                reference = self._references.setdefault(kernel, reference)
        return reference

    def runtime(self, platform: Platform, scheduler: Scheduler) -> SHMTRuntime:
        """A runtime with the settings' config, computing over the store.

        Each runtime gets its own backend -- a run rebinds its fusing
        backend's hooks, and :meth:`prefetch` runs several at once -- so
        the locked store is the only object they share.
        """
        config = self.settings.runtime_config
        backend = make_backend(
            config.backend,
            jobs=config.jobs,
            cache=self.store,
            validate=config.validate,
            fuse=config.fuse,
        )
        return SHMTRuntime(platform, scheduler, config, backend=backend)

    def run(self, kernel: str, policy: str) -> ExecutionReport:
        key = (kernel, policy)
        while True:
            with self._lock:
                report = self._runs.get(key)
                if report is not None:
                    return report
                pending = self._inflight.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._inflight[key] = pending
                    break
            # Another worker is executing this exact run; wait and re-check
            # (re-checking covers the owner failing without a result).
            pending.wait()
        try:
            runtime = self.runtime(platform_for(policy), make_scheduler(policy))
            report = runtime.execute(self.call(kernel))
            with self._lock:
                self._runs[key] = report
            return report
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            pending.set()

    def prefetch(self, pairs: Iterable[Tuple[str, str]], jobs: int) -> None:
        """Execute ``(kernel, policy)`` runs on ``jobs`` worker threads.

        The figure modules then read every result, and each kernel's
        reference, from the context's memo -- this is the runner's
        ``--jobs`` fan-out across (experiment, kernel, policy).
        """
        todo = [pair for pair in dict.fromkeys(pairs) if pair not in self._runs]
        kernels = list(dict.fromkeys(kernel for kernel, _ in todo))
        with ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-experiments"
        ) as pool:
            futures = [pool.submit(self.run, kernel, policy) for kernel, policy in todo]
            futures.extend(pool.submit(self.reference, kernel) for kernel in kernels)
            for future in futures:
                future.result()

    def speedup(self, kernel: str, policy: str) -> float:
        """End-to-end speedup over the GPU baseline (the paper's y-axis)."""
        return self.run(kernel, policy).speedup_over(self.run(kernel, BASELINE))

    def observed_runs(self):
        """Yield ``(kernel, policy, report)`` for cached runs with metrics.

        Deterministic order (sorted by kernel then policy); empty unless
        the settings' runtime config has ``observe=True``.
        """
        for kernel, policy in sorted(self._runs):
            report = self._runs[(kernel, policy)]
            if report.metrics is not None:
                yield kernel, policy, report


@dataclass
class FigureResult:
    """One reproduced figure/table: named rows of per-kernel values."""

    name: str
    kernels: List[str]
    #: row label -> per-kernel values (same order as ``kernels``).
    series: "Dict[str, List[float]]"
    #: row label -> cross-kernel aggregate (GMEAN unless noted).
    aggregates: Dict[str, float] = field(default_factory=dict)

    def value(self, row: str, kernel: str) -> float:
        return self.series[row][self.kernels.index(kernel)]

    def compute_gmeans(self) -> None:
        for row, values in self.series.items():
            positives = [v for v in values if v > 0]
            if positives:
                self.aggregates[row] = geometric_mean(positives)

    def format_table(self, unit: str = "", width: int = 9) -> str:
        header = f"{'policy':18s}" + "".join(f"{k[:width - 1]:>{width}s}" for k in self.kernels)
        header += f"{'GMEAN':>{width}s}"
        lines = [f"== {self.name} {unit}".rstrip(), header]
        for row, values in self.series.items():
            cells = "".join(f"{v:>{width}.3f}" for v in values)
            aggregate = self.aggregates.get(row)
            tail = f"{aggregate:>{width}.3f}" if aggregate is not None else " " * width
            lines.append(f"{row:18s}{cells}{tail}")
        return "\n".join(lines)
