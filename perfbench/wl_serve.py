"""Workload ``serve``: an in-process ``ShmtService`` under a closed loop.

One worker thread (two GIL-bound workers run slower and far less
steadily) and a ``repro.serve/v1`` journal under the checkout's
``.perfbench_work`` directory, with ``os.fsync`` returning at once as on
a memory-backed directory.  The jobs are the program's seeded traffic
model (:func:`common.trace_specs`) at 256x256, every fifth one (20%)
pinned to ``gpu-baseline``.  The benchmark's main thread keeps
``OUTSTANDING`` jobs in flight and times rounds of ``ROUND_JOBS`` jobs.
A job's latency runs from ``submit`` to the terminal-state hook
``ServiceConfig.on_finish``.

After the timed rounds a crash drill runs the trace's last ``CRASH_JOBS``
jobs on a second service with its own journal: ``kill_after_hlops`` fires
at HLOP ``CRASH_AFTER_HLOPS``, ``ShmtService.resume`` recovers the
interrupted job from the journal, and the never-started jobs are
resubmitted.

Outside the timed phase every job's fingerprint is compared with a direct
``SHMTRuntime`` run of its spec, and the pinned GPU-baseline outputs with
the independent references in :mod:`refs`.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Dict, List

from common import (
    KERNELS,
    MIN_P95_SAMPLES,
    Checks,
    memory_backed_journals,
    peak_rss_mb,
    round_count,
    trace_overhead_pct,
    trace_specs,
)

SIZE = 256 * 256
ROUND_JOBS = 50
#: Reference time of one round on a 2-vCPU box (about 33 jobs/s).
ROUND_S = 1.5
OUTSTANDING = 4
#: Every this-many-th job pins ``gpu-baseline``.
PIN_EVERY = 5
CRASH_JOBS = 40
CRASH_AFTER_HLOPS = 1500


class Serve:
    name = "serve"

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work
        self.journal = os.path.join(work, "serve.jsonl")
        self.finished: Dict[str, float] = {}
        self.slots = threading.Semaphore(OUTSTANDING)
        self.jobs: list = []

    def load(self) -> None:
        from repro.serve import AdmissionConfig, JobSpec, JobState, ServiceConfig, ShmtService

        memory_backed_journals()
        self.AdmissionConfig, self.JobSpec, self.JobState = AdmissionConfig, JobSpec, JobState
        self.ServiceConfig, self.ShmtService = ServiceConfig, ShmtService

    def _on_finish(self, job) -> None:
        self.finished[job.spec.job_id] = time.perf_counter()
        self.slots.release()

    def config(self, journal: str, **extra):
        return self.ServiceConfig(
            workers=1,
            checkpoint_path=journal,
            admission=self.AdmissionConfig(capacity=64, policy="block"),
            **extra,
        )

    def setup(self) -> None:
        """Start the service and run one warm-up job per kernel."""
        self.service = self.ShmtService(
            self.config(self.journal, on_finish=self._on_finish)
        ).start()
        warmups = [
            self.JobSpec(kernel=kernel, size=SIZE, seed=index, job_id=f"warmup-{index}")
            for index, kernel in enumerate(KERNELS)
        ]
        self.jobs.extend(self.closed_loop(warmups)[0])

    def closed_loop(self, specs) -> tuple:
        """Submit ``specs`` keeping ``OUTSTANDING`` in flight; wait for all."""
        submitted: Dict[str, float] = {}
        jobs = []
        start = time.perf_counter()
        for spec in specs:
            self.slots.acquire()
            submitted[spec.job_id] = time.perf_counter()
            jobs.append(self.service.submit(spec))
        for job in jobs:
            job.wait()
        wall = time.perf_counter() - start
        return jobs, submitted, wall

    def measure(self, seconds: float, trace_mode: bool, tracer) -> dict:
        import probes

        rounds: List[dict] = []
        latencies: List[float] = []
        layers: List[dict] = []
        count = round_count(seconds, ROUND_S, -(-MIN_P95_SAMPLES // ROUND_JOBS))
        if trace_mode:
            count = max(count, 2)
        specs = trace_specs(self.seed, SIZE, count * ROUND_JOBS + CRASH_JOBS, PIN_EVERY)
        for index in range(count):
            traced = trace_mode and index % 2 == 0
            if traced:
                tracer.reset()
                probes.install(tracer)
                journal_before = os.path.getsize(self.journal)
            if trace_mode:
                # Let the worker's pending queue poll (0.1 s) expire, so it
                # takes a traced round's jobs through the wrapped queue; the
                # untraced rounds pause alike, so both start from the same
                # state and their wall times compare.
                time.sleep(0.15)
            jobs, submitted, wall = self.closed_loop(
                specs[index * ROUND_JOBS:(index + 1) * ROUND_JOBS]
            )
            if traced:
                tracer.uninstall()
                metrics = probes.layer_metrics(tracer)
                metrics["serve.journal_bytes"] = os.path.getsize(self.journal) - journal_before
                taken = [j for j in submitted if j in tracer.started]
                waits = [(tracer.started[j] - submitted[j]) * 1e3 for j in taken]
                runs = [(self.finished[j] - tracer.started[j]) * 1e3 for j in taken]
                metrics["serve.queue_wait_ms_p50"] = statistics.median(waits)
                metrics["serve.job_run_ms_p50"] = statistics.median(runs)
                layers.append(metrics)
                self.layer_table = probes.layer_table(tracer)
            latencies.extend((self.finished[j] - submitted[j]) * 1e3 for j in submitted)
            rounds.append({"wall_s": wall, "jobs": len(jobs), "traced": traced})
            self.jobs.extend(jobs)
        self.service.stop()
        self.service.join(60)
        if trace_mode:
            tracer.reset()
            probes.install(tracer)
        recovery = self.crash_drill(specs[-CRASH_JOBS:])
        if trace_mode:
            tracer.uninstall()
            crash = probes.layer_metrics(tracer)
            overhead = trace_overhead_pct(rounds)
            for entry in layers:
                for metric in ("serve.journal_load_s", "serve.hlops_preloaded"):
                    entry[metric] = crash[metric]
                entry["serve.recovery_s"] = recovery
                entry["trace.overhead_pct"] = overhead
        result = {
            "rounds": rounds,
            "latencies_ms": latencies,
            "recovery_s": recovery,
            "peak_rss_mb": peak_rss_mb(),
        }
        if trace_mode:
            result["layers"] = layers
            result["layer_table"] = self.layer_table
        checks = Checks()
        self.verify(checks)
        result["checks"] = {"passed": checks.passed, "failures": checks.failures}
        counted = [job for job in self.jobs if not job.spec.job_id.startswith("warmup")]
        result["attempted"] = len(counted)
        result["failed"] = sum(job.state is not self.JobState.DONE for job in counted)
        return result

    def crash_drill(self, specs) -> float:
        """Kill a second service at a fixed HLOP; return its recovery time."""
        from repro.errors import ServiceStopped

        journal = os.path.join(self.work, "serve-crash.jsonl")
        victim = self.ShmtService(
            self.config(journal, kill_after_hlops=CRASH_AFTER_HLOPS)
        ).start()
        drill, never_started = [], []
        for spec in specs:
            try:
                drill.append(victim.submit(spec))
            except ServiceStopped:  # the kill fired while submitting
                never_started.append(spec)
        victim.join(120)
        self.crash_killed = victim.killed
        never_started += [j.spec for j in drill if j.state is self.JobState.QUEUED]
        self.jobs.extend(j for j in drill if j.state.terminal)
        start = time.perf_counter()
        service, resumed = self.ShmtService.resume(journal, self.config(journal))
        service.start()
        for job in resumed:
            job.wait()
        recovery = time.perf_counter() - start
        self.crash_resumed = len(resumed)
        self.jobs.extend(resumed)
        self.jobs.extend(service.submit(spec) for spec in never_started)
        service.stop()
        service.join(120)
        return recovery

    def verify(self, checks: Checks) -> None:
        """Fingerprints against direct runtime runs; baselines against refs."""
        import refs
        from repro.core.runtime import RuntimeConfig, SHMTRuntime
        from repro.core.schedulers.base import make_scheduler
        from repro.core.schedulers.qos import scheduler_for_qos
        from repro.devices.platform import jetson_nano_platform
        from repro.exec import fingerprint_array
        from repro.workloads.generator import generate

        checks.check(self.crash_killed, "crash drill: kill_after_hlops fired")
        checks.check(self.crash_resumed >= 1, "crash drill: resume found the interrupted job")
        seed = self.ServiceConfig().runtime_seed
        mismatched, baseline_errors = [], []
        for job in self.jobs:
            spec = job.spec
            if job.state is not self.JobState.DONE:
                checks.check(False, f"job {spec.job_id} ended {job.state.value}")
                continue
            scheduler = make_scheduler(spec.policy) if spec.policy else scheduler_for_qos(spec.qos_class)
            runtime = SHMTRuntime(
                jetson_nano_platform(), scheduler, RuntimeConfig(seed=seed, deadline=spec.deadline)
            )
            call = generate(spec.kernel, size=spec.size, seed=spec.seed)
            report = runtime.execute(call)
            if fingerprint_array(report.output) != job.result.fingerprint:
                mismatched.append(spec.job_id)
            if spec.policy == "gpu-baseline" and spec.kernel in refs.REFERENCES:
                error = refs.relative_error(spec.kernel, call.data, report.output)
                if error > refs.TOLERANCE:
                    baseline_errors.append((spec.job_id, error))
        checks.check(
            not mismatched,
            f"every job's fingerprint equals a direct runtime run ({len(mismatched)} differ)",
        )
        checks.check(
            not baseline_errors,
            f"pinned gpu-baseline outputs match float64 references {baseline_errors[:3]}",
        )

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
            service.join(60)

