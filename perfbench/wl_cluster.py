"""Workload ``cluster``: a ``ClusterRouter`` over two one-worker shards.

The shard journals and the router's ``repro.cluster/v1`` journal live under
the checkout's ``.perfbench_work`` directory, with ``os.fsync`` returning
at once in the router and in each shard process, as on a memory-backed
directory.  The load is the program's seeded multi-tenant traffic model
(:func:`common.trace_specs`) at 128x128 (smaller jobs are dominated by IPC
and their throughput scatters widely), submitted closed-loop from the
benchmark's main thread: ``OUTSTANDING`` jobs in flight, timed in rounds
of ``ROUND_JOBS`` jobs.  A job's
latency runs from ``ClusterRouter.submit`` until ``ClusterJob.wait``
returns in one of ``OUTSTANDING`` waiter threads.

No shard is killed: a SIGKILL during a write to the shared event queue can
silence the surviving shards (see the README).  Outside the timed phase
the run audits the shard journals (one ``done`` record per job, with the
fingerprint the router reported) and compares the first round's
fingerprints with direct ``SHMTRuntime`` runs.
"""

from __future__ import annotations

import glob
import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

from common import (
    KERNELS,
    MIN_P95_SAMPLES,
    Checks,
    memory_backed_journals,
    peak_rss_mb,
    process_peak_rss_mb,
    round_count,
    trace_overhead_pct,
    trace_specs,
)

SIZE = 128 * 128
SHARDS = 2
ROUND_JOBS = 64
#: Reference time of one round on a 2-vCPU box (about 160 jobs/s).
ROUND_S = 0.4
OUTSTANDING = 8
#: A job not resolved by then counts as ended (and fails the DONE check).
JOB_TIMEOUT_S = 120.0


def _shard_main(*args) -> None:
    """The router's shard entry point, in a shard with memory-backed journals."""
    memory_backed_journals()
    from repro.cluster.shard import shard_main

    shard_main(*args)


class Cluster:
    name = "cluster"

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.journal_dir = os.path.join(work, "cluster")
        self.router = None
        self.stopped = False
        self.jobs: list = []
        self.ended: "queue.Queue[float]" = queue.Queue()
        self.waiters = ThreadPoolExecutor(OUTSTANDING, thread_name_prefix="perfbench-wait")

    def load(self) -> None:
        from repro.cluster import ClusterConfig, ClusterRouter, ShardSpec, router
        from repro.cluster.hashring import HashRing
        from repro.serve import AdmissionConfig, JobSpec, JobState

        memory_backed_journals()
        # Spawned shards unpickle their target by name, so they run this
        # module's wrapper, which stubs fsync in the shard before it starts.
        router.shard_main = _shard_main

        self.JobSpec, self.JobState, self.HashRing = JobSpec, JobState, HashRing
        self.config = ClusterConfig(
            journal_dir=self.journal_dir,
            shards=SHARDS,
            shard=ShardSpec(workers=1, admission=AdmissionConfig(capacity=64, policy="block")),
            checkpoint_path=os.path.join(self.journal_dir, "router.jsonl"),
        )
        self.ClusterRouter = ClusterRouter

    def setup(self) -> None:
        """Spawn the shards and run one warm-up job per kernel on each."""
        start = time.perf_counter()
        self.router = self.ClusterRouter(self.config).start()
        self.spawn_s = time.perf_counter() - start
        ring = self.HashRing(
            [f"shard-{i}" for i in range(SHARDS)], vnodes=self.config.vnodes
        )
        warmups = []
        for shard in sorted(ring.shards):
            for kernel in KERNELS:
                index = 0
                while True:
                    job_id = f"warmup-{shard}-{kernel}-{index}"
                    if ring.place("warmup", job_id, spread=self.config.tenant_spread) == shard:
                        break
                    index += 1
                warmups.append(
                    self.JobSpec(kernel=kernel, size=SIZE, tenant="warmup", job_id=job_id)
                )
        self.jobs.extend(self.closed_loop(warmups)[0])

    def closed_loop(self, specs) -> tuple:
        """Submit ``specs`` keeping ``OUTSTANDING`` in flight; wait for all."""
        latencies: List[float] = []
        jobs = []
        start = time.perf_counter()
        for spec in specs:
            if len(jobs) - len(latencies) >= OUTSTANDING:
                latencies.append(self.ended.get())
            submitted = time.perf_counter()
            job = self.router.submit(spec)
            jobs.append(job)
            self.waiters.submit(self._await, job, submitted)
        while len(latencies) < len(jobs):
            latencies.append(self.ended.get())
        return jobs, latencies, time.perf_counter() - start

    def _await(self, job, submitted: float) -> None:
        # One waiter thread per job in flight, so each end is stamped when
        # the router resolves the job, without polling.
        job.wait(JOB_TIMEOUT_S)
        self.ended.put((time.perf_counter() - submitted) * 1e3)

    def _shard_journal_bytes(self) -> int:
        return sum(
            os.path.getsize(path)
            for path in glob.glob(os.path.join(self.journal_dir, "shard-*.jsonl"))
        )

    def _resent(self) -> float:
        return sum(
            self.router.metrics.value("transport_resent_total", shard=name, link="command")
            for name in self.router.shard_states()
        )

    def measure(self, seconds: float, trace_mode: bool, tracer) -> dict:
        import probes

        rounds: List[dict] = []
        latencies: List[float] = []
        layers: List[dict] = []
        self.sample: list = []
        count = round_count(seconds, ROUND_S, -(-MIN_P95_SAMPLES // ROUND_JOBS))
        if trace_mode:
            count = max(count, 2)
        specs = trace_specs(self.seed, SIZE, count * ROUND_JOBS)
        for index in range(count):
            traced = trace_mode and index % 2 == 0
            if traced:
                tracer.reset()
                probes.install(tracer)
                before = (
                    self.router.metrics.total("cluster_heartbeats_total"),
                    self._resent(),
                    self._shard_journal_bytes(),
                )
            jobs, round_latencies, wall = self.closed_loop(
                specs[index * ROUND_JOBS:(index + 1) * ROUND_JOBS]
            )
            if traced:
                tracer.uninstall()
                metrics = probes.layer_metrics(tracer)
                metrics["cluster.spawn_s"] = self.spawn_s
                metrics["cluster.heartbeats"] = (
                    self.router.metrics.total("cluster_heartbeats_total") - before[0]
                )
                metrics["cluster.commands_resent"] = self._resent() - before[1]
                metrics["cluster.shard_journal_bytes"] = self._shard_journal_bytes() - before[2]
                layers.append(metrics)
                self.layer_table = probes.layer_table(tracer)
            if index == 0:
                self.sample = jobs
            latencies.extend(round_latencies)
            rounds.append({"wall_s": wall, "jobs": len(jobs), "traced": traced})
            self.jobs.extend(jobs)
        peak = peak_rss_mb()
        for name in self.router.shard_states():
            pid = self.router.shard_pid(name)
            peak += (process_peak_rss_mb(pid) or 0.0) if pid else 0.0
        result = {"rounds": rounds, "latencies_ms": latencies, "peak_rss_mb": peak}
        if trace_mode:
            overhead = trace_overhead_pct(rounds)
            for entry in layers:
                entry["trace.overhead_pct"] = overhead
            result["layers"] = layers
            result["layer_table"] = self.layer_table
        self.close()
        checks = Checks()
        self.verify(checks)
        result["checks"] = {"passed": checks.passed, "failures": checks.failures}
        counted = [job for job in self.jobs if job.spec.tenant != "warmup"]
        result["attempted"] = len(counted)
        result["failed"] = sum(job.state is not self.JobState.DONE for job in counted)
        return result

    def verify(self, checks: Checks) -> None:
        """Exactly-once resolution from the journals; sampled fingerprints."""
        from repro.core.runtime import RuntimeConfig, SHMTRuntime
        from repro.core.schedulers.qos import scheduler_for_qos
        from repro.devices.platform import jetson_nano_platform
        from repro.exec import fingerprint_array
        from repro.serve import load_checkpoint
        from repro.workloads.generator import generate

        done: Dict[str, List[str]] = {}
        for path in sorted(glob.glob(os.path.join(self.journal_dir, "shard-*.jsonl"))):
            for job_id, journal in load_checkpoint(path).jobs.items():
                if journal.state is not None:
                    done.setdefault(job_id, []).append(journal.fingerprint)
        not_done = [j.job_id for j in self.jobs if j.state is not self.JobState.DONE]
        checks.check(not not_done, f"every job resolved DONE ({len(not_done)} did not)")
        twice = [job_id for job_id, ends in done.items() if len(ends) != 1]
        checks.check(not twice, f"one terminal journal record per job ({len(twice)} have more)")
        disagree = [
            j.job_id for j in self.jobs if done.get(j.job_id, [None])[0] != j.fingerprint
        ]
        checks.check(not disagree, f"journaled fingerprints match the router's ({len(disagree)} differ)")
        resolved = self.router.metrics.total("cluster_jobs_done_total")
        checks.check(
            resolved == len(self.jobs),
            f"the router resolved each job once ({resolved:g} for {len(self.jobs)} jobs)",
        )
        seed = self.config.shard.runtime_seed
        mismatched = []
        for job in self.sample:
            spec = job.spec
            runtime = SHMTRuntime(
                jetson_nano_platform(), scheduler_for_qos(spec.qos_class), RuntimeConfig(seed=seed)
            )
            report = runtime.execute(generate(spec.kernel, size=spec.size, seed=spec.seed))
            if fingerprint_array(report.output) != job.fingerprint:
                mismatched.append(spec.job_id)
        checks.check(
            bool(self.sample) and not mismatched,
            f"first-round fingerprints equal direct runtime runs ({len(mismatched)} differ)",
        )

    def close(self) -> None:
        if self.router is not None and not self.stopped:
            self.stopped = True
            self.router.stop(drain=True, timeout=30.0)
        self.waiters.shutdown()
