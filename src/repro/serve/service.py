"""The long-lived SHMT job service.

:class:`ShmtService` wraps the one-shot runtime
(:class:`~repro.core.runtime.SHMTRuntime`) into a thread-safe, long-lived
service: jobs enter through a bounded admission queue
(:mod:`repro.serve.admission`), run on a pool of worker threads (each run
owns a private platform instance, so runs never share mutable device
state), are bounded by per-job deadlines (cooperative cancellation at
HLOP boundaries via :class:`RuntimeConfig.deadline`), route around
devices whose circuit breakers are open (:mod:`repro.serve.breaker`), and
journal every accepted HLOP result to a crash-safe checkpoint
(:mod:`repro.serve.checkpoint`) so a killed service resumes interrupted
jobs *bit-identically* to an uninterrupted run.

Bit-identical resume rests on three invariants, each owned elsewhere:

1. a run is a deterministic function of (spec, runtime seed, blocked
   device set) -- the blocked set is frozen at admission and journaled
   with the job (:mod:`repro.core.control`);
2. simulated service times are calibrated predictions, never
   measurements, so serving journaled results instead of recomputing
   cannot shift the timeline;
3. the journal is append-only and flushed per record, so the crash loses
   at most a torn tail the reader drops.

Metrics (simulated-time histograms use the run's makespans; wall-clock
ones use the host clock) live in a :class:`MetricsRegistry` owned by the
service -- the same instrument layer the runtime's observability uses.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.control import RunControl
from repro.core.runtime import RuntimeConfig, SHMTRuntime
from repro.core.schedulers.base import make_scheduler
from repro.core.schedulers.qos import scheduler_for_qos
from repro.devices.platform import Platform, jetson_nano_platform
from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    InvalidInput,
    ServiceKilled,
    ServiceStopped,
)
from repro.exec import fingerprint_array
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionConfig, AdmissionQueue
from repro.serve.breaker import BreakerBoard, BreakerConfig, BreakerState
from repro.serve.checkpoint import CheckpointWriter, load_checkpoint
from repro.serve.job import Job, JobResult, JobSpec, JobState
from repro.workloads.generator import generate

#: Histogram buckets for job latencies (simulated seconds): 100us..10s.
_LATENCY_BUCKETS = tuple(10.0**e for e in range(-4, 2))


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service instance needs to run jobs."""

    #: Builds a fresh platform per job: runs never share device objects.
    platform_factory: Callable[[], Platform] = jetson_nano_platform
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Breaker cooldown clock (injectable for tests/soak drills).
    breaker_clock: Callable[[], float] = time.monotonic
    #: Journal path, ``str`` or ``pathlib.Path`` (``None`` = no
    #: checkpointing); missing parent directories are created.
    checkpoint_path: Optional[object] = None
    workers: int = 2
    #: Chaos plan applied to every run (the soak harness's fault feed).
    fault_plan: Optional[FaultPlan] = None
    #: Run the invariant checker inside every job's run.
    validate: bool = False
    #: Enable the HLOP fusion/batching pass (:mod:`repro.exec.fuse`) in
    #: every job's run.  Results stay bit-identical (the runtime suspends
    #: fusion automatically when a chaos plan is active), so this only
    #: changes wall-clock throughput.
    fuse: bool = False
    #: Runtime seed shared by every run (job-specific randomness comes
    #: from the spec's workload seed; this one drives scheduling RNG).
    runtime_seed: int = 2023
    #: Crash drill: raise :class:`ServiceKilled` immediately after the
    #: N-th HLOP result is journaled, service-wide.  ``None`` = never.
    kill_after_hlops: Optional[int] = None
    #: Called (from the worker thread) whenever a job reaches a terminal
    #: state.  The cluster shard streams results to its router with this;
    #: exceptions are swallowed so a bad listener cannot wedge a worker.
    on_finish: Optional[Callable[["Job"], None]] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class _ServiceControl(RunControl):
    """The service's per-run hooks (see :mod:`repro.core.control`)."""

    def __init__(
        self,
        service: "ShmtService",
        job: Job,
        blocked: frozenset,
        preloaded: Dict[int, object],
    ) -> None:
        self._service = service
        self._job = job
        self._blocked = blocked
        self._preloaded = preloaded

    def blocked_devices(self, names) -> set:
        return {name for name in names if name in self._blocked}

    def on_attempt(self, device_name: str, ok: bool, kind: str = "") -> None:
        self._service._on_attempt(device_name, ok, kind)

    def on_hlop_result(self, hlop_id: int, result) -> None:
        if hlop_id in self._preloaded:
            # A resumed result: it is already in the journal; journaling
            # it again would duplicate records on every resume.
            return
        self._service._journal_hlop(self._job, hlop_id, result)

    def stored_result(self, hlop_id: int):
        return self._preloaded.get(hlop_id)


class ShmtService:
    """Thread-safe job service over the SHMT runtime."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.queue = AdmissionQueue(self.config.admission)
        self.metrics = MetricsRegistry()
        self.breakers = BreakerBoard(
            self.config.breaker,
            clock=self.config.breaker_clock,
            listener=self._on_breaker_transition,
        )
        self.checkpoint: Optional[CheckpointWriter] = (
            CheckpointWriter(self.config.checkpoint_path)
            if self.config.checkpoint_path
            else None
        )
        #: Every job this instance ever accepted, by id (accounting).
        self.jobs: Dict[str, Job] = {}
        #: Job ids the resume journal already knows (terminal *or*
        #: interrupted).  Submissions reusing one are rejected: the
        #: journal keys records by job_id, so a reused id would merge two
        #: jobs' records and break bit-identical resume.
        self.journal_ids: frozenset = frozenset()
        #: Resume seeds: job_id -> {hlop_id: array} served from the journal.
        self._preloaded: Dict[str, Dict[int, object]] = {}
        #: Resume routing: job_id -> the blocked set frozen by the
        #: interrupted run (overrides live breaker state, for identity).
        self._forced_blocked: Dict[str, List[str]] = {}
        self._seq = 0
        self._hlops_journaled = 0
        self._lock = threading.Lock()
        #: Serializes metric updates: instruments are plain dicts and the
        #: workers' read-modify-write increments would race without it.
        self._metrics_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self._killed = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ShmtService":
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker, name=f"shmt-serve-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop accepting work; finish (``drain``) or shed the queue."""
        self._stopping = True
        if not drain:
            for job in self.queue.drain():
                self._finish_shed(job, reason="service stopped")
        self.queue.close()

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)

    def kill(self) -> None:
        """Crash drill: abandon in-flight work at the next HLOP boundary.

        In-flight jobs stop *after* their current HLOP's journal record is
        durable and never reach a terminal state -- exactly the state a
        SIGKILL leaves behind -- so :meth:`resume` must finish them.
        """
        self._killed = True
        self.queue.close()

    @property
    def killed(self) -> bool:
        return self._killed

    # ------------------------------------------------------------ submission

    def submit(self, spec: JobSpec) -> Job:
        """Queue one job; returns its handle (possibly already shed).

        Raises :class:`ServiceStopped` after stop/kill,
        :class:`InvalidInput` when ``spec.job_id`` duplicates a job this
        service (or the journal it resumed from) already knows -- a
        reused id would orphan the earlier handle's waiters and merge two
        jobs' journal records under one key -- and
        :class:`AdmissionRejected` when admission refuses the job
        (full queue under ``reject``, tenant cap, block timeout);
        admission rejections are journaled and counted before the raise.
        """
        if self._stopping or self._killed:
            raise ServiceStopped("service is stopped; submissions are closed")
        with self._lock:
            self._seq += 1
            seq = self._seq
        if not spec.job_id:
            spec = JobSpec(**{**spec.to_dict(), "job_id": f"job-{seq:06d}"})
        job = Job(spec, seq)
        job.on_finish = self._notify_finish
        with self._lock:
            if spec.job_id in self.jobs or spec.job_id in self.journal_ids:
                raise InvalidInput(
                    f"duplicate job id {spec.job_id!r}: already known to "
                    "this service or its resume journal",
                    job_id=spec.job_id,
                )
            self.jobs[spec.job_id] = job
        try:
            shed = self.queue.put(job)
        except AdmissionRejected as error:
            self._count("serve_jobs_rejected_total", tenant=spec.tenant)
            self._journal_end(job, "rejected", error_code=error.code)
            job.finish(JobState.SHED, error=error)
            raise
        self._count("serve_jobs_submitted_total", tenant=spec.tenant)
        for victim in shed:
            self._finish_shed(victim, reason="displaced under overload")
        self._gauge_depth()
        return job

    def _readmit(self, job: Job) -> None:
        """Re-enqueue a journal-recovered job, bypassing backpressure.

        The job was admitted by the killed service already; admission
        control must not get a second veto over it.
        """
        job.on_finish = self._notify_finish
        with self._lock:
            self.jobs[job.spec.job_id] = job
        self.queue.readmit(job)

    def submit_recovered(
        self,
        spec: JobSpec,
        blocked: Optional[List[str]] = None,
        preloaded: Optional[Dict[int, object]] = None,
    ) -> Job:
        """Accept a job migrated from another service instance.

        The cluster router calls this when it moves work off a crashed or
        degraded shard: the job already passed admission control once
        (cluster-wide), so backpressure gets no second veto -- but
        duplicate ids are still refused, because one service must never
        hold two jobs under one journal key.  ``blocked`` forces the
        run's blocked device set (the dead shard's journaled snapshot)
        and ``preloaded`` seeds already-journaled HLOP results, so a
        half-finished migrated job replays bit-identically instead of
        recomputing from scratch.
        """
        if self._stopping or self._killed:
            raise ServiceStopped("service is stopped; submissions are closed")
        with self._lock:
            if spec.job_id in self.jobs or spec.job_id in self.journal_ids:
                raise InvalidInput(
                    f"duplicate job id {spec.job_id!r}: already known to "
                    "this service or its resume journal",
                    job_id=spec.job_id,
                )
            self._seq += 1
            seq = self._seq
        job = Job(spec, seq)
        if blocked is not None:
            self._forced_blocked[spec.job_id] = list(blocked)
        if preloaded:
            self._preloaded[spec.job_id] = dict(preloaded)
        self._readmit(job)
        self._count("serve_jobs_migrated_in_total", tenant=spec.tenant)
        self._gauge_depth()
        return job

    def evict_queued(self, only: Optional[set] = None) -> List[Job]:
        """Remove and return queued-not-yet-running jobs.

        Migration hook: the cluster router drains a degraded shard's
        backlog through this and re-places it on healthy shards; with
        ``only`` given, just the named jobs leave (the elastic reshard
        handoff moves exactly the keys that remapped).  Evicted jobs have
        no journal footprint (``job-start`` is only written when a run
        begins) and are forgotten by this service entirely -- the caller
        owns their fate.  Jobs a worker already picked up are not
        returned; they finish where they run.
        """
        jobs = self.queue.drain(only=only)
        with self._lock:
            for job in jobs:
                self.jobs.pop(job.spec.job_id, None)
                self._preloaded.pop(job.spec.job_id, None)
                self._forced_blocked.pop(job.spec.job_id, None)
                job.on_finish = None
        self._gauge_depth()
        return jobs

    def _notify_finish(self, job: Job) -> None:
        callback = self.config.on_finish
        if callback is None:
            return
        try:
            callback(job)
        except Exception:  # noqa: BLE001 - listener isolation boundary
            pass

    def _finish_shed(self, job: Job, reason: str) -> None:
        error = AdmissionRejected(
            f"job {job.spec.job_id} shed: {reason}", reason="shed"
        )
        self._count("serve_jobs_shed_total", tenant=job.spec.tenant)
        self._journal_end(job, "shed", error_code=error.code)
        job.finish(JobState.SHED, error=error)

    # ------------------------------------------------------------ worker loop

    def _worker(self) -> None:
        while True:
            if self._killed:
                return
            job = self.queue.get(timeout=0.1)
            if job is None:
                if self._stopping or self._killed:
                    return
                continue
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        job.state = JobState.RUNNING
        self._gauge_depth()
        started = time.monotonic()
        try:
            platform = self.config.platform_factory()
            names = [d.name for d in platform.devices]
            forced = self._forced_blocked.pop(spec.job_id, None)
            if forced is not None:
                blocked = sorted(set(forced) & set(names))
            else:
                blocked = sorted(self.breakers.blocked(names))
            job.blocked = blocked
            if self.checkpoint is not None:
                self.checkpoint.job_start(spec, blocked)
            control = _ServiceControl(
                self,
                job,
                frozenset(blocked),
                self._preloaded.pop(spec.job_id, {}),
            )
            scheduler = (
                make_scheduler(spec.policy)
                if spec.policy
                else scheduler_for_qos(spec.qos_class)
            )
            runtime = SHMTRuntime(
                platform,
                scheduler,
                config=RuntimeConfig(
                    seed=self.config.runtime_seed,
                    deadline=spec.deadline,
                    control=control,
                    fault_plan=self.config.fault_plan,
                    validate=self.config.validate,
                    fuse=self.config.fuse,
                ),
            )
            call = generate(spec.kernel, size=spec.size, seed=spec.seed)
            report = runtime.execute(call)
        except DeadlineExceeded as error:
            self._count("serve_jobs_deadline_cancelled_total", tenant=spec.tenant)
            self._journal_end(job, "deadline", error_code=error.code)
            job.finish(JobState.DEADLINE, error=error)
            return
        except ServiceKilled:
            # The crash drill fired mid-run: the journal keeps every HLOP
            # committed so far; the job stays non-terminal for resume.
            return
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            self._count("serve_jobs_failed_total", tenant=spec.tenant)
            self._journal_end(
                job, "failed", error_code=getattr(error, "code", "UNCLASSIFIED")
            )
            job.finish(JobState.FAILED, error=error)
            return
        wall = time.monotonic() - started
        fingerprint = fingerprint_array(report.output)
        result = JobResult(
            fingerprint=fingerprint,
            makespan=report.makespan,
            wall_seconds=wall,
            degraded=report.degraded,
            plan_notes=dict(report.plan_notes),
        )
        self._journal_end(
            job, "done", fingerprint=fingerprint, makespan=report.makespan
        )
        self._count("serve_jobs_completed_total", tenant=spec.tenant)
        with self._metrics_lock:
            self.metrics.histogram(
                "serve_job_sim_seconds", buckets=_LATENCY_BUCKETS
            ).observe(report.makespan, qos=spec.qos_class)
            self.metrics.histogram("serve_job_wall_seconds").observe(
                wall, qos=spec.qos_class
            )
        job.finish(JobState.DONE, result=result, output=report.output)

    # ------------------------------------------------------------- run hooks

    def _on_attempt(self, device_name: str, ok: bool, kind: str = "") -> None:
        self.breakers.record(device_name, ok)
        if not ok:
            self._count(
                "serve_device_failures_total", device=device_name, kind=kind
            )

    def _journal_hlop(self, job: Job, hlop_id: int, result) -> None:
        if self.checkpoint is not None:
            self.checkpoint.hlop_result(job.spec.job_id, hlop_id, result)
        with self._lock:
            self._hlops_journaled += 1
            count = self._hlops_journaled
        kill_at = self.config.kill_after_hlops
        if self._killed or (kill_at is not None and count >= kill_at):
            # The record above is durable; dying here models SIGKILL at
            # an HLOP boundary.
            self._killed = True
            self.queue.close()
            raise ServiceKilled(
                f"service killed after journaling HLOP {hlop_id} "
                f"(record {count})",
                hlops_journaled=count,
            )

    def _journal_end(self, job: Job, state: str, **kwargs) -> None:
        if self.checkpoint is not None:
            self.checkpoint.job_end(job.spec.job_id, state, **kwargs)

    def _on_breaker_transition(
        self, device: str, old: BreakerState, new: BreakerState
    ) -> None:
        with self._metrics_lock:
            self.metrics.counter("serve_breaker_transitions_total").inc(
                1, device=device, to=new.value
            )

    # --------------------------------------------------------------- metrics

    def _count(self, name: str, **labels: str) -> None:
        with self._metrics_lock:
            self.metrics.counter(name).inc(1, **labels)

    def _gauge_depth(self) -> None:
        with self._metrics_lock:
            self.metrics.gauge("serve_queue_depth").set(self.queue.depth())

    def latency_quantile(self, q: float, qos: Optional[str] = None) -> Optional[float]:
        """p-quantile of completed jobs' simulated latency (all QoS = max)."""
        histogram = self.metrics.get("serve_job_sim_seconds")
        if histogram is None:
            return None
        if qos is not None:
            return histogram.quantile(q, qos=qos)
        values = [
            histogram.quantile(q, **dict(key))
            for key in histogram.series()
        ]
        values = [v for v in values if v is not None]
        return max(values) if values else None

    # ---------------------------------------------------------------- resume

    @classmethod
    def resume(
        cls, checkpoint_path: str, config: Optional[ServiceConfig] = None
    ) -> Tuple["ShmtService", List[Job]]:
        """Recover a killed service from its journal.

        Interrupted jobs (``job-start`` without ``job-end``) are
        re-queued with (a) their journaled HLOP results pre-loaded, so
        only missing numerics recompute, and (b) their journaled blocked
        device set forced, so the resumed run replays the identical
        schedule regardless of current breaker state.  Returns the new
        (started-not-yet) service and the re-queued job handles.
        """
        state = load_checkpoint(checkpoint_path)
        if config is None:
            config = ServiceConfig(checkpoint_path=checkpoint_path)
        service = cls(config)
        # Submissions must never reuse a journaled id (terminal or not):
        # the journal keys records by job_id, so a collision would merge
        # two jobs' records.  Remember every journaled id for submit()'s
        # duplicate check, and seed _seq past the highest auto-generated
        # id so fresh ``job-{seq:06d}`` ids cannot collide either.
        service.journal_ids = frozenset(state.jobs)
        with service._lock:
            for job_id in state.jobs:
                match = re.fullmatch(r"job-(\d+)", job_id)
                if match:
                    service._seq = max(service._seq, int(match.group(1)))
        resumed: List[Job] = []
        pending = state.pending()
        for journal in pending:
            with service._lock:
                service._seq += 1
                seq = service._seq
            job = Job(journal.spec, seq)
            service._preloaded[journal.job_id] = dict(journal.hlops)
            service._forced_blocked[journal.job_id] = list(journal.blocked)
            service._readmit(job)
            resumed.append(job)
        return service, resumed
