"""One cluster shard: a :class:`~repro.serve.service.ShmtService` in its
own OS process.

The child process (:func:`shard_main`) owns a whole service instance --
worker threads, admission queue, breakers, and a private checkpoint
journal -- and speaks to the router over two multiprocessing queues
wrapped in the :mod:`repro.cluster.transport` seam:

* **commands** (router -> shard): ``(seq, kind, args)`` tuples --
  ``submit`` / ``submit_recovered`` / ``evict`` / ``force_open`` /
  ``stop`` / ``ack_event`` / ``wedge``.
* **events** (shard -> router, shared by all shards): ``(kind, shard,
  generation, seq, payload)`` -- ``hb`` heartbeats, ``ack`` command
  acknowledgements, ``result`` terminal job states, ``bounced``
  submissions that raced a stopping service, ``evicted`` migration
  payloads, and a final ``stopped`` carrying the shard's metrics
  snapshot.

The protocol is **idempotent over a lossy transport**: every command
carries a monotonic sequence number the shard acknowledges (``ack``) and
deduplicates -- a resent or chaos-duplicated command re-acks but never
re-executes.  Events the router must not lose (``result``, ``evicted``,
``bounced``, ``stopped``) sit in a :class:`ReliableOutbox` and are resent
with backoff by the heartbeat tick until the router's ``ack_event``
confirms them; heartbeats and acks are fire-and-forget (loss is repaired
by the next tick or the peer's resend).

Results stream through the service's ``on_finish`` hook, so the shard
never polls its own jobs.  Heartbeats carry queue depth, breaker state
(via :meth:`BreakerBoard.poll`, which advances cooldowns without
consuming half-open probe slots), counter totals, and the event
transport's fault stats.  Everything on the queues is plain picklable
data -- job specs as dicts, arrays in the journal's base64 wire form --
because shards are spawned with the ``spawn`` start method (fork would
clone the router's live threads and queue locks mid-flight).

The process is fenced by the router before crash recovery: a shard that
missed its heartbeat deadline is SIGKILLed before its journal is read, so
a hung-but-alive shard can never double-execute work the router migrates.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.transport import ChaosConfig, ReliableOutbox, Transport
from repro.errors import (
    AdmissionRejected,
    InvalidInput,
    ReproError,
    ServiceStopped,
)
from repro.faults.plan import FaultPlan
from repro.serve.admission import AdmissionConfig
from repro.serve.breaker import BreakerConfig
from repro.serve.checkpoint import decode_array, encode_array
from repro.serve.job import Job, JobSpec
from repro.serve.service import ServiceConfig, ShmtService

#: Counters every heartbeat reports (totals, not per-label series).
HEARTBEAT_COUNTERS = (
    "serve_jobs_submitted_total",
    "serve_jobs_completed_total",
    "serve_jobs_shed_total",
    "serve_jobs_rejected_total",
    "serve_jobs_deadline_cancelled_total",
    "serve_jobs_failed_total",
    "serve_jobs_migrated_in_total",
)

#: Event kinds the shard tracks in its reliable outbox (resent until the
#: router acks); ``hb`` and ``ack`` are fire-and-forget.
RELIABLE_EVENTS = frozenset({"result", "evicted", "bounced", "stopped"})


@dataclass(frozen=True)
class ShardSpec:
    """The picklable subset of :class:`ServiceConfig` a shard is spawned
    with (callables like the platform factory stay child-side)."""

    workers: int = 2
    admission: AdmissionConfig = field(
        default_factory=lambda: AdmissionConfig(capacity=64, policy="block")
    )
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    fault_plan: Optional[FaultPlan] = None
    validate: bool = False
    #: Enable the HLOP fusion/batching pass in every job's run.
    fuse: bool = False
    runtime_seed: int = 2023
    #: Seconds between heartbeats.
    heartbeat_interval: float = 0.05
    #: Resend timer for reliable events awaiting a router ack.
    ack_timeout: float = 0.25


def job_payload(job: Job) -> Dict[str, Any]:
    """The wire form of one terminal job (no arrays -- fingerprints)."""
    payload: Dict[str, Any] = {
        "job_id": job.spec.job_id,
        "tenant": job.spec.tenant,
        "state": job.state.value,
        "error_code": getattr(job.error, "code", "") if job.error else "",
    }
    if job.result is not None:
        payload["fingerprint"] = job.result.fingerprint
        payload["makespan"] = job.result.makespan
    return payload


class _EventChannel:
    """The shard's sender half of the event link: sequence numbers, the
    reliable outbox, and the chaos-wrapped transport."""

    def __init__(
        self,
        events: multiprocessing.Queue,
        shard: str,
        generation: int,
        chaos: Optional[ChaosConfig],
        ack_timeout: float,
    ) -> None:
        self.shard = shard
        self.generation = generation
        self.transport = Transport(events, chaos=chaos)
        self.outbox = ReliableOutbox(timeout=ack_timeout)
        self.resent = 0
        self._seq = 0
        self._seen_commands: set = set()
        self._lock = threading.Lock()

    def emit(self, kind: str, payload: Dict[str, Any]) -> int:
        with self._lock:
            self._seq += 1
            seq = self._seq
            message = (kind, self.shard, self.generation, seq, payload)
            if kind in RELIABLE_EVENTS:
                self.outbox.track(seq, message)
            self.transport.send(message)
        return seq

    def receive(self, command: Tuple[int, str, tuple]) -> Optional[Tuple[str, tuple]]:
        """Take one router command off the wire: ack it on receipt, drop
        duplicates, and apply an ``ack_event``; returns ``(kind, args)``
        for a new command the shard must act on, else None."""
        seq, kind, args = command
        if kind != "ack_event":
            # Ack on receipt (even for duplicates: our earlier ack may be
            # the message the transport ate); dedup below keeps the
            # execution exactly-once.
            self.emit("ack", {"seq": seq})
        if seq in self._seen_commands:
            return None
        self._seen_commands.add(seq)
        if kind == "ack_event":
            with self._lock:
                self.outbox.ack(int(args[0]))
            return None
        return kind, args

    def tick(self) -> None:
        """Resend due unacked events and release held (delayed) traffic."""
        with self._lock:
            for message in self.outbox.due():
                self.resent += 1
                self.transport.send(message)
            self.transport.flush()

    def close(
        self,
        commands: multiprocessing.Queue,
        late: Callable[[str, tuple], None],
        timeout: float = 2.0,
    ) -> None:
        """Keep resending until the outbox drains (bounded) -- the final
        ``stopped`` event must survive the transport too.

        The router's acks arrive on ``commands``, which nothing else reads
        once the command loop has exited, so close reads it: each
        ``ack_event`` is applied, and every other new command goes to
        ``late``.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self.outbox.empty and self.transport.held == 0:
                    return
            self.tick()
            try:
                command = commands.get(timeout=0.02)
            except queue.Empty:
                continue
            received = self.receive(command)
            if received is not None:
                late(*received)
        with self._lock:
            self.transport.flush(force=True)


def shard_main(
    name: str,
    generation: int,
    journal_path: str,
    spec: ShardSpec,
    commands: multiprocessing.Queue,
    events: multiprocessing.Queue,
    chaos: Optional[ChaosConfig] = None,
) -> None:
    """Child-process entrypoint: run one shard until its ``stop``."""
    channel = _EventChannel(
        events, name, generation, chaos, ack_timeout=spec.ack_timeout
    )
    reported: set = set()
    reported_lock = threading.Lock()

    def report(job: Job) -> None:
        with reported_lock:
            if job.spec.job_id in reported:
                return
            reported.add(job.spec.job_id)
        channel.emit("result", job_payload(job))

    service = ShmtService(
        ServiceConfig(
            workers=spec.workers,
            admission=spec.admission,
            breaker=spec.breaker,
            checkpoint_path=journal_path,
            fault_plan=spec.fault_plan,
            validate=spec.validate,
            fuse=spec.fuse,
            runtime_seed=spec.runtime_seed,
            on_finish=report,
        )
    ).start()
    device_names = [d.name for d in service.config.platform_factory().devices]
    hb_stop = threading.Event()

    def heartbeat() -> None:
        seq = 0
        while True:
            channel.tick()
            states = service.breakers.poll(device_names)
            counters = {
                counter: (
                    service.metrics.get(counter).total()
                    if service.metrics.get(counter) is not None
                    else 0.0
                )
                for counter in HEARTBEAT_COUNTERS
            }
            channel.emit(
                "hb",
                {
                    "seq": seq,
                    "depth": service.queue.depth(),
                    "open": sorted(
                        dev for dev, s in states.items() if s.value == "open"
                    ),
                    "counters": counters,
                    "transport": channel.transport.stats.to_dict()
                    | {"resent": channel.resent},
                },
            )
            seq += 1
            if hb_stop.wait(spec.heartbeat_interval):
                return

    hb_thread = threading.Thread(target=heartbeat, name=f"{name}-hb", daemon=True)
    hb_thread.start()

    def bounce(spec_dict, blocked=None, hlops=None) -> None:
        """Hand a submission that raced our shutdown back to the router
        for re-placement (with any recovered state it carried)."""
        channel.emit(
            "bounced",
            {"spec": spec_dict, "blocked": blocked, "hlops": hlops},
        )

    def refuse(kind: str, args: tuple) -> None:
        """A command that arrived after ``stop``: submissions bounce back
        as on the ``ServiceStopped`` path; the rest have nothing to act on."""
        if kind == "submit":
            bounce(args[0])
        elif kind == "submit_recovered":
            bounce(args[0], blocked=args[1], hlops=args[2])

    try:
        while True:
            received = channel.receive(commands.get())
            if received is None:
                continue
            kind, args = received
            if kind == "submit":
                job_spec = JobSpec.from_dict(args[0])
                try:
                    service.submit(job_spec)
                except AdmissionRejected:
                    pass  # submit() already finished+reported the job as shed
                except ServiceStopped:
                    bounce(args[0])
                except ReproError as error:
                    channel.emit(
                        "result",
                        {
                            "job_id": job_spec.job_id,
                            "tenant": job_spec.tenant,
                            "state": "failed",
                            "error_code": error.code,
                        },
                    )
            elif kind == "submit_recovered":
                job_spec = JobSpec.from_dict(args[0])
                blocked = args[1]
                preloaded = {
                    int(hlop_id): decode_array(record)
                    for hlop_id, record in args[2].items()
                }
                try:
                    service.submit_recovered(
                        job_spec, blocked=blocked, preloaded=preloaded
                    )
                except ServiceStopped:
                    bounce(args[0], blocked=blocked, hlops=args[2])
                except ReproError as error:
                    channel.emit(
                        "result",
                        {
                            "job_id": job_spec.job_id,
                            "tenant": job_spec.tenant,
                            "state": "failed",
                            "error_code": error.code,
                        },
                    )
            elif kind == "evict":
                only, reason = args
                evicted = service.evict_queued(
                    only=set(only) if only is not None else None
                )
                channel.emit(
                    "evicted",
                    {
                        "jobs": [job.spec.to_dict() for job in evicted],
                        "reason": reason,
                    },
                )
            elif kind == "force_open":
                service.breakers.force_open(args[0])
            elif kind == "wedge":
                # Drill hook: the command loop hangs (heartbeats keep
                # flowing), modelling a shard that is alive but deaf --
                # the stop-escalation path must SIGKILL it.
                while True:
                    time.sleep(60.0)
            elif kind == "stop":
                drain = args[0]
                service.stop(drain=drain)
                service.join()
                break
            else:  # pragma: no cover - protocol guard
                raise InvalidInput(f"unknown shard command {kind!r}")
    finally:
        hb_stop.set()
        hb_thread.join(timeout=2.0)
        # Belt and braces: report any terminal job the callback missed
        # (it should have caught every one).
        for job in list(service.jobs.values()):
            if job.state.terminal:
                report(job)
        if service.checkpoint is not None:
            service.checkpoint.close()
        channel.emit("stopped", {"metrics": service.metrics.snapshot()})
        # The outbox keeps resending until the router acks (or the bound
        # expires); without this, chaos could eat the final events of a
        # clean shutdown and turn a graceful leave into a fake crash.
        channel.close(commands, refuse, timeout=2.0)


def encode_hlops(hlops: Dict[int, Any]) -> Dict[int, Dict[str, Any]]:
    """Journal-recovered HLOP arrays -> the queue-safe wire form."""
    return {int(k): encode_array(v) for k, v in hlops.items()}
