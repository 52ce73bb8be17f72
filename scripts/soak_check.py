#!/usr/bin/env python
"""Soak check for the serving layer (``repro.serve``).

Drives a live :class:`ShmtService` through the failure modes the layer
exists to absorb, and audits the accounting afterwards:

* **Stage A -- overload (open loop)**: jobs submitted as fast as possible
  into a small shed-policy queue under a chaos fault plan (transient
  faults, a straggler, output corruption), with mixed QoS classes,
  tenants (one capped), and a slice of unmeetable deadlines.  Every job
  must land in a terminal state, and the service's metrics must account
  for every submitted/shed/rejected/cancelled job exactly.
* **Stage B -- closed loop**: submitters block on queue space
  (backpressure) until every job completes.
* **Stage C -- kill-and-resume drill**: a checkpointing service is killed
  mid-soak at an HLOP boundary, resumed from the journal, and the
  resumed results must be *bit-identical* (fingerprint-equal) to an
  uninterrupted reference run -- zero lost jobs, zero duplicated
  journal records.
* **Stage D -- breaker drill**: one device's breaker is forced open; jobs
  must complete on the surviving devices; after the cooldown the breaker
  must walk OPEN -> HALF_OPEN -> CLOSED on probe successes.

Run::

    PYTHONPATH=src python scripts/soak_check.py --quick [--validate]

``--quick`` sizes the soak for CI (>= 200 jobs total); the default is a
longer pass.  ``--validate`` additionally runs the runtime invariant
checker (:mod:`repro.verify`) inside every job.  Exits non-zero on any
audit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from collections import Counter

from repro import FaultPlan, OutputCorruption, Straggler, TransientFaults
from repro.errors import AdmissionRejected, ServiceStopped
from repro.serve import (
    AdmissionConfig,
    BreakerConfig,
    BreakerState,
    JobSpec,
    JobState,
    ServiceConfig,
    ShmtService,
    load_checkpoint,
)

KERNELS = ("sobel", "laplacian", "mean_filter", "fft")
SIZE = 64 * 64
FAILURES: list = []


def chaos_plan() -> FaultPlan:
    return FaultPlan(
        transient=(TransientFaults("*", probability=0.05),),
        stragglers=(Straggler("tpu0", slowdown=4.0, start=2e-4),),
        corruption=(OutputCorruption("cpu0", probability=0.1),),
    )


def check(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def spec_for(index: int, deadline_every: int = 10) -> JobSpec:
    qos = ("gold", "silver", "bronze")[index % 3]
    tenant = f"tenant-{index % 4}"
    deadline = 1e-6 if deadline_every and index % deadline_every == 0 else None
    return JobSpec(
        kernel=KERNELS[index % len(KERNELS)],
        size=SIZE,
        seed=index,
        qos_class=qos,
        deadline=deadline,
        tenant=tenant,
        job_id=f"soak-{index:05d}",
    )


def stage_a_overload(n_jobs: int, validate: bool) -> None:
    print(f"stage A: open-loop overload, {n_jobs} jobs, chaos + shed policy")
    service = ShmtService(
        ServiceConfig(
            workers=4,
            admission=AdmissionConfig(capacity=8, policy="shed", tenant_cap=6),
            fault_plan=chaos_plan(),
            validate=validate,
        )
    ).start()
    jobs, rejected = [], 0
    for index in range(n_jobs):
        try:
            jobs.append(service.submit(spec_for(index)))
        except AdmissionRejected:
            rejected += 1
    service.stop(drain=True)
    service.join(300)
    for job in jobs:
        job.wait(timeout=10)
    states = Counter(job.state for job in jobs)
    print(f"  states: {dict((s.value, c) for s, c in states.items())}, rejected={rejected}")
    check(all(job.state.terminal for job in jobs), "every accepted job reached a terminal state")
    check(states[JobState.FAILED] == 0, "chaos never produced an unrecoverable failure")
    check(states[JobState.DEADLINE] > 0, "unmeetable deadlines were cancelled")
    counters = {
        name: (service.metrics.get(name).total() if service.metrics.get(name) else 0.0)
        for name in (
            "serve_jobs_submitted_total",
            "serve_jobs_completed_total",
            "serve_jobs_shed_total",
            "serve_jobs_rejected_total",
            "serve_jobs_deadline_cancelled_total",
            "serve_jobs_failed_total",
        )
    }
    check(
        counters["serve_jobs_submitted_total"] + counters["serve_jobs_rejected_total"]
        == n_jobs,
        "metrics account for every submission attempt",
    )
    check(
        counters["serve_jobs_shed_total"] == states[JobState.SHED],
        "metrics shed count matches observed shed jobs",
    )
    check(
        counters["serve_jobs_rejected_total"] == rejected,
        "metrics rejected count matches raised rejections",
    )
    check(
        counters["serve_jobs_completed_total"] == states[JobState.DONE],
        "metrics completed count matches DONE jobs",
    )
    check(
        counters["serve_jobs_deadline_cancelled_total"] == states[JobState.DEADLINE],
        "metrics deadline count matches cancelled jobs",
    )
    depth = service.metrics.get("serve_queue_depth")
    check(depth is not None, "queue depth gauge was exported")
    p50 = service.latency_quantile(0.5)
    p99 = service.latency_quantile(0.99)
    check(p50 is not None and p99 is not None and p99 >= p50, "p50/p99 latency computed")
    print(f"  latency p50={p50 * 1e3:.3f}ms p99={p99 * 1e3:.3f}ms")


def stage_b_closed_loop(n_jobs: int, validate: bool) -> None:
    print(f"stage B: closed-loop arrival, {n_jobs} jobs, block policy")
    service = ShmtService(
        ServiceConfig(
            workers=4,
            admission=AdmissionConfig(capacity=4, policy="block", block_timeout=120.0),
            fault_plan=chaos_plan(),
            validate=validate,
        )
    ).start()
    jobs: list = []
    lock = threading.Lock()

    def submitter(offset: int, count: int) -> None:
        for index in range(offset, offset + count):
            job = service.submit(spec_for(1000 + index, deadline_every=0))
            with lock:
                jobs.append(job)

    quarter = n_jobs // 4
    threads = [
        threading.Thread(target=submitter, args=(i * quarter, quarter))
        for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(300)
    service.stop(drain=True)
    service.join(300)
    for job in jobs:
        job.wait(timeout=10)
    done = sum(1 for job in jobs if job.state is JobState.DONE)
    print(f"  {done}/{len(jobs)} done")
    check(len(jobs) == quarter * 4, "every blocked submission was admitted")
    check(done == len(jobs), "closed-loop jobs all completed")


def stage_c_kill_resume(n_jobs: int, validate: bool, checkpoint_dir: str) -> None:
    print(f"stage C: kill-and-resume drill, {n_jobs} jobs")
    specs = [spec_for(2000 + i, deadline_every=0) for i in range(n_jobs)]
    # Breakers that never trip: the drill's blocked sets stay empty, so
    # the uninterrupted reference is trivially comparable.
    breaker = BreakerConfig(failure_threshold=10_000)

    def config(path, kill_after=None, workers=2):
        return ServiceConfig(
            workers=workers,
            admission=AdmissionConfig(capacity=max(8, n_jobs), policy="block"),
            breaker=breaker,
            fault_plan=chaos_plan(),
            validate=validate,
            checkpoint_path=path,
            kill_after_hlops=kill_after,
        )

    # Reference: same specs, no kill.
    reference = ShmtService(config(None)).start()
    ref_jobs = [reference.submit(spec) for spec in specs]
    reference.stop(drain=True)
    reference.join(300)
    fingerprints = {}
    for job in ref_jobs:
        job.wait(10)
        if job.state is JobState.DONE:
            fingerprints[job.spec.job_id] = job.result.fingerprint
    check(len(fingerprints) == n_jobs, "uninterrupted reference run completed every job")

    # Drill: kill mid-soak at an HLOP boundary.
    journal_path = os.path.join(checkpoint_dir, "soak-journal.jsonl")
    victim = ShmtService(config(journal_path, kill_after=max(10, n_jobs))).start()
    drill_jobs, unsubmitted = [], []
    for spec in specs:
        try:
            drill_jobs.append(victim.submit(spec))
        except ServiceStopped:
            unsubmitted.append(spec)  # kill fired mid-submission loop
    victim.join(300)
    check(victim.killed, "kill drill fired mid-soak")
    interrupted = [j for j in drill_jobs if not j.state.terminal]
    print(
        f"  killed with {len(interrupted)} in-flight/queued job(s) "
        f"and {len(unsubmitted)} unsubmitted"
    )
    check(
        interrupted or unsubmitted,
        "the kill left work in flight (drill is meaningful)",
    )

    # Resume from the journal; re-submit jobs the journal never saw start.
    service, resumed = ShmtService.resume(journal_path, config(journal_path))
    service.start()
    journal = load_checkpoint(journal_path)
    started = set(journal.jobs)
    for job in drill_jobs:
        if not job.state.terminal and job.spec.job_id not in started:
            resumed.append(service.submit(job.spec))
    for spec in unsubmitted:
        resumed.append(service.submit(spec))
    service.stop(drain=True)
    service.join(300)
    outcomes = {}
    for job in drill_jobs:
        if job.state.terminal:
            outcomes[job.spec.job_id] = job
    for job in resumed:
        job.wait(10)
        outcomes[job.spec.job_id] = job
    check(
        set(outcomes) == {spec.job_id for spec in specs},
        "zero lost jobs: every submitted job reached a terminal state",
    )
    mismatched = [
        job_id
        for job_id, job in outcomes.items()
        if job.state is not JobState.DONE
        or job.result.fingerprint != fingerprints[job_id]
    ]
    check(not mismatched, f"resumed results bit-identical to uninterrupted run {mismatched or ''}")

    # Journal audit: one terminal record per job, no duplicated HLOPs.
    final = load_checkpoint(journal_path)
    ends = Counter()
    hlop_dups = 0
    with open(journal_path, "r", encoding="utf-8") as handle:
        seen_hlops = set()
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("type") == "job-end":
                ends[record["job_id"]] += 1
            elif record.get("type") == "hlop":
                key = (record["job_id"], record["hlop_id"])
                if key in seen_hlops:
                    hlop_dups += 1
                seen_hlops.add(key)
    check(
        all(count == 1 for count in ends.values()) and len(ends) == len(specs),
        "journal holds exactly one terminal record per job",
    )
    check(hlop_dups == 0, "zero duplicated HLOP journal records (no double aggregation)")
    check(
        all(j.state == "done" for j in final.terminal()),
        "journal terminal states are all done",
    )


def stage_d_breaker(n_jobs: int, validate: bool) -> None:
    print(f"stage D: forced-open breaker drill, {n_jobs} jobs")
    clock = [0.0]
    service = ShmtService(
        ServiceConfig(
            workers=2,
            admission=AdmissionConfig(capacity=max(8, n_jobs), policy="block"),
            breaker=BreakerConfig(failure_threshold=3, cooldown=5.0, close_threshold=2),
            breaker_clock=lambda: clock[0],
            validate=validate,
        )
    ).start()
    service.breakers.force_open("tpu0")
    first = [
        service.submit(
            JobSpec(
                kernel="laplacian",
                size=256 * 256,
                seed=i,
                policy="work-stealing",
                job_id=f"breaker-a-{i}",
            )
        )
        for i in range(n_jobs // 2)
    ]
    for job in first:
        job.wait(60)
    check(
        all(j.state is JobState.DONE for j in first),
        "jobs completed on surviving devices while the breaker was open",
    )
    check(
        all("tpu0" in (j.blocked or []) for j in first),
        "open breaker excluded tpu0 from every run",
    )
    clock[0] = 10.0  # cooldown elapses; next admissions probe half-open
    second = [
        service.submit(
            JobSpec(
                kernel="laplacian",
                size=256 * 256,
                seed=100 + i,
                policy="work-stealing",
                job_id=f"breaker-b-{i}",
            )
        )
        for i in range(n_jobs - n_jobs // 2)
    ]
    service.stop(drain=True)
    service.join(300)
    for job in second:
        job.wait(60)
    check(
        all(j.state is JobState.DONE for j in second),
        "post-cooldown jobs completed",
    )
    check(
        service.breakers.state("tpu0") is BreakerState.CLOSED,
        "breaker re-closed after half-open probe successes",
    )
    transitions = service.metrics.get("serve_breaker_transitions_total")
    series = transitions.series() if transitions is not None else {}
    tags = {dict(key).get("to") for key in series}
    check(
        {"open", "half-open", "closed"} <= tags,
        "breaker transition metrics recorded open/half-open/closed",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized soak (>=200 jobs)")
    parser.add_argument(
        "--validate", action="store_true", help="invariant-check every job's run"
    )
    args = parser.parse_args()
    if args.quick:
        a_jobs, b_jobs, c_jobs, d_jobs = 140, 40, 24, 8
    else:
        a_jobs, b_jobs, c_jobs, d_jobs = 400, 120, 60, 16
    total = a_jobs + b_jobs + c_jobs + d_jobs
    suffix = " (invariant checking on)" if args.validate else ""
    print(f"soak check: {total} jobs across four stages{suffix}")
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        stage_a_overload(a_jobs, args.validate)
        stage_b_closed_loop(b_jobs, args.validate)
        stage_c_kill_resume(c_jobs, args.validate, tmp)
        stage_d_breaker(d_jobs, args.validate)
    elapsed = time.monotonic() - started
    if FAILURES:
        print(f"\nFAILED ({len(FAILURES)}): " + "; ".join(FAILURES))
        sys.exit(1)
    print(f"\nsoak passed: {total} jobs, {elapsed:.1f}s wall")


if __name__ == "__main__":
    main()
