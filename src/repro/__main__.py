"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``        -- show available kernels, VOPs, policies, platforms.
* ``run``         -- execute one kernel under one policy and print the
                     report (optionally with an ASCII Gantt of the run).
* ``experiments`` -- regenerate the paper's evaluation (delegates to
                     :mod:`repro.experiments.runner`).
* ``submit``      -- append a job spec to a JSONL job queue file.
* ``serve``       -- run a job service over a queue file (admission
                     control, QoS deadlines, circuit breakers,
                     checkpoint/resume; see docs/serving.md).
* ``cluster``     -- replay a heavy-tailed multi-tenant trace through a
                     sharded multi-process cluster (consistent-hash
                     placement, crash recovery, work migration; see
                     docs/cluster.md).
* ``dag``         -- run a VOP dependency DAG workload under a DAG
                     schedule and placement policy (see docs/dag.md).

Every user-input failure exits with code 2 and a one-line message naming
the offending flag; tracebacks are reserved for bugs.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.runtime import RuntimeConfig, SHMTRuntime
from repro.core.schedulers.base import make_scheduler, scheduler_names
from repro.core.schedulers.qos import QOS_CLASSES
from repro.core.vop import vop_catalog
from repro.devices.perf_model import benchmark_names
from repro.errors import ReproError
from repro.experiments.common import platform_for
from repro.experiments.runner import add_performance_args
from repro.metrics.mape import mape_percent
from repro.sim.gantt import render_gantt, utilization_summary
from repro.workloads.generator import generate, workload_names


def _usage_error(flag: str, message: str) -> int:
    """One-line user-input failure naming the offending flag; exit 2."""
    print(f"{flag}: {message}")
    return 2


def _check_common_flags(args: argparse.Namespace) -> int:
    """Shared validation for job-shaped arguments; 0 = all good."""
    kernel = getattr(args, "kernel", None)
    if kernel is not None and kernel not in workload_names():
        return _usage_error(
            "kernel", f"unknown kernel {kernel!r}; try: {', '.join(workload_names())}"
        )
    side = getattr(args, "side", None)
    if side is not None and side <= 0:
        return _usage_error("--side", f"must be a positive integer, got {side}")
    policy = getattr(args, "policy", None)
    if policy is not None and policy not in scheduler_names():
        return _usage_error(
            "--policy",
            f"unknown policy {policy!r}; known: {', '.join(scheduler_names())}",
        )
    deadline = getattr(args, "deadline", None)
    if deadline is not None and deadline <= 0:
        return _usage_error(
            "--deadline", f"must be a positive number of simulated seconds, got {deadline}"
        )
    qos = getattr(args, "qos", None)
    if qos is not None and qos not in QOS_CLASSES:
        return _usage_error(
            "--qos", f"unknown QoS class {qos!r}; known: {', '.join(sorted(QOS_CLASSES))}"
        )
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("Benchmark kernels (paper Table 2):")
    for name in benchmark_names():
        print(f"  {name}")
    print("\nScheduling policies:")
    for name in scheduler_names():
        print(f"  {name}")
    print("\nVOP catalog (paper Table 1):")
    print("  " + ", ".join(vop_catalog()))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    bad = _check_common_flags(args)
    if bad:
        return bad
    vector_kernels = ("blackscholes", "histogram")
    size = args.side**2 if args.kernel in vector_kernels else (args.side, args.side)
    call = generate(args.kernel, size=size, seed=args.seed)

    config = RuntimeConfig(
        observe=bool(args.metrics),
        backend=args.backend,
        jobs=args.jobs,
        validate=args.validate,
        fuse=args.fuse,
    )
    baseline_runtime = SHMTRuntime(
        platform_for("gpu-baseline"), make_scheduler("gpu-baseline"), config
    )
    baseline = baseline_runtime.execute(call)
    runtime = SHMTRuntime(platform_for(args.policy), make_scheduler(args.policy), config)
    report = runtime.execute(call)

    print(f"kernel    : {args.kernel} @ {args.side}x{args.side} (seed {args.seed})")
    print(f"policy    : {args.policy}")
    print(f"latency   : {report.makespan * 1e3:.3f} ms "
          f"(baseline {baseline.makespan * 1e3:.3f} ms, "
          f"speedup {report.speedup_over(baseline):.2f}x)")
    print(f"energy    : {report.energy.total_joules:.4f} J "
          f"({report.energy.total_joules / baseline.energy.total_joules:.0%} of baseline)")
    shares = ", ".join(f"{k}={v:.0%}" for k, v in sorted(report.work_shares.items()))
    print(f"work split: {shares}  (steals: {report.steal_count})")
    if args.quality:
        reference = call.spec.reference(
            call.data.astype("float64"), call.resolve_context()
        )
        print(f"MAPE      : {mape_percent(reference, report.output):.3f} %")
    if args.gantt:
        print()
        print(render_gantt(report.trace, width=args.gantt_width))
        print()
        print(utilization_summary(report.trace))
    if args.export_trace:
        from repro.sim.trace_export import write_chrome_trace

        write_chrome_trace(
            report.trace, args.export_trace, process_name=f"{args.kernel}/{args.policy}"
        )
        print(f"trace written to {args.export_trace} (open in chrome://tracing)")
    if args.metrics:
        from repro.obs import write_jsonl

        write_jsonl(
            report.metrics,
            args.metrics,
            meta={
                "kernel": args.kernel,
                "policy": args.policy,
                "side": args.side,
                "seed": args.seed,
            },
        )
        decisions = report.metrics.decision_counts
        summary = ", ".join(f"{k.value}={v}" for k, v in sorted(
            decisions.items(), key=lambda kv: kv[0].value
        ))
        print(f"decisions : {summary}")
        print(f"metrics written to {args.metrics} (JSONL, schema repro.obs/v1)")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    bad = _check_common_flags(args)
    if bad:
        return bad
    from repro.serve import JobSpec

    spec = JobSpec(
        kernel=args.kernel,
        size=args.side**2 if args.side else None,
        seed=args.seed,
        policy=args.policy,
        qos_class=args.qos,
        deadline=args.deadline,
        tenant=args.tenant,
        job_id=args.job_id or "",
    )
    with open(args.queue, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(spec.to_dict(), sort_keys=True) + "\n")
    print(f"queued {spec.kernel} (qos {spec.qos_class}) -> {args.queue}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers <= 0:
        return _usage_error("--workers", f"must be a positive integer, got {args.workers}")
    if args.capacity <= 0:
        return _usage_error("--capacity", f"must be a positive integer, got {args.capacity}")
    if args.tenant_cap is not None and args.tenant_cap <= 0:
        return _usage_error("--tenant-cap", f"must be a positive integer, got {args.tenant_cap}")
    from repro.errors import AdmissionRejected, InvalidInput, UnknownName
    from repro.serve import (
        AdmissionConfig,
        JobSpec,
        JobState,
        ServiceConfig,
        ShmtService,
    )

    specs = []
    try:
        with open(args.queue, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    specs.append(JobSpec.from_dict(json.loads(line)))
                except (json.JSONDecodeError, InvalidInput, UnknownName) as error:
                    return _usage_error(
                        "--queue", f"bad job spec at {args.queue}:{number}: {error}"
                    )
    except OSError as error:
        return _usage_error("--queue", f"cannot read {args.queue}: {error}")

    config = ServiceConfig(
        checkpoint_path=args.checkpoint,
        workers=args.workers,
        admission=AdmissionConfig(
            capacity=args.capacity,
            policy=args.admission,
            tenant_cap=args.tenant_cap,
        ),
        validate=args.validate,
        fuse=args.fuse,
    )
    jobs = []
    import os

    if args.resume:
        if not args.checkpoint or not os.path.exists(args.checkpoint):
            return _usage_error(
                "--resume", f"needs an existing --checkpoint journal, got {args.checkpoint!r}"
            )
        service, jobs = ShmtService.resume(args.checkpoint, config)
        service.start()
        if jobs:
            print(f"resuming {len(jobs)} interrupted job(s) from {args.checkpoint}")
        # The journal already accounts for these specs: terminal jobs are
        # done (re-running would recompute finished work) and interrupted
        # ones were just re-queued by resume().  Only never-started specs
        # get submitted.
        skipped = [
            spec.job_id
            for spec in specs
            if spec.job_id and spec.job_id in service.journal_ids
        ]
        specs = [
            spec
            for spec in specs
            if not (spec.job_id and spec.job_id in service.journal_ids)
        ]
        if skipped:
            print(
                f"skipping {len(skipped)} queued job(s) already journaled: "
                + ", ".join(skipped)
            )
    else:
        service = ShmtService(config).start()
    for spec in specs:
        try:
            jobs.append(service.submit(spec))
        except AdmissionRejected as error:
            print(f"rejected {spec.job_id or spec.kernel}: {error}")
    service.stop(drain=True)
    service.join()
    failed = 0
    for job in jobs:
        job.wait(timeout=0)
        if job.state is JobState.DONE:
            print(
                f"{job.spec.job_id:>12s}  done      "
                f"makespan {job.result.makespan * 1e3:9.3f} ms  "
                f"fp {job.result.fingerprint[:12]}"
            )
        else:
            detail = f" ({job.error})" if job.error is not None else ""
            print(f"{job.spec.job_id:>12s}  {job.state.value:<9s}{detail}")
            if job.state is JobState.FAILED:
                failed += 1
    for name in (
        "serve_jobs_submitted_total",
        "serve_jobs_completed_total",
        "serve_jobs_rejected_total",
        "serve_jobs_shed_total",
        "serve_jobs_deadline_cancelled_total",
        "serve_jobs_failed_total",
    ):
        counter = service.metrics.get(name)
        total = counter.total() if counter is not None else 0
        print(f"{name:40s} {total:g}")
    p50 = service.latency_quantile(0.5)
    p99 = service.latency_quantile(0.99)
    if p50 is not None:
        print(f"latency p50/p99 (simulated): {p50 * 1e3:.3f} / {p99 * 1e3:.3f} ms")
    return 1 if failed else 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.shards <= 0:
        return _usage_error("--shards", f"must be a positive integer, got {args.shards}")
    if args.workers <= 0:
        return _usage_error("--workers", f"must be a positive integer, got {args.workers}")
    if args.jobs <= 0:
        return _usage_error("--jobs", f"must be a positive integer, got {args.jobs}")
    if args.tenants <= 0:
        return _usage_error("--tenants", f"must be a positive integer, got {args.tenants}")
    if args.spread <= 0:
        return _usage_error("--spread", f"must be a positive integer, got {args.spread}")
    import os
    import signal
    import tempfile
    import time

    from repro.cluster import (
        ChaosConfig,
        ClusterConfig,
        ClusterRouter,
        ShardSpec,
        TraceConfig,
        generate_trace,
        replay,
    )
    from repro.serve import AdmissionConfig

    journal_dir = args.journal_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    chaos = None
    if args.chaos:
        if not 0.0 <= args.chaos < 1.0:
            return _usage_error(
                "--chaos", f"must be a probability in [0, 1), got {args.chaos}"
            )
        chaos = ChaosConfig(
            seed=args.seed,
            drop=args.chaos,
            duplicate=args.chaos,
            delay=args.chaos,
        )
    config = ClusterConfig(
        journal_dir=journal_dir,
        shards=args.shards,
        tenant_spread=args.spread,
        chaos=chaos,
        shard=ShardSpec(
            workers=args.workers,
            admission=AdmissionConfig(
                capacity=args.capacity, policy=args.admission
            ),
            validate=args.validate,
            fuse=args.fuse,
        ),
    )
    trace = generate_trace(
        TraceConfig(
            jobs=args.jobs,
            tenants=args.tenants,
            seed=args.seed,
            size=args.side**2,
        )
    )
    router = ClusterRouter(config).start()
    start = time.monotonic()
    stats = replay(router.submit, trace, time_scale=args.time_scale)
    if args.churn:
        joined = router.add_shard()
        print(f"churn     : {joined} joined the running ring")
        leaver = f"shard-{args.shards - 1}" if args.shards > 1 else joined
        router.remove_shard(leaver, drain=True, timeout=120.0)
        print(f"churn     : {leaver} left gracefully "
              f"(states now {router.shard_states()})")
    if args.kill_shard:
        pid = router.shard_pid(args.kill_shard)
        if pid is None:
            router.stop()
            return _usage_error(
                "--kill-shard", f"unknown shard {args.kill_shard!r}"
            )
        os.kill(pid, signal.SIGKILL)
        print(f"killed {args.kill_shard} (pid {pid}) mid-run")
    jobs = list(router.jobs.values())
    for job in jobs:
        job.wait(timeout=300.0)
    router.stop()
    elapsed = time.monotonic() - start

    states: dict = {}
    for job in jobs:
        states[job.state.value] = states.get(job.state.value, 0) + 1
    migrated = sum(1 for job in jobs if len(job.placements) > 1)
    print(f"shards    : {args.shards} x {args.workers} workers "
          f"(journals in {journal_dir})")
    print(f"offered   : {stats.offered} jobs over {args.tenants} tenants "
          f"(rejected at the router: {stats.rejected})")
    print("states    : " + ", ".join(
        f"{k}={v}" for k, v in sorted(states.items())) if states else "none")
    print(f"migrated  : {migrated} job(s) changed shard")
    print(f"crashes   : {router.metrics.total('cluster_shard_crashes_total'):g} "
          f"(restarts {router.metrics.total('cluster_shard_restarts_total'):g}, "
          f"recovered {router.metrics.total('cluster_jobs_recovered_total'):g})")
    if args.churn or args.chaos:
        print(f"membership: joins {router.metrics.total('cluster_reshard_joins_total'):g}, "
              f"leaves {router.metrics.total('cluster_reshard_leaves_total'):g}, "
              f"handed off {router.metrics.total('cluster_reshard_handoff_total'):g}")
        print(f"transport : dropped {router.metrics.total('transport_dropped_total'):g}, "
              f"duped {router.metrics.total('transport_duped_total'):g}, "
              f"resent {router.metrics.total('transport_resent_total'):g}")
    print(f"elapsed   : {elapsed:.2f} s wall")
    if args.metrics:
        router.metrics.write_jsonl(
            args.metrics,
            meta={"jobs": args.jobs, "shards": args.shards, "seed": args.seed},
        )
        print(f"rollup written to {args.metrics} (JSONL, schema repro.obs/v1)")
    failed = states.get("failed", 0)
    return 1 if failed else 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.common import ExperimentSettings
    from repro.experiments.runner import apply_performance_args, run_all

    settings = ExperimentSettings(seed=args.seed)
    if args.quick:
        settings.size = 512 * 512
    apply_performance_args(settings, args)
    run_all(settings, metrics_path=args.metrics, jobs=args.jobs)
    return 0


def _cmd_dag(args: argparse.Namespace) -> int:
    from repro.core.graph import DAG_POLICIES, DAG_SCHEDULES
    from repro.workloads.dag import dag_workload_names, make_dag_workload

    if args.workload not in dag_workload_names():
        return _usage_error(
            "workload",
            f"unknown DAG workload {args.workload!r}; "
            f"try: {', '.join(dag_workload_names())}",
        )
    if args.policy not in DAG_POLICIES:
        return _usage_error(
            "--policy",
            f"unknown DAG policy {args.policy!r}; known: {', '.join(DAG_POLICIES)}",
        )
    if args.schedule not in DAG_SCHEDULES:
        return _usage_error(
            "--schedule",
            f"unknown DAG schedule {args.schedule!r}; "
            f"known: {', '.join(DAG_SCHEDULES)}",
        )
    if args.side is not None and args.side <= 0:
        return _usage_error("--side", f"must be a positive integer, got {args.side}")
    if args.scheduler not in scheduler_names():
        return _usage_error(
            "--scheduler",
            f"unknown policy {args.scheduler!r}; known: {', '.join(scheduler_names())}",
        )

    runtime = SHMTRuntime(
        platform_for(args.scheduler), make_scheduler(args.scheduler), RuntimeConfig()
    )
    graph = make_dag_workload(args.workload, side=args.side, seed=args.seed)
    serial = graph.run(runtime, schedule="serial", policy="step")
    result = graph.run(runtime, schedule=args.schedule, policy=args.policy)

    print(
        f"workload : {args.workload} (seed {args.seed})"
        + (f" @ {args.side}x{args.side}" if args.side else "")
    )
    print(f"schedule : {args.schedule}   dag policy: {args.policy}   "
          f"intra-VOP: {args.scheduler}")
    print()
    print(f"{'step':<10} {'placement':<28} {'start ms':>9} {'finish ms':>10} "
          f"{'step ms':>8}")
    for name in result.order:
        placement = result.placements[name]
        where = placement.mode + ":" + "+".join(placement.devices)
        print(
            f"{name:<10} {where:<28} {result.starts[name] * 1e3:>9.3f} "
            f"{result.finishes[name] * 1e3:>10.3f} "
            f"{result.reports[name].makespan * 1e3:>8.3f}"
        )
    print()
    print(f"makespan : {result.total_time * 1e3:.3f} ms "
          f"(serial step-by-step {serial.total_time * 1e3:.3f} ms, "
          f"speedup {serial.total_time / result.total_time:.2f}x)")
    print(f"energy   : {result.total_energy:.4f} J")
    print(f"critical : {' -> '.join(result.critical_path())}")
    extras = []
    if result.transfers_waived:
        extras.append(f"transfers waived: {result.transfers_waived}")
    if result.fingerprints_derived:
        extras.append(f"fingerprints derived: {result.fingerprints_derived}")
    if result.arena_acquires:
        extras.append(f"arena staging buffers: {result.arena_acquires}")
    if extras:
        print(f"reuse    : {', '.join(extras)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show kernels, policies, and VOPs").set_defaults(
        handler=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run one kernel under one policy")
    run_parser.add_argument("kernel", help="benchmark kernel name (see `list`)")
    run_parser.add_argument("--policy", default="QAWS-TS", help="scheduling policy")
    run_parser.add_argument("--side", type=int, default=1024, help="problem side length")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--quality", action="store_true", help="also compute MAPE")
    run_parser.add_argument("--gantt", action="store_true", help="print an ASCII Gantt")
    run_parser.add_argument("--gantt-width", type=int, default=80)
    run_parser.add_argument(
        "--export-trace",
        metavar="PATH",
        help="write the timeline as Chrome-trace JSON (chrome://tracing)",
    )
    run_parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="observe the run and write metrics + decision log as JSONL",
    )
    add_performance_args(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    exp_parser = sub.add_parser("experiments", help="regenerate the paper's evaluation")
    exp_parser.add_argument("--quick", action="store_true")
    exp_parser.add_argument("--seed", type=int, default=0)
    exp_parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="observe every cached run and write their metrics as one JSONL",
    )
    add_performance_args(exp_parser)
    exp_parser.set_defaults(handler=_cmd_experiments)

    submit_parser = sub.add_parser(
        "submit", help="append a job spec to a JSONL job queue file"
    )
    submit_parser.add_argument("kernel", help="benchmark kernel name (see `list`)")
    submit_parser.add_argument(
        "--queue", required=True, metavar="PATH", help="job queue file (JSONL)"
    )
    submit_parser.add_argument("--side", type=int, default=None, help="problem side length")
    submit_parser.add_argument("--seed", type=int, default=0)
    submit_parser.add_argument(
        "--policy", default=None, help="scheduling policy (default: QoS-derived)"
    )
    submit_parser.add_argument(
        "--qos", default="silver", help="QoS class: gold, silver, or bronze"
    )
    submit_parser.add_argument(
        "--deadline", type=float, default=None, help="deadline budget in simulated seconds"
    )
    submit_parser.add_argument("--tenant", default="default")
    submit_parser.add_argument("--job-id", default=None)
    submit_parser.set_defaults(handler=_cmd_submit)

    serve_parser = sub.add_parser(
        "serve", help="run a job service over a queue file (docs/serving.md)"
    )
    serve_parser.add_argument(
        "--queue", required=True, metavar="PATH", help="job queue file (JSONL)"
    )
    serve_parser.add_argument(
        "--checkpoint", metavar="PATH", help="crash-safe journal (repro.serve/v1)"
    )
    serve_parser.add_argument(
        "--resume", action="store_true", help="resume interrupted jobs from --checkpoint"
    )
    serve_parser.add_argument("--workers", type=int, default=2)
    serve_parser.add_argument("--capacity", type=int, default=64)
    serve_parser.add_argument(
        "--admission", choices=("block", "reject", "shed"), default="reject"
    )
    serve_parser.add_argument("--tenant-cap", type=int, default=None)
    serve_parser.add_argument(
        "--validate", action="store_true", help="run the invariant checker in every job"
    )
    serve_parser.add_argument(
        "--fuse",
        action="store_true",
        help="enable the HLOP fusion/batching pass in every job's run",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    cluster_parser = sub.add_parser(
        "cluster",
        help="replay a trace through a sharded multi-process cluster (docs/cluster.md)",
    )
    cluster_parser.add_argument("--shards", type=int, default=3)
    cluster_parser.add_argument("--workers", type=int, default=2, help="workers per shard")
    cluster_parser.add_argument("--jobs", type=int, default=60, help="trace length")
    cluster_parser.add_argument("--tenants", type=int, default=4)
    cluster_parser.add_argument("--seed", type=int, default=0, help="trace seed")
    cluster_parser.add_argument("--side", type=int, default=64, help="problem side length")
    cluster_parser.add_argument(
        "--spread", type=int, default=2, help="distinct shards per tenant"
    )
    cluster_parser.add_argument("--capacity", type=int, default=64, help="per-shard queue")
    cluster_parser.add_argument(
        "--admission", choices=("block", "reject", "shed"), default="block"
    )
    cluster_parser.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help="stretch trace time into wall time (0 = flood)",
    )
    cluster_parser.add_argument(
        "--journal-dir", metavar="DIR", help="shard journal directory (default: temp)"
    )
    cluster_parser.add_argument(
        "--kill-shard", metavar="NAME", help="SIGKILL this shard mid-run (e.g. shard-1)"
    )
    cluster_parser.add_argument(
        "--metrics", metavar="PATH", help="write the cluster rollup as JSONL"
    )
    cluster_parser.add_argument(
        "--validate", action="store_true", help="run the invariant checker in every job"
    )
    cluster_parser.add_argument(
        "--fuse",
        action="store_true",
        help="enable the HLOP fusion/batching pass in every shard's jobs",
    )
    cluster_parser.add_argument(
        "--churn",
        action="store_true",
        help="exercise elastic membership mid-run: one shard joins the "
        "running ring, one leaves gracefully",
    )
    cluster_parser.add_argument(
        "--chaos",
        type=float,
        default=0.0,
        metavar="P",
        help="seeded transport chaos: drop/duplicate/delay each message "
        "with probability P (default: 0 = faithful transport)",
    )
    cluster_parser.set_defaults(handler=_cmd_cluster)

    dag_parser = sub.add_parser(
        "dag", help="run a VOP dependency DAG workload (docs/dag.md)"
    )
    dag_parser.add_argument(
        "workload", help="DAG workload name: image-pipeline or solver"
    )
    dag_parser.add_argument(
        "--schedule",
        default="ready",
        help="DAG schedule: ready (dispatch when inputs resolve) or serial",
    )
    dag_parser.add_argument(
        "--policy",
        default="mixed",
        help="DAG placement policy: step, partition, or mixed",
    )
    dag_parser.add_argument(
        "--scheduler",
        default="QAWS-TS",
        help="intra-VOP scheduling policy for split steps",
    )
    dag_parser.add_argument("--side", type=int, default=None, help="problem side length")
    dag_parser.add_argument("--seed", type=int, default=0)
    dag_parser.set_defaults(handler=_cmd_dag)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        # Boundary errors are user-facing: one line with the stable code,
        # never a traceback.
        print(f"error [{error.code}]: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
