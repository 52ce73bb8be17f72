#!/usr/bin/env python
"""Wall-clock benchmark harness for the compute-backend subsystem.

Runs the experiment suite three times -- the ``serial`` backend, the
``pool`` backend, and the HLOP fusion/batching pass (``--fuse``, PR 7)
-- and records wall-clock per experiment, per-leg totals, fusion
statistics, and a ``repro.obs`` phase profile of a representative
observed run.  Every leg shares HLOP results within its own sweep
(``run_all``'s result store per kernel), so the legs differ only in where the
numerics run and whether they fuse.
With ``--repeat N`` the legs run as N paired rounds and the reported
speedups come from the best single round, so both ends of every ratio
are measured in the same machine-speed window (per-round walls are kept
in the record under ``rounds``).  A fourth, *simulated-time* leg (PR 9)
runs the DAG workloads under every DAG policy and records the best
ready-schedule makespan ratio over serial step-at-a-time execution
(``speedup_dag_over_serial``); simulated ratios are deterministic, so
they are computed once outside the paired rounds.  The perf trajectory
lives in ``BENCH_pr3.json`` -> ``BENCH_pr7.json`` -> ``BENCH_pr8.json``
-> ``BENCH_pr9.json`` -> ``BENCH_pr17.json`` -> ``BENCH_pr20.json``.  Up to
``BENCH_pr17.json`` the serial leg ran without any result sharing and the
pool and fuse legs with the process-wide cache, so their ratios measured
mostly the cache; from ``BENCH_pr20.json`` on every leg shares equally.

Usage::

    PYTHONPATH=src python scripts/bench.py --quick --jobs 1 --repeat 5   # measure
    PYTHONPATH=src python scripts/bench.py --quick --jobs 1 --repeat 5 --check BENCH_pr20.json

The fresh record goes to ``--out`` (default ``BENCH_latest.fresh.json``,
which ``.gitignore`` covers), so a measurement never overwrites a
committed baseline unless asked to.

``--check`` compares the fresh measurement against a recorded baseline.
It refuses, before measuring, a baseline whose ``jobs_resolved`` differs
from this run's worker count (``--jobs``, or the logical CPU count): with
more than one worker the fuse leg runs on the pool backend, so the two
records would measure different things.  Otherwise it exits non-zero
when

* the pool leg is slower than the serial leg,
* the fused leg is slower than the un-fused pool leg (fusion must pay for
  itself),
* the best DAG policy fails to beat serial step-at-a-time on simulated
  makespan, or
* any speedup ratio (pool, fuse, dag -- each over serial)
  regressed by more than ``--tolerance`` (default 10%) versus the
  baseline's ratio.  Ratios, not absolute seconds, so the gate is portable across
  machines of different speeds.  For gating, each fresh ratio is its own
  best across the paired rounds (still within-round pairings), so a
  single noisy round cannot fail a ratio it was not selected by.  A
  ratio that still misses its floor gets one drift-resistant retry: the
  records' min-wall ratios (min serial wall / min leg wall across
  rounds) are compared under the same tolerance, which factors out the
  serial leg's run-to-run drift that every paired ratio inherits.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core.partition import PartitionConfig
from repro.core.runtime import RuntimeConfig, SHMTRuntime
from repro.core.schedulers.base import make_scheduler
from repro.devices.platform import jetson_nano_platform
from repro.exec.fuse import arena, fuse_stats, reset_fuse_stats
from repro.experiments.common import ExperimentSettings
from repro.experiments.runner import run_all
from repro.workloads.generator import generate

SCHEMA = "repro.bench/v1"


def _leg_settings(args, backend: str, fuse: bool) -> ExperimentSettings:
    settings = ExperimentSettings(seed=args.seed)
    if args.quick:
        settings.size = 512 * 512
    settings.runtime_config = RuntimeConfig(
        backend=backend,
        jobs=args.jobs,
        validate=args.validate,
        fuse=fuse,
    )
    return settings


def _phase_profile(
    backend: str, jobs, seed: int, validate: bool = False, fuse: bool = False
) -> dict:
    """Simulated per-(phase, resource) seconds of one observed QAWS-TS run."""
    config = RuntimeConfig(
        partition=PartitionConfig(target_partitions=16),
        observe=True,
        backend=backend,
        jobs=jobs,
        validate=validate,
        fuse=fuse,
    )
    runtime = SHMTRuntime(jetson_nano_platform(), make_scheduler("QAWS-TS"), config)
    report = runtime.execute(generate("sobel", size=(256, 256), seed=seed))
    return {
        f"{phase}/{resource}": {"seconds": stat.seconds, "count": stat.count}
        for (phase, resource), stat in sorted(report.metrics.phases.items())
    }


def _run_leg(args, name: str, backend: str, jobs, fuse: bool = False) -> dict:
    if fuse:
        reset_fuse_stats()
    settings = _leg_settings(args, backend, fuse)
    # Collect the previous leg's garbage (dead engines, the previous
    # sweep's result store) outside the timed region so one leg's
    # allocation debris does not bill the next leg's wall clock.
    gc.collect()
    start = time.time()
    timings = run_all(settings, out=io.StringIO(), jobs=jobs)
    wall = time.time() - start
    leg = {
        "backend": backend,
        "fuse": fuse,
        "jobs": jobs,
        # The worker count this leg actually ran with (``jobs: null``
        # means "no fan-out", i.e. one effective worker) -- recorded
        # per leg so the env block can keep the *logical* CPU count
        # without the two being conflated.
        "jobs_effective": jobs or 1,
        "wall_seconds": round(wall, 3),
        "experiments": {k: round(v, 3) for k, v in timings.items()},
    }
    if fuse:
        leg["fuse_stats"] = fuse_stats().as_dict()
        leg["arena_stats"] = arena().as_dict()
    print(
        f"  {name:<12} {wall:7.1f}s  "
        f"(backend={backend}, fuse={fuse}, jobs={jobs})"
    )
    return leg


def _dag_leg(args) -> dict:
    """Simulated DAG scheduling leg: best ready policy vs serial.

    Everything here is simulated time (deterministic in the seed and
    sizes), so the ratios are exactly reproducible on any machine; only
    ``wall_seconds`` measures the harness itself.
    """
    from repro.core.graph import DAG_POLICIES
    from repro.workloads.dag import image_pipeline_graph, solver_graph

    config = RuntimeConfig(
        partition=PartitionConfig(target_partitions=16), seed=args.seed
    )
    runtime = SHMTRuntime(
        jetson_nano_platform(), make_scheduler("QAWS-TS"), config
    )
    side = 192 if args.quick else 256
    graphs = {
        "image-pipeline": image_pipeline_graph(side=side, seed=args.seed),
        "solver": solver_graph(side=side // 2, steps=4, seed=args.seed),
    }
    start = time.time()
    workloads = {}
    ratios = []
    for name, graph in graphs.items():
        serial = graph.run(runtime, schedule="serial", policy="step")
        policies = {}
        best_policy, best_time = None, float("inf")
        for policy in DAG_POLICIES:
            result = graph.run(runtime, schedule="ready", policy=policy)
            policies[policy] = {
                "ready_makespan": round(result.total_time, 9),
                "speedup_over_serial": round(
                    serial.total_time / max(result.total_time, 1e-12), 4
                ),
                "transfers_waived": result.transfers_waived,
                "fingerprints_derived": result.fingerprints_derived,
            }
            if result.total_time < best_time:
                best_policy, best_time = policy, result.total_time
        ratio = serial.total_time / max(best_time, 1e-12)
        ratios.append(ratio)
        workloads[name] = {
            "side": side if name == "image-pipeline" else side // 2,
            "serial_makespan": round(serial.total_time, 9),
            "best_policy": best_policy,
            "policies": policies,
            "speedup_over_serial": round(ratio, 4),
        }
    # Geometric mean across workloads: one headline that a single
    # workload cannot dominate.
    speedup = float(np.exp(np.mean(np.log(ratios))))
    wall = time.time() - start
    print(
        "  dag (simulated)       "
        + ", ".join(
            f"{name}: {w['best_policy']} {w['speedup_over_serial']:.3f}x"
            for name, w in workloads.items()
        )
        + f"  -> {speedup:.3f}x  ({wall:.1f}s)"
    )
    return {
        "simulated": True,
        "wall_seconds": round(wall, 3),
        "workloads": workloads,
        "speedup_dag_over_serial": round(speedup, 4),
    }


def resolved_jobs(args) -> int:
    """The worker count the pool and fuse legs run with.

    Defaults to the real core count: extra threads on a small box are
    pure oversubscription and only add handoff/GIL noise to the legs.
    """
    return args.jobs or (os.cpu_count() or 1)


def measure(args) -> dict:
    print(f"benchmarking the {'quick ' if args.quick else ''}experiment suite:")
    jobs = resolved_jobs(args)
    # The fused leg measures fusion at the machine's best worker
    # configuration: with a single worker the pool's thread handoff is
    # pure overhead, so fusion runs on the serial backend (identical
    # semantics -- FusingBackend wraps either).
    fuse_backend = "pool" if jobs > 1 else "serial"
    # Paired rounds: each round runs all three legs back-to-back, and each
    # speedup ratio is computed *within* its round, so both ends of the
    # ratio see the same machine-speed window.  (Taking each leg's min
    # across rounds instead lets a noisy box pair a lucky serial leg with
    # an unlucky fused one -- ratios from different windows are fiction.)
    rounds = []
    for index in range(max(1, args.repeat)):
        if index:
            print(f"  --- round {index + 1} ---")
        serial = _run_leg(args, "serial", "serial", jobs=None)
        pool = _run_leg(args, "pool", "pool", jobs=jobs)
        fused = _run_leg(args, "fuse", fuse_backend, jobs=jobs, fuse=True)
        speedup = serial["wall_seconds"] / max(pool["wall_seconds"], 1e-9)
        fuse_speedup = serial["wall_seconds"] / max(fused["wall_seconds"], 1e-9)
        rounds.append(
            {
                "legs": {"serial": serial, "pool": pool, "fuse": fused},
                "speedup_pool_over_serial": round(speedup, 4),
                "speedup_fuse_over_serial": round(fuse_speedup, 4),
            }
        )
    best = max(rounds, key=lambda r: r["speedup_fuse_over_serial"])
    serial, pool, fused = (best["legs"][k] for k in ("serial", "pool", "fuse"))
    # The phase profiles are deterministic simulated-time attributions --
    # one per leg configuration, attached after the timed rounds.
    serial["phase_profile"] = _phase_profile("serial", None, args.seed, args.validate)
    pool["phase_profile"] = _phase_profile("pool", jobs, args.seed, args.validate)
    fused["phase_profile"] = _phase_profile(
        fuse_backend, jobs, args.seed, args.validate, fuse=True
    )
    dag = _dag_leg(args)
    print(f"  pool speedup over serial: {best['speedup_pool_over_serial']:.2f}x")
    print(f"  fuse speedup over serial: {best['speedup_fuse_over_serial']:.2f}x")
    print(
        f"  dag ready-schedule speedup over serial (simulated): "
        f"{dag['speedup_dag_over_serial']:.2f}x"
    )
    return {
        "schema": SCHEMA,
        "quick": bool(args.quick),
        "seed": args.seed,
        "repeat": max(1, args.repeat),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            # The *logical* CPU count of the measuring box.  Worker
            # counts actually used are per-leg (``jobs``/
            # ``jobs_effective`` in each leg record) -- a leg may run
            # fewer workers than the box has CPUs.
            "cpu_count_logical": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        #: The resolved default worker count the pool/fuse legs ran with
        #: this invocation (``--jobs`` or the logical CPU count).
        "jobs_resolved": jobs,
        "legs": {
            "serial": serial,
            "pool": pool,
            "fuse": fused,
            "dag": dag,
        },
        "rounds": [
            {
                "walls": {k: r["legs"][k]["wall_seconds"] for k in r["legs"]},
                "speedup_pool_over_serial": r["speedup_pool_over_serial"],
                "speedup_fuse_over_serial": r["speedup_fuse_over_serial"],
            }
            for r in rounds
        ],
        "speedup_pool_over_serial": best["speedup_pool_over_serial"],
        "speedup_fuse_over_serial": best["speedup_fuse_over_serial"],
        "speedup_dag_over_serial": dag["speedup_dag_over_serial"],
    }


def _best_ratio(record: dict, key: str):
    """The best value of ``key`` across the record's paired rounds.

    The headline ratios all come from the single best round (selected by
    the fuse ratio), but for *gating* each ratio independently takes
    its own best round: every ratio is still a within-round pairing, and
    the gate stops failing just because one noisy round dragged a ratio
    it was not selected by.  Falls back to the headline for old records.
    """
    rounds = record.get("rounds") or []
    values = [r[key] for r in rounds if r.get(key) is not None]
    if values:
        return max(values)
    return record.get(key)


#: Which leg each gated ratio's numerator wall comes from.
_LEG_FOR_RATIO = {
    "speedup_pool_over_serial": "pool",
    "speedup_fuse_over_serial": "fuse",
}


def _minwall_ratio(record: dict, leg: str):
    """Ratio of minimum walls across rounds: min(serial) / min(``leg``).

    The minimum is the noise-robust wall-clock estimator (system noise
    only ever adds time), and each leg's own minimum across rounds drifts
    far less run-to-run than any single paired round -- the serial leg in
    particular can swing 20%+ between invocations on a loaded box, which
    every paired ratio inherits.  Used as the gate's fallback when the
    best paired round misses the floor.  Falls back to the single-leg
    walls for old one-round records; ``None`` when the leg never ran.
    """
    rounds = record.get("rounds") or []
    serial_walls = [
        r["walls"]["serial"]
        for r in rounds
        if r.get("walls", {}).get("serial")
    ]
    leg_walls = [
        r["walls"][leg] for r in rounds if r.get("walls", {}).get(leg)
    ]
    if serial_walls and leg_walls:
        return min(serial_walls) / min(leg_walls)
    legs = record.get("legs") or {}
    serial = (legs.get("serial") or {}).get("wall_seconds")
    wall = (legs.get(leg) or {}).get("wall_seconds")
    if serial and wall:
        return serial / wall
    return None


def check(record: dict, baseline: dict, tolerance: float) -> int:
    """Gate the fresh ``record`` against the recorded ``baseline``."""
    failures = []
    speedup = _best_ratio(record, "speedup_pool_over_serial")
    if speedup < 1.0:
        failures.append(
            f"pool leg is slower than serial (speedup {speedup:.2f}x < 1.0x)"
        )
    fuse_speedup = _best_ratio(record, "speedup_fuse_over_serial")
    if fuse_speedup is not None and fuse_speedup < speedup:
        failures.append(
            f"fusion leg is slower than the un-fused pool leg "
            f"({fuse_speedup:.2f}x < {speedup:.2f}x over serial)"
        )
    dag_speedup = record.get("speedup_dag_over_serial")
    if dag_speedup is not None and dag_speedup < 1.0:
        failures.append(
            f"no DAG policy beats serial step-at-a-time on simulated "
            f"makespan (best {dag_speedup:.2f}x < 1.0x)"
        )
    checked = []
    for key, fresh in (
        ("speedup_pool_over_serial", speedup),
        ("speedup_fuse_over_serial", fuse_speedup),
        ("speedup_dag_over_serial", dag_speedup),
    ):
        base = baseline.get(key)
        if not base or fresh is None:
            continue
        floor = base * (1.0 - tolerance)
        ok = fresh >= floor
        note = ""
        wall_leg = _LEG_FOR_RATIO.get(key)
        if not ok and wall_leg is not None:
            # Fallback estimator: the paired-round ratios inherit the
            # serial leg's run-to-run drift, so before failing compare
            # the drift-resistant min-wall ratios of both records under
            # the same tolerance.  (The simulated DAG ratio has no wall
            # legs and no drift, so it gets no fallback.)
            robust_fresh = _minwall_ratio(record, wall_leg)
            robust_base = _minwall_ratio(baseline, wall_leg)
            if robust_fresh is not None and robust_base:
                ok = robust_fresh >= robust_base * (1.0 - tolerance)
                if ok:
                    note = (
                        f", passed on min-wall ratio {robust_fresh:.2f}x "
                        f"vs baseline {robust_base:.2f}x"
                    )
        checked.append(
            f"{key.split('_')[1]} {fresh:.2f}x (baseline {base:.2f}x{note})"
        )
        if not ok:
            failures.append(
                f"{key} regressed >{tolerance:.0%}: {fresh:.2f}x vs "
                f"baseline {base:.2f}x (floor {floor:.2f}x; min-wall "
                f"fallback also below its floor)"
            )
    for message in failures:
        print(f"BENCH REGRESSION: {message}", file=sys.stderr)
    if not failures:
        print(
            "bench check ok: " + "; ".join(checked)
            + f" (tolerance {tolerance:.0%})"
        )
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced-size suite (what CI gates on)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="pool workers / runner fan-out (default: cpu count)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run N paired rounds (all three legs back-to-back "
                             "per round) and report the best round's ratios; "
                             "pairing keeps both ends of each ratio in the "
                             "same machine-speed window")
    parser.add_argument("--out", default="BENCH_latest.fresh.json", metavar="PATH",
                        help="where to write the fresh record (default "
                             "BENCH_latest.fresh.json, ignored by git)")
    parser.add_argument("--check", metavar="BASELINE.json",
                        help="compare against a recorded baseline and gate")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed speedup-ratio regression vs baseline")
    parser.add_argument("--validate", action="store_true",
                        help="measure with the runtime invariant checker on "
                             "(repro.verify); off for the gated baseline")
    args = parser.parse_args()

    baseline = None
    if args.check:
        with open(args.check) as fh:  # read *before* --out may overwrite it
            baseline = json.load(fh)
        jobs = resolved_jobs(args)
        recorded = baseline.get("jobs_resolved")
        if recorded != jobs:
            hint = (
                f"pass --jobs {recorded} to compare like with like"
                if recorded is not None
                else "the baseline predates that field; record a new one"
            )
            print(
                f"BENCH REFUSED: {args.check} was recorded at jobs_resolved="
                f"{recorded}, but this run would use jobs={jobs}; {hint}",
                file=sys.stderr,
            )
            return 2

    record = measure(args)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"record written to {args.out}")

    if baseline is not None:
        return check(record, baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
