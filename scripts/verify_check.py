#!/usr/bin/env python
"""Verification check: differential sweep, fuzzer smoke, and fixture self-test.

The quick suite (what CI runs) asserts, in order:

1. **Policy equivalence** -- exact-device policies produce bit-identical
   outputs per kernel (see :mod:`repro.verify.differential`).
2. **Shuffle invariance** -- the quantized path's output is independent of
   HLOP execution order.
3. **Fuse equivalence** -- runs with the fusion/batching pass enabled are
   bit-identical (outputs *and* makespans) to unfused runs, across exact
   policies and the mixed-platform quantized path.
4. **Clean validated sweep** -- every registered policy runs every kernel
   of the differential grid under full invariant checking
   (``RuntimeConfig(validate=True)``), fault-free and under the chaos
   fault plan, without a single violation.
5. **Fuzzer smoke** -- a seeded fuzzing session finds no failures.
6. **Fixture self-test** -- each seeded invariant-violation fixture
   (double-aggregate, clock step back, overlapping tile, poisoned cache
   entry) is actually *caught* by the checker.  A fixture slipping through
   silently means the checker rotted.

Usage::

    PYTHONPATH=src python scripts/verify_check.py --quick
    PYTHONPATH=src python scripts/verify_check.py --inject overlap-tile

``--inject NAME`` activates one fixture and runs the canned validated run
*without* the self-test inversion: the injected violation must surface and
the script exits non-zero -- the end-to-end proof that ``--validate``
turns seeded bugs into failing runs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import (
    DeviceDeath,
    FaultPlan,
    OutputCorruption,
    RuntimeConfig,
    SHMTRuntime,
    Straggler,
    TransientFaults,
    jetson_nano_platform,
    make_backend,
    make_scheduler,
    scheduler_names,
)
from repro.core.partition import Partition, PartitionConfig
from repro.core import runtime as runtime_module
from repro.exec.cache import CacheIntegrityError, ResultCache
from repro.verify.differential import (
    DEFAULT_KERNELS,
    check_fuse_equivalence,
    check_policy_equivalence,
    check_shuffle_invariance,
)
from repro.verify.fuzz import fuzz
from repro.verify.invariants import InvariantViolation
from repro.workloads import generate

SINGLE_DEVICE = {"gpu-baseline", "edge-tpu-only", "sw-pipelining"}


def _chaos_plan(kill_gpu: bool) -> FaultPlan:
    return FaultPlan(
        transient=(TransientFaults("*", probability=0.05),),
        deaths=(DeviceDeath("gpu0", at_time=5e-4),) if kill_gpu else (),
        stragglers=(Straggler("tpu0", slowdown=8.0, start=2e-4),),
        corruption=(OutputCorruption("cpu0", probability=0.3),),
    )


def _validated_config(fault_plan=None, seed: int = 7) -> RuntimeConfig:
    return RuntimeConfig(
        partition=PartitionConfig(target_partitions=16),
        seed=seed,
        validate=True,
        fault_plan=fault_plan,
    )


def clean_validated_sweep() -> list:
    """All policies x all grid kernels, fault-free and under chaos."""
    failures = []
    for policy in scheduler_names():
        for kernel, size in DEFAULT_KERNELS:
            for plan in (None, _chaos_plan(kill_gpu=policy not in SINGLE_DEVICE)):
                label = f"{policy}/{kernel}" + ("/chaos" if plan else "")
                try:
                    runtime = SHMTRuntime(
                        jetson_nano_platform(),
                        make_scheduler(policy),
                        _validated_config(fault_plan=plan, seed=11),
                    )
                    runtime.execute(generate(kernel, size=size, seed=11))
                except Exception as error:  # noqa: BLE001 - sweep and report
                    failures.append(f"{label}: {type(error).__name__}: {error}")
    return failures


# ------------------------------------------------------ injection fixtures
#
# Each fixture is a context manager that seeds one concrete bug into the
# runtime (or cache).  Inside the context, the canned validated run MUST
# raise InvariantViolation / CacheIntegrityError naming the invariant.


@contextlib.contextmanager
def _fixture_double_aggregate():
    """Aggregate the first HLOP of every unit twice."""
    original = runtime_module._BatchRun._assemble_output

    def patched(self, unit):
        out = original(self, unit)
        if self.check is not None and unit.hlops:
            first = unit.hlops[0]
            self.check.on_aggregate(
                first.hlop_id, unit.index, "host", unit.finish_time
            )
        return out

    runtime_module._BatchRun._assemble_output = patched
    try:
        yield
    finally:
        runtime_module._BatchRun._assemble_output = original


@contextlib.contextmanager
def _fixture_clock_step_back():
    """Feed the checker a completion whose clock runs backwards."""
    original = runtime_module._BatchRun._on_complete

    def patched(self, state, hlop, start, finish, handle, **kwargs):
        original(self, state, hlop, start, finish, handle, **kwargs)
        if self.check is not None:
            self.check.observe_clock(finish - 1.0, state.device.name)

    runtime_module._BatchRun._on_complete = patched
    try:
        yield
    finally:
        runtime_module._BatchRun._on_complete = original


@contextlib.contextmanager
def _fixture_overlap_tile():
    """Extend one partition's output slice into its neighbour's."""
    original = runtime_module.plan_partitions

    def patched(spec, shape, config=None):
        partitions = original(spec, shape, config)
        if len(partitions) < 2:
            return partitions
        victim = partitions[1]
        rows = victim.out_slices[0]
        grown = slice(rows.start - 1, rows.stop)  # one row of overlap
        partitions[1] = Partition(
            index=victim.index,
            n_items=victim.n_items,
            in_slices=(slice(victim.in_slices[0].start - 1, victim.in_slices[0].stop),)
            + victim.in_slices[1:],
            out_slices=(grown,) + victim.out_slices[1:],
        )
        return partitions

    runtime_module.plan_partitions = patched
    try:
        yield
    finally:
        runtime_module.plan_partitions = original


@contextlib.contextmanager
def _fixture_cache_poison():
    """Flip bits in a stored cache entry after its fingerprint was taken.

    Yields the poisoned store for the canned run to compute over, the way
    the runtimes of one experiment sweep share theirs.
    """
    store = ResultCache()
    _canned_run(store)
    with store._lock:
        key = next(iter(store._entries))
        entry = store._entries[key]
    entry.flags.writeable = True
    try:
        entry[(0,) * entry.ndim] += 1.0
    finally:
        entry.flags.writeable = False
    yield store


FIXTURES = {
    "double-aggregate": (_fixture_double_aggregate, "hlop-conservation"),
    "clock-step-back": (_fixture_clock_step_back, "clock-monotonic"),
    "overlap-tile": (_fixture_overlap_tile, "tiling-coverage"),
    "cache-poison": (_fixture_cache_poison, "fingerprint"),
}


def _canned_run(store: Optional[ResultCache] = None) -> None:
    """The validated run every fixture is injected into.

    ``store`` is the result store its backend computes over; only the
    cache-poison fixture yields one.
    """
    config = RuntimeConfig(
        partition=PartitionConfig(target_partitions=16),
        seed=7,
        validate=True,
    )
    runtime = SHMTRuntime(
        jetson_nano_platform(),
        make_scheduler("QAWS-TS"),
        config,
        backend=make_backend("serial", cache=store, validate=True),
    )
    runtime.execute(generate("fft", size=(128, 128), seed=7))


def fixture_self_test() -> list:
    """Every fixture must be caught; returns failure descriptions."""
    failures = []
    for name, (fixture, expected) in FIXTURES.items():
        try:
            with fixture() as store:
                _canned_run(store)
        except (InvariantViolation, CacheIntegrityError) as caught:
            if expected not in str(caught):
                failures.append(
                    f"fixture {name}: caught, but the violation does not name "
                    f"{expected!r}: {caught}"
                )
        except Exception as error:  # noqa: BLE001 - wrong failure mode
            failures.append(
                f"fixture {name}: raised {type(error).__name__} instead of an "
                f"invariant violation: {error}"
            )
        else:
            failures.append(
                f"fixture {name}: the seeded violation was NOT caught "
                "(checker regression)"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="the CI suite (also the default)")
    parser.add_argument("--fuzz-cases", type=int, default=40,
                        help="fuzzer smoke session size")
    parser.add_argument("--fuzz-seed", type=int, default=0)
    parser.add_argument("--inject", choices=sorted(FIXTURES),
                        help="activate one violation fixture and run; the "
                             "injected violation must surface (exit non-zero)")
    args = parser.parse_args()

    if args.inject:
        fixture, _ = FIXTURES[args.inject]
        print(f"verify check: running with injected fixture {args.inject!r}")
        with fixture() as store:
            _canned_run(store)  # must raise -> traceback, exit != 0
        print("ERROR: the injected violation was not detected", file=sys.stderr)
        return 1

    start = time.time()
    failures = []

    print("verify check: exact-policy differential equivalence")
    failures += check_policy_equivalence()

    print("verify check: quantized-path shuffle invariance")
    failures += check_shuffle_invariance()

    print("verify check: fused-vs-unfused differential equivalence")
    failures += check_fuse_equivalence()

    print(
        f"verify check: clean validated sweep "
        f"({len(scheduler_names())} policies x {len(DEFAULT_KERNELS)} kernels, "
        "fault-free + chaos)"
    )
    failures += clean_validated_sweep()

    print(f"verify check: fuzzer smoke ({args.fuzz_cases} cases, "
          f"seed {args.fuzz_seed})")
    failures += [
        f"fuzz: {case}: {message}"
        for case, message in fuzz(args.fuzz_cases, args.fuzz_seed)
    ]

    print(f"verify check: fixture self-test ({len(FIXTURES)} seeded violations)")
    failures += fixture_self_test()

    wall = time.time() - start
    if failures:
        print(f"\nverify check FAILED ({len(failures)} problem(s), {wall:.1f}s):",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"verify check ok ({wall:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
