"""HLOP results are shared within one experiment sweep, and nowhere else.

An :class:`ExperimentContext` owns one result store; every runtime the
sweep builds -- its policy runs, Figure 9's sampling sweep, the scaling
study, and Figure 12's per-size contexts -- computes over it.  Sharing
never changes a report, a second context starts empty, and a runtime
built outside a sweep has no store at all.
"""

import sys

import numpy as np

from repro.core.runtime import SHMTRuntime
from repro.core.schedulers.base import make_scheduler
from repro.experiments import fig9, fig12, scaling
from repro.experiments.common import ExperimentContext, ExperimentSettings, platform_for

KERNEL = "sobel"


def _context():
    return ExperimentContext(
        ExperimentSettings(size=128 * 128, seed=0, kernels=[KERNEL])
    )


def _warm_context():
    ctx = _context()
    for policy in ("gpu-baseline", "QAWS-TS"):
        ctx.run(KERNEL, policy)
    return ctx


def test_second_policy_hits_and_matches_a_bare_runtime():
    ctx = _context()
    baseline = ctx.run(KERNEL, "gpu-baseline")
    hits = ctx.store.stats.hits
    qaws = ctx.run(KERNEL, "QAWS-TS")
    assert ctx.store.stats.hits > hits
    for policy, report in (("gpu-baseline", baseline), ("QAWS-TS", qaws)):
        bare = SHMTRuntime(platform_for(policy), make_scheduler(policy))
        expected = bare.execute(ctx.call(KERNEL))
        assert np.array_equal(report.output, expected.output)
        assert report.makespan == expected.makespan


def test_each_sweep_runtime_gets_its_own_backend_over_the_one_store():
    ctx = _context()
    platform, scheduler = platform_for("QAWS-TS"), make_scheduler("QAWS-TS")
    first, second = ctx.runtime(platform, scheduler), ctx.runtime(platform, scheduler)
    assert first.backend is not second.backend
    assert first.backend.cache is ctx.store
    assert second.backend.cache is ctx.store


def test_threaded_prefetch_shares_the_store_without_changing_reports():
    policies = ("gpu-baseline", "QAWS-TS", "work-stealing", "even-distribution")
    serial = _context()
    for policy in policies:
        serial.run(KERNEL, policy)
    threaded = _context()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded.prefetch([(KERNEL, policy) for policy in policies], jobs=4)
    finally:
        sys.setswitchinterval(interval)
    threaded.store.self_check()
    for policy in policies:
        expected, got = serial.run(KERNEL, policy), threaded.run(KERNEL, policy)
        assert np.array_equal(got.output, expected.output)
        assert got.makespan == expected.makespan


def test_figure9_and_scaling_hit_the_context_store():
    ctx = _warm_context()
    for sweep in (
        lambda: fig9.run(exponents=(-12,), ctx=ctx),
        lambda: scaling.run(ctx=ctx),
    ):
        hits = ctx.store.stats.hits
        sweep()
        assert ctx.store.stats.hits > hits


def test_figure12_point_at_the_context_size_reuses_its_blocks():
    cold = _context()
    cold_result = fig12.run(ctx=cold)
    warm = _warm_context()
    misses = warm.store.stats.misses
    warm_result = fig12.run(ctx=warm)
    # Both sweeps compute the 4K point from scratch; only the warm one
    # finds the 16K point's blocks already in its store.
    assert warm.store.stats.misses - misses < cold.store.stats.misses
    assert warm_result.series == cold_result.series


def test_a_second_context_starts_with_an_empty_store():
    first = _warm_context()
    second = ExperimentContext(first.settings)
    assert second.store is not first.store
    assert len(second.store) == 0
    second.run(KERNEL, "gpu-baseline")
    assert second.store.stats.hits == 0


def test_a_runtime_outside_a_sweep_keeps_nothing():
    runtime = SHMTRuntime(platform_for("QAWS-TS"), make_scheduler("QAWS-TS"))
    assert runtime.backend.cache is None
