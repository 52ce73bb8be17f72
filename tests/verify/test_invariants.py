"""Unit tests for the runtime invariant checker.

Two layers: the checker itself, driven directly with fabricated evidence
(each seeded violation must be caught, each legal sequence must not), and
the runtime wiring, where a monkeypatched bug -- a double aggregation, a
rewound clock, an overlapping tile -- must abort a ``validate=True`` run
with :class:`~repro.verify.invariants.InvariantViolation`, and a poisoned
result-store entry must abort it with
:class:`~repro.exec.cache.CacheIntegrityError`.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import runtime as runtime_module
from repro.core.partition import Partition, PartitionConfig
from repro.core.runtime import RuntimeConfig, SHMTRuntime
from repro.core.schedulers.base import make_scheduler
from repro.devices.platform import jetson_nano_platform
from repro.exec import make_backend
from repro.exec.cache import CacheIntegrityError, ResultCache
from repro.obs import RunObserver
from repro.verify.invariants import InvariantViolation, RunChecker, Violation
from repro.workloads.generator import generate


def names(checker):
    return [v.invariant for v in checker.violations]


# ------------------------------------------------------------ lifecycle hooks


def test_clean_lifecycle_has_no_violations():
    checker = RunChecker()
    checker.on_dispatch(0, "gpu0", 0.0)
    checker.on_complete(0, "gpu0", 0.0, 1.0, unit_id=0)
    checker.on_aggregate(0, 0, "host", 1.0)
    assert checker.violations == []
    checker.raise_if_violated()  # no-op


def test_double_aggregate_caught():
    checker = RunChecker()
    checker.on_dispatch(0, "gpu0", 0.0)
    checker.on_complete(0, "gpu0", 0.0, 1.0, unit_id=0)
    checker.on_aggregate(0, 0, "host", 1.0)
    checker.on_aggregate(0, 0, "host", 1.0)
    assert "hlop-conservation" in names(checker)
    with pytest.raises(InvariantViolation, match="aggregated 2 times"):
        checker.raise_if_violated()


def test_double_complete_caught():
    checker = RunChecker()
    checker.on_dispatch(0, "gpu0", 0.0)
    checker.on_complete(0, "gpu0", 0.0, 1.0, unit_id=0)
    checker.on_complete(0, "cpu0", 1.0, 2.0, unit_id=0)
    assert "hlop-conservation" in names(checker)


def test_complete_without_dispatch_caught():
    checker = RunChecker()
    checker.on_complete(7, "gpu0", 0.0, 1.0, unit_id=0)
    assert any("never dispatched" in v.detail for v in checker.violations)


def test_aggregate_without_complete_caught():
    checker = RunChecker()
    checker.on_dispatch(0, "gpu0", 0.0)
    checker.on_aggregate(0, 0, "host", 1.0)
    assert any("never completed" in v.detail for v in checker.violations)


def test_complete_after_split_retire_caught():
    checker = RunChecker()
    checker.on_dispatch(0, "gpu0", 0.0)
    checker.on_split(0, [10, 11], "gpu0", 0.5)
    checker.on_complete(0, "gpu0", 0.0, 1.0, unit_id=0)
    assert any("retired by a split-steal" in v.detail for v in checker.violations)


def test_split_of_completed_parent_caught():
    checker = RunChecker()
    checker.on_dispatch(0, "gpu0", 0.0)
    checker.on_complete(0, "gpu0", 0.0, 1.0, unit_id=0)
    checker.on_split(0, [10, 11], "gpu0", 1.5)
    assert any("already completed" in v.detail for v in checker.violations)


def test_finish_before_start_caught():
    checker = RunChecker()
    checker.on_dispatch(0, "gpu0", 0.0)
    checker.on_complete(0, "gpu0", 2.0, 1.0, unit_id=0)
    assert "span-ordering" in names(checker)


# ------------------------------------------------------------------- clock


def test_clock_monotonic_forward_ok():
    checker = RunChecker()
    for t in (0.0, 0.5, 0.5, 1.25):
        checker.observe_clock(t)
    assert checker.violations == []


def test_clock_step_back_caught():
    checker = RunChecker()
    checker.observe_clock(1.0)
    checker.observe_clock(0.25)
    assert names(checker) == ["clock-monotonic"]
    assert "stepped back" in checker.violations[0].detail


# ------------------------------------------------------------------- steals


def test_steal_conserving_queues_ok():
    checker = RunChecker()
    checker.on_steal(
        "cpu0", "gpu0", taken=3,
        victim_before=5, victim_after=2,
        thief_before=0, thief_after=2,
        time=1.0,
    )
    assert checker.violations == []


def test_steal_losing_work_caught():
    checker = RunChecker()
    checker.on_steal(
        "cpu0", "gpu0", taken=3,
        victim_before=5, victim_after=1,  # one HLOP vanished
        thief_before=0, thief_after=2,
        time=1.0,
    )
    assert names(checker) == ["queue-conservation"]


def test_steal_duplicating_work_caught():
    checker = RunChecker()
    checker.on_steal(
        "cpu0", "gpu0", taken=3,
        victim_before=5, victim_after=2,
        thief_before=0, thief_after=3,  # kept the executing HLOP queued too
        time=1.0,
    )
    assert names(checker) == ["queue-conservation"]


# ------------------------------------------------------------ post-run audit


def _unit(partitions, shape=(8, 8), reduces=False):
    hlops = [
        SimpleNamespace(hlop_id=i, device_name="gpu0", partition=p)
        for i, p in enumerate(partitions)
    ]
    return SimpleNamespace(
        hlops=hlops,
        spec=SimpleNamespace(reduces=reduces),
        call=SimpleNamespace(data=np.zeros(shape, dtype=np.float32)),
        index=0,
    )


def _part(index, rows, shape=(8, 8)):
    sl = (slice(*rows), slice(0, shape[1]))
    return Partition(index=index, n_items=(rows[1] - rows[0]) * shape[1],
                     in_slices=sl, out_slices=sl)


def _feed_lifecycle(checker, unit):
    for hlop in unit.hlops:
        checker.on_dispatch(hlop.hlop_id, "gpu0", 0.0)
        checker.on_complete(hlop.hlop_id, "gpu0", 0.0, 1.0, unit_id=0)
        checker.on_aggregate(hlop.hlop_id, 0, "host", 1.0)


EMPTY_TRACE = SimpleNamespace(spans=[], markers=[])


def test_exact_tiling_passes():
    unit = _unit([_part(0, (0, 4)), _part(1, (4, 8))])
    checker = RunChecker()
    _feed_lifecycle(checker, unit)
    checker.check_run([unit], EMPTY_TRACE, makespan=1.0)
    assert checker.violations == []


def test_overlapping_tiles_caught():
    unit = _unit([_part(0, (0, 5)), _part(1, (4, 8))])
    checker = RunChecker()
    _feed_lifecycle(checker, unit)
    checker.check_run([unit], EMPTY_TRACE, makespan=1.0)
    assert "tiling-coverage" in names(checker)
    assert "overlap" in checker.violations[-1].detail


def test_tiling_gap_caught():
    unit = _unit([_part(0, (0, 3)), _part(1, (4, 8))])
    checker = RunChecker()
    _feed_lifecycle(checker, unit)
    checker.check_run([unit], EMPTY_TRACE, makespan=1.0)
    assert "tiling-coverage" in names(checker)
    assert "gap" in checker.violations[-1].detail


def test_uncompleted_hlop_caught_by_post_run_audit():
    unit = _unit([_part(0, (0, 4)), _part(1, (4, 8))])
    checker = RunChecker()
    checker.on_dispatch(0, "gpu0", 0.0)  # hlop 1 never even dispatched
    checker.check_run([unit], EMPTY_TRACE, makespan=1.0)
    assert "hlop-conservation" in names(checker)


def _span(start, end, resource="gpu0", label="hlop", category="compute"):
    return SimpleNamespace(
        start=start, end=end, resource=resource, label=label, category=category
    )


def test_device_overlap_caught():
    trace = SimpleNamespace(
        spans=[_span(0.0, 1.0), _span(0.5, 1.5)], markers=[]
    )
    checker = RunChecker()
    checker._check_trace(trace, makespan=2.0)
    assert "span-serialization" in names(checker)


def test_span_outside_run_caught_and_horizon_extends():
    trace = SimpleNamespace(
        spans=[],
        markers=[SimpleNamespace(time=1.5, resource="gpu0", label="fault:death")],
    )
    checker = RunChecker()
    checker.check_run([], trace, makespan=1.0)
    assert "span-containment" in names(checker)
    # The same marker is legal when the engine's final clock reaches it
    # (post-completion fault events extend the trace past the makespan).
    late = RunChecker()
    late.check_run([], trace, makespan=1.0, horizon=2.0)
    assert late.violations == []


def test_energy_bound_caught():
    energy = SimpleNamespace(
        duration=1.0, per_device_active={"gpu": 100.0}, total_joules=100.0
    )
    model = SimpleNamespace(active_watts={"gpu": 2.0}, idle_watts=1.0)
    devices = [SimpleNamespace(device_class="gpu")]
    checker = RunChecker()
    checker._check_energy(energy, model, devices, makespan=1.0)
    assert names(checker).count("energy-bound") == 2  # per-class and total


def test_energy_within_bound_passes():
    energy = SimpleNamespace(
        duration=1.0, per_device_active={"gpu": 1.5}, total_joules=2.0
    )
    model = SimpleNamespace(active_watts={"gpu": 2.0}, idle_watts=1.0)
    devices = [SimpleNamespace(device_class="gpu")]
    checker = RunChecker()
    checker._check_energy(energy, model, devices, makespan=1.0)
    assert checker.violations == []


# --------------------------------------------------------------- reporting


def test_violation_message_names_the_scene():
    violation = Violation(
        invariant="clock-monotonic", device="gpu0", time=0.5,
        hlop_id=3, unit_id=1, detail="stepped back",
    )
    message = str(InvariantViolation([violation]))
    for fragment in ("clock-monotonic", "gpu0", "hlop=3", "stepped back"):
        assert fragment in message


def test_violations_mirror_into_obs_recorder():
    obs = RunObserver()
    checker = RunChecker(recorder=obs)
    checker.observe_clock(1.0)
    checker.observe_clock(0.0, device="gpu0")
    assert len(obs.violations) == 1
    record = obs.violations[0]
    assert record["invariant"] == "clock-monotonic"
    assert record["device"] == "gpu0"


# -------------------------------------------------- runtime-injected bugs
#
# The wiring test: a bug seeded into the live runtime must abort a
# validate=True run.  These mirror the scripts/verify_check.py fixtures.


def _validated_run(store=None, kernel="fft"):
    config = RuntimeConfig(
        partition=PartitionConfig(target_partitions=16), seed=7, validate=True
    )
    backend = None
    if store is not None:
        backend = make_backend("serial", cache=store, validate=True)
    runtime = SHMTRuntime(
        jetson_nano_platform(), make_scheduler("QAWS-TS"), config, backend=backend
    )
    return runtime.execute(generate(kernel, size=(64, 64), seed=7))


def test_validated_run_is_clean():
    report = _validated_run()
    assert np.all(np.isfinite(report.output))


def test_injected_double_aggregate_aborts_run(monkeypatch):
    original = runtime_module._BatchRun._assemble_output

    def patched(self, unit):
        out = original(self, unit)
        if self.check is not None and unit.hlops:
            first = unit.hlops[0]
            self.check.on_aggregate(first.hlop_id, unit.index, "host",
                                    unit.finish_time)
        return out

    monkeypatch.setattr(runtime_module._BatchRun, "_assemble_output", patched)
    with pytest.raises(InvariantViolation, match="hlop-conservation"):
        _validated_run()


def test_injected_clock_step_back_aborts_run(monkeypatch):
    original = runtime_module._BatchRun._on_complete

    def patched(self, state, hlop, start, finish, handle, **kwargs):
        original(self, state, hlop, start, finish, handle, **kwargs)
        if self.check is not None:
            self.check.observe_clock(finish - 1.0, state.device.name)

    monkeypatch.setattr(runtime_module._BatchRun, "_on_complete", patched)
    with pytest.raises(InvariantViolation, match="clock-monotonic"):
        _validated_run()


def test_injected_overlap_tile_aborts_run(monkeypatch):
    original = runtime_module.plan_partitions

    def patched(spec, shape, config=None):
        partitions = original(spec, shape, config)
        if len(partitions) < 2:
            return partitions
        victim = partitions[1]
        rows = victim.out_slices[0]
        partitions[1] = Partition(
            index=victim.index,
            n_items=victim.n_items,
            in_slices=(slice(victim.in_slices[0].start - 1,
                             victim.in_slices[0].stop),)
            + victim.in_slices[1:],
            out_slices=(slice(rows.start - 1, rows.stop),)
            + victim.out_slices[1:],
        )
        return partitions

    monkeypatch.setattr(runtime_module, "plan_partitions", patched)
    with pytest.raises(InvariantViolation, match="tiling-coverage"):
        _validated_run()


@pytest.mark.parametrize(
    "kernel, pad", [("fft", False), ("sobel", True)], ids=["block", "pad"]
)
def test_injected_cache_poison_aborts_run(kernel, pad):
    store = ResultCache()
    _validated_run(store, kernel)
    # Flip a stored block result (or a halo kernel's shared pad) after its
    # fingerprint was recorded; the next validated run over the same
    # store must refuse to serve it.
    with store._lock:
        key = next(k for k in store._fingerprints if k.startswith("pad1:") == pad)
        entry = store._entries[key]
    entry.flags.writeable = True
    entry[(0,) * entry.ndim] += 1.0
    entry.flags.writeable = False
    with pytest.raises(CacheIntegrityError, match="fingerprint"):
        _validated_run(store, kernel)
