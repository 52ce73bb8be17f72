"""The SHMT runtime system: the "driver" of the virtual hardware device.

This is the paper's section 3.3 component.  Given one or more
:class:`VOPCall`\\ s and a :class:`Scheduler`, the runtime:

1. builds host context and partitions each VOP's data per its
   parallelization model (page-granular, section 3.4);
2. asks the scheduler for an initial HLOP-to-queue assignment (charging
   any sampling/canary cost to the host timeline);
3. replays execution on the discrete-event engine -- one incoming queue
   per device, a transfer engine per device that double-buffers data
   movement, work stealing when a device idles (the completion-queue
   bookkeeping of the paper collapses into completion events here);
4. actually computes every HLOP's numbers through its device's precision
   path, then aggregates partition outputs (or merges reduction partials)
   into each call's final result;
5. returns an :class:`ExecutionReport` per call (plus a
   :class:`BatchReport` for multi-call runs) with the timeline, energy,
   work shares, and result arrays.

:meth:`SHMTRuntime.execute` runs one VOP; :meth:`SHMTRuntime.execute_batch`
runs several *concurrently* on the same devices -- the paper's Figure 1
picture, where HLOPs from different functions interleave across the
hardware and the host's dispatch work for later calls overlaps with device
execution of earlier ones.

Simulated timing and real numerics advance together, so a policy's speedup
and its result quality come from the same schedule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.core.control import RunControl, filter_blocked
from repro.core.hlop import HLOP, HLOPStatus
from repro.core.partition import (
    Partition,
    PartitionConfig,
    plan_partitions,
    split_partition,
)
from repro.core.result import BatchReport, ExecutionReport
from repro.core.schedulers.base import Plan, PlanContext, Scheduler
from repro.core.vop import VOPCall
from repro.devices.base import Device
from repro.devices.energy import EnergyBreakdown
from repro.devices.platform import Platform
from repro.errors import DeadlineExceeded, DeviceFault, InvalidInput
from repro.exec.backends import ResolvedHandle, TaskHandle, make_backend
from repro.exec.cache import CacheIntegrityError
from repro.exec.fuse import FusingBackend
from repro.exec.task import ComputeTask, fingerprint_value
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.kernels.common import replicate_pad
from repro.kernels.registry import KernelSpec, ParallelModel
from repro.obs.decisions import DecisionKind
from repro.obs.recorder import NULL_RECORDER, Recorder, RunObserver
from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind
from repro.sim.trace import Trace
from repro.verify.invariants import RunChecker

#: HLOP count at which the calibrated SHMT overhead splits between fixed
#: per-HLOP and per-element components (see RuntimeConfig.fixed_share).
REFERENCE_HLOP_COUNT = 64
REFERENCE_ITEM_COUNT = 2048 * 2048

#: Fault kinds that count as device *failures* for a service's circuit
#: breakers (recovery actions like retry/re-queue/degrade are not
#: failures; they are what the breaker's failure count already paid for).
_BREAKER_FAILURE_KINDS = frozenset(
    {
        FaultKind.TRANSIENT,
        FaultKind.TIMEOUT,
        FaultKind.DEVICE_DEATH,
        FaultKind.CORRUPTION,
        FaultKind.WORKER_CRASH,
    }
)


@dataclass(frozen=True)
class RuntimeConfig:
    """Runtime knobs; defaults reproduce the paper's default setup."""

    partition: PartitionConfig = field(default_factory=PartitionConfig)
    seed: int = 2023
    #: Share of the calibrated SHMT overhead that is a fixed per-HLOP cost
    #: (queue management, command submission); the rest scales per element
    #: (quantization, aggregation copies).  Fixed costs are what make tiny
    #: problem sizes unprofitable (paper Figure 12).
    fixed_share: float = 0.3
    #: Granularity adaptation (paper section 3.4): when a thief steals the
    #: last eligible HLOP from a victim, re-partition it so each side gets
    #: a rate-proportional piece instead of moving it wholesale.  Off by
    #: default so the headline figures use the exact calibrated setup; the
    #: endgame-balance benefit is measured in
    #: benchmarks/test_ablation_split.py.
    split_on_steal: bool = False
    #: Optional fault plan (see :mod:`repro.faults`).  ``None`` -- and an
    #: empty plan -- keep the runtime on the exact seed behaviour with
    #: zero overhead: no watchdogs, no result guards, bit-identical
    #: output.  A platform may also carry a plan; the config's wins.
    fault_plan: Optional[FaultPlan] = None
    #: Watchdog deadline per HLOP attempt, as a multiple of the device's
    #: *predicted* service time (legitimate throttling included).  An
    #: attempt still running at the deadline is declared timed out and
    #: retried/re-queued.  Only armed when a fault plan is active.
    watchdog_factor: float = 4.0
    #: Same-device retries after a transient failure or timeout before
    #: the HLOP is re-queued to another device.
    max_retries: int = 2
    #: Base of the capped exponential backoff (simulated seconds) between
    #: same-device retries: delay = min(cap, base * 2**(retry - 1)).
    retry_backoff: float = 100e-6
    retry_backoff_cap: float = 10e-3
    #: Hard ceiling on cross-device migrations per HLOP.  A plan under
    #: which no device can ever finish an HLOP (e.g. every device hung)
    #: fails with a clear error instead of bouncing work forever.
    max_requeues: int = 32
    #: Record run telemetry (metrics registry, scheduler-decision log,
    #: per-phase profile; see :mod:`repro.obs`) and attach the
    #: :class:`~repro.obs.recorder.RunMetrics` snapshot to the reports.
    #: Off by default: the disabled path uses a no-op recorder and the
    #: run is bit-identical to an unobserved one.
    observe: bool = False
    #: Compute backend executing HLOP numerics (see :mod:`repro.exec`):
    #: ``"serial"`` (inline, the historical behaviour), ``"pool"`` (shared
    #: thread pool; numpy releases the GIL), or ``"process"``.  The DES
    #: timeline uses only calibrated service times, so scheduling
    #: decisions -- and therefore outputs -- are bit-identical across
    #: backends; results join at the simulated completion event.
    backend: str = "serial"
    #: Worker count for the pool backends (``None`` = cpu_count-derived).
    jobs: Optional[int] = None
    #: Fuse runs of compatible HLOPs into single backend submissions and
    #: batch same-kernel HLOPs (across concurrent calls) into vectorized
    #: evaluations (see :mod:`repro.exec.fuse`).  Per-HLOP service times
    #: and completion events are untouched, and fused numerics are
    #: bit-identical to unfused ones (pinned by
    #: :func:`repro.verify.differential.check_fuse_equivalence`), so this
    #: only changes wall-clock, never results or timelines.  Automatically
    #: suspended for runs with an active fault plan, where per-attempt
    #: injection decisions must stay interleaved with submissions.
    fuse: bool = False
    #: Run the :mod:`repro.verify` invariant checker over this run: HLOP
    #: conservation, tiling coverage, clock monotonicity, span containment
    #: and per-device serialization, queue conservation across steals, the
    #: energy bound, and cache fingerprint verification.  Violations are
    #: mirrored into the run's recorder and raised as
    #: :class:`~repro.verify.invariants.InvariantViolation`.  Off by
    #: default: the disabled path is one ``is None`` test per hook site
    #: and the run is bit-identical to an unchecked one.
    validate: bool = False
    #: Deadline budget for this run's device execution, in simulated
    #: seconds.  ``None`` (the default) never cancels.  With a deadline,
    #: the event loop stops at the budget and a run with unfinished HLOPs
    #: raises :class:`~repro.errors.DeadlineExceeded` -- cooperative
    #: cancellation at HLOP boundaries, the serving layer's QoS knob.
    deadline: Optional[float] = None
    #: Service hooks into the run (see :mod:`repro.core.control`):
    #: admission-time device filtering for open circuit breakers, breaker
    #: signal feed, checkpoint journaling, and resume result lookup.
    #: ``None`` keeps the runtime bit-identical to a control-unaware one.
    control: Optional[RunControl] = None


@dataclass
class _Running:
    """The attempt currently occupying a device's compute engine."""

    hlop: HLOP
    start: float
    done_event: Event
    watchdog_event: Optional[Event] = None
    #: Model-predicted service time of this attempt (for the decision log).
    predicted: float = 0.0


@dataclass
class _DeviceState:
    """Mutable per-device bookkeeping during one simulated run."""

    device: Device
    queue: Deque[HLOP] = field(default_factory=deque)
    running: bool = False
    transfer_free: float = 0.0
    busy_seconds: float = 0.0
    wait_seconds: float = 0.0
    items_done: int = 0
    #: Permanently failed (fault plan device death); accepts no more work.
    dead: bool = False
    current: Optional[_Running] = None


@dataclass
class _CallUnit:
    """One VOPCall's slice of a (possibly batched) run."""

    index: int
    call: VOPCall
    spec: KernelSpec
    calibration: Any
    host_context: Any
    padded_input: np.ndarray
    plan: Plan
    hlops: List[HLOP]
    total_items: int
    #: ``"blk1:<data-fp>:halo=..."`` when the call's input is frozen --
    #: block cache keys are then derived from (input fingerprint, slice
    #: bounds) instead of hashing every block's bytes.  ``None`` falls
    #: back to content hashing.
    block_key_prefix: Optional[str] = None
    #: ``fingerprint_value(host_context)`` computed once per call ("" =
    #: unfingerprintable, so tasks are uncacheable).
    ctx_key: Optional[str] = None
    dispatch_seconds: float = 0.0
    ready_time: float = 0.0
    finish_time: float = 0.0
    #: Devices on which the call's input already resides (DAG buffer
    #: reuse: the producing step ran pinned there, so its output never
    #: round-tripped through the host).  HLOPs executing on one of these
    #: devices skip the host->device input transfer; a steal or requeue
    #: onto any other device pays the normal transfer cost.
    resident_devices: frozenset = frozenset()
    transfers_waived: int = 0
    #: Per device-class accounting for this call only.
    items_by_class: Dict[str, int] = field(default_factory=dict)
    busy_by_class: Dict[str, float] = field(default_factory=dict)
    wait_seconds: float = 0.0
    busy_seconds: float = 0.0
    steal_count: int = 0
    retry_count: int = 0
    requeue_count: int = 0
    degraded: bool = False


class SHMTRuntime:
    """Executes VOPs on a platform under a scheduling policy."""

    def __init__(
        self,
        platform: Platform,
        scheduler: Scheduler,
        config: Optional[RuntimeConfig] = None,
        backend: Optional[Any] = None,
    ) -> None:
        self.platform = platform
        self.scheduler = scheduler
        self.config = config or RuntimeConfig()
        #: Compute backend for HLOP numerics (see :mod:`repro.exec`).  An
        #: explicit ``backend`` lets several runtimes share one (a DAG's
        #: step runtimes do) or share a result store (an experiment
        #: sweep's runtimes do); results are backend-independent, so
        #: sharing is semantics-free.  The default backend has no store.
        self.backend = backend if backend is not None else make_backend(
            self.config.backend,
            jobs=self.config.jobs,
            validate=self.config.validate,
            fuse=self.config.fuse,
        )

    # ------------------------------------------------------------------ public

    def execute(self, call: VOPCall) -> ExecutionReport:
        """Run one VOP end to end and report everything about the run."""
        return self.execute_batch([call]).reports[0]

    def execute_batch(self, calls: Sequence[VOPCall]) -> BatchReport:
        """Run several VOPs concurrently on the shared devices.

        HLOPs of all calls share the device queues: devices drain and steal
        across calls, and the host's partition/dispatch work for later
        calls overlaps with device execution of earlier ones (the paper's
        Figure 1 execution picture).
        """
        return self.prepare_batch(calls).execute()

    def prepare_batch(self, calls: Sequence[VOPCall]) -> "_BatchRun":
        """Validate, plan, and stage ``calls`` without running the engine.

        ``prepare_batch(calls).execute()`` is exactly ``execute_batch``.
        """
        if not calls:
            raise InvalidInput("execute_batch needs at least one call")
        for index, call in enumerate(calls):
            self._validate_call(index, call)
        devices = self.scheduler.participating(self.platform.devices)
        control = self.config.control
        if control is not None:
            # Admission-time breaker snapshot: the verdict is frozen for
            # the whole run so scheduling stays a deterministic function
            # of (calls, seed, blocked set) -- see repro.core.control.
            blocked = control.blocked_devices([d.name for d in devices])
            if blocked:
                devices = filter_blocked(devices, blocked)
        rng = np.random.default_rng(self.config.seed)
        obs: Recorder = RunObserver() if self.config.observe else NULL_RECORDER
        units: List[_CallUnit] = []
        next_hlop_id = 0
        for index, call in enumerate(calls):
            unit, next_hlop_id = self._build_unit(
                index, call, devices, rng, next_hlop_id, obs
            )
            units.append(unit)
        check = RunChecker(recorder=obs) if self.config.validate else None
        return _BatchRun(
            runtime=self, units=units, devices=devices, obs=obs, check=check
        )

    # ----------------------------------------------------------------- helpers

    def _validate_call(self, index: int, call: VOPCall) -> None:
        """Reject unusable inputs before any partition planning happens.

        :class:`VOPCall` validates at construction, but ``data`` is a
        plain attribute a caller may have replaced since; re-checking here
        keeps user errors (empty or NaN/Inf inputs) from surfacing later
        as kernel faults or quality anomalies mid-run.
        """
        data = np.asarray(call.data)
        # A read-only array cannot be mutated through any reference, so one
        # successful scan covers every later run of the same call object.
        frozen = isinstance(data, np.ndarray) and not data.flags.writeable
        if frozen and getattr(call, "_finite_checked", None) is data:
            return
        where = f"call {index} ({call.label})"
        if data.size == 0:
            raise InvalidInput(
                f"{where}: input array is empty; nothing to partition", call=index
            )
        if not np.all(np.isfinite(data)):
            raise InvalidInput(
                f"{where}: input contains NaN or infinity; SHMT requires finite "
                "inputs (non-finite values would poison quantization calibration)",
                call=index,
            )
        if frozen:
            call._finite_checked = data

    def _build_unit(
        self,
        index: int,
        call: VOPCall,
        devices: List[Device],
        rng: np.random.Generator,
        next_hlop_id: int,
        obs: Recorder = NULL_RECORDER,
    ) -> "tuple[_CallUnit, int]":
        spec = call.spec
        calibration = spec.calibration
        data = call.data
        partitions = plan_partitions(spec, data.shape, self.config.partition)
        padded = self._padded_input(spec, call)
        total_items = sum(p.n_items for p in partitions)
        ctx = PlanContext(
            spec=spec,
            calibration=calibration,
            partitions=partitions,
            block_for=lambda idx: partitions[idx].input_block(padded),
            devices=devices,
            rng=rng,
            total_items=total_items,
            recorder=obs,
            deadline=self.config.deadline,
        )
        plan = self.scheduler.plan(ctx)
        self._validate_plan(plan, partitions, devices)
        hlops = []
        for partition in partitions:
            idx = partition.index
            hlops.append(
                HLOP(
                    hlop_id=next_hlop_id + idx,
                    opcode=spec.vop,
                    partition=partition,
                    unit_id=index,
                    criticality=plan.criticalities[idx],
                    max_accuracy_rank=plan.max_accuracy_ranks[idx],
                )
            )
        data_fp = call.data_fingerprint()
        halo = spec.halo if padded is not data else 0
        host_context = call.resolve_context()
        # The fingerprint is a pure function of the context's content;
        # memoize per (call, context object) so repeated runs of the same
        # memoized call hash it once.
        memo = getattr(call, "_ctx_key_memo", None)
        if memo is not None and memo[0] is host_context:
            ctx_key = memo[1]
        else:
            ctx_key = fingerprint_value(host_context)
            call._ctx_key_memo = (host_context, ctx_key)
        unit = _CallUnit(
            index=index,
            call=call,
            spec=spec,
            calibration=calibration,
            host_context=host_context,
            padded_input=padded,
            plan=plan,
            hlops=hlops,
            total_items=total_items,
            block_key_prefix=(
                f"blk1:{data_fp}:halo={halo!r}" if data_fp is not None else None
            ),
            ctx_key=ctx_key if ctx_key is not None else "",
            resident_devices=frozenset(call.metadata.get("resident_on") or ()),
        )
        return unit, next_hlop_id + len(partitions)

    def _padded_input(self, spec: KernelSpec, call: VOPCall) -> np.ndarray:
        data = call.data
        if spec.model is not ParallelModel.TILE or not spec.halo:
            return data
        cache = self.backend.cache
        if cache is not None:
            # Every run of the same input re-pads it identically; share
            # the (frozen) pad through the backend's result store, audited
            # like the blocks when the backend validates.  Downstream only
            # ever slices read-only views out of it, same as any cached
            # block, so freezing is safe.
            fp = call.data_fingerprint()
            if fp is not None:
                key = f"pad1:{fp}:halo={spec.halo}"
                verify = self.backend.validate
                hit = cache.get(key, verify=verify)
                if hit is not None:
                    return hit
                pad = replicate_pad(data, spec.halo)
                return cache.put(key, pad, fingerprint=verify)
        return replicate_pad(data, spec.halo)

    def _validate_plan(
        self, plan: Plan, partitions: List[Partition], devices: List[Device]
    ) -> None:
        if len(plan.assignment) != len(partitions):
            raise InvalidInput(
                f"plan covers {len(plan.assignment)} partitions, "
                f"expected {len(partitions)}"
            )
        known = {d.name for d in devices}
        unknown = set(plan.assignment) - known
        if unknown:
            raise InvalidInput(f"plan assigns to unknown devices: {sorted(unknown)}")

    def dispatch_overhead(self, calibration, n_hlops: int, total_items: int) -> float:
        """Total SHMT host overhead (dispatch + aggregation) for one VOP.

        The calibrated ``shmt_overhead_fraction`` (x) is anchored at the
        paper's default configuration (2048^2 elements, 64 HLOPs); it is
        split into a per-element component and a fixed per-HLOP component
        so that problem-size sweeps behave mechanistically.
        """
        x = calibration.shmt_overhead_fraction
        fixed_share = self.config.fixed_share
        per_element_total = (1.0 - fixed_share) * x * calibration.baseline_time(total_items)
        reference_baseline = calibration.baseline_time(REFERENCE_ITEM_COUNT)
        fixed_per_hlop = fixed_share * x * reference_baseline / REFERENCE_HLOP_COUNT
        return per_element_total + fixed_per_hlop * n_hlops


class _BatchRun:
    """One simulated run: owns the event loop and per-device state."""

    def __init__(
        self,
        runtime: SHMTRuntime,
        units: List[_CallUnit],
        devices: List[Device],
        obs: Recorder = NULL_RECORDER,
        check: Optional[RunChecker] = None,
    ) -> None:
        self.runtime = runtime
        self.units = units
        self.devices = devices
        self.engine = Engine()
        self.trace = Trace()
        #: Observability sink; a shared no-op unless the config opts in,
        #: so unobserved runs never pay for telemetry.
        self.obs = obs
        #: Invariant checker (``None`` unless the config validates); every
        #: hook site below is gated on ``is not None`` so unchecked runs
        #: pay a single pointer test.
        self.check = check
        if check is not None:
            self.engine.clock_listener = check.observe_clock
        #: Service hooks (``None`` outside the serving layer); every call
        #: site is gated on ``is not None``.
        self.control: Optional[RunControl] = runtime.config.control
        self.states: Dict[str, _DeviceState] = {
            d.name: _DeviceState(device=d) for d in devices
        }
        #: Stable platform position per device: the explicit tie-break for
        #: victim selection, so equally loaded victims sort identically on
        #: every backend and replay (the decision log pins this).
        self._device_order: Dict[str, int] = {
            d.name: position for position, d in enumerate(devices)
        }
        self.steal_count = 0
        self._hlop_units: Dict[int, _CallUnit] = {}
        for unit in units:
            for hlop in unit.hlops:
                self._hlop_units[hlop.hlop_id] = unit
        plan = runtime.config.fault_plan
        if plan is None:
            plan = getattr(runtime.platform, "fault_plan", None)
        #: ``None`` when no (non-empty) fault plan is active; every fault
        #: branch in the run loop is gated on this so fault-free runs are
        #: bit-identical to the fault-unaware runtime.
        self.faults: Optional[FaultInjector] = (
            FaultInjector(plan, runtime.config.seed, recorder=obs)
            if plan is not None and not plan.empty
            else None
        )
        self.fault_events: List[FaultEvent] = []
        self.retry_count = 0
        self.requeue_count = 0
        #: Fusion pass (see :mod:`repro.exec.fuse`): active only when the
        #: config asks for it, the backend actually fuses, and no fault
        #: plan is live -- injected faults need per-attempt submission
        #: interleaving that chain lookahead would reorder.
        backend = runtime.backend
        self._fuse = (
            runtime.config.fuse
            and self.faults is None
            and isinstance(backend, FusingBackend)
        )
        #: Handles pre-computed by an earlier chain, keyed by hlop_id.
        #: Consumed when the member HLOP starts; discarded (and recomputed
        #: fresh) if a steal or re-queue moved it to another device, since
        #: the prefused result is bound to the device it was submitted on.
        self._prefused: Dict[int, "tuple[str, TaskHandle]"] = {}
        if isinstance(backend, FusingBackend):
            backend.on_unit = (
                (
                    lambda size: self.obs.count(
                        "fuse_batched_submissions_total", 1
                    )
                )
                if self._fuse and self.obs.enabled
                else None
            )

    def _unit_of(self, hlop: HLOP) -> _CallUnit:
        return self._hlop_units[hlop.hlop_id]

    # ------------------------------------------------------------------- run

    def execute(self) -> BatchReport:
        host_free = 0.0
        for unit in self.units:
            host_free = self._charge_unit_prologue(unit, host_free)
            unit.ready_time = host_free
            self._enqueue_unit(unit)
        if self.faults is not None:
            for state in self.states.values():
                death = self.faults.death_time(state.device.name)
                if death is not None:
                    self.engine.schedule_at(
                        death,
                        lambda s=state: self._on_device_death(s),
                        kind=EventKind.DEVICE_DEATH,
                    )
        deadline = self.runtime.config.deadline
        if deadline is None:
            self.engine.run()
        else:
            # Cooperative cancellation: simulate up to the budget, then
            # audit completion.  Events past the deadline stay unfired, so
            # a cancelled run never charges work beyond the budget.
            self.engine.run(until=deadline)
            self._check_deadline(deadline)
        self._charge_epilogues()
        report = self._report()
        if self.check is not None:
            self._finish_validation(report)
        return report

    def _check_deadline(self, deadline: float) -> None:
        """Cancel the run if device work did not finish within the budget.

        The HLOPs a cancelled run leaves queued or running are reclaimed
        with the run itself: nothing past this point executes, and the
        caller (the serving layer) owns the cleanup.
        """
        unfinished = [
            h.hlop_id
            for unit in self.units
            for h in unit.hlops
            if h.status is not HLOPStatus.DONE
        ]
        if not unfinished:
            return
        total = sum(len(unit.hlops) for unit in self.units)
        raise DeadlineExceeded(
            f"run exceeded its deadline budget of {deadline:.6f}s simulated: "
            f"{total - len(unfinished)}/{total} HLOPs done at cancellation",
            deadline=deadline,
            completed=total - len(unfinished),
            total=total,
        )

    def _finish_validation(self, report: BatchReport) -> None:
        """Post-run invariant audit; raises on any recorded violation.

        Runs after :meth:`_report` so the audit sees exactly the artifacts
        callers get (aggregated outputs, batch makespan, batch energy) --
        the report's metrics snapshot shares the violation list by
        reference, so recorded violations appear on it too.
        """
        self.check.check_run(
            self.units,
            self.trace,
            report.makespan,
            energy=report.energy,
            energy_model=self.runtime.platform.energy_model,
            devices=self.devices,
            horizon=self.engine.now,
        )
        cache = self.runtime.backend.cache
        if cache is not None:
            try:
                cache.self_check()
            except CacheIntegrityError as error:
                self.check.record(
                    "cache-integrity",
                    "cache",
                    time=report.makespan,
                    detail=str(error),
                )
        self.check.raise_if_violated()

    def _enqueue_unit(self, unit: _CallUnit) -> None:
        for hlop in unit.hlops:
            state = self.states[unit.plan.assignment[hlop.partition.index]]
            hlop.mark_queued(unit.ready_time)
            state.queue.append(hlop)
            if self.check is not None:
                self.check.on_dispatch(hlop.hlop_id, state.device.name, unit.ready_time)
            if self.obs.enabled:
                self.obs.decision(
                    DecisionKind.DISPATCH,
                    state.device.name,
                    time=unit.ready_time,
                    hlop_id=hlop.hlop_id,
                    unit_id=unit.index,
                    why="plan assignment",
                    predicted_seconds=state.device.service_time(
                        unit.calibration, hlop.n_items, now=unit.ready_time
                    ),
                )
        for state in self.states.values():
            state.transfer_free = max(state.transfer_free, 0.0)
            self.engine.schedule_at(
                unit.ready_time,
                lambda s=state: self._try_start(s),
                kind=EventKind.DISPATCH,
            )

    def _charge_unit_prologue(self, unit: _CallUnit, start: float) -> float:
        """Serial host work before a unit's HLOPs become available."""
        t = start
        plan = unit.plan
        tag = f"u{unit.index}:" if len(self.units) > 1 else ""
        if plan.sampling_seconds > 0:
            self.trace.add_span("host", t, t + plan.sampling_seconds, f"{tag}sampling", "host")
            self.obs.phase("sampling", "host", plan.sampling_seconds)
            t += plan.sampling_seconds
        if plan.extra_host_seconds > 0:
            self.trace.add_span(
                "host", t, t + plan.extra_host_seconds, f"{tag}canary-execution", "host"
            )
            self.obs.phase("canary", "host", plan.extra_host_seconds)
            t += plan.extra_host_seconds
        if self.runtime.scheduler.charges_runtime_overhead:
            total = self.runtime.dispatch_overhead(
                unit.calibration, len(unit.hlops), unit.total_items
            )
            unit.dispatch_seconds = total
            pre = total / 2.0
            self.trace.add_span("host", t, t + pre, f"{tag}hlop-dispatch", "host")
            self.obs.phase("dispatch", "host", pre)
            t += pre
        return t

    def _charge_epilogues(self) -> None:
        """Per-unit aggregation on the (serial) host, in completion order."""
        host_free = max(
            (u.ready_time for u in self.units), default=0.0
        )
        device_finish = {
            unit.index: max(
                (h.finish_time for h in unit.hlops if h.finish_time is not None),
                default=self.engine.now,
            )
            for unit in self.units
        }
        for unit in sorted(self.units, key=lambda u: device_finish[u.index]):
            start = max(device_finish[unit.index], host_free)
            if self.runtime.scheduler.charges_runtime_overhead:
                post = unit.dispatch_seconds / 2.0
                tag = f"u{unit.index}:" if len(self.units) > 1 else ""
                self.trace.add_span("host", start, start + post, f"{tag}aggregation", "host")
                self.obs.phase("aggregation", "host", post)
                unit.finish_time = start + post
                host_free = unit.finish_time
            else:
                unit.finish_time = start
                host_free = max(host_free, start)

    # ------------------------------------------------------------- scheduling

    def _try_start(self, state: _DeviceState) -> None:
        if state.running or state.dead:
            return
        hlop = self._next_hlop(state)
        if hlop is None:
            return
        self._run_hlop(state, hlop)

    def _next_hlop(self, state: _DeviceState) -> Optional[HLOP]:
        while state.queue:
            candidate = state.queue.popleft()
            if self._device_eligible(state.device, candidate):
                return candidate
            # The device cannot legally run its own queued HLOP (e.g. an
            # over-sized partition for the TPU): bounce it to an exact device.
            fallback = self._fallback_state(state, candidate)
            candidate.mark_queued(self.engine.now)
            fallback.queue.append(candidate)
            self.engine.schedule(
                0.0, lambda s=fallback: self._try_start(s), kind=EventKind.DISPATCH
            )
        if self.runtime.scheduler.steals:
            return self._steal_for(state)
        return None

    def _fallback_state(self, state: _DeviceState, hlop: HLOP) -> _DeviceState:
        exact = [
            s
            for s in self.states.values()
            if s.device.accuracy_rank == 0 and s is not state and not s.dead
        ]
        if exact:
            return min(exact, key=lambda s: len(s.queue))
        if self.faults is not None:
            # No exact device left: degrade instead of crashing the run.
            survivors = [s for s in self.states.values() if not s.dead and s is not state]
            relaxed = self._degrade_for(hlop, survivors)
            if relaxed:
                return min(relaxed, key=lambda s: len(s.queue))
        raise RuntimeError(
            f"no device can execute an HLOP rejected by {state.device.name}"
        )

    def _device_eligible(self, device: Device, hlop: HLOP) -> bool:
        return hlop.allows_rank(device.accuracy_rank) and self._memory_ok(device, hlop)

    def _memory_ok(self, device: Device, hlop: HLOP) -> bool:
        device_memory = getattr(device, "device_memory_bytes", None)
        if device_memory is None:
            return True
        unit = self._unit_of(hlop)
        return hlop.n_items * unit.call.data.itemsize <= device_memory

    def _steal_for(self, state: _DeviceState) -> Optional[HLOP]:
        """Steal a rate-proportional batch from the most-loaded legal victim.

        Two departures from textbook steal-half, both forced by this
        platform:

        * A *batch* is taken (not one HLOP) so the thief's transfer engine
          can prefetch the rest of the batch while the first stolen HLOP
          computes; stealing singles would serialize a transfer stall in
          front of every stolen HLOP.
        * The batch size is proportional to the thief's relative
          throughput, not half the queue.  QAWS steals are one-directional
          (an approximate device may never re-steal from an exact one), so
          an exact device that over-steals strands work it is slow at --
          rate-proportional splitting is the stable division the paper's
          stealing converges to.
        """
        thief = state.device
        # Most-loaded first; ties break on stable platform device order.
        # Insertion-ordered dicts made this deterministic by accident --
        # the explicit key guarantees serial and pool backends (and any
        # future state-store change) replay identical steal decisions.
        victims = sorted(
            (s for s in self.states.values() if s is not state and s.queue and not s.dead),
            key=lambda s: (-len(s.queue), self._device_order[s.device.name]),
        )
        for victim in victims:
            eligible = [
                position
                for position in range(len(victim.queue))
                if self._device_eligible(thief, victim.queue[position])
                and thief.name not in victim.queue[position].failed_devices
                # An HLOP awaiting an exact recompute of a corrupted
                # result may not bounce back to an approximate device.
                and not (
                    victim.queue[position].exact_recompute
                    and thief.accuracy_rank > 0
                )
                and self.runtime.scheduler.can_steal(
                    thief, victim.device, victim.queue[position]
                )
            ]
            if not eligible:
                continue
            # Rate the share by the kernel the thief is most likely to take.
            calibration = self._unit_of(victim.queue[eligible[-1]]).calibration
            thief_rate = calibration.device_rate(thief.device_class)
            victim_rate = calibration.device_rate(victim.device.device_class)
            share = thief_rate / (thief_rate + victim_rate)
            if self.runtime.config.split_on_steal and len(eligible) == 1:
                # Endgame: one stealable HLOP left on this victim --
                # re-partition it rate-proportionally (section 3.4) instead
                # of moving it wholesale.
                split = self._split_steal(state, victim, eligible[0], share)
                if split is not None:
                    return split
            take = min(len(eligible), max(1, int(round(len(eligible) * share))))
            # Take from the tail: work farthest from execution on the victim.
            taken_positions = eligible[-take:]
            stolen = [victim.queue[position] for position in taken_positions]
            victim_before = len(victim.queue)
            thief_before = len(state.queue)
            for position in reversed(taken_positions):
                del victim.queue[position]
            now = self.engine.now
            for hlop in stolen:
                hlop.steals += 1
                hlop.mark_queued(now)
                self.steal_count += 1
                self._unit_of(hlop).steal_count += 1
                if self.obs.enabled:
                    self.obs.decision(
                        DecisionKind.STEAL,
                        thief.name,
                        time=now,
                        hlop_id=hlop.hlop_id,
                        unit_id=self._unit_of(hlop).index,
                        why=f"idle thief took work from {victim.device.name}",
                        predicted_seconds=thief.service_time(
                            self._unit_of(hlop).calibration, hlop.n_items, now=now
                        ),
                    )
            self.trace.add_marker(
                thief.name,
                now,
                f"steal:{len(stolen)}<-{victim.device.name}",
            )
            first, rest = stolen[0], stolen[1:]
            state.queue.extend(rest)
            if self.check is not None:
                self.check.on_steal(
                    thief.name,
                    victim.device.name,
                    taken=len(stolen),
                    victim_before=victim_before,
                    victim_after=len(victim.queue),
                    thief_before=thief_before,
                    thief_after=len(state.queue),
                    time=now,
                )
            return first
        return None

    def _split_steal(
        self,
        state: _DeviceState,
        victim: _DeviceState,
        position: int,
        share: float,
    ) -> Optional[HLOP]:
        """Re-partition a queued HLOP so the thief takes ``share`` of it.

        Returns the thief's child HLOP, leaving the victim's child in
        place, or ``None`` when the partition admits no legal split.
        """
        parent = victim.queue[position]
        unit = self._unit_of(parent)
        pieces = split_partition(
            unit.spec, parent.partition, share, self.runtime.config.partition
        )
        if pieces is None:
            return None
        thief_part, victim_part = pieces
        now = self.engine.now

        def _child(part: Partition, hlop_id: int) -> HLOP:
            child = HLOP(
                hlop_id=hlop_id,
                opcode=parent.opcode,
                partition=part,
                unit_id=parent.unit_id,
                criticality=parent.criticality,
                true_criticality=parent.true_criticality,
                max_accuracy_rank=parent.max_accuracy_rank,
            )
            child.mark_queued(now)
            child.steals = parent.steals + 1
            return child

        next_id = max(self._hlop_units) + 1
        thief_child = _child(thief_part, next_id)
        victim_child = _child(victim_part, next_id + 1)
        unit.hlops.remove(parent)
        unit.hlops.extend([thief_child, victim_child])
        del self._hlop_units[parent.hlop_id]
        self._hlop_units[thief_child.hlop_id] = unit
        self._hlop_units[victim_child.hlop_id] = unit
        del victim.queue[position]
        victim.queue.append(victim_child)
        self.steal_count += 1
        unit.steal_count += 1
        if self.check is not None:
            self.check.on_split(
                parent.hlop_id,
                [thief_child.hlop_id, victim_child.hlop_id],
                state.device.name,
                now,
            )
        if self.obs.enabled:
            self.obs.decision(
                DecisionKind.SPLIT,
                state.device.name,
                time=now,
                hlop_id=parent.hlop_id,
                unit_id=unit.index,
                why=(
                    f"endgame split of hlop {parent.hlop_id} with "
                    f"{victim.device.name} (share {share:.3f})"
                ),
            )
        self.trace.add_marker(
            state.device.name,
            now,
            f"split-steal:{parent.hlop_id}<-{victim.device.name}",
        )
        self.engine.schedule(
            0.0, lambda s=victim: self._try_start(s), kind=EventKind.DISPATCH
        )
        return thief_child

    # -------------------------------------------------------------- execution

    def _run_hlop(self, state: _DeviceState, hlop: HLOP) -> None:
        device = state.device
        unit = self._unit_of(hlop)
        now = self.engine.now
        transfer = self.runtime.platform.interconnect.transfer_time(
            unit.calibration, device.device_class, hlop.n_items
        )
        if transfer > 0 and device.name in unit.resident_devices:
            # Inter-kernel buffer reuse: the input was produced on this
            # very device by the upstream DAG step, so there is no
            # host->device movement to simulate.  Only the declared
            # resident devices skip it -- stolen/requeued HLOPs landing
            # elsewhere pay the full transfer.
            transfer = 0.0
            unit.transfers_waived += 1
            if self.obs.enabled:
                self.obs.count(
                    "dag_transfers_waived_total", 1, device=device.name
                )
        if self.runtime.scheduler.overlap_transfers:
            transfer_start = max(hlop.enqueue_time, state.transfer_free)
            transfer_done = transfer_start + transfer
            state.transfer_free = transfer_done
            compute_start = max(now, transfer_done)
        else:
            transfer_start = now
            transfer_done = now + transfer
            compute_start = transfer_done
        if transfer > 0:
            self.trace.add_span(
                device.name,
                transfer_start,
                transfer_done,
                f"xfer:{hlop.hlop_id}",
                "transfer",
            )
            self.obs.phase("transfer", device.name, transfer)
        wait = compute_start - now
        # Accumulate across attempts: a retried/migrated HLOP's earlier
        # waits are real stall time, not state to overwrite.
        hlop.transfer_wait += wait
        state.wait_seconds += wait
        unit.wait_seconds += wait
        if self.obs.enabled:
            self.obs.observe("transfer_wait_seconds", wait, device=device.name)

        predicted = device.service_time(unit.calibration, hlop.n_items, now=compute_start)
        service = predicted
        if self.faults is not None:
            # Injected straggler slowdown is invisible to the prediction,
            # which is exactly what makes the watchdog necessary.
            service *= self.faults.slowdown(device.name, compute_start)
        compute_done = compute_start + service
        state.running = True
        hlop.status = HLOPStatus.RUNNING
        hlop.attempts += 1

        inject = self.faults is not None and not hlop.exact_recompute
        if inject and self.faults.attempt_fails(device.name, hlop.hlop_id, hlop.attempts):
            # The device burns the full service time, then reports failure.
            done_event = self.engine.schedule_at(
                compute_done,
                lambda: self._on_attempt_failed(state, hlop, compute_start, compute_done),
                kind=EventKind.FAULT,
            )
        else:
            # Deferred compute: the numeric work is a pure task handed to
            # the backend; only the *handle* enters the event loop, and the
            # result joins at the simulated completion event below.  The
            # corruption verdict stays at submission (same injector call
            # order as the inline runtime); the poisoning itself needs the
            # result, so it applies at the join.
            handle = self._submit_numeric(state, hlop, unit)
            corrupt = inject and self.faults.corrupts(
                device.name, hlop.hlop_id, hlop.attempts
            )
            attempt = hlop.attempts
            done_event = self.engine.schedule_at(
                compute_done,
                lambda: self._on_complete(
                    state,
                    hlop,
                    compute_start,
                    compute_done,
                    handle,
                    corrupt=corrupt,
                    attempt=attempt,
                ),
                kind=EventKind.COMPUTE_DONE,
            )
        watchdog = None
        if self.faults is not None:
            # Progressive escalation: every timeout this HLOP has already
            # suffered doubles the next deadline, so a straggler that is
            # the only eligible device still finishes (slowly) instead of
            # timing out forever.
            escalation = 2.0 ** min(hlop.timeout_count, 30)
            deadline = compute_start + (
                self.runtime.config.watchdog_factor
                * device.watchdog_margin
                * escalation
                * predicted
            )
            watchdog = self.engine.schedule_at(
                deadline,
                lambda: self._on_watchdog(state, hlop),
                kind=EventKind.TIMEOUT,
            )
        state.current = _Running(
            hlop=hlop,
            start=compute_start,
            done_event=done_event,
            watchdog_event=watchdog,
            predicted=predicted,
        )

    def _submit_numeric(
        self, state: _DeviceState, hlop: HLOP, unit: _CallUnit
    ) -> TaskHandle:
        """Hand the HLOP's numeric execution to the compute backend.

        The task is pure: the block is a read-only-by-convention view of
        the padded input, and any stochastic component (the NPU residual)
        derives from the explicit per-HLOP seed, so results are identical
        whichever backend -- or cache -- serves them.

        With fusion active this is also where chains form: the starting
        HLOP plus the compatible run behind it in the device queue go to
        the backend as one group, and the ride-along members' handles are
        parked in :attr:`_prefused` until each member starts.  Timing is
        untouched -- every member still gets its own service time and
        completion event.
        """
        device = state.device
        if self.control is not None:
            # Checkpoint resume: a journaled result stands in for the
            # computation.  Timing is untouched (service times are model
            # predictions), so the replayed timeline is bit-identical.
            stored = self.control.stored_result(hlop.hlop_id)
            if stored is not None:
                return ResolvedHandle(stored, cached=True)
        if not self._fuse:
            return self.runtime.backend.submit(self._build_task(device, hlop, unit))
        prefused = self._prefused.pop(hlop.hlop_id, None)
        if prefused is not None:
            submitted_on, handle = prefused
            if submitted_on == device.name:
                return handle
            # A steal or re-queue moved the HLOP since its chain formed:
            # the prefused result belongs to the old device's numeric
            # path.  Drop it and compute fresh on the actual device.
        chain: List[HLOP] = [hlop]
        max_chain = self.runtime.backend.config.max_chain
        for candidate in state.queue:
            if len(chain) >= max_chain:
                break
            if candidate.hlop_id in self._prefused:
                continue
            if (
                self.control is not None
                and self.control.stored_result(candidate.hlop_id) is not None
            ):
                continue
            if not self._device_eligible(device, candidate):
                continue
            chain.append(candidate)
        tasks = [
            self._build_task(device, member, self._unit_of(member))
            for member in chain
        ]
        handles = self.runtime.backend.submit_group(tasks)
        if len(chain) > 1:
            for member, member_handle in zip(chain[1:], handles[1:]):
                member.fused = True
                self._prefused[member.hlop_id] = (device.name, member_handle)
            hlop.fused = True
            if self.obs.enabled:
                self.obs.count("fuse_chains_formed_total", 1, device=device.name)
                self.obs.count(
                    "fuse_hlops_elided_total", len(chain) - 1, device=device.name
                )
        return handles[0]

    def _build_task(
        self, device: Device, hlop: HLOP, unit: _CallUnit
    ) -> ComputeTask:
        block = hlop.partition.input_block(unit.padded_input)
        seed = (self.runtime.config.seed * 1_000_003 + hlop.hlop_id) % (2**31 - 1)
        prefix = unit.block_key_prefix
        return ComputeTask(
            device=device,
            compute=unit.spec.compute,
            block=block,
            block_fingerprint=(
                f"{prefix}:{hlop.partition.in_slices!r}" if prefix else None
            ),
            ctx=unit.host_context,
            ctx_fingerprint=unit.ctx_key,
            error_scale=unit.calibration.npu_error_scale,
            seed=seed,
            channel_axis=unit.spec.channel_axis,
            quantize_output=not unit.spec.reduces,
            tensor_compute=unit.spec.tensor_compute,
            kernel=unit.spec.name,
            hlop_id=hlop.hlop_id,
        )

    def _on_complete(
        self,
        state: _DeviceState,
        hlop: HLOP,
        start: float,
        finish: float,
        handle: TaskHandle,
        corrupt: bool = False,
        attempt: int = 0,
    ) -> None:
        device = state.device
        unit = self._unit_of(hlop)
        predicted = state.current.predicted if state.current is not None else 0.0
        self._clear_running(state)
        try:
            result = handle.result()
        except DeviceFault as fault:
            # The backend lost the worker computing this HLOP (crashed
            # process, broken pool).  Surface it as a structured fault and
            # recover through the standard retry/re-queue machinery.
            self._on_worker_crash(state, hlop, start, finish, fault)
            return
        if corrupt:
            result = self.faults.corrupt_output(
                result, device.name, hlop.hlop_id, attempt
            )
        if self.obs.enabled and self.runtime.backend.cache is not None:
            self.obs.count(
                "exec_cache_hits_total" if handle.cached else "exec_cache_misses_total",
                1,
                device=device.name,
            )
        if self.faults is not None and not np.all(np.isfinite(result)):
            if not hlop.exact_recompute:
                # Output guard: poisoned result -- discard it and recompute
                # once on an exact device before accepting anything.
                self._recover_corrupt(state, hlop, start, finish)
                return
            # The exact recompute is *also* non-finite: the kernel itself
            # produced it, so accept the result with a quality warning.
            hlop.degraded = True
            unit.degraded = True
            self._record(
                FaultKind.DEGRADED,
                device.name,
                hlop,
                detail="non-finite output accepted after exact recompute",
            )
        self.trace.add_span(device.name, start, finish, f"hlop:{hlop.hlop_id}", "compute")
        state.busy_seconds += finish - start
        state.items_done += hlop.n_items
        cls = device.device_class
        unit.busy_seconds += finish - start
        unit.busy_by_class[cls] = unit.busy_by_class.get(cls, 0.0) + (finish - start)
        unit.items_by_class[cls] = unit.items_by_class.get(cls, 0) + hlop.n_items
        state.running = False
        hlop.mark_done(device.name, start, finish, result)
        if self.control is not None:
            self.control.on_attempt(device.name, True)
            self.control.on_hlop_result(hlop.hlop_id, result)
        if self.check is not None:
            self.check.on_complete(hlop.hlop_id, device.name, start, finish, unit.index)
        if self.obs.enabled:
            self.obs.phase("compute", device.name, finish - start)
            self.obs.decision(
                DecisionKind.COMPLETE,
                device.name,
                time=finish,
                hlop_id=hlop.hlop_id,
                unit_id=unit.index,
                why="result accepted",
                predicted_seconds=predicted,
                actual_seconds=finish - start,
            )
            self.obs.count("hlops_completed_total", 1, device=device.name)
            self.obs.count("items_completed_total", hlop.n_items, device_class=cls)
            self.obs.observe("service_seconds", finish - start, device=device.name)
            if predicted > 0:
                self.obs.observe(
                    "service_prediction_ratio",
                    (finish - start) / predicted,
                    device=device.name,
                )
        self._try_start(state)

    # --------------------------------------------------- faults and recovery

    def _clear_running(self, state: _DeviceState) -> None:
        """Disarm the device's in-flight attempt (watchdog included)."""
        current = state.current
        if current is not None:
            self.engine.cancel(current.done_event)
            self.engine.cancel(current.watchdog_event)
        state.current = None

    def _record(
        self,
        kind: FaultKind,
        device_name: str,
        hlop: Optional[HLOP] = None,
        detail: str = "",
    ) -> None:
        """Append a fault event to the run log and mark it on the trace."""
        now = self.engine.now
        hlop_id = hlop.hlop_id if hlop is not None else None
        unit_id = self._unit_of(hlop).index if hlop is not None else None
        event = FaultEvent(
            time=now,
            kind=kind,
            device=device_name,
            hlop_id=hlop_id,
            unit_id=unit_id,
            detail=detail,
        )
        self.fault_events.append(event)
        self.obs.fault(event)
        if self.control is not None and kind in _BREAKER_FAILURE_KINDS:
            self.control.on_attempt(device_name, False, kind=kind.value)
        if kind is FaultKind.DEGRADED and self.obs.enabled:
            # Quality degradation is a scheduling decision as much as a
            # fault: mirror it into the decision log so chaos runs and
            # clean runs share one accounting of who relaxed what and why.
            self.obs.decision(
                DecisionKind.DEGRADE,
                device_name,
                time=now,
                hlop_id=hlop_id,
                unit_id=unit_id,
                why=detail,
            )
        label = f"fault:{kind.value}" + (f":{hlop_id}" if hlop_id is not None else "")
        self.trace.add_marker(device_name, now, label)

    def _charge_wasted(
        self, state: _DeviceState, hlop: HLOP, start: float, finish: float
    ) -> None:
        """Account a failed attempt's device time (busy, but no items done).

        The time shows up in the trace under the ``faulted`` category so
        Gantt output and the energy model both see it; the partition's
        items are *not* credited, since the work must run again.
        """
        unit = self._unit_of(hlop)
        start = min(start, finish)
        if finish > start:
            self.trace.add_span(
                state.device.name, start, finish, f"hlop:{hlop.hlop_id}", "faulted"
            )
        elapsed = finish - start
        state.busy_seconds += elapsed
        unit.busy_seconds += elapsed
        cls = state.device.device_class
        unit.busy_by_class[cls] = unit.busy_by_class.get(cls, 0.0) + elapsed
        state.running = False
        if elapsed > 0:
            self.obs.phase("faulted", state.device.name, elapsed)

    def _on_worker_crash(
        self,
        state: _DeviceState,
        hlop: HLOP,
        start: float,
        finish: float,
        fault: DeviceFault,
    ) -> None:
        """A backend worker died mid-task; retry/re-queue like any fault."""
        self._charge_wasted(state, hlop, start, finish)
        self._record(
            FaultKind.WORKER_CRASH,
            state.device.name,
            hlop,
            detail=f"attempt {hlop.attempts}: {fault}",
        )
        self._retry_or_requeue(state, hlop)
        self._try_start(state)

    def _on_attempt_failed(
        self, state: _DeviceState, hlop: HLOP, start: float, finish: float
    ) -> None:
        """A transient fault surfaced when the attempt's result was due."""
        self._clear_running(state)
        self._charge_wasted(state, hlop, start, finish)
        self._record(
            FaultKind.TRANSIENT,
            state.device.name,
            hlop,
            detail=f"attempt {hlop.attempts} failed",
        )
        self._retry_or_requeue(state, hlop)
        self._try_start(state)

    def _on_watchdog(self, state: _DeviceState, hlop: HLOP) -> None:
        """The per-attempt deadline fired while the HLOP was still running."""
        current = state.current
        if current is None or current.hlop is not hlop:
            return  # stale deadline; the attempt already resolved
        now = self.engine.now
        self.engine.cancel(current.done_event)
        state.current = None
        hlop.timeout_count += 1
        self._charge_wasted(state, hlop, current.start, now)
        self._record(
            FaultKind.TIMEOUT,
            state.device.name,
            hlop,
            detail=f"attempt {hlop.attempts} exceeded watchdog deadline",
        )
        self._retry_or_requeue(state, hlop, timed_out=True)
        self._try_start(state)

    def _on_device_death(self, state: _DeviceState) -> None:
        """Planned permanent device failure: drain and redistribute."""
        if state.dead:
            return
        now = self.engine.now
        state.dead = True
        device = state.device
        self._record(FaultKind.DEVICE_DEATH, device.name, detail="device died")
        lost: List[HLOP] = []
        current = state.current
        if current is not None:
            self._clear_running(state)
            self._charge_wasted(state, current.hlop, min(current.start, now), now)
            lost.append(current.hlop)
        state.running = False
        lost.extend(state.queue)
        state.queue.clear()
        self._degrade_unreachable()
        for hlop in lost:
            hlop.status = HLOPStatus.QUEUED
            self._requeue_elsewhere(state, hlop, reason="device death")

    def _degrade_unreachable(self) -> None:
        """Relax accuracy pins that no surviving device can satisfy.

        Called after a death: when the last rank-0 (or generally
        best-rank) device dies, HLOPs pinned below the best surviving rank
        would strand the run.  Quality degrades instead -- each affected
        HLOP is relaxed to the best surviving rank and the report carries
        the warning.
        """
        live = [s for s in self.states.values() if not s.dead]
        if not live:
            return
        best_live_rank = min(s.device.accuracy_rank for s in live)
        if best_live_rank == 0:
            return  # an exact device survives; every pin stays satisfiable
        for unit in self.units:
            for hlop in unit.hlops:
                if hlop.status is HLOPStatus.DONE:
                    continue
                rank = hlop.max_accuracy_rank
                if rank is not None and rank < best_live_rank:
                    hlop.max_accuracy_rank = best_live_rank
                    hlop.degraded = True
                    unit.degraded = True
                    self._record(
                        FaultKind.DEGRADED,
                        hlop.device_name or "platform",
                        hlop,
                        detail=f"accuracy pin relaxed {rank}->{best_live_rank}",
                    )

    def _degrade_for(
        self, hlop: HLOP, candidates: List[_DeviceState]
    ) -> List[_DeviceState]:
        """Relax ``hlop``'s accuracy pin so one of ``candidates`` can run it.

        Returns the now-eligible states (empty when nothing helps, e.g.
        every candidate fails the memory check, which no degradation can
        fix).
        """
        fits = [s for s in candidates if self._memory_ok(s.device, hlop)]
        if not fits:
            return []
        best_rank = max(hlop.max_accuracy_rank or 0, min(s.device.accuracy_rank for s in fits))
        if hlop.max_accuracy_rank is None or hlop.max_accuracy_rank >= best_rank:
            return [s for s in fits if hlop.allows_rank(s.device.accuracy_rank)]
        self._record(
            FaultKind.DEGRADED,
            hlop.device_name or "platform",
            hlop,
            detail=f"accuracy pin relaxed {hlop.max_accuracy_rank}->{best_rank}",
        )
        hlop.max_accuracy_rank = best_rank
        hlop.degraded = True
        self._unit_of(hlop).degraded = True
        return [s for s in fits if hlop.allows_rank(s.device.accuracy_rank)]

    def _retry_or_requeue(
        self, state: _DeviceState, hlop: HLOP, timed_out: bool = False
    ) -> None:
        """Recovery policy for a failed/timed-out attempt.

        Retry on the same device with capped exponential backoff while the
        retry budget lasts; then migrate to the least-loaded survivor.
        Exhausting the budget marks the device as bad *for this HLOP*, so
        re-queueing and stealing stop sending the work back there.
        """
        config = self.runtime.config
        if not state.dead and hlop.retries < config.max_retries:
            hlop.retries += 1
            unit = self._unit_of(hlop)
            unit.retry_count += 1
            self.retry_count += 1
            backoff = min(
                config.retry_backoff_cap,
                config.retry_backoff * (2.0 ** (hlop.retries - 1)),
            )
            self._record(
                FaultKind.RETRY,
                state.device.name,
                hlop,
                detail=f"retry {hlop.retries}/{config.max_retries} after {backoff:.6f}s",
            )
            if self.obs.enabled:
                self.obs.decision(
                    DecisionKind.RETRY,
                    state.device.name,
                    time=self.engine.now,
                    hlop_id=hlop.hlop_id,
                    unit_id=unit.index,
                    why=(
                        f"{'timeout' if timed_out else 'transient failure'}; "
                        f"retry {hlop.retries}/{config.max_retries} "
                        f"after {backoff:.6f}s backoff"
                    ),
                )
            hlop.mark_queued(self.engine.now + backoff)

            def _deliver(s: _DeviceState = state, h: HLOP = hlop) -> None:
                if s.dead:
                    self._requeue_elsewhere(s, h, reason="device died during backoff")
                    return
                s.queue.appendleft(h)
                self._try_start(s)

            self.engine.schedule(backoff, _deliver, kind=EventKind.RETRY)
            return
        # The device burned the whole retry budget on this HLOP -- whether
        # by hanging or by failing every attempt, stop sending it back.
        hlop.failed_devices.add(state.device.name)
        self._requeue_elsewhere(state, hlop, reason="retries exhausted")

    def _requeue_elsewhere(
        self,
        origin: _DeviceState,
        hlop: HLOP,
        reason: str = "",
        prefer_exact: bool = False,
    ) -> None:
        """Move ``hlop`` to the least-loaded eligible surviving device.

        Preference order: surviving devices that have not burned their
        retry budget on this HLOP, then the (still-live) origin, then
        burned survivors as a last resort, then quality degradation.
        Nothing left = the run cannot finish this HLOP; fail loudly.
        """
        if hlop.requeues >= self.runtime.config.max_requeues:
            raise RuntimeError(
                f"HLOP {hlop.hlop_id} exceeded max_requeues="
                f"{self.runtime.config.max_requeues}; no device can make "
                f"progress under the active fault plan ({reason or 'device fault'})"
            )
        survivors = [s for s in self.states.values() if not s.dead and s is not origin]
        if prefer_exact:
            exact = [
                s
                for s in self.states.values()
                if not s.dead
                and s.device.accuracy_rank == 0
                and self._memory_ok(s.device, hlop)
            ]
            if exact:
                survivors = exact
        eligible = [
            s
            for s in survivors
            if self._device_eligible(s.device, hlop)
            and s.device.name not in hlop.failed_devices
        ]
        if not eligible and not origin.dead and self._device_eligible(origin.device, hlop):
            eligible = [origin]  # nowhere else to go: stay local
        if not eligible:
            # Even persistently slow devices beat abandoning the work.
            eligible = [s for s in survivors if self._device_eligible(s.device, hlop)]
        if not eligible:
            eligible = self._degrade_for(
                hlop, [s for s in self.states.values() if not s.dead]
            )
        if not eligible:
            raise RuntimeError(
                f"no surviving device can execute HLOP {hlop.hlop_id} "
                f"({reason or 'device fault'})"
            )
        target = min(eligible, key=lambda s: len(s.queue))
        hlop.requeues += 1
        unit = self._unit_of(hlop)
        unit.requeue_count += 1
        self.requeue_count += 1
        now = self.engine.now
        if self.check is not None:
            self.check.on_requeue(hlop.hlop_id, target.device.name, now)
        self._record(
            FaultKind.REQUEUE,
            origin.device.name,
            hlop,
            detail=f"-> {target.device.name}" + (f" ({reason})" if reason else ""),
        )
        if self.obs.enabled:
            self.obs.decision(
                DecisionKind.REQUEUE,
                origin.device.name,
                time=now,
                hlop_id=hlop.hlop_id,
                unit_id=unit.index,
                why=f"migrated to {target.device.name}"
                + (f" ({reason})" if reason else ""),
                predicted_seconds=target.device.service_time(
                    unit.calibration, hlop.n_items, now=now
                ),
            )
        # Never before the owning call is ready: a queued-but-unready HLOP
        # keeps its future enqueue time through the migration.
        hlop.mark_queued(max(now, hlop.enqueue_time if hlop.attempts == 0 else now))
        target.queue.append(hlop)
        self.engine.schedule_at(
            max(now, hlop.enqueue_time),
            lambda s=target: self._try_start(s),
            kind=EventKind.REQUEUE,
        )

    def _recover_corrupt(
        self, state: _DeviceState, hlop: HLOP, start: float, finish: float
    ) -> None:
        """Output guard tripped: discard the poisoned result, recompute
        exactly once on an exact device (injection suppressed)."""
        self._charge_wasted(state, hlop, start, finish)
        self._record(
            FaultKind.CORRUPTION,
            state.device.name,
            hlop,
            detail="non-finite output block discarded",
        )
        hlop.exact_recompute = True
        self._requeue_elsewhere(
            state, hlop, reason="exact recompute", prefer_exact=True
        )
        self._try_start(state)

    # ------------------------------------------------------------- reporting

    def _report(self) -> BatchReport:
        energy_model = self.runtime.platform.energy_model
        batch_makespan = max(unit.finish_time for unit in self.units)
        reports = []
        for unit in self.units:
            if len(self.units) == 1:
                energy = energy_model.measure(self.trace, duration=unit.finish_time)
            else:
                energy = self._unit_energy(unit, energy_model)
            reports.append(self._unit_report(unit, energy))
        batch_energy = energy_model.measure(
            self.trace, duration=batch_makespan, recorder=self.obs
        )
        metrics = None
        if self.obs.enabled:
            self.obs.gauge("makespan_seconds", batch_makespan)
            # Per-device occupancy: busy compute time over the batch
            # makespan.  The before/after of the overlap work is read off
            # these gauges (docs/performance.md) -- per-job occupancy is
            # unchanged by overlap (virtual clocks are independent), while
            # wall-clock backend occupancy rises with jobs in flight.
            for name, state in self.states.items():
                self.obs.gauge(
                    "device_busy_seconds", state.busy_seconds, device=name
                )
                self.obs.gauge(
                    "device_transfer_wait_seconds", state.wait_seconds, device=name
                )
                if batch_makespan > 0:
                    self.obs.gauge(
                        "device_occupancy",
                        state.busy_seconds / batch_makespan,
                        device=name,
                    )
            self.obs.gauge("steal_count", self.steal_count)
            self.obs.gauge("retry_count", self.retry_count)
            self.obs.gauge("requeue_count", self.requeue_count)
            metrics = self.obs.finalize()
            for report in reports:
                report.metrics = metrics
        return BatchReport(
            reports=reports,
            makespan=batch_makespan,
            trace=self.trace,
            energy=batch_energy,
            steal_count=self.steal_count,
            fault_events=sorted(self.fault_events, key=lambda e: e.time),
            retry_count=self.retry_count,
            requeue_count=self.requeue_count,
            degraded=any(unit.degraded for unit in self.units),
            metrics=metrics,
        )

    def _unit_energy(self, unit: _CallUnit, energy_model) -> EnergyBreakdown:
        """Energy attributable to one call of a batch: its own active
        joules plus the platform idle draw over its own makespan."""
        per_device = {
            cls: busy * energy_model.active_watts.get(cls, 0.0)
            for cls, busy in unit.busy_by_class.items()
        }
        return EnergyBreakdown(
            active_joules=sum(per_device.values()),
            idle_joules=energy_model.idle_watts * unit.finish_time,
            duration=unit.finish_time,
            per_device_active=per_device,
        )

    def _unit_report(self, unit: _CallUnit, energy: EnergyBreakdown) -> ExecutionReport:
        output = self._assemble_output(unit)
        return ExecutionReport(
            kernel=unit.spec.name,
            scheduler=self.runtime.scheduler.name,
            output=output,
            makespan=unit.finish_time,
            trace=self.trace,
            energy=energy,
            hlops=unit.hlops,
            work_items=dict(unit.items_by_class),
            total_items=unit.total_items,
            sampling_seconds=unit.plan.sampling_seconds,
            extra_host_seconds=unit.plan.extra_host_seconds,
            dispatch_seconds=unit.dispatch_seconds,
            transfer_wait_seconds=unit.wait_seconds,
            device_busy_seconds=unit.busy_seconds,
            steal_count=unit.steal_count,
            transfers_waived=unit.transfers_waived,
            plan_notes=dict(unit.plan.notes),
            fault_events=[
                e for e in self.fault_events if e.unit_id in (None, unit.index)
            ],
            retry_count=unit.retry_count,
            requeue_count=unit.requeue_count,
            degraded=unit.degraded,
        )

    def _assemble_output(self, unit: _CallUnit) -> np.ndarray:
        incomplete = [h.hlop_id for h in unit.hlops if h.status is not HLOPStatus.DONE]
        if incomplete:
            raise RuntimeError(f"HLOPs never executed: {incomplete}")
        spec = unit.spec
        if spec.reduces:
            ordered = sorted(unit.hlops, key=lambda h: h.hlop_id)
            if self.check is not None:
                for hlop in ordered:
                    self.check.on_aggregate(
                        hlop.hlop_id, unit.index, "host", unit.finish_time
                    )
            partials = [h.result for h in ordered]
            return np.asarray(spec.merge(partials), dtype=np.float32)
        first = unit.hlops[0]
        out = np.empty(self._output_shape(unit, first.result), dtype=np.float32)
        for hlop in unit.hlops:
            out[(Ellipsis,) + hlop.partition.out_slices] = hlop.result
            if self.check is not None:
                self.check.on_aggregate(
                    hlop.hlop_id, unit.index, "host", unit.finish_time
                )
        return out

    def _output_shape(self, unit: _CallUnit, first_result: np.ndarray) -> tuple:
        shape = unit.call.data.shape
        if unit.spec.model is ParallelModel.VECTOR:
            leading = first_result.shape[:-1]
            return leading + (shape[-1],)
        if unit.spec.model is ParallelModel.ROWS:
            leading = first_result.shape[:-2]
            return leading + (shape[-2], first_result.shape[-1])
        leading = first_result.shape[:-2]
        return leading + (shape[-2], shape[-1])
