"""Fusion / batching pass over the deferred ComputeTask stream.

Phase profiles (BENCH_pr3.json) show that at quick sizes the per-HLOP
dispatch cost -- one backend submission, one future, one cache
transaction, one join per partition -- dwarfs the numpy compute itself.
This module treats the task stream the way HPVM treats its virtual ISA:
runs of same-kernel HLOPs bound to one device become a single backend
submission.

Three cooperating pieces:

* :class:`FusingBackend` -- wraps any :class:`~repro.exec.backends`
  backend.  ``submit_group`` takes the chain of tasks the runtime's
  queue lookahead collected (the HLOP that is starting plus the
  compatible run behind it in the device queue), partitions it into
  *units* of tasks that share a device, kernel, context, and block
  shape, and dispatches each unit as **one** submission.  Same-kernel
  HLOPs from different concurrent calls of a batch run land in the same
  queue, so cross-job batching falls out of the same grouping.
* **Batched evaluation** -- a unit whose kernel is flagged
  :attr:`~repro.kernels.registry.KernelSpec.batch_invariant` is stacked
  and evaluated as one numpy expression through
  :meth:`~repro.devices.base.Device.execute_numeric_batch`; intermediate
  member results never round-trip through per-task futures.  Unflagged
  kernels still fuse the *dispatch* (one submission, one worker handoff)
  and loop per member inside it.  Either way every member result is
  bit-identical to an unfused run -- the differential harness
  (:func:`repro.verify.differential.check_fuse_equivalence`) pins this.
* :class:`BufferArena` -- a bounded scratch-buffer pool so stacked
  evaluations reuse input staging arrays instead of allocating one per
  chain.  Output stacks are *not* pooled: their member views escape to
  the caller.

Member-level cache semantics are preserved exactly: each task's cache
key is consulted at submission (hits resolve immediately, ``cached=True``),
identical in-flight members inside one unit dedup (counted as
``inflight_joins``), and every computed member publishes under its own
key -- so fused and unfused runs interoperate on one cache.
"""

from __future__ import annotations

import threading
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exec.backends import (
    ExecBackend,
    FutureHandle,
    PoolBackend,
    ResolvedHandle,
    TaskHandle,
    _evict_broken_executor,
    _shared_executor,
)
from repro.exec.task import ComputeTask, _callable_identity


def _device_key(device: Any) -> Any:
    """Content signature of a device's numeric path (identity fallback).

    Object identity would split equal tasks into separate units just
    because they name distinct but identical device instances; the
    signature (see :meth:`repro.devices.base.Device.numeric_signature`)
    merges them, and :func:`_run_unit` may then execute the whole unit on
    any one member's device instance.
    """
    signature = getattr(device, "numeric_signature", None)
    return signature() if signature is not None else id(device)


def _fn_key(fn: Any) -> Any:
    """Content identity for a task callable (``None`` stays ``None``)."""
    if fn is None:
        return None
    return _callable_identity(fn) or id(fn)


@dataclass(frozen=True)
class FusionConfig:
    """Knobs of the fusion pass (defaults are the benchmarked sweet spot)."""

    #: How far the runtime looks ahead into a device's queue when it
    #: starts an HLOP: chain length = 1 (the starting HLOP) + lookahead.
    max_chain: int = 16
    #: Upper bound on tasks stacked into one batched evaluation.
    max_batch: int = 32
    #: Scratch buffers the arena keeps alive per (shape, dtype).
    arena_buffers_per_shape: int = 4


@dataclass
class FuseStats:
    """Process-wide counters describing the fusion pass's activity."""

    #: Chains of >= 2 tasks handed to ``submit_group``.
    chains_formed: int = 0
    #: Backend submissions avoided: members that rode along in a fused
    #: unit instead of being submitted on their own.
    hlops_elided: int = 0
    #: Dispatched units that carried >= 2 tasks.
    batched_submissions: int = 0
    #: Tasks that went through batched units (including unit leaders).
    batched_tasks: int = 0
    #: Units of one task (incompatible neighbours, cache-hit remainders).
    singleton_submissions: int = 0
    #: Members stacked into a vectorized (batch-invariant) evaluation.
    vectorized_tasks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "chains_formed": self.chains_formed,
            "hlops_elided": self.hlops_elided,
            "batched_submissions": self.batched_submissions,
            "batched_tasks": self.batched_tasks,
            "singleton_submissions": self.singleton_submissions,
            "vectorized_tasks": self.vectorized_tasks,
        }


_STATS = FuseStats()
_STATS_LOCK = threading.Lock()


def fuse_stats() -> FuseStats:
    """The process-wide fusion counters (bench reads these)."""
    return _STATS


def reset_fuse_stats() -> None:
    global _STATS
    with _STATS_LOCK:
        _STATS = FuseStats()


class BufferArena:
    """Bounded pool of scratch arrays keyed by (shape, dtype).

    ``acquire`` hands out a recycled buffer when one of the exact shape
    and dtype is free, else allocates; ``release`` returns a buffer to
    the pool (dropped once the per-shape cap is reached).  Only *input
    staging* buffers go through the arena -- callers must never release
    a buffer whose views escaped.
    """

    def __init__(self, buffers_per_shape: int = 4) -> None:
        self.buffers_per_shape = buffers_per_shape
        self._pools: Dict[Tuple[Tuple[int, ...], Any], List[np.ndarray]] = {}
        self._lock = threading.Lock()
        self.allocations = 0
        self.reuses = 0

    def acquire(self, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype))
        with self._lock:
            pool = self._pools.get(key)
            if pool:
                self.reuses += 1
                return pool.pop()
            self.allocations += 1
        return np.empty(shape, dtype=dtype)

    def release(self, buffer: Optional[np.ndarray]) -> None:
        if buffer is None:
            return
        key = (buffer.shape, buffer.dtype)
        with self._lock:
            pool = self._pools.setdefault(key, [])
            if len(pool) < self.buffers_per_shape:
                pool.append(buffer)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            pooled = sum(len(pool) for pool in self._pools.values())
        return {
            "allocations": self.allocations,
            "reuses": self.reuses,
            "pooled_buffers": pooled,
        }


_ARENA = BufferArena()


def arena() -> BufferArena:
    """The process-wide scratch arena used by batched evaluations."""
    return _ARENA


def _batch_invariant(kernel: str) -> bool:
    if not kernel:
        return False
    try:
        from repro.kernels.registry import get_kernel

        return get_kernel(kernel).batch_invariant
    except KeyError:
        return False


def _run_unit(tasks: List[ComputeTask], batch_invariant: bool) -> List[np.ndarray]:
    """Evaluate one fused unit (module-level: picklable for process pools)."""
    first = tasks[0]
    if len(tasks) == 1:
        return [first.run()]
    return first.device.execute_numeric_batch(
        first.compute,
        [task.block for task in tasks],
        first.ctx,
        error_scale=first.error_scale,
        seeds=[task.seed for task in tasks],
        channel_axis=first.channel_axis,
        quantize_output=first.quantize_output,
        tensor_compute=first.tensor_compute,
        batch_invariant=batch_invariant,
        arena=_ARENA,
    )


@dataclass
class _Member:
    """One task's slot inside a compatibility group."""

    position: int  # index into the submit_group argument list
    task: ComputeTask
    key: Optional[str]
    future: "Future[np.ndarray]" = field(default_factory=Future)


class FusingBackend(ExecBackend):
    """Wraps a backend with the chain-fusion / cross-job batching pass."""

    def __init__(self, inner: ExecBackend, config: Optional[FusionConfig] = None) -> None:
        super().__init__(inner.cache, validate=inner.validate)
        self.inner = inner
        self.config = config or FusionConfig()
        self.name = f"{inner.name}+fuse"
        #: Optional per-run hook: called with each dispatched unit's size
        #: so the owning run can mirror counters into its recorder.
        self.on_unit: Optional[Callable[[int], None]] = None

    # Lone submissions keep the inner backend's full semantics (cache,
    # in-flight dedup, broken-pool recovery).
    def submit(self, task: ComputeTask) -> TaskHandle:
        return self.inner.submit(task)

    def submit_group(self, tasks: List[ComputeTask]) -> List[TaskHandle]:
        if len(tasks) == 1:
            return [self.inner.submit(tasks[0])]
        handles: List[Optional[TaskHandle]] = [None] * len(tasks)
        groups: Dict[tuple, List[_Member]] = {}
        # Group-wide key dedup: two tasks with one cache key can sit in
        # *different* compatibility groups (the same block routed to a CPU
        # core and to the GPU shares a key but not a device signature), so
        # the in-unit dedup below cannot see them.
        # The duplicate joins the first member's eventual handle instead
        # of computing the unit twice.
        pending: Dict[str, int] = {}
        joined: List[Tuple[int, int]] = []  # (duplicate position, leader position)
        for position, task in enumerate(tasks):
            key = task.cache_key() if self.cache is not None else None
            hit = self._lookup(key)
            if hit is not None:
                handles[position] = ResolvedHandle(hit, cached=True)
                continue
            if key is not None:
                leader_position = pending.get(key)
                if leader_position is not None:
                    joined.append((position, leader_position))
                    if self.cache is not None:
                        self.cache.stats.inflight_joins += 1
                    continue
                pending[key] = position
            # Content-based, not object-identity: equal-signature tasks
            # of different calls in one batch land in one unit even when
            # their contexts are distinct objects.  The device signature
            # pins everything the numeric path reads, so any member's
            # device may execute the unit; context equality comes from the
            # content fingerprint when one exists ("" = unfingerprintable
            # falls back to identity, as do unnamed callables).
            compat = (
                _device_key(task.device),
                task.kernel,
                _fn_key(task.compute),
                task.ctx_fingerprint or id(task.ctx),
                task.error_scale,
                task.channel_axis,
                task.quantize_output,
                _fn_key(task.tensor_compute),
                np.shape(task.block),
                np.asarray(task.block).dtype,
            )
            groups.setdefault(compat, []).append(_Member(position, task, key))
        with _STATS_LOCK:
            _STATS.chains_formed += 1
        for members in groups.values():
            for start in range(0, len(members), self.config.max_batch):
                self._dispatch_unit(members[start : start + self.config.max_batch], handles)
        for position, leader_position in joined:
            handles[position] = _JoinedHandle(handles[leader_position])
        assert all(handle is not None for handle in handles)
        return handles  # type: ignore[return-value]

    # ------------------------------------------------------------------ units

    def _dispatch_unit(
        self, members: List[_Member], handles: List[Optional[TaskHandle]]
    ) -> None:
        # In-unit dedup: identical cache keys evaluate once and fan out
        # (the in-flight-join accounting the pool backends do, but within
        # the fused unit).
        leaders: List[_Member] = []
        seen: Dict[str, _Member] = {}
        for member in members:
            leader = seen.get(member.key) if member.key is not None else None
            if leader is None:
                leaders.append(member)
                if member.key is not None:
                    seen[member.key] = member
            else:
                member.future = leader.future
                if self.cache is not None:
                    self.cache.stats.inflight_joins += 1
        if len(leaders) == 1:
            only = leaders[0]
            inner_handle = self.inner.submit(only.task)
            for member in members:
                handles[member.position] = (
                    inner_handle
                    if member is only
                    else _JoinedHandle(inner_handle)
                )
            with _STATS_LOCK:
                _STATS.singleton_submissions += 1
                _STATS.hlops_elided += len(members) - 1
            return
        unit_tasks = [member.task for member in leaders]
        invariant = _batch_invariant(unit_tasks[0].kernel)
        with _STATS_LOCK:
            _STATS.batched_submissions += 1
            _STATS.batched_tasks += len(leaders)
            _STATS.hlops_elided += len(members) - 1
            if invariant:
                _STATS.vectorized_tasks += len(leaders)
        if self.on_unit is not None:
            self.on_unit(len(leaders))
        raw = self._dispatch_raw(unit_tasks, invariant)
        raw.add_done_callback(
            lambda done, group=leaders: self._scatter(done, group)
        )
        for member in members:
            describe = (
                f"{member.task.kernel or 'task'}/hlop{member.task.hlop_id} on "
                f"{member.task.device.name} (fused x{len(leaders)})"
            )
            handles[member.position] = FutureHandle(
                member.future, describe=describe, on_broken=self._on_broken
            )

    def _dispatch_raw(
        self, unit_tasks: List[ComputeTask], invariant: bool
    ) -> "Future[List[np.ndarray]]":
        if not isinstance(self.inner, PoolBackend):
            done: "Future[List[np.ndarray]]" = Future()
            try:
                done.set_result(_run_unit(unit_tasks, invariant))
            except BaseException as error:  # pragma: no cover - kernel bug
                done.set_exception(error)
            return done
        executor = _shared_executor(self.inner.kind, self.inner.jobs)
        try:
            return executor.submit(_run_unit, unit_tasks, invariant)
        except BrokenExecutor:
            _evict_broken_executor(self.inner.kind, self.inner.jobs)
            try:
                return _shared_executor(self.inner.kind, self.inner.jobs).submit(
                    _run_unit, unit_tasks, invariant
                )
            except Exception:
                pass
        except Exception:
            pass
        inline: "Future[List[np.ndarray]]" = Future()
        try:
            inline.set_result(_run_unit(unit_tasks, invariant))
        except BaseException as error:  # pragma: no cover - kernel bug
            inline.set_exception(error)
        return inline

    def _scatter(
        self, done: "Future[List[np.ndarray]]", leaders: List[_Member]
    ) -> None:
        error = done.exception()
        if error is not None:
            for member in leaders:
                member.future.set_exception(error)
            return
        results = done.result()
        for member, result in zip(leaders, results):
            member.future.set_result(self._finish(member.key, result))

    def _on_broken(self) -> None:
        if isinstance(self.inner, PoolBackend):
            _evict_broken_executor(self.inner.kind, self.inner.jobs)


class _JoinedHandle(TaskHandle):
    """A duplicate member's handle: joins another member's result."""

    def __init__(self, leader: TaskHandle) -> None:
        super().__init__()
        self._leader = leader
        self.cached = leader.cached

    def result(self) -> np.ndarray:
        return self._leader.result()
