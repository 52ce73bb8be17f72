"""Pluggable compute backends: where a :class:`ComputeTask` actually runs.

The runtime's discrete-event loop is single-threaded and stays that way --
a backend only changes *where the numpy work happens*, never what the
simulated timeline looks like:

* ``serial`` -- execute at submission, on the calling thread.  This is the
  default and is bit-identical (same call order, same arrays) to the
  pre-backend runtime.
* ``pool`` -- a shared :class:`~concurrent.futures.ThreadPoolExecutor`.
  The heavy kernels are numpy whole-array ops that release the GIL, so
  HLOPs submitted by the event loop overlap with each other and with the
  loop's own orchestration (the MLIR latency-hiding observation: overlap
  compute with orchestration).
* ``process`` -- a :class:`~concurrent.futures.ProcessPoolExecutor` for
  large inputs where true core parallelism beats the serialization cost.
  Tasks that cannot be pickled transparently fall back to inline
  execution.

All backends consult the optional :class:`~repro.exec.cache.ResultCache`
first and publish results into it; the pool backends additionally dedup
identical in-flight tasks so the same block is never computed twice
concurrently.

Workers never touch simulation state: results re-enter the runtime only at
the simulated completion event (``TaskHandle.result()``), so worker
completion *order* cannot affect scheduling decisions or outputs.
"""

from __future__ import annotations

import abc
import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import DeviceFault, UnknownName
from repro.exec.cache import ResultCache
from repro.exec.task import ComputeTask


def default_jobs() -> int:
    """Worker count when the caller does not pin one."""
    return max(2, os.cpu_count() or 1)


class TaskHandle:
    """The join point for one submitted task.

    ``result()`` blocks until the task's output is available and always
    returns the same array object for repeated calls.  ``cached`` records
    whether the value was served from the result cache without computing.
    """

    def __init__(self) -> None:
        self.cached = False

    def result(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class ResolvedHandle(TaskHandle):
    """A handle whose value existed at submission (serial path, cache hit)."""

    def __init__(self, value: np.ndarray, cached: bool = False) -> None:
        super().__init__()
        self._value = value
        self.cached = cached

    def result(self) -> np.ndarray:
        return self._value


class FutureHandle(TaskHandle):
    """A handle backed by a concurrent future (pool backends).

    A worker that dies mid-task (OOM-killed, segfault) surfaces from
    ``concurrent.futures`` as :class:`BrokenExecutor` -- a pool-level
    error that says nothing about *what* was running.  ``result()``
    translates it into a structured :class:`~repro.errors.DeviceFault`
    naming the task, so the runtime can treat it like any other device
    failure (retry/requeue, feed circuit breakers) instead of crashing
    the whole batch.  ``on_broken`` lets the owning backend discard the
    broken shared pool so later submissions get a fresh one.
    """

    def __init__(
        self,
        future: "Future[np.ndarray]",
        describe: str = "task",
        on_broken: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__()
        self._future = future
        self._describe = describe
        self._on_broken = on_broken
        self._value: Optional[np.ndarray] = None

    def result(self) -> np.ndarray:
        if self._value is None:
            try:
                self._value = self._future.result()
            except BrokenExecutor as error:
                if self._on_broken is not None:
                    self._on_broken()
                raise DeviceFault(
                    f"worker crashed while running {self._describe}: "
                    f"{type(error).__name__}: {error}",
                    task=self._describe,
                ) from error
        return self._value


class ExecBackend(abc.ABC):
    """Executes pure compute tasks, optionally through a result cache.

    With ``validate=True`` every cache interaction runs in audited mode:
    stores record a content fingerprint and hits are re-hashed against it
    (:class:`~repro.exec.cache.CacheIntegrityError` on mismatch).  Off by
    default -- the unvalidated path never computes a hash.
    """

    name: str = "base"

    def __init__(
        self, cache: Optional[ResultCache] = None, validate: bool = False
    ) -> None:
        self.cache = cache
        self.validate = validate

    @abc.abstractmethod
    def submit(self, task: ComputeTask) -> TaskHandle:
        """Start (or resolve) ``task``; never blocks on the computation."""

    def submit_group(self, tasks: List[ComputeTask]) -> List[TaskHandle]:
        """Submit several tasks at once, returning one handle per task.

        The base implementation submits them independently; the fusion
        layer (:class:`repro.exec.fuse.FusingBackend`) overrides this to
        evaluate compatible members in one batched backend submission.
        Handle semantics are identical to ``submit``: cache hits resolve
        immediately with ``cached=True`` and results join lazily.
        """
        return [self.submit(task) for task in tasks]

    def _lookup(self, key: Optional[str]) -> Optional[np.ndarray]:
        """Consult the cache (verifying the hit's fingerprint if validating)."""
        if self.cache is None:
            return None
        return self.cache.get(key, verify=self.validate)

    def _finish(self, key: Optional[str], result: np.ndarray) -> np.ndarray:
        """Publish a computed result into the cache (freezing it)."""
        if self.cache is None:
            return result
        return self.cache.put(key, result, fingerprint=self.validate)


class SerialBackend(ExecBackend):
    """Inline execution at submission time -- the historical behaviour."""

    name = "serial"

    def submit(self, task: ComputeTask) -> TaskHandle:
        key = task.cache_key() if self.cache is not None else None
        hit = self._lookup(key)
        if hit is not None:
            return ResolvedHandle(hit, cached=True)
        return ResolvedHandle(self._finish(key, task.run()))


def _run_task(task: ComputeTask) -> np.ndarray:
    """Module-level task trampoline (picklable for process pools)."""
    return task.run()


#: Shared executors keyed by (kind, workers): thread/process pools are
#: expensive to build, and sharing one per configuration lets consecutive
#: runs (an experiment sweep) reuse warm workers.
_EXECUTORS: Dict[tuple, object] = {}
_EXECUTORS_LOCK = threading.Lock()


def _shared_executor(kind: str, workers: int):
    with _EXECUTORS_LOCK:
        executor = _EXECUTORS.get((kind, workers))
        if executor is None:
            if kind == "thread":
                executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-exec"
                )
            else:
                executor = ProcessPoolExecutor(max_workers=workers)
            _EXECUTORS[(kind, workers)] = executor
        return executor


def _evict_broken_executor(kind: str, workers: int) -> None:
    """Drop the shared executor for ``(kind, workers)`` if it is broken.

    Only evicts an executor that actually reports itself broken: by the
    time a failed future is joined another caller may already have
    replaced the pool, and a healthy replacement must not be torn down.
    """
    with _EXECUTORS_LOCK:
        executor = _EXECUTORS.get((kind, workers))
        if executor is None or not getattr(executor, "_broken", False):
            return
        del _EXECUTORS[(kind, workers)]
    try:
        executor.shutdown(wait=False)
    except Exception:  # pragma: no cover - best-effort cleanup
        pass


def _inline_future(task: ComputeTask) -> "Future[np.ndarray]":
    """Run ``task`` on the calling thread, packaged as a finished future."""
    inner: "Future[np.ndarray]" = Future()
    try:
        inner.set_result(task.run())
    except BaseException as error:  # pragma: no cover - kernel bug
        inner.set_exception(error)
    return inner


class PoolBackend(ExecBackend):
    """Worker-pool execution with cache consult and in-flight dedup."""

    name = "pool"
    kind = "thread"

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        validate: bool = False,
    ) -> None:
        super().__init__(cache, validate=validate)
        self.jobs = jobs or default_jobs()
        self._inflight: Dict[str, "Future[np.ndarray]"] = {}
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------ submit

    def submit(self, task: ComputeTask) -> TaskHandle:
        key = task.cache_key() if self.cache is not None else None
        hit = self._lookup(key)
        if hit is not None:
            return ResolvedHandle(hit, cached=True)
        if key is None:
            return self._handle(self._dispatch(task, None), task)
        # Reservation pattern: the critical section only gets-or-inserts a
        # placeholder future, so dispatch -- which can run the whole kernel
        # inline on this thread when the pool is unusable -- never happens
        # under the lock.  Before this, one slow inline task serialized
        # every concurrent submit behind ``_inflight_lock``.
        placeholder: Optional["Future[np.ndarray]"] = None
        with self._inflight_lock:
            pending = self._inflight.get(key)
            if pending is None:
                placeholder = Future()
                self._inflight[key] = placeholder
        if placeholder is None:
            if self.cache is not None:
                self.cache.stats.inflight_joins += 1
            return self._handle(pending, task)
        placeholder.add_done_callback(lambda _f, k=key: self._forget(k))
        dispatched = self._dispatch(task, key)

        def _settle(done: "Future[np.ndarray]") -> None:
            error = done.exception()
            if error is not None:
                placeholder.set_exception(error)
            else:
                placeholder.set_result(done.result())

        dispatched.add_done_callback(_settle)
        return self._handle(placeholder, task)

    def _handle(self, future: "Future[np.ndarray]", task: ComputeTask) -> FutureHandle:
        describe = f"{task.kernel or 'task'}/hlop{task.hlop_id} on {task.device.name}"
        return FutureHandle(
            future,
            describe=describe,
            on_broken=lambda: _evict_broken_executor(self.kind, self.jobs),
        )

    def _forget(self, key: str) -> None:
        with self._inflight_lock:
            self._inflight.pop(key, None)

    def _dispatch(self, task: ComputeTask, key: Optional[str]) -> "Future[np.ndarray]":
        executor = _shared_executor(self.kind, self.jobs)
        try:
            # Submit the module-level trampoline, not a bound method: a
            # process pool must not try to pickle the backend (whose
            # in-flight lock is unpicklable) along with the task.
            inner = executor.submit(_run_task, task)
        except BrokenExecutor:
            # The shared pool already died (an earlier worker crash).
            # Evict it and retry once on a fresh pool before giving up
            # and running inline.
            _evict_broken_executor(self.kind, self.jobs)
            try:
                inner = _shared_executor(self.kind, self.jobs).submit(_run_task, task)
            except Exception:
                inner = _inline_future(task)
        except Exception:
            # Unpicklable task / saturated pool teardown: run inline.
            inner = _inline_future(task)
        if self.cache is None:
            return inner
        outer: "Future[np.ndarray]" = Future()

        def _publish(done: "Future[np.ndarray]", k=key) -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
            else:
                outer.set_result(self._finish(k, done.result()))

        inner.add_done_callback(_publish)
        return outer


class ProcessBackend(PoolBackend):
    """Process-pool variant for very large inputs (pays pickling costs)."""

    name = "process"
    kind = "process"


BackendFactory = Callable[[Optional[int], Optional[ResultCache], bool], ExecBackend]

_BACKENDS: Dict[str, BackendFactory] = {
    "serial": lambda jobs, cache, validate: SerialBackend(cache, validate=validate),
    "pool": lambda jobs, cache, validate: PoolBackend(jobs, cache, validate=validate),
    "process": lambda jobs, cache, validate: ProcessBackend(
        jobs, cache, validate=validate
    ),
}


def backend_names() -> List[str]:
    return sorted(_BACKENDS)


def make_backend(
    name: str,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    validate: bool = False,
    fuse: bool = False,
) -> ExecBackend:
    """Instantiate a backend by name (``serial``, ``pool``, ``process``).

    ``fuse=True`` wraps the backend in the fusion/batching pass
    (:class:`repro.exec.fuse.FusingBackend`): grouped submissions coalesce
    into batched evaluations; results stay bit-identical.
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise UnknownName(
            f"unknown backend {name!r}; known: {backend_names()}"
        ) from None
    backend = factory(jobs, cache, validate)
    if fuse:
        from repro.exec.fuse import FusingBackend

        backend = FusingBackend(backend)
    return backend
