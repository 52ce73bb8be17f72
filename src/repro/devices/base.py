"""Device abstraction for the simulated heterogeneous platform.

A :class:`Device` models one processing unit the SHMT runtime can schedule
HLOPs onto.  It has two independent responsibilities, mirroring how the
reproduction replaces real hardware:

* **Numerics** -- :meth:`Device.execute_numeric` actually computes a
  kernel's output for a partition, through the device's precision path
  (exact FP32 for CPU/GPU, the INT8 NPU surrogate for the Edge TPU).
  Nothing is mocked: quality results are real numerical error.
* **Timing** -- :meth:`Device.service_time` converts a partition size into
  simulated seconds using the calibrated performance model, plus the
  device's fixed per-HLOP launch latency (kernel-launch cost on the GPU,
  inference-invocation cost on the Edge TPU).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional

import numpy as np

from repro.devices.perf_model import KernelCalibration
from repro.devices.precision import FP32, Precision

ComputeFn = Callable[[np.ndarray, Any], np.ndarray]


class Device(abc.ABC):
    """One schedulable processing unit."""

    #: "cpu", "gpu" or "tpu"; selects rates in the performance model.
    device_class: str = "cpu"
    #: 0 = most accurate.  QAWS steal constraints compare these ranks.
    accuracy_rank: int = 0
    #: Fixed simulated seconds charged per HLOP before compute starts.
    launch_latency: float = 0.0
    #: Numeric representation this device computes in.
    precision: Precision = FP32
    #: Per-device scaling of the fault-tolerant runtime's watchdog
    #: deadline (deadline = watchdog_factor * watchdog_margin * predicted
    #: service time).  Devices with jittery invocation costs can raise
    #: this to avoid false timeouts; 1.0 trusts the performance model.
    watchdog_margin: float = 1.0

    def __init__(self, name: str) -> None:
        self.name = name
        #: Optional time-varying slowdown: a function of simulated time
        #: returning the device's current speed multiplier (1.0 = nominal,
        #: 0.5 = thermally throttled to half speed).  Models the "system
        #: dynamics" of paper section 2.3 that motivate runtime adaptation.
        self.throttle_profile: Optional[Callable[[float], float]] = None

    # ------------------------------------------------------------------ timing

    def speed_multiplier(self, now: float) -> float:
        """Current speed multiplier under the throttle profile (if any)."""
        if self.throttle_profile is None:
            return 1.0
        multiplier = float(self.throttle_profile(now))
        if multiplier <= 0:
            raise ValueError(
                f"{self.name}: throttle profile returned non-positive speed"
            )
        return multiplier

    def service_time(
        self, calibration: KernelCalibration, n_elements: int, now: float = 0.0
    ) -> float:
        """Simulated seconds to execute an ``n_elements`` HLOP starting at ``now``."""
        base = self.launch_latency + calibration.compute_time(self.device_class, n_elements)
        return base / self.speed_multiplier(now)

    # ---------------------------------------------------------------- numerics

    def numeric_signature(self) -> tuple:
        """Everything the numeric path reads off this device instance.

        Two devices with equal signatures produce bit-identical results
        for the same task, whichever instance runs it -- the fusion pass
        (:mod:`repro.exec.fuse`) relies on this to batch compatible tasks
        that name distinct but identical device instances.  A subclass
        whose ``execute_numeric`` reads more
        instance state than the precision path must extend the tuple.
        """
        return (type(self).__qualname__, self.device_class, str(self.precision))

    @abc.abstractmethod
    def execute_numeric(
        self,
        compute: ComputeFn,
        block: np.ndarray,
        ctx: Any,
        *,
        error_scale: float = 0.0,
        seed: Optional[int] = None,
        channel_axis: Optional[int] = None,
        quantize_output: bool = True,
        tensor_compute: Optional[ComputeFn] = None,
    ) -> np.ndarray:
        """Run ``compute`` on ``block`` through this device's numeric path.

        Args:
            compute: the kernel's partition function ``(block, ctx) -> out``.
            block: the (possibly halo-padded) input partition, float32.
            ctx: kernel-specific context (filter params, global stats, ...).
            error_scale: the kernel's NPU approximation knob; ignored by
                exact devices.
            seed: per-HLOP seed so approximate devices are deterministic.
            channel_axis: per-channel quantization axis (approximate
                devices only; see :func:`repro.kernels.npu.npu_execute`).
            quantize_output: whether approximate devices re-quantize the
                output tensor (False for reduction partials, which live in
                INT32 accumulators).
            tensor_compute: optional matrix-unit formulation of the kernel
                (section 2.2.1); devices operating in a matmul mode prefer
                it over the NPU surrogate.
        """

    def execute_numeric_batch(
        self,
        compute: ComputeFn,
        blocks: "list[np.ndarray]",
        ctx: Any,
        *,
        error_scale: float = 0.0,
        seeds: Optional["list[Optional[int]]"] = None,
        channel_axis: Optional[int] = None,
        quantize_output: bool = True,
        tensor_compute: Optional[ComputeFn] = None,
        batch_invariant: bool = False,
        arena: Any = None,
    ) -> "list[np.ndarray]":
        """Run one kernel over several same-kernel blocks in one call.

        The contract is strict bit-identity: the returned list must equal
        ``[self.execute_numeric(compute, b, ...) for b in blocks]`` bitwise,
        whatever internal vectorization the device uses.  The base
        implementation is that loop; subclasses may vectorize when
        ``batch_invariant`` marks the kernel safe to evaluate stacked
        (see :mod:`repro.exec.fuse`).  ``arena`` is an optional scratch
        buffer pool with ``acquire(shape, dtype)``/``release(buf)``.
        """
        del batch_invariant, arena
        if seeds is None:
            seeds = [None] * len(blocks)
        return [
            self.execute_numeric(
                compute,
                block,
                ctx,
                error_scale=error_scale,
                seed=seed,
                channel_axis=channel_axis,
                quantize_output=quantize_output,
                tensor_compute=tensor_compute,
            )
            for block, seed in zip(blocks, seeds)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} ({self.precision})>"


class ExactDevice(Device):
    """Base for devices that compute at (or above) FP32 with no approximation."""

    def execute_numeric(
        self,
        compute: ComputeFn,
        block: np.ndarray,
        ctx: Any,
        *,
        error_scale: float = 0.0,
        seed: Optional[int] = None,
        channel_axis: Optional[int] = None,
        quantize_output: bool = True,
        tensor_compute: Optional[ComputeFn] = None,
    ) -> np.ndarray:
        # Exact devices introduce no modelled error.
        del error_scale, seed, channel_axis, quantize_output, tensor_compute
        block32 = np.asarray(block, dtype=self.precision.dtype)
        return np.asarray(compute(block32, ctx), dtype=np.float32)

    def execute_numeric_batch(
        self,
        compute: ComputeFn,
        blocks: "list[np.ndarray]",
        ctx: Any,
        *,
        error_scale: float = 0.0,
        seeds: Optional["list[Optional[int]]"] = None,
        channel_axis: Optional[int] = None,
        quantize_output: bool = True,
        tensor_compute: Optional[ComputeFn] = None,
        batch_invariant: bool = False,
        arena: Any = None,
    ) -> "list[np.ndarray]":
        # The exact path is a dtype cast, the kernel, and a float32 cast --
        # all element-wise per member -- so a batch-invariant kernel can
        # evaluate the whole stack in one numpy expression.  Each returned
        # member is a view of the stacked output (zero-copy scatter-back).
        if (
            not batch_invariant
            or len(blocks) < 2
            or any(block.shape != blocks[0].shape for block in blocks[1:])
        ):
            return super().execute_numeric_batch(
                compute,
                blocks,
                ctx,
                error_scale=error_scale,
                seeds=seeds,
                channel_axis=channel_axis,
                quantize_output=quantize_output,
                tensor_compute=tensor_compute,
            )
        dtype = self.precision.dtype
        shape = (len(blocks),) + blocks[0].shape
        scratch = arena.acquire(shape, dtype) if arena is not None else None
        stack = np.stack(
            [np.asarray(block, dtype=dtype) for block in blocks], out=scratch
        )
        out = np.asarray(compute(stack, ctx), dtype=np.float32)
        if scratch is not None and not np.shares_memory(out, scratch):
            # Safe to recycle only when the kernel allocated a fresh output
            # (they all do today); an identity-style kernel would otherwise
            # hand back views of a buffer about to be reused.
            arena.release(scratch)
        return [out[index] for index in range(len(blocks))]
