"""Edge TPU device (Coral M.2 accelerator analogue, INT8 NPU path)."""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.devices.base import ComputeFn, Device
from repro.devices.memory import TPU_DEVICE_MEMORY_BYTES
from repro.devices.precision import INT8
from repro.kernels.npu import (
    npu_execute,
    npu_execute_batch,
    npu_execute_batch_per_member,
)


class EdgeTPUDevice(Device):
    """The approximate accelerator.

    Executes HLOPs through the INT8 NPU surrogate (:mod:`repro.kernels.npu`),
    which reproduces the error structure of the paper's quantized NPU
    models: error grows with the partition's value range, so routing
    wide-distribution ("critical") partitions away from this device -- what
    QAWS does -- recovers most of the lost quality.

    The per-HLOP ``launch_latency`` models the inference-invocation cost of
    dispatching a TFLite model, which is why very small problem sizes see
    little SHMT benefit (paper Figure 12).
    """

    device_class = "tpu"
    accuracy_rank = 2
    launch_latency = 25e-6
    precision = INT8
    device_memory_bytes = TPU_DEVICE_MEMORY_BYTES

    #: Valid operating modes (paper section 4.2): "npu" approximates any
    #: kernel with a quantized model; "matmul" uses the matrix unit
    #: directly for kernels that have a tensor formulation (section 2.2.1)
    #: and falls back to the NPU path otherwise.
    MODES = ("npu", "matmul")

    def __init__(self, name: str = "tpu0", mode: str = "npu") -> None:
        super().__init__(name)
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode

    def numeric_signature(self) -> tuple:
        # The numeric path branches on the operating mode (matrix unit vs
        # NPU emulation), so same-mode instances are interchangeable but
        # cross-mode ones are not.
        return super().numeric_signature() + (self.mode,)

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
        if self.mode == "matmul" and tensor_compute is not None:
            # Matrix-unit path: the tensor formulation quantizes its own
            # operands and accumulates exactly in INT32, so there is no
            # model-approximation residual and no output re-quantization.
            return np.asarray(tensor_compute(block, ctx), dtype=np.float32)
        return npu_execute(
            compute,
            block,
            ctx,
            error_scale=error_scale,
            seed=seed,
            channel_axis=channel_axis,
            quantize_output=quantize_output,
        )

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
        # One vectorized NPU pass when the quantization semantics line up
        # exactly with the per-block path: members become quantization
        # channels (round_trip_affine_channels is pinned bit-identical to
        # the per-member round trip), so this is legal only without a
        # kernel channel axis.  Non-invariant kernels keep per-member
        # model math but still share the channelled quantization round
        # trips (one calibration sort and one float64 grid pass per unit,
        # not per member).
        # The matmul mode and channelled kernels fall back to the
        # per-member loop.
        del arena
        stackable = (
            channel_axis is None
            and len(blocks) >= 2
            and not (self.mode == "matmul" and tensor_compute is not None)
            and blocks[0].size > 0
            and all(block.shape == blocks[0].shape for block in blocks[1:])
        )
        if not stackable:
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
        if not batch_invariant:
            return npu_execute_batch_per_member(
                compute,
                blocks,
                ctx,
                error_scale=error_scale,
                seeds=seeds,
                quantize_output=quantize_output,
            )
        return npu_execute_batch(
            compute,
            blocks,
            ctx,
            error_scale=error_scale,
            seeds=seeds,
            quantize_output=quantize_output,
        )
