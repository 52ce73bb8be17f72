"""NPU execution surrogate for the Edge TPU.

The paper runs kernels on the Edge TPU as *NPU models*: per-kernel MLPs
trained to approximate the kernel, then post-training-quantized to INT8 for
the Edge TPU compiler (section 4.2).  We cannot run pycoral without Edge TPU
hardware, so this module implements the closest synthetic equivalent with
the same error structure:

1. **Input quantization** -- the partition is round-tripped through
   symmetric INT8, exactly what TFLite does to the model input tensor.
   This is the mechanically important part: its error grows with the
   partition's value range, which is why QAWS's range/stddev criticality
   sampling works at all.
2. **Exact kernel math on the quantized input** -- stands in for the NPU
   model's learned function.
3. **Approximation residual** -- a deterministic, seeded perturbation with
   standard deviation ``error_scale * std(output)``, standing in for the
   MLP's approximation error.  ``error_scale`` is the per-kernel
   calibration knob (:attr:`KernelCalibration.npu_error_scale`), set so the
   Edge-TPU-only MAPE lands near the paper's Figure 7 column.
4. **Output quantization** -- the result is round-tripped through INT8
   again, as the Edge TPU emits quantized output tensors.

Every step is pure and seeded, so runs are exactly reproducible.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.devices.precision import round_trip_affine, round_trip_affine_channels

ComputeFn = Callable[[np.ndarray, Any], np.ndarray]


def npu_execute(
    compute: ComputeFn,
    block: np.ndarray,
    ctx: Any,
    *,
    error_scale: float = 0.0,
    seed: Optional[int] = None,
    channel_axis: Optional[int] = None,
    quantize_output: bool = True,
) -> np.ndarray:
    """Run ``compute`` through the INT8 NPU surrogate path.

    Args:
        channel_axis: if set, quantize each slice along this axis with its
            own scale -- TFLite's per-channel quantization.  Essential for
            kernels whose input stacks channels of very different magnitude
            (Black-Scholes parameter rows, Hotspot's temperature vs power).
        quantize_output: reduction kernels keep their outputs in the
            accelerator's INT32 accumulators (sums/counts are exact in
            integer arithmetic), so their partials skip the output
            re-quantization that tensor-shaped outputs go through.
    """
    block = np.asarray(block, dtype=np.float32)
    quantized_in = _round_trip_channels(block, channel_axis)
    out = np.asarray(compute(quantized_in, ctx), dtype=np.float32)
    # The output only has a channel structure if it kept the extra leading
    # axis (e.g. Black-Scholes (5,N) -> (2,N) keeps channels; Hotspot
    # (2,H,W) -> (H,W) does not).
    out_channel_axis = channel_axis if out.ndim == block.ndim else None
    if error_scale > 0.0 and out.size:
        out = out + _approximation_residual(out, error_scale, seed, out_channel_axis)
    if quantize_output:
        out = _round_trip_channels(out, out_channel_axis)
    return out


def npu_execute_batch(
    compute: ComputeFn,
    blocks: "list[np.ndarray]",
    ctx: Any,
    *,
    error_scale: float = 0.0,
    seeds: Optional["list[Optional[int]]"] = None,
    quantize_output: bool = True,
) -> "list[np.ndarray]":
    """Vectorized :func:`npu_execute` over same-shape blocks (no channel axis).

    The stacked members are treated as quantization *channels*:
    :func:`round_trip_affine_channels` is pinned bit-identical to round-
    tripping each member alone, so every member's input quantization --
    and, symmetrically, its output re-quantization -- matches the
    single-block path exactly.  ``compute`` must be batch-invariant
    (:attr:`repro.kernels.registry.KernelSpec.batch_invariant`); the
    per-member approximation residual still runs member-by-member because
    each member draws from its own seeded generator.

    The result list is bitwise equal to
    ``[npu_execute(compute, b, ctx, ..., seed=s) for b, s in zip(blocks, seeds)]``.
    """
    if seeds is None:
        seeds = [None] * len(blocks)
    if len(seeds) != len(blocks):
        raise ValueError("npu_execute_batch needs one seed per block")
    stack = np.stack([np.asarray(block, dtype=np.float32) for block in blocks])
    quantized_in = round_trip_affine_channels(
        stack, bits=8, clip_percentile=CALIBRATION_PERCENTILE
    )
    out = np.asarray(compute(quantized_in, ctx), dtype=np.float32)
    members = []
    for index, seed in enumerate(seeds):
        member = out[index]
        if error_scale > 0.0 and member.size:
            member = member + _approximation_residual(member, error_scale, seed, None)
        members.append(member)
    if quantize_output:
        requantized = round_trip_affine_channels(
            np.stack(members), bits=8, clip_percentile=CALIBRATION_PERCENTILE
        )
        members = [requantized[index] for index in range(len(members))]
    return members


def npu_execute_batch_per_member(
    compute: ComputeFn,
    blocks: "list[np.ndarray]",
    ctx: Any,
    *,
    error_scale: float = 0.0,
    seeds: Optional["list[Optional[int]]"] = None,
    quantize_output: bool = True,
) -> "list[np.ndarray]":
    """Channelled quantization around per-member kernel math.

    For kernels that are *not* batch-invariant the model function must run
    one member at a time, but both quantization round trips are per-member
    operations regardless, so the stack still goes through
    :func:`round_trip_affine_channels` in one pass each way -- the
    calibration sort and the float64 grid arithmetic run once per unit
    instead of once per member.  Bit-identical to the
    per-member :func:`npu_execute` loop for ``channel_axis=None`` blocks
    (the channelled round trip is pinned equal to the per-member one, and
    the kernel sees byte-identical quantized inputs).
    """
    if seeds is None:
        seeds = [None] * len(blocks)
    if len(seeds) != len(blocks):
        raise ValueError("npu_execute_batch_per_member needs one seed per block")
    stack = np.stack([np.asarray(block, dtype=np.float32) for block in blocks])
    quantized_in = round_trip_affine_channels(
        stack, bits=8, clip_percentile=CALIBRATION_PERCENTILE
    )
    members = []
    for index, seed in enumerate(seeds):
        out = np.asarray(compute(quantized_in[index], ctx), dtype=np.float32)
        if error_scale > 0.0 and out.size:
            out = out + _approximation_residual(out, error_scale, seed, None)
        members.append(out)
    if quantize_output:
        if members and all(
            member.shape == members[0].shape and member.size for member in members
        ):
            requantized = round_trip_affine_channels(
                np.stack(members), bits=8, clip_percentile=CALIBRATION_PERCENTILE
            )
            members = [requantized[index] for index in range(len(members))]
        else:
            members = [_round_trip_channels(member, None) for member in members]
    return members


#: TFLite-style calibration percentile: the quantization grid is sized for
#: the bulk of the data; outliers saturate.  This is what links partition
#: criticality (wide value distributions) to large, *localized* NPU error.
CALIBRATION_PERCENTILE = 99.5


def _round_trip_channels(data: np.ndarray, channel_axis: Optional[int]) -> np.ndarray:
    """8-bit affine round trip with calibrated clipping, per-(channel|tensor).

    Affine (zero-point) quantization is TFLite's scheme: the grid covers the
    calibrated [low, high] span, so offset data keeps full resolution.
    """
    if channel_axis is None or data.ndim < 2:
        return round_trip_affine(data, bits=8, clip_percentile=CALIBRATION_PERCENTILE)
    moved = np.moveaxis(data, channel_axis, 0)
    quantized = round_trip_affine_channels(
        moved, bits=8, clip_percentile=CALIBRATION_PERCENTILE
    )
    return np.moveaxis(quantized, 0, channel_axis)


def _approximation_residual(
    out: np.ndarray,
    error_scale: float,
    seed: Optional[int],
    channel_axis: Optional[int],
) -> np.ndarray:
    """Deterministic surrogate for the NPU model's approximation error.

    Residual magnitude tracks each (channel's) output spread, the same way
    a trained model's error scales with its target's dynamic range.
    """
    rng = np.random.default_rng(0 if seed is None else seed)
    noise = rng.standard_normal(out.shape).astype(np.float32)
    if channel_axis is not None and out.ndim >= 2:
        moved = np.moveaxis(out, channel_axis, 0)
        spreads = _channel_spreads(moved)
        shape = [1] * out.ndim
        shape[channel_axis] = out.shape[channel_axis]
        return error_scale * spreads.reshape(shape) * noise
    return (error_scale * _spread(out)) * noise


def _spread(values: np.ndarray) -> float:
    spread = float(np.std(values))
    if spread == 0.0:
        spread = float(np.max(np.abs(values))) if values.size else 0.0
    return spread or 1.0


def _channel_spreads(moved: np.ndarray) -> np.ndarray:
    """Vectorized per-channel :func:`_spread` (channels along axis 0)."""
    axes = tuple(range(1, moved.ndim))
    if moved.shape[0] == 0 or moved[0].size == 0:
        return np.ones(moved.shape[0], dtype=np.float32)
    spreads = np.std(moved, axis=axes)
    zero = spreads == 0.0
    if np.any(zero):
        spreads = np.where(zero, np.max(np.abs(moved), axis=axes), spreads)
        spreads = np.where(spreads == 0.0, 1.0, spreads)
    return spreads.astype(np.float32)
