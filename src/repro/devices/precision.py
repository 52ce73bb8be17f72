"""Numeric precision models for heterogeneous devices.

The paper's central quality problem is that heterogeneous devices compute in
different precisions: the Maxwell GPU in FP32, NVIDIA tensor cores in
FP16/BF16, and the Edge TPU in INT8 (section 2.1).  SHMT's runtime must
quantize data on dispatch and restore it on completion (section 3.3.2), and
the QAWS scheduler reasons about how much error each device would introduce
on a given data partition.

This module implements those numeric paths from scratch:

* :class:`Precision` descriptors for FP64/FP32/FP16/INT8/INT16.
* Symmetric linear quantization (the scheme used by TFLite post-training
  quantization that the paper's Edge TPU models go through, section 4.2).
* ``apply``/``round_trip`` helpers that push an array through a device's
  numeric representation, which is exactly what happens when the SHMT
  runtime casts a partition for a device.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


class PrecisionKind(enum.Enum):
    FLOAT = "float"
    INTEGER = "integer"


@dataclass(frozen=True)
class Precision:
    """A numeric representation a device computes in."""

    name: str
    kind: PrecisionKind
    bits: int
    dtype: np.dtype

    @property
    def is_exact_for_fp32(self) -> bool:
        """True if round-tripping an FP32 array through this precision is lossless."""
        return self.kind is PrecisionKind.FLOAT and self.bits >= 32

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


FP64 = Precision("fp64", PrecisionKind.FLOAT, 64, np.dtype(np.float64))
FP32 = Precision("fp32", PrecisionKind.FLOAT, 32, np.dtype(np.float32))
FP16 = Precision("fp16", PrecisionKind.FLOAT, 16, np.dtype(np.float16))
INT16 = Precision("int16", PrecisionKind.INTEGER, 16, np.dtype(np.int16))
INT8 = Precision("int8", PrecisionKind.INTEGER, 8, np.dtype(np.int8))

_BY_NAME = {p.name: p for p in (FP64, FP32, FP16, INT16, INT8)}


def precision_by_name(name: str) -> Precision:
    """Look up a precision descriptor; raises ``KeyError`` for unknown names."""
    return _BY_NAME[name]


def _percentiles(
    data: np.ndarray, percents: Tuple[float, ...], channels: bool = False
) -> List[np.ndarray]:
    """``[numpy.percentile(data, p) for p in percents]`` from one sort.

    With ``channels`` each entry holds one percentile per channel along
    axis 0, as ``numpy.percentile(data, p, axis=tuple(range(1, ndim)))``
    returns it.  ``data`` must be non-empty and each ``p`` a Python float
    in [0, 100].  Two ``numpy.percentile`` calls partition the tensor
    twice; one sort serves every percentile, and on the small blocks the
    Edge TPU surrogate calibrates it also beats a multi-kth
    ``np.partition`` (docs/performance.md, "Edge TPU calibration").

    The arithmetic is NumPy 2's ``linear`` method for a Python-float
    ``p``: a float64 virtual index ``(n - 1) * (p / 100)`` (``p >= 0``
    keeps it off the lower end; at the upper end it clamps to the last
    element, whose gamma NumPy measures from index -1), a Python-float
    gamma, so the lerp runs in the input dtype (NEP 50), the lerp's
    ``t >= 0.5`` branch, and NaN taken from the sorted tail.  The result
    is bit-identical to ``numpy.percentile`` with one exception: when
    the input holds both -0.0 and +0.0, the sign of a zero result may
    differ, because which tied zero lands at an index depends on the
    selection algorithm.  The values compare equal either way.
    """
    if channels:
        ordered = np.sort(data.reshape(data.shape[0], -1), axis=1)
    else:
        ordered = np.sort(data, axis=None)[np.newaxis]
    count = ordered.shape[1]
    tail = ordered[:, -1]
    nan_tail = np.isnan(tail)
    results = []
    for percent in percents:
        if not 0.0 <= percent <= 100.0:
            raise ValueError("Percentiles must be in the range [0, 100]")
        index = (count - 1) * (percent / 100)
        if index >= count - 1:
            below = above = -1
        else:
            below = math.floor(index)
            above = below + 1
        gamma = index - below
        low = ordered[:, below]
        high = ordered[:, above]
        diff = high - low
        if gamma >= 0.5:
            value = high - diff * (1 - gamma)
        else:
            value = low + diff * gamma
        if nan_tail.any():
            value = np.where(nan_tail, tail, value)
        results.append(value if channels else value[0])
    return results


def quantization_scale(
    data: np.ndarray, bits: int, clip_percentile: float = None
) -> float:
    """Symmetric per-tensor scale: the calibrated |value| maps to the top level.

    Matches TFLite's symmetric signed quantization.  ``clip_percentile``
    reproduces TFLite post-training *calibration*: the scale comes from
    that percentile of |value| instead of the absolute max, so a handful
    of outliers don't coarsen the whole tensor's grid (they saturate
    instead).  A zero-range input gets scale 1.0 so quantization is a
    no-op rather than a divide-by-zero.
    """
    if bits < 2:
        raise ValueError("quantization needs at least 2 bits")
    if data.size == 0:
        return 1.0
    magnitudes = np.abs(data)
    if clip_percentile is None:
        max_abs = float(magnitudes.max())
    else:
        max_abs = float(_percentiles(magnitudes, (clip_percentile,))[0])
        if max_abs == 0.0:
            max_abs = float(magnitudes.max())
    if max_abs == 0.0:
        return 1.0
    qmax = 2 ** (bits - 1) - 1
    return max_abs / qmax


def quantize(
    data: np.ndarray, bits: int, clip_percentile: float = None
) -> Tuple[np.ndarray, float]:
    """Quantize to signed ``bits``-bit integers; returns (codes, scale).

    Values beyond the calibrated range saturate, as on real hardware.
    """
    scale = quantization_scale(data, bits, clip_percentile)
    qmax = 2 ** (bits - 1) - 1
    codes = np.clip(np.round(data / scale), -qmax - 1, qmax)
    dtype = np.int8 if bits <= 8 else (np.int16 if bits <= 16 else np.int32)
    return codes.astype(dtype), scale


def dequantize(codes: np.ndarray, scale: float) -> np.ndarray:
    """Map integer codes back to float32 values."""
    return codes.astype(np.float32) * np.float32(scale)


def affine_range(
    data: np.ndarray, clip_percentile: float = None
) -> Tuple[float, float]:
    """Calibrated (low, high) range for affine quantization.

    With ``clip_percentile`` = p, the range covers the [100-p, p] percentile
    span (TFLite histogram calibration); values outside saturate.
    """
    if data.size == 0:
        return 0.0, 0.0
    if clip_percentile is None:
        return float(data.min()), float(data.max())
    low, high = _percentiles(data, (100.0 - clip_percentile, clip_percentile))
    low, high = float(low), float(high)
    if low == high:
        return float(data.min()), float(data.max())
    return low, high


def round_trip_affine(
    data: np.ndarray, bits: int = 8, clip_percentile: float = None
) -> np.ndarray:
    """Affine (zero-point) quantization round trip, TFLite's default scheme.

    The quantization grid covers [low, high] of the calibrated range rather
    than the symmetric [-max|x|, +max|x|], so offset data (temperatures
    around 323 K, pixel windows around 180) keeps full resolution.
    """
    data = np.asarray(data, dtype=np.float32)
    low, high = affine_range(data, clip_percentile)
    span = float(high) - float(low)
    levels = 2**bits - 1
    # Degenerate or denormal spans: quantization is a no-op (the grid step
    # would underflow float32).
    if span <= 0.0 or span / levels < np.finfo(np.float32).tiny:
        return data.copy()
    scale = span / levels
    codes = np.clip(np.round((data.astype(np.float64) - low) / scale), 0, levels)
    return (codes * scale + low).astype(np.float32)


def round_trip_affine_channels(
    data: np.ndarray, bits: int = 8, clip_percentile: float = None
) -> np.ndarray:
    """Per-channel :func:`round_trip_affine`, channels along axis 0.

    One whole-array pass replaces the channel loop + ``np.stack`` a caller
    would otherwise write; the output is bit-identical to
    ``np.stack([round_trip_affine(c, bits, clip_percentile) for c in data])``
    for any memory layout (the per-channel ranges are widened to float64
    exactly as the scalar path's ``float()`` casts do).
    """
    data = np.asarray(data, dtype=np.float32)
    if data.ndim < 2 or data.shape[0] == 0 or data[0].size == 0:
        # Scalar channels or empty tensors: every channel has a degenerate
        # range, so the per-channel round trip is a no-op copy.
        return data.copy()
    axes = tuple(range(1, data.ndim))
    if clip_percentile is None:
        low = data.min(axis=axes).astype(np.float64)
        high = data.max(axis=axes).astype(np.float64)
    else:
        low, high = _percentiles(
            data, (100.0 - clip_percentile, clip_percentile), channels=True
        )
        low = low.astype(np.float64)
        high = high.astype(np.float64)
        eq = low == high
        if np.any(eq):
            low = np.where(eq, data.min(axis=axes).astype(np.float64), low)
            high = np.where(eq, data.max(axis=axes).astype(np.float64), high)
    span = high - low
    levels = 2**bits - 1
    degenerate = (span <= 0.0) | (span / levels < np.finfo(np.float32).tiny)
    scale = np.where(degenerate, 1.0, span / levels)
    bshape = (-1,) + (1,) * (data.ndim - 1)
    low_b = low.reshape(bshape)
    scale_b = scale.reshape(bshape)
    codes = np.clip(np.round((data.astype(np.float64) - low_b) / scale_b), 0, levels)
    out = (codes * scale_b + low_b).astype(np.float32)
    if np.any(degenerate):
        out = np.where(degenerate.reshape(bshape), data, out)
    return out


def round_trip(
    data: np.ndarray, precision: Precision, clip_percentile: float = None
) -> np.ndarray:
    """Push ``data`` through ``precision`` and return it as float32.

    This is the numeric distortion a partition suffers when the runtime
    casts it for a device (section 3.3.2): lossless for FP32+, half-precision
    rounding for FP16, symmetric quantization (with optional calibrated
    clipping) for integer devices.
    """
    data = np.asarray(data, dtype=np.float32)
    if precision.kind is PrecisionKind.FLOAT:
        if precision.bits >= 32:
            return data
        return data.astype(precision.dtype).astype(np.float32)
    codes, scale = quantize(data, precision.bits, clip_percentile)
    return dequantize(codes, scale)


def quantization_error_bound(data: np.ndarray, precision: Precision) -> float:
    """Worst-case absolute round-trip error for ``data`` under ``precision``.

    For integer precisions this is half a quantization step; the QAWS
    device-limit policy compares sampled partition statistics against bounds
    derived from this quantity.
    """
    if precision.kind is PrecisionKind.FLOAT:
        if precision.bits >= 32:
            return 0.0
        # Half-float: ~2^-11 relative precision over the data's magnitude.
        max_abs = float(np.max(np.abs(data))) if data.size else 0.0
        return max_abs * 2.0 ** -11
    return 0.5 * quantization_scale(np.asarray(data), precision.bits)
