"""Pins for the Edge TPU surrogate's single-sort percentile calibration.

``precision._percentiles`` replaces the two ``np.percentile`` calls each
calibration used to make.  These properties hold it to ``np.percentile``
itself -- whole tensors and per-channel ``axis=`` reductions, float32 and
float64, 1..5000 elements, ties, constant and integer-valued data, +-inf,
NaN, and non-contiguous views -- and hold the three calibration sites to
their previous bodies, kept verbatim below as oracles.

The one documented exception: when a tensor holds both -0.0 and +0.0,
the sign of a zero result may differ (which tied zero lands at an index
depends on the selection algorithm), so those cases compare with ``==``;
every other case compares bitwise.
"""

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.precision import (
    _percentiles,
    affine_range,
    quantization_scale,
    round_trip_affine,
    round_trip_affine_channels,
)


# --------------------------------------------------------------- references
# The calibration bodies before the single-sort helper, kept verbatim as
# oracles (round_trip_affine's body is unchanged; it is copied so that it
# calls the reference affine_range).


def _reference_quantization_scale(
    data: np.ndarray, bits: int, clip_percentile: float = None
) -> float:
    if bits < 2:
        raise ValueError("quantization needs at least 2 bits")
    if data.size == 0:
        return 1.0
    magnitudes = np.abs(data)
    if clip_percentile is None:
        max_abs = float(magnitudes.max())
    else:
        max_abs = float(np.percentile(magnitudes, clip_percentile))
        if max_abs == 0.0:
            max_abs = float(magnitudes.max())
    if max_abs == 0.0:
        return 1.0
    qmax = 2 ** (bits - 1) - 1
    return max_abs / qmax


def _reference_affine_range(
    data: np.ndarray, clip_percentile: float = None
) -> Tuple[float, float]:
    if data.size == 0:
        return 0.0, 0.0
    if clip_percentile is None:
        return float(data.min()), float(data.max())
    low = float(np.percentile(data, 100.0 - clip_percentile))
    high = float(np.percentile(data, clip_percentile))
    if low == high:
        return float(data.min()), float(data.max())
    return low, high


def _reference_round_trip_affine(
    data: np.ndarray, bits: int = 8, clip_percentile: float = None
) -> np.ndarray:
    data = np.asarray(data, dtype=np.float32)
    low, high = _reference_affine_range(data, clip_percentile)
    span = float(high) - float(low)
    levels = 2**bits - 1
    # Degenerate or denormal spans: quantization is a no-op (the grid step
    # would underflow float32).
    if span <= 0.0 or span / levels < np.finfo(np.float32).tiny:
        return data.copy()
    scale = span / levels
    codes = np.clip(np.round((data.astype(np.float64) - low) / scale), 0, levels)
    return (codes * scale + low).astype(np.float32)


def _reference_round_trip_affine_channels(
    data: np.ndarray, bits: int = 8, clip_percentile: float = None
) -> np.ndarray:
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
        low = np.percentile(data, 100.0 - clip_percentile, axis=axes).astype(np.float64)
        high = np.percentile(data, clip_percentile, axis=axes).astype(np.float64)
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


# --------------------------------------------------------------- strategies

SPECIALS = (np.inf, -np.inf, np.nan, -0.0, 0.0)
PERCENT = st.one_of(st.sampled_from([0.5, 99.5, 99.9, 95.0]), st.floats(0.0, 100.0))
PERCENTS = st.lists(PERCENT, min_size=1, max_size=4).map(
    lambda ps: tuple(ps) + (100.0 - ps[0],)
)
CLIP = st.one_of(st.sampled_from([99.5, 99.9, 95.0]), st.floats(0.0, 100.0))


def _values(rng, family: str, count: int, dtype) -> np.ndarray:
    with np.errstate(over="ignore"):
        if family == "normal":
            values = rng.normal(rng.uniform(-500, 500), rng.uniform(0.01, 50), count)
        elif family == "integers":
            values = rng.integers(-5, 6, count)
        elif family == "constant":
            values = np.full(count, rng.normal() * 100)
        elif family == "ties":
            values = rng.choice(rng.normal(size=3), count)
        else:  # "wide": magnitudes across float32's whole range and past it
            values = rng.normal(size=count) * 10.0 ** rng.uniform(-45, 45, count)
        return values.astype(dtype)


@st.composite
def tensors(draw, channels: bool = False):
    """A float32/float64 tensor (``(C, ...)`` with ``channels``), possibly a
    non-contiguous view, with +-inf, NaN and signed zeros sprinkled in."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    if channels:
        inner = draw(
            st.one_of(
                st.tuples(st.integers(1, 3)),
                st.tuples(st.integers(1, 2000)),
                st.tuples(st.integers(1, 40), st.integers(1, 40)),
            )
        )
        shape = (draw(st.integers(1, 6)),) + inner
    else:
        size = draw(
            st.one_of(st.integers(1, 3), st.integers(4, 100), st.integers(101, 5000))
        )
        shape = (size,)
    count = int(np.prod(shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["normal", "integers", "constant", "ties", "wide"]))
    values = _values(rng, family, count, dtype)
    for special in SPECIALS:
        hits = draw(st.integers(0, 2))
        values[rng.integers(0, count, hits)] = special
    layout = draw(st.sampled_from(["contiguous", "strided", "reversed", "moved"]))
    if layout == "strided":
        base = np.zeros(shape[:-1] + (2 * shape[-1],), dtype=dtype)
        base[..., ::2] = values.reshape(shape)
        return base[..., ::2]
    if layout == "reversed":
        return values.reshape(shape)[..., ::-1]
    if layout == "moved" and len(shape) > 1:
        return np.moveaxis(values.reshape(shape[1:] + shape[:1]), -1, 0)
    return values.reshape(shape)


def _holds_mixed_zeros(data) -> bool:
    data = np.asarray(data)
    signs = np.signbit(data[data == 0])
    return bool(signs.any() and not signs.all())


def _assert_same(got, want, bitwise: bool) -> None:
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if bitwise:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.array_equal(got, want, equal_nan=True)


# -------------------------------------------------------- edges, properties


@pytest.mark.parametrize(
    "values",
    [
        [-0.0],
        [0.0],
        [-3.0, -0.0],
        [np.inf],
        [-np.inf, np.inf],
        [np.nan],
        [1.0, np.nan, 2.0],
        [2.0, 1.0],
        [1.0, 1.0, 1.0],
    ],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_percentiles_match_numpy_at_the_edges(values, dtype):
    data = np.array(values, dtype=dtype)
    percents = (0.0, 0.5, 50.0, 99.5, 100.0)
    with np.errstate(invalid="ignore"):
        got = _percentiles(data, percents)
        want = [np.percentile(data, p) for p in percents]
    for value, expected in zip(got, want):
        _assert_same(value, expected, bitwise=True)


@settings(max_examples=300, deadline=None)
@given(data=tensors(), percents=PERCENTS)
def test_percentiles_match_numpy(data, percents):
    with np.errstate(invalid="ignore"):
        got = _percentiles(data, percents)
        want = [np.percentile(data, p) for p in percents]
    bitwise = not _holds_mixed_zeros(data)
    for value, expected in zip(got, want):
        _assert_same(value, expected, bitwise)


@settings(max_examples=200, deadline=None)
@given(data=tensors(channels=True), percents=PERCENTS)
def test_channel_percentiles_match_numpy_along_the_other_axes(data, percents):
    axes = tuple(range(1, data.ndim))
    with np.errstate(invalid="ignore"):
        got = _percentiles(data, percents, channels=True)
        want = [np.percentile(data, p, axis=axes) for p in percents]
    bitwise = not _holds_mixed_zeros(data)
    for value, expected in zip(got, want):
        _assert_same(value, expected, bitwise)


@settings(max_examples=200, deadline=None)
@given(data=tensors(), clip=CLIP)
def test_tensor_calibration_matches_the_numpy_oracles(data, clip):
    with np.errstate(invalid="ignore", over="ignore"):
        narrow = np.asarray(data, dtype=np.float32)
        # |x| never holds -0.0, so the symmetric scale is always exact.
        scale = quantization_scale(data, 8, clip_percentile=clip)
        assert np.float64(scale).tobytes() == np.float64(
            _reference_quantization_scale(data, 8, clip_percentile=clip)
        ).tobytes()
        _assert_same(
            np.array(affine_range(data, clip)),
            np.array(_reference_affine_range(data, clip)),
            not _holds_mixed_zeros(data),
        )
        _assert_same(
            round_trip_affine(data, 8, clip),
            _reference_round_trip_affine(data, 8, clip),
            not _holds_mixed_zeros(narrow),
        )


@settings(max_examples=200, deadline=None)
@given(data=tensors(channels=True), clip=CLIP, bits=st.sampled_from([4, 8]))
def test_channel_round_trip_matches_its_oracle_and_the_stacked_scalar_path(
    data, clip, bits
):
    with np.errstate(invalid="ignore", over="ignore"):
        narrow = np.asarray(data, dtype=np.float32)
        got = round_trip_affine_channels(data, bits, clip)
        oracle = _reference_round_trip_affine_channels(data, bits, clip)
        stacked = np.stack([round_trip_affine(channel, bits, clip) for channel in data])
    _assert_same(got, oracle, not _holds_mixed_zeros(narrow))
    # Sorting each channel row or each channel alone places tied zeros
    # alike, so this holds with mixed-sign zeros too.
    _assert_same(got, stacked, bitwise=True)


def test_out_of_range_percentiles_still_raise():
    data = np.arange(10, dtype=np.float32)
    with pytest.raises(ValueError):
        affine_range(data, clip_percentile=150.0)
    with pytest.raises(ValueError):
        round_trip_affine_channels(data.reshape(2, 5), 8, clip_percentile=-1.0)
    with pytest.raises(ValueError):
        quantization_scale(data, 8, clip_percentile=float("nan"))
