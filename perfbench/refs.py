"""Independent float64 references for kernels with a standard definition.

Each reference is written from the textbook definition with numpy/scipy,
not with the program's kernel code: replicate-border 3x3 stencils via
``scipy.ndimage``, the row DFT via ``numpy.fft``, the orthonormal DCT-II
of every 8x8 block via ``scipy.fft.dctn``, the 256-bin histogram over the
input's min/max range via ``numpy.histogram``, and Black-Scholes via the
normal CDF ``scipy.special.ndtr``.  A GPU-baseline output (float32
throughout) must match its reference within float32 rounding, judged
against the reference's largest magnitude.

The other three kernels have no numpy/scipy counterpart: dwt is CDF 9/7
lifting on the program's own 64x64 blocks, hotspot and srad are Rodinia's
iterated stencils.  Only the fingerprint checks against direct runtime
runs cover them.
"""

from __future__ import annotations

import numpy as np
from scipy import fft, ndimage, special

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])

#: Largest error allowed, as a share of the reference's largest magnitude:
#: a few float32 ulps (eps = 1.19e-7) accumulated over the stencil or FFT.
TOLERANCE = 2e-6


def _sobel(image: np.ndarray) -> np.ndarray:
    gx = ndimage.correlate(image, SOBEL_X, mode="nearest")
    gy = ndimage.correlate(image, SOBEL_X.T, mode="nearest")
    return np.hypot(gx, gy)


def _mean_filter(image: np.ndarray) -> np.ndarray:
    return ndimage.uniform_filter(image, size=3, mode="nearest")


def _laplacian(image: np.ndarray) -> np.ndarray:
    return ndimage.correlate(image, LAPLACIAN, mode="nearest")


def _fft(image: np.ndarray) -> np.ndarray:
    return np.abs(np.fft.fft(image, axis=-1))


def _dct8x8(image: np.ndarray) -> np.ndarray:
    rows, cols = image.shape
    blocks = image.reshape(rows // 8, 8, cols // 8, 8)
    return fft.dctn(blocks, type=2, norm="ortho", axes=(1, 3)).reshape(rows, cols)


def _histogram(values: np.ndarray) -> np.ndarray:
    counts, _edges = np.histogram(values, bins=256, range=(values.min(), values.max()))
    return counts.astype(np.float64)


def _blackscholes(params: np.ndarray) -> np.ndarray:
    spot, strike, expiry, vol = (np.maximum(params[i], 1e-4) for i in (0, 1, 2, 4))
    rate = params[3]
    root_t = np.sqrt(expiry)
    d1 = (np.log(spot / strike) + (rate + 0.5 * vol**2) * expiry) / (vol * root_t)
    d2 = d1 - vol * root_t
    discounted = strike * np.exp(-rate * expiry)
    call = spot * special.ndtr(d1) - discounted * special.ndtr(d2)
    put = discounted * special.ndtr(-d2) - spot * special.ndtr(-d1)
    return np.stack([call, put])


REFERENCES = {
    "sobel": _sobel,
    "mean_filter": _mean_filter,
    "laplacian": _laplacian,
    "fft": _fft,
    "dct8x8": _dct8x8,
    "histogram": _histogram,
    "blackscholes": _blackscholes,
}


def relative_error(kernel: str, data: np.ndarray, output: np.ndarray) -> float:
    """max |output - reference| / max |reference| for one input."""
    reference = REFERENCES[kernel](np.asarray(data, dtype=np.float64))
    if output.shape != reference.shape:
        return float("inf")
    scale = float(np.max(np.abs(reference))) or 1.0
    return float(np.max(np.abs(output.astype(np.float64) - reference))) / scale
