"""Figure 8: SSIM for the six image-producing kernels.

MAPE misbehaves on near-zero outputs (edge maps), so the paper adds SSIM
for DCT8x8, DWT, Laplacian, Mean Filter, Sobel, and SRAD.  Its shape: the
TPU-only run dips to ~0.89-0.92 on the edge detectors, work stealing
recovers to ~0.975, and every QAWS variant stays above ~0.98, close to the
oracle's 0.9957.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.experiments.common import (
    QUALITY_POLICIES,
    ExperimentContext,
    ExperimentSettings,
    FigureResult,
)
from repro.metrics.ssim import SSIMReference, ssim
from repro.workloads.suite import IMAGE_KERNELS


def run(
    settings: Optional[ExperimentSettings] = None,
    ctx: Optional[ExperimentContext] = None,
) -> FigureResult:
    if ctx is None:
        if settings is None:
            settings = ExperimentSettings()
        settings = replace(
            settings, kernels=[k for k in settings.kernels if k in IMAGE_KERNELS]
        )
        ctx = ExperimentContext(settings)
    kernels = [k for k in ctx.settings.kernels if k in IMAGE_KERNELS]
    # One shared FP64 reference serves every policy of the sweep, so the
    # reference-side Gaussian fields are precomputed once per kernel.
    # (Scoring stays one image at a time: 2D slices fit the cache, while
    # stacking the whole sweep through ssim_many trades scipy call count
    # for far worse locality on small machines.)
    references = {kernel: SSIMReference(ctx.reference(kernel)) for kernel in kernels}
    series = {}
    # Policies with low NPU traffic often produce byte-identical outputs
    # (e.g. everything routed to exact devices); score each distinct output
    # once -- hashing costs ~1ms where a rescore costs ~20ms.
    scored: dict = {}
    for policy in QUALITY_POLICIES:
        values = []
        for kernel in kernels:
            output = np.ascontiguousarray(ctx.run(kernel, policy).output)
            key = (kernel, hashlib.blake2b(output.tobytes(), digest_size=16).digest())
            score = scored.get(key)
            if score is None:
                score = scored[key] = ssim(references[kernel], output)
            values.append(score)
        series[policy] = values
    result = FigureResult(
        name="Figure 8: SSIM vs FP64 reference (image kernels)",
        kernels=kernels,
        series=series,
    )
    result.compute_gmeans()
    return result
