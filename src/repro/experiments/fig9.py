"""Figure 9: QAWS quality and speedup vs. sampling rate.

The paper sweeps QAWS-TS's sampling rate over powers of two and finds
(a) speedup is essentially flat (sampling is cheap at every tested rate)
and (b) MAPE decreases monotonically until the rate reaches the sweet spot
(2^-15 on their 2048^2-per-partition inputs), then plateaus -- denser
sampling buys nothing.

Our partitions are 64x smaller than the paper's (256^2 vs 2048^2; see
``core.sampling.DEFAULT_SAMPLING_RATE``), so the equivalent sweep covers
2^-15 .. 2^-8: the same samples-per-partition range, hence the same curve
shape on a shifted axis.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedulers.qaws import QAWS
from repro.experiments.common import (
    ExperimentContext,
    ExperimentSettings,
    FigureResult,
    platform_for,
)
from repro.metrics.mape import MAPEReference, mape_percent

DEFAULT_EXPONENTS = (-15, -14, -13, -12, -11, -10, -9, -8)


def run(
    settings: Optional[ExperimentSettings] = None,
    exponents: Sequence[int] = DEFAULT_EXPONENTS,
    ctx: Optional[ExperimentContext] = None,
) -> Dict[str, FigureResult]:
    """Returns {"speedup": ..., "mape": ...}, rows keyed by sampling rate."""
    ctx = ctx or ExperimentContext(settings)
    kernels = list(ctx.settings.kernels)
    speedup_series: Dict[str, List[float]] = {}
    mape_series: Dict[str, List[float]] = {}
    # The reference is fixed across the sampling-rate sweep; precompute
    # its MAPE fields once per kernel.
    references = {kernel: MAPEReference(ctx.reference(kernel)) for kernel in kernels}
    # Adjacent sampling rates often yield identical schedules and hence
    # byte-identical outputs; score each distinct output once.
    scored: Dict[Tuple[str, bytes], float] = {}
    for exponent in exponents:
        scheduler = QAWS(policy="topk", sampler="striding", sampling_rate=2.0**exponent)
        label = f"2^{exponent}"
        speedups: List[float] = []
        mapes: List[float] = []
        for kernel in kernels:
            runtime = ctx.runtime(platform_for("QAWS-TS"), scheduler)
            report = runtime.execute(ctx.call(kernel))
            baseline = ctx.run(kernel, "gpu-baseline")
            speedups.append(report.speedup_over(baseline))
            output = np.ascontiguousarray(report.output)
            key = (kernel, hashlib.blake2b(output.tobytes(), digest_size=16).digest())
            score = scored.get(key)
            if score is None:
                score = scored[key] = mape_percent(references[kernel], output)
            mapes.append(score)
        speedup_series[label] = speedups
        mape_series[label] = mapes
    speedup_result = FigureResult(
        name="Figure 9(b): QAWS-TS speedup vs sampling rate",
        kernels=kernels,
        series=speedup_series,
    )
    mape_result = FigureResult(
        name="Figure 9(a): QAWS-TS MAPE (%) vs sampling rate",
        kernels=kernels,
        series=mape_series,
    )
    speedup_result.compute_gmeans()
    mape_result.compute_gmeans()
    return {"speedup": speedup_result, "mape": mape_result}
