"""Figure 12: SHMT speedup vs. problem size.

The paper sweeps total problem size from 4K to 64M elements and shows
QAWS-TS speedup *growing* with size: small problems yield too few
page-granular HLOPs to keep three devices busy, and fixed per-HLOP costs
(kernel launch, NPU invocation, dispatch) dominate their tiny compute.

The same mechanisms are in the simulation, so the curve emerges rather
than being programmed: at 4K elements there are ~4 HLOPs and SHMT roughly
ties the baseline; by 16M+ the calibrated asymptote is reached.

The default sweep stops at 16M elements to keep the harness quick; pass
``max_elements=64 * 2**20`` for the paper's full range (the numerics at
64M move gigabytes through numpy).

Each size runs in its own context, but every one of them computes over
the store of the context passed in, so the point whose size equals that
context's own input reuses the blocks its sweep already computed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from repro.experiments.common import ExperimentContext, ExperimentSettings, FigureResult

SHMT_POLICY = "QAWS-TS"
FULL_RANGE = (4 * 2**10, 16 * 2**10, 64 * 2**10, 256 * 2**10, 2**20, 4 * 2**20, 16 * 2**20, 64 * 2**20)


def run(
    settings: Optional[ExperimentSettings] = None,
    max_elements: Optional[int] = None,
    ctx: Optional[ExperimentContext] = None,
) -> FigureResult:
    ctx = ctx or ExperimentContext(settings)
    settings = ctx.settings
    if max_elements is None:
        # Thread any reduced --quick size through: a settings-level size
        # caps the sweep, so the quick suite does not wander off to 16M
        # elements (which alone used to dominate its wall-clock).
        max_elements = 16 * 2**20
        if settings.size is not None:
            max_elements = min(max_elements, max(int(settings.size), FULL_RANGE[0]))
    sizes = [s for s in FULL_RANGE if s <= max_elements]
    kernels = list(settings.kernels)
    series = {}
    for size in sizes:
        label = _size_label(size)
        values: List[float] = []
        sized = ExperimentContext(replace(settings, size=size), store=ctx.store)
        for kernel in kernels:
            values.append(sized.speedup(kernel, SHMT_POLICY))
        series[label] = values
    result = FigureResult(
        name="Figure 12: QAWS-TS speedup vs problem size",
        kernels=kernels,
        series=series,
    )
    result.compute_gmeans()
    return result


def _size_label(n: int) -> str:
    if n >= 2**20:
        return f"{n // 2**20}M"
    return f"{n // 2**10}K"
