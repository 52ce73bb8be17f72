"""Beyond the paper: accelerator-scaling study.

The paper's Figure 1 sketches five computing resources; its prototype has
three.  Because the runtime is policy- and platform-agnostic, we can ask
the natural follow-up: what does another accelerator buy?  This
experiment sweeps platform compositions --

* GPU only (the baseline platform),
* + Edge TPU (the paper's pair),
* + CPU (the paper's full prototype),
* + second Edge TPU,
* + FP16 DSP (the section 2.1 extension),

running work stealing on each and reporting speedup over the GPU
baseline.  The calibrated serial fractions (host overhead, non-parallel
transfer) bound the return on extra silicon, so the sweep shows the
Amdahl-style flattening a real deployment would hit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.schedulers.base import make_scheduler
from repro.devices.cpu import CPUDevice
from repro.devices.dsp import DSPDevice
from repro.devices.edgetpu import EdgeTPUDevice
from repro.devices.gpu import GPUDevice
from repro.devices.platform import Platform
from repro.experiments.common import ExperimentContext, ExperimentSettings, FigureResult


def _platforms() -> Dict[str, Platform]:
    return {
        "GPU": Platform(devices=[GPUDevice()]),
        "GPU+TPU": Platform(devices=[GPUDevice(), EdgeTPUDevice()]),
        "GPU+TPU+CPU": Platform(
            devices=[CPUDevice(), GPUDevice(), EdgeTPUDevice()]
        ),
        "GPU+2TPU+CPU": Platform(
            devices=[CPUDevice(), GPUDevice(), EdgeTPUDevice("tpu0"), EdgeTPUDevice("tpu1")]
        ),
        "GPU+2TPU+CPU+DSP": Platform(
            devices=[
                CPUDevice(),
                GPUDevice(),
                EdgeTPUDevice("tpu0"),
                EdgeTPUDevice("tpu1"),
                DSPDevice(),
            ]
        ),
    }


def run(
    settings: Optional[ExperimentSettings] = None,
    ctx: Optional[ExperimentContext] = None,
) -> FigureResult:
    ctx = ctx or ExperimentContext(settings)
    kernels = list(ctx.settings.kernels)
    series: Dict[str, List[float]] = {}
    for label, platform in _platforms().items():
        speedups: List[float] = []
        for kernel in kernels:
            baseline = ctx.run(kernel, "gpu-baseline")
            runtime = ctx.runtime(platform, make_scheduler("work-stealing"))
            report = runtime.execute(ctx.call(kernel))
            speedups.append(report.speedup_over(baseline))
        series[label] = speedups
    result = FigureResult(
        name="Accelerator scaling: work-stealing speedup by platform",
        kernels=kernels,
        series=series,
    )
    result.compute_gmeans()
    return result
