"""Differential / metamorphic checks over the SHMT runtime.

Invariant checking (:mod:`repro.verify.invariants`) audits one run's
internal accounting; the checks here compare *across* runs, catching the
bugs single-run assertions cannot see:

* :func:`check_policy_equivalence` -- on an all-exact platform, every
  scheduling policy is just a different order of the same float32 block
  computations, so each kernel's output must be **bit-identical** across
  policies.  Any divergence means a policy influenced numerics (an
  aggregation gap, a device leaking state, a cache serving the wrong
  block).
* :func:`check_shuffle_invariance` -- the quantized (EdgeTPU) path derives
  its stochastic residual from a per-HLOP seed that is a pure function of
  ``(run seed, hlop_id)``, never of dispatch order.  Executing the same
  HLOPs in shuffled order must therefore reassemble to the bit-identical
  output.  Divergence means order leaked into the numerics (shared RNG
  state, in-place block mutation).
* :func:`check_fuse_equivalence` -- the fusion/batching pass
  (:mod:`repro.exec.fuse`) changes *how* HLOP numerics are dispatched
  (chained submissions, stacked evaluation), never *what* they compute.
  Every kernel under every policy -- exact policies and the
  quantized-path QAWS policy on the mixed platform -- must produce
  bit-identical outputs and bit-identical makespans with fusion on and
  off.  Divergence means a batched evaluation broke the
  batch-invariance contract or fusion leaked into the DES timeline.
* :func:`check_dag_equivalence` -- every step of a DAG run executes as
  its own single-call run, so the DAG schedule (serial vs ready-set) and
  the DAG policy (step / partition / mixed) must never change a step's
  bits -- per policy on the mixed platform, and across policies on the
  all-exact platform.

All return a list of human-readable failure strings (empty = pass), so
``scripts/verify_check.py`` can aggregate them across a sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import PartitionConfig, plan_partitions
from repro.core.runtime import RuntimeConfig, SHMTRuntime
from repro.core.schedulers.base import make_scheduler
from repro.devices.cpu import CPUDevice
from repro.devices.edgetpu import EdgeTPUDevice
from repro.devices.gpu import GPUDevice
from repro.devices.platform import Platform, gpu_only_platform
from repro.exec.task import ComputeTask
from repro.kernels.common import replicate_pad
from repro.kernels.registry import ParallelModel
from repro.workloads.generator import generate

#: Policies whose plans only ever touch exact (rank-0) devices on an
#: all-exact platform; the equivalence sweep runs each of these.
EXACT_POLICIES = ("gpu-baseline", "even-distribution", "work-stealing", "oracle")

#: The kernel x size grid the quick differential sweep covers: one kernel
#: per parallel model / aggregation style.
DEFAULT_KERNELS: Tuple[Tuple[str, object], ...] = (
    ("sobel", (128, 128)),
    ("fft", (128, 128)),
    ("histogram", 128 * 128),
    ("blackscholes", 128 * 128),
    ("dct8x8", (128, 128)),
)


def exact_platform() -> Platform:
    """An all-exact platform with enough devices to genuinely distribute.

    Two GPUs so the gpu-class policies (even-distribution) split work, plus
    a CPU so work stealing crosses device classes -- every device is exact
    float32, so outputs must not depend on who computed what.
    """
    return Platform(devices=[CPUDevice("cpu0"), GPUDevice("gpu0"), GPUDevice("gpu1")])


def _run(
    policy: str,
    platform: Platform,
    kernel: str,
    size,
    seed: int,
    config: RuntimeConfig,
) -> np.ndarray:
    runtime = SHMTRuntime(platform, make_scheduler(policy), config)
    return runtime.execute(generate(kernel, size=size, seed=seed)).output


def check_policy_equivalence(
    kernels: Sequence[Tuple[str, object]] = DEFAULT_KERNELS,
    seed: int = 7,
    partition: Optional[PartitionConfig] = None,
    validate: bool = True,
) -> List[str]:
    """Exact-device policies must agree bitwise per kernel.

    The reference is ``gpu-baseline`` on the single-GPU platform (the
    paper's baseline); every other exact policy runs on
    :func:`exact_platform` and must reproduce the same bits.
    """
    partition = partition or PartitionConfig(target_partitions=16)
    config = RuntimeConfig(partition=partition, seed=seed, validate=validate)
    failures: List[str] = []
    for kernel, size in kernels:
        reference = _run("gpu-baseline", gpu_only_platform(), kernel, size, seed, config)
        for policy in EXACT_POLICIES:
            platform = (
                gpu_only_platform() if policy == "gpu-baseline" else exact_platform()
            )
            output = _run(policy, platform, kernel, size, seed, config)
            if output.shape != reference.shape:
                failures.append(
                    f"{kernel}/{policy}: output shape {output.shape} != "
                    f"reference {reference.shape}"
                )
            elif not np.array_equal(output, reference):
                diverging = int(np.count_nonzero(output != reference))
                failures.append(
                    f"{kernel}/{policy}: {diverging} of {output.size} output "
                    "elements differ from the gpu-baseline reference "
                    "(exact policies must be bit-identical)"
                )
    return failures


def check_fuse_equivalence(
    kernels: Sequence[Tuple[str, object]] = DEFAULT_KERNELS,
    seed: int = 7,
    partition: Optional[PartitionConfig] = None,
    backends: Sequence[str] = ("serial", "pool"),
) -> List[str]:
    """Fused runs must be bit-identical to unfused runs, timelines included.

    Covers every exact policy on :func:`exact_platform` plus ``QAWS-TS``
    on the mixed Jetson platform, so the EdgeTPU's batched quantization
    path (:func:`repro.kernels.npu.npu_execute_batch`) is exercised, not
    just the exact stacked path.
    """
    from repro.devices.platform import jetson_nano_platform

    partition = partition or PartitionConfig(target_partitions=16)
    base = RuntimeConfig(partition=partition, seed=seed)
    sweeps: List[Tuple[str, Platform]] = [
        (policy, gpu_only_platform() if policy == "gpu-baseline" else exact_platform())
        for policy in EXACT_POLICIES
    ]
    sweeps.append(("QAWS-TS", jetson_nano_platform()))
    failures: List[str] = []
    for kernel, size in kernels:
        for policy, platform in sweeps:
            call = generate(kernel, size=size, seed=seed)
            plain = SHMTRuntime(platform, make_scheduler(policy), base).execute(call)
            for backend in backends:
                fused_config = RuntimeConfig(
                    partition=partition,
                    seed=seed,
                    backend=backend,
                    jobs=2,
                    fuse=True,
                )
                fused = SHMTRuntime(
                    platform, make_scheduler(policy), fused_config
                ).execute(generate(kernel, size=size, seed=seed))
                where = f"{kernel}/{policy}/{backend}+fuse"
                if not np.array_equal(fused.output, plain.output):
                    diverging = int(
                        np.count_nonzero(fused.output != plain.output)
                    )
                    failures.append(
                        f"{where}: {diverging} of {fused.output.size} output "
                        "elements differ from the unfused run (fusion must "
                        "be bit-identical)"
                    )
                if fused.makespan != plain.makespan:
                    failures.append(
                        f"{where}: makespan {fused.makespan} != unfused "
                        f"{plain.makespan} (fusion leaked into the timeline)"
                    )
    return failures


def check_dag_equivalence(
    side: int = 96,
    seed: int = 7,
    partition: Optional[PartitionConfig] = None,
    fault_plan=None,
    validate: bool = True,
) -> List[str]:
    """DAG schedules and policies must never touch step numerics.

    Every step of a DAG run executes as its own single-call run with a
    placement decided from graph structure alone, so for each policy the
    ``serial`` and ``ready`` schedules must produce bit-identical
    per-step outputs -- on the mixed Jetson platform included, where any
    order leakage would surface through the EdgeTPU residual.  On the
    all-exact platform the *policies* must agree bitwise too (placement
    only permutes identical float32 block computations, same argument as
    :func:`check_policy_equivalence`).  With a chaos ``fault_plan`` the
    per-policy schedule equivalence must survive mid-DAG device death:
    the dying step recovers by requeueing identically in both schedules.
    """
    from repro.core.graph import DAG_POLICIES
    from repro.devices.platform import jetson_nano_platform
    from repro.workloads.dag import image_pipeline_graph, solver_graph

    partition = partition or PartitionConfig(target_partitions=16)
    config = RuntimeConfig(
        partition=partition, seed=seed, validate=validate, fault_plan=fault_plan
    )
    failures: List[str] = []
    workloads = (
        ("image-pipeline", lambda: image_pipeline_graph(side=side, seed=seed)),
        ("solver", lambda: solver_graph(side=side, steps=3, seed=seed)),
    )
    tags = "+faults" if fault_plan is not None else ""
    for workload, build in workloads:
        exact_outputs: Dict[str, np.ndarray] = {}
        exact_origin: Dict[str, str] = {}
        for policy in DAG_POLICIES:
            per_schedule = {}
            for schedule in ("serial", "ready"):
                runtime = SHMTRuntime(
                    jetson_nano_platform(), make_scheduler("QAWS-TS"), config
                )
                per_schedule[schedule] = build().run(
                    runtime, schedule=schedule, policy=policy
                )
            serial_run = per_schedule["serial"]
            ready_run = per_schedule["ready"]
            for name in serial_run.order:
                a = serial_run.reports[name].output
                b = ready_run.reports[name].output
                if not np.array_equal(a, b):
                    diverging = int(np.count_nonzero(a != b))
                    failures.append(
                        f"{workload}/{policy}{tags}: step {name!r}: {diverging} "
                        f"of {a.size} elements differ between serial and "
                        "ready-set execution (schedule leaked into numerics)"
                    )
            if fault_plan is not None:
                continue
            # Cross-policy comparison needs exact devices: DAG policies
            # place steps on different device subsets, which on the
            # mixed platform legitimately shifts the approximate path.
            for schedule in ("serial", "ready"):
                runtime = SHMTRuntime(
                    exact_platform(), make_scheduler("work-stealing"), config
                )
                result = build().run(runtime, schedule=schedule, policy=policy)
                for name in result.order:
                    output = result.reports[name].output
                    origin = f"{policy}/{schedule}"
                    if name not in exact_outputs:
                        exact_outputs[name] = output
                        exact_origin[name] = origin
                    elif not np.array_equal(output, exact_outputs[name]):
                        diverging = int(
                            np.count_nonzero(output != exact_outputs[name])
                        )
                        failures.append(
                            f"{workload}/{origin}: step {name!r}: {diverging} "
                            f"of {output.size} elements differ from "
                            f"{exact_origin[name]} on the all-exact platform "
                            "(policies must be bit-identical there)"
                        )
    return failures


def _hlop_seed(run_seed: int, hlop_id: int) -> int:
    """The runtime's per-HLOP seed formula (order-independent by design)."""
    return (run_seed * 1_000_003 + hlop_id) % (2**31 - 1)


def check_shuffle_invariance(
    kernels: Sequence[Tuple[str, object]] = DEFAULT_KERNELS,
    seed: int = 7,
    shuffle_seed: int = 1234,
    partition: Optional[PartitionConfig] = None,
) -> List[str]:
    """Quantized outputs must not depend on HLOP execution order.

    Runs every partition of each kernel through the EdgeTPU's approximate
    path directly (as :class:`~repro.exec.task.ComputeTask`, exactly like
    the runtime does), once in natural order and once in a seeded shuffle,
    and compares the reassembled per-partition results bitwise.
    """
    partition = partition or PartitionConfig(target_partitions=16)
    failures: List[str] = []
    for kernel, size in kernels:
        call = generate(kernel, size=size, seed=seed)
        spec = call.spec
        partitions = plan_partitions(spec, call.data.shape, partition)
        device = EdgeTPUDevice("tpu0")
        ctx = call.resolve_context()
        padded = (
            replicate_pad(call.data, spec.halo)
            if spec.model is ParallelModel.TILE and spec.halo
            else call.data
        )

        def _execute(order: Sequence[int]) -> Dict[int, np.ndarray]:
            results: Dict[int, np.ndarray] = {}
            for position in order:
                part = partitions[position]
                task = ComputeTask(
                    device=device,
                    compute=spec.compute,
                    block=part.input_block(padded),
                    ctx=ctx,
                    error_scale=spec.calibration.npu_error_scale,
                    seed=_hlop_seed(seed, part.index),
                    channel_axis=spec.channel_axis,
                    quantize_output=not spec.reduces,
                    tensor_compute=spec.tensor_compute,
                    kernel=spec.name,
                    hlop_id=part.index,
                )
                results[part.index] = task.run()
            return results

        natural = _execute(range(len(partitions)))
        shuffled_order = np.random.default_rng(shuffle_seed).permutation(
            len(partitions)
        )
        shuffled = _execute(int(i) for i in shuffled_order)
        for index in range(len(partitions)):
            if not np.array_equal(natural[index], shuffled[index]):
                failures.append(
                    f"{kernel}: partition {index} differs between natural and "
                    "shuffled execution order (quantized path leaked order "
                    "into its numerics)"
                )
                break
    return failures
