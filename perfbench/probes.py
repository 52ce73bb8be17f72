"""Which program entry points belong to which layer.

:func:`install` wraps, through a :class:`~tracer.Tracer`, the attributes
the program's callers look up.  Functions imported by name are wrapped at
every importing module, because that is where the caller finds them.
:func:`layer_metrics` turns one round's spans and counters into the
per-layer metrics listed in ``BENCHMARK.json``.

Times are inclusive (``total``) except the three marked ``self``:
``core.runtime.self_s``, ``sim.engine.run_s`` and ``exec.backend_s``
report the layer's own time with its callees' spans taken out, because
their inclusive time is mostly the numerics they call.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Dict

from tracer import Tracer

#: Per-layer metrics, in the order of the ``per_layer`` list of BENCHMARK.json.
PER_LAYER = (
    "setup.import_s",
    "setup.warmup_s",
    "workloads.generate_s",
    "core.partition.plan_s",
    "core.schedulers.plan_s",
    "core.schedulers.plan_calls",
    "core.runtime.self_s",
    "core.runtime.runs",
    "core.runtime.hlops",
    "core.runtime.sim_makespan_s",
    "sim.engine.run_s",
    "sim.engine.events",
    "devices.numeric_s",
    "devices.quantize_s",
    "devices.quantize_calls",
    "kernels.compute_s",
    "kernels.reference_s",
    "exec.fingerprint_s",
    "exec.backend_s",
    "exec.cache_lookups",
    "exec.cache_hits",
    "metrics.ssim_s",
    "metrics.mape_s",
    "experiments.policy_runs",
    "experiments.fig1_s",
    "experiments.fig2_s",
    "experiments.fig6_s",
    "experiments.fig7_s",
    "experiments.fig8_s",
    "experiments.fig9_s",
    "experiments.fig10_s",
    "experiments.fig11_s",
    "experiments.fig12_s",
    "experiments.table3_s",
    "serve.submit_s",
    "serve.queue_wait_ms_p50",
    "serve.job_run_ms_p50",
    "serve.journal_s",
    "serve.journal_records",
    "serve.journal_bytes",
    "serve.journal_load_s",
    "serve.hlops_preloaded",
    "serve.recovery_s",
    "cluster.submit_s",
    "cluster.router_journal_s",
    "cluster.spawn_s",
    "cluster.heartbeats",
    "cluster.commands_resent",
    "cluster.shard_journal_bytes",
    "trace.overhead_pct",
    "trace.spans",
)

#: Counts that repeat exactly for one seed; a host-only change keeps them.
DETERMINISTIC = (
    "core.runtime.hlops",
    "core.runtime.sim_makespan_s",
    "core.schedulers.plan_calls",
    "sim.engine.events",
    "experiments.policy_runs",
    "serve.journal_records",
)

#: Layer -> metric for inclusive times.
_TOTALS = {
    "workloads.generate": "workloads.generate_s",
    "core.partition": "core.partition.plan_s",
    "core.schedulers": "core.schedulers.plan_s",
    "devices.numeric": "devices.numeric_s",
    "devices.quantize": "devices.quantize_s",
    "kernels.compute": "kernels.compute_s",
    "kernels.reference": "kernels.reference_s",
    "exec.fingerprint": "exec.fingerprint_s",
    "metrics.ssim": "metrics.ssim_s",
    "metrics.mape": "metrics.mape_s",
    "serve.submit": "serve.submit_s",
    "serve.journal": "serve.journal_s",
    "serve.journal_load": "serve.journal_load_s",
    "cluster.submit": "cluster.submit_s",
    "cluster.router_journal": "cluster.router_journal_s",
}

#: Layer -> metric for self times.
_SELF = {
    "core.runtime": "core.runtime.self_s",
    "sim.engine": "sim.engine.run_s",
    "exec.backend": "exec.backend_s",
}

#: Layer -> metric for outermost call counts.
_CALLS = {
    "core.schedulers": "core.schedulers.plan_calls",
    "devices.quantize": "devices.quantize_calls",
}


def _wrap_imported(tracer: Tracer, function: str, home: str, layer: str) -> None:
    """Wrap ``home.function`` and every loaded repro module that imported it."""
    original = getattr(importlib.import_module(home), function)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            if module.__dict__.get(function) is original:
                tracer.wrap(module, function, layer)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the loaded program."""
    from repro.core import runtime
    from repro.core.schedulers.base import Scheduler
    from repro.devices.base import Device
    from repro.exec.backends import ExecBackend
    from repro.exec.cache import ResultCache
    from repro.kernels import registry
    from repro.sim.engine import Engine

    counts = tracer.counts

    _wrap_imported(tracer, "generate", "repro.workloads.generator", "workloads.generate")
    tracer.wrap(runtime, "plan_partitions", "core.partition")
    tracer.wrap_methods(Scheduler, ["plan"], "core.schedulers")
    tracer.wrap(runtime.SHMTRuntime, "prepare_batch", "core.runtime")

    def count_run(args, report, _token):
        counts["core.runtime.runs"] += 1
        counts["core.runtime.hlops"] += sum(len(r.hlops) for r in report.reports)
        counts["core.runtime.sim_makespan_s"] += report.makespan

    tracer.wrap(runtime._BatchRun, "execute", "core.runtime", after=count_run)

    def count_events(args, _result, fired_before):
        counts["sim.engine.events"] += args[0].events_fired - fired_before

    tracer.wrap(
        Engine, "run", "sim.engine",
        before=lambda args: args[0].events_fired, after=count_events,
    )
    schedule = Engine.__dict__["schedule"]

    def traced_schedule(self, delay, callback, *args, **kwargs):
        # Event handlers are runtime code the engine calls back into.
        if callback is not None:
            handler = callback

            def callback():
                span = tracer.open("core.runtime")
                try:
                    handler()
                finally:
                    tracer.close(span)

        return schedule(self, delay, callback, *args, **kwargs)

    tracer.patch(Engine, "schedule", traced_schedule, schedule)

    tracer.wrap_methods(
        Device, ["execute_numeric", "execute_numeric_batch"], "devices.numeric"
    )
    npu = importlib.import_module("repro.kernels.npu")
    for function in ("round_trip_affine", "round_trip_affine_channels"):
        tracer.wrap(npu, function, "devices.quantize")
    _install_kernels(tracer, registry)

    _wrap_imported(tracer, "fingerprint_array", "repro.exec.task", "exec.fingerprint")
    tracer.wrap_methods(ExecBackend, ["submit", "submit_group"], "exec.backend")

    def count_lookup(_args, hit, _token):
        counts["exec.cache_lookups"] += 1
        counts["exec.cache_hits"] += hit is not None

    tracer.wrap(ResultCache, "get", "exec.cache", after=count_lookup)

    if "repro.experiments.runner" in sys.modules:
        _install_experiments(tracer)
    if "repro.serve.service" in sys.modules:
        _install_serve(tracer)
    if "repro.cluster.router" in sys.modules:
        _install_cluster(tracer)


def _install_kernels(tracer: Tracer, registry) -> None:
    """Wrap each registered kernel's functions once the registry loads.

    The registry imports the kernel modules on its first lookup; loading
    it here would move that import out of the timed phase, so the specs
    are wrapped when the program itself loads them.
    """

    def wrap_specs() -> None:
        for spec in list(registry._REGISTRY.values()):
            for field, layer in (
                ("compute", "kernels.compute"),
                ("tensor_compute", "kernels.compute"),
                ("reference", "kernels.reference"),
            ):
                if getattr(spec, field) is not None:
                    tracer.wrap(spec, field, layer)

    if registry._loaded:
        wrap_specs()
        return
    ensure_loaded = registry._ensure_loaded
    wrapped = []

    def traced_ensure_loaded() -> None:
        ensure_loaded()
        if not wrapped:
            wrapped.append(True)
            wrap_specs()

    tracer.patch(registry, "_ensure_loaded", traced_ensure_loaded, ensure_loaded)


def _install_experiments(tracer: Tracer) -> None:
    from repro.experiments.common import ExperimentContext
    from repro.metrics.mape import MAPEReference
    from repro.metrics.ssim import SSIMReference

    counts = tracer.counts

    def count_policy_run(_args, _report, runs_before):
        # A context memo hit returns without running the runtime.
        counts["experiments.policy_runs"] += counts["core.runtime.runs"] > runs_before

    tracer.wrap(
        ExperimentContext, "run", "experiments.context",
        before=lambda _args: counts["core.runtime.runs"], after=count_policy_run,
    )
    tracer.wrap(SSIMReference, "__init__", "metrics.ssim")
    tracer.wrap(MAPEReference, "__init__", "metrics.mape")
    for module, function, layer in (
        ("repro.experiments.fig8", "ssim", "metrics.ssim"),
        ("repro.experiments.fig7", "mape_percent", "metrics.mape"),
        ("repro.experiments.fig9", "mape_percent", "metrics.mape"),
    ):
        tracer.wrap(importlib.import_module(module), function, layer)


def _install_serve(tracer: Tracer) -> None:
    from repro.serve import service
    from repro.serve.admission import AdmissionQueue
    from repro.serve.checkpoint import CheckpointWriter

    counts = tracer.counts
    tracer.wrap(
        service.ShmtService, "submit", "serve.submit",
        job=lambda args, _kwargs: args[1].job_id,
    )
    get = AdmissionQueue.__dict__["get"]

    def traced_get(self, *args, **kwargs):
        # The worker thread takes its next job here: later spans on the
        # thread belong to that job until it takes another.
        job = get(self, *args, **kwargs)
        if job is not None:
            tracer.started[job.spec.job_id] = time.perf_counter()
            tracer.set_job(job.spec.job_id)
        return job

    tracer.patch(AdmissionQueue, "get", traced_get, get)

    def count_record(_args, _result, _token):
        counts["serve.journal_records"] += 1

    for method in ("job_start", "hlop_result", "job_end"):
        tracer.wrap(CheckpointWriter, method, "serve.journal", after=count_record)

    def count_preloaded(_args, state, _token):
        counts["serve.hlops_preloaded"] += sum(len(j.hlops) for j in state.pending())

    tracer.wrap(service, "load_checkpoint", "serve.journal_load", after=count_preloaded)


def _install_cluster(tracer: Tracer) -> None:
    from repro.cluster.checkpoint import RouterCheckpoint
    from repro.cluster.router import ClusterRouter

    tracer.wrap(ClusterRouter, "submit", "cluster.submit")
    for method in ("member", "place", "resolve"):
        tracer.wrap(RouterCheckpoint, method, "cluster.router_journal")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """One round's per-layer metrics from the tracer's spans and counters.

    Metrics of layers the round did not reach read 0; the workloads add
    the metrics that do not come from spans (``experiments.*_s`` from
    ``run_all``'s own timings, journal sizes, ``trace.overhead_pct``).
    """
    layers = tracer.layers()
    out: Dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    for layer, metric in _TOTALS.items():
        out[metric] = layers.get(layer, {}).get("total_s", 0.0)
    for layer, metric in _SELF.items():
        out[metric] = layers.get(layer, {}).get("self_s", 0.0)
    for layer, metric in _CALLS.items():
        out[metric] = layers.get(layer, {}).get("calls", 0)
    for name in (
        "core.runtime.runs",
        "core.runtime.hlops",
        "core.runtime.sim_makespan_s",
        "sim.engine.events",
        "exec.cache_lookups",
        "exec.cache_hits",
        "experiments.policy_runs",
        "serve.journal_records",
        "serve.hlops_preloaded",
    ):
        out[name] = tracer.counts.get(name, 0)
    out["trace.spans"] = len(tracer.spans)
    return out


def layer_table(tracer: Tracer) -> str:
    """Human-readable total/self/calls per layer."""
    rows = [f"{'layer':28s} {'total_s':>10s} {'self_s':>10s} {'calls':>8s}"]
    for layer, entry in sorted(tracer.layers().items()):
        rows.append(
            f"{layer:28s} {entry['total_s']:10.4f} {entry['self_s']:10.4f} "
            f"{entry['calls']:8d}"
        )
    return "\n".join(rows)
