"""Workload ``suite``: the paper's evaluation, regenerated cold.

One round is one call of ``repro.experiments.runner.run_all`` at the quick
size (512x512 per kernel) with the default ``RuntimeConfig`` and the run's
seed, in a fresh process, so every round pays the program's lazy imports
the way a reader running the suite does.  The suite's "jobs" are the
runtime runs the figures ask for: each ``SHMTRuntime.execute_batch`` call
is timed with one clock pair, which gives its latency samples.

Outside the timed phase the round checks the printed figures for
properties that hold at this size, and checks the GPU-baseline outputs of
the kernels in :mod:`refs` against independent float64 references.

Every round of a traced run is traced.  Its ``trace.overhead_pct`` is the
round's span count times the wrapper's cost per call
(:meth:`tracer.Tracer.span_cost_s`), over the round's wall time less that
cost: an untraced round in another cold process differs from a traced
one by the machine's drift more than by the tracing.
"""

from __future__ import annotations

import io
import time
from typing import Dict, List

from common import Checks, peak_rss_mb

SIZE = 512 * 512
QAWS = ("QAWS-TS", "QAWS-TU", "QAWS-TR", "QAWS-LS", "QAWS-LU", "QAWS-LR")


def parse_tables(text: str) -> Dict[str, Dict[str, List[float]]]:
    """Printed figure tables: title -> row label -> values (GMEAN last)."""
    tables: Dict[str, Dict[str, List[float]]] = {}
    rows = None
    for line in text.splitlines():
        if line.startswith("== "):
            rows = tables.setdefault(line[3:].split(":")[0].strip(), {})
            continue
        if rows is None or not line.strip() or line.startswith(("policy", "[")):
            continue
        tokens = line.split()
        values: List[float] = []
        while tokens:
            try:
                values.insert(0, float(tokens[-1]))
            except ValueError:
                break
            tokens.pop()
        if tokens and values:
            rows[" ".join(tokens)] = values
    return tables


def check_figures(text: str, checks: Checks) -> None:
    """Paper-shape properties that hold at the quick size for every seed."""
    tables = parse_tables(text)
    for title in (
        "Figure 1", "Figure 2", "Figure 6", "Figure 7", "Figure 8", "Figure 9(a)",
        "Figure 9(b)", "Figure 10", "Figure 11", "Figure 12", "Table 3",
    ):
        checks.check(bool(tables.get(title)), f"{title} was printed")
    fig6, fig7, fig8 = tables.get("Figure 6", {}), tables.get("Figure 7", {}), tables.get("Figure 8", {})
    if fig7.get("edge-tpu-only"):
        edge = fig7["edge-tpu-only"][-1]
        for policy in QAWS:
            checks.check(
                policy in fig7 and fig7[policy][-1] < edge,
                f"Figure 7: {policy} MAPE geomean below edge-tpu-only's",
            )
    checks.check(
        "work-stealing" in fig6 and "even-distribution" in fig6
        and fig6["work-stealing"][-1] > fig6["even-distribution"][-1],
        "Figure 6: work-stealing geomean above even-distribution's",
    )
    checks.check(
        bool(fig8) and all(0.0 < v <= 1.0 for row in fig8.values() for v in row),
        "Figure 8: every SSIM lies in (0, 1]",
    )
    fig2 = tables.get("Figure 2", {})
    checks.check(
        "SHMT theoretical" in fig2 and "conventional best" in fig2
        and all(a > b for a, b in zip(fig2["SHMT theoretical"], fig2["conventional best"])),
        "Figure 2: SHMT's theoretical speedup beats the best single device per kernel",
    )
    fig12 = tables.get("Figure 12", {})
    checks.check(
        "4K" in fig12 and "256K" in fig12 and fig12["256K"][-1] > fig12["4K"][-1],
        "Figure 12: QAWS-TS geomean speedup grows from 4K to 256K elements",
    )
    fig10 = tables.get("Figure 10", {})
    checks.check(
        bool(fig10) and all(v > 0 for row in fig10.values() for v in row),
        "Figure 10: every energy and EDP ratio is positive",
    )
    table3 = tables.get("Table 3", {})
    checks.check(
        "measured" in table3 and all(0.0 < v < 100.0 for v in table3["measured"]),
        "Table 3: measured communication overhead lies in (0, 100) percent",
    )


class Suite:
    name = "suite"

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed

    def load(self) -> None:
        from repro.core import runtime
        from repro.experiments import runner
        from repro.experiments.common import BASELINE, ExperimentContext, ExperimentSettings

        self.runtime, self.runner = runtime, runner
        self.ExperimentContext, self.ExperimentSettings = ExperimentContext, ExperimentSettings
        self.baseline = BASELINE

    def setup(self) -> None:
        """Nothing beyond the imports: the suite runs cold."""

    def settings(self):
        settings = self.ExperimentSettings(seed=self.seed)
        settings.size = SIZE
        return settings

    def measure(self, seconds: float, traced: bool, tracer) -> dict:
        latencies: List[float] = []
        execute_batch = self.runtime.SHMTRuntime.execute_batch

        def timed(runtime, calls):
            start = time.perf_counter()
            report = execute_batch(runtime, calls)
            latencies.append((time.perf_counter() - start) * 1e3)
            return report

        self.runtime.SHMTRuntime.execute_batch = timed
        if traced:
            import probes

            probes.install(tracer)
        out = io.StringIO()
        start = time.perf_counter()
        timings = self.runner.run_all(self.settings(), out=out)
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        self.runtime.SHMTRuntime.execute_batch = execute_batch
        result = {
            "rounds": [{"wall_s": wall, "jobs": len(latencies), "traced": traced}],
            "latencies_ms": latencies,
            "peak_rss_mb": peak_rss_mb(),
        }
        if traced:
            import probes

            metrics = probes.layer_metrics(tracer)
            for name, seconds in timings.items():
                # "Figure 12" -> experiments.fig12_s, "Table 3" -> experiments.table3_s
                metric = f"experiments.{name.lower().replace('figure ', 'fig').replace(' ', '')}_s"
                if metric in metrics:
                    metrics[metric] = seconds
            cost = len(tracer.spans) * tracer.span_cost_s()
            metrics["trace.overhead_pct"] = cost / (wall - cost) * 100.0
            result["layers"] = [metrics]
            result["layer_table"] = probes.layer_table(tracer)
        checks = Checks()
        check_figures(out.getvalue(), checks)
        self.check_baseline(checks)
        result["checks"] = {"passed": checks.passed, "failures": checks.failures}
        result["attempted"], result["failed"] = len(latencies), 0
        return result

    def check_baseline(self, checks: Checks) -> None:
        import refs

        context = self.ExperimentContext(self.settings())
        for kernel in refs.REFERENCES:
            output = context.run(kernel, self.baseline).output
            error = refs.relative_error(kernel, context.call(kernel).data, output)
            checks.check(
                error <= refs.TOLERANCE,
                f"{kernel}: gpu-baseline output within float32 rounding of its "
                f"float64 reference (relative error {error:.2e})",
            )

    def close(self) -> None:
        pass
