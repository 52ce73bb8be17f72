"""Run every reproduced experiment and print the full evaluation.

``python -m repro.experiments.runner`` regenerates all of section 5:
Figures 2, 6, 7, 8, 9, 10, 11, 12 and Table 3, printing each as a table.
Pass ``--quick`` for a reduced-size sanity sweep (the reduced size is
threaded through *every* experiment, including Figure 1's program frame
and Figure 12's size sweep, so the quick suite stays fast end to end).

The sweep runs kernel by kernel.  Figure 1 runs once; then each kernel
gets its own one-kernel :class:`~repro.experiments.common.ExperimentContext`,
the figures share it, and its result store is what every runtime of that
kernel's sweep computes over (Figure 12's per-size contexts included), so
the N policies of one kernel stop recomputing identical blocks.  No figure
reads another kernel's runs, so the context -- runs, references and store
-- lives for one kernel's sweep and is freed before the next kernel
starts; the per-kernel results are joined column-wise into the printed
tables.

Performance knobs (see docs/performance.md):

* ``--backend {serial,pool,process}`` / ``--jobs N`` select the compute
  backend executing HLOP numerics inside each run;
* ``--jobs`` also fans each kernel's (experiment, policy) grid out across
  worker threads before that kernel's figures run -- results are
  deterministic and identical to a serial sweep.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.experiments import fig1, fig2, fig6, fig7, fig8, fig9, fig10, fig11, fig12, table3
from repro.experiments.common import (
    BASELINE,
    FIG6_POLICIES,
    QUALITY_POLICIES,
    ExperimentContext,
    ExperimentSettings,
    FigureResult,
)


def prefetch_pairs(settings: ExperimentSettings) -> List[Tuple[str, str]]:
    """The (kernel, policy) grid the figure modules will ask a context
    for, in deterministic order."""
    kernels = list(settings.kernels)
    pairs: List[Tuple[str, str]] = []
    for kernel in kernels:
        pairs.append((kernel, BASELINE))
        pairs.append((kernel, "edge-tpu-only"))  # Figure 2
        for policy in FIG6_POLICIES:
            pairs.append((kernel, policy))
        for policy in QUALITY_POLICIES:  # Figures 7/8 (image kernels are
            pairs.append((kernel, policy))  # a subset of the full list)
    return list(dict.fromkeys(pairs))


#: The figures regenerated from each kernel's own context, in print order.
PER_KERNEL_FIGURES = (
    ("Figure 2", fig2.run),
    ("Figure 6", fig6.run),
    ("Figure 7", fig7.run),
    ("Figure 8", fig8.run),
    ("Figure 9", fig9.run),
    ("Figure 10", fig10.run),
    ("Figure 11", fig11.run),
    ("Figure 12", fig12.run),
    ("Table 3", table3.run),
)


def run_all(
    settings: Optional[ExperimentSettings] = None,
    out=sys.stdout,
    metrics_path: Optional[str] = None,
    jobs: Optional[int] = None,
) -> Dict[str, float]:
    """Regenerate the evaluation; returns wall-clock seconds per experiment.

    The timings dict (experiment name -> elapsed seconds summed over the
    kernels, plus a ``"total"`` entry and, with ``jobs``, a ``"prefetch"``
    entry) is what ``scripts/bench.py`` records.
    """
    settings = settings or ExperimentSettings()
    if metrics_path is not None:
        from repro.obs import to_records, write_records_jsonl

        settings = replace(
            settings, runtime_config=replace(settings.runtime_config, observe=True)
        )
    prefetch = bool(jobs and jobs > 1)
    timings: Dict[str, float] = {"prefetch": 0.0} if prefetch else {}
    suite_start = time.time()
    start = time.time()
    results = {"Figure 1": fig1.run(settings)}
    timings["Figure 1"] = time.time() - start
    parts: Dict[str, list] = {name: [] for name, _ in PER_KERNEL_FIGURES}
    timings.update(dict.fromkeys(parts, 0.0))
    observed: Dict[Tuple[str, str], list] = {}
    # One context per kernel.  An empty kernel list still runs one empty
    # sweep, so every figure prints its (empty) table.
    sweeps = [replace(settings, kernels=[kernel]) for kernel in settings.kernels]
    for kernel_settings in sweeps or [settings]:
        ctx = ExperimentContext(kernel_settings)
        if prefetch:
            start = time.time()
            ctx.prefetch(prefetch_pairs(kernel_settings), jobs=jobs)
            timings["prefetch"] += time.time() - start
        for name, figure in PER_KERNEL_FIGURES:
            start = time.time()
            parts[name].append(figure(kernel_settings, ctx=ctx))
            timings[name] += time.time() - start
        if metrics_path is not None:
            # Keep each run's records, not its report, past the context.
            observed.update(
                {
                    (kernel, policy): to_records(
                        report.metrics,
                        meta={"kernel": kernel, "policy": policy, "seed": settings.seed},
                    )
                    for kernel, policy, report in ctx.observed_runs()
                }
            )
        # The last reference: the kernel's runs, references and store go
        # before the next kernel's are built.
        del ctx
    timings["total"] = time.time() - suite_start
    if prefetch:
        print(f"[prefetched shared runs in {timings['prefetch']:.1f}s]\n", file=out)
    results.update((name, _join(figure_parts)) for name, figure_parts in parts.items())
    for name, result in results.items():
        if isinstance(result, dict):
            for sub in result.values():
                print(sub.format_table(), file=out)
                print(file=out)
        else:
            print(result.format_table(), file=out)
        print(f"[{name} regenerated in {timings[name]:.1f}s]\n", file=out)
    if metrics_path is not None:
        # The (kernel, policy) order of one shared context's observed_runs.
        records = [record for key in sorted(observed) for record in observed[key]]
        write_records_jsonl(records, metrics_path)
        print(
            f"[metrics for {len(observed)} runs ({len(records)} records) "
            f"written to {metrics_path}]",
            file=out,
        )
    return timings


def _join(parts: list):
    """One figure's per-kernel results joined in kernel order; Figure 9's
    ``{"speedup": ..., "mape": ...}`` panels are joined key by key."""
    if isinstance(parts[0], dict):
        return {key: FigureResult.concat([part[key] for part in parts]) for key in parts[0]}
    return FigureResult.concat(parts)


def apply_performance_args(
    settings: ExperimentSettings, args: argparse.Namespace
) -> ExperimentSettings:
    """Fold the shared --backend/--jobs flags into the settings."""
    settings.runtime_config = replace(
        settings.runtime_config,
        backend=args.backend,
        jobs=args.jobs,
        validate=args.validate,
        fuse=args.fuse,
    )
    return settings


def add_performance_args(parser: argparse.ArgumentParser) -> None:
    """The performance flags shared by the runner, the CLI, and bench."""
    parser.add_argument(
        "--backend",
        default="serial",
        choices=("serial", "pool", "process"),
        help="compute backend for HLOP numerics (default: serial)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker count: backend pool size and (kernel, policy) fan-out",
    )
    parser.add_argument(
        "--fuse",
        action="store_true",
        help="fuse compatible HLOP runs into single backend submissions "
        "and batch same-kernel work across concurrent calls "
        "(repro.exec.fuse); results stay bit-identical",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="run every batch under the runtime invariant checker "
        "(repro.verify); violations abort the run",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use 512x512 workloads for a fast sanity sweep",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="observe every cached run and write their metrics as one JSONL",
    )
    add_performance_args(parser)
    args = parser.parse_args()
    settings = ExperimentSettings(seed=args.seed)
    if args.quick:
        settings.size = 512 * 512
    apply_performance_args(settings, args)
    run_all(settings, metrics_path=args.metrics, jobs=args.jobs)


if __name__ == "__main__":
    main()
