"""Run every reproduced experiment and print the full evaluation.

``python -m repro.experiments.runner`` regenerates all of section 5:
Figures 2, 6, 7, 8, 9, 10, 11, 12 and Table 3, printing each as a table.
Pass ``--quick`` for a reduced-size sanity sweep (the reduced size is
threaded through *every* experiment, including Figure 1's program frame
and Figure 12's size sweep, so the quick suite stays fast end to end).

The figures share one :class:`~repro.experiments.common.ExperimentContext`,
whose result store every runtime of the sweep computes over (Figure 12's
per-size contexts included), so the N policies of one sweep stop
recomputing identical kernel blocks.  The store lives for one
:func:`run_all` call.

Performance knobs (see docs/performance.md):

* ``--backend {serial,pool,process}`` / ``--jobs N`` select the compute
  backend executing HLOP numerics inside each run;
* ``--jobs`` also fans the (experiment, kernel, policy) grid out across
  worker threads before the figures are printed -- results are
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
)


def prefetch_pairs(settings: ExperimentSettings) -> List[Tuple[str, str]]:
    """The (kernel, policy) grid the figure modules will ask the shared
    context for, in deterministic order."""
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


def run_all(
    settings: Optional[ExperimentSettings] = None,
    out=sys.stdout,
    metrics_path: Optional[str] = None,
    jobs: Optional[int] = None,
) -> Dict[str, float]:
    """Regenerate the evaluation; returns wall-clock seconds per experiment.

    The timings dict (experiment name -> elapsed seconds, plus a
    ``"total"`` entry and, with ``jobs``, a ``"prefetch"`` entry) is what
    ``scripts/bench.py`` records.
    """
    # One shared context so the GPU-baseline runs, workloads, and FP64
    # references are computed once across all figures.
    if metrics_path is not None:
        settings = settings or ExperimentSettings()
        settings.runtime_config = replace(settings.runtime_config, observe=True)
    settings = settings or ExperimentSettings()
    shared = ExperimentContext(settings)
    timings: Dict[str, float] = {}
    suite_start = time.time()
    if jobs and jobs > 1:
        start = time.time()
        shared.prefetch(prefetch_pairs(settings), jobs=jobs)
        timings["prefetch"] = time.time() - start
        print(f"[prefetched shared runs in {timings['prefetch']:.1f}s]\n", file=out)
    experiments = [
        ("Figure 1", lambda: fig1.run(settings)),
        ("Figure 2", lambda: fig2.run(settings, ctx=shared)),
        ("Figure 6", lambda: fig6.run(settings, ctx=shared)),
        ("Figure 7", lambda: fig7.run(settings, ctx=shared)),
        ("Figure 8", lambda: fig8.run(settings, ctx=shared)),
        ("Figure 9", lambda: fig9.run(settings, ctx=shared)),
        ("Figure 10", lambda: fig10.run(settings, ctx=shared)),
        ("Figure 11", lambda: fig11.run(settings, ctx=shared)),
        ("Figure 12", lambda: fig12.run(settings, ctx=shared)),
        ("Table 3", lambda: table3.run(settings, ctx=shared)),
    ]
    for name, thunk in experiments:
        start = time.time()
        result = thunk()
        elapsed = time.time() - start
        timings[name] = elapsed
        if isinstance(result, dict):
            for sub in result.values():
                print(sub.format_table(), file=out)
                print(file=out)
        else:
            print(result.format_table(), file=out)
        print(f"[{name} regenerated in {elapsed:.1f}s]\n", file=out)
    timings["total"] = time.time() - suite_start
    if metrics_path is not None:
        from repro.obs import to_records, write_records_jsonl

        records = []
        runs = 0
        for kernel, policy, report in shared.observed_runs():
            records.extend(
                to_records(
                    report.metrics,
                    meta={
                        "kernel": kernel,
                        "policy": policy,
                        "seed": shared.settings.seed,
                    },
                )
            )
            runs += 1
        write_records_jsonl(records, metrics_path)
        print(
            f"[metrics for {runs} runs ({len(records)} records) "
            f"written to {metrics_path}]",
            file=out,
        )
    return timings


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
