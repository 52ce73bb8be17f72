"""The experiment runner sweeps kernel by kernel.

``run_all`` runs Figure 1 once, then gives each kernel its own one-kernel
:class:`ExperimentContext`, runs every other figure on it and drops it
before the next kernel starts; the per-kernel results are joined
column-wise (:meth:`FigureResult.concat`) into the printed tables.  These
tests pin the sweep's shape, that the joined results equal a figure-major
sweep over one shared context, and the ``--jobs`` and ``--metrics`` paths.
"""

import gc
import io
import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.common import ExperimentContext, ExperimentSettings, FigureResult
from repro.metrics.stats import geometric_mean
from repro.obs import read_jsonl, validate_records

#: An image kernel and blackscholes (the largest sweep at the quick size),
#: out of name order so that kernel order and (kernel, policy) order differ.
KERNELS = ["sobel", "blackscholes", "fft"]
TIMING = re.compile(r"^\[(.* regenerated in|prefetched shared runs in) .*s\]$")
FIGURES = ["Figure 1", *(name for name, _ in runner.PER_KERNEL_FIGURES)]


def _settings():
    return ExperimentSettings(size=128 * 128, seed=0, kernels=list(KERNELS))


def _run(settings=None, **kwargs):
    out = io.StringIO()
    timings = runner.run_all(settings or _settings(), out=out, **kwargs)
    return out.getvalue(), timings


def _tables(text):
    return [line for line in text.splitlines() if not TIMING.match(line)]


def _panels(result):
    return list(result.values()) if isinstance(result, dict) else [result]


def _assert_same(got: FigureResult, want: FigureResult) -> None:
    assert got.name == want.name
    assert got.kernels == want.kernels
    assert list(got.series) == list(want.series)
    for row in want.series:
        np.testing.assert_array_equal(got.series[row], want.series[row])
    assert got.aggregates == want.aggregates


@pytest.fixture(scope="module")
def serial():
    return _run()


def test_each_context_covers_one_kernel_and_is_freed_before_the_next(monkeypatch):
    created = []  # (weakref to the context, the kernels it covers)
    alive_across_kernels = []
    init = ExperimentContext.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for ref, kernels in created:
            earlier = ref()
            # Figure 12's sized contexts share their kernel's store.
            if earlier is not None and earlier.store is not self.store:
                alive_across_kernels.append((kernels, list(self.settings.kernels)))
        created.append((weakref.ref(self), list(self.settings.kernels)))

    monkeypatch.setattr(ExperimentContext, "__init__", tracking_init)
    enabled = gc.isenabled()
    gc.disable()  # freeing must not wait for the cycle collector
    try:
        _run()
    finally:
        if enabled:
            gc.enable()
    assert [len(kernels) for _, kernels in created] == [1] * len(created)
    assert list(dict.fromkeys(kernels[0] for _, kernels in created)) == KERNELS
    assert alive_across_kernels == []


def test_joined_parts_equal_a_figure_major_sweep_over_one_context():
    settings = _settings()
    shared = ExperimentContext(settings)
    contexts = [ExperimentContext(replace(settings, kernels=[k])) for k in KERNELS]
    for _, figure in runner.PER_KERNEL_FIGURES:
        joined = runner._join([figure(ctx.settings, ctx=ctx) for ctx in contexts])
        whole = figure(settings, ctx=shared)
        assert len(_panels(joined)) == len(_panels(whole))
        for got, want in zip(_panels(joined), _panels(whole)):
            _assert_same(got, want)


def test_concat_gmeans_skip_nan_and_non_positive_cells_as_over_the_full_lists():
    nan = float("nan")
    rows = {
        "mixed": [1.5, nan, 2.0, 0.0, -1.0, 3.0],
        "none positive": [0.0, nan, -2.0, 0.0, 0.0, -0.5],
        "all positive": [1.0, 2.0, 4.0, 8.0, 0.5, 0.25],
    }
    kernels = [f"k{i}" for i in range(6)]
    whole = FigureResult("F", kernels, {row: list(v) for row, v in rows.items()})
    whole.compute_gmeans()
    spans = [(0, 2), (2, 2), (2, 5), (5, 6)]  # (2, 2) is an empty part
    parts = [
        FigureResult("F", kernels[a:b], {row: v[a:b] for row, v in rows.items()})
        for a, b in spans
    ]
    for part in parts:
        part.compute_gmeans()
    joined = FigureResult.concat(parts)
    _assert_same(joined, whole)
    assert "none positive" not in joined.aggregates
    assert joined.aggregates["mixed"] == geometric_mean([1.5, 2.0, 3.0])
    assert math.isnan(joined.value("mixed", "k1"))


def test_concat_refuses_no_parts_and_mismatched_rows():
    with pytest.raises(ValueError):
        FigureResult.concat([])
    with pytest.raises(ValueError):
        FigureResult.concat(
            [FigureResult("F", ["a"], {"x": [1.0]}), FigureResult("F", ["b"], {"y": [1.0]})]
        )


def test_timings_keep_their_keys_and_each_figure_prints_once(serial):
    text, timings = serial
    assert list(timings) == [*FIGURES, "total"]
    assert sum(timings[name] for name in FIGURES) <= timings["total"]
    printed = re.findall(r"^\[(.*) regenerated in .*s\]$", text, re.MULTILINE)
    assert printed == FIGURES


def test_jobs_prints_the_same_tables_and_times_the_prefetch_once(serial):
    text, timings = serial
    parallel, parallel_timings = _run(jobs=2)
    # One prefetch line, and the blank line after it, ahead of the tables.
    assert parallel.startswith("[prefetched shared runs in ")
    assert parallel.count("[prefetched shared runs in ") == 1
    assert _tables(parallel) == ["", *_tables(text)]
    assert list(parallel_timings) == ["prefetch", *timings]


def test_metrics_export_each_memoized_run_once_in_kernel_policy_order(serial, tmp_path):
    path = tmp_path / "metrics.jsonl"
    settings = _settings()
    text, _ = _run(settings, metrics_path=str(path))
    records = read_jsonl(str(path))
    validate_records(records)
    runs = [(r["kernel"], r["policy"]) for r in records if r["type"] == "meta"]
    assert runs == sorted(set(runner.prefetch_pairs(settings)))
    assert {r["seed"] for r in records if r["type"] == "meta"} == {settings.seed}
    *tables, footer = _tables(text)
    assert tables == _tables(serial[0])
    assert footer == (
        f"[metrics for {len(runs)} runs ({len(records)} records) written to {path}]"
    )


def test_run_all_leaves_the_callers_settings_unchanged(tmp_path):
    settings = _settings()
    before = replace(settings, kernels=list(settings.kernels))
    _run(settings, metrics_path=str(tmp_path / "metrics.jsonl"))
    assert settings == before
    assert settings.runtime_config.observe is False
