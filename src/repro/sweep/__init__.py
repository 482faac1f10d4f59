"""Parallel sweep harness with perf-regression baselines.

The paper's results are *sweeps* — cost curves over (N, m, n) — but the
experiment modules run one workload at a time on one core.  This package
scales that out:

* :mod:`repro.sweep.matrix` — declarative cross-products of
  (detector × workload params × seeds × fault plans) that expand to
  deterministic cell lists;
* :mod:`repro.sweep.runner` — multiprocessing fan-out with a streaming
  aggregator folding per-run paper units into ``repro-bench/1`` JSON
  plus per-group median/p95 summaries; every cell regenerates its
  workload, a pure function of the cell's generator parameters;
* :mod:`repro.sweep.baseline` — the regression comparator behind
  ``repro bench-check``: paper units must match a committed baseline
  exactly; wall-time medians get a multiplicative tolerance.

Quickstart::

    from repro.sweep import SweepMatrix, run_sweep

    matrix = SweepMatrix(
        name="demo",
        detectors=("token_vc", "direct_dep"),
        processes=(4, 8),
        sends=(8,),
        seeds=(0, 1, 2),
    )
    result = run_sweep(matrix, workers=4)
    assert result.ok
    aggregate = result.aggregate()  # repro-bench/1 JSON document
"""

from repro.sweep.baseline import (
    DEFAULT_WALL_TOLERANCE,
    BaselineComparison,
    CellDrift,
    WallRegression,
    compare,
    dump_comparisons_markdown,
    load_baseline,
)
from repro.sweep.matrix import SweepCell, SweepMatrix, load_matrix
from repro.sweep.runner import SweepResult, run_cell, run_sweep

__all__ = [
    "SweepCell",
    "SweepMatrix",
    "load_matrix",
    "SweepResult",
    "run_cell",
    "run_sweep",
    "BaselineComparison",
    "CellDrift",
    "WallRegression",
    "DEFAULT_WALL_TOLERANCE",
    "compare",
    "load_baseline",
    "dump_comparisons_markdown",
]
