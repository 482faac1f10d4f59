"""Shared benchmark helpers: table emission to stdout, disk and JSON.

``emit(result, "e1_token_vc.txt", params={...})`` prints the table,
writes it under ``benchmarks/output/`` and writes a machine-readable
sibling ``e1_token_vc.json`` (schema ``repro-bench/1``, see
:mod:`repro.obs.benchjson`) carrying the experiment parameters, raw
rows, summary cost totals, fit exponents and the measured wall time.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import render_table
from repro.obs import write_benchmark_json

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
SWEEPS_DIR = pathlib.Path(__file__).parent / "sweeps"


def _wall_time(benchmark) -> float | None:
    """Mean wall-clock seconds from pytest-benchmark, if it has run."""
    try:
        mean = benchmark.stats.stats.mean
    except AttributeError:
        return None
    return float(mean) if isinstance(mean, (int, float)) else None


@pytest.fixture
def emit(benchmark):
    """Print an ExperimentResult and persist it (.txt + .json)."""

    def _emit(result, filename: str, params=None) -> None:
        lines = [render_table(result.headers, result.rows, result.experiment)]
        for name, fit in result.fits.items():
            lines.append(f"fit[{name}]: {fit}")
        for note in result.notes:
            lines.append(f"note: {note}")
        text = "\n".join(lines)
        print("\n" + text)
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / filename).write_text(text + "\n", encoding="utf-8")
        stem = pathlib.Path(filename).stem
        write_benchmark_json(
            result,
            OUTPUT_DIR / f"{stem}.json",
            params=params,
            wall_time_s=_wall_time(benchmark),
        )

    return _emit
