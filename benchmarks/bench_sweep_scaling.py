"""Sweep harness scaling — parallel fan-out vs a single worker.

Runs the committed 64-cell ``scaling-64`` matrix twice — once inline
and once across worker processes — and reports the wall-clock speedup
plus the determinism check: the paper-unit metrics of every cell must
be byte-identical regardless of worker count (the acceptance bar for
the fan-out harness).

The speedup assertion is deliberately soft here (>= 1.0, i.e. fan-out
is never a slowdown beyond noise) because benchmark containers may pin
a single core; the ≥ 2.5x-on-4-cores figure is measured by the CI soak
and by running this module on real hardware — the emitted JSON carries
the measured factor either way.
"""

import json
import os
import pathlib
import time

from repro.analysis import ExperimentResult
from repro.sweep import load_matrix, run_sweep

SWEEPS_DIR = pathlib.Path(__file__).parent / "sweeps"


def bench_sweep_worker_scaling(benchmark, emit):
    matrix = load_matrix(SWEEPS_DIR / "scaling64.json")
    assert matrix.num_cells == 64
    workers = min(4, os.cpu_count() or 1)

    # An untimed first run fails fast on an erroring cell.
    warm = run_sweep(matrix, workers=1)
    assert warm.ok

    def timed(worker_count: int):
        started = time.perf_counter()
        result = run_sweep(matrix, workers=worker_count)
        return result, time.perf_counter() - started

    serial, serial_s = benchmark.pedantic(
        timed, args=(1,), rounds=1, iterations=1
    )
    fanned, fanned_s = timed(workers)
    assert serial.ok and fanned.ok

    serial_units = json.dumps(serial.paper_units_view(), sort_keys=True)
    fanned_units = json.dumps(fanned.paper_units_view(), sort_keys=True)
    identical = serial_units == fanned_units
    speedup = serial_s / fanned_s if fanned_s > 0 else float("inf")

    result = ExperimentResult(
        "sweep fan-out scaling (64-cell matrix)",
        ["workers", "wall_s", "speedup", "cells", "identical_units"],
        [
            [1, round(serial_s, 3), 1.0, len(serial.records), True],
            [
                workers,
                round(fanned_s, 3),
                round(speedup, 2),
                len(fanned.records),
                identical,
            ],
        ],
    )
    result.notes.append(
        f"cpu_count={os.cpu_count()}; target >= 2.5x at 4 cores"
    )
    emit(
        result,
        "sweep_scaling.txt",
        params={"matrix": matrix.name, "workers": workers},
    )

    assert identical, "paper units must not depend on worker count"
    if workers >= 4:
        assert speedup >= 1.0
