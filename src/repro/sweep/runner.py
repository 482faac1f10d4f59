"""Parallel sweep execution and streaming aggregation.

``run_sweep(matrix, ...)`` fans the matrix's cells out over worker
processes (``workers=1`` runs inline, which is also the reference for
the determinism guarantee: the paper-unit metrics of every cell are
identical no matter how many workers computed them).  Results stream
back through an unordered channel and are folded into a
:class:`SweepResult` as they arrive; the final aggregate is sorted by
cell id so its JSON form is canonical.

A cell that raises inside a worker becomes an *error record* — it never
contaminates the aggregate rows, and callers (the CLI, ``bench-check``)
must treat any error as a failed sweep (nonzero exit)."""

from __future__ import annotations

import math
import multiprocessing
import pathlib
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

from repro.detect.runner import (
    offline_detectors,
    paper_units,
    run_detector,
    run_service,
)
from repro.detect.service import service_units
from repro.obs.benchjson import structured_result
from repro.predicates import WeakConjunctivePredicate
from repro.detect.stack import FailureDetectorConfig
from repro.simulation.faults import FaultPlan
from repro.sweep.matrix import SweepCell, SweepMatrix
from repro.trace.generators import generate

__all__ = ["SweepResult", "run_cell", "run_sweep", "median", "p95"]


def median(values: list[float]) -> float:
    """The deterministic median (mean of middle pair on even counts)."""
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("median of empty list")
    mid = count // 2
    if count % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def p95(values: list[float]) -> float:
    """The deterministic 95th percentile (nearest-rank method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("p95 of empty list")
    rank = math.ceil(0.95 * len(ordered))
    return ordered[min(len(ordered) - 1, rank - 1)]


def _safe_cell_name(cell_id: str) -> str:
    """A cell id flattened into a filesystem-safe file stem."""
    return cell_id.replace("/", "_").replace(":", "-").replace("*", "any")


def run_cell(
    cell: SweepCell,
    *,
    trace_dir: str | pathlib.Path | None = None,
    flight_dir: str | pathlib.Path | None = None,
    sample_seeds: tuple[int, ...] = (),
) -> dict[str, Any]:
    """Generate one cell's workload, run it and return its result record.

    The record carries the cell identity, the exact paper-unit metrics
    (via :func:`repro.detect.runner.paper_units`) and the wall time,
    generation included.  Raises whatever the generator or detector
    raises — fan-out wraps this in :func:`_run_cell_safe`.

    ``trace_dir`` + ``sample_seeds`` record a full span trace (JSONL)
    for the deterministic sample of cells whose seed is in
    ``sample_seeds``; ``flight_dir`` arms a
    :class:`~repro.obs.invariants.FlightRecorder` on every online cell
    and dumps its ring to disk only when the cell errors, degrades, or
    violates an invariant.  Both paths add the written filename to the
    record (``trace_file`` / ``flight_file``).
    """
    started = time.perf_counter()
    computation = generate(cell.workload_spec())
    service = cell.n_predicates > 1
    wcp = WeakConjunctivePredicate.of_flags(cell.predicate_pids(), var=cell.flag_var)
    options: dict[str, Any] = {}
    online = cell.detector not in offline_detectors()
    if online:
        options["seed"] = cell.seed
    if cell.faults is not None:
        options["faults"] = FaultPlan.parse(cell.faults)
    if cell.self_heal and cell.faults is not None:
        fd_options: dict[str, Any] = {}
        if cell.gossip_interval is not None:
            fd_options["gossip_interval"] = cell.gossip_interval
        if cell.gossip_timeout is not None:
            fd_options["gossip_timeout"] = cell.gossip_timeout
        options["failure_detector"] = FailureDetectorConfig(
            membership=cell.membership,
            gossip_fanout=cell.gossip_fanout,
            **fd_options,
        )
    if cell.check_invariants:
        options["check_invariants"] = True
    tracer = None
    recorder = None
    observers: list[Any] = []
    if online and trace_dir is not None and cell.seed in sample_seeds:
        from repro.obs.tracer import SpanTracer

        tracer = SpanTracer()
        observers.append(tracer)
    if online and flight_dir is not None:
        from repro.obs.invariants import FlightRecorder

        recorder = FlightRecorder()
        observers.append(recorder)
    if observers:
        options["observers"] = observers
    try:
        if service:
            # A service cell runs every derived predicate over one
            # shared causality layer; its exact per-predicate verdicts
            # land in the units as ``outcome:<pred_id>`` entries.
            entries = [
                (pred_id, WeakConjunctivePredicate.of_flags(pids, var=cell.flag_var))
                for pred_id, pids in cell.service_predicates()
            ]
            report = run_service(cell.detector, computation, entries, **options)
        else:
            report = run_detector(cell.detector, computation, wcp, **options)
    except Exception:
        if recorder is not None:
            _dump_flight(recorder, flight_dir, cell, outcome="error")
        raise
    faults = getattr(getattr(report, "sim", None), "faults", None)
    record = {
        "id": cell.cell_id,
        "group": cell.group,
        "cell": cell.to_dict(),
        "units": service_units(report) if service else paper_units(report),
        "liveness_bytes": faults.liveness_bytes if faults is not None else 0,
        "wall_s": time.perf_counter() - started,
    }
    if tracer is not None:
        from repro.obs.export import dump_jsonl

        sim = getattr(report, "sim", None)
        trace = tracer.finish(
            sim.time if sim is not None else None,
            cell=cell.cell_id,
            detector=report.detector,
            outcome=report.summary if service else report.outcome,
            seed=cell.seed,
        )
        path = pathlib.Path(trace_dir) / f"{_safe_cell_name(cell.cell_id)}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        record["trace_file"] = str(dump_jsonl(trace, path))
    violations = int(report.extras.get("invariant_violations", 0) or 0)
    if recorder is not None and (report.degraded or violations):
        record["flight_file"] = str(
            _dump_flight(
                recorder,
                flight_dir,
                cell,
                outcome=report.summary if service else report.outcome,
                invariant_violations=violations,
            )
        )
    return record


def _dump_flight(
    recorder: Any,
    flight_dir: str | pathlib.Path | None,
    cell: SweepCell,
    **meta: Any,
) -> pathlib.Path:
    assert flight_dir is not None
    path = (
        pathlib.Path(flight_dir)
        / f"{_safe_cell_name(cell.cell_id)}.flight.jsonl"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    return recorder.dump(path, cell=cell.cell_id, **meta)


def _run_cell_safe(cell: SweepCell, **options: Any) -> dict[str, Any]:
    """``run_cell`` that degrades exceptions into error records."""
    try:
        return run_cell(cell, **options)
    except Exception as exc:  # noqa: BLE001 - worker boundary
        return {
            "id": cell.cell_id,
            "group": cell.group,
            "cell": cell.to_dict(),
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


_GROUP_HEADERS = [
    "group",
    "cells",
    "med_token_hops",
    "p95_token_hops",
    "med_mon_msgs",
    "p95_mon_msgs",
    "med_work",
    "p95_work",
    "med_wall_ms",
]


@dataclass
class SweepResult:
    """The aggregate of one sweep run.

    Exposes ``experiment`` / ``headers`` / ``rows`` / ``fits`` /
    ``notes`` so :func:`repro.obs.benchjson.structured_result` can emit
    it as a ``repro-bench/1`` document; :meth:`aggregate` additionally
    embeds the per-cell records under a ``"sweep"`` key, which is what
    the baseline comparator consumes.
    """

    matrix: SweepMatrix
    records: list[dict[str, Any]]
    errors: list[dict[str, Any]]
    workers: int
    wall_time_s: float
    fits: dict[str, Any] = field(default_factory=dict)

    @property
    def experiment(self) -> str:
        return f"sweep:{self.matrix.name}"

    @property
    def headers(self) -> list[str]:
        return list(_GROUP_HEADERS)

    @property
    def rows(self) -> list[list[Any]]:
        """Per-group summary rows (median/p95 over the group's seeds)."""
        groups: dict[str, list[dict[str, Any]]] = {}
        for record in self.records:
            groups.setdefault(record["group"], []).append(record)
        rows: list[list[Any]] = []
        for group in sorted(groups):
            members = groups[group]
            row: list[Any] = [group, len(members)]
            for unit_key in ("token_hops", "mon_msgs", "total_work"):
                values = [
                    record["units"][unit_key]
                    for record in members
                    if unit_key in record["units"]
                ]
                if values:
                    row.extend([median(values), p95(values)])
                else:
                    row.extend(["-", "-"])
            walls = [record["wall_s"] for record in members]
            row.append(round(median(walls) * 1000.0, 3))
            rows.append(row)
        return rows

    @property
    def notes(self) -> list[str]:
        return [
            f"cells={len(self.records)} errors={len(self.errors)} "
            f"workers={self.workers}"
        ]

    @property
    def ok(self) -> bool:
        """Whether every cell completed without raising."""
        return not self.errors

    def paper_units_view(self) -> dict[str, dict[str, Any]]:
        """Per-cell paper units only — the worker-count-invariant view.

        Two sweeps of the same matrix must produce byte-identical JSON
        dumps of this view regardless of ``workers``; wall times are
        deliberately excluded.
        """
        return {record["id"]: dict(record["units"]) for record in self.records}

    def group_wall_medians(self) -> dict[str, float]:
        """Median wall seconds per group (the regression-tolerance gauge)."""
        groups: dict[str, list[float]] = {}
        for record in self.records:
            groups.setdefault(record["group"], []).append(record["wall_s"])
        return {group: median(walls) for group, walls in sorted(groups.items())}

    def aggregate(self) -> dict[str, Any]:
        """The full ``repro-bench/1`` JSON document for this sweep."""
        doc = structured_result(
            self, params=self.matrix.to_dict(), wall_time_s=self.wall_time_s
        )
        doc["sweep"] = {
            "workers": self.workers,
            "cells": [
                {
                    "id": record["id"],
                    "group": record["group"],
                    "cell": record["cell"],
                    "units": record["units"],
                    "wall_s": record["wall_s"],
                }
                for record in self.records
            ],
            "errors": [
                {"id": record["id"], "error": record["error"]}
                for record in self.errors
            ],
        }
        return doc


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork keeps worker start cheap and inherits in-process detector
    # registrations; fall back to the platform default elsewhere.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_sweep(
    matrix: SweepMatrix,
    *,
    workers: int = 1,
    on_result: Callable[[Mapping[str, Any]], None] | None = None,
    trace_dir: str | pathlib.Path | None = None,
    trace_sample: int = 0,
    flight_dir: str | pathlib.Path | None = None,
) -> SweepResult:
    """Run every cell of ``matrix``; fan out over ``workers`` processes.

    ``on_result`` (if given) observes each record as it streams in —
    progress reporting, not transformation.  Cells that raise are
    collected as error records on the result; see
    :attr:`SweepResult.ok`.

    ``trace_dir`` + ``trace_sample=N`` record full span traces for the N
    lowest seeds of every group (a deterministic sample, so reruns
    overwrite the same files); ``flight_dir`` arms a flight recorder on
    every online cell, dumping ring-buffer JSONL only for cells that
    error, degrade or violate a protocol invariant.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if trace_sample < 0:
        raise ValueError(f"trace_sample must be >= 0, got {trace_sample}")
    sample_seeds: tuple[int, ...] = ()
    if trace_dir is not None and trace_sample > 0:
        sample_seeds = tuple(sorted(matrix.seeds)[:trace_sample])
    cells = matrix.cells()
    records: list[dict[str, Any]] = []
    errors: list[dict[str, Any]] = []
    started = time.perf_counter()
    task = partial(
        _run_cell_safe,
        trace_dir=None if trace_dir is None else str(trace_dir),
        flight_dir=None if flight_dir is None else str(flight_dir),
        sample_seeds=sample_seeds,
    )

    def fold(record: dict[str, Any]) -> None:
        (errors if "error" in record else records).append(record)
        if on_result is not None:
            on_result(record)

    if workers == 1:
        for cell in cells:
            fold(task(cell))
    else:
        with _pool_context().Pool(processes=workers) as pool:
            for record in pool.imap_unordered(task, cells, chunksize=1):
                fold(record)
    records.sort(key=lambda record: record["id"])
    errors.sort(key=lambda record: record["id"])
    return SweepResult(
        matrix=matrix,
        records=records,
        errors=errors,
        workers=workers,
        wall_time_s=time.perf_counter() - started,
    )
