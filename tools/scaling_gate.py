#!/usr/bin/env python
"""Multi-worker sweep scaling gate for CI.

Proves — on a runner that actually has the cores — that the sweep
harness's process fan-out delivers real speedup, and that paper units
are byte-identical no matter how many workers computed them:

1. run the matrix once untimed, failing fast on any erroring cell
   before anything is timed;
2. run the matrix at ``--workers 1`` and at ``--workers N`` and time
   both;
3. assert the two runs' per-cell paper units are byte-identical;
4. assert they match the committed baseline exactly (no drift);
5. assert wall speedup ``serial / fanned >= --min-speedup``.

The gate **hard-fails when the runner has fewer CPUs than the fanned
worker count** — a 1-core box cannot prove a 4-worker speedup, and
skipping would silently reinstate the stale "measured at cpu_count=1"
baseline this tool exists to kill.  Recording a new baseline with
``--record`` is allowed anywhere; the written document carries an
``environment`` block (real ``cpu_count``, worker counts, measured
speedup) so a reader can tell exactly what hardware produced it.

Usage::

    python tools/scaling_gate.py --matrix benchmarks/sweeps/scaling64.json \
        --baseline benchmarks/baselines/scaling64.json --min-speedup 2.5
    python tools/scaling_gate.py --matrix ... --baseline ... --record
"""

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.sweep import load_baseline, load_matrix, run_sweep  # noqa: E402
from repro.sweep.baseline import cell_units  # noqa: E402


def _units_dump(view: dict) -> str:
    return json.dumps(view, sort_keys=True)


def _diff_units(expected: dict, actual: dict, label: str) -> list[str]:
    lines = []
    for cell_id in sorted(set(expected) | set(actual)):
        exp, act = expected.get(cell_id), actual.get(cell_id)
        if exp != act:
            lines.append(f"  {label} {cell_id}: baseline={exp} fresh={act}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--matrix", type=pathlib.Path, required=True)
    parser.add_argument("--baseline", type=pathlib.Path, required=True)
    parser.add_argument("--workers", type=int, default=4,
                        help="fanned worker count (default 4)")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="required serial/fanned wall ratio (default 2.5)")
    parser.add_argument("--summary-out", type=pathlib.Path, default=None,
                        metavar="FILE",
                        help="append a markdown summary (e.g. "
                             "$GITHUB_STEP_SUMMARY)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the baseline from the fanned run "
                             "(with honest environment metadata) instead "
                             "of gating")
    args = parser.parse_args()

    cpus = os.cpu_count() or 1
    if not args.record and cpus < args.workers:
        print(
            f"error: runner has {cpus} CPU(s) but the gate needs "
            f">= {args.workers} to prove a {args.workers}-worker speedup; "
            f"failing instead of skipping (see tools/scaling_gate.py)",
            file=sys.stderr,
        )
        return 2

    matrix = load_matrix(args.matrix)
    print(
        f"matrix {matrix.name}: {matrix.num_cells} cells; "
        f"cpu_count={cpus}; workers 1 vs {args.workers}"
    )

    warm = run_sweep(matrix, workers=1)
    if not warm.ok:
        for error in warm.errors:
            print(f"error: cell {error['id']}: {error['error']}",
                  file=sys.stderr)
        return 3

    started = time.perf_counter()
    serial = run_sweep(matrix, workers=1)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    fanned = run_sweep(matrix, workers=args.workers)
    fanned_s = time.perf_counter() - started
    if not (serial.ok and fanned.ok):
        return 3

    speedup = serial_s / fanned_s if fanned_s > 0 else float("inf")
    print(f"serial:  {serial_s:7.3f}s  ({len(serial.records)} cells)")
    print(f"fanned:  {fanned_s:7.3f}s  (workers={args.workers})")
    print(f"speedup: {speedup:.2f}x  (gate: >= {args.min_speedup:.1f}x)")

    identical = _units_dump(serial.paper_units_view()) == _units_dump(
        fanned.paper_units_view()
    )
    if not identical:
        print("error: paper units depend on worker count", file=sys.stderr)
        print(
            "\n".join(
                _diff_units(
                    serial.paper_units_view(),
                    fanned.paper_units_view(),
                    "workers",
                )
            ),
            file=sys.stderr,
        )
        return 1

    if args.summary_out is not None:
        with args.summary_out.open("a", encoding="utf-8") as fh:
            fh.write(
                f"### scaling gate: {matrix.name}\n\n"
                f"| workers | wall (s) | speedup |\n|---|---|---|\n"
                f"| 1 | {serial_s:.3f} | 1.00x |\n"
                f"| {args.workers} | {fanned_s:.3f} | {speedup:.2f}x |\n\n"
                f"cpu_count={cpus}; units identical across worker counts; "
                f"gate >= {args.min_speedup:.1f}x\n\n"
            )

    if args.record:
        doc = fanned.aggregate()
        doc["environment"] = {
            "cpu_count": cpus,
            "serial_workers": 1,
            "fanned_workers": args.workers,
            "serial_wall_s": round(serial_s, 3),
            "fanned_wall_s": round(fanned_s, 3),
            "measured_speedup": round(speedup, 2),
        }
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(
            json.dumps(doc, indent=2, default=str) + "\n", encoding="utf-8"
        )
        print(f"recorded {args.baseline} (cpu_count={cpus})")
        return 0

    baseline_units = cell_units(
        load_baseline(args.baseline), str(args.baseline)
    )
    fresh_units = serial.paper_units_view()
    if baseline_units != fresh_units:
        print(
            f"error: paper units diverge from {args.baseline}",
            file=sys.stderr,
        )
        print(
            "\n".join(_diff_units(baseline_units, fresh_units, "cell")),
            file=sys.stderr,
        )
        return 1
    print(f"paper units match {args.baseline} ({len(fresh_units)} cells)")

    if speedup < args.min_speedup:
        print(
            f"error: speedup {speedup:.2f}x below the "
            f"{args.min_speedup:.1f}x gate on a {cpus}-CPU runner",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
