#!/usr/bin/env python
"""Kernel microbenchmark: envelope interning on a live token ring.

A token ring drives one message per hop through the live kernel with
the ``Message`` constructor instrumented, once with the intern pool
active and once disabled.  Each mode is one row: ``events`` is
``messages_delivered`` and ``intervals`` counts envelope constructions —
both deterministic, so the baseline pins them exactly.  The gate
requires interning to eliminate at least 99% of envelope constructions
(``--max-intern-fraction``).  Wall time for these rows is measured in a
separate uninstrumented run so the counting wrapper's overhead never
flatters the pool.

Whole-run costs of trace ingest and interval analysis are measured by
the end-to-end benchmark (``benchmarks/e2e/run.py``), not here.

The committed baseline lives at
``benchmarks/baselines/micro/kernel_micro.json`` (a ``repro-bench/1``
document; the ``micro/`` subdir keeps it out of the sweep-replay glob).
CI runs ``--check`` against it: counted quantities must match exactly,
wall-dependent columns are informational.  Re-record with ``--update``
after an intentional workload change.

Usage::

    python benchmarks/bench_kernel_micro.py                  # measure + gate
    python benchmarks/bench_kernel_micro.py --check benchmarks/baselines/micro/kernel_micro.json
    python benchmarks/bench_kernel_micro.py --update
"""

import argparse
import gc
import json
import pathlib
import sys
import time
from types import SimpleNamespace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.obs.benchjson import (  # noqa: E402
    load_benchmark_json,
    structured_result,
)
from repro.simulation import kernel as kernel_mod  # noqa: E402
from repro.simulation.actors import Actor  # noqa: E402
from repro.simulation.effects import Message  # noqa: E402
from repro.simulation.kernel import Kernel  # noqa: E402

#: (actors, hops) for the envelope-interning token ring.
RING_SHAPE = (16, 20000)
DEFAULT_REPS = 5
DEFAULT_BASELINE = (
    pathlib.Path(__file__).resolve().parent
    / "baselines"
    / "micro"
    / "kernel_micro.json"
)

HEADERS = [
    "backend",
    "n",
    "m",
    "events",
    "intervals",
    "wall_s",
    "events_per_sec",
    "allocs_per_event",
]
#: columns compared exactly against the baseline (wall-independent).
COUNTED = ("backend", "n", "m", "events", "intervals")


class _RingActor(Actor):
    """Forward a hop counter around a ring; one live message at a time."""

    def __init__(self, idx: int, count: int, hops: int) -> None:
        super().__init__(f"ring-{idx}")
        self._next = f"ring-{(idx + 1) % count}"
        self._hops = hops
        self._initiator = idx == 0

    def run(self):
        if self._initiator:
            yield self.send(self._next, 0, kind="tok", size_bits=64)
        while True:
            msg = yield self.receive("tok")
            hop = msg.payload + 1
            if hop >= self._hops:
                return
            yield self.send(self._next, hop, kind="tok", size_bits=64)


def _ring_kernel(intern: bool, actors: int, hops: int) -> Kernel:
    kernel = Kernel(seed=0)
    if not intern:
        kernel._intern = False
    for i in range(actors):
        kernel.add_actor(_RingActor(i, actors, hops))
    return kernel


def measure_interning(reps: int) -> list[dict]:
    """One row per intern mode: envelope constructions + wall time."""
    actors, hops = RING_SHAPE
    rows = []
    for intern in (True, False):
        # Counted pass: instrument the kernel's Message binding.
        constructions = [0]

        def counting(*args, **kwargs):
            constructions[0] += 1
            return Message(*args, **kwargs)

        kernel_mod.Message = counting
        try:
            delivered = _ring_kernel(intern, actors, hops).run().messages_delivered
        finally:
            kernel_mod.Message = Message
        # Wall pass: uninstrumented, min over reps.
        walls = []
        for _ in range(reps):
            gc.collect()
            start = time.perf_counter()
            _ring_kernel(intern, actors, hops).run()
            walls.append(time.perf_counter() - start)
        wall = min(walls)
        rows.append(
            {
                "backend": "intern-on" if intern else "intern-off",
                "n": actors,
                "m": hops,
                "events": delivered,
                "intervals": constructions[0],
                "wall_s": round(wall, 6),
                "events_per_sec": round(delivered / wall, 1),
                "allocs_per_event": round(constructions[0] / delivered, 3),
            }
        )
    return rows


def run(reps: int, max_intern_fraction: float) -> dict:
    rows = measure_interning(reps)
    by_mode = {row["backend"]: row for row in rows}
    on, off = by_mode["intern-on"], by_mode["intern-off"]
    for row in rows:
        print(
            f"ring {row['backend']:10s} delivered={row['events']:6d} "
            f"constructions={row['intervals']:6d} wall={row['wall_s']:.4f}s "
            f"msgs/s={row['events_per_sec']:10.1f}"
        )
    fraction = on["intervals"] / off["intervals"]
    print(
        f"envelope interning keeps {on['intervals']} of {off['intervals']} "
        f"constructions ({fraction:.4%}; gate: <= {max_intern_fraction:.0%})"
    )
    assert off["intervals"] == off["events"], (
        "with interning off, every delivered message must be a fresh "
        f"construction ({off['intervals']} != {off['events']})"
    )
    assert fraction <= max_intern_fraction, (
        f"interning leaves {fraction:.2%} of envelope constructions; "
        f"gate is <= {max_intern_fraction:.0%}"
    )
    notes = [
        "wall-dependent columns are informational; counted columns "
        "(events, intervals) are compared exactly against the baseline",
        "intern-* rows: events = messages delivered on the token ring, "
        "intervals = Message constructions (deterministic; the pool must "
        f"keep the on/off ratio <= {max_intern_fraction:.0%})",
    ]
    result = SimpleNamespace(
        experiment="kernel-micro: envelope interning on a token ring",
        headers=HEADERS,
        rows=[[row[h] for h in HEADERS] for row in rows],
        fits={},
        notes=notes,
    )
    return structured_result(
        result,
        params={
            "ring_shape": list(RING_SHAPE),
            "reps": reps,
            "max_intern_fraction": max_intern_fraction,
        },
        wall_time_s=sum(row["wall_s"] for row in rows),
    )


def check_against(doc: dict, baseline_path: pathlib.Path) -> None:
    """Counted quantities must match the committed baseline exactly."""
    baseline = load_benchmark_json(baseline_path)
    idx = {name: HEADERS.index(name) for name in COUNTED}

    def counted(payload: dict) -> list[tuple]:
        headers = payload["headers"]
        pick = [headers.index(name) for name in COUNTED]
        return sorted(tuple(row[i] for i in pick) for row in payload["rows"])

    expected = counted(baseline)
    actual = [
        tuple(row[idx[name]] for name in COUNTED)
        for row in sorted(doc["rows"], key=lambda r: (r[1], r[2], r[0]))
    ]
    actual.sort()
    if expected != actual:
        missing = [row for row in expected if row not in actual]
        extra = [row for row in actual if row not in expected]
        raise SystemExit(
            f"counted quantities diverge from {baseline_path}:\n"
            f"  baseline-only: {missing}\n  fresh-only:    {extra}"
        )
    print(f"counted quantities match {baseline_path} ({len(expected)} rows)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument("--max-intern-fraction", type=float, default=0.01)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        metavar="BASELINE",
        help="compare counted quantities against a committed baseline",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help=f"re-record the default baseline at {DEFAULT_BASELINE}",
    )
    args = parser.parse_args()
    doc = run(args.reps, args.max_intern_fraction)
    if args.check is not None:
        check_against(doc, args.check)
    out = args.out
    if args.update:
        out = DEFAULT_BASELINE
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
