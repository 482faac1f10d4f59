#!/usr/bin/env python
"""Alternating A/B pairs of end-to-end runs: a parent tree against a change.

Each tree gets one persistent worker process.  A worker puts its tree's
``src/`` first on ``sys.path``, checks that ``repro`` really comes from
there (as ``benchmarks/e2e/run.py`` does), and imports the *same*
``benchmarks/e2e/workloads.py`` — the one beside this tool — so the
benchmark code is identical on both sides and only the library differs.
Both workers prepare the workload once, untimed.

Run ``k`` replays trace ``k mod pool`` on both sides, one ``attempt()``
each, alternating which side goes first.  Each attempt is timed by
wall clock and by ``time.process_time()``, the worker's CPU time, which
a busy shared host disturbs less.  The tool prints each side's median
and quartiles, the median paired ratio change/parent and how many runs
the change was lower, for CPU and for wall time.

Usage::

    python tools/ab_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        --seed S --runs N [--smoke]

A tree is a checkout with ``src/repro``, such as ``git clone`` of the
parent commit.  Exit status: 0 when every verdict on both sides held;
1 on a failed verdict or a worker error; 2 for a tree without
``src/repro``.
"""

from __future__ import annotations

import argparse
import gc
import multiprocessing
import statistics
import sys
import time
import traceback
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _serve(conn, tree: str, workload: str, seed: int, smoke: bool) -> None:
    """Worker: prepare one workload from ``tree``, then time attempts.

    Replies ``("ready", pool)`` once prepared, then one ``(wall, cpu,
    failed)`` per run index received, until it receives ``None``.  Any
    exception is sent back as ``("error", text)``.
    """
    try:
        src = (Path(tree) / "src").resolve()
        sys.path[:0] = [str(src), str(E2E)]
        import repro

        if not Path(repro.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"repro was imported from outside {src}")
        import workloads

        prep = workloads.prepare(workloads.BY_NAME[workload], seed, smoke)
        conn.send(("ready", len(prep.texts)))
        while (index := conn.recv()) is not None:
            gc.collect()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            _wall, outcome = workloads.attempt(prep, index)
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
            conn.send((wall, cpu, outcome.failed))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class Side:
    """One tree's worker and the runs it timed."""

    def __init__(self, label: str, tree: Path, args, context) -> None:
        self.label = label
        self.tree = tree
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.failed = 0
        self.conn, child = context.Pipe()
        self.proc = context.Process(
            target=_serve,
            args=(child, str(tree), args.workload, args.seed, args.smoke),
        )
        self.proc.start()
        child.close()

    def receive(self):
        reply = self.conn.recv()
        if reply[0] == "error":
            raise RuntimeError(f"{self.label} worker ({self.tree}):\n{reply[1]}")
        return reply

    def run(self, index: int) -> None:
        self.conn.send(index)
        wall, cpu, failed = self.receive()
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.failed += failed

    def close(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(parent: Side, change: Side) -> None:
    for what, unit in (("cpus", "cpu"), ("walls", "wall")):
        for side in (parent, change):
            q1, median, q3 = quartiles(getattr(side, what))
            print(
                f"{side.label:6s} {unit:4s} median {median * 1e3:9.3f} ms  "
                f"q1 {q1 * 1e3:9.3f} ms  q3 {q3 * 1e3:9.3f} ms  "
                f"n={len(getattr(side, what))}"
            )
        pairs = list(zip(getattr(parent, what), getattr(change, what)))
        ratio = statistics.median(c / p for p, c in pairs)
        lower = sum(c < p for p, c in pairs)
        print(
            f"paired {unit:4s} ratio change/parent median {ratio:.3f}; "
            f"change lower in {lower}/{len(pairs)} runs"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, metavar="PARENT_TREE")
    parser.add_argument("change", type=Path, metavar="CHANGE_TREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's reduced smoke sizes")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "repro").is_dir():
            print(f"ab_pairs: {tree} has no src/repro", file=sys.stderr)
            return 2
    context = multiprocessing.get_context("spawn")
    parent = Side("parent", args.parent, args, context)
    change = Side("change", args.change, args, context)
    try:
        pool = min(parent.receive()[1], change.receive()[1])
        for k in range(args.runs):
            first, second = (parent, change) if k % 2 == 0 else (change, parent)
            first.run(k % pool)
            second.run(k % pool)
    except (RuntimeError, EOFError) as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        return 1
    finally:
        parent.close()
        change.close()
    print(
        f"ab_pairs: workload={args.workload} seed={args.seed} "
        f"runs={args.runs} smoke={args.smoke}"
    )
    print(f"parent {args.parent}\nchange {args.change}")
    report(parent, change)
    failed = parent.failed + change.failed
    if failed:
        print(f"ab_pairs: {failed} verdict(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
