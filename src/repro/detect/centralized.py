"""Baseline: the centralized checker process of Garg & Waldecker [7].

One checker actor receives every process's vector-clock snapshots and
runs the elimination algorithm online: it keeps one FIFO queue of
candidates per predicate process, eliminates any queue head that
happened before another head, and declares detection when all heads are
present and pairwise concurrent.

This is the algorithm the paper improves on: all ``O(n^2 m)`` work and
``O(n^2 m)`` bits of buffered snapshots land on a single process.  The
distributed token algorithm (experiment E7) matches its totals while
capping any one process at ``O(nm)``.
"""

from __future__ import annotations

from collections import deque

from repro.common.types import WORD_BITS
from repro.detect.base import DetectionReport, app_name
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.actors import Actor
from repro.simulation.kernel import Kernel
from repro.simulation.network import ChannelModel
from repro.simulation.replay import (
    CANDIDATE_KIND,
    END_OF_TRACE_KIND,
    FeedItem,
    SnapshotFeeder,
)
from repro.trace.computation import Computation
from repro.trace.cuts import Cut
from repro.trace.snapshots import vc_snapshots

__all__ = ["CheckerActor", "detect", "CHECKER_NAME"]

CHECKER_NAME = "checker"


class CheckerActor(Actor):
    """The single checker process.

    Candidate payloads are ``(slot, projected_vector)`` pairs.  The
    checker buffers candidates in per-slot queues (charged to its space
    gauge), eliminates dominated heads as snapshots arrive, and stops on
    the first consistent all-present head set — or once some slot is
    exhausted with its queue empty, when no satisfying cut can exist.
    """

    def __init__(self, n: int) -> None:
        super().__init__(CHECKER_NAME)
        self._n = n
        self.detected = False
        self.detected_cut: tuple[int, ...] | None = None
        self.detected_at: float | None = None
        self.eliminations = 0
        self.comparisons = 0

    def run(self):
        n = self._n
        queues: list[deque[tuple[int, ...]]] = [deque() for _ in range(n)]
        closed = [False] * n
        # Slots whose head changed and must be re-compared against all.
        pending: deque[int] = deque()
        in_pending = [False] * n

        def mark_pending(slot: int) -> None:
            if not in_pending[slot]:
                in_pending[slot] = True
                pending.append(slot)

        def hb(i: int, j: int) -> bool:
            # (i, head_i) happened before (j, head_j): Fidge-Mattern on
            # the projected vectors (own component is the interval index).
            return queues[i][0][i] <= queues[j][0][i]

        while True:
            msg = yield self.receive(CANDIDATE_KIND, END_OF_TRACE_KIND)
            if msg.kind == END_OF_TRACE_KIND:
                closed[msg.payload] = True
            else:
                slot, vector = msg.payload
                yield self.work(1)
                was_empty = not queues[slot]
                queues[slot].append(vector)
                self.metrics.adjust_space(self._n * WORD_BITS)
                if was_empty:
                    mark_pending(slot)
            # Drain the re-check queue: eliminate dominated heads.
            while pending:
                i = pending.popleft()
                in_pending[i] = False
                if not queues[i]:
                    continue
                for j in range(n):
                    if j == i or not queues[j]:
                        continue
                    yield self.work(2)
                    self.comparisons += 2
                    if hb(i, j):
                        loser = i
                    elif hb(j, i):
                        loser = j
                    else:
                        continue
                    queues[loser].popleft()
                    self.metrics.adjust_space(-self._n * WORD_BITS)
                    self.eliminations += 1
                    if queues[loser]:
                        mark_pending(loser)
                    if loser == i:
                        break
            # Verdicts.
            if any(closed[s] and not queues[s] for s in range(n)):
                return  # some slot can never supply a candidate again
            if all(queues[s] for s in range(n)):
                self.detected = True
                self.detected_cut = tuple(queues[s][0][s] for s in range(n))
                self.detected_at = self.now
                return


def detect(
    computation: Computation,
    wcp: WeakConjunctivePredicate,
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
    spacing: float = 1.0,
    observers: list | None = None,
) -> DetectionReport:
    """Run the centralized checker on a recorded computation."""
    wcp.check_against(computation.num_processes)
    pids = wcp.pids
    n = wcp.n
    kernel = Kernel(channel_model=channel_model, seed=seed, observers=observers)
    checker = CheckerActor(n)
    kernel.add_actor(checker)
    streams = vc_snapshots(computation, wcp.predicate_map())
    for slot, pid in enumerate(pids):
        items = [
            FeedItem(
                payload=(slot, snap.vector.project(pids)),
                size_bits=n * WORD_BITS,
                time=snap.time,
            )
            for snap in streams[pid]
        ]
        feeder = _SlotFeeder(app_name(pid), CHECKER_NAME, items, slot, spacing)
        kernel.add_actor(feeder)
    sim = kernel.run()
    extras = {
        "comparisons": checker.comparisons,
        "eliminations": checker.eliminations,
    }
    if checker.detected:
        assert checker.detected_cut is not None
        return DetectionReport(
            detector="centralized",
            detected=True,
            cut=Cut(pids, checker.detected_cut),
            detection_time=checker.detected_at,
            sim=sim,
            metrics=kernel.metrics,
            extras=extras,
        )
    return DetectionReport(
        detector="centralized",
        detected=False,
        sim=sim,
        metrics=kernel.metrics,
        extras=extras,
    )


class _SlotFeeder(SnapshotFeeder):
    """A snapshot feeder whose end-of-trace marker names its slot.

    The checker multiplexes all processes on one mailbox, so the marker
    must say *which* stream ended.
    """

    def __init__(
        self,
        name: str,
        monitor: str,
        items: list[FeedItem],
        slot: int,
        spacing: float = 1.0,
    ) -> None:
        super().__init__(name, monitor, items, spacing)
        self._slot = slot

    def run(self):
        for item in self._items:
            if item.time is not None:
                if item.time > self.now:
                    yield self.sleep(item.time - self.now)
            else:
                yield self.sleep(self._spacing)
            yield self.send(
                self._monitor,
                item.payload,
                kind=CANDIDATE_KIND,
                size_bits=item.size_bits,
            )
        yield self.send(
            self._monitor, self._slot, kind=END_OF_TRACE_KIND, size_bits=1
        )
