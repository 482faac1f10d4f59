"""Baseline: the centralized checker process of Garg & Waldecker [7].

One checker actor receives every process's vector-clock snapshots and
runs the elimination algorithm online
(:class:`~repro.detect.elimination.Elimination`): it keeps one FIFO
queue of candidates per predicate process, eliminates any queue head
that happened before another head, and declares detection when all
heads are present and pairwise concurrent.

This is the algorithm the paper improves on: all ``O(n^2 m)`` work and
``O(n^2 m)`` bits of buffered snapshots land on a single process.  The
distributed token algorithm (experiment E7) matches its totals while
capping any one process at ``O(nm)``.

The same actor and launch serve [6]'s online checker for linear channel
predicates (:mod:`repro.detect.gcp_online`), which adds a channel-clause
phase after each elimination pass.
"""

from __future__ import annotations

from typing import Sequence

from repro.detect.base import DetectionReport, app_name
from repro.detect.elimination import Elimination
from repro.detect.token_vc import candidate_feed_items
from repro.predicates.channel import LinearChannelPredicate
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

__all__ = ["CheckerActor", "detect", "run_checker", "CHECKER_NAME"]

CHECKER_NAME = "checker"


class CheckerActor(Actor):
    """The single checker process of [7], or of [6] given ``channels``.

    [7]'s candidates are projected vector clocks (the Fig. 2 stream);
    [6]'s are :class:`~repro.trace.snapshots.GCPSnapshot` objects,
    which also carry channel counters.  A candidate's slot is that of
    the feeder that sent it.  The checker buffers each candidate's
    ``size_bits`` on its space gauge and charges one work unit per
    candidate, one per happened-before test and one per channel clause
    evaluated.  Once the heads are pairwise concurrent, [6]'s clauses
    are evaluated in order; the first false one deletes its culprit's
    head and elimination resumes.  The checker stops on the first
    all-present head set that survives — or once some slot is exhausted
    with its queue empty, when no satisfying cut can exist.
    """

    def __init__(
        self,
        pids: tuple[int, ...],
        channels: Sequence[LinearChannelPredicate] | None = None,
    ) -> None:
        super().__init__(CHECKER_NAME)
        self._pids = pids
        self._slot_of = {app_name(pid): slot for slot, pid in enumerate(pids)}
        self._gcp = channels is not None
        self._clauses = [
            (c, pids.index(c.src), pids.index(c.dest), pids.index(c.culprit()))
            for c in channels or ()
        ]
        self.elimination = Elimination(len(pids))
        self.channel_eliminations = 0
        self.detected_cut: tuple[int, ...] | None = None
        self.detected_at: float | None = None

    def run(self):
        elim = self.elimination
        closed = [False] * len(self._pids)
        while True:
            msg = yield self.receive(CANDIDATE_KIND, END_OF_TRACE_KIND)
            slot = self._slot_of[msg.src]
            work = 0
            if msg.kind == END_OF_TRACE_KIND:
                closed[slot] = True
            else:
                work += 1
                clock = msg.payload
                if self._gcp:
                    clock = clock.vector.project(self._pids)
                elim.push(slot, clock, msg)
                self.metrics.adjust_space(msg.size_bits)
            comparisons = elim.comparisons
            deleted = elim.eliminate()
            while all(elim.queues):
                for clause, src, dest, loser in self._clauses:
                    work += 1
                    count = (
                        elim.head(src).payload.sends[clause.dest]
                        - elim.head(dest).payload.recvs[clause.src]
                    )
                    if not clause.holds_for_count(count):
                        break
                else:
                    break  # every channel clause holds at the heads
                deleted.append(elim.pop(loser))
                self.channel_eliminations += 1
                deleted += elim.eliminate()
            work += elim.comparisons - comparisons
            if work:
                yield self.work(work)
            # A pass only releases, so releasing once after it keeps the
            # gauge's high-water mark.
            if deleted:
                self.metrics.adjust_space(-sum(m.size_bits for m in deleted))
            if any(closed[s] and not q for s, q in enumerate(elim.queues)):
                return  # some slot can never supply a candidate again
            heads = elim.heads()
            if heads is not None:
                self.detected_cut = heads
                self.detected_at = self.now
                return


def run_checker(
    wcp: WeakConjunctivePredicate,
    items_by_pid: dict[int, list[FeedItem]],
    channels: Sequence[LinearChannelPredicate] | None = None,
    *,
    seed: int,
    channel_model: ChannelModel | None,
    spacing: float,
    observers: list | None = None,
) -> DetectionReport:
    """One checker run: the checker of [7], or of [6] given
    ``channels``, fed ``items_by_pid[pid]`` by one plain snapshot
    feeder per predicate process."""
    kernel = Kernel(channel_model=channel_model, seed=seed, observers=observers)
    checker = CheckerActor(wcp.pids, channels)
    kernel.add_actor(checker)
    for pid in wcp.pids:
        kernel.add_actor(
            SnapshotFeeder(app_name(pid), CHECKER_NAME, items_by_pid[pid], spacing)
        )
    sim = kernel.run()
    elim = checker.elimination
    extras = {"comparisons": elim.comparisons, "eliminations": elim.eliminations}
    if channels is not None:
        extras["channel_eliminations"] = checker.channel_eliminations
    cut = checker.detected_cut
    return DetectionReport(
        detector="centralized" if channels is None else "gcp_online",
        detected=cut is not None,
        cut=None if cut is None else Cut(wcp.pids, cut),
        detection_time=checker.detected_at,
        sim=sim,
        metrics=kernel.metrics,
        extras=extras,
    )


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
    items = candidate_feed_items(computation, wcp.predicate_map(), wcp.pids)
    return run_checker(
        wcp, items, seed=seed, channel_model=channel_model, spacing=spacing,
        observers=observers,
    )
