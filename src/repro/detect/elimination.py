"""Garg–Waldecker elimination: the queue-head loop of [7], [6] and the
incremental detector.

A checker keeps one FIFO queue of candidates per predicate slot.  A
head that happened before another head is not in any satisfying cut
with that head or its successors, so it is deleted; once every queue
has a head and no head happened before another, the heads form the
first satisfying cut.  A candidate is compared by its slot-indexed
clock, its vector clock projected onto the predicate's pids: the head
of slot ``i`` happened before the head of slot ``j`` iff
``clock_i[i] <= clock_j[i]`` (Fidge–Mattern; the own component is the
interval index).

The loop exists once, here.  The centralized checkers of [7] and [6]
(:class:`repro.detect.centralized.CheckerActor`, which adds [6]'s
channel clauses after each pass) and
:class:`repro.detect.incremental.IncrementalDetector` run it.  The
offline oracle (:mod:`repro.detect.reference`) and the strong-predicate
detector (:mod:`repro.detect.strong`) keep their own loops: the first
is what every detector is checked against, and the second is offline,
stops as soon as a queue empties and discards a true interval by the
enter→exit relation, not by clock order.
"""

from __future__ import annotations

from collections import deque

__all__ = ["Elimination"]


class Elimination:
    """Per-slot candidate queues and the worklist of heads to re-check.

    Each queue entry is ``(clock, item)``: ``item`` is whatever the host
    wants back when the entry is deleted or read as a head.
    ``comparisons`` counts two per compared pair of heads (both
    happened-before tests); ``eliminations`` counts deleted heads.
    """

    def __init__(self, n: int) -> None:
        self.queues: list[deque[tuple[tuple[int, ...], object]]] = [
            deque() for _ in range(n)
        ]
        self._pending: deque[int] = deque()
        self._in_pending = [False] * n
        self.comparisons = 0
        self.eliminations = 0

    def _mark(self, slot: int) -> None:
        if not self._in_pending[slot]:
            self._in_pending[slot] = True
            self._pending.append(slot)

    def push(self, slot: int, clock: tuple[int, ...], item: object = None) -> None:
        """Queue a candidate of ``slot``; a new head awaits re-checking."""
        queue = self.queues[slot]
        queue.append((clock, item))
        if len(queue) == 1:
            self._mark(slot)

    def pop(self, slot: int) -> object:
        """Delete ``slot``'s head and return its item; the next head,
        if any, awaits re-checking."""
        queue = self.queues[slot]
        item = queue.popleft()[1]
        self.eliminations += 1
        if queue:
            self._mark(slot)
        return item

    def eliminate(self) -> list[object]:
        """Re-check every waiting head against every other head,
        deleting each that happened before another, until none waits.
        Returns the deleted items in deletion order."""
        queues = self.queues
        pending = self._pending
        deleted = []
        while pending:
            i = pending.popleft()
            self._in_pending[i] = False
            if not queues[i]:
                continue
            for j in range(len(queues)):
                if j == i or not queues[j]:
                    continue
                self.comparisons += 2
                if queues[i][0][0][i] <= queues[j][0][0][i]:
                    loser = i
                elif queues[j][0][0][j] <= queues[i][0][0][j]:
                    loser = j
                else:
                    continue
                deleted.append(self.pop(loser))
                if loser == i:
                    break
        return deleted

    def head(self, slot: int) -> object:
        """The item at the head of ``slot``'s queue."""
        return self.queues[slot][0][1]

    def heads(self) -> tuple[int, ...] | None:
        """Each head's interval (its clock's own component) once every
        queue has a head, else None.  After :meth:`eliminate` this is
        the first cut satisfying the predicate."""
        queues = self.queues
        if not all(queues):
            return None
        return tuple(queue[0][0][s] for s, queue in enumerate(queues))
