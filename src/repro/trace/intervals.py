"""Interval analysis: the paper's state granularity, computed over a trace.

Fig. 2 of the paper increments the application vector clock *after* every
send and receive, and emits at most one local snapshot per clock value
(``firstflag``).  A clock value therefore names a **communication
interval**: a maximal block of local states with no intervening
communication event.  All detection algorithms in the paper operate at
this granularity, and so does this library.

For a process with events ``e_0 .. e_{T-1}`` the local states are
``s_0`` (initial) through ``s_T`` (post-state of ``e_{T-1}``).  State
``s_t`` belongs to interval ``1 + #comm(e_0..e_{t-1})``.  Consequences:

* a SEND is the last event of the interval it is tagged with (the tag is
  taken before the clock increments);
* a RECV's post-state opens a new interval whose vector has absorbed the
  sender's tag;
* every interval contains at least one local state.

:class:`IntervalAnalysis` computes eagerly, in one pass per process and
without any causal ordering:

* the interval index of every local state,
* the scalar interval tag carried by every message (§4.1 counters) —
  the interval its send closes,
* the direct dependence ``(sender, tag)`` recorded at every receive
  (§4.1).

That is all the §4 detectors read.  The full-width (N-component) vector
clock of every interval is built only on the first :meth:`vector`,
:meth:`projected_vector` or :meth:`happened_before` call, by one sweep in
the wake-list order of :meth:`Computation.causal_runs`; happened-before
queries between interval states then use the paper's vector-clock
properties.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from repro.clocks.dependence import Dependence
from repro.clocks.vector import VectorClock
from repro.common.errors import CutError
from repro.common.types import Pid, StateRef
from repro.trace.computation import Computation
from repro.trace.events import EventKind

__all__ = ["IntervalAnalysis"]


class IntervalAnalysis:
    """Cached per-interval causal structure of a :class:`Computation`.

    Construction is ``O(E)`` where ``E`` is the total event count; the
    vector clocks cost ``O(E * N)`` more, paid on first read.  Prefer
    :meth:`Computation.analysis` (lazily cached) over constructing this
    directly when repeated queries are needed.
    """

    def __init__(self, computation: Computation) -> None:
        self._computation = computation
        send_kind, internal = EventKind.SEND, EventKind.INTERNAL
        # Per process: interval index of each local state s_0..s_T.
        self._state_intervals: list[list[int]] = []
        # Per process: number of intervals = 1 + #comm events.
        self._num_intervals: list[int] = []
        self._send_tags: dict[int, int] = {}
        received: list[list[tuple[int, Pid, int]]] = []
        for trace in computation.processes:
            intervals = [1]
            current = 1
            recvs: list[tuple[int, Pid, int]] = []
            for idx, event in enumerate(trace.events):
                kind = event.kind
                if kind is not internal:
                    if kind is send_kind:
                        self._send_tags[event.msg_id] = current
                    else:
                        recvs.append((idx, event.peer, event.msg_id))
                    current += 1
                intervals.append(current)
            self._state_intervals.append(intervals)
            self._num_intervals.append(current)
            received.append(recvs)
        tags = self._send_tags
        self._recv_deps: list[list[tuple[int, Dependence]]] = [
            [(idx, Dependence(peer, tags[msg_id])) for idx, peer, msg_id in recvs]
            for recvs in received
        ]
        self._vectors: list[list[VectorClock]] | None = None

    # ------------------------------------------------------------------
    # Vector clocks, built on first read
    # ------------------------------------------------------------------
    def _build_vectors(self) -> list[list[VectorClock]]:
        """One sweep over :meth:`Computation.causal_runs`.

        A working list per process is ticked and merged in place; each
        interval freezes one tuple-backed clock, adopted without
        re-validation.  A send's frozen tuple doubles as the message's
        tag until the receive merges it.
        """
        comp = self._computation
        n = comp.num_processes
        events = [trace.events for trace in comp.processes]
        trusted = VectorClock._trusted
        internal, send_kind = EventKind.INTERNAL, EventKind.SEND
        vectors: list[list[VectorClock]] = [[] for _ in range(n)]
        working: list[list[int]] = []
        for pid in range(n):
            buf = [0] * n
            buf[pid] = 1
            working.append(buf)
        tags: dict[int, tuple[int, ...]] = {}
        for pid, start, stop in comp.causal_runs():
            buf = working[pid]
            vectors_p = vectors[pid]
            events_p = events[pid]
            for i in range(start, stop):
                event = events_p[i]
                kind = event.kind
                if kind is internal:
                    continue
                frozen = tuple(buf)
                vectors_p.append(trusted(frozen))
                if kind is send_kind:
                    tags[event.msg_id] = frozen
                else:  # RECV: each message is received once
                    for k, v in enumerate(tags.pop(event.msg_id)):
                        if v > buf[k]:
                            buf[k] = v
                buf[pid] += 1
        # The final (open) interval of every process.
        for pid in range(n):
            vectors[pid].append(trusted(tuple(working[pid])))
            assert len(vectors[pid]) == self._num_intervals[pid]
        self._vectors = vectors
        return vectors

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def computation(self) -> Computation:
        """The analyzed computation."""
        return self._computation

    @property
    def vectors_built(self) -> bool:
        """Whether a vector-clock read has built the interval vectors."""
        return self._vectors is not None

    def num_intervals(self, pid: Pid) -> int:
        """Number of communication intervals on process ``pid``."""
        return self._num_intervals[pid]

    def interval_of_state(self, pid: Pid, state_index: int) -> int:
        """Interval containing local state ``s_{state_index}`` of ``pid``."""
        return self._state_intervals[pid][state_index]

    def states_in_interval(self, pid: Pid, interval: int) -> range:
        """The contiguous range of local-state indices inside ``interval``."""
        self._check_interval(pid, interval)
        intervals = self._state_intervals[pid]
        lo = bisect.bisect_left(intervals, interval)
        hi = bisect.bisect_right(intervals, interval)
        return range(lo, hi)

    def vector(self, pid: Pid, interval: int) -> VectorClock:
        """The full-width vector clock of interval ``(pid, interval)``.

        Width is ``N``; detection algorithms over a predicate subset
        project it with :meth:`projected_vector`.  The first call builds
        the clocks of every interval.
        """
        self._check_interval(pid, interval)
        vectors = self._vectors or self._build_vectors()
        return vectors[pid][interval - 1]

    def projected_vector(
        self, pid: Pid, interval: int, pids: Sequence[Pid]
    ) -> tuple[int, ...]:
        """The vector of ``(pid, interval)`` restricted to ``pids``.

        This models the width-``n`` clock the paper's §3 application
        processes would carry when the predicate names only ``n`` of the
        ``N`` processes (the other processes still forward the clock).
        """
        return self.vector(pid, interval).project(pids)

    def send_tag(self, msg_id: int) -> int:
        """The scalar interval counter attached to message ``msg_id`` (§4.1)."""
        return self._send_tags[msg_id]

    def receive_dependences(self, pid: Pid) -> tuple[tuple[int, Dependence], ...]:
        """All ``(recv_event_index, dependence)`` pairs recorded by ``pid``,
        in receive order (§4.1's dependence list before any flush)."""
        return tuple(self._recv_deps[pid])

    # ------------------------------------------------------------------
    # Happened-before at interval granularity
    # ------------------------------------------------------------------
    def happened_before(self, a: StateRef, b: StateRef) -> bool:
        """Paper property 1 specialized to interval states.

        For states on the same process this is local order; across
        processes, ``(i, x) -> (j, y)`` iff ``x <= vector(j, y)[i]``.
        """
        self._check_interval(a.pid, a.interval)
        self._check_interval(b.pid, b.interval)
        if a.pid == b.pid:
            return a.interval < b.interval
        return a.interval <= self.vector(b.pid, b.interval)[a.pid]

    def concurrent(self, a: StateRef, b: StateRef) -> bool:
        """True iff neither interval state happened before the other."""
        if a == b:
            return False
        return not self.happened_before(a, b) and not self.happened_before(b, a)

    def directly_precedes(self, a: StateRef, b: StateRef) -> bool:
        """The §4 direct-dependence relation ``a ->_d b``.

        True iff ``a`` and ``b`` are on the same process with ``a`` first,
        or a single message sent at-or-after ``a`` was received at-or-
        before ``b``.  At interval granularity: some message whose send
        closed interval ``x >= a.interval`` on ``a.pid`` was received by
        ``b.pid`` with the receive opening an interval ``<= b.interval``.
        """
        if a.pid == b.pid:
            return a.interval < b.interval
        self._check_interval(a.pid, a.interval)
        self._check_interval(b.pid, b.interval)
        for recv_idx, dep in self._recv_deps[b.pid]:
            if dep.source != a.pid or dep.clock < a.interval:
                continue
            opened = self._state_intervals[b.pid][recv_idx + 1]
            if opened <= b.interval:
                return True
        return False

    # ------------------------------------------------------------------
    # Internal checks
    # ------------------------------------------------------------------
    def _check_interval(self, pid: Pid, interval: int) -> None:
        if not 0 <= pid < self._computation.num_processes:
            raise CutError(
                f"pid {pid} out of range (N={self._computation.num_processes})"
            )
        if not 1 <= interval <= self._num_intervals[pid]:
            raise CutError(
                f"interval {interval} out of range for P{pid} "
                f"(has {self._num_intervals[pid]})"
            )
