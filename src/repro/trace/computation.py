"""The :class:`Computation`: a validated record of one distributed run.

A computation holds the per-process event sequences and performs the
cross-process validation that individual events cannot:

* every RECV names a message that exactly one SEND produced, with
  consistent sender/receiver endpoints;
* every message is received at most once (lost messages are forbidden by
  the model of §2, so by default every message must be received);
* the induced happened-before relation is acyclic (no causal paradoxes),
  checked by the same ``O(E)`` wake-list scheduler
  (:meth:`Computation.causal_runs`) that later builds vector clocks;
* optional event timestamps respect causality (a receive is never
  timestamped before its send).

The heavy per-interval analysis (vector clocks, dependences, candidate
extraction) lives in :mod:`repro.trace.intervals`; the computation only
caches the raw structure, and builds its message records on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.common.errors import InvalidComputationError
from repro.common.types import Pid
from repro.trace.events import Event, EventKind, ProcessTrace

__all__ = ["MessageRecord", "Computation"]


@dataclass(frozen=True, slots=True)
class MessageRecord:
    """Resolved endpoints of one application message."""

    msg_id: int
    sender: Pid
    send_index: int
    receiver: Pid
    recv_index: int


class _Match:
    """The SEND of every RECV, matched and checked.  Endpoints are held
    in four dicts of ints already alive, not a tuple per event; records
    are built on request.
    """

    __slots__ = ("processes", "sender", "send_at", "receiver", "recv_at")

    def __init__(
        self, processes: tuple[ProcessTrace, ...], allow_unreceived: bool
    ) -> None:
        internal, send_kind = EventKind.INTERNAL, EventKind.SEND
        count = len(processes)
        sender: dict[int, Pid] = {}
        send_at: dict[int, int] = {}
        receiver: dict[int, Pid] = {}
        recv_at: dict[int, int] = {}
        for pid, trace in enumerate(processes):
            for idx, event in enumerate(trace.events):
                kind = event.kind
                if kind is internal:
                    continue
                msg_id = event.msg_id
                if kind is send_kind:
                    if msg_id in sender:
                        raise InvalidComputationError(f"message {msg_id} sent twice")
                    peer = event.peer
                    if peer == pid:
                        raise InvalidComputationError(
                            f"P{pid} sends message {msg_id} to itself"
                        )
                    if not 0 <= peer < count:
                        raise InvalidComputationError(
                            f"send m{msg_id}: destination P{peer} does not exist"
                        )
                    sender[msg_id] = pid
                    send_at[msg_id] = idx
                else:
                    if msg_id in receiver:
                        raise InvalidComputationError(
                            f"message {msg_id} received twice"
                        )
                    receiver[msg_id] = pid
                    recv_at[msg_id] = idx

        for msg_id, pid in receiver.items():
            source = sender.get(msg_id)
            if source is None:
                raise InvalidComputationError(
                    f"message {msg_id} received but never sent"
                )
            dest = processes[source].events[send_at[msg_id]].peer
            if dest != pid:
                raise InvalidComputationError(
                    f"message {msg_id} sent to P{dest} but received by P{pid}"
                )
            claimed = processes[pid].events[recv_at[msg_id]].peer
            if claimed != source:
                raise InvalidComputationError(
                    f"message {msg_id} recv names sender P{claimed}, "
                    f"actual sender P{source}"
                )
        # Every receive matched a send, so equal counts mean all arrived.
        if not allow_unreceived and len(receiver) != len(sender):
            raise InvalidComputationError(
                f"messages sent but never received: "
                f"{sorted(set(sender) - set(receiver))} "
                f"(pass allow_unreceived=True to permit in-flight messages)"
            )
        self.processes = processes
        self.sender, self.send_at = sender, send_at
        self.receiver, self.recv_at = receiver, recv_at

    def check_times(self) -> None:
        """Raise if a message is timestamped as received before it was sent."""
        processes, sender, send_at = self.processes, self.sender, self.send_at
        for msg_id, pid in self.receiver.items():
            sent = processes[sender[msg_id]].events[send_at[msg_id]].time
            got = processes[pid].events[self.recv_at[msg_id]].time
            if sent is not None and got is not None and got < sent:
                raise InvalidComputationError(
                    f"message {msg_id} received at t={got} before sent at t={sent}"
                )

    def records(self) -> dict[int, MessageRecord]:
        """One :class:`MessageRecord` per received message, in receive order."""
        return {
            msg_id: MessageRecord(
                msg_id, self.sender[msg_id], self.send_at[msg_id],
                pid, self.recv_at[msg_id],
            )
            for msg_id, pid in self.receiver.items()
        }


class Computation:
    """An immutable, validated distributed computation.

    Parameters
    ----------
    processes:
        One :class:`ProcessTrace` per process; the list index is the
        process id.
    allow_unreceived:
        If True, SENDs without a matching RECV are permitted (messages
        still in flight when the recorded run ends).  The paper's model
        assumes no message loss, so this defaults to False.
    """

    __slots__ = ("_processes", "_messages", "_local_states", "_analysis")

    def __init__(
        self,
        processes: Sequence[ProcessTrace],
        allow_unreceived: bool = False,
    ) -> None:
        if not processes:
            raise InvalidComputationError("a computation needs at least one process")
        self._processes: tuple[ProcessTrace, ...] = tuple(processes)
        match = _Match(self._processes, allow_unreceived)
        self._check_acyclic()
        match.check_times()
        self._messages: dict[int, MessageRecord] | None = None
        self._local_states: tuple[tuple[Mapping[str, object], ...], ...] | None = None
        self._analysis = None

    def analysis(self):
        """The lazily computed, cached :class:`IntervalAnalysis` of this run."""
        if self._analysis is None:
            from repro.trace.intervals import IntervalAnalysis

            self._analysis = IntervalAnalysis(self)
        return self._analysis

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_processes(self) -> int:
        """The paper's ``N``: total number of processes in the system."""
        return len(self._processes)

    @property
    def processes(self) -> tuple[ProcessTrace, ...]:
        """The per-process traces."""
        return self._processes

    @property
    def messages(self) -> Mapping[int, MessageRecord]:
        """Message id -> resolved endpoints, for every received message.

        Built on first read: detection never reads it.
        """
        if self._messages is None:
            self._messages = _Match(self._processes, True).records()
        return self._messages

    def events_of(self, pid: Pid) -> tuple[Event, ...]:
        """The event sequence of process ``pid``."""
        self._check_pid(pid)
        return self._processes[pid].events

    def event(self, pid: Pid, index: int) -> Event:
        """The ``index``-th event of process ``pid``."""
        return self.events_of(pid)[index]

    def max_messages_per_process(self) -> int:
        """The paper's ``m``: max messages sent or received by any process."""
        return max(p.communication_count for p in self._processes)

    def total_events(self) -> int:
        """Total number of events across all processes."""
        return sum(len(p) for p in self._processes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Computation(N={self.num_processes}, events={self.total_events()}, "
            f"messages={len(self.messages)})"
        )

    # ------------------------------------------------------------------
    # Local states
    # ------------------------------------------------------------------
    def local_states(self, pid: Pid) -> tuple[Mapping[str, object], ...]:
        """All local states of ``pid``: the initial state followed by the
        post-state of every event (length ``len(events)+1``)."""
        if self._local_states is None:
            self._local_states = tuple(
                self._accumulate_states(p) for p in self._processes
            )
        self._check_pid(pid)
        return self._local_states[pid]

    @staticmethod
    def _accumulate_states(
        trace: ProcessTrace,
    ) -> tuple[Mapping[str, object], ...]:
        states: list[Mapping[str, object]] = [dict(trace.initial_vars)]
        current = dict(trace.initial_vars)
        for event in trace.events:
            if event.updates:
                current = dict(current)
                current.update(event.updates)
            states.append(current)
        return tuple(states)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_acyclic(self) -> None:
        """Drive :meth:`causal_runs` to the end; it raises on a cycle."""
        for _run in self.causal_runs():
            pass

    def _check_pid(self, pid: Pid) -> None:
        if not 0 <= pid < len(self._processes):
            raise InvalidComputationError(
                f"pid {pid} out of range (N={len(self._processes)})"
            )

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------
    def iter_events(self) -> Iterator[tuple[Pid, int, Event]]:
        """Iterate ``(pid, index, event)`` in pid-major order."""
        for pid, trace in enumerate(self._processes):
            for idx, event in enumerate(trace.events):
                yield pid, idx, event

    def causal_runs(self) -> Iterator[tuple[Pid, int, int]]:
        """Runs ``(pid, start, stop)`` of events in happened-before order.

        The wake-list scheduler: each process runs forward until it
        reaches a receive whose send has not run; that send wakes it.
        Every event of a yielded run may execute once all earlier runs
        have, so a consumer that processes runs in the order yielded
        sees every send before its receive.  ``O(E)`` total work.

        Raises :class:`InvalidComputationError` after the last run if a
        process is still blocked: the trace is acyclic if and only if
        every process reaches its end.
        """
        send_kind, recv_kind = EventKind.SEND, EventKind.RECV
        events = [trace.events for trace in self._processes]
        sent: set[int] = set()
        # Message id -> the pid parked at the receive of that message.
        blocked_on: dict[int, Pid] = {}
        position = [0] * len(events)
        ready = list(range(len(events)))
        while ready:
            pid = ready.pop()
            events_p = events[pid]
            start = i = position[pid]
            count = len(events_p)
            while i < count:
                event = events_p[i]
                kind = event.kind
                if kind is send_kind:
                    msg_id = event.msg_id
                    sent.add(msg_id)
                    waiter = blocked_on.pop(msg_id, None)
                    if waiter is not None:
                        ready.append(waiter)
                elif kind is recv_kind and event.msg_id not in sent:
                    blocked_on[event.msg_id] = pid
                    break
                i += 1
            position[pid] = i
            if i > start:
                yield pid, start, i
        if blocked_on:
            raise InvalidComputationError(
                "computation contains a causal cycle (a message is received "
                "before, in happened-before order, it was sent)"
            )

    def topological_order(self) -> list[tuple[Pid, int]]:
        """One linearization of the happened-before relation over events.

        Deterministic: ties are broken by (pid, index).
        """
        import heapq

        indegree: dict[tuple[int, int], int] = {}
        successors: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for pid, trace in enumerate(self._processes):
            for idx in range(len(trace.events)):
                indegree.setdefault((pid, idx), 0)
                if idx + 1 < len(trace.events):
                    successors.setdefault((pid, idx), []).append((pid, idx + 1))
                    indegree[(pid, idx + 1)] = indegree.get((pid, idx + 1), 0) + 1
        for record in self.messages.values():
            successors.setdefault(
                (record.sender, record.send_index), []
            ).append((record.receiver, record.recv_index))
            key = (record.receiver, record.recv_index)
            indegree[key] = indegree.get(key, 0) + 1

        heap = [node for node, deg in indegree.items() if deg == 0]
        heapq.heapify(heap)
        order: list[tuple[Pid, int]] = []
        while heap:
            node = heapq.heappop(heap)
            order.append(node)
            for succ in successors.get(node, ()):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(heap, succ)
        return order

    # ------------------------------------------------------------------
    # Convenience construction
    # ------------------------------------------------------------------
    @classmethod
    def from_event_lists(
        cls,
        event_lists: Iterable[Sequence[Event]],
        initial_vars: Sequence[Mapping[str, object]] | None = None,
        allow_unreceived: bool = False,
    ) -> "Computation":
        """Build a computation from raw per-process event sequences."""
        lists = [tuple(events) for events in event_lists]
        if initial_vars is None:
            traces = [ProcessTrace(events) for events in lists]
        else:
            if len(initial_vars) != len(lists):
                raise InvalidComputationError(
                    "initial_vars length must equal number of processes"
                )
            traces = [
                ProcessTrace(events, init)
                for events, init in zip(lists, initial_vars)
            ]
        return cls(traces, allow_unreceived=allow_unreceived)
