"""Local snapshot extraction: what application processes send to monitors.

This module turns a recorded computation plus local predicates into the
exact snapshot streams the paper's two application-process algorithms
would emit:

* **Vector-clock snapshots** (Fig. 2): one snapshot per interval in which
  the local predicate holds, carrying the interval's vector clock.  The
  ``firstflag`` logic of Fig. 2 is what collapses "predicate became true"
  to once-per-interval.
* **Direct-dependence snapshots** (§4.1): one snapshot per predicate-true
  interval, carrying the scalar interval counter and the direct
  dependences accumulated since the *previous snapshot* (the paper's
  flush-on-snapshot rule).  Processes on which no local predicate is
  defined participate with the constant-true predicate — §4 requires all
  ``N`` processes to take part.

Emission points matter for the dependence slicing: a snapshot emitted at
the first predicate-true state of an interval carries exactly the
dependences of receives that precede that state and follow the previous
emission.

All streams come from the computation's one cached
:class:`~repro.trace.intervals.IntervalAnalysis`.  Vector-clock and GCP
streams read its vector clocks, which it builds on first read; the
direct-dependence streams read only scalar counters and dependences, so
a §4 run never builds a vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.clocks.dependence import Dependence
from repro.clocks.vector import VectorClock
from repro.common.types import Pid
from repro.trace.computation import Computation

__all__ = [
    "VCSnapshot",
    "DDSnapshot",
    "GCPSnapshot",
    "true_intervals",
    "emission_points",
    "vc_snapshots",
    "dd_snapshots",
    "gcp_snapshots",
]

LocalStatePredicate = Callable[[Mapping[str, object]], bool]


@dataclass(frozen=True, slots=True)
class VCSnapshot:
    """A Fig. 2 local snapshot: the candidate interval's vector clock.

    ``vector`` is full width (``N``); detectors over a predicate subset
    project it.  ``state_index`` is the local state at which the snapshot
    was emitted (used for replay timing), ``time`` its optional timestamp.
    """

    pid: Pid
    interval: int
    vector: VectorClock
    state_index: int
    time: float | None = None


@dataclass(frozen=True, slots=True)
class DDSnapshot:
    """A §4.1 local snapshot: scalar clock plus flushed dependence list."""

    pid: Pid
    clock: int
    deps: tuple[Dependence, ...]
    state_index: int
    time: float | None = None


@dataclass(frozen=True, slots=True)
class GCPSnapshot:
    """A GCP local snapshot: vector clock plus channel counters.

    ``sends[d]`` counts this process's messages to ``d`` sent strictly
    before the candidate interval (their sends closed earlier
    intervals); ``recvs[s]`` counts messages from ``s`` received at or
    before it (their receives opened intervals ``<= interval``).  These
    are exactly the quantities whose difference is the in-transit count
    at a cut, matching :func:`repro.predicates.channel.in_transit_messages`.
    Only the channels a detector asks for are carried.
    """

    pid: Pid
    interval: int
    vector: VectorClock
    sends: Mapping[Pid, int]
    recvs: Mapping[Pid, int]
    state_index: int
    time: float | None = None


def _always_true(_state: Mapping[str, object]) -> bool:
    return True


def emission_points(
    computation: Computation,
    pid: Pid,
    predicate: LocalStatePredicate,
) -> list[tuple[int, int]]:
    """Snapshot emission points for ``pid``: ``(interval, state_index)``.

    One entry per interval in which ``predicate`` holds at some local
    state, at the first such state — exactly Fig. 2's ``firstflag``
    behaviour (the flag is set by every send/receive, i.e. at every
    interval boundary, and cleared on the first true evaluation).
    Reads interval indices only, never vector clocks.
    """
    analysis = computation.analysis()
    states = computation.local_states(pid)
    points: list[tuple[int, int]] = []
    last_emitted_interval = 0
    for state_index, state in enumerate(states):
        interval = analysis.interval_of_state(pid, state_index)
        if interval == last_emitted_interval:
            continue
        if predicate(state):
            points.append((interval, state_index))
            last_emitted_interval = interval
    return points


def true_intervals(
    computation: Computation,
    pid: Pid,
    predicate: LocalStatePredicate,
) -> list[int]:
    """The intervals of ``pid`` in which ``predicate`` holds somewhere."""
    return [
        interval for interval, _ in emission_points(computation, pid, predicate)
    ]


def _event_time(computation: Computation, pid: Pid, state_index: int) -> float | None:
    """Timestamp of the event that produced local state ``state_index``."""
    if state_index == 0:
        return 0.0
    return computation.event(pid, state_index - 1).time


def vc_snapshots(
    computation: Computation,
    predicates: Mapping[Pid, LocalStatePredicate],
) -> dict[Pid, list[VCSnapshot]]:
    """Vector-clock snapshot streams for every predicate process.

    Returns a FIFO-ordered list per pid in ``predicates``.  Reads vector
    clocks, so the first call on a computation builds them.
    """
    analysis = computation.analysis()
    streams: dict[Pid, list[VCSnapshot]] = {}
    for pid, predicate in predicates.items():
        stream: list[VCSnapshot] = []
        for interval, state_index in emission_points(computation, pid, predicate):
            stream.append(
                VCSnapshot(
                    pid=pid,
                    interval=interval,
                    vector=analysis.vector(pid, interval),
                    state_index=state_index,
                    time=_event_time(computation, pid, state_index),
                )
            )
        streams[pid] = stream
    return streams


def gcp_snapshots(
    computation: Computation,
    predicates: Mapping[Pid, LocalStatePredicate],
    channels: Sequence[tuple[Pid, Pid]],
) -> dict[Pid, list[GCPSnapshot]]:
    """Snapshot streams carrying channel counters for GCP detection.

    ``channels`` lists the directed ``(src, dest)`` pairs the detector's
    channel clauses mention; each predicate process's snapshots carry
    its cumulative send counters for channels it sources and receive
    counters for channels it terminates.
    """
    analysis = computation.analysis()
    from repro.trace.events import EventKind

    out_channels: dict[Pid, list[Pid]] = {}
    in_channels: dict[Pid, list[Pid]] = {}
    for src, dest in channels:
        out_channels.setdefault(src, []).append(dest)
        in_channels.setdefault(dest, []).append(src)

    streams: dict[Pid, list[GCPSnapshot]] = {}
    for pid, predicate in predicates.items():
        events = computation.events_of(pid)
        # Per interval: sends with tag < interval, recvs opening <= interval.
        max_interval = analysis.num_intervals(pid)
        send_counts = {d: [0] * (max_interval + 2) for d in out_channels.get(pid, [])}
        recv_counts = {s: [0] * (max_interval + 2) for s in in_channels.get(pid, [])}
        for idx, event in enumerate(events):
            if event.kind is EventKind.SEND and event.peer in send_counts:
                tag = analysis.send_tag(event.msg_id)
                # Visible to cuts with component > tag.
                for interval in range(tag + 1, max_interval + 1):
                    send_counts[event.peer][interval] += 1
            elif event.kind is EventKind.RECV and event.peer in recv_counts:
                opened = analysis.interval_of_state(pid, idx + 1)
                for interval in range(opened, max_interval + 1):
                    recv_counts[event.peer][interval] += 1
        stream: list[GCPSnapshot] = []
        for interval, state_index in emission_points(computation, pid, predicate):
            stream.append(
                GCPSnapshot(
                    pid=pid,
                    interval=interval,
                    vector=analysis.vector(pid, interval),
                    sends={d: counts[interval] for d, counts in send_counts.items()},
                    recvs={s: counts[interval] for s, counts in recv_counts.items()},
                    state_index=state_index,
                    time=_event_time(computation, pid, state_index),
                )
            )
        streams[pid] = stream
    return streams


def dd_snapshots(
    computation: Computation,
    predicates: Mapping[Pid, LocalStatePredicate],
) -> dict[Pid, list[DDSnapshot]]:
    """Direct-dependence snapshot streams for **all** ``N`` processes.

    Processes not named in ``predicates`` use the constant-true predicate
    (they emit one snapshot per interval), since §4 requires every
    process in the system to participate.

    The dependence list flushed into each snapshot contains the receives
    strictly before the snapshot's emission state and at/after the
    previous snapshot's emission state, in receive order.  Reads scalar
    interval counters and dependences only, never vector clocks.
    """
    streams: dict[Pid, list[DDSnapshot]] = {}
    analysis = computation.analysis()
    for pid in range(computation.num_processes):
        predicate = predicates.get(pid, _always_true)
        deps = analysis.receive_dependences(pid)  # (recv_event_index, dep)
        stream: list[DDSnapshot] = []
        dep_pos = 0
        for interval, state_index in emission_points(computation, pid, predicate):
            flushed: list[Dependence] = []
            # A receive at event index r produces local state r+1; its
            # dependence is visible to snapshots emitted at state > r,
            # i.e. state_index >= r + 1.
            while dep_pos < len(deps) and deps[dep_pos][0] < state_index:
                flushed.append(deps[dep_pos][1])
                dep_pos += 1
            stream.append(
                DDSnapshot(
                    pid=pid,
                    clock=interval,
                    deps=tuple(flushed),
                    state_index=state_index,
                    time=_event_time(computation, pid, state_index),
                )
            )
        streams[pid] = stream
    return streams
