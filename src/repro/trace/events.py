"""Event model for recorded distributed computations.

A *computation* (§2 of the paper) is a single run of a distributed
program: per process, a totally ordered sequence of events; across
processes, send/receive pairs inducing Lamport's happened-before
relation.  Three event kinds exist:

* ``INTERNAL`` — a local step that may update program variables,
* ``SEND`` — transmit one asynchronous message to a peer process,
* ``RECV`` — consume one previously sent message.

Each event may carry a sparse ``updates`` mapping of program variables
assigned by the event; the *local state* after an event is the initial
variable assignment overlaid with all updates so far.  Local predicates
are evaluated on these local states.

Events are immutable value objects; the containing
:class:`~repro.trace.computation.Computation` performs cross-process
validation (matching of message ids, causal acyclicity).
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from math import isfinite
from types import MappingProxyType
from typing import Mapping

from repro.common.errors import InvalidComputationError
from repro.common.types import Pid

__all__ = ["EventKind", "Event", "ProcessTrace"]


class EventKind(enum.Enum):
    """The three event kinds of the asynchronous message-passing model."""

    INTERNAL = "internal"
    SEND = "send"
    RECV = "recv"

    @property
    def is_communication(self) -> bool:
        """True for SEND/RECV — the events that end a communication interval."""
        return self is not EventKind.INTERNAL


#: The ``updates`` of every event that assigns no variable.
_NO_UPDATES: Mapping[str, object] = MappingProxyType({})


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value: object) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True, slots=True)
class Event:
    """One event in a process's local sequence.

    Parameters
    ----------
    kind:
        The event kind.
    msg_id:
        For SEND/RECV, the globally unique message identifier; ``None``
        for INTERNAL events.
    peer:
        For SEND, the destination process; for RECV, the sender; ``None``
        for INTERNAL events.
    updates:
        Sparse variable assignments applied by this event (may be empty
        for any kind — e.g. a SEND that changes no variables).
    time:
        Optional simulated timestamp used by trace replay.  Not part of
        the causal structure; purely a scheduling hint.
    """

    kind: EventKind
    msg_id: int | None = None
    peer: Pid | None = None
    updates: Mapping[str, object] = field(default_factory=dict)
    time: float | None = None

    def __post_init__(self) -> None:
        msg_id, peer, time = self.msg_id, self.peer, self.time
        if self.kind is EventKind.INTERNAL:
            if msg_id is not None or peer is not None:
                raise InvalidComputationError(
                    "internal events must not carry msg_id or peer"
                )
        else:
            if msg_id is None or peer is None:
                raise InvalidComputationError(
                    f"{self.kind.value} events require msg_id and peer"
                )
            if not _is_int(msg_id):
                raise InvalidComputationError(f"msg_id must be an int, got {msg_id!r}")
            if not _is_int(peer):
                raise InvalidComputationError(f"peer must be an int, got {peer!r}")
            if msg_id < 0:
                raise InvalidComputationError(f"msg_id must be >= 0, got {msg_id}")
            if peer < 0:
                raise InvalidComputationError(f"peer must be >= 0, got {peer}")
        # NaN or an infinity would slip past every ordering check on times.
        if time is not None and not _is_finite_number(time):
            raise InvalidComputationError(
                f"time must be a finite number, got {time!r}"
            )
        # Freeze the updates mapping so the dataclass is deeply immutable;
        # every event without updates shares one read-only empty mapping.
        updates = self.updates
        if type(updates) is dict and not updates:
            frozen = _NO_UPDATES
        else:
            frozen = MappingProxyType(dict(updates))
            if not frozen:
                frozen = _NO_UPDATES
        object.__setattr__(self, "updates", frozen)

    @classmethod
    def _decoded(
        cls,
        kind: EventKind,
        msg_id: object,
        peer: object,
        updates: object,
        time: object,
        shared: dict[str, Mapping[str, object]],
    ) -> "Event":
        """An event from a decoded trace's fields, each checked once.

        Fields of JSON's types that pass the checks of ``__post_init__``
        are set directly, and equal ``updates`` share the read-only
        mapping memoized in ``shared`` (one memo per process).  Anything
        else goes to ``cls(...)``, so every error has one source.
        """
        if kind is _INTERNAL:
            ok = msg_id is None and peer is None
        else:
            ok = (
                type(msg_id) is int and msg_id >= 0
                and type(peer) is int and peer >= 0
            )
        if time is not None and not (
            type(time) is float and isfinite(time)
            or type(time) is int and -_FLOAT_MAX <= time <= _FLOAT_MAX
        ):
            ok = False
        if updates is not _NO_UPDATES:
            frozen = _share(updates, shared) if type(updates) is dict else None
            if frozen is None:
                ok = False
            else:
                updates = frozen
        if not ok:
            return cls(kind, msg_id, peer, updates, time)
        event = _new(cls)
        _set_kind(event, kind)
        _set_msg_id(event, msg_id)
        _set_peer(event, peer)
        _set_updates(event, updates)
        _set_time(event, time)
        return event

    # Convenience constructors -----------------------------------------
    @classmethod
    def internal(
        cls, updates: Mapping[str, object] | None = None, time: float | None = None
    ) -> "Event":
        """An internal event, optionally updating variables."""
        return cls(EventKind.INTERNAL, updates=updates or {}, time=time)

    @classmethod
    def send(
        cls,
        msg_id: int,
        dest: Pid,
        updates: Mapping[str, object] | None = None,
        time: float | None = None,
    ) -> "Event":
        """A send of message ``msg_id`` to process ``dest``."""
        return cls(EventKind.SEND, msg_id, dest, updates or {}, time)

    @classmethod
    def recv(
        cls,
        msg_id: int,
        src: Pid,
        updates: Mapping[str, object] | None = None,
        time: float | None = None,
    ) -> "Event":
        """A receive of message ``msg_id`` sent by process ``src``."""
        return cls(EventKind.RECV, msg_id, src, updates or {}, time)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is EventKind.INTERNAL:
            core = "internal"
        else:
            core = f"{self.kind.value} m{self.msg_id} peer=P{self.peer}"
        if self.updates:
            core += f" {dict(self.updates)!r}"
        return f"Event<{core}>"


# Slot setters for ``Event._decoded``: a frozen dataclass refuses plain
# assignment, and the slot descriptors are faster than object.__setattr__.
_new = object.__new__
_set_kind, _set_msg_id, _set_peer, _set_updates, _set_time = (
    Event.__dict__[name].__set__
    for name in ("kind", "msg_id", "peer", "updates", "time")
)
_INTERNAL = EventKind.INTERNAL
_FLOAT_MAX = sys.float_info.max
#: Value types whose ``repr`` tells apart every two values a reader can,
#: ``True``/``1``/``1.0`` and ``-0.0``/``0.0`` included.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _share(
    updates: dict, shared: dict[str, Mapping[str, object]]
) -> Mapping[str, object] | None:
    """The read-only mapping that every equal ``updates`` of one process
    shares, memoized in ``shared`` by repr; ``None`` unless every key is
    a ``str`` and every value a scalar."""
    if not updates:
        return _NO_UPDATES
    for key, value in updates.items():
        if type(key) is not str or type(value) not in _SCALARS:
            return None
    text = repr(updates)
    frozen = shared.get(text)
    if frozen is None:
        frozen = MappingProxyType(dict(updates))
        # NaN's repr hides that two NaNs are unequal: never share one.
        if all(value == value for value in updates.values()):
            shared[text] = frozen
    return frozen


@dataclass(frozen=True, slots=True)
class ProcessTrace:
    """The local history of one process: initial variables + event sequence."""

    events: tuple[Event, ...]
    initial_vars: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(
            self, "initial_vars", MappingProxyType(dict(self.initial_vars))
        )
        times = [e.time for e in self.events if e.time is not None]
        if times != sorted(times):
            raise InvalidComputationError(
                "event timestamps must be nondecreasing within a process"
            )

    def __len__(self) -> int:
        return len(self.events)

    @property
    def communication_count(self) -> int:
        """Number of SEND/RECV events (the paper's per-process message count)."""
        return sum(1 for e in self.events if e.kind.is_communication)
