"""Effects: the vocabulary actor coroutines use to talk to the kernel.

Actors are written as Python generators that *yield* effect objects and
receive results back, giving the blocking-receive style of the paper's
pseudocode directly::

    def run(self):
        msg = yield Receive(("candidate",))         # blocks
        yield Send("M3", token, kind="token", size_bits=64)
        yield Work(5)                               # charge 5 work units

The kernel interprets each effect and resumes the generator with the
effect's result (the received :class:`Message` for ``Receive``, ``None``
otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError

__all__ = ["Message", "Send", "Receive", "Sleep", "Work"]

#: Times key the kernel's ``(time, seq)`` heap: NaN and infinity are rejected
#: in one chained comparison, as feeders build a Sleep per candidate.
_INF = float("inf")


@dataclass(frozen=True, slots=True)
class Message:
    """A delivered message, as seen by the receiving actor.

    ``size_bits`` is the accounting size used for the paper's
    bit-complexity measurements; it is declared by the sender, not
    derived from the payload.

    ``corrupted`` is set by the fault-injection layer
    (:mod:`repro.simulation.faults`): it models a payload whose checksum
    fails at the receiver.  Hardened protocols discard such messages and
    rely on retransmission; plain protocols see the flag and nothing
    else.
    """

    seq: int
    src: str
    dest: str
    kind: str
    payload: object
    size_bits: int
    sent_at: float
    delivered_at: float
    corrupted: bool = False


@dataclass(frozen=True, slots=True)
class Send:
    """Asynchronously send ``payload`` to actor ``dest``.

    The send itself takes no simulated time; delivery is scheduled by the
    kernel's channel model.
    """

    dest: str
    payload: object
    kind: str = "msg"
    size_bits: int = 0

    def __post_init__(self) -> None:
        if self.size_bits < 0:
            raise ValueError(f"size_bits must be >= 0, got {self.size_bits}")


@dataclass(frozen=True, slots=True)
class Receive:
    """Block until a message of one of ``kinds`` is available.

    ``kinds`` is a tuple of message kinds; ``None`` matches any message.
    Among buffered matching messages the earliest-delivered one is
    returned (ties broken by sequence number).  ``description`` is used
    in deadlock reports.

    With a ``timeout``, the receive resolves to ``None`` after that many
    simulated time units without a matching message — the primitive
    timeout-based protocols (e.g. election algorithms) are built on.
    """

    kinds: tuple[str, ...] | None = None
    description: str = ""
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and not 0 < self.timeout < _INF:
            raise ConfigurationError(
                f"timeout must be a finite number > 0, got {self.timeout!r}"
            )


@dataclass(frozen=True, slots=True)
class Sleep:
    """Suspend the actor for ``duration`` simulated time units."""

    duration: float

    def __post_init__(self) -> None:
        if not 0 <= self.duration < _INF:
            raise ConfigurationError(
                f"duration must be a finite number >= 0, got {self.duration!r}"
            )


@dataclass(frozen=True, slots=True)
class Work:
    """Charge ``units`` work units to the actor.

    Work is pure accounting: it advances no simulated time, as local
    steps take none in the asynchronous model.
    """

    units: int = 1

    def __post_init__(self) -> None:
        if self.units < 0:
            raise ValueError(f"units must be >= 0, got {self.units}")
