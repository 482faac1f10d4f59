"""Actor base class for kernel-scheduled coroutines.

Subclasses implement :meth:`Actor.run` as a generator yielding effects
(:mod:`repro.simulation.effects`).  The kernel wires in ``metrics``
(an :class:`~repro.simulation.instrumentation.ActorMetrics`) and a
``now`` callback before starting the coroutine; actors may read both at
any point during execution.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable

from repro.common.errors import SimulationError
from repro.simulation.effects import Receive, Send, Sleep, Work
from repro.simulation.instrumentation import ActorMetrics

__all__ = ["Actor"]


class Actor:
    """A named simulated process.

    Attributes
    ----------
    name:
        Unique actor name within a kernel.
    metrics:
        This actor's counters; available once registered with a kernel.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise SimulationError("actor name must be non-empty")
        self.name = name
        self.metrics: ActorMetrics | None = None
        self._now: Callable[[], float] | None = None

    # ------------------------------------------------------------------
    # Kernel wiring
    # ------------------------------------------------------------------
    def attach(self, metrics: ActorMetrics, now: Callable[[], float]) -> None:
        """Called by the kernel when the actor is registered."""
        self.metrics = metrics
        self._now = now

    @property
    def now(self) -> float:
        """Current simulated time (valid once running)."""
        if self._now is None:
            raise SimulationError(f"actor {self.name} is not attached to a kernel")
        return self._now()

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """The actor's behaviour: a generator yielding effects.

        Subclasses must override.
        """
        raise NotImplementedError

    def restart(self) -> Generator:
        """The actor's behaviour after a crash-restart.

        Called by the kernel when a :class:`~repro.simulation.faults.
        CrashEvent` schedules a restart.  The default re-runs
        :meth:`run` from the top; instance attributes survive the crash
        (they model persisted local state), so crash-tolerant actors can
        either override this or write ``run`` to resume from persisted
        attributes.
        """
        return self.run()

    # ------------------------------------------------------------------
    # Effect constructors (so subclass code reads `yield self.send(...)`)
    # ------------------------------------------------------------------
    def send(
        self, dest: str, payload: object, kind: str = "msg", size_bits: int = 0
    ) -> Send:
        """Construct a Send effect."""
        return Send(dest, payload, kind, size_bits)

    def receive(self, *kinds: str, description: str = "") -> Receive:
        """Construct a Receive effect matching the given kinds (or any)."""
        return Receive(
            kinds or None, description or f"{self.name} awaiting {kinds or 'any'}"
        )

    def receive_timeout(
        self, *kinds: str, timeout: float, description: str = ""
    ) -> Receive:
        """A Receive that resolves to ``None`` after ``timeout`` time units."""
        return Receive(
            kinds or None,
            description or f"{self.name} awaiting {kinds or 'any'} (t/o {timeout})",
            timeout=timeout,
        )

    def sleep(self, duration: float) -> Sleep:
        """Construct a Sleep effect."""
        return Sleep(duration)

    def work(self, units: int = 1) -> Work:
        """Construct a Work effect."""
        return Work(units)

    def broadcast(
        self,
        dests: Iterable[str],
        payload: object,
        kind: str = "msg",
        size_bits: int = 0,
    ) -> list[Send]:
        """Construct one Send per destination (yield them one by one)."""
        return [Send(dest, payload, kind, size_bits) for dest in dests]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
