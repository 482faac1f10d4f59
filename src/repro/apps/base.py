"""Live application processes implementing Fig. 2 / §4.1 online.

Unlike trace replay (where snapshots are precomputed), an
:class:`ApplicationProcess` is a real simulated program: it exchanges
application messages with peers, maintains its logical clocks *online*,
evaluates its local predicate after every state change, and streams
local snapshots to its monitor exactly as the paper's application-side
algorithms prescribe:

* **vc mode** (Fig. 2): a vector clock ticked after every send/receive;
  ``firstflag`` is set by every communication event and cleared by the
  first predicate-true state, so at most one snapshot per interval.
* **dd mode** (§4.1): a scalar interval counter tagging every message,
  a dependence list recording each receive, flushed into each snapshot.

Application messages carry both tags, so the same program runs under
either detector family; a deployment would strip the unused tag.

Which processes snapshot, and to which monitor, is Fig. 1's wiring,
decided once by :func:`wiring`: under Fig. 2 the WCP's processes, under
§4.1 every process.

Subclasses implement :meth:`behavior` using the provided ``app_send`` /
``recv_app`` / ``set_vars`` helpers; the base class emits the
end-of-trace marker when the behaviour generator finishes.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping, Sequence

from repro.clocks.dependence import Dependence
from repro.common.errors import ConfigurationError
from repro.common.types import WORD_BITS, Pid
from repro.detect.base import app_name, monitor_name
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.predicates.local import LocalPredicate, always_true
from repro.simulation.actors import Actor
from repro.simulation.effects import Message
from repro.simulation.replay import CANDIDATE_KIND, END_OF_TRACE_KIND
from repro.trace.snapshots import DDSnapshot

__all__ = ["APP_MSG_KIND", "AppMessage", "ApplicationProcess", "app_names", "wiring"]

APP_MSG_KIND = "app"


def app_names(num_processes: int) -> list[str]:
    """Canonical application actor names, indexed by pid."""
    return [app_name(pid) for pid in range(num_processes)]


def wiring(wcp: WeakConjunctivePredicate, pid: Pid, mode: str) -> dict[str, Any]:
    """Process ``pid``'s Fig. 1 wiring: the ``predicate``, ``monitor``,
    ``snapshot_pids`` and ``mode`` of its :class:`ApplicationProcess`.

    ``"vc"`` (Fig. 2): the WCP's processes snapshot to their monitors,
    projected onto ``wcp.pids``; the others run unmonitored.  ``"dd"``
    (§4.1): every process snapshots to its monitor, since the red chain
    can pass through any of them — constant-true where the WCP names no
    clause.
    """
    clause = wcp.predicate_map().get(pid)
    if clause is None:
        if mode != "dd":
            return {"mode": mode}
        clause = always_true()
    return {
        "predicate": clause,
        "monitor": monitor_name(pid),
        "snapshot_pids": wcp.pids,
        "mode": mode,
    }


class AppMessage:
    """An application message: payload plus both clock tags."""

    __slots__ = ("payload", "vclock", "counter", "sender")

    def __init__(
        self,
        payload: object,
        vclock: tuple[int, ...],
        counter: int,
        sender: Pid,
    ) -> None:
        self.payload = payload
        self.vclock = vclock
        self.counter = counter
        self.sender = sender


class ApplicationProcess(Actor):
    """Base class for live application processes.

    Parameters
    ----------
    pid:
        This process's id (0-based).
    app_names:
        Actor name of every application process, indexed by pid.
    predicate:
        This process's local predicate, or ``None`` if it carries none.
        In dd mode a process without a predicate still snapshots every
        interval (§4 requires all processes to participate): pass the
        constant-true predicate in that case, as :func:`wiring` does;
        ``None`` simply disables snapshotting (vc mode, non-predicate
        process).
    monitor:
        The mated monitor's actor name, or ``None`` to disable
        snapshotting entirely.
    snapshot_pids:
        The WCP's pids, used to project the vector clock in vc mode.
    mode:
        ``"vc"`` (Fig. 2 snapshots) or ``"dd"`` (§4.1 snapshots).
    initial_vars:
        Initial local variable assignment.
    """

    def __init__(
        self,
        pid: Pid,
        app_names: Sequence[str],
        predicate: LocalPredicate | None = None,
        monitor: str | None = None,
        snapshot_pids: Sequence[Pid] = (),
        mode: str = "vc",
        initial_vars: Mapping[str, object] | None = None,
    ) -> None:
        super().__init__(app_names[pid])
        if mode not in ("vc", "dd"):
            raise ConfigurationError(f"mode must be 'vc' or 'dd', got {mode!r}")
        self._pid = pid
        self._apps = list(app_names)
        self._predicate = predicate
        self._monitor = monitor
        self._snapshot_pids = tuple(snapshot_pids)
        self._mode = mode
        self.vars: dict[str, object] = dict(initial_vars or {})
        # Fig. 2 state.
        self._vclock = [0] * len(app_names)
        self._vclock[pid] = 1
        self._firstflag = True
        # §4.1 state.
        self._counter = 1
        self._deps: list[Dependence] = []
        self.snapshots_emitted = 0

    # ------------------------------------------------------------------
    @property
    def pid(self) -> Pid:
        """This process's id."""
        return self._pid

    @property
    def vclock(self) -> tuple[int, ...]:
        """The current (full-width) vector clock."""
        return tuple(self._vclock)

    @property
    def counter(self) -> int:
        """The current §4.1 interval counter."""
        return self._counter

    @property
    def mode(self) -> str:
        """``"vc"`` (Fig. 2 snapshots) or ``"dd"`` (§4.1 snapshots)."""
        return self._mode

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        # The initial state may already satisfy the predicate.
        emit = self._maybe_emit()
        if emit is not None:
            yield emit
        yield from self.behavior()
        if self._monitor is not None:
            yield self.send(self._monitor, None, kind=END_OF_TRACE_KIND, size_bits=1)

    def behavior(self) -> Generator:
        """The application program; subclasses must override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Fig. 2 / §4.1 primitives
    # ------------------------------------------------------------------
    def app_send(self, dest_pid: Pid, payload: object, size_bits: int = WORD_BITS):
        """Send an application message (yield the returned effects).

        Tags the message with the pre-send clocks, then advances them —
        exactly Fig. 2's ordering — and re-arms ``firstflag``.
        """
        if dest_pid == self._pid:
            raise ConfigurationError("a process cannot send to itself")
        message = AppMessage(
            payload, tuple(self._vclock), self._counter, self._pid
        )
        effects = [
            self.send(
                self._apps[dest_pid],
                message,
                kind=APP_MSG_KIND,
                size_bits=size_bits + len(self._apps) * WORD_BITS,
            )
        ]
        self._vclock[self._pid] += 1
        self._counter += 1
        self._firstflag = True
        emit = self._maybe_emit()
        if emit is not None:
            effects.append(emit)
        return effects

    def recv_app(self, timeout: float | None = None) -> Generator:
        """Block for one application message; merge clocks; maybe snapshot.

        Usage: ``msg = yield from self.recv_app()`` — returns the
        :class:`AppMessage`, or ``None`` if ``timeout`` expired first
        (timeouts are local steps: no clock activity, no snapshot).
        """
        if timeout is None:
            raw: Message = yield self.receive(APP_MSG_KIND)
        else:
            raw = yield self.receive_timeout(APP_MSG_KIND, timeout=timeout)
            if raw is None:
                return None
        message: AppMessage = raw.payload
        for k, value in enumerate(message.vclock):
            if value > self._vclock[k]:
                self._vclock[k] = value
        self._vclock[self._pid] += 1
        self._deps.append(Dependence(message.sender, message.counter))
        self._counter += 1
        self._firstflag = True
        emit = self._maybe_emit()
        if emit is not None:
            yield emit
        return message

    def set_vars(self, **updates: object):
        """Update local variables; snapshot if the predicate just became
        observable this interval.  Yield the returned effect list."""
        self.vars.update(updates)
        emit = self._maybe_emit()
        return [emit] if emit is not None else []

    # ------------------------------------------------------------------
    def _maybe_emit(self):
        if self._monitor is None or self._predicate is None:
            return None
        if not self._firstflag or not self._predicate(self.vars):
            return None
        self._firstflag = False
        self.snapshots_emitted += 1
        if self._mode == "vc":
            payload = tuple(self._vclock[p] for p in self._snapshot_pids)
            bits = len(self._snapshot_pids) * WORD_BITS
        else:
            deps = tuple(self._deps)
            self._deps.clear()
            payload = DDSnapshot(
                pid=self._pid,
                clock=self._counter,
                deps=deps,
                state_index=-1,  # not meaningful for live runs
                time=None,
            )
            bits = (1 + 2 * len(deps)) * WORD_BITS
        return self.send(
            self._monitor, payload, kind=CANDIDATE_KIND, size_bits=bits
        )
