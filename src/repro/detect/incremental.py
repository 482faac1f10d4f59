"""Embeddable incremental WCP detection — no simulator required.

The detectors in this package replay recorded runs or drive simulated
actors.  A system that wants to *embed* detection — a test harness, a
tracing backend — instead feeds events as they are observed and asks
"has the predicate held yet?".  :class:`IncrementalDetector` provides
that: it maintains the Fig. 2 application-side state (vector clocks,
``firstflag``) and runs the Garg–Waldecker elimination online, event by
event — the same :class:`~repro.detect.elimination.Elimination` loop as
the centralized checkers of [7] and [6], without a simulator.

Feeding rules:

* events of one process must be fed in that process's order (calls for
  different processes may interleave arbitrarily);
* a receive must be fed after its matching send (the detector needs the
  send's clock tag) — violating this raises;
* :meth:`close` marks a process's stream finished; once a predicate
  process is closed with no live candidate left, the verdict
  ``impossible`` becomes True.

The first time the candidate heads are complete and pairwise concurrent,
``detected`` latches and ``cut`` holds the *first* satisfying cut —
exactly the reference detector's answer for the same run, which the test
suite asserts over randomized feeds in multiple legal orders.
"""

from __future__ import annotations

from typing import Mapping

from repro.clocks.vector import VectorClock
from repro.common.errors import DetectionError, InvalidComputationError
from repro.detect.elimination import Elimination
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.trace.cuts import Cut

__all__ = ["IncrementalDetector"]


class _ProcessState:
    __slots__ = ("vclock", "firstflag", "vars", "closed")

    def __init__(self, pid: int, width: int, initial: dict) -> None:
        self.vclock = VectorClock.initial(pid, width)
        self.firstflag = True
        self.vars = dict(initial)
        self.closed = False


class IncrementalDetector:
    """Online WCP detection over an observed event stream.

    Parameters
    ----------
    num_processes:
        Total system size ``N``.
    wcp:
        The predicate; clauses are evaluated against each process's
        accumulated variable state.
    initial_vars:
        Optional initial variable assignment per pid.
    """

    def __init__(
        self,
        num_processes: int,
        wcp: WeakConjunctivePredicate,
        initial_vars: Mapping[int, Mapping[str, object]] | None = None,
    ) -> None:
        wcp.check_against(num_processes)
        self._n_total = num_processes
        self._wcp = wcp
        self._slot_of = {pid: k for k, pid in enumerate(wcp.pids)}
        self._procs = [
            _ProcessState(pid, num_processes, dict((initial_vars or {}).get(pid, {})))
            for pid in range(num_processes)
        ]
        self._send_tags: dict[int, tuple[int, VectorClock]] = {}
        self._elim = Elimination(wcp.n)
        self.detected = False
        self.impossible = False
        self.cut: Cut | None = None
        self.candidates_seen = 0
        # The very first states may already satisfy clauses.
        for pid in wcp.pids:
            self._maybe_candidate(pid)

    @property
    def eliminations(self) -> int:
        """Candidates deleted so far by the elimination."""
        return self._elim.eliminations

    # ------------------------------------------------------------------
    # Event feed
    # ------------------------------------------------------------------
    def observe_internal(
        self, pid: int, updates: Mapping[str, object] | None = None
    ) -> None:
        """An internal event on ``pid`` (optionally updating variables)."""
        state = self._state(pid)
        if updates:
            state.vars.update(updates)
        self._maybe_candidate(pid)

    def observe_send(
        self,
        pid: int,
        msg_id: int,
        dest: int,
        updates: Mapping[str, object] | None = None,
    ) -> None:
        """``pid`` sends message ``msg_id`` to ``dest``."""
        state = self._state(pid)
        if not 0 <= dest < self._n_total or dest == pid:
            raise InvalidComputationError(f"bad destination {dest} for P{pid}")
        if msg_id in self._send_tags:
            raise InvalidComputationError(f"message {msg_id} sent twice")
        if updates:
            state.vars.update(updates)
        self._send_tags[msg_id] = (pid, state.vclock)
        state.vclock = state.vclock.tick(pid)
        state.firstflag = True
        self._maybe_candidate(pid)

    def observe_recv(
        self,
        pid: int,
        msg_id: int,
        updates: Mapping[str, object] | None = None,
    ) -> None:
        """``pid`` receives message ``msg_id`` (send must be observed first)."""
        state = self._state(pid)
        try:
            _sender, tag = self._send_tags[msg_id]
        except KeyError:
            raise InvalidComputationError(
                f"receive of message {msg_id} observed before its send"
            ) from None
        if updates:
            state.vars.update(updates)
        state.vclock = state.vclock.merged(tag).tick(pid)
        state.firstflag = True
        self._maybe_candidate(pid)

    def close(self, pid: int) -> None:
        """Mark ``pid``'s stream as finished (idempotent; enables
        the ``impossible`` verdict)."""
        if not 0 <= pid < self._n_total:
            raise DetectionError(f"pid {pid} out of range (N={self._n_total})")
        self._procs[pid].closed = True
        self._check_impossible()

    # ------------------------------------------------------------------
    # Detection core
    # ------------------------------------------------------------------
    def _maybe_candidate(self, pid: int) -> None:
        if self.detected or pid not in self._slot_of:
            return
        state = self._procs[pid]
        if not state.firstflag or not self._wcp.clause(pid)(state.vars):
            return
        state.firstflag = False
        self.candidates_seen += 1
        self._elim.push(self._slot_of[pid], state.vclock.project(self._wcp.pids))
        self._elim.eliminate()
        heads = self._elim.heads()
        if heads is not None:
            self.detected = True
            self.cut = Cut(self._wcp.pids, heads)
        else:
            self._check_impossible()

    def _check_impossible(self) -> None:
        if not (self.detected or self.impossible):
            self.impossible = any(
                self._procs[pid].closed and not self._elim.queues[slot]
                for pid, slot in self._slot_of.items()
            )

    # ------------------------------------------------------------------
    def verdict(self) -> str:
        """One of ``"detected"``, ``"impossible"``, ``"open"``."""
        if self.detected:
            return "detected"
        if self.impossible:
            return "impossible"
        return "open"

    def _state(self, pid: int) -> _ProcessState:
        if not 0 <= pid < self._n_total:
            raise DetectionError(f"pid {pid} out of range (N={self._n_total})")
        state = self._procs[pid]
        if state.closed:
            raise DetectionError(f"P{pid} is closed; no more events allowed")
        return state
