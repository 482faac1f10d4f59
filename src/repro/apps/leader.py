"""Split-brain detection in a bully-style leader election.

A further classic WCP use case: ``leader@P_i ∧ leader@P_j`` detects two
processes considering themselves leader in causally concurrent states —
the split-brain condition.

The protocol is a simplified bully election.  Node 0 starts an election
by messaging every higher-id node; a node that receives an ELECTION
answers ALIVE and campaigns itself (once); the highest node declares
itself leader and broadcasts VICTORY.  A campaigning node waits
``alive_timeout`` for an ALIVE from any higher node; the *bug* is an
impatient timeout shorter than the message round trip — the campaigner
concludes all higher nodes are dead and declares itself leader, even
though the true leader also declares.  The two leader intervals are
causally concurrent (neither declaration is in the other's past), so the
WCP holds at a consistent cut even though a later VICTORY resolves the
conflict in real time — exactly the class of transient bug predicate
detection exists to catch.
"""

from __future__ import annotations

from typing import Any

from repro.apps.base import ApplicationProcess, app_names, wiring
from repro.common.errors import ConfigurationError
from repro.common.types import Pid
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.predicates.local import var_true

__all__ = ["BullyNode", "build_election_system", "split_brain_wcp"]


class BullyNode(ApplicationProcess):
    """One election participant.

    ``alive_timeout`` is the campaign patience; with unit channel
    latency the honest round trip is ~2 time units, so values below that
    inject the split-brain bug.
    """

    def __init__(
        self,
        pid: Pid,
        names: list[str],
        alive_timeout: float,
        **monitoring: Any,
    ) -> None:
        super().__init__(pid, names, initial_vars={"leader": False}, **monitoring)
        if alive_timeout <= 0:
            raise ConfigurationError("alive_timeout must be > 0")
        self._timeout = alive_timeout
        self._campaigned = False
        self._got_top_victory = False

    # ------------------------------------------------------------------
    @property
    def _top(self) -> Pid:
        return len(self._apps) - 1

    def _higher(self) -> list[Pid]:
        return list(range(self.pid + 1, len(self._apps)))

    def behavior(self):
        if self.pid == 0:
            yield from self._campaign()
        while not self._got_top_victory:
            msg = yield from self.recv_app()
            yield from self._dispatch(msg)

    # ------------------------------------------------------------------
    def _dispatch(self, msg):
        kind, sender = msg.payload
        if kind == "election":
            yield self.app_send(sender, ("alive", self.pid))
            if not self._campaigned:
                yield from self._campaign()
        elif kind == "victory":
            yield from self._handle_victory(sender)
        # stray "alive" outside a campaign window: ignore.

    def _handle_victory(self, winner: Pid):
        if winner != self.pid and winner > self.pid:
            # A higher leader exists: stand down.
            yield self.set_vars(leader=False)
        if winner == self._top:
            self._got_top_victory = True

    def _campaign(self):
        self._campaigned = True
        if self.pid == self._top:
            yield from self._declare()
            return
        for higher in self._higher():
            yield self.app_send(higher, ("election", self.pid))
        deadline = self.now + self._timeout
        while True:
            remaining = deadline - self.now
            if remaining <= 0:
                # BUG (when the timeout is impatient): nobody answered in
                # time, so this node crowns itself.
                yield from self._declare()
                return
            msg = yield from self.recv_app(timeout=remaining)
            if msg is None:
                yield from self._declare()
                return
            kind, sender = msg.payload
            if kind == "alive":
                return  # a higher node lives; await its victory
            yield from self._dispatch(msg)
            if kind == "victory" and sender > self.pid:
                return  # a higher leader exists: stand down immediately

    def _declare(self):
        yield self.set_vars(leader=True)
        for other in range(len(self._apps)):
            if other != self.pid:
                yield self.app_send(other, ("victory", self.pid))
        if self.pid == self._top:
            self._got_top_victory = True


def split_brain_wcp(node_a: Pid, node_b: Pid) -> WeakConjunctivePredicate:
    """Both nodes believe they are leader."""
    return WeakConjunctivePredicate(
        {node_a: var_true("leader"), node_b: var_true("leader")}
    )


def build_election_system(
    num_nodes: int,
    alive_timeout: float,
    wcp: WeakConjunctivePredicate,
    mode: str = "vc",
) -> list[ApplicationProcess]:
    """All election nodes wired for live detection."""
    if num_nodes < 2:
        raise ConfigurationError("election needs >= 2 nodes")
    names = app_names(num_nodes)
    return [
        BullyNode(pid, names, alive_timeout, **wiring(wcp, pid, mode))
        for pid in range(num_nodes)
    ]
