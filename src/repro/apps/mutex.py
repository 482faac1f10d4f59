"""Example 1 from the paper: detecting a mutual-exclusion violation.

    "Let ``CS_i`` represent the local predicate that the process ``P_i``
    is in critical section.  Then, detecting ``CS_1 ∧ CS_2`` is
    equivalent to detecting violation of mutual exclusion for a
    particular run."

We simulate a coordinator-based mutex with an injectable *double-grant*
bug: periodically the coordinator grants a pending request without
waiting for the previous holder's release.  When that happens, two
clients hold the critical section in causally concurrent intervals —
regardless of whether their real-time occupancy overlaps — so the WCP
``cs@A ∧ cs@B`` holds at a consistent cut and every detector in this
library finds it.  With the bug disabled, grants are serialized through
release messages, the CS intervals are causally ordered, and the WCP
never holds: no false alarms.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.apps.base import ApplicationProcess, app_names, wiring
from repro.common.errors import ConfigurationError
from repro.common.types import Pid
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.predicates.local import var_true

__all__ = ["CoordinatorApp", "MutexClientApp", "build_mutex_system", "mutex_wcp"]

COORDINATOR_PID = 0


class CoordinatorApp(ApplicationProcess):
    """Grants the critical section; optionally double-grants (the bug).

    With ``bug_every = b > 0``, every ``b``-th grant is followed by an
    immediate extra grant to the next waiter even though the holder has
    not released — the classic lost-release race, made deterministic.
    """

    def __init__(
        self,
        names: list[str],
        num_clients: int,
        rounds: int,
        bug_every: int = 0,
        **monitoring: Any,
    ) -> None:
        super().__init__(
            COORDINATOR_PID, names, initial_vars={"granted_to": None},
            **monitoring,
        )
        if num_clients < 2:
            raise ConfigurationError("mutex example needs >= 2 clients")
        if bug_every < 0:
            raise ConfigurationError("bug_every must be >= 0 (0 = correct)")
        self._num_clients = num_clients
        self._rounds = rounds
        self._bug_every = bug_every

    def behavior(self):
        pending: deque[Pid] = deque()
        busy = False
        grants = 0
        expected = 2 * self._num_clients * self._rounds  # requests + releases
        for _ in range(expected):
            msg = yield from self.recv_app()
            kind, client = msg.payload
            if kind == "request":
                pending.append(client)
            else:  # release
                busy = False
                yield self.set_vars(granted_to=None)
            while pending:
                if not busy:
                    target = pending.popleft()
                    grants += 1
                    busy = True
                    yield self.set_vars(granted_to=target)
                    yield self.app_send(target, ("grant", None))
                elif (
                    self._bug_every
                    and pending
                    and grants % self._bug_every == 0
                ):
                    # BUG: impatient re-grant without awaiting release.
                    target = pending.popleft()
                    grants += 1
                    yield self.app_send(target, ("grant", None))
                else:
                    break


class MutexClientApp(ApplicationProcess):
    """Requests the CS ``rounds`` times; sets ``cs`` while inside."""

    def __init__(
        self,
        pid: Pid,
        names: list[str],
        rounds: int,
        cs_duration: float = 2.0,
        **monitoring: Any,
    ) -> None:
        super().__init__(pid, names, initial_vars={"cs": False}, **monitoring)
        self._rounds = rounds
        self._cs_duration = cs_duration

    def behavior(self):
        for _ in range(self._rounds):
            yield self.app_send(COORDINATOR_PID, ("request", self.pid))
            msg = yield from self.recv_app()
            assert msg.payload[0] == "grant"
            yield self.set_vars(cs=True)
            yield self.sleep(self._cs_duration)
            yield self.set_vars(cs=False)
            yield self.app_send(COORDINATOR_PID, ("release", self.pid))


def mutex_wcp(client_a: Pid, client_b: Pid) -> WeakConjunctivePredicate:
    """The paper's example predicate: both clients in the CS."""
    return WeakConjunctivePredicate(
        {client_a: var_true("cs"), client_b: var_true("cs")}
    )


def build_mutex_system(
    num_clients: int,
    rounds: int,
    bug_every: int,
    wcp: WeakConjunctivePredicate,
    mode: str = "vc",
) -> list[ApplicationProcess]:
    """Construct coordinator + clients wired for the given detector mode
    (see :func:`~repro.apps.base.wiring`)."""
    names = app_names(num_clients + 1)
    return [
        CoordinatorApp(
            names, num_clients, rounds, bug_every=bug_every,
            **wiring(wcp, COORDINATOR_PID, mode),
        ),
        *(
            MutexClientApp(client, names, rounds, **wiring(wcp, client, mode))
            for client in range(1, num_clients + 1)
        ),
    ]
