"""Example 2 from the paper: read/write-lock conflicts under 2PL.

    "Assume that in a database application, serializability is enforced
    using a two phase locking scheme ... detecting
    ``(P_1 has read lock) ∧ (P_2 has write lock)`` is useful in
    identifying an error in implementation."

We simulate a lock manager and transaction clients.  Clients run
two-phase transactions: acquire all locks (growing phase), do work,
release all (shrinking phase).  The manager's injectable bug is the
classic *upgrade race*: with ``allow_write_with_readers=True`` it grants
a write lock on an item that currently has readers.  The resulting
reader/writer intervals are causally concurrent, so the paper's example
WCP holds at a consistent cut exactly when the bug fires.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.apps.base import ApplicationProcess, app_names, wiring
from repro.common.errors import ConfigurationError
from repro.common.types import Pid
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.predicates.local import var_true

__all__ = [
    "LockManagerApp",
    "TransactionApp",
    "build_locking_system",
    "read_write_conflict_wcp",
]

MANAGER_PID = 0


class LockManagerApp(ApplicationProcess):
    """Grants read/write locks per item; optionally with the upgrade bug."""

    def __init__(
        self,
        names: list[str],
        expected_requests: int,
        allow_write_with_readers: bool = False,
        **monitoring: Any,
    ) -> None:
        super().__init__(MANAGER_PID, names, **monitoring)
        self._expected = expected_requests
        self._buggy = allow_write_with_readers

    def behavior(self):
        readers: dict[str, set[Pid]] = {}
        writer: dict[str, Pid | None] = {}
        waiting: dict[str, deque[tuple[Pid, str]]] = {}
        handled = 0
        while handled < self._expected:
            msg = yield from self.recv_app()
            handled += 1
            op, client, item = msg.payload
            readers.setdefault(item, set())
            writer.setdefault(item, None)
            waiting.setdefault(item, deque())
            if op == "unlock":
                readers[item].discard(client)
                if writer[item] == client:
                    writer[item] = None
            else:
                waiting[item].append((client, op))
            # Grant whatever is now grantable, FIFO per item.
            queue = waiting[item]
            while queue:
                client2, op2 = queue[0]
                if op2 == "read":
                    if writer[item] is None:
                        queue.popleft()
                        readers[item].add(client2)
                        yield self.app_send(client2, ("granted", op2, item))
                        continue
                else:  # write
                    no_writer = writer[item] is None
                    no_readers = not readers[item]
                    if no_writer and (no_readers or self._buggy):
                        # BUG (when readers present): write granted while
                        # read locks are outstanding.
                        queue.popleft()
                        writer[item] = client2
                        yield self.app_send(client2, ("granted", op2, item))
                        continue
                break


class TransactionApp(ApplicationProcess):
    """Runs scripted two-phase transactions.

    ``script`` is a list of transactions; each transaction is a list of
    ``(op, item)`` lock requests (``op`` in {"read", "write"}) acquired
    in order, held for ``hold_duration``, then released in reverse.
    The local state exposes ``read_<item>`` / ``write_<item>`` flags.
    """

    def __init__(
        self,
        pid: Pid,
        names: list[str],
        script: list[list[tuple[str, str]]],
        hold_duration: float = 2.0,
        **monitoring: Any,
    ) -> None:
        super().__init__(pid, names, **monitoring)
        for txn in script:
            for op, _item in txn:
                if op not in ("read", "write"):
                    raise ConfigurationError(f"unknown lock op {op!r}")
        self._script = script
        self._hold = hold_duration

    def request_count(self) -> int:
        """Messages this client will send to the manager."""
        return sum(2 * len(txn) for txn in self._script)

    def behavior(self):
        for txn in self._script:
            for op, item in txn:  # growing phase
                yield self.app_send(MANAGER_PID, (op, self.pid, item))
                msg = yield from self.recv_app()
                assert msg.payload[0] == "granted"
                yield self.set_vars(**{f"{op}_{item}": True})
            yield self.sleep(self._hold)
            for op, item in reversed(txn):  # shrinking phase
                yield self.set_vars(**{f"{op}_{item}": False})
                yield self.app_send(MANAGER_PID, ("unlock", self.pid, item))


def read_write_conflict_wcp(
    reader: Pid, writer: Pid, item: str = "x"
) -> WeakConjunctivePredicate:
    """The paper's predicate: ``reader`` holds a read lock while
    ``writer`` holds a write lock on the same item."""
    return WeakConjunctivePredicate(
        {reader: var_true(f"read_{item}"), writer: var_true(f"write_{item}")}
    )


def build_locking_system(
    scripts: dict[Pid, list[list[tuple[str, str]]]],
    wcp: WeakConjunctivePredicate,
    allow_write_with_readers: bool,
    mode: str = "vc",
    hold_duration: float = 2.0,
) -> list[ApplicationProcess]:
    """Manager (pid 0) plus one transaction client per script entry.

    ``scripts`` keys must be 1..k.
    """
    client_pids = sorted(scripts)
    if client_pids != list(range(1, len(client_pids) + 1)):
        raise ConfigurationError("script pids must be 1..k")
    names = app_names(len(client_pids) + 1)
    clients = [
        TransactionApp(
            pid, names, scripts[pid], hold_duration=hold_duration,
            **wiring(wcp, pid, mode),
        )
        for pid in client_pids
    ]
    manager = LockManagerApp(
        names,
        expected_requests=sum(c.request_count() for c in clients),
        allow_write_with_readers=allow_write_with_readers,
        **wiring(wcp, MANAGER_PID, mode),
    )
    return [manager] + clients
