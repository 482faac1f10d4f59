"""Importing computations from plain-text event logs.

Real systems rarely emit this library's JSON; they emit *logs*.  This
module reads (and writes) a minimal line-oriented format that a shell
one-liner can produce from most structured logs::

    # comments and blank lines are ignored
    init 0 flag=false budget=3
    internal 0 flag=true @0.5
    send 0 m17 1 @1.0
    recv 1 m17 flag=true @2.25
    internal 1 @3.0

Grammar per line (whitespace separated):

* ``init <pid> [key=value ...]`` — initial variables (before any event);
* ``internal <pid> [key=value ...] [@time]``;
* ``send <pid> <msg_id> <dest_pid> [key=value ...] [@time]``;
* ``recv <pid> <msg_id> [key=value ...] [@time]``.

Message ids are arbitrary tokens (``m17``, ``req-4``, …); values are
parsed as JSON scalars when possible (``true``, ``3``, ``1.5``) and kept
as strings otherwise.  Per-process event order is the order of that
process's lines.  The result is fully validated by
:class:`~repro.trace.computation.Computation` (matched messages, causal
acyclicity, time sanity).
"""

from __future__ import annotations

import json
from math import isfinite

from repro.common.errors import SerializationError
from repro.trace.computation import Computation
from repro.trace.events import Event, EventKind, ProcessTrace

__all__ = ["parse_log", "format_log"]


def _parse_value(token: str) -> object:
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


def _split_fields(tokens: list[str], lineno: int):
    """Split trailing tokens into (updates, time)."""
    updates: dict[str, object] = {}
    time: float | None = None
    for token in tokens:
        if token.startswith("@"):
            if time is not None:
                raise SerializationError(f"line {lineno}: duplicate @time")
            try:
                time = float(token[1:])
            except ValueError:
                time = None
            # float() also reads nan and inf, which no event may carry.
            if time is None or not isfinite(time):
                raise SerializationError(f"line {lineno}: bad timestamp {token!r}")
        elif "=" in token:
            key, _, raw = token.partition("=")
            if not key:
                raise SerializationError(f"line {lineno}: empty key in {token!r}")
            updates[key] = _parse_value(raw)
        else:
            raise SerializationError(
                f"line {lineno}: unexpected token {token!r} "
                f"(expected key=value or @time)"
            )
    return updates, time


def _parse_pid(token: str, lineno: int) -> int:
    try:
        pid = int(token)
    except ValueError:
        raise SerializationError(
            f"line {lineno}: pid must be an integer, got {token!r}"
        ) from None
    if pid < 0:
        raise SerializationError(f"line {lineno}: pid must be >= 0")
    return pid


def parse_log(text: str, allow_unreceived: bool = False) -> Computation:
    """Parse a text log into a validated :class:`Computation`.

    The process count is ``1 + max pid mentioned``.
    """
    initials: dict[int, dict[str, object]] = {}
    # Raw rows: (pid, kind, msg_token, dest, updates, time)
    rows: list[tuple] = []
    max_pid = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        op = tokens[0].lower()
        if op == "init":
            if len(tokens) < 2:
                raise SerializationError(f"line {lineno}: init needs a pid")
            pid = _parse_pid(tokens[1], lineno)
            updates, time = _split_fields(tokens[2:], lineno)
            if time is not None:
                raise SerializationError(
                    f"line {lineno}: init lines take no @time"
                )
            initials.setdefault(pid, {}).update(updates)
        elif op == "internal":
            if len(tokens) < 2:
                raise SerializationError(f"line {lineno}: internal needs a pid")
            pid = _parse_pid(tokens[1], lineno)
            updates, time = _split_fields(tokens[2:], lineno)
            rows.append((pid, "internal", None, None, updates, time))
        elif op == "send":
            if len(tokens) < 4:
                raise SerializationError(
                    f"line {lineno}: send needs pid, msg id and dest"
                )
            pid = _parse_pid(tokens[1], lineno)
            dest = _parse_pid(tokens[3], lineno)
            updates, time = _split_fields(tokens[4:], lineno)
            rows.append((pid, "send", tokens[2], dest, updates, time))
            max_pid = max(max_pid, dest)
        elif op == "recv":
            if len(tokens) < 3:
                raise SerializationError(
                    f"line {lineno}: recv needs pid and msg id"
                )
            pid = _parse_pid(tokens[1], lineno)
            updates, time = _split_fields(tokens[3:], lineno)
            rows.append((pid, "recv", tokens[2], None, updates, time))
        else:
            raise SerializationError(
                f"line {lineno}: unknown operation {op!r} "
                f"(expected init/internal/send/recv)"
            )
        if op != "init":
            max_pid = max(max_pid, rows[-1][0])
        else:
            max_pid = max(max_pid, pid)
    if max_pid < 0:
        raise SerializationError("log contains no events or init lines")

    # Assign integer message ids to message tokens; resolve senders.
    msg_ids: dict[str, int] = {}
    senders: dict[str, int] = {}
    for pid, kind, token, dest, _updates, _time in rows:
        if kind == "send":
            if token in msg_ids:
                raise SerializationError(f"message {token!r} sent twice")
            msg_ids[token] = len(msg_ids)
            senders[token] = pid
    events: list[list[Event]] = [[] for _ in range(max_pid + 1)]
    for pid, kind, token, dest, updates, time in rows:
        if kind == "internal":
            events[pid].append(Event.internal(updates, time))
        elif kind == "send":
            events[pid].append(
                Event.send(msg_ids[token], dest, updates, time)
            )
        else:
            if token not in msg_ids:
                raise SerializationError(
                    f"message {token!r} received but never sent"
                )
            events[pid].append(
                Event.recv(msg_ids[token], senders[token], updates, time)
            )
    traces = [
        ProcessTrace(tuple(events[pid]), initials.get(pid, {}))
        for pid in range(max_pid + 1)
    ]
    return Computation(traces, allow_unreceived=allow_unreceived)


def format_log(computation: Computation) -> str:
    """Render a computation in the importable text format (round trips
    through :func:`parse_log` up to message-id renaming)."""
    lines: list[str] = []
    for pid, trace in enumerate(computation.processes):
        if trace.initial_vars:
            fields = " ".join(
                f"{k}={json.dumps(v)}" for k, v in sorted(trace.initial_vars.items())
            )
            lines.append(f"init {pid} {fields}")
    for pid, trace in enumerate(computation.processes):
        for event in trace.events:
            parts: list[str]
            if event.kind is EventKind.INTERNAL:
                parts = ["internal", str(pid)]
            elif event.kind is EventKind.SEND:
                parts = ["send", str(pid), f"m{event.msg_id}", str(event.peer)]
            else:
                parts = ["recv", str(pid), f"m{event.msg_id}"]
            for key, value in sorted(event.updates.items()):
                parts.append(f"{key}={json.dumps(value)}")
            if event.time is not None:
                parts.append(f"@{event.time}")
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
