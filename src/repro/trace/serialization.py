"""JSON serialization of computations.

Recorded runs are plain data; persisting them lets benchmark workloads
be archived and examples ship canned traces.  Variable values must be
JSON-representable (the generators only use booleans and numbers).

Decoding is one checked pass per process: ``Event._decoded`` checks
each event's fields once and builds the event once, and equal
``updates`` of one process share one read-only mapping; this module
adds the process and event to any error.  :func:`loads` owns the
document it parses, so it drops each process's JSON once that process's
events exist: the JSON tree and the events are never both fully alive.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.common.errors import SerializationError
from repro.trace.computation import Computation
from repro.trace.events import _NO_UPDATES, Event, EventKind, ProcessTrace

__all__ = ["computation_to_dict", "computation_from_dict", "dumps", "loads"]

_FORMAT_VERSION = 1

#: Wire value -> kind, a dict lookup instead of ``EventKind(value)``.
_KINDS = {kind.value: kind for kind in EventKind}


def computation_to_dict(computation: Computation) -> dict[str, Any]:
    """Encode a computation as a JSON-compatible dictionary."""
    processes = []
    for trace in computation.processes:
        events = []
        for event in trace.events:
            entry: dict[str, Any] = {"kind": event.kind.value}
            if event.msg_id is not None:
                entry["msg_id"] = event.msg_id
            if event.peer is not None:
                entry["peer"] = event.peer
            if event.updates:
                entry["updates"] = dict(event.updates)
            if event.time is not None:
                entry["time"] = event.time
            events.append(entry)
        processes.append(
            {"initial_vars": dict(trace.initial_vars), "events": events}
        )
    return {"version": _FORMAT_VERSION, "processes": processes}


def computation_from_dict(data: dict[str, Any]) -> Computation:
    """Decode a computation from :func:`computation_to_dict` output.

    Raises :class:`SerializationError` on malformed input, naming the
    process and event at fault; structural validation (message matching,
    acyclicity) is re-run on construction.  ``data`` is not modified.
    """
    return _decode(data, owned=False)


def _decode(data: dict[str, Any], owned: bool) -> Computation:
    """Decode ``data``; if ``owned``, release each process's JSON as
    soon as its events are built."""
    try:
        version = data["version"]
        if version != _FORMAT_VERSION:
            raise SerializationError(f"unsupported format version {version!r}")
        processes = data["processes"]
        traces = []
        for pid, proc in enumerate(processes):
            traces.append(_decode_process(pid, proc))
            if owned:
                processes[pid] = None
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed computation document: {exc}") from exc
    return Computation(traces)


def _decode_process(pid: int, proc: dict[str, Any]) -> ProcessTrace:
    """One process's trace, each event checked and built once; errors
    name the process and, inside its event list, the event."""
    events = []
    append = events.append
    kinds = _KINDS
    decoded = Event._decoded
    shared: dict[str, Mapping[str, object]] = {}
    index = None
    try:
        for index, entry in enumerate(proc["events"]):
            kind = kinds.get(entry["kind"])
            if kind is None:
                raise ValueError(f"unknown event kind {entry['kind']!r}")
            get = entry.get
            append(
                decoded(
                    kind,
                    get("msg_id"),
                    get("peer"),
                    get("updates", _NO_UPDATES),
                    get("time"),
                    shared,
                )
            )
        index = None
        return ProcessTrace(tuple(events), proc.get("initial_vars", {}))
    except (KeyError, TypeError, ValueError) as exc:
        where = f"process {pid}" if index is None else f"process {pid} event {index}"
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise SerializationError(
            f"malformed computation document: {where}: {detail}"
        ) from exc


def dumps(computation: Computation, indent: int | None = None) -> str:
    """Serialize a computation to a JSON string."""
    return json.dumps(computation_to_dict(computation), indent=indent)


def loads(text: str) -> Computation:
    """Deserialize a computation from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return _decode(data, owned=True)
