"""JSONL trace export/import.

The wire format is line-delimited JSON.  The first line is a run header
(``"type": "run"``) carrying the trace id plus whatever run metadata the
producer attached (detector, verdict, metrics snapshot, fault summary);
every following line is one span (``"type": "span"``) in OTel-flavored
form::

    {"type": "run", "trace_id": "…", "detector": "token_vc", ...}
    {"type": "span", "trace_id": "…", "span_id": 1, "parent_id": null,
     "name": "run", "actor": "kernel", "start": 0.0, "end": 42.0,
     "attrs": {}}

Readers tolerate a missing header and ignore unknown record types, so
the format can grow new record types without breaking old consumers.
A *torn final line* — the signature of a writer that died mid-record
(crash dumps, killed sweeps) — is tolerated too: the partial
record is discarded and the parsed trace carries ``truncated: True`` in
its meta so tooling can surface the data loss.  Garbage anywhere before
the final line still raises, since that indicates corruption rather
than truncation.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable

from repro.common.errors import ObservabilityError
from repro.obs.spans import Span, Trace

__all__ = [
    "dump_jsonl",
    "dumps_jsonl",
    "iter_spans",
    "load_jsonl",
    "loads_jsonl",
]


def _json_default(value: Any) -> Any:
    if isinstance(value, (set, frozenset, tuple)):
        return list(value)
    return str(value)


def dumps_jsonl(trace: Trace) -> str:
    """Serialize a trace (header line + one line per span)."""
    header = {"type": "run", "trace_id": trace.trace_id, **trace.meta}
    lines = [json.dumps(header, default=_json_default)]
    for span in trace.spans:
        lines.append(
            json.dumps(
                {"type": "span", **span.as_dict()}, default=_json_default
            )
        )
    return "\n".join(lines) + "\n"


def dump_jsonl(trace: Trace, path: str | pathlib.Path) -> pathlib.Path:
    """Write a trace to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.write_text(dumps_jsonl(trace), encoding="utf-8")
    return path


def loads_jsonl(text: str, validate: bool = True) -> Trace:
    """Parse a JSONL trace; optionally validate structural invariants.

    A torn final line (crash-truncated file) sets ``truncated: True``
    in the trace meta instead of raising; see the module docstring.
    """
    meta: dict[str, Any] = {}
    trace_id: str | None = None
    spans: list[Span] = []
    lines = text.splitlines()
    last_content = max(
        (i for i, line in enumerate(lines, start=1) if line.strip()),
        default=0,
    )
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == last_content:
                # The writer died mid-record; keep everything before it.
                meta["truncated"] = True
                break
            raise ObservabilityError(
                f"line {lineno}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ObservabilityError(f"line {lineno}: expected an object")
        rtype = record.get("type", "span")
        if rtype == "run":
            trace_id = record.get("trace_id") or trace_id
            meta.update(
                {k: v for k, v in record.items()
                 if k not in ("type", "trace_id")}
            )
        elif rtype == "span":
            spans.append(Span.from_dict(record))
        # Unknown record types are skipped for forward compatibility.
    if trace_id is None:
        if not spans:
            raise ObservabilityError("empty trace: no header and no spans")
        trace_id = spans[0].trace_id
    trace = Trace(trace_id, spans, meta)
    if validate:
        trace.validate()
    return trace


def load_jsonl(path: str | pathlib.Path, validate: bool = True) -> Trace:
    """Read a JSONL trace file written by :func:`dump_jsonl`."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ObservabilityError(f"no such trace file: {path}")
    return loads_jsonl(path.read_text(encoding="utf-8"), validate=validate)


def iter_spans(path: str | pathlib.Path) -> Iterable[Span]:
    """Stream spans from a JSONL file without building a Trace."""
    path = pathlib.Path(path)
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if isinstance(record, dict) and record.get("type", "span") == "span":
                yield Span.from_dict(record)
