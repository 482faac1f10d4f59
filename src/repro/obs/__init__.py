"""Observability: causal span tracing, run reports, telemetry.

The paper's contribution is an accounting argument — messages, bits,
work and space per process (§3.4, §4.4).  This package makes those
quantities *observable* on live runs:

* :mod:`repro.obs.spans` — the span model (:class:`Span`,
  :class:`Trace`) with parent links, simulated timestamps and the query
  API (``spans_by_actor`` / ``critical_path`` / ``token_itinerary``);
* :mod:`repro.obs.tracer` — :class:`SpanTracer`, a kernel observer that
  synthesizes protocol-phase spans (token hops, elimination rounds,
  candidate queueing, poll round-trips, halts) and overlays injected
  faults and crash epochs on the same timeline;
* :mod:`repro.obs.export` — the OTel-flavored JSONL trace format;
* :mod:`repro.obs.invariants` — runtime verification: streaming
  protocol-invariant monitors (:class:`InvariantMonitor`) over the same
  observer hook, the always-on crash :class:`FlightRecorder`, and
  offline trace replay (``repro verify-trace``);
* :mod:`repro.obs.report` — ASCII run reports (``repro report``);
* :mod:`repro.obs.benchjson` — the structured benchmark-result schema.

Quickstart::

    from repro.obs import SpanTracer, dump_jsonl, render_report

    tracer = SpanTracer()
    report = run_detector("token_vc", comp, wcp, observers=[tracer])
    trace = tracer.finish(report.sim.time, detector="token_vc")
    dump_jsonl(trace, "run.jsonl")
    print(render_report(trace))
"""

from repro.obs.benchjson import (
    BENCH_SCHEMA,
    load_benchmark_json,
    structured_result,
    write_benchmark_json,
)
from repro.obs.export import (
    dump_jsonl,
    dumps_jsonl,
    iter_spans,
    load_jsonl,
    loads_jsonl,
)
from repro.obs.invariants import (
    INVARIANT_FAMILIES,
    FlightRecorder,
    InvariantMonitor,
    InvariantViolation,
    message_facts,
    replay_trace,
)
from repro.obs.report import render_report, render_timeline
from repro.obs.spans import Span, TokenHop, Trace
from repro.obs.tracer import SpanTracer

__all__ = [
    "Span",
    "TokenHop",
    "Trace",
    "SpanTracer",
    "dump_jsonl",
    "dumps_jsonl",
    "iter_spans",
    "load_jsonl",
    "loads_jsonl",
    "INVARIANT_FAMILIES",
    "FlightRecorder",
    "InvariantMonitor",
    "InvariantViolation",
    "message_facts",
    "replay_trace",
    "render_report",
    "render_timeline",
    "BENCH_SCHEMA",
    "structured_result",
    "write_benchmark_json",
    "load_benchmark_json",
]
