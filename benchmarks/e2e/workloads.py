"""The four end-to-end workloads: inputs from a seed, one run, the oracle.

A *run* is what a user of the library does with a recorded trace: parse
the trace text, run a detector (or the multi-predicate service) on it
and read the verdict.  :func:`run_once` times exactly that.  Everything
else here is set-up (:func:`prepare`: generate the traces, serialize
them, compute the offline reference cut of every predicate) or checking
(:func:`judge`: compare every verdict with its reference and count what
the run cost).

Only stable public API is called: ``random_computation``, ``dumps`` /
``loads``, ``WeakConjunctivePredicate.of_flags``, ``run_detector`` /
``run_service``, ``FaultPlan.parse``, ``FailureDetectorConfig`` and, at
set-up only, ``vc_snapshots``.  The benchmark passes no representation
or profiling knob, so it measures whatever the library does by default.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from layers import traffic_by_layer
from repro.detect.runner import run_detector, run_service
from repro.detect.stack import FailureDetectorConfig
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.faults import FaultPlan
from repro.trace.generators import random_computation
from repro.trace.serialization import dumps, loads
from repro.trace.snapshots import vc_snapshots

#: Traces per workload.  A round runs each once, run ``i`` replaying
#: trace ``i`` with detection seed ``i``.  Sixteen traces keep the
#: median of a round within a few percent from one ``--seed`` to the next.
POOL = 16
SMOKE_POOL = 3

CHAOS_FAULTS = (
    "drop:*:0.05,dup:*:0.02,crash:mon-3:20:60,"
    "partition:40:80:mon-0+mon-1+mon-2|mon-3+mon-4"
)


@dataclass(frozen=True)
class Shape:
    """``random_computation`` arguments (N processes, m sends each)."""

    processes: int
    sends: int
    density: float
    #: multi-predicate service: (predicates, width) rotated over the ring
    service: tuple[int, int] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    detector: str
    shape: Shape
    smoke: Shape
    faults: str | None = None
    gossip: bool = False


WORKLOADS = (
    Workload(
        "tvc_wide", "token_vc",
        Shape(32, 64, 0.3), Shape(8, 16, 0.3),
    ),
    Workload(
        "dd_deep", "direct_dep",
        Shape(8, 512, 0.3), Shape(4, 64, 0.3),
    ),
    Workload(
        "chaos_gossip", "token_vc",
        Shape(16, 64, 0.3), Shape(6, 24, 0.3),
        faults=CHAOS_FAULTS, gossip=True,
    ),
    Workload(
        "service_p64", "token_vc",
        Shape(24, 32, 0.5, service=(64, 8)),
        Shape(12, 12, 0.5, service=(16, 4)),
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}


class _NoTrace:
    """Stands in for the tracer on untraced runs."""

    def span(self, name):
        return nullcontext()

    def run(self, run_id):
        return nullcontext()


NO_TRACE = _NoTrace()


@dataclass
class Prepared:
    """One workload's inputs, built by :func:`prepare`."""

    workload: Workload
    shape: Shape
    texts: list[str]
    #: per trace: the detection seed its run passes to the detector
    seeds: list[int]
    predicates: list[tuple[str, WeakConjunctivePredicate]]
    #: per trace: predicate id -> reference cut intervals (None: undetected)
    references: list[dict[str, tuple | None]]
    #: per trace: candidates the feeders must deliver at least once
    unique_candidates: list[int]
    #: per trace: events in the recorded computation
    events: list[int]
    #: sha256 over the trace texts, to tell generated inputs apart
    digest: str
    options: dict = field(default_factory=dict)

    def detect(self, computation, seed: int):
        if self.shape.service is not None:
            return run_service(
                self.workload.detector, computation, self.predicates, seed=seed
            )
        return run_detector(
            self.workload.detector, computation, self.predicates[0][1],
            seed=seed, **self.options,
        )


@dataclass
class Outcome:
    """What one run produced, as checked against the oracle."""

    verdicts: int
    failed: int
    raised: bool = False
    #: counted quantities; identical whenever the same run index repeats
    counts: dict[str, int] = field(default_factory=dict)
    detection_times: list[float] = field(default_factory=list)
    cuts: list[tuple | None] = field(default_factory=list)

    def fingerprint(self):
        return (sorted(self.counts.items()), self.detection_times, self.cuts)


def predicates_for(shape: Shape) -> list[tuple[str, WeakConjunctivePredicate]]:
    """One predicate over every process, or the service's rotated ring."""
    n = shape.processes
    if shape.service is None:
        return [("p", WeakConjunctivePredicate.of_flags(range(n)))]
    count, width = shape.service
    return [
        (
            f"q{k}",
            WeakConjunctivePredicate.of_flags(
                sorted({(pid + k) % n for pid in range(width)})
            ),
        )
        for k in range(count)
    ]


def prepare(workload: Workload, seed: int, smoke: bool = False) -> Prepared:
    """Build a workload's inputs from ``seed`` and make one warm-up run."""
    shape = workload.smoke if smoke else workload.shape
    pool = SMOKE_POOL if smoke else POOL
    rng = random.Random(f"e2e/{workload.name}/{seed}")
    trace_seeds = [rng.getrandbits(31) for _ in range(pool)]
    run_seeds = [rng.getrandbits(31) for _ in range(pool)]
    predicates = predicates_for(shape)
    union = WeakConjunctivePredicate.of_flags(
        sorted({pid for _, wcp in predicates for pid in wcp.pids})
    )
    texts, references, unique, events = [], [], [], []
    for trace_seed in trace_seeds:
        computation = random_computation(
            shape.processes, shape.sends, seed=trace_seed,
            predicate_density=shape.density, plant_final_cut=True,
        )
        text = dumps(computation)
        texts.append(text)
        events.append(
            sum(len(p["events"]) for p in json.loads(text)["processes"])
        )
        refs = {}
        for pred_id, wcp in predicates:
            cut = run_detector("reference", computation, wcp).cut
            refs[pred_id] = None if cut is None else tuple(cut.intervals)
        references.append(refs)
        streams = vc_snapshots(computation, union.predicate_map())
        unique.append(sum(len(stream) for stream in streams.values()))
    options: dict = {}
    if workload.faults is not None:
        options["faults"] = FaultPlan.parse(workload.faults)
    if workload.gossip:
        options["failure_detector"] = FailureDetectorConfig(membership="gossip")
    prepared = Prepared(
        workload=workload,
        shape=shape,
        texts=texts,
        seeds=run_seeds,
        predicates=predicates,
        references=references,
        unique_candidates=unique,
        events=events,
        digest=hashlib.sha256("\0".join(texts).encode()).hexdigest(),
        options=options,
    )
    attempt(prepared, 0)
    return prepared


def run_once(prep: Prepared, index: int, tracer=NO_TRACE):
    """One timed run, trace text to verdict: ``(wall seconds, report)``."""
    text = prep.texts[index]
    started = perf_counter()
    with tracer.span("trace.load"):
        computation = loads(text)
    with tracer.span("detect"):
        report = prep.detect(computation, prep.seeds[index])
    return perf_counter() - started, report


def attempt(prep: Prepared, index: int, tracer=NO_TRACE, run_id: str = ""):
    """:func:`run_once` then :func:`judge`; a run that raises fails every
    verdict it owed.  Returns ``(wall seconds, outcome)``."""
    try:
        with tracer.run(run_id):
            wall, report = run_once(prep, index, tracer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        owed = len(prep.predicates)
        return float("nan"), Outcome(verdicts=owed, failed=owed, raised=True)
    return wall, judge(prep, index, report)


def judge(prep: Prepared, index: int, report) -> Outcome:
    """Check every verdict of a run against the reference cut; count costs.

    A verdict fails if it was not detected, was degraded, or its cut
    differs from the offline reference (Thm 3.2 / 4.3: every correct
    detector reports the unique first cut).
    """
    reference = prep.references[index]
    if prep.shape.service is not None:
        verdicts = report.outcomes
    else:  # a DetectionReport has the same verdict fields as an outcome
        verdicts = {prep.predicates[0][0]: report}
    outcome = Outcome(
        verdicts=len(reference),
        failed=len(reference) - len(verdicts),  # a missing verdict fails
        counts=counted(prep, index, report),
    )
    for pred_id, verdict in verdicts.items():
        cut = None if verdict.cut is None else tuple(verdict.cut.intervals)
        outcome.cuts.append(cut)
        if verdict.detection_time is not None:
            outcome.detection_times.append(verdict.detection_time)
        expected = reference.get(pred_id)
        if (
            not verdict.detected or verdict.degraded
            or expected is None or cut != expected
        ):
            outcome.failed += 1
    return outcome


def counted(prep: Prepared, index: int, report) -> dict[str, int]:
    """The run's counted costs, from ``report.metrics`` / ``.sim`` / ``.extras``."""
    board, sim = report.metrics, report.sim
    traffic = traffic_by_layer(board)
    faults = sim.faults
    counts = {
        "mon_msgs": board.total_messages("mon-"),
        "wire_bits": board.total_bits(),
        "trace.events": prep.events[index],
        "simulation.kernel.steps": sim.steps,
        "simulation.kernel.delivered": sim.messages_delivered,
        "core.token_hops": board.messages_of_kind("token"),
        "core.work": board.total_work(),
        "core.max_space_bits": board.max_space_per_actor("mon-"),
        "membership.elections": report.extras.get("elections", 0),
        "membership.takeovers": report.extras.get("takeovers", 0),
        "candidate_sends": board.messages_of_kind("candidate"),
        "unique_candidates": prep.unique_candidates[index],
        "service.shared_stream_bits": (
            board.bits_of_kind("candidate")
            if prep.shape.service is not None else 0
        ),
    }
    for what in ("dropped", "duplicated", "partitioned", "lost_to_crash"):
        counts[f"simulation.faults.{what}"] = (
            getattr(faults, what) if faults is not None else 0
        )
    for layer, (msgs, bits) in traffic.items():
        counts[f"{layer}.msgs"] = msgs
        counts[f"{layer}.bits"] = bits
    return counts
