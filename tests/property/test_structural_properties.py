"""Property-based tests of structural round trips and conservation laws."""

from hypothesis import given, settings, strategies as st

from repro.trace import (
    computation_from_dict,
    computation_to_dict,
    dumps,
    loads,
    random_computation,
)
from repro.trace.snapshots import dd_snapshots, vc_snapshots
from repro.trace.generators import FLAG_VAR


computations = st.builds(
    random_computation,
    num_processes=st.integers(min_value=2, max_value=5),
    sends_per_process=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=50_000),
    predicate_density=st.floats(min_value=0.0, max_value=1.0),
    plant_final_cut=st.booleans(),
)


def flag(state):
    return bool(state.get(FLAG_VAR, False))


@settings(max_examples=40, deadline=None)
@given(computations)
def test_serialization_round_trip_preserves_structure(comp):
    """Both decoders give back the computation they were handed: every
    event (updates by repr, so True/1/1.0 stay apart), every message
    record in order, and the happened-before runs."""
    for restored in (
        loads(dumps(comp)),
        computation_from_dict(computation_to_dict(comp)),
    ):
        assert restored.num_processes == comp.num_processes
        for got, want in zip(restored.processes, comp.processes):
            assert got.events == want.events
            assert [repr(dict(e.updates)) for e in got.events] == [
                repr(dict(e.updates)) for e in want.events
            ]
            assert dict(got.initial_vars) == dict(want.initial_vars)
        assert list(restored.messages.items()) == list(comp.messages.items())
        assert list(restored.causal_runs()) == list(comp.causal_runs())
        a, b = comp.analysis(), restored.analysis()
        for pid in range(comp.num_processes):
            assert a.num_intervals(pid) == b.num_intervals(pid)


@settings(max_examples=40, deadline=None)
@given(computations)
def test_interval_count_conservation(comp):
    """Total intervals = N + total communication events."""
    a = comp.analysis()
    total_comm = sum(t.communication_count for t in comp.processes)
    assert sum(
        a.num_intervals(p) for p in range(comp.num_processes)
    ) == comp.num_processes + total_comm


@settings(max_examples=40, deadline=None)
@given(computations)
def test_vc_snapshots_are_strictly_increasing_per_process(comp):
    preds = {p: flag for p in range(comp.num_processes)}
    for pid, stream in vc_snapshots(comp, preds).items():
        intervals = [s.interval for s in stream]
        assert intervals == sorted(set(intervals))


@settings(max_examples=40, deadline=None)
@given(computations)
def test_dd_snapshot_dependences_partition_the_receives(comp):
    """Flushed dependence lists are disjoint, ordered slices of the
    receive sequence — nothing duplicated, nothing out of order."""
    preds = {p: flag for p in range(comp.num_processes)}
    streams = dd_snapshots(comp, preds)
    a = comp.analysis()
    for pid, stream in streams.items():
        emitted = [d for s in stream for d in s.deps]
        all_deps = [d for _, d in a.receive_dependences(pid)]
        assert emitted == all_deps[: len(emitted)]


@settings(max_examples=30, deadline=None)
@given(computations, st.integers(min_value=0, max_value=1000))
def test_simulation_is_deterministic(comp, seed):
    """The same detection run twice is bit-identical."""
    from repro.detect import run_detector
    from repro.predicates import WeakConjunctivePredicate

    wcp = WeakConjunctivePredicate.of_flags(range(comp.num_processes))

    def once():
        r = run_detector("token_vc", comp, wcp, seed=seed)
        return (
            r.detected,
            r.cut,
            r.detection_time,
            r.metrics.total_bits(),
            r.sim.steps,
        )

    assert once() == once()


@settings(max_examples=30, deadline=None)
@given(computations)
def test_message_conservation_in_detection_runs(comp):
    """Every monitor message sent is eventually delivered (reliable
    channels), and consumed counts never exceed deliveries."""
    from repro.detect import run_detector
    from repro.predicates import WeakConjunctivePredicate
    from repro.simulation import EventLog, MessagePhase

    wcp = WeakConjunctivePredicate.of_flags(range(comp.num_processes))
    log = EventLog()
    run_detector("direct_dep", comp, wcp, observers=[log])
    sent = len(log.of_phase(MessagePhase.SENT))
    delivered = len(log.of_phase(MessagePhase.DELIVERED))
    consumed = len(log.of_phase(MessagePhase.CONSUMED))
    assert delivered == sent
    assert consumed <= delivered
