"""The interval analysis against first principles, and when it builds.

The analysis computes scalars (send tags, receive dependences) eagerly
without causal order, and interval vector clocks lazily in wake-list
order.  Both are checked against the event-level Fidge–Mattern clocks
of :func:`repro.trace.causality.event_vector_clocks`, which use the
independent heap-ordered ``topological_order()`` linearization.  The
§4 detectors must never trigger the vector build.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import StateRef
from repro.detect import run_detector
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.faults import FaultPlan
from repro.trace import dumps, loads, random_computation
from repro.trace.causality import event_vector_clocks
from repro.trace.events import EventKind

computations = st.builds(
    random_computation,
    num_processes=st.integers(min_value=2, max_value=5),
    sends_per_process=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=50_000),
    predicate_density=st.floats(min_value=0.0, max_value=1.0),
)


def expected_component(comp, analysis, clocks, i, j, y):
    """``vector(j, y)[i]`` for ``i != j`` from event-level clocks.

    Interval ``y > 1`` of ``j`` is opened by the communication event
    just before its first state; the ``c`` events of ``i`` in that
    event's causal past end with the send that carried ``i``'s latest
    interval to ``j``, which closed interval ``interval_of_state(i,
    c - 1)``.
    """
    if y == 1:
        return 0
    opener = analysis.states_in_interval(j, y).start - 1
    c = clocks[j][opener][i]
    if c == 0:
        return 0
    assert comp.event(i, c - 1).kind is EventKind.SEND
    return analysis.interval_of_state(i, c - 1)


@settings(max_examples=60, deadline=None)
@given(computations)
def test_happened_before_agrees_with_event_clocks(comp):
    analysis = comp.analysis()
    clocks = event_vector_clocks(comp)
    n = comp.num_processes
    states = [
        StateRef(pid, x)
        for pid in range(n)
        for x in range(1, analysis.num_intervals(pid) + 1)
    ]
    for b in states:
        for i in range(n):
            if i == b.pid:
                assert analysis.vector(b.pid, b.interval)[i] == b.interval
                continue
            known = expected_component(comp, analysis, clocks, i, b.pid, b.interval)
            assert analysis.vector(b.pid, b.interval)[i] == known
        for a in states:
            if a.pid == b.pid:
                expected = a.interval < b.interval
            else:
                expected = a.interval <= expected_component(
                    comp, analysis, clocks, a.pid, b.pid, b.interval
                )
            assert analysis.happened_before(a, b) == expected


def _scalars(comp, analysis):
    tags = {
        event.msg_id: analysis.send_tag(event.msg_id)
        for trace in comp.processes
        for event in trace.events
        if event.kind is EventKind.SEND
    }
    deps = [analysis.receive_dependences(p) for p in range(comp.num_processes)]
    return tags, deps


@settings(max_examples=60, deadline=None)
@given(computations)
def test_scalars_do_not_depend_on_vectors(comp):
    built = loads(dumps(comp))
    built.analysis().vector(0, 1)  # vectors first, scalars after
    lazy = comp.analysis()
    before = _scalars(comp, lazy)
    assert not lazy.vectors_built
    assert _scalars(built, built.analysis()) == before
    lazy.vector(0, 1)
    assert lazy.vectors_built
    assert _scalars(comp, lazy) == before
    # Each dependence is (sender, tag of the message's send).
    for pid, deps in enumerate(before[1]):
        for recv_index, dep in deps:
            event = comp.event(pid, recv_index)
            assert dep.source == event.peer
            assert dep.clock == before[0][event.msg_id]


@pytest.mark.parametrize("faults", (None, "drop:token:0.2,crash:mon-1:4:9"))
@pytest.mark.parametrize("name", ("direct_dep", "direct_dep_parallel"))
def test_direct_dependence_runs_never_build_vectors(name, faults):
    comp = random_computation(4, 6, seed=2, predicate_density=0.3,
                              plant_final_cut=True)
    options = {} if faults is None else {"faults": FaultPlan.parse(faults)}
    report = run_detector(
        name, comp, WeakConjunctivePredicate.of_flags(range(4)), seed=1,
        **options,
    )
    assert report.detected
    assert not comp.analysis().vectors_built
