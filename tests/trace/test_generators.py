"""Unit tests for workload generators."""

from dataclasses import replace

import pytest

from repro.common import ConfigurationError
from repro.predicates import WeakConjunctivePredicate, brute_force_first_cut
from repro.trace import (
    FLAG_VAR,
    WorkloadSpec,
    dumps,
    empty_computation,
    generate,
    never_true_computation,
    random_computation,
    ring_computation,
    skewed_concurrent_computation,
    spiral_computation,
    worst_case_computation,
)
from repro.trace.events import EventKind


class TestWorkloadSpec:
    def test_defaults(self):
        spec = WorkloadSpec(num_processes=4, sends_per_process=5)
        assert spec.pattern == "uniform"
        assert spec.effective_predicate_pids == (0, 1, 2, 3)

    def test_bad_pattern(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(4, 5, pattern="star")

    def test_bad_density(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(4, 5, predicate_density=1.5)

    def test_single_process_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(1, 5)

    def test_predicate_pids_validated(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(4, 5, predicate_pids=(0, 9))
        with pytest.raises(ConfigurationError):
            WorkloadSpec(4, 5, predicate_pids=(0, 0))
        with pytest.raises(ConfigurationError):
            WorkloadSpec(4, 5, predicate_pids=())


class TestGenerate:
    def test_deterministic_for_seed(self):
        a = random_computation(4, 6, seed=42)
        b = random_computation(4, 6, seed=42)
        assert [
            [(e.kind, e.msg_id, e.peer) for e in t.events] for t in a.processes
        ] == [
            [(e.kind, e.msg_id, e.peer) for e in t.events] for t in b.processes
        ]

    @pytest.mark.parametrize("density", [0.0, 0.3])
    @pytest.mark.parametrize("plant", [False, True])
    @pytest.mark.parametrize("predicate_pids", [None, (0, 2)])
    @pytest.mark.parametrize(
        "pattern", ["uniform", "ring", "client_server", "pairs"]
    )
    def test_pure_function_of_the_spec(
        self, pattern, predicate_pids, plant, density
    ):
        """Sweeps regenerate every cell's workload in every worker, so
        the whole serialized trace — times and flags included — must
        depend on the spec alone."""
        spec = WorkloadSpec(
            5, 6, pattern=pattern, predicate_pids=predicate_pids,
            predicate_density=density, plant_final_cut=plant, seed=7,
        )
        first = dumps(generate(spec))
        assert dumps(generate(spec)) == first
        assert dumps(generate(replace(spec, seed=8))) != first

    def test_different_seeds_differ(self):
        a = random_computation(4, 6, seed=1)
        b = random_computation(4, 6, seed=2)
        sig = lambda c: [
            [(e.kind, e.msg_id, e.peer) for e in t.events] for t in c.processes
        ]
        assert sig(a) != sig(b)

    def test_all_sends_performed(self):
        comp = random_computation(5, 7, seed=3)
        for trace in comp.processes:
            sends = sum(1 for e in trace.events if e.kind is EventKind.SEND)
            assert sends == 7

    def test_all_messages_received(self):
        comp = random_computation(5, 7, seed=4)
        total_sends = sum(
            1
            for t in comp.processes
            for e in t.events
            if e.kind is EventKind.SEND
        )
        assert len(comp.messages) == total_sends

    def test_times_are_causal(self):
        comp = random_computation(4, 8, seed=5)
        for rec in comp.messages.values():
            st = comp.event(rec.sender, rec.send_index).time
            rt = comp.event(rec.receiver, rec.recv_index).time
            assert st is not None and rt is not None and rt >= st

    def test_ring_pattern_only_next_neighbor(self):
        comp = generate(WorkloadSpec(5, 4, pattern="ring", seed=6))
        for pid, trace in enumerate(comp.processes):
            for e in trace.events:
                if e.kind is EventKind.SEND:
                    assert e.peer == (pid + 1) % 5

    def test_pairs_pattern_fixed_partner(self):
        comp = generate(WorkloadSpec(4, 4, pattern="pairs", seed=7))
        for pid, trace in enumerate(comp.processes):
            partner = pid + 1 if pid % 2 == 0 else pid - 1
            for e in trace.events:
                if e.kind is EventKind.SEND:
                    assert e.peer == partner

    def test_client_server_pattern(self):
        comp = generate(WorkloadSpec(8, 4, pattern="client_server", seed=8))
        servers = 2  # 8 // 4
        for pid, trace in enumerate(comp.processes):
            for e in trace.events:
                if e.kind is EventKind.SEND:
                    if pid < servers:
                        assert e.peer >= servers
                    else:
                        assert e.peer < servers

    def test_zero_density_never_raises_flag(self):
        comp = never_true_computation(4, 6, seed=9)
        for pid in range(4):
            assert all(not s.get(FLAG_VAR) for s in comp.local_states(pid))


class TestSpecialGenerators:
    def test_worst_case_detectable_at_final_cut(self):
        comp = worst_case_computation(3, 4, seed=10)
        wcp = WeakConjunctivePredicate.of_flags([0, 1, 2])
        cut = brute_force_first_cut(comp, wcp)
        assert cut is not None
        a = comp.analysis()
        assert cut.intervals == tuple(a.num_intervals(p) for p in range(3))

    def test_never_true_not_detectable(self):
        comp = never_true_computation(3, 4, seed=11)
        wcp = WeakConjunctivePredicate.of_flags([0, 1, 2])
        assert brute_force_first_cut(comp, wcp) is None

    def test_empty_computation(self):
        comp = empty_computation(3)
        assert comp.total_events() == 0
        assert comp.max_messages_per_process() == 0

    def test_empty_computation_bad_n(self):
        with pytest.raises(ConfigurationError):
            empty_computation(0)

    def test_ring_computation_valid(self):
        comp = ring_computation(4, rounds=3, seed=12)
        assert comp.num_processes == 4

    def test_spiral_total_order_forces_final_cut(self):
        comp = spiral_computation(3, rounds=2)
        wcp = WeakConjunctivePredicate.of_flags([0, 1, 2])
        cut = brute_force_first_cut(comp, wcp)
        a = comp.analysis()
        assert cut is not None
        assert cut.intervals == tuple(a.num_intervals(p) for p in range(3))

    def test_spiral_message_count(self):
        comp = spiral_computation(4, rounds=3)
        # Each full circuit gives each process one send and one receive.
        assert comp.max_messages_per_process() in (6, 7)

    def test_spiral_needs_two_processes(self):
        with pytest.raises(ConfigurationError):
            spiral_computation(1, rounds=2)

    def test_skewed_candidates_concurrent_across_pairs(self):
        comp = skewed_concurrent_computation(3, 8)
        wcp = WeakConjunctivePredicate.of_flags([0, 1, 2])
        cut = brute_force_first_cut(comp, wcp)
        assert cut is not None
        # First satisfying cut is each process's first flag-true interval
        # (interval 3: warm-up send + recv close intervals 1 and 2).
        assert cut.intervals == (3, 3, 3)

    def test_skewed_slow_pid_validated(self):
        with pytest.raises(ConfigurationError):
            skewed_concurrent_computation(3, 8, slow_pid=3)

    def test_skewed_messages_per_process(self):
        comp = skewed_concurrent_computation(3, 8)
        assert comp.max_messages_per_process() == 8
