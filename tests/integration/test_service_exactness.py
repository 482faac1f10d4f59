"""Integration: multi-predicate service exactness vs independent runs.

The acceptance invariant for the detection service (ISSUE 10): every
predicate registered with :func:`repro.detect.run_service` reports
exactly the verdict and first cut of an independent single-predicate
:func:`repro.detect.run_detector` run over the same computation, seed
and fault plan — for the transport-multiplexed ``token_vc`` path and
the amortized families alike, under message loss, crashes, partitions
that heal, and membership churn.  Detection *time* is explicitly not
compared: Theorem 3.2 makes the first cut schedule-independent, the
latency is not.

Fault plans that name actors (crashes, churn, partition groups that
must bite in every run) only name ``mon-0``/``app-0``, and every
overlapping predicate set contains pid 0, so the named actors exist in
each independent reference run too.  Disjoint sets use loss and
partitions only — partition groups naming absent actors are harmless
no-ops, never configuration errors.

50 seeded workloads total, split across P in {2, 16, 64}.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.detect import run_detector, run_service
from repro.detect.service import PredicateRegistry, SharedCausalityDispatcher
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.faults import FaultPlan
from repro.trace import random_computation

HARDENED = ("token_vc", "token_vc_multi", "direct_dep", "direct_dep_parallel")

LOSS_CRASH = FaultPlan.parse("drop:token:0.2,crash:mon-0:4:9")
PARTITION_HEAL = FaultPlan.parse(
    "drop:token:0.15,partition:4:20:mon-0+app-0|mon-1"
)
CHURN = FaultPlan.parse("churn:mon-0:5:12:6:2")
LOSS_ONLY = FaultPlan.parse("drop:token:0.2")


def _overlapping_sets(count, num_processes, width):
    """``count`` pid sets of ``width``, every one containing pid 0."""
    rest = num_processes - 1
    return [
        tuple(sorted({0} | {1 + (k + j) % rest for j in range(width - 1)}))
        for k in range(count)
    ]


def _entries(pid_sets):
    return [
        (f"q{k}", WeakConjunctivePredicate.of_flags(pids))
        for k, pids in enumerate(pid_sets)
    ]


def _assert_matches_reference(detector, comp, entries, seed, faults):
    """Each predicate's service outcome equals its independent run.

    References are cached by pid set: predicates with identical pid
    sets (distinct ids) necessarily share one reference.
    """
    report = run_service(detector, comp, entries, seed=seed, faults=faults)
    cache = {}
    for pred_id, wcp in entries:
        if wcp.pids not in cache:
            cache[wcp.pids] = run_detector(
                detector, comp, wcp, seed=seed, faults=faults
            )
        ref = cache[wcp.pids]
        out = report.outcomes[pred_id]
        assert out.outcome == ref.outcome, (
            f"{detector} {pred_id}: service says {out.outcome}, "
            f"independent run says {ref.outcome}"
        )
        assert out.cut == ref.cut, (
            f"{detector} {pred_id}: service cut {out.cut} != "
            f"reference cut {ref.cut}"
        )


class TestLossCrashExactness:
    """P=2 overlapping sets, all four hardened detectors (15 seeds)."""

    @pytest.mark.parametrize("seed", range(15))
    def test_p2_overlapping(self, seed):
        detector = HARDENED[seed % len(HARDENED)]
        comp = random_computation(
            4, 4, seed=seed, predicate_density=0.3,
            plant_final_cut=(seed % 2 == 0),
        )
        entries = _entries([(0, 1, 2), (0, 2, 3)])
        _assert_matches_reference(detector, comp, entries, seed, LOSS_CRASH)


class TestPartitionHealExactness:
    """P=2 disjoint sets, multiplexed token_vc (10 seeds)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_p2_disjoint(self, seed):
        comp = random_computation(
            4, 4, seed=100 + seed, predicate_density=0.3,
            plant_final_cut=(seed % 2 == 0),
        )
        entries = _entries([(0, 1), (2, 3)])
        _assert_matches_reference(
            "token_vc", comp, entries, seed, PARTITION_HEAL
        )


class TestChurnExactness:
    """P=16 overlapping sets under churn, multiplexed token_vc (10 seeds)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_p16_churn(self, seed):
        comp = random_computation(
            5, 4, seed=200 + seed, predicate_density=0.4,
            plant_final_cut=(seed % 2 == 0),
        )
        entries = _entries(_overlapping_sets(16, 5, 3))
        _assert_matches_reference("token_vc", comp, entries, seed, CHURN)


class TestAmortizedExactness:
    """P=16 overlapping sets on the amortized families (10 seeds)."""

    AMORTIZED = ("token_vc_multi", "direct_dep", "direct_dep_parallel")

    @pytest.mark.parametrize("seed", range(10))
    def test_p16_loss_crash(self, seed):
        detector = self.AMORTIZED[seed % len(self.AMORTIZED)]
        comp = random_computation(
            4, 4, seed=300 + seed, predicate_density=0.4,
            plant_final_cut=(seed % 2 == 0),
        )
        entries = _entries(_overlapping_sets(16, 4, 3))
        _assert_matches_reference(detector, comp, entries, seed, LOSS_CRASH)


class TestWideServiceExactness:
    """P=64 multiplexed under token loss (5 seeds)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_p64_loss(self, seed):
        comp = random_computation(
            4, 3, seed=400 + seed, predicate_density=0.4,
            plant_final_cut=(seed % 2 == 0),
        )
        entries = _entries(_overlapping_sets(64, 4, 2))
        _assert_matches_reference("token_vc", comp, entries, seed, LOSS_ONLY)


class TestMuxJoin:
    def test_join_clause_rejected(self):
        """The multiplexed service has no membership layer to admit a
        joiner; a ``join:`` clause is refused, not silently dropped."""
        comp = random_computation(4, 4, seed=2, plant_final_cut=True)
        plan = FaultPlan.parse("join:mon-9:6:mon-0")
        with pytest.raises(ConfigurationError, match="membership layer"):
            run_service("token_vc", comp, _entries([(0, 1), (1, 2)]), faults=plan)


class TestRegistry:
    """Unit semantics of the predicate registry."""

    def _wcp(self, *pids):
        return WeakConjunctivePredicate.of_flags(pids)

    def test_duplicate_ids_rejected(self):
        registry = PredicateRegistry()
        registry.register("q0", self._wcp(0, 1))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("q0", self._wcp(0, 1))

    def test_empty_registry_rejected(self):
        comp = random_computation(3, 2, seed=0)
        with pytest.raises(ConfigurationError, match="empty"):
            run_service("token_vc", comp, PredicateRegistry())

    def test_empty_id_rejected(self):
        registry = PredicateRegistry()
        with pytest.raises(ConfigurationError, match="non-empty"):
            registry.register("", self._wcp(0))

    def test_deregister_returns_and_forgets(self):
        registry = PredicateRegistry()
        wcp = self._wcp(0, 1)
        registry.register("q0", wcp)
        registry.register("q1", self._wcp(1, 2))
        assert registry.deregister("q0") is wcp
        assert "q0" not in registry and len(registry) == 1
        with pytest.raises(ConfigurationError, match="no predicate"):
            registry.deregister("q0")
        # The freed id is reusable.
        registry.register("q0", wcp)
        assert registry.ids() == ("q1", "q0")

    def test_deregister_mid_run_does_not_affect_snapshot(self):
        """A launched dispatcher runs the registry as it was at launch;
        the mutation only shapes the *next* run."""
        comp = random_computation(3, 3, seed=1, plant_final_cut=True)
        registry = PredicateRegistry()
        registry.register("q0", self._wcp(0, 1))
        registry.register("q1", self._wcp(1, 2))
        dispatcher = SharedCausalityDispatcher(registry, comp)
        registry.deregister("q1")
        report = dispatcher.run()
        assert set(report.outcomes) == {"q0", "q1"}
        second = run_service("token_vc", comp, registry)
        assert set(second.outcomes) == {"q0"}
