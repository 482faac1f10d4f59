"""Integration: hardened detectors under injected faults.

The acceptance invariant for the fault-tolerance layer: under message
loss, duplication, corruption-marking and a mid-run monitor crash with
restart — but eventual delivery — every hardened detector terminates
and reports exactly the same verdict and first cut as the fault-free
reference.  Detection is delayed, never wrong.
"""

import pytest

from repro.detect import run_detector
from repro.detect.stack import FailureDetectorConfig
from repro.simulation.faults import (
    CrashEvent,
    FaultPlan,
    FaultRule,
    PartitionEvent,
)
from repro.predicates import WeakConjunctivePredicate
from repro.trace import random_computation

HARDENED = ("token_vc", "token_vc_multi", "direct_dep", "direct_dep_parallel")

#: 20% token loss plus one monitor down from t=4 to t=9 — by which
#: point every run below is typically mid-protocol.
LOSSY = FaultPlan(
    rules=(FaultRule(kind="token", drop=0.2),),
    crashes=(CrashEvent("mon-1", 4.0, 9.0),),
)

#: Partition-and-heal schedule with a long monitor outage layered on
#: top of token loss — adversarial enough to force takeover elections
#: in the vector-clock family while every fault eventually heals.
PARTITIONED = FaultPlan(
    rules=(FaultRule(kind="token", drop=0.15),),
    crashes=(CrashEvent("mon-1", 6.0, 60.0),),
    partitions=(
        PartitionEvent(10.0, (frozenset({"mon-0", "app-0"}),), 25.0),
    ),
)


def _case(seed):
    comp = random_computation(
        3, 4, seed=seed, predicate_density=0.3,
        plant_final_cut=(seed % 2 == 0),
    )
    return comp, WeakConjunctivePredicate.of_flags(range(3))


class TestLossAndCrashAgreement:
    """50 seeded workloads x 3 hardened detectors vs the reference."""

    @pytest.mark.parametrize("seed", range(50))
    def test_agrees_with_reference(self, seed):
        comp, wcp = _case(seed)
        ref = run_detector("reference", comp, wcp)
        for name in HARDENED:
            rep = run_detector(name, comp, wcp, seed=seed, faults=LOSSY)
            assert not rep.extras["gave_up"], f"{name} exhausted retries"
            assert rep.detected == ref.detected, f"{name} verdict"
            assert rep.cut == ref.cut, f"{name} cut"
            if not rep.detected:
                # Eventual delivery => the candidate stream was fully
                # examined, so a negative verdict is conclusive.
                assert rep.outcome == "not_detected"

    @pytest.mark.parametrize("seed", range(6))
    def test_heavy_faults_all_kinds(self, seed):
        plan = FaultPlan(
            rules=(FaultRule(drop=0.15, duplicate=0.1, corrupt=0.05),),
            crashes=(
                CrashEvent("mon-1", 3.0, 10.0),
                CrashEvent("mon-0", 15.0, 22.0),
                CrashEvent("app-2", 5.0, 12.0),
            ),
        )
        comp, wcp = _case(seed + 500)
        ref = run_detector("reference", comp, wcp)
        for name in HARDENED:
            rep = run_detector(name, comp, wcp, seed=seed, faults=plan)
            assert not rep.extras["gave_up"], name
            assert (rep.detected, rep.cut) == (ref.detected, ref.cut), name


class TestPartitionHealAgreement:
    """Self-healing detection: partitions, a long crash and token loss
    with the failure detector enabled still yield exactly the fault-free
    verdict and first cut once everything heals.  Takeover elections in
    the vector-clock family regenerate the token from persisted frames;
    stale-epoch tokens are discarded, so no run double-detects."""

    @pytest.mark.parametrize("seed", range(50))
    def test_agrees_with_reference(self, seed):
        comp, wcp = _case(seed)
        ref = run_detector("reference", comp, wcp)
        for name in HARDENED:
            rep = run_detector(
                name, comp, wcp, seed=seed, faults=PARTITIONED,
                hardened=True, failure_detector=FailureDetectorConfig(),
            )
            assert rep.detected == ref.detected, f"{name} verdict"
            assert rep.cut == ref.cut, f"{name} cut"
            if not rep.detected:
                assert rep.outcome == "not_detected", name

    def test_partition_faults_are_counted(self):
        comp, wcp = _case(2)
        rep = run_detector(
            "token_vc", comp, wcp, seed=2, faults=PARTITIONED,
            hardened=True, failure_detector=FailureDetectorConfig(),
        )
        summary = rep.sim.faults
        assert summary.partitions == 1
        assert summary.partitioned > 0

    def test_takeovers_fire_and_stay_single_winner(self):
        """At least one seed in the schedule forces an election; the
        regenerated token must still produce at most one detection."""
        takeovers = 0
        for seed in range(10):
            comp, wcp = _case(seed)
            ref = run_detector("reference", comp, wcp)
            rep = run_detector(
                "token_vc", comp, wcp, seed=seed, faults=PARTITIONED,
                hardened=True, failure_detector=FailureDetectorConfig(),
            )
            takeovers += rep.extras["takeovers"]
            assert rep.detected == ref.detected
            assert rep.cut == ref.cut
        assert takeovers > 0

    def test_permanent_monitor_death_degrades_with_partial_cut(self):
        comp, wcp = _case(2)  # even seed => planted final cut
        plan = FaultPlan(crashes=(CrashEvent("mon-1", 5.0, None),))
        for name in HARDENED:
            rep = run_detector(
                name, comp, wcp, seed=2, faults=plan,
                hardened=True, failure_detector=FailureDetectorConfig(),
            )
            assert not rep.detected, name
            assert rep.outcome == "degraded", name
            assert rep.extras["unobservable"] == [1], name
            partial = rep.extras["partial_cut"]
            assert len(partial) == 3, name

    def test_permanent_feeder_death_degrades(self):
        comp, wcp = _case(2)
        plan = FaultPlan(crashes=(CrashEvent("app-1", 0.5, None),))
        rep = run_detector(
            "token_vc", comp, wcp, seed=2, faults=plan,
            hardened=True, failure_detector=FailureDetectorConfig(),
        )
        assert rep.outcome == "degraded"
        assert rep.extras["unobservable"] == [1]

    def test_direct_dep_never_initiates_takeover(self):
        """The §4 baton carries no recoverable state — its failure
        detector heartbeats but must not regenerate tokens."""
        for seed in range(6):
            comp, wcp = _case(seed)
            rep = run_detector(
                "direct_dep", comp, wcp, seed=seed, faults=PARTITIONED,
                hardened=True, failure_detector=FailureDetectorConfig(),
            )
            assert rep.extras["takeovers"] == 0


class TestTakeoverLiveness:
    """Heartbeat self-heal must end when a red slot's monitor is gone.

    Each takeover regenerates the same token and forwards it to the dead
    red slot again; these cells used to cycle through elections until
    the kernel's max_steps (thousands of takeovers).  Consecutive
    elections that regenerate an unchanged token now stop once they
    reach ``max_idle_rounds``, so each run quiesces to ``degraded``."""

    @pytest.mark.parametrize(
        "detector,seed,groups,plan,dead",
        [
            ("token_vc", 6, None, "crash:mon-2:5", 2),
            ("token_vc", 3, None, "drop:token:0.1,crash:mon-4:8", 4),
            ("token_vc", 4, None, "drop:token:0.1,crash:mon-4:8", 4),
            ("token_vc_multi", 0, 3, "drop:token:0.1,crash:mon-2:5", 2),
            ("token_vc_multi", 3, 1, "drop:token:0.1,crash:mon-2:5", 2),
            ("token_vc_multi", 3, 3, "drop:token:0.1,crash:mon-2:5", 2),
            ("token_vc_multi", 7, 3, "drop:token:0.1,crash:mon-2:5", 2),
        ],
    )
    def test_dead_red_slot_degrades(self, detector, seed, groups, plan, dead):
        comp = random_computation(
            6, 8, seed=seed, predicate_density=0.3,
            plant_final_cut=seed % 3 != 0,
        )
        wcp = WeakConjunctivePredicate.of_flags(range(6))
        options = {"groups": groups} if groups else {}
        rep = run_detector(
            detector, comp, wcp, seed=seed, faults=FaultPlan.parse(plan),
            failure_detector=FailureDetectorConfig(), **options,
        )
        assert rep.outcome == "degraded"
        assert rep.extras["unobservable"] == [dead]
        assert rep.sim.steps <= 50_000

    def test_token_lost_before_first_acceptance_degrades(self):
        """The injected token reaches mon-0 only after an election has
        moved it to epoch 1, so it is discarded as stale and no monitor
        ever holds a frame: elections that find nothing are unchanged
        too, and the run degrades instead of electing forever."""
        comp = random_computation(
            4, 6, seed=5, predicate_density=0.3, plant_final_cut=True
        )
        wcp = WeakConjunctivePredicate.of_flags(range(4))
        plan = FaultPlan.parse(
            "drop:token:0.2,dup:*:0.1,crash:mon-0:3:20,crash:mon-2:8:30"
        )
        rep = run_detector(
            "token_vc", comp, wcp, seed=5, faults=plan,
            failure_detector=FailureDetectorConfig(),
        )
        assert rep.outcome == "degraded"
        assert rep.extras["takeovers"] == 0
        assert rep.sim.steps <= 50_000


class TestHardenedWithoutFaults:
    """The hardened protocol is a refinement: with zero faults it is
    the plain algorithm plus acks, so verdict and cut are unchanged."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("name", HARDENED)
    def test_matches_plain_variant(self, name, seed):
        comp, wcp = _case(seed + 900)
        plain = run_detector(name, comp, wcp, seed=seed)
        hard = run_detector(name, comp, wcp, seed=seed, hardened=True)
        assert hard.extras["hardened"]
        assert not hard.extras["gave_up"]
        assert (hard.detected, hard.cut) == (plain.detected, plain.cut)
        # No faults injected => a not-detected verdict is conclusive.
        if not hard.detected:
            assert hard.outcome == "not_detected"


class TestOutcomes:
    def test_negative_verdict_is_conclusive_under_eventual_delivery(self):
        # predicate_density=0 => the WCP can never hold.  Losses delay
        # the protocol but every candidate is eventually examined, so
        # the negative verdict is as conclusive as the fault-free one.
        comp = random_computation(3, 3, seed=1, predicate_density=0.0)
        wcp = WeakConjunctivePredicate.of_flags(range(3))
        clean = run_detector("token_vc", comp, wcp, seed=1)
        assert clean.outcome == "not_detected"
        lossy = run_detector("token_vc", comp, wcp, seed=1, faults=LOSSY)
        assert not lossy.detected
        assert lossy.outcome == "not_detected"

    def test_detected_is_never_degraded(self):
        comp, wcp = _case(2)  # even seed => plant_final_cut
        rep = run_detector("token_vc", comp, wcp, seed=2, faults=LOSSY)
        assert rep.detected
        assert not rep.degraded
        assert rep.outcome == "detected"

    def test_total_token_loss_terminates_degraded(self):
        """With 100% token drop no protocol can succeed; the bounded
        retry policy must give up — and report the run as degraded
        (inconclusive) — instead of livelocking."""
        from repro.detect.stack import AdaptiveRetryPolicy

        plan = FaultPlan(rules=(FaultRule(kind="token", drop=1.0),))
        comp, wcp = _case(0)
        rep = run_detector(
            "token_vc", comp, wcp, seed=0, faults=plan,
            retry=AdaptiveRetryPolicy(
                initial_timeout=2.0, cap=8.0, max_attempts=3
            ),
        )
        assert not rep.detected
        assert rep.extras["gave_up"]
        assert rep.outcome == "degraded"

    def test_fault_summary_reported(self):
        comp, wcp = _case(4)
        rep = run_detector("token_vc", comp, wcp, seed=4, faults=LOSSY)
        summary = rep.sim.faults
        assert summary is not None
        assert summary.crashes == 1
        assert summary.restarts == 1
        assert summary.dropped >= 0
