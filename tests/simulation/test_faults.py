"""Tests for the fault-injection layer: plans, kernel semantics, replay.

Covers the :mod:`repro.simulation.faults` value types (validation,
``draw``, ``parse``, ``merge``, ``describe``), the kernel's
crash/restart/mailbox-loss semantics, the fault counters on the
metrics board, and the reproducibility contract: a fault schedule is a
pure function of ``(seed, plan, workload)``.
"""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.detect import run_detector
from repro.predicates import WeakConjunctivePredicate
from repro.simulation import Actor, Kernel
from repro.simulation.faults import (
    CrashEvent,
    FaultPlan,
    FaultRule,
    PartitionEvent,
)
from repro.simulation.observers import EventLog, MessagePhase
from repro.trace import random_computation


# ----------------------------------------------------------------------
# Value types
# ----------------------------------------------------------------------
class TestFaultRule:
    def test_probability_validation(self):
        with pytest.raises(ConfigurationError):
            FaultRule(drop=1.5)
        with pytest.raises(ConfigurationError):
            FaultRule(duplicate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultRule(corrupt=2.0)

    def test_wildcard_normalizes_to_none(self):
        rule = FaultRule(kind="*", src="*", dest="*")
        assert (rule.kind, rule.src, rule.dest) == (None, None, None)

    def test_matching(self):
        rule = FaultRule(kind="token", src="mon-0")
        assert rule.matches("mon-0", "mon-1", "token")
        assert not rule.matches("mon-1", "mon-0", "token")
        assert not rule.matches("mon-0", "mon-1", "candidate")
        assert FaultRule().matches("a", "b", "anything")


class TestCrashEvent:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrashEvent("", 1.0)
        with pytest.raises(ConfigurationError):
            CrashEvent("a", -1.0)
        with pytest.raises(ConfigurationError):
            CrashEvent("a", 5.0, restart_at=5.0)
        assert CrashEvent("a", 5.0, restart_at=6.0).restart_at == 6.0


class TestPartitionEvent:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionEvent(-1.0, (frozenset({"a"}),))
        with pytest.raises(ConfigurationError):
            PartitionEvent(5.0, (frozenset({"a"}),), heal_at=5.0)
        with pytest.raises(ConfigurationError):
            PartitionEvent(1.0, ())
        with pytest.raises(ConfigurationError):
            PartitionEvent(1.0, (frozenset(),))
        with pytest.raises(ConfigurationError):
            PartitionEvent(1.0, (frozenset({"a"}), frozenset({"a", "b"})))

    def test_separates_explicit_groups(self):
        p = PartitionEvent(1.0, (frozenset({"a"}), frozenset({"b"})))
        assert p.separates("a", "b")
        assert not p.separates("a", "a")
        # Actors in no group share the implicit rest component.
        assert p.separates("a", "c")
        assert not p.separates("c", "d")

    def test_single_group_isolates_from_rest(self):
        p = PartitionEvent(1.0, (frozenset({"mon-0", "app-0"}),))
        assert not p.separates("mon-0", "app-0")
        assert p.separates("mon-0", "mon-1")
        assert not p.separates("mon-1", "mon-2")

    def test_describe(self):
        p = PartitionEvent(4.0, (frozenset({"b", "a"}),), heal_at=20.0)
        assert p.describe() == "partition:a+b@4..20"
        forever = PartitionEvent(4.0, (frozenset({"a"}),))
        assert forever.describe() == "partition:a@4.."


class TestFaultPlanDraw:
    def test_no_matching_rule_is_clean_delivery(self):
        plan = FaultPlan(rules=(FaultRule(kind="token", drop=1.0),))
        assert plan.draw("a", "b", "candidate", random.Random(0)) == [False]

    def test_certain_drop(self):
        plan = FaultPlan(rules=(FaultRule(drop=1.0),))
        assert plan.draw("a", "b", "m", random.Random(0)) == []

    def test_certain_duplicate_and_corrupt(self):
        plan = FaultPlan(rules=(FaultRule(duplicate=1.0, corrupt=1.0),))
        assert plan.draw("a", "b", "m", random.Random(0)) == [True, True]

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="token", drop=0.0),
            FaultRule(drop=1.0),
        ))
        rng = random.Random(0)
        assert plan.draw("a", "b", "token", rng) == [False]
        assert plan.draw("a", "b", "other", rng) == []

    def test_affects_messages(self):
        assert not FaultPlan().affects_messages
        assert not FaultPlan(crashes=(CrashEvent("a", 1.0),)).affects_messages
        assert FaultPlan(rules=(FaultRule(drop=0.1),)).affects_messages


class TestParseMergeDescribe:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("drop:token:0.2,dup:*:0.05,crash:mon-1:4:9")
        assert plan.rules == (
            FaultRule(kind="token", drop=0.2),
            FaultRule(kind=None, duplicate=0.05),
        )
        assert plan.crashes == (CrashEvent("mon-1", 4.0, 9.0),)

    def test_parse_merges_clauses_for_same_kind(self):
        plan = FaultPlan.parse("drop:token:0.2,corrupt:token:0.1")
        assert plan.rules == (FaultRule(kind="token", drop=0.2, corrupt=0.1),)

    def test_parse_crash_stop(self):
        plan = FaultPlan.parse("crash:app-0:3")
        assert plan.crashes == (CrashEvent("app-0", 3.0, None),)

    @pytest.mark.parametrize("spec", [
        "explode:token:0.5",
        "drop:token",
        "drop:token:nan-ish",
        "drop:token:1.5",
        "crash:mon-0",
        "crash:mon-0:abc",
        "crash:mon-0:5:4",
        "crash:mon-1:nan",
        "crash:mon-1:inf",
        "crash:mon-1:1e400",
        "crash:mon-1:4:nan",
        "crash:mon-1:4:inf",
        "churn:mon-1:nan:8:4",
        "churn:mon-1:4:nan:4",
        "churn:mon-1:4:8:nan",
        "churn:mon-1:4:inf:4",
        "churn:mon-1:4:8:inf",
        "join:mon-3:nan",
        "join:mon-3:inf",
        "leave:mon-3:nan",
        "leave:mon-3:inf",
    ])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(spec)

    def test_parse_partition_clause(self):
        plan = FaultPlan.parse("partition:4:20:mon-0+app-0|mon-1")
        assert plan.partitions == (
            PartitionEvent(
                4.0,
                (frozenset({"mon-0", "app-0"}), frozenset({"mon-1"})),
                heal_at=20.0,
            ),
        )

    def test_parse_partition_never_heals(self):
        plan = FaultPlan.parse("partition:4::mon-0")
        assert plan.partitions == (
            PartitionEvent(4.0, (frozenset({"mon-0"}),), heal_at=None),
        )

    @pytest.mark.parametrize("spec", [
        "partition:4:20",            # missing groups
        "partition:abc:20:mon-0",    # bad time
        "partition:4:3:mon-0",       # heal before start
        "partition:4:20:",           # empty group list
        "partition:nan:20:mon-0",    # NaN start
        "partition:inf::mon-0",      # infinite start
        "partition:3:nan:mon-0|mon-1",  # NaN heal: would never heal
        "partition:3:1e400:mon-0",   # heal overflows to inf
    ])
    def test_parse_rejects_bad_partitions(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(spec)

    def test_merge_concatenates_in_order(self):
        a = FaultPlan(rules=(FaultRule(kind="token", drop=1.0),))
        b = FaultPlan(rules=(FaultRule(drop=0.0),),
                      crashes=(CrashEvent("x", 1.0),))
        merged = a.merge(b)
        assert merged.rules == a.rules + b.rules
        assert merged.crashes == b.crashes
        # a's specific rule still shadows b's broad one
        assert merged.draw("p", "q", "token", random.Random(0)) == []

    def test_describe(self):
        plan = FaultPlan.parse("drop:token:0.2,dup:*:0.05,crash:mon-1:4:9")
        text = plan.describe()
        assert "token[drop=0.2]" in text
        assert "*[dup=0.05]" in text
        assert "crash:mon-1@4..9" in text
        assert FaultPlan().describe() == "(no faults)"


# ----------------------------------------------------------------------
# Kernel semantics
# ----------------------------------------------------------------------
class Pinger(Actor):
    """Sends ``count`` messages one time unit apart."""

    def __init__(self, dest, count=3):
        super().__init__("pinger")
        self.dest = dest
        self.count = count

    def run(self):
        for i in range(self.count):
            yield self.send(self.dest, i, kind="m")
            yield self.sleep(1.0)


class Collector(Actor):
    """Receives with a timeout until the channel goes quiet."""

    def __init__(self, name="collector", patience=10.0):
        super().__init__(name)
        self.patience = patience
        self.got = []

    def run(self):
        while True:
            msg = yield self.receive_timeout("m", timeout=self.patience)
            if msg is None:
                return
            self.got.append((msg.payload, msg.corrupted))


class TestKernelFaults:
    def test_drop_all(self):
        plan = FaultPlan(rules=(FaultRule(kind="m", drop=1.0),))
        k = Kernel(faults=plan)
        c = Collector(patience=5.0)
        k.add_actor(c)
        k.add_actor(Pinger("collector"))
        result = k.run()
        assert c.got == []
        assert result.faults is not None
        assert result.faults.dropped == 3
        assert result.faults.total_message_faults == 3

    def test_duplicate_all(self):
        plan = FaultPlan(rules=(FaultRule(kind="m", duplicate=1.0),))
        k = Kernel(faults=plan)
        c = Collector(patience=5.0)
        k.add_actor(c)
        k.add_actor(Pinger("collector"))
        result = k.run()
        assert [p for p, _ in c.got] == [0, 0, 1, 1, 2, 2]
        assert result.faults.duplicated == 3

    def test_corrupt_all_marks_not_mangles(self):
        plan = FaultPlan(rules=(FaultRule(kind="m", corrupt=1.0),))
        k = Kernel(faults=plan)
        c = Collector(patience=5.0)
        k.add_actor(c)
        k.add_actor(Pinger("collector"))
        result = k.run()
        # Payloads intact, every copy flagged.
        assert c.got == [(0, True), (1, True), (2, True)]
        assert result.faults.corrupted == 3

    def test_no_plan_reports_no_fault_summary(self):
        k = Kernel()
        c = Collector(patience=5.0)
        k.add_actor(c)
        k.add_actor(Pinger("collector"))
        result = k.run()
        assert result.faults is None
        assert result.crashed == ()

    def test_crash_stop_loses_mailbox_and_in_flight(self):
        # Crash at t=2.5: messages 0 and 1 (arriving t=1, t=2) are
        # consumed... no — collector is blocked, so each is consumed on
        # arrival.  Use a sleeping actor so messages queue in the
        # mailbox instead.
        class Sleeper(Actor):
            def __init__(self):
                super().__init__("collector")
                self.got = []

            def run(self):
                yield self.sleep(100.0)
                while True:  # pragma: no cover - crashed before this
                    msg = yield self.receive("m")
                    self.got.append(msg.payload)

        plan = FaultPlan(crashes=(CrashEvent("collector", 2.5),))
        k = Kernel(faults=plan)
        s = Sleeper()
        k.add_actor(s)
        k.add_actor(Pinger("collector"))  # arrivals at 1.0, 2.0, 3.0
        result = k.run()
        assert s.got == []
        assert "collector" in result.crashed
        assert result.faults.crashes == 1
        assert result.faults.restarts == 0
        # two queued messages emptied at crash time + one in-flight
        # arrival at t=3.0 into the dead actor
        assert result.faults.lost_to_crash == 3

    def test_restart_reruns_with_attributes_preserved(self):
        class Phoenix(Actor):
            def __init__(self):
                super().__init__("phoenix")
                self.lives = 0

            def run(self):
                self.lives += 1
                yield self.sleep(10.0)

        plan = FaultPlan(crashes=(CrashEvent("phoenix", 2.0, 5.0),))
        k = Kernel(faults=plan)
        p = Phoenix()
        k.add_actor(p)
        result = k.run()
        assert p.lives == 2  # initial run + restart, attribute survived
        assert result.crashed == ()
        assert result.faults.crashes == 1
        assert result.faults.restarts == 1
        assert result.time == 15.0  # restart at 5.0 + full 10.0 sleep


class TestKernelPartitions:
    def test_cross_component_sends_dropped_while_live(self):
        plan = FaultPlan(partitions=(
            PartitionEvent(0.5, (frozenset({"pinger"}),), heal_at=2.5),
        ))
        k = Kernel(faults=plan)
        c = Collector(patience=5.0)
        k.add_actor(c)
        k.add_actor(Pinger("collector"))  # sends at t=0, 1, 2, arrive +1
        result = k.run()
        # The t=0 send predates the partition; sends at t=1 and t=2 are
        # cross-component while it is live and vanish at the network.
        assert [p for p, _ in c.got] == [0]
        assert result.faults.partitioned == 2
        assert result.faults.partitions == 1

    def test_heal_restores_delivery(self):
        plan = FaultPlan(partitions=(
            PartitionEvent(0.5, (frozenset({"pinger"}),), heal_at=1.5),
        ))
        k = Kernel(faults=plan)
        c = Collector(patience=5.0)
        k.add_actor(c)
        k.add_actor(Pinger("collector"))
        result = k.run()
        assert [p for p, _ in c.got] == [0, 2]
        assert result.faults.partitioned == 1

    def test_same_component_unaffected(self):
        plan = FaultPlan(partitions=(
            PartitionEvent(0.0, (frozenset({"pinger", "collector"}),)),
        ))
        k = Kernel(faults=plan)
        c = Collector(patience=5.0)
        k.add_actor(c)
        k.add_actor(Pinger("collector"))
        result = k.run()
        assert [p for p, _ in c.got] == [0, 1, 2]
        assert result.faults.partitioned == 0


# ----------------------------------------------------------------------
# Reproducibility: same (seed, plan, workload) => identical runs
# ----------------------------------------------------------------------
def _run_logged(seed):
    plan = FaultPlan(
        rules=(FaultRule(drop=0.3, duplicate=0.2, corrupt=0.1),),
        crashes=(CrashEvent("collector", 2.5, 4.0),),
    )
    log = EventLog()
    k = Kernel(seed=seed, observers=[log], faults=plan)
    k.add_actor(Collector(patience=6.0))
    k.add_actor(Pinger("collector", count=8))
    result = k.run()
    return result, log


class TestDeterministicReplay:
    def test_same_seed_same_plan_identical_timeline(self):
        """The fault schedule is a pure function of (seed, plan,
        workload): two identical runs produce byte-identical event-log
        timelines, including drop/loss events."""
        result_a, log_a = _run_logged(seed=7)
        result_b, log_b = _run_logged(seed=7)
        assert "\n".join(log_a.timeline()) == "\n".join(log_b.timeline())
        assert result_a.time == result_b.time
        assert result_a.faults == result_b.faults
        phases = {e.phase for e in log_a.events}
        assert MessagePhase.DROPPED in phases  # the plan actually bit

    def test_different_seed_different_schedule(self):
        _, log_a = _run_logged(seed=7)
        _, log_b = _run_logged(seed=8)
        assert "\n".join(log_a.timeline()) != "\n".join(log_b.timeline())

    def test_detector_runs_are_reproducible_under_faults(self):
        """End-to-end: the hardened detector's full report — verdict,
        cut, timing, counters — is identical across identical runs."""
        comp = random_computation(3, 4, seed=11, predicate_density=0.3,
                                  plant_final_cut=True)
        wcp = WeakConjunctivePredicate.of_flags((0, 1, 2))
        plan = FaultPlan.parse("drop:token:0.2,dup:*:0.1,crash:mon-1:4:9")
        reports = [
            run_detector("token_vc", comp, wcp, seed=5, faults=plan)
            for _ in range(2)
        ]
        a, b = reports
        assert (a.detected, a.cut) == (b.detected, b.cut)
        assert a.detection_time == b.detection_time
        assert a.extras == b.extras
        assert a.sim.faults == b.sim.faults


class TestEmptyPlanDeliversLikeNoPlan:
    """The kernel has one send loop: with no fault plan a send is one
    clean copy, and a plan none of whose rules match must yield the same
    copy.  So an empty plan may add the fault summary and nothing else:
    not one draw, seq, step, counter or cut differs."""

    @pytest.mark.parametrize("detector", ["token_vc", "direct_dep"])
    def test_empty_plan_is_byte_identical(self, detector):
        comp = random_computation(5, 8, seed=3, predicate_density=0.3,
                                  plant_final_cut=True)
        wcp = WeakConjunctivePredicate.of_flags(tuple(range(5)))
        runs = []
        for faults in (None, FaultPlan()):
            log = EventLog()
            report = run_detector(detector, comp, wcp, seed=3,
                                  observers=[log], faults=faults,
                                  hardened=False)
            runs.append((report, log))
        (plain, plain_log), (planned, planned_log) = runs
        assert plain.detected and plain.cut == planned.cut
        assert plain_log.timeline() == planned_log.timeline()
        assert [e.message.seq for e in plain_log.events] == [
            e.message.seq for e in planned_log.events
        ]
        assert plain.sim.steps == planned.sim.steps
        assert plain.sim.messages_delivered == planned.sim.messages_delivered
        assert plain.metrics.snapshot() == planned.metrics.snapshot()
        assert plain.sim.faults is None
        assert planned.sim.faults.total_message_faults == 0
