"""Tests for the runtime-verification layer (invariant monitors).

Covers the five invariant families with hand-built fact streams, the
mutation-style guarantees from the issue (flip a frame epoch / reorder a
candidate / double-deliver a token -> the *precise* family fires), the
flight recorder's ring semantics, and offline replay parity.
"""

from __future__ import annotations

import pytest

from repro.detect import run_detector
from repro.detect.base import TOKEN_KIND
from repro.detect.stack import (
    ELECT_KIND,
    FEED_JOIN_KIND,
    JOIN_ACK_KIND,
    JOIN_KIND,
    PING_KIND,
    STATE_SYNC_KIND,
    FailureDetectorConfig,
    FeedJoin,
    GossipUpdate,
    Join,
    JoinWelcome,
    Sequenced,
    StateSync,
    TokenFrame,
)
from repro.detect.stack.gossip import Announcement, Ping
from repro.detect.stack.membership import Elect
from repro.obs import (
    INVARIANT_FAMILIES,
    FlightRecorder,
    InvariantMonitor,
    SpanTracer,
    load_jsonl,
    message_facts,
    replay_trace,
)
from repro.obs.invariants import _vc_of
from repro.obs.spans import Span
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.effects import Message
from repro.simulation.observers import (
    ActorEvent,
    ActorPhase,
    MessageEvent,
    MessagePhase,
    PartitionNotice,
    PartitionPhase,
)
from repro.simulation.replay import CANDIDATE_KIND
from repro.trace import spiral_computation


def frame(hop, epoch=0, gid=0, gossip=()):
    return TokenFrame(hop=hop, body=object(), gid=gid, epoch=epoch,
                      gossip=tuple(gossip))


def families(monitor):
    return sorted({v.invariant for v in monitor.violations})


class TestMessageFacts:
    def test_token_frame_facts(self):
        facts = message_facts(TOKEN_KIND, frame(3, epoch=2, gid=1))
        assert facts["frame"] is True
        assert facts["hop"] == 3
        assert facts["epoch"] == 2
        assert facts["gid"] == 1

    def test_token_frame_gossip_piggyback_folded(self):
        facts = message_facts(TOKEN_KIND, frame(1, gossip=(
            GossipUpdate(slot=2, status="suspect", incarnation=1),
            Announcement(kind="elect", epoch=3, slot=0),
        )))
        assert facts["updates"] == [[2, "suspect", 1]]
        assert facts["announcements"] == [["elect", 3, 0]]

    def test_sequenced_candidate_facts(self):
        facts = message_facts(
            CANDIDATE_KIND, Sequenced(seq=4, payload=(1, 2, 3), final=True)
        )
        assert facts == {"cseq": 4, "final": True, "vc": [1, 2, 3]}

    def test_elect_facts(self):
        assert message_facts(ELECT_KIND, Elect(epoch=5, slot=1)) == {
            "epoch": 5, "slot": 1,
        }

    def test_ping_updates(self):
        ping = Ping(seq=1, slot=0, incarnation=0, reply_to=None,
                    holding=False, updates=(
                        GossipUpdate(slot=1, status="alive", incarnation=2),
                    ))
        assert message_facts(PING_KIND, ping)["updates"] == [[1, "alive", 2]]

    def test_unknown_payload_is_factless(self):
        assert message_facts("halt", object()) == {}


class TestVcExtraction:
    def test_scalar_clock_attr(self):
        class Dep:
            clock = 7
        assert _vc_of(Dep()) == (7,)

    def test_numeric_tuple(self):
        assert _vc_of((1, 2, 3)) == (1, 2, 3)

    def test_unstampable_payloads(self):
        assert _vc_of(object()) is None
        assert _vc_of(()) is None
        assert _vc_of(("a", "b")) is None
        assert _vc_of((2, (0, 5, 1))) is None  # no detector sends (slot, vc)


class TestTokenConservation:
    def test_duplicate_origin_is_two_live_tokens(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, TOKEN_KIND, "mon-0", "mon-1", frame(1))
        mon.ingest(2.0, TOKEN_KIND, "mon-2", "mon-1", frame(1))
        assert families(mon) == ["token_conservation"]
        assert "two live tokens" in mon.violations[0].detail

    def test_retransmission_by_same_origin_is_clean(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, TOKEN_KIND, "mon-0", "mon-1", frame(1))
        mon.ingest(2.0, TOKEN_KIND, "mon-0", "mon-1", frame(1))
        assert mon.violations == []

    def test_hop_jump_within_epoch(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, TOKEN_KIND, "mon-0", "mon-1", frame(1))
        mon.ingest(2.0, TOKEN_KIND, "mon-1", "mon-2", frame(3))
        assert families(mon) == ["token_conservation"]
        assert "hop jumped 1 -> 3" in mon.violations[0].detail

    def test_stale_epoch_traffic_is_fencing_not_violation(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, ELECT_KIND, "mon-1", "mon-2", Elect(epoch=1, slot=1))
        mon.ingest(2.0, TOKEN_KIND, "mon-1", "mon-2", frame(5, epoch=1))
        # A deposed lineage retransmitting below the high water is the
        # epoch fencing *working*.
        mon.ingest(3.0, TOKEN_KIND, "mon-0", "mon-1", frame(9, epoch=0))
        assert mon.violations == []

    def test_gids_tracked_independently(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, TOKEN_KIND, "mon-0", "mon-1", frame(1, gid=0))
        mon.ingest(2.0, TOKEN_KIND, "mon-2", "mon-0", frame(1, gid=1))
        assert mon.violations == []

    def test_plain_token_double_deliver(self):
        mon = InvariantMonitor()

        class PlainToken:
            group = 0
            token = object()

        mon.ingest(1.0, TOKEN_KIND, "mon-0", "mon-1", PlainToken())
        mon.ingest(2.0, TOKEN_KIND, "mon-1", "mon-2", PlainToken())
        assert mon.violations == []
        # mon-0 sends again while mon-2 holds it: a duplicated token.
        mon.ingest(3.0, TOKEN_KIND, "mon-0", "mon-1", PlainToken())
        assert families(mon) == ["token_conservation"]
        assert "duplicated token" in mon.violations[0].detail


class TestEpochFencing:
    def test_unfenced_epoch_advance_is_forged(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, TOKEN_KIND, "mon-0", "mon-1", frame(1, epoch=0))
        mon.ingest(2.0, TOKEN_KIND, "mon-1", "mon-2", frame(1, epoch=3))
        assert families(mon) == ["election_safety"]
        assert "forged or flipped frame epoch" in mon.violations[0].detail

    def test_proposed_epoch_advance_is_clean(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, TOKEN_KIND, "mon-0", "mon-1", frame(1, epoch=0))
        mon.ingest(2.0, ELECT_KIND, "mon-2", "mon-1", Elect(epoch=3, slot=2))
        mon.ingest(3.0, TOKEN_KIND, "mon-2", "mon-0", frame(1, epoch=3))
        assert mon.violations == []

    def test_gossip_announcement_also_fences(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, TOKEN_KIND, "mon-0", "mon-1", frame(1, epoch=0))
        ping = Ping(seq=1, slot=2, incarnation=0, reply_to=None,
                    holding=False,
                    updates=(Announcement(kind="elect", epoch=2, slot=2),))
        mon.ingest(2.0, PING_KIND, "mon-2", "mon-0", ping)
        mon.ingest(3.0, TOKEN_KIND, "mon-2", "mon-0", frame(1, epoch=2))
        assert mon.violations == []

    def test_fence_can_be_disabled_for_windowed_replays(self):
        mon = InvariantMonitor(windowed=True)
        mon.ingest(1.0, TOKEN_KIND, "mon-0", "mon-1", frame(1, epoch=0))
        mon.ingest(2.0, TOKEN_KIND, "mon-1", "mon-2", frame(1, epoch=3))
        assert mon.violations == []


def seq_candidate(mon, t, seq, vc, final=False, src="app-0", dest="mon-0"):
    mon.ingest(t, CANDIDATE_KIND, src, dest,
               Sequenced(seq=seq, payload=tuple(vc), final=final))


class TestCandidateOrder:
    def test_in_order_stream_with_retransmits_is_clean(self):
        mon = InvariantMonitor()
        seq_candidate(mon, 1.0, 1, (1, 0))
        seq_candidate(mon, 2.0, 2, (2, 0))
        seq_candidate(mon, 3.0, 2, (2, 0))  # faithful retransmit
        seq_candidate(mon, 4.0, 3, (2, 1), final=True)
        assert mon.violations == []

    def test_gap_fires(self):
        mon = InvariantMonitor()
        seq_candidate(mon, 1.0, 1, (1, 0))
        seq_candidate(mon, 2.0, 3, (3, 0))
        assert families(mon) == ["candidate_order"]
        assert "candidate gap" in mon.violations[0].detail

    def test_send_after_final_fires(self):
        mon = InvariantMonitor()
        seq_candidate(mon, 1.0, 1, (1, 0), final=True)
        seq_candidate(mon, 2.0, 2, (2, 0))
        assert families(mon) == ["candidate_order"]
        assert "after the final" in mon.violations[0].detail

    def test_mutated_retransmit_fires(self):
        mon = InvariantMonitor()
        seq_candidate(mon, 1.0, 1, (1, 0))
        seq_candidate(mon, 2.0, 2, (2, 0))
        seq_candidate(mon, 3.0, 1, (9, 9))  # same seq, different payload
        assert families(mon) == ["candidate_order"]
        assert "reordered or mutated" in mon.violations[0].detail

    def test_streams_are_per_endpoint_pair(self):
        mon = InvariantMonitor()
        seq_candidate(mon, 1.0, 1, (1, 0), dest="mon-0")
        seq_candidate(mon, 2.0, 1, (1, 0), dest="mon-1")
        assert mon.violations == []

    def test_vc_regression_on_sequenced_stream(self):
        mon = InvariantMonitor()
        seq_candidate(mon, 1.0, 1, (2, 2))
        seq_candidate(mon, 2.0, 2, (1, 3))
        assert families(mon) == ["vc_monotonicity"]
        assert "causality violated" in mon.violations[0].detail

    def test_vc_regression_on_plain_stream(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, CANDIDATE_KIND, "app-0", "mon-0", (3, 1))
        mon.ingest(2.0, CANDIDATE_KIND, "app-0", "mon-0", (2, 5))
        assert families(mon) == ["vc_monotonicity"]


class TestElectionSafety:
    def test_epoch_regression_per_initiator(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, ELECT_KIND, "mon-1", "mon-2", Elect(epoch=4, slot=1))
        mon.ingest(2.0, ELECT_KIND, "mon-1", "mon-0", Elect(epoch=2, slot=1))
        assert families(mon) == ["election_safety"]
        assert "must never regress" in mon.violations[0].detail

    def test_independent_initiators_do_not_interfere(self):
        mon = InvariantMonitor()
        mon.ingest(1.0, ELECT_KIND, "mon-1", "mon-2", Elect(epoch=4, slot=1))
        mon.ingest(2.0, ELECT_KIND, "mon-2", "mon-0", Elect(epoch=2, slot=2))
        assert mon.violations == []


def gossip(mon, t, sender, slot, status, inc):
    ping = Ping(seq=1, slot=0, incarnation=0, reply_to=None, holding=False,
                updates=(GossipUpdate(slot=slot, status=status,
                                      incarnation=inc),))
    mon.ingest(t, PING_KIND, sender, "mon-9", ping)


class TestSwimLifecycle:
    def test_precedence_regression(self):
        mon = InvariantMonitor()
        gossip(mon, 1.0, "mon-0", 1, "suspect", 2)
        gossip(mon, 2.0, "mon-0", 1, "alive", 1)
        assert families(mon) == ["swim_lifecycle"]
        assert "precedence violated" in mon.violations[0].detail

    def test_refutation_overrides_suspicion(self):
        mon = InvariantMonitor()
        gossip(mon, 1.0, "mon-0", 1, "suspect", 1)
        gossip(mon, 2.0, "mon-0", 1, "alive", 2)  # higher incarnation wins
        assert mon.violations == []

    def test_confirm_without_suspicion(self):
        mon = InvariantMonitor(refutation_window=16.0)
        gossip(mon, 20.0, "mon-0", 1, "confirm", 0)
        assert families(mon) == ["swim_lifecycle"]
        assert "without any gossiped suspicion" in mon.violations[0].detail

    def test_early_confirm(self):
        mon = InvariantMonitor(refutation_window=16.0, probe_interval=4.0)
        gossip(mon, 1.0, "mon-0", 1, "suspect", 0)
        gossip(mon, 3.0, "mon-2", 1, "confirm", 0)
        assert families(mon) == ["swim_lifecycle"]
        assert "refutation window" in mon.violations[0].detail

    def test_patient_confirm_is_clean(self):
        mon = InvariantMonitor(refutation_window=16.0, probe_interval=4.0)
        gossip(mon, 1.0, "mon-0", 1, "suspect", 0)
        gossip(mon, 14.0, "mon-2", 1, "confirm", 0)
        assert mon.violations == []

    def test_timing_check_off_without_window(self):
        mon = InvariantMonitor(refutation_window=None)
        gossip(mon, 1.0, "mon-0", 1, "suspect", 0)
        gossip(mon, 1.5, "mon-2", 1, "confirm", 0)
        assert mon.violations == []


class TestPartitionSuppression:
    def dup_origin(self, mon, t):
        mon.ingest(t, TOKEN_KIND, "mon-0", "mon-1", frame(1))
        mon.ingest(t + 0.5, TOKEN_KIND, "mon-2", "mon-1", frame(1))

    def test_suppressed_while_partition_live(self):
        mon = InvariantMonitor()
        mon.on_partition_event(
            PartitionNotice(1.0, PartitionPhase.STARTED, ())
        )
        self.dup_origin(mon, 2.0)
        assert mon.violations == []
        assert mon.suppressed == 1

    def test_suppressed_during_post_heal_grace(self):
        mon = InvariantMonitor(partition_grace=30.0)
        mon.on_partition_event(
            PartitionNotice(1.0, PartitionPhase.STARTED, ())
        )
        mon.on_partition_event(
            PartitionNotice(5.0, PartitionPhase.HEALED, ())
        )
        self.dup_origin(mon, 20.0)  # < 5 + 30
        assert mon.violations == []
        assert mon.suppressed == 1

    def test_armed_again_after_grace(self):
        mon = InvariantMonitor(partition_grace=30.0)
        mon.on_partition_event(
            PartitionNotice(1.0, PartitionPhase.STARTED, ())
        )
        mon.on_partition_event(
            PartitionNotice(5.0, PartitionPhase.HEALED, ())
        )
        self.dup_origin(mon, 50.0)
        assert families(mon) == ["token_conservation"]

    def test_non_ambiguous_checks_stay_armed(self):
        mon = InvariantMonitor()
        mon.on_partition_event(
            PartitionNotice(1.0, PartitionPhase.STARTED, ())
        )
        seq_candidate(mon, 2.0, 1, (1, 0))
        seq_candidate(mon, 3.0, 3, (3, 0))
        assert families(mon) == ["candidate_order"]


class TestBoundsAndSummary:
    def test_violation_cap_overflows(self):
        mon = InvariantMonitor(max_violations=2)
        for t in range(4):
            seq_candidate(mon, float(t), 1, (t, 9 - t), src=f"app-{t}")
            seq_candidate(mon, float(t) + 0.5, 3, (t, 0), src=f"app-{t}")
        assert len(mon.violations) == 2
        assert mon.overflowed > 0

    def test_summary_shape(self):
        mon = InvariantMonitor()
        seq_candidate(mon, 1.0, 1, (1, 0))
        seq_candidate(mon, 2.0, 3, (3, 0))
        digest = mon.summary()
        assert digest["violations"] == 1
        assert digest["by_family"]["candidate_order"] == 1
        assert set(digest["by_family"]) == set(INVARIANT_FAMILIES)
        violation = mon.violations[0]
        assert violation.as_dict()["invariant"] == "candidate_order"
        assert "candidate_order" in violation.describe()


class TestMembershipJoin:
    """The elastic-join lifecycle family (live-join tentpole)."""

    def handshake(self, mon, at=10.0, joiner="mon-7", contact="mon-0",
                  baseline=5):
        mon.ingest(at, JOIN_KIND, joiner, contact, Join(3, joiner))
        mon.ingest(
            at + 0.5, JOIN_ACK_KIND, contact, joiner,
            JoinWelcome(members=((0, contact, 0, "alive"),), epoch=0),
        )
        mon.ingest(
            at + 0.5, STATE_SYNC_KIND, contact, joiner,
            StateSync(baselines=(("app-0", baseline),)),
        )
        mon.ingest(
            at + 0.5, FEED_JOIN_KIND, contact, "app-0",
            FeedJoin(joiner, baseline),
        )

    def test_clean_handshake_is_quiet(self):
        mon = InvariantMonitor()
        self.handshake(mon, baseline=5)
        mon.ingest(12.0, CANDIDATE_KIND, "app-0", "mon-7",
                   Sequenced(6, (1, 2, 3)))
        mon.ingest(13.0, CANDIDATE_KIND, "app-0", "mon-7",
                   Sequenced(7, (2, 2, 3)))
        assert mon.violations == []

    def test_candidate_before_ack_fires(self):
        mon = InvariantMonitor()
        mon.ingest(10.0, JOIN_KIND, "mon-7", "mon-0", Join(3, "mon-7"))
        mon.ingest(10.5, CANDIDATE_KIND, "app-0", "mon-7",
                   Sequenced(1, (1, 2, 3)))
        assert families(mon) == ["membership_join"]
        assert "before its join was acked" in mon.violations[0].detail

    def test_frame_before_ack_fires(self):
        mon = InvariantMonitor()
        mon.ingest(10.0, JOIN_KIND, "mon-7", "mon-0", Join(3, "mon-7"))
        mon.ingest(10.5, TOKEN_KIND, "mon-7", "mon-1", frame(1))
        assert families(mon) == ["membership_join"]

    def test_nonzero_join_incarnation_fires(self):
        mon = InvariantMonitor()
        mon.ingest(10.0, JOIN_KIND, "mon-7", "mon-0",
                   Join(3, "mon-7", incarnation=2))
        assert families(mon) == ["membership_join"]
        assert "starts at 0" in mon.violations[0].detail

    def test_early_confirm_after_join_fires_exactly_this_family(self):
        # Stale pre-join suspicion must not justify a quick confirm of
        # the newcomer: the swim timing check is satisfied (13 >= 12)
        # but the joiner's own window is not (4 < 12).
        mon = InvariantMonitor(refutation_window=16.0, probe_interval=4.0)
        gossip(mon, 1.0, "mon-0", 3, "suspect", 0)
        self.handshake(mon, at=10.0)
        gossip(mon, 14.0, "mon-2", 3, "confirm", 0)
        assert families(mon) == ["membership_join"]
        assert "after its welcome" in mon.violations[0].detail

    def test_patient_confirm_after_join_is_clean(self):
        mon = InvariantMonitor(refutation_window=16.0, probe_interval=4.0)
        self.handshake(mon, at=10.0)
        gossip(mon, 11.0, "mon-0", 3, "suspect", 0)
        gossip(mon, 24.0, "mon-2", 3, "confirm", 0)
        assert mon.violations == []

    def test_unsynced_mid_stream_open_is_still_a_gap(self):
        # The baseline relaxation is earned by an observed state_sync /
        # feed_join — a stream that simply opens mid-sequence without
        # one is a real candidate gap.
        mon = InvariantMonitor()
        mon.ingest(12.0, CANDIDATE_KIND, "app-0", "mon-7",
                   Sequenced(6, (1, 2, 3)))
        assert families(mon) == ["candidate_order"]

    def join_trace(self, seed=1):
        # The join lands early in a longer run (m=8, t=4) so the
        # feeder's anti-entropy suffix to the joiner is non-empty and
        # candidate traffic to it actually appears in the trace.
        plan = FaultPlan_join()
        return traced_run(
            seed=seed, m=8, faults=plan, hardened=True,
            failure_detector=FailureDetectorConfig(membership="gossip"),
        )

    def test_live_join_run_replays_clean(self):
        report, trace = self.join_trace()
        assert report.extras["joined"] == 1
        assert replay_trace(trace) == []

    def test_mutation_strip_welcome_fires_exactly_this_family(self):
        _, trace = self.join_trace()
        welcomes = [s for s in trace.spans if s.name == "join_welcome"]
        assert welcomes
        for span in welcomes:
            trace.spans.remove(span)
        violations = replay_trace(trace)
        assert violations
        assert {v.invariant for v in violations} == {"membership_join"}

    def test_mutation_flip_join_incarnation_fires(self):
        _, trace = self.join_trace()
        joins = [s for s in trace.spans if s.name == "join"]
        assert joins
        joins[0].attrs["incarnation"] = 3
        violations = replay_trace(trace)
        assert {v.invariant for v in violations} == {"membership_join"}
        assert any("starts at 0" in v.detail for v in violations)


def FaultPlan_join():
    from repro.simulation.faults import FaultPlan

    return FaultPlan.parse("drop:token:0.1,join:mon-7:4:mon-0")


def traced_run(detector="token_vc", n=3, m=4, **options):
    """A real hardened run, returning (report, finished trace)."""
    comp = spiral_computation(n, m)
    wcp = WeakConjunctivePredicate.of_flags(range(n))
    tracer = SpanTracer()
    options.setdefault("observers", []).append(tracer)
    report = run_detector(detector, comp, wcp, **options)
    return report, tracer.finish(
        report.sim.time if report.sim else None,
        detector=detector, outcome=report.outcome,
    )


class TestLiveMonitoring:
    @pytest.mark.parametrize("detector", [
        "centralized", "token_vc", "token_vc_multi",
        "direct_dep", "direct_dep_parallel",
    ])
    def test_clean_runs_have_zero_violations(self, detector):
        report = run_detector(
            detector, spiral_computation(3, 3),
            WeakConjunctivePredicate.of_flags(range(3)),
            check_invariants=True,
        )
        assert report.extras["invariant_violations"] == 0
        assert "invariant_summary" not in report.extras

    def test_offline_detector_rejected(self):
        with pytest.raises(Exception, match="check_invariants"):
            run_detector(
                "reference", spiral_computation(3, 3),
                WeakConjunctivePredicate.of_flags(range(3)),
                check_invariants=True,
            )

    def test_monitor_is_passive(self):
        comp = spiral_computation(3, 4)
        wcp = WeakConjunctivePredicate.of_flags(range(3))
        plain = run_detector("token_vc", comp, wcp, seed=3)
        checked = run_detector("token_vc", comp, wcp, seed=3,
                               check_invariants=True)
        assert checked.outcome == plain.outcome
        assert checked.detection_time == plain.detection_time
        assert (checked.metrics.total_messages()
                == plain.metrics.total_messages())


class TestReplayParity:
    def test_clean_trace_replays_clean(self):
        _, trace = traced_run(hardened=True, seed=1)
        assert replay_trace(trace) == []

    def test_fault_markers_are_not_sends(self):
        # Drop/loss markers carry the victim's kind and endpoints; a
        # replay that mistook them for sends would see the token in
        # two hands at once and cry duplicated token.
        _, trace = traced_run(hardened=True, seed=1)
        next_id = max(s.span_id for s in trace.spans) + 1
        for i, (name, attrs) in enumerate((
            ("fault:lost", {"kind": "token", "src": "mon-0"}),
            ("fault:drop", {"kind": "token", "dest": "leader"}),
        )):
            trace.add(Span(
                trace_id=trace.trace_id,
                span_id=next_id + i,
                name=name,
                actor=f"mon-{i}",
                start=2.0 + i,
                end=2.0 + i,
                attrs=attrs,
            ))
        assert replay_trace(trace) == []

    def test_mutation_flip_frame_epoch(self):
        _, trace = traced_run(hardened=True, seed=1)
        frames = [s for s in trace.spans
                  if s.name == "token_hop" and s.attrs.get("frame")]
        assert frames
        frames[-1].attrs["epoch"] = int(frames[-1].attrs.get("epoch", 0)) + 7
        violations = replay_trace(trace)
        assert {v.invariant for v in violations} == {"election_safety"}
        assert any("forged or flipped" in v.detail for v in violations)

    def test_mutation_reorder_candidate(self):
        _, trace = traced_run(hardened=True, seed=1)
        cands = [s for s in trace.spans
                 if s.name == "candidate" and int(s.attrs.get("cseq", 0)) >= 2]
        assert cands
        victim = cands[0]
        victim.attrs["cseq"] = int(victim.attrs["cseq"]) - 1
        violations = replay_trace(trace)
        assert {v.invariant for v in violations} == {"candidate_order"}

    def test_mutation_double_deliver_token(self):
        _, trace = traced_run(hardened=True, seed=1)
        frames = [s for s in trace.spans
                  if s.name == "token_hop" and s.attrs.get("frame")]
        assert frames
        original = frames[0]
        forged = dict(original.attrs)
        forged["src"] = "mon-9"
        trace.add(Span(
            trace_id=trace.trace_id,
            span_id=max(s.span_id for s in trace.spans) + 1,
            name="token_hop",
            actor="mon-9",
            start=original.start + 0.25,
            end=original.start + 0.25,
            attrs=forged,
        ))
        violations = replay_trace(trace)
        assert {v.invariant for v in violations} == {"token_conservation"}
        assert any("two live tokens" in v.detail for v in violations)

    def test_flight_dump_relaxes_epoch_fence(self):
        rec = FlightRecorder()

        def sent(t, src, dest, payload):
            rec(MessageEvent(t, MessagePhase.SENT, Message(
                seq=int(t), src=src, dest=dest, kind=TOKEN_KIND,
                payload=payload, size_bits=8, sent_at=t,
                delivered_at=t + 1.0,
            )))

        sent(1.0, "mon-0", "mon-1", frame(1, epoch=0))
        sent(2.0, "mon-1", "mon-2", frame(1, epoch=3))  # fence evicted
        windowed = rec.to_trace()
        assert replay_trace(windowed) == []
        # An explicit monitor keeps whatever the caller configured.
        strict = InvariantMonitor()
        replay_trace(windowed, monitor=strict)
        assert families(strict) == ["election_safety"]


class TestFlightRecorder:
    def make_event(self, t, src="mon-0", dest="mon-1", kind="heartbeat"):
        return MessageEvent(t, MessagePhase.SENT, Message(
            seq=int(t), src=src, dest=dest, kind=kind, payload=None,
            size_bits=8, sent_at=t, delivered_at=t + 1.0,
        ))

    def test_ring_is_bounded_per_actor(self):
        rec = FlightRecorder(capacity=4)
        for t in range(10):
            rec(self.make_event(float(t)))
        assert len(rec) == 4
        assert rec.events_seen == 10

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_lifecycle_events_recorded(self):
        rec = FlightRecorder()
        rec(self.make_event(1.0))
        rec.on_actor_event(ActorEvent(2.0, ActorPhase.CRASHED, "mon-1"))
        trace = rec.to_trace()
        assert [s.name for s in trace.spans] == ["heartbeat", "crashed"]

    def test_dump_is_a_loadable_trace(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        for t in range(6):
            rec(self.make_event(float(t), src=f"mon-{t % 2}"))
        path = rec.dump(tmp_path / "crash.flight.jsonl",
                        detector="token_vc", outcome="degraded")
        back = load_jsonl(path)
        assert back.meta["flight_recorder"] is True
        assert back.meta["capacity"] == 8
        assert back.meta["events_seen"] == 6
        assert back.meta["outcome"] == "degraded"
        assert len(back) == 6
        starts = [s.start for s in back.spans]
        assert starts == sorted(starts)

    def test_real_run_flight_dump_replays_clean(self, tmp_path):
        rec = FlightRecorder(capacity=32)
        run_detector(
            "token_vc", spiral_computation(3, 4),
            WeakConjunctivePredicate.of_flags(range(3)),
            hardened=True, seed=2, observers=[rec],
        )
        path = rec.dump(tmp_path / "run.flight.jsonl")
        assert replay_trace(load_jsonl(path)) == []
