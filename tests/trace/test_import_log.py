"""Tests for the plain-text log importer/exporter."""

import pytest

from repro.common import InvalidComputationError, SerializationError
from repro.detect import run_detector
from repro.predicates import WeakConjunctivePredicate
from repro.trace import random_computation
from repro.trace.import_log import format_log, parse_log

SAMPLE = """
# two processes, one message, flags raised around it
init 0 flag=false
init 1 flag=false
internal 0 flag=true @0.5
send 0 m1 1 @1.0
recv 1 m1 flag=true @2.0
"""


class TestParse:
    def test_sample_parses(self):
        comp = parse_log(SAMPLE)
        assert comp.num_processes == 2
        assert comp.total_events() == 3
        assert len(comp.messages) == 1

    def test_values_typed(self):
        comp = parse_log(
            "init 0 n=3 ratio=0.5 name=alpha ok=true\ninternal 0\n"
        )
        init = dict(comp.processes[0].initial_vars)
        assert init == {"n": 3, "ratio": 0.5, "name": "alpha", "ok": True}

    def test_times_preserved(self):
        comp = parse_log(SAMPLE)
        assert comp.event(0, 1).time == 1.0
        assert comp.event(1, 0).time == 2.0

    def test_detection_on_imported_log(self):
        comp = parse_log(SAMPLE)
        wcp = WeakConjunctivePredicate.of_flags([0, 1])
        report = run_detector("reference", comp, wcp)
        assert report.detected
        # P0's flag is still true at interval 2 (post-send); P1 true in
        # interval 2 (post-recv); first consistent satisfying cut (2, 2).
        assert report.cut.as_mapping() == {0: 2, 1: 2}

    def test_arbitrary_message_tokens(self):
        comp = parse_log(
            "send 0 req-42 1\nrecv 1 req-42\n"
        )
        assert len(comp.messages) == 1

    def test_pid_count_includes_silent_dest(self):
        comp = parse_log("send 0 m 3\nrecv 3 m\n")
        assert comp.num_processes == 4

    def test_unreceived_allowed_explicitly(self):
        with pytest.raises(InvalidComputationError):
            parse_log("send 0 m 1\ninternal 1\n")
        comp = parse_log("send 0 m 1\ninternal 1\n", allow_unreceived=True)
        assert comp.num_processes == 2


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,pattern",
        [
            ("teleport 0", "unknown operation"),
            ("internal", "needs a pid"),
            ("internal x", "pid must be an integer"),
            ("send 0 m1", "needs pid, msg id and dest"),
            ("recv 1", "needs pid and msg id"),
            ("recv 1 ghost", "never sent"),
            ("send 0 m1 1\nsend 0 m1 1", "sent twice"),
            ("internal 0 bogus", "unexpected token"),
            ("internal 0 @x", "bad timestamp"),
            ("internal 0 @nan", "line 1: bad timestamp '@nan'"),
            ("internal 0 @NaN", "line 1: bad timestamp '@NaN'"),
            ("internal 0 @inf", "line 1: bad timestamp '@inf'"),
            ("internal 0\ninternal 0 @-inf", "line 2: bad timestamp '@-inf'"),
            ("send 0 m1 1 @Infinity", "line 1: bad timestamp '@Infinity'"),
            ("internal 0 @1 @2", "duplicate @time"),
            ("init 0 @5", "no @time"),
            ("", "no events"),
            ("# only comments\n", "no events"),
        ],
    )
    def test_errors_carry_context(self, text, pattern):
        with pytest.raises(SerializationError, match=pattern):
            parse_log(text)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_computations_round_trip(self, seed):
        comp = random_computation(
            4, 5, seed=seed, predicate_density=0.4, plant_final_cut=True
        )
        restored = parse_log(format_log(comp))
        assert restored.num_processes == comp.num_processes
        assert restored.total_events() == comp.total_events()
        wcp = WeakConjunctivePredicate.of_flags(range(4))
        a = run_detector("reference", comp, wcp)
        b = run_detector("reference", restored, wcp)
        assert (a.detected, a.cut) == (b.detected, b.cut)

    def test_format_is_reparsable_text(self):
        comp = parse_log(SAMPLE)
        text = format_log(comp)
        assert "init 0" in text
        assert "send 0 m0 1" in text
        reparsed = parse_log(text)
        assert reparsed.total_events() == comp.total_events()
