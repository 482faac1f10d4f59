"""Unit tests for effect value types."""

import pytest

from repro.common import ConfigurationError
from repro.simulation import Message, Receive, Send, Sleep, Work, kind_is


class TestSend:
    def test_fields(self):
        s = Send("dest", {"x": 1}, kind="token", size_bits=64)
        assert s.dest == "dest"
        assert s.kind == "token"
        assert s.size_bits == 64

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Send("d", None, size_bits=-1)

    def test_defaults(self):
        s = Send("d", None)
        assert s.kind == "msg" and s.size_bits == 0


class TestSleepAndWork:
    def test_sleep_negative_rejected(self):
        with pytest.raises(ValueError):
            Sleep(-0.1)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_sleep_non_finite_rejected(self, duration):
        """NaN passed ``duration < 0`` and woke the sleeper at t=nan;
        inf ended the run at t=inf."""
        with pytest.raises(ConfigurationError, match="duration"):
            Sleep(duration)

    def test_work_negative_rejected(self):
        with pytest.raises(ValueError):
            Work(-1)

    def test_work_zero_allowed(self):
        assert Work(0).units == 0


class TestKindIs:
    def make_msg(self, kind):
        return Message(
            seq=1, src="a", dest="b", kind=kind, payload=None,
            size_bits=0, sent_at=0.0, delivered_at=1.0,
        )

    def test_single_kind(self):
        match = kind_is("token")
        assert match(self.make_msg("token"))
        assert not match(self.make_msg("poll"))

    def test_multiple_kinds(self):
        match = kind_is("a", "b")
        assert match(self.make_msg("a"))
        assert match(self.make_msg("b"))
        assert not match(self.make_msg("c"))

    def test_receive_default_matches_any(self):
        r = Receive()
        assert r.match is None
