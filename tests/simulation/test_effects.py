"""Unit tests for effect value types."""

import pytest

from repro.common import ConfigurationError
from repro.simulation import Actor, Receive, Send, Sleep, Work


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
    def test_receive_default_matches_any(self):
        r = Receive()
        assert r.kinds is None

    def test_actor_receives_carry_their_kinds(self):
        actor = Actor("a")
        assert actor.receive("token").kinds == ("token",)
        assert actor.receive("a", "b").kinds == ("a", "b")
        assert actor.receive().kinds is None
        assert actor.receive_timeout("a", timeout=1.0).kinds == ("a",)
        assert actor.receive_timeout(timeout=1.0).kinds is None

    def test_descriptions_name_the_kinds(self):
        actor = Actor("a")
        assert actor.receive("x", "y").description == "a awaiting ('x', 'y')"
        assert actor.receive().description == "a awaiting any"
        assert (
            actor.receive_timeout("x", timeout=2.0).description
            == "a awaiting ('x',) (t/o 2.0)"
        )
