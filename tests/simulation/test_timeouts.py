"""Tests for receive timeouts in the kernel."""

import pytest

from repro.common import ConfigurationError
from repro.simulation import Actor, Kernel, Receive, Send


class Waiter(Actor):
    def __init__(self, name, timeout):
        super().__init__(name)
        self.timeout = timeout
        self.result = "unset"
        self.resumed_at = None

    def run(self):
        msg = yield self.receive_timeout("m", timeout=self.timeout)
        self.result = None if msg is None else msg.payload
        self.resumed_at = self.now


class Later(Actor):
    def __init__(self, dest, delay, payload="hello"):
        super().__init__("later")
        self.dest = dest
        self.delay = delay
        self.payload = payload

    def run(self):
        yield self.sleep(self.delay)
        yield self.send(self.dest, self.payload, kind="m")


class TestReceiveTimeout:
    def test_times_out_when_no_message(self):
        k = Kernel()
        w = Waiter("w", timeout=3.0)
        k.add_actor(w)
        result = k.run()
        assert w.result is None
        assert w.resumed_at == 3.0
        assert not result.deadlocked

    def test_message_beats_timeout(self):
        k = Kernel()  # unit latency
        w = Waiter("w", timeout=5.0)
        k.add_actor(w)
        k.add_actor(Later("w", delay=1.0))  # arrives at 2.0 < 5.0
        k.run()
        assert w.result == "hello"
        assert w.resumed_at == 2.0

    def test_timeout_beats_slow_message(self):
        k = Kernel()
        w = Waiter("w", timeout=0.5)
        k.add_actor(w)
        k.add_actor(Later("w", delay=5.0))
        k.run()
        assert w.result is None

    def test_stale_timeout_ignored_after_reblock(self):
        """An actor that unblocks (by message) and blocks again must not
        be woken by the first receive's stale timeout."""

        class TwoWaits(Actor):
            def __init__(self):
                super().__init__("tw")
                self.history = []

            def run(self):
                msg = yield self.receive_timeout("m", timeout=10.0)
                self.history.append(msg.payload)
                msg = yield self.receive_timeout("m", timeout=30.0)
                self.history.append(None if msg is None else msg.payload)

        k = Kernel()
        tw = TwoWaits()
        k.add_actor(tw)
        k.add_actor(Later("tw", delay=1.0, payload="first"))
        result = k.run()
        # The second wait must run its FULL 30-unit timeout (ending at
        # 2.0 + 30.0), not get cut short at t=10 by the stale timer.
        assert tw.history == ["first", None]
        assert result.time == 32.0

    def test_one_receive_object_reused_across_blocks(self):
        """An actor may yield the same ``Receive`` for every wait: each
        block gets its own timeout, and a timer armed by an earlier
        block never ends a later one."""

        class Reuser(Actor):
            def __init__(self):
                super().__init__("r")
                self.history = []

            def run(self):
                wait = self.receive_timeout("m", timeout=10.0)
                for _ in range(4):
                    msg = yield wait
                    self.history.append(
                        (None if msg is None else msg.payload, self.now)
                    )

        class Sender(Actor):
            def __init__(self):
                super().__init__("s")

            def run(self):
                yield self.sleep(1.0)
                yield self.send("r", "first", kind="m")   # arrives 2
                yield self.sleep(9.0)
                yield self.send("r", "second", kind="m")  # arrives 11
                yield self.sleep(14.0)
                yield self.send("r", "third", kind="m")   # arrives 25

        k = Kernel()  # unit latency
        r = Reuser()
        k.add_actor(r)
        k.add_actor(Sender())
        k.run()
        # The first block's timer fires at 10 and the second's at 12:
        # neither may end the block that followed it.
        assert r.history == [
            ("first", 2.0), ("second", 11.0), (None, 21.0), ("third", 25.0)
        ]

    def test_zero_timeout_rejected(self):
        with pytest.raises(ValueError):
            Receive(None, timeout=0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, timeout):
        """A NaN timeout passed ``timeout <= 0`` and resolved to ``None``
        at t=nan, missing every message; inf ended the run at t=inf."""
        with pytest.raises(ConfigurationError, match="timeout"):
            Receive(None, timeout=timeout)

    def test_delivery_at_exact_deadline_loses_to_timeout(self):
        """A message whose delivery lands exactly on the receive's
        deadline does not beat the timeout: the timeout event was
        scheduled when the actor blocked, so at equal times it has the
        lower sequence number and pops first."""
        k = Kernel()  # unit latency
        w = Waiter("w", timeout=2.0)
        k.add_actor(w)
        k.add_actor(Later("w", delay=1.0))  # arrives at exactly 2.0
        k.run()
        assert w.result is None
        assert w.resumed_at == 2.0

    def test_message_tied_with_deadline_is_not_lost(self):
        """The message that tied with the deadline must survive in the
        mailbox: the next receive consumes it at the same instant even
        though the delivery targeted a now-stale block epoch."""

        class RetryAfterTimeout(Actor):
            def __init__(self):
                super().__init__("w")
                self.history = []

            def run(self):
                msg = yield self.receive_timeout("m", timeout=2.0)
                self.history.append((None, self.now) if msg is None
                                    else (msg.payload, self.now))
                msg = yield self.receive_timeout("m", timeout=5.0)
                self.history.append((None, self.now) if msg is None
                                    else (msg.payload, self.now))

        k = Kernel()
        w = RetryAfterTimeout()
        k.add_actor(w)
        k.add_actor(Later("w", delay=1.0))  # delivery ties at t=2.0
        result = k.run()
        assert w.history == [(None, 2.0), ("hello", 2.0)]
        assert not result.deadlocked

    def test_delivery_just_before_deadline_wins(self):
        k = Kernel()
        w = Waiter("w", timeout=2.0 + 1e-9)
        k.add_actor(w)
        k.add_actor(Later("w", delay=1.0))  # arrives at 2.0 < deadline
        k.run()
        assert w.result == "hello"
        assert w.resumed_at == 2.0

    def test_timed_wait_is_not_deadlock(self):
        """Blocked-with-timeout actors always have a pending event, so
        the run ends via timeout, never as a deadlock."""
        k = Kernel()
        k.add_actor(Waiter("w", timeout=1.0))
        result = k.run()
        assert not result.deadlocked
        assert result.blocked == {}
