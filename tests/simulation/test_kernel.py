"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common import SimulationError
from repro.simulation import (
    Actor,
    ChannelModel,
    ExponentialLatency,
    FixedLatency,
    Kernel,
    Receive,
    Send,
    Sleep,
    Work,
)


class Echo(Actor):
    """Replies to every ping with a pong; stops on 'stop'."""

    def run(self):
        while True:
            msg = yield self.receive("ping", "stop")
            if msg.kind == "stop":
                return
            yield self.send(msg.src, msg.payload, kind="pong")


class Once(Actor):
    def __init__(self, name, effects):
        super().__init__(name)
        self.effects = effects
        self.results = []

    def run(self):
        for effect in self.effects:
            result = yield effect
            self.results.append(result)


class TestBasics:
    def test_send_receive_round_trip(self):
        k = Kernel()
        k.add_actor(Echo("echo"))

        class Client(Actor):
            def __init__(self):
                super().__init__("client")
                self.reply = None

            def run(self):
                yield self.send("echo", 42, kind="ping")
                msg = yield self.receive("pong")
                self.reply = msg.payload
                yield self.send("echo", None, kind="stop")

        c = Client()
        k.add_actor(c)
        result = k.run()
        assert c.reply == 42
        assert not result.deadlocked

    def test_duplicate_actor_name_rejected(self):
        k = Kernel()
        k.add_actor(Echo("a"))
        with pytest.raises(SimulationError, match="duplicate"):
            k.add_actor(Echo("a"))

    def test_send_to_unknown_actor(self):
        k = Kernel()
        k.add_actor(Once("a", [Send("ghost", 1)]))
        with pytest.raises(SimulationError, match="unknown actor"):
            k.run()

    def test_non_generator_run_rejected(self):
        class Bad(Actor):
            def run(self):
                return None

        k = Kernel()
        k.add_actor(Bad("bad"))
        with pytest.raises(SimulationError, match="generator"):
            k.run()

    def test_actor_exception_wrapped(self):
        class Boom(Actor):
            def run(self):
                yield self.sleep(1)
                raise ValueError("kapow")

        k = Kernel()
        k.add_actor(Boom("boom"))
        with pytest.raises(SimulationError, match="kapow"):
            k.run()

    def test_unknown_effect_rejected(self):
        k = Kernel()
        k.add_actor(Once("a", ["not an effect"]))
        with pytest.raises(SimulationError, match="unsupported effect"):
            k.run()

    def test_effect_subclasses_act_as_their_base(self):
        """Only the four effect classes take the exact-type dispatch; a
        subclass of one is still handled as its base."""

        class MySend(Send):
            pass

        class MyReceive(Receive):
            pass

        class MySleep(Sleep):
            pass

        class MyWork(Work):
            pass

        k = Kernel()
        a = Once("a", [MyWork(3), MySleep(2.0), MySend("b", "hi", kind="m")])
        b = Once("b", [MyReceive(None, "waiting")])
        k.add_actor(a)
        k.add_actor(b)
        result = k.run()
        assert a.results == [None, None, None]
        assert b.results[0].payload == "hi"
        assert result.time == 3.0 and not result.deadlocked
        assert a.metrics.work_units == 3

    def test_actor_lookup(self):
        k = Kernel()
        e = Echo("e")
        k.add_actor(e)
        assert k.actor("e") is e
        with pytest.raises(SimulationError):
            k.actor("nope")


class TestTimeAndOrdering:
    def test_sleep_advances_time(self):
        k = Kernel()
        k.add_actor(Once("a", [Sleep(5.0), Sleep(2.5)]))
        result = k.run()
        assert result.time == 7.5

    def test_fixed_latency_delivery_time(self):
        k = Kernel(channel_model=FixedLatency(3.0))

        class Receiver(Actor):
            def __init__(self):
                super().__init__("r")
                self.at = None

            def run(self):
                yield self.receive("m")
                self.at = self.now

        r = Receiver()
        k.add_actor(r)
        k.add_actor(Once("s", [Send("r", 1, kind="m")]))
        k.run()
        assert r.at == 3.0

    def test_fifo_preserved(self):
        k = Kernel(channel_model=ExponentialLatency(mean=1.0, fifo=True), seed=3)

        class Sink(Actor):
            def __init__(self):
                super().__init__("sink")
                self.order = []

            def run(self):
                for _ in range(20):
                    msg = yield self.receive("m")
                    self.order.append(msg.payload)

        sink = Sink()
        k.add_actor(sink)
        k.add_actor(Once("src", [Send("sink", i, kind="m") for i in range(20)]))
        k.run()
        assert sink.order == list(range(20))

    def test_non_fifo_can_reorder(self):
        # With high-variance latency and no FIFO clamp, some seed must
        # reorder 20 messages.
        reordered = False
        for seed in range(10):
            k = Kernel(
                channel_model=ExponentialLatency(mean=1.0, fifo=False), seed=seed
            )

            class Sink(Actor):
                def __init__(self):
                    super().__init__("sink")
                    self.order = []

                def run(self):
                    for _ in range(20):
                        msg = yield self.receive("m")
                        self.order.append(msg.payload)

            sink = Sink()
            k.add_actor(sink)
            k.add_actor(
                Once("src", [Send("sink", i, kind="m") for i in range(20)])
            )
            k.run()
            if sink.order != sorted(sink.order):
                reordered = True
                break
        assert reordered

    def test_determinism(self):
        def run_once():
            k = Kernel(channel_model=ExponentialLatency(mean=1.0), seed=7)

            class Sink(Actor):
                def __init__(self):
                    super().__init__("sink")
                    self.times = []

                def run(self):
                    for _ in range(5):
                        yield self.receive("m")
                        self.times.append(self.now)

            sink = Sink()
            k.add_actor(sink)
            k.add_actor(Once("src", [Send("sink", i, kind="m") for i in range(5)]))
            k.run()
            return sink.times

        assert run_once() == run_once()


class TestBlockingAndDeadlock:
    def test_deadlock_reported(self):
        k = Kernel()
        k.add_actor(Once("waiter", [Receive(("never",), "waiting forever")]))
        result = k.run()
        assert result.deadlocked
        assert result.blocked == {"waiter": "waiting forever"}

    def test_no_deadlock_when_all_finish(self):
        k = Kernel()
        k.add_actor(Once("a", [Sleep(1)]))
        assert not k.run().deadlocked

    def test_matching_receive_skips_other_kinds(self):
        class Picky(Actor):
            def __init__(self):
                super().__init__("picky")
                self.got = []

            def run(self):
                msg = yield self.receive("b")
                self.got.append(msg.payload)
                msg = yield self.receive("a")
                self.got.append(msg.payload)

        k = Kernel()
        p = Picky()
        k.add_actor(p)
        k.add_actor(
            Once("src", [Send("picky", 1, kind="a"), Send("picky", 2, kind="b")])
        )
        k.run()
        assert p.got == [2, 1]

    def test_receive_any_matches_everything(self):
        class AnyOne(Actor):
            def __init__(self):
                super().__init__("any")
                self.got = None

            def run(self):
                msg = yield self.receive()
                self.got = msg.kind

        k = Kernel()
        a = AnyOne()
        k.add_actor(a)
        k.add_actor(Once("src", [Send("any", 0, kind="whatever")]))
        k.run()
        assert a.got == "whatever"

    @pytest.mark.parametrize("any_receive", ["receive", "every_kind"])
    def test_receive_any_takes_earliest_delivered_then_seq(self, any_receive):
        """With mail of mixed kinds buffered, a match-anything receive and
        a receive naming every kind (the mailbox scan) both take the
        earliest delivery first, ties broken by seq."""

        class ByKind(ChannelModel):
            def latency(self, src, dest, kind, rng):
                return 3.0 if kind == "slow" else 1.0

            def is_fifo(self, src, dest, kind):
                return False

        class Drain(Actor):
            def __init__(self):
                super().__init__("drain")
                self.got = []

            def run(self):
                yield self.sleep(5.0)
                for _ in range(5):
                    if any_receive == "receive":
                        msg = yield self.receive()
                    else:
                        msg = yield self.receive("slow", "a", "b")
                    self.got.append((msg.delivered_at, msg.seq, msg.payload))

        k = Kernel(channel_model=ByKind())
        d = Drain()
        k.add_actor(d)
        k.add_actor(Once("src", [
            Send("drain", "s1", kind="slow"),
            Send("drain", "a1", kind="a"),
            Send("drain", "b1", kind="b"),
            Send("drain", "s2", kind="slow"),
            Send("drain", "a2", kind="a"),
        ]))
        k.run()
        assert [p for _t, _s, p in d.got] == ["a1", "b1", "a2", "s1", "s2"]
        assert d.got == sorted(d.got)

    def test_messages_to_finished_actor_are_buffered(self):
        k = Kernel()
        k.add_actor(Once("gone", []))
        k.add_actor(Once("src", [Sleep(1), Send("gone", 1, kind="m")]))
        result = k.run()
        assert result.messages_delivered == 1
        assert not result.deadlocked


class TestWorkAccounting:
    def test_work_charges_metrics(self):
        k = Kernel()
        k.add_actor(Once("a", [Work(5), Work(3)]))
        k.run()
        assert k.metrics.of("a").work_units == 8

    def test_work_is_instant_by_default(self):
        k = Kernel()
        k.add_actor(Once("a", [Work(100)]))
        assert k.run().time == 0.0

    def test_send_list_effect(self):
        class Fan(Actor):
            def run(self):
                yield [self.send("x", i, kind="m") for i in range(3)]

        class Sink(Actor):
            def __init__(self):
                super().__init__("x")
                self.n = 0

            def run(self):
                for _ in range(3):
                    yield self.receive("m")
                    self.n += 1

        k = Kernel()
        s = Sink()
        k.add_actor(s)
        k.add_actor(Fan("fan"))
        k.run()
        assert s.n == 3

    def test_list_with_non_send_rejected(self):
        class Bad(Actor):
            def run(self):
                yield [Sleep(1)]

        k = Kernel()
        k.add_actor(Bad("bad"))
        with pytest.raises(SimulationError, match="only Send lists"):
            k.run()

    def test_max_steps_guard(self):
        class Pair(Actor):
            def __init__(self, name, peer):
                super().__init__(name)
                self.peer = peer

            def run(self):
                yield self.send(self.peer, 0, kind="m")
                while True:
                    yield self.receive("m")
                    yield self.send(self.peer, 0, kind="m")

        k = Kernel(max_steps=100)
        k.add_actor(Pair("a", "b"))
        k.add_actor(Pair("b", "a"))
        with pytest.raises(SimulationError, match="max_steps"):
            k.run()

    def test_run_until(self):
        k = Kernel()
        k.add_actor(Once("a", [Sleep(10)]))
        result = k.run(until=5.0)
        assert result.time <= 5.0

    def test_invalid_config(self):
        with pytest.raises(SimulationError):
            Kernel(max_steps=0)

    @pytest.mark.parametrize(
        "max_steps", [float("nan"), float("inf"), 2.5, 1.0, True]
    )
    def test_max_steps_must_be_a_positive_int(self, max_steps):
        """A NaN bound never trips the livelock guard; floats and bools
        are not step counts either."""
        with pytest.raises(SimulationError, match="max_steps"):
            Kernel(max_steps=max_steps)
