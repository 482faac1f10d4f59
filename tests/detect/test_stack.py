"""Unit tests for the protocol-stack composition layer.

The algorithm suites exercise the composed classes end to end; these
tests pin the *factory* contract — MRO shape, caching, registration
errors — and the shared plain-protocol token injector.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.detect.base import TOKEN_KIND
from repro.detect.direct_dep import DirectDepMonitor
from repro.detect.direct_dep_parallel import (
    HardenedParallelDDMonitor,
    ParallelDDGlue,
    ParallelDDMonitor,
)
from repro.detect.stack import (
    AdaptiveRetryPolicy,
    FailureDetectorMixin,
    ReliableEndpoint,
    StackedMonitor,
    StackGlue,
    TokenInjector,
    harden,
    hardened_variant,
)
from repro.detect.token_vc import TokenVCMonitor
from repro.simulation.kernel import Kernel
from repro.simulation.actors import Actor
from repro.simulation.faults import CrashEvent, FaultPlan


class TestHardenFactory:
    def test_mro_puts_glue_before_stack_before_core(self):
        cls = harden(TokenVCMonitor)
        mro = cls.__mro__
        assert mro.index(StackGlue) < mro.index(StackedMonitor)
        assert mro.index(StackedMonitor) < mro.index(TokenVCMonitor)
        # Both middleware layers are present exactly once.
        assert FailureDetectorMixin in mro and ReliableEndpoint in mro

    def test_factory_is_cached_per_core(self):
        assert harden(TokenVCMonitor) is harden(TokenVCMonitor)
        assert harden(TokenVCMonitor) is not harden(DirectDepMonitor)

    def test_hardened_variant_lookup(self):
        assert hardened_variant(ParallelDDMonitor) is HardenedParallelDDMonitor
        assert hardened_variant(Kernel) is None  # no glue registered

    def test_unregistered_core_raises(self):
        class Orphan(Actor):
            pass

        with pytest.raises(ConfigurationError, match="glue"):
            harden(Orphan)

    def test_parallel_dd_hardening_is_pure_composition(self):
        """The §4.5 hardened variant must add no protocol methods of
        its own — its glue only inherits the §4 hooks (plus docs)."""
        own = {
            n
            for n, v in vars(ParallelDDGlue).items()
            if callable(v) and not n.startswith("__")
        }
        assert own == set()
        assert ParallelDDGlue._fd_can_take_over is False

    def test_retry_is_keyword_only(self):
        cls = harden(ParallelDDMonitor)
        with pytest.raises(TypeError):
            cls(0, 3, None, object())  # positional retry must be rejected


class TestTokenInjector:
    def test_sends_one_token_and_exits(self):
        received = []

        class Sink(Actor):
            def run(self):
                msg = yield self.receive()
                received.append((msg.kind, msg.payload, msg.size_bits))

        kernel = Kernel()
        kernel.add_actor(Sink("mon-0"))
        kernel.add_actor(TokenInjector("mon-0", "tok", 17))
        kernel.run()
        assert received == [(TOKEN_KIND, "tok", 17)]


class _Endpoint(ReliableEndpoint, Actor):
    """A bare hardened endpoint: halts ``targets`` if given, else waits
    to be halted."""

    def __init__(self, name, retry, targets=()):
        super().__init__(name)
        self._init_reliability(retry)
        self._targets = targets

    def _dispatch(self, msg):
        return (yield from self._dispatch_common(msg))

    def run(self):
        if self._targets:
            yield from self._reliable_halt(self._targets)
            return
        while True:
            msg = yield self.receive()
            if (yield from self._dispatch(msg)) == "halt":
                return


class TestReliableHalt:
    """With ``max_attempts=1`` a halter gets two halt rounds.  Peer ``b``
    is down from t=0, so the first halt is lost; the second, at t=6,
    reaches ``b`` if it restarted at t=2 and is lost if it restarts at
    t=8.  Only the second case is an incomplete halt: the last round the
    budget allows once set ``halt_incomplete`` even when every target
    acked in it."""

    @pytest.mark.parametrize(
        ("restart_at", "acks", "incomplete"),
        [(2.0, 1, False), (8.0, 0, True)],
        ids=["acked-in-last-round", "never-acked"],
    )
    def test_incomplete_only_while_a_target_never_acked(
        self, restart_at, acks, incomplete
    ):
        retry = AdaptiveRetryPolicy(max_attempts=1, jitter=0.0)
        kernel = Kernel(
            faults=FaultPlan(crashes=(CrashEvent("b", 0.0, restart_at),))
        )
        halter = _Endpoint("a", retry, targets=("b",))
        peer = _Endpoint("b", retry)
        kernel.add_actor(halter)
        kernel.add_actor(peer)
        kernel.run()
        assert kernel.metrics.messages_of_kind("halt") == 2
        assert kernel.metrics.messages_of_kind("halt_ack") == acks
        assert peer.halted is not incomplete
        assert halter.halt_incomplete is incomplete
