"""Unit tests for the snapshot feeder."""

import pytest

from repro.analysis.experiments import strip_times
from repro.common import ConfigurationError
from repro.detect import run_detector
from repro.detect.runner import run_service
from repro.detect.stack import ReliableFeeder
from repro.predicates import WeakConjunctivePredicate
from repro.simulation import (
    Actor,
    CANDIDATE_KIND,
    END_OF_TRACE_KIND,
    FeedItem,
    Kernel,
    SnapshotFeeder,
)
from repro.trace import random_computation

NAN = float("nan")
INF = float("inf")


class Collector(Actor):
    def __init__(self, name="mon"):
        super().__init__(name)
        self.items = []
        self.done = False

    def run(self):
        while True:
            msg = yield self.receive(CANDIDATE_KIND, END_OF_TRACE_KIND)
            if msg.kind == END_OF_TRACE_KIND:
                self.done = True
                return
            self.items.append((msg.payload, msg.delivered_at))


class TestSnapshotFeeder:
    def test_delivers_in_order_then_eot(self):
        k = Kernel()
        c = Collector()
        k.add_actor(c)
        k.add_actor(
            SnapshotFeeder(
                "app", "mon",
                [FeedItem("a", 8, 1.0), FeedItem("b", 8, 2.0)],
            )
        )
        k.run()
        assert [p for p, _ in c.items] == ["a", "b"]
        assert c.done

    def test_timed_emission(self):
        k = Kernel()  # unit latency
        c = Collector()
        k.add_actor(c)
        k.add_actor(
            SnapshotFeeder("app", "mon", [FeedItem("x", 8, 5.0)])
        )
        k.run()
        assert c.items[0][1] == 6.0  # emitted at 5, +1 latency

    def test_untimed_uses_spacing(self):
        k = Kernel()
        c = Collector()
        k.add_actor(c)
        k.add_actor(
            SnapshotFeeder(
                "app", "mon",
                [FeedItem("x", 8, None), FeedItem("y", 8, None)],
                spacing=2.0,
            )
        )
        k.run()
        assert [t for _, t in c.items] == [3.0, 5.0]

    def test_empty_stream_sends_only_eot(self):
        k = Kernel()
        c = Collector()
        k.add_actor(c)
        k.add_actor(SnapshotFeeder("app", "mon", []))
        k.run()
        assert c.items == []
        assert c.done

    def test_decreasing_times_rejected(self):
        with pytest.raises(ConfigurationError):
            SnapshotFeeder(
                "app", "mon",
                [FeedItem("a", 8, 5.0), FeedItem("b", 8, 1.0)],
            )

    def test_bad_spacing_rejected(self):
        """Both feeders take a finite ``spacing`` > 0 and name the field:
        NaN and inf passed the old ``spacing <= 0`` check."""
        for feeder in (SnapshotFeeder, ReliableFeeder):
            for spacing in (0, -1.0, NAN, INF):
                with pytest.raises(ConfigurationError, match="spacing"):
                    feeder("app", "mon", [], spacing)

    def test_bits_accounted(self):
        k = Kernel()
        k.add_actor(Collector())
        k.add_actor(SnapshotFeeder("app", "mon", [FeedItem("a", 77, 1.0)]))
        k.run()
        assert k.metrics.of("app").bits_sent == 77 + 1  # candidate + EOT


class TestNonFiniteSpacing:
    """On ``strip_times(random_computation(4, 6, seed=3,
    predicate_density=0.5, plant_final_cut=True))``, whose first cut is
    P0:1, P1:5, P2:4, P3:2, a NaN spacing made plain ``token_vc`` and
    ``direct_dep`` report P0:1, P1:6, P2:4, P3:2 and ``centralized``
    P0:3, P1:6, P2:8, P3:7, all at time nan; the hardened runs and the
    service found the right cut at time nan, and an infinite spacing
    reported time inf.  Every run now refuses the spacing."""

    @pytest.mark.parametrize("spacing", [NAN, INF], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        ("detector", "options"),
        [
            ("token_vc", {}),
            ("direct_dep", {}),
            ("centralized", {}),
            ("token_vc", {"hardened": True}),
        ],
        ids=["token_vc", "direct_dep", "centralized", "token_vc-hardened"],
    )
    def test_detectors_reject_naming_the_field(self, detector, options, spacing):
        comp = strip_times(random_computation(
            4, 6, seed=3, predicate_density=0.5, plant_final_cut=True
        ))
        wcp = WeakConjunctivePredicate.of_flags(range(4))
        with pytest.raises(ConfigurationError, match="spacing"):
            run_detector(detector, comp, wcp, spacing=spacing, **options)

    @pytest.mark.parametrize("spacing", [NAN, INF], ids=["nan", "inf"])
    def test_service_rejects_naming_the_field(self, spacing):
        comp = strip_times(random_computation(
            4, 6, seed=3, predicate_density=0.5, plant_final_cut=True
        ))
        wcp = WeakConjunctivePredicate.of_flags(range(4))
        with pytest.raises(ConfigurationError, match="spacing"):
            run_service("token_vc", comp, [("q", wcp)], spacing=spacing)
