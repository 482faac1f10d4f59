"""Unit tests for channel models."""

import random

import pytest

from repro.common import ConfigurationError
from repro.detect import run_detector
from repro.predicates import WeakConjunctivePredicate
from repro.simulation import (
    ChannelModel,
    ExponentialLatency,
    FixedLatency,
    KindBiasedLatency,
    NonFifoLatency,
    UniformLatency,
)
from repro.trace import random_computation

NAN = float("nan")
INF = float("inf")


class TestFixedLatency:
    def test_constant(self):
        m = FixedLatency(2.5)
        rng = random.Random(0)
        assert m.latency("a", "b", "k", rng) == 2.5

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedLatency(-1.0)

    def test_fifo_flag(self):
        assert FixedLatency(1.0).is_fifo("a", "b", "k")
        assert not FixedLatency(1.0, fifo=False).is_fifo("a", "b", "k")


class TestExponentialLatency:
    def test_positive_draws(self):
        m = ExponentialLatency(mean=2.0)
        rng = random.Random(1)
        draws = [m.latency("a", "b", "k", rng) for _ in range(100)]
        assert all(d >= 0 for d in draws)

    def test_mean_roughly_right(self):
        m = ExponentialLatency(mean=2.0)
        rng = random.Random(2)
        draws = [m.latency("a", "b", "k", rng) for _ in range(5000)]
        assert 1.8 < sum(draws) / len(draws) < 2.2

    def test_zero_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            ExponentialLatency(mean=0)


class TestNonFifoLatency:
    """§2: only the snapshot stream is FIFO, whoever sends and receives it."""

    @pytest.mark.parametrize(
        ("src", "dest", "kind", "fifo"),
        [
            ("app-0", "mon-0", "candidate", True),
            ("app-0", "checker", "candidate", True),
            ("app-2", "checker", "end_of_trace", True),
            ("feeder", "anyone", "candidate", True),
            ("mon-0", "mon-1", "token", False),
            ("mon-0", "mon-1", "poll", False),
            ("app-0", "mon-0", "halt_ack", False),
            ("app-0", "app-1", "app", False),
        ],
    )
    def test_fifo_exactly_on_snapshot_kinds(self, src, dest, kind, fifo):
        assert NonFifoLatency().is_fifo(src, dest, kind) is fifo


class TestUniformLatency:
    def test_in_range(self):
        m = UniformLatency(0.5, 1.5)
        rng = random.Random(3)
        for _ in range(100):
            assert 0.5 <= m.latency("a", "b", "k", rng) <= 1.5

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            UniformLatency(-1.0, 1.0)


class TestBaseModel:
    def test_default_unit_fifo(self):
        m = ChannelModel()
        assert m.latency("a", "b", "k", random.Random(0)) == 1.0
        assert m.is_fifo("a", "b", "k")


def _token_vc_with_nan_latency():
    """A NaN latency once put NaN times in the event heap, breaking the
    (time, seq) order: token_vc then reported P0:2, P1:6, P2:4, P3:2 at
    time nan instead of the first cut P0:1, P1:5, P2:4, P3:2."""
    comp = random_computation(
        4, 6, seed=3, predicate_density=0.5, plant_final_cut=True
    )
    wcp = WeakConjunctivePredicate.of_flags(range(4))
    run_detector("token_vc", comp, wcp, channel_model=FixedLatency(NAN))


class TestNonFiniteRejected:
    """Every channel-model parameter must be a finite number: NaN passes
    a bare ``< 0`` check, and NaN or infinite delivery times break the
    kernel's event order."""

    @pytest.mark.parametrize(
        ("build", "field"),
        [
            (lambda: FixedLatency(NAN), "value"),
            (lambda: FixedLatency(INF), "value"),
            (lambda: ExponentialLatency(NAN), "mean"),
            (lambda: ExponentialLatency(INF), "mean"),
            (lambda: NonFifoLatency(NAN), "mean"),
            (lambda: NonFifoLatency(INF), "mean"),
            (lambda: UniformLatency(0.0, INF), "high"),
            (lambda: KindBiasedLatency({"token": NAN}), "kind_means"),
            (lambda: KindBiasedLatency({"token": INF}), "kind_means"),
            (lambda: KindBiasedLatency({}, default_mean=NAN), "default_mean"),
            (_token_vc_with_nan_latency, "value"),
        ],
        ids=[
            "fixed-nan", "fixed-inf", "exp-nan", "exp-inf", "nonfifo-nan",
            "nonfifo-inf", "uniform-high-inf",
            "kind-nan", "kind-inf", "kind-default-nan", "token_vc-fixed-nan",
        ],
    )
    def test_rejected_naming_the_field(self, build, field):
        with pytest.raises(ConfigurationError, match=field):
            build()
