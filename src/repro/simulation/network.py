"""Channel models: latency and ordering of simulated message delivery.

The paper's model (§2) assumes reliable asynchronous channels with no
FIFO guarantee for application traffic, but *requires* FIFO ordering
between an application process and its monitor.  A
:class:`ChannelModel` decides, per (src, dest, kind), the delivery
latency and whether FIFO order is enforced; the kernel enforces FIFO by
clamping each delivery to be no earlier than the previous delivery on
the same directed channel.

All latency draws use the kernel's seeded RNG, so simulations are
reproducible.  Every parameter must be a finite number: a NaN or
infinite latency would break the kernel's ``(time, seq)`` event order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.validation import require_finite
from repro.simulation.replay import CANDIDATE_KIND, END_OF_TRACE_KIND

__all__ = [
    "ChannelModel",
    "FixedLatency",
    "ExponentialLatency",
    "UniformLatency",
    "KindBiasedLatency",
    "NonFifoLatency",
]


class ChannelModel:
    """Base channel model: fixed unit latency, FIFO everywhere.

    Subclasses override :meth:`latency` (and possibly :meth:`is_fifo`).
    FIFO-everywhere is the safe default — the paper only *requires* FIFO
    on application->monitor channels, and a FIFO channel is a legal
    asynchronous channel.  Protocol correctness must not depend on it
    except where required; tests exercise non-FIFO orderings explicitly.
    """

    def latency(self, src: str, dest: str, kind: str, rng: random.Random) -> float:
        """Delivery latency for one message (simulated time units)."""
        return 1.0

    def is_fifo(self, src: str, dest: str, kind: str) -> bool:
        """Whether deliveries on (src, dest) preserve send order."""
        return True


@dataclass
class FixedLatency(ChannelModel):
    """Every message takes exactly ``value`` time units."""

    value: float = 1.0
    fifo: bool = True

    def __post_init__(self) -> None:
        require_finite(self.value, "value")

    def latency(self, src: str, dest: str, kind: str, rng: random.Random) -> float:
        return self.value

    def is_fifo(self, src: str, dest: str, kind: str) -> bool:
        return self.fifo


@dataclass
class ExponentialLatency(ChannelModel):
    """Exponentially distributed latency with the given mean.

    With ``fifo=False`` this reorders messages freely (subject only to
    causality), modelling the paper's asynchronous non-FIFO channels.
    """

    mean: float = 1.0
    fifo: bool = True

    def __post_init__(self) -> None:
        require_finite(self.mean, "mean", strict=True)

    def latency(self, src: str, dest: str, kind: str, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)

    def is_fifo(self, src: str, dest: str, kind: str) -> bool:
        return self.fifo


class KindBiasedLatency(ChannelModel):
    """Per-message-kind latencies: an adversarial scheduling knob.

    Detection correctness must not depend on the relative speed of
    tokens, polls and snapshots; tests starve one kind (e.g. a very slow
    token while candidates race ahead) and assert the detected cut is
    unchanged.  ``kind_means`` maps message kinds to mean exponential
    latencies; unknown kinds use ``default_mean``.
    """

    def __init__(
        self,
        kind_means: dict[str, float],
        default_mean: float = 1.0,
        fifo: bool = True,
    ) -> None:
        for kind, mean in kind_means.items():
            require_finite(mean, f"kind_means[{kind!r}]", strict=True)
        require_finite(default_mean, "default_mean", strict=True)
        self._means = dict(kind_means)
        self._default = default_mean
        self._fifo = fifo

    def latency(self, src: str, dest: str, kind: str, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._means.get(kind, self._default))

    def is_fifo(self, src: str, dest: str, kind: str) -> bool:
        return self._fifo


@dataclass
class NonFifoLatency(ChannelModel):
    """The paper's §2 channel assumptions, made explicit.

    Every channel is asynchronous and may reorder freely (exponential
    latency, non-FIFO), except for the snapshot stream — ``candidate``
    and ``end_of_trace`` messages — which the paper *requires* to be
    FIFO.  That holds whatever the sending and receiving actors are
    named: a §3/§4 monitor and the centralized checker get the same
    guarantee.  Use this instead of the FIFO-everywhere default to catch
    protocols that silently lean on ordering the model does not grant
    ("the default-FIFO footgun").
    """

    mean: float = 1.0

    def __post_init__(self) -> None:
        require_finite(self.mean, "mean", strict=True)

    def latency(self, src: str, dest: str, kind: str, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)

    def is_fifo(self, src: str, dest: str, kind: str) -> bool:
        return kind in (CANDIDATE_KIND, END_OF_TRACE_KIND)


@dataclass
class UniformLatency(ChannelModel):
    """Uniformly distributed latency in ``[low, high]``."""

    low: float = 0.5
    high: float = 1.5
    fifo: bool = True

    def __post_init__(self) -> None:
        require_finite(self.low, "low")
        require_finite(self.high, "high", self.low)

    def latency(self, src: str, dest: str, kind: str, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def is_fifo(self, src: str, dest: str, kind: str) -> bool:
        return self.fifo
