"""Discrete-event simulation: kernel, actors, effects, channels, replay."""

from repro.simulation.actors import Actor
from repro.simulation.effects import Message, Receive, Send, Sleep, Work
from repro.simulation.faults import CrashEvent, FaultPlan, FaultRule
from repro.simulation.instrumentation import (
    ActorMetrics,
    ChannelFaultStats,
    FaultSummary,
    MetricsBoard,
)
from repro.simulation.kernel import Kernel, SimulationResult
from repro.simulation.network import (
    ChannelModel,
    ExponentialLatency,
    FixedLatency,
    KindBiasedLatency,
    NonFifoLatency,
    UniformLatency,
)
from repro.simulation.observers import (
    TERMINAL_PHASES,
    ActorEvent,
    ActorPhase,
    EventLog,
    InvariantChecker,
    MessageEvent,
    MessagePhase,
    token_uniqueness_checker,
)
from repro.simulation.replay import (
    CANDIDATE_KIND,
    END_OF_TRACE_KIND,
    FeedItem,
    SnapshotFeeder,
)

__all__ = [
    "Actor",
    "Message",
    "Send",
    "Receive",
    "Sleep",
    "Work",
    "Kernel",
    "SimulationResult",
    "ActorMetrics",
    "ChannelFaultStats",
    "FaultSummary",
    "MetricsBoard",
    "FaultPlan",
    "FaultRule",
    "CrashEvent",
    "ChannelModel",
    "FixedLatency",
    "ExponentialLatency",
    "UniformLatency",
    "KindBiasedLatency",
    "NonFifoLatency",
    "CANDIDATE_KIND",
    "END_OF_TRACE_KIND",
    "FeedItem",
    "SnapshotFeeder",
    "EventLog",
    "InvariantChecker",
    "MessageEvent",
    "MessagePhase",
    "ActorEvent",
    "ActorPhase",
    "TERMINAL_PHASES",
    "token_uniqueness_checker",
]
