"""Shared detection-protocol vocabulary and the report type.

Every detector — offline baseline or simulated distributed protocol —
produces a :class:`DetectionReport` so experiments can compare them
uniformly.  The wire-kind constants name the message types exchanged by
the simulated protocols; instrumentation filters on them (e.g. counting
token hops is ``metrics.messages_of_kind(TOKEN_KIND)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.simulation.instrumentation import MetricsBoard
from repro.simulation.kernel import SimulationResult
from repro.trace.cuts import Cut

__all__ = [
    "TOKEN_KIND",
    "POLL_KIND",
    "POLL_RESPONSE_KIND",
    "HALT_KIND",
    "RED",
    "GREEN",
    "DetectionReport",
    "MONITOR_PREFIX",
    "APP_PREFIX",
    "monitor_name",
    "app_name",
    "outcome_label",
    "fold_units",
]

# Message kinds on monitor <-> monitor channels.
TOKEN_KIND = "token"
POLL_KIND = "poll"
POLL_RESPONSE_KIND = "poll_response"
HALT_KIND = "halt"

# Candidate-state colors (paper §3.2).  Red: eliminated, must advance.
# Green: live candidate, no known happened-before violation.
RED = "red"
GREEN = "green"

# Actor naming conventions, used by metrics filtering.
MONITOR_PREFIX = "mon-"
APP_PREFIX = "app-"


def monitor_name(pid: int) -> str:
    """The canonical actor name of process ``pid``'s monitor."""
    return f"{MONITOR_PREFIX}{pid}"


def app_name(pid: int) -> str:
    """The canonical actor name of process ``pid``'s snapshot feeder."""
    return f"{APP_PREFIX}{pid}"


def outcome_label(detected: bool, degraded: bool) -> str:
    """The three-way verdict label shared by every report shape.

    ``detected`` wins; otherwise ``degraded`` distinguishes "ended
    without a verdict under faults" from a definitive ``not_detected``.
    Single-predicate :class:`DetectionReport` and the service's
    per-predicate outcomes both classify through here, so sweep
    baselines and report rows agree on the vocabulary.
    """
    if detected:
        return "detected"
    if degraded:
        return "degraded"
    return "not_detected"


def fold_units(
    units: dict[str, object],
    board: MetricsBoard | None,
    extras: Mapping[str, Any],
) -> dict[str, object]:
    """Fold a run's monitor-board totals, then its numeric ``extras``
    (booleans as 0/1; names already in ``units`` win), into ``units``."""
    if board is not None:
        units["mon_msgs"] = board.total_messages(MONITOR_PREFIX)
        units["mon_bits"] = board.total_bits(MONITOR_PREFIX)
        units["total_work"] = board.total_work()
        units["max_work"] = board.max_work_per_actor(MONITOR_PREFIX)
        units["max_space_bits"] = board.max_space_per_actor(MONITOR_PREFIX)
        units["token_hops"] = board.messages_of_kind(TOKEN_KIND)
    for key, value in extras.items():
        if isinstance(value, bool):
            units.setdefault(key, int(value))
        elif isinstance(value, (int, float)):
            units.setdefault(key, value)
    return units


@dataclass(frozen=True, slots=True)
class DetectionReport:
    """Uniform outcome of one detection run.

    Parameters
    ----------
    detector:
        Registry name of the algorithm that produced this report.
    detected:
        Whether the WCP held at some consistent cut of the run.
    cut:
        The detected cut over the WCP's pids (``None`` when undetected).
        All correct detectors return the unique *first* satisfying cut.
    full_cut:
        For algorithms that compute a cut over all ``N`` processes (the
        direct-dependence family), that full cut; otherwise ``None``.
    detection_time:
        Simulated time at which detection was declared (``None`` for
        offline detectors or undetected runs).
    sim:
        Kernel result for simulated protocols (``None`` offline).
    metrics:
        The kernel metrics board for simulated protocols (``None``
        offline; offline detectors report costs in ``extras``).
    extras:
        Algorithm-specific measurements (token hops, comparisons,
        lattice states explored, ...).
    degraded:
        True when a run under fault injection ended without a verdict —
        the protocol neither detected the predicate nor proved it absent
        (e.g. a monitor stayed crashed, or a retransmission budget was
        exhausted).  Always False for fault-free runs: without injected
        faults every detector terminates with a definitive verdict.
    """

    detector: str
    detected: bool
    cut: Cut | None = None
    full_cut: Cut | None = None
    detection_time: float | None = None
    sim: SimulationResult | None = None
    metrics: MetricsBoard | None = None
    extras: dict[str, Any] = field(default_factory=dict)
    degraded: bool = False

    def __post_init__(self) -> None:
        if self.detected and self.cut is None:
            raise ValueError("a detected report must carry the detected cut")
        if not self.detected and self.cut is not None:
            raise ValueError("an undetected report must not carry a cut")
        if self.detected and self.degraded:
            raise ValueError("a detected report cannot be degraded")

    @property
    def outcome(self) -> str:
        """Three-way verdict: ``detected`` / ``not_detected`` / ``degraded``."""
        return outcome_label(self.detected, self.degraded)
