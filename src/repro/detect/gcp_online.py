"""Online GCP detection for *linear* channel predicates ([6]'s checker).

The offline GCP detector (:mod:`repro.detect.gcp`) searches the whole
lattice — exponential.  Garg, Chase, Mitchell & Kilgore's actual
algorithm is polynomial for the class of **linear** channel predicates:
when a clause is false at the current candidate cut, one designated
endpoint's candidate can be eliminated outright, because the clause
stays false however far the *other* endpoint advances (see
:class:`repro.predicates.channel.LinearChannelPredicate`).

The checker is [7]'s (:class:`repro.detect.centralized.CheckerActor`,
run by the same launch) with a channel-clause phase after each pass of
the one Garg–Waldecker elimination loop
(:class:`repro.detect.elimination.Elimination`): snapshots carry
per-channel send/receive counters; once the candidate heads are pairwise
concurrent, each channel clause is evaluated on
``sends(src) − recvs(dest)``; a false clause eliminates its culprit's
head and elimination resumes.  Detection yields the least satisfying
cut (the satisfying cuts of a linear GCP are closed under meet).

Channel endpoints must be predicate processes — the checker needs their
snapshot streams.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.common.types import WORD_BITS
from repro.detect.base import DetectionReport
from repro.detect.centralized import run_checker
from repro.predicates.channel import LinearChannelPredicate
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.network import ChannelModel
from repro.simulation.replay import FeedItem
from repro.trace.computation import Computation
from repro.trace.snapshots import GCPSnapshot, gcp_snapshots

__all__ = ["detect_gcp_online"]


def _snapshot_bits(snap: GCPSnapshot) -> int:
    return (snap.vector.size_words() + len(snap.sends) + len(snap.recvs)) * WORD_BITS


def detect_gcp_online(
    computation: Computation,
    wcp: WeakConjunctivePredicate,
    channels: Sequence[LinearChannelPredicate],
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
    spacing: float = 1.0,
) -> DetectionReport:
    """Detect ``wcp ∧ channels`` online with the linear-GCP checker."""
    wcp.check_against(computation.num_processes)
    for clause in channels:
        if clause.src not in wcp.pids or clause.dest not in wcp.pids:
            raise ConfigurationError(
                f"channel clause {clause} endpoints must be predicate "
                f"processes {wcp.pids}"
            )
    streams = gcp_snapshots(
        computation, wcp.predicate_map(), [(c.src, c.dest) for c in channels]
    )
    items = {
        pid: [
            FeedItem(payload=snap, size_bits=_snapshot_bits(snap), time=snap.time)
            for snap in stream
        ]
        for pid, stream in streams.items()
    }
    return run_checker(
        wcp, items, channels, seed=seed, channel_model=channel_model,
        spacing=spacing,
    )
