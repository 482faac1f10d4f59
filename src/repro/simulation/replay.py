"""Trace replay: application-side actors that feed monitors.

In the paper's architecture (Fig. 1) application processes send *local
snapshots* to their monitor processes over FIFO channels.  For detection
experiments we replay a recorded computation: a :class:`SnapshotFeeder`
actor plays the role of one application process, delivering that
process's snapshot stream at the timestamps recorded in the trace and
then an **end-of-trace marker**.

The end-of-trace marker is this library's termination extension (see
DESIGN.md): the paper's monitors block forever when no further candidate
will arrive; the marker lets a monitor conclude "this process has no
further candidates" and abort the protocol with a definitive
"not detected" verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.validation import require_finite
from repro.simulation.actors import Actor

__all__ = [
    "CANDIDATE_KIND",
    "END_OF_TRACE_KIND",
    "FeedItem",
    "SnapshotFeeder",
]

# Message kinds on the application -> monitor channel.
CANDIDATE_KIND = "candidate"
END_OF_TRACE_KIND = "end_of_trace"


@dataclass(frozen=True, slots=True)
class FeedItem:
    """One snapshot to deliver: payload, accounting size, and emission time.

    ``time`` is the simulated instant the application process emits the
    snapshot (transit latency is added by the channel model).  ``None``
    means "one spacing unit after the previous item".
    """

    payload: object
    size_bits: int
    time: float | None = None


class SnapshotFeeder(Actor):
    """Replays one process's snapshot stream into its monitor.

    Parameters
    ----------
    name:
        Actor name (conventionally ``app-<pid>``).
    monitor:
        Destination actor name (the mated monitor process).
    items:
        The snapshot stream, in emission order; item times must be
        nondecreasing.
    spacing:
        Gap used for items without explicit timestamps.
    """

    def __init__(
        self,
        name: str,
        monitor: str,
        items: list[FeedItem],
        spacing: float = 1.0,
    ) -> None:
        super().__init__(name)
        require_finite(spacing, "spacing", strict=True)
        timed = [i.time for i in items if i.time is not None]
        if timed != sorted(timed):
            raise ConfigurationError("feed item times must be nondecreasing")
        self._monitor = monitor
        self._items = list(items)
        self._spacing = spacing

    def run(self):
        for item in self._items:
            if item.time is not None:
                if item.time > self.now:
                    yield self.sleep(item.time - self.now)
            else:
                yield self.sleep(self._spacing)
            yield self.send(
                self._monitor,
                item.payload,
                kind=CANDIDATE_KIND,
                size_bits=item.size_bits,
            )
        yield self.send(self._monitor, None, kind=END_OF_TRACE_KIND, size_bits=1)
