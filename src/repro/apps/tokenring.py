"""Quiescence detection on a worker ring — a classic WCP use case.

A WCP with the clause "worker is idle" on every worker detects *global
quiescence*: a consistent cut where no worker is busy.  (Messages in
flight are invisible to a pure WCP; combine with the GCP channel
predicates of :mod:`repro.detect.gcp` for full termination detection.)

The application: ``k`` workers in a ring.  Worker 0 injects jobs, each
with a hop budget ``ttl <= k``; a worker that receives a live job goes
busy, works for a fixed duration, forwards the job with ``ttl - 1`` (if
still positive), and goes idle.  After injecting, worker 0 circulates a
shutdown marker twice around the ring; with FIFO channels and
``ttl <= k`` every job is dead by the time the second pass completes,
so all workers terminate cleanly.
"""

from __future__ import annotations

from typing import Any

from repro.apps.base import ApplicationProcess, app_names, wiring
from repro.common.errors import ConfigurationError
from repro.common.types import Pid
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.predicates.local import var_true

__all__ = ["RingWorkerApp", "build_ring_system", "quiescence_wcp"]


class RingWorkerApp(ApplicationProcess):
    """One ring worker; worker 0 additionally injects jobs and the marker."""

    def __init__(
        self,
        pid: Pid,
        names: list[str],
        jobs: list[int] | None = None,
        work_duration: float = 1.0,
        **monitoring: Any,
    ) -> None:
        # Worker 0 starts busy (it is about to inject work), so the first
        # quiescent cut is a real post-injection one rather than the
        # trivial initial state.
        super().__init__(pid, names, initial_vars={"idle": pid != 0}, **monitoring)
        self._ring_size = len(names)
        if jobs is not None and pid != 0:
            raise ConfigurationError("only worker 0 injects jobs")
        if jobs is not None and any(t < 1 or t > self._ring_size for t in jobs):
            raise ConfigurationError("job ttl must be in 1..ring size")
        self._jobs = list(jobs or [])
        self._work = work_duration

    def _next(self) -> Pid:
        return (self.pid + 1) % self._ring_size

    def behavior(self):
        if self.pid == 0:
            for ttl in self._jobs:
                yield self.app_send(self._next(), ("job", ttl))
            yield self.app_send(self._next(), ("marker", 1))
            yield self.set_vars(idle=True)
        markers_seen = 0
        while markers_seen < 2:
            msg = yield from self.recv_app()
            kind, value = msg.payload
            if kind == "marker":
                markers_seen += 1
                passes = value
                if self.pid == 0:
                    if passes == 1:
                        yield self.app_send(self._next(), ("marker", 2))
                else:
                    yield self.app_send(self._next(), ("marker", passes))
                continue
            ttl = value
            yield self.set_vars(idle=False)
            yield self.sleep(self._work)
            if ttl > 1:
                yield self.app_send(self._next(), ("job", ttl - 1))
            yield self.set_vars(idle=True)


def quiescence_wcp(num_workers: int) -> WeakConjunctivePredicate:
    """All workers idle — global quiescence."""
    return WeakConjunctivePredicate(
        {pid: var_true("idle") for pid in range(num_workers)}
    )


def build_ring_system(
    num_workers: int,
    jobs: list[int],
    wcp: WeakConjunctivePredicate,
    mode: str = "vc",
    work_duration: float = 1.0,
) -> list[ApplicationProcess]:
    """The ring wired for live detection (see :mod:`repro.apps.live`)."""
    if num_workers < 2:
        raise ConfigurationError("ring needs >= 2 workers")
    names = app_names(num_workers)
    return [
        RingWorkerApp(
            pid, names, jobs=jobs if pid == 0 else None,
            work_duration=work_duration, **wiring(wcp, pid, mode),
        )
        for pid in range(num_workers)
    ]
