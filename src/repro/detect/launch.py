"""One launch for the online token detectors (§3, §3.5, §4 and §4.5).

The four drivers differ only in their monitors (Figs. 3–5) and their
first token.  Everything around those is one harness, and it lives
here as :class:`OnlineRun`:

* the WCP check and the ``hardened`` / ``retry`` defaults;
* the simulation :class:`~repro.simulation.kernel.Kernel`, and each
  protocol actor built from its paper core or, hardened, from
  ``harden(core)``;
* one snapshot feeder per monitored process, the first-token injector
  and the fault plan's joiners, each plain or hardened;
* the extras every run reports, and the detected, not-detected or
  degraded :class:`~repro.detect.base.DetectionReport`.

A driver keeps its monitor construction, its first token, its own
extras and how it reads the verdict.  The multiplexed service launches
its own kernel (:mod:`repro.detect.service.dispatcher`): it always runs
hardened, injects one token per predicate and reads no per-monitor
verdict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.common.types import WORD_BITS
from repro.detect.base import (
    MONITOR_PREFIX,
    TOKEN_KIND,
    DetectionReport,
    app_name,
    monitor_name,
)
from repro.detect.stack import (
    AdaptiveRetryPolicy,
    FailureDetectorConfig,
    ReliableFeeder,
    ReliableInjector,
    TokenFrame,
    TokenInjector,
    harden,
    spawn_joiners,
)
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.actors import Actor
from repro.simulation.kernel import Kernel, SimulationResult
from repro.simulation.network import ChannelModel
from repro.simulation.replay import FeedItem, SnapshotFeeder
from repro.trace.computation import Computation
from repro.trace.cuts import Cut

if TYPE_CHECKING:  # annotation-only: cores stay decoupled from the fault layer
    from repro.simulation.faults import FaultPlan

__all__ = ["OnlineRun"]


class OnlineRun:
    """One simulated run of an online token detector.

    Call in this order: :meth:`monitor` once per monitor slot and
    :meth:`host` for any other protocol actor (the §3.5 leader);
    :meth:`feed`; :meth:`inject` unless a host sends the first token
    itself; :meth:`start`; then :meth:`report`.  Actors join the kernel
    in call order, which fixes the run's schedule.

    ``hardened`` defaults to "on exactly when faults are injected", and
    a hardened run without ``retry`` uses the RTT-adaptive policy seeded
    with ``seed``.
    """

    def __init__(
        self,
        computation: Computation,
        wcp: WeakConjunctivePredicate,
        *,
        seed: int,
        channel_model: ChannelModel | None,
        observers: list | None,
        faults: FaultPlan | None,
        hardened: bool | None,
        retry: AdaptiveRetryPolicy | None,
        failure_detector: FailureDetectorConfig | None,
    ) -> None:
        wcp.check_against(computation.num_processes)
        self.hardened = (faults is not None) if hardened is None else hardened
        if self.hardened and retry is None:
            retry = AdaptiveRetryPolicy(seed=seed)
        self._faults = faults
        self._retry = retry
        self._failure_detector = failure_detector
        self.kernel = Kernel(
            channel_model=channel_model, seed=seed, observers=observers,
            faults=faults,
        )
        self._monitors: list[Any] = []
        self._hosts: list[Any] = []
        self._sources: list[Actor] = []  # feeders and the injector
        self._pids: tuple[int, ...] = ()
        self._joiners: list[Any] = []
        self._sim: SimulationResult | None = None

    def host(self, core: type, *args: Any, **kwargs: Any) -> Any:
        """Add one protocol actor: ``core(*args, **kwargs)``, or its
        hardened composition with this run's retry policy and failure
        detector."""
        if self.hardened:
            actor = harden(core)(
                *args, retry=self._retry,
                failure_detector=self._failure_detector, **kwargs,
            )
        else:
            actor = core(*args, **kwargs)
        self.kernel.add_actor(actor)
        self._hosts.append(actor)
        return actor

    def monitor(self, core: type, *args: Any, **kwargs: Any) -> Any:
        """Add one slot monitor (a :meth:`host` whose ``aborted`` and
        ``token_visits`` the report reads).  The first one added
        receives the injected token."""
        mon = self.host(core, *args, **kwargs)
        self._monitors.append(mon)
        return mon

    def feed(
        self,
        pids: Sequence[int],
        items_by_pid: dict[int, list[FeedItem]],
        spacing: float,
    ) -> None:
        """One snapshot feeder per pid, streaming ``items_by_pid[pid]``
        to that pid's monitor (hardened: sequenced and retransmitted)."""
        self._pids = tuple(pids)
        for pid in self._pids:
            args = (app_name(pid), monitor_name(pid), items_by_pid[pid], spacing)
            feeder = (
                ReliableFeeder(*args, self._retry)
                if self.hardened
                else SnapshotFeeder(*args)
            )
            self.kernel.add_actor(feeder)
            self._sources.append(feeder)

    def inject(self, token: object, size_bits: int) -> None:
        """Send the first token to the first monitor; hardened, it
        travels in a hop-1 frame (one word more) until acked."""
        dest = self._monitors[0].name
        injector: Actor = (
            ReliableInjector(
                dest, TokenFrame(hop=1, body=token), size_bits + WORD_BITS,
                self._retry,
            )
            if self.hardened
            else TokenInjector(dest, token, size_bits)
        )
        self.kernel.add_actor(injector)
        self._sources.append(injector)

    def start(self) -> None:
        """Spawn the fault plan's joiners and run to quiescence."""
        self._joiners = spawn_joiners(
            self.kernel, self._faults, [m.name for m in self._monitors],
            hardened=self.hardened, config=self._failure_detector,
            retry=self._retry,
        )
        self._sim = self.kernel.run()

    def report(
        self,
        detector: str,
        extras: dict[str, Any],
        *,
        cut: Cut | None = None,
        full_cut: Cut | None = None,
        detection_time: float | None = None,
        partial_cut: list[int | None] | None = None,
    ) -> DetectionReport:
        """The run's report, with ``extras`` among the shared ones.

        A ``cut`` means detected.  Otherwise the run is degraded when
        faults were injected and no monitor aborted; a degraded hardened
        run also reports the pids whose feeder or monitor ended crashed
        (``unobservable``) and the driver's ``partial_cut``, one
        committed candidate (or ``None``) per monitor.
        """
        aborted = any(m.aborted for m in self._monitors)
        hosts = {a.name for a in self._hosts}
        metrics = self.kernel.metrics
        out: dict[str, Any] = {
            "token_hops": sum(
                m.sent_by_kind.get(TOKEN_KIND, 0)
                for name, m in metrics.actors().items()
                if name.startswith(MONITOR_PREFIX) or name in hosts
            ),
            "token_visits": sum(m.token_visits for m in self._monitors),
            **extras,
            "aborted": aborted,
            "hardened": self.hardened,
        }
        if self.hardened:
            actors = [*self._hosts, *self._sources]
            out["gave_up"] = any(getattr(a, "gave_up", False) for a in actors)
            out["halt_incomplete"] = any(
                getattr(a, "halt_incomplete", False) for a in actors
            )
            out["elections"] = sum(a.elections for a in self._hosts)
            out["takeovers"] = sum(a.takeovers for a in self._hosts)
        if self._joiners:
            out["joiners"] = len(self._joiners)
            out["joined"] = sum(1 for j in self._joiners if j.joined)
            out["synced"] = sum(1 for j in self._joiners if j.synced)
        if cut is not None:
            return DetectionReport(
                detector=detector, detected=True, cut=cut, full_cut=full_cut,
                detection_time=detection_time, sim=self._sim, metrics=metrics,
                extras=out,
            )
        degraded = self._faults is not None and not aborted
        if self.hardened and degraded:
            assert self._sim is not None
            dead = set(self._sim.crashed)
            out["unobservable"] = [
                pid
                for pid in self._pids
                if app_name(pid) in dead or monitor_name(pid) in dead
            ]
            out["partial_cut"] = partial_cut
        return DetectionReport(
            detector=detector, detected=False, sim=self._sim, metrics=metrics,
            extras=out, degraded=degraded,
        )
