"""Shared-causality dispatch: N registered predicates, one event stream.

The dispatcher is the service's runtime.  For the flagship §3 detector
(``token_vc``) it *multiplexes*: one simulation kernel hosts

* one hardened :class:`~repro.detect.stack.ReliableFeeder` per app
  process in the registered **union** — the vector-clock snapshot
  stream is extracted once per process and projected to the union's
  width, so the causality layer is computed and shipped exactly once
  however many predicates are registered;
* one :class:`ServiceMonitor` per union process, hosting one small
  per-predicate **token machine** for every registered predicate that
  names its pid.  Each machine is a
  :class:`~repro.detect.token_vc.Fig3Slot` and runs the one Fig. 3
  visit; its
  token travels in :class:`~repro.detect.stack.TokenFrame`\\ s tagged
  with the predicate's ``pred_id`` and multiplexed over the same
  hop-acked transport as a single-predicate run.

Because all co-located predicates read the same ``Sequenced`` stream,
one cumulative candidate ack serves every predicate on the monitor —
the batched-ack half of the multiplexing win; the marginal per-predicate
traffic is just that predicate's token hops plus one done-notification.

Exactness: a machine consumes the pid's candidate stream through a
per-machine cursor over the shared buffer.  The stream is a function of
``(computation, pid, clause)`` (Fig. 2 emission points), the visit logic
is a function of the stream and the token, and Theorem 3.2 makes the
first consistent cut schedule-independent — so every registered
predicate's verdict and cut are byte-identical to an independent
single-predicate run, under any fault schedule the hardened transport
survives.

Detectors without a multiplexed implementation (``token_vc_multi``,
``direct_dep``, ``direct_dep_parallel``, and the offline baselines) run
through the *amortized* path: one independent run per predicate against
the **same** :class:`~repro.trace.computation.Computation` object, whose
interval analysis is computed once and cached — the shared causality
layer without transport multiplexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.errors import ConfigurationError
from repro.common.types import WORD_BITS
from repro.detect.base import (
    MONITOR_PREFIX,
    TOKEN_KIND,
    DetectionReport,
    app_name,
    fold_units,
    monitor_name,
    outcome_label,
)
from repro.detect.service.registry import PredicateRegistry
from repro.detect.stack import (
    AdaptiveRetryPolicy,
    ReliableFeeder,
    ReliableInjector,
    StackGlue,
    TokenFrame,
    harden,
)
from repro.detect.token_vc import (
    ROUTINGS,
    Fig3Slot,
    VCToken,
    candidate_feed_items,
)
from repro.simulation.actors import Actor
from repro.simulation.instrumentation import MetricsBoard
from repro.simulation.kernel import Kernel, SimulationResult
from repro.simulation.network import ChannelModel
from repro.trace.computation import Computation
from repro.trace.cuts import Cut

if TYPE_CHECKING:  # annotation-only: the service stays fault-layer-agnostic
    from repro.simulation.faults import FaultPlan

__all__ = [
    "MUX_DETECTORS",
    "PredicateOutcome",
    "ServiceReport",
    "ServiceMonitor",
    "SharedCausalityDispatcher",
    "service_units",
]

#: Detectors with a true transport-multiplexed service implementation;
#: every other detector runs through the amortized shared-causality path.
MUX_DETECTORS = frozenset({"token_vc"})

#: Frame gid of per-predicate done-notifications (tokens travel on gid 0;
#: the composite dedup key is ``(pred_id, gid)``, so each predicate's
#: notification has its own hop sequence).
_DONE_GID = 1


@dataclass(frozen=True, slots=True)
class _PredDone:
    """Resolver -> coordinator: one predicate's committed verdict."""

    pred_idx: int
    detected: bool
    cut: tuple[int, ...] | None
    detected_at: float | None
    aborted: bool

    def size_bits(self) -> int:
        return WORD_BITS * (2 + len(self.cut or ()))


class _PredMachine(Fig3Slot):
    """One predicate's Fig. 3 slot on one service monitor.

    Plain mutable object stored in a persisted monitor attribute, so
    (like every transport buffer) it survives a crash/restart.  Adds
    the service fields to the slot state: the ``cursor`` indexes the
    monitor's shared candidate buffer, ``proj`` projects a union-width
    candidate onto the predicate's pids, and ``itinerary`` names the
    monitor of each predicate slot.
    """

    __slots__ = (
        "pred_idx", "pred_id", "itinerary", "proj", "cursor", "done",
        "detected", "detected_cut", "detected_at", "aborted", "token_visits",
    )

    def __init__(
        self,
        pred_idx: int,
        pred_id: str,
        slot: int,
        n: int,
        itinerary: list[str],
        proj: tuple[int, ...],
        routing: str,
    ) -> None:
        super().__init__(slot, n, routing)
        self.pred_idx = pred_idx
        self.pred_id = pred_id
        self.itinerary = itinerary
        self.proj = proj
        self.cursor = 0
        self.done = False
        self.detected = False
        self.detected_cut: tuple[int, ...] | None = None
        self.detected_at: float | None = None
        self.aborted = False
        self.token_visits = 0


class ServiceCore(Actor):
    """The plain core of a service monitor: per-predicate machine state.

    Only ever run hardened (the service *is* the stack); the composed
    :class:`ServiceMonitor` supplies the run loop.
    """

    def __init__(
        self,
        pid: int,
        u_index: int,
        monitor_names: list[str],
        machines: list[_PredMachine],
        total_predicates: int,
        coordinator: str,
    ) -> None:
        super().__init__(monitor_name(pid))
        self._pid = pid
        self._u_index = u_index
        self._monitors = list(monitor_names)
        self._machines: dict[int, _PredMachine] = {
            m.pred_idx: m for m in machines
        }
        self._total = total_predicates
        self._coordinator = coordinator
        #: Coordinator-only: committed verdicts, keyed by pred_idx.
        self._resolved: dict[int, _PredDone] = {}
        self.token_visits = 0
        self.aborted = False

    def run(self):  # pragma: no cover - the composition always overrides
        raise NotImplementedError(
            "ServiceCore only runs as the hardened ServiceMonitor composition"
        )


class ServiceGlue(StackGlue):
    """Stack glue multiplexing N Fig. 3 machines over one endpoint.

    Differences from the single-predicate
    :class:`~repro.detect.token_vc.TokenVCGlue`:

    * frames are demuxed on ``pred_id`` to the owning machine, which
      runs the identical visit logic with its own persisted acceptance;
    * the candidate inbox drains into a shared persisted buffer read
      through per-machine cursors (a destructive pop would starve the
      other co-located predicates); buffered bits are released from the
      space gauge once every live machine's cursor has passed them;
    * a resolving machine commits its verdict locally and reliably
      notifies the coordinator (the first union monitor), which halts
      the run once **all** registered predicates have resolved.
    """

    def _init_visit_state(self) -> None:
        self._stream: list[tuple[object, int]] = []
        self._stream_released = 0

    # ------------------------------------------------------------------
    def _snapshot_frame(self, frame: TokenFrame) -> TokenFrame:
        body = frame.body
        if isinstance(body, VCToken):
            body = body.copy()
        return TokenFrame(
            frame.hop, body, frame.gid, frame.epoch, (), frame.pred_id
        )

    def _on_token_accepted(self, frame: TokenFrame) -> None:
        if isinstance(frame.body, VCToken):
            self.token_visits += 1
            machine = self._machines.get(frame.pred_id)
            if machine is not None:
                machine.token_visits += 1

    def _fd_slot(self) -> int:
        return self._u_index

    def _stack_finished(self) -> bool:
        return (
            self.name == self._coordinator
            and len(self._resolved) >= self._total
        )

    def _idle_description(self) -> str:
        return f"{self.name} awaiting service frames"

    # ------------------------------------------------------------------
    # Shared candidate buffer
    # ------------------------------------------------------------------
    def _drain_inbox(self) -> None:
        """Move every in-order candidate into the persisted buffer."""
        while True:
            entry = self._inbox.pop()
            if entry is None:
                return
            self._stream.append(entry)

    def _settle_stream_space(self) -> None:
        """Release buffered bits every live machine has consumed."""
        live = [m.cursor for m in self._machines.values() if not m.done]
        upto = min(live) if live else len(self._stream)
        while self._stream_released < upto:
            self.metrics.adjust_space(-self._stream[self._stream_released][1])
            self._stream_released += 1

    def _machine_candidate(self, machine: _PredMachine):
        """The next candidate for ``machine``, projected to its pids.

        Returns the projected tuple, ``None`` once the stream is
        exhausted, or ``"halt"``.  The cursor advance and the caller's
        token mutation form one atomic block (no yields between them),
        exactly like the single-predicate inbox pop.
        """
        while True:
            self._drain_inbox()
            if machine.cursor < len(self._stream):
                payload = self._stream[machine.cursor][0]
                machine.cursor += 1
                self._settle_stream_space()
                return tuple(payload[u] for u in machine.proj)
            if self._inbox.exhausted:
                return None
            msg = yield from self._fd_receive(self._awaiting_candidate)
            if msg is None:
                if self.halted:
                    return "halt"
                continue  # idle heartbeat tick
            code = yield from self._dispatch(msg)
            if code == "halt":
                return "halt"

    # ------------------------------------------------------------------
    # Frame handling (the StackedMonitor host hooks)
    # ------------------------------------------------------------------
    def _handle_frame(self, frame: TokenFrame):
        body = frame.body
        if isinstance(body, _PredDone):
            return "record"
        machine = self._machines.get(frame.pred_id)
        if machine is None or machine.done:
            # A predicate resolved (or was never hosted here): any
            # straggler token for it is acked by the transport and
            # simply dropped at this layer.
            return "discard"
        return (
            yield from machine.visit(
                self, body, lambda: self._machine_candidate(machine)
            )
        )

    def _resolve_frame(self, frame: TokenFrame, code: str) -> None:
        # Atomic with the frame's retirement (no yields).
        if code == "record":
            done: _PredDone = frame.body
            self._resolved[done.pred_idx] = done
            return
        if code == "discard":
            return
        machine = self._machines[frame.pred_id]
        token: VCToken = frame.body
        if code == "abort":
            machine.aborted = True
            self.aborted = True
            self._finish_machine(machine)
        elif code == "detected":
            machine.detected = True
            machine.detected_cut = tuple(token.G)
            machine.detected_at = self.now
            self._finish_machine(machine)
        else:  # forward
            target = machine.next_red(token)
            self._begin_transfer(
                machine.itinerary[target],
                TokenFrame(
                    frame.hop + 1, token, frame.gid, frame.epoch, (),
                    frame.pred_id,
                ),
                token.size_bits() + 2 * WORD_BITS,
            )

    def _finish_machine(self, machine: _PredMachine) -> None:
        """Commit a verdict: mark done, free buffer space, tell the
        coordinator (directly, or via a reliable done-notification)."""
        machine.done = True
        self._settle_stream_space()
        done = _PredDone(
            machine.pred_idx,
            machine.detected,
            machine.detected_cut,
            machine.detected_at,
            machine.aborted,
        )
        if self.name == self._coordinator:
            self._resolved[machine.pred_idx] = done
        else:
            self._begin_transfer(
                self._coordinator,
                TokenFrame(1, done, _DONE_GID, self._epoch, (), machine.pred_idx),
                done.size_bits(),
            )


#: The hardened service monitor: per-predicate machines over the shared
#: stack run loop, composed exactly like every other hardened detector.
ServiceMonitor = harden(ServiceCore, glue=ServiceGlue, name="ServiceMonitor")


@dataclass(frozen=True, slots=True)
class PredicateOutcome:
    """One registered predicate's verdict within a service run."""

    pred_id: str
    detected: bool
    cut: Cut | None = None
    detection_time: float | None = None
    aborted: bool = False
    degraded: bool = False
    report: DetectionReport | None = None

    def __post_init__(self) -> None:
        if self.detected and self.cut is None:
            raise ValueError("a detected outcome must carry the detected cut")

    @property
    def outcome(self) -> str:
        """Three-way verdict, matching :class:`DetectionReport.outcome`."""
        return outcome_label(self.detected, self.degraded)


@dataclass(frozen=True, slots=True)
class ServiceReport:
    """Per-predicate outcomes of one multi-predicate service run."""

    detector: str
    multiplexed: bool
    outcomes: dict[str, PredicateOutcome]
    sim: SimulationResult | None = None
    metrics: MetricsBoard | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def n_predicates(self) -> int:
        return len(self.outcomes)

    @property
    def degraded(self) -> bool:
        """Whether any predicate's verdict is unreliable."""
        return any(out.degraded for out in self.outcomes.values())

    @property
    def summary(self) -> str:
        """An aggregate outcome label (per-predicate detail is in
        :attr:`outcomes`; this feeds trace metadata and sweep records)."""
        if self.degraded:
            return "degraded"
        detected = sum(1 for out in self.outcomes.values() if out.detected)
        return f"detected:{detected}/{self.n_predicates}"

    def outcome(self, pred_id: str) -> PredicateOutcome:
        try:
            return self.outcomes[pred_id]
        except KeyError:
            raise ConfigurationError(
                f"service run has no outcome for predicate {pred_id!r}"
            ) from None


def service_units(report: ServiceReport) -> dict[str, object]:
    """Deterministic counted costs of a service run (cf. ``paper_units``).

    Aggregate counts plus one ``outcome:<pred_id>`` entry per predicate,
    so sweep baselines pin every verdict exactly; wall time is tracked
    separately by the harness.
    """
    units: dict[str, object] = {
        "n_predicates": report.n_predicates,
        "detected_count": sum(
            1 for o in report.outcomes.values() if o.detected
        ),
        "aborted_count": sum(
            1 for o in report.outcomes.values() if o.aborted
        ),
        "degraded_count": sum(
            1 for o in report.outcomes.values() if o.degraded
        ),
    }
    for pred_id, out in report.outcomes.items():
        units[f"outcome:{pred_id}"] = out.outcome
    return fold_units(units, report.metrics, report.extras)


def service_trace_meta(
    report: ServiceReport, wall_seconds: float | None = None
) -> dict[str, Any]:
    """Trace-header meta for a service run (consumed by ``repro report``).

    ``predicates`` carries one row per registered predicate;
    ``service`` carries the amortization headline: predicates/sec
    sustained (when the caller measured ``wall_seconds``), the shared
    candidate-stream bits, and the marginal token-traffic bits each
    predicate added on top of that shared stream.
    """
    preds = [
        {
            "pred_id": out.pred_id,
            "outcome": out.outcome,
            "cut": None if out.cut is None else list(out.cut.intervals),
            "detection_time": out.detection_time,
        }
        for out in report.outcomes.values()
    ]
    service: dict[str, Any] = {}
    board = report.metrics
    if board is not None:
        # Imported here: replay sits above detect in the layering.
        from repro.simulation.replay import CANDIDATE_KIND

        token_bits = board.bits_of_kind(TOKEN_KIND)
        service["shared_stream_bits"] = board.bits_of_kind(CANDIDATE_KIND)
        service["marginal_bits_per_predicate"] = (
            token_bits / report.n_predicates if report.n_predicates else 0.0
        )
    if wall_seconds is not None and wall_seconds > 0:
        service["predicates_per_sec"] = report.n_predicates / wall_seconds
    return {
        "n_predicates": report.n_predicates,
        "predicates": preds,
        "service": service,
    }


class SharedCausalityDispatcher:
    """Launch one service run over a snapshot of a predicate registry.

    Parameters mirror :func:`repro.detect.token_vc.detect` where they
    apply; ``detector`` picks the algorithm family.  Detectors in
    :data:`MUX_DETECTORS` run the transport-multiplexed service;
    everything else runs the amortized path (independent runs sharing
    the computation's cached causality analysis).
    """

    def __init__(
        self,
        registry: PredicateRegistry,
        computation: Computation,
        *,
        detector: str = "token_vc",
        seed: int = 0,
        channel_model: ChannelModel | None = None,
        spacing: float = 1.0,
        routing: str = "cyclic",
        observers: list | None = None,
        faults: "FaultPlan | None" = None,
        retry: AdaptiveRetryPolicy | None = None,
        **detector_options: object,
    ) -> None:
        registry.check_against(computation.num_processes)
        if routing not in ROUTINGS:
            raise ConfigurationError(
                f"routing must be one of {ROUTINGS}, got {routing!r}"
            )
        if "failure_detector" in detector_options and detector in MUX_DETECTORS:
            raise ConfigurationError(
                "the multiplexed service manages its own membership; "
                "failure_detector is not supported for mux detectors"
            )
        # Snapshot: registry mutations after construction don't affect this run.
        self._entries = list(registry.items())
        self._predicate_map = registry.predicate_map()
        self._computation = computation
        self._detector = detector
        self._seed = seed
        self._channel_model = channel_model
        self._spacing = spacing
        self._routing = routing
        self._observers = observers
        self._faults = faults
        self._retry = retry
        self._detector_options = dict(detector_options)

    # ------------------------------------------------------------------
    def run(self) -> ServiceReport:
        if self._detector in MUX_DETECTORS:
            return self._run_mux()
        return self._run_amortized()

    # ------------------------------------------------------------------
    # The multiplexed path (token_vc)
    # ------------------------------------------------------------------
    def _run_mux(self) -> ServiceReport:
        if self._faults is not None and self._faults.joins:
            raise ConfigurationError(
                "the multiplexed service has no membership layer to admit a "
                "joiner; drop the join: clauses from the fault plan"
            )
        comp = self._computation
        entries = self._entries
        total = len(entries)
        upids = tuple(sorted({p for _, wcp in entries for p in wcp.pids}))
        u_of = {pid: i for i, pid in enumerate(upids)}
        names = [monitor_name(pid) for pid in upids]
        coordinator = names[0]
        retry = self._retry
        if retry is None:
            retry = AdaptiveRetryPolicy(seed=self._seed)

        kernel = Kernel(
            channel_model=self._channel_model,
            seed=self._seed,
            observers=self._observers,
            faults=self._faults,
        )
        # Per-predicate machine specs, indexed 1..P (tag 0 = untagged).
        machines_of: dict[int, list[_PredMachine]] = {pid: [] for pid in upids}
        for idx, (pred_id, wcp) in enumerate(entries, start=1):
            itinerary = [monitor_name(p) for p in wcp.pids]
            proj = tuple(u_of[p] for p in wcp.pids)
            for slot, pid in enumerate(wcp.pids):
                machines_of[pid].append(
                    _PredMachine(
                        idx, pred_id, slot, wcp.n, itinerary, proj,
                        self._routing,
                    )
                )
        monitors = [
            ServiceMonitor(
                pid, u_index, names, machines_of[pid], total, coordinator,
                retry=retry, failure_detector=None,
            )
            for u_index, pid in enumerate(upids)
        ]
        for mon in monitors:
            kernel.add_actor(mon)
        # One shared feeder stream per union pid, union-projected.
        items_by_pid = candidate_feed_items(comp, self._predicate_map, upids)
        feeders = [
            ReliableFeeder(
                app_name(pid), monitor_name(pid), items_by_pid[pid],
                self._spacing, retry,
            )
            for pid in upids
        ]
        for feeder in feeders:
            kernel.add_actor(feeder)
        injectors = []
        for idx, (pred_id, wcp) in enumerate(entries, start=1):
            token = VCToken.initial(wcp.n)
            injector = ReliableInjector(
                monitor_name(wcp.pids[0]),
                TokenFrame(1, token, 0, 0, (), idx),
                token.size_bits() + 2 * WORD_BITS,
                retry,
                name=f"svc-injector-p{idx}",
            )
            injectors.append(injector)
            kernel.add_actor(injector)
        sim = kernel.run()

        resolved = monitors[0]._resolved
        outcomes: dict[str, PredicateOutcome] = {}
        for idx, (pred_id, wcp) in enumerate(entries, start=1):
            done = resolved.get(idx)
            if done is None:
                # Never resolved (or the notification never reached the
                # coordinator): no verdict was committed for this
                # predicate — an honest degraded outcome.
                outcomes[pred_id] = PredicateOutcome(
                    pred_id, detected=False, degraded=True
                )
            elif done.detected:
                assert done.cut is not None
                outcomes[pred_id] = PredicateOutcome(
                    pred_id,
                    detected=True,
                    cut=Cut(wcp.pids, done.cut),
                    detection_time=done.detected_at,
                )
            else:
                outcomes[pred_id] = PredicateOutcome(
                    pred_id, detected=False, aborted=done.aborted
                )
        participants = [*monitors, *feeders, *injectors]
        extras: dict[str, Any] = {
            "n_predicates": total,
            "union_width": len(upids),
            "token_visits": sum(m.token_visits for m in monitors),
            "candidates_fed": sum(len(items_by_pid[p]) for p in upids),
            # Verdicts that travelled as done-notifications (resolved on a
            # non-coordinator monitor): resolved but not locally done.
            "pred_done_msgs": sum(
                1
                for i in resolved
                if not (
                    i in monitors[0]._machines and monitors[0]._machines[i].done
                )
            ),
            "gave_up": any(getattr(a, "gave_up", False) for a in participants),
            "halt_incomplete": any(
                getattr(a, "halt_incomplete", False) for a in participants
            ),
            "hardened": True,
            "multiplexed": True,
        }
        return ServiceReport(
            detector=self._detector,
            multiplexed=True,
            outcomes=outcomes,
            sim=sim,
            metrics=kernel.metrics,
            extras=extras,
        )

    # ------------------------------------------------------------------
    # The amortized path (every other detector)
    # ------------------------------------------------------------------
    def _run_amortized(self) -> ServiceReport:
        # Imported lazily: the runner imports this package for
        # run_service, so a module-level import would be circular.
        from repro.detect.runner import FAULT_CAPABLE, _OFFLINE, run_detector

        options: dict[str, object] = dict(self._detector_options)
        if self._detector not in _OFFLINE:
            options.setdefault("seed", self._seed)
            options.setdefault("spacing", self._spacing)
            if self._channel_model is not None:
                options.setdefault("channel_model", self._channel_model)
            if self._observers is not None:
                options.setdefault("observers", self._observers)
        if self._detector in FAULT_CAPABLE:
            if self._faults is not None:
                options.setdefault("faults", self._faults)
            if self._retry is not None:
                options.setdefault("retry", self._retry)
        elif self._faults is not None:
            raise ConfigurationError(
                f"detector {self._detector!r} cannot run under faults"
            )
        outcomes: dict[str, PredicateOutcome] = {}
        mon_msgs = mon_bits = total_work = 0
        for pred_id, wcp in self._entries:
            report = run_detector(self._detector, self._computation, wcp, **options)
            outcomes[pred_id] = PredicateOutcome(
                pred_id,
                detected=report.detected,
                cut=report.cut,
                detection_time=report.detection_time,
                aborted=bool(report.extras.get("aborted", False)),
                degraded=report.degraded,
                report=report,
            )
            if report.metrics is not None:
                mon_msgs += report.metrics.total_messages(MONITOR_PREFIX)
                mon_bits += report.metrics.total_bits(MONITOR_PREFIX)
                total_work += report.metrics.total_work()
        extras = {
            "n_predicates": len(self._entries),
            "amortized_mon_msgs": mon_msgs,
            "amortized_mon_bits": mon_bits,
            "amortized_total_work": total_work,
            "multiplexed": False,
        }
        return ServiceReport(
            detector=self._detector,
            multiplexed=False,
            outcomes=outcomes,
            extras=extras,
        )
