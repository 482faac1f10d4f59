"""Uniform entry point: run any registered detector on any computation.

``run_detector("token_vc", computation, wcp, seed=3)`` dispatches to the
algorithm module and returns its :class:`DetectionReport`.  The registry
is the single place experiments and examples enumerate algorithms from.
"""

from __future__ import annotations

import sys
from typing import Callable, Protocol

from repro.common.errors import ConfigurationError
from repro.detect import (
    centralized,
    direct_dep,
    direct_dep_parallel,
    lattice_cm,
    reference,
    token_vc,
    token_vc_multi,
)
from repro.detect.base import DetectionReport, fold_units
from repro.detect.stack import harden, hardened_variant
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.trace.computation import Computation

__all__ = [
    "DETECTORS",
    "FAULT_CAPABLE",
    "run_detector",
    "run_service",
    "offline_detectors",
    "online_detectors",
    "paper_units",
    "harden",
    "hardened_variant",
]


class _DetectFn(Protocol):
    def __call__(
        self,
        computation: Computation,
        wcp: WeakConjunctivePredicate,
        **options: object,
    ) -> DetectionReport: ...


# Offline detectors analyze the trace directly; online ones simulate the
# full distributed protocol and accept seed/channel_model/spacing options.
_OFFLINE: dict[str, Callable] = {
    "reference": reference.detect,
    "lattice": lattice_cm.detect,
}
_ONLINE: dict[str, Callable] = {
    "centralized": centralized.detect,
    "token_vc": token_vc.detect,
    "token_vc_multi": token_vc_multi.detect,
    "direct_dep": direct_dep.detect,
    "direct_dep_parallel": direct_dep_parallel.detect,
}
DETECTORS: dict[str, Callable] = {**_OFFLINE, **_ONLINE}

#: Online detectors with a hardened (loss/crash-tolerant) variant; only
#: these accept the ``faults`` / ``hardened`` / ``retry`` options.  Each
#: hardened variant is pure composition — ``harden(core)`` over the
#: :mod:`repro.detect.stack` layers — so every online token detector
#: with registered glue appears here.
FAULT_CAPABLE: frozenset[str] = frozenset(
    {"token_vc", "token_vc_multi", "direct_dep", "direct_dep_parallel"}
)


def offline_detectors() -> tuple[str, ...]:
    """Names of trace-analysis detectors (no simulation options)."""
    return tuple(_OFFLINE)


def online_detectors() -> tuple[str, ...]:
    """Names of simulated distributed detectors."""
    return tuple(_ONLINE)


def _summary_line(name: str, report: DetectionReport) -> str:
    """The one-line per-run summary printed by ``verbose=True``."""
    parts = [f"[repro] {name}: {report.outcome}"]
    if report.cut is not None:
        parts.append(f"cut={tuple(report.cut.intervals)}")
    if report.metrics is not None:
        parts.append(
            f"msgs={report.metrics.total_messages()} "
            f"bits={report.metrics.total_bits()} "
            f"work={report.metrics.total_work()}"
        )
    if report.sim is not None and report.sim.faults is not None:
        f = report.sim.faults
        parts.append(
            f"faults={f.total_message_faults} crashes={f.crashes}"
        )
    if report.detection_time is not None:
        parts.append(f"t={report.detection_time:g}")
    return " ".join(parts)


def paper_units(report: DetectionReport) -> dict[str, object]:
    """The run's deterministic cost metrics in the paper's units.

    Everything here is a counted quantity (messages, bits, work units,
    token hops, comparisons, ...) plus the three-way outcome — fully
    determined by the computation, detector and seed, never by wall
    clock.  The sweep harness compares these values *exactly* against
    committed baselines; wall time is tracked separately with a
    tolerance.  See :func:`~repro.detect.base.fold_units`.
    """
    return fold_units({"outcome": report.outcome}, report.metrics, report.extras)


def run_detector(
    name: str,
    computation: Computation,
    wcp: WeakConjunctivePredicate,
    **options: object,
) -> DetectionReport:
    """Run detector ``name``; online detectors accept ``seed``,
    ``channel_model``, ``spacing`` and algorithm-specific options.
    Detectors in :data:`FAULT_CAPABLE` additionally accept ``faults``
    (a :class:`~repro.simulation.faults.FaultPlan`), ``hardened``,
    ``retry`` and ``failure_detector`` (a
    :class:`~repro.detect.stack.FailureDetectorConfig` enabling
    heartbeat failure detection with token takeover).

    ``check_invariants=True`` (online detectors only) attaches a
    streaming :class:`~repro.obs.invariants.InvariantMonitor` to the
    run's observers and folds the result into ``report.extras``:
    ``invariant_violations`` (a count, so sweeps compare it exactly)
    plus ``invariant_summary`` / ``invariant_violation_details`` when
    anything fired.  The monitor is passive — outcomes and paper units
    are unchanged by its presence.

    ``verbose=True`` (accepted by every detector, offline included)
    prints a one-line outcome/cost summary to stderr after the run, so
    scripts and examples can show progress without scraping report
    internals.
    """
    verbose = bool(options.pop("verbose", False))
    check_invariants = bool(options.pop("check_invariants", False))
    try:
        fn = DETECTORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown detector {name!r}; available: {sorted(DETECTORS)}"
        ) from None
    if name in _OFFLINE and options:
        raise ConfigurationError(
            f"offline detector {name!r} takes no options, got {sorted(options)}"
        )
    monitor = None
    if check_invariants:
        if name in _OFFLINE:
            raise ConfigurationError(
                f"offline detector {name!r} has no live message stream; "
                f"check_invariants requires one of {sorted(_ONLINE)}"
            )
        # Imported lazily: repro.obs imports repro.detect.base, so a
        # module-level import here would be circular.
        from repro.obs.invariants import InvariantMonitor

        fd = options.get("failure_detector")
        monitor = InvariantMonitor(
            refutation_window=getattr(fd, "suspicion_after", None),
            probe_interval=getattr(fd, "heartbeat_interval", 4.0),
            partition_grace=getattr(fd, "grace", 30.0),
        )
        observers = list(options.get("observers") or ())  # type: ignore[call-overload]
        observers.append(monitor)
        options["observers"] = observers
    if name not in FAULT_CAPABLE:
        bad = sorted(
            k
            for k in ("faults", "hardened", "retry", "failure_detector")
            if k in options
        )
        if bad:
            raise ConfigurationError(
                f"detector {name!r} has no hardened variant; options {bad} "
                f"require one of {sorted(FAULT_CAPABLE)}"
            )
    report = fn(computation, wcp, **options)
    if monitor is not None:
        report.extras["invariant_violations"] = len(monitor.violations)
        if monitor.violations:
            report.extras["invariant_summary"] = monitor.summary()
            report.extras["invariant_violation_details"] = [
                v.as_dict() for v in monitor.violations[:20]
            ]
    if verbose:
        print(_summary_line(name, report), file=sys.stderr)
    return report


def run_service(
    name: str,
    computation: Computation,
    registry_or_predicates,
    **options: object,
):
    """Run the multi-predicate detection service; returns a
    :class:`~repro.detect.service.ServiceReport` with one
    :class:`~repro.detect.service.PredicateOutcome` per registered
    predicate.

    ``registry_or_predicates`` is a
    :class:`~repro.detect.service.PredicateRegistry`, or any iterable of
    ``(pred_id, wcp)`` pairs / mapping from which one is built.  For
    detectors with a multiplexed service implementation (currently
    ``token_vc``) the run shares one hardened candidate stream per app
    process and multiplexes per-predicate token frames over it;
    every other detector runs one independent pass per predicate over
    the same computation's cached causality analysis.  Either way, each
    predicate's verdict and first cut are identical to an independent
    ``run_detector`` run.

    ``verbose=True`` prints one summary line per predicate to stderr.
    """
    # Imported lazily: the service dispatcher calls back into
    # run_detector for the amortized path.
    from repro.detect.service import PredicateRegistry, SharedCausalityDispatcher

    verbose = bool(options.pop("verbose", False))
    if isinstance(registry_or_predicates, PredicateRegistry):
        registry = registry_or_predicates
    else:
        registry = PredicateRegistry()
        entries = (
            registry_or_predicates.items()
            if hasattr(registry_or_predicates, "items")
            else registry_or_predicates
        )
        for pred_id, wcp in entries:
            registry.register(pred_id, wcp)
    if name not in DETECTORS:
        raise ConfigurationError(
            f"unknown detector {name!r}; available: {sorted(DETECTORS)}"
        )
    dispatcher = SharedCausalityDispatcher(
        registry, computation, detector=name, **options
    )
    report = dispatcher.run()
    if verbose:
        for pred_id, out in report.outcomes.items():
            line = f"[repro] service {name} {pred_id}: {out.outcome}"
            if out.cut is not None:
                line += f" cut={tuple(out.cut.intervals)}"
            print(line, file=sys.stderr)
    return report
