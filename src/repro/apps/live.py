"""Wiring live applications to online detectors in one simulation.

This is the paper's Fig. 1 deployed end to end: application processes
(:mod:`repro.apps.base`) exchange application messages and stream local
snapshots while monitor processes run a detection protocol concurrently
— nothing is precomputed from a trace.

``run_live_token_vc`` attaches §3 monitors (one per predicate process);
``run_live_direct_dep`` attaches §4 monitors (one per process — pass
application processes for *all* pids, built in dd mode with a predicate
on every process, constant-true where none is wanted).
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.detect.base import DetectionReport, monitor_name
from repro.detect.direct_dep import TOKEN_BITS, build_monitors
from repro.detect.stack import TokenInjector
from repro.detect.token_vc import TokenVCMonitor, VCToken
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.kernel import Kernel
from repro.simulation.network import ChannelModel
from repro.trace.cuts import Cut

from repro.apps.base import ApplicationProcess

__all__ = ["app_names", "run_live_token_vc", "run_live_direct_dep"]


def app_names(num_processes: int) -> list[str]:
    """Canonical application actor names, indexed by pid."""
    return [f"app-{pid}" for pid in range(num_processes)]


def run_live_token_vc(
    apps: Sequence[ApplicationProcess],
    wcp: WeakConjunctivePredicate,
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
) -> DetectionReport:
    """Run live applications with the §3 detector attached online."""
    _check_apps(apps)
    pids = wcp.pids
    kernel = Kernel(channel_model=channel_model, seed=seed)
    names = [monitor_name(pid) for pid in pids]
    monitors = [TokenVCMonitor(pid, slot, names) for slot, pid in enumerate(pids)]
    for mon in monitors:
        kernel.add_actor(mon)
    for app in apps:
        kernel.add_actor(app)
    token = VCToken.initial(wcp.n)
    kernel.add_actor(TokenInjector(names[0], token, token.size_bits()))
    sim = kernel.run()
    winner = next((m for m in monitors if m.detected), None)
    extras = {
        "aborted": any(m.aborted for m in monitors),
        "snapshots": sum(a.snapshots_emitted for a in apps),
    }
    if winner is not None:
        assert winner.detected_cut is not None
        return DetectionReport(
            detector="token_vc",
            detected=True,
            cut=Cut(pids, winner.detected_cut),
            detection_time=winner.detected_at,
            sim=sim,
            metrics=kernel.metrics,
            extras=extras,
        )
    return DetectionReport(
        detector="token_vc", detected=False, sim=sim,
        metrics=kernel.metrics, extras=extras,
    )


def run_live_direct_dep(
    apps: Sequence[ApplicationProcess],
    wcp: WeakConjunctivePredicate,
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
) -> DetectionReport:
    """Run live applications with the §4 detector attached online.

    ``apps`` must cover every process (built in ``dd`` mode with a
    predicate — constant-true for processes outside the WCP).
    """
    _check_apps(apps)
    big_n = len(apps)
    wcp.check_against(big_n)
    kernel = Kernel(channel_model=channel_model, seed=seed)
    monitors = build_monitors(big_n)
    for mon in monitors:
        kernel.add_actor(mon)
    for app in apps:
        kernel.add_actor(app)
    kernel.add_actor(TokenInjector(monitor_name(0), None, TOKEN_BITS))
    sim = kernel.run()
    winner = next((m for m in monitors if m.detected), None)
    extras = {
        "aborted": any(m.aborted for m in monitors),
        "snapshots": sum(a.snapshots_emitted for a in apps),
    }
    if winner is not None:
        full = Cut(tuple(range(big_n)), tuple(m.G for m in monitors))
        return DetectionReport(
            detector="direct_dep",
            detected=True,
            cut=full.project(wcp.pids),
            full_cut=full,
            detection_time=winner.detected_at,
            sim=sim,
            metrics=kernel.metrics,
            extras=extras,
        )
    return DetectionReport(
        detector="direct_dep", detected=False, sim=sim,
        metrics=kernel.metrics, extras=extras,
    )


def _check_apps(apps: Sequence[ApplicationProcess]) -> None:
    if not apps:
        raise ConfigurationError("need at least one application process")
    pids = sorted(app.pid for app in apps)
    if pids != list(range(len(apps))):
        raise ConfigurationError(f"application pids must be 0..N-1, got {pids}")
