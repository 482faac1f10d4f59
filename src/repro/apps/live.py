"""Wiring live applications to online detectors in one simulation.

This is the paper's Fig. 1 deployed end to end: application processes
(:mod:`repro.apps.base`) exchange application messages and stream local
snapshots while monitor processes run a detection protocol concurrently
— nothing is precomputed from a trace.

``run_live_token_vc`` attaches §3 monitors (one per predicate process);
``run_live_direct_dep`` attaches §4 monitors (one per process — pass
application processes for *all* pids, built in dd mode).
:func:`~repro.apps.base.wiring` wires either.  Both share one launch,
:func:`_run_live`; a runner keeps its monitors, its first token and how
it reads the verdict.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.common.errors import ConfigurationError
from repro.detect.base import DetectionReport, monitor_name
from repro.detect.direct_dep import TOKEN_BITS, build_monitors
from repro.detect.stack import TokenInjector
from repro.detect.token_vc import TokenVCMonitor, VCToken
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.kernel import Kernel
from repro.simulation.network import ChannelModel
from repro.trace.cuts import Cut

from repro.apps.base import ApplicationProcess, app_names

__all__ = ["app_names", "run_live_token_vc", "run_live_direct_dep"]

#: The snapshot mode each live detector's monitors consume.
_MODES = {"token_vc": "vc", "direct_dep": "dd"}


def run_live_token_vc(
    apps: Sequence[ApplicationProcess],
    wcp: WeakConjunctivePredicate,
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
) -> DetectionReport:
    """Run live applications with the §3 detector attached online."""
    pids = wcp.pids
    names = [monitor_name(pid) for pid in pids]
    token = VCToken.initial(wcp.n)
    return _run_live(
        "token_vc", apps, wcp,
        [TokenVCMonitor(pid, slot, names) for slot, pid in enumerate(pids)],
        token, token.size_bits(),
        lambda winner: (Cut(pids, winner.detected_cut), None),
        seed=seed, channel_model=channel_model,
    )


def run_live_direct_dep(
    apps: Sequence[ApplicationProcess],
    wcp: WeakConjunctivePredicate,
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
) -> DetectionReport:
    """Run live applications with the §4 detector attached online.

    ``apps`` must cover every process, built in ``dd`` mode.  The
    detected full cut is projected onto the WCP's pids for the report.
    """
    monitors = build_monitors(len(apps))

    def cuts(_winner: Any) -> tuple[Cut, Cut]:
        full = Cut(tuple(range(len(monitors))), tuple(m.G for m in monitors))
        return full.project(wcp.pids), full

    return _run_live(
        "direct_dep", apps, wcp, monitors, None, TOKEN_BITS, cuts,
        seed=seed, channel_model=channel_model,
    )


def _run_live(
    detector: str,
    apps: Sequence[ApplicationProcess],
    wcp: WeakConjunctivePredicate,
    monitors: Sequence[Any],
    token: object,
    token_bits: int,
    cuts: Callable[[Any], tuple[Cut, Cut | None]],
    *,
    seed: int,
    channel_model: ChannelModel | None,
) -> DetectionReport:
    """One live run: check ``apps`` (dense pids, the detector's mode)
    and ``wcp``, register the monitors, the applications and the first
    token's injector (this order fixes the schedule), run, and report
    ``cuts(winner)`` — the cut and full cut — if a monitor detected."""
    if not apps:
        raise ConfigurationError("need at least one application process")
    pids = sorted(app.pid for app in apps)
    if pids != list(range(len(apps))):
        raise ConfigurationError(f"application pids must be 0..N-1, got {pids}")
    mode = _MODES[detector]
    wrong = [f"{app.name} ({app.mode})" for app in apps if app.mode != mode]
    if wrong:
        raise ConfigurationError(
            f"run_live_{detector} needs applications built in mode "
            f"{mode!r}; got {', '.join(wrong)}"
        )
    wcp.check_against(len(apps))
    kernel = Kernel(channel_model=channel_model, seed=seed)
    for actor in (
        *monitors, *apps, TokenInjector(monitors[0].name, token, token_bits)
    ):
        kernel.add_actor(actor)
    sim = kernel.run()
    extras = {
        "aborted": any(m.aborted for m in monitors),
        "snapshots": sum(a.snapshots_emitted for a in apps),
    }
    winner = next((m for m in monitors if m.detected), None)
    if winner is None:
        return DetectionReport(
            detector=detector, detected=False, sim=sim,
            metrics=kernel.metrics, extras=extras,
        )
    cut, full_cut = cuts(winner)
    return DetectionReport(
        detector=detector, detected=True, cut=cut, full_cut=full_cut,
        detection_time=winner.detected_at, sim=sim, metrics=kernel.metrics,
        extras=extras,
    )
