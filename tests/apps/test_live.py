"""The one live launch behind ``run_live_token_vc`` / ``run_live_direct_dep``."""

import pytest

from repro.apps import (
    build_mutex_system,
    build_ring_system,
    mutex_wcp,
    run_live_direct_dep,
    run_live_token_vc,
)
from repro.common import ConfigurationError
from repro.predicates import WeakConjunctivePredicate, var_true

RUNNERS = {"vc": run_live_token_vc, "dd": run_live_direct_dep}


class TestPartialWcpRing:
    def test_dd_run_detects_the_vc_cut(self):
        """Workers 2 and 3 carry no clause.  §4 must still hear from
        them — the red chain runs through every monitor — so a dd run
        that left them unwired deadlocked with ``mon-2`` awaiting a
        candidate."""
        wcp = WeakConjunctivePredicate({0: var_true("idle"), 1: var_true("idle")})
        vc = run_live_token_vc(build_ring_system(4, [2, 3], wcp, mode="vc"), wcp)
        dd = run_live_direct_dep(build_ring_system(4, [2, 3], wcp, mode="dd"), wcp)
        assert vc.detected and dd.detected
        assert dd.cut == vc.cut
        assert (dd.cut.pids, dd.cut.intervals) == ((0, 1), (4, 1))
        assert not dd.sim.deadlocked
        assert dd.sim.blocked == {}


class TestLaunchChecks:
    @pytest.mark.parametrize("mode", sorted(RUNNERS))
    def test_wcp_beyond_the_system_rejected_before_the_run(self, mode):
        """A clause on P7 of a 3-process system crashed the §3 run
        mid-way (``IndexError`` projecting ``app-1``'s clock)."""
        wcp = WeakConjunctivePredicate({1: var_true("cs"), 7: var_true("cs")})
        apps = build_mutex_system(2, rounds=1, bug_every=0, wcp=wcp, mode=mode)
        with pytest.raises(
            ConfigurationError,
            match=r"WCP names processes \[7\] but the computation has only 3",
        ):
            RUNNERS[mode](apps, wcp)
        assert all(app.metrics is None for app in apps)

    @pytest.mark.parametrize("mode", sorted(RUNNERS))
    def test_pids_must_be_dense(self, mode):
        wcp = WeakConjunctivePredicate({1: var_true("cs"), 2: var_true("cs")})
        apps = build_mutex_system(2, rounds=1, bug_every=0, wcp=wcp, mode=mode)
        with pytest.raises(ConfigurationError, match=r"0\.\.N-1, got \[1, 2\]"):
            RUNNERS[mode](apps[1:], wcp)

    @pytest.mark.parametrize("mode", sorted(RUNNERS))
    def test_needs_an_application(self, mode):
        wcp = WeakConjunctivePredicate({0: var_true("cs")})
        with pytest.raises(ConfigurationError, match="at least one"):
            RUNNERS[mode]([], wcp)

    def test_vc_apps_rejected_by_the_dd_runner(self):
        """§4 monitors wait for dd snapshots that vc apps never send: the
        run deadlocked (``mon-0`` awaiting a candidate) and reported
        ``not_detected`` although the double grant happened."""
        wcp = mutex_wcp(1, 2)
        apps = build_mutex_system(3, rounds=2, bug_every=1, wcp=wcp, mode="vc")
        with pytest.raises(
            ConfigurationError,
            match=r"run_live_direct_dep needs applications built in mode "
                  r"'dd'; got app-0 \(vc\), app-1 \(vc\)",
        ):
            run_live_direct_dep(apps, wcp)
        assert all(app.metrics is None for app in apps)

    def test_dd_apps_rejected_by_the_vc_runner(self):
        """dd apps snapshot to every pid's monitor, but §3 runs monitors
        for the WCP's pids only: the run crashed mid-way (``app-0 sends
        to unknown actor 'mon-0'``)."""
        wcp = mutex_wcp(1, 2)
        apps = build_mutex_system(3, rounds=2, bug_every=1, wcp=wcp, mode="dd")
        with pytest.raises(
            ConfigurationError,
            match=r"run_live_token_vc needs applications built in mode "
                  r"'vc'; got app-0 \(dd\), app-1 \(dd\)",
        ):
            run_live_token_vc(apps, wcp)
        assert all(app.metrics is None for app in apps)
