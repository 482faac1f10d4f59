"""Fig. 1's wiring: which processes snapshot, and to which monitor."""

import pytest

from repro.apps import ApplicationProcess, app_names, wiring
from repro.common import ConfigurationError
from repro.predicates import WeakConjunctivePredicate, var_true

WCP = WeakConjunctivePredicate({1: var_true("cs"), 3: var_true("cs")})


class TestVectorClockMode:
    def test_wcp_process_snapshots_projected_onto_its_pids(self):
        assert wiring(WCP, 3, "vc") == {
            "predicate": WCP.clause(3),
            "monitor": "mon-3",
            "snapshot_pids": (1, 3),
            "mode": "vc",
        }

    def test_other_process_runs_unmonitored(self):
        assert wiring(WCP, 0, "vc") == {"mode": "vc"}


class TestDirectDependenceMode:
    def test_wcp_process_snapshots_its_clause(self):
        assert wiring(WCP, 1, "dd") == {
            "predicate": WCP.clause(1),
            "monitor": "mon-1",
            "snapshot_pids": (1, 3),
            "mode": "dd",
        }

    @pytest.mark.parametrize("pid", [0, 2, 4])
    def test_every_other_process_snapshots_constant_true(self, pid):
        wired = wiring(WCP, pid, "dd")
        assert sorted(wired) == ["mode", "monitor", "predicate", "snapshot_pids"]
        assert wired["monitor"] == f"mon-{pid}"
        assert wired["predicate"].name == "true"
        assert wired["predicate"]({})


@pytest.mark.parametrize("pid", [0, 1])
def test_bad_mode_reaches_the_process_check(pid):
    """Named or not, a process passes an unknown mode on to
    ``ApplicationProcess``, which rejects it."""
    with pytest.raises(ConfigurationError, match="mode must be"):
        ApplicationProcess(pid, app_names(2), **wiring(WCP, pid, "lamport"))
