"""Exact units of every live application system under both detectors.

The sweep baselines replay traces; ``test_fig4_units`` pins four dd-mode
mutual-exclusion runs.  These tables pin the whole Fig. 1 application
plane: the mutual-exclusion, two-phase-locking, worker-ring and election
systems, each with its bug injected and without it (the ring under a
full and a two-process WCP), each built in vc mode and run under the
live §3 detector and built in dd mode and run under the live §4
detector, over the default fixed latency (seed 0) and exponential
latency (seeds 0 and 1).  Every value is a counted quantity or a
simulated time, so any change to how a system is wired to its monitors,
how the live run is launched or how its verdict is read shows up here
exactly.
"""

import pytest

from repro.apps import (
    build_election_system,
    build_locking_system,
    build_mutex_system,
    build_ring_system,
    mutex_wcp,
    quiescence_wcp,
    read_write_conflict_wcp,
    run_live_direct_dep,
    run_live_token_vc,
    split_brain_wcp,
)
from repro.detect.runner import paper_units
from repro.predicates import WeakConjunctivePredicate, var_true
from repro.simulation.network import ExponentialLatency

#: The transaction scripts of ``tests/apps/test_twophase.py``.
SCRIPTS = {
    1: [[("read", "x")], [("read", "y")]],
    2: [[("write", "x")]],
    3: [[("read", "y")]],
}

#: Two of the ring's four workers idle: processes 2 and 3 carry no clause.
IDLE01 = WeakConjunctivePredicate({0: var_true("idle"), 1: var_true("idle")})

#: ``name -> (build(mode), wcp)``.
SYSTEMS = {
    "mutex-bug": (
        lambda mode: build_mutex_system(
            3, rounds=2, bug_every=1, wcp=mutex_wcp(1, 2), mode=mode
        ),
        mutex_wcp(1, 2),
    ),
    "mutex-ok": (
        lambda mode: build_mutex_system(
            3, rounds=2, bug_every=0, wcp=mutex_wcp(1, 2), mode=mode
        ),
        mutex_wcp(1, 2),
    ),
    "locks-bug": (
        lambda mode: build_locking_system(
            SCRIPTS, read_write_conflict_wcp(1, 2), True, mode=mode
        ),
        read_write_conflict_wcp(1, 2),
    ),
    "locks-ok": (
        lambda mode: build_locking_system(
            SCRIPTS, read_write_conflict_wcp(1, 2), False, mode=mode
        ),
        read_write_conflict_wcp(1, 2),
    ),
    "ring-all": (
        lambda mode: build_ring_system(4, [2, 3], quiescence_wcp(4), mode=mode),
        quiescence_wcp(4),
    ),
    "ring-idle01": (
        lambda mode: build_ring_system(4, [2, 3], IDLE01, mode=mode),
        IDLE01,
    ),
    "election-bug": (
        lambda mode: build_election_system(4, 1.0, split_brain_wcp(2, 3), mode),
        split_brain_wcp(2, 3),
    ),
    "election-ok": (
        lambda mode: build_election_system(4, 5.0, split_brain_wcp(2, 3), mode),
        split_brain_wcp(2, 3),
    ),
}

#: Each mode's live runner.
RUNNERS = {"vc": run_live_token_vc, "dd": run_live_direct_dep}

#: ``channel/seed`` settings: the default model, and exponential latency.
CHANNELS = {
    "fixed/0": (lambda: None, 0),
    "exp/0": (lambda: ExponentialLatency(1.0), 0),
    "exp/1": (lambda: ExponentialLatency(1.0), 1),
}

#: The ``paper_units`` fields of a live report, in row order: the
#: board's counts and the two live extras.
UNIT_KEYS = (
    "mon_msgs", "mon_bits", "total_work", "max_work", "max_space_bits",
    "token_hops", "aborted", "snapshots",
)

#: ``(outcome, cut, full_cut, detection_time, units, sim_steps,
#: sim_time)`` per ``system/mode/channel/seed``, ``units`` being the
#: ``paper_units`` values over ``UNIT_KEYS``.
UNITS = {
    "mutex-bug/vc/fixed/0": (
        "detected", (3, 3), None, 4.0, (2, 129, 8, 4, 192, 2, 0, 4), 40, 9.0,
    ),
    "mutex-bug/vc/exp/0": (
        "detected", (3, 3), None, 1.554215375906605, (2, 129, 8, 4, 192, 2, 0,
        4), 40, 11.584269638281828,
    ),
    "mutex-bug/vc/exp/1": (
        "detected", (3, 3), None, 3.7707720134413734, (2, 129, 8, 4, 256, 2, 0,
        4), 40, 13.014819535675498,
    ),
    "mutex-bug/dd/fixed/0": (
        "detected", (3, 3), (5, 3, 3, 1), 15.0, (16, 268, 16, 9, 1281, 6, 0,
        30), 84, 16.0,
    ),
    "mutex-bug/dd/exp/0": (
        "detected", (3, 3), (7, 3, 3, 2), 16.873026534324524, (18, 333, 21, 12,
        1153, 6, 0, 30), 86, 17.41542009741517,
    ),
    "mutex-bug/dd/exp/1": (
        "detected", (3, 3), (7, 3, 3, 2), 20.234316231177797, (18, 333, 21, 12,
        962, 6, 0, 30), 86, 23.58820613201683,
    ),
    "mutex-ok/vc/fixed/0": (
        "not_detected", None, None, None, (5, 513, 16, 8, 129, 5, 1, 4), 43,
        25.0,
    ),
    "mutex-ok/vc/exp/0": (
        "not_detected", None, None, None, (5, 513, 16, 8, 192, 5, 1, 4), 43,
        24.98526689870459,
    ),
    "mutex-ok/vc/exp/1": (
        "not_detected", None, None, None, (5, 513, 16, 8, 129, 5, 1, 4), 43,
        23.414913028105172,
    ),
    "mutex-ok/dd/fixed/0": (
        "not_detected", None, None, None, (40, 922, 48, 30, 801, 10, 1, 30),
        108, 40.0,
    ),
    "mutex-ok/dd/exp/0": (
        "not_detected", None, None, None, (42, 987, 52, 33, 801, 10, 1, 30),
        110, 38.602414658673574,
    ),
    "mutex-ok/dd/exp/1": (
        "not_detected", None, None, None, (42, 987, 52, 33, 737, 10, 1, 30),
        110, 46.78857002051954,
    ),
    "locks-bug/vc/fixed/0": (
        "detected", (3, 3), None, 4.0, (2, 129, 8, 4, 192, 2, 0, 2), 30, 9.0,
    ),
    "locks-bug/vc/exp/0": (
        "detected", (3, 3), None, 1.554215375906605, (2, 129, 8, 4, 192, 2, 0,
        2), 30, 12.955875710010746,
    ),
    "locks-bug/vc/exp/1": (
        "detected", (3, 3), None, 3.7707720134413734, (2, 129, 8, 4, 193, 2, 0,
        2), 30, 7.301694594543869,
    ),
    "locks-bug/dd/fixed/0": (
        "detected", (3, 3), (5, 3, 3, 1), 15.0, (16, 268, 16, 9, 833, 6, 0,
        19), 65, 16.0,
    ),
    "locks-bug/dd/exp/0": (
        "detected", (3, 3), (7, 3, 3, 2), 21.097353222603505, (18, 333, 21, 12,
        705, 6, 0, 19), 67, 23.474082603744666,
    ),
    "locks-bug/dd/exp/1": (
        "detected", (3, 3), (7, 3, 3, 2), 16.430985971051264, (18, 333, 21, 12,
        832, 6, 0, 19), 67, 19.1893666836153,
    ),
    "locks-ok/vc/fixed/0": (
        "not_detected", None, None, None, (3, 257, 8, 4, 128, 3, 1, 2), 31,
        10.0,
    ),
    "locks-ok/vc/exp/0": (
        "not_detected", None, None, None, (3, 257, 8, 4, 192, 3, 1, 2), 31,
        11.778399494740032,
    ),
    "locks-ok/vc/exp/1": (
        "not_detected", None, None, None, (3, 257, 8, 4, 128, 3, 1, 2), 31,
        8.457165858619964,
    ),
    "locks-ok/dd/fixed/0": (
        "not_detected", None, None, None, (20, 398, 22, 14, 833, 6, 1, 19), 69,
        20.0,
    ),
    "locks-ok/dd/exp/0": (
        "not_detected", None, None, None, (20, 398, 22, 14, 705, 6, 1, 19), 69,
        25.341845904141085,
    ),
    "locks-ok/dd/exp/1": (
        "not_detected", None, None, None, (20, 398, 22, 14, 832, 6, 1, 19), 69,
        21.68379315230844,
    ),
    "ring-all/vc/fixed/0": (
        "detected", (4, 1, 1, 1), None, 4.0, (6, 771, 32, 8, 1025, 4, 0, 27),
        65, 13.0,
    ),
    "ring-all/vc/exp/0": (
        "detected", (4, 1, 1, 1), None, 4.6586989456747325, (6, 771, 32, 8,
        1025, 4, 0, 27), 65, 15.98003088322092,
    ),
    "ring-all/vc/exp/1": (
        "detected", (4, 1, 1, 1), None, 2.0840872599872675, (6, 771, 32, 8,
        1025, 4, 0, 27), 65, 11.967403025235026,
    ),
    "ring-all/dd/fixed/0": (
        "detected", (4, 1, 1, 1), (4, 1, 1, 1), 4.0, (6, 6, 4, 1, 513, 4, 0,
        27), 65, 13.0,
    ),
    "ring-all/dd/exp/0": (
        "detected", (4, 1, 1, 1), (4, 1, 1, 1), 4.6586989456747325, (6, 6, 4,
        1, 513, 4, 0, 27), 65, 15.98003088322092,
    ),
    "ring-all/dd/exp/1": (
        "detected", (4, 1, 1, 1), (4, 1, 1, 1), 2.0840872599872675, (6, 6, 4,
        1, 513, 4, 0, 27), 65, 11.967403025235026,
    ),
    "ring-idle01/vc/fixed/0": (
        "detected", (4, 1), None, 2.0, (2, 129, 8, 4, 513, 2, 0, 13), 43, 13.0,
    ),
    "ring-idle01/vc/exp/0": (
        "detected", (4, 1), None, 1.5612590268695887, (2, 129, 8, 4, 513, 2, 0,
        13), 43, 11.362689836216548,
    ),
    "ring-idle01/vc/exp/1": (
        "detected", (4, 1), None, 2.996602290913223, (2, 129, 8, 4, 513, 2, 0,
        13), 43, 8.974496847290908,
    ),
    # §4.1 wires workers 2 and 3 too (constant-true), so the §4 runs
    # find the cut the §3 runs find, with the full cut around it.
    "ring-idle01/dd/fixed/0": (
        "detected", (4, 1), (4, 1, 1, 1), 4.0, (6, 6, 4, 1, 513, 4, 0, 27), 65,
        13.0,
    ),
    "ring-idle01/dd/exp/0": (
        "detected", (4, 1), (4, 1, 1, 1), 4.6586989456747325, (6, 6, 4, 1, 513,
        4, 0, 27), 65, 15.98003088322092,
    ),
    "ring-idle01/dd/exp/1": (
        "detected", (4, 1), (4, 1, 1, 1), 2.0840872599872675, (6, 6, 4, 1, 513,
        4, 0, 27), 65, 11.967403025235026,
    ),
    "election-bug/vc/fixed/0": (
        "detected", (6, 3), None, 4.0, (2, 129, 8, 4, 385, 2, 0, 9), 46, 5.0,
    ),
    "election-bug/vc/exp/0": (
        "detected", (6, 3), None, 3.885194791927944, (2, 129, 8, 4, 385, 2, 0,
        9), 41, 5.774086172869653,
    ),
    "election-bug/vc/exp/1": (
        "not_detected", None, None, None, (1, 1, 0, 0, 258, 1, 1, 4), 35,
        4.3356820276064685,
    ),
    "election-bug/dd/fixed/0": (
        "detected", (6, 3), (4, 4, 6, 3), 15.0, (17, 269, 18, 7, 641, 7, 0,
        29), 85, 16.0,
    ),
    "election-bug/dd/exp/0": (
        "detected", (6, 3), (4, 4, 6, 3), 18.703079159184913, (17, 269, 18, 7,
        641, 7, 0, 24), 75, 19.226117294896966,
    ),
    "election-bug/dd/exp/1": (
        "not_detected", None, None, None, (5, 5, 2, 1, 386, 3, 1, 15), 45,
        4.767179235656805,
    ),
    "election-ok/vc/fixed/0": (
        "not_detected", None, None, None, (1, 1, 0, 0, 258, 1, 1, 4), 32, 6.0,
    ),
    "election-ok/vc/exp/0": (
        "not_detected", None, None, None, (1, 1, 0, 0, 258, 1, 1, 4), 32,
        5.774086172869653,
    ),
    "election-ok/vc/exp/1": (
        "not_detected", None, None, None, (1, 1, 0, 0, 258, 1, 1, 4), 32,
        5.07268865236561,
    ),
    "election-ok/dd/fixed/0": (
        "not_detected", None, None, None, (5, 5, 2, 1, 482, 3, 1, 18), 54, 6.0,
    ),
    "election-ok/dd/exp/0": (
        "not_detected", None, None, None, (5, 5, 2, 1, 481, 3, 1, 18), 54,
        6.957995035844337,
    ),
    "election-ok/dd/exp/1": (
        "not_detected", None, None, None, (5, 5, 2, 1, 289, 3, 1, 12), 39, 5.0,
    ),
}


def _intervals(cut):
    return None if cut is None else tuple(cut.intervals)


def _run(run_id):
    system, mode, channel = run_id.split("/", 2)
    build, wcp = SYSTEMS[system]
    channel_model, seed = CHANNELS[channel]
    return RUNNERS[mode](
        build(mode), wcp, seed=seed, channel_model=channel_model()
    )


def _row(rep):
    units = paper_units(rep)
    assert set(units) == {"outcome", *UNIT_KEYS}
    return (
        rep.outcome,
        _intervals(rep.cut),
        _intervals(rep.full_cut),
        rep.detection_time,
        tuple(units[key] for key in UNIT_KEYS),
        rep.sim.steps,
        rep.sim.time,
    )


@pytest.mark.parametrize("run_id", sorted(UNITS))
def test_live_units_pinned(run_id):
    assert _row(_run(run_id)) == UNITS[run_id]


def test_corpus_is_complete():
    assert sorted(UNITS) == sorted(
        f"{system}/{mode}/{channel}"
        for system in SYSTEMS
        for mode in RUNNERS
        for channel in CHANNELS
    )
