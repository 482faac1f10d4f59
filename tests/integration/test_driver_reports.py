"""Exact reports of the four online token drivers.

Each run's verdict, cut, full cut, detection time and whole ``extras``
dict is pinned, for the §3, §3.5, §4 and §4.5 drivers in four modes:

* ``plain`` — the paper's protocol, fault-free;
* ``hardened`` — the protocol stack with no faults injected;
* ``crash`` — ``crash:mon-1:5`` (a crash-stop) with heartbeat self-heal,
  which ends degraded wherever the crash lands before a verdict: the
  report then names the unobservable pids and the partial cut.  The §3
  reports give one accepted interval per WCP slot; the §4 reports give
  one scalar clock per process, over all N (0 reads as ``None``);
* ``join`` — a live joiner under gossip membership.

The WCP names three of five processes, so the §4 full cut and partial
cut are wider than the WCP.  Every value is a recorded constant, so any
change to what a driver builds, runs or reports shows up here exactly.
"""

import pytest

from repro.detect import run_detector
from repro.detect.stack import FailureDetectorConfig
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.faults import FaultPlan
from repro.trace import random_computation

#: ``(outcome, cut, full_cut, detection_time, extras)`` per run.
REPORTS = {
    "token_vc/plain/rand0": (
        "detected", (9, 5, 13), None, 33.62502664141668,
        {
            "token_hops": 2, "token_visits": 3, "candidates_sent": 12,
            "aborted": False, "hardened": False,
        },
    ),
    "token_vc/plain/rand3": (
        "detected", (1, 4, 2), None, 5.664183450847461,
        {
            "token_hops": 2, "token_visits": 3, "candidates_sent": 15,
            "aborted": False, "hardened": False,
        },
    ),
    "token_vc/plain/rand11": (
        "not_detected", None, None, None,
        {
            "token_hops": 2, "token_visits": 3, "candidates_sent": 15, "aborted": True,
            "hardened": False,
        },
    ),
    "token_vc/hardened/rand0": (
        "detected", (9, 5, 13), None, 33.62502664141668,
        {
            "token_hops": 2, "token_visits": 3, "candidates_sent": 12,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
        },
    ),
    "token_vc/hardened/rand3": (
        "detected", (1, 4, 2), None, 5.664183450847461,
        {
            "token_hops": 2, "token_visits": 3, "candidates_sent": 15,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
        },
    ),
    "token_vc/hardened/rand11": (
        "not_detected", None, None, None,
        {
            "token_hops": 2, "token_visits": 3, "candidates_sent": 15, "aborted": True,
            "hardened": True, "gave_up": False, "halt_incomplete": False,
            "elections": 0, "takeovers": 0,
        },
    ),
    "token_vc/crash/rand0": (
        "degraded", None, None, None,
        {
            "token_hops": 36, "token_visits": 11, "candidates_sent": 162,
            "aborted": False, "hardened": True, "gave_up": True,
            "halt_incomplete": False, "elections": 15, "takeovers": 10,
            "unobservable": [1], "partial_cut": [9, None, None],
        },
    ),
    "token_vc/crash/rand3": (
        "detected", (1, 4, 2), None, 5.664183450847461,
        {
            "token_hops": 2, "token_visits": 3, "candidates_sent": 15,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": True, "elections": 0, "takeovers": 0,
        },
    ),
    "token_vc/crash/rand11": (
        "degraded", None, None, None,
        {
            "token_hops": 35, "token_visits": 10, "candidates_sent": 190,
            "aborted": False, "hardened": True, "gave_up": True,
            "halt_incomplete": False, "elections": 14, "takeovers": 9,
            "unobservable": [1], "partial_cut": [5, None, None],
        },
    ),
    "token_vc/join/rand0": (
        "detected", (9, 5, 13), None, 33.62502664141668,
        {
            "token_hops": 2, "token_visits": 3, "candidates_sent": 12,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0, "joiners": 1,
            "joined": 1, "synced": 1,
        },
    ),
    "token_vc/join/rand3": (
        "detected", (1, 4, 2), None, 5.664183450847461,
        {
            "token_hops": 2, "token_visits": 3, "candidates_sent": 15,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0, "joiners": 1,
            "joined": 1, "synced": 1,
        },
    ),
    "token_vc/join/rand11": (
        "not_detected", None, None, None,
        {
            "token_hops": 2, "token_visits": 3, "candidates_sent": 15, "aborted": True,
            "hardened": True, "gave_up": False, "halt_incomplete": False,
            "elections": 0, "takeovers": 0, "joiners": 1, "joined": 1, "synced": 1,
        },
    ),
    "token_vc_multi/plain/rand0": (
        "detected", (9, 5, 13), None, 34.62502664141668,
        {
            "groups": 2, "rounds": 3, "token_hops": 7, "token_visits": 4,
            "aborted": False, "hardened": False,
        },
    ),
    "token_vc_multi/plain/rand3": (
        "detected", (1, 4, 2), None, 5.664183450847461,
        {
            "groups": 2, "rounds": 2, "token_hops": 5, "token_visits": 3,
            "aborted": False, "hardened": False,
        },
    ),
    "token_vc_multi/plain/rand11": (
        "not_detected", None, None, None,
        {
            "groups": 2, "rounds": 1, "token_hops": 5, "token_visits": 4,
            "aborted": True, "hardened": False,
        },
    ),
    "token_vc_multi/hardened/rand0": (
        "detected", (9, 5, 13), None, 34.62502664141668,
        {
            "groups": 2, "rounds": 3, "token_hops": 7, "token_visits": 4,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
        },
    ),
    "token_vc_multi/hardened/rand3": (
        "detected", (1, 4, 2), None, 5.664183450847461,
        {
            "groups": 2, "rounds": 2, "token_hops": 5, "token_visits": 3,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
        },
    ),
    "token_vc_multi/hardened/rand11": (
        "not_detected", None, None, None,
        {
            "groups": 2, "rounds": 1, "token_hops": 5, "token_visits": 4,
            "aborted": True, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
        },
    ),
    "token_vc_multi/crash/rand0": (
        "degraded", None, None, None,
        {
            "groups": 2, "rounds": 24, "token_hops": 68, "token_visits": 3,
            "aborted": False, "hardened": True, "gave_up": True,
            "halt_incomplete": False, "elections": 34, "takeovers": 23,
            "unobservable": [1], "partial_cut": [9, None, 13],
        },
    ),
    "token_vc_multi/crash/rand3": (
        "detected", (1, 4, 2), None, 5.664183450847461,
        {
            "groups": 2, "rounds": 2, "token_hops": 5, "token_visits": 3,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": True, "elections": 0, "takeovers": 0,
        },
    ),
    "token_vc_multi/crash/rand11": (
        "degraded", None, None, None,
        {
            "groups": 2, "rounds": 24, "token_hops": 58, "token_visits": 2,
            "aborted": False, "hardened": True, "gave_up": True,
            "halt_incomplete": False, "elections": 34, "takeovers": 23,
            "unobservable": [1], "partial_cut": [5, None, 3],
        },
    ),
    "token_vc_multi/join/rand0": (
        "detected", (9, 5, 13), None, 34.62502664141668,
        {
            "groups": 2, "rounds": 3, "token_hops": 7, "token_visits": 4,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0, "joiners": 1,
            "joined": 1, "synced": 1,
        },
    ),
    "token_vc_multi/join/rand3": (
        "detected", (1, 4, 2), None, 5.664183450847461,
        {
            "groups": 2, "rounds": 2, "token_hops": 5, "token_visits": 3,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0, "joiners": 1,
            "joined": 1, "synced": 1,
        },
    ),
    "token_vc_multi/join/rand11": (
        "not_detected", None, None, None,
        {
            "groups": 2, "rounds": 1, "token_hops": 5, "token_visits": 4,
            "aborted": True, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0, "joiners": 1,
            "joined": 1, "synced": 1,
        },
    ),
    "direct_dep/plain/rand0": (
        "detected", (9, 5, 13), (9, 5, 9, 13, 4), 58.18933296822567,
        {
            "token_hops": 6, "polls": 11, "token_visits": 7, "aborted": False,
            "hardened": False,
        },
    ),
    "direct_dep/plain/rand3": (
        "detected", (1, 4, 2), (1, 4, 1, 2, 1), 9.66418345084746,
        {
            "token_hops": 4, "polls": 1, "token_visits": 5, "aborted": False,
            "hardened": False,
        },
    ),
    "direct_dep/plain/rand11": (
        "not_detected", None, None, None,
        {
            "token_hops": 2, "polls": 11, "token_visits": 3, "aborted": True,
            "hardened": False,
        },
    ),
    "direct_dep/hardened/rand0": (
        "detected", (9, 5, 13), (9, 5, 9, 13, 4), 58.18933296822567,
        {
            "token_hops": 6, "polls": 11, "token_visits": 7, "aborted": False,
            "hardened": True, "gave_up": False, "halt_incomplete": False,
            "elections": 0, "takeovers": 0,
        },
    ),
    "direct_dep/hardened/rand3": (
        "detected", (1, 4, 2), (1, 4, 1, 2, 1), 9.66418345084746,
        {
            "token_hops": 4, "polls": 1, "token_visits": 5, "aborted": False,
            "hardened": True, "gave_up": False, "halt_incomplete": False,
            "elections": 0, "takeovers": 0,
        },
    ),
    "direct_dep/hardened/rand11": (
        "not_detected", None, None, None,
        {
            "token_hops": 2, "polls": 11, "token_visits": 3, "aborted": True,
            "hardened": True, "gave_up": False, "halt_incomplete": False,
            "elections": 0, "takeovers": 0,
        },
    ),
    "direct_dep/crash/rand0": (
        "degraded", None, None, None,
        {
            "token_hops": 26, "polls": 2, "token_visits": 1, "aborted": False,
            "hardened": True, "gave_up": True, "halt_incomplete": False,
            "elections": 0, "takeovers": 0, "unobservable": [1],
            "partial_cut": [9, None, None, 9, None],
        },
    ),
    "direct_dep/crash/rand3": (
        "degraded", None, None, None,
        {
            "token_hops": 1, "polls": 1, "token_visits": 2, "aborted": False,
            "hardened": True, "gave_up": True, "halt_incomplete": False,
            "elections": 0, "takeovers": 0, "unobservable": [1],
            "partial_cut": [1, 4, None, 1, None],
        },
    ),
    "direct_dep/crash/rand11": (
        "degraded", None, None, None,
        {
            "token_hops": 0, "polls": 27, "token_visits": 1, "aborted": False,
            "hardened": True, "gave_up": True, "halt_incomplete": False,
            "elections": 0, "takeovers": 0, "unobservable": [1],
            "partial_cut": [5, None, None, None, 1],
        },
    ),
    "direct_dep/join/rand0": (
        "detected", (9, 5, 13), (9, 5, 9, 13, 4), 58.18933296822567,
        {
            "token_hops": 6, "polls": 11, "token_visits": 7, "aborted": False,
            "hardened": True, "gave_up": False, "halt_incomplete": False,
            "elections": 0, "takeovers": 0, "joiners": 1, "joined": 1, "synced": 1,
        },
    ),
    "direct_dep/join/rand3": (
        "detected", (1, 4, 2), (1, 4, 1, 2, 1), 9.66418345084746,
        {
            "token_hops": 4, "polls": 1, "token_visits": 5, "aborted": False,
            "hardened": True, "gave_up": False, "halt_incomplete": False,
            "elections": 0, "takeovers": 0, "joiners": 1, "joined": 1, "synced": 1,
        },
    ),
    "direct_dep/join/rand11": (
        "not_detected", None, None, None,
        {
            "token_hops": 2, "polls": 11, "token_visits": 3, "aborted": True,
            "hardened": True, "gave_up": False, "halt_incomplete": False,
            "elections": 0, "takeovers": 0, "joiners": 1, "joined": 1, "synced": 1,
        },
    ),
    "direct_dep_parallel/plain/rand0": (
        "detected", (9, 5, 13), (9, 5, 9, 13, 4), 40.62502664141668,
        {
            "token_hops": 4, "polls": 11, "token_visits": 5, "proactive_searches": 11,
            "aborted": False, "hardened": False,
        },
    ),
    "direct_dep_parallel/plain/rand3": (
        "detected", (1, 4, 2), (1, 4, 1, 2, 1), 9.66418345084746,
        {
            "token_hops": 4, "polls": 1, "token_visits": 5, "proactive_searches": 5,
            "aborted": False, "hardened": False,
        },
    ),
    "direct_dep_parallel/plain/rand11": (
        "not_detected", None, None, None,
        {
            "token_hops": 1, "polls": 16, "token_visits": 1, "proactive_searches": 12,
            "aborted": True, "hardened": False,
        },
    ),
    "direct_dep_parallel/hardened/rand0": (
        "detected", (9, 5, 13), (9, 5, 9, 13, 4), 58.18933296822567,
        {
            "token_hops": 6, "polls": 11, "token_visits": 7, "proactive_searches": 0,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
        },
    ),
    "direct_dep_parallel/hardened/rand3": (
        "detected", (1, 4, 2), (1, 4, 1, 2, 1), 9.66418345084746,
        {
            "token_hops": 4, "polls": 1, "token_visits": 5, "proactive_searches": 0,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
        },
    ),
    "direct_dep_parallel/hardened/rand11": (
        "not_detected", None, None, None,
        {
            "token_hops": 2, "polls": 11, "token_visits": 3, "proactive_searches": 0,
            "aborted": True, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
        },
    ),
    "direct_dep_parallel/crash/rand0": (
        "degraded", None, None, None,
        {
            "token_hops": 26, "polls": 2, "token_visits": 1, "proactive_searches": 0,
            "aborted": False, "hardened": True, "gave_up": True,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
            "unobservable": [1], "partial_cut": [9, None, None, 9, None],
        },
    ),
    "direct_dep_parallel/crash/rand3": (
        "degraded", None, None, None,
        {
            "token_hops": 1, "polls": 1, "token_visits": 2, "proactive_searches": 0,
            "aborted": False, "hardened": True, "gave_up": True,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
            "unobservable": [1], "partial_cut": [1, 4, None, 1, None],
        },
    ),
    "direct_dep_parallel/crash/rand11": (
        "degraded", None, None, None,
        {
            "token_hops": 0, "polls": 27, "token_visits": 1, "proactive_searches": 0,
            "aborted": False, "hardened": True, "gave_up": True,
            "halt_incomplete": False, "elections": 0, "takeovers": 0,
            "unobservable": [1], "partial_cut": [5, None, None, None, 1],
        },
    ),
    "direct_dep_parallel/join/rand0": (
        "detected", (9, 5, 13), (9, 5, 9, 13, 4), 58.18933296822567,
        {
            "token_hops": 6, "polls": 11, "token_visits": 7, "proactive_searches": 0,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0, "joiners": 1,
            "joined": 1, "synced": 1,
        },
    ),
    "direct_dep_parallel/join/rand3": (
        "detected", (1, 4, 2), (1, 4, 1, 2, 1), 9.66418345084746,
        {
            "token_hops": 4, "polls": 1, "token_visits": 5, "proactive_searches": 0,
            "aborted": False, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0, "joiners": 1,
            "joined": 1, "synced": 1,
        },
    ),
    "direct_dep_parallel/join/rand11": (
        "not_detected", None, None, None,
        {
            "token_hops": 2, "polls": 11, "token_visits": 3, "proactive_searches": 0,
            "aborted": True, "hardened": True, "gave_up": False,
            "halt_incomplete": False, "elections": 0, "takeovers": 0, "joiners": 1,
            "joined": 1, "synced": 1,
        },
    ),
}

MODES = {
    "plain": {},
    "hardened": {"hardened": True},
    "crash": {
        "faults": "crash:mon-1:5",
        "failure_detector": FailureDetectorConfig(),
    },
    "join": {
        "faults": "join:mon-9:5",
        "failure_detector": FailureDetectorConfig(membership="gossip"),
    },
}


def _run(run_id):
    driver, mode, name = run_id.split("/")
    seed = int(name.removeprefix("rand"))
    comp = random_computation(
        5, 6, seed=seed, predicate_density=0.3,
        plant_final_cut=seed % 2 == 0,
    )
    options = dict(MODES[mode])
    if "faults" in options:
        options["faults"] = FaultPlan.parse(options["faults"])
    return run_detector(
        driver, comp, WeakConjunctivePredicate.of_flags((0, 1, 3)),
        seed=seed, **options,
    )


@pytest.mark.parametrize("run_id", sorted(REPORTS))
def test_driver_report_pinned(run_id):
    rep = _run(run_id)
    got = (
        rep.outcome,
        None if rep.cut is None else tuple(rep.cut.intervals),
        None if rep.full_cut is None else tuple(rep.full_cut.intervals),
        rep.detection_time,
        rep.extras,
    )
    assert got == REPORTS[run_id]
