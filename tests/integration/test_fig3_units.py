"""Exact paper units of every Fig. 3 host that no sweep baseline pins.

The committed baselines replay plain ``token_vc`` under cyclic routing,
hardened ``token_vc`` and the service at its default routing.  These
tables pin the remaining hosts of the §3 visit: plain ``token_vc`` under
``first`` and ``most_stale`` routing, plain ``token_vc_multi`` at two
and three groups, hardened ``token_vc_multi`` under loss, duplication
and a crash-restart, and the multiplexed service under ``most_stale``
routing, fault-free and under the same faults.  Every value is a counted
quantity, so any change to how a visit consumes candidates, repaints,
routes or charges work shows up here exactly.
"""

import pytest

from repro.detect import run_detector
from repro.detect.runner import paper_units, run_service
from repro.detect.service.dispatcher import service_units
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.faults import FaultPlan
from repro.trace import random_computation, spiral_computation

#: Loss, duplication and one monitor down from t=4 to t=9.
FAULTS = "drop:token:0.15,dup:*:0.05,crash:mon-1:4:9"

#: ``(outcome, cut, mon_msgs, mon_bits, total_work, max_work,
#: token_hops, token_visits)`` per run.
DETECTOR_UNITS = {
    "token_vc/first/rand0": (
        "detected", (9, 5, 9, 13, 4), 8, 1284, 64, 14, 5, 5,
    ),
    "token_vc/first/rand1": (
        "not_detected", None, 8, 1284, 40, 10, 5, 5,
    ),
    "token_vc/first/rand2": (
        "detected", (8, 15, 15, 10, 8), 9, 1604, 81, 21, 6, 6,
    ),
    "token_vc/first/rand3": (
        "not_detected", None, 6, 644, 20, 10, 3, 3,
    ),
    "token_vc/first/spiral8x4": (
        "detected", (9, 9, 9, 9, 9, 9, 9, 9), 22, 7687, 280, 80, 16, 16,
    ),
    "token_vc/most_stale/rand0": (
        "detected", (9, 5, 9, 13, 4), 8, 1284, 64, 14, 5, 5,
    ),
    "token_vc/most_stale/rand1": (
        "not_detected", None, 8, 1284, 40, 10, 5, 5,
    ),
    "token_vc/most_stale/rand2": (
        "detected", (8, 15, 15, 10, 8), 11, 2244, 99, 27, 8, 8,
    ),
    "token_vc/most_stale/rand3": (
        "not_detected", None, 6, 644, 20, 10, 3, 3,
    ),
    "token_vc/most_stale/spiral8x4": (
        "detected", (9, 9, 9, 9, 9, 9, 9, 9), 46, 19975, 640, 80, 40, 40,
    ),
    "token_vc_multi/g2/rand0": (
        "detected", (9, 5, 9, 13, 4), 6, 2112, 88, 22, 9, 6,
    ),
    "token_vc_multi/g2/rand1": (
        "not_detected", None, 8, 1061, 30, 10, 5, 4,
    ),
    "token_vc_multi/g2/rand2": (
        "detected", (8, 15, 15, 10, 8), 8, 2816, 114, 27, 11, 8,
    ),
    "token_vc_multi/g2/rand3": (
        "not_detected", None, 9, 1413, 40, 10, 6, 5,
    ),
    "token_vc_multi/g2/spiral8x4": (
        "detected", (9, 9, 9, 9, 9, 9, 9, 9), 40, 21760, 664, 80, 43, 40,
    ),
    "token_vc_multi/g3/rand0": (
        "detected", (9, 5, 9, 13, 4), 8, 2816, 116, 23, 13, 8,
    ),
    "token_vc_multi/g3/rand1": (
        "not_detected", None, 7, 709, 20, 10, 5, 3,
    ),
    "token_vc_multi/g3/rand2": (
        "detected", (8, 15, 15, 10, 8), 9, 3168, 133, 27, 14, 9,
    ),
    "token_vc_multi/g3/rand3": (
        "not_detected", None, 7, 709, 20, 10, 5, 3,
    ),
    "token_vc_multi/g3/spiral8x4": (
        "detected", (9, 9, 9, 9, 9, 9, 9, 9), 40, 21760, 680, 80, 45, 40,
    ),
    "token_vc_multi/hardened/g2/rand0": (
        "detected", (9, 5, 9, 13, 4), 27, 3557, 88, 22, 10, 6,
    ),
    "token_vc_multi/hardened/g2/rand1": (
        "not_detected", None, 40, 3630, 45, 10, 9, 5,
    ),
    "token_vc_multi/hardened/g2/rand2": (
        "detected", (8, 15, 15, 10, 8), 29, 4422, 114, 27, 12, 8,
    ),
    "token_vc_multi/hardened/g2/rand3": (
        "not_detected", None, 29, 1808, 30, 10, 5, 5,
    ),
    "token_vc_multi/hardened/g3/rand0": (
        "detected", (9, 5, 9, 13, 4), 31, 4517, 116, 23, 15, 8,
    ),
    "token_vc_multi/hardened/g3/rand1": (
        "not_detected", None, 27, 912, 10, 10, 4, 3,
    ),
    "token_vc_multi/hardened/g3/rand2": (
        "detected", (8, 15, 15, 10, 8), 29, 4517, 133, 27, 15, 9,
    ),
    "token_vc_multi/hardened/g3/rand3": (
        "not_detected", None, 26, 944, 10, 10, 4, 4,
    ),
}

#: ``(outcomes, mon_msgs, mon_bits, total_work, max_work, token_hops,
#: token_visits)`` per service run; ``outcomes`` maps each predicate to
#: its outcome and cut.
SERVICE_UNITS = {
    "service/most_stale/clean/rand0": (
        {
            "q0": ("detected", (9, 6, 6)),
            "q1": ("detected", (6, 6, 4)),
            "q2": ("detected", (6, 3, 2)),
            "q3": ("detected", (3, 1, 5)),
            "q4": ("detected", (9, 1, 5)),
        },
        57, 6128, 92, 19, 20, 15,
    ),
    "service/most_stale/clean/rand1": (
        {
            "q0": ("detected", (1, 2, 3)),
            "q1": ("detected", (2, 3, 5)),
            "q2": ("detected", (3, 5, 11)),
            "q3": ("detected", (5, 11, 5)),
            "q4": ("detected", (9, 11, 5)),
        },
        57, 6224, 100, 22, 20, 16,
    ),
    "service/most_stale/clean/rand2": (
        {
            "q0": ("detected", (3, 3, 8)),
            "q1": ("detected", (14, 8, 12)),
            "q2": ("detected", (8, 12, 11)),
            "q3": ("detected", (12, 11, 8)),
            "q4": ("detected", (11, 11, 8)),
        },
        63, 7376, 141, 35, 23, 19,
    ),
    "service/most_stale/lossy/rand0": (
        {
            "q0": ("detected", (9, 6, 6)),
            "q1": ("detected", (6, 6, 4)),
            "q2": ("detected", (6, 3, 2)),
            "q3": ("detected", (3, 1, 5)),
            "q4": ("detected", (9, 1, 5)),
        },
        61, 6384, 92, 19, 21, 15,
    ),
    "service/most_stale/lossy/rand1": (
        {
            "q0": ("detected", (1, 2, 3)),
            "q1": ("detected", (2, 3, 5)),
            "q2": ("detected", (3, 5, 11)),
            "q3": ("detected", (5, 11, 5)),
            "q4": ("detected", (9, 11, 5)),
        },
        70, 7792, 100, 22, 26, 16,
    ),
    "service/most_stale/lossy/rand2": (
        {
            "q0": ("detected", (3, 3, 8)),
            "q1": ("detected", (14, 8, 12)),
            "q2": ("detected", (8, 12, 11)),
            "q3": ("detected", (12, 11, 8)),
            "q4": ("detected", (11, 11, 8)),
        },
        68, 8336, 141, 35, 27, 19,
    ),
}

#: Plain (unhardened) §3.5 runs under injected duplication, 4 processes
#: x 6 sends: the leader's per-round tokens are distinct objects, so a
#: duplicate from an older round can re-present a bound the slot has
#: passed.  A plain visit must still consume fresh candidates there,
#: never replay its last acceptance.  Same fields as DETECTOR_UNITS.
PLAIN_DUP_UNITS = {
    "dup:*:0.3/32": (
        "detected", (8, 5, 4, 3), 9, 2592, 96, 32, 15, 9,
    ),
    "dup:token:0.3/0": (
        "not_detected", None, 10, 1732, 57, 25, 9, 7,
    ),
    "dup:token:0.3/15": (
        "detected", (9, 5, 9, 4), 9, 1444, 56, 16, 9, 6,
    ),
    "dup:*:0.2,crash:mon-1:4:9/32": (
        "detected", (8, 5, 4, 3), 8, 2304, 84, 24, 13, 8,
    ),
}


def _units_row(rep):
    units = paper_units(rep)
    cut = None if rep.cut is None else tuple(rep.cut.intervals)
    return (
        units["outcome"], cut, units["mon_msgs"], units["mon_bits"],
        units["total_work"], units["max_work"], units["token_hops"],
        units["token_visits"],
    )


def _workload(name):
    if name == "spiral8x4":
        return (
            spiral_computation(8, 4),
            WeakConjunctivePredicate.of_flags(range(8)),
        )
    seed = int(name.removeprefix("rand"))
    comp = random_computation(
        5, 6, seed=seed, predicate_density=0.3,
        plant_final_cut=seed % 2 == 0,
    )
    return comp, WeakConjunctivePredicate.of_flags(range(5))


def _detector_run(run_id):
    parts = run_id.split("/")
    comp, wcp = _workload(parts[-1])
    seed = 0 if parts[-1] == "spiral8x4" else int(parts[-1][4:])
    if parts[0] == "token_vc":
        return run_detector("token_vc", comp, wcp, seed=seed, routing=parts[1])
    groups = int(parts[-2].removeprefix("g"))
    faults = FaultPlan.parse(FAULTS) if parts[1] == "hardened" else None
    return run_detector(
        "token_vc_multi", comp, wcp, seed=seed, groups=groups, faults=faults
    )


@pytest.mark.parametrize("run_id", sorted(DETECTOR_UNITS))
def test_detector_units_pinned(run_id):
    assert _units_row(_detector_run(run_id)) == DETECTOR_UNITS[run_id]


@pytest.mark.parametrize("run_id", sorted(PLAIN_DUP_UNITS))
def test_plain_multi_under_duplication_pinned(run_id):
    plan, seed = run_id.rsplit("/", 1)
    comp = random_computation(
        4, 6, seed=int(seed), predicate_density=0.3,
        plant_final_cut=int(seed) % 2 == 0,
    )
    rep = run_detector(
        "token_vc_multi", comp, WeakConjunctivePredicate.of_flags(range(4)),
        seed=int(seed), hardened=False, faults=FaultPlan.parse(plan),
    )
    assert _units_row(rep) == PLAIN_DUP_UNITS[run_id]


@pytest.mark.parametrize("run_id", sorted(SERVICE_UNITS))
def test_service_units_pinned(run_id):
    """Five 3-wide predicates rotated over six processes."""
    _, routing, mode, name = run_id.split("/")
    seed = int(name.removeprefix("rand"))
    comp = random_computation(
        6, 6, seed=seed, predicate_density=0.3,
        plant_final_cut=seed % 2 == 0,
    )
    preds = [
        (
            f"q{k}",
            WeakConjunctivePredicate.of_flags(
                sorted({(p + k) % 6 for p in range(3)})
            ),
        )
        for k in range(5)
    ]
    faults = FaultPlan.parse(FAULTS) if mode == "lossy" else None
    rep = run_service(
        "token_vc", comp, preds, seed=seed, routing=routing, faults=faults
    )
    units = service_units(rep)
    outcomes = {
        pred_id: (
            out.outcome,
            None if out.cut is None else tuple(out.cut.intervals),
        )
        for pred_id, out in rep.outcomes.items()
    }
    got = (
        outcomes, units["mon_msgs"], units["mon_bits"], units["total_work"],
        units["max_work"], units["token_hops"], units["token_visits"],
    )
    assert got == SERVICE_UNITS[run_id]
