"""Exact units of the Garg–Waldecker checkers that no sweep baseline pins.

The committed baselines replay the token and direct-dependence
detectors only.  These tables pin the three hosts of the queue-head
elimination: the centralized checker of [7] (``centralized``), the
linear-GCP checker of [6] (``detect_gcp_online``) and the embeddable
``IncrementalDetector``.  The corpus is random computations and a
spiral, each under a full and a partial WCP, over the default fixed
latency, exponential latency and the non-FIFO model, and, for [6], the
four clause sets of ``test_gcp_online``.  Every value is a counted quantity or a
simulated time, so any change to how a checker queues, compares,
eliminates, charges work or space, or schedules its feeds shows up here
exactly.
"""

import random

import pytest

from repro.detect import centralized
from repro.detect.gcp_online import detect_gcp_online
from repro.detect.incremental import IncrementalDetector
from repro.predicates import WeakConjunctivePredicate
from repro.predicates.channel import (
    linear_at_least,
    linear_at_most,
    linear_empty_channel,
)
from repro.simulation.network import ExponentialLatency, NonFifoLatency
from repro.trace import random_computation, spiral_computation
from repro.trace.events import EventKind

COMPUTATIONS = {
    "rand0": lambda: random_computation(
        4, 6, seed=0, predicate_density=0.3, plant_final_cut=True
    ),
    "rand1": lambda: random_computation(
        4, 6, seed=1, predicate_density=0.3, plant_final_cut=False
    ),
    "rand2": lambda: random_computation(
        5, 5, seed=2, predicate_density=0.5, plant_final_cut=True
    ),
    "rand3": lambda: random_computation(
        3, 8, seed=3, predicate_density=0.2, plant_final_cut=False
    ),
    "spiral4x3": lambda: spiral_computation(4, 3),
}

#: Three-process computations for the [6] checker's clause sets.
GCP_COMPUTATIONS = {
    f"rand{seed}": (
        lambda seed=seed: random_computation(
            3, 4, seed=seed, predicate_density=0.4,
            plant_final_cut=(seed % 2 == 0),
        )
    )
    for seed in range(4)
}

#: ``None`` is the kernel's default, ``FixedLatency(1.0)``.  Under the
#: non-FIFO model every channel reorders except the snapshot stream
#: (``candidate`` / ``end_of_trace``), which §2 requires FIFO whoever
#: receives it, so every checker verdict and cut there is the reference's.
CHANNEL_MODELS = {
    "fixed": lambda: None,
    "exp": lambda: ExponentialLatency(1.0),
    "nonfifo": lambda: NonFifoLatency(1.0),
}

CLAUSE_SETS = {
    "empty": lambda: [linear_empty_channel(0, 1)],
    "mixed_receiver": lambda: [
        linear_at_most(0, 1, 1), linear_empty_channel(1, 2),
    ],
    "at_least": lambda: [linear_at_least(0, 1, 1)],
    "both_directions": lambda: [
        linear_empty_channel(0, 1), linear_empty_channel(1, 0),
    ],
}


def _wcp(comp, which):
    n = comp.num_processes
    pids = range(n) if which == "all" else (0, n - 2)
    return WeakConjunctivePredicate.of_flags(pids)


def _cut(cut):
    return None if cut is None else tuple(cut.as_mapping().values())


def _checker_units(report):
    """``(outcome, cut, detection_time, extras, checker_work,
    checker_space_high_water, msgs, bits, sim_steps, sim_time)``."""
    checker = report.metrics.of(centralized.CHECKER_NAME)
    return (
        "detected" if report.detected else "not_detected",
        _cut(report.cut),
        report.detection_time,
        report.extras,
        checker.work_units,
        checker.buffered_bits_high_water,
        report.metrics.total_messages(),
        report.metrics.total_bits(),
        report.sim.steps,
        report.sim.time,
    )


def _feed_order(comp, order_seed):
    """A causally legal event order: topological, or seeded random."""
    if order_seed is None:
        return list(comp.topological_order())
    rng = random.Random(order_seed)
    next_idx = [0] * comp.num_processes
    sent = set()
    order = []
    while len(order) < comp.total_events():
        ready = []
        for pid in range(comp.num_processes):
            events = comp.events_of(pid)
            if next_idx[pid] >= len(events):
                continue
            event = events[next_idx[pid]]
            if event.kind is EventKind.RECV and event.msg_id not in sent:
                continue
            ready.append(pid)
        pid = rng.choice(ready)
        event = comp.events_of(pid)[next_idx[pid]]
        if event.kind is EventKind.SEND:
            sent.add(event.msg_id)
        order.append((pid, next_idx[pid]))
        next_idx[pid] += 1
    return order


def _incremental_units(comp, wcp, order_seed):
    """``(verdict, cut, eliminations, candidates_seen, settled_after)``
    where ``settled_after`` counts the feed calls (events, then closes)
    made when the verdict first left ``open``."""
    det = IncrementalDetector(
        comp.num_processes,
        wcp,
        {p: dict(comp.processes[p].initial_vars)
         for p in range(comp.num_processes)},
    )
    calls = 0
    settled_after = None
    for pid, idx in _feed_order(comp, order_seed):
        event = comp.event(pid, idx)
        updates = dict(event.updates)
        if event.kind is EventKind.INTERNAL:
            det.observe_internal(pid, updates)
        elif event.kind is EventKind.SEND:
            det.observe_send(pid, event.msg_id, event.peer, updates)
        else:
            det.observe_recv(pid, event.msg_id, updates)
        calls += 1
        if settled_after is None and det.verdict() != "open":
            settled_after = calls
    for pid in range(comp.num_processes):
        det.close(pid)
        calls += 1
        if settled_after is None and det.verdict() != "open":
            settled_after = calls
    return (
        det.verdict(), _cut(det.cut), det.eliminations, det.candidates_seen,
        settled_after,
    )


CENTRALIZED_UNITS = {
    "rand0/all/exp": (
        "detected", (10, 12, 19, 7), 50.35657596192994,
        {"comparisons": 66, "eliminations": 17}, 90, 2816, 28, 3076, 57,
        50.35657596192994,
    ),
    "rand0/all/fixed": (
        "detected", (10, 12, 19, 7), 50.96491378739218,
        {"comparisons": 66, "eliminations": 17}, 90, 2816, 28, 3076, 57,
        50.96491378739218,
    ),
    "rand0/all/nonfifo": (
        "detected", (10, 12, 19, 7), 50.35657596192994,
        {"comparisons": 66, "eliminations": 17}, 90, 2816, 28, 3076, 57,
        50.35657596192994,
    ),
    "rand0/sub/exp": (
        "detected", (5, 2), 7.4056976970266595, {"comparisons": 4, "eliminations": 1},
        7, 898, 17, 962, 35, 50.44715060021049,
    ),
    "rand0/sub/fixed": (
        "detected", (5, 2), 7.160084013543997, {"comparisons": 4, "eliminations": 1}, 7,
        898, 17, 962, 35, 50.96491378739218,
    ),
    "rand0/sub/nonfifo": (
        "detected", (5, 2), 7.4056976970266595, {"comparisons": 4, "eliminations": 1},
        7, 898, 17, 962, 35, 50.44715060021049,
    ),
    "rand1/all/exp": (
        "not_detected", None, None, {"comparisons": 0, "eliminations": 0}, 0, 2819, 26,
        2820, 53, 28.871909242460436,
    ),
    "rand1/all/fixed": (
        "not_detected", None, None, {"comparisons": 0, "eliminations": 0}, 0, 2819, 26,
        2820, 53, 29.407955434617776,
    ),
    "rand1/all/nonfifo": (
        "not_detected", None, None, {"comparisons": 0, "eliminations": 0}, 0, 2819, 26,
        2820, 53, 28.871909242460436,
    ),
    "rand1/sub/exp": (
        "not_detected", None, None, {"comparisons": 0, "eliminations": 0}, 0, 577, 11,
        578, 23, 14.795510938800994,
    ),
    "rand1/sub/fixed": (
        "not_detected", None, None, {"comparisons": 0, "eliminations": 0}, 0, 577, 11,
        578, 23, 14.469404118407864,
    ),
    "rand1/sub/nonfifo": (
        "not_detected", None, None, {"comparisons": 0, "eliminations": 0}, 0, 577, 11,
        578, 23, 14.795510938800994,
    ),
    "rand2/all/exp": (
        "detected", (7, 7, 3, 6, 2), 18.736056494089638,
        {"comparisons": 52, "eliminations": 9}, 84, 4964, 45, 6405, 91,
        30.81073047803754,
    ),
    "rand2/all/fixed": (
        "detected", (7, 7, 3, 6, 2), 18.42175331346953,
        {"comparisons": 52, "eliminations": 9}, 82, 4964, 45, 6405, 91,
        31.06132594398049,
    ),
    "rand2/all/nonfifo": (
        "detected", (7, 7, 3, 6, 2), 18.736056494089638,
        {"comparisons": 52, "eliminations": 9}, 84, 4964, 45, 6405, 91,
        30.81073047803754,
    ),
    "rand2/sub/exp": (
        "detected", (7, 6), 18.74786013386266, {"comparisons": 12, "eliminations": 5},
        23, 704, 16, 898, 33, 25.002071300066046,
    ),
    "rand2/sub/fixed": (
        "detected", (7, 6), 18.42175331346953, {"comparisons": 12, "eliminations": 5},
        22, 640, 16, 898, 33, 22.87585125306908,
    ),
    "rand2/sub/nonfifo": (
        "detected", (7, 6), 18.74786013386266, {"comparisons": 12, "eliminations": 5},
        23, 704, 16, 898, 33, 25.002071300066046,
    ),
    "rand3/all/exp": (
        "not_detected", None, None, {"comparisons": 0, "eliminations": 0}, 0, 578, 9,
        579, 19, 19.20422898302068,
    ),
    "rand3/all/fixed": (
        "not_detected", None, None, {"comparisons": 0, "eliminations": 0}, 0, 578, 9,
        579, 19, 17.82434630182214,
    ),
    "rand3/all/nonfifo": (
        "not_detected", None, None, {"comparisons": 0, "eliminations": 0}, 0, 578, 9,
        579, 19, 19.20422898302068,
    ),
    "rand3/sub/exp": (
        "not_detected", None, None, {"comparisons": 4, "eliminations": 2}, 7, 257, 8,
        386, 17, 20.051843281240483,
    ),
    "rand3/sub/fixed": (
        "not_detected", None, None, {"comparisons": 4, "eliminations": 2}, 7, 257, 8,
        386, 17, 17.82434630182214,
    ),
    "rand3/sub/nonfifo": (
        "not_detected", None, None, {"comparisons": 4, "eliminations": 2}, 7, 257, 8,
        386, 17, 20.051843281240483,
    ),
    "spiral4x3/all/exp": (
        "detected", (7, 7, 7, 7), 7.126220046996966,
        {"comparisons": 38, "eliminations": 12}, 54, 513, 20, 2052, 41,
        7.126220046996966,
    ),
    "spiral4x3/all/fixed": (
        "detected", (7, 7, 7, 7), 5.0, {"comparisons": 36, "eliminations": 12}, 52, 513,
        20, 2052, 41, 5.0,
    ),
    "spiral4x3/all/nonfifo": (
        "detected", (7, 7, 7, 7), 7.126220046996966,
        {"comparisons": 38, "eliminations": 12}, 54, 513, 20, 2052, 41,
        7.126220046996966,
    ),
    "spiral4x3/sub/exp": (
        "detected", (7, 7), 6.937678494525958, {"comparisons": 14, "eliminations": 6},
        22, 256, 10, 514, 21, 6.937678494525958,
    ),
    "spiral4x3/sub/fixed": (
        "detected", (7, 7), 5.0, {"comparisons": 14, "eliminations": 6}, 22, 129, 10,
        514, 21, 5.0,
    ),
    "spiral4x3/sub/nonfifo": (
        "detected", (7, 7), 6.937678494525958, {"comparisons": 14, "eliminations": 6},
        22, 256, 10, 514, 21, 6.937678494525958,
    ),
}

GCP_UNITS = {
    "at_least/rand0/exp": (
        "detected", (3, 5, 4), 8.534863527057304,
        {"comparisons": 18, "eliminations": 3, "channel_eliminations": 0}, 29, 1891, 22,
        2179, 45, 16.363597059903533,
    ),
    "at_least/rand0/fixed": (
        "detected", (3, 5, 4), 7.3101356331716465,
        {"comparisons": 18, "eliminations": 3, "channel_eliminations": 0}, 29, 1891, 22,
        2179, 45, 14.329451807445436,
    ),
    "at_least/rand0/nonfifo": (
        "detected", (3, 5, 4), 8.534863527057304,
        {"comparisons": 18, "eliminations": 3, "channel_eliminations": 0}, 29, 1891, 22,
        2179, 45, 16.363597059903533,
    ),
    "at_least/rand1/exp": (
        "detected", (3, 2, 2), 6.254984508625434,
        {"comparisons": 10, "eliminations": 1, "channel_eliminations": 0}, 17, 1955, 20,
        2083, 41, 15.941167428440998,
    ),
    "at_least/rand1/fixed": (
        "detected", (3, 2, 2), 5.3763686695491035,
        {"comparisons": 10, "eliminations": 1, "channel_eliminations": 0}, 16, 1955, 20,
        2083, 41, 15.745092877401373,
    ),
    "at_least/rand1/nonfifo": (
        "detected", (3, 2, 2), 6.254984508625434,
        {"comparisons": 10, "eliminations": 1, "channel_eliminations": 0}, 17, 1955, 20,
        2083, 41, 15.941167428440998,
    ),
    "at_least/rand2/exp": (
        "detected", (6, 4, 7), 11.078184764628533,
        {"comparisons": 18, "eliminations": 3, "channel_eliminations": 0}, 31, 1505, 19,
        1891, 39, 14.026067724251108,
    ),
    "at_least/rand2/fixed": (
        "detected", (6, 4, 7), 9.853456870742875,
        {"comparisons": 18, "eliminations": 3, "channel_eliminations": 0}, 29, 1507, 19,
        1891, 39, 14.834710798201463,
    ),
    "at_least/rand2/nonfifo": (
        "detected", (6, 4, 7), 11.078184764628533,
        {"comparisons": 18, "eliminations": 3, "channel_eliminations": 0}, 31, 1505, 19,
        1891, 39, 14.026067724251108,
    ),
    "at_least/rand3/exp": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2178, 20,
        2179, 41, 18.788061326738013,
    ),
    "at_least/rand3/fixed": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2178, 20,
        2179, 41, 18.591986775698388,
    ),
    "at_least/rand3/nonfifo": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2178, 20,
        2179, 41, 18.788061326738013,
    ),
    "both_directions/rand0/exp": (
        "detected", (6, 6, 4), 10.491743365829503,
        {"comparisons": 34, "eliminations": 7, "channel_eliminations": 4}, 56, 1603, 22,
        2531, 45, 16.363597059903533,
    ),
    "both_directions/rand0/fixed": (
        "detected", (6, 6, 4), 10.032785165372912,
        {"comparisons": 34, "eliminations": 7, "channel_eliminations": 4}, 56, 1603, 22,
        2531, 45, 14.329451807445436,
    ),
    "both_directions/rand0/nonfifo": (
        "detected", (6, 6, 4), 10.491743365829503,
        {"comparisons": 34, "eliminations": 7, "channel_eliminations": 4}, 56, 1603, 22,
        2531, 45, 16.363597059903533,
    ),
    "both_directions/rand1/exp": (
        "detected", (6, 4, 4), 9.04067828465137,
        {"comparisons": 38, "eliminations": 8, "channel_eliminations": 4}, 59, 1377, 20,
        2531, 41, 15.941167428440998,
    ),
    "both_directions/rand1/fixed": (
        "detected", (6, 4, 4), 9.484204106830628,
        {"comparisons": 38, "eliminations": 8, "channel_eliminations": 4}, 59, 1377, 20,
        2531, 41, 15.745092877401373,
    ),
    "both_directions/rand1/nonfifo": (
        "detected", (6, 4, 4), 9.04067828465137,
        {"comparisons": 38, "eliminations": 8, "channel_eliminations": 4}, 59, 1377, 20,
        2531, 41, 15.941167428440998,
    ),
    "both_directions/rand2/exp": (
        "detected", (6, 8, 7), 11.078184764628533,
        {"comparisons": 34, "eliminations": 7, "channel_eliminations": 4}, 52, 1856, 19,
        2243, 39, 14.026067724251108,
    ),
    "both_directions/rand2/fixed": (
        "detected", (6, 8, 7), 9.853456870742875,
        {"comparisons": 34, "eliminations": 7, "channel_eliminations": 4}, 50, 1536, 19,
        2243, 39, 14.834710798201463,
    ),
    "both_directions/rand2/nonfifo": (
        "detected", (6, 8, 7), 11.078184764628533,
        {"comparisons": 34, "eliminations": 7, "channel_eliminations": 4}, 52, 1856, 19,
        2243, 39, 14.026067724251108,
    ),
    "both_directions/rand3/exp": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2722, 20,
        2723, 41, 18.788061326738013,
    ),
    "both_directions/rand3/fixed": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2722, 20,
        2723, 41, 18.591986775698388,
    ),
    "both_directions/rand3/nonfifo": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2722, 20,
        2723, 41, 18.788061326738013,
    ),
    "empty/rand0/exp": (
        "detected", (3, 6, 4), 9.348476077597764,
        {"comparisons": 22, "eliminations": 4, "channel_eliminations": 1}, 35, 1763, 22,
        2179, 45, 16.363597059903533,
    ),
    "empty/rand0/fixed": (
        "detected", (3, 6, 4), 9.669415684323452,
        {"comparisons": 22, "eliminations": 4, "channel_eliminations": 1}, 36, 1763, 22,
        2179, 45, 14.329451807445436,
    ),
    "empty/rand0/nonfifo": (
        "detected", (3, 6, 4), 9.348476077597764,
        {"comparisons": 22, "eliminations": 4, "channel_eliminations": 1}, 35, 1763, 22,
        2179, 45, 16.363597059903533,
    ),
    "empty/rand1/exp": (
        "detected", (4, 4, 4), 9.024824565088645,
        {"comparisons": 30, "eliminations": 6, "channel_eliminations": 2}, 43, 1378, 20,
        2083, 41, 15.941167428440998,
    ),
    "empty/rand1/fixed": (
        "detected", (4, 4, 4), 7.590238522605019,
        {"comparisons": 30, "eliminations": 6, "channel_eliminations": 2}, 43, 1378, 20,
        2083, 41, 15.745092877401373,
    ),
    "empty/rand1/nonfifo": (
        "detected", (4, 4, 4), 9.024824565088645,
        {"comparisons": 30, "eliminations": 6, "channel_eliminations": 2}, 43, 1378, 20,
        2083, 41, 15.941167428440998,
    ),
    "empty/rand2/exp": (
        "detected", (6, 8, 7), 11.078184764628533,
        {"comparisons": 34, "eliminations": 7, "channel_eliminations": 4}, 51, 1504, 19,
        1891, 39, 14.026067724251108,
    ),
    "empty/rand2/fixed": (
        "detected", (6, 8, 7), 9.853456870742875,
        {"comparisons": 34, "eliminations": 7, "channel_eliminations": 4}, 49, 1248, 19,
        1891, 39, 14.834710798201463,
    ),
    "empty/rand2/nonfifo": (
        "detected", (6, 8, 7), 11.078184764628533,
        {"comparisons": 34, "eliminations": 7, "channel_eliminations": 4}, 51, 1504, 19,
        1891, 39, 14.026067724251108,
    ),
    "empty/rand3/exp": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2178, 20,
        2179, 41, 18.788061326738013,
    ),
    "empty/rand3/fixed": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2178, 20,
        2179, 41, 18.591986775698388,
    ),
    "empty/rand3/nonfifo": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2178, 20,
        2179, 41, 18.788061326738013,
    ),
    "mixed_receiver/rand0/exp": (
        "detected", (5, 5, 10), 13.22225483156602,
        {"comparisons": 42, "eliminations": 9, "channel_eliminations": 4}, 70, 1536, 22,
        2595, 45, 16.363597059903533,
    ),
    "mixed_receiver/rand0/fixed": (
        "detected", (5, 5, 10), 14.030897905516376,
        {"comparisons": 42, "eliminations": 9, "channel_eliminations": 4}, 70, 1536, 22,
        2595, 45, 14.329451807445436,
    ),
    "mixed_receiver/rand0/nonfifo": (
        "detected", (5, 5, 10), 13.22225483156602,
        {"comparisons": 42, "eliminations": 9, "channel_eliminations": 4}, 70, 1536, 22,
        2595, 45, 16.363597059903533,
    ),
    "mixed_receiver/rand1/exp": (
        "detected", (3, 2, 2), 6.254984508625434,
        {"comparisons": 10, "eliminations": 1, "channel_eliminations": 0}, 18, 2211, 20,
        2339, 41, 15.941167428440998,
    ),
    "mixed_receiver/rand1/fixed": (
        "detected", (3, 2, 2), 5.3763686695491035,
        {"comparisons": 10, "eliminations": 1, "channel_eliminations": 0}, 17, 2211, 20,
        2339, 41, 15.745092877401373,
    ),
    "mixed_receiver/rand1/nonfifo": (
        "detected", (3, 2, 2), 6.254984508625434,
        {"comparisons": 10, "eliminations": 1, "channel_eliminations": 0}, 18, 2211, 20,
        2339, 41, 15.941167428440998,
    ),
    "mixed_receiver/rand2/exp": (
        "detected", (6, 7, 11), 13.937920823363172,
        {"comparisons": 46, "eliminations": 10, "channel_eliminations": 7}, 75, 1824,
        19, 2339, 39, 14.026067724251108,
    ),
    "mixed_receiver/rand2/fixed": (
        "detected", (6, 7, 11), 14.834710798201463,
        {"comparisons": 46, "eliminations": 10, "channel_eliminations": 7}, 75, 1536,
        19, 2339, 39, 14.834710798201463,
    ),
    "mixed_receiver/rand2/nonfifo": (
        "detected", (6, 7, 11), 13.937920823363172,
        {"comparisons": 46, "eliminations": 10, "channel_eliminations": 7}, 75, 1824,
        19, 2339, 39, 14.026067724251108,
    ),
    "mixed_receiver/rand3/exp": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2466, 20,
        2467, 41, 18.788061326738013,
    ),
    "mixed_receiver/rand3/fixed": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2466, 20,
        2467, 41, 18.591986775698388,
    ),
    "mixed_receiver/rand3/nonfifo": (
        "not_detected", None, None,
        {"comparisons": 0, "eliminations": 0, "channel_eliminations": 0}, 0, 2466, 20,
        2467, 41, 18.788061326738013,
    ),
}

INCREMENTAL_UNITS = {
    "rand0/all/shuffle1": (
        "detected", (10, 12, 19, 7), 17, 24, 73,
    ),
    "rand0/all/shuffle2": (
        "detected", (10, 12, 19, 7), 17, 24, 73,
    ),
    "rand0/all/topo": (
        "detected", (10, 12, 19, 7), 17, 21, 65,
    ),
    "rand0/sub/shuffle1": (
        "detected", (5, 2), 1, 4, 22,
    ),
    "rand0/sub/shuffle2": (
        "detected", (5, 2), 1, 4, 27,
    ),
    "rand0/sub/topo": (
        "detected", (5, 2), 1, 3, 8,
    ),
    "rand1/all/shuffle1": (
        "impossible", None, 0, 22, 78,
    ),
    "rand1/all/shuffle2": (
        "impossible", None, 0, 22, 78,
    ),
    "rand1/all/topo": (
        "impossible", None, 0, 22, 78,
    ),
    "rand1/sub/shuffle1": (
        "impossible", None, 0, 9, 78,
    ),
    "rand1/sub/shuffle2": (
        "impossible", None, 0, 9, 78,
    ),
    "rand1/sub/topo": (
        "impossible", None, 0, 9, 78,
    ),
    "rand2/all/shuffle1": (
        "detected", (7, 7, 3, 6, 2), 9, 35, 63,
    ),
    "rand2/all/shuffle2": (
        "detected", (7, 7, 3, 6, 2), 9, 39, 75,
    ),
    "rand2/all/topo": (
        "detected", (7, 7, 3, 6, 2), 9, 28, 53,
    ),
    "rand2/sub/shuffle1": (
        "detected", (7, 6), 5, 13, 63,
    ),
    "rand2/sub/shuffle2": (
        "detected", (7, 6), 5, 13, 75,
    ),
    "rand2/sub/topo": (
        "detected", (7, 6), 5, 7, 34,
    ),
    "rand3/all/shuffle1": (
        "impossible", None, 2, 6, 74,
    ),
    "rand3/all/shuffle2": (
        "impossible", None, 2, 6, 74,
    ),
    "rand3/all/topo": (
        "impossible", None, 2, 6, 74,
    ),
    "rand3/sub/shuffle1": (
        "impossible", None, 2, 6, 74,
    ),
    "rand3/sub/shuffle2": (
        "impossible", None, 2, 6, 74,
    ),
    "rand3/sub/topo": (
        "impossible", None, 2, 6, 74,
    ),
    "spiral4x3/all/shuffle1": (
        "detected", (7, 7, 7, 7), 12, 16, 52,
    ),
    "spiral4x3/all/shuffle2": (
        "detected", (7, 7, 7, 7), 12, 16, 52,
    ),
    "spiral4x3/all/topo": (
        "detected", (7, 7, 7, 7), 12, 16, 54,
    ),
    "spiral4x3/sub/shuffle1": (
        "detected", (7, 7), 6, 8, 52,
    ),
    "spiral4x3/sub/shuffle2": (
        "detected", (7, 7), 6, 8, 52,
    ),
    "spiral4x3/sub/topo": (
        "detected", (7, 7), 6, 8, 51,
    ),
}


@pytest.mark.parametrize("key", sorted(CENTRALIZED_UNITS))
def test_centralized_units(key):
    comp_name, which, model = key.split("/")
    comp = COMPUTATIONS[comp_name]()
    report = centralized.detect(
        comp, _wcp(comp, which), seed=3,
        channel_model=CHANNEL_MODELS[model](),
    )
    assert _checker_units(report) == CENTRALIZED_UNITS[key]


@pytest.mark.parametrize("key", sorted(GCP_UNITS))
def test_gcp_online_units(key):
    clauses, comp_name, model = key.split("/")
    comp = GCP_COMPUTATIONS[comp_name]()
    report = detect_gcp_online(
        comp, WeakConjunctivePredicate.of_flags([0, 1, 2]),
        CLAUSE_SETS[clauses](), seed=5,
        channel_model=CHANNEL_MODELS[model](),
    )
    assert _checker_units(report) == GCP_UNITS[key]


@pytest.mark.parametrize("key", sorted(INCREMENTAL_UNITS))
def test_incremental_units(key):
    comp_name, which, order = key.split("/")
    comp = COMPUTATIONS[comp_name]()
    order_seed = None if order == "topo" else int(order.removeprefix("shuffle"))
    units = _incremental_units(comp, _wcp(comp, which), order_seed)
    assert units == INCREMENTAL_UNITS[key]
