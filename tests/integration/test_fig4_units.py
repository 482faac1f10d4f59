"""Exact units of every Fig. 4 host that no sweep baseline pins.

The committed baselines replay plain ``direct_dep`` and hardened
``direct_dep`` / ``direct_dep_parallel`` over FIFO channels, and
``test_driver_reports`` pins three computations per driver mode.  These
tables pin the three hosts of the Fig. 4 visit over a wider corpus:

* plain ``direct_dep`` and ``direct_dep_parallel`` under fixed,
  exponential, non-FIFO and kind-biased latency (slow tokens, fast
  polls, so §4.5 searches run far ahead of the token);
* both hardened, under loss and duplication, a crash-restart, a
  crash-stop with heartbeat self-heal (degraded, with a partial cut) and
  a two-attempt retry budget under heavy loss (``gave_up``);
* the live §4 detector on the dd-mode mutual-exclusion system.

Random computations and a spiral run under a full WCP and one naming
three of five processes, so the full cut is wider than the cut.  Every
value is a counted quantity or a simulated time, so any change to how a
visit consumes candidates, polls, splices the red chain, charges work or
schedules its messages shows up here exactly.
"""

import pytest

from repro.apps.live import run_live_direct_dep
from repro.apps.mutex import build_mutex_system, mutex_wcp
from repro.detect import run_detector
from repro.detect.runner import paper_units
from repro.detect.stack import AdaptiveRetryPolicy, FailureDetectorConfig
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.faults import FaultPlan
from repro.simulation.network import (
    ExponentialLatency,
    KindBiasedLatency,
    NonFifoLatency,
)
from repro.trace import random_computation, spiral_computation

COMPUTATIONS = {
    "rand0": lambda: random_computation(
        5, 6, seed=0, predicate_density=0.3, plant_final_cut=True
    ),
    "rand1": lambda: random_computation(
        5, 6, seed=1, predicate_density=0.3, plant_final_cut=False
    ),
    "rand2": lambda: random_computation(
        5, 7, seed=2, predicate_density=0.4, plant_final_cut=True
    ),
    "spiral5x3": lambda: spiral_computation(5, 3),
}

#: A full WCP, and one naming three of the five processes.
WCPS = {"all": (0, 1, 2, 3, 4), "sub": (0, 2, 3)}

CHANNEL_MODELS = {
    "fixed": lambda: None,
    "exp": lambda: ExponentialLatency(1.0),
    "nonfifo": lambda: NonFifoLatency(1.0),
    "biased": lambda: KindBiasedLatency(
        {"token": 6.0, "poll": 0.2, "poll_response": 0.2}
    ),
}

#: Hardened runs, all over exponential latency (FIFO channels).
PLANS = {
    "lossy": lambda: {"faults": FaultPlan.parse("drop:*:0.15,dup:*:0.05")},
    "restart": lambda: {"faults": FaultPlan.parse("crash:mon-1:4:9")},
    "crashstop": lambda: {
        "faults": FaultPlan.parse("crash:mon-1:5"),
        "failure_detector": FailureDetectorConfig(),
    },
    "gaveup": lambda: {
        "faults": FaultPlan.parse("drop:*:0.5"),
        "retry": AdaptiveRetryPolicy(max_attempts=2),
    },
}

DETECTORS = ("direct_dep", "direct_dep_parallel")

#: The ``paper_units`` fields pinned, in row order (``None`` where a
#: run's report has no such field).
UNIT_KEYS = (
    "mon_msgs", "mon_bits", "total_work", "max_work", "max_space_bits",
    "token_hops", "token_visits", "polls", "proactive_searches", "aborted",
    "hardened", "gave_up", "halt_incomplete", "elections", "takeovers",
    "snapshots",
)

#: ``(outcome, cut, full_cut, detection_time, partial_cut, units,
#: sim_steps, sim_time)`` per run, ``units`` being the ``paper_units``
#: values over ``UNIT_KEYS``.
UNITS = {
    "direct_dep/biased/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 59.32687680959623,
        None, (32, 725, 41, 12, 833, 7, 7, 11, None, 0, 0, None, None, None,
        None, None), 103, 61.47449035357353,
    ),
    "direct_dep/biased/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 63.1891296607287, None, (32,
        725, 41, 12, 1153, 7, 7, 11, None, 0, 0, None, None, None, None, None),
        135, 65.15540364243583,
    ),
    "direct_dep/biased/rand1/all": (
        "not_detected", None, None, None, None, (10, 73, 6, 2, 833, 5, 5, 1,
        None, 1, 0, None, None, None, None, None), 75, 27.90867223236915,
    ),
    "direct_dep/biased/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 51.83750912400169, None, (11,
        74, 9, 4, 898, 6, 6, 1, None, 0, 0, None, None, None, None, None), 108,
        53.212731940022714,
    ),
    "direct_dep/biased/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 31.829659015678185,
        None, (28, 658, 42, 11, 1218, 5, 5, 10, None, 0, 0, None, None, None,
        None, None), 139, 35.792499866709576,
    ),
    "direct_dep/biased/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 45.020602751445104, None,
        (25, 529, 39, 12, 1218, 6, 6, 8, None, 0, 0, None, None, None, None,
        None), 154, 46.93427888467123,
    ),
    "direct_dep/biased/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 79.49520694848046, None,
        (47, 992, 50, 10, 385, 14, 14, 15, None, 0, 0, None, None, None, None,
        None), 104, 83.61697616618927,
    ),
    "direct_dep/biased/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 91.43179521385888, None, (49,
        994, 56, 13, 481, 16, 16, 15, None, 0, 0, None, None, None, None,
        None), 116, 92.15640372390732,
    ),
    "direct_dep/crashstop/rand0/all": (
        "degraded", None, None, None, [9, None, None, 9, None], (817, 52169, 5,
        3, 1025, 27, 1, 3, None, 0, 1, 1, 0, 0, 0, None), 1918,
        1443.3950753592533,
    ),
    "direct_dep/crashstop/rand0/sub": (
        "degraded", None, None, None, [9, None, None, 9, None], (807, 51520, 5,
        3, 1665, 27, 1, 2, None, 0, 1, 1, 0, 0, 0, None), 2125,
        1548.4286689145786,
    ),
    "direct_dep/crashstop/rand1/all": (
        "degraded", None, None, None, [1, None, None, None, None], (975, 63273,
        1, 1, 1281, 2, 2, 0, None, 0, 1, 1, 0, 0, 0, None), 2224,
        1137.6566505372762,
    ),
    "direct_dep/crashstop/rand1/sub": (
        "degraded", None, None, None, [1, 1, 2, 2, None], (761, 50167, 5, 2,
        1409, 4, 4, 26, None, 0, 1, 1, 0, 0, 0, None), 1931,
        1571.6749614531734,
    ),
    "direct_dep/crashstop/rand2/all": (
        "degraded", None, None, None, [10, None, None, None, 5], (785, 51729,
        4, 3, 1857, 1, 1, 27, None, 0, 1, 1, 0, 0, 0, None), 1930,
        1634.115928128192,
    ),
    "direct_dep/crashstop/rand2/sub": (
        "degraded", None, None, None, [10, None, None, None, 5], (804, 52337,
        4, 3, 1920, 1, 1, 27, None, 0, 1, 1, 0, 0, 0, None), 2203,
        1568.2341015396544,
    ),
    "direct_dep/crashstop/spiral5x3/all": (
        "degraded", None, None, None, [3, 2, 2, None, 2], (767, 50554, 9, 4,
        544, 5, 4, 28, None, 0, 1, 1, 0, 0, 0, None), 1731, 1580.6793263563632,
    ),
    "direct_dep/crashstop/spiral5x3/sub": (
        "degraded", None, None, None, [1, None, None, None, None], (751, 47882,
        1, 1, 705, 27, 1, 0, None, 0, 1, 1, 0, 0, 0, None), 1800,
        1596.722885129609,
    ),
    "direct_dep/exp/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 60.193492585105396,
        None, (32, 725, 41, 12, 833, 7, 7, 11, None, 0, 0, None, None, None,
        None, None), 103, 62.341106129082696,
    ),
    "direct_dep/exp/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 49.30287676178275, None, (32,
        725, 41, 12, 1153, 7, 7, 11, None, 0, 0, None, None, None, None, None),
        135, 51.26915074348988,
    ),
    "direct_dep/exp/rand1/all": (
        "not_detected", None, None, None, None, (10, 73, 6, 2, 833, 5, 5, 1,
        None, 1, 0, None, None, None, None, None), 75, 27.90867223236915,
    ),
    "direct_dep/exp/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 9.204172411852001, None, (11,
        74, 9, 4, 865, 6, 6, 1, None, 0, 0, None, None, None, None, None), 108,
        27.99650541108868,
    ),
    "direct_dep/exp/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 36.59560631370229,
        None, (28, 658, 42, 11, 1218, 5, 5, 10, None, 0, 0, None, None, None,
        None, None), 139, 38.05793883396046,
    ),
    "direct_dep/exp/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 32.68801601013631, None, (25,
        529, 39, 12, 992, 6, 6, 8, None, 0, 0, None, None, None, None, None),
        154, 36.58712231108722,
    ),
    "direct_dep/exp/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 41.6408659298255, None,
        (47, 992, 50, 10, 385, 14, 14, 15, None, 0, 0, None, None, None, None,
        None), 104, 45.76263514753431,
    ),
    "direct_dep/exp/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 48.93569127585557, None, (49,
        994, 56, 13, 481, 16, 16, 15, None, 0, 0, None, None, None, None,
        None), 116, 49.66029978590401,
    ),
    "direct_dep/fixed/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 58.18933296822567,
        None, (32, 725, 41, 12, 833, 7, 7, 11, None, 0, 0, None, None, None,
        None, None), 103, 59.18933296822567,
    ),
    "direct_dep/fixed/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 58.18933296822567, None, (32,
        725, 41, 12, 1153, 7, 7, 11, None, 0, 0, None, None, None, None, None),
        135, 59.18933296822567,
    ),
    "direct_dep/fixed/rand1/all": (
        "not_detected", None, None, None, None, (10, 73, 6, 2, 833, 5, 5, 1,
        None, 1, 0, None, None, None, None, None), 75, 26.427814374241915,
    ),
    "direct_dep/fixed/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 10.128960602907359, None, (11,
        74, 9, 4, 865, 6, 6, 1, None, 0, 0, None, None, None, None, None), 108,
        27.621282595067655,
    ),
    "direct_dep/fixed/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 38.72556074404361,
        None, (28, 658, 42, 11, 1218, 5, 5, 10, None, 0, 0, None, None, None,
        None, None), 139, 39.72556074404361,
    ),
    "direct_dep/fixed/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 35.72556074404361, None, (25,
        529, 39, 12, 929, 6, 6, 8, None, 0, 0, None, None, None, None, None),
        154, 36.72556074404361,
    ),
    "direct_dep/fixed/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 45.0, None, (47, 992, 50,
        10, 385, 14, 14, 15, None, 0, 0, None, None, None, None, None), 104,
        46.0,
    ),
    "direct_dep/fixed/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 47.0, None, (49, 994, 56, 13,
        481, 16, 16, 15, None, 0, 0, None, None, None, None, None), 116, 48.0,
    ),
    "direct_dep/gaveup/rand0/all": (
        "degraded", None, None, None, [9, None, None, 9, None], (35, 1507, 5,
        3, 1536, 3, 1, 4, None, 0, 1, 1, 0, 0, 0, None), 159,
        103.34313296131302,
    ),
    "direct_dep/gaveup/rand0/sub": (
        "degraded", None, None, None, [9, None, None, 9, None], (51, 1829, 5,
        3, 1408, 4, 1, 2, None, 0, 1, 1, 0, 0, 0, None), 207,
        98.73646866535998,
    ),
    "direct_dep/gaveup/rand1/all": (
        "degraded", None, None, None, [None, None, None, None, None], (26, 832,
        0, 0, 1344, 3, 0, 0, None, 0, 1, 1, 0, 0, 0, None), 123,
        81.61717969609398,
    ),
    "direct_dep/gaveup/rand1/sub": (
        "degraded", None, None, None, [1, 1, None, None, None], (57, 2085, 2,
        1, 1472, 6, 3, 0, None, 0, 1, 1, 0, 0, 0, None), 231,
        81.22313482928155,
    ),
    "direct_dep/gaveup/rand2/all": (
        "degraded", None, None, None, [None, None, None, None, None], (42,
        1344, 0, 0, 1920, 3, 0, 0, None, 0, 1, 1, 0, 0, 0, None), 209,
        102.39582785921576,
    ),
    "direct_dep/gaveup/rand2/sub": (
        "degraded", None, None, None, [10, None, None, None, 5], (57, 2145, 4,
        3, 1600, 1, 1, 4, None, 0, 1, 1, 0, 0, 0, None), 254,
        98.20587197567349,
    ),
    "direct_dep/gaveup/spiral5x3/all": (
        "degraded", None, None, None, [1, 2, None, None, None], (38, 1671, 4,
        2, 576, 9, 3, 2, None, 0, 1, 1, 0, 0, 0, None), 137, 111.8097810833973,
    ),
    "direct_dep/gaveup/spiral5x3/sub": (
        "degraded", None, None, None, [1, 2, 2, None, None], (38, 1605, 5, 2,
        704, 7, 3, 3, None, 0, 1, 1, 0, 0, 0, None), 150, 101.58588456260631,
    ),
    "direct_dep/lossy/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 108.11565694920397,
        None, (91, 3973, 41, 12, 1600, 10, 7, 14, None, 0, 1, 0, 0, 0, 0,
        None), 263, 174.6441372374957,
    ),
    "direct_dep/lossy/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 140.6894207875799, None,
        (109, 4261, 41, 12, 1728, 9, 7, 13, None, 0, 1, 0, 0, 0, 0, None), 352,
        224.8206236005431,
    ),
    "direct_dep/lossy/rand1/all": (
        "not_detected", None, None, None, None, (60, 1817, 6, 2, 1280, 7, 5, 1,
        None, 1, 1, 0, 0, 0, 0, None), 212, 114.57577720947181,
    ),
    "direct_dep/lossy/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 60.66725716802388, None, (75,
        2362, 9, 4, 1472, 7, 6, 2, None, 0, 1, 0, 0, 0, 0, None), 275,
        128.4307090259414,
    ),
    "direct_dep/lossy/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 138.19294798776346,
        None, (105, 4191, 42, 11, 1697, 6, 5, 13, None, 0, 1, 0, 0, 0, 0,
        None), 392, 196.87271515763032,
    ),
    "direct_dep/lossy/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 96.34950350059616, None, (81,
        3103, 39, 12, 1920, 6, 6, 9, None, 0, 1, 0, 0, 0, 0, None), 320,
        160.46469396475118,
    ),
    "direct_dep/lossy/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 122.49917759050639, None,
        (112, 5846, 50, 10, 576, 21, 14, 23, None, 0, 1, 0, 0, 0, 0, None),
        272, 192.91644859291836,
    ),
    "direct_dep/lossy/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 144.2703960027186, None, (120,
        6168, 56, 13, 768, 23, 16, 22, None, 0, 1, 0, 0, 0, 0, None), 287,
        213.34727602661616,
    ),
    "direct_dep/nonfifo/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 60.193492585105396,
        None, (32, 725, 41, 12, 833, 7, 7, 11, None, 0, 0, None, None, None,
        None, None), 103, 62.341106129082696,
    ),
    "direct_dep/nonfifo/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 49.30287676178275, None, (32,
        725, 41, 12, 1153, 7, 7, 11, None, 0, 0, None, None, None, None, None),
        135, 51.26915074348988,
    ),
    "direct_dep/nonfifo/rand1/all": (
        "not_detected", None, None, None, None, (10, 73, 6, 2, 833, 5, 5, 1,
        None, 1, 0, None, None, None, None, None), 75, 27.90867223236915,
    ),
    "direct_dep/nonfifo/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 9.204172411852001, None, (11,
        74, 9, 4, 865, 6, 6, 1, None, 0, 0, None, None, None, None, None), 108,
        27.99650541108868,
    ),
    "direct_dep/nonfifo/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 36.59560631370229,
        None, (28, 658, 42, 11, 1218, 5, 5, 10, None, 0, 0, None, None, None,
        None, None), 139, 38.05793883396046,
    ),
    "direct_dep/nonfifo/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 32.68801601013631, None, (25,
        529, 39, 12, 992, 6, 6, 8, None, 0, 0, None, None, None, None, None),
        154, 36.58712231108722,
    ),
    "direct_dep/nonfifo/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 41.6408659298255, None,
        (47, 992, 50, 10, 385, 14, 14, 15, None, 0, 0, None, None, None, None,
        None), 104, 45.76263514753431,
    ),
    "direct_dep/nonfifo/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 48.93569127585557, None, (49,
        994, 56, 13, 481, 16, 16, 15, None, 0, 0, None, None, None, None,
        None), 116, 49.66029978590401,
    ),
    "direct_dep/restart/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 57.552095496981835,
        None, (59, 2719, 41, 12, 1088, 8, 7, 11, None, 0, 1, 0, 0, 0, 0, None),
        193, 115.08472497275552,
    ),
    "direct_dep/restart/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 62.61771855733102, None, (74,
        3134, 41, 12, 1696, 7, 7, 11, None, 0, 1, 0, 0, 0, 0, None), 258,
        120.92411638508251,
    ),
    "direct_dep/restart/rand1/all": (
        "not_detected", None, None, None, None, (34, 1074, 6, 2, 1248, 5, 5, 1,
        None, 1, 1, 0, 0, 0, 0, None), 155, 89.84902528704515,
    ),
    "direct_dep/restart/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 18.47605953965838, None, (33,
        1236, 9, 4, 1313, 7, 6, 2, None, 0, 1, 0, 0, 0, 0, None), 185,
        83.36263742464183,
    ),
    "direct_dep/restart/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 38.22298416280735,
        None, (47, 2075, 42, 11, 1825, 5, 5, 10, None, 0, 1, 0, 0, 0, 0, None),
        209, 96.34273252205827,
    ),
    "direct_dep/restart/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 59.45864473089362, None, (73,
        3232, 39, 12, 1888, 8, 6, 12, None, 0, 1, 0, 0, 0, 0, None), 293,
        118.30432171819888,
    ),
    "direct_dep/restart/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 49.29518978521355, None,
        (92, 4849, 50, 10, 544, 18, 14, 18, None, 0, 1, 0, 0, 0, 0, None), 237,
        107.8793530710639,
    ),
    "direct_dep/restart/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 55.33892363292146, None, (94,
        4945, 56, 13, 736, 20, 16, 17, None, 0, 1, 0, 0, 0, 0, None), 259,
        115.33453226071131,
    ),
    "direct_dep_parallel/biased/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 68.22009990564757,
        None, (30, 723, 41, 12, 642, 5, 5, 11, 9, 0, 0, None, None, None, None,
        None), 101, 68.74313804135963,
    ),
    "direct_dep_parallel/biased/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 64.00659806085974, None, (30,
        723, 41, 12, 962, 5, 5, 11, 9, 0, 0, None, None, None, None, None),
        133, 65.97287204256688,
    ),
    "direct_dep_parallel/biased/rand1/all": (
        "not_detected", None, None, None, None, (5, 5, 1, 1, 865, 2, 1, 0, 5,
        1, 0, None, None, None, None, None), 70, 26.79630670203105,
    ),
    "direct_dep_parallel/biased/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 21.0650151705879, None, (10,
        73, 9, 4, 865, 5, 5, 1, 6, 0, 0, None, None, None, None, None), 107,
        28.186195086805952,
    ),
    "direct_dep_parallel/biased/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 24.790130116839382,
        None, (28, 658, 42, 11, 897, 5, 5, 10, 13, 0, 0, None, None, None,
        None, None), 139, 35.792499866709576,
    ),
    "direct_dep_parallel/biased/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 26.429033230399728, None,
        (24, 528, 39, 12, 897, 5, 5, 8, 11, 0, 0, None, None, None, None,
        None), 153, 36.389151604543855,
    ),
    "direct_dep_parallel/biased/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 20.47416427848816, None,
        (38, 983, 50, 10, 193, 5, 5, 15, 16, 0, 0, None, None, None, None,
        None), 95, 22.389497961053603,
    ),
    "direct_dep_parallel/biased/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 30.98010686449831, None, (38,
        983, 56, 13, 321, 5, 5, 15, 18, 0, 0, None, None, None, None, None),
        105, 34.44931961409403,
    ),
    "direct_dep_parallel/crashstop/rand0/all": (
        "degraded", None, None, None, [9, None, None, 9, None], (817, 52169, 5,
        3, 1025, 27, 1, 3, 0, 0, 1, 1, 0, 0, 0, None), 1918,
        1443.3950753592533,
    ),
    "direct_dep_parallel/crashstop/rand0/sub": (
        "degraded", None, None, None, [9, None, None, 9, None], (807, 51520, 5,
        3, 1665, 27, 1, 2, 0, 0, 1, 1, 0, 0, 0, None), 2125,
        1548.4286689145786,
    ),
    "direct_dep_parallel/crashstop/rand1/all": (
        "degraded", None, None, None, [1, None, None, None, None], (975, 63273,
        1, 1, 1281, 2, 2, 0, 0, 0, 1, 1, 0, 0, 0, None), 2224,
        1137.6566505372762,
    ),
    "direct_dep_parallel/crashstop/rand1/sub": (
        "degraded", None, None, None, [1, 1, 2, 2, None], (761, 50167, 5, 2,
        1409, 4, 4, 26, 0, 0, 1, 1, 0, 0, 0, None), 1931, 1571.6749614531734,
    ),
    "direct_dep_parallel/crashstop/rand2/all": (
        "degraded", None, None, None, [10, None, None, None, 5], (785, 51729,
        4, 3, 1857, 1, 1, 27, 0, 0, 1, 1, 0, 0, 0, None), 1930,
        1634.115928128192,
    ),
    "direct_dep_parallel/crashstop/rand2/sub": (
        "degraded", None, None, None, [10, None, None, None, 5], (804, 52337,
        4, 3, 1920, 1, 1, 27, 0, 0, 1, 1, 0, 0, 0, None), 2203,
        1568.2341015396544,
    ),
    "direct_dep_parallel/crashstop/spiral5x3/all": (
        "degraded", None, None, None, [3, 2, 2, None, 2], (767, 50554, 9, 4,
        544, 5, 4, 28, 0, 0, 1, 1, 0, 0, 0, None), 1731, 1580.6793263563632,
    ),
    "direct_dep_parallel/crashstop/spiral5x3/sub": (
        "degraded", None, None, None, [1, None, None, None, None], (751, 47882,
        1, 1, 705, 27, 1, 0, 0, 0, 1, 1, 0, 0, 0, None), 1800,
        1596.722885129609,
    ),
    "direct_dep_parallel/exp/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 43.84850699841897,
        None, (30, 723, 41, 12, 705, 5, 5, 11, 9, 0, 0, None, None, None, None,
        None), 101, 44.37154513413102,
    ),
    "direct_dep_parallel/exp/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 40.834975971773474, None,
        (30, 723, 41, 12, 1025, 5, 5, 11, 9, 0, 0, None, None, None, None,
        None), 133, 42.80124995348061,
    ),
    "direct_dep_parallel/exp/rand1/all": (
        "not_detected", None, None, None, None, (5, 5, 1, 1, 865, 2, 1, 0, 5,
        1, 0, None, None, None, None, None), 70, 26.79630670203105,
    ),
    "direct_dep_parallel/exp/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 8.931793557893865, None, (11,
        74, 9, 4, 865, 6, 6, 1, 6, 0, 0, None, None, None, None, None), 108,
        27.99650541108868,
    ),
    "direct_dep_parallel/exp/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 26.576801537229905,
        None, (28, 658, 42, 11, 897, 5, 5, 10, 13, 0, 0, None, None, None,
        None, None), 139, 35.792499866709576,
    ),
    "direct_dep_parallel/exp/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 26.579880200019794, None,
        (25, 529, 39, 12, 897, 6, 6, 8, 12, 0, 0, None, None, None, None,
        None), 154, 36.58712231108722,
    ),
    "direct_dep_parallel/exp/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 13.40157965521237, None,
        (39, 984, 50, 10, 257, 6, 6, 15, 16, 0, 0, None, None, None, None,
        None), 96, 15.31691333777781,
    ),
    "direct_dep_parallel/exp/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 14.627218539811455, None, (39,
        984, 56, 13, 321, 6, 6, 15, 18, 0, 0, None, None, None, None, None),
        106, 18.09643128940717,
    ),
    "direct_dep_parallel/fixed/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 40.62502664141668,
        None, (30, 723, 41, 12, 705, 5, 5, 11, 9, 0, 0, None, None, None, None,
        None), 101, 41.62502664141668,
    ),
    "direct_dep_parallel/fixed/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 40.62502664141668, None, (30,
        723, 41, 12, 1025, 5, 5, 11, 9, 0, 0, None, None, None, None, None),
        133, 41.62502664141668,
    ),
    "direct_dep_parallel/fixed/rand1/all": (
        "not_detected", None, None, None, None, (5, 5, 1, 1, 865, 2, 1, 0, 5,
        1, 0, None, None, None, None, None), 70, 26.427814374241915,
    ),
    "direct_dep_parallel/fixed/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 8.2125960186238, None, (11, 74,
        9, 4, 865, 6, 6, 1, 6, 0, 0, None, None, None, None, None), 108,
        27.621282595067655,
    ),
    "direct_dep_parallel/fixed/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 27.649861556219538,
        None, (28, 658, 42, 11, 897, 5, 5, 10, 13, 0, 0, None, None, None,
        None, None), 139, 35.673446177861095,
    ),
    "direct_dep_parallel/fixed/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 26.725560744043612, None,
        (24, 528, 39, 12, 897, 5, 5, 8, 12, 0, 0, None, None, None, None,
        None), 153, 35.673446177861095,
    ),
    "direct_dep_parallel/fixed/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 12.0, None, (39, 984, 50,
        10, 257, 6, 6, 15, 17, 0, 0, None, None, None, None, None), 96, 13.0,
    ),
    "direct_dep_parallel/fixed/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 15.0, None, (44, 989, 56, 13,
        289, 11, 11, 15, 19, 0, 0, None, None, None, None, None), 111, 16.0,
    ),
    "direct_dep_parallel/gaveup/rand0/all": (
        "degraded", None, None, None, [9, None, None, 9, None], (35, 1507, 5,
        3, 1536, 3, 1, 4, 0, 0, 1, 1, 0, 0, 0, None), 159, 103.34313296131302,
    ),
    "direct_dep_parallel/gaveup/rand0/sub": (
        "degraded", None, None, None, [9, None, None, 9, None], (51, 1829, 5,
        3, 1408, 4, 1, 2, 0, 0, 1, 1, 0, 0, 0, None), 207, 98.73646866535998,
    ),
    "direct_dep_parallel/gaveup/rand1/all": (
        "degraded", None, None, None, [None, None, None, None, None], (26, 832,
        0, 0, 1344, 3, 0, 0, 0, 0, 1, 1, 0, 0, 0, None), 123,
        81.61717969609398,
    ),
    "direct_dep_parallel/gaveup/rand1/sub": (
        "degraded", None, None, None, [1, 1, None, None, None], (57, 2085, 2,
        1, 1472, 6, 3, 0, 0, 0, 1, 1, 0, 0, 0, None), 231, 81.22313482928155,
    ),
    "direct_dep_parallel/gaveup/rand2/all": (
        "degraded", None, None, None, [None, None, None, None, None], (42,
        1344, 0, 0, 1920, 3, 0, 0, 0, 0, 1, 1, 0, 0, 0, None), 209,
        102.39582785921576,
    ),
    "direct_dep_parallel/gaveup/rand2/sub": (
        "degraded", None, None, None, [10, None, None, None, 5], (57, 2145, 4,
        3, 1600, 1, 1, 4, 0, 0, 1, 1, 0, 0, 0, None), 254, 98.20587197567349,
    ),
    "direct_dep_parallel/gaveup/spiral5x3/all": (
        "degraded", None, None, None, [1, 2, None, None, None], (38, 1671, 4,
        2, 576, 9, 3, 2, 0, 0, 1, 1, 0, 0, 0, None), 137, 111.8097810833973,
    ),
    "direct_dep_parallel/gaveup/spiral5x3/sub": (
        "degraded", None, None, None, [1, 2, 2, None, None], (38, 1605, 5, 2,
        704, 7, 3, 3, 0, 0, 1, 1, 0, 0, 0, None), 150, 101.58588456260631,
    ),
    "direct_dep_parallel/lossy/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 108.11565694920397,
        None, (91, 3973, 41, 12, 1600, 10, 7, 14, 0, 0, 1, 0, 0, 0, 0, None),
        263, 174.6441372374957,
    ),
    "direct_dep_parallel/lossy/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 140.6894207875799, None,
        (109, 4261, 41, 12, 1728, 9, 7, 13, 0, 0, 1, 0, 0, 0, 0, None), 352,
        224.8206236005431,
    ),
    "direct_dep_parallel/lossy/rand1/all": (
        "not_detected", None, None, None, None, (60, 1817, 6, 2, 1280, 7, 5, 1,
        0, 1, 1, 0, 0, 0, 0, None), 212, 114.57577720947181,
    ),
    "direct_dep_parallel/lossy/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 60.66725716802388, None, (75,
        2362, 9, 4, 1472, 7, 6, 2, 0, 0, 1, 0, 0, 0, 0, None), 275,
        128.4307090259414,
    ),
    "direct_dep_parallel/lossy/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 138.19294798776346,
        None, (105, 4191, 42, 11, 1697, 6, 5, 13, 0, 0, 1, 0, 0, 0, 0, None),
        392, 196.87271515763032,
    ),
    "direct_dep_parallel/lossy/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 96.34950350059616, None, (81,
        3103, 39, 12, 1920, 6, 6, 9, 0, 0, 1, 0, 0, 0, 0, None), 320,
        160.46469396475118,
    ),
    "direct_dep_parallel/lossy/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 122.49917759050639, None,
        (112, 5846, 50, 10, 576, 21, 14, 23, 0, 0, 1, 0, 0, 0, 0, None), 272,
        192.91644859291836,
    ),
    "direct_dep_parallel/lossy/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 144.2703960027186, None, (120,
        6168, 56, 13, 768, 23, 16, 22, 0, 0, 1, 0, 0, 0, 0, None), 287,
        213.34727602661616,
    ),
    "direct_dep_parallel/nonfifo/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 43.84850699841897,
        None, (30, 723, 41, 12, 705, 5, 5, 11, 9, 0, 0, None, None, None, None,
        None), 101, 44.37154513413102,
    ),
    "direct_dep_parallel/nonfifo/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 40.834975971773474, None,
        (30, 723, 41, 12, 1025, 5, 5, 11, 9, 0, 0, None, None, None, None,
        None), 133, 42.80124995348061,
    ),
    "direct_dep_parallel/nonfifo/rand1/all": (
        "not_detected", None, None, None, None, (5, 5, 1, 1, 865, 2, 1, 0, 5,
        1, 0, None, None, None, None, None), 70, 26.79630670203105,
    ),
    "direct_dep_parallel/nonfifo/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 8.931793557893865, None, (11,
        74, 9, 4, 865, 6, 6, 1, 6, 0, 0, None, None, None, None, None), 108,
        27.99650541108868,
    ),
    "direct_dep_parallel/nonfifo/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 26.576801537229905,
        None, (28, 658, 42, 11, 897, 5, 5, 10, 13, 0, 0, None, None, None,
        None, None), 139, 35.792499866709576,
    ),
    "direct_dep_parallel/nonfifo/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 26.579880200019794, None,
        (25, 529, 39, 12, 897, 6, 6, 8, 12, 0, 0, None, None, None, None,
        None), 154, 36.58712231108722,
    ),
    "direct_dep_parallel/nonfifo/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 13.40157965521237, None,
        (39, 984, 50, 10, 257, 6, 6, 15, 16, 0, 0, None, None, None, None,
        None), 96, 15.31691333777781,
    ),
    "direct_dep_parallel/nonfifo/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 14.627218539811455, None, (39,
        984, 56, 13, 321, 6, 6, 15, 19, 0, 0, None, None, None, None, None),
        106, 18.09643128940717,
    ),
    "direct_dep_parallel/restart/rand0/all": (
        "detected", (9, 5, 9, 13, 4), (9, 5, 9, 13, 4), 57.552095496981835,
        None, (59, 2719, 41, 12, 1088, 8, 7, 11, 0, 0, 1, 0, 0, 0, 0, None),
        193, 115.08472497275552,
    ),
    "direct_dep_parallel/restart/rand0/sub": (
        "detected", (9, 9, 13), (9, 5, 9, 13, 4), 62.61771855733102, None, (74,
        3134, 41, 12, 1696, 7, 7, 11, 0, 0, 1, 0, 0, 0, 0, None), 258,
        120.92411638508251,
    ),
    "direct_dep_parallel/restart/rand1/all": (
        "not_detected", None, None, None, None, (34, 1074, 6, 2, 1248, 5, 5, 1,
        0, 1, 1, 0, 0, 0, 0, None), 155, 89.84902528704515,
    ),
    "direct_dep_parallel/restart/rand1/sub": (
        "detected", (1, 2, 2), (1, 3, 2, 2, 1), 18.47605953965838, None, (33,
        1236, 9, 4, 1313, 7, 6, 2, 0, 0, 1, 0, 0, 0, 0, None), 185,
        83.36263742464183,
    ),
    "direct_dep_parallel/restart/rand2/all": (
        "detected", (10, 11, 5, 6, 8), (10, 11, 5, 6, 8), 38.22298416280735,
        None, (47, 2075, 42, 11, 1825, 5, 5, 10, 0, 0, 1, 0, 0, 0, 0, None),
        209, 96.34273252205827,
    ),
    "direct_dep_parallel/restart/rand2/sub": (
        "detected", (10, 3, 6), (10, 7, 3, 6, 6), 59.45864473089362, None, (73,
        3232, 39, 12, 1888, 8, 6, 12, 0, 0, 1, 0, 0, 0, 0, None), 293,
        118.30432171819888,
    ),
    "direct_dep_parallel/restart/spiral5x3/all": (
        "detected", (7, 7, 7, 7, 7), (7, 7, 7, 7, 7), 49.29518978521355, None,
        (92, 4849, 50, 10, 544, 18, 14, 18, 0, 0, 1, 0, 0, 0, 0, None), 237,
        107.8793530710639,
    ),
    "direct_dep_parallel/restart/spiral5x3/sub": (
        "detected", (7, 7, 7), (7, 7, 7, 7, 7), 55.33892363292146, None, (94,
        4945, 56, 13, 736, 20, 16, 17, 0, 0, 1, 0, 0, 0, 0, None), 259,
        115.33453226071131,
    ),
}

#: The same fields per live dd-mode mutex run, keyed
#: ``clients/rounds/bug_every/seed``.
LIVE_UNITS = {
    "2/1/1/3": (
        "detected", (3, 3), (5, 3, 3), 14.0, None, (14, 266, 15, 9, 450, 5,
        None, None, None, 0, None, None, None, None, None, 9), 42, 15.0,
    ),
    "3/2/0/5": (
        "not_detected", None, None, None, None, (40, 922, 48, 30, 801, 10,
        None, None, None, 1, None, None, None, None, None, 30), 108, 40.0,
    ),
    "3/2/1/4": (
        "detected", (3, 3), (5, 3, 3, 1), 15.0, None, (16, 268, 16, 9, 1281, 6,
        None, None, None, 0, None, None, None, None, None, 30), 84, 16.0,
    ),
    "4/3/2/1": (
        "detected", (6, 6), (16, 6, 6, 4, 2), 40.0, None, (42, 924, 54, 30,
        2209, 11, None, None, None, 0, None, None, None, None, None, 63), 170,
        41.0,
    ),
}


def _intervals(cut):
    return None if cut is None else tuple(cut.intervals)


def _row(rep):
    units = paper_units(rep)
    assert set(units) <= {"outcome", *UNIT_KEYS}
    return (
        rep.outcome,
        _intervals(rep.cut),
        _intervals(rep.full_cut),
        rep.detection_time,
        rep.extras.get("partial_cut"),
        tuple(units.get(key) for key in UNIT_KEYS),
        rep.sim.steps,
        rep.sim.time,
    )


def _run(run_id):
    detector, setting, comp_name, which = run_id.split("/")
    seed = int(comp_name.removeprefix("rand")) if comp_name[:4] == "rand" else 7
    comp = COMPUTATIONS[comp_name]()
    wcp = WeakConjunctivePredicate.of_flags(WCPS[which])
    if setting in CHANNEL_MODELS:
        return run_detector(
            detector, comp, wcp, seed=seed,
            channel_model=CHANNEL_MODELS[setting](),
        )
    return run_detector(
        detector, comp, wcp, seed=seed,
        channel_model=ExponentialLatency(1.0), **PLANS[setting](),
    )


def _live(run_id):
    clients, rounds, bug_every, seed = (int(x) for x in run_id.split("/"))
    wcp = mutex_wcp(1, 2)
    apps = build_mutex_system(
        clients, rounds=rounds, bug_every=bug_every, wcp=wcp, mode="dd"
    )
    return run_live_direct_dep(apps, wcp, seed=seed)


def _all_run_ids():
    return [
        f"{detector}/{setting}/{comp}/{which}"
        for detector in DETECTORS
        for setting in (*CHANNEL_MODELS, *PLANS)
        for comp in COMPUTATIONS
        for which in WCPS
    ]


@pytest.mark.parametrize("run_id", sorted(UNITS))
def test_fig4_units_pinned(run_id):
    assert _row(_run(run_id)) == UNITS[run_id]


@pytest.mark.parametrize("run_id", sorted(LIVE_UNITS))
def test_live_direct_dep_units_pinned(run_id):
    assert _row(_live(run_id)) == LIVE_UNITS[run_id]


def test_corpus_is_complete():
    assert sorted(UNITS) == sorted(_all_run_ids())
