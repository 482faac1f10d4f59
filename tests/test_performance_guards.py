"""Coarse performance guards: the polynomial algorithms must stay fast.

These are not micro-benchmarks (those live in ``benchmarks/``); they are
regression tripwires asserting that no accidental quadratic/exponential
blowup creeps into the hot paths.  Budgets are set ~10x above current
timings so they only fire on asymptotic regressions.
"""

import time

from repro.detect import run_detector
from repro.detect.strong import detect_definitely
from repro.predicates import WeakConjunctivePredicate
from repro.trace import dumps, loads, random_computation, spiral_computation


def elapsed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestPolynomialBudgets:
    def test_reference_on_large_spiral(self):
        comp = spiral_computation(32, 64)  # ~4k events, ~2k candidates
        wcp = WeakConjunctivePredicate.of_flags(range(32))
        seconds = elapsed(lambda: run_detector("reference", comp, wcp))
        assert seconds < 10.0

    def test_token_vc_on_large_spiral(self):
        comp = spiral_computation(24, 48)
        wcp = WeakConjunctivePredicate.of_flags(range(24))
        seconds = elapsed(lambda: run_detector("token_vc", comp, wcp))
        assert seconds < 20.0

    def test_direct_dep_on_wide_system(self):
        comp = spiral_computation(48, 16)
        wcp = WeakConjunctivePredicate.of_flags(range(48))
        seconds = elapsed(lambda: run_detector("direct_dep", comp, wcp))
        assert seconds < 20.0

    def test_strong_detector_on_large_run(self):
        comp = random_computation(24, 64, seed=1, predicate_density=0.5)
        wcp = WeakConjunctivePredicate.of_flags(range(24))
        seconds = elapsed(lambda: detect_definitely(comp, wcp))
        assert seconds < 10.0

    def test_interval_analysis_linear_sweep(self):
        comp = random_computation(16, 128, seed=2)
        seconds = elapsed(comp.analysis)
        assert seconds < 5.0

    def test_loads_linear(self):
        # ~24.5k events decode in ~0.09 s on a 2-core Linux host; a check
        # that looked at every earlier event would take minutes.
        text = dumps(random_computation(16, 512, seed=3))
        seconds = elapsed(lambda: loads(text))
        assert seconds < 1.0
