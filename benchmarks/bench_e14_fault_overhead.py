"""E14 — cost of the hardened (fault-tolerant) protocol at zero faults.

Hardening is opt-in; this benchmark keeps it honest.  On identical
fault-free workloads the hardened single-token protocol must

* report exactly the same first cut as the plain Fig. 3 algorithm;
* pay only per-hop acks and frame headers (bounded msg/bit ratios);
* add at most 15% simulated detection time — acks ride alongside the
  token instead of delaying it.
"""

from repro.analysis import run_e14_fault_overhead
from repro.detect.runner import run_detector
from repro.predicates import WeakConjunctivePredicate
from repro.trace.generators import random_computation

SIZES = ((4, 8), (4, 16), (8, 8), (8, 16), (8, 32))
SEEDS = (0, 1, 2)


def bench_e14_fault_overhead(benchmark, emit):
    result = benchmark.pedantic(
        run_e14_fault_overhead, kwargs={"sizes": SIZES, "seeds": SEEDS},
        rounds=1, iterations=1,
    )
    emit(result, "e14_fault_overhead.txt",
         params={"sizes": SIZES, "seeds": SEEDS})

    assert all(row[-1] for row in result.rows), \
        "hardened and plain variants must report identical cuts"
    # Acks at most double the message count; they are single words, so
    # the bit overhead is smaller still.
    assert all(ratio <= 2.0 for ratio in result.column("msg_ratio"))
    assert all(ratio <= 1.6 for ratio in result.column("bit_ratio"))


def bench_e14_detection_time_overhead(benchmark, emit):
    """Simulated detection time: hardened within 15% of plain."""

    def measure():
        pairs = []
        for n, m in SIZES:
            for seed in SEEDS:
                comp = random_computation(
                    n, m, seed=seed, predicate_density=0.3,
                    plant_final_cut=True,
                )
                wcp = WeakConjunctivePredicate.of_flags(tuple(range(n)))
                plain = run_detector("token_vc", comp, wcp, seed=seed)
                hard = run_detector(
                    "token_vc", comp, wcp, seed=seed, hardened=True,
                )
                assert plain.detected and hard.detected
                pairs.append((plain.detection_time, hard.detection_time))
        return pairs

    pairs = benchmark.pedantic(measure, rounds=1, iterations=1)
    worst = max(hard / plain for plain, hard in pairs)
    print(f"\nE14 simulated-time ratio (hardened/plain): worst {worst:.3f}")
    assert worst <= 1.15, (
        f"hardened protocol slowed detection by {(worst - 1) * 100:.1f}% "
        "at zero faults (budget: 15%)"
    )


def bench_e14_invariant_monitor_overhead(benchmark):
    """The invariant monitors must be passive and near-free.

    Passive: attaching ``check_invariants=True`` changes no observable
    of the run — same verdict, same first cut, same simulated
    detection time, same paper-unit message/bit totals.  Near-free:
    the wall-clock cost of checking every sent message online stays
    within 5% of the unmonitored run at zero faults (with a generous
    absolute backstop so a noisy scheduler tick cannot flake a run
    whose baseline is microseconds).
    """
    import time

    def measure():
        rows = []
        for n, m in SIZES:
            for seed in SEEDS:
                comp = random_computation(
                    n, m, seed=seed, predicate_density=0.3,
                    plant_final_cut=True,
                )
                wcp = WeakConjunctivePredicate.of_flags(tuple(range(n)))
                t0 = time.perf_counter()
                plain = run_detector(
                    "token_vc", comp, wcp, seed=seed, hardened=True,
                )
                t1 = time.perf_counter()
                watched = run_detector(
                    "token_vc", comp, wcp, seed=seed, hardened=True,
                    check_invariants=True,
                )
                t2 = time.perf_counter()
                assert watched.extras["invariant_violations"] == 0
                assert watched.detected == plain.detected
                assert watched.cut == plain.cut
                assert watched.detection_time == plain.detection_time
                p_tot = plain.metrics.snapshot()["totals"]
                w_tot = watched.metrics.snapshot()["totals"]
                assert w_tot["messages"] == p_tot["messages"]
                assert w_tot["bits"] == p_tot["bits"]
                rows.append((t1 - t0, t2 - t1))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    plain_s = sum(r[0] for r in rows)
    watched_s = sum(r[1] for r in rows)
    ratio = watched_s / plain_s
    print(f"\nE14 monitored/plain wall ratio: {ratio:.3f} "
          f"({watched_s:.3f}s vs {plain_s:.3f}s)")
    # 5% relative budget, with an absolute backstop: tiny baselines
    # amplify scheduler noise into huge ratios.
    assert ratio <= 1.05 or watched_s - plain_s <= 0.25, (
        f"invariant monitors cost {(ratio - 1) * 100:.1f}% wall time "
        "at zero faults (budget: 5% or 250ms absolute)"
    )
