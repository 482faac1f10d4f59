#!/usr/bin/env python3
"""End-to-end detection benchmark: trace text -> verdict, layer by layer.

One client in one process runs whole detections in a closed loop: each
run parses a recorded trace, runs the detector (or the multi-predicate
service) and checks the verdict against the offline reference before
the next run starts.  See ``README.md`` beside this file for the
workloads, the metrics and why each was chosen.

Usage::

    python benchmarks/e2e/run.py [--seed S] [--out results.json]
                                 [--trace-out spans.jsonl] [--smoke]
    python benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python benchmarks/e2e/run.py --compare A.json B.json

The first form runs all four workloads on a fixed schedule and prints
every end-to-end and per-layer metric.  The second runs one workload
for ``T`` seconds and prints, as its last line, one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The third compares two results files of the first
form.  Every form exits 1 if a verdict failed or a check did not hold.
Metric names, units, directions and bounds come from ``BENCHMARK.json``
at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

sys.path[:0] = [str(SRC), str(HERE)]
try:
    import repro
except ImportError as exc:
    raise SystemExit(f"run.py: cannot import repro from {SRC}: {exc}")
if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"run.py: repro was imported from outside {SRC}")

from tracing import TARGETS, Tracer  # noqa: E402
from workloads import BY_NAME, WORKLOADS, attempt, prepare  # noqa: E402

#: End-to-end metrics printed and compared besides BENCHMARK.json's.
#: BENCHMARK.json lists only metrics that are never 0 and whose quartile
#: spread over ten ``--seed`` values stays well within their bound; the
#: first two move 10-35% with the traces a seed generates, and
#: ``failed_frac`` is 0.  ``--compare`` holds all three exact.
EXTRA_E2E = [
    {"name": "sim_time_to_verdict_p50", "unit": "simtime", "better": "lower"},
    {"name": "mon_msgs_per_verdict", "unit": "msgs", "better": "lower"},
    {"name": "failed_frac", "unit": "fraction", "better": "lower"},
]
#: Counted metrics: one seed gives exactly the same value every time.
EXACT = {"wire_bits_per_verdict", *(m["name"] for m in EXTRA_E2E)}
#: Per-layer wall-time metrics and the traced layers they need.
NEEDS = {
    "trace.intervals.analysis_s": {"trace.intervals"},
    "trace.intervals.builds": {"trace.intervals"},
    "trace.intervals.calls": {"trace.intervals"},
    "detect.harness_self_s": set(TARGETS),
    "simulation.kernel.run_s": {"simulation.kernel"},
    "simulation.kernel.self_s": {"simulation.kernel", "actors"},
    "simulation.kernel.events_per_s": {"simulation.kernel"},
    "app.slice_s": {"actors"},
    "monitor.slice_s": {"actors"},
    "monitor.slices": {"actors"},
    "injector.slice_s": {"actors"},
}
#: Traced wall times reported as medians over the traced runs.
TRACED_TIMES = (
    "trace.load_s", "trace.intervals.analysis_s", "detect.harness_self_s",
    "simulation.kernel.run_s", "simulation.kernel.self_s", "app.slice_s",
    "monitor.slice_s", "injector.slice_s",
)
#: Traced counts reported as means per traced run.
TRACED_COUNTS = ("trace.intervals.builds", "trace.intervals.calls", "monitor.slices")

ROUNDS = 8
MIN_ROUNDS = 2
BUILDS = 3
MEMORY_RUNS = 4


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"run.py: cannot read {path}: {exc}")


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


class Tally:
    """Everything measured on one workload."""

    def __init__(self, prep, setup_s: list[float]) -> None:
        self.prep = prep
        self.setup_s = setup_s
        #: untraced timed runs: (round, run index, wall seconds)
        self.walls: list[tuple[int, int, float]] = []
        #: correct verdicts per second, one per round
        self.rates: list[float] = []
        #: traced runs: (run index, wall seconds, layer attribution)
        self.traced: list[tuple[int, float, dict]] = []
        self.peaks: list[int] = []
        #: the first outcome of each run index; later runs must repeat it
        self.first: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.passive = True
        self.errors: list[str] = []

    @property
    def name(self) -> str:
        return self.prep.workload.name

    def record(self, index: int, outcome, traced: bool = False) -> None:
        """Count an outcome's verdicts; check it repeats the run's first."""
        self.attempted += outcome.verdicts
        self.failed += outcome.failed
        if outcome.raised:
            return
        first = self.first.setdefault(index, outcome)
        if first.fingerprint() != outcome.fingerprint():
            if traced:
                self.passive = False
            self.errors.append(
                f"{self.name}: run {index} counted differently"
                f"{' when traced' if traced else ''} than at first"
            )

    # -- passes ---------------------------------------------------------
    def timed_round(self) -> None:
        """Every pooled trace once, each run timed on its own."""
        round_no = len(self.rates)
        verdicts = 0
        started = perf_counter()
        for index in range(len(self.prep.texts)):
            wall, outcome = attempt(self.prep, index)
            self.record(index, outcome)
            if not outcome.raised:
                self.walls.append((round_no, index, wall))
            verdicts += outcome.verdicts - outcome.failed
        self.rates.append(verdicts / (perf_counter() - started))

    def traced_round(self, tracer: Tracer, label: str) -> None:
        for index in range(len(self.prep.texts)):
            run_id = f"{self.name}/{label}/{index}"
            wall, outcome = attempt(self.prep, index, tracer, run_id)
            self.record(index, outcome, traced=True)
            if not outcome.raised:
                self.traced.append((index, wall, tracer.last))

    def memory_run(self, index: int) -> None:
        gc.collect()
        tracemalloc.start()
        try:
            _wall, outcome = attempt(self.prep, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.record(index, outcome)
        if not outcome.raised:
            self.peaks.append(peak)

    # -- summaries ------------------------------------------------------
    def cycle(self) -> list:
        """One outcome per run index: the counted view of a round."""
        return [self.first[i] for i in sorted(self.first)]

    def end_to_end(self) -> dict[str, tuple[float, int, float]]:
        """``{metric: (value, samples, spread)}``; the spread is that of
        the per-round (or per-build) values behind the metric."""
        walls = [w for _r, _i, w in self.walls]
        by_round = defaultdict(list)
        for round_no, _i, wall in self.walls:
            by_round[round_no].append(wall)
        cycle = self.cycle()
        verdicts = sum(o.verdicts for o in cycle) or 1
        times = [t for o in cycle for t in o.detection_times]

        def per_verdict(key):
            return sum(o.counts[key] for o in cycle) / verdicts

        metrics = {
            "setup_s": (
                statistics.median(self.setup_s), len(self.setup_s),
                spread(self.setup_s),
            ),
            "run_s_p50": (
                statistics.median(walls), len(walls),
                spread([statistics.median(ws) for ws in by_round.values()]),
            ),
            "verdicts_per_s": (
                statistics.median(self.rates), len(self.rates), spread(self.rates)
            ),
            "wire_bits_per_verdict": (per_verdict("wire_bits"), len(cycle), 0.0),
            "sim_time_to_verdict_p50": (
                statistics.median(times) if times else 0.0, len(times), 0.0
            ),
            "mon_msgs_per_verdict": (per_verdict("mon_msgs"), len(cycle), 0.0),
            "failed_frac": (self.failed / max(self.attempted, 1), self.attempted, 0.0),
        }
        if self.peaks:
            metrics["peak_alloc_mb"] = (max(self.peaks) / 1e6, len(self.peaks), 0.0)
        return metrics

    def per_layer(self, missing: set[str]) -> dict[str, tuple[float, int]]:
        """``{metric: (value, samples)}``: counts are means per run over
        one round, wall times medians over the traced runs."""
        cycle = self.cycle()
        metrics: dict[str, tuple[float, int]] = {}
        if cycle:
            for key in cycle[0].counts:
                if "." in key:  # dotted keys are per-layer metric names
                    mean = sum(o.counts[key] for o in cycle) / len(cycle)
                    metrics[key] = (mean, len(cycle))
            sends = sum(o.counts["candidate_sends"] for o in cycle)
            unique = sum(o.counts["unique_candidates"] for o in cycle)
            metrics["transport.goodput"] = (unique / sends if sends else 1.0, len(cycle))
            wire_bits = sum(o.counts["wire_bits"] for o in cycle) / len(cycle)
            metrics["service.bits_per_pred"] = (
                wire_bits / len(self.prep.predicates)
                if self.prep.shape.service else 0.0,
                len(cycle),
            )
        traced = [result for _i, _w, result in self.traced]
        if traced:
            for key in TRACED_TIMES:
                metrics[key] = (statistics.median(r[key] for r in traced), len(traced))
            for key in TRACED_COUNTS:
                metrics[key] = (sum(r[key] for r in traced) / len(traced), len(traced))
            rates = [
                self.first[i].counts["simulation.kernel.steps"]
                / r["simulation.kernel.run_s"]
                for i, _w, r in self.traced
                if r["simulation.kernel.run_s"] > 0
            ]
            if rates:
                metrics["simulation.kernel.events_per_s"] = (
                    statistics.median(rates), len(rates)
                )
            indices = {i for i, _w, _r in self.traced}
            untraced = [w for _r, i, w in self.walls if i in indices]
            if untraced:
                metrics["obs.tracing_overhead"] = (
                    statistics.median(w for _i, w, _r in self.traced)
                    / statistics.median(untraced) - 1,
                    len(traced),
                )
        walls = [w for _r, _i, w in self.walls]
        if len(walls) >= 2:
            metrics["run.p90_s"] = (statistics.quantiles(walls, n=10)[-1], len(walls))
        metrics["run.samples"] = (len(walls), len(walls))
        for key, layers in NEEDS.items():
            if layers & missing:
                metrics.pop(key, None)
        return metrics

    def coverage(self) -> float | None:
        """Median share of a traced run's wall that named self times cover."""
        if not self.traced:
            return None
        return statistics.median(
            r["attributed_s"] / r["wall"] for _i, _w, r in self.traced
        )


def run_rounds(tallies, step, rounds=None, seconds=None) -> None:
    """Call ``step(tally)`` on every workload in turn, once per round, for
    ``rounds`` rounds or as many as fit in ``seconds``; interleaving the
    workloads makes machine drift hit all of them alike."""
    started = perf_counter()
    done = 0
    while rounds is None or done < rounds:
        elapsed = perf_counter() - started
        if seconds is not None and done >= MIN_ROUNDS and (
            elapsed + elapsed / done > seconds
        ):
            break
        for tally in tallies:
            step(tally)
        gc.collect()
        done += 1


def build(names, seed: int, builds: int, smoke: bool) -> list[Tally]:
    """Set up every workload ``builds`` times, interleaved; time each."""
    preps: dict[str, object] = {}
    setup: dict[str, list[float]] = defaultdict(list)
    for _ in range(builds):
        for name in names:
            gc.collect()
            started = perf_counter()
            prep = prepare(BY_NAME[name], seed, smoke)
            setup[name].append(perf_counter() - started)
            if name in preps and preps[name].digest != prep.digest:
                raise SystemExit(f"run.py: {name}: set-up is not deterministic")
            preps[name] = prep
    return [Tally(preps[name], setup[name]) for name in names]


def report_errors(tallies) -> bool:
    """Print every check that did not hold; True if all held."""
    ok = True
    for tally in tallies:
        for error in tally.errors:
            print(f"error: {error}", file=sys.stderr)
        ok &= tally.failed == 0 and not tally.errors
    return ok


# -- the single-workload form: one JSON line ------------------------------
def run_one(args, spec) -> int:
    tallies = build([args.workload], args.seed, BUILDS, smoke=False)
    tally = tallies[0]
    if args.trace:
        tracer = Tracer()

        def paired(t: Tally) -> None:
            label = str(len(t.rates))
            t.timed_round()
            with tracer:
                t.traced_round(tracer, label)

        run_rounds(tallies, paired, seconds=args.seconds)
        values = {k: v for k, (v, _n) in tally.per_layer(tracer.missing).items()}
        wanted = spec["per_layer"]
    else:
        run_rounds(tallies, Tally.timed_round, seconds=args.seconds)
        for index in range(MEMORY_RUNS):
            tally.memory_run(index)
        values = {k: v for k, (v, _n, _s) in tally.end_to_end().items()}
        wanted = spec["end_to_end"]
    correct = report_errors(tallies)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in values
        },
    }))
    return 0 if correct else 1


# -- the full form: all workloads, printed and saved ----------------------
def run_all(args, spec) -> int:
    smoke = args.smoke
    tallies = build([w.name for w in WORKLOADS], args.seed,
                    1 if smoke else BUILDS, smoke)
    run_rounds(tallies, Tally.timed_round, rounds=1 if smoke else ROUNDS)
    tracer = Tracer()
    with tracer:
        for tally in tallies:
            tally.traced_round(tracer, "traced")
    for tally in tallies:
        for index in range(1 if smoke else MEMORY_RUNS):
            tally.memory_run(index)

    e2e_specs = [*spec["end_to_end"], *EXTRA_E2E]
    doc = {
        "schema": "e2e-bench/1",
        "seed": args.seed,
        "smoke": smoke,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "missing_layers": sorted(tracer.missing),
        "workloads": {},
    }
    for tally in tallies:
        e2e = tally.end_to_end()
        layer = tally.per_layer(tracer.missing)
        doc["workloads"][tally.name] = {
            "digest": tally.prep.digest,
            "passive": tally.passive,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "errors": tally.errors,
            "coverage": tally.coverage(),
            "metrics": {
                m["name"]: dict(
                    zip(("value", "samples", "spread"), e2e[m["name"]]),
                    unit=m["unit"],
                )
                for m in e2e_specs
                if m["name"] in e2e
            },
            "per_layer": {
                m["name"]: dict(
                    zip(("value", "samples"), layer[m["name"]]), unit=m["unit"]
                )
                for m in spec["per_layer"]
                if m["name"] in layer
            },
        }
    print_results(doc)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    if args.trace_out:
        out = Path(args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            "".join(json.dumps(span) + "\n" for span in tracer.spans),
            encoding="utf-8",
        )
    return 0 if report_errors(tallies) else 1


def print_results(doc: dict) -> None:
    env = doc["environment"]
    print(
        f"e2e benchmark  seed={doc['seed']}  smoke={doc['smoke']}  "
        f"cpu_count={env['cpu_count']}  python={env['python']}"
    )
    for name, w in doc["workloads"].items():
        coverage = w["coverage"]
        print(
            f"\n[{name}]  verdicts failed {w['failed']}/{w['attempted']}  "
            f"passive={w['passive']}  self-time coverage="
            + ("n/a" if coverage is None else f"{coverage:.3f}")
        )
        for section in ("metrics", "per_layer"):
            for metric, m in w[section].items():
                print(
                    f"  {metric:34s} {m['value']:>16.6g} {m['unit']:9s} "
                    f"n={m['samples']}"
                )


# -- the compare form -----------------------------------------------------
def compare(path_a: str, path_b: str, spec) -> int:
    """Both values, delta, bound and verdict per workload and metric.

    A counted metric must not get worse at all.  A timed one is
    ``unresolved`` when either side's run-to-run spread exceeds its
    bound, ``regressed`` when B is worse than A by more than the bound.
    """
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    if (a["seed"], a["smoke"]) != (b["seed"], b["smoke"]):
        raise SystemExit("run.py: compare needs two results of one --seed and size")
    print(f"A: {path_a}  {a['environment']}")
    print(f"B: {path_b}  {b['environment']}")
    print(
        f"{'workload':14s} {'metric':26s} {'A':>14s} {'B':>14s} "
        f"{'delta':>8s} {'bound':>7s}  verdict"
    )
    bad = 0
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for m in [*spec["end_to_end"], *EXTRA_E2E]:
            name = m["name"]
            if name not in ma or name not in mb:
                continue
            va, vb = ma[name]["value"], mb[name]["value"]
            worse = (vb - va) if m["better"] == "lower" else (va - vb)
            delta = (vb - va) / va if va else (0.0 if vb == va else float("inf"))
            if name in EXACT:
                bound = "exact"
                verdict = "regressed" if worse > 0 else "ok"
            else:
                bound = f"{m['bound']:.0%}"
                if max(ma[name]["spread"], mb[name]["spread"]) > m["bound"]:
                    verdict = "unresolved"
                elif worse > m["bound"] * va:
                    verdict = "regressed"
                else:
                    verdict = "ok"
            bad += verdict != "ok"
            print(
                f"{workload:14s} {name:26s} {va:14.6g} {vb:14.6g} "
                f"{delta:+8.2%} {bound:>7s}  {verdict}"
            )
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 round x 3 runs per workload at reduced sizes")
    parser.add_argument("--out", help="write the results JSON here")
    parser.add_argument("--trace-out", help="write the traced pass's spans (JSONL)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
