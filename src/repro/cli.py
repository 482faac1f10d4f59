"""Command-line interface: generate workloads, detect, run experiments.

Installed as the ``repro`` console script::

    repro generate --processes 4 --sends 8 --seed 7 --density 0.2 \
                   --plant-final-cut --out trace.json
    repro stats trace.json --pids 0,1,2,3
    repro detect trace.json --detector token_vc --pids 0,1,2,3
    repro detect trace.json --trace-out run.jsonl --json
    repro report run.jsonl
    repro experiments --only e1,e6
    repro sweep --matrix benchmarks/sweeps/soak.json --workers 4 --out agg.json
    repro bench-check benchmarks/baselines/*.json --workers 4

``detect`` builds the WCP from a boolean flag variable (the workload
generators' convention); bring your own predicates through the Python
API for anything richer.  ``--trace-out`` records a causal span trace
(JSONL, see ``docs/observability.md``) that ``repro report`` renders as
a per-actor timeline with token itinerary and fault overlay; ``--json``
emits the verdict and full metrics machine-readably for CI.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Sequence

from repro.analysis import render_table
from repro.predicates import WeakConjunctivePredicate
from repro.trace import compute_stats, loads
from repro.trace.generators import WorkloadSpec, generate
from repro.trace.serialization import dumps

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "e1": ("run_e1_token_vc", {}),
    "e2": ("run_e2_direct_dep", {}),
    "e3": ("run_e3_crossover", {}),
    "e4": ("run_e4_multi_token", {}),
    "e5": ("run_e5_parallel_dd", {}),
    "e6": ("run_e6_lower_bound", {}),
    "e7": ("run_e7_vs_centralized", {}),
    "e8": ("run_e8_agreement", {}),
    "e9": ("run_e9_routing_ablation", {}),
    "e10": ("run_e10_average_case", {}),
    "e11": ("run_e11_detection_latency", {}),
    "e12": ("run_e12_strong_predicates", {}),
    "e13": ("run_e13_gcp_online", {}),
    "e14": ("run_e14_fault_overhead", {}),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed detection of conjunctive predicates "
            "(Garg & Chase, ICDCS 1995)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a workload trace (JSON)")
    gen.add_argument("--processes", type=int, required=True, help="N")
    gen.add_argument("--sends", type=int, required=True, help="sends/process")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--density", type=float, default=0.1,
                     help="predicate flag density")
    gen.add_argument("--pattern", default="uniform",
                     choices=("uniform", "ring", "client_server", "pairs"))
    gen.add_argument("--plant-final-cut", action="store_true",
                     help="guarantee the WCP holds at the final cut")
    gen.add_argument("--out", type=pathlib.Path, default=None,
                     help="output file (default: stdout)")

    det = sub.add_parser("detect", help="run a detector on a trace file")
    det.add_argument("trace", type=pathlib.Path)
    det.add_argument("--detector", default="token_vc")
    det.add_argument("--pids", default=None,
                     help="comma-separated predicate pids (default: all)")
    det.add_argument("--var", default="flag", help="flag variable name")
    det.add_argument("--seed", type=int, default=0)
    det.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject faults and run the hardened protocol, e.g. "
             "'drop:token:0.2,dup:*:0.05,crash:mon-1:4:9' "
             "(see repro.simulation.faults.FaultPlan.parse)",
    )
    det.add_argument(
        "--no-hardened", action="store_true",
        help="with --faults, run the plain (fault-intolerant) protocol "
             "anyway, to watch it fail",
    )
    det.add_argument(
        "--self-heal", action="store_true",
        help="with --faults, enable the failure detector so surviving "
             "monitors elect a takeover and regenerate a silent token "
             "(see repro.detect.stack.membership)",
    )
    det.add_argument(
        "--membership", choices=("heartbeat", "gossip"), default="heartbeat",
        help="with --self-heal, the liveness protocol: all-to-all "
             "heartbeats (default) or SWIM-style gossip with "
             "piggybacked membership updates",
    )
    det.add_argument(
        "--gossip-fanout", type=int, default=3, metavar="K",
        help="with --membership gossip, the indirect-probe and "
             "dissemination fanout (default 3)",
    )
    det.add_argument(
        "--gossip-interval", type=float, default=None, metavar="S",
        help="with --membership gossip, seconds between SWIM probe "
             "rounds (default: the config default)",
    )
    det.add_argument(
        "--gossip-timeout", type=float, default=None, metavar="S",
        help="with --membership gossip, the per-stage probe deadline "
             "before suspicion escalates (default: one probe interval)",
    )
    det.add_argument(
        "--json", action="store_true",
        help="print the verdict, metrics totals and fault summary as "
             "JSON (machine-readable; suppresses the human output)",
    )
    det.add_argument(
        "--trace-out", type=pathlib.Path, default=None, metavar="FILE",
        help="record a causal span trace of the protocol run to FILE "
             "(JSONL; online detectors only; render with 'repro report')",
    )
    det.add_argument(
        "--invariants", action="store_true",
        help="attach the streaming protocol-invariant monitors (token "
             "conservation, vc monotonicity, candidate ordering, "
             "election safety, SWIM lifecycle) to the run; violations "
             "are reported and folded into the extras (online "
             "detectors only)",
    )
    det.add_argument(
        "--flight-recorder", type=pathlib.Path, default=None,
        metavar="FILE",
        help="keep an always-on ring buffer of the last K message "
             "events per actor and dump it to FILE (trace JSONL) only "
             "if the run crashes, degrades or violates an invariant",
    )
    det.add_argument(
        "--verbose", action="store_true",
        help="print a one-line per-run summary to stderr",
    )
    det.add_argument(
        "--predicates-file", type=pathlib.Path, default=None, metavar="FILE",
        help="run the multi-predicate service instead of a single WCP: "
             "FILE is a JSON list of {id, pids[, var]} entries (see "
             "'repro service', which this delegates to)",
    )

    svc = sub.add_parser(
        "service",
        help="run the multi-predicate detection service on a trace file",
    )
    svc.add_argument("trace", type=pathlib.Path)
    svc.add_argument(
        "--predicates-file", type=pathlib.Path, required=True, metavar="FILE",
        help="JSON list of registered predicates: "
             '[{"id": "p0", "pids": [0,1,2], "var": "flag"}, ...]',
    )
    svc.add_argument("--detector", default="token_vc",
                     help="detector family; token_vc runs the multiplexed "
                          "service, others run one amortized pass per "
                          "predicate over the shared causality analysis")
    svc.add_argument("--seed", type=int, default=0)
    svc.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject faults (multiplexed/fault-capable detectors only); "
             "same SPEC grammar as 'repro detect --faults'",
    )
    svc.add_argument(
        "--trace-out", type=pathlib.Path, default=None, metavar="FILE",
        help="record a causal span trace of the multiplexed run to FILE "
             "(JSONL; render with 'repro report' for per-predicate rows)",
    )
    svc.add_argument(
        "--json", action="store_true",
        help="print per-predicate verdicts and service metrics as JSON",
    )
    svc.add_argument(
        "--verbose", action="store_true",
        help="print a one-line per-predicate summary to stderr",
    )

    stats = sub.add_parser("stats", help="summarize a trace file")
    stats.add_argument("trace", type=pathlib.Path)
    stats.add_argument("--pids", default=None,
                       help="also count predicate candidates for these pids")
    stats.add_argument("--var", default="flag")

    exp = sub.add_parser("experiments", help="run the paper's experiments")
    exp.add_argument("--only", default=None,
                     help=f"comma-separated subset of {sorted(_EXPERIMENTS)}")

    show = sub.add_parser(
        "show", help="render a trace as an ASCII space-time diagram"
    )
    show.add_argument("trace", type=pathlib.Path)
    show.add_argument("--pids", default=None,
                      help="mark snapshot emissions for these predicate pids")
    show.add_argument("--var", default="flag")
    show.add_argument("--cut", action="store_true",
                      help="also detect and draw the first satisfying cut")

    strong = sub.add_parser(
        "definitely",
        help="decide definitely(φ) for a conjunctive flag predicate",
    )
    strong.add_argument("trace", type=pathlib.Path)
    strong.add_argument("--pids", default=None)
    strong.add_argument("--var", default="flag")

    rep = sub.add_parser(
        "report",
        help="render a span-trace JSONL file (from detect --trace-out) "
             "as an ASCII run report",
    )
    rep.add_argument("trace", type=pathlib.Path,
                     help="a .jsonl span trace written by detect --trace-out")
    rep.add_argument("--width", type=int, default=72,
                     help="timeline width in columns (default 72)")

    ver = sub.add_parser(
        "verify-trace",
        help="replay a recorded span trace (detect --trace-out or a "
             "flight-recorder dump) through the protocol invariant "
             "monitors offline",
    )
    ver.add_argument("trace", type=pathlib.Path,
                     help="a .jsonl span trace to verify")
    ver.add_argument("--refutation-window", type=float, default=None,
                     metavar="S",
                     help="enable the SWIM suspect->confirm timing check "
                          "with this refutation window in simulated "
                          "seconds (the failure detector's "
                          "suspicion_after; default: timing check off)")
    ver.add_argument("--probe-interval", type=float, default=4.0,
                     metavar="S",
                     help="probe period used as emission slack by the "
                          "timing check (default 4.0)")
    ver.add_argument("--json", action="store_true",
                     help="print the violation records as JSON")

    imp = sub.add_parser(
        "import-log",
        help="convert a plain-text event log into a trace JSON file",
    )
    imp.add_argument("log", type=pathlib.Path)
    imp.add_argument("--out", type=pathlib.Path, default=None,
                     help="output trace file (default: stdout)")
    imp.add_argument("--allow-unreceived", action="store_true",
                     help="permit sends without a matching receive")

    swp = sub.add_parser(
        "sweep",
        help="run a (detector x workload x seed x fault) matrix in "
             "parallel and aggregate paper-unit metrics",
    )
    swp.add_argument("--matrix", type=pathlib.Path, default=None,
                     metavar="FILE",
                     help="JSON matrix description (see docs/benchmarking.md); "
                          "overrides the inline axis flags")
    swp.add_argument("--name", default="adhoc",
                     help="matrix name for inline sweeps (default: adhoc)")
    swp.add_argument("--detectors", default="token_vc",
                     help="comma-separated detector names")
    swp.add_argument("--processes", default="4",
                     help="comma-separated Ns, ranges allowed (e.g. 4,8 or 2..6)")
    swp.add_argument("--sends", default="8",
                     help="comma-separated sends/process, ranges allowed")
    swp.add_argument("--seeds", default="0",
                     help="comma-separated seeds, ranges allowed (e.g. 0..4)")
    swp.add_argument("--patterns", default="uniform",
                     help="comma-separated communication patterns")
    swp.add_argument("--densities", default="0.1",
                     help="comma-separated predicate densities")
    swp.add_argument("--faults", action="append", default=None,
                     metavar="SPEC",
                     help="fault plan axis entry; repeatable; 'none' adds a "
                          "fault-free variant (default: fault-free only)")
    swp.add_argument("--plant-final-cut", action="store_true",
                     help="guarantee the WCP holds at the final cut of every "
                          "generated workload")
    swp.add_argument("--self-heal", action="store_true",
                     help="enable the failure detector on fault cells of "
                          "fault-capable detectors")
    swp.add_argument("--membership", default="heartbeat",
                     help="comma-separated liveness protocols for self-heal "
                          "cells: heartbeat and/or gossip (default: heartbeat)")
    swp.add_argument("--gossip-fanouts", default="3",
                     help="comma-separated SWIM fanouts, ranges allowed; "
                          "multiplies gossip cells only (default: 3)")
    swp.add_argument("--gossip-intervals", default="none",
                     help="comma-separated SWIM probe intervals in seconds "
                          "('none' = config default); multiplies gossip "
                          "cells only (default: none)")
    swp.add_argument("--gossip-timeouts", default="none",
                     help="comma-separated SWIM probe deadlines in seconds "
                          "('none' = one probe interval); multiplies "
                          "gossip cells only (default: none)")
    swp.add_argument("--check-invariants", action="store_true",
                     help="run every online cell under the streaming "
                          "protocol-invariant monitors; violation counts "
                          "fold into the per-cell paper units")
    swp.add_argument("--n-predicates", default="1",
                     help="comma-separated predicate counts, ranges "
                          "allowed; multiplies multiplexed-detector cells "
                          "only — each P > 1 cell runs P derived predicates "
                          "over one shared service (default: 1)")
    swp.add_argument("--trace-sample", type=int, default=0, metavar="N",
                     help="record full span traces for the N lowest "
                          "seeds of every group (deterministic sample; "
                          "default 0 = off)")
    swp.add_argument("--trace-dir", type=pathlib.Path, default=None,
                     metavar="DIR",
                     help="directory for --trace-sample traces "
                          "(default: sweep-traces)")
    swp.add_argument("--flight-dir", type=pathlib.Path, default=None,
                     metavar="DIR",
                     help="arm a flight recorder on every online cell "
                          "and dump ring-buffer JSONL here for cells "
                          "that error, degrade or violate an invariant")
    swp.add_argument("--workers", type=int, default=1,
                     help="worker processes (default 1 = run inline)")
    swp.add_argument("--out", type=pathlib.Path, default=None, metavar="FILE",
                     help="write the aggregate repro-bench/1 JSON to FILE")
    swp.add_argument("--quiet", action="store_true",
                     help="suppress the per-group summary table")

    chk = sub.add_parser(
        "bench-check",
        help="re-run the matrices recorded in committed baselines and "
             "fail on any paper-unit drift or wall-time regression",
    )
    chk.add_argument("baselines", type=pathlib.Path, nargs="+",
                     help="baseline JSON files written by 'repro sweep --out'")
    chk.add_argument("--workers", type=int, default=1,
                     help="worker processes for the fresh sweeps")
    chk.add_argument("--wall-tolerance", type=float, default=None,
                     help="max allowed fresh/baseline wall-median ratio "
                          "(default 5.0)")
    chk.add_argument("--summary-out", type=pathlib.Path, default=None,
                     metavar="FILE",
                     help="append a markdown diff summary to FILE "
                          "(e.g. $GITHUB_STEP_SUMMARY)")
    chk.add_argument("--update", action="store_true",
                     help="rewrite the baseline files with the fresh results "
                          "instead of failing (intentional re-baseline)")
    return parser


def _parse_pids(text: str | None, num_processes: int) -> tuple[int, ...]:
    if text is None:
        return tuple(range(num_processes))
    try:
        pids = tuple(sorted({int(p) for p in text.split(",") if p.strip()}))
    except ValueError:
        raise SystemExit(f"error: --pids must be comma-separated ints: {text!r}")
    if not pids:
        raise SystemExit("error: --pids must name at least one process")
    return pids


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        num_processes=args.processes,
        sends_per_process=args.sends,
        seed=args.seed,
        predicate_density=args.density,
        pattern=args.pattern,
        plant_final_cut=args.plant_final_cut,
    )
    text = dumps(generate(spec), indent=2)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _load_trace(path: pathlib.Path):
    if not path.exists():
        raise SystemExit(f"error: no such trace file: {path}")
    from repro.common.errors import ReproError

    try:
        return loads(path.read_text(encoding="utf-8"))
    except ReproError as exc:
        raise SystemExit(f"error: cannot load trace {path}: {exc}")


def _load_predicates_file(path: pathlib.Path, num_processes: int):
    """Parse a service predicates file into ``(pred_id, wcp)`` entries.

    The file is a JSON list of ``{"id": ..., "pids": [...]}`` objects;
    an optional ``"var"`` picks the boolean flag variable (default
    ``flag``, the workload generators' convention).
    """
    import json

    if not path.exists():
        raise SystemExit(f"error: no such predicates file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: bad JSON in {path}: {exc}")
    if not isinstance(doc, list) or not doc:
        raise SystemExit(
            f"error: {path} must hold a non-empty JSON list of predicates"
        )
    entries = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or "pids" not in item:
            raise SystemExit(
                f"error: {path}[{i}] must be an object with a 'pids' list"
            )
        pred_id = str(item.get("id", f"p{i}"))
        try:
            pids = tuple(sorted({int(p) for p in item["pids"]}))
        except (TypeError, ValueError):
            raise SystemExit(
                f"error: {path}[{i}]: 'pids' must be a list of ints"
            )
        if not pids:
            raise SystemExit(f"error: {path}[{i}]: 'pids' is empty")
        bad = [p for p in pids if p >= num_processes or p < 0]
        if bad:
            raise SystemExit(
                f"error: {path}[{i}] names processes {bad} but the trace "
                f"has {num_processes}"
            )
        var = str(item.get("var", "flag"))
        entries.append(
            (pred_id, WeakConjunctivePredicate.of_flags(pids, var=var))
        )
    return entries


def _cmd_service(args: argparse.Namespace) -> int:
    import json

    from repro.common.errors import ConfigurationError, ReproError
    from repro.detect.runner import DETECTORS, run_service

    if args.detector not in DETECTORS:
        raise SystemExit(
            f"error: unknown detector {args.detector!r}; "
            f"choose from {sorted(DETECTORS)}"
        )
    comp = _load_trace(args.trace)
    entries = _load_predicates_file(args.predicates_file, comp.num_processes)
    options: dict = {"seed": args.seed}
    if args.faults is not None:
        from repro.simulation.faults import FaultPlan

        try:
            options["faults"] = FaultPlan.parse(args.faults)
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}")
    tracer = None
    if args.trace_out is not None:
        from repro.obs import SpanTracer

        tracer = SpanTracer()
        options["observers"] = [tracer]
    try:
        report = run_service(
            args.detector, comp, entries, verbose=args.verbose, **options
        )
    except ReproError as exc:
        print(
            f"error: service run ({args.detector!r}) failed: {exc}",
            file=sys.stderr,
        )
        return 3
    from repro.detect.service import service_trace_meta

    # No wall_seconds: CLI output is contractually deterministic, so the
    # wall-derived predicates/sec headline lives in bench_service_scale
    # (where wall columns are informational), not here.
    meta = service_trace_meta(report)
    if tracer is not None:
        from repro.obs import dump_jsonl

        trace_meta = dict(meta)
        trace_meta["detector"] = report.detector
        if report.metrics is not None:
            trace_meta["metrics"] = report.metrics.snapshot()
        if report.sim is not None and report.sim.faults is not None:
            trace_meta["faults"] = report.sim.faults.as_dict()
        trace = tracer.finish(
            report.sim.time if report.sim is not None else None, **trace_meta
        )
        dump_jsonl(trace, args.trace_out)
        if not args.json:
            print(f"trace:     {args.trace_out} ({len(trace)} spans)")
    if args.json:
        doc = {
            "detector": report.detector,
            "multiplexed": report.multiplexed,
            "n_predicates": report.n_predicates,
            "predicates": meta["predicates"],
            "service": meta["service"],
            "extras": dict(report.extras),
        }
        if report.metrics is not None:
            doc["metrics"] = report.metrics.snapshot()
        print(json.dumps(doc, indent=2, default=str))
    else:
        print(f"detector:     {report.detector} "
              f"({'multiplexed' if report.multiplexed else 'amortized'})")
        print(f"predicates:   {report.n_predicates}")
        for row in meta["predicates"]:
            cut = row["cut"]
            line = f"  {row['pred_id']}: {row['outcome']}"
            if cut is not None:
                line += f" cut={tuple(cut)}"
            if row["detection_time"] is not None:
                line += f" t={row['detection_time']:g}"
            print(line)
        service = meta["service"]
        if service.get("predicates_per_sec") is not None:
            print(f"predicates/sec: {service['predicates_per_sec']:.1f}")
        if service.get("marginal_bits_per_predicate") is not None:
            print(
                "marginal bits/predicate: "
                f"{service['marginal_bits_per_predicate']:.0f} "
                f"(shared stream: {service.get('shared_stream_bits')})"
            )
    if any(o.degraded for o in report.outcomes.values()):
        return 2
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.detect.runner import DETECTORS, offline_detectors, run_detector

    if args.predicates_file is not None:
        # Multi-predicate runs route through the service; flags that
        # only make sense for a single-predicate run are rejected.
        for flag, present in (
            ("--pids", args.pids is not None),
            ("--self-heal", args.self_heal),
            ("--no-hardened", args.no_hardened),
            ("--invariants", args.invariants),
            ("--flight-recorder", args.flight_recorder is not None),
        ):
            if present:
                raise SystemExit(
                    f"error: {flag} does not apply to --predicates-file "
                    f"runs; use 'repro service' options"
                )
        return _cmd_service(args)
    if args.detector not in DETECTORS:
        raise SystemExit(
            f"error: unknown detector {args.detector!r}; "
            f"choose from {sorted(DETECTORS)}"
        )
    comp = _load_trace(args.trace)
    pids = _parse_pids(args.pids, comp.num_processes)
    wcp = WeakConjunctivePredicate.of_flags(pids, var=args.var)
    offline = args.detector in offline_detectors()
    options = {} if offline else {"seed": args.seed}
    tracer = None
    if args.trace_out is not None:
        if offline:
            raise SystemExit(
                "error: --trace-out records a protocol simulation; it "
                f"requires an online detector, not {args.detector!r}"
            )
        from repro.obs import SpanTracer

        tracer = SpanTracer()
        options["observers"] = [tracer]
    recorder = None
    if args.invariants or args.flight_recorder is not None:
        if offline:
            raise SystemExit(
                "error: --invariants and --flight-recorder observe a "
                "protocol simulation; they require an online detector, "
                f"not {args.detector!r}"
            )
    if args.invariants:
        options["check_invariants"] = True
    if args.flight_recorder is not None:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder()
        options.setdefault("observers", []).append(recorder)
    if args.self_heal and args.faults is None:
        raise SystemExit("error: --self-heal requires --faults")
    if args.faults is not None:
        from repro.common.errors import ConfigurationError
        from repro.detect.runner import FAULT_CAPABLE
        from repro.simulation.faults import FaultPlan

        if args.detector not in FAULT_CAPABLE:
            raise SystemExit(
                f"error: --faults requires a fault-capable detector: "
                f"{sorted(FAULT_CAPABLE)}"
            )
        try:
            plan = FaultPlan.parse(args.faults)
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}")
        options["faults"] = plan
        if args.no_hardened:
            options["hardened"] = False
        if args.self_heal:
            if args.no_hardened:
                raise SystemExit(
                    "error: --self-heal needs the hardened protocol; "
                    "drop --no-hardened"
                )
            from repro.detect.stack import FailureDetectorConfig

            fd_options = {}
            if args.gossip_interval is not None:
                fd_options["gossip_interval"] = args.gossip_interval
            if args.gossip_timeout is not None:
                fd_options["gossip_timeout"] = args.gossip_timeout
            try:
                options["failure_detector"] = FailureDetectorConfig(
                    membership=args.membership,
                    gossip_fanout=args.gossip_fanout,
                    **fd_options,
                )
            except ConfigurationError as exc:
                raise SystemExit(f"error: {exc}")
        elif args.membership != "heartbeat":
            raise SystemExit(
                "error: --membership gossip needs --self-heal"
            )
        if not args.json:
            print(f"faults:    {plan.describe()}")
    from repro.common.errors import ReproError

    try:
        report = run_detector(
            args.detector, comp, wcp, verbose=args.verbose, **options
        )
    except ReproError as exc:
        # A detector failure must surface as a distinct nonzero exit —
        # never as a traceback swallowed by a wrapping script.
        print(
            f"error: detector {args.detector!r} failed: {exc}",
            file=sys.stderr,
        )
        if recorder is not None and len(recorder):
            recorder.dump(
                args.flight_recorder,
                detector=args.detector,
                outcome="error",
                error=str(exc),
            )
            print(
                f"flight recorder dumped: {args.flight_recorder}",
                file=sys.stderr,
            )
        return 3
    cut_dict = None
    if report.cut is not None:
        cut_dict = {
            "pids": list(report.cut.pids),
            "intervals": list(report.cut.intervals),
        }
    if tracer is not None:
        from repro.obs import dump_jsonl

        meta = {
            "detector": report.detector,
            "predicate": str(wcp),
            "outcome": report.outcome,
            "cut": cut_dict,
            "detection_time": report.detection_time,
            "seed": args.seed,
        }
        if report.metrics is not None:
            meta["metrics"] = report.metrics.snapshot()
        if report.sim is not None and report.sim.faults is not None:
            meta["faults"] = report.sim.faults.as_dict()
        trace = tracer.finish(
            report.sim.time if report.sim is not None else None, **meta
        )
        dump_jsonl(trace, args.trace_out)
        if not args.json:
            print(f"trace:     {args.trace_out} ({len(trace)} spans)")
    flight_file = None
    if recorder is not None:
        violations = int(report.extras.get("invariant_violations", 0) or 0)
        crashes = 0
        if report.sim is not None and report.sim.faults is not None:
            crashes = report.sim.faults.crashes
        if report.degraded or violations or crashes:
            flight_file = recorder.dump(
                args.flight_recorder,
                detector=report.detector,
                outcome=report.outcome,
                invariant_violations=violations,
                crashes=crashes,
            )
            if not args.json:
                print(f"flight:    {flight_file} ({len(recorder)} events)")
    if args.json:
        import json

        doc = {
            "detector": report.detector,
            "predicate": str(wcp),
            "outcome": report.outcome,
            "detected": report.detected,
            "degraded": report.degraded,
            "cut": cut_dict,
            "detection_time": report.detection_time,
            "extras": dict(report.extras),
        }
        if report.metrics is not None:
            doc["metrics"] = report.metrics.snapshot()
        if report.sim is not None:
            doc["sim_time"] = report.sim.time
            if report.sim.faults is not None:
                doc["faults"] = report.sim.faults.as_dict()
        if args.trace_out is not None:
            doc["trace_file"] = str(args.trace_out)
        if flight_file is not None:
            doc["flight_file"] = str(flight_file)
        print(json.dumps(doc, indent=2, default=str))
    else:
        print(f"detector:  {report.detector}")
        print(f"predicate: {wcp}")
        print(f"detected:  {report.detected}")
        if args.faults is not None:
            print(f"outcome:   {report.outcome}")
        if report.detected:
            print(f"first cut: {report.cut}")
        if report.detection_time is not None:
            print(f"simulated detection time: {report.detection_time:.3f}")
        if report.sim is not None and report.sim.faults is not None:
            f = report.sim.faults
            print(
                f"injected faults: dropped={f.dropped} "
                f"duplicated={f.duplicated} corrupted={f.corrupted} "
                f"lost_to_crash={f.lost_to_crash} "
                f"partitioned={f.partitioned} "
                f"crashes={f.crashes} restarts={f.restarts} "
                f"partitions={f.partitions}"
            )
        for key, value in sorted(report.extras.items()):
            if key in ("invariant_violation_details", "invariant_summary"):
                continue
            print(f"{key}: {value}")
        for detail in report.extras.get("invariant_violation_details", ()):
            print(
                f"  violation: t={detail['time']:g} "
                f"{detail['invariant']} {detail['actor']}: "
                f"{detail['detail']}"
            )
    if report.detected:
        return 0
    return 2 if report.degraded else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.common.errors import ObservabilityError
    from repro.obs import load_jsonl, render_report

    if not args.trace.exists():
        raise SystemExit(f"error: no such trace file: {args.trace}")
    try:
        trace = load_jsonl(args.trace)
    except ObservabilityError as exc:
        raise SystemExit(f"error: {exc}")
    print(render_report(trace, width=args.width))
    return 0


def _cmd_verify_trace(args: argparse.Namespace) -> int:
    from repro.common.errors import ObservabilityError
    from repro.obs import load_jsonl, replay_trace

    if not args.trace.exists():
        raise SystemExit(f"error: no such trace file: {args.trace}")
    try:
        trace = load_jsonl(args.trace)
    except ObservabilityError as exc:
        raise SystemExit(f"error: {exc}")
    options: dict = {"probe_interval": args.probe_interval}
    if args.refutation_window is not None:
        options["refutation_window"] = args.refutation_window
    violations = replay_trace(trace, **options)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "trace": str(args.trace),
                    "spans": len(trace),
                    "truncated": bool(trace.meta.get("truncated")),
                    "violations": [v.as_dict() for v in violations],
                },
                indent=2,
            )
        )
    else:
        if trace.meta.get("truncated"):
            print("note: trace file was crash-truncated (torn final line)")
        if trace.meta.get("flight_recorder"):
            print(
                "note: flight-recorder dump (windowed; continuity "
                "checks relaxed)"
            )
        for violation in violations:
            print(violation.describe())
        label = "violation" if len(violations) == 1 else "violations"
        print(
            f"{args.trace}: {len(trace)} spans, "
            f"{len(violations)} invariant {label}"
        )
    return 1 if violations else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    comp = _load_trace(args.trace)
    wcp = None
    if args.pids is not None:
        pids = _parse_pids(args.pids, comp.num_processes)
        wcp = WeakConjunctivePredicate.of_flags(pids, var=args.var)
    stats = compute_stats(comp, wcp)
    print(render_table(["statistic", "value"],
                       [[k, str(v)] for k, v in stats.as_rows()]))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    import repro.analysis as analysis

    if args.only is None:
        names = list(_EXPERIMENTS)
    else:
        names = [x.strip().lower() for x in args.only.split(",") if x.strip()]
        unknown = [x for x in names if x not in _EXPERIMENTS]
        if unknown:
            raise SystemExit(
                f"error: unknown experiments {unknown}; "
                f"choose from {sorted(_EXPERIMENTS)}"
            )
    for name in names:
        fn_name, kwargs = _EXPERIMENTS[name]
        result = getattr(analysis, fn_name)(**kwargs)
        print(render_table(result.headers, result.rows, result.experiment))
        for key, fit in result.fits.items():
            print(f"fit[{key}]: {fit}")
        for note in result.notes:
            print(f"note: {note}")
        print()
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.trace import render_spacetime

    comp = _load_trace(args.trace)
    wcp = None
    cut = None
    if args.pids is not None or args.cut:
        pids = _parse_pids(args.pids, comp.num_processes)
        wcp = WeakConjunctivePredicate.of_flags(pids, var=args.var)
    if args.cut:
        from repro.detect.runner import run_detector

        assert wcp is not None
        report = run_detector("reference", comp, wcp)
        if report.detected:
            cut = report.cut
        else:
            print("(predicate never holds; no cut to draw)")
    print(render_spacetime(comp, wcp, cut))
    return 0


def _cmd_definitely(args: argparse.Namespace) -> int:
    from repro.detect.strong import detect_definitely

    comp = _load_trace(args.trace)
    pids = _parse_pids(args.pids, comp.num_processes)
    wcp = WeakConjunctivePredicate.of_flags(pids, var=args.var)
    report = detect_definitely(comp, wcp)
    print(f"predicate:  {wcp}")
    print(f"definitely: {report.holds}")
    if report.holds:
        print(f"unavoidable box (local-state ranges): {report.box}")
    elif report.reason:
        print(f"reason: {report.reason}")
    print(f"comparisons: {report.comparisons}")
    return 0 if report.holds else 1


def _cmd_import_log(args: argparse.Namespace) -> int:
    from repro.common.errors import SerializationError
    from repro.trace.import_log import parse_log

    if not args.log.exists():
        raise SystemExit(f"error: no such log file: {args.log}")
    try:
        comp = parse_log(
            args.log.read_text(encoding="utf-8"),
            allow_unreceived=args.allow_unreceived,
        )
    except SerializationError as exc:
        raise SystemExit(f"error: {exc}")
    text = dumps(comp, indent=2)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out} (N={comp.num_processes}, "
              f"events={comp.total_events()})")
    return 0


def _float_or_none(text: str) -> float | None:
    """Axis value cast: ``none`` selects the config default."""
    if text.lower() == "none":
        return None
    return float(text)


def _parse_axis(text: str, name: str, convert):
    """Parse a comma-separated axis; int axes accept ``a..b`` ranges."""
    values: list = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if convert is int and ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise SystemExit(f"error: bad range in --{name}: {part!r}")
            if hi < lo:
                raise SystemExit(f"error: empty range in --{name}: {part!r}")
            values.extend(range(lo, hi + 1))
            continue
        try:
            values.append(convert(part))
        except ValueError:
            raise SystemExit(f"error: bad value in --{name}: {part!r}")
    if not values:
        raise SystemExit(f"error: --{name} must name at least one value")
    return tuple(values)


def _sweep_matrix_from_args(args: argparse.Namespace):
    from repro.common.errors import ConfigurationError
    from repro.sweep import SweepMatrix, load_matrix

    try:
        if args.matrix is not None:
            return load_matrix(args.matrix)
        faults: tuple[str | None, ...] = (None,)
        if args.faults:
            faults = tuple(
                None if spec.strip().lower() == "none" else spec
                for spec in args.faults
            )
        return SweepMatrix(
            name=args.name,
            detectors=_parse_axis(args.detectors, "detectors", str),
            processes=_parse_axis(args.processes, "processes", int),
            sends=_parse_axis(args.sends, "sends", int),
            patterns=_parse_axis(args.patterns, "patterns", str),
            densities=_parse_axis(args.densities, "densities", float),
            seeds=_parse_axis(args.seeds, "seeds", int),
            faults=faults,
            plant_final_cut=args.plant_final_cut,
            self_heal=args.self_heal,
            membership=_parse_axis(args.membership, "membership", str),
            gossip_fanouts=_parse_axis(
                args.gossip_fanouts, "gossip-fanouts", int
            ),
            gossip_intervals=_parse_axis(
                args.gossip_intervals, "gossip-intervals", _float_or_none
            ),
            gossip_timeouts=_parse_axis(
                args.gossip_timeouts, "gossip-timeouts", _float_or_none
            ),
            n_predicates=_parse_axis(
                args.n_predicates, "n-predicates", int
            ),
        )
    except ConfigurationError as exc:
        raise SystemExit(f"error: {exc}")


def _run_sweep_or_exit(matrix, workers: int, **extra):
    """Run a sweep; report worker failures and return (result, exit_code)."""
    from repro.sweep import run_sweep

    result = run_sweep(matrix, workers=workers, **extra)
    for error in result.errors:
        print(
            f"error: sweep cell {error['id']} failed: {error['error']}",
            file=sys.stderr,
        )
    return result, (0 if result.ok else 3)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    if args.trace_sample < 0:
        raise SystemExit("error: --trace-sample must be >= 0")
    matrix = _sweep_matrix_from_args(args)
    if args.check_invariants:
        import dataclasses

        matrix = dataclasses.replace(matrix, check_invariants=True)
    trace_dir = args.trace_dir
    if args.trace_sample > 0 and trace_dir is None:
        trace_dir = pathlib.Path("sweep-traces")
    result, code = _run_sweep_or_exit(
        matrix,
        args.workers,
        trace_dir=trace_dir,
        trace_sample=args.trace_sample,
        flight_dir=args.flight_dir,
    )
    traced = [r for r in result.records if "trace_file" in r]
    if traced and not args.quiet:
        print(f"recorded {len(traced)} cell traces under {trace_dir}")
    dumped = [r for r in result.records if "flight_file" in r]
    if dumped:
        for record in dumped:
            print(
                f"flight dump: {record['flight_file']}",
                file=sys.stderr,
            )
    if not args.quiet:
        print(render_table(result.headers, result.rows, result.experiment))
        for note in result.notes:
            print(f"note: {note}")
    if args.out is not None:
        args.out.write_text(
            json.dumps(result.aggregate(), indent=2, default=str) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out} ({len(result.records)} cells)")
    return code


def _cmd_bench_check(args: argparse.Namespace) -> int:
    import json

    from repro.common.errors import ConfigurationError, ObservabilityError
    from repro.sweep import SweepMatrix, compare, load_baseline
    from repro.sweep.baseline import (
        DEFAULT_WALL_TOLERANCE,
        dump_comparisons_markdown,
    )

    tolerance = (
        args.wall_tolerance
        if args.wall_tolerance is not None
        else DEFAULT_WALL_TOLERANCE
    )
    comparisons = []
    worker_failure = False
    for path in args.baselines:
        try:
            baseline_doc = load_baseline(path)
            matrix = SweepMatrix.from_dict(baseline_doc["params"])
        except (ConfigurationError, ObservabilityError) as exc:
            raise SystemExit(f"error: {exc}")
        result, code = _run_sweep_or_exit(matrix, args.workers)
        if code != 0:
            worker_failure = True
            continue
        fresh_doc = result.aggregate()
        if args.update:
            path.write_text(
                json.dumps(fresh_doc, indent=2, default=str) + "\n",
                encoding="utf-8",
            )
            print(f"re-baselined {path} ({len(result.records)} cells)")
            continue
        try:
            comparison = compare(
                baseline_doc, fresh_doc, wall_tolerance=tolerance,
                name=str(path),
            )
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}")
        comparisons.append(comparison)
        print(comparison.render())
    if args.summary_out is not None and comparisons:
        dump_comparisons_markdown(comparisons, args.summary_out)
    if worker_failure:
        return 3
    if any(not comparison.ok for comparison in comparisons):
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "detect": _cmd_detect,
        "service": _cmd_service,
        "stats": _cmd_stats,
        "experiments": _cmd_experiments,
        "show": _cmd_show,
        "definitely": _cmd_definitely,
        "report": _cmd_report,
        "verify-trace": _cmd_verify_trace,
        "import-log": _cmd_import_log,
        "sweep": _cmd_sweep,
        "bench-check": _cmd_bench_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
