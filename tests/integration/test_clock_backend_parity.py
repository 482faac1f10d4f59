"""Integration: detection is independent of how the trace was ingested.

The trace layer decodes JSON in one pass, validates causality with the
wake-list scheduler and builds interval vector clocks only on first
read (the §4 detectors never read them).  None of that may leak into a
run.  Under every fault regime we ship (message loss + crash,
partition + heal, rolling monitor churn) each hardened detector must
produce **the same verdict, the same first cut and byte-identical
paper units** on

* the in-memory computation with every vector clock built up front, and
* the same computation decoded afresh by ``loads(dumps(...))``, whose
  vectors are built lazily by the run itself (or never);

with the streaming invariant monitors attached, the same invariant
verdicts too.  Any divergence means an ingest path computed a different
causal structure, which is a correctness bug, not a perf trade-off.
"""

import json

import pytest

from repro.detect import run_detector
from repro.detect.runner import paper_units
from repro.predicates import WeakConjunctivePredicate
from repro.simulation.faults import (
    ChurnEvent,
    CrashEvent,
    FaultPlan,
    FaultRule,
    PartitionEvent,
)
from repro.trace import random_computation
from repro.trace.serialization import dumps, loads

HARDENED = ("token_vc", "token_vc_multi", "direct_dep", "direct_dep_parallel")

LOSSY = FaultPlan(
    rules=(FaultRule(kind="token", drop=0.2),),
    crashes=(CrashEvent("mon-1", 4.0, 9.0),),
)

PARTITIONED = FaultPlan(
    rules=(FaultRule(kind="token", drop=0.15),),
    crashes=(CrashEvent("mon-1", 6.0, 60.0),),
    partitions=(
        PartitionEvent(10.0, (frozenset({"mon-0", "app-0"}),), 25.0),
    ),
)

CHURN = FaultPlan(
    rules=(FaultRule(kind="token", drop=0.1),),
    churns=(ChurnEvent(("mon-1", "mon-2"), 4.0, 10.0, 5.0, rounds=2),),
)


def _case(seed):
    comp = random_computation(
        3, 4, seed=seed, predicate_density=0.3,
        plant_final_cut=(seed % 2 == 0),
    )
    return comp, WeakConjunctivePredicate.of_flags(range(3))


def _units_bytes(rep) -> bytes:
    return json.dumps(paper_units(rep), sort_keys=True).encode()


def _prebuilt(comp):
    """``comp`` with every interval vector clock already built."""
    comp.analysis().vector(0, 1)
    return comp


def _run(name, comp, wcp, seed, plan, **options):
    return run_detector(
        name, comp, wcp, seed=seed, faults=plan, hardened=True, **options
    )


def _assert_ingest_paths_identical(name, comp, wcp, seed, plan, **options):
    eager = _run(name, _prebuilt(comp), wcp, seed, plan, **options)
    decoded = _run(name, loads(dumps(comp)), wcp, seed, plan, **options)
    assert decoded.detected == eager.detected, f"{name} s{seed} verdict"
    assert decoded.cut == eager.cut, f"{name} s{seed} cut"
    assert decoded.outcome == eager.outcome, f"{name} s{seed} outcome"
    assert _units_bytes(decoded) == _units_bytes(eager), (
        f"{name} s{seed} paper units diverge:\n"
        f"  eager:   {paper_units(eager)}\n"
        f"  decoded: {paper_units(decoded)}"
    )
    return eager, decoded


class TestLossCrashParity:
    """50 seeded workloads x 4 hardened detectors under loss + crash."""

    @pytest.mark.parametrize("seed", range(50))
    def test_backends_agree(self, seed):
        comp, wcp = _case(seed)
        for name in HARDENED:
            _assert_ingest_paths_identical(name, comp, wcp, seed, LOSSY)


class TestPartitionHealParity:
    """Partition + long crash + loss: takeover elections and healing
    must not expose any ingest-dependent behavior."""

    @pytest.mark.parametrize("seed", range(50))
    def test_backends_agree(self, seed):
        comp, wcp = _case(seed)
        for name in HARDENED:
            _assert_ingest_paths_identical(name, comp, wcp, seed, PARTITIONED)


class TestChurnParity:
    """Rolling monitor churn: crash/restart cycles on both ingest paths."""

    @pytest.mark.parametrize("seed", range(50))
    def test_backends_agree(self, seed):
        comp, wcp = _case(seed)
        for name in HARDENED:
            _assert_ingest_paths_identical(name, comp, wcp, seed, CHURN)


class TestInvariantMonitorParity:
    """The runtime-verification verdicts are ingest-invariant too."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("name", ("token_vc", "direct_dep"))
    def test_invariant_results_agree(self, name, seed):
        comp, wcp = _case(seed)
        eager, decoded = _assert_ingest_paths_identical(
            name, comp, wcp, seed, LOSSY, check_invariants=True,
        )
        assert (
            decoded.extras["invariant_violations"]
            == eager.extras["invariant_violations"]
            == 0
        )
        assert (
            decoded.extras.get("invariant_summary")
            == eager.extras.get("invariant_summary")
        )


class TestBackendAgainstReference:
    """Decoded runs still match the fault-free reference verdict —
    parity between ingest paths composes with the exactness suites."""

    @pytest.mark.parametrize("seed", range(10))
    def test_packed_matches_reference(self, seed):
        comp, wcp = _case(seed)
        ref = run_detector("reference", comp, wcp)
        for name in HARDENED:
            rep = _run(name, loads(dumps(comp)), wcp, seed, LOSSY)
            assert rep.detected == ref.detected, f"{name} verdict"
            assert rep.cut == ref.cut, f"{name} cut"
