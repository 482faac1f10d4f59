"""Smoke checks of the end-to-end benchmark (``run.py --smoke``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/bench_e2e_smoke.py``;
each smoke run takes a few seconds (1 round x 3 runs per workload at
reduced sizes).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
from layers import KIND_LAYER, UnknownKindError, traffic_by_layer  # noqa: E402


def _smoke(seed: int, out: pathlib.Path) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text(encoding="utf-8")), proc.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return {
        "a": _smoke(0, tmp / "a.json"),
        "b": _smoke(0, tmp / "b.json"),
        "other": _smoke(1, tmp / "other.json"),
    }


def _printed(stdout: str) -> dict[str, dict[str, str]]:
    """``{workload: {metric: unit}}`` as printed."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("["):
            current = sections.setdefault(line[1:line.index("]")], {})
        elif current is not None and line.startswith("  "):
            name, _value, unit, samples = line.split()
            assert samples.startswith("n=") and int(samples[2:]) >= 1
            current[name] = unit
    return sections


def bench_every_metric_is_printed_with_its_unit(runs):
    doc, stdout = runs["a"]
    printed = _printed(stdout)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(printed) == names == set(doc["workloads"])
    for workload, metrics in printed.items():
        for name, unit in wanted.items():
            assert metrics.get(name) == unit, (workload, name)
        assert metrics["failed_frac"] == "fraction"


def _counted(doc: dict) -> dict:
    counted = {}
    for workload, w in doc["workloads"].items():
        for name in ("sim_time_to_verdict_p50", "mon_msgs_per_verdict",
                     "wire_bits_per_verdict", "failed_frac"):
            counted[workload, name] = w["metrics"][name]["value"]
        for name, m in w["per_layer"].items():
            if m["unit"] not in ("s", "1/s") and name != "obs.tracing_overhead":
                counted[workload, name] = m["value"]
    return counted


def bench_same_seed_gives_identical_counts(runs):
    a, b = runs["a"][0], runs["b"][0]
    assert _counted(a) == _counted(b)
    assert {w: v["digest"] for w, v in a["workloads"].items()} == {
        w: v["digest"] for w, v in b["workloads"].items()
    }


def bench_other_seed_changes_the_traces(runs):
    a, other = runs["a"][0], runs["other"][0]
    for workload, w in a["workloads"].items():
        assert w["digest"] != other["workloads"][workload]["digest"], workload


def bench_traced_pass_is_passive(runs):
    for doc, _stdout in runs.values():
        for workload, w in doc["workloads"].items():
            assert w["passive"] and not w["errors"], (workload, w["errors"])
            assert w["failed"] == 0 and w["attempted"] > 0
            assert "obs.tracing_overhead" in w["per_layer"]
            assert w["coverage"] >= 0.9, (workload, w["coverage"])


def bench_unknown_kind_trips_the_layer_table():
    from repro.simulation.instrumentation import MetricsBoard

    board = MetricsBoard()
    board.register("mon-0").charge_send("token", 64)
    assert traffic_by_layer(board)["core"] == (1, 64)
    board.register("mon-1").charge_send("telepathy", 8)
    with pytest.raises(UnknownKindError, match="telepathy"):
        traffic_by_layer(board)


def bench_layer_table_names_every_kind_constant():
    from repro.detect import base
    from repro.detect.stack import gossip, membership, transport
    from repro.simulation import replay

    constants = {
        value
        for module in (base, replay, transport, membership, gossip)
        for name, value in vars(module).items()
        if name.endswith("_KIND") and isinstance(value, str)
    }
    assert constants == set(KIND_LAYER)
