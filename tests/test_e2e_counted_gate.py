"""The exact gate on the e2e smoke's counted columns
(``tools/e2e_counted_gate.py``) against the committed smoke results."""

import copy
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import e2e_counted_gate as gate  # noqa: E402

BASELINE = REPO / "benchmarks" / "baselines" / "e2e" / "smoke.json"


def test_gate_flags_a_changed_count_and_ignores_a_changed_wall(tmp_path, capsys):
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert {len(gate.counted(w)) for w in baseline["workloads"].values()} == {31}
    fresh = copy.deepcopy(baseline)
    dd = fresh["workloads"]["dd_deep"]
    for section, name in [
        ("metrics", "run_s_p50"),
        ("metrics", "verdicts_per_s"),
        ("metrics", "peak_alloc_mb"),
        ("per_layer", "trace.load_s"),
        ("per_layer", "simulation.kernel.events_per_s"),
        ("per_layer", "obs.tracing_overhead"),
    ]:
        dd[section][name]["value"] *= 3
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps(fresh), encoding="utf-8")
    assert gate.main([str(BASELINE), str(path)]) == 0

    steps = dd["per_layer"]["simulation.kernel.steps"]["value"]
    dd["per_layer"]["simulation.kernel.steps"]["value"] = steps + 1
    path.write_text(json.dumps(fresh), encoding="utf-8")
    assert gate.main([str(BASELINE), str(path)]) == 1
    assert (
        f"dd_deep simulation.kernel.steps: baseline={steps} fresh={steps + 1}"
        in capsys.readouterr().out
    )
