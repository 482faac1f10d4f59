"""Tests for the baseline comparator: pass, drift, wall tolerance."""

import copy
import json

import pytest

from repro.common.errors import ConfigurationError, ObservabilityError
from repro.sweep import SweepMatrix, compare, load_baseline, run_sweep
from repro.sweep.baseline import dump_comparisons_markdown


@pytest.fixture(scope="module")
def aggregate():
    matrix = SweepMatrix(
        name="base",
        detectors=("token_vc",),
        processes=(4,),
        sends=(6,),
        seeds=(0, 1),
        densities=(0.0,),
        plant_final_cut=True,
    )
    return run_sweep(matrix, workers=1).aggregate()


class TestCompare:
    def test_identical_documents_pass(self, aggregate):
        comparison = compare(aggregate, copy.deepcopy(aggregate))
        assert comparison.ok
        assert "PASS" in comparison.render()

    def test_paper_unit_drift_fails_without_tolerance(self, aggregate):
        fresh = copy.deepcopy(aggregate)
        fresh["sweep"]["cells"][0]["units"]["token_hops"] += 1
        comparison = compare(aggregate, fresh)
        assert not comparison.ok
        [drift] = comparison.drifts
        assert drift.unit == "token_hops"
        assert drift.fresh == drift.baseline + 1
        rendered = comparison.render()
        assert "FAIL" in rendered and "token_hops" in rendered

    def test_outcome_change_is_drift(self, aggregate):
        fresh = copy.deepcopy(aggregate)
        fresh["sweep"]["cells"][1]["units"]["outcome"] = "degraded"
        comparison = compare(aggregate, fresh)
        assert [d.unit for d in comparison.drifts] == ["outcome"]

    def test_new_or_missing_unit_is_drift(self, aggregate):
        fresh = copy.deepcopy(aggregate)
        del fresh["sweep"]["cells"][0]["units"]["mon_bits"]
        fresh["sweep"]["cells"][1]["units"]["surprise"] = 7
        comparison = compare(aggregate, fresh)
        assert {d.unit for d in comparison.drifts} == {"mon_bits", "surprise"}

    def test_missing_and_unexpected_cells(self, aggregate):
        fresh = copy.deepcopy(aggregate)
        moved = fresh["sweep"]["cells"][0]
        original_id = moved["id"]
        moved["id"] = original_id + "-renamed"
        comparison = compare(aggregate, fresh)
        assert comparison.missing_cells == [original_id]
        assert comparison.unexpected_cells == [original_id + "-renamed"]

    def test_wall_regression_beyond_tolerance_fails(self, aggregate):
        base = copy.deepcopy(aggregate)
        for cell in base["sweep"]["cells"]:
            cell["wall_s"] = 0.1
        fresh = copy.deepcopy(base)
        for cell in fresh["sweep"]["cells"]:
            cell["wall_s"] = 0.55
        comparison = compare(base, fresh, wall_tolerance=5.0)
        assert not comparison.ok
        [regression] = comparison.wall_regressions
        assert regression.factor == pytest.approx(5.5)
        assert comparison.drifts == []  # wall noise is not unit drift

    def test_wall_within_tolerance_passes(self, aggregate):
        base = copy.deepcopy(aggregate)
        for cell in base["sweep"]["cells"]:
            cell["wall_s"] = 0.1
        fresh = copy.deepcopy(base)
        for cell in fresh["sweep"]["cells"]:
            cell["wall_s"] = 0.45
        assert compare(base, fresh, wall_tolerance=5.0).ok

    def test_tiny_wall_medians_are_ignored(self, aggregate):
        base = copy.deepcopy(aggregate)
        for cell in base["sweep"]["cells"]:
            cell["wall_s"] = 0.0001
        fresh = copy.deepcopy(base)
        for cell in fresh["sweep"]["cells"]:
            cell["wall_s"] = 0.004  # 40x, but below the comparable floor
        assert compare(base, fresh, wall_tolerance=2.0).ok

    def test_bad_tolerance_rejected(self, aggregate):
        with pytest.raises(ConfigurationError):
            compare(aggregate, aggregate, wall_tolerance=0)

    def test_non_sweep_document_rejected(self, aggregate):
        with pytest.raises(ConfigurationError, match="sweep"):
            compare({"schema": "repro-bench/1"}, aggregate)

    def test_markdown_summary_lists_drifts(self, aggregate, tmp_path):
        fresh = copy.deepcopy(aggregate)
        fresh["sweep"]["cells"][0]["units"]["mon_msgs"] += 5
        comparison = compare(aggregate, fresh)
        out = tmp_path / "summary.md"
        dump_comparisons_markdown([comparison], out)
        text = out.read_text()
        assert "FAIL" in text and "mon_msgs" in text
        assert "| cell | metric | baseline | fresh |" in text


class TestLoadBaseline:
    def test_round_trip(self, aggregate, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(aggregate))
        doc = load_baseline(path)
        assert doc["params"]["name"] == "base"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError, match="no such"):
            load_baseline(tmp_path / "absent.json")

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"schema": "other/1"}')
        with pytest.raises(ObservabilityError, match="expected schema"):
            load_baseline(path)

    def test_non_sweep_benchmark_rejected(self, aggregate, tmp_path):
        doc = {k: v for k, v in aggregate.items() if k != "sweep"}
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="sweep"):
            load_baseline(path)
