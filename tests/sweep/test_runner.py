"""Tests for sweep execution: determinism, aggregation, error capture."""

import json

import pytest

import repro.detect.runner as detect_runner
from repro.common.errors import DetectionError
from repro.sweep import SweepMatrix, run_cell, run_sweep
from repro.sweep.runner import median, p95


def matrix(**overrides) -> SweepMatrix:
    kwargs = dict(
        name="t",
        detectors=("token_vc", "direct_dep"),
        processes=(4,),
        sends=(6,),
        seeds=(0, 1, 2),
        densities=(0.0,),
        plant_final_cut=True,
    )
    kwargs.update(overrides)
    return SweepMatrix(**kwargs)


class TestStatistics:
    def test_median_odd_and_even(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5

    def test_p95_nearest_rank(self):
        assert p95([5]) == 5
        assert p95(list(range(1, 101))) == 95

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])
        with pytest.raises(ValueError):
            p95([])


class TestRunCell:
    def test_record_shape(self):
        cell = matrix().cells()[0]
        record = run_cell(cell)
        assert record["id"] == cell.cell_id
        assert record["group"] == cell.group
        assert record["units"]["outcome"] == "detected"
        assert record["units"]["mon_msgs"] > 0
        assert record["wall_s"] > 0

    def test_faulty_cell_is_deterministic(self):
        cell = matrix(
            detectors=("token_vc",), faults=("drop:token:0.3",), seeds=(5,)
        ).cells()[0]
        first = run_cell(cell)
        second = run_cell(cell)
        assert first["units"] == second["units"]


class TestDeterminism:
    def test_parallel_equals_serial_paper_units(self):
        m = matrix()
        serial = run_sweep(m, workers=1)
        fanned = run_sweep(m, workers=3)
        assert serial.ok and fanned.ok
        assert json.dumps(serial.paper_units_view(), sort_keys=True) == \
            json.dumps(fanned.paper_units_view(), sort_keys=True)


class TestAggregation:
    def test_groups_fold_over_seeds(self):
        result = run_sweep(matrix(), workers=1)
        assert len(result.records) == 6
        rows = result.rows
        assert len(rows) == 2  # one per detector group
        groups = [row[0] for row in rows]
        assert groups == sorted(groups)
        assert all(row[1] == 3 for row in rows)  # 3 seeds per group

    def test_aggregate_document_shape(self):
        result = run_sweep(matrix(), workers=1)
        doc = result.aggregate()
        assert doc["schema"] == "repro-bench/1"
        assert doc["experiment"] == "sweep:t"
        assert doc["params"]["name"] == "t"
        assert len(doc["sweep"]["cells"]) == 6
        assert doc["sweep"]["errors"] == []
        json.dumps(doc)  # JSON-serializable end to end

    def test_streaming_callback_sees_every_cell(self):
        seen = []
        run_sweep(matrix(), workers=1, on_result=seen.append)
        assert len(seen) == 6

    def test_offline_detector_cells_have_extras_only(self):
        result = run_sweep(
            matrix(detectors=("reference",), seeds=(0,)), workers=1
        )
        assert result.ok
        units = result.records[0]["units"]
        assert units["outcome"] == "detected"
        assert "mon_msgs" not in units
        assert units["comparisons"] > 0


class TestInvariantSweeps:
    def test_units_carry_zero_violations(self):
        result = run_sweep(
            matrix(detectors=("token_vc",), check_invariants=True),
            workers=1,
        )
        assert result.ok
        for record in result.records:
            assert record["group"].endswith("/inv")
            assert record["units"]["invariant_violations"] == 0

    def test_faulty_cells_stay_violation_free(self):
        result = run_sweep(
            matrix(detectors=("token_vc",), faults=("drop:token:0.2",),
                   check_invariants=True),
            workers=1,
        )
        assert result.ok
        assert all(r["units"]["invariant_violations"] == 0
                   for r in result.records)

    def test_trace_sampling_records_lowest_seeds(self, tmp_path):
        from repro.obs import load_jsonl

        result = run_sweep(
            matrix(detectors=("token_vc",)), workers=1,
            trace_dir=tmp_path / "traces", trace_sample=2,
        )
        assert result.ok
        sampled = [r for r in result.records if "trace_file" in r]
        assert len(sampled) == 2
        assert sorted(r["cell"]["seed"] for r in sampled) == [0, 1]
        for record in sampled:
            trace = load_jsonl(record["trace_file"])
            assert trace.meta["cell"] == record["id"]
            assert len(trace) > 0

    def test_trace_sample_must_be_non_negative(self, tmp_path):
        with pytest.raises(ValueError, match="trace_sample"):
            run_sweep(matrix(), workers=1,
                      trace_dir=tmp_path, trace_sample=-1)

    def test_no_flight_dump_on_healthy_cells(self, tmp_path):
        flight_dir = tmp_path / "flights"
        result = run_sweep(
            matrix(detectors=("token_vc",)), workers=1,
            flight_dir=flight_dir,
        )
        assert result.ok
        assert not list(flight_dir.glob("*")) if flight_dir.exists() else True
        assert all("flight_file" not in r for r in result.records)

    def test_flight_dump_on_degraded_cell(self, tmp_path):
        from repro.obs import load_jsonl

        # Crash the sole token holder forever with no self-healing: the
        # detection must degrade, which triggers the flight dump.
        result = run_sweep(
            matrix(detectors=("token_vc",), seeds=(0,),
                   faults=("crash:mon-0:2",)),
            workers=1, flight_dir=tmp_path / "flights",
        )
        assert result.ok
        [record] = result.records
        assert record["units"]["outcome"] == "degraded"
        flight = load_jsonl(record["flight_file"])
        assert flight.meta["flight_recorder"] is True
        assert flight.meta["outcome"] == "degraded"
        assert flight.meta["cell"] == record["id"]


class TestWorkerFailure:
    @pytest.fixture
    def crashy(self, monkeypatch):
        def detect(computation, wcp, **options):
            raise DetectionError("injected crash")

        monkeypatch.setitem(detect_runner.DETECTORS, "crashy", detect)
        return "crashy"

    def test_inline_worker_error_is_captured(self, crashy):
        result = run_sweep(
            matrix(detectors=(crashy,), seeds=(0,)), workers=1
        )
        assert not result.ok
        assert result.records == []
        [error] = result.errors
        assert "DetectionError: injected crash" in error["error"]
        assert "traceback" in error

    def test_forked_worker_error_is_captured(self, crashy):
        result = run_sweep(
            matrix(detectors=(crashy, "token_vc"), seeds=(0,)),
            workers=2,
        )
        assert not result.ok
        assert len(result.errors) == 1
        assert len(result.records) == 1  # healthy cells still complete
        assert result.aggregate()["sweep"]["errors"][0]["id"].startswith(
            "crashy/"
        )

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(matrix(), workers=0)
