"""Tests for sweep matrices: expansion, identity, serialization."""

import json
import re
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.sweep import SweepCell, SweepMatrix, load_matrix

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def small_matrix(**overrides) -> SweepMatrix:
    kwargs = dict(
        name="t",
        detectors=("token_vc",),
        processes=(4,),
        sends=(6,),
        seeds=(0, 1),
    )
    kwargs.update(overrides)
    return SweepMatrix(**kwargs)


class TestSweepCell:
    def test_id_and_group(self):
        cell = SweepCell(
            detector="token_vc", num_processes=4, sends_per_process=8,
            predicate_density=0.25, seed=3,
        )
        assert cell.group == "token_vc/n4/m8/uniform/d0.25/wall/fnone"
        assert cell.cell_id == cell.group + "/s3"

    def test_seed_not_in_group(self):
        a = SweepCell(detector="token_vc", num_processes=4,
                      sends_per_process=8, seed=0)
        b = SweepCell(detector="token_vc", num_processes=4,
                      sends_per_process=8, seed=7)
        assert a.group == b.group
        assert a.cell_id != b.cell_id

    def test_pred_width_limits_pids(self):
        cell = SweepCell(detector="token_vc", num_processes=6,
                         sends_per_process=4, pred_width=3)
        assert cell.predicate_pids() == (0, 1, 2)
        assert cell.workload_spec().predicate_pids == (0, 1, 2)

    def test_unknown_detector_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepCell(detector="nope", num_processes=4, sends_per_process=4)

    def test_faults_require_fault_capable_detector(self):
        with pytest.raises(ConfigurationError):
            SweepCell(detector="reference", num_processes=4,
                      sends_per_process=4, faults="drop:token:0.5")

    def test_invariants_require_online_detector(self):
        with pytest.raises(ConfigurationError, match="check_invariants"):
            SweepCell(detector="reference", num_processes=4,
                      sends_per_process=4, check_invariants=True)

    def test_invariants_suffix_the_group(self):
        plain = SweepCell(detector="token_vc", num_processes=4,
                          sends_per_process=8)
        checked = SweepCell(detector="token_vc", num_processes=4,
                            sends_per_process=8, check_invariants=True)
        assert checked.group == plain.group + "/inv"
        assert "/inv" not in plain.group  # old baselines unchanged


class TestSweepMatrix:
    def test_expansion_is_full_cross_product(self):
        matrix = small_matrix(processes=(4, 6), sends=(4, 8), seeds=(0, 1, 2))
        cells = matrix.cells()
        assert len(cells) == matrix.num_cells == 12
        assert len({c.cell_id for c in cells}) == 12

    def test_expansion_order_is_deterministic(self):
        matrix = small_matrix(processes=(4, 6), seeds=(0, 1))
        ids = [c.cell_id for c in matrix.cells()]
        assert ids == [c.cell_id for c in matrix.cells()]

    def test_faults_only_pair_with_fault_capable(self):
        matrix = small_matrix(
            detectors=("token_vc", "reference"),
            faults=(None, "drop:token:0.2"),
            seeds=(0,),
        )
        cells = matrix.cells()
        by_detector = {}
        for cell in cells:
            by_detector.setdefault(cell.detector, []).append(cell.faults)
        assert sorted(by_detector["token_vc"], key=str) == [
            None, "drop:token:0.2"
        ]
        assert by_detector["reference"] == [None]

    def test_round_trips_through_dict(self):
        matrix = small_matrix(
            faults=(None, "drop:token:0.1"), pred_widths=(None, 2)
        )
        clone = SweepMatrix.from_dict(matrix.to_dict())
        assert clone == matrix

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown matrix keys"):
            SweepMatrix.from_dict(
                {"name": "x", "detectors": ["token_vc"], "processes": [4],
                 "sends": [4], "bogus": 1}
            )

    def test_from_dict_requires_core_keys(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            SweepMatrix.from_dict({"name": "x"})

    def test_pred_width_wider_than_processes_rejected(self):
        matrix = small_matrix(pred_widths=(8,))
        with pytest.raises(ConfigurationError, match="pred_width"):
            matrix.cells()

    def test_duplicate_axis_entries_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            small_matrix(seeds=(1, 1))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("plant_final_cut", "no"),
            ("self_heal", "false"),
            ("check_invariants", "no"),
            ("sends", [True]),
            ("processes", [4.5]),
            ("n_predicates", [1.5]),
            ("seeds", [0.5]),
            ("pred_widths", [2.0]),
            ("gossip_fanouts", [True]),
        ],
    )
    def test_mistyped_matrix_values_rejected(self, key, value):
        """A matrix file is outside input: ``"no"`` used to plant the
        final cut, ``[true]`` ran one send and ``[4.5]`` expanded into
        cells that all failed with a ``TypeError`` naming no key."""
        bad = value[0] if isinstance(value, list) else value
        with pytest.raises(
            ConfigurationError, match=rf"'{key}'.*got {re.escape(repr(bad))}$"
        ):
            SweepMatrix.from_dict(
                {"name": "x", "detectors": ["token_vc"], "processes": [4],
                 "sends": [4], key: value}
            )

    def test_check_invariants_only_arms_online_cells(self):
        matrix = small_matrix(
            detectors=("token_vc", "reference"), check_invariants=True
        )
        by_detector = {c.detector: c for c in matrix.cells()}
        assert by_detector["token_vc"].check_invariants is True
        assert by_detector["reference"].check_invariants is False

    def test_check_invariants_round_trips(self):
        matrix = small_matrix(check_invariants=True)
        clone = SweepMatrix.from_dict(matrix.to_dict())
        assert clone == matrix
        assert clone.check_invariants is True

    def test_load_matrix_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"name": "f", "detectors": ["token_vc"], '
            '"processes": [4], "sends": [4]}'
        )
        matrix = load_matrix(path)
        assert matrix.name == "f"
        assert matrix.num_cells == 1

    def test_load_matrix_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such matrix"):
            load_matrix(tmp_path / "absent.json")

    def test_load_matrix_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not JSON"):
            load_matrix(path)


class TestClockBackendAxis:
    """The vector-clock representation axis is gone: a stale matrix or
    cell that still names it fails loudly instead of running."""

    def test_packed_suffixes_the_group(self):
        cell = SweepCell(detector="token_vc", num_processes=256,
                         sends_per_process=16, predicate_density=0.0,
                         pred_width=8)
        assert cell.group == "token_vc/n256/m16/uniform/d0/w8/fnone"
        baseline = json.loads(
            (BASELINES / "large_cells.json").read_text(encoding="utf-8")
        )
        groups = {c["group"] for c in baseline["sweep"]["cells"]}
        assert cell.group in groups
        assert not any(g.endswith("/packed") for g in groups)

    def test_unknown_backend_rejected(self):
        stale = dict(small_matrix().to_dict(), clock_backends=["list"])
        with pytest.raises(ConfigurationError, match="unknown matrix keys"):
            SweepMatrix.from_dict(stale)
        with pytest.raises(ConfigurationError, match="unknown keys"):
            small_matrix(exclude=({"clock_backend": "list"},))

    def test_packed_requires_online_detector(self):
        with pytest.raises(TypeError):
            SweepCell(detector="reference", num_processes=4,  # type: ignore[call-arg]
                      sends_per_process=4, clock_backend="packed")

    def test_backend_axis_round_trips(self):
        matrix = small_matrix()
        doc = matrix.to_dict()
        assert "clock_backends" not in doc
        assert SweepMatrix.from_dict(doc) == matrix


class TestExclude:
    def test_excluded_corner_is_dropped(self):
        matrix = small_matrix(
            processes=(4, 6), sends=(6, 8), seeds=(0,),
            exclude=({"processes": 6, "sends": 8},),
        )
        cells = matrix.cells()
        assert matrix.num_cells == len(cells) == 3
        assert not any(
            c.num_processes == 6 and c.sends_per_process == 8 for c in cells
        )

    def test_partial_match_excludes_across_other_axes(self):
        matrix = small_matrix(
            processes=(4, 6), sends=(6,), seeds=(0, 1),
            exclude=({"processes": 6},),
        )
        assert all(c.num_processes == 4 for c in matrix.cells())
        assert matrix.num_cells == 2

    def test_unknown_exclude_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            small_matrix(exclude=({"bogus": 1},))

    def test_empty_exclude_entry_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            small_matrix(exclude=({},))

    def test_exclude_round_trips(self):
        matrix = small_matrix(
            processes=(4, 6), exclude=({"processes": 6},)
        )
        clone = SweepMatrix.from_dict(matrix.to_dict())
        assert clone == matrix
        assert clone.num_cells == matrix.num_cells

    def test_no_exclude_key_defaults_to_empty(self):
        matrix = SweepMatrix.from_dict(
            {"name": "x", "detectors": ["token_vc"], "processes": [4],
             "sends": [4]}
        )
        assert matrix.exclude == ()
