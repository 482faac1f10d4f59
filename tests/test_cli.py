"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestGenerate:
    def test_to_stdout(self, capsys):
        assert main(["generate", "--processes", "3", "--sends", "2"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert len(data["processes"]) == 3

    def test_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        code = main(
            [
                "generate", "--processes", "3", "--sends", "2",
                "--seed", "5", "--plant-final-cut", "--out", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        json.loads(out_file.read_text())

    def test_deterministic(self, tmp_path):
        files = []
        for k in range(2):
            f = tmp_path / f"t{k}.json"
            main(["generate", "--processes", "4", "--sends", "3",
                  "--seed", "9", "--out", str(f)])
            files.append(f.read_text())
        assert files[0] == files[1]


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.json"
    main(
        [
            "generate", "--processes", "3", "--sends", "4", "--seed", "2",
            "--density", "0.3", "--plant-final-cut", "--out", str(path),
        ]
    )
    return path


class TestDetect:
    def test_detects_and_exits_zero(self, trace_file, capsys):
        code = main(["detect", str(trace_file), "--detector", "token_vc"])
        out = capsys.readouterr().out
        assert code == 0
        assert "detected:  True" in out
        assert "first cut:" in out

    def test_undetected_exits_one(self, tmp_path, capsys):
        path = tmp_path / "never.json"
        main(["generate", "--processes", "3", "--sends", "3",
              "--density", "0.0", "--out", str(path)])
        code = main(["detect", str(path)])
        assert code == 1
        assert "detected:  False" in capsys.readouterr().out

    def test_pids_subset(self, trace_file, capsys):
        code = main(["detect", str(trace_file), "--pids", "0,2",
                     "--detector", "reference"])
        assert code in (0, 1)
        assert "flag@P0 ∧ flag@P2" in capsys.readouterr().out

    def test_unknown_detector(self, trace_file):
        with pytest.raises(SystemExit, match="unknown detector"):
            main(["detect", str(trace_file), "--detector", "psychic"])

    def test_missing_trace(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trace"):
            main(["detect", str(tmp_path / "nope.json")])

    def test_bad_pids(self, trace_file):
        with pytest.raises(SystemExit, match="comma-separated"):
            main(["detect", str(trace_file), "--pids", "a,b"])


class TestDetectJson:
    def test_machine_readable_verdict(self, trace_file, capsys):
        code = main(["detect", str(trace_file), "--detector", "token_vc",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)  # nothing but the JSON document on stdout
        assert doc["detector"] == "token_vc"
        assert doc["detected"] is True
        assert doc["outcome"] == "detected"
        assert doc["cut"]["pids"] == [0, 1, 2]
        assert len(doc["cut"]["intervals"]) == 3
        assert doc["metrics"]["totals"]["messages"] > 0
        assert "sim_time" in doc

    def test_json_with_faults_carries_summary(self, trace_file, capsys):
        code = main([
            "detect", str(trace_file), "--detector", "token_vc",
            "--faults", "drop:token:0.2", "--seed", "3", "--json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 2)
        assert "total_message_faults" in doc["faults"]

    def test_undetected_json(self, tmp_path, capsys):
        path = tmp_path / "never.json"
        main(["generate", "--processes", "3", "--sends", "3",
              "--density", "0.0", "--out", str(path)])
        capsys.readouterr()  # drain the generate output
        code = main(["detect", str(path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["detected"] is False
        assert doc["cut"] is None

    def test_partition_spec_accepted(self, trace_file, capsys):
        code = main(["detect", str(trace_file), "--detector", "token_vc",
                     "--faults", "drop:token:0.1,partition:6:12:mon-0+app-0"])
        out = capsys.readouterr().out
        assert code in (0, 1, 2)
        assert "partition:app-0+mon-0@6..12" in out
        assert "partitions=1" in out

    def test_self_heal_runs_failure_detector(self, trace_file, capsys):
        code = main(["detect", str(trace_file), "--detector", "token_vc",
                     "--faults", "partition:2::mon-0", "--self-heal",
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 2)
        assert doc["extras"]["elections"] >= 1

    def test_self_heal_with_dead_red_slot_exits_degraded(
        self, tmp_path, capsys
    ):
        path = tmp_path / "t6.json"
        main(["generate", "--processes", "6", "--sends", "8", "--seed", "6",
              "--density", "0.3", "--plant-final-cut", "--out", str(path)])
        capsys.readouterr()
        code = main(["detect", str(path), "--detector", "token_vc",
                     "--seed", "6", "--faults", "crash:mon-2:5",
                     "--self-heal"])
        assert code == 2
        assert "unobservable: [2]" in capsys.readouterr().out

    def test_self_heal_requires_faults(self, trace_file):
        with pytest.raises(SystemExit, match="--self-heal requires"):
            main(["detect", str(trace_file), "--self-heal"])

    def test_self_heal_rejects_no_hardened(self, trace_file):
        with pytest.raises(SystemExit, match="--self-heal needs the hardened"):
            main(["detect", str(trace_file), "--faults", "partition:2::mon-0",
                  "--self-heal", "--no-hardened"])

    def test_gossip_membership_runs_swim(self, trace_file, capsys):
        code = main(["detect", str(trace_file), "--detector", "token_vc",
                     "--faults", "drop:token:0.1,churn:mon-1:4:8:4",
                     "--self-heal", "--membership", "gossip",
                     "--gossip-fanout", "2", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 2)
        totals = doc["metrics"]["totals"]
        assert totals["liveness_bytes"] > 0
        sent = doc["metrics"]["actors"]["mon-0"]["sent_by_kind"]
        assert sent.get("ping", 0) > 0
        assert sent.get("heartbeat", 0) == 0

    def test_gossip_interval_rejects_nan(self, trace_file):
        with pytest.raises(SystemExit, match="gossip_interval"):
            main(["detect", str(trace_file), "--detector", "token_vc",
                  "--faults", "drop:token:0.1", "--self-heal",
                  "--membership", "gossip", "--gossip-interval", "nan"])

    def test_gossip_membership_requires_self_heal(self, trace_file):
        with pytest.raises(SystemExit, match="--membership gossip needs"):
            main(["detect", str(trace_file), "--faults", "drop:token:0.1",
                  "--membership", "gossip"])

    def test_dead_feeder_names_unobservable_conjuncts(self, trace_file,
                                                      capsys):
        code = main(["detect", str(trace_file), "--detector", "token_vc",
                     "--faults", "crash:app-1:0.5", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["outcome"] == "degraded"
        assert doc["degraded"] is True
        assert 1 in doc["extras"]["unobservable"]


class TestDetectTraceOut:
    def test_writes_valid_jsonl(self, trace_file, tmp_path, capsys):
        from repro.obs import load_jsonl

        out = tmp_path / "run.jsonl"
        code = main(["detect", str(trace_file), "--detector", "token_vc",
                     "--trace-out", str(out)])
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        trace = load_jsonl(out)  # validates span ids / parents / times
        assert trace.meta["detector"] == "token_vc"
        assert trace.meta["outcome"] == "detected"
        assert trace.meta["metrics"]["totals"]["messages"] > 0
        assert trace.by_name("token_hop")
        assert all(isinstance(s.start, float) for s in trace.spans)

    def test_offline_detector_rejected(self, trace_file, tmp_path):
        with pytest.raises(SystemExit, match="online detector"):
            main(["detect", str(trace_file), "--detector", "reference",
                  "--trace-out", str(tmp_path / "run.jsonl")])

    def test_verbose_summary_on_stderr(self, trace_file, capsys):
        main(["detect", str(trace_file), "--detector", "token_vc",
              "--verbose"])
        assert "[repro] token_vc:" in capsys.readouterr().err


class TestServiceCommand:
    def test_join_clause_exits_three(self, trace_file, tmp_path, capsys):
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps([
            {"id": "a", "pids": [0, 1]}, {"id": "b", "pids": [1, 2]},
        ]))
        code = main([
            "service", str(trace_file), "--predicates-file", str(preds),
            "--faults", "join:mon-9:6:mon-0",
        ])
        assert code == 3
        assert "membership layer" in capsys.readouterr().err


class TestReport:
    def make_trace(self, trace_file, tmp_path, extra=()):
        out = tmp_path / "run.jsonl"
        main(["detect", str(trace_file), "--detector", "token_vc",
              "--trace-out", str(out), *extra])
        return out

    def test_renders_timeline_and_itinerary(self, trace_file, tmp_path,
                                            capsys):
        out = self.make_trace(trace_file, tmp_path)
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "--- timeline ---" in text
        assert "legend:" in text
        assert "--- token itinerary ---" in text
        assert "--- work/space breakdown (paper units) ---" in text
        assert "--- critical path ---" in text

    def test_fault_overlay_rendered(self, trace_file, tmp_path, capsys):
        out = self.make_trace(
            trace_file, tmp_path,
            extra=["--faults", "crash:mon-1:6:12", "--seed", "3"],
        )
        capsys.readouterr()
        main(["report", str(out)])
        text = capsys.readouterr().out
        assert "--- fault overlay ---" in text
        assert "crash    mon-1" in text

    def test_partition_and_election_overlay(self, trace_file, tmp_path,
                                            capsys):
        out = self.make_trace(
            trace_file, tmp_path,
            extra=["--faults", "partition:2::mon-0", "--self-heal"],
        )
        capsys.readouterr()
        main(["report", str(out)])
        text = capsys.readouterr().out
        lanes = {ln.split()[0]: ln for ln in text.splitlines()
                 if ln and not ln.startswith(("-", "legend", "t="))}
        assert "#" in lanes["net"]  # partition epoch on the net lane
        assert any("E" in lane for name, lane in lanes.items()
                   if name.startswith("mon-"))  # takeover proposals
        assert "partition mon-0 (never healed)" in text

    def test_width_flag(self, trace_file, tmp_path, capsys):
        out = self.make_trace(trace_file, tmp_path)
        capsys.readouterr()
        assert main(["report", str(out), "--width", "40"]) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trace"):
            main(["report", str(tmp_path / "nope.jsonl")])

    def test_garbage_file(self, tmp_path):
        # Two garbage lines: a lone bad line would read as a torn
        # (crash-truncated) file, which loads as empty instead.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\nstill not json\n")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["report", str(bad)])


class TestInvariantsCli:
    def test_detect_with_invariants_clean(self, trace_file, capsys):
        code = main(["detect", str(trace_file), "--detector", "token_vc",
                     "--invariants", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["extras"]["invariant_violations"] == 0

    def test_invariants_need_online_detector(self, trace_file):
        with pytest.raises(SystemExit, match="require an online detector"):
            main(["detect", str(trace_file), "--detector", "reference",
                  "--invariants"])

    def test_flight_recorder_dumps_on_crashy_run(self, trace_file, tmp_path,
                                                 capsys):
        from repro.obs import load_jsonl

        flight = tmp_path / "crash.flight.jsonl"
        code = main(["detect", str(trace_file), "--detector", "token_vc",
                     "--faults", "crash:mon-1:6:12", "--seed", "3",
                     "--flight-recorder", str(flight)])
        out = capsys.readouterr().out
        assert code in (0, 1, 2)
        assert flight.exists()
        assert "flight:" in out
        dump = load_jsonl(flight)
        assert dump.meta["flight_recorder"] is True
        assert dump.meta["crashes"] == 1

    def test_flight_recorder_silent_on_clean_run(self, trace_file, tmp_path,
                                                 capsys):
        flight = tmp_path / "clean.flight.jsonl"
        code = main(["detect", str(trace_file), "--detector", "token_vc",
                     "--flight-recorder", str(flight)])
        assert code == 0
        assert not flight.exists()
        assert "flight:" not in capsys.readouterr().out


class TestVerifyTrace:
    def recorded(self, trace_file, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        # A faulty run forces the hardened path, whose spans carry the
        # framed-token epochs the mutation tests flip.
        main(["detect", str(trace_file), "--detector", "token_vc",
              "--faults", "drop:token:0.1", "--seed", "3",
              "--trace-out", str(out)])
        capsys.readouterr()
        return out

    def mutate_epoch(self, path):
        """Flip the epoch of the last token frame span in a JSONL trace."""
        lines = path.read_text().splitlines()
        for index in range(len(lines) - 1, -1, -1):
            record = json.loads(lines[index])
            if record.get("name") == "token_hop" and \
                    record.get("attrs", {}).get("frame"):
                record["attrs"]["epoch"] = \
                    int(record["attrs"].get("epoch", 0)) + 7
                lines[index] = json.dumps(record)
                break
        else:
            raise AssertionError("no token frame span in trace")
        path.write_text("\n".join(lines) + "\n")

    def test_clean_trace_exits_zero(self, trace_file, tmp_path, capsys):
        out = self.recorded(trace_file, tmp_path, capsys)
        code = main(["verify-trace", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "0 invariant violations" in text

    def test_mutated_trace_exits_one(self, trace_file, tmp_path, capsys):
        out = self.recorded(trace_file, tmp_path, capsys)
        self.mutate_epoch(out)
        code = main(["verify-trace", str(out)])
        text = capsys.readouterr().out
        assert code == 1
        assert "election_safety" in text
        assert "forged or flipped" in text

    def test_json_output(self, trace_file, tmp_path, capsys):
        out = self.recorded(trace_file, tmp_path, capsys)
        self.mutate_epoch(out)
        code = main(["verify-trace", str(out), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["truncated"] is False
        assert doc["violations"][0]["invariant"] == "election_safety"

    def test_torn_trace_noted(self, trace_file, tmp_path, capsys):
        out = self.recorded(trace_file, tmp_path, capsys)
        raw = out.read_bytes()
        out.write_bytes(raw[: len(raw) - 15])
        code = main(["verify-trace", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "crash-truncated" in text

    def test_flight_dump_verifies_with_window_note(self, trace_file,
                                                   tmp_path, capsys):
        flight = tmp_path / "crash.flight.jsonl"
        main(["detect", str(trace_file), "--detector", "token_vc",
              "--faults", "crash:mon-1:6:12", "--seed", "3",
              "--flight-recorder", str(flight)])
        capsys.readouterr()
        code = main(["verify-trace", str(flight)])
        text = capsys.readouterr().out
        assert code == 0
        assert "windowed" in text

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trace file"):
            main(["verify-trace", str(tmp_path / "nope.jsonl")])


class TestStats:
    def test_basic(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "processes (N)" in out
        assert "concurrency ratio" in out

    def test_with_pids(self, trace_file, capsys):
        assert main(["stats", str(trace_file), "--pids", "0,1"]) == 0
        assert "candidates per predicate process" in capsys.readouterr().out


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "--only", "e6"]) == 0
        out = capsys.readouterr().out
        assert "E6 lower bound" in out
        assert "fit[steps_vs_nm]" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiments"):
            main(["experiments", "--only", "e99"])


class TestDefinitely:
    def test_definitely_holds(self, tmp_path, capsys):
        from repro.trace import ComputationBuilder, dumps

        b = ComputationBuilder(2, initial_vars={p: {"flag": True} for p in (0, 1)})
        m = b.send(0, 1)
        b.recv(1, m)
        path = tmp_path / "def.json"
        path.write_text(dumps(b.build()))
        code = main(["definitely", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "definitely: True" in out
        assert "unavoidable box" in out

    def test_definitely_fails(self, trace_file, capsys):
        # Random flags rarely give a definitely; density-0.3 run with
        # independent windows should not.
        code = main(["definitely", str(trace_file)])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "definitely:" in out


class TestImportLog:
    LOG = (
        "init 0 flag=false\n"
        "init 1 flag=false\n"
        "internal 0 flag=true\n"
        "send 0 m1 1\n"
        "recv 1 m1 flag=true\n"
    )

    def test_import_and_detect(self, tmp_path, capsys):
        log = tmp_path / "run.log"
        log.write_text(self.LOG)
        out = tmp_path / "run.json"
        assert main(["import-log", str(log), "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        code = main(["detect", str(out), "--detector", "reference"])
        assert code == 0

    def test_import_to_stdout(self, tmp_path, capsys):
        log = tmp_path / "run.log"
        log.write_text(self.LOG)
        assert main(["import-log", str(log)]) == 0
        import json

        json.loads(capsys.readouterr().out)

    def test_parse_error_reported(self, tmp_path):
        log = tmp_path / "bad.log"
        log.write_text("warp 0\n")
        with pytest.raises(SystemExit, match="unknown operation"):
            main(["import-log", str(log)])

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such log"):
            main(["import-log", str(tmp_path / "nope.log")])


class TestSweepCommand:
    ARGS = [
        "sweep", "--detectors", "token_vc", "--processes", "4",
        "--sends", "6", "--seeds", "0..1", "--densities", "0",
        "--plant-final-cut",
    ]

    def test_runs_and_prints_group_table(self, capsys):
        code = main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep:adhoc" in out
        assert "token_vc/n4/m6" in out
        assert "note: cells=2 errors=0 workers=1" in out

    def test_leaves_the_working_directory_empty(self, tmp_path, monkeypatch):
        """Every cell regenerates its workload in memory: a sweep writes
        nothing unless asked to (``--out``, ``--trace-dir``, ...)."""
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGS + ["--quiet"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_writes_aggregate_json(self, tmp_path, capsys):
        out_file = tmp_path / "agg.json"
        code = main(self.ARGS + ["--out", str(out_file)])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == "repro-bench/1"
        assert len(doc["sweep"]["cells"]) == 2

    def test_matrix_file_overrides_inline_axes(self, tmp_path, capsys):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({
            "name": "filed", "detectors": ["token_vc"],
            "processes": [4], "sends": [4],
        }))
        code = main(["sweep", "--matrix", str(matrix)])
        assert code == 0
        assert "sweep:filed" in capsys.readouterr().out

    def test_seed_range_parsing(self, tmp_path, capsys):
        out_file = tmp_path / "agg.json"
        code = main(
            self.ARGS[:-3] + ["--seeds", "0..3", "--densities", "0",
                              "--out", str(out_file), "--quiet"]
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["sweep"]["cells"]) == 4

    def test_bad_axis_value_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="bad value"):
            main(["sweep", "--processes", "four"])

    def test_check_invariants_and_trace_sample(self, tmp_path, capsys):
        out_file = tmp_path / "agg.json"
        code = main(self.ARGS + [
            "--check-invariants",
            "--trace-sample", "1", "--trace-dir", str(tmp_path / "traces"),
            "--flight-dir", str(tmp_path / "flights"),
            "--out", str(out_file),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "recorded 1 cell traces" in out
        assert "/inv" in out  # group suffix visible in the table
        doc = json.loads(out_file.read_text())
        for cell in doc["sweep"]["cells"]:
            assert cell["units"]["invariant_violations"] == 0
        assert len(list((tmp_path / "traces").glob("*.jsonl"))) == 1

    def test_negative_trace_sample_rejected(self):
        with pytest.raises(SystemExit, match="trace-sample"):
            main(self.ARGS + ["--trace-sample", "-1"])

    def test_unknown_detector_rejected(self):
        with pytest.raises(SystemExit, match="unknown detector"):
            main(["sweep", "--detectors", "nope"])

    def test_crashing_worker_propagates_nonzero_exit(
        self, capsys, monkeypatch
    ):
        import repro.detect.runner as detect_runner
        from repro.common.errors import DetectionError

        def crashy(computation, wcp, **options):
            raise DetectionError("injected crash")

        monkeypatch.setitem(detect_runner.DETECTORS, "crashy", crashy)
        code = main([
            "sweep", "--detectors", "crashy,token_vc", "--processes", "4",
            "--sends", "4", "--workers", "2", "--quiet",
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert "injected crash" in captured.err


class TestClockBackendCli:
    """The vector-clock representation options are gone: a stale
    invocation is an argparse error, not a silently ignored knob."""

    def test_detect_packed_rejected_for_offline_detector(self, trace_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "detect", str(trace_file), "--detector", "reference",
                "--clock-backend", "packed",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_detect_unknown_backend_rejected(self, trace_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "detect", str(trace_file), "--detector", "token_vc",
                "--clock-backend", "list",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--detectors", "token_vc", "--processes", "4",
                "--sends", "6", "--clock-backends", "list",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDetectFailurePropagation:
    def test_crashing_detector_exits_nonzero(
        self, trace_file, capsys, monkeypatch
    ):
        import repro.detect.runner as detect_runner
        from repro.common.errors import DetectionError

        def crashy(computation, wcp, **options):
            raise DetectionError("injected crash")

        monkeypatch.setitem(detect_runner.DETECTORS, "crashy", crashy)
        code = main(["detect", str(trace_file), "--detector", "crashy"])
        captured = capsys.readouterr()
        assert code == 3
        assert "injected crash" in captured.err


class TestBenchCheckCommand:
    @pytest.fixture
    def baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        code = main([
            "sweep", "--detectors", "token_vc", "--processes", "4",
            "--sends", "6", "--seeds", "0..1", "--densities", "0",
            "--plant-final-cut", "--out", str(path), "--quiet",
        ])
        assert code == 0
        return path

    def test_passes_against_itself(self, baseline, capsys):
        code = main(["bench-check", str(baseline)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_seeded_regression_fails(self, baseline, capsys):
        doc = json.loads(baseline.read_text())
        doc["sweep"]["cells"][0]["units"]["token_hops"] += 1
        baseline.write_text(json.dumps(doc))
        code = main(["bench-check", str(baseline)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "token_hops" in out

    def test_summary_out_gets_markdown(self, baseline, tmp_path, capsys):
        summary = tmp_path / "summary.md"
        code = main([
            "bench-check", str(baseline), "--summary-out", str(summary),
        ])
        assert code == 0
        assert "PASS" in summary.read_text()

    def test_update_rewrites_baseline(self, baseline, capsys):
        doc = json.loads(baseline.read_text())
        doc["sweep"]["cells"][0]["units"]["token_hops"] += 10
        baseline.write_text(json.dumps(doc))
        code = main(["bench-check", str(baseline), "--update"])
        assert code == 0
        assert "re-baselined" in capsys.readouterr().out
        code = main(["bench-check", str(baseline)])
        assert code == 0

    def test_non_sweep_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro-bench/1", "params": {}}')
        with pytest.raises(SystemExit, match="sweep"):
            main(["bench-check", str(bad)])
