"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import _thread_counts, build_parser, main
from repro.faults.plan import CANNED_PLANS, FaultPlan
from repro.harness.parallel import suffix_path

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "terasort"])
        assert args.policy == "default"
        assert args.nodes == 4
        assert args.device == "hdd"
        assert args.scale == 1.0

    def test_run_with_options(self):
        args = build_parser().parse_args(
            ["run", "pagerank", "--policy", "dynamic", "--scale", "0.1",
             "--nodes", "2", "--device", "ssd"]
        )
        assert args.policy == "dynamic"
        assert args.scale == 0.1
        assert args.nodes == 2
        assert args.device == "ssd"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "hive"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_chaos_command_removed(self, capsys):
        # Cluster-scope plans are generated and shown by `repro faults`.
        with pytest.raises(SystemExit) as info:
            main(["chaos", "generate", "node-churn"])
        assert info.value.code == 2
        assert "invalid choice: 'chaos'" in capsys.readouterr().err


class TestCommands:
    def test_list_prints_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("terasort", "pagerank", "aggregation", "join", "svm"):
            assert name in out

    def test_run_small_workload(self, capsys):
        code = main(["run", "wordcount", "--scale", "0.02", "--nodes", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated seconds" in out
        assert "stage" in out

    def test_run_with_fixed_policy(self, capsys):
        code = main(
            ["run", "wordcount", "--scale", "0.02", "--nodes", "2",
             "--policy", "fixed", "--threads", "2"]
        )
        assert code == 0
        assert "2" in capsys.readouterr().out

    def test_sweep_outputs_bestfit(self, capsys):
        code = main(["sweep", "wordcount", "--scale", "0.02", "--nodes", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "BestFit" in out
        assert "threads" in out

    def test_compare_outputs_three_systems(self, capsys):
        code = main(["compare", "wordcount", "--scale", "0.02", "--nodes", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "default" in out
        assert "static bestfit" in out
        assert "self-adaptive" in out

    def test_compare_respects_cores(self, capsys):
        # The baseline is the sweep's top count, not a hardcoded 32.
        code = main(["compare", "wordcount", "--scale", "0.02",
                     "--nodes", "2", "--cores", "8", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cores"] == 8
        assert doc["systems"]["default"]["reduction_vs_default"] is None


class TestHelpers:
    def test_thread_counts_halve_down_to_two(self):
        assert _thread_counts(32) == (32, 16, 8, 4, 2)
        assert _thread_counts(8) == (8, 4, 2)
        assert _thread_counts(6) == (6, 3)

    def test_thread_counts_single_core(self):
        assert _thread_counts(1) == (1,)

    def test_thread_counts_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _thread_counts(0)

    def test_suffix_path(self):
        assert suffix_path("out.jsonl", "t8") == "out.t8.jsonl"
        assert suffix_path("trace", "dynamic") == "trace.dynamic"


class TestJsonMode:
    def test_run_json_round_trips(self, capsys):
        code = main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "run"
        assert doc["workload"] == "wordcount"
        assert doc["runtime"] > 0
        for stage in doc["stages"]:
            assert stage["duration"] >= 0
            assert stage["final_pool_sizes"]
        # Round trip: serialising again yields the same document.
        assert json.loads(json.dumps(doc)) == doc

    def test_sweep_json(self, capsys):
        code = main(["sweep", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--cores", "4", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["thread_counts"] == [4, 2]
        assert set(doc["runs"]) == {"4", "2"}
        assert doc["bestfit"]


class TestTracingFlags:
    def test_run_writes_event_log_and_chrome_trace(self, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        trace = tmp_path / "run.trace.json"
        code = main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--events", str(events), "--trace", str(trace)])
        assert code == 0
        assert events.exists() and trace.exists()
        first = json.loads(events.read_text().splitlines()[0])
        assert first["kind"] == "meta"
        chrome = json.loads(trace.read_text())
        assert chrome["traceEvents"]

    def test_sweep_writes_per_run_logs(self, tmp_path, capsys):
        events = tmp_path / "sweep.jsonl"
        code = main(["sweep", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--cores", "4", "--events", str(events)])
        assert code == 0
        assert (tmp_path / "sweep.t4.jsonl").exists()
        assert (tmp_path / "sweep.t2.jsonl").exists()

    def test_compare_writes_labelled_logs(self, tmp_path, capsys):
        events = tmp_path / "cmp.jsonl"
        code = main(["compare", "wordcount", "--scale", "0.02",
                     "--nodes", "2", "--cores", "4",
                     "--events", str(events)])
        assert code == 0
        for suffix in ("t4", "t2", "bestfit", "dynamic"):
            assert (tmp_path / f"cmp.{suffix}.jsonl").exists()


class TestHistoryCommand:
    def test_history_matches_live_run(self, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        assert main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--policy", "dynamic", "--events", str(events),
                     "--json"]) == 0
        live = json.loads(capsys.readouterr().out)
        assert main(["history", str(events), "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed["total_runtime"] == live["runtime"]
        assert [s["duration"] for s in replayed["stages"]] == [
            s["duration"] for s in live["stages"]
        ]
        assert [s["final_pool_sizes"] for s in replayed["stages"]] == [
            s["final_pool_sizes"] for s in live["stages"]
        ]

    def test_history_table_output(self, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        assert main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--events", str(events)]) == 0
        capsys.readouterr()
        assert main(["history", str(events)]) == 0
        out = capsys.readouterr().out
        assert "total runtime" in out
        assert "stage" in out

    def test_history_missing_file_errors(self, tmp_path, capsys):
        code = main(["history", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_history_wrong_format_errors_cleanly(self, tmp_path, capsys):
        path = tmp_path / "not-a-log.json"
        path.write_text('{"traceEvents": []}\n')
        code = main(["history", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_history_tolerates_truncated_log(self, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        assert main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--events", str(events)]) == 0
        capsys.readouterr()
        lines = events.read_text().splitlines(keepends=True)
        # Chop mid-run, leaving a torn final line: a crashed writer's log.
        truncated = tmp_path / "crashed.jsonl"
        truncated.write_text("".join(lines[:len(lines) // 2]) + '{"ts": 9')
        assert main(["history", str(truncated)]) == 0
        captured = capsys.readouterr()
        assert "truncated" in captured.err
        assert "never ended" in captured.err
        assert "total runtime" in captured.out


    def test_history_of_node_loss_run_has_no_open_spans(self, tmp_path,
                                                        capsys):
        """Attempts killed by the lost node end their task and io spans."""
        events = tmp_path / "nodeloss.jsonl"
        plan = REPO_ROOT / "examples" / "faults" / "node-loss.json"
        assert main(["run", "terasort", "--scale", "0.05", "--faults",
                     str(plan), "--events", str(events)]) == 0
        capsys.readouterr()
        assert '"killed":"node-loss"' in events.read_text()
        assert main(["history", str(events), "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["open_spans"] == {}
        assert "never ended" not in captured.err


class TestProfileCommand:
    def test_offline_profile_matches_live(self, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        live = tmp_path / "live.json"
        offline = tmp_path / "offline.json"
        assert main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--events", str(events), "--profile", str(live)]) == 0
        capsys.readouterr()
        # Every event line, the profile counters included, is what
        # json.dumps writes for it (the schema header excepted).
        lines = events.read_text(encoding="utf-8").splitlines()[1:]
        assert any('"cat":"profile"' in line for line in lines)
        for line in lines:
            assert line == json.dumps(json.loads(line), separators=(",", ":"),
                                      sort_keys=True)
        assert main(["profile", str(events), "--out", str(offline)]) == 0
        assert live.read_bytes() == offline.read_bytes()
        doc = json.loads(live.read_text())
        assert doc["schema"] == "repro.profile/1"
        assert doc["stages"] and doc["nodes"]

    def test_profile_text_report(self, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        assert main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--events", str(events), "--profile",
                     str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        assert main(["profile", str(events)]) == 0
        out = capsys.readouterr().out
        assert "demand profile" in out
        assert "distributions" in out
        assert "executors" in out

    def test_profile_json_mode(self, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        assert main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--events", str(events)]) == 0
        capsys.readouterr()
        assert main(["profile", str(events), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.profile/1"
        # Recorded without profiling: spans still profile, no node series.
        assert doc["stages"] and doc["nodes"] == []

    def test_profile_writes_counter_tracks(self, tmp_path, capsys):
        from repro.observability.chrome import validate_chrome_trace

        events = tmp_path / "run.jsonl"
        tracks = tmp_path / "tracks.json"
        assert main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--events", str(events), "--profile",
                     str(tmp_path / "p.json")]) == 0
        assert main(["profile", str(events), "--trace", str(tracks)]) == 0
        assert validate_chrome_trace(str(tracks)) > 0

    def test_profile_missing_file_errors(self, tmp_path, capsys):
        code = main(["profile", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        '{"traceEvents": []}\n',  # JSON, but no ``ts``
        "not json\n",
        "[1, 2]\n",
    ])
    def test_profile_wrong_format_errors_cleanly(self, tmp_path, capsys,
                                                 content):
        path = tmp_path / "not-a-log.jsonl"
        path.write_text(content)
        assert main(["profile", str(path)]) == 2
        assert "error: cannot replay" in capsys.readouterr().err

    def test_unreadable_log_exits_1(self, tmp_path, capsys):
        for command in ("history", "profile", "validate"):
            assert main([command, str(tmp_path)]) == 1
            assert "error:" in capsys.readouterr().err

    def test_sweep_profile_one_file_per_point(self, tmp_path, capsys):
        profile = tmp_path / "sweep.json"
        assert main(["sweep", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--cores", "4", "--profile", str(profile)]) == 0
        for threads in (4, 2):
            path = tmp_path / f"sweep.t{threads}.json"
            assert path.exists()
            assert json.loads(path.read_text())["schema"] == "repro.profile/1"


class TestBadInputs:
    def test_cores_zero_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "wordcount", "--cores", "0"])

    @pytest.mark.parametrize("flag", [
        ["--max-attempts", "0"], ["--max-attempts", "-1"],
        ["--run-timeout", "0"], ["--run-timeout", "-1"],
    ])
    def test_sweep_retry_flags_rejected_by_parser(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "wordcount", "--scale", "0.02", "--nodes", "2",
                  *flag])
        assert info.value.code == 2
        assert f"argument {flag[0]}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--stop-after", "1"], ["--resume"]],
                             ids=["stop-after", "resume"])
    def test_sweep_journal_flags_need_a_journal(self, flag, tmp_path, capsys,
                                                monkeypatch):
        # Without --journal nothing is written: --stop-after 1 used to exit 3
        # saying "rerun with --resume", and --resume recomputed every point.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["sweep", "wordcount", "--scale", "0.02", "--nodes", "2",
                  *flag])
        assert info.value.code == 2
        assert f"argument {flag[0]}: needs --journal" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", [
        ["--max-queue", "-1"], ["--max-wait", "0"], ["--max-wait", "-5"],
    ])
    def test_serve_admission_flags_rejected_by_parser(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--plan", "plan.json", *flag])
        assert info.value.code == 2
        assert f"argument {flag[0]}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "wordcount", "--nodes", "0"],
        ["run", "wordcount", "--policy", "static", "--threads", "0"],
        ["run", "wordcount", "--profile-interval", "0"],
        ["run", "wordcount", "--profile-interval", "nan"],
        ["run", "wordcount", "--scale", "nan"],
        ["sweep", "wordcount", "--scale", "nan"],
        ["whatif", "wordcount", "--at", "nan"],
        ["serve", "--plan", "plan.json", "--nodes", "0"],
        ["sweep", "wordcount", "--parallel", "-1"],
        ["compare", "wordcount", "--parallel", "-1"],
        ["serve", "--plan", "plan.json", "--parallel", "-1"],
        ["whatif", "wordcount", "--at", "5", "--parallel", "-1"],
        ["sweep", "wordcount", "--stop-after", "-1"],
        ["sweep", "wordcount", "--stop-after", "0"],
        ["validate", "log.jsonl", "--max-failures", "-3"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_bad_flag_values_rejected_by_parser(self, argv, capsys):
        # These once started the run and failed inside it (exit 1), or,
        # for a NaN scale, retried and quarantined sweep points; a
        # stop-after below 1 stopped after one point (exit 3), and a
        # negative max-failures reported every log OK.
        small = ([] if argv[0] in ("serve", "validate")
                 else ["--scale", "0.02"])
        with pytest.raises(SystemExit) as info:
            main(argv[:2] + small + argv[2:])
        assert info.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_infinite_scale_exits_2_without_running(self):
        # Unchecked, an infinite scale made DistributedFileSystem.create
        # append blocks forever; run it in a child with a memory cap and a
        # timeout so a regression fails instead of hanging the suite.
        import os
        import resource
        import subprocess
        import sys

        def cap_memory():
            limit = 1 << 30
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "terasort", "--scale",
             "inf"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=cap_memory)
        assert proc.returncode == 2, proc.stderr
        assert "--scale: must be finite" in proc.stderr

    @pytest.mark.parametrize("command", ["history", "profile", "validate"])
    def test_empty_event_log_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([command, str(path)]) == 2
        assert "holds no events" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["faults", "generate", "node-loss", "--at", "-5"],
        ["faults", "generate", "node-loss", "--at", "nan"],
        ["faults", "generate", "node-churn", "--at", "-3"],
        ["faults", "generate", "node-loss", "--retries", "3"],
        ["faults", "generate", "node-loss", "--executor", "3", "--tenant",
         "x", "--count", "4"],
        ["faults", "generate", "task-crashes", "--node", "1"],
        ["faults", "generate", "disk-degrade", "--no-speculation"],
        ["faults", "generate", "node-churn", "--max-poisoned", "2"],
        ["arrivals", "generate", "poisson", "--rate", "-1"],
        ["arrivals", "generate", "poisson", "--tenants", "0"],
        ["arrivals", "generate", "poisson", "--scale", "nan"],
    ], ids=lambda argv: " ".join(argv))
    def test_generators_write_only_loadable_plans(self, argv, tmp_path,
                                                  capsys):
        out = tmp_path / "plan.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert "error: invalid" in capsys.readouterr().err
        assert not out.exists()

    def test_faults_generate_names_flags_the_kind_does_not_take(self,
                                                                capsys):
        code = main(["faults", "generate", "node-loss", "--executor", "3",
                     "--tenant", "x", "--count", "4", "--at", "5"])
        assert code == 2
        assert ("node-loss does not take --executor, --count, --tenant"
                in capsys.readouterr().err)

    def test_whatif_missing_alternative_plan_exits_2(self, tmp_path, capsys):
        code = main(["whatif", "wordcount", "--scale", "0.02", "--nodes",
                     "2", "--at", "5",
                     "--alt", f"faults={tmp_path / 'absent.json'}"])
        assert code == 2
        assert "invalid fault plan: no such file" in capsys.readouterr().err

    def test_unwritable_events_path_errors_cleanly(self, capsys):
        code = main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--events", "/no/such/dir/x.jsonl"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestServe:
    def _plan(self, tmp_path, extra=()):
        path = str(tmp_path / "plan.json")
        assert main(["arrivals", "generate", "poisson", "--tenants", "2",
                     "--rate", "0.01", "--horizon", "500",
                     "--workload", "wordcount", "--scale", "0.02",
                     "--out", path, *extra]) == 0
        return path

    def test_arrivals_generate_and_show(self, tmp_path, capsys):
        path = self._plan(tmp_path)
        capsys.readouterr()
        assert main(["arrivals", "show", path]) == 0
        out = capsys.readouterr().out
        assert "valid arrival plan" in out
        assert "tenant0" in out

    def test_arrivals_generate_stdout_is_valid_plan(self, capsys):
        from repro.workloads.arrivals import ArrivalPlan

        assert main(["arrivals", "generate", "single",
                     "--workload", "wordcount", "--scale", "0.02"]) == 0
        plan = ArrivalPlan.from_json(capsys.readouterr().out)
        assert len(plan.generate()) == 1

    def test_arrivals_show_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["arrivals", "show", str(tmp_path / "no.json")]) == 2
        assert "invalid arrival plan" in capsys.readouterr().err

    def test_serve_text_report(self, tmp_path, capsys):
        path = self._plan(tmp_path)
        capsys.readouterr()
        assert main(["serve", "--plan", path, "--scheduler", "fair",
                     "--nodes", "2", "--cores", "8"]) == 0
        out = capsys.readouterr().out
        assert "serve:" in out
        assert "makespan" in out
        assert "tenant0" in out

    def test_serve_json_and_out_agree(self, tmp_path, capsys):
        path = self._plan(tmp_path)
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["serve", "--plan", path, "--nodes", "2", "--cores", "8",
                     "--json", "--out", str(report)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.service/1"
        assert json.loads(report.read_text()) == doc

    def test_serve_seed_override_is_deterministic(self, tmp_path, capsys):
        path = self._plan(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["serve", "--plan", path, "--nodes", "2",
                         "--cores", "8", "--seed", "7",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["seed"] == 7

    def test_serve_max_queue_rejects(self, tmp_path, capsys):
        path = self._plan(tmp_path)
        capsys.readouterr()
        assert main(["serve", "--plan", path, "--nodes", "2", "--cores", "8",
                     "--max-queue", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["rejected"] == doc["totals"]["submitted"]

    def test_serve_missing_plan_exits_2(self, tmp_path, capsys):
        assert main(["serve", "--plan", str(tmp_path / "no.json")]) == 2
        assert "invalid arrival plan" in capsys.readouterr().err

    def test_serve_bad_plan_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro.arrivals/1", "tenants": []}')
        assert main(["serve", "--plan", str(bad)]) == 2
        assert "invalid arrival plan" in capsys.readouterr().err

    def test_serve_single_job_events_match_repro_run(self, tmp_path, capsys):
        """The degenerate single-tenant serve is exactly `repro run`."""
        plan = str(tmp_path / "single.json")
        assert main(["arrivals", "generate", "single",
                     "--workload", "wordcount", "--scale", "0.02",
                     "--slots", "2", "--out", plan]) == 0
        serve_log = tmp_path / "serve.jsonl"
        run_log = tmp_path / "run.jsonl"
        assert main(["serve", "--plan", plan, "--nodes", "2", "--cores", "8",
                     "--events", str(serve_log)]) == 0
        assert main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--cores", "8", "--events", str(run_log)]) == 0
        capsys.readouterr()
        assert serve_log.read_bytes() == run_log.read_bytes()


class TestChaosCommand:
    def _plan(self, tmp_path):
        path = str(tmp_path / "plan.json")
        assert main(["arrivals", "generate", "poisson", "--tenants", "2",
                     "--rate", "0.02", "--horizon", "400",
                     "--workload", "wordcount", "--scale", "0.02",
                     "--out", path]) == 0
        return path

    @pytest.mark.parametrize("kind", sorted(CANNED_PLANS))
    def test_every_canned_kind_generates_and_shows(self, kind, tmp_path,
                                                   capsys):
        path = str(tmp_path / "plan.json")
        assert main(["faults", "generate", kind, "--out", path]) == 0
        assert main(["faults", "show", path]) == 0
        plan = FaultPlan.load(path)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert plan.to_dict() == CANNED_PLANS[kind]().to_dict()

    def test_chaos_generate_stdout_is_valid_v2_plan(self, capsys):
        from repro.faults.plan import PLAN_SCHEMA_V2

        assert main(["faults", "generate", "node-churn", "--node", "1",
                     "--at", "50", "--duration", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == PLAN_SCHEMA_V2
        plan = FaultPlan.from_dict(doc)
        assert plan.cluster.node_churn[0].node_id == 1

    def test_chaos_generate_protection_overrides(self, capsys):
        assert main(["faults", "generate", "overload", "--retries", "5",
                     "--deadline", "90", "--max-queue", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        protection = doc["cluster"]["protection"]
        assert protection["max_retries"] == 5
        assert protection["deadline"] == 90.0
        assert protection["max_queue"] == 7

    def test_chaos_show_summarises_cluster_scope(self, tmp_path, capsys):
        path = str(tmp_path / "chaos.json")
        assert main(["faults", "generate", "overload", "--out", path]) == 0
        capsys.readouterr()
        assert main(["faults", "show", path]) == 0
        out = capsys.readouterr().out
        assert "node-churn" in out
        assert "surge" in out
        assert "protection" in out

    def test_chaos_show_engine_only_plan(self, tmp_path, capsys):
        path = str(tmp_path / "engine.json")
        assert main(["faults", "generate", "node-loss", "--out", path]) == 0
        capsys.readouterr()
        assert main(["faults", "show", path]) == 0
        assert capsys.readouterr().out == (
            "valid fault plan (seed 0)\n  node_losses: 1\n")

    def test_chaos_show_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["faults", "show", str(tmp_path / "no.json")]) == 2
        assert "invalid fault plan" in capsys.readouterr().err

    def test_faults_show_mentions_cluster_section(self, tmp_path, capsys):
        path = str(tmp_path / "chaos.json")
        assert main(["faults", "generate", "node-churn", "--out", path]) == 0
        capsys.readouterr()
        assert main(["faults", "show", path]) == 0
        assert capsys.readouterr().out == (
            "valid fault plan (seed 0)\n"
            "  node-churn: node 1 down at 100s for 200s\n"
            "  protection: retries 3, backoff 2s cap 60s\n")

    def test_serve_with_chaos_plan_reports_resilience(self, tmp_path,
                                                      capsys):
        plan = self._plan(tmp_path)
        chaos = str(tmp_path / "chaos.json")
        assert main(["faults", "generate", "node-churn", "--node", "0",
                     "--at", "20", "--duration", "100",
                     "--out", chaos]) == 0
        out_path = str(tmp_path / "report.json")
        capsys.readouterr()
        assert main(["serve", "--plan", plan, "--nodes", "2", "--cores", "8",
                     "--faults", chaos, "--validate",
                     "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "availability:" in out
        doc = json.loads(open(out_path).read())
        assert "resilience" in doc
        # The saved report round-trips through `repro validate`.
        assert main(["validate", out_path]) == 0

    def test_serve_max_wait_flag_sheds(self, tmp_path, capsys):
        plan = str(tmp_path / "plan.json")
        assert main(["arrivals", "generate", "poisson", "--tenants", "2",
                     "--rate", "0.2", "--horizon", "200",
                     "--workload", "wordcount", "--scale", "0.02",
                     "--out", plan]) == 0
        capsys.readouterr()
        assert main(["serve", "--plan", plan, "--nodes", "1", "--cores", "8",
                     "--max-wait", "10", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["rejected"] > 0

    def test_serve_flags_tighten_the_plans_limits(self, tmp_path, capsys):
        plan = str(tmp_path / "plan.json")
        assert main(["arrivals", "generate", "poisson", "--tenants", "2",
                     "--rate", "0.2", "--horizon", "200",
                     "--workload", "wordcount", "--scale", "0.02",
                     "--out", plan]) == 0
        chaos = str(tmp_path / "chaos.json")
        assert main(["faults", "generate", "node-churn", "--node", "0",
                     "--at", "20", "--duration", "100", "--max-queue", "3",
                     "--out", chaos]) == 0
        capsys.readouterr()
        assert main(["serve", "--plan", plan, "--nodes", "2", "--cores", "8",
                     "--faults", chaos, "--max-queue", "8",
                     "--max-wait", "10", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        resilience = doc["resilience"]
        assert resilience["protection"]["max_queue"] == 3
        assert resilience["protection"]["max_wait"] == 10.0
        assert "admission" not in resilience["shed"]
        assert sum(resilience["shed"].values()) == doc["totals"]["rejected"]
        assert doc["totals"]["rejected"] > 0
