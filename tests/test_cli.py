"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main


class TestGenerate:
    def test_list_catalog(self, capsys):
        assert main(["generate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "MSRsrc11" in out
        assert "HP Cello" in out

    def test_generate_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = main([
            "generate", "--name", "MSRprn1", "--duration", "300",
            "--output", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()
        from repro.traces import read_csv_trace

        trace = read_csv_trace(out_path)
        assert len(trace) > 10

    def test_generate_requires_name_and_output(self, capsys):
        assert main(["generate"]) == 2
        assert capsys.readouterr().err.startswith(
            "repro generate: needs --name and --output"
        )


class TestAnalyze:
    def test_analyze_synthetic(self, capsys):
        code = main([
            "analyze", "--synthetic", "MSRprn1", "--duration", "1800",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "idle:" in out
        assert "heavy-tailed" in out or "memoryless" in out

    def test_analyze_csv_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        main([
            "generate", "--name", "MSRprn1", "--duration", "600",
            "--output", str(out_path),
        ])
        capsys.readouterr()
        assert main(["analyze", "--trace", str(out_path)]) == 0
        assert "requests:" in capsys.readouterr().out

    def test_source_required(self):
        with pytest.raises(SystemExit):
            main(["analyze"])

    def test_sources_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "analyze", "--trace", "x.csv", "--synthetic", "MSRprn1",
            ])


class TestOptimize:
    def test_optimize_synthetic(self, capsys):
        code = main([
            "optimize", "--synthetic", "MSRusr2", "--duration", "1800",
            "--goals-ms", "2.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2.00ms" in out
        assert "CFQ-like baseline" in out

    def test_unknown_drive_rejected(self, capsys):
        assert main([
            "optimize", "--synthetic", "MSRusr2", "--drive", "flopotron",
        ]) == 2
        assert capsys.readouterr().err.startswith(
            "repro optimize: unknown drive 'flopotron'; choose from "
        )

    def test_grid_method_matches_search(self, capsys):
        """The CLI's halving search prints the exhaustive grid's row (the
        grid is no flag any more: ``ScrubParameterOptimizer.optimize``)."""
        from repro.analysis.service_model import ScrubServiceModel
        from repro.core.optimizer import ScrubParameterOptimizer
        from repro.disk.models import PRESETS
        from repro.traces import generate_trace
        from repro.traces.idle import idle_intervals_from_trace

        assert main([
            "optimize", "--synthetic", "MSRusr2", "--duration", "900",
            "--goals-ms", "2.0",
        ]) == 0
        search_out = capsys.readouterr().out
        trace = generate_trace("MSRusr2", duration=900, seed=0)
        _, durations = idle_intervals_from_trace(trace, positioning=4.0 / 1e3)
        best = ScrubParameterOptimizer(
            durations, len(trace), trace.duration,
            ScrubServiceModel.from_spec(PRESETS["ultrastar"]()),
            max_slowdown=50.4 / 1e3,
        ).optimize(2.0 / 1e3)
        grid_row = (
            f"{2.0:6.2f}ms  {best.threshold * 1e3:8.1f}ms  "
            f"{best.request_bytes // 1024:6d}KB  "
            f"{best.throughput_mbps:8.2f}MB/s"
        )
        assert grid_row in search_out.splitlines()

    # The [grid] twin went with ``--method``; the id stays [search].
    @pytest.mark.parametrize("method", ["search"])
    def test_one_tuner_per_workload_whatever_the_goal_count(
        self, method, capsys, monkeypatch
    ):
        from repro.core.search import SuccessiveHalvingSearch

        built = []
        cls = SuccessiveHalvingSearch
        real = cls.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)

        argv = [
            "optimize", "--synthetic", "MSRusr2", "--duration", "900",
            "--goals-ms",
        ]
        assert main(argv + ["2.0"]) == 0
        single = capsys.readouterr().out.splitlines()
        monkeypatch.setattr(cls, "__init__", counting)
        assert main(argv + ["1.0", "2.0", "4.0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert built == [cls.__name__]
        assert [row for row in rows if row.startswith("  2.00ms")] == [
            row for row in single if row.startswith("  2.00ms")
        ]
        assert sum(row.lstrip()[:1].isdigit() for row in rows) == 3

    @staticmethod
    def _counters(out):
        """``name -> value`` of the counters table ``--telemetry`` prints."""
        lines = out.split("counters:\n", 1)[1].splitlines()
        rows = [line.split() for line in lines if line.startswith("  ")]
        return {name: int(value.replace(",", "")) for name, value in rows}

    def test_telemetry_counts_the_worker_pool(self, capsys):
        """One registry meters the sweep and the workers it forks."""
        assert main([
            "optimize", "--synthetic", "MSRusr2", "--duration", "900",
            "--goals-ms", "1.0", "2.0", "--workers", "2", "--telemetry",
        ]) == 0
        counters = self._counters(capsys.readouterr().out)
        assert counters["supervise.spawns"] >= 2  # a pair per pooled map()
        assert counters["supervise.tasks"] > 0
        assert counters["supervise.attempts"] == counters["parallel.attempts"]

    def test_telemetry_counts_cache_evictions(self, tmp_path, capsys):
        argv = [
            "optimize", "--synthetic", "MSRusr2", "--duration", "900",
            "--goals-ms", "2.0", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        entry = sorted(tmp_path.glob("*/*.pkl"))[0]
        entry.write_bytes(entry.read_bytes()[:-1])  # a torn entry
        capsys.readouterr()
        assert main(argv + ["--telemetry"]) == 0
        counters = self._counters(capsys.readouterr().out)
        assert counters["cache.evictions"] == counters["cache.evictions.digest"] == 1
        assert counters["parallel.executed"] == 1


class TestIdlePositioning:
    """``--service-ms`` defaults to the catalog entry's positioning time
    with ``--synthetic``: 0.2 ms on the TPC-C entries, 4 ms elsewhere,
    as the catalog's own ``trace_idle_intervals`` assumes."""

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    def test_a_tpc_entry_has_idle_time_at_the_defaults(self, command, capsys):
        goals = ["--goals-ms", "2.0"] if command == "optimize" else []
        assert main([
            command, "--synthetic", "TPCdisk66", "--duration", "600", *goals,
        ]) == 0
        out = capsys.readouterr().out
        assert "no idle intervals" not in out
        if command == "optimize":
            assert "  2.00ms       3.7ms    4096KB" in out.splitlines()[2]

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    @pytest.mark.parametrize("name", ["MSRusr2", "HPc6t8d0"])
    def test_a_4ms_entry_prints_what_4ms_prints(self, command, name, capsys):
        argv = [command, "--synthetic", name, "--duration", "900"]
        if command == "optimize":
            argv += ["--goals-ms", "1.0", "4.0"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--service-ms", "4.0"]) == 0
        assert capsys.readouterr().out == default


@pytest.fixture
def corpus_dir(tmp_path):
    path = tmp_path / "corpus"
    assert main([
        "corpus", "build", "--out", str(path),
        "--names", "MSRusr2", "--duration", "600",
        "--chunk-requests", "1024",
    ]) == 0
    return path


class TestCorpus:
    def test_build_and_list(self, corpus_dir, capsys):
        capsys.readouterr()
        assert main(["corpus", "list", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "MSRusr2" in out

    def test_verify_detects_corruption(self, corpus_dir, capsys):
        assert main(["corpus", "verify", str(corpus_dir)]) == 0
        chunk = corpus_dir / "MSRusr2" / "chunk-000000.bin"
        blob = bytearray(chunk.read_bytes())
        blob[10] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        assert main(["corpus", "verify", str(corpus_dir)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_not_a_corpus_exits_2(self, tmp_path, capsys):
        assert main(["corpus", "list", str(tmp_path)]) == 2
        assert "not a trace corpus" in capsys.readouterr().err

    def test_optimize_corpus_json(self, corpus_dir, capsys):
        import json

        assert main([
            "optimize", "--corpus", str(corpus_dir),
            "--goals-ms", "2.0", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["entries"]["MSRusr2"]["goals"]["2"]
        assert row["throughput_mbps"] > 0
        assert row["achieved_slowdown_ms"] <= 2.0

    def test_optimize_unknown_entry_exits_2(self, corpus_dir, capsys):
        assert main([
            "optimize", "--corpus", str(corpus_dir),
            "--entries", "nosuch", "--goals-ms", "2.0",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown corpus entry" in err and "MSRusr2" in err


class TestThroughput:
    def test_sequential(self, capsys):
        assert main(["throughput", "--horizon", "3"]) == 0
        assert "MB/s" in capsys.readouterr().out

    def test_staggered_with_regions(self, capsys):
        assert main([
            "throughput", "--algorithm", "staggered", "--regions", "64",
            "--horizon", "3",
        ]) == 0
        assert "staggered" in capsys.readouterr().out


class TestMlet:
    def test_mlet_table(self, capsys):
        code = main([
            "mlet", "--sectors", "100000", "--regions", "16", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sequential" in out
        assert "staggered-64" in out


class TestVerify:
    def test_small_fuzz_passes(self, capsys):
        code = main([
            "verify", "--seed", "7", "--configs", "3",
            "--axes", "kernel-twin",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verify fuzz [OK]: 3/3 configs passed" in out

    def test_self_test_alone(self, capsys):
        code = main(["verify", "--self-test", "--configs", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "self-test: 7/7 planted bugs caught" in out
        assert "cursor-drift" in out and "fleet-seed-words" in out

    def test_bad_axis_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--axes", "chaos"])


class TestFleetMonitor:
    """PR 8: live observability flags on the fleet command."""

    _BASE = [
        "fleet", "--groups", "24", "--disks", "4", "--shards", "3",
        "--mission-years", "3", "--policy", "sequential@168",
        "--mttf-hours", "2e4", "--lse-rate", "2e-4",
    ]

    def test_monitor_writes_all_surfaces(self, tmp_path, capsys):
        obs = tmp_path / "obs"
        code = main(self._BASE + [
            "--monitor-dir", str(obs), "--status-interval", "0",
            "--prom-out", str(tmp_path / "m.prom"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "monitor: utilization" in out
        assert [p.name for p in obs.iterdir()] == ["events.jsonl"]
        assert "repro_" in (tmp_path / "m.prom").read_text()

    def test_monitor_is_passive_on_results(self, tmp_path, capsys):
        import json

        bare_json = tmp_path / "bare.json"
        mon_json = tmp_path / "mon.json"
        assert main(self._BASE + ["--json", str(bare_json)]) == 0
        capsys.readouterr()
        assert main(self._BASE + [
            "--json", str(mon_json),
            "--monitor-dir", str(tmp_path / "obs"), "--status-interval", "0",
        ]) == 0
        assert json.loads(bare_json.read_text()) == \
            json.loads(mon_json.read_text())

    def test_an_unwritable_monitor_dir_degrades_monitoring_only(
        self, tmp_path, capsys
    ):
        import json

        bare_json = tmp_path / "bare.json"
        mon_json = tmp_path / "mon.json"
        trace = tmp_path / "t.json"
        assert main(self._BASE + ["--json", str(bare_json)]) == 0
        capsys.readouterr()
        assert main(self._BASE + [
            "--json", str(mon_json), "--monitor-dir", "/dev/null/obs",
            "--trace-out", str(trace),
        ]) == 0
        captured = capsys.readouterr()
        assert json.loads(bare_json.read_text()) == \
            json.loads(mon_json.read_text())
        degraded = [
            line for line in captured.err.splitlines()
            if line.startswith("monitor: degraded")
        ]
        assert len(degraded) == 1 and "/dev/null/obs" in degraded[0]
        assert "Traceback" not in captured.err
        assert json.loads(trace.read_text())["traceEvents"]

    def test_trace_out_requires_monitor(self, tmp_path, capsys):
        assert main(self._BASE + ["--trace-out", str(tmp_path / "t.json")]) == 2
        assert capsys.readouterr().err.startswith(
            "repro fleet: --trace-out needs --monitor"
        )

    def test_report_roundtrip(self, tmp_path, capsys):
        obs = tmp_path / "obs"
        assert main(self._BASE + [
            "--monitor-dir", str(obs), "--status-interval", "0",
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(obs)]) == 0
        assert "report.html" in capsys.readouterr().out
        assert "</html>" in (obs / "report.html").read_text()

    def test_report_empty_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro report: ") and "monitor" in err


class TestTraceCounters:
    def test_trace_table_surfaces_drops_and_evictions(self, tmp_path, capsys):
        code = main([
            "trace", "--horizon", "0.5",
            "--out", str(tmp_path / "trace.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "device.log_dropped" in out
        assert "drive.cache_evictions" in out


_FLEET = TestFleetMonitor._BASE


class TestOutsideInput:
    """A user's file or catalog name is read in one place and never
    leaves it as a traceback: its own message, exit 2."""

    def test_missing_trace_file(self, capsys):
        assert main(["analyze", "--trace", "/nonexistent.csv"]) == 2
        assert capsys.readouterr().err == (
            "repro analyze: [Errno 2] No such file or directory: "
            "'/nonexistent.csv'\n"
        )

    def test_malformed_trace_names_its_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,op,offset\n0.0,R,0\n")
        assert main(["optimize", "--trace", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"repro optimize: {bad}:1: canonical trace missing column 'lbn'\n"
        )

    @pytest.mark.parametrize("argv", [
        ["detect", "--synthetic", "NOPE"],
        ["generate", "--name", "NOPE", "-o", "x.csv"],
    ])
    def test_unknown_catalog_name_lists_the_catalog(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: unknown trace 'NOPE'; available: [")
        assert "MSRsrc11" in err and "Traceback" not in err


class TestExitCodes:
    """2 = the command line was wrong, whoever noticed: argparse, or a
    handler's UsageError printed as ``repro <command>: <message>``."""

    @pytest.mark.parametrize("argv, message", [
        (["throughput", "--drive", "nope"], "unknown drive 'nope'"),
        (["mlet", "--drive", "nope"], "unknown drive 'nope'"),
        (["fleet", "--resume"], "--resume needs --journal DIR"),
        (["optimize", "--synthetic", "MSRusr2", "--budget", "0"],
         "--budget must be >= 1: 0"),
        (["fleet", "--policy", "staggered:x"], "--policy 'staggered:x': "),
        (["fleet", "--policy", "zigzag"],
         "--policy 'zigzag': algorithm must be sequential|staggered"),
        (["fleet", "--policy", "sequential", "--policy", "sequential@168"],
         "duplicate policies after parsing"),
        (["submit", "--groups", "0"], "groups"),
        (["submit", "--spec-json", "/nonexistent.json"],
         "cannot read /nonexistent.json"),
        (["submit", "--url", "ftp://example"], "--url: base_url must be http://"),
        (["detect", "--algorithms", "zigzag"], "unknown algorithm 'zigzag'"),
        (["optimize", "--synthetic", "MSRusr2", "--entries", "MSRusr2"],
         "--entries selects entries of a --corpus"),
        (["optimize", "--synthetic", "MSRusr2", "--json", "--telemetry"],
         "--json and --telemetry both write stdout"),
        (["fleet", "--max-attempts", "0"], "--max-attempts must be >= 1: 0"),
        (["fleet", "--workers", "-1"], "--workers must be >= 0: -1"),
        (["fleet", "--task-timeout", "0"], "--task-timeout must be > 0: 0"),
        (["fleet", "--status-interval", "-1"],
         "--status-interval must be >= 0: -1"),
        (["serve", "--max-attempts", "0"], "--max-attempts must be >= 1: 0"),
        (["serve", "--workers", "-2"], "--workers must be >= 0: -2"),
        (["serve", "--task-timeout", "-5"], "--task-timeout must be > 0: -5"),
        (["serve", "--status-interval", "-0.5"],
         "--status-interval must be >= 0: -0.5"),
    ])
    def test_a_handler_s_usage_error(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {argv[0]}: ")
        assert message in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("damage, message", [
        ("foreign", "refusing to mix campaigns"),
        ("torn", "unreadable manifest"),
    ])
    def test_a_bad_journal_is_a_usage_error(
        self, damage, message, tmp_path, capsys
    ):
        journal = tmp_path / "J"
        base = ["fleet", "--shards", "4", "--journal", str(journal)]
        assert main(base + ["--groups", "40"]) == 0
        if damage == "torn":
            manifest = journal / "manifest.json"
            manifest.write_bytes(manifest.read_bytes()[:20])
        capsys.readouterr()
        groups = "41" if damage == "foreign" else "40"
        assert main(base + ["--groups", groups, "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro fleet: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["trace", "--max-log-records", "0"], "--max-log-records must be > 0: 0"),
        (["trace", "--request-kb", "0"], "--request-kb must be > 0: 0"),
        (["trace", "--horizon", "-1"], "--horizon must be >= 0: -1"),
        (["trace", "--algorithm", "staggered", "--regions", "0"],
         "--regions must be > 0: 0"),
        (["throughput", "--request-kb", "0"], "--request-kb must be > 0: 0"),
        (["throughput", "--horizon", "-1"], "--horizon must be > 0: -1"),
        (["throughput", "--delay-ms", "-1"], "--delay-ms must be >= 0: -1"),
        (["detect", "--horizon", "-1"], "--horizon must be > 0: -1"),
        (["detect", "--regions", "0", "--algorithm", "staggered"],
         "--regions must be > 0: 0"),
    ])
    def test_a_full_stack_size_no_stack_can_run(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro {argv[0]}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["detect", "trace"])
    @pytest.mark.parametrize("pair", [
        ["--foreground", "--synthetic", "MSRsrc11"],
        ["--trace", "f.csv", "--foreground"],
        ["--trace", "f.csv", "--synthetic", "MSRsrc11"],
    ])
    def test_foreground_sources_are_one_exclusive_group(
        self, command, pair, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command] + pair)
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_the_kernel_flag_is_gone_not_deprecated(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", "--kernel", "vector"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel vector" in capsys.readouterr().err

    def test_a_service_that_cannot_be_reached_is_a_failure_not_usage(
        self, capsys
    ):
        # port 9 (discard) on localhost: nothing listens there
        assert main(
            ["submit", "--url", "http://127.0.0.1:9", "--groups", "24"]
        ) == 1
        assert capsys.readouterr().err.startswith(
            "submit: cannot reach http://127.0.0.1:9: "
        )


class TestNoFlagIsIgnored:
    def test_corpus_tuning_prints_its_telemetry(self, corpus_dir, capsys):
        assert main([
            "optimize", "--corpus", str(corpus_dir), "--goals-ms", "2.0",
            "--telemetry",
        ]) == 0
        out = capsys.readouterr().out
        assert "== sweep telemetry ==" in out and "parallel.tasks" in out

    def test_a_single_trace_is_a_one_entry_json_table(self, corpus_dir, capsys):
        import json

        capsys.readouterr()
        argv = ["--duration", "600", "--goals-ms", "2.0", "--json"]
        assert main(["optimize", "--corpus", str(corpus_dir)] + argv) == 0
        table = json.loads(capsys.readouterr().out)
        assert main(["optimize", "--synthetic", "MSRusr2"] + argv) == 0
        single = json.loads(capsys.readouterr().out)
        assert single.pop("corpus") is None and table.pop("corpus")
        # same seed, same duration: the corpus entry *is* this trace (the
        # streamed idle extraction differs from the in-memory one in the
        # last bits, so the tuned numbers agree to ~1e-5 only)
        (entry,), (stored,) = single.pop("entries").values(), table.pop("entries").values()
        assert single == table
        goal, stored_goal = entry.pop("goals")["2"], stored.pop("goals")["2"]
        assert entry == stored
        assert goal.keys() == stored_goal.keys()
        assert goal["request_kb"] == stored_goal["request_kb"]
        assert goal["throughput_mbps"] == pytest.approx(
            stored_goal["throughput_mbps"], rel=1e-3
        )


class TestJsonTargets:
    """``--json FILE`` of `fleet` and `submit`: refused before the
    campaign when it cannot be written, written atomically when it can."""

    def test_fleet_refuses_an_unwritable_target_before_it_runs(self, capsys):
        assert main(_FLEET + ["--json", "/no/such/dir/x.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # not even the campaign banner
        assert captured.err == (
            "repro fleet: --json /no/such/dir/x.json: cannot write in "
            "/no/such/dir\n"
        )

    def test_submit_refuses_it_before_it_contacts_the_service(self, capsys):
        assert main([
            "submit", "--url", "http://127.0.0.1:9", "--wait",
            "--json", "/no/such/dir/x.json",
        ]) == 2
        assert "cannot write in /no/such/dir" in capsys.readouterr().err

    def test_fleet_json_is_written_atomically(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.obs import export

        written = []
        real = export.atomic_write

        def spy(path):
            written.append(str(path))
            return real(path)

        monkeypatch.setattr(export, "atomic_write", spy)
        target = tmp_path / "fleet.json"
        assert main(_FLEET + ["--json", str(target)]) == 0
        assert written == [str(target)]
        assert json.loads(target.read_text())["completeness"] == 1.0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fleet.json"]
