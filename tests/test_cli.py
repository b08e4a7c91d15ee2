"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_global_options(self):
        args = build_parser().parse_args(["--seed", "x", "--fillers", "5", "problems"])
        assert args.seed == "x"
        assert args.fillers == 5

    def test_attack_options(self):
        args = build_parser().parse_args(
            ["attack", "Mirai", "--mode", "adaptive", "--mitigated"]
        )
        assert args.name == "Mirai"
        assert args.mode == "adaptive"
        assert args.mitigated


class TestCommands:
    def test_problems(self, capsys):
        assert main(["--fillers", "10", "problems"]) == 0
        out = capsys.readouterr().out
        assert "P1" in out and "P5" in out

    def test_attack_basic(self, capsys):
        assert main(["--fillers", "10", "attack", "Mirai"]) == 0
        out = capsys.readouterr().out
        assert "detected live:         True" in out

    def test_attack_adaptive_evades(self, capsys):
        assert main(["--fillers", "10", "attack", "Mirai", "--mode", "adaptive"]) == 0
        out = capsys.readouterr().out
        assert "detected live:         False" in out

    def test_attack_adaptive_mitigated(self, capsys):
        assert main([
            "--fillers", "10", "attack", "Mirai", "--mode", "adaptive", "--mitigated",
        ]) == 0
        out = capsys.readouterr().out
        assert "detected live:         True" in out

    def test_attack_unknown_name(self, capsys):
        assert main(["attack", "NotARealBotnet"]) == 2
        err = capsys.readouterr().err
        assert "unknown attack" in err

    def test_fp_week_small(self, capsys):
        assert main(["--fillers", "10", "fp-week", "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert "False-positive week" in out

    def test_longrun_small(self, capsys):
        assert main(["--fillers", "10", "longrun", "--days", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert "false positives: 0" in out

    def test_longrun_with_incident(self, capsys):
        assert main([
            "--fillers", "10", "longrun", "--days", "4", "--incident-day", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "false positives:" in out
        assert "day 3" in out or "day 4" in out


class TestReport:
    def test_report_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main([
            "--seed", "cli-test", "--fillers", "8",
            "report", "--days", "2", "--out", str(out),
        ]) == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "Headline verdicts" in text
        assert "basic attacks detected: **8/8**" in text

    def test_failed_report_write_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        """A write that fails part-way (here: text the encoder rejects
        after a valid prefix) leaves the old report byte-identical and
        no temp file behind."""
        import repro.analysis.report as report_module

        out = tmp_path / "report.md"
        out.write_bytes(b"# previous report\n")
        monkeypatch.setattr(
            report_module, "generate_report",
            lambda scale: "# new report\n" * 1000 + "\ud800",
        )
        with pytest.raises(UnicodeEncodeError):
            main(["report", "--out", str(out)])
        assert out.read_bytes() == b"# previous report\n"
        assert [path.name for path in tmp_path.iterdir()] == ["report.md"]


class TestPolicyFileCommands:
    @pytest.fixture()
    def policy_file(self, tmp_path):
        from repro.common.hexutil import sha256_hex
        from repro.keylime.policy import IBM_STYLE_EXCLUDES, RuntimePolicy

        policy = RuntimePolicy(excludes=list(IBM_STYLE_EXCLUDES))
        policy.add_digest("/usr/bin/ls", sha256_hex(b"ls"))
        path = tmp_path / "policy.json"
        path.write_text(policy.to_json())
        return path

    def test_lint_flags_risky_excludes(self, policy_file, capsys):
        assert main(["lint", str(policy_file)]) == 1
        out = capsys.readouterr().out
        assert "/tmp" in out
        assert "P1" in out

    def test_lint_clean_policy(self, tmp_path, capsys):
        from repro.keylime.policy import RuntimePolicy

        path = tmp_path / "clean.json"
        path.write_text(RuntimePolicy(excludes=[r"^/var/log(/.*)?$"]).to_json())
        assert main(["lint", str(path)]) == 0
        assert "no risky exclude rules" in capsys.readouterr().out

    def test_diff_detects_changes(self, policy_file, tmp_path, capsys):
        from repro.common.hexutil import sha256_hex
        from repro.keylime.policy import IBM_STYLE_EXCLUDES, RuntimePolicy

        new = RuntimePolicy(excludes=list(IBM_STYLE_EXCLUDES))
        new.add_digest("/usr/bin/ls", sha256_hex(b"ls-v2"))
        new.add_digest("/usr/bin/cat", sha256_hex(b"cat"))
        new_path = tmp_path / "new.json"
        new_path.write_text(new.to_json())
        assert main(["diff", str(policy_file), str(new_path)]) == 1
        out = capsys.readouterr().out
        assert "+ /usr/bin/cat" in out
        assert "~ /usr/bin/ls" in out

    def test_diff_identical(self, policy_file, capsys):
        assert main(["diff", str(policy_file), str(policy_file)]) == 0

    def test_stats(self, policy_file, capsys):
        assert main(["stats", str(policy_file)]) == 0
        out = capsys.readouterr().out
        assert "paths:               1" in out
        assert "/usr/bin" in out


class TestObsWatch:
    @pytest.fixture(scope="class")
    def watch_export(self, tmp_path_factory):
        """One watched P2 fleet run, exported to JSONL."""
        import contextlib
        import io

        path = tmp_path_factory.mktemp("obs") / "run.jsonl"
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([
                "--fillers", "5", "--seed", "cli-watch",
                "obs", "watch", "--days", "2", "--nodes", "2",
                "--inject-p2", "--once", "--jsonl", str(path),
            ])
        return code, path, buffer.getvalue()

    def test_parser_accepts_watch_options(self):
        args = build_parser().parse_args([
            "obs", "watch", "--scenario", "longrun", "--inject-p2",
            "--p2-day", "2", "--once", "--gap-polls", "4",
        ])
        assert args.scenario == "longrun"
        assert args.inject_p2 and args.once
        assert args.gap_polls == 4.0

    def test_watch_detects_the_injected_gap(self, watch_export):
        code, path, out = watch_export
        assert code == 0
        assert "in coverage gap" in out
        assert "health.coverage_gap" in out
        assert "==== incident INC-" in out
        assert "chain_verified=True" in out
        assert "attack.backdoor_executed" in out
        assert path.exists()

    def test_report_renders_from_the_export(self, watch_export, capsys):
        _, path, _ = watch_export
        capsys.readouterr()  # drop any prior output
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scenario=fleet" in out
        assert "health.coverage_gap" in out
        assert "incident report(s) (embedded)" in out
        assert "chain_verified=True" in out


class TestObsTop:
    @pytest.fixture(scope="class")
    def top_export(self, tmp_path_factory):
        """One sharded run with a forced failover, exported to JSONL."""
        import contextlib
        import io

        path = tmp_path_factory.mktemp("top") / "top.jsonl"
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([
                "--fillers", "2", "--seed", "cli-top",
                "obs", "top", "--verifiers", "3", "--nodes", "9",
                "--rounds", "5", "--kill", "verifier-1", "--kill-round", "2",
                "--once", "--jsonl", str(path), "--json-summary",
            ])
        return code, path, buffer.getvalue()

    def test_parser_accepts_top_options(self):
        args = build_parser().parse_args([
            "obs", "top", "--verifiers", "4", "--nodes", "12",
            "--rounds", "3", "--kill", "verifier-2", "--kill-round", "1",
            "--push", "--once", "--replay", "x.jsonl",
        ])
        assert (args.verifiers, args.nodes, args.rounds) == (4, 12, 3)
        assert (args.kill, args.kill_round) == ("verifier-2", 1)
        assert args.push and args.once
        assert args.replay == "x.jsonl"

    def test_failover_run_shows_the_adoption(self, top_export):
        code, _, out = top_export
        assert code == 0
        assert "-- shards" in out
        assert "(adopted)" in out
        assert "round 2: failover verifier-1" in out
        assert "coverage-gap alerts: 0 (no blind spots)" in out
        assert "nodes attesting: 9/9" in out

    def test_once_renders_federated_rollups(self, top_export):
        import json

        code, path, out = top_export
        assert code == 0
        assert "sources: 4 federated" in out
        assert "verifier-1: 90m STALE" in out
        assert "fleet: 9 nodes" in out
        assert "SLO burn" in out
        assert "tsdb:" in out
        assert path.exists()
        # --json-summary emits one machine-checkable final frame.
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["type"] == "top_frame"
        assert summary["fleet_nodes"]["attesting"] == 9
        assert summary["shard_failovers"] == 1

    def test_export_carries_the_full_tsdb(self, top_export):
        from repro.obs.exporters import load_jsonl
        from repro.obs.tsdb import TsdbStore

        _, path, _ = top_export
        records = load_jsonl(path.read_text())
        kinds = {record.get("type") for record in records}
        assert {"run_meta", "tsdb_meta", "tsdb_series", "top_frame"} <= kinds
        store = TsdbStore.from_records(records)
        assert len(store) > 0
        assert store.time_span() is not None

    def test_replay_renders_post_hoc(self, top_export, capsys):
        _, path, _ = top_export
        capsys.readouterr()
        assert main(["obs", "top", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fleet: 9 nodes" in out
        assert "(adopted)" in out
        assert "tsdb:" in out

    def test_report_summarises_the_tsdb(self, top_export, capsys):
        _, path, _ = top_export
        capsys.readouterr()
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run: scenario=observatory seed=cli-top agents=9\n" in out
        assert "tsdb:" in out and "series" in out

    def test_push_run_reports_poll_rate_and_latency(self, capsys):
        """Push rounds land in the same round record as pull polls, so
        the ``fleet:poll_*`` trend lines carry numbers in push mode."""
        import re

        assert main([
            "--fillers", "2", "--seed", "cli-top",
            "obs", "top", "--verifiers", "3", "--nodes", "9",
            "--rounds", "5", "--once", "--push",
        ]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^  poll rate .* \d+\.\d+/h$", out, re.MULTILINE)
        assert re.search(r"^  poll latency .* \d+\.\d+ms$", out, re.MULTILINE)

    def test_replay_of_tsdb_free_export_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "metric", "name": "x"}\n')
        assert main(["obs", "top", "--replay", str(path)]) == 1
        assert "no TSDB series" in capsys.readouterr().out


class TestObsWatchTsdb:
    def test_watch_tsdb_flag_exports_the_collected_store(
        self, tmp_path, capsys
    ):
        path = tmp_path / "watch.jsonl"
        assert main([
            "--fillers", "5", "--seed", "cli-watch-tsdb",
            "obs", "watch", "--days", "1", "--nodes", "2", "--once",
            "--tsdb", "--jsonl", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "SLOs" in out
        from repro.obs.exporters import load_jsonl

        records = load_jsonl(path.read_text())
        kinds = {record.get("type") for record in records}
        assert "tsdb_series" in kinds and "tsdb_meta" in kinds
        # The scraped SLO counter feeds the replayed burn panel.
        assert main(["obs", "top", "--replay", str(path)]) == 0
        replay = capsys.readouterr().out
        assert "SLO burn" in replay
        assert "freshness_headroom" in replay


class TestObsTrace:
    @pytest.fixture(scope="class")
    def fleet_export(self, tmp_path_factory):
        """One small fleet run exported to JSONL (spans included)."""
        import contextlib
        import io

        path = tmp_path_factory.mktemp("trace") / "run.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "--fillers", "5", "--seed", "cli-trace",
                "obs", "fleet", "--days", "1", "--nodes", "2",
                "--jsonl", str(path),
            ])
        assert code == 0
        return path

    def test_show_prints_a_tree(self, fleet_export, capsys):
        assert main(["obs", "trace", "show", str(fleet_export)]) == 0
        out = capsys.readouterr().out
        assert "traces" in out
        assert "verifier.poll" in out

    def test_query_finds_child_span_names(self, fleet_export, capsys):
        assert main([
            "obs", "trace", "query", str(fleet_export),
            "--name", "verifier.poll", "--limit", "3",
        ]) == 0
        out = capsys.readouterr().out
        # Fleet polls batch per round: the traces match by the child
        # span name but display their batch root.
        assert "3 matching trace(s)" in out
        assert "fleet.poll_batch" in out

    def test_export_perfetto_is_loadable_chrome_json(
        self, fleet_export, tmp_path, capsys
    ):
        import json

        out_path = tmp_path / "trace.perfetto.json"
        assert main([
            "obs", "trace", "export", str(fleet_export),
            "--format", "perfetto", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        events = doc["traceEvents"]
        assert events
        completes = [e for e in events if e["ph"] == "X"]
        assert all("ts" in e and "dur" in e and "pid" in e for e in completes)
        # Agent-side spans made it across the wire into the same doc.
        assert any(e["name"] == "agent.attest" for e in completes)

    def test_export_collapsed_stacks(self, fleet_export, capsys):
        assert main([
            "obs", "trace", "export", str(fleet_export),
            "--format", "collapsed",
        ]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_critical_path_attributes_the_poll(self, fleet_export, capsys):
        assert main([
            "obs", "trace", "critical-path", str(fleet_export),
            "--name", "verifier.poll",
        ]) == 0
        out = capsys.readouterr().out
        assert "verifier.poll" in out
        assert "coverage" in out

    def test_diff_of_a_run_against_itself(self, fleet_export, capsys):
        assert main([
            "obs", "trace", "diff", str(fleet_export), str(fleet_export),
        ]) == 0
        out = capsys.readouterr().out
        assert "run.jsonl" in out

    def test_query_with_no_matches(self, fleet_export, capsys):
        assert main([
            "obs", "trace", "query", str(fleet_export),
            "--name", "no.such.span",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 matching trace(s)" in out
