"""Tests for the perf observatory: trajectory store, noise-aware
regression detection, the unified bench harness, and the CLI surface.

The acceptance pair lives in ``TestCompareTrajectory``: a synthetic
trajectory with seeded measurement noise never flags, while an injected
2x slowdown on one metric always flags exactly that metric -- and a
clean same-seed rerun afterwards goes back to all-ok.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time

import pytest

import repro.obs.perf as perf
from repro.common.errors import ConfigurationError
from repro.obs.perf import (
    DEFAULT_REL_FLOOR,
    DEFAULT_Z_THRESHOLD,
    BenchMetric,
    BenchRecord,
    BenchSpec,
    TrajectoryStore,
    capture_environment,
    classify_metric,
    clear_registry,
    compare_trajectory,
    get_bench,
    load_trajectory,
    record_from_run,
    register_bench,
    registered_benches,
    write_trajectory,
)
from repro.obs.profiling import (
    SamplingProfiler,
    diff_folds,
    load_folds,
    render_fold_diff,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")

#: The benches ISSUE 9 requires migrated onto the harness.
MIGRATED = {
    "pipeline", "trace", "obs", "chaos",
    "tsdb", "saturation", "push", "policy_scale",
}


@pytest.fixture(autouse=True)
def _registry_guard():
    """Snapshot/restore the process-global bench registry per test."""
    snapshot = dict(perf._REGISTRY)
    yield
    perf._REGISTRY.clear()
    perf._REGISTRY.update(snapshot)


def make_spec(name="demo", metrics=None, modes=("smoke", "full")):
    metrics = metrics or [BenchMetric("wall_s", "s", "lower")]
    return BenchSpec(
        name=name,
        metrics=tuple(metrics),
        runner=lambda mode, seed: {"wall_s": 1.0},
        seed=f"{name}-seed",
        modes=tuple(modes),
    )


def make_record(
    bench="pipeline",
    mode="smoke",
    seed="seed-a",
    metrics=None,
    better=None,
    units=None,
    seq=None,
    profile=None,
):
    metrics = dict(metrics or {"wall_s": 1.0})
    return BenchRecord(
        bench=bench,
        mode=mode,
        seed=seed,
        metrics=metrics,
        units={k: (units or {}).get(k, "s") for k in metrics},
        better={k: (better or {}).get(k, "lower") for k in metrics},
        env={"python": "3.x", "smoke": mode == "smoke"},
        recorded_at=1000.0 + (seq or 0),
        profile=profile,
        seq=seq,
    )


def noisy_history(
    noise_seed,
    runs,
    base=None,
    amplitude=0.03,
    bench="pipeline",
    mode="smoke",
    seed="seed-a",
):
    """*runs* records whose metrics jitter within ±*amplitude*."""
    base = base or {"wall_s": 2.0, "eps": 500.0}
    rng = random.Random(noise_seed)
    records = []
    for index in range(runs):
        metrics = {
            name: value * (1.0 + rng.uniform(-amplitude, amplitude))
            for name, value in sorted(base.items())
        }
        records.append(make_record(
            bench=bench, mode=mode, seed=seed, metrics=metrics, seq=index,
        ))
    return records


class TestSpecAndRegistry:
    def test_metric_validates_better(self):
        with pytest.raises(ConfigurationError):
            BenchMetric("x", "s", "sideways")

    def test_spec_rejects_duplicate_metrics(self):
        with pytest.raises(ConfigurationError):
            make_spec(metrics=[
                BenchMetric("wall_s", "s", "lower"),
                BenchMetric("wall_s", "ms", "lower"),
            ])

    def test_spec_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            make_spec(modes=("smoke", "warp"))

    def test_register_is_replace_on_reregister(self):
        register_bench(
            "demo", [BenchMetric("a", "s", "lower")],
            lambda mode, seed: {"a": 1.0}, seed="s1",
        )
        register_bench(
            "demo", [BenchMetric("b", "s", "lower")],
            lambda mode, seed: {"b": 1.0}, seed="s2",
        )
        spec = get_bench("demo")
        assert spec is not None and spec.seed == "s2"
        assert [m.name for m in spec.metrics] == ["b"]
        assert sum(
            1 for s in registered_benches() if s.name == "demo"
        ) == 1


class TestRecordFromRun:
    def test_keeps_only_declared_metrics_and_stamps_mode_seed(self):
        spec = make_spec()
        record = record_from_run(
            spec, "smoke", {"wall_s": 1.5, "scratch": 9.0}, seed="override",
        )
        assert record.metrics == {"wall_s": 1.5}
        assert record.mode == "smoke"
        assert record.seed == "override"
        assert record.env["smoke"] is True
        assert record.units == {"wall_s": "s"}
        assert record.better == {"wall_s": "lower"}

    def test_default_seed_is_the_spec_seed(self):
        record = record_from_run(make_spec(), "full", {"wall_s": 1.0})
        assert record.seed == "demo-seed"
        assert record.env["smoke"] is False

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            record_from_run(make_spec(), "smoke", {"wall_s": float("inf")})

    def test_rejects_unsupported_mode(self):
        with pytest.raises(ConfigurationError):
            record_from_run(
                make_spec(modes=("full",)), "smoke", {"wall_s": 1.0},
            )

    def test_rejects_empty_result(self):
        with pytest.raises(ConfigurationError):
            record_from_run(make_spec(), "smoke", {"scratch": 1.0})

    def test_environment_capture_shape(self):
        env = capture_environment(cwd=REPO_ROOT)
        assert set(env) >= {"python", "platform", "git_sha"}
        assert env["git_sha"]  # "unknown" at worst, never empty


class TestTrajectoryStore:
    def test_append_load_round_trips_exactly(self, tmp_path):
        path = str(tmp_path / "perf" / "trajectory.jsonl")
        store = TrajectoryStore(path)
        written = [
            make_record(metrics={"wall_s": 1.25, "eps": 400.0}),
            make_record(bench="tsdb", mode="full", profile="p.folds"),
            make_record(seed="seed-b", metrics={"wall_s": 0.5}),
        ]
        for record in written:
            store.append(record)
        assert [r.seq for r in written] == [0, 1, 2]
        loaded = TrajectoryStore(path).load()
        assert [r.to_record() for r in loaded] \
            == [r.to_record() for r in written]

    def test_write_trajectory_round_trips(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        records = noisy_history(1, 4)
        write_trajectory(path, records)
        assert [r.to_record() for r in load_trajectory(path)] \
            == [r.to_record() for r in records]

    def test_torn_tail_is_tolerated_and_counted(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        store = TrajectoryStore(path)
        for record in noisy_history(2, 3):
            store.append(record)
        with open(path, "r+", encoding="utf-8") as handle:
            whole = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(whole[:-20])  # tear the final line mid-JSON
        recovered = TrajectoryStore(path)
        records = recovered.load()
        assert len(records) == 2
        assert recovered.torn_lines == 1
        assert [r.seq for r in records] == [0, 1]

    def test_append_after_torn_tail_repairs_the_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        store = TrajectoryStore(path)
        for record in noisy_history(3, 2):
            store.append(record)
        with open(path, "r+", encoding="utf-8") as handle:
            whole = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(whole[:-15])  # torn tail, no trailing newline
        recovered = TrajectoryStore(path)
        recovered.load()
        appended = recovered.append(make_record(metrics={"wall_s": 9.0}))
        assert appended.seq == 1
        final = TrajectoryStore(path)
        records = final.load()
        assert final.torn_lines == 1  # the fragment stays, skipped
        assert [r.metrics["wall_s"] for r in records][-1] == 9.0
        assert [r.seq for r in records] == list(range(len(records)))

    def test_non_record_lines_are_ignored(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "bench_verdict"}) + "\n")
            handle.write(
                json.dumps(make_record(seq=0).to_record()) + "\n"
            )
        assert len(load_trajectory(path)) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_trajectory(str(tmp_path / "nope.jsonl")) == []


class TestClassifyMetric:
    def test_within_threshold_is_ok(self):
        status, median, noise, score, _ = classify_metric(
            1.04, [1.0, 1.01, 0.99, 1.0], "lower",
        )
        assert status == "ok"
        assert median == pytest.approx(1.0, rel=0.02)
        assert noise >= DEFAULT_REL_FLOOR * median
        assert abs(score) <= DEFAULT_Z_THRESHOLD

    def test_no_baseline_is_noisy(self):
        status, median, noise, score, reason = classify_metric(
            1.0, [], "lower",
        )
        assert status == "noisy"
        assert (median, noise, score) == (None, None, None)
        assert "no baseline" in reason

    def test_single_run_baseline_beyond_floor_is_noisy(self):
        status, _, _, _, reason = classify_metric(2.0, [1.0], "lower")
        assert status == "noisy"
        assert "single-run" in reason

    def test_unstable_baseline_is_noisy(self):
        status, _, _, _, reason = classify_metric(
            1000.0, [100.0, 300.0, 50.0, 260.0, 10.0], "lower",
        )
        assert status == "noisy"
        assert "MAD noise" in reason

    def test_lower_better_directions(self):
        baseline = [1.0, 1.01, 0.99, 1.0, 1.02]
        assert classify_metric(2.0, baseline, "lower")[0] == "regressed"
        assert classify_metric(0.5, baseline, "lower")[0] == "improved"

    def test_higher_better_directions(self):
        baseline = [1000.0, 1010.0, 990.0, 1000.0, 1005.0]
        assert classify_metric(500.0, baseline, "higher")[0] == "regressed"
        assert classify_metric(2000.0, baseline, "higher")[0] == "improved"

    def test_bit_identical_baseline_uses_relative_floor(self):
        # MAD = 0: sub-floor drift stays ok, beyond-floor drift flags.
        baseline = [100.0] * 5
        assert classify_metric(104.0, baseline, "lower")[0] == "ok"
        assert classify_metric(200.0, baseline, "lower")[0] == "regressed"

    def test_invalid_better_raises(self):
        with pytest.raises(ConfigurationError):
            classify_metric(1.0, [1.0], "sideways")


class TestCompareTrajectory:
    @pytest.mark.parametrize("noise_seed", range(6))
    def test_seeded_noise_never_flags(self, noise_seed):
        records = noisy_history(noise_seed, 8)
        result = compare_trajectory(records)
        assert {v.status for v in result.verdicts} == {"ok"}
        assert result.status == "ok"

    @pytest.mark.parametrize("noise_seed", range(6))
    def test_injected_2x_slowdown_flags_exactly_that_metric(
        self, noise_seed,
    ):
        records = noisy_history(noise_seed, 7)
        candidate = records[-1]
        candidate.metrics["wall_s"] *= 2.0  # the injected regression
        result = compare_trajectory(records)
        regressed = result.regressed
        assert [(v.bench, v.metric) for v in regressed] \
            == [("pipeline", "wall_s")]
        others = [v for v in result.verdicts if v.metric != "wall_s"]
        assert {v.status for v in others} == {"ok"}
        assert result.status == "regressed"
        verdict = regressed[0]
        assert verdict.delta_ratio == pytest.approx(1.0, abs=0.15)
        assert verdict.score is not None \
            and abs(verdict.score) > DEFAULT_Z_THRESHOLD

    @pytest.mark.parametrize("noise_seed", range(6))
    def test_clean_same_seed_rerun_reports_all_ok(self, noise_seed):
        # The acceptance pair's second half: drop the injected run,
        # rerun clean with the same seed, everything is ok again.
        records = noisy_history(noise_seed, 7)
        records[-1].metrics["wall_s"] *= 2.0
        clean = noisy_history(noise_seed, 8)[-1]
        clean.seq = len(records)
        result = compare_trajectory(records + [clean])
        statuses = {v.status for v in result.verdicts}
        assert "regressed" not in statuses
        assert "improved" not in statuses

    def test_improved_respects_better_direction(self):
        base = {"eps": 500.0}
        records = [
            make_record(metrics=dict(base), better={"eps": "higher"}, seq=i)
            for i in range(5)
        ]
        records.append(make_record(
            metrics={"eps": 1000.0}, better={"eps": "higher"}, seq=5,
        ))
        result = compare_trajectory(records)
        assert [v.status for v in result.verdicts] == ["improved"]

    def test_modes_never_mix(self):
        smoke = [
            make_record(mode="smoke", metrics={"wall_s": 1.0}, seq=i)
            for i in range(4)
        ]
        full = [
            make_record(mode="full", metrics={"wall_s": 10.0}, seq=4 + i)
            for i in range(4)
        ]
        result = compare_trajectory(smoke + full)
        assert {v.status for v in result.verdicts} == {"ok"}
        only_full = compare_trajectory(smoke + full, mode="full")
        assert {v.mode for v in only_full.verdicts} == {"full"}

    def test_baseline_window_is_bounded(self):
        # Ancient 10x-slower history outside the window must not
        # make the current steady state look improved.
        old = [
            make_record(metrics={"wall_s": 10.0}, seq=i) for i in range(5)
        ]
        recent = [
            make_record(metrics={"wall_s": 1.0}, seq=5 + i)
            for i in range(6)
        ]
        result = compare_trajectory(old + recent, baseline_runs=5)
        assert [v.status for v in result.verdicts] == ["ok"]

    def test_new_metric_without_history_is_noisy(self):
        records = [
            make_record(metrics={"wall_s": 1.0}, seq=0),
            make_record(metrics={"wall_s": 1.0}, seq=1),
            make_record(metrics={"wall_s": 1.0, "fresh": 5.0}, seq=2),
        ]
        result = compare_trajectory(records)
        by_metric = {v.metric: v for v in result.verdicts}
        assert by_metric["fresh"].status == "noisy"
        assert by_metric["wall_s"].status == "ok"

    def test_single_run_baseline_stays_advisory(self):
        records = [
            make_record(metrics={"wall_s": 1.0}, seq=0),
            make_record(metrics={"wall_s": 2.0}, seq=1),
        ]
        result = compare_trajectory(records)
        assert [v.status for v in result.verdicts] == ["noisy"]

    def test_seed_mismatch_is_reported(self):
        records = [
            make_record(seed="seed-a", seq=0),
            make_record(seed="seed-a", seq=1),
            make_record(seed="seed-b", seq=2),
        ]
        result = compare_trajectory(records)
        assert all(not v.baseline_seeds_match for v in result.verdicts)

    def test_summary_record_and_counts(self):
        records = noisy_history(0, 6)
        records[-1].metrics["wall_s"] *= 2.0
        result = compare_trajectory(records)
        summary = result.to_record()
        assert summary["type"] == "bench_compare"
        assert summary["status"] == "regressed"
        assert summary["counts"]["regressed"] == 1
        assert summary["regressed"][0]["metric"] == "wall_s"
        verdict_record = result.regressed[0].to_record()
        assert verdict_record["type"] == "bench_verdict"
        assert verdict_record["status"] == "regressed"

    def test_bad_baseline_runs_raises(self):
        with pytest.raises(ConfigurationError):
            compare_trajectory([], baseline_runs=0)


class TestSamplingProfiler:
    def test_profiles_a_busy_loop(self):
        profiler = SamplingProfiler(interval=0.001)
        deadline = time.perf_counter() + 0.2
        with profiler:
            while time.perf_counter() < deadline:
                sum(range(200))
        assert profiler.samples > 0
        folds = profiler.folds()
        assert folds
        assert any("test_perf" in stack for stack in folds)
        text = profiler.collapsed()
        assert load_folds(text) == folds

    def test_fold_diff_orders_by_magnitude(self):
        before = {"a;b": 10, "a;c": 5}
        after = {"a;b": 40, "a;c": 6, "a;d": 2}
        deltas = diff_folds(before, after)
        assert deltas[0][0] == "a;b" and deltas[0][1] == 30
        rendered = render_fold_diff(deltas, "base", "cand")
        assert "base" in rendered and "cand" in rendered
        assert "a;b" in rendered


class TestHarnessDiscovery:
    def _harness(self):
        import importlib.util

        name = "repro_bench_harness"
        import sys
        if name in sys.modules:
            return sys.modules[name]
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(BENCH_DIR, "harness.py"),
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        return module

    def test_discovery_finds_every_migrated_bench(self):
        harness = self._harness()
        specs = harness.discover(BENCH_DIR)
        names = {spec.name for spec in specs}
        assert MIGRATED <= names
        assert len(names) >= 8
        for spec in specs:
            assert spec.metrics, spec.name
            assert spec.seed, spec.name

    def test_run_benches_records_deterministic_tiny_bench(self, tmp_path):
        harness = self._harness()
        bench_dir = tmp_path / "benches"
        bench_dir.mkdir()
        (bench_dir / "bench_unit_tiny.py").write_text(
            "from repro.obs.perf import BenchMetric, register_bench\n"
            "def run_bench(mode, seed):\n"
            "    return {'value': float(len(seed)), 'extra': 7.0}\n"
            "register_bench('unit_tiny',\n"
            "    [BenchMetric('value', 'n', 'lower')],\n"
            "    run_bench, seed='tiny-seed')\n"
        )
        trajectory = str(tmp_path / "perf" / "trajectory.jsonl")
        lines = []
        for _ in range(2):
            records = harness.run_benches(
                names=["unit_tiny"],
                mode="smoke",
                trajectory_path=trajectory,
                bench_dir=str(bench_dir),
                log=lines.append,
            )
            assert len(records) == 1
        loaded = load_trajectory(trajectory)
        assert [r.seq for r in loaded] == [0, 1]
        # Determinism audit: same seed + mode => identical metrics,
        # and the undeclared 'extra' metric never leaks into records.
        assert loaded[0].metrics == loaded[1].metrics == {"value": 9.0}
        assert {r.seed for r in loaded} == {"tiny-seed"}
        assert {r.mode for r in loaded} == {"smoke"}
        assert all("git_sha" in r.env for r in loaded)
        assert any("unit_tiny" in line for line in lines)

    def test_run_benches_skips_unsupported_mode(self, tmp_path):
        harness = self._harness()
        bench_dir = tmp_path / "benches"
        bench_dir.mkdir()
        (bench_dir / "bench_unit_fullonly.py").write_text(
            "from repro.obs.perf import BenchMetric, register_bench\n"
            "register_bench('unit_fullonly',\n"
            "    [BenchMetric('value', 'n', 'lower')],\n"
            "    lambda mode, seed: {'value': 1.0},\n"
            "    seed='s', modes=('full',))\n"
        )
        lines = []
        records = harness.run_benches(
            names=["unit_fullonly"],
            mode="smoke",
            trajectory_path=str(tmp_path / "t.jsonl"),
            bench_dir=str(bench_dir),
            log=lines.append,
        )
        assert records == []
        assert any("skip unit_fullonly" in line for line in lines)

    def test_run_benches_profile_links_folds(self, tmp_path):
        harness = self._harness()
        bench_dir = tmp_path / "benches"
        bench_dir.mkdir()
        (bench_dir / "bench_unit_busy.py").write_text(
            "import time\n"
            "from repro.obs.perf import BenchMetric, register_bench\n"
            "def run_bench(mode, seed):\n"
            "    deadline = time.perf_counter() + 0.1\n"
            "    while time.perf_counter() < deadline:\n"
            "        sum(range(100))\n"
            "    return {'value': 1.0}\n"
            "register_bench('unit_busy',\n"
            "    [BenchMetric('value', 'n', 'lower')],\n"
            "    run_bench, seed='s')\n"
        )
        trajectory = str(tmp_path / "perf" / "trajectory.jsonl")
        records = harness.run_benches(
            names=["unit_busy"],
            mode="smoke",
            trajectory_path=trajectory,
            bench_dir=str(bench_dir),
            profile=True,
            profile_interval=0.001,
        )
        assert len(records) == 1
        assert records[0].profile is not None
        assert os.path.exists(records[0].profile)
        loaded = load_trajectory(trajectory)
        assert loaded[0].profile == records[0].profile


class TestCliBench:
    """End-to-end through ``repro.cli.main`` with a tiny bench dir."""

    @pytest.fixture()
    def bench_dir(self, tmp_path):
        directory = tmp_path / "benches"
        directory.mkdir()
        shutil.copy(
            os.path.join(BENCH_DIR, "harness.py"),
            directory / "harness.py",
        )
        (directory / "bench_e2e_tiny.py").write_text(
            "from repro.obs.perf import BenchMetric, register_bench\n"
            "def run_bench(mode, seed):\n"
            "    return {'wall_s': 2.0, 'eps': 500.0}\n"
            "register_bench('e2e_tiny',\n"
            "    [BenchMetric('wall_s', 's', 'lower'),\n"
            "     BenchMetric('eps', '/s', 'higher')],\n"
            "    run_bench, seed='e2e-seed')\n"
        )
        return directory

    def _main(self, argv):
        from repro.cli import main

        return main(argv)

    def test_run_list_compare_history_cycle(
        self, bench_dir, tmp_path, capsys,
    ):
        clear_registry()
        trajectory = str(tmp_path / "perf" / "trajectory.jsonl")
        run_argv = [
            "bench", "run", "--smoke", "--all",
            "--bench-dir", str(bench_dir), "--trajectory", trajectory,
        ]
        for _ in range(3):
            assert self._main(list(run_argv)) == 0
        capsys.readouterr()

        assert self._main([
            "bench", "list", "--json", "--bench-dir", str(bench_dir),
        ]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [spec["name"] for spec in listed] == ["e2e_tiny"]
        assert listed[0]["modes"] == ["smoke", "full"]

        verdicts_path = str(tmp_path / "verdicts.jsonl")
        assert self._main([
            "bench", "compare", "--trajectory", trajectory,
            "--mode", "smoke", "--json", "--out", verdicts_path,
            "--fail-on-regression",
        ]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["status"] == "ok"
        assert summary["counts"]["regressed"] == 0
        with open(verdicts_path, encoding="utf-8") as handle:
            dumped = [json.loads(line) for line in handle]
        assert dumped[-1]["type"] == "bench_compare"
        assert all(
            record["type"] == "bench_verdict" for record in dumped[:-1]
        )

        assert self._main([
            "bench", "history", "--trajectory", trajectory,
        ]) == 0
        out = capsys.readouterr().out
        assert "e2e_tiny" in out and "wall_s" in out

    def test_injected_regression_gates_then_clean_rerun_passes(
        self, bench_dir, tmp_path, capsys,
    ):
        clear_registry()
        trajectory = str(tmp_path / "perf" / "trajectory.jsonl")
        run_argv = [
            "bench", "run", "--smoke", "--all",
            "--bench-dir", str(bench_dir), "--trajectory", trajectory,
        ]
        for _ in range(3):
            assert self._main(list(run_argv)) == 0

        # Inject a 2x slowdown on wall_s only, as a fourth record.
        store = TrajectoryStore(trajectory)
        records = store.load()
        slow = BenchRecord.from_record(records[-1].to_record())
        slow.seq = None
        slow.metrics["wall_s"] *= 2.0
        store.append(slow)
        capsys.readouterr()

        compare_argv = [
            "bench", "compare", "--trajectory", trajectory,
            "--mode", "smoke", "--fail-on-regression",
        ]
        assert self._main(list(compare_argv)) == 1
        out = capsys.readouterr().out
        assert "FAIL: 1 regressed metric(s)" in out
        assert "e2e_tiny/wall_s" in out
        assert out.count("regressed") >= 1
        assert "eps" in out  # the clean metric is still reported (ok)

        # Clean same-seed rerun: back to all ok, gate passes.
        assert self._main(list(run_argv)) == 0
        capsys.readouterr()
        assert self._main(list(compare_argv)) == 0
        out = capsys.readouterr().out
        assert "regressed=0" in out

    def test_empty_trajectory_fails_cleanly(self, tmp_path, capsys):
        assert self._main([
            "bench", "compare",
            "--trajectory", str(tmp_path / "missing.jsonl"),
        ]) == 1
        assert "no bench records" in capsys.readouterr().out
