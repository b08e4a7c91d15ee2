"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

The smoke runs spawn ``run.py`` exactly as a user would, on tiny
inputs, and check that every metric is printed with its unit and every
correctness check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert run.percentile(values, 0) == 1.0
    assert run.percentile(values, 100) == 4.0
    assert run.percentile(values, 50) == 2.5
    assert run.percentile(values, 95) == pytest.approx(3.85)
    assert run.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_self_time_subtracts_children():
    # round [0, 10] > attest [1, 7] > sign [2, 6]; round > replay [7, 9].
    spans = [
        (2, 1, "crypto.sign", 2.0, 6.0, 0),
        (1, 0, "agent.attest", 1.0, 7.0, 0),
        (3, 0, "pipeline.log_replay", 7.0, 9.0, 0),
        (0, None, "verifier.round", 0.0, 10.0, 0),
        (4, None, "verifier.round", 10.0, 11.0, 4),
    ]
    own = layertrace.self_times(spans)
    assert own == {
        "crypto.sign": 4.0, "agent.attest": 2.0,
        "pipeline.log_replay": 2.0, "verifier.round": 3.0,
    }
    assert sum(own.values()) == 11.0  # the root spans' duration


def test_every_span_has_a_group():
    for _module, _attribute, span in layertrace.PATCHES:
        assert layertrace.group_of(span) in layertrace.GROUPS
    for span in run.SHARE_SPANS + run.PER_ROUND_SPANS:
        assert span in {entry[2] for entry in layertrace.PATCHES}


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"][1:] == ["benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for key, catalog in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(catalog)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_and_passes_checks(workload, trace):
    done = _run("--workload", workload, "--smoke", "--trace", trace, "--seed", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    catalog = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in catalog
    }
    printed = [(name, unit) for name, unit, _ in catalog]
    if trace == "0":
        printed += [
            (name, unit) for name, unit in run.DIAGNOSTICS
            if name != "sim_days_per_s" or workload == "longrun_daily"
        ]
    report = lines[:-1]
    for name, unit in printed:
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in report
        ), f"{name} [{unit}] not printed"
    assert not any("[FAIL]" in line for line in report)


def test_counts_repeat_and_push_digest_equals_pull(tmp_path):
    record = tmp_path / "runs.jsonl"
    for workload in ("push_shards", "push_shards", "pull_fleet"):
        done = _run("--workload", workload, "--smoke", "--seed", "5",
                    "--record", str(record))
        assert done.returncode == 0, done.stderr
    first, second, pull = (
        json.loads(line) for line in record.read_text().splitlines()
    )
    assert first["counts"] == second["counts"]
    assert first["ticks"] == second["ticks"] == pull["ticks"] == 3
    assert len(first["phases"]) == 3
    assert first["notes"] == second["notes"]
    assert first["notes"]["verdict_digest"] == pull["notes"]["verdict_digest"]
    assert first["git_sha"] == pull["git_sha"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "pull_fleet", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
