"""Golden pin of the paper's daily update cycle (E2-E4, small scale).

``golden/longrun_daily_cycles.json`` holds an 8-day daily run of the
paper seed on the 60-filler testbed: every update cycle's report
(packages, policy lines and bytes added, modelled generator time, policy
size after, digests deduped) and the final policy's line count, size,
generation and JSON digest, plus the number of green polls.  The values
were recorded before the update cycle was made incremental (running
policy totals, dedupe of contested paths only), so this is the check
that the incremental cycle produces the same policy, day by day.

Re-record (only when the paper's cycle is meant to change)::

    PYTHONPATH=src python tests/test_longrun_golden.py \\
        > tests/golden/longrun_daily_cycles.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import longrun
from repro.experiments.testbed import TestbedConfig

GOLDEN = Path(__file__).resolve().parent / "golden" / "longrun_daily_cycles.json"

SEED = "dsn2025-repro/daily-h"
N_DAYS = 8
CONFIG = TestbedConfig(seed=SEED, n_filler_packages=60, mean_exec_files=10.0)


def observe() -> dict:
    """Run the 8-day daily cycle; returns the pinned fields."""
    captured = {}
    build_testbed = longrun.build_testbed

    def capture(config):
        captured["testbed"] = build_testbed(config)
        return captured["testbed"]

    longrun.build_testbed = capture
    try:
        result = longrun.run_longrun(config=CONFIG, n_days=N_DAYS)
    finally:
        longrun.build_testbed = build_testbed
    policy = captured["testbed"].policy
    return {
        "cycles": [
            {
                "day": cycle.day,
                "packages_low": cycle.policy_report.packages_low,
                "packages_high": cycle.policy_report.packages_high,
                "entries_added": cycle.policy_report.entries_added,
                "bytes_added": cycle.policy_report.bytes_added,
                "duration_seconds": cycle.policy_report.duration_seconds,
                "policy_lines_after": cycle.policy_report.policy_lines_after,
                "deduped_digests": cycle.deduped_digests,
            }
            for cycle in result.cycles
        ],
        "final_policy": {
            "line_count": policy.line_count(),
            "size_bytes": policy.size_bytes(),
            "generation": policy.generation,
            "json_sha256": hashlib.sha256(
                policy.to_json().encode("utf-8")
            ).hexdigest(),
        },
        "ok_polls": result.ok_polls,
    }


@pytest.fixture(scope="module")
def observed() -> dict:
    return observe()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_cycle_matches_golden(observed, golden):
    assert len(observed["cycles"]) == len(golden["cycles"]) == N_DAYS
    for seen, expected in zip(observed["cycles"], golden["cycles"]):
        assert seen == expected, f"cycle of day {expected['day']} diverged"


def test_final_policy_matches_golden(observed, golden):
    assert observed["final_policy"] == golden["final_policy"]


def test_every_poll_green(observed, golden):
    assert observed["ok_polls"] == golden["ok_polls"]


if __name__ == "__main__":
    print(json.dumps({
        "about": (
            "tests/test_longrun_golden.py: run_longrun(TestbedConfig(seed="
            f"{SEED!r}, n_filler_packages=60, mean_exec_files=10.0), "
            f"n_days={N_DAYS}); recorded before the incremental update cycle"
        ),
        **observe(),
    }, indent=1))
