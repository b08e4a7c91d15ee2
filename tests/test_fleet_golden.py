"""Golden pin of the single-verifier fleet path.

Every other fleet test compares a run with itself.  This one compares a
run with ``golden/fleet_single_verifier.json``, values recorded before
the multi-verifier code was folded into :class:`~repro.keylime.fleet
.Fleet`, so it is the check that the unsharded path stayed bit-identical
through that refactor: the same verdicts, the same hash-chained audit
log, the same event sequence and the same durable snapshot, byte for
byte.

The scenario is a 4-node deterministic rig (``fillers=2``) driven for 6
pull ticks and, on a second rig, 6 push ticks; before every tick each
node executes the same 2 seeded-random installed binaries.  Every
recorded field repeated exactly across two independent recordings.

The scenario runs in a fresh interpreter (this module run as a
script): a snapshot records each agent's policy uid, and uids come
from a process-wide counter, so the snapshot bytes depend on how many
policies the process built before the scenario started.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.experiments.shardfleet import build_shard_rig
from repro.keylime.statestore import write_snapshot

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "fleet_single_verifier.json"
MODES = ("pull", "push")

SEED = "golden/single-verifier"
N_NODES = 4
FILLERS = 2
TICKS = 6
EXECS_PER_TICK = 2
INTERVAL = 1800.0


def _exec_schedule(fleet) -> list[str]:
    """Every installed executable, in a seeded order (nodes are identical)."""
    machine = fleet.nodes[0].machine
    pool = sorted(
        stat.path for prefix in ("/bin", "/usr")
        for stat in machine.vfs.walk(prefix) if stat.executable
    )
    random.Random(f"{SEED}/execs").shuffle(pool)
    return pool


def _verdict_digest(results) -> str:
    rows = [
        [result.time, result.ok, result.entries_processed,
         result.entries_skipped, result.transient, result.retry_attempts,
         [[failure.kind.value, failure.detail] for failure in result.failures]]
        for result in results
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def _kind_runs(events) -> list[list]:
    """The event kind sequence, run-length encoded as ``[kind, count]``."""
    runs: list[list] = []
    for record in events:
        if runs and runs[-1][0] == record.kind:
            runs[-1][1] += 1
        else:
            runs.append([record.kind, 1])
    return runs


def observe(push_mode: bool, snapshot_path: Path) -> dict:
    """Run the golden scenario in one mode; returns the pinned fields."""
    fleet = build_shard_rig(SEED, N_NODES, FILLERS, push_mode=push_mode)
    pool = _exec_schedule(fleet)
    for tick in range(TICKS):
        for node in fleet.nodes:
            for path in pool[EXECS_PER_TICK * tick:EXECS_PER_TICK * (tick + 1)]:
                node.machine.exec_file(path)
        fleet.scheduler.clock.advance_by(INTERVAL)
        fleet.poll_all()
    write_snapshot(snapshot_path, fleet.verifier)
    return {
        "verdicts": {
            node.agent.agent_id: _verdict_digest(
                fleet.verifier.results_of(node.agent.agent_id)
            )
            for node in fleet.nodes
        },
        "audit_head": fleet.verifier.audit.head_hash,
        "event_kinds": _kind_runs(fleet.events),
        "snapshot_sha256": hashlib.sha256(snapshot_path.read_bytes()).hexdigest(),
    }


@pytest.fixture(scope="module")
def observed() -> dict:
    """Both modes' pinned fields, observed in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())], env=env,
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("mode", MODES)
def test_single_verifier_path_matches_golden(mode, observed):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[mode]
    assert observed[mode].keys() == golden.keys()
    for field, expected in golden.items():
        assert observed[mode][field] == expected, f"golden field {field!r} diverged"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps({
            mode: observe(mode == "push", Path(scratch) / f"{mode}.snap")
            for mode in MODES
        }))
