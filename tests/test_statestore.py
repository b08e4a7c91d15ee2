"""The durable verifier state store: integrity container + restore.

The snapshot file format is one header line (magic, version, body
length, body checksum) followed by a JSON body.  The contract under
test: a clean snapshot round-trips the verifier's complete working
state, and *every* corruption -- flipped byte, truncation, version
skew, wrong magic, edited audit history -- fails loudly as
:class:`IntegrityError`, never a quiet partial load.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import IntegrityError, StateError
from repro.common.rng import SeededRng
from repro.experiments.testbed import build_testbed
from repro.keylime.audit import AuditLog
from repro.keylime.statestore import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    import_agent_state,
    inspect_snapshot,
    read_snapshot,
    restore_from_file,
    restore_verifier,
    snapshot_verifier,
    write_snapshot,
)
from repro.keylime.verifier import AgentState, KeylimeVerifier

from tests.conftest import small_config

GOLDEN = Path(__file__).resolve().parent / "golden" / "state_save_ci_push.json"


@pytest.fixture()
def testbed():
    bed = build_testbed(small_config("statestore"))
    bed.workload.daily(3)
    assert bed.poll().ok
    bed.scheduler.clock.advance_by(1800.0)
    bed.workload.daily(4)
    assert bed.poll().ok
    return bed


def _fresh_twin(testbed):
    """A new verifier over the same registrar/scheduler/agent, with a
    deliberately different RNG seed and empty audit -- everything that
    matters must come from the snapshot."""
    twin = KeylimeVerifier(
        testbed.verifier.registrar,
        testbed.scheduler,
        SeededRng("totally-different"),
        testbed.verifier.events,
        continue_on_failure=testbed.verifier.continue_on_failure,
        audit=AuditLog(),
    )
    twin.add_agent(testbed.agent, testbed.policy)
    return twin


def _twin_state(twin, agent_id):
    """Everything a restore assigns, for before/after comparison."""
    return (
        twin.results_of(agent_id),
        twin.verified_entries_of(agent_id),
        twin.state_of(agent_id),
        twin.open_push_session_of(agent_id),
        twin.rng.getstate(),
        twin._retry_rng.getstate(),
        twin._session_rng.getstate(),
        twin.audit.export_records(),
    )


def _flip_audit_ok(body):
    body["audit"][0]["ok"] = not body["audit"][0]["ok"]


def _break_session_rng(body):
    body["rng"]["session"] = [3, [0] * 10, None]


def _break_replay_aggregate(body):
    body["agents"][0]["replay_aggregate"] = "not-a-digest"


def _break_push_session(body):
    del body["agents"][0]["push_session"]["nonce"]


#: Edits below the checksum that a restore must reject whole.
CORRUPTIONS = {
    "audit": _flip_audit_ok,
    "rng": _break_session_rng,
    "aggregate": _break_replay_aggregate,
    "session": _break_push_session,
}


class TestSnapshotRoundTrip:
    def test_write_and_read_back(self, testbed, tmp_path):
        path = tmp_path / "verifier.snap"
        header = write_snapshot(path, testbed.verifier, meta={"seed": "s"})
        assert header["magic"] == SNAPSHOT_MAGIC
        assert header["version"] == SNAPSHOT_VERSION
        assert header["agents"] == 1
        body = read_snapshot(path)
        assert body["created_at"] == testbed.scheduler.clock.now
        assert body["meta"] == {"seed": "s"}
        assert len(body["agents"]) == 1
        record = body["agents"][0]
        assert record["agent_id"] == testbed.agent_id
        assert record["verified_entries"] == (
            testbed.verifier.verified_entries_of(testbed.agent_id)
        )
        assert len(record["results"]) == 2

    def test_restore_resumes_exact_replay_offset(self, testbed, tmp_path):
        path = tmp_path / "verifier.snap"
        write_snapshot(path, testbed.verifier)
        offset = testbed.verifier.verified_entries_of(testbed.agent_id)
        twin = _fresh_twin(testbed)
        restored = restore_from_file(twin, path)
        assert restored == [testbed.agent_id]
        assert twin.verified_entries_of(testbed.agent_id) == offset
        assert twin.results_of(testbed.agent_id) == (
            testbed.verifier.results_of(testbed.agent_id)
        )
        assert twin.state_of(testbed.agent_id) is AgentState.ATTESTING

    def test_restore_is_not_a_re_enrollment(self, testbed, tmp_path):
        """The registrar's records are untouched by a restore."""
        path = tmp_path / "verifier.snap"
        write_snapshot(path, testbed.verifier)
        record_before = testbed.verifier.registrar.lookup(testbed.agent_id)
        restore_from_file(_fresh_twin(testbed), path)
        assert testbed.verifier.registrar.lookup(testbed.agent_id) is record_before

    def test_restored_rng_continues_the_nonce_stream(self, testbed, tmp_path):
        path = tmp_path / "verifier.snap"
        write_snapshot(path, testbed.verifier)
        expected = testbed.verifier.rng.hexid(20)
        twin = _fresh_twin(testbed)
        restore_from_file(twin, path)
        assert twin.rng.hexid(20) == expected

    def test_restore_audit_chain_verbatim(self, testbed, tmp_path):
        path = tmp_path / "verifier.snap"
        write_snapshot(path, testbed.verifier)
        twin = _fresh_twin(testbed)
        restore_from_file(twin, path)
        assert twin.audit.export_records() == (
            testbed.verifier.audit.export_records()
        )
        twin.audit.verify_chain()

    def test_open_push_session_survives_the_snapshot(self, testbed, tmp_path):
        from repro.keylime.transport import negotiation_to_json

        testbed.verifier.negotiate_push(
            negotiation_to_json(testbed.agent_id, testbed.agent.capabilities())
        )
        session = testbed.verifier.open_push_session_of(testbed.agent_id)
        path = tmp_path / "verifier.snap"
        write_snapshot(path, testbed.verifier)
        twin = _fresh_twin(testbed)
        restore_from_file(twin, path)
        revived = twin.open_push_session_of(testbed.agent_id)
        assert revived is not None
        assert revived.to_record() == session.to_record()

    def test_policy_generation_never_regresses(self, testbed, tmp_path):
        path = tmp_path / "verifier.snap"
        write_snapshot(path, testbed.verifier)
        twin = _fresh_twin(testbed)
        twin._slot(testbed.agent_id).policy.generation += 7
        advanced = twin._slot(testbed.agent_id).policy.generation
        restore_verifier(twin, read_snapshot(path))
        assert twin._slot(testbed.agent_id).policy.generation == advanced

    def test_atomic_replace_keeps_the_previous_snapshot(self, testbed, tmp_path):
        path = tmp_path / "verifier.snap"
        write_snapshot(path, testbed.verifier)
        first = read_snapshot(path)
        testbed.scheduler.clock.advance_by(60.0)
        write_snapshot(path, testbed.verifier)
        second = read_snapshot(path)
        assert second["created_at"] > first["created_at"]
        # No temp droppings left behind.
        assert os.listdir(tmp_path) == ["verifier.snap"]

    def test_snapshot_does_not_depend_on_process_history(self):
        """Two identical rigs built one after the other in one process
        snapshot byte-identically: no process-wide counter (such as a
        policy's cache uid) leaks into the durable record."""
        from repro.experiments.shardfleet import build_shard_rig

        blobs = []
        for _ in range(2):
            fleet = build_shard_rig("uid-check", 2, 20)
            fleet.scheduler.clock.advance_by(1800.0)
            fleet.poll_all()
            blobs.append(json.dumps(snapshot_verifier(fleet.verifier), sort_keys=True))
        assert blobs[0] == blobs[1]


class TestSnapshotIntegrity:
    def _snap(self, testbed, tmp_path):
        path = tmp_path / "verifier.snap"
        write_snapshot(path, testbed.verifier)
        return path

    def test_every_flipped_body_byte_is_rejected_or_checksum_caught(
        self, testbed, tmp_path
    ):
        """Flip one byte at a sweep of offsets: the checksum catches it."""
        path = self._snap(testbed, tmp_path)
        raw = path.read_bytes()
        header_end = raw.find(b"\n")
        for offset in range(header_end + 1, len(raw), 97):
            mutated = bytearray(raw)
            mutated[offset] ^= 0x01
            path.write_bytes(bytes(mutated))
            with pytest.raises(IntegrityError):
                read_snapshot(path)
        path.write_bytes(raw)
        read_snapshot(path)

    def test_header_tampering_rejected(self, testbed, tmp_path):
        path = self._snap(testbed, tmp_path)
        raw = path.read_bytes()
        header_end = raw.find(b"\n")
        header = json.loads(raw[:header_end])
        header["agents"] = 99  # any header edit breaks nothing by itself...
        header["checksum"] = "0" * 64  # ...but a checksum edit must
        path.write_bytes(
            json.dumps(header, sort_keys=True).encode() + raw[header_end:]
        )
        with pytest.raises(IntegrityError, match="checksum"):
            read_snapshot(path)

    def test_truncation_rejected_at_every_cut(self, testbed, tmp_path):
        path = self._snap(testbed, tmp_path)
        raw = path.read_bytes()
        for cut in range(0, len(raw) - 1, max(1, len(raw) // 50)):
            path.write_bytes(raw[:cut])
            with pytest.raises(IntegrityError):
                read_snapshot(path)

    def test_version_skew_rejected(self, testbed, tmp_path):
        path = self._snap(testbed, tmp_path)
        raw = path.read_bytes()
        header_end = raw.find(b"\n")
        header = json.loads(raw[:header_end])
        header["version"] = SNAPSHOT_VERSION + 1
        path.write_bytes(
            json.dumps(header, sort_keys=True).encode() + raw[header_end:]
        )
        with pytest.raises(IntegrityError, match="version"):
            read_snapshot(path)

    def test_wrong_magic_rejected(self, testbed, tmp_path):
        path = tmp_path / "not-a-snapshot"
        path.write_text('{"magic": "something-else"}\n{}')
        with pytest.raises(IntegrityError, match="magic"):
            read_snapshot(path)

    def test_not_a_snapshot_at_all_rejected(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_bytes(b"\xff\xfe\x00 no header here")
        with pytest.raises(IntegrityError):
            read_snapshot(path)

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
    def test_edited_audit_history_fails_the_restore(self, testbed, tmp_path, corrupt):
        """Snapshot tampering below the checksum: an edited body fails
        the restore, and the failed restore applies nothing at all."""
        body = self._snap_with_open_session(testbed, tmp_path)
        corrupt(body)
        twin = _fresh_twin(testbed)
        before = _twin_state(twin, testbed.agent_id)
        with pytest.raises(IntegrityError):
            restore_verifier(twin, body)
        assert _twin_state(twin, testbed.agent_id) == before

    def test_missing_sections_rejected(self, testbed):
        twin = _fresh_twin(testbed)
        with pytest.raises(IntegrityError, match="missing sections"):
            restore_verifier(twin, {"created_at": 0.0})

    def test_unknown_agent_in_snapshot_is_a_state_error(self, testbed, tmp_path):
        path = self._snap(testbed, tmp_path)
        body = read_snapshot(path)
        body["agents"][0]["agent_id"] = "agent-nobody"
        twin = _fresh_twin(testbed)
        with pytest.raises(StateError, match="agent-nobody"):
            restore_verifier(twin, body)

    def test_malformed_agent_record_rejected(self, testbed, tmp_path):
        path = self._snap(testbed, tmp_path)
        body = read_snapshot(path)
        body["agents"][0]["verified_entries"] = "lots"
        twin = _fresh_twin(testbed)
        with pytest.raises(IntegrityError, match="malformed agent record"):
            restore_verifier(twin, body)

    @pytest.mark.parametrize(
        "record",
        [{}, {"agent_id": None}, {"agent_id": ["a"]}, [], "agent", None, 7],
        ids=["no-id", "null-id", "list-id", "list", "string", "null", "number"],
    )
    def test_record_naming_no_agent_rejected(self, testbed, tmp_path, record):
        """A record with no string agent id is malformed like any other:
        the restore and the one-agent import both raise IntegrityError
        and change no slot, RNG stream or audit record."""
        body = self._snap_with_open_session(testbed, tmp_path)
        twin = _fresh_twin(testbed)
        slots = dict(twin._slots)
        before = _twin_state(twin, testbed.agent_id)
        for attempt in (
            lambda: restore_verifier(twin, {"agents": [record], "rng": {}}),
            # A good record ahead of the bad one is not applied either.
            lambda: restore_verifier(twin, {**body, "agents": [*body["agents"], record]}),
            lambda: import_agent_state(twin, record),
        ):
            with pytest.raises(IntegrityError, match="malformed agent record"):
                attempt()
            assert twin._slots == slots
            assert all(twin._slots[key] is slot for key, slot in slots.items())
            assert _twin_state(twin, testbed.agent_id) == before

    @pytest.mark.parametrize(
        "aggregate", ["not-a-digest", "A" * 64, "0" * 63, "0" * 62 + " 0", None],
    )
    def test_malformed_replay_aggregate_rejected(self, testbed, tmp_path, aggregate):
        """The next replay extends the aggregate as raw bytes: a value
        that is not a lowercase hex SHA-256 digest fails the import."""
        path = self._snap(testbed, tmp_path)
        body = read_snapshot(path)
        body["agents"][0]["replay_aggregate"] = aggregate
        twin = _fresh_twin(testbed)
        with pytest.raises(
            IntegrityError, match="malformed agent record.*replay_aggregate"
        ):
            restore_verifier(twin, body)


    def _snap_with_open_session(self, testbed, tmp_path):
        from repro.keylime.transport import negotiation_to_json

        testbed.verifier.negotiate_push(
            negotiation_to_json(testbed.agent_id, testbed.agent.capabilities())
        )
        body = read_snapshot(self._snap(testbed, tmp_path))
        assert body["agents"][0]["push_session"] is not None
        return body


class TestInspect:
    def test_summary_fields(self, testbed, tmp_path):
        path = tmp_path / "verifier.snap"
        write_snapshot(path, testbed.verifier, meta={"nodes": 1})
        summary = inspect_snapshot(path)
        assert summary["agents"] == 1
        assert summary["states"] == {"attesting": 1}
        assert summary["results"] == 2
        assert summary["audit_records"] == 2
        assert summary["open_push_sessions"] == 0
        assert summary["meta"] == {"nodes": 1}

    def test_inspect_rejects_corruption_too(self, testbed, tmp_path):
        path = tmp_path / "verifier.snap"
        write_snapshot(path, testbed.verifier)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(IntegrityError):
            inspect_snapshot(path)


class TestSnapshotGolden:
    def test_ci_push_snapshot_bytes_are_pinned(self, tmp_path, capsys):
        """The CI push run's snapshot, byte for byte: verdicts, session
        records, RNG streams and audit chain all feed its sha256."""
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        path = tmp_path / "verifier.snap"
        argv = [str(path) if arg == "SNAPSHOT" else arg for arg in golden["argv"]]
        assert main(argv) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == golden["sha256"]
