"""Durable verifier state: integrity-headered snapshot and restore.

The paper's P2 gap is an attestation history going dark; a verifier
that keeps every per-agent record in memory reopens that gap at every
restart -- replay offsets, SUSPECT budgets and cache generations all
vanish, and the fleet must re-enroll.  This module makes the verifier's
working state a durable artifact in the style of the durable-attestation
line already backing :mod:`repro.keylime.audit`:

* **Versioned, checksummed container.**  A snapshot file is one header
  line (magic, format version, body length, SHA-256 of the body)
  followed by the JSON body.  Any mismatch -- wrong magic, skewed
  version, truncation, a single flipped byte -- raises
  :class:`~repro.common.errors.IntegrityError` at read time.  Corrupt
  state must fail loudly; restoring it quietly would let an attacker
  (or a bad disk) rewrite attestation history.
* **Atomic replace.**  Writes go to a temporary file in the target
  directory and land via ``os.replace``, so a crash mid-write leaves
  the previous snapshot intact, never a half-written one.
* **Exact resume.**  The body (format version 2) carries every
  per-agent attestation record (lifecycle state, replay offset and
  aggregate, reset count, quarantine budget, round history, policy
  generation, open push session), the verifier's RNG streams, and the
  full hash-chained audit log.  Each fact appears once: failures are
  read back from the round history, and only open push sessions exist.
  :func:`restore_verifier` rehydrates a fresh verifier so each agent
  resumes at its exact replay offset with no re-enrollment -- the nonce
  sequence, verdicts and audit chain continue bit-identically to an
  uninterrupted run.
* **All or nothing.**  A restore decodes every record and checks the
  audit chain before it assigns anything, so a rejected snapshot leaves
  the verifier exactly as it was.
"""

from __future__ import annotations

import json
import os
import random
import re
from typing import Any

from repro.common.atomicfile import write_atomic
from repro.common.errors import IntegrityError, StateError
from repro.common.hexutil import sha256_hex
from repro.keylime.pipeline import (
    AgentState,
    AttestationFailure,
    AttestationResult,
    FailureKind,
)
from repro.keylime.policy import EntryVerdict, PolicyFailure
from repro.keylime.transport import PushSession
from repro.keylime.verifier import KeylimeVerifier
from repro.obs import runtime as obs

SNAPSHOT_MAGIC = "repro-verifier-snapshot"
SNAPSHOT_VERSION = 2

_SHA256_HEX = re.compile("[0-9a-f]{64}")


# -- record serialisation ---------------------------------------------------

def _policy_failure_to_record(failure: PolicyFailure | None) -> dict[str, Any] | None:
    if failure is None:
        return None
    return {
        "verdict": failure.verdict.value,
        "path": failure.path,
        "measured_digest": failure.measured_digest,
        "expected_digests": list(failure.expected_digests),
    }


def _policy_failure_from_record(record: dict[str, Any] | None) -> PolicyFailure | None:
    if record is None:
        return None
    return PolicyFailure(
        verdict=EntryVerdict(record["verdict"]),
        path=str(record["path"]),
        measured_digest=str(record["measured_digest"]),
        expected_digests=tuple(str(d) for d in record["expected_digests"]),
    )


def _failure_to_record(failure: AttestationFailure) -> dict[str, Any]:
    return {
        "time": failure.time,
        "kind": failure.kind.value,
        "detail": failure.detail,
        "policy_failure": _policy_failure_to_record(failure.policy_failure),
    }


def _failure_from_record(record: dict[str, Any]) -> AttestationFailure:
    return AttestationFailure(
        time=float(record["time"]),
        kind=FailureKind(record["kind"]),
        detail=str(record["detail"]),
        policy_failure=_policy_failure_from_record(record["policy_failure"]),
    )


def _result_to_record(result: AttestationResult) -> dict[str, Any]:
    return {
        "time": result.time,
        "ok": result.ok,
        "entries_processed": result.entries_processed,
        "entries_skipped": result.entries_skipped,
        "failures": [_failure_to_record(failure) for failure in result.failures],
        "transient": result.transient,
        "retry_attempts": result.retry_attempts,
        "transport_error": result.transport_error,
    }


def _result_from_record(record: dict[str, Any]) -> AttestationResult:
    return AttestationResult(
        time=float(record["time"]),
        ok=bool(record["ok"]),
        entries_processed=int(record["entries_processed"]),
        entries_skipped=int(record["entries_skipped"]),
        failures=tuple(
            _failure_from_record(failure) for failure in record["failures"]
        ),
        transient=bool(record["transient"]),
        retry_attempts=int(record["retry_attempts"]),
        transport_error=record["transport_error"],
    )


def _rng_state(rng) -> list:
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _rng_state_from_record(value: Any) -> tuple:
    """*value* as a generator state, checked on a scratch generator."""
    version, internal, gauss_next = value
    state = (version, tuple(internal), gauss_next)
    random.Random().setstate(state)
    return state


def _replay_aggregate_from_record(value: Any) -> str:
    """*value* when it is a lowercase hex SHA-256 digest.

    The next log replay extends it as raw bytes, so a malformed value
    must fail the import, not a later poll.
    """
    if not isinstance(value, str) or _SHA256_HEX.fullmatch(value) is None:
        raise ValueError(
            f"replay_aggregate {value!r} is not a lowercase hex SHA-256 digest"
        )
    return value


# -- per-agent state handoff -------------------------------------------------

def export_agent_state(verifier: KeylimeVerifier, agent_id: str) -> dict[str, Any]:
    """One agent's complete attestation record as a JSON-safe dict.

    The per-agent unit of both the whole-verifier snapshot and a shard
    migration: lifecycle state, replay offset and aggregate, quarantine
    budget, round history, policy generation, and the open push session
    (``None`` when no round awaits a submission).
    """
    slot = verifier._slots[agent_id]
    session = slot.push_session
    return {
        "agent_id": agent_id,
        "state": slot.state.value,
        "verified_entries": slot.verified_entries,
        "replay_aggregate": slot.replay_aggregate,
        "last_reset_count": slot.last_reset_count,
        "suspect_since": slot.suspect_since,
        "suspect_windows": slot.suspect_windows,
        "policy": {"generation": slot.policy.generation},
        "results": [_result_to_record(result) for result in slot.results],
        "push_session": session.to_record() if session is not None else None,
    }


def _record_agent_id(record: Any) -> str:
    """The agent id one snapshot record names.

    A record that is not an object, or whose id is missing or not a
    string, is an :class:`IntegrityError` like every other malformed
    field.
    """
    try:
        agent_id = record["agent_id"]
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed agent record in snapshot: {exc}") from exc
    if not isinstance(agent_id, str):
        raise IntegrityError(f"malformed agent record in snapshot: agent_id {agent_id!r}")
    return agent_id


def _decode_agent_state(record: dict[str, Any]) -> tuple[dict[str, Any], int]:
    """The slot fields and policy generation of one agent record.

    Decodes everything and assigns nothing, so a malformed record is an
    :class:`IntegrityError` before any slot changes.
    """
    try:
        reset_count = record["last_reset_count"]
        suspect_since = record["suspect_since"]
        session = record["push_session"]
        fields = {
            "state": AgentState(record["state"]),
            "verified_entries": int(record["verified_entries"]),
            "replay_aggregate": _replay_aggregate_from_record(
                record["replay_aggregate"]
            ),
            "last_reset_count": (
                int(reset_count) if reset_count is not None else None
            ),
            "suspect_since": (
                float(suspect_since) if suspect_since is not None else None
            ),
            "suspect_windows": int(record["suspect_windows"]),
            "results": [_result_from_record(result) for result in record["results"]],
            "push_session": (
                PushSession.from_record(session) if session is not None else None
            ),
        }
        return fields, int(record["policy"]["generation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"malformed agent record in snapshot: {exc}") from exc


def _apply_agent_state(slot, fields: dict[str, Any], generation: int) -> None:
    """Assign decoded *fields* to *slot*; the policy generation never regresses."""
    for name, value in fields.items():
        setattr(slot, name, value)
    if slot.policy.generation < generation:
        slot.policy.generation = generation


def import_agent_state(verifier: KeylimeVerifier, record: dict[str, Any]) -> str:
    """Restore one exported agent record into *verifier*; returns the id.

    The verifier must already hold a slot (``add_agent``) for the
    agent.  A malformed record changes nothing.  A shard migration
    discards the agent's open push session before it exports the
    record, so a submission against the old session is an
    :class:`IntegrityError` on *both* verifiers -- the wrong-shard
    replay story in THREATMODEL.md.
    """
    agent_id = _record_agent_id(record)
    if agent_id not in verifier._slots:
        raise StateError(
            f"agent {agent_id!r} has no slot on the importing verifier "
            "(add_agent it first)"
        )
    _apply_agent_state(verifier._slots[agent_id], *_decode_agent_state(record))
    return agent_id


# -- snapshot assembly ------------------------------------------------------

def snapshot_verifier(
    verifier: KeylimeVerifier, meta: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The verifier's complete durable state as a JSON-safe body.

    *meta* is an opaque caller payload (seed, fleet shape, ...) carried
    verbatim so a CLI ``state load`` can rebuild the surrounding rig.
    """
    now = verifier.scheduler.clock.now
    agents = [
        export_agent_state(verifier, agent_id)
        for agent_id in verifier._slots
    ]
    body: dict[str, Any] = {
        "created_at": now,
        "rng": {
            "verifier": _rng_state(verifier.rng),
            "retry": _rng_state(verifier._retry_rng),
            "session": _rng_state(verifier._session_rng),
        },
        "agents": agents,
        "audit": (
            verifier.audit.export_records() if verifier.audit is not None else None
        ),
        "meta": dict(meta) if meta else {},
    }
    obs.get().registry.counter(
        "verifier_snapshot_saves_total", "Verifier state snapshots assembled",
    ).inc()
    return body


def write_snapshot(
    path: str | os.PathLike,
    verifier: KeylimeVerifier,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Snapshot *verifier* to *path* atomically; returns the header.

    The write goes through :func:`repro.common.atomicfile.write_atomic`:
    a crash at any point leaves either the old snapshot or the new one,
    never a hybrid.
    """
    body = snapshot_verifier(verifier, meta=meta)
    body_bytes = json.dumps(body, sort_keys=True).encode("utf-8")
    header = {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "body_bytes": len(body_bytes),
        "checksum": sha256_hex(body_bytes),
        "created_at": body["created_at"],
        "agents": len(body["agents"]),
    }
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    write_atomic(
        path, lambda handle: handle.writelines((header_line, body_bytes)),
        binary=True,
    )
    return header


def _read_header_and_body(
    path: str | os.PathLike,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The integrity-checked header and decoded body of a snapshot file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise IntegrityError(f"snapshot {path}: no header line (truncated?)")
    try:
        header = json.loads(raw[:newline])
    except ValueError as exc:
        raise IntegrityError(f"snapshot {path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != SNAPSHOT_MAGIC:
        raise IntegrityError(f"snapshot {path}: bad magic (not a verifier snapshot)")
    if header.get("version") != SNAPSHOT_VERSION:
        raise IntegrityError(
            f"snapshot {path}: format version {header.get('version')!r} "
            f"is not the supported version {SNAPSHOT_VERSION}"
        )
    body_bytes = raw[newline + 1:]
    declared = header.get("body_bytes")
    if declared != len(body_bytes):
        raise IntegrityError(
            f"snapshot {path}: body is {len(body_bytes)} bytes, "
            f"header declares {declared} (truncated or padded)"
        )
    if sha256_hex(body_bytes) != header.get("checksum"):
        raise IntegrityError(
            f"snapshot {path}: body checksum mismatch (corrupted or tampered)"
        )
    try:
        body = json.loads(body_bytes)
    except ValueError as exc:
        # The checksum passed, so this is a malformed *write*, but it
        # still must not load.
        raise IntegrityError(f"snapshot {path}: undecodable body: {exc}") from exc
    if not isinstance(body, dict):
        raise IntegrityError(f"snapshot {path}: body is not a JSON object")
    return header, body


def read_snapshot(path: str | os.PathLike) -> dict[str, Any]:
    """Load and integrity-check a snapshot body.

    Every failure mode -- missing header, wrong magic, version skew,
    truncation, checksum mismatch, undecodable body -- raises
    :class:`IntegrityError`.
    """
    return _read_header_and_body(path)[1]


def inspect_snapshot(path: str | os.PathLike) -> dict[str, Any]:
    """A human-oriented summary of a snapshot, without restoring it.

    The file is read and checksummed once.
    """
    header, body = _read_header_and_body(path)
    agents = body.get("agents", [])
    states: dict[str, int] = {}
    open_sessions = 0
    for record in agents:
        states[record["state"]] = states.get(record["state"], 0) + 1
        open_sessions += record.get("push_session") is not None
    audit = body.get("audit")
    return {
        "path": os.fspath(path),
        "version": header["version"],
        "created_at": body.get("created_at"),
        "agents": len(agents),
        "states": states,
        "open_push_sessions": open_sessions,
        "audit_records": len(audit) if audit is not None else 0,
        "results": sum(len(record.get("results", [])) for record in agents),
        "meta": body.get("meta", {}),
    }


# -- restore ----------------------------------------------------------------

def restore_verifier(
    verifier: KeylimeVerifier, body: dict[str, Any]
) -> list[str]:
    """Rehydrate *verifier* from a snapshot body; returns the agent ids.

    The verifier must already hold a slot (``add_agent``) for every
    agent in the snapshot -- restoration resumes attestation records, it
    never re-enrolls identities (the registrar's records are the
    registration layer's to keep).  A snapshot naming agents the
    verifier does not attest raises :class:`StateError` listing them.

    Restored state: per-agent lifecycle, replay offset and aggregate,
    reset count, quarantine bookkeeping, round history, policy
    generation (advanced to at least the recorded value, so cached
    verdicts from before the snapshot can never resurrect), open push
    sessions, the verifier's RNG streams and the audit chain (verified
    link-by-link on the way in).

    All or nothing: every agent record and RNG state is decoded first,
    then the audit chain is restored (it rolls itself back when a link
    fails), and only then is anything assigned -- a snapshot rejected
    with :class:`IntegrityError` leaves *verifier* untouched.
    """
    try:
        agent_records = list(body["agents"])
        rng_states = body["rng"]
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"snapshot body is missing sections: {exc}") from exc

    agent_ids = [_record_agent_id(record) for record in agent_records]
    missing = [agent_id for agent_id in agent_ids if agent_id not in verifier._slots]
    if missing:
        raise StateError(
            "snapshot names agents the verifier is not attesting "
            f"(add_agent them first): {sorted(missing)}"
        )

    decoded = [
        (verifier._slots[agent_id], *_decode_agent_state(record))
        for agent_id, record in zip(agent_ids, agent_records)
    ]
    try:
        streams = [
            (stream, _rng_state_from_record(rng_states[name]))
            for name, stream in (
                ("verifier", verifier.rng),
                ("retry", verifier._retry_rng),
                ("session", verifier._session_rng),
            )
        ]
        created_at = float(body.get("created_at", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"malformed snapshot body: {exc}") from exc

    audit_records = body.get("audit")
    if audit_records is not None and verifier.audit is not None:
        verifier.audit.restore_records(audit_records)

    for slot, fields, generation in decoded:
        _apply_agent_state(slot, fields, generation)
    for stream, state in streams:
        stream.setstate(state)

    registry = obs.get().registry
    registry.counter(
        "verifier_snapshot_restores_total", "Verifier state restores completed",
    ).inc()
    registry.gauge(
        "verifier_snapshot_age_sim_seconds",
        "Simulated age of the most recently restored snapshot",
    ).set(verifier.scheduler.clock.now - created_at)
    return agent_ids


def restore_from_file(
    verifier: KeylimeVerifier, path: str | os.PathLike
) -> list[str]:
    """:func:`read_snapshot` + :func:`restore_verifier` in one step."""
    return restore_verifier(verifier, read_snapshot(path))
