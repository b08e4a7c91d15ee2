"""Wire formats: serialising evidence between agent and verifier.

In production the agent and verifier are separate processes on separate
machines; evidence crosses an untrusted network as JSON.  The in-process
reproduction normally short-circuits that, but this module provides the
real wire formats plus a :class:`JsonTransportAgent` wrapper that forces
every attestation round through serialisation -- so tests can prove the
security properties hold across (and *because of*) the encoding: a
tampered byte anywhere in the channel surfaces as a verification
failure, never as silently different data.

The challenge (request) side of the wire carries a ``traceparent``
field alongside the nonce, so the spans the *agent* records join the
verifier's ``verifier.poll`` trace even though they are recorded on the
far side of the serialised channel (see
:meth:`repro.obs.tracing.SpanTracer.remote_context`).  The traceparent
is observability metadata, not a security input: tampering with it can
sever the trace linkage (the agent spans show up detached, flagged
``traceparent.resolved=False``) but can neither graft spans onto a
live trace it does not own nor affect verification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.common.errors import IntegrityError, StateError
from repro.keylime.agent import AttestationEvidence, KeylimeAgent, PushCapabilities
from repro.keylime.retrypolicy import RetryBudgetExceeded
from repro.obs import runtime as obs
from repro.obs.tracing import format_traceparent
from repro.tpm.quote import Quote

T = TypeVar("T")


#: Everything a hostile or fault-corrupted payload can raise out of the
#: decoding expressions below.  One shared tuple so every wire decoder
#: fails the same way -- :class:`IntegrityError` -- instead of leaking a
#: bare ``KeyError``/``TypeError``/``OverflowError`` for some byte
#: offsets and an ``IntegrityError`` for others.  (``json.JSONDecodeError``
#: and ``UnicodeDecodeError`` are ``ValueError`` subclasses; ``OverflowError``
#: covers ``int(float("Infinity"))`` from a corrupted numeric field.)
_DECODE_ERRORS = (KeyError, ValueError, TypeError, AttributeError, OverflowError)


def _loads(blob: str | bytes | bytearray) -> Any:
    """``json.loads`` for wire payloads; accepts raw bytes off the channel.

    A fault layer (or a real network) hands the receiver *bytes*; a
    corrupted byte sequence may not even be valid UTF-8, which must
    surface as a payload integrity failure, not a ``UnicodeDecodeError``
    from the middle of the decoder.
    """
    return json.loads(blob)


#: Upper bound on any wire-carried offset or entry count.  No honest
#: fleet ships a trillion-entry measurement list; a larger value is a
#: corrupted or hostile frame trying to drive the verifier's replay
#: cursor (or a list allocation) out of range.
MAX_WIRE_COUNT = 1 << 40


def _checked_count(value: Any, what: str, limit: int = MAX_WIRE_COUNT) -> int:
    """Decode a bounded non-negative integer field (offsets, counts)."""
    count = int(value)
    if count < 0:
        raise IntegrityError(f"negative {what} in wire payload: {count}")
    if count > limit:
        raise IntegrityError(f"oversized {what} in wire payload: {count} > {limit}")
    return count


def _strict_fields(
    payload: Any,
    what: str,
    required: frozenset[str],
    optional: frozenset[str] = frozenset(),
) -> dict[str, Any]:
    """Reject unknown or missing fields in a push-protocol frame.

    The original pull-mode frames tolerate extra keys (they predate
    this check and the sweep tests pin their behaviour); every *new*
    push frame is strict, so a smuggled field can never ride along
    undetected.
    """
    if not isinstance(payload, dict):
        raise IntegrityError(f"{what} payload is not a JSON object")
    unknown = set(payload) - required - optional
    if unknown:
        raise IntegrityError(f"unknown fields in {what}: {sorted(unknown)}")
    missing = required - set(payload)
    if missing:
        raise IntegrityError(f"missing fields in {what}: {sorted(missing)}")
    return payload


def quote_to_dict(quote: Quote) -> dict[str, Any]:
    """JSON-safe encoding of a quote."""
    return {
        "bank": quote.bank_algorithm,
        "selection": list(quote.pcr_selection),
        "pcr_values": {str(index): value for index, value in quote.pcr_values.items()},
        "pcr_digest": quote.pcr_digest,
        "nonce": quote.nonce,
        "clock": quote.clock,
        "reset_count": quote.reset_count,
        "restart_count": quote.restart_count,
        "ak": quote.ak_fingerprint,
        "signature": quote.signature.hex(),
    }


#: The exact key set of an encoded quote / evidence object; the strict
#: push frames verify against these, the legacy pull frames do not.
_QUOTE_FIELDS = frozenset({
    "bank", "selection", "pcr_values", "pcr_digest", "nonce",
    "clock", "reset_count", "restart_count", "ak", "signature",
})
_EVIDENCE_FIELDS = frozenset({"quote", "ima_log", "offset", "total_entries"})


def quote_from_dict(payload: dict[str, Any], strict: bool = False) -> Quote:
    """Decode a quote; raises :class:`IntegrityError` on malformed input."""
    try:
        if strict:
            _strict_fields(payload, "quote", _QUOTE_FIELDS)
        return Quote(
            bank_algorithm=payload["bank"],
            pcr_selection=tuple(int(index) for index in payload["selection"]),
            pcr_values={
                int(index): value for index, value in payload["pcr_values"].items()
            },
            pcr_digest=payload["pcr_digest"],
            nonce=payload["nonce"],
            clock=_checked_count(payload["clock"], "clock"),
            reset_count=_checked_count(payload["reset_count"], "reset_count"),
            restart_count=_checked_count(payload["restart_count"], "restart_count"),
            ak_fingerprint=payload["ak"],
            signature=bytes.fromhex(payload["signature"]),
        )
    except IntegrityError:
        raise
    except _DECODE_ERRORS as exc:
        raise IntegrityError(f"malformed quote payload: {exc}") from exc


@dataclass(frozen=True)
class Challenge:
    """One decoded challenge (the request side of an attestation round)."""

    nonce: str
    offset: int
    pcr_selection: tuple[int, ...] | None
    traceparent: str | None


def challenge_to_json(
    nonce: str,
    offset: int = 0,
    pcr_selection=None,
    traceparent: str | None = None,
) -> str:
    """Serialise one challenge (verifier -> agent)."""
    return json.dumps(
        {
            "nonce": nonce,
            "offset": offset,
            "pcr_selection": (
                list(pcr_selection) if pcr_selection is not None else None
            ),
            "traceparent": traceparent,
        },
        sort_keys=True,
    )


def challenge_from_json(blob: str | bytes) -> Challenge:
    """Deserialise one challenge; :class:`IntegrityError` on malformed input.

    Any truncation or corruption -- invalid JSON, invalid UTF-8 bytes,
    a missing or mistyped field, a numeric field driven to
    ``Infinity``, a negative offset -- raises :class:`IntegrityError`,
    never a bare decoding exception.  A malformed *traceparent* is the
    one exception: the field is observability metadata and its
    validation happens at span-creation time (an invalid value merely
    detaches the agent's trace).
    """
    try:
        payload = _loads(blob)
        selection = payload["pcr_selection"]
        traceparent = payload.get("traceparent")
        return Challenge(
            nonce=str(payload["nonce"]),
            offset=_checked_count(payload["offset"], "challenge offset"),
            pcr_selection=(
                tuple(int(index) for index in selection)
                if selection is not None
                else None
            ),
            traceparent=traceparent if isinstance(traceparent, str) else None,
        )
    except IntegrityError:
        raise
    except _DECODE_ERRORS as exc:
        raise IntegrityError(f"malformed challenge payload: {exc}") from exc


def _evidence_payload(evidence: AttestationEvidence) -> dict[str, Any]:
    """JSON-safe encoding of one attestation response."""
    return {
        "quote": quote_to_dict(evidence.quote),
        "ima_log": list(evidence.ima_log_lines),
        "offset": evidence.offset,
        "total_entries": evidence.total_entries,
    }


def evidence_to_json(evidence: AttestationEvidence) -> str:
    """Serialise one attestation response."""
    return json.dumps(_evidence_payload(evidence), sort_keys=True)


def _evidence_from_payload(
    payload: dict[str, Any], strict: bool = False
) -> AttestationEvidence:
    """Decode an evidence object already parsed from JSON."""
    if strict:
        _strict_fields(payload, "evidence", _EVIDENCE_FIELDS)
    lines = payload["ima_log"]
    if not isinstance(lines, list):
        raise IntegrityError("evidence ima_log is not a list")
    return AttestationEvidence(
        quote=quote_from_dict(payload["quote"], strict=strict),
        ima_log_lines=tuple(str(line) for line in lines),
        offset=_checked_count(payload["offset"], "evidence offset"),
        total_entries=_checked_count(
            payload["total_entries"], "evidence entry count"
        ),
    )


def evidence_from_json(blob: str | bytes) -> AttestationEvidence:
    """Deserialise one attestation response.

    Same contract as :func:`challenge_from_json`: every way a payload
    can be truncated or corrupted surfaces as :class:`IntegrityError`.
    The log lines are normalised to strings so a corrupted array of
    non-strings cannot smuggle arbitrary objects into the replay stage.
    """
    try:
        return _evidence_from_payload(_loads(blob))
    except IntegrityError:
        raise
    except _DECODE_ERRORS as exc:
        raise IntegrityError(f"malformed evidence payload: {exc}") from exc


# -- push-mode wire frames --------------------------------------------------
#
# The push exchange inverts the pull protocol: the *agent* initiates a
# three-step negotiate -> submit -> verdict conversation.  Every frame
# below is decoded strictly (unknown fields rejected, counts bounded),
# and every decoding failure is an IntegrityError -- same contract as
# the pull frames, tightened for the new surface.


@dataclass(frozen=True)
class NegotiationRequest:
    """Step 1 (agent -> verifier): capability announcement."""

    agent_id: str
    capabilities: PushCapabilities
    traceparent: str | None = None


_NEGOTIATION_FIELDS = frozenset({
    "agent_id", "hash_algorithms", "log_length", "boot_count",
})


def negotiation_to_json(
    agent_id: str,
    capabilities: PushCapabilities,
    traceparent: str | None = None,
) -> str:
    """Serialise a negotiation request (agent -> verifier)."""
    return json.dumps(
        {
            "agent_id": agent_id,
            "hash_algorithms": list(capabilities.hash_algorithms),
            "log_length": capabilities.log_length,
            "boot_count": capabilities.boot_count,
            "traceparent": traceparent,
        },
        sort_keys=True,
    )


def negotiation_from_json(blob: str | bytes) -> NegotiationRequest:
    """Deserialise a negotiation request; strict, IntegrityError on junk."""
    try:
        payload = _strict_fields(
            _loads(blob), "negotiation",
            _NEGOTIATION_FIELDS, frozenset({"traceparent"}),
        )
        algorithms = payload["hash_algorithms"]
        if not isinstance(algorithms, list) or not algorithms:
            raise IntegrityError("negotiation hash_algorithms is not a non-empty list")
        traceparent = payload.get("traceparent")
        return NegotiationRequest(
            agent_id=str(payload["agent_id"]),
            capabilities=PushCapabilities(
                hash_algorithms=tuple(str(a) for a in algorithms),
                log_length=_checked_count(payload["log_length"], "negotiation log length"),
                boot_count=_checked_count(payload["boot_count"], "negotiation boot count"),
            ),
            traceparent=traceparent if isinstance(traceparent, str) else None,
        )
    except IntegrityError:
        raise
    except _DECODE_ERRORS as exc:
        raise IntegrityError(f"malformed negotiation payload: {exc}") from exc


@dataclass(frozen=True)
class NegotiationReply:
    """Step 1 response (verifier -> agent): the session parameters."""

    session_id: str
    nonce: str
    offset: int
    pcr_selection: tuple[int, ...]
    algorithm: str
    expires_at: float


_NEGOTIATION_REPLY_FIELDS = frozenset({
    "session_id", "nonce", "offset", "pcr_selection", "algorithm", "expires_at",
})


def negotiation_reply_to_json(reply: NegotiationReply) -> str:
    """Serialise a negotiation reply (verifier -> agent)."""
    return json.dumps(
        {
            "session_id": reply.session_id,
            "nonce": reply.nonce,
            "offset": reply.offset,
            "pcr_selection": list(reply.pcr_selection),
            "algorithm": reply.algorithm,
            "expires_at": reply.expires_at,
        },
        sort_keys=True,
    )


def negotiation_reply_from_json(blob: str | bytes) -> NegotiationReply:
    """Deserialise a negotiation reply; strict decode."""
    try:
        payload = _strict_fields(
            _loads(blob), "negotiation reply", _NEGOTIATION_REPLY_FIELDS
        )
        expires_at = float(payload["expires_at"])
        if expires_at != expires_at or expires_at in (float("inf"), float("-inf")):
            raise IntegrityError("negotiation reply expiry is not finite")
        return NegotiationReply(
            session_id=str(payload["session_id"]),
            nonce=str(payload["nonce"]),
            offset=_checked_count(payload["offset"], "negotiated offset"),
            pcr_selection=tuple(int(index) for index in payload["pcr_selection"]),
            algorithm=str(payload["algorithm"]),
            expires_at=expires_at,
        )
    except IntegrityError:
        raise
    except _DECODE_ERRORS as exc:
        raise IntegrityError(f"malformed negotiation reply: {exc}") from exc


@dataclass(frozen=True)
class EvidenceSubmission:
    """Step 2 (agent -> verifier): the nonce-bound evidence bundle."""

    session_id: str
    agent_id: str
    evidence: AttestationEvidence


_SUBMISSION_FIELDS = frozenset({"session_id", "agent_id", "evidence"})


def submission_to_json(
    session_id: str, agent_id: str, evidence: AttestationEvidence
) -> str:
    """Serialise an evidence submission (agent -> verifier)."""
    return json.dumps(
        {
            "session_id": session_id,
            "agent_id": agent_id,
            "evidence": _evidence_payload(evidence),
        },
        sort_keys=True,
    )


def submission_from_json(blob: str | bytes) -> EvidenceSubmission:
    """Deserialise an evidence submission; strict at every level."""
    try:
        payload = _strict_fields(_loads(blob), "submission", _SUBMISSION_FIELDS)
        return EvidenceSubmission(
            session_id=str(payload["session_id"]),
            agent_id=str(payload["agent_id"]),
            evidence=_evidence_from_payload(payload["evidence"], strict=True),
        )
    except IntegrityError:
        raise
    except _DECODE_ERRORS as exc:
        raise IntegrityError(f"malformed submission payload: {exc}") from exc


@dataclass(frozen=True)
class PushVerdict:
    """Step 3 (verifier -> agent): the round's conclusion."""

    session_id: str
    ok: bool
    state: str
    entries_processed: int
    next_offset: int
    failures: tuple[str, ...] = ()


_VERDICT_FIELDS = frozenset({
    "session_id", "ok", "state", "entries_processed", "next_offset", "failures",
})


def verdict_to_json(verdict: PushVerdict) -> str:
    """Serialise a push verdict (verifier -> agent)."""
    return json.dumps(
        {
            "session_id": verdict.session_id,
            "ok": verdict.ok,
            "state": verdict.state,
            "entries_processed": verdict.entries_processed,
            "next_offset": verdict.next_offset,
            "failures": list(verdict.failures),
        },
        sort_keys=True,
    )


def verdict_from_json(blob: str | bytes) -> PushVerdict:
    """Deserialise a push verdict; strict decode."""
    try:
        payload = _strict_fields(_loads(blob), "verdict", _VERDICT_FIELDS)
        if not isinstance(payload["ok"], bool):
            raise IntegrityError("verdict ok flag is not a boolean")
        failures = payload["failures"]
        if not isinstance(failures, list):
            raise IntegrityError("verdict failures is not a list")
        return PushVerdict(
            session_id=str(payload["session_id"]),
            ok=payload["ok"],
            state=str(payload["state"]),
            entries_processed=_checked_count(
                payload["entries_processed"], "verdict entry count"
            ),
            next_offset=_checked_count(payload["next_offset"], "verdict offset"),
            failures=tuple(str(kind) for kind in failures),
        )
    except IntegrityError:
        raise
    except _DECODE_ERRORS as exc:
        raise IntegrityError(f"malformed verdict payload: {exc}") from exc


# -- the push session ------------------------------------------------------


@dataclass
class PushSession:
    """Verifier-side state of one open push exchange.

    A session lives on its agent's slot from negotiation until a
    submission consumes it or the verifier closes it unanswered
    (expired, superseded, discarded); only open sessions exist.  It
    carries the two freshness properties of the protocol:

    * **nonce freshness** -- the nonce is minted at negotiation and
      never reused; the submitted quote must bind it;
    * **session expiry** -- a submission after ``expires_at`` is
      rejected (an attacker cannot bank a nonce and answer it later).

    Replay rejection needs no record of its own: a submission is
    accepted only when it names its agent's open session, and a
    consumed or closed session is no longer anyone's open session.
    """

    session_id: str
    nonce: str
    offset: int
    pcr_selection: tuple[int, ...]
    algorithm: str
    created_at: float
    expires_at: float
    boot_count: int

    def reply(self) -> NegotiationReply:
        """The negotiation reply this session was created with."""
        return NegotiationReply(
            session_id=self.session_id,
            nonce=self.nonce,
            offset=self.offset,
            pcr_selection=self.pcr_selection,
            algorithm=self.algorithm,
            expires_at=self.expires_at,
        )

    def to_record(self) -> dict[str, Any]:
        """JSON-safe encoding for the durable state store."""
        return {
            "session_id": self.session_id,
            "nonce": self.nonce,
            "offset": self.offset,
            "pcr_selection": list(self.pcr_selection),
            "algorithm": self.algorithm,
            "created_at": self.created_at,
            "expires_at": self.expires_at,
            "boot_count": self.boot_count,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "PushSession":
        """Rebuild a session from its snapshot record."""
        try:
            return cls(
                session_id=str(record["session_id"]),
                nonce=str(record["nonce"]),
                offset=_checked_count(record["offset"], "session offset"),
                pcr_selection=tuple(int(i) for i in record["pcr_selection"]),
                algorithm=str(record["algorithm"]),
                created_at=float(record["created_at"]),
                expires_at=float(record["expires_at"]),
                boot_count=_checked_count(record["boot_count"], "session boot count"),
            )
        except IntegrityError:
            raise
        except _DECODE_ERRORS as exc:
            raise IntegrityError(f"malformed push session record: {exc}") from exc


class PushAgentClient:
    """Drives the agent's side of the push exchange.

    The client owns the agent's cadence in push mode: each
    :meth:`run_round` performs the full negotiate -> attest -> submit
    conversation against the verifier's two endpoints (passed in as
    callables so the client works across any transport).

    A *retry_policy* retries every transiently failed leg (negotiate,
    attest, submit) with backoff; an exhausted budget abandons the
    round and returns ``None``.  Its session stays open until the
    agent's next negotiation supersedes it or the verifier's reaper
    expires it; either way the verifier records a *degraded* round,
    which feeds the pull path's SUSPECT machinery.
    """

    def __init__(
        self,
        agent,
        negotiate: Callable[[str], str],
        submit: Callable[[str], str],
        retry_policy=None,
        retry_rng=None,
    ) -> None:
        self._agent = agent
        self._negotiate = negotiate
        self._submit = submit
        self.retry_policy = retry_policy
        self._retry_rng = retry_rng
        self.bytes_transferred = 0
        self.rounds_completed = 0
        self.rounds_abandoned = 0

    @property
    def agent_id(self) -> str:
        """The driven agent's identity."""
        return self._agent.agent_id

    def _retrying(self, attempt: Callable[[], T]) -> T:
        """Run one leg under the client's retry policy (if any)."""
        if self.retry_policy is None:
            return attempt()
        telemetry = obs.get()
        return self.retry_policy.run(
            attempt,
            rng=self._retry_rng,
            tracer=telemetry.tracer,
            registry=telemetry.registry,
        )

    def _deliver(self, endpoint, blob: str) -> str:
        """One leg to the verifier, retried under the client's policy."""
        def attempt() -> str:
            reply = endpoint(blob)
            self.bytes_transferred += len(blob) + len(reply)
            return reply

        return self._retrying(attempt)

    def run_round(self) -> PushVerdict | None:
        """One full push exchange; ``None`` when delivery failed.

        Telemetry: the round runs under an ``agent.push_round`` span
        whose traceparent rides the negotiation frame, so the
        verifier's ingestion spans join the agent-initiated trace --
        the mirror image of pull mode's challenge propagation.
        """
        telemetry = obs.get()
        bytes_before = self.bytes_transferred
        with telemetry.tracer.span(
            "agent.push_round", agent=self.agent_id
        ) as span:
            request = negotiation_to_json(
                self.agent_id,
                self._agent.capabilities(),
                traceparent=format_traceparent(telemetry.tracer.current),
            )
            try:
                reply = negotiation_reply_from_json(
                    self._deliver(self._negotiate, request)
                )
                evidence = self._retrying(lambda: self._agent.attest(
                    reply.nonce,
                    offset=reply.offset,
                    pcr_selection=list(reply.pcr_selection),
                ))
                verdict = verdict_from_json(
                    self._deliver(
                        self._submit,
                        submission_to_json(reply.session_id, self.agent_id, evidence),
                    )
                )
            except RetryBudgetExceeded:
                # The wire never delivered: no submission, no verdict.
                # The session is left open; the next negotiation or the
                # verifier's reaper turns it into a degraded round.
                self.rounds_abandoned += 1
                span.set_attribute("abandoned", True)
                telemetry.registry.counter(
                    "push_client_rounds_abandoned_total",
                    "Push rounds abandoned after exhausting delivery retries",
                ).inc()
                return None
            except (IntegrityError, StateError) as exc:
                # The verifier rejected the exchange at the protocol
                # layer (corrupt frame, replayed/expired session, ...)
                # or refused to negotiate (superseding this agent's
                # unanswered session quarantined it).  The agent cannot
                # conclude anything -- it records the rejection and
                # negotiates fresh next round; any session left open is
                # accounted for as a degraded round.
                self.rounds_abandoned += 1
                span.set_attribute("rejected", str(exc))
                telemetry.registry.counter(
                    "push_client_rounds_rejected_total",
                    "Push rounds rejected by the verifier's protocol layer",
                ).inc()
                return None
            span.set_attribute("ok", verdict.ok)
            span.set_attribute("entries", verdict.entries_processed)
        self.rounds_completed += 1
        telemetry.registry.counter(
            "push_client_rounds_total", "Push exchanges completed", ("result",),
        ).labels(result="ok" if verdict.ok else "failed").inc()
        bytes_total = telemetry.registry.counter(
            "transport_bytes_total",
            "Bytes crossing the serialised agent/verifier channel",
            labelnames=("direction",),
        )
        bytes_total.labels(direction="push").inc(
            self.bytes_transferred - bytes_before
        )
        return verdict


class JsonTransportAgent:
    """An agent proxy that routes every round through the wire formats.

    Drop-in for :class:`KeylimeAgent` on the verifier side.  Both
    directions are serialised: the challenge (nonce, offset, PCR
    selection, traceparent) crosses as JSON before the agent sees it,
    and the evidence crosses as JSON on the way back.  The optional
    ``channel`` hook sees (and may tamper with) the raw response JSON,
    ``request_channel`` the raw challenge JSON -- which is how the
    adversarial tests model a man-in-the-middle on either leg.  A
    channel may also *refuse delivery* by raising
    :class:`repro.common.errors.TransientTransportError` (how the fault
    layer in :mod:`repro.keylime.faults` models drops, partitions and
    timed-out delays); that propagates to the caller unchanged so the
    retry layer can classify it.

    ``bytes_transferred`` counts both legs; the active telemetry (if
    any) additionally gets ``transport_bytes_total{direction}`` and
    ``transport_roundtrips_total`` counters.
    """

    def __init__(self, agent: KeylimeAgent, channel=None, request_channel=None) -> None:
        self._agent = agent
        self._channel = channel
        self._request_channel = request_channel
        self.bytes_transferred = 0

    @property
    def agent_id(self) -> str:
        """The wrapped agent's identity."""
        return self._agent.agent_id

    @property
    def machine(self):
        """The wrapped agent's machine (testbed plumbing)."""
        return self._agent.machine

    def provision_ak(self):
        """Delegates key provisioning (registration path)."""
        return self._agent.provision_ak()

    @property
    def attestation_key(self):
        """The wrapped agent's AK."""
        return self._agent.attestation_key

    def capabilities(self) -> PushCapabilities:
        """Delegates the push-negotiation announcement (push mode)."""
        return self._agent.capabilities()

    def attest(self, nonce: str, offset: int = 0, pcr_selection=None) -> AttestationEvidence:
        """One challenge/response round across the serialised channel."""
        telemetry = obs.get()
        tracer = telemetry.tracer
        request = challenge_to_json(
            nonce,
            offset,
            pcr_selection=pcr_selection,
            traceparent=format_traceparent(tracer.current),
        )
        if self._request_channel is not None:
            request = self._request_channel(request)
        challenge = challenge_from_json(request)
        # The agent runs on the far side of the wire: its spans take
        # their parentage from the propagated traceparent alone.
        with tracer.remote_context(challenge.traceparent):
            evidence = self._agent.attest(
                challenge.nonce,
                challenge.offset,
                pcr_selection=challenge.pcr_selection,
            )
        blob = evidence_to_json(evidence)
        if self._channel is not None:
            blob = self._channel(blob)
        self.bytes_transferred += len(request) + len(blob)
        bytes_total = telemetry.registry.counter(
            "transport_bytes_total",
            "Bytes crossing the serialised agent/verifier channel",
            labelnames=("direction",),
        )
        bytes_total.labels(direction="request").inc(len(request))
        bytes_total.labels(direction="response").inc(len(blob))
        telemetry.registry.counter(
            "transport_roundtrips_total",
            "Challenge/response rounds completed across the wire",
        ).inc()
        return evidence_from_json(blob)
