"""Tests for the serialised agent<->verifier channel."""

import json

import pytest

from repro.common.errors import IntegrityError
from repro.keylime.transport import (
    JsonTransportAgent,
    NegotiationReply,
    PushVerdict,
    challenge_from_json,
    challenge_to_json,
    evidence_from_json,
    evidence_to_json,
    negotiation_from_json,
    negotiation_reply_from_json,
    negotiation_reply_to_json,
    negotiation_to_json,
    quote_from_dict,
    quote_to_dict,
    submission_from_json,
    submission_to_json,
    verdict_from_json,
    verdict_to_json,
)
from repro.keylime.verifier import FailureKind
from repro.obs import runtime as obs_runtime

from tests.conftest import small_config
from repro.experiments.testbed import build_testbed


@pytest.fixture()
def testbed():
    return build_testbed(small_config("transport"))


class TestSerialisation:
    def test_quote_roundtrip(self, testbed):
        quote = testbed.agent.attest("nonce").quote
        restored = quote_from_dict(quote_to_dict(quote))
        assert restored == quote

    def test_evidence_roundtrip(self, testbed):
        testbed.machine.exec_file("/usr/bin/ls")
        evidence = testbed.agent.attest("nonce")
        restored = evidence_from_json(evidence_to_json(evidence))
        assert restored == evidence

    def test_malformed_json_rejected(self):
        with pytest.raises(IntegrityError):
            evidence_from_json("{not json")

    def test_missing_field_rejected(self, testbed):
        evidence = testbed.agent.attest("nonce")
        payload = json.loads(evidence_to_json(evidence))
        del payload["quote"]["signature"]
        with pytest.raises(IntegrityError):
            evidence_from_json(json.dumps(payload))

    def test_non_hex_signature_rejected(self, testbed):
        evidence = testbed.agent.attest("nonce")
        payload = json.loads(evidence_to_json(evidence))
        payload["quote"]["signature"] = "zz-not-hex"
        with pytest.raises(IntegrityError):
            evidence_from_json(json.dumps(payload))


class TestChallengeSerialisation:
    def test_roundtrip(self):
        blob = challenge_to_json(
            "abc123", offset=7, pcr_selection=(10,),
            traceparent="00-" + "1" * 32 + "-" + "2" * 16 + "-01",
        )
        challenge = challenge_from_json(blob)
        assert challenge.nonce == "abc123"
        assert challenge.offset == 7
        assert challenge.pcr_selection == (10,)
        assert challenge.traceparent == (
            "00-" + "1" * 32 + "-" + "2" * 16 + "-01"
        )

    def test_defaults_roundtrip(self):
        challenge = challenge_from_json(challenge_to_json("n"))
        assert challenge.offset == 0
        assert challenge.pcr_selection is None
        assert challenge.traceparent is None

    @pytest.mark.parametrize("blob", [
        "{not json",
        json.dumps([1, 2]),
        json.dumps({"offset": 0}),          # missing nonce
        json.dumps({"nonce": 5}),           # nonce not a string
        json.dumps({"nonce": "n", "offset": "x"}),
    ])
    def test_malformed_challenge_rejected(self, blob):
        with pytest.raises(IntegrityError):
            challenge_from_json(blob)

    def test_malformed_traceparent_is_not_an_integrity_failure(self):
        """The traceparent is observability metadata, never a gate."""
        payload = json.loads(challenge_to_json("n"))
        payload["traceparent"] = 12345  # wrong type, still decodes
        challenge = challenge_from_json(json.dumps(payload))
        assert challenge.nonce == "n"
        assert challenge.traceparent is None


class TestTransportAgent:
    def test_attestation_works_across_the_wire(self, testbed):
        proxy = JsonTransportAgent(testbed.agent)
        slot = testbed.verifier._slot(testbed.agent_id)
        slot.agent = proxy
        assert testbed.poll().ok
        assert proxy.bytes_transferred > 0

    def test_detection_works_across_the_wire(self, testbed):
        proxy = JsonTransportAgent(testbed.agent)
        testbed.verifier._slot(testbed.agent_id).agent = proxy
        assert testbed.poll().ok
        testbed.machine.install_file("/usr/bin/evil", b"x", executable=True)
        testbed.machine.exec_file("/usr/bin/evil")
        result = testbed.poll()
        assert not result.ok
        assert result.failures[0].policy_failure.path == "/usr/bin/evil"

    def test_mitm_nonce_swap_detected(self, testbed):
        """A man-in-the-middle rewriting the nonce field is caught."""

        def mitm(blob: str) -> str:
            payload = json.loads(blob)
            payload["quote"]["nonce"] = "0" * 40
            return json.dumps(payload)

        proxy = JsonTransportAgent(testbed.agent, channel=mitm)
        testbed.verifier._slot(testbed.agent_id).agent = proxy
        result = testbed.poll()
        assert not result.ok
        assert result.failures[0].kind is FailureKind.INVALID_QUOTE

    def test_mitm_log_edit_detected(self, testbed):
        """Rewriting a log line in transit breaks the replay."""
        testbed.machine.exec_file("/usr/bin/ls")

        def mitm(blob: str) -> str:
            payload = json.loads(blob)
            payload["ima_log"] = [
                line.replace("/usr/bin/ls", "/usr/bin/cp")
                for line in payload["ima_log"]
            ]
            return json.dumps(payload)

        proxy = JsonTransportAgent(testbed.agent, channel=mitm)
        testbed.verifier._slot(testbed.agent_id).agent = proxy
        result = testbed.poll()
        assert not result.ok
        assert result.failures[0].kind in (
            FailureKind.LOG_TAMPERED, FailureKind.PCR_MISMATCH,
        )

    def test_mitm_signature_corruption_detected(self, testbed):
        def mitm(blob: str) -> str:
            payload = json.loads(blob)
            signature = payload["quote"]["signature"]
            payload["quote"]["signature"] = ("00" if signature[:2] != "00" else "11") + signature[2:]
            return json.dumps(payload)

        proxy = JsonTransportAgent(testbed.agent, channel=mitm)
        testbed.verifier._slot(testbed.agent_id).agent = proxy
        result = testbed.poll()
        assert not result.ok
        assert result.failures[0].kind is FailureKind.INVALID_QUOTE

    def test_honest_channel_is_transparent(self, testbed):
        """With no tampering, wire and direct attestation agree."""
        direct = testbed.agent.attest("same-nonce")
        proxy = JsonTransportAgent(testbed.agent)
        # Same nonce and offset: identical evidence either way (the
        # TPM clock tick is monotonic with machine time, unchanged here).
        via_wire = proxy.attest("same-nonce")
        assert via_wire.ima_log_lines == direct.ima_log_lines
        assert via_wire.quote.pcr_values == direct.quote.pcr_values

    def test_request_channel_nonce_tamper_detected(self, testbed):
        """Tampering the challenge leg makes the agent quote the wrong
        nonce, which the verifier's freshness check catches."""

        def mitm(blob: str) -> str:
            payload = json.loads(blob)
            payload["nonce"] = "f" * 40
            return json.dumps(payload)

        proxy = JsonTransportAgent(testbed.agent, request_channel=mitm)
        testbed.verifier._slot(testbed.agent_id).agent = proxy
        result = testbed.poll()
        assert not result.ok
        assert result.failures[0].kind is FailureKind.INVALID_QUOTE

    def test_bytes_counted_on_both_legs(self, testbed):
        proxy = JsonTransportAgent(testbed.agent)
        testbed.verifier._slot(testbed.agent_id).agent = proxy
        with obs_runtime.session() as telemetry:
            assert testbed.poll().ok
            response_bytes = telemetry.registry.get(
                "transport_bytes_total"
            ).labels(direction="response").value
            request_bytes = telemetry.registry.get(
                "transport_bytes_total"
            ).labels(direction="request").value
            rounds = telemetry.registry.get(
                "transport_roundtrips_total"
            ).value
        assert request_bytes > 0 and response_bytes > 0
        assert rounds == 1
        # bytes_transferred is the wire total: both legs, not just the
        # evidence response.
        assert proxy.bytes_transferred == request_bytes + response_bytes
        assert proxy.bytes_transferred > response_bytes

    def test_push_bytes_counted_once_per_round(self, testbed):
        """Each push round adds only its own bytes, so after N rounds the
        ``push`` counter equals the client's running total."""
        with obs_runtime.session() as telemetry:
            for _ in range(3):
                testbed.scheduler.clock.advance_by(60.0)
                assert testbed.verifier.push_round(testbed.agent_id).ok
            pushed = telemetry.registry.get(
                "transport_bytes_total"
            ).labels(direction="push").value
        client = testbed.verifier.push_client(testbed.agent_id)
        assert client.rounds_completed == 3
        assert pushed == client.bytes_transferred > 0


class TestDecodeRobustnessSweep:
    """Exhaustive corruption sweep over the wire decoders.

    The regression net for the latent decode bugs: for *every* byte
    offset of a valid blob -- substitution, truncation, or raw byte
    garbage -- the decoder must either still decode (the corruption hit
    an ignorable field, e.g. the traceparent) or raise
    :class:`IntegrityError`.  It must never leak a bare ``KeyError`` /
    ``TypeError`` / ``UnicodeDecodeError`` / ``OverflowError`` for some
    offsets and an ``IntegrityError`` for others: the chaos layer's
    classifier treats anything else as an infrastructure crash.
    """

    #: Substitution characters chosen to break JSON structure, string
    #: delimiters, hex fields, and numeric fields respectively.
    _MUTATIONS = ('}', '"', 'z', '9')

    @staticmethod
    def _decodes_or_integrity_error(decode, blob, context):
        try:
            decode(blob)
        except IntegrityError:
            pass
        except Exception as exc:  # pragma: no cover - the failure net
            raise AssertionError(
                f"{context}: decoder leaked {type(exc).__name__}: {exc}"
            ) from exc

    def _sweep(self, decode, blob: str):
        for offset in range(len(blob)):
            for char in self._MUTATIONS:
                if blob[offset] == char:
                    continue
                mutated = blob[:offset] + char + blob[offset + 1:]
                self._decodes_or_integrity_error(
                    decode, mutated, f"substitute {char!r} at byte {offset}"
                )
            self._decodes_or_integrity_error(
                decode, blob[:offset], f"truncate at byte {offset}"
            )

    def test_challenge_corrupt_at_every_byte_offset(self):
        blob = challenge_to_json(
            "abc123", offset=7, pcr_selection=(0, 10),
            traceparent="00-" + "1" * 32 + "-" + "2" * 16 + "-01",
        )
        self._sweep(challenge_from_json, blob)

    def test_evidence_corrupt_at_every_byte_offset(self, testbed):
        testbed.machine.exec_file("/usr/bin/ls")
        blob = evidence_to_json(testbed.agent.attest("nonce"))
        self._sweep(evidence_from_json, blob)

    @pytest.mark.parametrize("payload", [
        b"\xff\xfe not utf-8 \x80\x81",
        b"\x00" * 16,
        bytes(range(256)),
    ])
    def test_raw_byte_garbage_is_an_integrity_error(self, payload):
        """A real channel hands the receiver bytes; invalid UTF-8 must
        surface as a payload integrity failure, not UnicodeDecodeError."""
        with pytest.raises(IntegrityError):
            evidence_from_json(payload)
        with pytest.raises(IntegrityError):
            challenge_from_json(payload)

    @pytest.mark.parametrize("offset", ["Infinity", "-Infinity", "NaN", -1, 1e400])
    def test_hostile_challenge_offsets_rejected(self, offset):
        """json accepts Infinity/NaN; int() of those raises Overflow /
        ValueError, and negatives would index backwards into the log --
        all must decode-fail as IntegrityError."""
        payload = json.loads(challenge_to_json("n"))
        payload["offset"] = offset
        with pytest.raises(IntegrityError):
            challenge_from_json(json.dumps(payload))

    @pytest.mark.parametrize("field,value", [
        ("clock", "Infinity"),
        ("reset_count", "NaN"),
        ("reset_count", -3),
        ("restart_count", "-Infinity"),
        ("signature", "abc"),       # odd-length hex
        ("selection", [1, "x"]),
        ("pcr_values", [1, 2, 3]),  # list where dict expected
    ])
    def test_hostile_quote_fields_rejected(self, testbed, field, value):
        evidence = testbed.agent.attest("nonce")
        payload = json.loads(evidence_to_json(evidence))
        payload["quote"][field] = value
        with pytest.raises(IntegrityError):
            evidence_from_json(json.dumps(payload))

    def test_hostile_ima_log_shapes_rejected(self, testbed):
        evidence = testbed.agent.attest("nonce")
        for bad_log in ({"a": 1}, "one big string", 42):
            payload = json.loads(evidence_to_json(evidence))
            payload["ima_log"] = bad_log
            with pytest.raises(IntegrityError):
                evidence_from_json(json.dumps(payload))


class TestPushFrameSerialisation:
    """The push exchange's four frames: strict decode, loud rejection."""

    def _negotiation_blob(self, testbed):
        return negotiation_to_json(
            testbed.agent_id, testbed.agent.capabilities(),
            traceparent="00-" + "1" * 32 + "-" + "2" * 16 + "-01",
        )

    def _reply_blob(self, testbed=None):
        return negotiation_reply_to_json(NegotiationReply(
            session_id="ps-abc", nonce="f" * 40, offset=7,
            pcr_selection=(0, 10), algorithm="sha256", expires_at=90.0,
        ))

    def _submission_blob(self, testbed):
        return submission_to_json(
            "ps-abc", testbed.agent_id, testbed.agent.attest("n" * 40)
        )

    def _verdict_blob(self, testbed=None):
        return verdict_to_json(PushVerdict(
            session_id="ps-abc", ok=False, state="failed",
            entries_processed=3, next_offset=12,
            failures=("not_in_policy",),
        ))

    def test_negotiation_roundtrip(self, testbed):
        request = negotiation_from_json(self._negotiation_blob(testbed))
        assert request.agent_id == testbed.agent_id
        assert request.capabilities == testbed.agent.capabilities()
        assert request.traceparent is not None

    def test_reply_roundtrip(self):
        reply = negotiation_reply_from_json(self._reply_blob())
        assert reply.session_id == "ps-abc"
        assert reply.pcr_selection == (0, 10)
        assert reply.expires_at == 90.0

    def test_submission_roundtrip(self, testbed):
        evidence = testbed.agent.attest("n" * 40)
        submission = submission_from_json(
            submission_to_json("ps-abc", testbed.agent_id, evidence)
        )
        assert submission.session_id == "ps-abc"
        assert submission.evidence == evidence

    def test_verdict_roundtrip(self):
        verdict = verdict_from_json(self._verdict_blob())
        assert verdict.ok is False
        assert verdict.failures == ("not_in_policy",)

    @pytest.mark.parametrize("codec,maker", [
        (negotiation_from_json, "_negotiation_blob"),
        (negotiation_reply_from_json, "_reply_blob"),
        (submission_from_json, "_submission_blob"),
        (verdict_from_json, "_verdict_blob"),
    ])
    def test_unknown_fields_rejected(self, testbed, codec, maker):
        """A frame carrying fields the receiver never asked for is
        hostile, not extensible: reject, don't silently drop."""
        payload = json.loads(getattr(self, maker)(testbed))
        payload["smuggled"] = True
        with pytest.raises(IntegrityError, match="unknown field"):
            codec(json.dumps(payload))

    @pytest.mark.parametrize("codec_name,field,value", [
        ("reply", "offset", -1),
        ("reply", "offset", 1 << 41),
        ("reply", "offset", "Infinity"),
        ("reply", "expires_at", "NaN"),
        ("verdict", "next_offset", -5),
        ("verdict", "next_offset", 1e400),
        ("verdict", "entries_processed", "-Infinity"),
        ("negotiation", "log_length", -1),
        ("negotiation", "boot_count", 1 << 41),
    ])
    def test_hostile_numeric_fields_rejected(
        self, testbed, codec_name, field, value
    ):
        codecs = {
            "reply": (negotiation_reply_from_json, self._reply_blob()),
            "verdict": (verdict_from_json, self._verdict_blob()),
            "negotiation": (
                negotiation_from_json, self._negotiation_blob(testbed)
            ),
        }
        codec, blob = codecs[codec_name]
        payload = json.loads(blob)
        payload[field] = value
        with pytest.raises(IntegrityError):
            codec(json.dumps(payload))

    @pytest.mark.parametrize("algorithms", [[], "sha256", 42, None])
    def test_hostile_algorithm_lists_rejected(self, testbed, algorithms):
        payload = json.loads(self._negotiation_blob(testbed))
        payload["hash_algorithms"] = algorithms
        with pytest.raises(IntegrityError):
            negotiation_from_json(json.dumps(payload))

    @pytest.mark.parametrize("ok", ["true", 1, None])
    def test_non_boolean_verdict_ok_rejected(self, ok):
        payload = json.loads(self._verdict_blob())
        payload["ok"] = ok
        with pytest.raises(IntegrityError):
            verdict_from_json(json.dumps(payload))

    def test_submission_evidence_is_strict(self, testbed):
        """Strictness recurses: junk inside the nested evidence bundle
        is caught even though the outer frame is intact."""
        payload = json.loads(self._submission_blob(testbed))
        payload["evidence"]["quote"]["reset_count"] = "NaN"
        with pytest.raises(IntegrityError):
            submission_from_json(json.dumps(payload))
        payload = json.loads(self._submission_blob(testbed))
        payload["evidence"]["extra"] = 1
        with pytest.raises(IntegrityError):
            submission_from_json(json.dumps(payload))

    @pytest.mark.parametrize("payload", [
        b"\xff\xfe not utf-8 \x80\x81",
        b"\x00" * 16,
        bytes(range(256)),
    ])
    def test_raw_byte_garbage_is_an_integrity_error(self, payload):
        for codec in (
            negotiation_from_json, negotiation_reply_from_json,
            submission_from_json, verdict_from_json,
        ):
            with pytest.raises(IntegrityError):
                codec(payload)


class TestPushFrameCorruptionSweep:
    """The every-byte-offset sweep, extended to the push frames.

    Reuses the sweep machinery without inheriting (subclassing would
    collect the pull-frame sweeps a second time).
    """

    _MUTATIONS = TestDecodeRobustnessSweep._MUTATIONS
    _decodes_or_integrity_error = staticmethod(
        TestDecodeRobustnessSweep._decodes_or_integrity_error
    )
    _sweep = TestDecodeRobustnessSweep._sweep

    def test_negotiation_corrupt_at_every_byte_offset(self, testbed):
        blob = negotiation_to_json(
            testbed.agent_id, testbed.agent.capabilities(),
            traceparent="00-" + "1" * 32 + "-" + "2" * 16 + "-01",
        )
        self._sweep(negotiation_from_json, blob)

    def test_negotiation_reply_corrupt_at_every_byte_offset(self):
        blob = negotiation_reply_to_json(NegotiationReply(
            session_id="ps-abc", nonce="f" * 40, offset=7,
            pcr_selection=(0, 10), algorithm="sha256", expires_at=90.0,
        ))
        self._sweep(negotiation_reply_from_json, blob)

    def test_submission_corrupt_at_every_byte_offset(self, testbed):
        testbed.machine.exec_file("/usr/bin/ls")
        blob = submission_to_json(
            "ps-abc", testbed.agent_id, testbed.agent.attest("n" * 40)
        )
        self._sweep(submission_from_json, blob)

    def test_verdict_corrupt_at_every_byte_offset(self):
        blob = verdict_to_json(PushVerdict(
            session_id="ps-abc", ok=True, state="attesting",
            entries_processed=3, next_offset=12,
        ))
        self._sweep(verdict_from_json, blob)


class TestWireTracePropagation:
    """The traceparent field joins agent spans across the wire."""

    def _wire_poll(self, testbed, request_channel=None):
        proxy = JsonTransportAgent(
            testbed.agent, request_channel=request_channel
        )
        testbed.verifier._slot(testbed.agent_id).agent = proxy
        return testbed.poll()

    def test_agent_spans_join_the_poll_trace(self, testbed):
        with obs_runtime.session() as telemetry:
            assert self._wire_poll(testbed).ok
            root = telemetry.tracer.last_trace()
        assert root.name == "verifier.poll"
        attest = root.find("agent.attest")
        assert attest is not None
        challenge = root.find("verifier.challenge")
        assert attest.parent_id == challenge.span_id
        assert attest.trace_id == root.trace_id
        assert "traceparent.resolved" not in attest.attributes

    def test_tampered_traceparent_detaches_but_does_not_fail(self, testbed):
        """A rewritten traceparent corrupts observability, not
        verification: the poll still passes, the agent spans become
        detached roots flagged as unresolved."""

        def mitm(blob: str) -> str:
            payload = json.loads(blob)
            payload["traceparent"] = "00-" + "d" * 32 + "-" + "d" * 16 + "-01"
            return json.dumps(payload)

        with obs_runtime.session() as telemetry:
            assert self._wire_poll(testbed, request_channel=mitm).ok
            roots = list(telemetry.tracer.roots)
        poll = next(r for r in roots if r.name == "verifier.poll")
        assert poll.find("agent.attest") is None
        detached = next(r for r in roots if r.name == "agent.attest")
        assert detached.attributes["traceparent.resolved"] is False
        assert detached.trace_id != poll.trace_id

    def test_stripped_traceparent_detaches(self, testbed):
        def strip(blob: str) -> str:
            payload = json.loads(blob)
            payload.pop("traceparent", None)
            return json.dumps(payload)

        with obs_runtime.session() as telemetry:
            assert self._wire_poll(testbed, request_channel=strip).ok
            roots = list(telemetry.tracer.roots)
        detached = next(r for r in roots if r.name == "agent.attest")
        assert detached.attributes["traceparent.resolved"] is False

    def test_unobserved_wire_sends_no_traceparent(self, testbed):
        """With telemetry off, the challenge omits the header entirely."""
        seen = []

        def record(blob: str) -> str:
            seen.append(json.loads(blob))
            return blob

        assert self._wire_poll(testbed, request_channel=record).ok
        assert seen and seen[0]["traceparent"] is None
