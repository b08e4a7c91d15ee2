"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: it times calls into each layer's
public functions and methods by swapping them for thin wrappers while a
traced tick runs.  Every wrapper records one span -- name, start, end,
parent span and the enclosing verifier round -- in memory; the spans
are written as JSONL when the run ends.  A layer's *self time* is its
spans' durations minus the time their child spans cover, so self times
partition the covered wall time and the uncovered rest is the residual.

Names bound with ``from ... import`` are patched in the namespace of the
module that calls them (``verify_quote`` in the pipeline, the statestore
functions in the fleet module, ...): patching the defining module would
record nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

#: The span that delimits one attestation round; nested spans carry its id.
ROUND_SPAN = "verifier.round"

#: ``(module, attribute, span name)``.  ``Class.method`` patches the
#: class; a bare name patches the module global that callers look up.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("repro.crypto.rsa", "RsaKeyPair.sign", "crypto.sign"),
    ("repro.crypto.rsa", "RsaPublicKey.verify", "crypto.verify"),
    ("repro.tpm.device", "generate_keypair", "crypto.keygen"),
    ("repro.crypto.certs", "generate_keypair", "crypto.keygen"),
    ("repro.distro.release_signing", "generate_keypair", "crypto.keygen"),
    ("repro.dynpolicy.signedhashes", "generate_keypair", "crypto.keygen"),
    ("repro.tpm.device", "Tpm.quote", "tpm.quote"),
    ("repro.keylime.pipeline", "verify_quote", "tpm.verify_quote"),
    ("repro.kernelsim.kernel", "Machine.exec_file", "kernelsim.exec"),
    ("repro.kernelsim.kernel", "Machine.reboot", "kernelsim.reboot"),
    ("repro.kernelsim.ima", "ImaEngine.log_lines", "kernelsim.log_lines"),
    ("repro.keylime.agent", "KeylimeAgent.attest", "agent.attest"),
    ("repro.keylime.agent", "KeylimeAgent.capabilities", "agent.capabilities"),
    ("repro.keylime.transport", "JsonTransportAgent.attest", "transport.wire"),
    ("repro.keylime.transport", "negotiation_to_json", "transport.push_frame"),
    ("repro.keylime.transport", "negotiation_reply_from_json", "transport.push_frame"),
    ("repro.keylime.transport", "submission_to_json", "transport.push_frame"),
    ("repro.keylime.transport", "verdict_from_json", "transport.push_frame"),
    ("repro.keylime.verifier", "negotiation_from_json", "transport.push_frame"),
    ("repro.keylime.verifier", "negotiation_reply_to_json", "transport.push_frame"),
    ("repro.keylime.verifier", "submission_from_json", "transport.push_frame"),
    ("repro.keylime.verifier", "verdict_to_json", "transport.push_frame"),
    ("repro.keylime.pipeline", "ChallengeStage.run", "pipeline.challenge"),
    ("repro.keylime.pipeline", "SubmittedEvidenceStage.run", "pipeline.challenge"),
    ("repro.keylime.pipeline", "QuoteVerifyStage.run", "pipeline.quote_verify"),
    ("repro.keylime.pipeline", "LogReplayStage.run", "pipeline.log_replay"),
    ("repro.keylime.pipeline", "PolicyEvalStage.run", "pipeline.policy_eval"),
    ("repro.keylime.pipeline", "VerificationPipeline.run", "pipeline.run"),
    ("repro.keylime.policy", "RuntimePolicy.evaluate_entry", "policy.evaluate"),
    ("repro.keylime.verifier", "KeylimeVerifier.poll", ROUND_SPAN),
    ("repro.keylime.verifier", "KeylimeVerifier.push_round", ROUND_SPAN),
    ("repro.keylime.verifier", "KeylimeVerifier.reap_push_sessions", "verifier.reap"),
    ("repro.keylime.verifier", "KeylimeVerifier.update_policy", "verifier.admin"),
    ("repro.keylime.verifier", "KeylimeVerifier.restart_attestation", "verifier.admin"),
    ("repro.keylime.audit", "AuditLog.append", "audit.append"),
    ("repro.keylime.fleet", "snapshot_verifier", "statestore.snapshot"),
    ("repro.keylime.fleet", "restore_verifier", "statestore.restore"),
    ("repro.keylime.fleet", "Fleet.poll_all", "fleet.tick"),
    ("repro.keylime.fleet", "VerifierFleet.poll_all", "fleet.tick"),
    ("repro.keylime.fleet", "VerifierFleet.probe", "fleet.probe"),
    ("repro.experiments.shardfleet", "member_snapshots", "obs.federation"),
    ("repro.experiments.shardfleet", "snapshot_to_json", "obs.federation"),
    ("repro.obs.federation", "FederationHub.ingest_json", "obs.federation"),
    ("repro.obs.federation", "FederationHub.evaluate", "obs.federation"),
    ("repro.obs.health", "HealthWatch.tick", "obs.health"),
    ("repro.dynpolicy.orchestrator", "UpdateOrchestrator.run_cycle", "dynpolicy.cycle"),
    ("repro.dynpolicy.generator", "DynamicPolicyGenerator.generate_update",
     "dynpolicy.generate_update"),
    ("repro.dynpolicy.generator", "DynamicPolicyGenerator.dedupe", "dynpolicy.dedupe"),
    ("repro.dynpolicy.generator", "DynamicPolicyGenerator.prepare_for_reboot",
     "dynpolicy.cycle"),
    ("repro.distro.workload", "BenignWorkload.daily", "distro.workload"),
    ("repro.distro.apt", "AptInstaller.upgrade_from", "distro.apt_upgrade"),
    ("repro.distro.mirror", "LocalMirror.sync", "distro.mirror_sync"),
)

#: Decoders whose first argument is the evidence payload the verifier
#: receives; its length feeds ``transport.evidence_bytes``.
EVIDENCE_DECODERS = (
    ("repro.keylime.transport", "evidence_from_json"),
    ("repro.keylime.verifier", "submission_from_json"),
)

#: Attribution groups.  The simulated prover (agent, TPM quote signing,
#: kernel, the machine's own package activity) must never be charged to
#: the verifier; ``update`` is the operator's policy-update pipeline.
GROUPS: dict[str, tuple[str, ...]] = {
    "substrate": (
        "crypto.sign", "crypto.keygen", "tpm.quote", "kernelsim.", "agent.",
        "distro.workload", "distro.apt_upgrade",
    ),
    "verifier": (
        "crypto.verify", "tpm.verify_quote", "transport.", "pipeline.",
        "policy.", "verifier.", "audit.", "statestore.", "fleet.",
    ),
    "obs": ("obs.",),
    "update": ("dynpolicy.", "distro.mirror_sync"),
}


def group_of(name: str) -> str:
    """The attribution group a span name belongs to."""
    for group, prefixes in GROUPS.items():
        if any(name == p or (p.endswith(".") and name.startswith(p)) for p in prefixes):
            return group
    raise KeyError(f"span {name!r} belongs to no attribution group")


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus its children's.

    *spans* are ``(span_id, parent_id, name, start, end, round_id)``
    tuples; a child's whole duration is subtracted from its parent, so
    the self times of all spans sum to the duration of the root spans.
    """
    duration = {span[0]: span[4] - span[3] for span in spans}
    covered: dict[int, float] = defaultdict(float)
    for span_id, parent, *_ in spans:
        if parent is not None:
            covered[parent] += duration[span_id]
    totals: dict[str, float] = defaultdict(float)
    for span_id, _parent, name, *_ in spans:
        totals[name] += duration[span_id] - covered[span_id]
    return dict(totals)


def _resolve(module_name: str, attribute: str):
    """``(owner, name)`` for a PATCHES entry: a class or a module."""
    owner = importlib.import_module(module_name)
    if "." in attribute:
        class_name, attribute = attribute.split(".")
        owner = getattr(owner, class_name)
    return owner, attribute


class Patches:
    """A set of attribute swaps that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def swap(self, owner, name: str, make_wrapper) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class LayerTracer:
    """Records a span at every layer boundary listed in :data:`PATCHES`.

    :meth:`install` and :meth:`uninstall` may alternate between ticks;
    spans accumulate across installs.  Call them only while no wrapped
    call is in flight.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.evidence_bytes = 0
        self._patches = Patches()
        self._stack: list[int] = []
        self._round: int | None = None
        self._next_id = 0

    @property
    def installed(self) -> bool:
        return bool(self._patches._saved)

    def install(self) -> None:
        if self.installed:
            return
        for module_name, attribute, span_name in PATCHES:
            owner, name = _resolve(module_name, attribute)
            self._patches.swap(
                owner, name,
                lambda original, span_name=span_name: self._wrap(span_name, original),
            )
        for module_name, attribute in EVIDENCE_DECODERS:
            owner, name = _resolve(module_name, attribute)
            self._patches.swap(owner, name, self._count_bytes)

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, span_name: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            outer_round = self._round
            if span_name == ROUND_SPAN and outer_round is None:
                self._round = span_id
            self._stack.append(span_id)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(
                    (span_id, parent, span_name, start, end, self._round)
                )
                self._round = outer_round
        return traced

    def _count_bytes(self, original):
        @functools.wraps(original)
        def counted(blob, *args, **kwargs):
            self.evidence_bytes += len(blob)
            return original(blob, *args, **kwargs)
        return counted

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[2]] += 1
        return dict(counts)

    def write_jsonl(self, path) -> None:
        """Dump every span, times relative to the first span's start."""
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, round_id in sorted(self.spans):
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin,
                    "round": round_id,
                }) + "\n")
