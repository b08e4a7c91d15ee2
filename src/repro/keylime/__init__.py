"""A faithful re-implementation of Keylime's attestation stack.

Four components, mirroring Fig 1 of the paper:

* :mod:`repro.keylime.agent` -- runs on the untrusted prover; collects
  TPM quotes and ships the IMA measurement list.
* :mod:`repro.keylime.registrar` -- validates the TPM's EK certificate
  chain and the EK->AK binding before the verifier trusts any quote.
* :mod:`repro.keylime.verifier` -- the attestation loop: challenge with
  a fresh nonce, verify the quote signature, replay the IMA log against
  the quoted PCR 10, and evaluate every new entry against the runtime
  policy.  By default it **stops polling on the first failure** -- the
  behaviour behind the paper's P2 -- with a ``continue_on_failure``
  switch implementing the proposed M2 fix.
* :mod:`repro.keylime.tenant` -- the management CLI equivalent:
  registers agents, installs policies, restarts failed attestation.

The runtime policy model (:mod:`repro.keylime.policy`) is an allowlist
of path -> accepted digests plus a list of exclude regexes; the
documented Keylime/IBM exclude set (including ``/tmp``) is the source
of P1.
"""

# NOTE: repro.keylime.fleet is intentionally NOT imported here -- it
# composes the dynamic-policy generator (repro.dynpolicy) on top of the
# base stack, and dynpolicy itself depends on repro.keylime.policy;
# import it directly as `from repro.keylime.fleet import Fleet`.
from repro.keylime.agent import AttestationEvidence, KeylimeAgent
from repro.keylime.audit import AuditLog, AuditRecord
from repro.keylime.policytools import (
    PolicyDiff,
    PolicyStatistics,
    diff_policies,
    lint_excludes,
    policy_statistics,
)
from repro.keylime.sharding import (
    ConsistentHashRing,
    Migration,
    MigrationPlan,
    shard_balance,
)
from repro.keylime.statestore import (
    export_agent_state,
    import_agent_state,
    inspect_snapshot,
    read_snapshot,
    restore_from_file,
    restore_verifier,
    snapshot_verifier,
    write_snapshot,
)
from repro.keylime.transport import (
    JsonTransportAgent,
    PushAgentClient,
    PushSession,
    evidence_from_json,
    evidence_to_json,
)
from repro.keylime.measuredboot import (
    BootPcrMismatch,
    MeasuredBootPolicy,
    capture_golden,
)
from repro.keylime.revocation import (
    QuarantineListener,
    RevocationEvent,
    RevocationNotifier,
)
from repro.keylime.pipeline import (
    ChallengeStage,
    LogReplayStage,
    MeasuredBootStage,
    PolicyEvalStage,
    QuoteVerifyStage,
    RoundContext,
    SubmittedEvidenceStage,
    VerificationPipeline,
    push_stages,
)
from repro.keylime.policy import (
    EntryVerdict,
    ExcludeIndex,
    PolicyFailure,
    RuntimePolicy,
    VerdictCache,
    build_policy_from_machine,
)
from repro.keylime.faults import (
    CHAOS_PROFILES,
    FaultKind,
    FaultPlan,
    FaultSpec,
    VerifierOutage,
    chaos_profile,
)
from repro.keylime.registrar import KeylimeRegistrar, RegistrationError
from repro.keylime.retrypolicy import RetryBudgetExceeded, RetryPolicy, classify
from repro.keylime.tenant import KeylimeTenant
from repro.keylime.verifier import AgentState, AttestationResult, KeylimeVerifier

__all__ = [
    "AgentState",
    "CHAOS_PROFILES",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "chaos_profile",
    "classify",
    "AttestationEvidence",
    "AttestationResult",
    "AuditLog",
    "AuditRecord",
    "BootPcrMismatch",
    "ChallengeStage",
    "ConsistentHashRing",
    "EntryVerdict",
    "ExcludeIndex",
    "JsonTransportAgent",
    "KeylimeAgent",
    "KeylimeRegistrar",
    "KeylimeTenant",
    "KeylimeVerifier",
    "LogReplayStage",
    "MeasuredBootPolicy",
    "MeasuredBootStage",
    "Migration",
    "MigrationPlan",
    "PolicyDiff",
    "PolicyEvalStage",
    "PolicyFailure",
    "PolicyStatistics",
    "PushAgentClient",
    "PushSession",
    "QuarantineListener",
    "QuoteVerifyStage",
    "RegistrationError",
    "RevocationEvent",
    "RevocationNotifier",
    "RoundContext",
    "RuntimePolicy",
    "SubmittedEvidenceStage",
    "VerdictCache",
    "VerificationPipeline",
    "VerifierOutage",
    "build_policy_from_machine",
    "capture_golden",
    "diff_policies",
    "evidence_from_json",
    "evidence_to_json",
    "export_agent_state",
    "import_agent_state",
    "inspect_snapshot",
    "lint_excludes",
    "policy_statistics",
    "push_stages",
    "read_snapshot",
    "restore_from_file",
    "restore_verifier",
    "shard_balance",
    "snapshot_verifier",
    "write_snapshot",
]
