"""Microbenchmarks of the attestation hot path.

Not a paper artifact -- these keep an eye on the cost of the operations
the long-run experiments execute tens of thousands of times: TPM
quoting, quote verification, the full verifier poll, IMA measurement,
the verifier's replay of a whole shipped log (cold, and against a
warmed shared cache), policy evaluation, the
RSA signing, key generation and prime search beneath the simulated
TPM, the VFS walk over ``/usr``, and the executables query over it that
the benign workload runs every simulated day.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.common.hexutil import extend_digest, sha256_hex, zero_digest
from repro.common.rng import SeededRng
from repro.crypto.rsa import _generate_prime, generate_keypair
from repro.experiments.testbed import build_testbed, TestbedConfig
from repro.kernelsim.ima import ImaLogEntry, template_hash
from repro.keylime.pipeline import AgentSlot, LogReplayStage, RoundContext
from repro.keylime.policy import VerdictCache
from repro.obs.tracing import NULL_TRACER
from repro.tpm.pcr import IMA_PCR_INDEX, replay_extends
from repro.tpm.quote import verify_quote


@pytest.fixture(scope="module")
def rig():
    testbed = build_testbed(TestbedConfig(seed="micro"))
    testbed.poll()
    return testbed


@pytest.fixture(scope="module")
def longrun_testbed():
    """The longrun testbed's scale: about 46,000 executables."""
    return build_testbed(
        TestbedConfig(seed="micro", n_filler_packages=600, mean_exec_files=77.0)
    )


def test_micro_pcr_extend(benchmark):
    value = sha256_hex(b"entry")
    current = zero_digest("sha256")
    benchmark(lambda: extend_digest("sha256", current, value))


def test_micro_tpm_quote(benchmark, rig):
    tpm = rig.machine.tpm
    ak_fingerprint = rig.agent.attestation_key.public.fingerprint()
    quote = benchmark(lambda: tpm.quote(ak_fingerprint, "nonce", [10]))
    assert quote.pcr_values


def test_micro_quote_verification(benchmark, rig):
    tpm = rig.machine.tpm
    ak = rig.agent.attestation_key
    quote = tpm.quote(ak.public.fingerprint(), "nonce", [10])
    benchmark(lambda: verify_quote(quote, ak.public, "nonce"))


def test_micro_rsa_sign(benchmark, rig):
    tpm = rig.machine.tpm
    quote = tpm.quote(rig.agent.attestation_key.public.fingerprint(), "nonce", [10])
    message = quote.signed_bytes()
    # A key of the AK's size: the TPM keeps the real AK's private half.
    ak = generate_keypair(SeededRng("micro").fork("ak"), bits=tpm.ek_public.size_bytes * 8)
    signature = benchmark(lambda: ak.sign(message))
    assert ak.public.verify(message, signature)


def test_micro_rsa_keygen(benchmark):
    keypair = benchmark.pedantic(
        lambda: generate_keypair(SeededRng("micro-keygen"), bits=1024),
        rounds=5, iterations=1,
    )
    assert keypair.public.n.bit_length() == 1024


def test_micro_prime_search(benchmark):
    # The prime search alone, without keygen's modulus-size retries.
    prime = benchmark.pedantic(
        lambda: _generate_prime(SeededRng("micro-prime-search"), 512),
        rounds=5, iterations=1,
    )
    assert prime.bit_length() == 512


def test_micro_verifier_poll_steady_state(benchmark, rig):
    result = benchmark(lambda: rig.poll())
    assert result.ok


def test_micro_ima_measurement(benchmark, rig):
    machine = rig.machine
    counter = {"n": 0}

    def measure_fresh_file():
        counter["n"] += 1
        path = f"/tmp/micro-{counter['n']}"
        machine.install_file(path, b"payload", executable=True)
        return machine.exec_file(path)

    result = benchmark.pedantic(measure_fresh_file, rounds=200, iterations=1)
    assert result.measured


def _shipped_log():
    """A whole 601-entry log as one evidence, and its quoted PCR 10."""
    lines = []
    for index in range(601):
        filedata = "sha256:" + sha256_hex(b"file-%d" % index)
        path = f"/usr/bin/tool-{index}"
        lines.append(ImaLogEntry(
            pcr=IMA_PCR_INDEX, template_hash=template_hash(filedata, path),
            template="ima-ng", filedata_hash=filedata, path=path,
        ).to_line())
    quoted = replay_extends("sha256", [line.split(" ")[1] for line in lines])
    evidence = SimpleNamespace(
        ima_log_lines=tuple(lines), offset=0,
        quote=SimpleNamespace(pcr_values={IMA_PCR_INDEX: quoted}),
    )
    return evidence, quoted


def _replay_whole_log(evidence, cache):
    slot = AgentSlot(agent=None, policy=None)
    LogReplayStage().run(RoundContext(
        agent_id="micro", slot=slot, record=None, now=0.0, rng=None,
        tracer=NULL_TRACER, evidence=evidence, cache=cache,
    ))
    return slot


def test_micro_log_replay(benchmark):
    """Replay a whole 601-entry log with no cache: every line is split
    and its template hash checked."""
    evidence, quoted = _shipped_log()
    slot = benchmark(_replay_whole_log, evidence, None)
    assert (slot.replay_aggregate, slot.verified_entries) == (quoted, 601)


def test_micro_log_replay_warm(benchmark):
    """The same replay against a warmed shared cache, as every
    ``reattest_fleet`` poll after the first: each line is a memo hit."""
    evidence, quoted = _shipped_log()
    cache = VerdictCache()
    _replay_whole_log(evidence, cache)
    slot = benchmark(_replay_whole_log, evidence, cache)
    assert (slot.replay_aggregate, slot.verified_entries) == (quoted, 601)
    assert len(cache.line_memo) == 601


def test_micro_policy_evaluation(benchmark, rig):
    policy = rig.policy
    path, digests = next(iter(policy.digests.items()))
    filedata = "sha256:" + digests[0]
    entry = ImaLogEntry(
        pcr=10, template_hash=template_hash(filedata, path),
        template="ima-ng", filedata_hash=filedata, path=path,
    )
    verdict, failure = benchmark(lambda: policy.evaluate_entry(entry))
    assert failure is None


def test_micro_vfs_walk(benchmark, longrun_testbed):
    vfs = longrun_testbed.machine.vfs
    stats = benchmark(lambda: list(vfs.walk("/usr")))
    assert len(stats) > 40_000


def test_micro_vfs_executables(benchmark, longrun_testbed):
    vfs = longrun_testbed.machine.vfs
    paths = benchmark(lambda: vfs.executables("/usr"))
    assert len(paths) > 40_000
    assert paths == [stat.path for stat in vfs.walk("/usr") if stat.executable]
