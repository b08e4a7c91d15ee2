"""Microbenchmarks of the attestation hot path.

Not a paper artifact -- these keep an eye on the cost of the operations
the long-run experiments execute tens of thousands of times: TPM
quoting, quote verification, the full verifier poll, IMA measurement,
policy evaluation, and the RSA signing and key generation beneath the
simulated TPM.
"""

from __future__ import annotations

import pytest

from repro.common.hexutil import extend_digest, sha256_hex, zero_digest
from repro.common.rng import SeededRng
from repro.crypto.rsa import generate_keypair
from repro.experiments.testbed import build_testbed, TestbedConfig
from repro.kernelsim.ima import ImaLogEntry, template_hash
from repro.tpm.quote import verify_quote


@pytest.fixture(scope="module")
def rig():
    testbed = build_testbed(TestbedConfig(seed="micro"))
    testbed.poll()
    return testbed


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
