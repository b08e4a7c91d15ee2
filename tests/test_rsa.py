"""Tests for the from-scratch RSA implementation."""

import hashlib
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import repro
from repro.common.rng import SeededRng
from repro.crypto import rsa
from repro.crypto.rsa import (
    RsaKeyPair,
    _generate_prime,
    _pkcs1_v15_pad,
    generate_keypair,
    is_probable_prime,
)
from repro.experiments.shardfleet import build_shard_rig
from repro.experiments.testbed import TestbedConfig, build_testbed
from tests.conftest import KEYGEN_SITES, memoized_keygen

GOLDEN_KEYS = Path(__file__).resolve().parent / "golden" / "keygen_fingerprints.json"


@pytest.fixture(scope="module")
def keypair() -> RsaKeyPair:
    return generate_keypair(SeededRng("rsa-tests"), bits=1024)


class TestPrimality:
    def test_small_primes(self):
        for prime in (2, 3, 5, 7, 11, 13, 97, 101, 7919):
            assert is_probable_prime(prime)

    def test_small_composites(self):
        for composite in (0, 1, 4, 6, 9, 15, 91, 7917):
            assert not is_probable_prime(composite)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat but not Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(carmichael)

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime(2**127 - 1)

    def test_large_known_composite(self):
        assert not is_probable_prime((2**127 - 1) * 3)


def reference_generate_prime(rng: SeededRng, bits: int, seen: set[str]) -> int:
    """The unsieved prime search: :func:`is_probable_prime` on every odd
    candidate of the window.  Adds to *seen* the edge cases it met."""
    while True:
        raw = int.from_bytes(rng.token(bits // 8 + 1), "big")
        candidate = raw | (1 << (bits - 1)) | 1
        candidate &= (1 << bits) - 1
        candidate |= 1 << (bits - 1)
        for offset in range(0, 4096, 2):
            value = candidate + offset
            if value.bit_length() != bits:
                seen.add("window cut short at 2**bits")
                break
            if is_probable_prime(value, rng):
                if value < rsa._SIEVE_LIMIT:
                    seen.add("prime below the sieve limit")
                return value
        seen.add("window without a prime")


class FixedStarts(SeededRng):
    """A seeded stream whose first tokens are the given window starts."""

    def __init__(self, *starts: int) -> None:
        super().__init__("fixed-starts")
        self.starts = list(starts)

    def token(self, nbytes: int = 16) -> bytes:
        if self.starts:
            return self.starts.pop(0).to_bytes(nbytes, "big")
        return super().token(nbytes)


class TestSievedPrimeSearch:
    """The sieve only skips candidates the unsieved search rejects
    without an rng draw, so both return the same prime and leave the
    rng in the same state.  Below 2^78 this holds for every seed."""

    BITS = (8, 9, 10, 11, 12, 13, 14, 16, 20, 24, 32, 48, 64)
    SEEDS = 150

    def test_small_spans_keep_exactly_their_primes(self):
        # Below 2^26 every odd composite has a prime factor under the
        # limit, so a span's survivors are its primes -- the sieve
        # primes in it included.
        for base in range(3, rsa._SIEVE_LIMIT + 600, 38):
            survivors = [base + 2 * i for i in rsa._sieve_survivors(base, 256)]
            assert survivors == [
                value for value in range(base, base + 512, 2)
                if is_probable_prime(value)
            ]

    @staticmethod
    def search_both(bits: int, start: int) -> tuple[int, set[str]]:
        """Both searches from the window *start*; returns the prime and
        the edge cases the unsieved search met."""
        sieved, reference = FixedStarts(start), FixedStarts(start)
        seen: set[str] = set()
        prime = _generate_prime(sieved, bits)
        assert prime == reference_generate_prime(reference, bits, seen)
        assert sieved.getstate() == reference.getstate()
        return prime, seen

    def test_window_without_a_prime_draws_again(self):
        # 253 = 11 * 23 and 255 = 3 * 5 * 17.
        _, seen = self.search_both(8, 253)
        assert "window without a prime" in seen

    def test_last_odd_value_below_two_to_the_bits(self):
        # 8181..8189 are composite; 8191 = 2**13 - 1 ends the window.
        prime, _ = self.search_both(13, 8181)
        assert prime == 8191

    def test_same_prime_and_rng_state(self):
        seen: set[str] = set()
        for bits in self.BITS:
            for seed in range(self.SEEDS):
                sieved = SeededRng(f"prime-search/{bits}/{seed}")
                reference = SeededRng(f"prime-search/{bits}/{seed}")
                prime = _generate_prime(sieved, bits)
                assert prime == reference_generate_prime(reference, bits, seen)
                assert sieved.getstate() == reference.getstate()
                assert prime.bit_length() == bits
        assert seen == {
            "window cut short at 2**bits",
            "window without a prime",
            "prime below the sieve limit",
        }

    @pytest.mark.parametrize("seed", range(3))
    def test_256_bit_primes(self, seed):
        sieved = SeededRng(f"prime-search/256/{seed}")
        reference = SeededRng(f"prime-search/256/{seed}")
        assert _generate_prime(sieved, 256) == reference_generate_prime(
            reference, 256, set()
        )
        assert sieved.getstate() == reference.getstate()


class TestKeygenGolden:
    """The keys the benchmark's rigs generate, pinned by fingerprint.

    ``golden/keygen_fingerprints.json`` was recorded with the unsieved
    prime search; regenerating each key from its fork material with the
    uncached :func:`generate_keypair` must give the same fingerprint.
    """

    @pytest.fixture(scope="class")
    def golden(self) -> list[dict]:
        return json.loads(GOLDEN_KEYS.read_text())["keys"]

    def test_keys_regenerate_to_pinned_fingerprints(self, golden):
        assert len(golden) == 20
        for key in golden:
            rng = SeededRng(_material=bytes.fromhex(key["material"]))
            keypair = rsa.generate_keypair(rng, key["bits"], key["e"])
            assert keypair.public.fingerprint() == key["fingerprint"]

    def test_golden_lists_every_key_of_the_rigs(self, golden, keygen_memo, monkeypatch):
        generated = []

        def recording(rng, bits=1024, e=65537):
            generated.append((rng._material.hex(), bits, e))
            return keygen_memo(rng, bits, e)

        for site in KEYGEN_SITES:
            monkeypatch.setattr(importlib.import_module(site), "generate_keypair", recording)
        build_shard_rig("e2e/0", 8)
        build_testbed(TestbedConfig(
            seed="dsn2025-repro/daily-h", n_filler_packages=4, mean_exec_files=3.0,
        ))
        assert generated == [
            (key["material"], key["bits"], key["e"]) for key in golden
        ]


class TestKeyGeneration:
    def test_modulus_size(self, keypair: RsaKeyPair):
        assert keypair.public.n.bit_length() == 1024
        assert keypair.public.size_bytes == 128

    def test_deterministic_from_seed(self):
        a = generate_keypair(SeededRng("same"), bits=512)
        b = generate_keypair(SeededRng("same"), bits=512)
        assert a.public.n == b.public.n
        assert a.d == b.d
        assert (a.p, a.q) == (b.p, b.q)

    def test_different_seeds_give_different_keys(self):
        a = generate_keypair(SeededRng("one"), bits=512)
        b = generate_keypair(SeededRng("two"), bits=512)
        assert a.public.n != b.public.n

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            generate_keypair(SeededRng(0), bits=256)

    def test_rejects_odd_bit_count(self):
        with pytest.raises(ValueError):
            generate_keypair(SeededRng(0), bits=1023)

    def test_exponent_roundtrip(self, keypair: RsaKeyPair):
        message = 0xDEADBEEF
        cipher = pow(message, keypair.public.e, keypair.public.n)
        assert pow(cipher, keypair.d, keypair.public.n) == message


class TestSignatures:
    def test_sign_verify_roundtrip(self, keypair: RsaKeyPair):
        signature = keypair.sign(b"attestation quote")
        assert keypair.public.verify(b"attestation quote", signature)

    def test_wrong_message_fails(self, keypair: RsaKeyPair):
        signature = keypair.sign(b"message")
        assert not keypair.public.verify(b"other message", signature)

    def test_tampered_signature_fails(self, keypair: RsaKeyPair):
        signature = bytearray(keypair.sign(b"message"))
        signature[0] ^= 0xFF
        assert not keypair.public.verify(b"message", bytes(signature))

    def test_truncated_signature_fails(self, keypair: RsaKeyPair):
        signature = keypair.sign(b"message")
        assert not keypair.public.verify(b"message", signature[:-1])

    def test_signature_length_is_modulus_size(self, keypair: RsaKeyPair):
        assert len(keypair.sign(b"x")) == keypair.public.size_bytes

    def test_signatures_are_deterministic(self, keypair: RsaKeyPair):
        assert keypair.sign(b"m") == keypair.sign(b"m")

    def test_verify_with_wrong_key_fails(self, keypair: RsaKeyPair):
        other = generate_keypair(SeededRng("other-key"), bits=1024)
        signature = keypair.sign(b"m")
        assert not other.public.verify(b"m", signature)

    def test_oversized_signature_int_rejected(self, keypair: RsaKeyPair):
        # Full-length signatures whose integer is n itself, or all 0xff
        # bytes, are out of range.
        size = keypair.public.size_bytes
        for bogus in (keypair.public.n.to_bytes(size, "big"), b"\xff" * size):
            assert not keypair.public.verify(b"m", bogus)

    def test_empty_message(self, keypair: RsaKeyPair):
        signature = keypair.sign(b"")
        assert keypair.public.verify(b"", signature)


class TestFingerprint:
    def test_stable(self, keypair: RsaKeyPair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()

    def test_unique_per_key(self, keypair: RsaKeyPair):
        other = generate_keypair(SeededRng("fp-key"), bits=512)
        assert keypair.public.fingerprint() != other.public.fingerprint()

    def test_format(self, keypair: RsaKeyPair):
        fingerprint = keypair.public.fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)


class TestCrtSigning:
    """The CRT signing path against the full-exponent oracle."""

    KEYS = [(bits, f"crt-{bits}-{i}") for bits in (512, 1024) for i in range(3)]
    MESSAGES = (b"", b"m", b"attestation quote", bytes(range(256)), b"x" * 4096)

    @pytest.fixture(scope="class", params=KEYS, ids=lambda key: key[1])
    def crt_keypair(self, request) -> RsaKeyPair:
        bits, seed = request.param
        return generate_keypair(SeededRng(seed), bits=bits)

    def test_sign_matches_full_exponent(self, crt_keypair: RsaKeyPair):
        public = crt_keypair.public
        for message in self.MESSAGES:
            padded = int.from_bytes(_pkcs1_v15_pad(message, public.size_bytes), "big")
            oracle = pow(padded, crt_keypair.d, public.n).to_bytes(public.size_bytes, "big")
            assert crt_keypair.sign(message) == oracle

    def test_crt_parameters(self, crt_keypair: RsaKeyPair):
        k = crt_keypair
        e = k.public.e
        assert k.p * k.q == k.public.n
        assert (e * k.dP) % (k.p - 1) == 1
        assert (e * k.dQ) % (k.q - 1) == 1
        assert (k.q * k.qInv) % k.p == 1


class TestBytePin:
    """Keygen and signature bytes pinned to fixed values.

    Any drift in key generation (the RNG stream, prime search) or in
    signing fails here directly rather than only through the fleet
    golden files.
    """

    FINGERPRINT = "2b1d0f22d4ad2d0bca54e956faa415ca2a586298a4d3ce6c3d0b9e0ba8711db9"
    SIGNATURE_SHA256 = {
        b"": "22a473699013088b96bd2be333a8524537d45b2ecbf34ff679ea719db92e58e9",
        b"attestation quote": "e901f1a5785db0d9abcac98a815ca409682adec226f7004edc8e10f2c54d258d",
        bytes(range(256)): "f0b59bfcfdc1b8c06bc8e11bff522ed4752593c5d95e7fa0880c3f1b4445a863",
        b"x" * 4096: "399168ce392740477662b5be4b57a009796e5f02c2c72b61f292e453d480c245",
    }

    def test_keygen_and_signatures_pinned(self):
        keypair = generate_keypair(SeededRng("rsa-pin"), bits=1024)
        assert keypair.public.fingerprint() == self.FINGERPRINT
        for message, digest in self.SIGNATURE_SHA256.items():
            assert hashlib.sha256(keypair.sign(message)).hexdigest() == digest


class TestKeygenMemo:
    """The suite's keygen memo (``tests/conftest.py``) hands out exactly
    the keys the library generates, at every name the library calls."""

    def test_site_list_names_every_binding_module(self, keygen_memo):
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        binding = {
            name for name, module in list(sys.modules.items())
            if name.startswith("repro.") and "generate_keypair" in vars(module)
        }
        # The defining module and its package re-export stay uncached.
        assert binding - {"repro.crypto", "repro.crypto.rsa"} == set(KEYGEN_SITES)
        for site in KEYGEN_SITES:
            assert sys.modules[site].generate_keypair is keygen_memo

    def test_memo_returns_the_generated_key(self):
        memo = memoized_keygen(generate_keypair)
        for seed, bits in [("memo-a", 512), ("memo-a", 1024), ("memo-b", 512), (7, 1024)]:
            rng = SeededRng(seed)
            state = rng.getstate()
            fresh = generate_keypair(rng.fork("key"), bits=bits)
            cached = memo(rng.fork("key"), bits=bits)
            assert rng.getstate() == state  # keygen only forks the stream
            assert memo(rng.fork("key"), bits=bits) is cached
            assert (
                cached.public.n, cached.public.e, cached.d, cached.p, cached.q
            ) == (fresh.public.n, fresh.public.e, fresh.d, fresh.p, fresh.q)
