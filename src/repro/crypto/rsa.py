"""RSA signatures implemented from scratch.

This module implements exactly the subset of RSA the attestation stack
needs: key generation by a sieved prime search with Miller-Rabin
primality testing, and PKCS#1 v1.5 signatures over SHA-256 (the scheme
TPM 2.0 uses for RSASSA quotes), computed through the Chinese Remainder
Theorem because every attestation round signs a quote.  It is
deliberately deterministic -- keys are derived from a
:class:`repro.common.rng.SeededRng` stream -- so that an experiment
seed fully determines every signature byte in a run.

The implementation favours clarity over constant-time hygiene; it is a
simulation substrate, not a production cryptography library.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress

from repro.common.errors import IntegrityError
from repro.common.rng import SeededRng

# DigestInfo DER prefix for SHA-256 (RFC 8017, section 9.2 note 1).
_SHA256_DIGEST_INFO_PREFIX = bytes.fromhex(
    "3031300d060960864801650304020105000420"
)

# Trial division: the cheap first line of defence before the
# Miller-Rabin rounds.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

# Fixed Miller-Rabin bases.  Together they are exact -- no composite is a
# strong pseudoprime to all twelve -- below
# psi_12 = 318,665,857,834,031,151,167,461 (about 3.19 * 10^23, 2^78;
# Sorenson and Webster, 2017).
_FIXED_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The prime search sieves each span of _SIEVE_SPAN odd candidates by
# every odd prime below _SIEVE_LIMIT before testing the survivors.
_SIEVE_LIMIT = 8192
_SIEVE_SPAN = 256


def _odd_primes_below(limit: int) -> array:
    """The odd primes below *limit*, by the sieve of Eratosthenes."""
    composite = bytearray(limit)
    for factor in range(3, int(limit**0.5) + 1, 2):
        if not composite[factor]:
            composite[factor * factor::2 * factor] = b"\x01" * len(
                range(factor * factor, limit, 2 * factor)
            )
    return array("H", (n for n in range(3, limit, 2) if not composite[n]))


_SIEVE_PRIMES = _odd_primes_below(_SIEVE_LIMIT)


def _miller_rabin_witness(candidate: int, witness: int) -> bool:
    """True when *witness* proves *candidate* composite."""
    if candidate % witness == 0:
        return candidate != witness
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(witness, d, candidate)
    if x in (1, candidate - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % candidate
        if x == candidate - 1:
            return False
    return True


def is_probable_prime(candidate: int, rng: SeededRng | None = None, rounds: int = 16) -> bool:
    """Miller-Rabin primality test.

    Trial division by the primes up to 199 first, then the fixed
    witnesses 2..37, then *rounds* random witnesses drawn from *rng* (or
    skipped when no rng is supplied; the fixed witnesses are already
    overwhelming for the key sizes used here).  The rng is drawn from
    only once every fixed witness has passed.
    """
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    for witness in _FIXED_WITNESSES:
        if _miller_rabin_witness(candidate, witness):
            return False
    if rng is not None:
        for _ in range(rounds):
            witness = rng.randint(2, candidate - 2)
            if _miller_rabin_witness(candidate, witness):
                return False
    return True


def _sieve_survivors(base: int, count: int) -> Iterator[int]:
    """Indices *i* < *count* whose odd value ``base + 2*i`` no odd prime
    below :data:`_SIEVE_LIMIT` divides, except by being that prime."""
    alive = bytearray(b"\x01") * count
    dead = bytes(count)
    for prime in _SIEVE_PRIMES:
        # The first multiple of prime is at i = -base / 2 (mod prime):
        # (prime + 1) // 2 is the inverse of 2.
        first = (prime - base % prime) * ((prime + 1) // 2) % prime
        if first < count:
            if base <= prime and base + 2 * first == prime:
                first += prime  # prime itself survives
            alive[first::prime] = dead[first::prime]
    return compress(range(count), alive)


def _generate_prime(rng: SeededRng, bits: int) -> int:
    """Generate a prime of exactly *bits* bits from the rng stream.

    A token from *rng* picks an odd *bits*-bit start, and the odd values
    from it up to ``min(start + 4096, 2**bits)`` are tried in order; a
    window without a prime draws a new token.  Each span of
    :data:`_SIEVE_SPAN` odd values is first sieved by every odd prime
    below :data:`_SIEVE_LIMIT`, and only the survivors go through
    :func:`is_probable_prime`.

    The keys are the ones an unsieved scan finds.  The sieve drops only
    composites.  A composite costs :func:`is_probable_prime` an rng draw
    only if it is a strong pseudoprime to every fixed witness, and none
    is below 2^78; so below it the sieve changes neither the prime
    returned nor the rng position, and above it such a composite with a
    factor below the limit is vanishingly rare (the test suite pins the
    keys it and the benchmark use).
    """
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    while True:
        raw = int.from_bytes(rng.token(bits // 8 + 1), "big")
        candidate = raw | (1 << (bits - 1)) | 1  # force top bit and odd
        candidate &= (1 << bits) - 1
        candidate |= 1 << (bits - 1)
        # Scan forward over odd numbers; much cheaper than fresh draws.
        end = min(candidate + 4096, 1 << bits)
        for base in range(candidate, end, 2 * _SIEVE_SPAN):
            count = min(_SIEVE_SPAN, (end - base + 1) // 2)
            for index in _sieve_survivors(base, count):
                value = base + 2 * index
                if is_probable_prime(value, rng):
                    return value


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)`` with PKCS#1 v1.5 verification."""

    n: int
    e: int

    @property
    def size_bytes(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> str:
        """SHA-256 fingerprint over the canonical encoding of (n, e)."""
        blob = self.n.to_bytes(self.size_bytes, "big") + self.e.to_bytes(4, "big")
        return hashlib.sha256(blob).hexdigest()

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a PKCS#1 v1.5 SHA-256 signature.  Returns bool, never raises."""
        if len(signature) != self.size_bytes:
            return False
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.n:
            return False
        recovered = pow(sig_int, self.e, self.n).to_bytes(self.size_bytes, "big")
        try:
            expected = _pkcs1_v15_pad(message, self.size_bytes)
        except IntegrityError:
            return False
        return recovered == expected


def _pkcs1_v15_pad(message: bytes, size: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of SHA-256(message) to *size* bytes."""
    digest = hashlib.sha256(message).digest()
    payload = _SHA256_DIGEST_INFO_PREFIX + digest
    pad_len = size - len(payload) - 3
    if pad_len < 8:
        raise IntegrityError(f"modulus too small ({size} bytes) for PKCS#1 v1.5/SHA-256")
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + payload


@dataclass(frozen=True)
class RsaKeyPair:
    """An RSA keypair with PKCS#1 v1.5 signing.

    The private key is kept on the dataclass for simplicity; the
    simulation's trust boundaries are enforced by which *components*
    hold a keypair versus only its :class:`RsaPublicKey`.

    Besides ``d`` the keypair holds the CRT form of the private key
    (RFC 8017, section 3.2): the primes ``p`` and ``q``, the exponents
    ``dP = d mod (p-1)`` and ``dQ = d mod (q-1)``, and the coefficient
    ``qInv = q^-1 mod p``.  :meth:`sign` uses only the CRT form; ``d``
    stays as the oracle the tests check it against.
    """

    public: RsaPublicKey
    d: int
    p: int
    q: int
    dP: int
    dQ: int
    qInv: int

    def sign(self, message: bytes) -> bytes:
        """Produce a PKCS#1 v1.5 SHA-256 signature over *message*.

        Two half-size exponentiations recombined with Garner's formula
        (RFC 8017, section 5.1.2) give exactly ``pow(m, d, n)`` at well
        under half its cost.  The padding is deterministic, so every
        signature byte is the same as with the full exponent.
        """
        padded = _pkcs1_v15_pad(message, self.public.size_bytes)
        value = int.from_bytes(padded, "big")
        m1 = pow(value, self.dP, self.p)
        m2 = pow(value, self.dQ, self.q)
        h = (self.qInv * (m1 - m2)) % self.p
        signature = m2 + h * self.q
        return signature.to_bytes(self.public.size_bytes, "big")


def generate_keypair(rng: SeededRng, bits: int = 1024, e: int = 65537) -> RsaKeyPair:
    """Generate an RSA keypair deterministically from *rng*.

    1024-bit keys keep the test suite fast; the quote format and
    verification logic are identical at any size.
    """
    if bits < 512:
        raise ValueError(f"RSA modulus must be at least 512 bits, got {bits}")
    if bits % 2 != 0:
        raise ValueError(f"RSA modulus size must be even, got {bits}")
    half = bits // 2
    while True:
        p = _generate_prime(rng.fork("p"), half)
        q = _generate_prime(rng.fork("q"), half)
        attempts = 0
        while p == q:
            attempts += 1
            q = _generate_prime(rng.fork(f"q{attempts}"), half)
        n = p * q
        if n.bit_length() != bits:
            rng = rng.fork("retry")
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError:
            rng = rng.fork("retry-e")
            continue
        return RsaKeyPair(
            public=RsaPublicKey(n=n, e=e), d=d, p=p, q=q,
            dP=d % (p - 1), dQ=d % (q - 1), qInv=pow(q, -1, p),
        )
