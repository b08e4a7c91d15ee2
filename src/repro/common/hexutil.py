"""Digest and hex helpers shared by the TPM, IMA and policy layers.

Everything in the attestation stack speaks in hex-encoded digests: IMA
log lines, Keylime runtime policies, PCR values, quote structures.  This
module centralises the handful of conversions so that the encoding rules
live in exactly one place -- the PCR extend rule included:
:func:`extend_bytes` is its one implementation, for the TPM's PCR banks
and the verifier's IMA log replay alike.
"""

from __future__ import annotations

import hashlib

SHA1_ZEROS = "0" * 40
SHA256_ZEROS = "0" * 64
SHA1_FF = "f" * 40
SHA256_FF = "f" * 64

DIGEST_SIZES = {"sha1": 20, "sha256": 32, "sha384": 48, "sha512": 64}

# (digest size, named constructor) per algorithm, for the extend hot
# path: ``hashlib.new`` resolves the name on every call, which made one
# extend about 40% dearer.
_EXTEND_HASHES = {
    name: (size, getattr(hashlib, name)) for name, size in DIGEST_SIZES.items()
}


def sha1_hex(data: bytes) -> str:
    """SHA-1 digest of *data*, hex-encoded."""
    return hashlib.sha1(data).hexdigest()


def sha256_hex(data: bytes) -> str:
    """SHA-256 digest of *data*, hex-encoded."""
    return hashlib.sha256(data).hexdigest()


def digest_hex(algorithm: str, data: bytes) -> str:
    """Digest *data* with the named algorithm, hex-encoded."""
    if algorithm not in DIGEST_SIZES:
        raise ValueError(f"unsupported digest algorithm: {algorithm!r}")
    return hashlib.new(algorithm, data).hexdigest()


def digest_size(algorithm: str) -> int:
    """Digest size in bytes for the named algorithm."""
    try:
        return DIGEST_SIZES[algorithm]
    except KeyError:
        raise ValueError(f"unsupported digest algorithm: {algorithm!r}") from None


def zero_digest(algorithm: str) -> str:
    """The all-zero digest for the named algorithm (PCR reset value)."""
    return "0" * (2 * digest_size(algorithm))


def is_hex_digest(value: str, algorithm: str | None = None) -> bool:
    """True when *value* is a well-formed hex digest.

    When *algorithm* is given, the length must match that algorithm's
    digest size; otherwise any known digest length is accepted.
    """
    if not isinstance(value, str) or not value:
        return False
    try:
        bytes.fromhex(value)
    except ValueError:
        return False
    if algorithm is not None:
        return len(value) == 2 * digest_size(algorithm)
    return len(value) in {2 * size for size in DIGEST_SIZES.values()}


def extend_bytes(algorithm: str, current: bytes, new: bytes) -> bytes:
    """TPM PCR extend on raw digests: ``H(current || new)``.

    This is the single place where the extend rule is implemented; both
    the TPM PCR bank (through :func:`extend_digest`) and the
    verifier-side IMA log replay call it, so a mismatch between them can
    only come from the *inputs*, exactly as in the real system.
    """
    try:
        expected, hash_function = _EXTEND_HASHES[algorithm]
    except KeyError:
        raise ValueError(f"unsupported digest algorithm: {algorithm!r}") from None
    if len(current) != expected:
        raise ValueError(
            f"current value has {len(current)} bytes, expected {expected} for {algorithm}"
        )
    if len(new) != expected:
        raise ValueError(
            f"extend value has {len(new)} bytes, expected {expected} for {algorithm}"
        )
    return hash_function(current + new).digest()


def extend_digest(algorithm: str, current_hex: str, new_hex: str) -> str:
    """:func:`extend_bytes` on hex-encoded values (the PCR bank's form)."""
    return extend_bytes(
        algorithm, bytes.fromhex(current_hex), bytes.fromhex(new_hex)
    ).hex()
