"""Tests for digest/hex helpers."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.hexutil import (
    digest_hex,
    digest_size,
    extend_bytes,
    extend_digest,
    is_hex_digest,
    sha1_hex,
    sha256_hex,
    zero_digest,
)


class TestDigests:
    def test_sha256_hex(self):
        assert sha256_hex(b"abc") == hashlib.sha256(b"abc").hexdigest()

    def test_sha1_hex(self):
        assert sha1_hex(b"abc") == hashlib.sha1(b"abc").hexdigest()

    def test_digest_hex_named(self):
        assert digest_hex("sha256", b"x") == sha256_hex(b"x")

    def test_digest_hex_rejects_unknown(self):
        with pytest.raises(ValueError):
            digest_hex("md5", b"x")

    def test_digest_size(self):
        assert digest_size("sha1") == 20
        assert digest_size("sha256") == 32

    def test_digest_size_rejects_unknown(self):
        with pytest.raises(ValueError):
            digest_size("crc32")

    def test_zero_digest_length(self):
        assert zero_digest("sha256") == "0" * 64
        assert zero_digest("sha1") == "0" * 40


class TestIsHexDigest:
    def test_valid_sha256(self):
        assert is_hex_digest("a" * 64, "sha256")

    def test_wrong_length_for_algorithm(self):
        assert not is_hex_digest("a" * 40, "sha256")

    def test_any_known_length_without_algorithm(self):
        assert is_hex_digest("b" * 40)
        assert is_hex_digest("b" * 64)
        assert not is_hex_digest("b" * 10)

    def test_non_hex_rejected(self):
        assert not is_hex_digest("z" * 64, "sha256")

    def test_empty_and_non_string(self):
        assert not is_hex_digest("")
        assert not is_hex_digest(None)  # type: ignore[arg-type]


class TestExtend:
    def test_matches_manual_computation(self):
        current = zero_digest("sha256")
        value = sha256_hex(b"entry")
        expected = hashlib.sha256(
            bytes.fromhex(current) + bytes.fromhex(value)
        ).hexdigest()
        assert extend_digest("sha256", current, value) == expected

    def test_extend_is_order_sensitive(self):
        zero = zero_digest("sha256")
        a = sha256_hex(b"a")
        b = sha256_hex(b"b")
        ab = extend_digest("sha256", extend_digest("sha256", zero, a), b)
        ba = extend_digest("sha256", extend_digest("sha256", zero, b), a)
        assert ab != ba

    def test_rejects_wrong_current_length(self):
        with pytest.raises(ValueError, match="current value has 1 bytes, expected 32"):
            extend_digest("sha256", "00", sha256_hex(b"x"))

    def test_rejects_wrong_value_length(self):
        with pytest.raises(ValueError, match="extend value has 1 bytes, expected 32"):
            extend_digest("sha256", zero_digest("sha256"), "00")

    def test_extend_bytes_rejects_wrong_lengths(self):
        with pytest.raises(ValueError, match="current value has 20 bytes, expected 32"):
            extend_bytes("sha256", bytes(20), bytes(32))
        with pytest.raises(ValueError, match="extend value has 32 bytes, expected 20"):
            extend_bytes("sha1", bytes(20), bytes(32))

    def test_extend_bytes_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unsupported digest algorithm: 'md5'"):
            extend_bytes("md5", bytes(16), bytes(16))

    @pytest.mark.parametrize("algorithm", ["sha1", "sha256"])
    def test_extend_digest_is_extend_bytes_in_hex(self, algorithm):
        size = digest_size(algorithm)

        @given(st.binary(min_size=size, max_size=size),
               st.binary(min_size=size, max_size=size))
        def check(current, new):
            assert extend_digest(algorithm, current.hex(), new.hex()) == extend_bytes(
                algorithm, current, new
            ).hex()
            assert extend_bytes(algorithm, current, new) == hashlib.new(
                algorithm, current + new
            ).digest()

        check()

    def test_sha1_extend(self):
        result = extend_digest("sha1", zero_digest("sha1"), sha1_hex(b"x"))
        assert len(result) == 40
