"""Hashing primitives, pinned to their straightforward reference definitions."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from mlabe.hashing import HmacKey, length_prefixed, prf, xor_bytes


def reference_xor(a: bytes, b: bytes) -> bytes:
    """The per-byte definition xor_bytes must keep matching."""
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    return bytes(x ^ y for x, y in zip(a, b))


def reference_prf(key: bytes, *parts: bytes) -> bytes:
    return hmac.new(key, length_prefixed(*parts), hashlib.sha256).digest()


@st.composite
def equal_length_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=96))
    return draw(st.binary(min_size=n, max_size=n)), draw(st.binary(min_size=n, max_size=n))


class TestXorBytes:
    @settings(max_examples=300, deadline=None)
    @given(equal_length_pairs())
    def test_matches_reference(self, pair):
        a, b = pair
        assert xor_bytes(a, b) == reference_xor(a, b)

    @settings(max_examples=100, deadline=None)
    @given(equal_length_pairs(), st.integers(min_value=1, max_value=8))
    def test_leading_zero_bytes_kept(self, pair, zeros):
        a, b = bytes(zeros) + pair[0], bytes(zeros) + pair[1]
        out = xor_bytes(a, b)
        assert len(out) == len(a)
        assert out[:zeros] == bytes(zeros)
        assert out == reference_xor(a, b)

    def test_empty(self):
        assert xor_bytes(b"", b"") == b""

    @given(st.binary(max_size=40), st.binary(max_size=40))
    def test_unequal_lengths_raise(self, a, b):
        if len(a) == len(b):
            b += b"\x00"
        with pytest.raises(ValueError):
            xor_bytes(a, b)


class TestPrf:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=80), st.lists(st.binary(max_size=48), max_size=5))
    def test_matches_reference(self, key, parts):
        out = prf(key, *parts)
        assert len(out) == 32
        assert out == reference_prf(key, *parts)


def sized_binary(max_size: int):
    """Bytes of a uniformly drawn length, so every length up to max_size,
    both sides of the 64-byte SHA-256 block, is as likely as the short ones."""
    return st.integers(min_value=0, max_value=max_size).flatmap(
        lambda n: st.binary(min_size=n, max_size=n))


class TestHmacKey:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sized_binary(200), sized_binary(300), sized_binary(300))
    def test_matches_hmac_digest(self, key, message, other):
        """One prepared key answers several messages, each equal to the
        one-shot HMAC: its states are copied, never updated."""
        prepared = HmacKey(key)
        for msg in (message, other, message):
            assert prepared.digest(msg) == hmac.digest(key, msg, "sha256")

    @pytest.mark.parametrize("size", [16, 63, 64, 65, 200])
    def test_repr_shows_no_key(self, size):
        key = bytes(range(1, size + 1))
        text = repr(HmacKey(key))
        assert key.hex() not in text and repr(key) not in text
        assert not hasattr(HmacKey(key), "__dict__")
