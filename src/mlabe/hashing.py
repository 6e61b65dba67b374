"""Hashing and deterministic key expansion primitives.

Every multi-part hash here length-prefixes its parts (8-byte big-endian
length before each part) so that concatenation is unambiguous: H(a, b)
can never collide with H(a + b).

HMAC-SHA256 has one implementation, ``HmacKey`` (RFC 2104; ``prf`` uses
it too). It hashes the key's inner and outer padded blocks once, when
the key is prepared, and answers each message by copying those two
SHA-256 states: two block compressions saved per message, and none of
the per-call set-up of a one-shot ``hmac.digest``. On a 2-vCPU host with
OpenSSL 3.0.19 and Python 3.11.7, ``hmac.digest`` took 2.8 µs for a
40-byte message, a prepared key 1.1 µs, and preparing the key 1.0 µs.
So the layer code prepares every key it uses more than once (the layer
randomness ``u``, leaf keys) and keeps the prepared state. A prepared
state is never updated after it is built, so threads may share one.
``tests/test_hashing.py`` pins ``HmacKey`` to ``hmac.digest`` with a
property over keys of 0 to 200 bytes, across the 64-byte block.
"""

from __future__ import annotations

import hashlib
from typing import Callable

_INNER_PAD = bytes(b ^ 0x36 for b in range(256))
_OUTER_PAD = bytes(b ^ 0x5C for b in range(256))


def length_prefixed(*parts: bytes) -> bytes:
    """Concatenate parts, each preceded by its 8-byte big-endian length."""
    out = []
    for part in parts:
        out.append(len(part).to_bytes(8, "big"))
        out.append(part)
    return b"".join(out)


def fo_hash(*parts: bytes) -> bytes:
    """256-bit hash over the length-prefixed concatenation of the parts.

    This is the hash used wherever the protocol derives nonces from
    message material (randomness derivation for the CCA transform and
    for layer wrapping).
    """
    return hashlib.sha256(length_prefixed(*parts)).digest()


class HmacKey:
    """HMAC-SHA256 under one key; its default ``repr`` shows no key."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) > 64:  # the SHA-256 block size
            key = hashlib.sha256(key).digest()
        key = key.ljust(64, b"\0")
        self._inner = hashlib.sha256(key.translate(_INNER_PAD))
        self._outer = hashlib.sha256(key.translate(_OUTER_PAD))

    def digest(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def prf(key: bytes, *parts: bytes) -> bytes:
    """Keyed 256-bit expansion of the length-prefixed parts."""
    return HmacKey(key).digest(length_prefixed(*parts))


def u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def u64(value: int) -> bytes:
    return value.to_bytes(8, "big")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length strings, computed on integers."""
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def counter_rng(seed: str) -> Callable[[int], bytes]:
    """Deterministic entropy source: SHA-256 over ``seed:counter`` blocks.

    Each call consumes whole blocks and drops any unused tail. For tests,
    benchmarks and reproducible demos only, never for real keys.
    """
    counter = 0

    def rng(n: int) -> bytes:
        nonlocal counter
        out = bytearray()
        while len(out) < n:
            out += hashlib.sha256(f"{seed}:{counter}".encode()).digest()
            counter += 1
        return bytes(out[:n])

    return rng
