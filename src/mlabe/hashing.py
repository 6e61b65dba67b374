"""Hashing and deterministic key expansion primitives.

Every multi-part hash here length-prefixes its parts (8-byte big-endian
length before each part) so that concatenation is unambiguous: H(a, b)
can never collide with H(a + b).
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Callable


def length_prefixed(*parts: bytes) -> bytes:
    """Concatenate parts, each preceded by its 8-byte big-endian length."""
    out = bytearray()
    for part in parts:
        out += len(part).to_bytes(8, "big")
        out += part
    return bytes(out)


def fo_hash(*parts: bytes) -> bytes:
    """256-bit hash over the length-prefixed concatenation of the parts.

    This is the hash used wherever the protocol derives nonces from
    message material (randomness derivation for the CCA transform and
    for layer wrapping).
    """
    return hashlib.sha256(length_prefixed(*parts)).digest()


def prf(key: bytes, *parts: bytes) -> bytes:
    """Keyed 256-bit expansion of the length-prefixed parts."""
    return hmac.digest(key, length_prefixed(*parts), "sha256")


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
