"""CP-ABE backend interface and the development backend.

The backend contract is Setup/KeyGen/Encrypt/Decrypt with all randomness
supplied externally: ``encrypt`` is a pure function of (mpk, policy,
message, u), which the CCA re-encryption check depends on.

The shipped backend ("dev-keyed-hash", id 1) enforces policy semantics by
deriving per-leaf wrapping keys from the master secret via a keyed hash
and secret-sharing a root key along the AND/OR tree (AND = XOR shares,
OR = same share to every child). It is for DEVELOPMENT AND TESTING ONLY:
the public key embeds the wrap root, so any holder of the public
parameters can bypass the policy, and colluding users can pool leaf keys.
Numeric comparisons are evaluated natively against the key's recorded
values rather than via a cryptographic gadget. A pairing-based production
backend can be registered behind the same interface.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import containers
from .containers import AbeCiphertext, pack_container, parse_header, unpack_container
from .errors import (
    BackendMismatch,
    EmptyAttributeSet,
    EntropyFailure,
    MalformedCiphertext,
    MessageTooLong,
    MissingTimestamp,
    PolicyUnsatisfied,
    UnsupportedParameter,
)
from .hashing import prf, u32, u64, xor_bytes
from .policy import (
    AccessPolicy,
    AttributeSet,
    Cmp,
    Leaf,
    Node,
    Or,
    TIMESTAMP_ATTRIBUTE,
    compare_values,
    leaf_count,
    parse_policy,
)

Rng = Callable[[int], bytes]

SUPPORTED_SECURITY_BITS = (128, 256)
ENCAPSULATION_WIDTH = 64  # bytes; fits SK_sym || r
SHARE_BYTES = 32
SEED_BYTES = 32
KEY_ID_BYTES = 16


def draw_entropy(rng: Rng, n: int) -> bytes:
    """Pull n bytes from an injected entropy source, validating the result."""
    try:
        out = rng(n)
    except Exception as exc:
        raise EntropyFailure(f"entropy source raised: {exc}") from exc
    if not isinstance(out, (bytes, bytearray)):
        raise EntropyFailure(f"entropy source returned {type(out).__name__}, wanted {n} bytes")
    if len(out) != n:
        raise EntropyFailure(f"entropy source returned {len(out)} bytes, wanted {n}")
    return bytes(out)


# ---------------------------------------------------------------------------
# Key objects
# ---------------------------------------------------------------------------

def _unpack_master_key(data: bytes, kind: int) -> tuple[int, int, bytes]:
    """(backend_id, k_bits, material) of a master key container."""
    backend_id, (k_bits, material) = unpack_container(data, kind, 2)
    if len(k_bits) != 2:
        raise MalformedCiphertext("security parameter field has wrong width")
    return backend_id, int.from_bytes(k_bits, "big"), material


@dataclass(frozen=True)
class MasterPublicKey:
    backend_id: int
    k_bits: int
    material: bytes

    def to_bytes(self) -> bytes:
        return pack_container(containers.KIND_MPK, self.backend_id,
                              [struct.pack(">H", self.k_bits), self.material])

    @classmethod
    def from_bytes(cls, data: bytes) -> "MasterPublicKey":
        return cls(*_unpack_master_key(data, containers.KIND_MPK))


@dataclass(frozen=True)
class MasterSecretKey:
    backend_id: int
    k_bits: int
    material: bytes

    def to_bytes(self) -> bytes:
        return pack_container(containers.KIND_MSK, self.backend_id,
                              [struct.pack(">H", self.k_bits), self.material])

    @classmethod
    def from_bytes(cls, data: bytes) -> "MasterSecretKey":
        return cls(*_unpack_master_key(data, containers.KIND_MSK))


@dataclass(frozen=True)
class MasterKeyPair:
    mpk: MasterPublicKey
    msk: MasterSecretKey


@dataclass(frozen=True)
class UserSecretKey:
    backend_id: int
    key_id: bytes
    attrs: AttributeSet
    material: bytes

    def to_bytes(self) -> bytes:
        return pack_container(
            containers.KIND_USK, self.backend_id,
            [self.key_id, self.attrs.canonical_json().encode("utf-8"), self.material])

    @classmethod
    def from_bytes(cls, data: bytes) -> "UserSecretKey":
        backend_id, (key_id, attrs_json, material) = unpack_container(
            data, containers.KIND_USK, 3)
        try:
            attrs = AttributeSet.from_json(attrs_json.decode("utf-8"))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise MalformedCiphertext(f"unreadable key attributes: {exc}") from exc
        return cls(backend_id=backend_id, key_id=key_id, attrs=attrs, material=material)

    @cached_property
    def _leaf_keys(self) -> dict[str, bytes]:
        """The dev backend's name -> leaf-key map, parsed on first use.

        Not a dataclass field, so it stays out of repr, equality and
        to_bytes, and it lives exactly as long as this key object. A parse
        failure is not cached: every use of a malformed key raises again.
        Leaf access is decided from this map, so it must name ``attrs.names``.
        """
        keys = _unpack_leaf_keys(self.material)
        if keys.keys() != self.attrs.names:
            raise MalformedCiphertext("key material disagrees with key attributes")
        return keys


def _unpack_leaf_keys(material: bytes) -> dict[str, bytes]:
    """Parse dev-backend key material: (u32 length, name, 32-byte key)*."""
    keys: dict[str, bytes] = {}
    offset = 0
    while offset < len(material):
        if offset + 4 > len(material):
            raise MalformedCiphertext("truncated key material")
        (length,) = struct.unpack_from(">I", material, offset)
        offset += 4
        if offset + length + SHARE_BYTES > len(material):
            raise MalformedCiphertext("truncated key material")
        try:
            name = material[offset:offset + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedCiphertext(f"unreadable key material: {exc}") from exc
        offset += length
        keys[name] = material[offset:offset + SHARE_BYTES]
        offset += SHARE_BYTES
    return keys


# ---------------------------------------------------------------------------
# Backend interface
# ---------------------------------------------------------------------------

class AbeBackend(ABC):
    """One CP-ABE construction behind the common Setup/KeyGen/Encrypt/Decrypt
    surface. Implementations must make encrypt deterministic in u."""

    backend_id: int
    name: str

    @abstractmethod
    def setup(self, k_bits: int, rng: Rng) -> MasterKeyPair: ...

    @abstractmethod
    def keygen(self, msk: MasterSecretKey, attrs: AttributeSet,
               seed: bytes) -> UserSecretKey: ...

    @abstractmethod
    def encrypt(self, mpk: MasterPublicKey, policy: AccessPolicy,
                message: bytes, u: bytes) -> AbeCiphertext: ...

    @abstractmethod
    def decrypt(self, mpk: MasterPublicKey, sk: UserSecretKey,
                ct: AbeCiphertext) -> bytes: ...


_BACKENDS: dict[int, AbeBackend] = {}


def register_backend(backend: AbeBackend) -> None:
    _BACKENDS[backend.backend_id] = backend


def get_backend(backend_id: int) -> AbeBackend:
    try:
        return _BACKENDS[backend_id]
    except KeyError:
        raise BackendMismatch(f"no backend registered with id {backend_id}") from None


# ---------------------------------------------------------------------------
# Development backend
# ---------------------------------------------------------------------------

DEV_BACKEND_ID = 1


class DevKeyedHashBackend(AbeBackend):
    """Keyed-hash share-tree backend. Development and testing only."""

    backend_id = DEV_BACKEND_ID
    name = "dev-keyed-hash"

    # -- key derivation ----------------------------------------------------

    @staticmethod
    def _wrap_root(seed: bytes) -> bytes:
        return prf(seed, b"wrap-root")

    @staticmethod
    def _leaf_key(wrap_root: bytes, name: str) -> bytes:
        return prf(wrap_root, b"leaf", name.encode("utf-8"))

    @staticmethod
    def _cmp_key(wrap_root: bytes, node: Cmp) -> bytes:
        return prf(wrap_root, b"cmp", node.name.encode("utf-8"),
                   node.op.encode("ascii"), u64(node.value))

    def setup(self, k_bits: int, rng: Rng) -> MasterKeyPair:
        if k_bits not in SUPPORTED_SECURITY_BITS:
            raise UnsupportedParameter(
                f"security parameter must be one of {SUPPORTED_SECURITY_BITS}, got {k_bits}")
        seed = draw_entropy(rng, SEED_BYTES)
        mpk = MasterPublicKey(self.backend_id, k_bits, self._wrap_root(seed))
        msk = MasterSecretKey(self.backend_id, k_bits, seed)
        return MasterKeyPair(mpk=mpk, msk=msk)

    def keygen(self, msk: MasterSecretKey, attrs: AttributeSet,
               seed: bytes) -> UserSecretKey:
        if attrs.empty:
            raise EmptyAttributeSet("key generation needs at least one attribute")
        if TIMESTAMP_ATTRIBUTE not in attrs.numeric:
            raise MissingTimestamp(
                f"attribute set lacks {TIMESTAMP_ATTRIBUTE}; keys must carry their issuance time")
        if len(seed) != SEED_BYTES:
            raise EntropyFailure(f"keygen seed must be {SEED_BYTES} bytes")
        wrap_root = self._wrap_root(msk.material)
        attrs_blob = attrs.canonical_json().encode("utf-8")
        material = bytearray()
        for name in sorted(attrs.names):
            encoded = name.encode("utf-8")
            material += struct.pack(">I", len(encoded))
            material += encoded
            material += self._leaf_key(wrap_root, name)
        key_id = prf(seed, b"key-id", attrs_blob)[:KEY_ID_BYTES]
        return UserSecretKey(self.backend_id, key_id, attrs, bytes(material))

    # -- share tree ---------------------------------------------------------

    def _wrap_shares(self, node: Node, secret: bytes, depth: int, u: bytes,
                     wrap_root: bytes, salt: bytes, out: list[bytes]) -> None:
        leaf_start = len(out)  # shares are appended in leaf preorder
        if isinstance(node, (Leaf, Cmp)):
            key = (self._leaf_key(wrap_root, node.name) if isinstance(node, Leaf)
                   else self._cmp_key(wrap_root, node))
            out.append(xor_bytes(secret, prf(key, b"pad", salt, u32(leaf_start))))
            return
        if isinstance(node, Or):
            for child in node.children:
                self._wrap_shares(child, secret, depth + 1, u, wrap_root, salt, out)
            return
        # AND: n-1 pseudorandom shares, last one closes the XOR to the secret.
        acc = secret
        for index, child in enumerate(node.children):
            if index < len(node.children) - 1:
                share = prf(u, b"and-share", u32(leaf_start), u32(depth), u32(index))
                acc = xor_bytes(acc, share)
            else:
                share = acc
            self._wrap_shares(child, share, depth + 1, u, wrap_root, salt, out)

    def _recover_secret(self, node: Node, leaf_start: int, attrs: AttributeSet,
                        leaf_keys: dict[str, bytes], wrap_root: bytes, salt: bytes,
                        shares: list[bytes]) -> bytes | None:
        if isinstance(node, Leaf):
            key = leaf_keys.get(node.name)
            if key is None:
                return None
            pad = prf(key, b"pad", salt, u32(leaf_start))
            return xor_bytes(shares[leaf_start], pad)
        if isinstance(node, Cmp):
            value = attrs.numeric.get(node.name)
            if value is None or not compare_values(value, node.op, node.value):
                return None
            pad = prf(self._cmp_key(wrap_root, node), b"pad", salt, u32(leaf_start))
            return xor_bytes(shares[leaf_start], pad)
        if isinstance(node, Or):
            offset = leaf_start
            for child in node.children:
                recovered = self._recover_secret(child, offset, attrs, leaf_keys,
                                                 wrap_root, salt, shares)
                if recovered is not None:
                    return recovered
                offset += leaf_count(child)
            return None
        acc = bytes(SHARE_BYTES)
        offset = leaf_start
        for child in node.children:
            recovered = self._recover_secret(child, offset, attrs, leaf_keys,
                                             wrap_root, salt, shares)
            if recovered is None:
                return None
            acc = xor_bytes(acc, recovered)
            offset += leaf_count(child)
        return acc

    # -- encrypt / decrypt --------------------------------------------------

    def encrypt(self, mpk: MasterPublicKey, policy: AccessPolicy,
                message: bytes, u: bytes) -> AbeCiphertext:
        if len(message) > ENCAPSULATION_WIDTH:
            raise MessageTooLong(
                f"encapsulation width is {ENCAPSULATION_WIDTH} bytes, got {len(message)}")
        salt = prf(u, b"header-salt")[:16]
        nonce = prf(u, b"body-nonce")[:containers.GCM_NONCE_BYTES]
        header = pack_container(
            containers.KIND_HEADER, self.backend_id,
            [policy.canonical().encode("utf-8"), salt, nonce])
        root_secret = prf(u, b"share-root")
        wrapped: list[bytes] = []
        self._wrap_shares(policy.root, root_secret, 0, u, mpk.material, salt, wrapped)
        body_key = prf(root_secret, b"body-key")
        sealed = AESGCM(body_key).encrypt(nonce, message, header)
        body = struct.pack(">I", len(wrapped)) + b"".join(wrapped) + sealed
        return AbeCiphertext(header=header, body=body)

    def decrypt(self, mpk: MasterPublicKey, sk: UserSecretKey,
                ct: AbeCiphertext) -> bytes:
        backend_id, policy_text, salt, nonce = ct.header_fields
        if sk.backend_id != self.backend_id:
            raise BackendMismatch("key belongs to a different backend")
        if backend_id != self.backend_id:
            # Attacker-controllable bytes: treat as damage, not caller error.
            raise MalformedCiphertext("ciphertext claims a different backend")
        try:
            policy = parse_policy(policy_text)
        except Exception as exc:
            raise MalformedCiphertext(f"unparseable policy in header: {exc}") from exc
        n_leaves = policy.leaf_count()
        if len(ct.body) < 4:
            raise MalformedCiphertext("truncated body")
        (share_count,) = struct.unpack(">I", ct.body[:4])
        if share_count != n_leaves:
            raise MalformedCiphertext("share count does not match policy")
        shares_end = 4 + n_leaves * SHARE_BYTES
        if len(ct.body) < shares_end:
            raise MalformedCiphertext("truncated share block")
        shares = [ct.body[4 + i * SHARE_BYTES: 4 + (i + 1) * SHARE_BYTES]
                  for i in range(n_leaves)]
        sealed = ct.body[shares_end:]
        root_secret = self._recover_secret(policy.root, 0, sk.attrs, sk._leaf_keys,
                                           mpk.material, salt, shares)
        if root_secret is None:
            raise PolicyUnsatisfied()
        body_key = prf(root_secret, b"body-key")
        try:
            return AESGCM(body_key).decrypt(nonce, sealed, ct.header)
        except InvalidTag:
            raise MalformedCiphertext("ciphertext failed authentication") from None


register_backend(DevKeyedHashBackend())


# ---------------------------------------------------------------------------
# Module-level operations (dispatch on backend id)
# ---------------------------------------------------------------------------

def setup(k_bits: int, rng: Rng, backend_id: int = DEV_BACKEND_ID) -> MasterKeyPair:
    """Run system setup, returning a fresh master key pair."""
    return get_backend(backend_id).setup(k_bits, rng)


def keygen(msk: MasterSecretKey, attrs: AttributeSet, seed: bytes) -> UserSecretKey:
    """Issue a user key for the attribute set; deterministic given the seed."""
    return get_backend(msk.backend_id).keygen(msk, attrs, seed)


def abe_encrypt(mpk: MasterPublicKey, policy: AccessPolicy, message: bytes,
                u: bytes) -> AbeCiphertext:
    """Encrypt up to 64 bytes under the policy; pure function of its inputs."""
    return get_backend(mpk.backend_id).encrypt(mpk, policy, message, u)


def abe_decrypt(mpk: MasterPublicKey, sk: UserSecretKey, ct: AbeCiphertext) -> bytes:
    """Decrypt; raises PolicyUnsatisfied when the key cannot open the policy
    and MalformedCiphertext when the ciphertext is broken or tampered."""
    if sk.backend_id != mpk.backend_id:
        raise BackendMismatch("key and public parameters backends differ")
    return get_backend(mpk.backend_id).decrypt(mpk, sk, ct)


def extract_header(ct: AbeCiphertext) -> bytes:
    """The exact header bytes of the ciphertext (the AEAD associated data)."""
    parse_header(ct.header)  # validate well-formedness
    return ct.header


def extract_policy(header: bytes) -> AccessPolicy:
    """Parse the access policy out of header bytes."""
    _, policy_text, _, _ = parse_header(header)
    try:
        return parse_policy(policy_text)
    except Exception as exc:
        raise MalformedCiphertext(f"header carries unparseable policy: {exc}") from exc
