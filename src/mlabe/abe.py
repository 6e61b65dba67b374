"""The CP-ABE scheme: Setup/KeyGen/Encrypt/Decrypt and the key objects.

All randomness is supplied externally: ``abe_encrypt`` is a pure function
of (mpk, policy, message, u), which the CCA re-encryption check depends on.

The one backend ("dev-keyed-hash", id 1) enforces policy semantics by
deriving per-leaf wrapping keys from the master secret via a keyed hash
and secret-sharing a root key along the AND/OR tree (AND = XOR shares,
OR = same share to every child). It is for DEVELOPMENT AND TESTING ONLY:
the public key embeds the wrap root, so any holder of the public
parameters can bypass the policy, and colluding users can pool leaf keys.
Numeric comparisons are evaluated natively against the key's recorded
values rather than via a cryptographic gadget. It is the only scheme:
every key, header and layer container carries the id byte 1, and the
master keys the security parameter 256; the parsers refuse any other
value as malformed, so a second scheme would be a format change.

Each leaf key is derived once per public-key object: ``MasterPublicKey``
memoises the prepared HMAC state of every leaf and comparison key it
derives (``hashing.HmacKey``). The memo is computed from the public
parameters alone, holds at most ``LEAF_MEMO_SIZE`` entries (a full memo
is emptied before the next entry), and is not a dataclass field, so it
never reaches ``to_bytes``, equality or ``repr``. A user key's leaf map
holds prepared states the same way.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import containers
from .containers import DEV_BACKEND_ID  # noqa: F401  (re-exported)
from .containers import AbeCiphertext, pack_container, parse_header, unpack_container
from .errors import (
    EmptyAttributeSet,
    EntropyFailure,
    MalformedCiphertext,
    MessageTooLong,
    MissingTimestamp,
    PolicyUnsatisfied,
)
from .hashing import HmacKey, length_prefixed, prf, u32, u64, xor_bytes
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

SECURITY_BITS = 256  # the u16 first section of every master key
ENCAPSULATION_WIDTH = 64  # bytes; fits SK_sym || r
SHARE_BYTES = 32
SEED_BYTES = 32
KEY_ID_BYTES = 16
BACKEND_NAME = "dev-keyed-hash"
LEAF_MEMO_SIZE = 4096  # most leaf-key states one MasterPublicKey keeps

_SECURITY_SECTION = struct.pack(">H", SECURITY_BITS)

# PRF labels, length-prefixed once: each is the first part of prf(key, label, ...).
_HEADER_SALT, _BODY_NONCE, _SHARE_ROOT, _BODY_KEY, _PAD, _AND_SHARE = map(length_prefixed, (
    b"header-salt", b"body-nonce", b"share-root", b"body-key", b"pad", b"and-share"))


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

@dataclass(frozen=True)
class _MasterKey:
    """A master key container: the security parameter, then the key
    material. The subclasses differ only in container kind; a public key
    never equals a secret key, even with equal material."""

    KIND: ClassVar[int]
    material: bytes

    def to_bytes(self) -> bytes:
        return pack_container(self.KIND, [_SECURITY_SECTION, self.material])

    @classmethod
    def from_bytes(cls, data: bytes) -> _MasterKey:
        bits, material = unpack_container(data, cls.KIND, 2)
        if bits != _SECURITY_SECTION:
            raise MalformedCiphertext(f"security parameter must be {SECURITY_BITS} bits")
        return cls(material)


class MasterPublicKey(_MasterKey):
    KIND = containers.KIND_MPK

    @cached_property
    def _leaf_states(self) -> dict[Leaf | Cmp, HmacKey]:
        return {}  # the memo of the module docstring; not a dataclass field

    def _leaf_state(self, node: Leaf | Cmp) -> HmacKey:
        memo = self._leaf_states
        state = memo.get(node)
        if state is None:
            if len(memo) >= LEAF_MEMO_SIZE:
                memo.clear()
            state = memo[node] = HmacKey(
                _leaf_key(self.material, node.name) if isinstance(node, Leaf)
                else _cmp_key(self.material, node))
        return state


class MasterSecretKey(_MasterKey):
    KIND = containers.KIND_MSK


@dataclass(frozen=True)
class MasterKeyPair:
    mpk: MasterPublicKey
    msk: MasterSecretKey


@dataclass(frozen=True)
class UserSecretKey:
    key_id: bytes
    attrs: AttributeSet
    material: bytes

    def to_bytes(self) -> bytes:
        return pack_container(
            containers.KIND_USK,
            [self.key_id, self.attrs.canonical_json().encode("utf-8"), self.material])

    @classmethod
    def from_bytes(cls, data: bytes) -> "UserSecretKey":
        key_id, attrs_json, material = unpack_container(data, containers.KIND_USK, 3)
        try:
            attrs = AttributeSet.from_json(attrs_json.decode("utf-8"))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise MalformedCiphertext(f"unreadable key attributes: {exc}") from exc
        return cls(key_id=key_id, attrs=attrs, material=material)

    @cached_property
    def _leaf_keys(self) -> dict[str, HmacKey]:
        """The dev backend's name -> prepared leaf-key map, parsed on first use.

        Not a dataclass field, so it stays out of repr, equality and
        to_bytes, and it lives exactly as long as this key object. A parse
        failure is not cached: every use of a malformed key raises again.
        Leaf access is decided from this map, so it must name ``attrs.names``.
        """
        keys = _unpack_leaf_keys(self.material)
        if keys.keys() != self.attrs.names:
            raise MalformedCiphertext("key material disagrees with key attributes")
        return {name: HmacKey(key) for name, key in keys.items()}


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
# Development backend: key derivation and the share tree
# ---------------------------------------------------------------------------

def _wrap_root(seed: bytes) -> bytes:
    return prf(seed, b"wrap-root")


def _leaf_key(wrap_root: bytes, name: str) -> bytes:
    return prf(wrap_root, b"leaf", name.encode("utf-8"))


def _cmp_key(wrap_root: bytes, node: Cmp) -> bytes:
    return prf(wrap_root, b"cmp", node.name.encode("utf-8"),
               node.op.encode("ascii"), u64(node.value))


def _wrap_shares(node: Node, secret: bytes, depth: int, u: HmacKey,
                 mpk: MasterPublicKey, pad: bytes, out: list[bytes]) -> None:
    # `pad` is length_prefixed(b"pad", salt); a leaf's mask appends its index.
    leaf_start = len(out)  # shares are appended in leaf preorder
    if isinstance(node, (Leaf, Cmp)):
        mask = mpk._leaf_state(node).digest(pad + length_prefixed(u32(leaf_start)))
        out.append(xor_bytes(secret, mask))
        return
    if isinstance(node, Or):
        for child in node.children:
            _wrap_shares(child, secret, depth + 1, u, mpk, pad, out)
        return
    # AND: n-1 pseudorandom shares, last one closes the XOR to the secret.
    acc = secret
    for index, child in enumerate(node.children):
        if index < len(node.children) - 1:
            share = u.digest(_AND_SHARE + length_prefixed(u32(leaf_start), u32(depth), u32(index)))
            acc = xor_bytes(acc, share)
        else:
            share = acc
        _wrap_shares(child, share, depth + 1, u, mpk, pad, out)


def _recover_secret(node: Node, leaf_start: int, attrs: AttributeSet,
                    leaf_keys: dict[str, HmacKey], mpk: MasterPublicKey,
                    pad: bytes, shares: list[bytes]) -> bytes | None:
    if isinstance(node, Leaf):
        key = leaf_keys.get(node.name)
        if key is None:
            return None
        mask = key.digest(pad + length_prefixed(u32(leaf_start)))
        return xor_bytes(shares[leaf_start], mask)
    if isinstance(node, Cmp):
        value = attrs.numeric.get(node.name)
        if value is None or not compare_values(value, node.op, node.value):
            return None
        mask = mpk._leaf_state(node).digest(pad + length_prefixed(u32(leaf_start)))
        return xor_bytes(shares[leaf_start], mask)
    if isinstance(node, Or):
        offset = leaf_start
        for child in node.children:
            recovered = _recover_secret(child, offset, attrs, leaf_keys,
                                        mpk, pad, shares)
            if recovered is not None:
                return recovered
            offset += leaf_count(child)
        return None
    acc = bytes(SHARE_BYTES)
    offset = leaf_start
    for child in node.children:
        recovered = _recover_secret(child, offset, attrs, leaf_keys,
                                    mpk, pad, shares)
        if recovered is None:
            return None
        acc = xor_bytes(acc, recovered)
        offset += leaf_count(child)
    return acc


# ---------------------------------------------------------------------------
# Setup / KeyGen / Encrypt / Decrypt
# ---------------------------------------------------------------------------

def setup(rng: Rng) -> MasterKeyPair:
    """Run system setup, returning a fresh master key pair."""
    msk = MasterSecretKey(draw_entropy(rng, SEED_BYTES))
    return MasterKeyPair(mpk=public_key(msk), msk=msk)


def public_key(msk: MasterSecretKey) -> MasterPublicKey:
    """The public parameters of a master secret key; a pure function of it."""
    return MasterPublicKey(_wrap_root(msk.material))


def keygen(msk: MasterSecretKey, attrs: AttributeSet, seed: bytes) -> UserSecretKey:
    """Issue a user key for the attribute set; deterministic given the seed."""
    if attrs.empty:
        raise EmptyAttributeSet("key generation needs at least one attribute")
    if TIMESTAMP_ATTRIBUTE not in attrs.numeric:
        raise MissingTimestamp(
            f"attribute set lacks {TIMESTAMP_ATTRIBUTE}; keys must carry their issuance time")
    if len(seed) != SEED_BYTES:
        raise EntropyFailure(f"keygen seed must be {SEED_BYTES} bytes")
    wrap_root = _wrap_root(msk.material)
    attrs_blob = attrs.canonical_json().encode("utf-8")
    material = bytearray()
    for name in sorted(attrs.names):
        encoded = name.encode("utf-8")
        material += struct.pack(">I", len(encoded))
        material += encoded
        material += _leaf_key(wrap_root, name)
    key_id = prf(seed, b"key-id", attrs_blob)[:KEY_ID_BYTES]
    return UserSecretKey(key_id, attrs, bytes(material))


def abe_encrypt(mpk: MasterPublicKey, policy: AccessPolicy, message: bytes,
                u: bytes) -> AbeCiphertext:
    """Encrypt up to 64 bytes under the policy; pure function of its inputs."""
    if len(message) > ENCAPSULATION_WIDTH:
        raise MessageTooLong(
            f"encapsulation width is {ENCAPSULATION_WIDTH} bytes, got {len(message)}")
    u_key = HmacKey(u)
    salt = u_key.digest(_HEADER_SALT)[:16]
    nonce = u_key.digest(_BODY_NONCE)[:containers.GCM_NONCE_BYTES]
    header = pack_container(
        containers.KIND_HEADER, [policy.canonical().encode("utf-8"), salt, nonce])
    root_secret = u_key.digest(_SHARE_ROOT)
    wrapped: list[bytes] = []
    _wrap_shares(policy.root, root_secret, 0, u_key, mpk, _PAD + length_prefixed(salt), wrapped)
    body_key = HmacKey(root_secret).digest(_BODY_KEY)
    sealed = AESGCM(body_key).encrypt(nonce, message, header)
    body = struct.pack(">I", len(wrapped)) + b"".join(wrapped) + sealed
    return AbeCiphertext(header=header, body=body)


def abe_decrypt(mpk: MasterPublicKey, sk: UserSecretKey, ct: AbeCiphertext) -> bytes:
    """Decrypt; raises PolicyUnsatisfied when the key cannot open the policy
    and MalformedCiphertext when the ciphertext is broken or tampered."""
    policy_text, salt, nonce = ct.header_fields
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
    root_secret = _recover_secret(policy.root, 0, sk.attrs, sk._leaf_keys,
                                  mpk, _PAD + length_prefixed(salt), shares)
    if root_secret is None:
        raise PolicyUnsatisfied()
    body_key = HmacKey(root_secret).digest(_BODY_KEY)
    try:
        return AESGCM(body_key).decrypt(nonce, sealed, ct.header)
    except InvalidTag:
        raise MalformedCiphertext("ciphertext failed authentication") from None


def extract_header(ct: AbeCiphertext) -> bytes:
    """The exact header bytes of the ciphertext (the AEAD associated data)."""
    parse_header(ct.header)  # validate well-formedness
    return ct.header


def extract_policy(header: bytes) -> AccessPolicy:
    """Parse the access policy out of header bytes."""
    policy_text, _, _ = parse_header(header)
    try:
        return parse_policy(policy_text)
    except Exception as exc:
        raise MalformedCiphertext(f"header carries unparseable policy: {exc}") from exc
