"""Removable policy layers above the base encapsulation.

Layer addition (also used for policy update) wraps the current ciphertext
C in a new ABE layer: u = H(C || AP_i), a 256-bit layer key is derived
from u and encapsulated under AP_i, and C is AEAD-encrypted under the
layer key. Peeling inverts one layer at a time, outermost first; removing
every layer yields the producer's base ciphertext byte-exactly. The base
layer can never be removed this way; only the full consumer-side
decryption opens it.

The payload is never touched: these operations see only the encapsulation
side of a hybrid ciphertext, so the symmetric key is never exposed to the
party maintaining layers.
"""

from __future__ import annotations

from functools import lru_cache

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import containers
from .abe import MasterPublicKey, UserSecretKey, abe_decrypt, abe_encrypt
from .containers import (
    AbeCiphertext,
    GCM_NONCE_BYTES,
    HybridCiphertext,
    LayeredAbeCiphertext,
    pack_container,
    unpack_container,
)
from .errors import (
    EmptyPolicyList,
    KeepExceedsLayers,
    MalformedCiphertext,
    MalformedLayer,
    PolicyUnsatisfied,
)
from .hashing import HmacKey, fo_hash, length_prefixed
from .hybrid import fo_decrypt
from .policy import AccessPolicy, Leaf, Or

LAYER_KEY_BYTES = 32
_LAYER_KEY = length_prefixed(b"layer-key")
_LAYER_NONCE = length_prefixed(b"layer-nonce")

# Attribute granting layer-maintenance capability. Stored layer policies in
# the exchange harness are augmented to (AP_i OR ENGINE_UPDATE) so the
# internal engine can peel stale layers during a policy update without the
# producer's involvement; the authority issues the engine a key carrying
# exactly this attribute. See README for the trust implications.
ENGINE_UPDATE_ATTRIBUTE = "ENGINE_UPDATE"


@lru_cache(maxsize=256)
def augment_for_engine(policy: AccessPolicy) -> AccessPolicy:
    """(policy OR engine-attribute): consumers still satisfy the original
    policy, and the layer-maintenance key can open the layer for updates.

    Memoized in a bounded LRU, as ``parse_policy`` is: policies are public
    and immutable, so every publish and re-layer pass under one layer
    list shares one augmented object and its canonical text.
    """
    return AccessPolicy(Or((policy.root, Leaf(ENGINE_UPDATE_ATTRIBUTE))))


def add_layers(mpk: MasterPublicKey, ct: LayeredAbeCiphertext,
               policies: list[AccessPolicy]) -> LayeredAbeCiphertext:
    """Wrap the ciphertext in one layer per policy, in order.

    Deterministic given its inputs: each layer's randomness is
    u = H(C || AP_i) so re-running an addition reproduces identical bytes.
    """
    if not policies:
        raise EmptyPolicyList("at least one policy required")
    body = ct.body
    texts = list(ct.layer_policies)
    for policy in policies:
        policy_text = policy.canonical()
        u = fo_hash(body, policy_text.encode("utf-8"))
        u_key = HmacKey(u)
        layer_key = u_key.digest(_LAYER_KEY)
        kem = abe_encrypt(mpk, policy, layer_key, u)
        nonce = u_key.digest(_LAYER_NONCE)[:GCM_NONCE_BYTES]
        sealed = AESGCM(layer_key).encrypt(nonce, body, kem.header)
        body = pack_container(containers.KIND_LAYER, mpk.backend_id,
                              [kem.to_bytes(), nonce, sealed])
        texts.append(policy_text)
    return LayeredAbeCiphertext(body=body, layer_policies=tuple(texts))


def _open_layer(body: bytes) -> tuple[AbeCiphertext, bytes, bytes]:
    """(kem, nonce, sealed) of one layer container; raises MalformedCiphertext."""
    _, (kem_bytes, nonce, sealed) = unpack_container(body, containers.KIND_LAYER, 3)
    kem = AbeCiphertext.from_bytes(kem_bytes)
    if len(nonce) != GCM_NONCE_BYTES:
        raise MalformedCiphertext("layer nonce has wrong width")
    return kem, nonce, sealed


def _peel_one(mpk: MasterPublicKey, sk: UserSecretKey, body: bytes,
              layer_index: int, expected_policy: str) -> bytes:
    try:
        kem, nonce, sealed = _open_layer(body)
        _, actual_policy, _, _ = kem.header_fields
        if actual_policy != expected_policy:
            raise MalformedCiphertext("layer policy disagrees with audit metadata")
    except MalformedCiphertext as exc:
        raise MalformedLayer(f"layer {layer_index}: {exc}") from exc
    try:
        layer_key = abe_decrypt(mpk, sk, kem)
    except PolicyUnsatisfied as exc:
        raise PolicyUnsatisfied(str(exc), layer_index=layer_index) from None
    except MalformedCiphertext as exc:
        raise MalformedLayer(f"layer {layer_index}: {exc}") from exc
    if len(layer_key) != LAYER_KEY_BYTES:
        raise MalformedLayer(f"layer {layer_index}: bad layer key width")
    try:
        return AESGCM(layer_key).decrypt(nonce, sealed, kem.header)
    except InvalidTag:
        raise MalformedLayer(f"layer {layer_index}: failed authentication") from None


def peel_layers(mpk: MasterPublicKey, sk: UserSecretKey,
                ct: LayeredAbeCiphertext, n: int) -> LayeredAbeCiphertext:
    """Remove exactly the n outermost layers. The key must satisfy each of
    the removed layers' policies; failures carry the failing layer index."""
    if n < 0 or n > ct.n_layers:
        raise ValueError(f"cannot peel {n} of {ct.n_layers} layers")
    if n == 0:
        return ct
    body = ct.body
    texts = list(ct.layer_policies)
    for _ in range(n):
        layer_index = len(texts) - 1
        expected_policy = texts.pop()
        body = _peel_one(mpk, sk, body, layer_index, expected_policy)
    return LayeredAbeCiphertext(body=body, layer_policies=tuple(texts))


def layered_decrypt(mpk: MasterPublicKey, sk: UserSecretKey,
                    ct: HybridCiphertext) -> bytes:
    """Full consumer decryption: peel every layer, then run the final
    verified decapsulation and open the payload. Raises DecryptError
    subclasses; all of them mean "no plaintext"."""
    peeled = peel_layers(mpk, sk, ct.ct_abe, ct.n_layers)
    base = peeled.base_ciphertext()
    return fo_decrypt(mpk, sk, base, ct.ct_aes)


def update_outer_layers(mpk: MasterPublicKey, engine_sk: UserSecretKey,
                        ct: LayeredAbeCiphertext, keep: int,
                        new_policies: list[AccessPolicy]) -> LayeredAbeCiphertext:
    """Replace the outer layers: peel down to `keep` kept layers, then add
    the new policies. The base encapsulation and therefore the payload key
    are untouched."""
    if keep < 0 or keep > ct.n_layers:
        raise KeepExceedsLayers(f"cannot keep {keep} of {ct.n_layers} layers")
    stripped = peel_layers(mpk, engine_sk, ct, ct.n_layers - keep)
    if not new_policies:
        return stripped
    return add_layers(mpk, stripped, new_policies)


def outer_policy_text(ct: LayeredAbeCiphertext) -> str | None:
    """Canonical policy of the outermost layer, read from its own header
    (None when no layers are present)."""
    if ct.n_layers == 0:
        return None
    try:
        kem, _, _ = _open_layer(ct.body)
        _, policy_text, _, _ = kem.header_fields
        return policy_text
    except MalformedCiphertext as exc:
        raise MalformedLayer(str(exc)) from exc
