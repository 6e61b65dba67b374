"""Hybrid encryption: AES-256-GCM payload bound to an ABE encapsulation.

The encapsulation randomness is derived as u = H(r || SK_sym || AP), so
re-encrypting the decapsulated material must reproduce the encapsulation
byte-exactly; the consumer performs that equality check before trusting
SK_sym. The payload AEAD uses the encapsulation header as associated
data, binding payload and key transport together.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .abe import MasterPublicKey, Rng, UserSecretKey, abe_decrypt, abe_encrypt, draw_entropy
from .containers import (
    AbeCiphertext,
    AesGcmRecord,
    GCM_NONCE_BYTES,
    GCM_TAG_BYTES,
    HybridCiphertext,
    LayeredAbeCiphertext,
)
from .errors import AeadTagFailure, EmptyPlaintext, FoCheckFailed, MalformedCiphertext
from .hashing import fo_hash
from .policy import AccessPolicy, parse_policy

SYM_KEY_BYTES = 32
R_BYTES = 32


def encapsulation_randomness(r: bytes, sym_key: bytes, policy_text: str) -> bytes:
    """u = H(r || SK_sym || AP), over canonical policy text."""
    return fo_hash(r, sym_key, policy_text.encode("utf-8"))


def hybrid_encrypt(mpk: MasterPublicKey, ap1: AccessPolicy, plaintext: bytes,
                   rng: Rng) -> HybridCiphertext:
    """Producer-side encryption: fresh key and nonce per message.

    Steps: draw SK_sym and r; derive u = H(r || SK_sym || AP); encapsulate
    SK_sym || r under the base policy with randomness u; AEAD-encrypt the
    payload under SK_sym with the encapsulation header as associated data
    and the leading 96 bits of r as nonce.
    """
    if not plaintext:
        raise EmptyPlaintext("refusing to encrypt an empty payload")
    sym_key = draw_entropy(rng, SYM_KEY_BYTES)
    r = draw_entropy(rng, R_BYTES)
    policy_text = ap1.canonical()
    u = encapsulation_randomness(r, sym_key, policy_text)
    base = abe_encrypt(mpk, ap1, sym_key + r, u)
    nonce = r[:GCM_NONCE_BYTES]
    sealed = AESGCM(sym_key).encrypt(nonce, plaintext, base.header)
    record = AesGcmRecord(nonce=nonce, body=sealed[:-GCM_TAG_BYTES],
                          tag=sealed[-GCM_TAG_BYTES:])
    return HybridCiphertext(ct_aes=record,
                            ct_abe=LayeredAbeCiphertext(body=base.to_bytes()))


def fo_decrypt(mpk: MasterPublicKey, sk: UserSecretKey, base_ct: AbeCiphertext,
               ct_aes: AesGcmRecord) -> bytes:
    """Consumer-side final decryption of a fully peeled ciphertext.

    Decapsulates SK_sym || r, re-derives u from the recovered material and
    the header's policy, re-encrypts, and requires byte equality with the
    received encapsulation before opening the payload. Raises
    PolicyUnsatisfied / FoCheckFailed / AeadTagFailure; callers that only
    need an opaque bottom can catch DecryptError.
    """
    try:
        material = abe_decrypt(mpk, sk, base_ct)
    except MalformedCiphertext as exc:
        # The encapsulation cannot be validated; surface it as the CCA
        # check rejecting the ciphertext.
        raise FoCheckFailed(f"encapsulation rejected: {exc}") from exc
    if len(material) != SYM_KEY_BYTES + R_BYTES:
        raise FoCheckFailed("decapsulated material has wrong width")
    sym_key, r = material[:SYM_KEY_BYTES], material[SYM_KEY_BYTES:]
    _, policy_text, _, _ = base_ct.header_fields
    u = encapsulation_randomness(r, sym_key, policy_text)
    reencrypted = abe_encrypt(mpk, parse_policy(policy_text), material, u)
    if reencrypted.header != base_ct.header or reencrypted.body != base_ct.body:
        raise FoCheckFailed("re-encryption does not match received ciphertext")
    if ct_aes.nonce != r[:GCM_NONCE_BYTES]:
        raise AeadTagFailure("payload nonce does not match encapsulated r")
    try:
        return AESGCM(sym_key).decrypt(ct_aes.nonce, ct_aes.body + ct_aes.tag, base_ct.header)
    except InvalidTag:
        raise AeadTagFailure("payload failed authentication") from None
