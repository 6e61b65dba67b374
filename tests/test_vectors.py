"""Known-answer vectors: the exact bytes of keys and ciphertexts.

Criteria 2 and 10 check self-consistency (peel after add, re-encryption
equality), so an edit that changes encryption and re-encryption alike
passes both. These digests pin the bytes themselves. Every input comes
from a fixed ``counter_rng`` seed. The constants were generated from the
code before the single-parse / single-walk refactor of the layered path
and must not change under refactoring; a deliberate format change must
update FORMATS.md and these constants together. The MSK digest pins the
bytes a deployment seals in ``master.enc``: if they changed, no existing
deployment could load its master key.
"""

from __future__ import annotations

import hashlib

import pytest

from support import make_rng

from mlabe.abe import keygen, public_key, setup
from mlabe.containers import HybridCiphertext
from mlabe.hybrid import hybrid_encrypt
from mlabe.multilayer import add_layers, layered_decrypt
from mlabe.policy import AccessPolicy, AttributeSet, Cmp, TIMESTAMP_ATTRIBUTE, parse_policy

BASE_POLICY = "(A AND (B OR C)) OR (D AND T_SK >= 500)"
LAYER_POLICIES = ("E", "(F OR G) AND H")
PLAINTEXT = b"known-answer payload " * 7

EXPECTED = {
    "mpk": "37f0f765043efa32c0e6a10a478ba64e5f272e9314d148213f51b08202c4dd4d",
    "msk": "8d47d7d031699c78b9adbcce5e97a32381abf2f5e4976c283a0abb9a1a5f1881",
    "usk": "f54d20f19b4c8ac62e0add854bbe36ef7d425681d93a3bad41d98177e92f5cfe",
    "ct1": "50d2dd52911e42096e5d0b755562d71af6fa6847b320af0930583f519728dfaf",
    "ct3": "076b096566542ed9686a02bfddbf1cf1335236e833890fd98e1c218162b21995",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def vectors():
    pair = setup(make_rng("kat-master"))
    attrs = AttributeSet({"D", "E", "G", "H"}, {TIMESTAMP_ATTRIBUTE: 900})
    usk = keygen(pair.msk, attrs, make_rng("kat-key")(32))
    ct1 = hybrid_encrypt(pair.mpk, parse_policy(BASE_POLICY), PLAINTEXT,
                         make_rng("kat-ct"))
    layers = [parse_policy(text) for text in LAYER_POLICIES]
    layers.append(AccessPolicy(Cmp(TIMESTAMP_ATTRIBUTE, ">", 700)))  # time gate
    layered = add_layers(pair.mpk, ct1.ct_abe, layers)
    ct3 = HybridCiphertext(ct_aes=ct1.ct_aes, ct_abe=layered)
    return {"pair": pair, "usk": usk, "ct1": ct1, "ct3": ct3}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_digest(vectors, name):
    obj = getattr(vectors["pair"], name) if name in ("mpk", "msk") else vectors[name]
    assert _sha256(obj.to_bytes()) == EXPECTED[name]


def test_vector_decrypts(vectors):
    """The pinned ciphertext is also a working one for the pinned key."""
    assert vectors["ct3"].n_layers == 3
    assert layered_decrypt(vectors["pair"].mpk, vectors["usk"],
                           vectors["ct3"]) == PLAINTEXT


def test_public_key_derived_from_the_secret_key(vectors):
    """The authority reads back only the sealed secret key and derives the
    public key from it; the derivation yields the pinned public key."""
    assert _sha256(public_key(vectors["pair"].msk).to_bytes()) == EXPECTED["mpk"]
