"""Container codec: every object round-trips bit-exactly, and damaged
framing or wrong section layouts fail closed with MalformedCiphertext."""

from __future__ import annotations

import pytest

from support import make_rng

from mlabe.abe import MasterPublicKey, MasterSecretKey, UserSecretKey
from mlabe.containers import (
    KIND_LAYER,
    KIND_MPK,
    KIND_MSK,
    KIND_USK,
    AbeCiphertext,
    HybridCiphertext,
    LayeredAbeCiphertext,
    pack_container,
    unpack_container,
)
from mlabe.errors import MalformedCiphertext, MalformedLayer
from mlabe.hybrid import hybrid_encrypt
from mlabe.multilayer import add_layers, outer_policy_text
from mlabe.policy import parse_policy

from conftest import issue


@pytest.fixture(scope="module")
def samples(master_pair) -> dict:
    ct = hybrid_encrypt(master_pair.mpk, parse_policy("(A AND B)"), b"sweep payload",
                        make_rng("sweep"))
    layered = add_layers(master_pair.mpk, ct.ct_abe, [parse_policy("C")])
    return {
        HybridCiphertext: HybridCiphertext(ct_aes=ct.ct_aes, ct_abe=layered).to_bytes(),
        LayeredAbeCiphertext: layered.to_bytes(),
        AbeCiphertext: ct.ct_abe.body,
        UserSecretKey: issue(master_pair, {"A", "B"}).to_bytes(),
        MasterPublicKey: master_pair.mpk.to_bytes(),
    }


@pytest.mark.parametrize("cls", [HybridCiphertext, LayeredAbeCiphertext, AbeCiphertext,
                                 UserSecretKey, MasterPublicKey],
                         ids=lambda cls: cls.__name__)
def test_sweep_truncations_and_trailing_byte(samples, cls):
    data = samples[cls]
    assert cls.from_bytes(data).to_bytes() == data
    for cut in range(len(data)):
        with pytest.raises(MalformedCiphertext):
            cls.from_bytes(data[:cut])
    with pytest.raises(MalformedCiphertext):
        cls.from_bytes(data + b"\x00")


K_BITS = (256).to_bytes(2, "big")


@pytest.mark.parametrize("cls,kind,sections", [
    (UserSecretKey, KIND_USK, [b"k" * 16, b'{"names":[],"numeric":{}}']),
    (UserSecretKey, KIND_USK, [b"k" * 16, b'{"names":[],"numeric":{}}', b"m", b"x"]),
    (UserSecretKey, KIND_USK, [b"k" * 16, b"not json", b"m"]),
    (MasterSecretKey, KIND_MSK, []),
    (MasterSecretKey, KIND_MSK, [K_BITS]),
    (MasterPublicKey, KIND_MPK, [K_BITS, b"m", b"x"]),
    (MasterPublicKey, KIND_MPK, [b"\x01", b"m"]),
    (MasterSecretKey, KIND_MSK, [b"\x00\x01\x00", b"m"]),
], ids=["usk-2", "usk-4", "usk-attrs", "msk-0", "msk-1", "mpk-3",
        "mpk-kbits-1B", "msk-kbits-3B"])
def test_malformed_keys_fail_closed(cls, kind, sections):
    with pytest.raises(MalformedCiphertext):
        cls.from_bytes(pack_container(kind, 1, sections))


def test_outer_policy_of_empty_layer_fails_closed():
    ct = LayeredAbeCiphertext(body=pack_container(KIND_LAYER, 1, []),
                              layer_policies=("A",))
    with pytest.raises(MalformedLayer):
        outer_policy_text(ct)


def test_outer_policy_of_short_nonce_layer_fails_closed(master_pair):
    """The outer policy is read through the same layer reader as peeling,
    so a layer whose nonce is 11 bytes wide is malformed here too."""
    ct = hybrid_encrypt(master_pair.mpk, parse_policy("A"), b"payload", make_rng("nonce"))
    layered = add_layers(master_pair.mpk, ct.ct_abe, [parse_policy("C")])
    _, (kem, nonce, sealed) = unpack_container(layered.body, KIND_LAYER, 3)
    assert outer_policy_text(layered) == "C"
    short = LayeredAbeCiphertext(
        body=pack_container(KIND_LAYER, 1, [kem, nonce[:11], sealed]),
        layer_policies=layered.layer_policies)
    with pytest.raises(MalformedLayer):
        outer_policy_text(short)
