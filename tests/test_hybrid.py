"""Hybrid pipeline: verified encapsulation + AEAD payload binding."""

from __future__ import annotations

import random

import pytest

from support import ALPHABET, make_rng, oracle_eval, random_policy

from mlabe.abe import abe_decrypt, abe_encrypt, draw_entropy
from mlabe.containers import AesGcmRecord, HybridCiphertext
from mlabe.errors import (
    AeadTagFailure,
    DecryptError,
    EmptyPlaintext,
    EntropyFailure,
    FoCheckFailed,
    PolicyUnsatisfied,
)
from mlabe.hybrid import encapsulation_randomness, fo_decrypt, hybrid_encrypt
from mlabe.policy import parse_policy, satisfies

from conftest import issue


def _encrypt(master_pair, policy_text="(A AND B)", plaintext=b"payload " * 100,
             seed="he"):
    policy = parse_policy(policy_text)
    return hybrid_encrypt(master_pair.mpk, policy, plaintext, make_rng(seed))


class TestEncrypt:
    def test_payload_and_encapsulation_widths(self, master_pair):
        plaintext = make_rng("pt")(163_840)
        ct = _encrypt(master_pair, plaintext=plaintext)
        assert len(ct.ct_aes.body) == 163_840
        assert len(ct.ct_aes.tag) == 16
        key = issue(master_pair, {"A", "B"})
        material = abe_decrypt(master_pair.mpk, key,
                               ct.ct_abe.base_ciphertext())
        assert len(material) == 64  # SK_sym || r

    def test_fresh_randomness_per_message(self, master_pair):
        policy = parse_policy("(A AND B)")
        rng = make_rng("fresh")
        one = hybrid_encrypt(master_pair.mpk, policy, b"same", rng)
        two = hybrid_encrypt(master_pair.mpk, policy, b"same", rng)
        assert one.ct_aes.body != two.ct_aes.body
        assert one.ct_aes.nonce != two.ct_aes.nonce
        assert one.ct_abe.body != two.ct_abe.body

    def test_empty_plaintext(self, master_pair):
        with pytest.raises(EmptyPlaintext):
            hybrid_encrypt(master_pair.mpk, parse_policy("A"), b"", make_rng("x"))

    @pytest.mark.parametrize("drawn", [b"short", None, 5, "xxxx"],
                             ids=["short-bytes", "none", "int", "str"])
    def test_entropy_failure(self, master_pair, drawn):
        """Anything but bytes of the asked length is an EntropyFailure,
        never a raw TypeError."""
        with pytest.raises(EntropyFailure):
            hybrid_encrypt(master_pair.mpk, parse_policy("A"), b"m",
                           lambda n: drawn)

    def test_entropy_failure_names_non_bytes_type(self):
        with pytest.raises(EntropyFailure, match="returned str"):
            draw_entropy(lambda n: "xxxx", 4)

    def test_nonce_is_leading_bits_of_r(self, master_pair):
        ct = _encrypt(master_pair)
        key = issue(master_pair, {"A", "B"})
        material = abe_decrypt(master_pair.mpk, key, ct.ct_abe.base_ciphertext())
        r = material[32:]
        assert ct.ct_aes.nonce == r[:12]


class TestFoDecrypt:
    def test_roundtrip(self, master_pair):
        plaintext = b"end to end " * 50
        ct = _encrypt(master_pair, plaintext=plaintext)
        key = issue(master_pair, {"A", "B"})
        assert fo_decrypt(master_pair.mpk, key, ct.ct_abe.base_ciphertext(),
                          ct.ct_aes) == plaintext

    def test_reencryption_reproduces_ciphertext(self, master_pair):
        """The randomness-derivation oracle: recompute u from decapsulated
        material and re-encrypt; the bytes must match exactly."""
        ct = _encrypt(master_pair)
        base = ct.ct_abe.base_ciphertext()
        key = issue(master_pair, {"A", "B"})
        material = abe_decrypt(master_pair.mpk, key, base)
        sym_key, r = material[:32], material[32:]
        u = encapsulation_randomness(r, sym_key, "(A AND B)")
        again = abe_encrypt(master_pair.mpk, parse_policy("(A AND B)"), material, u)
        assert again.to_bytes() == base.to_bytes()

    def test_unsatisfied_policy(self, master_pair):
        ct = _encrypt(master_pair)
        key = issue(master_pair, {"A"})
        with pytest.raises(PolicyUnsatisfied):
            fo_decrypt(master_pair.mpk, key, ct.ct_abe.base_ciphertext(), ct.ct_aes)

    def test_tampered_encapsulation_body(self, master_pair):
        ct = _encrypt(master_pair)
        base = ct.ct_abe.base_ciphertext()
        key = issue(master_pair, {"A", "B"})
        mutated = bytearray(base.body)
        mutated[len(mutated) // 2] ^= 0x10
        from mlabe.containers import AbeCiphertext
        broken = AbeCiphertext(header=base.header, body=bytes(mutated))
        with pytest.raises((FoCheckFailed, PolicyUnsatisfied)):
            fo_decrypt(master_pair.mpk, key, broken, ct.ct_aes)

    def test_tampered_payload_body(self, master_pair):
        ct = _encrypt(master_pair)
        key = issue(master_pair, {"A", "B"})
        mutated = bytearray(ct.ct_aes.body)
        mutated[3] ^= 0x01
        record = AesGcmRecord(nonce=ct.ct_aes.nonce, body=bytes(mutated),
                              tag=ct.ct_aes.tag)
        with pytest.raises(AeadTagFailure):
            fo_decrypt(master_pair.mpk, key, ct.ct_abe.base_ciphertext(), record)

    def test_tampered_tag(self, master_pair):
        ct = _encrypt(master_pair)
        key = issue(master_pair, {"A", "B"})
        tag = bytearray(ct.ct_aes.tag)
        tag[0] ^= 0x80
        record = AesGcmRecord(nonce=ct.ct_aes.nonce, body=ct.ct_aes.body,
                              tag=bytes(tag))
        with pytest.raises(AeadTagFailure):
            fo_decrypt(master_pair.mpk, key, ct.ct_abe.base_ciphertext(), record)

    def test_kem_dem_binding(self, master_pair):
        """Swapping in another message's encapsulation (same policy) must
        fail the payload AEAD: the associated data no longer matches."""
        a = _encrypt(master_pair, plaintext=b"message A " * 30, seed="msga")
        b = _encrypt(master_pair, plaintext=b"message B " * 30, seed="msgb")
        key = issue(master_pair, {"A", "B"})
        with pytest.raises(AeadTagFailure):
            fo_decrypt(master_pair.mpk, key, b.ct_abe.base_ciphertext(), a.ct_aes)

    def test_thousand_random_triples(self, master_pair):
        """plaintext iff satisfies, over 1000 random (policy, attrs,
        plaintext) triples."""
        rnd = random.Random(0xF0)
        keys = {}
        for index in range(1000):
            policy = random_policy(rnd, max_leaves=5, max_depth=3)
            subset = frozenset(name for name in ALPHABET if rnd.random() < 0.5)
            if subset not in keys:
                keys[subset] = issue(master_pair, subset, seed=f"triple-{sorted(subset)}")
            key = keys[subset]
            plaintext = bytes([rnd.randrange(1, 256)]) * rnd.randint(1, 64)
            ct = hybrid_encrypt(master_pair.mpk, policy, plaintext,
                                make_rng(f"triple-{index}"))
            expected = oracle_eval(policy.root, set(subset), {})
            assert expected == satisfies(key.attrs, policy)
            base = ct.ct_abe.base_ciphertext()
            if expected:
                assert fo_decrypt(master_pair.mpk, key, base, ct.ct_aes) == plaintext
            else:
                with pytest.raises(DecryptError):
                    fo_decrypt(master_pair.mpk, key, base, ct.ct_aes)


class TestContainer:
    def test_hybrid_container_roundtrip(self, master_pair):
        ct = _encrypt(master_pair)
        again = HybridCiphertext.from_bytes(ct.to_bytes())
        assert again == ct
        assert again.to_bytes() == ct.to_bytes()

    def test_layer_count_field_validated(self, master_pair):
        ct = _encrypt(master_pair)
        blob = bytearray(ct.to_bytes())
        blob[8] ^= 0x01  # low byte of the n_layers field
        from mlabe.errors import MalformedCiphertext
        with pytest.raises(MalformedCiphertext):
            HybridCiphertext.from_bytes(bytes(blob))
