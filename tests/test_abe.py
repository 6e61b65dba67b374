"""Backend contract: setup/keygen/encrypt/decrypt, determinism, tampering."""

from __future__ import annotations

import random
from dataclasses import astuple

import pytest

from support import ALPHABET, all_subsets, enumerate_policies, make_rng

from mlabe.abe import (
    ENCAPSULATION_WIDTH,
    MasterPublicKey,
    MasterSecretKey,
    UserSecretKey,
    abe_decrypt,
    abe_encrypt,
    extract_header,
    extract_policy,
    keygen,
    setup,
)
from mlabe.containers import (
    KIND_LAYER,
    KIND_MPK,
    KIND_MSK,
    AbeCiphertext,
    LayeredAbeCiphertext,
    pack_container,
    parse_header,
    unpack_container,
)
from mlabe.errors import (
    EmptyAttributeSet,
    MalformedCiphertext,
    MessageTooLong,
    MissingTimestamp,
    PolicyUnsatisfied,
)
from mlabe.multilayer import add_layers
from mlabe.policy import AttributeSet, parse_policy, satisfies

from conftest import issue

U = make_rng("fixed-u")(32)


class TestSetup:
    def test_parameter_echo(self, rng):
        """Both master keys record the one security parameter, 256 bits."""
        pair = setup(rng)
        assert unpack_container(pair.mpk.to_bytes(), KIND_MPK, 2)[0] == b"\x01\x00"
        assert unpack_container(pair.msk.to_bytes(), KIND_MSK, 2)[0] == b"\x01\x00"

    @pytest.mark.parametrize("k", [0, 64, 128, 192, 512])
    def test_unsupported_parameter(self, rng, k):
        """A master key whose security-bits section is not 256 is refused
        when parsed."""
        pair = setup(rng)
        for cls, key in ((MasterPublicKey, pair.mpk), (MasterSecretKey, pair.msk)):
            with pytest.raises(MalformedCiphertext):
                cls.from_bytes(pack_container(cls.KIND, [k.to_bytes(2, "big"), key.material]))

    def test_setups_differ(self):
        a = setup(make_rng("one")).mpk.to_bytes()
        b = setup(make_rng("two")).mpk.to_bytes()
        assert a != b

    def test_msk_serialization_roundtrip_gives_identical_keys(self, rng):
        pair = setup(rng)
        reloaded = MasterSecretKey.from_bytes(pair.msk.to_bytes())
        assert reloaded == pair.msk
        assert MasterPublicKey(*astuple(reloaded)) != reloaded  # kinds stay distinct
        attrs = AttributeSet({"A"}, {"T_SK": 5})
        seed = make_rng("same-seed")(32)
        assert keygen(pair.msk, attrs, seed).to_bytes() == \
            keygen(reloaded, attrs, seed).to_bytes()


class TestKeygen:
    def test_role_attribute_key_decrypts(self, master_pair):
        key = issue(master_pair, {"Mechanic", "Staff", "Boss"})
        policy = parse_policy("(Mechanic AND Staff)")
        ct = abe_encrypt(master_pair.mpk, policy, b"x" * 64, U)
        assert abe_decrypt(master_pair.mpk, key, ct) == b"x" * 64

    def test_empty_attribute_set(self, master_pair, rng):
        with pytest.raises(EmptyAttributeSet):
            keygen(master_pair.msk, AttributeSet(), rng(32))

    def test_missing_timestamp(self, master_pair, rng):
        with pytest.raises(MissingTimestamp):
            keygen(master_pair.msk, AttributeSet({"A"}), rng(32))

    def test_determinism_given_seed(self, master_pair):
        attrs = AttributeSet({"A", "B"}, {"T_SK": 9})
        seed = make_rng("kg")(32)
        a = keygen(master_pair.msk, attrs, seed).to_bytes()
        b = keygen(master_pair.msk, attrs, seed).to_bytes()
        assert a == b
        c = keygen(master_pair.msk, attrs, make_rng("kg2")(32)).to_bytes()
        assert a != c

    def test_recorded_attrs_match_request(self, master_pair):
        key = issue(master_pair, {"A", "B"}, t_sk=77)
        assert key.attrs.names == frozenset({"A", "B"})
        assert key.attrs.issuance_timestamp == 77

    def test_key_serialization_roundtrip(self, master_pair):
        key = issue(master_pair, {"A", "B"})
        again = UserSecretKey.from_bytes(key.to_bytes())
        assert again == key
        assert again.to_bytes() == key.to_bytes()


class TestEncrypt:
    def test_deterministic_given_u(self, master_pair):
        policy = parse_policy("A OR B")
        one = abe_encrypt(master_pair.mpk, policy, b"m" * 33, U)
        two = abe_encrypt(master_pair.mpk, policy, b"m" * 33, U)
        assert one.to_bytes() == two.to_bytes()

    def test_differs_across_u(self, master_pair):
        policy = parse_policy("A OR B")
        one = abe_encrypt(master_pair.mpk, policy, b"m", make_rng("u1")(32))
        two = abe_encrypt(master_pair.mpk, policy, b"m", make_rng("u2")(32))
        assert one.to_bytes() != two.to_bytes()

    def test_full_width_roundtrip(self, master_pair):
        key = issue(master_pair, {"A", "B"})
        message = make_rng("msg")(ENCAPSULATION_WIDTH)
        ct = abe_encrypt(master_pair.mpk, parse_policy("(A AND B)"), message, U)
        assert abe_decrypt(master_pair.mpk, key, ct) == message

    def test_message_too_long(self, master_pair):
        with pytest.raises(MessageTooLong):
            abe_encrypt(master_pair.mpk, parse_policy("A"), b"m" * 65, U)

    def test_short_messages_roundtrip(self, master_pair):
        key = issue(master_pair, {"A"})
        for n in (0, 1, 31, 63):
            ct = abe_encrypt(master_pair.mpk, parse_policy("A"), b"z" * n, U)
            assert abe_decrypt(master_pair.mpk, key, ct) == b"z" * n


class TestDecrypt:
    def test_unsatisfied_and(self, master_pair):
        key = issue(master_pair, {"A"})
        ct = abe_encrypt(master_pair.mpk, parse_policy("(A AND B)"), b"m", U)
        with pytest.raises(PolicyUnsatisfied):
            abe_decrypt(master_pair.mpk, key, ct)

    def test_satisfied_or(self, master_pair):
        key = issue(master_pair, {"A", "B"})
        ct = abe_encrypt(master_pair.mpk, parse_policy("(A OR B)"), b"m", U)
        assert abe_decrypt(master_pair.mpk, key, ct) == b"m"

    def test_numeric_gate(self, master_pair):
        ct = abe_encrypt(master_pair.mpk, parse_policy("(T_SK > 100)"), b"m", U)
        fresh = issue(master_pair, {"A"}, t_sk=101)
        stale = issue(master_pair, {"A"}, t_sk=100)
        assert abe_decrypt(master_pair.mpk, fresh, ct) == b"m"
        with pytest.raises(PolicyUnsatisfied):
            abe_decrypt(master_pair.mpk, stale, ct)

    def test_truncated_body(self, master_pair):
        key = issue(master_pair, {"A"})
        ct = abe_encrypt(master_pair.mpk, parse_policy("A"), b"m", U)
        broken = AbeCiphertext(header=ct.header, body=ct.body[:-5])
        with pytest.raises(MalformedCiphertext):
            abe_decrypt(master_pair.mpk, key, broken)

    def test_unsatisfied_key_on_truncated_share_block(self, master_pair):
        """The share block is checked before the single policy walk, so
        damage is reported ahead of an unsatisfied key; both fail closed."""
        key = issue(master_pair, {"B"})
        ct = abe_encrypt(master_pair.mpk, parse_policy("A"), b"m", U)
        broken = AbeCiphertext(header=ct.header, body=ct.body[:20])
        with pytest.raises(MalformedCiphertext):
            abe_decrypt(master_pair.mpk, key, broken)

    @pytest.mark.parametrize("case", ["usk", "mpk", "msk", "header", "layer"])
    def test_backend_mismatch(self, master_pair, case):
        """A container whose backend-id byte (byte 5) is not the one
        scheme's is refused when parsed."""
        ct = abe_encrypt(master_pair.mpk, parse_policy("A"), b"m", U)
        layered = add_layers(master_pair.mpk, LayeredAbeCiphertext(ct.to_bytes()),
                             [parse_policy("B")])
        good, parse = {
            "usk": (issue(master_pair, {"A"}).to_bytes(), UserSecretKey.from_bytes),
            "mpk": (master_pair.mpk.to_bytes(), MasterPublicKey.from_bytes),
            "msk": (master_pair.msk.to_bytes(), MasterSecretKey.from_bytes),
            "header": (ct.header, parse_header),
            "layer": (layered.body, lambda data: unpack_container(data, KIND_LAYER, 3)),
        }[case]
        parse(good)
        with pytest.raises(MalformedCiphertext, match="backend id 9"):
            parse(good[:5] + b"\x09" + good[6:])

    def test_key_from_other_master_rejected(self, master_pair):
        other = setup(make_rng("other-master"))
        key = issue(other, {"A"})
        ct = abe_encrypt(master_pair.mpk, parse_policy("A"), b"m", U)
        # Same backend, different master secret: must not decrypt.
        with pytest.raises(MalformedCiphertext):
            abe_decrypt(master_pair.mpk, key, ct)


class TestHeader:
    def test_header_policy_matches_encryption_policy(self, master_pair):
        policy = parse_policy("(A AND (B OR C))")
        ct = abe_encrypt(master_pair.mpk, policy, b"m", U)
        assert extract_policy(extract_header(ct)) == policy

    def test_headers_identical_for_identical_inputs(self, master_pair):
        policy = parse_policy("A")
        one = abe_encrypt(master_pair.mpk, policy, b"m", U)
        two = abe_encrypt(master_pair.mpk, policy, b"m", U)
        assert extract_header(one) == extract_header(two)

    def test_header_stable_under_body_change(self, master_pair):
        ct = abe_encrypt(master_pair.mpk, parse_policy("A"), b"m", U)
        other = AbeCiphertext(header=ct.header, body=b"\x00" + ct.body)
        assert extract_header(other) == extract_header(ct)

    def test_header_survives_serialization(self, master_pair):
        ct = abe_encrypt(master_pair.mpk, parse_policy("A"), b"m", U)
        again = AbeCiphertext.from_bytes(ct.to_bytes())
        assert extract_header(again) == extract_header(ct)
        assert again.to_bytes() == ct.to_bytes()


class TestCapabilitySoundness:
    def test_exhaustive_small_universe(self, master_pair):
        """decrypt succeeds exactly when the key's attributes satisfy the
        policy, across the enumerated policy family and every subset."""
        keys = {subset: issue(master_pair, subset, seed=f"ks-{sorted(subset)}")
                for subset in all_subsets(ALPHABET)}
        for policy in enumerate_policies(cap=60):
            ct = abe_encrypt(master_pair.mpk, policy, b"m" * 16, U)
            for subset, key in keys.items():
                expected = satisfies(key.attrs, policy)
                if expected:
                    assert abe_decrypt(master_pair.mpk, key, ct) == b"m" * 16
                else:
                    with pytest.raises(PolicyUnsatisfied):
                        abe_decrypt(master_pair.mpk, key, ct)


class TestTamperEvidence:
    def test_any_single_bit_flip_fails_closed(self, master_pair):
        key = issue(master_pair, {"A", "B"})
        message = b"the-encapsulated-secret-material"
        ct = abe_encrypt(master_pair.mpk, parse_policy("(A AND B)"), message, U)
        rnd = random.Random(7)
        header, body = ct.header, ct.body
        for _ in range(200):
            target = rnd.choice(("header", "body"))
            data = bytearray(header if target == "header" else body)
            position = rnd.randrange(len(data) * 8)
            data[position // 8] ^= 1 << (position % 8)
            mutated = AbeCiphertext(
                header=bytes(data) if target == "header" else header,
                body=bytes(data) if target == "body" else body)
            try:
                recovered = abe_decrypt(master_pair.mpk, key, mutated)
            except Exception:
                continue
            assert recovered == message, "tampering must never change the plaintext"
            # GCM collisions aside, a successful decrypt of a mutated ct is
            # only acceptable if it returned the original bytes -- and with a
            # 128-bit tag it should simply never happen.
            pytest.fail("bit flip went undetected")
