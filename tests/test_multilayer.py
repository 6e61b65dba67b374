"""Layer addition, peeling, update, and full layered decryption."""

from __future__ import annotations

import dataclasses
import random

import pytest

from support import ALPHABET, make_rng, random_policy

from mlabe import abe
from mlabe.abe import MasterPublicKey, UserSecretKey
from mlabe.containers import HybridCiphertext, LayeredAbeCiphertext
from mlabe.errors import (
    EmptyPolicyList,
    KeepExceedsLayers,
    MalformedLayer,
    PolicyUnsatisfied,
)
from mlabe.hybrid import hybrid_encrypt
from mlabe.multilayer import (
    ENGINE_UPDATE_ATTRIBUTE,
    add_layers,
    augment_for_engine,
    layered_decrypt,
    peel_layers,
    update_outer_layers,
)
from mlabe.policy import TIMESTAMP_ATTRIBUTE, AccessPolicy, Cmp, parse_policy

from conftest import issue


def _base(master_pair, policy_text="(A AND B)", plaintext=b"inner payload " * 20,
          seed="ml"):
    return hybrid_encrypt(master_pair.mpk, parse_policy(policy_text), plaintext,
                          make_rng(seed))


def _attr_policies(count, width=3):
    """Layer policies (Att1 AND Att2 AND Att3), (Att4 ...), ..."""
    out = []
    for j in range(count):
        names = [f"Att{j * width + i + 1}" for i in range(width)]
        out.append(parse_policy(" AND ".join(names)))
    return out


class TestAddLayers:
    def test_fourteen_layers_three_attributes_each(self, master_pair):
        """The worst-case series shape: base + 14 layers = 15 total, 45
        attributes overall."""
        ct = _base(master_pair, "(Att1 AND Att2 AND Att3)")
        extra = _attr_policies(15)[1:]
        layered = add_layers(master_pair.mpk, ct.ct_abe, extra)
        assert layered.n_layers == 14
        total_attrs = sum(parse_policy(t).leaf_count()
                          for t in layered.layer_policies) + 3
        assert total_attrs == 45

    def test_wrap_then_peel_is_identity(self, master_pair):
        ct = _base(master_pair)
        key = issue(master_pair, {"C"})
        layered = add_layers(master_pair.mpk, ct.ct_abe, [parse_policy("C")])
        back = peel_layers(master_pair.mpk, key, layered, 1)
        assert back.to_bytes() == ct.ct_abe.to_bytes()

    def test_deterministic(self, master_pair):
        ct = _base(master_pair)
        policies = [parse_policy("C"), parse_policy("(D OR E)")]
        one = add_layers(master_pair.mpk, ct.ct_abe, policies)
        two = add_layers(master_pair.mpk, ct.ct_abe, policies)
        assert one.to_bytes() == two.to_bytes()

    def test_empty_policy_list(self, master_pair):
        ct = _base(master_pair)
        with pytest.raises(EmptyPolicyList):
            add_layers(master_pair.mpk, ct.ct_abe, [])


class TestPeelLayers:
    def test_zero_is_noop(self, master_pair):
        ct = _base(master_pair)
        key = issue(master_pair, {"A", "B"})
        assert peel_layers(master_pair.mpk, key, ct.ct_abe, 0) is ct.ct_abe

    def test_three_wrap_three_peel(self, master_pair):
        ct = _base(master_pair)
        key = issue(master_pair, {"C", "D", "E"})
        layered = add_layers(master_pair.mpk, ct.ct_abe,
                             [parse_policy(p) for p in ("C", "D", "E")])
        back = peel_layers(master_pair.mpk, key, layered, 3)
        assert back.to_bytes() == ct.ct_abe.to_bytes()
        assert back.base_ciphertext().to_bytes() == \
            ct.ct_abe.base_ciphertext().to_bytes()

    def test_missing_outer_attribute_reports_layer(self, master_pair):
        ct = _base(master_pair)
        layered = add_layers(master_pair.mpk, ct.ct_abe,
                             [parse_policy("C"), parse_policy("D")])
        key = issue(master_pair, {"C"})  # lacks the outermost D
        with pytest.raises(PolicyUnsatisfied) as excinfo:
            peel_layers(master_pair.mpk, key, layered, 2)
        assert excinfo.value.layer_index == layered.n_layers - 1

    def test_cannot_peel_out_of_order(self, master_pair):
        """A key satisfying only the inner layer cannot skip the outer one."""
        ct = _base(master_pair)
        layered = add_layers(master_pair.mpk, ct.ct_abe,
                             [parse_policy("C"), parse_policy("D")])
        inner_only = issue(master_pair, {"C"})
        with pytest.raises(PolicyUnsatisfied):
            peel_layers(master_pair.mpk, inner_only, layered, 1)

    def test_peel_beyond_layers_rejected(self, master_pair):
        ct = _base(master_pair)
        key = issue(master_pair, {"A", "B"})
        with pytest.raises(ValueError):
            peel_layers(master_pair.mpk, key, ct.ct_abe, 1)

    def test_tampered_layer(self, master_pair):
        ct = _base(master_pair)
        key = issue(master_pair, {"C"})
        layered = add_layers(master_pair.mpk, ct.ct_abe, [parse_policy("C")])
        mutated = bytearray(layered.body)
        mutated[-3] ^= 0x40
        broken = LayeredAbeCiphertext(body=bytes(mutated),
                                      layer_policies=layered.layer_policies)
        with pytest.raises(MalformedLayer):
            peel_layers(master_pair.mpk, key, broken, 1)

    def test_count_bookkeeping_over_random_sequences(self, master_pair):
        rnd = random.Random(41)
        key = issue(master_pair, set(ALPHABET))
        ct = _base(master_pair).ct_abe
        expected = 0
        for _ in range(30):
            if expected and rnd.random() < 0.45:
                n = rnd.randint(1, expected)
                ct = peel_layers(master_pair.mpk, key, ct, n)
                expected -= n
            else:
                policies = [random_policy(rnd, max_leaves=3, max_depth=2)
                            for _ in range(rnd.randint(1, 3))]
                ct = add_layers(master_pair.mpk, ct, policies)
                expected += len(policies)
            assert ct.n_layers == expected


class TestParsedKeyMap:
    """The dev backend parses a user key's leaf keys once per key object."""

    @pytest.mark.parametrize("damage", [
        lambda m: m[:-5],                        # inside the last leaf key
        lambda m: m[:4],                         # name missing after its length
        lambda m: m[:3],                         # inside a length prefix
        lambda m: b"\x00\x00\x00\x01\xff" + bytes(32) + m,  # undecodable name
    ], ids=["inside-key", "missing-name", "inside-length", "undecodable-name"])
    def test_malformed_leaf_material_fails_closed_every_use(self, master_pair, damage):
        ct = _base(master_pair)
        layered = add_layers(master_pair.mpk, ct.ct_abe, [parse_policy("C")])
        key = issue(master_pair, {"C"})
        broken = dataclasses.replace(key, material=damage(key.material))
        for _ in range(2):
            with pytest.raises(MalformedLayer):
                peel_layers(master_pair.mpk, broken, layered, 1)

    @pytest.mark.parametrize("attrs, material_attrs", [
        ({"A", "B"}, {"A"}),       # attributes claim B, material lacks it
        ({"A"}, {"A", "B"}),       # material carries B, attributes lack it
    ], ids=["attrs-exceed-material", "material-exceeds-attrs"])
    def test_material_disagreeing_with_attributes_fails_closed(
            self, master_pair, attrs, material_attrs):
        """Leaf access is decided from the parsed material, so a key whose
        material names other attributes than its attribute set is malformed,
        whichever side holds the layer's attribute."""
        ct = _base(master_pair)
        layered = add_layers(master_pair.mpk, ct.ct_abe, [parse_policy("B")])
        key = dataclasses.replace(
            issue(master_pair, attrs),
            material=issue(master_pair, material_attrs).material)
        for _ in range(2):
            with pytest.raises(MalformedLayer):
                peel_layers(master_pair.mpk, key, layered, 1)

    def test_map_is_invisible_to_repr_bytes_and_equality(self, master_pair):
        ct = _base(master_pair)
        layered = add_layers(master_pair.mpk, ct.ct_abe, [parse_policy("C")])
        key = issue(master_pair, {"C"})
        fresh = UserSecretKey.from_bytes(key.to_bytes())
        before_repr, before_bytes = repr(key), key.to_bytes()
        peel_layers(master_pair.mpk, key, layered, 1)
        assert "_leaf_keys" in vars(key)  # parsed and kept on the key object
        assert "_leaf_keys" not in vars(fresh)
        assert repr(key) == before_repr
        assert "_leaf_keys" not in repr(key)
        assert key.to_bytes() == before_bytes
        assert key == fresh and hash(key) == hash(fresh)


class TestPublicKeyMemo:
    """A public-key object derives each leaf key once and keeps its
    prepared state."""

    def _fresh(self, master_pair) -> MasterPublicKey:
        return MasterPublicKey.from_bytes(master_pair.mpk.to_bytes())

    def test_memo_is_invisible_to_repr_bytes_and_equality(self, master_pair):
        mpk, fresh = self._fresh(master_pair), self._fresh(master_pair)
        before_repr, before_bytes = repr(mpk), mpk.to_bytes()
        add_layers(mpk, _base(master_pair).ct_abe, [parse_policy("C AND D")])
        assert len(vars(mpk)["_leaf_states"]) == 2
        assert "_leaf_states" not in vars(fresh)
        assert repr(mpk) == before_repr
        assert "_leaf_states" not in repr(mpk)
        assert mpk.to_bytes() == before_bytes
        assert mpk == fresh and hash(mpk) == hash(fresh)

    def test_memo_past_its_bound_keeps_every_byte(self, master_pair, monkeypatch):
        monkeypatch.setattr(abe, "LEAF_MEMO_SIZE", 4)
        mpk = self._fresh(master_pair)
        ct = _base(master_pair).ct_abe
        gate = AccessPolicy(Cmp(TIMESTAMP_ATTRIBUTE, ">", 7))
        for policies in (_attr_policies(5), [gate] + _attr_policies(5)[::-1]):
            layered = add_layers(mpk, ct, policies)
            assert len(mpk._leaf_states) <= 4
            assert layered.to_bytes() == add_layers(
                self._fresh(master_pair), ct, policies).to_bytes()
        consumer = issue(master_pair, {f"Att{i}" for i in range(1, 16)} | {"A", "B"})
        plain = b"inner payload " * 20
        full = HybridCiphertext(ct_aes=_base(master_pair).ct_aes, ct_abe=layered)
        assert layered_decrypt(mpk, consumer, full) == plain

    def test_second_relayer_derives_no_leaf_key(self, master_pair, monkeypatch):
        mpk = self._fresh(master_pair)
        engine_key = issue(master_pair, {ENGINE_UPDATE_ATTRIBUTE})
        old, new = ([augment_for_engine(p) for p in group]
                    for group in (_attr_policies(14), _attr_policies(28)[14:]))
        layered = add_layers(mpk, _base(master_pair).ct_abe, old)
        derived: list[str] = []
        real_leaf_key = abe._leaf_key
        monkeypatch.setattr(abe, "_leaf_key",
                            lambda root, name: derived.append(name) or real_leaf_key(root, name))
        first = update_outer_layers(mpk, engine_key, layered, keep=0, new_policies=new)
        assert len(derived) == 42  # the new layers' names, each once
        derived.clear()
        second = update_outer_layers(mpk, engine_key, layered, keep=0, new_policies=new)
        assert derived == []
        assert second.to_bytes() == first.to_bytes()


class TestLayeredDecrypt:
    def test_zero_layers_equals_fo_decrypt(self, master_pair):
        from mlabe.hybrid import fo_decrypt

        plaintext = b"zero layer payload"
        ct = _base(master_pair, plaintext=plaintext)
        key = issue(master_pair, {"A", "B"})
        assert layered_decrypt(master_pair.mpk, key, ct) == plaintext
        assert fo_decrypt(master_pair.mpk, key, ct.ct_abe.base_ciphertext(),
                          ct.ct_aes) == plaintext

    def test_two_layers_end_to_end(self, master_pair):
        plaintext = b"layered payload " * 9
        ct = _base(master_pair, "(A AND B)", plaintext)
        layered = add_layers(master_pair.mpk, ct.ct_abe,
                             [parse_policy("C"), parse_policy("D")])
        full = HybridCiphertext(ct_aes=ct.ct_aes, ct_abe=layered)
        key = issue(master_pair, {"A", "B", "C", "D"})
        assert layered_decrypt(master_pair.mpk, key, full) == plaintext

    def test_failing_only_base_policy(self, master_pair):
        """Peeling succeeds, the final decapsulation refuses: the base
        policy gate cannot be bypassed by holding only layer attributes."""
        ct = _base(master_pair, "(A AND B)")
        layered = add_layers(master_pair.mpk, ct.ct_abe, [parse_policy("C")])
        full = HybridCiphertext(ct_aes=ct.ct_aes, ct_abe=layered)
        key = issue(master_pair, {"A", "C"})  # lacks B for the base
        with pytest.raises(PolicyUnsatisfied) as excinfo:
            layered_decrypt(master_pair.mpk, key, full)
        assert excinfo.value.layer_index is None


class TestUpdateOuterLayers:
    def test_keep_all_is_pure_addition(self, master_pair):
        ct = _base(master_pair).ct_abe
        key = issue(master_pair, {"C"})
        added = update_outer_layers(master_pair.mpk, key, ct, keep=0,
                                    new_policies=[parse_policy("C")])
        assert added.to_bytes() == add_layers(
            master_pair.mpk, ct, [parse_policy("C")]).to_bytes()

    def test_replace_outermost_preserves_payload(self, master_pair):
        plaintext = b"payload under update " * 8
        ct = _base(master_pair, "(A AND B)", plaintext)
        engine_key = issue(master_pair, {ENGINE_UPDATE_ATTRIBUTE})
        old_layer = augment_for_engine(parse_policy("C"))
        layered = add_layers(master_pair.mpk, ct.ct_abe, [old_layer])
        updated = update_outer_layers(
            master_pair.mpk, engine_key, layered, keep=0,
            new_policies=[augment_for_engine(parse_policy("(C AND D)"))])
        # payload untouched, layer policy swapped
        new_full = HybridCiphertext(ct_aes=ct.ct_aes, ct_abe=updated)
        old_consumer = issue(master_pair, {"A", "B", "C"})
        new_consumer = issue(master_pair, {"A", "B", "C", "D"})
        with pytest.raises(PolicyUnsatisfied):
            layered_decrypt(master_pair.mpk, old_consumer, new_full)
        assert layered_decrypt(master_pair.mpk, new_consumer, new_full) == plaintext

    def test_keep_exceeds_layers(self, master_pair):
        ct = _base(master_pair).ct_abe
        key = issue(master_pair, {"C"})
        with pytest.raises(KeepExceedsLayers):
            update_outer_layers(master_pair.mpk, key, ct, keep=1, new_policies=[])

    def test_pure_revocation(self, master_pair):
        """Empty new-policy list just peels: revocation of stale layers."""
        ct = _base(master_pair).ct_abe
        key = issue(master_pair, {"C", "D"})
        layered = add_layers(master_pair.mpk, ct,
                             [parse_policy("C"), parse_policy("D")])
        revoked = update_outer_layers(master_pair.mpk, key, layered, keep=1,
                                      new_policies=[])
        assert revoked.n_layers == 1
        assert revoked.layer_policies == ("C",)

    def test_engine_cannot_open_base(self, master_pair):
        """The maintenance key peels augmented layers but can never reach
        the payload: the base policy excludes it."""
        ct = _base(master_pair, "(A AND B)")
        engine_key = issue(master_pair, {ENGINE_UPDATE_ATTRIBUTE})
        layered = add_layers(master_pair.mpk, ct.ct_abe,
                             [augment_for_engine(parse_policy("C"))])
        stripped = peel_layers(master_pair.mpk, engine_key, layered, 1)
        full = HybridCiphertext(ct_aes=ct.ct_aes, ct_abe=stripped)
        with pytest.raises(PolicyUnsatisfied):
            layered_decrypt(master_pair.mpk, engine_key, full)


class TestAugment:
    def test_augmented_form(self):
        policy = parse_policy("(A AND B)")
        assert augment_for_engine(policy).canonical() == \
            f"((A AND B) OR {ENGINE_UPDATE_ATTRIBUTE})"
