"""Policy grammar, canonical form, and satisfaction semantics."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from support import ALPHABET, all_subsets, enumerate_policies, oracle_eval, random_policy

from mlabe.errors import EmptyPolicyError, PolicySyntaxError
from mlabe.policy import (
    AccessPolicy,
    And,
    AttributeSet,
    Cmp,
    Leaf,
    Or,
    parse_policy,
    satisfies,
)


class TestParsing:
    def test_two_way_conjunction(self):
        policy = parse_policy("Mechanic AND Staff")
        assert policy.root == And((Leaf("Mechanic"), Leaf("Staff")))

    def test_three_way_conjunction_is_flat(self):
        policy = parse_policy("Att1 AND Att2 AND Att3")
        assert isinstance(policy.root, And)
        assert len(policy.root.children) == 3
        assert all(isinstance(c, Leaf) for c in policy.root.children)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyPolicyError):
            parse_policy("")
        with pytest.raises(EmptyPolicyError):
            parse_policy("   ")

    def test_timestamp_comparison(self):
        policy = parse_policy("T_SK > 1700000000")
        assert policy.root == Cmp("T_SK", ">", 1700000000)

    def test_and_binds_tighter_than_or(self):
        assert parse_policy("A AND B OR C").canonical() == "((A AND B) OR C)"
        assert parse_policy("A OR B AND C").canonical() == "(A OR (B AND C))"

    def test_parentheses_preserve_structure(self):
        nested = parse_policy("(A AND B) AND C")
        assert nested.root == And((And((Leaf("A"), Leaf("B"))), Leaf("C")))
        flat = parse_policy("A AND B AND C")
        assert nested != flat

    @pytest.mark.parametrize("text,expected", [
        ("a:b-c AND x_1", "(a:b-c AND x_1)"),
        ("(T_SK >= 0)", "(T_SK >= 0)"),
        ("cnt = 7 OR cnt < 3", "((cnt = 7) OR (cnt < 3))"),
    ])
    def test_grammar_corners(self, text, expected):
        assert parse_policy(text).canonical() == expected

    @pytest.mark.parametrize("text", [
        "A AND", "(A", "A)", "AND A", "A OR OR B", "A > ", "> 5",
        "A 5", "A >",
    ])
    def test_syntax_errors_carry_position(self, text):
        with pytest.raises(PolicySyntaxError) as excinfo:
            parse_policy(text)
        assert excinfo.value.position >= 0

    def test_unexpected_character(self):
        with pytest.raises(PolicySyntaxError) as excinfo:
            parse_policy("A && B")
        assert "&" in str(excinfo.value)

    def test_comparison_constant_range(self):
        parse_policy(f"x = {2**64 - 1}")
        with pytest.raises(PolicySyntaxError):
            parse_policy(f"x = {2**64}")


class TestParseMemo:
    """parse_policy memoizes successful parses in a bounded LRU."""

    @pytest.mark.parametrize("text,error", [
        ("", EmptyPolicyError), ("   ", EmptyPolicyError),
        ("A AND", PolicySyntaxError), ("A && B", PolicySyntaxError),
    ])
    def test_errors_raise_on_every_call(self, text, error):
        for _ in range(2):
            with pytest.raises(error):
                parse_policy(text)

    def test_repeated_parse_is_equal(self):
        text = "((Att1 AND Att2) OR (T_SK > 7))"
        first = parse_policy(text)
        assert parse_policy(text) == first
        assert parse_policy(text).canonical() == first.canonical() == text

    def test_bound_is_fixed(self):
        maxsize = parse_policy.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0
        for i in range(maxsize + 10):
            parse_policy(f"Memo{i} AND Other")
        assert parse_policy.cache_info().currsize <= maxsize


class TestSerialization:
    def test_trivial_forms(self):
        assert AccessPolicy(And((Leaf("A"), Leaf("B")))).canonical() == "(A AND B)"
        assert AccessPolicy(
            Or((And((Leaf("A"), Leaf("B"))), Leaf("C")))).canonical() == "((A AND B) OR C)"
        assert AccessPolicy(Cmp("T_SK", ">", 5)).canonical() == "(T_SK > 5)"

    def test_roundtrip_over_enumerated_family(self):
        for policy in enumerate_policies():
            assert parse_policy(policy.canonical()) == policy

    def test_ast_validation(self):
        with pytest.raises(ValueError):
            And((Leaf("A"),))
        with pytest.raises(ValueError):
            Or((Leaf("A"),))
        with pytest.raises(ValueError):
            Leaf("9bad")
        with pytest.raises(ValueError):
            Leaf("AND")
        with pytest.raises(ValueError):
            Cmp("x", "!=", 1)
        with pytest.raises(ValueError):
            Cmp("x", ">", -1)


class TestSatisfaction:
    def test_superset_satisfies_conjunction(self):
        policy = parse_policy("(Mechanic AND Staff)")
        assert satisfies(AttributeSet({"Mechanic", "Staff", "Boss"}), policy)

    def test_empty_attribute_set(self):
        assert not satisfies(AttributeSet(), parse_policy("A"))

    def test_strict_comparison_boundary(self):
        policy = parse_policy("(T_SK > 100)")
        assert not satisfies(AttributeSet(numeric={"T_SK": 100}), policy)
        assert satisfies(AttributeSet(numeric={"T_SK": 101}), policy)

    def test_absent_numeric_attribute_is_false(self):
        assert not satisfies(AttributeSet({"T_SK"}), parse_policy("(T_SK > 0)"))

    @pytest.mark.parametrize("op,value,holds", [
        (">", 9, True), (">", 10, False),
        (">=", 10, True), (">=", 11, False),
        ("<", 11, True), ("<", 10, False),
        ("<=", 10, True), ("<=", 9, False),
        ("=", 10, True), ("=", 11, False),
    ])
    def test_all_operators(self, op, value, holds):
        policy = AccessPolicy(Cmp("n", op, value))
        assert satisfies(AttributeSet(numeric={"n": 10}), policy) is holds

    def test_agrees_with_bruteforce_on_random_policies(self):
        """Random depth-<=4 policies vs every subset of their alphabet,
        checked against the independently written evaluator."""
        rnd = random.Random(0xACCE55)
        for _ in range(300):
            policy = random_policy(rnd, max_leaves=6, max_depth=4,
                                   numeric_names=("n", "m"))
            for subset in all_subsets(ALPHABET):
                for numeric in ({}, {"n": 10}, {"n": 10, "m": 40}):
                    attrs = AttributeSet(subset, numeric)
                    assert satisfies(attrs, policy) == oracle_eval(
                        policy.root, set(subset), dict(numeric)), policy.canonical()

    def test_exhaustive_small_universe_against_oracle(self):
        for policy in enumerate_policies():
            for subset in all_subsets(ALPHABET):
                assert satisfies(AttributeSet(subset), policy) == \
                    oracle_eval(policy.root, set(subset), {})


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_names = st.sampled_from(ALPHABET)
_leaves = _names.map(Leaf) | st.tuples(
    st.sampled_from(("n", "m")), st.sampled_from((">", ">=", "<", "<=", "=")),
    st.integers(0, 30)).map(lambda t: Cmp(*t))
_nodes = st.recursive(
    _leaves,
    lambda children: st.tuples(st.sampled_from((And, Or)),
                               st.lists(children, min_size=2, max_size=3))
    .map(lambda t: t[0](tuple(t[1]))),
    max_leaves=8)
_policies = _nodes.map(AccessPolicy)


@given(_policies)
@settings(max_examples=300)
def test_property_roundtrip(policy):
    assert parse_policy(policy.canonical()) == policy


@given(_policies,
       st.sets(_names), st.sets(_names),
       st.dictionaries(st.sampled_from(("n", "m")), st.integers(0, 30)))
@settings(max_examples=300)
def test_property_monotonicity(policy, base, extra, numeric):
    smaller = AttributeSet(base, numeric)
    larger = AttributeSet(base | extra, numeric)
    if satisfies(smaller, policy):
        assert satisfies(larger, policy)


class TestAttributeSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttributeSet({"bad name"})
        with pytest.raises(ValueError):
            AttributeSet(numeric={"n": -1})
        with pytest.raises(ValueError):
            AttributeSet(numeric={"n": 2**64})

    def test_timestamp_helpers(self):
        attrs = AttributeSet({"A"}).with_timestamp(42)
        assert attrs.issuance_timestamp == 42
        assert attrs.with_timestamp(43).issuance_timestamp == 43

    def test_json_roundtrip(self):
        attrs = AttributeSet({"B", "A"}, {"T_SK": 7, "n": 1})
        again = AttributeSet.from_json(attrs.canonical_json())
        assert again == attrs
        assert again.canonical_json() == attrs.canonical_json()

    def test_empty_flag(self):
        assert AttributeSet().empty
        assert not AttributeSet({"A"}).empty
        assert not AttributeSet(numeric={"T_SK": 1}).empty
