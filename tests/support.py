"""Shared test helpers: deterministic entropy, independent oracles, and
systematic policy enumeration."""

from __future__ import annotations

import base64
import itertools
import json
import random

from mlabe.hashing import counter_rng as make_rng  # noqa: F401  (re-exported)
from mlabe.policy import AccessPolicy, And, Cmp, Leaf, Node, Or

ALPHABET = ("A", "B", "C", "D", "E", "F")


# ---------------------------------------------------------------------------
# Independent satisfaction oracle (kept separate from mlabe.policy.satisfies)
# ---------------------------------------------------------------------------

def oracle_eval(node: Node, have_names: set[str], have_numeric: dict[str, int]) -> bool:
    """Recursive truth evaluator written independently of the library's."""
    match node:
        case Leaf(name=name):
            return name in have_names
        case Cmp(name=name, op=op, value=value):
            if name not in have_numeric:
                return False
            x = have_numeric[name]
            table = {">": x > value, ">=": x >= value, "<": x < value,
                     "<=": x <= value, "=": x == value}
            return table[op]
        case And(children=children):
            for child in children:
                if not oracle_eval(child, have_names, have_numeric):
                    return False
            return True
        case Or(children=children):
            for child in children:
                if oracle_eval(child, have_names, have_numeric):
                    return True
            return False
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Policy enumeration / generation
# ---------------------------------------------------------------------------

def _rotate(letters: tuple[str, ...], k: int) -> tuple[str, ...]:
    return letters[k:] + letters[:k]


def enumerate_policies(alphabet: tuple[str, ...] = ALPHABET,
                       cap: int | None = None) -> list[AccessPolicy]:
    """Systematic family of monotone policies with up to 6 leaves.

    Covers single leaves, flat AND/OR of width 2, 3, and 6, and the nested
    two-level shapes in both operator orders, instantiated over rotations
    of the alphabet; duplicates are removed by canonical text.
    """
    policies: dict[str, AccessPolicy] = {}

    def add(node: Node) -> None:
        policy = AccessPolicy(node)
        policies.setdefault(policy.canonical(), policy)

    leaves = [Leaf(a) for a in alphabet]
    for leaf in leaves:
        add(leaf)
    for rotation in range(len(alphabet)):
        a, b, c, d, e, f = (Leaf(x) for x in _rotate(alphabet, rotation))
        for op in (And, Or):
            add(op((a, b)))
            add(op((a, b, c)))
            add(op((a, b, c, d, e, f)))
        add(And((a, Or((b, c)))))
        add(Or((a, And((b, c)))))
        add(And((Or((a, b)), Or((c, d)))))
        add(Or((And((a, b)), And((c, d)))))
        add(And((a, Or((b, And((c, d)))))))
        add(Or((a, And((b, Or((c, d)))))))
        add(And((Or((a, b)), c, Or((d, e)))))
        add(Or((And((a, b)), c, And((d, e)))))
        add(And((Or((a, And((b, c)))), Or((d, And((e, f)))))))
    out = list(policies.values())
    return out[:cap] if cap is not None else out


def random_policy(rng: random.Random, alphabet: tuple[str, ...] = ALPHABET,
                  max_leaves: int = 6, max_depth: int = 4,
                  numeric_names: tuple[str, ...] = ()) -> AccessPolicy:
    """Random policy tree honoring the leaf and depth budgets."""

    def leaf() -> Node:
        if numeric_names and rng.random() < 0.3:
            name = rng.choice(numeric_names)
            op = rng.choice((">", ">=", "<", "<=", "="))
            return Cmp(name, op, rng.randint(0, 50))
        return Leaf(rng.choice(alphabet))

    def build(depth: int, budget: int) -> tuple[Node, int]:
        """Returns (node, leaves_used); never exceeds the budget."""
        if depth >= max_depth or budget < 2 or rng.random() < 0.35:
            return leaf(), 1
        width = rng.randint(2, min(3, budget))
        children: list[Node] = []
        used = 0
        for i in range(width):
            remaining = budget - used - (width - i - 1)  # keep 1 leaf per sibling
            child, child_used = build(depth + 1, max(remaining, 1))
            children.append(child)
            used += child_used
        node_type = And if rng.random() < 0.5 else Or
        return node_type(tuple(children)), used

    node, _ = build(0, rng.randint(1, max_leaves))
    return AccessPolicy(node)


def all_subsets(alphabet: tuple[str, ...] = ALPHABET):
    for size in range(len(alphabet) + 1):
        yield from (frozenset(c) for c in itertools.combinations(alphabet, size))


# ---------------------------------------------------------------------------
# Transport capture scanning
# ---------------------------------------------------------------------------

def frames_contain_secret(frames: list[tuple[str, bytes]], secret: bytes) -> bool:
    """True if any captured frame carries the secret raw, hex, or inside a
    base64-encoded JSON string value."""
    hexed = secret.hex().encode("ascii")
    for _, frame in frames:
        if secret in frame or hexed in frame:
            return True
        try:
            payload = json.loads(frame.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue
        for value in _iter_strings(payload):
            try:
                decoded = base64.b64decode(value, validate=True)
            except Exception:
                continue
            if secret in decoded:
                return True
    return False


def _iter_strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _iter_strings(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _iter_strings(v)
