"""Access-policy grammar, canonical serialization, and satisfaction.

Policies are monotone boolean formulas over attribute names, with unsigned
integer comparisons for numeric attributes (the key-issuance timestamp gate
is expressed this way). Grammar, with AND binding tighter than OR::

    expr   := term ("OR" term)*
    term   := factor ("AND" factor)*
    factor := "(" expr ")" | cmp | attr
    cmp    := attr op uint        op in {> >= < <= =}

Keywords are uppercase and reserved. Attribute names are case-sensitive
and match ``[A-Za-z_][A-Za-z0-9_:-]*``. The canonical serialization is
fully parenthesized, so round-tripping through text preserves structure
exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .errors import EmptyPolicyError, PolicySyntaxError

ATTRIBUTE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_:-]*")
COMPARISON_OPERATORS = (">", ">=", "<", "<=", "=")
MAX_UINT64 = 2**64 - 1

# Attribute carrying the key-issuance timestamp, appended by the authority.
TIMESTAMP_ATTRIBUTE = "T_SK"

_KEYWORDS = ("AND", "OR")


def _check_name(name: str) -> None:
    if not ATTRIBUTE_NAME_RE.fullmatch(name):
        raise ValueError(f"invalid attribute name: {name!r}")
    if name in _KEYWORDS:
        raise ValueError(f"attribute name collides with keyword: {name}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    """A plain attribute requirement."""

    name: str

    def __post_init__(self) -> None:
        _check_name(self.name)


@dataclass(frozen=True)
class Cmp:
    """A numeric comparison against an unsigned 64-bit constant."""

    name: str
    op: str
    value: int

    def __post_init__(self) -> None:
        _check_name(self.name)
        if self.op not in COMPARISON_OPERATORS:
            raise ValueError(f"unsupported comparison operator: {self.op!r}")
        if not 0 <= self.value <= MAX_UINT64:
            raise ValueError("comparison constant outside unsigned 64-bit range")


@dataclass(frozen=True)
class And:
    children: tuple["Node", ...]
    n_leaves: int = field(init=False, repr=False, compare=False)  # set once

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("AND requires at least two children")
        object.__setattr__(self, "n_leaves", sum(map(leaf_count, self.children)))


@dataclass(frozen=True)
class Or:
    children: tuple["Node", ...]
    n_leaves: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("OR requires at least two children")
        object.__setattr__(self, "n_leaves", sum(map(leaf_count, self.children)))


Node = Union[Leaf, Cmp, And, Or]


@dataclass(frozen=True)
class AccessPolicy:
    """A parsed access policy; equality is structural."""

    root: Node

    @cached_property
    def _text(self) -> str:
        return _serialize_node(self.root)

    def canonical(self) -> str:
        """Fully parenthesized canonical text of this policy, built once."""
        return self._text

    def leaf_count(self) -> int:
        return leaf_count(self.root)


def leaf_count(node: Node) -> int:
    """Number of Leaf and Cmp nodes under ``node``."""
    return 1 if isinstance(node, (Leaf, Cmp)) else node.n_leaves


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _serialize_node(node: Node) -> str:
    if isinstance(node, Leaf):
        return node.name
    if isinstance(node, Cmp):
        return f"({node.name} {node.op} {node.value})"
    joiner = " AND " if isinstance(node, And) else " OR "
    return "(" + joiner.join(_serialize_node(c) for c in node.children) + ")"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # LPAREN RPAREN AND OR NAME OP INT END
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<op>>=|<=|>|<|=)"
    r"|(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_:-]*))"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.lastgroup is None:
            # Either trailing whitespace or an unrecognizable character.
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise PolicySyntaxError(f"unexpected character {text[bad]!r}", bad)
        pos = match.end()
        group = match.lastgroup
        value = match.group(group)
        start = match.end() - len(value)
        if group == "lparen":
            tokens.append(_Token("LPAREN", value, start))
        elif group == "rparen":
            tokens.append(_Token("RPAREN", value, start))
        elif group == "op":
            tokens.append(_Token("OP", value, start))
        elif group == "int":
            tokens.append(_Token("INT", value, start))
        elif value in _KEYWORDS:
            tokens.append(_Token(value, value, start))
        else:
            tokens.append(_Token("NAME", value, start))
    tokens.append(_Token("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str, expected: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise PolicySyntaxError(
                f"unexpected {token.text!r}" if token.kind != "END" else "unexpected end of input",
                token.pos, expected)
        return self._advance()

    def parse(self) -> Node:
        node = self._expr()
        trailing = self._peek()
        if trailing.kind != "END":
            raise PolicySyntaxError(f"unexpected {trailing.text!r}", trailing.pos,
                                    "end of input")
        return node

    def _expr(self) -> Node:
        children = [self._term()]
        while self._peek().kind == "OR":
            self._advance()
            children.append(self._term())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _term(self) -> Node:
        children = [self._factor()]
        while self._peek().kind == "AND":
            self._advance()
            children.append(self._factor())
        return children[0] if len(children) == 1 else And(tuple(children))

    def _factor(self) -> Node:
        token = self._peek()
        if token.kind == "LPAREN":
            self._advance()
            node = self._expr()
            self._expect("RPAREN", "')'")
            return node
        if token.kind == "NAME":
            self._advance()
            if self._peek().kind == "OP":
                op = self._advance()
                number = self._expect("INT", "unsigned integer")
                value = int(number.text)
                if value > MAX_UINT64:
                    raise PolicySyntaxError("comparison constant exceeds 64 bits",
                                            number.pos)
                return Cmp(token.text, op.text, value)
            return Leaf(token.text)
        raise PolicySyntaxError(
            f"unexpected {token.text!r}" if token.kind != "END" else "unexpected end of input",
            token.pos, "attribute or '('")


@lru_cache(maxsize=256)
def parse_policy(text: str) -> AccessPolicy:
    """Parse policy text into its AST.

    Raises :class:`EmptyPolicyError` for empty/whitespace input and
    :class:`PolicySyntaxError` (with position) for malformed text.

    Results are memoized in a bounded LRU: policy texts are public and the
    returned AST is immutable, so sharing it between callers is safe. A
    parse error is never cached; malformed text raises on every call.
    """
    if not text or text.strip() == "":
        raise EmptyPolicyError("policy text is empty")
    return AccessPolicy(_Parser(_tokenize(text)).parse())


# ---------------------------------------------------------------------------
# Attribute sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeSet:
    """A consumer's attributes: plain names plus numeric attributes.

    The issuance timestamp travels in ``numeric`` under
    :data:`TIMESTAMP_ATTRIBUTE`.
    """

    names: frozenset[str]
    numeric: Mapping[str, int]

    def __init__(self, names: Iterable[str] = (), numeric: Mapping[str, int] | None = None):
        object.__setattr__(self, "names", frozenset(names))
        object.__setattr__(self, "numeric", MappingProxyType(dict(numeric or {})))
        for name in self.names:
            _check_name(name)
        for name, value in self.numeric.items():
            _check_name(name)
            if not 0 <= value <= MAX_UINT64:
                raise ValueError(f"numeric attribute {name} outside unsigned 64-bit range")

    def __hash__(self) -> int:
        return hash((self.names, tuple(sorted(self.numeric.items()))))

    @property
    def empty(self) -> bool:
        return not self.names and not self.numeric

    @property
    def issuance_timestamp(self) -> int | None:
        return self.numeric.get(TIMESTAMP_ATTRIBUTE)

    def with_timestamp(self, timestamp: int) -> "AttributeSet":
        """Copy with the issuance timestamp set (replacing any present)."""
        numeric = dict(self.numeric)
        numeric[TIMESTAMP_ATTRIBUTE] = timestamp
        return AttributeSet(self.names, numeric)

    def canonical_json(self) -> str:
        return json.dumps(
            {"names": sorted(self.names), "numeric": dict(sorted(self.numeric.items()))},
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "AttributeSet":
        data = json.loads(text)
        return cls(data["names"], {k: int(v) for k, v in data["numeric"].items()})


def compare_values(lhs: int, op: str, rhs: int) -> bool:
    """Evaluate one comparison operator from the policy grammar."""
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    return lhs == rhs


def _satisfies_node(attrs: AttributeSet, node: Node) -> bool:
    if isinstance(node, Leaf):
        return node.name in attrs.names
    if isinstance(node, Cmp):
        value = attrs.numeric.get(node.name)
        return value is not None and compare_values(value, node.op, node.value)
    if isinstance(node, And):
        return all(_satisfies_node(attrs, c) for c in node.children)
    return any(_satisfies_node(attrs, c) for c in node.children)


def satisfies(attrs: AttributeSet, policy: AccessPolicy) -> bool:
    """Whether the attribute set satisfies the policy. Total function:
    absent numeric attributes make their comparisons false."""
    return _satisfies_node(attrs, policy.root)
