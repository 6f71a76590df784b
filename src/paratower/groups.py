"""The factors K of products, and the four ambient groups of tower families
and spaces.

A factor K is a finite group, whose elements are string labels, or the
integers.  Both enumerate their elements (``element``, ``index``), which is
the order greedy colourings of K follow.  The ambient groups F2, F2 × K (K
finite), F2 × F2 and the rank-3 free group F3 share one protocol:
``identity``, ``mul``, ``inv``, ``ball``, ``ball_size``, ``elem_json``,
``elem_from_json``, ``word_part`` and ``to_json``.  F2 and F3 elements are
reduced words; product elements are ``(word, K label)`` or ``(word, word)``
tuples, written to JSON as two-element lists.  F3 only appears as an
ambient group for coset-sliced towers, so beside the protocol it has just a
canonical right-coset factorization over the a,b subgroup.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import words as fw
from .words import inverse, multiply

ProductElem = Tuple[str, str]


class FiniteGroup:
    """A finite group given by its element labels and multiplication table."""

    def __init__(self, name: str, elements: List[str], table: Dict[Tuple[str, str], str]):
        self.name = name
        self.elements = tuple(elements)
        self.table = table
        self.identity = elements[0]
        for e in elements:
            if table[(self.identity, e)] != e or table[(e, self.identity)] != e:
                raise ValueError("first element must be the identity")
        self._inv = {}
        for e in elements:
            for f in elements:
                if table[(e, f)] == self.identity:
                    self._inv[e] = f
        if len(self._inv) != len(elements):
            raise ValueError("multiplication table has no inverses")
        self._index = {e: i for i, e in enumerate(self.elements)}

    def mul(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def inv(self, a: str) -> str:
        return self._inv[a]

    def element(self, i: int) -> str:
        return self.elements[i]

    def index(self, k) -> int:
        """k's place in the element list; a ValueError if k is no element."""
        i = self._index.get(k) if isinstance(k, str) else None
        if i is None:
            raise ValueError(f"{k!r} is not an element of {self.name}")
        return i

    def ordered(self, elems) -> list:
        """A set of elements as it is written: in the order given."""
        return list(elems)

    def from_text(self, text: str) -> str:
        return text

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name})"

    def to_json(self) -> dict:
        return {"name": self.name, "elements": list(self.elements)}


# the multiplication table has order² entries, and a payload names the order
MAX_CYCLIC_ORDER = 64


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError(f"a cyclic group needs a positive order, not {n}")
    if n > MAX_CYCLIC_ORDER:
        raise ValueError(f"cyclic group order {n} is above the cap of {MAX_CYCLIC_ORDER}")
    elems = [str(i) for i in range(n)]
    table = {(str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)}
    return FiniteGroup(f"Z/{n}", elems, table)


def _named_group(name) -> FiniteGroup:
    if isinstance(name, str) and name.startswith("Z/") and name[2:].isdigit():
        return cyclic_group(int(name[2:]))
    raise ValueError(f"unknown finite group: {name!r}")


def finite_group_from_json(data: dict) -> FiniteGroup:
    """The group a record ``to_json`` wrote names; a ValueError unless the
    record is the named group's own, its elements listed in their order."""
    group = _named_group(data["name"])
    if data != group.to_json():
        raise ValueError(f"the record of {group.name} does not list its own elements")
    return group


# a greedy colouring of Z colours the 2|k| integers before k, so the integers
# it is asked about stay within this size
MAX_INTEGER = 20_000


class IntegerGroup:
    """The integers under addition, enumerated 0, 1, -1, 2, -2, ..."""

    name = "Z"
    identity = 0

    def mul(self, a: int, b: int) -> int:
        return a + b

    def inv(self, a: int) -> int:
        return -a

    def element(self, i: int) -> int:
        return (i + 1) // 2 if i % 2 else -(i // 2)

    def index(self, k) -> int:
        """k's place in the enumeration; a ValueError unless k is an int, not
        a bool, of size at most MAX_INTEGER."""
        if type(k) is not int or abs(k) > MAX_INTEGER:
            raise ValueError(f"{k!r} is not an integer of size at most {MAX_INTEGER}")
        return 2 * k - 1 if k > 0 else -2 * k

    def ordered(self, elems) -> list:
        """A set of integers as it is written: in increasing order."""
        return sorted(elems)

    def from_text(self, text: str) -> int:
        return int(text)

    def to_json(self) -> str:
        return "Z"


def factor_from_json(data):
    """The factor K written as "Z", as a finite group's object, or by the
    bare name "Z/n"."""
    if data == "Z":
        return IntegerGroup()
    return finite_group_from_json(data) if isinstance(data, dict) else _named_group(data)


# ---------------------------------------------------------------------------
# the ambient groups


class F2Group:
    """The rank-2 free group; its elements are reduced words over a, A, b, B.

    It also holds the word encoding that F3 shares."""

    kind = "F2"
    k_group: Optional[FiniteGroup] = None
    identity = ""

    def mul(self, g: str, h: str) -> str:
        return multiply(g, h)

    def inv(self, g: str) -> str:
        return inverse(g)

    def ball(self, r: int) -> list:
        return list(fw.ball(r))

    def ball_size(self, r: int) -> int:
        """Number of elements ``ball(r)`` lists."""
        return fw.ball_size(r)

    def elem_json(self, g):
        return g

    def elem_from_json(self, data):
        """A reduced word; anything else is a ValueError."""
        if not fw.are_reduced([data]):
            raise ValueError(f"not a reduced word over a, A, b, B: {data!r}")
        return data

    def word_part(self, g) -> str:
        """The free-group word of g: g itself, or its first coordinate."""
        return g

    def to_json(self) -> dict:
        return {"kind": self.kind}


_F3_INV = {"a": "A", "A": "a", "b": "B", "B": "b", "c": "C", "C": "c"}


class F3Group(F2Group):
    """The rank-3 free group over a, b, c; elements are reduced words."""

    kind = "F3"

    def mul(self, g: str, h: str) -> str:
        stack: List[str] = []
        for x in g + h:
            if x not in _F3_INV:
                raise ValueError(f"not a rank-3 generator letter: {x!r}")
            if stack and stack[-1] == _F3_INV[x]:
                stack.pop()
            else:
                stack.append(x)
        return "".join(stack)

    def inv(self, g: str) -> str:
        return "".join(_F3_INV[x] for x in reversed(g))

    def elem_from_json(self, data):
        if not isinstance(data, str) or self.mul(data, "") != data:
            raise ValueError(f"not a reduced word over a, A, b, B, c, C: {data!r}")
        return data

    def ball(self, r: int) -> List[str]:
        out = [""]
        layer = [""]
        for _ in range(r):
            layer = [w + x for w in layer for x in _F3_INV if not w or x != _F3_INV[w[-1]]]
            out.extend(layer)
        return out

    def ball_size(self, r: int) -> int:
        return 1 + 3 * (5**r - 1) // 2


class F2xF2Group(F2Group):
    """F2 × F2; elements are pairs of reduced words.

    It also holds the pair encoding that F2 × K shares."""

    kind = "F2xF2"
    identity = ("", "")

    def mul(self, g, h):
        return (multiply(g[0], h[0]), multiply(g[1], h[1]))

    def inv(self, g):
        return (inverse(g[0]), inverse(g[1]))

    def ball(self, r: int) -> list:
        b = list(fw.ball(r))
        return [(u, v) for u in b for v in b]

    def ball_size(self, r: int) -> int:
        return fw.ball_size(r) ** 2

    def elem_json(self, g):
        return list(g)

    def elem_from_json(self, data):
        if not (isinstance(data, list) and len(data) == 2 and self._valid(*data)):
            raise ValueError(f"not an element of {self.kind}: {data!r}")
        return tuple(data)

    def _valid(self, word, second) -> bool:
        return fw.are_reduced([word, second])

    def word_part(self, g) -> str:
        return g[0]


class F2xKGroup(F2xF2Group):
    """F2 × K for a finite K; elements are (reduced word, K label) pairs."""

    kind = "F2xK"

    def __init__(self, k_group: FiniteGroup):
        self.k_group = k_group
        self.identity = ("", k_group.identity)

    def mul(self, g: ProductElem, h: ProductElem) -> ProductElem:
        return (multiply(g[0], h[0]), self.k_group.mul(g[1], h[1]))

    def inv(self, g: ProductElem) -> ProductElem:
        return (inverse(g[0]), self.k_group.inv(g[1]))

    def _valid(self, word, label) -> bool:
        return fw.are_reduced([word]) and label in self.k_group.elements

    def ball(self, r: int) -> List[ProductElem]:
        return [(w, e) for w in fw.ball(r) for e in self.k_group.elements]

    def ball_size(self, r: int) -> int:
        return len(self.k_group) * fw.ball_size(r)

    def to_json(self) -> dict:
        return {"kind": self.kind, "k": self.k_group.to_json()}


_KINDS = {"F2": F2Group, "F3": F3Group, "F2xF2": F2xF2Group}


def make_group(kind: str, k_group: Optional[FiniteGroup] = None):
    """The ambient group named ``kind``; F2xK needs its finite factor."""
    if kind == "F2xK":
        if k_group is None:
            raise ValueError("an F2xK group needs its finite factor k")
        return F2xKGroup(k_group)
    if kind not in _KINDS:
        raise ValueError(f"unknown group kind: {kind!r}")
    return _KINDS[kind]()


def group_from_json(data: dict):
    """The group of ``{"kind": ..., "k": ...}``, the form ``to_json`` writes."""
    if not isinstance(data, dict):
        raise ValueError(f"a group must be an object, not {data!r}")
    k = data.get("k")
    return make_group(data.get("kind"), None if k is None else finite_group_from_json(k))


def f3_factor(w: str) -> Tuple[str, str]:
    """Split a reduced rank-3 word as (a,b-part) · (coset representative).

    The representative is the suffix starting at the first c or C letter; it
    is the canonical shortest element of its right coset over the a,b
    subgroup, and the factorization has no cancellation.
    """
    for i, x in enumerate(w):
        if x in ("c", "C"):
            return w[:i], w[i:]
    return w, ""
