"""Exact boolean algebra of symbolic subsets of the free group.

The basic building block is the cone ``W(h)``: all reduced words that start
with the reduced word ``h``.  Subsets are expression trees over cones, finite
word sets and orbit preimages, combined by union / intersection / complement
/ left translation.  Every expression free of orbit-preimage atoms normalizes
to a canonical form: a finite word set together with a prefix-free antichain
of cones, pairwise disjoint.  Emptiness, disjointness and totality are exactly
decidable on normal forms, which is what makes tower certification exact.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List

from . import prefix
from .words import is_reduced, multiply


class NotNormalizable(ValueError):
    """Raised when an orbit-preimage atom blocks cone normalization."""


# ---------------------------------------------------------------------------
# normal forms


class NormalForm:
    """Finite word set ⊔ prefix-free cone antichain, in the canonical form
    of ``prefix.canonical``.

    ``words`` never meet any cone; ``cones`` are pairwise prefix-incomparable.
    A cone base of "" denotes the whole group.
    """

    __slots__ = ("words", "cones")

    def __init__(self, words: Iterable[str] = (), cones: Iterable[str] = ()):
        w, c = prefix.canonical(words, cones)
        self.words: FrozenSet[str] = w
        self.cones: FrozenSet[str] = c

    def contains(self, word: str) -> bool:
        if word in self.words:
            return True
        return any(word.startswith(c) for c in self.cones)

    def is_empty(self) -> bool:
        return not self.words and not self.cones

    def is_full(self) -> bool:
        return "" in self.cones

    def depth(self) -> int:
        lens = [len(w) for w in self.words] + [len(c) for c in self.cones]
        return max(lens, default=0)

    def union(self, other: "NormalForm") -> "NormalForm":
        return NormalForm(self.words | other.words, self.cones | other.cones)

    def inter(self, other: "NormalForm") -> "NormalForm":
        words = {u for u in self.words if prefix.under(u, other.cones)}
        words.update(
            u for u in other.words if u in self.words or prefix.under(u, self.cones)
        )
        return NormalForm(words, prefix.meet(self.cones, other.cones))

    def complement(self) -> "NormalForm":
        return NormalForm(*prefix.complement(self.words, self.cones))

    def minus(self, other: "NormalForm") -> "NormalForm":
        return self.inter(other.complement())

    def translate(self, g: str) -> "NormalForm":
        return NormalForm(*prefix.translate(g, self.words, self.cones))

    def equals(self, other: "NormalForm") -> bool:
        return self.words == other.words and self.cones == other.cones

    def __repr__(self) -> str:
        parts = [repr(w) if w else "ε" for w in sorted(self.words)]
        parts += [f"W({c!r})" if c else "ALL" for c in sorted(self.cones)]
        return "NF{" + ", ".join(parts) + "}"


# ---------------------------------------------------------------------------
# expression trees


class GroupSubset:
    """Base class for symbolic subset expressions."""

    def contains(self, word: str) -> bool:
        raise NotImplementedError

    def normal_form(self) -> NormalForm:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def translate(self, g: str) -> "GroupSubset":
        return translate(g, self)

    def inter_is_empty(self, other: "GroupSubset") -> bool:
        return are_disjoint(self, other)

    def __or__(self, other: "GroupSubset") -> "GroupSubset":
        return UnionSet([self, other])

    def __and__(self, other: "GroupSubset") -> "GroupSubset":
        return InterSet([self, other])

    def __invert__(self) -> "GroupSubset":
        return ComplementSet(self)


class ConeSet(GroupSubset):
    def __init__(self, base: str):
        if not is_reduced(base):
            raise ValueError(f"cone base must be reduced: {base!r}")
        self.base = base

    def contains(self, word: str) -> bool:
        return word.startswith(self.base)

    def normal_form(self) -> NormalForm:
        return NormalForm(cones=[self.base])

    def to_json(self) -> dict:
        return {"kind": "cone", "base": self.base}

    def __repr__(self) -> str:
        return f"W({self.base!r})"


class FiniteSet(GroupSubset):
    def __init__(self, words: Iterable[str]):
        ws = set()
        for w in words:
            if not is_reduced(w):
                raise ValueError(f"word must be reduced: {w!r}")
            ws.add(w)
        self.words = frozenset(ws)

    def contains(self, word: str) -> bool:
        return word in self.words

    def normal_form(self) -> NormalForm:
        return NormalForm(words=self.words)

    def to_json(self) -> dict:
        return {"kind": "finite", "words": sorted(self.words)}

    def __repr__(self) -> str:
        return f"Finite({sorted(self.words)})"


class UnionSet(GroupSubset):
    def __init__(self, parts: Iterable[GroupSubset]):
        self.parts = list(parts)

    def contains(self, word: str) -> bool:
        return any(p.contains(word) for p in self.parts)

    def normal_form(self) -> NormalForm:
        out = NormalForm()
        for p in self.parts:
            out = out.union(p.normal_form())
        return out

    def to_json(self) -> dict:
        return {"kind": "union", "parts": [p.to_json() for p in self.parts]}


class InterSet(GroupSubset):
    def __init__(self, parts: Iterable[GroupSubset]):
        self.parts = list(parts)

    def contains(self, word: str) -> bool:
        return all(p.contains(word) for p in self.parts)

    def normal_form(self) -> NormalForm:
        out = NormalForm(cones=[""])
        for p in self.parts:
            out = out.inter(p.normal_form())
        return out

    def to_json(self) -> dict:
        return {"kind": "inter", "parts": [p.to_json() for p in self.parts]}


class ComplementSet(GroupSubset):
    def __init__(self, inner: GroupSubset):
        self.inner = inner

    def contains(self, word: str) -> bool:
        return not self.inner.contains(word)

    def normal_form(self) -> NormalForm:
        return self.inner.normal_form().complement()

    def to_json(self) -> dict:
        return {"kind": "compl", "inner": self.inner.to_json()}


class TranslateSet(GroupSubset):
    """Lazy left translate g·S, used when S is not cone-expressible."""

    def __init__(self, g: str, inner: GroupSubset):
        self.g = g
        self.inner = inner

    def contains(self, word: str) -> bool:
        from .words import inverse as inv

        return self.inner.contains(multiply(inv(self.g), word))

    def normal_form(self) -> NormalForm:
        return self.inner.normal_form().translate(self.g)

    def to_json(self) -> dict:
        return {"kind": "translate", "g": self.g, "inner": self.inner.to_json()}


class NormalizedSet(GroupSubset):
    """A subset already in normal form."""

    def __init__(self, nf: NormalForm):
        self.nf = nf

    def contains(self, word: str) -> bool:
        return self.nf.contains(word)

    def normal_form(self) -> NormalForm:
        return self.nf

    def to_json(self) -> dict:
        parts: List[dict] = []
        if self.nf.words:
            parts.append({"kind": "finite", "words": sorted(self.nf.words)})
        for c in sorted(self.nf.cones):
            parts.append({"kind": "cone", "base": c})
        if len(parts) == 1:
            return parts[0]
        return {"kind": "union", "parts": parts}

    def __repr__(self) -> str:
        return f"Normalized({self.nf!r})"


class OrbitPreimage(GroupSubset):
    """{g : g·z ∈ U} for a boundary point z and a clopen set U.

    Membership is decided by computing a sufficiently deep prefix of g·z;
    no cone normal form exists in general.
    """

    def __init__(self, point, clopen):
        self.point = point
        self.clopen = clopen

    def contains(self, word: str) -> bool:
        depth = self.clopen.depth()
        # cancellation eats at most |word| letters, so this prefix of the
        # moved point is long enough to settle membership
        prefix = self.point.prefix(len(word) + depth)
        moved = multiply(word, prefix)[:depth]
        return self.clopen.contains_point_prefix(moved)

    def normal_form(self) -> NormalForm:
        raise NotNormalizable("orbit-preimage atoms have no cone normal form")

    def to_json(self) -> dict:
        return {
            "kind": "orbitpre",
            "point": self.point.to_json(),
            "clopen": self.clopen.to_json(),
        }


# ---------------------------------------------------------------------------
# module-level operations (the public verbs)


def cone(base: str) -> ConeSet:
    return ConeSet(base)


def finite(words: Iterable[str]) -> FiniteSet:
    return FiniteSet(words)


def full_group() -> NormalizedSet:
    return NormalizedSet(NormalForm(cones=[""]))


def empty_set() -> NormalizedSet:
    return NormalizedSet(NormalForm())


def translate(g: str, s: GroupSubset) -> GroupSubset:
    """Left translate; normalized whenever s is cone-expressible."""
    try:
        return NormalizedSet(s.normal_form().translate(g))
    except NotNormalizable:
        return TranslateSet(g, s)


def is_empty(s: GroupSubset) -> bool:
    return s.normal_form().is_empty()


def is_all(s: GroupSubset) -> bool:
    return s.normal_form().complement().is_empty()


def are_disjoint(s: GroupSubset, t: GroupSubset) -> bool:
    return s.normal_form().inter(t.normal_form()).is_empty()


def sets_equal(s: GroupSubset, t: GroupSubset) -> bool:
    return s.normal_form().equals(t.normal_form())


def subset_from_json(data: dict) -> GroupSubset:
    kind = data["kind"]
    if kind == "cone":
        return ConeSet(data["base"])
    if kind == "finite":
        return FiniteSet(data["words"])
    if kind == "union":
        return UnionSet(subset_from_json(p) for p in data["parts"])
    if kind == "inter":
        return InterSet(subset_from_json(p) for p in data["parts"])
    if kind == "compl":
        return ComplementSet(subset_from_json(data["inner"]))
    if kind == "translate":
        return TranslateSet(data["g"], subset_from_json(data["inner"]))
    if kind == "orbitpre":
        from .boundary import clopen_from_json, point_from_json

        return OrbitPreimage(
            point_from_json(data["point"]), clopen_from_json(data["clopen"])
        )
    raise ValueError(f"unknown subset node kind: {kind!r}")
