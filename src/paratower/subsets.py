"""Exact boolean algebra of subsets of the free group.

The basic building block is the cone ``W(h)``: all reduced words that start
with the reduced word ``h``.  A tower set is one of two kinds.  A finite
union of cones and words is held in its normal form: a finite word set
together with a prefix-free antichain of cones, pairwise disjoint.  Normal
forms are closed under union, intersection, complement and left
translation, and emptiness, disjointness and totality are exactly decidable
on them, which is what makes tower certification exact.  An orbit preimage
{g : g·z ∈ U} of a boundary point z and a clopen set U has no normal form,
but each of its left translates is again an orbit preimage.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Union

from . import prefix
from .words import are_reduced, multiply


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

    @classmethod
    def _in_form(cls, words: Iterable[str], cones: Iterable[str]) -> "NormalForm":
        """The form of words and cones that are canonical already, as
        ``inter`` and ``prefix.complement`` build them."""
        nf = object.__new__(cls)
        nf.words = frozenset(words)
        nf.cones = frozenset(cones)
        return nf

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
        # canonical: a word of one side under a cone of the meet would lie
        # under a cone of its own side, and a complete family of the meet's
        # cones is a family of one side, which cannot hold its parent too
        mine, theirs = sorted(self.cones), sorted(other.cones)
        words = {u for u in self.words if prefix.under(u, theirs)}
        words.update(u for u in other.words if u in self.words or prefix.under(u, mine))
        return NormalForm._in_form(words, prefix.meet(self.cones, other.cones))

    def complement(self) -> "NormalForm":
        return NormalForm._in_form(*prefix.complement(self.words, self.cones))

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
# tower sets


class NormalizedSet:
    """A tower set with a normal form: a cone, a finite set, or a union of
    these."""

    __slots__ = ("nf",)

    def __init__(self, nf: NormalForm):
        self.nf = nf

    def contains(self, word: str) -> bool:
        return self.nf.contains(word)

    def normal_form(self) -> NormalForm:
        return self.nf

    def translate(self, g: str) -> "NormalizedSet":
        return NormalizedSet(self.nf.translate(g))

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


class OrbitPreimage:
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

    def translate(self, g: str) -> "OrbitPreimage":
        # g·{h : h·z ∈ U} = {h : h·z ∈ g·U}
        return OrbitPreimage(self.point, self.clopen.act(g))

    def to_json(self) -> dict:
        return {
            "kind": "orbitpre",
            "point": self.point.to_json(),
            "clopen": self.clopen.to_json(),
        }


GroupSubset = Union[NormalizedSet, OrbitPreimage]


# ---------------------------------------------------------------------------
# module-level operations (the public verbs)


def _reduced(words: List[str], what: str) -> List[str]:
    if not are_reduced(words):
        raise ValueError(f"{what} must be a list of reduced words over a, A, b, B: {words!r}")
    return words


def cone(base: str) -> NormalizedSet:
    return NormalizedSet(NormalForm(cones=_reduced([base], "a cone base")))


def finite(words: List[str]) -> NormalizedSet:
    return NormalizedSet(NormalForm(words=_reduced(words, "finite words")))


def empty_set() -> NormalizedSet:
    return NormalizedSet(NormalForm())


def translate(g: str, s: GroupSubset) -> GroupSubset:
    """The left translate g·s, of the same kind as s."""
    return s.translate(g)


def _form_from_json(data: dict) -> NormalForm:
    """The normal form of a ``cone``, ``finite`` or ``union`` set; words and
    parts are read only from lists."""
    kind = data["kind"]
    if kind == "cone":
        return cone(data["base"]).nf
    if kind == "finite":
        return finite(data["words"]).nf
    if kind == "union":
        parts = data["parts"]
        if not isinstance(parts, list):
            raise ValueError(f"union parts must be a list, not {parts!r}")
        forms = [_form_from_json(p) for p in parts]
        return NormalForm([w for f in forms for w in f.words], [c for f in forms for c in f.cones])
    raise ValueError(f"a {kind!r} set is not a union of cones and words")


def subset_from_json(data: dict) -> GroupSubset:
    """A tower set of F2: an ``orbitpre`` set, or a ``cone``, ``finite`` or
    ``union`` set in normal form.  Any other kind is a ValueError."""
    if data["kind"] == "orbitpre":
        from .boundary import boundary_from_json, point_from_json

        return OrbitPreimage(
            point_from_json(data["point"]), boundary_from_json(data["clopen"])
        )
    return NormalizedSet(_form_from_json(data))
