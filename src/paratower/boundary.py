"""The Cantor boundary of the rank-2 free group as an exact clopen algebra.

Points are infinite reduced words; the basic clopen sets are cylinders
``[w]`` (all boundary points starting with the nonempty reduced word ``w``).
Every clopen set is a finite union of cylinders and has a unique minimal
antichain representation, which makes equality, inclusion and emptiness
exact.  The group acts by left multiplication; the metric is
``d(x, y) = 2^(-common prefix length)``.

The geodesic averaging map assigns to a boundary point the uniform
probability measure on its N shortest prefixes; all of its evaluations are
exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import prefix
from .groups import FiniteGroup, finite_group_from_json
from .subsets import NormalForm
from .words import (
    LETTERS,
    are_reduced,
    inverse_letter,
    legal_next_letters,
    multiply,
    words_of_length,
)


class DepthInsufficient(ValueError):
    """A cylinder is too shallow to determine the requested quantity."""


# ---------------------------------------------------------------------------
# boundary points


class BoundaryPoint:
    """An infinite reduced word, given by a rule producing each prefix."""

    def prefix(self, k: int) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class AperiodicPoint(BoundaryPoint):
    """The aperiodic word a b a b^2 a b^3 a b^4 ...  (trivial stabilizer)."""

    def __init__(self) -> None:
        self._buf = "a"
        self._block = 0

    def prefix(self, k: int) -> str:
        while len(self._buf) < k:
            self._block += 1
            self._buf += "b" * self._block + "a"
        return self._buf[:k]

    def to_json(self) -> dict:
        return {"kind": "aperiodic"}


class PeriodicPoint(BoundaryPoint):
    """head · cycle · cycle · ... ; the concatenation must stay reduced."""

    def __init__(self, head: str, cycle: str):
        if not cycle:
            raise ValueError("cycle must be nonempty")
        probe = head + cycle * 3
        for i in range(len(probe) - 1):
            if probe[i] == inverse_letter(probe[i + 1]):
                raise ValueError("head/cycle concatenation is not reduced")
        self.head = head
        self.cycle = cycle

    def prefix(self, k: int) -> str:
        s = self.head
        while len(s) < k:
            s += self.cycle
        return s[:k]

    def to_json(self) -> dict:
        return {"kind": "periodic", "head": self.head, "cycle": self.cycle}


class TranslatedPoint(BoundaryPoint):
    """g · z for a group element g and a base point z."""

    def __init__(self, g: str, base: BoundaryPoint):
        self.g = g
        self.base = base

    def prefix(self, k: int) -> str:
        raw = multiply(self.g, self.base.prefix(k + len(self.g)))
        return raw[:k]

    def to_json(self) -> dict:
        return {"kind": "translate", "g": self.g, "base": self.base.to_json()}


def _point_words(*ws) -> tuple:
    if not are_reduced(list(ws)):
        raise ValueError(f"point words must be reduced words over a, A, b, B: {list(ws)!r}")
    return ws


def point_from_json(data: dict) -> BoundaryPoint:
    kind = data["kind"]
    if kind == "aperiodic":
        return AperiodicPoint()
    if kind == "periodic":
        return PeriodicPoint(*_point_words(data["head"], data["cycle"]))
    if kind == "translate":
        (g,) = _point_words(data["g"])
        return TranslatedPoint(g, point_from_json(data["base"]))
    raise ValueError(f"unknown point kind: {kind!r}")


# ---------------------------------------------------------------------------
# clopen sets of the plain boundary


class ClopenSet:
    """A clopen subset of the boundary in the canonical form of
    ``prefix.canonical``; the whole boundary is ``full`` with no bases."""

    __slots__ = ("full", "bases")

    def __init__(self, bases: Iterable[str] = (), full: bool = False):
        if not full:
            _, bases = prefix.canonical(None, bases)
            full = "" in bases
        self.full = full
        self.bases: FrozenSet[str] = frozenset() if full else bases

    @classmethod
    def _in_form(cls, bases: Iterable[str]) -> "ClopenSet":
        """The set of bases that are canonical already, as ``prefix.meet``
        and ``prefix.complement`` return them, and as ``act`` finds fewer
        than three pieces."""
        s = object.__new__(cls)
        s.full = "" in bases
        s.bases = frozenset() if s.full else frozenset(bases)
        return s

    # -- constructors

    @staticmethod
    def full_set() -> "ClopenSet":
        return ClopenSet(full=True)

    @staticmethod
    def empty() -> "ClopenSet":
        return ClopenSet()

    @staticmethod
    def cylinder(w: str) -> "ClopenSet":
        """The cylinder [w]; a word that is not reduced names none and is a
        ValueError."""
        if not w:
            return ClopenSet.full_set()
        return ClopenSet(check_bases([w]))

    # -- predicates

    def is_empty(self) -> bool:
        return not self.full and not self.bases

    def is_full(self) -> bool:
        return self.full

    def depth(self) -> int:
        return max((len(b) for b in self.bases), default=0)

    def equals(self, other: "ClopenSet") -> bool:
        return self.full == other.full and self.bases == other.bases

    def is_subset(self, other: "ClopenSet") -> bool:
        # both sides are canonical minimal antichains, so a fully covered
        # cylinder always has a base at or above it on the other side
        if other.full or self.is_empty():
            return True
        if self.full:
            return False
        ordered = sorted(other.bases)
        return all(prefix.under(b, ordered) for b in self.bases)

    def are_disjoint(self, other: "ClopenSet") -> bool:
        return self.inter(other).is_empty()

    def contains_point_prefix(self, p: str) -> bool:
        """Membership of the point determined by prefix p (len(p) ≥ depth)."""
        if self.full:
            return True
        if len(p) < self.depth():
            raise DepthInsufficient(
                f"prefix of length {len(p)} cannot settle membership at depth {self.depth()}"
            )
        return any(p.startswith(b) for b in self.bases)

    # -- algebra

    def union(self, other: "ClopenSet") -> "ClopenSet":
        if self.full or other.full:
            return ClopenSet.full_set()
        return ClopenSet(self.bases | other.bases)

    @staticmethod
    def union_all(sets: Iterable["ClopenSet"]) -> "ClopenSet":
        """The union of many sets, canonicalised once."""
        bases: List[str] = []
        for s in sets:
            if s.full:
                return ClopenSet.full_set()
            bases.extend(s.bases)
        return ClopenSet(bases)

    def inter(self, other: "ClopenSet") -> "ClopenSet":
        if self.full:
            return other
        if other.full:
            return self
        return ClopenSet._in_form(prefix.meet(self.bases, other.bases))

    def complement(self) -> "ClopenSet":
        if self.full:
            return ClopenSet.empty()
        _, bases = prefix.complement(None, self.bases)
        return ClopenSet._in_form(bases)

    def minus(self, other: "ClopenSet") -> "ClopenSet":
        return self.inter(other.complement())

    def act(self, g: str) -> "ClopenSet":
        """Image under the homeomorphism given by left multiplication by g."""
        if self.full:
            return self
        _, bases = prefix.translate(g, None, self.bases)
        # the pieces are disjoint cylinders, and a split or a sibling family
        # has three at least, so fewer pieces are canonical already
        return ClopenSet._in_form(bases) if len(bases) < 3 else ClopenSet(bases)

    def refine(self, d: int) -> List[str]:
        """Depth-d cylinder bases whose union is this set (d ≥ depth)."""
        if self.full:
            return words_of_length(d)
        if d < self.depth():
            raise DepthInsufficient(f"cannot refine depth-{self.depth()} set at depth {d}")
        out: List[str] = []
        for b in sorted(self.bases):
            layer = [b]
            for _ in range(d - len(b)):
                layer = [w + y for w in layer for y in legal_next_letters(w)]
            out.extend(layer)
        return out

    def sorted_bases(self) -> List[str]:
        return sorted(self.bases, key=lambda w: (len(w), w))

    def to_json(self) -> dict:
        if self.full:
            return {"space": "boundary", "kind": "full"}
        return {"space": "boundary", "kind": "antichain", "words": sorted(self.bases)}

    def __repr__(self) -> str:
        if self.full:
            return "Clopen(FULL)"
        return "Clopen{" + ", ".join(f"[{b}]" for b in sorted(self.bases)) + "}"


# ClopenSet is never changed after construction, so one empty set serves
# every missing product slice
_EMPTY = ClopenSet()


def first_overlap(sets: Sequence[ClopenSet]) -> Optional[Tuple[int, int]]:
    """Indices i < j of two of the sets that meet, or None when they are
    pairwise disjoint; one sorted scan of all their bases."""
    pair = prefix.first_overlap(
        (b, k) for k, s in enumerate(sets) for b in ([""] if s.full else s.bases)
    )
    return None if pair is None else (min(pair), max(pair))


def orbit_word(point: BoundaryPoint, s: ClopenSet) -> str:
    """A word h with h·point in the nonempty set s, so every orbit meets s.

    With c the first base of s (shortest, then lex) and z₁ the first letter
    of the point, c·z is c z₁ z₂ … with no cancellation unless c ends in
    z₁⁻¹; then one letter y outside {z₁, z₁⁻¹} after c keeps c·y·z reduced."""
    if s.is_empty():
        raise ValueError("the empty set holds no orbit point")
    c = "" if s.full else s.sorted_bases()[0]
    z1 = point.prefix(1)
    if c and c[-1] == inverse_letter(z1):
        c += next(y for y in LETTERS if y not in (z1, inverse_letter(z1)))
    return c


def shrink(u: ClopenSet, eps: Fraction) -> ClopenSet:
    """Points of u at distance more than eps from the complement.

    With the 2^(-lcp) metric this is exactly a cylinder-dropping operation at
    the depth where 2^(-d) first falls below eps.
    """
    comp = u.complement()
    if comp.is_empty() or u.is_empty():
        return u
    if eps >= 1:
        return ClopenSet.empty()
    d_eps = 0
    while Fraction(1, 2**d_eps) > eps:
        d_eps += 1
    d = max(u.depth(), d_eps)
    comp_bases = comp.bases
    keep = []
    for w in u.refine(d):
        # lcp between [w] and any complement point is attained at the
        # divergence from a complement base
        t_max = 0
        for v in comp_bases:
            n = min(len(w), len(v))
            t = 0
            while t < n and w[t] == v[t]:
                t += 1
            t_max = max(t_max, t)
        if Fraction(1, 2**t_max) > eps:
            keep.append(w)
    return ClopenSet(keep)


# ---------------------------------------------------------------------------
# clopen sets of the product space  boundary × K


class ProductClopen:
    """A clopen subset of (boundary × K) as one boundary slice per K element."""

    def __init__(self, k_group: FiniteGroup, slices: Dict[str, ClopenSet]):
        self.k = k_group
        self.slices = {e: slices.get(e, _EMPTY) for e in k_group.elements}

    @staticmethod
    def full_set(k_group: FiniteGroup) -> "ProductClopen":
        return ProductClopen(k_group, {e: ClopenSet.full_set() for e in k_group.elements})

    @staticmethod
    def uniform(k_group: FiniteGroup, c: ClopenSet) -> "ProductClopen":
        return ProductClopen(k_group, {e: c for e in k_group.elements})

    def is_empty(self) -> bool:
        return all(s.is_empty() for s in self.slices.values())

    def depth(self) -> int:
        return max(s.depth() for s in self.slices.values())

    def _pairs(self, other: "ProductClopen"):
        """(own slice, other's slice) at each label; a ValueError when the
        two sets lie over different groups K."""
        k, o = self.k, other.k
        if o is not k and (o.elements, o.table) != (k.elements, k.table):
            raise ValueError(f"a set over {k.name} cannot be compared with one over {o.name}")
        return ((self.slices[e], other.slices[e]) for e in k.elements)

    def equals(self, other: "ProductClopen") -> bool:
        return all(a.equals(b) for a, b in self._pairs(other))

    def is_subset(self, other: "ProductClopen") -> bool:
        return all(a.is_subset(b) for a, b in self._pairs(other))

    def are_disjoint(self, other: "ProductClopen") -> bool:
        return all(a.are_disjoint(b) for a, b in self._pairs(other))

    def union(self, other: "ProductClopen") -> "ProductClopen":
        return ProductClopen(
            self.k, {e: self.slices[e].union(other.slices[e]) for e in self.k.elements}
        )

    def inter(self, other: "ProductClopen") -> "ProductClopen":
        return ProductClopen(
            self.k, {e: self.slices[e].inter(other.slices[e]) for e in self.k.elements}
        )

    def complement(self) -> "ProductClopen":
        return ProductClopen(
            self.k, {e: self.slices[e].complement() for e in self.k.elements}
        )

    def minus(self, other: "ProductClopen") -> "ProductClopen":
        return self.inter(other.complement())

    def act(self, g: Tuple[str, str]) -> "ProductClopen":
        h, e = g
        return ProductClopen(
            self.k,
            {self.k.mul(e, lbl): self.slices[lbl].act(h) for lbl in self.k.elements},
        )

    def to_json(self) -> dict:
        return {
            "space": "product",
            "k": self.k.to_json(),
            "slices": {e: self.slices[e].to_json() for e in self.k.elements},
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {s!r}" for e, s in self.slices.items())
        return "ProductClopen{" + inner + "}"


def check_bases(bases: List[str]) -> List[str]:
    """Return bases if it is a list of reduced words over a, A, b, B, else
    raise ValueError.  Bases read from outside the program pass through
    here; ``ClopenSet`` itself trusts its bases."""
    if not are_reduced(bases):
        raise ValueError(f"cylinder bases must be reduced words over a, A, b, B: {bases!r}")
    return bases


def boundary_from_json(data: dict) -> ClopenSet:
    """A clopen set of the plain boundary; any other set is a ValueError."""
    if data["space"] != "boundary":
        raise ValueError(f"expected a boundary set, not a {data['space']!r} set")
    if data["kind"] == "full":
        return ClopenSet.full_set()
    if data["kind"] != "antichain":
        raise ValueError(f"unknown boundary set kind: {data['kind']!r}")
    return ClopenSet(check_bases(data["words"]))


def product_from_json(k_group: FiniteGroup, data: dict) -> ProductClopen:
    """A clopen set of boundary × k_group; a set of another space or over
    another K, or a slice at a label outside K, is a ValueError."""
    if data["space"] != "product":
        raise ValueError(f"expected a product set, not a {data['space']!r} set")
    if data["k"] != k_group.to_json():
        raise ValueError(f"a set over {data['k']!r} is not a set over {k_group.name}")
    slices = data["slices"]
    if not isinstance(slices, dict):
        raise ValueError("the slices of a product set must be an object")
    outside = [e for e in slices if e not in k_group.elements]
    if outside:
        raise ValueError(f"slice labels {outside!r} are not elements of {k_group.name}")
    return ProductClopen(k_group, {e: boundary_from_json(s) for e, s in slices.items()})


def clopen_from_json(data: dict):
    if data["space"] == "boundary":
        return boundary_from_json(data)
    if data["space"] == "product":
        return product_from_json(finite_group_from_json(data["k"]), data)
    raise ValueError(f"unknown clopen space: {data['space']!r}")


# ---------------------------------------------------------------------------
# geodesic averaging measures


class GeodesicMap:
    """x ↦ uniform measure on the prefixes of x of lengths 0..N-1.

    Locally constant at depth N; the translation defect is bounded by
    2·|g|/N because two shifted geodesic segments differ in at most 2·|g|
    points.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("depth must be positive")
        self.n = depth

    def _key_sums(
        self, nfs: Sequence[NormalForm], weights: Sequence[Fraction], q: int = 1
    ) -> Tuple[int, Tuple[Dict[str, int], Dict[str, List[str]]]]:
        """(L, ``prefix.branch_sums`` over the forms' words and bases), L the
        weights' common denominator.  A form has nothing below a base, so
        the number of the N shortest prefixes of x in nfs[i] adds up along
        x's path: 1 at a word of depth below N, N − t at a base of depth
        t < N.  A key's sum is Σ weights[i]·L·q times these on its cells."""
        den = math.lcm(*(w.denominator for w in weights))
        own: Dict[str, int] = {}
        for w, nf in zip(weights, nfs, strict=True):
            w = w.numerator * (den // w.denominator) * q
            for x in nf.words:
                own[x] = own.get(x, 0) + (w if len(x) < self.n else 0)
            for b in nf.cones:
                own[b] = own.get(b, 0) + w * max(0, self.n - len(b))
        return den, prefix.branch_sums(own)

    def step_cells(
        self, nfs: Sequence[NormalForm], weights: Sequence[Fraction]
    ) -> List[Tuple[str, Fraction]]:
        """Cells (cylinder base, value) of x ↦ Σ weights[i]·mu_N(x)(nfs[i]):
        the function is constant on each cell, and the cells partition the
        boundary."""
        den, (sums, below) = self._key_sums(nfs, weights)
        return [
            (cell, Fraction(total, self.n * den))
            for x, total in sums.items()
            for cell in prefix.key_cells(x, below.get(x, ()), legal_next_letters)
        ]

    def threshold_weighted(
        self, nfs: Sequence[NormalForm], weights: Sequence[Fraction], theta: Fraction
    ) -> ClopenSet:
        """Exact clopen set {x : Σ weights[i]·mu_N(x)(nfs[i]) > theta}.

        With L the common denominator of the weights and counts[i] the
        number of the N shortest prefixes of x in nfs[i], the value
        Σ weights[i]·counts[i] / N exceeds theta = p/q exactly when
        Σ weights[i]·L·q·counts[i] > p·N·L, all in integers.  A key's cells
        share one value and are listed only when kept."""
        den, (sums, below) = self._key_sums(nfs, weights, theta.denominator)
        bound = theta.numerator * self.n * den
        return ClopenSet([
            cell
            for x, total in sums.items()
            if total > bound
            for cell in prefix.key_cells(x, below.get(x, ()), legal_next_letters)
        ])

    def defect_bound(self, g: str) -> Fraction:
        return Fraction(2 * len(g), self.n)
