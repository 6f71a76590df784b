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

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import prefix
from .groups import FiniteGroup, finite_group_from_json
from .subsets import GroupSubset, NormalForm
from .words import (
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


def point_from_json(data: dict) -> BoundaryPoint:
    kind = data["kind"]
    if kind == "aperiodic":
        return AperiodicPoint()
    if kind == "periodic":
        return PeriodicPoint(data["head"], data["cycle"])
    if kind == "translate":
        return TranslatedPoint(data["g"], point_from_json(data["base"]))
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

    # -- constructors

    @staticmethod
    def full_set() -> "ClopenSet":
        return ClopenSet(full=True)

    @staticmethod
    def empty() -> "ClopenSet":
        return ClopenSet()

    @staticmethod
    def cylinder(w: str) -> "ClopenSet":
        if not w:
            return ClopenSet.full_set()
        return ClopenSet([w])

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
        return all(prefix.under(b, other.bases) for b in self.bases)

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

    def inter(self, other: "ClopenSet") -> "ClopenSet":
        if self.full:
            return other
        if other.full:
            return self
        return ClopenSet(prefix.meet(self.bases, other.bases))

    def complement(self) -> "ClopenSet":
        if self.full:
            return ClopenSet.empty()
        _, bases = prefix.complement(None, self.bases)
        return ClopenSet(bases)

    def minus(self, other: "ClopenSet") -> "ClopenSet":
        return self.inter(other.complement())

    def act(self, g: str) -> "ClopenSet":
        """Image under the homeomorphism given by left multiplication by g."""
        if self.full:
            return self
        _, bases = prefix.translate(g, None, self.bases)
        return ClopenSet(bases)

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
        self.slices = {e: slices.get(e, ClopenSet.empty()) for e in k_group.elements}

    @staticmethod
    def full_set(k_group: FiniteGroup) -> "ProductClopen":
        return ProductClopen(k_group, {e: ClopenSet.full_set() for e in k_group.elements})

    @staticmethod
    def empty(k_group: FiniteGroup) -> "ProductClopen":
        return ProductClopen(k_group, {})

    @staticmethod
    def uniform(k_group: FiniteGroup, c: ClopenSet) -> "ProductClopen":
        return ProductClopen(k_group, {e: c for e in k_group.elements})

    def is_empty(self) -> bool:
        return all(s.is_empty() for s in self.slices.values())

    def depth(self) -> int:
        return max(s.depth() for s in self.slices.values())

    def equals(self, other: "ProductClopen") -> bool:
        return all(self.slices[e].equals(other.slices[e]) for e in self.k.elements)

    def is_subset(self, other: "ProductClopen") -> bool:
        return all(self.slices[e].is_subset(other.slices[e]) for e in self.k.elements)

    def are_disjoint(self, other: "ProductClopen") -> bool:
        return all(self.slices[e].are_disjoint(other.slices[e]) for e in self.k.elements)

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


def clopen_from_json(data: dict):
    if data["space"] == "boundary":
        if data["kind"] == "full":
            return ClopenSet.full_set()
        return ClopenSet(check_bases(data["words"]))
    if data["space"] == "product":
        k = finite_group_from_json(data["k"])
        return ProductClopen(
            k, {e: clopen_from_json(s) for e, s in data["slices"].items()}
        )
    raise ValueError(f"unknown clopen space: {data['space']!r}")


# ---------------------------------------------------------------------------
# geodesic averaging measures


class RationalProbMeasure:
    """Finitely supported exact rational probability measure on the group."""

    def __init__(self, mass: Dict[str, Fraction]):
        total = sum(mass.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"total mass is {total}, not 1")
        if any(v < 0 for v in mass.values()):
            raise ValueError("negative mass")
        self.mass = {g: v for g, v in mass.items() if v != 0}

    def of_subset(self, s: GroupSubset) -> Fraction:
        return sum((v for g, v in self.mass.items() if s.contains(g)), Fraction(0))

    def translated(self, g: str) -> "RationalProbMeasure":
        out: Dict[str, Fraction] = {}
        for h, v in self.mass.items():
            key = multiply(g, h)
            out[key] = out.get(key, Fraction(0)) + v
        return RationalProbMeasure(out)

    def l1_distance(self, other: "RationalProbMeasure") -> Fraction:
        keys = set(self.mass) | set(other.mass)
        return sum(
            (abs(self.mass.get(k, Fraction(0)) - other.mass.get(k, Fraction(0))) for k in keys),
            Fraction(0),
        )


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

    def measure_at(self, point: BoundaryPoint) -> RationalProbMeasure:
        w = point.prefix(self.n - 1)
        return RationalProbMeasure(
            {w[:l]: Fraction(1, self.n) for l in range(self.n)}
        )

    def mu_eval(self, w: str, s: GroupSubset) -> Fraction:
        """Exact value of mu_N(x)(S) for any point x in the cylinder [w]."""
        nf = s.normal_form()
        d = len(w)
        if nf.depth() > d:
            raise DepthInsufficient(
                f"set depth {nf.depth()} exceeds cylinder depth {d}"
            )
        n = self.n
        cnt = sum(1 for l in range(min(d, n)) if nf.contains(w[:l]))
        if n > d:
            if nf.contains(w):
                cnt += 1
            if any(w.startswith(c) for c in nf.cones):
                cnt += n - d - 1
        return Fraction(cnt, n)

    def step_cells(
        self, nfs: Sequence[NormalForm], weights: Sequence[Fraction]
    ) -> List[Tuple[str, Fraction]]:
        """Cells (cylinder base, value) of x ↦ Σ weights[i]·mu_N(x)(nfs[i]).

        The function is constant on each returned cylinder; the cells
        partition the boundary.  Only the prefix tree of the normal-form
        bases is explored, never a full depth enumeration.
        """
        n = self.n
        trie = set()
        for nf in nfs:
            for b in nf.words | nf.cones:
                for t in range(len(b) + 1):
                    trie.add(b[:t])
        cells: List[Tuple[str, Fraction]] = []

        def emit(base: str, finals: List[int]) -> None:
            val = sum(
                (weights[i] * Fraction(finals[i], n) for i in range(len(nfs))),
                Fraction(0),
            )
            cells.append((base, val))

        def visit(w: str, cnts: List[int], resolved: List[Optional[int]]) -> None:
            t = len(w)
            cnts = list(cnts)
            resolved = list(resolved)
            for i, nf in enumerate(nfs):
                if resolved[i] is None:
                    if w in nf.cones:
                        resolved[i] = cnts[i] + max(0, n - t)
                    elif t < n and w in nf.words:
                        cnts[i] += 1
            if all(r is not None for r in resolved):
                emit(w, [r for r in resolved])  # type: ignore[misc]
                return
            for y in legal_next_letters(w):
                child = w + y
                if child in trie:
                    visit(child, cnts, resolved)
                else:
                    finals = [
                        resolved[i] if resolved[i] is not None else cnts[i]
                        for i in range(len(nfs))
                    ]
                    emit(child, finals)  # type: ignore[arg-type]

        visit("", [0] * len(nfs), [None] * len(nfs))
        return cells

    def threshold_weighted(
        self,
        nfs: Sequence[NormalForm],
        weights: Sequence[Fraction],
        theta: Fraction,
        relation: str,
    ) -> ClopenSet:
        """Exact clopen set {x : Σ weights[i]·mu_N(x)(nfs[i]) > theta} (or <)."""
        if relation not in (">", "<"):
            raise ValueError("relation must be '>' or '<'")
        cells = self.step_cells(nfs, weights)
        keep = [
            base
            for base, val in cells
            if (val > theta if relation == ">" else val < theta)
        ]
        if "" in keep:
            return ClopenSet.full_set()
        return ClopenSet(keep)

    def defect(self, g: str, deep_base: str) -> Fraction:
        """Exact ℓ1 distance between mu_N(g·x) and g·mu_N(x) on [deep_base]."""
        if len(deep_base) < self.n + len(g):
            raise DepthInsufficient(
                f"cylinder depth {len(deep_base)} below {self.n + len(g)}"
            )
        moved = multiply(g, deep_base)
        p1 = {moved[:l] for l in range(self.n)}
        p2 = {multiply(g, deep_base[:l]) for l in range(self.n)}
        return Fraction(len(p1 ^ p2), self.n)

    def defect_bound(self, g: str) -> Fraction:
        return Fraction(2 * len(g), self.n)
