"""Subequivalence witnesses and the end-to-end space-to-target comparison.

A witness for (U_1..U_n) being subequivalent to (V_1..V_m) is a finite
list of entries (source index, clopen piece, group element, color) such
that the pieces of each index cover the source and, per color, the images
are pairwise disjoint inside the color's target.  Everything here is exact:
verification, composition, color boosting, the counting-to-assignment step
(reduced to bipartite matching on cylinder cells), and the full builder
that takes the whole boundary below a chosen clopen set in one color.
The counting sweep behind claim 1 and the counting hypothesis sums
integers over the weights' common denominator, so its extremes are exact
rationals.  ``compose``, ``boost`` and ``petr_assign`` verify the witness
they return and keep the passing report as its ``report``, so the builder
checks no witness twice.  A comparison certificate keeps only the three
witnesses that prove its claims, with U, n and the instance: every other
step raises ``ConstructionFailed`` when its check fails, and leaves no
record.

The matching pairs cylinder cells with movers and colours one cell at a
time, but ``petr_assign`` and ``compose`` write one entry per (source,
mover, colour), whose piece is the union of that group's pieces; ``boost``
maps entries one to one.  Grouping keeps every verdict of
``verify_witness`` (``_grouped``), and it is what keeps witnesses, and the
work of every step that reads them, small.

The ambient space is boundary x K (K finite) with the product group
acting; the plain boundary with the free group acting is the case of
trivial K, whose one label is None.  The set algebra is written once, slice
by slice over the labels, and each space keeps only what differs: its
labels, elements, label action, set decoding, slice view, tower lifting
and colour classes.  Each takes its group arithmetic from its group class
in ``paratower.groups``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import prefix
from . import words as fw
from .boundary import (
    ClopenSet,
    GeodesicMap,
    ProductClopen,
    boundary_from_json,
    product_from_json,
    shrink,
)
from .coloring import greedy_color
from .groups import F2Group, F2xKGroup, cyclic_group, group_from_json
from .towers import (
    ProductSubset,
    SearchExhausted,
    TowerFamily,
    disjoint_translates,
    more_towers,
    verify_towers,
)
from .words import inverse, legal_next_letters, multiply, walk_key


class HypothesisViolated(RuntimeError):
    """The pointwise counting inequality fails; carries a witness cell."""

    def __init__(self, message: str, cell):
        super().__init__(message)
        self.cell = cell


class DepthCapExceeded(RuntimeError):
    """Matching failed at every depth within the escalation budget."""


class IncompatibleMiddles(ValueError):
    """Composition requires w1's targets to equal w2's sources."""


class ConstructionFailed(RuntimeError):
    """A construction step failed the exact check that guards it."""


# The most (cell, mover) pairs the held cells of the matching may have,
# counted before a split lists its cells.  F2 × Z/8 with U = [ab]×{0}
# matches on its 128 bases at 7,040 pairs; a refused witness splits every
# cell, so about three times the pairs, and memory, at each refusal.
MATCH_BUDGET = 5 * 10**5

# How many matchings may end in a colour clash: the first MATCH_TRIES - 1
# forbid their clash's edge, and each later one splits the cell it names.
MATCH_TRIES = 100


def _extra_depth_budget() -> int:
    """PARATOWER_MAX_DEPTH: how many levels below the sources' deepest base
    the matching step may split a cell (default 8)."""
    raw = os.environ.get("PARATOWER_MAX_DEPTH", "8")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"PARATOWER_MAX_DEPTH must be a non-negative integer, not {raw!r}")
    return int(raw)


def _frac_json(x: Fraction) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# ambient spaces

Cell = Tuple[Optional[str], str]  # (K label or None, cylinder base word)


class _BoundarySpace:
    """The set algebra of boundary x K, slice by slice over ``labels``.

    A space gives its ``labels``, ``slice_items`` (label, boundary slice)
    pairs of a set in label order and ``from_slices`` (a missing label is
    an empty slice).  The plain boundary is the case of the one label
    None, whose slice is the set itself."""

    def act(self, g, s):
        return s.act(g)

    def cylinder(self, cell: Cell):
        lbl, w = cell
        return self.from_slices({lbl: ClopenSet.cylinder(w)})

    def uniform(self, c: ClopenSet):
        """c at every label."""
        return self.from_slices({lbl: c for lbl in self.labels})

    def full(self):
        return self.uniform(ClopenSet.full_set())

    def empty(self):
        return self.from_slices({})

    def union_all(self, sets: Iterable):
        """The union of many sets with one canonicalisation per slice."""
        per: Dict[Optional[str], List[ClopenSet]] = {lbl: [] for lbl in self.labels}
        for s in sets:
            for lbl, sl in self.slice_items(s):
                per[lbl].append(sl)
        return self.from_slices({lbl: ClopenSet.union_all(sls) for lbl, sls in per.items()})

    def shrink(self, s, eps: Fraction):
        # K carries the discrete metric, so only the boundary factor shrinks
        return self.from_slices({lbl: shrink(sl, eps) for lbl, sl in self.slice_items(s)})


class PlainSpace(_BoundarySpace, F2Group):
    """The boundary of the rank-2 free group with the left action: the
    one-label case, K trivial."""

    labels = (None,)

    def elem(self, word: str, lbl: Optional[str]) -> str:
        return word

    def act_label(self, g: str, lbl: Optional[str]) -> Optional[str]:
        return lbl

    def set_from_json(self, data: dict) -> ClopenSet:
        return boundary_from_json(data)

    def slice_items(self, s: ClopenSet) -> List[Tuple[Optional[str], ClopenSet]]:
        return [(None, s)]

    def from_slices(self, slices: Dict[Optional[str], ClopenSet]) -> ClopenSet:
        return slices[None] if slices else ClopenSet.empty()

    def lift(self, a, g: str, labels) -> Tuple[object, str]:
        """The tower (A, g) itself."""
        return a, g

    def tower_slices(self, c) -> list:
        return [c]

    def coloring(self) -> list:
        """No K to colour: the one colour class."""
        return [self.labels]


class ProductSpace(_BoundarySpace, F2xKGroup):
    """Boundary x K for a finite K, with the product group acting."""

    def __init__(self, k_group):
        super().__init__(k_group)
        self.labels = k_group.elements

    def elem(self, word: str, lbl: str) -> Tuple[str, str]:
        return (word, lbl)

    def act_label(self, g, lbl: str) -> str:
        return self.k_group.mul(g[1], lbl)

    def set_from_json(self, data: dict) -> ProductClopen:
        return product_from_json(self.k_group, data)

    def slice_items(self, s: ProductClopen) -> List[Tuple[Optional[str], ClopenSet]]:
        return [(lbl, s.slices[lbl]) for lbl in self.labels]

    def from_slices(self, slices: Dict[str, ClopenSet]) -> ProductClopen:
        return ProductClopen(self.k_group, slices)

    def lift(self, a, g: str, labels) -> Tuple[ProductSubset, Tuple[str, str]]:
        """The tower (A, g) of F2 lifted to (A x labels, (g, identity))."""
        return ProductSubset(self.k_group, {lbl: a for lbl in labels}), (g, self.k_group.identity)

    def tower_slices(self, c: ProductSubset) -> list:
        return [c.slices[lbl] for lbl in self.labels]

    def coloring(self) -> list:
        """The colour classes of a proper colouring of K's Cayley graph for
        E², E = K, one per copy; the copies number m = |E⁴|."""
        k = self.k_group
        e2 = sorted({k.mul(a, b) for a in k.elements for b in k.elements})
        m = len({k.mul(a, b) for a in e2 for b in e2})
        coloring = greedy_color(k, e2)
        if coloring.m != m:
            raise ConstructionFailed("color budget disagrees with |E^4|")
        classes = [coloring.color_class(j + 1) for j in range(m)]
        return classes


def space_from_json(data: dict):
    group = group_from_json(data)
    if group.kind == "F2":
        return PlainSpace()
    if group.kind == "F2xK":
        return ProductSpace(group.k_group)
    raise ValueError(f"no boundary space for the group {group.kind}")


# ---------------------------------------------------------------------------
# exact extremes of weighted indicator sums

def _add_weights(
    steps: Dict, slices: Iterable[Tuple[object, Optional[Iterable[str]]]], iw: int
) -> None:
    """Add iw times one item's indicator to the step functions ``steps``,
    one [constant, base weights] per key, from the item's (key, bases)
    slices; a full slice (None) adds to the constant."""
    for key, bases in slices:
        step = steps[key]
        if bases is None:
            step[0] += iw
            continue
        base_w = step[1]
        for b in bases:
            base_w[b] = base_w.get(b, 0) + iw


def _sweep(const: int, base_w: Dict[str, int]) -> Tuple[int, str]:
    """Max over the boundary of const plus base_w[b] on each cylinder [b],
    and the first leaf (a child off the bases' prefix trie) that attains
    it in the trie walk.  Only the keys of ``prefix.branch_sums`` carry a
    weight or branch, so the cost is one sort of the bases and O(keys),
    not the trie's size."""
    sums, below = prefix.branch_sums(base_w)
    # the keys with a leaf below them: fewer child keys than letters, or a
    # chain down to one
    best = max(
        t for x, t in sums.items()
        if x not in below or len(below[x]) < (3 if x else 4)
        or any(len(k) > len(x) + 1 for k in below[x])
    )
    cells = (
        cell
        for x, t in sums.items()
        if t == best
        for cell in prefix.key_cells(x, below.get(x, ()), legal_next_letters)
    )
    first = min(cells, key=walk_key)
    # a key with no key below is one cell, whose first leaf is its first child
    if first in sums:
        first += legal_next_letters(first)[0]
    return const + best, first


def _extreme(shared: list, diffs: Dict, den: int, sign: int) -> Tuple[Fraction, Cell]:
    """Extreme of the step functions ``shared`` plus ``diffs[label]`` (each
    [constant, base weights], scaled by den and by sign) and its witness
    cell: the first leaf attaining it in the trie walk of the first label
    (in ``str`` order) that attains it.  One label's merged step function
    is held at a time."""
    best: Optional[Fraction] = None
    best_cell: Cell = (None, "")
    swept: list = []
    const, base_w = shared
    for lbl in sorted(diffs, key=str):
        # a label with an earlier label's difference ties with it and loses
        # the tie
        if diffs[lbl] in swept:
            continue
        swept.append(diffs[lbl])
        d_const, d_w = diffs[lbl]
        merged = {**base_w, **{k: base_w.get(k, 0) + w for k, w in d_w.items()}}
        top, cell = _sweep(const + d_const, merged) if merged else (const + d_const, "")
        val = Fraction(sign * top, den)
        if best is None or sign * val > sign * best:
            best, best_cell = val, (lbl, cell)
    return best, best_cell


def extreme_weighted_count(space, items, mode: str) -> Tuple[Fraction, Cell]:
    """Extreme of a weighted sum of clopen indicators over the whole space,
    with a witness cell: the first leaf attaining it in the trie walk of
    the first K slice (in ``str`` order of the labels) that attains it.
    Exact integer arithmetic over the weights' common denominator; a min
    is the max of the negated sum."""
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    items = [(s, w if isinstance(w, Fraction) else Fraction(w)) for s, w in items]
    if not items:
        raise ValueError("the weighted sum needs at least one item")
    sign = 1 if mode == "max" else -1
    # every item has a slice at every label, so one denominator serves all
    den = math.lcm(*(w.denominator for _, w in items))
    steps = {lbl: [0, {}] for lbl in space.labels}
    for s, w in items:
        iw = sign * w.numerator * (den // w.denominator)
        _add_weights(
            steps, ((lbl, None if sl.full else sl.bases) for lbl, sl in space.slice_items(s)), iw
        )
    return _extreme([0, {}], steps, den, sign)


# ---------------------------------------------------------------------------
# witnesses

class SubeqWitness:
    """Entries (source index, piece, group element, color) certifying that
    the sources sit below the targets, one target per color."""

    def __init__(self, space, sources, targets, entries):
        self.space = space
        self.sources = list(sources)
        self.targets = list(targets)
        self.entries = list(entries)
        # the passing verify_witness report, once a builder has checked it
        self.report: Optional[dict] = None

    @property
    def colors(self) -> int:
        return len(self.targets)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "sources": [s.to_json() for s in self.sources],
            "targets": [t.to_json() for t in self.targets],
            "entries": [
                {
                    "source": i,
                    "piece": piece.to_json(),
                    "g": self.space.elem_json(g),
                    "color": color,
                }
                for i, piece, g, color in self.entries
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "SubeqWitness":
        """Decode a witness in its own space; every set must be a set of
        that space over its K, and every entry must name a source index
        and a color within range."""
        space = space_from_json(data["space"])
        sources = [space.set_from_json(s) for s in data["sources"]]
        targets = [space.set_from_json(t) for t in data["targets"]]
        entries = []
        for e in data["entries"]:
            for key, n in (("source", len(sources)), ("color", len(targets))):
                if type(e[key]) is not int or not 0 <= e[key] < n:
                    raise ValueError(
                        f"an entry's {key} must be an int below {n}, not {e[key]!r}"
                    )
            piece = space.set_from_json(e["piece"])
            entries.append((e["source"], piece, space.elem_from_json(e["g"]), e["color"]))
        return SubeqWitness(space, sources, targets, entries)


def _base_rep(space, s) -> List[Tuple[Optional[str], str]]:
    """(label, base) pairs of a clopen set; a full slice is base ''."""
    rep: List[Tuple[Optional[str], str]] = []
    for lbl, sl in space.slice_items(s):
        if sl.is_empty():
            continue
        bases = [""] if sl.is_full() else sl.sorted_bases()
        rep.extend((lbl, b) for b in bases)
    return rep


def _overlap_pair(space, items):
    """First pair of owners among (owner, set) whose sets overlap, or None."""
    return prefix.first_overlap_by_label([(o, _base_rep(space, s)) for o, s in items])


def _image_cells(space, g, piece) -> List[Tuple[Optional[str], str]]:
    """(label, base) cells whose cylinders tile g·piece: each slice's bases
    moved by ``prefix.translate``, a full slice as the cell "", relabelled
    by g.  Not canonical, but g is a bijection, so they are pairwise
    disjoint and each slice's cells form an antichain."""
    h = space.word_part(g)
    cells: List[Tuple[Optional[str], str]] = []
    for lbl, sl in space.slice_items(piece):
        if sl.full:
            bases = [""]
        elif sl.bases:
            bases = prefix.translate(h, None, sl.bases)[1]
        else:
            continue
        new_lbl = space.act_label(g, lbl)
        cells += [(new_lbl, b) for b in bases]
    return cells


def verify_witness(w: SubeqWitness) -> dict:
    """Exact check of both witness invariants; reports the first failure
    with a cell where it shows: an uncovered cell of the source, a cell of
    the escaping image outside the target, or a cell in both images.

    The images are checked on their cells (``_image_cells``) without
    canonical sets: a cell lies in the target exactly when it lies under a
    base of the target's canonical slice, or that slice is full, and the
    images are disjoint exactly when their cells are.  The first failure's
    cell and entries come from the canonical images."""
    space = w.space

    def image(idx: int):
        _, piece, g, _ = w.entries[idx]
        return space.act(g, piece)

    report: dict = {"pass": True, "coverage": [], "colors": [], "failure": None}
    pieces: Dict[int, List] = {}
    for i, piece, _, _ in w.entries:
        pieces.setdefault(i, []).append(piece)
    for i, src in enumerate(w.sources):
        cover = space.union_all(pieces.get(i, ()))
        ok = src.is_subset(cover)
        report["coverage"].append({"source": i, "pass": ok})
        if not ok and report["failure"] is None:
            report["pass"] = False
            cell = cylinder_cell_of(space, src.minus(cover))
            report["failure"] = {"kind": "coverage", "source": i, "cell": list(cell)}
    for color in range(w.colors):
        target = w.targets[color]
        # each slice's bases in sorted order, a full slice as the base ""
        inside = {
            lbl: [""] if sl.full else sorted(sl.bases) for lbl, sl in space.slice_items(target)
        }
        images = []
        escaping = None
        for idx, (i, piece, g, c) in enumerate(w.entries):
            if c != color:
                continue
            cells = _image_cells(space, g, piece)
            if not all(prefix.under(b, inside[lbl]) for lbl, b in cells):
                escaping = idx
                break
            images.append((idx, cells))
        contained = escaping is None
        disjoint = not contained or prefix.first_overlap_by_label(images) is None
        report["colors"].append(
            {"color": color, "contained": contained, "disjoint": disjoint}
        )
        if (not contained or not disjoint) and report["failure"] is None:
            report["pass"] = False
            if not contained:
                cell = cylinder_cell_of(space, image(escaping).minus(target))
                report["failure"] = {"kind": "containment", "entry": escaping, "cell": list(cell)}
            else:
                canonical = {idx: image(idx) for idx, _ in images}
                a, b = _overlap_pair(space, canonical.items())
                cell = cylinder_cell_of(space, canonical[a].inter(canonical[b]))
                report["failure"] = {"kind": "overlap", "entries": [a, b], "cell": list(cell)}
    return report


def _verified(w: SubeqWitness, what: str) -> SubeqWitness:
    """w with its passing ``verify_witness`` report as ``w.report``;
    raises ConstructionFailed if the check fails."""
    report = verify_witness(w)
    if not report["pass"]:
        raise ConstructionFailed(f"{what} witness failed verification: {report['failure']}")
    w.report = report
    return w


def _grouped(space, entries) -> list:
    """One entry per (source, mover, colour), in the order of their first
    appearance, whose piece is the union of that group's pieces.

    g is a bijection, so g·(P ∪ P') = g·P ∪ g·P': the union covers what
    its pieces cover, lies in a target exactly when each image does, and
    meets another entry's image exactly when one of its pieces' images
    does.  So the grouped witness passes whenever the ungrouped one does."""
    groups: Dict[tuple, list] = {}
    for i, piece, g, color in entries:
        groups.setdefault((i, g, color), []).append(piece)
    return [
        (i, pieces[0] if len(pieces) == 1 else space.union_all(pieces), g, color)
        for (i, g, color), pieces in groups.items()
    ]


def identity_witness(space, s) -> SubeqWitness:
    return SubeqWitness(space, [s], [s], [(0, s, space.identity, 0)])


def compose(w1: SubeqWitness, w2: SubeqWitness) -> SubeqWitness:
    """Chain witnesses: pieces W ∩ g^{-1}Y carried by the products h·g."""
    space = w1.space
    if len(w1.targets) != len(w2.sources) or not all(
        t.equals(s) for t, s in zip(w1.targets, w2.sources)
    ):
        raise IncompatibleMiddles("targets of the first must equal sources of the second")
    entries = []
    for i, piece, g, mid in w1.entries:
        for j, y_piece, h, color in w2.entries:
            if j != mid:
                continue
            z = piece.inter(space.act(space.inv(g), y_piece))
            if z.is_empty():
                continue
            entries.append((i, z, space.mul(h, g), color))
    return _verified(
        SubeqWitness(space, w1.sources, w2.targets, _grouped(space, entries)), "composed"
    )


def cylinder_cell_of(space, s) -> Cell:
    """Canonical cylinder cell of a nonempty clopen set (shortest, then lex)."""
    for lbl, sl in space.slice_items(s):
        if sl.is_full():
            return (lbl, "a")
        if not sl.is_empty():
            return (lbl, sl.sorted_bases()[0])
    raise ValueError("empty set has no cylinder")


def _single_cylinder_cell(space, s) -> Optional[Cell]:
    cells = [
        (lbl, b)
        for lbl, sl in space.slice_items(s)
        if not sl.is_empty()
        for b in (sl.refine(1) if sl.is_full() else sl.sorted_bases())
    ]
    return cells[0] if len(cells) == 1 else None


def _extensions_ending_with(v: str, last: str, count: int) -> List[str]:
    """First `count` same-length extensions of v that end with the letter
    `last`, at the smallest depth from 2 to 12 admitting that many."""
    layer = [v]
    for extra in range(1, 13):
        layer = [w + y for w in layer for y in legal_next_letters(w)]
        found = sorted(w for w in layer if w[-1] == last)
        if extra > 1 and len(found) >= count:
            return found[:count]
    raise SearchExhausted(
        f"no {count} extensions of [{v}] of one length end with {last!r}:"
        f" found {len(found)} at {extra} letters longer, the longest tried"
    )


def boost(w: SubeqWitness, v_set) -> SubeqWitness:
    """Merge all color classes into one inside v_set.

    Requires every target of w to be the same single cylinder [w0]; each
    color class k is pushed through an element carrying [w0] onto a private
    subcylinder of v_set.
    """
    space = w.space
    if v_set.is_empty():
        raise ValueError("target must be nonempty")
    w0_cell = _single_cylinder_cell(space, w.targets[0])
    if w0_cell is None or not all(t.equals(w.targets[0]) for t in w.targets):
        raise ValueError("boost needs a common single-cylinder target")
    r_plus_1 = len(w.targets)
    if r_plus_1 == 1 and w.targets[0].is_subset(v_set):
        return _verified(SubeqWitness(space, w.sources, [v_set], w.entries), "boosted")
    v_cell = cylinder_cell_of(space, v_set)
    ends = _extensions_ending_with(v_cell[1], w0_cell[1][-1], r_plus_1)
    # (v_k, v's label) times the inverse of (w0, w0's label)
    w0_inv = space.inv(space.elem(w0_cell[1], w0_cell[0]))
    translators = [space.mul(space.elem(v_k, v_cell[0]), w0_inv) for v_k in ends]
    # each translator carries [w0] exactly onto its own subcylinder of v_set
    images = [space.act(t, w.targets[0]) for t in translators]
    for s1, s2 in itertools.combinations(images, 2):
        if not s1.are_disjoint(s2):
            raise ConstructionFailed("translator images overlap")
    for img in images:
        if not img.is_subset(v_set):
            raise ConstructionFailed("translator image escapes the target")
    entries = [
        (i, piece, space.mul(translators[color], g), 0)
        for i, piece, g, color in w.entries
    ]
    return _verified(SubeqWitness(space, w.sources, [v_set], entries), "boosted")


# ---------------------------------------------------------------------------
# counting data and the assignment step

class CountingData:
    """Inputs of the counting-to-assignment step.

    d_set is a finite symmetric set of group elements; the hypothesis reads
    sum_j |{g in D^2 : g.x in V_j}| < (n+1) |{g in D : g.x in U^{-eps}}|
    pointwise.  d2 is D², sorted by ``_elem_order``; u_eff is U^{-eps},
    worked out once by ``shrunk`` unless the caller has it.
    """

    def __init__(self, d_set, epsilon: Fraction, sources, target, d2, u_eff=None):
        self.d_set = list(d_set)
        self.epsilon = Fraction(epsilon)
        self.sources = list(sources)
        self.target = target
        self.d2 = d2
        self.u_eff = u_eff

    def shrunk(self, space):
        if self.u_eff is None:
            self.u_eff = space.shrink(self.target, self.epsilon)
        return self.u_eff


def _elem_order(space):
    """Sort key of group elements: by word length, then by their JSON."""
    return lambda e: (len(space.word_part(e)), str(space.elem_json(e)))


def _moved_bases(
    h: str, sl: ClopenSet, memo: Dict[tuple, Optional[Tuple[str, ...]]]
) -> Optional[Tuple[str, ...]]:
    """The bases of h·sl as ``ClopenSet.act`` gives them, or None when it
    is full.  One base b that h does not cancel whole moves to the one
    base h·b, which act keeps as it is; any other slice goes through act
    once per (word, slice), kept in ``memo``."""
    if len(sl.bases) == 1:
        (b,) = sl.bases
        c = multiply(h, b)
        if len(c) > len(h) - len(b):
            return (c,)
    key = (h, sl.full, sl.bases)
    if key not in memo:
        img = sl.act(h)
        memo[key] = None if img.full else tuple(img.bases)
    return memo[key]


def check_counting(space, data: CountingData, n: int) -> dict:
    """Exact pointwise verification of the counting hypothesis.

    The weighted sum has one item f⁻¹·V_j per (f in D², V_j), weight 1, and
    one item g⁻¹·U^{-eps} per g in D, weight -(n+1).  Each is added slice
    by slice to the step function every label shares or to one label's
    difference from it; a label only renames the slices, so no product set
    is built."""
    if not data.d_set:
        raise ValueError("the weighted sum needs at least one item")
    u_eff = data.shrunk(space)
    moved: Dict[tuple, Optional[Tuple[str, ...]]] = {}
    # f⁻¹·V for V the same slice S at every label is h·S at every label, h
    # the F2 word of f⁻¹: such a V gives one item per word, weighted by how
    # often the word occurs in D², in a step function every label starts
    # from.  The sweep reads only the summed step function, so its extreme
    # and witness cell stay those of one item per f.
    words = {inverse(w): c for w, c in Counter(space.word_part(f) for f in data.d2).items()}
    # the step function every label shares, and each label's difference
    # from it
    shared: list = [0, {}]
    base_w = shared[1]
    diffs = {lbl: [0, {}] for lbl in space.labels}
    pulled: List[Tuple[object, object, int]] = []
    for v in data.sources:
        sls = [sl for _, sl in space.slice_items(v)]
        if all(sl.equals(sls[0]) for sl in sls):
            for h, c in words.items():
                bases = _moved_bases(h, sls[0], moved)
                if bases is None:
                    shared[0] += c
                    continue
                for b in bases:
                    base_w[b] = base_w.get(b, 0) + c
        else:
            pulled += [(f, v, 1) for f in data.d2]
    pulled += [(g, u_eff, -(n + 1)) for g in data.d_set]
    for f, s, iw in pulled:
        g = space.inv(f)
        h = space.word_part(g)
        _add_weights(
            diffs,
            ((space.act_label(g, lbl), _moved_bases(h, sl, moved))
             for lbl, sl in space.slice_items(s)),
            iw,
        )
    worst, cell = _extreme(shared, diffs, 1, 1)
    return {
        "pass": worst < 0,
        "max_margin": _frac_json(worst),
        "witness_cell": list(cell),
        "d2_size": len(data.d2),
    }


def _kuhn_match(lefts, adjacency, forbidden, colors: int) -> Dict:
    """A matching of lefts to (colour, key) rights, without each left that
    its one augmenting search cannot place.  A left's adjacency lists its
    image keys, each standing for ``colors`` copies tried in colour order."""
    match_r: Dict = {}
    match_l: Dict = {}

    def try_augment(l, visited) -> bool:
        for key in adjacency[l]:
            for color in range(colors):
                r = (color, key)
                if (l, r) in forbidden or r in visited:
                    continue
                visited.add(r)
                if r not in match_r or try_augment(match_r[r], visited):
                    match_r[r] = l
                    match_l[l] = r
                    return True
        return False

    for l in lefts:
        try_augment(l, set())
    return match_l


def _image_keys(space, ueff_slices, movers, cells) -> Iterator[Tuple]:
    """(mover, cell, key) for each mover of ``movers``, in order, and each
    cell (label, word) of ``cells``, words of any lengths, that the mover
    moves inside the shrunk target with slices ``ueff_slices``; the key
    lists the (label, base) pairs of the image's canonical bases in order.

    h·[w] lies inside a slice T exactly when a base of the canonical
    preimage h⁻¹·T is a prefix of w.  So for a run of movers with one F2
    word h, one preimage per image label is bisected into each label's
    sorted cell words, and only the cells found are moved, each once, by
    ``prefix.translate``, whose pieces are the canonical bases of the
    image."""
    words: Dict = {}
    for lbl, w in cells:
        words.setdefault(lbl, set()).add(w)
    words = {lbl: sorted(ws) for lbl, ws in words.items()}
    for h, same_word in itertools.groupby(movers, space.word_part):
        # image label -> (preimage, the key of each cell word found so far)
        preimages: Dict = {}
        for g, (lbl, ws) in itertools.product(same_word, words.items()):
            newl = space.act_label(g, lbl)
            pre, keys = preimages.get(newl) or preimages.setdefault(
                newl, (ueff_slices[newl].act(inverse(h)), {})
            )
            for b in [""] if pre.full else pre.bases:
                i = bisect.bisect_left(ws, b)
                while i < len(ws) and ws[i].startswith(b):
                    w = ws[i]
                    i += 1
                    key = keys.get(w)
                    if key is None:
                        moved = sorted(prefix.translate(h, None, [w])[1])
                        key = keys[w] = tuple((newl, x) for x in moved)
                    yield g, (lbl, w), key


def petr_assign(
    space, data: CountingData, n: int, counting: Optional[dict] = None
) -> SubeqWitness:
    """Turn the counting hypothesis into a witness (V_j) below n+1 copies
    of the target, via bipartite matching on cylinder cells.  ``counting``
    is the report of ``check_counting(space, data, n)`` when the caller
    has it already.

    Each held cell of each V_j gets a mover and a colour.  The held cells
    start as the V_j's bases (a full slice's as its letters), in
    ``ClopenSet.refine`` order, and a cell splits into its children in
    place when no mover moves it inside U^{-eps}, when the augmenting search
    cannot place it, or when a colour clash names it after ``MATCH_TRIES``
    clashes; every cell splits when the witness fails its check.  Image
    keys come from each mover's preimage of U^{-eps} (``_image_keys``),
    once per cell, and a key stands for its n+1 colours.  Before cells are
    listed, the gate counts the held (cell, mover) pairs, each cell with
    the movers that send its label onto a nonempty slice of U^{-eps}: more
    than ``MATCH_BUDGET`` pairs, a cell more than ``PARATOWER_MAX_DEPTH``
    levels below the V_j's deepest base, or ``MATCH_TRIES`` matchings per
    level and one more level spent, raises DepthCapExceeded."""
    if counting is None:
        counting = check_counting(space, data, n)
    if not counting["pass"]:
        raise HypothesisViolated(
            f"counting hypothesis fails on cell {counting['witness_cell']}"
            f" with margin {counting['max_margin']}",
            tuple(counting["witness_cell"]),
        )
    u_eff = data.shrunk(space)
    levels = _extra_depth_budget()
    cap = levels + max([1] + [sl.depth() for v in data.sources for _, sl in space.slice_items(v)])
    matchings = tries = MATCH_TRIES * (levels + 1)
    elem_order = sorted(data.d_set, key=_elem_order(space))
    ueff_slices = dict(space.slice_items(u_eff))
    # per cell label, how many movers send it onto a nonempty slice of
    # U^{-eps}; no other mover moves a cell inside
    reach = {
        lbl: sum(not ueff_slices[space.act_label(g, lbl)].is_empty() for g in elem_order)
        for lbl in space.labels
    }
    lefts = [(j, (lbl, w)) for j, v in enumerate(data.sources) for lbl, sl in space.slice_items(v)
             for w in (fw.LETTERS if sl.full else sorted(sl.bases))]
    lookups = sum(reach[lbl] for _, (lbl, _) in lefts)
    # per cell, its image keys in mover order, each with the first mover
    # found for it: distinct cells can share an image key through different
    # movers, so the mover is per edge, and every colour of a key takes the
    # same one.  The lefts of a cell share its dict
    adjacency: Dict = {}
    split: set = set()
    forbidden: set = set()
    tried = "no cells tried"
    while True:
        # a split cell's three children are counted before they are listed
        lookups += 2 * sum(reach[lbl] for _, (lbl, _) in split)
        cells = len(lefts) + 2 * len(split)
        deepest = max([len(c[1]) for _, c in lefts] + [len(c[1]) + 1 for _, c in split], default=0)
        # a cell no mover sends onto U^{-eps} has no key at any depth
        if deepest > cap or not matchings or any(not reach[lbl] for _, (lbl, _) in split):
            raise DepthCapExceeded(
                f"no per-color disjoint matching up to depth {cap} ({tried}) after"
                f" {tries - matchings} matchings; raise PARATOWER_MAX_DEPTH to search deeper"
            )
        if lookups > MATCH_BUDGET:
            raise DepthCapExceeded(
                f"the matching down to depth {deepest} needs {lookups} (cell, mover) lookups"
                f" over {cells} held cells, above the budget of {MATCH_BUDGET}; {tried}"
            )
        tried = f"deepest depth tried {deepest}: {cells} cells, {lookups} lookups"
        # a split cell gives way to its children, in place
        lefts = [(j, (lbl, w + x)) for j, (lbl, w) in lefts
                 for x in (legal_next_letters(w) if (j, (lbl, w)) in split else [""])]
        new = {cell: {} for _, cell in lefts if cell not in adjacency}
        for g, cell, key in _image_keys(space, ueff_slices, elem_order, new):
            new[cell].setdefault(key, g)
        adjacency.update(new)
        split = {left for left in lefts if not adjacency[left[1]]}
        if split:
            continue
        edges = {left: adjacency[left[1]] for left in lefts}
        while not split and matchings:
            matchings -= 1
            matched = _kuhn_match(lefts, edges, forbidden, n + 1)
            split = {left for left in lefts if left not in matched}
            if split:
                break
            clash = _color_clash(matched, n)
            if clash is None:
                try:
                    return _verified(_assembled(space, data, n, lefts, edges, matched), "assigned")
                except ConstructionFailed:
                    split = set(lefts)
            elif len(forbidden) + 1 < MATCH_TRIES:
                forbidden.add(clash)
            else:
                split = {clash[0]}


def _assembled(space, data: CountingData, n: int, lefts, edges, matched) -> SubeqWitness:
    """One entry per (source, mover, colour), in order of first appearance,
    whose piece is the union of its matched cells (as in ``_grouped``)."""
    groups: Dict[tuple, Dict] = {}
    for left in lefts:
        color, key = matched[left]
        lbl, w = left[1]
        piece = groups.setdefault((left[0], edges[left][key], color), {})
        piece.setdefault(lbl, []).append(w)
    entries = [
        (j, space.from_slices({lbl: ClopenSet(ws) for lbl, ws in piece.items()}), g, color)
        for (j, g, color), piece in groups.items()
    ]
    return SubeqWitness(space, data.sources, [data.target] * (n + 1), entries)


def _color_clash(matched, n):
    """First overlapping pair of matched images sharing a color, as the
    (left, right) edge to forbid; a right's key lists its image's bases."""
    by_color: Dict[int, List] = {k: [] for k in range(n + 1)}
    for left, right in sorted(matched.items(), key=lambda kv: str(kv[0])):
        by_color[right[0]].append((left, right))
    for color in range(n + 1):
        group = by_color[color]
        seen: Dict = {}
        for left, right in group:
            if right in seen:
                return (left, right)
            seen[right] = left
        pair = prefix.first_overlap_by_label([(lr, lr[1][1]) for lr in group])
        if pair is not None:
            return pair[1]
    return None


# ---------------------------------------------------------------------------
# the end-to-end builder

class ComparisonInstance:
    """One of the two supported actions: F2 × Z/2 on boundary × Z/2, or F2
    on its boundary, which is the one-label case of the same construction."""

    def __init__(self, name: str):
        if name not in ("F2", "F2xZ2"):
            raise ValueError(f"unsupported instance: {name!r}")
        self.name = name
        self._space = ProductSpace(cyclic_group(2)) if name == "F2xZ2" else PlainSpace()

    def space(self):
        return self._space

    def to_json(self) -> dict:
        # the name, and the space's K if it has one
        out = self._space.to_json()
        del out["kind"]
        out["name"] = self.name
        return out

    @staticmethod
    def from_json(data: dict) -> "ComparisonInstance":
        inst = ComparisonInstance(data["name"])
        if inst.to_json() != data:
            raise ValueError(f"not the {inst.name} instance: {data!r}")
        return inst


class ComparisonCertificate:
    def __init__(self, data: dict):
        self.data = data

    @property
    def passed(self) -> bool:
        return bool(self.data.get("pass"))

    def to_json(self) -> dict:
        return self.data


def _extend_to_last(u0: str, last: str) -> str:
    """Shortest (then lex-first) reduced extension of u0 ending with `last`."""
    if u0 and u0[-1] == last:
        return u0
    layer = [u0]
    for extra in range(1, 5):
        layer = [w + y for w in sorted(layer) for y in legal_next_letters(w)]
        for w in layer:
            if w[-1] == last:
                return w
    raise SearchExhausted(
        f"cannot extend [{u0}] to end with {last!r}: found none up to {extra} letters longer"
    )


def _translator_set(u0: str) -> Dict[str, str]:
    """For each letter w, an element carrying the cylinder [w] exactly into
    [u0]: extend u0 to share w's final letter, then append w's inverse."""
    out = {}
    for w in fw.LETTERS:
        ext = _extend_to_last(u0, w)
        out[w] = multiply(ext, inverse(w))
    return out


def build_comparison(inst: ComparisonInstance, u_set) -> ComparisonCertificate:
    """Run the whole construction and certify every step exactly."""
    space = inst.space()
    if u_set.is_empty():
        raise ValueError("target must be nonempty")

    # target cylinder and the shrinking margin that leaves it unchanged
    u0_cell = cylinder_cell_of(space, u_set)
    u_target = space.cylinder(u0_cell)
    eps = Fraction(1, 2 ** (len(u0_cell[1]) + 1))
    u_eff = space.shrink(u_target, eps)
    if not u_eff.equals(u_target):
        raise ConstructionFailed(f"shrinking by {eps} changes the target cylinder")

    # elements moving every depth-1 cylinder into the target cylinder, with
    # every label; one copy of the towers per colour class of K
    letter_movers = _translator_set(u0_cell[1])
    d0 = sorted({""} | set(letter_movers.values()), key=lambda w: (len(w), w))
    f0 = [space.elem(h, e) for h in d0 for e in space.labels]
    classes = space.coloring()
    m = len(classes)

    covered = space.union_all(space.act(space.inv(f), u_target) for f in f0)
    if not space.full().is_subset(covered):
        raise ConstructionFailed("depth-1 movers do not reach the whole space")

    # disjoint translates and the symmetric generating set
    t_words = disjoint_translates(d0, m)
    d_words = sorted(
        {multiply(h, t) for h in d0 for t in t_words}
        | {inverse(multiply(h, t)) for h in d0 for t in t_words}
        | {""},
        key=lambda w: (len(w), w),
    )
    f_elems = [space.elem(h, e) for h in d_words for e in space.labels]

    # claim 1: every point is moved into the target by at least m elements
    claim1_items = [
        (space.act(space.inv(f), u_target), Fraction(1)) for f in f_elems
    ]
    c1_val, c1_cell = extreme_weighted_count(space, claim1_items, "min")
    if c1_val < m:
        raise ConstructionFailed(
            f"claim 1 counting bound failed: {c1_val} < {m} on cell {list(c1_cell)}"
        )

    # towers indexed by the m copies, jointly D^2-disjoint; F·F is the D
    # of the product check and the D² of the counting hypothesis.  F is
    # D × K, so F·F is D² × K, listed in ``_elem_order``: D² is sorted by
    # (length, word), and at one word the JSON compares labels as strings
    d2_words = sorted(
        {multiply(u, v) for u in d_words for v in d_words},
        key=lambda w: (len(w), w),
    )
    label_order = sorted(space.labels, key=str)
    f_squares = [space.elem(w, e) for w in d2_words for e in label_order]
    tower_fam = more_towers(d2_words, m)
    n = len(tower_fam.cover_groups[0])
    nm = n * m

    # pair each copy with a color class of K and lift its towers
    lifted = [
        space.lift(*tower_fam.items[i], labels)
        for idxs, labels in zip(tower_fam.cover_groups, classes, strict=True)
        for i in idxs
    ]
    c_sets, g_elems = zip(*lifted)
    fam_check = TowerFamily(
        space.kind,
        f_squares,
        lifted,
        k_group=space.k_group,
        cover_groups=[list(range(nm))],
    )
    if not verify_towers(fam_check, "exact").passed:
        raise ConstructionFailed("product tower conditions failed")

    # approximation scale: defect bound strictly below delta
    delta = Fraction(1, 4 * nm * (nm + 1))
    if not delta < Fraction(1, 2 * nm * (nm + 1)):
        raise ConstructionFailed(f"delta {delta} is not below 1/(2nm(nm+1))")
    all_movers = d2_words + [space.word_part(g) for g in g_elems]
    big_m = max(len(w) for w in all_movers)
    n_depth = int(2 * big_m / delta) + 1
    gm = GeodesicMap(n_depth)
    if not gm.defect_bound("a" * big_m) < delta:
        raise ConstructionFailed(f"the defect bound at depth {n_depth} is not below delta")

    # threshold sets; the K factor carries the uniform measure, so both
    # families are uniform across labels
    def measure_threshold(subset, theta: Fraction) -> object:
        nfs = [sl.normal_form() for sl in space.tower_slices(subset)]
        weights = [Fraction(1, len(nfs))] * len(nfs)
        return space.uniform(gm.threshold_weighted(nfs, weights, theta))

    theta_v = Fraction(1, nm + 1) + delta
    theta_w = Fraction(1, nm + 1) + 2 * delta
    v_list = [measure_threshold(c, theta_v) for c in c_sets]
    w_list = [measure_threshold(c.translate(g), theta_w) for c, g in zip(c_sets, g_elems)]

    # claim 2: the W's cover, and each pulls back into its V; the witness
    # has one source, the full space, and one entry per colour
    claim2_witness = _verified(
        SubeqWitness(
            space,
            [space.full()],
            v_list,
            [(0, w_set, space.inv(g), idx) for idx, (w_set, g) in enumerate(zip(w_list, g_elems))],
        ),
        "claim 2",
    )

    # claim 3: counting hypothesis plus the matching assignment, which
    # hands back a witness it has verified
    data = CountingData(f_elems, eps, v_list, u_target, f_squares, u_eff)
    claim3_witness = petr_assign(space, data, n, check_counting(space, data, n))

    # compose and boost verify their witnesses; every guard above raises
    # on a failed check, so the certificate passes
    boosted = boost(compose(claim2_witness, claim3_witness), u_set)
    return ComparisonCertificate({
        "instance": inst.to_json(),
        "U": u_set.to_json(),
        "n": n,
        "claim2_witness": claim2_witness.to_json(),
        "claim3_witness": claim3_witness.to_json(),
        "composed": {},
        "boosted": {"witness": boosted.to_json()},
        "pass": True,
    })
