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
they return and keep the passing report as its ``report``; the builder
reuses those reports instead of checking a witness twice.

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

import itertools
import math
import os
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

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
    shared_translates,
    verify_towers,
)
from .words import inverse, legal_next_letters, multiply


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


# The most (cell, mover) lookups one depth attempt of the matching may
# make; a larger attempt is refused before it lists its cells.  With
# U = [ab]×{0}, F2 × Z/5 matches at 251,790 lookups and F2 × Z/6 at
# 1,078,464; each deeper level has about three times the cells.  The
# budget bounds lookups, not memory, and the bytes per lookup differ by
# instance: the F2 × Z/6 build peaks at 128 MB at 1,078,464 lookups, the
# forced-failure F2 × Z/2 U = [a]×{0} search (every witness refused) at
# 175 MB at 898,128 (depth 33, deep cells with many new image keys), so
# an attempt there just under the budget would take about 400 MB
# (extrapolated, not run).
MATCH_BUDGET = 2 * 10**6


def _extra_depth_budget() -> int:
    """PARATOWER_MAX_DEPTH: how many levels past the sources' depth the
    matching step may refine (default 8)."""
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

    def cells(self, s, depth: int) -> List[Cell]:
        return [
            (lbl, w)
            for lbl, sl in self.slice_items(s)
            if not sl.is_empty()
            for w in sl.refine(depth)
        ]

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

    def coloring(self) -> Tuple[list, list, None]:
        """No K to colour: (E, the one colour class, no colouring)."""
        return [], [self.labels], None


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

    def coloring(self) -> Tuple[list, list, dict]:
        """(E = K, the colour classes of a proper colouring of K's Cayley
        graph for E², one per copy, the colouring's JSON); the copies number
        m = |E⁴|."""
        k = self.k_group
        e2 = sorted({k.mul(a, b) for a in k.elements for b in k.elements})
        m = len({k.mul(a, b) for a in e2 for b in e2})
        coloring = greedy_color(k, e2)
        if coloring.m != m:
            raise ConstructionFailed("color budget disagrees with |E^4|")
        classes = [coloring.color_class(j + 1) for j in range(m)]
        return list(k.elements), classes, coloring.to_json()


def space_from_json(data: dict):
    group = group_from_json(data)
    if group.kind == "F2":
        return PlainSpace()
    if group.kind == "F2xK":
        return ProductSpace(group.k_group)
    raise ValueError(f"no boundary space for the group {group.kind}")


# ---------------------------------------------------------------------------
# exact extremes of weighted indicator sums

# The sweep spells words in ball-order digits (a, A, b, B as 0-3), so that
# string order is the order of the trie walk; the legal next digits after
# each last digit, in that order
_LEGAL_DIGITS = {"": "0123", "0": "023", "1": "123", "2": "012", "3": "013"}
_FROM_DIGITS = str.maketrans("0123", "aAbB")


def _digit_bases(sl: ClopenSet) -> Optional[List[str]]:
    """The bases of a slice in ball-order digits, or None when it is full."""
    return None if sl.full else [b.translate(fw._BALL_ORDER) for b in sl.bases]


def _add_weights(
    steps: Dict, slices: Iterable[Tuple[object, Optional[List[str]]]], iw: int
) -> None:
    """Add iw times one item's indicator to the step functions ``steps``,
    one [constant, base weights] per key, from the item's (key, digit
    bases) slices; a full slice (None) adds to the constant."""
    for key, digits in slices:
        step = steps[key]
        if digits is None:
            step[0] += iw
            continue
        base_w = step[1]
        for k in digits:
            base_w[k] = base_w.get(k, 0) + iw


def _first_chain_leaf(top: str, key: str) -> str:
    """First leaf, in walk order, of the chain nodes strictly between the
    key ``top`` and the key ``key`` below it.  A chain node p has one child
    on the chain, key[len(p)], and its other children are leaves; a leaf
    before that child comes before every leaf further down."""
    for t in range(len(top) + 1, len(key)):
        p = key[:t]
        leaf = p + next(y for y in _LEGAL_DIGITS[p[-1]] if y != key[t])
        if leaf < key:
            return leaf
    return leaf


def _sweep(const: int, base_w: Dict[str, int]) -> Tuple[int, str]:
    """Max over the boundary of const plus base_w[b] on each cylinder [b],
    with the first leaf of the bases' prefix trie, in walk order, on which
    it is attained; words in ball-order digits.

    A leaf is a child off the trie of a trie node and carries the node's
    sum.  Only "", the bases and the longest common prefix of each pair of
    neighbours in sorted order (the keys) carry a weight or branch; every
    other node lies on a chain between a key and the next key below it,
    carries the upper key's sum and has leaves.  One sorted scan with a
    stack of ancestors gives each key its sum and the letters by which the
    trie goes on below it, so the cost is O(keys · log keys), not the size
    of the trie."""
    bases = sorted(base_w)
    keys = set(bases)
    keys.add("")
    keys.update(u[:fw.common_prefix_len(u, v)] for u, v in zip(bases, bases[1:]))
    # key -> [sum, the next digits that stay in the trie]
    nodes: Dict[str, list] = {}
    chains: List[Tuple[int, str, str]] = []
    stack: List[str] = []
    for x in sorted(keys):
        while stack and not x.startswith(stack[-1]):
            stack.pop()
        total = base_w.get(x, 0)
        if stack:
            top = stack[-1]
            above = nodes[top]
            total += above[0]
            above[1].add(x[len(top)])
            if len(x) > len(top) + 1:
                chains.append((above[0], top, x))
        else:
            total += const
        nodes[x] = [total, set()]
        stack.append(x)
    # keys with a leaf child; every trie leaf's parent is one or a chain node
    open_keys = [
        (total, x, below) for x, (total, below) in nodes.items()
        if len(below) < len(_LEGAL_DIGITS[x[-1:]])
    ]
    best = max([t for t, _, _ in open_keys] + [t for t, _, _ in chains])
    leaves = [
        x + next(y for y in _LEGAL_DIGITS[x[-1:]] if y not in below)
        for t, x, below in open_keys
        if t == best
    ]
    leaves += [_first_chain_leaf(top, x) for t, top, x in chains if t == best]
    return best, min(leaves)


def _extreme(steps: Dict, den: int, sign: int) -> Tuple[Fraction, Cell]:
    """Extreme of the step functions ``steps`` (label -> [constant, base
    weights], scaled by den and by sign) and its witness cell: the first
    leaf attaining it in the trie walk of the first label (in ``str``
    order) that attains it."""
    best: Optional[Fraction] = None
    best_cell: Cell = (None, "")
    swept: list = []
    for lbl in sorted(steps, key=str):
        const, base_w = steps[lbl]
        # a label with an earlier label's step function ties with it and
        # loses the tie
        if steps[lbl] in swept:
            continue
        swept.append(steps[lbl])
        top, cell = _sweep(const, base_w) if base_w else (const, "")
        val = Fraction(sign * top, den)
        if best is None or sign * val > sign * best:
            best, best_cell = val, (lbl, cell.translate(_FROM_DIGITS))
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
        _add_weights(steps, ((lbl, _digit_bases(sl)) for lbl, sl in space.slice_items(s)), iw)
    return _extreme(steps, den, sign)


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


def _overlap_pair_reps(items):
    """First pair of owners among (owner, [(label, base), ...]) whose
    cylinder unions overlap in some K slice, or None."""
    per_label: Dict = {}
    for owner, rep in items:
        for lbl, b in rep:
            per_label.setdefault(lbl, []).append((b, owner))
    for bucket in per_label.values():
        pair = prefix.first_overlap(bucket)
        if pair is not None:
            return pair
    return None


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
    return _overlap_pair_reps([(o, _base_rep(space, s)) for o, s in items])


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
        inside = dict(space.slice_items(target))
        images = []
        escaping = None
        for idx, (i, piece, g, c) in enumerate(w.entries):
            if c != color:
                continue
            cells = _image_cells(space, g, piece)
            if not all(
                inside[lbl].full or prefix.under(b, inside[lbl].bases) for lbl, b in cells
            ):
                escaping = idx
                break
            images.append((idx, cells))
        contained = escaping is None
        disjoint = not contained or _overlap_pair_reps(images) is None
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
    if len(cells) == 1:
        return cells[0]
    return None


def _extensions_ending_with(v: str, last: str, count: int) -> List[str]:
    """First `count` same-length extensions of v that end with the letter
    `last`, at the smallest depth admitting that many."""
    extra = 2
    while extra <= 12:
        found = [
            w
            for w in sorted(_extend_all(v, extra))
            if w[-1] == last
        ]
        if len(found) >= count:
            return found[:count]
        extra += 1
    raise SearchExhausted(f"no {count} extensions of [{v}] ending with {last!r}")


def _extend_all(v: str, extra: int) -> List[str]:
    layer = [v]
    for _ in range(extra):
        layer = [w + y for w in layer for y in legal_next_letters(w)]
    return layer


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
    pointwise.  d2 is D² sorted by ``_elem_order``, when the caller has it
    already (``_squares``).
    """

    def __init__(self, d_set, epsilon: Fraction, sources, target, d2=None):
        self.d_set = list(d_set)
        self.epsilon = Fraction(epsilon)
        self.sources = list(sources)
        self.target = target
        self.d2 = d2


def _elem_order(space):
    """Sort key of group elements: by word length, then by their JSON."""
    return lambda e: (len(space.word_part(e)), str(space.elem_json(e)))


def _squares(space, d_set) -> list:
    """D·D, each element once, sorted by ``_elem_order``."""
    return sorted({space.mul(g, h) for g in d_set for h in d_set}, key=_elem_order(space))


def check_counting(space, data: CountingData, n: int) -> dict:
    """Exact pointwise verification of the counting hypothesis.

    The weighted sum has one item f⁻¹·V_j per (f in D², V_j), weight 1, and
    one item g⁻¹·U^{-eps} per g in D, weight -(n+1).  Each is added slice
    by slice to one step function per label; a label only renames the
    slices, so no product set is built."""
    if not data.d_set:
        raise ValueError("the weighted sum needs at least one item")
    u_eff = space.shrink(data.target, data.epsilon)
    d2 = data.d2 if data.d2 is not None else _squares(space, data.d_set)
    moved: Dict[tuple, Optional[List[str]]] = {}

    def act(h: str, sl: ClopenSet) -> Optional[List[str]]:
        """The digit bases of h·sl, each (word, slice) pair translated once."""
        key = (h, sl.full, sl.bases)
        try:
            return moved[key]
        except KeyError:
            img = moved[key] = _digit_bases(sl.act(h))
            return img

    # f⁻¹·V for V the same slice S at every label is h·S at every label, h
    # the F2 word of f⁻¹: such a V gives one item per word, weighted by how
    # often the word occurs in D², in a step function every label starts
    # from.  The sweep reads only the summed step function, so its extreme
    # and witness cell stay those of one item per f.
    words: Dict[str, int] = {}
    for f in d2:
        h = space.word_part(space.inv(f))
        words[h] = words.get(h, 0) + 1
    # the step function every label starts from, under the key None
    shared = {None: [0, {}]}
    pulled: List[Tuple[object, object, int]] = []
    for v in data.sources:
        sls = [sl for _, sl in space.slice_items(v)]
        if all(sl.equals(sls[0]) for sl in sls):
            for h, c in words.items():
                _add_weights(shared, [(None, act(h, sls[0]))], c)
        else:
            pulled += [(f, v, 1) for f in d2]
    pulled += [(g, u_eff, -(n + 1)) for g in data.d_set]
    const, base_w = shared[None]
    steps = {lbl: [const, dict(base_w)] for lbl in space.labels}
    for f, s, iw in pulled:
        g = space.inv(f)
        h = space.word_part(g)
        _add_weights(
            steps, ((space.act_label(g, lbl), act(h, sl)) for lbl, sl in space.slice_items(s)), iw
        )
    worst, cell = _extreme(steps, 1, 1)
    return {
        "pass": worst < 0,
        "max_margin": _frac_json(worst),
        "witness_cell": list(cell),
        "d2_size": len(d2),
    }


def _kuhn_match(lefts, adjacency, forbidden, colors: int) -> Optional[Dict]:
    """A matching of every left to a (colour, key) right, or None.  The
    adjacency of a left lists its image keys, and each key stands for its
    ``colors`` copies, tried in colour order as they are met."""
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
        if not try_augment(l, set()):
            return None
    return match_l


def _image_key(space, ueff_slices, g, cell) -> Optional[Tuple]:
    """The (label, base) pairs of g·cell's canonical bases, in order, if
    g·cell lies inside the shrunk target whose slices by label are
    ``ueff_slices``, else None.

    For cells deeper than the cancellation the image is the single
    cylinder [g·w], so the containment test is a string prefix check.
    Otherwise it is decided on the cell's moved bases, which are the
    image's canonical bases, as ``_image_cells`` does; no clopen sets
    get built."""
    lbl, w = cell
    h = space.word_part(g)
    c = prefix.moved_base(h, w)
    newl = space.act_label(g, lbl)
    tgt = ueff_slices[newl]
    if c is not None:
        if tgt.full or any(c.startswith(b) for b in tgt.bases):
            return ((newl, c),)
        if not any(b.startswith(c) for b in tgt.bases):
            return None
    bases = sorted(prefix.translate(h, None, (w,))[1])
    if not (tgt.full or all(prefix.under(b, tgt.bases) for b in bases)):
        return None
    return tuple((newl, b) for b in bases)


def petr_assign(
    space, data: CountingData, n: int, counting: Optional[dict] = None
) -> SubeqWitness:
    """Turn the counting hypothesis into a witness (V_j) below n+1 copies
    of the target, via bipartite matching on cylinder cells.  ``counting``
    is the report of ``check_counting(space, data, n)`` when the caller
    has it already.

    The matching is cell by cell: each depth-d cell of each V_j gets a
    mover and a colour.  The witness has one entry per (source, mover,
    colour), whose piece is the union of the cells matched to it; a cell
    set of one V_j is disjoint, so this passes exactly when the per-cell
    witness does, and the search settles on the same depth and matching.

    The F2 work is done once per F2 word, not once per K label: a cell is
    asked only about the movers whose label sends its label onto a nonempty
    slice of U^{-eps}, an image key is worked out once per (mover's word,
    cell word, image label), and the graph holds one edge per key, whose
    n+1 colours the search expands in colour order.  Before each depth the
    (cell, mover) lookups are counted, and a depth needing more than
    ``MATCH_BUDGET`` is refused with DepthCapExceeded."""
    if counting is None:
        counting = check_counting(space, data, n)
    if not counting["pass"]:
        raise HypothesisViolated(
            f"counting hypothesis fails on cell {counting['witness_cell']}"
            f" with margin {counting['max_margin']}",
            tuple(counting["witness_cell"]),
        )
    u_eff = space.shrink(data.target, data.epsilon)
    depth = max(
        max((sl.depth() for _, sl in space.slice_items(v)), default=1)
        for v in data.sources
    )
    depth = max(depth, 1)
    budget = _extra_depth_budget()
    elem_order = sorted(data.d_set, key=_elem_order(space))
    ueff_slices = dict(space.slice_items(u_eff))
    # per cell label, the movers (in elem_order) that send it onto a
    # nonempty slice of U^{-eps}, as (mover, F2 word, image label); every
    # other mover's image key is None
    movers = {
        lbl: [
            (g, space.word_part(g), space.act_label(g, lbl))
            for g in elem_order
            if not ueff_slices[space.act_label(g, lbl)].is_empty()
        ]
        for lbl in space.labels
    }

    tried = "no depth tried"
    for attempt in range(budget + 1):
        d = depth + attempt
        # the gate counts the cells by label before they are listed: a
        # slice has 3^(d-|b|) depth-d cells below each base b, 4·3^(d-1) if full
        per_label: Dict = {}
        for v in data.sources:
            for lbl, sl in space.slice_items(v):
                count = 4 * 3 ** (d - 1) if sl.full else sum(3 ** (d - len(b)) for b in sl.bases)
                per_label[lbl] = per_label.get(lbl, 0) + count
        cells = sum(per_label.values())
        lookups = sum(count * len(movers[lbl]) for lbl, count in per_label.items())
        if lookups > MATCH_BUDGET:
            raise DepthCapExceeded(
                f"the matching at depth {d} needs {lookups} (cell, mover) lookups"
                f" over {cells} cells, above the budget of {MATCH_BUDGET}; {tried}"
            )
        tried = f"deepest depth tried {d}: {cells} cells, {lookups} lookups"
        lefts = [(j, cell) for j, v in enumerate(data.sources) for cell in space.cells(v, d)]
        # per left, its image keys in the order found, each with the first
        # mover found for it: distinct cells can share an image key through
        # different movers, so the mover is per edge, and every colour of
        # a key takes the same one
        edges: Dict = {}
        by_word: Dict[str, list] = {}
        for left in lefts:
            by_word.setdefault(left[1][1], []).append(left)
        for same_word in by_word.values():
            # _image_key reads a mover only through its F2 word and the
            # image label, so the cells of one word share the work
            memo: Dict = {}
            for left in same_word:
                adj = edges[left] = {}
                for g, h, newl in movers[left[1][0]]:
                    try:
                        key = memo[h, newl]
                    except KeyError:
                        key = memo[h, newl] = _image_key(space, ueff_slices, g, left[1])
                    if key is not None:
                        adj.setdefault(key, g)
        forbidden: set = set()
        matched = None
        for _ in range(100):
            matched = _kuhn_match(lefts, edges, forbidden, n + 1)
            if matched is None:
                break
            clash = _color_clash(matched, n)
            if clash is None:
                break
            forbidden.add(clash)
            matched = None
        if matched is not None:
            # one entry per (source, mover, colour), in the order of first
            # appearance, whose piece is the union of its matched cells: the
            # cells of one source are disjoint, so this keeps the verdict of
            # one entry per cell (as in _grouped)
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
            out = SubeqWitness(space, data.sources, [data.target] * (n + 1), entries)
            try:
                return _verified(out, "assigned")
            except ConstructionFailed:
                pass  # refine one level further
    raise DepthCapExceeded(
        f"no per-color disjoint matching up to depth {depth + budget} ({tried});"
        " raise PARATOWER_MAX_DEPTH to search deeper"
    )


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
        pair = _overlap_pair_reps([(lr, lr[1][1]) for lr in group])
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
    for _ in range(4):
        layer = [w + y for w in sorted(layer) for y in legal_next_letters(w)]
        for w in layer:
            if w[-1] == last:
                return w
    raise SearchExhausted(f"cannot extend [{u0}] to end with {last!r}")


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
    if not space.shrink(u_target, eps).equals(u_target):
        raise ConstructionFailed(f"shrinking by {eps} changes the target cylinder")

    # elements moving every depth-1 cylinder into the target cylinder, with
    # every label; one copy of the towers per colour class of K
    letter_movers = _translator_set(u0_cell[1])
    d0 = sorted({""} | set(letter_movers.values()), key=lambda w: (len(w), w))
    f0 = [space.elem(h, e) for h in d0 for e in space.labels]
    e_set, classes, coloring_json = space.coloring()
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
    claim1 = {
        "bound": m,
        "min_count": _frac_json(c1_val),
        "witness_cell": list(c1_cell),
        "pass": c1_val >= m,
    }
    if not claim1["pass"]:
        raise ConstructionFailed(
            f"claim 1 counting bound failed: {c1_val} < {m} on cell {list(c1_cell)}"
        )

    # towers indexed by the m copies, jointly D^2-disjoint; F·F is the D
    # of the product check and the D² of the counting hypothesis
    f_squares = _squares(space, f_elems)
    d2_words = sorted(
        {multiply(u, v) for u in d_words for v in d_words},
        key=lambda w: (len(w), w),
    )
    # the product check shares more_towers's translates and walks; the memo
    # goes with the block, before the larger stages below
    with shared_translates():
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
        tower_cert = verify_towers(fam_check, "exact")
    if not tower_cert.passed:
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
    claim2_witness = SubeqWitness(
        space,
        [space.full()],
        v_list,
        [
            (0, w_set, space.inv(g), idx)
            for idx, (w_set, g) in enumerate(zip(w_list, g_elems))
        ],
    )
    claim2_report = verify_witness(claim2_witness)
    cover_ok = all(c["pass"] for c in claim2_report["coverage"])
    inclusions_ok = all(c["contained"] for c in claim2_report["colors"])
    claim2 = {
        "cover": cover_ok,
        "inclusions": inclusions_ok,
        "report": claim2_report,
        "pass": cover_ok and inclusions_ok and claim2_report["pass"],
    }
    if not claim2["pass"]:
        raise ConstructionFailed(
            f"claim 2 failed: cover {cover_ok}, inclusions {inclusions_ok},"
            f" witness failure {claim2_report['failure']}"
        )

    # claim 3: counting hypothesis plus the matching assignment
    data = CountingData(f_elems, eps, v_list, u_target, f_squares)
    counting = check_counting(space, data, n)
    # petr_assign hands back a witness it has verified, with the report
    claim3_witness = petr_assign(space, data, n, counting)
    claim3_report = claim3_witness.report
    claim3 = {
        "counting": counting,
        "report": claim3_report,
        "pass": counting["pass"] and claim3_report["pass"],
    }
    if not claim3["pass"]:
        raise ConstructionFailed("claim 3 failed")

    # compose and boost verify their witnesses and keep the reports
    composed = compose(claim2_witness, claim3_witness)
    boosted = boost(composed, u_set)

    data_json = {
        "instance": inst.to_json(),
        "U": u_set.to_json(),
        "target_cell": list(u0_cell),
        "epsilon": _frac_json(eps),
        "F0": [space.elem_json(f) for f in f0],
        "D0": d0,
        "E": e_set,
        "translates": t_words,
        "D": d_words,
        "F": [space.elem_json(f) for f in f_elems],
        "n": n,
        "m": m,
        "claim1": claim1,
        "towers": tower_cert.to_json(),
        "coloring": coloring_json,
        "C": [c.to_json() for c in c_sets],
        "g": [space.elem_json(g) for g in g_elems],
        "delta": _frac_json(delta),
        "delta_bound": _frac_json(Fraction(1, 2 * nm * (nm + 1))),
        "N": n_depth,
        "V": [v.to_json() for v in v_list],
        "W": [w_set.to_json() for w_set in w_list],
        "claim2": {k: v for k, v in claim2.items()},
        "claim3": {k: v for k, v in claim3.items()},
        "claim2_witness": claim2_witness.to_json(),
        "claim3_witness": claim3_witness.to_json(),
        "composed": {"report": composed.report},
        "boosted": {
            "witness": boosted.to_json(),
            "report": boosted.report,
        },
        "pass": all(
            [
                claim1["pass"],
                tower_cert.passed,
                claim2["pass"],
                claim3["pass"],
                composed.report["pass"],
                boosted.report["pass"],
            ]
        ),
    }
    return ComparisonCertificate(data_json)
