"""Subequivalence witnesses and the end-to-end space-to-target comparison.

A witness for (U_1..U_n) being subequivalent to (V_1..V_m) is a finite
list of entries (source index, clopen piece, group element, color) such
that the pieces of each index cover the source and, per color, the images
are pairwise disjoint inside the color's target.  Everything here is exact:
verification, composition, color boosting, the counting-to-assignment step
(reduced to bipartite matching on cylinder cells), and the full builder
that takes the whole boundary below a chosen clopen set in one color.

Two ambient spaces are supported: the plain boundary with the free group
acting, and boundary x K (K finite) with the product group acting.  Each
takes its group arithmetic from its group class in ``paratower.groups``.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import prefix
from . import words as fw
from .boundary import ClopenSet, GeodesicMap, ProductClopen, clopen_from_json, shrink
from .coloring import greedy_color
from .groups import F2Group, F2xKGroup, cyclic_group, group_from_json
from .towers import ProductSubset, SearchExhausted, TowerFamily, more_towers, verify_towers
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


def _extra_depth_budget() -> int:
    return int(os.environ.get("PARATOWER_MAX_DEPTH", "8"))


def _frac_json(x: Fraction) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# ambient spaces

Cell = Tuple[Optional[str], str]  # (K label or None, cylinder base word)


class PlainSpace(F2Group):
    """The boundary of the rank-2 free group with the left action."""

    def act(self, g: str, s: ClopenSet) -> ClopenSet:
        return s.act(g)

    def act_label(self, g: str, lbl: Optional[str]) -> Optional[str]:
        return lbl

    def full(self) -> ClopenSet:
        return ClopenSet.full_set()

    def empty(self) -> ClopenSet:
        return ClopenSet.empty()

    def cylinder(self, cell: Cell) -> ClopenSet:
        return ClopenSet.cylinder(cell[1])

    def cells(self, s: ClopenSet, depth: int) -> List[Cell]:
        return [(None, w) for w in s.refine(depth)]

    def slice_items(self, s: ClopenSet) -> List[Tuple[Optional[str], ClopenSet]]:
        return [(None, s)]

    def uniform(self, c: ClopenSet) -> ClopenSet:
        return c

    def shrink(self, s: ClopenSet, eps: Fraction) -> ClopenSet:
        return shrink(s, eps)


class ProductSpace(F2xKGroup):
    """Boundary x K for a finite K, with the product group acting."""

    def act(self, g, s: ProductClopen) -> ProductClopen:
        return s.act(g)

    def act_label(self, g, lbl: str) -> str:
        return self.k_group.mul(g[1], lbl)

    def full(self) -> ProductClopen:
        return ProductClopen.full_set(self.k_group)

    def empty(self) -> ProductClopen:
        return ProductClopen.empty(self.k_group)

    def cylinder(self, cell: Cell) -> ProductClopen:
        lbl, w = cell
        return ProductClopen(self.k_group, {lbl: ClopenSet.cylinder(w)})

    def cells(self, s: ProductClopen, depth: int) -> List[Cell]:
        out: List[Cell] = []
        for lbl in self.k_group.elements:
            sl = s.slices[lbl]
            if sl.is_empty():
                continue
            out.extend((lbl, w) for w in sl.refine(depth))
        return out

    def slice_items(self, s: ProductClopen) -> List[Tuple[Optional[str], ClopenSet]]:
        return [(lbl, s.slices[lbl]) for lbl in self.k_group.elements]

    def uniform(self, c: ClopenSet) -> ProductClopen:
        return ProductClopen.uniform(self.k_group, c)

    def shrink(self, s: ProductClopen, eps: Fraction) -> ProductClopen:
        # K carries the discrete metric, so only the boundary factor shrinks
        return ProductClopen(
            self.k_group,
            {lbl: shrink(s.slices[lbl], eps) for lbl in self.k_group.elements},
        )


def space_from_json(data: dict):
    group = group_from_json(data)
    if group.kind == "F2":
        return PlainSpace()
    if group.kind == "F2xK":
        return ProductSpace(group.k_group)
    raise ValueError(f"no boundary space for the group {group.kind}")


# ---------------------------------------------------------------------------
# exact extremes of weighted indicator sums

def _extreme_plain(
    items: Sequence[Tuple[ClopenSet, Fraction]], mode: str
) -> Tuple[Fraction, str]:
    """Exact min or max over the boundary of sum(w_i * 1_{S_i}), with a
    witness cylinder on which the extreme is attained."""
    const = Fraction(0)
    base_w: Dict[str, Fraction] = {}
    for s, w in items:
        if s.full:
            const += w
        else:
            for b in s.bases:
                base_w[b] = base_w.get(b, Fraction(0)) + w
    trie = set()
    for b in base_w:
        for t in range(len(b) + 1):
            trie.add(b[:t])
    better = (lambda a, b: a < b) if mode == "min" else (lambda a, b: a > b)
    best: Optional[Fraction] = None
    best_cell = ""

    def visit(node: str, cum: Fraction) -> None:
        nonlocal best, best_cell
        cum = cum + base_w.get(node, Fraction(0))
        for y in legal_next_letters(node):
            child = node + y
            if child in trie:
                visit(child, cum)
            elif best is None or better(cum, best):
                best, best_cell = cum, child

    if not trie:
        return const, ""
    visit("", const)
    assert best is not None
    return best, best_cell


def extreme_weighted_count(space, items, mode: str) -> Tuple[Fraction, Cell]:
    """Extreme of a weighted sum of clopen indicators over the whole space."""
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    better = (lambda a, b: a < b) if mode == "min" else (lambda a, b: a > b)
    best: Optional[Fraction] = None
    best_cell: Cell = (None, "")
    labels = {lbl for s, _ in items for lbl, _ in space.slice_items(s)}
    for lbl in sorted(labels, key=str):
        per = []
        for s, w in items:
            for l2, sl in space.slice_items(s):
                if l2 == lbl:
                    per.append((sl, Fraction(w)))
        val, cell = _extreme_plain(per, mode)
        if best is None or better(val, best):
            best, best_cell = val, (lbl, cell)
    assert best is not None
    return best, best_cell


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
        space = space_from_json(data["space"])
        return SubeqWitness(
            space,
            [clopen_from_json(s) for s in data["sources"]],
            [clopen_from_json(t) for t in data["targets"]],
            [
                (
                    e["source"],
                    clopen_from_json(e["piece"]),
                    space.elem_from_json(e["g"]),
                    e["color"],
                )
                for e in data["entries"]
            ],
        )


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


def verify_witness(w: SubeqWitness) -> dict:
    """Exact check of both witness invariants; reports the first failure."""
    space = w.space
    report: dict = {"pass": True, "coverage": [], "colors": [], "failure": None}
    for i, src in enumerate(w.sources):
        covered = space.empty()
        for j, piece, _, _ in w.entries:
            if j == i:
                covered = covered.union(piece)
        ok = src.is_subset(covered)
        report["coverage"].append({"source": i, "pass": ok})
        if not ok and report["failure"] is None:
            report["pass"] = False
            report["failure"] = {"kind": "coverage", "source": i}
    for color in range(w.colors):
        target = w.targets[color]
        images = []
        contained = True
        bad_entry = None
        for idx, (i, piece, g, c) in enumerate(w.entries):
            if c != color:
                continue
            img = space.act(g, piece)
            if not img.is_subset(target):
                contained = False
                bad_entry = idx
                break
            images.append((idx, img))
        disjoint = True
        bad_pair = None
        if contained:
            bad_pair = _overlap_pair(space, images)
            disjoint = bad_pair is None
        report["colors"].append(
            {"color": color, "contained": contained, "disjoint": disjoint}
        )
        if (not contained or not disjoint) and report["failure"] is None:
            report["pass"] = False
            if not contained:
                report["failure"] = {"kind": "containment", "entry": bad_entry}
            else:
                report["failure"] = {"kind": "overlap", "entries": list(bad_pair)}
    return report


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
    out = SubeqWitness(space, w1.sources, w2.targets, entries)
    report = verify_witness(out)
    if not report["pass"]:
        raise RuntimeError(f"composed witness failed verification: {report['failure']}")
    return out


def _cylinder_cell_of(space, s) -> Cell:
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
        out = SubeqWitness(space, w.sources, [v_set], w.entries)
        report = verify_witness(out)
        assert report["pass"], "boost identity case failed verification"
        return out
    v_cell = _cylinder_cell_of(space, v_set)
    ends = _extensions_ending_with(v_cell[1], w0_cell[1][-1], r_plus_1)
    k_shift = None
    if space.kind == "F2xK":
        k_shift = space.k_group.mul(v_cell[0], space.k_group.inv(w0_cell[0]))
    translators = []
    for v_k in ends:
        word = multiply(v_k, inverse(w0_cell[1]))
        t = word if k_shift is None else (word, k_shift)
        translators.append(t)
    # each translator carries [w0] exactly onto its own subcylinder of v_set
    images = [space.act(t, w.targets[0]) for t in translators]
    for s1, s2 in itertools.combinations(images, 2):
        assert s1.are_disjoint(s2), "translator images overlap"
    for img in images:
        assert img.is_subset(v_set), "translator image escapes the target"
    entries = [
        (i, piece, space.mul(translators[color], g), 0)
        for i, piece, g, color in w.entries
    ]
    out = SubeqWitness(space, w.sources, [v_set], entries)
    report = verify_witness(out)
    if not report["pass"]:
        raise RuntimeError(f"boosted witness failed verification: {report['failure']}")
    return out


# ---------------------------------------------------------------------------
# counting data and the assignment step

class CountingData:
    """Inputs of the counting-to-assignment step.

    d_set is a finite symmetric set of group elements; the hypothesis reads
    sum_j |{g in D^2 : g.x in V_j}| + R(x) < (n+1) |{g in D : g.x in U^{-eps}}|
    pointwise, with R an optional step-function slack given by cells.
    """

    def __init__(self, d_set, epsilon: Fraction, sources, target, slack=None):
        self.d_set = list(d_set)
        self.epsilon = Fraction(epsilon)
        self.sources = list(sources)
        self.target = target
        self.slack = list(slack or [])  # (cell, value) pairs


def _elem_order(space):
    """Sort key of group elements: by word length, then by their JSON."""
    return lambda e: (len(space.word_part(e)), str(space.elem_json(e)))


def check_counting(space, data: CountingData, n: int) -> dict:
    """Exact pointwise verification of the counting hypothesis."""
    u_eff = space.shrink(data.target, data.epsilon)
    d2 = sorted(
        {space.mul(g, h) for g in data.d_set for h in data.d_set}, key=_elem_order(space)
    )
    items: List[Tuple[object, Fraction]] = []
    for f in d2:
        for v in data.sources:
            items.append((space.act(space.inv(f), v), Fraction(1)))
    for g in data.d_set:
        items.append((space.act(space.inv(g), u_eff), Fraction(-(n + 1))))
    for cell, value in data.slack:
        items.append((space.cylinder(cell), Fraction(value)))
    worst, cell = extreme_weighted_count(space, items, "max")
    return {
        "pass": worst < 0,
        "max_margin": _frac_json(worst),
        "witness_cell": list(cell),
        "d2_size": len(d2),
    }


def _kuhn_match(lefts, adjacency, forbidden) -> Optional[Dict]:
    match_r: Dict = {}
    match_l: Dict = {}

    def try_augment(l, visited) -> bool:
        for r in adjacency[l]:
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


def petr_assign(
    space, data: CountingData, n: int, counting: Optional[dict] = None
) -> SubeqWitness:
    """Turn the counting hypothesis into a witness (V_j) below n+1 copies
    of the target, via bipartite matching on cylinder cells.  ``counting``
    is the report of ``check_counting(space, data, n)`` when the caller
    has it already."""
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

    def image_rep(g, cell) -> Optional[Tuple]:
        """(key, base rep) of g·cell if it lies inside the shrunk target.

        For cells deeper than the cancellation the image is the single
        cylinder [g·w], so the containment test is a string prefix check
        and no clopen sets get built."""
        lbl, w = cell
        c = prefix.moved_base(space.word_part(g), w)
        newl = space.act_label(g, lbl)
        tgt = ueff_slices[newl]
        if c is not None:
            if tgt.is_full() or any(c.startswith(b) for b in tgt.bases):
                return (((newl, c),), [(newl, c)])
            if not any(b.startswith(c) for b in tgt.bases):
                return None
        img = space.act(g, space.cylinder(cell))
        if not img.is_subset(u_eff):
            return None
        rep = _base_rep(space, img)
        return (tuple(sorted(rep, key=lambda t: (str(t[0]), t[1]))), rep)

    for attempt in range(budget + 1):
        d = depth + attempt
        lefts = []
        edges: Dict = {}
        image_of: Dict = {}
        edge_elem: Dict = {}
        for j, v in enumerate(data.sources):
            for cell in space.cells(v, d):
                left = (j, cell)
                lefts.append(left)
                adj = []
                for g in elem_order:
                    found = image_rep(g, cell)
                    if found is None:
                        continue
                    key, rep = found
                    for color in range(n + 1):
                        right = (color, key)
                        image_of.setdefault(right, rep)
                        # distinct cells can share an image key through
                        # different elements, so the mover is per edge
                        edge_elem.setdefault((left, right), g)
                        adj.append(right)
                edges[left] = adj
        forbidden: set = set()
        matched = None
        for _ in range(100):
            matched = _kuhn_match(lefts, edges, forbidden)
            if matched is None:
                break
            clash = _color_clash(matched, image_of, n)
            if clash is None:
                break
            forbidden.add(clash)
            matched = None
        if matched is not None:
            entries = []
            for left in lefts:
                right = matched[left]
                g = edge_elem[(left, right)]
                entries.append((left[0], space.cylinder(left[1]), g, right[0]))
            out = SubeqWitness(
                space, data.sources, [data.target] * (n + 1), entries
            )
            report = verify_witness(out)
            if report["pass"]:
                return out
    raise DepthCapExceeded(
        f"no per-color disjoint matching up to depth {depth + budget}"
    )


def _color_clash(matched, image_of, n):
    """First overlapping pair of matched images sharing a color, as the
    (left, right) edge to forbid."""
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
        pair = _overlap_pair_reps(
            [(lr, image_of[lr[1]]) for lr in group]
        )
        if pair is not None:
            return pair[1]
    return None


# ---------------------------------------------------------------------------
# the end-to-end builder

class ComparisonInstance:
    """One of the two supported actions: the plain boundary, or boundary x Z/2."""

    def __init__(self, name: str):
        if name not in ("F2", "F2xZ2"):
            raise ValueError(f"unsupported instance: {name!r}")
        self.name = name
        self.k_group = cyclic_group(2) if name == "F2xZ2" else None

    def space(self):
        if self.k_group is None:
            return PlainSpace()
        return ProductSpace(self.k_group)

    def to_json(self) -> dict:
        out = {"name": self.name}
        if self.k_group is not None:
            out["k"] = self.k_group.to_json()
        return out


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
    k_group = inst.k_group

    # target cylinder and the shrinking margin that leaves it unchanged
    u0_cell = _cylinder_cell_of(space, u_set)
    u_target = space.cylinder(u0_cell)
    eps = Fraction(1, 2 ** (len(u0_cell[1]) + 1))
    assert space.shrink(u_target, eps).equals(u_target)

    # elements moving every depth-1 cylinder into the target cylinder
    letter_movers = _translator_set(u0_cell[1])
    d0 = sorted({""} | set(letter_movers.values()), key=lambda w: (len(w), w))
    if k_group is None:
        e_set: List[str] = []
        f0 = list(d0)
        m = 1
    else:
        e_set = list(k_group.elements)
        f0 = [(h, e) for h in d0 for e in e_set]
        e2 = sorted({k_group.mul(a, b) for a in e_set for b in e_set})
        m = len({k_group.mul(a, b) for a in e2 for b in e2})

    covered = space.empty()
    for f in f0:
        covered = covered.union(space.act(space.inv(f), u_target))
    assert space.full().is_subset(covered), "depth-1 movers do not reach the whole space"

    # disjoint translates and the symmetric generating set
    from .towers import _greedy_disjoint_translates

    t_words = _greedy_disjoint_translates(d0, m)
    d_words = sorted(
        {multiply(h, t) for h in d0 for t in t_words}
        | {inverse(multiply(h, t)) for h in d0 for t in t_words}
        | {""},
        key=lambda w: (len(w), w),
    )
    if k_group is None:
        f_elems: List = list(d_words)
    else:
        f_elems = [(h, e) for h in d_words for e in e_set]

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
    assert claim1["pass"], "claim 1 counting bound failed"

    # towers indexed by the m copies, jointly D^2-disjoint
    d2_words = sorted(
        {multiply(u, v) for u in d_words for v in d_words},
        key=lambda w: (len(w), w),
    )
    tower_fam = more_towers(d2_words, m)
    n = len(tower_fam.cover_groups[0])
    nm = n * m

    # pair each copy with a color class of K and assemble the product sets
    coloring_json = None
    c_sets: List = []
    g_elems: List = []
    if k_group is None:
        for idxs in tower_fam.cover_groups:
            for i in idxs:
                a, g = tower_fam.items[i]
                c_sets.append(a)
                g_elems.append(g)
    else:
        coloring = greedy_color(k_group, e2)
        if coloring.m != m:
            raise RuntimeError("color budget disagrees with |E^4|")
        coloring_json = coloring.to_json()
        classes = [coloring.color_class(j + 1) for j in range(m)]
        for j, idxs in enumerate(tower_fam.cover_groups):
            for i in idxs:
                a, g = tower_fam.items[i]
                c_sets.append(
                    ProductSubset(k_group, {lbl: a for lbl in classes[j]})
                )
                g_elems.append((g, k_group.identity))
    fam_check = TowerFamily(
        space.kind,
        sorted({space.mul(u, v) for u in f_elems for v in f_elems}, key=_elem_order(space)),
        list(zip(c_sets, g_elems)),
        k_group=k_group,
        cover_groups=[list(range(nm))],
    )
    tower_cert = verify_towers(fam_check, "exact")
    assert tower_cert.passed, "product tower conditions failed"

    # approximation scale: defect bound strictly below delta
    delta = Fraction(1, 4 * nm * (nm + 1))
    assert delta < Fraction(1, 2 * nm * (nm + 1))
    all_movers = d2_words + [space.word_part(g) for g in g_elems]
    big_m = max(len(w) for w in all_movers)
    n_depth = int(2 * big_m / delta) + 1
    gm = GeodesicMap(n_depth)
    assert gm.defect_bound("a" * big_m) < delta

    # threshold sets; the K factor carries the uniform measure, so both
    # families are uniform across labels
    def measure_threshold(subset, theta: Fraction) -> object:
        if k_group is None:
            nfs = [subset.normal_form()]
            weights = [Fraction(1)]
        else:
            nfs = [subset.slices[lbl].normal_form() for lbl in k_group.elements]
            weights = [Fraction(1, len(k_group))] * len(k_group)
        return space.uniform(gm.threshold_weighted(nfs, weights, theta, ">"))

    theta_v = Fraction(1, nm + 1) + delta
    theta_w = Fraction(1, nm + 1) + 2 * delta
    v_list = [measure_threshold(c, theta_v) for c in c_sets]
    w_list = [measure_threshold(c.translate(g), theta_w) for c, g in zip(c_sets, g_elems)]

    # claim 2: the W's cover, and each pulls back into its V
    union_w = space.empty()
    for w_set in w_list:
        union_w = union_w.union(w_set)
    cover_ok = space.full().is_subset(union_w)
    inclusions_ok = all(
        space.act(space.inv(g), w_set).is_subset(v_set)
        for g, w_set, v_set in zip(g_elems, w_list, v_list)
    )
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
    claim2 = {
        "cover": cover_ok,
        "inclusions": inclusions_ok,
        "report": claim2_report,
        "pass": cover_ok and inclusions_ok and claim2_report["pass"],
    }
    assert claim2["pass"], "claim 2 failed"

    # claim 3: counting hypothesis plus the matching assignment
    data = CountingData(f_elems, eps, v_list, u_target)
    counting = check_counting(space, data, n)
    claim3_witness = petr_assign(space, data, n, counting)
    claim3_report = verify_witness(claim3_witness)
    claim3 = {
        "counting": counting,
        "report": claim3_report,
        "pass": counting["pass"] and claim3_report["pass"],
    }
    assert claim3["pass"], "claim 3 failed"

    composed = compose(claim2_witness, claim3_witness)
    composed_report = verify_witness(composed)
    boosted = boost(composed, u_set)
    boosted_report = verify_witness(boosted)

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
        "composed": {
            "witness": composed.to_json(),
            "report": composed_report,
        },
        "boosted": {
            "witness": boosted.to_json(),
            "report": boosted_report,
        },
        "pass": all(
            [
                claim1["pass"],
                tower_cert.passed,
                claim2["pass"],
                claim3["pass"],
                composed_report["pass"],
                boosted_report["pass"],
            ]
        ),
    }
    return ComparisonCertificate(data_json)
