"""Reference implementations the tests check the exact algorithms against.

They evaluate the geodesic averaging measures point by point, with no
prefix-trie visit: ``GeodesicMap.step_cells`` and ``threshold_weighted``
must agree with ``OracleMap.mu_eval``, and ``defect_bound`` must bound
``OracleMap.defect``.  ``union`` joins tower sets in normal form, as a
``union`` set decodes.  ``moved_base`` is the rule by which
``prefix.translate`` moves one base.  ``image_key`` asks one (cell, mover)
pair at a time what the matching's preimage search
(``comparison._image_keys``) finds for many cells at once.
``fixing_word`` and ``orbit_movers`` are the filling towers' searches done
the long way: the stabilizer check on every word of the ball, and the
orbit separation on every pair of translates.
``squares`` forms D² as the comparison builder hands it to the counting
step, and ``disjoint_translates`` is the translate search that makes |D|
products per candidate word.
``under`` and ``canonical`` are the prefix core's containment test and
canonical form done the long way: every prefix of a word probed in a set
of bases, and sibling families merged level by level from the deepest.
``branch_keys`` and ``branch_sums`` are the trie-key sums of
``prefix.branch_sums`` in two passes: the keys with their parents first,
then the sums.
``multiply`` and ``inverse`` are the word kernel letter by letter: the
product walks the cancelling boundary from its first letter, and the
inverse joins the inverse letters one at a time.
"""

import functools
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Tuple

from paratower import prefix
from paratower.boundary import BoundaryPoint, DepthInsufficient, GeodesicMap, TranslatedPoint
from paratower.subsets import GroupSubset, NormalForm, NormalizedSet
from paratower.towers import CHECK_PREFIX_LEN, STABILIZER_RADIUS, SearchExhausted
from paratower.words import ball, enumerate_words


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


class OracleMap(GeodesicMap):
    """``GeodesicMap`` plus its measures evaluated at single points."""

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


def union(*sets: NormalizedSet) -> NormalizedSet:
    """The union of tower sets in normal form."""
    return NormalizedSet(functools.reduce(NormalForm.union, (s.nf for s in sets), NormalForm()))


def under(w: str, bases) -> bool:
    """Whether the word w lies under one of the bases, in any order."""
    return any(w[:t] in bases for t in range(len(w) + 1))


def canonical(words, bases) -> Tuple[Optional[FrozenSet[str]], FrozenSet[str]]:
    """``prefix.canonical`` in two steps: nested bases and covered words
    dropped, then complete sibling families merged bottom-up, one depth at
    a time, into their parent (in the group only when the parent word is
    in the set)."""
    kept: list = []
    for b in sorted(set(bases)):
        if not kept or not b.startswith(kept[-1]):
            kept.append(b)
    bs = set(kept)
    ws = None if words is None else {w for w in words if not under(w, bs)}
    by_depth: Dict[int, Dict[str, list]] = {}
    for b in bs:
        by_depth.setdefault(len(b) - 1, {}).setdefault(b[:-1], []).append(b)
    # a merge can only complete the family of the parent one level up
    for depth in range(max(by_depth, default=-1), -1, -1):
        for p, kids in by_depth.get(depth, {}).items():
            # a family is three children, or four at the identity
            if len(kids) != (3 if p else 4) or (ws is not None and p not in ws):
                continue
            bs.difference_update(kids)
            bs.add(p)
            if ws is not None:
                ws.discard(p)
            if p:
                by_depth.setdefault(depth - 1, {}).setdefault(p[:-1], []).append(p)
    return (None if ws is None else frozenset(ws)), frozenset(bs)


def branch_keys(words) -> list:
    """The keys of the prefix trie of sorted words, each after its parent
    key (None for ""): "", the words and the longest common prefix of each
    pair of neighbours.  One scan with a stack of the keys above the
    previous word: a word closes the keys that are not its prefixes, and
    its common prefix with the last one closed is a key when longer than
    the top."""
    out: list = []
    stack = [""]
    for w in words:
        closed = None
        while not w.startswith(stack[-1]):
            if closed is not None:
                out.append((closed, stack[-1]))
            closed = stack.pop()
        if closed is not None:
            i = len(stack[-1])
            while closed[i] == w[i]:
                i += 1
            if i > len(stack[-1]):
                stack.append(w[:i])
            out.append((closed, stack[-1]))
        if w != stack[-1]:
            stack.append(w)
    # the keys left on the stack close, the deepest first
    out += zip(stack[:0:-1], stack[-2::-1])
    out.append(("", None))
    return out[::-1]


def branch_sums(weights: Dict[str, int]) -> Tuple[Dict[str, int], Dict[str, list]]:
    """``prefix.branch_sums`` in two passes: the keys of ``branch_keys``
    with their parents first, then each key's path sum from its parent's
    and the parents' child keys."""
    sums: Dict[str, int] = {}
    below: Dict[str, list] = {}
    for x, top in branch_keys(sorted(weights)):
        sums[x] = weights.get(x, 0) + (0 if top is None else sums[top])
        if top is not None:
            below.setdefault(top, []).append(x)
    return sums, below


def moved_base(g: str, h: str) -> Optional[str]:
    """The base of g·W(h) when part of h survives the cancellation with g,
    otherwise None."""
    c = multiply(g, h)
    return c if len(c) > len(g) - len(h) else None


def image_key(space, ueff_slices, g, cell) -> Optional[Tuple]:
    """The (label, base) pairs of g·cell's canonical bases, in order, if
    g·cell lies inside the shrunk target whose slices by label are
    ``ueff_slices``, else None.

    For cells deeper than the cancellation the image is the single
    cylinder [g·w], so the containment test is a string prefix check.
    Otherwise it is decided on the cell's moved bases, which are the
    image's canonical bases; no clopen sets get built."""
    lbl, w = cell
    h = space.word_part(g)
    c = moved_base(h, w)
    newl = space.act_label(g, lbl)
    tgt = ueff_slices[newl]
    if c is not None:
        if tgt.full or any(c.startswith(b) for b in tgt.bases):
            return ((newl, c),)
        if not any(b.startswith(c) for b in tgt.bases):
            return None
    bases = sorted(prefix.translate(h, None, (w,))[1])
    if not (tgt.full or all(under(b, tgt.bases) for b in bases)):
        return None
    return tuple((newl, b) for b in bases)


def cells(space, s, depth: int) -> list:
    """The depth-``depth`` cylinder cells (label, word) below a set of a
    space, in label order and ``ClopenSet.refine`` order."""
    return [
        (lbl, w)
        for lbl, sl in space.slice_items(s)
        if not sl.is_empty()
        for w in sl.refine(depth)
    ]


def fixing_word(z: BoundaryPoint) -> Optional[str]:
    """The first nonempty word of the ball of STABILIZER_RADIUS, in ball
    order, that fixes the length-CHECK_PREFIX_LEN prefix of z, or None:
    every word of the ball is moved along z and compared."""
    for g in ball(STABILIZER_RADIUS):
        if g == "":
            continue
        moved = multiply(g, z.prefix(CHECK_PREFIX_LEN + len(g)))
        if moved[:CHECK_PREFIX_LEN] == z.prefix(CHECK_PREFIX_LEN):
            return g
    return None


def orbit_movers(z: BoundaryPoint, d_list, n: int) -> list:
    """The movers of ``towers.orbit_movers``, found by comparing the
    length-CHECK_PREFIX_LEN prefixes of d·c·z and d2·p for every candidate
    c, every point p taken before and every pair d, d2 of D."""
    points = [z]
    movers = [""]
    for g in enumerate_words():
        if len(points) == n:
            return movers
        if g == "":
            continue
        cand = TranslatedPoint(g, z)
        ok = True
        for p in points:
            for d in d_list:
                for d2 in d_list:
                    a = multiply(d, cand.prefix(CHECK_PREFIX_LEN + len(d)))[:CHECK_PREFIX_LEN]
                    b = multiply(d2, p.prefix(CHECK_PREFIX_LEN + len(d2)))[:CHECK_PREFIX_LEN]
                    if a == b:
                        ok = False
        if ok:
            points.append(cand)
            movers.append(g)
    if len(points) < n:
        raise SearchExhausted("could not separate enough orbit points")
    return movers


def squares(space, d_set) -> list:
    """D·D, each element once, sorted by word length, then by JSON."""
    return sorted(
        {space.mul(g, h) for g in d_set for h in d_set},
        key=lambda e: (len(space.word_part(e)), str(space.elem_json(e))),
    )


def disjoint_translates(d_words, count: int) -> list:
    """The first ``count`` words s, in enumeration order, with the sets D·s
    pairwise disjoint: each candidate's |D| products against the words
    taken so far."""
    chosen: list = []
    taken: set = set()
    for w in enumerate_words():
        if not any(multiply(d, w) in taken for d in d_words):
            chosen.append(w)
            taken.update(multiply(d, w) for d in d_words)
            if len(chosen) == count:
                return chosen
    raise SearchExhausted(f"found only {len(chosen)} of {count} disjoint translates")


_INVERSE_LETTER = {"a": "A", "A": "a", "b": "B", "B": "b"}


def multiply(u: str, v: str) -> str:
    """The product of two reduced words, the boundary walked letter by letter."""
    if not u:
        return v
    if not v:
        return u
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == _INVERSE_LETTER[v[j]]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def inverse(u: str) -> str:
    """The inverse of a reduced word, one letter at a time."""
    return "".join(_INVERSE_LETTER[x] for x in reversed(u))
