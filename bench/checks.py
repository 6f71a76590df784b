"""Correctness checks of the benchmark, written apart from paratower.

Nothing here imports paratower.  Words are strings over a/A/b/B, free
reduction is the benchmark's own few-line ``multiply``, and sets are tested
by prefixes.  Every check returns ``None`` when the output is right, and
otherwise a one-line description of the first problem found.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
LETTERS = ("a", "A", "b", "B")


def multiply(u: str, v: str) -> str:
    out = list(u)
    for x in v:
        if out and out[-1] == INV[x]:
            out.pop()
        else:
            out.append(x)
    return "".join(out)


def inverse(u: str) -> str:
    return "".join(INV[x] for x in reversed(u))


def children(w: str) -> List[str]:
    return [w + x for x in LETTERS if not w or x != INV[w[-1]]]


def random_word(rng: random.Random, length: int, start: str = "") -> str:
    """A uniformly random reduced word of the given length extending `start`."""
    w = start
    while len(w) < length:
        w = rng.choice(children(w))
    return w


def ball_words(radius: int) -> List[str]:
    out = [""]
    layer = [""]
    for _ in range(radius):
        layer = [c for w in layer for c in children(w)]
        out.extend(layer)
    return out


def ball_size(radius: int) -> int:
    return 1 + 2 * (3**radius - 1)


def cone_count(base: str, radius: int) -> int:
    """Closed-form number of words of length at most `radius` starting with `base`."""
    if not base:
        return ball_size(radius)
    if len(base) > radius:
        return 0
    return (3 ** (radius - len(base) + 1) - 1) // 2


def has_prefix_in(word: str, bases: Iterable[str]) -> bool:
    return any(word.startswith(b) for b in bases)


# ---------------------------------------------------------------------------
# tower certificates


def check_cone_family(payload: dict, check_radius: int) -> Optional[str]:
    """Check a passing F2 cone-tower certificate.

    Each translate d·W(h) must be the single cone W(dh); the number of words
    of the radius-`check_radius` ball inside it, counted one by one, must
    match the closed form; the cones must be pairwise prefix-incomparable
    (so the translates are disjoint at every radius); and the covering
    translates g·W(h) must reach every word of the ball.
    """
    if payload.get("group") != "F2":
        return f"not an F2 family: {payload.get('group')!r}"
    heads = []
    for t in payload["towers"]:
        if t["A"].get("kind") != "cone":
            return f"tower set is not a cone: {t['A']}"
        heads.append((t["A"]["base"], t["g"]))
    words = ball_words(check_radius)
    if len(words) != ball_size(check_radius):
        return f"ball of radius {check_radius} has {len(words)} words"
    cones = []
    for i, (h, _) in enumerate(heads):
        for d in payload["D"]:
            c = multiply(d, h)
            if (len(d) + len(h) - len(c)) // 2 >= len(h):
                return f"translate {d!r}·W({h!r}) is not a cone"
            cones.append((c, d, i))
    for c, d, i in cones:
        counted = sum(1 for w in words if w.startswith(c))
        if counted != cone_count(c, check_radius):
            return (
                f"translate {d!r}·W(tower {i}) holds {counted} ball words,"
                f" closed form says {cone_count(c, check_radius)}"
            )
    ordered = sorted(cones)
    for (c1, d1, i1), (c2, d2, i2) in zip(ordered, ordered[1:]):
        if c2.startswith(c1):
            return f"translates {d1!r}·W(tower {i1}) and {d2!r}·W(tower {i2}) meet"
    for group in payload["cover_groups"]:
        movers = [(inverse(heads[i][1]), heads[i][0]) for i in group]
        covered = sum(
            1 for w in words if any(multiply(gi, w).startswith(h) for gi, h in movers)
        )
        if covered != len(words):
            return f"covering translates reach {covered} of {len(words)} ball words"
    return None


def check_tower_counterexample(payload: dict, tower_bases: Sequence[str]) -> Optional[str]:
    """Confirm the disjointness counterexample of a failing F2 certificate:
    its word must lie in both reported translates d·W(h_i) and d2·W(h_i2)."""
    check = payload["checks"]["disjoint"]
    if check["pass"]:
        return "seeded defect passed the disjointness check"
    cex = check["counterexample"]
    w = cex["word"]
    first = (cex["d"], cex["i"])
    second = (cex["d2"], cex["i2"])
    if first == second:
        return f"counterexample names one translate twice: {cex}"
    for d, i in (first, second):
        if not multiply(inverse(d), w).startswith(tower_bases[i]):
            return f"word {w!r} is not in {d!r}·W({tower_bases[i]!r})"
    return None


# ---------------------------------------------------------------------------
# comparison certificates

Point = Tuple[Optional[str], str]  # (K label or None, prefix of a boundary point)


def _cells(clopen: dict) -> List[Tuple[Optional[str], str]]:
    """(K label or None, base) cells of a clopen set in its JSON form; a full
    slice is the single cell with base ''."""
    if clopen["space"] == "boundary":
        slices = {None: clopen}
    else:
        slices = clopen["slices"]
    return [
        (lbl, b)
        for lbl, s in slices.items()
        for b in ([""] if s["kind"] == "full" else s["words"])
    ]


class _Mover:
    """g acting on (label, prefix) points; K = Z/n acts by addition."""

    def __init__(self, g, k_order: int):
        if isinstance(g, list):
            self.word, self.label = g[0], int(g[1])
        else:
            self.word, self.label = g, 0
        self.k_order = k_order

    def apply(self, point: Point, inverse_of: bool = False) -> Point:
        lbl, p = point
        word = inverse(self.word) if inverse_of else self.word
        if lbl is not None:
            shift = -self.label if inverse_of else self.label
            lbl = str((int(lbl) + shift) % self.k_order)
        # at most |g| letters of p cancel, so this many stay exact
        return lbl, multiply(word, p)[: len(p) - len(word)]


def _inside(cells, point: Point, depth: int) -> bool:
    lbl, p = point
    return any((lbl, p[:t]) in cells for t in range(min(len(p), depth) + 1))


def check_final_witness(
    payload: dict, u_json: dict, rng: random.Random, points: int = 40, length: int = 96
) -> Optional[str]:
    """Check the boosted (final) witness of a comparison certificate.

    Its sources must be [full] and its targets [U].  On seeded random deep
    boundary points (one inside every piece cell, plus `points` uniform
    ones): every point lies in some piece and its image lies in U.  On
    `points` random points of U and on the images of `points` of the points
    above: no point is hit by two entries of one color.
    """
    w = payload["boosted"]["witness"]
    space = w["space"]
    if space["kind"] == "F2":
        labels: List[Optional[str]] = [None]
        full = {"space": "boundary", "kind": "full"}
    else:
        labels = list(space["k"]["elements"])
        full = {
            "space": "product",
            "k": space["k"],
            "slices": {lbl: {"space": "boundary", "kind": "full"} for lbl in labels},
        }
    if w["sources"] != [full]:
        return "final witness sources are not [full]"
    if w["targets"] != [u_json]:
        return "final witness target is not U"
    u_cells = set(_cells(u_json))
    movers = [_Mover(e["g"], len(labels)) for e in w["entries"]]
    pieces = [set(_cells(e["piece"])) for e in w["entries"]]
    colors = [e["color"] for e in w["entries"]]
    owners: Dict[Point, List[int]] = {}
    for k, cells in enumerate(pieces):
        for cell in cells:
            owners.setdefault(cell, []).append(k)
    depth = max(len(b) for _, b in list(owners) + list(u_cells))
    if length < max(len(m.word) for m in movers) + depth:
        return "check points are too short for the movers"

    def extend(cell: Point) -> Point:
        return cell[0], random_word(rng, length, cell[1])

    starts = sorted(owners, key=str) + [(rng.choice(labels), "") for _ in range(points)]
    images = []
    for x in map(extend, starts):
        hits = [k for t in range(depth + 1) for k in owners.get((x[0], x[1][:t]), ())]
        if not hits:
            return f"point {x} lies in no piece"
        for k in hits:
            y = movers[k].apply(x)
            if not _inside(u_cells, y, depth):
                return f"entry {k} moves point {x} outside U"
            images.append(y)
    probes = rng.sample(images, min(points, len(images)))
    probes += [extend(rng.choice(sorted(u_cells, key=str))) for _ in range(points)]
    for lbl, y in probes:
        seen: Dict[int, int] = {}
        for k, m in enumerate(movers):
            # only the first |g| + depth letters of y decide g^-1·y's cell
            if _inside(pieces[k], m.apply((lbl, y[: len(m.word) + depth]), True), depth):
                if colors[k] in seen:
                    return f"point {(lbl, y)} of U is hit by entries {seen[colors[k]]} and {k}"
                seen[colors[k]] = k
    return None


# ---------------------------------------------------------------------------
# clopen algebra


def covers_boundary(bases: Iterable[str]) -> bool:
    """True iff the cylinders [b] cover the whole boundary ('' is the full set)."""
    bs = set(bases)
    inner = {b[:t] for b in bs for t in range(len(b))}

    def covered(w: str) -> bool:
        if w in bs:
            return True
        return w in inner and all(covered(c) for c in children(w))

    return covered("")


def covers_group(cones: Iterable[str], words: Iterable[str]) -> bool:
    """True iff the cones W(c) and the finite words together cover all of F2."""
    cs, ws = set(cones), set(words)
    inner = {c[:t] for c in cs for t in range(len(c))}

    def covered(w: str) -> bool:
        if w in cs:
            return True
        return w in ws and w in inner and all(covered(c) for c in children(w))

    return covered("")


def first_overlap(bases: Iterable[str]) -> Optional[Tuple[str, str]]:
    """A pair of bases one of which is a prefix of the other, or None."""
    ordered = sorted(bases)
    for x, y in zip(ordered, ordered[1:]):
        if y.startswith(x):
            return x, y
    return None


def check_partition_boundary(s_bases: Sequence[str], c_bases: Sequence[str]) -> Optional[str]:
    """S and C, as base lists, must split the boundary: S∩C=∅ and S∪C=full."""
    pair = first_overlap(list(s_bases) + list(c_bases))
    if pair is not None:
        return f"set and complement overlap at [{pair[1]}]"
    if not covers_boundary(list(s_bases) + list(c_bases)):
        return "set and complement leave part of the boundary uncovered"
    return None


def check_partition_group(s: Tuple[Sequence[str], Sequence[str]], c) -> Optional[str]:
    """(cones, words) pairs S and C must split F2 into two parts."""
    cones = list(s[0]) + list(c[0])
    words = list(s[1]) + list(c[1])
    pair = first_overlap(cones)
    if pair is not None:
        return f"cones W({pair[0]!r}) and W({pair[1]!r}) overlap"
    if len(set(words)) != len(words):
        return "a word lies in the set and in its complement"
    for w in words:
        if has_prefix_in(w, cones):
            return f"word {w!r} lies in a cone"
    if not covers_group(cones, words):
        return "set and complement leave part of the group uncovered"
    return None


def in_bases(word: str, bases: frozenset, full: bool = False) -> bool:
    """Membership of `word`, or of the boundary point it is a prefix of, in
    the union of cones/cylinders at `bases` (a set, tested prefix by prefix)."""
    return full or any(word[:t] in bases for t in range(len(word) + 1))


# expected membership of each algebra result, from membership in S, in T and
# of the pulled-back point g^-1·p in S
EXPECTED = {
    "canonical": lambda s, t, pulled: s,
    "shuffled": lambda s, t, pulled: s,
    "split": lambda s, t, pulled: s,
    "complement": lambda s, t, pulled: not s,
    "minus": lambda s, t, pulled: s and not t,
    "inter": lambda s, t, pulled: s and t,
    "union": lambda s, t, pulled: s or t,
    "act": lambda s, t, pulled: pulled,
    "act_back": lambda s, t, pulled: s,
}


def check_algebra(results, in_s, in_t, pull, samples: Iterable[str]) -> Optional[str]:
    """Compare every algebra result with the raw inputs, point by point.

    `results` maps an operation name of EXPECTED to a membership test of the
    program's result; `in_s`/`in_t` test membership in the raw bases, and
    `pull(p)` is g^-1·p for the element g the set was moved by.
    """
    for p in samples:
        s, t, pulled = in_s(p), in_t(p), in_s(pull(p))
        for name, test in results.items():
            if test(p) != EXPECTED[name](s, t, pulled):
                return f"{name} is wrong at {p!r}"
    return None


def probe_points(rng: random.Random, bases: Iterable[str], length: int, uniform: int) -> List[str]:
    """Sample words: a random extension of every child of every prefix of
    every base (so each cylinder the algebra can produce is hit), plus
    `uniform` uniformly random words, all of length `length`.  A negative
    `length` gives finite group words instead: each prefix itself, and
    extensions by a random number of letters up to -length."""

    def draw(start: str) -> str:
        n = length if length >= 0 else rng.randint(len(start), len(start) - length)
        return random_word(rng, max(n, len(start)), start)

    out = []
    for b in sorted(set(bases)):
        for t in range(len(b) + 1):
            out.append(b[:t] if length < 0 else draw(b[:t]))
            out.extend(draw(c) for c in children(b[:t]))
    out.extend(draw("") for _ in range(uniform))
    return out
