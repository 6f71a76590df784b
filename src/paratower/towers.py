"""Paradoxical tower families: construction and certification.

A tower family over a group G is a finite set D together with pairs
(A_i, g_i) such that the translates d·A_i, for d in D and all i, are
pairwise disjoint while the g_i·A_i cover G.  The free-group construction
uses cones at the padded words a^{2m}ba and a^{2m}bA; families on F2 × K,
F2 × F2 and the rank-3 free group are built from it.  A builder only
builds: the code that reads a family checks it, once, with
``verify_towers``.  Every family
whose sets have cone normal forms is certified exactly, on the whole group,
by the same prefix-trie walk that certifies it on a metric ball.  A
family on F2 × K or F2 × F2 is read by its factors: its sets split into
rectangles A × C, and since (h, e)·(A × C) = hA × eC, the F2 sets hA are
read at each label: an element of K, or on F2 × F2 a membership pattern
of the second factors eC.  A disjointness check on F2, F3 or F2 × K first
asks on bases alone whether two translates may meet: it moves each
distinct hA once and needs one sorted scan of their bases and, for each h
and A, pairwise disjoint label sets eC over the labels e that D pairs
with h (F2 and F3: the one label).  Otherwise one walk over the distinct
hA decides the check and names the first counterexample.  Orbit-preimage
families from the boundary action are certified exactly by clopen-set
algebra on the boundary.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import prefix
from . import subsets as ss
from . import words as fw
from .boundary import (
    AperiodicPoint, BoundaryPoint, ClopenSet, TranslatedPoint, first_overlap, orbit_word
)
from .groups import (
    FiniteGroup,
    ProductElem,
    f3_factor,
    group_from_json,
    make_group,
)
from .subsets import GroupSubset, NotNormalizable
from .words import inverse, multiply


class SearchExhausted(RuntimeError):
    """A greedy search ran out of candidates within the enumeration cap."""


# ---------------------------------------------------------------------------
# subsets of the non-free ambient groups


# subsets are never changed after construction, so one empty set serves
# every missing product slice
_EMPTY = ss.empty_set()


class ProductSubset:
    """Subset of F2 × K, one symbolic F2 slice per K element."""

    def __init__(self, k_group: FiniteGroup, slices: Dict[str, GroupSubset]):
        self.k = k_group
        self.slices = {e: slices.get(e, _EMPTY) for e in k_group.elements}

    def contains(self, g: ProductElem) -> bool:
        return self.slices[g[1]].contains(g[0])

    def translate(self, g: ProductElem) -> "ProductSubset":
        h, e = g
        return ProductSubset(
            self.k,
            {self.k.mul(e, lbl): ss.translate(h, s) for lbl, s in self.slices.items()},
        )

    def to_json(self) -> dict:
        slices = {e: s.to_json() for e, s in self.slices.items()}
        return {"kind": "product-k", "k": self.k.to_json(), "slices": slices}


class ProductF2Subset:
    """Rectangle A × B inside F2 × F2."""

    def __init__(self, first: GroupSubset, second: GroupSubset):
        self.first = first
        self.second = second

    def contains(self, g: Tuple[str, str]) -> bool:
        return self.first.contains(g[0]) and self.second.contains(g[1])

    def translate(self, g: Tuple[str, str]) -> "ProductF2Subset":
        return ProductF2Subset(ss.translate(g[0], self.first), ss.translate(g[1], self.second))

    def to_json(self) -> dict:
        first, second = self.first.to_json(), self.second.to_json()
        return {"kind": "product-f2", "first": first, "second": second}


class CosetSliceSubset:
    """Subset of the rank-3 free group of the form ⊔_s B·s.

    s runs over the canonical right-coset transversal of the a,b subgroup
    (the empty word plus all reduced words starting with c or C), and B is
    a symbolic subset of that subgroup.  Membership factors a word at its
    first c/C letter.
    """

    def __init__(self, base: GroupSubset):
        self.base = base

    def contains(self, w: str) -> bool:
        return self.base.contains(f3_factor(w)[0])

    def translate(self, g: str) -> "CosetSliceSubset":
        _check_ab(g)
        return CosetSliceSubset(ss.translate(g, self.base))

    def to_json(self) -> dict:
        return {"kind": "coset-slices", "base": self.base.to_json()}


def _check_ab(g: str) -> None:
    """Only translations from the a,b subgroup keep the coset-slice form."""
    if any(x in ("c", "C") for x in g):
        raise NotNormalizable("coset-slice subsets only translate by a,b words")


# the tower-set kind of each ambient group but F2, whose tower sets are
# the subsets of ``subsets``
_SET_KINDS = {"F2xK": "product-k", "F2xF2": "product-f2", "F3": "coset-slices"}


def _subset_from_json(data: dict, group):
    """A tower set of a family on ``group``, of that group's kind."""
    kind = data["kind"]
    if _SET_KINDS.get(group.kind) != (kind if kind in _SET_KINDS.values() else None):
        raise ValueError(f"an {group.kind} family cannot hold a {kind!r} set")
    k_group = group.k_group
    if kind == "product-k":
        if data["k"] != k_group.to_json():
            raise ValueError(f"a product-k set's k must be the family's k, not {data['k']!r}")
        slices = data["slices"]
        if not isinstance(slices, dict) or not set(slices) <= set(k_group.elements):
            raise ValueError(f"slices {slices!r} are not an object keyed by labels of K")
        return ProductSubset(k_group, {e: ss.subset_from_json(v) for e, v in slices.items()})
    if kind == "product-f2":
        first, second = (ss.subset_from_json(data[key]) for key in ("first", "second"))
        return ProductF2Subset(first, second)
    if kind == "coset-slices":
        return CosetSliceSubset(ss.subset_from_json(data["base"]))
    return ss.subset_from_json(data)


# ---------------------------------------------------------------------------
# tower families and certificates


class TowerFamily:
    """D plus pairs (A_i, g_i); cover_groups lists which items jointly cover."""

    def __init__(
        self,
        kind: str,
        d_set: Sequence,
        items: Sequence[Tuple[object, object]],
        k_group: Optional[FiniteGroup] = None,
        cover_groups: Optional[List[List[int]]] = None,
        notes: Optional[dict] = None,
    ):
        self.group = make_group(kind, k_group)
        self.kind = kind
        self.k_group = self.group.k_group
        self.d_set = list(d_set)
        self.items = list(items)
        self.cover_groups = cover_groups or [list(range(len(self.items)))]
        self.notes = notes or {}

    @property
    def n(self) -> int:
        return len(self.items)

    def to_json(self) -> dict:
        # the group's own encoding, with "group" for its kind
        out = self.group.to_json()
        out["group"] = out.pop("kind")
        out["D"] = [self.group.elem_json(d) for d in self.d_set]
        out["towers"] = [{"A": a.to_json(), "g": self.group.elem_json(g)} for a, g in self.items]
        out["cover_groups"] = self.cover_groups
        if self.notes:
            out["notes"] = self.notes
        return out

    @staticmethod
    def from_json(data: dict) -> "TowerFamily":
        group = group_from_json({"kind": data["group"], "k": data.get("k")})
        towers = data["towers"]
        items = [(_subset_from_json(t["A"], group), group.elem_from_json(t["g"])) for t in towers]
        return TowerFamily(
            group.kind,
            [group.elem_from_json(d) for d in data["D"]],
            items,
            k_group=group.k_group,
            cover_groups=_cover_groups_from_json(data.get("cover_groups"), len(towers)),
            notes=data.get("notes"),
        )


def _cover_groups_from_json(groups, n: int) -> List[List[int]]:
    """A payload's cover groups: a nonempty list of nonempty lists of tower
    indices in range(n)."""
    ok = isinstance(groups, list) and groups and all(
        isinstance(idxs, list) and idxs
        and all(type(i) is int and 0 <= i < n for i in idxs)
        for idxs in groups
    )
    if not ok:
        raise ValueError(
            f"cover_groups must be nonempty lists of tower indices below {n}, not {groups!r}"
        )
    return groups


class TowerCertificate:
    """The checks of a family; the family is serialised only by ``to_json``."""

    def __init__(self, family: TowerFamily, mode: str, radius: Optional[int], checks: dict):
        self.family = family
        self.mode = mode
        self.radius = radius
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks.values())

    def to_json(self) -> dict:
        fam = self.family.to_json()
        out = {key: fam[key] for key in ("group", "D", "towers", "cover_groups")}
        out.update(mode=self.mode, checks=self.checks)
        out.update((key, fam[key]) for key in ("k", "notes") if key in fam)
        if self.radius is not None:
            out["radius"] = self.radius
        return out


_Form = Tuple[FrozenSet[str], FrozenSet[str]]


def _form(subset: GroupSubset) -> _Form:
    """A set's normal form as (words, bases); NotNormalizable when it has none."""
    nf = subset.normal_form()
    return nf.words, nf.cones


def _moved(x: str, form: _Form) -> _Form:
    """The canonical form of x·F, for F a canonical form."""
    return form if x == "" else prefix.canonical(*prefix.translate(x, *form))


def _first_hit(
    family: TowerFamily, placed: Sequence[Tuple[object, int]], radius: Optional[int], clash: bool
) -> Optional[Tuple[object, List[int]]]:
    """The first element, in ball order, of the radius-r ball, or of the
    whole group when ``radius`` is None, that lies in two of the translates
    x·A_i, for (x, i) in ``placed``, when ``clash``, or in none of them
    otherwise: (element, sorted positions in ``placed`` of the translates
    holding it), or None.  One prefix-trie walk over the distinct moved
    forms hA decides it at every label.  Every membership pattern of the
    walk is asked only how many translates hold its first element; the
    positions are read for the element found.  Raises NotNormalizable when
    a set has no normal form."""
    sets = family.items
    # rows (position, F2 word h, form of A, label indices C): the
    # translate at the position holds hA × C, and ``labels`` names the
    # element of each label.  On F2 and F3 it is one row at the one label
    # (in F3 a word p·s has the membership of its a,b-part p, which comes
    # first in the ball); on F2 × K one row per piece, at most one at a
    # label, so translates meet where rows do
    rows = []
    if family.kind == "F2xK":
        labels = family.k_group.elements
        index = {lbl: li for li, lbl in enumerate(labels)}
        # the pieces A × C of A_i, as (form of A, label indices of eC), for
        # each distinct nonempty slice A
        pieces: Dict[Tuple[str, int], Dict[_Form, set]] = {}
        for j, ((h, e), i) in enumerate(placed):
            if (e, i) not in pieces:
                at_e = pieces[e, i] = {}
                for lbl, t in sets[i][0].slices.items():
                    form = _form(t)
                    if any(form):
                        at_e.setdefault(form, set()).add(index[family.k_group.mul(e, lbl)])
            rows += [(j, h, form, c) for form, c in pieces[e, i].items()]
    elif family.kind == "F2xF2":
        # the labels are the patterns of one walk over the distinct second
        # factors vB, named by their first words; the translate
        # (u, v)·(A × B) is the row uA at every label holding vB.  The ball
        # order of F2 × F2 is lexicographic in (u, v), and a check's verdict
        # at (u, v) is fixed by the two patterns, so reading the labels in
        # order at each first-factor pattern finds the first element in
        # ball order
        seconds = [_moved(v, _form(sets[i][0].second)) for (_, v), i in placed]
        slot = {form: k for k, form in enumerate(dict.fromkeys(seconds))}
        patterns = prefix.first_by_pattern(list(slot), radius)
        labels = list(patterns.values())
        rows = [
            (j, u, _form(sets[i][0].first), [li for li, p in enumerate(patterns) if slot[f] in p])
            for j, (((u, _), i), f) in enumerate(zip(placed, seconds))
        ]
    else:
        labels = [None]
        for j, (x, i) in enumerate(placed):
            if family.kind == "F3":
                _check_ab(x)
            a = sets[i][0]
            rows.append((j, x, _form(a.base if family.kind == "F3" else a), (0,)))
    # one walk over the distinct forms hA, read at each label in ball
    # order: the translates holding (w, l) number the rows at l of the
    # forms holding w, and a cover misses (w, l) when no form holding w
    # has one
    at: Dict[_Form, List[int]] = {}
    for k, (_, h, form, _) in enumerate(rows):
        at.setdefault(_moved(h, form), []).append(k)
    owned = list(at.values())
    counts: List[Dict[int, int]] = [{} for _ in labels]
    for f, ks in enumerate(owned):
        for k in ks:
            for li in rows[k][3]:
                counts[li][f] = counts[li].get(f, 0) + 1
    for pattern, w in prefix.first_by_pattern(list(at), radius).items():
        for li, held in enumerate(counts):
            if sum(held.get(f, 0) for f in pattern) > 1 if clash else held.keys().isdisjoint(pattern):
                hits = sorted(rows[k][0] for f in pattern for k in owned[f] if li in rows[k][3])
                return (w if labels[li] is None else (w, labels[li])), hits
    return None


def _disjoint_by_factors(family: TowerFamily) -> bool:
    """True when no two translates d·A_i meet, read off one scan of bases;
    False when two may.  Write D's elements (h, e), with E_h the labels e
    that come with h, and split A_i into pieces A × C, one per distinct
    slice A; F2 and F3 are the case e = C = {1}.  (h, e)·(A × C) =
    hA × eC, so when the distinct hA meet nowhere and, for each h and A,
    the label sets eC for e in E_h are pairwise disjoint, no two
    translates meet.  On D = H × E with no element twice, the label sets
    are those of E for every h.  Each h moves the bases of all the
    distinct A at once: ``prefix.translate``'s pieces of one A are disjoint
    cones, so one sorted scan of all pieces finds two hA that meet.  An hA
    that holds a word is left to the walk."""
    if family.kind not in ("F2xK", "F2", "F3"):
        return False
    by_word: Dict[str, list] = {}
    for d in family.d_set:
        h, e = d if family.kind == "F2xK" else (d, None)
        by_word.setdefault(h, []).append(e)
    try:
        if family.kind == "F2xK":
            act = family.k_group.mul
            pieces = [(_form(t), lbl) for a, _ in family.items for lbl, t in a.slices.items()]
        else:
            act = lambda e, lbl: lbl
            for h in by_word if family.kind == "F3" else ():
                _check_ab(h)
            sets = (a.base if family.kind == "F3" else a for a, _ in family.items)
            pieces = [(_form(a), None) for a in sets]
    except NotNormalizable:
        # the walk raises it with its own message
        return False
    pieces = [(form, lbl) for form, lbl in pieces if any(form)]
    for es in {tuple(es) for es in by_word.values()}:
        labels: Dict[_Form, set] = {}
        for form, lbl in pieces:
            taken = labels.setdefault(form, set())
            size = len(taken)
            taken.update(act(e, lbl) for e in es)
            if len(taken) < size + len(es):
                return False
    forms = dict.fromkeys(form for form, _ in pieces)
    if any(words for words, _ in forms):
        return False
    bases = [b for _, form_bases in forms for b in form_bases]
    moved: List[str] = []
    for h in by_word:
        words, at_h = prefix.translate(h, (), bases)
        if words:
            return False
        moved += at_h
    return prefix.first_overlap((b, None) for b in moved) is None


def _owners(family: TowerFamily) -> List[Tuple[int, int]]:
    """(D index, tower index) of every translate d·A_i, in the order in
    which a clash reports its hits."""
    return [(di, i) for i in range(family.n) for di in range(len(family.d_set))]


def _first_clash_walk(family: TowerFamily, radius: Optional[int]):
    """(element, owner, owner) of the first element, in ball order, of the
    radius-r ball or of the whole group in two translates d·A_i, or None;
    the walk runs only when ``_disjoint_by_factors`` does not decide it."""
    if _disjoint_by_factors(family):
        return None
    owners = _owners(family)
    placed = [(family.d_set[di], i) for di, i in owners]
    clash = _first_hit(family, placed, radius, clash=True)
    return clash and (clash[0], owners[clash[1][0]], owners[clash[1][1]])


def _ball_checks(family: TowerFamily, clash, bare) -> dict:
    """Checks dict from the first clash (element, owner, owner) and the
    first uncovered (element, cover group), each None when there is none."""
    group = family.group
    disjoint: dict = {"pass": True, "counterexample": None}
    if clash is not None:
        w, (di, i), (dj, j) = clash
        d, d2 = (group.elem_json(family.d_set[k]) for k in (di, dj))
        disjoint = {
            "pass": False,
            "counterexample": {"word": group.elem_json(w), "d": d, "i": i, "d2": d2, "i2": j},
        }
    cover: dict = {"pass": True, "counterexample": None}
    if bare is not None:
        w, group_no = bare
        cover = {
            "pass": False,
            "counterexample": {"word": group.elem_json(w), "cover_group": group_no},
        }
    return {"disjoint": disjoint, "cover": cover}


def _walk_ball(family: TowerFamily, radius: Optional[int]) -> dict:
    """Checks on the radius-r ball, or on the whole group when ``radius`` is
    None, read off the prefix trie of the translates' normal forms."""
    clash = _first_clash_walk(family, radius)
    bare = None
    for group_no, idxs in enumerate(family.cover_groups):
        covers = [(family.items[i][1], i) for i in idxs]
        first = _first_hit(family, covers, radius, clash=False)
        if first is not None:
            bare = (first[0], group_no)
            break
    return _ball_checks(family, clash, bare)


def _ball_of(family: TowerFamily, radius: int) -> list:
    """The radius-r ball of the family's group; RadiusTooLarge when it has
    more elements than the F2 ball at the enumeration cap."""
    group = family.group
    cap = fw.ball_size(fw.DEFAULT_MAX_RADIUS)
    # every group's ball is at least as large as F2's, so a radius above the
    # cap's needs no count
    if radius > fw.DEFAULT_MAX_RADIUS or group.ball_size(radius) > cap:
        raise fw.RadiusTooLarge(
            f"the radius-{radius} ball of {family.kind} has more than {cap} elements"
        )
    return group.ball(radius)


def _first_clash(family: TowerFamily, ball: list):
    """(element, owner, owner) of the first element of the ball in two
    translates d·A_i, by ``contains``, or None."""
    group = family.group
    inv_d = [group.inv(d) for d in family.d_set]
    owners = _owners(family)
    for w in ball:
        hits = [
            (di, i) for di, i in owners if family.items[i][0].contains(group.mul(inv_d[di], w))
        ]
        if len(hits) > 1:
            return (w, hits[0], hits[1])
    return None


def _first_bare(family: TowerFamily, ball: list):
    """(element, cover group) of the first element of the ball outside
    every translate g_i·A_i of a cover group, by ``contains``, or None."""
    group = family.group
    inv_g = [group.inv(g) for _, g in family.items]
    for group_no, idxs in enumerate(family.cover_groups):
        for w in ball:
            if not any(family.items[i][0].contains(group.mul(inv_g[i], w)) for i in idxs):
                return (w, group_no)
    return None


def _sweep_ball(family: TowerFamily, radius: int) -> dict:
    """Ball checks by enumerating the ball and testing membership with
    ``contains``; for sets without a normal form outside
    ``_boundary_checks``, and the reference for the trie walk and the
    boundary check."""
    ball = _ball_of(family, radius)
    return _ball_checks(family, _first_clash(family, ball), _first_bare(family, ball))


def _boundary_ball_checks(family: TowerFamily, on_boundary: dict, radius: int) -> dict:
    """Ball checks of a family with boundary checks.  A check that passes
    on the boundary passes on every ball.  A failing one sweeps alone, over
    the ball of radius min(r, |w|) with w the boundary's counterexample
    word: w fails the check and ball order is by length first, so the
    first counterexample of the radius-r ball is no longer than w."""

    def ball_to(check: str) -> list:
        word = on_boundary[check]["counterexample"]["word"]
        return _ball_of(family, min(radius, len(word)))

    clash = bare = None
    if not on_boundary["disjoint"]["pass"]:
        clash = _first_clash(family, ball_to("disjoint"))
    if not on_boundary["cover"]["pass"]:
        bare = _first_bare(family, ball_to("cover"))
    return _ball_checks(family, clash, bare)


def _boundary_checks(family: TowerFamily) -> Optional[dict]:
    """Checks on the whole group of an F2 family whose sets are all orbit
    preimages A_i = {g : g·z ∈ U_i} over one point z, each U_i a clopen set
    of the boundary; None for any other family.

    d·A_i = {g : g·z ∈ d·U_i}, and every orbit meets every nonempty clopen
    set (``boundary.orbit_word``).  So the d·A_i are pairwise disjoint
    exactly when the d·U_i are, and the g_i·A_i of a cover group cover F2
    exactly when the g_i·U_i cover the boundary.  A failure reports a word
    whose orbit point lies in the offending set."""
    sets = [a for a, _ in family.items]
    if family.kind != "F2" or not sets or not all(
        isinstance(a, ss.OrbitPreimage) and isinstance(a.clopen, ClopenSet) for a in sets
    ):
        return None
    z = sets[0].point
    if any(a.point.to_json() != z.to_json() for a in sets):
        return None
    group = family.group

    def inside(w, g, i: int) -> bool:
        """w ∈ g·A_i by membership; the boundary algebra must agree."""
        return sets[i].contains(group.mul(group.inv(g), w))

    owners = _owners(family)
    moved = [sets[i].clopen.act(family.d_set[di]) for di, i in owners]
    clash = None
    pair = first_overlap(moved)
    if pair is not None:
        w = orbit_word(z, moved[pair[0]].inter(moved[pair[1]]))
        hits = [owners[k] for k in pair]
        if not all(inside(w, family.d_set[di], i) for di, i in hits):
            raise RuntimeError(f"orbit word {w!r} misses a translate of the clash")
        clash = (w, *hits)
    bare = None
    for group_no, idxs in enumerate(family.cover_groups):
        union = ClopenSet.union_all(sets[i].clopen.act(family.items[i][1]) for i in idxs)
        if not union.is_full():
            w = orbit_word(z, union.complement())
            if any(inside(w, family.items[i][1], i) for i in idxs):
                raise RuntimeError(f"orbit word {w!r} lies in a covering translate")
            bare = (w, group_no)
            break
    return _ball_checks(family, clash, bare)


def verify_towers(
    family: TowerFamily, mode: str = "exact", radius: Optional[int] = None
) -> TowerCertificate:
    """Certify both tower conditions on the whole group (exact mode) or on a
    metric ball.  Both modes walk the prefix trie of the translates' normal
    forms; past the longest base or word every membership pattern has
    occurred, so the exact walk needs no depth bound.  Orbit-preimage
    families have no normal forms and take ``_boundary_checks``; in ball
    mode a pass there is a pass on every ball, and a failure sweeps the ball
    up to the length of its boundary counterexample
    (``_boundary_ball_checks``)."""
    on_boundary = _boundary_checks(family)
    if mode == "exact":
        checks = on_boundary
        if checks is None:
            try:
                checks = _walk_ball(family, None)
            except NotNormalizable as e:
                raise NotNormalizable(f"exact mode unavailable for this family: {e}") from e
        return TowerCertificate(family, "exact", None, checks)

    if mode != "ball":
        raise ValueError(f"unknown mode: {mode!r}")
    if radius is None:
        raise ValueError("ball mode needs a radius")
    if isinstance(radius, bool) or not isinstance(radius, int) or radius < 0:
        raise ValueError(f"ball radius must be a nonnegative integer, not {radius!r}")
    if on_boundary is not None:
        checks = _boundary_ball_checks(family, on_boundary, radius)
    else:
        try:
            checks = _walk_ball(family, radius)
        except NotNormalizable:
            checks = _sweep_ball(family, radius)
    return TowerCertificate(family, "ball", radius, checks)


# ---------------------------------------------------------------------------
# free-group constructions


def _distinct(elems: list, what: str = "D") -> list:
    """``elems``, reduced already, when none occurs twice; else a
    ValueError naming the first repeat, since a repeated element never
    separates from itself."""
    seen = set()
    for x in elems:
        if x in seen:
            raise ValueError(f"{what} repeats the reduced element {x!r}")
        seen.add(x)
    return elems


def f2_towers(d_set: Iterable[str]) -> TowerFamily:
    """The 2-tower family for D, unchecked: D reduced, m its longest word,
    and the cones at a^{2m}ba and a^{2m}bA, each with its base's inverse as
    covering element.  The inverses move the cones onto the complements of
    the cones at A and at a, so the two cover F2; ``verify_towers`` decides
    that the D-translates are disjoint."""
    d_list = _distinct(fw.reduce_words(d_set))
    if not d_list:
        raise ValueError("D must be nonempty")
    m = max(len(d) for d in d_list)
    pad = "a" * (2 * m)
    items = [(ss.cone(h), inverse(h)) for h in (pad + "ba", pad + "bA")]
    return TowerFamily("F2", d_list, items, notes={"padding": m})


def disjoint_translates(d_words: Sequence[str], count: int) -> List[str]:
    """First `count` words s (canonical order) with the sets D·s pairwise
    disjoint, for D a list of reduced words.

    D·w meets D·s exactly when x = w·s⁻¹ is some d⁻¹d'.  Write d = p + a and
    d' = p + b with p their longest common prefix: then d⁻¹d' = a⁻¹ + b with
    nothing cancelled.  So x is one exactly when some split x = u + v has a
    p with p + u⁻¹ and p + v in D (``_splits_in``).  ``ends[t]`` holds the
    p with p + t in D, for the suffixes t as long as a split has asked, so
    a candidate costs a few set meets per chosen word, not |D| products."""
    by_length: Dict[int, List[str]] = {}
    for d in d_words:
        by_length.setdefault(len(d), []).append(d)
    longest, depth = max(by_length, default=0), -1
    ends: Dict[str, set] = {}
    chosen: List[str] = []
    inverses: List[str] = []
    for w in fw.enumerate_words():
        for t in inverses:
            x = multiply(w, t)
            while depth < min(len(x), longest):
                depth += 1
                for size, ds in by_length.items():
                    for d in ds if size >= depth else ():
                        ends.setdefault(d[size - depth:], set()).add(d[: size - depth])
            if _splits_in(x, ends, longest):
                break
        else:
            chosen.append(w)
            inverses.append(inverse(w))
            if len(chosen) == count:
                return chosen
    raise SearchExhausted(
        f"found only {len(chosen)} of {count} disjoint translates"
        f" within radius {fw.DEFAULT_MAX_RADIUS}"
    )


def _splits_in(x: str, ends: Dict[str, set], longest: int) -> bool:
    """Whether some split x = u + v, both parts at most ``longest`` letters,
    has a p in ends[u⁻¹] and in ends[v]; x⁻¹ is x reversed, case swapped."""
    n, x_inv = len(x), x[::-1].swapcase()
    for i in range(max(0, n - longest), min(n, longest) + 1):
        if not ends.get(x_inv[n - i:], _NO_ENDS).isdisjoint(ends.get(x[i:], _NO_ENDS)):
            return True
    return False


# the ends of a suffix that no word of D has
_NO_ENDS: FrozenSet[str] = frozenset()


def more_towers(d_set: Iterable[str], copies: int) -> TowerFamily:
    """copies × n indexed towers that are jointly D-disjoint (one covering
    family per copy index), unchecked.  Copy j is the 2-tower family on
    D·shifts moved by shift j, so an exact check of this family decides
    that one too; ``comparison.build_comparison`` leaves both to the
    product check of its lift, whose pass implies them."""
    d_list = _distinct(fw.reduce_words(d_set))
    if copies < 1:
        raise ValueError("copies must be positive")
    shifts = disjoint_translates(d_list, copies)
    # D·shifts sets only the padding, so it needs no order
    base = f2_towers({multiply(d, s) for d in d_list for s in shifts}).items
    k = len(base)
    items = [(a.translate(s), multiply(g, inverse(s))) for s in shifts for a, g in base]
    cover_groups = [list(range(j * k, j * k + k)) for j in range(copies)]
    return TowerFamily("F2", d_list, items, cover_groups=cover_groups, notes={"shifts": shifts})


# ---------------------------------------------------------------------------
# product and ambient-group constructions


def finite_normal_ext_towers(f_set: Sequence[ProductElem], k_group: FiniteGroup) -> TowerFamily:
    """Towers on F2 × K from quotient towers, |K|·n of them, unchecked.

    The quotient family is built for the union of disjoint translates
    D0·t_j of the projected set, then each tower is shifted into its own
    translate slot with a distinct K coordinate."""
    for _, lbl in f_set:
        k_group.index(lbl)  # a ValueError that names a label outside K
    f_list = _distinct([(fw.reduce_word(h), lbl) for h, lbl in f_set], "F")
    m = len(k_group)
    d0 = sorted({h for h, _ in f_list} | {""}, key=lambda w: (len(w), w))
    shifts = disjoint_translates(d0, m)
    d_big = sorted({multiply(d, t) for d in d0 for t in shifts}, key=lambda w: (len(w), w))
    quot = f2_towers(d_big)
    items = []
    for t, k_elem in zip(shifts, k_group.elements):
        for a, g in quot.items:
            c = ProductSubset(k_group, {k_group.identity: a.translate(t)})
            items.append((c, (multiply(g, inverse(t)), k_elem)))
    return TowerFamily("F2xK", f_list, items, k_group=k_group, notes={"shifts": shifts})


def extension_towers(f_set: Sequence[Tuple[str, str]]) -> TowerFamily:
    """Towers on F2 × F2 as rectangles A_i × B_j of factor towers, unchecked."""
    f_list = _distinct([(fw.reduce_word(u), fw.reduce_word(v)) for u, v in f_set], "F")
    sym = set(f_list) | {(inverse(u), inverse(v)) for u, v in f_list} | {("", "")}
    d1 = sorted({u for u, _ in sym}, key=lambda w: (len(w), w))
    # second-factor translates arising from products of F elements whose
    # first coordinates cancel
    e2 = sorted(
        {multiply(v1, v2) for u1, v1 in sym for u2, v2 in sym if multiply(u1, u2) == ""},
        key=lambda w: (len(w), w),
    )
    firsts, seconds = f2_towers(d1).items, f2_towers(e2).items
    items = [(ProductF2Subset(a, b), (g, k)) for a, g in firsts for b, k in seconds]
    return TowerFamily("F2xF2", sorted(sym), items, notes={"first_D": d1, "second_D": e2})


def union_towers(d_set: Iterable[str]) -> TowerFamily:
    """Towers on the rank-3 free group from coset-sliced rank-2 towers,
    unchecked; ``f2_towers`` refuses a repeated element of D."""
    sub_fam = f2_towers(d_set)
    items = [(CosetSliceSubset(a), g) for a, g in sub_fam.items]
    notes = {
        "transversal": "identity plus reduced words starting with c or C",
        "transversal_radius": 5,
    }
    return TowerFamily("F3", sub_fam.d_set, items, notes=notes)


# ---------------------------------------------------------------------------
# towers from the boundary action


# the filling towers compare boundary points on prefixes of this length,
# check that no word of the ball of STABILIZER_RADIUS fixes that prefix of
# z, and deepen the neighborhoods at most to NEIGHBORHOOD_DEPTH
CHECK_PREFIX_LEN = 40
STABILIZER_RADIUS = 6
NEIGHBORHOOD_DEPTH = 60


def fixing_word(z: BoundaryPoint) -> Optional[str]:
    """The first nonempty word of the ball of STABILIZER_RADIUS, in ball
    order, that fixes the length-CHECK_PREFIX_LEN prefix of z, or None.

    Let g fix that prefix, and let g·z cancel c letters of z.  The other
    a = |g| - c letters of g begin g·z, so they spell z[:a], and the c
    letters that cancel spell z[:c]^{-1}.  So g = z[:a]·z[:c]^{-1} with
    a + c ≤ STABILIZER_RADIUS, and testing these words, at most 28,
    decides the whole ball."""
    k, r = CHECK_PREFIX_LEN, STABILIZER_RADIUS
    zp = z.prefix(k + r)
    tried = {zp[:a] + inverse(zp[:c]) for a in range(r + 1) for c in range(r + 1 - a)}
    for g in sorted(tried - {""}, key=fw.ball_key):
        # a word that is not reduced is no word of the ball
        if fw.is_reduced(g) and multiply(g, zp[: k + len(g)])[:k] == zp[:k]:
            return g
    return None


def orbit_movers(z: BoundaryPoint, d_list: Sequence[str], n: int) -> List[str]:
    """The identity and the first n - 1 nonempty words c, in enumeration
    order, such that the D-translates of c·z differ on CHECK_PREFIX_LEN
    letters from those of every point taken before, all read off one
    prefix of c·z."""
    reach = CHECK_PREFIX_LEN + max(map(len, d_list), default=0)

    def translates(c: str) -> set:
        p = multiply(c, z.prefix(reach + len(c)))
        return {multiply(d, p)[:CHECK_PREFIX_LEN] for d in d_list}

    movers, taken, c = [""], translates(""), ""
    for c in fw.enumerate_words():
        if c and taken.isdisjoint(seen := translates(c)):
            movers.append(c)
            taken |= seen
            if len(movers) == n:
                return movers
    raise SearchExhausted(
        f"found only {len(movers)} of {n} orbit points with disjoint D-translates"
        f" up to radius {len(c)}"
    )


def towers_from_filling(d_set: Iterable[str], n: int = 2) -> TowerFamily:
    """Orbit-preimage towers A_i = {g : g·z ∈ U_i} on the free group.

    z is the aperiodic boundary point a b a b^2 a b^3 ...; the U_i are
    deep cylinders around distinct orbit points of z whose D-translates
    are pairwise disjoint, and the covering elements u_i^{-1} push each
    cylinder onto the complement of a single depth-1 cylinder.
    """
    if n < 2:
        raise ValueError("need at least two towers")
    d_list = _distinct(fw.reduce_words(d_set))
    z = AperiodicPoint()
    # no short word fixes a long prefix of z; full triviality is assumed
    g = fixing_word(z)
    if g is not None:
        raise RuntimeError(f"stabilizer check failed at {g!r}")
    movers = orbit_movers(z, d_list, n)
    points = [z] + [TranslatedPoint(g, z) for g in movers[1:]]

    # deepen the neighborhoods until all D-translates are pairwise disjoint,
    # keeping the cylinders' last letters non-constant so the covering
    # translates reach the whole boundary
    depth = max(map(len, d_list), default=0) + 2
    while True:
        bases = [p.prefix(depth) for p in points]
        if len({b[-1] for b in bases}) == 1:
            k = depth + 1
            while points[-1].prefix(k)[-1] == bases[0][-1]:
                k += 1
            bases[-1] = points[-1].prefix(k)
        items = [(ss.OrbitPreimage(z, ClopenSet.cylinder(b)), inverse(b)) for b in bases]
        checks = _boundary_checks(TowerFamily("F2", d_list, items))
        if checks["disjoint"]["pass"]:
            break
        depth += 1
        if depth > NEIGHBORHOOD_DEPTH:
            c = checks["disjoint"]["counterexample"]
            raise SearchExhausted(
                f"could not separate neighborhoods by depth {NEIGHBORHOOD_DEPTH}:"
                f" {c['d']!r}·A_{c['i']} and {c['d2']!r}·A_{c['i2']} meet at {c['word']!r}"
            )
    # filling data: u^{-1}·[u] is the complement of one depth-1 cylinder,
    # and the last letters are not all equal, so the images cover
    if not checks["cover"]["pass"]:
        raise RuntimeError("filling data failed to cover the boundary")

    notes = {
        "point": z.to_json(),
        "orbit_movers": movers,
        "neighborhoods": bases,
        "stabilizer": f"trivial assumed; checked on ball {STABILIZER_RADIUS}"
        f" against a length-{CHECK_PREFIX_LEN} prefix",
    }
    return TowerFamily("F2", d_list, items, notes=notes)
