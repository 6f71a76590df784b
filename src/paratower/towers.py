"""Paradoxical tower families: construction and certification.

A tower family over a group G is a finite set D together with pairs
(A_i, g_i) such that the translates d·A_i, for d in D and all i, are
pairwise disjoint while the g_i·A_i cover G.  The free-group construction
uses cones at the padded words a^{2m}ba, a^{2m}bA, a^{2m}b^2; families on
F2 × K, F2 × F2 and the rank-3 free group are built from it.  Every family
whose sets have cone normal forms is certified exactly, on the whole group,
by the same prefix-trie walk that certifies it on a metric ball.  A family
on F2 × K is decided by its factors: its sets split into rectangles A × C,
and since (h, e)·(A × C) = hA × eC, one F2 walk over the forms hA is read
at each label of K.  Within one builder call, or one ``shared_translates``
block, the checks share their translates and walks, so each distinct x·A
is normalised once.  Orbit-preimage families from the boundary action are
certified exactly by clopen-set algebra on the boundary.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import prefix
from . import subsets as ss
from . import words as fw
from .boundary import AperiodicPoint, ClopenSet, TranslatedPoint, first_overlap, orbit_word
from .groups import (
    FiniteGroup,
    ProductElem,
    f3_factor,
    group_from_json,
    make_group,
)
from .subsets import GroupSubset, NormalForm, NotNormalizable
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
        return {
            "kind": "product-k",
            "k": self.k.to_json(),
            "slices": {e: s.to_json() for e, s in self.slices.items()},
        }


class ProductF2Subset:
    """Rectangle A × B inside F2 × F2."""

    def __init__(self, first: GroupSubset, second: GroupSubset):
        self.first = first
        self.second = second

    def contains(self, g: Tuple[str, str]) -> bool:
        return self.first.contains(g[0]) and self.second.contains(g[1])

    def translate(self, g: Tuple[str, str]) -> "ProductF2Subset":
        return ProductF2Subset(
            ss.translate(g[0], self.first), ss.translate(g[1], self.second)
        )

    def to_json(self) -> dict:
        return {
            "kind": "product-f2",
            "first": self.first.to_json(),
            "second": self.second.to_json(),
        }


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
        p, _ = f3_factor(w)
        return self.base.contains(p)

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
            raise ValueError(
                f"a product-k set's k must be the family's k, not {data['k']!r}"
            )
        slices = data["slices"]
        if not isinstance(slices, dict) or not set(slices) <= set(k_group.elements):
            raise ValueError(f"slices {slices!r} are not an object keyed by labels of K")
        return ProductSubset(k_group, {e: ss.subset_from_json(v) for e, v in slices.items()})
    if kind == "product-f2":
        return ProductF2Subset(
            ss.subset_from_json(data["first"]), ss.subset_from_json(data["second"])
        )
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
        out["towers"] = [
            {"A": a.to_json(), "g": self.group.elem_json(g)} for a, g in self.items
        ]
        out["cover_groups"] = self.cover_groups
        if self.notes:
            out["notes"] = self.notes
        return out

    @staticmethod
    def from_json(data: dict) -> "TowerFamily":
        group = group_from_json({"kind": data["group"], "k": data.get("k")})
        towers = data["towers"]
        items = [
            (_subset_from_json(t["A"], group), group.elem_from_json(t["g"]))
            for t in towers
        ]
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
    def __init__(self, family_json: dict, mode: str, radius: Optional[int], checks: dict):
        self.family_json = family_json
        self.mode = mode
        self.radius = radius
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks.values())

    def to_json(self) -> dict:
        out = {
            "group": self.family_json["group"],
            "D": self.family_json["D"],
            "towers": self.family_json["towers"],
            "cover_groups": self.family_json["cover_groups"],
            "mode": self.mode,
            "checks": self.checks,
        }
        for key in ("k", "notes"):
            if key in self.family_json:
                out[key] = self.family_json[key]
        if self.radius is not None:
            out["radius"] = self.radius
        return out


_Form = Tuple[FrozenSet[str], FrozenSet[str]]


class _Translates:
    """Normal forms of translates x·A of tower sets, and prefix-trie walks
    over them, each computed once.

    Every distinct form, a (words, bases) pair in the form of
    ``prefix.canonical``, gets an integer id; a ``NormalForm`` is made only
    for a set handed to a builder (``translate``).  A form made as x·A
    remembers (x, A), so y·(x·A) is made as (yx)·A: a set and all its
    translates share one entry per element.  A walk over some forms is
    kept, and a walk over fewer of them at the same radius is read off it:
    the first word of a pattern over the fewer forms is the ball-order
    minimum of the first words of the patterns that restrict to it."""

    def __init__(self) -> None:
        self.forms: List[_Form] = []
        self._ids: Dict[_Form, int] = {}
        # id(set) -> (set, form id); the set is kept so its id stays its own
        self._of_set: Dict[int, Tuple[object, int]] = {}
        self._moved: Dict[Tuple[str, int], int] = {}
        self._origin: Dict[int, Tuple[str, int]] = {}
        self._walks: Dict[Tuple[Optional[int], FrozenSet[int]], dict] = {}

    def _id(self, form: _Form) -> int:
        fid = self._ids.get(form)
        if fid is None:
            fid = self._ids[form] = len(self.forms)
            self.forms.append(form)
        return fid

    def of(self, subset: GroupSubset) -> int:
        """The id of a set's normal form; NotNormalizable when it has none."""
        hit = self._of_set.get(id(subset))
        if hit is None:
            nf = subset.normal_form()
            hit = self._of_set[id(subset)] = (subset, self._id((nf.words, nf.cones)))
        return hit[1]

    def moved(self, x: str, fid: int) -> int:
        """The id of x·F, F the form with id ``fid``."""
        out = self._moved.get((x, fid))
        if out is None:
            origin = self._origin.get(fid)
            if origin is not None:
                out = self.moved(multiply(x, origin[0]), origin[1])
            elif x == "":
                out = fid
            else:
                out = self._id(prefix.canonical(*prefix.translate(x, *self.forms[fid])))
                if out != fid:
                    self._origin.setdefault(out, (x, fid))
            self._moved[(x, fid)] = out
        return out

    def translate(self, x: str, subset: GroupSubset) -> GroupSubset:
        """x·A as ``subsets.translate`` makes it."""
        try:
            return ss.NormalizedSet(NormalForm(*self.forms[self.moved(x, self.of(subset))]))
        except NotNormalizable:
            return ss.TranslateSet(x, subset)

    def walk(self, fids: FrozenSet[int], radius: Optional[int]) -> dict:
        """For each pattern of form ids met in the radius-r ball, or in the
        whole group when ``radius`` is None, (ball-order key, first word)."""
        out = self._walks.get((radius, fids))
        if out is not None:
            return out
        wider = [ids for r, ids in self._walks if r == radius and fids < ids]
        if wider:
            out = {}
            for pattern, first in self._walks[(radius, min(wider, key=len))].items():
                restricted = pattern & fids
                if restricted not in out or first < out[restricted]:
                    out[restricted] = first
        else:
            order = sorted(fids)
            out = {
                frozenset(order[k] for k in pattern): (fw.ball_key(w), w)
                for pattern, w in prefix.first_by_pattern(
                    [self.forms[i] for i in order], radius
                ).items()
            }
        self._walks[(radius, fids)] = out
        return out

    def walk_over(self, ids: Sequence[int], radius: Optional[int]) -> Tuple[dict, dict]:
        """The walk over the distinct forms of ``ids``, and the positions in
        ``ids`` of each form, in order."""
        at: Dict[int, List[int]] = {}
        for k, fid in enumerate(ids):
            at.setdefault(fid, []).append(k)
        return self.walk(frozenset(at), radius), at


# the memo of the enclosing `shared_translates` block; set only inside one
_SHARED: contextvars.ContextVar[Optional[_Translates]] = contextvars.ContextVar(
    "shared_translates", default=None
)


@contextlib.contextmanager
def shared_translates():
    """Let every tower check and builder inside the block share one memo of
    translates and walks.  Blocks nest: an inner one joins the outer memo,
    which goes when the outer block ends."""
    if _SHARED.get() is not None:
        yield
        return
    token = _SHARED.set(_Translates())
    try:
        yield
    finally:
        _SHARED.reset(token)


def _translates() -> _Translates:
    """The memo of the enclosing ``shared_translates`` block, or a new one."""
    return _SHARED.get() or _Translates()


def _pieces(memo: _Translates, s: "ProductSubset") -> List[Tuple[int, FrozenSet[str]]]:
    """s as a disjoint union of rectangles A × C: (form id of A, labels C)
    for each distinct nonempty slice A; a rectangle has one piece."""
    labels: Dict[int, List[str]] = {}
    for lbl, t in s.slices.items():
        fid = memo.of(t)
        words, bases = memo.forms[fid]
        if words or bases:
            labels.setdefault(fid, []).append(lbl)
    return [(fid, frozenset(lbls)) for fid, lbls in labels.items()]


def _first_hit(
    family: TowerFamily, placed: Sequence[Tuple[object, int]], radius: Optional[int],
    memo: _Translates, clash: bool,
) -> Optional[Tuple[object, List[int]]]:
    """The first element, in ball order, of the radius-r ball, or of the
    whole group when ``radius`` is None, that lies in two of the translates
    x·A_i, for (x, i) in ``placed``, when ``clash``, or in none of them
    otherwise: (element, sorted positions in ``placed`` of the translates
    holding it), or None.  Every membership pattern of the walk is asked
    only how many translates hold its first element; the positions are
    read for the element found.  Raises NotNormalizable when a set has no
    normal form."""

    def wanted(count: int) -> bool:
        return count > 1 if clash else count == 0

    sets = family.items
    if family.kind in ("F2", "F3"):
        # in F3 a word p·s has the membership of its a,b-part p, and p comes
        # first in the ball
        ids = []
        for x, i in placed:
            a = sets[i][0]
            if family.kind == "F3":
                _check_ab(x)
                a = a.base
            ids.append(memo.moved(x, memo.of(a)))
        walk, at = memo.walk_over(ids, radius)
        if not clash:
            first = walk.get(frozenset())
            return None if first is None else (first[1], [])
        # a form in a pattern holds its first word, so a pattern is held by
        # two translates when it has two forms or a form placed twice
        twice = {fid for fid, ps in at.items() if len(ps) > 1}
        hits = [
            (first, pattern) for pattern, first in walk.items()
            if len(pattern) > 1 or not twice.isdisjoint(pattern)
        ]
        if not hits:
            return None
        (_, w), pattern = min(hits, key=lambda hit: hit[0])
        return w, sorted(p for fid in pattern for p in at[fid])
    if family.kind == "F2xK":
        # (h, e)·(A × C) = hA × eC: one walk over the forms hA of every
        # piece, and (w, l) lies in the translates with a piece whose hA
        # holds w and whose eC holds l
        k = family.k_group
        index = {lbl: li for li, lbl in enumerate(k.elements)}
        pieces = {i: _pieces(memo, sets[i][0]) for i in {i for _, i in placed}}
        ids, owners, labels = [], [], []
        for j, ((h, e), i) in enumerate(placed):
            for fid, c in pieces[i]:
                ids.append(memo.moved(h, fid))
                owners.append(j)
                labels.append({index[k.mul(e, lbl)] for lbl in c})
        walk, at = memo.walk_over(ids, radius)
        # a translate has at most one piece at a label, so the translates
        # holding (w, l) number the pieces at l of the forms holding w
        counts = {fid: [0] * len(index) for fid in at}
        for fid, c in zip(ids, labels):
            row = counts[fid]
            for li in c:
                row[li] += 1
        best = None
        for pattern, (key, w) in walk.items():
            if best is not None and key > best[0][0]:
                continue
            for li in range(len(index)):
                if wanted(sum(counts[fid][li] for fid in pattern)):
                    if best is None or (key, li) < best[0]:
                        best = ((key, li), w, pattern)
                    break
        if best is None:
            return None
        (_, li), w, pattern = best
        return (w, k.elements[li]), sorted(
            owners[p] for fid in pattern for p in at[fid] if li in labels[p]
        )
    if family.kind == "F2xF2":
        # a pattern of the first factor fixes the rectangles still active
        firsts = [memo.moved(u, memo.of(sets[i][0].first)) for (u, _), i in placed]
        seconds = [memo.moved(v, memo.of(sets[i][0].second)) for (_, v), i in placed]
        walk, at = memo.walk_over(firsts, radius)
        best = None
        for first, (ku, u) in walk.items():
            if best is not None and ku > best[0][0]:
                continue
            active = sorted(p for fid in first for p in at[fid])
            inner, inner_at = memo.walk_over([seconds[j] for j in active], radius)
            for second, (kv, v) in inner.items():
                if wanted(sum(len(inner_at[fid]) for fid in second)) and (
                    best is None or (ku, kv) < best[0]
                ):
                    best = ((ku, kv), (u, v), [active[j] for fid in second for j in inner_at[fid]])
        return None if best is None else (best[1], sorted(best[2]))
    raise ValueError(f"unknown group: {family.kind!r}")


def _owners(family: TowerFamily) -> List[Tuple[int, int]]:
    """(D index, tower index) of every translate d·A_i, in the order in
    which a clash reports its hits."""
    return [(di, i) for i in range(family.n) for di in range(len(family.d_set))]


def _ball_checks(family: TowerFamily, clash, bare) -> dict:
    """Checks dict from the first clash (element, owner, owner) and the
    first uncovered (element, cover group), each None when there is none."""
    group = family.group
    disjoint: dict = {"pass": True, "counterexample": None}
    if clash is not None:
        w, (di, i), (dj, j) = clash
        disjoint = {
            "pass": False,
            "counterexample": {
                "word": group.elem_json(w),
                "d": group.elem_json(family.d_set[di]), "i": i,
                "d2": group.elem_json(family.d_set[dj]), "i2": j,
            },
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
    memo = _translates()
    owners = _owners(family)
    placed = [(family.d_set[di], i) for di, i in owners]
    clash = _first_hit(family, placed, radius, memo, clash=True)
    if clash is not None:
        w, hits = clash
        clash = (w, owners[hits[0]], owners[hits[1]])
    bare = None
    for group_no, idxs in enumerate(family.cover_groups):
        covers = [(family.items[i][1], i) for i in idxs]
        first = _first_hit(family, covers, radius, memo, clash=False)
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
            (di, i)
            for di, i in owners
            if family.items[i][0].contains(group.mul(inv_d[di], w))
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
            if not any(
                family.items[i][0].contains(group.mul(inv_g[i], w)) for i in idxs
            ):
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
                raise NotNormalizable(
                    f"exact mode unavailable for this family: {e}"
                ) from e
        return TowerCertificate(family.to_json(), "exact", None, checks)

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
    return TowerCertificate(family.to_json(), "ball", radius, checks)


# ---------------------------------------------------------------------------
# free-group constructions


class StrengthenedF2Towers:
    """Three cone towers whose covering complements are pairwise disjoint."""

    def __init__(self, d_set: Sequence[str], m: int, bases: List[str]):
        self.d_set = list(d_set)
        self.m = m
        self.bases = bases
        self.items = [(ss.cone(h), inverse(h)) for h in bases]

    def complements(self) -> List[NormalForm]:
        """Normal forms of G ∖ g_j·A_j; single cones at the inverse last letters."""
        memo = _translates()
        return [memo.translate(g, a).normal_form().complement() for a, g in self.items]

    def family(self) -> TowerFamily:
        return TowerFamily("F2", self.d_set, self.items, notes={"padding": self.m})


@shared_translates()
def f2_strengthened_towers(d_set: Iterable[str]) -> StrengthenedF2Towers:
    d_list = [fw.reduce_word(d) for d in d_set]
    if not d_list:
        raise ValueError("D must be nonempty")
    m = max(len(d) for d in d_list)
    pad = "a" * (2 * m)
    bases = [pad + "ba", pad + "bA", pad + "bb"]
    t = StrengthenedF2Towers(d_list, m, bases)
    cert = verify_towers(t.family(), "exact")
    if not cert.checks["disjoint"]["pass"]:
        raise RuntimeError("tower disjointness failed")
    comps = t.complements()
    for x, y in itertools.combinations(comps, 2):
        if not x.inter(y).is_empty():
            raise RuntimeError("complement disjointness failed")
    return t


@shared_translates()
def f2_towers(d_set: Iterable[str]) -> TowerFamily:
    """2-tower family: first two strengthened towers; their covering is
    forced by the complements being disjoint."""
    t = f2_strengthened_towers(d_set)
    fam = TowerFamily("F2", t.d_set, t.items[:2], notes={"padding": t.m})
    cert = verify_towers(fam, "exact")
    if not cert.passed:
        raise RuntimeError("base family failed exact verification")
    return fam


def disjoint_translates(d_words: Sequence[str], count: int) -> List[str]:
    """First `count` words s (canonical order) with the sets D·s pairwise disjoint."""
    chosen: List[str] = []
    taken: set = set()
    d_list = list(d_words)
    for w in fw.enumerate_words():
        if not any(multiply(d, w) in taken for d in d_list):
            chosen.append(w)
            taken.update(multiply(d, w) for d in d_list)
            if len(chosen) == count:
                return chosen
    raise SearchExhausted(
        f"found only {len(chosen)} of {count} disjoint translates"
        f" within radius {fw.DEFAULT_MAX_RADIUS}"
    )


@shared_translates()
def more_towers(d_set: Iterable[str], copies: int) -> TowerFamily:
    """copies × n indexed towers that are jointly D-disjoint (one covering
    family per copy index)."""
    d_list = [fw.reduce_word(d) for d in d_set]
    if copies < 1:
        raise ValueError("copies must be positive")
    shifts = disjoint_translates(d_list, copies)
    d_big = sorted({multiply(d, s) for d in d_list for s in shifts}, key=lambda w: (len(w), w))
    base_fam = f2_towers(d_big)
    memo = _translates()
    items = []
    cover_groups: List[List[int]] = []
    for j, s in enumerate(shifts):
        group = []
        for a, g in base_fam.items:
            items.append((memo.translate(s, a), multiply(g, inverse(s))))
            group.append(len(items) - 1)
        cover_groups.append(group)
    fam = TowerFamily(
        "F2", d_list, items, cover_groups=cover_groups, notes={"shifts": shifts}
    )
    cert = verify_towers(fam, "exact")
    if not cert.passed:
        raise RuntimeError("indexed family failed exact verification")
    return fam


# ---------------------------------------------------------------------------
# product and ambient-group constructions


@shared_translates()
def finite_normal_ext_towers(f_set: Sequence[ProductElem], k_group: FiniteGroup) -> TowerFamily:
    """Towers on F2 × K from quotient towers, |K|·n of them.

    The quotient family is built for the union of disjoint translates
    D0·t_j of the projected set, then each tower is shifted into its own
    translate slot with a distinct K coordinate."""
    m = len(k_group)
    d0 = sorted({f[0] for f in f_set} | {""}, key=lambda w: (len(w), w))
    shifts = disjoint_translates(d0, m)
    d_big = sorted(
        {multiply(d, t) for d in d0 for t in shifts}, key=lambda w: (len(w), w)
    )
    quot = f2_towers(d_big)
    memo = _translates()
    items = []
    for j, (t, k_elem) in enumerate(zip(shifts, k_group.elements)):
        for a, g in quot.items:
            c = ProductSubset(k_group, {k_group.identity: memo.translate(t, a)})
            items.append((c, (multiply(g, inverse(t)), k_elem)))
    fam = TowerFamily(
        "F2xK",
        list(f_set),
        items,
        k_group=k_group,
        notes={"shifts": shifts},
    )
    cert = verify_towers(fam, "exact")
    if not cert.passed:
        raise RuntimeError("product family failed exact verification")
    return fam


@shared_translates()
def extension_towers(
    f_set: Sequence[Tuple[str, str]],
    base: Callable[[Iterable[str]], TowerFamily] = f2_towers,
) -> TowerFamily:
    """Towers on F2 × F2 as rectangles A_i × B_j of factor towers."""
    f_list = [(fw.reduce_word(u), fw.reduce_word(v)) for u, v in f_set]
    sym = set(f_list) | {(inverse(u), inverse(v)) for u, v in f_list} | {("", "")}
    d1 = sorted({u for u, _ in sym}, key=lambda w: (len(w), w))
    # second-factor translates arising from products of F elements whose
    # first coordinates cancel
    e2 = sorted(
        {
            multiply(v1, v2)
            for (u1, v1) in sym
            for (u2, v2) in sym
            if multiply(u1, u2) == ""
        },
        key=lambda w: (len(w), w),
    )
    first_fam = base(d1)
    second_fam = base(e2)
    items = []
    for a, g in first_fam.items:
        for b, k in second_fam.items:
            items.append((ProductF2Subset(a, b), (g, k)))
    fam = TowerFamily(
        "F2xF2",
        sorted(sym),
        items,
        notes={"first_D": d1, "second_D": e2},
    )
    cert = verify_towers(fam, "exact")
    if not cert.passed:
        raise RuntimeError("rectangle family failed exact verification")
    return fam


@shared_translates()
def union_towers(d_set: Iterable[str]) -> TowerFamily:
    """Towers on the rank-3 free group from coset-sliced rank-2 towers."""
    d_list = [fw.reduce_word(d) for d in d_set]
    sub_fam = f2_towers(d_list)
    items = [(CosetSliceSubset(a), g) for a, g in sub_fam.items]
    fam = TowerFamily(
        "F3",
        d_list,
        items,
        notes={
            "transversal": "identity plus reduced words starting with c or C",
            "transversal_radius": 5,
        },
    )
    cert = verify_towers(fam, "exact")
    if not cert.passed:
        raise RuntimeError("coset-sliced family failed exact verification")
    return fam


# ---------------------------------------------------------------------------
# towers from the boundary action


# the filling towers compare boundary points on prefixes of this length, and
# check that no word of the ball of STABILIZER_RADIUS fixes that prefix of z
CHECK_PREFIX_LEN = 40
STABILIZER_RADIUS = 6


def towers_from_filling(d_set: Iterable[str], n: int = 2) -> TowerFamily:
    """Orbit-preimage towers A_i = {g : g·z ∈ U_i} on the free group.

    z is the aperiodic boundary point a b a b^2 a b^3 ...; the U_i are
    deep cylinders around distinct orbit points of z whose D-translates
    are pairwise disjoint, and the covering elements u_i^{-1} push each
    cylinder onto the complement of a single depth-1 cylinder.
    """
    if n < 2:
        raise ValueError("need at least two towers")
    d_list = [fw.reduce_word(d) for d in d_set]
    # a repeated element never separates from itself, so the search below
    # would deepen to its cap
    repeated = sorted({d for d in d_list if d_list.count(d) > 1}, key=fw.ball_key)
    if repeated:
        raise ValueError(f"D repeats the reduced element {repeated[0]!r}")
    z = AperiodicPoint()

    # no short word fixes a long prefix of z; full triviality is assumed
    for g in fw.ball(STABILIZER_RADIUS):
        if g == "":
            continue
        moved = multiply(g, z.prefix(CHECK_PREFIX_LEN + len(g)))
        if moved[:CHECK_PREFIX_LEN] == z.prefix(CHECK_PREFIX_LEN):
            raise RuntimeError(f"stabilizer check failed at {g!r}")

    # orbit points z, c_2·z, ... with pairwise distinct D-orbit translates
    points = [z]
    movers = [""]
    for g in fw.enumerate_words():
        if len(points) == n:
            break
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

    # deepen the neighborhoods until all D-translates are pairwise disjoint,
    # keeping the cylinders' last letters non-constant so the covering
    # translates reach the whole boundary
    depth = max((len(d) for d in d_list), default=0) + 2
    while True:
        bases = [p.prefix(depth) for p in points]
        if len({b[-1] for b in bases}) == 1:
            # covering needs at least two distinct last letters
            k = depth + 1
            while points[-1].prefix(k)[-1] == bases[0][-1]:
                k += 1
            bases[-1] = points[-1].prefix(k)
        items = [(ss.OrbitPreimage(z, ClopenSet.cylinder(b)), inverse(b)) for b in bases]
        checks = _boundary_checks(TowerFamily("F2", d_list, items))
        if checks["disjoint"]["pass"]:
            break
        depth += 1
        if depth > 60:
            raise SearchExhausted("could not separate neighborhoods")
    # filling data: u^{-1}·[u] is the complement of one depth-1 cylinder,
    # and the last letters are not all equal, so the images cover
    if not checks["cover"]["pass"]:
        raise RuntimeError("filling data failed to cover the boundary")

    return TowerFamily(
        "F2",
        d_list,
        items,
        notes={
            "point": z.to_json(),
            "orbit_movers": movers,
            "neighborhoods": bases,
            "stabilizer": f"trivial assumed; checked on ball {STABILIZER_RADIUS}"
            f" against a length-{CHECK_PREFIX_LEN} prefix",
        },
    )
