"""Paradoxical tower families: construction and certification.

A tower family over a group G is a finite set D together with pairs
(A_i, g_i) such that the translates d·A_i, for d in D and all i, are
pairwise disjoint while the g_i·A_i cover G.  The free-group construction
uses cones at the padded words a^{2m}ba, a^{2m}bA, a^{2m}b^2 and certifies
both conditions exactly in the cone algebra; families on product groups,
the rank-3 free group and orbit-preimage families from the boundary action
are certified on metric balls.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import prefix
from . import subsets as ss
from . import words as fw
from .groups import (
    FiniteGroup,
    ProductElem,
    f3_factor,
    finite_group_from_json,
    group_from_json,
    make_group,
)
from .subsets import GroupSubset, NormalForm, NotNormalizable
from .words import inverse, multiply


class SearchExhausted(RuntimeError):
    """A greedy search ran out of candidates within the enumeration cap."""


# ---------------------------------------------------------------------------
# subsets of the non-free ambient groups


class ProductSubset:
    """Subset of F2 × K, one symbolic F2 slice per K element."""

    def __init__(self, k_group: FiniteGroup, slices: Dict[str, GroupSubset]):
        self.k = k_group
        self.slices = {e: slices.get(e, ss.empty_set()) for e in k_group.elements}

    def contains(self, g: ProductElem) -> bool:
        return self.slices[g[1]].contains(g[0])

    def translate(self, g: ProductElem) -> "ProductSubset":
        h, e = g
        return ProductSubset(
            self.k,
            {self.k.mul(e, lbl): ss.translate(h, s) for lbl, s in self.slices.items()},
        )

    def union(self, other: "ProductSubset") -> "ProductSubset":
        return ProductSubset(
            self.k, {e: self.slices[e] | other.slices[e] for e in self.k.elements}
        )

    def inter_is_empty(self, other: "ProductSubset") -> bool:
        return all(
            ss.are_disjoint(self.slices[e], other.slices[e]) for e in self.k.elements
        )

    def is_all(self) -> bool:
        return all(ss.is_all(self.slices[e]) for e in self.k.elements)

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

    def inter_is_empty(self, other: "ProductF2Subset") -> bool:
        return ss.are_disjoint(self.first, other.first) or ss.are_disjoint(
            self.second, other.second
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
        # only translations from the a,b subgroup keep the slice form
        if any(x in ("c", "C") for x in g):
            raise NotNormalizable("coset-slice subsets only translate by a,b words")
        return CosetSliceSubset(ss.translate(g, self.base))

    def inter_is_empty(self, other: "CosetSliceSubset") -> bool:
        return ss.are_disjoint(self.base, other.base)

    def is_all(self) -> bool:
        return ss.is_all(self.base)

    def to_json(self) -> dict:
        return {"kind": "coset-slices", "base": self.base.to_json()}


def _subset_from_json(data: dict):
    kind = data.get("kind")
    if kind == "product-k":
        k = finite_group_from_json(data["k"])
        return ProductSubset(
            k, {e: ss.subset_from_json(v) for e, v in data["slices"].items()}
        )
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
            (_subset_from_json(t["A"]), group.elem_from_json(t["g"])) for t in towers
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


def _translate_slice_nfs(family: TowerFamily, d, a) -> Optional[Dict[object, NormalForm]]:
    """Per-K-label normal forms of d·a, or None when not cone-expressible."""
    try:
        if family.kind == "F2":
            return {None: a.translate(d).normal_form()}
        if family.kind == "F2xK":
            moved = a.translate(d)
            return {
                lbl: s.normal_form()
                for lbl, s in moved.slices.items()
            }
        if family.kind == "F3":
            return {None: a.translate(d).base.normal_form()}
    except NotNormalizable:
        return None
    return None


def _exact_disjoint(family: TowerFamily) -> Tuple[bool, Optional[dict]]:
    if family.kind in ("F2", "F2xK", "F3"):
        by_label: Dict[object, List[Tuple[Tuple[int, int], NormalForm]]] = {}
        ok = True
        for i, (a, _) in enumerate(family.items):
            for di, d in enumerate(family.d_set):
                slices = _translate_slice_nfs(family, d, a)
                if slices is None:
                    ok = False
                    break
                for lbl, nf in slices.items():
                    by_label.setdefault(lbl, []).append(((di, i), nf))
            if not ok:
                break
        if ok:
            for pieces in by_label.values():
                bad = prefix.first_overlap(
                    [(c, owner) for owner, nf in pieces for c in nf.cones],
                    [(w, owner) for owner, nf in pieces for w in nf.words],
                )
                if bad is not None:
                    (di, i), (dj, j) = bad
                    return False, {
                        "d": family.group.elem_json(family.d_set[di]), "i": i,
                        "d2": family.group.elem_json(family.d_set[dj]), "i2": j,
                    }
            return True, None
    translated = []
    for i, (a, _) in enumerate(family.items):
        for d in family.d_set:
            translated.append((d, i, a.translate(d)))
    for (d, i, s), (d2, i2, t) in itertools.combinations(translated, 2):
        if not s.inter_is_empty(t):
            return False, {
                "d": family.group.elem_json(d),
                "i": i,
                "d2": family.group.elem_json(d2),
                "i2": i2,
            }
    return True, None


def _exact_cover(family: TowerFamily) -> Tuple[bool, Optional[dict]]:
    for group_no, idxs in enumerate(family.cover_groups):
        moved = [family.items[i][0].translate(family.items[i][1]) for i in idxs]
        if family.kind == "F2":
            total = ss.empty_set()
            for m in moved:
                total = total | m
            ok = ss.is_all(total)
        elif family.kind == "F2xK":
            total = moved[0]
            for m in moved[1:]:
                total = total.union(m)
            ok = total.is_all()
        elif family.kind == "F3":
            total = CosetSliceSubset(ss.empty_set())
            for m in moved:
                total = CosetSliceSubset(total.base | m.base)
            ok = total.is_all()
        elif family.kind == "F2xF2":
            ok = _rectangles_cover(moved)
        else:
            raise NotNormalizable(f"no exact covering check for {family.kind}")
        if not ok:
            return False, {"cover_group": group_no}
    return True, None


def _rectangles_cover(rects: Sequence[ProductF2Subset]) -> bool:
    """Exact covering test for a union of rectangles in F2 × F2.

    Partitions the first factor by all sign patterns of the rectangles'
    first components; on every nonempty cell the second components of the
    participating rectangles must exhaust the second factor.
    """
    if len(rects) > 12:
        raise NotNormalizable("too many rectangles for the exact covering sweep")
    firsts = [r.first.normal_form() for r in rects]
    seconds = [r.second.normal_form() for r in rects]
    for pattern in itertools.product([True, False], repeat=len(rects)):
        if not any(pattern):
            # a point with first coordinate outside every rectangle
            cell = NormalForm(cones=[""])
            for nf in firsts:
                cell = cell.inter(nf.complement())
            if not cell.is_empty():
                return False
            continue
        cell = NormalForm(cones=[""])
        for nf, inside in zip(firsts, pattern):
            cell = cell.inter(nf if inside else nf.complement())
        if cell.is_empty():
            continue
        total = NormalForm()
        for nf2, inside in zip(seconds, pattern):
            if inside:
                total = total.union(nf2)
        if not total.complement().is_empty():
            return False
    return True


def _form(s: GroupSubset) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    nf = s.normal_form()
    return nf.words, nf.cones


def _keep_first(out: dict, pattern: FrozenSet[int], key, elem) -> None:
    if pattern not in out or key < out[pattern][0]:
        out[pattern] = (key, elem)


def _first_elements(family: TowerFamily, sets: Sequence, radius: int) -> dict:
    """For each membership pattern over ``sets`` met in the radius-r ball,
    (ball-order key, element) of its first element.  Raises NotNormalizable
    when a set has no normal form."""
    walk = prefix.first_by_pattern
    out: dict = {}
    if family.kind in ("F2", "F3"):
        # in F3 a word p·s has the membership of its a,b-part p, and p comes
        # first in the ball
        forms = [_form(s if family.kind == "F2" else s.base) for s in sets]
        for pattern, w in walk(forms, radius).items():
            out[pattern] = (fw.ball_key(w), w)
    elif family.kind == "F2xK":
        for li, lbl in enumerate(family.k_group.elements):
            for pattern, w in walk([_form(s.slices[lbl]) for s in sets], radius).items():
                _keep_first(out, pattern, (fw.ball_key(w), li), (w, lbl))
    elif family.kind == "F2xF2":
        # a pattern of the first factor fixes the rectangles still active
        for first, u in walk([_form(s.first) for s in sets], radius).items():
            active = sorted(first)
            seconds = [_form(sets[k].second) for k in active]
            for second, v in walk(seconds, radius).items():
                pattern = frozenset(active[k] for k in second)
                _keep_first(out, pattern, (fw.ball_key(u), fw.ball_key(v)), (u, v))
    else:
        raise ValueError(f"unknown group: {family.kind!r}")
    return out


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


def _walk_ball(family: TowerFamily, radius: int) -> dict:
    """Ball checks read off the prefix trie of the translates' normal forms."""
    owners = _owners(family)
    moved = [family.items[i][0].translate(family.d_set[di]) for di, i in owners]
    clashes = [
        (key, w, sorted(pattern))
        for pattern, (key, w) in _first_elements(family, moved, radius).items()
        if len(pattern) > 1
    ]
    clash = None
    if clashes:
        _, w, hits = min(clashes)
        clash = (w, owners[hits[0]], owners[hits[1]])
    bare = None
    for group_no, idxs in enumerate(family.cover_groups):
        covers = [a.translate(g) for a, g in (family.items[i] for i in idxs)]
        first = _first_elements(family, covers, radius).get(frozenset())
        if first is not None:
            bare = (first[1], group_no)
            break
    return _ball_checks(family, clash, bare)


def _sweep_ball(family: TowerFamily, radius: int) -> dict:
    """Ball checks by enumerating the ball and testing membership with
    ``contains``; for sets without a normal form, and the reference for the
    trie walk."""
    group = family.group
    cap = fw.ball_size(fw.DEFAULT_MAX_RADIUS)
    # every group's ball is at least as large as F2's, so a radius above the
    # cap's needs no count
    if radius > fw.DEFAULT_MAX_RADIUS or group.ball_size(radius) > cap:
        raise fw.RadiusTooLarge(
            f"the radius-{radius} ball of {family.kind} has more than {cap} elements"
        )
    ball = group.ball(radius)
    inv_d = [group.inv(d) for d in family.d_set]
    inv_g = [group.inv(g) for _, g in family.items]
    owners = _owners(family)
    clash = None
    for w in ball:
        hits = [
            (di, i)
            for di, i in owners
            if family.items[i][0].contains(group.mul(inv_d[di], w))
        ]
        if len(hits) > 1:
            clash = (w, hits[0], hits[1])
            break
    bare = None
    for group_no, idxs in enumerate(family.cover_groups):
        for w in ball:
            if not any(
                family.items[i][0].contains(group.mul(inv_g[i], w)) for i in idxs
            ):
                bare = (w, group_no)
                break
        if bare is not None:
            break
    return _ball_checks(family, clash, bare)


def verify_towers(
    family: TowerFamily, mode: str = "exact", radius: Optional[int] = None
) -> TowerCertificate:
    """Certify both tower conditions exactly or on a metric ball."""
    if mode == "exact":
        try:
            d_ok, d_cex = _exact_disjoint(family)
            c_ok, c_cex = _exact_cover(family)
        except NotNormalizable as e:
            raise NotNormalizable(
                f"exact mode unavailable for this family: {e}"
            ) from e
        checks = {
            "disjoint": {"pass": d_ok, "counterexample": d_cex},
            "cover": {"pass": c_ok, "counterexample": c_cex},
        }
        return TowerCertificate(family.to_json(), "exact", None, checks)

    if mode != "ball":
        raise ValueError(f"unknown mode: {mode!r}")
    if radius is None:
        raise ValueError("ball mode needs a radius")
    if isinstance(radius, bool) or not isinstance(radius, int) or radius < 0:
        raise ValueError(f"ball radius must be a nonnegative integer, not {radius!r}")
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
        out = []
        for a, g in self.items:
            out.append(ss.translate(g, a).normal_form().complement())
        return out

    def family(self) -> TowerFamily:
        return TowerFamily("F2", self.d_set, self.items, notes={"padding": self.m})


def f2_strengthened_towers(d_set: Iterable[str]) -> StrengthenedF2Towers:
    d_list = [fw.reduce_word(d) for d in d_set]
    if not d_list:
        raise ValueError("D must be nonempty")
    m = max(len(d) for d in d_list)
    pad = "a" * (2 * m)
    bases = [pad + "ba", pad + "bA", pad + "bb"]
    t = StrengthenedF2Towers(d_list, m, bases)
    cert = verify_towers(t.family(), "exact")
    assert cert.checks["disjoint"]["pass"], "tower disjointness failed"
    comps = t.complements()
    for x, y in itertools.combinations(comps, 2):
        assert x.inter(y).is_empty(), "complement disjointness failed"
    return t


def f2_towers(d_set: Iterable[str]) -> TowerFamily:
    """2-tower family: first two strengthened towers; their covering is
    forced by the complements being disjoint."""
    t = f2_strengthened_towers(d_set)
    fam = TowerFamily("F2", t.d_set, t.items[:2], notes={"padding": t.m})
    cert = verify_towers(fam, "exact")
    assert cert.passed, "base family failed exact verification"
    return fam


def _greedy_disjoint_translates(
    d_words: Sequence[str], count: int, max_radius: int = fw.DEFAULT_MAX_RADIUS
) -> List[str]:
    """First `count` words s (canonical order) with the sets D·s pairwise disjoint."""
    chosen: List[str] = []
    taken: set = set()
    d_list = list(d_words)
    for w in fw.enumerate_words(max_radius):
        moved = {multiply(d, w) for d in d_list}
        if taken.isdisjoint(moved):
            chosen.append(w)
            taken |= moved
            if len(chosen) == count:
                return chosen
    raise SearchExhausted(
        f"found only {len(chosen)} of {count} disjoint translates within radius {max_radius}"
    )


def more_towers(
    d_set: Iterable[str],
    copies: int,
    base: Callable[[Iterable[str]], TowerFamily] = f2_towers,
) -> TowerFamily:
    """copies × n indexed towers that are jointly D-disjoint (one covering
    family per copy index)."""
    d_list = [fw.reduce_word(d) for d in d_set]
    if copies < 1:
        raise ValueError("copies must be positive")
    shifts = _greedy_disjoint_translates(d_list, copies)
    d_big = sorted({multiply(d, s) for d in d_list for s in shifts}, key=lambda w: (len(w), w))
    base_fam = base(d_big)
    items = []
    cover_groups: List[List[int]] = []
    for j, s in enumerate(shifts):
        group = []
        for a, g in base_fam.items:
            items.append((ss.translate(s, a), multiply(g, inverse(s))))
            group.append(len(items) - 1)
        cover_groups.append(group)
    fam = TowerFamily(
        "F2", d_list, items, cover_groups=cover_groups, notes={"shifts": shifts}
    )
    cert = verify_towers(fam, "exact")
    assert cert.passed, "indexed family failed exact verification"
    return fam


# ---------------------------------------------------------------------------
# product and ambient-group constructions


def finite_normal_ext_towers(
    f_set: Sequence[ProductElem],
    k_group: FiniteGroup,
    base: Callable[[Iterable[str]], TowerFamily] = f2_towers,
) -> TowerFamily:
    """Towers on F2 × K from quotient towers, |K|·n of them.

    The quotient family is built for the union of disjoint translates
    D0·t_j of the projected set, then each tower is shifted into its own
    translate slot with a distinct K coordinate."""
    m = len(k_group)
    d0 = sorted({f[0] for f in f_set} | {""}, key=lambda w: (len(w), w))
    shifts = _greedy_disjoint_translates(d0, m)
    d_big = sorted(
        {multiply(d, t) for d in d0 for t in shifts}, key=lambda w: (len(w), w)
    )
    quot = base(d_big)
    items = []
    for j, (t, k_elem) in enumerate(zip(shifts, k_group.elements)):
        for a, g in quot.items:
            c = ProductSubset(
                k_group, {k_group.identity: ss.translate(t, a)}
            )
            items.append((c, (multiply(g, inverse(t)), k_elem)))
    fam = TowerFamily(
        "F2xK",
        list(f_set),
        items,
        k_group=k_group,
        notes={"shifts": shifts},
    )
    cert = verify_towers(fam, "exact")
    assert cert.passed, "product family failed exact verification"
    return fam


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
    assert cert.passed, "rectangle family failed exact verification"
    return fam


def union_towers(
    d_set: Iterable[str],
    base: Callable[[Iterable[str]], TowerFamily] = f2_towers,
    transversal_radius: int = 5,
) -> TowerFamily:
    """Towers on the rank-3 free group from coset-sliced rank-2 towers."""
    d_list = [fw.reduce_word(d) for d in d_set]
    sub_fam = base(d_list)
    items = [(CosetSliceSubset(a), g) for a, g in sub_fam.items]
    fam = TowerFamily(
        "F3",
        d_list,
        items,
        notes={
            "transversal": "identity plus reduced words starting with c or C",
            "transversal_radius": transversal_radius,
        },
    )
    cert = verify_towers(fam, "exact")
    assert cert.passed, "coset-sliced family failed exact verification"
    return fam


# ---------------------------------------------------------------------------
# towers from the boundary action


def towers_from_filling(
    d_set: Iterable[str],
    n: int = 2,
    check_prefix_len: int = 40,
    stabilizer_radius: int = 6,
) -> TowerFamily:
    """Orbit-preimage towers A_i = {g : g·z ∈ U_i} on the free group.

    z is the aperiodic boundary point a b a b^2 a b^3 ...; the U_i are
    deep cylinders around distinct orbit points of z whose D-translates
    are pairwise disjoint, and the covering elements u_i^{-1} push each
    cylinder onto the complement of a single depth-1 cylinder.
    """
    from .boundary import AperiodicPoint, ClopenSet, TranslatedPoint

    if n < 2:
        raise ValueError("need at least two towers")
    d_list = [fw.reduce_word(d) for d in d_set]
    z = AperiodicPoint()

    # no short word fixes a long prefix of z; full triviality is assumed
    for g in fw.ball(stabilizer_radius):
        if g == "":
            continue
        moved = multiply(g, z.prefix(check_prefix_len + len(g)))
        if moved[:check_prefix_len] == z.prefix(check_prefix_len):
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
                    a = multiply(d, cand.prefix(check_prefix_len + len(d)))[:check_prefix_len]
                    b = multiply(d2, p.prefix(check_prefix_len + len(d2)))[:check_prefix_len]
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
        cyls = [ClopenSet.cylinder(b) for b in bases]
        translated = [
            (d, i, cyls[i].act(d)) for i in range(n) for d in d_list
        ]
        ok = True
        for (d, i, s), (d2, i2, t) in itertools.combinations(translated, 2):
            if not s.are_disjoint(t):
                ok = False
                break
        if ok:
            break
        depth += 1
        if depth > 60:
            raise SearchExhausted("could not separate neighborhoods")

    # filling data: u^{-1}·[u] is the complement of one depth-1 cylinder,
    # and the last letters are not all equal, so the images cover
    g_elems = [inverse(b) for b in bases]
    total = ClopenSet.empty()
    for g_elem, cyl in zip(g_elems, cyls):
        total = total.union(cyl.act(g_elem))
    if not total.is_full():
        raise RuntimeError("filling data failed to cover the boundary")

    items = []
    for i in range(n):
        items.append((ss.OrbitPreimage(z, cyls[i]), g_elems[i]))
    return TowerFamily(
        "F2",
        d_list,
        items,
        notes={
            "point": z.to_json(),
            "orbit_movers": movers,
            "neighborhoods": bases,
            "stabilizer": "trivial assumed; checked on ball "
            + str(stabilizer_radius)
            + " against a length-"
            + str(check_prefix_len)
            + " prefix",
        },
    )
