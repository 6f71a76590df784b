import json
import random
import time

import pytest

import paratower.subsets as ss
import paratower.towers as towers
from paratower import prefix
from paratower.boundary import (
    AperiodicPoint, ClopenSet, PeriodicPoint, ProductClopen, TranslatedPoint
)
from paratower.groups import (
    F2Group,
    F2xF2Group,
    F2xKGroup,
    F3Group,
    cyclic_group,
    group_from_json,
)
from paratower.towers import (
    CosetSliceSubset,
    ProductF2Subset,
    ProductSubset,
    TowerFamily,
    _sweep_ball,
    extension_towers,
    f2_towers,
    finite_normal_ext_towers,
    more_towers,
    towers_from_filling,
    union_towers,
    verify_towers,
)
from paratower.coloring import greedy_color
from paratower.words import LETTERS, ball, ball_key, inverse, multiply

import oracles
from oracles import union

D5 = ["", "a", "A", "b", "B"]


def test_f2_towers_exact_and_ball():
    fam = f2_towers(D5)
    assert verify_towers(fam, "exact").passed
    cert = verify_towers(fam, "ball", 8)
    assert cert.passed
    assert cert.radius == 8


def test_f2_towers_brute_force_cross_check():
    # independent membership sweep, no cone algebra involved
    fam = f2_towers(D5)
    words = list(ball(7))
    seen = {}
    for i, (a, _) in enumerate(fam.items):
        for d in fam.d_set:
            for w in words:
                if a.contains(multiply(inverse(d), w)):
                    assert w not in seen, (w, seen[w], (d, i))
                    seen[w] = (d, i)
    for w in words:
        assert any(
            a.contains(multiply(inverse(g), w)) for a, g in fam.items
        )


@pytest.mark.parametrize("build", [
    towers.f2_towers, lambda d: towers.more_towers(d, 2),
    towers.union_towers, towers.towers_from_filling,
], ids=["f2", "more", "union", "filling"])
def test_tower_builders_reduce_d_and_reject_a_non_letter(build):
    # reduced words pass through unchanged after one scan, others are reduced
    assert build(["aAb", "bB", "Ba"]).to_json() == build(["b", "", "Ba"]).to_json()
    with pytest.raises(ValueError, match="not a generator letter"):
        build(["a", "x"])


def test_more_towers_cover_groups():
    fam = more_towers(["", "a", "A", "b", "B"], 3)
    assert len(fam.cover_groups) == 3
    assert verify_towers(fam, "exact").passed
    assert verify_towers(fam, "ball", 6).passed


def test_finite_normal_ext_towers():
    k = cyclic_group(2)
    f_set = [("", "0"), ("a", "1"), ("A", "1")]
    fam = finite_normal_ext_towers(f_set, k)
    assert fam.kind == "F2xK"
    assert verify_towers(fam, "exact").passed
    assert verify_towers(fam, "ball", 4).passed


def test_extension_towers():
    fam = extension_towers([("a", "b"), ("A", "B")])
    assert fam.kind == "F2xF2"
    assert verify_towers(fam, "exact").passed
    assert verify_towers(fam, "ball", 3).passed


def test_union_towers():
    fam = union_towers(D5)
    assert fam.kind == "F3"
    assert verify_towers(fam, "exact").passed
    assert verify_towers(fam, "ball", 4).passed


def test_towers_from_filling():
    fam = towers_from_filling(["", "a", "A"])
    cert = verify_towers(fam, "ball", 6)
    assert cert.passed
    assert verify_towers(fam, "exact").passed


def test_family_json_round_trip():
    for fam in (f2_towers(D5), more_towers(D5, 2)):
        back = TowerFamily.from_json(fam.to_json())
        assert verify_towers(back, "exact").passed
        assert back.cover_groups == fam.cover_groups


# -- seeded defects: every broken family must be caught with a counterexample

def _mutate(fam: TowerFamily, items=None, d_set=None) -> TowerFamily:
    return TowerFamily(
        fam.kind,
        d_set if d_set is not None else fam.d_set,
        items if items is not None else fam.items,
        k_group=fam.k_group,
        cover_groups=fam.cover_groups,
    )


def test_defect_enlarged_tower_set():
    fam = f2_towers(D5)
    items = list(fam.items)
    a, g = items[0]
    items[0] = (union(a, ss.cone("ba")), g)
    cert = verify_towers(_mutate(fam, items=items), "exact")
    assert not cert.checks["disjoint"]["pass"]
    assert cert.checks["disjoint"]["counterexample"] is not None


def test_defect_duplicated_tower():
    fam = f2_towers(D5)
    items = [fam.items[0], fam.items[0]]
    cert = verify_towers(_mutate(fam, items=items), "exact")
    assert not cert.checks["disjoint"]["pass"]


def test_defect_wrong_covering_element():
    fam = f2_towers(D5)
    items = list(fam.items)
    a, _ = items[1]
    items[1] = (a, "b")  # no longer pushes onto the co-cone
    cert = verify_towers(_mutate(fam, items=items), "exact")
    assert not cert.checks["cover"]["pass"]
    assert cert.checks["cover"]["counterexample"] is not None


def test_defect_extra_d_element():
    fam = f2_towers(D5)
    # "aa" maps the padded cones over each other
    cert = verify_towers(_mutate(fam, d_set=fam.d_set + ["aab"]), "exact")
    assert not cert.checks["disjoint"]["pass"]


def test_defect_dropped_tower_breaks_cover():
    fam = f2_towers(D5)
    broken = TowerFamily(fam.kind, fam.d_set, fam.items[:1])
    cert = verify_towers(broken, "exact")
    assert not cert.checks["cover"]["pass"]


def test_a_failing_cover_over_the_trivial_group_names_a_pair():
    # K = Z/1 has one label, like F2, yet its elements stay (word, label)
    k = cyclic_group(1)
    fam = finite_normal_ext_towers([("", "0"), ("a", "0"), ("A", "0")], k)
    broken = TowerFamily(fam.kind, fam.d_set, fam.items[:-1], k_group=k, cover_groups=[[0]])
    checks = verify_towers(broken, "exact").checks
    assert checks["cover"]["counterexample"] == {"word": ["A", "0"], "cover_group": 0}
    assert checks["disjoint"]["pass"]
    for r in range(5):
        assert verify_towers(broken, "ball", r).checks == _sweep_ball(broken, r), r


def test_defect_product_label_collision():
    k = cyclic_group(2)
    fam = finite_normal_ext_towers([("", "0"), ("a", "1")], k)
    items = list(fam.items)
    a, g = items[0]
    # move the second tower onto the same K label and base slot as the first
    items[1] = (a, g)
    cert = verify_towers(_mutate(fam, items=items), "exact")
    assert not cert.checks["disjoint"]["pass"]


def test_defect_rectangle_overlap():
    fam = extension_towers([("a", "b"), ("A", "B")])
    items = list(fam.items)
    a_first = items[0][0]
    items[1] = (ProductF2Subset(a_first.first, a_first.second), items[1][1])
    cert = verify_towers(_mutate(fam, items=items), "exact")
    assert not cert.checks["disjoint"]["pass"]


def test_defect_ball_mode_catches_overlap():
    fam = f2_towers(D5)
    items = list(fam.items)
    a, g = items[0]
    items[0] = (union(a, ss.cone("b")), g)
    cert = verify_towers(_mutate(fam, items=items), "ball", 6)
    assert not cert.checks["disjoint"]["pass"]
    cex = cert.checks["disjoint"]["counterexample"]
    assert cex is not None and "word" in cex


# -- ball mode: the trie walk against the contains sweep

# (family, largest radius, a D element whose translates overlap in that ball)
WALK_FAMILIES = {
    "F2": (lambda: f2_towers(D5), 5, "AA"),
    "F2xZ2": (
        lambda: finite_normal_ext_towers(
            [("", "0"), ("a", "1"), ("A", "1")], cyclic_group(2)
        ),
        5,
        ("AB", "1"),
    ),
    "F2xF2": (lambda: extension_towers([("a", "b"), ("A", "B")]), 3, ("A", "A")),
    "F3": (lambda: union_towers(D5), 5, "AA"),
}


def _seeded_defects(fam: TowerFamily, extra_d) -> dict:
    (a0, g0), (a1, g1) = fam.items[:2]
    last = fam.n - 1

    def mutated(d_set=fam.d_set, items=fam.items, cover_groups=fam.cover_groups):
        return TowerFamily(
            fam.kind, d_set, items, k_group=fam.k_group, cover_groups=cover_groups
        )

    return {
        "as built": fam,
        "duplicated tower": mutated(items=fam.items + [fam.items[0]]),
        "dropped tower": mutated(
            items=fam.items[:-1],
            cover_groups=[[i for i in g if i != last] for g in fam.cover_groups],
        ),
        "swapped covering element": mutated(items=[(a0, g1), (a1, g0)] + fam.items[2:]),
        "extra D element": mutated(d_set=fam.d_set + [extra_d]),
    }


@pytest.mark.parametrize("group", sorted(WALK_FAMILIES))
def test_ball_walk_matches_sweep(group):
    build, max_radius, extra_d = WALK_FAMILIES[group]
    for name, fam in _seeded_defects(build(), extra_d).items():
        for r in range(max_radius + 1):
            cert = verify_towers(fam, "ball", r)
            assert cert.checks == _sweep_ball(fam, r), (name, r)
        # every seeded defect shows in the largest ball
        assert cert.passed == (name == "as built"), name


def _longest_key(fam: TowerFamily) -> int:
    """Longest base or word among the normal forms of the translates d·A_i
    and g_i·A_i."""
    moved = [a.translate(d) for a, _ in fam.items for d in fam.d_set]
    moved += [a.translate(g) for a, g in fam.items]
    pieces = []
    for s in moved:
        if isinstance(s, ProductSubset):
            pieces += s.slices.values()
        else:
            pieces.append(s.base if isinstance(s, CosetSliceSubset) else s)
    return max(p.normal_form().depth() for p in pieces)


@pytest.mark.parametrize("group", ["F2", "F2xZ2", "F3"])
def test_exact_walk_matches_sweep_past_the_longest_key(group):
    # one ball past the longest key every membership pattern has occurred
    build, _, extra_d = WALK_FAMILIES[group]
    for name, fam in _seeded_defects(build(), extra_d).items():
        cert = verify_towers(fam, "exact")
        assert cert.checks == _sweep_ball(fam, _longest_key(fam) + 1), name
        assert cert.passed == (name == "as built"), name


def _small_f2xf2_family(rng: random.Random) -> TowerFamily:
    """A random F2 x F2 family of 1-3 rectangles of cones, cones with words
    and finite sets, with movers and D elements of length at most 1."""

    def factor():
        kind = rng.randrange(3)
        if kind == 2:
            return ss.finite([_random_word(rng, rng.randint(0, 2)) for _ in range(rng.randint(1, 3))])
        s = ss.cone(_random_word(rng, rng.randint(0, 2)))
        return union(s, ss.finite([_random_word(rng, rng.randint(0, 2))])) if kind else s

    def elem():
        return (_random_word(rng, rng.randint(0, 1)), _random_word(rng, rng.randint(0, 1)))

    items = [(ProductF2Subset(factor(), factor()), elem()) for _ in range(rng.randint(1, 3))]
    return TowerFamily("F2xF2", sorted({elem() for _ in range(rng.randint(1, 2))}), items)


def test_exact_f2xf2_matches_the_sweep_at_its_counterexample():
    # F2 x F2's ball order is lexicographic in (u, v), so the first
    # counterexample (u, v) in the group is the first in the ball of radius
    # max(|u|, |v|); a check that passes passes on every ball
    rng = random.Random("towers/f2xf2-exact")
    verdicts = set()
    for t in range(200):
        fam = _small_f2xf2_family(rng)
        for name, check in verify_towers(fam, "exact").checks.items():
            cex = check["counterexample"]
            r = 3 if cex is None else max(len(x) for x in cex["word"])
            assert check == _sweep_ball(fam, r)[name], (t, name)
            verdicts.add((name, check["pass"]))
    assert len(verdicts) == 4


def test_exact_mode_takes_many_rectangles():
    # 6 × 6 rectangles from three copies of the factor towers of F = {(a, b)}:
    # D1 = {e, a, A} and D2 = {e}
    firsts, seconds = more_towers(["", "A", "a"], 3).items, more_towers([""], 3).items
    items = [(ProductF2Subset(a, b), (g, k)) for a, g in firsts for b, k in seconds]
    fam = TowerFamily("F2xF2", [("", ""), ("A", "B"), ("a", "b")], items)
    assert fam.n == 36
    assert verify_towers(fam, "exact").passed
    cert = verify_towers(_mutate(fam, items=fam.items + [fam.items[5]]), "exact")
    assert not cert.checks["disjoint"]["pass"]
    cex = cert.checks["disjoint"]["counterexample"]
    assert (cex["i"], cex["i2"]) == (5, 36) and cex["d"] == cex["d2"]
    moved = fam.items[5][0].translate(tuple(cex["d"]))
    assert moved.contains(tuple(cex["word"]))
    assert cert.checks["cover"]["pass"]


# -- F2 x K families: decided by their factors


def _label_by_label(family: TowerFamily, radius) -> dict:
    """The F2 x K checks as they were before families were decided by their
    factors: each translate built whole, and one walk over its slices at
    every label."""

    def first_elements(sets) -> dict:
        out: dict = {}
        for li, lbl in enumerate(family.k_group.elements):
            forms = [_nf_pair(s.slices[lbl]) for s in sets]
            for pattern, w in prefix.first_by_pattern(forms, radius).items():
                key = (ball_key(w), li)
                if pattern not in out or key < out[pattern][0]:
                    out[pattern] = (key, (w, lbl))
        return out

    owners = towers._owners(family)
    moved = [family.items[i][0].translate(family.d_set[di]) for di, i in owners]
    clashes = [
        (key, w, sorted(pattern))
        for pattern, (key, w) in first_elements(moved).items()
        if len(pattern) > 1
    ]
    clash = None
    if clashes:
        _, w, hits = min(clashes)
        clash = (w, owners[hits[0]], owners[hits[1]])
    bare = None
    for group_no, idxs in enumerate(family.cover_groups):
        covers = [a.translate(g) for a, g in (family.items[i] for i in idxs)]
        first = first_elements(covers).get(frozenset())
        if first is not None:
            bare = (first[1], group_no)
            break
    return towers._ball_checks(family, clash, bare)


def _nf_pair(s):
    nf = s.normal_form()
    return nf.words, nf.cones


def _assembled(k, e_set, d_words) -> TowerFamily:
    """The product family of ``build_comparison``: copy j of the indexed
    towers on D^2 placed on colour class j of K, with D = F·F for
    F = D0 x E."""
    e2 = sorted({k.mul(a, b) for a in e_set for b in e_set})
    m = len({k.mul(a, b) for a in e2 for b in e2})
    coloring = greedy_color(k, e2)
    assert coloring.m == m
    classes = [coloring.color_class(j + 1) for j in range(m)]
    d2 = sorted({multiply(u, v) for u in d_words for v in d_words}, key=lambda w: (len(w), w))
    base = more_towers(d2, m)
    items = []
    for j, idxs in enumerate(base.cover_groups):
        for i in idxs:
            a, g = base.items[i]
            items.append((ProductSubset(k, {lbl: a for lbl in classes[j]}), (g, k.identity)))
    group = F2xKGroup(k)
    f = [(h, e) for h in d_words for e in e_set]
    return TowerFamily(
        "F2xK",
        sorted({group.mul(u, v) for u in f for v in f}),
        items,
        k_group=k,
        cover_groups=[list(range(len(items)))],
    )


def _rectangle_families(order: int, seed: int) -> dict:
    """Seeded F2 x Z/order rectangle families from both builders, each with
    its seeded defects and with a family whose first set is not a
    rectangle."""
    rng = random.Random(f"rectangles/{order}/{seed}")
    k = cyclic_group(order)
    x = rng.choice(LETTERS)
    labels = list(k.elements)
    f_set = [("", "0")] + [(w, rng.choice(labels)) for w in (x, inverse(x))]
    e_choices = [labels, ["0"], sorted({"0", "1", str(order - 1)})]
    built = {
        "ext": finite_normal_ext_towers(f_set, k),
        "assembled": _assembled(k, e_choices[seed % 3], ["", x, inverse(x)]),
    }
    out = {}
    for name, fam in built.items():
        (a0, g0), (a1, _) = fam.items[:2]
        held = [lbl for lbl, t in a0.slices.items() if not t.nf.is_empty()]
        sole = a0.slices[held[0]]
        other = next(t for t in a1.slices.values() if not t.nf.is_empty())
        out[f"{name} as built"] = fam
        free = next((lbl for lbl in labels if lbl not in held), None)
        if free is not None:
            # the first tower's set also on a label of another colour class
            out[f"{name}: a label in two classes"] = _mutate(
                fam,
                items=[(ProductSubset(k, {**a0.slices, free: sole}), g0)] + fam.items[1:],
            )
            # another set on that label: two rectangle pieces
            out[f"{name}: two slices"] = _mutate(
                fam,
                items=[(ProductSubset(k, {**a0.slices, free: other}), g0)] + fam.items[1:],
            )
        out[f"{name}: duplicated tower"] = _mutate(fam, items=fam.items + [fam.items[0]])
        out[f"{name}: cover group missing a tower"] = TowerFamily(
            "F2xK", fam.d_set, fam.items, k_group=k,
            cover_groups=[g[1:] for g in fam.cover_groups],
        )
    return out


# the seeded defects every family must fail; in the translates of the
# finite_normal_ext_towers family no two D elements share an F2 part, so a
# second label of one tower meets no other translate there
MUST_FAIL = (
    "duplicated tower", "cover group missing a tower", "assembled: a label in two classes",
)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_rectangles_by_factors_match_the_label_by_label_walk(order, seed):
    for name, fam in _rectangle_families(order, seed).items():
        exact = verify_towers(fam, "exact").checks
        assert exact == _label_by_label(fam, None), name
        passed = all(c["pass"] for c in exact.values())
        assert passed or not name.endswith("as built"), name
        assert not passed or not name.endswith(MUST_FAIL), name
        for r in range(6):
            assert verify_towers(fam, "ball", r).checks == _label_by_label(fam, r), (name, r)


# one seed per order, so that each choice of E is swept once
@pytest.mark.parametrize("order, seed", [(2, 0), (3, 2), (4, 1)])
def test_rectangles_by_factors_match_the_sweep(order, seed):
    for name, fam in _rectangle_families(order, seed).items():
        for r in range(6):
            assert verify_towers(fam, "ball", r).checks == _sweep_ball(fam, r), (name, r)


def test_product_families_take_one_walk_per_check(monkeypatch):
    walks = []
    real = prefix.first_by_pattern
    monkeypatch.setattr(prefix, "first_by_pattern", lambda *a: walks.append(1) or real(*a))
    families = _rectangle_families(4, 0)
    assert sum(name.endswith("two slices") for name in families) == 2
    for name, fam in families.items():
        walks.clear()
        verify_towers(fam, "exact")
        # one F2 walk for disjointness and one for the cover, not one per
        # label, whether or not the sets are rectangles
        assert len(walks) <= 2, name


def _checks(fam: TowerFamily, radius) -> dict:
    mode = "exact" if radius is None else "ball"
    return verify_towers(fam, mode, radius).checks


# -- the clash scan: a passing clash check takes no walk, a failing one the
# walk that names the first element in two translates


def _clash_check(monkeypatch, fam: TowerFamily, radius):
    """The clash check's (element, positions) or None, and the number of
    walks it took: the scan on D's factors, then the rows."""
    walks = []
    real = prefix.first_by_pattern
    with monkeypatch.context() as m:
        m.setattr(prefix, "first_by_pattern", lambda *a: walks.append(1) or real(*a))
        placed = [(fam.d_set[di], i) for di, i in towers._owners(fam)]
        hit = None
        if not towers._disjoint_by_factors(fam):
            hit = towers._first_hit(fam, placed, radius, clash=True)
    return hit, len(walks)


@pytest.mark.parametrize("radius", [None, 4])
def test_a_passing_clash_check_takes_no_walk(monkeypatch, radius):
    families = {"F2 more_towers": more_towers(D5, 3), "F3": union_towers(D5)}
    for order in (2, 3, 4):
        for name, fam in _rectangle_families(order, 0).items():
            if name.endswith("as built"):
                families[f"Z/{order} {name}"] = fam
    families["F2xF2"] = extension_towers([("a", "b"), ("A", "B")])
    for name, fam in families.items():
        assert verify_towers(fam, "exact").passed, name
        # the factors decide every passing check but F2 x F2's, which walks
        # its second factors for its labels and then its first factors
        walks = 2 if fam.kind == "F2xF2" else 0
        assert _clash_check(monkeypatch, fam, radius) == (None, walks), name


@pytest.mark.parametrize("group", ["F2", "F2xZ2", "F3", "F2xF2"])
def test_a_failing_clash_check_walks_to_the_sweep_counterexample(monkeypatch, group):
    build, max_radius, extra_d = WALK_FAMILIES[group]
    # F2 x F2 first walks its second factors, for its labels
    walks_taken = 2 if group == "F2xF2" else 1
    failing = []
    for name, fam in _seeded_defects(build(), extra_d).items():
        want = _sweep_ball(fam, max_radius)["disjoint"]
        if want["pass"]:
            continue
        failing.append(name)
        hit, walks = _clash_check(monkeypatch, fam, max_radius)
        assert hit is not None and walks == walks_taken, name
        assert verify_towers(fam, "ball", max_radius).checks["disjoint"] == want, name
    assert "duplicated tower" in failing


def _scan_families() -> dict:
    """Seeded families whose clash checks the scan decides or hands to the
    walk: F2 sets of several cones, F2 sets with words, F2 x Z/3 families
    with one form at one label of two translates, and an F2 family whose
    only overlap lies at length 5."""
    rng = random.Random("towers/scan")
    out = {}
    for t in range(16):
        d_set = ["", _random_word(rng, rng.randint(1, 3))]
        items = []
        for _ in range(2):
            s = ss.cone(_random_word(rng, rng.randint(3, 5)))
            for _ in range(rng.randint(1, 2)):
                s = union(s, ss.cone(_random_word(rng, rng.randint(3, 6))))
            items.append((s, _random_word(rng, 2)))
        out[f"F2 bases {t}"] = TowerFamily("F2", d_set, items)
        (a, g), rest = items[0], items[1:]
        with_words = (union(a, ss.finite([_random_word(rng, rng.randint(0, 3))])), g)
        out[f"F2 words {t}"] = TowerFamily("F2", d_set, [with_words] + rest)
    k = cyclic_group(3)
    a = union(ss.cone("ab"), ss.cone("Ba"))
    # (e, "1")·A0 and (e, "2")·A1 hold A at label "1" both
    items = [
        (ProductSubset(k, {"0": a, "2": ss.cone("bb")}), ("", "0")),
        (ProductSubset(k, {"2": a}), ("", "0")),
    ]
    out["F2xZ3 one form twice at a label"] = TowerFamily(
        "F2xK", [("", "0"), ("", "1"), ("", "2")], items, k_group=k
    )
    out["F2xZ3 one form at two labels"] = TowerFamily("F2xK", [("", "0")], items, k_group=k)
    # a word in both translates at label "0", and none of their cones meet
    items = [
        (ProductSubset(k, {"0": union(ss.finite(["ab"]), ss.cone(h))}), ("", "0"))
        for h in ("aa", "bb")
    ]
    out["F2xZ3 words"] = TowerFamily("F2xK", [("", "0")], items, k_group=k)
    out["F2 overlap at length 5"] = TowerFamily(
        "F2", [""], [(ss.cone("ab"), ""), (ss.cone("abaab"), "")]
    )
    return out


def test_a_tower_placed_twice_fails_the_exact_check():
    # a copy's translates meet the original's, and the counterexample lies
    # in the two translates it names
    fam = more_towers(D5, 2)
    twice = _mutate(fam, items=fam.items + [fam.items[1]])
    assert verify_towers(fam, "exact").passed
    disjoint = verify_towers(twice, "exact").checks["disjoint"]
    assert not disjoint["pass"]
    c = disjoint["counterexample"]
    assert (c["d"], c["i"]) != (c["d2"], c["i2"])
    for d, i in ((c["d"], c["i"]), (c["d2"], c["i2"])):
        assert twice.items[i][0].contains(multiply(inverse(d), c["word"]))


@pytest.mark.parametrize("radius", [None, 2, 4])
def test_the_clash_scan_agrees_with_the_walk(monkeypatch, radius):
    families = _scan_families()
    decided = {name: towers._disjoint_by_factors(fam) for name, fam in families.items()}
    scanned = {name: _clash_check(monkeypatch, fam, radius) for name, fam in families.items()}
    # a family the scan decides takes no walk and passes the sweep; a
    # translate holding words is always left to the walk
    for name, fam in families.items():
        assert scanned[name][1] == (0 if decided[name] else 1), name
        if decided[name] and radius is not None:
            assert _sweep_ball(fam, radius)["disjoint"]["pass"], name
        assert not (decided[name] and "words" in name), name
    assert any(decided.values()) and not all(decided.values())
    # with no scan every clash check walks, to the same verdict
    monkeypatch.setattr(towers, "_disjoint_by_factors", lambda family: False)
    for name, fam in families.items():
        assert _clash_check(monkeypatch, fam, radius) == (scanned[name][0], 1), name
    verdicts = [hit is None for hit, _ in scanned.values()]
    assert any(verdicts) and not all(verdicts)
    assert scanned["F2xZ3 one form twice at a label"][0] is not None
    assert scanned["F2xZ3 one form at two labels"] == (None, 0)
    assert scanned["F2xZ3 words"][0] == (("ab", "0"), [0, 1])
    # the scan finds the overlap at length 5, and the walk passes the smaller balls
    first = None if radius is not None else ("abaab", [0, 1])
    assert scanned["F2 overlap at length 5"] == (first, 1)


@pytest.mark.parametrize("radius", [3, 5])
def test_a_walk_after_a_scan_matches_the_sweep(radius):
    # a walk after a scan that found meeting cones moves the forms again,
    # to their canonical forms
    for name, fam in _scan_families().items():
        assert verify_towers(fam, "ball", radius).checks == _sweep_ball(fam, radius), name


# -- the clash scan of an F2 family lifted to F2 x Z/2


def _lifted(fam: TowerFamily, placements) -> TowerFamily:
    """The F2 family's towers on F2 x Z/2, tower i at the labels of its
    placement, translated by D x {0}."""
    k = cyclic_group(2)
    items = [
        (ProductSubset(k, {lbl: fam.items[i][0] for lbl in labels}), (fam.items[i][1], "0"))
        for i, labels in placements
    ]
    return TowerFamily(
        "F2xK", [(d, "0") for d in fam.d_set], items, k_group=k,
        cover_groups=[list(range(len(items)))],
    )


def _sorts(monkeypatch) -> list:
    """A list that gets one entry per sorted scan of a clash check."""
    calls = []
    real = prefix.first_overlap
    monkeypatch.setattr(prefix, "first_overlap", lambda b: calls.append(1) or real(b))
    return calls


def test_a_tower_placed_twice_at_overlapping_labels_fails_the_clash_scan(monkeypatch):
    fam = more_towers(D5, 2)
    twice = _lifted(fam, [(0, ["0"]), (1, ["0"]), (0, ["0", "1"])])
    sorts = _sorts(monkeypatch)
    # tower 0's form comes twice at label 0, so the scan leaves the check to
    # the walk before it sorts any base
    assert not towers._disjoint_by_factors(twice) and not sorts
    checks = verify_towers(twice, "exact").checks
    # the walk names an element at label 0, in both translates it names, and
    # the sweep of the ball out to that element finds it first
    c = checks["disjoint"]["counterexample"]
    assert not checks["disjoint"]["pass"] and c["word"][1] == "0"
    group, w = twice.group, tuple(c["word"])
    for d, i in ((c["d"], c["i"]), (c["d2"], c["i2"])):
        assert twice.items[i][0].contains(group.mul(group.inv(tuple(d)), w))
    assert checks["disjoint"] == _sweep_ball(twice, len(c["word"][0]))["disjoint"]


def test_one_form_at_two_disjoint_labels_passes_the_clash_scan(monkeypatch):
    fam = more_towers(D5, 2)
    apart = _lifted(fam, [(0, ["0"]), (1, ["0"]), (0, ["1"]), (1, ["1"])])
    sorts = _sorts(monkeypatch)
    hit, walks = _clash_check(monkeypatch, apart, None)
    # one sorted scan of the moved bases, and no walk
    assert (hit, len(sorts), walks) == (None, 1, 0)
    assert verify_towers(apart, "exact").passed
    assert _sweep_ball(apart, 3)["disjoint"]["pass"]


# -- the clash check decided on D's factors: D = H × E, sets A × C


def _factor_families(order: int, seed: int) -> dict:
    """F2 x Z/order families whose clash check the factor rule decides, or
    hands to the row path, each keyed by the rule's verdict and a name: the
    lift of a more_towers family with one tower copy per label and
    D = D5 × K, and seeded changes to its D and its sets."""
    rng = random.Random(f"factors/{order}/{seed}")
    k = cyclic_group(order)
    labels = list(k.elements)
    fam = more_towers(D5, order)
    items = [
        (ProductSubset(k, {labels[j]: fam.items[i][0]}), (fam.items[i][1], "0"))
        for j, idxs in enumerate(fam.cover_groups)
        for i in idxs
    ]
    d_set = [(h, e) for h in D5 for e in labels]
    rng.shuffle(d_set)

    def family(d=d_set, sets=items):
        return TowerFamily("F2xK", d, sets, k_group=k, cover_groups=[list(range(len(sets)))])

    (a0, g0), (a1, g1) = items[:2]
    sole = a0.slices["0"]
    word = _random_word(rng, rng.randint(0, 3))
    dropped = rng.randrange(len(d_set))
    return {
        (True, "as built"): family(),
        # E_h is K for all but one word h
        (True, "a non-product D"): family(d=d_set[:dropped] + d_set[dropped + 1:]),
        (False, "D repeats an element at size |H|·|E|"): family(
            d=d_set[:dropped] + d_set[dropped + 1:] + [d_set[(dropped + 1) % len(d_set)]]
        ),
        # the second tower's set is the first one's, one label on: (h, e)
        # and (h, e - 1) place the same hA at label e
        (False, "two towers with equal slices"): family(
            sets=[(a0, g0), (ProductSubset(k, {"1": sole}), g1)] + items[2:]
        ),
        # with E = {0} the same slice at two labels meets nothing
        (True, "two towers with equal slices at E = {0}"): family(
            d=[(h, "0") for h in D5],
            sets=[(a0, g0), (ProductSubset(k, {"1": sole}), g1)] + items[2:],
        ),
        # the first two towers' slices meet in F2, at labels no e brings together
        (False, "meeting slices at disjoint labels, E = {0}"): family(
            d=[(h, "0") for h in D5],
            sets=[(a0, g0), (ProductSubset(k, {"1": union(a1.slices["0"], sole)}), g1)]
            + items[2:],
        ),
        (False, "a slice that holds words"): family(
            sets=[(ProductSubset(k, {"0": union(sole, ss.finite([word]))}), g0)] + items[1:]
        ),
        # e·{0, 1} and e'·{0, 1} share a label when e' = e ± 1
        (False, "label sets that overlap under some e"): family(
            sets=[(ProductSubset(k, {"0": sole, "1": sole}), g0)] + items[1:]
        ),
    }


@pytest.mark.parametrize("order, seed", [(2, 0), (3, 1), (4, 2)])
def test_the_factored_check_matches_the_row_path(monkeypatch, order, seed):
    families = _factor_families(order, seed)
    factored = {
        name: [verify_towers(fam, mode, r).checks for mode, r in (("exact", None), ("ball", 4))]
        for name, fam in families.items()
    }
    for (decided, name), fam in families.items():
        assert towers._disjoint_by_factors(fam) == decided, name
    # the built family passes, and some of the changed ones clash
    assert factored[True, "as built"][0]["disjoint"]["pass"]
    assert not all(c[0]["disjoint"]["pass"] for c in factored.values())
    monkeypatch.setattr(towers, "_disjoint_by_factors", lambda family: False)
    for key, fam in families.items():
        rows = [verify_towers(fam, mode, r).checks for mode, r in (("exact", None), ("ball", 4))]
        assert factored[key] == rows, key


def test_the_factored_check_matches_the_sweep():
    for (_, name), fam in _factor_families(2, 3).items():
        assert verify_towers(fam, "ball", 3).checks == _sweep_ball(fam, 3), name


def test_translate_bases_match_the_moved_forms():
    # the pieces the clash scan reads for x·A against the normal forms of
    # the translates: cones moved by words that cancel none, some or all of
    # the base, the whole group, forms with several bases or with words, and
    # moved forms y·A.  The pieces are disjoint cones, so an antichain; they
    # need not be canonical, but as cylinders they are the form's, and they
    # are its bases when x·A holds no word
    rng = random.Random("towers/translate-bases")
    sets = [
        ss.cone("ab"), ss.cone("aBa"), ss.cone("A"), ss.cone(""),
        union(ss.cone("ab"), ss.cone("Ba")), union(ss.cone("ab"), ss.finite(["b"])),
    ]
    for a in sets:
        for _ in range(40):
            y = _random_word(rng, rng.randint(0, 3))
            a_y = a.translate(y) if rng.random() < 0.5 else a
            form = towers._form(a_y)
            for x in [_random_word(rng, rng.randint(0, 4)) for _ in range(4)]:
                nf = a_y.translate(x).normal_form()
                assert towers._moved(x, form) == (nf.words, nf.cones), (a, y, x)
                words, pieces = prefix.translate(x, *form)
                assert prefix.first_overlap((b, k) for k, b in enumerate(pieces)) is None
                assert prefix.canonical(None, pieces) == prefix.canonical(None, nf.cones)
                if not words:
                    assert not nf.words and frozenset(pieces) == nf.cones, (a, y, x)
    # a cone moved by a word ending with its base's inverse holds words, and
    # the scan leaves it to the walk
    assert prefix.translate("BA", *towers._form(ss.cone("ab")))[0]
    alone = TowerFamily("F2", ["BA"], [(ss.cone("ab"), "")])
    assert not towers._disjoint_by_factors(alone)
    assert verify_towers(alone, "exact").checks["disjoint"]["pass"]


def test_disjoint_translates_match_the_full_products():
    rng = random.Random("disjoint-translates")
    cases = []
    for _ in range(30):
        d_set = [_random_word(rng, rng.randint(0, 4)) for _ in range(rng.randint(1, 12))]
        cases.append((d_set, rng.randint(1, 5)))
    cases += [([], 3), ([""], 4), (list(ball(2)), 3), (["a", "a", "ab"], 3)]
    for d_set, count in cases:
        want = oracles.disjoint_translates(d_set, count)
        assert towers.disjoint_translates(d_set, count) == want, (d_set, count)


def test_ball_walk_cost_does_not_grow_with_radius():
    fam = more_towers(D5, 2)
    for r in (12, 1000, 10**6):
        assert verify_towers(fam, "ball", r).passed
    items = list(fam.items)
    items[1] = items[0]
    cert = verify_towers(_mutate(fam, items=items), "ball", 10**6)
    assert not cert.checks["disjoint"]["pass"]
    assert not cert.checks["cover"]["pass"]


def test_ball_mode_rejects_bad_radius():
    fam = f2_towers(D5)
    for radius in ("12", 12.0, True, -1, None):
        with pytest.raises(ValueError):
            verify_towers(fam, "ball", radius)


def test_sweep_counts_the_ball_before_enumerating():
    groups = (F2Group(), F3Group(), F2xKGroup(cyclic_group(3)), F2xF2Group())
    for group in groups:
        for r in range(4):
            assert group.ball_size(r) == len(group.ball(r)), (group.kind, r)
        e = group.identity
        for g in group.ball(2):
            assert group.mul(e, g) == g == group.mul(g, e), (group.kind, g)
            assert group.mul(g, group.inv(g)) == e, (group.kind, g)
            assert group.elem_from_json(json.loads(json.dumps(group.elem_json(g)))) == g
        assert group_from_json(group.to_json()).to_json() == group.to_json()
    for bad in ({"kind": "F4"}, {"kind": "F2xK"}, {}):
        with pytest.raises(ValueError):
            group_from_json(bad)


def test_product_subset_builds_no_empty_slices(monkeypatch):
    calls = []
    real = ss.empty_set
    monkeypatch.setattr(ss, "empty_set", lambda: calls.append(1) or real())
    k = cyclic_group(3)
    ProductSubset(k, {e: ss.cone("a") for e in k.elements})
    assert calls == []
    # missing slices share one empty set
    p = ProductSubset(k, {"0": ss.cone("a")})
    assert calls == []
    assert p.slices["1"] is p.slices["2"] and p.slices["1"].nf.is_empty()


# -- orbit-preimage families: the boundary check against the contains sweep


def _random_word(rng: random.Random, length: int) -> str:
    w = ""
    while len(w) < length:
        y = rng.choice(LETTERS)
        if not w or y != inverse(w[-1]):
            w += y
    return w


def _filling_defects(seed: int) -> dict:
    """A filling family on a random symmetric D and its seeded defects."""
    rng = random.Random(seed)
    x = _random_word(rng, rng.randint(1, 2))
    d_set = {"", x, inverse(x)}
    if seed % 2:
        y = _random_word(rng, 1)
        d_set |= {y, inverse(y)}
    fam = towers_from_filling(sorted(d_set, key=lambda w: (len(w), w)), n=2 + seed % 3)
    z = fam.items[0][0].point
    k = rng.randrange(fam.n)
    cylinder = ss.OrbitPreimage(z, ClopenSet.cylinder(_random_word(rng, rng.randint(1, 3))))
    return {
        "as built": fam,
        "duplicated tower": _mutate(fam, items=fam.items + [fam.items[0]]),
        "random movers": _mutate(
            fam, items=[(a, _random_word(rng, rng.randint(0, 3))) for a, _ in fam.items]
        ),
        "random cylinder": _mutate(
            fam, items=fam.items[:k] + [(cylinder, fam.items[k][1])] + fam.items[k + 1:]
        ),
    }


def _assert_exact_counterexamples(fam: TowerFamily, checks: dict) -> None:
    """A disjointness word lies in both translates it names, a cover word
    in no covering translate of its cover group."""
    clash = checks["disjoint"]["counterexample"]
    if clash is not None:
        assert (clash["d"], clash["i"]) != (clash["d2"], clash["i2"])
        for d, i in ((clash["d"], clash["i"]), (clash["d2"], clash["i2"])):
            assert fam.items[i][0].contains(multiply(inverse(d), clash["word"]))
    bare = checks["cover"]["counterexample"]
    if bare is not None:
        for i in fam.cover_groups[bare["cover_group"]]:
            a, g = fam.items[i]
            assert not a.contains(multiply(inverse(g), bare["word"]))


@pytest.mark.parametrize("seed", range(8))
def test_filling_checks_match_sweep(seed):
    for name, fam in _filling_defects(seed).items():
        exact = verify_towers(fam, "exact")
        # a random mover or cylinder may still leave a tower family
        if name in ("as built", "duplicated tower"):
            assert exact.passed == (name == "as built"), name
        _assert_exact_counterexamples(fam, exact.checks)
        for r in range(7):
            sweep = _sweep_ball(fam, r)
            assert verify_towers(fam, "ball", r).checks == sweep, (name, r)
            # a check that fails on a ball fails on the boundary
            for check, result in sweep.items():
                assert result["pass"] or not exact.checks[check]["pass"], (name, r, check)


def test_filling_ball_mode_needs_no_sweep(monkeypatch):
    fam = towers_from_filling(["", "a", "A"])

    def no_sweep(family, radius):
        raise AssertionError("swept the ball")

    monkeypatch.setattr(towers, "_ball_of", no_sweep)
    for r in (8, 10**6):
        assert verify_towers(fam, "ball", r).passed
    broken = _mutate(fam, items=fam.items + [fam.items[0]])
    with pytest.raises(AssertionError, match="swept"):
        verify_towers(broken, "ball", 8)


def _identity_mover(fam: TowerFamily) -> TowerFamily:
    """The filling family with its second covering element set to the
    identity: the translates stay disjoint, and the cover misses [B]."""
    items = list(fam.items)
    items[1] = (items[1][0], "")
    return _mutate(fam, items=items)


def test_ball_mode_sweeps_a_failing_check_only_to_its_boundary_word(monkeypatch):
    fam = _identity_mover(towers_from_filling(["", "a", "A"]))
    radii = []
    ball_of = towers._ball_of
    monkeypatch.setattr(towers, "_ball_of", lambda f, r: radii.append(r) or ball_of(f, r))
    start = time.perf_counter()
    checks = verify_towers(fam, "ball", 14).checks
    assert time.perf_counter() - start < 1
    assert checks["disjoint"] == {"pass": True, "counterexample": None}
    assert checks["cover"]["counterexample"] == {"word": "B", "cover_group": 0}
    assert radii == [1]


@pytest.mark.parametrize("seed", range(2))
def test_ball_mode_on_failing_filling_families_matches_the_full_sweep(seed):
    defects = _filling_defects(seed)
    families = {"identity mover": _identity_mover(defects.pop("as built")), **defects}
    failing = 0
    for name, fam in families.items():
        exact = verify_towers(fam, "exact")
        if exact.passed:
            continue
        failing += 1
        for r in range(9):
            assert verify_towers(fam, "ball", r).checks == _sweep_ball(fam, r), (name, r)
    assert failing >= 2


def test_towers_from_filling_refuses_a_repeated_element():
    # a repeated element never separates from itself
    for d_set, named in ((["", "", "a"], "''"), (["a", "A", "aAa"], "'a'")):
        with pytest.raises(ValueError, match=f"repeats the reduced element {named}"):
            towers_from_filling(d_set)


# boundary points, and whether a word of the radius-6 ball fixes their
# length-40 prefix; some are translates, so that a fixing word may cancel
POINTS = [
    (AperiodicPoint(), False),
    (PeriodicPoint("", "ab"), True),
    (TranslatedPoint("b", PeriodicPoint("", "ab")), True),
    (TranslatedPoint("BA", PeriodicPoint("", "ab")), True),
    (PeriodicPoint("", "a"), True),
    (PeriodicPoint("B", "aab"), True),
    (TranslatedPoint("aB", PeriodicPoint("", "abAB")), True),
    (TranslatedPoint("Ab", PeriodicPoint("bb", "aBB")), False),
    (PeriodicPoint("aab", "aBB"), False),
]


@pytest.mark.parametrize("k", range(len(POINTS)))
def test_fixing_word_names_the_first_fixing_word_of_the_ball(k):
    z, fixed = POINTS[k]
    assert towers.fixing_word(z) == oracles.fixing_word(z)
    assert (towers.fixing_word(z) is not None) == fixed


def test_filling_towers_match_the_full_searches(monkeypatch):
    # 51 seeded D of 1-17 distinct words of length at most 3, n = 2-4: the
    # same movers, neighborhoods and sets as the ball scan and the pairwise
    # orbit comparison give
    cases = []
    for seed in range(51):
        rng = random.Random(seed)
        d_set = set()
        while len(d_set) < 1 + seed % 17:
            d_set.add(_random_word(rng, rng.randint(0, 3)))
        d_list = sorted(d_set, key=ball_key)
        cases.append((d_list, 2 + seed % 3, towers_from_filling(d_list, 2 + seed % 3).to_json()))
    monkeypatch.setattr(towers, "fixing_word", oracles.fixing_word)
    monkeypatch.setattr(towers, "orbit_movers", oracles.orbit_movers)
    for d_list, n, built in cases:
        assert towers_from_filling(d_list, n).to_json() == built, (d_list, n)


def test_filling_searches_translate_few_prefixes(monkeypatch):
    # the stabilizer check tests at most 28 words, and the orbit search
    # moves at most |D| + 1 prefixes per candidate: no ball scan, no D × D
    moved = []
    monkeypatch.setattr(towers, "multiply", lambda u, v: moved.append(u) or multiply(u, v))
    for z, _ in POINTS:
        moved.clear()
        towers.fixing_word(z)
        assert len(moved) <= 28
    tried = []
    words = towers.fw.enumerate_words
    monkeypatch.setattr(towers.fw, "enumerate_words", lambda: (tried.append(w) or w for w in words()))
    d_list = list(ball(2))
    moved.clear()
    assert towers.orbit_movers(AperiodicPoint(), d_list, 3) == ["", "aaaaa", "aaaab"]
    assert len(tried) > 100
    assert len(moved) <= (len(d_list) + 1) * len(tried)


def test_an_exhausted_orbit_search_says_how_far_it_got(monkeypatch):
    monkeypatch.setattr(towers.fw, "enumerate_words", lambda: iter(["", "a", "A", "b"]))
    with pytest.raises(towers.SearchExhausted) as info:
        towers_from_filling(["", "a", "A"], n=3)
    assert str(info.value) == (
        "found only 2 of 3 orbit points with disjoint D-translates up to radius 1"
    )


def test_an_exhausted_neighborhood_search_names_its_cap_and_first_clash(monkeypatch):
    # the neighborhoods of D = {e, a, A} separate at depth 5
    monkeypatch.setattr(towers, "NEIGHBORHOOD_DEPTH", 4)
    with pytest.raises(towers.SearchExhausted) as info:
        towers_from_filling(["", "a", "A"])
    assert str(info.value) == (
        "could not separate neighborhoods by depth 4: ''·A_0 and 'a'·A_1 meet at 'ababa'"
    )
    monkeypatch.setattr(towers, "NEIGHBORHOOD_DEPTH", 5)
    assert towers_from_filling(["", "a", "A"]).notes["neighborhoods"][0] == "ababb"


def test_exact_counterexample_when_the_first_base_ends_in_the_inverse_of_z1():
    # z = a^∞ and A·z = z: the word for [A] must leave z's A-orbit line
    z = PeriodicPoint("", "a")
    fam = TowerFamily(
        "F2",
        [""],
        [(ss.OrbitPreimage(z, ClopenSet.cylinder("A")), "")] * 2
        + [(ss.OrbitPreimage(z, ClopenSet.cylinder("A").complement()), "")],
        cover_groups=[[2]],
    )
    checks = verify_towers(fam, "exact").checks
    assert checks["disjoint"]["counterexample"] == {
        "word": "Ab", "d": "", "i": 0, "d2": "", "i2": 1,
    }
    assert checks["cover"]["counterexample"] == {"word": "Ab", "cover_group": 0}
    _assert_exact_counterexamples(fam, checks)
    # the first base alone is no counterexample: A·z = z
    assert fam.items[2][0].contains("A") and not fam.items[0][0].contains("A")


def _mixed_families() -> dict:
    fam = towers_from_filling(["", "a", "A"])
    (a0, g0), (a1, g1) = fam.items
    k2 = ProductClopen.uniform(cyclic_group(2), a1.clopen)
    rect = extension_towers([("a", "b")])
    (r0, h0), *rest = rect.items
    return {
        "a cone beside an orbit preimage": _mutate(fam, items=[(a0, g0), (ss.cone("b"), g1)]),
        "two points": _mutate(
            fam, items=[(a0, g0), (ss.OrbitPreimage(PeriodicPoint("", "ab"), a1.clopen), g1)]
        ),
        "a product clopen": _mutate(fam, items=[(a0, g0), (ss.OrbitPreimage(a1.point, k2), g1)]),
        "an F2 x F2 orbit factor": _mutate(
            rect, items=[(ProductF2Subset(a0, r0.second), h0)] + rest
        ),
    }


@pytest.mark.parametrize("name", sorted(_mixed_families()))
def test_mixed_orbit_families_still_sweep(name):
    fam = _mixed_families()[name]
    assert towers._boundary_checks(fam) is None
    with pytest.raises(ss.NotNormalizable, match="exact mode unavailable"):
        verify_towers(fam, "exact")
    if name != "a product clopen":
        assert verify_towers(fam, "ball", 2).checks == _sweep_ball(fam, 2)
