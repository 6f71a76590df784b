import itertools
import json

import pytest

import paratower.subsets as ss
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
    f2_strengthened_towers,
    f2_towers,
    finite_normal_ext_towers,
    more_towers,
    towers_from_filling,
    union_towers,
    verify_towers,
)
from paratower.words import ball, inverse, multiply

D5 = ["", "a", "A", "b", "B"]


def test_strengthened_towers_structure():
    t = f2_strengthened_towers(D5)
    assert t.m == 1
    assert t.bases == ["aaba", "aabA", "aabb"]
    comps = t.complements()
    # each covering misses exactly one depth-1 cone, pairwise disjoint
    assert [sorted(nf.cones) for nf in comps] == [["A"], ["a"], ["B"]]
    for x, y in itertools.combinations(comps, 2):
        assert x.inter(y).is_empty()


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
    with pytest.raises(Exception):
        verify_towers(fam, "exact")


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
    items[0] = (a | ss.cone("ba"), g)
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
    items[0] = (a | ss.cone("b"), g)
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
