import pytest

from paratower.coloring import greedy_color
from paratower.groups import cyclic_group


def periodic_color_z(e_set):
    """Closed-form proper coloring of the integers: k mod |E^2|.

    Independent of the greedy path; used as a cross-check oracle.  Valid
    whenever no nonzero offset in E^2 is divisible by |E^2|, which holds
    for interval generating sets like {-1, 0, 1}.
    """
    e = sorted(int(x) for x in e_set)
    offsets = {a + b for a in e for b in e}
    m = len(offsets)
    if any(g != 0 and g % m == 0 for g in offsets):
        raise ValueError("mod-m coloring is not proper for this E")
    return lambda k: (int(k) % m) + 1


def test_z_interval_set_colors_and_properness():
    c = greedy_color("Z", [-1, 0, 1])
    assert c.e_squared == [-2, -1, 0, 1, 2]
    assert c.m == 5
    window = range(-500, 501)
    assert c.is_proper_on(window)
    assert {c.color_of(k) for k in window} <= set(range(1, 6))


def test_z_agrees_with_mod_oracle_properness():
    # independent closed-form coloring; both must be proper on the window
    oracle = periodic_color_z([-1, 0, 1])
    c = greedy_color("Z", [-1, 0, 1])
    for k in range(-200, 201):
        for g in (-2, -1, 1, 2):
            assert oracle(k) != oracle(k + g)
            assert c.color_of(k) != c.color_of(k + g)


def test_mod_oracle_rejects_bad_sets():
    with pytest.raises(ValueError):
        # offsets {-4,...,4} contain 0 mod 9? no; craft one that fails:
        # E = {-3, 0, 3} gives offsets {-6,-3,0,3,6}, m = 5 does not divide
        # any of them, so use E = {-2, -1, 0, 1, 2} whose offsets contain 4
        # and m = 9 ... instead force it directly with {0, 5, -5}
        periodic_color_z([0, 5, -5])


def test_z_lazy_extension_is_stable():
    c = greedy_color("Z", [-1, 0, 1])
    first = c.color_of(1000)
    # querying far negatives must not change earlier assignments
    c.color_of(-5000)
    assert c.color_of(1000) == first


def test_z2_with_full_e_gives_singletons():
    k = cyclic_group(2)
    c = greedy_color(k, ["0", "1"])
    assert c.m == 2
    assert c.color_class(1) == {"0"}
    assert c.color_class(2) == {"1"}
    assert c.is_proper_on(k.elements)


def test_finite_group_validation():
    k = cyclic_group(3)
    with pytest.raises(ValueError):
        greedy_color(k, ["1"])  # missing identity
    with pytest.raises(ValueError):
        greedy_color(k, ["0", "1"])  # not symmetric


def test_color_class_partitions_finite_group():
    k = cyclic_group(5)
    c = greedy_color(k, ["0", "1", "4"])
    seen = set()
    for j in range(1, c.m + 1):
        cls = c.color_class(j)
        assert seen.isdisjoint(cls)
        seen |= cls
    assert seen == set(k.elements)
    with pytest.raises(IndexError):
        c.color_class(0)


def test_translation_freeness_of_classes():
    # e·B and e'·B are disjoint for distinct e, e' in E
    k = cyclic_group(5)
    e_set = ["0", "1", "4"]
    c = greedy_color(k, e_set)
    for j in range(1, c.m + 1):
        cls = c.color_class(j)
        for e in e_set:
            for f in e_set:
                if e == f:
                    continue
                moved_e = {k.mul(e, x) for x in cls}
                moved_f = {k.mul(f, x) for x in cls}
                assert moved_e.isdisjoint(moved_f)


def test_json_contains_assignment():
    k = cyclic_group(2)
    data = greedy_color(k, ["0", "1"]).to_json()
    assert data["assignment"] == [1, 2]
    data_z = greedy_color("Z", [-1, 0, 1]).to_json(range(-3, 4))
    assert len(data_z["assignment"]) == 7


def _eager_finite(k, e_set):
    """The greedy as a finite K was once coloured: every element in table
    order, from the neighbours coloured before it."""
    e2 = {k.mul(e, f) for e in e_set for f in e_set}
    assign = {}
    for x in k.elements:
        used = {assign.get(k.mul(g, x)) for g in e2 if g != k.identity}
        assign[x] = min(c for c in range(1, len(e2) + 1) if c not in used)
    return assign


@pytest.mark.parametrize("order", [1, 2, 5, 12])
def test_finite_colouring_on_demand_matches_the_eager_one(order):
    k = cyclic_group(order)
    for e_set in (["0"], ["0", str(1 % order), str(-1 % order)], [str(i) for i in range(order)]):
        e_set = list(dict.fromkeys(e_set))
        c = greedy_color(k, e_set)
        # asked last element first: the greedy still colours in table order
        got = {x: c.color_of(x) for x in reversed(k.elements)}
        assert got == _eager_finite(k, e_set)


@pytest.mark.parametrize("k", [1.5, True, "1", None, 10**9])
def test_z_refuses_what_its_enumeration_never_reaches(k):
    c = greedy_color("Z", [-1, 0, 1])
    with pytest.raises(ValueError):
        c.color_of(k)
    # refused before any element is coloured
    assert not c._assign


@pytest.mark.parametrize(
    "group, e_set",
    [
        ("Z", [0, 0]),
        ("Z", [-1, 0, True]),
        ("Z", list(range(-40, 41))),
        ("Z/3", ["0", "3"]),
        ("Z/2", ["0", "1"] * 3),
    ],
)
def test_e_must_list_few_distinct_elements(group, e_set):
    with pytest.raises(ValueError):
        greedy_color(group, e_set)
