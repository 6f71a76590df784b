import itertools
import random
import sys
from fractions import Fraction

import pytest

import paratower.comparison as comparison
import oracles
from oracles import cells, image_key, moved_base, squares
from paratower import prefix, subsets, towers
from paratower.boundary import ClopenSet, ProductClopen
from paratower.comparison import (
    ComparisonInstance,
    ConstructionFailed,
    DepthCapExceeded,
    CountingData,
    HypothesisViolated,
    IncompatibleMiddles,
    PlainSpace,
    ProductSpace,
    SubeqWitness,
    boost,
    build_comparison,
    check_counting,
    compose,
    extreme_weighted_count,
    identity_witness,
    petr_assign,
    verify_witness,
)
from paratower.groups import cyclic_group
from paratower.towers import TowerCertificate
from paratower.words import LETTERS, inverse, legal_next_letters, multiply, words_of_length

SPACE = PlainSpace()
D5 = ["", "a", "A", "b", "B"]


def cyl(w):
    return ClopenSet.cylinder(w)


def make_witness(entries, sources, targets):
    return SubeqWitness(SPACE, sources, targets, entries)


def good_witness():
    # [a] ∪ [A] carried into [a] in one color by exact cylinder maps
    src = cyl("a").union(cyl("A"))
    entries = [
        (0, cyl("a"), "a", 0),    # -> [aa]
        (0, cyl("A"), "ab", 0),   # -> [abA]
    ]
    return make_witness(entries, [src], [cyl("a")])


def test_verify_good_witness():
    report = verify_witness(good_witness())
    assert report["pass"]
    assert report["failure"] is None


def test_identity_witness():
    w = identity_witness(SPACE, cyl("ab"))
    assert verify_witness(w)["pass"]


def test_witness_json_round_trip():
    w = good_witness()
    back = SubeqWitness.from_json(w.to_json())
    assert verify_witness(back)["pass"]
    assert back.colors == w.colors


def test_product_space_witness():
    k = cyclic_group(2)
    space = ProductSpace(k)
    s = ProductClopen(k, {"0": cyl("b")})
    t = ProductClopen(k, {"1": cyl("ab")})
    w = SubeqWitness(space, [s], [t], [(0, s, ("a", "1"), 0)])
    assert verify_witness(w)["pass"]


# -- seeded witness defects

def test_defect_missing_coverage():
    src = cyl("a").union(cyl("A"))
    w = make_witness([(0, cyl("a"), "a", 0)], [src], [cyl("a")])
    report = verify_witness(w)
    assert not report["pass"]
    assert report["failure"]["kind"] == "coverage"


def test_defect_image_escapes_target():
    w = make_witness([(0, cyl("A"), "", 0)], [cyl("A")], [cyl("a")])
    report = verify_witness(w)
    assert not report["pass"]
    assert report["failure"]["kind"] == "containment"


def test_defect_same_color_overlap():
    src = cyl("a").union(cyl("A"))
    entries = [
        (0, cyl("a"), "a", 0),    # -> [aa]
        (0, cyl("A"), "aaB", 0),  # -> [aaBA], inside [aa]
    ]
    w = make_witness(entries, [src], [cyl("a")])
    report = verify_witness(w)
    assert not report["pass"]
    assert report["failure"]["kind"] == "overlap"


def test_defect_wrong_source_index():
    entries = [(1, cyl("a"), "a", 0)]
    w = make_witness(entries, [cyl("a"), cyl("b")], [cyl("a")])
    report = verify_witness(w)
    assert not report["pass"]
    assert report["failure"]["kind"] == "coverage"


def test_defect_overlap_across_depths():
    # shallower image contains the deeper one; sorting must still catch it
    entries = [
        (0, cyl("ba"), "a", 0),     # -> [aba]
        (0, cyl("bab"), "a", 0),    # -> [abab] ⊂ [aba]
    ]
    w = make_witness(entries, [cyl("ba")], [cyl("a")])
    report = verify_witness(w)
    assert not report["pass"]
    assert report["failure"]["kind"] == "overlap"


# -- composition and boosting

def test_compose_chains_witnesses():
    w1 = make_witness([(0, cyl("b"), "a", 0)], [cyl("b")], [cyl("a")])
    w2 = make_witness([(0, cyl("a"), "b", 0)], [cyl("a")], [cyl("b")])
    out = compose(w1, w2)
    assert verify_witness(out)["pass"]
    assert out.targets[0].equals(cyl("b"))
    # the composite element carries [b] into [b] through [a]
    assert all(SPACE.word_part(g) == "ba" for _, _, g, _ in out.entries)


def test_compose_rejects_mismatched_middles():
    w1 = make_witness([(0, cyl("b"), "a", 0)], [cyl("b")], [cyl("a")])
    w2 = make_witness([(0, cyl("b"), "a", 0)], [cyl("b")], [cyl("a")])
    with pytest.raises(IncompatibleMiddles):
        compose(w1, w2)


def test_boost_merges_colors():
    src = cyl("b")
    entries = [
        (0, cyl("ba"), "a", 0),   # -> [aba]
        (0, cyl("bb"), "a", 1),   # -> [abb]
        (0, cyl("bA"), "a", 1),   # -> [abA]
    ]
    w = make_witness(entries, [src], [cyl("a"), cyl("a")])
    assert verify_witness(w)["pass"]
    out = boost(w, cyl("a"))
    assert out.colors == 1
    assert verify_witness(out)["pass"]
    assert out.targets[0].equals(cyl("a"))


# sha256 of the canonical JSON of each boosted witness, recorded when boost
# built its translators' label part in a branch of its own for F2 x K
LABEL_SHIFT_BOOSTS = [
    ("b", "2", "d739831f6b2f5111d5627a9dd1cce0b6823b0c00c1c2d7b5c69dded0bde7c25f"),
    ("Ba", "1", "56eae0bff92760e1dcb108a561e4a100eadaea3f2c4a9d7e08a0323364598a46"),
    ("ab", "0", "c172da8cf739a34a74220011c70d7e50142906bc601e8809c4ed444efdada6b5"),
]


@pytest.mark.parametrize("v_word, v_label, digest", LABEL_SHIFT_BOOSTS)
def test_boost_shifts_labels_onto_the_target(v_word, v_label, digest):
    import hashlib

    from paratower.certificates import canonical_json

    k3 = cyclic_group(3)

    def box(w, lbl):
        return ProductClopen(k3, {lbl: cyl(w)})

    # [a]x{1} below two copies of [ab]x{0}: every piece lands on label 0
    w = SubeqWitness(ProductSpace(k3), [box("a", "1")], [box("ab", "0")] * 2, [
        (0, box("aa", "1"), ("ab", "2"), 0),
        (0, box("ab", "1"), ("", "2"), 1),
        (0, box("aB", "1"), ("ab", "2"), 0),
    ])
    assert verify_witness(w)["pass"]
    out = boost(w, box(v_word, v_label))
    assert verify_witness(out)["pass"]
    # the translators carry label 0 to v's label
    assert {g[1] for _, _, g, _ in out.entries} == {k3.mul(v_label, "2")}
    assert hashlib.sha256(canonical_json(out.to_json()).encode()).hexdigest() == digest


# -- counting and the assignment step

def plain_counting_data():
    d_set = ["", "a", "A", "aB", "bA"]
    return CountingData(d_set, Fraction(1, 4), [cyl("aabb")], cyl("a"), squares(SPACE, d_set))


def test_check_counting_passes():
    report = check_counting(SPACE, plain_counting_data(), 1)
    assert report["pass"]
    assert Fraction(report["max_margin"]) < 0


def test_check_counting_reports_witness_cell():
    report = check_counting(SPACE, plain_counting_data(), 0)
    assert not report["pass"]
    assert report["witness_cell"][1]


def test_petr_assign_builds_witness():
    w = petr_assign(SPACE, plain_counting_data(), 1)
    report = verify_witness(w)
    assert report["pass"]
    assert w.colors == 2
    assert all(t.equals(cyl("a")) for t in w.targets)


def test_petr_assign_rejects_failed_hypothesis():
    # a point of [a] is hit once on each side, so strictness fails
    data = CountingData([""], Fraction(1, 4), [cyl("a")], cyl("a"), squares(SPACE, [""]))
    with pytest.raises(HypothesisViolated):
        petr_assign(SPACE, data, 0)


def test_extreme_weighted_count():
    items = [(cyl("a"), Fraction(1)), (cyl("ab"), Fraction(2))]
    lo, lo_cell = extreme_weighted_count(SPACE, items, "min")
    hi, hi_cell = extreme_weighted_count(SPACE, items, "max")
    assert lo == 0 and hi == 3
    assert not cyl("a").contains_point_prefix(lo_cell[1][:1])
    assert hi_cell[1].startswith("ab")


# -- the counting sweep against an oracle and the Fraction recursion

WEIGHTS = [Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-7, 2), Fraction(5, 6), 2]


def _extreme_plain_fraction(items, mode):
    """The counting sweep as it was before it counted in integers: the same
    trie walk, summing Fractions; the reference for values and cells."""
    const = Fraction(0)
    base_w = {}
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
    best, best_cell = None, ""

    def visit(node, cum):
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
    return best, best_cell


def _extreme_fraction(space, items, mode):
    better = (lambda a, b: a < b) if mode == "min" else (lambda a, b: a > b)
    best, best_cell = None, (None, "")
    labels = {lbl for s, _ in items for lbl, _ in space.slice_items(s)}
    for lbl in sorted(labels, key=str):
        per = [
            (sl, Fraction(w))
            for s, w in items
            for l2, sl in space.slice_items(s)
            if l2 == lbl
        ]
        val, cell = _extreme_plain_fraction(per, mode)
        if best is None or better(val, best):
            best, best_cell = val, (lbl, cell)
    return best, best_cell


def _random_clopen(rng):
    roll = rng.random()
    if roll < 0.1:
        return ClopenSet.full_set()
    if roll < 0.15:
        return ClopenSet.empty()
    words = []
    for _ in range(rng.randint(1, 4)):
        w = rng.choice("aAbB")
        for _ in range(rng.randint(0, 3)):
            w += rng.choice(legal_next_letters(w))
        words.append(w)
    return ClopenSet(words)


def _random_set(rng, space):
    if isinstance(space, ProductSpace):
        labels = rng.sample(space.k_group.elements, rng.randint(1, len(space.k_group)))
        return ProductClopen(space.k_group, {lbl: _random_clopen(rng) for lbl in labels})
    return _random_clopen(rng)


def _random_items(rng, space):
    return [(_random_set(rng, space), rng.choice(WEIGHTS)) for _ in range(rng.randint(1, 7))]


def _value_on(space, items, cell):
    """The weighted sum on the cylinder of a cell deep enough to settle it."""
    lbl, w = cell
    return sum(
        Fraction(wt) for s, wt in items
        if dict(space.slice_items(s))[lbl].contains_point_prefix(w)
    )


def _deep_clopen(rng, stems):
    """A set of 1-5 bases cut from the stems at random lengths and grown by
    up to 3 letters: deep bases with long shared prefixes."""
    if rng.random() < 0.1:
        return ClopenSet.full_set()
    words = []
    for _ in range(rng.randint(1, 5)):
        stem = rng.choice(stems)
        w = stem[: rng.randint(1, len(stem))]
        for _ in range(rng.randint(0, 3)):
            w += rng.choice(legal_next_letters(w))
        words.append(w)
    return ClopenSet(words)


def _deep_items(rng, space):
    """Items over 1-3 shared stems of length 8-27, one of them a^k: its
    chain's first leaves all come after the chain, so the sweep has to go
    to the chain's bottom.  Zero weights make ties."""
    stems = ["a" * rng.randint(8, 27)]
    for _ in range(rng.randint(0, 2)):
        w = rng.choice("aAbB")
        for _ in range(rng.randint(7, 26)):
            w += rng.choice(legal_next_letters(w))
        stems.append(w)
    items = []
    for _ in range(rng.randint(1, 8)):
        if isinstance(space, ProductSpace):
            labels = rng.sample(space.k_group.elements, rng.randint(1, len(space.k_group)))
            s = ProductClopen(space.k_group, {lbl: _deep_clopen(rng, stems) for lbl in labels})
        else:
            s = _deep_clopen(rng, stems)
        items.append((s, rng.choice(WEIGHTS + [Fraction(0)])))
    return items


def _pad(w, depth):
    """w extended letter by letter to at least the given length."""
    while len(w) < depth:
        w += legal_next_letters(w)[0]
    return w


SPACES = [PlainSpace(), ProductSpace(cyclic_group(3))]


@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("space", SPACES, ids=["F2", "F2xZ3"])
def test_extreme_weighted_count_matches_oracles(space, mode):
    rng = random.Random(f"extreme/{space.kind}/{mode}")
    pick = min if mode == "min" else max
    for _ in range(60):
        items = _random_items(rng, space)
        val, cell = extreme_weighted_count(space, items, mode)
        # the Fraction recursion: same value and same cell, ties included
        assert (val, cell) == _extreme_fraction(space, items, mode)
        # brute force over every cell one level below the deepest base
        depth = 1 + max(sl.depth() for s, _ in items for _, sl in space.slice_items(s))
        labels = [lbl for lbl, _ in space.slice_items(items[0][0])]
        values = [
            _value_on(space, items, (lbl, w)) for lbl in labels for w in words_of_length(depth)
        ]
        assert val == pick(values)
        # the weighted sum equals the extreme on all of the witness cell
        lbl, w = cell
        below = ClopenSet.cylinder(w).refine(max(depth, len(w)))
        assert {_value_on(space, items, (lbl, x)) for x in below} == {val}
    # deep sets: long chains between branch points, bases nested across
    # items and full sets (the base "")
    for _ in range(60):
        items = _deep_items(rng, space)
        val, cell = extreme_weighted_count(space, items, mode)
        assert (val, cell) == _extreme_fraction(space, items, mode)
        depth = max(sl.depth() for s, _ in items for _, sl in space.slice_items(s))
        assert _value_on(space, items, (cell[0], _pad(cell[1], depth))) == val


def test_extreme_weighted_count_ties_pick_the_first_cell():
    # every cell of the boundary has the value 1/3; the first leaf is [a]
    items = [(ClopenSet.full_set(), Fraction(1, 3)), (cyl("b"), Fraction(0))]
    assert extreme_weighted_count(SPACE, items, "max") == (Fraction(1, 3), (None, "a"))
    assert extreme_weighted_count(SPACE, items, "min") == (Fraction(1, 3), (None, "a"))


def test_extreme_weighted_count_sweeps_equal_slices_once(monkeypatch):
    k3 = cyclic_group(3)
    space = ProductSpace(k3)
    items = [
        (ProductClopen.uniform(k3, cyl("ab")), Fraction(2)),
        (ProductClopen.uniform(k3, ClopenSet(["abA", "B"])), Fraction(-1, 3)),
        (ProductClopen.full_set(k3), Fraction(1, 2)),
    ]
    swept = []
    sweep = comparison._sweep
    monkeypatch.setattr(comparison, "_sweep", lambda *a: swept.append(a) or sweep(*a))
    for mode in ("min", "max"):
        val, cell = extreme_weighted_count(space, items, mode)
        assert cell[0] == "0"
        assert (val, cell) == _extreme_fraction(space, items, mode)
    assert len(swept) == 2
    # equal bases with another constant are another step function
    items.append((ProductClopen(k3, {"2": ClopenSet.full_set()}), Fraction(1)))
    assert extreme_weighted_count(space, items, "max") == (Fraction(7, 2), ("2", "aba"))
    assert len(swept) == 4


def test_extreme_weighted_count_rejects_no_items_and_bad_mode():
    with pytest.raises(ValueError):
        extreme_weighted_count(SPACE, [], "max")
    with pytest.raises(ValueError):
        extreme_weighted_count(SPACE, [(cyl("a"), 1)], "mean")


# -- the end-to-end builders (full runs live in the acceptance suite)

def test_build_comparison_plain():
    cert = build_comparison(ComparisonInstance("F2"), cyl("ab"))
    assert cert.passed
    data = cert.data
    assert data["n"] >= 1 and data["composed"] == {}
    final = SubeqWitness.from_json(data["boosted"]["witness"])
    assert verify_witness(final)["pass"] and final.targets[0].equals(cyl("ab"))


def test_build_comparison_rejects_empty_target():
    with pytest.raises(ValueError):
        build_comparison(ComparisonInstance("F2"), ClopenSet.empty())
    with pytest.raises(ValueError):
        ComparisonInstance("F5")


@pytest.mark.parametrize(
    "inst, u_set",
    [("F2", cyl("aB")), ("F2xZ2", ProductClopen(cyclic_group(2), {"1": cyl("ba")}))],
    ids=["F2", "F2xZ2"],
)
def test_the_product_check_runs_over_f_times_f(monkeypatch, inst, u_set):
    # the builder reads F·F off D² × K; it is every product of two elements
    # of F, in the same order, and the counting's D², and the product
    # check's movers are the g whose inverses carry claim 2's W into V
    families, counted = [], []
    real, counting = comparison.verify_towers, comparison.check_counting
    monkeypatch.setattr(
        comparison, "verify_towers", lambda fam, *a: families.append(fam) or real(fam, *a)
    )
    monkeypatch.setattr(
        comparison, "check_counting", lambda sp, d, n: counted.append(d) or counting(sp, d, n)
    )
    instance = ComparisonInstance(inst)
    space = instance.space()
    data = build_comparison(instance, u_set).data
    (fam,), (f,) = families, counted
    assert fam.d_set == squares(space, f.d_set) == f.d2
    claim2 = SubeqWitness.from_json(data["claim2_witness"])
    assert [g for _, g in fam.items] == [space.inv(g) for _, _, g, _ in claim2.entries]


class _AtTheProductCheck(Exception):
    """Stops a build at its product tower check, holding that check's D."""


def test_f_times_f_is_listed_in_elem_order(monkeypatch):
    # F·F is listed word by word of D², each word's labels sorted as
    # strings; that is the order of sorting it by ``_elem_order``, in which
    # the label "10" of Z/12 comes before "2".  On F2 and F2 × Z/2,
    # test_the_product_check_runs_over_f_times_f compares it with that sort
    def stop(fam, *a):
        raise _AtTheProductCheck(fam.d_set)

    monkeypatch.setattr(comparison, "verify_towers", stop)
    instance = _zn_instance(12)
    with pytest.raises(_AtTheProductCheck) as stopped:
        build_comparison(instance, ProductClopen(cyclic_group(12), {"0": cyl("ab")}))
    (listed,) = stopped.value.args
    assert len(set(listed)) == len(listed)
    assert listed == sorted(listed, key=comparison._elem_order(instance.space()))
    labels = ["0", "1", "10", "11"] + [str(e) for e in range(2, 10)]
    assert listed[:12] == [("", e) for e in labels]


@pytest.mark.parametrize(
    "inst, u_set",
    [("F2", cyl("ab")), ("F2xZ2", ProductClopen(cyclic_group(2), {"0": cyl("a")}))],
    ids=["F2", "F2xZ2"],
)
def test_the_build_shrinks_the_target_once(monkeypatch, inst, u_set):
    # the gate's U^{-eps} is the one the counting and the matching read:
    # one shrink per slice of the target
    calls = []
    real = comparison.shrink
    monkeypatch.setattr(comparison, "shrink", lambda sl, eps: calls.append(eps) or real(sl, eps))
    instance = ComparisonInstance(inst)
    assert build_comparison(instance, u_set).passed
    assert len(calls) == len(instance.space().labels)


def _failing_towers(family, mode="exact", radius=None):
    checks = {c: {"pass": False, "counterexample": None} for c in ("disjoint", "cover")}
    return TowerCertificate(family, mode, radius, checks)


def _failing_witness_check(w):
    return {"pass": False, "coverage": [], "colors": [], "failure": {"kind": "forced"}}


@pytest.mark.parametrize(
    "attr, fake, message",
    [
        # the claim-1 sweep reports a point reached by no element
        ("extreme_weighted_count", lambda *a: (Fraction(0), (None, "a")), "claim 1"),
        ("verify_towers", _failing_towers, "product tower"),
        ("verify_witness", _failing_witness_check, "claim 2"),
    ],
)
def test_build_comparison_raises_when_a_step_fails(monkeypatch, attr, fake, message):
    monkeypatch.setattr(comparison, attr, fake)
    with pytest.raises(ConstructionFailed, match=message):
        build_comparison(ComparisonInstance("F2"), cyl("ab"))


def test_tower_stage_translates_each_set_once(monkeypatch):
    # from the entry into more_towers to the end of the product check, every
    # (word, words, bases) input of prefix.translate is new
    inputs = []
    stage = [False]
    translate, more, verify = prefix.translate, comparison.more_towers, comparison.verify_towers

    def counted(g, words, bases):
        if stage[0]:
            inputs.append((g, None if words is None else frozenset(words), frozenset(bases)))
        return translate(g, words, bases)

    def entered(*a, **k):
        stage[0] = True
        return more(*a, **k)

    def left(*a, **k):
        try:
            return verify(*a, **k)
        finally:
            stage[0] = False

    monkeypatch.setattr(prefix, "translate", counted)
    monkeypatch.setattr(comparison, "more_towers", entered)
    monkeypatch.setattr(comparison, "verify_towers", left)
    u_set = ProductClopen(cyclic_group(2), {"1": cyl("abABa")})
    assert build_comparison(ComparisonInstance("F2xZ2"), u_set).passed
    assert not stage[0] and inputs
    assert len(set(inputs)) == len(inputs)
    # every set of the stage is a translate of one of the two base cones
    # the build reads, and only those are ever translated: the third
    # strengthened cone is made but never checked
    assert len({(words, bases) for _, words, bases in inputs}) == 2


def test_tower_stage_builds_no_normal_form_for_a_translate(monkeypatch):
    # from the entry into more_towers to the end of the product check, the
    # walks read translates as (words, bases) pairs: a NormalForm of one
    # cone is made only for a base cone or a set handed to a builder, never
    # by translating a form, and no complement is taken, since the
    # strengthened towers are not checked.  Forms are built through
    # __init__ or, when already in form, _in_form
    made = []
    stage = [False]
    init = subsets.NormalForm.__init__
    in_form = subsets.NormalForm._in_form.__func__
    more, verify = comparison.more_towers, comparison.verify_towers

    def record(nf):
        if stage[0]:
            made.append((sys._getframe(2).f_code, nf))

    def spied(self, words=(), cones=()):
        init(self, words, cones)
        record(self)

    def spied_in_form(cls, words, cones):
        nf = in_form(cls, words, cones)
        record(nf)
        return nf

    def entered(*a, **k):
        stage[0] = True
        return more(*a, **k)

    def left(*a, **k):
        try:
            return verify(*a, **k)
        finally:
            stage[0] = False

    monkeypatch.setattr(subsets.NormalForm, "__init__", spied)
    monkeypatch.setattr(subsets.NormalForm, "_in_form", classmethod(spied_in_form))
    monkeypatch.setattr(comparison, "more_towers", entered)
    monkeypatch.setattr(comparison, "verify_towers", left)
    u_set = ProductClopen(cyclic_group(2), {"1": cyl("abABa")})
    assert build_comparison(ComparisonInstance("F2xZ2"), u_set).passed
    assert not stage[0]
    one_cone = [code for code, nf in made if len(nf.cones) == 1 and not nf.words]
    # each maker occurs
    assert set(one_cone) == {towers._Translates.translate.__code__, subsets.cone.__code__}
    assert subsets.NormalForm.translate.__code__ not in {code for code, _ in made}


@pytest.mark.parametrize(
    "inst, u_set",
    [("F2", cyl("ab")), ("F2xZ2", ProductClopen(cyclic_group(2), {"0": cyl("a")}))],
    ids=["F2", "F2xZ2"],
)
def test_built_witnesses_have_one_entry_per_source_mover_colour(monkeypatch, inst, u_set):
    witnesses = []
    real = comparison.verify_witness

    def recorded(w):
        witnesses.append(w)
        return real(w)

    monkeypatch.setattr(comparison, "verify_witness", recorded)
    assert build_comparison(ComparisonInstance(inst), u_set).passed
    # claim 2, claim 3, composed and boosted
    assert len(witnesses) == 4
    for w in witnesses:
        keys = [(i, g, color) for i, _, g, color in w.entries]
        assert len(set(keys)) == len(keys)


# -- the one-shot cover of verify_witness against the chained union

def _chained_cover(space, w, i):
    covered = space.empty()
    for j, piece, _, _ in w.entries:
        if j == i:
            covered = covered.union(piece)
    return covered


def _verify_witness_chained(w):
    """verify_witness as it was with one union per entry, whose failures
    named no cell: the reference for every other field of the report."""
    space = w.space
    report = {"pass": True, "coverage": [], "colors": [], "failure": None}
    for i, src in enumerate(w.sources):
        ok = src.is_subset(_chained_cover(space, w, i))
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
            bad_pair = comparison._overlap_pair(space, images)
            disjoint = bad_pair is None
        report["colors"].append({"color": color, "contained": contained, "disjoint": disjoint})
        if (not contained or not disjoint) and report["failure"] is None:
            report["pass"] = False
            if not contained:
                report["failure"] = {"kind": "containment", "entry": bad_entry}
            else:
                report["failure"] = {"kind": "overlap", "entries": list(bad_pair)}
    return report


def _random_element(rng, space):
    w = ""
    for _ in range(rng.randint(0, 3)):
        w += rng.choice(legal_next_letters(w))
    if isinstance(space, ProductSpace):
        return (w, rng.choice(space.k_group.elements))
    return w


def _random_witness(rng, space):
    """Sources cut into cells, a few cells left out; each cell moved by the
    identity or by random elements; each target the union of its color's
    images, sometimes with a cell cut out or replaced by a random set."""
    sources = [_random_set(rng, space) for _ in range(rng.randint(1, 2))]
    colors = rng.randint(1, 3)
    moved = rng.random() < 0.5
    entries = []
    for i, src in enumerate(sources):
        depth = max([1] + [sl.depth() for _, sl in space.slice_items(src)])
        for cell in cells(space, src, depth):
            if rng.random() < 0.05:
                continue
            g = _random_element(rng, space) if moved else space.identity
            entries.append((i, space.cylinder(cell), g, rng.randrange(colors)))
    targets = []
    for color in range(colors):
        target = space.empty()
        for _, piece, g, c in entries:
            if c == color:
                target = target.union(space.act(g, piece))
        roll = rng.random()
        if roll < 0.15 and not target.is_empty():
            cut = comparison.cylinder_cell_of(space, target)
            below = cut[1] + rng.choice(legal_next_letters(cut[1]))
            target = target.minus(space.cylinder((cut[0], below)))
        elif roll < 0.25:
            target = _random_set(rng, space)
        targets.append(target)
    return SubeqWitness(space, sources, targets, entries)


@pytest.mark.parametrize("space", SPACES, ids=["F2", "F2xZ3"])
def test_one_shot_cover_matches_the_chained_union(space):
    rng = random.Random(f"cover/{space.kind}")
    seen = []
    for _ in range(150):
        w = _random_witness(rng, space)
        report = verify_witness(w)
        failure = report["failure"]
        seen.append(failure["kind"] if failure else "pass")
        cell = None
        if failure is not None:
            failure = dict(failure)
            cell = space.cylinder(tuple(failure.pop("cell")))
        assert dict(report, failure=failure) == _verify_witness_chained(w)
        if cell is None:
            continue
        # the named cell is a counterexample
        if failure["kind"] == "coverage":
            i = failure["source"]
            assert cell.is_subset(w.sources[i])
            assert cell.are_disjoint(_chained_cover(space, w, i))
        elif failure["kind"] == "containment":
            _, piece, g, color = w.entries[failure["entry"]]
            assert cell.is_subset(space.act(g, piece))
            assert cell.are_disjoint(w.targets[color])
        else:
            for idx in failure["entries"]:
                _, piece, g, _ = w.entries[idx]
                assert cell.is_subset(space.act(g, piece))
    assert {"pass", "coverage", "containment", "overlap"} <= set(seen)


def test_failures_name_a_cell():
    src = cyl("a").union(cyl("A"))
    report = verify_witness(make_witness([(0, cyl("a"), "a", 0)], [src], [cyl("a")]))
    assert report["failure"] == {"kind": "coverage", "source": 0, "cell": [None, "A"]}
    # the identity keeps [A], whose first cell outside [Ab] is [AA]
    report = verify_witness(make_witness([(0, cyl("A"), "", 0)], [cyl("A")], [cyl("Ab")]))
    assert report["failure"] == {"kind": "containment", "entry": 0, "cell": [None, "AA"]}
    entries = [(0, cyl("ba"), "a", 0), (0, cyl("bab"), "a", 0)]
    report = verify_witness(make_witness(entries, [cyl("ba")], [cyl("a")]))
    assert report["failure"] == {"kind": "overlap", "entries": [0, 1], "cell": [None, "abab"]}


# -- verify_witness on image cells against the set algebra

def _verdicts(report):
    failure = report["failure"]
    return (
        report["pass"],
        [c["pass"] for c in report["coverage"]],
        [(c["contained"], c["disjoint"]) for c in report["colors"]],
        failure and failure["kind"],
    )


@pytest.mark.parametrize("space", SPACES, ids=["F2", "F2xZ3"])
def test_grouping_by_source_mover_colour_keeps_the_verdict(space):
    # per-cell witnesses whose cells partition their sources, a few left out
    rng = random.Random(f"grouped/{space.kind}")
    seen = []
    merged = 0
    for _ in range(150):
        w = _random_witness(rng, space)
        grouped = SubeqWitness(space, w.sources, w.targets, comparison._grouped(space, w.entries))
        keys = [(i, g, c) for i, _, g, c in grouped.entries]
        assert len(set(keys)) == len(keys)
        merged += len(grouped.entries) < len(w.entries)
        report = verify_witness(w)
        seen.append(_verdicts(report)[3] or "pass")
        assert _verdicts(verify_witness(grouped)) == _verdicts(report)
    assert {"pass", "coverage", "containment", "overlap"} <= set(seen)
    assert merged > 50


def _verify_witness_sets(w):
    """verify_witness as it was with canonical images: the reference for
    the whole report, cells included."""
    space = w.space
    report = {"pass": True, "coverage": [], "colors": [], "failure": None}
    pieces = {}
    for i, piece, _, _ in w.entries:
        pieces.setdefault(i, []).append(piece)
    for i, src in enumerate(w.sources):
        cover = space.union_all(pieces.get(i, ()))
        ok = src.is_subset(cover)
        report["coverage"].append({"source": i, "pass": ok})
        if not ok and report["failure"] is None:
            report["pass"] = False
            cell = comparison.cylinder_cell_of(space, src.minus(cover))
            report["failure"] = {"kind": "coverage", "source": i, "cell": list(cell)}
    for color in range(w.colors):
        target = w.targets[color]
        images = {}
        escaping = None
        for idx, (i, piece, g, c) in enumerate(w.entries):
            if c != color:
                continue
            img = space.act(g, piece)
            if not img.is_subset(target):
                escaping = idx
                break
            images[idx] = img
        contained = escaping is None
        bad_pair = comparison._overlap_pair(space, images.items()) if contained else None
        disjoint = bad_pair is None
        report["colors"].append({"color": color, "contained": contained, "disjoint": disjoint})
        if (not contained or not disjoint) and report["failure"] is None:
            report["pass"] = False
            if not contained:
                cell = comparison.cylinder_cell_of(space, img.minus(target))
                report["failure"] = {"kind": "containment", "entry": escaping, "cell": list(cell)}
            else:
                a, b = bad_pair
                cell = comparison.cylinder_cell_of(space, images[a].inter(images[b]))
                report["failure"] = {"kind": "overlap", "entries": [a, b], "cell": list(cell)}
    return report


def _cancelling_witness(rng, space):
    """Random pieces (full and empty slices among them), each moved by an
    element that often cancels one of its bases fully, so the base splits
    into its children; sources and targets as in _random_witness."""
    colors = rng.randint(1, 2)
    entries = []
    for _ in range(rng.randint(1, 5)):
        piece = _random_set(rng, space)
        bases = [b for _, sl in space.slice_items(piece) for b in sl.bases]
        g = _random_element(rng, space)
        if bases and rng.random() < 0.6:
            word = multiply(space.word_part(g), inverse(rng.choice(bases)))
            g = (word, g[1]) if isinstance(space, ProductSpace) else word
        entries.append((0, piece, g, rng.randrange(colors)))
    source = space.union_all(piece for _, piece, _, _ in entries)
    if rng.random() < 0.15:
        source = source.union(_random_set(rng, space))
    targets = []
    for color in range(colors):
        target = space.union_all(space.act(g, p) for _, p, g, c in entries if c == color)
        roll = rng.random()
        if roll < 0.2 and not target.is_empty():
            cut = comparison.cylinder_cell_of(space, target)
            below = cut[1] + rng.choice(legal_next_letters(cut[1]))
            target = target.minus(space.cylinder((cut[0], below)))
        elif roll < 0.3:
            target = _random_set(rng, space)
        targets.append(target)
    return SubeqWitness(space, [source], targets, entries)


@pytest.mark.parametrize("space", SPACES, ids=["F2", "F2xZ3"])
def test_verify_witness_on_cells_matches_the_set_algebra(space):
    rng = random.Random(f"cells/{space.kind}")
    seen = set()
    for _ in range(300):
        w = _cancelling_witness(rng, space)
        report = verify_witness(w)
        assert report == _verify_witness_sets(w)
        seen.add(report["failure"]["kind"] if report["failure"] else "pass")
        for _, piece, g, _ in w.entries:
            for _, sl in space.slice_items(piece):
                seen.add("full" if sl.is_full() else "empty" if sl.is_empty() else "bases")
                if any(moved_base(space.word_part(g), b) is None for b in sl.bases):
                    seen.add("cancelled")
    assert {"pass", "containment", "overlap", "full", "cancelled"} <= seen
    if isinstance(space, ProductSpace):
        assert "empty" in seen


# -- check_counting's translations against the set algebra

def _check_counting_sets(space, data, n):
    """check_counting as it was, translating every set with space.act:
    the reference for the report."""
    u_eff = space.shrink(data.target, data.epsilon)
    d2 = squares(space, data.d_set)
    items = [(space.act(space.inv(f), v), Fraction(1)) for f in d2 for v in data.sources]
    items += [(space.act(space.inv(g), u_eff), Fraction(-(n + 1))) for g in data.d_set]
    worst, cell = extreme_weighted_count(space, items, "max")
    return {
        "pass": worst < 0,
        "max_margin": comparison._frac_json(worst),
        "witness_cell": list(cell),
        "d2_size": len(d2),
    }


@pytest.mark.parametrize("space", SPACES, ids=["F2", "F2xZ3"])
def test_check_counting_matches_the_set_algebra(space):
    # random sources with full and empty slices, moved by D² where each
    # word comes with every label
    rng = random.Random(f"counting/{space.kind}")
    for _ in range(40):
        d_set = {space.identity}
        for _ in range(rng.randint(1, 3)):
            g = _random_element(rng, space)
            d_set |= {g, space.inv(g)}
        sources = [_random_set(rng, space) for _ in range(rng.randint(1, 3))]
        d_set = sorted(d_set, key=str)
        data = CountingData(
            d_set, Fraction(1, 8), sources, _random_set(rng, space), squares(space, d_set)
        )
        n = rng.randint(0, 3)
        assert check_counting(space, data, n) == _check_counting_sets(space, data, n)


@pytest.mark.parametrize("space", SPACES, ids=["F2", "F2xZ3"])
def test_check_counting_per_word_equals_the_per_element_sweep(monkeypatch, space):
    # D holds each word with every label, as the builder's does; sources the
    # same at every label move one slice per F2 word of D², and on F2 × Z/3
    # one more source, on one label only, moves every slice per element
    moves = []
    real = comparison._moved_bases
    monkeypatch.setattr(
        comparison, "_moved_bases", lambda h, sl, memo: moves.append(sl) or real(h, sl, memo)
    )
    rng = random.Random(f"counting-words/{space.kind}")
    for _ in range(40):
        words = {""}
        for _ in range(rng.randint(1, 3)):
            w = _random_element(rng, SPACE)
            words |= {w, inverse(w)}
        d_set = [space.elem(w, k) for w in sorted(words) for k in space.labels]
        uniform = [space.uniform(_random_clopen(rng)) for _ in range(rng.randint(1, 2))]
        other = []
        if isinstance(space, ProductSpace):
            word = rng.choice(words_of_length(rng.randint(1, 3)))
            other = [space.from_slices({rng.choice(space.labels): cyl(word)})]
        data = CountingData(
            d_set, Fraction(1, 8), uniform + other, _random_set(rng, space), squares(space, d_set)
        )
        n = rng.randint(0, 3)
        moves.clear()
        got = check_counting(space, data, n)
        want = _check_counting_sets(space, data, n)
        assert (got["max_margin"], got["witness_cell"]) == (want["max_margin"], want["witness_cell"])
        assert got == want
        d2 = {space.mul(f, g) for f in d_set for g in d_set}
        d2_words = {space.word_part(f) for f in d2}
        for v in uniform:
            (slice_id,) = {id(sl) for _, sl in space.slice_items(v)}
            assert sum(id(m) == slice_id for m in moves) == len(d2_words)
        per_element = (len(d2) * len(other) + len(d_set)) * len(space.labels)
        assert len(moves) == len(d2_words) * len(uniform) + per_element


def test_check_counting_builds_no_product_set_for_a_uniform_source(monkeypatch):
    # the uniform sources add their translated slices to the shared step
    # function, the target's pull-backs slice by slice: the one product set
    # built is the shrunk target
    k3 = cyclic_group(3)
    space = ProductSpace(k3)
    rng = random.Random("counting-no-products")
    d_set = [space.elem(w, k) for w in ("", "ab", "BA") for k in space.labels]
    sources = [space.uniform(_random_clopen(rng)) for _ in range(3)]
    target = space.from_slices({"1": cyl("ab")})
    data = CountingData(d_set, Fraction(1, 8), sources, target, squares(space, d_set))
    built = []
    init = ProductClopen.__init__

    def counted(self, k_group, slices):
        built.append(1)
        init(self, k_group, slices)

    monkeypatch.setattr(ProductClopen, "__init__", counted)
    got = check_counting(space, data, 2)
    assert len(built) == 1
    assert got == _check_counting_sets(space, data, 2)


def test_check_counting_sweeps_label_maps_that_differ(monkeypatch):
    # D on F2 × Z/3 with one label per word and the target on one label:
    # each label pulls the target back by other words, so the step functions
    # differ and the sweep runs once per label
    space = ProductSpace(cyclic_group(3))
    swept = []
    sweep = comparison._sweep
    monkeypatch.setattr(comparison, "_sweep", lambda *a: swept.append(a) or sweep(*a))
    rng = random.Random("counting-labels/F2xZ3")
    sweeps = set()
    for _ in range(30):
        d_set = {space.identity}
        for _ in range(rng.randint(1, 2)):
            g = (_random_element(rng, SPACE), rng.choice(["1", "2"]))
            d_set |= {g, space.inv(g)}
        uniform = [space.uniform(_random_clopen(rng)) for _ in range(rng.randint(1, 2))]
        other = [space.from_slices({rng.choice(space.labels): _random_clopen(rng)})]
        target = space.from_slices({"0": cyl(rng.choice(words_of_length(rng.randint(1, 2))))})
        d_set = sorted(d_set, key=str)
        data = CountingData(d_set, Fraction(1, 8), uniform + other, target, squares(space, d_set))
        n = rng.randint(0, 3)
        swept.clear()
        got = check_counting(space, data, n)
        sweeps.add(len(swept))
        assert got == _check_counting_sets(space, data, n)
    assert 3 in sweeps


def _sweep_by_walk(const, base_w):
    """``comparison._sweep`` by a walk over every node of the bases' prefix
    trie, the letters in ``LETTERS`` order: the max over the leaves and the
    first leaf that attains it."""
    trie = {b[:t] for b in base_w for t in range(len(b) + 1)}
    best = None

    def visit(node, total):
        nonlocal best
        total += base_w.get(node, 0)
        for y in legal_next_letters(node):
            if node + y in trie:
                visit(node + y, total)
            elif best is None or total > best[0]:
                best = (total, node + y)

    visit("", const)
    return best


def _grown_word(rng, stem, extra):
    """A prefix of stem grown by up to `extra` legal letters."""
    w = stem[: rng.randint(0, len(stem))]
    for _ in range(rng.randint(0, extra)):
        w += rng.choice(legal_next_letters(w))
    return w


def test_sweep_equals_the_walk_over_every_trie_node():
    # nested bases cut from shared stems, so that chains are long and keys
    # sit below keys; the base "", negative and zero weights, and ties
    # the max only on a chain below a key whose every child is a key
    base_w = {"": 5, "aa": -1, "ab": -1, "aBab": -1, "A": -1, "b": -1, "B": -1}
    assert comparison._sweep(0, base_w) == _sweep_by_walk(0, base_w) == (5, "aBaa")
    rng = random.Random("sweep/walk")
    for _ in range(300):
        stems = [_grown_word(rng, "", 20) for _ in range(rng.randint(1, 3))]
        base_w = {}
        for _ in range(rng.randint(1, 8)):
            b = _grown_word(rng, rng.choice(stems), 3)
            base_w[b] = base_w.get(b, 0) + rng.randint(-4, 4)
        if rng.random() < 0.2:
            base_w[""] = rng.randint(-2, 2)
        const = rng.randint(-3, 3)
        assert comparison._sweep(const, base_w) == _sweep_by_walk(const, base_w), base_w


@pytest.mark.parametrize(
    "space, sources, d_words, n",
    [
        # a·{a, b, B} is [a]: moved one base at a time it would be the
        # non-canonical {aa, ab, aB}, and the sweep would name another cell
        (SPACE, [ClopenSet(["a", "b", "B"])], ["", "a", "A"], 0),
        (ProductSpace(cyclic_group(3)), [ClopenSet(["a", "b", "B"])], ["", "a", "A"], 0),
        # A cancels [a] whole, and BA all of [ab]
        (SPACE, [cyl("a")], ["", "a", "A"], 0),
        (SPACE, [ClopenSet(["ab", "b"])], ["", "ab", "BA"], 1),
    ],
    ids=["three-bases", "three-bases-F2xZ3", "cancelled", "cancelled-of-two"],
)
def test_check_counting_moves_a_slice_through_its_canonical_form(
    monkeypatch, space, sources, d_words, n
):
    acted = []
    act = ClopenSet.act
    monkeypatch.setattr(ClopenSet, "act", lambda s, g: acted.append(g) or act(s, g))
    d_set = [space.elem(w, k) for w in d_words for k in space.labels]
    target = space.from_slices({space.labels[0]: cyl("b" if n == 0 else "a")})
    sources = [space.uniform(s) for s in sources]
    data = CountingData(d_set, Fraction(1, 8), sources, target, squares(space, d_set))
    got = check_counting(space, data, n)
    assert acted
    monkeypatch.undo()
    assert got == _check_counting_sets(space, data, n)


def _canonical_image_key(space, ueff_slices, g, cell):
    """The matching key of g·cell from canonical clopen sets, or None when
    the image leaves the shrunk target."""
    img = space.act(g, space.cylinder(cell))
    if not img.is_subset(space.from_slices(ueff_slices)):
        return None
    rep = comparison._base_rep(space, img)
    return tuple(sorted(rep, key=lambda t: (str(t[0]), t[1])))


@pytest.mark.parametrize(
    "inst, u_set",
    [
        (ComparisonInstance("F2"), cyl("ab")),
        (ComparisonInstance("F2xZ2"), ProductClopen(cyclic_group(2), {"0": cyl("a")})),
    ],
    ids=["F2-ab", "F2xZ2-a0"],
)
def test_image_keys_are_the_canonical_ones(monkeypatch, inst, u_set):
    # every (cell, mover) the preimage search answers for in one build: the
    # key it yields, or none, against the key of the canonical image
    calls = []
    image_keys = comparison._image_keys

    def recorded(space, ueff_slices, movers, cells):
        movers, cells = list(movers), list(cells)
        found = {}
        for g, cell, key in image_keys(space, ueff_slices, movers, cells):
            assert (g, cell) not in found, (g, cell)
            found[g, cell] = key
            yield g, cell, key
        calls.append((space, ueff_slices, movers, cells, found))

    monkeypatch.setattr(comparison, "_image_keys", recorded)
    assert build_comparison(inst, u_set).passed
    assert calls
    for space, ueff_slices, movers, cells, found in calls:
        for g in movers:
            for cell in cells:
                want = _canonical_image_key(space, ueff_slices, g, cell)
                assert found.get((g, cell)) == want, (g, cell)


@pytest.mark.parametrize("space", SPACES, ids=["F2", "F2xZ3"])
def test_image_keys_of_cancelled_cells_are_the_canonical_ones(space):
    # the builds above move deep cells by short words, so no mover cancels a
    # whole cell there; shallow cells and random targets reach that path
    rng = random.Random(f"image-key/{space.kind}")
    cancelled_inside = 0
    for _ in range(300):
        ueff_slices = dict(space.slice_items(_random_set(rng, space)))
        cell = rng.choice(cells(space, space.full(), rng.randint(1, 3)))
        for _ in range(10):
            g = _random_element(rng, space)
            found = image_key(space, ueff_slices, g, cell)
            want = _canonical_image_key(space, ueff_slices, g, cell)
            assert found == want, (g, cell)
            if found is not None:
                cancelled_inside += moved_base(space.word_part(g), cell[1]) is None
    assert cancelled_inside >= 5


class _Adjacency(Exception):
    """Raised by a spy to hand back the matching's first adjacency."""


@pytest.mark.parametrize(
    "space", [PlainSpace(), ProductSpace(cyclic_group(2)), ProductSpace(cyclic_group(3))],
    ids=["F2", "F2xZ2", "F2xZ3"],
)
def test_the_preimage_search_gives_the_per_pair_adjacency(monkeypatch, space):
    # random canonical slices of U^{-eps} (full and empty ones among them),
    # sources cut into cells of depth 1-6 and movers up to 8 letters long:
    # each cell's ordered (key -> first mover) dict is the one built by
    # asking the oracle about every (cell, mover) in mover order
    def caught(lefts, adjacency, forbidden, colors):
        raise _Adjacency(lefts, adjacency)

    monkeypatch.setattr(comparison, "_kuhn_match", caught)
    rng = random.Random(f"preimage-search/{len(space.labels)}")
    shapes = set()
    edges = cancelled = matchings = 0
    for _ in range(40):
        ueff = space.from_slices({
            lbl: rng.choice([ClopenSet.full_set(), ClopenSet.empty(), _random_clopen(rng)])
            for lbl in space.labels
        })
        shapes.update("full" if sl.full else "empty" if sl.is_empty() else "part"
                      for _, sl in space.slice_items(ueff))
        d = rng.randint(1, 6)
        sources = [
            space.from_slices({
                lbl: ClopenSet.union_all(
                    cyl(rng.choice(words_of_length(rng.randint(1, d)))) for _ in range(3)
                )
                for lbl in rng.sample(space.labels, rng.randint(1, len(space.labels)))
            })
            for _ in range(rng.randint(1, 2))
        ]
        movers = {space.identity}
        for _ in range(rng.randint(2, 12)):
            w = ""
            for _ in range(rng.randint(0, 8)):
                w += rng.choice(legal_next_letters(w))
            movers.add(space.elem(w, rng.choice(space.labels)))
        movers = sorted(movers, key=str)
        data = CountingData(movers, Fraction(1, 8), sources, space.full(), squares(space, movers))
        # a cell still without a key at the sources' depth ends the search
        # before any matching
        with monkeypatch.context() as m, pytest.raises((_Adjacency, DepthCapExceeded)) as got:
            m.setattr(space, "shrink", lambda s, eps: ueff, raising=False)
            m.setenv("PARATOWER_MAX_DEPTH", "0")
            petr_assign(space, data, 1, {"pass": True})
        if got.type is DepthCapExceeded:
            continue
        lefts, adjacency = got.value.args
        matchings += 1
        ueff_slices = dict(space.slice_items(ueff))
        elem_order = sorted(data.d_set, key=comparison._elem_order(space))
        assert len(lefts) == len(adjacency)
        for left in lefts:
            want = {}
            for g in elem_order:
                key = image_key(space, ueff_slices, g, left[1])
                if key is not None:
                    want.setdefault(key, g)
                    cancelled += moved_base(space.word_part(g), left[1][1]) is None
            assert list(adjacency[left].items()) == list(want.items()), left
            edges += len(want)
    assert shapes == {"full", "empty", "part"}
    assert matchings >= 20 and edges >= 100 and cancelled >= 20


# -- the matching against the per-element loop it replaced

def _kuhn_match_reference(lefts, adjacency, forbidden):
    """Kuhn's search over adjacency lists of explicit (colour, key) rights."""
    match_r, match_l = {}, {}

    def try_augment(l, visited):
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


def _petr_assign_reference(space, data, n):
    """The matching refined to one depth after another: every cell of every
    V_j at depth d, every mover of D asked about every cell with no memo,
    one edge per colour, one entry per cell grouped by _grouped.  Returns
    the verified witness and its depth, or (None, None)."""
    u_eff = space.shrink(data.target, data.epsilon)
    depth = max(
        [1] + [sl.depth() for v in data.sources for _, sl in space.slice_items(v)]
    )
    elem_order = sorted(data.d_set, key=comparison._elem_order(space))
    ueff_slices = dict(space.slice_items(u_eff))
    for d in range(depth, depth + comparison._extra_depth_budget() + 1):
        lefts, edges, edge_elem = [], {}, {}
        for j, v in enumerate(data.sources):
            for cell in cells(space, v, d):
                left = (j, cell)
                lefts.append(left)
                edges[left] = []
                for g in elem_order:
                    key = image_key(space, ueff_slices, g, cell)
                    if key is None:
                        continue
                    for color in range(n + 1):
                        edge_elem.setdefault((left, (color, key)), g)
                        edges[left].append((color, key))
        forbidden = set()
        matched = None
        for _ in range(100):
            matched = _kuhn_match_reference(lefts, edges, forbidden)
            if matched is None:
                break
            clash = comparison._color_clash(matched, n)
            if clash is None:
                break
            forbidden.add(clash)
            matched = None
        if matched is None:
            continue
        entries = [
            (j, space.cylinder(cell), edge_elem[(j, cell), matched[j, cell]], matched[j, cell][0])
            for j, cell in lefts
        ]
        w = SubeqWitness(
            space, data.sources, [data.target] * (n + 1), comparison._grouped(space, entries)
        )
        report = comparison.verify_witness(w)
        if report["pass"]:
            w.report = report
            return w, d
    return None, None


def _assigned_with_depth(space, data, n):
    """petr_assign's witness (or None) and the length of its deepest held
    cell, read off the cells whose image keys it asks for."""
    deepest = [0]
    image_keys = comparison._image_keys

    def spied(space, ueff_slices, movers, cells):
        deepest[0] = max([deepest[0]] + [len(w) for _, w in cells])
        return image_keys(space, ueff_slices, movers, cells)

    comparison._image_keys = spied
    try:
        return petr_assign(space, data, n), deepest[0]
    except comparison.DepthCapExceeded:
        return None, None
    finally:
        comparison._image_keys = image_keys


def _claim3_data(monkeypatch, inst, u_set):
    """(space, counting data, n) that build_comparison hands to petr_assign."""
    seen = []
    real = comparison.petr_assign

    def recorded(space, data, n, counting=None):
        seen.append((space, data, n))
        return real(space, data, n, counting)

    monkeypatch.setattr(comparison, "petr_assign", recorded)
    assert build_comparison(inst, u_set).passed
    monkeypatch.setattr(comparison, "petr_assign", real)
    return seen[0]


def _z3_counting_data(source: str):
    """Counting data on boundary × Z/3 built directly: D is five words with
    every label, V_j a cylinder at every label, U^{-eps} one cylinder."""
    space = ProductSpace(cyclic_group(3))
    d_set = [(w, k) for w in ["", "a", "A", "aB", "bA"] for k in space.labels]
    return space, CountingData(
        d_set, Fraction(1, 4), [space.uniform(cyl(source))], space.cylinder(("0", "a")),
        squares(space, d_set),
    )


@pytest.mark.parametrize(
    "case",
    ["F2-ab", "F2-Ba,aab", "F2xZ2-a0", "F2xZ2-ab0-ab1", "F2xZ3-aabb-3", "F2xZ3-aab-6"],
)
def test_matching_equals_the_per_element_loop(monkeypatch, case):
    k2 = cyclic_group(2)
    if case == "F2-ab":
        space, data, n = _claim3_data(monkeypatch, ComparisonInstance("F2"), cyl("ab"))
    elif case == "F2-Ba,aab":
        u_set = ClopenSet(["Ba", "aab"])
        space, data, n = _claim3_data(monkeypatch, ComparisonInstance("F2"), u_set)
    elif case == "F2xZ2-a0":
        u_set = ProductClopen(k2, {"0": cyl("a")})
        space, data, n = _claim3_data(monkeypatch, ComparisonInstance("F2xZ2"), u_set)
    elif case == "F2xZ2-ab0-ab1":
        u_set = ProductClopen(k2, {"0": cyl("ab"), "1": cyl("ab")})
        space, data, n = _claim3_data(monkeypatch, ComparisonInstance("F2xZ2"), u_set)
    else:
        _, source, n = case.split("-")
        space, data = _z3_counting_data(source)
        n = int(n)
    w, depth = _assigned_with_depth(space, data, n)
    ref, ref_depth = _petr_assign_reference(space, data, n)
    assert depth <= ref_depth
    assert w.to_json() == ref.to_json()
    assert w.report == ref.report


@pytest.mark.parametrize("refuse_first", [False, True], ids=["first-depth", "one-deeper"])
@pytest.mark.parametrize("space", SPACES, ids=["F2", "F2xZ3"])
def test_matching_equals_the_per_element_loop_on_random_data(monkeypatch, space, refuse_first):
    # random D, sources made of cylinders (uniform or not) and a target
    # cylinder; with refuse_first the first matched witness of each run is
    # refused, so both loops refine one level further
    refused = []
    real = comparison.verify_witness

    def check(w):
        if refuse_first and not refused:
            refused.append(w)
            return _failing_witness_check(w)
        return real(w)

    monkeypatch.setattr(comparison, "verify_witness", check)
    rng = random.Random(f"matching/{space.kind}")
    matched = 0
    for _ in range(150):
        words = {""}
        for _ in range(rng.randint(3, 8)):
            w = _random_element(rng, SPACE)
            words |= {w, inverse(w)}
        d_set = [space.elem(w, k) for w in sorted(words) for k in space.labels]
        sources = []
        for _ in range(rng.randint(1, 2)):
            c = ClopenSet.union_all(
                cyl(rng.choice(words_of_length(rng.randint(3, 5))))
                for _ in range(rng.randint(1, 3))
            )
            labels = rng.sample(space.labels, max(1, len(space.labels) - rng.randint(0, 1)))
            sources.append(space.from_slices({k: c for k in labels}))
        target = space.cylinder(rng.choice(cells(space, space.full(), 1)))
        data = CountingData(d_set, Fraction(1, 8), sources, target, squares(space, d_set))
        n = rng.randint(1, 8)
        if not check_counting(space, data, n)["pass"]:
            continue
        refused.clear()
        w, depth = _assigned_with_depth(space, data, n)
        refused.clear()
        ref, ref_depth = _petr_assign_reference(space, data, n)
        assert depth <= ref_depth
        assert w.to_json() == ref.to_json() and w.report == ref.report
        matched += 1
    assert matched >= 5


def _split_trace(monkeypatch):
    """Spy on the matching's steps: ("keys", cells asked about), ("kuhn",
    lefts placed, the lefts in order) and ("clash", the clash named or
    None)."""
    trace = []
    image_keys, kuhn, clash = comparison._image_keys, comparison._kuhn_match, comparison._color_clash

    def keys_spy(space, ueff_slices, movers, cells):
        trace.append(("keys", sorted(cells)))
        return image_keys(space, ueff_slices, movers, cells)

    def kuhn_spy(lefts, adjacency, forbidden, colors):
        matched = kuhn(lefts, adjacency, forbidden, colors)
        trace.append(("kuhn", len(matched), list(lefts)))
        return matched

    def clash_spy(matched, n):
        trace.append(("clash", clash(matched, n)))
        return trace[-1][1]

    monkeypatch.setattr(comparison, "_image_keys", keys_spy)
    monkeypatch.setattr(comparison, "_kuhn_match", kuhn_spy)
    monkeypatch.setattr(comparison, "_color_clash", clash_spy)
    return trace


def _split_case(sources, d_set):
    """F2 counting data with U^{-eps} = [a] (a counting report is taken as
    given): sources the cylinders ``sources``, movers ``d_set``."""
    return CountingData(
        d_set, Fraction(1, 4), [cyl(w) for w in sources], cyl("a"), squares(SPACE, d_set)
    )


# aBAB moves [baa] and [baB] inside [a] and abAB moves [bab] there, but
# neither moves the whole of [ba] inside
SPLIT_MOVERS = ["", "aBAB", "abAB"]
BA_CHILDREN = [(None, "baB"), (None, "baa"), (None, "bab")]


def test_a_base_without_an_image_key_splits_before_matching(monkeypatch):
    trace = _split_trace(monkeypatch)
    data = _split_case(["ba"], SPLIT_MOVERS)
    w = petr_assign(SPACE, data, 0, {"pass": True})
    # the children take their parent's place in refine order
    lefts = [(0, (None, "baa")), (0, (None, "bab")), (0, (None, "baB"))]
    assert trace[:3] == [("keys", [(None, "ba")]), ("keys", BA_CHILDREN), ("kuhn", 3, lefts)]
    monkeypatch.undo()
    assert verify_witness(w)["pass"]
    ref, ref_depth = _petr_assign_reference(SPACE, data, 0)
    assert ref_depth == 3 and w.to_json() == ref.to_json()


def test_a_cell_the_search_cannot_place_splits(monkeypatch):
    # one colour, and the identity is the only mover of the whole [aa]: the
    # second source's [aa] is left out, and its children go to aBAA and abAA
    trace = _split_trace(monkeypatch)
    data = _split_case(["aa", "aa"], ["", "aBAA", "abAA"])
    w = petr_assign(SPACE, data, 0, {"pass": True})
    assert trace[:3] == [
        ("keys", [(None, "aa")]),
        ("kuhn", 1, [(0, (None, "aa")), (1, (None, "aa"))]),
        ("keys", [(None, "aaB"), (None, "aaa"), (None, "aab")]),
    ]
    monkeypatch.undo()
    assert verify_witness(w)["pass"]
    assert [(i, p.to_json()["words"], g, c) for i, p, g, c in w.entries] == [
        (0, ["aa"], "", 0), (1, ["aaB", "aaa"], "aBAA", 0), (1, ["aab"], "abAA", 0)
    ]
    assert _petr_assign_reference(SPACE, data, 0)[1] == 3


def test_a_clash_past_the_tries_splits_the_cell_it_names(monkeypatch):
    # aaaaa moves the whole of [ba] into [aa], the first source's image
    trace = _split_trace(monkeypatch)
    monkeypatch.setattr(comparison, "MATCH_TRIES", 1)
    data = _split_case(["aa", "ba"], SPLIT_MOVERS + ["aaaaa"])
    w = petr_assign(SPACE, data, 0, {"pass": True})
    assert trace[:4] == [
        ("keys", [(None, "aa"), (None, "ba")]),
        ("kuhn", 2, [(0, (None, "aa")), (1, (None, "ba"))]),
        ("clash", ((1, (None, "ba")), (0, ((None, "aaaaaba"),)))),
        ("keys", BA_CHILDREN),
    ]
    monkeypatch.undo()
    assert verify_witness(w)["pass"]
    ref, ref_depth = _petr_assign_reference(SPACE, data, 0)
    assert ref_depth == 3 and w.to_json() == ref.to_json()


def test_a_search_that_keeps_clashing_stops_after_its_matchings(monkeypatch):
    # aaaaa moves every cell below [ba] into [aa], the first source's image,
    # and nothing else moves [ba] inside [a]: with one matching per level
    # the search stops after 9, while its cells are 4 levels above the cap
    monkeypatch.delenv("PARATOWER_MAX_DEPTH", raising=False)
    monkeypatch.setattr(comparison, "MATCH_TRIES", 1)
    data = _split_case(["aa", "ba", "ba"], ["", "aaaaa"])
    with pytest.raises(DepthCapExceeded) as refused:
        petr_assign(SPACE, data, 0, {"pass": True})
    assert str(refused.value) == (
        "no per-color disjoint matching up to depth 10 (deepest depth tried 6: 31 cells,"
        " 62 lookups) after 9 matchings; raise PARATOWER_MAX_DEPTH to search deeper"
    )


def test_a_cell_no_mover_can_reach_is_refused_without_splitting(monkeypatch):
    # every mover keeps K's label, and U^{-eps} lies at label 0 only, so no
    # mover moves a cell at label 1 inside at any depth
    monkeypatch.delenv("PARATOWER_MAX_DEPTH", raising=False)
    space = ProductSpace(cyclic_group(3))
    d_set = [(w, "0") for w in ["", "a", "A"]]
    sources, target = [space.cylinder(("1", "ab"))], space.cylinder(("0", "a"))
    data = CountingData(d_set, Fraction(1, 4), sources, target, squares(space, d_set))
    with pytest.raises(DepthCapExceeded) as refused:
        petr_assign(space, data, 1, {"pass": True})
    assert str(refused.value) == (
        "no per-color disjoint matching up to depth 10 (deepest depth tried 2: 1 cells,"
        " 0 lookups) after 0 matchings; raise PARATOWER_MAX_DEPTH to search deeper"
    )


def _zn_instance(k: int) -> ComparisonInstance:
    """F2 × Z/k through the one comparison path; ``ComparisonInstance``
    itself names only F2 and F2 × Z/2."""
    inst = ComparisonInstance.__new__(ComparisonInstance)
    inst.name, inst._space = f"F2xZ{k}", ProductSpace(cyclic_group(k))
    return inst


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_the_translates_of_d_squared_match_the_full_products(monkeypatch, k):
    # the translate searches of an F2 × Z/k build, the D² one among them,
    # each against the search that makes |D| products per candidate
    calls = []
    real = towers.disjoint_translates
    monkeypatch.setattr(
        towers, "disjoint_translates", lambda d, c: calls.append((d, c)) or real(d, c)
    )
    u_set = ProductClopen(cyclic_group(k), {"0": cyl("ab")})
    build_comparison(_zn_instance(k), u_set)
    (d_squared, count), = calls
    assert len(d_squared) > 100 and count == k
    assert real(d_squared, count) == oracles.disjoint_translates(d_squared, count)


@pytest.mark.parametrize("inst, k", [("F2xZ2", 2), (None, 3)])
def test_the_product_tower_check_makes_no_rows(monkeypatch, inst, k):
    # the F2 × Z/k check is decided on D = D² × K and the lifted sets'
    # factors, and more_towers makes no check: no clash check lists its
    # translates as rows
    decided, rows = [], []
    factors, first_hit = towers._disjoint_by_factors, towers._first_hit
    monkeypatch.setattr(
        towers, "_disjoint_by_factors",
        lambda fam, memo: decided.append(fam.kind) or factors(fam, memo),
    )
    monkeypatch.setattr(
        towers, "_first_hit",
        lambda fam, placed, r, memo, clash: (clash and rows.append(fam.kind))
        or first_hit(fam, placed, r, memo, clash),
    )
    u_set = ProductClopen(cyclic_group(k), {"0": cyl("ab")})
    instance = ComparisonInstance(inst) if inst else _zn_instance(k)
    assert build_comparison(instance, u_set).passed
    assert decided == ["F2xK"]
    assert rows == []


def _lifted_check(space, copies, d2) -> bool:
    """Whether the product check of ``build_comparison`` passes on copy j
    of the indexed towers lifted onto colour class j, with D = D² × K."""
    lifted = [
        space.lift(a, g, labels)
        for towers_j, labels in zip(copies, space.coloring(), strict=True)
        for a, g in towers_j
    ]
    f_squares = [space.elem(w, e) for w in d2 for e in space.labels]
    fam = towers.TowerFamily(
        space.kind, f_squares, lifted,
        k_group=space.k_group, cover_groups=[list(range(len(lifted)))],
    )
    return towers.verify_towers(fam, "exact").passed


@pytest.mark.parametrize("k", [None, 2, 3, 4], ids=["F2", "F2xZ2", "F2xZ3", "F2xZ4"])
def test_the_product_check_implies_the_base_and_indexed_checks(k):
    # the build runs neither the strengthened check nor the 2-tower check
    # nor the indexed one: each seeded family here fails one of them, and
    # so the product check of its lift.  On F2 there is one copy, so no
    # second copy to shift onto it
    space = PlainSpace() if k is None else ProductSpace(cyclic_group(k))
    m = len(space.coloring())
    d2 = sorted({multiply(u, v) for u in D5 for v in D5}, key=lambda w: (len(w), w))
    fam = towers.more_towers(d2, m)
    copies = [[fam.items[i] for i in idxs] for idxs in fam.cover_groups]
    assert towers.verify_towers(fam, "exact").passed and _lifted_check(space, copies, d2)

    d = d2[-1]
    defects = {
        "a duplicated tower": [copies[0] + copies[0][:1]] + copies[1:],
        "a copy without a cover tower": [copies[0][:1]] + copies[1:],
    }
    if m > 1:
        # copy 1 on the translate d·(copy 0): its shift is d s_0
        moved = [(subsets.translate(d, a), multiply(g, inverse(d))) for a, g in copies[0]]
        defects["a shift onto another copy's translate"] = [copies[0], moved] + copies[2:]

    # the strengthened cones on D_big = D²·shifts, cut wrong; copy j is
    # the base moved by shift j, as more_towers moves it
    shifts = fam.notes["shifts"]
    d_big = sorted({multiply(w, s) for w in d2 for s in shifts}, key=lambda w: (len(w), w))
    pad = "a" * max(map(len, d2))
    cones = towers._strengthened(d_big).items
    for name, base in {
        "a padding a^m, m the longest word of D², too short for D_big": [
            (subsets.cone(pad + x), inverse(pad + x)) for x in ("ba", "bA")
        ],
        "two equal base cones": [cones[0], cones[0]],
    }.items():
        assert not towers.verify_towers(towers.TowerFamily("F2", d_big, base)).passed, name
        defects[name] = [
            [(subsets.translate(s, a), multiply(g, inverse(s))) for a, g in base] for s in shifts
        ]
    for name, defect in defects.items():
        items = [t for towers_j in defect for t in towers_j]
        bounds = list(itertools.accumulate(map(len, defect), initial=0))
        groups = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        indexed = towers.TowerFamily("F2", d2, items, cover_groups=groups)
        assert not towers.verify_towers(indexed, "exact").passed, name
        assert not _lifted_check(space, defect, d2), name


@pytest.mark.parametrize(
    "inst, u_set",
    [("F2", cyl("aB")), ("F2xZ2", ProductClopen(cyclic_group(2), {"1": cyl("ba")}))],
    ids=["F2", "F2xZ2"],
)
def test_the_tower_stage_runs_one_exact_check(monkeypatch, inst, u_set):
    # the product check alone: the strengthened, 2-tower and indexed checks
    # are left to it, and only its cover is walked
    clash_checks, checked, cover_walks = [], [], []
    clash_walk, verify, first_hit = (
        towers._first_clash_walk, towers.verify_towers, towers._first_hit
    )

    def spied_hit(fam, placed, radius, memo, clash):
        if not clash:
            cover_walks.append(fam)
        return first_hit(fam, placed, radius, memo, clash)

    monkeypatch.setattr(
        towers, "_first_clash_walk",
        lambda fam, radius, memo: clash_checks.append(fam) or clash_walk(fam, radius, memo),
    )
    monkeypatch.setattr(
        comparison, "verify_towers", lambda fam, *a: checked.append(fam) or verify(fam, *a)
    )
    monkeypatch.setattr(towers, "_first_hit", spied_hit)
    assert build_comparison(ComparisonInstance(inst), u_set).passed
    (product,) = checked
    assert clash_checks == [product]
    assert cover_walks and all(fam is product for fam in cover_walks)


def test_f2xz7_builds_under_the_gate(monkeypatch):
    # the matching holds the sources' 98 bases and splits none of them
    trace = _split_trace(monkeypatch)
    u_set = ProductClopen(cyclic_group(7), {"0": cyl("ab")})
    cert = build_comparison(_zn_instance(7), u_set).to_json()
    assert cert["pass"]
    assert [(kind, len(x)) for kind, x, *_ in trace if kind == "keys"] == [("keys", 98)]
    monkeypatch.undo()
    for data in (cert["claim3_witness"], cert["boosted"]["witness"]):
        assert verify_witness(SubeqWitness.from_json(data))["pass"]


def test_the_gate_counts_the_lookups_it_would_make(monkeypatch):
    u_set = ProductClopen(cyclic_group(2), {"0": cyl("a")})
    space, data, n = _claim3_data(monkeypatch, ComparisonInstance("F2xZ2"), u_set)
    lookups = _refused_at_the_gate(monkeypatch, space, data, n, None)
    # at the budget the builder's depth runs and matches
    monkeypatch.undo()
    monkeypatch.setattr(comparison, "MATCH_BUDGET", lookups)
    assert petr_assign(space, data, n).report["pass"]


def test_the_gate_counts_the_cells_of_full_and_empty_slices(monkeypatch):
    # a full source and one with empty slices, past a counting report that
    # is taken as given
    space, data = _z3_counting_data("ab")
    data.sources = [space.full(), space.from_slices({"1": ClopenSet(["ab", "Ba"])})]
    # with 9 colours every base is placed without a split
    _refused_at_the_gate(monkeypatch, space, data, 8, {"pass": True})


def _refused_at_the_gate(monkeypatch, space, data, n, counting) -> int:
    """Check the gate's refusal of the sources' own bases, and of their
    children once the bases are let through, matched and their witness
    refused; returns the lookups of the bases."""
    cells = [
        (lbl, w)
        for v in data.sources
        for lbl, sl in space.slice_items(v)
        for w in (LETTERS if sl.full else sl.bases)
    ]
    depth = max(len(w) for _, w in cells)
    # a lookup is a cell with a mover that sends its label onto U^{-eps}
    ueff = dict(space.slice_items(space.shrink(data.target, data.epsilon)))
    lookups = sum(
        not ueff[space.act_label(g, lbl)].is_empty() for lbl, _ in cells for g in data.d_set
    )
    assert lookups < len(cells) * len(data.d_set)
    monkeypatch.setattr(comparison, "MATCH_BUDGET", lookups - 1)
    with pytest.raises(comparison.DepthCapExceeded) as refused:
        petr_assign(space, data, n, counting)
    assert str(refused.value) == (
        f"the matching down to depth {depth} needs {lookups} (cell, mover) lookups over"
        f" {len(cells)} held cells, above the budget of {lookups - 1}; no cells tried"
    )
    # every held cell splits into its three children, at its own label
    monkeypatch.setattr(comparison, "MATCH_BUDGET", lookups)
    monkeypatch.setattr(comparison, "verify_witness", _failing_witness_check)
    with pytest.raises(comparison.DepthCapExceeded) as refused:
        petr_assign(space, data, n, counting)
    assert str(refused.value) == (
        f"the matching down to depth {depth + 1} needs {3 * lookups} (cell, mover) lookups"
        f" over {3 * len(cells)} held cells, above the budget of {lookups};"
        f" deepest depth tried {depth}: {len(cells)} cells, {lookups} lookups"
    )
    return lookups
