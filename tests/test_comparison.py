import random
import sys
from fractions import Fraction

import pytest

import paratower.comparison as comparison
from paratower import prefix, subsets, towers
from paratower.boundary import ClopenSet, ProductClopen
from paratower.comparison import (
    ComparisonInstance,
    ConstructionFailed,
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
from paratower.words import inverse, legal_next_letters, multiply, words_of_length

SPACE = PlainSpace()


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
        (0, cyl("bB"), "a", 1),   # -> [abB]
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
    return CountingData(d_set, Fraction(1, 4), [cyl("aabb")], cyl("a"))


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
    data = CountingData([""], Fraction(1, 4), [cyl("a")], cyl("a"))
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
    nm = data["n"] * data["m"]
    assert Fraction(data["delta"]) < Fraction(1, 2 * nm * (nm + 1))
    assert data["boosted"]["report"]["pass"]


def test_build_comparison_rejects_empty_target():
    with pytest.raises(ValueError):
        build_comparison(ComparisonInstance("F2"), ClopenSet.empty())
    with pytest.raises(ValueError):
        ComparisonInstance("F5")


def _failing_towers(family, mode="exact", radius=None):
    checks = {c: {"pass": False, "counterexample": None} for c in ("disjoint", "cover")}
    return TowerCertificate(family.to_json(), mode, radius, checks)


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
    # every set of the stage is a translate of one of the three base cones,
    # and only those are ever translated
    assert len({(words, bases) for _, words, bases in inputs}) == 3


def test_tower_stage_builds_no_normal_form_for_a_translate(monkeypatch):
    # from the entry into more_towers to the end of the product check, the
    # walks read translates as (words, bases) pairs: a NormalForm of one
    # cone is made only for a base cone, a set handed to a builder or a
    # complement of one, never by translating a form
    made = []
    stage = [False]
    init = subsets.NormalForm.__init__
    more, verify = comparison.more_towers, comparison.verify_towers

    def spied(self, words=(), cones=()):
        init(self, words, cones)
        if stage[0]:
            made.append((sys._getframe(1).f_code, self))

    def entered(*a, **k):
        stage[0] = True
        return more(*a, **k)

    def left(*a, **k):
        try:
            return verify(*a, **k)
        finally:
            stage[0] = False

    monkeypatch.setattr(subsets.NormalForm, "__init__", spied)
    monkeypatch.setattr(comparison, "more_towers", entered)
    monkeypatch.setattr(comparison, "verify_towers", left)
    u_set = ProductClopen(cyclic_group(2), {"1": cyl("abABa")})
    assert build_comparison(ComparisonInstance("F2xZ2"), u_set).passed
    assert not stage[0]
    one_cone = [code for code, nf in made if len(nf.cones) == 1 and not nf.words]
    handed = towers._Translates.translate.__code__
    assert handed in one_cone
    assert set(one_cone) <= {
        handed, subsets.ConeSet.normal_form.__code__, subsets.NormalForm.complement.__code__
    }
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
        for cell in space.cells(src, depth):
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
            target = target.minus(space.cylinder((cut[0], cut[1] + rng.choice("ab"))))
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
            target = target.minus(space.cylinder((cut[0], cut[1] + rng.choice("ab"))))
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
                if any(prefix.moved_base(space.word_part(g), b) is None for b in sl.bases):
                    seen.add("cancelled")
    assert {"pass", "containment", "overlap", "full", "cancelled"} <= seen
    if isinstance(space, ProductSpace):
        assert "empty" in seen


# -- check_counting's translations against the set algebra

def _check_counting_sets(space, data, n):
    """check_counting as it was, translating every set with space.act:
    the reference for the report."""
    u_eff = space.shrink(data.target, data.epsilon)
    d2 = sorted(
        {space.mul(g, h) for g in data.d_set for h in data.d_set},
        key=comparison._elem_order(space),
    )
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
        data = CountingData(sorted(d_set, key=str), Fraction(1, 8), sources, _random_set(rng, space))
        n = rng.randint(0, 3)
        assert check_counting(space, data, n) == _check_counting_sets(space, data, n)


@pytest.mark.parametrize("space", SPACES, ids=["F2", "F2xZ3"])
def test_check_counting_per_word_equals_the_per_element_sweep(monkeypatch, space):
    # D holds each word with every label, as the builder's does; sources the
    # same at every label take one item per F2 word of D², and on F2 × Z/3
    # one more source, on one label only, keeps one item per element
    added = []
    real = comparison._add_weights

    def recorded(steps, slices, iw):
        added.append(iw)
        return real(steps, slices, iw)

    monkeypatch.setattr(comparison, "_add_weights", recorded)
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
        data = CountingData(d_set, Fraction(1, 8), uniform + other, _random_set(rng, space))
        n = rng.randint(0, 3)
        added.clear()
        got = check_counting(space, data, n)
        items = len(added)
        want = _check_counting_sets(space, data, n)
        assert (got["max_margin"], got["witness_cell"]) == (want["max_margin"], want["witness_cell"])
        assert got == want
        d2 = {space.mul(f, g) for f in d_set for g in d_set}
        d2_words = {space.word_part(f) for f in d2}
        assert items == len(d2_words) * len(uniform) + len(d2) * len(other) + len(d_set)


def test_check_counting_builds_no_product_set_for_a_uniform_source(monkeypatch):
    # the uniform sources add their translated slices to the shared step
    # function, the target's pull-backs slice by slice: the one product set
    # built is the shrunk target
    k3 = cyclic_group(3)
    space = ProductSpace(k3)
    rng = random.Random("counting-no-products")
    d_set = [space.elem(w, k) for w in ("", "ab", "BA") for k in space.labels]
    sources = [space.uniform(_random_clopen(rng)) for _ in range(3)]
    data = CountingData(d_set, Fraction(1, 8), sources, space.from_slices({"1": cyl("ab")}))
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
        data = CountingData(sorted(d_set, key=str), Fraction(1, 8), uniform + other, target)
        n = rng.randint(0, 3)
        swept.clear()
        got = check_counting(space, data, n)
        sweeps.add(len(swept))
        assert got == _check_counting_sets(space, data, n)
    assert 3 in sweeps


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
    # every (cell, mover) the matching asks about in one build, keyed off the
    # cell's moved bases, against the key of its canonical image
    calls = []
    image_key = comparison._image_key

    def recorded(space, ueff_slices, g, cell):
        found = image_key(space, ueff_slices, g, cell)
        calls.append((space, ueff_slices, g, cell, found))
        return found

    monkeypatch.setattr(comparison, "_image_key", recorded)
    assert build_comparison(inst, u_set).passed
    assert calls
    for space, ueff_slices, g, cell, found in calls:
        want = _canonical_image_key(space, ueff_slices, g, cell)
        assert found == want, (g, cell)


@pytest.mark.parametrize("space", SPACES, ids=["F2", "F2xZ3"])
def test_image_keys_of_cancelled_cells_are_the_canonical_ones(space):
    # the builds above move deep cells by short words, so no mover cancels a
    # whole cell there; shallow cells and random targets reach that path
    rng = random.Random(f"image-key/{space.kind}")
    cancelled_inside = 0
    for _ in range(300):
        ueff_slices = dict(space.slice_items(_random_set(rng, space)))
        cell = rng.choice(space.cells(space.full(), rng.randint(1, 3)))
        for _ in range(10):
            g = _random_element(rng, space)
            found = comparison._image_key(space, ueff_slices, g, cell)
            want = _canonical_image_key(space, ueff_slices, g, cell)
            assert found == want, (g, cell)
            if found is not None:
                cancelled_inside += prefix.moved_base(space.word_part(g), cell[1]) is None
    assert cancelled_inside >= 5


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
    """petr_assign as it was: every mover of D asked about every cell with
    no memo, one edge per colour, one entry per cell grouped by _grouped.
    Returns the verified witness and its depth, or (None, None)."""
    u_eff = space.shrink(data.target, data.epsilon)
    depth = max(
        [1] + [sl.depth() for v in data.sources for _, sl in space.slice_items(v)]
    )
    elem_order = sorted(data.d_set, key=comparison._elem_order(space))
    ueff_slices = dict(space.slice_items(u_eff))
    for d in range(depth, depth + comparison._extra_depth_budget() + 1):
        lefts, edges, edge_elem = [], {}, {}
        for j, v in enumerate(data.sources):
            for cell in space.cells(v, d):
                left = (j, cell)
                lefts.append(left)
                edges[left] = []
                for g in elem_order:
                    key = comparison._image_key(space, ueff_slices, g, cell)
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
    """petr_assign's witness (or None) and the depth of its last attempt."""
    depths = []
    cells = space.cells
    space.cells = lambda s, d: depths.append(d) or cells(s, d)
    try:
        return petr_assign(space, data, n), depths[-1]
    except comparison.DepthCapExceeded:
        return None, None
    finally:
        del space.cells


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
        d_set, Fraction(1, 4), [space.uniform(cyl(source))], space.cylinder(("0", "a"))
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
    assert depth == ref_depth
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
        target = space.cylinder(rng.choice(space.cells(space.full(), 1)))
        data = CountingData(d_set, Fraction(1, 8), sources, target)
        n = rng.randint(1, 8)
        if not check_counting(space, data, n)["pass"]:
            continue
        refused.clear()
        w, depth = _assigned_with_depth(space, data, n)
        refused.clear()
        ref, ref_depth = _petr_assign_reference(space, data, n)
        assert depth == ref_depth
        assert w.to_json() == ref.to_json() and w.report == ref.report
        matched += 1
    assert matched >= 5


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
    _refused_at_the_gate(monkeypatch, space, data, 3, {"pass": True})


def _refused_at_the_gate(monkeypatch, space, data, n, counting) -> int:
    """Check the gate's refusal at the first depth, and at the next one once
    the first is let through and its witness refused; returns the lookups
    of the first depth."""
    depth = max(sl.depth() for v in data.sources for _, sl in space.slice_items(v))
    cells = [cell for v in data.sources for cell in space.cells(v, depth)]
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
        f"the matching at depth {depth} needs {lookups} (cell, mover) lookups over"
        f" {len(cells)} cells, above the budget of {lookups - 1}; no depth tried"
    )
    monkeypatch.setattr(comparison, "MATCH_BUDGET", lookups)
    monkeypatch.setattr(comparison, "verify_witness", _failing_witness_check)
    with pytest.raises(comparison.DepthCapExceeded) as refused:
        petr_assign(space, data, n, counting)
    assert str(refused.value).startswith(f"the matching at depth {depth + 1} needs")
    assert str(refused.value).endswith(
        f"; deepest depth tried {depth}: {len(cells)} cells, {lookups} lookups"
    )
    return lookups
