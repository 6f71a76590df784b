import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import paratower.subsets as ss
from paratower import prefix
from paratower.boundary import (
    AperiodicPoint,
    ClopenSet,
    DepthInsufficient,
    GeodesicMap,
    PeriodicPoint,
    ProductClopen,
    TranslatedPoint,
    clopen_from_json,
    first_overlap,
    orbit_word,
    point_from_json,
    shrink,
)
from paratower.groups import cyclic_group
from paratower.words import (
    ball, inverse, legal_next_letters, multiply, reduce_word, words_of_length,
)

from oracles import OracleMap, RationalProbMeasure, branch_keys, moved_base, union

letters = st.sampled_from("aAbB")
reduced_words = st.lists(letters, max_size=6).map(reduce_word)
nonempty_words = reduced_words.filter(bool)
clopens = st.lists(nonempty_words, max_size=4).map(ClopenSet)


# -- points

def test_aperiodic_prefixes_are_consistent():
    z = AperiodicPoint()
    p10 = z.prefix(10)
    assert z.prefix(4) == p10[:4]
    # a b a b^2 a b^3 ...
    assert p10 == "ababbabbba"
    assert z.prefix(7) == "ababbab"


def test_periodic_point_validation():
    p = PeriodicPoint("a", "ba")
    assert p.prefix(5) == "ababa"
    with pytest.raises(ValueError):
        PeriodicPoint("a", "Ab")
    with pytest.raises(ValueError):
        PeriodicPoint("", "")


def test_translated_point_prefix():
    z = PeriodicPoint("", "ab")
    t = TranslatedPoint("BA", z)
    assert t.prefix(4) == multiply("BA", z.prefix(6))[:4]


def test_point_json_round_trip():
    for p in (AperiodicPoint(), PeriodicPoint("a", "ba"),
              TranslatedPoint("b", AperiodicPoint())):
        q = point_from_json(p.to_json())
        assert q.prefix(12) == p.prefix(12)


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "translate", "g": "aA", "base": {"kind": "aperiodic"}},
        {"kind": "translate", "g": ["a"], "base": {"kind": "aperiodic"}},
        {"kind": "periodic", "head": "", "cycle": "ab,"},
        {"kind": "periodic", "head": "x", "cycle": "a"},
        {"kind": "translate", "g": "a", "base": {"kind": "periodic", "head": "bB", "cycle": "a"}},
    ],
    ids=["unreduced-g", "list-g", "comma-in-cycle", "non-letter-head", "nested-base"],
)
def test_point_words_must_be_reduced(data):
    with pytest.raises(ValueError, match="reduced words"):
        point_from_json(data)


points = st.sampled_from(
    [AperiodicPoint(), PeriodicPoint("", "a"), PeriodicPoint("B", "ab"),
     TranslatedPoint("bA", AperiodicPoint())]
)


@given(points, clopens)
@settings(max_examples=80, deadline=None)
def test_orbit_word_moves_the_point_into_the_set(z, s):
    if s.is_empty():
        with pytest.raises(ValueError):
            orbit_word(z, s)
        return
    h = orbit_word(z, s)
    assert s.contains_point_prefix(TranslatedPoint(h, z).prefix(s.depth()))
    # h is the first base of s, or that base and one letter more
    c = "" if s.full else s.sorted_bases()[0]
    assert h[:len(c)] == c and len(h) - len(c) in (0, 1)


@given(st.lists(clopens, max_size=5))
@settings(max_examples=80, deadline=None)
def test_first_overlap_finds_a_meeting_pair(sets):
    meeting = [
        (i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))
        if not sets[i].are_disjoint(sets[j])
    ]
    pair = first_overlap(sets)
    if not meeting:
        assert pair is None
    else:
        assert pair in meeting


# -- clopen algebra

@given(clopens, clopens)
@settings(max_examples=60, deadline=None)
def test_clopen_algebra_pointwise(s, t):
    # ground truth on depth-7 prefixes
    union, inter, complement = s.union(t), s.inter(t), s.complement()
    for w in words_of_length(7):
        in_s = s.contains_point_prefix(w)
        in_t = t.contains_point_prefix(w)
        assert union.contains_point_prefix(w) == (in_s or in_t)
        assert inter.contains_point_prefix(w) == (in_s and in_t)
        assert complement.contains_point_prefix(w) == (not in_s)


@given(clopens)
@settings(max_examples=60, deadline=None)
def test_clopen_canonical_antichain(s):
    bases = sorted(s.bases)
    for b1, b2 in zip(bases, bases[1:]):
        assert not b2.startswith(b1)


@given(nonempty_words, clopens)
@settings(max_examples=60, deadline=None)
def test_act_round_trip(g, s):
    assert s.act(g).act(inverse(g)).equals(s)


@given(nonempty_words, nonempty_words, clopens)
@settings(max_examples=40, deadline=None)
def test_act_composes(g, h, s):
    assert s.act(h).act(g).equals(s.act(multiply(g, h)))


def _deepen(w: str, depth: int) -> str:
    # deterministic extension to a reduced word of the wanted length
    while len(w) < depth:
        w += "a" if w[-1:] not in ("a", "A") else "b"
    return w


@given(nonempty_words, clopens)
@settings(max_examples=40, deadline=None)
def test_act_pointwise(g, s):
    depth = s.act(g).depth() + len(g) + 1
    for w in (_deepen(w, depth) for w in words_of_length(4)[:200]):
        moved = multiply(g, w)[: s.act(g).depth()]
        assert s.act(g).contains_point_prefix(moved) == s.contains_point_prefix(
            w[: max(s.depth(), 1)]
        )


def _random_word(rng, length):
    return reduce_word(rng.choice("aAbB") for _ in range(length))


def _act_cases(rng, count):
    """(set, word) pairs: a set of 1-6 raw bases of length 1-4, and a word
    that half the time ends with the inverse of a base's prefix, so that
    it cancels bases whole.  Sets that merge into the whole boundary are
    left out."""
    for _ in range(count):
        s = ClopenSet(_random_word(rng, rng.randint(1, 4)) or "a" for _ in range(rng.randint(1, 6)))
        if s.full:
            continue
        g = _random_word(rng, rng.randint(0, 5))
        if rng.random() < 0.5:
            b = rng.choice(sorted(s.bases))
            g = multiply(g, inverse(b[: rng.randint(1, len(b))]))
        yield s, g


def test_act_moves_one_or_two_bases_without_canonical(monkeypatch):
    # no word cancels a base of these sets whole, so the moved bases are
    # the image's canonical ones as they come
    calls = []
    canonical = prefix.canonical
    monkeypatch.setattr(prefix, "canonical", lambda *a: calls.append(a) or canonical(*a))
    moved = 0
    for s, g in _act_cases(random.Random("act/few"), 400):
        if len(s.bases) > 2 or any(moved_base(g, b) is None for b in s.bases):
            continue
        calls.clear()
        img = s.act(g)
        assert not calls, (s, g)
        assert img.bases == {multiply(g, b) for b in s.bases}
        moved += 1
    assert moved >= 100
    # a split, and a third base, still go through the canonical form
    for s, g in [(ClopenSet(["a"]), "A"), (ClopenSet(["a", "b", "B"]), "a")]:
        calls.clear()
        s.act(g)
        assert calls


def test_act_is_the_canonical_form_of_the_translated_pieces():
    rng = random.Random("act/canonical")
    kinds = set()
    for s, g in _act_cases(rng, 600):
        pieces = prefix.translate(g, None, s.bases)[1]
        assert s.act(g).bases == ClopenSet(pieces).bases, (s, g)
        cancelled = any(moved_base(g, b) is None for b in s.bases)
        kinds.add((min(len(s.bases), 3), cancelled))
    assert kinds == {(n, c) for n in (1, 2, 3) for c in (False, True)}
    # moved one base at a time, a·{a, b, B} would be {aa, ab, aB}
    assert ClopenSet(["a", "b", "B"]).act("a").bases == {"a"}


def test_subset_and_disjoint():
    assert ClopenSet.cylinder("ab").is_subset(ClopenSet.cylinder("a"))
    assert not ClopenSet.cylinder("a").is_subset(ClopenSet.cylinder("ab"))
    assert ClopenSet.cylinder("a").are_disjoint(ClopenSet.cylinder("b"))
    assert not ClopenSet.cylinder("a").are_disjoint(ClopenSet.cylinder("ab"))


@pytest.mark.parametrize("w", ["aA", "abBa", "Bb", "ax", "a,b"])
def test_cylinder_rejects_a_word_that_is_not_reduced(w):
    # an unreduced word, or one with a letter outside a, A, b, B, names no
    # cylinder; the decoders reject it, and so does the constructor
    with pytest.raises(ValueError):
        ClopenSet.cylinder(w)
    assert ClopenSet.cylinder("aBa").bases == {"aBa"}


def test_refine_partitions():
    s = ClopenSet(["ab", "B"])
    pieces = s.refine(3)
    assert all(len(p) == 3 for p in pieces)
    rebuilt = ClopenSet(pieces)
    assert rebuilt.equals(s)
    with pytest.raises(DepthInsufficient):
        s.refine(1)


def test_shrink_drops_boundary_cells():
    u = ClopenSet.cylinder("a")
    # every point of [a] is at distance 1 from the complement
    assert shrink(u, Fraction(1, 2)).equals(u)
    assert shrink(u, Fraction(2)).is_empty()
    assert shrink(ClopenSet.full_set(), Fraction(1, 2)).is_full()
    deep = ClopenSet(["ab"])
    # every point of [ab] sits at distance exactly 1/2 from the complement
    assert shrink(deep, Fraction(1, 4)).equals(deep)
    assert shrink(deep, Fraction(1, 2)).is_empty()


def test_clopen_json_round_trip():
    for s in (ClopenSet.full_set(), ClopenSet.empty(), ClopenSet(["ab", "B"])):
        assert clopen_from_json(s.to_json()).equals(s)
    k = cyclic_group(2)
    p = ProductClopen(k, {"0": ClopenSet.cylinder("a")})
    assert clopen_from_json(p.to_json()).equals(p)


def test_product_clopen_act_shifts_labels():
    k = cyclic_group(2)
    p = ProductClopen(k, {"0": ClopenSet.cylinder("b")})
    moved = p.act(("a", "1"))
    assert moved.slices["1"].equals(ClopenSet.cylinder("ab"))
    assert moved.slices["0"].is_empty()
    back = moved.act((inverse("a"), "1"))
    assert back.equals(p)


def test_product_clopen_comparisons_need_one_k():
    # a set over Z/1 agrees with a Z/2 set at "0" and says nothing of "1";
    # equal groups built apart compare as one
    a = ClopenSet.cylinder("a")
    z1 = ProductClopen(cyclic_group(1), {"0": a})
    z2 = ProductClopen(cyclic_group(2), {"0": a, "1": ClopenSet.cylinder("b")})
    for x, y in ((z1, z2), (z2, z1)):
        for compare in (x.equals, x.is_subset, x.are_disjoint):
            with pytest.raises(ValueError, match="Z/"):
                compare(y)
    twin = ProductClopen(cyclic_group(2), dict(z2.slices))
    assert z2.equals(twin) and twin.is_subset(z2) and not z2.are_disjoint(twin)


# -- measures and the averaging map

def test_measure_validation():
    with pytest.raises(ValueError):
        RationalProbMeasure({"": Fraction(1, 2)})
    with pytest.raises(ValueError):
        RationalProbMeasure({"": Fraction(3, 2), "a": Fraction(-1, 2)})


def test_measure_translation_and_distance():
    mu = RationalProbMeasure({"": Fraction(1, 2), "a": Fraction(1, 2)})
    nu = mu.translated("a")
    assert nu.mass == {"a": Fraction(1, 2), "aa": Fraction(1, 2)}
    assert mu.l1_distance(mu) == 0
    # the "a" atom survives the shift, the other two differ by 1/2 each
    assert mu.l1_distance(nu) == Fraction(1)


def test_geodesic_measure_at_point():
    gm = OracleMap(4)
    z = PeriodicPoint("", "ab")
    mu = gm.measure_at(z)
    assert mu.mass == {p: Fraction(1, 4) for p in ["", "a", "ab", "aba"]}
    assert mu.of_subset(ss.cone("a")) == Fraction(3, 4)


def test_mu_eval_matches_measure():
    gm = OracleMap(8)
    s = union(ss.cone("ab"), ss.finite(["a"]))
    z = PeriodicPoint("", "ab")
    exact = gm.measure_at(z).of_subset(s)
    assert gm.mu_eval(z.prefix(8), s) == exact
    with pytest.raises(DepthInsufficient):
        gm.mu_eval("a", ss.cone("abab"))


@given(nonempty_words)
@settings(max_examples=50, deadline=None)
def test_threshold_set_is_exact(h):
    gm = OracleMap(16)
    s = ss.cone(h)
    theta = Fraction(1, 3)
    thr = gm.threshold_weighted([s.normal_form()], [Fraction(1)], theta)
    # spot check on depth-17 points
    for w in words_of_length(6)[:60]:
        deep = w + "a" * 0
        # extend to a depth-17 reduced word along a fixed rule
        while len(deep) < 17:
            nxt = "a" if deep[-1] not in ("a", "A") else "b"
            deep += nxt
        val = gm.mu_eval(deep, s)
        assert thr.contains_point_prefix(deep[: max(thr.depth(), 1)]) == (val > theta)


def test_defect_bound_and_exact_defect():
    gm = OracleMap(64)
    g = "a"
    base = "b" * 0 + "baba" * 17  # depth 68 >= 64 + |g|, no cancellation with a
    base = ("b" + "ab" * 40)[:66]
    base = reduce_word(base)
    assert len(base) >= 65
    d = gm.defect(g, base)
    assert d <= gm.defect_bound(g)
    assert d == Fraction(2, 64)
    with pytest.raises(DepthInsufficient):
        gm.defect("a", "ab")


def test_threshold_kernel_keeps_the_step_cells_above_theta():
    # the integer kernel against the Fraction values of the same cells:
    # weights over several denominators and a zero one, forms with words,
    # and each attained value as theta, which must not keep its own cells
    gm = GeodesicMap(7)
    nfs = [
        union(ss.cone("ab"), ss.finite(["", "a", "b"])).nf,
        union(ss.cone("ba"), ss.cone("aab"), ss.finite(["A"])).nf,
        ss.cone("a").normal_form(),
        union(ss.cone("Bab"), ss.finite(["B", "Ba"])).nf,
    ]
    assert any(nf.words for nf in nfs)
    weights = [Fraction(1, 3), Fraction(2, 5), Fraction(0), Fraction(7, 4)]
    cells = gm.step_cells(nfs, weights)
    values = sorted({v for _, v in cells})
    assert len(values) > 3
    thetas = values + [Fraction(-1), Fraction(1, 7), values[-1] + 1]
    for theta in thetas:
        keep = [b for b, v in cells if v > theta]
        want = ClopenSet.full_set() if "" in keep else ClopenSet(keep)
        assert gm.threshold_weighted(nfs, weights, theta).equals(want), theta
    # > is strict: at the largest value no cell is kept
    assert gm.threshold_weighted(nfs, weights, values[-1]).is_empty()


def test_step_cells_partition():
    gm = GeodesicMap(8)
    nfs = [ss.cone("a").normal_form(), ss.cone("ba").normal_form()]
    cells = gm.step_cells(nfs, [Fraction(1), Fraction(2)])
    rebuilt = ClopenSet([b for b, _ in cells if b])
    if any(b == "" for b, _ in cells):
        assert len(cells) == 1
    else:
        assert rebuilt.is_full()


def _stem_word(rng, stems, extra):
    """A prefix of a random stem grown by up to `extra` letters."""
    stem = rng.choice(stems)
    w = stem[: rng.randint(0, len(stem))]
    for _ in range(rng.randint(0, extra)):
        w += rng.choice(legal_next_letters(w))
    return w


def _chain_forms(rng):
    """1-3 normal forms whose bases are cut from two or three stems of 10-20
    letters and grown by up to 3 letters, so that the keys sit far apart on
    long chains, with words cut from the same stems, on those chains."""
    stems = []
    for _ in range(rng.randint(2, 3)):
        w = ""
        for _ in range(rng.randint(10, 20)):
            w += rng.choice(legal_next_letters(w))
        stems.append(w)
    return [
        ss.NormalForm(
            [_stem_word(rng, stems, 0) for _ in range(rng.randint(0, 3))],
            [_stem_word(rng, stems, 3) for _ in range(rng.randint(1, 4))],
        )
        for _ in range(rng.randint(1, 3))
    ]


def _pad(w, depth, pick):
    while len(w) < depth:
        w += legal_next_letters(w)[pick]
    return w


def test_key_scan_cells_match_the_pointwise_measure():
    # step cells against mu_N at points of each cell, with N below and above
    # the deepest base; the threshold set against the union of the kept
    # cells, including cells off a chain between two keys
    rng = random.Random("boundary/key-scan-cells")
    kept_chain_leaves = 0
    for case in range(60):
        nfs = _chain_forms(rng)
        depth = max(nf.depth() for nf in nfs)
        gm = OracleMap(rng.choice([rng.randint(1, max(depth, 1)), depth + rng.randint(1, 6)]))
        weights = [Fraction(rng.randint(-3, 5), rng.randint(1, 4)) for _ in nfs]
        cells = gm.step_cells(nfs, weights)
        # a partition: disjoint, and together the whole boundary
        assert prefix.first_overlap((c, i) for i, (c, _) in enumerate(cells)) is None
        assert ClopenSet([c for c, _ in cells]).is_full()
        for c, value in cells:
            for pick in (0, -1):
                x = _pad(c, max(depth, gm.n) + 1, pick)
                want = sum(
                    w * gm.mu_eval(x, ss.NormalizedSet(nf)) for w, nf in zip(weights, nfs)
                )
                assert value == want, (case, c)
        keys = {x for x, _ in branch_keys(sorted(
            {x for nf in nfs for x in nf.words | nf.cones}
        ))}
        for theta in sorted({v for _, v in cells}) + [Fraction(-100)]:
            kept = [c for c, v in cells if v > theta]
            assert gm.threshold_weighted(nfs, weights, theta).equals(ClopenSet(kept))
            kept_chain_leaves += sum(c not in keys and c[:-1] not in keys for c in kept)
    assert kept_chain_leaves > 0
