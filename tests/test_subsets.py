"""Property tests for tower sets of the free group.

Ground truth is pointwise membership on a word ball.  Random sets are
built from cones and finite sets by the ``NormalForm`` operations, each
paired with a membership predicate composed from the same steps: every
result must agree with its predicate, hold the antichain invariants, and
obey the boolean-algebra laws, checked as equal normal forms.
"""

import pytest
from hypothesis import given, settings, strategies as st

import paratower.subsets as ss
from paratower.boundary import AperiodicPoint, ClopenSet
from paratower.subsets import NormalForm, NormalizedSet
from paratower.words import ball, inverse, multiply, reduce_word

CHECK_BALL = list(ball(6))

letters = st.sampled_from("aAbB")
reduced_words = st.lists(letters, max_size=6).map(reduce_word)
short_words = st.lists(letters, max_size=4).map(reduce_word)


def _cone(h):
    return ss.cone(h), lambda w: w.startswith(h)


def _finite(ws):
    held = frozenset(ws)
    return ss.finite(ws), lambda w: w in held


def _union(pair):
    (s, f), (t, g) = pair
    return NormalizedSet(s.nf.union(t.nf)), lambda w: f(w) or g(w)


def _inter(pair):
    (s, f), (t, g) = pair
    return NormalizedSet(s.nf.inter(t.nf)), lambda w: f(w) and g(w)


def _complement(child):
    s, f = child
    return NormalizedSet(s.nf.complement()), lambda w: not f(w)


def _translate(pair):
    g, (s, f) = pair
    gi = inverse(g)
    return ss.translate(g, s), lambda w: f(multiply(gi, w))


# (set, membership predicate) pairs
atoms = st.one_of(reduced_words.map(_cone), st.lists(reduced_words, max_size=3).map(_finite))
pairs = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.tuples(children, children).map(_union),
        st.tuples(children, children).map(_inter),
        children.map(_complement),
        st.tuples(short_words, children).map(_translate),
    ),
    max_leaves=5,
)
sets = pairs.map(lambda p: p[0])


@given(pairs)
@settings(max_examples=60, deadline=None)
def test_normal_form_preserves_membership(pair):
    s, member = pair
    for w in CHECK_BALL:
        assert s.contains(w) == s.nf.contains(w) == member(w), w


@given(sets)
@settings(max_examples=60, deadline=None)
def test_normal_form_antichain_invariants(s):
    nf = s.normal_form()
    cones = sorted(nf.cones)
    for c1, c2 in zip(cones, cones[1:]):
        assert not c2.startswith(c1)
    for w in nf.words:
        assert not any(w.startswith(c) for c in nf.cones)


@given(sets, sets)
@settings(max_examples=40, deadline=None)
def test_boolean_algebra_pointwise(s, t):
    u = s.nf.union(t.nf)
    i = s.nf.inter(t.nf)
    c = s.nf.complement()
    for w in CHECK_BALL:
        assert u.contains(w) == (s.contains(w) or t.contains(w))
        assert i.contains(w) == (s.contains(w) and t.contains(w))
        assert c.contains(w) == (not s.contains(w))


@given(sets)
@settings(max_examples=40, deadline=None)
def test_double_complement(s):
    assert s.nf.complement().complement().equals(s.nf)


@given(sets, sets)
@settings(max_examples=40, deadline=None)
def test_de_morgan(s, t):
    x, y = s.nf, t.nf
    assert x.union(y).complement().equals(x.complement().inter(y.complement()))
    assert x.inter(y).complement().equals(x.complement().union(y.complement()))


@given(short_words, sets)
@settings(max_examples=40, deadline=None)
def test_translate_membership(g, s):
    moved = ss.translate(g, s)
    for w in CHECK_BALL[: len(ball(4))]:
        assert moved.contains(multiply(g, w)) == s.contains(w)


@given(short_words, short_words, sets)
@settings(max_examples=30, deadline=None)
def test_translate_composes(g, h, s):
    lhs = ss.translate(g, ss.translate(h, s))
    rhs = ss.translate(multiply(g, h), s)
    assert lhs.nf.equals(rhs.nf)


@given(reduced_words)
@settings(max_examples=100, deadline=None)
def test_shifted_cone_complement_is_a_cone(h):
    # h^{-1}·W(h) misses exactly the cone at the inverse of h's last letter
    if not h:
        return
    moved = ss.translate(inverse(h), ss.cone(h)).nf
    expected = ss.cone(inverse(h[-1])).nf
    assert moved.complement().equals(expected)
    assert moved.union(expected).is_full()
    assert moved.inter(expected).is_empty()


def test_full_and_empty():
    full = NormalForm(cones=[""])
    assert full.is_full() and full.complement().is_empty()
    assert ss.empty_set().nf.is_empty()
    assert full.complement().equals(ss.empty_set().nf)
    assert ss.cone("").nf.is_full()


def test_cone_rejects_unreduced_base():
    with pytest.raises(ValueError):
        ss.cone("aA")
    with pytest.raises(ValueError):
        ss.finite(["bB"])


def test_merge_completes_families():
    # a word plus cones at all its children collapses to the cone at the word
    nf = NormalForm(words=["ab"], cones=["aba", "abA", "abb"])
    assert nf.cones == frozenset(["ab"])
    assert not nf.words


@given(sets)
@settings(max_examples=40, deadline=None)
def test_json_round_trip(s):
    back = ss.subset_from_json(s.to_json())
    assert back.nf.equals(s.nf)
    assert back.to_json() == s.to_json()


def test_a_union_decodes_to_its_normal_form():
    data = {
        "kind": "union",
        "parts": [
            {"kind": "cone", "base": "ab"},
            {"kind": "finite", "words": ["ab", "b"]},
            {"kind": "union", "parts": [{"kind": "cone", "base": "aba"}]},
        ],
    }
    s = ss.subset_from_json(data)
    assert s.nf.equals(NormalForm(words=["b"], cones=["ab"]))


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "finite", "words": ["aA"]},
        {"kind": "cone", "base": ["a"]},
        {"kind": "union", "parts": {"kind": "cone", "base": "a"}},
    ],
    ids=["unreduced-word", "base-list", "parts-object"],
)
def test_decoder_refuses_a_malformed_set(data):
    # the set kinds that no builder writes are refused by
    # test_cli.py::test_verify_rejects_forged_tower_family
    with pytest.raises(ValueError):
        ss.subset_from_json(data)


def test_orbit_preimage_membership():
    z = AperiodicPoint()
    # z starts with "ab", so [ab] contains z and a·[ab] tests translation
    pre = ss.OrbitPreimage(z, ClopenSet.cylinder("ab"))
    assert pre.contains("")
    assert pre.contains("a") == ClopenSet.cylinder("ab").contains_point_prefix(
        multiply("a", z.prefix(4))[:2]
    )
    with pytest.raises(ss.NotNormalizable):
        pre.normal_form()
    assert ss.subset_from_json(pre.to_json()).to_json() == pre.to_json()
    # g·pre is an orbit preimage again, with the membership of a lazy
    # translate: w ∈ g·pre exactly when g⁻¹w ∈ pre
    for g in ("a", "B", "ab", "bAB", "abab"):
        moved = ss.translate(g, pre)
        assert isinstance(moved, ss.OrbitPreimage)
        for w in ball(4):
            assert moved.contains(w) == pre.contains(multiply(inverse(g), w)), (g, w)
