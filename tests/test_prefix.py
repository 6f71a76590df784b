"""The prefix-antichain core against brute-force membership oracles.

Both views are checked pointwise on their raw inputs: the group view
(``NormalForm``) on every reduced word up to the depth of the inputs plus
two, the boundary view (``ClopenSet``) on deep prefixes that pass through
every node of the inputs' prefix trie plus uniformly random ones.
"""

import itertools
import random
import time

from hypothesis import given, settings, strategies as st

from paratower import prefix
from paratower.boundary import ClopenSet
from paratower.subsets import NormalForm
from paratower.words import ball, inverse, legal_next_letters, multiply, reduce_word

letters = st.sampled_from("aAbB")
short_words = st.lists(letters, max_size=3).map(reduce_word)
movers = st.lists(letters, max_size=2).map(reduce_word)
raw_groups = st.tuples(
    st.lists(short_words, max_size=3), st.lists(short_words, max_size=4)
)
raw_boundaries = st.lists(short_words.filter(bool), max_size=5)

ROOT_FAMILY = ["a", "A", "b", "B"]
# (words, cones): empty, full, base "" beside others, the identity word,
# the complete root family with and without the identity
GROUP_EDGES = [
    ([], []),
    ([], [""]),
    (["ab"], ["", "b"]),
    ([""], []),
    ([""], ROOT_FAMILY),
    ([], ROOT_FAMILY),
    (["a", ""], ["aa", "ab", "aB"]),
]
# cylinder bases: empty, base "" (the whole boundary), the root family,
# one completed family below the root
BOUNDARY_EDGES = [[], [""], ["", "ab"], ROOT_FAMILY, ["aa", "ab", "aB"], ["ba"]]
group_inputs = st.one_of(st.sampled_from(GROUP_EDGES), raw_groups)
boundary_inputs = st.one_of(st.sampled_from(BOUNDARY_EDGES), raw_boundaries)


# -- oracles


def in_group(raw, w):
    words, cones = raw
    return w in words or any(w.startswith(c) for c in cones)


def group_ball(*raws, extra=0):
    depth = max((len(x) for ws, cs in raws for x in list(ws) + list(cs)), default=0)
    return ball(depth + extra + 2)


def in_boundary(bases, point):
    return any(point.startswith(b) for b in bases)


def deep_points(*base_lists, depth=10, count=60, seed=0):
    """Reduced words of length `depth` through every trie node of the
    inputs, and `count` uniformly random ones."""
    rng = random.Random(seed)
    starts = {b[:t] for bs in base_lists for b in bs for t in range(len(b) + 1)}
    points = []
    for s in sorted(starts) + [""] * count:
        w = s
        while len(w) < depth:
            w += rng.choice(legal_next_letters(w))
        points.append(w)
    return points


def assert_group_form(nf):
    cones = sorted(nf.cones)
    assert all(not c2.startswith(c1) for c1, c2 in zip(cones, cones[1:]))
    assert not any(w.startswith(c) for w in nf.words for c in nf.cones)
    # no parent word with all its children as cones
    for w in nf.words:
        assert not all(w + y in nf.cones for y in legal_next_letters(w))


def assert_boundary_form(s):
    bases = sorted(s.bases)
    assert all(not b2.startswith(b1) for b1, b2 in zip(bases, bases[1:]))
    assert "" not in s.bases
    parents = {b[:-1] for b in s.bases}
    for p in parents:
        assert not all(p + y in s.bases for y in legal_next_letters(p))


# -- the group view


@given(group_inputs, group_inputs)
@settings(max_examples=80, deadline=None)
def test_group_view_matches_oracle(r, t):
    s, u = NormalForm(*r), NormalForm(*t)
    results = {
        "canonical": (s, lambda w: in_group(r, w)),
        "union": (s.union(u), lambda w: in_group(r, w) or in_group(t, w)),
        "inter": (s.inter(u), lambda w: in_group(r, w) and in_group(t, w)),
        "minus": (s.minus(u), lambda w: in_group(r, w) and not in_group(t, w)),
        "complement": (s.complement(), lambda w: not in_group(r, w)),
    }
    for name, (nf, oracle) in results.items():
        assert_group_form(nf)
        for w in group_ball(r, t):
            assert nf.contains(w) == oracle(w), (name, w)


@given(movers, group_inputs)
@settings(max_examples=80, deadline=None)
def test_group_translate_matches_oracle(g, r):
    moved = NormalForm(*r).translate(g)
    assert_group_form(moved)
    gi = inverse(g)
    for w in group_ball(r, extra=len(g)):
        assert moved.contains(w) == in_group(r, multiply(gi, w)), w


def test_group_edge_cases():
    assert NormalForm().complement().equals(NormalForm(cones=[""]))
    assert NormalForm(cones=[""]).complement().is_empty()
    assert NormalForm(words=["ab"], cones=["", "b"]).is_full()
    assert NormalForm(words=[""]).complement().equals(NormalForm(cones=ROOT_FAMILY))
    assert NormalForm(words=[""], cones=ROOT_FAMILY).is_full()
    root_family = NormalForm(cones=ROOT_FAMILY)
    assert not root_family.is_full()
    assert root_family.complement().equals(NormalForm(words=[""]))
    assert NormalForm(cones=[""]).translate("ab").is_full()


# -- the boundary view


@given(boundary_inputs, boundary_inputs)
@settings(max_examples=80, deadline=None)
def test_boundary_view_matches_oracle(a, b):
    s, t = ClopenSet(a), ClopenSet(b)
    results = {
        "canonical": (s, lambda p: in_boundary(a, p)),
        "union": (s.union(t), lambda p: in_boundary(a, p) or in_boundary(b, p)),
        "inter": (s.inter(t), lambda p: in_boundary(a, p) and in_boundary(b, p)),
        "minus": (s.minus(t), lambda p: in_boundary(a, p) and not in_boundary(b, p)),
        "complement": (s.complement(), lambda p: not in_boundary(a, p)),
    }
    for name, (c, oracle) in results.items():
        assert_boundary_form(c)
        for p in deep_points(a, b, c.bases):
            assert c.contains_point_prefix(p) == oracle(p), (name, p)


@given(movers, boundary_inputs)
@settings(max_examples=80, deadline=None)
def test_boundary_act_matches_oracle(g, a):
    moved = ClopenSet(a).act(g)
    assert_boundary_form(moved)
    gi = inverse(g)
    for p in deep_points(a, moved.bases, depth=12):
        # g^{-1}·p is known to depth 12 - |g|, deeper than every input base
        assert moved.contains_point_prefix(p) == in_boundary(a, multiply(gi, p)), p


def test_boundary_edge_cases():
    assert ClopenSet().complement().is_full()
    assert ClopenSet(full=True).complement().is_empty()
    assert ClopenSet([""]).is_full()
    assert ClopenSet(["", "ab"]).is_full()
    assert ClopenSet(ROOT_FAMILY).is_full()
    assert ClopenSet(["aa", "ab", "aB"]).bases == frozenset(["a"])
    assert ClopenSet(full=True).act("ab").is_full()


# -- canonical forms do not depend on how the input was written


@given(raw_boundaries, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_boundary_input_spelling(bases, rng):
    s = ClopenSet(bases)
    shuffled = bases + bases[: len(bases) // 2]
    rng.shuffle(shuffled)
    split = [c for b in bases for c in ([b] if rng.random() < 0.5 else children(b))]
    assert ClopenSet(shuffled).equals(s)
    assert ClopenSet(split).equals(s)


@given(raw_groups, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_group_input_spelling(raw, rng):
    words, cones = raw
    s = NormalForm(words, cones)
    shuffled = cones + cones[: len(cones) // 2]
    rng.shuffle(shuffled)
    assert NormalForm(list(reversed(words)) + words, shuffled).equals(s)
    # a cone W(h) is the word h beside the cones at h's children
    cut = [c for c in cones if rng.random() < 0.5]
    split_cones = [c for c in cones if c not in cut]
    split_cones += [k for c in cut for k in children(c)]
    assert NormalForm(words + cut, split_cones).equals(s)


def children(w):
    return [w + y for y in legal_next_letters(w)]


# -- the disjointness scan


@given(st.lists(st.lists(short_words, max_size=4), min_size=2, max_size=4))
@settings(max_examples=80, deadline=None)
def test_first_overlap_matches_pairwise_inter(raws):
    forms = [NormalForm(cones=r) for r in raws]
    pair = prefix.first_overlap([(c, i) for i, nf in enumerate(forms) for c in nf.cones])
    overlapping = [
        (i, j)
        for i, j in itertools.combinations(range(len(forms)), 2)
        if not forms[i].inter(forms[j]).is_empty()
    ]
    if pair is None:
        assert not overlapping
    else:
        assert tuple(sorted(pair)) in overlapping


# -- the first word of each membership pattern


def random_word(rng, max_len):
    w = ""
    for _ in range(rng.randint(0, max_len)):
        w += rng.choice(legal_next_letters(w))
    return w


def test_first_by_pattern_matches_ball_oracle():
    rng = random.Random("prefix/first_by_pattern")
    cases = [[NormalForm(*raw)] for raw in GROUP_EDGES]
    cases += [[NormalForm(*r), NormalForm(*t)] for r, t in zip(GROUP_EDGES, GROUP_EDGES[1:])]
    for _ in range(60):
        nfs = []
        for _ in range(rng.randint(1, 4)):
            nf = NormalForm(
                [random_word(rng, 3) for _ in range(rng.randint(0, 3))],
                [random_word(rng, 3) for _ in range(rng.randint(0, 4))],
            )
            nfs.append(nf.complement() if rng.random() < 0.3 else nf)
        cases.append(nfs)
    for nfs in cases:
        forms = [(nf.words, nf.cones) for nf in nfs]
        longest = max(nf.depth() for nf in nfs)
        # each word of a ball with its pattern, in ball order
        patterns = [
            (w, frozenset(k for k, nf in enumerate(nfs) if nf.contains(w)))
            for w in ball(max(6, longest + 2))
        ]

        def oracle(radius):
            first = {}
            for w, pattern in patterns:
                if len(w) <= radius:
                    first.setdefault(pattern, w)
            return list(first.items())

        for r in range(7):
            assert list(prefix.first_by_pattern(forms, r).items()) == oracle(r), (nfs, r)
        # past the longest key no new pattern occurs
        assert list(prefix.first_by_pattern(forms).items()) == oracle(longest + 2), nfs


# -- one base and no words


def test_canonical_one_base_exit_matches_the_full_path():
    # a base or a word under the one base sends the same set down the full
    # path; the base "" is the whole space in both views
    rng = random.Random("prefix/one-base")
    for b in [""] + [random_word(rng, 6) for _ in range(300)]:
        below = b + rng.choice(legal_next_letters(b))
        form = prefix.canonical(None, [b])
        assert form == prefix.canonical(None, [b, below]) == (None, frozenset([b]))
        form = prefix.canonical((), [b])
        assert form == prefix.canonical([below], [b]) == prefix.canonical(set(), [b, below])
        assert form == (frozenset(), frozenset([b]))
        assert ClopenSet([b]).is_full() == NormalForm(cones=[b]).is_full() == (b == "")


# -- scale


def test_complement_scales_to_ten_thousand_bases():
    rng = random.Random("prefix/scale")
    bases = []
    for _ in range(10_000):
        w = ""
        while len(w) < 9:
            w += rng.choice(legal_next_letters(w))
        bases.append(w)
    start = time.perf_counter()
    s = ClopenSet(bases)
    comp = s.complement()
    nf = NormalForm(cones=bases)
    nf_comp = nf.complement()
    took = time.perf_counter() - start
    assert took < 5.0, f"complement of 10^4 bases took {took:.2f} s"
    assert s.are_disjoint(comp) and s.union(comp).is_full()
    assert nf.inter(nf_comp).is_empty() and nf.union(nf_comp).is_full()
