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

import oracles
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


@given(st.lists(st.tuples(st.sampled_from("xy"), short_words), max_size=8))
@settings(max_examples=80, deadline=None)
def test_first_overlap_by_label_meets_only_at_one_label(entries):
    # owner k holds its (label, base) entries; an owner meets another only
    # where their bases meet at one label
    items = [(k, [(lbl, b)]) for k, (lbl, b) in enumerate(entries)]
    pair = prefix.first_overlap_by_label(items)
    overlapping = [
        (i, j)
        for (i, (li, bi)), (j, (lj, bj)) in itertools.combinations(enumerate(entries), 2)
        if li == lj and (bi.startswith(bj) or bj.startswith(bi))
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


# -- the one-scan canonical form and sorted containment against the
# two-step oracle


def subtree(w, depth):
    """The nodes `depth` levels below w; merged, they cascade up to w."""
    layer = [w]
    for _ in range(depth):
        layer = [x for v in layer for x in children(v)]
    return layer


def seeded_raw(rng, pieces=6):
    """(words, bases): random bases, some replaced by the whole subtree one
    or two levels below them; words that are random, equal to a base, or
    the parent or an ancestor of a base (which lets some families merge
    and blocks the others)."""
    bases = []
    for _ in range(rng.randint(0, pieces)):
        bases += subtree(random_word(rng, 5), rng.choice([0, 0, 1, 2]))
    words = [random_word(rng, 5) for _ in range(rng.randint(0, 3))]
    words += [b for b in bases if rng.random() < 0.1]
    words += [b[:t] for b in bases for t in range(len(b)) if rng.random() < 0.2]
    return words, bases


SUBTREE = subtree("", 2)
# (words, bases, canonical form) on the boundary (words None) and in the
# group: the root base, words equal to bases, a family merging twice up to
# the root's four children, and a family held back by its missing parent
CANONICAL_EDGES = [
    (None, ["", "ab"], (None, {""})),
    (None, SUBTREE, (None, {""})),
    (None, subtree("ab", 2) + ["aa", "aB"], (None, {"a"})),
    (["ab", "b"], ["ab", "abA"], ({"b"}, {"ab"})),
    (["", "a", "A", "b", "B"], SUBTREE, (set(), {""})),
    (["a", "A", "b", "B"], SUBTREE, (set(), {"a", "A", "b", "B"})),
    (["", "a", "A", "b"], SUBTREE, ({""}, {"a", "A", "b"} | set(children("B")))),
    (["a"], ["aa", "ab", "aB"], (set(), {"a"})),
    ([], ["aa", "ab", "aB"], (set(), {"aa", "ab", "aB"})),
]


def test_canonical_edges_match_the_two_step_oracle():
    for words, bases, (want_words, want_bases) in CANONICAL_EDGES:
        got = prefix.canonical(words, bases)
        assert got == oracles.canonical(words, bases)
        assert got == (None if want_words is None else frozenset(want_words), frozenset(want_bases))


def test_canonical_matches_the_two_step_oracle():
    rng = random.Random("prefix/canonical/oracle")
    for _ in range(1000):
        words, bases = seeded_raw(rng)
        assert prefix.canonical(words, bases) == oracles.canonical(words, bases)
        assert prefix.canonical(None, bases) == oracles.canonical(None, bases)


def test_canonical_matches_the_oracle_on_ten_thousand_bases():
    rng = random.Random("prefix/canonical/scale")
    words, bases = [], []
    while len(bases) < 10_000:
        more_words, more_bases = seeded_raw(rng)
        words += more_words
        bases += [random_word(rng, 9) for _ in range(10)] + more_bases
    for ws in (None, words):
        got = prefix.canonical(ws, bases)
        assert got == oracles.canonical(ws, bases)
        ordered = sorted(got[1])
        for w in words:
            assert prefix.under(w, ordered) == oracles.under(w, got[1])


def test_under_matches_the_prefix_probe():
    rng = random.Random("prefix/under")
    probes = ["", "a", "ab", "aba", "B"]
    for _ in range(300):
        words, bases = seeded_raw(rng)
        _, antichain = prefix.canonical(None, bases)
        ordered = sorted(antichain)
        for w in probes + words + bases + [b[:-1] for b in bases]:
            assert prefix.under(w, ordered) == oracles.under(w, antichain), (w, ordered)


def test_is_subset_and_group_inter_match_the_oracle():
    rng = random.Random("prefix/subset-inter")
    sets = [ClopenSet(raw) for raw in BOUNDARY_EDGES]
    forms = [NormalForm(*raw) for raw in GROUP_EDGES]
    for _ in range(150):
        words, bases = seeded_raw(rng)
        sets.append(ClopenSet(bases))
        forms.append(NormalForm(words, bases))
    for s in sets:
        for t in sets[: len(BOUNDARY_EDGES)] + rng.sample(sets, 6):
            for small in (s, s.inter(t)):
                want = t.full or small.is_empty() or (
                    not small.full and all(oracles.under(b, t.bases) for b in small.bases)
                )
                assert small.is_subset(t) == want, (small, t)
    for s in forms:
        for t in forms[: len(GROUP_EDGES)] + rng.sample(forms, 6):
            words = {u for u in s.words if oracles.under(u, t.cones)}
            words |= {u for u in t.words if u in s.words or oracles.under(u, s.cones)}
            got = s.inter(t)
            assert got.words == words and got.cones == prefix.meet(s.cones, t.cones), (s, t)


# -- complement and meet build their results without canonical


THREE_ROOTS = ["a", "A", "b"]


def random_pieces(rng, count, max_len):
    """Random nonempty reduced words; about a third of them replaced by
    their children, so that canonical has families to merge."""
    out = []
    for _ in range(count):
        w = random_word(rng, max_len) or rng.choice(ROOT_FAMILY)
        out.extend(children(w) if rng.random() < 0.3 else [w])
    return out


def test_group_complement_and_meet_are_canonical_as_built():
    rng = random.Random("prefix/in-form/group")
    raws = GROUP_EDGES + [
        ([], THREE_ROOTS),
        ([""], THREE_ROOTS),
        (["B", "Bab", "aa"], THREE_ROOTS[:2] + ["ba"]),
    ]
    raws += [
        (
            random_pieces(rng, rng.randint(0, 4), 5) + [""] * (rng.random() < 0.2),
            random_pieces(rng, rng.randint(0, 6), 5),
        )
        for _ in range(200)
    ]
    forms = [NormalForm(*raw) for raw in raws]
    # the edges (empty, full, three roots, forms holding words) meet every set
    edges = forms[: len(GROUP_EDGES) + 3]
    for s in forms:
        results = [s.complement()]
        for u in edges + rng.sample(forms, 4):
            results += [s.inter(u), u.inter(s), s.minus(u)]
        for r in results:
            assert isinstance(r.words, frozenset) and isinstance(r.cones, frozenset)
            assert NormalForm(r.words, r.cones).equals(r), (s, r)


def test_boundary_complement_and_meet_are_canonical_as_built():
    rng = random.Random("prefix/in-form/boundary")
    raws = BOUNDARY_EDGES + [THREE_ROOTS, ["a", "A", "bA", "ba"]]
    raws += [random_pieces(rng, rng.randint(0, 8), 5) for _ in range(200)]
    sets = [ClopenSet(raw) for raw in raws]
    edges = sets[: len(BOUNDARY_EDGES) + 2]
    for s in sets:
        results = [s.complement()]
        for t in edges + rng.sample(sets, 4):
            results += [s.inter(t), t.inter(s), s.minus(t)]
        for r in results:
            assert isinstance(r.bases, frozenset)
            assert ClopenSet(r.bases, r.full).equals(r), (s, r)
            assert "" not in r.bases


# -- the keys of a prefix trie


def trie_keys(words):
    """The keys by the trie's definition: "", the words and every node with
    two children or more, each with its nearest key above."""
    nodes = {w[:t] for w in words for t in range(len(w) + 1)} | {""}
    branching = {p for p in nodes if sum(p + y in nodes for y in legal_next_letters(p)) > 1}
    keys = {""} | set(words) | branching
    return {x: max((x[:t] for t in range(len(x)) if x[:t] in keys), key=len, default=None)
            for x in keys}


def grown(rng, stems):
    """A prefix of one of the stems grown by up to two letters: words that
    share long prefixes."""
    w = rng.choice(stems)
    w = w[: rng.randint(0, len(w))]
    for _ in range(rng.randint(0, 2)):
        w += rng.choice(legal_next_letters(w))
    return w


def test_branch_keys_are_the_words_and_branch_points_under_their_parents():
    rng = random.Random("prefix/branch-keys")
    for _ in range(300):
        stems = [random_word(rng, 12) for _ in range(rng.randint(1, 3))]
        words = sorted({grown(rng, stems) for _ in range(rng.randint(0, 8))})
        got = oracles.branch_keys(words)
        assert dict(got) == trie_keys(words) and len(got) == len(dict(got))
        # every key comes after its parent
        seen = set()
        for x, top in got:
            assert top is None or top in seen
            seen.add(x)
        # a repeated word is one key
        assert oracles.branch_keys(sorted(words + words[:2])) == got


def sweep_shape(rng):
    """Weights shaped like a comparison's counting sweep: about 700 words
    of 20 to 47 letters that share long runs of one letter, each weighted
    2, and 20 short words weighted -3 to -18."""
    weights = {}
    while len(weights) < 700:
        w = random_word(rng, 8) + "a" * rng.randint(24, 37) + "b"
        weights[reduce_word(w + rng.choice("abA"))] = 2
    for _ in range(20):
        weights[random_word(rng, rng.randint(1, 6))] = -3 * rng.randint(1, 6)
    return weights


def branch_nodes(nodes):
    """A branch_sums result with each child list read as a set."""
    sums, below = nodes
    return sums, {x: set(kids) for x, kids in below.items()}


def test_one_scan_branch_sums_match_the_two_pass_oracle():
    # the same keys, path sums and child sets as the keys-then-sums oracle:
    # "" weighted or not, words nested in words, and branch keys between
    # a word and its child keys
    rng = random.Random("prefix/branch-sums")
    cases = [
        {},
        {"": 5},
        {"": -1, "a": 2, "ab": 3, "abA": -4},
        {"aba": 1, "abb": 1, "abB": 1},
        {"a": 1, "abab": 2, "abaB": 3, "abB": 4, "b": 0},
    ]
    for _ in range(500):
        stems = [random_word(rng, 12) for _ in range(rng.randint(1, 3))]
        weights = {grown(rng, stems): rng.randint(-3, 3) for _ in range(rng.randint(0, 10))}
        if rng.random() < 0.3:
            weights[""] = rng.randint(-3, 3)
        cases.append(weights)
    cases += [sweep_shape(rng) for _ in range(3)]
    for weights in cases:
        got = prefix.branch_sums(weights)
        assert branch_nodes(got) == branch_nodes(oracles.branch_sums(weights)), weights
        assert all(len(set(kids)) == len(kids) > 0 for kids in got[1].values())
    assert len(cases[-1]) >= 700 and max(map(len, cases[-1])) >= 40


def test_key_cells_partition_the_boundary():
    rng = random.Random("prefix/key-cells")
    for _ in range(200):
        stems = [random_word(rng, 10) for _ in range(rng.randint(1, 3))]
        weights = {grown(rng, stems): rng.randint(-3, 3) for _ in range(rng.randint(0, 6))}
        sums, below = prefix.branch_sums(weights)
        cells = [c for x in sums for c in prefix.key_cells(x, below.get(x, ()), legal_next_letters)]
        assert prefix.first_overlap((c, c) for c in cells) is None
        assert ClopenSet(cells).is_full()
        # a cell's sum is the sum of the weights on its path
        for x, total in sums.items():
            for c in prefix.key_cells(x, below.get(x, ()), legal_next_letters):
                assert total == sum(v for w, v in weights.items() if c.startswith(w))


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
