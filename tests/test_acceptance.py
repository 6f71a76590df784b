"""End-to-end suite: every headline guarantee with its time budget."""

import copy
import random
import time
from fractions import Fraction

import paratower.certificates as certs
import paratower.subsets as ss
from paratower.boundary import ClopenSet
from paratower.coloring import greedy_color
from paratower.comparison import (
    ComparisonInstance,
    PlainSpace,
    SubeqWitness,
    boost,
    build_comparison,
    compose,
    verify_witness,
)
from paratower.crossed import build_isometry
from paratower.groups import cyclic_group
from paratower.towers import (
    TowerFamily,
    extension_towers,
    f2_towers,
    finite_normal_ext_towers,
    more_towers,
    towers_from_filling,
    union_towers,
    verify_towers,
)
from paratower.words import inverse, legal_next_letters, reduce_word

from oracles import OracleMap, cone_towers, union

D5 = ["", "a", "A", "b", "B"]


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, f"took {elapsed:.1f}s > {self.seconds}s"


def _random_reduced(rng: random.Random, length: int) -> str:
    w = ""
    for _ in range(length):
        w += rng.choice(legal_next_letters(w))
    return w


def test_01_cone_towers_exact_and_ball_crosscheck():
    with Budget(10):
        fam = f2_towers(D5)
        assert verify_towers(fam, "exact").passed
        # cross-check on the radius-12 ball, read off the prefix trie, and
        # of the three strengthened cones the 2-tower family is cut from
        assert verify_towers(fam, "ball", 12).passed
        assert verify_towers(cone_towers(D5, "aa"), "ball", 12).passed


def test_02_shifted_cone_complement_is_a_cone():
    with Budget(5):
        rng = random.Random(0)
        for _ in range(200):
            h = _random_reduced(rng, rng.randint(1, 8))
            moved = ss.translate(inverse(h), ss.cone(h)).normal_form()
            other = ss.cone(inverse(h[-1])).normal_form()
            assert moved.inter(other).is_empty()
            assert moved.union(other).is_full()


def test_03_indexed_tower_copies_on_ball():
    with Budget(10):
        fam = more_towers(D5, 3)
        assert len(fam.cover_groups) == 3
        cert = verify_towers(fam, "ball", 8)
        assert cert.passed
        assert cert.checks["disjoint"]["pass"]
        assert cert.checks["cover"]["pass"]


def test_04_extension_constructors():
    with Budget(60):
        k = cyclic_group(2)
        fam = finite_normal_ext_towers([("", "0"), ("a", "1"), ("A", "1")], k)
        assert verify_towers(fam, "ball", 6).passed
        fam = extension_towers([("a", "b"), ("A", "B")])
        assert verify_towers(fam, "ball", 4).passed
        fam = union_towers(D5)
        assert verify_towers(fam, "ball", 5).passed
        fam = towers_from_filling(["", "a", "A"])
        assert verify_towers(fam, "ball", 8).passed


def test_05_cayley_colorings():
    with Budget(2):
        c = greedy_color("Z", [-1, 0, 1])
        window = range(-10_000, 10_001)
        assert c.is_proper_on(window)
        assert {c.color_of(j) for j in window} <= set(range(1, 6))
        k = cyclic_group(2)
        c2 = greedy_color(k, ["0", "1"])
        assert c2.m == 2
        assert [c2.color_class(j) for j in (1, 2)] == [{"0"}, {"1"}]


def test_06_averaging_defect_bound():
    with Budget(2):
        gm = OracleMap(64)
        rng = random.Random(1)
        for _ in range(100):
            g = ""
            while not g:
                g = _random_reduced(rng, rng.randint(1, 3))
            base = _random_reduced(rng, 70)
            assert gm.defect(g, base) <= Fraction(2 * len(g), 64)
        # the bound is attained for a single letter on a non-cancelling base
        base = reduce_word(("b" + "ab" * 40)[:66])
        assert gm.defect("a", base) == Fraction(2, 64)


def _check_comparison(cert):
    data = cert.data
    assert cert.passed
    assert certs.verify_certificate(certs.wrap("comparison", data))[0] == 0
    # independent recheck of every recorded witness
    claim2, claim3, final = (
        SubeqWitness.from_json(w)
        for w in (data["claim2_witness"], data["claim3_witness"], data["boosted"]["witness"])
    )
    for w in (claim2, claim3, final):
        assert verify_witness(w)["pass"]
    # the final witness is the one boost and compose make of claims 2 and 3
    u_set = final.space.set_from_json(data["U"])
    assert boost(compose(claim2, claim3), u_set).to_json() == data["boosted"]["witness"]


def test_07_full_comparison_pipeline():
    with Budget(60):
        cert = build_comparison(
            ComparisonInstance("F2"), ClopenSet.cylinder("ab")
        )
        _check_comparison(cert)
    with Budget(120):
        from paratower.boundary import ProductClopen

        k = cyclic_group(2)
        u_set = ProductClopen(k, {"0": ClopenSet.cylinder("a")})
        cert = build_comparison(ComparisonInstance("F2xZ2"), u_set)
        _check_comparison(cert)
        # one copy per colour class of Z/2: claim 3 has n + 1 targets
        assert len(ComparisonInstance("F2xZ2").space().coloring()) == 2


def test_08_isometry_not_unitary():
    with Budget(5):
        cert = build_isometry(ClopenSet.cylinder("a"))
        assert cert.passed
        checks = cert.data["checks"]
        for name in ("isometry", "range_inside_u", "not_unitary"):
            assert checks[name], name
        code, report = certs.verify_certificate(certs.wrap("isometry", cert.to_json()))
        assert code == 0, report


def _broken_tower_families():
    fam = f2_towers(D5)

    def mutate(items=None, d_set=None):
        return TowerFamily(
            fam.kind,
            d_set if d_set is not None else fam.d_set,
            items if items is not None else fam.items,
        )

    a0, g0 = fam.items[0]
    a1, _ = fam.items[1]
    yield mutate(items=[(union(a0, ss.cone("ba")), g0), fam.items[1]])
    yield mutate(items=[fam.items[0], fam.items[0]])
    yield mutate(items=[fam.items[0], (a1, "b")])
    yield mutate(d_set=fam.d_set + ["aab"])
    yield mutate(items=fam.items[:1])
    g1 = fam.items[1][1]
    yield mutate(items=[(a0, g1), (a1, g0)])


def _broken_witnesses():
    space = PlainSpace()
    cyl = ClopenSet.cylinder
    src = cyl("a").union(cyl("A"))
    target = [cyl("a")]
    yield SubeqWitness(space, [src], target, [(0, cyl("a"), "a", 0)])
    yield SubeqWitness(space, [cyl("A")], target, [(0, cyl("A"), "", 0)])
    yield SubeqWitness(
        space, [src], target,
        [(0, cyl("a"), "a", 0), (0, cyl("A"), "aaB", 0)],
    )
    yield SubeqWitness(
        space, [cyl("ba")], target,
        [(0, cyl("ba"), "a", 0), (0, cyl("bab"), "a", 0)],
    )


def _tampered(env: dict, rng: random.Random) -> dict:
    out = copy.deepcopy(env)
    move = rng.randrange(5)
    if move == 0:
        h = out["content_hash"]
        i = rng.randrange(len(h))
        out["content_hash"] = h[:i] + ("f" if h[i] != "f" else "0") + h[i + 1 :]
    elif move == 1:
        version = certs.SCHEMA_VERSION
        out["schema_version"] = rng.choice([0, version + 1, str(version)])
    elif move == 2:
        out["kind"] = rng.choice(["surprise", "", 7])
    elif move == 3:
        del out[rng.choice(["kind", "payload", "content_hash"])]
    else:
        out["payload"] = dict(out["payload"], extra=rng.random())
    return out


def test_09_verifier_soundness():
    with Budget(30):
        tower_hits = 0
        for broken in _broken_tower_families():
            if not verify_towers(broken, "exact").passed:
                tower_hits += 1
        assert tower_hits >= 6
        witness_hits = sum(
            1 for w in _broken_witnesses() if not verify_witness(w)["pass"]
        )
        assert witness_hits >= 4
        env = certs.wrap("towers", verify_towers(f2_towers(D5), "exact").to_json())
        rng = random.Random(7)
        for case in range(100):
            code, report = certs.verify_certificate(_tampered(env, rng))
            assert code in (2, 3) and not report["pass"], case


def _cert_snapshots() -> str:
    """Canonical bytes of the certificates behind the earlier checks."""
    k = cyclic_group(2)
    from paratower.boundary import ProductClopen

    envs = [
        certs.wrap("towers", verify_towers(f2_towers(D5), "exact").to_json()),
        certs.wrap("towers", verify_towers(f2_towers(D5), "ball", 12).to_json()),
        certs.wrap("towers", verify_towers(more_towers(D5, 3), "ball", 8).to_json()),
        certs.wrap(
            "towers",
            verify_towers(
                finite_normal_ext_towers([("", "0"), ("a", "1"), ("A", "1")], k),
                "ball", 6,
            ).to_json(),
        ),
        certs.wrap(
            "towers",
            verify_towers(extension_towers([("a", "b"), ("A", "B")]), "ball", 4).to_json(),
        ),
        certs.wrap("towers", verify_towers(union_towers(D5), "ball", 5).to_json()),
        certs.wrap("coloring", greedy_color("Z", [-1, 0, 1]).to_json(range(-100, 101))),
        certs.wrap(
            "comparison",
            build_comparison(ComparisonInstance("F2"), ClopenSet.cylinder("ab")).to_json(),
        ),
        certs.wrap(
            "comparison",
            build_comparison(
                ComparisonInstance("F2xZ2"),
                ProductClopen(k, {"0": ClopenSet.cylinder("a")}),
            ).to_json(),
        ),
        certs.wrap("isometry", build_isometry(ClopenSet.cylinder("a")).to_json()),
    ]
    return "\n".join(certs.canonical_json(e) for e in envs)


def test_10_certificates_are_deterministic():
    assert _cert_snapshots() == _cert_snapshots()
