"""The benchmark's three workloads: seeded inputs, one timed pass, checks.

A pass runs every input of the workload once, back to back, in one thread.
Each input is one operation.  Its build time (constructing the result, then
wrapping and encoding it as the CLI writes it) and its verify time
(decoding it and re-checking it with the program's own verifier) are summed
over the pass.  After each timed part the pass runs `reference_work`, a
fixed computation of the benchmark's own, until it has taken a quarter of
the time measured so far.  Build and verify times can so be reported in
units of that computation, at the speed the machine had during the pass.
`check` re-examines one pass's outputs with the independent code of
`checks.py`.
"""

from __future__ import annotations

import contextlib
import json
import random
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import checks
from paratower import certificates as certs
from paratower import towers
from paratower.boundary import ClopenSet, ProductClopen, clopen_from_json
from paratower.comparison import (
    ComparisonInstance,
    PlainSpace,
    build_comparison,
    identity_witness,
)
from paratower.groups import cyclic_group
from paratower.subsets import NormalForm, NormalizedSet


class NoTracer:
    def span(self, name: str):
        return contextlib.nullcontext()


_REFERENCE_WORDS = [checks.random_word(random.Random(0), 12) for _ in range(1000)]


def reference_work() -> None:
    """About 10 ms of pure-Python work of the kinds paratower does: reduced
    words, exact fractions, prefix dictionaries, sorting and JSON."""
    total = Fraction(0)
    for u, v in zip(_REFERENCE_WORDS, _REFERENCE_WORDS[1:]):
        total += Fraction(len(checks.multiply(u, checks.inverse(v))), 7)
    prefixes: Dict[str, List[str]] = {}
    for w in _REFERENCE_WORDS:
        for k in range(len(w)):
            prefixes.setdefault(w[:k], []).append(w)
    json.dumps(sorted(prefixes, key=lambda w: (len(w), w)))


REFERENCE_SHARE = 0.25
# Reported times are rescaled to a machine on which one reference_work call
# takes this long, about its time on the idle 2-CPU machine the benchmark was
# tuned on.  There, identical passes took from 2.7 s to 4.6 s as the load of
# other tenants changed; rescaled, run medians stayed within a few percent.
REFERENCE_UNIT_S = 0.006


class PassResult:
    def __init__(self) -> None:
        self.build_s = 0.0
        self.verify_s = 0.0
        # reference_work calls run during the pass, and their time
        self.ref_calls = 0
        self.ref_s = 0.0
        self.attempted = 0
        self.failed = 0
        # encoded output of every operation, in input order
        self.outputs: List[str] = []
        # the result objects, where a check needs more than the encoding
        self.results: List[dict] = []

    def add_build(self, seconds: float) -> None:
        self.build_s += seconds
        self._top_up()

    def add_verify(self, seconds: float) -> None:
        self.verify_s += seconds
        self._top_up()

    def _top_up(self) -> None:
        # run right after each measured part, for a fixed share of its time,
        # the reference sees the machine at the speeds the work saw
        while self.ref_s < REFERENCE_SHARE * (self.build_s + self.verify_s):
            t0 = time.perf_counter()
            reference_work()
            self.ref_s += time.perf_counter() - t0
            self.ref_calls += 1

    @property
    def unit_s(self) -> float:
        """Mean seconds of one reference_work call during the pass."""
        return self.ref_s / self.ref_calls

    @property
    def out_bytes(self) -> int:
        return sum(len(blob.encode()) for blob in self.outputs)


def _encode(envelope: dict, tracer) -> str:
    with tracer.span("certificates.encode"):
        return json.dumps(envelope, sort_keys=True, indent=2)


def _decode(blob: str, tracer) -> dict:
    with tracer.span("certificates.decode"):
        return json.loads(blob)


def _symmetric_d(rng: random.Random) -> List[str]:
    """e, a random letter, a random length-2 word, and their inverses."""
    w1 = checks.random_word(rng, 1)
    w2 = checks.random_word(rng, 2)
    return ["", w1, checks.inverse(w1), w2, checks.inverse(w2)]


# ---------------------------------------------------------------------------
# towers-ball


class TowersBall:
    """Ball-mode tower certificates, built and then re-verified.

    The F2 cone family at radius 12 takes the numpy sweep; the filling,
    F2×Z/2, F2×F2 and F3 families take the generic `contains` sweep.  One
    more input is a seeded defect, an F2 family with a duplicated tower,
    which the program must reject with a counterexample word.
    """

    name = "towers-ball"
    check_radius = 10
    defect_radius = 10

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        k2 = cyclic_group(2)
        x, u, v = (rng.choice(checks.LETTERS) for _ in range(3))
        d12, d3 = _symmetric_d(rng), _symmetric_d(rng)
        self.inputs: List[tuple] = [
            ("f2", lambda: towers.f2_towers(d12), 12),
            ("filling", lambda: towers.towers_from_filling(["", x, checks.inverse(x)]), 8),
            (
                "f2xz2",
                lambda: towers.finite_normal_ext_towers(
                    [("", "0"), (x, "1"), (checks.inverse(x), "1")], k2
                ),
                7,
            ),
            (
                "f2xf2",
                lambda: towers.extension_towers(
                    [(u, v), (checks.inverse(u), checks.inverse(v))]
                ),
                4,
            ),
            ("f3", lambda: towers.union_towers(d3), 5),
        ]
        self.defect_d = d12

    def _defect(self):
        fam = towers.f2_towers(self.defect_d)
        return towers.TowerFamily("F2", fam.d_set, [fam.items[0], fam.items[0], fam.items[1]])

    def run_pass(self, tracer) -> PassResult:
        out = PassResult()
        jobs = self.inputs + [("defect", self._defect, self.defect_radius)]
        for kind, build, radius in jobs:
            t0 = time.perf_counter()
            cert = towers.verify_towers(build(), "ball", radius)
            blob = _encode(certs.wrap("towers", cert.to_json()), tracer)
            out.add_build(time.perf_counter() - t0)
            t0 = time.perf_counter()
            code, _ = certs.verify_certificate(_decode(blob, tracer))
            out.add_verify(time.perf_counter() - t0)
            out.attempted += 1
            expected = (False, 2) if kind == "defect" else (True, 0)
            out.failed += (cert.passed, code) != expected
            out.outputs.append(blob)
        return out

    def check(self, result: PassResult, rng: random.Random) -> Optional[str]:
        kinds = [kind for kind, _, _ in self.inputs] + ["defect"]
        for kind, blob in zip(kinds, result.outputs):
            payload = json.loads(blob)["payload"]
            if kind == "f2":
                problem = checks.check_cone_family(payload, self.check_radius)
            elif kind == "defect":
                bases = [t["A"]["base"] for t in payload["towers"]]
                problem = checks.check_tower_counterexample(payload, bases)
            else:
                problem = None
            if problem is not None:
                return f"{kind} radius {payload['radius']}: {problem}"
        return None


# ---------------------------------------------------------------------------
# compare

# Target cells (word, K label) of the F2×Z/2 targets; True marks a two-label
# target, whose second label gets seeded cylinders.  They are fixed because
# the target cell alone sets the cost of a build: [Ba] gives a 2.3 MB
# certificate where [ab] gives 0.8 MB, so a seeded cell would make the size
# of a pass a lottery.  The extra cylinders only reach the final boost.
PRIMARY_CELLS = [
    ("a", "0", False),
    ("Ab", "1", False),
    ("abA", "1", False),
    ("abABa", "1", False),
    ("b", "0", True),
    ("ab", "0", True),
    ("baB", "0", True),
    ("abAB", "0", True),
]


def forged_comparison() -> str:
    """An F2 comparison certificate whose four witnesses are replaced by the
    identity witness on [bb], with the content hash recomputed.  It proves
    nothing about U = [ab], so `verify` must reject it."""
    payload = build_comparison(ComparisonInstance("F2"), ClopenSet.cylinder("ab")).to_json()
    trivial = identity_witness(PlainSpace(), ClopenSet.cylinder("bb")).to_json()
    payload["claim2_witness"] = trivial
    payload["claim3_witness"] = trivial
    payload["composed"]["witness"] = trivial
    payload["boosted"]["witness"] = trivial
    return json.dumps(certs.wrap("comparison", payload), sort_keys=True, indent=2)


class Compare:
    """Comparison certificates: F2×Z/2 with targets of depth 1–5 (single- and
    two-label), F2 with seeded targets of depth 2–8, and the forged
    certificate, which counts as failed for as long as `verify` accepts it."""

    name = "compare"

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        k2 = cyclic_group(2)
        self.targets = []
        for word, label, two_label in PRIMARY_CELLS:
            slices = {label: ClopenSet.cylinder(word)}
            if two_label:
                extra = [checks.random_word(rng, rng.randint(2, 5)) for _ in range(2)]
                slices["1"] = ClopenSet(extra)
            self.targets.append(("F2xZ2", ProductClopen(k2, slices)))
        for depth in range(2, 9):
            self.targets.append(("F2", ClopenSet.cylinder(checks.random_word(rng, depth))))
        self.forged = forged_comparison()

    def run_pass(self, tracer) -> PassResult:
        out = PassResult()
        for instance, u_set in self.targets:
            t0 = time.perf_counter()
            cert = build_comparison(ComparisonInstance(instance), u_set)
            blob = _encode(certs.wrap("comparison", cert.to_json()), tracer)
            out.add_build(time.perf_counter() - t0)
            t0 = time.perf_counter()
            code, _ = certs.verify_certificate(_decode(blob, tracer))
            out.add_verify(time.perf_counter() - t0)
            out.attempted += 1
            out.failed += not (cert.passed and code == 0)
            out.outputs.append(blob)
        t0 = time.perf_counter()
        code, _ = certs.verify_certificate(_decode(self.forged, tracer))
        out.add_verify(time.perf_counter() - t0)
        out.attempted += 1
        out.failed += code == 0
        return out

    def check(self, result: PassResult, rng: random.Random) -> Optional[str]:
        for (instance, u_set), blob in zip(self.targets, result.outputs):
            payload = json.loads(blob)["payload"]
            problem = checks.check_final_witness(payload, u_set.to_json(), rng)
            if problem is not None:
                return f"{instance} U={u_set!r}: {problem}"
        return None


# ---------------------------------------------------------------------------
# clopen-algebra

# (number of raw depth-9 bases, sets of each kind); complement takes about
# 0.3 s at 30 bases and 2-3 s at 60 today
SIZES = [(30, 2), (60, 1)]
PARTNER_BASES = 10
MOVER_LENGTH = 6


class _AlgebraInput:
    def __init__(self, rng: random.Random, kind: str, size: int):
        self.kind = kind
        self.size = size
        self.raw = [checks.random_word(rng, 9) for _ in range(size)]
        self.shuffled = self.raw + rng.sample(self.raw, size // 3)
        rng.shuffle(self.shuffled)
        cut = set(rng.sample(range(size), size // 3))
        self.split_words = [self.raw[i] for i in sorted(cut)]
        self.split_cones = [b for i, b in enumerate(self.raw) if i not in cut]
        self.split_cones += [c for w in self.split_words for c in checks.children(w)]
        self.partner = [checks.random_word(rng, 9) for _ in range(PARTNER_BASES)]
        self.partner_words = (
            [checks.random_word(rng, rng.randint(3, 8)) for _ in range(3)]
            if kind == "subsets"
            else []
        )
        self.g = checks.random_word(rng, MOVER_LENGTH)


def _clopen_ops(x: _AlgebraInput) -> Dict[str, ClopenSet]:
    s = ClopenSet(x.raw)
    partner = ClopenSet(x.partner)
    moved = s.act(x.g)
    return {
        "canonical": s,
        "shuffled": ClopenSet(x.shuffled),
        # a split base is replaced by its three children
        "split": ClopenSet(x.split_cones),
        "complement": s.complement(),
        "minus": s.minus(partner),
        "inter": s.inter(partner),
        "union": s.union(partner),
        "act": moved,
        "act_back": moved.act(checks.inverse(x.g)),
    }


def _clopen_verified(results: Dict[str, ClopenSet], data: dict) -> bool:
    s = results["canonical"]
    decoded_ok = all(clopen_from_json(data[k]).equals(v) for k, v in results.items())
    return (
        decoded_ok
        and s.are_disjoint(results["complement"])
        and all(results[k].equals(s) for k in ("shuffled", "split", "act_back"))
        and results["minus"].is_subset(s)
        and results["inter"].is_subset(s)
        and s.is_subset(results["union"])
    )


def _nf_ops(x: _AlgebraInput) -> Dict[str, NormalForm]:
    s = NormalForm(cones=x.raw)
    partner = NormalForm(words=x.partner_words, cones=x.partner)
    moved = s.translate(x.g)
    return {
        "canonical": s,
        "shuffled": NormalForm(cones=x.shuffled),
        # a split cone W(h) is replaced by the word h and the cones at its children
        "split": NormalForm(words=x.split_words, cones=x.split_cones),
        "complement": s.complement(),
        "minus": s.minus(partner),
        "inter": s.inter(partner),
        "union": s.union(partner),
        "act": moved,
        "act_back": moved.translate(checks.inverse(x.g)),
    }


def _nf_from_json(data: dict) -> NormalForm:
    """Rebuild a normal form from its JSON layout (finite words and cones)."""
    parts = data["parts"] if data["kind"] == "union" else [data]
    words = [w for p in parts if p["kind"] == "finite" for w in p["words"]]
    cones = [p["base"] for p in parts if p["kind"] == "cone"]
    return NormalForm(words=words, cones=cones)


def _nf_verified(results: Dict[str, NormalForm], data: dict) -> bool:
    s = results["canonical"]
    decoded_ok = all(_nf_from_json(data[k]).equals(v) for k, v in results.items())
    return (
        decoded_ok
        and s.inter(results["complement"]).is_empty()
        and all(results[k].equals(s) for k in ("shuffled", "split", "act_back"))
    )


def _clopen_json(v: ClopenSet) -> dict:
    return v.to_json()


def _nf_json(v: NormalForm) -> dict:
    return NormalizedSet(v).to_json()


class ClopenAlgebra:
    """Seeded random ClopenSets and NormalForms built from raw depth-9 bases.

    On each: canonicalise (plain, shuffled with duplicates, and with a third
    of the bases split into their children), complement, minus, inter and
    union with a 10-base partner, and act/translate by a random element and
    back.  Verifying re-reads the encoded results and re-checks them with
    the program's own predicates.
    """

    name = "clopen-algebra"

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        self.inputs = [
            _AlgebraInput(rng, kind, size)
            for size, copies in SIZES
            for kind in ("boundary", "subsets")
            for _ in range(copies)
        ]

    def run_pass(self, tracer) -> PassResult:
        out = PassResult()
        for x in self.inputs:
            ops, verified, to_json = (
                (_clopen_ops, _clopen_verified, _clopen_json)
                if x.kind == "boundary"
                else (_nf_ops, _nf_verified, _nf_json)
            )
            t0 = time.perf_counter()
            results = ops(x)
            blob = json.dumps({k: to_json(v) for k, v in results.items()}, sort_keys=True)
            out.add_build(time.perf_counter() - t0)
            t0 = time.perf_counter()
            ok = verified(results, json.loads(blob))
            out.add_verify(time.perf_counter() - t0)
            out.attempted += 1
            out.failed += not ok
            out.outputs.append(blob)
            out.results.append(results)
        return out

    def check(self, result: PassResult, rng: random.Random) -> Optional[str]:
        for x, results in zip(self.inputs, result.results):
            problem = check_algebra_input(x, results, rng)
            if problem is not None:
                return f"{x.kind} set of {x.size} bases: {problem}"
        return None


def check_algebra_input(x: _AlgebraInput, results: dict, rng: random.Random) -> Optional[str]:
    """Exact partition of S and its complement, then pointwise agreement of
    every result with the raw bases."""
    raw_s, raw_t = frozenset(x.raw), frozenset(x.partner)
    comp = results["complement"]
    if x.kind == "boundary":
        problem = checks.check_partition_boundary(
            sorted(results["canonical"].bases), sorted(comp.bases)
        )
        tests: Dict[str, Callable[[str], bool]] = {
            k: (lambda p, v=v: checks.in_bases(p, v.bases, v.full)) for k, v in results.items()
        }
        in_t = lambda p: checks.in_bases(p, raw_t)  # noqa: E731
        pull = lambda p: checks.multiply(checks.inverse(x.g), p)[: len(p) - len(x.g)]  # noqa: E731
        length = 24
    else:
        s = results["canonical"]
        problem = checks.check_partition_group((s.cones, s.words), (comp.cones, comp.words))
        tests = {
            k: (lambda p, v=v: p in v.words or checks.in_bases(p, v.cones))
            for k, v in results.items()
        }
        t_words = frozenset(x.partner_words)
        in_t = lambda p: p in t_words or checks.in_bases(p, raw_t)  # noqa: E731
        pull = lambda p: checks.multiply(checks.inverse(x.g), p)  # noqa: E731
        length = -14
    if problem is not None:
        return problem
    samples = checks.probe_points(
        rng, x.raw + x.partner + x.partner_words, length, uniform=200
    )
    return checks.check_algebra(
        tests, lambda p: checks.in_bases(p, raw_s), in_t, pull, samples
    )


WORKLOADS = {w.name: w for w in (TowersBall, Compare, ClopenAlgebra)}
