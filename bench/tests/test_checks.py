"""The benchmark's correctness checks accept real outputs and reject seeded defects.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import os
import random
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from paratower.boundary import ClopenSet  # noqa: E402
from paratower.comparison import ComparisonInstance, build_comparison  # noqa: E402
from paratower.towers import TowerFamily, f2_towers, verify_towers  # noqa: E402

D5 = ["", "a", "A", "b", "B"]
RADIUS = 8


def _towers_payload(family) -> dict:
    return verify_towers(family, "ball", RADIUS).to_json()


def test_cone_family_check_accepts_f2_towers():
    assert checks.check_cone_family(_towers_payload(f2_towers(D5)), RADIUS) is None


def test_cone_family_check_rejects_duplicated_tower():
    payload = _towers_payload(f2_towers(D5))
    payload["towers"].append(payload["towers"][0])
    payload["cover_groups"] = [[0, 1, 2]]
    assert "meet" in checks.check_cone_family(payload, RADIUS)


def test_counterexample_of_duplicated_tower_is_confirmed():
    fam = f2_towers(D5)
    dup = TowerFamily("F2", fam.d_set, [fam.items[0], fam.items[0], fam.items[1]])
    payload = _towers_payload(dup)
    bases = [t["A"]["base"] for t in payload["towers"]]
    assert checks.check_tower_counterexample(payload, bases) is None
    cex = payload["checks"]["disjoint"]["counterexample"]
    cex["word"] = "B" + cex["word"] if not cex["word"].startswith("b") else "a"
    assert "is not in" in checks.check_tower_counterexample(payload, bases)


def _comparison():
    u_set = ClopenSet.cylinder("ab")
    payload = build_comparison(ComparisonInstance("F2"), u_set).to_json()
    return payload, u_set.to_json()


def test_final_witness_check_accepts_comparison():
    payload, u_json = _comparison()
    assert checks.check_final_witness(payload, u_json, random.Random(1)) is None


def test_final_witness_check_rejects_mover_leaving_target():
    payload, u_json = _comparison()
    entries = payload["boosted"]["witness"]["entries"]
    # the identity leaves a piece outside [ab] where it is
    k = next(
        k for k, e in enumerate(entries) if not e["piece"]["words"][0].startswith("ab")
    )
    entries[k]["g"] = ""
    assert "outside U" in checks.check_final_witness(payload, u_json, random.Random(1))


def test_final_witness_check_rejects_double_hit():
    payload, u_json = _comparison()
    entries = payload["boosted"]["witness"]["entries"]
    entries.append(dict(entries[0]))
    assert "hit by entries" in checks.check_final_witness(payload, u_json, random.Random(1))


def test_final_witness_check_rejects_wrong_target():
    payload, u_json = _comparison()
    u_json = ClopenSet.cylinder("ba").to_json()
    assert "target is not U" in checks.check_final_witness(payload, u_json, random.Random(1))


def _algebra_input(kind: str) -> "workloads._AlgebraInput":
    return workloads._AlgebraInput(random.Random(5), kind, 8)


def test_algebra_check_accepts_both_algebras():
    for kind, ops in (("boundary", workloads._clopen_ops), ("subsets", workloads._nf_ops)):
        x = _algebra_input(kind)
        assert workloads.check_algebra_input(x, ops(x), random.Random(2)) is None


def test_algebra_check_rejects_complement_missing_a_base():
    x = _algebra_input("boundary")
    results = workloads._clopen_ops(x)
    dropped = sorted(results["complement"].bases)[1:]
    results["complement"] = ClopenSet(dropped)
    problem = workloads.check_algebra_input(x, results, random.Random(2))
    assert "uncovered" in problem
    # the pointwise check alone sees it too: every complement cell gets a probe
    s = frozenset(x.raw)
    samples = checks.probe_points(random.Random(3), x.raw, 24, uniform=0)
    problem = checks.check_algebra(
        {"complement": lambda p: checks.in_bases(p, frozenset(dropped))},
        lambda p: checks.in_bases(p, s), lambda p: False, lambda p: p, samples,
    )
    assert problem.startswith("complement is wrong")


def test_algebra_check_rejects_normal_form_complement_missing_a_cone():
    x = _algebra_input("subsets")
    results = workloads._nf_ops(x)
    comp = results["complement"]
    results["complement"] = type(comp)(words=comp.words, cones=sorted(comp.cones)[1:])
    assert "uncovered" in workloads.check_algebra_input(x, results, random.Random(2))
