import copy
import random

import pytest

import paratower.certificates as certs
from paratower.coloring import greedy_color
from paratower.towers import f2_towers, verify_towers

D5 = ["", "a", "A", "b", "B"]


def towers_envelope():
    cert = verify_towers(f2_towers(D5), "exact")
    return certs.wrap("towers", cert.to_json())


def coloring_envelope():
    coloring = greedy_color("Z", [-1, 0, 1])
    payload = coloring.to_json(range(-20, 21))
    payload["pass"] = True
    return certs.wrap("coloring", payload)


def witness_envelope():
    from paratower.boundary import ClopenSet
    from paratower.comparison import PlainSpace, SubeqWitness

    src = ClopenSet.cylinder("a").union(ClopenSet.cylinder("A"))
    w = SubeqWitness(
        PlainSpace(),
        [src],
        [ClopenSet.cylinder("a")],
        [
            (0, ClopenSet.cylinder("a"), "a", 0),
            (0, ClopenSet.cylinder("A"), "ab", 0),
        ],
    )
    payload = w.to_json()
    payload["pass"] = True
    return certs.wrap("witness", payload)


def test_wrap_and_parse_round_trip():
    env = towers_envelope()
    kind, payload = certs.parse_envelope(env)
    assert kind == "towers"
    assert certs.hash_matches(env)
    assert env["schema_version"] == certs.SCHEMA_VERSION
    assert env["tool_version"] == certs.TOOL_VERSION


def test_wrap_rejects_unknown_kind():
    with pytest.raises(ValueError):
        certs.wrap("surprise", {})


def test_canonical_json_is_stable():
    a = certs.canonical_json({"b": 1, "a": [2, 3]})
    b = certs.canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert certs.content_hash({"b": 1, "a": [2, 3]}) == certs.content_hash(
        {"a": [2, 3], "b": 1}
    )


def test_verify_accepts_valid_certificates():
    for env in (towers_envelope(), coloring_envelope(), witness_envelope()):
        code, report = certs.verify_certificate(env)
        assert code == 0, report
        assert report["pass"]


def test_verify_rejects_failing_payload():
    import paratower.subsets as ss
    from paratower.towers import TowerFamily

    from oracles import union

    fam = f2_towers(D5)
    items = list(fam.items)
    a, g = items[0]
    items[0] = (union(a, ss.cone("ba")), g)
    broken = TowerFamily(fam.kind, fam.d_set, items)
    cert = verify_towers(broken, "exact")
    code, report = certs.verify_certificate(certs.wrap("towers", cert.to_json()))
    assert code == 2
    assert not report["pass"]


def _clash(checks: dict) -> None:
    checks["disjoint"]["counterexample"] = {"word": "a", "d": "", "i": 0, "d2": "a", "i2": 1}


def _clash_and_bogus(checks: dict) -> None:
    _clash(checks)
    checks["bogus"] = {"pass": False}


# edits of a passing certificate's recorded checks that keep every recomputed
# check's pass flag as it is
FORGED_CHECKS = {
    "made-up clash and a bogus check": _clash_and_bogus,
    "wrong counterexample": _clash,
    "cover counterexample": lambda c: c["cover"].update(
        counterexample={"word": "b", "cover_group": 0}
    ),
    "extra key": lambda c: c.update(extra={"pass": True, "counterexample": None}),
    "missing key": lambda c: c.pop("cover"),
    "pass flag as 1": lambda c: c["disjoint"].update({"pass": 1}),
}


@pytest.mark.parametrize("name", sorted(FORGED_CHECKS))
def test_verify_rejects_towers_whose_recorded_checks_differ(name):
    payload = verify_towers(f2_towers(["", "a", "A"]), "exact").to_json()
    FORGED_CHECKS[name](payload["checks"])
    # the hash is recomputed, so only the recomputed checks can catch it
    code, report = certs.verify_certificate(certs.wrap("towers", payload))
    assert code == 2
    assert not report["consistent_with_recorded"]
    assert all(c["pass"] for c in report["recomputed"].values())


def test_verify_rejects_a_failing_family_with_another_counterexample():
    from paratower.towers import TowerFamily

    fam = f2_towers(D5)
    broken = TowerFamily(fam.kind, fam.d_set, [fam.items[0], fam.items[0]])
    payload = verify_towers(broken, "exact").to_json()
    assert payload["checks"]["disjoint"]["counterexample"]["word"] != "aaba"
    payload["checks"]["disjoint"]["counterexample"]["word"] = "aaba"
    code, report = certs.verify_certificate(certs.wrap("towers", payload))
    assert code == 2
    assert not report["consistent_with_recorded"]


def test_verify_rejects_hash_mismatch():
    env = towers_envelope()
    env["payload"]["D"] = env["payload"]["D"] + ["ba"]
    code, report = certs.verify_certificate(env)
    assert code == 2
    assert "hash" in report["error"]


def test_verify_rejects_malformed():
    assert certs.verify_certificate("not a dict")[0] == 3
    assert certs.verify_certificate({})[0] == 3
    env = towers_envelope()
    bad = dict(env, schema_version=99)
    assert certs.verify_certificate(bad)[0] == 3
    bad = dict(env, kind="surprise")
    assert certs.verify_certificate(bad)[0] == 3
    bad = dict(env)
    del bad["content_hash"]
    assert certs.verify_certificate(bad)[0] == 3


def _mutate_envelope(env: dict, rng: random.Random) -> dict:
    out = copy.deepcopy(env)
    move = rng.randrange(6)
    if move == 0:
        # flip a character of the hash
        h = out["content_hash"]
        i = rng.randrange(len(h))
        out["content_hash"] = h[:i] + ("0" if h[i] != "0" else "1") + h[i + 1 :]
    elif move == 1:
        version = certs.SCHEMA_VERSION
        out["schema_version"] = rng.choice([0, version + 1, str(version), None])
    elif move == 2:
        out["kind"] = rng.choice(["surprise", "towers2", "", 7])
    elif move == 3:
        del out[rng.choice(["kind", "payload", "content_hash", "schema_version"])]
    elif move == 4:
        # corrupt a scalar deep inside the payload without rehashing
        def corrupt(node) -> bool:
            if isinstance(node, dict):
                keys = list(node)
                rng.shuffle(keys)
                for k in keys:
                    v = node[k]
                    if isinstance(v, (dict, list)):
                        if corrupt(v):
                            return True
                    elif isinstance(v, str):
                        node[k] = v + "x"
                        return True
                    elif isinstance(v, bool):
                        node[k] = not v
                        return True
                    elif isinstance(v, int):
                        node[k] = v + 1
                        return True
            if isinstance(node, list):
                for v in node:
                    if corrupt(v):
                        return True
            return False

        assert corrupt(out["payload"])
    else:
        out["payload"] = rng.choice([[], {"pass": True}, None, "x"])
    return out


def test_tamper_fuzz_all_rejected():
    rng = random.Random(20240817)
    bases = [towers_envelope(), coloring_envelope(), witness_envelope()]
    for case in range(100):
        env = _mutate_envelope(rng.choice(bases), rng)
        code, report = certs.verify_certificate(env)
        assert code in (2, 3), (case, env.get("kind"), report)
        assert not report["pass"]


def test_identical_inputs_hash_identically():
    a = towers_envelope()
    b = towers_envelope()
    assert certs.canonical_json(a) == certs.canonical_json(b)
