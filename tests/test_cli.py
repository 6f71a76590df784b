import copy
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import paratower
import paratower.certificates as certs
from paratower.cli import emit_report, main


def run_json(tmp_path, argv, name="out.json"):
    path = tmp_path / name
    code = main(argv + ["--json", str(path)])
    data = json.loads(path.read_text()) if path.exists() else None
    return code, data


def test_f2_towers_command(tmp_path):
    code, env = run_json(tmp_path, ["f2-towers", "--D", "e,a,A,b,B"])
    assert code == 0
    kind, payload = certs.parse_envelope(env)
    assert kind == "towers"
    assert certs.hash_matches(env)
    assert all(c["pass"] for c in payload["checks"].values())


def test_f2_towers_ball_mode(tmp_path):
    code, env = run_json(
        tmp_path, ["f2-towers", "--D", "e,a,A,b,B", "--mode", "ball", "--radius", "6"]
    )
    assert code == 0
    assert env["payload"]["radius"] == 6


def test_more_towers_command(tmp_path):
    code, env = run_json(
        tmp_path, ["more-towers", "--D", "e,a,A,b,B", "--copies", "2"]
    )
    assert code == 0
    assert len(env["payload"]["cover_groups"]) == 2


TOWER_COMMANDS = [
    ["f2-towers", "--D", "e,a,A,b,B"],
    ["more-towers", "--D", "e,a,A,b,B", "--copies", "3"],
]


@pytest.mark.parametrize("argv", TOWER_COMMANDS, ids=["f2", "more-3"])
def test_a_tower_command_checks_its_family_once(monkeypatch, tmp_path, argv):
    # the builder leaves the check to the command, which runs it in its mode
    import paratower.towers as towers

    checks, walks = [], []
    verify, clash_walk = towers.verify_towers, towers._first_clash_walk
    monkeypatch.setattr(
        towers, "verify_towers", lambda fam, *a: checks.append(fam) or verify(fam, *a)
    )
    monkeypatch.setattr(
        towers, "_first_clash_walk", lambda fam, *a: walks.append(fam) or clash_walk(fam, *a)
    )
    code, _ = run_json(tmp_path, argv)
    assert code == 0 and len(checks) == 1 and walks == checks


@pytest.mark.parametrize("argv", TOWER_COMMANDS, ids=["f2", "more-3"])
def test_a_failing_tower_family_exits_2_with_its_counterexample(monkeypatch, tmp_path, argv):
    # cones padded with a^m, not a^{2m}: two translates meet, and the
    # command writes the failing certificate instead of raising
    import paratower.towers as towers

    real = towers._strengthened

    def half_padded(d_set):
        t = real(d_set)
        bases = ["a" * t.m + x for x in ("ba", "bA", "bb")]
        return towers.StrengthenedF2Towers(t.d_set, t.m, bases)

    monkeypatch.setattr(towers, "_strengthened", half_padded)
    code, env = run_json(tmp_path, argv)
    assert code == 2 and certs.hash_matches(env)
    disjoint = env["payload"]["checks"]["disjoint"]
    assert not disjoint["pass"]
    assert set(disjoint["counterexample"]) == {"word", "d", "i", "d2", "i2"}


def test_ext_towers_commands(tmp_path):
    code, env = run_json(
        tmp_path,
        ["ext-towers", "--kind", "f2xk", "--k-order", "2",
         "--F", "e:0,a:1,A:1", "--mode", "ball", "--radius", "4"],
    )
    assert code == 0
    code, env = run_json(
        tmp_path,
        ["ext-towers", "--kind", "f2xf2", "--F", "a:b,A:B",
         "--mode", "ball", "--radius", "3"],
    )
    assert code == 0


def test_union_and_filling_towers(tmp_path):
    code, _ = run_json(tmp_path, ["union-towers", "--D", "e,a,A,b,B"])
    assert code == 0
    code, env = run_json(
        tmp_path, ["filling-towers", "--D", "e,a,A", "--radius", "6"]
    )
    assert code == 0
    assert env["payload"]["mode"] == "ball"


def test_filling_towers_exact_mode(tmp_path):
    code, env = run_json(tmp_path, ["filling-towers", "--D", "e,a,A", "--mode", "exact"])
    assert code == 0
    assert env["payload"]["mode"] == "exact" and "radius" not in env["payload"]
    assert main(["verify", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("d_set, named", [("e,e,a", "''"), ("a,A,aAa", "'a'")])
def test_filling_towers_refuses_a_repeated_element(capsys, d_set, named):
    start = time.perf_counter()
    assert main(["filling-towers", "--D", d_set]) == 64
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"D repeats the reduced element {named}" in err


def test_an_exhausted_search_is_a_usage_error(monkeypatch, capsys):
    import paratower.towers as towers

    def exhausted(*args, **kwargs):
        raise towers.SearchExhausted("could not separate neighborhoods")

    monkeypatch.setattr(towers, "towers_from_filling", exhausted)
    assert main(["filling-towers", "--D", "e,a,A"]) == 64
    err = capsys.readouterr().err
    assert err == "error: could not separate neighborhoods\n"


def test_the_filling_searches_exhausted_exit_64_saying_how_far_they_got(monkeypatch, capsys):
    import paratower.towers as towers

    monkeypatch.setattr(towers, "NEIGHBORHOOD_DEPTH", 4)
    assert main(["filling-towers", "--D", "e,a,A"]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: could not separate neighborhoods by depth 4:")
    monkeypatch.setattr(towers.fw, "enumerate_words", lambda: iter(["", "a", "A"]))
    assert main(["filling-towers", "--D", "e,a,A", "--n", "3"]) == 64
    err = capsys.readouterr().err
    assert err == "error: found only 1 of 3 orbit points with disjoint D-translates up to radius 1\n"


def test_an_exhausted_translator_search_exits_64_saying_how_far_it_got(monkeypatch, capsys):
    # with a as the only letter that may follow, no extension of [ab] ends
    # with A
    import paratower.comparison as comparison

    monkeypatch.setattr(comparison, "legal_next_letters", lambda w: ("a",))
    assert main(["compare", "--instance", "F2", "--U", "ab"]) == 64
    err = capsys.readouterr().err
    assert err == "error: cannot extend [ab] to end with 'A': found none up to 4 letters longer\n"


def test_an_exhausted_boost_search_exits_64_saying_how_far_it_got(monkeypatch, capsys):
    # the boost's search for three same-length extensions of U's cell
    # ending with b, where b is the only letter that may follow: one
    # extension per length
    import paratower.comparison as comparison

    search = comparison._extensions_ending_with

    def one_letter(v, last, count):
        monkeypatch.setattr(comparison, "legal_next_letters", lambda w: ("b",))
        return search(v, last, count)

    monkeypatch.setattr(comparison, "_extensions_ending_with", one_letter)
    assert main(["compare", "--instance", "F2", "--U", "ab"]) == 64
    err = capsys.readouterr().err
    assert err == (
        "error: no 3 extensions of [ab] of one length end with 'b':"
        " found 1 at 12 letters longer, the longest tried\n"
    )


def _filling_payload(mode) -> dict:
    from paratower.towers import towers_from_filling, verify_towers

    fam = towers_from_filling(["", "a", "A"])
    return verify_towers(fam, mode, 8 if mode == "ball" else None).to_json()


def _duplicated_filling_tower(mode) -> dict:
    payload = _filling_payload(mode)
    payload["towers"].append(payload["towers"][0])
    return payload


def _identity_filling_mover(mode) -> dict:
    payload = _filling_payload(mode)
    payload["towers"][1]["g"] = ""
    return payload


def _rectangle_payload(mode) -> dict:
    # the payload of ext-towers --kind f2xf2 --F a:b,A:B
    from paratower.towers import extension_towers, verify_towers

    fam = extension_towers([("a", "b"), ("A", "B")])
    return verify_towers(fam, mode, 4 if mode == "ball" else None).to_json()


def _duplicated_rectangle(mode) -> dict:
    payload = _rectangle_payload(mode)
    payload["towers"].append(payload["towers"][0])
    return payload


def _identity_rectangle_mover(mode) -> dict:
    payload = _rectangle_payload(mode)
    payload["towers"][1]["g"] = ["", ""]
    return payload


@pytest.mark.parametrize("mode", ["exact", "ball"])
@pytest.mark.parametrize(
    "forge",
    [_duplicated_filling_tower, _identity_filling_mover, _duplicated_rectangle,
     _identity_rectangle_mover],
)
def test_verify_rejects_forged_filling_family(tmp_path, forge, mode, capsys):
    payload = forge(mode)
    assert main(["verify", _forged_towers(tmp_path, payload)]) == 2
    report = json.loads(capsys.readouterr().out)
    words = [c["counterexample"]["word"] for c in report["recomputed"].values() if not c["pass"]]
    assert words and None not in words
    if payload["group"] == "F2xF2":
        # an F2 x F2 counterexample is a pair (u, v)
        assert all(isinstance(w, list) and len(w) == 2 for w in words)


def _filling_point(point) -> dict:
    payload = _filling_payload("ball")
    for tower in payload["towers"]:
        tower["A"]["point"] = point
    return payload


def _filling_over_product_clopen() -> dict:
    # an orbit preimage lives over the plain boundary
    payload = _filling_payload("ball")
    for tower in payload["towers"]:
        tower["A"]["clopen"] = {
            "space": "product",
            "k": {"name": "Z/2", "elements": ["0", "1"]},
            "slices": {"0": tower["A"]["clopen"]},
        }
    return payload


@pytest.mark.parametrize(
    "forge",
    [
        _filling_over_product_clopen,
        lambda: _filling_point({"kind": "translate", "g": "aA", "base": {"kind": "aperiodic"}}),
        lambda: _filling_point({"kind": "periodic", "head": "", "cycle": "ab!"}),
    ],
    ids=["product-clopen", "unreduced-translate", "non-letter-cycle"],
)
@pytest.mark.parametrize("mode", ["exact", "ball"])
def test_verify_rejects_malformed_orbit_preimage(tmp_path, forge, mode):
    assert main(["verify", _forged_towers(tmp_path, _with_mode(forge(), mode))]) == 3


def test_verify_round_trip(tmp_path):
    code, env = run_json(tmp_path, ["f2-towers", "--D", "e,a,A,b,B"])
    path = tmp_path / "out.json"
    assert main(["verify", str(path)]) == 0


def test_verify_detects_tampering(tmp_path):
    code, env = run_json(tmp_path, ["f2-towers", "--D", "e,a,A,b,B"])
    env["payload"]["D"].append("ba")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(env))
    assert main(["verify", str(bad)]) == 2


def test_verify_malformed_input(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 3
    path.write_text(json.dumps({"payload": {}}))
    assert main(["verify", str(path)]) == 3


def test_color_commands(tmp_path):
    code, env = run_json(
        tmp_path, ["color", "--K", "Z", "--E=-1,0,1", "--window", "50"]
    )
    assert code == 0
    assert env["payload"]["m"] == 5
    assert main(["verify", str(tmp_path / "out.json")]) == 0
    code, env = run_json(tmp_path, ["color", "--K", "Z/2", "--E", "0,1"])
    assert code == 0
    assert env["payload"]["m"] == 2


def _sidon_e() -> list:
    """0 and ± the first 31 Mian-Chowla numbers: 63 elements whose E² has
    1,675 elements, so first-fit looks up 1,674 neighbours per integer."""
    seq, sums, x = [], set(), 0
    while len(seq) < 31:
        x += 1
        new = {x + y for y in seq} | {2 * x}
        if not new & sums:
            seq.append(x)
            sums |= new
    return sorted({0} | set(seq) | {-v for v in seq})


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--K", "foo", "--E", "0"], "'foo'"),
        (["--K", "Z/2", "--E", "0,1,7"], "'7' is not an element of Z/2"),
        (["--K", "Z", "--E=-1,0,1", "--window", "1000000"], "-1000000"),
        (["--K", "Z", "--E=-1,0,1", "--window", "20000"], "-20002"),
        (["--K", "Z", "--E=" + ",".join(map(str, range(-1000, 1001)))], "above the cap of 64"),
        (["--K", "Z/2", "--E", ",".join(["0", "1"] * 3000)], "above the cap of 64"),
        (["--K", "Z/3", "--E", "0,1,2,1"], "distinct"),
        (["--K", "Z", "--E", "0,x"], "'x'"),
        (["--K", "Z/5", "--E", "0,1,4", "--window", "2"], "-2 is not an element of Z/5"),
        (["--K", "Z", "--E=" + ",".join(map(str, _sidon_e())), "--window", "7400"],
         "above the budget"),
    ],
    ids=["unknown-K", "E-outside-K", "window-1e6", "window-past-cap", "E-2001", "E-6000",
         "E-repeats", "E-not-int", "window-on-finite-K", "work-past-budget"],
)
def test_color_refuses_bad_input_at_once(capsys, argv, named):
    start = time.perf_counter()
    assert main(["color"] + argv) == 64
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert named in err


def test_compare_command(tmp_path):
    code, env = run_json(tmp_path, ["compare", "--instance", "F2", "--U", "ab"])
    assert code == 0
    kind, payload = certs.parse_envelope(env)
    assert kind == "comparison"
    assert main(["verify", str(tmp_path / "out.json")]) == 0
    # the summary names n, the target cell and each witness's entry count
    lines = emit_report(env).splitlines()
    assert lines[1] == f"  n={payload['n']} target cell=[None, 'ab']"
    assert lines[2:5] == [
        f"  {name} witness: {len(w['entries'])} entries"
        for name, w in (("claim2", payload["claim2_witness"]), ("claim3", payload["claim3_witness"]),
                        ("final", payload["boosted"]["witness"]))
    ]
    assert lines[-1] == "overall: pass"


# SHA-256 of the canonical JSON of [claim2_witness, claim3_witness,
# boosted.witness] of every comparison the CLI tests pin, recorded at
# schema 2: the witnesses stayed byte-identical when the construction
# records left the payload.  The F2 × Z/2 witnesses have one entry per
# (source, mover, colour); their claim-3 cells and movers are pinned by
# CLAIM3_CELLS.
COMPARISON_WITNESSES = {
    ("F2", "ab"): "513699d19bfc64eaec4b879b7e18146477b652eaf84980c7cbf0604d96c95825",
    ("F2xZ2", "a:0"): "ab4cf23225978e7cb2331206776fbfaa4feb4e4c57ce4dec333eca1e31b0db09",
    ("F2xZ2", "ab:0,ab:1"): "7ae2c2eff7c539756c44fade4f948247f755d52a5fa37057458168c2a14ab51b",
    ("F2", "Ba"): "d85436795ca26762f4950951640fb9808bbe45031fce455fae791e614c2d9d30",
    ("F2", "aaB"): "fb9ceaa564cbacf89aede068e0c95a7364b467e92a876f7df31ddd4ca92e8a23",
    ("F2", "abab"): "b2da02665bbfbfed325eec37ecb30a125f69ec0bf728b4cae9852850f3f7c609",
    ("F2", "bbA"): "4b3b62f3882e8363147793a9e84adf86c874bbb1a8805370cf156fda6ea359fa",
    ("F2", "A"): "d73e87a4ed2fb9bfd88d0a3c161426e2bbc162d18a727f985ad0f9b10aab5095",
    ("F2xZ2", "b:1"): "8f6dd24be0ac1819da641905882699481edd4e0d2518ee7f6cee703912fad767",
    ("F2xZ2", "abA:1"): "7229a5c09ecd4e2d47c11befe5b3c4f61d3ca6625d5d286d8da3acf46de3ddf7",
    ("F2xZ2", "Ba:1,b:0"): "a0986d43c3fd7b92f88b3fb5f8f81e97db988ee6469350981b0ffdd44e794029",
}


def _witnesses_digest(payload: dict) -> str:
    three = [payload["claim2_witness"], payload["claim3_witness"], payload["boosted"]["witness"]]
    return hashlib.sha256(certs.canonical_json(three).encode()).hexdigest()


def _pinned_comparison(argv, path) -> bytes:
    """The comparison certificate `compare argv` wrote to ``path``, after
    checking that its witnesses are the pinned ones and that it holds
    nothing else."""
    raw = path.read_bytes()
    env = json.loads(raw)
    assert raw == (certs.canonical_json(env) + "\n").encode()
    assert env["schema_version"] == 3
    payload = env["payload"]
    assert sorted(payload) == COMPARISON_FIELDS
    assert payload["composed"] == {} and list(payload["boosted"]) == ["witness"]
    assert _witnesses_digest(payload) == COMPARISON_WITNESSES[argv[argv.index("--instance") + 1],
                                                              argv[argv.index("--U") + 1]]
    return raw


# SHA-256 of the `--json` output, the envelope's canonical JSON and a
# newline, re-recorded at schema 3, when every construction record left the
# payload; the witnesses are pinned by COMPARISON_WITNESSES since schema 2
PINNED_COMPARISONS = [
    (["--instance", "F2", "--U", "ab"],
     "745dc2585f0c09d877470579d846d4ea85e5d53d4e134f496ea7e37700692c47"),
    (["--instance", "F2xZ2", "--U", "a:0"],
     "579c758a6a32963639bfc494d353663a5808e2492c418823a7c8136e181edfe3"),
]


PINNED_IDS = ["F2-ab", "F2xZ2-a0"]


@pytest.mark.parametrize("argv, digest", PINNED_COMPARISONS, ids=PINNED_IDS)
def test_compare_certificate_bytes_are_pinned(tmp_path, argv, digest):
    code, _ = run_json(tmp_path, ["compare"] + argv)
    assert code == 0
    assert hashlib.sha256(_pinned_comparison(argv, tmp_path / "out.json")).hexdigest() == digest


# the payload's content hash, re-recorded at schema 3; the composed witness
# left the payload at schema 1 and the composed report at schema 3
PINNED_PAYLOADS = [
    (["--instance", "F2", "--U", "ab"],
     "4cf90127335f9a019029da20ef0e344832cc9fa74833e77b895b15703f36a3ff"),
    (["--instance", "F2xZ2", "--U", "a:0"],
     "5e35f55f909c9995de6dc3d85c18fa587fd56d04ac8d1e66ea0274806d9e33f0"),
]


@pytest.mark.parametrize("argv, payload_digest", PINNED_PAYLOADS, ids=PINNED_IDS)
def test_compare_payload_is_schema_1_without_the_composed_witness(tmp_path, argv, payload_digest):
    code, env = run_json(tmp_path, ["compare"] + argv)
    assert code == 0
    assert env["schema_version"] == 3
    assert env["payload"]["composed"] == {}
    assert env["content_hash"] == certs.content_hash(env["payload"]) == payload_digest


# every field of a comparison payload: a field enters or leaves the
# certificate only with an edit here
COMPARISON_FIELDS = [
    "U", "boosted", "claim2_witness", "claim3_witness", "composed", "instance", "n", "pass",
]


@pytest.mark.parametrize("argv", [argv for argv, _ in PINNED_COMPARISONS], ids=PINNED_IDS)
def test_the_comparison_payload_holds_exactly_these_fields(tmp_path, argv):
    code, env = run_json(tmp_path, ["compare"] + argv)
    assert code == 0
    assert sorted(env["payload"]) == COMPARISON_FIELDS == sorted(certs.COMPARISON_KEYS)
    assert env["payload"]["composed"] == {} and sorted(env["payload"]["boosted"]) == ["witness"]


# SHA-256 of the canonical JSON of the F2 × Z/n payloads for U = [ab]×{0},
# built through the one comparison path (the CLI names only F2 and F2 × Z/2)
# and re-recorded at schema 3; of their three witnesses; and of the sweeps
# that left the payload at schema 3, {"counting": check_counting's report,
# "claim1": [claim 1's minimum, its cell]}.  The witness and sweep digests
# were recorded at schema 2, where Z/3 and Z/4 had been pinned before the
# counting and threshold sweeps read their trie's keys alone, Z/6 before
# the product tower check was decided on its factors, Z/5 and Z/8 before
# the sweep spelt its words in letters.  Their sweeps run over hundreds of
# bases (Z/8: tens of thousands of shared keys), and the Z/6 tower check
# over six labels.
PINNED_ZN_COMPARISONS = [
    (3, "a3e0e746b76b7121109c9d151205a3a9434580e9e58e274fc2e7cf2ef25ce9a4",
     "12a9a1a628b16fb04b53c612ff377a0e540a22cea9500efdc823512d02b8d892",
     "5dfe3c05971d2accfbce58803f24eaf198bf1e4ddc70eb7cd7c3a90c5bbb2e4b"),
    (4, "d38bfe09f2d4f4f65450337f0c760acd4c78357cd9d49fe07d235638c5241270",
     "0cfe6bbd1c0ca6fb663138bda096820a9fa7c77dc8c3a008ee97aaf378fd7b87",
     "58b1f2c6d5face47524ce8127374b563f0e2db87c86b0f0fda05031f8e2cdfcf"),
    (5, "2ed30d1314b2c071aedee35f398746ad6646bb4fac350a1706e03a89ca966387",
     "1c225045a31857aa6a396c9ac90cc8f55976fae368bbb1f31e4d8786f64cd730",
     "a974f7c59b7343dfe2ae6ffcb4212d2892ff37620ccbb359a29f6e8ba6c43a95"),
    (6, "0f5549bb23002c7dcde87903d4fc4d759a64ceb16e50f0cd7469f6273d44dbdf",
     "65fa4cd804e3ed7b9804562c9fa64cc439eb606769b56502d7b260931734c95e",
     "ae50b1c927d77db660eb9637c273fb822555d2cc6dc4c7871b24df9319a2db9c"),
    (8, "edfbbcfc193363f11b288db8d4222035214d0f3c8e03b7012aefa5b181273984",
     "b2552ce2b8fdbc64fc804bd9cf705e761342712a64b840a3ed2f06f5eafefedc",
     "07cc18cf6398452682fb9db27f9bb5ade49571de47b3b67ac2ae1114fe19bde6"),
]


@pytest.mark.parametrize(
    "k, digest, witnesses, sweeps",
    PINNED_ZN_COMPARISONS,
    ids=[f"F2xZ{k}-ab0" for k, *_ in PINNED_ZN_COMPARISONS],
)
def test_zn_comparison_bytes_are_pinned(monkeypatch, k, digest, witnesses, sweeps):
    from test_comparison import _zn_instance

    import paratower.comparison as comparison
    from paratower.boundary import ClopenSet, ProductClopen
    from paratower.groups import cyclic_group

    seen = {}
    counting, extreme = comparison.check_counting, comparison.extreme_weighted_count

    def claim1(*args):
        value, cell = extreme(*args)
        seen["claim1"] = [str(value), list(cell)]
        return value, cell

    monkeypatch.setattr(comparison, "check_counting",
                        lambda *args: seen.setdefault("counting", counting(*args)))
    monkeypatch.setattr(comparison, "extreme_weighted_count", claim1)
    u_set = ProductClopen(cyclic_group(k), {"0": ClopenSet.cylinder("ab")})
    payload = comparison.build_comparison(_zn_instance(k), u_set).to_json()
    assert sorted(payload) == COMPARISON_FIELDS
    assert hashlib.sha256(certs.canonical_json(payload).encode()).hexdigest() == digest
    assert _witnesses_digest(payload) == witnesses
    assert hashlib.sha256(certs.canonical_json(seen).encode()).hexdigest() == sweeps


# SHA-256 of the `--json` output of each tower builder, in exact and ball
# mode, and of comparisons; deciding product towers by their factors must
# keep them as they are.  The tower and colouring pins are of the file at
# schema 2.  The comparison pins were re-recorded at schema 3, when the
# construction records left the payload; their witnesses are pinned by
# COMPARISON_WITNESSES.
PINNED_TOWERS = [
    (["f2-towers", "--D", "e,a,A,b,B"],
     "a9ef0b669482174ae5da5c134cddab80d98322bbc0a82fb2497b6ebb12db9f56"),
    (["more-towers", "--D", "e,a,A,b,B", "--copies", "3"],
     "579e091e605c4a6763d2bc9f175afd19027a6653639f99970ea98a65afa378d6"),
    (["ext-towers", "--kind", "f2xk", "--k-order", "3", "--F", "e:0,a:1,B:2"],
     "fe4325f36a258973b0d3900a1c1b0328396bb61854a90889961352353a9ca7da"),
    (["ext-towers", "--kind", "f2xk", "--k-order", "3", "--F", "e:0,a:1,B:2",
      "--mode", "ball", "--radius", "4"],
     "82c1f659434ca7ecb32f9b4f33d103aa85d4198f06027c411a906993639bb7db"),
    (["ext-towers", "--kind", "f2xf2", "--F", "a:b,A:B"],
     "b4609093f4f5f303901427cbecded84ddf08e5ea87eefa4c0aaf39bb1c573d34"),
    (["union-towers", "--D", "e,a,A,b,B"],
     "359f13ea0d899455d38f1f4afa0dd3f19ee43843cf7e1e89121147f89ba1da77"),
    (["compare", "--instance", "F2xZ2", "--U", "ab:0,ab:1"],
     "759074968dd2e6ecc72561395db541eaadf8b169ead54c18c7a735c517bba122"),
    # comparisons whose witnesses were recorded before F2 became the
    # one-label case of boundary x K; building both through one path must
    # keep them
    (["compare", "--instance", "F2", "--U", "Ba"],
     "4c68e19ae6a9e5f01554ccab3d9d7a516898f7b1fa280314c9a16e3e34780f00"),
    (["compare", "--instance", "F2", "--U", "aaB"],
     "102b301221755b4a5be5ae5e8cd446b6a118883ee945ec636ff4efba87720b01"),
    (["compare", "--instance", "F2", "--U", "abab"],
     "8e0291ddc1fd41d6beed93f7bc875918c05cb9f0b944a064316f0a9684a0ae01"),
    (["compare", "--instance", "F2", "--U", "bbA"],
     "fe4523d6a6c07b4c7b5f2e5eaea8035166ace0374e1c381736497f32203e8fa7"),
    (["compare", "--instance", "F2", "--U", "A"],
     "6b0511a53f462696c00b7da6d9d7a1838f0569bb0a09d3ad4eeefe10488bf500"),
    (["compare", "--instance", "F2xZ2", "--U", "b:1"],
     "77418af45787f54d3b38a0f16be555304515d069d3dcbcf8162a9eac3a998273"),
    (["compare", "--instance", "F2xZ2", "--U", "abA:1"],
     "a6bca55d91e1ab57a628dca17ee578bd66cb07c9db2d10fcd654e2811c104de8"),
    (["compare", "--instance", "F2xZ2", "--U", "Ba:1,b:0"],
     "626ecf0129ca205cf7618554d8a3abc3c5a8b55af7c6d2418c10f9f47eb698c4"),
    # colourings recorded while finite K and Z had a greedy each; one greedy
    # along K's enumeration must keep them
    (["color", "--K", "Z", "--E=-1,0,1", "--window", "50"],
     "186b43eaf4ec4ef6657218012274dcad897695cb15da3df6ece4aa4cbf66b283"),
    (["color", "--K", "Z", "--E=-3,-1,0,1,3"],
     "14591f707edd261d6c2e37fb05954c858b68a49378e8acbe681974c18fd73c3c"),
    (["color", "--K", "Z/5", "--E", "0,1,4"],
     "11be9db85e3fb49b09e54319f116f19b9bd478c9dcca406c398fdf5743b521b4"),
    (["color", "--K", "Z/12", "--E", "0,1,11,5,7"],
     "e564fc7fba56d8355240b14a8af31308685992839bf14891387cf62931bfa32d"),
    # tower commands recorded before they shared one body
    (["filling-towers", "--D", "e,a,A"],
     "4ac87b59c9bcca4ed199085f979390594caafbc5520c3ceecd8c875e4a693df1"),
    (["more-towers", "--D", "e,a,A,b,B", "--copies", "2", "--mode", "ball", "--radius", "6"],
     "849859b0564814361b92ffa317455e5dab8e036f0c924f0489adad19b40cbce1"),
]


@pytest.mark.parametrize(
    "argv, digest",
    PINNED_TOWERS,
    ids=["f2", "more-3", "f2xk-exact", "f2xk-ball", "f2xf2", "union", "compare-ab01",
         "compare-F2-Ba", "compare-F2-aaB", "compare-F2-abab", "compare-F2-bbA",
         "compare-F2-A", "compare-b1", "compare-abA1", "compare-Ba1-b0",
         "color-Z-50", "color-Z-13", "color-Z5", "color-Z12", "filling", "more-2-ball"],
)
def test_tower_stage_bytes_are_pinned(tmp_path, argv, digest):
    code, _ = run_json(tmp_path, argv)
    assert code == 0
    path = tmp_path / "out.json"
    if argv[0] == "compare":
        raw = _pinned_comparison(argv, path)
    else:
        # pinned at schema 2: only the envelope's version has changed since
        raw = path.read_bytes()
        env = json.loads(raw)
        assert raw == (certs.canonical_json(env) + "\n").encode() and env["schema_version"] == 3
        raw = (certs.canonical_json(dict(env, schema_version=2)) + "\n").encode()
    assert hashlib.sha256(raw).hexdigest() == digest


# SHA-256 of the sorted rows [source, cell, mover, colour] of each F2 × Z/2
# claim-3 witness at the depth of its matching, and the number of rows,
# recorded when the witness had one entry per matched cell: grouping the
# cells by (source, mover, colour) must keep the matching itself.
CLAIM3_CELLS = [
    ("a:0", 27, 112, "4a948b1f91b8b9b5ed5808a7d360d94fe0a13a1d915041a5b123b7bd136ae127"),
    ("ab:0,ab:1", 30, 328, "9647164cbc62139d09063ac1102a08b74f821c872df0b23279363b78c0f616bc"),
    ("b:1", 26, 328, "462f209229a3de46deff3ffb66b5eeb1205cbc1a1365b05f30fbdfedff6ee42c"),
    ("abA:1", 35, 112, "57b9e1fc8bfe6c4c9ed7117d468ad4804ad5a989fcce6cd134a823b469ffd555"),
    ("Ba:1,b:0", 26, 328, "badb6129ab3c1f29dd2b5c0d95df07caeebe7c50b17e120ef5a5644d3a501f7c"),
]


@pytest.mark.parametrize("u, depth, count, digest", CLAIM3_CELLS, ids=[c[0] for c in CLAIM3_CELLS])
def test_claim3_cells_are_the_per_cell_matching(tmp_path, u, depth, count, digest):
    from oracles import cells
    from paratower.comparison import SubeqWitness

    code, env = run_json(tmp_path, ["compare", "--instance", "F2xZ2", "--U", u])
    assert code == 0
    w = SubeqWitness.from_json(env["payload"]["claim3_witness"])
    rows = sorted(
        certs.canonical_json([i, list(cell), w.space.elem_json(g), color])
        for i, piece, g, color in w.entries
        for cell in cells(w.space, piece, depth)
    )
    assert len(rows) == count and len(w.entries) == 8
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_a_per_cell_certificate_still_verifies(tmp_path):
    import gzip
    import pathlib

    # `compare --instance F2xZ2 --U a:0` as written when the claim-3 witness
    # had one entry per matched cell: the F2xZ2-a0 pin of that time
    raw = gzip.decompress(
        (pathlib.Path(__file__).parent / "data" / "compare_F2xZ2_a0_per_cell.json.gz").read_bytes()
    )
    assert hashlib.sha256(raw).hexdigest() == (
        "872442ea3b745cddd296a9e777aa778d87b0c9f5406845a6fe6b66c12d448610"
    )
    old = json.loads(raw)["payload"]
    assert len(old["claim3_witness"]["entries"]) == 112
    path = tmp_path / "per_cell.json"
    # a schema-2 file is malformed, as a schema-1 file is
    path.write_bytes(raw)
    assert main(["verify", str(path)]) == 3
    # its three witnesses, instance, U and n still prove the theorem
    payload = {key: old[key] for key in ("instance", "U", "n", "claim2_witness", "claim3_witness")}
    payload.update({"boosted": {"witness": old["boosted"]["witness"]}, "composed": {}, "pass": True})
    path.write_text(json.dumps(certs.wrap("comparison", payload)))
    assert main(["verify", str(path)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--instance", "F2", "--U", "ab,,ba"],
        ["compare", "--instance", "F2", "--U", "ab,"],
        ["compare", "--instance", "F2", "--U", ","],
        ["compare", "--instance", "F2xZ2", "--U", "a:0, ,b:1"],
        ["isometry", "--U", "ab,"],
        ["isometry", "--U", ",ba"],
    ],
    ids=["compare-inner", "compare-trailing", "compare-comma", "compare-blank",
         "isometry-trailing", "isometry-leading"],
)
def test_an_empty_cylinder_token_is_refused(capsys, argv):
    # the empty word would read as the whole space: full below full
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: empty cylinder token")


def test_boost_refuses_an_empty_cylinder_token(tmp_path, capsys):
    p = _write_witness(tmp_path, "w.json", ["b"], ["a"], [(0, "b", "a", 0)])
    assert main(["boost", str(p), "--V", "a,"]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: empty cylinder token")


def test_a_whole_k_slice_is_still_a_cylinder_token():
    from paratower.boundary import ClopenSet
    from paratower.cli import _parse_clopen
    from paratower.comparison import ProductSpace
    from paratower.groups import cyclic_group

    space = ProductSpace(cyclic_group(2))
    s = _parse_clopen(space, ":0,ab:1")
    assert s.slices["0"].is_full() and s.slices["1"].equals(ClopenSet.cylinder("ab"))


@pytest.mark.parametrize("value", ["-1", "x", "", "1.5"])
def test_compare_rejects_a_bad_max_depth(monkeypatch, capsys, value):
    monkeypatch.setenv("PARATOWER_MAX_DEPTH", value)
    assert main(["compare", "--instance", "F2", "--U", "ab"]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "PARATOWER_MAX_DEPTH" in err and repr(value) in err


def test_compare_depth_cap_is_a_usage_error(monkeypatch, capsys):
    import paratower.comparison as comparison

    # no cell is ever placed: splitting the bases passes the cap at once
    monkeypatch.setenv("PARATOWER_MAX_DEPTH", "0")
    monkeypatch.setattr(comparison, "_kuhn_match", lambda *a: {})
    assert main(["compare", "--instance", "F2", "--U", "ab"]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "no per-color disjoint matching up to depth" in err
    # how far the search got: the one depth tried, its cells and lookups
    assert "up to depth 12 (deepest depth tried 12: 2 cells, 14 lookups)" in err


# every matched claim-3 witness refused, so every held cell of the matching
# splits, about three times the cells each time, until the gate refuses
REFUSE_EVERY_DEPTH = """
import sys
import paratower.comparison as comparison
from paratower.cli import main

real = comparison._verified

def refused(w, what):
    if what == "assigned":
        raise comparison.ConstructionFailed("refused")
    return real(w, what)

comparison._verified = refused
sys.exit(main(sys.argv[1:]))
"""


def test_a_matching_past_the_gate_exits_64_within_seconds(monkeypatch):
    src = os.path.dirname(os.path.dirname(paratower.__file__))
    monkeypatch.setenv("PYTHONPATH", src)
    monkeypatch.delenv("PARATOWER_MAX_DEPTH", raising=False)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", REFUSE_EVERY_DEPTH, "compare", "--instance", "F2xZ2", "--U", "a:0"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        stderr = proc.stderr.read()
    finally:
        watchdog.cancel()
        proc.stderr.close()
    # reaped here, so the usage is this child's own, not the peak of every
    # child the session has waited for
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 64, stderr
    assert stderr.count("\n") == 1
    assert stderr == (
        "error: the matching down to depth 35 needs 577368 (cell, mover) lookups over"
        " 52488 held cells, above the budget of 500000;"
        " deepest depth tried 34: 17496 cells, 192456 lookups\n"
    )
    assert elapsed < 30
    assert usage.ru_maxrss < 200 * 1024


def _write_witness(tmp_path, name, sources, targets, entries):
    from paratower.boundary import ClopenSet
    from paratower.comparison import PlainSpace, SubeqWitness

    cyl = ClopenSet.cylinder
    w = SubeqWitness(
        PlainSpace(),
        [cyl(s) for s in sources],
        [cyl(t) for t in targets],
        [(i, cyl(p), g, c) for i, p, g, c in entries],
    )
    path = tmp_path / name
    path.write_text(json.dumps(w.to_json()))
    return path


def test_compose_command(tmp_path):
    p1 = _write_witness(tmp_path, "w1.json", ["b"], ["a"], [(0, "b", "a", 0)])
    p2 = _write_witness(tmp_path, "w2.json", ["a"], ["b"], [(0, "a", "b", 0)])
    code, env = run_json(tmp_path, ["compose", str(p1), str(p2)])
    assert code == 0
    kind, payload = certs.parse_envelope(env)
    assert kind == "witness"
    assert main(["verify", str(tmp_path / "out.json")]) == 0


def test_boost_command(tmp_path):
    entries = [
        (0, "ba", "a", 0),
        (0, "bb", "a", 1),
        (0, "bA", "a", 1),
    ]
    p = _write_witness(tmp_path, "w.json", ["b"], ["a", "a"], entries)
    code, env = run_json(tmp_path, ["boost", str(p), "--V", "a"])
    assert code == 0
    assert len(env["payload"]["targets"]) == 1


def _write_bad_witnesses(tmp_path):
    """bad1 claims [a] ∪ [A] below [a], with one entry covering only [a];
    bad2 is the identity witness on [a]."""
    from paratower.boundary import ClopenSet
    from paratower.comparison import PlainSpace, SubeqWitness, identity_witness

    cyl = ClopenSet.cylinder
    bad1 = SubeqWitness(PlainSpace(), [ClopenSet(["a", "A"])], [cyl("a")], [(0, cyl("a"), "", 0)])
    p1, p2 = tmp_path / "bad1.json", tmp_path / "bad2.json"
    p1.write_text(json.dumps(bad1.to_json()))
    p2.write_text(json.dumps(identity_witness(PlainSpace(), cyl("a")).to_json()))
    return str(p1), str(p2)


@pytest.mark.parametrize("command", ["compose", "boost"])
def test_compose_and_boost_report_a_failed_witness(tmp_path, capsys, command):
    bad1, bad2 = _write_bad_witnesses(tmp_path)
    argv = ["compose", bad1, bad2] if command == "compose" else ["boost", bad1, "--V", "a"]
    code, env = run_json(tmp_path, argv)
    assert code == 2 and env is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    # [A] is the cell of the source that no piece covers
    assert "failed verification" in err and "'coverage'" in err and "'A'" in err


def test_each_witness_is_verified_once(monkeypatch, tmp_path):
    import paratower.comparison as comparison

    calls = []
    real = comparison.verify_witness

    def counted(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(comparison, "verify_witness", counted)
    # claim 2, claim 3, composed and boosted
    code, env = run_json(tmp_path, ["compare", "--instance", "F2xZ2", "--U", "a:0"])
    assert code == 0 and env["payload"]["pass"]
    assert len(calls) == 4
    assert len({id(w) for w in calls}) == 4
    calls.clear()
    p1 = _write_witness(tmp_path, "w1.json", ["b"], ["a"], [(0, "b", "a", 0)])
    p2 = _write_witness(tmp_path, "w2.json", ["a"], ["b"], [(0, "a", "b", 0)])
    assert run_json(tmp_path, ["compose", str(p1), str(p2)])[0] == 0
    assert len(calls) == 1
    calls.clear()
    entries = [(0, "ba", "a", 0), (0, "bb", "a", 1), (0, "bA", "a", 1)]
    p = _write_witness(tmp_path, "w.json", ["b"], ["a", "a"], entries)
    assert run_json(tmp_path, ["boost", str(p), "--V", "a"])[0] == 0
    assert len(calls) == 1


def test_unreduced_cylinder_base_is_rejected(tmp_path):
    # [bB] is no cylinder: ba, bb and bB do not make up [b]; the program
    # builds no such set, so the file is written with [bA] and edited
    entries = [(0, "ba", "a", 0), (0, "bb", "a", 1), (0, "bA", "a", 1)]
    p = _write_witness(tmp_path, "w.json", ["b"], ["a", "a"], entries)
    assert p.read_text().count('"bA"') == 1
    p.write_text(p.read_text().replace('"bA"', '"bB"'))
    assert main(["boost", str(p), "--V", "a"]) == 3
    env = certs.wrap("witness", json.loads(p.read_text()))
    p.write_text(json.dumps(env))
    assert main(["verify", str(p)]) == 3


@pytest.mark.parametrize("u", ["bB", "ax"])
def test_compare_rejects_unreduced_target(capsys, u):
    assert main(["compare", "--instance", "F2", "--U", u]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert repr(u) in err


def test_boost_parses_v_in_the_witness_space(tmp_path):
    from paratower.boundary import ClopenSet, ProductClopen
    from paratower.comparison import ProductSpace, identity_witness
    from paratower.groups import cyclic_group

    k3 = cyclic_group(3)
    w = identity_witness(ProductSpace(k3), ProductClopen(k3, {"0": ClopenSet.cylinder("ab")}))
    p = tmp_path / "w.json"
    p.write_text(json.dumps(w.to_json()))
    code, env = run_json(tmp_path, ["boost", str(p), "--V", "a:0"])
    assert code == 0
    assert env["payload"]["space"]["k"]["name"] == "Z/3"
    assert main(["verify", str(tmp_path / "out.json")]) == 0
    assert main(["boost", str(p), "--V", "a:3"]) == 64


ISOMETRY_TARGETS = ["a", "ab", "Ba", "abABabAB", "ab,ba", "a,b,B", "AbaBBa,bb"]


def test_isometry_command(tmp_path):
    code, env = run_json(tmp_path, ["isometry"])
    assert code == 0
    # U defaults to the cylinder [a]
    assert env["payload"]["U"] == {"space": "boundary", "kind": "antichain", "words": ["a"]}
    assert main(["verify", str(tmp_path / "out.json")]) == 0
    assert "range_inside_u: pass" in emit_report(env)


@pytest.mark.parametrize("u", ISOMETRY_TARGETS)
def test_isometry_then_verify_for_each_target(tmp_path, u):
    code, env = run_json(tmp_path, ["isometry", "--U", u])
    assert code == 0
    assert sorted(env["payload"]) == ["U", "checks", "pass", "v"]
    assert env["payload"]["checks"] == {
        "isometry": True, "range_inside_u": True, "not_unitary": True
    }
    assert main(["verify", str(tmp_path / "out.json")]) == 0
    first = (tmp_path / "out.json").read_bytes()
    assert run_json(tmp_path, ["isometry", "--U", u])[0] == 0
    assert (tmp_path / "out.json").read_bytes() == first


@pytest.mark.parametrize(
    "u, named",
    [("", "proper"), ("a,A,b,B", "proper"), ("a:3", "'a:3'"), ("bB", "'bB'"), ("ax", "'ax'")],
    ids=["full", "full-union", "label", "unreduced", "not-a-word"],
)
def test_isometry_refuses_a_bad_u(capsys, u, named):
    start = time.perf_counter()
    assert main(["isometry", "--U", u]) == 64
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and named in err


def test_isometry_depth_cap_is_a_usage_error(monkeypatch, capsys):
    import paratower.comparison as comparison

    monkeypatch.setenv("PARATOWER_MAX_DEPTH", "0")
    monkeypatch.setattr(comparison, "_kuhn_match", lambda *a: {})
    assert main(["isometry", "--U", "ab"]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "no per-color disjoint matching up to depth" in err
    assert "deepest depth tried" in err and "cells" in err and "lookups" in err


def test_f2_targets_are_comma_lists_of_cylinders():
    from paratower.boundary import ClopenSet
    from paratower.cli import _parse_clopen
    from paratower.comparison import PlainSpace

    assert _parse_clopen(PlainSpace(), "ab, ba,abA").equals(ClopenSet(["ab", "ba"]))
    assert _parse_clopen(PlainSpace(), "a,A,b,B").is_full()


def _isometry_payload():
    from paratower.boundary import ClopenSet
    from paratower.crossed import build_isometry

    return build_isometry(ClopenSet.cylinder("a")).to_json()


def _widen_first_term(p):
    # the parent cylinder of the first term's range: still inside U, but
    # the first term's domain now meets the second's
    words = p["v"]["terms"][0]["step"][0]["set"]["words"]
    words[0] = words[0][:-1]
    return p


def _shrink_u_to_the_last_term(p):
    # U keeps only the last term's range, so the first term's range is outside
    p["U"] = p["v"]["terms"][-1]["step"][0]["set"]
    return p


@pytest.mark.parametrize(
    "forge, failing",
    [
        (_widen_first_term, "isometry"),
        (_shrink_u_to_the_last_term, "range_inside_u"),
        (lambda p: _with(p, ["checks", "not_unitary"], False), None),
        (lambda p: _with(p, ["checks", "extra"], True), None),
        (lambda p: _with(p, ["pass"], False), None),
    ],
    ids=["term-widened", "U-shrunk", "check-flipped", "check-extra", "pass-flipped"],
)
def test_verify_rejects_forged_isometry(tmp_path, forge, failing):
    code, report = _verify_payload(tmp_path, "isometry", forge(_isometry_payload()))
    assert code == 2 and not report["consistent_with_recorded"]
    recomputed_failing = [name for name, ok in report["recomputed"].items() if not ok]
    assert recomputed_failing == ([failing] if failing else [])


_PRODUCT_SET = {"space": "product", "k": {"name": "Z/2"}, "slices": {}}


@pytest.mark.parametrize(
    "forge, named",
    [
        (lambda p: _with(p, ["v", "terms", 0, "step", 0, "set"], _PRODUCT_SET), "product"),
        (lambda p: _with(p, ["v", "terms", 0, "g"], "aA"), "'aA'"),
        (lambda p: _with(p, ["U"], _PRODUCT_SET), "product"),
        (lambda p: {k: v for k, v in p.items() if k != "U"}, "'U'"),
    ],
    ids=["step-product-set", "term-unreduced", "U-product-set", "old-shape"],
)
def test_verify_refuses_a_malformed_isometry(tmp_path, capsys, forge, named):
    start = time.perf_counter()
    code, report = _verify_payload(tmp_path, "isometry", forge(_isometry_payload()))
    assert time.perf_counter() - start < 1
    assert code == 3 and named in report["error"]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("malformed:")


def _forged_towers(tmp_path, payload) -> str:
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(certs.wrap("towers", payload)))
    return str(path)


@pytest.mark.parametrize("radius", ["12", 12.0, True, -1])
def test_verify_rejects_forged_ball_radius(tmp_path, radius):
    from paratower.towers import f2_towers, verify_towers

    payload = verify_towers(f2_towers(["", "a", "A", "b", "B"]), "ball", 12).to_json()
    payload["radius"] = radius
    assert main(["verify", _forged_towers(tmp_path, payload)]) == 3


def test_verify_ball_certificate_at_radius_one_million(tmp_path):
    from paratower.towers import f2_towers, verify_towers

    cert = verify_towers(f2_towers(["", "a", "A", "b", "B"]), "ball", 10**6)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(certs.wrap("towers", cert.to_json())))
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - t0 < 1


def _rectangle_with_orbit_factor() -> dict:
    # an orbit-preimage factor has no normal form, so the check must sweep
    # the radius-8 ball of F2 x F2: 172,160,642 pairs
    from paratower.boundary import AperiodicPoint, ClopenSet
    from paratower.subsets import OrbitPreimage
    from paratower.towers import extension_towers, verify_towers

    fam = extension_towers([("a", "b"), ("A", "B")])
    payload = verify_towers(fam, "ball", 2).to_json()
    orbit = OrbitPreimage(AperiodicPoint(), ClopenSet.cylinder("ab"))
    payload["towers"][0]["A"]["first"] = orbit.to_json()
    payload["radius"] = 8
    return payload


def _coset_slices_moved_by_c() -> dict:
    # translating by c leaves the coset-slice form, so the check must sweep
    # the radius-11 ball of F3: 73,242,187 words
    from paratower.towers import union_towers, verify_towers

    payload = verify_towers(union_towers(["", "a", "A", "b", "B"]), "ball", 2).to_json()
    payload["D"].append("c")
    payload["radius"] = 11
    return payload


@pytest.mark.parametrize("forge", [_rectangle_with_orbit_factor, _coset_slices_moved_by_c])
def test_verify_refuses_oversized_ball_sweep(tmp_path, forge):
    path = _forged_towers(tmp_path, forge())
    t0 = time.perf_counter()
    assert main(["verify", path]) == 3
    assert time.perf_counter() - t0 < 1


def _forged_cover_groups(groups):
    from paratower.towers import f2_towers, verify_towers

    payload = verify_towers(f2_towers(["", "a", "A", "b", "B"]), "exact").to_json()
    payload["cover_groups"] = groups
    return payload


def _f2xk_without_k(mode):
    from paratower.groups import cyclic_group
    from paratower.towers import finite_normal_ext_towers, verify_towers

    fam = finite_normal_ext_towers([("", "0"), ("a", "1"), ("A", "1")], cyclic_group(2))
    payload = verify_towers(fam, mode, 2 if mode == "ball" else None).to_json()
    del payload["k"]
    return payload


def _f3_sets_in_f2(mode):
    from paratower.towers import union_towers, verify_towers

    payload = verify_towers(union_towers(["", "a", "A", "b", "B"]), "exact").to_json()
    payload["group"] = "F2"
    return _with_mode(payload, mode)


def _with_mode(payload, mode):
    payload["mode"] = mode
    if mode == "ball":
        payload["radius"] = 2
    return payload


def _finite_words_as_a_string(mode):
    # the checks are those of the set {a, b}, which a string "ab" of words
    # must not decode as
    import paratower.subsets as ss
    from paratower.towers import TowerFamily, f2_towers, verify_towers

    fam = f2_towers(["", "a"])
    fam = TowerFamily("F2", fam.d_set, fam.items + [(ss.finite(["a", "b"]), "")])
    payload = verify_towers(fam, mode, 2 if mode == "ball" else None).to_json()
    payload["towers"][-1]["A"] = {"kind": "finite", "words": "ab"}
    return payload


def _removed_set_kind(wrap):
    """An F2 family whose first tower set is rewritten by ``wrap`` into a set
    kind that no builder writes."""

    def forge(mode):
        from paratower.towers import f2_towers, verify_towers

        payload = verify_towers(f2_towers(["", "a"]), mode, 2 if mode == "ball" else None).to_json()
        tower = payload["towers"][0]
        tower["A"] = wrap(tower["A"])
        return payload

    return forge


def _orbit_part(a):
    from paratower.boundary import AperiodicPoint, ClopenSet
    from paratower.subsets import OrbitPreimage

    return {
        "kind": "union",
        "parts": [a, OrbitPreimage(AperiodicPoint(), ClopenSet.cylinder("ab")).to_json()],
    }


@pytest.mark.parametrize("mode", ["exact", "ball"])
@pytest.mark.parametrize(
    "forge",
    [
        # a tower index past the end
        lambda mode: _with_mode(_forged_cover_groups([[0, 2]]), mode),
        # a negative index must not name the last tower
        lambda mode: _with_mode(_forged_cover_groups([[-1]]), mode),
        # an index that is a bool, and an empty cover group
        lambda mode: _with_mode(_forged_cover_groups([[True, 1]]), mode),
        lambda mode: _with_mode(_forged_cover_groups([[0, 1], []]), mode),
        _f2xk_without_k,
        # coset-slice sets have no meaning in F2
        _f3_sets_in_f2,
        _finite_words_as_a_string,
        # each of these holds the same set as the built one
        _removed_set_kind(lambda a: {"kind": "inter", "parts": [a, a]}),
        _removed_set_kind(lambda a: {"kind": "compl", "inner": {"kind": "compl", "inner": a}}),
        _removed_set_kind(lambda a: {"kind": "translate", "g": "", "inner": a}),
        _removed_set_kind(_orbit_part),
    ],
    ids=[
        "index-past-end", "negative-index", "bool-index", "empty-group", "f2xk-without-k",
        "f3-sets-in-f2", "finite-words-string", "inter", "compl", "translate",
        "union-with-orbitpre",
    ],
)
def test_verify_rejects_forged_tower_family(tmp_path, forge, mode):
    assert main(["verify", _forged_towers(tmp_path, forge(mode))]) == 3


def _f2xk_exact_payload(tmp_path) -> dict:
    code, env = run_json(
        tmp_path, ["ext-towers", "--kind", "f2xk", "--k-order", "2", "--F", "e:0,a:1,A:1"]
    )
    assert code == 0
    return env["payload"]


def _cyclic_json(n: int) -> dict:
    return {"name": f"Z/{n}", "elements": [str(i) for i in range(min(n, 400))]}


@pytest.mark.parametrize("order", [3, 400])
def test_verify_rejects_family_k_unlike_its_sets_k(tmp_path, order):
    # the sets live in F2 x Z/2 while the family claims F2 x Z/order
    payload = _f2xk_exact_payload(tmp_path)
    payload["k"] = _cyclic_json(order)
    assert main(["verify", _forged_towers(tmp_path, payload)]) == 3


def test_verify_rejects_a_slice_outside_k(tmp_path):
    # a full slice at a label K does not have must not be dropped unread
    payload = _f2xk_exact_payload(tmp_path)
    payload["towers"][0]["A"]["slices"]["7"] = {"kind": "cone", "base": ""}
    assert main(["verify", _forged_towers(tmp_path, payload)]) == 3


def test_verify_refuses_a_huge_cyclic_group_at_once(tmp_path):
    # building Z/100000 would mean a table of 10^10 products
    payload = _f2xk_exact_payload(tmp_path)
    payload["k"] = _cyclic_json(100_000)
    for tower in payload["towers"]:
        tower["A"]["k"] = _cyclic_json(100_000)
    path = _forged_towers(tmp_path, payload)
    t0 = time.perf_counter()
    assert main(["verify", path]) == 3
    assert time.perf_counter() - t0 < 1


def test_ext_towers_refuses_k_order_above_the_cap(capsys):
    assert main(["ext-towers", "--kind", "f2xk", "--k-order", "65", "--F", "e:0"]) == 64
    assert "above the cap of 64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [(0, "", "", 7), (0, "", "", -1), (0, "", "", True), (1, "", "", 0), (False, "", "", 0)],
    ids=["color-past-end", "negative-color", "bool-color", "source-past-end", "bool-source"],
)
def test_verify_rejects_witness_entry_out_of_range(tmp_path, entry):
    # the color-7 entry would put the whole boundary into a target that
    # no check looks at
    p = _write_witness(tmp_path, "w.json", [""], ["a"], [entry])
    env = certs.wrap("witness", json.loads(p.read_text()))
    p.write_text(json.dumps(env))
    assert main(["verify", str(p)]) == 3


def test_report_output(capsys):
    assert main(["f2-towers", "--D", "e,a,A,b,B"]) == 0
    out = capsys.readouterr().out
    assert "kind: towers" in out
    assert "overall: pass" in out


def test_emit_report_flags_bad_hash(tmp_path):
    cert_code, env = run_json(tmp_path, ["f2-towers", "--D", "e,a,A,b,B"])
    env["content_hash"] = "0" * 64
    assert "hash mismatch" in emit_report(env)


def test_usage_errors_exit_64(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["f2-towers"])  # missing --D
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64
    # bad letters in D are a usage error, not a crash
    assert main(["f2-towers", "--D", "a,x"]) == 64


def test_determinism_across_runs(tmp_path):
    a_code, a = run_json(tmp_path, ["f2-towers", "--D", "e,a,A,b,B"], "a.json")
    b_code, b = run_json(tmp_path, ["f2-towers", "--D", "e,a,A,b,B"], "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# -- forged comparison certificates, each with its content hash recomputed

@pytest.fixture(scope="module")
def f2_comparison():
    from paratower.boundary import ClopenSet
    from paratower.comparison import ComparisonInstance, build_comparison

    return build_comparison(ComparisonInstance("F2"), ClopenSet.cylinder("ab")).to_json()


def _verify_payload(tmp_path, kind, payload, **envelope):
    """Exit code of `verify` on the payload, and the verifier's report."""
    env = dict(certs.wrap(kind, payload), **envelope)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(env))
    return main(["verify", str(path)]), certs.verify_certificate(env)[1]


def _forge_as_the_benchmark(p):
    # every witness is the identity witness on [bb], which proves nothing
    from paratower.boundary import ClopenSet
    from paratower.comparison import PlainSpace, identity_witness

    trivial = identity_witness(PlainSpace(), ClopenSet.cylinder("bb")).to_json()
    p["claim2_witness"] = p["claim3_witness"] = p["boosted"]["witness"] = trivial
    p["composed"]["witness"] = trivial


def _forge_other_u(p):
    from paratower.boundary import ClopenSet

    p["U"] = ClopenSet.cylinder("ba").to_json()


def _forge_full_final_target(p):
    from paratower.boundary import ClopenSet

    p["boosted"]["witness"]["targets"] = [ClopenSet.full_set().to_json()]


def _forge_claim3_without_the_last_v(p):
    # still a sound witness, but of fewer sources than V
    w = p["claim3_witness"]
    last = len(w["sources"]) - 1
    w["sources"].pop()
    w["entries"] = [e for e in w["entries"] if e["source"] != last]


@pytest.mark.parametrize(
    "forge, claim",
    [
        (_forge_as_the_benchmark, "claim 2"),
        # the target cell is worked out from U, so claim 3 fails first
        (_forge_other_u, "claim 3"),
        (_forge_full_final_target, "final"),
        (_forge_claim3_without_the_last_v, "claim 3"),
    ],
    ids=["benchmark-forgery", "other-U", "full-final-target", "claim3-sources-not-V"],
)
def test_verify_rejects_forged_comparison(tmp_path, f2_comparison, forge, claim):
    payload = copy.deepcopy(f2_comparison)
    forge(payload)
    code, report = _verify_payload(tmp_path, "comparison", payload)
    assert code == 2 and not report["pass"]
    assert report["failed"].startswith(claim)
    # each forged witness is sound; it fails because it proves another claim
    name = {"claim 2": "claim2_witness", "claim 3": "claim3_witness", "final": "boosted"}[claim]
    assert report["witnesses"][name]["verified"]
    assert not report["witnesses"][name]["proves_claim"]


@pytest.fixture(scope="module")
def f2xz2_comparison():
    from paratower.boundary import ClopenSet, ProductClopen
    from paratower.comparison import ComparisonInstance, build_comparison
    from paratower.groups import cyclic_group

    u_set = ProductClopen(cyclic_group(2), {"0": ClopenSet.cylinder("a")})
    return build_comparison(ComparisonInstance("F2xZ2"), u_set).to_json()


def test_verify_accepts_the_comparison_and_rejects_schema_1(tmp_path, f2_comparison):
    code, report = _verify_payload(tmp_path, "comparison", copy.deepcopy(f2_comparison))
    assert code == 0 and report["failed"] is None
    # one reader: a schema-1 or schema-2 file is malformed
    for version in (1, 2):
        code, report = _verify_payload(tmp_path, "comparison", f2_comparison,
                                       schema_version=version)
        assert code == 3 and report["error"] == f"unsupported schema: {version}"


@pytest.mark.parametrize("instance", ["f2_comparison", "f2xz2_comparison"], ids=["F2", "F2xZ2"])
@pytest.mark.parametrize("recorded", [False, None, "true", 1])
def test_verify_compares_the_recorded_pass_with_its_verdict(tmp_path, request, instance, recorded):
    payload = copy.deepcopy(request.getfixturevalue(instance))
    payload["pass"] = recorded
    code, report = _verify_payload(tmp_path, "comparison", payload)
    assert code == 2 and report["failed"] == "recorded pass is not the verdict"
    assert all(r["verified"] and r["proves_claim"] for r in report["witnesses"].values())


# a record that verify does not check is refused: a key the payload does
# not hold, among them every record of schema 2, or a missing key
@pytest.mark.parametrize("instance", ["f2_comparison", "f2xz2_comparison"], ids=["F2", "F2xZ2"])
@pytest.mark.parametrize(
    "forge",
    [
        lambda p: p.update(m=2),
        lambda p: p.update(claim1={"bound": 2, "min_count": "3", "pass": True}),
        lambda p: p.update(towers={"checks": {}}),
        lambda p: p.update(V=p["claim2_witness"]["targets"]),
        lambda p: p.pop("n"),
        lambda p: p.pop("composed"),
        lambda p: p["boosted"].update(report={"pass": True}),
        lambda p: p.update(boosted=[p["boosted"]["witness"]]),
    ],
    ids=["m", "claim1", "towers", "V", "no-n", "no-composed", "boosted-report", "boosted-list"],
)
def test_verify_refuses_a_record_it_does_not_check(tmp_path, request, instance, forge):
    payload = copy.deepcopy(request.getfixturevalue(instance))
    forge(payload)
    code, report = _verify_payload(tmp_path, "comparison", payload)
    assert code == 3 and "does not parse" in report["error"]


@pytest.mark.parametrize("n", [0, -1, True, "2", 2.0, None])
def test_verify_refuses_an_n_that_is_no_positive_int(tmp_path, f2_comparison, n):
    payload = dict(f2_comparison, n=n)
    code, report = _verify_payload(tmp_path, "comparison", payload)
    assert code == 3 and "n must be a positive int" in report["error"]


@pytest.mark.parametrize("shift", [1, -1, 10**18])
def test_verify_reads_the_copies_of_the_target_cell_off_n(tmp_path, f2_comparison, shift):
    payload = dict(f2_comparison, n=f2_comparison["n"] + shift)
    code, report = _verify_payload(tmp_path, "comparison", payload)
    assert code == 2 and report["failed"].startswith("claim 3")
    assert not report["witnesses"]["claim3_witness"]["proves_claim"]


def test_verify_rejects_the_witnesses_of_another_k(tmp_path, f2xz2_comparison):
    # the F2 × Z/1 build for [a]×{0}: its sets equal the F2 × Z/2 sets on
    # the one label they have, so only the witnesses' space tells them apart
    from test_comparison import _zn_instance

    from paratower.boundary import ClopenSet, ProductClopen
    from paratower.comparison import build_comparison
    from paratower.groups import cyclic_group

    u_set = ProductClopen(cyclic_group(1), {"0": ClopenSet.cylinder("a")})
    z1 = build_comparison(_zn_instance(1), u_set).to_json()
    payload = dict(z1, instance=f2xz2_comparison["instance"], U=f2xz2_comparison["U"])
    code, report = _verify_payload(tmp_path, "comparison", payload)
    assert code == 2 and report["failed"].startswith("claim 2")
    assert all(r["verified"] and not r["proves_claim"] for r in report["witnesses"].values())


def test_verify_requires_composed_to_be_empty(tmp_path, f2_comparison):
    payload = copy.deepcopy(f2_comparison)
    payload["composed"]["report"] = {"pass": True}
    code, report = _verify_payload(tmp_path, "comparison", payload)
    assert code == 2 and report["failed"] == "composed is not empty"


def _product_witness():
    from paratower.boundary import ClopenSet, ProductClopen
    from paratower.comparison import ProductSpace, identity_witness
    from paratower.groups import cyclic_group

    k2 = cyclic_group(2)
    s = ProductClopen(k2, {"0": ClopenSet.cylinder("ab")})
    return identity_witness(ProductSpace(k2), s).to_json()


def _plain_witness():
    from paratower.boundary import ClopenSet
    from paratower.comparison import PlainSpace, identity_witness

    return identity_witness(PlainSpace(), ClopenSet.cylinder("ab")).to_json()


def _with(w, path, value):
    node = w
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return w


def _z3_set():
    from paratower.boundary import ClopenSet, ProductClopen
    from paratower.groups import cyclic_group

    return ProductClopen(cyclic_group(3), {"0": ClopenSet.cylinder("ab")}).to_json()


@pytest.mark.parametrize(
    "forge",
    [
        lambda: _with(_product_witness(), ["entries", 0, "piece"], {
            "space": "boundary", "kind": "antichain", "words": ["ab"]}),
        lambda: _with(_product_witness(), ["entries", 0, "piece"], _z3_set()),
        lambda: _with(_plain_witness(), ["sources", 0], _product_witness()["sources"][0]),
        # a slice at a label outside K
        lambda: _with(_product_witness(), ["targets", 0, "slices", "2"], {
            "space": "boundary", "kind": "full"}),
    ],
    ids=["boundary-piece-in-F2xZ2", "Z3-piece-in-Z2", "product-source-in-F2", "slice-outside-K"],
)
def test_verify_rejects_a_witness_set_of_another_space(tmp_path, forge):
    assert _verify_payload(tmp_path, "witness", forge())[0] == 3


def test_verify_rejects_a_product_piece_in_a_plain_comparison(tmp_path, f2_comparison):
    payload = copy.deepcopy(f2_comparison)
    payload["boosted"]["witness"]["entries"][0]["piece"] = _product_witness()["sources"][0]
    assert _verify_payload(tmp_path, "comparison", payload)[0] == 3



def _plain_witness_moved_by(g):
    from paratower.boundary import ClopenSet
    from paratower.comparison import PlainSpace, SubeqWitness

    b, a = ClopenSet.cylinder("b"), ClopenSet.cylinder("a")
    return SubeqWitness(PlainSpace(), [b], [a], [(0, b, g, 0)]).to_json()


def _f2_towers_with_d(word):
    from paratower.towers import f2_towers, verify_towers

    payload = verify_towers(f2_towers(["", "a", "A", "b", "B"]), "exact").to_json()
    payload["D"][1] = word
    return payload


@pytest.mark.parametrize(
    "kind, forge",
    [
        # "aA" is the identity, yet read as a word it carries [b] into [aAb] ⊂ [a]
        ("witness", lambda: _plain_witness_moved_by("aA")),
        ("witness", lambda: _with(_product_witness(), ["entries", 0, "g"], ["aA", "0"])),
        ("towers", lambda: _f2_towers_with_d("bBa")),
    ],
    ids=["F2-witness", "F2xZ2-witness", "F2-towers-D"],
)
def test_verify_rejects_an_unreduced_group_element(tmp_path, kind, forge):
    assert _verify_payload(tmp_path, kind, forge())[0] == 3


# a K record whose elements are not the named group's own; each forgery
# used to verify, since only the name was read
@pytest.mark.parametrize(
    "kind, forge",
    [
        ("witness", lambda: _with(_product_witness(), ["space", "k", "elements", 0], "01")),
        ("comparison", lambda p: _with(p, ["claim3_witness", "space", "k", "elements"], ["1", "0"])),
        ("comparison", lambda p: _with(p, ["boosted", "witness", "space", "k", "elements"], ["0"])),
        ("coloring", lambda: _with(_coloring_payload("Z/5", ["0", "1", "4"]), ["K", "elements", 4], "5")),
        ("coloring", lambda: _with(_coloring_payload("Z/5", ["0", "1", "4"]), ["K", "elements"],
                                   ["0", "1", "2", "4", "3"])),
        ("coloring", lambda: _with(_coloring_payload("Z/5", ["0", "1", "4"]), ["K"], {"name": "Z/5"})),
        ("towers", lambda: _with(_f2xk_towers(), ["k", "elements", 1], "2")),
        ("towers", lambda: _with(_f2xk_towers(), ["k", "elements"], ["0", "1", "2"])),
    ],
    ids=["witness-space-k", "claim3-space-k-reordered", "final-space-k-short",
         "coloring-K-renamed", "coloring-K-reordered", "coloring-K-no-elements",
         "ext-towers-k-renamed", "ext-towers-k-extra"],
)
def test_verify_rejects_a_k_record_that_is_not_the_groups_own(
    tmp_path, f2xz2_comparison, kind, forge
):
    payload = forge(copy.deepcopy(f2xz2_comparison)) if kind == "comparison" else forge()
    code, report = _verify_payload(tmp_path, kind, payload)
    assert code == 3 and "does not list its own elements" in report["error"]


# an unreduced base reaches no ClopenSet or NormalForm: each decoder refuses
# it, since the sets themselves trust their bases
@pytest.mark.parametrize(
    "kind, path, word",
    [
        # the target cell [ab] is reduced, so only the decoder sees bAab
        ("comparison", ["U", "words"], ["ab", "bAab"]),
        ("comparison", ["claim3_witness", "entries", 0, "piece", "words", 0], "aaaaaaaaaabBa"),
        ("towers", ["towers", 0, "A", "base"], "aabaA"),
        ("towers", ["towers", 1, "A"], {"kind": "finite", "words": ["Bb"]}),
        ("witness", ["sources", 0, "slices", "0", "words", 0], "aBb"),
        ("witness", ["entries", 0, "piece", "slices", "0", "words", 0], "abAa"),
    ],
    ids=["boundary-U", "witness-piece", "tower-cone-base", "tower-finite-word",
         "product-K-slice", "product-piece-slice"],
)
def test_an_unreduced_base_is_refused_at_every_decoder(tmp_path, f2_comparison, kind, path, word):
    made = {
        "comparison": lambda: copy.deepcopy(f2_comparison),
        "towers": lambda: _f2_towers_with_d("a"),
        "witness": _product_witness,
    }[kind]
    assert _verify_payload(tmp_path, kind, made())[0] == 0
    code, report = _verify_payload(tmp_path, kind, _with(made(), path, word))
    assert code == 3 and "does not parse" in report["error"]


def _f2xk_towers():
    from paratower.groups import cyclic_group
    from paratower.towers import finite_normal_ext_towers, verify_towers

    fam = finite_normal_ext_towers([("", "0"), ("a", "1")], cyclic_group(2))
    return verify_towers(fam, "exact").to_json()


@pytest.mark.parametrize(
    "kind, forge",
    [
        ("witness", lambda: _with(_plain_witness(), ["space"], "x")),
        ("witness", lambda: _with(_product_witness(), ["space"], 5)),
        ("witness", lambda: _with(_plain_witness(), ["space"], [])),
        ("comparison", lambda p: _with(p, ["claim1"], [True])),
        ("comparison", lambda p: _with(p, ["claim2"], "pass")),
        ("comparison", lambda p: _with(p, ["claim3"], [])),
        ("isometry", lambda: _with(_isometry_payload(), ["checks"], [True])),
        ("towers", lambda: _with(_f2_towers_with_d("a"), ["towers", 0, "A"], 5)),
        ("towers", lambda: _with(_f2xk_towers(), ["towers", 0, "A", "slices"], [])),
    ],
    ids=["space-string", "space-int", "space-list", "claim1-list", "claim2-string",
         "claim3-list", "isometry-checks-list", "tower-set-int", "tower-slices-list"],
)
def test_verify_rejects_an_object_field_of_another_type(tmp_path, f2_comparison, kind, forge):
    payload = forge(copy.deepcopy(f2_comparison)) if kind == "comparison" else forge()
    code, report = _verify_payload(tmp_path, kind, payload)
    assert code == 3 and "does not parse" in report["error"]


@pytest.mark.parametrize("text", ["5", "[]", '"w"', "null", "{'space': 1}", ""])
@pytest.mark.parametrize("command", ["compose", "boost"])
def test_compose_and_boost_reject_a_malformed_witness_file(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = _write_witness(tmp_path, "w.json", ["b"], ["a"], [(0, "b", "a", 0)])
    argv = ["compose", str(good), str(bad)] if command == "compose" else ["boost", str(bad)]
    code, env = run_json(tmp_path, argv + (["--V", "a"] if command == "boost" else []))
    assert code == 3 and env is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("malformed:")
    assert main(["verify", str(bad)]) == 3


def _coloring_payload(k, e_set, window=None) -> dict:
    from paratower.coloring import greedy_color

    payload = greedy_color(k, e_set).to_json(window)
    payload["pass"] = True
    return payload


# forged colourings, each with its hash recomputed; each used to take seconds
# to verify, or was accepted
@pytest.mark.parametrize(
    "payload, named",
    [
        (lambda: _with(_coloring_payload("Z", [-1, 0, 1]), ["window"], [1_000_000]), "1000000"),
        (lambda: _with(_coloring_payload("Z", [-1, 0, 1]), ["window"], [10**9]), "1000000000"),
        (lambda: _with(_coloring_payload("Z", [-1, 0, 1]), ["window"], [20_000]), "20001"),
        (lambda: _with(_coloring_payload("Z", [-1, 0, 1]), ["window"], [True]), "True"),
        (lambda: _with(_coloring_payload("Z", [-1, 0, 1]), ["window"], [1.5]), "1.5"),
        (lambda: _with(_coloring_payload("Z", [-1, 0, 1]), ["E"], list(range(-1000, 1001))),
         "above the cap of 64"),
        (lambda: _with(_coloring_payload("Z", [-1, 0, 1]), ["E"], list(range(-2000, 2001))),
         "above the cap of 64"),
        (lambda: _with(_coloring_payload("Z", [-1, 0, 1]), ["E"], [-1, 0, 1, 1]), "distinct"),
        (lambda: _with(_coloring_payload("Z", [-1, 0, 1]), ["E"], [-1, False, 1]), "False"),
        (lambda: _with(_coloring_payload("Z/2", ["0", "1"]), ["E"], ["0", "1"] * 3000),
         "above the cap of 64"),
        (lambda: _with(_coloring_payload("Z/2", ["0", "1"]), ["E"], ["0", "1", "7"]),
         "'7' is not an element of Z/2"),
        (lambda: _with(_coloring_payload("Z/2", ["0", "1"]), ["window"], ["0", 1]),
         "1 is not an element of Z/2"),
        (lambda: _with(_coloring_payload("Z", _sidon_e()), ["window"], [14774]),
         "above the budget"),
    ],
    ids=["window-1e6", "window-1e9", "window-past-cap", "window-bool", "window-float",
         "E-2001", "E-4001", "E-repeats", "E-bool", "E-6000", "E-outside-K", "window-outside-K",
         "work-past-budget"],
)
def test_verify_refuses_a_forged_coloring_at_once(tmp_path, capsys, payload, named):
    p = payload()
    start = time.perf_counter()
    code, report = _verify_payload(tmp_path, "coloring", p)
    assert time.perf_counter() - start < 1
    assert code == 3 and named in report["error"]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("malformed:")


def _built_coloring(tmp_path) -> dict:
    code, env = run_json(tmp_path, ["color", "--K", "Z/5", "--E", "0,1,4"])
    assert code == 0
    return env["payload"]


# `color --K Z/5 --E 0,1,4` with one recorded field forged and the hash
# recomputed: verify works out each of them, so each exits 2 (K recorded by
# its bare name is a K, but not the record colour writes; a K record whose
# elements are renamed or reordered is malformed, see
# test_verify_rejects_a_k_record_that_is_not_the_groups_own)
@pytest.mark.parametrize(
    "path, value, failed",
    [
        (["pass"], False, ["pass_matches"]),
        (["m"], 6, ["m_matches", "pass_matches"]),
        (["K"], "Z/5", ["K_matches", "pass_matches"]),
    ],
    ids=["pass-false", "m-plus-one", "K-bare-name"],
)
def test_verify_works_out_each_recorded_coloring_field(tmp_path, path, value, failed):
    payload = _built_coloring(tmp_path)
    assert _verify_payload(tmp_path, "coloring", payload)[0] == 0
    code, report = _verify_payload(tmp_path, "coloring", _with(payload, path, value))
    assert code == 2 and not report["pass"]
    # a forged field fails its own check, and the recorded pass then
    # disagrees with the verdict
    assert [key for key, ok in report.items() if ok is False] == ["pass"] + failed


@pytest.mark.parametrize("command", ["compose", "boost"])
def test_compose_and_boost_refuse_a_witness_whose_hash_does_not_match(tmp_path, capsys, command):
    from paratower.boundary import ClopenSet
    from paratower.comparison import PlainSpace, identity_witness

    env = certs.wrap("witness", identity_witness(PlainSpace(), ClopenSet.cylinder("a")).to_json())
    env["content_hash"] = "0" * 64
    w = tmp_path / "w.json"
    w.write_text(json.dumps(env))
    argv = ["compose", str(w), str(w)] if command == "compose" else ["boost", str(w), "--V", "a"]
    code, out = run_json(tmp_path, argv)
    assert code == 2 and out is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("failed:") and "hash mismatch" in err
    assert main(["verify", str(w)]) == 2
