import json
import time

import pytest

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


def test_compare_command(tmp_path):
    code, env = run_json(tmp_path, ["compare", "--instance", "F2", "--U", "ab"])
    assert code == 0
    kind, payload = certs.parse_envelope(env)
    assert kind == "comparison"
    assert main(["verify", str(tmp_path / "out.json")]) == 0


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


def test_unreduced_cylinder_base_is_rejected(tmp_path):
    # [bB] is no cylinder: ba, bb and bB do not make up [b]
    entries = [(0, "ba", "a", 0), (0, "bb", "a", 1), (0, "bB", "a", 1)]
    p = _write_witness(tmp_path, "w.json", ["b"], ["a", "a"], entries)
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


def test_isometry_command(tmp_path):
    code, env = run_json(tmp_path, ["isometry"])
    assert code == 0
    assert env["payload"]["complement_witness"] == "A"
    assert main(["verify", str(tmp_path / "out.json")]) == 0


def test_isometry_depth_too_small_is_a_usage_error(capsys):
    assert main(["isometry", "--h", "ab"]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "smallest depth that passes is 289" in err


@pytest.mark.parametrize(
    "field, forged",
    [
        # a full V makes "range inside V" trivially true
        ("V", [{"space": "boundary", "kind": "full"}]),
        # [aaba] is V_1 itself, so it witnesses nothing outside V
        ("complement_witness", "aaba"),
    ],
)
def test_verify_rejects_forged_isometry(tmp_path, field, forged):
    from paratower.crossed import build_isometry

    payload = build_isometry().to_json()
    payload[field] = forged
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(certs.wrap("isometry", payload)))
    assert main(["verify", str(path)]) == 2


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


def _with_mode(payload, mode):
    payload["mode"] = mode
    if mode == "ball":
        payload["radius"] = 2
    return payload


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
    ],
    ids=["index-past-end", "negative-index", "bool-index", "empty-group", "f2xk-without-k"],
)
def test_verify_rejects_forged_tower_family(tmp_path, forge, mode):
    assert main(["verify", _forged_towers(tmp_path, forge(mode))]) == 3


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
