"""Certificate envelopes: canonical JSON, content hashing, re-verification.

Every artifact is persisted as {schema_version, kind, payload, content_hash,
tool_version, seed}.  The hash covers the canonical payload bytes, so two
runs with identical inputs produce byte-identical files, and any tampering
is detected before the payload is re-checked.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Optional, Tuple

# 2: comparison certificates keep only the report of the composed witness
SCHEMA_VERSION = 2
TOOL_VERSION = "0.1.0"
KINDS = ("towers", "coloring", "comparison", "isometry", "witness")


class MalformedCertificate(ValueError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def wrap(kind: str, payload: dict, seed: Optional[int] = 0) -> dict:
    if kind not in KINDS:
        raise ValueError(f"unknown certificate kind: {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "payload": payload,
        "content_hash": content_hash(payload),
        "tool_version": TOOL_VERSION,
        "seed": seed,
    }


def parse_envelope(data: dict) -> Tuple[str, dict]:
    """Validate envelope structure; return (kind, payload).  The hash is
    ``hash_matches``'s to check."""
    if not isinstance(data, dict):
        raise MalformedCertificate("certificate must be a JSON object")
    for key in ("schema_version", "kind", "payload", "content_hash"):
        if key not in data:
            raise MalformedCertificate(f"missing field: {key}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise MalformedCertificate(f"unsupported schema: {data['schema_version']!r}")
    kind = data["kind"]
    if kind not in KINDS:
        raise MalformedCertificate(f"unknown kind: {kind!r}")
    if not isinstance(data["payload"], (dict, list)):
        raise MalformedCertificate("payload must be an object")
    return kind, data["payload"]


def hash_matches(data: dict) -> bool:
    return content_hash(data["payload"]) == data["content_hash"]


def _verify_towers(payload: dict) -> dict:
    from .towers import TowerFamily, verify_towers

    family = TowerFamily.from_json(payload)
    mode = payload.get("mode", "exact")
    radius = payload.get("radius")
    cert = verify_towers(family, mode, radius)
    # the recorded checks must be the recomputed ones: the same names, flags
    # and counterexamples
    consistent = canonical_json(payload.get("checks")) == canonical_json(cert.checks)
    return {
        "pass": cert.passed and consistent,
        "recomputed": cert.checks,
        "consistent_with_recorded": consistent,
    }


def _verify_coloring(payload: dict) -> dict:
    from .coloring import greedy_color
    from .groups import factor_from_json

    group = factor_from_json(payload["K"])
    coloring = greedy_color(group, payload["E"])
    window = payload["window"]
    checks = {
        "proper": coloring.is_proper_on(window),
        "assignment_matches": [coloring.color_of(k) for k in window] == payload["assignment"],
        "within_budget": all(1 <= c <= coloring.m for c in payload["assignment"]),
        # m is |E²|, and K is recorded with its elements
        "m_matches": payload["m"] == coloring.m,
        "K_matches": payload["K"] == group.to_json(),
    }
    checks["pass_matches"] = payload["pass"] is all(checks.values())
    return {"pass": all(checks.values()), **checks}


def _verify_witness_payload(payload: dict) -> dict:
    from .comparison import SubeqWitness, verify_witness

    w = SubeqWitness.from_json(payload)
    report = verify_witness(w)
    return {"pass": report["pass"], "report": report}


def _object(value, name: str) -> dict:
    """value if it is a JSON object, else a ValueError naming the field."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, not {value!r}")
    return value


def _same_sets(got, want) -> bool:
    return want is not None and len(got) == len(want) and all(
        a.equals(b) for a, b in zip(got, want)
    )


def _at_least(value, bound: int) -> Optional[bool]:
    """Whether the fraction written as the string value is at least bound;
    None when value writes no fraction."""
    try:
        return Fraction(value) >= bound if isinstance(value, str) else None
    except (ValueError, ZeroDivisionError):
        return None


def _is_cell(space, value) -> bool:
    """True when value is [label, reduced word] of the space's labels."""
    from .words import are_reduced

    return (
        isinstance(value, list) and len(value) == 2
        and value[0] in space.labels and are_reduced([value[1]])
    )


def _verify_comparison(payload: dict) -> dict:
    """Check each stored witness once, and that it proves the claim it is
    filed under, in the instance's space with V, n and U read from the
    payload and the target cell worked out from U as the builder does.
    The final witness alone proves the theorem, full below U.

    The recorded witness reports must be the recomputed ones, and claim
    2's cover and inclusions the verdicts read off its report; so must the
    target cell and its margin epsilon = 1/2^(|u0|+1), the number m of
    colour classes of the space, and delta = 1/(4nm(nm+1)) with its bound
    1/(2nm(nm+1)); claim 1's bound must be m, and its pass flag whether its
    recorded min_count reaches m (the sweep is not run again).  The
    counting sweep's witness cell must be a cell of the space, and every
    recorded pass flag true."""
    from .comparison import ComparisonInstance, SubeqWitness, cylinder_cell_of, verify_witness

    space = ComparisonInstance.from_json(payload["instance"]).space()
    n = payload["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive int, not {n!r}")
    full = [space.full()]
    v_sets = [space.set_from_json(v) for v in payload["V"]]
    u_set = [space.set_from_json(payload["U"])]
    u0 = cylinder_cell_of(space, u_set[0])
    cell = space.cylinder(u0)
    m = len(space.coloring()[1])
    nm = n * m
    claim2 = SubeqWitness.from_json(payload["claim2_witness"])
    claim3 = SubeqWitness.from_json(payload["claim3_witness"])
    final = SubeqWitness.from_json(payload["boosted"]["witness"])
    # n + 1 copies of the target cell; other counts of targets fail below
    cells = [cell] * (n + 1) if len(claim3.targets) == n + 1 else None
    claims = [
        ("claim2_witness", "claim 2: [full] below V", claim2, full, v_sets),
        ("claim3_witness", "claim 3: V below n+1 copies of the target cell", claim3, v_sets, cells),
        ("boosted", "final: [full] below [U]", final, full, u_set),
    ]
    reports = {}
    recomputed = {}
    failed = None
    for name, claim, w, sources, targets in claims:
        check = recomputed[name] = verify_witness(w)
        proves = (
            w.space.to_json() == space.to_json()
            and _same_sets(w.sources, sources)
            and _same_sets(w.targets, targets)
        )
        reports[name] = {
            "claim": claim,
            "verified": check["pass"],
            "proves_claim": proves,
            "failure": check["failure"],
        }
        if failed is None and not (check["pass"] and proves):
            failed = claim
    claim1_rec, claim2_rec, claim3_rec, boosted_rec, towers_rec, composed_rec = (
        _object(payload.get(c, {}), c)
        for c in ("claim1", "claim2", "claim3", "boosted", "towers", "composed")
    )
    report2 = recomputed["claim2_witness"]
    fields = [
        ("claim2.report", claim2_rec.get("report"), report2),
        ("claim2.cover", claim2_rec.get("cover"), all(c["pass"] for c in report2["coverage"])),
        ("claim2.inclusions", claim2_rec.get("inclusions"),
         all(c["contained"] for c in report2["colors"])),
        ("claim3.report", claim3_rec.get("report"), recomputed["claim3_witness"]),
        ("boosted.report", boosted_rec.get("report"), recomputed["boosted"]),
        ("target_cell", payload.get("target_cell"), list(u0)),
        ("epsilon", payload.get("epsilon"), str(Fraction(1, 2 ** (len(u0[1]) + 1)))),
        ("m", payload.get("m"), m),
        ("delta", payload.get("delta"), str(Fraction(1, 4 * nm * (nm + 1)))),
        ("delta_bound", payload.get("delta_bound"), str(Fraction(1, 2 * nm * (nm + 1)))),
        ("claim1.bound", claim1_rec.get("bound"), m),
        ("claim1.pass", claim1_rec.get("pass"), _at_least(claim1_rec.get("min_count"), m)),
    ]
    mismatched = [f for f, got, want in fields if canonical_json(got) != canonical_json(want)]
    if failed is None and mismatched:
        failed = f"recorded {mismatched[0]} is not the recomputed one"
    counting = _object(claim3_rec.get("counting", {}), "claim3.counting")
    if failed is None and not _is_cell(space, counting.get("witness_cell")):
        failed = f"claim 3: the counting witness cell {counting.get('witness_cell')!r} is no cell"
    # every recorded pass flag must be true, the product tower check's
    # disjoint and cover among them
    checks = {"disjoint": {}, "cover": {}, **_object(towers_rec.get("checks", {}), "towers.checks")}
    records = [("claim1", claim1_rec), ("claim2", claim2_rec), ("claim3", claim3_rec),
               *((f"towers.checks.{c}", rec) for c, rec in checks.items()),
               ("composed.report", composed_rec.get("report", {}))]
    flags = {f"{name}.pass": _object(rec, name).get("pass") for name, rec in records}
    flags["pass"] = payload.get("pass")
    unpassed = [name for name, flag in flags.items() if flag is not True]
    if failed is None and unpassed:
        failed = f"recorded {unpassed[0]} is not pass"
    return {
        "pass": failed is None,
        "failed": failed,
        "witnesses": reports,
        "mismatched_records": mismatched,
        "recorded_flags": flags,
    }


def _verify_isometry(payload: dict) -> dict:
    """Recompute the three identities from U and v alone; the recorded
    checks and pass flag must be the recomputed ones."""
    from .boundary import boundary_from_json
    from .crossed import CrossedElement, isometry_checks

    u_set = boundary_from_json(payload["U"])
    checks = isometry_checks(u_set, CrossedElement.from_json(payload["v"]))
    recomputed = {"checks": checks, "pass": all(checks.values())}
    recorded = {"checks": _object(payload["checks"], "checks"), "pass": payload["pass"]}
    consistent = canonical_json(recorded) == canonical_json(recomputed)
    return {
        "pass": recomputed["pass"] and consistent,
        "recomputed": checks,
        "consistent_with_recorded": consistent,
    }


def verify_certificate(data: dict) -> Tuple[int, dict]:
    """Re-check a certificate; returns (exit code, report).

    0 on pass, 2 on any failed check or hash mismatch, 3 on malformed input.
    """
    try:
        kind, payload = parse_envelope(data)
    except MalformedCertificate as e:
        return 3, {"pass": False, "error": str(e)}
    if not hash_matches(data):
        return 2, {"pass": False, "error": "content hash mismatch"}
    try:
        if kind == "towers":
            report = _verify_towers(payload)
        elif kind == "coloring":
            report = _verify_coloring(payload)
        elif kind == "witness":
            report = _verify_witness_payload(payload)
        elif kind == "comparison":
            report = _verify_comparison(payload)
        else:
            report = _verify_isometry(payload)
    except (KeyError, TypeError, ValueError) as e:
        return 3, {"pass": False, "error": f"payload does not parse: {e}"}
    return (0 if report["pass"] else 2), report
