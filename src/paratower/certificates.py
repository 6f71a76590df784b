"""Certificate envelopes: canonical JSON, content hashing, re-verification.

Every artifact is persisted as {schema_version, kind, payload, content_hash,
tool_version, seed}.  The hash covers the canonical payload bytes, so two
runs with identical inputs produce byte-identical files, and any tampering
is detected before the payload is re-checked.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

# 3: a comparison certificate holds its three witnesses, U, n and its
# instance, and nothing that verify does not check
SCHEMA_VERSION = 3
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


# a comparison payload holds these keys and nothing else; `composed` stays,
# empty, for callers that still write into payload["composed"]
COMPARISON_KEYS = (
    "U", "boosted", "claim2_witness", "claim3_witness", "composed", "instance", "n", "pass",
)


def _verify_comparison(payload: dict) -> dict:
    """Check each stored witness once, and that it proves the claim it is
    filed under, in the instance's space: claim 2 from [full] to its own
    targets V, claim 3 from V to n + 1 copies of the target cell (worked
    out from U as the builder does), and the final witness, which alone
    proves the theorem, from [full] to [U].  The payload holds exactly
    ``COMPARISON_KEYS``, `boosted` only its witness and `composed` nothing;
    the recorded `pass` must be the verdict."""
    from .comparison import ComparisonInstance, SubeqWitness, cylinder_cell_of, verify_witness

    keys = sorted(_object(payload, "payload"))
    if keys != list(COMPARISON_KEYS):
        raise ValueError(f"a comparison payload holds {list(COMPARISON_KEYS)}, not {keys}")
    if list(_object(payload["boosted"], "boosted")) != ["witness"]:
        raise ValueError("boosted must hold its witness and nothing else")
    space = ComparisonInstance.from_json(payload["instance"]).space()
    n = payload["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive int, not {n!r}")
    u_set = space.set_from_json(payload["U"])
    cell = space.cylinder(cylinder_cell_of(space, u_set))
    witnesses = (payload["claim2_witness"], payload["claim3_witness"], payload["boosted"]["witness"])
    claim2, claim3, final = (SubeqWitness.from_json(w) for w in witnesses)
    full = [space.full()]
    # n + 1 copies of the target cell; other counts of targets fail below
    cells = [cell] * (n + 1) if len(claim3.targets) == n + 1 else None
    claims = [
        ("claim2_witness", "claim 2: [full] below V", claim2, full, claim2.targets),
        ("claim3_witness", "claim 3: V below n+1 copies of the target cell", claim3,
         claim2.targets, cells),
        ("boosted", "final: [full] below [U]", final, full, [u_set]),
    ]
    reports = {}
    failed = None
    for name, claim, w, sources, targets in claims:
        check = verify_witness(w)
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
    if failed is None and payload["composed"] != {}:
        failed = "composed is not empty"
    # a failed check fails whatever pass records
    if failed is None and payload["pass"] is not True:
        failed = "recorded pass is not the verdict"
    return {"pass": failed is None, "failed": failed, "witnesses": reports}


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
