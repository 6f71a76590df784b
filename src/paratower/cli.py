"""Command-line front end: build certificates, verify them, print reports."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import certificates as certs


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 64, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(64)


def _parse_words(text: str) -> List[str]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok in ("e", "1"):
            tok = ""
        out.append(tok)
    return out


def _write_or_print(args, envelope: dict) -> None:
    blob = json.dumps(envelope, sort_keys=True, indent=2)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(emit_report(envelope))


def emit_report(envelope: dict) -> str:
    """Human-readable summary of a certificate."""
    kind, payload = certs.parse_envelope(envelope)
    lines = [f"kind: {kind}  hash: {envelope['content_hash'][:16]}..."]
    if not certs.hash_matches(envelope):
        lines.append("WARNING: content hash mismatch")
    if kind == "towers":
        lines.append(
            f"group={payload['group']} |D|={len(payload['D'])} "
            f"towers={len(payload['towers'])} mode={payload.get('mode')}"
        )
        if payload.get("radius") is not None:
            lines.append(f"radius={payload['radius']}")
        for name, check in payload.get("checks", {}).items():
            verdict = "pass" if check["pass"] else f"FAIL {check['counterexample']}"
            lines.append(f"  {name}: {verdict}")
    elif kind == "coloring":
        lines.append(
            f"K={payload['K']} E={payload['E']} colors<={payload['m']} "
            f"window={len(payload['window'])} cells"
        )
    elif kind == "comparison":
        for claim in ("claim1", "claim2", "claim3"):
            lines.append(f"  {claim}: {'pass' if payload[claim]['pass'] else 'FAIL'}")
        lines.append(
            f"  composed: {'pass' if payload['composed']['report']['pass'] else 'FAIL'}"
        )
        lines.append(
            f"  boosted: {'pass' if payload['boosted']['report']['pass'] else 'FAIL'}"
        )
        lines.append(f"  delta={payload['delta']} (< {payload['delta_bound']}), N={payload['N']}")
    elif kind == "isometry":
        for name, ok in payload.get("checks", {}).items():
            lines.append(f"  {name}: {'pass' if ok else 'FAIL'}")
        lines.append(f"  missing cylinder: [{payload['complement_witness']}]")
    elif kind == "witness":
        lines.append(
            f"sources={len(payload['sources'])} targets={len(payload['targets'])} "
            f"entries={len(payload['entries'])}"
        )
    lines.append(f"overall: {'pass' if payload.get('pass', True) else 'FAIL'}")
    return "\n".join(lines)


def _cmd_f2_towers(args) -> int:
    from .towers import f2_towers, verify_towers

    fam = f2_towers(_parse_words(args.D))
    cert = verify_towers(fam, args.mode, args.radius)
    env = certs.wrap("towers", cert.to_json(), args.seed)
    _write_or_print(args, env)
    return 0 if cert.passed else 2


def _cmd_more_towers(args) -> int:
    from .towers import more_towers, verify_towers

    fam = more_towers(_parse_words(args.D), args.copies)
    cert = verify_towers(fam, args.mode, args.radius)
    env = certs.wrap("towers", cert.to_json(), args.seed)
    _write_or_print(args, env)
    return 0 if cert.passed else 2


def _cmd_ext_towers(args) -> int:
    from .groups import cyclic_group
    from .towers import extension_towers, finite_normal_ext_towers, verify_towers

    if args.kind == "f2xk":
        k = cyclic_group(args.k_order)
        f_set = []
        for tok in args.F.split(","):
            w, lbl = tok.strip().split(":")
            f_set.append(("" if w in ("e", "1") else w, lbl))
        fam = finite_normal_ext_towers(f_set, k)
    else:
        f_set = []
        for tok in args.F.split(","):
            u, v = tok.strip().split(":")
            f_set.append(
                ("" if u in ("e", "1") else u, "" if v in ("e", "1") else v)
            )
        fam = extension_towers(f_set)
    cert = verify_towers(fam, args.mode, args.radius)
    env = certs.wrap("towers", cert.to_json(), args.seed)
    _write_or_print(args, env)
    return 0 if cert.passed else 2


def _cmd_union_towers(args) -> int:
    from .towers import union_towers, verify_towers

    fam = union_towers(_parse_words(args.D))
    cert = verify_towers(fam, args.mode, args.radius)
    env = certs.wrap("towers", cert.to_json(), args.seed)
    _write_or_print(args, env)
    return 0 if cert.passed else 2


def _cmd_filling_towers(args) -> int:
    from .towers import towers_from_filling, verify_towers

    fam = towers_from_filling(_parse_words(args.D), n=args.n)
    cert = verify_towers(fam, "ball", args.radius)
    env = certs.wrap("towers", cert.to_json(), args.seed)
    _write_or_print(args, env)
    return 0 if cert.passed else 2


def _cmd_color(args) -> int:
    from .coloring import greedy_color
    from .groups import cyclic_group

    if args.K == "Z":
        coloring = greedy_color("Z", [int(x) for x in args.E.split(",")])
        window = list(range(-args.window, args.window + 1))
        payload = coloring.to_json(window)
    else:
        order = int(args.K.split("/")[1])
        k = cyclic_group(order)
        coloring = greedy_color(k, [e.strip() for e in args.E.split(",")])
        payload = coloring.to_json()
    payload["pass"] = coloring.is_proper_on(payload["window"])
    env = certs.wrap("coloring", payload, args.seed)
    _write_or_print(args, env)
    return 0 if payload["pass"] else 2


def _parse_clopen(space, text: str):
    """A clopen set of ``space``: one cylinder word on the plain boundary,
    comma-separated ``word:label`` cylinders on boundary x K."""
    from .boundary import check_bases

    if space.k_group is None:
        return space.cylinder((None, check_bases([text])[0]))
    out = space.empty()
    for tok in text.split(","):
        w, _, lbl = tok.strip().partition(":")
        if lbl not in space.k_group.elements:
            raise ValueError(f"{lbl!r} is not an element of {space.k_group.name}")
        out = out.union(space.cylinder((lbl, check_bases([w])[0])))
    return out


def _cmd_compare(args) -> int:
    from .comparison import ComparisonInstance, build_comparison

    inst = ComparisonInstance(args.instance)
    u_set = _parse_clopen(inst.space(), args.U)
    cert = build_comparison(inst, u_set)
    env = certs.wrap("comparison", cert.to_json(), args.seed)
    _write_or_print(args, env)
    return 0 if cert.passed else 2


def _load_witness(path: str):
    from .comparison import SubeqWitness

    with open(path) as fh:
        data = json.load(fh)
    if "kind" in data and "payload" in data:
        kind, payload = certs.parse_envelope(data)
        if kind != "witness":
            raise certs.MalformedCertificate(f"expected a witness, got {kind}")
        data = payload
    try:
        return SubeqWitness.from_json(data)
    except (KeyError, TypeError, ValueError) as e:
        raise certs.MalformedCertificate(f"witness does not parse: {e}") from e


def _cmd_compose(args) -> int:
    from .comparison import compose, verify_witness

    w1 = _load_witness(args.first)
    w2 = _load_witness(args.second)
    out = compose(w1, w2)
    report = verify_witness(out)
    payload = out.to_json()
    payload["pass"] = report["pass"]
    env = certs.wrap("witness", payload, args.seed)
    _write_or_print(args, env)
    return 0 if report["pass"] else 2


def _cmd_boost(args) -> int:
    from .comparison import boost, verify_witness

    w = _load_witness(args.input)
    v_set = _parse_clopen(w.space, args.V)
    out = boost(w, v_set)
    report = verify_witness(out)
    payload = out.to_json()
    payload["pass"] = report["pass"]
    env = certs.wrap("witness", payload, args.seed)
    _write_or_print(args, env)
    return 0 if report["pass"] else 2


def _cmd_isometry(args) -> int:
    from .crossed import build_isometry

    cert = build_isometry(args.h, args.depth)
    env = certs.wrap("isometry", cert.to_json(), args.seed)
    _write_or_print(args, env)
    return 0 if cert.passed else 2


def _cmd_verify(args) -> int:
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"malformed: {e}", file=sys.stderr)
        return 3
    code, report = certs.verify_certificate(data)
    print(json.dumps(report, indent=2, default=str))
    return code


def build_parser() -> _Parser:
    parser = _Parser(prog="paratower")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", help="write the certificate to this path")

    p = sub.add_parser("f2-towers", parents=[], help="cone towers on the free group")
    p.add_argument("--D", required=True, help="comma-separated words; e = identity")
    p.add_argument("--mode", choices=["exact", "ball"], default="exact")
    p.add_argument("--radius", type=int)
    common(p)
    p.set_defaults(func=_cmd_f2_towers)

    p = sub.add_parser("more-towers", help="indexed copies of the cone towers")
    p.add_argument("--D", required=True)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "ball"], default="exact")
    p.add_argument("--radius", type=int)
    common(p)
    p.set_defaults(func=_cmd_more_towers)

    p = sub.add_parser("ext-towers", help="towers on product groups")
    p.add_argument("--kind", choices=["f2xk", "f2xf2"], default="f2xk")
    p.add_argument("--k-order", type=int, default=2, dest="k_order")
    p.add_argument("--F", required=True, help="pairs word:label or word:word")
    p.add_argument("--mode", choices=["exact", "ball"], default="exact")
    p.add_argument("--radius", type=int)
    common(p)
    p.set_defaults(func=_cmd_ext_towers)

    p = sub.add_parser("union-towers", help="towers on the rank-3 free group")
    p.add_argument("--D", required=True)
    p.add_argument("--mode", choices=["exact", "ball"], default="exact")
    p.add_argument("--radius", type=int)
    common(p)
    p.set_defaults(func=_cmd_union_towers)

    p = sub.add_parser("filling-towers", help="towers from the boundary action")
    p.add_argument("--D", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--radius", type=int, default=8)
    common(p)
    p.set_defaults(func=_cmd_filling_towers)

    p = sub.add_parser("color", help="greedy Cayley coloring")
    p.add_argument("--K", required=True, help="Z or Z/n")
    p.add_argument("--E", required=True, help="comma-separated symmetric set")
    p.add_argument("--window", type=int, default=100)
    common(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("compare", help="full space-below-target certificate")
    p.add_argument("--instance", choices=["F2", "F2xZ2"], required=True)
    p.add_argument("--U", required=True, help="cylinder word, or word:label pairs")
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("compose", help="chain two witnesses")
    p.add_argument("first")
    p.add_argument("second")
    common(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("boost", help="merge witness colors into one target")
    p.add_argument("input")
    p.add_argument("--V", required=True)
    common(p)
    p.set_defaults(func=_cmd_boost)

    p = sub.add_parser("isometry", help="non-unitary isometry certificate")
    p.add_argument("--h", default="a")
    p.add_argument("--depth", type=int, default=200)
    common(p)
    p.set_defaults(func=_cmd_isometry)

    p = sub.add_parser("verify", help="re-verify any certificate")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except certs.MalformedCertificate as e:
        print(f"malformed: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
