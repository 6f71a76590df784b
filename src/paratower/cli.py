"""Command-line front end: build certificates, verify them, print reports."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import certificates as certs
from .comparison import DepthCapExceeded
from .towers import SearchExhausted


class _HashMismatch(Exception):
    """A certificate whose content hash does not match its payload: exit 2."""


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
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(certs.canonical_json(envelope) + "\n")
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
        from .comparison import ComparisonInstance, cylinder_cell_of

        space = ComparisonInstance.from_json(payload["instance"]).space()
        cell = cylinder_cell_of(space, space.set_from_json(payload["U"]))
        lines.append(f"  n={payload['n']} target cell={list(cell)}")
        for name, w in (("claim2", payload["claim2_witness"]),
                        ("claim3", payload["claim3_witness"]),
                        ("final", payload["boosted"]["witness"])):
            lines.append(f"  {name} witness: {len(w['entries'])} entries")
    elif kind == "isometry":
        for name, ok in payload.get("checks", {}).items():
            lines.append(f"  {name}: {'pass' if ok else 'FAIL'}")
    elif kind == "witness":
        lines.append(
            f"sources={len(payload['sources'])} targets={len(payload['targets'])} "
            f"entries={len(payload['entries'])}"
        )
    lines.append(f"overall: {'pass' if payload.get('pass', True) else 'FAIL'}")
    return "\n".join(lines)


def _emit_towers(args, family) -> int:
    """Check the family in the command's mode and write its certificate."""
    from .towers import verify_towers

    cert = verify_towers(family, args.mode, args.radius)
    env = certs.wrap("towers", cert.to_json(), args.seed)
    _write_or_print(args, env)
    return 0 if cert.passed else 2


def _f2_towers(args):
    from .towers import _f2_family

    return _f2_family(_parse_words(args.D))


def _more_towers(args):
    from .towers import more_towers

    return more_towers(_parse_words(args.D), args.copies)


def _ext_towers(args):
    from .groups import cyclic_group
    from .towers import extension_towers, finite_normal_ext_towers

    if args.kind == "f2xk":
        k = cyclic_group(args.k_order)
        f_set = []
        for tok in args.F.split(","):
            w, lbl = tok.strip().split(":")
            f_set.append(("" if w in ("e", "1") else w, lbl))
        return finite_normal_ext_towers(f_set, k)
    f_set = []
    for tok in args.F.split(","):
        u, v = tok.strip().split(":")
        f_set.append(("" if u in ("e", "1") else u, "" if v in ("e", "1") else v))
    return extension_towers(f_set)


def _union_towers(args):
    from .towers import union_towers

    return union_towers(_parse_words(args.D))


def _filling_towers(args):
    from .towers import towers_from_filling

    return towers_from_filling(_parse_words(args.D), n=args.n)


def _cmd_color(args) -> int:
    from .coloring import greedy_color
    from .groups import factor_from_json

    group = factor_from_json(args.K)
    coloring = greedy_color(group, [group.from_text(e.strip()) for e in args.E.split(",")])
    window = None if args.window is None else range(-args.window, args.window + 1)
    payload = coloring.to_json(window)
    payload["pass"] = coloring.is_proper_on(payload["window"])
    env = certs.wrap("coloring", payload, args.seed)
    _write_or_print(args, env)
    return 0 if payload["pass"] else 2


def _parse_clopen(space, text: str):
    """The union of the comma-separated cylinders ``word:label`` of
    ``space``; a bare ``word`` has the label None, the one label of the
    plain boundary.  An empty token is refused, since the empty word would
    read as the whole space; ``:label`` names a whole K slice."""
    from .boundary import check_bases

    out = space.empty()
    for tok in text.split(","):
        if not tok.strip():
            raise ValueError(
                f"empty cylinder token in {text!r}: a token names a proper cylinder"
                " by a nonempty word, or a whole K slice by ':label'"
            )
        w, colon, lbl = tok.strip().partition(":")
        lbl = lbl if colon else None
        if lbl not in space.labels:
            raise ValueError(
                f"the cylinder {tok!r} has label {lbl!r}, not one of {list(space.labels)}"
            )
        out = out.union(space.cylinder((lbl, check_bases([w])[0])))
    return out


def _cmd_compare(args) -> int:
    from .comparison import ComparisonInstance, build_comparison

    inst = ComparisonInstance(args.instance)
    cert = build_comparison(inst, _parse_clopen(inst.space(), args.U))
    env = certs.wrap("comparison", cert.to_json(), args.seed)
    _write_or_print(args, env)
    return 0 if cert.passed else 2


def _load_witness(path: str):
    from .comparison import SubeqWitness

    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise certs.MalformedCertificate(f"witness is not JSON: {e}") from e
    # anything but an object fails SubeqWitness.from_json with a TypeError
    if isinstance(data, dict) and "kind" in data and "payload" in data:
        kind, payload = certs.parse_envelope(data)
        if kind != "witness":
            raise certs.MalformedCertificate(f"expected a witness, got {kind}")
        if not certs.hash_matches(data):
            raise _HashMismatch(f"content hash mismatch in {path}")
        data = payload
    try:
        return SubeqWitness.from_json(data)
    except (KeyError, TypeError, ValueError) as e:
        raise certs.MalformedCertificate(f"witness does not parse: {e}") from e


def _emit_witness(args, build) -> int:
    """Write the witness that ``build`` (a ``compose`` or ``boost`` call)
    returns verified; a failed check exits 2 with one stderr line."""
    from .comparison import ConstructionFailed

    try:
        w = build()
    except ConstructionFailed as e:
        print(f"failed: {e}", file=sys.stderr)
        return 2
    payload = w.to_json()
    payload["pass"] = w.report["pass"]
    env = certs.wrap("witness", payload, args.seed)
    _write_or_print(args, env)
    return 0


def _cmd_compose(args) -> int:
    from .comparison import compose

    first, second = _load_witness(args.first), _load_witness(args.second)
    return _emit_witness(args, lambda: compose(first, second))


def _cmd_boost(args) -> int:
    from .comparison import boost

    w = _load_witness(args.input)
    v_set = _parse_clopen(w.space, args.V)
    return _emit_witness(args, lambda: boost(w, v_set))


def _cmd_isometry(args) -> int:
    from .comparison import PlainSpace
    from .crossed import build_isometry

    cert = build_isometry(_parse_clopen(PlainSpace(), args.U))
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
    if code == 3:
        print(f"malformed: {report['error']}", file=sys.stderr)
    return code


def build_parser() -> _Parser:
    parser = _Parser(prog="paratower")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", help="write the certificate to this path")

    def towers_command(name, help, build, mode="exact", radius=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--mode", choices=["exact", "ball"], default=mode)
        p.add_argument("--radius", type=int, default=radius)
        common(p)
        p.set_defaults(func=lambda args: _emit_towers(args, build(args)))
        return p

    p = towers_command("f2-towers", "cone towers on the free group", _f2_towers)
    p.add_argument("--D", required=True, help="comma-separated words; e = identity")

    p = towers_command("more-towers", "indexed copies of the cone towers", _more_towers)
    p.add_argument("--D", required=True)
    p.add_argument("--copies", type=int, required=True)

    p = towers_command("ext-towers", "towers on product groups", _ext_towers)
    p.add_argument("--kind", choices=["f2xk", "f2xf2"], default="f2xk")
    p.add_argument("--k-order", type=int, default=2, dest="k_order")
    p.add_argument("--F", required=True, help="pairs word:label or word:word")

    p = towers_command("union-towers", "towers on the rank-3 free group", _union_towers)
    p.add_argument("--D", required=True)

    p = towers_command(
        "filling-towers", "towers from the boundary action", _filling_towers, "ball", 8
    )
    p.add_argument("--D", required=True)
    p.add_argument("--n", type=int, default=2)

    p = sub.add_parser("color", help="greedy Cayley coloring")
    p.add_argument("--K", required=True, help="Z or Z/n")
    p.add_argument("--E", required=True, help="comma-separated symmetric set")
    p.add_argument("--window", type=int, help="colour -w..w of Z (default 100); a finite K whole")
    common(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("compare", help="full space-below-target certificate")
    p.add_argument("--instance", choices=["F2", "F2xZ2"], required=True)
    p.add_argument("--U", required=True, help="comma-separated words, or word:label pairs")
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
    p.add_argument("--U", default="a", help="comma-separated words; U must be proper")
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
    except _HashMismatch as e:
        print(f"failed: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, SearchExhausted, DepthCapExceeded) as e:
        # a search that hits its cap is refused like any other input
        print(f"error: {e}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
