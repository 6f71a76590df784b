"""Benchmark of building and verifying paratower certificates.

Run from the root of a checkout (standard library and numpy only):

    python3 bench/run.py --workload compare --seed 1 --seconds 30 --trace 0

Workloads: towers-ball, compare, clopen-algebra (see bench/README.md).  One
process, one thread, a closed loop: whole passes over the seeded inputs run
back to back until the next pass would end after --seconds (at least
MIN_PASSES).  --trace 0 reports the end-to-end metrics and times a fresh
set-up process before each pass; --trace 1 alternates untraced and traced
passes and reports the per-layer metrics and the tracing overhead.  Times
are wall times rescaled to a reference machine speed (see
workloads.REFERENCE_UNIT_S).  Every metric is printed by name with its unit;
the last line is one JSON object.  A results file, and with --trace 1 a
gzipped span file, is written under bench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "bench", "results")
MIN_PASSES = 3

END_TO_END = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("verify_s", "s"),
    ("cert_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, span totals summed into it); see Tracer.pass_totals
PER_LAYER = [
    ("words.ball_s", "s", ["words.ball_s"]),
    ("words.ball_words", "count", ["words.ball_count"]),
    ("towers.verify_towers_ball_s", "s", ["towers.verify_towers_ball_s"]),
    ("towers.verify_towers_exact_s", "s", ["towers.verify_towers_exact_s"]),
    ("towers.more_towers_s", "s", ["towers.more_towers_s"]),
    (
        "towers.verify_towers_calls",
        "count",
        ["towers.verify_towers_ball_calls", "towers.verify_towers_exact_calls"],
    ),
    ("subsets.normal_form_s", "s", ["subsets.normal_form_s"]),
    ("subsets.complement_s.b30", "s", ["subsets.complement.b30_s"]),
    ("subsets.complement_s.b60", "s", ["subsets.complement.b60_s"]),
    ("subsets.inter_s", "s", ["subsets.inter_s"]),
    ("subsets.translate_s", "s", ["subsets.translate_s"]),
    ("boundary.canonicalise_s", "s", ["boundary.canonicalise_s"]),
    ("boundary.complement_s.b30", "s", ["boundary.complement.b30_s"]),
    ("boundary.complement_s.b60", "s", ["boundary.complement.b60_s"]),
    ("boundary.inter_s", "s", ["boundary.inter_s"]),
    ("boundary.union_s", "s", ["boundary.union_s"]),
    ("boundary.act_s", "s", ["boundary.act_s"]),
    ("boundary.step_cells_s", "s", ["boundary.step_cells_s"]),
    ("boundary.step_cells_cells", "count", ["boundary.step_cells_count"]),
    ("boundary.threshold_weighted_s", "s", ["boundary.threshold_weighted_s"]),
    ("boundary.shrink_s", "s", ["boundary.shrink_s"]),
    ("comparison.check_counting_s", "s", ["comparison.check_counting_s"]),
    ("comparison.check_counting_calls", "count", ["comparison.check_counting_calls"]),
    (
        "comparison.extreme_weighted_count_s",
        "s",
        ["comparison.extreme_weighted_count_s"],
    ),
    ("comparison.petr_assign_s", "s", ["comparison.petr_assign_s"]),
    ("comparison.claim3_entries", "count", ["comparison.petr_assign_count"]),
    ("comparison.compose_s", "s", ["comparison.compose_s"]),
    ("comparison.boost_s", "s", ["comparison.boost_s"]),
    ("comparison.verify_witness_s", "s", ["comparison.verify_witness_s"]),
    ("comparison.verify_witness_calls", "count", ["comparison.verify_witness_calls"]),
    ("certificates.wrap_s", "s", ["certificates.wrap_s"]),
    ("certificates.encode_s", "s", ["certificates.encode_s"]),
    ("certificates.decode_s", "s", ["certificates.decode_s"]),
    ("certificates.verify_certificate_s", "s", ["certificates.verify_certificate_s"]),
]
OVERHEAD = ("trace.overhead_pct", "%")


def import_paratower() -> None:
    if not os.path.isfile(os.path.join(SRC, "paratower", "__init__.py")):
        sys.exit("bench: src/paratower is missing from this checkout")
    sys.path.insert(0, SRC)


def _size_tag(stem: str):
    """Span name for complement, tagged with the receiver's base count:
    '.b30' for 24-36 bases, '.b60' for 48-72."""

    def namer(self, *args, **kwargs):
        n = len(self.bases) if hasattr(self, "bases") else len(self.cones) + len(self.words)
        if 24 <= n <= 36:
            return stem + ".b30"
        if 48 <= n <= 72:
            return stem + ".b60"
        return stem

    return namer


def _towers_mode(family, mode="exact", *args, **kwargs):
    return f"towers.verify_towers_{mode}"


def trace_paratower(tracer) -> None:
    """Wrap the public functions behind the per-layer metrics, in every
    module namespace that looks them up."""
    from paratower import boundary, certificates, comparison, subsets, towers, words
    from paratower.boundary import ClopenSet, GeodesicMap
    from paratower.subsets import NormalForm

    tracer.wrap([words], "ball", "words.ball", count=len)
    tracer.wrap([towers, comparison], "verify_towers", _towers_mode)
    tracer.wrap([towers, comparison], "more_towers", "towers.more_towers")
    tracer.wrap([NormalForm], "__init__", "subsets.normal_form")
    tracer.wrap([NormalForm], "complement", _size_tag("subsets.complement"))
    tracer.wrap([NormalForm], "inter", "subsets.inter")
    tracer.wrap([NormalForm, subsets], "translate", "subsets.translate")
    tracer.wrap([ClopenSet], "__init__", "boundary.canonicalise")
    tracer.wrap([ClopenSet], "complement", _size_tag("boundary.complement"))
    tracer.wrap([ClopenSet], "inter", "boundary.inter")
    tracer.wrap([ClopenSet], "union", "boundary.union")
    tracer.wrap([ClopenSet], "act", "boundary.act")
    tracer.wrap([GeodesicMap], "step_cells", "boundary.step_cells", count=len)
    tracer.wrap([GeodesicMap], "threshold_weighted", "boundary.threshold_weighted")
    tracer.wrap([boundary, comparison], "shrink", "boundary.shrink")
    for fn in ("check_counting", "extreme_weighted_count", "compose", "boost", "verify_witness"):
        tracer.wrap([comparison], fn, f"comparison.{fn}")
    tracer.wrap(
        [comparison], "petr_assign", "comparison.petr_assign", count=lambda w: len(w.entries)
    )
    tracer.wrap([certificates], "wrap", "certificates.wrap")
    tracer.wrap([certificates], "verify_certificate", "certificates.verify_certificate")


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports paratower, makes the
    workload's inputs and exits: the work before the first timed pass."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"bench: set-up process failed:\n{proc.stderr.decode()}")
    return elapsed


def at_reference_speed(seconds: float, unit_s: float) -> float:
    """Rescale a time measured while one reference_work call took `unit_s`
    to a machine on which it takes REFERENCE_UNIT_S."""
    from workloads import REFERENCE_UNIT_S

    return seconds * REFERENCE_UNIT_S / unit_s


def run_passes(args, wl, tracer) -> dict:
    """Whole passes until the next one would end after --seconds."""
    import workloads

    rng = random.Random(f"check/{args.workload}/{args.seed}")
    passes, setup, problems = [], [], []
    first = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # set-up starts a fresh process, so it is timed once before each
        # untraced pass; it is not rescaled, as start-up time did not follow
        # the reference's speed
        traced = bool(args.trace) and len(passes) % 2 == 1
        if not args.trace:
            setup.append(measure_setup(args.workload, args.seed))
        if traced:
            trace_paratower(tracer)
            tracer.begin_pass()
        t0 = time.perf_counter()
        try:
            result = wl.run_pass(tracer if traced else workloads.NoTracer())
        finally:
            tracer.remove()
        wall = time.perf_counter() - t0
        passes.append({"build_s": result.build_s, "verify_s": result.verify_s,
                       "wall_s": wall, "unit_s": result.unit_s, "traced": traced})
        attempted += result.attempted
        failed += result.failed
        t0 = time.perf_counter()
        if first is None:
            first = result
            problem = wl.check(result, rng)
        elif result.outputs != first.outputs:
            problem = f"pass {len(passes)} wrote other bytes than pass 1"
        else:
            problem = None
        passes[-1]["check_s"] = time.perf_counter() - t0
        if problem is not None:
            problems.append(problem)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES + args.trace and elapsed + wall > args.seconds:
            break
    return {"passes": passes, "setup_runs_s": setup, "problems": problems,
            "attempted": attempted, "failed": failed, "cert_bytes": first.out_bytes}


def scaled(p: dict, key: str) -> float:
    return at_reference_speed(p[key], p["unit_s"])


def end_to_end_metrics(runs: dict) -> dict:
    passes = runs["passes"]
    values = {
        "setup_s": statistics.median(runs["setup_runs_s"]),
        "build_s": statistics.median(scaled(p, "build_s") for p in passes),
        "verify_s": statistics.median(scaled(p, "verify_s") for p in passes),
        "cert_bytes": runs["cert_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(runs: dict, per_pass: list) -> dict:
    """Medians over the traced passes, times rescaled by each pass's speed;
    the overhead compares traced with untraced passes of the same run."""
    traced = [p for p in runs["passes"] if p["traced"]]
    metrics = {}
    for name, unit, keys in PER_LAYER:
        values = []
        for p, totals in zip(traced, per_pass):
            value = sum(totals.get(k, 0) for k in keys)
            values.append(at_reference_speed(value, p["unit_s"]) if unit == "s" else value)
        metrics[name] = {"value": statistics.median(values), "unit": unit}

    def pass_s(traced_flag: bool) -> float:
        return statistics.median(
            scaled(p, "build_s") + scaled(p, "verify_s")
            for p in runs["passes"]
            if p["traced"] == traced_flag
        )

    metrics[OVERHEAD[0]] = {"value": 100 * (pass_s(True) / pass_s(False) - 1),
                            "unit": OVERHEAD[1]}
    return metrics


def run(args) -> dict:
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer()
    runs = run_passes(args, wl, tracer)
    per_pass = tracer.pass_totals()
    metrics = per_layer_metrics(runs, per_pass) if args.trace else end_to_end_metrics(runs)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(
            {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "python": sys.version, "platform": platform.platform(),
                "cpus": os.cpu_count(), "metrics": metrics, **runs,
                "span_totals_per_traced_pass": per_pass,
            },
            fh, indent=2,
        )
    if args.trace:
        # the spans of the first traced pass; every pass is the same work
        with gzip.open(os.path.join(RESULTS, stem + "-spans.jsonl.gz"), "wt", 1) as fh:
            tracer.write_pass(fh, 0)
    for problem in runs["problems"]:
        print(f"check failed: {problem}")
    return {"correct": not runs["problems"], "attempted": runs["attempted"],
            "failed": runs["failed"], "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["towers-ball", "compare", "clopen-algebra"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_paratower()
    if args.setup_only:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
        return
    out = run(args)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{out['attempted']} operations attempted, {out['failed']} failed")
    for name, m in out["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
