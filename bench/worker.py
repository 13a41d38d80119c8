"""One workload in one process: set up, run timed passes, check every output.

Started by run.py, never by hand. Prints READY on stdout when set-up ends
and, unless --setup-only, one JSON line with the pass measurements last.

A pass runs every operation of the workload once, in the seed's order; its
wall time excludes the checks, which run after it. Passes repeat until the
next one would end after --seconds, and there is always at least one. With
--trace 1, untraced and traced passes alternate (at least one of each): the
untraced ones give the CPU time and the base for the tracing overhead, the
traced ones the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Public functions wrapped in a traced run, by module.
TRACED = {
    "sdp": ("synthesize", "edl_scan", "decomposition_margins"),
    "pauli": ("to_pauli_coords", "from_pauli_coords", "pauli_basis"),
    "witness": ("evaluate", "p_noise"),
    "robustness": ("misalign_expr", "tolerance_curve", "crossover"),
    "measure": ("outcome_probabilities", "simulate_counts", "estimate_expectations",
                "combine", "combine_plan", "parse_operator"),
}
COUNTERS = ("sdp.newton_steps", "sdp.free_words", "sdp.margin_bipartitions",
            "robustness.curve_points", "measure.shots")


def counter_hooks(free_word_count):
    def synthesize(args, kwargs, result):
        family = args[1] if len(args) > 1 else kwargs["family"]
        return {"sdp.newton_steps": result.solution.iterations,
                "sdp.free_words": free_word_count(family)}

    return {
        "sdp.synthesize": synthesize,
        "sdp.decomposition_margins":
            lambda a, k, r: {"sdp.margin_bipartitions": len(r)},
        "robustness.tolerance_curve":
            lambda a, k, r: {"robustness.curve_points": len(r.thetas)},
        "measure.simulate_counts":
            lambda a, k, r: {"measure.shots": sum(t.shots for t in r)},
    }


def run_pass(ops):
    """(wall s, cpu s, [(op, result, exception)]) for one pass over ops."""
    outcomes = []
    wall, cpu = time.perf_counter(), time.process_time()
    for op in ops:
        try:
            outcomes.append((op, op.run(), None))
        except Exception as exc:  # a failing operation is counted, not fatal
            outcomes.append((op, None, exc))
    return time.perf_counter() - wall, time.process_time() - cpu, outcomes


def check_pass(outcomes) -> tuple[int, int]:
    """(operations that raised, operations whose output is wrong); reasons go to stderr."""
    raised = wrong = 0
    for op, result, exc in outcomes:
        if exc is not None:
            raised += 1
            print(f"{op.label}: raised {exc!r}", file=sys.stderr)
            continue
        try:
            problems = op.check(result)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            wrong += 1
            print(f"{op.label}: " + "; ".join(problems), file=sys.stderr)
    return raised, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args(argv)

    # edlkit is imported before numpy, as the CLI does, so EDLKIT_THREADS takes effect.
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import edlkit as edl
    import edlkit.measure  # noqa: F401  (the package root does not import these two)
    import edlkit.robustness  # noqa: F401

    from tracing import Tracer
    from workloads import WORKLOADS, free_word_count

    for name in edl.states.STATE_NAMES:  # fills the per-n Pauli basis caches
        edl.pauli.to_pauli_coords(edl.states.density(edl.states.make_state(name)))
    workload = WORKLOADS[args.workload](edl, args.seed)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer()
    if args.trace:
        hooks = counter_hooks(free_word_count)
        for mod_name, fns in TRACED.items():
            for fn in fns:
                name = f"{mod_name}.{fn}"
                tracer.install(getattr(edl, mod_name), fn, name, hooks.get(name))

    ops = workload.ops
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.tag, first = len(passes), len(tracer.spans)
        tracer.counters.clear()
        tracer.active = traced
        wall, cpu, outcomes = run_pass(ops)
        tracer.active = False
        raised, wrong = check_pass(outcomes)
        passes.append({"traced": traced, "wall": wall, "cpu": cpu, "raised": raised,
                       "wrong": wrong, "layers": tracer.summary(first) if traced else None,
                       "counters": dict(tracer.counters)})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if (not args.trace or len(passes) >= 2) and elapsed + typical > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    report = {
        "attempted": len(ops) * len(passes),
        "failed": sum(p["raised"] + p["wrong"] for p in passes),
        "wrong": sum(p["wrong"] for p in passes),
        "pass_s": [p["wall"] for p in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        report["per_layer"] = per_layer_metrics([p for p in passes if p["traced"]], plain)
        if args.spans:
            Path(args.spans).parent.mkdir(exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(report), flush=True)
    return 0


def per_layer_metrics(traced, plain) -> dict[str, float]:
    """Per-pass figures: counts of the first traced pass, medians of the times."""
    out = {}
    for mod_name, fns in TRACED.items():
        for fn in fns:
            name = f"{mod_name}.{fn}"
            rows = [p["layers"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    for p in traced]
            out[f"{name}.calls"] = rows[0]["calls"]
            for part in ("total_s", "self_s"):
                out[f"{name}.{part}"] = statistics.median(r[part] for r in rows)
    for key in COUNTERS:
        out[key] = traced[0]["counters"].get(key, 0)
    steps = out["sdp.newton_steps"]
    out["sdp.newton_step_ms"] = 1000 * out["sdp.synthesize.total_s"] / steps if steps else 0.0
    out["process.cpu_s"] = statistics.median(p["cpu"] for p in plain)
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in plain))
    return out


if __name__ == "__main__":
    sys.exit(main())
