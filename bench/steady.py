"""Steadiness check: sets of benchmark runs per workload, with their spreads.

    python3 bench/steady.py [--runs 10] [--sets 2] [--workloads synth-table,edl-scan]

Run from the checkout root. Set k (k = 1, 2, ...) runs each workload with
seeds 100k+1 .. 100k+runs, for run_seconds from BENCHMARK.json. For every
end-to-end metric it prints, per set, the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median;
then the change of each later set's median against the first, and the
metric's bound. It also prints each set's share of failed operations. The
full table is written to .bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(1, args.sets + 1):
            runs = [run_once(workload, 100 * k + i, spec["run_seconds"])
                    for i in range(1, args.runs + 1)]
            sets.append({
                "failed_share": [r["failed"] / r["attempted"] for r in runs],
                "correct": all(r["correct"] for r in runs),
                "metrics": {name: summarize([r["metrics"][name]["value"] for r in runs])
                            for name in bounds},
            })
        table[workload] = sets
        print(f"{workload}")
        for name, bound in bounds.items():
            first = sets[0]["metrics"][name]["median"]
            cells = [f"median {s['metrics'][name]['median']:.4g} "
                     f"[{s['metrics'][name]['q1']:.4g}, {s['metrics'][name]['q3']:.4g}] "
                     f"spread {s['metrics'][name]['spread']:.3f}" for s in sets]
            drift = [f"{s['metrics'][name]['median'] / first - 1:+.3f}" for s in sets[1:]]
            print(f"  {name:12} bound {bound:.2f}: " + " | ".join(cells)
                  + (f" | median change {', '.join(drift)}" if drift else ""))
        print("  failed share per set: "
              + ", ".join(f"{max(s['failed_share']):.4f}" for s in sets)
              + "; correct: " + ", ".join(str(s["correct"]) for s in sets))
    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
