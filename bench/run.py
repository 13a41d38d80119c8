"""edlkit benchmark: one workload, end-to-end or per-layer metrics, as one JSON line.

    python3 bench/run.py --workload synth-table --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; edlkit is imported from ./src. Each
workload runs in processes of its own (see worker.py). The run first starts
SETUP_SAMPLES - 1 processes that only set up and exit, then one that sets up
and measures; setup_s is the median time from starting a process to its
READY line. With --trace 0 the last line of stdout holds pass_s, setup_s and
peak_rss_mb; with --trace 1 it holds the per-layer metrics of a traced run,
whose spans are written to .bench_out/<workload>-spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150  # keeps a whole run under 180 s
WORKLOADS = ("synth-table", "edl-scan", "certify-catalog", "sweep-sim")


class BenchError(RuntimeError):
    pass


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it with its set-up time."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def finish_worker(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = start_worker(common + ["--setup-only"])
        finish_worker(proc)
        setup.append(ready)
    argv = common + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        argv += ["--spans", str(ROOT / ".bench_out" / f"{workload}-spans.jsonl")]
    proc, ready = start_worker(argv)
    setup.append(ready)
    report = json.loads(finish_worker(proc).strip().splitlines()[-1])
    print(f"{workload} seed {seed}: setup " + " ".join(f"{s:.3f}" for s in setup)
          + "; untraced passes " + " ".join(f"{s:.3f}" for s in report["pass_s"]), file=sys.stderr)

    if trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(report["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "edlkit" / "__init__.py").is_file():
        print(f"error: no edlkit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
