"""Print a digest of every solver output the benchmark workloads produce.

One line per output, so that diffing the digests of two checkouts shows
whether a change moved any iterate:

- each synth-table and edl-scan solve, then W5 and D(5,2) on all pairs
  (at n = 5 the symmetry group is read from targets that equal ones differ
  in the last bit): label, Newton steps, repr(alpha), repr(duality_gap) and
  the SHA-256 of the certificate bytes;
- each catalog witness and the D4/C4 projectors (normalized to unit trace,
  as the certify-catalog workload has them): the repr of every
  decomposition_margins pair and a hash of the verify_witness certificates
  (None when it rejects the witness);
- at the end of each synth, edl and margins line, the reduced sizes the
  solver ran, read from every program passed to ``sdp._barrier_path``:
  ``coords`` the entry coordinates per block, ``blocks`` the cut blocks
  and ``orbits`` the word orbits, each summed over the programs (a margin
  program has one block and one direction; "-" when no program ran);
- then the Newton step totals of the two synthesis workloads, and their
  Newton systems and those of the certify-catalog workload's margin
  programs (calls of ``sdp._curvature``, one per Newton system and cut
  block; for the margins only those ``decomposition_margins`` makes), which
  the benchmark's ``newton_steps`` leaves out;
- last, every operation of the sweep-sim workload at seed 1, in its order:
  a hash of each tolerance curve, the repr of each crossover angle, and for
  each simulated experiment the SHA-256 of its counts, of the per-setting
  outcome_probabilities, and of its records' repr(value) and repr(sigma),
  then repr of the combined value and sigma; each bundled table gives the
  repr of its fidelity and witness estimates. The combined sigma is the
  last field of a ``simulate`` line, so digests that must differ only there can
  be compared with it cut off.

``tools/digest_compare.py`` compares two digests by value: per line the
step delta and the largest |alpha| and margin change.

The n <= 4 inputs are read from bench/workloads.py; nothing there is changed. Run
from the root of a checkout (edlkit is imported from its ./src):

    OPENBLAS_NUM_THREADS=1 python3 tools/solver_digest.py > digest.txt

Compare the n = 5 lines at one BLAS thread: their last bits depend on the
thread count (ROADMAP item 2). Every n <= 4 line and every sweep-sim line is
thread-independent.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import edlkit  # noqa: E402
import edlkit.robustness  # noqa: E402,F401  (the package root does not import it)
from edlkit import measure, sdp, states, witness  # noqa: E402
from workloads import (  # noqa: E402
    C4_DEVIATION_FAMILIES,
    DETECTION_LENGTH,
    SUMMARY_ROWS,
    SweepSim,
    _label,
)


def certificate_hash(certificates) -> str:
    if certificates is None:
        return "None"
    digest = hashlib.sha256()
    for part in sorted(certificates, key=sorted):
        for block in certificates[part]:
            digest.update(block.tobytes())
    return digest.hexdigest()


def dicke(n: int, k: int) -> np.ndarray:
    """Density matrix of the n-qubit Dicke state with k excitations."""
    psi = np.array([float(b.bit_count() == k) for b in range(2**n)])
    return states.density(psi / np.linalg.norm(psi))


def synthesis_line(label: str, result, sizes: str) -> str:
    sol = result.solution
    return (f"{label}: steps={sol.iterations} alpha={result.alpha!r} "
            f"gap={sol.duality_gap!r} cert={certificate_hash(sol.certificates)} {sizes}")


class CurvatureCalls:
    """Takes the place of ``sdp._curvature`` for the rest of the run and
    counts its calls."""

    def __init__(self):
        self.calls = 0
        self.curvature = sdp._curvature
        sdp._curvature = self

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.curvature(*args, **kwargs)

    def take(self) -> int:
        """The calls since the last call."""
        calls, self.calls = self.calls, 0
        return calls


class ProgramSizes:
    """Takes the place of ``sdp._barrier_path`` for the rest of the run and
    records every program it is given."""

    def __init__(self):
        self.programs = []
        self.path = sdp._barrier_path
        sdp._barrier_path = self

    def __call__(self, prog, *args):
        self.programs.append(prog)
        return self.path(prog, *args)

    def take(self) -> str:
        """The reduced sizes of the programs recorded since the last call."""
        progs, self.programs = self.programs, []
        if not progs:
            return "coords=- blocks=0 orbits=0"
        coords = "/".join(str(s) for s in sorted({p.basis.size for p in progs}))
        blocks = sum(len(p.transposes) for p in progs)
        return f"coords={coords} blocks={blocks} orbits={sum(p.c.size for p in progs)}"


def main() -> None:
    rho = {name: states.density(states.make_state(name)) for name in states.STATE_NAMES}

    sizes, systems = ProgramSizes(), CurvatureCalls()
    steps = 0
    cases = [(state, family) for state, family, _, _ in SUMMARY_ROWS]
    cases += [("C4", family) for family in C4_DEVIATION_FAMILIES]
    for state, family in cases:
        result = sdp.synthesize(rho[state], family)
        steps += result.solution.iterations
        print(synthesis_line(f"synth {state} {_label(family)}", result, sizes.take()))
    synth_steps, synth_systems = steps, systems.take()

    steps = 0
    for state in DETECTION_LENGTH:
        n = rho[state].shape[0].bit_length() - 1
        for k in range(1, n + 1):  # the solves of sdp.edl_scan, one at a time
            result = sdp.synthesize(rho[state], sdp.all_k_family(n, k))
            steps += result.solution.iterations
            print(synthesis_line(f"edl {state} k={k}", result, sizes.take()))
    scan_steps, scan_systems = steps, systems.take()

    for name, k in (("W5", 1), ("D(5,2)", 2)):
        family = sdp.all_k_family(5, 2)
        result = sdp.synthesize(dicke(5, k), family)
        print(synthesis_line(f"synth {name} {_label(family)}", result, sizes.take()))

    entries = [(w.label, w.expr) for w in witness.load_catalog()]
    for state in ("D4", "C4"):
        proj = witness.projector_witness(states.make_state(state))
        entries.append((f"{state}-projector", (1.0 / proj.expr.trace()) * proj.expr))
    margin_systems = 0
    for label, expr in entries:
        systems.take()
        margins = sdp.decomposition_margins(expr)
        margin_systems += systems.take()
        pairs = " ".join(
            f"{''.join(map(str, sorted(part)))}:{margins[part][0]!r},{margins[part][1]!r}"
            for part in sorted(margins, key=sorted)
        )
        print(f"margins {label}: {pairs} {sizes.take()}")
        print(f"verify {label}: {certificate_hash(sdp.verify_witness(expr))}")
        sizes.take()

    print(f"newton steps: synth-table {synth_steps}, edl-scan {scan_steps}")
    print(f"synthesis newton systems: synth-table {synth_systems}, edl-scan {scan_systems}")
    print(f"margin newton systems: certify-catalog {margin_systems}")
    sweep_lines()


def sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def sweep_lines() -> None:
    """One line per sweep-sim operation at seed 1; the count tables and records
    of a simulated experiment are read by wrapping the two measure calls."""
    seen = {}
    simulate, estimate = measure.simulate_counts, measure.estimate_expectations

    def simulate_spy(rho, settings, shots, seed):
        seen["rho"], seen["tables"] = rho, simulate(rho, settings, shots, seed)
        return seen["tables"]

    def estimate_spy(tables, operators):
        seen["records"] = estimate(tables, operators)
        return seen["records"]

    measure.simulate_counts, measure.estimate_expectations = simulate_spy, estimate_spy
    try:
        for op in SweepSim(edlkit, 1).ops:
            seen.clear()
            result = op.run()
            kind = op.label.split()[0]
            if kind == "curve":
                print(f"{op.label}: {sha(result.tolerances)}")
            elif kind == "crossover":
                print(f"{op.label}: {result!r}")
            elif kind == "table":
                fidelity, witnesses = result
                print(f"{op.label}: F={fidelity!r} "
                      + " ".join(f"{w}={witnesses[w]!r}" for w in sorted(witnesses)))
            else:
                tables, records = seen["tables"], seen["records"]
                probs = [measure.outcome_probabilities(seen["rho"], t.setting) for t in tables]
                value, sigma = result
                print(f"{op.label}: counts={sha(t.counts.tobytes() for t in tables)} "
                      f"probs={sha(p.tobytes() for p in probs)} "
                      f"records={sha((r.value, r.sigma) for r in records)} "
                      f"value={value!r} sigma={sigma!r}")
    finally:
        measure.simulate_counts, measure.estimate_expectations = simulate, estimate


if __name__ == "__main__":
    main()
