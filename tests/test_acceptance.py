"""The ten release criteria, each printing one PASS/FAIL line at the end of
the run (see conftest). Tolerances follow the published tables' 4-decimal
rounding. Two criteria assert a documented deviation instead of the naive
reading; the ledger wording is repeated inline where it matters:

* criterion 1 — the C4 S3[1] table row prints -0.0156 for the same family
  as S3[2]'s -0.0312; one program cannot have two optima, and the solver
  returns -0.03125 for that family under both printed and support-derived
  readings. The -0.0156 operator is the hand-crafted witness covered by
  criterion 2.
* criterion 3 — seven bundled witnesses are SDP optima rounded to 4
  decimals, which pushes them just outside the decomposable cone; the
  criterion reports FAIL with the certified margins rather than widening
  the tolerance.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from importlib import resources

import edlkit
from edlkit import measure, pauli, robustness, states
from edlkit.sdp import (
    SolverTolerances,
    decomposition_margins,
    edl_search,
    synthesize,
    verify_witness,
)
from edlkit.witness import (
    evaluate,
    load_catalog,
    load_paper_witness,
    p_noise,
    projector_witness,
    sample_biseparable_min,
)


def _family(*subsets):
    return tuple(frozenset(int(c) for c in s) for s in subsets)


# state, family, printed alpha, printed p_noise
SUMMARY_ROWS = [
    ("W3", _family("12", "23"), -0.0285, 0.1859),
    ("W3", _family("12", "23", "13"), -0.0546, 0.3039),
    ("W4", _family("12", "23", "34"), -0.0047, 0.0696),
    ("W4", _family("12", "23", "34", "24"), -0.0070, 0.1001),
    ("W4", _family("12", "23", "34", "14"), -0.0090, 0.1261),
    ("W4", _family("12", "23", "34", "24", "14"), -0.0095, 0.1319),
    ("W4", _family("12", "23", "34", "14", "13", "24"), -0.0114, 0.1541),
    ("D4", _family("12", "23", "34"), -0.0065, 0.0946),
    ("D4", _family("12", "13", "14"), -0.0093, 0.1293),
    ("D4", _family("12", "23", "34", "14"), -0.0117, 0.1577),
    ("D4", _family("12", "23", "34", "24", "14"), -0.0199, 0.2413),
    ("D4", _family("12", "23", "34", "14", "13", "24"), -0.0285, 0.3131),
    # C4 S3[1] (printed -0.0156) handled separately: documented deviation
    ("C4", _family("123", "134"), -0.0312, 1 / 3),
    ("C4", _family("123", "134", "234"), -0.0417, 0.4),
    ("C4", _family("123", "124", "134", "234"), -0.0625, 0.5),
]

# printed experimental witness rows of Table D4a (criterion 9)
D4A_WITNESS_VALUES = [-0.00582, -0.00850, -0.0107, -0.0192, -0.0274]

ROUNDED_OUT = ("W3-1", "W4-1", "W4-3", "W4-5", "D4-3", "D4-5", "C4-4")


def _rho(state):
    return states.density(states.make_state(state))


def _fixture_records(name, n):
    ref = resources.files("edlkit").joinpath(f"data/tables/{name}.csv")
    with resources.as_file(ref) as path:
        return measure.read_expectation_csv(path, n)


# The slowest summary-table solve in CPU seconds, timed in a fresh
# interpreter with one BLAS thread: waiting OpenBLAS workers spin, so with
# more threads another process on the host inflates the CPU time too.
_TIMED_SOLVES = """
import json, sys, time
import edlkit  # caps the BLAS threads from EDLKIT_THREADS before numpy loads
from edlkit import states
from edlkit.sdp import synthesize
slowest = 0.0
for state, family in json.loads(sys.argv[1]):
    rho = states.density(states.make_state(state))
    start = time.process_time()
    synthesize(rho, [frozenset(s) for s in family])
    slowest = max(slowest, time.process_time() - start)
print(slowest)
"""


def _slowest_solve_cpu_s(rows):
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["EDLKIT_THREADS"] = "1"
    src = str(pathlib.Path(edlkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cases = json.dumps([(state, [sorted(s) for s in family]) for state, family, _, _ in rows])
    child = subprocess.run(
        [sys.executable, "-c", _TIMED_SOLVES, cases],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(child.stdout)


def test_criterion_1_sdp_regression(acceptance):
    worst_alpha = worst_noise = 0.0
    for state, family, alpha_ref, p_ref in SUMMARY_ROWS:
        result = synthesize(_rho(state), family)
        worst_alpha = max(worst_alpha, abs(result.alpha - alpha_ref))
        worst_noise = max(worst_noise, abs(result.p_noise - p_ref))
        assert result.alpha == pytest.approx(alpha_ref, abs=1e-3), (state, family)
        assert result.p_noise == pytest.approx(p_ref, abs=2e-3), (state, family)

    # the 16th row: the table prints alpha=-0.0156 for C4 S3[1] yet lists the
    # same family as S3[2] (-0.0312). Both the printed family and the
    # support-derived one optimize to exactly -1/32, so -0.0156 is not a
    # family optimum and is asserted as the documented deviation instead.
    for family in (_family("123", "134"), _family("124", "134")):
        deviant = synthesize(_rho("C4"), family)
        assert deviant.alpha == pytest.approx(-0.03125, abs=1e-3)

    slowest = _slowest_solve_cpu_s(SUMMARY_ROWS)
    assert slowest < 4.0  # spec expectation: < 2 s per solve on a laptop
    acceptance(
        1,
        "SDP summary-table regression",
        True,
        f"15/16 rows within 1e-3 (worst {worst_alpha:.1e}, p_noise {worst_noise:.1e}, "
        f"slowest solve {slowest:.2f} CPU s at one BLAS thread); "
        f"C4 S3[1] row documented deviation: family optimum is -0.03125, "
        f"printed -0.0156 is the hand-crafted witness",
    )


def test_criterion_2_catalog_regression(acceptance):
    catalog = load_catalog()
    assert len(catalog) == 16
    worst = 0.0
    for w in catalog:
        rho = _rho(w.target_state)
        value = evaluate(w.expr, rho)
        worst = max(worst, abs(value - w.alpha))
        assert value == pytest.approx(w.alpha, abs=5e-4), w.label
        assert w.expr.trace() == pytest.approx(1.0, abs=1e-9), w.label
        from edlkit.witness import family_covers, support

        assert family_covers(w.family, w.expr), w.label
        assert all(any(s <= f for f in w.family) for s in support(w.expr))
    # the catalog stores the support-derived C4 family (Open Questions note)
    assert set(load_paper_witness("C4", 1).family) == {
        frozenset({1, 2, 4}),
        frozenset({1, 3, 4}),
    }
    acceptance(
        2,
        "catalog evaluates to printed values",
        True,
        f"16/16 within 5e-4 (worst {worst:.1e}); traces exact to 1e-9",
    )


def test_criterion_3_certificates(acceptance):
    """9 of 16 published witnesses + both projectors decompose; the other 7
    provably do not (rounded coefficients sit outside the cone), so the
    criterion as stated is a FAIL and is reported as such."""
    verified, failed = [], {}
    for w in load_catalog():
        certs = verify_witness(w.expr)
        if w.label in ROUNDED_OUT:
            assert certs is None, f"{w.label}: expected rounding to break the decomposition"
            margins = decomposition_margins(w.expr)
            best = min(m for m, _ in margins.values())
            bound = min(b for _, b in margins.values())
            # certified impossibility at the rounding scale: the bound says no
            # decomposition can do better than ~-1e-6
            assert -1e-5 < best < -1e-6, w.label
            assert bound < -1e-6, w.label
            failed[w.label] = best
            continue
        assert certs is not None, w.label
        w_mat = w.expr.matrix()
        for part, (p_mat, q_mat) in certs.items():
            assert pauli.min_eigenvalue(p_mat) >= -1e-8
            assert pauli.min_eigenvalue(q_mat) >= -1e-8
            recon = p_mat + pauli.partial_transpose(q_mat, sorted(part))
            assert np.max(np.abs(recon - w_mat)) <= 1e-7
        verified.append(w.label)
    for state in ("D4", "C4"):
        w = projector_witness(states.make_state(state))
        expr = (1.0 / w.expr.trace()) * w.expr  # normalize for verification
        certs = verify_witness(expr)
        assert certs is not None, f"{state} projector"
        verified.append(f"{state} projector")

    assert len(verified) == 11 and len(failed) == 7
    margins_txt = ", ".join(f"{k} {v:.1e}" for k, v in sorted(failed.items()))
    acceptance(
        3,
        "PSD certificates for all bundled witnesses",
        False,
        f"9 witnesses + 2 projectors verify; 7 rounded witnesses certified "
        f"non-decomposable ({margins_txt}) — coefficients are 4-decimal "
        f"roundings of boundary optima; re-synthesized optima all verify",
    )


def test_criterion_4_biseparable_sampling(acceptance):
    worst = np.inf
    for k, w in enumerate(load_catalog()):
        low = sample_biseparable_min(w.expr, trials=100_000, seed=1000 + k)
        worst = min(worst, low)
        assert low >= -1e-6, w.label
    acceptance(
        4,
        "biseparable sampling stays nonnegative",
        True,
        f"16 witnesses x 1e5 seeded samples, min expectation {worst:.2e}",
    )


def test_criterion_5_projector_constants(acceptance):
    expected = {"W3": 2 / 3, "W4": 3 / 4, "D4": 2 / 3, "C4": 1 / 2}
    for state, lam in expected.items():
        got = states.schmidt_lambda_max(states.make_state(state))
        assert got == pytest.approx(lam, abs=1e-10), state
    proj = projector_witness(states.make_state("D4"))
    tol = p_noise(proj.expr, _rho("D4"))
    assert tol == pytest.approx(0.3556, abs=1e-3)
    acceptance(
        5,
        "Schmidt constants and projector tolerance",
        True,
        f"lambda-max exact to 1e-10; D4 projector p_noise {tol:.4f}",
    )


def test_criterion_6_misalignment_crossovers(acceptance):
    w5 = load_paper_witness("D4", 5)
    proj = projector_witness(states.make_state("D4"), label="projector")
    rho = _rho("D4")

    start = time.perf_counter()
    curve = robustness.tolerance_curve(w5, rho, robustness.default_grid(), "all_axes")
    sweep_s = time.perf_counter() - start
    assert len(curve.thetas) == 121
    assert sweep_s < 5.0
    # theta = 0 reproduces the clean summary-table tolerances
    assert curve.tolerances[0] == pytest.approx(0.3131, abs=2e-3)
    proj_curve = robustness.tolerance_curve(proj, rho, (0.0, 0.01), "all_axes")
    assert proj_curve.tolerances[0] == pytest.approx(16 / 45, abs=1e-12)

    cross_all = robustness.crossover(w5, proj, rho, "all_axes")
    cross_y = robustness.crossover(w5, proj, rho, "y_only")
    assert cross_all == pytest.approx(0.26, abs=0.02)
    assert cross_y == pytest.approx(0.29, abs=0.02)
    acceptance(
        6,
        "misalignment crossovers",
        True,
        f"all_axes {cross_all:.4f} (0.26±0.02), y_only {cross_y:.4f} (0.29±0.02), "
        f"121-point sweep {sweep_s * 1000:.0f}ms",
    )


def test_criterion_7_edl_search(acceptance):
    expected = {"W3": 2, "W4": 2, "D4": 2, "C4": 3}
    start = time.perf_counter()
    got = {state: edl_search(_rho(state)) for state in expected}
    elapsed = time.perf_counter() - start
    assert got == expected
    assert elapsed < 30.0
    acceptance(
        7,
        "detection-length search",
        True,
        f"W3/W4/D4 -> 2, C4 -> 3 in {elapsed:.1f}s",
    )


def test_criterion_8_fidelity_decompositions(acceptance):
    setting_counts = {"W3": 5, "W4": 7, "D4": 9, "C4": 9}
    worst = 0.0
    for state, count in setting_counts.items():
        plan = measure.fidelity_settings(state)
        assert len(plan.settings) == count, state
        psi = states.make_state(state)
        err = float(np.linalg.norm(plan.reconstruction.matrix() - np.outer(psi, psi.conj())))
        worst = max(worst, err)
        assert err <= 1e-10, state
    acceptance(
        8,
        "fidelity reconstruction formulas",
        True,
        f"5/7/9/9 settings; worst Frobenius error {worst:.1e}",
    )


def test_criterion_9_table_ingestion(acceptance):
    # Table D4a
    records = _fixture_records("d4a", 4)
    fid, fid_sigma = measure.combine_plan(records, measure.fidelity_settings("D4"))
    assert fid == pytest.approx(0.974, abs=2e-3)
    assert 0 < fid_sigma < 0.01
    for wid, printed in zip(range(1, 6), D4A_WITNESS_VALUES):
        w = load_paper_witness("D4", wid)
        value, _ = measure.combine(records, w.expr)
        assert value == pytest.approx(printed, abs=1.5e-3), f"D4-{wid}"

    # Table C4a
    records = _fixture_records("c4a", 4)
    fid_c4, _ = measure.combine_plan(records, measure.fidelity_settings("C4"))
    assert fid_c4 == pytest.approx(0.968, abs=2e-3)
    w4_value, _ = measure.combine(records, load_paper_witness("C4", 4).expr)
    assert w4_value == pytest.approx(-0.0573, abs=1e-3)

    # Table W3a
    records = _fixture_records("w3a", 3)
    fid_w3, _ = measure.combine_plan(records, measure.fidelity_settings("W3"))
    assert fid_w3 == pytest.approx(0.982, abs=1e-2)

    acceptance(
        9,
        "published-table ingestion",
        True,
        f"D4a F={fid:.4f} + 5 witness rows within 1.5e-3; "
        f"C4a F={fid_c4:.4f}, W4={w4_value:.4f}; W3a F={fid_w3:.4f}",
    )


def test_criterion_10_simulation_statistics(acceptance):
    rho = _rho("D4")
    w = load_paper_witness("D4", 5)
    exact = evaluate(w.expr, rho)
    plan = measure.plan_settings(w.expr)
    settings = [s for s, _ in plan]
    ops = [measure.parse_operator(word, 4) for _, words in plan for word in words]

    worst_pull = 0.0
    for rep in range(50):
        tables = measure.simulate_counts(rho, settings, 100_000, seed=rep)
        value, sigma = measure.combine(measure.estimate_expectations(tables, ops), w.expr)
        pull = abs(value - exact) / sigma
        worst_pull = max(worst_pull, pull)
        assert pull < 5.0, f"rep {rep}: {value} vs {exact} (sigma {sigma})"

    sigmas = {}
    for shots in (10_000, 1_000_000):
        tables = measure.simulate_counts(rho, settings, shots, seed=7)
        _, sigmas[shots] = measure.combine(measure.estimate_expectations(tables, ops), w.expr)
    ratio = sigmas[10_000] / sigmas[1_000_000]
    assert ratio == pytest.approx(10.0, rel=0.10)
    acceptance(
        10,
        "simulation statistics",
        True,
        f"50 reps within 5 s.e. (worst pull {worst_pull:.2f}); "
        f"sigma ratio 1e4/1e6 shots = {ratio:.2f} (expect 10)",
    )
