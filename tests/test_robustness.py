import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edlkit import pauli, robustness, states
from edlkit.pauli import PAULI_1Q
from edlkit.robustness import ToleranceCurve, crossover, default_grid, misalign_expr, tolerance_curve
from edlkit.witness import (
    ObservableExpr,
    _noise_tolerance,
    evaluate,
    load_catalog,
    load_paper_witness,
    p_noise,
    projector_witness,
)

D4_RHO = states.density(states.make_state("D4"))


def test_zero_angle_is_identity():
    w = load_paper_witness("D4", 5)
    for mode in robustness.MODES:
        out = misalign_expr(w.expr, 0.0, mode)
        assert out.isclose(w.expr)


def test_all_axes_letter_substitution():
    theta = 0.3
    c, s = math.cos(theta), math.sin(theta)
    out = misalign_expr(ObservableExpr(1, {"X": 1.0}), theta, "all_axes")
    assert out.terms == pytest.approx({"X": c, "Y": s})
    out = misalign_expr(ObservableExpr(1, {"Y": 1.0}), theta, "all_axes")
    assert out.terms == pytest.approx({"Y": c, "Z": s})
    out = misalign_expr(ObservableExpr(1, {"Z": 1.0}), theta, "all_axes")
    assert out.terms == pytest.approx({"Z": c, "X": s})


def test_y_only_leaves_x_and_z():
    theta = 0.25
    expr = ObservableExpr(2, {"XZ": 0.5, "YI": 1.0})
    out = misalign_expr(expr, theta, "y_only")
    assert out.terms == pytest.approx(
        {"XZ": 0.5, "YI": math.cos(theta), "ZI": math.sin(theta)}
    )


def test_misalignment_preserves_trace_and_identity():
    w = load_paper_witness("C4", 4)
    out = misalign_expr(w.expr, 0.4, "all_axes")
    assert out.trace() == pytest.approx(w.expr.trace(), abs=1e-12)
    assert out.identity_coeff == pytest.approx(w.expr.identity_coeff, abs=1e-14)


def test_misaligned_word_is_a_product_of_unit_observables():
    # each tilted letter has unit Bloch norm, so the square of the one-qubit
    # misaligned X is the identity
    m = misalign_expr(ObservableExpr(1, {"X": 1.0}), 0.7, "all_axes").matrix()
    assert np.max(np.abs(m @ m - np.eye(2))) < 1e-12


def test_spec_validation():
    expr = load_paper_witness("D4", 5).expr
    with pytest.raises(ValueError, match="mode must be one of"):
        misalign_expr(expr, 0.1, "sideways")
    with pytest.raises(ValueError, match="theta must be finite"):
        misalign_expr(expr, float("nan"), "all_axes")
    with pytest.warns(UserWarning, match="outside"):
        misalign_expr(expr, 2.0, "all_axes")


def test_out_of_range_warning_names_the_calling_file():
    # the warning skips edlkit's frames: it points at the line that passed the angle
    # (called straight from the test function, whose caller is pytest's)
    w = load_paper_witness("D4", 5)
    with pytest.warns(UserWarning, match="outside") as record:
        misalign_expr(w.expr, 2.0)
    with pytest.warns(UserWarning, match="outside") as curve_record:
        tolerance_curve(w, D4_RHO, [0.1, 2.0])
    assert [r.filename for r in [*record, *curve_record]] == [__file__, __file__]


def test_tolerance_curve_validation():
    w = load_paper_witness("D4", 5)
    with pytest.raises(ValueError, match="mode must be one of"):
        tolerance_curve(w, D4_RHO, [0.1], "sideways")
    with pytest.raises(ValueError, match="theta must be finite"):
        tolerance_curve(w, D4_RHO, [0.1, float("nan")])
    with pytest.warns(UserWarning, match="outside"):
        tolerance_curve(w, D4_RHO, [0.1, 2.0])


def _rule_letter_map(theta, mode):
    """The letter map written out from the substitution rules."""
    c, s = math.cos(theta), math.sin(theta)
    if mode == "all_axes":
        return np.array([[1, 0, 0, 0], [0, c, 0, s], [0, s, c, 0], [0, 0, s, c]])
    return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, 0], [0, 0, s, 1]])


@pytest.mark.parametrize("mode", robustness.MODES)
def test_letter_map_stack_gives_the_per_angle_tolerances(mode):
    # one stack of letter maps per batch gives the tolerances, bit for bit, of
    # a stack of each angle's transposed map (the layout fixes local_map's
    # summation order)
    grid = default_grid()
    for theta in grid:
        assert np.array_equal(
            robustness._letter_maps((theta,), mode)[0], _rule_letter_map(theta, mode)
        )
    for w in load_catalog():
        n = w.expr.n
        rho_coords = pauli.to_pauli_coords(states.density(states.make_state(w.target_state)))
        coords = w.expr.coords()
        for start in range(0, len(grid), robustness._THETA_BATCH):
            batch = grid[start:start + robustness._THETA_BATCH]
            maps = np.stack([robustness._letter_maps((t,), mode)[0].T for t in batch])
            values = pauli.local_map(rho_coords, [maps] * n) @ coords * 2**n
            got = robustness._tolerances(w.expr, coords, rho_coords, batch, mode)
            assert got == [_noise_tolerance(w.expr, float(v)) for v in values], (w.label, start)


def test_default_grid():
    grid = default_grid()
    assert len(grid) == 121
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(0.6)
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_tolerance_curve_at_zero_matches_clean_p_noise():
    w = load_paper_witness("D4", 5)
    curve = tolerance_curve(w, D4_RHO, default_grid(), mode="all_axes")
    assert curve.witness_label == "D4-5"
    assert curve.tolerances[0] == pytest.approx(p_noise(w.expr, D4_RHO), abs=1e-12)
    assert curve.tolerances[0] == pytest.approx(0.3131, abs=2e-3)


def test_tolerance_curve_decreases_then_dies():
    w = load_paper_witness("W3", 2)
    rho = states.density(states.make_state("W3"))
    curve = tolerance_curve(w, rho, default_grid(stop=1.5, step=0.05))
    tail_none = [t for t in curve.tolerances if t is None]
    head = [t for t in curve.tolerances if t is not None]
    assert head[0] > head[-1]        # misalignment costs tolerance overall
    assert tail_none                 # far enough out the witness goes blind
    # None entries appear only after the last detected angle
    first_none = curve.tolerances.index(None)
    assert all(t is None for t in curve.tolerances[first_none:])


def test_tolerance_curve_grid_validation():
    w = load_paper_witness("D4", 5)
    with pytest.raises(ValueError):
        tolerance_curve(w, D4_RHO, [])
    with pytest.raises(ValueError):
        tolerance_curve(w, D4_RHO, [0.2, 0.1])


def test_curve_length_mismatch_rejected():
    with pytest.raises(ValueError):
        ToleranceCurve(thetas=(0.0, 0.1), tolerances=(0.5,), witness_label="x")


def test_crossover_d4_witness_vs_projector():
    w5 = load_paper_witness("D4", 5)
    proj = projector_witness(states.make_state("D4"), label="projector")
    theta_all = crossover(w5, proj, D4_RHO, mode="all_axes")
    theta_y = crossover(w5, proj, D4_RHO, mode="y_only")
    assert theta_all == pytest.approx(0.2649, abs=5e-4)
    assert theta_y == pytest.approx(0.2937, abs=5e-4)
    # the projector starts higher but decays faster: it wins below the
    # crossover and loses above it
    for theta, proj_wins in ((theta_all / 2, True), (0.35, False)):
        pa = p_noise(misalign_expr(w5.expr, theta, "all_axes"), D4_RHO)
        pb = p_noise(misalign_expr(proj.expr, theta, "all_axes"), D4_RHO)
        assert (pb > pa) == proj_wins


def test_crossover_requires_a_sign_change():
    w = load_paper_witness("D4", 5)
    with pytest.raises(ValueError):
        crossover(w, w, D4_RHO)


def test_crossover_names_a_witness_that_does_not_detect_the_state():
    # C4-1 never detects W4 while W4-1 does: the scan collects no value at all,
    # which is no evidence that the curves coincide
    rho = states.density(states.make_state("W4"))
    c4_1, w4_1 = load_paper_witness("C4", 1), load_paper_witness("W4", 1)
    assert p_noise(c4_1.expr, rho) is None and p_noise(w4_1.expr, rho) is not None
    blind = re.escape(f"not detected at theta=0 by {c4_1.label!r}") + "$"
    for w_a, w_b in ((c4_1, w4_1), (w4_1, c4_1)):
        with pytest.raises(ValueError, match=blind):
            crossover(w_a, w_b, rho)
    both = re.escape(f"by {c4_1.label!r} and {c4_1.label!r}") + "$"
    with pytest.raises(ValueError, match=both):
        crossover(c4_1, c4_1, rho)


def _bisect_reference(w_a, w_b, rho, mode, hi=math.pi / 4, tol=1e-4):
    """crossover's bracket and bisection, re-evaluating diff(lo) at every step."""

    def diff(theta):
        pa = p_noise(misalign_expr(w_a.expr, theta, mode), rho)
        pb = p_noise(misalign_expr(w_b.expr, theta, mode), rho)
        return None if pa is None or pb is None else pa - pb

    scan = [hi * k / 32 for k in range(33)]
    values = list(itertools.takewhile(lambda v: v is not None, map(diff, scan)))
    i = next(i for i in range(len(values) - 1) if (values[i] < 0) != (values[i + 1] < 0))
    lo, up = scan[i], scan[i + 1]
    while up - lo > tol:
        mid = 0.5 * (lo + up)
        if (diff(lo) < 0) != (diff(mid) < 0):
            up = mid
        else:
            lo = mid
    return 0.5 * (lo + up)


def test_crossover_misaligns_each_witness_once_per_angle(monkeypatch):
    w5 = load_paper_witness("D4", 5)
    proj = projector_witness(states.make_state("D4"), label="projector")
    expected = _bisect_reference(w5, proj, D4_RHO, "all_axes")
    seen, expanded = [], []
    real, coords = robustness._tolerances, ObservableExpr.coords

    def spy(expr, expr_coords, rho_coords, thetas, mode):
        seen.extend((id(expr), t) for t in thetas)
        return real(expr, expr_coords, rho_coords, thetas, mode)

    monkeypatch.setattr(robustness, "_tolerances", spy)
    monkeypatch.setattr(ObservableExpr, "coords", lambda self: expanded.append(self) or coords(self))
    theta = crossover(w5, proj, D4_RHO, mode="all_axes")
    assert theta == expected
    # 19 scan angles (the last one blind) and 8 bisection midpoints, two
    # witnesses each; re-evaluating the lower bracket end made it 70
    assert len(seen) == len(set(seen)) == 54
    assert expanded == [w5.expr, proj.expr]  # each witness's coordinates once


def test_tolerance_curve_expands_the_witness_once(monkeypatch):
    w5 = load_paper_witness("D4", 5)
    expanded = []
    coords = ObservableExpr.coords
    monkeypatch.setattr(ObservableExpr, "coords", lambda self: expanded.append(self) or coords(self))
    curve = tolerance_curve(w5, D4_RHO, default_grid())  # 121 angles, 4 batches
    assert len(curve.thetas) == 121
    assert expanded == [w5.expr]


def test_crossover_rejects_qubit_count_mismatch():
    w3 = load_paper_witness("W3", 1)
    w5 = load_paper_witness("D4", 5)
    for w_a, w_b in ((w3, w5), (w5, w3)):
        with pytest.raises(ValueError, match="dimension mismatch between expression and state"):
            crossover(w_a, w_b, D4_RHO)


def test_tolerance_curve_matches_per_point_p_noise():
    grid = default_grid(step=0.05)
    for w in load_catalog():
        rho = states.density(states.make_state(w.target_state))
        for mode in robustness.MODES:
            curve = tolerance_curve(w, rho, grid, mode)
            per_point = tuple(
                p_noise(misalign_expr(w.expr, t, mode), rho) for t in grid
            )
            # the curve contracts in another order than the expanded sum: same
            # absent points, values equal to rounding
            assert [p is None for p in curve.tolerances] == [p is None for p in per_point]
            for got, want in zip(curve.tolerances, per_point):
                if want is not None:
                    assert abs(got - want) <= 1e-13, (w.label, mode)


def _tilted_letter(letter, theta, mode):
    """One-qubit matrix of a misaligned letter, written out from the rules."""
    c, s = math.cos(theta), math.sin(theta)
    nxt = {"X": "Y", "Y": "Z", "Z": "X"}
    if letter == "I" or (mode == "y_only" and letter != "Y"):
        return PAULI_1Q[letter]
    return c * PAULI_1Q[letter] + s * PAULI_1Q[nxt[letter]]


def _tilted_operator(expr, theta, mode):
    """Dense matrix of expr with each letter replaced by its tilted matrix."""
    d = 2**expr.n
    tilted = np.zeros((d, d), dtype=complex)
    for word, coeff in expr.terms.items():
        factor = np.eye(1)
        for letter in word:
            factor = np.kron(factor, _tilted_letter(letter, theta, mode))
        tilted += coeff * factor
    return tilted


def test_tolerance_curve_matches_dense_tilted_witness():
    grid = default_grid(step=0.05)
    for w in load_catalog():
        rho = states.density(states.make_state(w.target_state))
        d = 2**w.expr.n
        for mode in robustness.MODES:
            curve = tolerance_curve(w, rho, grid, mode)
            for theta, got in zip(grid, curve.tolerances):
                tilted = _tilted_operator(w.expr, theta, mode)
                t = np.trace(tilted @ rho).real
                m = np.trace(tilted).real / d
                if t >= 0:
                    assert got is None, (w.label, mode, theta)
                else:
                    assert abs(got - t / (t - m)) <= 1e-12, (w.label, mode, theta)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.0, math.pi / 2),
    mode=st.sampled_from(robustness.MODES),
)
def test_misalign_expr_matches_tilted_kronecker_product(n, seed, theta, mode):
    rng = np.random.default_rng(seed)
    words = pauli.all_words(n)
    picks = rng.choice(4**n, size=rng.integers(1, 4**n + 1), replace=False)
    expr = ObservableExpr(n, {words[i]: rng.standard_normal() for i in picks})
    out = misalign_expr(expr, theta, mode)
    assert out.identity_coeff == expr.identity_coeff
    assert np.max(np.abs(out.matrix() - _tilted_operator(expr, theta, mode))) <= 1e-12
