"""Solver checks kept to 3-qubit programs where possible; the 4-qubit
regressions against every published table row live in test_acceptance."""

from itertools import permutations

import numpy as np
import pytest

from edlkit import pauli, states
from edlkit import sdp as sdp_module
from edlkit.sdp import (
    SolverError,
    SolverTolerances,
    all_k_family,
    build_problem,
    decomposition_margins,
    edl_scan,
    edl_search,
    synthesize,
    verify_witness,
)
from edlkit.witness import ObservableExpr, evaluate, load_paper_witness, projector_witness

W3_RHO = states.density(states.make_state("W3"))
PAIRS_12_23 = [frozenset({1, 2}), frozenset({2, 3})]
ALL_PAIRS_3 = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]


def test_build_problem_support_restriction():
    prob = build_problem(W3_RHO, PAIRS_12_23)
    assert prob.n == 3
    assert prob.dim == 8
    assert prob.identity_coeff == pytest.approx(1 / 8)
    assert len(prob.bipartitions) == 3
    words = set(prob.free_words)
    assert "XXI" in words and "IZZ" in words and "IZI" in words
    assert "XIX" not in words  # support {1,3} is not inside any subset
    assert "III" not in words  # identity coordinate is fixed, not free
    # target vector entries are Tr(P_w rho)
    for w, t in zip(prob.free_words, prob.target_vector):
        expect = np.real(np.trace(pauli.pauli_matrix(w) @ W3_RHO))
        assert t == pytest.approx(expect, abs=1e-12)


def test_build_problem_input_validation():
    with pytest.raises(ValueError):
        build_problem(W3_RHO, [])
    with pytest.raises(ValueError):
        build_problem(W3_RHO, [frozenset({1, 4})])
    with pytest.raises(ValueError):
        build_problem(np.eye(6) / 6, [frozenset({1})])


def test_synthesize_w3_pair_family():
    result = synthesize(W3_RHO, PAIRS_12_23)
    assert result.alpha == pytest.approx(-0.0285, abs=1e-3)
    assert result.detected
    assert result.p_noise == pytest.approx(0.1859, abs=2e-3)
    sol = result.solution
    assert sol.duality_gap <= SolverTolerances().gap
    # the returned expression achieves the reported objective on rho
    assert evaluate(sol.witness_expr, W3_RHO) == pytest.approx(result.alpha, abs=1e-9)
    assert sol.witness_expr.trace() == pytest.approx(1.0, abs=1e-9)


def test_synthesize_w3_all_pairs():
    result = synthesize(W3_RHO, ALL_PAIRS_3)
    assert result.alpha == pytest.approx(-0.0546, abs=1e-3)
    assert result.p_noise == pytest.approx(0.3039, abs=2e-3)


def test_synthesize_singles_cannot_detect():
    result = synthesize(W3_RHO, [frozenset({q}) for q in (1, 2, 3)])
    assert not result.detected
    assert result.p_noise is None
    assert result.alpha == pytest.approx(1 / 12, abs=1e-6)


def test_synthesize_is_deterministic():
    a = synthesize(W3_RHO, PAIRS_12_23)
    b = synthesize(W3_RHO, PAIRS_12_23)
    assert repr(a.alpha) == repr(b.alpha)
    assert a.solution.iterations == b.solution.iterations
    wa, wb = a.solution.witness_expr, b.solution.witness_expr
    assert wa.terms == wb.terms


def _stage_ends(monkeypatch):
    """Every stage end (t, event, y, r, steps) the barrier path yields."""
    ends = []
    path = sdp_module._barrier_path

    def spy(*args):
        for stage in path(*args):
            ends.append(stage)
            yield stage

    monkeypatch.setattr(sdp_module, "_barrier_path", spy)
    return ends


def _same_stage_ends(first, second):
    assert len(first) == len(second)
    for (t_a, ev_a, y_a, r_a, n_a), (t_b, ev_b, y_b, r_b, n_b) in zip(first, second):
        assert (t_a, ev_a, n_a) == (t_b, ev_b, n_b)
        assert np.array_equal(y_a, y_b) and np.array_equal(r_a, r_b)


def test_barrier_path_iterates_are_deterministic(monkeypatch):
    # identical inputs give identical iterates at every stage end, in a
    # synthesis and in a margin program
    ends = _stage_ends(monkeypatch)
    runs = []
    for _ in range(2):
        synthesize(W3_RHO, ALL_PAIRS_3)
        decomposition_margins(load_paper_witness("D4", 5).expr)
        runs.append(list(ends))
        ends.clear()
    assert len(runs[0]) > 4
    _same_stage_ends(*runs)


def test_synthesize_certificates_reconstruct_witness():
    result = synthesize(W3_RHO, PAIRS_12_23)
    w_mat = result.solution.witness_expr.matrix()
    assert set(result.solution.certificates) == set(pauli.bipartitions(3))
    for part, (p_mat, q_mat) in result.solution.certificates.items():
        assert pauli.min_eigenvalue(p_mat) >= -1e-8
        assert pauli.min_eigenvalue(q_mat) >= -1e-8
        recon = p_mat + pauli.partial_transpose(q_mat, sorted(part))
        assert np.max(np.abs(recon - w_mat)) < 1e-7


def test_synthesize_iteration_cap():
    with pytest.raises(SolverError) as exc:
        synthesize(W3_RHO, PAIRS_12_23, SolverTolerances(max_iter=2))
    assert exc.value.last_gap is None or exc.value.last_gap > 0


def test_synthesis_result_witness_metadata():
    result = synthesize(W3_RHO, ALL_PAIRS_3)
    w = result.witness(ALL_PAIRS_3, label="w3 pairs", target_state="W3")
    assert w.label == "w3 pairs"
    assert w.target_state == "W3"
    assert w.alpha == result.alpha
    assert w.p_noise == result.p_noise
    assert set(w.family) == set(ALL_PAIRS_3)


def test_verify_witness_accepts_fresh_optimum():
    result = synthesize(W3_RHO, PAIRS_12_23)
    certs = verify_witness(result.solution.witness_expr)
    assert certs is not None
    w_mat = result.solution.witness_expr.matrix()
    for part, (p_mat, q_mat) in certs.items():
        assert pauli.min_eigenvalue(p_mat) >= -1e-8
        assert pauli.min_eigenvalue(q_mat) >= -1e-8
        recon = p_mat + pauli.partial_transpose(q_mat, sorted(part))
        assert np.max(np.abs(recon - w_mat)) < 1e-7


def test_verify_witness_rejects_rounded_table_coefficients():
    # the 4-decimal published coefficients sit just outside the PPT-mixer
    # cone; the margin bound certifies that no decomposition exists
    w = load_paper_witness("W3", 1)
    assert verify_witness(w.expr) is None
    margins = decomposition_margins(w.expr)
    best = min(m for m, _ in margins.values())
    assert -1e-5 < best < -1e-6


def test_verify_witness_needs_positive_trace():
    from edlkit.witness import ObservableExpr

    with pytest.raises(ValueError):
        verify_witness(ObservableExpr(2, {"XX": 1.0}))


def test_decomposition_margins_projector():
    w = projector_witness(states.make_state("W3"))
    margins = decomposition_margins(w.expr)
    assert set(margins) == set(pauli.bipartitions(3))
    for best, bound in margins.values():
        assert best >= -1e-8
        assert bound >= best - 1e-6


def test_all_k_family():
    assert set(all_k_family(3, 1)) == {frozenset({1}), frozenset({2}), frozenset({3})}
    assert len(all_k_family(4, 2)) == 6
    assert len(all_k_family(4, 3)) == 4
    with pytest.raises(ValueError):
        all_k_family(3, 4)
    with pytest.raises(ValueError):
        all_k_family(3, 0)


def test_edl_search_w3():
    assert edl_search(W3_RHO) == 2


def test_edl_search_product_state_finds_nothing():
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    rho = states.density(psi)
    assert edl_search(rho) == 4  # n + 1 signals "not detected at any size"


def test_edl_scan_levels():
    scan = edl_scan(W3_RHO)
    assert sorted(scan) == [1, 2, 3]
    assert not scan[1].detected
    assert scan[2].detected
    assert scan[2].alpha == pytest.approx(-0.0546, abs=1e-3)
    # the full-subset solve reaches the projector-witness optimum
    assert scan[3].alpha == pytest.approx(evaluate_projector_alpha(), abs=1e-3)


def evaluate_projector_alpha():
    # optimum over unrestricted 3-qubit witnesses with trace 1: best possible
    # alpha for W3 under the PPT-mixer relaxation (frozen from a converged run)
    return -0.13597077020796233


def _count_factorizations(monkeypatch):
    calls = []
    cholesky = sdp_module._cholesky
    # one entry per matrix factored: _cholesky takes a stack of coordinate vectors
    def spy(basis, x):
        calls.extend(x.reshape(-1, x.shape[-1]))
        return cholesky(basis, x)

    monkeypatch.setattr(sdp_module, "_cholesky", spy)
    return calls


def test_margin_iteration_cap_stops_before_any_newton_step(monkeypatch):
    # max_iter=0 allows no step: each solver factors its start point, finds it
    # uncentered and raises before the line search factors any candidate
    calls = _count_factorizations(monkeypatch)
    expr = load_paper_witness("D4", 5).expr  # rounded: needs the Newton loop
    with pytest.raises(SolverError):
        decomposition_margins(expr, SolverTolerances(max_iter=0))
    assert len(calls) == 2  # P and Q of the first cut's start
    calls.clear()
    with pytest.raises(SolverError):
        synthesize(W3_RHO, PAIRS_12_23, SolverTolerances(max_iter=0))
    assert len(calls) == 4  # P and Q of the start of each of the two cut orbits


def test_iteration_cap_counts_steps_taken():
    # the W3 pair chain converges in exactly 28 Newton steps
    assert synthesize(W3_RHO, PAIRS_12_23, SolverTolerances(max_iter=28)).solution.iterations == 28
    with pytest.raises(SolverError, match="no convergence after 27 Newton iterations"):
        synthesize(W3_RHO, PAIRS_12_23, SolverTolerances(max_iter=27))


@pytest.mark.parametrize("solve", [decomposition_margins, verify_witness])
def test_margin_solvers_share_the_iteration_cap_message(solve):
    expr = load_paper_witness("D4", 5).expr  # rounded: needs the Newton loop
    with pytest.raises(SolverError, match="no convergence after 0 Newton iterations"):
        solve(expr, SolverTolerances(max_iter=0))


@pytest.mark.parametrize(
    "state, family, steps",
    [
        ("W3", PAIRS_12_23, 28),
        ("W3", ALL_PAIRS_3, 27),
        ("W4", all_k_family(4, 2), 29),
        ("D4", all_k_family(4, 2), 31),
    ],
)
def test_barrier_path_step_counts(state, family, steps):
    # pins the stage schedule, the centering tolerances and the line search:
    # the same counts with one and with two BLAS threads
    rho = states.density(states.make_state(state))
    assert synthesize(rho, family).solution.iterations == steps


@pytest.mark.parametrize(
    "label, systems", [("W3-1", 54), ("W4-1", 123), ("D4-5", 74), ("C4-2", 39)]
)
def test_margin_newton_system_counts(monkeypatch, label, systems):
    # pins the margin program's path: one _curvature call per Newton system
    # and cut block. C4-1 is left out: its cut {1,3,4} has a certified bound
    # of about 1e-9, so roundoff decides how many steps its last stages take.
    calls = []
    curvature = sdp_module._curvature
    monkeypatch.setattr(sdp_module, "_curvature", lambda *a: calls.append(1) or curvature(*a))
    state, index = label.split("-")
    decomposition_margins(load_paper_witness(state, int(index)).expr)
    assert len(calls) == systems


@pytest.mark.parametrize(
    "state, family",
    [("W3", PAIRS_12_23), ("W4", all_k_family(4, 2)), ("D4", all_k_family(4, 2))],
)
def test_one_newton_system_per_point(monkeypatch, state, family):
    # The path visits the start and one point per Newton step, and builds
    # one Newton system at each: one _curvature call per cut block. A stage
    # that begins where the last one closed reuses the system that closed it.
    calls, programs = [], []
    curvature, path = sdp_module._curvature, sdp_module._barrier_path
    monkeypatch.setattr(sdp_module, "_curvature", lambda *a: calls.append(1) or curvature(*a))
    monkeypatch.setattr(
        sdp_module, "_barrier_path", lambda prog, *a: programs.append(prog) or path(prog, *a)
    )
    solution = synthesize(states.density(states.make_state(state)), family).solution
    (prog,) = programs
    assert len(calls) == (solution.iterations + 1) * len(prog.transposes)


def test_margin_stage_with_a_negative_decrement_certifies_no_bound(monkeypatch):
    # With the curvature's sign flipped the squared Newton decrement comes
    # out negative, as roundoff can make it near the boundary. Such a stage
    # has lost its centering, so the margin program may not state the gap
    # bound nu/t of a centered point: every bound must read inf.
    events = []
    curvature, path = sdp_module._curvature, sdp_module._barrier_path

    def spy(*args):
        for stage in path(*args):
            events.append(stage[1])
            yield stage

    monkeypatch.setattr(sdp_module, "_curvature", lambda *a: -curvature(*a))
    monkeypatch.setattr(sdp_module, "_barrier_path", spy)
    margins = decomposition_margins(load_paper_witness("W3", 1).expr)
    assert "singular" in events
    assert all(bound == np.inf for _, bound in margins.values())


def _phased(name, qubit):
    """A reference state with the local phase diag(1, i) on one qubit: complex rho."""
    psi = states.make_state(name)
    n = psi.size.bit_length() - 1
    u = pauli.kron_all(np.diag([1, 1j]) if q == qubit else np.eye(2) for q in range(1, n + 1))
    return states.density(u @ psi)


def _odd_y_words(expr):
    return [w for w in expr.terms if w.count("Y") % 2]


def test_complex_state_solves_in_the_full_hermitian_basis():
    # The real W3 solves in the real symmetric subspace: real certificates
    # and no word with an odd number of Y letters.
    real = synthesize(W3_RHO, ALL_PAIRS_3)
    assert not _odd_y_words(real.solution.witness_expr)
    for p_mat, q_mat in real.solution.certificates.values():
        assert not np.iscomplexobj(p_mat) and not np.iscomplexobj(q_mat)
    # A local unitary preserves alpha, so the phased W3 matches the real one;
    # its optimal witness is the rotated one, which carries imaginary words.
    rho = _phased("W3", 1)
    assert np.any(rho.imag)
    result = synthesize(rho, ALL_PAIRS_3)
    assert result.alpha == pytest.approx(real.alpha, abs=1e-12)
    expr = result.solution.witness_expr
    assert _odd_y_words(expr)
    assert evaluate(expr, rho) == pytest.approx(result.alpha, abs=1e-9)
    w_mat = expr.matrix()
    for part, (p_mat, q_mat) in result.solution.certificates.items():
        assert pauli.min_eigenvalue(p_mat) >= -1e-8
        assert pauli.min_eigenvalue(q_mat) >= -1e-8
        recon = p_mat + pauli.partial_transpose(q_mat, sorted(part))
        assert np.max(np.abs(recon - w_mat)) < 1e-7
    # the margin solver takes the complex witness in the full basis too
    assert verify_witness(expr) is not None


def test_complex_c4_keeps_its_pair_of_triples_optimum():
    rho = _phased("C4", 2)
    result = synthesize(rho, [frozenset({1, 2, 3}), frozenset({1, 3, 4})])
    assert result.alpha == pytest.approx(-1 / 32, abs=1e-6)
    assert _odd_y_words(result.solution.witness_expr)


def _full_span(n):
    return frozenset(range(2**n))


class _Stop(Exception):
    pass


def _reductions(rho, family):
    """The (real, span, group) that synthesize reads and hands to the solver,
    caught at the seam before any solve."""
    seen = []

    def spy(problem, real, span, group, tol):
        seen.append((real, span, group))
        raise _Stop

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdp_module, "_synthesize", spy)
        with pytest.raises(_Stop):
            synthesize(rho, family)
    return seen[0]


def _unreduced(rho, family):
    """The full program: the solver's seam called with the span of all 2^n
    ket XOR masks and the trivial group."""
    n = rho.shape[0].bit_length() - 1
    problem = build_problem(rho, family)
    return sdp_module._synthesize(
        problem, not np.any(rho.imag), _full_span(n), (tuple(range(n)),), SolverTolerances()
    )


def _ghz(n):
    psi = np.zeros(2**n)
    psi[[0, -1]] = 1 / np.sqrt(2)
    return states.density(psi)


def _dicke(n, k):
    psi = np.zeros(2**n)
    psi[[b for b in range(2**n) if b.bit_count() == k]] = 1
    return states.density(psi / np.linalg.norm(psi))


# A planted span for the masked random state: spanned by 0011 and 0110,
# so it holds neither every even-weight mask nor any odd-weight one.
PLANTED = (0b0011, 0b0110)


def _masked_random(seed, n, generators):
    """A seeded random mixed state with every entry whose ket XOR lies
    outside the span of ``generators`` set to zero. The mask is PSD (one
    all-ones block per coset of the span), so by the Schur product theorem
    the masked matrix is a state too."""
    span = sdp_module._xor_span(generators)
    rho = _random_density(seed, n)
    rows, cols = np.indices(rho.shape)
    return np.where(np.isin(rows ^ cols, list(span)), rho, 0)


def _phased_ghz3():
    """GHZ3 with the phase e^{0.3i} on |111><000|: complex rho whose pair
    marginals are real and diagonal."""
    psi = np.zeros(8, dtype=complex)
    psi[[0, -1]] = np.array([1, np.exp(0.3j)]) / np.sqrt(2)
    return states.density(psi)


def _case_rho(state):
    if state == "GHZ3-phased":
        return _phased_ghz3()
    if state.startswith("GHZ"):
        return _ghz(int(state[3:]))
    if state == "masked":
        return _masked_random(5, 4, PLANTED)
    return states.density(states.make_state(state))


def _equivalence_cases():
    # every synth-table solve (the summary rows and the C4 deviation family),
    # every all-k family of the four reference states and of GHZ3 and GHZ4,
    # each once, the masked random state and the phased GHZ3 on the all-pairs
    # family
    from test_acceptance import SUMMARY_ROWS

    cases = [(state, frozenset(family)) for state, family, _, _ in SUMMARY_ROWS]
    cases.append(("C4", frozenset({frozenset({1, 2, 4}), frozenset({1, 3, 4})})))
    for state in ("W3", "W4", "D4", "C4", "GHZ3", "GHZ4"):
        n = 3 if state.endswith("3") else 4
        cases += [(state, frozenset(all_k_family(n, k))) for k in range(1, n + 1)]
    cases.append(("masked", frozenset(all_k_family(4, 2))))
    cases.append(("GHZ3-phased", frozenset(all_k_family(3, 2))))
    return list(dict.fromkeys(cases))


def _case_id(case):
    state, family = case
    return state + "-" + ",".join(sorted("".join(map(str, sorted(s))) for s in family))


def _permuted_word(word, g):
    # the letter on qubit q moves to qubit g[q] (0-based)
    return "".join(word[g.index(j)] for j in range(len(word)))


@pytest.mark.parametrize("case", _equivalence_cases(), ids=_case_id)
def test_symmetry_reduction_matches_the_full_program(case):
    state, family = case
    family = sorted(family, key=sorted)
    rho = _case_rho(state)
    n = rho.shape[0].bit_length() - 1
    reduced = synthesize(rho, family)
    full = _unreduced(rho, family)
    assert abs(reduced.alpha - full.alpha) < 1e-10
    if not (state == "W4" and len(family) == 1):
        # W4 all-4 ends on a final stage decided by roundoff
        assert reduced.solution.iterations == full.solution.iterations
    expr = reduced.solution.witness_expr
    w_mat = expr.matrix()
    assert set(reduced.solution.certificates) == set(pauli.bipartitions(n))
    for part, (p_mat, q_mat) in reduced.solution.certificates.items():
        assert pauli.min_eigenvalue(p_mat) >= -1e-8
        assert pauli.min_eigenvalue(q_mat) >= -1e-8
        recon = p_mat + pauli.partial_transpose(q_mat, sorted(part))
        assert np.max(np.abs(recon - w_mat)) < 1e-7
    group = _reductions(rho, family)[2]
    for word, coeff in expr.terms.items():
        for g in group:
            assert expr.terms.get(_permuted_word(word, g)) == coeff


@pytest.mark.parametrize(
    "state, k, size",
    [
        pytest.param(state, k, size, id=f"{state}-{size}")
        for state, k, size in (("W3", 2, 20), ("W4", 2, 72), ("D4", 2, 72), ("C4", 3, 40), ("C4", 2, 16))
    ],
)
def test_sign_symmetry_basis_sizes(state, k, size):
    # the diagonal plus the upper entries whose ket XOR lies in the span of
    # the masks the all-k targets reach, against 2^n(2^n+1)/2 = 36 (n=3) and
    # 136 (n=4) in the full real basis; the cluster's pair marginals are
    # diagonal, so all pairs keep only the diagonal
    rho = states.density(states.make_state(state))
    n = rho.shape[0].bit_length() - 1
    real, span, _ = _reductions(rho, all_k_family(n, k))
    assert real and sdp_module._entry_basis(n, real, span).size == size


@pytest.mark.parametrize("state", ["W3", "W4", "D4", "C4"])
def test_single_qubit_families_keep_only_the_diagonal(state):
    # one-qubit marginals of these states are diagonal: no X/Y word has a
    # nonzero target, so the span is {0}
    rho = states.density(states.make_state(state))
    n = rho.shape[0].bit_length() - 1
    real, span, group = _reductions(rho, all_k_family(n, 1))
    assert real and span == {0}
    assert sdp_module._entry_basis(n, real, span).size == 2**n
    assert len(group) == (6 if n == 3 else 24)  # the cluster's grows from 8


def test_one_entry_outside_the_span_gives_the_full_basis(monkeypatch):
    # noisy W4 plus one coherence between |0000> and |0001>, whose ket XOR
    # 0001 has odd weight: the span becomes every mask
    rho = 0.9 * states.density(states.make_state("W4")) + 0.1 * np.eye(16) / 16
    rho[0, 1] = rho[1, 0] = 1e-3
    assert np.linalg.eigvalsh(rho)[0] > 0
    assert _reductions(rho, all_k_family(4, 2))[1] == _full_span(4)
    sizes = []
    entry_basis = sdp_module._entry_basis

    def spy(*args):
        basis = entry_basis(*args)
        sizes.append(basis.size)
        return basis

    monkeypatch.setattr(sdp_module, "_entry_basis", spy)
    with pytest.raises(SolverError):  # the basis is built before the budget stops
        synthesize(rho, all_k_family(4, 2), SolverTolerances(max_iter=0))
    assert sizes and set(sizes) == {136}


def test_masked_random_state_has_the_planted_span():
    rho = _case_rho("masked")
    assert np.linalg.eigvalsh(rho)[0] > 0 and np.any(rho.imag)
    real, span, _ = _reductions(rho, all_k_family(4, 2))
    assert not real and span == {0b0000, 0b0011, 0b0110, 0b0101}


def test_phased_ghz3_pairs_solve_in_the_real_basis():
    # the phase sits on a weight-3 coherence that no pair word reaches, so
    # the program is the unphased one: real, diagonal, every permutation
    rho = _phased_ghz3()
    assert np.any(rho.imag)
    real, span, group = _reductions(rho, ALL_PAIRS_3)
    assert real and span == {0} and len(group) == 6
    result = synthesize(rho, ALL_PAIRS_3)
    plain = synthesize(_ghz(3), ALL_PAIRS_3)
    assert repr(result.alpha) == repr(plain.alpha)
    assert result.solution.iterations == plain.solution.iterations
    for p_mat, q_mat in result.solution.certificates.values():
        assert p_mat.dtype == q_mat.dtype == np.float64


def _random_density(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_qubit_symmetries_of_the_input():
    def group(rho, family):
        return _reductions(rho, family)[2]

    d4 = states.density(states.make_state("D4"))
    c4 = states.density(states.make_state("C4"))
    assert len(group(W3_RHO, ALL_PAIRS_3)) == 6
    assert group(W3_RHO, PAIRS_12_23) == ((0, 1, 2), (2, 1, 0))  # the chain's reflection
    assert len(group(d4, [frozenset({1, q}) for q in (2, 3, 4)])) == 6
    # the swap (13)(24) fixes the family 123, 134 and the cluster state
    assert group(c4, [frozenset({1, 2, 3}), frozenset({1, 3, 4})]) == (
        (0, 1, 2, 3),
        (2, 3, 0, 1),
    )
    # the phase diag(1, i) on qubit 1 leaves only the swap of qubits 2 and 3
    assert group(_phased("W3", 1), ALL_PAIRS_3) == ((0, 1, 2), (0, 2, 1))
    assert group(_random_density(11, 3), ALL_PAIRS_3) == ((0, 1, 2),)
    # 12, 23, 234 has the free words of 12, 234, which the swap of 3, 4 fixes
    assert group(d4, [frozenset({1, 2}), frozenset({2, 3}), frozenset({2, 3, 4})]) == (
        (0, 1, 2, 3),
        (0, 1, 3, 2),
    )
    # at n=5 targets equal in exact arithmetic differ in their last bit
    assert len(group(_dicke(5, 1), all_k_family(5, 2))) == 120
    assert len(group(_dicke(5, 2), all_k_family(5, 2))) == 120


def _normalized_projector(state):
    expr = projector_witness(states.make_state(state)).expr
    return (1.0 / expr.trace()) * expr


def test_witness_symmetries_read_the_coefficients():
    def group(expr):
        return sdp_module._symmetries(expr.coords())[2]

    assert len(group(load_paper_witness("W3", 2).expr)) == 6
    d4_5 = group(load_paper_witness("D4", 5).expr)
    assert len(d4_5) == 24
    # its 7 cuts fall into two orbits: one margin program per cut size
    assert len(sdp_module._cut_orbits(4, pauli.bipartitions(4), d4_5)[0]) == 2
    assert len(group(load_paper_witness("W4", 1).expr)) == 2
    assert group(load_paper_witness("C4", 1).expr) == ((0, 1, 2, 3),)
    assert len(group(_normalized_projector("D4"))) == 24
    # W3-2's matrix is rounded asymmetrically: most of the permutations that
    # fix its coefficients do not fix its entries exactly
    w_mat = load_paper_witness("W3", 2).expr.matrix()
    fixing = [g for g in permutations(range(3)) if _fixes(g, w_mat)]
    assert len(fixing) < 6

    # realness and the span are read from the coefficients too: an XY term
    # makes the program complex and puts its X/Y mask 110 in the span
    real, span, _ = sdp_module._symmetries(load_paper_witness("C4", 1).expr.coords())
    assert real and span == {0b0000, 0b0011, 0b1100, 0b1111}
    expr = ObservableExpr(3, {"III": 0.125, "XYI": 0.1, "ZIZ": 0.05})
    assert sdp_module._symmetries(expr.coords()) == (False, {0b000, 0b110}, ((0, 1, 2),))


def _fixes(g, mat):
    kets = sdp_module._ket_permutation(g)
    return np.array_equal(mat[np.ix_(kets, kets)], mat)


def _margin_witnesses():
    from edlkit.witness import load_catalog

    cases = [pytest.param(w.expr, id=w.label) for w in load_catalog()]
    for s in ("W3", "W4", "D4", "C4"):
        cases.append(pytest.param(_normalized_projector(s), id=f"{s}-projector"))
    return cases


@pytest.mark.parametrize("expr", _margin_witnesses())
def test_margin_reduction_matches_the_full_program(expr):
    tol = SolverTolerances()
    n = expr.n
    reduced = sdp_module._margin_splits(expr, *sdp_module._symmetries(expr.coords()), tol)
    real = not np.any(expr.matrix().imag)
    full = sdp_module._margin_splits(expr, real, _full_span(n), (tuple(range(n)),), tol)
    assert set(reduced) == set(full) == set(pauli.bipartitions(n))
    w_mat = expr.matrix()
    for part, (achieved, bound, p_mat, q_mat) in reduced.items():
        full_achieved, full_bound = full[part][:2]
        assert abs(achieved - full_achieved) < 1e-12, sorted(part)
        assert np.isfinite(bound) == np.isfinite(full_bound)
        if np.isfinite(bound):
            assert abs(bound - full_bound) < 1e-12, sorted(part)
        assert achieved <= bound
        recon = p_mat + pauli.partial_transpose(q_mat, sorted(part))
        assert np.max(np.abs(recon - w_mat)) < 1e-7
    # the verdict the full program gives: every cut clears the tolerance
    certs = verify_witness(expr)
    assert (certs is None) == any(a < -sdp_module.FEAS_TOL for a, _, _, _ in full.values())
    for part, (p_mat, q_mat) in (certs or {}).items():
        assert pauli.min_eigenvalue(p_mat) >= -1e-8
        assert pauli.min_eigenvalue(q_mat) >= -1e-8
        recon = p_mat + pauli.partial_transpose(q_mat, sorted(part))
        assert np.max(np.abs(recon - w_mat)) < 1e-7


def test_decomposition_margins_is_deterministic():
    expr = load_paper_witness("W3", 1).expr  # rounded: needs the Newton loop
    assert decomposition_margins(expr) == decomposition_margins(expr)


def test_a_bound_below_the_achieved_margin_reads_inf(monkeypatch):
    # A path that stops at once, at t = 1e15, gives a bound of about the
    # start's lambda, below the margin of the start's own split. Any split's
    # margin is a lower bound on the optimum, so that bound is wrong and no
    # bound is reported.
    def one_stage(prog, y, r, gap, max_iter):
        yield 1e15, "centered", y, r, 0

    monkeypatch.setattr(sdp_module, "_barrier_path", one_stage)
    margins = decomposition_margins(load_paper_witness("W3", 1).expr)
    assert len(margins) == 3
    for achieved, bound in margins.values():
        assert np.isfinite(achieved) and bound == np.inf
