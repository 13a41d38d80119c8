"""The barrier kernel in the real entry basis, checked against dense Pauli-basis
formulas: gradient Tr(M^-1 P_p), curvature Tr(M^-1 P_p M^-1 P_q), and the
partial transpose as a signed permutation of coordinates; the real
symmetric basis as the leading diag/Re part of the Hermitian one; and the
basis restricted to a span of ket XORs as the full basis at the kept
entries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edlkit import pauli, sdp, states
from test_sdp import _reductions

SEEDS = st.integers(0, 2**32 - 1)


def _random_pd(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a @ a.conj().T / d + 0.1 * np.eye(d)


def _random_real_pd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T / d + 0.1 * np.eye(d)


def _random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a + a.conj().T


def _pauli_to_entry(n):
    """(d^2, 4^n) matrix whose column p holds the entry coordinates of P_p."""
    basis = sdp._entry_basis(n)
    return basis.coords(pauli.pauli_basis(n)).T


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@settings(max_examples=12, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 4))
def test_gradient_and_curvature_match_pauli_formulas(seed, n):
    rng = np.random.default_rng(seed)
    d = 2**n
    m = _random_pd(rng, d)
    basis = sdp._entry_basis(n)
    chol = sdp._cholesky(basis, basis.coords(m))
    inv, logdet = sdp._inverse(chol), sdp._chol_logdet(chol)
    grad = basis.coords(inv)
    (hess,) = sdp._curvature(basis, ((inv, basis.pairs),))
    assert logdet == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-12)

    paulis = pauli.pauli_basis(n)
    minv = np.linalg.inv(m)
    grad_ref = np.real(np.einsum("ab,pba->p", minv, paulis))
    t = minv[None] @ paulis  # M^-1 P_p
    hess_ref = np.real(np.einsum("pab,qba->pq", t, t))

    change = _pauli_to_entry(n)  # Pauli coordinates -> entry coordinates
    assert _rel_err(change.T @ grad, grad_ref) < 1e-12
    assert _rel_err(change.T @ hess @ change, hess_ref) < 1e-12


def test_pauli_change_of_basis_is_orthogonal_up_to_scale():
    for n in (1, 2, 3):
        change = _pauli_to_entry(n)
        assert np.allclose(change.T @ change, 2**n * np.eye(4**n), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 4))
def test_entry_coordinates_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    basis = sdp._entry_basis(n)
    h = _random_hermitian(rng, 2**n)
    assert _rel_err(basis.matrix(basis.coords(h)), h) < 1e-15  # sqrt(2) scaling rounds
    x = rng.standard_normal(4**n)
    assert _rel_err(basis.coords(basis.matrix(x)), x) < 1e-15
    # orthonormal: the Frobenius inner product is the coordinate dot product
    g = _random_hermitian(rng, 2**n)
    assert basis.coords(h) @ basis.coords(g) == pytest.approx(np.real(np.trace(h @ g)))


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 4))
def test_partial_transpose_is_a_signed_permutation(seed, n):
    rng = np.random.default_rng(seed)
    basis = sdp._entry_basis(n)
    x = basis.coords(_random_hermitian(rng, 2**n))
    for part in pauli.bipartitions(n):
        pt = sdp._partial_transpose(n, part)
        assert sorted(pt.perm) == list(range(4**n))
        assert set(np.unique(pt.sign)) <= {-1.0, 1.0}
        expect = basis.coords(pauli.partial_transpose(basis.matrix(x), sorted(part)))
        assert np.array_equal(pt(x), expect)
        assert np.array_equal(pt(pt(x)), x)  # an involution


def test_transposed_block_curvature_is_conjugated_by_the_signed_permutation():
    rng = np.random.default_rng(3)
    n = 3
    basis = sdp._entry_basis(n)
    inv = np.linalg.inv(_random_pd(rng, 2**n))
    (k,) = sdp._curvature(basis, ((inv, basis.pairs),))
    for part in pauli.bipartitions(n):
        pt = sdp._partial_transpose(n, part)
        t_mat = pt(np.eye(4**n))  # T_A as a matrix; symmetric, as T_A is an involution
        assert np.array_equal(t_mat, t_mat.T)
        k_p, k_q = sdp._curvature(basis, ((inv, basis.pairs), (inv, pt.pairs)))
        assert np.array_equal(k_p, k)  # each block's curvature on its own
        assert _rel_err(k_q, t_mat @ k @ t_mat) < 1e-13


def test_monomial_form_matches_dense_paulis():
    for n in (1, 2, 3):
        cols, phases = pauli.monomial_form(n)
        d = 2**n
        for p, word in enumerate(pauli.all_words(n)):
            mat = np.zeros((d, d), dtype=complex)
            mat[np.arange(d), cols[p]] = phases[p]
            assert np.array_equal(mat, pauli.pauli_matrix(word)), word


def test_d4_all_pairs_solve_is_deterministic():
    d4 = states.density(states.make_state("D4"))
    c4 = states.density(states.make_state("C4"))
    # all pairs keep every qubit permutation; 12, 23, 234 has the free words
    # of 12, 234 and keeps the swap of 3 and 4. D4 is fixed by every
    # permutation and no family of two to four subsets gives it a trivial
    # group; the cluster on 12, 23 has one.
    cases = (
        (d4, sdp.all_k_family(4, 2), 24),
        (d4, (frozenset({1, 2}), frozenset({2, 3}), frozenset({2, 3, 4})), 2),
        (c4, (frozenset({1, 2}), frozenset({2, 3})), 1),
    )
    for rho, family, order in cases:
        assert len(_reductions(rho, family)[2]) == order
        a = sdp.synthesize(rho, family)
        b = sdp.synthesize(rho, family)
        assert repr(a.alpha) == repr(b.alpha)
        assert a.solution.iterations == b.solution.iterations
        assert a.solution.witness_expr.terms == b.solution.witness_expr.terms
        for part, (p_a, q_a) in a.solution.certificates.items():
            p_b, q_b = b.solution.certificates[part]
            assert np.array_equal(p_a, p_b) and np.array_equal(q_a, q_b)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 4))
def test_real_entry_coordinates_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    d = 2**n
    real, full = sdp._entry_basis(n, True), sdp._entry_basis(n)
    assert real.size == d * (d + 1) // 2
    a = rng.standard_normal((d, d))
    s = a + a.T
    x = real.coords(s)
    assert x.shape == (real.size,)
    assert np.array_equal(x, full.coords(s)[: real.size])  # the leading diag/Re coordinates
    back = real.matrix(x)
    assert back.dtype == np.float64
    assert _rel_err(back, s) < 1e-15
    y = rng.standard_normal(real.size)
    assert _rel_err(real.coords(real.matrix(y)), y) < 1e-15


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 4))
def test_real_partial_transpose_is_a_permutation(seed, n):
    rng = np.random.default_rng(seed)
    basis = sdp._entry_basis(n, True)
    a = rng.standard_normal((2**n, 2**n))
    x = basis.coords(a + a.T)
    for part in pauli.bipartitions(n):
        pt = sdp._partial_transpose(n, part, True)
        assert sorted(pt.perm) == list(range(basis.size))
        assert np.all(pt.sign == 1.0)
        expect = basis.coords(pauli.partial_transpose(basis.matrix(x), sorted(part)))
        assert np.array_equal(pt(x), expect)
        assert np.array_equal(pt(pt(x)), x)


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 4))
def test_real_curvature_is_the_leading_block_of_the_full_one(seed, n):
    rng = np.random.default_rng(seed)
    d = 2**n
    real, full = sdp._entry_basis(n, True), sdp._entry_basis(n)
    inv_p = np.linalg.inv(_random_real_pd(rng, d))
    inv_q = np.linalg.inv(_random_real_pd(rng, d))
    for part in pauli.bipartitions(n) if n > 1 else (frozenset({1}),):
        pairs = sdp._partial_transpose(n, part).pairs
        assert np.array_equal(pairs, sdp._partial_transpose(n, part, True).pairs)
        blocks = ((inv_p, full.pairs), (inv_q, pairs))
        lead, rest = slice(0, real.size), slice(real.size, None)
        for k_full, k_real in zip(sdp._curvature(full, blocks), sdp._curvature(real, blocks)):
            assert k_real.shape == (real.size, real.size)
            assert _rel_err(k_real, k_full[lead, lead]) < 1e-13
            # At a real N the Im coordinates decouple from the diag/Re ones: the
            # Newton step of a real iterate has no Im part, so it is the real step.
            assert np.max(np.abs(k_full[lead, rest]), initial=0.0) == 0.0
            assert np.max(np.abs(k_full[rest, lead]), initial=0.0) == 0.0


@st.composite
def _spans(draw):
    """(n, span) with the span of 1-3 random nonzero ket XOR masks."""
    n = draw(st.integers(2, 4))
    generators = draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=3))
    return n, sdp._xor_span(generators)


def _on_span(mat, span):
    """The matrix with every entry whose ket XOR lies outside the span zeroed."""
    rows, cols = np.indices(mat.shape)
    return np.where(np.isin(rows ^ cols, list(span)), mat, 0)


def _kept_positions(full, sub):
    """Indices into the full basis' coordinates of the restricted basis' ones."""
    slot = np.empty(full.d * full.d, dtype=np.intp)
    slot[full.upper] = np.arange(full.m)
    up = slot[sub.upper]
    parts = [np.arange(full.d), full.d + up]
    if not sub.real:
        parts.append(full.d + full.m + up)
    return np.concatenate(parts)


@settings(max_examples=25, deadline=None)
@given(case=_spans(), real=st.booleans(), seed=SEEDS)
def test_span_basis_is_the_full_basis_at_the_kept_entries(case, real, seed):
    n, span = case
    rng = np.random.default_rng(seed)
    d = 2**n
    sub, full = sdp._entry_basis(n, real, span), sdp._entry_basis(n, real)
    kept = _kept_positions(full, sub)
    nonzero = sum(1 for x in span if x)
    assert sub.m == nonzero * d // 2  # each nonzero mask pairs up the d kets
    assert sub.size == (d + sub.m if real else d + 2 * sub.m)
    h = _on_span(rng.standard_normal((d, d)) if real else _random_hermitian(rng, d), span)
    h = h + h.T if real else h
    x = sub.coords(h)
    assert x.shape == (sub.size,)
    assert np.array_equal(x, full.coords(h)[kept])
    assert _rel_err(sub.matrix(x), h) < 1e-15
    y = rng.standard_normal(sub.size)
    assert _rel_err(sub.coords(sub.matrix(y)), y) < 1e-15
    for part in pauli.bipartitions(n):
        pt, pt_full = sdp._partial_transpose(n, part, real, span), sdp._partial_transpose(n, part, real)
        assert sorted(pt.perm) == list(range(sub.size))  # onto the kept coordinates
        assert np.array_equal(pt(x), pt_full(full.coords(h))[kept])


@settings(max_examples=15, deadline=None)
@given(case=_spans(), real=st.booleans(), seed=SEEDS)
def test_span_curvature_is_the_principal_submatrix_of_the_full_one(case, real, seed):
    n, span = case
    rng = np.random.default_rng(seed)
    d = 2**n
    sub, full = sdp._entry_basis(n, real, span), sdp._entry_basis(n, real)
    kept = _kept_positions(full, sub)
    draw = _random_real_pd if real else _random_pd
    inv_p = np.linalg.inv(_on_span(draw(rng, d), span))
    inv_q = np.linalg.inv(_on_span(draw(rng, d), span))
    for part in pauli.bipartitions(n):
        pt, pt_full = sdp._partial_transpose(n, part, real, span), sdp._partial_transpose(n, part, real)
        k_sub = sdp._curvature(sub, ((inv_p, sub.pairs), (inv_q, pt.pairs)))
        k_full = sdp._curvature(full, ((inv_p, full.pairs), (inv_q, pt_full.pairs)))
        assert k_sub.shape == (2, sub.size, sub.size)
        for h_sub, h_full in zip(k_sub, k_full):
            assert _rel_err(h_sub, h_full[np.ix_(kept, kept)]) < 1e-13


def _coupling_cases():
    span = sdp._xor_span([0b0011, 0b1100])
    for real, kind in ((True, "real"), (False, "hermitian")):
        for part in pauli.bipartitions(3):
            label = "".join(map(str, sorted(part)))
            yield pytest.param(3, real, None, part, id=f"3-{kind}-{label}")
        yield pytest.param(4, real, span, frozenset({1, 3}), id=f"4-{kind}-span-13")


@pytest.mark.parametrize("n, real, span, part", list(_coupling_cases()))
def test_coupling_and_gradient_read_off_the_q_block_curvature(n, real, span, part):
    # The engine's coupling is H_Q @ sums.T with H_Q = T_A K_Q T_A, and its
    # gradient of logdet Q is sums @ T_A(coords N_Q). Both equal the
    # phased-permutation forms they replace: T_A(coords(N_Q T_A(S_o) N_Q)),
    # with T_A(S_o) the orbit sum of the words' signed copies, and the orbit
    # sums of s_f <P_f, N_Q>.
    rng = np.random.default_rng(7)
    d = 2**n
    basis = sdp._entry_basis(n, real, span)
    pt = sdp._partial_transpose(n, part, real, span)
    cols, phases = pauli.monomial_form(n)
    kept = np.isin(cols[:, 0], list(span) if span is not None else np.arange(d))
    if real:
        kept &= pauli.pt_signs(n, frozenset(range(1, n + 1))) > 0  # no odd-Y words
    words = np.flatnonzero(kept)[1:]  # the identity is not a direction
    cols, phases = cols[words], (phases.real if real else phases)[words]
    starts = np.arange(0, words.size, 3)  # any grouping of the words into orbits
    prog = sdp._Program(
        basis, [pt], np.ones(1), cols, phases, starts, basis.identity, np.zeros(words.size), 1.0
    )
    draw = _random_real_pd if real else _random_pd
    n_q = draw(rng, d) if span is None else _on_span(draw(rng, d), span)
    (h_q,) = sdp._curvature(basis, ((n_q, pt.pairs),))

    signs = pauli.pt_signs(n, part)[words]
    moved = np.add.reduceat((signs[:, None] * phases)[..., None] * n_q[cols], starts, axis=0)
    assert _rel_err(h_q @ prog.sums.T, pt(basis.coords(n_q @ moved)).T) < 1e-13

    word_mats = np.zeros((words.size, d, d), dtype=phases.dtype)
    np.put_along_axis(word_mats, cols[:, :, None], phases[:, :, None], axis=2)
    g_q = basis.coords(n_q)
    old = np.add.reduceat(signs * (basis.coords(word_mats) @ g_q), starts)
    assert _rel_err(prog.sums @ pt(g_q), old) < 1e-13
