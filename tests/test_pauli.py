import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edlkit import pauli, sdp
from edlkit.witness import ObservableExpr


X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pauli_matrix_single_letters():
    assert np.array_equal(pauli.pauli_matrix("I"), np.eye(2))
    assert np.array_equal(pauli.pauli_matrix("X"), X)
    assert np.array_equal(pauli.pauli_matrix("Y"), Y)
    assert np.array_equal(pauli.pauli_matrix("Z"), Z)


def test_pauli_matrix_tensor_order():
    # qubit 1 is the leftmost letter / most significant factor
    assert np.array_equal(pauli.pauli_matrix("XZ"), np.kron(X, Z))
    assert np.array_equal(pauli.pauli_matrix("ZX"), np.kron(Z, X))


def test_check_word_rejects_bad_input():
    with pytest.raises(ValueError):
        pauli.check_word("XA")
    with pytest.raises(ValueError):
        pauli.check_word("")
    assert pauli.check_word("IXYZ") == "IXYZ"


def test_all_words_and_index_agree():
    words = pauli.all_words(2)
    assert len(words) == 16
    assert words[0] == "II"
    for k, w in enumerate(words):
        assert pauli.word_index(w) == k


def test_word_support():
    assert pauli.word_support("IXZI") == frozenset({2, 3})
    assert pauli.word_support("III") == frozenset()


def test_coords_roundtrip():
    # both transforms against the dense reference basis, on complex Hermitian input
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 5):
        d = 2**n
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (a + a.conj().T) / 2
        basis = pauli.pauli_basis(n)
        x = pauli.to_pauli_coords(h)
        assert x.shape == (4**n,) and x.dtype == float
        want = np.einsum("pba,ab->p", basis, h).real / d
        assert np.max(np.abs(x - want)) <= 1e-15 * np.linalg.norm(h)
        back = pauli.from_pauli_coords(x)
        assert back.shape == (d, d)
        assert np.max(np.abs(back - np.einsum("p,pab->ab", x, basis))) <= 1e-15 * np.linalg.norm(x)
        assert np.max(np.abs(back - h)) < 1e-12


def test_transforms_build_no_dense_basis():
    psi = np.zeros(32)
    psi[[1, 2, 4, 8, 16]] = 1 / np.sqrt(5)  # the five-qubit W state
    rho = np.outer(psi, psi).astype(complex)
    for cached in vars(pauli).values():  # cold caches: nothing built earlier can hide a build
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    info = pauli.pauli_basis.cache_info()
    before = info.hits + info.misses
    x = pauli.to_pauli_coords(rho)
    pauli.from_pauli_coords(x)
    ObservableExpr.from_coords(5, x).matrix()
    sdp.build_problem(rho, sdp.all_k_family(5, 2))
    info = pauli.pauli_basis.cache_info()
    assert info.hits + info.misses == before


def test_coords_of_named_word():
    # coordinates are Tr(P_w M)/2^n, so a bare Pauli word has a single unit entry
    m = pauli.pauli_matrix("XY")
    x = pauli.to_pauli_coords(m)
    idx = pauli.word_index("XY")
    expected = np.zeros(16)
    expected[idx] = 1.0
    assert np.max(np.abs(x - expected)) < 1e-12


def test_bipartitions_counts():
    assert len(pauli.bipartitions(2)) == 1
    assert len(pauli.bipartitions(3)) == 3
    assert len(pauli.bipartitions(4)) == 7
    # each bipartition is identified by the side containing qubit 1
    for part in pauli.bipartitions(4):
        assert 1 in part
        assert part != frozenset({1, 2, 3, 4})


def test_partial_transpose_two_qubits():
    rho = np.arange(16, dtype=complex).reshape(4, 4)
    rho_pt = pauli.partial_transpose(rho, [1])
    expected = np.array(
        [[0, 1, 8, 9],
         [4, 5, 12, 13],
         [2, 3, 10, 11],
         [6, 7, 14, 15]], dtype=complex)
    assert np.array_equal(rho_pt, expected)


def test_partial_transpose_properties():
    rng = np.random.default_rng(11)
    n = 3
    d = 2**n
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    # transposing every qubit is the full transpose
    assert np.max(np.abs(pauli.partial_transpose(m, [1, 2, 3]) - m.T)) < 1e-14
    # applying the same partial transpose twice is the identity
    twice = pauli.partial_transpose(pauli.partial_transpose(m, [2]), [2])
    assert np.max(np.abs(twice - m)) < 1e-14
    # complementary subsets differ by a full transpose
    a = pauli.partial_transpose(m, [1])
    b = pauli.partial_transpose(m, [2, 3])
    assert np.max(np.abs(a - b.T)) < 1e-14


def test_pt_signs_match_matrix_transpose():
    rng = np.random.default_rng(3)
    n = 3
    d = 2**n
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2
    for part in pauli.bipartitions(n):
        x = pauli.to_pauli_coords(h)
        direct = pauli.partial_transpose(h, sorted(part))
        via_signs = pauli.from_pauli_coords(pauli.pt_signs(n, part) * x)
        assert np.max(np.abs(direct - via_signs)) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    rho = np.outer(np.kron(a, b), np.kron(a, b).conj())
    reduced = pauli.partial_trace(rho, keep=[1])
    assert np.max(np.abs(reduced - np.outer(a, a.conj()))) < 1e-12
    # tracing keeps the trace
    assert abs(np.trace(pauli.partial_trace(rho, keep=[2, 3])) - 1) < 1e-12


def test_partial_trace_keep_order_is_sorted():
    rho = np.eye(8, dtype=complex) / 8
    assert pauli.partial_trace(rho, keep=[3, 1]).shape == (4, 4)


def test_min_eigenvalue():
    m = np.diag([3.0, -2.0, 0.5])
    assert pauli.min_eigenvalue(m) == pytest.approx(-2.0, abs=1e-12)


def test_hermitian_eigen_reconstructs():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (a + a.conj().T) / 2
    vals, vecs = pauli.hermitian_eigen(h)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(recon - h)) < 1e-10


def test_kron_all_empty_and_single():
    assert np.array_equal(pauli.kron_all([]), np.eye(1))
    assert np.array_equal(pauli.kron_all([X]), X)


def _random_maps(rng, n, rectangular, batch):
    """n per-qubit maps: 4x4 or 2x4, some of them batched over `batch` rows."""
    maps = []
    for _ in range(n):
        shape = (2, 4) if rectangular and rng.random() < 0.5 else (4, 4)
        if batch and rng.random() < 0.5:
            shape = (batch,) + shape
        maps.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return maps


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    rectangular=st.booleans(),
    batch=st.sampled_from([0, 1, 3]),
    broadcast=st.booleans(),
)
def test_local_map_equals_kronecker_product(seed, n, rectangular, batch, broadcast):
    rng = np.random.default_rng(seed)
    maps = _random_maps(rng, n, rectangular, batch)
    rows = batch or 2
    x = rng.standard_normal(4**n) if broadcast else rng.standard_normal((rows, 4**n))
    got = pauli.local_map(x, maps)
    for k in range(rows if batch or not broadcast else 1):
        full = pauli.kron_all(m[k] if m.ndim == 3 else m for m in maps)
        want = full @ (x if broadcast else x[k])
        row = got if got.ndim == 1 else got[k]
        assert np.max(np.abs(row - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_local_map_rejects_mismatched_length():
    with pytest.raises(ValueError):
        pauli.local_map(np.ones(8), [np.eye(4), np.eye(4)])
