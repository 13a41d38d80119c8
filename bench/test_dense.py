"""The dense reference checker must accept true decompositions and reject false ones.

Run with: python3 -m pytest bench
"""

import itertools

import numpy as np
import pytest

import dense


def _random_psd(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a @ a.conj().T / dim


def _phi_plus():
    phi = np.zeros(4, dtype=complex)
    phi[[0b00, 0b11]] = 1 / np.sqrt(2)
    return np.outer(phi, phi.conj())


def _swap():
    s = np.zeros((4, 4))
    for a, b in itertools.product(range(2), repeat=2):
        s[2 * b + a, 2 * a + b] = 1
    return s


def test_accepts_the_textbook_decomposition():
    # |phi+><phi+| transposed on one qubit is SWAP/2, so W = SWAP/2 splits as P = 0, Q = |phi+><phi+|
    assert dense.certificate_problems(_swap() / 2, np.zeros((4, 4)), _phi_plus(), [1]) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_accepts_random_decompositions(n):
    rng = np.random.default_rng(n)
    for side in dense.bipartitions(n):
        p, q = _random_psd(2**n, rng), _random_psd(2**n, rng)
        w = p + dense.partial_transpose(q, side)
        assert dense.certificate_problems(w, p, q, side) == []


def test_rejects_a_perturbed_certificate():
    rng = np.random.default_rng(7)
    p, q = _random_psd(8, rng), _random_psd(8, rng)
    w = p + dense.partial_transpose(q, [1])
    bump = _random_psd(8, rng)
    assert dense.certificate_problems(w, p + 1e-5 * bump, q, [1])  # no longer sums to W
    shift = (np.linalg.eigvalsh(p)[0] + 1e-6) * np.eye(8)  # P - shift has eigenvalue -1e-6
    assert dense.certificate_problems(w - shift, p - shift, q, [1])


def test_rejects_a_mis_signed_partial_transpose():
    # without the transpose, |phi+><phi+| is not SWAP/2
    assert dense.certificate_problems(_phi_plus(), np.zeros((4, 4)), _phi_plus(), [1])
    rng = np.random.default_rng(3)
    p, q = _random_psd(8, rng), _random_psd(8, rng)
    w = p + dense.partial_transpose(q, [2])  # transposed on the wrong qubit
    assert dense.certificate_problems(w, p, q, [1])


def test_partial_transpose_flips_the_sign_of_each_y_inside_the_subset():
    for word in map("".join, itertools.product("IXYZ", repeat=3)):
        for side in dense.bipartitions(3):
            sign = (-1) ** sum(word[q - 1] == "Y" for q in side)
            m = dense.word_matrix(word)
            assert np.allclose(dense.partial_transpose(m, side), sign * m)


def test_projector_tolerance_is_the_published_constant():
    psi = dense.reference_state("D4")
    w = 2 / 3 * np.eye(16) - dense.density(psi)
    assert dense.noise_tolerance(w, dense.density(psi)) == pytest.approx(16 / 45, abs=1e-12)
    assert dense.noise_tolerance(np.eye(16), dense.density(psi)) is None


def test_tilted_axes_are_unit_observables():
    for mode in ("all_axes", "y_only"):
        assert all(np.allclose(m, dense.PAULI[c]) for c, m in dense.tilted_letters(0.0, mode).items())
        for m in dense.tilted_letters(0.3, mode).values():
            assert np.allclose(m @ m, np.eye(2))
    assert np.allclose(dense.tilted_letters(0.3, "y_only")["X"], dense.PAULI["X"])


def test_product_states_do_not_see_entanglement():
    w = _swap() / 2  # one negative eigenvalue (-1/2, on the singlet), yet >= 0 on product states
    assert np.linalg.eigvalsh(w)[0] == pytest.approx(-0.5)
    assert dense.min_product_expectation(w, 500, np.random.default_rng(0)) >= 0
    psi = dense.random_product_states(3, [1, 3], 4, np.random.default_rng(1))
    assert np.allclose(np.linalg.norm(psi, axis=1), 1)
    # qubit 2 factors out: the reduced state of qubit 2 is pure
    t = psi[0].reshape(2, 2, 2).transpose(1, 0, 2).reshape(2, 4)
    assert np.linalg.matrix_rank(t, tol=1e-10) == 1


def test_reference_states_are_normalized():
    for name in ("W3", "W4", "D4", "C4"):
        assert np.linalg.norm(dense.reference_state(name)) == pytest.approx(1.0)
