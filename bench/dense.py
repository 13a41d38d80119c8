"""Dense reference checks that share no code with edlkit.

Every quantity here is computed from 2^n x 2^n matrices built by Kronecker
products of the single-qubit Pauli matrices: operators from their Pauli-word
terms, the partial transpose by reshaping and swapping tensor axes, and
expectation values as Tr(W rho). Nothing imports edlkit, so a fault in its
Pauli-coordinate transforms cannot hide itself here.

Conventions match the published ones: qubit 1 is the leftmost letter of a
word and the most significant tensor factor.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

PSD_TOL = 1e-8
RECON_TOL = 1e-7


def reference_state(name: str) -> np.ndarray:
    """Amplitude vector of W3, W4, D4 (Dicke, two excitations) or C4 (linear cluster)."""
    if name == "W3":
        kets, amp = (0b001, 0b010, 0b100), 1 / math.sqrt(3)
    elif name == "W4":
        kets, amp = (0b0001, 0b0010, 0b0100, 0b1000), 0.5
    elif name == "D4":
        kets, amp = (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100), 1 / math.sqrt(6)
    elif name == "C4":
        psi = np.zeros(16, dtype=complex)
        psi[[0b0000, 0b0011, 0b1100]] = 0.5
        psi[0b1111] = -0.5
        return psi
    else:
        raise ValueError(f"unknown reference state {name!r}")
    psi = np.zeros(2 ** (3 if name == "W3" else 4), dtype=complex)
    psi[list(kets)] = amp
    return psi


def density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def white_noise(rho: np.ndarray, p: float) -> np.ndarray:
    d = rho.shape[0]
    return (1 - p) * rho + p * np.eye(d) / d


def word_matrix(word: str, letters=PAULI) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for c in word:
        out = np.kron(out, letters[c])
    return out


def operator(terms: dict[str, float], letters=PAULI) -> np.ndarray:
    """Sum of coeff * (Kronecker product of per-letter matrices) over the terms."""
    n = len(next(iter(terms)))
    out = np.zeros((2**n, 2**n), dtype=complex)
    for word, coeff in terms.items():
        out += coeff * word_matrix(word, letters)
    return out


def tilted_letters(theta: float, mode: str) -> dict[str, np.ndarray]:
    """Single-qubit observables with tilted axes.

    all_axes: X -> cX + sY, Y -> cY + sZ, Z -> cZ + sX; y_only tilts Y alone.
    """
    c, s = math.cos(theta), math.sin(theta)
    x, y, z = PAULI["X"], PAULI["Y"], PAULI["Z"]
    if mode == "all_axes":
        return {"I": PAULI["I"], "X": c * x + s * y, "Y": c * y + s * z, "Z": c * z + s * x}
    if mode == "y_only":
        return {"I": PAULI["I"], "X": x, "Y": c * y + s * z, "Z": z}
    raise ValueError(f"unknown misalignment mode {mode!r}")


def partial_transpose(m: np.ndarray, subset) -> np.ndarray:
    """Transpose the row and column tensor indices of the 1-based qubits in subset."""
    n = m.shape[0].bit_length() - 1
    axes = list(range(2 * n))
    for q in subset:
        axes[q - 1], axes[n + q - 1] = axes[n + q - 1], axes[q - 1]
    return m.reshape((2,) * (2 * n)).transpose(axes).reshape(m.shape)


def expectation(w: np.ndarray, rho: np.ndarray) -> float:
    return float(np.real(np.trace(w @ rho)))


def noise_tolerance(w: np.ndarray, rho: np.ndarray) -> float | None:
    """Largest white-noise weight p with Tr(W((1-p)rho + pI/d)) < 0, or None."""
    t = expectation(w, rho)
    if t >= 0:
        return None
    m = float(np.real(np.trace(w))) / w.shape[0]
    return t / (t - m)


def certificate_problems(w: np.ndarray, p: np.ndarray, q: np.ndarray, subset) -> list[str]:
    """Why (P, Q) is not a decomposition W = P + Q^{T_A} with P, Q PSD; empty if it is."""
    problems = []
    for name, m in (("P", p), ("Q", q)):
        low = float(np.linalg.eigvalsh(m)[0])
        if low < -PSD_TOL:
            problems.append(f"{name} has eigenvalue {low:.3e}")
    err = float(np.max(np.abs(p + partial_transpose(q, subset) - w)))
    if err > RECON_TOL:
        problems.append(f"P + Q^T_A differs from W by {err:.3e}")
    return problems


def bipartitions(n: int) -> list[tuple[int, ...]]:
    """Proper qubit subsets containing qubit 1: one side of each bipartition."""
    return [
        tuple(q + 1 for q in range(n) if mask >> q & 1)
        for mask in range(1, 2**n - 1)
        if mask & 1
    ]


def random_product_states(n: int, side, count: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar-random pure states |a>|b>, product across side | rest; shape (count, 2^n)."""
    side = sorted(side)
    rest = [q for q in range(1, n + 1) if q not in side]

    def haar(dim):
        v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    prod = np.einsum("ka,kb->kab", haar(2 ** len(side)), haar(2 ** len(rest)))
    order = side + rest  # tensor axes of prod, in this qubit order
    perm = [0] + [1 + order.index(q) for q in range(1, n + 1)]
    return prod.reshape((count,) + (2,) * n).transpose(perm).reshape(count, 2**n)


def min_product_expectation(w: np.ndarray, count: int, rng: np.random.Generator) -> float:
    """Smallest <psi|W|psi> over count random product states per bipartition."""
    n = w.shape[0].bit_length() - 1
    low = math.inf
    for side in bipartitions(n):
        psi = random_product_states(n, side, count, rng)
        vals = np.real(np.einsum("ki,ij,kj->k", psi.conj(), w, psi))
        low = min(low, float(vals.min()))
    return low


def support_fits(word: str, family) -> bool:
    support = {i + 1 for i, c in enumerate(word) if c != "I"}
    return not support or any(support <= set(s) for s in family)
