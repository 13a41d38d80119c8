"""Pauli-string operator algebra for small qubit registers.

Conventions used throughout the package:

* Qubit 1 is the leftmost letter of a Pauli word and the most significant
  tensor factor, so basis index ``b`` of a ``2**n`` vector reads as the bit
  string ``q1 q2 ... qn``.
* Pauli words are plain strings over the alphabet ``IXYZ`` (e.g. ``"XXII"``).
* Qubit subsets are collections of 1-based indices.

:func:`local_map` applies one small matrix per qubit, mode by mode, without
forming the Kronecker product. Every change of Pauli basis runs through it:
the coordinate transforms cost O(n·4^n) on the matrix with each qubit's row
and column bits interleaved, and no 4^n x 4^n basis is ever built.
Misalignment sweeps and outcome probabilities use the same kernel.
:func:`pauli_basis` is the dense reference the kernel is tested against.

Everything here is a pure function over immutable inputs; results may be
cached module-level but are never mutated.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable

import numpy as np

LETTERS = "IXYZ"

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def check_word(word: str) -> str:
    """Validate a Pauli word; returns it unchanged."""
    if not word or any(c not in LETTERS for c in word):
        raise ValueError(f"not a Pauli word over IXYZ: {word!r}")
    return word


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, first factor most significant."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_matrix(word: str) -> np.ndarray:
    """Dense 2^n x 2^n matrix of an n-letter Pauli word such as ``"XZI"``."""
    check_word(word)
    return kron_all(PAULI_1Q[c] for c in word)


def local_map(x: np.ndarray, maps) -> np.ndarray:
    """(maps[0] ⊗ maps[1] ⊗ ...) applied to the last axis of x, one mode at a time.

    Qubit 1 is the most significant mode. Each map is (out, in), or a batch
    (T, out, in) whose k-th matrix acts on row k of x's leading axis (a 1-D
    x is broadcast to all T rows). Costs O(n · size · out) per vector.
    """
    x = np.asarray(x)
    maps = [np.asarray(m) for m in maps]
    rest = math.prod(m.shape[-1] for m in maps)
    if x.shape[-1] != rest:
        raise ValueError(f"last axis of length {x.shape[-1]} does not match the maps' inputs")
    lead = x.shape[:-1]
    t = x
    done = 1  # output size of the modes already mapped
    for m in maps:
        rest //= m.shape[-1]
        t = t.reshape(lead + (done, m.shape[-1], rest))
        if m.ndim == 3:
            m = m.reshape((m.shape[0],) + (1,) * max(len(lead), 1) + m.shape[1:])
        t = m @ t
        lead = t.shape[:-3]
        done *= m.shape[-2]
    return t.reshape(lead + (-1,))


@functools.lru_cache(maxsize=8)
def all_words(n: int) -> tuple[str, ...]:
    """All 4^n Pauli words of length n in lexicographic (I<X<Y<Z) index order."""
    return tuple("".join(p) for p in itertools.product(LETTERS, repeat=n))


def word_index(word: str) -> int:
    """Position of ``word`` in the ``all_words`` enumeration (base-4, I,X,Y,Z = 0..3)."""
    idx = 0
    for c in check_word(word):
        idx = 4 * idx + LETTERS.index(c)
    return idx


@functools.lru_cache(maxsize=8)
def _letter_digits(n: int) -> np.ndarray:
    """(4^n, n) array of base-4 letter codes per word, qubit 1 in column 0."""
    idx = np.arange(4**n)
    cols = [(idx >> (2 * (n - 1 - q))) & 3 for q in range(n)]
    return np.stack(cols, axis=1).astype(np.uint8)


@functools.lru_cache(maxsize=6)
def monomial_form(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every Pauli word as a phased permutation matrix, without building it.

    Returns (cols, phases), each of shape (4^n, 2^n), with word p's matrix
    holding phases[p, a] at row a, column cols[p, a] and zeros elsewhere.
    cols[p, a] = a XOR x_p, where x_p has a bit set for each X or Y letter;
    the phase is (-i)^(number of Y letters) times -1 per set bit of a under
    a Y or Z letter. Read-only.
    """
    digits = _letter_digits(n)
    x_mask = np.zeros(4**n, dtype=np.int64)
    z_mask = np.zeros(4**n, dtype=np.int64)
    for q in range(n):
        bit = 1 << (n - 1 - q)
        x_mask += bit * ((digits[:, q] == 1) | (digits[:, q] == 2))
        z_mask += bit * ((digits[:, q] == 2) | (digits[:, q] == 3))
    rows = np.arange(2**n)
    cols = rows[None, :] ^ x_mask[:, None]
    flips = rows[None, :] & z_mask[:, None]
    parity = sum((flips >> k) & 1 for k in range(n)) % 2
    n_y = np.sum(digits == 2, axis=1)
    phases = np.array([1, -1j, -1, 1j])[n_y % 4, None] * np.where(parity == 1, -1.0, 1.0)
    cols.setflags(write=False)
    phases.setflags(write=False)
    return cols, phases


@functools.lru_cache(maxsize=6)
def pauli_basis(n: int) -> np.ndarray:
    """Stack of all 4^n Pauli matrices, shape (4^n, 2^n, 2^n). Read-only."""
    mats_1q = np.stack([PAULI_1Q[c] for c in LETTERS])
    stack = np.eye(1, dtype=complex)[None]
    for _ in range(n):
        stack = np.einsum("pab,lcd->placbd", stack, mats_1q).reshape(
            stack.shape[0] * 4, stack.shape[1] * 2, stack.shape[2] * 2
        )
    stack.setflags(write=False)
    return stack


# Row l, column (a, b) of _TO_COORDS holds P_l[b, a], so a qubit's interleaved
# entries m[a, b] map to Tr(P_l m); _FROM_COORDS holds P_l[a, b] at row (a, b).
_TO_COORDS = np.stack([PAULI_1Q[c].T.reshape(4) for c in LETTERS])
_FROM_COORDS = _TO_COORDS.conj().T


def _interleave(m: np.ndarray, n: int) -> np.ndarray:
    """Entries of a 2^n x 2^n matrix as one vector indexed a1 b1 a2 b2 ... an bn."""
    order = [axis for q in range(n) for axis in (q, n + q)]
    return m.reshape((2,) * (2 * n)).transpose(order).reshape(-1)


def _deinterleave(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_interleave`."""
    order = [2 * q for q in range(n)] + [2 * q + 1 for q in range(n)]
    return v.reshape((2,) * (2 * n)).transpose(order).reshape(2**n, 2**n)


def to_pauli_coords(m: np.ndarray) -> np.ndarray:
    """Real Pauli coordinates x with m = sum_P x_P P, for Hermitian m."""
    m = np.asarray(m, dtype=complex)
    n = _infer_n(m.shape[0])
    return local_map(_interleave(m, n), [_TO_COORDS] * n).real / 2**n


def from_pauli_coords(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_pauli_coords`."""
    x = np.asarray(x, dtype=float)
    n = _infer_n_coords(x.size)
    return _deinterleave(local_map(x, [_FROM_COORDS] * n), n)


def _infer_n(dim: int) -> int:
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def _infer_n_coords(size: int) -> int:
    n = (size.bit_length() - 1) // 2
    if 4**n != size:
        raise ValueError(f"coordinate vector length {size} is not a power of 4")
    return n


def word_support(word: str) -> frozenset[int]:
    """1-based qubit positions carrying a non-identity letter."""
    return frozenset(i + 1 for i, c in enumerate(word) if c != "I")


def bipartitions(n: int) -> tuple[frozenset[int], ...]:
    """Canonical bipartition halves: all proper subsets containing qubit 1.

    Deduplicates A|A^c against A^c|A; there are 2^(n-1) - 1 entries.
    """
    if n < 2:
        raise ValueError("need at least 2 qubits for a bipartition")
    rest = range(2, n + 1)
    out = []
    for r in range(n - 1):
        for extra in itertools.combinations(rest, r):
            out.append(frozenset((1,) + extra))
    return tuple(out)


def partial_transpose(m: np.ndarray, subset: Iterable[int]) -> np.ndarray:
    """Transpose the tensor indices of the qubits in ``subset`` (1-based)."""
    m = np.asarray(m, dtype=complex)
    n = _infer_n(m.shape[0])
    subset = set(subset)
    if not subset <= set(range(1, n + 1)):
        raise ValueError(f"subset {sorted(subset)} out of range for n={n}")
    t = m.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in subset:
        axes[q - 1], axes[n + q - 1] = axes[n + q - 1], axes[q - 1]
    return t.transpose(axes).reshape(m.shape)


@functools.lru_cache(maxsize=64)
def pt_signs(n: int, subset: frozenset[int]) -> np.ndarray:
    """Per-word signs of the partial transpose in Pauli coordinates.

    T_A maps a Pauli word to itself times (-1)^(number of Y letters inside A);
    the returned vector holds that sign for every word index.
    """
    digits = _letter_digits(n)
    ys = np.zeros(4**n, dtype=np.int64)
    for q in subset:
        ys += digits[:, q - 1] == 2
    signs = np.where(ys % 2 == 1, -1.0, 1.0)
    signs.setflags(write=False)
    return signs


def partial_trace(m: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Trace out every qubit not in ``keep``; result dimension 2^len(keep)."""
    m = np.asarray(m, dtype=complex)
    n = _infer_n(m.shape[0])
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[-1] > n or keep[0] < 1:
        raise ValueError(f"keep set {keep} out of range for n={n}")
    t = m.reshape((2,) * (2 * n))
    remaining = list(range(1, n + 1))
    for q in reversed([q for q in remaining if q not in keep]):
        i = remaining.index(q)
        t = np.trace(t, axis1=i, axis2=i + len(remaining))
        remaining.pop(i)
    d = 2 ** len(keep)
    return t.reshape(d, d)


def hermitian_eigen(m: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Rejects inputs whose anti-Hermitian part exceeds ``tol`` instead of
    silently symmetrizing them.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=complex))[0])
