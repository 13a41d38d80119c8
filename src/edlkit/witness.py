"""Witness expressions: real Pauli combinations, evaluation, and noise tolerance.

An :class:`ObservableExpr` is a finite real linear combination of Pauli words;
it is the universal operator representation used by the synthesis, robustness,
and measurement modules. A :class:`Witness` wraps an expression together with
the subset family it is supported on and optional detection metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import pauli, states

PUBLISHED_IDS = {"W3": (1, 2), "W4": (1, 2, 3, 4, 5), "D4": (1, 2, 3, 4, 5), "C4": (1, 2, 3, 4)}

COEFF_EPS = 1e-14  # coefficients at or below this are treated as zero


class ObservableExpr:
    """Immutable real linear combination of n-qubit Pauli words."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[str, float]):
        if n < 1:
            raise ValueError("need at least one qubit")
        cleaned: dict[str, float] = {}
        for word, coeff in terms.items():
            pauli.check_word(word)
            if len(word) != n:
                raise ValueError(f"term {word!r} has length {len(word)}, expected {n}")
            c = float(coeff)
            if abs(c) > COEFF_EPS:
                cleaned[word] = cleaned.get(word, 0.0) + c
        self.n = int(n)
        self._terms = {w: c for w, c in cleaned.items() if abs(c) > COEFF_EPS}

    @property
    def terms(self) -> dict[str, float]:
        """Mapping word -> coefficient (a defensive copy)."""
        return dict(self._terms)

    @property
    def identity_coeff(self) -> float:
        return self._terms.get("I" * self.n, 0.0)

    def trace(self) -> float:
        """Trace of the matrix realization: only the identity term contributes."""
        return self.identity_coeff * 2**self.n

    def coords(self) -> np.ndarray:
        """Dense Pauli-coordinate vector of length 4^n."""
        x = np.zeros(4**self.n)
        for word, coeff in self._terms.items():
            x[pauli.word_index(word)] = coeff
        return x

    @classmethod
    def from_coords(cls, n: int, x: np.ndarray, eps: float = 1e-12) -> "ObservableExpr":
        words = pauli.all_words(n)
        return cls(n, {words[i]: float(c) for i, c in enumerate(np.asarray(x)) if abs(c) > eps})

    @classmethod
    def from_matrix(cls, m: np.ndarray, eps: float = 1e-12) -> "ObservableExpr":
        """Pauli expansion of a Hermitian matrix."""
        x = pauli.to_pauli_coords(m)
        n = (m.shape[0]).bit_length() - 1
        return cls.from_coords(n, x, eps=eps)

    def matrix(self) -> np.ndarray:
        return pauli.from_pauli_coords(self.coords())

    def __add__(self, other: "ObservableExpr") -> "ObservableExpr":
        if not isinstance(other, ObservableExpr) or other.n != self.n:
            return NotImplemented
        merged = dict(self._terms)
        for w, c in other._terms.items():
            merged[w] = merged.get(w, 0.0) + c
        return ObservableExpr(self.n, merged)

    def __rmul__(self, scalar: float) -> "ObservableExpr":
        return ObservableExpr(self.n, {w: scalar * c for w, c in self._terms.items()})

    def __neg__(self) -> "ObservableExpr":
        return (-1.0) * self

    def __sub__(self, other: "ObservableExpr") -> "ObservableExpr":
        return self + (-other)

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        inner = " ".join(f"{c:+.6g}*{w}" for w, c in sorted(self._terms.items()))
        return f"ObservableExpr(n={self.n}, {inner or '0'})"

    def isclose(self, other: "ObservableExpr", tol: float = 1e-12) -> bool:
        if self.n != other.n:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tol for k in keys)


def support(expr: ObservableExpr) -> tuple[frozenset[int], ...]:
    """Inclusion-maximal supports of the non-identity terms, sorted for stability."""
    supports = {pauli.word_support(w) for w in expr.terms if set(w) != {"I"}}
    maximal = [s for s in supports if not any(s < t for t in supports)]
    return tuple(sorted(maximal, key=sorted))


def family_covers(family, expr: ObservableExpr) -> bool:
    """True if every non-identity term's support lies inside some family subset."""
    fam = [frozenset(s) for s in family]
    return all(any(s <= f for f in fam) for s in support(expr))


def evaluate(expr: ObservableExpr, rho: np.ndarray) -> float:
    """Expectation value sum_P c_P Tr(P rho)."""
    return _expectation(expr, _state_coords(expr.n, rho))


def p_noise(expr: ObservableExpr, rho: np.ndarray) -> float | None:
    """Largest white-noise weight at which the expression still detects rho.

    With t = Tr(W rho) and m = Tr(W)/2^n this is t/(t - m); absent (None)
    when t >= 0, i.e. when the witness does not detect the noiseless state.
    """
    return _noise_tolerance(expr, evaluate(expr, rho))


def _state_coords(n: int, rho: np.ndarray) -> np.ndarray:
    """Pauli coordinates of an n-qubit state, for many evaluations against it."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != 2**n:
        raise ValueError("dimension mismatch between expression and state")
    return pauli.to_pauli_coords(rho)


def _expectation(expr: ObservableExpr, rho_coords: np.ndarray) -> float:
    """:func:`evaluate` on a state given by its Pauli coordinates."""
    total = 0.0
    for word, coeff in expr.terms.items():
        total += coeff * rho_coords[pauli.word_index(word)]
    return float(total * 2**expr.n)


def _noise_tolerance(expr: ObservableExpr, t: float) -> float | None:
    """:func:`p_noise` from the expectation value t = Tr(W rho)."""
    if t >= 0.0:
        return None
    m = expr.identity_coeff
    return float(t / (t - m))


@dataclass
class Witness:
    """An observable plus the subset family and detection metadata."""

    expr: ObservableExpr
    family: tuple[frozenset[int], ...]
    label: str = ""
    alpha: float | None = None
    p_noise: float | None = None
    target_state: str | None = None

    def __post_init__(self):
        self.family = tuple(frozenset(s) for s in self.family)
        if not family_covers(self.family, self.expr):
            raise ValueError(f"witness terms stick out of the declared family {self.family}")

    def to_json_dict(self) -> dict:
        data = {
            "n": self.expr.n,
            "label": self.label,
            "terms": [
                {"pauli": w, "coeff": c} for w, c in sorted(self.expr.terms.items())
            ],
            "family": [sorted(s) for s in self.family],
            "alpha": self.alpha,
            "p_noise": self.p_noise,
        }
        if self.target_state is not None:
            data["target_state"] = self.target_state
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "Witness":
        expr = ObservableExpr(
            int(data["n"]), {t["pauli"]: float(t["coeff"]) for t in data["terms"]}
        )
        return cls(
            expr=expr,
            family=tuple(frozenset(s) for s in data["family"]),
            label=str(data.get("label", "")),
            alpha=data.get("alpha"),
            p_noise=data.get("p_noise"),
            target_state=data.get("target_state"),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Witness":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def load_paper_witness(state: str, witness_id: int) -> Witness:
    """One witness from the bundled catalog, e.g. load_paper_witness("D4", 5)."""
    if state not in PUBLISHED_IDS or witness_id not in PUBLISHED_IDS[state]:
        raise KeyError(f"no published witness ({state!r}, {witness_id})")
    ref = resources.files("edlkit").joinpath(f"data/witnesses/{state}-{witness_id}.json")
    with ref.open() as fh:
        w = Witness.from_json_dict(json.load(fh))
    w.target_state = state
    return w


def load_catalog() -> list[Witness]:
    """All published witnesses, in (state, id) order."""
    return [
        load_paper_witness(state, i)
        for state in ("W3", "W4", "D4", "C4")
        for i in PUBLISHED_IDS[state]
    ]


def projector_witness(psi: np.ndarray, label: str = "") -> Witness:
    """lambda * I - |psi><psi| with lambda the maximal squared Schmidt coefficient."""
    psi = np.asarray(psi, dtype=complex)
    n = states.num_qubits(psi)
    if n < 2:
        raise ValueError("need at least 2 qubits")
    lam = states.schmidt_lambda_max(psi)
    coords = -pauli.to_pauli_coords(np.outer(psi, psi.conj()))
    coords[0] += lam
    expr = ObservableExpr.from_coords(n, coords)
    fam = (frozenset(range(1, n + 1)),)
    return Witness(expr=expr, family=fam, label=label or "projector")


def sample_biseparable_min(
    expr: ObservableExpr, trials: int, seed: int, batch: int = 20000
) -> float:
    """Minimum expectation over random pure biseparable product states.

    Each trial draws a uniform canonical bipartition and a Haar-random pure
    state on each side (normalized complex-Gaussian vectors). Deterministic
    for a fixed seed. A valid witness stays nonnegative up to float error.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = expr.n
    w_mat = expr.matrix()
    parts = pauli.bipartitions(n)
    rng = np.random.default_rng(seed)
    choices = rng.integers(len(parts), size=trials)
    best = np.inf
    for i, part in enumerate(parts):
        count = int(np.sum(choices == i))
        a_qubits = sorted(part)
        b_qubits = [q for q in range(1, n + 1) if q not in part]
        da, db = 2 ** len(a_qubits), 2 ** len(b_qubits)
        done = 0
        while done < count:
            k = min(batch, count - done)
            a = _haar_block(rng, k, da)
            b = _haar_block(rng, k, db)
            prod = np.einsum("kp,kq->kpq", a, b).reshape((k,) + (2,) * n)
            # axes currently ordered (A qubits sorted, then the rest); undo that
            order = a_qubits + b_qubits
            perm = [0] + [1 + order.index(q) for q in range(1, n + 1)]
            psi = prod.transpose(perm).reshape(k, 2**n)
            vals = np.real(np.einsum("ki,ij,kj->k", psi.conj(), w_mat, psi))
            best = min(best, float(vals.min()))
            done += k
    return best


def _haar_block(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
