"""Noise-tolerance behavior under measurement-axis misalignment.

Misalignment replaces each non-identity Pauli letter by a tilted axis —
all_axes: X -> cos(t)X + sin(t)Y, Y -> cos(t)Y + sin(t)Z, Z -> cos(t)Z + sin(t)X;
y_only applies just the Y rule. In Pauli coordinates that is the 4x4 letter map
R_t on every qubit, the unique linear extension to arbitrary expressions.

A tolerance curve is one batched contraction over the angles, never expanding
the tilted witness: Tr(W_t rho) = 2^n <w, (R_t^T)^(xn) r> for the Pauli
coordinates w and r of witness and state (:func:`pauli.local_map`). Crossovers
evaluate both witnesses the same way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import pauli
from .witness import ObservableExpr, Witness, _noise_tolerance, _state_coords
from .witness import p_noise  # noqa: F401  (kept importable as robustness.p_noise)

MODES = ("all_axes", "y_only")

_THETA_BATCH = 32  # angles per contraction; the whole grid at once only adds temporaries


@dataclass(frozen=True)
class MisalignmentSpec:
    """Tilt angle in radians plus which axes tilt."""

    theta: float
    mode: str = "all_axes"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not 0.0 <= self.theta <= math.pi / 2:
            warnings.warn(
                f"theta={self.theta:.4g} is outside [0, pi/2]; the substitution "
                "is still applied but sweeps normally stay inside that range",
                stacklevel=2,
            )


def _letter_map(spec: MisalignmentSpec) -> np.ndarray:
    """4x4 matrix R with R[b, a] the weight of letter b in the tilted letter a."""
    c, s = math.cos(spec.theta), math.sin(spec.theta)
    if spec.mode == "all_axes":  # X -> cX + sY, Y -> cY + sZ, Z -> cZ + sX
        return np.array([[1, 0, 0, 0], [0, c, 0, s], [0, s, c, 0], [0, 0, s, c]])
    # y_only: Y -> cY + sZ
    return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, 0], [0, 0, s, 1]])


def misalign_expr(expr: ObservableExpr, spec: MisalignmentSpec) -> ObservableExpr:
    """Expression with every letter of every term replaced by its tilted axis.

    Identity letters are untouched, so the trace is preserved exactly; each
    tilted letter keeps unit Bloch norm, so it still squares to the identity.
    """
    coords = pauli.local_map(expr.coords(), [_letter_map(spec)] * expr.n)
    return ObservableExpr.from_coords(expr.n, coords, eps=0.0)


def _tolerances(
    expr: ObservableExpr, coords: np.ndarray, rho_coords: np.ndarray, thetas, mode: str
) -> list[float | None]:
    """White-noise tolerance of expr (Pauli coordinates coords) misaligned by each
    angle, on the state with Pauli coordinates rho_coords: one contraction over
    all the angles."""
    maps = np.stack([_letter_map(MisalignmentSpec(t, mode)).T for t in thetas])
    values = pauli.local_map(rho_coords, [maps] * expr.n) @ coords * 2**expr.n
    # misalignment never maps a letter to I: the identity coefficient stays expr's
    return [_noise_tolerance(expr, float(v)) for v in values]


@dataclass(frozen=True)
class ToleranceCurve:
    """White-noise tolerance of one witness across a misalignment grid.

    tolerances[i] is None where the misaligned expectation is nonnegative
    (the witness no longer detects the state there).
    """

    thetas: tuple[float, ...]
    tolerances: tuple[float | None, ...]
    witness_label: str

    def __post_init__(self):
        if len(self.thetas) != len(self.tolerances):
            raise ValueError("thetas and tolerances must have the same length")


def default_grid(stop: float = 0.6, step: float = 0.005) -> tuple[float, ...]:
    """Sweep grid 0..stop inclusive; the default covers both published figures."""
    count = int(round(stop / step))
    return tuple(i * step for i in range(count + 1))


def tolerance_curve(
    w: Witness, rho: np.ndarray, grid, mode: str = "all_axes"
) -> ToleranceCurve:
    """Per-angle white-noise tolerance of the misaligned witness on rho."""
    thetas = tuple(float(t) for t in grid)
    if not thetas:
        raise ValueError("grid must be nonempty")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("grid must be strictly ascending")
    rho_coords = _state_coords(w.expr.n, rho)  # once per curve, not per angle
    coords = w.expr.coords()
    tolerances = []
    for start in range(0, len(thetas), _THETA_BATCH):
        batch = thetas[start:start + _THETA_BATCH]
        tolerances += _tolerances(w.expr, coords, rho_coords, batch, mode)
    return ToleranceCurve(thetas=thetas, tolerances=tuple(tolerances), witness_label=w.label)


def crossover(
    w_a: Witness,
    w_b: Witness,
    rho: np.ndarray,
    mode: str = "all_axes",
    hi: float = math.pi / 4,
    tol: float = 1e-4,
) -> float:
    """Angle where the two witnesses' tolerance curves cross, by bisection.

    Raises ValueError when the difference has no sign change (or more than
    one) on the part of (0, hi) where both witnesses still detect rho.
    """
    rho_coords = _state_coords(w_a.expr.n, rho)  # once per crossover, not per angle
    if w_b.expr.n != w_a.expr.n:
        raise ValueError("dimension mismatch between expression and state")

    coords_a, coords_b = w_a.expr.coords(), w_b.expr.coords()

    def try_diff(theta: float) -> float | None:
        [pa] = _tolerances(w_a.expr, coords_a, rho_coords, [theta], mode)
        [pb] = _tolerances(w_b.expr, coords_b, rho_coords, [theta], mode)
        if pa is None or pb is None:
            return None
        return pa - pb

    def diff(theta: float) -> float:
        value = try_diff(theta)
        if value is None:
            raise ValueError(f"tolerance absent at theta={theta:.6f}; curves do not cross cleanly")
        return value

    scan = [hi * k / 32 for k in range(33)]
    values = []
    for t in scan:  # stop where either witness goes blind; the bracket ends there
        value = try_diff(t)
        if value is None:
            break
        values.append(value)
    if all(v == 0 for v in values):
        raise ValueError("no sign change: tolerance curves coincide on the bracket")
    flips = [
        i
        for i in range(len(values) - 1)
        if values[i] == 0 or (values[i] < 0) != (values[i + 1] < 0)
    ]
    if not flips:
        raise ValueError("no sign change: tolerance curves do not cross on the bracket")
    if len(flips) > 1:
        raise ValueError("tolerance curves cross more than once on the bracket")
    lo, up = scan[flips[0]], scan[flips[0] + 1]
    lo_negative = values[flips[0]] < 0  # carried along: lo is never re-evaluated
    while up - lo > tol:
        mid = 0.5 * (lo + up)
        mid_negative = diff(mid) < 0
        if lo_negative != mid_negative:
            up = mid
        else:
            lo, lo_negative = mid, mid_negative
    return 0.5 * (lo + up)

