"""Noise-tolerance behavior under measurement-axis misalignment.

Misalignment replaces each non-identity Pauli letter by a tilted axis —
all_axes: X -> cos(t)X + sin(t)Y, Y -> cos(t)Y + sin(t)Z, Z -> cos(t)Z + sin(t)X;
y_only applies just the Y rule. In Pauli coordinates that is the 4x4 letter map
R_t on every qubit, the unique linear extension to arbitrary expressions.

A tolerance curve is one batched contraction over the angles, never expanding
the tilted witness: Tr(W_t rho) = 2^n <w, (R_t^T)^(xn) r> for the Pauli
coordinates w and r of witness and state (:func:`pauli.local_map`). Crossovers
evaluate both witnesses the same way. Each batch of angles builds its letter
maps as one (T, 4, 4) stack (``_letter_maps``) and checks mode and angles
once (``_check_angles``, as :func:`misalign_expr` checks its one angle);
nothing is cached.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import pauli
from .witness import ObservableExpr, Witness, _noise_tolerance, _state_coords
from .witness import p_noise  # noqa: F401  (kept importable as robustness.p_noise)

MODES = ("all_axes", "y_only")

_THETA_BATCH = 32  # angles per contraction; the whole grid at once only adds temporaries
_CROSSOVER_HI = math.pi / 4  # crossover scans [0, hi] in 32 steps
_CROSSOVER_TOL = 1e-4  # and bisects its bracket down to this width


def _check_angles(thetas, mode: str) -> None:
    """Raise ValueError for an unknown mode or a non-finite angle; warn once when
    an angle lies outside [0, pi/2], at the first line outside this module."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not all(map(math.isfinite, thetas)):
        raise ValueError("theta must be finite")
    outside = [t for t in thetas if not 0.0 <= t <= math.pi / 2]
    if outside:
        frame, level = sys._getframe(1), 2  # walk out of this module's frames
        while frame.f_globals.get("__name__") == __name__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"theta={outside[0]:.4g} is outside [0, pi/2]; the substitution "
            "is still applied but sweeps normally stay inside that range",
            stacklevel=level,
        )


def _letter_maps(thetas, mode: str) -> np.ndarray:
    """C-ordered (T, 4, 4) stack of the letter maps R_t, R[k, b, a] the weight of
    letter b in the tilted letter a at angle thetas[k]; unvalidated."""
    c = np.array([math.cos(t) for t in thetas])
    s = np.array([math.sin(t) for t in thetas])
    rows = np.zeros((len(c), 4, 4))
    rows[:, 0, 0] = 1.0
    if mode == "all_axes":  # X -> cX + sY, Y -> cY + sZ, Z -> cZ + sX
        rows[:, 1, 1] = rows[:, 2, 2] = rows[:, 3, 3] = c
        rows[:, 2, 1] = rows[:, 3, 2] = rows[:, 1, 3] = s
    else:  # y_only: Y -> cY + sZ
        rows[:, 1, 1] = rows[:, 3, 3] = 1.0
        rows[:, 2, 2], rows[:, 3, 2] = c, s
    return rows


def misalign_expr(expr: ObservableExpr, theta: float, mode: str = "all_axes") -> ObservableExpr:
    """Expression with every letter of every term replaced by its axis tilted by theta.

    Identity letters are untouched, so the trace is preserved exactly; each
    tilted letter keeps unit Bloch norm, so it still squares to the identity.
    """
    _check_angles((theta,), mode)
    coords = pauli.local_map(expr.coords(), [_letter_maps((theta,), mode)[0]] * expr.n)
    return ObservableExpr.from_coords(expr.n, coords, eps=0.0)


def _tolerances(
    expr: ObservableExpr, coords: np.ndarray, rho_coords: np.ndarray, thetas, mode: str
) -> list[float | None]:
    """White-noise tolerance of expr (Pauli coordinates coords) misaligned by each
    angle, on the state with Pauli coordinates rho_coords: one contraction over
    all the angles, whose letter maps are built as one stack and validated once."""
    _check_angles(thetas, mode)
    # R^T as a transposed view of the C-ordered stack: local_map's summation
    # order follows the layout, and this is the layout the curves were pinned in
    maps = _letter_maps(thetas, mode).transpose(0, 2, 1)
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


def crossover(w_a: Witness, w_b: Witness, rho: np.ndarray, mode: str = "all_axes") -> float:
    """Angle in (0, pi/4) where the two witnesses' tolerance curves cross, by
    bisection to within 1e-4.

    Raises ValueError when either witness does not detect rho at theta = 0,
    and when the difference has no sign change (or more than one) on the
    part of (0, pi/4) where both witnesses still detect rho.
    """
    rho_coords = _state_coords(w_a.expr.n, rho)  # once per crossover, not per angle
    if w_b.expr.n != w_a.expr.n:
        raise ValueError("dimension mismatch between expression and state")

    coords_a, coords_b = w_a.expr.coords(), w_b.expr.coords()

    def tolerances(theta: float):
        [pa] = _tolerances(w_a.expr, coords_a, rho_coords, [theta], mode)
        [pb] = _tolerances(w_b.expr, coords_b, rho_coords, [theta], mode)
        return pa, pb

    def diff(theta: float) -> float:
        pa, pb = tolerances(theta)
        if pa is None or pb is None:
            raise ValueError(f"tolerance absent at theta={theta:.6f}; curves do not cross cleanly")
        return pa - pb

    scan = [_CROSSOVER_HI * k / 32 for k in range(33)]
    values = []
    for t in scan:  # stop where either witness goes blind; the bracket ends there
        pa, pb = tolerances(t)
        if pa is None or pb is None:
            if not values:
                blind = " and ".join(repr(w.label) for w, p in ((w_a, pa), (w_b, pb)) if p is None)
                raise ValueError(f"no crossover: the state is not detected at theta=0 by {blind}")
            break
        values.append(pa - pb)
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
    while up - lo > _CROSSOVER_TOL:
        mid = 0.5 * (lo + up)
        mid_negative = diff(mid) < 0
        if lo_negative != mid_negative:
            up = mid
        else:
            lo, lo_negative = mid, mid_negative
    return 0.5 * (lo + up)

