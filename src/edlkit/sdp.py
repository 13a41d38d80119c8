"""Witness synthesis by semidefinite programming.

The synthesis problem: given a state rho and a family of particle subsets,
minimize Tr(W rho) over observables W that (a) are supported on the family,
(b) have unit trace, and (c) admit, for every canonical bipartition A, a
decomposition W = P_A + Q_A^{T_A} with P_A, Q_A both PSD. A negative optimum
certifies that measurements on the family's subsets detect genuine
multipartite entanglement, and the optimizer is the witness.

Everything is solved by a feasible-start barrier (Newton path-following)
method. The witness W is kept in Pauli coordinates, its free words being the
variables next to the P_A blocks; each Q_A is eliminated exactly as
Q_A = T_A(W - P_A), so every iterate satisfies the equality constraints to
machine precision and the returned certificates are exactly feasible by
construction. The cone blocks P_A and Q_A live in the orthonormal real entry
basis of Hermitian matrices (diagonal, then sqrt2*Re and sqrt2*Im of the
upper triangle). There the partial transpose T_A is a signed permutation of
coordinates and the logdet curvature has a closed form (the symmetric
Kronecker product of Alizadeh, Haeberly & Overton, SIAM J. Optim. 8, 1998),
assembled entrywise in O(16^n) with no 4^n x 4^n matrix product. Newton
steps are affine invariant, so the basis choice changes only rounding.

Both programs are one program form, solved by one engine,
``_barrier_path``: minimize c.y subject to x0 + sum_o y_o S_o = P_A +
Q_A^{T_A} with P_A, Q_A PSD on every cut block A, where each S_o is a
fixed direction in entry coordinates (a sum of Pauli words). Synthesis has
x0 = I/2^n, one S_o per word orbit (the orbit's
Pauli words) and the objective Tr(W rho). The margin program (maximize
lambda with P_A, Q_A >= lambda*I) takes this form under the substitution
P' = P - lambda*I, Q' = Q - lambda*I: T_A fixes I, so W - 2*lambda*I = P' +
Q'^{T_A}, with x0 = W, one direction S = -2I, c = (-1) and one cut. The
engine follows the path ``_stages`` (t = 1, then 100 times the last up to
2*nu/gap; the final stage, the first with nu/t <= gap, is centered to a
squared decrement of 1e-10, the others to 0.04) with at most 60 damped
Newton steps per stage and ``max_iter`` in all, and reports how each stage
ended: centered, singular (the Newton system was numerically singular, or
roundoff made the squared decrement negative) or failed (no Armijo step).
Synthesis takes a singular stage as centered and raises on a failed one;
the margin program marks either stage stalled, so no bound is certified
from it.

A Newton step's Schur system on y is read off one curvature per block,
K_P and H_Q = T_A K_Q T_A (``_curvature``): the Newton block K_P + H_Q, the
coupling H_Q S^T (the Q block's curvature applied to the direction
coordinates) and the gradient S T_A(coords Q_A^-1). None of it depends on
t, so it is formed once per point, and a stage reuses the last one's.

Each program is reduced by the symmetries of its own data, which one
reader, ``_symmetries``, takes from the program's Pauli coordinates: for
synthesis the targets 2^n Tr(P rho) on the free words (0 elsewhere), with
the free-word set as a second row, and for the margin solves the witness's
coefficients (the coefficients decide, not the rounded matrix). A map that
fixes these data maps the program to itself: the objective, the free words,
the feasible start and the set of T_A. The barrier is strictly convex, so
the central path and every Newton iterate from the start are fixed by it
too, and the coordinates it forces to zero or to each other are left out
(the symmetry reduction of Gatermann & Parrilo, J. Pure Appl. Algebra 192,
2004). Three reductions are read:

- real: no word with an odd number of Y letters has a nonzero coordinate,
  so complex conjugation, which commutes with every T_A, fixes the
  program. The sqrt2*Im coordinates of every block and the coefficients of
  the odd-Y (imaginary) words are zero throughout: a block has
  2^n(2^n+1)/2 real coordinates instead of 4^n, its matrices are real and
  T_A is a plain permutation.
- span: let V be the F2-span of the X/Y masks of the words with nonzero
  coordinates. For every mask s orthogonal to V, conjugation by the
  diagonal Pauli product Z^s fixes the program (Z^s is real and diagonal
  and commutes with every T_A, which keeps i^j); it multiplies an entry
  (i, j) by (-1)^(s.(i^j)). So every iterate has entries only where i^j
  lies in V, and the free words whose X/Y mask is outside V have
  coefficient zero. The blocks keep the diagonal and the upper entries
  with i^j in V, in the basis of the full one's coordinates at those
  entries: T_A permutes them and the curvature there is the principal
  submatrix of the full one.
- group: the qubit permutations that map every row to an equal row
  (below). They permute the free words and the cuts {A, A^c},
  so the witness is constant on each word orbit and the blocks of a cut
  orbit are the permuted copies of one representative's blocks. Synthesis
  carries one variable per word orbit, whose direction is the orbit sum
  S_o of its words, and one P block per cut orbit,
  whose logdet terms are weighted by the orbit size; the barrier parameter
  still counts every bipartition. The margin solver runs one program per
  cut orbit. Restricted to these variables the barrier, its gradient and
  its Newton step are those of the full program, so in exact arithmetic
  the iterates are the same; only rounding differs. A certificate is
  returned for every canonical bipartition B: P_B = U_g P_A U_g^T with g
  carrying the representative's cut {A, A^c} to {B, B^c}, and Q_B =
  T_B(W - P_B). Equal means exactly for the margin program, whose
  non-representative cuts borrow their representative's bound, and within
  1e-12 of the row's largest entry for synthesis, whose targets are
  rounded (at n >= 5, targets equal in exact arithmetic differ in the last
  bit). A map admitted within that tolerance only makes the witness
  constant on its orbits, a smaller feasible set, and every certificate is
  rebuilt exactly from that witness, so the result stays certified.

Synthesis sees rho only through its free words, so a coherence of rho that
the family cannot reach is not carried: W_n, Dicke and the linear cluster
at n=4 keep 72, 72 and 40 of 136 real coordinates on the all-3 family, the
cluster 16 on all pairs, every state at k=1 only the diagonal, and GHZ5 32
of 528 below k=5. A random state reaches every mask and keeps the full
basis with the trivial group. The data alone decide; there is no option.

Deterministic: no randomization anywhere, so identical inputs give identical
iterates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import pauli
from .witness import ObservableExpr, Witness

DETECT_TOL = 1e-6  # alpha below -DETECT_TOL counts as detection
FEAS_TOL = 1e-8  # a decomposition margin of at least -FEAS_TOL counts as PSD


@dataclass(frozen=True)
class SolverTolerances:
    gap: float = 1e-7
    max_iter: int = 200

    def __post_init__(self):
        if not 0 < self.gap < np.inf:
            raise ValueError(f"gap must be finite and positive, got {self.gap!r}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 0:
            raise ValueError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")


class SolverError(RuntimeError):
    """Raised when the barrier method fails to reach the gap tolerance."""

    def __init__(self, message: str, last_gap: float | None = None):
        super().__init__(message)
        self.last_gap = last_gap


@dataclass(frozen=True)
class SdpProblem:
    """Synthesis program data: support restriction, objective, cone structure."""

    n: int
    free_words: tuple[str, ...]        # allowed non-identity Pauli words
    target_vector: np.ndarray          # Tr(P rho) per free word
    bipartitions: tuple[frozenset[int], ...]
    identity_coeff: float              # fixed witness identity coordinate
    free_index: np.ndarray             # position of each free word in pauli.all_words(n)

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass
class SdpSolution:
    witness_expr: ObservableExpr
    alpha: float
    certificates: dict[frozenset[int], tuple[np.ndarray, np.ndarray]]
    duality_gap: float
    iterations: int


@dataclass
class SynthesisResult:
    solution: SdpSolution
    detected: bool
    p_noise: float | None

    @property
    def alpha(self) -> float:
        return self.solution.alpha

    def witness(self, family, label: str = "", target_state: str | None = None) -> Witness:
        return Witness(
            expr=self.solution.witness_expr,
            family=tuple(frozenset(s) for s in family),
            label=label,
            alpha=self.alpha,
            p_noise=self.p_noise,
            target_state=target_state,
        )


def build_problem(rho: np.ndarray, family) -> SdpProblem:
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    n = d.bit_length() - 1
    if 2**n != d or rho.shape != (d, d):
        raise ValueError("state dimension is not a power of two")
    fam = [frozenset(s) for s in family]
    if not fam:
        raise ValueError("family must be nonempty")
    for s in fam:
        if not s or not s <= set(range(1, n + 1)):
            raise ValueError(f"subset {sorted(s)} outside qubit range 1..{n}")
    # A word is free when its support (one bit per non-identity letter, qubit
    # 1 most significant) lies inside a subset's; the identity is not free.
    support = (pauli._letter_digits(n) != 0) @ (1 << np.arange(n - 1, -1, -1))
    masks = np.array([sum(1 << (n - q) for q in s) for s in fam])
    inside = np.any(np.arange(d)[:, None] & ~masks == 0, axis=1)
    free = np.flatnonzero(inside[support])[1:]
    words = pauli.all_words(n)
    return SdpProblem(
        n=n,
        free_words=tuple(words[i] for i in free),
        target_vector=d * pauli.to_pauli_coords(rho)[free],
        bipartitions=pauli.bipartitions(n),
        identity_coeff=1.0 / d,
        free_index=free,
    )


_SQRT2 = np.sqrt(2.0)


class _EntryBasis:
    """Orthonormal real entry basis of the Hermitian 2^n x 2^n matrices, or
    of the real symmetric ones, restricted to the entries (i, j) whose ket
    XOR i^j lies in ``span`` (every entry when ``span`` is None).

    Coordinates of M: the diagonal M[i,i], then sqrt2*Re M[i,j] and then
    sqrt2*Im M[i,j] over the strict upper triangle i < j, row-major. The basis
    is orthonormal for <A, B> = Tr(AB), so logdet M(x) has gradient
    coords(N) and curvature Tr(E_k N E_l N), N = M^-1 (see ``_curvature``).

    With ``real`` the sqrt2*Im coordinates are left out: the remaining
    2^n(2^n+1)/2 span the real symmetric matrices, ``matrix`` returns real
    blocks and ``coords`` drops any imaginary part. These are the leading
    coordinates of the Hermitian basis, so every real-basis quantity is the
    leading diag/Re part of the Hermitian one. The solvers use it when their
    program is real (see the module docstring).

    With ``span`` (a set of ket XORs closed under XOR) only the diagonal and
    the upper entries with i^j in the span are kept: m of them, d + m
    coordinates (real) or d + 2m (Hermitian). The kept coordinates are those
    of the full basis at these entries, in the same order; ``coords`` ignores
    the other entries and ``matrix`` leaves them zero. The solvers use it
    for the sign symmetries of their program (see the module docstring).

    Each coordinate belongs to one matrix-unit pair (a, b): the diagonal
    coordinates to (i, i), both coordinates of an upper entry to (i, j).
    ``pairs`` holds those flat positions a*d + b, diagonal then upper.
    """

    def __init__(self, n: int, real: bool = False, span: frozenset[int] | None = None):
        d = 2**n
        iu, ju = np.triu_indices(d, 1)
        if span is not None:
            inside = np.zeros(d, dtype=bool)
            inside[list(span)] = True
            keep = inside[iu ^ ju]
            iu, ju = iu[keep], ju[keep]
        self.d, self.m, self.real, self.span = d, iu.size, real, span
        self.size = d + iu.size if real else d + 2 * iu.size
        self.diag = np.arange(d) * (d + 1)
        self.upper = iu * d + ju
        self.lower = ju * d + iu
        self.pairs = np.concatenate([self.diag, self.upper])
        self.identity = np.concatenate([np.ones(d), np.zeros(self.size - d)])
        self.scale = np.concatenate([np.ones(d), np.full(self.size - d, _SQRT2)])
        # matrix() reads entry f as coordinate source[f] (+ i im_sign[f] times its
        # Im coordinate) over divisor[f]; outside the span, coordinate 0 over inf
        self.source = np.zeros(d * d, dtype=np.intp)
        self.divisor, self.im_sign = np.full(d * d, np.inf), np.zeros(d * d)
        self.source[self.diag], self.divisor[self.diag] = np.arange(d), 1.0
        for flat, sign in ((self.upper, 1.0), (self.lower, -1.0)):
            self.source[flat], self.im_sign[flat] = d + np.arange(iu.size), sign
            self.divisor[flat] = _SQRT2

    def coords(self, m: np.ndarray) -> np.ndarray:
        """Entry coordinates of a Hermitian matrix, or of a stack of them."""
        z = m.reshape(*m.shape[:-2], self.d * self.d)[..., self.pairs]
        if not self.real:
            z = np.concatenate([z.real, z[..., self.d :].imag], axis=-1)
        return self.scale * z.real

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`coords`, for one coordinate vector or a stack."""
        z = np.take(x, self.source, axis=-1)
        if not self.real:
            z = z + 1j * (np.take(x, self.source + self.m, axis=-1) * self.im_sign)
        return (z / self.divisor).reshape(x.shape[:-1] + (self.d, self.d))


class _PartialTranspose:
    """T_A in entry coordinates: (T x)[k] = sign[k] * x[perm[k]].

    T_A only moves matrix entries, so it permutes the coordinates; an upper
    entry moved below the diagonal is read back conjugated, which flips the
    sign of its Im coordinate. In the real basis there are no Im coordinates,
    so every sign is +1 and T_A is a plain permutation. T_A swaps the bits
    of A between row and column, which keeps i^j: the kept entries of a
    basis with a span are moved onto kept entries. ``pairs`` is the basis'
    pairs moved by T_A.
    """

    def __init__(self, basis: _EntryBasis, part: frozenset[int]):
        d, m = basis.d, basis.m
        # moved[f]: the flat position whose entry T_A carries to position f
        moved = pauli.partial_transpose(np.arange(d * d).reshape(d, d), sorted(part))
        moved = moved.real.astype(np.intp).ravel()
        re_slot = np.empty(d * d, dtype=np.intp)
        im_slot = np.zeros(d * d, dtype=np.intp)
        im_sign = np.zeros(d * d)
        re_slot[basis.diag] = np.arange(d)
        for flat, sign in ((basis.upper, 1.0), (basis.lower, -1.0)):
            re_slot[flat] = d + np.arange(m)
            im_slot[flat] = d + m + np.arange(m)
            im_sign[flat] = sign
        src_diag, src_up = moved[basis.diag], moved[basis.upper]
        perm = np.concatenate([re_slot[src_diag], re_slot[src_up], im_slot[src_up]])
        sign = np.concatenate([np.ones(d + m), im_sign[src_up]])
        self.perm, self.sign = perm[: basis.size], sign[: basis.size]
        self.pairs = moved[basis.pairs]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.sign * x[..., self.perm]


def _chol_logdet(chol: np.ndarray):  # log det M per Cholesky factor of a stack
    return 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1)


def _cholesky(basis: _EntryBasis, x: np.ndarray) -> np.ndarray | None:
    """Cholesky factors of M(x), x a vector or a stack; None unless all are PD."""
    try:
        return np.linalg.cholesky(basis.matrix(x))
    except np.linalg.LinAlgError:
        return None


def _inverse(chol: np.ndarray) -> np.ndarray:
    """N = M^-1 from the Cholesky factor of M, or from a stack of them."""
    linv = np.linalg.inv(chol)
    return linv.conj().swapaxes(-1, -2) @ linv


def _curvature(basis: _EntryBasis, blocks) -> np.ndarray:
    """The logdet curvatures Tr(E_k N E_l N) of (N, pairs) blocks, stacked.

    With E_k expanded in matrix units, the curvature is a fixed signed
    combination of Z[(a,b),(c,d)] = N[b,c] N[d,a] over the units of E_k and
    E_l; Z at a swapped pair (b,a),(d,c) is the conjugate, so the diagonal
    and upper pairs suffice. T_A permutes matrix units, so T_A's pairs give
    T_A K T_A: the curvature of Q_A = T_A(W - P_A) in P_A and W. O(16^n) work
    per block, no matrix product; a real basis forms the diag/Re part only.
    """
    d, m = basis.d, basis.m
    re, im = slice(d, d + m), slice(d + m, None)
    hess = np.empty((len(blocks), basis.size, basis.size))
    for h, (inv, pairs) in zip(hess, blocks):
        a, b = np.divmod(pairs, d)
        rows_a, rows_b = inv[a], inv[b]
        g = rows_b[:, a]
        z = np.multiply(g, g.T, out=h if basis.real else None)  # Z at pairs (a, b), (c, d)
        del g  # no longer held while the swapped pairs are formed
        swapped = rows_b[d:, b[d:]]  # at (a, b), (d, c); N[c, a] = conj N[a, c]
        swapped *= rows_a[d:, a[d:]].conj()
        if not basis.real:
            z_uu = z[d:, d:]
            h[:d, im] = -_SQRT2 * z[:d, d:].imag
            h[im, :d] = -_SQRT2 * z[d:, :d].imag
            h[im, re] = -(z_uu + swapped).imag
            diff = swapped - z_uu
            h[re, im] = diff.imag
            h[im, im] = diff.real
            h[: d + m, : d + m] = z.real
        h[re, re] += swapped.real
        h[:d, re] *= _SQRT2
        h[re, :d] *= _SQRT2
    return hess


@functools.lru_cache(maxsize=12)
def _entry_basis(n: int, real: bool = False, span: frozenset[int] | None = None) -> _EntryBasis:
    return _EntryBasis(n, real, span)


@functools.lru_cache(maxsize=64)
def _partial_transpose(
    n: int, part: frozenset[int], real: bool = False, span: frozenset[int] | None = None
) -> _PartialTranspose:
    return _PartialTranspose(_entry_basis(n, real, span), part)


def _xor_span(masks) -> frozenset[int]:
    """The F2-span of a collection of ket XOR masks (0 included)."""
    span = {0}
    for x in masks:
        if x not in span:
            span |= {v ^ x for v in span}
    return frozenset(span)


def _symmetries(x: np.ndarray, *fixed: np.ndarray, rtol: float = 0.0):
    """(real, span, group): the reductions of a program read from its Pauli
    coordinates x, one per word of ``pauli.all_words(n)`` (see the module
    docstring).

    ``real``: no word with an odd number of Y letters has a nonzero
    coordinate. ``span``: the F2-span of the X/Y masks of the words with
    nonzero coordinates. ``group``: the qubit permutations that map x and
    every row of ``fixed`` to rows equal to within ``rtol`` times the row's
    largest magnitude (0: exactly), in ``permutations`` order, identity
    first; g sends qubit q+1 to g[q]+1.
    """
    n = pauli._infer_n_coords(x.size)
    words = np.flatnonzero(x)
    real = not np.any(pauli.pt_signs(n, frozenset(range(1, n + 1)))[words] < 0)
    span = _xor_span(pauli.monomial_form(n)[0][words, 0].tolist())
    # A qubit permutation permutes the axes of the rows read as (4,)*n
    # tensors; the axes taken in the order g are the image under g's
    # inverse, which fixes the rows (within the slack) when g does. The
    # permutations that fix them exactly form a group; with a slack the
    # group they generate is taken, which the module docstring shows sound
    # for synthesis. So one found inside adds every product with the ones
    # found so far, and one found outside rules out its coset.
    rows = np.stack((x,) + fixed)
    slack = (rtol * np.abs(rows).max(axis=1)).reshape((-1,) + (1,) * n)
    rows = rows.reshape((-1,) + (4,) * n)
    group, outside, gens = {tuple(range(n))}, set(), []
    for g in permutations(range(n)):
        if g in group or g in outside:
            continue
        if np.any(np.abs(rows.transpose(0, *(1 + q for q in g)) - rows) > slack):
            outside.update(tuple(map(g.__getitem__, h)) for h in group)
            continue
        gens.append(g)
        queue = list(group)
        while queue:
            h = queue.pop()
            for s in gens:
                image = tuple(map(h.__getitem__, s))
                if image not in group:
                    group.add(image)
                    queue.append(image)
    return real, span, tuple(sorted(group))


def _ket_permutation(g: tuple[int, ...]) -> np.ndarray:
    """The basis ket images of the qubit permutation g: U_g|b> = |p[b]>."""
    return _permuted_digits(np.arange(2 ** len(g)), g, 1)


def _permuted_digits(index: np.ndarray, g: tuple[int, ...], width: int) -> np.ndarray:
    """Images under the qubit permutation g of indices with one digit of
    ``width`` bits per qubit, qubit 1 most significant: kets (width 1) or
    Pauli words (width 2). The digit of qubit q moves to qubit g[q]."""
    n = len(g)
    mask = (1 << width) - 1
    image = np.zeros_like(index)
    for q, gq in enumerate(g):
        image |= ((index >> width * (n - 1 - q)) & mask) << width * (n - 1 - gq)
    return image


def _word_orbits(n: int, word_idx: np.ndarray, group) -> np.ndarray:
    """Orbit label per word under the group, labels in order of first appearance.

    The group must map the set of words to itself."""
    position = np.full(4**n, -1)
    position[word_idx] = np.arange(word_idx.size)
    least = np.arange(word_idx.size)
    for g in group:
        least = np.minimum(least, position[_permuted_digits(word_idx, g, 2)])
    return np.unique(least, return_inverse=True)[1]


def _cut_orbits(n: int, parts, group):
    """Orbits of the cuts {A, A^c} under the group.

    Returns the representatives (indices into ``parts``), each one's orbit
    size, and for every part B a pair (k, g) where g carries the k-th
    representative's cut to B's.
    """
    everyone = frozenset(range(1, n + 1))
    origin = {}
    reps = []
    for i, part in enumerate(parts):
        if part in origin:
            continue
        reps.append(i)
        for g in group:
            image = frozenset(g[q - 1] + 1 for q in part)
            origin.setdefault(image if 1 in image else everyone - image, (len(reps) - 1, g))
    sizes = np.bincount([k for k, _ in origin.values()]).astype(float)
    return reps, sizes, [origin[part] for part in parts]


def _stages(nu: float, gap: float):
    """(t, centering tolerance) per barrier stage. Intermediate stages only
    need rough centering to keep the path jumps sound; the final stage is
    polished so the result carries the full gap bound nu/t <= gap."""
    t = 1.0
    while nu / t > gap:
        yield t, 0.04
        t = min(100.0 * t, 2.0 * nu / gap)
    yield t, 1e-10


class _Program:
    """One program of the synthesis form: minimize c.y over y and one block
    r_a per cut block a, the barrier terms of block a weighted by
    ``weights[a]``, subject to

        P_a = r_a >= 0  and  Q_a = T_a(x0 + y @ sums - r_a) >= 0.

    The directions ``sums`` are orbit sums of phased permutation matrices in
    entry coordinates of ``basis``: word f has the entries ``phases[f, i]``
    at (i, ``cols[f, i]``), and orbit o adds up the words ``starts[o]`` to
    ``starts[o+1]-1``. ``x0`` is in entry coordinates, ``c`` holds the
    objective's orbit sums and ``nu`` is the barrier parameter of the path.
    """

    def __init__(self, basis, transposes, weights, cols, phases, starts, x0, c, nu):
        self.basis, self.transposes, self.x0, self.nu = basis, transposes, x0, nu
        self.weights = np.asarray(weights, dtype=float)
        word_mats = np.zeros((cols.shape[0], basis.d, basis.d), dtype=phases.dtype)
        np.put_along_axis(word_mats, cols[:, :, None], phases[:, :, None], axis=2)
        self.sums = np.add.reduceat(basis.coords(word_mats), starts, axis=0)
        self.c = np.add.reduceat(c, starts)


def _barrier_path(prog: _Program, y: np.ndarray, r: np.ndarray, gap: float, max_iter: int):
    """Follow the central path of ``prog`` from the strictly feasible (y, r).

    Newton-centers psi_t(y, r) = t*(c.y) - sum_a m_a [logdet P_a + logdet Q_a]
    stage by stage (``_stages(prog.nu, gap)``), the blocks eliminated into a
    Schur system on y that is read off one curvature per block and formed
    once per point (see the module docstring), with at most 60 damped Newton
    steps per stage and ``max_iter`` in all (a step due after that raises
    ``SolverError``). After each stage it yields (t, event, y, r, steps),
    with ``steps`` the Newton steps taken so far and ``event``:

    - "centered": the stage centered, or its 60 steps ran out;
    - "singular": the Newton system was numerically singular, or roundoff
      made the squared decrement negative or non-finite;
    - "failed": no Armijo step was found down to a step length of 1e-12.

    The caller stops the path by asking for no further stage.
    """
    basis, transposes, weights = prog.basis, prog.transposes, prog.weights
    sums, c, x0 = prog.sums, prog.c, prog.x0
    ny = c.size

    def psi(tb: float, yy: np.ndarray, rr: np.ndarray):
        """Barrier merit and the point: the (P_a, Q_a) Cholesky factors and the
        merit's weighted logdet terms, in its order; (inf, None) outside the cones."""
        xw = x0 + yy @ sums
        x = np.empty((len(rr), 2, basis.size))
        x[:, 0] = rr
        for a, pt in enumerate(transposes):
            x[a, 1] = pt(xw - rr[a])
        factors = _cholesky(basis, x)
        if factors is None:
            return np.inf, None
        terms = (weights[:, None] * _chol_logdet(factors)).ravel().tolist()
        return functools.reduce(float.__sub__, terms, tb * float(c @ yy)), (factors, terms)

    def newton_system(factors):
        """The t-free Newton system at the point of ``factors``, with each
        block's weighted gradient term in y."""
        schur, rhs_y = np.zeros((ny, ny)), np.zeros(ny)
        grads, solves, gammas = [], [], []
        inverses = _inverse(factors)
        grad_blocks = basis.coords(inverses)  # of logdet P_a and logdet Q_a
        for a, pt in enumerate(transposes):
            (n_p, n_q), (g_p, g_q) = inverses[a], grad_blocks[a]
            g_q = pt(g_q)  # the gradient of logdet Q_a in W
            gamma = g_q - g_p
            grads.append(weights[a] * (sums @ g_q))
            h_p, h_q = _curvature(basis, ((n_p, basis.pairs), (n_q, pt.pairs)))
            gf = h_q @ sums.T  # the coupling: Q_a's curvature on the directions
            b_mat = np.add(h_p, h_q, out=h_p)
            # Its diagonal raised by two roundings, a block whose small eigenvalues
            # are lost to rounding (late margin stages) meets no exact 0 pivot.
            b_mat.reshape(-1)[:: len(b_mat) + 1] *= 1.0 + 2.0 * np.finfo(float).eps
            sol = np.linalg.solve(b_mat, np.concatenate([gamma[:, None], gf], axis=1))
            # Schur block sums.gf - gf'.b^-1.gf, with the cancelling
            # difference taken before the product with the large gf.
            schur += weights[a] * ((sums - sol[:, 1:].T) @ gf)
            rhs_y -= weights[a] * (gf.T @ sol[:, 0])
            solves.append(sol)
            gammas.append(gamma)
        return schur, rhs_y, grads, solves, gammas

    steps = 0
    point = psi(1.0, y, r)[1]  # factors and logdet terms, kept from the line search
    system = None  # of the current point, kept until a step moves it
    for t, center_tol in _stages(prog.nu, gap):
        event = "centered"
        for _ in range(60):
            try:
                if system is None:
                    system = newton_system(point[0])
                schur, rhs_y, grads, solves, gammas = system
                grad_y = functools.reduce(np.subtract, grads, t * c)
                base = functools.reduce(float.__sub__, point[1], t * float(c @ y))  # psi(t, y, r)
                rhs_y = rhs_y - grad_y
                # a 1x1 system divides: LAPACK's 1x1 solve, without its overhead
                dy = rhs_y / schur[0] if ny == 1 and schur[0, 0] else np.linalg.solve(schur, rhs_y)
            except np.linalg.LinAlgError:
                event = "singular"
                break
            dr = np.array([sol[:, 1:] @ dy - sol[:, 0] for sol in solves])
            lam2 = -(grad_y @ dy + sum(m * (g @ s) for m, g, s in zip(weights, gammas, dr)))
            if not np.isfinite(lam2) or lam2 < 0:
                event = "singular"  # curvature lost to roundoff
                break
            # Progress below the float resolution of the merit is
            # indistinguishable from noise, so such a point counts as centered.
            noise = 1e-13 * (1.0 + abs(base))
            if lam2 <= center_tol or 0.25 * lam2 <= noise:
                break
            if steps >= max_iter:
                raise SolverError(
                    f"no convergence after {max_iter} Newton iterations", last_gap=prog.nu / t
                )
            step = 1.0
            while step > 1e-12:
                cand, new_point = psi(t, y + step * dy, r + step * dr)
                if cand <= base - 0.25 * step * lam2 + noise:
                    break
                step *= 0.5
            else:
                event = "failed"
                break
            steps += 1
            point, system = new_point, None
            y = y + step * dy
            r = r + step * dr
        yield t, event, y, r, steps


def synthesize(
    rho: np.ndarray, family, tol: SolverTolerances = SolverTolerances()
) -> SynthesisResult:
    """Solve the synthesis program; negative alpha means the family detects rho."""
    problem = build_problem(rho, family)
    # The program sees rho only through the targets of its free words: the
    # reductions are read from them, and the group fixes the free words too.
    target, free = np.zeros((2, 4**problem.n))
    target[problem.free_index] = problem.target_vector
    free[problem.free_index] = 1.0
    return _synthesize(problem, *_symmetries(target, free, rtol=1e-12), tol)


def _synthesize(
    problem: SdpProblem, real: bool, span: frozenset[int], group, tol: SolverTolerances
) -> SynthesisResult:
    """The barrier method on the program reduced by (real, span, group) as
    ``_symmetries`` reads them; real=False, the span of all 2^n masks and
    the trivial group give the full program."""
    n, d = problem.n, problem.dim
    basis = _entry_basis(n, real, span)
    parts = problem.bipartitions
    # A real program has no place for the words with an odd number of Y
    # letters (the imaginary ones); a word whose X/Y mask is outside the
    # span reaches no kept entry.
    inside = np.zeros(d, dtype=bool)
    inside[list(span)] = True
    free_idx = problem.free_index
    odd_y = pauli.pt_signs(n, frozenset(range(1, n + 1)))[free_idx] < 0
    kept = inside[pauli.monomial_form(n)[0][free_idx, 0]] & ~(real & odd_y)
    free_idx, c = free_idx[kept], problem.target_vector[kept]

    # One variable v_o per word orbit (w_f = v_o on the orbit) and one P block
    # per cut orbit, its barrier terms weighted by the orbit size. The words
    # are taken orbit by orbit, so an orbit sum adds up consecutive rows.
    orbit = _word_orbits(n, free_idx, group)
    order = np.argsort(orbit, kind="stable")
    free_idx, c, orbit = free_idx[order], c[order], orbit[order]
    starts = np.flatnonzero(np.r_[True, np.diff(orbit) != 0])
    reps, weights, origin = _cut_orbits(n, parts, group)

    # Free words as phased permutations: the witness is x_id*I + sum_o v_o S_o
    # with the orbit sums S_o of the words, and T_A(P_f) = s_f P_f.
    cols, phases = (table[free_idx] for table in pauli.monomial_form(n))
    if real:
        phases = phases.real  # +-1 for the words with an even number of Y letters
    prog = _Program(
        basis,
        [_partial_transpose(n, parts[i], real, span) for i in reps],
        weights,
        cols,
        phases,
        starts,
        problem.identity_coeff * basis.identity,
        c,
        2.0 * d * len(parts),  # two cones per bipartition
    )

    # Feasible start: W = I/2^n, P_A = Q_A = I/2^(n+1).
    v = np.zeros(prog.c.size)
    r = np.tile(0.5 / d * basis.identity, (len(reps), 1))
    for t_barrier, event, v, r, steps in _barrier_path(prog, v, r, tol.gap, tol.max_iter):
        if event == "failed":
            raise SolverError("line search failed", last_gap=prog.nu / t_barrier)

    w = v[orbit]  # every word of an orbit carries its orbit's coefficient
    xw = np.zeros(4**n)  # the witness in Pauli coordinates
    xw[0] = problem.identity_coeff
    xw[free_idx] = w
    alpha = float(c @ w + 1.0 / d)  # constant term: Tr((I/2^n) rho) / 2^n * 2^n
    w_entry = prog.x0 + v @ prog.sums
    certificates = {
        part: _carried_split(basis, w_entry, basis.matrix(r[k]), part, g)
        for part, (k, g) in zip(parts, origin)
    }
    expr = ObservableExpr.from_coords(n, xw, eps=0.0)
    solution = SdpSolution(
        witness_expr=expr,
        alpha=alpha,
        certificates=certificates,
        duality_gap=prog.nu / t_barrier,
        iterations=steps,
    )
    detected = alpha < -DETECT_TOL
    p_noise = d * alpha / (d * alpha - 1.0) if detected else None
    return SynthesisResult(solution=solution, detected=detected, p_noise=p_noise)


def verify_witness(
    expr: ObservableExpr, tol: SolverTolerances = SolverTolerances()
) -> dict[frozenset[int], tuple[np.ndarray, np.ndarray]] | None:
    """PSD certificates (P_A, Q_A) with expr = P_A + Q_A^{T_A}, or None.

    For each bipartition the largest-margin decomposition is found by
    maximizing lambda subject to P_A >= lambda*I and Q_A >= lambda*I; the
    decomposition exists iff the optimal margin is nonnegative (up to the
    feasibility tolerance).
    """
    splits = _margin_splits(expr, *_symmetries(expr.coords()), tol, reject_below=-FEAS_TOL)
    if splits is None:
        return None
    return {part: (p_mat, q_mat) for part, (_, _, p_mat, q_mat) in splits.items()}


def decomposition_margins(
    expr: ObservableExpr, tol: SolverTolerances = SolverTolerances()
) -> dict[frozenset[int], tuple[float, float]]:
    """Per-bipartition (best found, certified bound) margins of the P/Q split.

    The first number is the min eigenvalue across both blocks of the best
    decomposition found; the second is an upper bound on what any
    decomposition can achieve (inf when the solve stalled before a bound
    was established). A witness admits PSD certificates exactly when every
    best-found margin clears -FEAS_TOL.
    """
    splits = _margin_splits(expr, *_symmetries(expr.coords()), tol)
    return {part: (achieved, bound) for part, (achieved, bound, _, _) in splits.items()}


def _margin_splits(
    expr: ObservableExpr, real, span, group, tol: SolverTolerances, reject_below=-np.inf
):
    """(achieved, bound, P, Q) for every canonical bipartition, from one margin
    program per cut orbit of the group, each reduced by the reductions
    ``_symmetries`` reads from the witness's coefficients (real, span,
    group); real=False, the span of all 2^n masks and the trivial group
    solve the full program on every cut. None as soon as a representative's
    achieved margin falls below ``reject_below``.

    A cut B of an orbit gets the carried split of its representative, its
    achieved margin read off its own matrices and the representative's
    bound; a bound below that margin is wrong, so it reads inf.
    """
    n, basis, xw = _witness_coords(expr, real, span)
    parts = pauli.bipartitions(n)
    reps, _, origin = _cut_orbits(n, parts, group)
    solved = []
    for i in reps:
        achieved, bound, p_mat = _max_margin_split(
            xw, basis, _partial_transpose(n, parts[i], basis.real, span), tol
        )
        if achieved < reject_below:
            return None
        solved.append((bound, p_mat))
    splits = {}
    for part, (k, g) in zip(parts, origin):
        bound, p_rep = solved[k]
        p_mat, q_mat = _carried_split(basis, xw, p_rep, part, g)
        achieved = _split_margin(p_mat, q_mat)
        splits[part] = (achieved, bound if bound >= achieved else np.inf, p_mat, q_mat)
    return splits


def _carried_split(basis, w_entry, p_rep, part, g):
    """The split of cut B = ``part`` carried from its representative's P_A:
    P_B = U_g P_A U_g^T, with g carrying the cut {A, A^c} to {B, B^c}, and
    Q_B = T_B(W - P_B), W given by its entry coordinates. For a W fixed by g,
    Q_B is U_g Q_A U_g^T, conjugated when g maps A to B^c, so the blocks keep
    their spectra; taking Q_B from W makes P_B + Q_B^{T_B} = W up to rounding
    even where W's matrix is not exactly fixed by g."""
    # (U_g P U_g^T)[i, j] = P[k_i, k_j] with k the kets of the inverse of g
    kets = _ket_permutation(tuple(g.index(q) for q in range(len(g))))
    p_mat = p_rep[np.ix_(kets, kets)]
    pt = _partial_transpose(len(g), part, basis.real, basis.span)
    return p_mat, basis.matrix(pt(w_entry - basis.coords(p_mat)))


def _split_margin(p_mat: np.ndarray, q_mat: np.ndarray) -> float:
    """The smallest eigenvalue across both blocks of a split."""
    return float(min(np.linalg.eigvalsh(p_mat)[0], np.linalg.eigvalsh(q_mat)[0]))


def _witness_coords(expr: ObservableExpr, real, span):
    """(n, basis, entry coordinates) of a witness in the basis of the entries
    with ket XOR in ``span``, real or Hermitian."""
    if expr.trace() <= 0:
        raise ValueError("expression must have positive trace")
    basis = _entry_basis(expr.n, real, span)
    return expr.n, basis, basis.coords(expr.matrix())


def _max_margin_split(xw, basis, pt, tol):
    """Maximize min(eig P, eig Q) over splits W = P + Q^{T_A} of one bipartition.

    ``xw`` holds W's entry coordinates and ``pt`` is T_A. Returns (achieved,
    bound, P): the best margin found, a certified upper bound on the optimal
    margin (inf when none was established, or when the computed bound lies
    below the achieved margin and so is wrong), and the P block realizing
    the best margin (Q = T_A(W - P)).
    """
    # Trivial splits first: all of W on one side. These settle every case
    # whose binding block is exactly PSD (projector witnesses in particular).
    best_margin = -np.inf
    best_p = None
    for rc in (np.zeros(basis.size), xw):
        p_mat = basis.matrix(rc)
        margin = _split_margin(p_mat, basis.matrix(pt(xw - rc)))
        if margin > best_margin:
            best_margin, best_p = margin, p_mat
        if margin >= -FEAS_TOL:
            return margin, np.inf, p_mat

    # Maximize lambda with P, Q >= lambda*I. In P' = P - lambda*I and
    # Q' = Q - lambda*I (T_A fixes I) this is W - 2*lambda*I = P' + Q'^{T_A},
    # the synthesis form with x0 = W, one direction -2I, c = (-1) and one cut.
    d = basis.d
    prog = _Program(
        basis, [pt], weights=np.ones(1), cols=np.arange(d)[None],
        phases=np.full((1, d), -2.0), starts=np.zeros(1, dtype=np.intp), x0=xw,
        c=np.array([-1.0]), nu=2.0 * d,
    )
    p = xw / 2.0
    lam = _split_margin(basis.matrix(p), basis.matrix(pt(xw - p))) - 1.0
    y, r = np.array([lam]), (p - lam * basis.identity)[None]
    gap_goal = min(tol.gap, 0.25 * FEAS_TOL)  # must resolve margins at FEAS_TOL scale
    for t_barrier, event, y, r, _ in _barrier_path(prog, y, r, gap_goal, tol.max_iter):
        lam = y[0]
        stalled = event != "centered"
        if lam > 0:
            break  # current split already has positive margin
        if not stalled and lam + 1.1 * prog.nu / t_barrier < -FEAS_TOL:
            break  # certified: no decomposition clears the tolerance

    # The pair sums to W exactly by construction, so the residual is pure
    # float rounding; the achieved margin is read off the matrices themselves
    # (>= lam, since the barrier keeps both blocks strictly above lam).
    p = r[0] + lam * basis.identity
    p_mat = basis.matrix(p)
    achieved = _split_margin(p_mat, basis.matrix(pt(xw - p)))
    if achieved < best_margin:
        achieved, p_mat = best_margin, best_p
    bound = lam + 1.1 * prog.nu / t_barrier if not stalled else np.inf
    return achieved, bound if bound >= achieved else np.inf, p_mat


def edl_search(rho: np.ndarray, tol: SolverTolerances = SolverTolerances()) -> int:
    """Smallest subset size k whose all-k family detects rho; n+1 if none does."""
    d = np.asarray(rho).shape[0]
    n = d.bit_length() - 1
    for k in range(1, n + 1):
        fam = all_k_family(n, k)
        if synthesize(rho, fam, tol).detected:
            return k
    return n + 1


def edl_scan(rho: np.ndarray, tol: SolverTolerances = SolverTolerances()):
    """Per-k synthesis results for k = 1..n on the all-k families."""
    d = np.asarray(rho).shape[0]
    n = d.bit_length() - 1
    return {k: synthesize(rho, all_k_family(n, k), tol) for k in range(1, n + 1)}


def all_k_family(n: int, k: int) -> tuple[frozenset[int], ...]:
    if not 1 <= k <= n:
        raise ValueError("subset size out of range")
    return tuple(frozenset(c) for c in combinations(range(1, n + 1), k))
