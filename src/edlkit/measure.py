"""Local measurement settings, counting simulation, and table ingestion.

A product observable is measured one qubit at a time along a Bloch axis; a
*setting* is itself a ProductOp: one axis per qubit, None for a qubit that
is not measured. Counts are multinomial over the 2^n outcome strings; the
Born probabilities of all settings of one experiment come from one batched
contraction. Expectations are signed count sums, and witnesses/fidelities
are linear combinations of such records.

A record is (product, value, sigma): the measured ProductOp, its estimated
expectation and standard error; a record estimated from counts also keeps its
CountTable. Records of one table are correlated, so a combination's variance
counts their covariances: per table it is Var(f)/shots for f the weighted sum
of the records' outcome signs. Different tables are independent draws, and
records read from a CSV carry no counts, so those add in quadrature; an
estimate from a CSV of simulated records can therefore state a different
sigma than the simulation that wrote it.

A record matches a wanted product when both measure the same qubits and each
measured axis agrees within 1e-10 per component, either as is or negated,
with an even number of negated axes: [(X-Z)/r2]x2 is the same operator as
[(Z-X)/r2]x2, [(X-Z)/r2]x3 is not.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import pauli
from .witness import ObservableExpr

SQRT2 = math.sqrt(2.0)

PAULI_AXES = {
    "X": (1.0, 0.0, 0.0),
    "Y": (0.0, 1.0, 0.0),
    "Z": (0.0, 0.0, 1.0),
}

def _word_axes(word: str) -> tuple:
    return tuple(None if c == "I" else PAULI_AXES[c] for c in word)


def _axis_matrix(axis) -> np.ndarray:
    ax, ay, az = axis
    return ax * pauli.PAULI_1Q["X"] + ay * pauli.PAULI_1Q["Y"] + az * pauli.PAULI_1Q["Z"]


def _axis_sign(u, v) -> int:
    """1 when Bloch axis u equals v within 1e-10 per component, -1 when it
    equals -v, else 0."""
    (a, b, c), (x, y, z) = u, v
    if abs(a - x) <= 1e-10 and abs(b - y) <= 1e-10 and abs(c - z) <= 1e-10:
        return 1
    if abs(a + x) <= 1e-10 and abs(b + y) <= 1e-10 and abs(c + z) <= 1e-10:
        return -1
    return 0


@dataclass(frozen=True)
class ProductOp:
    """Tensor product of per-qubit ±1 observables (axis per qubit, None = I).

    Read as a measurement setting, it measures each qubit along its axis.
    """

    n: int
    axes: tuple
    text: str

    def expr(self) -> ObservableExpr:
        """Pauli expansion: each axis factor becomes ax*X + ay*Y + az*Z."""
        expansions = [("", 1.0)]
        for axis in self.axes:
            if axis is None:
                expansions = [(w + "I", c) for w, c in expansions]
                continue
            step = []
            for letter, component in zip("XYZ", axis):
                if abs(component) > 1e-14:
                    step.extend((w + letter, c * component) for w, c in expansions)
            expansions = step
        terms: dict[str, float] = {}
        for word, coeff in expansions:
            terms[word] = terms.get(word, 0.0) + coeff
        return ObservableExpr(self.n, terms)

    def covers(self, op: "ProductOp") -> bool:
        """True when this setting measures every measured factor of op along op's axis."""
        if op.n != self.n:
            return False
        for mine, theirs in zip(self.axes, op.axes):
            if theirs is None or mine == theirs:
                continue
            if mine is None or _axis_sign(mine, theirs) != 1:
                return False
        return True

    @property
    def mask(self) -> int:
        """Outcome-index bits of the measured qubits (qubit 1 most significant)."""
        bits = 0
        for axis in self.axes:
            bits = (bits << 1) | (axis is not None)
        return bits

    def outcome_sign(self, outcome_index: int) -> int:
        """Product of this operator's measured-qubit signs in one outcome."""
        sign = 1
        for q, axis in enumerate(self.axes):
            if axis is not None and (outcome_index >> (self.n - 1 - q)) & 1:
                sign = -sign
        return sign


@dataclass(frozen=True)
class CountTable:
    """Multinomial counts over the 2^n ±1 outcome strings of one setting."""

    setting: ProductOp
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (2**self.setting.n,):
            raise ValueError("counts must have one entry per outcome string")
        if (counts < 0).any() or counts.sum() != self.shots:
            raise ValueError("counts must be nonnegative and sum to shots")
        object.__setattr__(self, "counts", counts)

    def outcome_string(self, index: int) -> str:
        n = self.setting.n
        return "".join("-" if (index >> (n - 1 - q)) & 1 else "+" for q in range(n))


@dataclass(frozen=True)
class ExpectationRecord:
    """Measured expectation of one product operator with its standard error.

    table is the CountTable the estimate was summed from, None for a record
    read from a file; records of one table are correlated.
    """

    product: ProductOp
    value: float
    sigma: float
    table: CountTable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


# --- operator grammar ---------------------------------------------------

_COMPOSITE = re.compile(r"^\[\(([XYZ])([+-])([XYZ])\)/r2\](x(\d+)|_([\d,]+))$")
_INDEXED = re.compile(r"([XYZ])(\d+)")


def parse_operator(text: str, n: int) -> ProductOp:
    """Product operator from table text.

    Accepted forms: an n-letter word over {I,X,Y,Z}; concatenated indexed
    factors like ``X1X2`` or ``Z1Y3Y4`` (unlisted qubits are identity);
    ``[(A+B)/r2]x<n>`` for a uniform tilted product; ``[(A+B)/r2]_<i,j>``
    for tilted factors on the listed qubits. Whitespace is ignored.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty operator text")

    m = _COMPOSITE.match(compact)
    if m:
        a, sign, b, _, uniform, listed = m.groups()
        if a == b:
            raise ValueError(f"{text!r}: composite axis ({a}{sign}{b})/r2 is not unit length")
        va, vb = PAULI_AXES[a], PAULI_AXES[b]
        factor = tuple(
            (x + (y if sign == "+" else -y)) / SQRT2 for x, y in zip(va, vb)
        )
        if uniform is not None:
            if int(uniform) != n:
                raise ValueError(f"{text!r}: uniform product is over {uniform} qubits, expected {n}")
            axes = tuple(factor for _ in range(n))
        else:
            qubits = sorted({int(q) for q in listed.split(",") if q})
            if not qubits or qubits[0] < 1 or qubits[-1] > n:
                raise ValueError(f"{text!r}: qubit list out of range 1..{n}")
            axes = tuple(factor if q + 1 in set(qubits) else None for q in range(n))
        return ProductOp(n=n, axes=axes, text=compact)

    if re.fullmatch(r"[IXYZ]+", compact) and len(compact) == n:
        return ProductOp(n=n, axes=_word_axes(compact), text=compact)

    pos = 0
    seen: dict[int, str] = {}
    for m in _INDEXED.finditer(compact):
        if m.start() != pos:
            raise ValueError(f"{text!r}: syntax error at position {pos}")
        letter, qubit = m.group(1), int(m.group(2))
        if not 1 <= qubit <= n:
            raise ValueError(f"{text!r}: qubit {qubit} out of range 1..{n}")
        if qubit in seen:
            raise ValueError(f"{text!r}: qubit {qubit} listed twice")
        seen[qubit] = letter
        pos = m.end()
    if pos != len(compact) or not seen:
        raise ValueError(f"{text!r}: syntax error at position {pos}")
    axes = tuple(PAULI_AXES[seen[q + 1]] if q + 1 in seen else None for q in range(n))
    return ProductOp(n=n, axes=axes, text=compact)


# --- planning -----------------------------------------------------------


def plan_settings(expr: ObservableExpr) -> list[tuple[ProductOp, list[str]]]:
    """Greedy first-fit grouping of Pauli terms into joint settings.

    Two words share a setting iff on every qubit their letters agree or at
    least one is identity. Deterministic: words are visited in lexicographic
    order and fall into the first open setting that fits.
    """
    n = expr.n
    words = sorted(w for w in expr.terms if set(w) != {"I"})
    groups: list[tuple[list[str], list[str]]] = []  # (per-qubit letters, covered words)
    for word in words:
        for letters, covered in groups:
            if all(a == b or "I" in (a, b) for a, b in zip(letters, word)):
                for q, letter in enumerate(word):
                    if letter != "I":
                        letters[q] = letter
                covered.append(word)
                break
        else:
            groups.append(([c for c in word], [word]))
    return [(parse_operator("".join(letters), n), covered) for letters, covered in groups]


# --- simulation ---------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _outcome_map(axis) -> np.ndarray | None:
    """M[s, (a, b)] = Π_s[b, a]: Tr(ρ Π_s) over one qubit's interleaved (a, b),
    for its ± projectors along axis; None when the axis is not unit length."""
    eye = np.eye(2, dtype=complex)
    if axis is None:
        plus, minus = eye, np.zeros((2, 2), dtype=complex)
    elif abs(math.sqrt(sum(a * a for a in axis)) - 1.0) > 1e-10:
        return None
    else:
        obs = _axis_matrix(axis)
        plus, minus = (eye + obs) / 2, (eye - obs) / 2
    out = np.stack([plus.T.reshape(4), minus.T.reshape(4)])
    out.setflags(write=False)
    return out


def _born(rho: np.ndarray, settings) -> np.ndarray:
    """(T, 2^n) Born probabilities of the 2^n outcome strings under each of the
    T settings: one interleave of ρ and one batched :func:`pauli.local_map`."""
    rho = np.asarray(rho, dtype=complex)
    per_setting = []
    for setting in settings:
        n = setting.n
        if len(setting.axes) != n:
            raise ValueError("one axis entry per qubit required")
        if rho.shape != (2**n, 2**n):
            raise ValueError("state dimension does not match the setting")
        maps = [_outcome_map(axis) for axis in setting.axes]
        for q, m in enumerate(maps):
            if m is None:
                raise ValueError(f"axis for qubit {q + 1} is not unit length")
        per_setting.append(maps)
    n = settings[0].n
    maps = [np.stack(qubit) for qubit in zip(*per_setting)]  # (T, 2, 4) per qubit
    probs = pauli.local_map(pauli._interleave(rho, n), maps).real
    if (probs < -1e-12).any():
        raise ValueError("negative outcome probability beyond tolerance")
    probs = np.clip(probs, 0.0, None)
    totals = probs.sum(axis=1)
    for total in totals:
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return probs / totals[:, None]


def outcome_probabilities(rho: np.ndarray, setting: ProductOp) -> np.ndarray:
    """Born probabilities of the 2^n ±1 outcome strings under the setting.

    Unmeasured qubits report '+' deterministically (their projector is the
    identity for '+' and zero for '-'). Each measured axis must be unit length.
    """
    return _born(rho, [setting])[0]


def _draw(setting: ProductOp, probs: np.ndarray, shots: int, seed) -> CountTable:
    # multinomial draws no variate for an exactly-zero outcome, so roundoff-level
    # probabilities are made exact zeros: the draw must not hinge on the last bit
    probs[probs <= 1e-12] = 0.0
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    return CountTable(setting=setting, counts=counts, shots=shots)


def sample_counts(rho: np.ndarray, setting: ProductOp, shots: int, seed) -> CountTable:
    """One multinomial draw of counting statistics; deterministic given seed."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    return _draw(setting, outcome_probabilities(rho, setting), shots, seed)


def simulate_counts(
    rho: np.ndarray, settings, shots: int, seed: int
) -> list[CountTable]:
    """Independent count tables, one per setting, with derived seeds (seed, k):
    table k is ``sample_counts(rho, settings[k], shots, (seed, k))``."""
    settings = list(settings)
    if not settings:
        return []
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = _born(rho, settings)
    return [_draw(s, p, shots, (seed, k)) for k, (s, p) in enumerate(zip(settings, probs))]


# --- estimation ---------------------------------------------------------


def _outcome_signs(n: int, masks) -> np.ndarray:
    """(K, 2^n) ±1.0: the sign of each product (given by its measured-qubit
    mask) in each outcome string. Signed count sums are integers below 2^53,
    so sums of these signs times counts are exact in any order."""
    parity = np.bitwise_count(np.arange(2**n)[None, :] & np.asarray(masks)[:, None]) & 1
    return 1.0 - 2.0 * parity


def estimate_expectations(tables, operators) -> list[ExpectationRecord]:
    """Signed-count estimates of product operators from covering tables.

    Each operator is read from the first table whose setting covers it.
    Marginal operators (e.g. a pair inside a full product setting) reuse the
    same counts by summing over the unmeasured qubits' outcomes. sigma is the
    binomial standard error sqrt((1 - value^2)/shots); each record keeps its
    table, so combinations can count same-setting covariances.
    """
    operators = list(operators)
    chosen = []
    for op in operators:
        table = next((t for t in tables if t.setting.covers(op)), None)
        if table is None:
            raise ValueError(f"no table's setting covers operator {op.text!r}")
        chosen.append(table)
    if not operators:
        return []
    signs = _outcome_signs(operators[0].n, [op.mask for op in operators])
    counts = np.stack([t.counts for t in chosen])
    shots = np.array([t.shots for t in chosen])
    values = (signs * counts).sum(axis=1) / shots
    sigmas = np.sqrt(np.maximum(0.0, (1.0 - values * values) / shots))
    return [
        ExpectationRecord(op, value, sigma, table)
        for op, value, sigma, table in zip(operators, values.tolist(), sigmas.tolist(), chosen)
    ]


def _same_operator(a: ProductOp, b: ProductOp) -> bool:
    """For products on the same measured qubits: each axis equal or negated within 1e-10,
    with an even number of negated axes."""
    flips = 0
    for u, v in zip(a.axes, b.axes):
        if u == v:  # also both unmeasured
            continue
        sign = _axis_sign(u, v)
        if sign == 0:
            return False
        flips += sign < 0
    return flips % 2 == 0


def _count_variance(terms) -> float:
    """Variance of sum coeff * value over (coeff, record) terms whose records
    were estimated from count tables: the sum over tables of Var_p(f)/shots,
    with f(o) = sum of the table's coeff * sign(o) and p its outcome
    frequencies, so records of one table count their covariances.

    f(o) - E_p[f] is summed as coeff * (sign(o) - value) over the records, so
    a table whose outcomes are deterministic contributes exactly 0.
    """
    rows: dict[int, int] = {}  # table id -> its row, in order of first appearance
    table_of = [rows.setdefault(id(rec.table), len(rows)) for _, rec in terms]
    tables = list({id(rec.table): rec.table for _, rec in terms}.values())
    weights = np.zeros((len(tables), len(terms)))
    weights[table_of, np.arange(len(terms))] = [coeff for coeff, _ in terms]
    signs = _outcome_signs(tables[0].setting.n, [rec.product.mask for _, rec in terms])
    centered = weights @ (signs - np.array([[rec.value] for _, rec in terms]))
    counts = np.stack([t.counts for t in tables])
    shots = np.array([t.shots for t in tables], dtype=float)
    return float(((counts * centered * centered).sum(axis=1) / (shots * shots)).sum())


def _combine(records, targets, constant: float) -> tuple[float, float]:
    """constant + sum of coeff * record value over (coeff, ProductOp) targets.

    Each target must match exactly one record. Records estimated from one
    count table contribute the variance of their weighted sum over that
    table's outcomes; records without a table add in quadrature.
    """
    # keyed by which qubits are measured; the key's length is the qubit count
    by_support: dict[tuple, list[ExpectationRecord]] = {}
    for rec in records:
        by_support.setdefault(tuple(a is None for a in rec.product.axes), []).append(rec)
    value, variance = constant, 0.0
    counted = []  # (coeff, record) terms estimated from count tables
    for coeff, op in targets:
        candidates = by_support.get(tuple(a is None for a in op.axes), ())
        matches = [r for r in candidates if _same_operator(r.product, op)]
        if len(matches) != 1:
            raise ValueError(
                f"operator {op.text!r} matched {len(matches)} records, expected exactly 1"
            )
        rec = matches[0]
        value += coeff * rec.value
        if rec.table is None:
            variance += (coeff * rec.sigma) ** 2
        else:
            counted.append((coeff, rec))
    if counted:
        variance += _count_variance(counted)
    return value, math.sqrt(variance)


@functools.lru_cache(maxsize=1024)
def _word_op(word: str) -> ProductOp:
    """The ProductOp of a Pauli word, built once per word."""
    return ProductOp(len(word), _word_axes(word), word)


def combine(records, expr: ObservableExpr) -> tuple[float, float]:
    """Expression value from one record per non-identity Pauli word of expr."""
    targets = [
        (coeff, _word_op(word))
        for word, coeff in expr.terms.items()
        if set(word) != {"I"}
    ]
    return _combine(records, targets, expr.identity_coeff)


def combine_plan(records, plan: "FidelityPlan") -> tuple[float, float]:
    """Fidelity estimate from one record per product of the plan's record combination."""
    return _combine(records, _plan_targets(plan.n, plan.record_combo), plan.constant)


@functools.lru_cache(maxsize=16)
def _plan_targets(n: int, record_combo: tuple) -> tuple:
    """The (coefficient, ProductOp) targets of a record combination, parsed once."""
    return tuple((coeff, parse_operator(text, n)) for coeff, text in record_combo)


# --- fidelity measurement plans ------------------------------------------


@dataclass(frozen=True)
class FidelityPlan:
    """Settings plus the record combination reconstructing |psi><psi|."""

    state: str
    n: int
    settings: tuple
    reconstruction: ObservableExpr
    record_combo: tuple
    constant: float


def _subset_texts(pair: str, sign: str, n: int):
    """Marginal composite texts [(A±B)/r2]_S for every nonempty qubit subset."""
    out = []
    for mask in range(1, 2**n):
        qubits = [q + 1 for q in range(n) if (mask >> q) & 1]
        size = len(qubits)
        if size == n:
            text = f"[({pair[0]}{sign}{pair[1]})/r2]x{n}"
        else:
            text = f"[({pair[0]}{sign}{pair[1]})/r2]_{','.join(map(str, qubits))}"
        out.append((text, size))
    return out


def _even_subset_words(letter: str, n: int):
    """Pauli words with the letter on an even-size (nonempty) subset."""
    out = []
    for mask in range(1, 2**n):
        qubits = [q for q in range(n) if (mask >> q) & 1]
        if len(qubits) % 2 == 0:
            out.append("".join(letter if q in set(qubits) else "I" for q in range(n)))
    return out


def fidelity_settings(state: str) -> FidelityPlan:
    """Measurement plan whose record combination equals the state projector.

    The reconstruction (a Pauli expression) equals |psi><psi| exactly; the
    record combination expresses the same operator over the plan's settings'
    directly-measurable products, which is what table ingestion consumes.
    """
    from . import states  # local import: states never imports measure

    if state not in states.STATE_NAMES:
        raise ValueError(f"unknown state {state!r}; expected one of {states.STATE_NAMES}")
    n = 3 if state == "W3" else 4
    combo: list[tuple[float, str]] = []

    if state in ("W3", "W4"):
        # 1/24 (n=3) or 1/64 (n=4) of [ c0*I + sum ck Z_subsets
        #   + (I+Z+X)^xn + (I+Z-X)^xn + (I+Z+Y)^xn + (I+Z-Y)^xn
        #   - 2 X^xn - 2 Y^xn (n=4 only) ]
        denom = 24.0 if n == 3 else 64.0
        settings = [parse_operator("Z" * n, n)]
        constant = (4.0 - 1.0) / denom if n == 3 else 4.0 / denom
        z_coeffs = {1: -3.0, 2: -5.0, 3: -7.0} if n == 3 else {1: -2.0, 2: -4.0, 3: -6.0, 4: -8.0}
        for mask in range(1, 2**n):
            qubits = [q for q in range(n) if (mask >> q) & 1]
            word = "".join("Z" if q in set(qubits) else "I" for q in range(n))
            combo.append((z_coeffs[len(qubits)] / denom, word))
        if n == 4:
            settings += [parse_operator("X" * n, n), parse_operator("Y" * n, n)]
            combo.append((-2.0 / denom, "X" * n))
            combo.append((-2.0 / denom, "Y" * n))
        for pair in ("ZX", "ZY"):
            for sign in "+-":
                settings.append(parse_operator(f"[({pair[0]}{sign}{pair[1]})/r2]x{n}", n))
                for text, size in _subset_texts(pair, sign, n):
                    combo.append((SQRT2**size / denom, text))
    elif state == "D4":
        # 1/96 of [ 4X4 + 2(X+I)^x4 + 2(X-I)^x4 + (same for Y) + 16Z4
        #           - (Z+I)^x4 - (Z-I)^x4 - 2(X±Z)^x4 - 2(Y±Z)^x4 + (X±Y)^x4 ]
        settings = [parse_operator(word, 4) for word in ("XXXX", "YYYY", "ZZZZ")]
        constant = 6.0 / 96.0
        for letter, base, wfull in (("X", 4.0, 8.0), ("Y", 4.0, 8.0), ("Z", -2.0, 14.0)):
            for word in _even_subset_words(letter, 4):
                combo.append(((wfull if set(word) == {letter} else base) / 96.0, word))
        for pair, weight in (("XZ", -8.0), ("YZ", -8.0), ("XY", 4.0)):
            for sign in "+-":
                text = f"[({pair[0]}{sign}{pair[1]})/r2]x4"
                settings.append(parse_operator(text, 4))
                combo.append((weight / 96.0, text))
    else:  # C4: all stabilizer products are plain Pauli settings
        signed_words = [
            (1, "ZZII"), (1, "XXZI"), (1, "IZXX"), (1, "IIZZ"), (-1, "YYZI"),
            (1, "ZIXX"), (1, "ZZZZ"), (1, "XYYX"), (1, "XXIZ"), (-1, "IZYY"),
            (1, "YXYX"), (-1, "YYIZ"), (-1, "ZIYY"), (1, "XYXY"), (1, "YXXY"),
        ]
        constant = 1.0 / 16.0
        combo = [(s / 16.0, w) for s, w in signed_words]
        stab_expr = ObservableExpr(4, {w: 1.0 for _, w in signed_words})
        settings = [setting for setting, _ in plan_settings(stab_expr)]

    reconstruction_terms: dict[str, float] = {"I" * n: constant}
    for coeff, text in combo:
        for word, c in parse_operator(text, n).expr().terms.items():
            reconstruction_terms[word] = reconstruction_terms.get(word, 0.0) + coeff * c
    return FidelityPlan(
        state=state,
        n=n,
        settings=tuple(settings),
        reconstruction=ObservableExpr(n, reconstruction_terms),
        record_combo=tuple(combo),
        constant=constant,
    )


# --- file formats --------------------------------------------------------


def read_expectation_csv(path, n: int) -> list[ExpectationRecord]:
    """Records from CSV with header operator,value,sigma."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["operator", "value", "sigma"]:
            raise ValueError(f"{path}: expected header operator,value,sigma")
        for row in reader:
            op = parse_operator(row["operator"], n)
            records.append(ExpectationRecord(op, float(row["value"]), float(row["sigma"])))
    return records


def write_expectation_csv(fh, records) -> None:
    """Records as CSV rows operator,value,sigma, written to the open text stream ``fh``."""
    writer = csv.writer(fh)
    writer.writerow(["operator", "value", "sigma"])
    for rec in records:
        writer.writerow([rec.product.text, repr(rec.value), repr(rec.sigma)])


def write_count_files(directory, tables, seed: int, prefix: str = "setting") -> dict:
    """One outcome,count CSV per table plus a manifest; returns the manifest."""
    import os

    manifest = {"seed": seed, "settings": []}
    for k, table in enumerate(tables):
        name = f"{prefix}-{k}.csv"
        with open(os.path.join(directory, name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["outcome", "count"])
            for idx, count in enumerate(table.counts):
                writer.writerow([table.outcome_string(idx), int(count)])
        manifest["settings"].append(
            {
                "index": k,
                "label": table.setting.text,
                "axes": [list(a) if a is not None else None for a in table.setting.axes],
                "shots": int(table.shots),
                "file": name,
            }
        )
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def read_count_file(path, setting: ProductOp) -> CountTable:
    """Counts back from an outcome,count CSV written by write_count_files."""
    n = setting.n
    counts = np.zeros(2**n, dtype=np.int64)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["outcome", "count"]:
            raise ValueError(f"{path}: expected header outcome,count")
        for row in reader:
            outcome = row["outcome"]
            if len(outcome) != n or any(c not in "+-" for c in outcome):
                raise ValueError(f"{path}: bad outcome string {outcome!r}")
            idx = 0
            for c in outcome:
                idx = (idx << 1) | (c == "-")
            counts[idx] += int(row["count"])
    return CountTable(setting=setting, counts=counts, shots=int(counts.sum()))
