import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edlkit import measure, pauli, states
from edlkit.measure import (
    CountTable,
    ExpectationRecord,
    ProductOp,
    combine,
    combine_plan,
    estimate_expectations,
    fidelity_settings,
    outcome_probabilities,
    parse_operator,
    plan_settings,
    read_count_file,
    read_expectation_csv,
    sample_counts,
    simulate_counts,
    write_count_files,
    write_expectation_csv,
)
from edlkit.witness import ObservableExpr, evaluate, load_catalog, load_paper_witness


# --- operator grammar ------------------------------------------------------

def test_parse_plain_word():
    op = parse_operator("XZY", 3)
    assert op.axes == ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    assert op.expr().terms == {"XZY": pytest.approx(1.0)}


def test_parse_identity_word():
    op = parse_operator("III", 3)
    assert op.axes == (None, None, None)
    assert op.expr().terms == {"III": pytest.approx(1.0)}


def test_parse_indexed_factors():
    op = parse_operator("Z1Y3Y4", 4)
    assert op.expr().terms == {"ZIYY": pytest.approx(1.0)}
    assert parse_operator("X1X2", 4).expr().terms == {"XXII": pytest.approx(1.0)}
    assert parse_operator("Z2", 3).expr().terms == {"IZI": pytest.approx(1.0)}


def test_parse_whitespace_ignored():
    assert parse_operator(" Z1 Z2 ", 3).text == "Z1Z2"


def test_parse_composite_uniform():
    op = parse_operator("[(Z+X)/r2]x2", 2)
    terms = op.expr().terms
    assert terms == pytest.approx({"ZZ": 0.5, "ZX": 0.5, "XZ": 0.5, "XX": 0.5})
    minus = parse_operator("[(Z-Y)/r2]x2", 2).expr().terms
    assert minus == pytest.approx({"ZZ": 0.5, "ZY": -0.5, "YZ": -0.5, "YY": 0.5})


def test_parse_composite_subset():
    op = parse_operator("[(Z+X)/r2]_1,3", 3)
    assert op.axes[1] is None
    terms = op.expr().terms
    assert terms == pytest.approx({"ZIZ": 0.5, "ZIX": 0.5, "XIZ": 0.5, "XIX": 0.5})


@pytest.mark.parametrize("bad", [
    "", "XX", "XXXXX", "[(X+X)/r2]x3", "[(Z+X)/r2]x4", "[(Z+X)/r2]_0,2",
    "X1X1", "X9", "Q1", "X1+X2", "[(Z*X)/r2]x3",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_operator(bad, 3)


def test_outcome_sign():
    op = parse_operator("ZIZ", 3)
    # outcome bits: qubit 1 is the most significant
    assert op.outcome_sign(0b000) == 1
    assert op.outcome_sign(0b100) == -1
    assert op.outcome_sign(0b101) == 1
    assert op.outcome_sign(0b010) == 1  # middle qubit not measured


# --- settings --------------------------------------------------------------

def test_setting_covers_marginals():
    full = parse_operator("ZZZ", 3)
    assert full.covers(parse_operator("Z1Z2", 3))
    assert full.covers(parse_operator("Z2", 3))
    assert not full.covers(parse_operator("X1", 3))
    assert not full.covers(parse_operator("Z1Z2", 2))


def test_covers_compares_axes_within_1e_10():
    setting = parse_operator("[(X+Z)/r2]x2", 2)
    ax, ay, az = setting.axes[0]

    def moved(delta):
        return ProductOp(2, ((ax + delta, ay, az), None), "moved")

    assert setting.covers(moved(0.0))
    assert setting.covers(moved(5e-11))
    assert not setting.covers(moved(2e-10))


def test_setting_axis_validation():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError, match="qubit 1 is not unit length"):
        outcome_probabilities(rho, ProductOp(2, ((1.0, 1.0, 0.0), None), "tilted"))
    with pytest.raises(ValueError, match="one axis entry per qubit"):
        outcome_probabilities(rho, ProductOp(2, (None,), "short"))


def test_plan_settings_grouping():
    expr = ObservableExpr(3, {"ZZI": 1.0, "IZZ": 0.5, "ZIZ": 0.25, "XXI": -1.0, "III": 0.1})
    plan = plan_settings(expr)
    # all Z words share one setting; XX needs its own
    assert len(plan) == 2
    texts = sorted(setting.text for setting, _ in plan)
    assert texts == ["XXI", "ZZZ"]
    covered = sorted(w for _, words in plan for w in words)
    assert covered == ["IZZ", "XXI", "ZIZ", "ZZI"]


def test_plan_settings_covers_catalog_witness():
    w = load_paper_witness("D4", 5)
    plan = plan_settings(w.expr)
    words = {word for _, group in plan for word in group}
    assert words == {t for t in w.expr.terms if set(t) != {"I"}}
    for setting, group in plan:
        for word in group:
            assert setting.covers(parse_operator(word, 4))


# --- simulation ------------------------------------------------------------

def test_outcome_probabilities_computational_basis():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # |01>
    probs = outcome_probabilities(rho, parse_operator("ZZ", 2))
    assert probs == pytest.approx([0, 1, 0, 0])


def test_outcome_probabilities_unmeasured_qubit_reports_plus():
    rho = np.eye(4, dtype=complex) / 4
    probs = outcome_probabilities(rho, parse_operator("ZI", 2))
    assert probs == pytest.approx([0.5, 0.0, 0.5, 0.0])


def test_outcome_probabilities_x_basis():
    plus = np.full((2, 2), 0.5, dtype=complex)
    probs = outcome_probabilities(plus, parse_operator("X", 1))
    assert probs == pytest.approx([1.0, 0.0], abs=1e-12)


def test_outcome_probabilities_dimension_check():
    with pytest.raises(ValueError):
        outcome_probabilities(np.eye(4) / 4, parse_operator("Z", 1))


def _kronecker_probabilities(rho, setting):
    """Reference: Tr(rho P_s) with P_s the Kronecker product of one projector per qubit."""
    n = setting.n
    eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    projectors = []
    for axis in setting.axes:
        if axis is None:
            projectors.append((eye, zero))
        else:
            obs = sum(a * pauli.PAULI_1Q[c] for a, c in zip(axis, "XYZ"))
            projectors.append(((eye + obs) / 2, (eye - obs) / 2))
    return np.array([
        np.trace(rho @ pauli.kron_all(
            projectors[q][(idx >> (n - 1 - q)) & 1] for q in range(n)
        )).real
        for idx in range(2**n)
    ])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_outcome_probabilities_match_kronecker_trace(seed, n):
    rng = np.random.default_rng(seed)
    d = 2**n
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    axes = []
    for _ in range(n):
        v = rng.standard_normal(3)
        axes.append(None if rng.random() < 0.3 else tuple(v / np.linalg.norm(v)))
    setting = ProductOp(n, tuple(axes), "random axes")
    want = _kronecker_probabilities(rho, setting)
    assert np.max(np.abs(outcome_probabilities(rho, setting) - want / want.sum())) <= 1e-14


def test_outcome_probabilities_validation_errors():
    setting = parse_operator("ZZ", 2)
    with pytest.raises(ValueError, match="dimension"):
        outcome_probabilities(np.eye(2) / 2, setting)
    with pytest.raises(ValueError, match="negative outcome probability"):
        outcome_probabilities(np.diag([1.5, -0.5, 0.0, 0.0]), setting)
    with pytest.raises(ValueError, match="sum to"):
        outcome_probabilities(np.eye(4) / 2, setting)


def test_sample_counts_deterministic():
    rho = states.density(states.make_state("W3"))
    s = parse_operator("ZZZ", 3)
    a = sample_counts(rho, s, 5000, seed=9)
    b = sample_counts(rho, s, 5000, seed=9)
    assert np.array_equal(a.counts, b.counts)
    assert a.counts.sum() == 5000
    c = sample_counts(rho, s, 5000, seed=10)
    assert not np.array_equal(a.counts, c.counts)


def test_sample_counts_ignore_roundoff_on_impossible_outcomes():
    # outcome 01 is impossible in one state and has probability 1e-16 in the
    # other; a variate drawn for it would shift the draws of 10 and 11
    s = parse_operator("ZZ", 2)
    exact = np.diag([0.3, 0.0, 0.2, 0.5])
    nudged = np.diag([0.3, 1e-16, 0.2, 0.5 - 1e-16])
    a = sample_counts(exact, s, 100_000, seed=0)
    b = sample_counts(nudged, s, 100_000, seed=0)
    assert np.array_equal(a.counts, b.counts)


def test_simulate_counts_per_setting_seeds():
    rho = states.density(states.make_state("W3"))
    settings = [parse_operator("ZZZ", 3), parse_operator("ZZZ", 3)]
    tables = measure.simulate_counts(rho, settings, 2000, seed=4)
    # same setting, different derived seed: the draws differ
    assert not np.array_equal(tables[0].counts, tables[1].counts)
    again = measure.simulate_counts(rho, settings, 2000, seed=4)
    assert np.array_equal(tables[0].counts, again[0].counts)


def _experiments():
    """(state, settings) of every catalog witness's plan and every fidelity plan."""
    for w in load_catalog():
        yield w.target_state, [setting for setting, _ in plan_settings(w.expr)]
    for state in states.STATE_NAMES:
        yield state, list(fidelity_settings(state).settings)


@pytest.mark.parametrize("p", [0.0, 0.13])
def test_simulate_counts_equals_per_setting_draws(p):
    # one contraction for all settings gives each setting's probabilities and
    # counts bit for bit
    for index, (state, settings) in enumerate(_experiments()):
        rho = states.white_noise(states.density(states.make_state(state)), p)
        tables = simulate_counts(rho, settings, 1000, seed=index)
        batch = measure._born(rho, settings)
        for k, (setting, table) in enumerate(zip(settings, tables, strict=True)):
            single = sample_counts(rho, setting, 1000, (index, k))
            assert table.setting is setting
            assert table.counts.tobytes() == single.counts.tobytes()
            assert batch[k].tobytes() == outcome_probabilities(rho, setting).tobytes()


def test_count_table_validation():
    s = parse_operator("Z", 1)
    with pytest.raises(ValueError):
        CountTable(setting=s, counts=np.array([3, 2, 1]), shots=6)
    with pytest.raises(ValueError):
        CountTable(setting=s, counts=np.array([3, 2]), shots=6)
    with pytest.raises(ValueError):
        CountTable(setting=s, counts=np.array([-1, 7]), shots=6)


def test_outcome_string():
    s = parse_operator("ZZ", 2)
    t = CountTable(setting=s, counts=np.array([1, 0, 0, 0]), shots=1)
    assert [t.outcome_string(i) for i in range(4)] == ["++", "+-", "-+", "--"]


# --- estimation ------------------------------------------------------------

def test_estimate_expectations_exact_limit():
    rho = states.density(states.make_state("C4"))
    ops = [parse_operator(t, 4) for t in ("Z1Z2", "Z3Z4", "ZZZZ")]
    tables = simulate_counts(rho, [parse_operator("ZZZZ", 4)], 200_000, seed=0)
    records = estimate_expectations(tables, ops)
    for rec, op in zip(records, ops):
        exact = evaluate(op.expr(), rho)
        assert abs(rec.value - exact) < 5 * max(rec.sigma, 1e-4)
        assert rec.product is op


def test_estimate_sigma_is_binomial():
    rho = states.density(states.make_state("W3"))
    tables = simulate_counts(rho, [parse_operator("ZZZ", 3)], 10_000, seed=1)
    (rec,) = estimate_expectations(tables, [parse_operator("Z1", 3)])
    assert rec.sigma == pytest.approx(math.sqrt((1 - rec.value**2) / 10_000), abs=1e-15)


def test_estimate_signs_agree_with_outcome_sign():
    rho = states.white_noise(states.density(states.make_state("D4")), 0.2)
    tables = simulate_counts(rho, [parse_operator("ZZZZ", 4)], 5000, seed=3)
    ops = [parse_operator(t, 4) for t in ("Z1", "Z2Z4", "Z1Z3Z4", "ZZZZ")]
    for rec, op in zip(estimate_expectations(tables, ops), ops):
        signs = np.array([op.outcome_sign(i) for i in range(16)])
        value = float(signs @ tables[0].counts) / tables[0].shots
        assert rec.value == value
        assert rec.sigma == math.sqrt(max(0.0, (1.0 - value * value) / tables[0].shots))


def _estimate_by_loop(tables, operators):
    """Reference: (value, sigma, table) of each operator, one at a time."""
    out = []
    for op in operators:
        table = next(t for t in tables if t.setting.covers(op))
        signs = np.array([op.outcome_sign(i) for i in range(2**op.n)])
        value = float(signs @ table.counts) / table.shots
        out.append((value, math.sqrt(max(0.0, (1.0 - value * value) / table.shots)), table))
    return out


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_estimate_expectations_matches_per_operator_loop(data, n):
    words = data.draw(st.lists(st.text("XYZ", min_size=n, max_size=n), min_size=1, max_size=4))
    tables = []
    for word in words:
        counts = data.draw(st.lists(st.integers(0, 3000), min_size=2**n, max_size=2**n))
        counts[0] += 1
        tables.append(CountTable(parse_operator(word, n), np.array(counts), sum(counts)))
    operators = []
    for _ in range(data.draw(st.integers(1, 12))):
        word = data.draw(st.sampled_from(words))
        kept = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        operators.append(parse_operator("".join(
            c if q in kept else "I" for q, c in enumerate(word)), n))
    records = estimate_expectations(tables, operators)
    for rec, op, (value, sigma, table) in zip(
        records, operators, _estimate_by_loop(tables, operators), strict=True
    ):
        assert rec.product is op
        assert rec.value == value
        assert rec.sigma == sigma
        assert rec.table is table


def test_estimate_requires_covering_table():
    rho = states.density(states.make_state("W3"))
    tables = simulate_counts(rho, [parse_operator("ZZZ", 3)], 100, seed=0)
    with pytest.raises(ValueError):
        estimate_expectations(tables, [parse_operator("X1", 3)])


def test_combine_reproduces_expression_value():
    rho = states.density(states.make_state("D4"))
    w = load_paper_witness("D4", 1)
    words = [t for t in w.expr.terms if set(t) != {"I"}]
    # exact records: zero sigma, value = true expectation
    records = [
        ExpectationRecord(parse_operator(word, 4), evaluate(ObservableExpr(4, {word: 1.0}), rho), 0.0)
        for word in words
    ]
    value, sigma = combine(records, w.expr)
    assert value == pytest.approx(evaluate(w.expr, rho), abs=1e-12)
    assert sigma == 0.0


def test_combine_error_propagation_in_quadrature():
    expr = ObservableExpr(2, {"ZI": 2.0, "IZ": -1.0})
    records = [
        ExpectationRecord(parse_operator("ZI", 2), 0.5, 0.1),
        ExpectationRecord(parse_operator("Z2", 2), 0.25, 0.2),
    ]
    value, sigma = combine(records, expr)
    assert value == pytest.approx(2 * 0.5 - 0.25)
    assert sigma == pytest.approx(math.hypot(2 * 0.1, 1 * 0.2))


def test_same_setting_records_are_correlated():
    # both qubits of the Bell state agree along Z, so ZI + IZ measures 2 ZI:
    # sigma 2/sqrt(N), where quadrature would state sqrt(2)/sqrt(N)
    bell = states.density(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    expr = ObservableExpr(2, {"ZI": 1.0, "IZ": 1.0})
    shots = 100_000
    tables = simulate_counts(bell, [parse_operator("ZZ", 2)], shots, seed=0)
    records = estimate_expectations(tables, [parse_operator(t, 2) for t in ("ZI", "IZ")])
    v = records[0].value
    assert records[1].value == v
    value, sigma = combine(records, expr)
    assert value == 2 * v
    assert sigma == pytest.approx(2 * math.sqrt((1 - v * v) / shots), rel=1e-12)
    assert sigma == pytest.approx(2 / math.sqrt(shots), rel=1e-3)
    table_less = [ExpectationRecord(r.product, r.value, r.sigma) for r in records]
    assert combine(table_less, expr) == (value, pytest.approx(math.sqrt(2) * records[0].sigma))


def test_records_of_different_tables_add_in_quadrature():
    rho = states.white_noise(states.density(states.make_state("W3")), 0.2)
    expr = ObservableExpr(3, {"ZZI": 2.0, "XXI": -1.0})
    tables = simulate_counts(rho, [parse_operator(w, 3) for w in ("ZZZ", "XXX")], 5000, seed=2)
    records = estimate_expectations(tables, [parse_operator(w, 3) for w in ("ZZI", "XXI")])
    _, sigma = combine(records, expr)
    assert sigma == pytest.approx(math.hypot(2 * records[0].sigma, records[1].sigma), rel=1e-12)


def _spread_over_sigma(simulate_once) -> float:
    """Spread of 300 seeded estimates divided by their median stated sigma."""
    values, sigmas = zip(*(simulate_once(seed) for seed in range(300)))
    return float(np.std(values, ddof=1) / np.median(sigmas))


def test_witness_sigma_is_calibrated():
    w = load_paper_witness("D4", 3)
    rho = states.white_noise(states.density(states.make_state("D4")), 0.077)
    plan = plan_settings(w.expr)
    settings_ = [setting for setting, _ in plan]
    ops = [parse_operator(word, 4) for _, words in plan for word in words]

    def simulate_once(seed):
        return combine(estimate_expectations(simulate_counts(rho, settings_, 20_000, seed), ops), w.expr)

    assert 0.85 <= _spread_over_sigma(simulate_once) <= 1.15


def test_fidelity_sigma_is_calibrated():
    plan = fidelity_settings("W4")
    rho = states.white_noise(states.density(states.make_state("W4")), 0.15)
    ops = [parse_operator(text, plan.n) for _, text in plan.record_combo]

    def simulate_once(seed):
        return combine_plan(estimate_expectations(simulate_counts(rho, plan.settings, 20_000, seed), ops), plan)

    assert 0.85 <= _spread_over_sigma(simulate_once) <= 1.15


def test_combine_missing_and_duplicate_records():
    expr = ObservableExpr(2, {"ZZ": 1.0})
    rec = ExpectationRecord(parse_operator("ZZ", 2), 0.9, 0.01)
    with pytest.raises(ValueError, match="'ZZ' matched 0 records, expected exactly 1"):
        combine([], expr)
    with pytest.raises(ValueError, match="'ZZ' matched 2 records, expected exactly 1"):
        combine([rec, rec], expr)
    # duplicates of a product that expr does not use are never looked at
    unused = ExpectationRecord(parse_operator("XX", 2), 0.1, 0.01)
    assert combine([unused, rec, unused], expr) == (0.9, 0.01)


# --- fidelity plans ---------------------------------------------------------

@pytest.mark.parametrize("state,n_settings", [("W3", 5), ("W4", 7), ("D4", 9), ("C4", 9)])
def test_fidelity_plan_setting_counts(state, n_settings):
    plan = fidelity_settings(state)
    assert len(plan.settings) == n_settings


def test_fidelity_plan_reconstructs_projector():
    for state in ("W3", "D4"):
        plan = fidelity_settings(state)
        psi = states.make_state(state)
        proj = np.outer(psi, psi.conj())
        assert np.max(np.abs(plan.reconstruction.matrix() - proj)) < 1e-10


def test_fidelity_plan_unknown_state():
    with pytest.raises(ValueError):
        fidelity_settings("GHZ3")


def test_combine_plan_on_simulated_counts():
    plan = fidelity_settings("C4")
    rho = states.white_noise(states.density(states.make_state("C4")), 0.2)
    tables = simulate_counts(rho, plan.settings, 50_000, seed=5)
    ops = [parse_operator(text, plan.n) for _, text in plan.record_combo]
    records = estimate_expectations(tables, ops)
    value, sigma = combine_plan(records, plan)
    assert abs(value - (0.8 + 0.2 / 16)) < 5 * sigma
    assert 0 < sigma < 0.01


def test_combine_plan_exact_stabilizer_state_has_zero_error():
    # every C4 stabilizer outcome is deterministic on the exact state
    plan = fidelity_settings("C4")
    rho = states.density(states.make_state("C4"))
    tables = simulate_counts(rho, plan.settings, 1000, seed=0)
    ops = [parse_operator(text, plan.n) for _, text in plan.record_combo]
    value, sigma = combine_plan(estimate_expectations(tables, ops), plan)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert sigma == 0.0


def test_combine_plan_parses_each_plan_once(monkeypatch):
    from edlkit import measure

    plan = fidelity_settings("D4")
    rho = states.density(states.make_state("D4"))
    tables = simulate_counts(rho, plan.settings, 1000, seed=0)
    records = estimate_expectations(
        tables, [parse_operator(text, plan.n) for _, text in plan.record_combo]
    )
    first = combine_plan(records, plan)  # parses the plan at most this once
    equal = fidelity_settings("D4")  # a new plan object with the same combination
    parsed = []
    parse = measure.parse_operator
    monkeypatch.setattr(measure, "parse_operator", lambda *a: parsed.append(a) or parse(*a))
    assert combine_plan(records, plan) == first
    assert combine_plan(records, equal) == first
    assert parsed == []


def test_combine_plan_needs_exactly_one_match():
    plan = fidelity_settings("W3")
    with pytest.raises(ValueError):
        combine_plan([], plan)


def _combine_plan_by_scan(records, plan):
    """Reference: every combo operator matched by scanning all records with isclose."""
    value, variance = plan.constant, 0.0
    for coeff, text in plan.record_combo:
        target = parse_operator(text, plan.n).expr()
        matches = [r for r in records if r.product.expr().isclose(target, tol=1e-10)]
        if len(matches) != 1:
            raise ValueError(
                f"operator {text!r} matched {len(matches)} records, expected exactly 1"
            )
        value += coeff * matches[0].value
        variance += (coeff * matches[0].sigma) ** 2
    return value, math.sqrt(variance)


@pytest.mark.parametrize("state", ["W3", "W4", "D4", "C4"])
def test_combine_plan_matches_isclose_scan(state):
    plan = fidelity_settings(state)
    rng = np.random.default_rng(7)
    records = [
        ExpectationRecord(parse_operator(text, plan.n), float(v), float(s))
        for (_, text), v, s in zip(
            plan.record_combo,
            rng.uniform(-1, 1, len(plan.record_combo)),
            rng.uniform(0, 0.1, len(plan.record_combo)),
        )
    ]

    def moved(rec, delta, value):
        """rec's product with the largest component of its first measured axis moved by delta."""
        axes = list(rec.product.axes)
        q = next(i for i, axis in enumerate(axes) if axis is not None)
        axis = list(axes[q])
        axis[int(np.argmax(np.abs(axis)))] += delta
        axes[q] = tuple(axis)
        return ExpectationRecord(ProductOp(plan.n, tuple(axes), rec.product.text), value, 0.0)

    # decoys that match nothing: an unrelated operator, and the first and last
    # (tilted for W3, W4, D4) products moved by 1e-9, outside the 1e-10 tolerance
    first, last = records[0], records[-1]
    records.append(ExpectationRecord(parse_operator("Y1", plan.n), 0.1, 0.0))
    records += [moved(first, 1e-9, 0.2), moved(last, 1e-9, 0.2)]
    shuffled = [records[i] for i in rng.permutation(len(records))]
    assert combine_plan(shuffled, plan) == _combine_plan_by_scan(shuffled, plan)

    for rec in (first, last):
        duplicate = shuffled + [moved(rec, 5e-11, 0.3)]  # inside the tolerance: a second match
        with pytest.raises(ValueError, match="matched 2 records, expected exactly 1"):
            combine_plan(duplicate, plan)
        with pytest.raises(ValueError, match="matched 2 records, expected exactly 1"):
            _combine_plan_by_scan(duplicate, plan)

    missing = [r for r in shuffled if r is not first]
    with pytest.raises(ValueError, match="matched 0 records, expected exactly 1"):
        combine_plan(missing, plan)
    with pytest.raises(ValueError, match="matched 0 records, expected exactly 1"):
        _combine_plan_by_scan(missing, plan)


@st.composite
def _product_texts(draw, n):
    """Operator text of one grammar form, plus its composite with the two letters
    swapped ((A-B) becomes (B-A): every factor negated), or None for other forms."""
    form = draw(st.sampled_from(["word", "indexed", "uniform", "subset"]))
    if form == "word":
        return "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))), None
    qubits = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    if form == "indexed":
        return "".join(draw(st.sampled_from("XYZ")) + str(q) for q in qubits), None
    a, b = draw(st.permutations("XYZ"))[:2]
    sign = draw(st.sampled_from("+-"))
    tail = f"x{n}" if form == "uniform" else "_" + ",".join(map(str, qubits))
    return f"[({a}{sign}{b})/r2]{tail}", f"[({b}{sign}{a})/r2]{tail}"


def _matched(record_op, target_op) -> bool:
    record = ExpectationRecord(record_op, 0.5, 0.0)
    try:
        measure._combine([record], [(1.0, target_op)], 0.0)
    except ValueError as exc:
        assert "matched 0 records" in str(exc)
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_matcher_agrees_with_pauli_expansion(data, n):
    text, swapped = data.draw(_product_texts(n))
    other, _ = data.draw(_product_texts(n))
    op = parse_operator(text, n)
    for target_text in filter(None, (text, swapped, other)):
        target = parse_operator(target_text, n)
        assert _matched(op, target) == op.expr().isclose(target.expr(), tol=1e-10)


@pytest.mark.parametrize("n,same", [(2, True), (3, False), (4, True)])
def test_matcher_pairs_sign_flips(n, same):
    # (X-Z)/r2 = -(Z-X)/r2 on every factor: the products agree on an even qubit count
    op = parse_operator(f"[(X-Z)/r2]x{n}", n)
    target = parse_operator(f"[(Z-X)/r2]x{n}", n)
    assert _matched(op, target) is same
    assert op.expr().isclose(target.expr(), tol=1e-10) is same
    pair = f"[(X-Z)/r2]_1,{n}", f"[(Z-X)/r2]_1,{n}"
    assert _matched(parse_operator(pair[0], n), parse_operator(pair[1], n))


def test_records_are_never_expanded(tmp_path, monkeypatch):
    plan = fidelity_settings("D4")  # its reconstruction expands each combo product once
    w = load_paper_witness("D4", 5)
    rho = states.density(states.make_state("D4"))
    texts = [text for _, text in plan.record_combo]
    words = [word for _, group in plan_settings(w.expr) for word in group]
    calls = []
    original = ProductOp.expr

    def spy(self):
        calls.append(self.text)
        return original(self)

    monkeypatch.setattr(ProductOp, "expr", spy)
    tables = simulate_counts(rho, plan.settings, 1000, seed=0)
    records = estimate_expectations(tables, [parse_operator(t, 4) for t in texts])
    path = tmp_path / "records.csv"
    with open(path, "w", newline="") as fh:
        write_expectation_csv(fh, records)
    records = read_expectation_csv(path, 4)
    combine_plan(records, plan)
    wtables = simulate_counts(rho, [s for s, _ in plan_settings(w.expr)], 1000, seed=1)
    combine(estimate_expectations(wtables, [parse_operator(t, 4) for t in words]), w.expr)
    assert calls == []


# --- file round-trips --------------------------------------------------------

def test_expectation_csv_roundtrip(tmp_path):
    # include a composite text with a comma to exercise the quoting
    texts = ["Z1Z2", "[(Z+X)/r2]_1,3", "[(Z-Y)/r2]x3", "XXX"]
    ops = [parse_operator(t, 3) for t in texts]
    records = [
        ExpectationRecord(op, value=0.1 * k - 0.05, sigma=0.01 * k)
        for k, op in enumerate(ops)
    ]
    path = tmp_path / "exp.csv"
    with open(path, "w", newline="") as fh:
        write_expectation_csv(fh, records)
    back = read_expectation_csv(path, 3)
    assert len(back) == len(records)
    for orig, re_read in zip(records, back):
        assert re_read.product.text == orig.product.text
        assert re_read.value == orig.value  # repr round-trips floats exactly
        assert re_read.sigma == orig.sigma
        assert re_read.product.expr().isclose(orig.product.expr())


def test_read_expectation_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("op,val,err\nZ1,0.5,0.1\n")
    with pytest.raises(ValueError):
        read_expectation_csv(path, 3)


def test_expectation_record_sigma_validation():
    with pytest.raises(ValueError):
        ExpectationRecord(parse_operator("Z", 1), 0.5, -0.1)


def test_count_files_roundtrip(tmp_path):
    rho = states.density(states.make_state("W3"))
    settings = [parse_operator(w, 3) for w in ("ZZZ", "XXX")]
    tables = simulate_counts(rho, settings, 3000, seed=12)
    manifest = write_count_files(tmp_path, tables, seed=12)
    assert manifest["seed"] == 12
    assert len(manifest["settings"]) == 2
    assert (tmp_path / "manifest.json").exists()
    for entry, table in zip(manifest["settings"], tables):
        back = read_count_file(tmp_path / entry["file"], table.setting)
        assert np.array_equal(back.counts, table.counts)
        assert entry["label"] == table.setting.text
        assert entry["shots"] == 3000


def test_manifest_labels_parse_back_to_setting_axes(tmp_path):
    # tilted fidelity settings and plain-word witness settings
    plan = fidelity_settings("D4")
    witness_settings = [s for s, _ in plan_settings(load_paper_witness("D4", 5).expr)]
    rho = states.density(states.make_state("D4"))
    tables = simulate_counts(rho, [*plan.settings, *witness_settings], 100, seed=0)
    manifest = write_count_files(tmp_path, tables, seed=0)
    for entry, table in zip(manifest["settings"], tables, strict=True):
        assert parse_operator(entry["label"], 4).axes == table.setting.axes


def test_read_count_file_rejects_bad_outcomes(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("outcome,count\n+*,3\n")
    with pytest.raises(ValueError):
        read_count_file(path, parse_operator("ZZ", 2))
