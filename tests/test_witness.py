import importlib.util
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from edlkit import states
from edlkit.witness import (
    ObservableExpr,
    PUBLISHED_IDS,
    Witness,
    evaluate,
    family_covers,
    load_catalog,
    load_paper_witness,
    p_noise,
    projector_witness,
    sample_biseparable_min,
    support,
)


def test_expr_basic_accounting():
    e = ObservableExpr(2, {"II": 0.25, "XX": 0.5, "ZI": -0.5})
    assert e.identity_coeff == 0.25
    assert e.trace() == pytest.approx(0.25 * 4)
    assert len(e) == 3


def test_expr_rejects_malformed_terms():
    with pytest.raises(ValueError):
        ObservableExpr(2, {"XXX": 1.0})
    with pytest.raises(ValueError):
        ObservableExpr(2, {"XA": 1.0})
    with pytest.raises(ValueError):
        ObservableExpr(0, {})


def test_expr_drops_negligible_coefficients():
    e = ObservableExpr(1, {"X": 1.0, "Z": 1e-16})
    assert "Z" not in e.terms


def test_expr_matrix_and_from_matrix_roundtrip():
    e = ObservableExpr(2, {"II": 0.3, "XY": -0.7, "ZZ": 0.2})
    m = e.matrix()
    assert np.max(np.abs(m - m.conj().T)) < 1e-14
    back = ObservableExpr.from_matrix(m)
    assert back.isclose(e)


def test_expr_coords_roundtrip():
    e = ObservableExpr(2, {"IX": 1.5, "YZ": -0.25})
    back = ObservableExpr.from_coords(2, e.coords())
    assert back.isclose(e)


def test_expr_arithmetic():
    a = ObservableExpr(1, {"X": 1.0})
    b = ObservableExpr(1, {"X": -1.0, "Z": 2.0})
    s = a + b
    assert "X" not in s.terms  # exact cancellation removes the term
    assert s.terms["Z"] == 2.0
    assert (2.0 * a).terms["X"] == 2.0
    assert (-a).terms["X"] == -1.0
    assert (a - a).terms == {}


def test_expr_isclose_tolerance():
    a = ObservableExpr(1, {"X": 1.0})
    b = ObservableExpr(1, {"X": 1.0 + 1e-13})
    assert a.isclose(b)
    assert not a.isclose(ObservableExpr(1, {"X": 1.1}))
    assert not a.isclose(ObservableExpr(2, {"XI": 1.0}))


def test_support_and_family_covers():
    e = ObservableExpr(3, {"XXI": 1.0, "IZZ": -1.0, "III": 0.5})
    sup = support(e)
    assert frozenset({1, 2}) in sup
    assert frozenset({2, 3}) in sup
    assert frozenset() not in sup  # identity term carries no support
    assert family_covers([frozenset({1, 2}), frozenset({2, 3})], e)
    assert not family_covers([frozenset({1, 2})], e)
    # a bigger subset covers smaller supports
    assert family_covers([frozenset({1, 2, 3})], e)


def test_evaluate_matches_dense_trace():
    rng = np.random.default_rng(21)
    e = ObservableExpr(2, {"II": 0.25, "XZ": 0.4, "YY": -0.3})
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    direct = float(np.real(np.trace(e.matrix() @ rho)))
    assert evaluate(e, rho) == pytest.approx(direct, abs=1e-12)


def test_p_noise_formula_and_sign():
    rho = states.density(states.make_state("D4"))
    w = load_paper_witness("D4", 5)
    p = p_noise(w.expr, rho)
    v = evaluate(w.expr, rho)
    t = w.expr.trace() / 16
    # defining property: the mixture detects exactly up to p
    assert (1 - p) * v + p * t == pytest.approx(0.0, abs=1e-12)
    # nonnegative expectation means no tolerance at all
    assert p_noise(w.expr, np.eye(16, dtype=complex) / 16) is None


def test_witness_family_must_cover_terms():
    e = ObservableExpr(3, {"XXI": 1.0, "III": 0.2})
    with pytest.raises(ValueError):
        Witness(expr=e, family=(frozenset({2, 3}),))


def test_witness_json_roundtrip(tmp_path):
    w = load_paper_witness("W3", 2)
    path = tmp_path / "w.json"
    w.save(path)
    again = Witness.load(path)
    assert again.expr.isclose(w.expr)
    assert again.family == w.family
    assert again.label == w.label
    assert again.alpha == w.alpha
    assert again.p_noise == w.p_noise
    assert again.target_state == "W3"


def test_witness_json_schema_fields(tmp_path):
    w = load_paper_witness("C4", 1)
    path = tmp_path / "w.json"
    w.save(path)
    data = json.loads(path.read_text())
    assert set(data) >= {"n", "label", "terms", "family", "alpha", "p_noise"}
    assert all(set(t) == {"pauli", "coeff"} for t in data["terms"])
    assert all(len(t["pauli"]) == data["n"] for t in data["terms"])


def test_from_json_dict_tolerates_extras_and_missing_metadata():
    data = {
        "n": 2,
        "terms": [{"pauli": "ZZ", "coeff": 0.5}, {"pauli": "II", "coeff": 0.25}],
        "family": [[1, 2]],
        "someday": "a new field",
    }
    w = Witness.from_json_dict(data)
    assert w.alpha is None and w.p_noise is None and w.target_state is None
    assert w.expr.terms["ZZ"] == 0.5


# --- bundled catalog -------------------------------------------------------

TABLE_VALUES = {
    ("W3", 1): (-0.0285, 0.1859),
    ("W3", 2): (-0.0546, 0.3039),
    ("W4", 1): (-0.0047, 0.0696),
    ("W4", 5): (-0.0114, 0.1541),
    ("D4", 3): (-0.0117, 0.1577),
    ("D4", 5): (-0.0285, 0.3131),
    ("C4", 1): (-0.0156, 0.2),
    ("C4", 4): (-0.0625, 0.5),
}


@pytest.mark.parametrize("state,wid", sorted(TABLE_VALUES))
def test_catalog_witness_detects_its_state(state, wid):
    w = load_paper_witness(state, wid)
    rho = states.density(states.make_state(state))
    value, tol = TABLE_VALUES[(state, wid)]
    assert evaluate(w.expr, rho) == pytest.approx(value, abs=5e-4)
    assert p_noise(w.expr, rho) == pytest.approx(tol, abs=2e-3)
    assert w.target_state == state
    assert w.expr.trace() == pytest.approx(1.0, abs=1e-9)


def test_catalog_complete_and_ordered():
    cat = load_catalog()
    assert len(cat) == 16
    labels = [w.label for w in cat]
    assert labels == [f"{s}-{k}" for s in ("W3", "W4", "D4", "C4") for k in PUBLISHED_IDS[s]]
    for w in cat:
        assert family_covers(w.family, w.expr)


def test_catalog_regeneration_reproduces_bundled_files():
    # tools/gen_catalog.py rewrites the bundled JSONs; it must write them unchanged
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_catalog.py"
    spec = importlib.util.spec_from_file_location("gen_catalog", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert len(gen.CATALOG) == 16
    for row in gen.CATALOG:
        built = gen.build(*row)
        bundled = resources.files("edlkit").joinpath(f"data/witnesses/{built.label}.json")
        assert built.to_json_dict() == json.loads(bundled.read_text()), built.label


def test_load_paper_witness_unknown():
    with pytest.raises(KeyError):
        load_paper_witness("W3", 9)
    with pytest.raises(KeyError):
        load_paper_witness("GHZ4", 1)


def test_c4_low_id_family_follows_coefficients():
    # family recorded from the term supports: {124, 134}
    for wid in (1, 2):
        w = load_paper_witness("C4", wid)
        assert set(w.family) == {frozenset({1, 2, 4}), frozenset({1, 3, 4})}


# --- projector witnesses ----------------------------------------------------

def test_projector_witness_values():
    psi = states.make_state("D4")
    w = projector_witness(psi, label="D4 projector")
    rho = states.density(psi)
    assert w.label == "D4 projector"
    assert evaluate(w.expr, rho) == pytest.approx(2 / 3 - 1, abs=1e-12)
    assert p_noise(w.expr, rho) == pytest.approx(16 / 45, abs=1e-12)
    # full-support family: the projector needs all qubits jointly
    assert w.family == (frozenset({1, 2, 3, 4}),)


def test_projector_witness_matrix_identity():
    psi = states.make_state("C4")
    w = projector_witness(psi)
    expected = 0.5 * np.eye(16) - np.outer(psi, psi.conj())
    assert np.max(np.abs(w.expr.matrix() - expected)) < 1e-12


# --- biseparable sampling ----------------------------------------------------

def test_sample_biseparable_min_deterministic():
    w = load_paper_witness("W3", 1)
    a = sample_biseparable_min(w.expr, trials=2000, seed=42)
    b = sample_biseparable_min(w.expr, trials=2000, seed=42)
    assert a == b
    assert sample_biseparable_min(w.expr, trials=2000, seed=43) != a


def test_sample_biseparable_min_nonnegative_on_witnesses():
    for state, wid in (("W3", 2), ("D4", 5)):
        w = load_paper_witness(state, wid)
        assert sample_biseparable_min(w.expr, trials=5000, seed=7) >= -1e-6


def test_sample_biseparable_min_goes_negative_for_projector_alone():
    # -|psi><psi| is not a witness; product states easily beat 0
    psi = states.make_state("W3")
    expr = ObservableExpr.from_matrix(-np.outer(psi, psi.conj()))
    assert sample_biseparable_min(expr, trials=5000, seed=1) < -0.1


def test_sample_biseparable_min_rejects_empty():
    w = load_paper_witness("W3", 1)
    with pytest.raises(ValueError):
        sample_biseparable_min(w.expr, trials=0, seed=0)
