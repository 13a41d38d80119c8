"""Each span counts the calls it should, under every name callers use.

Run with: python3 -m pytest bench
"""

import json
from pathlib import Path

import pytest

import edlkit
from edlkit import measure, pauli, robustness, sdp, states, witness  # noqa: F401
from run import unit_of
from tracing import Tracer
from worker import TRACED, counter_hooks, per_layer_metrics
from workloads import free_word_count


@pytest.fixture
def tracer():
    t = Tracer()
    hooks = counter_hooks(free_word_count)
    for mod_name, fns in TRACED.items():
        for fn in fns:
            name = f"{mod_name}.{fn}"
            t.install(getattr(edlkit, mod_name), fn, name, hooks.get(name))
    yield t
    t.uninstall()


def test_p_noise_is_wrapped_where_robustness_binds_it():
    original = witness.p_noise
    t = Tracer()
    # witness.p_noise, robustness.p_noise and the package root's re-export
    assert t.install(witness, "p_noise", "witness.p_noise") == 3
    assert robustness.p_noise is witness.p_noise is edlkit.p_noise is not original
    t.uninstall()
    assert robustness.p_noise is witness.p_noise is edlkit.p_noise is original


def test_one_default_tolerance_curve(tracer):
    w = witness.load_paper_witness("D4", 5)
    rho = states.density(states.make_state("D4"))
    pauli.to_pauli_coords(rho)  # fills the lazily built Pauli basis, as set-up does
    tracer.active = True
    robustness.tolerance_curve(w, rho, robustness.default_grid(), "all_axes")
    tracer.active = False
    calls = {name: entry["calls"] for name, entry in tracer.summary().items()}
    assert calls == {
        "robustness.tolerance_curve": 1,
        "robustness.misalign_expr": 121,
        "witness.p_noise": 121,
        "witness.evaluate": 121,
        "pauli.to_pauli_coords": 121,
    }
    assert tracer.counters == {"robustness.curve_points": 121}


def test_self_time_excludes_nested_spans(tracer):
    rho = states.density(states.make_state("W3"))
    tracer.active = True
    scan = sdp.edl_scan(rho)
    tracer.active = False
    summary = tracer.summary()
    assert summary["sdp.edl_scan"]["calls"] == 1
    assert summary["sdp.synthesize"]["calls"] == 3
    children = sum(e["total_s"] for name, e in summary.items()
                   if name in ("sdp.synthesize",))
    outer = summary["sdp.edl_scan"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - children, abs=1e-9)
    for entry in summary.values():
        assert 0 <= entry["self_s"] <= entry["total_s"]
    assert tracer.counters["sdp.newton_steps"] == sum(r.solution.iterations for r in scan.values())
    # k = 1, 2, 3 on three qubits: 9, 9 + 27 = 36 and 63 free words
    assert tracer.counters["sdp.free_words"] == 9 + 36 + 63


def test_inactive_tracer_records_nothing(tracer):
    witness.evaluate(witness.load_paper_witness("W3", 1).expr,
                     states.density(states.make_state("W3")))
    assert tracer.spans == [] and tracer.counters == {}


def test_traced_run_reports_the_per_layer_metrics_of_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    one_pass = {"wall": 1.0, "cpu": 2.0, "layers": {}, "counters": {}}
    metrics = per_layer_metrics([one_pass], [one_pass])
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
