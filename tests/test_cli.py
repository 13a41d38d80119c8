"""End-to-end checks of the command-line front end via main(argv)."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from edlkit import states
from edlkit.cli import main
from edlkit.robustness import default_grid, tolerance_curve
from edlkit.sdp import SolverTolerances
from edlkit.witness import load_paper_witness, projector_witness


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- synth -------------------------------------------------------------------

def test_synth_detects_d4_pairs(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _, err = run(
        capsys, "synth", "--state", "d4", "--family", "12,23,34,14,13,24",
        "--out", str(out),
    )
    assert code == 0
    assert "alpha=-0.0284" in err and "detected=yes" in err
    data = json.loads(out.read_text())
    assert data["alpha"] == pytest.approx(-0.0285, abs=1e-3)
    assert data["p_noise"] == pytest.approx(0.3131, abs=2e-3)
    assert data["target_state"] == "D4"
    assert len(data["certificates"]) == 7
    for cert in data["certificates"].values():
        assert cert["residual"] < 1e-7
        p = np.array([[a + 1j * b for a, b in row] for row in cert["P"]])
        assert p.shape == (16, 16)
        assert np.min(np.linalg.eigvalsh((p + p.conj().T) / 2)) > -1e-8


def test_synth_stdout_when_no_out_flag(capsys):
    code, out, _ = run(capsys, "synth", "--state", "w3", "--family", "12,23,13")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == pytest.approx(-0.0546, abs=1e-3)
    assert data["label"] == "W3:12,23,13"


def test_synth_not_detected_exits_3(capsys):
    code, out, err = run(capsys, "synth", "--state", "w3", "--family", "1,2,3")
    assert code == 3
    assert "detected=no" in err
    assert json.loads(out)["p_noise"] is None


def test_synth_custom_label(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "synth", "--state", "c4", "--family", "123,124,134,234",
        "--label", "c4 triples", "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["label"] == "c4 triples"


@pytest.mark.parametrize("family", ["", "12,99", "12,0", "1a", "12,,23"])
def test_synth_bad_family_exits_2(capsys, family):
    code, _, err = run(capsys, "synth", "--state", "w3", "--family", family)
    assert code == 2
    assert "error:" in err


def test_synth_unknown_state_exits_2(capsys):
    code, _, _ = run(capsys, "synth", "--state", "ghz9", "--family", "12")
    assert code == 2


def test_synth_solver_failure_exits_4(capsys):
    code, _, err = run(
        capsys, "synth", "--state", "w3", "--family", "12,23", "--max-iter", "2",
    )
    assert code == 4
    assert "solver failure" in err


# --- eval --------------------------------------------------------------------

def test_eval_catalog_witness(capsys):
    code, out, err = run(capsys, "eval", "--witness", "D4-5", "--state", "d4", "--noise", "0.31")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    assert float(rows[0]["value"]) < 0
    assert float(rows[0]["p_noise"]) == pytest.approx(0.3132, abs=1e-3)
    assert "detected=yes" in err


def test_eval_defaults_to_target_state(capsys):
    code, out, _ = run(capsys, "eval", "--witness", "W3-1", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["state"] == "W3"
    assert row["value"] == pytest.approx(-0.0285, abs=5e-4)


def test_eval_above_threshold_exits_3(capsys):
    code, _, err = run(capsys, "eval", "--witness", "D4-5", "--noise", "0.35")
    assert code == 3
    assert "detected=no" in err


def test_eval_saved_witness_file(tmp_path, capsys):
    out = tmp_path / "w.json"
    run(capsys, "synth", "--state", "d4", "--family", "12,23,34,14,13,24", "--out", str(out))
    code, _, err = run(capsys, "eval", "--witness", str(out), "--noise", "0.2")
    assert code == 0
    assert "detected=yes" in err


def test_eval_witness_without_target_needs_state(tmp_path, capsys):
    from edlkit.witness import load_paper_witness

    w = load_paper_witness("D4", 5)
    data = w.to_json_dict()
    del data["target_state"]
    path = tmp_path / "anon.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "eval", "--witness", str(path))
    assert code == 2
    assert "pass --state" in err
    code, _, _ = run(capsys, "eval", "--witness", str(path), "--state", "d4")
    assert code == 0


def test_eval_dimension_mismatch_exits_2(capsys):
    code, _, _ = run(capsys, "eval", "--witness", "D4-5", "--state", "w3")
    assert code == 2


@pytest.mark.parametrize("noise", ["-0.1", "1.0"])
def test_eval_noise_range(capsys, noise):
    code, _, _ = run(capsys, "eval", "--witness", "D4-5", "--noise", noise)
    assert code == 2


def test_eval_unknown_catalog_label(capsys):
    code, _, _ = run(capsys, "eval", "--witness", "D4-9")
    assert code == 2


# --- robustness ----------------------------------------------------------------

def test_robustness_compare_projector(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    code, out, err = run(
        capsys, "robustness", "--witness", "D4-5", "--compare", "projector",
        "--mode", "all", "--theta", "0:0.6:0.005", "--out", str(curves),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["crossover"] == pytest.approx(0.2649, abs=5e-4)
    assert summary["points"] == 121
    assert "crossover=0.26" in err
    with open(curves, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 121
    assert float(rows[0]["tolerance_b"]) == pytest.approx(16 / 45, abs=1e-9)
    # every written theta and tolerance reads back as the evaluated point
    d4 = states.density(states.make_state("D4"))
    curves = [
        tolerance_curve(w, d4, default_grid())
        for w in (load_paper_witness("D4", 5), projector_witness(states.make_state("D4")))
    ]
    points = zip(curves[0].thetas, curves[0].tolerances, curves[1].tolerances)
    for row, point in zip(rows, points):
        read = [None if text == "" else float(text) for text in row.values()]
        assert read == list(point)


def test_robustness_curves_csv_roundtrip(tmp_path, capsys):
    path = tmp_path / "curves.csv"
    code, _, _ = run(
        capsys, "robustness", "--witness", "W3-1", "--compare", "projector",
        "--theta", "0:1.2:0.1", "--out", str(path),
    )
    assert code == 0
    w3 = states.density(states.make_state("W3"))
    curve = tolerance_curve(load_paper_witness("W3", 1), w3, default_grid(stop=1.2, step=0.1))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(curve.thetas)
    assert list(rows[0]) == ["theta", "tolerance_a", "tolerance_b"]
    assert None in curve.tolerances  # the witness goes blind inside the grid
    for row, theta, ta in zip(rows, curve.thetas, curve.tolerances):
        assert float(row["theta"]) == theta
        if ta is None:
            assert row["tolerance_a"] == ""
        else:
            assert float(row["tolerance_a"]) == ta  # repr() round-trips exactly


def test_robustness_y_mode(capsys):
    code, out, err = run(
        capsys, "robustness", "--witness", "D4-5", "--compare", "projector", "--mode", "y",
    )
    assert code == 0
    summary = json.loads(err.splitlines()[0])
    assert summary["crossover"] == pytest.approx(0.2937, abs=5e-4)
    # without --out the curve CSV goes to stdout
    assert out.startswith("theta,tolerance_a,tolerance_b")


def test_robustness_no_crossing_reports_note(capsys):
    code, out, _ = run(
        capsys, "robustness", "--witness", "D4-5", "--compare", "D4-5", "--out", "/dev/null",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["crossover"] is None
    assert "note" in summary


def test_robustness_bad_mode_and_grid(capsys):
    code, _, _ = run(capsys, "robustness", "--witness", "D4-5", "--compare", "projector", "--mode", "q")
    assert code == 2
    code, _, _ = run(
        capsys, "robustness", "--witness", "D4-5", "--compare", "projector", "--theta", "0.6:0:0.01",
    )
    assert code == 2


def test_robustness_compare_qubit_count_mismatch_exits_2(tmp_path, capsys):
    path = tmp_path / "w3.json"
    load_paper_witness("W3", 1).save(path)
    code, _, err = run(capsys, "robustness", "--witness", "D4-5", "--compare", str(path))
    assert code == 2
    assert "dimension mismatch between expression and state" in err


# --- edl -----------------------------------------------------------------------

def test_edl_scan_w3(capsys):
    code, out, err = run(capsys, "edl", "--state", "w3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["subset_size"] for r in rows] == [1, 2, 3]
    assert [r["detected"] for r in rows] == [False, True, True]
    assert "smallest detecting subset size = 2" in err


def test_edl_csv_empty_p_noise_when_undetected(capsys):
    code, out, _ = run(capsys, "edl", "--state", "w3")
    rows = list(csv.DictReader(out.splitlines()))
    assert rows[0]["p_noise"] == ""
    assert rows[0]["detected"] == "False"
    assert code == 0


# --- CSV / JSON equivalence -------------------------------------------------------

D4A = "src/edlkit/data/tables/d4a.csv"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("eval", "--witness", "D4-5", "--state", "d4", "--noise", "0.31"), id="eval"),
        pytest.param(("edl", "--state", "w3"), id="edl"),
        pytest.param(("estimate", "--expectations", D4A, "--witness", "D4-5"), id="estimate-witness"),
        pytest.param(("estimate", "--expectations", D4A, "--fidelity", "d4"), id="estimate-fidelity"),
    ],
)
def test_csv_and_json_carry_identical_values(capsys, argv):
    code_csv, out_csv, _ = run(capsys, *argv, "--format", "csv")
    code_json, out_json, _ = run(capsys, *argv, "--format", "json")
    assert code_csv == code_json
    rows_csv = list(csv.DictReader(out_csv.splitlines()))
    rows_json = json.loads(out_json)
    assert len(rows_csv) == len(rows_json) >= 1
    for text_row, row in zip(rows_csv, rows_json):
        assert list(text_row) == list(row)
        for key, value in row.items():
            text = text_row[key]
            if value is None:  # edl's p_noise where k does not detect
                assert text == "", key
            elif isinstance(value, float):
                assert float(text).hex() == value.hex(), key  # bit-equal
            else:  # booleans read True / False, integers and labels as written
                assert text == str(value), key


# --- simulate / estimate ----------------------------------------------------------

def test_simulate_witness_mode(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code, _, err = run(
        capsys, "simulate", "--witness", "D4-5", "--shots", "20000", "--seed", "3",
        "--out", str(out),
    )
    assert code == 0
    assert "detected=yes" in err and "seed=3" in err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {"operator", "value", "sigma"} == set(rows[0])


def test_simulate_same_seed_same_bytes(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    for path, seed in ((a, "7"), (b, "7"), (c, "8")):
        code, _, _ = run(
            capsys, "simulate", "--fidelity", "w3", "--shots", "5000",
            "--seed", seed, "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_counts_dir_manifest(tmp_path, capsys):
    counts = tmp_path / "counts"
    code, _, err = run(
        capsys, "simulate", "--fidelity", "d4", "--shots", "1000", "--seed", "2",
        "--counts-dir", str(counts), "--out", str(tmp_path / "r.csv"),
    )
    assert code == 0
    manifest = json.loads((counts / "manifest.json").read_text())
    assert manifest["seed"] == 2
    assert len(manifest["settings"]) == 9
    assert "wrote 9 count files" in err


def test_simulate_noisy_witness_exits_3(capsys):
    code, _, err = run(
        capsys, "simulate", "--witness", "D4-5", "--noise", "0.5",
        "--shots", "5000", "--seed", "0", "--out", "/dev/null",
    )
    assert code == 3
    assert "detected=no" in err


def test_simulate_state_fidelity_mismatch(capsys):
    code, _, _ = run(capsys, "simulate", "--fidelity", "d4", "--state", "w3")
    assert code == 2


def test_estimate_bundled_fixture_fidelity(capsys):
    code, out, _ = run(
        capsys, "estimate", "--expectations", "src/edlkit/data/tables/d4a.csv",
        "--fidelity", "d4", "--format", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["value"] == pytest.approx(0.974, abs=2e-3)
    assert row["sigma"] < 0.01


def test_estimate_bundled_fixture_witness(capsys):
    code, out, _ = run(
        capsys, "estimate", "--expectations", "src/edlkit/data/tables/d4a.csv",
        "--witness", "D4-5",
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert float(rows[0]["value"]) == pytest.approx(-0.0274, abs=1.5e-3)
    assert rows[0]["detected"] == "True"


def test_estimate_missing_file(capsys):
    code, _, _ = run(capsys, "estimate", "--expectations", "nope.csv", "--fidelity", "d4")
    assert code == 2


@pytest.mark.parametrize("target", [("--witness", "D4-5"), ("--fidelity", "d4")])
def test_estimate_missing_record_exits_2(tmp_path, capsys, target):
    rows = Path("src/edlkit/data/tables/d4a.csv").read_text().splitlines(keepends=True)
    table = tmp_path / "d4a.csv"
    table.write_text("".join(r for r in rows if not r.startswith("X1X2,")))
    assert len(table.read_text().splitlines()) == len(rows) - 1
    code, out, err = run(capsys, "estimate", "--expectations", str(table), *target)
    assert code == 2
    assert out == ""
    assert "operator 'XXII' matched 0 records, expected exactly 1" in err


def test_estimate_simulated_roundtrip(tmp_path, capsys):
    out = tmp_path / "records.csv"
    run(capsys, "simulate", "--witness", "W3-2", "--shots", "30000", "--seed", "1",
        "--out", str(out))
    code, _, err = run(capsys, "estimate", "--expectations", str(out), "--witness", "W3-2")
    assert code == 0
    assert "value=-0.05" in err


# --- config file ---------------------------------------------------------------

def test_config_file_keys_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nformat=json\nseed=9\nshots=4000\n")
    code, out, err = run(
        capsys, "simulate", "--fidelity", "w3", "--config", str(cfg),
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 0
    assert "shots=4000 seed=9" in err
    # flag beats file
    code, out, _ = run(capsys, "eval", "--witness", "D4-5", "--config", str(cfg), "--format", "csv")
    assert out.startswith("witness,")
    # file applies when no flag
    code, out, _ = run(capsys, "eval", "--witness", "D4-5", "--config", str(cfg))
    json.loads(out)


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gap=1e-8\nturbo=yes\n")
    code, _, err = run(capsys, "synth", "--state", "w3", "--family", "12", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        pytest.param(("eval", "--witness", "D4-5"), "format=xml", id="format"),
        pytest.param(("robustness", "--witness", "D4-5", "--compare", "projector"), "mode=q", id="mode"),
        pytest.param(("synth", "--state", "w3", "--family", "12,23"), "max_iter=2.5", id="max_iter"),
        pytest.param(("synth", "--state", "w3", "--family", "12,23"), "feas=1e-8", id="feas-removed"),
    ],
)
def test_config_bad_entry_exits_2(tmp_path, capsys, argv, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_solver_tolerances_are_validated(capsys):
    bad_fields = (
        {"gap": 0.0}, {"gap": -1.0}, {"gap": float("nan")},
        {"max_iter": -1}, {"max_iter": 2.5},
    )
    for bad in bad_fields:
        with pytest.raises(ValueError):
            SolverTolerances(**bad)
    # unchecked, --gap=0 divides by zero, --gap=-1 fails the line search and
    # --gap=nan runs one stage to a false "detected=no"
    for flag in ("--gap=0", "--gap=-1", "--gap=nan", "--max-iter=-1"):
        code, out, err = run(capsys, "synth", "--state", "w3", "--family", "12,23", flag)
        assert code == 2, flag
        assert out == "" and "error:" in err


def test_config_missing_file(capsys):
    code, _, _ = run(capsys, "edl", "--state", "w3", "--config", "missing.cfg")
    assert code == 2


# --- state files -----------------------------------------------------------------

def test_npy_state_inputs(tmp_path, capsys):
    vec = tmp_path / "vec.npy"
    mat = tmp_path / "rho.npy"
    np.save(vec, states.make_state("W3"))
    np.save(mat, states.density(states.make_state("W3")))
    for path in (vec, mat):
        code, _, err = run(capsys, "synth", "--state", str(path), "--family", "12,23,13")
        assert code == 0
        assert "alpha=-0.054" in err


def test_npy_rejects_non_density(tmp_path, capsys):
    bad = tmp_path / "bad.npy"
    np.save(bad, np.eye(4, dtype=complex))  # trace 4
    code, _, err = run(capsys, "eval", "--witness", "D4-5", "--state", str(bad))
    assert code == 2
