"""Command-line front end.

Subcommands expose the library as reproducible batch operations:

  synth       solve the subset-family program for a state, emit a witness JSON
  eval        evaluate a witness on a (noisy) state
  robustness  misalignment tolerance sweep for two witnesses + crossover angle
  edl         per-subset-size scan and the smallest detecting size
  simulate    plan settings, draw counts, estimate a witness or fidelity
  estimate    recompute a witness or fidelity from an expectation CSV

Options that a flag or a ``--config`` line can set are listed once, with
their parser and default, in ``_OPTIONS``: a flag beats a config entry,
which beats the default. A subcommand ignores the config keys it does not
take, so one file can serve several subcommands.

Conventions: stdout (or --out) carries data, stderr carries one-line
summaries and diagnostics. Payloads go out as CSV/JSON rows or as one JSON
document; simulate's expectation CSV and count files use the formats that
``measure`` reads back. Printed numbers use 6 significant digits; CSV and
JSON payloads carry full precision. Exit codes: 0 success, 2 input error,
3 "not detected", 4 solver failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys

import numpy as np

from . import measure, pauli, robustness, states, witness as witness_mod
from .sdp import SolverError, SolverTolerances, edl_scan, synthesize
from .witness import Witness, evaluate, p_noise, projector_witness


class InputError(Exception):
    """User-facing problem with arguments or input files (exit code 2)."""


# --- loading helpers -----------------------------------------------------

_LABEL_RE = re.compile(r"([WDC][34])-([1-9])", re.IGNORECASE)
_MAX_GRID_POINTS = 10**6  # --theta grids, checked before building; the default has 121


def _load_state(text: str) -> tuple[np.ndarray, str]:
    """Density matrix from a state name (w3/w4/d4/c4) or a .npy file."""
    if text.upper() in states.STATE_NAMES:
        name = text.upper()
        return states.density(states.make_state(name)), name
    try:
        arr = np.load(text)
    except OSError as exc:
        raise InputError(f"state {text!r}: not a state name and not a readable .npy file ({exc})")
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 1:
        return states.density(arr), text
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        try:
            return states.assert_density(arr), text
        except ValueError as exc:
            raise InputError(f"state file {text!r}: {exc}")
    raise InputError(f"state file {text!r}: expected a vector or a square matrix")


def _load_witness(text: str) -> Witness:
    """Witness from a catalog label like D4-5 or from a JSON file."""
    m = _LABEL_RE.fullmatch(text.strip())
    if m:
        return witness_mod.load_paper_witness(m.group(1).upper(), int(m.group(2)))
    try:
        return Witness.load(text)
    except OSError as exc:
        raise InputError(f"witness {text!r}: not a catalog label and not a readable file ({exc})")
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"witness file {text!r}: {exc}")


def _target_state(args, label: str, n: int, own: str | None) -> tuple[np.ndarray, str]:
    """Density matrix and name of --state, else of the target's own state,
    checked to act on the target's n qubits."""
    text = args.state or own
    if text is None:
        raise InputError(f"{label} has no target state; pass --state")
    rho, name = _load_state(text)
    if rho.shape[0] != 2**n:
        raise InputError(f"{label} acts on {n} qubits, state dimension is {rho.shape[0]}")
    return rho, name


def _measured(args):
    """The --witness or --fidelity target of simulate and estimate: its label,
    qubit count and own state, the settings and operators that measure it, and
    the map from the operators' records to its (value, sigma)."""
    if args.witness is not None:
        w = _load_witness(args.witness)
        plan = measure.plan_settings(w.expr)
        return (
            w.label, w.expr.n, w.target_state, [setting for setting, _ in plan],
            [word for _, words in plan for word in words],
            lambda records: measure.combine(records, w.expr),
        )
    state = args.fidelity.upper()
    if state not in states.STATE_NAMES:
        raise InputError(f"unknown state {args.fidelity!r}")
    plan = measure.fidelity_settings(state)
    return (
        f"F({state})", plan.n, state, plan.settings, [text for _, text in plan.record_combo],
        lambda records: measure.combine_plan(records, plan),
    )


def _read_records(path: str, n: int):
    try:
        return measure.read_expectation_csv(path, n)
    except (OSError, ValueError) as exc:
        raise InputError(f"expectations {path!r}: {exc}")


def _parse_family(text: str, n: int) -> tuple[frozenset[int], ...]:
    """Comma-separated digit strings, e.g. '12,23,34' -> subset family."""
    subsets = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk or not chunk.isdigit():
            raise InputError(f"family {text!r}: bad subset {chunk!r} (digit string expected)")
        qubits = frozenset(int(c) for c in chunk)
        if len(qubits) != len(chunk):
            raise InputError(f"family {text!r}: repeated qubit in subset {chunk!r}")
        if min(qubits) < 1 or max(qubits) > n:
            raise InputError(f"family {text!r}: subset {chunk!r} out of range 1..{n}")
        if qubits not in subsets:
            subsets.append(qubits)
    if not subsets:
        raise InputError("family must contain at least one subset")
    return tuple(subsets)


def _parse_grid(text: str) -> tuple[float, ...]:
    """'start:stop:step' -> inclusive ascending grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid {text!r}: expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise InputError(f"grid {text!r}: non-numeric field")
    if not all(map(math.isfinite, (start, stop, step))):
        raise InputError(f"grid {text!r}: fields must be finite")
    if step <= 0 or stop <= start:
        raise InputError(f"grid {text!r}: need step > 0 and stop > start")
    span = (stop - start) / step  # inf when the quotient overflows
    if not span + 1 <= _MAX_GRID_POINTS:
        raise InputError(f"grid {text!r}: more than {_MAX_GRID_POINTS} points")
    count = int(round(span))
    return tuple(start + i * step for i in range(count + 1) if start + i * step <= stop + 1e-12)


# --- options -------------------------------------------------------------

_MODES = {"all": "all_axes", "y": "y_only", **{mode: mode for mode in robustness.MODES}}

# Every option a flag or a config line can set: key -> (parser, default as
# the text a flag would give, help). A parser raises KeyError or ValueError
# on text it does not take.
_OPTIONS = {
    "gap": (float, str(SolverTolerances.gap), "duality-gap tolerance"),
    "max_iter": (int, str(SolverTolerances.max_iter), "Newton-step cap"),
    "format": ({"csv": "csv", "json": "json"}.__getitem__, "csv", "payload format, csv or json"),
    "mode": (_MODES.__getitem__, "all", "misaligned axes, all or y"),
    "theta": (_parse_grid, "0:0.6:0.005", "sweep grid start:stop:step"),
    "shots": (int, "100000", "shots per setting"),
    "seed": (int, "0", "base seed"),
}


def _read_config(path: str | None) -> dict[str, str]:
    """key=value lines; '#' comments; unknown keys are input errors."""
    if path is None:
        return {}
    cfg: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _OPTIONS:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                cfg[key] = value
    except OSError as exc:
        raise InputError(f"config {path!r}: {exc}")
    return cfg


def _resolve_options(args) -> None:
    """Replace each option the subcommand takes by its parsed value: the
    flag, else the config entry, else the default."""
    cfg = _read_config(args.config)
    for key, (parse, default, _) in _OPTIONS.items():
        if key not in vars(args):
            continue
        text = getattr(args, key)
        if text is None:
            text = cfg.get(key, default)
        try:
            setattr(args, key, parse(text))
        except (KeyError, ValueError):
            raise InputError(f"{key}: bad value {text!r}")


# --- output helpers ------------------------------------------------------


def _open_out(path: str | None):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _write_json(doc, out: str | None) -> None:
    with _open_out(out) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _write_rows(rows: list[dict], fmt: str, out: str | None) -> None:
    """Tabular output; CSV and JSON encode identical full-precision values
    (a CSV float by repr, None as an empty field)."""
    if fmt == "json":
        _write_json(rows, out)
        return
    with _open_out(out) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: ("" if v is None else repr(v) if isinstance(v, float) else v) for k, v in row.items()}
            )


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _g(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def _verdict(args, label: str, value: float, sigma: float, detail: str = "") -> int:
    """The one-line summary of simulate and estimate, and their exit code: 3
    for a witness that does not detect, else 0."""
    summary = f"{label}: value={_g(value)} sigma={_g(sigma)}{detail}"
    if args.witness is None:
        _say(summary)
        return 0
    _say(f"{summary} detected={'yes' if value < 0 else 'no'}")
    return 0 if value < 0 else 3


def _matrix_pairs(mat: np.ndarray) -> list[list[list[float]]]:
    """Row-major [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def _part_key(part: frozenset[int]) -> str:
    return "".join(str(q) for q in sorted(part))


# --- subcommands ---------------------------------------------------------


def cmd_synth(args) -> int:
    tol = SolverTolerances(gap=args.gap, max_iter=args.max_iter)
    rho, state_name = _load_state(args.state)
    n = rho.shape[0].bit_length() - 1
    family = _parse_family(args.family, n)
    result = synthesize(rho, family, tol)
    label = args.label or f"{state_name}:{args.family}"
    w = result.witness(family, label=label, target_state=state_name if state_name in states.STATE_NAMES else None)

    payload = w.to_json_dict()
    certificates = {}
    max_residual = 0.0
    w_matrix = w.expr.matrix()
    for part, (p_mat, q_mat) in result.solution.certificates.items():
        recon = p_mat + pauli.partial_transpose(q_mat, sorted(part))
        residual = float(np.linalg.norm(w_matrix - recon))
        max_residual = max(max_residual, residual)
        certificates[_part_key(part)] = {
            "P": _matrix_pairs(p_mat),
            "Q": _matrix_pairs(q_mat),
            "residual": residual,
        }
    payload["certificates"] = certificates
    payload["duality_gap"] = result.solution.duality_gap
    payload["iterations"] = result.solution.iterations

    _write_json(payload, args.out)
    _say(
        f"alpha={_g(result.alpha)} p_noise={_g(result.p_noise)} "
        f"detected={'yes' if result.detected else 'no'} max_residual={_g(max_residual)}"
    )
    return 0 if result.detected else 3


def cmd_eval(args) -> int:
    w = _load_witness(args.witness)
    rho, state_name = _target_state(args, w.label, w.expr.n, w.target_state)
    if not 0.0 <= args.noise < 1.0:
        raise InputError("--noise must lie in [0, 1)")
    noisy = states.white_noise(rho, args.noise)
    value = evaluate(w.expr, noisy)
    tol_noise = p_noise(w.expr, rho)
    row = {
        "witness": w.label,
        "state": state_name,
        "noise": args.noise,
        "value": value,
        "p_noise": tol_noise,
        "detected": bool(value < 0),
    }
    _write_rows([row], args.format, args.out)
    _say(f"value={_g(value)} p_noise={_g(tol_noise)} detected={'yes' if value < 0 else 'no'}")
    return 0 if value < 0 else 3


def cmd_robustness(args) -> int:
    w_a = _load_witness(args.witness)
    rho, state_name = _target_state(args, w_a.label, w_a.expr.n, w_a.target_state)
    if args.compare.strip().lower() == "projector":
        if state_name not in states.STATE_NAMES:
            raise InputError("--compare projector needs a named state")
        w_b = projector_witness(states.make_state(state_name), label=f"{state_name} projector")
    else:
        w_b = _load_witness(args.compare)
    grid, mode = args.theta, args.mode
    curve_a = robustness.tolerance_curve(w_a, rho, grid, mode)
    curve_b = robustness.tolerance_curve(w_b, rho, grid, mode)
    summary = {
        "witness_a": w_a.label,
        "witness_b": w_b.label,
        "state": state_name,
        "mode": mode,
        "theta_start": grid[0],
        "theta_stop": grid[-1],
        "points": len(grid),
        "crossover": None,
    }
    try:
        summary["crossover"] = robustness.crossover(w_a, w_b, rho, mode)
    except ValueError as exc:
        summary["note"] = str(exc)
    rows = [
        {"theta": theta, "tolerance_a": ta, "tolerance_b": tb}
        for theta, ta, tb in zip(curve_a.thetas, curve_a.tolerances, curve_b.tolerances)
    ]
    _write_rows(rows, "csv", args.out)
    if args.out is not None:
        _write_json(summary, None)
    else:
        _say(json.dumps(summary))
    _say(f"crossover={_g(summary['crossover'])} mode={mode}")
    return 0


def cmd_edl(args) -> int:
    tol = SolverTolerances(gap=args.gap, max_iter=args.max_iter)
    rho, state_name = _load_state(args.state)
    scan = edl_scan(rho, tol)
    rows = [
        {"subset_size": k, "alpha": res.alpha, "p_noise": res.p_noise, "detected": res.detected}
        for k, res in sorted(scan.items())
    ]
    _write_rows(rows, args.format, args.out)
    detecting = [row["subset_size"] for row in rows if row["detected"]]
    if detecting:
        _say(f"{state_name}: smallest detecting subset size = {detecting[0]}")
    else:
        _say(f"{state_name}: no detecting subset size up to {rho.shape[0].bit_length() - 1}")
    return 0


def cmd_simulate(args) -> int:
    if args.shots < 1:
        raise InputError("--shots must be at least 1")
    label, n, own_state, settings, operators, combine = _measured(args)
    rho, _ = _target_state(args, label, n, own_state)
    if args.noise:
        rho = states.white_noise(rho, args.noise)
    tables = measure.simulate_counts(rho, settings, args.shots, args.seed)
    ops = [measure.parse_operator(text, n) for text in operators]
    records = measure.estimate_expectations(tables, ops)
    value, sigma = combine(records)
    with _open_out(args.out) as fh:
        measure.write_expectation_csv(fh, records)
    if args.counts_dir is not None:
        os.makedirs(args.counts_dir, exist_ok=True)
        manifest = measure.write_count_files(args.counts_dir, tables, args.seed)
        _say(f"wrote {len(manifest['settings'])} count files to {args.counts_dir}")
    return _verdict(args, label, value, sigma, f" shots={args.shots} seed={args.seed}")


def cmd_estimate(args) -> int:
    label, n, _, _, _, combine = _measured(args)
    value, sigma = combine(_read_records(args.expectations, n))
    row = {"target": label, "value": value, "sigma": sigma}
    if args.witness is not None:
        row["detected"] = bool(value < 0)
    _write_rows([row], args.format, args.out)
    return _verdict(args, label, value, sigma)


# --- parser --------------------------------------------------------------


def _add_options(sub, *keys: str) -> None:
    """--config, --out and the named ``_OPTIONS`` entries."""
    sub.add_argument("--config", default=None, help="key=value config file (flags win)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    for key in keys:
        _, default, text = _OPTIONS[key]
        sub.add_argument("--" + key.replace("_", "-"), dest=key, help=f"{text} (default {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edlkit",
        description="Subset-supported entanglement witnesses: synthesis, evaluation, simulation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="solve the subset-family program for a state")
    p.add_argument("--state", required=True, help="state name (w3/w4/d4/c4) or .npy file")
    p.add_argument("--family", required=True, help="comma-separated subsets, e.g. 12,23,34")
    p.add_argument("--label", default=None, help="label stored in the witness JSON")
    _add_options(p, "gap", "max_iter")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("eval", help="evaluate a witness on a (noisy) state")
    p.add_argument("--witness", required=True, help="catalog label (e.g. D4-5) or JSON file")
    p.add_argument("--state", default=None, help="state name or .npy file (default: witness target)")
    p.add_argument("--noise", type=float, default=0.0, help="white-noise fraction p")
    _add_options(p, "format")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("robustness", help="misalignment tolerance sweep and crossover")
    p.add_argument("--witness", required=True, help="catalog label or JSON file")
    p.add_argument("--compare", required=True, help="catalog label, JSON file, or 'projector'")
    p.add_argument("--state", default=None, help="state name or .npy file (default: witness target)")
    _add_options(p, "mode", "theta")
    p.set_defaults(func=cmd_robustness)

    p = subs.add_parser("edl", help="per-subset-size scan; smallest detecting size")
    p.add_argument("--state", required=True, help="state name or .npy file")
    _add_options(p, "gap", "max_iter", "format")
    p.set_defaults(func=cmd_edl)

    p = subs.add_parser("simulate", help="simulate counts and estimate a witness or fidelity")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--witness", default=None, help="catalog label or JSON file")
    group.add_argument("--fidelity", default=None, help="state name (w3/w4/d4/c4)")
    p.add_argument("--state", default=None, help="state to sample from (default: the target)")
    p.add_argument("--noise", type=float, default=0.0, help="white-noise fraction p")
    p.add_argument("--counts-dir", default=None, dest="counts_dir", help="also write raw count files here")
    _add_options(p, "shots", "seed")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("estimate", help="witness or fidelity from an expectation CSV")
    p.add_argument("--expectations", required=True, help="CSV with header operator,value,sigma")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--witness", default=None, help="catalog label or JSON file")
    group.add_argument("--fidelity", default=None, help="state name (w3/w4/d4/c4)")
    _add_options(p, "format")
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_options(args)
        return args.func(args)
    except (InputError, KeyError, ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return 2
    except SolverError as exc:
        _say(f"solver failure: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
