"""Command-line front end.

Subcommands expose the library as reproducible batch operations:

  synth       solve the subset-family program for a state, emit a witness JSON
  eval        evaluate a witness on a (noisy) state
  robustness  misalignment tolerance sweep for two witnesses + crossover angle
  edl         per-subset-size scan and the smallest detecting size
  simulate    plan settings, draw counts, estimate a witness or fidelity
  estimate    recompute a witness or fidelity from an expectation CSV

Conventions: stdout carries data (CSV/JSON), stderr carries one-line
summaries and diagnostics. Printed numbers use 6 significant digits; CSV and
JSON payloads carry full precision. Exit codes: 0 success, 2 input error,
3 "not detected", 4 solver failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys

import numpy as np

from . import measure, robustness, states, witness as witness_mod
from .sdp import SolverError, SolverTolerances, edl_scan, synthesize
from .witness import Witness, evaluate, p_noise, projector_witness


class InputError(Exception):
    """User-facing problem with arguments or input files (exit code 2)."""


# --- loading helpers -----------------------------------------------------

_LABEL_RE = re.compile(r"([WDC][34])-([1-9])", re.IGNORECASE)


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
    if step <= 0 or stop <= start:
        raise InputError(f"grid {text!r}: need step > 0 and stop > start")
    count = int(round((stop - start) / step))
    grid = tuple(start + i * step for i in range(count + 1) if start + i * step <= stop + 1e-12)
    return grid


_CONFIG_KEYS = {"gap", "feas", "max_iter", "shots", "seed", "format", "mode", "theta"}


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
                if key not in _CONFIG_KEYS:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                cfg[key] = value
    except OSError as exc:
        raise InputError(f"config {path!r}: {exc}")
    return cfg


def _pick(flag, cfg: dict[str, str], key: str, cast, fallback):
    """Flags beat config-file entries beat defaults."""
    if flag is not None:
        return flag
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError:
            raise InputError(f"config key {key}: bad value {cfg[key]!r}")
    return fallback


def _tolerances(args, cfg: dict[str, str]) -> SolverTolerances:
    defaults = SolverTolerances()
    return SolverTolerances(
        gap=_pick(args.gap, cfg, "gap", float, defaults.gap),
        feas=_pick(args.feas, cfg, "feas", float, defaults.feas),
        max_iter=_pick(args.max_iter, cfg, "max_iter", int, defaults.max_iter),
    )


# --- output helpers ------------------------------------------------------


def _open_out(path: str | None):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _emit_rows(rows: list[dict], fieldnames: list[str], fmt: str, out: str | None) -> None:
    """Tabular output; CSV and JSON encode identical full-precision values."""
    with _open_out(out) as fh:
        if fmt == "json":
            json.dump(rows, fh, indent=1)
            fh.write("\n")
            return
        import csv

        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: ("" if v is None else repr(v) if isinstance(v, float) else v) for k, v in row.items()}
            )


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _g(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def _matrix_pairs(mat: np.ndarray) -> list[list[list[float]]]:
    """Row-major [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def _part_key(part: frozenset[int]) -> str:
    return "".join(str(q) for q in sorted(part))


# --- subcommands ---------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _read_config(args.config)
    tol = _tolerances(args, cfg)
    rho, state_name = _load_state(args.state)
    n = rho.shape[0].bit_length() - 1
    family = _parse_family(args.family, n)
    result = synthesize(rho, family, tol)
    label = args.label or f"{state_name}:{args.family}"
    w = result.witness(family, label=label, target_state=state_name if state_name in states.STATE_NAMES else None)

    from . import pauli

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

    with _open_out(args.out) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    _say(
        f"alpha={_g(result.alpha)} p_noise={_g(result.p_noise)} "
        f"detected={'yes' if result.detected else 'no'} max_residual={_g(max_residual)}"
    )
    return 0 if result.detected else 3


def cmd_eval(args) -> int:
    cfg = _read_config(args.config)
    w = _load_witness(args.witness)
    state_arg = args.state or w.target_state
    if state_arg is None:
        raise InputError("witness has no target state; pass --state")
    rho, state_name = _load_state(state_arg)
    if rho.shape[0] != 2**w.expr.n:
        raise InputError(f"witness acts on {w.expr.n} qubits, state dimension is {rho.shape[0]}")
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
    fmt = _pick(args.format, cfg, "format", str, "csv")
    _emit_rows([row], list(row), fmt, args.out)
    _say(f"value={_g(value)} p_noise={_g(tol_noise)} detected={'yes' if value < 0 else 'no'}")
    return 0 if value < 0 else 3


def cmd_robustness(args) -> int:
    cfg = _read_config(args.config)
    mode_arg = _pick(args.mode, cfg, "mode", str, "all")
    mode = {"all": "all_axes", "all_axes": "all_axes", "y": "y_only", "y_only": "y_only"}.get(mode_arg)
    if mode is None:
        raise InputError(f"unknown mode {mode_arg!r} (expected all or y)")
    w_a = _load_witness(args.witness)
    state_arg = args.state or w_a.target_state
    if state_arg is None:
        raise InputError("witness has no target state; pass --state")
    rho, state_name = _load_state(state_arg)
    if args.compare.strip().lower() == "projector":
        if state_name not in states.STATE_NAMES:
            raise InputError("--compare projector needs a named state")
        w_b = projector_witness(states.make_state(state_name), label=f"{state_name} projector")
    else:
        w_b = _load_witness(args.compare)
    grid = _parse_grid(_pick(args.theta, cfg, "theta", str, "0:0.6:0.005"))
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
    with _open_out(args.out) as fh:
        robustness.write_curves_csv(fh, curve_a, curve_b)
    if args.out is not None:
        json.dump(summary, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        _say(json.dumps(summary))
    _say(f"crossover={_g(summary['crossover'])} mode={mode}")
    return 0


def cmd_edl(args) -> int:
    cfg = _read_config(args.config)
    tol = _tolerances(args, cfg)
    rho, state_name = _load_state(args.state)
    scan = edl_scan(rho, tol)
    rows = []
    edl_value = None
    for k in sorted(scan):
        res = scan[k]
        rows.append(
            {
                "subset_size": k,
                "alpha": res.alpha,
                "p_noise": res.p_noise,
                "detected": res.detected,
            }
        )
        if edl_value is None and res.detected:
            edl_value = k
    fmt = _pick(args.format, cfg, "format", str, "csv")
    _emit_rows(rows, ["subset_size", "alpha", "p_noise", "detected"], fmt, args.out)
    n = rho.shape[0].bit_length() - 1
    if edl_value is None:
        _say(f"{state_name}: no detecting subset size up to {n}")
    else:
        _say(f"{state_name}: smallest detecting subset size = {edl_value}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    shots = _pick(args.shots, cfg, "shots", int, 100_000)
    seed = _pick(args.seed, cfg, "seed", int, 0)
    if shots < 1:
        raise InputError("--shots must be at least 1")
    if args.witness is not None:
        w = _load_witness(args.witness)
        state_arg = args.state or w.target_state
        if state_arg is None:
            raise InputError("witness has no target state; pass --state")
        rho, _ = _load_state(state_arg)
        if rho.shape[0] != 2**w.expr.n:
            raise InputError(f"witness acts on {w.expr.n} qubits, state dimension is {rho.shape[0]}")
        if args.noise:
            rho = states.white_noise(rho, args.noise)
        plan = measure.plan_settings(w.expr)
        settings = [setting for setting, _ in plan]
        tables = measure.simulate_counts(rho, settings, shots, seed)
        ops = [measure.parse_operator(word, w.expr.n) for _, words in plan for word in words]
        records = measure.estimate_expectations(tables, ops)
        value, sigma = measure.combine(records, w.expr)
        target = w.label
        detected: bool | None = bool(value < 0)
    else:
        state = args.fidelity.upper()
        if state not in states.STATE_NAMES:
            raise InputError(f"unknown state {args.fidelity!r}")
        rho, _ = _load_state(args.state or state)
        plan = measure.fidelity_settings(state)
        if rho.shape[0] != 2**plan.n:
            raise InputError(f"{state} fidelity needs {plan.n} qubits, state dimension is {rho.shape[0]}")
        if args.noise:
            rho = states.white_noise(rho, args.noise)
        tables = measure.simulate_counts(rho, plan.settings, shots, seed)
        ops = [measure.parse_operator(text, plan.n) for _, text in plan.record_combo]
        records = measure.estimate_expectations(tables, ops)
        value, sigma = measure.combine_plan(records, plan)
        target = f"F({state})"
        detected = None
    with _open_out(args.out) as fh:
        measure.write_expectation_csv(fh, records)
    if args.counts_dir is not None:
        os.makedirs(args.counts_dir, exist_ok=True)
        manifest = measure.write_count_files(args.counts_dir, tables, seed)
        _say(f"wrote {len(manifest['settings'])} count files to {args.counts_dir}")
    _say(
        f"{target}: value={_g(value)} sigma={_g(sigma)} shots={shots} seed={seed}"
        + ("" if detected is None else f" detected={'yes' if detected else 'no'}")
    )
    if detected is None:
        return 0
    return 0 if detected else 3


def cmd_estimate(args) -> int:
    cfg = _read_config(args.config)
    if args.witness is not None:
        w = _load_witness(args.witness)
        n = w.expr.n
        records = _read_records(args.expectations, n)
        value, sigma = measure.combine(records, w.expr)
        target = w.label
        detected: bool | None = bool(value < 0)
    else:
        state = args.fidelity.upper()
        if state not in states.STATE_NAMES:
            raise InputError(f"unknown state {args.fidelity!r}")
        plan = measure.fidelity_settings(state)
        records = _read_records(args.expectations, plan.n)
        value, sigma = measure.combine_plan(records, plan)
        target = f"F({state})"
        detected = None
    row = {"target": target, "value": value, "sigma": sigma}
    if detected is not None:
        row["detected"] = detected
    fmt = _pick(args.format, cfg, "format", str, "csv")
    _emit_rows([row], list(row), fmt, args.out)
    _say(f"{target}: value={_g(value)} sigma={_g(sigma)}")
    if detected is None:
        return 0
    return 0 if detected else 3


def _read_records(path: str, n: int):
    try:
        return measure.read_expectation_csv(path, n)
    except OSError as exc:
        raise InputError(f"expectations {path!r}: {exc}")
    except ValueError as exc:
        raise InputError(f"expectations {path!r}: {exc}")


# --- parser --------------------------------------------------------------


def _add_solver_flags(sub) -> None:
    sub.add_argument("--gap", type=float, default=None, help="duality-gap tolerance")
    sub.add_argument("--feas", type=float, default=None, help="feasibility tolerance")
    sub.add_argument("--max-iter", type=int, default=None, dest="max_iter", help="iteration cap")


def _add_common(sub, fmt: bool = True) -> None:
    sub.add_argument("--config", default=None, help="key=value config file (flags win)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    if fmt:
        sub.add_argument("--format", choices=("csv", "json"), default=None)


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
    _add_solver_flags(p)
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("eval", help="evaluate a witness on a (noisy) state")
    p.add_argument("--witness", required=True, help="catalog label (e.g. D4-5) or JSON file")
    p.add_argument("--state", default=None, help="state name or .npy file (default: witness target)")
    p.add_argument("--noise", type=float, default=0.0, help="white-noise fraction p")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("robustness", help="misalignment tolerance sweep and crossover")
    p.add_argument("--witness", required=True, help="catalog label or JSON file")
    p.add_argument("--compare", required=True, help="catalog label, JSON file, or 'projector'")
    p.add_argument("--state", default=None, help="state name or .npy file (default: witness target)")
    p.add_argument("--mode", default=None, help="all (default) or y")
    p.add_argument("--theta", default=None, help="sweep grid start:stop:step (default 0:0.6:0.005)")
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_robustness)

    p = subs.add_parser("edl", help="per-subset-size scan; smallest detecting size")
    p.add_argument("--state", required=True, help="state name or .npy file")
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_edl)

    p = subs.add_parser("simulate", help="simulate counts and estimate a witness or fidelity")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--witness", default=None, help="catalog label or JSON file")
    group.add_argument("--fidelity", default=None, help="state name (w3/w4/d4/c4)")
    p.add_argument("--state", default=None, help="state to sample from (default: the target)")
    p.add_argument("--noise", type=float, default=0.0, help="white-noise fraction p")
    p.add_argument("--shots", type=int, default=None, help="shots per setting (default 100000)")
    p.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    p.add_argument("--counts-dir", default=None, dest="counts_dir", help="also write raw count files here")
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("estimate", help="witness or fidelity from an expectation CSV")
    p.add_argument("--expectations", required=True, help="CSV with header operator,value,sigma")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--witness", default=None, help="catalog label or JSON file")
    group.add_argument("--fidelity", default=None, help="state name (w3/w4/d4/c4)")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        _say(f"error: {exc}")
        return 2
    except SolverError as exc:
        _say(f"solver failure: {exc}")
        return 4
    except (KeyError, ValueError) as exc:
        _say(f"error: {exc}")
        return 2
    except OSError as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
