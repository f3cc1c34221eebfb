"""Command-line surface: reproducible, machine-readable access to everything.

All numeric output is JSON by default (CSV for the tabular subcommands via
--format csv), floats printed with 17 significant digits so values round-trip
exactly (``circuit`` writes :func:`lmg.circuit.export_circuit`'s JSON, whose
floats take Python's shortest round-trip form), and every command is
deterministic given its flags and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bethe import solve_bethe, solve_levels
from .circuit import MODES, build_circuit, export_circuit, import_circuit, linear_angles, log_angles
from .errors import InvalidArgumentError, LmgError, NumericFailureError
from .model import (
    SectorConfig,
    exact_spectrum,
    ladder_occupations,
    make_params,
    sector_configs,
)
from .simulator import encoded_expectation, run
from .verify import available_checks, run_checks
from .vqe import VqeOptions, benchmark, optimize


def _format_float(value: float) -> str:
    return f"{value:.17g}"


def _to_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys.

    NaN is written as null; an infinite value raises NumericFailureError.
    """
    if isinstance(obj, dict):
        items = ", ".join(f'"{key}": {_to_json(obj[key])}' for key in sorted(obj))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(item) for item in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value:
            return "null"
        if math.isinf(value):
            raise NumericFailureError(f"result {value} cannot be written as JSON")
        return _format_float(value)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit_json(payload) -> None:
    sys.stdout.write(_to_json(payload) + "\n")


def _column_order(key: str) -> tuple[str, int, str]:
    """Sort key by stem, then numeric suffix, so ``e2`` precedes ``e10``."""
    stem = key.rstrip("0123456789")
    return stem, int(key[len(stem):]) if len(stem) < len(key) else -1, key


def _emit_csv(rows: list[dict], columns: tuple[str, ...] = ()) -> None:
    """Header of sorted keys (numeric suffixes in number order), then one line per row.

    ``columns`` names keys that head the table even when ``rows`` is empty.
    """
    keys = sorted({*columns, *(key for row in rows for key in row)}, key=_column_order)
    sys.stdout.write(",".join(keys) + "\n")
    for row in rows:
        cells = []
        for key in keys:
            value = row.get(key)
            if isinstance(value, float):
                cells.append(_format_float(value))
            elif value is None:
                cells.append("")
            else:
                cells.append(str(value))
        sys.stdout.write(",".join(cells) + "\n")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc}") from exc


def _parse_sector(text: str, n: int) -> SectorConfig:
    try:
        nu_a, nu_b = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidArgumentError(f"--sector expects 'NU_A,NU_B', got {text!r}") from exc
    for config in sector_configs(n):
        if (config.nu_a, config.nu_b) == (nu_a, nu_b):
            return config
    raise InvalidArgumentError(f"sector ({nu_a},{nu_b}) is impossible for N={n}")


def _spectrum_rows(params) -> list[dict]:
    """One row per level: each sector's levels with its Bethe solutions, then
    all of them ordered as in :func:`lmg.model.exact_spectrum` and numbered."""
    rows = []
    for config in sector_configs(params.n):
        for level in solve_levels(config, params):
            row = {**asdict(config), "omega_exact": level.omega, "sector_index": level.index}
            if level.solution is not None:
                row["omega_bethe"] = level.solution.omega
                row["bethe_residual"] = level.solution.residual_norm
            rows.append(row)
    rows.sort(key=lambda row: (row["omega_exact"], row["nu_b"]))
    for index, row in enumerate(rows, start=1):
        row["index"] = index
    return rows


def _eigenpair(params, index: int):
    pairs = exact_spectrum(params)
    if not 1 <= index <= len(pairs):
        raise InvalidArgumentError(f"--index must lie in 1..{len(pairs)}, got {index}")
    return pairs[index - 1]


def _angles_for(params, index: int, depth: str):
    omega, state = _eigenpair(params, index)
    angles = linear_angles(state.amps) if depth == "linear" else log_angles(state.amps)
    return omega, state.sector, angles


def _cmd_spectrum(args) -> int:
    params = make_params(args.n, args.v, args.w)
    rows = _spectrum_rows(params)
    if args.format == "csv":
        _emit_csv(rows)
    else:
        _emit_json({"params": {"n": params.n, "v": params.v, "w": params.w}, "levels": rows})
    return 0


def _cmd_bethe(args) -> int:
    params = make_params(args.n, args.v, args.w)
    config = _parse_sector(args.sector, args.n)
    rows = []
    for sol in solve_bethe(config, params):
        row = {"index": sol.index, "omega": sol.omega, "residual_norm": sol.residual_norm}
        if args.format == "csv":
            row.update((f"e{i}", e) for i, e in enumerate(sol.energies, start=1))
        else:
            row["pairons"] = list(sol.energies)
        rows.append(row)
    if args.format == "csv":
        _emit_csv(rows)
    else:
        _emit_json({"sector": asdict(config), "solutions": rows})
    return 0


def _cmd_state(args) -> int:
    params = make_params(args.n, args.v, args.w)
    omega, state = _eigenpair(params, args.index)
    occupations = [list(pair) for pair in zip(*ladder_occupations(params.n, state.parity))]
    payload = {
        "index": args.index,
        "omega": omega,
        "sector": asdict(state.sector),
        "amplitudes": list(state.amps),
        "occupations": occupations,
    }
    if args.format == "csv":
        _emit_csv(
            [
                {"n_a": occ[0], "n_b": occ[1], "amplitude": amp}
                for occ, amp in zip(occupations, state.amps)
            ]
        )
    else:
        _emit_json(payload)
    return 0


def _cmd_angles(args) -> int:
    params = make_params(args.n, args.v, args.w)
    omega, config, angles = _angles_for(params, args.index, args.depth)
    payload = {
        "index": args.index,
        "omega": omega,
        "sector": asdict(config),
        "depth": args.depth,
        "thetas": list(angles.thetas),
    }
    if args.format == "csv":
        rows = [{"j": j + 1, "theta": t} for j, t in enumerate(angles.thetas)]
        _emit_csv(rows, columns=("j", "theta"))
    else:
        _emit_json(payload)
    return 0


def _cmd_circuit(args) -> int:
    params = make_params(args.n, args.v, args.w)
    _, _, angles = _angles_for(params, args.index, args.depth)
    text = export_circuit(build_circuit(angles), args.format)
    _write_text(args.out, text if text.endswith("\n") else text + "\n")
    return 0


def _cmd_simulate(args) -> int:
    circ = import_circuit(_read_text(args.circuit))
    state = run(circ)
    block = state.one_hot_block()
    payload = {
        "num_qubits": circ.num_qubits,
        "one_hot_amplitudes": [float(a.real) for a in block],
        "leakage": state.one_hot_leakage(),
    }
    if args.report_energy:
        if args.n is None or args.v is None or args.w is None:
            raise InvalidArgumentError("--report-energy needs --n, --v and --w")
        params = make_params(args.n, args.v, args.w)
        if args.sector is not None:
            config = _parse_sector(args.sector, args.n)
        else:
            fits = [c for c in sector_configs(args.n) if c.m + 1 == circ.num_qubits]
            if not fits:
                raise InvalidArgumentError(
                    f"a circuit of {circ.num_qubits} qubits fits no sector of N={args.n}"
                )
            if len(fits) > 1:  # odd N: both sectors hold M pairs
                raise InvalidArgumentError(
                    "odd-particle circuits need --sector to pick (nu_a, nu_b)"
                )
            (config,) = fits
        # encoded_expectation refuses a sector whose M + 1 is not the circuit's width
        payload["energy"] = encoded_expectation(state, config, params)
        payload["sector"] = asdict(config)
    _emit_json(payload)
    return 0


def _cmd_vqe(args) -> int:
    params = make_params(args.n, args.v, args.w)
    if args.sector is not None:
        config = _parse_sector(args.sector, args.n)
    else:
        config = exact_spectrum(params)[0][1].sector
    opts = VqeOptions(
        restarts=args.restarts,
        seed=args.seed,
        estimator="sampled" if args.shots else "exact",
        shots=args.shots or 0,
        warm=args.warm,
        depth=args.depth,
    )
    result = optimize(config, params, opts)
    _emit_json(
        {
            "sector": asdict(config),
            "estimator": result.estimator,
            "seed": result.seed,
            "best_energy": result.best_energy,
            "exact_energy": result.exact_energy,
            "abs_error": result.abs_error,
            "evaluations": result.evaluations,
            "converged": result.converged,
            "thetas": list(result.best_thetas.thetas),
        }
    )
    return 0


def _cmd_benchmark(args) -> int:
    params = make_params(args.n, args.v, args.w)
    budgets = tuple(None if b == 0 else b for b in args.shots) if args.shots else ()
    report = benchmark(params, VqeOptions(restarts=args.restarts, seed=args.seed), budgets)
    _write_text(args.out, _to_json(report) + "\n")
    return 0


def _cmd_verify(args) -> int:
    names = args.only or None
    if args.list:
        for name in available_checks():
            sys.stdout.write(name + "\n")
        return 0
    results = run_checks(names)
    failed = 0
    for result in results:
        status = "ok  " if result.passed else "FAIL"
        sys.stdout.write(f"{status} {result.name:14s} {result.seconds:7.2f}s  {result.detail}\n")
        failed += not result.passed
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="particle count")
    parser.add_argument("--v", type=float, required=True, help="pair-exchange strength V")
    parser.add_argument("--w", type=float, required=True, help="density-density strength W")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmg",
        description="Exact LMG spectra, eigenstate circuits, and VQE benchmarking.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="full exact + pair-energy spectrum table")
    _add_instance_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("bethe", help="spectral parameters of one sector")
    _add_instance_flags(p)
    p.add_argument("--sector", required=True, help="fiducial occupations, e.g. 1,0")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_bethe)

    p = sub.add_parser("state", help="eigenstate amplitudes by energy index")
    _add_instance_flags(p)
    p.add_argument("--index", type=int, required=True, help="1 = ground state")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("angles", help="rotation angles preparing an eigenstate")
    _add_instance_flags(p)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--depth", choices=MODES, default=VqeOptions.depth)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("circuit", help="export a preparation circuit")
    _add_instance_flags(p)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--depth", choices=MODES, default=VqeOptions.depth)
    p.add_argument("--format", choices=("json", "qasm"), default="json")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser("simulate", help="run a circuit JSON file")
    p.add_argument("--circuit", required=True, help="path to circuit JSON")
    p.add_argument("--report-energy", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--v", type=float)
    p.add_argument("--w", type=float)
    p.add_argument("--sector", help="fiducial occupations for --report-energy")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("vqe", help="variational optimization against exact answers")
    _add_instance_flags(p)
    p.add_argument("--sector", help="fiducial occupations; default: ground sector")
    p.add_argument("--seed", type=int, default=VqeOptions.seed)
    p.add_argument("--shots", type=int, default=0, help="0 = exact estimator")
    p.add_argument("--restarts", type=int, default=VqeOptions.restarts)
    p.add_argument("--warm", action="store_true")
    p.add_argument("--depth", choices=MODES, default=VqeOptions.depth)
    p.set_defaults(func=_cmd_vqe)

    p = sub.add_parser("benchmark", help="full per-eigenstate scorecard (report JSON)")
    _add_instance_flags(p)
    p.add_argument("--shots", type=int, nargs="*", help="VQE shot budgets; 0 = exact")
    p.add_argument("--seed", type=int, default=VqeOptions.seed)
    p.add_argument("--restarts", type=int, default=VqeOptions.restarts)
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("verify", help="run the bundled fixture and invariant checks")
    p.add_argument("--only", nargs="*", help="subset of checks to run")
    p.add_argument("--list", action="store_true", help="list available checks")
    p.set_defaults(func=_cmd_verify)

    return parser


def _silence_stdout() -> None:
    """Point stdout at the null device, so the interpreter's final flush cannot raise."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:  # --help, --version or a usage error, already printed
        try:
            sys.stdout.flush()
        except BrokenPipeError:  # the reader closed stdout: keep the exit code, end quietly
            _silence_stdout()
        raise
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout: end quietly, exit 1
        _silence_stdout()
        return 1
    except LmgError as exc:
        kind, message = type(exc).__name__, str(exc)
    except MemoryError as exc:  # numpy raises it as a private subclass
        kind, message = "MemoryError", str(exc)
    sys.stderr.write(_to_json({"error": {"type": kind, "message": message}}) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
