"""Command-line interface: outputs, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lmg import AngleSet, build_circuit, export_circuit
from lmg.cli import _to_json, build_parser, main
from lmg.errors import NumericFailureError
from lmg.reference import N7_ENERGY

N7_BETHE = ["bethe", "--n", "7", "--v", "0.75", "--w", "0.5", "--sector", "1,0"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _refuse_constant(name):
    raise ValueError(f"CLI JSON holds the non-standard constant {name}")


def parse_json(text):
    """Parse CLI output as strict JSON: NaN, Infinity and -Infinity are refused."""
    return json.loads(text, parse_constant=_refuse_constant)


def python(*args):
    """Run a fresh interpreter that imports the package from this source tree.

    Warnings are errors in the child too (``-W error``), as they are in-process.
    """
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_n7(capsys):
    code, out, err = invoke(capsys, "spectrum", "--n", "7", "--v", "0.75", "--w", "0.5")
    assert code == 0 and err == ""
    payload = parse_json(out)
    levels = payload["levels"]
    assert len(levels) == 8
    assert levels[0]["omega_exact"] == pytest.approx(N7_ENERGY, abs=1e-9)
    assert levels[0]["omega_bethe"] == pytest.approx(N7_ENERGY, abs=1e-9)
    assert [lvl["index"] for lvl in levels] == list(range(1, 9))


def test_spectrum_csv(capsys):
    code, out, _ = invoke(capsys, "spectrum", "--n", "3", "--v", "1.0", "--w", "0.2",
                          "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 levels
    assert "omega_exact" in lines[0]


def test_bethe_csv_orders_pair_energy_columns_by_index(capsys):
    code, out, _ = invoke(capsys, "bethe", "--n", "22", "--v", ".75", "--w", ".5",
                          "--sector", "0,0", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == [f"e{i}" for i in range(1, 12)] + ["index", "omega", "residual_norm"]


def test_bethe_n7_ground_sector(capsys):
    code, out, _ = invoke(capsys, "bethe", "--n", "7", "--v", "0.75", "--w", "0.5",
                          "--sector", "1,0")
    assert code == 0
    payload = parse_json(out)
    ground = payload["solutions"][0]
    np.testing.assert_allclose(ground["pairons"], (0.701066, 1.33363, 1.94591), atol=1e-5)


def test_state_and_angles_consistency(capsys):
    code, out, _ = invoke(capsys, "state", "--n", "7", "--v", "0.75", "--w", "0.5",
                          "--index", "1")
    assert code == 0
    state = parse_json(out)
    assert state["sector"] == {"m": 3, "nu_a": 1, "nu_b": 0}
    assert state["occupations"][0] == [7, 0]
    amps = np.array(state["amplitudes"])
    assert abs(np.linalg.norm(amps) - 1) < 1e-12

    code, out, _ = invoke(capsys, "angles", "--n", "7", "--v", "0.75", "--w", "0.5",
                          "--index", "1", "--depth", "linear")
    assert code == 0
    angles = parse_json(out)
    # the angles prepare the canonical-sign eigenstate: check via the product form
    thetas = angles["thetas"]
    reached = [math.cos(thetas[0] / 2)]
    assert abs(abs(reached[0]) - abs(amps[3])) < 1e-12


def test_circuit_export_and_simulate_round_trip(tmp_path, capsys):
    path = tmp_path / "circ.json"
    code, out, _ = invoke(capsys, "circuit", "--n", "7", "--v", "0.75", "--w", "0.5",
                          "--index", "1", "--depth", "log", "--out", str(path))
    assert code == 0
    code, out, _ = invoke(capsys, "simulate", "--circuit", str(path), "--report-energy",
                          "--n", "7", "--v", "0.75", "--w", "0.5", "--sector", "1,0")
    assert code == 0
    payload = parse_json(out)
    assert payload["leakage"] < 1e-12
    assert payload["energy"] == pytest.approx(N7_ENERGY, abs=1e-9)


def test_circuit_qasm_output(capsys):
    code, out, _ = invoke(capsys, "circuit", "--n", "7", "--v", "0.75", "--w", "0.5",
                          "--index", "1", "--depth", "log", "--format", "qasm")
    assert code == 0
    assert out.startswith("OPENQASM 3;")
    assert out.count("ctrl @ ry(") == 3
    assert out.count("\ncx ") == 3


def test_vqe_command(capsys):
    code, out, _ = invoke(capsys, "vqe", "--n", "4", "--v", "1.0", "--w", "0.3",
                          "--seed", "5", "--restarts", "4")
    assert code == 0
    payload = parse_json(out)
    assert payload["estimator"] == "exact"
    assert payload["abs_error"] < 1e-6
    assert payload["sector"] == {"m": 2, "nu_a": 0, "nu_b": 0}


def test_benchmark_command(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "benchmark", "--n", "3", "--v", "0.9", "--w", "0.2",
                          "--out", str(out_path))
    assert code == 0
    report = parse_json(out_path.read_text())
    rows = [row for sector in report["sectors"] for row in sector["rows"]]
    assert len(rows) == 4
    assert all(row["fidelity_linear"] >= 1 - 1e-10 for row in rows)


def test_byte_identical_output(capsys):
    args = ("spectrum", "--n", "6", "--v", "1.1", "--w", "0.4")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second
    args = ("vqe", "--n", "4", "--v", "1.0", "--w", "0.0", "--seed", "3", "--restarts", "2")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_computation_failure_exit_code(capsys):
    # rational instance: the pair-energy solver must refuse with a JSON error
    code, out, err = invoke(capsys, "bethe", "--n", "4", "--v", "1.0", "--w", "1.0",
                            "--sector", "0,0")
    assert code == 1
    assert out == ""
    payload = parse_json(err)
    assert payload["error"]["type"] == "UnsupportedRegimeError"


def test_invalid_sector_is_computation_error(capsys):
    code, _, err = invoke(capsys, "bethe", "--n", "7", "--v", "0.75", "--w", "0.5",
                          "--sector", "0,0")
    assert code == 1
    assert "InvalidArgumentError" in err


def test_bad_flags_exit_two():
    proc = python("-m", "lmg.cli", "spectrum", "--n", "7")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        pytest.param("--seed", "5", id="--seed"),
        pytest.param("--budget", "5", id="--budget"),
        pytest.param("--match-tol", "nan", id="--match-tol-nan"),
        pytest.param("--match-tol", "-1", id="--match-tol--1"),
        pytest.param("--tol", "inf", id="--tol-inf"),
        pytest.param("--tol", "1e-9", id="--tol-1e-9"),
        pytest.param("--match-tol", "1e-7", id="--match-tol-1e-7"),
    ],
)
def test_bethe_rejects_removed_solver_flags(flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main([*N7_BETHE, flag, value])
    assert excinfo.value.code == 2


HYPERBOLIC_N4 = ("--n", "4", "--v", "0.2", "--w", "1.5")


def test_hyperbolic_instance_reports_its_validated_sets(capsys):
    # V^2 < W^2 is solved level by level, as V^2 > W^2 is; every N = 4 level has a set
    code, out, err = invoke(capsys, "spectrum", *HYPERBOLIC_N4)
    assert code == 0 and err == ""
    levels = parse_json(out)["levels"]
    assert len(levels) == 5
    assert all(abs(lvl["omega_bethe"] - lvl["omega_exact"]) <= 1e-8 for lvl in levels)

    code, out, err = invoke(capsys, "bethe", *HYPERBOLIC_N4, "--sector", "0,0")
    assert code == 0 and err == ""
    assert [sol["index"] for sol in parse_json(out)["solutions"]] == [1, 2, 3]

    # the solver takes no options, so there is no flag to opt in with
    with pytest.raises(SystemExit) as excinfo:
        main(["bethe", *HYPERBOLIC_N4, "--sector", "0,0", "--allow-hyperbolic"])
    assert excinfo.value.code == 2


def test_subcommand_flag_sets():
    (commands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        name: sorted(
            opt
            for action in sub._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        )
        for name, sub in commands.items()
    }
    instance = ["--n", "--v", "--w"]
    assert flags == {
        "spectrum": sorted([*instance, "--format"]),
        "bethe": sorted([*instance, "--sector", "--format"]),
        "state": sorted([*instance, "--index", "--format"]),
        "angles": sorted([*instance, "--index", "--depth", "--format"]),
        "circuit": sorted([*instance, "--index", "--depth", "--format", "--out"]),
        "simulate": sorted([*instance, "--circuit", "--report-energy", "--sector"]),
        "vqe": sorted(
            [*instance, "--sector", "--seed", "--shots", "--restarts", "--warm", "--depth"]
        ),
        "benchmark": sorted([*instance, "--shots", "--seed", "--restarts", "--out"]),
        "verify": ["--list", "--only"],
    }


def test_spectrum_past_float_factorials():
    # N = 171 is the first size whose ladder factorials overflow a float
    proc = python("-m", "lmg.cli", "spectrum", "--n", "171", "--v", "0.75", "--w", "0.5")
    assert proc.returncode == 0
    assert proc.stderr == ""
    levels = parse_json(proc.stdout)["levels"]
    assert len(levels) == 172
    assert [lvl["index"] for lvl in levels] == list(range(1, 173))


def test_bethe_past_float_factorials_gives_json_error():
    proc = python(
        "-m", "lmg.cli", "bethe", "--n", "171", "--v", "0.75", "--w", "0.5", "--sector", "1,0"
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert parse_json(proc.stderr)["error"]["type"] == "IncompleteSolveError"


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "7", "--v", "nan", "--w", "0.5"],
        ["verify", "--only", "bogus"],
        ["vqe", "--n", "8", "--v", "0.8", "--w", "0.25", "--restarts", "0"],
        ["benchmark", "--n", "3", "--v", "0.9", "--w", "0.3", "--restarts", "0"],
        ["simulate", "--circuit", "{tmp}/missing.json"],
        ["simulate", "--circuit", "{tmp}"],
        ["simulate", "--circuit", "{tmp}/binary.json"],
        ["circuit", "--n", "3", "--v", "0.9", "--w", "0.3", "--index", "1",
         "--out", "{tmp}/missing/x.json"],
        ["benchmark", "--n", "3", "--v", "0.9", "--w", "0.3", "--restarts", "1",
         "--out", "{tmp}/missing/x.json"],
        ["vqe", "--n", "4", "--v", "0.8", "--w", "0.2", "--seed", "-1"],
        ["benchmark", "--n", "4", "--v", "0.8", "--w", "0.2", "--seed", "-1", "--shots", "0"],
        ["simulate", "--circuit", "{tmp}/five.json", "--report-energy",
         "--n", "4", "--v", "0.75", "--w", "0.5"],
        ["simulate", "--circuit", "{tmp}/five.json", "--report-energy",
         "--n", "20", "--v", "0.75", "--w", "0.5"],
        ["bethe", "--n", "7", "--v", "0.75", "--w", "0.5", "--sector", "3,0"],
    ],
)
def test_bad_values_give_json_error_not_traceback(argv, tmp_path):
    (tmp_path / "binary.json").write_bytes(bytes(range(128, 256)))
    (tmp_path / "five.json").write_text(
        export_circuit(build_circuit(AngleSet((1.0, 2.0, 3.0, 4.0), "linear")))
    )
    proc = python("-m", "lmg.cli", *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = parse_json(proc.stderr)
    assert payload["error"]["type"] == "InvalidArgumentError"


@pytest.mark.parametrize(
    "argv",
    [
        ["angles", "--n", "8", "--v", "1e308", "--w", "0", "--index", "1"],
        ["state", "--n", "8", "--v", "1e308", "--w", "1e308", "--index", "1"],
        ["spectrum", "--n", "8", "--v", "1e308", "--w", "1e308"],
        ["vqe", "--n", "8", "--v", "1e308", "--w", "0", "--restarts", "1"],
    ],
)
def test_overflowing_hamiltonian_gives_json_error(argv):
    proc = python("-m", "lmg.cli", *argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    error = parse_json(proc.stderr)["error"]
    assert error["type"] == "InvalidArgumentError"
    assert "Gershgorin bound is not finite" in error["message"]


@pytest.mark.parametrize("shots", ["100", "10000"])
def test_sampled_vqe_where_squared_spreads_overflow(shots):
    proc = python("-m", "lmg.cli", "vqe", "--n", "8", "--v", "1e306", "--w", "0",
                  "--restarts", "1", "--shots", shots)
    assert proc.returncode == 0
    assert proc.stderr == ""
    payload = parse_json(proc.stdout)
    assert all(math.isfinite(payload[key]) for key in ("best_energy", "abs_error"))


def test_failed_allocation_gives_json_error(monkeypatch, capsys):
    class ArrayMemoryError(MemoryError):  # numpy raises such a private subclass
        pass

    def exhausted(params):
        raise ArrayMemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("lmg.cli.exact_spectrum", exhausted)
    code, out, err = invoke(capsys, "state", "--n", "2000000", "--v", "0.5", "--w", "0.2",
                            "--index", "1")
    assert code == 1
    assert out == ""
    error = parse_json(err)["error"]
    assert error == {"type": "MemoryError", "message": "Unable to allocate 7.28 TiB for an array"}


def test_json_writer_refuses_infinity_and_writes_nan_as_null():
    text = _to_json({"a": [math.nan, np.float64("nan")], "b": 1.5})
    assert text == '{"a": [null, null], "b": 1.5}'
    for value in (math.inf, -math.inf, np.float64("-inf")):
        with pytest.raises(NumericFailureError):
            _to_json({"omega": [value]})


def test_import_does_not_load_the_optimizer():
    # the package runs on numpy alone: diagonalizing, solving and optimizing load no scipy
    script = (
        "import sys, lmg, lmg.cli\n"
        "p = lmg.make_params(6, 0.9, 0.25)\n"
        "lmg.exact_spectrum(p)\n"
        "lmg.solve_bethe(lmg.SectorConfig(3, 0, 0), p)\n"
        "lmg.optimize(lmg.SectorConfig(3, 0, 0), p, lmg.VqeOptions(restarts=1))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_entry_point_runs():
    proc = python("-m", "lmg.cli", "--version")
    assert proc.returncode == 0
    assert "lmg" in proc.stdout


def test_verify_list_and_single_check(capsys):
    code, out, _ = invoke(capsys, "verify", "--list")
    assert code == 0
    assert "n7-pairons" in out
    code, out, _ = invoke(capsys, "verify", "--only", "n7-pairons", "n7-angles")
    assert code == 0
    assert sum(1 for line in out.splitlines() if line.startswith("ok ")) == 2
    assert "2/2 checks passed" in out


def test_verify_fails_a_check_over_its_budget(monkeypatch):
    from lmg import verify

    (within,) = verify.run_checks(["n7-pairons"])
    assert within.passed and "(budget 1s)" in within.detail
    monkeypatch.setitem(verify.BUDGETS, "n7-pairons", 0.0)
    (over,) = verify.run_checks(["n7-pairons"])
    assert not over.passed and "(budget 0s)" in over.detail


def test_spectrum_rational_instance(capsys):
    code, out, _ = invoke(capsys, "spectrum", "--n", "4", "--v", "1.0", "--w", "1.0")
    assert code == 0
    levels = parse_json(out)["levels"]
    assert len(levels) == 5
    assert all("omega_bethe" not in lvl for lvl in levels)


def test_angles_csv(capsys):
    code, out, _ = invoke(capsys, "angles", "--n", "7", "--v", "0.75", "--w", "0.5",
                          "--index", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,theta"
    assert len(lines) == 4


def test_angles_csv_without_angles_prints_the_header(capsys):
    # N = 1 has M = 0: no rotation angles, but the table still has its columns
    code, out, _ = invoke(capsys, "angles", "--n", "1", "--v", "1", "--w", "0",
                          "--index", "1", "--format", "csv")
    assert code == 0
    assert out == "j,theta\n"


def test_ground_sector_on_a_tie_is_one_rule(capsys):
    # both sectors of (3, 0, -1.5) have ground energy -2.25; the even-parity one wins
    instance = ("--n", "3", "--v", "0", "--w", "-1.5")
    want = {"m": 1, "nu_a": 1, "nu_b": 0}
    _, out, _ = invoke(capsys, "spectrum", *instance)
    assert [lvl["omega_exact"] for lvl in parse_json(out)["levels"][:2]] == [-2.25, -2.25]
    _, out, _ = invoke(capsys, "state", *instance, "--index", "1")
    assert parse_json(out)["sector"] == want
    _, out, _ = invoke(capsys, "vqe", *instance, "--restarts", "1")
    assert parse_json(out)["sector"] == want
    _, out, _ = invoke(capsys, "benchmark", *instance, "--shots", "0", "--restarts", "1")
    sectors = parse_json(out)["sectors"]
    assert [s["config"] for s in sectors if "vqe" in s["rows"][0]] == [want]


def test_simulate_requires_sector_for_odd_particles(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, _, _ = invoke(capsys, "circuit", "--n", "7", "--v", "0.75", "--w", "0.5",
                        "--index", "1", "--out", str(path))
    assert code == 0
    code, _, err = invoke(capsys, "simulate", "--circuit", str(path), "--report-energy",
                          "--n", "7", "--v", "0.75", "--w", "0.5")
    assert code == 1
    assert "sector" in err
    assert "odd-particle" in err


@pytest.mark.parametrize("n", [4, 20])
def test_simulate_circuit_that_fits_no_sector(n, tmp_path, capsys):
    # five qubits hold M = 4 pairs: N - 2M is -4 or 12, so no (nu_a, nu_b) fits
    path = tmp_path / "c.json"
    code, _, _ = invoke(capsys, "circuit", "--n", "8", "--v", "0.75", "--w", "0.5",
                        "--index", "1", "--out", str(path))
    assert code == 0
    code, _, err = invoke(capsys, "simulate", "--circuit", str(path), "--report-energy",
                          "--n", str(n), "--v", "0.75", "--w", "0.5")
    assert code == 1
    assert parse_json(err)["error"]["message"] == (
        f"a circuit of 5 qubits fits no sector of N={n}"
    )


@pytest.mark.parametrize("n, sector", [(7, "3,0"), (8, "1,0"), (7, "0,-1"), (7, "2,2")])
def test_a_sector_outside_the_instance_is_named_as_typed(n, sector, capsys):
    # (3,0) at N = 7 was refused as "invalid sector (2, 3, 0)", an M never typed
    code, out, err = invoke(capsys, "bethe", "--n", str(n), "--v", "0.75", "--w", "0.5",
                            "--sector", sector)
    assert code == 1 and out == ""
    assert parse_json(err)["error"] == {
        "type": "InvalidArgumentError",
        "message": f"sector ({sector}) is impossible for N={n}",
    }


N60 = ("--n", "60", "--v", "0.75", "--w", "0.5")


def test_spectrum_keeps_the_validated_levels_of_an_incomplete_sector(capsys):
    # levels 1 and 2 of both sectors have no set at N = 60; the other 57 do
    code, out, err = invoke(capsys, "spectrum", *N60)
    assert code == 0 and err == ""
    levels = parse_json(out)["levels"]
    solved = [lvl for lvl in levels if "omega_bethe" in lvl]
    assert (len(levels), len(solved)) == (61, 57)
    assert all(abs(lvl["omega_bethe"] - lvl["omega_exact"]) <= 1e-8 for lvl in solved)
    missing = {(lvl["nu_b"], lvl["sector_index"]) for lvl in levels if "omega_bethe" not in lvl}
    assert missing == {(0, 1), (0, 2), (1, 1), (1, 2)}

    code, out, _ = invoke(capsys, "spectrum", *N60, "--format", "csv")
    assert code == 0
    header, *lines = out.splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 61
    empty = {(row["nu_b"], row["sector_index"]) for row in rows
             if row["omega_bethe"] == row["bethe_residual"] == ""}
    assert empty == {("0", "1"), ("0", "2"), ("1", "1"), ("1", "2")}
    assert all(row["omega_bethe"] and row["bethe_residual"] for row in rows
               if (row["nu_b"], row["sector_index"]) not in empty)


def test_benchmark_marks_only_the_levels_without_a_set(capsys):
    code, out, _ = invoke(capsys, "benchmark", *N60, "--shots", "0", "--restarts", "1")
    assert code == 0
    for sector in parse_json(out)["sectors"]:
        errors = {row["index"]: row["error"] for row in sector["rows"] if "error" in row}
        assert sorted(errors) == [1, 2]
        assert all(error.startswith("NumericFailureError: ") for error in errors.values())
        assert all("omega_bethe" in row for row in sector["rows"] if "error" not in row)


def test_bethe_on_an_incomplete_sector_still_refuses(capsys):
    code, out, err = invoke(capsys, "bethe", *N60, "--sector", "0,0")
    assert code == 1 and out == ""
    assert err == (
        '{"error": {"message": "recovered 29 of 31 solution sets from the eigenvectors", '
        '"type": "IncompleteSolveError"}}\n'
    )


def test_bethe_at_huge_couplings_is_not_called_rational(capsys):
    # V^2 and W^2 both overflow to inf here, but |V| > |W|: a trigonometric instance
    code, out, err = invoke(capsys, "bethe", "--n", "3", "--v", "1e200", "--w", "1e199",
                            "--sector", "1,0")
    assert code == 1 and out == ""
    assert parse_json(err)["error"]["type"] != "UnsupportedRegimeError"


def test_bethe_refuses_overflowing_pair_energy_parameters(capsys):
    # V + W overflows: the couplings are finite, but g = inf and eta = -inf
    code, out, err = invoke(capsys, "bethe", "--n", "3", "--v", "1e308", "--w", "9e307",
                            "--sector", "1,0")
    assert code == 1 and out == ""
    assert parse_json(err)["error"] == {
        "type": "InvalidArgumentError",
        "message": "pair-energy parameters overflow at V=1e+308, W=9e+307 (g=inf, eta=-inf)",
    }


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["spectrum", "--n", "12", "--v", "0.2", "--w", "1.5", "--format", "csv"], 1),
        (N7_BETHE, 1),
        (["circuit", "--n", "7", "--v", "0.75", "--w", "0.5", "--index", "1",
          "--format", "qasm"], 1),
        (["--help"], 0),
        (["--version"], 0),
    ],
    ids=["csv", "json", "text", "help", "version"],
)
def test_closed_stdout_ends_quietly(argv, code, unbuffered):
    # the read end is closed before the spawn, so the child's first write to
    # stdout fails, whether it writes through (-u) or at its final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    flags = ["-u"] if unbuffered else []
    try:
        proc = subprocess.run(
            [sys.executable, "-W", "error", *flags, "-m", "lmg.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env={**env, "PYTHONPATH": path},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, b"")
