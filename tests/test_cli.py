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
from lmg.cli import build_parser, main
from lmg.reference import N7_ENERGY

N7_BETHE = ["bethe", "--n", "7", "--v", "0.75", "--w", "0.5", "--sector", "1,0"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def python(*args):
    """Run a fresh interpreter that imports the package from this source tree."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
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
    payload = json.loads(out)
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


def test_bethe_n7_ground_sector(capsys):
    code, out, _ = invoke(capsys, "bethe", "--n", "7", "--v", "0.75", "--w", "0.5",
                          "--sector", "1,0")
    assert code == 0
    payload = json.loads(out)
    ground = payload["solutions"][0]
    np.testing.assert_allclose(ground["pairons"], (0.701066, 1.33363, 1.94591), atol=1e-5)


def test_state_and_angles_consistency(capsys):
    code, out, _ = invoke(capsys, "state", "--n", "7", "--v", "0.75", "--w", "0.5",
                          "--index", "1")
    assert code == 0
    state = json.loads(out)
    assert state["sector"] == {"m": 3, "nu_a": 1, "nu_b": 0}
    assert state["occupations"][0] == [7, 0]
    amps = np.array(state["amplitudes"])
    assert abs(np.linalg.norm(amps) - 1) < 1e-12

    code, out, _ = invoke(capsys, "angles", "--n", "7", "--v", "0.75", "--w", "0.5",
                          "--index", "1", "--depth", "linear")
    assert code == 0
    angles = json.loads(out)
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
    payload = json.loads(out)
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
    payload = json.loads(out)
    assert payload["estimator"] == "exact"
    assert payload["abs_error"] < 1e-6
    assert payload["sector"] == {"m": 2, "nu_a": 0, "nu_b": 0}


def test_benchmark_command(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "benchmark", "--n", "3", "--v", "0.9", "--w", "0.2",
                          "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
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
    payload = json.loads(err)
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
        "bethe": sorted([*instance, "--sector", "--allow-hyperbolic", "--format"]),
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
    levels = json.loads(proc.stdout)["levels"]
    assert len(levels) == 172
    assert [lvl["index"] for lvl in levels] == list(range(1, 173))


def test_bethe_past_float_factorials_gives_json_error():
    proc = python(
        "-m", "lmg.cli", "bethe", "--n", "171", "--v", "0.75", "--w", "0.5", "--sector", "1,0"
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"]["type"] == "IncompleteSolveError"


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
    payload = json.loads(proc.stderr)
    assert payload["error"]["type"] == "InvalidArgumentError"


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
    levels = json.loads(out)["levels"]
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
    assert [lvl["omega_exact"] for lvl in json.loads(out)["levels"][:2]] == [-2.25, -2.25]
    _, out, _ = invoke(capsys, "state", *instance, "--index", "1")
    assert json.loads(out)["sector"] == want
    _, out, _ = invoke(capsys, "vqe", *instance, "--restarts", "1")
    assert json.loads(out)["sector"] == want
    _, out, _ = invoke(capsys, "benchmark", *instance, "--shots", "0", "--restarts", "1")
    sectors = json.loads(out)["sectors"]
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
    assert json.loads(err)["error"]["message"] == (
        f"a circuit of 5 qubits fits no sector of N={n}"
    )
