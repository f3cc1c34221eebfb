"""Variational loop: objective fixtures, optimization, benchmark report."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from lmg import (
    AngleSet,
    Circuit,
    FockVector,
    InvalidArgumentError,
    ModelParams,
    SectorConfig,
    VqeOptions,
    benchmark,
    build_circuit,
    build_eigenstate,
    encode,
    encoded_expectation,
    linear_angles,
    make_params,
    objective,
    optimize,
    pauli_groups,
    run,
    sampled_expectation,
    sector_configs,
    sector_spectrum,
    solve_bethe,
    vqe,
)
from lmg.reference import N7, N7_LINEAR_ANGLES, N7_LINEAR_ENERGY


def test_objective_n7_reference_angles():
    p = make_params(**N7)
    config = SectorConfig(3, 1, 0)
    value = objective(N7_LINEAR_ANGLES, config, p)
    assert value == pytest.approx(N7_LINEAR_ENERGY, abs=5e-11)


def test_objective_angle_endpoints():
    p = make_params(2, 0.75, 0.0)
    config = SectorConfig(1, 0, 0)
    assert objective((0.0,), config, p) == pytest.approx(1.0, abs=1e-14)
    assert objective((math.pi,), config, p) == pytest.approx(-1.0, abs=1e-14)


def test_objective_periodic_in_4pi():
    p = make_params(6, 0.9, 0.2)
    config = SectorConfig(3, 0, 0)
    thetas = (0.7, 2.2, -1.1)
    shifted = tuple(t + 4 * math.pi for t in thetas)
    assert objective(thetas, config, p) == pytest.approx(
        objective(shifted, config, p), abs=1e-12
    )


def test_objective_sampled_deterministic():
    p = make_params(4, 1.0, 0.2)
    config = SectorConfig(2, 0, 0)
    a = objective((0.4, 1.3), config, p, estimator="sampled", shots=2000, seed=7)
    b = objective((0.4, 1.3), config, p, estimator="sampled", shots=2000, seed=7)
    assert a == b


def test_optimize_warm_start_hits_exact():
    p = make_params(7, 0.75, 0.5)
    config = SectorConfig(3, 1, 0)
    result = optimize(config, p, VqeOptions(restarts=1, warm=True))
    assert result.abs_error < 1e-10
    assert result.converged


def test_optimize_cold_start_reaches_ground():
    for n, v, w in ((4, 1.0, 0.3), (6, 0.8, -0.2)):
        p = make_params(n, v, w)
        config = SectorConfig(n // 2, 0, 0)
        result = optimize(config, p, VqeOptions(restarts=6, seed=11))
        assert result.abs_error < 1e-6, (n, result.abs_error)


def test_optimize_deterministic():
    p = make_params(5, 0.9, 0.1)
    config = SectorConfig(2, 0, 1)
    opts = VqeOptions(restarts=3, seed=3)
    first = optimize(config, p, opts)
    second = optimize(config, p, opts)
    assert first == second


def test_optimize_variational_bound_and_trace():
    p = make_params(6, 1.1, 0.4)
    config = SectorConfig(3, 0, 0)
    result = optimize(config, p, VqeOptions(restarts=4, seed=2))
    exact = sector_spectrum(config, p)[0][0]
    assert result.best_energy >= exact - 1e-12
    energies = [e for _, e in result.trace]
    running = np.minimum.accumulate(energies)
    assert np.all(np.diff(running) <= 0 + 1e-15)
    assert result.evaluations == len(result.trace)


def test_optimize_unconverged_flag(monkeypatch):
    # MAX_SWEEPS caps sweeps over the angles; two sweeps do not meet the tolerance
    monkeypatch.setattr(vqe, "MAX_SWEEPS", 2)
    p = make_params(6, 1.1, 0.4)
    config = SectorConfig(3, 0, 0)
    result = optimize(config, p, VqeOptions(restarts=1, seed=0))
    assert not result.converged


@pytest.mark.parametrize("depth", ["linear", "log"])
def test_optimize_cold_n40_reaches_ground(depth):
    p = make_params(40, 0.75, 0.5)
    config = SectorConfig(20, 0, 0)
    assert sector_spectrum(config, p)[0][0] == min(
        sector_spectrum(c, p)[0][0] for c in sector_configs(40)
    )
    result = optimize(config, p, VqeOptions(restarts=3, seed=0, depth=depth))
    assert result.abs_error <= 1e-6
    assert result.converged


@pytest.mark.parametrize("depth", ["linear", "log"])
def test_objective_is_degree_two_in_half_angle(depth):
    # The optimizer's model: along any one angle, the energy is
    # a0 + a1 cos(t/2) + b1 sin(t/2) + a2 cos t + b2 sin t, so the fit through
    # the five nodes t + 4 pi k / 5 predicts every other point on that line.
    p = make_params(20, 0.75, 0.5)
    config = SectorConfig(10, 0, 0)
    rng = np.random.default_rng(5)

    def basis(t):
        t = np.asarray(t, dtype=float) / 2
        return np.stack([np.ones_like(t), np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)], -1)

    thetas = rng.uniform(0.0, 4 * math.pi, config.m)
    for j in range(config.m):
        def energy(t):
            shifted = thetas.copy()
            shifted[j] = t
            return objective(shifted, config, p, depth=depth)

        nodes = thetas[j] + 4 * math.pi * np.arange(5) / 5
        coeffs = np.linalg.solve(basis(nodes), [energy(t) for t in nodes])
        probes = rng.uniform(0.0, 4 * math.pi, 10)
        predicted = basis(probes) @ coeffs
        measured = np.array([energy(t) for t in probes])
        assert np.max(np.abs(predicted - measured)) <= 1e-12, j


def test_optimize_sampled_n20_within_five_sigma():
    p = make_params(20, 0.75, 0.5)
    config = SectorConfig(10, 0, 0)
    shots = 10_000
    result = optimize(
        config, p, VqeOptions(restarts=3, seed=0, estimator="sampled", shots=shots)
    )
    # sigma of the estimator on the exact ground-state circuit, independent seed
    ground = FockVector(20, config.parity, sector_spectrum(config, p)[1][:, 0])
    state = run(build_circuit(linear_angles(encode(ground, config))))
    sigma = sampled_expectation(state, pauli_groups(config, p), shots, 1_000_003)[1]
    assert result.abs_error <= 5 * sigma


def test_optimize_m0_sector():
    p = make_params(2, 0.75, 0.4)
    result = optimize(SectorConfig(0, 1, 1), p)
    assert result.abs_error < 1e-14
    assert result.best_thetas.thetas == ()


def test_settable_values_are_the_run_defining_ones():
    # solver tolerances and the sweep cap are module constants, not options
    assert list(inspect.signature(solve_bethe).parameters) == [
        "config", "params", "allow_hyperbolic",
    ]
    assert inspect.signature(solve_bethe).parameters["allow_hyperbolic"].kind is (
        inspect.Parameter.KEYWORD_ONLY
    )
    assert [f.name for f in dataclasses.fields(VqeOptions)] == [
        "restarts", "seed", "estimator", "shots", "warm", "depth",
    ]
    assert list(inspect.signature(benchmark).parameters) == [
        "params", "options", "shot_budgets",
    ]
    assert list(inspect.signature(build_eigenstate).parameters) == ["solution"]
    # energies are in units of the gap, and a circuit's layers derive from its gates
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["n", "v", "w", "g", "eta", "s"]
    assert [f.name for f in dataclasses.fields(Circuit)] == ["num_qubits", "gates"]


@pytest.mark.parametrize("restarts", [0, -1])
def test_optimize_rejects_nonpositive_restarts(restarts):
    with pytest.raises(InvalidArgumentError):
        VqeOptions(restarts=restarts)
    p = make_params(6, 0.9, 0.25)
    with pytest.raises(InvalidArgumentError):
        optimize(SectorConfig(3, 0, 0), p, VqeOptions(restarts=restarts))


@pytest.mark.parametrize("depth", ["linear", "log"])
def test_objective_equals_simulated_estimators(depth):
    # The objective skips the circuit simulation; on the simulated state the
    # public estimators must give the very same floats, so optimizer
    # trajectories do not depend on which path computed them.
    rng = np.random.default_rng(47)
    for n in (1, 8, 13, 40):
        p = make_params(n, 0.75, 0.5)
        for config in sector_configs(n):
            thetas = tuple(rng.uniform(0.0, 4 * math.pi, config.m))
            state = run(build_circuit(AngleSet(thetas, depth)))
            exact = objective(thetas, config, p, depth=depth)
            assert exact == encoded_expectation(state, config, p)
            sampled = objective(thetas, config, p, estimator="sampled", shots=500,
                                seed=n, depth=depth)
            assert sampled == sampled_expectation(state, pauli_groups(config, p), 500, n)[0]


@pytest.mark.parametrize("estimator", ["exact", "sampled"])
def test_objective_rejects_wrong_angle_count(estimator):
    p = make_params(6, 0.9, 0.2)
    with pytest.raises(InvalidArgumentError):
        objective((0.4, 1.3), SectorConfig(3, 0, 0), p, estimator=estimator)


def test_benchmark_n7_report():
    p = make_params(**N7)
    report = benchmark(p)
    assert report["params"]["n"] == 7
    assert len(report["sectors"]) == 2
    rows = [row for sector in report["sectors"] for row in sector["rows"]]
    assert len(rows) == 8
    ground = min(rows, key=lambda r: r["omega_exact"])
    assert ground["fidelity_linear"] >= 1 - 1e-10
    assert ground["fidelity_log"] >= 1 - 1e-10
    assert ground["energy_rel_linear"] <= 1e-9
    assert ground["energy_rel_log"] <= 1e-9
    assert ground["omega_bethe"] == pytest.approx(ground["omega_exact"], abs=1e-9)
    assert "error" not in ground


def test_benchmark_n1_identity_circuits():
    p = make_params(1, 0.9, 0.3)
    report = benchmark(p)
    rows = [row for sector in report["sectors"] for row in sector["rows"]]
    assert len(rows) == 2
    for row in rows:
        assert row["fidelity_linear"] == pytest.approx(1.0, abs=1e-14)
        assert row["fidelity_log"] == pytest.approx(1.0, abs=1e-14)
        assert row["energy_abs_linear"] == pytest.approx(0.0, abs=1e-13)


def test_benchmark_attaches_vqe_runs():
    p = make_params(4, 1.0, 0.3)
    report = benchmark(p, VqeOptions(restarts=2, seed=1), shot_budgets=(None, 3000))
    rows = [row for sector in report["sectors"] for row in sector["rows"]]
    with_vqe = [r for r in rows if "vqe" in r]
    assert len(with_vqe) == 1
    runs = with_vqe[0]["vqe"]
    assert [(r["mode"], r["estimator"]) for r in runs] == [
        ("cold", "exact"),
        ("warm", "exact"),
        ("cold", "sampled(3000)"),
        ("warm", "sampled(3000)"),
    ]
    assert runs[0]["abs_error"] < 1e-6
    assert runs[1]["abs_error"] < 1e-10
    assert with_vqe[0]["omega_exact"] == min(r["omega_exact"] for r in rows)


def test_benchmark_rational_instance_skips_bethe():
    p = make_params(4, 1.0, 1.0)
    report = benchmark(p)
    rows = [row for sector in report["sectors"] for row in sector["rows"]]
    assert len(rows) == 5
    for row in rows:
        assert "omega_bethe" not in row
        assert row["fidelity_linear"] >= 1 - 1e-10


def test_sampled_estimator_consistency_over_seeds():
    # Mean of 50 seeded sampled objectives sits within 5 combined standard
    # errors of the exact objective.
    p = make_params(6, 0.9, 0.2)
    config = SectorConfig(3, 0, 0)
    thetas = (0.8, 2.1, 1.4)
    state = run(build_circuit(AngleSet(thetas, "linear")))
    groups = pauli_groups(config, p)
    exact = encoded_expectation(state, config, p)
    estimates, sems = [], []
    for seed in range(50):
        est, sem = sampled_expectation(state, groups, shots=2000, seed=seed)
        estimates.append(est)
        sems.append(sem)
    mean = float(np.mean(estimates))
    combined_sem = float(np.sqrt(np.sum(np.square(sems)))) / len(sems)
    assert abs(mean - exact) < 5 * combined_sem


def test_benchmark_n20_ground_row():
    p = make_params(20, 0.75, 0.5)
    report = benchmark(p)
    rows = [row for sector in report["sectors"] for row in sector["rows"]]
    assert len(rows) == 21
    ground = min(rows, key=lambda r: r["omega_exact"])
    assert ground["fidelity_linear"] >= 1 - 1e-8
    assert ground["fidelity_log"] >= 1 - 1e-8
    assert abs(ground["omega_bethe"] - ground["omega_exact"]) < 1e-9
    assert not any(r.get("error") for r in rows)
