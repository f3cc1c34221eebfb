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
    cli,
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
from lmg.bethe import solve_levels
from lmg.circuit import one_hot_split
from lmg.model import ladder_energy
from lmg.reference import N7, N7_LINEAR_ANGLES
from oracles import N7_LINEAR_ENERGY


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
    opts = VqeOptions(estimator="sampled", shots=2000, seed=7)
    a = objective((0.4, 1.3), config, p, opts)
    b = objective((0.4, 1.3), config, p, opts)
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
    running = np.minimum.accumulate(result.trace)
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
            return objective(shifted, config, p, VqeOptions(depth=depth))

        nodes = thetas[j] + 4 * math.pi * np.arange(5) / 5
        coeffs = np.linalg.solve(basis(nodes), [energy(t) for t in nodes])
        probes = rng.uniform(0.0, 4 * math.pi, 10)
        predicted = basis(probes) @ coeffs
        measured = np.array([energy(t) for t in probes])
        assert np.max(np.abs(predicted - measured)) <= 1e-12, j


@pytest.mark.parametrize("depth", ["linear", "log"])
def test_split_node_energies_equal_objective(depth):
    # the five node states of an angle come from one split of the output;
    # scored exactly, each must be the objective at that node's angles
    rng = np.random.default_rng(29)
    for m in (1, 2, 3, 7, 8, 33):
        p = make_params(2 * m, 0.75, 0.5)
        config = SectorConfig(m, 0, 0)
        thetas = rng.uniform(0.0, 4 * math.pi, m)
        for j in range(m):
            energies = ladder_energy(vqe._node_states(thetas, j, depth), p, config.parity)
            for k in range(vqe.NODES):
                node = thetas.copy()
                node[j] += k * vqe.FULL_TURN / vqe.NODES
                exact = objective(node, config, p, VqeOptions(depth=depth))
                assert abs(energies[k] - exact) <= 1e-13
            # one energy per row, each with the bits of the one-state call
            r, pp, q = one_hot_split(AngleSet(tuple(thetas), depth), j)
            halves = (thetas[j] + 4 * math.pi * np.arange(5) / 5) / 2
            states = r + np.outer(np.cos(halves), pp) + np.outer(np.sin(halves), q)
            phases = np.exp(1j * rng.uniform(0.0, 2 * math.pi, states.shape))
            for rows in (states, states * phases):
                assert ladder_energy(rows, p, config.parity).tolist() == [
                    ladder_energy(row, p, config.parity) for row in rows
                ]


@pytest.mark.parametrize("estimator", ["exact", "sampled"])
def test_exact_nodes_need_no_objective_call(monkeypatch, estimator):
    # node states come from one split per angle visit, whichever estimator
    # scores them; objective runs once per restart, for its final energy
    calls, fits, outcomes = [], [], []
    for name, log in (("objective", calls), ("_fit_minimizer", fits),
                      ("_single_restart", outcomes)):
        def counted(*args, _fn=getattr(vqe, name), _log=log, **kwargs):
            result = _fn(*args, **kwargs)
            _log.append(result)
            return result
        monkeypatch.setattr(vqe, name, counted)
    restarts = 3
    p = make_params(8, 0.8, 0.25)
    opts = VqeOptions(restarts=restarts, seed=7, estimator=estimator, shots=2000)
    result = optimize(SectorConfig(4, 0, 0), p, opts)
    assert len(outcomes) == restarts
    # a visit that ends a converged restart fits nothing
    visits = len(fits) + sum(converged for _, _, converged in outcomes)
    assert result.evaluations == len(result.trace) == vqe.NODES * visits + restarts
    assert len(calls) == restarts
    assert result.trace[-1] == calls[-1]


@pytest.mark.parametrize("depth", ["linear", "log"])
def test_gram_visit_equals_objective_and_the_dft_of_node_energies(depth):
    # the exact visit reads (z1, z2) off the split's 3 x 3 Gram matrix; its
    # node values must be the objective at the node angles, and (z1, z2) the
    # DFT of the node states' energies that sampled visits take
    rng = np.random.default_rng(37)
    opts = VqeOptions(depth=depth)
    for m in (1, 2, 3, 7, 8, 33, 100):
        config = SectorConfig(m, m % 2, 0)
        p = make_params(config.n, 0.75, 0.5)
        thetas = rng.uniform(0.0, 4 * math.pi, m)
        for j in range(m):
            values, z1, z2 = vqe._exact_visit(thetas, j, config, p, opts)
            for k in range(vqe.NODES):
                node = thetas.copy()
                node[j] += k * vqe.FULL_TURN / vqe.NODES
                exact = objective(node, config, p, opts)
                assert abs(values[k] - exact) <= 1e-13 * max(1.0, abs(exact)), (m, j, k)
            energies = ladder_energy(vqe._node_states(thetas, j, depth), p, config.parity)
            dft = 2.0 * np.fft.rfft(energies)[1:] / vqe.NODES
            scale = max(1.0, np.max(np.abs(energies)))
            assert abs(z1 - dft[0]) <= 1e-12 * scale, (m, j)
            assert abs(z2 - dft[1]) <= 1e-12 * scale, (m, j)


@pytest.mark.parametrize("parity", [0, 1])
def test_carried_sweep_equals_a_fresh_split_at_every_visit(parity):
    # an exact linear-depth sweep carries its Gram entries from visit to
    # visit; at every visit of full sweeps, moved as the optimizer moves
    # them, they must give _exact_visit's node values and (z1, z2)
    rng = np.random.default_rng(41)
    opts = VqeOptions()
    cases = [(m, 0.75, 0.5, rng.uniform(0.0, 4 * math.pi, m)) for m in (1, 2, 3, 7, 100)]
    cases.append((7, 0.75, 0.5, np.array([1.0, 0.0, 2.0, 3.0, 2 * math.pi, 5.0, 4.0])))
    cases.append((4, 1e306, 0.0, rng.uniform(0.0, 4 * math.pi, 4)))
    for m, v, w, start in cases:
        config = SectorConfig(m, 0, parity)
        p = make_params(config.n, v, w)
        thetas = start.tolist()
        for _ in range(3):
            for j, (values, z1, z2) in enumerate(vqe._carried_sweep(thetas, config, p, opts)):
                want, want_z1, want_z2 = vqe._exact_visit(thetas, j, config, p, opts)
                tol = 1e-13 * max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(values - want)) <= tol, (m, j)
                assert abs(np.mean(values) - np.mean(want)) <= tol, (m, j)  # the constant
                assert abs(z1 - want_z1) <= tol and abs(z2 - want_z2) <= tol, (m, j)
                thetas[j] += 2.0 * vqe._fit_minimizer(z1, z2)


@pytest.mark.parametrize("n, v, w, seed, energy, evaluations", [
    (8, 0.8, 0.25, 0, -3.9969422268114476, 186),
    (8, 0.8, 0.25, 1, -3.996942226811449, 186),
    (8, 0.8, 0.25, 2, -3.996942226811449, 186),
    (20, 0.75, 0.5, 0, -9.84692247112598, 606),
    (20, 0.75, 0.5, 1, -9.846922471125977, 606),
    (20, 0.75, 0.5, 2, -9.846922471125975, 556),
])
def test_linear_exact_runs_keep_their_bits(n, v, w, seed, energy, evaluations):
    # pinned from the split-per-visit sweep that the carried sweep replaced
    result = optimize(SectorConfig(n // 2, 0, 0), make_params(n, v, w),
                      VqeOptions(restarts=1, seed=seed))
    assert (result.best_energy, result.evaluations, result.converged) == (
        energy, evaluations, True)


def test_near_overflow_linear_exact_run_stays_finite_and_exact():
    # |H| near 1e306: the carried products must not overflow, and the run
    # ends within a few rounding units of the lowest eigenvalue.  SWEEP_TOL
    # is below one rounding unit there, so how many sweeps a restart runs is
    # decided by last-bit rounding; the winning restart is pinned, the
    # evaluation count is not.
    p = make_params(8, 1e306, 0.0)
    result = optimize(SectorConfig(4, 0, 0), p, VqeOptions())
    assert result.converged
    assert all(math.isfinite(value) for value in result.trace)
    assert result.abs_error <= 1e-15 * abs(result.exact_energy)
    assert result.best_energy == -1.8027756377319947e+306
    assert result.best_thetas.thetas == (
        9.0557885216181226, 4.2087828895274804, 11.205158977550617, 11.863070239542457)


@pytest.mark.parametrize("depth", ["linear", "log"])
def test_exact_sweeps_score_no_node_states(monkeypatch, depth):
    # an exact sweep needs neither node states nor ladder_energy: the only
    # scoring call is each restart's final objective; linear depth carries
    # the Gram entries along a sweep, log depth splits the output per visit
    counts = {"_node_states": 0, "ladder_energy": 0, "one_hot_split": 0, "_exact_visit": 0}
    for name in counts:
        def counted(*args, _fn=getattr(vqe, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(vqe, name, counted)
    restarts = 3
    opts = VqeOptions(restarts=restarts, seed=5, depth=depth)
    result = optimize(SectorConfig(4, 0, 0), make_params(8, 0.8, 0.25), opts)
    assert result.abs_error <= 1e-12
    assert result.evaluations > vqe.NODES * restarts
    splits = 0 if depth == "linear" else (result.evaluations - restarts) // vqe.NODES
    assert counts == {"_node_states": 0, "ladder_energy": restarts,
                      "one_hot_split": splits, "_exact_visit": splits}
    # the sampled visit still measures its node states
    optimize(SectorConfig(4, 0, 0), make_params(8, 0.8, 0.25),
             dataclasses.replace(opts, estimator="sampled", shots=500, restarts=1))
    assert counts["_node_states"] > 0


@pytest.mark.parametrize("depth", ["linear", "log"])
def test_sampled_node_values_equal_objective(depth):
    # a sampled node is scored from its split row with the run's seed and
    # shots; it must be the very float objective samples at the node angles
    rng = np.random.default_rng(31)
    shots, seed = 700, 13
    opts = VqeOptions(restarts=1, seed=seed, estimator="sampled", shots=shots, depth=depth)
    for m in (1, 2, 3, 7, 8):
        p = make_params(2 * m, 0.75, 0.5)
        config = SectorConfig(m, 0, 0)
        thetas = rng.uniform(0.0, 4 * math.pi, m)
        for j in range(m):
            states = vqe._node_states(thetas, j, depth)
            values = vqe._energies(states, config, p, opts)
            for k in range(vqe.NODES):
                node = thetas.copy()
                node[j] += k * vqe.FULL_TURN / vqe.NODES
                assert values[k] == objective(node, config, p, opts)
        # a run's first five evaluations are the nodes of angle 0 at its start
        start = np.random.default_rng((seed, 0)).uniform(0.0, vqe.FULL_TURN, m)
        first = optimize(config, p, opts).trace[:vqe.NODES]
        for k, value in enumerate(first):
            node = start.copy()
            node[0] += k * vqe.FULL_TURN / vqe.NODES
            assert value == objective(node, config, p, opts)


@pytest.mark.parametrize("depth", ["linear", "log"])
def test_a_sampled_visit_seeds_one_generator(monkeypatch, depth):
    # the five nodes are measured in one call that rewinds one generator to
    # the seed's start before each node, instead of seeding one per node
    seeds = []

    def counted(seed=None, _fn=np.random.default_rng):
        seeds.append(seed)
        return _fn(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    p = make_params(20, 0.75, 0.5)
    config = SectorConfig(10, 0, 0)
    opts = VqeOptions(seed=17, estimator="sampled", shots=1000, depth=depth)
    thetas = np.linspace(0.3, 9.0, config.m).tolist()
    values, _, _ = vqe._sampled_visit(thetas, 4, config, p, opts)
    assert seeds == [17]
    assert values.shape == (vqe.NODES,)


@pytest.mark.parametrize("depth", ["linear", "log"])
def test_optimize_one_cold_restart_at_n160_reaches_ground(depth):
    p = make_params(160, 0.75, 0.5)
    config = SectorConfig(80, 0, 0)
    result = optimize(config, p, VqeOptions(restarts=1, seed=0, depth=depth))
    assert result.converged
    assert result.abs_error <= 1e-10


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


def test_optimize_m0_sector(monkeypatch):
    # no angles: every restart would start at the empty list, so one restart
    # runs, and it returns its one evaluation without running a sweep
    def no_sweep(*args):
        raise AssertionError("an M = 0 restart ran a sweep")
    for name in ("_carried_sweep", "_split_sweep"):
        monkeypatch.setattr(vqe, name, no_sweep)
    p = make_params(2, 0.75, 0.4)
    config = SectorConfig(0, 1, 1)
    for estimator in ("exact", "sampled"):
        energy = objective((), config, p, VqeOptions(estimator=estimator, shots=100))
        for warm in (False, True):
            opts = VqeOptions(restarts=5, warm=warm, estimator=estimator, shots=100)
            result = optimize(config, p, opts)
            assert result.abs_error < 1e-14
            assert result.best_thetas.thetas == ()
            assert result.evaluations == 1
            assert result.converged
            assert result.trace == (energy,)


def test_settable_values_are_the_run_defining_ones():
    # solver tolerances and the sweep cap are module constants, not options
    assert list(inspect.signature(solve_bethe).parameters) == ["config", "params"]
    assert [f.name for f in dataclasses.fields(VqeOptions)] == [
        "restarts", "seed", "estimator", "shots", "warm", "depth",
    ]
    assert list(inspect.signature(benchmark).parameters) == [
        "params", "options", "shot_budgets",
    ]
    # objective scores with the run's options, not its own copies of them
    assert list(inspect.signature(objective).parameters) == [
        "thetas", "config", "params", "options",
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


def test_optimize_rejects_negative_seed():
    with pytest.raises(InvalidArgumentError, match="seed"):
        VqeOptions(seed=-1)


@pytest.mark.parametrize("settings, message", [
    (dict(estimator="noisy"), "unknown estimator"),
    (dict(depth="deep"), "unknown depth mode"),
    (dict(estimator="sampled", shots=0), "shots must be >= 1"),
])
def test_vqe_options_refuse_bad_settings(settings, message):
    with pytest.raises(InvalidArgumentError, match=message):
        VqeOptions(**settings)
    # shots mean nothing to the exact estimator
    assert VqeOptions(estimator="exact", shots=0).shots == 0


@pytest.mark.parametrize("options", [{"depth": "log"}, "fast", 0, False, (), 1.5])
def test_options_must_be_vqe_options_or_none(options):
    p = make_params(4, 0.8, 0.25)
    config = SectorConfig(2, 0, 0)
    calls = [lambda: objective((0.1, 0.2), config, p, options),
             lambda: optimize(config, p, options),
             lambda: benchmark(p, options, (None,))]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="options must be a VqeOptions or None"):
            call()
    # None means the defaults
    assert objective((0.1, 0.2), config, p, None) == objective((0.1, 0.2), config, p, VqeOptions())


def _sample_n7(shots, seed):
    p = make_params(**N7)
    config = SectorConfig(3, 1, 0)
    target = encode(build_eigenstate(solve_bethe(config, p)[0]), config)
    state = run(build_circuit(linear_angles(target)))
    return sampled_expectation(state, pauli_groups(config, p), shots, seed)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _sample_n7(10.5, 0),
        lambda: _sample_n7(True, 0),
        lambda: _sample_n7(10, 1.5),
        lambda: VqeOptions(estimator="sampled", shots=10.5),
        lambda: VqeOptions(restarts=2.5),
        lambda: VqeOptions(restarts=True),
        lambda: VqeOptions(seed=1.5),
        lambda: FockVector(7.0, 1, np.ones(4)),
        lambda: FockVector(7, True, np.ones(4)),
        lambda: sector_configs(True),
        lambda: sector_configs(7.0),
    ],
    ids=["sample-shots-float", "sample-shots-bool", "sample-seed-float", "options-shots-float",
         "options-restarts-float", "options-restarts-bool", "options-seed-float",
         "fock-n-float", "fock-parity-bool", "sectors-bool", "sectors-float"],
)
def test_shots_seeds_restarts_and_quanta_must_be_integers(build):
    with pytest.raises(InvalidArgumentError, match="integer"):
        build()
    # numpy integers stay allowed, as plain ints are
    assert _sample_n7(np.int64(10), np.int32(0)) == _sample_n7(10, 0)
    assert VqeOptions(restarts=np.int64(2), seed=np.int8(1), shots=np.int64(5)).restarts == 2
    assert FockVector(np.int64(7), np.int64(1), np.ones(4)).sector == SectorConfig(3, 0, 1)
    assert sector_configs(np.int64(7)) == sector_configs(7)


@pytest.mark.parametrize("warm", ["no", 1, 0, None])
def test_vqe_options_warm_must_be_a_bool(warm):
    with pytest.raises(InvalidArgumentError, match="warm must be a bool"):
        VqeOptions(warm=warm, restarts=1)
    # numpy bools stay allowed, as plain bools are
    assert VqeOptions(warm=np.bool_(True)).warm
    assert not VqeOptions(warm=np.False_).warm


@pytest.mark.parametrize("n", [9, 10])
def test_every_sector_entry_refuses_a_mismatched_n(n):
    # SectorConfig(4, 0, 0) holds 8 particles; at N = 9 the even ladder has the
    # same length, so an unchecked site would return the N = 9 energy
    config = SectorConfig(4, 0, 0)
    p = make_params(n, 0.8, 0.25)
    thetas = (0.3, 1.0, 2.0, 0.5)
    state = run(build_circuit(AngleSet(thetas, "linear")))
    message = f"sector describes 8 particles, params describe {n}"
    sites = [
        lambda: objective(thetas, config, p),
        lambda: objective(thetas, config, p, VqeOptions(estimator="sampled", shots=10)),
        lambda: encoded_expectation(state, config, p),
        lambda: pauli_groups(config, p),
        lambda: sector_spectrum(config, p),
        lambda: solve_bethe(config, p),
        lambda: solve_levels(config, p),
        lambda: optimize(config, p, VqeOptions(restarts=1)),
    ]
    for site in sites:
        with pytest.raises(InvalidArgumentError, match=message):
            site()


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
            exact = objective(thetas, config, p, VqeOptions(depth=depth))
            assert exact == encoded_expectation(state, config, p)
            sampled_opts = VqeOptions(estimator="sampled", shots=500, seed=n, depth=depth)
            sampled = objective(thetas, config, p, sampled_opts)
            assert sampled == sampled_expectation(state, pauli_groups(config, p), 500, n)[0]


@pytest.mark.parametrize("estimator", ["exact", "sampled"])
def test_objective_rejects_wrong_angle_count(estimator):
    p = make_params(6, 0.9, 0.2)
    with pytest.raises(InvalidArgumentError):
        objective((0.4, 1.3), SectorConfig(3, 0, 0), p, VqeOptions(estimator=estimator))


def test_objective_refuses_angles_that_are_not_reals():
    p = make_params(4, 0.8, 0.25)
    for thetas in (np.zeros((2, 2)), ("a", 1.0), (1j, 0.0), ("1.5", 0.0)):
        with pytest.raises(InvalidArgumentError, match="real numbers"):
            objective(thetas, SectorConfig(2, 0, 0), p)


def test_objective_refuses_angles_that_are_not_a_sequence():
    p = make_params(4, 0.8, 0.2)
    for thetas in (5, 2.5, None):
        with pytest.raises(InvalidArgumentError, match="must be a sequence"):
            objective(thetas, SectorConfig(2, 0, 0), p)


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
        assert row["error"] == (
            "UnsupportedRegimeError: rational instance (V^2 = W^2): eta is undefined, "
            "use exact_spectrum"
        )


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


def test_each_sector_is_diagonalized_once_per_command(monkeypatch, capsys):
    calls = []
    eigh = np.linalg.eigh

    def counting(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for n in ("7", "40"):
        calls.clear()
        assert cli.main(["spectrum", "--n", n, "--v", "0.75", "--w", "0.5"]) == 0
        assert len(calls) == 2, n  # one per sector
    capsys.readouterr()
    p = make_params(7, 0.75, 0.5)
    calls.clear()
    benchmark(p, shot_budgets=(None,))
    # exact_spectrum (2), solve_levels per sector (2), a cold and a warm optimize (1 each)
    assert len(calls) == 6
    ground = SectorConfig(3, 1, 0)
    calls.clear()
    optimize(ground, p, VqeOptions(restarts=1, warm=True))
    assert len(calls) == 1
