"""Simulator: gate semantics, product-form conformance, energy estimators."""

import math
import time

import numpy as np
import pytest

from lmg import (
    AngleSet,
    InvalidArgumentError,
    LeakageError,
    SectorConfig,
    StateVector,
    build_circuit,
    encoded_expectation,
    fidelity,
    make_params,
    pauli_groups,
    run,
    sampled_expectation,
    sector_spectrum,
    solve_bethe,
)
from lmg.reference import (
    N7,
    N7_ENERGY,
    N7_LINEAR_ANGLES,
    N7_LINEAR_ENERGY,
    N7_LOG_ANGLES,
    N7_STATE,
    linear_product_form,
    log_product_form,
)
from oracles import pauli_terms


def normalized(values):
    arr = np.asarray(values, dtype=float)
    return arr / np.linalg.norm(arr)


def group_mean(group, weights):
    """Exact mean of one measurement group on normalized ladder weights."""
    values, probs = group.outcomes(weights)
    return float(values @ probs)


def test_run_single_pair_output():
    theta = 0.83
    state = run(build_circuit(AngleSet((theta,), "linear")))
    assert state.amplitude(0b01) == pytest.approx(math.sin(theta / 2), abs=1e-15)
    assert state.amplitude(0b10) == pytest.approx(math.cos(theta / 2), abs=1e-15)
    assert state.one_hot_leakage() == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("mode,oracle", [("linear", linear_product_form), ("log", log_product_form)])
def test_product_form_conformance(mode, oracle):
    rng = np.random.default_rng(47)
    for m in range(0, 6):
        for _ in range(20):
            thetas = tuple(rng.uniform(-2 * math.pi, 2 * math.pi, m))
            state = run(build_circuit(AngleSet(thetas, mode)))
            got = state.one_hot_block()[: m + 1].real
            np.testing.assert_allclose(got, oracle(m, thetas), atol=1e-12)


def test_norm_preservation():
    rng = np.random.default_rng(53)
    for mode in ("linear", "log"):
        for m in (1, 4, 9):
            circ = build_circuit(AngleSet(tuple(rng.uniform(0, 4 * math.pi, m)), mode))
            assert run(circ).norm() == pytest.approx(1.0, abs=1e-12)


def test_sparse_dense_agreement():
    rng = np.random.default_rng(59)
    for mode in ("linear", "log"):
        for m in (1, 3, 6):
            circ = build_circuit(AngleSet(tuple(rng.uniform(0, 4 * math.pi, m)), mode))
            sparse = run(circ)
            dense = run(circ, StateVector.zeros(circ.num_qubits, dense=True))
            assert sparse.is_dense is False and dense.is_dense is True
            for basis in range(2**circ.num_qubits):
                assert sparse.amplitude(basis) == pytest.approx(
                    dense.amplitude(basis), abs=1e-12
                )


def test_sparse_dense_agreement_general_inputs():
    # The sparse path is the oracle of the closed-form objective, so it must
    # stay general: arbitrary inputs, any gate mix, targets above or below
    # their controls.
    from lmg import Circuit, Gate

    rng = np.random.default_rng(67)
    for num_qubits in range(3, 7):
        dim = 2**num_qubits
        for trial in range(30):
            gates = []
            for _ in range(int(rng.integers(1, 30))):
                kind = str(rng.choice(["x", "ry", "cry", "cx"]))
                control, target = (int(q) for q in rng.choice(num_qubits, 2, replace=False) + 1)
                gates.append(
                    Gate(
                        kind,
                        target=target,
                        control=control if kind in ("cry", "cx") else None,
                        angle=float(rng.uniform(-4 * math.pi, 4 * math.pi))
                        if kind in ("ry", "cry")
                        else None,
                    )
                )
            circ = Circuit(num_qubits, tuple(gates))
            populated = dim if trial % 2 else int(rng.integers(1, 4))
            support = rng.choice(dim, populated, replace=False)
            amps = np.zeros(dim, dtype=complex)
            amps[support] = rng.normal(size=populated) + 1j * rng.normal(size=populated)
            amps /= np.linalg.norm(amps)
            sparse = run(circ, StateVector(num_qubits, {int(b): amps[b] for b in support}))
            dense = run(circ, StateVector(num_qubits, amps))
            assert not sparse.is_dense and dense.is_dense
            for basis in range(dim):
                assert abs(sparse.amplitude(basis) - dense.amplitude(basis)) <= 1e-12


def test_hamming_weight_confinement():
    rng = np.random.default_rng(61)
    for mode in ("linear", "log"):
        for m in range(1, 13):
            circ = build_circuit(AngleSet(tuple(rng.uniform(0, 4 * math.pi, m)), mode))
            assert run(circ).one_hot_leakage() < 1e-12


def test_one_hot_block_of_a_wide_sparse_state_is_fast():
    # one pass over the map: looking up every 2^k would hash 300,000 big integers
    n = 300_000
    state = StateVector(n, {1 << 123_456: -0.0 - 0.5j, 3 << 7: 1.0 + 0.0j})
    start = time.perf_counter()
    block = state.one_hot_block()
    assert time.perf_counter() - start < 0.5
    assert block.shape == (n,) and block.dtype == complex
    assert np.flatnonzero(block).tolist() == [123_456]
    assert math.copysign(1.0, block[123_456].real) == -1.0 and block[123_456].imag == -0.5
    assert math.copysign(1.0, block[0].real) == 1.0 and block[0].imag == 0.0


def test_one_hot_block_sparse_equals_dense():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(2**6) + 1j * rng.standard_normal(2**6)
    amps[[0, 4, 5]] = 0.0
    sparse = StateVector(6, {b: complex(a) for b, a in enumerate(amps) if b != 4})
    assert np.array_equal(sparse.one_hot_block(), StateVector(6, amps).one_hot_block())


def test_run_dimension_mismatch():
    circ = build_circuit(AngleSet((0.5,), "linear"))
    with pytest.raises(InvalidArgumentError):
        run(circ, StateVector.zeros(3))


def test_dense_cap():
    with pytest.raises(InvalidArgumentError):
        StateVector.zeros(21, dense=True)
    # sparse path has no such cap
    state = StateVector.one_hot(25, 1 << 24)
    assert state.norm() == 1.0


def test_fidelity_round_trip_and_orthogonality():
    from lmg import linear_angles

    rng = np.random.default_rng(67)
    target = normalized(rng.standard_normal(6))
    state = run(build_circuit(linear_angles(target)))
    assert fidelity(state, target) >= 1 - 1e-10
    basis0 = StateVector.one_hot(3, 0b001)
    ortho = np.array([0.0, 1.0, 0.0])
    assert fidelity(basis0, ortho) == pytest.approx(0.0, abs=1e-15)


def test_fidelity_n7_reference_circuit_vs_state():
    state = run(build_circuit(AngleSet(N7_LOG_ANGLES, "log")))
    assert fidelity(state, normalized(N7_STATE)) >= 1 - 1e-9
    state_lin = run(build_circuit(AngleSet(N7_LINEAR_ANGLES, "linear")))
    assert fidelity(state_lin, normalized(N7_STATE)) >= 1 - 1e-9


def test_encoded_expectation_n7_reference_angles():
    p = make_params(**N7)
    config = SectorConfig(3, 1, 0)
    lin = encoded_expectation(run(build_circuit(AngleSet(N7_LINEAR_ANGLES, "linear"))), config, p)
    assert lin == pytest.approx(N7_LINEAR_ENERGY, abs=5e-11)
    assert abs(lin - N7_ENERGY) / abs(N7_ENERGY) < 1e-9
    log = encoded_expectation(run(build_circuit(AngleSet(N7_LOG_ANGLES, "log"))), config, p)
    assert log == pytest.approx(-3.340515291813, abs=5e-11)
    assert abs(log - N7_ENERGY) / abs(N7_ENERGY) < 1e-9


def test_encoded_expectation_angle_endpoints():
    # theta = 0 parks the register at one-hot 2^M <-> |0,2| (diagonal +1);
    # theta = pi moves everything to 2^0 <-> |2,0> (diagonal -1).
    p = make_params(2, 0.75, 0.0)
    config = SectorConfig(1, 0, 0)
    at_zero = run(build_circuit(AngleSet((0.0,), "linear")))
    assert encoded_expectation(at_zero, config, p) == pytest.approx(1.0, abs=1e-14)
    at_pi = run(build_circuit(AngleSet((math.pi,), "linear")))
    assert encoded_expectation(at_pi, config, p) == pytest.approx(-1.0, abs=1e-14)


def test_encoded_expectation_leakage_error():
    p = make_params(2, 0.75, 0.0)
    bad = StateVector(2, np.array([0.0, 0.8, 0.0, 0.6], dtype=complex))  # weight on |11>
    with pytest.raises(LeakageError):
        encoded_expectation(bad, SectorConfig(1, 0, 0), p)


def test_encoded_expectation_matches_fock_expectation():
    from lmg import FockVector, expectation
    from lmg.circuit import linear_angles

    rng = np.random.default_rng(71)
    p = make_params(9, 0.85, 0.3)
    config = SectorConfig(4, 1, 0)
    target = normalized(rng.standard_normal(5))
    state = run(build_circuit(linear_angles(target)))
    direct = expectation(FockVector(9, 0, target), p)
    assert encoded_expectation(state, config, p) == pytest.approx(direct, abs=1e-10)


def test_pauli_group_counts():
    p4 = make_params(4, 1.0, 0.2)
    assert len(pauli_groups(SectorConfig(2, 0, 0), p4)) == 3
    assert len(pauli_groups(SectorConfig(1, 1, 1), p4)) == 2
    p2 = make_params(2, 1.0, 0.2)
    assert len(pauli_groups(SectorConfig(0, 1, 1), p2)) == 1
    p21 = make_params(21, 1.0, 0.2)
    assert len(pauli_groups(SectorConfig(10, 1, 0), p21)) == 3


def test_pauli_groups_are_built_once_and_immutable():
    # the sampled objective asks for the groups on every evaluation
    groups = pauli_groups(SectorConfig(3, 0, 0), make_params(6, 0.9, 0.25))
    assert isinstance(groups, tuple)
    assert pauli_groups(SectorConfig(3, 0, 0), make_params(6, 0.9, 0.25)) is groups


def test_pauli_groups_sum_to_expectation():
    rng = np.random.default_rng(73)
    for m in range(1, 11):
        n = 2 * m + 1
        p = make_params(n, rng.uniform(0.4, 1.3), rng.uniform(-0.3, 0.3))
        config = SectorConfig(m, 1, 0)
        target = normalized(rng.standard_normal(m + 1))
        state = StateVector(m + 1, {1 << k: complex(target[k]) for k in range(m + 1)})
        total = sum(group_mean(g, target) for g in pauli_groups(config, p))
        assert total == pytest.approx(encoded_expectation(state, config, p), abs=1e-10)


def test_pauli_groups_two_level_exact():
    p = make_params(2, 0.75, 0.1)
    config = SectorConfig(1, 0, 0)
    target = normalized([0.6, -0.8])
    state = StateVector(2, {0b01: 0.6, 0b10: -0.8})
    total = sum(group_mean(g, target) for g in pauli_groups(config, p))
    assert total == pytest.approx(encoded_expectation(state, config, p), abs=1e-12)


def test_sampled_expectation_deterministic():
    p = make_params(**N7)
    config = SectorConfig(3, 1, 0)
    state = run(build_circuit(AngleSet(N7_LINEAR_ANGLES, "linear")))
    groups = pauli_groups(config, p)
    first = sampled_expectation(state, groups, shots=5000, seed=123)
    second = sampled_expectation(state, groups, shots=5000, seed=123)
    assert first == second
    third = sampled_expectation(state, groups, shots=5000, seed=124)
    assert third != first


def test_sampled_expectation_zero_variance_on_diagonal_eigenstate():
    p = make_params(4, 1.0, 0.3)
    config = SectorConfig(2, 0, 0)
    z_group = [g for g in pauli_groups(config, p) if g.label == "z"]
    basis = StateVector.one_hot(3, 0b010)
    estimate, stderr = sampled_expectation(basis, z_group, shots=400, seed=5)
    diag_value = z_group[0].terms[1][1]
    assert estimate == pytest.approx(diag_value, abs=1e-14)
    assert stderr == 0.0


def test_sampled_expectation_converges_to_exact():
    p = make_params(**N7)
    config = SectorConfig(3, 1, 0)
    state = run(build_circuit(AngleSet(N7_LINEAR_ANGLES, "linear")))
    groups = pauli_groups(config, p)
    exact = encoded_expectation(state, config, p)
    estimate, stderr = sampled_expectation(state, groups, shots=1_000_000, seed=42)
    assert abs(estimate - exact) < 5 * stderr
    assert stderr < 5e-3


def test_sampled_expectation_input_validation():
    state = StateVector.one_hot(2, 0b10)
    with pytest.raises(InvalidArgumentError):
        sampled_expectation(state, [], shots=10, seed=0)
    p = make_params(2, 0.75, 0.0)
    groups = pauli_groups(SectorConfig(1, 0, 0), p)
    with pytest.raises(InvalidArgumentError):
        sampled_expectation(state, groups, shots=0, seed=0)
    with pytest.raises(InvalidArgumentError, match="seed"):
        sampled_expectation(state, groups, shots=10, seed=-1)


def test_run_composes_with_solver_states():
    # circuit-prepared eigenstates reproduce solver eigenvalues
    from lmg.circuit import linear_angles, log_angles

    p = make_params(8, 0.7, 0.2)
    config = SectorConfig(4, 0, 0)
    vals, vecs = sector_spectrum(config, p)
    for sol in solve_bethe(config, p):
        target = vecs[:, sol.index - 1]
        for maker in (linear_angles, log_angles):
            state = run(build_circuit(maker(target)))
            assert encoded_expectation(state, config, p) == pytest.approx(sol.omega, abs=1e-10)


def test_pauli_terms_rebuild_encoded_hamiltonian():
    # Sum of the groups' explicit Pauli matrices equals the encoded block on
    # the one-hot subspace.
    paulis = {
        "I": np.eye(2),
        "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
        "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    }

    def matrix(label):
        out = np.array([[1.0 + 0.0j]])
        for ch in label:
            out = np.kron(out, paulis[ch])
        return out

    from lmg.model import ladder_matrix

    for n, v, w, nu_a, nu_b in ((5, 0.9, 0.3, 1, 0), (6, 1.1, -0.4, 1, 1)):
        p = make_params(n, v, w)
        config = SectorConfig((n - nu_a - nu_b) // 2, nu_a, nu_b)
        size = config.m + 1
        total = np.zeros((2**size, 2**size), dtype=complex)
        for group in pauli_groups(config, p):
            for label, coeff in pauli_terms(group):
                total += coeff * matrix(label)
        diag, hop = ladder_matrix(p, config.parity)
        # one-hot integer 2^k sits at dense index 2^k
        for j in range(size):
            for k in range(size):
                element = total[1 << j, 1 << k]
                if j == k:
                    assert element.real == pytest.approx(diag[j], abs=1e-12)
                elif abs(j - k) == 1:
                    assert element.real == pytest.approx(hop[min(j, k)], abs=1e-12)
                else:
                    assert abs(element) < 1e-12
                assert abs(element.imag) < 1e-12


def test_plain_ry_gate_supported_in_both_paths():
    from lmg import Circuit, Gate

    circ = Circuit(
        num_qubits=2,
        gates=(Gate("ry", target=1, angle=0.9), Gate("ry", target=2, angle=-1.7)),
    )
    sparse = run(circ, StateVector.zeros(2))
    dense = run(circ, StateVector.zeros(2, dense=True))
    c1, s1 = math.cos(0.45), math.sin(0.45)
    c2, s2 = math.cos(-0.85), math.sin(-0.85)
    expected = {0b00: c1 * c2, 0b01: c1 * s2, 0b10: s1 * c2, 0b11: s1 * s2}
    for basis, amp in expected.items():
        assert sparse.amplitude(basis) == pytest.approx(amp, abs=1e-14)
        assert dense.amplitude(basis) == pytest.approx(amp, abs=1e-14)


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_one_hot_output_equals_sparse_simulation(mode):
    # The VQE objective reads these closed-form amplitudes instead of
    # simulating the circuit, so they must agree with the simulator bit for bit.
    from lmg.circuit import one_hot_output

    rng = np.random.default_rng(43)
    for m in range(21):
        for _ in range(5):
            angles = AngleSet(tuple(rng.uniform(-4 * math.pi, 4 * math.pi, m)), mode)
            block = run(build_circuit(angles)).one_hot_block()
            assert np.array_equal(one_hot_output(angles), block.real)
            assert not block.imag.any()
