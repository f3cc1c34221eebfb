"""Simulator: gate semantics, product-form conformance, energy estimators."""

import math
import time
import tracemalloc

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
    sampled_expectations,
    sector_configs,
    sector_spectrum,
    solve_bethe,
)
from lmg.circuit import one_hot_split
from lmg.model import ladder_energy
from lmg.simulator import LEAKAGE_TOL
from lmg.reference import (
    N7,
    N7_ENERGY,
    N7_LINEAR_ANGLES,
    N7_LOG_ANGLES,
    N7_STATE,
    linear_product_form,
    log_product_form,
)
from oracles import (
    N7_LINEAR_ENERGY,
    copy_run_dense,
    outcomes_by_terms,
    pauli_terms,
    scan_run_sparse,
    unscaled_sampled_expectation,
)


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


def random_gates(rng, num_qubits: int, count: int) -> tuple:
    """Random x, ry, cry and cx gates, targets above and below their controls.

    One qubit allows only x and ry.
    """
    from lmg import Gate

    kinds = ["x", "ry", "cry", "cx"] if num_qubits > 1 else ["x", "ry"]
    gates = []
    for _ in range(count):
        kind = str(rng.choice(kinds))
        control, target = (int(q) for q in rng.choice(num_qubits, 2, replace=False) + 1) \
            if num_qubits > 1 else (None, 1)
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
    return tuple(gates)


def test_sparse_dense_agreement_general_inputs():
    # The sparse path is the oracle of the closed-form objective, so it must
    # stay general: arbitrary inputs, any gate mix, targets above or below
    # their controls.
    from lmg import Circuit

    rng = np.random.default_rng(67)
    for num_qubits in range(3, 7):
        dim = 2**num_qubits
        for trial in range(30):
            circ = Circuit(num_qubits, random_gates(rng, num_qubits, int(rng.integers(1, 30))))
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


def bits(amps: dict) -> list:
    """Keys in map order, each with the exact bits of its amplitude."""
    return [(basis, complex(a).real.hex(), complex(a).imag.hex(), type(a)) for basis, a in amps.items()]


def test_indexed_sparse_run_equals_the_scan_oracle_bit_for_bit():
    # Any gate mix (x, uncontrolled ry, targets above and below controls) on
    # inputs with explicit zeros, float and complex amplitudes: same keys, same
    # map order, same amplitude bits as a scan of the whole map per gate.
    from lmg import Circuit

    rng = np.random.default_rng(71)
    for num_qubits in range(2, 8):
        dim = 2**num_qubits
        for trial in range(40):
            circ = Circuit(num_qubits, random_gates(rng, num_qubits, int(rng.integers(1, 40))))
            support = rng.choice(dim, int(rng.integers(1, min(dim, 6) + 1)), replace=False)
            amps = {}
            for i, basis in enumerate(support.tolist()):
                if i == 0 and trial % 3 == 0:
                    amps[basis] = 0.0  # an explicit zero
                elif trial % 3 == 1:
                    amps[basis] = float(rng.normal())
                else:
                    amps[basis] = complex(rng.normal(), rng.normal())
            got = run(circ, StateVector(num_qubits, amps)).amps
            assert bits(got) == bits(scan_run_sparse(circ, amps))


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_staircase_sparse_run_equals_the_scan_oracle(mode):
    rng = np.random.default_rng(73)
    for m in (0, 1, 2, 7, 8, 33, 100):
        circ = build_circuit(AngleSet(tuple(rng.uniform(-4 * math.pi, 4 * math.pi, m)), mode))
        assert bits(run(circ).amps) == bits(scan_run_sparse(circ, {0: 1.0 + 0.0j}))


def test_sparse_run_refuses_a_negative_basis():
    from lmg import Circuit, Gate

    circ = Circuit(2, (Gate("cx", target=2, control=1),))
    with pytest.raises(InvalidArgumentError):
        run(circ, StateVector(2, {1: 0.6, -1: 0.8}))


@pytest.mark.parametrize(
    "key",
    [9, 4.0, np.int64(4), True, -1, 1 << 64],
    ids=["too-high", "float", "numpy-int", "bool", "negative", "2**64"],
)
def test_sparse_state_refuses_keys_outside_the_register(key):
    # 9 does not fit 3 qubits (an x on qubit 3 would turn it into 8); a float,
    # a numpy integer or a bool is not a basis integer (bit_length and the
    # set-bit index need a Python int)
    with pytest.raises(InvalidArgumentError):
        StateVector(3, {3: 0.6, key: 0.8})
    with pytest.raises(InvalidArgumentError):
        StateVector(3, {key: 1.0})


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize(
    "basis",
    [-1, 4, True, 1.0, np.int64(1), 1 << 64],
    ids=["negative", "too-high", "bool", "float", "numpy-int", "2**64"],
)
def test_amplitude_and_one_hot_refuse_a_basis_outside_the_register(dense, basis):
    # numpy would wrap -1 onto basis 3 and turn True into the whole array
    state = StateVector.one_hot(2, 3, dense=dense)
    with pytest.raises(InvalidArgumentError):
        state.amplitude(basis)
    with pytest.raises(InvalidArgumentError):
        StateVector.one_hot(2, basis, dense=dense)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_amplitude_reads_every_basis_of_the_register(dense):
    state = StateVector.one_hot(2, 3, dense=dense)
    assert [state.amplitude(basis) for basis in range(4)] == [0j, 0j, 0j, 1 + 0j]
    assert state.norm() == 1.0


def test_in_place_dense_run_equals_the_copy_oracle_bit_for_bit():
    # targets above and below controls, complex and real inputs, and 2-qubit
    # circuits whose controlled gates pin every axis of the tensor
    from lmg import Circuit

    rng = np.random.default_rng(79)
    for num_qubits in range(1, 8):
        dim = 2**num_qubits
        for trial in range(30):
            circ = Circuit(num_qubits, random_gates(rng, num_qubits, int(rng.integers(1, 30))))
            amps = rng.normal(size=dim) + (1j * rng.normal(size=dim) if trial % 3 else 0.0)
            amps = amps.astype(complex)
            got = run(circ, StateVector(num_qubits, amps)).amps
            assert got.tobytes() == copy_run_dense(circ, amps).tobytes()


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_staircase_dense_run_equals_the_copy_oracle(mode):
    rng = np.random.default_rng(83)
    for m in range(1, 16):
        circ = build_circuit(AngleSet(tuple(rng.uniform(-4 * math.pi, 4 * math.pi, m)), mode))
        zeros = StateVector.zeros(m + 1, dense=True)
        assert run(circ, zeros).amps.tobytes() == copy_run_dense(circ, zeros.amps).tobytes()


def test_dense_run_leaves_its_input_unchanged():
    from lmg import Circuit

    rng = np.random.default_rng(89)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    before = amps.tobytes()
    state = StateVector(5, amps)
    out = run(Circuit(5, random_gates(rng, 5, 40)), state)
    assert state.amps.tobytes() == amps.tobytes() == before
    assert not np.shares_memory(out.amps, amps)


def test_dense_run_peak_memory():
    # In place, one gate's buffers at a time: 1.5 states beyond the input,
    # plus numpy's iterator buffers (a few times 8192 amplitudes) for products
    # of strided views, which add half a state at 14 qubits but little at 18.
    # Copying both halves per gate and flattening a flipped view takes 2.51;
    # keeping one gate's copy alive into the next takes 1.75 at 18 qubits.
    for num_qubits, bound in ((14, 2.1), (18, 1.65)):
        circ = build_circuit(AngleSet(tuple(np.linspace(0.1, 3.0, num_qubits - 1)), "log"))
        state = StateVector.zeros(num_qubits, dense=True)
        tracemalloc.start()
        try:
            out = run(circ, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.amps.flags.c_contiguous
        assert peak <= bound * 16 * 2**num_qubits, num_qubits


def test_sparse_run_is_linear_in_the_gates():
    # A 4001-qubit staircase has 8001 gates; a scan of the map per gate made
    # it quadratic (several seconds), the set-bit index keeps it well under one.
    m = 4000
    circ = build_circuit(AngleSet(tuple(np.linspace(0.1, 3.0, m)), "log"))
    start = time.perf_counter()
    state = run(circ)
    assert time.perf_counter() - start < 1.0
    assert len(state.amps) == m + 1


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
    # refused before 2^n amplitudes are allocated, with the package's error;
    # numpy cannot allocate 2^40 or 2^64 amplitudes and would raise its own
    for num_qubits in (21, 40, 64):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgumentError):
                StateVector.zeros(num_qubits, dense=True)
            with pytest.raises(InvalidArgumentError):
                StateVector.one_hot(num_qubits, 1, dense=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, num_qubits
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


def test_encoded_expectation_reads_the_block_once_with_the_two_pass_bits(monkeypatch):
    # one block serves the leakage check and the energy; the values keep the
    # bits of checking one_hot_leakage, then scoring a second one_hot_block
    rng = np.random.default_rng(59)
    states = []
    for _ in range(20):
        n = int(rng.integers(2, 13))
        config = sector_configs(n)[int(rng.integers(0, 2))]
        if config.m == 0:
            config = sector_configs(n)[0]
        angles = AngleSet(tuple(rng.uniform(0.0, 4 * math.pi, config.m)), "log")
        state = run(build_circuit(angles), StateVector.zeros(config.m + 1, dense=n % 2 == 0))
        states.append((state, config, make_params(n, 0.75, rng.uniform(-1.0, 1.0))))
    expected = []
    for state, config, p in states:
        assert state.one_hot_leakage() <= LEAKAGE_TOL
        expected.append(ladder_energy(state.one_hot_block(), p, config.parity))
    built = []
    block = StateVector.one_hot_block
    monkeypatch.setattr(StateVector, "one_hot_block", lambda self: built.append(1) or block(self))
    values = [encoded_expectation(state, config, p) for state, config, p in states]
    assert [v.hex() for v in values] == [e.hex() for e in expected]
    assert len(built) == len(states)
    leaking = StateVector(3, {0b001: 0.8 + 0j, 0b011: 0.6 + 0j})
    with pytest.raises(LeakageError, match="leaks 3.600e-01 probability"):
        encoded_expectation(leaking, SectorConfig(2, 0, 0), make_params(4, 0.75, 0.5))


def test_encoded_expectation_matches_fock_expectation():
    from lmg.circuit import linear_angles

    rng = np.random.default_rng(71)
    p = make_params(9, 0.85, 0.3)
    config = SectorConfig(4, 1, 0)
    target = normalized(rng.standard_normal(5))
    state = run(build_circuit(linear_angles(target)))
    direct = ladder_energy(target, p, 0)
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
    # each group builds its outcome values once, not per call or per row
    weights = normalized([0.5, -0.1, 0.3, 0.8])
    for group in groups:
        values = group.outcomes(weights)[0]
        assert group.outcomes(weights[::-1].copy())[0] is values
        assert group.outcomes(np.stack([weights, weights[::-1]]))[0] is values
        assert not values.flags.writeable


def test_pauli_groups_take_memory_linear_in_the_sector():
    # the outcome probabilities come from gathers of the weights, so no
    # (M+1)^2 basis is built: at M = 2000 that would be 32 MB per group
    m = 2000
    config, p = SectorConfig(m, 0, 0), make_params(2 * m, 0.61, 0.37)
    weights = np.random.default_rng(5).standard_normal((5, m + 1))
    weights /= np.linalg.norm(weights, axis=1)[:, None]
    pauli_groups.cache_clear()
    tracemalloc.start()
    try:
        groups = pauli_groups(config, p)
        for group in groups:
            group.outcomes(weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(groups) == 3
    assert peak < 8_000_000, peak


def test_outcomes_equal_the_term_by_term_oracle():
    # the O(M) gathers give the term-by-term table: same values in the same
    # order, and probabilities up to rounding, for real and complex weights
    rng = np.random.default_rng(83)
    for n in [*range(1, 41), 101]:
        p = make_params(n, 0.75, 0.5)
        for config in sector_configs(n):
            real = normalized(rng.standard_normal(config.m + 1))
            phased = real * np.exp(1j * rng.uniform(0.0, 2 * math.pi, real.size))
            for group in pauli_groups(config, p):
                for weights in (real, phased):
                    values, probs = group.outcomes(weights)
                    want_values, want_probs = outcomes_by_terms(group, weights)
                    assert values.tolist() == want_values.tolist()
                    np.testing.assert_allclose(probs, want_probs, rtol=0.0, atol=1e-15)
                # rows of states give each row's probabilities, in the same order
                rows = np.stack([real, phased])
                values, probs = group.outcomes(rows)
                assert probs.shape == (2, values.size)
                for weights, got in zip(rows, probs):
                    want_values, want_probs = outcomes_by_terms(group, weights)
                    assert values.tolist() == want_values.tolist()
                    np.testing.assert_allclose(got, want_probs, rtol=0.0, atol=1e-15)


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


def test_sampled_expectation_equals_the_unscaled_oracle_bit_for_bit():
    # power-of-two units change no bit; V = 40 and 1e4 have largest outcome
    # values above 1, so there the units are not 1
    rng = np.random.default_rng(29)
    for n, v, w in ((7, 0.75, 0.5), (8, 40.0, 0.25), (12, 0.9, -0.3), (20, 1e4, 0.5)):
        p = make_params(n, v, w)
        for config in sector_configs(n):
            groups = pauli_groups(config, p)
            target = normalized(rng.standard_normal(config.m + 1))
            state = StateVector(config.m + 1, {1 << k: complex(t) for k, t in enumerate(target)})
            for shots in (1, 100, 10_000):
                seed = int(rng.integers(1000))
                got = sampled_expectation(state, groups, shots=shots, seed=seed)
                assert got == unscaled_sampled_expectation(state, groups, shots, seed)


def test_equal_outcome_probabilities_keep_their_sampled_bits():
    # a zero amplitude gives its bonds two equal outcome probabilities, so a
    # binomial draw's p sits at 1/2, where a last-bit change in the
    # probabilities changes the counts: |a_k +- a_(k+1)|^2 / 2 changes the
    # first state's, and normalizing real rows by real division the second's.
    # Pinned from the estimator that multiplied a dense (M+1)^2 basis.
    groups = pauli_groups(SectorConfig(4, 0, 0), make_params(8, 0.75, 0.5))
    pinned = {  # (amplitudes, seed): (estimate, standard error) at 1000 shots
        ((0.3, 0.0, 0.5, -0.2, 0.7), 0): (2.182956256383383, 0.08023646580604984),
        ((0.3, 0.0, 0.5, -0.2, 0.7), 1): (2.228084401112215, 0.08267866023534799),
        ((-0.5, 0.0, 0.6, -0.8, 0.2), 0): (0.5959070676218874, 0.08152074736406317),
    }
    for (amps, seed), want in pinned.items():
        state = StateVector(5, {1 << k: complex(a) for k, a in enumerate(amps)})
        assert sampled_expectation(state, groups, 1000, seed) == want
        estimates, errors = sampled_expectations(np.array([amps]), groups, 1000, seed)
        assert (estimates[0], errors[0]) == want


@pytest.mark.parametrize("shots", [100, 10_000])
def test_sampled_expectation_finite_where_squared_spreads_overflow(shots):
    p = make_params(8, 1e306, 0.0)
    config = SectorConfig(4, 0, 0)
    groups = pauli_groups(config, p)
    state = StateVector(5, {1 << k: complex(t) for k, t in enumerate(normalized([1, 2, 3, 4, 5]))})
    with np.errstate(over="ignore", invalid="ignore"):
        _, unscaled_error = unscaled_sampled_expectation(state, groups, shots, 3)
    assert not math.isfinite(unscaled_error)
    estimate, stderr = sampled_expectation(state, groups, shots=shots, seed=3)
    assert math.isfinite(estimate) and math.isfinite(stderr) and stderr > 0.0
    exact = encoded_expectation(state, config, p)
    assert abs(estimate - exact) < 5 * stderr


def _node_rows(rng, m, depth):
    """The five one-hot states of one SMO angle visit: r + cos(phi_k) p + sin(phi_k) q."""
    thetas = rng.uniform(0.0, 4 * math.pi, m)
    j = int(rng.integers(m))
    halves = thetas[j] / 2 + 2 * math.pi * np.arange(5) / 5
    factors = np.stack([np.ones(5), np.cos(halves), np.sin(halves)], axis=1)
    return factors @ one_hot_split(AngleSet(thetas, depth), j)


@pytest.mark.parametrize("depth", ["linear", "log"])
def test_rows_measured_together_equal_each_row_measured_alone(depth):
    # every row is measured from the start of the seed's stream, so a row's
    # estimate and standard error are exactly those of sampled_expectation on
    # that row's state; V = 40 and 1e4 scale the units, and at V = 1e306 the
    # squared spreads only stay finite in those units
    rng = np.random.default_rng(61)
    for n, v, w in ((8, 40.0, 0.25), (20, 1e4, 0.5), (8, 1e306, 0.0), (101, 0.75, 0.5)):
        p = make_params(n, v, w)
        config = SectorConfig(n // 2, n % 2, 0)
        groups = pauli_groups(config, p)
        real = _node_rows(rng, config.m, depth)
        phased = real * np.exp(1j * rng.uniform(0.0, 2 * math.pi, real.shape))
        for rows in (real, phased):
            for shots in (1, 100, 10_000):
                seed = int(rng.integers(2**31))
                estimates, errors = sampled_expectations(rows, groups, shots, seed)
                assert estimates.shape == errors.shape == (5,)
                for row, estimate, error in zip(rows, estimates, errors):
                    state = StateVector(config.m + 1, {1 << k: a for k, a in enumerate(row)})
                    assert (estimate, error) == sampled_expectation(state, groups, shots, seed)
                    assert math.isfinite(estimate) and math.isfinite(error)
                    assert (error == 0.0) == (shots == 1)


def test_sampled_expectations_refuses_rows_of_the_wrong_shape_or_without_weight():
    # shots, seed and groups are checked as sampled_expectation checks them
    groups = pauli_groups(SectorConfig(2, 0, 0), make_params(4, 0.75, 0.5))
    rows = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
    for states in (rows[0], rows[:, :2], rows[None]):
        with pytest.raises(InvalidArgumentError, match="rows of 3 one-hot amplitudes"):
            sampled_expectations(states, groups, shots=10, seed=0)
    with pytest.raises(InvalidArgumentError, match="no weight"):
        sampled_expectations(np.vstack([rows, np.zeros(3)]), groups, shots=10, seed=0)


@pytest.mark.parametrize("k", [-600, 600, 900])
def test_rows_whose_weight_over_or_underflows_keep_their_sampled_bits(k):
    # scaled by 2^k, each row's sum of squares under- or overflows; the row is
    # scaled back by a power of two first, so it measures as the unscaled row
    rng = np.random.default_rng(67)
    groups = pauli_groups(SectorConfig(4, 0, 0), make_params(8, 0.75, 0.5))
    rows = rng.uniform(1e-3, 1.0, (6, 5)) * rng.choice((-1.0, 1.0), (6, 5))
    for shots, seed in ((1, 0), (100, 5), (10_000, 9)):
        want = sampled_expectations(rows, groups, shots, seed)
        got = sampled_expectations(rows * 2.0**k, groups, shots, seed)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("amp", [1e200, 1e-170, 5e-324, 1e308])
def test_sampled_expectation_of_huge_and_tiny_amplitudes(amp):
    groups = pauli_groups(SectorConfig(1, 0, 0), make_params(2, 0.75, 0.5))
    want = sampled_expectation(StateVector(2, {1: 1.0, 2: 1.0}), groups, 100, 0)
    assert sampled_expectation(StateVector(2, {1: amp, 2: amp}), groups, 100, 0) == want


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
