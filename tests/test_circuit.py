"""Circuit IR, encodings, angle computation, exporters."""

import json
import math

import numpy as np
import pytest

from lmg import (
    AngleSet,
    Circuit,
    FockVector,
    Gate,
    InvalidArgumentError,
    NumericFailureError,
    SectorConfig,
    build_circuit,
    control_slot,
    encode,
    export_circuit,
    import_circuit,
    linear_angles,
    log_angles,
)
from lmg.circuit import one_hot_output
from lmg.model import ladder_occupations
from lmg.reference import (
    N7_LINEAR_ANGLES,
    N7_LOG_ANGLES,
    N7_STATE,
    N20_LINEAR_ANGLES,
    N20_STATE,
)


def normalized(values):
    arr = np.asarray(values, dtype=float)
    return arr / np.linalg.norm(arr)


def angles_close_mod_4pi(a, b, tol):
    period = 4 * math.pi
    for x, y in zip(a, b):
        delta = (x - y) % period
        assert min(delta, period - delta) < tol, (tuple(a), tuple(b))


def test_control_slot_sequences():
    assert [control_slot(n, "linear") for n in range(1, 9)] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert [control_slot(n, "log") for n in range(1, 11)] == [1, 1, 2, 1, 2, 3, 4, 1, 2, 3]


def test_encoding_bijection():
    # ladder position k, encoded on one-hot integer 2^k, is |2M + nu_a - 2k, nu_b + 2k>
    config = SectorConfig(3, 1, 0)
    n_a, n_b = ladder_occupations(config.n, config.parity)
    assert list(zip(n_a, n_b)) == [(7, 0), (5, 2), (3, 4), (1, 6)]
    assert list(n_a + n_b) == [config.n] * (config.m + 1)


def test_encode_reference_state():
    state = FockVector(7, 0, normalized(N7_STATE))
    target = encode(state, SectorConfig(3, 1, 0))
    np.testing.assert_allclose(target, normalized(N7_STATE), atol=1e-15)


def test_encode_rejects_wrong_sector():
    state = FockVector(7, 0, np.ones(4) / 2.0)
    with pytest.raises(InvalidArgumentError):
        encode(state, SectorConfig(3, 0, 1))
    with pytest.raises(InvalidArgumentError):
        encode(state, SectorConfig(4, 0, 0))


def test_linear_angles_n7_reference():
    angles = linear_angles(normalized(N7_STATE))
    assert angles.mode == "linear"
    angles_close_mod_4pi(angles.thetas, N7_LINEAR_ANGLES, 1e-4)


def test_linear_angles_n20_reference():
    angles = linear_angles(normalized(N20_STATE))
    angles_close_mod_4pi(angles.thetas, N20_LINEAR_ANGLES, 1e-4)


def test_linear_angles_single_pair_identity():
    for alpha in np.linspace(0.1, math.pi - 0.1, 7):
        angles = linear_angles([math.sin(alpha), math.cos(alpha)])
        assert angles.thetas[0] == pytest.approx(2 * alpha, abs=1e-12)


def test_linear_angles_zero_tail_convention():
    angles = linear_angles([0.0, 0.0, 1.0])
    assert angles.thetas == (0.0, 0.0)


def test_linear_angles_rejects_unnormalized():
    with pytest.raises(InvalidArgumentError):
        linear_angles([1.0, 1.0])


def test_linear_round_trip_random_targets():
    rng = np.random.default_rng(29)
    for m in range(1, 13):
        for _ in range(5):
            target = normalized(rng.standard_normal(m + 1))
            reached = one_hot_output(linear_angles(target))
            np.testing.assert_allclose(reached, target, atol=1e-12)


def test_log_angles_n7_reference_gauge():
    angles = log_angles(normalized(N7_STATE))
    assert angles.mode == "log"
    angles_close_mod_4pi(angles.thetas, N7_LOG_ANGLES, 1e-4)


def test_log_round_trip_random_targets():
    rng = np.random.default_rng(31)
    for m in range(1, 13):
        for _ in range(5):
            target = normalized(rng.standard_normal(m + 1))
            reached = one_hot_output(log_angles(target))
            np.testing.assert_allclose(reached, target, atol=1e-12)


def test_log_angles_match_linear_for_single_pair():
    rng = np.random.default_rng(37)
    for _ in range(10):
        target = normalized(rng.standard_normal(2))
        lin = linear_angles(target).thetas
        logm = log_angles(target).thetas
        angles_close_mod_4pi(lin, logm, 1e-12)


def test_build_circuit_structure_three_pairs_log():
    angles = AngleSet((0.3, 1.2, -0.4), "log")
    circ = build_circuit(angles)
    assert circ.num_qubits == 4
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["x", "cry", "cx", "cry", "cx", "cry", "cx"]
    assert [g.control for g in circ.gates if g.kind == "cry"] == [1, 1, 2]
    assert [g.target for g in circ.gates if g.kind == "cry"] == [2, 3, 4]
    assert [g.control for g in circ.gates if g.kind == "cx"] == [2, 3, 4]
    assert [g.target for g in circ.gates if g.kind == "cx"] == [1, 1, 2]
    assert circ.two_qubit_gate_count == 6
    assert circ.layers == ((0,), (1,), (2,), (3, 5), (4, 6))
    assert circ.two_qubit_layer_count == 4


def test_build_circuit_ten_pairs_log_counts():
    circ = build_circuit(AngleSet(tuple(np.linspace(0.1, 2.0, 10)), "log"))
    assert circ.num_qubits == 11
    assert circ.two_qubit_gate_count == 20
    assert circ.two_qubit_layer_count == 2 * (math.floor(math.log2(10)) + 1)


def test_build_circuit_empty():
    circ = build_circuit(AngleSet((), "linear"))
    assert circ.num_qubits == 1
    assert [g.kind for g in circ.gates] == ["x"]


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_gate_and_layer_invariants(mode):
    rng = np.random.default_rng(41)
    for m in range(1, 13):
        circ = build_circuit(AngleSet(tuple(rng.uniform(0, 4 * math.pi, m)), mode))
        assert sum(1 for g in circ.gates if g.kind == "x") == 1
        assert sum(1 for g in circ.gates if g.kind == "cry") == m
        assert sum(1 for g in circ.gates if g.kind == "cx") == m
        assert circ.two_qubit_gate_count == 2 * m
        expected_layers = 2 * m if mode == "linear" else 2 * (math.floor(math.log2(m)) + 1)
        assert circ.two_qubit_layer_count == expected_layers


def old_block_layers(m, mode):
    # the schedule build_circuit used to write out by hand
    if mode == "linear" or m == 0:
        return tuple((i,) for i in range(2 * m + 1))
    layers = [(0,)]
    block = 1
    while block <= m:
        pairs = range(block, min(2 * block, m + 1))
        layers.append(tuple(2 * n - 1 for n in pairs))
        layers.append(tuple(2 * n for n in pairs))
        block *= 2
    return tuple(layers)


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_derived_layers_equal_the_block_schedule(mode):
    for m in range(65):
        circ = build_circuit(AngleSet((0.5,) * m, mode))
        assert circ.layers == old_block_layers(m, mode)


def circuit_json(layers):
    return json.dumps(
        {
            "num_qubits": 2,
            "gates": [
                {"kind": "x", "target": 1},
                {"kind": "cry", "angle": 0.5, "control": 1, "target": 2},
            ],
            "layers": layers,
        }
    )


def test_circuit_validation_rejects_bad_layers():
    assert import_circuit(circuit_json([[0], [1]])).layers == ((0,), (1,))
    with pytest.raises(InvalidArgumentError):
        import_circuit(circuit_json([[0, 1]]))  # overlapping qubits
    with pytest.raises(InvalidArgumentError):
        import_circuit(circuit_json([[0]]))  # missing gate
    with pytest.raises(InvalidArgumentError):
        import_circuit(circuit_json([[0], [], [1]]))  # a valid schedule, but not ASAP
    with pytest.raises(InvalidArgumentError):
        Gate("cx", target=1, control=1)


def test_json_round_trip():
    rng = np.random.default_rng(43)
    for mode in ("linear", "log"):
        for m in (0, 1, 5, 12):
            circ = build_circuit(AngleSet(tuple(rng.uniform(-6, 6, m)), mode))
            again = import_circuit(export_circuit(circ, "json"))
            assert again == circ


def test_qasm_export_shape():
    circ = build_circuit(AngleSet((0.25, -1.5, 2.75), "log"))
    text = export_circuit(circ, "qasm")
    lines = text.strip().splitlines()
    assert lines[0] == "OPENQASM 3;"
    assert lines[1] == "qubit[4] q;"
    assert sum(1 for l in lines if l.startswith("x ")) == 1
    assert sum(1 for l in lines if l.startswith("ctrl @ ry(")) == 3
    assert sum(1 for l in lines if l.startswith("cx ")) == 3
    assert "ctrl @ ry(0.25) q[0], q[1];" in lines
    # 17 significant digits for non-terminating angles
    circ2 = build_circuit(AngleSet((1 / 3,), "linear"))
    assert "0.33333333333333331" in export_circuit(circ2, "qasm")


def test_export_unknown_format():
    circ = build_circuit(AngleSet((), "linear"))
    with pytest.raises(InvalidArgumentError):
        export_circuit(circ, "svg")


def test_import_rejects_malformed():
    def one_gate(num_qubits, gate):
        return f'{{"num_qubits": {num_qubits}, "gates": [{gate}], "layers": [[0]]}}'

    for text in (
        "not json",
        "{}",
        '{"num_qubits": 1, "gates": [{"kind": "x", "target": 1}]}',  # no layers
        one_gate(1, '{"kind": "x", "target": true}'),
        one_gate(2, '{"kind": "x", "target": 1.5}'),
        one_gate("2.0", '{"kind": "x", "target": 1}'),
        one_gate(1, '{"kind": "ry", "angle": "0.5", "target": 1}'),
        one_gate(1, '{"kind": "ry", "angle": NaN, "target": 1}'),
        one_gate(1, '{"kind": "ry", "angle": 1e400, "target": 1}'),
        one_gate(1, '{"kind": "ry", "angle": 1' + "0" * 400 + ', "target": 1}'),
        one_gate(1, '{"kind": "ry", "angle": 1' + "0" * 5000 + ', "target": 1}'),
    ):
        with pytest.raises(InvalidArgumentError):
            import_circuit(text)


def test_single_pair_angle_pairon_relation_w0():
    # For W = 0 single-pair states, sin(theta_1/2) = (E+1)/sqrt(2(E^2+1)) in
    # the gauge T = ((E+1), (E-1))/sqrt(2(E^2+1)).
    from lmg import make_params, solve_bethe
    from lmg.model import canonical_sign
    from lmg.eigenstates import build_eigenstate

    for nu, n in ((0, 2), (1, 4)):
        p = make_params(n, 0.9, 0.0)
        for sol in solve_bethe(SectorConfig(1, nu, nu), p):
            e1 = sol.energies[0]
            target = np.array([e1 + 1.0, e1 - 1.0]) / math.sqrt(2 * (e1 * e1 + 1.0))
            built = build_eigenstate(sol).amps
            np.testing.assert_allclose(
                canonical_sign(target), canonical_sign(built), atol=1e-12
            )
            theta1 = linear_angles(target).thetas[0]
            assert math.sin(theta1 / 2) == pytest.approx(
                (e1 + 1.0) / math.sqrt(2 * (e1 * e1 + 1.0)), abs=1e-10
            )


def test_json_round_trip_mixed_gate_kinds():
    gates = (
        Gate("x", target=2),
        Gate("ry", target=1, angle=0.125),
        Gate("cry", target=3, control=1, angle=-2.5),
        Gate("cx", target=2, control=3),
        Gate("ry", target=1, angle=2),
    )
    circ = Circuit(num_qubits=3, gates=gates)
    assert circ.layers == ((0, 1), (2,), (3, 4))
    text = export_circuit(circ, "json")
    assert '"angle": 2,' in text  # integer angles are kept, not converted
    assert import_circuit(text) == circ


def test_log_angles_refuse_angles_that_miss_the_target(monkeypatch):
    import lmg.circuit

    target = normalized(np.arange(1.0, 6.0))
    monkeypatch.setattr(lmg.circuit, "one_hot_output", lambda angles: np.zeros(5))
    with pytest.raises(NumericFailureError):
        log_angles(target)
