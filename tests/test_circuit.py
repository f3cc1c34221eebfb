"""Circuit IR, encodings, angle computation, exporters."""

import json
import math
import tracemalloc

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
    exact_spectrum,
    export_circuit,
    import_circuit,
    linear_angles,
    log_angles,
    make_params,
    sector_configs,
    sector_spectrum,
)
from lmg.circuit import one_hot_output, one_hot_split
from lmg.model import ladder_occupations
from lmg.reference import (
    N7_LINEAR_ANGLES,
    N7_LOG_ANGLES,
    N7_STATE,
    N20_LINEAR_ANGLES,
    N20_STATE,
)
from oracles import closed_form_linear_angles, dumps_circuit


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


def test_log_control_slot_is_exact_beyond_float_precision():
    # log2 of 2**k - 1 rounds up to k once 2**k - 1 has more bits than a double holds
    for k in (50, 60):
        n = 2**k - 1
        assert control_slot(n, "log") == n - 2 ** (k - 1) + 1
        assert control_slot(n + 1, "log") == 1
    assert control_slot(np.int64(2**60 - 1), "log") == 2**59


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_control_slot_takes_the_counts_sector_config_takes(mode):
    # 1.5 and True came back unchanged in linear mode; np.int64 was refused in log mode only
    for n in range(1, 12):
        assert control_slot(np.int64(n), mode) == control_slot(n, mode)
    for bad in (1.5, 3.0, True, "a", None, np.float64(3.0), 0, -2, np.int64(0)):
        with pytest.raises(InvalidArgumentError, match="gate pair index"):
            control_slot(bad, mode)


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


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_json_export_writes_the_json_dumps_bytes_for_every_n200_eigenstate(mode):
    maker = linear_angles if mode == "linear" else log_angles
    configs = {c.parity: c for c in sector_configs(200)}
    for _, psi in exact_spectrum(make_params(200, 0.75, 0.5)):
        circ = build_circuit(maker(encode(psi, configs[psi.parity])))
        assert circ == Circuit(circ.num_qubits, circ.gates)  # the unchecked build passes the checks
        text = export_circuit(circ, "json")
        assert text == dumps_circuit(circ)
        again = import_circuit(text)
        assert again == circ
        assert all(type(gate) is Gate for gate in again.gates)


@pytest.mark.parametrize(
    "angle",
    [2, np.float64(0.5), np.float64(1 / 3), -0.0, 5e-324, -1.7976931348623157e308, 10**300, -(10**300)],
    ids=["int", "np-float64", "np-float64-third", "minus-zero", "subnormal", "most-negative",
         "int-1e300", "int-minus-1e300"],
)
def test_json_export_writes_numbers_as_json_does(angle):
    gates = (Gate("x", target=2), Gate("ry", target=1, angle=angle),
             Gate("cry", target=3, control=2, angle=angle), Gate("cx", target=1, control=3))
    circ = Circuit(num_qubits=3, gates=gates)
    text = export_circuit(circ, "json")
    assert text == dumps_circuit(circ)
    assert "np.float64" not in text
    again = import_circuit(text)
    assert again == circ
    assert all(type(gate) is Gate for gate in again.gates)
    assert type(again.gates[1].angle) is (int if isinstance(angle, int) else float)


def test_json_export_of_circuits_without_pairs_or_gates():
    for circ, layers in (
        (build_circuit(AngleSet((), "linear")), "[[0]]"),
        (build_circuit(AngleSet((), "log")), "[[0]]"),
        (Circuit(num_qubits=1, gates=()), "[]"),
        (Circuit(num_qubits=4, gates=()), "[]"),
    ):
        text = export_circuit(circ, "json")
        assert text == dumps_circuit(circ)
        assert f'"layers": {layers},' in text
        assert import_circuit(text) == circ
    assert export_circuit(Circuit(num_qubits=1, gates=()), "json") == (
        '{"gates": [], "layers": [], "num_qubits": 1}'
    )


def test_import_allocates_for_the_gates_not_the_declared_qubits():
    # the schedule tracks only the qubits the gates touch
    text = '{"num_qubits": 1000000000000000, "gates": [{"kind": "x", "target": 1}], "layers": [[0]]}'
    tracemalloc.start()
    try:
        circ = import_circuit(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert circ.layers == ((0,),)
    assert circ.num_qubits == 10**15
    assert export_circuit(circ, "json") == (
        '{"gates": [{"kind": "x", "target": 1}], "layers": [[0]], "num_qubits": 1000000000000000}'
    )


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


def one_gate(num_qubits, gate):
    return f'{{"num_qubits": {num_qubits}, "gates": [{gate}], "layers": [[0]]}}'


def import_error(text):
    with pytest.raises(InvalidArgumentError) as info:
        import_circuit(text)
    assert type(info.value) is InvalidArgumentError
    return str(info.value)


def test_import_rejects_malformed():
    for text, message in (
        ("not json", "not valid circuit JSON: Expecting value: line 1 column 1 (char 0)"),
        ("{}", "malformed circuit JSON: 'gates'"),
        ('{"num_qubits": 1, "gates": [{"kind": "x", "target": 1}]}',  # no layers
         "malformed circuit JSON: 'layers'"),
        (one_gate(1, '{"kind": "x", "target": true}'), "qubit indices must be ints, got (True,)"),
        (one_gate(2, '{"kind": "x", "target": 1.5}'), "qubit indices must be ints, got (1.5,)"),
        (one_gate('"2.0"', '{"kind": "x", "target": 1}'),
         "qubit count must be an int >= 1, got '2.0'"),
        (one_gate("2.0", '{"kind": "x", "target": 1}'), "qubit count must be an int >= 1, got 2.0"),
        (one_gate("true", '{"kind": "x", "target": 1}'),
         "qubit count must be an int >= 1, got True"),
        (one_gate(1, '{"kind": "ry", "angle": "0.5", "target": 1}'),
         "gate angle must be a finite real, got '0.5'"),
        (one_gate(1, '{"kind": "ry", "angle": NaN, "target": 1}'),
         "gate angle must be a finite real, got nan"),
        (one_gate(1, '{"kind": "ry", "angle": 1e400, "target": 1}'),
         "gate angle must be a finite real, got inf"),
        (one_gate(1, '{"kind": "ry", "angle": 1' + "0" * 400 + ', "target": 1}'),
         "gate angle must be a finite real, got 1" + "0" * 400),
        (one_gate(1, '{"kind": "x", "target": 2}'), "qubit index 2 outside 1..1"),
        (one_gate(2, '{"kind": "x", "target": 0}'), "qubit index 0 outside 1..2"),
        (one_gate(2, '{"kind": "cx", "control": 3, "target": 1}'), "qubit index 3 outside 1..2"),
        (one_gate(2, '{"kind": "cx", "control": 0, "target": 3}'), "qubit index 0 outside 1..2"),
        (one_gate(2, '{"kind": "cx", "control": 2, "target": 2}'), "control and target must differ"),
        (one_gate(2, '{"kind": "cx", "target": 2}'), "gate 'cx' control mismatch"),
        (one_gate(2, '{"kind": "cx", "control": 1.0, "target": 2}'),
         "qubit indices must be ints, got (1.0, 2)"),
        (one_gate(2, '{"kind": "cry", "control": 1, "target": 2, "angle": null}'),
         "gate 'cry' angle mismatch"),
        (one_gate(2, '{"kind": "h", "target": 2}'), "unknown gate kind 'h'"),
        (one_gate(2, '{"kind": ["x"], "target": 2}'), "unknown gate kind ['x']"),
        (one_gate(2, '{"target": 2}'), "malformed circuit JSON: 'kind'"),
        (one_gate(2, '{"kind": "x"}'), "malformed circuit JSON: 'target'"),
        (one_gate(2, '["x", 1]'),
         "malformed circuit JSON: list indices must be integers or slices, not str"),
        (one_gate(2, "5"), "malformed circuit JSON: 'int' object is not subscriptable"),
        ('{"num_qubits": 2, "gates": {"kind": "x"}, "layers": [[0]]}',
         "malformed circuit JSON: string indices must be integers, not 'str'"),
        ('{"num_qubits": 2, "gates": null, "layers": [[0]]}',
         "malformed circuit JSON: 'NoneType' object is not iterable"),
        ("[]", "malformed circuit JSON: list indices must be integers or slices, not str"),
        ('{"gates": [{"kind": "x", "target": 1}], "layers": [[0]]}',
         "malformed circuit JSON: 'num_qubits'"),
        ('{"num_qubits": 1, "gates": [{"kind": "x", "target": 1}], "layers": 5}',
         "layers must be the as-soon-as-possible schedule of the gates"),
        ('{"num_qubits": 1, "gates": [], "layers": [[0]]}',
         "layers must be the as-soon-as-possible schedule of the gates"),
    ):
        assert import_error(text) == message, text
    # json's own refusal; its wording is the interpreter's
    huge = one_gate(1, '{"kind": "ry", "angle": 1' + "0" * 5000 + ', "target": 1}')
    assert import_error(huge).startswith("not valid circuit JSON: Exceeds the limit")


def test_import_reports_the_same_fault_first():
    # every gate's fields are checked before the qubit count, the qubit ranges
    # (gate by gate, control before target) and then the layers
    for text, message in (
        # a range fault in gate 0 and an unknown kind in gate 1
        ('{"num_qubits": 2, "gates": [{"kind": "x", "target": 3}, {"kind": "h", "target": 1}],'
         ' "layers": [[0], [1]]}', "unknown gate kind 'h'"),
        (one_gate('"2.0"', '{"kind": "h", "target": 1}'), "unknown gate kind 'h'"),
        ('{"num_qubits": 2, "gates": [{"kind": "h", "target": 1}]}', "unknown gate kind 'h'"),
        ('{"gates": [{"kind": "h", "target": 1}]}', "unknown gate kind 'h'"),
        ('{"num_qubits": 2, "gates": [{"kind": "x", "target": 1}, ["x", 1]]}',
         "malformed circuit JSON: list indices must be integers or slices, not str"),
        ('{"num_qubits": 2, "gates": [{"kind": "x", "target": 3}, {"kind": "x"}]}',
         "malformed circuit JSON: 'target'"),
        ('{"num_qubits": 0, "gates": [{"kind": "x", "target": 3}]}',
         "qubit count must be an int >= 1, got 0"),
        ('{"gates": [{"kind": "x", "target": 3}]}', "malformed circuit JSON: 'num_qubits'"),
        ('{"num_qubits": 2, "gates": [{"kind": "x", "target": 1}, {"kind": "x", "target": 0},'
         ' {"kind": "x", "target": 3}]}', "qubit index 0 outside 1..2"),
        ('{"num_qubits": 2, "gates": [{"kind": "cx", "control": 4, "target": 3}]}',
         "qubit index 4 outside 1..2"),
        ('{"num_qubits": 2, "gates": [{"kind": "x", "target": 3}], "layers": 5}',
         "qubit index 3 outside 1..2"),
        ('{"num_qubits": 2, "gates": [{"kind": "x", "target": 1}]}',
         "malformed circuit JSON: 'layers'"),
    ):
        assert import_error(text) == message, text


@pytest.mark.parametrize(
    "fields",
    [
        ("h", 1),
        ("x", 1, None, 0.5),
        ("ry", 1),
        ("ry", 1, None, "0.5"),
        ("ry", 1, None, True),
        ("ry", 1, None, math.inf),
        ("cry", 2, None, 0.5),
        ("x", 2, 1),
        ("x", 1.0),
        ("x", True),
        ("cx", 2, 1.0),
        ("cx", 1, 1),
    ],
)
def test_gate_refusals(fields):
    with pytest.raises(InvalidArgumentError):
        Gate(*fields)


def test_gate_is_a_named_tuple_record():
    gate = Gate("cry", target=3, control=1, angle=-2.5)
    assert gate == ("cry", 3, 1, -2.5)
    assert gate.qubits == (1, 3) and Gate("x", target=2).qubits == (2,)
    assert repr(Gate("x", target=2)) == "Gate(kind='x', target=2, control=None, angle=None)"
    assert gate._replace(angle=0.5) == Gate("cry", target=3, control=1, angle=0.5)
    with pytest.raises(InvalidArgumentError):
        gate._replace(control=3)
    with pytest.raises(InvalidArgumentError):
        Gate._make(("cx", 1, 1, None))


def test_circuit_refuses_what_is_not_a_gate():
    for stray in (("x", 1, None, None), None, "x"):
        with pytest.raises(InvalidArgumentError):
            Circuit(num_qubits=2, gates=(Gate("x", target=1), stray))
    for gate in (Gate("x", target=3), Gate("cx", target=1, control=3), Gate("x", target=0)):
        with pytest.raises(InvalidArgumentError):
            Circuit(num_qubits=2, gates=(gate,))


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_built_gates_equal_checked_gates(mode):
    # build_circuit skips the Gate checks; the gates must be those the checked constructor makes
    rng = np.random.default_rng(47)
    for m in (0, 1, 2, 5, 16, 37):
        circ = build_circuit(AngleSet(tuple(rng.uniform(-6, 6, m)), mode))
        checked = tuple(Gate(*gate) for gate in circ.gates)
        assert circ.gates == checked
        assert all(type(gate) is Gate for gate in circ.gates)
        assert [repr(g) for g in circ.gates] == [repr(g) for g in checked]


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


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_log_angles_refuse_angles_that_miss_the_target(mode, monkeypatch):
    import lmg.circuit

    maker = linear_angles if mode == "linear" else log_angles
    target = normalized(np.arange(1.0, 6.0))
    monkeypatch.setattr(lmg.circuit, "one_hot_output", lambda angles: np.zeros(5))
    with pytest.raises(NumericFailureError, match=f"{mode}-depth"):
        maker(target)


_UNIT = normalized(np.random.default_rng(89).standard_normal(201))


@pytest.mark.parametrize("mode", ["linear", "log"])
@pytest.mark.parametrize(
    "target",
    [[0.6, 0.8000001], np.array([0.6, 0.8], dtype=np.float32), [-1.0],
     _UNIT * math.sqrt(1 + 9e-7)],
    ids=["norm-off-by-1.6e-7", "float32", "one-slot-negative", "201-slots-scaled"],
)
def test_both_depths_compile_every_target_the_input_check_accepts(target, mode):
    # the input check lets |T|^2 miss 1 by up to 1e-6, so the circuit
    # reaches T/|T|, not T, and the self-check must compare with that
    maker = linear_angles if mode == "linear" else log_angles
    unit = np.asarray(target, dtype=float)
    unit = unit / np.linalg.norm(unit)
    reached = one_hot_output(maker(target))
    assert min(np.max(np.abs(reached - unit)), np.max(np.abs(reached + unit))) <= 1e-12


def _eigenstates(n):
    params = make_params(n, 0.75, 0.5)
    for config in sector_configs(n):
        yield from sector_spectrum(config, params)[1].T


def test_linear_angles_match_the_closed_form_on_every_eigenstate():
    for n in (7, 20, 40, 100, 200):
        for target in _eigenstates(n):
            thetas = linear_angles(target).thetas
            assert all(0.0 <= theta <= 4 * math.pi for theta in thetas)
            angles_close_mod_4pi(thetas, closed_form_linear_angles(target), 1e-12)


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_every_eigenstate_up_to_n400_is_reached(mode):
    maker = linear_angles if mode == "linear" else log_angles
    for n in (1, 2, 7, 20, 40, 100, 200, 400):
        for target in _eigenstates(n):
            overlap = float(one_hot_output(maker(target)) @ target)
            assert overlap * overlap >= 1 - 1e-12, (n, mode)


def test_both_depths_reach_wide_range_targets_that_the_closed_form_misses():
    # amplitudes spanning 1e-9 to 1: arccos of partial norms near +-1 loses
    # accuracy, so the closed-form angles miss these targets by about 1e-8
    # (1.1e-8 on these seeds), while the merge stays at rounding
    rng = np.random.default_rng(61)
    oracle_miss = 0.0
    for _ in range(2000):
        size = int(rng.integers(2, 41))
        amps = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-9.0, 0.0, size)
        target = amps / np.linalg.norm(amps)
        for maker in (linear_angles, log_angles):
            assert np.max(np.abs(one_hot_output(maker(target)) - target)) <= 1e-15
        oracle = AngleSet(closed_form_linear_angles(target), "linear")
        oracle_miss = max(oracle_miss, float(np.max(np.abs(one_hot_output(oracle) - target))))
    assert 1e-9 < oracle_miss < 2e-8


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_one_hot_split_recombines_to_the_output(mode):
    # angle j enters every slot's amplitude through at most one factor,
    # cos(theta_j/2) or sin(theta_j/2), so the output is r + cos p + sin q
    rng = np.random.default_rng(83)
    for m in (1, 2, 3, 7, 8, 33):
        angles = AngleSet(tuple(rng.uniform(0.0, 4 * math.pi, m)), mode)
        output = one_hot_output(angles)
        for j in range(m):
            r, p, q = one_hot_split(angles, j)
            support = np.stack([r, p, q]) != 0
            assert np.all(support.sum(axis=0) <= 1), (m, j)
            half = angles.thetas[j] / 2
            recombined = r + math.cos(half) * p + math.sin(half) * q
            assert np.max(np.abs(recombined - output)) <= 1e-15, (m, j)


@pytest.mark.parametrize("j", [-1, 3])
def test_one_hot_split_refuses_an_angle_index_out_of_range(j):
    with pytest.raises(InvalidArgumentError, match="angle index"):
        one_hot_split(AngleSet((0.1, 0.2, 0.3), "linear"), j)


@pytest.mark.parametrize(
    "thetas",
    [("a",), (1j,), ([1.0, 2.0],), ("1.5",), (True,), (0.5, np.bool_(False)),
     (np.complex128(1.0),), 0.5],
    ids=["str", "complex", "list", "numeric-str", "bool", "numpy-bool", "numpy-complex",
         "scalar"],
)
def test_angle_set_refuses_what_is_not_a_real_angle(thetas):
    with pytest.raises(InvalidArgumentError, match="angles must be"):
        AngleSet(thetas, "linear")


def test_angle_set_takes_python_and_numpy_reals():
    angles = AngleSet((1, 2.5, np.int64(3), np.float32(0.5), np.float64(-1.0)), "log")
    assert angles.thetas == (1.0, 2.5, 3.0, 0.5, -1.0)
    assert all(type(t) is float for t in angles.thetas)
    assert AngleSet(np.array([0.25, 0.5]), "linear").thetas == (0.25, 0.5)
    for thetas in ((10**400,), (math.inf,), (0.0, np.nan)):
        with pytest.raises(InvalidArgumentError, match="angles must be finite"):
            AngleSet(thetas, "linear")
