"""One-hot eigenstate-preparation circuits and their rotation angles.

A sector state with M+1 ladder amplitudes is encoded on M+1 qubits as the
one-hot integer 2^k  <->  |2M + nu_a - 2k, nu_b + 2k>.  Starting from
|1> (x) |0>^M, a staircase of M controlled-RY / CNOT pairs reaches any real
unit vector on that support.  Pair n has its rotation controlled by qubit
f(n) and targeted at qubit n+1; the slot function f picks the depth:

    f(n) = n                       linear depth
    f(n) = n - 2^floor(log2 n) + 1  logarithmic depth (tree fan-out)

One backward merge of slot pairs compiles a target's angles for either
schedule; the two depths differ only in the sign gauge, and both compilers
check the circuit's output against the target over its merged norm.

Qubit 1 is the leftmost (most significant) bit, so the one-hot integer 2^k
keeps its set bit on qubit M+1-k.  A circuit stores only its gates; its
layer schedule, and so its depth, is derived from them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError
from .model import FockVector, SectorConfig, _finite_reals, _is_count

__all__ = [
    "AngleSet",
    "Gate",
    "Circuit",
    "control_slot",
    "encode",
    "linear_angles",
    "log_angles",
    "one_hot_output",
    "one_hot_split",
    "build_circuit",
    "export_circuit",
    "import_circuit",
]

MODES = ("linear", "log")
GATE_KINDS = ("x", "ry", "cry", "cx")


def control_slot(n: int, mode: str) -> int:
    """Control-qubit index f(n) for gate pair n, a positive int or numpy integer (not a bool)."""
    if not (type(n) is int or _is_count(n)) or n < 1:
        raise InvalidArgumentError(f"gate pair index must be a positive integer, got {n!r}")
    if mode == "linear":
        return n
    if mode == "log":
        return n - (1 << (int(n).bit_length() - 1)) + 1  # exact 2^floor(log2 n), unlike float log2
    raise InvalidArgumentError(f"unknown depth mode {mode!r}")


@dataclass(frozen=True)
class AngleSet:
    """Rotation angles theta_1..theta_M plus the depth mode they drive.

    Each angle is a Python or numpy int or float (not a bool) and finite,
    stored as a float; anything else, or an unknown mode, raises
    InvalidArgumentError.  A 1-D ndarray is judged by its dtype.
    """

    thetas: tuple[float, ...]
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidArgumentError(f"unknown depth mode {self.mode!r}")
        thetas = tuple(_finite_reals(self.thetas, "angles").tolist())
        object.__setattr__(self, "thetas", thetas)

    def __len__(self) -> int:
        return len(self.thetas)


def _check_gate(kind, target, control, angle) -> None:
    """Raise InvalidArgumentError unless the four fields make a valid gate."""
    if kind not in GATE_KINDS:
        raise InvalidArgumentError(f"unknown gate kind {kind!r}")
    needs_angle = kind in ("ry", "cry")
    if needs_angle != (angle is not None):
        raise InvalidArgumentError(f"gate {kind!r} angle mismatch")
    # a JSON number, as the exporter writes it by float.__repr__ or int.__repr__; the
    # bound is False for NaN, infinities and ints beyond the float range
    if needs_angle and not (
        isinstance(angle, (int, float)) and type(angle) is not bool
        and abs(angle) <= sys.float_info.max
    ):
        raise InvalidArgumentError(f"gate angle must be a finite real, got {angle!r}")
    needs_control = kind in ("cry", "cx")
    if needs_control != (control is not None):
        raise InvalidArgumentError(f"gate {kind!r} control mismatch")
    if type(target) is not int or type(control) not in (int, type(None)):
        qubits = (target,) if control is None else (control, target)
        raise InvalidArgumentError(f"qubit indices must be ints, got {qubits!r}")
    if control is not None and control == target:
        raise InvalidArgumentError("control and target must differ")


class _GateFields(NamedTuple):
    kind: str
    target: int
    control: int | None = None
    angle: float | None = None


class Gate(_GateFields):
    """Single gate record; ``control`` and ``angle`` apply where meaningful.

    A named tuple, so it is cheap to build and compares equal to a plain
    tuple with the same fields.  The constructor (and ``_make``/``_replace``)
    refuses an invalid gate; code that has already checked its fields may
    build one with ``tuple.__new__(Gate, fields)``.
    """

    __slots__ = ()

    def __new__(cls, kind: str, target: int, control: int | None = None, angle: float | None = None):
        _check_gate(kind, target, control, angle)
        return tuple.__new__(cls, (kind, target, control, angle))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,) if self.control is None else (self.control, self.target)


def _schedule(gates) -> list[list[int]]:
    """As-soon-as-possible layers of gate indices, as lists.

    Tracks depth only for the qubits the gates touch, so a circuit declaring
    10^15 qubits costs no more than its gates.
    """
    depth: dict[int, int] = {}  # layers used so far, per qubit touched
    get = depth.get
    layers: list[list[int]] = []
    for i, (_, target, control, _) in enumerate(gates):
        level = get(target, 0)
        if control is not None:
            above = get(control, 0)
            if above > level:
                level = above
            depth[control] = level + 1
        depth[target] = level + 1
        if level < len(layers):
            layers[level].append(i)
        else:
            layers.append([i])
    return layers


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list on qubits 1..num_qubits; ``layers`` derives its schedule."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if type(self.num_qubits) is not int or self.num_qubits < 1:
            raise InvalidArgumentError(f"qubit count must be an int >= 1, got {self.num_qubits!r}")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        n = self.num_qubits
        for gate in gates:
            if not isinstance(gate, Gate):
                raise InvalidArgumentError(f"circuit gates must be Gate records, got {gate!r}")
            _, target, control, _ = gate
            if control is not None and not 1 <= control <= n:
                raise InvalidArgumentError(f"qubit index {control} outside 1..{n}")
            if not 1 <= target <= n:
                raise InvalidArgumentError(f"qubit index {target} outside 1..{n}")

    @classmethod
    def _unchecked(cls, num_qubits: int, gates) -> "Circuit":
        """A circuit built without the checks, from gates and a qubit count known valid."""
        circ = object.__new__(cls)
        object.__setattr__(circ, "num_qubits", num_qubits)
        object.__setattr__(circ, "gates", tuple(gates))
        return circ

    @property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """As-soon-as-possible schedule: one layer after the last gate on any of its qubits."""
        return tuple(map(tuple, _schedule(self.gates)))

    @property
    def two_qubit_gate_count(self) -> int:
        return sum(1 for g in self.gates if g.control is not None)

    @property
    def two_qubit_layer_count(self) -> int:
        return sum(1 for layer in self.layers if any(self.gates[i].control is not None for i in layer))


def encode(psi: FockVector, config: SectorConfig) -> np.ndarray:
    """Target amplitude vector T with T[k] on one-hot integer 2^k."""
    if psi.n != config.n or psi.parity != config.parity:
        raise InvalidArgumentError(
            f"state ({psi.n} quanta, parity {psi.parity}) lies outside sector "
            f"({config.m}, {config.nu_a}, {config.nu_b})"
        )
    return psi.amps.copy()


def one_hot_output(angles: AngleSet) -> np.ndarray:
    """Closed-form one-hot amplitudes produced by the circuit for ``angles``.

    Tracks the Hamming-weight-1 subspace directly: gate pair n moves the
    amplitude parked at ladder slot M+1-f(n) into slot M-n with weight
    sin(theta_n/2), keeping cos(theta_n/2) behind.
    """
    m = len(angles.thetas)
    amps = np.zeros(m + 1)
    amps[m] = 1.0
    for n, theta in enumerate(angles.thetas, start=1):
        src = m + 1 - control_slot(n, angles.mode)
        dst = m - n
        moving = amps[src]
        amps[src] = math.cos(theta / 2.0) * moving
        amps[dst] += math.sin(theta / 2.0) * moving
    return amps


def one_hot_split(angles: AngleSet, j: int) -> np.ndarray:
    """Rows (r, p, q) of the one-hot output, split by angle ``j`` (0-based).

    With phi = theta_j/2 and the other angles fixed, :func:`one_hot_output`
    is r + cos(phi) p + sin(phi) q, and r, p and q have disjoint supports.
    Gate pair j+1 splits the amplitude of one slot into a kept part (factor
    cos phi) and a moved part (factor sin phi); every later pair moves
    amplitude only from a slot to a fresh one, so p holds what descends from
    the kept part, q what descends from the moved part, and r the rest.  Runs
    the moves of ``one_hot_output`` once, with pair j+1's factors set to 1
    and each slot's owner (r, p or q) carried along: O(M).
    """
    thetas, mode = angles.thetas, angles.mode
    m = len(thetas)
    if not 0 <= j < m:
        raise InvalidArgumentError(f"angle index must lie in 0..{m - 1}, got {j}")
    amps = [0.0] * (m + 1)
    amps[m] = 1.0
    owner = [0] * (m + 1)
    for n, theta in enumerate(thetas, start=1):
        src = m + 1 - control_slot(n, mode)
        dst = m - n  # no earlier pair writes this slot
        moving = amps[src]
        if n == j + 1:
            owner[src], owner[dst] = 1, 2
            amps[dst] = moving
        else:
            amps[src] = math.cos(theta / 2.0) * moving
            amps[dst] = math.sin(theta / 2.0) * moving
            owner[dst] = owner[src]
    parts = np.zeros((3, m + 1))
    parts[owner, np.arange(m + 1)] = amps
    return parts


def _merge_angles(target, mode: str) -> AngleSet:
    """Invert :func:`one_hot_output` on ``mode``'s schedule, in O(M).

    For n = M .. 1, pair n's slots M+1-f(n) (source) and M-n merge into the
    source with radius hypot(src, dst), and theta_n/2 is their atan2 over
    that radius; a pair of zeros keeps theta_n = 0.  The target ends in slot
    M as the root radius r.  The gauge picks one of the angle sets reaching
    the same state.  A target that is not a unit vector of finite reals
    raises InvalidArgumentError, and an output that misses T / r by more
    than 1e-12 raises NumericFailureError.
    """
    c = _finite_reals(target, "target")
    if abs(c @ c - 1.0) > 1e-6:
        raise InvalidArgumentError(f"target must be normalized, got |T|^2 = {c @ c:.9f}")
    m = c.size - 1
    amps = c.tolist()
    thetas = [0.0] * m
    signed = mode == "log"
    for n in range(m, 0, -1):
        src = m + 1 - control_slot(n, mode)
        dst = m - n
        radius = math.hypot(amps[src], amps[dst])
        if radius == 0.0:
            continue
        if signed and n > 1 and amps[src] < 0:
            radius = -radius
        thetas[n - 1] = 2.0 * math.atan2(amps[dst] / radius, amps[src] / radius)
        amps[src] = radius
        amps[dst] = 0.0
    if not signed:
        thetas = [theta % (4.0 * math.pi) for theta in thetas]
    angles = AngleSet(thetas, mode)
    if float(np.max(np.abs(one_hot_output(angles) - c / amps[m]))) > 1e-12:
        raise NumericFailureError(f"{mode}-depth angles do not reproduce the target")
    return angles


def linear_angles(target) -> AngleSet:
    """Angles driving the linear-depth circuit to a unit target, checked.

    The backward merge in the linear gauge: every merged radius is >= 0 and
    the angles are taken mod 4 pi, which gives the paper's hyperspherical
    angles.  Raises as :func:`_merge_angles` does.
    """
    return _merge_angles(target, "linear")


def log_angles(target) -> AngleSet:
    """Angles driving the logarithmic-depth circuit to a unit target, checked.

    The backward merge in the log gauge: a merged radius keeps its source
    sign, so cos(theta/2) >= 0 for every pair but the first.  Raises as
    :func:`_merge_angles` does.
    """
    return _merge_angles(target, "log")


def build_circuit(angles: AngleSet) -> Circuit:
    """Assemble the staircase circuit for an angle set.

    Emits X on qubit 1, then for each n the pair CRY(theta_n) with control
    f(n) and target n+1 followed by CNOT with control n+1 and target f(n).
    In log mode the pairs of each block n = 2^k .. 2^(k+1) - 1 touch
    disjoint qubits, so the derived schedule runs each block in two layers.
    The angles are finite floats (``AngleSet`` checks them) and f(n) <= n,
    so every gate is valid by construction and skips the ``Gate`` and
    ``Circuit`` checks.
    """
    new, mode = tuple.__new__, angles.mode
    gates = [new(Gate, ("x", 1, None, None))]
    for n, theta in enumerate(angles.thetas, start=1):
        slot = control_slot(n, mode)
        gates.append(new(Gate, ("cry", n + 1, slot, theta)))
        gates.append(new(Gate, ("cx", slot, n + 1, None)))
    return Circuit._unchecked(len(angles.thetas) + 1, gates)


def export_circuit(circ: Circuit, format: str = "json") -> str:
    """Serialize a circuit; JSON round-trips bit-exactly, QASM-3 is one-way.

    The JSON is written directly, with the bytes ``json.dumps(...,
    sort_keys=True)`` gives: keys "gates", "layers", "num_qubits", and per
    gate "angle" and "control" (where set), "kind", "target"; separators
    ", " and ": "; an angle by ``float.__repr__``, or ``int.__repr__`` if it
    is an int, so a numpy float angle is written as its value.
    """
    if format == "json":
        entries = []
        for kind, target, control, angle in circ.gates:
            head = ""
            if angle is not None:
                number = float.__repr__ if isinstance(angle, float) else int.__repr__
                head = f'"angle": {number(angle)}, '
            if control is not None:
                head = f'{head}"control": {control}, '
            entries.append(f'{{{head}"kind": "{kind}", "target": {target}}}')
        layers = _schedule(circ.gates)  # lists of ints, whose repr is their JSON
        return (f'{{"gates": [{", ".join(entries)}], "layers": {layers!r}, '
                f'"num_qubits": {circ.num_qubits}}}')
    if format == "qasm":
        lines = ["OPENQASM 3;", f"qubit[{circ.num_qubits}] q;"]
        for kind, target, control, angle in circ.gates:
            if kind == "x":
                lines.append(f"x q[{target - 1}];")
            elif kind == "ry":
                lines.append(f"ry({angle:.17g}) q[{target - 1}];")
            elif kind == "cry":
                lines.append(f"ctrl @ ry({angle:.17g}) q[{control - 1}], q[{target - 1}];")
            elif kind == "cx":
                lines.append(f"cx q[{control - 1}], q[{target - 1}];")
        return "\n".join(lines) + "\n"
    raise InvalidArgumentError(f"unknown export format {format!r}")


def import_circuit(text: str) -> Circuit:
    """Rebuild a circuit from its JSON serialization, whose layers must be its schedule.

    One pass over the parsed entries checks each entry's fields once, as the
    ``Gate`` constructor would, and builds its gate unchecked.  The first
    fault raises InvalidArgumentError, in this order: each entry's fields in
    turn, the qubit count, each gate's qubits (control before target), a
    missing "layers", then "layers" differing from the gates' schedule.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int too long to parse
        raise InvalidArgumentError(f"not valid circuit JSON: {exc}") from exc
    new, gates = tuple.__new__, []
    low, top = 1, 0  # the lowest and highest qubit the gates touch
    try:
        for entry in payload["gates"]:
            kind, target = entry["kind"], entry["target"]
            control, angle = entry.get("control"), entry.get("angle")
            _check_gate(kind, target, control, angle)
            gates.append(new(Gate, (kind, target, control, angle)))
            if target > top:
                top = target
            if target < low:
                low = target
            if control is not None:
                if control > top:
                    top = control
                if control < low:
                    low = control
        n = payload["num_qubits"]
        if type(n) is not int or n < 1 or low < 1 or top > n:
            Circuit(num_qubits=n, gates=gates)  # raises the fault the checked constructor finds first
        layers = payload["layers"]
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed circuit JSON: {exc}") from exc
    if layers != _schedule(gates):
        raise InvalidArgumentError("layers must be the as-soon-as-possible schedule of the gates")
    return Circuit._unchecked(n, gates)  # every gate and qubit index is checked above
