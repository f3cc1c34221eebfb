"""One-hot eigenstate-preparation circuits and their rotation angles.

A sector state with M+1 ladder amplitudes is encoded on M+1 qubits as the
one-hot integer 2^k  <->  |2M + nu_a - 2k, nu_b + 2k>.  Starting from
|1> (x) |0>^M, a staircase of M controlled-RY / CNOT pairs reaches any real
unit vector on that support.  Pair n has its rotation controlled by qubit
f(n) and targeted at qubit n+1; the slot function f picks the depth:

    f(n) = n                       linear depth, hyperspherical angles
    f(n) = n - 2^floor(log2 n) + 1  logarithmic depth (tree fan-out)

Qubit 1 is the leftmost (most significant) bit, so the one-hot integer 2^k
keeps its set bit on qubit M+1-k.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError
from .model import FockVector, SectorConfig

__all__ = [
    "AngleSet",
    "Gate",
    "Circuit",
    "control_slot",
    "encode",
    "decode",
    "linear_angles",
    "log_angles",
    "one_hot_output",
    "build_circuit",
    "export_circuit",
    "import_circuit",
]

MODES = ("linear", "log")
GATE_KINDS = ("x", "ry", "cry", "cx")


def control_slot(n: int, mode: str) -> int:
    """Control-qubit index f(n) for gate pair n (1-based)."""
    if n < 1:
        raise InvalidArgumentError(f"gate pair index must be >= 1, got {n}")
    if mode == "linear":
        return n
    if mode == "log":
        return n - 2 ** int(math.floor(math.log2(n))) + 1
    raise InvalidArgumentError(f"unknown depth mode {mode!r}")


@dataclass(frozen=True)
class AngleSet:
    """Rotation angles theta_1..theta_M plus the depth mode they drive."""

    thetas: tuple[float, ...]
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidArgumentError(f"unknown depth mode {self.mode!r}")
        thetas = tuple(float(t) for t in self.thetas)
        if not all(math.isfinite(t) for t in thetas):
            raise InvalidArgumentError("angles must be finite")
        object.__setattr__(self, "thetas", thetas)

    def __len__(self) -> int:
        return len(self.thetas)


@dataclass(frozen=True)
class Gate:
    """Single gate record; ``control`` and ``angle`` apply where meaningful."""

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise InvalidArgumentError(f"unknown gate kind {self.kind!r}")
        needs_angle = self.kind in ("ry", "cry")
        if needs_angle != (self.angle is not None):
            raise InvalidArgumentError(f"gate {self.kind!r} angle mismatch")
        needs_control = self.kind in ("cry", "cx")
        if needs_control != (self.control is not None):
            raise InvalidArgumentError(f"gate {self.kind!r} control mismatch")
        if self.control is not None and self.control == self.target:
            raise InvalidArgumentError("control and target must differ")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,) if self.control is None else (self.control, self.target)


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list with a parallel schedule.

    ``layers`` partitions the gate indices; gates inside one layer act on
    disjoint qubits.  Qubit indices are 1-based.
    """

    num_qubits: int
    gates: tuple[Gate, ...]
    layers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise InvalidArgumentError("circuit needs at least one qubit")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        for gate in gates:
            for q in gate.qubits:
                if not 1 <= q <= self.num_qubits:
                    raise InvalidArgumentError(f"qubit index {q} outside 1..{self.num_qubits}")
        layers = tuple(tuple(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        flat = sorted(i for layer in layers for i in layer)
        if flat != list(range(len(gates))):
            raise InvalidArgumentError("layers must partition the gate indices in order")
        for layer in layers:
            used: set[int] = set()
            for i in layer:
                qubits = set(gates[i].qubits)
                if used & qubits:
                    raise InvalidArgumentError("gates within a layer must act on disjoint qubits")
                used |= qubits

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


def decode(target, config: SectorConfig) -> FockVector:
    """Inverse of :func:`encode`."""
    t = np.asarray(target, dtype=float)
    if t.shape != (config.m + 1,):
        raise InvalidArgumentError(f"target must have length {config.m + 1}, got {t.shape}")
    return FockVector(config.n, config.parity, t)


def _check_unit_target(target) -> np.ndarray:
    t = np.asarray(target, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise InvalidArgumentError("target must be a one-dimensional real vector")
    if abs(t @ t - 1.0) > 1e-6:
        raise InvalidArgumentError(f"target must be normalized, got |T|^2 = {t @ t:.9f}")
    return t


def linear_angles(target) -> AngleSet:
    """Closed-form angles driving the linear-depth circuit to a unit target.

    With coefficients c_1..c_{M+1} (c_j on one-hot integer 2^(j-1)) and
    partial norms q = c_{M+2-j} / sqrt(sum_{k<=M+2-j} c_k^2), the angles are
    2 arccos(q) for j < M and the full-circle branch
    2 sgn(c_1)(arccos(q) - pi) + 2 pi at j = M.  Levels whose partial norm
    vanishes get theta = 0 by convention.
    """
    c = _check_unit_target(target)
    m = c.size - 1
    thetas = np.zeros(m)
    for j in range(1, m + 1):
        top = m + 2 - j  # 1-based coefficient index
        den = math.sqrt(float(c[:top] @ c[:top]))
        if den == 0.0:
            continue
        q = min(1.0, max(-1.0, float(c[top - 1]) / den))
        if j < m:
            thetas[j - 1] = 2.0 * math.acos(q)
        else:
            sign = -1.0 if c[0] < 0 else 1.0
            thetas[j - 1] = 2.0 * sign * (math.acos(q) - math.pi) + 2.0 * math.pi
    return AngleSet(tuple(thetas), "linear")


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


def log_angles(target) -> AngleSet:
    """Angles driving the logarithmic-depth circuit to a unit target.

    Works backwards through the gate pairs, merging each pair's two ladder
    slots into its source slot; the merged amplitude keeps the source sign
    (so cos(theta/2) >= 0 for every pair but the first), which fixes one
    representative of the sign-gauge equivalence class.  Raises
    NumericFailureError if the angles do not reproduce the target.
    """
    c = _check_unit_target(target)
    m = c.size - 1
    amps = c.astype(float).copy()
    thetas = np.zeros(m)
    for n in range(m, 0, -1):
        src = m + 1 - control_slot(n, "log")
        dst = m - n
        radius = math.hypot(amps[src], amps[dst])
        if radius == 0.0:
            continue
        if n > 1 and amps[src] < 0:
            radius = -radius
        thetas[n - 1] = 2.0 * math.atan2(amps[dst] / radius, amps[src] / radius)
        amps[src] = radius
        amps[dst] = 0.0
    angles = AngleSet(tuple(thetas), "log")
    reached = one_hot_output(angles)
    if float(np.max(np.abs(reached - c))) > 1e-12:
        raise NumericFailureError("log-depth angles do not reproduce the target")
    return angles


def build_circuit(angles: AngleSet) -> Circuit:
    """Assemble the staircase circuit for an angle set.

    Emits X on qubit 1, then for each n the pair CRY(theta_n) with control
    f(n) and target n+1 followed by CNOT with control n+1 and target f(n).
    Log mode schedules pairs in parallel blocks of sizes 1, 2, 4, ...; linear
    mode runs every gate in its own layer.
    """
    m = len(angles.thetas)
    gates: list[Gate] = [Gate("x", target=1)]
    for n, theta in enumerate(angles.thetas, start=1):
        slot = control_slot(n, angles.mode)
        gates.append(Gate("cry", target=n + 1, control=slot, angle=theta))
        gates.append(Gate("cx", target=slot, control=n + 1))
    if angles.mode == "linear" or m == 0:
        layers = [(i,) for i in range(len(gates))]
    else:
        layers = [(0,)]
        block = 1
        while block <= m:
            pairs = range(block, min(2 * block, m + 1))
            layers.append(tuple(2 * n - 1 for n in pairs))
            layers.append(tuple(2 * n for n in pairs))
            block *= 2
    return Circuit(num_qubits=m + 1, gates=tuple(gates), layers=tuple(layers))


def export_circuit(circ: Circuit, format: str = "json") -> str:
    """Serialize a circuit; JSON round-trips bit-exactly, QASM-3 is one-way."""
    if format == "json":
        payload = {
            "num_qubits": circ.num_qubits,
            "gates": [
                {
                    "kind": g.kind,
                    **({"angle": g.angle} if g.angle is not None else {}),
                    **({"control": g.control} if g.control is not None else {}),
                    "target": g.target,
                }
                for g in circ.gates
            ],
            "layers": [list(layer) for layer in circ.layers],
        }
        return json.dumps(payload, sort_keys=True)
    if format == "qasm":
        lines = ["OPENQASM 3;", f"qubit[{circ.num_qubits}] q;"]
        for g in circ.gates:
            if g.kind == "x":
                lines.append(f"x q[{g.target - 1}];")
            elif g.kind == "ry":
                lines.append(f"ry({g.angle:.17g}) q[{g.target - 1}];")
            elif g.kind == "cry":
                lines.append(f"ctrl @ ry({g.angle:.17g}) q[{g.control - 1}], q[{g.target - 1}];")
            elif g.kind == "cx":
                lines.append(f"cx q[{g.control - 1}], q[{g.target - 1}];")
        return "\n".join(lines) + "\n"
    raise InvalidArgumentError(f"unknown export format {format!r}")


def import_circuit(text: str) -> Circuit:
    """Rebuild a circuit from its JSON serialization."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"not valid circuit JSON: {exc}") from exc
    try:
        gates = tuple(
            Gate(
                kind=entry["kind"],
                target=entry["target"],
                control=entry.get("control"),
                angle=entry.get("angle"),
            )
            for entry in payload["gates"]
        )
        layers = tuple(tuple(layer) for layer in payload["layers"])
        return Circuit(num_qubits=payload["num_qubits"], gates=gates, layers=layers)
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed circuit JSON: {exc}") from exc
