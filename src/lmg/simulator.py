"""State-vector simulation, energy evaluation, and measurement sampling.

Two execution paths share one gate semantics: a dense tensor path (capped at
20 qubits) and a sparse dictionary path keyed by basis integers, which is the
natural representation for the Hamming-weight-1 states the preparation
circuits live on.  The sparse path updates its map in place: a controlled
gate touches only the entries whose control bit is set, and a rotation pairs
each such entry with its target-flipped partner, so a gate costs one pass
over the map plus work on the entries it moves.  Basis integers read the
qubits big-endian: qubit 1 is the most significant bit.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import InvalidArgumentError, LeakageError
from .model import ModelParams, SectorConfig, ladder_energy, ladder_matrix

__all__ = [
    "StateVector",
    "MeasurementGroup",
    "run",
    "fidelity",
    "encoded_expectation",
    "pauli_groups",
    "sampled_expectation",
]

DENSE_QUBIT_CAP = 20
LEAKAGE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over computational basis states.

    ``amps`` is either a dense complex array of length 2^n or a sparse map
    from basis integer to amplitude.
    """

    num_qubits: int
    amps: np.ndarray | dict

    def __post_init__(self):
        if self.num_qubits < 1:
            raise InvalidArgumentError("state needs at least one qubit")
        if isinstance(self.amps, dict):
            return
        if self.num_qubits > DENSE_QUBIT_CAP:
            raise InvalidArgumentError(
                f"dense path is capped at {DENSE_QUBIT_CAP} qubits; use a sparse state"
            )
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise InvalidArgumentError(
                f"dense amplitudes must have length {2**self.num_qubits}, got {amps.shape}"
            )
        object.__setattr__(self, "amps", amps)

    @property
    def is_dense(self) -> bool:
        return not isinstance(self.amps, dict)

    @classmethod
    def one_hot(cls, num_qubits: int, basis: int, dense: bool = False) -> "StateVector":
        if not 0 <= basis < 2**num_qubits:
            raise InvalidArgumentError(f"basis integer {basis} outside the register")
        if dense:
            amps = np.zeros(2**num_qubits, dtype=complex)
            amps[basis] = 1.0
            return cls(num_qubits, amps)
        return cls(num_qubits, {basis: 1.0 + 0.0j})

    @classmethod
    def zeros(cls, num_qubits: int, dense: bool = False) -> "StateVector":
        """|0...0>: the circuits' standard input (the X prep gate acts on it)."""
        return cls.one_hot(num_qubits, 0, dense=dense)

    def amplitude(self, basis: int) -> complex:
        if self.is_dense:
            return complex(self.amps[basis])
        return complex(self.amps.get(basis, 0.0))

    def norm(self) -> float:
        if self.is_dense:
            return float(np.linalg.norm(self.amps))
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amps.values())))

    def one_hot_block(self) -> np.ndarray:
        """Amplitudes on the one-hot integers 2^0 .. 2^(n-1).

        A sparse map is read once: each entry with exactly one set bit lands
        at index ``basis.bit_length() - 1``, so the cost grows with the map,
        not with the square of the qubit count.
        """
        if self.is_dense:
            return np.array([self.amplitude(1 << k) for k in range(self.num_qubits)])
        block = [0j] * self.num_qubits
        for basis, amp in self.amps.items():
            k = basis.bit_length() - 1
            if 0 <= k < self.num_qubits and not basis & (basis - 1):
                block[k] = complex(amp)
        return np.array(block)

    def one_hot_leakage(self) -> float:
        """Squared weight living outside the Hamming-weight-1 subspace."""
        block = self.one_hot_block()
        return self.norm() ** 2 - float(np.sum(np.abs(block) ** 2))


def _slices(n: int, assignments: dict[int, int]) -> tuple:
    """Index tuple pinning 1-based qubits to bit values on a (2,)*n tensor."""
    idx: list = [slice(None)] * n
    for qubit, value in assignments.items():
        idx[qubit - 1] = value
    return tuple(idx)


def _run_dense(circ: Circuit, amps: np.ndarray) -> np.ndarray:
    n = circ.num_qubits
    psi = amps.reshape((2,) * n).copy()
    for gate in circ.gates:
        t = gate.target
        if gate.kind == "x":
            psi = np.flip(psi, axis=t - 1)
            continue
        if gate.kind == "cx":
            i0 = _slices(n, {gate.control: 1, t: 0})
            i1 = _slices(n, {gate.control: 1, t: 1})
            low, high = psi[i0].copy(), psi[i1].copy()
            psi[i0], psi[i1] = high, low
            continue
        cos, sin = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        pin = {} if gate.kind == "ry" else {gate.control: 1}
        i0 = _slices(n, {**pin, t: 0})
        i1 = _slices(n, {**pin, t: 1})
        low, high = psi[i0].copy(), psi[i1].copy()
        psi[i0] = cos * low - sin * high
        psi[i1] = sin * low + cos * high
    return psi.reshape(-1)


def _run_sparse(circ: Circuit, amps: dict) -> dict:
    """Apply the gates to a copy of the map; ``x`` rebuilds it, the rest update it in place.

    A rotation creates the partner of a lone entry as an explicit zero.
    """
    n = circ.num_qubits
    state = dict(amps)
    for gate in circ.gates:
        t_mask = 1 << (n - gate.target)
        if gate.kind == "x":
            state = {basis ^ t_mask: amp for basis, amp in state.items()}
            continue
        c_mask = 0 if gate.control is None else 1 << (n - gate.control)
        active = [basis for basis in state if basis & c_mask == c_mask]
        if gate.kind == "cx":
            state.update({basis ^ t_mask: state.pop(basis) for basis in active})
            continue
        cos, sin = float(np.cos(gate.angle / 2)), float(np.sin(gate.angle / 2))
        for low in dict.fromkeys(basis & ~t_mask for basis in active):
            high = low | t_mask
            a0, a1 = state.get(low, 0.0), state.get(high, 0.0)
            # accumulate from 0.0 so an exact-zero result is +0.0, never -0.0
            state[low] = 0.0 + cos * a0 - sin * a1
            state[high] = 0.0 + sin * a0 + cos * a1
    return state


def run(circ: Circuit, state: StateVector | None = None) -> StateVector:
    """Exact amplitudes after applying the circuit's gates in order.

    The default input is |0...0> on the sparse path; the circuit's own X
    prep gate then creates the fiducial one-hot state.  The output
    representation follows the input's.
    """
    if state is None:
        state = StateVector.zeros(circ.num_qubits)
    if state.num_qubits != circ.num_qubits:
        raise InvalidArgumentError(
            f"state has {state.num_qubits} qubits, circuit has {circ.num_qubits}"
        )
    if state.is_dense:
        return StateVector(circ.num_qubits, _run_dense(circ, state.amps))
    return StateVector(circ.num_qubits, _run_sparse(circ, state.amps))


def fidelity(psi: StateVector, target) -> float:
    """|<T|psi>|^2 with the real target embedded on the one-hot support."""
    t = np.asarray(target, dtype=float)
    if t.shape != (psi.num_qubits,):
        raise InvalidArgumentError(
            f"target must have one entry per qubit ({psi.num_qubits}), got {t.shape}"
        )
    overlap = complex(np.sum(t * psi.one_hot_block()))
    return float(abs(overlap) ** 2)


def _one_hot_weights(psi: StateVector, config: SectorConfig) -> np.ndarray:
    if psi.num_qubits != config.m + 1:
        raise InvalidArgumentError(
            f"sector needs {config.m + 1} qubits, state has {psi.num_qubits}"
        )
    leak = psi.one_hot_leakage()
    if leak > LEAKAGE_TOL:
        raise LeakageError(
            f"state leaks {leak:.3e} probability outside the one-hot subspace"
        )
    return psi.one_hot_block()


def encoded_expectation(psi: StateVector, config: SectorConfig, params: ModelParams) -> float:
    """<H> of a one-hot-supported state, in units of the gap.

    Decodes the one-hot amplitudes onto the ladder and evaluates them with
    :func:`lmg.model.ladder_energy`, normalized over the one-hot weight.
    Raises LeakageError when the state strays off the subspace (a broken
    circuit, not a numerical accident).
    """
    return ladder_energy(_one_hot_weights(psi, config), params, config.parity)


@dataclass(frozen=True)
class MeasurementGroup:
    """A mutually-commuting measurement family over the one-hot register.

    ``label`` is ``"z"`` for the diagonal family (terms are (position,
    energy) pairs) or ``"bond-even"``/``"bond-odd"`` for hopping families
    (terms are (left position, coupling) pairs).
    """

    label: str
    size: int
    terms: tuple[tuple[int, float], ...]

    def outcomes(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Measurement values and probabilities for normalized ladder weights."""
        probs_all = np.abs(weights) ** 2
        if self.label == "z":
            values = np.zeros(self.size)
            for k, d in self.terms:
                values[k] = d
            return values, probs_all
        values = []
        probs = []
        covered = np.zeros(self.size, dtype=bool)
        for k, strength in self.terms:
            plus = (weights[k] + weights[k + 1]) / np.sqrt(2)
            minus = (weights[k] - weights[k + 1]) / np.sqrt(2)
            values.extend([strength, -strength])
            probs.extend([abs(plus) ** 2, abs(minus) ** 2])
            covered[k] = covered[k + 1] = True
        for k in np.flatnonzero(~covered):
            values.append(0.0)
            probs.append(probs_all[k])
        return np.asarray(values), np.asarray(probs)


@functools.lru_cache(maxsize=128)
def pauli_groups(config: SectorConfig, params: ModelParams) -> tuple[MeasurementGroup, ...]:
    """Measurement decomposition of the encoded tridiagonal Hamiltonian.

    One Z-diagonal family plus disjoint even-bond and odd-bond hopping
    families; their expectation values sum to :func:`encoded_expectation`
    exactly on the one-hot subspace.  Cached per (config, params), like
    :func:`lmg.model.ladder_matrix`, so the immutable groups are shared.
    """
    diag, hop = ladder_matrix(params, config.parity)
    size = config.m + 1
    groups = [MeasurementGroup("z", size, tuple((k, float(d)) for k, d in enumerate(diag)))]
    for label, start in (("bond-even", 0), ("bond-odd", 1)):
        terms = tuple((k, float(hop[k])) for k in range(start, hop.size, 2))
        if terms:
            groups.append(MeasurementGroup(label, size, terms))
    return tuple(groups)


def sampled_expectation(
    psi: StateVector,
    groups: Sequence[MeasurementGroup],
    shots: int,
    seed: int,
) -> tuple[float, float]:
    """Finite-shot estimate of <H> with its standard error.

    Each group is measured with ``shots`` projective samples from a
    generator seeded with the non-negative ``seed``, so the estimate is
    deterministic given (state, shots, seed) and unbiased over seeds.
    """
    if shots < 1:
        raise InvalidArgumentError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    if not groups:
        raise InvalidArgumentError("need at least one measurement group")
    weights = psi.one_hot_block()
    nrm = np.sqrt(np.sum(np.abs(weights) ** 2))
    if nrm == 0.0:
        raise InvalidArgumentError("state has no weight on the one-hot subspace")
    weights = weights / nrm
    rng = np.random.default_rng(seed)
    estimate = 0.0
    variance = 0.0
    for group in groups:
        values, probs = group.outcomes(weights)
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        mean = float(counts @ values) / shots
        estimate += mean
        if shots > 1:
            spread = float(counts @ (values - mean) ** 2) / (shots - 1)
            variance += spread / shots
    return estimate, float(np.sqrt(variance))
