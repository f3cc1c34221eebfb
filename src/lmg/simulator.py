"""State-vector simulation, energy evaluation, and measurement sampling.

Two execution paths share one gate semantics: a dense tensor path (capped at
20 qubits) and a sparse dictionary path keyed by basis integers, which is the
natural representation for the Hamming-weight-1 states the preparation
circuits live on.  The dense path copies its input once and then updates
amplitude pairs in place, so beyond the input a run holds at most 1.5
states (two for an uncontrolled ``ry``).  The sparse path updates its map in
place and indexes it by set bit: a controlled gate visits only the entries
whose control bit is set, and a rotation pairs each such entry with its
target-flipped partner, so a preparation circuit runs in time linear in its
gates (an ``x`` or an uncontrolled rotation still visits the whole map).
Basis integers read the qubits big-endian: qubit 1 is the most significant
bit.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import InvalidArgumentError, LeakageError
from .model import (
    ModelParams,
    SectorConfig,
    _check_sector,
    _finite_reals,
    _is_count,
    ladder_energy,
    ladder_matrix,
)

__all__ = [
    "StateVector",
    "MeasurementGroup",
    "run",
    "fidelity",
    "encoded_expectation",
    "pauli_groups",
    "sampled_expectation",
    "sampled_expectations",
]

DENSE_QUBIT_CAP = 20
LEAKAGE_TOL = 1e-10


def _check_register(num_qubits: int, dense: bool) -> None:
    """Refuse an empty register, and a dense one past ``DENSE_QUBIT_CAP``."""
    if num_qubits < 1:
        raise InvalidArgumentError("state needs at least one qubit")
    if dense and num_qubits > DENSE_QUBIT_CAP:
        raise InvalidArgumentError(
            f"dense path is capped at {DENSE_QUBIT_CAP} qubits; use a sparse state"
        )


def _check_bases(num_qubits: int, bases) -> None:
    """Refuse any basis that is not a Python ``int`` in 0 .. 2^n - 1 (a bool is not one)."""
    for basis in bases:
        if type(basis) is not int or basis < 0 or basis >> num_qubits:
            raise InvalidArgumentError(f"{basis!r} is not a basis integer of {num_qubits} qubits")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over computational basis states.

    ``amps`` is either a dense complex array of length 2^n or a sparse map
    from basis integer (a Python ``int`` in 0 .. 2^n - 1) to amplitude.
    """

    num_qubits: int
    amps: np.ndarray | dict

    def __post_init__(self):
        n = self.num_qubits
        sparse = isinstance(self.amps, dict)
        _check_register(n, dense=not sparse)
        if sparse:
            _check_bases(n, self.amps)
            return
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**n,):
            raise InvalidArgumentError(
                f"dense amplitudes must have length {2**n}, got {amps.shape}"
            )
        object.__setattr__(self, "amps", amps)

    @property
    def is_dense(self) -> bool:
        return not isinstance(self.amps, dict)

    @classmethod
    def one_hot(cls, num_qubits: int, basis: int, dense: bool = False) -> "StateVector":
        _check_register(num_qubits, dense)  # before allocating 2^n amplitudes
        _check_bases(num_qubits, (basis,))
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
        _check_bases(self.num_qubits, (basis,))
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
        return self._leakage(self.one_hot_block())

    def _leakage(self, block: np.ndarray) -> float:
        """Squared weight outside ``block``, this state's own one-hot block."""
        return self.norm() ** 2 - float(np.sum(np.abs(block) ** 2))


def _slices(n: int, assignments: dict[int, int]) -> tuple:
    """Index tuple pinning 1-based qubits to bit values on a (2,)*n tensor.

    It ends with ``...``, so pinning every axis still gives a writable view.
    """
    idx: list = [slice(None)] * n
    for qubit, value in assignments.items():
        idx[qubit - 1] = value
    return (*idx, ...)


def _run_dense(circ: Circuit, amps: np.ndarray) -> np.ndarray:
    """Apply the gates in place to one contiguous copy of ``amps``.

    Each gate pins its control (if any) to 1 and its target to 0 and 1,
    giving views ``low`` and ``high``, and copies ``low``: ``x`` and ``cx``
    swap the halves, and a rotation runs the operations of
    cos*low - sin*high and sin*low + cos*high in the same order, so every
    amplitude keeps its bits.  The input is never written and no buffer
    outlives its gate, so beyond the input a run holds at most 1.5 states:
    the copy, plus a quarter state each for ``keep`` and ``sin * high`` of
    a controlled gate, or half a state for the ``keep`` of an ``x`` (two
    states for an uncontrolled ``ry``).  The flat result is a view.
    """
    n = circ.num_qubits
    psi = amps.reshape((2,) * n).copy()
    for _, target, control, angle in circ.gates:
        pin = {} if control is None else {control: 1}
        low = psi[_slices(n, {**pin, target: 0})]
        high = psi[_slices(n, {**pin, target: 1})]
        keep = low.copy()
        if angle is None:  # x or cx
            low[...] = high
            high[...] = keep
        else:
            cos, sin = np.cos(angle / 2), np.sin(angle / 2)
            low *= cos
            low -= sin * high
            high *= cos
            high += sin * keep
        del keep  # else the next gate's copy is made while this one is alive
    return psi.reshape(-1)


def _hold(holders: dict, basis: int) -> None:
    """Append ``basis`` to the entries of each of its set bits."""
    rest = basis
    while rest:
        bit = rest & -rest
        holders.setdefault(bit, {})[basis] = None
        rest ^= bit


def _release(holders: dict, basis: int) -> None:
    """Remove ``basis`` from the entries of each of its set bits."""
    rest = basis
    while rest:
        bit = rest & -rest
        del holders[bit][basis]
        rest ^= bit


def _index(state: dict) -> dict[int, dict[int, None]]:
    """Map each bit mask to the bases that have it set, in map order."""
    holders: dict[int, dict[int, None]] = {}
    for basis in state:
        _hold(holders, basis)
    return holders


def _run_sparse(circ: Circuit, amps: dict) -> dict:
    """Apply the gates to a copy of the map; ``x`` rebuilds it, the rest update it in place.

    ``holders`` indexes the map by set bit, each bit's bases in map order, so
    a controlled gate visits only the bases holding its control bit; an
    uncontrolled rotation visits the whole map.  Every insertion into the map
    appends (and is indexed) and every removal is unindexed, which keeps the
    index in map order.  A rotation creates the partner of a lone entry as an
    explicit zero.
    """
    n = circ.num_qubits
    state = dict(amps)
    holders = _index(state)
    for kind, target, control, angle in circ.gates:
        t_mask = 1 << (n - target)
        if kind == "x":
            state = {basis ^ t_mask: amp for basis, amp in state.items()}
            holders = _index(state)
            continue
        active = list(state if control is None else holders.get(1 << (n - control), ()))
        if not active:
            continue
        if kind == "cx":
            # pop every active entry before re-inserting any: a flipped basis is itself active
            moved = [(basis, state.pop(basis)) for basis in active]
            for basis in active:
                _release(holders, basis)
            for basis, amp in moved:
                state[basis ^ t_mask] = amp
                _hold(holders, basis ^ t_mask)
            continue
        cos, sin = math.cos(angle / 2), math.sin(angle / 2)
        for low in dict.fromkeys([basis & ~t_mask for basis in active]):
            high = low | t_mask
            if low in state:
                a0 = state[low]
            else:
                a0 = 0.0
                _hold(holders, low)
            if high in state:
                a1 = state[high]
            else:
                a1 = 0.0
                _hold(holders, high)
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
    """|<T|psi>|^2 with the target, one finite real per qubit, embedded on the one-hot support."""
    t = _finite_reals(target, "target")
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
    block = psi.one_hot_block()
    leak = psi._leakage(block)
    if leak > LEAKAGE_TOL:
        raise LeakageError(
            f"state leaks {leak:.3e} probability outside the one-hot subspace"
        )
    return block


def encoded_expectation(psi: StateVector, config: SectorConfig, params: ModelParams) -> float:
    """<H> of a one-hot-supported state, in units of the gap.

    Decodes the one-hot amplitudes onto the ladder and evaluates them with
    :func:`lmg.model.ladder_energy`, normalized over the one-hot weight.
    Raises LeakageError when the state strays off the subspace (a broken
    circuit, not a numerical accident).  A sector whose particle count is not
    ``params.n`` raises InvalidArgumentError.
    """
    _check_sector(config, params)
    return ladder_energy(_one_hot_weights(psi, config), params, config.parity)


@dataclass(frozen=True)
class MeasurementGroup:
    """A mutually-commuting measurement family over the one-hot register.

    ``label`` is ``"z"`` for the diagonal family (terms are (position,
    energy) pairs) or ``"bond-even"``/``"bond-odd"`` for hopping families
    (terms are (left position, coupling) pairs).  The "z" family measures
    every position k, with value d_k.  A hopping family measures each bond
    in the basis (e_k +- e_(k+1))/sqrt 2, with values +-coupling in that
    order, then each position no bond covers, with value 0.  The outcome
    values are built once; the probabilities come from gathers of the
    weights, O(M) a state, and no measured basis is ever built.
    """

    label: str
    size: int
    terms: tuple[tuple[int, float], ...]

    @functools.cached_property
    def _layout(self) -> tuple[np.ndarray, ...]:
        """Per outcome, in order: its value, and k, l, a, b of its basis vector a e_k + b e_l.

        The measured basis is stored by its at most two nonzero entries per
        vector: (k, k+1, c, +c) and (k, k+1, c, -c) per bond, c = 1/sqrt 2,
        and (k, k, 1, 0) per position measured alone.  The arrays are
        read-only.
        """
        c = 1.0 / np.sqrt(2)
        if self.label == "z":
            energy = dict(self.terms)
            rows = [(energy.get(k, 0.0), k, k, 1.0, 0.0) for k in range(self.size)]
        else:
            rows = [(sign * t, k, k + 1, c, sign * c)
                    for k, t in self.terms for sign in (1.0, -1.0)]
            covered = {j for k, _ in self.terms for j in (k, k + 1)}
            rows += [(0.0, k, k, 1.0, 0.0) for k in range(self.size) if k not in covered]
        layout = tuple(np.array(column) for column in zip(*rows))
        for array in layout:
            array.flags.writeable = False
        return layout

    @functools.cached_property
    def _peak(self) -> float:
        """Largest |outcome value|, which sets the scale of a sampled estimate."""
        return float(np.max(np.abs(self._layout[0])))

    def outcomes(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Measurement values and probabilities for normalized ladder weights.

        ``weights`` is one state or an array of states along its last axis;
        the probabilities follow the outcome order on that axis.  Each is
        |a w_k + b w_l|^2 for its basis vector a e_k + b e_l: the only
        nonzero terms of a product with the dense basis, O(M) a state.
        """
        values, first, second, a, b = self._layout
        amps = a * weights.take(first, axis=-1) + b * weights.take(second, axis=-1)
        return values, np.abs(amps) ** 2


@functools.lru_cache(maxsize=128)
def pauli_groups(config: SectorConfig, params: ModelParams) -> tuple[MeasurementGroup, ...]:
    """Measurement decomposition of the encoded tridiagonal Hamiltonian.

    One Z-diagonal family plus disjoint even-bond and odd-bond hopping
    families; their expectation values sum to :func:`encoded_expectation`
    exactly on the one-hot subspace.  Cached per (config, params), like
    :func:`lmg.model.ladder_matrix`, so the immutable groups are shared.  A
    sector whose particle count is not ``params.n`` raises InvalidArgumentError.
    """
    _check_sector(config, params)
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
    Means and spreads are summed in units of 2^e, e >= 0 the binary exponent
    of the largest |outcome value|, so squaring a spread cannot overflow;
    power-of-two scaling is exact, so it changes no bit where nothing
    overflowed.  ``shots`` and ``seed`` are ints or numpy integers (not
    bools), else InvalidArgumentError.  It is :func:`sampled_expectations`
    on the state's one-hot block.
    """
    estimates, errors = sampled_expectations(psi.one_hot_block()[None, :], groups, shots, seed)
    return float(estimates[0]), float(errors[0])


def sampled_expectations(
    states: np.ndarray,
    groups: Sequence[MeasurementGroup],
    shots: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sampled_expectation` of each row of a (rows, M+1) array of one-hot amplitudes.

    Every row is measured from the start of the stream seeded with
    ``seed``: one generator is built, and it is rewound to its seeded state
    before each row, which then draws one multinomial per group in group
    order.  The rows are taken as complex amplitudes, as a state's one-hot
    block is, so each row's estimate and standard error are the bits
    :func:`sampled_expectation` gives for that row alone.  ``shots``,
    ``seed``, ``groups`` and the rows' weights are checked once, and each
    group's outcome probabilities are taken for all rows together.  A row
    with no weight, or rows whose length is not the groups' size, raise
    InvalidArgumentError.
    """
    if not (_is_count(shots) and _is_count(seed)):
        raise InvalidArgumentError(f"shots and seed must be integers, got {shots!r}, {seed!r}")
    if shots < 1:
        raise InvalidArgumentError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    if not groups:
        raise InvalidArgumentError("need at least one measurement group")
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or any(group.size != states.shape[1] for group in groups):
        raise InvalidArgumentError(
            f"states must be rows of {groups[0].size} one-hot amplitudes, got shape {states.shape}"
        )
    norms = np.sqrt(np.sum(np.abs(states) ** 2, axis=1))
    if not norms.all():
        raise InvalidArgumentError("state has no weight on the one-hot subspace")
    weights = states / norms[:, None]
    scale = 2.0 ** -max(0, math.frexp(max(group._peak for group in groups))[1])
    tables = []
    for group in groups:
        values, probs = group.outcomes(weights)
        tables.append((values * scale, probs / probs.sum(axis=1, keepdims=True)))
    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state
    estimates, errors = [], []
    for row in range(len(weights)):
        rng.bit_generator.state = start
        estimate = 0.0
        variance = 0.0
        for values, probs in tables:
            counts = rng.multinomial(shots, probs[row])
            mean = float(counts @ values) / shots
            estimate += mean
            if shots > 1:
                spread = float(counts @ (values - mean) ** 2) / (shots - 1)
                variance += spread / shots
        estimates.append(estimate / scale)
        errors.append(math.sqrt(variance) / scale)
    return np.array(estimates), np.array(errors)
