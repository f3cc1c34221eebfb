"""Variational loop over the preparation-circuit angles, scored against exact answers.

The ansatz is the staircase circuit itself: its M angles sweep every real
unit vector on the sector support, so with an exact estimator the optimum
equals the sector's lowest eigenvalue.  The circuit never leaves the
Hamming-weight-1 subspace, so the objective reads the circuit's one-hot
amplitudes in closed form (:func:`lmg.circuit.one_hot_output`, O(M) per
evaluation) instead of building and simulating it; the simulators are the
oracle those amplitudes are tested against.

Optimization is sequential minimal optimization (Nakanishi, Fujii and Todo,
PRR 2, 043158 (2020); Ostaszewski, Grant and Benedetti, Quantum 5, 391
(2021)).  With the other angles fixed, the energy is a trigonometric
polynomial of degree 2 in phi = theta_j/2,

    E = a0 + a1 cos phi + b1 sin phi + a2 cos 2phi + b2 sin 2phi,

because the amplitudes are linear in cos phi and sin phi and the energy is
quadratic in the amplitudes, and theta_j jumps to the polynomial's
minimizer.  An angle visit splits the one-hot output as
r + cos phi p + sin phi q.  The exact estimator reads the coefficients off
the 3 x 3 Gram matrix G = S H S^T of the split rows S and the sector block
H, since E = v G v^T with v = (1, cos phi, sin phi); its five node values
at theta_j + 4pi k/5 (k = 0..4) are that polynomial at the nodes.  In
linear depth an exact sweep carries G along: one O(M) pass at the start of
a sweep, then O(1) a visit.  Log-depth and sampled visits split the output
afresh (:func:`lmg.circuit.one_hot_split`), one O(M) pass each.  A
sampled visit measures its five node states in one
:func:`lmg.simulator.sampled_expectations` call: one generator, rewound to
the seed's start before each node, so every node draws the stream
``objective`` draws at that node's angles and gets the very same value.
The coefficients come from a real DFT of those values.
A sweep visits every angle in turn; a restart stops when the energy
at the start of a sweep falls by less than SWEEP_TOL from the previous
sweep's start (``converged``), or after MAX_SWEEPS sweeps.  Its energy is
one ``objective`` call at its final angles, so every reported value is a
full evaluation.  Restarts are deterministic, seeded and run one after
another; a "warm" first restart starts from the angles compiled straight
from the exact ground-state ladder vector, cold restarts draw uniformly
from [0, 4pi)^M.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import bethe
from .circuit import (
    MODES,
    AngleSet,
    build_circuit,
    linear_angles,
    log_angles,
    one_hot_output,
    one_hot_split,
)
from .errors import InvalidArgumentError, LmgError
from .model import (
    ModelParams,
    SectorConfig,
    _check_sector,
    _is_count,
    exact_spectrum,
    ladder_energy,
    ladder_matrix,
    sector_configs,
    sector_spectrum,
)
from .simulator import (
    encoded_expectation,
    fidelity,
    pauli_groups,
    run,
    sampled_expectations,
)

__all__ = ["VqeOptions", "VqeResult", "objective", "optimize", "benchmark"]

FULL_TURN = 4.0 * np.pi  # RY period
NODES = 5  # evaluations that fix one angle's degree-2 polynomial in theta/2
SWEEP_TOL = 1e-13  # a restart stops when a sweep lowers its start energy by less
MAX_SWEEPS = 400  # sweeps over the angles per restart
_GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)  # shifts in phi = theta/2
_GRID_WAVES = np.exp(1j * np.outer((1, 2), _GRID))
_NODE_WAVES = np.exp(2j * np.pi / NODES * np.outer((1, 2), np.arange(NODES)))  # w_k, w_k^2
_NEWTON_STEPS = 4


@dataclass(frozen=True)
class VqeOptions:
    """Optimizer settings; all randomness flows from ``seed``.

    ``restarts``, ``seed`` and ``shots`` are ints or numpy integers (not
    bools), else InvalidArgumentError.  ``restarts`` runs are made (at least
    1, else InvalidArgumentError); the first starts warm when ``warm``, a
    bool or numpy bool (else InvalidArgumentError).
    ``seed`` must be non-negative, else InvalidArgumentError.  ``estimator``
    is "exact" or "sampled" (``shots`` per measurement group, at least 1;
    the exact estimator ignores ``shots``) and ``depth`` the circuit flavor,
    "linear" or "log"; other values raise InvalidArgumentError.  A run is
    ``converged`` when a sweep lowered its start energy by less than the
    module constant SWEEP_TOL within MAX_SWEEPS sweeps.
    """

    restarts: int = 10
    seed: int = 0
    estimator: str = "exact"  # "exact" or "sampled"
    shots: int = 100_000
    warm: bool = False
    depth: str = "linear"

    def __post_init__(self):
        counts = {"restarts": self.restarts, "seed": self.seed, "shots": self.shots}
        for name, value in counts.items():
            if not _is_count(value):
                raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.warm, (bool, np.bool_)):
            raise InvalidArgumentError(f"warm must be a bool, got {self.warm!r}")
        if self.restarts < 1:
            raise InvalidArgumentError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        if self.estimator not in ("exact", "sampled"):
            raise InvalidArgumentError(f"unknown estimator {self.estimator!r}")
        if self.depth not in MODES:
            raise InvalidArgumentError(f"unknown depth mode {self.depth!r}")
        if self.estimator == "sampled" and self.shots < 1:
            raise InvalidArgumentError(f"shots must be >= 1, got {self.shots}")


@dataclass(frozen=True)
class VqeResult:
    """Outcome of one optimization run; ``trace`` is every evaluation's energy, in order."""

    best_thetas: AngleSet
    best_energy: float
    exact_energy: float
    abs_error: float
    evaluations: int
    trace: tuple[float, ...]
    seed: int
    estimator: str
    converged: bool


def _options(options) -> VqeOptions:
    """The run's options: ``None`` means the defaults, and any non-VqeOptions value is refused."""
    if options is None:
        return VqeOptions()
    if not isinstance(options, VqeOptions):
        raise InvalidArgumentError(
            f"options must be a VqeOptions or None, got {type(options).__name__}"
        )
    return options


def objective(
    thetas, config: SectorConfig, params: ModelParams, options: VqeOptions | None = None
) -> float:
    """Energy of the circuit state at the given angles under the run's options.

    ``options`` (None means ``VqeOptions()``; any other value that is not a
    VqeOptions raises InvalidArgumentError) supplies the circuit ``depth`` and
    the estimator: "exact" evaluates <H> from the one-hot amplitudes,
    "sampled" draws ``shots`` measurements per group from ``seed``, so the
    value is deterministic for fixed arguments.  Both equal the same
    estimators applied to ``run(build_circuit(angles))``.  A sector whose
    particle count is not ``params.n`` raises InvalidArgumentError.
    """
    _check_sector(config, params)
    opts = _options(options)
    angles = AngleSet(thetas, opts.depth)
    if len(angles) != config.m:
        raise InvalidArgumentError(f"sector needs {config.m} angles, got {len(angles)}")
    states = one_hot_output(angles)[None, :]
    return float(_energies(states, config, params, opts)[0])


def _energies(states, config, params, opts) -> np.ndarray:
    """Energy of each row of ``states`` (one-hot amplitudes) under the run's estimator.

    Exact rows are scored by one ``ladder_energy`` call (only ``objective``
    scores exactly; exact visits read the Gram matrix instead); sampled rows
    by one ``sampled_expectations`` call, which measures every row with the
    run's ``shots`` per group from the start of its ``seed``'s stream.
    """
    if opts.estimator == "exact":
        return ladder_energy(states, params, config.parity)
    return sampled_expectations(states, pauli_groups(config, params), opts.shots, opts.seed)[0]


def _warm_start(ground: np.ndarray, depth: str) -> np.ndarray:
    angles = linear_angles(ground) if depth == "linear" else log_angles(ground)
    return np.asarray(angles.thetas)


def _fit_minimizer(z1: complex, z2: complex) -> float:
    """Shift psi in phi that minimizes Re(z1 e^{i psi} + z2 e^{2i psi}).

    That is the energy along one angle relative to the current phi, less its
    constant term.  Its minimum is located on a 64-point grid and refined by
    Newton steps on the derivative.
    """
    psi = float(_GRID[np.argmin((z1 * _GRID_WAVES[0] + z2 * _GRID_WAVES[1]).real)])
    for _ in range(_NEWTON_STEPS):
        w1 = cmath.exp(1j * psi)
        w2 = w1 * w1
        curvature = -(z1 * w1 + 4.0 * z2 * w2).real
        if curvature <= 0.0:
            break
        psi += (z1 * w1 + 2.0 * z2 * w2).imag / curvature
    return psi


def _node_states(thetas, j: int, depth: str) -> np.ndarray:
    """One-hot amplitudes at the nodes theta_j + 4pi k/5 (k = 0..NODES-1) of angle ``j``.

    One split of the one-hot output (:func:`lmg.circuit.one_hot_split`)
    gives every node state as the row r + cos(phi_k) p + sin(phi_k) q.
    """
    base = thetas[j]
    factors = [(1.0, math.cos(half), math.sin(half))
               for half in ((base + k * FULL_TURN / NODES) / 2.0 for k in range(NODES))]
    return np.array(factors) @ one_hot_split(AngleSet(thetas, depth), j)


def _gram_nodes(g00, g01, g02, g11, g12, g22, theta):
    """Node values and (z1, z2) along an angle at ``theta`` from its Gram entries.

    With v = (1, cos phi, sin phi), the energy along the angle is v G v^T
    (the circuit's output has unit norm), so z1 = 2 (G01 - i G02) and
    z2 = (G11 - G22)/2 - i G12, rotated by the current phi, and the constant
    term is G00 + (G11 + G22)/2.  The node values are that polynomial at
    the five nodes; no node state is built.
    """
    turn = cmath.exp(0.5j * theta)
    z1 = 2.0 * complex(g01, -g02) * turn
    z2 = complex(0.5 * (g11 - g22), -g12) * (turn * turn)
    constant = g00 + 0.5 * (g11 + g22)
    return constant + (z1 * _NODE_WAVES[0] + z2 * _NODE_WAVES[1]).real, z1, z2


def _exact_visit(thetas, j, config, params, opts):
    """Node values and (z1, z2) of angle ``j`` from the Gram matrix of one split.

    G = S H S^T for the split rows S = (r, p, q) and the sector block H.
    """
    diag, hop = ladder_matrix(params, config.parity)
    split = one_hot_split(AngleSet(thetas, opts.depth), j)
    cross = (split[:, :-1] * hop) @ split[:, 1:].T
    gram = (split * diag) @ split.T + cross + cross.T
    return _gram_nodes(gram[0, 0], gram[0, 1], gram[0, 2], gram[1, 1], gram[1, 2],
                       gram[2, 2], thetas[j])


def _sampled_visit(thetas, j, config, params, opts):
    """Node values and (z1, z2) of angle ``j``: the nodes measured in one pass, z from their DFT.

    The five node states go to one estimator call, which seeds one generator
    and rewinds it before each node.  ``values[k]`` is the energy at
    phi + 2pi k/5, so z_m = 2 rfft(values)[m] / 5.
    """
    values = _energies(_node_states(thetas, j, opts.depth), config, params, opts)
    z1, z2 = 2.0 * np.fft.rfft(values)[1:] / NODES
    return values, z1, z2


def _split_sweep(thetas, config, params, opts):
    """The visits of one sweep, each from a fresh split of the output: O(M) a visit."""
    visit = _exact_visit if opts.estimator == "exact" else _sampled_visit
    for j in range(len(thetas)):
        yield visit(thetas, j, config, params, opts)


def _carried_sweep(thetas, config, params, opts):
    """The visits of one exact linear-depth sweep: one O(M) pass, then O(1) a visit.

    Slot m - j of the output holds P_j cos(theta_j/2), with P_j the product
    of sin(theta_i/2) over i < j, and H is tridiagonal in slot order.  So
    the split at angle j is the visited prefix r (the slots above m - j),
    p = P_j at slot m - j, and the tail q = P_j u below it, where u depends
    on the later angles alone: G11 = d P_j^2, G22 = P_j^2 uHu, G01 and G12
    are the hops across p's two edges, and G02 = 0.  One backward pass gives
    every uHu before the first visit, since later angles move only when
    visited; rHr grows by one slot a visit, from zero at each sweep start.
    The caller moves ``thetas[j]`` between visits.
    """
    diag, hop = ladder_matrix(params, config.parity)
    d, t = diag.tolist(), hop.tolist() + [0.0]  # t[m] = 0: no slot above m
    m = len(thetas)
    tails, heads = [d[0]] * m, [1.0] * m  # u H u and u_0 at each visit
    for j in range(m - 2, -1, -1):
        half = thetas[j + 1] / 2.0
        a, s = math.cos(half), math.sin(half)
        slot = m - j - 1
        tails[j] = (a * d[slot] * a + 2.0 * (a * t[slot - 1] * (s * heads[j + 1]))
                    + s * s * tails[j + 1])
        heads[j] = a
    prefix, edge, scale = 0.0, 0.0, 1.0  # r H r, r at slot m-j+1, P_j
    for j in range(m):
        slot = m - j
        yield _gram_nodes(prefix, edge * t[slot] * scale, 0.0, scale * d[slot] * scale,
                          scale * t[slot - 1] * (scale * heads[j]),
                          scale * scale * tails[j], thetas[j])
        half = thetas[j] / 2.0
        amp = scale * math.cos(half)
        prefix += amp * d[slot] * amp + 2.0 * (edge * t[slot] * amp)
        edge, scale = amp, scale * math.sin(half)


def _single_restart(x0, config, params, opts, trace):
    """One restart from the start angles ``x0``; returns (energy, angles, converged).

    Every node value and the final evaluation are appended to ``trace``.  An
    angle visit gives its five node values and the coefficients (z1, z2) of
    the energy along the angle: exact linear-depth sweeps carry them along
    (:func:`_carried_sweep`), others split the output at every visit
    (:func:`_exact_visit`, :func:`_sampled_visit`).  An M = 0 sector has no
    angle to move, so its one evaluation is converged.
    """
    thetas = np.array(x0, dtype=float).tolist()

    def measure() -> float:
        value = objective(thetas, config, params, opts)
        trace.append(value)
        return value

    if not thetas:
        return measure(), np.mod(thetas, FULL_TURN), True
    carried = opts.estimator == "exact" and opts.depth == "linear"
    sweep = _carried_sweep if carried else _split_sweep
    previous = math.inf
    for _ in range(MAX_SWEEPS):
        for j, (values, z1, z2) in enumerate(sweep(thetas, config, params, opts)):
            trace.extend(values.tolist())
            if j == 0:  # values[0] is the energy at the start of the sweep
                if previous - values[0] < SWEEP_TOL:
                    return measure(), np.mod(thetas, FULL_TURN), True
                previous = values[0]
            thetas[j] += 2.0 * _fit_minimizer(z1, z2)
    return measure(), np.mod(thetas, FULL_TURN), False


def optimize(
    config: SectorConfig, params: ModelParams, options: VqeOptions | None = None
) -> VqeResult:
    """Minimize the sector energy over the circuit angles.

    Deterministic for fixed options: restart r draws its start point from
    generator seed (seed, r); the result is the first restart of lowest
    energy, and ``trace`` holds the energy of every evaluation of all
    restarts in order.  The exact reference energy is the sector's lowest
    eigenvalue.  An M = 0 sector has one start point, the empty angle list,
    so it runs one restart of one evaluation.  ``options`` are read as
    :func:`objective` reads them.
    """
    opts = _options(options)
    values, vectors = sector_spectrum(config, params)
    exact_energy = float(values[0])
    trace: list[float] = []
    outcomes = []
    for restart in range(opts.restarts if config.m else 1):
        if opts.warm and restart == 0:
            x0 = _warm_start(vectors[:, 0].copy(), opts.depth)
        else:
            x0 = np.random.default_rng((opts.seed, restart)).uniform(0.0, FULL_TURN, config.m)
        outcomes.append(_single_restart(x0, config, params, opts, trace))
    energy, thetas, _ = min(outcomes, key=lambda outcome: outcome[0])
    return VqeResult(
        best_thetas=AngleSet(tuple(thetas), opts.depth),
        best_energy=energy,
        exact_energy=exact_energy,
        abs_error=abs(energy - exact_energy),
        evaluations=len(trace),
        trace=tuple(trace),
        seed=opts.seed,
        estimator=opts.estimator if opts.estimator == "exact" else f"sampled({opts.shots})",
        converged=any(converged for _, _, converged in outcomes),
    )


def _row_report(level, config, params):
    row: dict = {"index": level.index, "omega_exact": level.omega}
    if level.solution is not None:
        row["omega_bethe"] = level.solution.omega
        row["pairons"] = list(level.solution.energies)
        row["bethe_residual"] = level.solution.residual_norm
    for mode, maker in (("linear", linear_angles), ("log", log_angles)):
        angles = maker(level.vector)
        state = run(build_circuit(angles))
        energy = encoded_expectation(state, config, params)
        row[f"fidelity_{mode}"] = fidelity(state, level.vector)
        abs_err = abs(energy - level.omega)
        row[f"energy_abs_{mode}"] = abs_err
        row[f"energy_rel_{mode}"] = abs_err / abs(level.omega) if abs(level.omega) > 1e-12 else None
    return row


def benchmark(
    params: ModelParams,
    options: VqeOptions | None = None,
    shot_budgets: tuple[int | None, ...] = (),
) -> dict:
    """Machine-readable scorecard of the whole pipeline for one instance.

    Per sector, all from one :func:`lmg.bethe.solve_levels` call: exact
    eigenpairs, each level's pair energies or its error instead, preparation
    fidelity and energy error for both depth modes on every eigenstate,
    and, for each entry of ``shot_budgets`` (shots, or None for the exact
    estimator), a cold and a warm VQE run with ``options`` on the ground
    sector, ``exact_spectrum(params)[0][1].sector`` (the even-parity sector
    on an exact tie), attached to that sector's first row.  Partial failures
    are recorded per row, not raised; ``options`` are read as
    :func:`objective` reads them.
    """
    opts = _options(options)
    ground = exact_spectrum(params)[0][1].sector
    report = {"params": asdict(params), "sectors": []}
    for config in sector_configs(params.n):
        rows = []
        for level in bethe.solve_levels(config, params):
            try:
                row = _row_report(level, config, params)
            except LmgError as exc:
                row = {"index": level.index, "omega_exact": level.omega,
                       "error": f"{type(exc).__name__}: {exc}"}
            if level.error is not None:
                row["error"] = f"{type(level.error).__name__}: {level.error}"
            rows.append(row)
        report["sectors"].append({"config": asdict(config), "rows": rows})
        if config == ground and shot_budgets:
            rows[0]["vqe"] = _vqe_runs(ground, params, opts, shot_budgets)
    return report


def _vqe_runs(config, params, opts, shot_budgets) -> list[dict]:
    # warm starts verify the pipeline; cold starts are the honest benchmark
    runs = []
    for budget in shot_budgets:
        for warm in (False, True):
            run_opts = replace(
                opts, restarts=1 if warm else opts.restarts,
                estimator="exact" if budget is None else "sampled",
                shots=budget or 0, warm=warm,
            )
            result = optimize(config, params, run_opts)
            runs.append(
                {
                    "shots": budget,
                    "mode": "warm" if warm else "cold",
                    "estimator": result.estimator,
                    "best_energy": result.best_energy,
                    "exact_energy": result.exact_energy,
                    "abs_error": result.abs_error,
                    "evaluations": result.evaluations,
                    "converged": result.converged,
                }
            )
    return runs
