"""Pair-energy (pairon) equations of the LMG model and their numerical solution.

Each eigenstate of an (M, nu_a, nu_b) sector is labeled by M real spectral
parameters E_1..E_M solving the coupled rational equations

    0 = 1 - eta [ g N (nu_a - nu_b)(1 + s E_l^2) + 2 V E_l (1 + nu_a + nu_b) ]
            / ( N (E_l^2 - eta^2) )
          + 2 g  sum_{n != l} (1 + s E_l E_n) / (E_l - E_n)

with simple poles at E = +/-eta and at coinciding parameters.  The sector
carries exactly M+1 distinct real solution sets in the trigonometric regime
(V^2 > W^2); each set yields one eigenvalue through a closed formula.  In the
hyperbolic regime (V^2 < W^2) a level's pair energies may be non-real.

:func:`solve_levels` is the one solver, for every M.  It seeds each solution
set from the matching exact eigenvector: the ladder amplitudes are fixed
multiples of the elementary symmetric polynomials in the Moebius variables
x_l = (E_l + eta)/(E_l - eta), so the roots of one polynomial recover the
E_l, which damped Newton then polishes.  The roots are therefore seeded from
the diagonalization; the residual of the pair-energy equations and the
closed-form eigenvalue stay independent of it.  Set j is seeded by exact
eigenvector j and validated against exact level j alone; each exact level
comes back as one :class:`Level` record that holds its set or, in either
regime, its own error.  A sector's levels are solved together, one row per
level: one stacked companion ``eigvals`` call seeds them, one damped Newton
polishes every row with its own convergence test, step halving and failure,
and one eigenvalue and one residual evaluation validate them.  Each step
(seed, polish, eigenvalue, match) fails row by row, and a level records the
error of the step that refused it; each row gets the bits a solve of its
level alone gives.  ``GUARD`` is the one pole distance: Newton keeps each
parameter that far from E = +/-eta and from the others, and :func:`residual`,
:func:`eigenvalue` and :func:`lmg.eigenstates.build_eigenstate` refuse a set
as :func:`solve_levels` refuses its sector, and a parameter nearer a pole
(the residual also two parameters nearer each other).  ``_BATCH_CAP``
bounds the K M^2 elements of a batch's stacked (K, M, M) matrices.  The
small-M closed forms are oracles kept apart from the solver: the decoupled
W = 0 pair in :mod:`lmg.reference`, the single-pair quadratic in the test
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ComplexPaironsError,
    IncompleteSolveError,
    InvalidArgumentError,
    LmgError,
    NumericFailureError,
    SingularityError,
    UnsupportedRegimeError,
)
from .model import ModelParams, SectorConfig, _check_sector, _finite_reals, sector_spectrum

__all__ = [
    "Level",
    "SpectralSolution",
    "residual",
    "eigenvalue",
    "solve_bethe",
    "solve_levels",
]

GUARD = 1e-8  # closest approach of a parameter to a pole or to another parameter
MAX_ITERATIONS = 60  # Newton steps per solution set
TOL = 1e-10  # largest accepted residual component of a polished solution set
MATCH_TOL = 1e-8  # largest accepted deviation of an eigenvalue from the diagonalization
_BATCH_CAP = 8192  # elements K M^2 of one batch's stacked (K, M, M) matrices


@dataclass(frozen=True)
class SpectralSolution:
    """One converged solution set and the eigenvalue it generates.

    ``energies`` is sorted ascending (solution sets are unordered);
    ``index`` is j + 1 for the set seeded by exact eigenvector j and
    validated against exact level j, so it counts 1..M+1 by increasing
    eigenvalue.
    """

    config: SectorConfig
    params: ModelParams
    energies: tuple[float, ...]
    omega: float
    residual_norm: float
    index: int


@dataclass(frozen=True)
class Level:
    """Exact level j of a sector and its Bethe outcome.

    ``index`` is j + 1, ``omega`` exact eigenvalue j and ``vector`` exact
    eigenvector j as a read-only C-contiguous row (a strided view can round
    differently in the angle compilers).  Exactly one of ``solution`` (the
    validated set) and ``error`` (why the level has none) is set; the other
    is None.
    """

    index: int
    omega: float
    vector: np.ndarray = field(compare=False, repr=False)
    solution: SpectralSolution | None = None
    error: LmgError | None = None


def _singularity(energies: np.ndarray, eta: float, pairs: bool = True) -> str | None:
    """Describe the first parameter of one set within GUARD of a pole E = +/-eta.

    Failing that, with ``pairs``, describe two parameters closer than GUARD,
    a pole of the pair-energy equations alone.
    """
    near = np.flatnonzero(np.abs(np.abs(energies) - abs(eta)) < GUARD)
    if near.size:
        l = int(near[0])
        name = "+eta" if energies[l] * eta > 0 else "-eta"
        return f"E[{l}]={energies[l]:.6g} within {GUARD:g} of {name}"
    if pairs and energies.size > 1:
        order = np.argsort(energies)
        k = int(np.argmin(np.diff(energies[order])))
        if energies[order[k + 1]] - energies[order[k]] < GUARD:
            l, n_ = sorted((int(order[k]), int(order[k + 1])))
            return f"E[{l}] and E[{n_}] closer than {GUARD:g}"
    return None


def _singular(e: np.ndarray, eta: float) -> np.ndarray:
    """Mask of the rows of a (K, M) stack of sets that :func:`_singularity` describes."""
    hit = np.any(np.abs(np.abs(e) - abs(eta)) < GUARD, axis=1)
    if e.shape[1] > 1:
        hit |= np.any(np.diff(np.sort(e, axis=1), axis=1) < GUARD, axis=1)
    return hit


def _residual_raw(e: np.ndarray, config, params) -> np.ndarray:
    """Residual of the pair-energy equations for each row of a (K, M) stack of sets."""
    nu_a, nu_b, n = config.nu_a, config.nu_b, params.n
    g, eta, s, v = params.g, params.eta, params.s, params.v
    single = g * n * (nu_a - nu_b) * (1.0 + s * e * e) + 2.0 * v * e * (1 + nu_a + nu_b)
    out = 1.0 - eta * single / (n * (e * e - eta * eta))
    m = e.shape[1]
    if m > 1:
        pair = s * e[:, :, None] * e[:, None, :]
        pair += 1.0
        diff = e[:, :, None] - e[:, None, :]
        diff[:, np.arange(m), np.arange(m)] = np.inf
        pair /= diff
        out = out + 2.0 * g * pair.sum(axis=2)
    return out


def _jacobian(e: np.ndarray, config, params) -> np.ndarray:
    """Jacobian of :func:`_residual_raw` for each row of a (K, M) stack, as (K, M, M)."""
    m = e.shape[1]
    nu_a, nu_b, n = config.nu_a, config.nu_b, params.n
    g, eta, s, v = params.g, params.eta, params.s, params.v
    single = g * n * (nu_a - nu_b) * (1.0 + s * e * e) + 2.0 * v * e * (1 + nu_a + nu_b)
    dsingle = 2.0 * g * n * s * (nu_a - nu_b) * e + 2.0 * v * (1 + nu_a + nu_b)
    pole = e * e - eta * eta
    diag = np.arange(m)
    jac_diag = -eta * (dsingle * pole - 2.0 * e * single) / (n * pole * pole)
    if m > 1:
        # row l's derivatives by E_l (own, summed onto the diagonal) and by E_n
        # (other), built in place: at most four (K, M, M) arrays live at once
        diff = e[:, :, None] - e[:, None, :]
        diff[:, diag, diag] = 1.0
        pair = s * e[:, :, None] * e[:, None, :]
        pair += 1.0
        square = diff * diff
        own = s * e[:, None, :] * diff
        own -= pair
        own /= square
        own[:, diag, diag] = 0.0
        jac_diag = jac_diag + 2.0 * g * own.sum(axis=2)
        del own
        other = diff
        other *= s * e[:, :, None]
        other += pair
        other /= square
        other[:, diag, diag] = 0.0
        other *= 2.0 * g
    jac = np.zeros((len(e), m, m))
    jac[:, diag, diag] = jac_diag
    if m > 1:
        jac += other
    return jac


def _eigenvalues(e: np.ndarray, config, params) -> np.ndarray:
    """Eigenvalue omega generated by each row of a (K, M) stack of sets."""
    nu_a, nu_b, n = config.nu_a, config.nu_b, params.n
    g, eta, s, v, w = params.g, params.eta, params.s, params.v, params.w
    base = (w * (nu_a + nu_b + 2 * nu_a * nu_b) + n * (nu_b - nu_a)) / (2 * n)
    if e.shape[1] == 0:
        return np.full(len(e), base)
    terms = (g * n * (1 + nu_a + nu_b) * (1.0 + s * e * e) - 2.0 * v * (nu_b - nu_a) * e) / (
        e * e - eta * eta
    )
    return base - (eta / n) * terms.sum(axis=1)


def _require_solvable(config: SectorConfig, params: ModelParams) -> None:
    """Refuse a sector whose pair energies are not defined: the one sector rule.

    A wrong N raises InvalidArgumentError, a rational instance
    UnsupportedRegimeError; when M > 0, so do an overflowed g or eta
    (InvalidArgumentError) and V = 0 (UnsupportedRegimeError).
    """
    _check_sector(config, params)
    if params.rational:
        raise UnsupportedRegimeError(
            "rational instance (V^2 = W^2): eta is undefined, use exact_spectrum"
        )
    if config.m > 0 and not (math.isfinite(params.g) and math.isfinite(params.eta)):
        raise InvalidArgumentError(
            f"pair-energy parameters overflow at V={params.v!r}, W={params.w!r} "
            f"(g={params.g!r}, eta={params.eta!r})"
        )
    if config.m > 0 and params.v == 0.0:
        raise UnsupportedRegimeError(
            "V = 0 leaves the Fock basis diagonal; pair energies degenerate onto the poles"
        )


def _checked_set(energies, config: SectorConfig, params: ModelParams, pairs=False) -> np.ndarray:
    """The set as floats: the one rule of every entry that takes a set.

    The set must be ``config.m`` finite reals whose squares are finite (else
    InvalidArgumentError, naming the first parameter whose square
    overflows), the sector pass :func:`_require_solvable`, and no parameter
    lie within GUARD of a pole, nor, with ``pairs``, of another (else
    SingularityError).
    """
    e = _finite_reals(energies, "spectral parameters")
    if e.size != config.m:
        raise InvalidArgumentError(f"expected {config.m} spectral parameters, got {e.size}")
    peak = float(np.abs(e).max(initial=0.0))  # squaring is monotone in |E|
    if peak * peak == math.inf:
        l, value = next((l, x) for l, x in enumerate(e.tolist()) if x * x == math.inf)
        raise InvalidArgumentError(f"E[{l}]={value!r} overflows when squared")
    _require_solvable(config, params)
    problem = _singularity(e, params.eta, pairs)
    if problem is not None:
        raise SingularityError(problem)
    return e


def residual(energies, config: SectorConfig, params: ModelParams) -> np.ndarray:
    """Residual of the pair-energy equations, one component per parameter.

    Refuses what :func:`eigenvalue` refuses, and two parameters closer than GUARD.
    """
    e = _checked_set(energies, config, params, pairs=True)
    return _residual_raw(e[None], config, params)[0]


def eigenvalue(energies, config: SectorConfig, params: ModelParams) -> float:
    """Eigenvalue omega generated by a solution set (in units of the gap).

    A set that is not ``config.m`` finite reals raises InvalidArgumentError,
    a sector :func:`solve_levels` refuses raises its refusal, and a
    parameter within GUARD of a pole E = +/-eta raises SingularityError.
    """
    e = _checked_set(energies, config, params)
    return float(_eigenvalues(e[None], config, params)[0])


def _squares(rows: np.ndarray) -> np.ndarray:
    """``r @ r`` for each row r, with the bits of the one-row product."""
    return (rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _solve_rows(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each (M, M) system of a stack; a row whose matrix is singular comes back NaN."""
    try:
        return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # one singular matrix refuses the whole stack
        out = np.full(rhs.shape, np.nan)
        for k in range(len(rhs)):
            try:
                out[k] = np.linalg.solve(jac[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return out


def _newton(start: np.ndarray, config, params) -> tuple[np.ndarray, list]:
    """Damped Newton polish of each row of a (K, M) stack of seeds.

    Returns the rows, each sorted, and one entry per row: None where every
    residual component is within TOL, else NumericFailureError.  A row fails
    for a non-finite or singular seed, a residual non-finite or above 1e8, a
    singular Jacobian, a non-finite step, 12 step halvings without decrease,
    or MAX_ITERATIONS steps left above TOL.  Each row keeps its own test,
    step length and failure; ``live`` holds the rows still iterating.
    """
    e = np.array(start, dtype=float)
    converged = np.zeros(len(e), dtype=bool)
    with np.errstate(all="ignore"):
        live = np.flatnonzero(np.all(np.isfinite(e), axis=1))
        live = live[~_singular(e[live], params.eta)]
        res = np.empty_like(e)
        res[live] = _residual_raw(e[live], config, params)
        for _ in range(MAX_ITERATIONS):
            rmax = np.max(np.abs(res[live]), axis=1, initial=0.0)
            converged[live[rmax <= TOL]] = True
            live = live[(rmax > TOL) & (rmax <= 1e8)]  # above 1e8 or not finite: failed
            if live.size == 0:
                break
            step = _solve_rows(_jacobian(e[live], config, params), res[live])
            finite = np.all(np.isfinite(step), axis=1)  # a singular Jacobian gives NaN
            live, step = live[finite], step[finite]
            best = _squares(res[live])
            waiting = np.arange(live.size)  # positions in ``live`` still halving their step
            lam = 1.0
            for _ in range(12):
                rows = live[waiting]
                trial = e[rows] - lam * step[waiting]
                trial_res = _residual_raw(trial, config, params)
                better = ~_singular(trial, params.eta) & np.all(np.isfinite(trial_res), axis=1)
                better[better] = _squares(trial_res[better]) < best[waiting[better]]
                e[rows[better]] = trial[better]
                res[rows[better]] = trial_res[better]
                waiting = waiting[~better]
                if waiting.size == 0:
                    break
                lam *= 0.5
            live = np.delete(live, waiting)  # no decrease in 12 halvings: failed
        else:  # the budget ran out: the last step may have converged
            converged[live[np.max(np.abs(res[live]), axis=1, initial=0.0) <= TOL]] = True
    failure = f"damped Newton left a residual above {TOL:g}"
    return np.sort(e, axis=1), [None if ok else NumericFailureError(failure) for ok in converged]


def _ladder_weights(config: SectorConfig) -> np.ndarray:
    """sqrt of the bosonic ladder factors multiplying each symmetric polynomial.

    The factor of position k is (nu_a + 2(M - k))! (nu_b + 2k)! (nu! = 1 for
    nu in {0, 1}).  Past N = 170 it overflows a float, so each factorial is
    split exactly into a mantissa in [0.5, 1] and a power of two.  Only ratios
    of the weights matter, so all of them share one power-of-two rescaling,
    which is 1 wherever the plain float product fits.
    """
    m, nu_a, nu_b = config.m, config.nu_a, config.nu_b
    roots, exponents = [], []
    for k in range(m + 1):
        a, c = math.factorial(nu_a + 2 * (m - k)), math.factorial(nu_b + 2 * k)
        bits_a, bits_c = a.bit_length(), c.bit_length()
        exponent = bits_a + bits_c
        # int / int is correctly rounded, so a / 2^bits_a is fl(a) / 2^bits_a;
        # an odd exponent moves one factor 2 (exactly) into the mantissa
        roots.append(math.sqrt(a / (1 << bits_a) * (c / (1 << bits_c)) * (1 + exponent % 2)))
        exponents.append(exponent // 2)
    shift = max(0, max(exponents) - 1000)
    return np.ldexp(roots, np.array(exponents) - shift)


def _invert_pairons(vectors: np.ndarray, weights: np.ndarray, params: ModelParams):
    """Candidate pair energies from each row of a (K, M+1) stack of exact eigenvectors.

    ``weights`` are the sector's :func:`_ladder_weights`.  Returns the (K, M)
    rows of sorted real energies and one entry per row: None, or the row's
    error, ComplexPaironsError for a non-real root in the hyperbolic regime,
    else NumericFailureError.  Each row gets the roots ``np.roots`` finds for
    it alone: rows are stacked by the degree ``np.roots`` keeps (it drops
    trailing zero coefficients and returns their roots as 0), and a row whose
    roots are all real is mapped in real arithmetic.
    """
    k, m = vectors.shape[0], vectors.shape[1] - 1
    errors: list[LmgError | None] = [None] * k
    energies = np.full((k, m), np.nan)
    with np.errstate(all="ignore"):
        scaled = vectors / weights
        # Anchor the ratio ladder at the larger end: end components of a Jacobi
        # eigenvector never vanish exactly, but one end can underflow for extreme
        # spectra.  Anchoring at the top recovers the reciprocal Moebius roots.
        top = np.abs(scaled[:, 0]) >= np.abs(scaled[:, -1])
        elem = np.where(top[:, None], scaled / scaled[:, :1], scaled[:, ::-1] / scaled[:, -1:])
    finite = np.all(np.isfinite(elem), axis=1)  # else the ratios over- or underflowed
    for row in np.flatnonzero(~finite):
        errors[row] = NumericFailureError("the eigenvector's amplitude ratios over- or underflow")
    coeffs = elem * (-1.0) ** np.arange(m + 1)
    degree = m - np.argmax(coeffs[:, ::-1] != 0, axis=1)
    roots = np.zeros((k, m), dtype=complex)
    real = np.ones(k, dtype=bool)
    for d in sorted(set(degree[finite].tolist()) - {0}):
        rows = np.flatnonzero(finite & (degree == d))
        companion = np.zeros((rows.size, d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, 0, :] = -coeffs[rows, 1 : d + 1] / coeffs[rows, :1]
        found = np.linalg.eigvals(companion)
        roots[rows, :d] = found
        if found.dtype.kind == "c":  # complex for the whole stack if any row is
            real[rows] = np.all(found.imag == 0.0, axis=1)
    sign_eta = np.where(top, 1.0, -1.0) * params.eta
    for is_real in (True, False):
        rows = np.flatnonzero(finite & (real == is_real))
        if rows.size == 0:
            continue
        x = roots[rows].real if is_real else roots[rows]
        at_one = np.any(np.abs(x - 1.0) < 1e-12, axis=1)
        for row in rows[at_one]:
            errors[row] = NumericFailureError("a Moebius root sits at 1, an infinite pair energy")
        rows, x = rows[~at_one], x[~at_one]
        mapped = sign_eta[rows, None] * (x + 1.0) / (x - 1.0)
        scale = 1.0 + np.max(np.abs(mapped.real), axis=1, initial=0.0)
        off = np.any(np.abs(mapped.imag) > 1e-6 * scale[:, None], axis=1)
        for row, values in zip(rows[off], mapped[off]):
            example = values[np.argmax(np.abs(values.imag))]
            errors[row] = (
                NumericFailureError("non-real pair energies in the trigonometric regime")
                if params.s > 0
                else ComplexPaironsError(f"non-real pair energies detected (e.g. {example:.6g})")
            )
        energies[rows[~off]] = np.sort(mapped[~off].real, axis=1)
    return energies, errors


def _passed(live: np.ndarray, step_errors: list, errors: list) -> np.ndarray:
    """Record the error of each row of ``live`` a step refused; mask of the rows it passed."""
    for row, error in zip(live, step_errors):
        if error is not None:
            errors[row] = error
    return np.array([error is None for error in step_errors], dtype=bool)


def _solve_batch(exact: list, vectors: np.ndarray, weights, config, params) -> list[Level]:
    """The levels of one batch of exact eigenpairs, their sets solved together.

    Each step takes the rows every earlier step passed, and a row a step
    refuses records that step's error.  No step raises an LmgError (Newton's
    rows stay GUARD from every pole), so none is caught for the whole batch.
    """
    errors: list[LmgError | None] = [None] * len(exact)
    live = np.arange(len(exact))
    seeds, step_errors = _invert_pairons(vectors, weights, params)
    ok = _passed(live, step_errors, errors)
    seeds, live = seeds[ok], live[ok]
    solved, step_errors = _newton(seeds, config, params)
    ok = _passed(live, step_errors, errors)
    solved, live = solved[ok], live[ok]
    found = _eigenvalues(solved, config, params)
    step_errors = [
        NumericFailureError(
            f"the set polished onto omega={omega:.12g}, not level {exact[row][0]}"
        )
        if abs(omega - exact[row][1]) > MATCH_TOL
        else None
        for row, omega in zip(live, found.tolist())
    ]
    ok = _passed(live, step_errors, errors)
    solved, found, live = solved[ok], found[ok], live[ok]
    norms = np.max(np.abs(_residual_raw(solved, config, params)), axis=1, initial=0.0)
    solutions = {
        row: SpectralSolution(config, params, tuple(energies), omega, rn, exact[row][0])
        for row, energies, omega, rn in zip(
            live.tolist(), solved.tolist(), found.tolist(), norms.tolist()
        )
    }
    return [
        Level(index, omega, vector, solutions.get(row), errors[row])
        for row, (index, omega, vector) in enumerate(exact)
    ]


def solve_levels(config: SectorConfig, params: ModelParams) -> tuple[Level, ...]:
    """A sector's exact levels, each with its validated set or why it has none.

    Level j carries exact eigenpair j of :func:`sector_spectrum` (its vector a
    read-only contiguous row of the transposed eigenvectors) and either the set
    seeded by eigenvector j, polished by damped Newton within TOL and
    matching the eigenvalue within MATCH_TOL, or the level's error: a
    NumericFailureError, or a ComplexPaironsError for non-real pair energies
    in the hyperbolic regime.  The levels are solved together, in batches of
    K consecutive levels with K M^2 at most ``_BATCH_CAP`` (at least one
    level each), which bounds the stacked (K, M, M) companion and Jacobian
    matrices; a level's outcome does not depend on its batch.  A rational or
    V = 0 sector, or one with M > 0 whose g or eta overflowed
    (InvalidArgumentError), is still diagonalized and repeats its refusal at
    every level; a wrong N raises InvalidArgumentError.
    """
    values, vectors = sector_spectrum(config, params)
    rows = np.ascontiguousarray(vectors.T)
    rows.flags.writeable = False
    exact = [(j + 1, float(values[j]), vector) for j, vector in enumerate(rows)]
    try:
        _require_solvable(config, params)
    except LmgError as exc:
        return tuple(Level(*pair, error=exc) for pair in exact)
    weights = _ladder_weights(config)
    size = max(1, _BATCH_CAP // max(1, config.m * config.m))
    return tuple(
        level
        for start in range(0, len(exact), size)
        for level in _solve_batch(
            exact[start : start + size], rows[start : start + size], weights, config, params
        )
    )


def solve_bethe(config: SectorConfig, params: ModelParams) -> list[SpectralSolution]:
    """All M+1 solution sets of a sector: the ``solution`` of each :func:`solve_levels` level.

    Raises UnsupportedRegimeError for rational and V = 0 instances.  When a
    level has no set, raises ComplexPaironsError if one has non-real pair
    energies (hyperbolic instances only), else IncompleteSolveError.
    """
    _require_solvable(config, params)
    levels = solve_levels(config, params)
    found = [level.solution for level in levels if level.solution is not None]
    non_real = [level.error for level in levels if isinstance(level.error, ComplexPaironsError)]
    if non_real:
        raise ComplexPaironsError(
            f"{non_real[-1]}; only {len(found)} of {len(levels)} real solution sets exist"
        )
    if len(found) < len(levels):
        raise IncompleteSolveError(
            f"recovered {len(found)} of {len(levels)} solution sets from the eigenvectors",
            found=len(found),
            needed=len(levels),
        )
    return found
