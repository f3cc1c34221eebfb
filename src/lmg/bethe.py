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
regime, its own error.  Each step of a level's solve (seed, polish,
eigenvalue, match) raises that error where it fails, and the level records
it.  The small-M closed forms are oracles kept apart from the solver: the
decoupled W = 0 pair in :mod:`lmg.reference`, the single-pair quadratic in
the test suite.
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
from .model import ModelParams, SectorConfig, _check_sector, sector_spectrum

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


def _pole_violation(energies: np.ndarray, eta: float, guard: float) -> str | None:
    """Describe the first parameter sitting on a pole E = +/-eta, if any."""
    near = np.flatnonzero(np.abs(np.abs(energies) - abs(eta)) < guard)
    if near.size == 0:
        return None
    l = int(near[0])
    name = "+eta" if energies[l] * eta > 0 else "-eta"
    return f"E[{l}]={energies[l]:.6g} within {guard:g} of {name}"


def _singularity(energies: np.ndarray, eta: float) -> str | None:
    """Describe the first pole hit or pair of coinciding parameters, if any."""
    problem = _pole_violation(energies, eta, GUARD)
    if problem is None and energies.size > 1:
        order = np.argsort(energies)
        k = int(np.argmin(np.diff(energies[order])))
        if energies[order[k + 1]] - energies[order[k]] < GUARD:
            l, n_ = sorted((int(order[k]), int(order[k + 1])))
            problem = f"E[{l}] and E[{n_}] closer than {GUARD:g}"
    return problem


def _residual_raw(energies, config, params):
    e = np.asarray(energies, dtype=float)
    nu_a, nu_b, n = config.nu_a, config.nu_b, params.n
    g, eta, s, v = params.g, params.eta, params.s, params.v
    single = g * n * (nu_a - nu_b) * (1.0 + s * e * e) + 2.0 * v * e * (1 + nu_a + nu_b)
    out = 1.0 - eta * single / (n * (e * e - eta * eta))
    if e.size > 1:
        diff = e[:, None] - e[None, :]
        np.fill_diagonal(diff, np.inf)
        out = out + 2.0 * g * ((1.0 + s * e[:, None] * e[None, :]) / diff).sum(axis=1)
    return out


def _jacobian(energies, config, params):
    e = np.asarray(energies, dtype=float)
    m = e.size
    nu_a, nu_b, n = config.nu_a, config.nu_b, params.n
    g, eta, s, v = params.g, params.eta, params.s, params.v
    single = g * n * (nu_a - nu_b) * (1.0 + s * e * e) + 2.0 * v * e * (1 + nu_a + nu_b)
    dsingle = 2.0 * g * n * s * (nu_a - nu_b) * e + 2.0 * v * (1 + nu_a + nu_b)
    pole = e * e - eta * eta
    jac = np.zeros((m, m))
    np.fill_diagonal(jac, -eta * (dsingle * pole - 2.0 * e * single) / (n * pole * pole))
    if m > 1:
        diff = e[:, None] - e[None, :]
        np.fill_diagonal(diff, 1.0)
        pair = 1.0 + s * e[:, None] * e[None, :]
        own = (s * e[None, :] * diff - pair) / (diff * diff)
        other = (s * e[:, None] * diff + pair) / (diff * diff)
        np.fill_diagonal(own, 0.0)
        np.fill_diagonal(other, 0.0)
        jac[np.arange(m), np.arange(m)] += 2.0 * g * own.sum(axis=1)
        jac += 2.0 * g * other
    return jac


def residual(energies, config: SectorConfig, params: ModelParams) -> np.ndarray:
    """Residual of the pair-energy equations, one component per parameter."""
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size != config.m:
        raise InvalidArgumentError(f"expected {config.m} spectral parameters, got {e.shape}")
    if params.rational:
        raise UnsupportedRegimeError("pair-energy equations are undefined at V^2 = W^2")
    problem = _singularity(e, params.eta)
    if problem is not None:
        raise SingularityError(problem)
    return _residual_raw(e, config, params)


def eigenvalue(energies, config: SectorConfig, params: ModelParams) -> float:
    """Eigenvalue omega generated by a solution set (in units of the gap)."""
    if params.rational:
        raise UnsupportedRegimeError("eigenvalue formula is undefined at V^2 = W^2")
    e = np.asarray(energies, dtype=float)
    nu_a, nu_b, n = config.nu_a, config.nu_b, params.n
    g, eta, s, v, w = params.g, params.eta, params.s, params.v, params.w
    base = (w * (nu_a + nu_b + 2 * nu_a * nu_b) + n * (nu_b - nu_a)) / (2 * n)
    if e.size == 0:
        return base
    problem = _pole_violation(e, eta, 1e-12)
    if problem is not None:
        raise SingularityError(problem)
    terms = (g * n * (1 + nu_a + nu_b) * (1.0 + s * e * e) - 2.0 * v * (nu_b - nu_a) * e) / (
        e * e - eta * eta
    )
    return float(base - (eta / n) * terms.sum())


def _require_solvable(config: SectorConfig, params: ModelParams):
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


def _newton(start, config, params) -> np.ndarray:
    """Damped Newton polish of a seed: the sorted set, each residual within TOL.

    Raises NumericFailureError for a non-finite or singular seed, a residual
    non-finite or above 1e8, a singular Jacobian, a non-finite step, 12 step
    halvings without decrease, or MAX_ITERATIONS steps left above TOL.
    """
    e = np.array(start, dtype=float)
    with np.errstate(all="ignore"):
        if np.all(np.isfinite(e)) and not _singularity(e, params.eta):
            res = _residual_raw(e, config, params)
            for _ in range(MAX_ITERATIONS):
                rmax = np.max(np.abs(res), initial=0.0)
                if rmax <= TOL:
                    return np.sort(e)
                if not rmax <= 1e8:  # above 1e8 or not finite
                    break
                try:
                    step = np.linalg.solve(_jacobian(e, config, params), res)
                except np.linalg.LinAlgError:
                    break
                if not np.all(np.isfinite(step)):
                    break
                best = res @ res
                lam = 1.0
                for _ in range(12):
                    trial = e - lam * step
                    if not _singularity(trial, params.eta):
                        trial_res = _residual_raw(trial, config, params)
                        if np.all(np.isfinite(trial_res)) and trial_res @ trial_res < best:
                            e, res = trial, trial_res
                            break
                    lam *= 0.5
                else:
                    break
            if np.max(np.abs(res), initial=0.0) <= TOL:  # the last step converged
                return np.sort(e)
    raise NumericFailureError(f"damped Newton left a residual above {TOL:g}")


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


def _invert_pairons(vec: np.ndarray, weights: np.ndarray, params: ModelParams):
    """Candidate pair energies from one exact eigenvector's ladder amplitudes.

    ``weights`` are the sector's :func:`_ladder_weights`.  Returns the sorted
    real energies, or raises the level's error: ComplexPaironsError for a
    non-real root in the hyperbolic regime, else NumericFailureError.
    """
    m = vec.size - 1
    with np.errstate(all="ignore"):
        scaled = vec / weights
        # Anchor the ratio ladder at the larger end: end components of a Jacobi
        # eigenvector never vanish exactly, but one end can underflow for extreme
        # spectra.  Anchoring at the top recovers the reciprocal Moebius roots.
        if abs(scaled[0]) >= abs(scaled[-1]):
            elem = scaled / scaled[0]
            sign = 1.0
        else:
            elem = scaled[::-1] / scaled[-1]
            sign = -1.0
    if not np.all(np.isfinite(elem)):  # the ratios over- or underflowed
        raise NumericFailureError("the eigenvector's amplitude ratios over- or underflow")
    coeffs = [(-1) ** k * elem[k] for k in range(m + 1)]
    roots = np.roots(coeffs)
    if np.any(np.abs(roots - 1.0) < 1e-12):
        raise NumericFailureError("a Moebius root sits at 1, an infinite pair energy")
    energies = sign * params.eta * (roots + 1.0) / (roots - 1.0)
    scale = 1.0 + np.max(np.abs(energies.real), initial=0.0)
    if np.any(np.abs(energies.imag) > 1e-6 * scale):
        if params.s > 0:
            raise NumericFailureError("non-real pair energies in the trigonometric regime")
        example = energies[np.argmax(np.abs(energies.imag))]
        raise ComplexPaironsError(f"non-real pair energies detected (e.g. {example:.6g})")
    return np.sort(energies.real)


def _solve_level(index, omega, vector, weights, config, params) -> Level:
    try:
        solved = _newton(_invert_pairons(vector, weights, params), config, params)
        found = eigenvalue(solved, config, params)
        if abs(found - omega) > MATCH_TOL:
            raise NumericFailureError(
                f"the set polished onto omega={found:.12g}, not level {index}"
            )
    except LmgError as exc:
        return Level(index, omega, vector, error=exc)
    rn = float(np.max(np.abs(_residual_raw(solved, config, params)), initial=0.0))
    energies = tuple(float(x) for x in solved)
    return Level(index, omega, vector, SpectralSolution(config, params, energies, found, rn, index))


def solve_levels(config: SectorConfig, params: ModelParams) -> tuple[Level, ...]:
    """A sector's exact levels, each with its validated set or why it has none.

    Level j carries exact eigenpair j of :func:`sector_spectrum` (its vector a
    read-only contiguous row of the transposed eigenvectors) and either the set
    seeded by eigenvector j, polished by damped Newton within TOL and
    matching the eigenvalue within MATCH_TOL, or the level's error: a
    NumericFailureError, or a ComplexPaironsError for non-real pair energies
    in the hyperbolic regime.  A rational or V = 0 sector, or one with M > 0
    whose g or eta overflowed (InvalidArgumentError), is still diagonalized
    and repeats its refusal at every level; a wrong N raises
    InvalidArgumentError.
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
    return tuple(_solve_level(*pair, weights, config, params) for pair in exact)


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
