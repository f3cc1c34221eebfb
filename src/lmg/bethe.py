"""Pair-energy (pairon) equations of the LMG model and their numerical solution.

Each eigenstate of an (M, nu_a, nu_b) sector is labeled by M real spectral
parameters E_1..E_M solving the coupled rational equations

    0 = 1 - eta [ g N (nu_a - nu_b)(1 + s E_l^2) + 2 V E_l (1 + nu_a + nu_b) ]
            / ( N (E_l^2 - eta^2) )
          + 2 g  sum_{n != l} (1 + s E_l E_n) / (E_l - E_n)

with simple poles at E = +/-eta and at coinciding parameters.  The sector
carries exactly M+1 distinct real solution sets in the trigonometric regime
(V^2 > W^2); each set yields one eigenvalue through a closed formula.

:func:`solve_bethe` is the one solver, for every M.  It seeds each solution
set from the matching exact eigenvector: the ladder amplitudes are fixed
multiples of the elementary symmetric polynomials in the Moebius variables
x_l = (E_l + eta)/(E_l - eta), so the roots of one polynomial recover the
E_l, which damped Newton then polishes.  The roots are therefore seeded from
the diagonalization; the residual of the pair-energy equations and the
closed-form eigenvalue stay independent of it, and every returned list is
validated against the diagonalization.  The small-M closed forms (the
single-pair quadratic, the decoupled W = 0 pair) live in
:mod:`lmg.reference` as oracles that check this solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ComplexPaironsError,
    IncompleteSolveError,
    InvalidArgumentError,
    SingularityError,
    UnsupportedRegimeError,
)
from .model import ModelParams, SectorConfig, sector_spectrum

__all__ = [
    "SpectralSolution",
    "residual",
    "eigenvalue",
    "solve_bethe",
]

GUARD = 1e-8  # closest approach of a parameter to a pole or to another parameter
MAX_ITERATIONS = 60  # Newton steps per solution set
TOL = 1e-10  # largest accepted residual component of a polished solution set
MATCH_TOL = 1e-8  # largest accepted deviation of an eigenvalue from the diagonalization


@dataclass(frozen=True)
class SpectralSolution:
    """One converged solution set and the eigenvalue it generates.

    ``energies`` is sorted ascending (solution sets are unordered);
    ``index`` labels the solution 1..M+1 by increasing eigenvalue.
    """

    config: SectorConfig
    params: ModelParams
    energies: tuple[float, ...]
    omega: float
    residual_norm: float
    index: int = 0


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


def _require_solvable(config: SectorConfig, params: ModelParams, allow_hyperbolic: bool):
    if config.n != params.n:
        raise InvalidArgumentError(
            f"sector describes {config.n} particles, params describe {params.n}"
        )
    if params.rational:
        raise UnsupportedRegimeError(
            "rational instance (V^2 = W^2): eta is undefined, use exact_spectrum"
        )
    if params.s < 0 and not allow_hyperbolic:
        raise UnsupportedRegimeError(
            "hyperbolic instance (V^2 < W^2): pass allow_hyperbolic=True to attempt "
            "a real-parameter solve"
        )
    if config.m > 0 and params.v == 0.0:
        raise UnsupportedRegimeError(
            "V = 0 leaves the Fock basis diagonal; pair energies degenerate onto the poles"
        )


def _finalize(sets, config, params) -> list[SpectralSolution]:
    sols = []
    for energies in sets:
        e = np.asarray(energies)
        rn = float(np.max(np.abs(_residual_raw(e, config, params)), initial=0.0))
        sols.append(
            SpectralSolution(
                config=config,
                params=params,
                energies=tuple(float(x) for x in e),
                omega=eigenvalue(e, config, params),
                residual_norm=rn,
                index=0,
            )
        )
    sols.sort(key=lambda s: s.omega)
    return [replace(s, index=j + 1) for j, s in enumerate(sols)]


def _newton(start, config, params) -> np.ndarray | None:
    e = np.array(start, dtype=float)
    with np.errstate(all="ignore"):
        if not np.all(np.isfinite(e)) or _singularity(e, params.eta):
            return None
        res = _residual_raw(e, config, params)
        if not np.all(np.isfinite(res)):
            return None
        for _ in range(MAX_ITERATIONS):
            rmax = np.max(np.abs(res), initial=0.0)
            if rmax <= TOL:
                return np.sort(e)
            if rmax > 1e8:
                return None
            try:
                step = np.linalg.solve(_jacobian(e, config, params), res)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(step)):
                return None
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
                return None
        if np.max(np.abs(res), initial=0.0) <= TOL:
            return np.sort(e)
    return None


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

    ``weights`` are the sector's :func:`_ladder_weights`.  Returns
    (real_energies, None), (None, complex_roots) when the recovered Moebius
    roots leave the real axis, or (None, None) when the amplitudes give no
    usable polynomial.
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
        return None, None
    coeffs = [(-1) ** k * elem[k] for k in range(m + 1)]
    roots = np.roots(coeffs)
    if np.any(np.abs(roots - 1.0) < 1e-12):
        return None, None
    energies = sign * params.eta * (roots + 1.0) / (roots - 1.0)
    scale = 1.0 + np.max(np.abs(energies.real), initial=0.0)
    if np.any(np.abs(energies.imag) > 1e-6 * scale):
        return None, energies
    return np.sort(energies.real), None


def solve_bethe(
    config: SectorConfig, params: ModelParams, *, allow_hyperbolic: bool = False
) -> list[SpectralSolution]:
    """All M+1 solution sets of a sector, validated against diagonalization.

    Set j is seeded by inverting exact eigenvector j into pair energies and
    polished by damped Newton on the pair-energy equations until every
    residual component is within TOL.  A set that fails to polish, or that
    polishes onto another set, leaves an eigenvalue of the oracle unmatched;
    every eigenvalue must match within MATCH_TOL.  Hyperbolic instances
    (V^2 < W^2) raise UnsupportedRegimeError unless ``allow_hyperbolic``.
    Raises IncompleteSolveError when the validated list cannot be completed,
    and ComplexPaironsError when the missing sets are complex (hyperbolic
    regime only: trigonometric pair energies are real, so non-real roots
    there are a numerical failure).
    """
    _require_solvable(config, params, allow_hyperbolic)
    m = config.m
    exact_vals, exact_vecs = sector_spectrum(config, params)

    weights = _ladder_weights(config)
    found: list[np.ndarray] = []
    complex_roots = None
    for vec in exact_vecs.T:
        seed, croots = _invert_pairons(vec, weights, params)
        if seed is None:
            if croots is not None:
                complex_roots = croots
            continue
        solved = _newton(seed, config, params)
        if solved is not None:
            found.append(solved)

    if len(found) < m + 1:
        if complex_roots is not None and params.s < 0:
            raise ComplexPaironsError(
                f"non-real pair energies detected (e.g. {complex_roots[0]:.6g}); "
                f"only {len(found)} of {m + 1} real solution sets exist"
            )
        raise IncompleteSolveError(
            f"recovered {len(found)} of {m + 1} solution sets from the eigenvectors",
            found=len(found),
            needed=m + 1,
        )

    sols = _finalize(found, config, params)
    got = np.array([s.omega for s in sols])
    if np.max(np.abs(got - exact_vals)) > MATCH_TOL:
        raise IncompleteSolveError(
            "solution eigenvalues do not reproduce the diagonalization oracle "
            f"(max deviation {np.max(np.abs(got - exact_vals)):.3g})",
            found=len(found),
            needed=m + 1,
        )
    return sols
