"""Build exact LMG eigenstates by stacking two-mode pair-creation factors.

Applying the operator  (a+)^2/(E + eta) + (b+)^2/(E - eta)  once per
spectral parameter to a fiducial state |nu_a, nu_b> produces an
(unnormalized) eigenstate whose ladder support has exactly M+1 points.
The factors commute, so the result is independent of application order.
Both entry points run the same step on raw ladder amplitudes; a state
becomes a :class:`FockVector` once, at the end.  The W = 0 closed form of
one such step, ``extend_state``, lives in the test suite's oracles, where it
checks :func:`apply_pair_factor`.
"""

from __future__ import annotations

import math

import numpy as np

from .bethe import SpectralSolution, _checked_set, _singularity
from .errors import InvalidArgumentError, SingularityError
from .model import FockVector, _finite_reals, canonical_sign, ladder_occupations

__all__ = ["apply_pair_factor", "build_eigenstate"]


def _lifts(n: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt((n_a+1)(n_a+2)) and sqrt((n_b+1)(n_b+2)) along an n-quantum ladder."""
    na, nb = ladder_occupations(n, parity)
    return np.sqrt((na + 1) * (na + 2)), np.sqrt((nb + 1) * (nb + 2))


def _pair_step(amps: np.ndarray, lift_a, lift_b, energy: float, eta: float) -> np.ndarray:
    """One pair-creation factor on raw ladder amplitudes (size s in, s + 1 out).

    ``lift_a`` and ``lift_b`` are the input ladder's :func:`_lifts`: entry k
    feeds entries k (via (a+)^2) and k+1 (via (b+)^2) of the output.
    """
    out = np.zeros(amps.size + 1)
    out[:-1] = amps * lift_a / (energy + eta)
    out[1:] += amps * lift_b / (energy - eta)
    return out


def apply_pair_factor(psi: FockVector, energy: float, eta: float) -> FockVector:
    """One unnormalized pair-creation step: N quanta in, N+2 quanta out.

    Ladder entry k of the input feeds entries k (via (a+)^2, weight
    sqrt((n_a+1)(n_a+2))/(E+eta)) and k+1 (via (b+)^2, weight
    sqrt((n_b+1)(n_b+2))/(E-eta)) of the output.  A non-real or non-finite
    energy or eta raises InvalidArgumentError, an energy within
    :data:`lmg.bethe.GUARD` of a pole E = +/-eta SingularityError.
    """
    e = _finite_reals((energy,), "pair energies")
    (eta,) = _finite_reals((eta,), "eta").tolist()
    problem = _singularity(e, eta)
    if problem is not None:
        raise SingularityError(problem)
    out = _pair_step(psi.amps, *_lifts(psi.n, psi.parity), e.item(), eta)
    return FockVector(psi.n + 2, psi.parity, out)


def build_eigenstate(solution: SpectralSolution) -> FockVector:
    """Normalized eigenstate generated by a converged solution set.

    Factors are applied in ascending pair-energy order (they commute; a fixed
    order keeps outputs bit-stable) with renormalization after each step, and
    the global sign follows the largest-amplitude-positive convention.  The
    set is refused, before any step, as :func:`lmg.bethe.eigenvalue` refuses it.
    """
    config, params = solution.config, solution.params
    energies = sorted(_checked_set(solution.energies, config, params).tolist())
    m, parity, n = config.m, config.parity, config.n
    # step i reads the first i + 1 b-lifts and the last i + 1 a-lifts of the final ladder
    lift_a, lift_b = _lifts(n, parity)
    amps = np.ones(1)
    for i, energy in enumerate(energies):
        amps = _pair_step(amps, lift_a[m - i :], lift_b[: i + 1], energy, params.eta)
        norm = math.sqrt(amps @ amps)  # the bits of np.linalg.norm
        if norm == 0.0:
            raise InvalidArgumentError("cannot normalize the zero vector")
        amps = amps / norm
    return FockVector(n, parity, canonical_sign(amps))
