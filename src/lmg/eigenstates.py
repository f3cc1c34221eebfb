"""Build exact LMG eigenstates by stacking two-mode pair-creation factors.

Applying the operator  (a+)^2/(E + eta) + (b+)^2/(E - eta)  once per
spectral parameter to a fiducial state |nu_a, nu_b> produces an
(unnormalized) eigenstate whose ladder support has exactly M+1 points.
The factors commute, so the result is independent of application order.
"""

from __future__ import annotations

import numpy as np

from .bethe import SpectralSolution
from .errors import InvalidArgumentError, SingularityError, UnsupportedRegimeError
from .model import FockVector, ModelParams, SectorConfig, canonical_sign

__all__ = ["apply_pair_factor", "build_eigenstate", "extend_state"]

_POLE_GUARD = 1e-10


def apply_pair_factor(psi: FockVector, energy: float, eta: float) -> FockVector:
    """One unnormalized pair-creation step: N quanta in, N+2 quanta out.

    Ladder entry k of the input feeds entries k (via (a+)^2, weight
    sqrt((n_a+1)(n_a+2))/(E+eta)) and k+1 (via (b+)^2, weight
    sqrt((n_b+1)(n_b+2))/(E-eta)) of the output.
    """
    if abs(energy - eta) < _POLE_GUARD or abs(energy + eta) < _POLE_GUARD:
        raise SingularityError(f"pair energy {energy:.6g} sits on a pole (+/-eta = {eta:.6g})")
    n, parity = psi.n, psi.parity
    size = psi.amps.size
    k = np.arange(size)
    na = n - parity - 2 * k
    nb = parity + 2 * k
    out = np.zeros(size + 1)
    out[:-1] = psi.amps * np.sqrt((na + 1) * (na + 2)) / (energy + eta)
    out[1:] += psi.amps * np.sqrt((nb + 1) * (nb + 2)) / (energy - eta)
    return FockVector(n + 2, parity, out)


def build_eigenstate(solution: SpectralSolution) -> FockVector:
    """Normalized eigenstate generated by a converged solution set.

    Factors are applied in ascending pair-energy order (they commute; a fixed
    order keeps outputs bit-stable) with renormalization after each step, and
    the global sign follows the largest-amplitude-positive convention.
    """
    config, params = solution.config, solution.params
    state = FockVector.fiducial(config.nu_a, config.nu_b)
    for energy in sorted(solution.energies):
        state = apply_pair_factor(state, energy, params.eta).normalize()
    if state.n != params.n:
        raise InvalidArgumentError(
            f"solution generates {state.n}-quantum states but params describe {params.n}"
        )
    return FockVector(state.n, state.parity, canonical_sign(state.amps))


def extend_state(
    psi: FockVector, energy: float, config: SectorConfig, params: ModelParams
) -> FockVector:
    """Closed-form normalized (M+1)-level state from an M-level one.

    Valid in the W = 0, nu_a = nu_b regime, where eta = -1: with ladder
    helpers w(j,i) = 2M + nu - 2j + i and x(j,i) = nu + 2j + i the new
    amplitudes are d_j sqrt(w(j,1) w(j,2))/(E-1) shifted into slot j plus
    d_j sqrt(x(j,1) x(j,2))/(E+1) into slot j+1, divided by the norm
    gamma^(1/2).  Must agree with apply_pair_factor plus normalization.
    """
    if params.w != 0.0 or config.nu_a != config.nu_b:
        raise UnsupportedRegimeError("closed-form extension requires W = 0 and nu_a = nu_b")
    nu = config.nu_a
    if psi.parity != nu or psi.n != 2 * config.m + 2 * nu:
        raise InvalidArgumentError(
            f"input must be an M-level state over fiducial |{nu},{nu}>, got "
            f"({psi.n} quanta, parity {psi.parity}) for M = {config.m}"
        )
    if abs(energy - 1.0) < _POLE_GUARD or abs(energy + 1.0) < _POLE_GUARD:
        raise SingularityError(f"pair energy {energy:.6g} sits on a pole (eta = -1)")
    m = config.m
    d = psi.amps
    j = np.arange(m + 1)

    def w(i):
        return 2 * m + nu - 2 * j + i

    def x(i):
        return nu + 2 * j + i

    lower = d * np.sqrt(w(1) * w(2)) / (energy - 1.0)
    upper = d * np.sqrt(x(1) * x(2)) / (energy + 1.0)
    out = np.zeros(m + 2)
    out[:-1] = lower
    out[1:] += upper
    gamma = float(np.sum(lower**2) + np.sum(upper**2) + 2.0 * np.sum(lower[1:] * upper[:-1]))
    return FockVector(psi.n + 2, nu, out / np.sqrt(gamma))
