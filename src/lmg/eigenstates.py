"""Build exact LMG eigenstates by stacking two-mode pair-creation factors.

Applying the operator  (a+)^2/(E + eta) + (b+)^2/(E - eta)  once per
spectral parameter to a fiducial state |nu_a, nu_b> produces an
(unnormalized) eigenstate whose ladder support has exactly M+1 points.
The factors commute, so the result is independent of application order.
The W = 0 closed form of one such step, ``extend_state``, lives in
:mod:`lmg.reference` as an oracle for :func:`apply_pair_factor`.
"""

from __future__ import annotations

import numpy as np

from .bethe import SpectralSolution
from .errors import InvalidArgumentError, SingularityError
from .model import FockVector, canonical_sign

__all__ = ["apply_pair_factor", "build_eigenstate"]

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

