"""Two-mode bosonic form of the Lipkin-Meshkov-Glick (LMG) model.

The model describes N particles distributed over two levels separated by a
unit energy gap, with interaction strengths V and W.  In the Schwinger-boson
picture the Hamiltonian acts on states |n_a, n_b> with n_a + n_b = N:

    H = (n_b - n_a)/2 + (V/2N) (b+b+aa + a+a+bb) + (W/N) ((n_a+n_b)/2 + n_a n_b)

Only the parity of n_b is conserved, so H splits into two real symmetric
tridiagonal blocks.  This module holds the parameter bookkeeping, the ladder
representation of states inside one parity block, the Hamiltonian action, and
the exact diagonalization used to validate everything else.  Each block is
diagonalized densely by ``numpy.linalg.eigh``: O(N^3), about 1 s at N = 4000.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "ModelParams",
    "SectorConfig",
    "FockVector",
    "make_params",
    "sector_configs",
    "apply_hamiltonian",
    "exact_spectrum",
    "sector_spectrum",
    "expectation",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical instance: particle number, couplings, and derived quantities.

    ``s`` is the sign of V^2 - W^2 (+1 trigonometric, -1 hyperbolic,
    0 rational).  ``g`` and ``eta`` parameterize the pair-energy equations;
    they satisfy g = eta (W - V) / N, which fixes the square-root branches so
    that g -> V/N and eta -> -1 in the W = 0 limit for either sign of V.
    In the rational case (V^2 = W^2) both are undefined and stored as NaN.
    """

    n: int
    v: float
    w: float
    g: float
    eta: float
    s: int

    @property
    def rational(self) -> bool:
        return self.s == 0


def make_params(n: int, v: float, w: float) -> ModelParams:
    """Build a ModelParams, deriving g, eta and the regime sign s.

    Raises InvalidArgumentError for n < 1 or a non-finite coupling.  The
    rational case V^2 = W^2 is constructed with s = 0 and NaN g/eta; only
    exact diagonalization works there.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"particle number must be a positive integer, got {n!r}")
    v = float(v)
    w = float(w)
    if not (math.isfinite(v) and math.isfinite(w)):
        raise InvalidArgumentError(f"couplings must be finite, got V={v!r}, W={w!r}")
    disc = v * v - w * w
    s = (disc > 0) - (disc < 0)
    if s == 0:
        return ModelParams(n=int(n), v=v, w=w, g=math.nan, eta=math.nan, s=0)
    eta = -math.sqrt((v + w) / (s * (v - w)))
    g = eta * (w - v) / n
    return ModelParams(n=int(n), v=v, w=w, g=g, eta=eta, s=s)


@dataclass(frozen=True)
class SectorConfig:
    """One (M, nu_a, nu_b) block: M pair excitations on the fiducial |nu_a, nu_b>."""

    m: int
    nu_a: int
    nu_b: int

    def __post_init__(self):
        if self.m < 0 or self.nu_a not in (0, 1) or self.nu_b not in (0, 1):
            raise InvalidArgumentError(f"invalid sector ({self.m}, {self.nu_a}, {self.nu_b})")

    @property
    def n(self) -> int:
        return 2 * self.m + self.nu_a + self.nu_b

    @property
    def parity(self) -> int:
        """Conserved n_b parity of every state in this sector."""
        return self.nu_b


def sector_configs(n: int) -> list[SectorConfig]:
    """All sectors of an N-particle instance.

    Even N splits into (N/2, 0, 0) and (N/2 - 1, 1, 1); odd N into
    ((N-1)/2, 0, 1) and ((N-1)/2, 1, 0).  The sector sizes M+1 sum to N+1.
    """
    if n < 1:
        raise InvalidArgumentError(f"particle number must be >= 1, got {n!r}")
    if n % 2 == 0:
        return [SectorConfig(n // 2, 0, 0), SectorConfig(n // 2 - 1, 1, 1)]
    return [SectorConfig((n - 1) // 2, 0, 1), SectorConfig((n - 1) // 2, 1, 0)]


def ladder_occupations(n: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupation pairs (n_a, n_b) along one parity ladder, lowest n_b first."""
    size = (n - parity) // 2 + 1
    k = np.arange(size)
    return (n - parity - 2 * k).astype(float), (parity + 2 * k).astype(float)


@functools.lru_cache(maxsize=128)
def ladder_matrix(params: ModelParams, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and sub-diagonal of the Hamiltonian block on one parity ladder.

    Cached per (params, parity), so both arrays are shared and read-only.
    """
    na, nb = ladder_occupations(params.n, parity)
    diag = (nb - na) / 2 + (params.w / params.n) * ((na + nb) / 2 + na * nb)
    hop = (params.v / (2 * params.n)) * np.sqrt(
        na[:-1] * (na[:-1] - 1) * (nb[:-1] + 1) * (nb[:-1] + 2)
    )
    diag.flags.writeable = False
    hop.flags.writeable = False
    return diag, hop


def ladder_energy(w: np.ndarray, params: ModelParams, parity: int) -> float:
    """<H> of (real or complex) ladder amplitudes ``w``, over their weight.

    Evaluates the tridiagonal block directly:
    sum_k d_k |w_k|^2 + 2 sum_k t_k Re(w_k* w_{k+1}), divided by sum_k |w_k|^2.
    """
    diag, hop = ladder_matrix(params, parity)
    probs = np.abs(w) ** 2
    weight = float(np.sum(probs))
    if weight == 0.0:
        raise InvalidArgumentError("state has no weight on the ladder")
    value = float(np.sum(diag * probs))
    if hop.size:
        value += 2.0 * float(np.sum(hop * np.real(np.conj(w[:-1]) * w[1:])))
    return value / weight


@dataclass(frozen=True)
class FockVector:
    """Real amplitudes over one parity ladder of the two-mode Fock space.

    Entry k is the coefficient of |n - parity - 2k, parity + 2k>, so the
    array spans the whole conserved-parity block of an n-quantum state:
    the ladder of the sector :attr:`sector`.
    """

    n: int
    parity: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.parity not in (0, 1) or self.n < self.parity:
            raise InvalidArgumentError(f"bad quanta/parity pair ({self.n}, {self.parity})")
        amps = np.asarray(self.amps, dtype=float).copy()
        expected = (self.n - self.parity) // 2 + 1
        if amps.shape != (expected,):
            raise InvalidArgumentError(
                f"amplitude array must have length {expected}, got shape {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalize(self) -> "FockVector":
        nrm = self.norm
        if nrm == 0.0:
            raise InvalidArgumentError("cannot normalize the zero vector")
        return FockVector(self.n, self.parity, self.amps / nrm)

    @property
    def sector(self) -> SectorConfig:
        """The sector whose ladder the vector spans.

        nu_b = parity and nu_a = (n - parity) mod 2.  The ground sector of an
        instance is ``exact_spectrum(params)[0][1].sector``.
        """
        nu_a = (self.n - self.parity) % 2
        return SectorConfig((self.n - self.parity) // 2, nu_a, self.parity)

    @staticmethod
    def fiducial(nu_a: int, nu_b: int) -> "FockVector":
        """The bare state |nu_a, nu_b> as a one-entry ladder vector."""
        return FockVector(nu_a + nu_b, nu_b, np.ones(1))


def canonical_sign(amps: np.ndarray) -> np.ndarray:
    """Flip the global sign so the largest-magnitude component is positive."""
    lead = amps[np.argmax(np.abs(amps))]
    return -amps if lead < 0 else amps.copy()


def apply_hamiltonian(psi: FockVector, params: ModelParams) -> FockVector:
    """H |psi> on the vector's own parity ladder.  Parity is conserved exactly."""
    if psi.n != params.n:
        raise InvalidArgumentError(
            f"state carries {psi.n} quanta but the Hamiltonian expects {params.n}"
        )
    diag, hop = ladder_matrix(params, psi.parity)
    out = diag * psi.amps
    if hop.size:
        out[:-1] += hop * psi.amps[1:]
        out[1:] += hop * psi.amps[:-1]
    return FockVector(psi.n, psi.parity, out)


def exact_spectrum(params: ModelParams) -> list[tuple[float, FockVector]]:
    """All N+1 eigenpairs from dense diagonalization of the two parity blocks.

    Eigenvalues are in units of the gap, sorted ascending (even parity first
    on a tie); eigenvectors are normalized with the largest-magnitude
    amplitude positive.
    """
    pairs: list[tuple[float, FockVector]] = []
    for config in sector_configs(params.n):
        vals, vecs = sector_spectrum(config, params)
        for val, amps in zip(vals, vecs.T):
            pairs.append((float(val), FockVector(params.n, config.parity, amps)))
    pairs.sort(key=lambda item: (item[0], item[1].parity))
    return pairs


def sector_spectrum(config: SectorConfig, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of one sector's block, ascending.

    Diagonalizes the parity block that the sector lives in, built densely
    from :func:`ladder_matrix` and passed to ``numpy.linalg.eigh`` (O(N^3),
    about 1 s at N = 4000); columns carry the canonical sign.
    """
    if config.n != params.n:
        raise InvalidArgumentError(
            f"sector describes {config.n} particles, params describe {params.n}"
        )
    diag, hop = ladder_matrix(params, config.parity)
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(hop, 1) + np.diag(hop, -1))
    for j in range(vals.size):
        vecs[:, j] = canonical_sign(vecs[:, j])
    return vals, vecs


def expectation(psi: FockVector, params: ModelParams) -> float:
    """<psi| H |psi> in units of the gap.  Requires a normalized state."""
    if psi.n != params.n:
        raise InvalidArgumentError(
            f"state carries {psi.n} quanta but the Hamiltonian expects {params.n}"
        )
    if abs(psi.amps @ psi.amps - 1.0) > 1e-9:
        raise InvalidArgumentError("expectation requires a normalized state")
    return ladder_energy(psi.amps, params, psi.parity)
