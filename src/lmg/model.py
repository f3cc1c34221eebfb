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


def _is_count(value) -> bool:
    """True for an int or numpy integer; bool (an int subclass) excluded."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _finite_reals(values, what: str) -> np.ndarray:
    """``values`` as a new float array; the package's one rule for real inputs.

    Each value must be a Python or numpy int or float, not a bool, and finite
    (an int beyond the float range is not).  A 1-D ndarray is judged by its
    dtype (kind f, i or u), any other iterable by each distinct item type.
    Raises InvalidArgumentError: "<what> must be a sequence / must be real
    numbers, got ... / must be finite".
    """
    real = (int, float, np.integer, np.floating)
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if values.dtype.kind not in "fiu":
            raise InvalidArgumentError(f"{what} must be real numbers, got a {values.dtype} array")
    else:
        try:
            values = tuple(values)
        except TypeError:
            raise InvalidArgumentError(f"{what} must be a sequence, got {values!r}") from None
        kinds = set(map(type, values))  # one check per type, not per item
        if bool in kinds or not all(issubclass(kind, real) for kind in kinds):
            bad = next(x for x in values if type(x) is bool or not isinstance(x, real))
            raise InvalidArgumentError(f"{what} must be real numbers, got {bad!r}")
    try:
        array = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise InvalidArgumentError(f"{what} must be finite") from None
    if np.count_nonzero(np.isfinite(array)) < array.size:  # faster than .all() on short arrays
        raise InvalidArgumentError(f"{what} must be finite")
    return array


def make_params(n: int, v: float, w: float) -> ModelParams:
    """Build a ModelParams, deriving g, eta and the regime sign s.

    Raises InvalidArgumentError for an n that is not a positive int or numpy
    integer, or a coupling that is not a finite int or float (a bool is
    refused as either).  The regime is decided from |V| and |W|, not from
    their squares, which overflow or underflow at extreme couplings.  The
    rational case |V| = |W| is constructed with s = 0 and NaN g/eta; only
    exact diagonalization works there.
    """
    if not _is_count(n) or n < 1:
        raise InvalidArgumentError(f"particle number must be a positive integer, got {n!r}")
    v, w = _finite_reals((v, w), "couplings").tolist()
    s = (abs(v) > abs(w)) - (abs(v) < abs(w))
    if s == 0:
        return ModelParams(n=int(n), v=v, w=w, g=math.nan, eta=math.nan, s=0)
    eta = -math.sqrt((v + w) / (s * (v - w)))
    g = eta * (w - v) / n
    return ModelParams(n=int(n), v=v, w=w, g=g, eta=eta, s=s)


@dataclass(frozen=True)
class SectorConfig:
    """One (M, nu_a, nu_b) block: M pair excitations on the fiducial |nu_a, nu_b>.

    Each count is an int or numpy integer (not a bool), M >= 0 and nu_a, nu_b
    in {0, 1}; anything else raises InvalidArgumentError.
    """

    m: int
    nu_a: int
    nu_b: int

    def __post_init__(self):
        if (
            not all(map(_is_count, (self.m, self.nu_a, self.nu_b)))
            or self.m < 0
            or self.nu_a not in (0, 1)
            or self.nu_b not in (0, 1)
        ):
            raise InvalidArgumentError(f"invalid sector ({self.m}, {self.nu_a}, {self.nu_b})")

    @property
    def n(self) -> int:
        return 2 * self.m + self.nu_a + self.nu_b

    @property
    def parity(self) -> int:
        """Conserved n_b parity of every state in this sector."""
        return self.nu_b


def _check_sector(config: SectorConfig, params: ModelParams) -> None:
    """Raise InvalidArgumentError unless ``config`` holds the ``params.n`` particles."""
    if config.n != params.n:
        raise InvalidArgumentError(
            f"sector describes {config.n} particles, params describe {params.n}"
        )


def sector_configs(n: int) -> list[SectorConfig]:
    """All sectors of an N-particle instance.

    Even N splits into (N/2, 0, 0) and (N/2 - 1, 1, 1); odd N into
    ((N-1)/2, 0, 1) and ((N-1)/2, 1, 0).  The sector sizes M+1 sum to N+1.
    An n that is not a positive int or numpy integer raises InvalidArgumentError.
    """
    if not _is_count(n) or n < 1:
        raise InvalidArgumentError(f"particle number must be a positive integer, got {n!r}")
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
    Raises InvalidArgumentError when the block's Gershgorin bound
    max_k (|d_k| + |t_(k-1)| + |t_k|) overflows to infinity.
    """
    na, nb = ladder_occupations(params.n, parity)
    with np.errstate(over="ignore"):
        diag = (nb - na) / 2 + (params.w / params.n) * ((na + nb) / 2 + na * nb)
        hop = (params.v / (2 * params.n)) * np.sqrt(
            na[:-1] * (na[:-1] - 1) * (nb[:-1] + 1) * (nb[:-1] + 2)
        )
        edges = np.abs(np.concatenate(([0.0], hop, [0.0])))
        bound = np.max(np.abs(diag) + edges[:-1] + edges[1:])
    if not np.isfinite(bound):
        raise InvalidArgumentError(
            f"Hamiltonian block of N={params.n}, V={params.v!r}, W={params.w!r} overflows: "
            "its Gershgorin bound is not finite"
        )
    diag.flags.writeable = False
    hop.flags.writeable = False
    return diag, hop


def _scaled_squares(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``w``, ``|w|^2`` and its sums over the last axis, for one state or a 2-D array of rows.

    A row whose sum is not a positive, finite, normal number is first scaled by 2^-e
    (exact), e the binary exponent of its largest real or imaginary part; no other row moves.
    """
    with np.errstate(over="ignore", under="ignore"):
        probs = np.abs(w) ** 2
        weight = probs.sum(axis=-1)
        odd = ~(np.isfinite(weight) & (weight >= np.finfo(float).tiny))
        if odd.any():
            parts = np.ascontiguousarray(w, dtype=np.result_type(w, float)).view(float)
            e = np.frexp(np.abs(parts).max(axis=-1, keepdims=True, initial=0.0))[1]
            w = np.where(odd[..., None], np.ldexp(parts, -e), parts).view(np.result_type(w, float))
            probs = np.abs(w) ** 2
            weight = probs.sum(axis=-1)
    return w, probs, weight


def ladder_energy(w: np.ndarray, params: ModelParams, parity: int) -> float | np.ndarray:
    """<H> of (real or complex) ladder amplitudes ``w``, over their weight.

    Evaluates the tridiagonal block directly:
    sum_k d_k |w_k|^2 + 2 sum_k t_k Re(w_k* w_{k+1}), divided by sum_k |w_k|^2.
    ``w`` is one state, giving a float, or a 2-D array with one state per
    row, giving one energy per row; each row's energy has the bits of the
    one-state call on that row and of that row times a power of two.
    """
    diag, hop = ladder_matrix(params, parity)
    w, probs, weight = _scaled_squares(np.asarray(w))
    if not np.all(weight):
        raise InvalidArgumentError("state has no weight on the ladder")
    value = (diag * probs).sum(axis=-1)
    if hop.size:
        value = value + 2.0 * (hop * (w[..., :-1].conj() * w[..., 1:]).real).sum(axis=-1)
    energy = value / weight
    return float(energy) if energy.ndim == 0 else energy


@dataclass(frozen=True)
class FockVector:
    """Real amplitudes over one parity ladder of the two-mode Fock space.

    Entry k is the coefficient of |n - parity - 2k, parity + 2k>, so the
    array spans the whole conserved-parity block of an n-quantum state:
    the ladder of the sector :attr:`sector`.  ``n`` and ``parity`` are ints or
    numpy integers (not bools) and ``amps`` finite reals, else
    InvalidArgumentError.
    """

    n: int
    parity: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (_is_count(self.n) and _is_count(self.parity)):
            raise InvalidArgumentError(
                f"quanta and parity must be integers, got ({self.n!r}, {self.parity!r})"
            )
        if self.parity not in (0, 1) or self.n < self.parity:
            raise InvalidArgumentError(f"bad quanta/parity pair ({self.n}, {self.parity})")
        amps = _finite_reals(self.amps, "amplitudes")
        expected = (self.n - self.parity) // 2 + 1
        if amps.size != expected:
            raise InvalidArgumentError(
                f"amplitude array must have length {expected}, got {amps.size}"
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
    _check_sector(config, params)
    diag, hop = ladder_matrix(params, config.parity)
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(hop, 1) + np.diag(hop, -1))
    for j in range(vals.size):
        vecs[:, j] = canonical_sign(vecs[:, j])
    return vals, vecs
