"""Frozen reference values backing the bundled self-checks.

The seven-particle and twenty-particle instances at V = 3/4, W = 1/2, plus
closed forms: the two- and three-particle eigenpairs, the decoupled W = 0
pair energies, and the literal product-form circuit outputs for up to five
gate pairs.  The closed forms are cross-checked against exact
diagonalization by the test suite, so they serve as independent oracles for
the solver and the circuits.  Every value here backs a ``lmg verify`` check;
oracles that only the tests read live with the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .model import make_params

# ---------------------------------------------------------------------------
# Seven particles, V = 0.75, W = 0.5: ground sector (M, nu_a, nu_b) = (3, 1, 0)
# ---------------------------------------------------------------------------

N7 = dict(n=7, v=0.75, w=0.5)
# Ground-state pair energies, ascending (6 significant figures).
N7_PAIRONS = (0.701066, 1.33363, 1.94591)
N7_ENERGY = -3.34051529181
# Ladder amplitudes on |7-2k, 2k>, k = 0..3, in the gauge with the last
# support component positive (the raw pair-factor product lands there).
N7_STATE = (-0.982953, 0.18121, -3.08911e-2, 3.40577e-3)
N7_LINEAR_ANGLES = (3.13478, 3.20338, 9.78939)
N7_LOG_ANGLES = (-2.77709, 3.10401, 3.07876)

# ---------------------------------------------------------------------------
# Twenty particles, V = 0.75, W = 0.5: ground sector (10, 0, 0)
# ---------------------------------------------------------------------------

N20 = dict(n=20, v=0.75, w=0.5)
# Ladder amplitudes on |20-2k, 2k>, k = 0..10.  The k = 5 entry is the
# 6-figure rounding agreed on by both diagonalization routes (bosonic
# tridiagonal and the spin-block form).
N20_STATE = (
    0.982094,
    -0.184149,
    0.0389319,
    -7.89635e-3,
    1.47154e-3,
    -2.44413e-4,
    3.49942e-5,
    -4.12631e-6,
    3.72394e-7,
    -2.22883e-8,
    5.73265e-10,
)
N20_LINEAR_ANGLES = (
    3.14159, 3.14159, 3.14159, 3.14160, 3.14152,
    3.14208, 3.13865, 3.15739, 3.06371, 3.51230,
)
N20_LOG_ANGLES = (
    0.370757, 3.06235, 6.36889, 6.28139, 2.65451e-3,
    6.28019, 3.14055, 9.42478, 3.14159, 9.42478,
)


# ---------------------------------------------------------------------------
# Closed forms for small particle numbers (functions of V, W)
# ---------------------------------------------------------------------------

def n2_pairons(v: float, w: float) -> tuple[float, float]:
    """Single-pair energies of the two-particle model: (eta/2)(V -/+ sqrt(V^2+4)).

    W enters only through eta; the eigenstate coefficients do not depend on
    it at all.
    """
    eta = make_params(2, v, w).eta
    q = math.sqrt(v * v + 4.0)
    return tuple(sorted(((eta / 2) * (v + q), (eta / 2) * (v - q))))


def n2_states(v: float) -> list[tuple[float, np.ndarray]]:
    """Two-particle M = 1 eigenpairs on the ladder (|2,0>, |0,2>), ground first.

    Energies are W/2 -/+ sqrt(4+V^2)/2; the vectors are gamma_j-normalized
    with gamma_j = (1 + ((-2 + (-1)^j sqrt(4+V^2))/V)^2)^(-1/2).  The W shift
    is omitted here (pass it in via the energy when needed); coefficients are
    exactly W-independent.
    """
    q = math.sqrt(4.0 + v * v)
    gamma1 = (1.0 + ((2.0 + q) / v) ** 2) ** -0.5
    gamma2 = (1.0 + ((2.0 - q) / v) ** 2) ** -0.5
    ground = gamma1 * np.array([-(2.0 + q) / v, 1.0])
    excited = gamma2 * np.array([(2.0 - q) / v, -1.0])
    return [(-q / 2.0, ground), (q / 2.0, excited)]


def n3_f_factors(v: float, w: float) -> tuple[float, float]:
    """The discriminant pair F_-/F_+ = sqrt(9 + 3V^2 -/+ 6W + W^2)."""
    return (
        math.sqrt(9.0 + 3.0 * v * v - 6.0 * w + w * w),
        math.sqrt(9.0 + 3.0 * v * v + 6.0 * w + w * w),
    )


def n3_states(v: float, w: float) -> dict[tuple[int, int], list[tuple[float, np.ndarray]]]:
    """Three-particle eigenpairs keyed by fiducial (nu_a, nu_b), ascending.

    Sector (0,1) lives on (|2,1>, |0,3>) with energies 1/2 + 5W/6 -/+ F_-/3;
    sector (1,0) lives on (|3,0>, |1,2>) with energies -1/2 + 5W/6 -/+ F_+/3.
    """
    f_minus, f_plus = n3_f_factors(v, w)
    root3 = math.sqrt(3.0)

    def normalized(coef: float) -> np.ndarray:
        gamma = (1.0 + coef * coef) ** -0.5
        return gamma * np.array([coef, 1.0])

    out = {
        (0, 1): [
            (0.5 + 5 * w / 6 - f_minus / 3, normalized((-3 + w - f_minus) / (root3 * v))),
            (0.5 + 5 * w / 6 + f_minus / 3, normalized((-3 + w + f_minus) / (root3 * v))),
        ],
        (1, 0): [
            (-0.5 + 5 * w / 6 - f_plus / 3, normalized(-(3 + w + f_plus) / (root3 * v))),
            (-0.5 + 5 * w / 6 + f_plus / 3, normalized((-3 - w + f_plus) / (root3 * v))),
        ],
    }
    return out


def w0_pairons(v: float, n: int, nu: int) -> tuple[float, float]:
    """The decoupled W = 0 pair energies on fiducial |nu, nu>, ascending.

    Both are roots of E^2 + 2V(1+2nu) E / N - 1 = 0, so their product is -1.
    With N = 2 + 2nu they are the two single-pair (M = 1) solution sets; with
    N = 4 + 2nu they form one two-pair (M = 2) solution set, whose coupled
    term cancels.  For N = 4, nu = 0 this reads E = (-V -/+ sqrt(V^2 + 16))/4.
    """
    sq = math.sqrt(v * v * (1 + 2 * nu) ** 2 + n * n)
    return ((-v * (1 + 2 * nu) - sq) / n, (-v * (1 + 2 * nu) + sq) / n)


# ---------------------------------------------------------------------------
# Literal product-form circuit outputs (one-hot amplitudes, k = 0..M)
# ---------------------------------------------------------------------------

def _half(thetas):
    s = [math.sin(t / 2.0) for t in thetas]
    c = [math.cos(t / 2.0) for t in thetas]
    return s, c


def linear_product_form(m: int, thetas) -> np.ndarray:
    """Output amplitudes of the linear-depth circuit for M = 0..5."""
    if m != len(thetas) or m > 5:
        raise ValueError("product forms are tabulated for M = len(thetas) <= 5")
    if m == 0:
        return np.array([1.0])
    s, c = _half(thetas)
    if m == 1:
        row = [s[0], c[0]]
    elif m == 2:
        row = [s[0] * s[1], s[0] * c[1], c[0]]
    elif m == 3:
        row = [s[0] * s[1] * s[2], s[0] * s[1] * c[2], s[0] * c[1], c[0]]
    elif m == 4:
        row = [
            s[0] * s[1] * s[2] * s[3],
            s[0] * s[1] * s[2] * c[3],
            s[0] * s[1] * c[2],
            s[0] * c[1],
            c[0],
        ]
    else:
        row = [
            s[0] * s[1] * s[2] * s[3] * s[4],
            s[0] * s[1] * s[2] * s[3] * c[4],
            s[0] * s[1] * s[2] * c[3],
            s[0] * s[1] * c[2],
            s[0] * c[1],
            c[0],
        ]
    return np.array(row)


def log_product_form(m: int, thetas) -> np.ndarray:
    """Output amplitudes of the logarithmic-depth circuit for M = 0..5."""
    if m != len(thetas) or m > 5:
        raise ValueError("product forms are tabulated for M = len(thetas) <= 5")
    if m == 0:
        return np.array([1.0])
    s, c = _half(thetas)
    if m == 1:
        row = [s[0], c[0]]
    elif m == 2:
        row = [c[0] * s[1], s[0], c[0] * c[1]]
    elif m == 3:
        row = [s[0] * s[2], c[0] * s[1], s[0] * c[2], c[0] * c[1]]
    elif m == 4:
        row = [
            c[0] * c[1] * s[3],
            s[0] * s[2],
            c[0] * s[1],
            s[0] * c[2],
            c[0] * c[1] * c[3],
        ]
    else:
        row = [
            s[0] * c[2] * s[4],
            c[0] * c[1] * s[3],
            s[0] * s[2],
            c[0] * s[1],
            s[0] * c[2] * c[4],
            c[0] * c[1] * c[3],
        ]
    return np.array(row)
