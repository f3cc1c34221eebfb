"""Independent brute-force oracles shared across the test suite.

These rebuild the physics from raw operator matrix elements over the full
(N+1)-dimensional two-mode basis, with no code shared with the package's
ladder representation, and spell the measurement groups out as Pauli strings.
"""

import math

import numpy as np


def dense_hamiltonian(n: int, v: float, w: float) -> np.ndarray:
    """Full H over |n_a, n_b> = |n-j, j>, j = 0..n, from raw matrix elements."""
    dim = n + 1
    ham = np.zeros((dim, dim))
    for j in range(dim):
        na, nb = n - j, j
        ham[j, j] = (nb - na) / 2 + (w / n) * ((na + nb) / 2 + na * nb)
        if nb >= 2:  # a+a+bb : |na,nb> -> |na+2, nb-2>
            ham[j - 2, j] += (v / (2 * n)) * math.sqrt((na + 1) * (na + 2) * nb * (nb - 1))
        if na >= 2:  # b+b+aa : |na,nb> -> |na-2, nb+2>
            ham[j + 2, j] += (v / (2 * n)) * math.sqrt((nb + 1) * (nb + 2) * na * (na - 1))
    return ham


def embed_ladder(amps, n: int, parity: int) -> np.ndarray:
    """Lift ladder amplitudes onto the full |n-j, j> basis (index j = n_b)."""
    full = np.zeros(n + 1)
    for k, a in enumerate(amps):
        full[parity + 2 * k] = a
    return full


def pair_product_state(energies, nu_a: int, nu_b: int, eta: float) -> np.ndarray:
    """Unnormalized ladder amplitudes of the stacked pair-creation product.

    Expands prod_l [ (a+)^2/(E_l+eta) + (b+)^2/(E_l-eta) ] |nu_a, nu_b> by
    direct summation over which factors take the b branch.
    """
    m = len(energies)
    amps = np.zeros(m + 1)
    for subset in range(2**m):
        k = bin(subset).count("1")
        coeff = 1.0
        for l in range(m):
            if subset >> l & 1:
                coeff /= energies[l] - eta
            else:
                coeff /= energies[l] + eta
        amps[k] += coeff
    for k in range(m + 1):
        lift = math.sqrt(
            math.factorial(nu_a + 2 * (m - k))
            / math.factorial(nu_a)
            * math.factorial(nu_b + 2 * k)
            / math.factorial(nu_b)
        )
        amps[k] *= lift
    return amps


def rayleigh(ham: np.ndarray, vec: np.ndarray) -> float:
    return float(vec @ ham @ vec / (vec @ vec))


def pauli_terms(group) -> list[tuple[str, float]]:
    """A measurement group as explicit Pauli strings (qubit 1 = leftmost character).

    Ladder position k lives on qubit size-k, so |2^k> has its set bit at
    string index size-1-k.  The Z family is sum_k d_k (I - Z_k)/2; each
    bond contributes (t/2)(X X + Y Y) on its two wires.
    """
    def slot(position: int) -> int:
        return group.size - 1 - position

    terms: list[tuple[str, float]] = []
    if group.label == "z":
        constant = sum(d for _, d in group.terms) / 2.0
        if constant:
            terms.append(("I" * group.size, constant))
        for k, d in group.terms:
            label = ["I"] * group.size
            label[slot(k)] = "Z"
            terms.append(("".join(label), -d / 2.0))
        return terms
    for k, strength in group.terms:
        for op in ("X", "Y"):
            label = ["I"] * group.size
            label[slot(k)] = op
            label[slot(k + 1)] = op
            terms.append(("".join(label), strength / 2.0))
    return terms
