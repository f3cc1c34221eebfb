"""Independent brute-force oracles shared across the test suite.

These rebuild the physics from raw operator matrix elements over the full
(N+1)-dimensional two-mode basis, with no code shared with the package's
ladder representation, spell the measurement groups out as Pauli strings
and term by term, and keep the scan-based sparse simulator the indexed one
must match and the copy-based dense simulator the in-place one must match.
They also hold the closed forms and instances that only the tests read:
the single-pair quadratic, the W = 0 one-step state extension, a hyperbolic
instance with non-real pair energies, and the N = 7 circuit energy at the
six-figure reference angles.  Then comes the per-level Bethe solve (seed,
damped Newton, validation, one exact level at a time) that the batched
``lmg.bethe.solve_levels`` must match bit for bit, the dict and
``json.dumps`` circuit exporter whose bytes ``lmg.export_circuit`` must write,
and last the paper's closed-form hyperspherical angles, which
``lmg.linear_angles`` must match mod 4 pi.
"""

import json
import math

import numpy as np

from lmg import (
    ComplexPaironsError,
    FockVector,
    InvalidArgumentError,
    Level,
    LmgError,
    ModelParams,
    NumericFailureError,
    SectorConfig,
    SingularityError,
    SpectralSolution,
    UnsupportedRegimeError,
    bethe,
)

# Energy of the linear circuit run at the 6-figure lmg.reference.N7_LINEAR_ANGLES.
N7_LINEAR_ENERGY = -3.34051529185

# A hyperbolic instance whose spectrum includes states with non-real pair
# energies, used to exercise the complex-pairon error path.
HYPERBOLIC_COMPLEX = dict(n=10, v=0.5921, w=-1.6233)


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


def outcomes_by_terms(group, weights) -> tuple[np.ndarray, np.ndarray]:
    """A group's measurement values and probabilities, built term by term.

    The Z family reads |w_k|^2 with value d_k.  Each bond (k, t) gives
    outcomes +t and -t with probabilities |w_k +- w_(k+1)|^2 / 2, in that
    order; the positions no bond covers follow with value 0.
    """
    probs_all = np.abs(weights) ** 2
    if group.label == "z":
        values = np.zeros(group.size)
        for k, d in group.terms:
            values[k] = d
        return values, probs_all
    values, probs = [], []
    covered = np.zeros(group.size, dtype=bool)
    for k, strength in group.terms:
        plus = (weights[k] + weights[k + 1]) / np.sqrt(2)
        minus = (weights[k] - weights[k + 1]) / np.sqrt(2)
        values.extend([strength, -strength])
        probs.extend([abs(plus) ** 2, abs(minus) ** 2])
        covered[k] = covered[k + 1] = True
    for k in np.flatnonzero(~covered):
        values.append(0.0)
        probs.append(probs_all[k])
    return np.asarray(values), np.asarray(probs)


def scan_run_sparse(circ, amps: dict) -> dict:
    """Sparse gate application that scans the whole map for each gate's entries.

    The package's simulator indexes its map by set bit instead; both must give
    the same keys, in the same order, with the same amplitude bits.  ``x``
    rebuilds the map, the rest update it in place, and a rotation creates the
    partner of a lone entry as an explicit zero.
    """
    n = circ.num_qubits
    state = dict(amps)
    for gate in circ.gates:
        t_mask = 1 << (n - gate.target)
        if gate.kind == "x":
            state = {basis ^ t_mask: amp for basis, amp in state.items()}
            continue
        c_mask = 0 if gate.control is None else 1 << (n - gate.control)
        active = [basis for basis in state if basis & c_mask == c_mask]
        if gate.kind == "cx":
            state.update({basis ^ t_mask: state.pop(basis) for basis in active})
            continue
        cos, sin = float(np.cos(gate.angle / 2)), float(np.sin(gate.angle / 2))
        for low in dict.fromkeys(basis & ~t_mask for basis in active):
            high = low | t_mask
            a0, a1 = state.get(low, 0.0), state.get(high, 0.0)
            # accumulate from 0.0 so an exact-zero result is +0.0, never -0.0
            state[low] = 0.0 + cos * a0 - sin * a1
            state[high] = 0.0 + sin * a0 + cos * a1
    return state


def copy_run_dense(circ, amps: np.ndarray) -> np.ndarray:
    """Dense gate application that copies both halves of the state for each gate.

    The package's simulator updates amplitude pairs in place instead; both
    must give the same amplitude bits.  ``x`` flips the tensor along its
    target axis, and a rotation writes cos*low - sin*high and
    sin*low + cos*high from copies of the two halves.
    """
    n = circ.num_qubits

    def pinned(assignments: dict) -> tuple:
        idx: list = [slice(None)] * n
        for qubit, value in assignments.items():
            idx[qubit - 1] = value
        return tuple(idx)

    psi = amps.reshape((2,) * n).copy()
    for gate in circ.gates:
        t = gate.target
        if gate.kind == "x":
            psi = np.flip(psi, axis=t - 1)
            continue
        pin = {} if gate.control is None else {gate.control: 1}
        i0, i1 = pinned({**pin, t: 0}), pinned({**pin, t: 1})
        low, high = psi[i0].copy(), psi[i1].copy()
        if gate.kind == "cx":
            psi[i0], psi[i1] = high, low
            continue
        cos, sin = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        psi[i0] = cos * low - sin * high
        psi[i1] = sin * low + cos * high
    return psi.reshape(-1)


def unscaled_sampled_expectation(psi, groups, shots: int, seed: int) -> tuple[float, float]:
    """Finite-shot <H> and standard error, summed in the outcome values' own units.

    The package's estimator sums in units of a power of two so that squared
    spreads cannot overflow; on any instance where nothing overflows, both
    must give the same bits.
    """
    weights = psi.one_hot_block()
    weights = weights / np.sqrt(np.sum(np.abs(weights) ** 2))
    rng = np.random.default_rng(seed)
    estimate = 0.0
    variance = 0.0
    for group in groups:
        values, probs = group.outcomes(weights)
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        mean = float(counts @ values) / shots
        estimate += mean
        if shots > 1:
            spread = float(counts @ (values - mean) ** 2) / (shots - 1)
            variance += spread / shots
    return estimate, float(np.sqrt(variance))


def single_pair_pairons(config: SectorConfig, params: ModelParams) -> tuple[float, float]:
    """Both roots of the single-pair quadratic of an M = 1 sector, ascending.

    Clearing denominators of the M = 1 pair-energy equation gives
    A E^2 + B E + C = 0 with A = 1 - eta g s (nu_a - nu_b),
    B = -2 eta V (1 + nu_a + nu_b)/N, C = -eta^2 - eta g (nu_a - nu_b).
    """
    nu_a, nu_b = config.nu_a, config.nu_b
    g, eta, s, v, n = params.g, params.eta, params.s, params.v, params.n
    a = 1.0 - eta * g * s * (nu_a - nu_b)
    b = -2.0 * eta * v * (1 + nu_a + nu_b) / n
    c = -eta * eta - eta * g * (nu_a - nu_b)
    sq = math.sqrt(b * b - 4.0 * a * c)
    return tuple(sorted(((-b - sq) / (2 * a), (-b + sq) / (2 * a))))


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
    if abs(energy - 1.0) < 1e-10 or abs(energy + 1.0) < 1e-10:
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


def level_pairons(vec: np.ndarray, weights: np.ndarray, params: ModelParams) -> np.ndarray:
    """Candidate pair energies from one exact eigenvector's ladder amplitudes.

    ``np.roots`` of the one vector's Moebius polynomial, mapped back to
    sorted real energies; raises the level's error: ComplexPaironsError for
    a non-real root in the hyperbolic regime, else NumericFailureError.
    """
    m = vec.size - 1
    with np.errstate(all="ignore"):
        scaled = vec / weights
        if abs(scaled[0]) >= abs(scaled[-1]):
            elem = scaled / scaled[0]
            sign = 1.0
        else:
            elem = scaled[::-1] / scaled[-1]
            sign = -1.0
    if not np.all(np.isfinite(elem)):
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


def level_newton(start, config: SectorConfig, params: ModelParams) -> np.ndarray:
    """Damped Newton polish of one seed, on one-row stacks of the package's kernels.

    Reads ``bethe.TOL``, ``bethe.MAX_ITERATIONS`` and ``bethe._jacobian`` at
    call time, and decides singular sets with the one-set
    ``bethe._singularity``, so a patched kernel acts here as it does in the
    batched solver.
    """
    def residual_of(e):
        return bethe._residual_raw(e[None], config, params)[0]

    e = np.array(start, dtype=float)
    with np.errstate(all="ignore"):
        if np.all(np.isfinite(e)) and not bethe._singularity(e, params.eta):
            res = residual_of(e)
            for _ in range(bethe.MAX_ITERATIONS):
                rmax = np.max(np.abs(res), initial=0.0)
                if rmax <= bethe.TOL:
                    return np.sort(e)
                if not rmax <= 1e8:
                    break
                try:
                    step = np.linalg.solve(bethe._jacobian(e[None], config, params)[0], res)
                except np.linalg.LinAlgError:
                    break
                if not np.all(np.isfinite(step)):
                    break
                best = res @ res
                lam = 1.0
                for _ in range(12):
                    trial = e - lam * step
                    if not bethe._singularity(trial, params.eta):
                        trial_res = residual_of(trial)
                        if np.all(np.isfinite(trial_res)) and trial_res @ trial_res < best:
                            e, res = trial, trial_res
                            break
                    lam *= 0.5
                else:
                    break
            if np.max(np.abs(res), initial=0.0) <= bethe.TOL:
                return np.sort(e)
    raise NumericFailureError(f"damped Newton left a residual above {bethe.TOL:g}")


def solve_level(index, omega, vector, weights, config, params) -> Level:
    """One exact level's outcome, solved on its own: seed, polish, eigenvalue, match."""
    try:
        solved = level_newton(level_pairons(vector, weights, params), config, params)
        found = bethe.eigenvalue(solved, config, params)
        if abs(found - omega) > bethe.MATCH_TOL:
            raise NumericFailureError(
                f"the set polished onto omega={found:.12g}, not level {index}"
            )
    except LmgError as exc:
        return Level(index, omega, vector, error=exc)
    rn = float(np.max(np.abs(bethe._residual_raw(solved[None], config, params)[0]), initial=0.0))
    energies = tuple(float(x) for x in solved)
    return Level(index, omega, vector, SpectralSolution(config, params, energies, found, rn, index))


def dumps_circuit(circ) -> str:
    """The circuit's JSON as ``json.dumps`` writes it from one dict per gate."""
    gates = []
    for kind, target, control, angle in circ.gates:
        entry = {"kind": kind, "target": target}
        if angle is not None:
            entry["angle"] = angle
        if control is not None:
            entry["control"] = control
        gates.append(entry)
    payload = {"num_qubits": circ.num_qubits, "gates": gates, "layers": circ.layers}
    return json.dumps(payload, sort_keys=True)


def closed_form_linear_angles(target) -> tuple[float, ...]:
    """The paper's hyperspherical angles for the linear-depth circuit, in O(M^2).

    With unit coefficients c_1..c_{M+1} (c_j on one-hot integer 2^(j-1)) and
    partial norms q = c_{M+2-j} / sqrt(sum_{k<=M+2-j} c_k^2), the angles are
    2 arccos(q) for j < M and the full-circle branch
    2 sgn(c_1)(arccos(q) - pi) + 2 pi at j = M.  Levels whose partial norm
    vanishes get theta = 0.  Each norm is summed afresh, and arccos is
    ill-conditioned near q = +-1, so the state these angles reach can miss
    a target with tiny amplitudes by far more than rounding.
    """
    c = np.asarray(target, dtype=float)
    m = c.size - 1
    thetas = [0.0] * m
    for j in range(1, m + 1):
        top = m + 2 - j  # 1-based coefficient index
        den = math.sqrt(float(c[:top] @ c[:top]))
        if den == 0.0:
            continue
        q = min(1.0, max(-1.0, float(c[top - 1]) / den))
        if j < m:
            thetas[j - 1] = 2.0 * math.acos(q)
        else:
            sign = -1.0 if c[0] < 0 else 1.0
            thetas[j - 1] = 2.0 * sign * (math.acos(q) - math.pi) + 2.0 * math.pi
    return tuple(thetas)
