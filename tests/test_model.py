"""Model core: parameters, sectors, Hamiltonian action, diagonalization oracle."""

import dataclasses
import math

import numpy as np
import pytest

from lmg import (
    AngleSet,
    FockVector,
    InvalidArgumentError,
    apply_hamiltonian,
    apply_pair_factor,
    build_circuit,
    build_eigenstate,
    eigenvalue,
    exact_spectrum,
    fidelity,
    linear_angles,
    log_angles,
    make_params,
    residual,
    run,
    sector_configs,
    sector_spectrum,
    SectorConfig,
    solve_bethe,
)
from lmg.model import ladder_energy, ladder_matrix
from oracles import dense_hamiltonian, embed_ladder


def test_make_params_trigonometric():
    p = make_params(2, 0.75, 0.0)
    assert p.s == 1
    assert p.eta == pytest.approx(-1.0, abs=1e-15)
    assert p.g == pytest.approx(0.375, abs=1e-15)


def test_make_params_rational():
    p = make_params(4, 1.0, 1.0)
    assert p.s == 0
    assert p.rational
    assert math.isnan(p.g) and math.isnan(p.eta)


def test_make_params_hyperbolic():
    p = make_params(3, 0.5, 1.0)
    assert p.s == -1
    assert p.eta == pytest.approx(-math.sqrt(3.0), abs=1e-14)
    # magnitude per the definition sqrt((V^2-W^2)/(s N^2)); the sign follows
    # the branch g = eta (W - V) / N that makes the pair equations hold.
    assert abs(p.g) == pytest.approx(math.sqrt(0.75) / 3, abs=1e-14)
    assert p.g == pytest.approx(-math.sqrt(0.75) / 3, abs=1e-14)


def test_make_params_branch_identities():
    # g/eta = -(V-W)/N and g*eta = -s(V+W)/N fix the square-root branches.
    for v, w in [(0.75, 0.5), (1.0, -0.6), (-1.0, 0.2), (0.5, 1.0), (-0.5, -1.3)]:
        p = make_params(5, v, w)
        assert p.g / p.eta == pytest.approx(-(v - w) / 5, rel=1e-12)
        assert p.g * p.eta == pytest.approx(-p.s * (v + w) / 5, rel=1e-12)


@pytest.mark.parametrize("v, w, s", [
    (1e200, 1e199, 1), (-1e200, 1e199, 1), (1e-170, 0.0, 1), (1e-320, 1e-321, 1),
    (1e199, 1e200, -1),
    (1e200, -1e200, 0), (1e-170, 1e-170, 0),
])
def test_make_params_regime_from_magnitudes(v, w, s):
    # V^2 and W^2 overflow to inf or underflow to 0 here; |V| and |W| do not
    assert make_params(4, v, w).s == s


def test_make_params_rejects_bad_n():
    with pytest.raises(InvalidArgumentError):
        make_params(0, 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        make_params(-3, 1.0, 0.0)


@pytest.mark.parametrize("v,w", [(math.nan, 0.5), (math.inf, 0.5), (0.75, -math.inf)])
def test_make_params_rejects_non_finite_couplings(v, w):
    with pytest.raises(InvalidArgumentError, match="finite"):
        make_params(7, v, w)


def test_sector_configs_examples():
    assert [(c.m, c.nu_a, c.nu_b) for c in sector_configs(1)] == [(0, 0, 1), (0, 1, 0)]
    assert [(c.m, c.nu_a, c.nu_b) for c in sector_configs(2)] == [(1, 0, 0), (0, 1, 1)]
    assert [(c.m, c.nu_a, c.nu_b) for c in sector_configs(4)] == [(2, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("n", range(1, 31))
def test_sector_configs_count(n):
    configs = sector_configs(n)
    assert all(2 * c.m + c.nu_a + c.nu_b == n for c in configs)
    assert sum(c.m + 1 for c in configs) == n + 1


def test_fock_vector_validation():
    with pytest.raises(InvalidArgumentError):
        FockVector(4, 0, np.ones(2))  # wrong length
    with pytest.raises(InvalidArgumentError):
        FockVector(4, 2, np.ones(3))  # bad parity
    fv = FockVector(4, 0, np.array([1.0, 0.0, 0.0]))
    assert fv.norm == 1.0
    with pytest.raises(ValueError):
        fv.amps[0] = 2.0  # amplitudes are read-only


def test_fock_vector_sector_is_the_sector_of_its_parity():
    for n in range(1, 41):
        by_parity = {c.parity: c for c in sector_configs(n)}
        for _, state in exact_spectrum(make_params(n, 0.75, 0.5)):
            assert state.sector == by_parity[state.parity]
    for nu_a, nu_b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert FockVector.fiducial(nu_a, nu_b).sector == SectorConfig(0, nu_a, nu_b)


def test_apply_hamiltonian_diagonal_when_v_zero():
    p = make_params(6, 0.0, 0.8)
    for k in range(4):
        amps = np.zeros(4)
        amps[k] = 1.0
        psi = FockVector(6, 0, amps)
        out = apply_hamiltonian(psi, p)
        ratio = out.amps[k]
        assert np.allclose(out.amps, ratio * amps, atol=1e-14)


def test_apply_hamiltonian_n2_example():
    # V=1, W=0: H|2,0> = -|2,0> + 0.5 |0,2>
    p = make_params(2, 1.0, 0.0)
    out = apply_hamiltonian(FockVector(2, 0, np.array([1.0, 0.0])), p)
    assert out.amps == pytest.approx([-1.0, 0.5], abs=1e-15)


def test_apply_hamiltonian_n1_eigenstate():
    for w in (0.0, 0.3, -1.2):
        p = make_params(1, 0.9, w)
        out = apply_hamiltonian(FockVector(1, 0, np.ones(1)), p)
        assert out.amps[0] == pytest.approx((-1 + w) / 2, abs=1e-14)


def test_apply_hamiltonian_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for n in (3, 8, 17, 30):
        v, w = rng.uniform(-1.5, 1.5, 2)
        p = make_params(n, v, w)
        ham = dense_hamiltonian(n, v, w)
        for parity in (0, 1):
            size = (n - parity) // 2 + 1
            amps = rng.standard_normal(size)
            psi = FockVector(n, parity, amps)
            ours = embed_ladder(apply_hamiltonian(psi, p).amps, n, parity)
            theirs = ham @ embed_ladder(amps, n, parity)
            np.testing.assert_allclose(ours, theirs, atol=1e-12)


def test_hermiticity():
    rng = np.random.default_rng(11)
    for n in (5, 12, 30):
        p = make_params(n, *rng.uniform(-1.2, 1.2, 2))
        for parity in (0, 1):
            size = (n - parity) // 2 + 1
            phi = FockVector(n, parity, rng.standard_normal(size))
            psi = FockVector(n, parity, rng.standard_normal(size))
            lhs = phi.amps @ apply_hamiltonian(psi, p).amps
            rhs = apply_hamiltonian(phi, p).amps @ psi.amps
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1, abs(lhs)))


def test_apply_hamiltonian_quanta_mismatch():
    p = make_params(4, 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        apply_hamiltonian(FockVector(6, 0, np.ones(4)), p)


def test_ladder_matrix_is_shared_and_read_only():
    p = make_params(6, 0.9, 0.2)
    diag, hop = ladder_matrix(p, 0)
    again = ladder_matrix(make_params(6, 0.9, 0.2), 0)
    assert again[0] is diag and again[1] is hop
    for arr in (diag, hop):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("v,w", [(1e308, 0.0), (1e308, 1e308), (0.0, 1e308), (-1e308, 0.5)])
def test_ladder_matrix_refuses_a_block_that_overflows(v, w):
    # an infinite entry would turn every level into inf or NaN downstream
    p = make_params(8, v, w)
    for parity in (0, 1):
        with pytest.raises(InvalidArgumentError, match="Gershgorin bound is not finite"):
            ladder_matrix(p, parity)


def test_ladder_matrix_keeps_a_block_inside_the_float_range():
    # N = 400, V = 1e306 has a Gershgorin bound of about 1.005e308
    p = make_params(400, 1e306, 0.5)
    for config in sector_configs(400):
        diag, hop = ladder_matrix(p, config.parity)
        edges = np.abs(np.concatenate(([0.0], hop, [0.0])))
        assert 1e308 < np.max(np.abs(diag) + edges[:-1] + edges[1:]) < np.inf
        assert np.all(np.isfinite(sector_spectrum(config, p)[0]))


def test_exact_spectrum_against_dense_oracle():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 16, 30):
        v, w = rng.uniform(-1.5, 1.5, 2)
        p = make_params(n, v, w)
        pairs = exact_spectrum(p)
        assert len(pairs) == n + 1
        vals = np.array([omega for omega, _ in pairs])
        oracle = np.linalg.eigvalsh(dense_hamiltonian(n, v, w))
        np.testing.assert_allclose(vals, np.sort(oracle), atol=1e-10)
        for omega, state in pairs:
            full = embed_ladder(state.amps, n, state.parity)
            resid = dense_hamiltonian(n, v, w) @ full - omega * full
            assert np.max(np.abs(resid)) < 1e-10
            lead = state.amps[np.argmax(np.abs(state.amps))]
            assert lead > 0  # sign convention


def test_exact_spectrum_trace_identity():
    rng = np.random.default_rng(5)
    for n in (4, 11, 30):
        v, w = rng.uniform(-1.5, 1.5, 2)
        p = make_params(n, v, w)
        total = sum(omega for omega, _ in exact_spectrum(p))
        assert total == pytest.approx(np.trace(dense_hamiltonian(n, v, w)), abs=1e-9)


def test_exact_spectrum_n2_w_independence():
    p0 = make_params(2, 0.75, 0.0)
    vecs0 = [state.amps for omega, state in exact_spectrum(p0) if state.parity == 0]
    for w in (0.3, 1.1, -0.7):
        p = make_params(2, 0.75, w)
        vecs = [state.amps for omega, state in exact_spectrum(p) if state.parity == 0]
        for a, b in zip(vecs0, vecs):
            np.testing.assert_allclose(a, b, atol=1e-12)


def test_sector_spectrum_matches_exact_spectrum():
    p = make_params(9, 0.8, 0.25)
    for config in sector_configs(9):
        vals, vecs = sector_spectrum(config, p)
        block = [
            (omega, state) for omega, state in exact_spectrum(p) if state.parity == config.parity
        ]
        np.testing.assert_allclose(vals, [omega for omega, _ in block], atol=1e-12)
        for j, (_, state) in enumerate(block):
            np.testing.assert_allclose(vecs[:, j], state.amps, atol=1e-12)


@pytest.mark.parametrize("n", [100, 200, 201])
def test_sector_spectrum_large_blocks(n):
    v, w = 0.75, 0.5
    ham = dense_hamiltonian(n, v, w)
    scale = max(1.0, np.linalg.norm(ham, 2))
    p = make_params(n, v, w)
    for config in sector_configs(n):
        vals, vecs = sector_spectrum(config, p)
        size = vals.size
        assert vecs.shape == (size, size)
        assert np.all(np.diff(vals) >= 0)
        assert np.linalg.norm(vecs.T @ vecs - np.eye(size)) <= 1e-12
        for val, amps in zip(vals, vecs.T):
            full = embed_ladder(amps, n, config.parity)
            assert np.linalg.norm(ham @ full - val * full) <= 1e-12 * scale
            assert amps[np.argmax(np.abs(amps))] > 0


def test_expectation_of_eigenvector_is_eigenvalue():
    p = make_params(10, 1.1, 0.4)
    for omega, state in exact_spectrum(p):
        assert ladder_energy(state.amps, p, state.parity) == pytest.approx(omega, abs=1e-11)


def test_expectation_linearity_on_eigenvector_mix():
    p = make_params(8, 0.9, -0.3)
    pairs = [(omega, st) for omega, st in exact_spectrum(p) if st.parity == 0]
    (w1, s1), (w2, s2) = pairs[0], pairs[1]
    mix = FockVector(8, 0, (s1.amps + s2.amps) / np.sqrt(2.0))
    assert ladder_energy(mix.amps, p, mix.parity) == pytest.approx((w1 + w2) / 2, abs=1e-11)


@pytest.mark.parametrize("k", [-600, 600, 900])
def test_ladder_energy_of_rows_scaled_by_a_power_of_two_keeps_its_bits(k):
    # scaled by 2^k, each row's sum of squares under- or overflows; the row is
    # scaled back by a power of two first, so it scores as the unscaled row
    rng = np.random.default_rng(71)
    p = make_params(8, 0.75, 0.5)
    real = rng.uniform(1e-3, 1.0, (6, 5)) * rng.choice((-1.0, 1.0), (6, 5))
    for rows in (real, real + 1j * rng.uniform(-1.0, 1.0, (6, 5))):
        want = ladder_energy(rows, p, 0)
        assert ladder_energy(rows * 2.0**k, p, 0).tobytes() == want.tobytes()
        for row, energy in zip(rows, want):
            assert ladder_energy(row * 2.0**k, p, 0) == energy


def test_ladder_energy_of_huge_and_tiny_states():
    # 1e200 gave NaN after overflow warnings; 1e-170 was refused as weightless
    p = make_params(2, 0.75, 0.5)
    want = ladder_energy(np.array([1.0, 1.0]), p, 0)
    for amp in (1e200, 1e-170, 5e-324, 1e308):
        assert ladder_energy(np.array([amp, amp]), p, 0) == want
    with pytest.raises(InvalidArgumentError, match="no weight"):
        ladder_energy(np.array([[1.0, 1.0], [0.0, 0.0]]), p, 0)


def test_sector_config_n_property():
    c = SectorConfig(3, 1, 0)
    assert c.n == 7 and c.parity == 0
    with pytest.raises(InvalidArgumentError):
        SectorConfig(2, 2, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_params(True, 0.75, 0.5),
        lambda: make_params(7.0, 0.75, 0.5),
        lambda: SectorConfig(1.0, 0, 1),
        lambda: SectorConfig(1, True, False),
        lambda: SectorConfig(1, 0, 1.0),
        lambda: SectorConfig(np.float64(2), 0, 0),
    ],
    ids=["n-bool", "n-float", "m-float", "nu-bool", "nu-float", "m-numpy-float"],
)
def test_counts_must_be_integers(build):
    with pytest.raises(InvalidArgumentError):
        build()
    # numpy integers stay allowed, as plain ints are
    assert make_params(np.int64(7), 0.75, 0.5).n == 7
    assert SectorConfig(np.int64(3), np.int32(1), np.int8(0)).n == 7


_P2 = make_params(2, 0.75, 0.5)  # eta = -sqrt(5): a set [1.0] is off the poles
_SOLUTION = solve_bethe(SectorConfig(1, 0, 0), _P2)[0]
_STATE = run(build_circuit(linear_angles([0.6, 0.8])))

# Every public entry point that takes real numbers, fed one value x to judge:
# a scalar slot takes x itself, a sequence slot of length k the first k of (x, 0.0).
SCALAR_SLOTS = {
    "make_params-v": lambda x: make_params(4, x, 0.5),
    "make_params-w": lambda x: make_params(4, 0.75, x),
    "apply_pair_factor-energy": lambda x: apply_pair_factor(FockVector.fiducial(0, 0), x, -0.5),
    "apply_pair_factor-eta": lambda x: apply_pair_factor(FockVector.fiducial(0, 0), 0.25, x),
}
SEQUENCE_SLOTS = {
    "AngleSet": (lambda xs: AngleSet(xs, "log"), 2),
    "FockVector": (lambda xs: FockVector(2, 0, xs), 2),
    "linear_angles": (linear_angles, 2),
    "log_angles": (log_angles, 2),
    "fidelity": (lambda xs: fidelity(_STATE, xs), 2),
    "residual": (lambda xs: residual(xs, SectorConfig(1, 0, 0), _P2), 1),
    "eigenvalue": (lambda xs: eigenvalue(xs, SectorConfig(1, 0, 0), _P2), 1),
    "build_eigenstate": (lambda xs: build_eigenstate(dataclasses.replace(_SOLUTION, energies=xs)), 1),
}
NOT_FINITE_REALS = ["0.5", True, None, math.nan, math.inf, 1j, 10**400, np.str_("1")]
FINITE_REAL_ONES = [1, np.int64(1), np.float32(1.0), np.float64(1.0)]


def _inputs(x):
    """(slot name, call, input) for every slot, with x as the value judged."""
    for name, call in SCALAR_SLOTS.items():
        yield name, call, x
    for name, (call, k) in SEQUENCE_SLOTS.items():
        yield name, call, [x, 0.0][:k]
        # the array takes x's own dtype: np.array([True, 0.0]) alone would be floats
        yield f"{name}-array", call, np.array([x, 0][:k], dtype=np.asarray(x).dtype)


def _bits(out):
    if isinstance(out, FockVector):
        out = out.amps
    return out.tobytes() if isinstance(out, np.ndarray) else repr(out)


@pytest.mark.parametrize(
    "bad", NOT_FINITE_REALS,
    ids=["str", "bool", "None", "nan", "inf", "complex", "int-1e400", "numpy-str"],
)
def test_every_real_input_refuses_what_is_not_a_finite_real(bad):
    # NaN passed linear_angles, residual, fidelity and FockVector; "0.5" and
    # True passed make_params; None and "abc" raised TypeError or ValueError
    for name, call, value in _inputs(bad):
        with pytest.raises(InvalidArgumentError, match="must be (real numbers|finite)"):
            call(value)
            pytest.fail(f"{name} took {value!r}")


@pytest.mark.parametrize("one", FINITE_REAL_ONES, ids=lambda x: type(x).__name__)
def test_every_real_input_takes_python_and_numpy_reals_with_the_float_bits(one):
    for (name, call, value), (_, _, floats) in zip(_inputs(one), _inputs(1.0)):
        assert _bits(call(value)) == _bits(call(floats)), name
