"""Model core: parameters, sectors, Hamiltonian action, diagonalization oracle."""

import math

import numpy as np
import pytest

from lmg import (
    FockVector,
    InvalidArgumentError,
    apply_hamiltonian,
    exact_spectrum,
    expectation,
    make_params,
    sector_configs,
    sector_spectrum,
    SectorConfig,
)
from lmg.model import ladder_matrix
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
    with pytest.raises(InvalidArgumentError):
        expectation(FockVector(6, 0, np.full(4, 0.5)), p)


def test_ladder_matrix_is_shared_and_read_only():
    p = make_params(6, 0.9, 0.2)
    diag, hop = ladder_matrix(p, 0)
    again = ladder_matrix(make_params(6, 0.9, 0.2), 0)
    assert again[0] is diag and again[1] is hop
    for arr in (diag, hop):
        with pytest.raises(ValueError):
            arr[0] = 1.0


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
        assert expectation(state, p) == pytest.approx(omega, abs=1e-11)


def test_expectation_linearity_on_eigenvector_mix():
    p = make_params(8, 0.9, -0.3)
    pairs = [(omega, st) for omega, st in exact_spectrum(p) if st.parity == 0]
    (w1, s1), (w2, s2) = pairs[0], pairs[1]
    mix = FockVector(8, 0, (s1.amps + s2.amps) / np.sqrt(2.0))
    assert expectation(mix, p) == pytest.approx((w1 + w2) / 2, abs=1e-11)


def test_expectation_rejects_unnormalized():
    p = make_params(4, 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        expectation(FockVector(4, 0, np.array([1.0, 1.0, 0.0])), p)


def test_sector_config_n_property():
    c = SectorConfig(3, 1, 0)
    assert c.n == 7 and c.parity == 0
    with pytest.raises(InvalidArgumentError):
        SectorConfig(2, 2, 0)
