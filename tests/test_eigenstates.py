"""Pair-factor products: closed-form fixtures and the eigenvector property."""

import dataclasses
import math

import numpy as np
import pytest

from lmg import (
    FockVector,
    InvalidArgumentError,
    SectorConfig,
    SingularityError,
    UnsupportedRegimeError,
    apply_hamiltonian,
    apply_pair_factor,
    build_eigenstate,
    make_params,
    sector_configs,
    solve_bethe,
)
from lmg.model import canonical_sign
from lmg.reference import N7, N7_STATE, extend_state, n2_states, n3_states, w0_pairons
from oracles import pair_product_state


def aligned(a, b):
    return np.allclose(canonical_sign(np.asarray(a)), canonical_sign(np.asarray(b)), atol=1e-10)


def test_single_factor_matches_two_term_form():
    rng = np.random.default_rng(2)
    for nu_a in (0, 1):
        for nu_b in (0, 1):
            e1, eta = rng.uniform(0.5, 2.0), -rng.uniform(0.7, 1.8)
            out = apply_pair_factor(FockVector.fiducial(nu_a, nu_b), e1, eta)
            expected = math.sqrt(2.0) * np.array(
                [
                    math.sqrt(2 - (-1) ** nu_a) / (e1 + eta),
                    math.sqrt(2 - (-1) ** nu_b) / (e1 - eta),
                ]
            )
            np.testing.assert_allclose(out.amps, expected, atol=1e-13)


def test_double_factor_matches_three_term_form():
    rng = np.random.default_rng(3)
    for nu_a in (0, 1):
        for nu_b in (0, 1):
            e1, e2 = rng.uniform(0.4, 2.4, 2)
            eta = -rng.uniform(0.6, 1.9)
            state = apply_pair_factor(FockVector.fiducial(nu_a, nu_b), e1, eta)
            state = apply_pair_factor(state, e2, eta)
            middle = sum(
                1.0 / ((e1 + sgn * eta) * (e2 - sgn * eta)) for sgn in (1.0, -1.0)
            )
            expected = 2.0 * np.array(
                [
                    math.sqrt(6 * (3 - 2 * (-1) ** nu_a)) / ((e1 + eta) * (e2 + eta)),
                    3.0 ** ((nu_a + nu_b) / 2) * middle,
                    math.sqrt(6 * (3 - 2 * (-1) ** nu_b)) / ((e1 - eta) * (e2 - eta)),
                ]
            )
            np.testing.assert_allclose(state.amps, expected, atol=1e-12)


def test_factor_product_matches_brute_force_expansion():
    rng = np.random.default_rng(5)
    for trial in range(10):
        m = int(rng.integers(1, 6))
        nu_a, nu_b = rng.integers(0, 2, 2)
        eta = -rng.uniform(0.5, 2.0)
        energies = rng.uniform(0.3, 3.0, m) * rng.choice([-1.0, 1.0], m)
        state = FockVector.fiducial(int(nu_a), int(nu_b))
        for e in energies:
            state = apply_pair_factor(state, e, eta)
        oracle = pair_product_state(energies, int(nu_a), int(nu_b), eta)
        np.testing.assert_allclose(state.amps, oracle, atol=1e-10 * np.max(np.abs(oracle)))


def test_factors_commute():
    rng = np.random.default_rng(7)
    base = FockVector(5, 1, rng.standard_normal(3))
    eta = -1.3
    one_two = apply_pair_factor(apply_pair_factor(base, 0.8, eta), -2.1, eta)
    two_one = apply_pair_factor(apply_pair_factor(base, -2.1, eta), 0.8, eta)
    np.testing.assert_allclose(one_two.amps, two_one.amps, atol=1e-12)


def test_pair_factor_pole_guard():
    with pytest.raises(SingularityError):
        apply_pair_factor(FockVector.fiducial(0, 0), -1.0 + 1e-12, -1.0)


def test_build_eigenstate_n2_closed_form():
    rng = np.random.default_rng(11)
    config = SectorConfig(1, 0, 0)
    for _ in range(10):
        v = rng.uniform(0.2, 1.6)
        w = rng.uniform(-1.5, 1.5)
        if abs(v * v - w * w) < 1e-3:
            continue
        p = make_params(2, v, w)
        sols = solve_bethe(config, p, allow_hyperbolic=True)
        closed = n2_states(v)
        for sol, (omega_shiftless, vec) in zip(sols, closed):
            built = build_eigenstate(sol)
            assert aligned(built.amps, vec)
            assert sol.omega == pytest.approx(w / 2 + omega_shiftless, abs=1e-10)


def test_build_eigenstate_n2_w_independence():
    config = SectorConfig(1, 0, 0)
    reference = None
    for w in (0.0, 0.35, -0.6, 1.4):
        p = make_params(2, 0.75, w)
        sols = solve_bethe(config, p, allow_hyperbolic=True)
        states = [build_eigenstate(s).amps for s in sols]
        if reference is None:
            reference = states
        else:
            for a, b in zip(reference, states):
                np.testing.assert_allclose(a, b, atol=1e-10)


def test_build_eigenstate_n3_closed_forms():
    rng = np.random.default_rng(13)
    for _ in range(10):
        v = rng.uniform(0.25, 1.5)
        w = rng.uniform(-1.4, 1.4)
        if abs(v * v - w * w) < 1e-3:
            continue
        p = make_params(3, v, w)
        closed = n3_states(v, w)
        for config in sector_configs(3):
            sols = solve_bethe(config, p, allow_hyperbolic=True)
            for sol, (omega_ref, vec) in zip(sols, closed[(config.nu_a, config.nu_b)]):
                assert sol.omega == pytest.approx(omega_ref, abs=1e-10)
                assert aligned(build_eigenstate(sol).amps, vec)


def test_build_eigenstate_n7_reference_amplitudes():
    from lmg import expectation
    from lmg.reference import N7_ENERGY

    p = make_params(**N7)
    sols = solve_bethe(SectorConfig(3, 1, 0), p)
    built = build_eigenstate(sols[0])
    np.testing.assert_allclose(
        canonical_sign(built.amps), canonical_sign(np.array(N7_STATE)), atol=2e-6
    )
    assert expectation(built, p) == pytest.approx(N7_ENERGY, abs=1e-9)


def test_build_eigenstate_support_size():
    p = make_params(9, 1.1, 0.3)
    for config in sector_configs(9):
        for sol in solve_bethe(config, p):
            state = build_eigenstate(sol)
            assert np.count_nonzero(np.abs(state.amps) > 1e-13) == config.m + 1


def test_sector_states_orthonormal():
    p = make_params(10, 0.8, -0.45)
    for config in sector_configs(10):
        states = [build_eigenstate(s).amps for s in solve_bethe(config, p)]
        gram = np.array([[a @ b for b in states] for a in states])
        np.testing.assert_allclose(gram, np.eye(len(states)), atol=1e-8)


def test_eigenvector_residual_across_instances():
    # The central cross-module property: H psi = omega psi for every solution.
    cases = [(7, 0.75, 0.5), (6, 1.2, -0.3), (9, 0.6, 0.25), (11, 0.95, 0.55)]
    for n, v, w in cases:
        p = make_params(n, v, w)
        for config in sector_configs(n):
            for sol in solve_bethe(config, p):
                psi = build_eigenstate(sol)
                delta = apply_hamiltonian(psi, p).amps - sol.omega * psi.amps
                assert np.linalg.norm(delta) <= 1e-8


def test_extend_state_equals_factor_path():
    rng = np.random.default_rng(17)
    for nu in (0, 1):
        for m in (0, 1, 2, 3):
            p = make_params(2 * (m + 1) + 2 * nu, 1.0, 0.0)
            state = FockVector.fiducial(nu, nu)
            used = rng.uniform(0.3, 2.5, m) * rng.choice([-1.0, 1.0], m)
            for e in used:
                state = apply_pair_factor(state, e, -1.0).normalize()
            e_next = float(rng.uniform(1.2, 2.8))
            config = SectorConfig(m, nu, nu)
            extended = extend_state(state, e_next, config, p)
            direct = apply_pair_factor(state, e_next, -1.0).normalize()
            np.testing.assert_allclose(extended.amps, direct.amps, atol=1e-12)


def test_extend_state_n4_two_pair_fixture():
    # Extending the M=1 state by the second root matches the two-factor build.
    p4 = make_params(4, 1.0, 0.0)
    e1, e2 = w0_pairons(1.0, 4, 0)
    base = apply_pair_factor(FockVector.fiducial(0, 0), e1, -1.0).normalize()
    ext = extend_state(base, e2, SectorConfig(1, 0, 0), p4)
    direct = apply_pair_factor(base, e2, -1.0).normalize()
    np.testing.assert_allclose(ext.amps, direct.amps, atol=1e-12)


def test_extend_state_regime_errors():
    p = make_params(4, 1.0, 0.3)
    base = FockVector.fiducial(0, 0)
    with pytest.raises(UnsupportedRegimeError):
        extend_state(base, 1.5, SectorConfig(0, 0, 0), p)
    p0 = make_params(3, 1.0, 0.0)
    with pytest.raises(UnsupportedRegimeError):
        extend_state(FockVector.fiducial(0, 1), 1.5, SectorConfig(1, 0, 1), p0)
    with pytest.raises(InvalidArgumentError):
        extend_state(FockVector.fiducial(0, 0), 1.5, SectorConfig(1, 0, 0), make_params(4, 1.0, 0.0))


def test_build_eigenstate_quanta_check():
    p2 = make_params(2, 0.75, 0.0)
    sols = solve_bethe(SectorConfig(1, 0, 0), p2)
    with pytest.raises(InvalidArgumentError):
        build_eigenstate(dataclasses.replace(sols[0], params=make_params(4, 0.75, 0.0)))
