"""Pair-energy equations: residuals, closed forms, and the full solver."""

import dataclasses
import math

import numpy as np
import pytest

from lmg import (
    ComplexPaironsError,
    InvalidArgumentError,
    SectorConfig,
    SingularityError,
    UnsupportedRegimeError,
    bethe,
    eigenvalue,
    exact_spectrum,
    make_params,
    residual,
    sector_configs,
    sector_spectrum,
    solve_bethe,
)
from lmg.reference import (
    HYPERBOLIC_COMPLEX,
    N7,
    N7_ENERGY,
    N7_PAIRONS,
    n2_pairons,
    single_pair_pairons,
    w0_pairons,
)

N7_CONFIG = SectorConfig(3, 1, 0)


def n7_params():
    return make_params(**N7)


def test_residual_m1_n2_quadratic_reduction():
    # For one pair at N=2 the residual is 1 - V eta E / (E^2 - eta^2),
    # vanishing exactly on the roots of E^2 - V eta E - eta^2 = 0.
    for v, w in [(0.75, 0.0), (1.2, 0.4), (0.6, -0.3)]:
        p = make_params(2, v, w)
        config = SectorConfig(1, 0, 0)
        for e in (0.37, -1.9, 2.4):
            expected = 1 - v * p.eta * e / (e * e - p.eta**2)
            assert residual([e], config, p)[0] == pytest.approx(expected, rel=1e-13)
        for root in n2_pairons(v, w):
            assert abs(residual([root], config, p)[0]) < 1e-12


def test_residual_at_n7_reference_pairons():
    res = residual(list(N7_PAIRONS), N7_CONFIG, n7_params())
    assert np.max(np.abs(res)) < 1e-4


def test_residual_matches_simplified_form_at_w0():
    # W=0, even N: 1 + 2(1+2nu)VE/(N(E^2-1)) + (2V/N) sum (1+E E_n)/(E-E_n)
    rng = np.random.default_rng(21)
    for nu in (0, 1):
        for m in (2, 3, 4):
            n = 2 * m + 2 * nu
            v = rng.uniform(0.3, 1.4)
            p = make_params(n, v, 0.0)
            config = SectorConfig(m, nu, nu)
            e = np.sort(rng.uniform(1.2, 3.0, m) * rng.choice([-1, 1], m))
            expected = np.empty(m)
            for l in range(m):
                acc = 1 + 2 * (1 + 2 * nu) * v * e[l] / (n * (e[l] ** 2 - 1))
                for k in range(m):
                    if k != l:
                        acc += (2 * v / n) * (1 + e[l] * e[k]) / (e[l] - e[k])
                expected[l] = acc
            np.testing.assert_allclose(residual(e, config, p), expected, atol=1e-12)


def test_residual_and_eigenvalue_permutation_symmetry():
    rng = np.random.default_rng(19)
    p = n7_params()
    e = np.array([0.3, 1.1, -2.9])
    base = residual(e, N7_CONFIG, p)
    omega = eigenvalue(e, N7_CONFIG, p)
    for _ in range(6):
        perm = rng.permutation(3)
        shuffled = residual(e[perm], N7_CONFIG, p)
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-14)
        assert eigenvalue(e[perm], N7_CONFIG, p) == pytest.approx(omega, abs=1e-14)


def test_residual_singularity_guards():
    p = n7_params()
    with pytest.raises(SingularityError, match="-eta"):
        residual([0.4, -p.eta + 1e-10, 2.2], N7_CONFIG, p)
    with pytest.raises(SingularityError, match="closer"):
        residual([0.4, 0.4 + 1e-9, 2.2], N7_CONFIG, p)
    with pytest.raises(InvalidArgumentError):
        residual([0.4], N7_CONFIG, p)


def test_residual_rejects_rational():
    p = make_params(4, 1.0, -1.0)
    with pytest.raises(UnsupportedRegimeError):
        residual([0.5, 1.5], SectorConfig(2, 0, 0), p)


def test_solve_m1_reference_roots():
    p = make_params(2, 0.75, 0.0)
    sols = solve_bethe(SectorConfig(1, 0, 0), p)
    roots = sorted(e for s in sols for e in s.energies)
    assert roots[0] == pytest.approx(-1.4430005, abs=1e-6)
    assert roots[1] == pytest.approx(0.6930005, abs=1e-6)
    for s in sols:
        assert s.residual_norm < 1e-12


def test_solve_m1_closed_form_w0():
    for nu, n in ((0, 2), (1, 4)):
        p = make_params(n, 0.85, 0.0)
        sols = solve_bethe(SectorConfig(1, nu, nu), p)
        got = sorted(e for s in sols for e in s.energies)
        np.testing.assert_allclose(got, w0_pairons(0.85, n, nu), atol=1e-12)


def test_solve_m1_eigenvalues_match_oracle():
    # the quadratic's roots give the sector's levels through the eigenvalue
    # formula, and the solver labels its two sets by increasing eigenvalue
    rng = np.random.default_rng(4)
    for _ in range(8):
        v = rng.uniform(0.3, 1.4)
        w = rng.uniform(-0.9, 0.9) * v
        for n in (2, 3, 4):
            for config in sector_configs(n):
                if config.m != 1:
                    continue
                p = make_params(n, v, w)
                vals, _ = sector_spectrum(config, p)
                roots = single_pair_pairons(config, p)
                omegas = sorted(eigenvalue([e], config, p) for e in roots)
                np.testing.assert_allclose(omegas, vals, atol=1e-10)
                assert [s.index for s in solve_bethe(config, p)] == [1, 2]


def test_solve_m2_simplified_closed_form():
    # checks on the decoupled pair that do not reuse its formula: it solves
    # the coupled M = 2 equations, its product is -1 (so the cross term
    # cancels), and its eigenvalue is one of the solver's
    rng = np.random.default_rng(9)
    for nu, n in ((0, 4), (1, 6)):
        for _ in range(10):
            v = rng.uniform(0.25, 1.6)
            p = make_params(n, v, 0.0)
            config = SectorConfig(2, nu, nu)
            pair = w0_pairons(v, n, nu)
            assert np.max(np.abs(residual(pair, config, p))) <= 1e-12
            assert pair[0] * pair[1] == pytest.approx(-1.0, abs=1e-12)
            omega = eigenvalue(pair, config, p)
            assert min(abs(s.omega - omega) for s in solve_bethe(config, p)) < 1e-10


def test_solve_m2_simplified_n4_values():
    # V=1: E = (-1 -/+ sqrt(17))/4 is one of the solver's three sets
    sq = np.sqrt(17.0)
    want = [(-1 - sq) / 4, (-1 + sq) / 4]
    np.testing.assert_allclose(w0_pairons(1.0, 4, 0), want, atol=1e-14)
    sols = solve_bethe(SectorConfig(2, 0, 0), make_params(4, 1.0, 0.0))
    assert min(np.max(np.abs(np.array(s.energies) - want)) for s in sols) < 1e-12


def test_solve_m2_simplified_contained_in_solve_bethe():
    for v in (0.6, 1.0, 1.45):
        p = make_params(4, v, 0.0)
        config = SectorConfig(2, 0, 0)
        closed = np.array(w0_pairons(v, 4, 0))
        full = solve_bethe(config, p)
        gaps = [np.max(np.abs(np.array(s.energies) - closed)) for s in full]
        assert min(gaps) < 1e-10


def test_closed_forms_check_runs_solve_bethe(monkeypatch):
    from lmg import verify

    (clean,) = verify.run_checks(["closed-forms"])
    assert clean.passed
    solve = verify.solve_bethe

    def perturbed(*args, **kwargs):
        return [
            dataclasses.replace(s, energies=tuple(e + 1e-6 for e in s.energies))
            for s in solve(*args, **kwargs)
        ]

    monkeypatch.setattr(verify, "solve_bethe", perturbed)
    (broken,) = verify.run_checks(["closed-forms"])
    assert not broken.passed


def test_eigenvalue_empty_sector_formula():
    for n, nu_a, nu_b in ((2, 1, 1), (1, 0, 1), (1, 1, 0)):
        for v, w in ((0.8, 0.3), (1.1, -0.5)):
            p = make_params(n, v, w)
            config = SectorConfig(0, nu_a, nu_b)
            expected = (w * (nu_a + nu_b + 2 * nu_a * nu_b) + n * (nu_b - nu_a)) / (2 * n)
            assert eigenvalue([], config, p) == pytest.approx(expected, abs=1e-14)


def test_eigenvalue_pole_error():
    p = n7_params()
    with pytest.raises(SingularityError):
        eigenvalue([0.3, -p.eta], N7_CONFIG, p)


def test_solve_bethe_n7_ground_solution():
    sols = solve_bethe(N7_CONFIG, n7_params())
    assert len(sols) == 4
    ground = sols[0]
    np.testing.assert_allclose(ground.energies, N7_PAIRONS, atol=1e-5)
    assert ground.omega == pytest.approx(N7_ENERGY, abs=1e-9)
    assert ground.index == 1
    assert all(s.residual_norm <= 1e-10 for s in sols)


def test_solve_bethe_agrees_with_solve_m1():
    # against the M = 1 quadratic, on trigonometric and hyperbolic instances
    rng = np.random.default_rng(31)
    for _ in range(12):
        v = rng.uniform(0.3, 1.3)
        w = rng.uniform(-1.4, 1.4)
        if abs(v * v - w * w) < 1e-3:
            continue
        for n in (2, 3):
            for config in sector_configs(n):
                if config.m != 1:
                    continue
                p = make_params(n, v, w)
                numeric = [s.energies[0] for s in solve_bethe(config, p, allow_hyperbolic=True)]
                np.testing.assert_allclose(
                    sorted(numeric), single_pair_pairons(config, p), atol=1e-10
                )


def test_solve_bethe_n10_omegas_match_spectrum():
    p = make_params(10, 0.9, 0.2)
    got = []
    for config in sector_configs(10):
        got.extend(s.omega for s in solve_bethe(config, p))
    expected = [omega for omega, _ in exact_spectrum(p)]
    np.testing.assert_allclose(sorted(got), expected, atol=1e-8)


def test_solve_bethe_deterministic():
    p = make_params(8, 1.05, 0.35)
    config = SectorConfig(4, 0, 0)
    first = solve_bethe(config, p)
    second = solve_bethe(config, p)
    assert [s.energies for s in first] == [s.energies for s in second]


def test_solve_bethe_m0_sector():
    p = make_params(2, 0.75, 0.4)
    sols = solve_bethe(SectorConfig(0, 1, 1), p)
    assert len(sols) == 1
    assert sols[0].energies == ()
    assert sols[0].omega == pytest.approx(0.4, abs=1e-12)  # omega = W for |1,1>


def test_solve_bethe_rejects_rational_and_hyperbolic_by_default():
    with pytest.raises(UnsupportedRegimeError):
        solve_bethe(SectorConfig(2, 0, 0), make_params(4, 1.0, 1.0))
    with pytest.raises(UnsupportedRegimeError):
        solve_bethe(SectorConfig(2, 0, 0), make_params(4, 0.5, 1.0))


def test_solve_bethe_hyperbolic_real_case():
    # V=0.5, W=1.0 keeps every pair energy real up to N=6.
    p = make_params(6, 0.5, 1.0)
    got = []
    for config in sector_configs(6):
        got.extend(s.omega for s in solve_bethe(config, p, allow_hyperbolic=True))
    expected = [omega for omega, _ in exact_spectrum(p)]
    np.testing.assert_allclose(sorted(got), expected, atol=1e-8)


def test_solve_bethe_hyperbolic_complex_detection():
    p = make_params(**HYPERBOLIC_COMPLEX)
    raised = False
    for config in sector_configs(p.n):
        try:
            solve_bethe(config, p, allow_hyperbolic=True)
        except ComplexPaironsError:
            raised = True
    assert raised


def test_solve_bethe_v_zero_unsupported():
    p = make_params(4, 0.0, 1.0)
    with pytest.raises(UnsupportedRegimeError):
        solve_bethe(SectorConfig(2, 0, 0), p, allow_hyperbolic=True)


def test_spectral_solution_energies_sorted_and_distinct():
    p = make_params(9, 1.2, -0.4)
    for config in sector_configs(9):
        for sol in solve_bethe(config, p):
            e = np.array(sol.energies)
            assert np.all(np.diff(e) > 1e-8)
            assert np.min(np.abs(np.abs(e) - abs(p.eta))) > 1e-8


def test_solve_bethe_incomplete_with_exhausted_budget(monkeypatch):
    from lmg import IncompleteSolveError

    # an unreachable tolerance: no seed polishes within the Newton step budget
    monkeypatch.setattr(bethe, "TOL", 1e-300)
    p = make_params(8, 1.05, 0.35)
    with pytest.raises(IncompleteSolveError) as excinfo:
        solve_bethe(SectorConfig(4, 0, 0), p)
    assert excinfo.value.needed == 5
    assert excinfo.value.found == 0


def _float_ladder_weights(config):
    # the plain float expression the weights reproduce wherever it fits
    m, nu_a, nu_b = config.m, config.nu_a, config.nu_b
    return np.array(
        [
            math.sqrt(
                math.factorial(nu_a + 2 * (m - k))
                / math.factorial(nu_a)
                * math.factorial(nu_b + 2 * k)
                / math.factorial(nu_b)
            )
            for k in range(m + 1)
        ]
    )


def test_ladder_weights_bit_equal_to_float_factorials_up_to_n170():
    for n in range(1, 171):
        for config in sector_configs(n):
            got = bethe._ladder_weights(config)
            want = _float_ladder_weights(config)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), config


@pytest.mark.parametrize("n", [171, 200, 400])
def test_ladder_weights_past_float_factorials(n):
    with pytest.raises(OverflowError):
        _float_ladder_weights(sector_configs(n)[0])
    for config in sector_configs(n):
        weights = bethe._ladder_weights(config)
        assert np.all(np.isfinite(weights)) and np.all(weights > 0)
        # consecutive ratios are exact integer ratios of the factorials
        k = config.m // 2
        ratio = (weights[k + 1] / weights[k]) ** 2
        a = config.nu_a + 2 * (config.m - k)
        b = config.nu_b + 2 * k
        assert ratio == pytest.approx((b + 1) * (b + 2) / (a * (a - 1)), rel=1e-13)


@pytest.mark.parametrize("n", [56, 60, 64])
def test_solve_bethe_large_n_trigonometric_never_complex(n):
    from lmg import IncompleteSolveError

    # trigonometric pair energies are real: a lost set is a numerical failure
    p = make_params(n, 0.75, 0.5)
    for config in sector_configs(n):
        try:
            sols = solve_bethe(config, p)
        except IncompleteSolveError as exc:
            assert exc.needed == config.m + 1
            assert exc.found < exc.needed
        else:
            assert len(sols) == config.m + 1


def test_solve_bethe_negative_v_regimes():
    # the g branch carries sign(V); both orientations solve the same spectra
    for n, v, w in ((4, -1.0, 0.2), (6, -0.9, -0.4), (5, -1.2, 0.3)):
        p = make_params(n, v, w)
        got = []
        for config in sector_configs(n):
            got.extend(s.omega for s in solve_bethe(config, p))
        expected = [omega for omega, _ in exact_spectrum(p)]
        np.testing.assert_allclose(sorted(got), expected, atol=1e-8)


@pytest.mark.parametrize(
    "n,v,w",
    [
        (14, 0.9, 0.3),       # beyond the acceptance sweep size
        (10, 3.0, 1.0),       # strong coupling
        (8, 5.0, -2.0),       # very strong coupling
        (8, 1.0, 0.9999),     # near the rational boundary
        (12, 0.05, 0.01),     # weak coupling
    ],
)
def test_solve_bethe_boundary_instances(n, v, w):
    from lmg import apply_hamiltonian
    from lmg.eigenstates import build_eigenstate

    p = make_params(n, v, w)
    omegas = []
    for config in sector_configs(n):
        for sol in solve_bethe(config, p):
            omegas.append(sol.omega)
            psi = build_eigenstate(sol)
            resid = np.linalg.norm(apply_hamiltonian(psi, p).amps - sol.omega * psi.amps)
            assert resid < 1e-8
    expected = [omega for omega, _ in exact_spectrum(p)]
    np.testing.assert_allclose(sorted(omegas), expected, atol=1e-8)
