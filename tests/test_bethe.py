"""Pair-energy equations: residuals, closed forms, and the full solver."""

import dataclasses
import gc
import math

import numpy as np
import pytest

from lmg import (
    ComplexPaironsError,
    FockVector,
    InvalidArgumentError,
    LmgError,
    NumericFailureError,
    SectorConfig,
    SingularityError,
    SpectralSolution,
    UnsupportedRegimeError,
    apply_pair_factor,
    bethe,
    build_eigenstate,
    eigenvalue,
    exact_spectrum,
    linear_angles,
    log_angles,
    make_params,
    residual,
    sector_configs,
    sector_spectrum,
    solve_bethe,
    solve_levels,
)
from lmg.reference import (
    N7,
    N7_ENERGY,
    N7_PAIRONS,
    n2_pairons,
    w0_pairons,
)
from oracles import HYPERBOLIC_COMPLEX, level_newton, single_pair_pairons, solve_level

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


@pytest.mark.parametrize("fn", [residual, eigenvalue], ids=["residual", "eigenvalue"])
def test_residual_and_eigenvalue_check_a_set_alike(fn):
    # eigenvalue took a set of any length, and neither refused a sector of another N
    p2 = make_params(2, 0.75, 0.5)
    with pytest.raises(InvalidArgumentError, match="expected 1 spectral parameters, got 3"):
        fn([1.0, 2.0, 3.0], SectorConfig(1, 0, 0), p2)
    with pytest.raises(InvalidArgumentError, match="sector describes 2 particles"):
        fn([0.5], SectorConfig(1, 0, 0), make_params(4, 0.75, 0.5))
    with pytest.raises(UnsupportedRegimeError):
        fn([0.5, 1.5], SectorConfig(2, 0, 0), make_params(4, 1.0, -1.0))


def _set_entries(sol):
    # the entries that score a set, each called as (energies, config, params);
    # build_eigenstate takes them in a copy of the solved set ``sol``
    def build(energies, config, params):
        return build_eigenstate(
            dataclasses.replace(sol, energies=tuple(energies), config=config, params=params)
        )

    return {"residual": residual, "eigenvalue": eigenvalue, "build_eigenstate": build}


# input -> (error every entry raises, (set, config, params) from the solved N = 7 set e at p)
ONE_SET_RULE = {
    "wrong-length": (InvalidArgumentError, lambda e, p: (e[:2], N7_CONFIG, p)),
    "wrong-n": (InvalidArgumentError, lambda e, p: (e, N7_CONFIG, make_params(9, 0.75, 0.5))),
    "rational": (UnsupportedRegimeError, lambda e, p: (e, N7_CONFIG, make_params(7, 1.0, -1.0))),
    "overflowed-eta": (
        InvalidArgumentError, lambda e, p: (e, N7_CONFIG, make_params(7, 1e308, 9e307))
    ),
    "v-zero": (UnsupportedRegimeError, lambda e, p: (e, N7_CONFIG, make_params(7, 0.0, 0.5))),
    "near-plus-eta": (SingularityError, lambda e, p: ([p.eta + 1e-9, *e[1:]], N7_CONFIG, p)),
    "near-minus-eta": (SingularityError, lambda e, p: ([-p.eta + 1e-9, *e[1:]], N7_CONFIG, p)),
}


@pytest.mark.parametrize("case", ONE_SET_RULE)
def test_every_entry_that_takes_a_set_refuses_it_alike(case):
    # eigenvalue scored a set 1e-9 from a pole and build_eigenstate built its
    # state, V = 0 passed all three, and a rational instance got two texts
    expected, make = ONE_SET_RULE[case]
    sol = solve_levels(N7_CONFIG, n7_params())[0].solution
    energies, config, p = make(list(sol.energies), sol.params)
    refusals = set()
    for name, score in _set_entries(sol).items():
        with pytest.raises(LmgError) as excinfo:
            score(energies, config, p)
            pytest.fail(f"{name} took the set")
        refusals.add((type(excinfo.value), str(excinfo.value)))
    ((kind, message),) = refusals
    assert kind is expected
    if kind is SingularityError:
        # the pole sits at E[0], so the one factor's message is the set's
        assert message.startswith("E[0]=") and "within 1e-08 of" in message
        with pytest.raises(SingularityError) as excinfo:
            apply_pair_factor(FockVector.fiducial(1, 0), energies[0], p.eta)
        assert str(excinfo.value) == message


@pytest.mark.parametrize("energies, message", [
    ((1e300, 1e301), "E[0]=1e+300 overflows when squared"),
    ((1e160, 2e160), "E[0]=1e+160 overflows when squared"),
    ((0.5, 1e160), "E[1]=1e+160 overflows when squared"),
], ids=["1e300-1e301", "1e160-2e160", "second-parameter"])
def test_every_entry_refuses_a_set_whose_squares_overflow_alike(energies, message):
    # such sets gave NaN residuals and eigenvalues, with overflow warnings, and
    # build_eigenstate refused them as "cannot normalize the zero vector"
    config, p = SectorConfig(2, 0, 0), make_params(4, 0.75, 0.5)
    sol = solve_levels(config, p)[0].solution
    refusals = set()
    with np.errstate(all="raise"):
        for score in _set_entries(sol).values():
            with pytest.raises(LmgError) as excinfo:
                score(energies, config, p)
            refusals.add((type(excinfo.value), str(excinfo.value)))
        # a set whose squares stay finite is still scored
        assert np.all(np.isfinite(residual((1e150, 2e150), config, p)))
        assert math.isfinite(eigenvalue((1e150, 2e150), config, p))
    assert refusals == {(InvalidArgumentError, message)}


def test_only_the_residual_refuses_coinciding_energies_and_2e_8_from_a_pole_passes():
    p = n7_params()
    sol = solve_levels(N7_CONFIG, p)[0].solution
    entries = _set_entries(sol)
    coinciding = [0.3, 0.3 + 1e-9, 0.7]
    with pytest.raises(SingularityError, match=r"^E\[0\] and E\[1\] closer than 1e-08$"):
        residual(coinciding, N7_CONFIG, p)
    assert math.isfinite(eigenvalue(coinciding, N7_CONFIG, p))
    build_eigenstate(dataclasses.replace(sol, energies=tuple(coinciding)))
    for pole in (p.eta, -p.eta):
        energies = [pole + 2e-8, *sol.energies[1:]]
        for score in entries.values():
            score(energies, N7_CONFIG, p)
        apply_pair_factor(FockVector.fiducial(1, 0), energies[0], p.eta)


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


def test_residual_and_eigenvalue_refuse_a_set_whose_terms_overflow():
    # both returned values computed from inf, after overflow warnings
    with pytest.raises(InvalidArgumentError, match="overflow a float"):
        residual((1.3e154, 1.2e154), SectorConfig(2, 0, 0), make_params(4, 0.75, 0.5))
    with pytest.raises(InvalidArgumentError, match="overflow a float"):
        eigenvalue((1e150, 2e150), SectorConfig(2, 0, 0), make_params(4, 1e10, 0.5))
    # an accepted set keeps the bits of the unchecked kernel
    config, p = SectorConfig(2, 0, 0), make_params(4, 0.75, 0.5)
    e = np.array([1e150, 2e150])
    assert residual(e, config, p).tobytes() == bethe._residual_raw(e[None], config, p)[0].tobytes()
    assert eigenvalue(e, config, p) == float(bethe._eigenvalues(e[None], config, p)[0])


def test_eigenvalue_pole_error():
    p = n7_params()
    with pytest.raises(SingularityError):
        eigenvalue([0.3, 0.7, -p.eta], N7_CONFIG, p)


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
                numeric = [s.energies[0] for s in solve_bethe(config, p)]
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


def test_solve_bethe_rejects_rational():
    with pytest.raises(UnsupportedRegimeError):
        solve_bethe(SectorConfig(2, 0, 0), make_params(4, 1.0, 1.0))


def test_solve_bethe_hyperbolic_real_case():
    # V=0.5, W=1.0 keeps every pair energy real up to N=6.
    p = make_params(6, 0.5, 1.0)
    got = []
    for config in sector_configs(6):
        got.extend(s.omega for s in solve_bethe(config, p))
    expected = [omega for omega, _ in exact_spectrum(p)]
    np.testing.assert_allclose(sorted(got), expected, atol=1e-8)


def test_solve_bethe_hyperbolic_complex_detection():
    p = make_params(**HYPERBOLIC_COMPLEX)
    raised = False
    for config in sector_configs(p.n):
        try:
            solve_bethe(config, p)
        except ComplexPaironsError:
            raised = True
    assert raised


def test_hyperbolic_complex_error_names_a_non_real_root():
    # the example root in each ComplexPaironsError is one with an imaginary part
    seen = 0
    for p, config in (
        (make_params(**HYPERBOLIC_COMPLEX), SectorConfig(5, 0, 0)),
        (make_params(12, 0.2, 1.5), SectorConfig(6, 0, 0)),
    ):
        for level in solve_levels(config, p):
            if isinstance(level.error, ComplexPaironsError):
                seen += 1
                example = str(level.error).split("(e.g. ")[1].rstrip(")")
                assert complex(example).imag != 0.0, (p, config, str(level.error))
    assert seen >= 4


HYPERBOLIC_COUPLINGS = [(0.2, 1.5), (0.5, 1.0), (-0.3, 0.8), (0.5921, -1.6233)]


def test_hyperbolic_levels_are_validated_sets_or_their_own_error():
    # hyperbolic sectors are solved level by level, as trigonometric ones are:
    # every level is a set that solves H psi = omega psi, or that level's error
    from lmg import apply_hamiltonian
    from lmg.eigenstates import build_eigenstate

    kinds = {}
    for v, w in HYPERBOLIC_COUPLINGS:
        for n in range(1, 25):
            p = make_params(n, v, w)
            for config in sector_configs(n):
                for level in solve_levels(config, p):
                    outcome = level.solution if level.error is None else level.error
                    kinds[type(outcome)] = kinds.get(type(outcome), 0) + 1
                    if isinstance(outcome, LmgError):
                        assert isinstance(outcome, (ComplexPaironsError, NumericFailureError)), (
                            p, config, outcome,
                        )
                        continue
                    psi = build_eigenstate(outcome)
                    resid = apply_hamiltonian(psi, p).amps - outcome.omega * psi.amps
                    assert np.linalg.norm(resid) <= 1e-8, (p, config, outcome.index)
    assert UnsupportedRegimeError not in kinds
    assert kinds[bethe.SpectralSolution] > 0 and kinds[ComplexPaironsError] > 0


def test_solve_bethe_v_zero_unsupported():
    p = make_params(4, 0.0, 1.0)
    with pytest.raises(UnsupportedRegimeError):
        solve_bethe(SectorConfig(2, 0, 0), p)


def test_spectral_solution_energies_sorted_and_distinct():
    p = make_params(9, 1.2, -0.4)
    for config in sector_configs(9):
        for sol in solve_bethe(config, p):
            e = np.array(sol.energies)
            assert np.all(np.diff(e) > 1e-8)
            assert np.min(np.abs(np.abs(e) - abs(p.eta))) > 1e-8


def _raises_the_first_level_error(config, p, levels):
    # solve_bethe raises the error of the first level without a set, as recorded
    first = next(level.error for level in levels if level.error is not None)
    with pytest.raises(LmgError) as excinfo:
        solve_bethe(config, p)
    assert type(excinfo.value) is type(first)
    assert str(excinfo.value) == str(first)


def test_solve_bethe_incomplete_with_exhausted_budget(monkeypatch):
    # an unreachable tolerance: no seed polishes within the Newton step budget
    monkeypatch.setattr(bethe, "TOL", 1e-300)
    p = make_params(8, 1.05, 0.35)
    config = SectorConfig(4, 0, 0)
    levels = solve_levels(config, p)
    assert len(levels) == 5
    assert all(level.solution is None for level in levels)
    assert {str(level.error) for level in levels} == {"damped Newton left a residual above 1e-300"}
    assert all(type(level.error) is NumericFailureError for level in levels)
    _raises_the_first_level_error(config, p, levels)


def test_solve_bethe_refuses_a_set_polished_onto_another_level(monkeypatch):
    # the seed of level 1 is sent to level 0's set: that set is refused on its
    # own level, and the three sets that match their own levels are kept
    polish = bethe._newton

    def misdirected(start, config, params):
        polished, errors = polish(start, config, params)
        polished[1] = polished[0]
        return polished, errors

    monkeypatch.setattr(bethe, "_newton", misdirected)
    levels = solve_levels(N7_CONFIG, n7_params())
    assert isinstance(levels[1].error, NumericFailureError)
    assert str(levels[1].error).startswith("the set polished onto omega=")
    assert str(levels[1].error).endswith(", not level 2")
    assert [level.solution.index for i, level in enumerate(levels) if i != 1] == [1, 3, 4]
    _raises_the_first_level_error(N7_CONFIG, n7_params(), levels)


def test_a_raised_level_error_frees_its_sector_without_a_gc_pass():
    # the error's traceback holds solve_bethe's frame, and a level holds the error:
    # that cycle kept every level's eigenvector alive until the collector ran
    gc.collect()
    gc.disable()
    try:
        try:
            solve_bethe(SectorConfig(6, 0, 0), make_params(12, 0.2, 1.5))
        except ComplexPaironsError:
            pass
        else:
            pytest.fail("the sector has levels with non-real pair energies")
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    # trigonometric pair energies are real: a lost set is a numerical failure
    p = make_params(n, 0.75, 0.5)
    for config in sector_configs(n):
        levels = solve_levels(config, p)
        errors = [level.error for level in levels if level.error is not None]
        assert all(type(error) is NumericFailureError for error in errors)
        if errors:
            _raises_the_first_level_error(config, p, levels)
        else:
            assert len(solve_bethe(config, p)) == config.m + 1


def test_solve_bethe_negative_v_regimes():
    # the g branch carries sign(V); both orientations solve the same spectra
    for n, v, w in ((4, -1.0, 0.2), (6, -0.9, -0.4), (5, -1.2, 0.3)):
        p = make_params(n, v, w)
        got = []
        for config in sector_configs(n):
            got.extend(s.omega for s in solve_bethe(config, p))
        expected = [omega for omega, _ in exact_spectrum(p)]
        np.testing.assert_allclose(sorted(got), expected, atol=1e-8)


def _seeded_trigonometric(seed=15):
    # one coupling (V^2 > W^2, either sign of V) for each N = 1..24
    rng = np.random.default_rng(seed)
    for n in range(1, 25):
        w = float(rng.uniform(-1.2, 1.2))
        v = float(rng.choice([-1.0, 1.0]) * (abs(w) + rng.uniform(0.1, 1.5)))
        yield pytest.param(n, v, w, id=f"seeded-n{n}")


@pytest.mark.parametrize(
    "n,v,w",
    [
        (14, 0.9, 0.3),       # beyond the acceptance sweep size
        (10, 3.0, 1.0),       # strong coupling
        (8, 5.0, -2.0),       # very strong coupling
        (8, 1.0, 0.9999),     # near the rational boundary
        (12, 0.05, 0.01),     # weak coupling
        *_seeded_trigonometric(),
    ],
)
def test_solve_bethe_boundary_instances(n, v, w):
    from lmg import apply_hamiltonian
    from lmg.eigenstates import build_eigenstate

    p = make_params(n, v, w)
    omegas = []
    for config in sector_configs(n):
        levels = sector_spectrum(config, p)[0]
        for j, sol in enumerate(solve_bethe(config, p)):
            # set j is validated against its own exact level j
            assert sol.index == j + 1
            assert abs(sol.omega - levels[j]) <= bethe.MATCH_TOL
            omegas.append(sol.omega)
            psi = build_eigenstate(sol)
            resid = np.linalg.norm(apply_hamiltonian(psi, p).amps - sol.omega * psi.amps)
            assert resid < 1e-8
    expected = [omega for omega, _ in exact_spectrum(p)]
    np.testing.assert_allclose(sorted(omegas), expected, atol=1e-8)


def _regime_instances(seed=18):
    # trigonometric couplings (V^2 > W^2, either sign of V) at N = 1..24 and
    # at the sizes where sets start to go missing, then one hyperbolic, one
    # rational and one V = 0 instance
    rng = np.random.default_rng(seed)
    for n in [*range(1, 25), 40, 56, 60, 64]:
        yield make_params(n, 0.75, 0.5)
        for _ in range(2):
            w = float(rng.uniform(-1.2, 1.2))
            v = float(rng.choice([-1.0, 1.0]) * (abs(w) + rng.uniform(0.1, 1.5)))
            yield make_params(n, v, w)
    yield make_params(**HYPERBOLIC_COMPLEX)
    yield make_params(4, 1.0, 1.0)
    yield make_params(6, 0.0, 0.5)


def test_solve_levels_regimes_one_outcome_per_level():
    for p in _regime_instances():
        for config in sector_configs(p.n):
            levels = solve_levels(config, p)
            values = np.array([level.omega for level in levels])
            vectors = np.array([level.vector for level in levels]).T
            exact, exact_vecs = sector_spectrum(config, p)
            assert values.tobytes() == exact.tobytes()
            assert vectors.tobytes() == exact_vecs.tobytes()
            assert len(levels) == exact.size == config.m + 1
            for j, level in enumerate(levels):
                if isinstance(level.solution, bethe.SpectralSolution):
                    assert level.solution.index == j + 1
                    assert abs(level.solution.omega - exact[j]) <= bethe.MATCH_TOL
                else:
                    assert isinstance(level.error, LmgError), (p, config, j, level)
                    assert p.s < 0 or not isinstance(level.error, ComplexPaironsError)
            sets = [level.solution for level in levels if level.solution is not None]
            if len(sets) == len(levels):
                assert solve_bethe(config, p) == sets
                continue
            _raises_the_first_level_error(config, p, levels)


def _compiled(vector):
    # the angle bytes of both depth modes, or the refusal each raised instead
    out = []
    for maker in (linear_angles, log_angles):
        try:
            out.append(np.array(maker(vector).thetas).tobytes())
        except LmgError as exc:
            out.append(repr(exc))
    return out


def test_solve_levels_returns_one_record_per_exact_level():
    for p in _regime_instances():
        for config in sector_configs(p.n):
            levels = solve_levels(config, p)
            values, vectors = sector_spectrum(config, p)
            assert len(levels) == config.m + 1
            for j, level in enumerate(levels):
                assert level.index == j + 1
                assert type(level.omega) is float
                assert np.float64(level.omega).tobytes() == values[j].tobytes()
                assert level.vector.tobytes() == vectors[:, j].tobytes()
                assert not level.vector.flags.writeable
                # a contiguous row compiles to the bits a fresh copy of it does
                assert level.vector.flags.c_contiguous
                assert _compiled(level.vector) == _compiled(level.vector.copy())
                assert (level.solution is None) != (level.error is None), (p, config, level)
                if level.solution is not None:
                    assert level.solution.index == level.index
                # the vector takes no part in ==, so an equal copy compares without raising
                twin = dataclasses.replace(level, vector=level.vector.copy())
                assert twin == level and (level == levels[0]) == (j == 0)


def test_solve_levels_repeats_a_sector_refusal_at_every_level():
    for p, config in (
        (make_params(4, 1.0, 1.0), SectorConfig(2, 0, 0)),  # rational
        (make_params(4, 0.0, 1.0), SectorConfig(2, 0, 0)),  # V = 0
    ):
        levels = solve_levels(config, p)
        assert len(levels) == config.m + 1
        assert all(level.error is levels[0].error for level in levels)
        with pytest.raises(type(levels[0].error)) as excinfo:
            solve_bethe(config, p)
        assert str(excinfo.value) == str(levels[0].error)
    # a wrong-N sector has no levels: both raise the same InvalidArgumentError
    wrong_n = "sector describes 4 particles, params describe 6"
    with pytest.raises(InvalidArgumentError, match=wrong_n):
        solve_levels(SectorConfig(2, 0, 0), make_params(6, 0.75, 0.5))
    with pytest.raises(InvalidArgumentError, match=wrong_n):
        solve_bethe(SectorConfig(2, 0, 0), make_params(6, 0.75, 0.5))


NEWTON_FAILURE = "damped Newton left a residual above 1e-10"


def _n7_ground_set():
    return np.array(solve_levels(N7_CONFIG, n7_params())[0].solution.energies)


def _newton_row(seed):
    # one seed polished on a one-row stack: its set, or its error raised
    polished, (error,) = bethe._newton(seed[None], N7_CONFIG, n7_params())
    if error is not None:
        raise error
    return polished[0]


@pytest.mark.parametrize(
    "component",
    [math.nan, math.inf, "eta", 1e200],
    ids=["nan-seed", "infinite-seed", "seed-on-a-pole", "non-finite-residual"],
)
def test_newton_refuses_a_seed_it_cannot_start_from(component):
    # a non-finite seed, a seed on the pole E = eta, and a finite seed whose
    # residual is not finite (E^2 overflows) each end in the one Newton error
    p = n7_params()
    seed = _n7_ground_set()
    seed[1] = p.eta if component == "eta" else component
    with pytest.raises(NumericFailureError, match=f"^{NEWTON_FAILURE}$"):
        _newton_row(seed)
    # stacked with a good seed, only the bad row fails
    polished, errors = bethe._newton(np.array([seed, _n7_ground_set()]), N7_CONFIG, p)
    assert isinstance(errors[0], NumericFailureError) and str(errors[0]) == NEWTON_FAILURE
    assert errors[1] is None and polished[1].tobytes() == _n7_ground_set().tobytes()


@pytest.mark.parametrize(
    "jacobian",
    [
        lambda e, config, params: np.zeros((*e.shape, e.shape[1])),  # LinAlgError
        lambda e, config, params: np.full((*e.shape, e.shape[1]), np.nan),  # non-finite step
        lambda e, config, params, jac=bethe._jacobian: -jac(e, config, params),  # ascent
    ],
    ids=["singular-jacobian", "non-finite-step", "no-decrease-on-the-last-step"],
)
def test_newton_fails_where_a_step_cannot_be_taken(monkeypatch, jacobian):
    p = n7_params()
    seed = _n7_ground_set() + 1e-3
    monkeypatch.setattr(bethe, "_jacobian", jacobian)
    # one step in the budget: the third case fails on the last (only) step
    monkeypatch.setattr(bethe, "MAX_ITERATIONS", 1)
    with pytest.raises(NumericFailureError, match=f"^{NEWTON_FAILURE}$"):
        _newton_row(seed)


def test_newton_checks_the_residual_after_its_last_step(monkeypatch):
    # a seed off by 1e-3 needs a few steps: the smallest budget that polishes
    # it returns from the check after the last step, and every smaller budget
    # runs out with the one Newton error
    p = n7_params()
    seed = _n7_ground_set() + 1e-3
    polished = []
    for budget in range(1, 8):
        monkeypatch.setattr(bethe, "MAX_ITERATIONS", budget)
        try:
            polished.append(_newton_row(seed))
        except NumericFailureError as exc:
            assert str(exc) == NEWTON_FAILURE
            polished.append(None)
    fewest = next(k for k, energies in enumerate(polished) if energies is not None)
    assert fewest >= 2 and all(energies is not None for energies in polished[fewest:])
    np.testing.assert_allclose(polished[fewest], _n7_ground_set(), atol=1e-9)


def _seed_row(vector, weights, params):
    # one vector inverted on a one-row stack: its seed, or its error raised
    seeds, (error,) = bethe._invert_pairons(vector[None], weights, params)
    if error is not None:
        raise error
    return seeds[0]


def test_invert_pairons_refuses_vectors_without_a_finite_seed():
    p = make_params(4, 0.75, 0.5)
    config = SectorConfig(2, 0, 0)
    weights = bethe._ladder_weights(config)
    # both end amplitudes vanish: the ratio ladder is 0/0
    with pytest.raises(
        NumericFailureError, match="^the eigenvector's amplitude ratios over- or underflow$"
    ):
        _seed_row(np.array([0.0, 1.0, 0.0]), weights, p)
    # M = 1 with equal scaled amplitudes: the Moebius root x = 1 is E = infinity
    config = SectorConfig(1, 0, 0)
    weights = bethe._ladder_weights(config)
    with pytest.raises(
        NumericFailureError, match="^a Moebius root sits at 1, an infinite pair energy$"
    ):
        _seed_row(weights * 0.5, weights, make_params(2, 0.75, 0.5))


@pytest.mark.parametrize("config", [SectorConfig(1, 0, 0), SectorConfig(3, 1, 1)])
def test_a_batch_whose_every_seed_fails_runs_the_later_steps_on_no_rows(config):
    # zero vectors give no finite seed, so Newton, the eigenvalue and the
    # residual each take an empty (0, M) stack and every level keeps its seed error
    p = make_params(config.n, 0.75, 0.5)
    vectors = np.zeros((2, config.m + 1))
    exact = [(1, -1.0, vectors[0]), (2, 1.0, vectors[1])]
    levels = bethe._solve_batch(exact, vectors, bethe._ladder_weights(config), config, p)
    for level in levels:
        assert level.solution is None
        assert str(level.error) == "the eigenvector's amplitude ratios over- or underflow"


@pytest.mark.parametrize(
    "v, w, g, eta",
    [
        (1e308, 9e307, "inf", "-inf"),
        (1e308, -9e307, "nan", "-0.0"),
        (9e307, 1e308, "-inf", "-inf"),
    ],
)
def test_overflowing_pair_energy_parameters_refuse_the_sector(v, w, g, eta):
    # V +/- W overflows: the couplings are finite but g or eta is not
    p = make_params(3, v, w)
    message = f"pair-energy parameters overflow at V={v!r}, W={w!r} (g={g}, eta={eta})"
    for config in sector_configs(3):
        levels = solve_levels(config, p)
        assert len(levels) == 2
        assert all(isinstance(level.error, InvalidArgumentError) for level in levels)
        assert all(level.error is levels[0].error for level in levels)
        assert str(levels[0].error) == message
        # a set scored on that sector meets the same refusal, not a NaN
        for score in (solve_bethe, lambda c, q: residual([0.5], c, q),
                      lambda c, q: eigenvalue([0.5], c, q)):
            with pytest.raises(InvalidArgumentError) as excinfo:
                score(config, p)
            assert str(excinfo.value) == message


def test_an_empty_set_needs_no_pair_energy_parameters():
    # M = 0 at the same overflowing couplings: the set is empty and still solved
    p = make_params(1, 1e308, 9e307)
    assert math.isinf(p.eta) and math.isinf(p.g)
    (sol,) = solve_bethe(SectorConfig(0, 1, 0), p)
    assert sol.energies == () and sol.omega == 9e307 / 2
    assert eigenvalue((), SectorConfig(0, 1, 0), p) == sol.omega


def _outcome(level):
    # every field of a Level outcome, as bytes or as the error's type and message
    head = (level.index, np.float64(level.omega).tobytes())
    if level.error is not None:
        return (*head, type(level.error), str(level.error))
    sol = level.solution
    return (*head, np.array(sol.energies).tobytes(), np.float64(sol.omega).tobytes(),
            np.float64(sol.residual_norm).tobytes(), sol.index)


def _oracle_outcomes(config, p):
    values, vectors = sector_spectrum(config, p)
    weights = bethe._ladder_weights(config)
    return [
        _outcome(solve_level(j + 1, float(values[j]), vectors[:, j].copy(), weights, config, p))
        for j in range(values.size)
    ]


def _drops_degree(vector, config):
    # the anchored ratio ladder ends in an exact 0: np.roots drops that coefficient
    scaled = vector / bethe._ladder_weights(config)
    end = scaled[-1] if abs(scaled[0]) >= abs(scaled[-1]) else scaled[0]
    return end == 0.0


ORACLE_GRID = [
    *[(n, v, w) for v, w in [(0.75, 0.5), (1.3, -0.4), (0.2, 1.5), (0.5921, -1.6233)]
      for n in range(1, 17)],
    (56, 0.75, 0.5),  # trigonometric sets lost to the Newton
    (64, 0.75, 0.5),  # several batches per sector
    # degree-dropping rows whose ComplexPaironsError names a root of the
    # degree np.roots keeps (the full degree moves its last digits)
    (100, 0.2, 1.5),
]


def test_solve_levels_matches_the_per_level_oracle_bit_for_bit():
    # the batched solve gives every level the outcome the per-level path gives it:
    # energies, omega and residual norm to the bit, or the same error and message
    kinds, dropped = set(), 0
    for n, v, w in ORACLE_GRID:
        p = make_params(n, v, w)
        for config in sector_configs(n):
            levels = solve_levels(config, p)
            got = [_outcome(level) for level in levels]
            assert got == _oracle_outcomes(config, p), (n, v, w, config)
            for level in levels:
                kinds.add(type(level.error) if level.error else SpectralSolution)
                if isinstance(level.error, ComplexPaironsError):
                    dropped += _drops_degree(level.vector, config)
    assert kinds == {SpectralSolution, NumericFailureError, ComplexPaironsError}
    assert dropped >= 2


def test_a_singular_jacobian_fails_only_its_own_row(monkeypatch):
    # the stacked solve refuses the whole batch when one matrix is singular;
    # only the row whose Jacobian it is fails, and every row polishes as the
    # per-level Newton polishes it under the same Jacobian
    p = n7_params()
    seeds = np.array([level.solution.energies for level in solve_levels(N7_CONFIG, p)]) + 1e-3
    marker = seeds[1, 0]
    jacobian = bethe._jacobian

    def singular_at_the_marker(e, config, params):
        jac = jacobian(e, config, params)
        jac[e[:, 0] == marker] = 0.0
        return jac

    monkeypatch.setattr(bethe, "_jacobian", singular_at_the_marker)
    polished, errors = bethe._newton(seeds, N7_CONFIG, p)
    assert [error is None for error in errors] == [True, False, True, True]
    assert str(errors[1]) == NEWTON_FAILURE
    for seed, row, error in zip(seeds, polished, errors):
        try:
            alone = level_newton(seed, N7_CONFIG, p)
        except NumericFailureError as exc:
            assert str(exc) == str(error)
        else:
            assert error is None and row.tobytes() == alone.tobytes()


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 6, 60])
def test_newton_rows_match_the_per_level_newton(monkeypatch, budget):
    # perturbed seeds take damped steps, converge on their last step, run out
    # of budget or fail; stacked, each row ends as the per-level Newton ends it
    monkeypatch.setattr(bethe, "MAX_ITERATIONS", budget)
    p = n7_params()
    sets = np.array([level.solution.energies for level in solve_levels(N7_CONFIG, p)])
    rng = np.random.default_rng(3)
    seeds = np.concatenate([sets + 1e-3, sets + rng.normal(0.0, 0.3, sets.shape), sets * 1.5])
    polished, errors = bethe._newton(seeds, N7_CONFIG, p)
    for seed, row, error in zip(seeds, polished, errors):
        try:
            alone = level_newton(seed, N7_CONFIG, p)
        except NumericFailureError as exc:
            assert str(error) == str(exc)
        else:
            assert error is None and row.tobytes() == alone.tobytes()


def test_a_level_outcome_does_not_depend_on_its_batch(monkeypatch):
    # one level per batch gives the bits of the default batches
    cases = [(make_params(64, 0.75, 0.5), SectorConfig(32, 0, 0)),
             (make_params(100, 0.2, 1.5), SectorConfig(50, 0, 0))]
    default = [[_outcome(level) for level in solve_levels(config, p)] for p, config in cases]
    monkeypatch.setattr(bethe, "_BATCH_CAP", 1)
    single = [[_outcome(level) for level in solve_levels(config, p)] for p, config in cases]
    assert single == default
