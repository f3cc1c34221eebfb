"""Self-check registry: every acceptance fixture and invariant, timed.

Each check returns (passed, detail); the runner wraps them with wall-clock
timing and, where a check carries a runtime budget, enforces it.  The CLI
``verify`` subcommand and the acceptance test suite both run this registry,
so there is a single source of truth for what "correct" means.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import reference as ref
from .bethe import eigenvalue, residual, solve_bethe
from .circuit import AngleSet, build_circuit, encode, linear_angles, log_angles
from .eigenstates import build_eigenstate
from .errors import InvalidArgumentError, LmgError
from .model import (
    SectorConfig,
    apply_hamiltonian,
    canonical_sign,
    exact_spectrum,
    make_params,
    sector_configs,
    sector_spectrum,
)
from .simulator import encoded_expectation, fidelity, pauli_groups, run, sampled_expectation
from .vqe import VqeOptions, optimize

__all__ = ["CheckResult", "available_checks", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _normalized(values):
    arr = np.asarray(values, dtype=float)
    return arr / np.linalg.norm(arr)


def _angles_close_mod_4pi(got, want, tol):
    period = 4 * math.pi
    worst = 0.0
    for x, y in zip(got, want):
        delta = (x - y) % period
        worst = max(worst, min(delta, period - delta))
    return worst, worst < tol


def check_n7_pairons():
    """Ground-sector pair energies of the 7-particle reference instance."""
    p = make_params(**ref.N7)
    sols = solve_bethe(SectorConfig(3, 1, 0), p)
    worst = float(np.max(np.abs(np.array(sols[0].energies) - np.array(ref.N7_PAIRONS))))
    ok = worst < 1e-5 and len(sols) == 4
    return ok, f"max pairon deviation {worst:.2e} (tol 1e-5)"


def check_n7_energy():
    """Bethe ground energy and both circuit expectation values at N = 7."""
    p = make_params(**ref.N7)
    config = SectorConfig(3, 1, 0)
    ground = solve_bethe(config, p)[0]
    d_omega = abs(ground.omega - ref.N7_ENERGY)
    target = encode(build_eigenstate(ground), config)
    rels = {}
    for mode, maker in (("linear", linear_angles), ("log", log_angles)):
        state = run(build_circuit(maker(target)))
        energy = encoded_expectation(state, config, p)
        rels[mode] = abs(energy - ground.omega) / abs(ground.omega)
    # six-figure reference angles reproduce the published error scale
    ref_lin = encoded_expectation(
        run(build_circuit(AngleSet(ref.N7_LINEAR_ANGLES, "linear"))), config, p
    )
    rel_ref = abs(ref_lin - ground.omega) / abs(ground.omega)
    ok = (
        d_omega <= 1e-9
        and rels["linear"] <= 1e-9
        and rels["log"] <= 1e-9
        and rel_ref <= 1e-9
    )
    return ok, (
        f"|omega - reference| = {d_omega:.2e} (tol 1e-9); circuit rel errors "
        f"linear {rels['linear']:.1e}, log {rels['log']:.1e}, six-figure angles {rel_ref:.1e}"
    )


def check_n7_angles():
    """Angle lists for the 7-particle ground state, both depth modes."""
    target = _normalized(ref.N7_STATE)
    lin = linear_angles(target)
    worst_lin, ok_lin = _angles_close_mod_4pi(lin.thetas, ref.N7_LINEAR_ANGLES, 1e-4)
    logm = log_angles(target)
    worst_log, ok_log = _angles_close_mod_4pi(logm.thetas, ref.N7_LOG_ANGLES, 1e-4)
    # the reference log angles sit in the same gauge class: same prepared state
    fid = fidelity(run(build_circuit(AngleSet(ref.N7_LOG_ANGLES, "log"))), target)
    ok = ok_lin and ok_log and fid >= 1 - 1e-9
    return ok, (
        f"linear deviation {worst_lin:.2e}, log deviation {worst_log:.2e} (tol 1e-4); "
        f"reference-gauge fidelity {fid:.12f}"
    )


def check_n20_ground():
    """Twenty-particle ground state: amplitudes, angles, linearized angles, log angles."""
    p = make_params(**ref.N20)
    omega, state = exact_spectrum(p)[0]
    amps = state.amps
    want = np.array(ref.N20_STATE)
    rel = np.abs((amps - want) / want)
    order = np.argsort(-np.abs(want))
    ok_amps = bool(np.all(rel[order[:4]] < 1e-5) and np.all(rel[order[4:]] < 1e-4))
    angles = linear_angles(amps)
    worst_ang, ok_ang = _angles_close_mod_4pi(angles.thetas, ref.N20_LINEAR_ANGLES, 1e-4)
    # small-amplitude linearization of the angle formula for the first four angles
    worst_lin = max(
        abs((math.pi - 2 * amps[11 - j]) - angles.thetas[j - 1]) for j in (1, 2, 3, 4)
    )
    # the reference log angles, in another sign gauge, prepare the same state
    fid = fidelity(run(build_circuit(AngleSet(ref.N20_LOG_ANGLES, "log"))), amps)
    ok = ok_amps and ok_ang and worst_lin < 1e-4 and fid >= 1 - 1e-9
    return ok, (
        f"max amplitude rel err {np.max(rel):.2e}; angle deviation {worst_ang:.2e}; "
        f"linearized-angle deviation {worst_lin:.2e}; reference-gauge fidelity {fid:.12f}"
    )


def check_completeness():
    """Bethe + state builder reproduce the full spectrum for N <= 12."""
    rng = np.random.default_rng(2024)
    worst_omega = 0.0
    worst_resid = 0.0
    for n in range(1, 13):
        for _ in range(20):
            v = rng.uniform(0.25, 1.4)
            w = rng.uniform(-0.8, 0.8) * v
            p = make_params(n, v, w)
            omegas = []
            for config in sector_configs(n):
                for sol in solve_bethe(config, p):
                    omegas.append(sol.omega)
                    psi = build_eigenstate(sol)
                    delta = apply_hamiltonian(psi, p).amps - sol.omega * psi.amps
                    worst_resid = max(worst_resid, float(np.linalg.norm(delta)))
            exact = [omega for omega, _ in exact_spectrum(p)]
            if len(omegas) != n + 1:
                return False, f"found {len(omegas)} states for N={n}, expected {n + 1}"
            worst_omega = max(worst_omega, float(np.max(np.abs(np.sort(omegas) - exact))))
    ok = worst_omega <= 1e-8 and worst_resid <= 1e-8
    return ok, (
        f"240 instances: max eigenvalue deviation {worst_omega:.2e}, max state residual "
        f"{worst_resid:.2e} (tol 1e-8)"
    )


def check_closed_forms():
    """The solver against the two- and three-particle closed forms.

    ``solve_bethe`` (hyperbolic instances allowed) must reproduce both
    eigenpairs of every N = 2 and N = 3 sector and the N = 2 pair energies.
    The decoupled W = 0 pair of N = 4 is checked on its own: its eigenvalue
    must be a level of the diagonalization, and it must solve the coupled
    pair-energy equations.
    """
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10):
        v = rng.uniform(0.25, 1.5)
        w = rng.uniform(-1.4, 1.4)
        if abs(v * v - w * w) < 1e-3:
            w *= 0.5
        # N=2: both eigenstates and the quadratic's roots
        p2 = make_params(2, v, w)
        sols = solve_bethe(SectorConfig(1, 0, 0), p2, allow_hyperbolic=True)
        for sol, (omega_shiftless, vec) in zip(sols, ref.n2_states(v)):
            built = canonical_sign(build_eigenstate(sol).amps)
            worst = max(worst, float(np.max(np.abs(built - canonical_sign(vec)))))
            worst = max(worst, abs(sol.omega - (w / 2 + omega_shiftless)))
        roots = [e for s in sols for e in s.energies]
        worst = max(worst, float(np.max(np.abs(np.sort(roots) - ref.n2_pairons(v, w)))))
        # N=3: both sectors
        p3 = make_params(3, v, w)
        closed3 = ref.n3_states(v, w)
        for config in sector_configs(3):
            for sol, (omega_ref, vec) in zip(
                solve_bethe(config, p3, allow_hyperbolic=True),
                closed3[(config.nu_a, config.nu_b)],
            ):
                worst = max(worst, abs(sol.omega - omega_ref))
                built = canonical_sign(build_eigenstate(sol).amps)
                worst = max(worst, float(np.max(np.abs(built - canonical_sign(vec)))))
        # N=4 decoupled two-pair set (W = 0): its eigenvalue against the
        # nearest level of the diagonalization, and the coupled equations
        p4 = make_params(4, v, 0.0)
        config4 = SectorConfig(2, 0, 0)
        pair = ref.w0_pairons(v, 4, 0)
        omega4 = eigenvalue(pair, config4, p4)
        worst = max(worst, float(np.min(np.abs(sector_spectrum(config4, p4)[0] - omega4))))
        worst = max(worst, float(np.max(np.abs(residual(pair, config4, p4)))))
    ok = worst < 1e-10
    return ok, f"max closed-form deviation {worst:.2e} (tol 1e-10)"


def check_universality():
    """Both circuits reach random targets exactly; gate and layer counts hold."""
    rng = np.random.default_rng(4242)
    worst = 1.0
    for m in range(1, 11):
        for _ in range(100):
            target = _normalized(rng.standard_normal(m + 1))
            for maker, mode in ((linear_angles, "linear"), (log_angles, "log")):
                circ = build_circuit(maker(target))
                if circ.two_qubit_gate_count != 2 * m:
                    return False, f"gate count {circ.two_qubit_gate_count} != {2 * m} at M={m}"
                if mode == "log":
                    expected = 2 * (math.floor(math.log2(m)) + 1)
                    if circ.two_qubit_layer_count != expected:
                        return False, f"layer count mismatch at M={m}"
                worst = min(worst, fidelity(run(circ), target))
    ok = worst >= 1 - 1e-10
    return ok, f"minimum preparation fidelity {worst:.15f} (tol 1 - 1e-10)"


def check_product_forms():
    """Simulated amplitudes match the tabulated product forms for M <= 5."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for m in range(0, 6):
        for _ in range(20):
            thetas = tuple(rng.uniform(-2 * math.pi, 2 * math.pi, m))
            for mode, oracle in (
                ("linear", ref.linear_product_form),
                ("log", ref.log_product_form),
            ):
                got = run(build_circuit(AngleSet(thetas, mode))).one_hot_block().real
                worst = max(worst, float(np.max(np.abs(got[: m + 1] - oracle(m, thetas)))))
    ok = worst < 1e-12
    return ok, f"max amplitude deviation {worst:.2e} (tol 1e-12)"


def check_vqe():
    """Cold, warm, and sampled optimization land where they should."""
    details = []
    ok = True
    for n, v, w in ((5, 0.9, 0.3), (8, 0.8, 0.25)):
        p = make_params(n, v, w)
        config = exact_spectrum(p)[0][1].sector
        cold = optimize(config, p, VqeOptions(restarts=10, seed=7))
        ok &= cold.abs_error < 1e-6
        details.append(f"cold N={n}: |dE|={cold.abs_error:.1e}")
    p7 = make_params(**ref.N7)
    warm = optimize(SectorConfig(3, 1, 0), p7, VqeOptions(restarts=1, warm=True))
    ok &= warm.abs_error < 1e-10
    details.append(f"warm N=7: |dE|={warm.abs_error:.1e}")
    config7 = SectorConfig(3, 1, 0)
    target = encode(build_eigenstate(solve_bethe(config7, p7)[0]), config7)
    state = run(build_circuit(linear_angles(target)))
    exact = encoded_expectation(state, config7, p7)
    estimate, stderr = sampled_expectation(state, pauli_groups(config7, p7), 1_000_000, 2024)
    ok &= abs(estimate - exact) < 5 * stderr
    details.append(f"sampled 1e6 shots: |dE|={abs(estimate - exact):.1e} vs 5*sem={5 * stderr:.1e}")
    return bool(ok), "; ".join(details)


CHECKS = {
    "n7-pairons": check_n7_pairons,
    "n7-energy": check_n7_energy,
    "n7-angles": check_n7_angles,
    "n20-ground": check_n20_ground,
    "completeness": check_completeness,
    "closed-forms": check_closed_forms,
    "universality": check_universality,
    "product-forms": check_product_forms,
    "vqe": check_vqe,
}

# wall-clock seconds a check must finish within to pass, timed by run_checks
BUDGETS = {"n7-pairons": 1.0, "n7-energy": 1.0, "n20-ground": 5.0, "completeness": 60.0}


def available_checks() -> list[str]:
    return list(CHECKS)


def run_checks(names: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) and collect timed results.

    A check with an entry in BUDGETS fails when it runs over that budget.
    """
    selected = names or list(CHECKS)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise InvalidArgumentError(
            f"unknown check {unknown[0]!r}; available: {', '.join(CHECKS)}"
        )
    results = []
    for name in selected:
        start = time.perf_counter()
        try:
            passed, detail = CHECKS[name]()
        except LmgError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if name in BUDGETS:
            passed = passed and seconds < BUDGETS[name]
            detail += f"; took {seconds:.3f}s (budget {BUDGETS[name]:g}s)"
        results.append(CheckResult(name, bool(passed), detail, seconds))
    return results
