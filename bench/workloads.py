"""Workload inputs, runners and output checks for the lmg benchmark.

Each workload turns the benchmark seed into a fixed list of operations
(``generate``) and runs one operation at a time (``run``).  Program calls run
inside ``with watch:`` so only they are timed (and, in a traced pass,
traced); the checks run outside it and count failures in a ``Tally`` instead
of raising them.

Reference values come from ``oracle_block``, a dense matrix of the LMG
Hamiltonian built here from its defining formula, so the checks do not rely
on the code they check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import lmg


def _trig_couplings(rng) -> tuple[float, float]:
    """Trigonometric (V, W) from the regime ``lmg verify completeness`` samples."""
    v = float(rng.uniform(0.25, 1.4))
    return v, float(rng.uniform(-0.8, 0.8) * v)


def oracle_block(n: int, v: float, w: float, parity: int) -> np.ndarray:
    """Dense H on the parity ladder |n - parity - 2k, parity + 2k>, k = 0, 1, ...

    H = (n_b - n_a)/2 + (V/2N)(b+b+aa + a+a+bb) + (W/N)((n_a + n_b)/2 + n_a n_b);
    b+b+aa moves |n_a, n_b> to |n_a - 2, n_b + 2> with weight
    sqrt(n_a (n_a - 1)(n_b + 1)(n_b + 2)).
    """
    k = np.arange((n - parity) // 2 + 1, dtype=float)
    na = n - parity - 2 * k
    nb = parity + 2 * k
    h = np.diag((nb - na) / 2 + (w / n) * ((na + nb) / 2 + na * nb))
    hop = (v / (2 * n)) * np.sqrt(na[:-1] * (na[:-1] - 1) * (nb[:-1] + 1) * (nb[:-1] + 2))
    return h + np.diag(hop, 1) + np.diag(hop, -1)


def oracle_levels(n: int, v: float, w: float, parity: int) -> np.ndarray:
    """Ascending eigenvalues of one parity block."""
    return np.linalg.eigvalsh(oracle_block(n, v, w, parity))


@dataclass
class Tally:
    """Operations attempted and failed.

    ``wrong`` counts failures where an exact path returned a wrong value
    without raising; ``crashed`` counts operations that raised something
    other than an ``LmgError``.  Either makes the run's result incorrect.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    crashed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, count: int = 1, wrong: bool = False) -> None:
        self.failed += count
        self.wrong += count if wrong else 0
        if len(self.notes) < 20:
            self.notes.append(note)


# --------------------------------------------------------------------------
# spectrum: exact_spectrum, solve_bethe per sector, build_eigenstate per set
# --------------------------------------------------------------------------

SMALL_N_PER_N = 2  # seeded instances for each N = 1..12
LARGE_N = (16, 24, 40, 56, 60, 64)  # at V = 0.75, W = 0.5; 56 and up fail at the seed
LARGE_N_SEEDED = (20, 28)  # plus seeded couplings


def generate_spectrum(seed: int, small: bool = False) -> list[tuple]:
    rng = np.random.default_rng([seed, 1])
    if small:
        return [(n, *_trig_couplings(rng)) for n in (3, 6)] + [(16, 0.75, 0.5)]
    ops = [(n, *_trig_couplings(rng)) for n in range(1, 13) for _ in range(SMALL_N_PER_N)]
    ops += [(n, 0.75, 0.5) for n in LARGE_N]
    ops += [(n, float(rng.uniform(0.6, 0.9)), float(rng.uniform(0.3, 0.55))) for n in LARGE_N_SEEDED]
    return ops


def run_spectrum(op, watch, tally: Tally, ctx=None) -> None:
    """One instance; the operations counted are its N + 1 eigenstates."""
    n, v, w = op
    sectors = []
    with watch:
        params = lmg.make_params(n, v, w)
        exact = lmg.exact_spectrum(params)
        for config in lmg.sector_configs(n):
            try:
                sols = lmg.solve_bethe(config, params)
            except lmg.LmgError as exc:
                sectors.append((config, None, f"{type(exc).__name__}: {exc}"))
                continue
            states = []
            for sol in sols:
                try:
                    states.append((sol, lmg.build_eigenstate(sol)))
                except lmg.LmgError as exc:
                    states.append((sol, f"{type(exc).__name__}: {exc}"))
            sectors.append((config, states, None))
    tally.attempted += n + 1
    for config, states, error in sectors:
        where = f"N={n} V={v:.6g} W={w:.6g} sector ({config.m},{config.nu_a},{config.nu_b})"
        levels = [om for om, psi in exact if psi.parity == config.parity]
        if not exact_matches(n, v, w, config.parity, levels):
            tally.fail(f"{where}: exact_spectrum disagrees with the oracle",
                       count=config.m + 1, wrong=True)
            continue
        if error is not None:
            tally.fail(f"{where}: {error}", count=config.m + 1)
            continue
        block = oracle_block(n, v, w, config.parity)
        if len(states) != config.m + 1:
            tally.fail(f"{where}: {len(states)} of {config.m + 1} solution sets",
                       count=config.m + 1 - len(states), wrong=True)
        for j, (sol, psi) in enumerate(states):
            if isinstance(psi, str):
                tally.fail(f"{where} state {j + 1}: {psi}")
                continue
            deviation = abs(sol.omega - levels[j])
            residual = float(np.linalg.norm(block @ psi.amps - sol.omega * psi.amps))
            if deviation > 1e-8 or residual > 1e-8:
                tally.fail(f"{where} state {j + 1}: |omega - exact| {deviation:.3g}, "
                           f"|H psi - omega psi| {residual:.3g}", wrong=True)


def exact_matches(n, v, w, parity, levels) -> bool:
    """Whether exact_spectrum's levels of one block agree with the oracle's."""
    ref = oracle_levels(n, v, w, parity)
    got = np.sort(np.asarray(levels, dtype=float))
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= 1e-9 * max(1.0, n)))


# --------------------------------------------------------------------------
# vqe: cold optimize jobs on the ground sector
# --------------------------------------------------------------------------

N8 = (8, 0.8, 0.25)
N20 = (20, 0.75, 0.5)
SIGMA_SEED_OFFSET = 1_000_003  # the sigma reference uses an independent stream


def generate_vqe(seed: int, small: bool = False) -> list[dict]:
    rng = np.random.default_rng([seed, 2])

    def job(inst, estimator, restarts, job_seed):
        n, v, w = inst
        # shots only matter to the sampled estimator
        return dict(n=n, v=v, w=w, estimator=estimator, shots=10_000,
                    restarts=restarts, seed=int(job_seed))

    if small:
        return [job((4, 0.8, 0.25), "exact", 2, rng.integers(2**31)),
                job((4, 0.8, 0.25), "sampled", 1, rng.integers(2**31))]
    # A single N = 20 job's evaluation count swings 10k-15k with its seed, so
    # the N = 20 jobs keep fixed seeds and the seeded N = 8 jobs average out.
    jobs = [job(N8, "exact", 10, rng.integers(2**31)) for _ in range(4)]
    jobs.append(job(N20, "exact", 3, 0))
    jobs += [job(N8, "sampled", 3, rng.integers(2**31)) for _ in range(2)]
    jobs.append(job(N20, "sampled", 3, 0))
    return jobs


def _ground_sector(params) -> "lmg.SectorConfig":
    parity = lmg.exact_spectrum(params)[0][1].parity
    return next(c for c in lmg.sector_configs(params.n) if c.parity == parity)


def run_vqe(job, watch, tally: Tally, ctx=None) -> None:
    """One optimize job; |dE| <= 1e-6 exact, <= 5 sigma sampled."""
    tally.attempted += 1
    with watch:
        params = lmg.make_params(job["n"], job["v"], job["w"])
        config = _ground_sector(params)
        opts = lmg.VqeOptions(restarts=job["restarts"], seed=job["seed"],
                              estimator=job["estimator"], shots=job["shots"])
        try:
            result = lmg.optimize(config, params, opts)
        except lmg.LmgError as exc:
            result = f"{type(exc).__name__}: {exc}"
    label = f"{job['estimator']} N={job['n']} seed={job['seed']}"
    if isinstance(result, str):
        tally.fail(f"{label}: {result}")
        return
    ground = oracle_levels(job["n"], job["v"], job["w"], config.parity)[0]
    if abs(result.exact_energy - ground) > 1e-9:
        tally.fail(f"{label}: reference energy {result.exact_energy!r} != oracle {ground!r}",
                   wrong=True)
        return
    error = abs(result.best_energy - ground)
    if job["estimator"] == "exact":
        limit = 1e-6
    else:
        limit = 5.0 * ground_sigma(config, params, job["shots"], job["seed"] + SIGMA_SEED_OFFSET)
    if error > limit:
        tally.fail(f"{label}: |dE| {error:.3g} > {limit:.3g}")


def ground_sigma(config, params, shots: int, seed: int) -> float:
    """Standard error of sampled_expectation on the exact ground-state circuit."""
    _, vecs = lmg.sector_spectrum(config, params)
    target = lmg.encode(lmg.FockVector(config.n, config.parity, vecs[:, 0]), config)
    state = lmg.run(lmg.build_circuit(lmg.linear_angles(target)))
    return lmg.sampled_expectation(state, lmg.pauli_groups(config, params), shots, seed)[1]


# --------------------------------------------------------------------------
# prepare: compile every eigenstate once, export it, simulate it
# --------------------------------------------------------------------------

PREPARE_N = (100, 200)
DENSE_QUBITS = (16, 18, 20)


def generate_prepare(seed: int, small: bool = False) -> list[tuple]:
    rng = np.random.default_rng([seed, 3])
    full_n, dense_q = ((10,), (6,)) if small else (PREPARE_N, DENSE_QUBITS)
    ops = [("full", n, *_trig_couplings(rng)) for n in full_n]
    for q in dense_q:
        m = q - 1
        v, w = _trig_couplings(rng)
        ops.append(("dense", 2 * m, v, w, int(rng.integers(0, m + 1)),
                    ("linear", "log")[int(rng.integers(0, 2))]))
    return ops


def run_prepare(op, watch, tally: Tally, ctx=None) -> None:
    if op[0] == "dense":
        _run_dense(op, watch, tally)
        return
    _, n, v, w = op
    with watch:
        params = lmg.make_params(n, v, w)
        exact = lmg.exact_spectrum(params)
    configs = {c.parity: c for c in lmg.sector_configs(n)}
    matches = {
        parity: exact_matches(n, v, w, parity, [om for om, psi in exact if psi.parity == parity])
        for parity in configs
    }
    for omega, psi in exact:
        config = configs[psi.parity]
        for maker in (lmg.linear_angles, lmg.log_angles):
            tally.attempted += 1
            if not matches[psi.parity]:
                tally.fail(f"N={n} parity {psi.parity}: exact_spectrum disagrees with the oracle",
                           wrong=True)
                continue
            with watch:
                target = lmg.encode(psi, config)
                circ = lmg.build_circuit(maker(target))
                state = lmg.run(circ)
                fid = lmg.fidelity(state, target)
                energy = lmg.encoded_expectation(state, config, params)
                back = lmg.import_circuit(lmg.export_circuit(circ))
                qasm = lmg.export_circuit(circ, "qasm")
            problems = circuit_problems(fid, energy, omega)
            if back != circ:
                problems.append("JSON round trip changed the gates")
            if qasm.count("\n") != len(circ.gates) + 2:
                problems.append("QASM export has the wrong number of lines")
            if problems:
                tally.fail(f"N={n} omega={omega:.6g} {circ.num_qubits} qubits: "
                           + "; ".join(problems), wrong=True)


def circuit_problems(fid: float, energy: float, omega: float) -> list[str]:
    problems = []
    if not fid >= 1.0 - 1e-10:
        problems.append(f"fidelity {fid!r}")
    if not abs(energy - omega) <= 1e-9:
        problems.append(f"|<H> - omega| {abs(energy - omega):.3g}")
    return problems


def _run_dense(op, watch, tally: Tally) -> None:
    _, n, v, w, index, mode = op
    tally.attempted += 1
    m = n // 2
    with watch:
        params = lmg.make_params(n, v, w)
        config = lmg.SectorConfig(m, 0, 0)
        vals, vecs = lmg.sector_spectrum(config, params)
        target = lmg.encode(lmg.FockVector(n, 0, vecs[:, index]), config)
        circ = lmg.build_circuit((lmg.linear_angles if mode == "linear" else lmg.log_angles)(target))
        dense = lmg.run(circ, lmg.StateVector.zeros(circ.num_qubits, dense=True))
        sparse = lmg.run(circ)
        fid = lmg.fidelity(dense, target)
    gap = float(np.max(np.abs(dense.one_hot_block() - sparse.one_hot_block())))
    if gap > 1e-12 or not fid >= 1.0 - 1e-10 or not exact_matches(n, v, w, 0, vals):
        tally.fail(f"dense N={n} index {index} {mode}: dense/sparse gap {gap:.3g}, "
                   f"fidelity {fid!r}, sector_spectrum vs oracle checked", wrong=True)


# --------------------------------------------------------------------------
# cli: one `python -m lmg.cli` subprocess per command, one at a time
# --------------------------------------------------------------------------

CIRCUIT_FILE = "circuit.json"
N8_ARGS = ["--n", str(N8[0]), "--v", repr(N8[1]), "--w", repr(N8[2])]


def generate_cli(seed: int, small: bool = False) -> list[dict]:
    """Commands with what their output must satisfy.

    ``expect`` is "version", "json" (stdout), "file" (the written circuit)
    or "error" (exit 1 or 2, a JSON error object on stderr, no traceback).
    """
    rng = np.random.default_rng([seed, 4])
    v, w = _trig_couplings(rng)
    inst = ["--n", "7", "--v", repr(v), "--w", repr(w)]
    levels = sorted((om, parity) for parity in (0, 1) for om in oracle_levels(7, v, w, parity))
    index = int(rng.integers(1, 9))
    omega, parity = levels[index - 1]
    sector = "1,0" if parity == 0 else "0,1"
    depth = ("linear", "log")[int(rng.integers(0, 2))]
    cmds = [
        dict(argv=["--version"], expect="version"),
        dict(argv=["spectrum", *inst], expect="json", levels=8),
        dict(argv=["spectrum", "--n", "40", "--v", "0.75", "--w", "0.5"], expect="json", levels=41),
        dict(argv=["bethe", *inst, "--sector", sector], expect="json"),
        dict(argv=["state", *inst, "--index", str(index)], expect="json"),
        dict(argv=["angles", *inst, "--index", str(index), "--depth", depth], expect="json"),
        dict(argv=["circuit", *inst, "--index", str(index), "--depth", depth,
                   "--out", CIRCUIT_FILE], expect="file"),
        dict(argv=["simulate", "--circuit", CIRCUIT_FILE, "--report-energy", *inst,
                   "--sector", sector], expect="json", energy=float(omega)),
        dict(argv=["vqe", *N8_ARGS, "--seed", str(int(rng.integers(2**31))),
                   "--restarts", "10"], expect="json", vqe=True),
        dict(argv=["benchmark", *inst, "--shots", "0"], expect="json"),
        dict(argv=["state", *inst, "--index", "99"], expect="error"),
        dict(argv=["spectrum", "--n", "7", "--v", "nan", "--w", "0.5"], expect="error"),
        dict(argv=["verify", "--only", "bogus"], expect="error"),
    ]
    if small:
        keep = {"--version", "spectrum", "circuit", "simulate", "verify"}
        cmds = [c for c in cmds if c["argv"][0] in keep and c.get("levels") != 41]
    return cmds


def run_cli(cmd, watch, tally: Tally, ctx) -> None:
    """Run one command in a fresh interpreter and check its output contract."""
    tally.attempted += 1
    if cmd["expect"] == "file":
        (ctx.work_dir / CIRCUIT_FILE).unlink(missing_ok=True)
    with watch:
        proc = ctx.run_command(cmd["argv"])
    ctx.collect_spans()
    label = "lmg " + " ".join(cmd["argv"])
    if proc is None:
        tally.crashed += 1
        tally.fail(f"{label}: timed out")
        return
    problem = command_problem(cmd, proc.returncode, proc.stdout, proc.stderr, ctx.work_dir)
    if problem:
        tally.fail(f"{label}: {problem}")


def command_problem(cmd, returncode: int, stdout: str, stderr: str, work_dir) -> str | None:
    """Why a finished command breaks its contract, or None."""
    expect = cmd["expect"]
    if expect == "error":
        if returncode not in (1, 2):
            return f"exit {returncode}, expected 1 or 2"
        if "Traceback" in stderr:
            return "raw traceback on stderr"
        try:
            payload = json.loads(stderr.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "stderr is not a JSON error object"
        return None if isinstance(payload, dict) and "error" in payload else "no error object"
    if returncode != 0:
        return f"exit {returncode}: {stderr.strip().splitlines()[-1:]}"
    if expect == "version":
        return None if stdout.strip() == f"lmg {lmg.__version__}" else f"version {stdout!r}"
    text = stdout
    if expect == "file":
        try:
            with open(work_dir / CIRCUIT_FILE, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            return f"no circuit file: {exc}"
    try:
        payload = json.loads(text)
    except ValueError:
        return "output is not JSON"
    if "levels" in cmd and len(payload.get("levels", ())) != cmd["levels"]:
        return f"{len(payload.get('levels', ()))} levels, expected {cmd['levels']}"
    if "energy" in cmd and not abs(payload.get("energy", float("nan")) - cmd["energy"]) <= 1e-9:
        return f"energy {payload.get('energy')!r}, oracle {cmd['energy']!r}"
    if cmd.get("vqe") and not payload.get("abs_error", 1.0) <= 1e-6:
        return f"abs_error {payload.get('abs_error')!r}"
    return None


@dataclass(frozen=True)
class Workload:
    generate: object
    run: object
    in_process: bool


WORKLOADS = {
    "spectrum": Workload(generate_spectrum, run_spectrum, True),
    "vqe": Workload(generate_vqe, run_vqe, True),
    "prepare": Workload(generate_prepare, run_prepare, True),
    "cli": Workload(generate_cli, run_cli, False),
}
