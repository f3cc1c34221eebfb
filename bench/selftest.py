"""Self-test of the lmg benchmark (not part of the repository's test suite).

    python3 bench/selftest.py

Runs every workload at reduced size, traced and untraced, and checks that
the result line names every metric of BENCHMARK.json with its unit.  Checks
that a perturbed reference value is counted as a failure, and that the span
recorder puts the original functions back and computes self time.
"""

import contextlib
import json
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import lmg  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def reduced_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for spec in SPEC["workloads"]:
                with self.subTest(workload=spec["name"], trace=trace):
                    result = reduced_run(spec["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))


class PerturbedReference(unittest.TestCase):
    """A reference moved by far more than the tolerance must fail every check."""

    def run_small(self, name: str, perturb: float) -> workloads.Tally:
        original = workloads.oracle_block

        def shifted(n, v, w, parity):
            block = original(n, v, w, parity)
            return block + perturb * np.eye(block.shape[0])

        tally = workloads.Tally()
        workloads.oracle_block = shifted
        try:
            for op in workloads.WORKLOADS[name].generate(5, True):
                workloads.WORKLOADS[name].run(op, contextlib.nullcontext(), tally, None)
        finally:
            workloads.oracle_block = original
        return tally

    def test_unperturbed_reference_passes(self):
        for name in ("spectrum", "prepare"):
            with self.subTest(workload=name):
                tally = self.run_small(name, 0.0)
                self.assertGreater(tally.attempted, 0)
                self.assertEqual(tally.failed, 0, tally.notes)

    def test_perturbed_reference_fails(self):
        for name in ("spectrum", "vqe", "prepare"):
            with self.subTest(workload=name):
                tally = self.run_small(name, 1e-4)
                self.assertEqual(tally.failed, tally.attempted, tally.notes)

    def test_cli_contract(self):
        error = dict(argv=["verify", "--only", "bogus"], expect="error")
        traceback = "Traceback (most recent call last):\n  ...\nKeyError: 'bogus'\n"
        self.assertIsNotNone(workloads.command_problem(error, 1, "", traceback, ROOT))
        good = '{"error": {"message": "m", "type": "InvalidArgumentError"}}\n'
        self.assertIsNone(workloads.command_problem(error, 1, "", good, ROOT))
        energy = dict(argv=["simulate"], expect="json", energy=-3.0)
        self.assertIsNone(workloads.command_problem(energy, 0, '{"energy": -3.0}', "", ROOT))
        self.assertIsNotNone(
            workloads.command_problem(energy, 0, '{"energy": -2.999999}', "", ROOT))


class Recorder(unittest.TestCase):
    def test_install_and_restore(self):
        before = lmg.vqe.run, lmg.solve_bethe, lmg.bethe.sector_spectrum
        tracer = spans.Tracer()
        tracer.install(lmg)
        self.assertIsNot(lmg.vqe.run, before[0])
        self.assertIs(lmg.vqe.run, lmg.simulator.run)
        tracer.active = True
        params = lmg.make_params(6, 0.75, 0.5)
        lmg.solve_bethe(lmg.SectorConfig(3, 0, 0), params)
        tracer.active = False
        tracer.restore()
        self.assertEqual((lmg.vqe.run, lmg.solve_bethe, lmg.bethe.sector_spectrum), before)
        names = [s[0] for s in tracer.spans]
        self.assertIn("bethe.solve_bethe", names)
        self.assertIn("model.sector_spectrum", names)
        parent = names.index("bethe.solve_bethe")
        self.assertTrue(any(s[3] == parent for s in tracer.spans))
        metrics = spans.layer_metrics(tracer.spans)
        self.assertEqual(metrics["bethe.solve_bethe.calls"], 1)
        self.assertEqual(metrics["bethe.yield"], 1.0)

    def test_self_time(self):
        recorded = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                    ["c", 2.0, 3.0, 1, None], ["b", 5.0, 7.0, 0, None]]
        stats = spans.summarize(recorded)
        self.assertAlmostEqual(stats["a"]["self_s"], 5.0)
        self.assertAlmostEqual(stats["b"]["s"], 5.0)
        self.assertAlmostEqual(stats["b"]["self_s"], 4.0)
        self.assertEqual(stats["b"]["calls"], 2)


if __name__ == "__main__":
    unittest.main()
