"""The benchmark's fast self-tests, run with the suite.

``bench/selftest.py`` traces and checks the package through its public
names (``lmg.vqe.run`` among them), so a package edit that breaks one of
them fails here, not only in the full self-test.  Its reduced workload runs
(``MetricsEmitted``) take seconds and stay out of this suite.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_fast_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST), "PerturbedReference", "Recorder"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
