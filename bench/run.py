"""lmg benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload {spectrum,vqe,prepare,cli} --seed N \
        --seconds S --trace {0,1} [--small]

Run from anywhere; the program under test is the ``src/`` tree next to this
directory, never an installed copy.  The run generates the workload's inputs
from the seed, then runs the whole input list in passes until ``--seconds``
is used up (at least two passes), checking every output.  ``--trace 0``
measures ``setup_s`` by starting fresh interpreters and reports the
end-to-end metrics from untraced passes; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics from the traced ones,
plus interpreter and import probes for the cli layer.  The last
line of standard output is the JSON result.  ``--small`` shrinks every input
list for the self-test.

Subprocesses (set-up probes and CLI commands) run one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 3  # fresh interpreters per run for setup_s (median reported)
LAYER_PROBES = 3  # bare and import-only interpreters per traced run

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s"}
COUNT_UNITS = ("calls", "failed", "bytes", "spans")

SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; "
    "import lmg, lmg.cli, workloads; workloads.WORKLOADS[{name!r}].generate({seed}, {small})"
)


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in COUNT_UNITS:
        return "B" if last == "bytes" else "count"
    if name in ("bethe.yield", "trace.overhead_frac"):
        return "ratio"
    return "s"


class Watch:
    """Accumulates the time spent inside ``with watch:`` blocks.

    In a traced pass it also switches the span recorder on for exactly those
    blocks, so the checks between them are neither timed nor traced.
    """

    def __init__(self, tracer=None):
        self.elapsed = 0.0
        self._tracer = tracer

    def __enter__(self):
        if self._tracer is not None:
            self._tracer.active = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._start
        if self._tracer is not None:
            self._tracer.active = False
        return False


class Context:
    """Where CLI commands run and how; collects their spans in a traced pass."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.env = {k: v for k, v in os.environ.items() if k != "LMG_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.tracer = None
        self._pending: Path | None = None
        self._count = 0

    def run_command(self, argv: list[str]):
        """Run one ``lmg`` command to completion; None if it timed out."""
        if self.tracer is None:
            prefix = [sys.executable, "-m", "lmg.cli"]
        else:
            self._count += 1
            self._pending = self.work_dir / f"spans-{self._count}.json"
            prefix = [sys.executable, str(BENCH / "cli_child.py"), str(self._pending)]
        try:
            return subprocess.run(prefix + argv, cwd=self.work_dir, env=self.env,
                                  capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            return None

    def collect_spans(self) -> None:
        if self._pending is None:
            return
        if self._pending.exists():
            self.tracer.merge(json.loads(self._pending.read_text(encoding="utf-8")))
            self._pending.unlink()
        self._pending = None


def spawn_seconds(code: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def run_pass(lmg, spans, workload, ops, ctx: Context, traced: bool):
    """One pass over the input list: (seconds in program calls per input, tally, tracer)."""
    from workloads import Tally

    tracer = spans.Tracer() if traced else None
    tally = Tally()
    watch = Watch(tracer if workload.in_process else None)
    ctx.tracer = tracer
    if traced and workload.in_process:
        tracer.install(lmg)
    op_seconds = []
    try:
        for op in ops:
            before = watch.elapsed
            try:
                workload.run(op, watch, tally, ctx)
            except Exception as exc:  # a crash is counted and the run goes on
                tally.crashed += 1
                tally.fail(f"{op!r}: {type(exc).__name__}: {exc}")
            op_seconds.append(watch.elapsed - before)
    finally:
        if tracer is not None:
            tracer.restore()
        ctx.tracer = None
    return op_seconds, tally, tracer


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lmg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git; none when it is not a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("spectrum", "vqe", "prepare", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced inputs for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lmg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no lmg sources at {SRC}; run from a full checkout\n")
        return 2
    os.environ.pop("LMG_THREADS", None)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import lmg
    import lmg.cli  # noqa: F401  (the traced CLI layer and every CLI user load it)

    if Path(lmg.__file__).resolve().parent != (SRC / "lmg").resolve():
        sys.stderr.write(f"error: imported lmg from {lmg.__file__}, not {SRC}\n")
        return 2
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work_dir = OUT / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(work_dir)

    setup_code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=args.workload,
                                   seed=args.seed, small=args.small)
    if args.trace:
        bare = statistics.median(spawn_seconds("pass", ctx.env) for _ in range(LAYER_PROBES))
        imported = statistics.median(
            spawn_seconds("import lmg.cli", ctx.env) for _ in range(LAYER_PROBES))
    else:
        setup_s = statistics.median(
            spawn_seconds(setup_code, ctx.env) for _ in range(SETUP_PROBES))

    ops = workload.generate(args.seed, args.small)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed}, {len(ops)} inputs, "
          f"{'traced' if args.trace else 'untraced'} run of {args.seconds:g} s")

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        op_seconds, tally, tracer = run_pass(lmg, spans, workload, ops, ctx, traced)
        elapsed = sum(op_seconds)
        passes.append((op_seconds, tally, tracer))
        now = time.perf_counter()
        print(f"pass {len(passes)} {'traced' if traced else 'untraced'}: {elapsed:.4f} s "
              f"in program calls, failed {tally.failed}/{tally.attempted}")
        # start another pass only if one as long as the last still fits
        if len(passes) >= 2 and (now - start) + (now - pass_start) > args.seconds:
            break

    first = passes[0][1]
    for note in first.notes:
        print(f"  failure: {note}")
    correct = all(t.wrong == 0 and t.crashed == 0 for _, t, _ in passes) and len(
        {(t.attempted, t.failed) for _, t, _ in passes}) == 1
    attempted = sum(t.attempted for _, t, _ in passes)
    failed = sum(t.failed for _, t, _ in passes)

    untraced = [o for o, _, tr in passes if tr is None]
    if args.trace:
        traced = [(sum(o), tr) for o, _, tr in passes if tr is not None]
        per_pass = [spans.layer_metrics(tr.spans) for _, tr in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["cli.interpreter_s"] = bare
        values["cli.import_s"] = imported - bare
        values["trace.overhead_frac"] = (statistics.median(e for e, _ in traced)
                                         / statistics.median(sum(o) for o in untraced) - 1.0)
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
        traced[-1][1].dump(spans_file)
        print(f"spans of the last traced pass: {spans_file}")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(values.items())}
    else:
        if workload.in_process:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # each input counts its median over the passes, so one slow stretch
        # of a shared machine does not move the whole figure
        wall_s = sum(statistics.median(col) for col in zip(*untraced))
        values = {"setup_s": setup_s, "peak_rss_mb": rss_kb / 1024.0, "wall_s": wall_s}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, unit in END_TO_END.items():
            print(f"{args.workload}.{name} = {values[name]:.6g} {unit}")
        print(f"{args.workload}.failed_frac = {first.failed / first.attempted:.6g} "
              f"({first.failed} of {first.attempted} per pass)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
