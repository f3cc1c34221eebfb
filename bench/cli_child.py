"""One traced ``lmg`` command, for the traced passes of the cli workload.

    python3 bench/cli_child.py SPANS_FILE ARGS...

Behaves like ``python -m lmg.cli ARGS`` (same output, exit code and, for an
unhandled exception, traceback) but wraps every layer function in the span
recorder, records ``lmg.cli.main`` as the span ``cli.<command>`` and writes
the spans to SPANS_FILE when the command ends.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import lmg  # noqa: E402
import lmg.cli  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> None:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    command = "version" if argv[:1] == ["--version"] else argv[0]
    tracer = Tracer()
    tracer.install(lmg)
    tracer.active = True
    code = 1
    try:
        with tracer.span(f"cli.{command}"):
            code = lmg.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.active = False
        tracer.restore()
        tracer.dump(spans_file)
    sys.exit(code)


if __name__ == "__main__":
    main()
