"""In-memory span recorder around the public functions of each lmg layer.

A traced pass replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent) and puts the original
back afterwards.  The wrapper is installed under every name that refers to
the function inside the package, so calls that one layer makes into another
(``vqe`` into ``simulator``, ``bethe`` into ``model``, ``cli`` into all of
them) become child spans of the caller.  Spans stay in memory until the run
writes them out at the end.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import types

LAYERS = ("model", "bethe", "eigenstates", "circuit", "simulator", "vqe")

# control_slot runs once per gate pair inside build_circuit and one_hot_output;
# a span per call would cost more than the work it times.
SKIP = frozenset({"control_slot"})

# solve_bethe time is split by sector size: M <= 6, 7 <= M <= 20, M > 20.
M_BANDS = (("small_m", 0, 6), ("mid_m", 7, 20), ("large_m", 21, None))

# (span name, stats reported for it)
STATS = (
    ("model.exact_spectrum", "s", "calls"),
    ("model.sector_spectrum", "s", "calls"),
    ("bethe.solve_bethe", "s", "self_s", "calls", "failed"),
    ("eigenstates.build_eigenstate", "s", "calls"),
    ("circuit.linear_angles", "s"),
    ("circuit.log_angles", "s"),
    ("circuit.build_circuit", "s", "calls"),
    ("circuit.export_circuit", "s"),
    ("circuit.import_circuit", "s"),
    ("simulator.run.sparse", "s", "calls"),
    ("simulator.run.dense", "s", "calls", "bytes"),
    ("simulator.encoded_expectation", "s"),
    ("simulator.fidelity", "s"),
    ("simulator.pauli_groups", "s"),
    ("simulator.sampled_expectation", "s", "calls"),
    ("vqe.objective", "s", "self_s", "calls"),
    ("vqe.optimize", "s", "self_s", "calls"),
)

CLI_COMMANDS = (
    "version", "spectrum", "bethe", "state", "angles", "circuit",
    "simulate", "vqe", "benchmark", "verify",
)


class Tracer:
    """Span recorder; spans are [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str, attrs) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, attrs=None):
        """Record one span by hand (used around cli.main)."""
        span = self._open(name, attrs)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label, attrs = _describe(name, args, kwargs)
            span = tracer._open(label, attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = dict(attrs or {}, error=type(exc).__name__)
                raise
            finally:
                tracer._close(span)
            if label == "bethe.solve_bethe":
                attrs["returned"] = len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, package) -> None:
        """Wrap the layers' public functions under every name bound to them."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and attr not in SKIP:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def merge(self, spans: list[list]) -> None:
        """Append spans recorded in another process, re-basing parent indices."""
        base = len(self.spans)
        for name, start, end, parent, attrs in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, attrs])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _describe(name: str, args, kwargs):
    """Span label and attributes decided from the call's arguments."""
    if name == "simulator.run":
        circ = args[0] if args else kwargs["circ"]
        state = args[1] if len(args) > 1 else kwargs.get("state")
        if state is not None and state.is_dense:
            # computed bytes: every gate rewrites the 2^q complex128 amplitudes
            return "simulator.run.dense", {"bytes": 16 * 2**circ.num_qubits * len(circ.gates)}
        return "simulator.run.sparse", None
    if name == "bethe.solve_bethe":
        config = args[0] if args else kwargs["config"]
        return name, {"m": config.m}
    return name, None


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: total seconds, self seconds, calls, failures and attrs sums."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, attrs) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "failed": 0, "bytes": 0})
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["calls"] += 1
        if attrs:
            entry["failed"] += "error" in attrs
            entry["bytes"] += attrs.get("bytes", 0)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced pass's spans."""
    stats = summarize(spans)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    metrics = {f"{name}.{stat}": get(name, stat) for name, *stat_list in STATS
               for stat in stat_list}
    bands = {label: 0.0 for label, _, _ in M_BANDS}
    returned = requested = 0
    for name, start, end, _, attrs in spans:
        if name != "bethe.solve_bethe":
            continue
        m = attrs["m"]
        for label, low, high in M_BANDS:
            if m >= low and (high is None or m <= high):
                bands[label] += end - start
        requested += m + 1
        returned += attrs.get("returned", 0)
    for label, _, _ in M_BANDS:
        metrics[f"bethe.solve_bethe.{label}.s"] = bands[label]
    metrics["bethe.yield"] = returned / requested if requested else 0.0
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.self_s"] = get(f"cli.{command}", "self_s")
    metrics["trace.spans"] = len(spans)
    return metrics
