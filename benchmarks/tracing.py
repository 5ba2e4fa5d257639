"""Per-layer spans for the benchmark's traced runs.

Each traced command gets its own ``Tracer``. ``installed`` replaces every
listed layer function with a span-recording wrapper in *every*
``codedscan`` module namespace that holds it: ``from .nnls import nnls``
binds the name inside ``codedscan.recovery`` too, and patching only
``codedscan.nnls`` would miss the calls that matter. Spans stay in memory
until the benchmark writes them out after its timed section.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Public function of each layer, as "<module>.<function>" under codedscan.
LAYER_FUNCTIONS = (
    "codes.generate_de_bruijn",
    "codes.window_stats",
    "aperture.build_profile",
    "forward.build_coding_matrix",
    "forward.simulate",
    "forward.trial_rng",
    "recovery.normalize",
    "recovery.search_position",
    "recovery.solve_signal",
    "recovery.recover",
    "nnls.nnls",
    "metrics.score",
    "metrics.run_sweep",
    "config.load_config",
    "reporting.read_pixel_series",
    "reporting.write_recovery_csv",
    "reporting.write_sweep_csv",
    "cli.run_recover_command",
    "cli.run_sweep_command",
)

# Per-layer metrics beyond calls and self time.
EXTRAS = {
    "recovery.recover": "rounds_mean",
    "nnls.nnls": "failures",
    "reporting.read_pixel_series": "bytes",
    "reporting.write_recovery_csv": "bytes",
    "reporting.write_sweep_csv": "bytes",
}


def _count_rounds(counts, args, result, exc):
    if exc is None:
        counts["recovery.recover.rounds"] += result.rounds


def _count_failure(counts, args, result, exc):
    if exc is not None:
        counts["nnls.nnls.failures"] += 1


def _bytes_counter(name, path_of):
    def count(counts, args, result, exc):
        if exc is None:
            counts[f"{name}.bytes"] += Path(path_of(args, result)).stat().st_size
    return count


# Counters recorded at a layer boundary, from the call's arguments, result
# or exception.
_AFTER = {
    "recovery.recover": _count_rounds,
    "nnls.nnls": _count_failure,
    "reporting.read_pixel_series": _bytes_counter(
        "reporting.read_pixel_series", lambda args, result: args[0]),
    "reporting.write_recovery_csv": _bytes_counter(
        "reporting.write_recovery_csv", lambda args, result: result),
    "reporting.write_sweep_csv": _bytes_counter(
        "reporting.write_sweep_csv", lambda args, result: result),
}


def metric_names() -> list:
    """Names of the per-layer metrics, in report order."""
    names = []
    for layer in LAYER_FUNCTIONS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
        if layer in EXTRAS:
            names.append(f"{layer}.{EXTRAS[layer]}")
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith(".bytes") else "count"


class Tracer:
    """Spans of one command: ``[name, start_s, end_s, parent_index]``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if after is not None:
                    after(counts, args, result, exc)

        return traced

    def layer_metrics(self) -> dict:
        """Calls, self time and counters per layer function.

        Self time is a span's duration minus the durations of its direct
        child spans; calls run on one thread, so children nest strictly.
        """
        calls = Counter()
        self_s = dict.fromkeys(LAYER_FUNCTIONS, 0.0)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out = {}
        for layer in LAYER_FUNCTIONS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            if layer in EXTRAS:
                out[f"{layer}.{EXTRAS[layer]}"] = self.counts[f"{layer}.{EXTRAS[layer]}"]
        recovers = calls["recovery.recover"]
        out["recovery.recover.rounds_mean"] = (
            self.counts["recovery.recover.rounds"] / recovers if recovers else 0.0
        )
        return out


@contextmanager
def installed(tracer: Tracer):
    """Route every binding of every layer function through ``tracer``."""
    modules = [
        module for name, module in list(sys.modules.items())
        if name == "codedscan" or name.startswith("codedscan.")
    ]
    patches = []
    for layer in LAYER_FUNCTIONS:
        module_name, function = layer.split(".")
        original = getattr(sys.modules[f"codedscan.{module_name}"], function)
        wrapper = tracer.wrap(layer, original)
        for module in modules:
            for attr, value in vars(module).items():
                if value is original:
                    patches.append((module, attr, original, wrapper))
    for module, attr, _, wrapper in patches:
        setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, original, _ in patches:
            setattr(module, attr, original)
