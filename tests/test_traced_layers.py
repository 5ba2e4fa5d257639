"""The benchmark's traced runs patch layer functions by name.

``benchmarks/tracing.py`` lists them as ``"<module>.<function>"`` under
``codedscan``; a rename that misses that list would only show up in a
``--trace 1`` benchmark run, so this checks every name resolves.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_layer_is_a_codedscan_function():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer in tracing.LAYER_FUNCTIONS:
        module, function = layer.split(".")
        if not callable(getattr(importlib.import_module(f"codedscan.{module}"), function, None)):
            missing.append(layer)
    assert tracing.LAYER_FUNCTIONS and missing == []
