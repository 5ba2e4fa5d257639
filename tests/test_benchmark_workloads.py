"""The benchmark's workloads run the program through its public names.

``benchmarks/workloads.py`` writes each workload's inputs with
``load_config`` and the forward model, then runs ``codedscan.cli.main``.
A change that breaks either would only show up in a benchmark run, so this
prepares every workload and runs its warm-up command.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from codedscan.cli import main

SOURCE = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("benchmark_workloads", SOURCE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_warmup_runs(name, tmp_path, capsys):
    prepared = WORKLOADS[name].prepare(tmp_path, 3)
    assert main(prepared.warmup_argv) == 0
    assert capsys.readouterr().err == ""
