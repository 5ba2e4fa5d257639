"""Smoke tests of the benchmark harness (not part of the tier-1 suite).

    python -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import codedscan.cli  # noqa: E402
import codedscan.metrics  # noqa: E402
import codedscan.recovery  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import CheckError, Prepared, RecoverWorkload, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_tracer_patches_every_binding_and_restores_them():
    originals = (codedscan.recovery.nnls, codedscan.metrics.recover, codedscan.cli.recover)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert codedscan.recovery.nnls is not originals[0]
        assert codedscan.metrics.recover is not originals[1]
        assert codedscan.cli.recover is codedscan.metrics.recover
    assert (codedscan.recovery.nnls, codedscan.metrics.recover, codedscan.cli.recover) \
        == originals


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.run_sweep_command", 0.0, 10.0, -1],
        ["metrics.run_sweep", 1.0, 9.0, 0],
        ["recovery.recover", 2.0, 6.0, 1],
        ["nnls.nnls", 3.0, 4.0, 2],
    ]
    layers = tracer.layer_metrics()
    assert layers["cli.run_sweep_command.self_s"] == 2.0
    assert layers["metrics.run_sweep.self_s"] == 4.0
    assert layers["recovery.recover.self_s"] == 3.0
    assert layers["nnls.nnls.self_s"] == 1.0
    assert layers["nnls.nnls.calls"] == 1
    assert layers["forward.simulate.calls"] == 0


def test_wall_times_are_rescaled_by_the_kernel_times_around_them():
    # A host running the kernel at twice REFERENCE_S runs everything at half speed.
    slow = 2 * run.REFERENCE_S
    assert run.at_reference_speed([3.0, 5.0], [slow, slow, slow]) == pytest.approx([1.5, 2.5])
    assert run.at_reference_speed([1.0], [run.REFERENCE_S, slow]) \
        == pytest.approx([1.0 / 1.5])
    assert run.reference_seconds() > 0


def test_small_recover_run_is_checked_and_traced(tmp_path):
    workload = RecoverWorkload("recover-file", pixels=12, warmup_pixels=3)
    prepared = workload.prepare(tmp_path, seed=3)
    (tmp_path / "again").mkdir()
    again = workload.prepare(tmp_path / "again", seed=3)
    assert again.truth == prepared.truth
    assert (tmp_path / "again" / "series.csv").read_bytes() \
        == (tmp_path / "series.csv").read_bytes()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert codedscan.cli.main(prepared.argv) == 0
    outcome = workload.outcome(prepared, prepared.out.read_text(), None)
    assert outcome.items == 12
    assert 0 <= outcome.position_hits <= outcome.recovered <= 12
    layers = tracer.layer_metrics()
    assert layers["reporting.read_pixel_series.calls"] == 1
    assert layers["reporting.read_pixel_series.bytes"] > 0
    assert layers["forward.simulate.calls"] == 0
    assert layers["nnls.nnls.calls"] >= outcome.recovered
    assert list(layers) == [
        m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("tracing.")
    ]


def test_output_checks_reject_broken_results(tmp_path):
    sweep = WORKLOADS["sweep-bsr"]
    header = "# comment\nparam_name,param_value,energy_kev_or_angle_deg,noise_level," \
             "msp_position,msp_shape,k,stderr\n"
    short_k = header + "".join("bsr,1,10,10,50.0,0.0,209,1.4\n" for _ in range(8))
    with pytest.raises(CheckError, match="k = 209"):
        sweep.outcome(None, short_k, None)
    over = header + "".join("bsr,1,10,10,100.5,0.0,210,1.4\n" for _ in range(8))
    with pytest.raises(CheckError, match="outside"):
        sweep.outcome(None, over, None)
    recover = WORKLOADS["recover-file"]
    prepared = Prepared(tmp_path / "x.cfg", tmp_path / "x.csv", [], [], truth={"p0": 0.0})
    prepared.config.write_text("")
    bad_status = "pixel_id,p_hat_um,residual,rounds,status\np0,,,0,lost\n"
    with pytest.raises(CheckError, match="unknown status"):
        recover.outcome(prepared, bad_status, None)
    missing_pixel = "pixel_id,p_hat_um,residual,rounds,status\np1,,,0,flat\n"
    with pytest.raises(CheckError, match="one per input pixel"):
        recover.outcome(prepared, missing_pixel, None)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_spec(trace, section):
    done = _run("--workload", "recover-file", "--seed", "5", "--seconds", "0.1",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "sweep-bsr", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
