"""Benchmark runner: run one workload of codedscan and report its metrics.

    python3 benchmarks/run.py --workload sweep-bsr --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory. Every command goes in-process through
``codedscan.cli.main`` with ``--workers 1``. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
the timed commands, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
Exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, CheckError

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

# Throughput and set-up time are given at a fixed host speed: the one at
# which the reference kernel below takes REFERENCE_S seconds, about its time
# on the 2-core Xeon host the benchmark was written on. A shared host's speed
# drifts by up to half between spells that outlast a run, and the kernel
# drifts with it.
REFERENCE_S = 0.12
_REFERENCE_RNG = np.random.default_rng(0)
_REFERENCE_A = _REFERENCE_RNG.random((64, 24))
_REFERENCE_B = _REFERENCE_RNG.random(64)
_REFERENCE_M = _REFERENCE_RNG.random((300, 120))
_REFERENCE_V = _REFERENCE_RNG.random(120)
_REFERENCE_LINES = [",".join(f"{x:.6g}" for x in row)
                    for row in _REFERENCE_RNG.random((200, 20))]

# Runs in a fresh interpreter per set-up sample: the import and config load
# every command-line invocation pays before it does any work.
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import codedscan.cli
import codedscan.config
codedscan.config.load_config(sys.argv[1])
print(time.perf_counter() - start)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import codedscan from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "codedscan" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import codedscan.cli

    if Path(codedscan.cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"codedscan imported from {codedscan.cli.__file__}, not {src}")
    return codedscan.cli


def measure_setup(config: Path) -> tuple:
    """Seconds to import the CLI and load ``config`` in fresh interpreters.

    Returns the samples and the reference kernel's times around them. The
    first sample is discarded: it compiles bytecode and warms the file
    cache, which a user pays once per installation, not per run.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    samples, kernel = [], []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(config)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        if attempt:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
        kernel.append(reference_seconds())
    return samples, kernel


def at_reference_speed(walls: list, kernel: list) -> list:
    """Each wall time rescaled to the host speed REFERENCE_S stands for.

    ``kernel[i]`` and ``kernel[i + 1]`` are the reference kernel's times just
    before and just after ``walls[i]``; their mean is the host's speed then.
    """
    return [wall * 2 * REFERENCE_S / (kernel[i] + kernel[i + 1])
            for i, wall in enumerate(walls)]


@contextlib.contextmanager
def capture_sweep_result(sink: list):
    """Keep what ``metrics.run_sweep`` returns, for its per-cell failure counts."""
    import codedscan.metrics as metrics

    inner = metrics.run_sweep

    def capturing(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append(result)
        return result

    metrics.run_sweep = capturing
    try:
        yield
    finally:
        metrics.run_sweep = inner


def run_command(cli, argv, tracer=None):
    """One in-process command: (exit code, wall seconds, sweep result, stderr)."""
    stdout, stderr, results = io.StringIO(), io.StringIO(), []
    gc.collect()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing.installed(tracer))
        stack.enter_context(capture_sweep_result(results))
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return code, wall, (results[0] if results else None), stderr.getvalue()


def reference_seconds() -> float:
    """Wall time of a fixed mix of work like the program's.

    Interpreter loops, small least squares, matrix-vector products, and
    parsing and formatting of CSV numbers. It calls nothing in
    ``codedscan``, so a change to the program cannot change it. The
    garbage collector is off meanwhile, so the program's heap cannot
    either.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(75_000):
            total += i * i % 7
        for _ in range(450):
            np.linalg.lstsq(_REFERENCE_A, _REFERENCE_B, rcond=None)
        for _ in range(1200):
            w = _REFERENCE_M.T @ (_REFERENCE_M @ _REFERENCE_V)
            np.flatnonzero(w > w.mean())
        for _ in range(18):
            rows = {f"p{j}": [float(x) for x in line.split(",")]
                    for j, line in enumerate(_REFERENCE_LINES)}
            "\n".join(key + "," + ",".join(f"{v:.6g}" for v in values)
                      for key, values in rows.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts(args) -> dict:
    commit = None  # an exported source tree carries no history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def write_spans(path: Path, tracers) -> None:
    with open(path, "w", encoding="utf-8") as sink:
        sink.write("command,span,name,start_s,end_s,parent\n")
        for command, tracer in enumerate(tracers):
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                sink.write(f"{command},{index},{name},{start!r},{end!r},{parent}\n")


def benchmark(args, workdir: Path, tally: dict):
    """Set up, warm up, then run timed commands; ``tally`` counts them."""
    cli = import_program()
    workload = WORKLOADS[args.workload]
    prepared = workload.prepare(workdir, args.seed)
    setup, setup_kernel = ([], []) if args.trace else measure_setup(prepared.config)
    code, _, _, err = run_command(cli, prepared.warmup_argv)
    if code != 0:
        raise CheckError(f"warm-up command exited {code}: {err.strip()}")

    # Timed section. A traced run alternates plain and traced commands so
    # that the difference of their medians is the tracing overhead. An
    # untraced run times the reference kernel before and after each command.
    plain, traced, tracers, kernel = [], [], [], []
    reference = outcome = None
    started = time.perf_counter()
    if not args.trace:
        kernel.append(reference_seconds())
    while True:
        tracer = tracing.Tracer() if args.trace and len(plain) > len(traced) else None
        code, wall, sweep_result, err = run_command(cli, prepared.argv, tracer)
        tally["attempted"] += 1
        if code != 0:
            tally["failed"] += 1
            raise CheckError(f"command exited {code}: {err.strip()}")
        data = prepared.out.read_bytes()
        if reference is None:
            reference = data
            outcome = workload.outcome(prepared, data.decode("utf-8"), sweep_result)
        elif data != reference:
            raise CheckError("the same seed gave a different output CSV on a repeat")
        elif workload.outcome(prepared, data.decode("utf-8"), sweep_result) != outcome:
            raise CheckError("the same seed gave different outcomes on a repeat")
        (traced if tracer else plain).append(wall)
        if tracer:
            tracers.append(tracer)
        elif not args.trace:
            kernel.append(reference_seconds())
        elapsed = time.perf_counter() - started
        if args.trace and not traced:
            continue
        if elapsed + statistics.median(plain + traced) + max(kernel, default=0.0) > args.seconds:
            break

    if args.trace:
        per_command = [tracer.layer_metrics() for tracer in tracers]
        metrics = {
            name: (statistics.median(m[name] for m in per_command), tracing.unit_of(name))
            for name in tracing.metric_names()
        }
        traced_s = statistics.median(traced)
        metrics["tracing.overhead_s"] = (traced_s - statistics.median(plain), "s")
        metrics["tracing.traced_wall_s"] = (traced_s, "s")
        write_spans(workdir.parent / f"spans-{args.workload}-seed{args.seed}.csv", tracers)
    else:
        rate = outcome.items / statistics.median(at_reference_speed(plain, kernel))
        metrics = {
            "trials_per_s": (rate, "1/s"),
            "pixels_per_s": (rate, "1/s"),
            "setup_s": (statistics.median(at_reference_speed(setup, setup_kernel)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "recovered_pct": (100.0 * outcome.recovered / outcome.items, "%"),
            "position_success_pct": (100.0 * outcome.position_hits / outcome.items, "%"),
            "shape_miss_pct": (100.0 - 100.0 * outcome.shape_hits / outcome.items, "%"),
        }
    detail = {
        "commands": {"plain_s": plain, "traced_s": traced, "reference_s": kernel},
        "setup_s": setup,
        "setup_reference_s": setup_kernel,
        "items_per_command": outcome.items,
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    tally = {"attempted": 0, "failed": 0}
    try:
        workdir.mkdir(parents=True)
        metrics, detail = benchmark(args, workdir, tally)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally["attempted"], 1),
                          "failed": tally["failed"], "metrics": {}}))
        return 1
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts(args)
    record = {"facts": facts, "detail": detail,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("# machine " + json.dumps(facts))
    commands = detail["commands"]
    if commands["reference_s"]:
        print(f"# wall clock: median command {statistics.median(commands['plain_s']):.4g} s, "
              f"median set-up {statistics.median(detail['setup_s']):.4g} s, "
              f"median reference kernel {statistics.median(commands['reference_s']):.4g} s "
              f"(REFERENCE_S = {REFERENCE_S} s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": True, **tally, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
