"""The benchmark's workloads: generated inputs, the command, output checks.

Each workload writes its inputs from the benchmark seed alone, hands the
program only those files, and checks what the program writes. No MSP value
is pinned: the checks hold for any correct recovery, so fixes to the
physics can move the numbers without failing the benchmark.

``codedscan`` is imported inside functions: ``run.py`` puts the checkout's
``src`` on the path only after it has parsed its arguments.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RECOVERY_STATUSES = ("ok", "flat", "failed")


class CheckError(Exception):
    """The program's output broke an invariant the benchmark checks."""


@dataclass(frozen=True)
class Outcome:
    """What one command produced, reduced to the benchmark's quality counts."""

    items: int  # trials (sweeps) or pixels (recover)
    recovered: int  # items not lost to a flat series or a numerical failure
    position_hits: int
    shape_hits: int


@dataclass
class Prepared:
    """Generated inputs of one run and the commands that consume them."""

    config: Path
    out: Path
    argv: list
    warmup_argv: list
    truth: dict | None = None  # recover: pixel id -> true scan start, um


def _config_text(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def _write_config(path: Path, sections: dict, seed: int) -> Path:
    sections = {key: dict(values) for key, values in sections.items()}
    sections.setdefault("scan", {})["seed"] = seed
    path.write_text(_config_text(sections), encoding="utf-8")
    return path


def _data_rows(text: str) -> list:
    """CSV rows as dicts, with the ``#`` header comments skipped."""
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _number(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        raise CheckError(f"column {key!r} missing or not a number in row {row}") from None


@dataclass(frozen=True)
class SweepWorkload:
    """``codedscan sweep --quick`` on one generated config."""

    name: str
    sections: dict
    cells: int
    trials_per_cell: int  # windows x replicates

    def prepare(self, workdir: Path, seed: int) -> Prepared:
        config = _write_config(workdir / f"{self.name}.cfg", self.sections, seed)
        # The warm-up visits every code path of the command on a sparser
        # subset of windows.
        warm_sections = {**self.sections, "sweep": {**self.sections["sweep"],
                                                    "position_stride": 50}}
        warm = _write_config(workdir / f"{self.name}-warmup.cfg", warm_sections, seed)
        out = workdir / f"{self.name}.csv"
        return Prepared(
            config, out,
            argv=["sweep", "--config", str(config), "--quick", "--workers", "1",
                  "--out", str(out)],
            warmup_argv=["sweep", "--config", str(warm), "--quick", "--workers", "1",
                         "--out", str(workdir / "warmup.csv")],
        )

    def outcome(self, prepared: Prepared, text: str, sweep_result) -> Outcome:
        rows = _data_rows(text)
        if len(rows) != self.cells:
            raise CheckError(f"{len(rows)} sweep rows, expected {self.cells}")
        position = shape = 0.0
        for row in rows:
            k = _number(row, "k")
            if k != self.trials_per_cell:
                raise CheckError(f"cell k = {k:g}, expected {self.trials_per_cell}")
            for key in ("msp_position", "msp_shape"):
                value = _number(row, key)
                if not 0.0 <= value <= 100.0:
                    raise CheckError(f"{key} = {value!r} outside [0, 100]")
            position += _number(row, "msp_position") * k / 100.0
            shape += _number(row, "msp_shape") * k / 100.0
        if sweep_result is None or len(sweep_result.cells) != self.cells:
            raise CheckError("sweep result missing or with the wrong cell count")
        items = self.cells * self.trials_per_cell
        failures = sum(cell.failures for cell in sweep_result.cells)
        if not 0 <= failures <= items:
            raise CheckError(f"{failures} failures in {items} trials")
        return Outcome(items, items - failures, round(position), round(shape))


@dataclass(frozen=True)
class RecoverWorkload:
    """``codedscan recover`` on a generated multi-pixel scan-series file."""

    name: str
    pixels: int
    warmup_pixels: int = 50

    def prepare(self, workdir: Path, seed: int) -> Prepared:
        from codedscan.config import load_config

        config = _write_config(workdir / f"{self.name}.cfg", {}, seed)
        cfg = load_config(config)
        series = workdir / "series.csv"
        truth = _write_series(series, cfg, seed, self.pixels)
        warm = workdir / "warmup-series.csv"
        _write_series(warm, cfg, seed + 1, self.warmup_pixels)
        out = workdir / f"{self.name}.csv"
        return Prepared(
            config, out,
            argv=["recover", str(series), "--config", str(config), "--workers", "1",
                  "--out", str(out)],
            warmup_argv=["recover", str(warm), "--config", str(config), "--workers", "1",
                         "--out", str(workdir / "warmup.csv")],
            truth=truth,
        )

    def outcome(self, prepared: Prepared, text: str, sweep_result) -> Outcome:
        from codedscan.config import load_config
        from codedscan.forward import make_gaussian_signal

        cfg = load_config(prepared.config)
        s_true = make_gaussian_signal(cfg.signal_width_um, cfg.grid_step_um).unit_sum().values
        margin_um = cfg.position_margin_bits * min(cfg.bit_size_zero_um, cfg.bit_size_one_um)
        rows = _data_rows(text)
        ids = [row.get("pixel_id") for row in rows]
        if sorted(ids) != sorted(prepared.truth) or len(set(ids)) != len(ids):
            raise CheckError("recovery rows are not one per input pixel")
        recovered = position = shape = 0
        for row in rows:
            status = row.get("status")
            if status not in RECOVERY_STATUSES:
                raise CheckError(f"pixel {row['pixel_id']}: unknown status {status!r}")
            if status != "ok":
                continue
            recovered += 1
            if abs(_number(row, "p_hat_um") - prepared.truth[row["pixel_id"]]) > margin_um:
                continue
            position += 1
            signal = np.array([_number(row, f"s_{i}") for i in range(s_true.size)])
            error = np.linalg.norm(signal - s_true) / np.linalg.norm(s_true)
            shape += int(error < cfg.epsilon)
        return Outcome(len(rows), recovered, position, shape)


def _write_series(path: Path, cfg, seed: int, pixels: int) -> dict:
    """Simulate ``pixels`` scans at random windows and noise levels.

    Uses the program's public forward model, exactly as ``codedscan
    simulate`` does, and returns each pixel's true scan start in um.
    """
    from codedscan.aperture import build_profile
    from codedscan.codes import generate_de_bruijn
    from codedscan.forward import build_coding_matrix, make_gaussian_signal, simulate
    from codedscan.metrics import scan_point_count
    from codedscan.reporting import write_series_csv

    pattern = generate_de_bruijn(cfg.pattern_order)
    profile = build_profile(cfg.geometry(pattern), cfg.optics(), cfg.grid_step_um, cfg.oversample)
    signal = make_gaussian_signal(cfg.signal_width_um, cfg.grid_step_um)
    m = scan_point_count(cfg.scan_bits, cfg.bit_size_zero_um, cfg.grid_step_um)
    n = len(signal)
    profile = profile.pad_open(0, m + n)
    sizes = np.where(pattern.bits == 1, cfg.bit_size_one_um, cfg.bit_size_zero_um)
    starts_um = np.concatenate([[0.0], np.cumsum(sizes)])
    n_windows = len(pattern) - cfg.pattern_order + 1
    rng = np.random.default_rng(seed)
    windows = rng.integers(0, n_windows, pixels)
    noise = rng.choice(np.asarray(cfg.noise_levels, dtype=float), pixels)
    width = len(str(pixels - 1))
    payload, truth = {}, {}
    for i in range(pixels):
        start_um = float(starts_um[windows[i]])
        p = profile.index_of(start_um)
        series = simulate(build_coding_matrix(profile, p, m, n), signal, noise[i], (seed, i))
        pixel_id = f"p{i:0{width}d}"
        payload[pixel_id] = (profile.position_of(p + np.arange(m)), series.raw)
        truth[pixel_id] = start_um
    write_series_csv(path, payload)
    return truth


# Sizes keep one command near 1 s on a 2-core host, so a run holds 20-30
# of them and its fastest can fall in a quiet spell of a shared machine.
# Both sweeps take every few windows of the 249, spread over the whole mask.
WORKLOADS = {
    workload.name: workload
    for workload in (
        SweepWorkload(
            "sweep-bsr",
            {"sweep": {"kind": "bsr", "energies_kev": 10, "position_stride": 6}},
            cells=8, trials_per_cell=42 * 5,
        ),
        SweepWorkload(
            "sweep-patterning-tilted",
            {"optics": {"energy_kev": 30, "incidence_angle_deg": 20},
             "sweep": {"kind": "patterning", "position_stride": 4}},
            cells=2 * 63, trials_per_cell=5,
        ),
        RecoverWorkload("recover-file", pixels=1500),
    )
}
