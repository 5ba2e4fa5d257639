"""Byte-for-byte gate on what the command line writes.

Each case runs ``codedscan.cli.main`` in-process, in a scratch working
directory with relative paths, and compares the output file and stdout
with the frozen copies in ``tests/golden/``. A change that alters a number
on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and names every changed cell in CHANGES.md.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from codedscan.cli import main

GOLDEN = Path(__file__).parent / "golden"
SERIES = "two_pixels.csv"  # input of the recover cases, simulated at 10 keV
OUT = "out.csv"

BASE = {
    "scan": {"noise_levels": "10, 100", "seed": "7"},
    "sweep": {"replicates": "2", "position_stride": "32"},
}

# name: (config sections merged over BASE, command-line arguments)
CASES = {
    "sweep_bsr": (
        {"sweep": {"kind": "bsr", "bsr_values": "0.5, 1", "energies_kev": "10, 30"}},
        ["sweep", "--out", OUT],
    ),
    "sweep_scan_length": (
        {"sweep": {"kind": "scan_length", "scan_bits_values": "4, 8", "energies_kev": "10"}},
        ["sweep", "--out", OUT],
    ),
    "sweep_aspect": (
        {"sweep": {"kind": "aspect", "aspect_values": "0.5, 2", "angles_deg": "0, 20"}},
        ["sweep", "--out", OUT],
    ),
    "sweep_patterning": (
        {"aperture": {"bit_size_zero_um": "5", "bit_size_one_um": "5"},
         "optics": {"energy_kev": "30", "incidence_angle_deg": "20"},
         "sweep": {"kind": "patterning", "position_stride": "16"}},
        ["sweep", "--out", OUT],
    ),
    "sweep_noiseless": (
        {"optics": {"mu_per_um": "1e9"},  # opaque bars: exact shapes
         "sweep": {"kind": "bsr", "bsr_values": "1, 2", "energies_kev": "10"}},
        ["sweep", "--out", OUT, "--noiseless"],
    ),
    "recover": ({}, ["recover", SERIES, "--out", OUT]),
    "recover_truncated": ({}, ["recover", SERIES, "--out", OUT, "--truncate-bits", "4"]),
    "simulate_file": ({}, ["simulate", "37", "--out", OUT]),
    "simulate_stdout": ({}, ["simulate", "180", "--noiseless"]),
}


def config_text(sections: dict) -> str:
    lines = []
    for section in sorted(set(BASE) | set(sections)):
        lines.append(f"[{section}]")
        values = {**BASE.get(section, {}), **sections.get(section, {})}
        lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def run_case(name: str, workdir: Path) -> dict:
    """Run one case in ``workdir``; returns {golden file name: bytes}."""
    sections, argv = CASES[name]
    (workdir / "exp.cfg").write_text(config_text(sections), encoding="utf-8")
    shutil.copy(GOLDEN / SERIES, workdir / SERIES)
    stdout = io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv[:1] + ["--config", "exp.cfg"] + argv[1:])
    finally:
        os.chdir(here)
    assert code == 0, f"{name}: exit code {code}"
    outputs = {f"{name}.stdout": stdout.getvalue().encode("utf-8")}
    if OUT in argv:
        outputs[f"{name}.csv"] = (workdir / OUT).read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    for filename, produced in run_case(name, tmp_path).items():
        assert produced == (GOLDEN / filename).read_bytes(), f"{filename} differs"


if __name__ == "__main__":
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            for filename, produced in run_case(case, Path(scratch)).items():
                (GOLDEN / filename).write_bytes(produced)
                print(f"wrote {GOLDEN / filename}", file=sys.stderr)
