"""Top-level acceptance checks, one test per criterion.

Run as ``pytest tests/test_acceptance.py -v`` for a pass/fail line per
criterion. Monte-Carlo criteria use frozen seeds and scaled-down trial
counts so the whole file stays under a minute.
"""

import math
import subprocess
import sys
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from codedscan import (
    ExperimentConfig,
    build_profile,
    generate_de_bruijn,
    patterning_correlations,
    run_sweep,
)
from codedscan.forward import ScanSeries, Signal, build_coding_matrix, simulate
from codedscan.nnls import nnls
from codedscan.recovery import normalize, recover
from test_nnls import kkt_residuals

SEED = 20260815


def test_1_every_cyclic_word_appears_exactly_once():
    for order in range(3, 13):
        bits = generate_de_bruijn(order).bits
        assert bits.size == 2**order
        wrapped = np.concatenate([bits, bits[: order - 1]])
        words = Counter(
            tuple(wrapped[i : i + order]) for i in range(bits.size)
        )
        assert len(words) == 2**order
        assert set(words.values()) == {1}
    linear = generate_de_bruijn(8).bits
    windows = {tuple(linear[i : i + 8]) for i in range(linear.size - 7)}
    assert len(windows) == 249
    print("criterion 1: PASS — cyclic words unique for orders 3-12, 249 linear windows at order 8")


def test_2_noiseless_recovery_is_exact_at_every_window():
    # Opaque bars, then the bundled gold table's semi-transparent bars at
    # 10 and 30 keV (floors e^-(mu t) of about 0.11 and 0.59), at normal
    # and tilted incidence, with bits half and once the beam width.
    cases = [dict(mu_per_um=1e9, bsr_values=(1.0,), energies_kev=(10.0,))]
    cases += [dict(bsr_values=(0.5, 1.0), energies_kev=(10.0, 30.0), incidence_angle_deg=angle)
              for angle in (0.0, 20.0)]
    cells = []
    for case in cases:
        config = ExperimentConfig(
            sweep_kind="bsr",
            noise_levels=(math.inf,),
            replicates=1,
            position_stride=1,
            seed=SEED,
            epsilon=1e-6,
            position_margin_bits=0.0,
            **case,
        )
        for cell in run_sweep(config).cells:
            where = (config.mu_per_um, config.incidence_angle_deg, cell.cell.param_value,
                     cell.cell.energy_or_angle)
            assert cell.k == 249, where
            assert cell.failures == 0, where
            assert cell.msp_position == 100.0, where
            assert cell.msp_shape == 100.0, where  # exact index + relative error < 1e-6
            cells.append(where)
    assert len(cells) == 9
    print("criterion 2: PASS — noiseless runs hit the exact index with < 1e-6 signal error, "
          "all 249 windows, opaque bars and gold at 10/30 keV, 0/20 deg, bsr 0.5/1")


def test_3_position_success_rises_with_bit_to_signal_ratio():
    config = ExperimentConfig(
        sweep_kind="bsr",
        energies_kev=(10.0,),
        noise_levels=(100.0,),
        replicates=5,
        seed=SEED,
    )
    result = run_sweep(config, workers=4)
    msp = {c.cell.param_value: c.msp_position for c in result.cells}
    assert msp[2.0] - msp[0.25] >= 10.0
    assert msp[1.0] >= 90.0
    assert msp[2.0] >= 90.0
    print(
        "criterion 3: PASS — position MSP "
        + ", ".join(f"{k:g}:{v:.2f}" for k, v in sorted(msp.items()))
    )


def test_4_short_scans_fail_while_longer_scans_hold():
    config = ExperimentConfig(
        sweep_kind="scan_length",
        scan_bits_values=(4.0, 8.0, 16.0, 24.0),
        energies_kev=(10.0,),
        noise_levels=(10.0,),
        replicates=5,
        seed=SEED,
    )
    result = run_sweep(config, workers=4)
    msp = {c.cell.param_value: c.msp_position for c in result.cells}
    assert msp[4.0] <= msp[8.0] - 20.0
    assert msp[16.0] >= msp[8.0] - 5.0
    assert msp[24.0] >= msp[16.0] - 5.0
    print(
        "criterion 4: PASS — position MSP "
        + ", ".join(f"{k:g} bits:{v:.2f}" for k, v in sorted(msp.items()))
    )


def test_5_aspect_ratio_peaks_between_half_and_two():
    config = ExperimentConfig(
        sweep_kind="aspect",
        noise_levels=(10.0,),
        replicates=5,
        position_stride=3,
        seed=SEED,
    )
    result = run_sweep(config, workers=4)
    rows = {}
    for c in result.cells:
        key = (c.cell.energy_or_angle, c.cell.noise_level)
        rows.setdefault(key, {})[c.cell.param_value] = c.msp_position
    peaks = {}
    for key, row in rows.items():
        top = max(row.values())
        # Earliest aspect within Monte-Carlo slack of the row maximum; a
        # saturated plateau counts from where it starts.
        peak = min(a for a, v in row.items() if v >= top - 5.0)
        peaks[key] = peak
        assert 0.5 <= peak <= 2.0, f"row {key}: peak at aspect {peak}"
    steep = rows[(40.0, 10.0)]
    assert steep[10.0] < max(steep.values()) - 10.0
    print(
        "criterion 5: PASS — peak aspect per (angle, noise) row "
        + ", ".join(f"{k[0]:g}deg:{v:g}" for k, v in sorted(peaks.items()))
    )


def test_6_open_fraction_predicts_success_better_than_flips():
    # At noise 3 about half the positions are found, so success can still
    # vary with the window; by noise 10 it saturates. Windows with more
    # open (zero) bits fare worse.
    config = ExperimentConfig(
        sweep_kind="patterning",
        bit_size_zero_um=5.0,
        bit_size_one_um=5.0,
        noise_levels=(3.0,),
        replicates=12,
        seed=SEED,
    )
    result = run_sweep(config, workers=4)
    rho_zeros, rho_flips = patterning_correlations(result)[3.0]
    assert rho_zeros < 0.0
    assert abs(rho_zeros) > abs(rho_flips)
    print(
        f"criterion 6: PASS — Spearman MSP~zeros {rho_zeros:+.4f}, "
        f"MSP~flips {rho_flips:+.4f}"
    )


def test_7_nnls_meets_kkt_and_beats_projected_least_squares():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 21))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x = nnls(a, b)
        assert x.min() >= 0.0
        active, free = kkt_residuals(a, b, x)
        assert active <= 1e-8 and free <= 1e-8
        projected = np.clip(np.linalg.lstsq(a, b, rcond=None)[0], 0.0, None)
        gap = np.sum((a @ x - b) ** 2) - np.sum((a @ projected - b) ** 2)
        assert gap <= 1e-12
    print("criterion 7: PASS — 200 random instances, KKT <= 1e-8, never worse than clipped LS")


@settings(max_examples=40, deadline=None)
@given(
    window=st.integers(0, 248),
    energy=st.sampled_from([10.0, 30.0]),
    peak=st.sampled_from([3.0, 10.0, 100.0, math.inf]),
    key=st.integers(0, 2**32 - 1),
    j=st.integers(-8, 8),
)
def test_8_fit_is_invariant_to_count_scale(window, energy, peak, key, j):
    config = ExperimentConfig(energy_kev=energy)
    profile = build_profile(config.geometry(generate_de_bruijn(8)), config.optics(), 1.0)
    profile = profile.pad_open(0, 12)
    probe = config.probe()
    matrix = build_coding_matrix(profile, profile.index_of(10.0 * window), 81, len(probe))
    series = simulate(matrix, probe, peak, (key,))
    base = recover(profile, normalize(series), probe)
    scaled = recover(profile, normalize(ScanSeries(series.raw * 2.0**j)), probe)
    assert (scaled.position, scaled.signal.tobytes(), scaled.scale, scaled.residual) == \
        (base.position, base.signal.tobytes(), base.scale, base.residual)
    # Only a series that counted nothing is flat.
    assert normalize(ScanSeries(series.raw[None]))[1].tolist() == [False]
    assert normalize(ScanSeries(np.zeros((1, 81))))[1].tolist() == [True]
    print("criterion 8: PASS — counts scaled by 2^j give a bit-identical fit")


def test_9_poisson_sampler_moments_match_theory():
    draws = 100_000
    matrix = np.ones((draws, 1))
    probe = Signal(np.array([1.0]))
    for index, lam in enumerate((0.5, 5.0, 50.0, 500.0)):
        counts = simulate(matrix, probe, lam, (SEED, index)).raw
        se_mean = math.sqrt(lam / draws)
        se_var = math.sqrt((lam + 2.0 * lam**2) / draws)
        assert abs(counts.mean() - lam) <= 5.0 * se_mean
        assert abs(counts.var(ddof=1) - lam) <= 5.0 * se_var
    print("criterion 9: PASS — mean and variance within 5 SE at means 0.5, 5, 50, 500")


def test_10_worker_count_does_not_change_results(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
[sweep]
kind = bsr
bsr_values = 0.5, 1.0
energies_kev = 10
replicates = 3
position_stride = 8

[scan]
noise_levels = 50
seed = 7
""",
        encoding="utf-8",
    )
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "codedscan.cli", "sweep",
             "--config", str(cfg), "--out", str(out), "--workers", str(workers)],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        outputs[workers] = out.read_bytes()
    assert outputs[1] == outputs[8]
    print("criterion 10: PASS — workers 1 and 8 wrote byte-identical grids")
