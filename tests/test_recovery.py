"""Unit-peak normalization, position search, shape solve, and the alternating loop."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedscan.aperture import ApertureGeometry, OpticalContext, TransmissivityProfile, build_profile
from codedscan.codes import generate_de_bruijn
from codedscan.forward import (
    ScanSeries,
    Signal,
    build_coding_matrix,
    make_boxcar_signal,
    make_gaussian_signal,
    simulate,
)
from codedscan import recovery
from codedscan.nnls import NumericalFailureError
from codedscan.recovery import (
    FlatSeriesError,
    normalize,
    recover,
    recover_batch,
    search_position,
    solve_signal,
)

BIT_UM = 10.0
STEP_UM = 1.0
SCAN_POINTS = int(8 * BIT_UM / STEP_UM) + 1  # 8-bit travel, both endpoints sampled


def opaque_profile(pad_cells: int = 12) -> TransmissivityProfile:
    geometry = ApertureGeometry(BIT_UM, BIT_UM, 10.0, generate_de_bruijn(8))
    context = OpticalContext(mu_per_um=1e9, incidence_angle_deg=0.0)
    return build_profile(geometry, context, STEP_UM).pad_open(0, pad_cells)


def synthetic_normalized(profile, p_star, template: Signal) -> np.ndarray:
    """Counts exactly A_p* times the unit-sum template."""
    matrix = build_coding_matrix(profile, p_star, SCAN_POINTS, len(template))
    return matrix @ template.unit_sum().values


def noiseless_series(profile, p_star, signal: Signal, peak=100.0) -> np.ndarray:
    matrix = build_coding_matrix(profile, p_star, SCAN_POINTS, len(signal))
    raw = simulate(matrix, signal, peak_counts=peak, seed=0, noiseless=True)
    return normalize(raw)


def test_normalize_maps_extremes():
    # The largest count maps to 1 and the rest keep their ratio to it.
    series = ScanSeries(np.array([100.0, 9800.0, 10000.0]))
    normalized = normalize(series)
    assert normalized.tolist() == [0.01, 0.98, 1.0]


def test_normalize_zero_minimum():
    series = ScanSeries(np.array([0.0, 10.0, 40.0]))
    normalized = normalize(series)
    assert normalized[0] == 0.0


def test_normalize_flat_series_rejected():
    with pytest.raises(FlatSeriesError):
        normalize(ScanSeries(np.zeros(10)))
    # A constant or weak series that counted anything is fitted, not flat.
    assert normalize(ScanSeries(np.full(10, 7.0))).tolist() == [1.0] * 10
    assert normalize(ScanSeries(np.array([0.0, 0.0, 1.0]))).tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        normalize(ScanSeries(np.array([1.0])))


@st.composite
def simulated_cells(draw):
    """A cell's trials: W windows of a profile, R replicates each, keyed
    (seed, 7, w, r). A zero profile makes every series flat (all zero) at
    any noise level."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([2, 3, 17, 81]))
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["random", "bars", "constant", "zeros"]))
    size = m + n + 30
    values = {
        "random": rng.random(size),
        "bars": np.repeat(rng.integers(0, 2, size // 5 + 1), 5)[:size] * 0.9 + 0.1,
        "constant": np.full(size, 0.7),
        "zeros": np.zeros(size),
    }[kind]
    offsets = rng.integers(0, size - m - n + 2, size=draw(st.integers(1, 5)))
    replicates = draw(st.integers(1, 4))
    keys = [(draw(st.integers(0, 2**40)), 7, w, r)
            for w in range(offsets.size) for r in range(replicates)]
    signal = make_gaussian_signal(float(n), 1.0)
    noise = draw(st.sampled_from([10.0, 100.0, math.inf]))
    return values, offsets, m, signal, noise, keys


@settings(max_examples=80, deadline=None)
@given(simulated_cells())
def test_stacked_simulate_and_normalize_equal_the_per_trial_ones(cell):
    values, offsets, m, signal, noise, keys = cell
    stack = simulate(build_coding_matrix(values, offsets, m, len(signal)), signal, noise, keys)
    normalized, flat = normalize(stack)
    replicates = len(keys) // offsets.size
    rows, flags = [], []
    for t, key in enumerate(keys):
        matrix = build_coding_matrix(values, int(offsets[t // replicates]), m, len(signal))
        series = simulate(matrix, signal, noise, key)
        assert stack.raw[t].tobytes() == series.raw.tobytes()
        try:
            rows.append(normalize(series))
        except FlatSeriesError:
            flags.append(True)
        else:
            flags.append(False)
    assert flat.tolist() == flags
    assert normalized.shape == (len(rows), m)
    assert normalized.tobytes() == b"".join(row.tobytes() for row in rows)


def test_stacked_series_keep_the_series_checks():
    with pytest.raises(ValueError, match="counts must be >= 0"):
        ScanSeries(np.array([[1.0, 2.0], [3.0, -1.0]]))
    with pytest.raises(ValueError, match="non-empty"):
        ScanSeries(np.zeros((0, 4)))
    with pytest.raises(ValueError, match="non-empty"):
        ScanSeries(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="at least 2 scan points"):
        normalize(ScanSeries(np.array([[1.0], [5.0]])))
    normalized, flat = normalize(ScanSeries(np.zeros((1, 4))))  # a stack of one never raises
    assert flat.tolist() == [True] and normalized.shape == (0, 4)
    matrices = build_coding_matrix(np.ones(20), np.array([0, 3]), 5, 4)
    with pytest.raises(ValueError, match="3 trial keys do not split over 2 matrices"):
        simulate(matrices, make_gaussian_signal(4.0, 1.0), 10.0, [(1,), (2,), (3,)])


def test_search_exact_at_truth():
    profile = opaque_profile()
    template = make_gaussian_signal(10.0, STEP_UM)
    for p_star in (0, 7, 480, 1033, 2480):
        d = synthetic_normalized(profile, p_star, template)
        assert search_position(profile, d, template.unit_sum().values) == p_star


def test_search_boxcar_template_within_one_bit_everywhere():
    profile = opaque_profile()
    truth = make_gaussian_signal(10.0, STEP_UM)
    boxcar = make_boxcar_signal(10.0, STEP_UM).unit_sum().values
    worst = 0
    for q in range(249):
        p_star = q * int(BIT_UM / STEP_UM)
        d = synthetic_normalized(profile, p_star, truth)
        p_hat = search_position(profile, d, boxcar)
        worst = max(worst, abs(p_hat - p_star))
    assert worst * STEP_UM <= BIT_UM


def test_solve_antidiagonal_matrix_clamps_reversed_data():
    # the only identity-like matrix a profile can express is the flipped
    # one (entries depend on m+n), so A s = reverse(s)
    n = 6
    values = np.zeros(2 * n - 1)
    values[n - 1] = 1.0
    profile = TransmissivityProfile(values, 1.0)
    d = np.array([0.5, -0.2, 0.1, -0.9, 0.0, 0.3])
    s_hat = solve_signal(profile, d, 0, n)
    np.testing.assert_allclose(s_hat, np.clip(d[::-1], 0.0, None), atol=1e-12)


def test_solve_square_system_matches_direct_solve():
    rng = np.random.default_rng(5)
    values = rng.random(64)
    profile = TransmissivityProfile(values, 1.0)
    n = 8
    matrix = build_coding_matrix(profile, 20, n, n)
    assert np.linalg.matrix_rank(matrix) == n
    s_true = rng.random(n) + 0.2
    d = matrix @ s_true
    s_hat = solve_signal(profile, d, 20, n)
    direct = np.linalg.solve(matrix, d)
    np.testing.assert_allclose(s_hat, direct, rtol=1e-6)
    np.testing.assert_allclose(s_hat, s_true, rtol=1e-6)


def test_solve_all_negative_data_yields_zero():
    profile = opaque_profile()
    matrix = build_coding_matrix(profile, 40, SCAN_POINTS, 10)
    d = -(matrix @ np.ones(10)) - 0.1
    np.testing.assert_array_equal(solve_signal(profile, d, 40, 10), 0.0)


@pytest.mark.parametrize("p_star", [0, 1, 17, 248, 1240, 2470, 2480])
def test_recover_noiseless_exactness(p_star):
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    series = noiseless_series(profile, p_star, signal)
    result = recover(profile, series, signal)
    assert result.position == p_star
    truth = signal.unit_sum().values
    error = np.linalg.norm(result.signal - truth) / np.linalg.norm(truth)
    assert error < 1e-6
    assert result.residual < 1e-12


def test_recover_single_round_is_two_step():
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    p_star = 1234
    matrix = build_coding_matrix(profile, p_star, SCAN_POINTS, len(signal))
    noisy = normalize(simulate(matrix, signal, 10.0, seed=(1, 2)))
    one = recover(profile, noisy, signal, max_rounds=1)
    assert one.rounds == 1
    expected_p = search_position(profile, noisy, signal.values)
    assert one.position == expected_p
    shape = solve_signal(profile, noisy, expected_p, len(signal))
    assert one.scale == shape.sum()
    np.testing.assert_array_equal(one.signal, shape / shape.sum())


def test_recover_residual_never_increases_with_rounds():
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    rng_seeds = [(7, k) for k in range(12)]
    for seed in rng_seeds:
        matrix = build_coding_matrix(profile, 731, SCAN_POINTS, len(signal))
        noisy = normalize(simulate(matrix, signal, 10.0, seed=seed))
        res = [
            recover(profile, noisy, signal, max_rounds=r).residual
            for r in (1, 2, 3)
        ]
        assert res[1] <= res[0] + 1e-12
        assert res[2] <= res[1] + 1e-12


def test_recover_residual_dominates_template_fit():
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    p_star = 950
    matrix = build_coding_matrix(profile, p_star, SCAN_POINTS, len(signal))
    noisy = normalize(simulate(matrix, signal, 100.0, seed=(3, 1)))
    result = recover(profile, noisy, signal)
    template_fit = np.sum(
        (matrix @ signal.unit_sum().values - noisy) ** 2
    )
    assert result.residual <= template_fit + 1e-12


def test_recover_zero_shape_stops_alternation():
    profile = opaque_profile()
    template = make_gaussian_signal(10.0, STEP_UM)
    result = recover(profile, -np.ones(SCAN_POINTS), template)
    assert (result.position, result.rounds, result.scale) == (0, 1, 0.0)
    np.testing.assert_array_equal(result.signal, 0.0)
    assert result.residual == SCAN_POINTS
    # All-zero counts gain nothing at any offset, opaque (sq = 0) windows
    # included: offset 0, and a zero signal and scale rather than NaN.
    dark = TransmissivityProfile(np.concatenate([np.zeros(120), np.ones(40)]), STEP_UM)
    zero = recover(dark, np.zeros(SCAN_POINTS), template)
    assert (zero.position, zero.rounds, zero.scale, zero.residual) == (0, 1, 0.0, 0.0)
    np.testing.assert_array_equal(zero.signal, 0.0)


def test_normalization_scale_invariance():
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    p_star = 620
    matrix = build_coding_matrix(profile, p_star, SCAN_POINTS, len(signal))
    base = simulate(matrix, signal, peak_counts=10_000.0, seed=0, noiseless=True)
    scaled = ScanSeries(base.raw * 7.0)

    # Unit-peak counts are scale-free up to rounding, and so is the search,
    # whatever the template's scale.
    a = normalize(base)
    b = normalize(scaled)
    np.testing.assert_allclose(a, b, atol=1e-15)
    for t in (signal.values, signal.unit_sum().values, 3.0 * signal.values):
        assert search_position(profile, a, t) == search_position(profile, b, t) == p_star


def as_tuple(result):
    return (result.position, result.signal.tobytes(), result.scale, result.residual,
            result.rounds)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 9),
    max_rounds=st.integers(1, 4),
    stack_rows=st.integers(1, 4),
    mu=st.sampled_from([0.219, 0.04, 1e9]),
)
def test_batch_row_equals_recover_bit_for_bit(seed, rows, max_rounds, stack_rows, mu):
    rng = np.random.default_rng(seed)
    geometry = ApertureGeometry(BIT_UM, BIT_UM, 10.0, generate_de_bruijn(8))
    profile = build_profile(geometry, OpticalContext(mu), STEP_UM).pad_open(0, 12)
    signal = make_gaussian_signal(10.0, STEP_UM)
    d = []
    for k in range(rows):
        kind = rng.integers(0, 6)
        if kind == 0:  # every point alike: all zero (no fit, zero shape) or all open
            d.append(np.full(SCAN_POINTS, float(rng.integers(0, 2))))
        elif kind == 1:  # no non-negative shape fits: zero signal
            d.append(-rng.random(SCAN_POINTS))
        else:
            p_star = int(rng.integers(0, 2480))
            matrix = build_coding_matrix(profile, p_star, SCAN_POINTS, len(signal))
            peak = float(rng.choice([10.0, 100.0, 1e4]))
            series = simulate(matrix, signal, peak, seed=(seed, k))
            try:
                d.append(normalize(series))
            except FlatSeriesError:  # all zero: recover it as it is
                d.append(series.raw)
    d = np.array(d)
    saved, recovery.STACK_ROWS = recovery.STACK_ROWS, stack_rows  # several stacks per call
    try:
        batch = recover_batch(profile, d, signal, max_rounds)
    finally:
        recovery.STACK_ROWS = saved
    assert len(batch) == rows
    for row, result in zip(d, batch):
        assert as_tuple(result) == as_tuple(recover(profile, row.copy(), signal, max_rounds))
        # The residual is that of scale * signal at the last position's coding matrix.
        matrix = build_coding_matrix(profile, result.position, SCAN_POINTS, len(signal))
        fit = matrix @ (result.scale * result.signal)
        assert result.residual == float(np.sum((fit - row) ** 2))
        assert result.signal.sum() == pytest.approx(1.0 if result.scale else 0.0)


def test_batch_failure_stays_in_its_row(monkeypatch):
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    d = np.array([noiseless_series(profile, p, signal) for p in (40, 731, 1234)])
    real = recovery.nnls

    def fail_middle_row(a, b):
        x, converged = real(a, b)
        middle = [k for k, row in enumerate(b) if np.array_equal(row, d[1])]
        converged[middle] = False
        return x, converged

    alone = [recover(profile, row, signal) for row in d]
    monkeypatch.setattr(recovery, "nnls", fail_middle_row)
    first, middle, last = recover_batch(profile, d, signal)
    assert isinstance(middle, NumericalFailureError)
    assert as_tuple(first) == as_tuple(alone[0])
    assert as_tuple(last) == as_tuple(alone[2])
    with pytest.raises(NumericalFailureError):
        recover(profile, d[1], signal)


def test_batch_accepts_empty_and_rejects_bad_arguments():
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    assert recover_batch(profile, [], signal) == []
    with pytest.raises(ValueError):
        recover_batch(profile, np.ones(SCAN_POINTS), signal)
    with pytest.raises(ValueError):
        recover_batch(profile, np.ones((2, SCAN_POINTS)), signal, max_rounds=0)
