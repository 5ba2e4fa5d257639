"""Unit-peak normalization, position search, shape solve, and recovery: one of each."""

from __future__ import annotations

import contextlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    trial_rng,
)
from codedscan import recovery
from codedscan.recovery import (
    normalize,
    recover,
    recover_batch,
    search_position,
    solve_signal,
)

BIT_UM = 10.0
STEP_UM = 1.0
SCAN_POINTS = int(8 * BIT_UM / STEP_UM) + 1  # 8-bit travel, both endpoints sampled
SEARCH_ROWS = 64  # rows per search stack in the tests of full and short stacks


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
    normalized, _ = normalize(raw)
    return normalized[0]


def test_normalize_maps_extremes():
    # The largest count maps to 1 and the rest keep their ratio to it.
    series = ScanSeries(np.array([100.0, 9800.0, 10000.0]))
    normalized, flat = normalize(series)
    assert normalized.tolist() == [[0.01, 0.98, 1.0]] and flat.tolist() == [False]


def test_normalize_zero_minimum():
    series = ScanSeries(np.array([0.0, 10.0, 40.0]))
    normalized, _ = normalize(series)
    assert normalized[0, 0] == 0.0


def test_normalize_flat_series_rejected():
    # A series of zeros is flagged flat and left out of the unit-peak rows.
    normalized, flat = normalize(ScanSeries(np.zeros(10)))
    assert flat.tolist() == [True] and normalized.shape == (0, 10)
    # A constant or weak series that counted anything is fitted, not flat.
    assert normalize(ScanSeries(np.full(10, 7.0)))[0].tolist() == [[1.0] * 10]
    assert normalize(ScanSeries(np.array([0.0, 0.0, 1.0])))[0].tolist() == [[0.0, 0.0, 1.0]]
    # Unit peak is defined for one scan point.
    assert normalize(ScanSeries(np.array([4.0])))[0].tolist() == [[1.0]]


@st.composite
def simulated_cells(draw):
    """A cell's trials: W windows of a profile, R replicates each, drawn
    replicate-major under one key (seed, 7). A zero profile makes every
    series flat (all zero) at any noise level."""
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
    offsets = np.tile(offsets, draw(st.integers(1, 4)))
    key = (draw(st.integers(0, 2**40)), 7)
    signal = make_gaussian_signal(float(n), 1.0)
    noise = draw(st.sampled_from([10.0, 100.0, math.inf]))
    return values, offsets, m, signal, noise, key


@settings(max_examples=80, deadline=None)
@given(simulated_cells())
def test_stacked_simulate_and_normalize_equal_the_per_trial_ones(cell):
    # Trial t of the stack is the t-th draw of its key's one stream, from
    # the intensities of its own matrix; the first is its (M, N) simulate.
    values, offsets, m, signal, noise, key = cell
    stack = simulate(build_coding_matrix(values, offsets, m, len(signal)), signal, noise, key)
    normalized, flat = normalize(stack)
    rng = trial_rng(*key)
    rows, flags = [], []
    for t, offset in enumerate(offsets):
        matrix = build_coding_matrix(values, int(offset), m, len(signal))
        series = simulate(matrix, signal, math.inf, 0)  # its intensities
        if not math.isinf(noise):
            series = ScanSeries(rng.poisson(series.raw * (noise / signal.values.sum())))
        assert stack.raw[t].tobytes() == series.raw.tobytes()
        if t == 0:
            assert simulate(matrix, signal, noise, key).raw.tobytes() == series.raw.tobytes()
        row, row_flat = normalize(series)  # (1, M), or (0, M) if flat
        rows += list(row)
        flags += row_flat.tolist()
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
    normalized, flat = normalize(ScanSeries(np.array([[1.0], [0.0], [5.0]])))
    assert flat.tolist() == [False, True, False] and normalized.tolist() == [[1.0], [1.0]]
    normalized, flat = normalize(ScanSeries(np.zeros((1, 4))))  # a stack of one never raises
    assert flat.tolist() == [True] and normalized.shape == (0, 4)
    # A stack is drawn under one key: a list of per-trial keys is refused.
    matrices = build_coding_matrix(np.ones(20), np.array([0, 3]), 5, 4)
    with pytest.raises(ValueError, match="key entries must be ints"):
        simulate(matrices, make_gaussian_signal(4.0, 1.0), 10.0, [(1,), (2,)])


def test_search_exact_at_truth():
    profile = opaque_profile()
    template = make_gaussian_signal(10.0, STEP_UM)
    for p_star in (0, 7, 480, 1033, 2480):
        d = synthetic_normalized(profile, p_star, template)
        assert search_position(profile, d[None], template.unit_sum().values) == [p_star]


def test_search_boxcar_template_within_one_bit_everywhere():
    profile = opaque_profile()
    truth = make_gaussian_signal(10.0, STEP_UM)
    boxcar = make_boxcar_signal(10.0, STEP_UM).unit_sum().values
    worst = 0
    for q in range(249):
        p_star = q * int(BIT_UM / STEP_UM)
        d = synthetic_normalized(profile, p_star, truth)
        (p_hat,) = search_position(profile, d[None], boxcar)
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
    s_hat, converged = solve_signal(profile, d[None], [0], n)
    assert converged.tolist() == [True]
    np.testing.assert_allclose(s_hat[0], np.clip(d[::-1], 0.0, None), atol=1e-12)


def test_solve_square_system_matches_direct_solve():
    rng = np.random.default_rng(5)
    values = rng.random(64)
    profile = TransmissivityProfile(values, 1.0)
    n = 8
    matrix = build_coding_matrix(profile, 20, n, n)
    assert np.linalg.matrix_rank(matrix) == n
    s_true = rng.random(n) + 0.2
    d = matrix @ s_true
    (s_hat,), converged = solve_signal(profile, d[None], [20], n)
    assert converged.tolist() == [True]
    direct = np.linalg.solve(matrix, d)
    np.testing.assert_allclose(s_hat, direct, rtol=1e-6)
    np.testing.assert_allclose(s_hat, s_true, rtol=1e-6)


def test_solve_all_negative_data_yields_zero():
    profile = opaque_profile()
    matrix = build_coding_matrix(profile, 40, SCAN_POINTS, 10)
    d = -(matrix @ np.ones(10)) - 0.1
    s_hat, converged = solve_signal(profile, d[None], [40], 10)
    assert converged.tolist() == [True]
    np.testing.assert_array_equal(s_hat, 0.0)


@pytest.mark.parametrize("p_star", [0, 1, 17, 248, 1240, 2470, 2480])
def test_recover_noiseless_exactness(p_star):
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    series = noiseless_series(profile, p_star, signal)
    result = recover(profile, series, signal)
    assert result.status.tolist() == ["ok"]
    assert result.position.tolist() == [p_star]
    truth = signal.unit_sum().values
    error = np.linalg.norm(result.signal[0] - truth) / np.linalg.norm(truth)
    assert error < 1e-6
    assert result.residual[0] < 1e-12


def test_recover_residual_dominates_template_fit():
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    p_star = 950
    matrix = build_coding_matrix(profile, p_star, SCAN_POINTS, len(signal))
    (noisy,), _ = normalize(simulate(matrix, signal, 100.0, seed=(3, 1)))
    result = recover(profile, noisy, signal)
    template_fit = np.sum(
        (matrix @ signal.unit_sum().values - noisy) ** 2
    )
    assert result.status.tolist() == ["ok"]
    assert result.residual[0] <= template_fit + 1e-12


def test_recover_zero_shape_gives_zero_signal_and_scale():
    # Counts that every window is opaque to gain nothing at any offset:
    # offset 0, and a zero signal and scale rather than NaN.
    template = make_gaussian_signal(10.0, STEP_UM)
    dark = TransmissivityProfile(np.zeros(SCAN_POINTS + 40), STEP_UM)
    result = recover(dark, np.ones(SCAN_POINTS), template)
    assert result.status.tolist() == ["ok"]
    assert (result.position[0], result.scale[0]) == (0, 0.0)
    np.testing.assert_array_equal(result.signal, 0.0)
    assert result.residual[0] == SCAN_POINTS
    # Counts of nothing have nothing to fit; negative counts were not counted.
    profile = opaque_profile()
    assert recover(profile, np.zeros(SCAN_POINTS), template).status.tolist() == ["flat"]
    with pytest.raises(ValueError, match="counts must be >= 0"):
        recover(profile, -np.ones(SCAN_POINTS), template)


def test_normalization_scale_invariance():
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    p_star = 620
    matrix = build_coding_matrix(profile, p_star, SCAN_POINTS, len(signal))
    base = simulate(matrix, signal, peak_counts=10_000.0, seed=0, noiseless=True)
    scaled = ScanSeries(base.raw * 7.0)

    # Unit-peak counts are scale-free up to rounding, and so is the search,
    # whatever the template's scale.
    a, _ = normalize(base)
    b, _ = normalize(scaled)
    np.testing.assert_allclose(a, b, atol=1e-15)
    for t in (signal.values, signal.unit_sum().values, 3.0 * signal.values):
        assert search_position(profile, a, t) == search_position(profile, b, t) == [p_star]


@st.composite
def searches(draw):
    """A profile with opaque and open cells, a template, unit-peak counts d >= 0
    with some zeros, and the range of k for which every non-zero entry of
    2^k d, its every product with the window dots, every cross sum and every
    score stays normal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([*range(1, 13), 81]))
    n = draw(st.integers(1, 10))
    values = rng.random(2 * (m + n) + draw(st.integers(0, 60)))
    values[rng.random(values.size) < 0.2] = rng.choice([0.0, 1.0])
    values[rng.integers(0, values.size)] = 1.0  # some window dot is positive
    template = rng.random(n) + 0.01
    d = rng.random(m)
    d[rng.random(m) < 0.2] = 0.0
    d[rng.integers(0, m)] = 1.0
    window_dots, inv_norm = recovery._template_terms(values, template, m)
    positive = inv_norm[inv_norm > 0.0]
    least = d[d > 0].min() * min(window_dots[window_dots > 0].min(), 1.0) * min(positive.min(), 1.0)
    most = m * window_dots.max() * max(positive.max(), 1.0)
    k_range = (math.ceil(math.log2(np.finfo(float).tiny / least)) + 1,
               math.floor(math.log2(np.finfo(float).max / 4 / most)))
    return TransmissivityProfile(values, STEP_UM), template, d, k_range


@settings(max_examples=200, deadline=None)
@given(searches(), st.integers(-900, 900))
def test_search_is_invariant_to_a_power_of_two_count_scale(search, k):
    # Scaling d by 2^k scales every product, cross sum and score exactly
    # while they stay normal, so no offset's rank can change.
    profile, template, d, (k_min, k_max) = search
    k = min(max(k, k_min), k_max)
    assert search_position(profile, np.ldexp(d, k)[None], template) == search_position(
        profile, d[None], template
    )


@pytest.mark.parametrize("d", [[1e300, 2e300], [1.2e-297, 2.4e-297]])
def test_search_ranks_rows_near_the_float_range_ends_as_their_unit_peak_row(d):
    # The cross sums, about 1e307 and 1e-290, are normal; their squares
    # would leave the float range.
    profile = TransmissivityProfile(np.array([0, 0, 0, 0.25, 1, 1]), 1.0)
    template = np.array([4.7e6])
    assert search_position(profile, np.array([[0.5, 1.0]]), template) == [3]
    assert search_position(profile, np.array([d]), template) == [3]


def test_ties_between_equal_windows_go_to_the_smallest_offset():
    # A 37-cell profile tiled 60 times: every window recurs every 37 offsets,
    # so each row's best score is tied by every copy of its window.
    rng = np.random.default_rng(12)
    period, m = 37, 21
    profile = TransmissivityProfile(np.resize(rng.random(period), period * 60), STEP_UM)
    signal = make_gaussian_signal(10.0, STEP_UM)
    starts = rng.integers(0, period * 60 - m - len(signal) + 1, 40)
    noiseless = [build_coding_matrix(profile, int(p), m, len(signal)) @ signal.values
                 for p in starts]
    d = np.concatenate([noiseless, rng.random((40, m))])
    batch = recover_batch(profile, d, signal)
    assert set(batch.status) == {"ok"}
    positions = batch.position.tolist()
    assert positions == [search_position(profile, row[None] / row.max(), signal.values)[0] for row in d]
    assert positions[:40] == (starts % period).tolist()
    assert max(positions) < period


def as_tuple(result):
    """The one row of ``recover``'s record, which must be ok, as ``row_of`` gives it."""
    assert result.status.tolist() == ["ok"]
    return row_of(result, 0)


def row_of(batch, i):
    """Row i of a ``recover_batch`` record as ``as_tuple`` gives a fit, or
    its status where that is not ok."""
    if batch.status[i] != "ok":
        return str(batch.status[i])
    return (int(batch.position[i]), batch.signal[i].tobytes(), float(batch.scale[i]),
            float(batch.residual[i]))


@pytest.mark.parametrize("counts", [[1e300, 2e300], [1.2e-297, 2.4e-297]])
def test_recover_rows_near_the_float_range_ends_as_their_unit_peak_row(counts):
    # Their residuals and NNLS dual would overflow or underflow if fitted as they are.
    profile = TransmissivityProfile(np.array([0, 0, 0, 0.25, 1, 1]), 1.0)
    template = Signal(np.array([4.7e6]))
    unit_peak = recover(profile, np.array([0.5, 1.0]), template)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert as_tuple(recover(profile, np.array(counts), template)) == as_tuple(unit_peak)
    assert unit_peak.position[0] == 3 and unit_peak.scale[0] > 0.0


def screen_floats(rows, profile, m, n):
    """The ``SCREEN_FLOATS`` that screens ``rows`` rows per stack: rows times
    the profile's feasible offsets, 0 to size - m - n + 1, for m-point scans
    of an n-cell template."""
    return rows * (profile.values.size - m - n + 2)


@contextlib.contextmanager
def small_stacks(profile, search_rows, solve_rows, n):
    """Search in stacks of ``search_rows`` rows and solve in stacks of
    ``solve_rows`` rows of SCAN_POINTS x ``n`` coding matrices."""
    with pytest.MonkeyPatch.context() as patch:
        floats = screen_floats(search_rows, profile, SCAN_POINTS, n)
        patch.setattr(recovery, "SCREEN_FLOATS", floats)
        patch.setattr(recovery, "SOLVE_DOUBLES", solve_rows * SCAN_POINTS * n)
        yield


def random_rows(seed, rows, mu):
    """A profile of gold-like bars (1/um attenuation ``mu``), the Gaussian
    template and ``rows`` series as counted: noisy scans at random offsets,
    all-zero (flat) and constant rows, and uniform noise at any scale."""
    rng = np.random.default_rng(seed)
    geometry = ApertureGeometry(BIT_UM, BIT_UM, 10.0, generate_de_bruijn(8))
    profile = build_profile(geometry, OpticalContext(mu), STEP_UM).pad_open(0, 12)
    signal = make_gaussian_signal(10.0, STEP_UM)
    d = []
    for k in range(rows):
        kind = rng.integers(0, 6)
        if kind == 0:  # every point alike: all zero (flat) or all open
            d.append(np.full(SCAN_POINTS, float(rng.integers(0, 2))))
        elif kind == 1:  # no template window fits: uniform noise
            d.append(rng.random(SCAN_POINTS) * 10.0 ** rng.integers(-3, 4))
        else:
            p_star = int(rng.integers(0, 2480))
            matrix = build_coding_matrix(profile, p_star, SCAN_POINTS, len(signal))
            peak = float(rng.choice([10.0, 100.0, 1e4]))
            d.append(simulate(matrix, signal, peak, seed=(seed, k)).raw)  # may be flat
    return profile, signal, np.array(d)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 9),
    stack_rows=st.integers(1, 4),
    mu=st.sampled_from([0.219, 0.04, 1e9]),
)
def test_batch_row_equals_recover_bit_for_bit(seed, rows, stack_rows, mu):
    profile, signal, d = random_rows(seed, rows, mu)
    with small_stacks(profile, stack_rows, stack_rows, len(signal)):  # several stacks per call
        batch = recover_batch(profile, d, signal)
    assert len(batch) == rows
    for i, row in enumerate(d):
        if row.any():
            assert row_of(batch, i) == as_tuple(recover(profile, row.copy(), signal))
        else:
            assert batch.status[i] == "flat"
            assert recover(profile, row.copy(), signal).status.tolist() == ["flat"]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.sampled_from([-1, 0, 1, SEARCH_ROWS + 1]),
    mu=st.sampled_from([0.219, 0.04, 1e9]),
)
def test_batch_row_is_one_search_and_one_solve(seed, extra, mu):
    # Stacks of SEARCH_ROWS - 1 to 2 * SEARCH_ROWS + 1 rows: one full stack,
    # one short, and full stacks followed by a short one, in the search and
    # in the solve.
    profile, signal, d = random_rows(seed, SEARCH_ROWS + extra, mu)
    with small_stacks(profile, SEARCH_ROWS, SEARCH_ROWS, len(signal)):
        batch = recover_batch(profile, d, signal)
    assert len(batch) == len(d)
    for i, counts in enumerate(d):
        if not counts.any():
            assert batch.status[i] == "flat"
            continue
        d_i, _ = normalize(ScanSeries(counts))  # the unit-peak counts that are fitted
        row = d_i[0]
        (position,) = search_position(profile, d_i, signal.values)
        (shape,), converged = solve_signal(profile, d_i, [position], len(signal))
        # A failed row holds the solve's last iterate as its signal and scale.
        status = "ok" if converged[0] else "failed"
        assert batch.status[i] == status
        scale = shape.sum()
        assert batch.position[i] == position
        assert batch.scale[i] == scale
        np.testing.assert_array_equal(batch.signal[i], shape / scale if scale > 0 else shape)
        # The residual is that of scale * signal at the searched offset.
        matrix = build_coding_matrix(profile, position, SCAN_POINTS, len(signal))
        fit = matrix @ (batch.scale[i] * batch.signal[i])
        assert batch.residual[i] == float(np.sum((fit - row) ** 2))
        if status == "ok":
            assert batch.signal[i].sum() == pytest.approx(1.0 if scale else 0.0)


@pytest.mark.parametrize("m", [21, 81, 161])
@pytest.mark.parametrize("bound", [recovery.SOLVE_DOUBLES, 2_000, 1])
def test_solve_stacks_hold_at_most_the_bound(monkeypatch, m, bound):
    # 700 rows make full stacks and a short one under the default
    # bound at every M; under the bound of 1 every row alone exceeds it.
    rng = np.random.default_rng(m)
    profile = opaque_profile(pad_cells=m)
    signal = make_gaussian_signal(10.0, STEP_UM)
    n = len(signal)
    d = np.array([
        simulate(build_coding_matrix(profile, int(p), m, n), signal, 100.0, seed=(m, k)).raw
        for k, p in enumerate(rng.integers(0, 2480, 700 if bound > 1 else 5))
    ])
    calls = []
    real = recovery.nnls

    def record(a, b):
        calls.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(recovery, "SOLVE_DOUBLES", bound)
    monkeypatch.setattr(recovery, "nnls", record)
    recover_batch(profile, d, signal)
    assert sum(t for t, _, _ in calls) == d.any(axis=1).sum()  # the rows that are not flat
    assert all(shape[1:] == (m, n) for shape in calls)
    for t, _, _ in calls:
        if m * n > bound:
            assert t == 1
        else:
            assert t * m * n <= bound
    # Every stack but the last is full: one more row would exceed the bound.
    assert all((t + 1) * m * n > bound for t, _, _ in calls[:-1])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 13),
    mu=st.sampled_from([0.219, 0.04, 1e9]),
)
def test_batch_rows_are_recovered_alone_when_search_and_solve_stacks_do_not_line_up(
    seed, rows, mu
):
    # Search stacks of 2 rows and solve stacks of 3: their boundaries meet
    # only every 6 rows.
    profile, signal, d = random_rows(seed, rows, mu)
    with small_stacks(profile, 2, 3, len(signal)):
        batch = recover_batch(profile, d, signal)
    assert len(batch) == rows
    for i, row in enumerate(d):
        if not row.any():
            assert batch.status[i] == "flat"
            continue
        alone = recover(profile, row.copy(), signal)
        if alone.status[0] == "failed":
            assert batch.status[i] == "failed"
            iterate = batch.scale[i] * batch.signal[i]
            assert iterate.tobytes() == (alone.scale[0] * alone.signal[0]).tobytes()
        else:
            assert row_of(batch, i) == as_tuple(alone)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    flat=st.lists(st.booleans(), min_size=1, max_size=9),
    k=st.lists(st.integers(-960, 1000), min_size=9, max_size=9),
    mu=st.sampled_from([0.219, 0.04, 1e9]),
)
def test_batch_scales_rows_to_unit_peak_and_flags_flat_rows(seed, flat, k, mu):
    # Row i is the unit-peak row times 2^k[i], or all zero. Every non-zero
    # unit-peak entry here is at least 2^-53, so each scaled one stays
    # normal and dividing by the row's peak 2^k[i] gives it back exactly.
    profile, signal, d = random_rows(seed, len(flat), mu)
    unit = np.zeros_like(d)
    unit[d.any(axis=1)] = normalize(ScanSeries(d))[0]
    unit[flat] = 0.0
    batch = recover_batch(profile, np.ldexp(unit, np.array(k[: len(flat)])[:, None]), signal)
    for i, row in enumerate(unit):
        if not row.any():
            assert batch.status[i] == "flat"
            continue
        alone = recover(profile, row, signal)
        if alone.status[0] == "failed":
            assert batch.status[i] == "failed"
        else:
            assert row_of(batch, i) == as_tuple(alone)


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
    batch = recover_batch(profile, d, signal)
    assert batch.status.tolist() == ["ok", "failed", "ok"]
    assert row_of(batch, 0) == as_tuple(alone[0])
    assert row_of(batch, 2) == as_tuple(alone[2])
    assert recover(profile, d[1], signal).status.tolist() == ["failed"]


def test_batch_accepts_empty_and_rejects_bad_arguments():
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    empty = recover_batch(profile, np.zeros((0, SCAN_POINTS)), signal)
    assert [column.shape for column in vars(empty).values()] == [
        (0,), (0, len(signal)), (0,), (0,), (0,)]
    with pytest.raises(ValueError):
        recover_batch(profile, np.ones(SCAN_POINTS), signal)
    with pytest.raises(ValueError, match=r"got shape \(3, 0\)"):  # no scan points
        recover_batch(profile, np.zeros((3, 0)), signal)
    for bad in (np.nan, np.inf, -np.inf):
        d = np.ones((3, SCAN_POINTS))
        d[1, 4] = bad
        with pytest.raises(ValueError, match=r"^row 1: counts must be finite$"):
            recover_batch(profile, d, signal)
    d = np.ones((3, SCAN_POINTS))
    d[1, 4] = -1.0
    with pytest.raises(ValueError, match=r"^row 1: counts must be >= 0$"):
        recover_batch(profile, d, signal)
    d[0, 0] = np.nan  # a non-finite count is named first, as a series does
    with pytest.raises(ValueError, match=r"^row 0: counts must be finite$"):
        recover_batch(profile, d, signal)


@pytest.mark.parametrize("shape", [(0,), (0, 0), (0, 5, 3), (3,), (3, 0), (2, 5, 3)])
def test_batch_checks_the_stack_shape_when_it_is_empty_too(shape):
    profile = opaque_profile()
    signal = make_gaussian_signal(10.0, STEP_UM)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        recover_batch(profile, np.zeros(shape), signal)


@st.composite
def tie_prone_stacks(draw):
    """A profile, a template and a stack of rows made to tie, or to leave the
    screen's error bound: long open and opaque runs (sq = 0), periodic
    profiles (exact ties), mirrored profiles with a symmetric template and
    palindromic rows (ties in exact arithmetic that round apart), templates
    scaled by 1e-45 to 1e45 (window dots outside float32's range), and rows
    that are all zero, negative, non-finite, scaled by 1e-300 to 1e300,
    scaled to near float32's least or largest value, or hold one entry
    below float32's least normal value."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([*range(1, 13), 81]))
    n = draw(st.integers(1, 10))
    size = 2 * (m + n + draw(st.integers(0, 60)))
    kind = draw(st.sampled_from(["random", "runs", "periodic", "mirrored"]))
    if kind == "random":
        values = rng.random(size)
    elif kind == "runs":
        levels = rng.choice([0.0, 1.0, 0.25], size)
        values = np.repeat(levels, rng.integers(1, 3 * m + 2, size))[:size]
    elif kind == "periodic":
        values = np.resize(rng.random(rng.integers(1, 8)), size)
    else:
        half = rng.random(size // 2)
        values = np.concatenate([half, half[::-1]])
    template = rng.random(n) * 10.0 ** rng.integers(-45, 46)
    if kind == "mirrored":
        template = template + template[::-1]
    rows = draw(st.sampled_from([1, 2, SEARCH_ROWS - 1, SEARCH_ROWS, SEARCH_ROWS + 1]))
    d = rng.random((rows, m))
    d += d[:, ::-1]  # palindromic
    shuffled = rng.random(rows) < (0.2 if kind == "mirrored" else 0.6)
    d[shuffled] = rng.random((shuffled.sum(), m))
    special = rng.integers(0, 16, rows)
    d[special == 0] = 0.0
    d[special == 1] *= -1.0
    d[special == 2, rng.integers(0, m)] = rng.choice([np.nan, np.inf, -1.0])
    scaled = special == 3
    d[scaled] *= 10.0 ** rng.integers(-300, 301, (scaled.sum(), 1))
    tiny = special == 4
    d[tiny] *= 10.0 ** rng.uniform(-45.0, -37.0, (tiny.sum(), 1))
    huge = special == 5
    d[huge] *= rng.uniform(1e37, 3e38, (huge.sum(), 1))
    d[special == 6, rng.integers(0, m)] = 10.0 ** rng.uniform(-45.0, -38.0)
    return TransmissivityProfile(values, STEP_UM), Signal(template), d


def extreme_scale_stack(template_scale, row_scale):
    """A profile with no period, a flat template of ``template_scale`` and
    two rows: one of unit scale, which the screen places alone, and one of
    ``row_scale``, whose cross sums underflow or overflow there."""
    profile = TransmissivityProfile(np.arange(60) * 0.618 % 1.0, STEP_UM)
    row = np.array([0.2, 1.0, 0.6, 1.0, 0.2])
    return profile, Signal(np.full(3, template_scale)), np.array([row, row_scale * row])


def float32_flip_stack():
    """Two rows d = (1, y) against a profile whose windows (1/16, 1) at offset
    0 and (1, 1/32) at offset 3 score within 9e-8 of each other, relatively:
    offset 3 is ahead in exact arithmetic and offset 0 in float32. The window
    dots (a template of one open cell) and the products are exact in
    float32, and the cross sums of two terms round once, so the flip does not
    depend on the order in which a matrix product sums."""
    profile = TransmissivityProfile(np.array([0.0625, 1.0, 0.0, 1.0, 0.03125]), STEP_UM)
    return profile, Signal(np.ones(1)), np.array([[1.0, 0.9692970843765929]] * 2)


@settings(max_examples=150, deadline=None)
@given(tie_prone_stacks())
@example(extreme_scale_stack(1e-20, 1e-300))
@example(extreme_scale_stack(1e20, 1e300))
@example(extreme_scale_stack(1e-40, 1.0))  # window dots below float32's least normal value
@example(extreme_scale_stack(1e40, 1.0))  # window dots above float32's largest value
@example(extreme_scale_stack(1e30, 1e-43))  # unit-range cross sums of float32-subnormal rows
@example(extreme_scale_stack(1.0, 3e38))  # cross sums past float32's largest value
@example(float32_flip_stack())
def test_batch_positions_equal_the_one_row_search_on_ties(stack):
    profile, signal, d = stack
    received, positions = [], []
    screen = recovery._best_offsets

    def keep(*args):
        received.extend(args[-1])
        positions.extend(screen(*args))
        return positions[-len(args[-1]) :]

    # Overflow and NaN are inputs here, not faults, in the search and the solve.
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        patch.setattr(recovery, "_best_offsets", keep)
        # Stacks of SEARCH_ROWS rows, so that the drawn row counts fill one
        # stack, fall one row short of it or spill one row past it.
        floats = screen_floats(SEARCH_ROWS, profile, d.shape[1], len(signal))
        patch.setattr(recovery, "SCREEN_FLOATS", floats)
        if np.isfinite(d).all() and (d >= 0.0).all():
            recover_batch(profile, d, signal)  # searches the unit-peak rows that are not flat
        else:  # recover_batch rejects the stack; its search still takes it
            with pytest.raises(ValueError, match="counts must be"):
                recover_batch(profile, d, signal)
        # The search also takes every stack as it is, rows near 1e-300 and 1e300 included.
        searched = search_position(profile, d, signal.values)
    assert searched == positions[-len(d) :]
    # The float64 one-row search, outside the patch: the screen is never its own reference.
    terms = recovery._template_terms(profile.values, signal.values, d.shape[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = [recovery._best_offset(*terms, row) for row in received]
    assert positions == expected
    assert all(type(p) is int for p in positions)


def test_near_opaque_bars_keep_the_search_in_double_precision():
    # Bars of 10/um attenuation over 10 um transmit exp(-100), a float32
    # subnormal, and an 11-point scan fits inside the pattern's 8-bit run
    # of bars, where 1/||r_p|| is past float32's largest value. So the
    # screen makes no float32 copies, and every row, scanned over bars and
    # gaps alike, is placed by the one-row search without a warning.
    geometry = ApertureGeometry(BIT_UM, BIT_UM, 10.0, generate_de_bruijn(8))
    profile = build_profile(geometry, OpticalContext(10.0), STEP_UM).pad_open(0, 12)
    signal = make_gaussian_signal(10.0, STEP_UM)
    m = 11
    terms = recovery._template_terms(profile.values, signal.values, m)
    assert recovery._single_precision(*terms) is None
    matrices = build_coding_matrix(profile, np.arange(0, 2540, 7), m, len(signal))
    counts = simulate(matrices, signal, 1e4, 5).raw
    counts = counts[counts.any(axis=1)]  # scans over bars alone count nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = recover_batch(profile, counts, signal)
    assert set(results.status) == {"ok"}
    assert results.position.tolist() == [
        recovery._best_offset(*terms, row / row.max()) for row in counts
    ]


@pytest.mark.parametrize("m", [1, 11, 81, 241])
@pytest.mark.parametrize("t", [1, 16, 64])
def test_screen_products_stay_within_the_one_thread_bound(monkeypatch, m, t):
    rng = np.random.default_rng(m * t)
    window_dots, inv_norm = recovery._template_terms(rng.random(2600 + m), np.ones(10), m)
    d = rng.random((t, m))
    products = []
    matmul = np.matmul

    def record(a, b, **kwargs):
        products.append((*a.shape, b.shape[1]))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", record)
    screen = recovery._single_precision(window_dots, inv_norm)
    positions = recovery._best_offsets(window_dots, inv_norm, screen, d)
    monkeypatch.undo()
    assert positions == [recovery._best_offset(window_dots, inv_norm, row) for row in d]
    assert all(rows * inner * cols <= recovery.SCREEN_MADDS for rows, inner, cols in products)
    # A stack of one is searched alone; any other screens every offset once.
    assert sum(cols for _, _, cols in products) == (inv_norm.size if t > 1 else 0)


@pytest.mark.parametrize("rows_per_stack", [None, 0.5, 1, 2.5, 3])
def test_search_stacks_hold_at_most_the_budget(monkeypatch, rows_per_stack):
    # Budgets of half a row (each row alone exceeds it), of 1, 2.5 and 3
    # rows, and the default, under which the 7 rows are one stack.
    profile, signal, d = random_rows(5, 7, 0.219)
    offsets = screen_floats(1, profile, SCAN_POINTS, len(signal))
    if rows_per_stack is not None:
        monkeypatch.setattr(recovery, "SCREEN_FLOATS", int(rows_per_stack * offsets))
    budget = recovery.SCREEN_FLOATS
    stacks = []
    real = recovery._best_offsets

    def record(window_dots, inv_norm, screen, rows):
        stacks.append((len(rows), inv_norm.size, rows.copy()))
        return real(window_dots, inv_norm, screen, rows)

    monkeypatch.setattr(recovery, "_best_offsets", record)
    positions = search_position(profile, d, signal.values)
    monkeypatch.undo()
    full = 7 if rows_per_stack is None else max(1, int(rows_per_stack))  # rows per full stack
    assert stacks[0][0] == full
    assert all(p_count == offsets for _, p_count, _ in stacks)
    assert all(t * offsets <= budget or t == 1 for t, _, _ in stacks)
    # Every stack but the last is full: one more row would exceed the budget.
    assert all((t + 1) * offsets > budget for t, _, _ in stacks[:-1])
    np.testing.assert_array_equal(np.concatenate([rows for _, _, rows in stacks]), d)
    terms = recovery._template_terms(profile.values, signal.values, SCAN_POINTS)
    assert positions == [recovery._best_offset(*terms, row) for row in d]


@pytest.mark.parametrize(
    "d, template, message",
    [
        (np.ones((2, 0)), np.ones(3), "got shape"),  # ZeroDivisionError in the screen
        (np.ones((2, 2, 5)), np.ones(3), "got shape"),
        (np.ones(0), np.ones(3), "got shape"),
        (np.ones(5), np.ones(3), "got shape"),  # one series is a stack of one, (1, M)
        (np.ones((1, 5)), np.ones(0), "non-empty"),
        (np.ones((1, 5)), np.ones((2, 3)), "non-empty"),
        (np.ones((1, 5)), np.array([1.0, np.nan, 1.0]), "finite"),  # silently placed at 0
        (np.ones((1, 5)), np.array([1.0, np.inf]), "finite"),
        (np.ones((1, 5)), np.array([1.0, -1.0]), ">= 0"),
    ],
    ids=["no-points", "3-d", "empty-series", "one-series", "empty-template", "2-d-template",
         "nan-template", "inf-template", "negative-template"],
)
def test_search_refuses_malformed_arguments(d, template, message):
    profile = TransmissivityProfile(np.arange(60) * 0.618 % 1.0, STEP_UM)
    with pytest.raises(ValueError, match=message):
        search_position(profile, d, template)
