"""Forward scan model: signals, coding matrices, Poisson counts."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedscan.aperture import TransmissivityProfile
from codedscan.forward import (
    ScanSeries,
    Signal,
    bounded_gaussian,
    build_coding_matrix,
    make_boxcar_signal,
    make_gaussian_signal,
    simulate,
    trial_rng,
)


def test_gaussian_signal_shape_and_symmetry():
    signal = make_gaussian_signal(10.0, 1.0)
    assert len(signal) == 10
    np.testing.assert_allclose(signal.values, signal.values[::-1])
    assert signal.values.max() <= 1.0
    # centers straddle zero for even N, so the peak sits just below 1
    assert signal.values.max() == pytest.approx(math.exp(-0.5**2 / (2 * 2.5**2)))


def test_gaussian_single_cell_limit():
    signal = make_gaussian_signal(1.0, 1.0)
    assert len(signal) == 1
    assert signal.values[0] == 1.0


def test_gaussian_edge_value_frozen():
    # formula value at the support boundary itself
    assert bounded_gaussian(5.0, 10.0) == pytest.approx(math.exp(-2.0))
    assert bounded_gaussian(5.0, 10.0) == pytest.approx(0.1353, abs=5e-5)
    assert bounded_gaussian(5.001, 10.0) == 0.0


def test_gaussian_width_below_step_rejected():
    with pytest.raises(ValueError):
        make_gaussian_signal(0.5, 1.0)


def test_boxcar_signal():
    signal = make_boxcar_signal(10.0, 2.0)
    np.testing.assert_array_equal(signal.values, np.ones(5))


def test_coding_matrix_all_ones_profile():
    profile = TransmissivityProfile(np.ones(20), 1.0)
    matrix = build_coding_matrix(profile, 3, 4, 5)
    np.testing.assert_array_equal(matrix, np.ones((4, 5)))
    signal = make_gaussian_signal(5.0, 1.0)
    series = simulate(matrix, signal, peak_counts=math.inf, seed=0)
    np.testing.assert_allclose(series.raw, signal.values.sum())


def test_coding_matrix_single_row_is_dot_product():
    values = np.linspace(0.0, 1.0, 12)
    profile = TransmissivityProfile(values, 1.0)
    matrix = build_coding_matrix(profile, 2, 1, 6)
    np.testing.assert_array_equal(matrix[0], values[2:8])


def test_coding_matrix_alternating_frozen():
    profile = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    matrix = build_coding_matrix(profile, 0, 2, 2)
    np.testing.assert_array_equal(matrix, [[1.0, 0.0], [0.0, 1.0]])


def test_coding_matrix_bounds():
    profile = TransmissivityProfile(np.ones(10), 1.0)
    build_coding_matrix(profile, 0, 6, 5)  # p+M+N-1 = 10, just fits
    with pytest.raises(ValueError):
        build_coding_matrix(profile, 1, 6, 5)
    with pytest.raises(ValueError):
        build_coding_matrix(profile, -1, 2, 2)
    with pytest.raises(ValueError):
        build_coding_matrix(profile, 0, 0, 2)


def test_coding_matrix_constant_antidiagonals():
    rng = np.random.default_rng(7)
    values = rng.random(40)
    matrix = build_coding_matrix(values, 5, 8, 6)
    for i in range(8):
        for j in range(6):
            assert matrix[i, j] == values[5 + i + j]


def test_simulate_noiseless_scaling():
    profile = TransmissivityProfile(np.ones(30), 1.0)
    matrix = build_coding_matrix(profile, 0, 10, 10)
    signal = make_gaussian_signal(10.0, 1.0)
    series = simulate(matrix, signal, peak_counts=100.0, seed=1, noiseless=True)
    np.testing.assert_allclose(series.raw, 100.0)


def test_simulate_zero_intensity_zero_counts():
    profile = TransmissivityProfile(np.zeros(30), 1.0)
    matrix = build_coding_matrix(profile, 0, 10, 10)
    signal = make_gaussian_signal(10.0, 1.0)
    series = simulate(matrix, signal, peak_counts=100.0, seed=2)
    np.testing.assert_array_equal(series.raw, 0.0)


def test_simulate_zero_signal_rejected():
    profile = TransmissivityProfile(np.ones(30), 1.0)
    matrix = build_coding_matrix(profile, 0, 10, 10)
    with pytest.raises(ValueError):
        simulate(matrix, Signal(np.zeros(10)), peak_counts=100.0, seed=0)


def test_simulate_law_of_large_numbers():
    # 1e5 repeated draws of one scan point: constant profile means every
    # row of the matrix repeats the same measurement
    draws = 100_000
    profile = TransmissivityProfile(np.full(draws + 4, 0.6), 1.0)
    matrix = build_coding_matrix(profile, 0, draws, 4)
    signal = make_gaussian_signal(4.0, 1.0)
    mean_intensity = 0.6 * 100.0
    series = simulate(matrix, signal, peak_counts=100.0, seed=42)
    tolerance = 3.0 * math.sqrt(mean_intensity / draws)
    assert series.raw.mean() == pytest.approx(mean_intensity, abs=tolerance)


def test_simulate_linearity_noiseless():
    rng = np.random.default_rng(3)
    profile = TransmissivityProfile(rng.random(40), 1.0)
    matrix = build_coding_matrix(profile, 0, 20, 8)
    s1 = Signal(rng.random(8))
    s2 = Signal(rng.random(8))
    both = Signal(s1.values + s2.values)
    d1 = simulate(matrix, s1, math.inf, 0).raw
    d2 = simulate(matrix, s2, math.inf, 0).raw
    d12 = simulate(matrix, both, math.inf, 0).raw
    np.testing.assert_allclose(d12, d1 + d2, atol=1e-12)


def test_simulate_reproducible_and_stream_independent():
    rng = np.random.default_rng(4)
    profile = TransmissivityProfile(rng.random(40), 1.0)
    matrix = build_coding_matrix(profile, 0, 20, 8)
    signal = make_gaussian_signal(8.0, 1.0)
    a = simulate(matrix, signal, 50.0, seed=(9, 1, 2)).raw
    b = simulate(matrix, signal, 50.0, seed=(9, 1, 2)).raw
    c = simulate(matrix, signal, 50.0, seed=(9, 1, 3)).raw
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("mean", [0.5, 5.0, 50.0, 500.0])
def test_poisson_sampler_statistics(mean):
    n = 100_000
    draws = trial_rng(123, int(mean * 10)).poisson(mean, n)
    se_mean = math.sqrt(mean / n)
    se_var = math.sqrt((mean + 2.0 * mean**2) / n)
    assert draws.mean() == pytest.approx(mean, abs=5 * se_mean)
    assert draws.var(ddof=1) == pytest.approx(mean, abs=5 * se_var)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                          st.integers(2**64, 2**130)), min_size=1, max_size=5))
def test_trial_rng_is_philox_keyed_by_the_seed_sequence_of_its_entropy(entropy):
    # Entries of 2**32 and more expand to several 32-bit words of entropy.
    key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key))
    got = trial_rng(*entropy)
    assert got.random(8).tobytes() == expected.random(8).tobytes()
    means = [0.5, 50.0, 5000.0]
    assert got.poisson(means).tolist() == expected.poisson(means).tolist()


# Entries below 2**32 are one uint32 word of entropy; larger ones are several.
ENTRIES = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                    st.integers(2**64, 2**130))


@settings(max_examples=60, deadline=None)
@given(key=st.one_of(ENTRIES, st.lists(ENTRIES, min_size=1, max_size=4).map(tuple)),
       rows=st.integers(1, 6), peak=st.sampled_from([0.5, 50.0, 5000.0]))
@example(key=0, rows=1, peak=50.0)  # a stack of one, one word
@example(key=(2**130 + 12345, 7, 8), rows=3, peak=50.0)  # 7 words
@example(key=(1, 2, 3, 4, 5, 6, 7), rows=6, peak=5.0)
def test_stacked_draw_is_one_stream_in_c_order(key, rows, peak):
    # A stack is drawn from the one stream of its key in C order: as one
    # Poisson call on the stacked intensities, and as its rows drawn one
    # after another from one generator. Its first row is the (M, N) draw.
    values = np.random.default_rng(5).random(40)
    matrices = build_coding_matrix(values, np.arange(rows), 9, 4)
    signal = make_gaussian_signal(4.0, 1.0)
    stack = simulate(matrices, signal, peak, key).raw
    intensity = matrices @ signal.values * (peak / signal.values.sum())
    entropy = key if isinstance(key, tuple) else (key,)
    assert stack.shape == (rows, 9)
    assert stack.tobytes() == trial_rng(*entropy).poisson(intensity).astype(float).tobytes()
    rng = trial_rng(*entropy)
    for t in range(rows):
        assert stack[t].tobytes() == rng.poisson(intensity[t]).astype(float).tobytes()
    alone = simulate(matrices[0], signal, peak, key).raw
    assert alone.tobytes() == trial_rng(*entropy).poisson(intensity[0]).astype(float).tobytes()


def test_negative_key_entry_is_rejected():
    # as SeedSequence rejects it, and so trial_rng
    matrices = build_coding_matrix(np.ones(10), np.zeros(2, dtype=int), 3, 2)
    signal = make_gaussian_signal(2.0, 1.0)
    for key in ((2**40, -(2**40)), -3):
        with pytest.raises(ValueError, match="negative"):
            simulate(matrices, signal, 10.0, key)
    with pytest.raises(ValueError, match="negative"):
        simulate(matrices[0], signal, 10.0, (1, -1))
    with pytest.raises(ValueError, match="negative"):
        trial_rng(1, -1)


@pytest.mark.parametrize("key", [[(0,), (1,)], [5, 3], (1.5,), 1.5, (2, "3"), None, (True, 2.0)])
def test_malformed_keys_are_refused_with_value_error(key):
    # A key is an int >= 0 or a tuple of them: a list of keys, a float
    # (which int() would truncate) or any other entry is refused.
    matrix = build_coding_matrix(np.ones(10), 0, 3, 2)
    with pytest.raises(ValueError, match="key entries must be ints"):
        simulate(matrix, make_gaussian_signal(2.0, 1.0), 10.0, key)
    with pytest.raises(ValueError, match="key entries must be ints"):
        trial_rng(*(key if isinstance(key, tuple) else (key,)))


def test_integer_like_key_entries_key_the_int_stream():
    # numpy integers key the same stream as the int they hold.
    expected = trial_rng(3, 7).random(4).tobytes()
    assert trial_rng(np.int64(3), np.uint8(7)).random(4).tobytes() == expected


def test_signal_and_series_validation():
    with pytest.raises(ValueError):
        Signal(np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        ScanSeries(np.array([-1.0]))
    with pytest.raises(ValueError):
        Signal(np.zeros(3)).unit_sum()
    unit = Signal(np.array([1.0, 3.0])).unit_sum()
    np.testing.assert_allclose(unit.values, [0.25, 0.75])


@pytest.mark.parametrize("stack", [False, True], ids=["vector", "stack"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_values_rejected(bad, stack):
    values = np.array([1.0, 2.0, bad])
    with pytest.raises(ValueError, match="counts must be finite"):
        ScanSeries(np.array([[3.0, 4.0, 5.0], values]) if stack else values)
    if not stack:  # a signal is one vector
        with pytest.raises(ValueError, match="signal values must be finite"):
            Signal(values)


def test_stack_errors_name_the_first_bad_row():
    counts = np.ones((4, 3))
    counts[1, 0] = -1.0
    with pytest.raises(ValueError, match=r"^row 1: counts must be >= 0$"):
        ScanSeries(counts)
    counts[3, 2] = math.nan  # every row is checked for finite counts before any for sign
    with pytest.raises(ValueError, match=r"^row 3: counts must be finite$"):
        ScanSeries(counts)
    with pytest.raises(ValueError, match=r"^counts must be finite$"):
        ScanSeries(counts[3])
    with pytest.raises(ValueError, match=r"^counts must be >= 0$"):
        ScanSeries(counts[1])


@pytest.mark.parametrize("make, field", [
    (ScanSeries, "raw"), (Signal, "values"),
    (lambda values: TransmissivityProfile(values, 1.0), "values"),
], ids=["ScanSeries", "Signal", "TransmissivityProfile"])
def test_frozen_values_are_a_private_copy(make, field):
    values = np.array([0.25, 0.5, 1.0])
    frozen = getattr(make(values), field)
    assert not frozen.flags.writeable
    values[0] = 0.75  # the caller's array stays its own, and writable
    assert frozen.tolist() == [0.25, 0.5, 1.0]


def test_coding_matrix_stack_holds_each_offsets_matrix():
    values = np.random.default_rng(3).random(50)
    offsets = np.array([7, 0, 31, 7])
    stack = build_coding_matrix(values, offsets, 9, 4)
    assert stack.shape == (4, 9, 4)
    assert stack.flags.c_contiguous and not stack.flags.writeable
    for p, matrix in zip(offsets, stack):
        assert matrix.tobytes() == build_coding_matrix(values, int(p), 9, 4).tobytes()
    assert build_coding_matrix(values, np.array([], dtype=int), 9, 4).shape == (0, 9, 4)
    with pytest.raises(ValueError):
        build_coding_matrix(values, np.array([0, 39]), 9, 4)  # 39 + 9 + 4 - 1 > 50
    with pytest.raises(ValueError):
        build_coding_matrix(values, np.array([-1, 3]), 9, 4)


def test_coding_matrix_immutable():
    matrix = build_coding_matrix(np.ones(10), 0, 3, 3)
    assert matrix.flags.c_contiguous
    with pytest.raises(ValueError):
        matrix[0, 0] = 5.0
