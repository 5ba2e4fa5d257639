"""Pattern generation and window statistics, checked against brute force."""

from __future__ import annotations

import numpy as np
import pytest

from codedscan.codes import (
    Pattern,
    all_window_stats,
    generate_de_bruijn,
    verify_uniqueness,
    window_stats,
)


def cyclic_words(bits: np.ndarray, n: int) -> list[tuple]:
    """Brute-force oracle: every n-bit window of the cyclic sequence."""
    ext = np.concatenate([bits, bits[: n - 1]])
    return [tuple(ext[i : i + n]) for i in range(len(bits))]


def test_order_3_frozen_value():
    assert generate_de_bruijn(3).to_string() == "00010111"


def test_order_1_frozen_value():
    assert generate_de_bruijn(1).to_string() == "01"


@pytest.mark.parametrize("order", range(3, 13))
def test_cyclic_enumeration_all_words_once(order):
    pattern = generate_de_bruijn(order)
    assert len(pattern) == 2**order
    words = cyclic_words(pattern.bits, order)
    assert len(set(words)) == 2**order


def test_order_8_linear_window_count():
    pattern = generate_de_bruijn(8)
    views = np.lib.stride_tricks.sliding_window_view(pattern.bits, 8)
    distinct = {v.tobytes() for v in views}
    assert views.shape[0] == 249
    assert len(distinct) == 249


@pytest.mark.parametrize("order", [1, 2, 5, 10, 12])
def test_uniqueness_holds_at_own_order(order):
    assert verify_uniqueness(generate_de_bruijn(order), order)


def test_uniqueness_fails_below_order():
    # pigeonhole: 250 windows of 7 bits, only 128 possible words
    assert not verify_uniqueness(generate_de_bruijn(8), 7)


def test_uniqueness_trivial_counterexample():
    assert not verify_uniqueness(Pattern.from_string("0000"), 2)


@pytest.mark.parametrize(
    "window,zeros,flips",
    [("00000000", 1.0, 0), ("01010101", 0.5, 7), ("00010111", 0.5, 3)],
)
def test_window_stats_frozen_values(window, zeros, flips):
    # direct recount for the third case: unequal adjacent pairs of
    # 0,0,0,1,0,1,1,1 sit at offsets (2,3),(3,4),(4,5) only
    stats = window_stats(Pattern.from_string(window), 0, len(window))
    assert stats.zeros_fraction == zeros
    assert stats.bit_flips == flips


def test_window_stats_subwindow():
    pattern = Pattern.from_string("0001011100")
    stats = window_stats(pattern, 2, 4)  # "0101"
    assert stats.start_index == 2
    assert stats.zeros_fraction == 0.5
    assert stats.bit_flips == 3


def test_window_stats_out_of_bounds():
    pattern = Pattern.from_string("0101")
    with pytest.raises(ValueError):
        window_stats(pattern, 2, 4)
    with pytest.raises(ValueError):
        window_stats(pattern, -1, 2)


def test_zero_count_cross_check_random_patterns():
    # sum over windows of zeros_fraction*n == direct per-position recount
    # weighted by how many windows cover each position
    rng = np.random.default_rng(42)
    n = 6
    for _ in range(20):
        size = int(rng.integers(n, 40))
        bits = rng.integers(0, 2, size=size).astype(np.uint8)
        pattern = Pattern(bits)
        total = sum(s.zeros_fraction * n for s in all_window_stats(pattern, n))
        coverage = 0.0
        for i in range(size):
            lo = max(0, i - n + 1)
            hi = min(i, size - n)
            if bits[i] == 0 and hi >= lo:
                coverage += hi - lo + 1
        assert total == pytest.approx(coverage)


@pytest.mark.parametrize("bad", [0, -3, 21, 2.5, "8"])
def test_order_out_of_range_rejected(bad):
    with pytest.raises(ValueError):
        generate_de_bruijn(bad)


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(np.array([0, 2, 1]))
    with pytest.raises(ValueError):
        Pattern.from_string("01a1")
    with pytest.raises(ValueError):
        Pattern.from_string("")


def test_pattern_roundtrip_and_immutability():
    pattern = generate_de_bruijn(4)
    assert Pattern.from_string(pattern.to_string()).to_string() == pattern.to_string()
    with pytest.raises(ValueError):
        pattern.bits[0] = 1
