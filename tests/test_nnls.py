"""Active-set NNLS against independent oracles."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedscan.nnls import DUAL_TOLERANCE, SINGULAR_RATIO, nnls

# The package exports the function under the module's name.
nnls_module = importlib.import_module("codedscan.nnls")


def nnls_alone(a, b):
    """``nnls`` of one (M, N) problem as a stack of one: ``(x, converged)``."""
    x, converged = nnls(np.asarray(a)[None], np.asarray(b)[None])
    return x[0], bool(converged[0])


def lawson_hanson_oracle(a, b, max_iterations: int | None = None):
    """The single-problem Lawson-Hanson solver, one ``lstsq`` per inner step:
    ``(x, converged)``, where a problem past ``max_iterations`` holds its
    best iterate.

    Rows that ``nnls`` hands to its Lawson-Hanson fallback must return this
    function's answer bit for bit; the rows it accepts agree with it to
    1e-9 relative wherever it converges.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape[0] != b.size:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    m, n = a.shape
    if max_iterations is None:
        max_iterations = 10 * n

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    iterations = 0

    while True:
        w = a.T @ (b - a @ x)
        w_active = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_active))
        if passive.all() or w_active[j] <= DUAL_TOLERANCE:
            return x, True
        iterations += 1
        if iterations > max_iterations:
            return x, False
        passive[j] = True

        while True:
            cols = np.flatnonzero(passive)
            z = np.zeros(n)
            z[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if z[cols].min() > 0.0:
                x = z
                break
            # step from x toward z, stopping at the first coordinate to hit 0
            blocking = passive & (z <= 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(blocking, x / (x - z), np.inf)
            alpha = float(np.nanmin(ratios))
            x = x + alpha * (z - x)
            released = passive & (x <= DUAL_TOLERANCE)
            x[released] = 0.0
            passive &= ~released
            iterations += 1
            if iterations > max_iterations:
                return x, False


def kkt_residuals(a, b, x) -> tuple[float, float]:
    """Worst-case KKT violations of a candidate solution.

    Returns ``(active, free)``: the largest positive dual among zero
    coordinates (should be ~0: no profitable coordinate to free) and the
    largest absolute dual among positive coordinates (should be ~0:
    stationarity on the face).
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    w = a.T @ (np.asarray(b, dtype=float) - a @ x)
    zero = x == 0.0
    active = float(np.max(w[zero], initial=0.0))
    free = float(np.max(np.abs(w[~zero]), initial=0.0))
    return active, free


def objective(a, b, x):
    return float(np.sum((a @ x - b) ** 2))


def assert_accepted_answer(a, b, x):
    """x is what ``nnls`` may accept for min ||A x - b||^2 over x >= 0: a
    KKT point whose duals, computed on A, are within ``DUAL_TOLERANCE`` *
    max|A'b|, with A of full column rank."""
    active, free = kkt_residuals(a, b, x)
    assert x.min() >= 0.0
    assert max(active, free) <= DUAL_TOLERANCE * np.abs(a.T @ b).max(initial=0.0)
    sigma = np.linalg.svd(a, compute_uv=False)
    assert a.shape[0] >= a.shape[1] and sigma[-1] > 0.99 * SINGULAR_RATIO * sigma[0]


def solve_and_trace(a, b):
    """``nnls`` of a stack: ``(x, converged, exact)``, where ``exact`` marks
    the rows that ran the Lawson-Hanson fallback."""
    with pytest.MonkeyPatch.context() as patch:
        _, fallback = _spy_kernel_and_fallback(patch)
        x, converged = nnls(a, b)
    ran = {fa.tobytes() + fb.tobytes() for fa, fb in fallback}
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    exact = np.array([a[r].tobytes() + b[r].tobytes() in ran for r in range(len(a))], dtype=bool)
    return x, converged, exact


def assert_rows_are_their_answers(a, b, x, converged, exact, close=True):
    """A row that ran Lawson-Hanson is ``lawson_hanson_oracle``'s answer, or
    its best iterate, bit for bit, and every row whose A is rank-deficient
    (by a margin) or short (M < N) ran it. Any other row is converged and an
    accepted answer. Where the oracle converges, such a row fits no worse
    than the oracle's answer, to 1e-9 ||b||^2, and, if ``close``, is within
    1e-9 relative of it."""
    for r in range(len(a)):
        sigma = np.linalg.svd(a[r], compute_uv=False)
        if a.shape[1] < a.shape[2] or sigma[-1] <= 0.99 * SINGULAR_RATIO * sigma[0]:
            assert exact[r]
        if not exact[r]:
            assert converged[r]
            assert_accepted_answer(a[r], b[r], x[r])
        try:
            expected, oracle_converged = lawson_hanson_oracle(a[r].copy(), b[r].copy())
        except ValueError:
            continue  # the oracle's empty-slice crash; see the last test in this file
        if not oracle_converged:
            assert not (exact[r] and converged[r])
        else:
            assert converged[r]
            if not exact[r]:
                slack = 1e-9 * float(b[r] @ b[r])
                assert objective(a[r], b[r], x[r]) <= objective(a[r], b[r], expected) + slack
                if close:
                    assert np.linalg.norm(x[r] - expected) <= 1e-9 * np.linalg.norm(expected)
        if exact[r]:
            assert x[r].tobytes() == expected.tobytes()


def test_identity_clamps_negative_data():
    a = np.eye(4)
    b = np.array([1.0, -2.0, 0.5, -0.1])
    x, converged = nnls_alone(a, b)
    assert converged
    np.testing.assert_allclose(x, [1.0, 0.0, 0.5, 0.0], atol=1e-12)


def test_all_negative_data_gives_zero():
    rng = np.random.default_rng(0)
    a = rng.random((6, 4))
    b = -(a @ np.ones(4))
    x, converged = nnls_alone(a, b)
    assert converged
    np.testing.assert_array_equal(x, 0.0)


def test_interior_solution_matches_direct_solve():
    rng = np.random.default_rng(1)
    a = rng.random((5, 5)) + np.eye(5)
    x_true = rng.random(5) + 0.5
    b = a @ x_true
    x, converged = nnls_alone(a, b)
    assert converged
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-9)
    np.testing.assert_allclose(x, x_true, rtol=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_matches_scipy_objective(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 21))
    n = int(rng.integers(2, 21))
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    mine, converged = nnls_alone(a, b)
    assert converged
    reference, _ = scipy.optimize.nnls(a, b)
    assert mine.min() >= 0.0
    assert objective(a, b, mine) == pytest.approx(objective(a, b, reference), abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_kkt_conditions(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal(12)
    x, converged = nnls_alone(a, b)
    assert converged
    active, free = kkt_residuals(a, b, x)
    assert active <= 1e-8
    assert free <= 1e-8


def test_beats_projected_least_squares():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = rng.standard_normal((10, 7))
        b = rng.standard_normal(10)
        x, converged = nnls_alone(a, b)
        assert converged
        projected = np.clip(np.linalg.lstsq(a, b, rcond=None)[0], 0.0, None)
        assert objective(a, b, x) <= objective(a, b, projected) + 1e-12


def test_dead_column_stays_zero():
    rng = np.random.default_rng(12)
    a = rng.random((8, 4))
    a[:, 2] = 0.0
    b = rng.random(8)
    x, converged = nnls_alone(a, b)
    assert converged
    assert x[2] == 0.0


def test_underdetermined_system():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 9))
    b = rng.standard_normal(3)
    x, converged = nnls_alone(a, b)
    assert converged
    active, free = kkt_residuals(a, b, x)
    assert x.min() >= 0.0
    assert active <= 1e-8 and free <= 1e-8


def test_iteration_cap_carries_best_iterate(monkeypatch):
    rng = np.random.default_rng(14)
    a = rng.random((6, 5))
    b = rng.random(6)
    monkeypatch.setattr(nnls_module, "CHANGES_PER_COLUMN", 0)
    x, converged = nnls_alone(a, b)
    assert not converged
    assert isinstance(x, np.ndarray)
    assert x.shape == (5,)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        nnls(np.ones((1, 3, 2)), np.ones((1, 4)))
    # One problem is a stack of one: a bare (M, N) and (M,) are refused.
    with pytest.raises(ValueError, match="incompatible shapes"):
        nnls(np.ones((3, 2)), np.ones(3))


# Stacks of full-column-rank problems: Gaussian matrices (any sign) or, as
# in recovery, Hankel slices of a profile in [0, 1] with a noisy right side.
@st.composite
def problem_stacks(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    t = draw(st.integers(1, 12))
    n = draw(st.integers(1, 10))
    m = draw(st.integers(n, 3 * n + 20))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        a = rng.standard_normal((t, m, n))
        b = rng.standard_normal((t, m))
    else:
        windows = np.lib.stride_tricks.sliding_window_view(rng.random(m + n + 40), n)
        starts = rng.integers(0, 41, size=t)
        a = windows[starts[:, None] + np.arange(m)]
        b = a @ rng.random(n) + 0.1 * rng.standard_normal((t, m))
    return a, b


@settings(max_examples=60, deadline=None)
@given(problem_stacks())
def test_stacked_solve_matches_oracle_bit_for_bit(stack):
    # Every row converges: an accepted prediction within 1e-9 of the
    # single-problem answer, or, where A is ill-conditioned, that answer
    # bit for bit.
    a, b = stack
    x, converged, exact = solve_and_trace(a, b)
    assert converged.all()
    assert_rows_are_their_answers(a, b, x, converged, exact)


# Stacks of coding matrices with fewer scan points than signal cells, as a
# series shorter than the probe or a one-bit ``--truncate-bits`` scan gives:
# Hankel slices of a gold (10 keV) or opaque-bar profile, whose repeated
# values make the fit non-unique.
SHORT_SCAN_PROFILES = {}


@st.composite
def short_scan_stacks(draw):
    from codedscan import ApertureGeometry, OpticalContext, build_profile, generate_de_bruijn

    bit_um, mu = draw(st.sampled_from([(5.0, 0.219), (10.0, 0.219), (5.0, 1e9)]))
    if (bit_um, mu) not in SHORT_SCAN_PROFILES:
        geometry = ApertureGeometry(bit_um, bit_um, 10.0, generate_de_bruijn(6))
        SHORT_SCAN_PROFILES[bit_um, mu] = build_profile(geometry, OpticalContext(mu), 1.0).values
    values = SHORT_SCAN_PROFILES[bit_um, mu]
    n = 10
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(1, 12))
    windows = np.lib.stride_tricks.sliding_window_view(values, n)
    starts = rng.integers(0, values.size - m - n + 1, size=t)
    a = windows[starts[:, None] + np.arange(m)]
    shape = np.exp(-0.5 * ((np.arange(n) - 4.5) / 2.0) ** 2)
    b = a @ (shape / shape.sum()) + draw(st.sampled_from([0.0, 0.01, 0.1])) * rng.standard_normal((t, m))
    return a, b


@settings(max_examples=60, deadline=None)
@given(short_scan_stacks())
def test_short_scan_stack_matches_oracle_bit_for_bit(stack):
    # M < N: no row is accepted, so every row runs Lawson-Hanson.
    a, b = stack
    x, converged, exact = solve_and_trace(a, b)
    assert exact.all()
    assert_rows_are_their_answers(a, b, x, converged, exact)


@settings(max_examples=60, deadline=None)
@given(problem_stacks(), st.randoms())
def test_row_answer_does_not_depend_on_its_stack(stack, shuffle):
    # A stack of one returns its row of any shuffled stack bit for bit.
    a, b = stack
    order = list(range(len(a)))
    shuffle.shuffle(order)
    x, converged = nnls(a, b)
    x_shuffled, converged_shuffled = nnls(a[order], b[order])
    for k, r in enumerate(order):
        assert converged_shuffled[k] == converged[r]
        assert x_shuffled[k].tobytes() == x[r].tobytes()
        alone, converged_alone = nnls_alone(a[r], b[r])
        assert converged_alone == converged[r]
        assert alone.tobytes() == x[r].tobytes()


@settings(max_examples=40, deadline=None)
@given(problem_stacks(), st.sampled_from(["transposed", "fortran", "strided"]))
def test_input_layout_does_not_change_the_bits(stack, layout):
    a, b = stack
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if layout == "transposed":  # each matrix Fortran-ordered, b a column view
        a = np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)
        b = np.ascontiguousarray(b.T).T
    elif layout == "fortran":  # the whole stack Fortran-ordered
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    else:  # every other entry of a larger buffer
        a = np.repeat(a, 2, axis=-1)[..., ::2]
        b = np.repeat(b, 2, axis=-1)[..., ::2]
    if min(a.shape[1:]) > 1:  # a row or column is C-contiguous in any order
        assert not a.flags.c_contiguous
    x, converged = nnls(a, b)
    x_copy, converged_copy = nnls(a.copy(order="C"), b.copy(order="C"))
    assert converged.tolist() == converged_copy.tolist()
    assert x.tobytes() == x_copy.tobytes()


def test_capped_row_fails_alone(monkeypatch):
    # A cap of 2 changes on N = 5. On the identity the prediction finishes
    # in one exchange; row 1's last column is zero, so it runs Lawson-Hanson,
    # where every positive entry of b costs one active-set change.
    monkeypatch.setattr(nnls_module, "CHANGES_PER_COLUMN", 0.4)
    n = 5
    a = np.stack([np.eye(n)] * 3)
    a[1, -1, -1] = 0.0
    b = np.array([[1.0, 0, 0, 0, 0], np.ones(n), [0, 2.0, 0, -1.0, 0]])
    x, converged = nnls(a, b)
    assert converged.tolist() == [True, False, True]
    np.testing.assert_array_equal(x[0], [1.0, 0, 0, 0, 0])
    np.testing.assert_array_equal(x[1], [1.0, 1.0, 0, 0, 0])
    np.testing.assert_array_equal(x[2], [0, 2.0, 0, 0, 0])
    alone, converged_alone = nnls_alone(a[1], b[1])
    assert not converged_alone
    np.testing.assert_array_equal(alone, x[1])


def test_stack_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        nnls(np.ones((2, 3, 2)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        nnls(np.ones((2, 3, 2)), np.ones((3, 3)))


def test_singular_passive_system_takes_the_lstsq_step():
    # Two equal columns: rounding leaves the copy of a passive column a dual
    # above the tolerance, so both turn passive and that row's step is over
    # an exactly singular passive set. The lstsq step, as the single-problem
    # method takes it, ends on its minimum-norm split; the other row, whose
    # prediction is accepted, is unaffected.
    u = np.array([15239.4, -15246.9, -24662.3, 6168.8])
    a_bad = np.stack([u, u, [2.55, -1.0, -1.25, 0.59]], axis=1)
    b_bad = np.array([-840.7, -506.0, -348.1, 532.0])
    a_good = np.array([[1.0, 0.2, 0.0], [0.3, 1.0, 0.1], [0.5, 0.5, 1.0], [0.1, 0.7, 0.2]])
    b_good = np.array([1.0, -0.5, 0.2, 0.3])
    a, b = np.stack([a_bad, a_good]), np.stack([b_bad, b_good])
    x, converged, exact = solve_and_trace(a, b)
    assert converged.all() and exact.tolist() == [True, False]
    assert x[0][0] == x[0][1] > 0.0
    assert_rows_are_their_answers(a, b, x, converged, exact)


@pytest.mark.parametrize("trial, start, offset", [(55, 1189, 1189), (142, 1393, 2381), (226, 2474, 2381)])
def test_gram_pass_that_stops_on_a_non_positive_lstsq_point_goes_on(trial, start, offset):
    # Noisy scans fitted at a wrong offset: a step through the normal
    # equations A'A z = A'b would stop here on a passive set whose lstsq
    # point has an entry <= 0, where the single-problem method backtracks
    # once more. The prediction's point is accepted, and it is that
    # method's answer to 1e-9.
    from codedscan import ApertureGeometry, OpticalContext, build_profile, generate_de_bruijn
    from codedscan import build_coding_matrix, make_gaussian_signal, simulate

    geometry = ApertureGeometry(10.0, 10.0, 10.0, generate_de_bruijn(8))
    profile = build_profile(geometry, OpticalContext(0.219), 1.0).pad_open(0, 12)
    truth = build_coding_matrix(profile, start, 81, 10)
    raw = simulate(truth, make_gaussian_signal(10.0, 1.0), 10.0, seed=(5, trial)).raw
    # Counts rescaled by Poisson-corrected extrema levels, as these cases were found.
    low, high = raw.min() + 2.0 * np.sqrt(raw.min()), raw.max() - 2.0 * np.sqrt(raw.max())
    d = (raw - low) / (high - low)
    a = build_coding_matrix(profile, offset, 81, 10)
    x, converged, exact = solve_and_trace(a[None], d[None])
    assert converged[0] and not exact[0]
    assert_rows_are_their_answers(a[None], d[None], x, converged, exact)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 11), st.integers(1, 7),
       st.integers(-6, 6), st.booleans())
# Row 0's optimum has entries of 5e-11 to 1.1e-10, below the tolerance at
# which Lawson-Hanson pins backtracked coordinates to zero, so that method
# cycles to its cap there. The prediction finishes, and its point is a KKT
# point on A.
@example(seed=5, t=6, m=6, n=6, scale=5, near_duplicate=False)
def test_converged_rows_pass_the_stopping_test(seed, t, m, n, scale, near_duplicate):
    # Badly scaled, underdetermined or nearly rank-deficient problems, where
    # the rounding of each step decides which optimum Lawson-Hanson reaches:
    # a row it reports converged is the lstsq point over its support with no
    # active dual above the tolerance; an accepted row is a KKT point on A.
    # Where A is scaled by 1e-4 or less, every dual near the optimum lies
    # below the absolute tolerance, so Lawson-Hanson can stop short of it
    # (4.6e-2 relative at seed=5374, t=3, m=10, n=5, scale=-4): accepted rows
    # are held to the fit of its answer, not to its point.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((t, m, n)) * 10.0**scale
    if near_duplicate and n > 1:
        a[:, :, -1] = a[:, :, 0] * (1 + 1e-9 * rng.standard_normal((t, 1)))
    b = rng.standard_normal((t, m)) * 10.0 ** rng.integers(-6, 7)
    x, converged, exact = solve_and_trace(a, b)
    for r in np.flatnonzero(converged & exact):
        support = np.flatnonzero(x[r])
        assert x[r].min() >= 0.0
        if support.size:
            fit = np.linalg.lstsq(a[r][:, support], b[r], rcond=None)[0]
            assert fit.tobytes() == x[r][support].tobytes()
        w = a[r].T @ (b[r] - a[r] @ x[r])
        assert np.max(w[x[r] == 0.0], initial=-np.inf) <= DUAL_TOLERANCE
    assert_rows_are_their_answers(a, b, x, converged, exact, close=False)


def test_near_duplicate_columns_split_the_weight_as_the_single_problem_method():
    # Two columns that agree to about 1e-9, scaled by 10**k: the 29th stack
    # of a seeded draw of such stacks, row 6 (11 x 2). Steps that round
    # differently from the method's own lstsq steps ended on another split
    # of the weight between the two columns, off by about 59.
    rng = np.random.default_rng(0)
    for _ in range(29):
        t, m, n = 16, int(rng.integers(2, 12)), int(rng.integers(2, 8))
        a = rng.standard_normal((t, m, n)) * 10.0 ** rng.integers(-6, 7)
        a[:, :, -1] = a[:, :, 0] * (1 + 1e-9 * rng.standard_normal((t, 1)))
        b = rng.standard_normal((t, m)) * 10.0 ** rng.integers(-6, 7)
    a, b = a[6], b[6]
    assert a.shape == (11, 2)
    expected, oracle_converged = lawson_hanson_oracle(a, b)
    assert oracle_converged
    x, converged = nnls_alone(a, b)
    assert converged
    assert x.tobytes() == expected.tobytes()


def test_near_duplicate_columns_do_not_cycle():
    # Columns 0 and 2 agree to about 1e-9. The normal-equations point over
    # both is a least-squares point with a negative entry, where the lstsq
    # point (the minimum-norm split) is feasible; backtracking along the
    # former releases column 2, re-admits it and cycles to the cap.
    c0 = [13.573950847658153, -57.243674765932184, -76.06788546712043, -163.21994294226644,
          -60.54666704876508, -12.603887954225648, 85.00822333740781]
    c1 = [101.99764725197988, -139.11415982464882, 76.37865270790198, 41.61623958953926,
          -23.927003493706707, -1.9206333730553131, 43.335319644590385]
    c2 = [13.573950838566974, -57.243674727593124, -76.06788541617382, -163.21994283294958,
          -60.54666700821383, -12.60388794578417, 85.00822328047339]
    b = np.array([121.01320689715311, 1081.6534944592288, -1998.4947311202607,
                  -1467.4487430535664, -12.330411523798327, 427.67053185519546,
                  541.8618487814205])
    a = np.array([c0, c1, c2]).T
    x, converged = nnls_alone(a, b)
    expected, oracle_converged = lawson_hanson_oracle(a, b)
    assert converged and oracle_converged and x.tobytes() == expected.tobytes()
    assert x[0] > 0.0 and x[2] > 0.0


def test_gram_point_that_is_not_stationary_on_a_takes_the_lstsq_step():
    # Two columns that agree to about 3e-10 relative: the normal equations
    # A'A over both are so ill-conditioned that their point leaves passive
    # duals above the tolerance on A. Accepting it would end on a different
    # split of the weight between the two columns than the single-problem
    # method's.
    a = np.array([
        [1552.1655136384315, 1552.1655140073574], [-1828.375371175335, -1828.3753716099116],
        [-120.53522397322341, -120.53522400187276], [-1192.1781161752092, -1192.1781164585716],
        [56.176658696526765, 56.176658709879085],
    ])
    b = np.array([-1034.1466681230693, -1178.315385412137, -1376.6500402722409,
                  -301.26449598887876, 189.99930491668087])
    x, converged = nnls_alone(a, b)
    expected, oracle_converged = lawson_hanson_oracle(a, b)
    assert converged and oracle_converged and x.tobytes() == expected.tobytes()


def test_lstsq_point_with_an_active_dual_above_the_tolerance_goes_on():
    # Columns that agree to about 1e-9 with a right side of order 1e6:
    # normal-equations steps would stop on column 0 alone, but at its lstsq
    # point the dual of column 1 exceeds the tolerance, so the method
    # admits it.
    a = np.array([
        [1.5308233273594032, 1.5308233289625468], [-1.2170273467069168, -1.21702734798144],
        [1.9843379577263685, 1.984337959804452], [-0.026079069316188027, -0.026079069343499142],
        [0.09445980025282069, 0.09445980035174303], [-1.6968779137225931, -1.6968779154996363],
        [-1.5193556570785194, -1.5193556586696535], [0.2750363917607934, 0.2750363920488233],
        [-0.04227747727677931, -0.04227747732105409], [0.10267358846433378, 0.10267358857185795],
    ])
    b = np.array([-80488.51621308095, 1151975.5618093638, -597685.8258844679, -81974.13850124943,
                  -896539.4733885851, -1693864.2409357943, -1243467.2545682313,
                  -269742.5065856998, -603035.947383563, -2303773.067032803])
    x, converged = nnls_alone(a, b)
    expected, oracle_converged = lawson_hanson_oracle(a, b)
    assert converged and oracle_converged and x.tobytes() == expected.tobytes()
    assert x.min() > 0.0


def test_backtracking_that_releases_every_coordinate_does_not_crash():
    # b is about 1e-10 of a's scale, so the solution lies below the
    # tolerance that pins backtracked coordinates to zero and a step can
    # release every passive coordinate. The oracle then takes the minimum of
    # an empty slice and raises ValueError; the fallback solves the empty
    # passive set and goes on, here until its cap. ``nnls`` accepts the
    # prediction on this row, so the fallback is also run directly.
    a = np.array([
        [-44068.014026102275, 68534.56709322266], [-135075.68247635767, -223294.5741741132],
        [107070.14824155312, 26467.143551497345], [-25122.50642507549, 1546.990417589462],
        [32534.957431738214, -62006.98251796807], [-106153.14069855126, -42466.773946969],
        [-87689.3638321189, -279331.320372537], [-67768.18487970147, -122788.67040159604],
    ])
    b = np.array([
        6.996312559463949e-06, -6.808967296925279e-06, 1.538180477194833e-05,
        -4.486197641164396e-06, 1.679739376663398e-05, -6.272426491022982e-07,
        -8.385698840214908e-06, -6.332133585270009e-06,
    ])
    x, _ = nnls_alone(a, b)
    assert x.shape == (2,) and x.min() >= 0.0
    x, converged = nnls_module._lawson_hanson(a, b, 20)
    assert x.tolist() == [0.0, 0.0] and not converged


@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("where", ["a_inf", "b_nan"])
def test_non_finite_input_is_refused_before_any_solve(stacked, where, capfd):
    # An inf in A used to fail the whole stack inside LAPACK, which printed
    # to stderr; a NaN in b ran its row to the cap under RuntimeWarnings.
    rng = np.random.default_rng(15)
    a = rng.random((4, 6, 3))
    b = rng.random((4, 6))
    if where == "a_inf":
        a[2, 1, 0] = np.inf
        a[3, 0, 0] = -np.inf
    else:
        b[2, 4] = np.nan
        b[3, 0] = np.nan
    if stacked:
        with pytest.raises(ValueError, match="problem 2: A and b must be finite"):
            nnls(a, b)
    else:  # the problem alone, as a stack of one
        with pytest.raises(ValueError, match="problem 0: A and b must be finite"):
            nnls(a[2:3], b[2:3])
    assert capfd.readouterr().err == ""


# Stacks from families where supports are not unique or margins are thin:
# Gaussian matrices, Hankel slices of a piecewise-constant profile (whose
# windows repeat, so A is often rank-deficient), exactly or nearly
# duplicated columns, a zero column, and a right side scaled by 1e+-14;
# any number of rows, M < N included.
@st.composite
def degenerate_stacks(draw):
    family = draw(st.sampled_from(["gaussian", "hankel", "duplicate", "near_duplicate", "zero_column"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(2, 12))
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 3 * n + 20))
    if family == "gaussian":
        a = rng.standard_normal((t, m, n))
        b = rng.standard_normal((t, m))
    else:
        width = draw(st.integers(1, 5))
        levels = rng.choice([0.0, 0.11, 0.55, 1.0], size=(m + n + 40) // width + 1)
        windows = np.lib.stride_tricks.sliding_window_view(np.repeat(levels, width), n)
        a = windows[rng.integers(0, 41, size=t)[:, None] + np.arange(m)]
        b = a @ rng.random(n) + 0.1 * rng.standard_normal((t, m))
    if family == "duplicate":
        a[:, :, -1] = a[:, :, 0]
    elif family == "near_duplicate":
        a[:, :, -1] = a[:, :, 0] * (1 + 1e-9 * rng.standard_normal((t, 1)))
    elif family == "zero_column":
        a[:, :, rng.integers(n)] = 0.0
    return a, b * 10.0 ** draw(st.sampled_from([-14, 0, 14]))


@settings(max_examples=100, deadline=None)
@given(degenerate_stacks())
def test_degenerate_stack_matches_oracle_bit_for_bit(stack):
    # Rank-deficient, short and duplicated-column rows run Lawson-Hanson
    # and are its single-problem answer bit for bit.
    a, b = stack
    x, converged, exact = solve_and_trace(a, b)
    assert_rows_are_their_answers(a, b, x, converged, exact)


class _KernelCalls:
    """``_umath_linalg`` with its ``solve1`` calls counted, one entry per
    call holding the number of matrices it solved."""

    def __init__(self, module):
        self.module = module
        self.solves = []

    def __getattr__(self, name):
        return getattr(self.module, name)

    def solve1(self, a, *args, **kwargs):
        self.solves.append(len(a))
        return self.module.solve1(a, *args, **kwargs)


def _spy_kernel_and_fallback(monkeypatch):
    """Count ``solve1`` calls and record each (M, N) problem that runs the
    Lawson-Hanson fallback, one ``(a, b)`` per call."""
    kernel = _KernelCalls(nnls_module._umath_linalg)
    monkeypatch.setattr(nnls_module, "_umath_linalg", kernel)
    fallback = []
    exact = nnls_module._lawson_hanson

    def spy(a, b, cap):
        fallback.append((a.copy(), b.copy()))
        return exact(a, b, cap)

    monkeypatch.setattr(nnls_module, "_lawson_hanson", spy)
    return kernel, fallback


def test_well_conditioned_rows_take_one_kernel_call(monkeypatch):
    # Interior solutions of well-conditioned problems: Lawson-Hanson would
    # walk passive-set sizes 1, 2, 3 in three lstsq steps per row; the
    # prediction moves all three coordinates at once, in one solve for the
    # stack, and its point is accepted, so no row falls back.
    rng = np.random.default_rng(16)
    a = rng.random((2, 12, 3)) + np.eye(12, 3)
    b = (a @ np.array([1.0, 2.0, 3.0])[:, None])[..., 0] + 0.01 * rng.standard_normal((2, 12))
    kernel, fallback = _spy_kernel_and_fallback(monkeypatch)
    x, converged = nnls(a, b)
    assert kernel.solves == [2] and fallback == []
    assert converged.all() and x.min() > 0.0
    assert_rows_are_their_answers(a, b, x, converged, np.zeros(2, dtype=bool))


def test_rows_without_strict_margins_run_the_exact_method(monkeypatch):
    # Row 1 has two equal columns, so their duals are equal and one of them
    # is off the support with a dual of zero up to rounding; row 2 has a zero
    # column, whose dual is exactly zero. Neither A has full column rank, so
    # neither prediction is accepted: only these rows run Lawson-Hanson, one
    # problem per call, and every row is its answer.
    rng = np.random.default_rng(17)
    a = rng.random((3, 12, 3)) + np.eye(12, 3)
    a[1, :, 2] = a[1, :, 0]
    a[2, :, 1] = 0.0
    b = (a @ np.array([1.0, 2.0, 3.0])[:, None])[..., 0] + 0.01 * rng.standard_normal((3, 12))
    _, fallback = _spy_kernel_and_fallback(monkeypatch)
    x, converged = nnls(a, b)
    assert len(fallback) == 2
    for (fallback_a, fallback_b), r in zip(fallback, [1, 2]):
        np.testing.assert_array_equal(fallback_a, a[r])
        np.testing.assert_array_equal(fallback_b, b[r])
    assert converged.all()
    assert_rows_are_their_answers(a, b, x, converged, np.array([False, True, True]))


def test_coordinate_at_the_tolerance_is_accepted_near_the_oracle_answer():
    # The last column's dual at the least-squares point over the others is
    # the tolerance to within 1e-6 relative, so Lawson-Hanson and the
    # prediction can disagree on admitting it. Lawson-Hanson stops without
    # it; the prediction gives it an entry of about 1e-11, and every row is
    # accepted within 1e-9 of the single-problem answer.
    rng = np.random.default_rng(1)
    t, m, n = 8, 12, 3
    a = rng.standard_normal((t, m, n))
    b = np.empty((t, m))
    for r in range(t):
        q = np.linalg.qr(a[r, :, :-1])[0]
        v = rng.standard_normal(m)
        v -= q @ (q.T @ v)
        v *= DUAL_TOLERANCE * (1 + 1e-6 * rng.uniform(-1, 1)) / (a[r, :, -1] @ v)
        b[r] = a[r, :, :-1] @ np.full(n - 1, 100.0) + v
    x, converged, exact = solve_and_trace(a, b)
    assert converged.all() and not exact.any()
    assert_rows_are_their_answers(a, b, x, converged, exact)


def test_prediction_takes_fewer_solves_than_positive_coordinates(monkeypatch):
    # Every optimum has all 8 coordinates positive. Admitting one coordinate
    # per step would take 8 stacked solves; exchanging every infeasible
    # coordinate at once takes fewer, and every row is accepted.
    rng = np.random.default_rng(18)
    a = rng.random((6, 24, 8)) + 2.0 * np.eye(24, 8)
    b = (a @ (1.0 + rng.random((6, 8, 1))))[..., 0] + 0.01 * rng.standard_normal((6, 24))
    expected = [lawson_hanson_oracle(a[r], b[r]) for r in range(6)]
    assert all(oracle_converged for _, oracle_converged in expected)
    assert min(int((row > 0.0).sum()) for row, _ in expected) == 8
    kernel, fallback = _spy_kernel_and_fallback(monkeypatch)
    x, converged = nnls(a, b)
    assert 0 < len(kernel.solves) < 8 and fallback == []
    assert converged.all()
    assert_rows_are_their_answers(a, b, x, converged, np.zeros(6, dtype=bool))


@settings(max_examples=100, deadline=None)
@given(st.one_of(problem_stacks(), degenerate_stacks()), st.integers(0, 2**32 - 1))
def test_any_prediction_leaves_every_row_the_single_problem_answer(stack, seed):
    # The prediction only proposes: with random points and random
    # "finished" flags in its place, the test on A alone decides which rows
    # keep them. A row it accepts is a KKT point on A; every other row is
    # the single-problem answer bit for bit.
    a, b = stack
    rng = np.random.default_rng(seed)

    def guess(gram, atb, cap):
        support = rng.random(atb.shape) < rng.random()
        return np.where(support, rng.random(atb.shape), 0.0), rng.random(len(atb)) < 0.8

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nnls_module, "_predict", guess)
        x, converged, exact = solve_and_trace(a, b)
    assert_rows_are_their_answers(a, b, x, converged, exact)


def test_murty_rule_ends_a_cycle_of_full_exchanges():
    # On this row, moving every infeasible coordinate at once returns to
    # passive sets it has left, without end. Moving one coordinate at a
    # time, once three exchanges have not lowered the count of infeasible
    # ones, finishes within 15 exchanges, and the point is accepted.
    a = np.array([[-0.1, -1.0, 0.7], [0.3, 1.4, -1.5], [-1.1, -2.2, 0.5]])
    b = np.array([-0.5, 0.3, 0.0])
    stack, rhs = np.stack([a, a]), np.stack([b, b])
    gram = stack.transpose(0, 2, 1) @ stack
    with np.errstate(all="ignore"):
        _, finished = nnls_module._predict(gram, (stack.transpose(0, 2, 1) @ rhs[..., None])[..., 0], 15)
    assert finished.all()
    x, converged, exact = solve_and_trace(stack, rhs)
    assert converged.all() and not exact.any()
    assert_rows_are_their_answers(stack, rhs, x, converged, exact)


def with_singular_values(seed, m, sigma):
    """An (m, N) matrix U diag(sigma) V' with random orthonormal U and V."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((m, len(sigma))))[0]
    v = np.linalg.qr(rng.standard_normal((len(sigma), len(sigma))))[0]
    return (u * sigma) @ v.T


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(0, 20), st.floats(1.01, 1e4),
       st.integers(-6, 6))
@example(seed=0, n=10, extra=0, margin=1.01, scale=0)  # just inside the threshold
@example(seed=1, n=2, extra=20, margin=1.01, scale=-6)
def test_rows_of_full_rank_by_a_margin_are_accepted(seed, n, extra, margin, scale):
    # sigma_min(A)^2 = margin * 1e-8 * ||A||_F^2, the other singular values
    # in [1e-3, 1]. With b = 0 the prediction z = 0 finishes at once and
    # is a KKT point, so the rank test alone decides: the row is accepted.
    others = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 0.0, size=n - 1)
    share = margin * SINGULAR_RATIO**2
    sigma = np.append(others, np.sqrt(share / (1.0 - share) * (others @ others)))
    a = with_singular_values(seed, n + extra, sigma * 10.0**scale)
    found = np.linalg.svd(a, compute_uv=False)
    assert found[-1] ** 2 >= 1.0099 * SINGULAR_RATIO**2 * (found @ found)
    x, converged, exact = solve_and_trace(a[None], np.zeros((1, n + extra)))
    assert converged[0] and not exact[0]
    assert x[0].tolist() == [0.0] * n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(0, 20), st.floats(0.0, 0.99),
       st.integers(-6, 6), st.booleans())
@example(seed=0, n=10, extra=0, ratio=0.99, scale=0, duplicate=False)  # just outside it
@example(seed=1, n=4, extra=3, ratio=0.5, scale=0, duplicate=True)  # a duplicated column
@example(seed=2, n=3, extra=5, ratio=0.5, scale=-400, duplicate=False)  # 10.0**-400 == 0: A = 0
@example(seed=3, n=5, extra=5, ratio=0.5, scale=160, duplicate=False)  # A'A overflows to inf
def test_rows_short_of_full_rank_fall_back(seed, n, extra, ratio, scale, duplicate):
    # sigma_min(A) = ratio * 1e-4 * sigma_max(A) <= 0.99e-4 * ||A||_F, or a
    # duplicated column: the row fails the rank test, whatever b, and runs
    # Lawson-Hanson. Warnings are errors here, so neither the failed
    # Cholesky factor nor the overflow may warn.
    rng = np.random.default_rng(seed)
    sigma = np.append(np.append(1.0, 10.0 ** rng.uniform(-3.0, 0.0, size=n - 2)), ratio * SINGULAR_RATIO)
    a = with_singular_values(seed, n + extra, sigma * 10.0**scale)
    if duplicate:
        a[:, -1] = a[:, 0]
    b = rng.standard_normal((1, n + extra))
    x, converged, exact = solve_and_trace(a[None], b)
    assert exact[0]
    assert_rows_are_their_answers(a[None], b, x, converged, exact)


def predict_each_row_alone(gram, atb, cap):
    """``_predict`` of a stack and of each of its rows as a stack of one."""
    with np.errstate(all="ignore"):
        stacked = nnls_module._predict(gram, atb, cap)
        alone = [nnls_module._predict(gram[r : r + 1], atb[r : r + 1], cap) for r in range(len(atb))]
    return stacked, alone


def normal_equations(a, b):
    a_t = a.transpose(0, 2, 1)
    return a_t @ a, (a_t @ b[..., None])[..., 0]


@settings(max_examples=60, deadline=None)
@given(st.one_of(problem_stacks(), degenerate_stacks()), st.sampled_from([0, 1, 2, 3, 4, 5, None]))
def test_prediction_of_a_stack_is_each_row_alone_bit_for_bit(stack, cap):
    # Rows leave the running stack as they finish or stop; the rows that
    # stay are solved as they would be alone, at any cap (None: 10 N).
    a, b = (np.ascontiguousarray(v, dtype=float) for v in stack)
    cap = 10 * a.shape[2] if cap is None else cap
    (z, finished), alone = predict_each_row_alone(*normal_equations(a, b), cap)
    for r, (z_r, finished_r) in enumerate(alone):
        assert z_r[0].tobytes() == z[r].tobytes()
        assert finished_r[0] == finished[r]


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 4, 5, 30])
def test_prediction_stops_a_singular_row_beside_rows_that_finish(cap):
    # Row 0's columns are equal, so its first exchange makes them all
    # passive and solves an exactly singular block: a NaN point, and the
    # row stops unfinished. Row 1 finishes after one exchange and row 2,
    # the row of test_murty_rule_ends_a_cycle_of_full_exchanges, after ten,
    # each as it would alone.
    a = np.stack([np.ones((3, 3)), np.eye(3), [[-0.1, -1.0, 0.7], [0.3, 1.4, -1.5], [-1.1, -2.2, 0.5]]])
    b = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [-0.5, 0.3, 0.0]])
    (z, finished), alone = predict_each_row_alone(*normal_equations(a, b), cap)
    for r, (z_r, finished_r) in enumerate(alone):
        assert z_r[0].tobytes() == z[r].tobytes() and finished_r[0] == finished[r]
    assert finished.tolist() == [False, cap >= 1, cap >= 10]
    assert np.isnan(z[0]).all() == (cap >= 1)
    if cap >= 10:
        assert z[1].tolist() == [1.0, 0.0, 0.0] and z[2][0] == z[2][2] == 0.0 < z[2][1]


@pytest.mark.parametrize("stack", ["empty", "every point not finite"])
def test_prediction_with_no_running_rows_returns_at_once(stack, monkeypatch):
    # No running row is left before the first exchange of a (0, N) stack,
    # or after the first of a stack whose every point is NaN: the
    # prediction returns there, after no further solve.
    a = np.zeros((0, 3, 2)) if stack == "empty" else np.ones((4, 3, 2))
    kernel, _ = _spy_kernel_and_fallback(monkeypatch)
    with np.errstate(all="ignore"):
        z, finished = nnls_module._predict(*normal_equations(a, np.ones(a.shape[:2])), 20)
    assert kernel.solves == ([] if stack == "empty" else [4])
    assert z.shape == (len(a), 2) and not finished.any()
    assert np.isnan(z).all()
