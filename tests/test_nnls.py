"""Active-set NNLS against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from codedscan.nnls import DUAL_TOLERANCE, NumericalFailureError, nnls


def lawson_hanson_oracle(a, b, max_iterations: int | None = None) -> np.ndarray:
    """The single-problem Lawson-Hanson solver, one ``lstsq`` per inner step.

    The stacked solver must return this function's answer bit for bit.
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
            return x
        iterations += 1
        if iterations > max_iterations:
            raise NumericalFailureError(
                f"no convergence within {max_iterations} active-set changes", x
            )
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
                raise NumericalFailureError(
                    f"no convergence within {max_iterations} active-set changes", x
                )


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


def test_identity_clamps_negative_data():
    a = np.eye(4)
    b = np.array([1.0, -2.0, 0.5, -0.1])
    x = nnls(a, b)
    np.testing.assert_allclose(x, [1.0, 0.0, 0.5, 0.0], atol=1e-12)


def test_all_negative_data_gives_zero():
    rng = np.random.default_rng(0)
    a = rng.random((6, 4))
    b = -(a @ np.ones(4))
    x = nnls(a, b)
    np.testing.assert_array_equal(x, 0.0)


def test_interior_solution_matches_direct_solve():
    rng = np.random.default_rng(1)
    a = rng.random((5, 5)) + np.eye(5)
    x_true = rng.random(5) + 0.5
    b = a @ x_true
    x = nnls(a, b)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-9)
    np.testing.assert_allclose(x, x_true, rtol=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_matches_scipy_objective(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 21))
    n = int(rng.integers(2, 21))
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    mine = nnls(a, b)
    reference, _ = scipy.optimize.nnls(a, b)
    assert mine.min() >= 0.0
    assert objective(a, b, mine) == pytest.approx(objective(a, b, reference), abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_kkt_conditions(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal(12)
    x = nnls(a, b)
    active, free = kkt_residuals(a, b, x)
    assert active <= 1e-8
    assert free <= 1e-8


def test_beats_projected_least_squares():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = rng.standard_normal((10, 7))
        b = rng.standard_normal(10)
        x = nnls(a, b)
        projected = np.clip(np.linalg.lstsq(a, b, rcond=None)[0], 0.0, None)
        assert objective(a, b, x) <= objective(a, b, projected) + 1e-12


def test_dead_column_stays_zero():
    rng = np.random.default_rng(12)
    a = rng.random((8, 4))
    a[:, 2] = 0.0
    b = rng.random(8)
    x = nnls(a, b)
    assert x[2] == 0.0


def test_underdetermined_system():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 9))
    b = rng.standard_normal(3)
    x = nnls(a, b)
    active, free = kkt_residuals(a, b, x)
    assert x.min() >= 0.0
    assert active <= 1e-8 and free <= 1e-8


def test_iteration_cap_carries_best_iterate():
    rng = np.random.default_rng(14)
    a = rng.random((6, 5))
    b = rng.random(6)
    with pytest.raises(NumericalFailureError) as info:
        nnls(a, b, max_iterations=0)
    assert isinstance(info.value.best_iterate, np.ndarray)
    assert info.value.best_iterate.shape == (5,)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        nnls(np.ones((3, 2)), np.ones(4))


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
    a, b = stack
    x, converged = nnls(a, b)
    assert converged.all()
    for r in range(len(a)):
        assert x[r].tobytes() == lawson_hanson_oracle(a[r].copy(), b[r].copy()).tobytes()


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
    a, b = stack
    x, converged = nnls(a, b)
    for r in range(len(a)):
        try:
            expected = lawson_hanson_oracle(a[r].copy(), b[r].copy())
        except NumericalFailureError as error:
            assert not converged[r]
            expected = error.best_iterate
        else:
            assert converged[r]
        assert x[r].tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(problem_stacks(), st.one_of(st.none(), st.integers(0, 12)), st.randoms())
def test_row_answer_does_not_depend_on_its_stack(stack, cap, shuffle):
    a, b = stack
    order = list(range(len(a)))
    shuffle.shuffle(order)
    x, converged = nnls(a, b, max_iterations=cap)
    x_shuffled, converged_shuffled = nnls(a[order], b[order], max_iterations=cap)
    for k, r in enumerate(order):
        assert converged_shuffled[k] == converged[r]
        assert x_shuffled[k].tobytes() == x[r].tobytes()
        try:
            alone = nnls(a[r], b[r], max_iterations=cap)
        except NumericalFailureError as error:
            assert not converged[r]
            assert error.best_iterate.tobytes() == x[r].tobytes()
        else:
            assert converged[r]
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


def test_capped_row_fails_alone():
    # On the identity every positive entry of b costs one active-set change.
    n = 5
    a = np.stack([np.eye(n)] * 3)
    b = np.array([[1.0, 0, 0, 0, 0], np.ones(n), [0, 2.0, 0, -1.0, 0]])
    x, converged = nnls(a, b, max_iterations=2)
    assert converged.tolist() == [True, False, True]
    np.testing.assert_array_equal(x[0], [1.0, 0, 0, 0, 0])
    np.testing.assert_array_equal(x[2], [0, 2.0, 0, 0, 0])
    with pytest.raises(NumericalFailureError) as info:
        nnls(a[1], b[1], max_iterations=2)
    np.testing.assert_array_equal(info.value.best_iterate, x[1])


def test_stack_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        nnls(np.ones((2, 3, 2)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        nnls(np.ones((2, 3, 2)), np.ones((3, 3)))


def test_singular_passive_system_takes_the_lstsq_step():
    # Two equal columns: rounding leaves the copy of a passive column a dual
    # above the tolerance, so both turn passive and that row's step is over
    # an exactly singular passive set. The lstsq step, as the single-problem
    # method takes it, ends on its minimum-norm split; the other row is
    # unaffected.
    u = np.array([15239.4, -15246.9, -24662.3, 6168.8])
    a_bad = np.stack([u, u, [2.55, -1.0, -1.25, 0.59]], axis=1)
    b_bad = np.array([-840.7, -506.0, -348.1, 532.0])
    a_good = np.array([[1.0, 0.2, 0.0], [0.3, 1.0, 0.1], [0.5, 0.5, 1.0], [0.1, 0.7, 0.2]])
    b_good = np.array([1.0, -0.5, 0.2, 0.3])
    x, converged = nnls(np.stack([a_bad, a_good]), np.stack([b_bad, b_good]))
    assert converged.all()
    assert x[0].tobytes() == lawson_hanson_oracle(a_bad, b_bad).tobytes()
    assert x[0][0] == x[0][1] > 0.0
    assert x[1].tobytes() == lawson_hanson_oracle(a_good, b_good).tobytes()


@pytest.mark.parametrize("trial, start, offset", [(55, 1189, 1189), (142, 1393, 2381), (226, 2474, 2381)])
def test_gram_pass_that_stops_on_a_non_positive_lstsq_point_goes_on(trial, start, offset):
    # Noisy scans fitted at a wrong offset: a step through the normal
    # equations A'A z = A'b would stop here on a passive set whose lstsq
    # point has an entry <= 0, where the single-problem method backtracks
    # once more.
    from codedscan import ApertureGeometry, OpticalContext, build_profile, generate_de_bruijn
    from codedscan import build_coding_matrix, make_gaussian_signal, normalize, simulate

    geometry = ApertureGeometry(10.0, 10.0, 10.0, generate_de_bruijn(8))
    profile = build_profile(geometry, OpticalContext(0.219), 1.0).pad_open(0, 12)
    truth = build_coding_matrix(profile, start, 81, 10)
    d = normalize(simulate(truth, make_gaussian_signal(10.0, 1.0), 10.0, seed=(5, trial)))
    a = build_coding_matrix(profile, offset, 81, 10)
    x, converged = nnls(a[None], d[None])
    assert converged[0]
    assert x[0].tobytes() == lawson_hanson_oracle(a, d).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 11), st.integers(1, 7),
       st.integers(-6, 6), st.booleans())
def test_converged_rows_pass_the_stopping_test(seed, t, m, n, scale, near_duplicate):
    # Badly scaled, underdetermined or nearly rank-deficient problems, where
    # the rounding of each step decides which optimum the method reaches: a
    # row reported converged is the lstsq point over its support with no
    # active dual above the tolerance, and every row is the single-problem
    # answer.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((t, m, n)) * 10.0**scale
    if near_duplicate and n > 1:
        a[:, :, -1] = a[:, :, 0] * (1 + 1e-9 * rng.standard_normal((t, 1)))
    b = rng.standard_normal((t, m)) * 10.0 ** rng.integers(-6, 7)
    x, converged = nnls(a, b)
    for r in np.flatnonzero(converged):
        support = np.flatnonzero(x[r])
        assert x[r].min() >= 0.0
        if support.size:
            fit = np.linalg.lstsq(a[r][:, support], b[r], rcond=None)[0]
            assert fit.tobytes() == x[r][support].tobytes()
        w = a[r].T @ (b[r] - a[r] @ x[r])
        assert np.max(w[x[r] == 0.0], initial=-np.inf) <= DUAL_TOLERANCE
    for r in range(t):
        try:
            expected = lawson_hanson_oracle(a[r].copy(), b[r].copy())
        except NumericalFailureError as error:
            assert not converged[r]
            expected = error.best_iterate
        except ValueError:
            # The oracle released every coordinate and took the minimum of
            # an empty slice; see the last test in this file.
            continue
        else:
            assert converged[r]
        assert x[r].tobytes() == expected.tobytes()


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
    expected = lawson_hanson_oracle(a, b)
    x, converged = nnls(a[None], b[None])
    assert converged[0]
    assert x[0].tobytes() == expected.tobytes()
    assert nnls(a, b).tobytes() == expected.tobytes()


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
    x = nnls(a, b)
    assert x.tobytes() == lawson_hanson_oracle(a, b).tobytes()
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
    assert nnls(a, b).tobytes() == lawson_hanson_oracle(a, b).tobytes()


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
    x = nnls(a, b)
    assert x.tobytes() == lawson_hanson_oracle(a, b).tobytes()
    assert x.min() > 0.0


def test_backtracking_that_releases_every_coordinate_does_not_crash():
    # b is about 1e-10 of a's scale, so the solution lies below the
    # tolerance that pins backtracked coordinates to zero and a step can
    # release every passive coordinate. The single-problem loop then took
    # the minimum of an empty slice and raised ValueError; the stacked loop
    # solves the empty passive set and goes on.
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
    try:
        x = nnls(a, b)
    except NumericalFailureError as error:
        x = error.best_iterate
    assert x.shape == (2,) and x.min() >= 0.0
