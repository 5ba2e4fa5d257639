"""Active-set NNLS against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

from codedscan.nnls import NumericalFailureError, nnls


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
