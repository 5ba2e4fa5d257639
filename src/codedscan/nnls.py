"""Non-negative least squares: min_{x >= 0} ||A x - b||_2^2.

The answer is defined by its optimality (KKT) conditions: x >= 0 and, with
the dual w = A'(b - A x), w_i = 0 where x_i > 0 and w_i <= 0 where x_i = 0.
Where A has full column rank that point is unique. A stack of T problems
is solved together, so the numpy call overhead of steps 1 and 2 is paid
per step, not per problem, and a row's answer does not depend on the rows
beside it: one problem is a stack of one, (1, M, N) and (1, M).

1. Block principal pivoting on the normal equations A'A z = A'b
   (``_predict``) gives each row a point z with support P. Each of its
   iterations moves every infeasible coordinate of every row at once and
   costs one stacked N x N solve. It terminates in exact arithmetic
   (Murty's rule; see ``_predict``).
2. A row takes z as its answer (``_accepted``) when it finished, so z > 0
   on P; when, with w computed on A itself, |w| on P and w off P are at
   most ``DUAL_TOLERANCE`` * max|A'b|; and when sigma_min(A) >
   ``SINGULAR_RATIO`` * ||A||_F, which one stacked Cholesky factorization
   of A'A - ``SINGULAR_RATIO``^2 tr(A'A) I decides. That last test means
   full column rank, so the optimum is unique, and, as ||A||_F >=
   sigma_max(A), bounds the cost of solving through A'A, whose condition
   number is the square of A's, to about 1e-8 relative. A scan with M < N
   never passes it.
3. Every other row (unfinished, singular, rank-deficient) runs the
   Lawson-Hanson active-set method, ``_lawson_hanson``, one problem at a
   time: each outer pass admits the active coordinate with the largest
   dual, then an inner loop backtracks along the least-squares point of
   the passive columns, as ``np.linalg.lstsq`` computes it, until it is
   feasible. It stops once no active dual exceeds ``DUAL_TOLERANCE``.

Each method stops a row after ``CHANGES_PER_COLUMN`` * N exchanges or
active-set changes; a row that Lawson-Hanson cannot finish within that cap
fails alone, holding its best iterate.
"""

from __future__ import annotations

import numpy as np
# The kernels np.linalg runs, called on whole stacks without its per-call checks.
from numpy.linalg import _umath_linalg

# Stop once no zero coordinate's dual w_i = [A'(b - A x)]_i exceeds this;
# passive coordinates that backtrack to within it of zero are pinned there.
DUAL_TOLERANCE = 1e-10
# Exchanges or active-set changes per column of A before a row stops.
CHANGES_PER_COLUMN = 10
# Least ratio sigma_min(A) / ||A||_F at which a prediction is accepted.
SINGULAR_RATIO = 1e-4


def nnls(a, b):
    """Return argmin_{x >= 0} ||A x - b||_2^2 for each problem of a stack.

    Parameters
    ----------
    a : (T, M, N) array_like
    b : (T, M) array_like

    Returns
    -------
    (x, converged) : (T, N) ndarray and (T,) bool ndarray
        A problem that exceeds the cap reads ``converged`` False and holds
        its best iterate in ``x``; the other problems are unaffected.

    Raises
    ------
    ValueError
        If the shapes disagree, or if A or b has a non-finite entry; the
        message names the first such problem.
    """
    # Contiguous inputs, so the products over A round the same for any layout.
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.ndim != 3 or b.shape != a.shape[:-1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    if not finite.all():
        raise ValueError(f"problem {int(np.argmin(finite))}: A and b must be finite")
    cap = CHANGES_PER_COLUMN * a.shape[2]
    a_t = a.transpose(0, 2, 1)
    # An overflow or a NaN in the prediction fails its test, so it sends the
    # row to Lawson-Hanson rather than into its answer.
    with np.errstate(all="ignore"):
        gram, atb = a_t @ a, (a_t @ b[..., None])[..., 0]
        x, finished = _predict(gram, atb, cap)
        converged = finished & _accepted(a, b, gram, atb, x)
    for i in np.flatnonzero(~converged):
        x[i], converged[i] = _lawson_hanson(a[i], b[i], cap)
    return x, converged


def _predict(gram, atb, cap):
    """Each row's point z of the problem on the normal equations A'A z =
    A'b, by block principal pivoting, and whether the row finished within
    ``cap`` exchanges: ``(z, finished)``. A finished row's z is positive on
    its support P and zero off it, with no dual A'b - A'A z above
    ``DUAL_TOLERANCE`` off P.

    An exchange moves every infeasible coordinate of a row to the other
    side at once: a passive one with z <= 0, or an active one whose dual
    exceeds ``DUAL_TOLERANCE``. After three exchanges in a row that do not
    lower its count of infeasible coordinates, a row moves only the last
    of them (Murty's rule), until the count falls below its least so far
    (Judice and Pires, Comput. Oper. Res. 21, 1994; Kim and Park, SIAM J.
    Sci. Comput. 33, 2011). A row whose point is not finite stops
    unfinished.

    Only the rows still running are held, and a row leaves them when it
    finishes or stops, so each exchange costs what its running rows cost.
    They have all made the same number of exchanges.
    """
    t, n = atb.shape
    z = np.zeros((t, n))
    finished = np.zeros(t, dtype=bool)
    # The running rows: their index into the stack and their state.
    rows = np.arange(t)
    passive = np.zeros((t, n), dtype=bool)
    point, w = z.copy(), atb
    least = np.full(t, n + 1)  # the fewest infeasible coordinates so far
    chances = np.full(t, 3)  # full exchanges left that need not lower it
    exchanges = 0
    while True:
        finite = np.isfinite(point).all(axis=1)
        infeasible = np.where(passive, point <= 0.0, w > DUAL_TOLERANCE)
        count = infeasible.sum(axis=1)
        finished[rows[finite & (count == 0)]] = True
        go = finite & (count > 0)
        # With no running rows left, go.all() is true too: stop here.
        if not go.any() or exchanges >= cap:
            z[rows] = point
            return z, finished
        if not go.all():
            z[rows[~go]] = point[~go]
            rows, gram, atb, passive, point = rows[go], gram[go], atb[go], passive[go], point[go]
            least, chances, infeasible, count = least[go], chances[go], infeasible[go], count[go]
        lower = count < least
        full = lower | (chances > 0)
        chances = np.where(lower, 3, chances - full)
        least = np.minimum(least, count)
        last = n - 1 - np.argmax(infeasible[:, ::-1], axis=1)
        passive ^= np.where(full[:, None], infeasible, np.arange(n) == last[:, None])
        exchanges += 1
        # The passive block of A'A, with the identity on the active
        # coordinates, solves every set size in one call; a singular block
        # gives NaN.
        blocks = np.where(passive[:, :, None] & passive[:, None, :], gram, 0.0)
        np.einsum("ijj->ij", blocks)[~passive] = 1.0
        points = _umath_linalg.solve1(blocks, np.where(passive, atb, 0.0), signature="dd->d")
        point = np.where(passive, points, 0.0)
        w = atb - (gram @ point[..., None])[..., 0]


def _accepted(a, b, gram, atb, z):
    """Which rows' points z are their answers, if finished: the KKT
    conditions hold with the duals computed on A, to within
    ``DUAL_TOLERANCE`` * max|A'b|, and sigma_min(A) >
    ``SINGULAR_RATIO`` * ||A||_F.

    The support P of a finished row is where z > 0. The dual test scales
    with A and b: on a small problem the absolute ``DUAL_TOLERANCE`` that
    ends the prediction can stop it far from the optimum, and such a row
    fails here.

    The rank test is one Cholesky factorization of A'A - s I, with s =
    ``SINGULAR_RATIO``^2 tr(A'A). It succeeds where that matrix is positive
    definite, that is where sigma_min(A)^2 > s, and numpy fills a failed
    factor with NaN, so a row passes where its factor is finite. As
    tr(A'A) = ||A||_F^2 >= sigma_max(A)^2, a row that passes has
    sigma_min(A) > ``SINGULAR_RATIO`` * sigma_max(A). Cholesky's backward
    error is at most N gamma_{N+1} tr(A'A), about 1e-14 tr(A'A) here
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3),
    far inside the test's margin of 1e-8 tr(A'A).
    """
    w = _duals(a, b, z)
    worst = np.where(z > 0.0, np.abs(w), w).max(axis=1, initial=-np.inf)
    kkt = worst <= DUAL_TOLERANCE * np.abs(atb).max(axis=1, initial=0.0)
    shifted = gram.copy()
    diagonals = np.einsum("ijj->ij", shifted)  # a view
    diagonals -= SINGULAR_RATIO**2 * diagonals.sum(axis=1, keepdims=True)
    factors = _umath_linalg.cholesky_lo(shifted, signature="d->d")
    return kkt & np.isfinite(factors).all(axis=(1, 2))


def _lawson_hanson(a, b, cap):
    """Lawson-Hanson on one (M, N) problem: ``(x, converged)``.

    Admissions and backtracking steps count against ``cap``. A point that
    is not finite stops the problem unconverged.
    """
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    changes = 0
    while True:
        w = np.where(passive, -np.inf, _duals(a, b, x))
        j = np.argmax(w)
        if w[j] <= DUAL_TOLERANCE:
            return x, True
        changes += 1
        if changes > cap:
            return x, False
        passive[j] = True
        while True:
            # A step that released every passive coordinate solves over none.
            z = np.zeros(n)
            if passive.any():
                z[passive] = np.linalg.lstsq(a[:, passive], b)[0]
            if not np.isfinite(z).all():
                return x, False
            if np.where(passive, z, np.inf).min() > 0.0:
                x = z
                break
            # Step from x toward z, stopping at the first coordinate to hit 0.
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(passive & (z <= 0.0), x / (x - z), np.inf)
            x = x + np.nanmin(ratios) * (z - x)
            released = passive & (x <= DUAL_TOLERANCE)
            x[released] = 0.0
            passive &= ~released
            changes += 1
            if changes > cap:
                return x, False


def _duals(a, b, x):
    """A'(b - A x) of one problem or of each problem in a stack."""
    r = b - (a @ x[..., None])[..., 0]
    return (np.swapaxes(a, -1, -2) @ r[..., None])[..., 0]
