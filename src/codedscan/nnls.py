"""Non-negative least squares by the Lawson-Hanson active-set method.

Solves min_{x >= 0} ||A x - b||_2^2. Coordinates move between an active
set (pinned at zero) and a passive set (free); each outer pass admits the
active coordinate with the largest dual w = A'(b - A x), then an inner
loop backtracks along the unconstrained least-squares solution of the
passive columns until it is feasible. Terminates when no active dual
exceeds ``DUAL_TOLERANCE``: exactly the KKT condition for this problem.

A stack of T problems runs the method once for all of them, so the numpy
call overhead is paid per step, not per problem. Every inner step is the
single-problem method's own: the least-squares point over the problem's
passive columns of A, as ``np.linalg.lstsq`` computes it. The steps of all
problems with the same number of passive columns go to the LAPACK kernel
that ``np.linalg.lstsq`` runs in one stacked call, so each problem follows
the path, and returns the answer, of its single-problem run.
"""

from __future__ import annotations

import numpy as np
# The kernel np.linalg.lstsq runs, so stacked steps equal the single-problem ones bit for bit.
from numpy.linalg import _umath_linalg

# Stop once no zero coordinate's dual w_i = [A'(b - A x)]_i exceeds this;
# passive coordinates that backtrack to within it of zero are pinned there.
DUAL_TOLERANCE = 1e-10
_EPS = np.finfo(float).eps


class NumericalFailureError(RuntimeError):
    """Solver exceeded its iteration budget; carries the best iterate found."""

    def __init__(self, message: str, best_iterate: np.ndarray):
        super().__init__(message)
        self.best_iterate = best_iterate


def nnls(a, b, max_iterations: int | None = None):
    """Return argmin_{x >= 0} ||A x - b||_2^2, for one problem or a stack.

    Parameters
    ----------
    a : (M, N) or (T, M, N) array_like
    b : (M,) or (T, M) array_like
    max_iterations : int, optional
        Cap on active-set changes per problem, default 10*N.

    Returns
    -------
    x : (N,) ndarray
        For a single problem.
    (x, converged) : (T, N) ndarray and (T,) bool ndarray
        For a stack. A problem that exceeds the cap reads ``converged``
        False and holds its best iterate in ``x``; the other problems are
        unaffected.

    Raises
    ------
    NumericalFailureError
        If a single problem does not converge; the exception carries the
        best iterate.
    """
    # Contiguous inputs, so the products over A round the same for any layout.
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    single = a.ndim == 2
    if single:
        b = b.reshape(-1)
    if not (single or a.ndim == 3) or b.shape != a.shape[:-1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    if single:
        a, b = a[None], b[None]
    if max_iterations is None:
        max_iterations = 10 * a.shape[2]
    x, converged = _lawson_hanson(a, b, max_iterations)
    if not single:
        return x, converged
    if not converged[0]:
        raise NumericalFailureError(
            f"no convergence within {max_iterations} active-set changes", x[0]
        )
    return x[0]


def _lawson_hanson(a, b, max_iterations):
    t, m, n = a.shape
    a_t = a.transpose(0, 2, 1)
    x = np.zeros((t, n))
    w = _duals(a, b, x)
    passive = np.zeros((t, n), dtype=bool)
    iterations = np.zeros(t, dtype=int)
    converged = np.zeros(t, dtype=bool)

    def under_cap(rows):
        """Count one active-set change; rows past the cap stop unconverged.
        Returns which rows are still under it."""
        iterations[rows] += 1
        return iterations[rows] <= max_iterations

    def passive_points(rows):
        """Least-squares points over the rows' passive columns, one stacked
        ``lstsq`` per passive-set size; an empty passive set gives 0."""
        p = passive[rows]
        z = np.zeros((rows.size, n))
        sizes = p.sum(axis=1)
        with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            for k in set(sizes.tolist()) - {0}:
                group = np.flatnonzero(sizes == k)
                cols = np.nonzero(p[group])[1].reshape(group.size, k)
                r = rows[group]
                # Rows of A' gather in one fancy index; their transpose is
                # the Fortran-ordered (M, k) matrix that LAPACK is handed.
                zk = _umath_linalg.lstsq(
                    a_t[r[:, None], cols].transpose(0, 2, 1),
                    b[r, :, None], _EPS * max(m, k), signature="ddd->ddid",
                )[0]
                z[group[:, None], cols] = zk[..., 0]
        return z

    def step_toward(rows, z):
        """Step from x toward z, stopping at the first coordinate to hit 0."""
        xi, p = x[rows], passive[rows]
        blocking = p & (z <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(blocking, xi / (xi - z), np.inf)
        alpha = np.nanmin(ratios, axis=1)
        xi = xi + alpha[:, None] * (z - xi)
        released = p & (xi <= DUAL_TOLERANCE)
        xi[released] = 0.0
        x[rows] = xi
        passive[rows] = p & ~released
        return rows[under_cap(rows)]

    outer = np.arange(t)  # rows about to admit a coordinate or stop
    inner = outer[:0]  # rows about to solve over their passive set
    while outer.size or inner.size:
        if outer.size:
            w_active = np.where(passive[outer], -np.inf, w[outer])
            j = np.argmax(w_active, axis=1)
            done = w_active[np.arange(outer.size), j] <= DUAL_TOLERANCE
            converged[outer[done]] = True
            grow, j = outer[~done], j[~done]
            keep = under_cap(grow)
            grow = grow[keep]
            passive[grow, j[keep]] = True
            inner = np.concatenate([inner, grow])
        z = passive_points(inner)
        feasible = np.where(passive[inner], z, np.inf).min(axis=1) > 0.0
        outer = inner[feasible]
        x[outer] = z[feasible]
        w[outer] = _duals(a[outer], b[outer], x[outer])
        inner = inner[~feasible]
        if inner.size:
            inner = step_toward(inner, z[~feasible])
    return x, converged


def _duals(a, b, x):
    """A'(b - A x) of each problem in a stack."""
    r = b - (a @ x[..., None])[..., 0]
    return (a.transpose(0, 2, 1) @ r[..., None])[..., 0]


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
