"""Non-negative least squares by the Lawson-Hanson active-set method.

Solves min_{x >= 0} ||A x - b||_2^2. Coordinates move between an active
set (pinned at zero) and a passive set (free); each outer pass admits the
active coordinate with the largest dual w = A'(b - A x), then an inner
loop backtracks along the unconstrained least-squares solution of the
passive columns until it is feasible. Terminates when no active dual
exceeds ``DUAL_TOLERANCE``: exactly the KKT condition for this problem.

A stack of T problems runs the method once for all of them, so the numpy
call overhead is paid per step, not per problem. Each inner step solves
the normal equations of every row's passive columns in one masked
``np.linalg.solve`` over the stacked Gram matrices A'A, and takes the
duals there from A itself, as the single-problem method does. A problem
takes the method's own ``lstsq`` step instead where its Gram point is not
stationary on its passive columns to within the tolerance (an
ill-conditioned or singular passive set) or is not feasible (so the
backtracking direction is the method's own), and every problem does when
A has fewer rows than columns (M < N), where the fit is not unique and
which optimum the method reaches hangs on the rounding of each step. When the
duals say a problem is done, its point is recomputed the way the method
ends, with ``lstsq`` on its passive columns of A, and the method's own
tests are applied there: a passive entry that is not positive starts one
more backtracking step, an active dual above the tolerance admits that
coordinate, and otherwise that ``lstsq`` point is the answer, what a
single-problem run with ``lstsq`` steps returns.
"""

from __future__ import annotations

import numpy as np

# Stop once no zero coordinate's dual w_i = [A'(b - A x)]_i exceeds this;
# passive coordinates that backtrack to within it of zero are pinned there.
DUAL_TOLERANCE = 1e-10


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
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
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
    at = a.transpose(0, 2, 1)
    gram = at @ a
    atb = (at @ b[..., None])[..., 0]

    x = np.zeros((t, n))
    w = atb.copy()  # duals A'(b - A x), here at x = 0
    passive = np.zeros((t, n), dtype=bool)
    iterations = np.zeros(t, dtype=int)
    converged = np.zeros(t, dtype=bool)

    def under_cap(rows):
        """Count one active-set change; rows past the cap stop unconverged.
        Returns which rows are still under it."""
        iterations[rows] += 1
        return iterations[rows] <= max_iterations

    def lstsq_step(r):
        """The single-problem step of row r: its point over the passive
        columns and the duals there."""
        cols = np.flatnonzero(passive[r])
        z = np.zeros(n)
        if cols.size:
            z[cols] = np.linalg.lstsq(a[r][:, cols], b[r], rcond=None)[0]
        return z, a[r].T @ (b[r] - a[r] @ z)

    def passive_points(rows):
        """Least-squares points over the rows' passive columns, and their duals."""
        p = passive[rows]
        if m < n:
            z, w_z = np.empty((2, rows.size, n))
            redo = np.ones(rows.size, dtype=bool)
        else:
            system, rhs = _passive_system(gram[rows], atb[rows], p)
            try:
                z = np.linalg.solve(system, rhs)[..., 0]
            except np.linalg.LinAlgError:
                z = _solve_each(system, rhs)
            ar = a[rows]
            w_z = (ar.transpose(0, 2, 1) @ (b[rows] - (ar @ z[..., None])[..., 0])[..., None])[..., 0]
            # A Gram point that is not stationary on the passive columns (NaN
            # for a singular system) or that would start a backtracking step
            # is replaced by the method's own.
            redo = ~(np.where(p, np.abs(w_z), 0.0).max(axis=1) <= DUAL_TOLERANCE)
            redo |= ~(np.where(p, z, np.inf).min(axis=1) > 0.0)
        for k in np.flatnonzero(redo):
            z[k], w_z[k] = lstsq_step(rows[k])
        return z, w_z

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

    def finish(r) -> np.ndarray:
        """The method's last step, from A itself: lstsq over the passive
        columns, then its own tests. Where one fails, the method goes on:
        returns the row if it re-enters the inner loop."""
        p = passive[r]
        z, w[r] = lstsq_step(r)
        if p.any() and not z[p].min() > 0.0:
            return step_toward(np.array([r]), z[None])
        x[r] = z
        w_active = np.where(p, -np.inf, w[r])
        j = int(np.argmax(w_active))
        if w_active[j] <= DUAL_TOLERANCE:
            converged[r] = True
            return np.empty(0, dtype=int)
        p[j] = True
        rows = np.array([r])
        return rows[under_cap(rows)]

    outer = np.arange(t)  # rows about to admit a coordinate or stop
    inner = outer[:0]  # rows about to solve over their passive set
    while outer.size or inner.size:
        if outer.size:
            w_active = np.where(passive[outer], -np.inf, w[outer])
            j = np.argmax(w_active, axis=1)
            done = w_active[np.arange(outer.size), j] <= DUAL_TOLERANCE
            # The duals say stop: the row's own finish decides.
            resumed = [finish(r) for r in outer[done]]
            grow, j = outer[~done], j[~done]
            keep = under_cap(grow)
            grow = grow[keep]
            passive[grow, j[keep]] = True
            inner = np.concatenate([inner, grow, *resumed])
            if not inner.size:
                break
        z, w_z = passive_points(inner)
        feasible = np.where(passive[inner], z, np.inf).min(axis=1) > 0.0
        outer = inner[feasible]
        x[outer], w[outer] = z[feasible], w_z[feasible]
        inner = inner[~feasible]
        if inner.size:
            inner = step_toward(inner, z[~feasible])
    return x, converged


def _passive_system(gram, atb, passive):
    """Normal equations over each problem's passive columns, as (T, N, N)
    systems whose solution is 0 on the active coordinates.

    Active rows and columns of each Gram matrix are replaced by the
    identity and their right-hand side by 0, so one stacked solve serves
    passive sets of any size.
    """
    both = passive[:, :, None] & passive[:, None, :]
    system = np.where(both, gram, np.eye(gram.shape[-1]))
    return system, np.where(passive, atb, 0.0)[..., None]


def _solve_each(system, rhs):
    """Solve the systems one by one; a singular one gets a row of NaN."""
    out = np.full(rhs.shape[:2], np.nan)
    for k in range(system.shape[0]):
        try:
            out[k] = np.linalg.solve(system[k], rhs[k])[:, 0]
        except np.linalg.LinAlgError:
            pass
    return out
