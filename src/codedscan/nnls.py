"""Non-negative least squares by the Lawson-Hanson active-set method.

Solves min_{x >= 0} ||A x - b||_2^2. Coordinates move between an active
set (pinned at zero) and a passive set (free); each outer pass admits the
active coordinate with the largest dual w = A'(b - A x), then an inner
loop backtracks along the unconstrained least-squares solution of the
passive columns until it is feasible. Terminates when no active dual
exceeds ``DUAL_TOLERANCE``: exactly the KKT condition for this problem.

The answer is defined by the exact method, ``_lawson_hanson``: a stack of
T problems runs it once for all of them, so the numpy call overhead is
paid per step, not per problem. Every inner step is the single-problem
method's own: the least-squares point over the problem's passive columns
of A, as ``np.linalg.lstsq`` computes it. The steps of all problems with
the same number of passive columns go to the LAPACK kernel that
``np.linalg.lstsq`` runs in one stacked call, so each problem follows the
path, and returns the answer, of its single-problem run.

A stack of more than one problem reaches that answer in fewer kernel
calls (``_warm_start``):

1. Predict. The same loop runs on the normal equations A'A z = A'b (as
   FNNLS does; Bro and de Jong, J. Chemometrics 11, 1997), whose steps are
   small N x N solves. It only proposes each row's final passive set P.
2. Solve once. One kernel call per predicted set size gives each row's
   point z over P, bit for bit the exact method's step over P, and the
   singular values of A_P.
3. Certify. A row whose z passes the test in ``_certify`` is one on which
   the exact method also ends over P, so z is its answer.
4. Fall back. Every other row runs the exact method from the start.

So the contract is the exact method's: each row is bit for bit what a
single-problem run returns, and a row that hits the 10*N cap fails alone.
The certificate does not cover that cap (see ``_certify``).
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
    ValueError
        If the shapes disagree, or if A or b has a non-finite entry; the
        message names the first such problem of a stack.
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
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    if not finite.all():
        where = "" if single else f"problem {int(np.argmin(finite))}: "
        raise ValueError(f"{where}A and b must be finite")
    if max_iterations is None:
        max_iterations = 10 * a.shape[2]
    solve = _lawson_hanson if len(a) == 1 else _warm_start
    x, converged = solve(a, b, max_iterations)
    if not single:
        return x, converged
    if not converged[0]:
        raise NumericalFailureError(
            f"no convergence within {max_iterations} active-set changes", x[0]
        )
    return x[0]


def _lawson_hanson(a, b, max_iterations):
    """The exact method on a stack: ``(x, converged)``."""
    a_t = a.transpose(0, 2, 1)
    return _active_set(
        lambda rows, passive: _lstsq_points(a_t, b, rows, passive)[0],
        lambda rows, x: _duals(a[rows], b[rows], x),
        a.shape[0], a.shape[2], max_iterations,
    )


def _warm_start(a, b, max_iterations):
    """``_lawson_hanson`` of the stack, bit for bit, from fewer kernel calls."""
    a_t = a.transpose(0, 2, 1)
    eye = np.eye(a.shape[2])

    def gram_points(rows, passive):
        # The passive block of A'A, with the identity on the active
        # coordinates, solves every set size in one call; a singular block
        # gives NaN.
        blocks = np.where(passive[:, :, None] & passive[:, None, :], gram[rows], eye)
        z = _umath_linalg.solve1(blocks, np.where(passive, atb[rows], 0.0), signature="dd->d")
        return np.where(passive, z, 0.0)

    # The prediction and the test only choose which rows the exact method
    # runs, so an overflow or a NaN there costs a row its shortcut, not its
    # answer. The prediction gets half the cap, so that a row the normal
    # equations finish in that many changes leaves the exact method room
    # for a longer path.
    with np.errstate(all="ignore"):
        gram, atb = a_t @ a, (a_t @ b[..., None])[..., 0]
        x, predicted = _active_set(
            gram_points,
            lambda rows, x: atb[rows] - (gram[rows] @ x[..., None])[..., 0],
            a.shape[0], a.shape[2], max_iterations // 2,
        )
        x, converged = _certify(a, b, gram, x > 0.0, predicted)
    rest = np.flatnonzero(~converged)
    if rest.size:
        x[rest], converged[rest] = _lawson_hanson(a[rest], b[rest], max_iterations)
    return x, converged


def _certify(a, b, gram, support, predicted):
    """Each predicted row's exact step over its support P, and whether the
    exact method ends on P and so returns it.

    Notation: w(x) = A'(b - A x) in exact arithmetic, w^ as computed, tau =
    ``DUAL_TOLERANCE``, c_i = ||a_i||, sigma = sigma_min(A_P) (0 when P has
    more columns than A has rows), k = |P|. z is the kernel's point over P.

    Rounding. A computed dual is within e_i = (M + N + 2) eps c_i s of the
    exact one, s = ||b|| + sum_j c_j z_j: the gamma bounds of a dot product
    and a subtraction (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1, 3.5), in any summation order, doubled. Let
    rho = 2 (max_{i in P} |w^_i| + max_i e_i). It bounds |w_i(z)| on P. That
    it also bounds x''s stationarity residual on its own support and the
    rounding of x''s duals, for the point x' below, is the one assumption:
    the kernel is backward stable, as LAPACK's SVD solver is, and x' is of
    z's scale. The doubling also covers the rounding of this test.

    The argument. Let x' be where the exact method stops converged: its step
    over a passive set P', so x' >= 0, x'_i > 0 exactly on P', and
    w^_i(x') <= tau off P'. With d = x' - z, the identity
    ||A d||^2 = (w(z) - w(x'))'d splits over P, P' and their complements:

        ||A d||^2 <= 2 rho ||d_P||_1 + (rho - mu) ||x'_{not P}||_1 + (tau + rho) ||z||_1,

    where w_i(z) <= -mu off P. With ||d_P||_1 <= sqrt(k) (||A d|| +
    max c ||x'_{not P}||_1) / sigma and mu >= rho + 2 rho sqrt(k) max c / sigma,
    ||A d|| <= g = 2 rho sqrt(k) / sigma + sqrt((tau + rho) ||z||_1).

    - No column joins: for i off P, w_i(x') = w_i(z) - a_i'A d <= w^_i +
      e_i + c_i g, so w^_i + e_i + rho + max c * g < 0 makes |w_i(x')| >
      rho, impossible on P'. That margin also gives the mu above. So
      P' is in P, and ||d|| <= g / sigma.
    - No column leaves: j in P but not in P' has |d_j| = z_j, so
      sigma * min z_P > g rules it out.

    So P' = P, and x' is the exact method's step over P: the same kernel
    call on the same columns, z bit for bit. The argument does not cover
    whether the exact method would first hit its cap; the prediction runs
    under half the cap for that reason.

    A row with an off-support dual that is zero up to rounding (a zero or a
    duplicated column, a column in the span of the support) never passes,
    since its optimum need not be unique: such rows run the exact method.
    """
    t, m, n = a.shape
    x = np.zeros((t, n))
    certified = np.zeros(t, dtype=bool)
    rows = np.flatnonzero(predicted)
    p = support[rows]
    z, sigma = _lstsq_points(a.transpose(0, 2, 1), b, rows, p)
    # The duals, column norms and ||b|| of the whole stack, with the other
    # rows at x = 0, then the predicted rows': no copy of their A.
    x[rows] = z
    w = _duals(a, b, x)[rows]
    c = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))[rows]
    s = np.linalg.norm(b, axis=1)[rows] + (c * z).sum(axis=1)
    e = (m + n + 2) * _EPS * c * s[:, None]
    rho = 2.0 * (np.where(p, np.abs(w), 0.0).max(axis=1, initial=0.0) + e.max(axis=1, initial=0.0))
    g = 2.0 * rho * np.sqrt(p.sum(axis=1)) / sigma + np.sqrt((DUAL_TOLERANCE + rho) * z.sum(axis=1))
    # The largest off-support dual plus its margins, and sigma * min z_P.
    off = np.where(p, -np.inf, w + e).max(axis=1, initial=-np.inf) + rho + c.max(axis=1, initial=0.0) * g
    on = sigma * np.where(p, z, np.inf).min(axis=1, initial=np.inf)
    ok = (off < 0.0) & (on > g)
    certified[rows[ok]] = True
    return x, certified


def _active_set(points, duals, t, n, max_iterations):
    """The Lawson-Hanson loop over a stack of T problems in N unknowns.

    ``points(rows, passive)`` gives the rows' least-squares points over
    their passive columns (zero elsewhere) and ``duals(rows, x)`` their
    duals at x. A row whose point is not finite stops unconverged.
    """
    x = np.zeros((t, n))
    w = duals(np.arange(t), x)
    passive = np.zeros((t, n), dtype=bool)
    iterations = np.zeros(t, dtype=int)
    converged = np.zeros(t, dtype=bool)

    def under_cap(rows):
        """Count one active-set change; rows past the cap stop unconverged.
        Returns which rows are still under it."""
        iterations[rows] += 1
        return iterations[rows] <= max_iterations

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
        z = points(inner, passive[inner])
        finite = np.isfinite(z).all(axis=1)
        inner, z = inner[finite], z[finite]
        feasible = np.where(passive[inner], z, np.inf).min(axis=1) > 0.0
        outer = inner[feasible]
        x[outer] = z[feasible]
        w[outer] = duals(outer, x[outer])
        inner = inner[~feasible]
        if inner.size:
            inner = step_toward(inner, z[~feasible])
    return x, converged


def _lstsq_points(a_t, b, rows, passive):
    """Least-squares points over the rows' passive columns, one stacked
    ``lstsq`` per passive-set size, and sigma_min of those columns (0 when
    a set has more columns than A has rows); an empty passive set gives 0
    and an infinite sigma_min."""
    m, n = a_t.shape[2], a_t.shape[1]
    z = np.zeros((rows.size, n))
    sigma = np.full(rows.size, np.inf)
    sizes = passive.sum(axis=1)
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        for k in set(sizes.tolist()) - {0}:
            group = np.flatnonzero(sizes == k)
            cols = np.nonzero(passive[group])[1].reshape(group.size, k)
            r = rows[group]
            # Rows of A' gather in one fancy index; their transpose is
            # the Fortran-ordered (M, k) matrix that LAPACK is handed.
            zk, _, _, sk = _umath_linalg.lstsq(
                a_t[r[:, None], cols].transpose(0, 2, 1),
                b[r, :, None], _EPS * max(m, k), signature="ddd->ddid",
            )
            z[group[:, None], cols] = zk[..., 0]
            sigma[group] = sk[:, -1] if k <= m else 0.0
    return z, sigma


def _duals(a, b, x):
    """A'(b - A x) of each problem in a stack."""
    r = b - (a @ x[..., None])[..., 0]
    return (a.transpose(0, 2, 1) @ r[..., None])[..., 0]


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
