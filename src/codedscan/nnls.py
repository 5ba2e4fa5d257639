"""Non-negative least squares by the Lawson-Hanson active-set method.

Solves min_{x >= 0} ||A x - b||_2^2. Coordinates move between an active
set (pinned at zero) and a passive set (free); each outer pass admits the
active coordinate with the largest dual w = A'(b - A x), then an inner
loop backtracks along the unconstrained least-squares solution of the
passive columns until it is feasible. Terminates when no active dual
exceeds ``DUAL_TOLERANCE``: exactly the KKT condition for this problem.
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


def nnls(a, b, max_iterations: int | None = None) -> np.ndarray:
    """Return argmin_{x >= 0} ||A x - b||_2^2.

    Parameters
    ----------
    a : (M, N) array_like
    b : (M,) array_like
    max_iterations : int, optional
        Cap on active-set changes, default 10*N.

    Raises
    ------
    NumericalFailureError
        If the cap is exceeded; the exception carries the best iterate.
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
