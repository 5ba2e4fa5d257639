"""Recover beam position and shape from a scan series.

The pipeline: scale each series to unit peak, locate the scan offset by
exhaustive template matching against every feasible profile window, then
solve a non-negative least-squares problem for the beam shape at that
offset, optionally alternating the two steps.

Counts are fitted as they are, up to one scale: the search scores each
offset by the best non-negative multiple of its template window, so the
template's scale does not matter, and the shape solve fits the unit-peak
counts directly. ``recover`` returns the fitted shape s as its unit-sum
``signal`` s / sum(s) and its ``scale`` sum(s), the unit-peak count that
a fully open alignment would read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aperture import TransmissivityProfile
from .forward import ScanSeries, Signal, build_coding_matrix
from .nnls import NumericalFailureError, nnls

# Rows per stacked shape solve: bounds the (rows, M, N) stack of coding
# matrices that one ``nnls`` call holds.
STACK_ROWS = 64


class FlatSeriesError(ValueError):
    """Series carries no counts to fit (every count is zero)."""


@dataclass(frozen=True)
class RecoveryResult:
    """One series' fit: the beam's unit-sum ``signal`` at offset ``position``,
    its sum ``scale`` in unit-peak counts, and the residual
    ||A_p (scale * signal) - d||^2 against the unit-peak counts d."""

    position: int
    signal: np.ndarray
    scale: float
    residual: float
    rounds: int


def normalize(series: ScanSeries):
    """Unit-peak counts: each series divided by its largest count.

    One series gives its unit-peak counts, or raises ``FlatSeriesError``
    if every count is zero. A (T, M) stack gives ``(normalized, flat)``:
    the (T,) bool mask ``flat`` of all-zero rows, and the unit-peak counts
    of the other rows, in order. Each row equals its normalization alone.
    """
    if len(series) < 2:
        raise ValueError("need at least 2 scan points to normalize")
    raw = np.atleast_2d(series.raw)
    peak = raw.max(axis=1)
    flat = ~(peak > 0)
    if series.raw.ndim == 1 and flat[0]:
        raise FlatSeriesError("no counts: every count is zero")
    keep = ~flat
    normalized = raw[keep] / peak[keep, None]
    return normalized[0] if series.raw.ndim == 1 else (normalized, flat)


def _template_terms(a: np.ndarray, t: np.ndarray, m: int) -> tuple:
    """Window dots r[j] = sum_n a[j+n] t_n and, per offset p, sum_m r[p+m]^2."""
    last = a.size - m - t.size + 1  # largest feasible offset
    if last < 0:
        raise ValueError(
            f"profile of length {a.size} cannot host a scan of {m} points "
            f"with an {t.size}-cell signal"
        )
    window_dots = np.correlate(a, t, mode="valid")
    cum = np.concatenate([[0.0], np.cumsum(window_dots**2)])
    return window_dots, cum[m:] - cum[:-m]


def _best_offset(window_dots: np.ndarray, sliding_sq: np.ndarray, d: np.ndarray) -> int:
    """Offset p maximizing cross_p^2 / sq_p over cross_p > 0, where cross_p =
    sum_m r[p+m] d_m and sq_p = sum_m r[p+m]^2: the one whose best
    non-negative multiple c * r[p:p+M] leaves the least residual,
    ||d||^2 - cross_p^2 / sq_p. An offset with cross_p <= 0 (c = 0, or an
    opaque window) gains nothing; with no gain anywhere, p is 0."""
    cross = np.correlate(window_dots, d, mode="valid")
    gain = np.zeros_like(cross)
    np.divide(cross**2, sliding_sq, out=gain, where=(cross > 0.0) & (sliding_sq > 0.0))
    return int(np.argmax(gain))


def search_position(
    profile: TransmissivityProfile,
    d: np.ndarray,
    template: np.ndarray,
) -> int:
    """Offset minimizing min_{c>=0} ||c * A_p template - d||^2 over all feasible p.

    The template's scale does not matter. Evaluated for every offset at
    once through sliding correlations (the fit at p needs only the window
    sums r[p+m] = sum_n a[p+m+n] t_n), so the exhaustive search is
    O(L*M) rather than O(L*M*N). Ties break toward the smallest offset.
    """
    terms = _template_terms(profile.values, np.asarray(template, dtype=float), d.size)
    return _best_offset(*terms, d)


def solve_signal(
    profile: TransmissivityProfile,
    d: np.ndarray,
    p: int,
    n_signal: int,
) -> np.ndarray:
    """Non-negative beam shape at offset p: argmin_{s>=0} ||A_p s - d||^2."""
    matrix = build_coding_matrix(profile, p, d.size, n_signal)
    return nnls(matrix, d)


def recover(
    profile: TransmissivityProfile,
    d: np.ndarray,
    template: Signal,
    max_rounds: int = 3,
) -> RecoveryResult:
    """Alternate position search and shape solve until the position settles.

    ``d`` holds unit-peak counts, as ``normalize`` returns them. Round 1
    searches with the supplied template and solves for the shape s >= 0
    there; further rounds re-search with the recovered shape as the
    template and re-solve, stopping as soon as the position repeats or
    ``max_rounds`` is reached. The residual never increases between
    rounds: each half-step minimizes the same objective in one block of
    variables. The result holds s / sum(s) and sum(s), or a zero signal
    and scale where s is zero. Raises ``NumericalFailureError`` if a
    shape solve does not converge.
    """
    (result,) = recover_batch(profile, np.asarray(d)[None], template, max_rounds)
    if isinstance(result, NumericalFailureError):
        raise result
    return result


def recover_batch(
    profile: TransmissivityProfile,
    d,
    template: Signal,
    max_rounds: int = 3,
) -> list:
    """``recover`` for every row of ``d``, a (T, M) stack of unit-peak series.

    Returns one entry per row: its ``RecoveryResult``, or the
    ``NumericalFailureError`` that its own shape solve ended in. Row i is
    ``recover(profile, d[i], template, max_rounds)`` bit for bit. The
    round-1 template terms are computed once; each round solves all rows
    whose position moved in one stacked ``nnls`` call, ``STACK_ROWS`` rows
    at a time.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if len(d) == 0:
        return []
    d = np.asarray(d, dtype=float)
    if d.ndim != 2:
        raise ValueError(f"expected a (T, M) stack of series, got shape {d.shape}")
    terms = _template_terms(profile.values, template.values, d.shape[1])
    results = []
    for start in range(0, len(d), STACK_ROWS):
        chunk = d[start : start + STACK_ROWS]
        results += _recover_stack(profile, chunk, terms, len(template), max_rounds)
    return results


def _recover_stack(profile, d, terms, n, max_rounds) -> list:
    """``recover_batch`` on at most ``STACK_ROWS`` rows, given the round-1 terms."""
    count, m = d.shape
    positions = [_best_offset(*terms, row) for row in d]
    signals = [None] * count
    matrices = [None] * count  # each row's coding matrix at its last solve
    failures = {}
    rounds = [1] * count
    moving = list(range(count))
    for round_index in range(max_rounds):
        if round_index:
            # Re-search with each recovered shape; a row stops once it repeats.
            moved = []
            for i in moving:
                again = search_position(profile, d[i], signals[i])
                if again != positions[i]:
                    positions[i] = again
                    rounds[i] += 1
                    moved.append(i)
            moving = moved
        if not moving:
            break
        stack = build_coding_matrix(profile, np.array([positions[i] for i in moving]), m, n)
        x, converged = nnls(stack, d[moving])
        for k, i in enumerate(moving):
            if converged[k]:
                signals[i], matrices[i] = x[k], stack[k]
            else:
                failures[i] = NumericalFailureError(
                    f"no convergence for the shape at offset {positions[i]}", x[k]
                )
        moving = [i for k, i in enumerate(moving) if converged[k] and x[k].sum() > 0.0]

    # Each shape as its sum and its unit-sum shape, and every residual of
    # scale * signal in one stacked product and one row sum.
    solved = [i for i in range(count) if i not in failures]
    results = dict(failures)
    if solved:
        shapes = np.stack([signals[i] for i in solved])
        scales = shapes.sum(axis=1)
        shapes /= np.where(scales > 0.0, scales, 1.0)[:, None]  # a zero shape stays zero
        fits = np.stack([matrices[i] for i in solved]) @ (scales[:, None] * shapes)[..., None]
        residuals = ((fits[..., 0] - d[solved]) ** 2).sum(axis=1)
        for k, i in enumerate(solved):
            results[i] = RecoveryResult(
                positions[i], shapes[k], float(scales[k]), float(residuals[k]), rounds[i]
            )
    return [results[i] for i in range(count)]
