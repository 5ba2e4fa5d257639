"""Recover beam position and shape from a scan series.

The pipeline: scale each series to unit peak, locate the scan offset by
exhaustive template matching against every feasible profile window, then
solve a non-negative least-squares problem for the beam shape at that
offset. Each series gets one search and one solve.

A stack of series is searched together: chunked matrix products screen
every offset of every row, and only a row whose best offsets tie to within
the products' rounding error is searched again exactly on the span of its
near-ties. The positions are those of the one-row search, bit for bit.

Counts are fitted as they are, up to one scale: the search scores each
offset by the best non-negative multiple of its template window, so the
template's scale does not matter, and the shape solve fits the unit-peak
counts directly. ``recover`` returns the fitted shape s as its unit-sum
``signal`` s / sum(s) and its ``scale`` sum(s), the unit-peak count that
a fully open alignment would read.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import float_info

import numpy as np

from .aperture import TransmissivityProfile
from .forward import ScanSeries, Signal, build_coding_matrix
from .nnls import NumericalFailureError, nnls

# Rows per stacked shape solve: bounds the (rows, M, N) stack of coding
# matrices that one ``nnls`` call holds.
STACK_ROWS = 64
# Most multiply-adds in one screening product. OpenBLAS runs a dgemm of at
# most SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD = 65,536 * 4 of them
# on the calling thread; a stack's larger products ran slower on two threads.
SCREEN_MADDS = 65_536 * 4
# Screened gains held at once per stack: a (rows, offsets) block of doubles.
SCREEN_BLOCK = 32_768



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


def _best_offsets(window_dots, sliding_sq, inv_sq, d) -> list:
    """``_best_offset`` of every row of the (T, M) stack d, bit for bit.

    ``inv_sq`` is 1/sq, 0 where sq is 0. A screen computes cross for all
    rows in matrix products of at most ``SCREEN_MADDS`` multiply-adds over
    a sliding view of the window dots, and keeps for each block of offsets
    each row's largest gain cross^2 / sq and the next largest.

    With r >= 0 (a profile in [0, 1] against a ``Signal``) and d >= 0, a
    sum of M products is within gamma_M * cross of its exact value in any
    order (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
    So the one-row search's offset is among the near-ties: the offsets
    whose screened gain is at least G * (1 - delta), for the row's largest
    screened gain G and delta = 16 (M + 2) eps. A row with one near-tie
    has found its offset. Any other row runs ``_best_offset`` on the
    blocks that hold its near-ties, which keeps ties on the smallest offset.

    ``_best_offset`` searches a whole row that has a negative or non-finite
    entry, or whose G lies outside [tiny / delta, max / (2 max(sq, 1))],
    where underflow or overflow would break the relative bound. It searches
    every row of a stack of one (the screen costs more there), of a stack
    whose rows alone exceed ``SCREEN_MADDS``, or of a profile with a
    positive sq outside [8 eps, 1 / (2 tiny)].
    """
    t, m = d.shape
    p_count = sliding_sq.size
    positive = sliding_sq[sliding_sq > 0.0]
    sq_max = positive.max(initial=0.0)
    sq_ok = 8 * float_info.epsilon <= positive.min(initial=1.0) and sq_max <= 0.5 / float_info.min
    if t == 1 or t * m > SCREEN_MADDS or not sq_ok:
        return [_best_offset(window_dots, sliding_sq, row) for row in d]
    delta = 16 * (m + 2) * float_info.epsilon
    product = SCREEN_MADDS // (t * m)  # offsets per matrix product
    block = max(product, SCREEN_BLOCK // t // product * product)  # offsets per block
    windows = np.lib.stride_tricks.sliding_window_view(window_dots, m)
    rows = np.arange(t)
    gains = np.empty((t, block))
    blocks = range(0, p_count, block)
    tops, seconds = np.empty((2, len(blocks), t))
    args = np.empty((len(blocks), t), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):  # rows that fall back below
        for k, start in enumerate(blocks):
            g = gains[:, : min(block, p_count - start)]
            for j in range(0, g.shape[1], product):
                np.matmul(d, windows[start + j : start + j + product].T, out=g[:, j : j + product])
            g *= g
            g *= inv_sq[start : start + g.shape[1]]
            args[k] = g.argmax(axis=1)
            tops[k] = g[rows, args[k]]
            g[rows, args[k]] = -1.0
            g.max(axis=1, out=seconds[k])
        top = tops.max(axis=0)
        near = top * (1.0 - delta)
    held = tops >= near  # blocks holding a near-tie
    single = held.sum(axis=0) + (seconds >= near).sum(axis=0) == 1
    first = held.argmax(axis=0)
    last = len(blocks) - 1 - held[::-1].argmax(axis=0)
    screened = ((d >= 0.0) & (d <= float_info.max)).all(axis=1) & (
        (float_info.min / delta <= top) & (top <= float_info.max / (2.0 * max(sq_max, 1.0)))
    )
    positions = []
    for i, row in enumerate(d):
        if not screened[i]:
            positions.append(_best_offset(window_dots, sliding_sq, row))
        elif single[i]:
            positions.append(int(first[i] * block + args[first[i], i]))
        else:
            lo, hi = int(first[i]) * block, min(int(last[i] + 1) * block, p_count)
            offset = _best_offset(window_dots[lo : hi + m - 1], sliding_sq[lo:hi], row)
            positions.append(lo + offset)
    return positions


def search_position(
    profile: TransmissivityProfile,
    d: np.ndarray,
    template: np.ndarray,
) -> int:
    """Offset minimizing min_{c>=0} ||c * A_p template - d||^2 over all feasible p.

    The template's scale does not matter. Evaluated for every offset at
    once through sliding correlations (the fit at p needs only the window
    sums r[p+m] = sum_n a[p+m+n] t_n), so the exhaustive search costs one
    correlation of the window dots with d, O(L*M) rather than O(L*M*N).
    This is the one-row search; ``recover_batch`` screens a stack of rows
    in matrix products and gets the same offsets. Ties break toward the
    smallest offset.
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
) -> RecoveryResult:
    """Search the position with the template, then solve the shape there.

    ``d`` holds unit-peak counts, as ``normalize`` returns them. The
    position is ``search_position(profile, d, template.values)`` and the
    shape is ``solve_signal`` s >= 0 at that offset. The result holds
    s / sum(s) and sum(s), or a zero signal and scale where s is zero.
    Raises ``NumericalFailureError`` if the shape solve does not converge.
    """
    (result,) = recover_batch(profile, np.asarray(d)[None], template)
    if isinstance(result, NumericalFailureError):
        raise result
    return result


def recover_batch(profile: TransmissivityProfile, d, template: Signal) -> list:
    """``recover`` for every row of ``d``, a (T, M) stack of unit-peak series.

    Returns one entry per row: its ``RecoveryResult``, or the
    ``NumericalFailureError`` that its own shape solve ended in. Row i is
    ``recover(profile, d[i], template)`` bit for bit. The template terms
    and 1/sq are computed once. Per ``STACK_ROWS`` rows, the positions come
    from one screened search (``_best_offsets``), and the shapes from one
    stacked ``nnls`` call. A row with a non-finite count raises ValueError.
    """
    if len(d) == 0:
        return []
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[1] == 0:
        raise ValueError(f"expected a (T, M) stack of series with M >= 1, got shape {d.shape}")
    finite = np.isfinite(d).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))}: counts must be finite")
    window_dots, sliding_sq = _template_terms(profile.values, template.values, d.shape[1])
    inv_sq = np.zeros_like(sliding_sq)
    np.divide(1.0, sliding_sq, out=inv_sq, where=sliding_sq > 0.0)
    terms = (window_dots, sliding_sq, inv_sq)
    results = []
    for start in range(0, len(d), STACK_ROWS):
        chunk = d[start : start + STACK_ROWS]
        results += _recover_stack(profile, chunk, terms, len(template))
    return results


def _recover_stack(profile, d, terms, n) -> list:
    """``recover_batch`` on at most ``STACK_ROWS`` rows, given the template terms."""
    positions = _best_offsets(*terms, d)
    stack = build_coding_matrix(profile, np.array(positions), d.shape[1], n)
    x, converged = nnls(stack, d)
    # Each shape as its sum and its unit-sum shape, and every residual of
    # scale * signal in one stacked product and one row sum.
    scales = x.sum(axis=1)
    shapes = x / np.where(scales > 0.0, scales, 1.0)[:, None]  # a zero shape stays zero
    fits = stack @ (scales[:, None] * shapes)[..., None]
    residuals = ((fits[..., 0] - d) ** 2).sum(axis=1)
    return [
        RecoveryResult(p, shape, float(scale), float(residual))
        if ok
        else NumericalFailureError(f"no convergence for the shape at offset {p}", iterate)
        for p, shape, scale, residual, ok, iterate in zip(
            positions, shapes, scales, residuals, converged, x
        )
    ]
