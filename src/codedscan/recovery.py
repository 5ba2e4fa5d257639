"""Recover beam position and shape from a stack of scan series.

A series is a row of a (T, M) stack, and one series is a stack of one.
The pipeline: scale each row to unit peak, locate its scan offset by
exhaustive template matching against every feasible profile window, then
solve a non-negative least-squares problem for the beam shape at that
offset. Each row gets one search and one solve, and reports its outcome
in its ``status``: a flat row or a failed solve does not raise.

A stack of series is searched together: chunked float32 matrix products
screen every offset of every row, and only a row whose best offsets tie to
within the screen's rounding error, 4 (M + 4) eps32 + 16 (M + 2) eps64
relatively, is searched again by the float64 one-row search on the span of
its near-ties. The positions are those of the one-row search, bit for bit.

Counts are fitted as they are, up to one scale: the search scores offset
p by d . r_p / ||r_p|| for its template window r_p, which ranks offsets as
the best non-negative multiple of the window does, so the template's scale
does not matter; exact ties break toward the smallest offset. The shape
solve fits the unit-peak counts directly. ``recover_batch`` returns each
fitted shape s as its unit-sum ``signal`` s / sum(s) and its ``scale``
sum(s), the unit-peak count that a fully open alignment would read.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import float_info

import numpy as np

from .aperture import TransmissivityProfile
from .forward import ScanSeries, Signal, build_coding_matrix
from .nnls import nnls

# Doubles in the (rows, M, N) stack of coding matrices that one ``nnls`` call
# holds: about 624 rows at M = 21 and N = 10, 81 at M = 161. A row that alone
# holds more is solved by itself.
SOLVE_DOUBLES = 2**17
# Most multiply-adds in one screening product. OpenBLAS 0.3.31 on an AVX-512
# host ran float32 products of this size on the calling thread, and products
# of 2^20 on two threads, slower than on one.
SCREEN_MADDS = 65_536 * 4
# Float32 scores that one screened stack holds (1 MiB): a stack has
# max(1, SCREEN_FLOATS // P) rows for P feasible offsets.
SCREEN_FLOATS = 2**18
F32 = np.finfo(np.float32)


@dataclass(frozen=True)
class RecoveryBatch:
    """A stack's recoveries as columns, row i for series i: the offset
    ``position`` (T,), the beam's unit-sum ``signal`` (T, N) there, its sum
    ``scale`` (T,) in unit-peak counts, the ``residual`` (T,)
    ||A_p (scale * signal) - d||^2 against the unit-peak counts d, and
    ``status`` (T,): "ok", "flat" (no positive count) or "failed" (the shape
    solve did not converge). A flat row holds 0 in the other columns; a
    failed row, its searched offset and the solve's last iterate, split into
    signal and scale and scored as a fit is."""

    position: np.ndarray
    signal: np.ndarray
    scale: np.ndarray
    residual: np.ndarray
    status: np.ndarray

    def __len__(self) -> int:
        return len(self.status)


def normalize(series: ScanSeries):
    """Unit-peak counts: each row of the stack divided by its largest count.

    Returns ``(normalized, flat)``: the (T,) bool mask ``flat`` of all-zero
    rows, and the unit-peak counts of the other rows, in order. One series
    (M,) is a stack of one. Each row equals its normalization alone.
    """
    raw = np.atleast_2d(series.raw)
    peak = raw.max(axis=1)
    flat = ~(peak > 0)
    return raw[~flat] / peak[~flat, None], flat


def _template_terms(a: np.ndarray, t: np.ndarray, m: int) -> tuple:
    """Window dots r[j] = sum_n a[j+n] t_n and, per offset p, the inverse norm
    1 / ||r_p|| of its window r_p = r[p:p+M], 0 where sum_m r[p+m]^2 is 0."""
    last = a.size - m - t.size + 1  # largest feasible offset
    if last < 0:
        raise ValueError(
            f"profile of length {a.size} cannot host a scan of {m} points "
            f"with an {t.size}-cell signal"
        )
    window_dots = np.correlate(a, t, mode="valid")
    # Summed per window, not as a prefix-sum difference, so that equal
    # windows get equal norms and tie exactly.
    sq = np.lib.stride_tricks.sliding_window_view(window_dots**2, m).sum(axis=1)
    return window_dots, np.divide(1.0, np.sqrt(sq), out=np.zeros_like(sq), where=sq > 0.0)


def _best_offset(window_dots: np.ndarray, inv_norm: np.ndarray, d: np.ndarray) -> int:
    """Offset p maximizing the score cross_p * inv_norm_p = d . r_p / ||r_p||
    over cross_p > 0, where cross_p = sum_m r[p+m] d_m: the one whose best
    non-negative multiple c * r_p leaves the least residual,
    ||d||^2 - (cross_p / ||r_p||)^2. An offset with cross_p <= 0 (c = 0, or
    an opaque window) scores 0; with no positive score anywhere, p is 0."""
    cross = np.correlate(window_dots, d, mode="valid")
    score = np.zeros_like(cross)
    np.multiply(cross, inv_norm, out=score, where=cross > 0.0)
    return int(np.argmax(score))


def _single_precision(window_dots: np.ndarray, inv_norm: np.ndarray):
    """The screen's float32 copies ``(window_dots, inv_norm)``, or None if
    some value of either is neither 0 nor a normal float32: then every row
    is searched by ``_best_offset`` alone."""
    for a in (window_dots, inv_norm):
        if not ((a == 0.0) | ((a >= F32.tiny) & (a <= F32.max))).all():
            return None
    return window_dots.astype(np.float32), inv_norm.astype(np.float32)


def _best_offsets(window_dots, inv_norm, screen, d) -> list:
    """``_best_offset`` of every row of the (T, M) stack d, bit for bit.

    ``screen`` is ``_single_precision(window_dots, inv_norm)``. The screen
    computes cross for all rows in float32 matrix products of at most
    ``SCREEN_MADDS`` multiply-adds over a sliding view of the window dots
    into one (T, P) score array, scales it by ``inv_norm``, and takes each
    row's largest score, its offset and the next largest score.

    With r >= 0 (a profile in [0, 1] against a ``Signal``) and d >= 0, a
    sum of M products is within gamma_M = M u / (1 - M u) of its exact
    value, relatively, in any order when nothing underflows (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1). The screened score
    also rounds d, r and inv_norm to float32 and multiplies once more, so it
    is within gamma_{M+4}(u32) of the exact d . r_p * inv_norm_p, and the
    one-row search's float64 score is within gamma_{M+1}(u64) of it. So the
    one-row search's offset is among the near-ties, the offsets whose
    screened score is at least S * (1 - delta) for the row's largest
    screened score S, once delta >= 2 (gamma_{M+4}(u32) + gamma_{M+1}(u64)).
    delta = 4 (M + 4) eps32 + 16 (M + 2) eps64 is at least twice that
    (u = eps / 2). A row with one near-tie has found its offset. Any other
    row runs ``_best_offset`` on the span from its first near-tie to its
    last, which holds every near-tie and so keeps ties on the smallest offset.

    ``_best_offset`` searches the whole of a row that has a negative or
    non-finite entry or one past float32's largest value, or whose S lies
    outside [(M + 1) tiny32 / delta * max(inv_norm, 1), max32]. Inside,
    every near-tie's score is at least half the lower end. Rounding an entry
    of d to a float32 subnormal, and each product or score that underflows,
    loses at most tiny32 * u32 of it (an entry's loss is scaled by
    r_m * inv_norm_p <= 1), so together at most 4 u32 delta of it,
    relatively. No product, cross or score overflowed, since every term is
    >= 0 and a window with inv_norm = 0 is all zero. A row scaled into
    float32's subnormal range has S <= ||d||, below the lower end. Every row
    is searched by ``_best_offset`` alone if ``screen`` is None, in a stack
    of one (the screen costs more there) and in a stack whose rows alone
    exceed ``SCREEN_MADDS``.
    """
    t, m = d.shape
    p_count = inv_norm.size
    if screen is None or t == 1 or t * m > SCREEN_MADDS:
        return [_best_offset(window_dots, inv_norm, row) for row in d]
    dots32, inv32 = screen
    delta = 4 * (m + 4) * float(F32.eps) + 16 * (m + 2) * float_info.epsilon
    least = (m + 1) * float(F32.tiny) / delta * max(inv_norm.max(), 1.0)
    product = SCREEN_MADDS // (t * m)  # offsets per matrix product
    windows = np.lib.stride_tricks.sliding_window_view(dots32, m)
    rows = np.arange(t)
    scores = np.empty((t, p_count), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):  # rows that fall back below
        d32 = d.astype(np.float32)
        for j in range(0, p_count, product):
            np.matmul(d32, windows[j : j + product].T, out=scores[:, j : j + product])
        scores *= inv32
        args = scores.argmax(axis=1)
        top = scores[rows, args]
        scores[rows, args] = -1.0
        second = scores.max(axis=1)
        scores[rows, args] = top
    top = top.astype(float)
    near = top * (1.0 - delta)  # in float64, which every float32 score compares with exactly
    screened = ((d >= 0.0) & (d <= F32.max)).all(axis=1) & (least <= top) & (top <= F32.max)
    positions = args.tolist()
    for i in np.flatnonzero(~screened | (second >= near)):
        lo, hi = 0, p_count
        if screened[i]:  # only the span from its first near-tie to its last
            ties = np.flatnonzero(scores[i] >= near[i])
            lo, hi = int(ties[0]), int(ties[-1]) + 1
        positions[i] = lo + _best_offset(window_dots[lo : hi + m - 1], inv_norm[lo:hi], d[i])
    return positions


def search_position(profile: TransmissivityProfile, d: np.ndarray, template: np.ndarray):
    """Offset minimizing min_{c>=0} ||c * A_p template - d||^2 over all
    feasible p, for each row of the (T, M) stack d, as a list.

    The template's scale does not matter. Every offset is scored at once
    through sliding correlations (the fit at p needs only the window sums
    r[p+m] = sum_n a[p+m+n] t_n), O(L*M) rather than O(L*M*N).
    The template terms are computed once per call, and ``_best_offsets``
    screens stacks of max(1, ``SCREEN_FLOATS`` // P) rows for P feasible
    offsets: each offset is ``_best_offset``'s bit for bit, and ties break
    toward the smallest offset. The rows may hold any float; the template
    must be one that ``Signal`` accepts (non-empty, finite, >= 0), or a
    ValueError is raised, as it is for d of any shape but (T, M) with M >= 1.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[1] == 0:
        raise ValueError(f"expected a (T, M) stack of series with M >= 1, got shape {d.shape}")
    terms = _template_terms(profile.values, Signal(template).values, d.shape[1])
    screen = _single_precision(*terms)
    stack = max(1, SCREEN_FLOATS // terms[1].size)
    positions = []
    for start in range(0, len(d), stack):
        positions += _best_offsets(*terms, screen, d[start : start + stack])
    return positions


def solve_signal(profile: TransmissivityProfile, d: np.ndarray, p, n_signal: int):
    """Non-negative beam shapes argmin_{s>=0} ||A_p s - d||^2 of the (T, M)
    stack d at its (T,) offsets p: ``nnls``'s ``(x, converged)``."""
    return nnls(build_coding_matrix(profile, p, d.shape[1], n_signal), d)


def recover(profile: TransmissivityProfile, counts, template: Signal) -> RecoveryBatch:
    """``recover_batch`` of one series ``counts`` (M,): its one-row record."""
    return recover_batch(profile, np.asarray(counts)[None], template)


def recover_batch(profile: TransmissivityProfile, counts, template: Signal) -> RecoveryBatch:
    """Search each position with the template, then solve the shape there,
    for every row of ``counts``, a (T, M) stack of series as measured.

    Returns the stack's ``RecoveryBatch``. Each row's fit is that of its
    unit-peak counts d (``normalize``): the position is ``search_position``
    with ``template.values``, and the shape is the ``nnls`` solution s >= 0
    there, held as s / sum(s) and sum(s), or as a zero signal and scale
    where s is zero. Row i is that of ``counts[i : i + 1]`` alone, bit for
    bit, where its status is ok. A (0, M) stack gives an empty record. The
    flat rows are left out; the others are placed by one ``search_position``
    call, and their shapes come from one stacked ``nnls`` call per stack of
    coding matrices that holds at most ``SOLVE_DOUBLES`` doubles (one row if
    a row alone holds more). A row with a non-finite or negative count
    raises the ValueError of ``ScanSeries``, which names the row, and
    ``counts`` of any shape but (T, M) with M >= 1 raises a ValueError.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1] == 0:
        raise ValueError(f"expected a (T, M) stack of series with M >= 1, got shape {counts.shape}")
    t, n = len(counts), len(template)
    d, flat = normalize(ScanSeries(counts)) if t else (counts, np.zeros(0, dtype=bool))
    batch = RecoveryBatch(
        np.zeros(t, dtype=int), np.zeros((t, n)), np.zeros(t), np.zeros(t),
        np.where(flat, "flat", "ok").astype("U6"),  # room for "failed"
    )
    fitted = np.flatnonzero(~flat)
    batch.position[fitted] = search_position(profile, d, template.values)
    rows = max(1, SOLVE_DOUBLES // (d.shape[1] * n))
    for start in range(0, len(d), rows):
        _recover_stack(profile, d[start : start + rows], batch, fitted[start : start + rows])
    return batch


def _recover_stack(profile, d, batch, rows) -> None:
    """Fill rows ``rows`` of ``batch``, whose positions are set, from their
    unit-peak counts d: one ``nnls`` call."""
    stack = build_coding_matrix(profile, batch.position[rows], d.shape[1], batch.signal.shape[1])
    x, converged = nnls(stack, d)
    # Each shape as its sum and its unit-sum shape, and every residual of
    # scale * signal in one stacked product and one row sum.
    scales = x.sum(axis=1)
    shapes = x / np.where(scales > 0.0, scales, 1.0)[:, None]  # a zero shape stays zero
    fits = stack @ (scales[:, None] * shapes)[..., None]
    batch.signal[rows], batch.scale[rows] = shapes, scales
    batch.residual[rows] = ((fits[..., 0] - d) ** 2).sum(axis=1)
    batch.status[rows[~converged]] = "failed"
