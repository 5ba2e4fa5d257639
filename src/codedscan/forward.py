"""Forward model: scan a coded aperture across a beam and count photons.

A scan of M steps against a transmissivity profile a with offset p is the
matrix product I = A_p s, where A_p[m, n] = a[p + m + n]: every
measurement slides the aperture one grid step further across the fixed
beam footprint s. Counts are Poisson draws around I after rescaling so a
fully open aperture would read ``peak_counts``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .aperture import TransmissivityProfile


@dataclass(frozen=True)
class Signal:
    """Non-negative beam footprint sampled on the scan grid."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float, order="C")  # a private copy
        if values.ndim != 1 or values.size == 0:
            raise ValueError("signal must be a non-empty vector")
        if not np.isfinite(values).all():
            raise ValueError("signal values must be finite")
        if values.min() < 0:
            raise ValueError("signal values are intensities and must be >= 0")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    def unit_sum(self) -> "Signal":
        """Same shape, rescaled to sum to 1 (normalized-count units)."""
        total = float(self.values.sum())
        if total <= 0:
            raise ValueError("cannot rescale an all-zero signal")
        return Signal(self.values / total)


@dataclass(frozen=True)
class ScanSeries:
    """Measured counts, one per scan step; a (T, M) stack holds T series.
    A stack's error names its first bad row: ``row i: counts must be finite``."""

    raw: np.ndarray

    def __post_init__(self):
        raw = np.array(self.raw, dtype=float, order="C")  # a private copy
        if raw.ndim not in (1, 2) or raw.size == 0:
            raise ValueError("series must be a non-empty vector or stack of vectors")
        for valid, rule in ((np.isfinite(raw), "finite"), (raw >= 0.0, ">= 0")):
            ok = np.atleast_2d(valid).all(axis=1)
            if not ok.all():
                row = f"row {int(np.argmin(ok))}: " if raw.ndim == 2 else ""
                raise ValueError(f"{row}counts must be {rule}")
        raw.flags.writeable = False
        object.__setattr__(self, "raw", raw)

    def __len__(self) -> int:
        """Scan points per series."""
        return int(self.raw.shape[-1])


def bounded_gaussian(z, width_um: float):
    """Peak-1 Gaussian with sigma = width/4, truncated to |z| <= width/2."""
    z = np.asarray(z, dtype=float)
    sigma = width_um / 4.0
    values = np.exp(-(z**2) / (2.0 * sigma**2))
    return np.where(np.abs(z) <= width_um / 2.0, values, 0.0)


def make_gaussian_signal(width_um: float, grid_step_um: float) -> Signal:
    """Bounded Gaussian footprint sampled at cell centers; N = round(width/step)."""
    if width_um < grid_step_um:
        raise ValueError("signal width must be at least one grid step")
    n = int(round(width_um / grid_step_um))
    centers = (np.arange(n) - (n - 1) / 2.0) * grid_step_um
    return Signal(bounded_gaussian(centers, width_um))


def make_boxcar_signal(width_um: float, grid_step_um: float) -> Signal:
    """Flat footprint of the same support, for template-mismatch studies."""
    if width_um < grid_step_um:
        raise ValueError("signal width must be at least one grid step")
    n = int(round(width_um / grid_step_um))
    return Signal(np.ones(n))


def build_coding_matrix(
    profile: TransmissivityProfile | np.ndarray, p, m: int, n: int
) -> np.ndarray:
    """Read-only M x N Hankel slice at profile index p: entry (i, j) = a[p+i+j].

    An array of T offsets gives the C-contiguous (T, M, N) stack of their
    slices, each holding the same values as its single-offset matrix.
    """
    values = profile.values if isinstance(profile, TransmissivityProfile) else np.asarray(profile, dtype=float)
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be >= 1")
    offsets = np.asarray(p)
    outside = offsets[(offsets < 0) | (offsets + m + n - 1 > values.size)]
    if outside.size:
        q = int(outside[0])
        raise ValueError(
            f"scan window [p={q}, p+M+N-1={q + m + n - 1}] exceeds profile of "
            f"length {values.size}; pad the profile or shrink the scan"
        )
    windows = np.lib.stride_tricks.sliding_window_view(values, n)
    matrix = windows[offsets[..., None] + np.arange(m)]
    matrix.flags.writeable = False
    return matrix


def trial_rng(*entropy: int) -> np.random.Generator:
    """Counter-based stream keyed by ``entropy``, ints >= 0.

    Streams for distinct entropy tuples are independent, so work keyed by
    them may run in any order on any number of workers and still reproduce
    bit-for-bit. Philox keys itself with ``SeedSequence(entropy)
    .generate_state(2, uint64)``. An entry that is not an int, or is
    negative, raises ``ValueError``.
    """
    try:
        key = [operator.index(entry) for entry in entropy]
    except TypeError:
        raise ValueError("key entries must be ints") from None
    if any(entry < 0 for entry in key):
        raise ValueError(f"key {tuple(key)} holds a negative entry")
    return np.random.Generator(np.random.Philox(key))


def simulate(
    matrix: np.ndarray,
    signal: Signal,
    peak_counts: float,
    seed,
    noiseless: bool = False,
) -> ScanSeries:
    """Expected intensities I = A_p s, Poisson-sampled unless noiseless.

    ``matrix`` is A_p from ``build_coding_matrix``; a (T, M, N) stack of
    them gives the (T, M) stack of series. ``peak_counts`` sets the
    expected count at a fully open alignment (sum of the rescaled signal);
    ``math.inf`` skips rescaling and noise, returning raw intensities.
    ``seed`` is an int >= 0, or a tuple of them, that keys one
    counter-based stream: the counts are ``trial_rng(*seed).poisson(I)``,
    a stack's drawn row after row in C order.
    """
    return ScanSeries(_counts(matrix @ signal.values, signal, peak_counts, seed, noiseless))


def _counts(intensity, signal: Signal, peak_counts: float, seed, noiseless: bool = False):
    """Counts of ``simulate`` around raw intensities ``intensity`` = A_p s
    of ``signal``, of any shape: rescaled to ``peak_counts`` and drawn from
    ``trial_rng(*seed)`` in C order."""
    total = float(signal.values.sum())
    if total <= 0:
        raise ValueError("signal is identically zero: nothing to detect")
    if math.isinf(peak_counts):
        return intensity
    if peak_counts <= 0:
        raise ValueError("peak_counts must be positive (or inf for raw intensities)")
    intensity = intensity * (peak_counts / total)
    if noiseless:
        return intensity
    return trial_rng(*(seed if isinstance(seed, tuple) else (seed,))).poisson(intensity)
