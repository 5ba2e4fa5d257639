"""Forward model: scan a coded aperture across a beam and count photons.

A scan of M steps against a transmissivity profile a with offset p is the
matrix product I = A_p s, where A_p[m, n] = a[p + m + n]: every
measurement slides the aperture one grid step further across the fixed
beam footprint s. Counts are Poisson draws around I after rescaling so a
fully open aperture would read ``peak_counts``.
"""

from __future__ import annotations

import math
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
    """Counter-based stream keyed by trial coordinates.

    Streams for distinct entropy tuples are independent, so trials may run
    in any order on any number of workers and still reproduce bit-for-bit.
    Philox keys itself with ``SeedSequence(entropy).generate_state(2,
    uint64)``.
    """
    return np.random.Generator(np.random.Philox([int(e) for e in entropy]))


def simulate(
    matrix: np.ndarray,
    signal: Signal,
    peak_counts: float,
    seed,
    noiseless: bool = False,
) -> ScanSeries:
    """Expected intensities I = A_p s, Poisson-sampled unless noiseless.

    ``matrix`` is A_p from ``build_coding_matrix``. ``peak_counts`` sets
    the expected count at a fully open alignment (sum of the rescaled
    signal); ``math.inf`` skips rescaling and noise, returning raw
    intensities. ``seed`` is an int or tuple of ints keying the per-trial
    counter-based stream: the counts are ``trial_rng(*seed).poisson(I)``.

    A (W, M, N) stack of matrices takes a sequence of T trial keys, T a
    multiple of W, and returns the (T, M) stack of series: the keys split
    evenly over the matrices in order, and row t, drawn from matrix
    t // (T / W) with key t, equals ``simulate`` of that matrix and key.
    The stack is drawn in one pass: the Philox keys of all rows are mixed
    at once (``_philox_keys``), and one Philox, reset to each row's key,
    draws every row.
    """
    total = float(signal.values.sum())
    if total <= 0:
        raise ValueError("signal is identically zero: nothing to detect")
    intensity = matrix @ signal.values
    exact = math.isinf(peak_counts)
    if not exact:
        if peak_counts <= 0:
            raise ValueError("peak_counts must be positive (or inf for raw intensities)")
        intensity = intensity * (peak_counts / total)
    exact = exact or noiseless
    stacked = intensity.ndim == 2
    if not stacked:  # a stack of one
        intensity, seed = intensity[None], [seed]
    keys = [key if isinstance(key, (tuple, list)) else (key,) for key in seed]
    if not keys or len(keys) % len(intensity):
        raise ValueError(f"{len(keys)} trial keys do not split over {len(intensity)} matrices")
    per_matrix = len(keys) // len(intensity)
    if exact:
        counts = np.repeat(intensity, per_matrix, axis=0)
    else:
        philox_keys = _philox_keys(keys)
        bitgen = np.random.Philox(key=philox_keys[0])
        rng = np.random.Generator(bitgen)
        state = bitgen.state  # a fresh stream: counter 0, empty buffer
        counts = np.empty((len(keys), intensity.shape[1]))
        for t, key in enumerate(philox_keys):
            state["state"]["key"] = key
            bitgen.state = state
            counts[t] = rng.poisson(intensity[t // per_matrix])
    return ScanSeries(counts if stacked else counts[0])


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _philox_keys(keys) -> np.ndarray:
    """(T, 2) uint64 Philox key of each trial key, as ``trial_rng`` keys
    its stream: ``SeedSequence(key).generate_state(2, np.uint64)``.

    Each key becomes its uint32 entropy words, each entry least
    significant word first, at least one word per entry. Keys with the
    same number of words are mixed together in uint32 array operations.
    """
    by_length = {}  # words per key -> (rows, their words in one list)
    for t, key in enumerate(keys):
        words = []
        for entry in key:
            entry = int(entry)
            if entry < 0:
                raise ValueError(f"trial key {tuple(key)} holds a negative entry")
            words.append(entry & _MASK32)
            while entry := entry >> 32:
                words.append(entry & _MASK32)
        rows, flat = by_length.setdefault(len(words), ([], []))
        rows.append(t)
        flat += words
    state = np.empty((len(keys), _POOL_SIZE), dtype=np.uint32)
    for length, (rows, flat) in by_length.items():
        state[rows] = _seed_state(np.array(flat, dtype=np.uint32).reshape(len(rows), length))
    # generate_state reads its uint32 words as little-endian uint64 pairs
    return state.astype("<u4", copy=False).view("<u8")


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence`` of each row of the (R, L) uint32 ``entropy``: the
    four uint32 words of ``generate_state(2, np.uint64)``, as (R, 4)."""

    def hasher(const, mult):
        def hashmix(value):
            nonlocal const
            value = value ^ const
            const = const * mult & _MASK32
            value = value * const
            return value ^ value >> 16

        return hashmix

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    rows, length = entropy.shape
    hashmix = hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):  # words past the pool mix into every pool word
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    hashmix = hasher(_INIT_B, _MULT_B)
    return np.stack([hashmix(word) for word in pool], axis=1)
