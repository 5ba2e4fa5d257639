"""Physical transmissivity of a barcode aperture.

Maps an abstract bit pattern to a transmissivity profile on a fine lateral
grid, given bar thickness, the absorber's linear attenuation coefficient,
and the in-plane incidence angle. Angled rays are handled by extruded-2D
shear geometry: a ray entering the mask at lateral coordinate z sweeps the
lateral interval [z, z + t*tan(theta)] while crossing thickness t, so its
path through gold is the bar-covered measure of that interval divided by
sin(theta) (and t times the bar indicator at normal incidence). Bar
coverage is exact interval arithmetic, not ray marching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codes import Pattern

DEFAULT_OVERSAMPLE = 16


@dataclass(frozen=True)
class ApertureGeometry:
    """Bar layout of one aperture: per-bit physical lengths and thickness.

    Lengths are in micrometers. ``bit_size_zero_um``/``bit_size_one_um`` may
    differ (fabricated masks use wider gaps than bars); ``thickness_um`` is
    the extrusion of the bars along the optical axis.
    """

    bit_size_zero_um: float
    bit_size_one_um: float
    thickness_um: float
    pattern: Pattern

    def __post_init__(self):
        for name in ("bit_size_zero_um", "bit_size_one_um", "thickness_um"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")

    def bit_edges_um(self) -> np.ndarray:
        """Start of every bit and the end of the last, from 0: len(pattern) + 1 values."""
        sizes = np.where(self.pattern.bits == 1, self.bit_size_one_um, self.bit_size_zero_um)
        return np.concatenate([[0.0], np.cumsum(sizes)])

    @property
    def length_um(self) -> float:
        return float(self.bit_edges_um()[-1])

    def bar_intervals(self) -> np.ndarray:
        """Merged [start, end) intervals of absorber bars, shape (k, 2)."""
        edges = self.bit_edges_um()
        intervals: list[list[float]] = []
        for bit, lo, hi in zip(self.pattern.bits, edges[:-1], edges[1:]):
            if bit == 1:
                if intervals and intervals[-1][1] == lo:
                    intervals[-1][1] = hi
                else:
                    intervals.append([lo, hi])
        return np.asarray(intervals, dtype=float).reshape(-1, 2)


@dataclass(frozen=True)
class OpticalContext:
    """Beam-side parameters: ``mu_per_um`` (linear attenuation of the
    absorber at the beam energy) and ``incidence_angle_deg`` (angle from the
    surface normal, in the scan plane).
    """

    mu_per_um: float
    incidence_angle_deg: float = 0.0

    def __post_init__(self):
        if self.mu_per_um < 0:
            raise ValueError("mu_per_um must be >= 0")
        if not 0 <= self.incidence_angle_deg < 90:
            raise ValueError("incidence_angle_deg must be in [0, 90)")


@dataclass(frozen=True)
class TransmissivityProfile:
    """Cell-averaged transmissivity on an equidistant lateral grid."""

    values: np.ndarray
    grid_step_um: float
    origin_um: float = 0.0

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("profile values must be a non-empty vector")
        if values.min() < 0 or values.max() > 1 + 1e-12:
            raise ValueError("profile values must lie in [0, 1]")
        if self.grid_step_um <= 0:
            raise ValueError("grid_step_um must be positive")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    def pad_open(self, left_cells: int = 0, right_cells: int = 0) -> "TransmissivityProfile":
        """Extend with fully open cells; regions beyond the mask carry no bars."""
        if left_cells < 0 or right_cells < 0:
            raise ValueError("padding must be non-negative")
        values = np.concatenate(
            [np.ones(left_cells), self.values, np.ones(right_cells)]
        )
        return TransmissivityProfile(
            values, self.grid_step_um, self.origin_um - left_cells * self.grid_step_um
        )

    def extend_open(self, length: int) -> "TransmissivityProfile":
        """Pad open cells on the right until the profile holds ``length`` cells."""
        return self.pad_open(0, length - len(self)) if length > len(self) else self

    def index_of(self, position_um: float) -> int:
        """Grid index of a physical coordinate (rounded to the nearest cell)."""
        return int(round((position_um - self.origin_um) / self.grid_step_um))

    def position_of(self, index: int | np.ndarray):
        return self.origin_um + np.asarray(index) * self.grid_step_um


def _coverage_function(intervals: np.ndarray):
    """Cumulative bar coverage C(z) = measure of bars within (-inf, z]."""
    if intervals.size == 0:
        return lambda z: np.zeros_like(np.asarray(z, dtype=float))
    bounds = intervals.reshape(-1)  # [s0, e0, s1, e1, ...], sorted
    lengths = intervals[:, 1] - intervals[:, 0]
    # cum[j] = coverage strictly before bounds[j]
    cum = np.zeros(bounds.size)
    cum[1::2] = np.cumsum(lengths)
    cum[2::2] = cum[1:-1:2]

    def coverage(z):
        z = np.asarray(z, dtype=float)
        j = np.searchsorted(bounds, z, side="right") - 1
        out = np.zeros_like(z)
        valid = j >= 0
        jv = j[valid]
        base = cum[jv]
        inside = jv % 2 == 0  # between a start and its end
        base = base + np.where(inside, z[valid] - bounds[jv], 0.0)
        out[valid] = base
        return out

    return coverage


def gold_path_length(geometry: ApertureGeometry, entry_z_um, context: OpticalContext):
    """Length of a ray's intersection with the absorber bars, in micrometers.

    ``entry_z_um`` is the lateral coordinate where the ray meets the mask's
    entry face; scalars return scalars, arrays return arrays. Regions beyond
    the physical mask ends count as open.
    """
    theta = math.radians(context.incidence_angle_deg)
    z = np.asarray(entry_z_um, dtype=float)
    intervals = geometry.bar_intervals()
    if theta == 0.0:
        if intervals.size == 0:
            path = np.zeros_like(z)
        else:
            bounds = intervals.reshape(-1)
            j = np.searchsorted(bounds, z, side="right") - 1
            inside = (j >= 0) & (j % 2 == 0)
            path = np.where(inside, geometry.thickness_um, 0.0)
    else:
        coverage = _coverage_function(intervals)
        sweep = geometry.thickness_um * math.tan(theta)
        path = (coverage(z + sweep) - coverage(z)) / math.sin(theta)
    return float(path) if np.isscalar(entry_z_um) else path


def build_profile(
    geometry: ApertureGeometry,
    context: OpticalContext,
    grid_step_um: float,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> TransmissivityProfile:
    """Cell-averaged transmissivity exp(-mu * path) over the mask.

    Each grid cell's value is the mean of ``oversample`` midpoint
    sub-samples of the exact transmissivity. The grid covers the physical
    mask plus the shear margin t*tan(theta) on the entry side, so every ray
    that can clip a bar has a cell; ``origin_um`` records where the first
    cell starts (negative at tilted incidence).
    """
    if grid_step_um <= 0:
        raise ValueError("grid_step_um must be positive")
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    theta = math.radians(context.incidence_angle_deg)
    margin = geometry.thickness_um * math.tan(theta)
    margin_cells = int(math.ceil(margin / grid_step_um - 1e-9))
    body_cells = int(math.ceil(geometry.length_um / grid_step_um - 1e-9))
    origin = -margin_cells * grid_step_um
    n_cells = margin_cells + body_cells

    sub = (np.arange(oversample) + 0.5) * (grid_step_um / oversample)
    starts = origin + np.arange(n_cells) * grid_step_um
    z = (starts[:, None] + sub[None, :]).reshape(-1)
    path = gold_path_length(geometry, z, context)
    transmissivity = np.exp(-context.mu_per_um * path).reshape(n_cells, oversample)
    values = transmissivity.mean(axis=1)
    # guard against rounding just above 1 from the mean
    np.clip(values, 0.0, 1.0, out=values)
    return TransmissivityProfile(values, grid_step_um, origin)
