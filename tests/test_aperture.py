"""Shear-geometry path lengths and transmissivity profiles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedscan.aperture import (
    ApertureGeometry,
    OpticalContext,
    TransmissivityProfile,
    build_profile,
    gold_path_length,
)
from codedscan.codes import Pattern, generate_de_bruijn


def ray_marched_path(geometry, entry_z, theta_deg, samples=200_000):
    """Independent oracle: integrate the bar indicator along the ray."""
    theta = math.radians(theta_deg)
    t = geometry.thickness_um
    depths = (np.arange(samples) + 0.5) * (t / samples)
    lateral = entry_z + depths * math.tan(theta)
    edges = geometry.bit_edges_um()
    inside = np.zeros(samples, dtype=bool)
    for bit, lo, hi in zip(geometry.pattern.bits, edges[:-1], edges[1:]):
        if bit == 1:
            inside |= (lateral >= lo) & (lateral < hi)
    ray_length = t / math.cos(theta)
    return inside.mean() * ray_length


def merged_interval_path(geometry, entry_z, context):
    """Reference: the path over merged [start, end) bar intervals, each run
    of adjacent bars one interval, with a cumulative table of their lengths."""
    edges = geometry.bit_edges_um()
    intervals = []
    for bit, lo, hi in zip(geometry.pattern.bits, edges[:-1], edges[1:]):
        if bit == 1:
            if intervals and intervals[-1][1] == lo:
                intervals[-1][1] = hi
            else:
                intervals.append([lo, hi])
    bounds = np.asarray(intervals, dtype=float).reshape(-1)  # [s0, e0, s1, e1, ...]
    cum = np.zeros(bounds.size)  # coverage strictly before bounds[j]
    cum[1::2] = np.cumsum(bounds[1::2] - bounds[0::2])
    cum[2::2] = cum[1:-1:2]

    def coverage(z):
        j = np.searchsorted(bounds, z, side="right") - 1
        out = np.zeros_like(z)
        valid = j >= 0
        jv = j[valid]
        inside = jv % 2 == 0  # between a start and its end
        out[valid] = cum[jv] + np.where(inside, z[valid] - bounds[jv], 0.0)
        return out

    theta = math.radians(context.incidence_angle_deg)
    z = np.asarray(entry_z, dtype=float)
    if theta == 0.0:
        j = np.searchsorted(bounds, z, side="right") - 1
        path = np.where((j >= 0) & (j % 2 == 0), geometry.thickness_um, 0.0)
    else:
        sweep = geometry.thickness_um * math.tan(theta)
        path = (coverage(z + sweep) - coverage(z)) / math.sin(theta)
    return float(path) if np.isscalar(entry_z) else path


def simple_geometry(bits="01", bit_um=5.0, t_um=10.0):
    return ApertureGeometry(bit_um, bit_um, t_um, Pattern.from_string(bits))


def test_full_overlap_normal_incidence():
    geom = simple_geometry("1", bit_um=50.0, t_um=10.0)
    ctx = OpticalContext(mu_per_um=0.2, incidence_angle_deg=0.0)
    assert gold_path_length(geom, 25.0, ctx) == pytest.approx(10.0)


def test_full_overlap_tilted_equals_t_over_cos():
    # ray staying inside one wide bar sees t/cos(theta) of gold
    geom = simple_geometry("1", bit_um=500.0, t_um=10.0)
    for theta in (10.0, 30.0, 60.0):
        ctx = OpticalContext(mu_per_um=0.2, incidence_angle_deg=theta)
        want = 10.0 / math.cos(math.radians(theta))
        assert gold_path_length(geom, 100.0, ctx) == pytest.approx(want, rel=1e-12)


def test_open_region_normal_incidence_zero():
    geom = simple_geometry("01")
    ctx = OpticalContext(mu_per_um=0.2)
    assert gold_path_length(geom, 2.0, ctx) == 0.0


def test_half_covered_interval_frozen_value():
    # t=10, theta=45: lateral sweep is 10 um; bar [5,10) covers exactly half
    # of the interval [0,10] swept by a ray entering at z=0
    geom = simple_geometry("01", bit_um=5.0, t_um=10.0)
    ctx = OpticalContext(mu_per_um=0.2, incidence_angle_deg=45.0)
    got = gold_path_length(geom, 0.0, ctx)
    assert got == pytest.approx(10.0 / math.sqrt(2.0), rel=1e-12)
    assert got == pytest.approx(7.0711, abs=5e-5)


@pytest.mark.parametrize("entry", [-3.0, 0.0, 2.5, 7.0, 11.0])
@pytest.mark.parametrize("theta", [0.0, 17.0, 45.0, 70.0])
def test_path_matches_ray_marching(entry, theta):
    geom = ApertureGeometry(4.0, 6.0, 8.0, Pattern.from_string("0110101"))
    ctx = OpticalContext(mu_per_um=0.3, incidence_angle_deg=theta)
    got = gold_path_length(geom, entry, ctx)
    want = ray_marched_path(geom, entry, theta)
    assert got == pytest.approx(want, abs=2e-3)


def test_path_beyond_mask_is_open():
    geom = simple_geometry("11")
    ctx = OpticalContext(mu_per_um=0.2, incidence_angle_deg=30.0)
    assert gold_path_length(geom, 1000.0, ctx) == 0.0


@pytest.mark.parametrize("theta", [0.0, 20.0])
def test_pattern_without_bars_is_open(theta):
    geom = simple_geometry("0000", bit_um=10.0)
    ctx = OpticalContext(mu_per_um=0.2, incidence_angle_deg=theta)
    z = np.linspace(-5.0, 45.0, 11)
    np.testing.assert_array_equal(gold_path_length(geom, z, ctx), 0.0)
    assert gold_path_length(geom, 15.0, ctx) == 0.0
    np.testing.assert_array_equal(build_profile(geom, ctx, grid_step_um=1.0).values, 1.0)


def test_path_vectorized_matches_scalars():
    geom = ApertureGeometry(10.0, 10.0, 10.0, generate_de_bruijn(4))
    ctx = OpticalContext(mu_per_um=0.2, incidence_angle_deg=25.0)
    z = np.linspace(-5.0, 160.0, 301)
    vector = gold_path_length(geom, z, ctx)
    scalars = np.array([gold_path_length(geom, float(v), ctx) for v in z])
    np.testing.assert_allclose(vector, scalars, rtol=0, atol=1e-12)


def test_angle_at_or_above_90_rejected():
    with pytest.raises(ValueError):
        OpticalContext(mu_per_um=0.2, incidence_angle_deg=90.0)
    with pytest.raises(ValueError):
        OpticalContext(mu_per_um=0.2, incidence_angle_deg=-1.0)


def test_profile_transparent_material_all_ones():
    geom = simple_geometry("0110", bit_um=10.0)
    ctx = OpticalContext(mu_per_um=0.0)
    profile = build_profile(geom, ctx, grid_step_um=1.0)
    np.testing.assert_array_equal(profile.values, 1.0)


def test_profile_opaque_limit_equals_inverted_bits():
    bits = "0110100"
    geom = simple_geometry(bits, bit_um=10.0)
    ctx = OpticalContext(mu_per_um=1e9)
    profile = build_profile(geom, ctx, grid_step_um=10.0, oversample=1)
    want = 1.0 - np.array([int(b) for b in bits], dtype=float)
    np.testing.assert_allclose(profile.values, want, atol=0)


def test_profile_bar_cell_frozen_value():
    geom = simple_geometry("01", bit_um=10.0, t_um=10.0)
    ctx = OpticalContext(mu_per_um=0.2)
    profile = build_profile(geom, ctx, grid_step_um=1.0)
    # open cells exactly 1 at normal incidence, bar cells exp(-2)
    np.testing.assert_array_equal(profile.values[:10], 1.0)
    np.testing.assert_allclose(profile.values[10:], math.exp(-2.0), rtol=1e-12)
    assert profile.values[10] == pytest.approx(0.13534, abs=5e-6)


def test_profile_monotone_in_thickness_and_mu():
    pattern = generate_de_bruijn(5)
    previous = None
    for t in (1.0, 5.0, 20.0):
        geom = ApertureGeometry(10.0, 10.0, t, pattern)
        ctx = OpticalContext(mu_per_um=0.2, incidence_angle_deg=20.0)
        profile = build_profile(geom, ctx, grid_step_um=1.0)
        # compare at fixed physical coordinates; the margin length varies with t
        body = profile.values[profile.index_of(0.0) :]
        if previous is not None:
            assert (body <= previous + 1e-12).all()
        previous = body
    mu_low = build_profile(
        ApertureGeometry(10.0, 10.0, 10.0, pattern), OpticalContext(0.1, 20.0), 1.0
    ).values
    mu_high = build_profile(
        ApertureGeometry(10.0, 10.0, 10.0, pattern), OpticalContext(0.4, 20.0), 1.0
    ).values
    assert (mu_high <= mu_low + 1e-12).all()


def test_shear_consistency_absorbance_invariant():
    # total absorbance integral, scaled by cos(theta), is angle-independent
    # on interior cells of a periodic pattern; tan(theta)=0.5 keeps every
    # kink of the coverage function on the sub-sample grid, so the midpoint
    # quadrature below is exact and the check is tight
    geom = simple_geometry("01" * 20, bit_um=10.0, t_um=10.0)
    mu = 0.2
    oversample = 64
    h = 1.0 / oversample
    z = 40.0 + (np.arange(int(320 / h)) + 0.5) * h  # interior region [40, 360]

    integrals = []
    for theta in (0.0, math.degrees(math.atan(0.5))):
        ctx = OpticalContext(mu_per_um=mu, incidence_angle_deg=theta)
        path = gold_path_length(geom, z, ctx)
        absorbance = mu * path
        integrals.append(absorbance.sum() * h * math.cos(math.radians(theta)))
    assert integrals[0] == pytest.approx(integrals[1], rel=1e-9)
    assert abs(integrals[0] - integrals[1]) < 1e-6 * integrals[0] + 1e-6


def test_profile_convergence_in_oversample():
    # real-mask-scale geometry: quarter-size bits, tilted, moderately absorbing
    geom = simple_geometry("0110100111" * 4, bit_um=2.5, t_um=10.0)
    ctx = OpticalContext(mu_per_um=0.2, incidence_angle_deg=40.0)
    coarse = build_profile(geom, ctx, 1.0, oversample=32).values
    fine = build_profile(geom, ctx, 1.0, oversample=64).values
    assert np.abs(coarse - fine).max() < 1e-3


def test_profile_covers_shear_margin():
    geom = simple_geometry("10", bit_um=10.0, t_um=10.0)
    ctx = OpticalContext(mu_per_um=0.2, incidence_angle_deg=45.0)
    profile = build_profile(geom, ctx, grid_step_um=1.0)
    assert profile.origin_um == pytest.approx(-10.0)
    assert len(profile) == 30
    # a ray entering just left of the mask still clips the first bar
    assert profile.values[5] < 1.0
    # entering at the far right edge sees only open space
    assert profile.values[-1] > 0.9


def test_profile_validation_and_padding():
    with pytest.raises(ValueError):
        TransmissivityProfile(np.array([0.5, 1.2]), 1.0)
    with pytest.raises(ValueError):
        TransmissivityProfile(np.array([0.5, 0.5]), 0.0)
    profile = TransmissivityProfile(np.array([0.5, 0.25]), 2.0, origin_um=4.0)
    padded = profile.pad_open(1, 2)
    np.testing.assert_array_equal(padded.values, [1.0, 0.5, 0.25, 1.0, 1.0])
    assert padded.origin_um == pytest.approx(2.0)
    assert padded.index_of(4.0) == 1
    assert padded.position_of(1) == pytest.approx(4.0)
    geom = simple_geometry("01")
    with pytest.raises(ValueError):
        build_profile(geom, OpticalContext(0.2), grid_step_um=-1.0)
    with pytest.raises(ValueError):
        build_profile(geom, OpticalContext(0.2), grid_step_um=1.0, oversample=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_physics_is_rejected(bad):
    # NaN fails every comparison, so a rule like `value < 0` lets it through: each
    # bound is tested as a range the value must lie in.
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        TransmissivityProfile(np.array([0.5, bad, 1.0]), 1.0)
    with pytest.raises(ValueError, match="grid_step_um must be finite and positive"):
        TransmissivityProfile(np.array([0.5, 1.0]), bad)
    with pytest.raises(ValueError, match="grid_step_um must be finite and positive"):
        build_profile(simple_geometry("01"), OpticalContext(0.2), grid_step_um=bad)
    with pytest.raises(ValueError, match="mu_per_um must be finite and >= 0"):
        OpticalContext(mu_per_um=bad)
    with pytest.raises(ValueError, match=r"incidence_angle_deg must be in \[0, 90\)"):
        OpticalContext(0.2, incidence_angle_deg=bad)


def test_geometry_validation_and_unequal_bits():
    with pytest.raises(ValueError):
        ApertureGeometry(0.0, 10.0, 10.0, Pattern.from_string("01"))
    geom = ApertureGeometry(15.0, 7.5, 4.6, Pattern.from_string("0101"))
    assert geom.length_um == pytest.approx(45.0)
    # bars [15, 22.5) and [37.5, 45): each bar's edges, and the gap between
    z = np.array([14.999, 15.0, 22.499, 22.5, 37.499, 37.5, 44.999, 45.0])
    want = np.where([0, 1, 1, 0, 0, 1, 1, 0], 4.6, 0.0)
    np.testing.assert_array_equal(gold_path_length(geom, z, OpticalContext(0.2)), want)


def test_adjacent_bars_merge():
    # "0110" at 10 um has bars [10, 20) and [20, 30): a tilted ray across
    # their shared edge sees the path of a ray through one 20 um bar
    # [10, 30), with no seam at 20
    adjacent = simple_geometry("0110", bit_um=10.0)
    one_bar = ApertureGeometry(10.0, 20.0, 10.0, Pattern.from_string("010"))
    for theta in (20.0, 45.0):
        ctx = OpticalContext(mu_per_um=0.2, incidence_angle_deg=theta)
        z = np.linspace(0.0, 35.0, 141)
        np.testing.assert_array_equal(
            gold_path_length(adjacent, z, ctx), gold_path_length(one_bar, z, ctx)
        )
        assert gold_path_length(adjacent, 17.0, ctx) == pytest.approx(
            10.0 / math.cos(math.radians(theta)), rel=1e-12
        )


# Masks whose bit sizes are multiples of 0.25 um, so every edge and every
# cumulative bar length is an exact binary fraction; entry points anywhere
# around the mask, its bit edges included.
@st.composite
def masks_and_rays(draw):
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    zero_um, one_um = (draw(st.integers(1, 80)) * 0.25 for _ in range(2))
    thickness = draw(st.floats(0.01, 100.0))
    geom = ApertureGeometry(zero_um, one_um, thickness, Pattern(np.array(bits)))
    theta = draw(st.one_of(st.just(0.0), st.floats(0.0, 89.0)))
    margin = thickness * math.tan(math.radians(theta)) + 5.0
    ray = st.one_of(
        st.floats(-margin, geom.length_um + 5.0),
        st.sampled_from(geom.bit_edges_um().tolist()),
    )
    vector = draw(st.booleans())
    entry = np.array(draw(st.lists(ray, min_size=1, max_size=40))) if vector else draw(ray)
    return geom, OpticalContext(0.2, theta), entry


@settings(max_examples=300, deadline=None)
@given(masks_and_rays())
def test_path_from_bit_edges_equals_merged_intervals_bit_for_bit(case):
    geom, ctx, entry = case
    got = gold_path_length(geom, entry, ctx)
    want = merged_interval_path(geom, entry, ctx)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
