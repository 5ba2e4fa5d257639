"""Cell scoring, MSP aggregation, and sweep-harness behaviour."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedscan import (
    CellResult,
    ExperimentConfig,
    RecoveryBatch,
    ScanSeries,
    SweepCell,
    SweepResult,
    build_coding_matrix,
    build_profile,
    generate_de_bruijn,
    make_gaussian_signal,
    normalize,
    patterning_correlations,
    recover,
    run_sweep,
    scan_point_count,
    score,
    simulate,
    window_stats,
)
from codedscan import metrics as metrics_module
from codedscan.aperture import ApertureGeometry, OpticalContext
from codedscan.cli import QUICK_REPLICATES

BIT_UM = 10.0
STEP_UM = 1.0
# Default [criteria]: epsilon 0.02, a one-bit position margin.
CONFIG = ExperimentConfig(bit_size_zero_um=BIT_UM, bit_size_one_um=BIT_UM, grid_step_um=STEP_UM)


def result_at(position, signal):
    """One trial's fit: its offset and its signal, of scale 1 and residual 0."""
    return position, np.asarray(signal, dtype=float)


def batch_of(entries, n=None):
    """The ``recover_batch`` record of ``entries``: each a fit ``result_at``
    gives, or "flat" or "failed" for a row without a fit, held as zeros. Its
    signals have ``n`` cells, or as many as the first fit's."""
    fitted = [not isinstance(entry, str) for entry in entries]
    if n is None:
        n = next(entry[1].size for entry, fit in zip(entries, fitted) if fit)
    fits = [entry if fit else (0, np.zeros(n)) for entry, fit in zip(entries, fitted)]
    return RecoveryBatch(
        np.array([position for position, _ in fits], dtype=int),
        np.array([signal for _, signal in fits]).reshape(len(fits), n),
        np.array(fitted, dtype=float),
        np.zeros(len(fits)),
        np.array([entry if isinstance(entry, str) else "ok" for entry in entries], dtype="<U6"),
    )


def unit_gaussian():
    return make_gaussian_signal(BIT_UM, STEP_UM).unit_sum().values


# ---------------------------------------------------------------- score


def test_score_exact_recovery_is_double_success():
    s = unit_gaussian()
    position, shape = score(batch_of([result_at(40, s)]), ([40], s), CONFIG)
    assert (position.tolist(), shape.tolist()) == ([True], [True])


def test_score_two_bits_off_fails_position():
    s = unit_gaussian()
    position, _ = score(batch_of([result_at(60, s)]), ([40], s), CONFIG)
    assert position.tolist() == [False]


def test_score_margin_is_inclusive():
    s = unit_gaussian()
    # exactly one bit off: |50-40| * 1.0 um == 1.0 * 10.0 um
    position, _ = score(batch_of([result_at(50, s)]), ([40], s), CONFIG)
    assert position.tolist() == [True]


def test_score_five_percent_shape_error_fails_shape_only():
    s = unit_gaussian()
    noisy = s * 1.05
    position, shape = score(batch_of([result_at(40, noisy)]), ([40], s),
                            replace(CONFIG, epsilon=0.02))
    assert (position.tolist(), shape.tolist()) == ([True], [False])


def test_score_shape_success_requires_position_success():
    s = unit_gaussian()
    position, shape = score(batch_of([result_at(80, s)]), ([40], s), CONFIG)
    assert (position.tolist(), shape.tolist()) == ([False], [False])


def test_score_loose_epsilon_admits_shape_error():
    s = unit_gaussian()
    _, shape = score(batch_of([result_at(40, s * 1.05)]), ([40], s),
                     replace(CONFIG, epsilon=0.10))
    assert shape.tolist() == [True]


def test_score_rejects_mismatched_lengths():
    s = unit_gaussian()
    with pytest.raises(ValueError, match="length"):
        score(batch_of([result_at(40, s[:-1])]), ([40], s), CONFIG)


def test_score_rejects_zero_truth():
    s = unit_gaussian()
    with pytest.raises(ValueError, match="zero norm"):
        score(batch_of([result_at(40, s)]), ([40], np.zeros_like(s)), CONFIG)


def test_score_reads_flat_and_unconverged_entries_as_misses():
    s = unit_gaussian()
    entries = [result_at(40, s), "flat", result_at(41, s * 1.05), "failed"]
    position, shape = score(batch_of(entries), ([40] * 4, s), CONFIG)
    assert position.tolist() == [True, False, True, False]
    assert shape.tolist() == [True, False, False, False]


def test_score_rejects_a_true_offset_per_entry_mismatch():
    # zip would drop the unmatched trials, and the cell's MSP with them.
    s = unit_gaussian()
    with pytest.raises(ValueError, match="2 recoveries but 3 true offsets"):
        score(batch_of([result_at(40, s)] * 2), ([40] * 3, s), CONFIG)
    with pytest.raises(ValueError, match="2 recoveries but 1 true offsets"):
        score(batch_of([result_at(40, s)] * 2), ([40], s), CONFIG)


def reference_grade(result, truth, config):
    """(position, shape) success of one trial, as 0/1, by the per-trial
    grading ``score`` applied before it took a cell's entries."""
    if isinstance(result, str):
        return 0, 0
    position, signal = result
    p_star, s_true = truth
    s_true = np.asarray(s_true, dtype=float)
    if signal.size != s_true.size:
        raise ValueError("signal length mismatch")
    denom = float(np.linalg.norm(s_true))
    if denom == 0.0:
        raise ValueError("true signal has zero norm")
    offset_um = abs(position - p_star) * config.grid_step_um
    position_success = int(offset_um <= config.position_margin_bits * config.bit_size_um)
    relative = float(np.linalg.norm(signal - s_true)) / denom
    return position_success, int(position_success == 1 and relative < config.epsilon)


# One trial: its kind, its offset from the truth in grid steps (the margin
# is 10 steps of 1 um at 10 um bits, so +-10 sits on it and +-11 one step
# past), and the factor of its shape error: within a few ulps of +-1, so the
# relative error sits at epsilon, or anywhere in [-2, 2].
TRIAL = st.tuples(
    st.sampled_from(["fit", "fit", "fit", "flat", "failed"]),
    st.sampled_from([-11, -10, -9, 0, 9, 10, 11]),
    st.one_of(
        st.sampled_from([-1.0, 1.0]),
        st.builds(lambda one, ulps: one + ulps * np.spacing(1.0),
                  st.sampled_from([-1.0, 1.0]), st.integers(-4, 4)),
        st.floats(-2.0, 2.0),
    ),
)


@settings(max_examples=150, deadline=None)
@example(trials=[("fit", 10, 1.0), ("fit", 11, 1.0), ("flat", 0, 1.0)], one_hot=True,
         epsilon=0.02, margin_bits=1.0)
@given(trials=st.lists(TRIAL, min_size=1, max_size=12),
       one_hot=st.booleans(),
       epsilon=st.sampled_from([0.02, 0.1, 0.3]),
       margin_bits=st.sampled_from([0.5, 1.0, 1.1]))
def test_score_matches_the_per_trial_reference(trials, one_hot, epsilon, margin_bits):
    # A Gaussian shape is the truth scaled by 1 + epsilon * factor. A one-hot
    # truth (unit norm) gets epsilon * factor added in an empty cell, so its
    # relative error is that product exactly, and can be epsilon itself.
    s = np.eye(10)[4] if one_hot else unit_gaussian()
    config = replace(CONFIG, epsilon=epsilon, position_margin_bits=margin_bits)
    p_star = 40
    entries = []
    for kind, delta, factor in trials:
        if kind in ("flat", "failed"):
            entries.append(kind)
        elif one_hot:
            entries.append(result_at(p_star + delta, s + np.eye(10)[0] * abs(epsilon * factor)))
        else:
            entries.append(result_at(p_star + delta, s * (1.0 + epsilon * factor)))
    position, shape = score(batch_of(entries, s.size), ([p_star] * len(entries), s), config)
    expected = [reference_grade(entry, (p_star, s), config) for entry in entries]
    assert position.dtype == shape.dtype == bool
    assert list(zip(position.tolist(), shape.tolist())) == [
        (bool(p), bool(q)) for p, q in expected]


@st.composite
def graded_cells(draw):
    """A cell's entries against a random unit-sum truth of n cells: fits at
    offsets around the margin with shapes off the truth by noise of random
    size, flat series and failed solves; and an epsilon that is one fit's
    per-trial relative error moved by at most 3 ulps, so that a norm one
    bit off the per-trial one grades that fit differently."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 3, 7, 10, 16, 21, 33]))
    s = rng.random(n) + 0.01
    s /= s.sum()
    entries = []
    for kind in rng.choice(["fit", "fit", "fit", "flat", "failed"], draw(st.integers(1, 40))):
        if kind in ("flat", "failed"):
            entries.append(str(kind))
        else:
            noise = rng.normal(0.0, 10.0 ** rng.uniform(-4.0, -0.5), n)
            entries.append(result_at(40 + int(rng.integers(-12, 13)), s + noise))
    fits = [entry for entry in entries if not isinstance(entry, str)]
    epsilon = 0.02
    if fits:
        pinned = fits[int(rng.integers(0, len(fits)))]
        epsilon = float(np.linalg.norm(pinned[1] - s)) / float(np.linalg.norm(s))
        epsilon = float(epsilon + draw(st.integers(-3, 3)) * np.spacing(epsilon))
    return entries, s, epsilon


@settings(max_examples=200, deadline=None)
@given(graded_cells())
def test_score_grades_each_entry_as_the_per_trial_loop(cell):
    entries, s, epsilon = cell
    config = replace(CONFIG, epsilon=epsilon)
    batch = batch_of(entries, s.size)
    position, shape = score(batch, ([40] * len(entries), s), config)
    expected = [reference_grade(entry, (40, s), config) for entry in entries]
    assert list(zip(position.tolist(), shape.tolist())) == [
        (bool(p), bool(q)) for p, q in expected]
    from codedscan.metrics import _score_cell

    result = _score_cell(SweepCell(0, "bsr", 1.0, 10.0, 10.0, config), generate_de_bruijn(8),
                         position, shape, batch.status)
    assert (result.flat, result.failed_nnls) == (entries.count("flat"), entries.count("failed"))


def test_criteria_validation():
    with pytest.raises(ValueError):
        replace(CONFIG, epsilon=0.0)
    with pytest.raises(ValueError):
        replace(CONFIG, position_margin_bits=-1.0)


# ------------------------------------------------------ cell MSP


@pytest.mark.parametrize("grades, msps", [
    ([(1, 1)] * 8, (100.0, 100.0)),
    ([(1, 0), (0, 0)] * 5, (50.0, 0.0)),
    ([(1, 1), (1, 0), (0, 0), (1, 0)], (75.0, 25.0)),
], ids=["all", "half", "components_independent"])
def test_cell_msp_counts_each_component(grades, msps):
    # A trial hits position at offset 40 and misses at 80 (four bits off);
    # it hits shape with the true signal and misses at 5% scale error.
    from codedscan.metrics import _score_cell

    s = unit_gaussian()
    entries = [result_at(40 if p else 80, s if q else s * 1.05) for p, q in grades]
    cell = SweepCell(0, "bsr", 1.0, 10.0, 10.0, CONFIG)
    batch = batch_of(entries)
    position, shape = score(batch, ([40] * len(entries), s), CONFIG)
    result = _score_cell(cell, generate_de_bruijn(8), position, shape, batch.status)
    assert (result.msp_position, result.msp_shape) == msps
    assert (result.k, result.flat, result.failed_nnls) == (len(entries), 0, 0)


# ----------------------------------------------------- scan_point_count


def test_scan_point_count_endpoints_included():
    assert scan_point_count(8.0, 10.0, 1.0) == 81
    assert scan_point_count(4.0, 10.0, 1.0) == 41
    assert scan_point_count(8.0, 5.0, 1.0) == 41


def test_scan_point_count_rounds_to_grid():
    assert scan_point_count(7.5, 10.0, 1.0) == 76


def test_scan_point_count_rejects_sub_bit_travel():
    with pytest.raises(ValueError):
        scan_point_count(0.5, 10.0, 1.0)
    for bits in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite number of bits"):
            scan_point_count(bits, 10.0, 1.0)


# ---------------------------------------------------- ExperimentConfig


def test_config_validation():
    with pytest.raises(ValueError, match="kind"):
        ExperimentConfig(sweep_kind="frequency")
    with pytest.raises(ValueError, match="template"):
        ExperimentConfig(sweep_kind="bsr", template="sinc")
    with pytest.raises(ValueError, match="replicates"):
        ExperimentConfig(sweep_kind="bsr", replicates=0)
    with pytest.raises(ValueError, match="stride"):
        ExperimentConfig(sweep_kind="bsr", position_stride=0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(sweep_kind="bsr", seed=-1)
    with pytest.raises(ValueError, match="empty"):
        ExperimentConfig(sweep_kind="bsr", noise_levels=())


def test_config_coerces_axis_lists_to_tuples():
    cfg = ExperimentConfig(sweep_kind="bsr", bsr_values=[0.5, 1.0], noise_levels=[10.0])
    assert cfg.bsr_values == (0.5, 1.0)
    assert cfg.noise_levels == (10.0,)


def test_bsr_below_grid_step_rejected():
    cfg = ExperimentConfig(sweep_kind="bsr", bsr_values=(0.05,))
    with pytest.raises(ValueError, match="grid step"):
        run_sweep(cfg)


def test_scan_length_below_one_bit_rejected():
    with pytest.raises(ValueError, match=r"\[sweep\] scan_bits_values: all values must be >= 1"):
        cfg = ExperimentConfig(sweep_kind="scan_length", scan_bits_values=(0.5, 8.0))
        run_sweep(cfg)


def test_aspect_rejects_bad_angles_and_values():
    with pytest.raises(ValueError, match="angle"):
        run_sweep(ExperimentConfig(sweep_kind="aspect", angles_deg=(0.0, 90.0)))
    with pytest.raises(ValueError, match="positive"):
        run_sweep(ExperimentConfig(sweep_kind="aspect", aspect_values=(0.0, 1.0)))


def test_missing_attenuation_entry_is_an_error(monkeypatch):
    # ... and stops the run before any cell, the 10 keV ones included.
    import codedscan.metrics as metrics_module

    monkeypatch.setattr(metrics_module, "_run_cells", None)  # any call would fail
    cfg = ExperimentConfig(sweep_kind="bsr", energies_kev=(10.0, 7.0), bsr_values=(1.0,))
    with pytest.raises(ValueError, match="7 keV"):
        run_sweep(cfg)


def test_mu_override_bypasses_table():
    cfg = ExperimentConfig(sweep_kind="bsr", mu_per_um=0.3, energies_kev=(7.0,), bsr_values=(1.0,),
                      noise_levels=(10.0,), replicates=1, position_stride=64)
    res = run_sweep(cfg)
    assert all(c.cell.config.optics().mu_per_um == 0.3 for c in res.cells)


def test_sweep_result_rejects_out_of_range_msp():
    cell = SweepCell(0, "bsr", 1.0, 10.0, 10.0, ExperimentConfig())
    bad = CellResult(cell, 120.0, 0.0, 4, 25.0, 0, 0)
    with pytest.raises(ValueError, match="MSP"):
        SweepResult("bsr", "bsr", (bad,))


# ------------------------------------------------- harness against oracle


def test_single_cell_msp_matches_manual_recomputation():
    # Re-derive one cell's MSP from the public primitives, mirroring the
    # documented draw: one stream keyed (seed, cell index), replicate-major.
    seed, reps, stride = 99, 2, 16
    cfg = ExperimentConfig(sweep_kind="bsr", seed=seed, replicates=reps, position_stride=stride,
                      bsr_values=(1.0,), energies_kev=(10.0,), noise_levels=(30.0,))
    res = run_sweep(cfg)
    assert len(res.cells) == 1
    cell = res.cells[0]

    pattern = generate_de_bruijn(8)
    geometry = ApertureGeometry(BIT_UM, BIT_UM, 10.0, pattern)
    context = OpticalContext(0.219, 0.0)
    signal = make_gaussian_signal(BIT_UM, STEP_UM)
    s_true = signal.unit_sum().values
    m, n = scan_point_count(8.0, BIT_UM, STEP_UM), len(signal)
    profile = build_profile(geometry, context, STEP_UM).pad_for_scan(m, n)
    starts = range(0, 249, stride)
    p_stars = np.tile([profile.index_of(q * BIT_UM) for q in starts], reps)
    counts = simulate(build_coding_matrix(profile, p_stars, m, n), signal, 30.0, (seed, 0))
    alone = [recover(profile, normalize(ScanSeries(row))[0][0], signal) for row in counts.raw]
    recovered = RecoveryBatch(*(np.concatenate([getattr(one, f.name) for one in alone])
                                for f in fields(RecoveryBatch)))
    assert set(recovered.status) == {"ok"}
    position, shape = score(recovered, (p_stars, s_true), CONFIG)
    hits_p, hits_s, total = int(position.sum()), int(shape.sum()), len(recovered)
    assert cell.k == total
    assert cell.msp_position == pytest.approx(100.0 * hits_p / total, abs=1e-12)
    assert cell.msp_shape == pytest.approx(100.0 * hits_s / total, abs=1e-12)


def test_sweep_builds_each_distinct_profile_once(monkeypatch):
    # Cells differing only in noise level (bsr) or scored window
    # (patterning) share one unpadded profile within a run.
    import codedscan.metrics as metrics_module

    built = []
    real = metrics_module.build_profile

    def counting(*args, **kwargs):
        built.append(args[0].bit_size_zero_um)
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics_module, "build_profile", counting)
    bsr = ExperimentConfig(sweep_kind="bsr", replicates=1, position_stride=64,
                           bsr_values=(0.5, 1.0), energies_kev=(10.0,),
                           noise_levels=(10.0, 100.0))
    assert len(run_sweep(bsr).cells) == 4
    assert sorted(built) == [5.0, 10.0]
    built.clear()
    patterning = ExperimentConfig(sweep_kind="patterning", replicates=1, position_stride=64,
                                  noise_levels=(10.0, 100.0))
    assert len(run_sweep(patterning).cells) == 8
    assert built == [10.0]
    built.clear()
    run_sweep(patterning)  # a new run builds its own
    assert built == [10.0]


def test_sweep_builds_its_pattern_once(monkeypatch):
    # Every cell of a run scans the same pattern order.
    import codedscan.metrics as metrics_module

    orders = []
    real = metrics_module.generate_de_bruijn

    def counting(order):
        orders.append(order)
        return real(order)

    monkeypatch.setattr(metrics_module, "generate_de_bruijn", counting)
    patterning = ExperimentConfig(sweep_kind="patterning", replicates=1, position_stride=64,
                                  noise_levels=(10.0, 100.0))
    assert len(run_sweep(patterning).cells) == 8
    assert orders == [8]


def test_noiseless_opaque_sweep_is_perfect():
    # Exact-recovery invariant carried through the whole harness: with
    # opaque bars and no noise both MSPs saturate for BSR >= 1.
    cfg = ExperimentConfig(sweep_kind="bsr", noise_levels=(math.inf,), mu_per_um=1e9, replicates=1,
                      position_stride=16, bsr_values=(1.0, 2.0), energies_kev=(10.0,))
    res = run_sweep(cfg)
    assert len(res.cells) == 2
    for c in res.cells:
        assert math.isinf(c.cell.noise_level)
        assert c.msp_position == 100.0
        assert c.msp_shape == 100.0
        assert c.failures == 0


def test_flat_series_and_nnls_failures_are_counted_apart(monkeypatch):
    from codedscan import recovery

    # Opaque bars: the 4-bit scans of window 230 see only its five bars
    # (bits 230-234 are all ones), so both count nothing at any noise level.
    cfg = ExperimentConfig(sweep_kind="scan_length", mu_per_um=1e9, seed=7, replicates=2,
                           position_stride=46, scan_bits_values=(4.0,), energies_kev=(10.0,),
                           noise_levels=(10.0, 100.0))
    cells = run_sweep(cfg).cells
    cell = cells[1]
    assert (cell.flat, cell.failed_nnls, cell.failures) == (2, 0, 2)
    real = recovery.nnls
    # The first row of cell 1 in the batch both cells share, counted among
    # the rows that are solved: those of cell 0 that are not flat come first.
    first = cells[0].k - cells[0].flat
    solved = []  # rows of each nnls call so far

    def first_fails(a, b):
        x, converged = real(a, b)
        row = first - sum(solved)
        if 0 <= row < len(b):
            converged[row] = False
        solved.append(len(b))
        return x, converged

    monkeypatch.setattr(recovery, "nnls", first_fails)
    cell = run_sweep(cfg).cells[1]
    assert (cell.flat, cell.failed_nnls, cell.failures) == (2, 1, 3)
    assert cell.msp_position < 100.0


def test_cell_layout_and_stderr():
    cfg = ExperimentConfig(sweep_kind="bsr", seed=3, replicates=2, position_stride=32,
                      bsr_values=(0.5, 1.0), energies_kev=(5.0, 10.0),
                      noise_levels=(10.0, 100.0))
    res = run_sweep(cfg)
    # cells enumerate bsr (outer) x energy x noise (inner)
    assert len(res.cells) == 8
    assert [c.cell.index for c in res.cells] == list(range(8))
    assert [c.cell.param_value for c in res.cells] == [0.5] * 4 + [1.0] * 4
    assert [c.cell.noise_level for c in res.cells] == [10.0, 100.0] * 4
    for c in res.cells:
        assert c.k == 8 * 2  # ceil(249/32) windows x 2 replicates
        assert c.stderr == pytest.approx(100.0 * math.sqrt(0.25 / c.k))
        assert 0.0 <= c.msp_position <= 100.0


def test_monotone_noise_invariant():
    # More photons never hurt beyond Monte-Carlo slack.
    cfg = ExperimentConfig(sweep_kind="bsr", seed=11, replicates=3, position_stride=8,
                      bsr_values=(0.5, 1.0), energies_kev=(10.0,),
                      noise_levels=(10.0, 100.0))
    res = run_sweep(cfg)
    by_key = {}
    for c in res.cells:
        by_key[(c.cell.param_value, c.cell.noise_level)] = c.msp_position
    for bsr in (0.5, 1.0):
        assert by_key[(bsr, 100.0)] >= by_key[(bsr, 10.0)] - 5.0


def test_worker_count_does_not_change_results(monkeypatch):
    import os

    # The 18 cells (9 windows x 2 noise levels) share one config. Two and
    # three workers slice them 9 + 9 and 6 + 6 + 6 on a host of 3 CPUs.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = ExperimentConfig(sweep_kind="patterning", seed=5, replicates=2, position_stride=31,
                           bit_size_zero_um=5.0, bit_size_one_um=5.0,
                           noise_levels=(20.0, 100.0))
    serial = run_sweep(cfg, workers=1)
    assert len(serial.cells) == 18
    for workers in (2, 3):
        assert run_sweep(cfg, workers=workers) == serial


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of each process pool that ``run_slices`` opens,
    on a host of 8 CPUs. The pool runs its slices inline, so no process
    starts."""
    import concurrent.futures
    import os

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    return sizes


def test_pool_holds_one_process_per_slice_at_most(pool_sizes):
    from codedscan.metrics import run_slices

    # Four workers, two one-item slices: two processes, results unchanged.
    assert run_slices(lambda part: [10 * x for x in part], [[1], [2]], 4) == [10, 20]
    assert pool_sizes == [2]


def test_pool_holds_one_process_per_cpu_at_most(pool_sizes, monkeypatch):
    import os

    from codedscan.metrics import run_slices

    # 100,000 workers on 1,500 items, on a host of 8 CPUs: 8 slices of at
    # most 188 items, run by one process per CPU. A host that reports no
    # CPU count runs one slice inline, with no pool.
    seen = []

    def fn(part):
        seen.append(len(part))
        return [10 * x for x in part]

    items = list(range(1500))
    assert run_slices(fn, [items], 100_000) == [10 * x for x in items]
    assert seen == [188] * 7 + [184]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    seen.clear()
    assert run_slices(fn, [items[:3]], 3) == [0, 10, 20]
    assert seen == [3]
    assert pool_sizes == [8]


def count_recover_batch_calls(monkeypatch):
    """(profile length, rows) of each ``recover_batch`` call a sweep makes."""
    import codedscan.metrics as metrics_module

    calls = []
    real = metrics_module.recover_batch

    def counting(profile, rows, *args):
        calls.append((len(profile), len(rows)))
        return real(profile, rows, *args)

    monkeypatch.setattr(metrics_module, "recover_batch", counting)
    return calls


def test_quick_patterning_grid_recovers_in_one_call(monkeypatch):
    # The 126 cells (63 windows x 2 noise levels) share one config, so one
    # profile: the 2,564 cells of the mask with m + n = 81 + 10 open cells
    # on each flank, whichever window a cell scores.
    calls = count_recover_batch_calls(monkeypatch)
    cfg = ExperimentConfig(sweep_kind="patterning", energy_kev=30.0, incidence_angle_deg=20.0,
                           replicates=5, position_stride=4)
    cells = run_sweep(cfg).cells
    assert len(cells) == 126
    assert calls == [(2564 + 2 * 91, sum(c.k for c in cells))]


@pytest.mark.parametrize("kind", ["patterning", "bsr"])
def test_only_cells_that_replace_a_field_copy_the_config(kind):
    # A patterning cell replaces no field, so it keeps the run's config
    # object; a bsr cell gets its own, validated copy.
    import codedscan.metrics as metrics_module

    cfg = ExperimentConfig(sweep_kind=kind, replicates=1, position_stride=31)
    pattern = generate_de_bruijn(cfg.pattern_order)
    name, values, groups, replaced = metrics_module._AXES[kind]
    cells = metrics_module._cells(cfg, name, values(cfg, pattern), groups(cfg), replaced)
    assert len(cells) > 1
    assert all((cell.config is cfg) == (kind == "patterning") for cell in cells)


@pytest.mark.parametrize("cfg, configs", [
    (ExperimentConfig(sweep_kind="patterning", seed=4, replicates=2, position_stride=31,
                      noise_levels=(20.0, 100.0)), 1),
    (ExperimentConfig(sweep_kind="bsr", seed=4, replicates=1, position_stride=16,
                      bsr_values=(0.5, 1.0), energies_kev=(10.0,),
                      noise_levels=(10.0, 100.0)), 2),
])
def test_grouped_cells_equal_each_cell_recovered_alone(monkeypatch, cfg, configs):
    # One recover_batch call per config: every patterning cell shares the
    # run's config, and each bsr config holds one bsr value's two noise
    # levels.
    import codedscan.metrics as metrics_module

    calls = count_recover_batch_calls(monkeypatch)
    grouped = run_sweep(cfg).cells
    assert len(calls) == configs < len(grouped)
    pattern = generate_de_bruijn(cfg.pattern_order)
    assert grouped == tuple(metrics_module._run_cells([c.cell], pattern)[0] for c in grouped)


def test_grouped_draws_equal_each_cell_simulated_alone(monkeypatch):
    # Noise levels 10, inf and 100 alternate cell by cell in the one call:
    # each cell's rows, as recover_batch receives them, are simulate of its
    # own matrix, once per replicate, under its key (seed, cell index), on
    # the profile padded as recover pads it.
    import codedscan.metrics as metrics_module

    calls = []
    real = metrics_module.recover_batch

    def capturing(profile, rows, *args):
        calls.append((profile, np.array(rows)))
        return real(profile, rows, *args)

    monkeypatch.setattr(metrics_module, "recover_batch", capturing)
    cfg = ExperimentConfig(sweep_kind="patterning", seed=6, replicates=3, position_stride=31,
                           noise_levels=(10.0, math.inf, 100.0))
    cells = iter(c.cell for c in run_sweep(cfg).cells)
    assert len(calls) == 1
    signal = make_gaussian_signal(cfg.signal_width_um, cfg.grid_step_um)
    m = scan_point_count(cfg.scan_bits, cfg.bit_size_um, cfg.grid_step_um)
    pattern = generate_de_bruijn(cfg.pattern_order)
    geometry = cfg.geometry(pattern)
    edges = geometry.bit_edges_um()
    padded = build_profile(
        geometry, cfg.optics(), cfg.grid_step_um, cfg.oversample
    ).pad_for_scan(m, len(signal))
    for profile, rows in calls:
        assert profile.values.tobytes() == padded.values.tobytes()
        assert profile.origin_um == padded.origin_um
        for start in range(0, len(rows), cfg.replicates):
            cell = next(cells)
            offset = profile.index_of(edges[cell.window_start])
            matrices = build_coding_matrix(profile, np.full(cfg.replicates, offset), m, len(signal))
            alone = simulate(matrices, signal, cell.noise_level, (cfg.seed, cell.index)).raw
            assert rows[start : start + cfg.replicates].tobytes() == alone.tobytes()
    assert next(cells, None) is None


def config_groups(cfg):
    """The pattern of ``cfg`` and its grid's cells, grouped by config as
    ``run_sweep`` groups them."""
    pattern = generate_de_bruijn(cfg.pattern_order)
    param_name, values, groups, replaced = metrics_module._AXES[cfg.sweep_kind]
    by_config = {}
    for cell in metrics_module._cells(cfg, param_name, values(cfg, pattern), groups(cfg), replaced):
        by_config.setdefault(cell.config, []).append(cell)
    return pattern, list(by_config.values())


def drawing_of(cfg, pattern):
    """The padded profile, true signal and scan length with which
    ``_run_cells`` draws the cells of config ``cfg``."""
    signal = make_gaussian_signal(cfg.signal_width_um, cfg.grid_step_um)
    m = scan_point_count(cfg.scan_bits, cfg.bit_size_um, cfg.grid_step_um)
    profile = build_profile(
        cfg.geometry(pattern), cfg.optics(), cfg.grid_step_um, cfg.oversample
    ).pad_for_scan(m, len(signal))
    return profile, signal, m


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(sweep_kind="patterning", seed=4, replicates=3, position_stride=40,
                     noise_levels=(10.0, 100.0)),
    ExperimentConfig(sweep_kind="bsr", seed=8, replicates=3, position_stride=40,
                     bsr_values=(1.0,), energies_kev=(10.0,),
                     noise_levels=(10.0, math.inf, 100.0)),
])
def test_a_cell_draws_the_same_rows_alone_in_its_group_and_in_any_slice(cfg):
    # Each cell is drawn from its own stream (seed, cell index), with its
    # windows' matrices replicate-major, whichever cells share its group
    # or its slice; two workers draw the group in two processes.
    pattern, (cells,) = config_groups(cfg)
    profile, signal, m = drawing_of(cfg, pattern)
    counts, p_stars = metrics_module._simulate_cells(cells, pattern, profile, signal, m)
    sliced = metrics_module.run_slices(
        metrics_module._simulate_cells, [cells], 2, pattern, profile, signal, m
    )
    assert np.concatenate(sliced[0::2]).tobytes() == counts.tobytes()
    assert np.concatenate(sliced[1::2]).tolist() == p_stars.tolist()
    k = len(counts) // len(cells)
    for i, cell in enumerate(cells):
        alone, alone_stars = metrics_module._simulate_cells([cell], pattern, profile, signal, m)
        assert alone.tobytes() == counts[i * k : (i + 1) * k].tobytes()
        assert alone_stars.tolist() == p_stars[i * k : (i + 1) * k].tolist()
        matrices = build_coding_matrix(profile, alone_stars, m, len(signal))
        drawn = simulate(matrices, signal, cell.noise_level, (cfg.seed, cell.index)).raw
        assert alone.tobytes() == drawn.tobytes()


def test_a_quick_run_draws_the_first_replicates_of_a_full_run():
    # Replicate-major draws: raising replicates only appends rows, so each
    # cell of a --quick run draws the first QUICK_REPLICATES * W rows of
    # the same cell at 30 replicates.
    full = ExperimentConfig(sweep_kind="bsr", seed=12, replicates=30, position_stride=48,
                            bsr_values=(0.5, 1.0), energies_kev=(10.0,),
                            noise_levels=(10.0, math.inf, 100.0))
    pattern, full_groups = config_groups(full)
    _, quick_groups = config_groups(replace(full, replicates=QUICK_REPLICATES))
    assert len(full_groups) == len(quick_groups) == 2
    for full_cells, quick_cells in zip(full_groups, quick_groups):
        profile, signal, m = drawing_of(full_cells[0].config, pattern)
        for full_cell, quick_cell in zip(full_cells, quick_cells, strict=True):
            assert full_cell.index == quick_cell.index
            rows, stars = metrics_module._simulate_cells([full_cell], pattern, profile, signal, m)
            quick, quick_stars = metrics_module._simulate_cells(
                [quick_cell], pattern, profile, signal, m
            )
            assert len(rows) * QUICK_REPLICATES == len(quick) * full.replicates
            assert quick.tobytes() == rows[: len(quick)].tobytes()
            assert quick_stars.tolist() == stars[: len(quick)].tolist()


def test_scan_length_trend_more_bits_help():
    cfg = ExperimentConfig(sweep_kind="scan_length", seed=17, replicates=3, position_stride=12,
                      scan_bits_values=(4.0, 8.0), energies_kev=(10.0,),
                      noise_levels=(10.0,))
    res = run_sweep(cfg)
    by_bits = {c.cell.param_value: c.msp_position for c in res.cells}
    assert by_bits[4.0] < by_bits[8.0] - 20.0
    assert all(c.cell.config.scan_bits == c.cell.param_value for c in res.cells)


def test_aspect_trend_shear_collapse_at_steep_incidence():
    cfg = ExperimentConfig(sweep_kind="aspect", seed=23, replicates=3, position_stride=12,
                      aspect_values=(1.0, 10.0), angles_deg=(40.0,), noise_levels=(10.0,))
    res = run_sweep(cfg)
    by_aspect = {c.cell.param_value: c.msp_position for c in res.cells}
    assert by_aspect[10.0] < by_aspect[1.0] - 20.0
    # thickness follows the aspect axis at fixed 10 um bits
    assert {c.cell.config.thickness_um for c in res.cells} == {10.0, 100.0}


def test_patterning_cells_carry_composition_join():
    cfg = ExperimentConfig(sweep_kind="patterning", seed=2, replicates=1, position_stride=50,
                      noise_levels=(50.0,))
    res = run_sweep(cfg)
    pattern = generate_de_bruijn(8)
    assert [c.cell.window_start for c in res.cells] == [0, 50, 100, 150, 200]
    for c in res.cells:
        stats = window_stats(pattern, c.cell.window_start, 8)
        assert c.zeros_fraction == stats.zeros_fraction
        assert c.bit_flips == stats.bit_flips
        assert c.k == cfg.replicates


def test_non_patterning_cells_have_no_join():
    cfg = ExperimentConfig(sweep_kind="bsr", replicates=1, position_stride=64, bsr_values=(1.0,),
                      energies_kev=(10.0,), noise_levels=(50.0,))
    res = run_sweep(cfg)
    assert res.cells[0].zeros_fraction is None
    assert res.cells[0].bit_flips is None


def make_patterning_result(msps, zeros, flips, noise=10.0):
    cells = []
    for i, (m, z, f) in enumerate(zip(msps, zeros, flips)):
        cell = SweepCell(i, "subseq_start", float(i), 10.0, noise, ExperimentConfig(),
                         window_start=i)
        cells.append(CellResult(cell, m, 0.0, 4, 25.0, 0, 0, z, f))
    return SweepResult("patterning", "subseq_start", tuple(cells))


def test_patterning_correlations_known_rankings():
    # MSP strictly increasing with zeros fraction, strictly decreasing
    # with flips: Spearman +1 and -1 exactly.
    res = make_patterning_result(
        msps=[10.0, 30.0, 50.0, 70.0, 90.0],
        zeros=[0.1, 0.2, 0.4, 0.6, 0.8],
        flips=[7, 5, 4, 2, 1],
    )
    corr = patterning_correlations(res)
    assert corr[10.0][0] == pytest.approx(1.0)
    assert corr[10.0][1] == pytest.approx(-1.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([0.1, 0.25, 1 / 3, 0.5])),
                min_size=2, max_size=40))
def test_patterning_correlations_are_scipy_spearman_on_ties(pairs):
    # Ties share their mean rank, as in scipy.stats.spearmanr, bit for bit.
    from scipy.stats import spearmanr

    msps = [25.0 * m for m, _ in pairs]
    zeros = [z for _, z in pairs]
    flips = [m * m % 3 for m, _ in pairs]
    rho_zeros, rho_flips = patterning_correlations(make_patterning_result(msps, zeros, flips))[10.0]
    for rho, composition in ((rho_zeros, zeros), (rho_flips, flips)):
        if len(set(msps)) > 1 and len(set(composition)) > 1:
            assert rho == float(spearmanr(msps, composition)[0])
        else:
            assert rho is None


def test_patterning_correlations_are_undefined_for_constant_inputs():
    # Equal MSPs (or equal compositions) have no ranks: None, not a warning.
    flat = make_patterning_result([100.0] * 3, [0.1, 0.2, 0.4], [3, 2, 1])
    assert patterning_correlations(flat) == {10.0: (None, None)}
    same_flips = make_patterning_result([10.0, 50.0, 90.0], [0.1, 0.2, 0.4], [2, 2, 2])
    rho_zeros, rho_flips = patterning_correlations(same_flips)[10.0]
    assert rho_zeros == pytest.approx(1.0) and rho_flips is None


def test_patterning_correlations_require_patterning_result():
    cfg = ExperimentConfig(sweep_kind="bsr", replicates=1, position_stride=64, bsr_values=(1.0,),
                      energies_kev=(10.0,), noise_levels=(50.0,))
    with pytest.raises(ValueError, match="patterning"):
        patterning_correlations(run_sweep(cfg))


def test_patterning_correlations_reject_missing_join():
    res = make_patterning_result([10.0, 20.0], [0.1, 0.2], [1, 2])
    broken = SweepResult(
        "patterning", "subseq_start",
        tuple(CellResult(c.cell, c.msp_position, 0.0, c.k, c.stderr, 0, 0) for c in res.cells),
    )
    with pytest.raises(ValueError, match="join"):
        patterning_correlations(broken)


def test_run_sweep_dispatch():
    cfg = ExperimentConfig(sweep_kind="aspect", replicates=1, position_stride=64,
                      aspect_values=(1.0,), angles_deg=(0.0,), noise_levels=(50.0,))
    res = run_sweep(cfg)
    assert res.kind == "aspect"
    assert res.param_name == "aspect"
