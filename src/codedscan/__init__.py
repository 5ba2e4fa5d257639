"""Coded-aperture scan simulation and signal recovery toolkit."""

from .aperture import (
    ApertureGeometry,
    OpticalContext,
    TransmissivityProfile,
    build_profile,
    gold_path_length,
)
from .codes import Pattern, SubsequenceStats, generate_de_bruijn, verify_uniqueness, window_stats
from .config import ExperimentConfig
from .forward import (
    ScanSeries,
    Signal,
    build_coding_matrix,
    make_boxcar_signal,
    make_gaussian_signal,
    simulate,
    trial_rng,
)
from .metrics import (
    CellResult,
    SuccessCriteria,
    SweepCell,
    SweepResult,
    TrialOutcome,
    msp,
    patterning_correlations,
    run_sweep,
    scan_point_count,
    score,
)
from .nnls import NumericalFailureError, nnls
from .recovery import (
    FlatSeriesError,
    RecoveryResult,
    normalize,
    recover,
    recover_batch,
    search_position,
    solve_signal,
)

__version__ = "0.1.0"

__all__ = [
    "ApertureGeometry",
    "CellResult",
    "ExperimentConfig",
    "FlatSeriesError",
    "NumericalFailureError",
    "OpticalContext",
    "Pattern",
    "RecoveryResult",
    "ScanSeries",
    "Signal",
    "SubsequenceStats",
    "SuccessCriteria",
    "SweepCell",
    "SweepResult",
    "TransmissivityProfile",
    "TrialOutcome",
    "build_coding_matrix",
    "build_profile",
    "generate_de_bruijn",
    "gold_path_length",
    "make_boxcar_signal",
    "make_gaussian_signal",
    "msp",
    "nnls",
    "normalize",
    "patterning_correlations",
    "recover",
    "recover_batch",
    "run_sweep",
    "scan_point_count",
    "score",
    "search_position",
    "simulate",
    "solve_signal",
    "trial_rng",
    "verify_uniqueness",
    "window_stats",
    "__version__",
]
