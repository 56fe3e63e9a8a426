"""Static conflict prediction: analysis passes over program structure.

Everything in this package runs with **zero trace execution**: the inputs
are a workload's declared affine access patterns (``AffineAccess``), its
program image (the CFG the Havlak analysis recovers loops from), and a
cache geometry.  From those three the passes predict victim sets, rank
loops by expected conflict contribution, and derive padding fixes — an
O(loop-nest) analysis where the dynamic profiler is O(trace).

The pass framework (:mod:`repro.analysis.framework`) follows the
analysis-cache idiom of modern SSA compilers: passes declare dependencies,
the cache runs each at most once per model, and invalidation cascades to
dependents.
"""

from repro.analysis.access import AccessPatternAnalysis, LoopAccessPattern
from repro.analysis.descriptors import AccessDim, AffineAccess, affine2d
from repro.analysis.framework import AnalysisCache, AnalysisPass
from repro.analysis.model import StaticModel
from repro.analysis.padding import StaticPaddingAnalysis
from repro.analysis.prediction import (
    ConflictPredictionAnalysis,
    StaticConflictReport,
    StaticLoopPrediction,
)
from repro.analysis.pressure import (
    SetPressureAnalysis,
    WindowPressure,
    footprint_residues,
    footprint_set_indices,
)
from repro.analysis.screening import (
    SCREEN_CLEAR,
    SCREEN_SUSPECT,
    SCREEN_UNKNOWN,
    LoopScreen,
    ScreeningAnalysis,
    ScreeningReport,
    StreamPlacementAnalysis,
    asymptotic_collision_probability,
    exact_collision_probability,
    screen_workload,
)
from repro.analysis.screenval import (
    ScreenValidationResult,
    screen_cross_validate,
)
from repro.analysis.validation import (
    CrossValidationResult,
    LoopValidation,
    cross_validate,
    default_validation_suite,
)

__all__ = [
    "AccessDim",
    "AccessPatternAnalysis",
    "AffineAccess",
    "AnalysisCache",
    "AnalysisPass",
    "ConflictPredictionAnalysis",
    "CrossValidationResult",
    "LoopAccessPattern",
    "LoopScreen",
    "LoopValidation",
    "SCREEN_CLEAR",
    "SCREEN_SUSPECT",
    "SCREEN_UNKNOWN",
    "ScreenValidationResult",
    "ScreeningAnalysis",
    "ScreeningReport",
    "SetPressureAnalysis",
    "StreamPlacementAnalysis",
    "StaticConflictReport",
    "StaticLoopPrediction",
    "StaticModel",
    "StaticPaddingAnalysis",
    "WindowPressure",
    "affine2d",
    "asymptotic_collision_probability",
    "cross_validate",
    "default_validation_suite",
    "exact_collision_probability",
    "footprint_residues",
    "footprint_set_indices",
    "screen_cross_validate",
    "screen_workload",
]
