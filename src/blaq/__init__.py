"""Loss-aware weight quantization lab.

Quantized training with per-layer scaled fixed-point codes, a baseline
loss-aware update and its backtracking (one-step-forward) variant,
oscillation diagnostics, and numeric convergence checks.
"""

from .autodiff import Graph
from .curvature import CurvatureState, LrSchedule
from .metrics import (TrajectoryRecord, direction_change_count, flip_count,
                      oscillation_amplitude, steps_to_tolerance)
from .optimizers import (BlaqConfig, FullPrecisionState, LayerQuantState,
                         blaq_step, full_precision_step, laq_step)
from .quantizer import QuantGrid, ScaledCode, nearest_level, project
from .theory import (DiagonalQuadratic, TheoryParams, compare_convergence,
                     theorem1_bound, theorem2_region)

__all__ = [
    "Graph", "CurvatureState", "LrSchedule", "TrajectoryRecord",
    "direction_change_count", "flip_count", "oscillation_amplitude",
    "steps_to_tolerance", "BlaqConfig", "FullPrecisionState",
    "LayerQuantState", "blaq_step", "full_precision_step", "laq_step",
    "QuantGrid", "ScaledCode", "nearest_level", "project",
    "DiagonalQuadratic", "TheoryParams", "compare_convergence",
    "theorem1_bound", "theorem2_region",
]

__version__ = "0.1.0"
