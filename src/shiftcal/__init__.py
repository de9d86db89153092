"""Post-hoc classifier calibration under covariate shift.

The pipeline: estimate importance weights from source and target features
with a logistic domain discriminator, flatten them with a learnable power
to trade bias against variance, and search the softmax temperature that
minimizes a control-variate-corrected importance-weighted calibration
error. Synthetic Gaussian-mixture tasks with closed-form density ratios
serve as the ground-truth oracle for everything above.
"""

from .bench import default_grid, run_grid, run_single
from .density_ratio import (
    DomainClassifier,
    estimate_weights,
    train_domain_classifier,
    upsample_balance,
)
from .errors import DegeneracyError
from .metrics import (
    ProbabilitySet,
    ReliabilityBins,
    bin_indices,
    brier,
    ece,
    metric_report,
    nll,
    per_sample_residuals,
    reliability_bins,
    weighted_ece,
)
from .scaling import (
    AffineScaleParam,
    TemperatureParam,
    apply_affine_scaling,
    fit_cpcs_temperature,
    fit_matrix_scaling,
    fit_oracle_temperature,
    fit_temperature_nll,
    fit_vector_scaling,
    softmax_with_temperature,
)
from .synthshift import (
    GeneratedTask,
    ShiftScenario,
    generate,
    label_stream_seed,
    sample_labels,
    true_renyi,
    true_weight,
)
from .transcal import (
    ControlVariateCoefficients,
    EstimatorMode,
    TransCalSolution,
    TransCalState,
    apply_control_variate,
    optimize_transcal,
    renyi_diagnostic,
    serial_control_variate,
    transcal_objective,
)

__version__ = "0.1.0"

__all__ = [
    "AffineScaleParam",
    "ControlVariateCoefficients",
    "DegeneracyError",
    "DomainClassifier",
    "EstimatorMode",
    "GeneratedTask",
    "ProbabilitySet",
    "ReliabilityBins",
    "ShiftScenario",
    "TemperatureParam",
    "TransCalSolution",
    "TransCalState",
    "__version__",
    "apply_affine_scaling",
    "apply_control_variate",
    "bin_indices",
    "brier",
    "default_grid",
    "ece",
    "estimate_weights",
    "fit_cpcs_temperature",
    "fit_matrix_scaling",
    "fit_oracle_temperature",
    "fit_temperature_nll",
    "fit_vector_scaling",
    "generate",
    "label_stream_seed",
    "metric_report",
    "nll",
    "optimize_transcal",
    "per_sample_residuals",
    "reliability_bins",
    "renyi_diagnostic",
    "run_grid",
    "run_single",
    "sample_labels",
    "serial_control_variate",
    "softmax_with_temperature",
    "train_domain_classifier",
    "transcal_objective",
    "true_renyi",
    "true_weight",
    "upsample_balance",
    "weighted_ece",
]
