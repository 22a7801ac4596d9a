"""Performance estimation for time-series forecasting models.

Eleven resampling estimators of out-of-sample loss, delay embedding with
false-nearest-neighbour dimension selection, deterministic learners,
synthetic stationary generators, stationarity diagnostics, and a Monte
Carlo harness that scores the estimators against ground-truth losses.
"""

from types import ModuleType as _ModuleType

from .embedding import EmbeddedDataset, embed, estimate_embedding_dimension, fnn_fractions
from .evaluation import (
    EstimationResult,
    average_ranks,
    bayes_sign_test,
    estimate_losses,
    rmse,
    run_plan,
    true_loss,
)
from .harness import (
    ExperimentConfig,
    compare_to_baseline,
    read_results_csv,
    results_to_csv,
    run_experiment,
)
from .learners import (
    LassoModel,
    LearnerSpec,
    fit,
    fit_lasso_folds,
    kkt_violation,
    lambda_max,
    predict,
)
from .series import (
    TimeSeries,
    difference,
    estimation_validation_split,
    load_csv,
    write_csv,
)
from .splitters import (
    CV_METHODS,
    METHODS,
    OOS_METHODS,
    EmptyTrainingSetError,
    ResamplingPlan,
    Runs,
    build_plan,
)
from .stationarity import (
    KPSS_CRITICAL_5PCT,
    kpss_statistic,
    ndiffs,
    wavelet_stationarity_test,
)
from .synthetic import (
    DGPSpec,
    derive_seed,
    monte_carlo,
    positivize,
    roots_to_ar_coefficients,
    sample_roots,
    simulate,
    simulate_ma1,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
