"""Performance estimation for time-series forecasting models.

Eleven resampling estimators of out-of-sample loss, delay embedding with
false-nearest-neighbour dimension selection, deterministic learners,
synthetic stationary generators, stationarity diagnostics, and a Monte
Carlo harness that scores the estimators against ground-truth losses.
"""

from .embedding import EmbeddedDataset, embed, estimate_embedding_dimension, fnn_fractions
from .evaluation import (
    BayesSignResult,
    EstimationResult,
    LossEstimate,
    RankTable,
    apae,
    average_ranks,
    bayes_sign_test,
    estimate_loss,
    pae,
    pct_diff,
    rmse,
    run_plan,
    true_loss,
)
from .harness import (
    ExperimentConfig,
    ExperimentOutcome,
    MethodComparison,
    compare_to_baseline,
    read_results_csv,
    results_to_csv,
    run_experiment,
)
from .learners import (
    KnnModel,
    LassoModel,
    LearnerSpec,
    fit,
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
    Iteration,
    ResamplingPlan,
    build_plan,
    plan_cv,
    plan_cv_bl,
    plan_cv_hvbl,
    plan_cv_mod,
    plan_holdout,
    plan_preq_bls,
    plan_preq_bls_gap,
    plan_preq_grow,
    plan_preq_sld_bls,
    plan_preq_slide,
    plan_rep_holdout,
)
from .stationarity import (
    KPSS_CRITICAL_5PCT,
    Rejection,
    WaveletTestResult,
    kpss_statistic,
    ndiffs,
    wavelet_stationarity_test,
)
from .synthetic import (
    DGPSpec,
    S3Coefficients,
    default_s3_coefficients,
    derive_seed,
    fit_seasonal_ar,
    monte_carlo,
    positivize,
    reference_deaths_series,
    roots_to_ar_coefficients,
    sample_roots,
    simulate_ar,
    simulate_ma1,
    simulate_s1,
    simulate_s2,
    simulate_s3,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
