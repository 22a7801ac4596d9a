import re
import tracemalloc
import warnings

import numpy as np
import pytest

from tseval import (
    METHODS,
    DGPSpec,
    EmbeddedDataset,
    EmptyTrainingSetError,
    Iteration,
    LassoModel,
    LearnerSpec,
    ResamplingPlan,
    TimeSeries,
    build_plan,
    embed,
    fit,
    fit_lasso_folds,
    kkt_violation,
    lambda_max,
    predict,
    run_plan,
)
from tseval.synthetic import simulate


def test_spec_validation():
    with pytest.raises(ValueError):
        LearnerSpec(kind="forest")
    with pytest.raises(ValueError):
        LearnerSpec(lam=-0.1)
    with pytest.raises(ValueError):
        LearnerSpec(k=0)
    with pytest.raises(ValueError):
        LearnerSpec(tol=0.0)


def test_exact_line_recovered():
    x = np.arange(10.0).reshape(-1, 1)
    model = fit(LearnerSpec(lam=0.0, tol=1e-12), x, 2.0 * x.ravel() + 1.0)
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-8)
    assert model.intercept == pytest.approx(1.0, abs=1e-8)


def test_lambda_max_shuts_every_coefficient_off():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 4))
    y = X @ np.array([1.0, 2.0, -1.0, 0.5]) + rng.normal(size=40)
    lam = lambda_max(X, y)
    model = fit(LearnerSpec(lam=lam * (1 + 1e-10)), X, y)
    assert np.all(model.coefficients == 0.0)
    assert model.intercept == pytest.approx(y.mean())


def test_matches_least_squares_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        X = rng.normal(size=(50, 5))
        y = X @ rng.normal(size=5) + 2.0 + 0.3 * rng.normal(size=50)
        model = fit(LearnerSpec(lam=0.0, tol=1e-10, max_iter=5000), X, y)
        ref, *_ = np.linalg.lstsq(np.column_stack([np.ones(50), X]), y, rcond=None)
        assert model.intercept == pytest.approx(ref[0], abs=1e-6)
        assert model.coefficients == pytest.approx(ref[1:], abs=1e-6)


def test_kkt_residual_within_contract():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = rng.normal(size=(60, 8))
        y = X @ rng.normal(size=8) + rng.normal(size=60)
        lam = float(0.4 * lambda_max(X, y) * rng.random())
        spec = LearnerSpec(lam=lam, tol=1e-8, max_iter=5000)
        model = fit(spec, X, y)
        assert kkt_violation(model, X, y) <= 10.0 * spec.tol
    # strongly correlated columns (corr(x_i, x_j) = rho^|i-j|, as for the lags
    # of an AR(1) series): coefficients leave the active set on the way down
    # the path, and some re-enter with the opposite sign
    for rho in np.repeat([0.9, 0.95, 0.99], 4):
        C = rho ** np.abs(np.subtract.outer(np.arange(12), np.arange(12)))
        X = rng.normal(size=(40, 12)) @ np.linalg.cholesky(C).T
        y = X @ rng.normal(size=12) + rng.normal(size=40)
        for fraction in (0.1, 0.01, 1e-3, 1e-4, 0.0):
            spec = LearnerSpec(lam=fraction * lambda_max(X, y), tol=1e-8)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                model = fit(spec, X, y)
            assert kkt_violation(model, X, y) <= 10.0 * spec.tol


def test_drift_walk_lags_converge():
    # lags of a random walk with drift correlate to ~0.999996 (Gram condition
    # number ~5e5); the default fit must still meet its KKT contract
    steps = 2.0 + np.random.default_rng(1).normal(size=560)
    ds = embed(TimeSeries(50.0 + np.cumsum(steps)), 2)
    spec = LearnerSpec()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(spec, ds.predictors, ds.targets)
    assert kkt_violation(model, ds.predictors, ds.targets) <= 10.0 * spec.tol


def test_zero_penalty_with_duplicated_column_matches_least_squares():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 3))
    X = np.column_stack([X, X[:, 1]])
    y = X[:, :3] @ np.array([1.0, -2.0, 0.5]) + 3.0 + 0.1 * rng.normal(size=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(LearnerSpec(lam=0.0, tol=1e-10), X, y)
    design = np.column_stack([np.ones(40), X])
    ref, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert predict(model, X) == pytest.approx(design @ ref, abs=1e-8)


def test_default_penalty_is_lambda_max_fraction():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.0, -2.0, 0.0]) + rng.normal(size=30)
    model = fit(LearnerSpec(), X, y)
    assert model.lam == pytest.approx(0.01 * lambda_max(X, y), rel=1e-9)


def test_intercept_only_cases():
    # all-constant predictors and single-row training both degrade gracefully
    X = np.full((5, 3), 2.0)
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    model = fit(LearnerSpec(), X, y)
    assert np.all(model.coefficients == 0.0)
    assert predict(model, X) == pytest.approx(np.full(5, 3.0))
    one = fit(LearnerSpec(), np.array([[1.0, 2.0]]), np.array([4.0]))
    assert predict(one, np.array([[9.0, 9.0]])) == pytest.approx([4.0])


def test_constant_column_gets_zero_coefficient():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    X[:, 1] = 7.0
    y = 3.0 * X[:, 0] - 1.0 * X[:, 2] + rng.normal(size=40) * 0.01
    model = fit(LearnerSpec(lam=0.0, tol=1e-10), X, y)
    assert model.coefficients[1] == 0.0


def test_prediction_invariant_to_affine_rescaling_at_zero_penalty():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 4))
    y = X @ rng.normal(size=4) + rng.normal(size=50)
    Xq = rng.normal(size=(8, 4))
    base = predict(fit(LearnerSpec(lam=0.0, tol=1e-11, max_iter=8000), X, y), Xq)
    scale = np.array([3.0, 0.5, 10.0, 1.0])
    shift = np.array([-2.0, 5.0, 0.0, 100.0])
    rescaled = predict(
        fit(LearnerSpec(lam=0.0, tol=1e-11, max_iter=8000), X * scale + shift, y),
        Xq * scale + shift,
    )
    assert rescaled == pytest.approx(base, abs=1e-6)


def test_fit_and_predict_deterministic():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    a = fit(LearnerSpec(), X, y)
    b = fit(LearnerSpec(), X, y)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.intercept == b.intercept


def test_errors():
    with pytest.raises(ValueError, match="empty"):
        fit(LearnerSpec(), np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="finite"):
        fit(LearnerSpec(), np.array([[np.nan, 1.0]]), np.array([1.0]))
    model = fit(LearnerSpec(lam=0.0), np.arange(10.0).reshape(-1, 1), np.arange(10.0))
    with pytest.raises(ValueError, match="predictors"):
        predict(model, np.ones((2, 3)))


def test_knn_mean_of_everything_when_k_is_n():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    model = fit(LearnerSpec(kind="knn", k=12), X, y)
    assert predict(model, rng.normal(size=(4, 3))) == pytest.approx(np.full(4, y.mean()))


def test_knn_one_neighbour_reproduces_training_targets():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 2))  # continuous draws: no duplicate rows
    y = rng.normal(size=20)
    model = fit(LearnerSpec(kind="knn", k=1), X, y)
    assert predict(model, X) == pytest.approx(y)


def test_knn_ties_take_lowest_index():
    X = np.array([[0.0], [2.0], [-2.0]])
    y = np.array([1.0, 10.0, 20.0])
    model = fit(LearnerSpec(kind="knn", k=2), X, y)
    # query at 0: rows 1 and 2 are equidistant; row 1 (lower index) joins row 0
    assert predict(model, np.array([[0.0]]))[0] == pytest.approx((1.0 + 10.0) / 2)


def test_knn_needs_k_rows():
    with pytest.raises(ValueError, match="k=5"):
        fit(LearnerSpec(kind="knn", k=5), np.ones((3, 2)), np.ones(3))


# --- the stacked lasso of run_plan against a per-fold fit/predict loop ---


def _walk(rng, t):
    return 50.0 + np.cumsum(2.0 + rng.normal(size=t))


def _shift(rng, t):
    noise = rng.normal(size=t)
    y = np.zeros(t)
    for i in range(1, t):
        y[i] = 0.6 * y[i - 1] + noise[i]
    return 10.0 + y + np.where(np.arange(t) >= t // 2, 5.0, 0.0)


def _trend(rng, t):
    i = np.arange(t)
    return 10.0 + 0.01 * i + 3.0 * np.sin(2.0 * np.pi * i / 12.0 + 1.0) + rng.normal(size=t)


def _dgp(kind):
    return lambda rng, t: simulate(DGPSpec(kind=kind, length=t), rng).values


SERIES = {"walk": _walk, "shift": _shift, "trend": _trend,
          "s1": _dgp("s1"), "s2": _dgp("s2"), "s3": _dgp("s3")}


def per_fold_losses(plan, ds, spec):
    """The estimate and fold RMSEs from one fit/predict per iteration."""
    errors = [
        predict(fit(spec, ds.predictors[it.train], ds.targets[it.train]), ds.predictors[it.test])
        - ds.targets[it.test]
        for it in plan.iterations
    ]
    folds = np.array([np.sqrt(np.mean(e**2)) for e in errors])
    if plan.method in ("Preq-Grow", "Preq-Slide"):
        return np.sqrt(np.mean(np.concatenate(errors) ** 2)), folds
    return folds.mean(), folds


def _plans(ds, p):
    plans = []
    for method in METHODS:
        try:
            plans.append(build_plan(method, ds.n, p=p, seed=3))
        except EmptyTrainingSetError:
            assert method == "CV-Mod" and p == 30  # removal leaves no rows at K=10
    return plans


@pytest.mark.parametrize("p", [1, 2, 5, 30])
@pytest.mark.parametrize("kind", sorted(SERIES))
def test_run_plan_lasso_matches_per_fold_fits(kind, p):
    values = SERIES[kind](np.random.default_rng([p, len(kind)]), 200 if p < 30 else 400)
    ds = embed(TimeSeries(values), p)
    spec = LearnerSpec()
    for plan in _plans(ds, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_plan(plan, ds, spec)
        estimate, folds = per_fold_losses(plan, ds, spec)
        assert got.estimate == pytest.approx(estimate, rel=1e-9), plan.method
        # a one-row fold's loss can be ~0, so its error is scaled by the estimate
        assert got.fold_losses == pytest.approx(folds, rel=1e-9, abs=1e-9 * estimate)


def _fold_models(spec, ds, plan):
    """Each fitted fold as a LassoModel, with its penalty and scaling
    recomputed from the fold's own rows."""
    trains = [it.train for it in plan.iterations]
    folds = fit_lasso_folds(spec, ds.predictors, ds.targets, trains)
    models = []
    for i in np.flatnonzero(folds.fitted):
        X, y = ds.predictors[trains[i]], ds.targets[trains[i]]
        scales = X.std(axis=0)
        lam = 0.01 * lambda_max(X, y) if spec.lam is None else spec.lam
        model = LassoModel(X.shape[1], folds.coefficients[i], float(folds.intercepts[i]),
                           folds.coefficients[i] * scales, X.mean(axis=0), scales, lam)
        models.append((model, X, y))
    return folds, models


@pytest.mark.parametrize("kind", ["walk", "shift", "trend", "s3"])
def test_stacked_folds_meet_their_kkt_conditions(kind):
    ds = embed(TimeSeries(SERIES[kind](np.random.default_rng(9), 300)), 5)
    spec = LearnerSpec()
    for plan in _plans(ds, 5):
        folds, models = _fold_models(spec, ds, plan)
        assert folds.fitted.all()
        for model, X, y in models:
            assert kkt_violation(model, X, y) <= 10.0 * spec.tol


def test_shift_series_needs_more_than_one_path_run():
    # the level shift changes the sign pattern along the plan, so the first
    # path run's candidate certifies only part of the folds
    ds = embed(TimeSeries(_shift(np.random.default_rng(1), 800)), 5)
    plan = build_plan("Preq-Grow", ds.n)
    folds, models = _fold_models(LearnerSpec(), ds, plan)
    assert 1 < folds.path_runs < len(plan.iterations)
    assert len(models) == len(plan.iterations)
    for model, X, y in models:
        assert kkt_violation(model, X, y) <= 1e-5


def test_nearly_constant_column_falls_back_to_fit():
    # a flat stretch makes both lag columns constant on the third
    # Preq-Sld-Bls training block: that fold goes through fit, which zeroes
    # the constant columns exactly
    values = np.random.default_rng(3).normal(size=200)
    values[40:60] = 1.5
    ds = embed(TimeSeries(values), 2)
    plan = build_plan("Preq-Sld-Bls", ds.n)
    trains = [it.train for it in plan.iterations]
    folds = fit_lasso_folds(LearnerSpec(), ds.predictors, ds.targets, trains)
    assert np.flatnonzero(~folds.fitted).tolist() == [2]
    assert np.isnan(folds.coefficients[2]).all()
    got = run_plan(plan, ds, LearnerSpec())
    estimate, losses = per_fold_losses(plan, ds, LearnerSpec())
    assert got.estimate == pytest.approx(estimate, rel=1e-9)
    assert got.fold_losses == pytest.approx(losses, rel=1e-9)


def test_single_row_fold_falls_back_to_fit():
    ds = embed(TimeSeries(np.random.default_rng(4).normal(size=30)), 2)
    trains = [np.array([0]), np.arange(10)]
    folds = fit_lasso_folds(LearnerSpec(), ds.predictors, ds.targets, trains)
    assert folds.fitted.tolist() == [False, True]


def test_zero_penalty_on_a_line_predicts_exactly():
    # every lag of a line is an exact affine function of the others, so the
    # path keeps one of them, and the others' gradients must vanish at lam=0
    ds = embed(TimeSeries(np.arange(60.0)), 3)
    spec = LearnerSpec(lam=0.0, tol=1e-12)
    for plan in _plans(ds, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_plan(plan, ds, spec)
        assert got.estimate == pytest.approx(0.0, abs=1e-9)
        assert np.max(got.fold_losses) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("equal_rows_first", [True, False])
def test_collinear_candidate_columns_leave_the_fold_to_the_path(equal_rows_first):
    # small integers keep the dataset means exact and equal; the two columns
    # are equal on one fold and independent on the other, whose two-column
    # active set is the candidate. With the equal rows first their prefix
    # sums agree bit for bit and the candidate's system is exactly singular;
    # with them second it is singular only up to rounding, and the solution
    # it gives (~1e12 coefficients) would pass the sign and gradient tests
    rng = np.random.default_rng(6)
    free = rng.integers(-5, 6, size=50).astype(float)
    equal = rng.integers(-5, 6, size=50).astype(float)
    parts = [np.column_stack([equal, equal]), np.column_stack([free, free[::-1]])]
    X = np.vstack(parts if equal_rows_first else parts[::-1])
    y = X[:, 0] - X[:, 1] + rng.normal(size=100)
    halves = [np.arange(50), np.arange(50, 100)]
    trains = halves[::-1] if equal_rows_first else halves
    spec = LearnerSpec()
    folds = fit_lasso_folds(spec, X, y, trains)
    assert folds.fitted.all() and folds.path_runs == 2
    for i, train in enumerate(trains):
        model = fit(spec, X[train], y[train])
        assert X[train] @ folds.coefficients[i] + folds.intercepts[i] == pytest.approx(
            predict(model, X[train]), rel=1e-9
        )


# --- the batched k-NN of run_plan against a per-fold fit/predict loop ---


def whole_row_knn_predict(model, X):
    """k-NN predict from one m x n x p difference tensor and a stable sort of
    every whole row of distances."""
    diff = X[:, None, :] - model.predictors[None, :, :]
    dist = np.einsum("mnp,mnp->mn", diff, diff)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, : model.k]
    return model.targets[nearest].mean(axis=1)


def per_fold_knn(plan, ds, spec):
    """run_plan's estimate and fold losses, from one fit and whole-row
    predict per fold and the same aggregation, so equal outputs mean equal
    predictions."""
    X, y = ds.predictors, ds.targets
    predictions = np.concatenate([
        whole_row_knn_predict(fit(spec, X[it.train], y[it.train]), X[it.test])
        for it in plan.iterations
    ])
    tests = np.concatenate([it.test for it in plan.iterations])
    bounds = np.cumsum([0] + [it.test.size for it in plan.iterations])
    squares = (predictions - y[tests]) ** 2
    folds = np.sqrt([squares[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])])
    if plan.method in ("Preq-Grow", "Preq-Slide"):
        return float(np.sqrt(sum(squares.tolist()) / squares.size)), tuple(folds.tolist())
    return float(np.mean(folds)), tuple(folds.tolist())


def assert_knn_plans_exact(ds, k):
    spec = LearnerSpec(kind="knn", k=k)
    for plan in _plans(ds, ds.p):
        got = run_plan(plan, ds, spec)
        estimate, folds = per_fold_knn(plan, ds, spec)
        assert got.estimate == estimate, plan.method
        assert got.fold_losses == folds, plan.method


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("p", [1, 2, 5, 30])
@pytest.mark.parametrize("kind", ["walk", "trend", "s1", "s2", "s3"])
def test_run_plan_knn_equals_per_fold_fits(kind, p, k):
    values = SERIES[kind](np.random.default_rng([p, k, len(kind)]), 200 if p < 30 else 400)
    assert_knn_plans_exact(embed(TimeSeries(values), p), k)


def _tied_at_kth(ds, k):
    """Whether some row's k-th and (k+1)-th nearest other rows are equally far."""
    D = ds.knn_distances.copy()
    np.fill_diagonal(D, np.inf)
    ordered = np.sort(D, axis=1)
    return bool(np.any(ordered[:, k - 1] == ordered[:, k]))


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("p", [1, 2])
def test_run_plan_knn_ties_at_the_kth_neighbour(p, k):
    # one decimal of normal draws puts many rows equally far apart
    ds = embed(TimeSeries(np.round(np.random.default_rng(12).normal(size=200), 1)), p)
    assert _tied_at_kth(ds, k)
    assert ds.knn_mask == np.inf
    assert_knn_plans_exact(ds, k)


@pytest.mark.parametrize("k", [1, 5])
def test_run_plan_knn_duplicated_rows(k):
    pattern = np.random.default_rng(13).normal(size=17)
    ds = embed(TimeSeries(np.tile(pattern, 12)), 3)
    assert len(np.unique(ds.predictors, axis=0)) < ds.n
    assert_knn_plans_exact(ds, k)


@pytest.mark.parametrize("scale", [1e154, 1e160])
@pytest.mark.parametrize("p", [2, 5])
def test_run_plan_knn_overflowed_distances(p, scale):
    # squared distances of predictors near 1e160 overflow to inf, and every
    # row's neighbours are then its lowest-indexed training rows; targets of
    # order 1 keep the losses finite, so they tell the neighbours apart
    rng = np.random.default_rng(14)
    n = 180
    ds = EmbeddedDataset(scale * rng.normal(size=(n, p)), rng.normal(size=n), np.arange(n), p)
    with np.errstate(over="ignore"):
        assert np.isinf(ds.knn_distances).any()
        assert np.isnan(ds.knn_mask)
        for k in (1, 5):
            assert_knn_plans_exact(ds, k)


@pytest.mark.parametrize("values", ["normal", "rounded", "huge"])
def test_knn_predict_equals_whole_row_sort(values):
    # 300 rows against 1000 span three row chunks of predict
    rng = np.random.default_rng(17)
    X = rng.normal(size=(1300, 5))
    if values == "rounded":
        X = np.round(X)
    elif values == "huge":
        X *= 1e154
    model = fit(LearnerSpec(kind="knn"), X[:1000], rng.normal(size=1000))
    with np.errstate(over="ignore"):
        assert predict(model, X[1000:]).tobytes() == whole_row_knn_predict(
            model, X[1000:]).tobytes()


def test_run_plan_knn_refuses_a_training_set_smaller_than_k():
    ds = embed(TimeSeries(np.random.default_rng(15).normal(size=40)), 2)
    spec = LearnerSpec(kind="knn", k=5)
    trains = [np.arange(10), np.arange(3), np.arange(4)]
    plan = ResamplingPlan("Preq-Bls", ds.n, tuple(
        Iteration(train, np.arange(20 + 5 * i, 25 + 5 * i)) for i, train in enumerate(trains)
    ))
    with pytest.raises(ValueError) as expected:
        for it in plan.iterations:
            fit(spec, ds.predictors[it.train], ds.targets[it.train])
    assert "got 3" in str(expected.value)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        run_plan(plan, ds, spec)


def test_knn_predict_memory_is_bounded():
    rng = np.random.default_rng(16)
    model = fit(LearnerSpec(kind="knn"), rng.normal(size=(2000, 30)), rng.normal(size=2000))
    X = rng.normal(size=(1000, 30))
    tracemalloc.start()
    try:
        predict(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # the whole 1000 x 2000 x 30 difference is 480 MB
