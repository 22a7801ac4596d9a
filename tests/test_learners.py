import warnings

import numpy as np
import pytest

from tseval import LearnerSpec, TimeSeries, embed, fit, kkt_violation, lambda_max, predict


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
