import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from test_learners import _fold_models
from tseval import (
    EstimationResult,
    LearnerSpec,
    ResamplingPlan,
    Runs,
    TimeSeries,
    average_ranks,
    bayes_sign_test,
    build_plan,
    embed,
    estimate_losses,
    evaluation,
    fit,
    kkt_violation,
    predict,
    rmse,
    run_plan,
    true_loss,
)


def test_rmse_examples():
    assert rmse([1, 2], [1, 4]) == pytest.approx(math.sqrt(2))
    assert rmse([3, 3, 3], [3, 3, 3]) == 0.0
    assert rmse([0, 0, 0], [1, 2, 2]) == pytest.approx(math.sqrt(3))


def test_rmse_errors():
    with pytest.raises(ValueError):
        rmse([1, 2], [1])
    with pytest.raises(ValueError):
        rmse([], [])


def _errors(estimate, truth):
    r = EstimationResult("p1", "CV", estimate, truth)
    return r.apae, r.pae, r.pct_diff


def test_error_metric_examples():
    assert _errors(0.8, 1.0) == pytest.approx((0.2, -0.2, -20.0))
    assert _errors(1.3, 1.0)[1] == pytest.approx(0.3)
    assert _errors(1.0, 1.0) == (0.0, 0.0, 0.0)


def test_pct_diff_is_nan_without_a_positive_truth():
    for truth in (0.0, -1.0, math.nan):
        assert math.isnan(_errors(1.0, truth)[2])
    assert _errors(1.0, 0.0)[:2] == (1.0, 1.0)  # the absolute errors stay defined


@settings(max_examples=200)
@given(
    st.floats(min_value=0, max_value=1e6),
    st.floats(min_value=1e-9, max_value=1e6),
)
def test_apae_is_absolute_pae(estimate, truth):
    absolute, signed, pct = _errors(estimate, truth)
    assert absolute == abs(signed)
    assert (signed < 0) == (estimate < truth)
    # the results CSV holds these bytes: the same float64 steps as array arithmetic
    e, L = np.float64(estimate), np.float64(truth)
    assert (signed, pct) == (float(e - L), float(100.0 * (e - L) / L))


def test_estimation_result_fields():
    r = EstimationResult("p1", "CV", 0.8, 1.0)
    assert [f.name for f in dataclasses.fields(r)] == [
        "problem_id", "method", "estimate", "true_loss"]
    assert (r.apae, r.pae, r.pct_diff) == pytest.approx((0.2, -0.2, -20.0))
    assert r == EstimationResult("p1", "CV", 0.8, 1.0)


def test_average_ranks_single_problem():
    table = average_ranks([[0.1, 0.3, 0.2]], ["A", "B", "C"])
    assert table.mean_rank.tolist() == [1.0, 3.0, 2.0]
    assert table.sd_rank.tolist() == [0.0, 0.0, 0.0]


def test_average_ranks_full_tie():
    table = average_ranks([[0.5, 0.5, 0.5, 0.5]], list("ABCD"))
    assert table.mean_rank.tolist() == [2.5] * 4


def test_average_ranks_opposite_orderings():
    table = average_ranks([[0.1, 0.2], [0.2, 0.1]], ["A", "B"])
    assert table.mean_rank.tolist() == [1.5, 1.5]


def test_average_ranks_rejects_nan_and_empty():
    with pytest.raises(ValueError):
        average_ranks([[np.nan, 1.0]], ["A", "B"])
    with pytest.raises(ValueError):
        average_ranks(np.empty((0, 2)), ["A", "B"])


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.floats(min_value=0, max_value=100), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
@example([[0.0, 0.0, 0.0, 5e-324]])
def test_average_ranks_invariant_under_monotone_transform(matrix):
    A = np.asarray(matrix)
    methods = list("WXYZ")
    base = average_ranks(A, methods)
    # Relabel each distinct value by its sorted position on unevenly spaced
    # integer levels: strictly increasing and exact in float64, unlike a
    # warp such as expm1(A / 50), which merges 0.0 and 5e-324 by underflow.
    distinct, position = np.unique(A.ravel(), return_inverse=True)
    levels = np.cumsum(np.arange(1.0, distinct.size + 1) ** 2)
    warped = average_ranks(levels[position].reshape(A.shape), methods)
    assert np.allclose(base.mean_rank, warped.mean_rank)


def linear_series(n=40):
    return TimeSeries(np.arange(n, dtype=float))


def test_estimate_loss_zero_on_perfectly_learnable_series():
    ds, spec = embed(linear_series(), 3), LearnerSpec(lam=0.0)
    out = estimate_losses(ds, {"Holdout": None}, spec)["Holdout"]
    assert out.estimate == pytest.approx(0.0, abs=1e-8)
    folds, models = _fold_models(spec, ds, build_plan("Holdout", ds.n, p=3))
    assert folds.fitted.all()
    for model, X, y in models:
        assert kkt_violation(model, X, y) <= 1e-11


def test_estimate_loss_single_iteration_equals_fold_loss():
    out = estimate_losses(
        embed(TimeSeries(np.random.default_rng(0).normal(size=30)), 2),
        {"Holdout": None},
        LearnerSpec(),
    )["Holdout"]
    assert len(out.fold_losses) == 1
    assert out.estimate == out.fold_losses[0]


def knn_two_fold_oracle(values, p, k_folds=2):
    """Hand-run CV-Bl with one-neighbour averaging, plain loops only."""
    rows = [(values[i : i + p], values[i + p]) for i in range(len(values) - p)]
    n = len(rows)
    sizes = [n // k_folds + (1 if i < n % k_folds else 0) for i in range(k_folds)]
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    fold_rmses = []
    for f in range(k_folds):
        test_idx = list(range(bounds[f], bounds[f + 1]))
        train_idx = [i for i in range(n) if i not in test_idx]
        errors = []
        for i in test_idx:
            best_j, best_d = None, None
            for j in train_idx:
                d = sum((a - b) ** 2 for a, b in zip(rows[i][0], rows[j][0]))
                if best_d is None or d < best_d:
                    best_d, best_j = d, j
            errors.append(rows[best_j][1] - rows[i][1])
        fold_rmses.append(math.sqrt(sum(e * e for e in errors) / len(errors)))
    return sum(fold_rmses) / len(fold_rmses), fold_rmses


FIXTURE_13 = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0, 9.0]


def test_two_fold_knn_matches_hand_oracle():
    series = TimeSeries(FIXTURE_13)
    expected, fold_rmses = knn_two_fold_oracle(FIXTURE_13, p=5)
    out = estimate_losses(embed(series, 5), {"CV-Bl": None}, LearnerSpec(kind="knn", k=1),
                          K=2)["CV-Bl"]
    assert len(out.fold_losses) == 2
    assert out.fold_losses == pytest.approx(fold_rmses, abs=1e-12)
    assert out.estimate == pytest.approx(expected, abs=1e-12)


def test_run_plan_pooled_aggregation():
    """A Preq-Grow or Preq-Slide plan pools squared errors; a Preq-Bls plan
    averages its per-block RMSEs."""
    series = TimeSeries(np.random.default_rng(5).normal(size=40))
    ds = embed(series, 3)
    spec = LearnerSpec()
    for method in ("Preq-Grow", "Preq-Slide"):
        [pooled] = run_plan([build_plan(method, ds.n)], ds, spec)
        # one test row per iteration: pooled = sqrt(mean of squares) > mean of abs
        assert pooled.estimate > np.mean(pooled.fold_losses)
        assert pooled.estimate == pytest.approx(
            math.sqrt(np.mean(np.square(pooled.fold_losses)))
        )
    [blocks] = run_plan([build_plan("Preq-Bls", ds.n, K=5)], ds, spec)
    assert blocks.estimate == pytest.approx(np.mean(blocks.fold_losses))
    assert blocks.estimate != pytest.approx(
        math.sqrt(np.mean(np.square(blocks.fold_losses)))
    )


def reversed_runs(runs):
    """The same iterations' runs, last iteration first."""
    spans = [range(a, b) for a, b in zip(runs.start[:-1], runs.start[1:])][::-1]
    order = [i for span in spans for i in span]
    return Runs(runs.lo[order], runs.hi[order], np.cumsum([0] + [len(s) for s in spans]))


def test_estimate_loss_iteration_order_does_not_matter():
    series = TimeSeries(np.random.default_rng(8).normal(size=50))
    ds = embed(series, 3)
    plan = build_plan("CV-Bl", ds.n, K=5)
    reversed_plan = ResamplingPlan(plan.method, plan.n, reversed_runs(plan.train),
                                   reversed_runs(plan.test))
    assert [it.test.tolist() for it in reversed_plan.iterations] == [
        it.test.tolist() for it in plan.iterations[::-1]]
    a, b = run_plan([plan, reversed_plan], ds, LearnerSpec())
    assert a.estimate == pytest.approx(b.estimate)


def test_true_loss_zero_on_perfectly_learnable_series():
    est = linear_series(30)
    val = TimeSeries(np.arange(30.0, 42.0))
    spec = LearnerSpec(lam=0.0)
    assert true_loss(est, val, spec, p=3) == pytest.approx(0.0, abs=1e-8)
    ds = embed(est, 3)  # the rows whose targets lie in the estimation part
    assert kkt_violation(fit(spec, ds.predictors, ds.targets), ds.predictors, ds.targets) <= 1e-11


def test_true_loss_tests_every_validation_point(monkeypatch):
    # trains on the rows whose targets lie in the estimation part, and
    # predicts one row per validation observation, from the p values before it
    est = TimeSeries(np.random.default_rng(1).normal(size=14))
    val = TimeSeries(np.random.default_rng(2).normal(size=6))
    full = np.concatenate([est.values, val.values])
    seen = []
    monkeypatch.setattr(evaluation, "fit", lambda spec, X, y: seen.append(y) or fit(spec, X, y))
    monkeypatch.setattr(evaluation, "predict", lambda model, X: seen.append(X) or predict(model, X))
    true_loss(est, val, LearnerSpec(), p=3)
    trained, predicted = seen
    assert trained.tolist() == est.values[3:].tolist()
    assert predicted.tolist() == [full[t - 3 : t].tolist() for t in range(14, 20)]


def test_true_loss_matches_knn_hand_computation():
    est = TimeSeries(FIXTURE_13[:9])
    val = TimeSeries(FIXTURE_13[9:])
    p = 3
    rows = [(FIXTURE_13[i : i + p], FIXTURE_13[i + p]) for i in range(len(FIXTURE_13) - p)]
    train = [r for i, r in enumerate(rows) if i + p < 9]
    test = [r for i, r in enumerate(rows) if i + p >= 9]
    errors = []
    for x, target in test:
        best = min(
            range(len(train)),
            key=lambda j: sum((a - b) ** 2 for a, b in zip(train[j][0], x)),
        )
        errors.append(train[best][1] - target)
    expected = math.sqrt(sum(e * e for e in errors) / len(errors))
    got = true_loss(est, val, LearnerSpec(kind="knn", k=1), p=p)
    assert got == pytest.approx(expected, abs=1e-12)


def _diffs(n_left, n_rope, n_right):
    return [-5.0] * n_left + [0.0] * n_rope + [5.0] * n_right


def test_bayes_sign_test_symmetry():
    result = bayes_sign_test(_diffs(20, 0, 20))
    assert result.p_left == result.p_right
    assert result.p_left + result.p_rope + result.p_right == pytest.approx(1.0, abs=1e-12)


def test_bayes_sign_test_all_left():
    result = bayes_sign_test([-10.0] * 20)
    assert result.p_left >= 0.99
    assert result.counts == (20, 0, 0)


def test_bayes_sign_test_all_rope():
    result = bayes_sign_test([0.5, -1.0, 2.0] * 7)
    assert result.p_rope >= 0.99


def test_bayes_sign_test_permutation_invariant():
    rng_diffs = np.random.default_rng(4).normal(scale=5.0, size=30)
    assert bayes_sign_test(rng_diffs) == bayes_sign_test(rng_diffs[::-1])


def test_bayes_sign_test_validation():
    with pytest.raises(ValueError):
        bayes_sign_test([])
    for rope in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError):
            bayes_sign_test([1.0], rope=rope)
    for prior in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            bayes_sign_test([1.0], prior_strength=prior)


def test_bayes_sign_test_rope_is_closed_and_symmetric():
    result = bayes_sign_test([-2.6, -2.5, 0.0, 2.5, 2.6, 3.0], rope=2.5)
    assert result.counts == (1, 3, 2)


def _quad_largest(shape, others):
    """P(X_shape > every X_o) for independent unit-scale gammas, by
    quadrature over X_shape's density; a shape-0 gamma is 0."""
    integrate = pytest.importorskip("scipy.integrate")
    special = pytest.importorskip("scipy.special")
    if shape == 0:
        return 0.0

    def integrand(x):
        density = math.exp((shape - 1) * math.log(x) - x - math.lgamma(shape))
        return density * math.prod(special.gammainc(o, x) for o in others if o > 0)

    end = shape + 40 * math.sqrt(shape) + 60
    mode = [shape - 1] if shape > 1 else None
    return integrate.quad(integrand, 0, end, points=mode, epsabs=1e-14, epsrel=1e-13,
                          limit=500)[0]


def _oracle_cases():
    rng = np.random.default_rng(15)
    priors = (0.0, 0.5, 1.0, 2.3)
    for case in range(240):
        total = int(rng.integers(1, 501))
        counts = rng.multinomial(total, rng.dirichlet([1.0, 1.0, 1.0]))
        if case % 5 == 0:  # a zero count: left, rope or right in turn
            counts[case // 5 % 3] = 0
        yield tuple(int(c) for c in counts), priors[case % 4]


def test_bayes_sign_test_matches_quad_oracle():
    cases = [(c, prior) for c, prior in _oracle_cases() if sum(c) > 0]
    assert len(cases) >= 200
    assert all(any(c[i] == 0 for c, _ in cases) for i in range(3))
    assert any(c[1] == 0 and prior == 0.0 for c, prior in cases)  # X_rope is 0
    assert max(sum(c) for c, _ in cases) > 450
    for (n_left, n_rope, n_right), prior in cases:
        rope = n_rope + prior
        result = bayes_sign_test(_diffs(n_left, n_rope, n_right), prior_strength=prior)
        assert result.counts == (n_left, n_rope, n_right)
        expected = (
            _quad_largest(n_left, (rope, n_right)),
            _quad_largest(rope, (n_left, n_right)),
            _quad_largest(n_right, (n_left, rope)),
        )
        got = (result.p_left, result.p_rope, result.p_right)
        assert got == pytest.approx(expected, abs=1e-10, rel=0), (n_left, n_rope, n_right, prior)


def test_bayes_sign_test_prior_zero_without_rope_differences():
    # X_rope is identically 0, so the rope never wins, and the left share is
    # the largest iff Gamma(3) > Gamma(2): 1 - (1/8 + 3/16) = 11/16
    result = bayes_sign_test(_diffs(3, 0, 2), prior_strength=0.0)
    assert (result.p_left, result.p_rope, result.p_right) == pytest.approx(
        (11 / 16, 0.0, 5 / 16), abs=1e-15)
    assert bayes_sign_test(_diffs(4, 0, 0), prior_strength=0.0).p_left == 1.0
    assert bayes_sign_test(_diffs(0, 0, 1), prior_strength=0.0).p_right == 1.0


def test_bayes_sign_test_closed_cases():
    for diffs, prior in ((_diffs(1, 1, 1), 0.0), (_diffs(1, 0, 1), 1.0)):
        result = bayes_sign_test(diffs, prior_strength=prior)
        assert (result.p_left, result.p_rope, result.p_right) == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=1e-15)
    result = bayes_sign_test(_diffs(2, 0, 0), prior_strength=1.0)
    assert (result.p_left, result.p_rope, result.p_right) == pytest.approx(
        (0.75, 0.25, 0.0), abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 300), st.integers(0, 300), st.integers(0, 300),
    st.sampled_from([0.0, 0.5, 1.0, 2.3]),
)
def test_bayes_sign_test_swapping_left_and_right_swaps_the_result(n_left, n_rope, n_right, prior):
    if n_left + n_rope + n_right == 0:
        return
    a = bayes_sign_test(_diffs(n_left, n_rope, n_right), prior_strength=prior)
    b = bayes_sign_test(_diffs(n_right, n_rope, n_left), prior_strength=prior)
    assert (a.p_left, a.p_rope, a.p_right) == (b.p_right, b.p_rope, b.p_left)


@pytest.mark.parametrize(
    "counts, prior", [((20, 5, 3), 1.0), ((55, 1, 54), 0.5), ((3, 2, 4), 1.0), ((10, 0, 12), 2.3)]
)
def test_bayes_sign_test_agrees_with_monte_carlo(counts, prior):
    result = bayes_sign_test(_diffs(*counts), prior_strength=prior)
    draws = np.random.default_rng(sum(counts)).gamma(
        [counts[0], counts[1] + prior, counts[2]], size=(1_000_000, 3))
    sampled = np.bincount(draws.argmax(axis=1), minlength=3) / draws.shape[0]
    exact = np.array([result.p_left, result.p_rope, result.p_right])
    standard_error = np.sqrt(exact * (1.0 - exact) / draws.shape[0])
    assert np.all(np.abs(sampled - exact) <= 5.0 * standard_error + 1e-12)


def test_bayes_sign_test_is_fast_and_bounded_on_many_differences():
    rng = np.random.default_rng(16)
    for diffs in (rng.normal(scale=3.0, size=10_000), rng.normal(scale=30.0, size=10_000),
                  _diffs(5000, 3000, 5000), _diffs(3000, 10, 2990)):
        start = time.perf_counter()
        result = bayes_sign_test(diffs)
        assert time.perf_counter() - start < 0.1
        probs = (result.p_left, result.p_rope, result.p_right)
        assert all(0.0 <= q <= 1.0 for q in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_bayes_sign_test_rounding_rule():
    # without the rule, 1 - P_left - P_right is about -7e-12 here: the sums
    # lose ~1e-11 to rounding at these counts, where the true P_rope is ~0
    result = bayes_sign_test(_diffs(5000, 3000, 5000))
    assert result.p_rope == 0.0
    assert result.p_left == result.p_right == 0.5


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.int64,
        st.tuples(st.integers(min_value=1, max_value=60), st.just(11)),
        elements=st.integers(min_value=0, max_value=3),
    )
)
def test_average_ranks_match_scipy_rankdata(matrix):
    stats = pytest.importorskip("scipy.stats")
    A = matrix.astype(float)
    ranks = stats.rankdata(A, axis=1, method="average")
    table = average_ranks(A, [f"m{i}" for i in range(11)])
    sd = ranks.std(axis=0, ddof=1) if A.shape[0] > 1 else np.zeros(11)
    assert table.mean_rank.tobytes() == ranks.mean(axis=0).tobytes()
    assert table.sd_rank.tobytes() == sd.tobytes()
