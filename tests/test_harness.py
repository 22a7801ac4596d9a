import logging
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tseval import (
    METHODS,
    EstimationResult,
    ExperimentConfig,
    LearnerSpec,
    TimeSeries,
    build_plan,
    compare_to_baseline,
    derive_seed,
    embed,
    estimation_validation_split,
    read_results_csv,
    results_to_csv,
    run_experiment,
    run_plan,
    write_csv,
)
from tseval import evaluation
from tseval.harness import RESULTS_HEADER, rank_table_csv, results_rank_table


def synthetic_study(dgp, trials, base_seed):
    """The synthetic study as ``tseval benchmark`` runs it: five lags."""
    return run_experiment(
        ExperimentConfig(dgp=dgp, trials=trials, base_seed=base_seed, embedding=5)
    )


@pytest.fixture()
def small_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "series.csv"
    write_csv(TimeSeries(np.cumsum(rng.normal(size=120)) + 50.0, name="series"), path)
    return path


def test_single_series_single_method_gives_one_row(small_csv):
    config = ExperimentConfig(
        csv_paths=(str(small_csv),), embedding=3, methods=("Holdout",), base_seed=5
    )
    outcome = run_experiment(config)
    assert len(outcome.results) == 1
    r = outcome.results[0]
    assert (r.problem_id, r.method) == ("series", "Holdout")
    assert r.apae == abs(r.pae)
    assert outcome.failures == ()


def test_run_experiment_deterministic(small_csv, tmp_path):
    config = ExperimentConfig(csv_paths=(str(small_csv),), embedding=3, base_seed=9)
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.results == b.results
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    results_to_csv(a.results, pa)
    results_to_csv(b.results, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_method_failure_is_isolated(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "tiny.csv"
    write_csv(TimeSeries(rng.normal(size=20), name="tiny"), path)
    config = ExperimentConfig(
        csv_paths=(str(path),),
        embedding=2,
        learner=LearnerSpec(kind="knn", k=5),
        methods=("Holdout", "Preq-Bls"),
        K=10,
        base_seed=1,
    )
    outcome = run_experiment(config)
    assert [r.method for r in outcome.results] == ["Holdout"]
    assert [f[1] for f in outcome.failures] == ["Preq-Bls"]
    # the surviving row is identical to a run without the failing method
    alone = run_experiment(
        ExperimentConfig(
            csv_paths=(str(path),),
            embedding=2,
            learner=LearnerSpec(kind="knn", k=5),
            methods=("Holdout",),
            K=10,
            base_seed=1,
        )
    )
    assert alone.results == (outcome.results[0],)


EMPTY_CV_MOD = ("CV-Mod: empty training set in iteration 0 "
                "(removal radius 30 covers every training row)")


@pytest.mark.parametrize("learner, failed", [
    (LearnerSpec(), {"CV-Mod": EMPTY_CV_MOD}),
    (LearnerSpec(kind="knn"), {"CV-Mod": EMPTY_CV_MOD}),
    # the first block of each blocked prequential plan trains on 25 rows, and
    # its k-NN fallback refuses them
    (LearnerSpec(kind="knn", k=40), {
        **{m: "knn with k=40 needs at least 40 training rows, got 25"
           for m in ("Preq-Bls", "Preq-Sld-Bls", "Preq-Bls-Gap")},
        "CV-Mod": EMPTY_CV_MOD}),
])
def test_a_problem_s_plans_fail_alone_and_the_rest_score_as_alone(
        learner, failed, tmp_path, caplog):
    # at p = 30, CV-Mod's removal leaves no training rows; the plans that run
    # share their lasso stack, yet each scores as it does on its own
    series = TimeSeries(50.0 + np.cumsum(np.random.default_rng(3).normal(size=400)), name="walk")
    path = tmp_path / "walk.csv"
    write_csv(series, path)
    config = ExperimentConfig(csv_paths=(str(path),), embedding=30, learner=learner, base_seed=4)
    caplog.set_level(logging.WARNING, logger="tseval")
    outcome = run_experiment(config)
    assert [(m, reason) for _, m, reason in outcome.failures] == list(failed.items())
    assert caplog.messages == [f"{m} on walk failed: {reason}" for m, reason in failed.items()]
    assert [r.method for r in outcome.results] == [m for m in METHODS if m not in failed]
    dataset = embed(estimation_validation_split(series, config.estimation_fraction)[0], 30)
    for r in outcome.results:
        plan = build_plan(r.method, dataset.n, p=30, seed=derive_seed(4, "walk", r.method))
        [alone] = run_plan([plan], dataset, learner)
        assert r.estimate == alone.estimate, r.method


def test_a_failed_shared_lasso_fit_fails_every_method_of_its_problem(small_csv, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(evaluation, "fit_lasso_folds", singular)
    outcome = run_experiment(ExperimentConfig(csv_paths=(str(small_csv),), embedding=3))
    assert outcome.results == ()
    assert outcome.failures == tuple(("series", m, "Singular matrix") for m in METHODS)


def brute_knn(train_X, train_y, test_X, k=5):
    """Mean target of the k nearest training rows, ties to the lowest index;
    squared distances add one squared coordinate difference at a time."""
    dist = np.zeros((test_X.shape[0], train_X.shape[0]))
    for j in range(train_X.shape[1]):
        dist += (test_X[:, None, j] - train_X[None, :, j]) ** 2
    return train_y[np.argsort(dist, axis=1, kind="stable")[:, :k]].mean(axis=1)


def brute_knn_losses(values, p):
    """k-NN's true loss and its Holdout and Preq-Bls estimates at the study
    defaults, brute force: a 70% estimation part, Holdout training on the
    first 70% of its rows, and ten prequential blocks."""

    def lagged(v):
        return sliding_window_view(v, p)[: v.size - p], v[p:]

    def rmse(pred, actual):
        return float(np.sqrt(np.mean((pred - actual) ** 2)))

    n_est = math.floor(0.7 * values.size)
    X, y = lagged(values)
    train = np.arange(p, values.size) < n_est
    losses = {"true_loss": rmse(brute_knn(X[train], y[train], X[~train]), y[~train])}
    X, y = lagged(values[:n_est])
    cut = math.floor(0.7 * y.size)
    losses["Holdout"] = rmse(brute_knn(X[:cut], y[:cut], X[cut:]), y[cut:])
    b = np.arange(11) * (y.size // 10) + np.minimum(np.arange(11), y.size % 10)
    losses["Preq-Bls"] = float(np.mean([
        rmse(brute_knn(X[:lo], y[:lo], X[lo:hi]), y[lo:hi]) for lo, hi in zip(b[1:-1], b[2:])
    ]))
    return losses


@pytest.mark.parametrize("seed", range(1, 9))
def test_knn_losses_equal_a_brute_force_coordinate_loop(seed, tmp_path):
    # one decimal at p = 5 makes distances that tie in exact arithmetic, so
    # the order in which a distance adds its squares decides the neighbours
    values = np.round(np.cumsum(np.random.default_rng(seed).normal(size=400)), 1)
    path = tmp_path / "walk.csv"
    write_csv(TimeSeries(values, name="walk"), path)
    outcome = run_experiment(ExperimentConfig(
        csv_paths=(str(path),), embedding=5, learner=LearnerSpec(kind="knn"),
        methods=("Holdout", "Preq-Bls"),
    ))
    want = brute_knn_losses(values, 5)
    assert outcome.failures == () and len(outcome.results) == 2
    for r in outcome.results:
        assert (r.estimate, r.true_loss) == (want[r.method], want["true_loss"]), r.method


def test_derive_seed_is_frozen_and_method_independent():
    assert derive_seed(1, "s1-0000", "CV") == 1667506398421370364
    assert derive_seed(1, "s1-0000", "CV-Bl") == 1251862409905038126
    assert derive_seed(2, "s1-0000", "CV") != derive_seed(1, "s1-0000", "CV")


def test_results_csv_round_trip(tmp_path):
    outcome = synthetic_study("s1", trials=2, base_seed=3)
    path = tmp_path / "results.csv"
    results_to_csv(outcome.results, path)
    first_line = path.read_text().splitlines()[0]
    assert first_line == RESULTS_HEADER == "problem_id,method,estimate,true_loss,apae,pae,pct_diff"
    again = read_results_csv(path)
    assert tuple(again) == outcome.results


def test_read_results_takes_the_errors_from_estimate_and_true_loss(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(RESULTS_HEADER + "\np1,CV,0.8,1.0,9,9,9\np2,CV,2.0,0.0,,,\n")
    first, second = read_results_csv(path)
    assert first == EstimationResult("p1", "CV", 0.8, 1.0)
    assert (first.apae, first.pae, first.pct_diff) == pytest.approx((0.2, -0.2, -20.0))
    assert (second.apae, second.pae) == (2.0, 2.0) and math.isnan(second.pct_diff)
    results_to_csv([first, second], path)
    assert path.read_text().splitlines()[1:] == [
        "p1,CV,0.8,1.0,0.19999999999999996,-0.19999999999999996,-19.999999999999996",
        "p2,CV,2.0,0.0,2.0,2.0,nan"]


def test_read_results_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("method,estimate\nCV,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_results_csv(path)


def test_reproduce_synthetic_counts_and_ranks():
    outcome = synthetic_study("s2", trials=2, base_seed=1)
    comparisons = compare_to_baseline(outcome.results)
    assert len(outcome.results) == 22
    table = outcome.rank_table
    assert table.n_problems == 2
    assert len(table.methods) == 11
    assert all(1.0 <= r <= 11.0 for r in table.mean_rank)
    assert {c.method for c in comparisons} == set(table.methods) - {"Rep-Holdout"}
    for c in comparisons:
        o = c.outcome
        assert o.p_left + o.p_rope + o.p_right == pytest.approx(1.0, abs=1e-12)


def test_single_trial_rank_table_is_single_trial_ranks():
    outcome = synthetic_study("s1", trials=1, base_seed=4)
    by_method = {r.method: r.apae for r in outcome.results}
    order = sorted(by_method, key=by_method.get)
    table = outcome.rank_table
    for rank, method in enumerate(order, start=1):
        assert table.mean_rank[table.methods.index(method)] == rank
    assert np.all(table.sd_rank == 0.0)


def read_write_rows():
    return [
        EstimationResult("p1", "A", 1.0, 1.1),
        EstimationResult("p1", "B", 2.0, 1.1),
        EstimationResult("p2", "A", 1.0, 1.2),
        EstimationResult("p2", "B", 2.0, 1.2),
    ]


def test_rank_table_csv():
    table = results_rank_table(read_write_rows(), ["A", "B"])
    assert rank_table_csv(table) == "method,mean_rank,sd_rank\nA,1.0,0.0\nB,2.0,0.0\n"


def test_rank_table_skips_incomplete_problems():
    rows = read_write_rows() + [EstimationResult("p3", "A", 1.0, 1.0)]
    table = results_rank_table(rows, ["A", "B"])
    assert table.n_problems == 2


def test_compare_to_baseline_semantics():
    rows = []
    for pid in range(15):
        truth = 1.0
        rows.append(EstimationResult(f"p{pid}", "base", truth + 0.30, truth))
        rows.append(EstimationResult(f"p{pid}", "better", truth + 0.01, truth))
        rows.append(EstimationResult(f"p{pid}", "same", truth + 0.31, truth))
    comparisons = compare_to_baseline(rows, baseline="base")
    by_method = {c.method: c.outcome for c in comparisons}
    assert by_method["better"].p_left > 0.99  # lower APAE almost surely
    assert by_method["same"].p_rope > 0.99  # within 2.5% of the loss
    with pytest.raises(ValueError, match="baseline"):
        compare_to_baseline(rows, baseline="missing")


def hand_worked_rows():
    """Per problem, method "m" minus "base" in APAE: 0.3 and 6.0 on p1 and p2,
    whose true loss is 10, so 3% and 60% of it; 1.0 on p3, whose true loss is 0."""
    rows = []
    for pid, truth, base, m in (("p1", 10.0, 10.1, 10.4), ("p2", 10.0, 10.0, 16.0),
                                ("p3", 0.0, 1.0, 2.0)):
        rows.append(EstimationResult(pid, "base", base, truth))
        rows.append(EstimationResult(pid, "m", m, truth))
    return rows


def test_compare_to_baseline_without_normalization_reads_raw_differences():
    # raw, 0.3 and 1.0 fall inside [-2.5, 2.5] and 6.0 right of it; with no prior
    # mass, P_right = P(Gamma(1) > Gamma(2)) = (1/2)^2
    [c] = compare_to_baseline(hand_worked_rows(), "base", 2.5, 0.0, "none")
    assert (c.method, c.baseline) == ("m", "base")
    assert c.outcome.counts == (0, 2, 1)
    assert (c.outcome.p_left, c.outcome.p_rope, c.outcome.p_right) == (0.0, 0.75, 0.25)


def test_compare_to_baseline_in_percent_skips_problems_without_loss():
    # p3 has no true loss to divide by; 3% and 60% both lie right of the ROPE
    [c] = compare_to_baseline(hand_worked_rows(), "base", 2.5, 0.0, "loss")
    assert c.outcome.counts == (0, 0, 2)
    assert (c.outcome.p_left, c.outcome.p_rope, c.outcome.p_right) == (0.0, 0.0, 1.0)
    # a method left with no problem is not compared
    assert compare_to_baseline(hand_worked_rows()[4:], "base", normalization="loss") == []
    assert compare_to_baseline(hand_worked_rows()[4:], "base", normalization="none") != []


def test_fnn_fallback_is_logged_once_per_problem(tmp_path, caplog):
    # noise whose sd triples halfway: no dimension up to 3 has few false neighbours
    t = np.arange(800)
    paths = []
    for seed in (1, 2, 3):
        values = 10 + np.random.default_rng(seed).normal(size=800) * np.where(t >= 400, 3, 1)
        paths.append(tmp_path / f"shift{seed}.csv")
        write_csv(TimeSeries(values), paths[-1])
    config = ExperimentConfig(csv_paths=tuple(paths), d_max=3, methods=("Holdout",))
    with caplog.at_level(logging.WARNING, logger="tseval"):
        outcome = run_experiment(config)
    assert not outcome.failures and len(outcome.results) == 3
    assert [r.getMessage() for r in caplog.records] == [
        f"problem shift{seed}: false-neighbour fraction stayed above 0.01 up to d_max=3; "
        "returning d_max"
        for seed in (1, 2, 3)
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dgp="s1", estimation_fraction=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(dgp="s1", methods=("Nope",))
    with pytest.raises(ValueError):
        ExperimentConfig()
    with pytest.raises(ValueError):
        ExperimentConfig(dgp="s1", embedding="five")
