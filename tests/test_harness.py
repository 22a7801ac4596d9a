import numpy as np
import pytest

from tseval import (
    EstimationResult,
    ExperimentConfig,
    LearnerSpec,
    TimeSeries,
    compare_to_baseline,
    derive_seed,
    read_results_csv,
    results_to_csv,
    run_experiment,
    write_csv,
)
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
        assert table.mean_of(method) == rank
    assert np.all(table.sd_rank == 0.0)


def read_write_rows():
    return [
        EstimationResult.from_losses("p1", "A", 1.0, 1.1),
        EstimationResult.from_losses("p1", "B", 2.0, 1.1),
        EstimationResult.from_losses("p2", "A", 1.0, 1.2),
        EstimationResult.from_losses("p2", "B", 2.0, 1.2),
    ]


def test_rank_table_csv():
    table = results_rank_table(read_write_rows(), ["A", "B"])
    assert rank_table_csv(table) == "method,mean_rank,sd_rank\nA,1.0,0.0\nB,2.0,0.0\n"


def test_rank_table_skips_incomplete_problems():
    rows = read_write_rows() + [EstimationResult.from_losses("p3", "A", 1.0, 1.0)]
    table = results_rank_table(rows, ["A", "B"])
    assert table.n_problems == 2


def test_compare_to_baseline_semantics():
    rows = []
    for pid in range(15):
        truth = 1.0
        rows.append(EstimationResult.from_losses(f"p{pid}", "base", truth + 0.30, truth))
        rows.append(EstimationResult.from_losses(f"p{pid}", "better", truth + 0.01, truth))
        rows.append(EstimationResult.from_losses(f"p{pid}", "same", truth + 0.31, truth))
    comparisons = compare_to_baseline(rows, baseline="base")
    by_method = {c.method: c.outcome for c in comparisons}
    assert by_method["better"].p_left > 0.99  # lower APAE almost surely
    assert by_method["same"].p_rope > 0.99  # within 2.5% of the loss
    with pytest.raises(ValueError, match="baseline"):
        compare_to_baseline(rows, baseline="missing")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dgp="s1", estimation_fraction=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(dgp="s1", methods=("Nope",))
    with pytest.raises(ValueError):
        ExperimentConfig()
    with pytest.raises(ValueError):
        ExperimentConfig(dgp="s1", embedding="five")
