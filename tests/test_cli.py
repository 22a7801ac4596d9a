import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tseval
from tseval import EstimationResult, TimeSeries, load_csv, write_csv
from tseval.cli import build_parser, main
from tseval.harness import ExperimentConfig, results_to_csv, run_experiment


def run_cli(*args):
    return main(list(args))


def test_simulate_per_trial_csvs(tmp_path):
    out = tmp_path / "sims"
    code = run_cli(
        "simulate", "--dgp", "s1", "--trials", "3", "--seed", "4", "--out-dir", str(out)
    )
    assert code == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["s1-0000.csv", "s1-0001.csv", "s1-0002.csv"]
    series = load_csv(out / "s1-0000.csv")
    assert len(series) == 200
    assert series.values.min() == 1.0


def test_simulate_long_csv(tmp_path):
    long = tmp_path / "long.csv"
    code = run_cli(
        "simulate", "--dgp", "s2", "--trials", "2", "--length", "50",
        "--seed", "1", "--long-csv", str(long),
    )
    assert code == 0
    lines = long.read_text().splitlines()
    assert lines[0] == "trial,t,value"
    assert len(lines) == 1 + 2 * 50
    assert lines[1].startswith("0,0,")


def test_simulate_long_csv_holds_the_per_trial_values(tmp_path):
    long, per_trial = tmp_path / "long.csv", tmp_path / "sims"
    assert run_cli("simulate", "--dgp", "s1", "--trials", "2", "--length", "20",
                   "--seed", "6", "--long-csv", str(long), "--out-dir", str(per_trial)) == 0
    rows = [line.split(",") for line in long.read_text().splitlines()[1:]]
    for trial in (0, 1):
        values = [float(v) for tr, _, v in rows if tr == str(trial)]
        assert values == load_csv(per_trial / f"s1-{trial:04d}.csv").values.tolist()
    assert all(v == repr(float(v)) for _, _, v in rows)


def test_simulate_requires_some_output():
    assert run_cli("simulate", "--dgp", "s1") == 1


@pytest.mark.parametrize("sd", ["nan", "0", "-1", "inf"])
def test_simulate_rejects_a_bad_innovation_sd(tmp_path, caplog, sd):
    out = tmp_path / "o.csv"
    assert run_cli("simulate", "--dgp", "s1", "--innovation-sd", sd, "--long-csv", str(out)) == 1
    assert "innovation_sd must be positive" in caplog.text
    assert not out.exists()


def test_simulate_rejects_an_infinite_root_bound(tmp_path, caplog):
    out = tmp_path / "o.csv"
    assert run_cli("simulate", "--dgp", "s1", "--root-bound", "inf", "--long-csv", str(out)) == 1
    assert "root bound r must exceed 1.1" in caplog.text
    assert not out.exists()


def test_benchmark_writes_results_and_ranks(tmp_path, capsys):
    out = tmp_path / "res.csv"
    ranks = tmp_path / "ranks.csv"
    code = run_cli(
        "benchmark", "--dgp", "s1", "--trials", "2", "--seed", "3",
        "--out", str(out), "--ranks", str(ranks),
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "method,mean_rank,sd_rank" in printed
    assert "p_left" in printed
    assert out.read_text().splitlines()[0] == "problem_id,method,estimate,true_loss,apae,pae,pct_diff"
    assert ranks.read_text().splitlines()[0] == "method,mean_rank,sd_rank"
    assert len(out.read_text().splitlines()) == 1 + 22


def test_benchmark_keeps_its_results_when_the_baseline_failed_everywhere(tmp_path, capsys, caplog):
    # n = 9 rows: Rep-Holdout's windows are infeasible, the K = 10 methods fail,
    # and Holdout, Preq-Grow and Preq-Slide still give a result per problem
    out = tmp_path / "o.csv"
    assert run_cli("benchmark", "--dgp", "s1", "--trials", "2", "--length", "20",
                   "--out", str(out)) == 2
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert sorted({row[1] for row in rows}) == ["Holdout", "Preq-Grow", "Preq-Slide"]
    assert len(rows) == 6
    assert "p_left" not in capsys.readouterr().out
    assert "baseline Rep-Holdout has no results" in caplog.text


def test_evaluate_then_rank_and_compare(tmp_path, capsys):
    rng = np.random.default_rng(2)
    series_path = tmp_path / "s.csv"
    write_csv(TimeSeries(np.cumsum(rng.normal(size=150)) + 40.0, name="s"), series_path)
    out = tmp_path / "results.csv"
    code = run_cli(
        "evaluate", "--csv", str(series_path), "--p", "3",
        "--methods", "Holdout,CV,CV-Bl,Rep-Holdout", "--out", str(out), "--seed", "2",
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 5

    capsys.readouterr()
    assert run_cli("rank", "--results", str(out)) == 0
    ranked = capsys.readouterr().out.splitlines()
    assert ranked[0] == "method,mean_rank,sd_rank"
    assert len(ranked) == 5

    assert run_cli("compare", "--results", str(out), "--baseline", "Rep-Holdout",
                   "--rope", "2.5") == 0
    compared = capsys.readouterr().out.splitlines()
    assert compared[0] == "method,baseline,p_left,p_rope,p_right"
    assert len(compared) == 4


def _two_walks(tmp_path):
    rng = np.random.default_rng(4)
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.csv"
        write_csv(TimeSeries(np.cumsum(rng.normal(size=150)) + 40.0, name=name), path)
        paths += ["--csv", str(path)]
    return paths


def test_every_written_file_has_newline_endings(tmp_path):
    sims = tmp_path / "sims"
    assert run_cli("simulate", "--dgp", "s2", "--trials", "2", "--length", "30",
                   "--out-dir", str(sims), "--long-csv", str(tmp_path / "long.csv")) == 0
    assert run_cli("benchmark", "--dgp", "s1", "--trials", "2",
                   "--out", str(tmp_path / "bench.csv"),
                   "--ranks", str(tmp_path / "bench-ranks.csv")) == 0
    results = tmp_path / "results.csv"
    assert run_cli("evaluate", *_two_walks(tmp_path), "--p", "3", "--out", str(results),
                   "--ranks", str(tmp_path / "ranks.csv")) == 0
    assert run_cli("rank", "--results", str(results), "--out", str(tmp_path / "rank.csv")) == 0
    assert run_cli("compare", "--results", str(results),
                   "--out", str(tmp_path / "compare.csv")) == 0
    assert run_cli("embed", "--csv", str(sims / "s2-0000.csv"), "--p", "2",
                   "--out", str(tmp_path / "rows.csv")) == 0
    written = list(tmp_path.rglob("*.csv"))  # with the inputs a.csv and b.csv
    assert len(written) == 12
    for path in written:
        assert b"\r" not in path.read_bytes(), path.name


def test_rank_stdout_equals_evaluate_ranks_file(tmp_path, capsys):
    results, ranks = tmp_path / "results.csv", tmp_path / "ranks.csv"
    assert run_cli("evaluate", *_two_walks(tmp_path), "--p", "3", "--out", str(results),
                   "--ranks", str(ranks), "--methods", "Holdout,CV,Preq-Bls,Rep-Holdout") == 0
    assert capsys.readouterr().out.encode() == ranks.read_bytes()
    assert run_cli("rank", "--results", str(results)) == 0
    assert capsys.readouterr().out.encode() == ranks.read_bytes()


def test_evaluate_auto_embedding(tmp_path):
    y = np.sin(2 * np.pi * np.arange(400) / 20.0) + 0.05 * np.random.default_rng(0).normal(size=400)
    series_path = tmp_path / "wave.csv"
    write_csv(TimeSeries(y, name="wave"), series_path)
    out = tmp_path / "res.csv"
    code = run_cli(
        "evaluate", "--csv", str(series_path), "--methods", "Holdout",
        "--out", str(out), "--d-max", "6",
    )
    assert code == 0


def test_stationarity_table(tmp_path, capsys):
    rng = np.random.default_rng(0)
    flat = tmp_path / "flat.csv"
    write_csv(TimeSeries(rng.normal(size=300), name="flat"), flat)
    walk = tmp_path / "walk.csv"
    write_csv(TimeSeries(np.cumsum(rng.normal(size=300)), name="walk"), walk)
    code = run_cli("stationarity", "--csv", str(flat), "--csv", str(walk))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,I,S,rejections"
    flat_row = next(l for l in lines if l.startswith("flat,"))
    assert flat_row.split(",")[1] == "0"
    walk_row = next(l for l in lines if l.startswith("walk,"))
    assert walk_row.split(",")[1] == "1"


def test_stationarity_quotes_names_with_commas(tmp_path, capsys):
    path = tmp_path / "a,b.csv"
    write_csv(TimeSeries(np.random.default_rng(0).normal(size=300), name="a,b"), path)
    assert run_cli("stationarity", "--csv", str(path)) == 0
    out = capsys.readouterr().out
    assert list(csv.reader(io.StringIO(out))) == [["name", "I", "S", "rejections"],
                                                  ["a,b", "0", "1", ""]]


def test_stationarity_exits_1_when_no_input_gave_a_row(tmp_path, capsys, caplog):
    assert run_cli("stationarity", "--csv", str(tmp_path / "missing.csv")) == 1
    assert capsys.readouterr().out == "name,I,S,rejections\n"
    assert "missing.csv failed" in caplog.text


def test_stationarity_exits_2_when_some_inputs_failed(tmp_path, capsys):
    path = tmp_path / "s.csv"
    write_csv(TimeSeries(np.random.default_rng(0).normal(size=300), name="s"), path)
    code = run_cli("stationarity", "--csv", str(path), "--csv", str(tmp_path / "missing.csv"))
    assert code == 2
    assert capsys.readouterr().out.splitlines()[1:] == ["s,0,1,"]


@pytest.mark.parametrize("flags", [("--max-d", "3"), ("--alpha", "0.7"), ("--alpha", "0")])
def test_stationarity_rejects_bad_flag_values(tmp_path, capsys, flags):
    path = tmp_path / "s.csv"
    write_csv(TimeSeries(np.random.default_rng(0).normal(size=300), name="s"), path)
    assert run_cli("stationarity", "--csv", str(path), *flags) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [("--fnn-tolerance", "2"), ("--d-max", "0")])
def test_evaluate_rejects_bad_fnn_settings(tmp_path, flags):
    out = tmp_path / "r.csv"
    assert run_cli("evaluate", *_two_walks(tmp_path), "--methods", "Holdout",
                   "--out", str(out), *flags) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--bayes-samples", "0"), ("--rope", "-1"), ("--rope", "0")])
def test_benchmark_rejects_bad_bayes_flags_before_the_study(tmp_path, monkeypatch, flags):
    # the Bayes probabilities are exact: --bayes-samples is an unknown flag now
    studies = []
    monkeypatch.setattr(tseval.cli, "run_experiment", studies.append)
    out = tmp_path / "r.csv"
    assert run_cli("benchmark", "--dgp", "s1", "--trials", "20", "--out", str(out), *flags) == 1
    assert not studies
    assert not out.exists()


@pytest.mark.parametrize("via_config", [False, True])
def test_benchmark_rejects_an_unknown_baseline_before_the_study(tmp_path, monkeypatch, via_config):
    studies = []
    monkeypatch.setattr(tseval.cli, "run_experiment", studies.append)
    out = tmp_path / "r.csv"
    config = tmp_path / "bench.conf"
    config.write_text("baseline=Nope\n")
    flags = ["--config", str(config)] if via_config else ["--baseline", "Nope"]
    assert run_cli("benchmark", "--dgp", "s1", "--trials", "2", "--out", str(out), *flags) == 1
    assert not studies
    assert not out.exists()


def test_compare_without_normalization(tmp_path):
    # per problem, "m" minus "base" in APAE is 0.3, 6.0 and 1.0: raw, two lie in
    # [-2.5, 2.5] and one right of it, so with no prior mass P_right = (1/2)^2
    results, out = tmp_path / "results.csv", tmp_path / "cmp.csv"
    rows = [EstimationResult(pid, method, estimate, truth)
            for pid, truth, base, m in (("p1", 10.0, 10.1, 10.4), ("p2", 10.0, 10.0, 16.0),
                                        ("p3", 0.0, 1.0, 2.0))
            for method, estimate in (("base", base), ("m", m))]
    results_to_csv(rows, results)
    assert run_cli("compare", "--results", str(results), "--baseline", "base",
                   "--prior-strength", "0", "--normalization", "none", "--out", str(out)) == 0
    assert out.read_text() == "method,baseline,p_left,p_rope,p_right\nm,base,0.0,0.75,0.25\n"
    # in percent of the loss, p3 is skipped and 3% and 60% lie right of the ROPE
    assert run_cli("compare", "--results", str(results), "--baseline", "base",
                   "--prior-strength", "0", "--out", str(out)) == 0
    assert out.read_text() == "method,baseline,p_left,p_rope,p_right\nm,base,0.0,0.0,1.0\n"


@pytest.mark.parametrize(
    "flags",
    [("--samples", "0"), ("--rope", "-1"), ("--prior-strength", "-0.5"),
     ("--prior-strength", "inf")],
)
def test_compare_rejects_bad_bayes_flags_before_reading(tmp_path, caplog, capsys, flags):
    # the Bayes probabilities are exact: --samples is an unknown flag now
    out = tmp_path / "cmp.csv"
    missing = tmp_path / "missing.csv"
    assert run_cli("compare", "--results", str(missing), "--out", str(out), *flags) == 1
    assert not out.exists()
    told = caplog.text + capsys.readouterr().err
    assert flags[0] in told and "missing.csv" not in told


def test_compare_rejects_infinite_prior_strength_before_reading(
    tmp_path, monkeypatch, caplog, capsys
):
    results = tmp_path / "results.csv"
    rows = [EstimationResult(problem, method, 1.0 + 0.1 * i, 1.0)
            for problem in ("a", "b") for i, method in enumerate(("Holdout", "Rep-Holdout"))]
    results_to_csv(rows, results)
    reads = []
    monkeypatch.setattr(tseval.cli, "read_results_csv", reads.append)
    out = tmp_path / "cmp.csv"
    code = run_cli("compare", "--results", str(results), "--prior-strength", "inf",
                   "--out", str(out))
    assert code == 1
    assert not reads
    assert not out.exists()
    assert "--prior-strength" in caplog.text + capsys.readouterr().err


@pytest.mark.parametrize("command", ["benchmark", "evaluate"])
def test_nan_penalty_is_rejected_before_the_study(tmp_path, monkeypatch, caplog, command):
    studies = []
    monkeypatch.setattr(tseval.cli, "run_experiment", studies.append)
    out = tmp_path / "r.csv"
    inputs = ["--dgp", "s1", "--trials", "2"] if command == "benchmark" else _two_walks(tmp_path)
    assert run_cli(command, *inputs, "--lam", "nan", "--out", str(out)) == 1
    assert not studies
    assert not out.exists()
    assert "lam must be non-negative" in caplog.text


def test_embed_subcommand(tmp_path, capsys):
    series_path = tmp_path / "s.csv"
    write_csv(TimeSeries(np.arange(30.0), name="s"), series_path)
    out = tmp_path / "rows.csv"
    code = run_cli("embed", "--csv", str(series_path), "--p", "4", "--out", str(out))
    assert code == 0
    assert capsys.readouterr().out.strip() == "p=4"
    lines = out.read_text().splitlines()
    assert lines[0] == "target_time,x1,x2,x3,x4,y"
    assert len(lines) == 1 + 26
    assert lines[1] == "4,0.0,1.0,2.0,3.0,4.0"  # row k targets y_{k+p}
    assert lines[-1].startswith("29,")


def test_embed_logs_the_fnn_fallback_like_evaluate(tmp_path, capsys, caplog):
    path = tmp_path / "noise.csv"
    write_csv(TimeSeries(np.random.default_rng(0).normal(size=300)), path)
    assert run_cli("embed", "--csv", str(path), "--p", "auto", "--d-max", "2") == 0
    assert capsys.readouterr().out == "p=2\n"
    assert [r.getMessage() for r in caplog.records] == [
        "problem noise: false-neighbour fraction stayed above 0.01 up to d_max=2; "
        "returning d_max"
    ]


@pytest.mark.parametrize("p", ["0", "-3", "30", "31"])
@pytest.mark.parametrize("to_file", [False, True])
def test_embed_rejects_a_bad_dimension_before_printing(tmp_path, capsys, p, to_file):
    series_path = tmp_path / "s.csv"
    write_csv(TimeSeries(np.arange(30.0), name="s"), series_path)
    out = tmp_path / "rows.csv"
    flags = ["--out", str(out)] if to_file else []
    assert run_cli("embed", "--csv", str(series_path), "--p", p, *flags) == 1
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_benchmark_runs_the_library_study_by_default():
    parser = build_parser()
    args = parser.parse_args(["benchmark", "--dgp", "s1", "--out", "r.csv"])
    assert args.trials == ExperimentConfig(dgp="s1").trials == 200


def test_config_and_results_files_may_start_with_a_byte_order_mark(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results_to_csv(
        [EstimationResult(problem, method, 1.0 + i, 1.0) for problem in ("a", "b")
         for i, method in enumerate(("CV", "Holdout"))],
        results,
    )
    assert run_cli("rank", "--results", str(results)) == 0
    plain = capsys.readouterr().out
    results.write_bytes(b"\xef\xbb\xbf" + results.read_bytes())
    config = tmp_path / "rank.conf"
    config.write_text(f"\ufeffresults={results}\n", encoding="utf-8")
    assert run_cli("rank", "--config", str(config)) == 0
    assert capsys.readouterr().out == plain


def test_config_file_supplies_flags(tmp_path, capsys):
    config = tmp_path / "run.conf"
    out = tmp_path / "sims"
    config.write_text(
        f"# simulation settings\ndgp=s1\ntrials=2\nseed=8\nout_dir={out}\n"
    )
    code = run_cli("simulate", "--config", str(config))
    assert code == 0
    assert len(list(out.glob("*.csv"))) == 2


def test_flags_override_config(tmp_path):
    config = tmp_path / "run.conf"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    config.write_text(f"dgp=s1\ntrials=1\nout_dir={out_a}\n")
    code = run_cli("simulate", "--config", str(config), "--out-dir", str(out_b))
    assert code == 0
    assert not out_a.exists()
    assert len(list(out_b.glob("*.csv"))) == 1


def test_config_rejects_unknown_key(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("dgp=s1\nwibble=3\n")
    assert run_cli("simulate", "--config", str(config)) == 1


def test_fatal_error_exit_code(tmp_path):
    assert run_cli("rank", "--results", str(tmp_path / "missing.csv")) == 1


def test_partial_failure_exit_code(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "tiny.csv"
    write_csv(TimeSeries(rng.normal(size=20), name="tiny"), path)
    code = run_cli(
        "evaluate", "--csv", str(path), "--p", "2", "--learner", "knn",
        "--methods", "Holdout,Preq-Bls", "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2


def _overflow_inputs(tmp_path):
    """A 300-point walk, 300 normal draws times 1e200, and the walk with one
    value set to 1e160, as CSV paths."""
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.normal(size=300))
    spike = walk.copy()
    spike[5] = 1e160
    paths = {name: tmp_path / f"{name}.csv" for name in ("ok", "huge", "spike")}
    for name, values in (("ok", walk), ("huge", 1e200 * rng.normal(size=300)), ("spike", spike)):
        write_csv(TimeSeries(values, name=name), paths[name])
    return paths


def _evaluate(out, *paths, learner):
    csvs = [arg for path in paths for arg in ("--csv", str(path))]
    return run_cli("evaluate", *csvs, "--p", "3", "--learner", learner, "--out", str(out))


# the warnings a command-line user gets are printed, not raised: raised, the
# first overflow would fail its pair before any loss is inf
@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@pytest.mark.parametrize("learner", ["lasso", "knn"])
def test_a_problem_whose_true_loss_overflows_fails_alone(tmp_path, learner):
    paths = _overflow_inputs(tmp_path)
    alone, both = tmp_path / "alone.csv", tmp_path / "both.csv"
    assert _evaluate(alone, paths["ok"], learner=learner) == 0
    assert _evaluate(both, paths["ok"], paths["huge"], learner=learner) == 2
    assert both.read_bytes() == alone.read_bytes()
    config = ExperimentConfig(csv_paths=(str(paths["ok"]), str(paths["huge"])), embedding=3,
                              learner=tseval.LearnerSpec(kind=learner))
    assert run_experiment(config).failures == tuple(
        ("huge", method, "true loss inf is not finite") for method in tseval.METHODS)


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
def test_a_method_whose_estimate_overflows_fails_alone(tmp_path):
    paths = _overflow_inputs(tmp_path)
    alone, both = tmp_path / "alone.csv", tmp_path / "both.csv"
    assert _evaluate(alone, paths["ok"], learner="knn") == 0
    assert _evaluate(both, paths["ok"], paths["spike"], learner="knn") == 2
    ok_rows, spike_rows = [], []
    for line in both.read_text().splitlines(keepends=True)[1:]:
        (ok_rows if line.startswith("ok,") else spike_rows).append(line)
    assert ok_rows == alone.read_text().splitlines(keepends=True)[1:]
    assert spike_rows and all(np.isfinite(float(line.split(",")[2])) for line in spike_rows)
    config = ExperimentConfig(csv_paths=(str(paths["spike"]),), embedding=3,
                              learner=tseval.LearnerSpec(kind="knn"))
    failures = run_experiment(config).failures
    assert len(failures) + len(spike_rows) == len(tseval.METHODS)
    assert {reason for _, _, reason in failures} == {"estimate inf is not finite"}


def test_duplicate_problem_names_are_rejected(tmp_path, caplog):
    rng = np.random.default_rng(1)
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / "x.csv")
        write_csv(TimeSeries(np.cumsum(rng.normal(size=300)), name="x"), paths[-1])
    out = tmp_path / "r.csv"
    code = run_cli("evaluate", "--csv", str(paths[0]), "--csv", str(paths[1]),
                   "--p", "3", "--methods", "Holdout", "--out", str(out))
    assert code == 1
    assert not out.exists()
    assert "'x'" in caplog.text and "unique" in caplog.text


def test_repeated_method_names_are_rejected(tmp_path, caplog):
    out = tmp_path / "r.csv"
    code = run_cli("evaluate", *_two_walks(tmp_path), "--p", "3",
                   "--methods", "CV,CV,Holdout", "--out", str(out))
    assert code == 1
    assert not out.exists()
    assert "repeated: CV" in caplog.text


def test_rank_and_compare_reject_repeated_rows(tmp_path, caplog):
    rows = [EstimationResult("a", m, 1.0 + 0.1 * i, 1.0)
            for i, m in enumerate(("Holdout", "Rep-Holdout", "Holdout"))]
    path = tmp_path / "results.csv"
    results_to_csv(rows, path)
    assert run_cli("rank", "--results", str(path)) == 1
    assert run_cli("compare", "--results", str(path)) == 1
    message = "line 4 repeats problem 'a', method 'Holdout' (first on line 2)"
    assert caplog.text.count(message) == 2


def test_negative_column_index_is_rejected(tmp_path, caplog):
    path = tmp_path / "s.csv"
    path.write_text("t,y\n" + "".join(f"{i},{i * 0.5}\n" for i in range(30)))
    assert run_cli("embed", "--csv", str(path), "--column", "1", "--p", "2") == 0
    assert run_cli("embed", "--csv", str(path), "--column", "-1", "--p", "2") == 1
    assert "column index must be >= 0, got -1" in caplog.text


def test_problems_left_out_of_the_rank_table_are_named(tmp_path, capsys, caplog):
    rng = np.random.default_rng(5)
    short, long = tmp_path / "short.csv", tmp_path / "long.csv"
    write_csv(TimeSeries(np.cumsum(rng.normal(size=120)) + 30.0, name="short"), short)
    write_csv(TimeSeries(np.cumsum(rng.normal(size=400)) + 30.0, name="long"), long)
    # at p=9 CV-Mod's removal radius empties the short walk's training sets
    code = run_cli("evaluate", "--csv", str(short), "--csv", str(long), "--p", "9",
                   "--methods", "Holdout,CV,CV-Mod", "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert capsys.readouterr().out.startswith("method,mean_rank,sd_rank\n")
    assert "1 problem(s) left out of the rank table: short" in caplog.text


def test_rank_names_the_problems_it_leaves_out(tmp_path, capsys, caplog):
    methods = ("Holdout", "CV", "CV-Mod")
    complete = [EstimationResult("a", m, 1.0 + 0.1 * i, 1.0)
                for i, m in enumerate(methods)]
    partial = [EstimationResult("b", m, 2.0 - 0.1 * i, 1.0)
               for i, m in enumerate(methods[:2])]
    only_a, both = tmp_path / "a.csv", tmp_path / "both.csv"
    results_to_csv(complete, only_a)
    results_to_csv(complete + partial, both)
    assert run_cli("rank", "--results", str(only_a)) == 0
    expected = capsys.readouterr().out
    assert "left out" not in caplog.text
    assert run_cli("rank", "--results", str(both)) == 0
    assert capsys.readouterr().out == expected
    assert "1 problem(s) left out of the rank table: b" in caplog.text


def test_start_up_does_not_import_scipy():
    code = "import tseval.cli, tseval, sys; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(tseval.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_determinism_of_benchmark_command(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert run_cli("benchmark", "--dgp", "s2", "--trials", "2", "--seed", "5",
                       "--out", str(out), "--no-compare") == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file_drives_evaluate_and_benchmark(tmp_path, capsys):
    rng = np.random.default_rng(3)
    paths = []
    for name in ("a", "b", "c"):
        path = tmp_path / f"{name}.csv"
        write_csv(TimeSeries(np.cumsum(rng.normal(size=120)) + 30.0, name=name), path)
        paths.append(path)
    out = tmp_path / "res.csv"
    config = tmp_path / "evaluate.conf"
    config.write_text(
        f"csv={paths[0]}, {paths[1]}\nout={out}\np=3\n"
        "methods=Holdout,CV\nverbose=true\n"
    )
    assert run_cli("evaluate", "--config", str(config)) == 0
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert sorted(rows) == [["a", "CV"], ["a", "Holdout"], ["b", "CV"], ["b", "Holdout"]]

    # an explicit --csv replaces the file's list instead of adding to it
    assert run_cli("evaluate", "--config", str(config), "--csv", str(paths[2])) == 0
    assert {line.split(",")[0] for line in out.read_text().splitlines()[1:]} == {"c"}

    # an abbreviated flag is a usage error, not a way around the override
    assert run_cli("evaluate", "--config", str(config), "--cs", str(paths[2])) == 1

    # a bad value in the file is a fatal usage error, like the same bad flag
    config.write_text(f"csv={paths[0]}\nout={out}\np=three\n")
    assert run_cli("evaluate", "--config", str(config)) == 1
    config.write_text(f"csv={paths[0]}\nout={out}\nconfig={config}\n")
    assert run_cli("evaluate", "--config", str(config)) == 1

    capsys.readouterr()
    bench = tmp_path / "bench.conf"
    bench.write_text(
        f"dgp=s1\ntrials=2\nout={tmp_path / 'bench.csv'}\n"
        "methods=Holdout,CV\nbaseline=CV\nno-compare=true\n"
    )
    assert run_cli("benchmark", "--config", str(bench)) == 0
    printed = capsys.readouterr().out
    assert "method,mean_rank,sd_rank" in printed
    assert "p_left" not in printed
    bench.write_text(bench.read_text().replace("no-compare=true", "no_compare=off"))
    assert run_cli("benchmark", "--config", str(bench)) == 0
    assert "p_left" in capsys.readouterr().out
    # the Bayes probabilities are exact, so there is no sample count to set
    bench.write_text(bench.read_text() + "bayes_samples=1000\n")
    assert run_cli("benchmark", "--config", str(bench)) == 1


def test_config_verbose_key_sets_the_flag(tmp_path):
    from tseval.cli import _apply_config, build_parser

    config = tmp_path / "run.conf"
    config.write_text("dgp=s2\nverbose=yes\n")
    parser = build_parser()
    args = parser.parse_args(_apply_config(["simulate", "--config", str(config)], parser))
    assert args.verbose is True
    assert args.dgp == "s2"


def test_ranks_file_always_holds_this_runs_table(tmp_path, capsys):
    ranks = tmp_path / "k.csv"
    flags = ["benchmark", "--dgp", "s1", "--trials", "2", "--ranks", str(ranks)]
    assert run_cli(*flags, "--out", str(tmp_path / "a.csv")) == 0
    assert len(ranks.read_text().splitlines()) == 1 + 11
    capsys.readouterr()
    # at length 20 no problem has all 11 methods: no table, so the header alone
    assert run_cli(*flags, "--length", "20", "--out", str(tmp_path / "b.csv")) == 2
    assert ranks.read_text() == "method,mean_rank,sd_rank\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [
    ["benchmark", "--dgp", "s1", "--trials", "2", "--out", "{tmp}/r.csv",
     "--ranks", "{tmp}/nodir/k.csv"],
    ["evaluate", "--csv", "{tmp}/a.csv", "--p", "3", "--out", "{tmp}/nodir/r.csv"],
    ["embed", "--csv", "{tmp}/a.csv", "--p", "3", "--out", "{tmp}/nodir/rows.csv"],
    ["simulate", "--dgp", "s1", "--out-dir", "{tmp}/sims", "--long-csv", "{tmp}/nodir/l.csv"],
])
def test_output_files_in_a_missing_directory_are_refused_before_any_work(
    tmp_path, monkeypatch, capsys, caplog, command
):
    write_csv(TimeSeries(np.arange(40.0) % 7, name="a"), tmp_path / "a.csv")
    studies = []
    monkeypatch.setattr(tseval.cli, "run_experiment", studies.append)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*(arg.format(tmp=tmp_path) for arg in command)) == 1
    assert not studies
    assert capsys.readouterr().out == ""
    assert sorted(tmp_path.rglob("*")) == before
    assert "nodir does not exist" in caplog.text


def test_study_flags_default_to_the_library_defaults(tmp_path, monkeypatch):
    studies, draws = [], []
    monkeypatch.setattr(tseval.cli, "run_experiment", studies.append)
    monkeypatch.setattr(tseval.cli, "monte_carlo", lambda *a: draws.append(a) or [])
    out = str(tmp_path / "r.csv")
    for argv in (["evaluate", "--csv", "a.csv", "--out", out],
                 ["benchmark", "--dgp", "s2", "--out", out],
                 ["simulate", "--dgp", "s2", "--out-dir", str(tmp_path / "sims")]):
        run_cli(*argv)  # the captured study is no outcome, so the first two exit 1
    assert studies == [ExperimentConfig(csv_paths=("a.csv",)),
                       ExperimentConfig(dgp="s2", embedding=5)]
    assert draws == [(tseval.DGPSpec(kind="s2"), 1, ExperimentConfig.base_seed)]
