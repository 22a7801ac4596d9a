"""Command-line interface.

Subcommands: simulate, evaluate, benchmark, rank, compare, stationarity,
embed. Every flag of the chosen subcommand but ``--config`` itself can also
be given in ``--config FILE``, holding flat ``key=value`` lines: the key is
the flag name without its leading dashes (dashes and underscores are
interchangeable); blank lines and ``#`` comments are skipped. Values are
checked exactly like the same flag on the command line. A switch such as
``verbose`` or ``no_compare`` is set by ``1``, ``true``, ``yes`` or ``on``
and left off by any other value. A repeatable flag takes a comma list
(``csv=a.csv,b.csv`` stands for ``--csv a.csv --csv b.csv``). Explicit flags
override the file; an explicit ``--csv`` replaces the file's list rather
than adding to it. Flags must be spelled out in full: an abbreviation such as
``--cs`` for ``--csv`` is a usage error.

Output files and stdout use ``\n`` line endings on every platform. The rank
and Bayes tables are formatted in one place each, so a table written to a
file (``--ranks``, ``rank --out``, ``compare --out``) holds the same bytes as
the one printed.

Exit codes: 0 on success, 1 on fatal errors, 2 when some problems or methods
failed but the run completed. Fatal errors include usage errors: an unknown
flag or config key, a missing required flag, or a bad value, whether given on
the command line or in the config file.
"""

from __future__ import annotations

import argparse
import logging
import sys
from functools import partial
from pathlib import Path

from .embedding import embed as embed_rows
from .embedding import estimate_embedding_dimension
from .harness import (
    ExperimentConfig,
    _csv_text,
    comparisons_csv,
    compare_to_baseline,
    rank_table_csv,
    read_results_csv,
    results_rank_table,
    results_to_csv,
    run_experiment,
)
from .learners import LearnerSpec
from .series import load_csv, write_csv
from .splitters import METHODS
from .stationarity import ndiffs, wavelet_stationarity_test
from .synthetic import DGPSpec, monte_carlo

logger = logging.getLogger("tseval")

SYNTHETIC_EMBEDDING_DIM = 5  # the synthetic study embeds with 5 lags instead of FNN


def _column(text: str):
    text = str(text)
    return int(text) if text.lstrip("+-").isdigit() else text


def _dimension(text: str):
    text = str(text)
    return "auto" if text == "auto" else int(text)


def _methods(text: str) -> tuple:
    names = tuple(m.strip() for m in str(text).split(",") if m.strip())
    return names or METHODS


def _optional_float(text: str):
    text = str(text)
    return None if text in ("", "none", "None", "auto") else float(text)


def read_config(path) -> dict[str, str]:
    """Flat key=value file; blank lines and #-comments are ignored."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno} is not key=value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _learner_from_args(args) -> LearnerSpec:
    return LearnerSpec(kind=args.learner, lam=args.lam, k=args.knn_k)


def _add_learner_flags(sub) -> None:
    sub.add_argument("--learner", choices=("lasso", "knn"), default="lasso")
    sub.add_argument("--lam", type=_optional_float, default=None,
                     help="lasso penalty; default picks 0.01 * lambda_max per fold")
    sub.add_argument("--knn-k", type=int, default=5)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file mirroring the flags")
    common.add_argument("--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="tseval",
        description="Performance estimation for time-series forecasting models",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(subparsers.add_parser, parents=[common], allow_abbrev=False)
    registry: dict[str, argparse.ArgumentParser] = {}

    sim = add_parser("simulate", help="draw synthetic series and write them as CSV")
    sim.add_argument("--dgp", choices=("s1", "s2", "s3"), required=True)
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument("--length", type=int, default=200)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--root-bound", type=float, default=5.0)
    sim.add_argument("--burn-in", type=int, default=200)
    sim.add_argument("--innovation-sd", type=float, default=1.0)
    sim.add_argument("--out-dir", help="write one CSV per trial here")
    sim.add_argument("--long-csv", help="write a single trial,t,value CSV")
    registry["simulate"] = sim

    ev = add_parser("evaluate", help="estimate forecasting loss on your own series")
    ev.add_argument("--csv", action="append", default=None, required=True,
                    help="input series file; repeatable")
    ev.add_argument("--column", type=_column, default=0)
    ev.add_argument("--p", type=_dimension, default="auto",
                    help="embedding dimension, or 'auto' for FNN selection")
    ev.add_argument("--d-max", type=int, default=30)
    ev.add_argument("--fnn-tolerance", type=float, default=0.01)
    ev.add_argument("--fraction", type=float, default=0.7,
                    help="estimation part of the series")
    ev.add_argument("--methods", type=_methods, default=METHODS,
                    help="comma-separated subset of the 11 method names")
    ev.add_argument("--K", type=int, default=10)
    ev.add_argument("--nreps", type=int, default=10)
    ev.add_argument("--seed", type=int, default=1)
    _add_learner_flags(ev)
    ev.add_argument("--out", required=True, help="results CSV path")
    ev.add_argument("--ranks", help="optional rank-table CSV path")
    registry["evaluate"] = ev

    bm = add_parser("benchmark", help="synthetic estimator-accuracy study")
    bm.add_argument("--dgp", choices=("s1", "s2", "s3"), required=True)
    bm.add_argument("--trials", type=int, default=200)
    bm.add_argument("--length", type=int, default=200)
    bm.add_argument("--seed", type=int, default=1)
    bm.add_argument("--methods", type=_methods, default=METHODS)
    bm.add_argument("--K", type=int, default=10)
    bm.add_argument("--nreps", type=int, default=10)
    _add_learner_flags(bm)
    bm.add_argument("--baseline", default="Rep-Holdout")
    bm.add_argument("--rope", type=float, default=2.5,
                    help="half-width of the practical-equivalence region, in percent")
    bm.add_argument("--no-compare", action="store_true")
    bm.add_argument("--out", required=True, help="results CSV path")
    bm.add_argument("--ranks", help="optional rank-table CSV path")
    registry["benchmark"] = bm

    rk = add_parser("rank", help="rank table from a results CSV")
    rk.add_argument("--results", required=True)
    rk.add_argument("--out", help="rank-table CSV path; stdout when omitted")
    registry["rank"] = rk

    cp = add_parser("compare", help="Bayes sign test of methods against a baseline")
    cp.add_argument("--results", required=True)
    cp.add_argument("--baseline", default="Rep-Holdout")
    cp.add_argument("--rope", type=float, default=2.5)
    cp.add_argument("--prior-strength", type=float, default=1.0)
    cp.add_argument("--normalization", choices=("loss", "none"), default="loss")
    cp.add_argument("--out", help="CSV path; stdout when omitted")
    registry["compare"] = cp

    st = add_parser("stationarity", help="differencing order and stationarity verdicts")
    st.add_argument("--csv", action="append", default=None, required=True)
    st.add_argument("--column", type=_column, default=0)
    st.add_argument("--alpha", type=float, default=0.05)
    st.add_argument("--max-d", type=int, choices=(0, 1, 2), default=2)
    st.add_argument("--correction", choices=("bonferroni", "fdr"), default="bonferroni")
    registry["stationarity"] = st

    em = add_parser("embed", help="choose an embedding dimension and export rows")
    em.add_argument("--csv", required=True)
    em.add_argument("--column", type=_column, default=0)
    em.add_argument("--p", type=_dimension, default="auto")
    em.add_argument("--d-max", type=int, default=30)
    em.add_argument("--fnn-tolerance", type=float, default=0.01)
    em.add_argument("--out", help="write target_time,x1..xp,y rows here")
    registry["embed"] = em

    return parser, registry


def _apply_config(argv, registry) -> list[str]:
    """Splice the ``--config`` file's entries into ``argv`` as flags placed
    right after the subcommand, so argparse checks them like typed flags."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return argv
    command = next((a for a in argv if not a.startswith("-")), None)
    sub = registry.get(command)
    if sub is None:
        raise ValueError(f"--config requires a recognised subcommand, got {command!r}")
    start = argv.index(command) + 1
    given = {token.partition("=")[0] for token in argv[start:] if token.startswith("--")}
    actions = {a.dest: a for a in sub._actions if a.dest not in ("config", "help")}
    tokens: list[str] = []
    for key, raw in read_config(known.config).items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"config key {key!r} is not a flag of {command!r}")
        if given.intersection(action.option_strings):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            if raw.lower() in ("1", "true", "yes", "on"):
                tokens.append(flag)
        elif isinstance(action, argparse._AppendAction):
            tokens += [f"{flag}={part.strip()}" for part in raw.split(",") if part.strip()]
        else:
            tokens.append(f"{flag}={raw}")
    return argv[:start] + tokens + argv[start:]


def _cmd_simulate(args) -> int:
    if not args.out_dir and not args.long_csv:
        raise ValueError("simulate needs --out-dir or --long-csv")
    spec = DGPSpec(
        kind=args.dgp,
        r=args.root_bound,
        length=args.length,
        burn_in=args.burn_in,
        innovation_sd=args.innovation_sd,
    )
    stream = list(monte_carlo(spec, args.trials, args.seed))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for series in stream:
            write_csv(series, out / f"{series.name}.csv")
        logger.info("wrote %d series to %s", len(stream), out)
    if args.long_csv:
        with Path(args.long_csv).open("w", newline="", encoding="utf-8") as fh:
            fh.write("trial,t,value\n")
            for trial, series in enumerate(stream):
                for t, value in enumerate(series.values):
                    fh.write(f"{trial},{t},{float(value)!r}\n")
    return 0


def _write(text: str, path) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when there is none."""
    if path:
        Path(path).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _finish_experiment(outcome, args) -> int:
    results_to_csv(outcome.results, args.out)
    if outcome.rank_table is not None:
        text = rank_table_csv(outcome.rank_table)
        if args.ranks:
            _write(text, args.ranks)
        sys.stdout.write(text)
    if outcome.failures:
        logger.warning("%d (problem, method) pairs failed", len(outcome.failures))
        _warn_left_out(dict.fromkeys(problem for problem, _, _ in outcome.failures))
        return 2 if outcome.results else 1
    return 0


def _warn_left_out(problems) -> None:
    problems = list(problems)
    if problems:
        logger.warning("%d problem(s) left out of the rank table: %s",
                       len(problems), ", ".join(problems))


def _cmd_evaluate(args) -> int:
    config = ExperimentConfig(
        csv_paths=tuple(args.csv),
        csv_column=args.column,
        dgp=None,
        estimation_fraction=args.fraction,
        embedding=args.p,
        d_max=args.d_max,
        fnn_tolerance=args.fnn_tolerance,
        learner=_learner_from_args(args),
        methods=args.methods,
        K=args.K,
        nreps=args.nreps,
        base_seed=args.seed,
    )
    return _finish_experiment(run_experiment(config), args)


def _check_bayes_flags(rope: float, prior_strength: float = 1.0) -> None:
    """Reject Bayes sign-test settings before any work is done."""
    if not rope > 0:
        raise ValueError(f"--rope must be positive, got {rope}")
    if not prior_strength >= 0:
        raise ValueError(f"--prior-strength must be non-negative, got {prior_strength}")


def _cmd_benchmark(args) -> int:
    _check_bayes_flags(args.rope)
    config = ExperimentConfig(
        dgp=args.dgp,
        trials=args.trials,
        length=args.length,
        embedding=SYNTHETIC_EMBEDDING_DIM,
        learner=_learner_from_args(args),
        methods=args.methods,
        K=args.K,
        nreps=args.nreps,
        base_seed=args.seed,
    )
    outcome = run_experiment(config)
    comparisons = []
    if not args.no_compare and args.baseline in config.methods and outcome.results:
        comparisons = compare_to_baseline(outcome.results, args.baseline, (-args.rope, args.rope))
    code = _finish_experiment(outcome, args)
    if comparisons:
        sys.stdout.write(comparisons_csv(comparisons))
    return code


def _cmd_rank(args) -> int:
    results = read_results_csv(args.results)
    methods = list(dict.fromkeys(r.method for r in results))
    seen: dict[str, set[str]] = {}
    for r in results:
        seen.setdefault(r.problem_id, set()).add(r.method)
    _warn_left_out(p for p, ran in seen.items() if len(ran) < len(methods))
    table = results_rank_table(results, methods)
    if table is None:
        raise ValueError("no problem has results for every method")
    _write(rank_table_csv(table), args.out)
    return 0


def _cmd_compare(args) -> int:
    _check_bayes_flags(args.rope, args.prior_strength)
    results = read_results_csv(args.results)
    comparisons = compare_to_baseline(
        results, args.baseline, (-args.rope, args.rope), args.prior_strength, args.normalization
    )
    _write(comparisons_csv(comparisons), args.out)
    return 0


def _cmd_stationarity(args) -> int:
    if not 0.0 < args.alpha < 0.5:
        raise ValueError(f"--alpha must lie in (0, 0.5), got {args.alpha}")
    rows = []
    code = 0
    for path in args.csv:
        try:
            series = load_csv(path, args.column)
            order = ndiffs(series, args.max_d)
            verdict = wavelet_stationarity_test(series, args.alpha, args.correction)
        except Exception as exc:  # noqa: BLE001 - keep scanning other files
            logger.warning("stationarity on %s failed: %s", path, exc)
            code = 2
            continue
        triples = ";".join(
            f"{r.periodogram_level}:{r.coefficient_scale}:{r.position}"
            for r in verdict.rejections
        )
        rows.append([series.name, order, int(verdict.stationary), triples])
    sys.stdout.write(_csv_text(["name", "I", "S", "rejections"], rows))
    return code


def _cmd_embed(args) -> int:
    series = load_csv(args.csv, args.column)
    if args.p == "auto":
        p = estimate_embedding_dimension(
            series, d_max=args.d_max, tolerance=args.fnn_tolerance
        )
    else:
        p = int(args.p)
    print(f"p={p}")
    if args.out:
        dataset = embed_rows(series, p)
        with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
            headers = ["target_time"] + [f"x{i + 1}" for i in range(p)] + ["y"]
            fh.write(",".join(headers) + "\n")
            for row, target, tt in zip(
                dataset.predictors, dataset.targets, dataset.target_time
            ):
                cells = [str(int(tt))] + [repr(float(v)) for v in row] + [repr(float(target))]
                fh.write(",".join(cells) + "\n")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "benchmark": _cmd_benchmark,
    "rank": _cmd_rank,
    "compare": _cmd_compare,
    "stationarity": _cmd_stationarity,
    "embed": _cmd_embed,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        args = parser.parse_args(_apply_config(argv, registry))
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        if exc.code:  # argparse usage error; 2 is kept for partial failure
            return 1
        raise
    except Exception as exc:  # noqa: BLE001 - single fatal-error funnel
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
