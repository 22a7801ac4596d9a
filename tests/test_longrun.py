import importlib.util
import sys
from pathlib import Path

import numpy as np

from tseval.cli import build_parser
from tseval.series import load_csv

ROOT = Path(__file__).resolve().parents[1]
_PATH = list(sys.path)
_SPEC = importlib.util.spec_from_file_location("longrun", ROOT / "tools" / "longrun.py")
longrun = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(longrun)


def test_loading_longrun_leaves_sys_path_alone():
    # a perfbench directory on it would shadow other modules named run, spans, ...
    assert sys.path == _PATH


def test_every_longrun_command_parses():
    parser = build_parser()
    runs = longrun.commands("side0")
    assert len(runs) == len(longrun.SERIES) * len(longrun.LEARNERS) + 1
    assert len({name for name, _ in runs}) == len(runs)  # each writes its own results
    parsed = {name: parser.parse_args(argv) for name, argv in runs}
    for (name, argv), args in zip(runs, parsed.values()):
        assert args.command == "evaluate" and args.verbose
        assert argv[-1] == f"out/side0/{name}/results.csv"
    # every series with each learner at FNN's p, and the p = 30 lasso stack on S1
    assert {name for name, args in parsed.items() if args.p == "auto"} == {
        f"{series}-{learner}" for series in longrun.SERIES for learner in longrun.LEARNERS}
    fixed = parsed["s1-lasso-p30"]
    assert (fixed.p, fixed.learner, fixed.csv) == (30, "lasso", ["inputs/s1.csv"])


def test_longrun_series_are_long_and_the_variance_steps_at_the_middle(tmp_path):
    longrun.write_inputs(tmp_path)
    for name in longrun.SERIES:
        assert len(load_csv(tmp_path / "inputs" / f"{name}.csv")) == longrun.LENGTH
    step = longrun.series_values("varstep")
    half = longrun.LENGTH // 2
    assert 2.5 < np.std(step[half:]) / np.std(step[:half]) < 3.5


def test_longrun_summary_takes_medians_and_keeps_every_digest():
    runs = [{"side": "side0", "run": "walk-knn", "exit": 0, "wall_s": wall, "peak_rss_mb": peak,
             "p": 2, "sha256": sha} for wall, peak, sha in ((3.0, 430.0, "a"), (1.0, 432.0, "a"),
                                                            (2.0, 431.0, "b"))]
    [[name, entry]] = longrun.summary(runs)["side0"].items()
    assert name == "walk-knn"
    assert entry == {"median_wall_s": 2.0, "median_peak_rss_mb": 431.0, "p": [2], "exit": [0],
                     "sha256": ["a", "b"]}
