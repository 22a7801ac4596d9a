import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tseval import (
    CV_METHODS,
    METHODS,
    OOS_METHODS,
    EmptyTrainingSetError,
    ResamplingPlan,
    Runs,
    build_plan,
)


def iteration_sets(plan):
    return [[it.train.tolist(), it.test.tolist(), it.gap.tolist()] for it in plan.iterations]


def check_common_invariants(plan):
    for it in plan.iterations:
        assert it.train.size and it.test.size
        assert not set(it.train) & set(it.test)
        assert not set(it.gap) & (set(it.train) | set(it.test))
        for part in (it.train, it.test, it.gap):
            assert all(0 <= i < plan.n for i in part)
    if plan.method in OOS_METHODS:
        for it in plan.iterations:
            assert max(it.train) < min(it.test)
    if plan.method in CV_METHODS:
        tests = [set(it.test) for it in plan.iterations]
        assert not any(a & b for i, a in enumerate(tests) for b in tests[i + 1 :])
        assert set().union(*tests) == set(range(plan.n))


# --- plan basics ------------------------------------------------------------

def one_run_each(*runs):
    """Runs holding one (lo, hi) run per iteration."""
    return Runs([lo for lo, _ in runs], [hi for _, hi in runs], range(len(runs) + 1))


def test_plan_rejects_overlap_empty_and_malformed_runs():
    rows_0_1, rows_1_2 = one_run_each((0, 2)), one_run_each((1, 3))
    with pytest.raises(ValueError, match="overlap"):
        ResamplingPlan("X", 3, rows_0_1, rows_1_2)
    with pytest.raises(ValueError, match="non-empty"):
        ResamplingPlan("X", 3, Runs([], [], [0, 0]), one_run_each((1, 2)))
    with pytest.raises(ValueError, match="non-empty"):
        ResamplingPlan("X", 3, one_run_each((1, 2)), Runs([], [], [0, 0]))
    with pytest.raises(ValueError, match="overlap"):
        ResamplingPlan("X", 3, one_run_each((0, 1)), one_run_each((1, 2)), one_run_each((0, 1)))
    with pytest.raises(ValueError, match="overlap"):
        ResamplingPlan("X", 5, one_run_each((0, 1)), one_run_each((1, 2)), one_run_each((1, 4)))
    # runs out of order, touching, empty or negative
    for lo, hi in (([1, 0], [2, 1]), ([0, 2], [2, 4]), ([0, 2], [1, 2]), ([-1], [1])):
        with pytest.raises(ValueError, match="increasing and separated"):
            Runs(lo, hi, [0, len(lo)])
    # offsets that do not run from 0 to the number of runs, rising
    for start in ([1, 1], [0, 2], [0], [], [0, 1, 0, 1]):
        with pytest.raises(ValueError, match="offsets"):
            Runs([0], [1], start)
    with pytest.raises(ValueError, match="out of range"):
        ResamplingPlan("X", 3, one_run_each((0, 1)), one_run_each((1, 4)))
    with pytest.raises(ValueError, match="same number of iterations"):
        ResamplingPlan("X", 4, one_run_each((0, 1), (0, 2)), one_run_each((2, 3)))
    with pytest.raises(ValueError, match="same number of iterations"):
        ResamplingPlan("X", 4, one_run_each((0, 1)), one_run_each((2, 3)), Runs([], [], [0, 0, 0]))
    plan = ResamplingPlan("X", 6, Runs([0, 4], [1, 6], [0, 2]), one_run_each((2, 3)),
                          one_run_each((1, 2)))
    assert [part.tolist() for part in plan.iterations[0]] == [[0, 4, 5], [2], [1]]


@pytest.mark.parametrize("method", METHODS)
def test_plan_parts_are_sorted_read_only_int_arrays(method):
    plan = build_plan(method, 137, K=10, p=2, seed=3)
    for it in plan.iterations:
        for part in (it.train, it.test, it.gap):
            assert isinstance(part, np.ndarray) and part.ndim == 1
            assert part.dtype == np.intp
            assert np.all(np.diff(part) > 0)
            assert not part.flags.writeable
            if part.size:
                with pytest.raises(ValueError):
                    part[0] = -1


# --- CV ---------------------------------------------------------------------

def test_cv_is_partition():
    plan = build_plan("CV", 6, K=3, seed=0)
    check_common_invariants(plan)
    sizes = sorted(len(it.test) for it in plan.iterations)
    assert sizes == [2, 2, 2]


def test_cv_without_shuffle_equals_blocked():
    # CV's folds are CV-Bl's blocks taken over a seeded permutation of the rows
    for n, K, seed in ((6, 3, 0), (7, 3, 5), (137, 10, 11)):
        cv, blocked = build_plan("CV", n, K=K, seed=seed), build_plan("CV-Bl", n, K=K)
        assert [len(it.test) for it in cv.iterations] == [
            len(it.test) for it in blocked.iterations
        ]
        order = np.random.default_rng(seed).permutation(n)
        for it, block in zip(cv.iterations, blocked.iterations):
            assert it.test.tolist() == sorted(order[block.test].tolist())


def test_cv_leave_one_out():
    plan = build_plan("CV", 10, K=10, seed=1)
    assert all(len(it.test) == 1 for it in plan.iterations)


def test_cv_deterministic_per_seed():
    def cv(seed):
        return iteration_sets(build_plan("CV", 20, K=4, seed=seed))

    assert cv(9) == cv(9)
    assert cv(9) != cv(10)


def test_cv_k_too_large():
    with pytest.raises(ValueError):
        build_plan("CV", 3, K=4)


# --- CV-Bl ------------------------------------------------------------------

def test_cv_bl_blocks():
    plan = build_plan("CV-Bl", 6, K=3)
    assert plan.iterations[2].test.tolist() == [4, 5]
    assert plan.iterations[2].train.tolist() == [0, 1, 2, 3]


def test_cv_bl_remainder_to_earliest():
    plan = build_plan("CV-Bl", 7, K=3)
    assert [it.test.tolist() for it in plan.iterations] == [[0, 1, 2], [3, 4], [5, 6]]


def test_cv_bl_block_sizes_195_10():
    plan = build_plan("CV-Bl", 195, K=10)
    sizes = [len(it.test) for it in plan.iterations]
    assert sizes == [20] * 5 + [19] * 5


# --- CV-Mod -----------------------------------------------------------------

def _seed_with_fold(n, K, fold):
    for seed in range(2000):
        for it in build_plan("CV", n, K=K, seed=seed).iterations:
            if it.test.tolist() == fold:
                return seed
    raise AssertionError("no seed produced the wanted fold")


def test_cv_mod_exclusion_rule_hand_example():
    # test fold {2, 5} with p=1 must keep train {0, 7} and move {1,3,4,6} to gap
    seed = _seed_with_fold(8, 4, [2, 5])
    plan = build_plan("CV-Mod", 8, K=4, p=1, seed=seed)
    it = next(it for it in plan.iterations if it.test.tolist() == [2, 5])
    assert it.train.tolist() == [0, 7]
    assert it.gap.tolist() == [1, 3, 4, 6]


def test_cv_mod_rejects_p_zero():
    with pytest.raises(ValueError):
        build_plan("CV-Mod", 8, K=4, p=0, seed=1)


def test_cv_mod_empty_training_error_names_iteration():
    with pytest.raises(EmptyTrainingSetError, match="iteration"):
        build_plan("CV-Mod", 8, K=2, p=10, seed=0)


def test_cv_mod_radius_invariant():
    plan = build_plan("CV-Mod", 40, K=5, p=3, seed=2)
    check_common_invariants(plan)
    for it in plan.iterations:
        train = np.asarray(it.train)
        test = np.asarray(it.test)
        assert np.abs(train[:, None] - test[None, :]).min() > 3


# --- CV-hvBl ----------------------------------------------------------------

def test_cv_hvbl_interior_block():
    plan = build_plan("CV-hvBl", 10, K=5, p=1)
    it = plan.iterations[2]
    assert it.test.tolist() == [4, 5]
    assert it.train.tolist() == [0, 1, 2, 7, 8, 9]
    assert it.gap.tolist() == [3, 6]


def test_cv_hvbl_boundary_clip():
    it = build_plan("CV-hvBl", 10, K=5, p=1).iterations[0]
    assert it.test.tolist() == [0, 1]
    assert it.gap.tolist() == [2]


def test_cv_hvbl_exclusion_budget():
    plan = build_plan("CV-hvBl", 195, K=10, p=5)
    for it in plan.iterations:
        assert len(it.gap) <= 10
        assert len(it.train) >= 195 - len(it.test) - 10


# --- Holdout / Rep-Holdout --------------------------------------------------

def test_holdout_70_30():
    plan = build_plan("Holdout", 10)
    assert plan.iterations[0].train.tolist() == list(range(7))
    assert plan.iterations[0].test.tolist() == [7, 8, 9]


def test_holdout_minimal_and_sizes():
    it = build_plan("Holdout", 2).iterations[0]
    assert it.train.tolist() == [0] and it.test.tolist() == [1]
    it = build_plan("Holdout", 140).iterations[0]
    assert (len(it.train), len(it.test)) == (98, 42)


def test_holdout_degenerate():
    with pytest.raises(ValueError):
        build_plan("Holdout", 1)


def test_rep_holdout_windows():
    plan = build_plan("Rep-Holdout", 100, nreps=10, seed=5)
    assert len(plan.iterations) == 10
    for it in plan.iterations:
        assert len(it.train) == 60 and len(it.test) == 10
        assert max(it.train) < min(it.test)
        a = min(it.test)
        assert 60 <= a <= 90


def test_rep_holdout_cut_extremes_reachable():
    cuts = set()
    for seed in range(400):
        plan = build_plan("Rep-Holdout", 100, nreps=1, seed=seed)
        cuts.add(min(plan.iterations[0].test))
    assert min(cuts) == 60 and max(cuts) == 90


def test_rep_holdout_infeasible():
    # below 10 rows the 10% test window is empty
    with pytest.raises(ValueError, match="infeasible"):
        build_plan("Rep-Holdout", 9, nreps=2, seed=0)
    plan = build_plan("Rep-Holdout", 10, nreps=2, seed=0)
    assert [(len(it.train), len(it.test)) for it in plan.iterations] == [(6, 1), (6, 1)]


# --- prequential block variants ---------------------------------------------

def test_preq_bls_layout():
    plan = build_plan("Preq-Bls", 10, K=5)
    assert iteration_sets(plan) == [
        [[0, 1], [2, 3], []],
        [[0, 1, 2, 3], [4, 5], []],
        [[0, 1, 2, 3, 4, 5], [6, 7], []],
        [[0, 1, 2, 3, 4, 5, 6, 7], [8, 9], []],
    ]


def test_preq_bls_minimal_and_final_train_size():
    plan = build_plan("Preq-Bls", 4, K=2)
    assert iteration_sets(plan) == [[[0, 1], [2, 3], []]]
    plan = build_plan("Preq-Bls", 195, K=10)
    assert len(plan.iterations) == 9
    assert len(plan.iterations[-1].train) == 176


def test_preq_sld_bls_layout():
    plan = build_plan("Preq-Sld-Bls", 10, K=5)
    assert iteration_sets(plan) == [
        [[0, 1], [2, 3], []],
        [[2, 3], [4, 5], []],
        [[4, 5], [6, 7], []],
        [[6, 7], [8, 9], []],
    ]


def test_preq_sld_bls_first_iteration_matches_growing():
    sliding, growing = build_plan("Preq-Sld-Bls", 4, K=2), build_plan("Preq-Bls", 4, K=2)
    assert iteration_sets(sliding) == iteration_sets(growing)


def test_preq_bls_gap_layout():
    plan = build_plan("Preq-Bls-Gap", 10, K=5)
    assert iteration_sets(plan) == [
        [[0, 1], [4, 5], [2, 3]],
        [[0, 1, 2, 3], [6, 7], [4, 5]],
        [[0, 1, 2, 3, 4, 5], [8, 9], [6, 7]],
    ]


def test_preq_bls_gap_needs_three_blocks():
    with pytest.raises(ValueError):
        build_plan("Preq-Bls-Gap", 10, K=2)


def test_preq_grow_layouts():
    plan = build_plan("Preq-Grow", 5)
    assert [it.test.tolist() for it in plan.iterations] == [[2], [3], [4]]
    assert [len(it.train) for it in plan.iterations] == [2, 3, 4]
    plan = build_plan("Preq-Grow", 6)
    assert iteration_sets(plan) == [
        [[0, 1, 2], [3], []],
        [[0, 1, 2, 3], [4], []],
        [[0, 1, 2, 3, 4], [5], []],
    ]


def test_preq_slide_layouts():
    plan = build_plan("Preq-Slide", 5)
    assert iteration_sets(plan) == [
        [[0, 1], [2], []],
        [[1, 2], [3], []],
        [[2, 3], [4], []],
    ]


def test_preq_slide_degenerate_window_equals_growing_tail():
    # two rows: the one-row window is also the whole growing warm-up
    slide, grow = build_plan("Preq-Slide", 2), build_plan("Preq-Grow", 2)
    assert iteration_sets(slide) == iteration_sets(grow)
    # otherwise each window is the last n//2 rows of the growing train set
    slide, grow = build_plan("Preq-Slide", 9), build_plan("Preq-Grow", 9)
    assert len(slide.iterations) == len(grow.iterations) == 5
    for s, g in zip(slide.iterations, grow.iterations):
        assert s.test.tolist() == g.test.tolist()
        assert s.train.tolist() == g.train[-4:].tolist()


def test_preq_window_bounds():
    # one row leaves no room for a warm-up or window
    with pytest.raises(ValueError, match="non-empty"):
        build_plan("Preq-Grow", 1)
    with pytest.raises(ValueError, match="non-empty"):
        build_plan("Preq-Slide", 1)


# --- randomised properties ----------------------------------------------------

plan_space = st.tuples(
    st.integers(min_value=30, max_value=200),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)


@settings(max_examples=150, deadline=None)
@given(plan_space)
def test_method_invariants_random_instances(space):
    n, K, p, seed = space
    for method in METHODS:
        if method == "Preq-Bls-Gap" and K < 3:
            continue
        try:
            plan = build_plan(method, n, K=K, p=p, seed=seed)
        except EmptyTrainingSetError:
            assert method in ("CV-Mod", "CV-hvBl")
            continue
        check_common_invariants(plan)
        if method == "Preq-Sld-Bls":
            lo, hi = n // K, -(-n // K)
            assert all(len(it.train) in (lo, hi) for it in plan.iterations)
        if method == "Preq-Bls-Gap":
            for it in plan.iterations:
                assert min(it.test) - max(it.train) - 1 == len(it.gap) >= n // K
        if method == "Preq-Grow":
            union = sorted(i for it in plan.iterations for i in it.test)
            assert union == list(range(max(1, n // 2), n))
        if method == "Preq-Slide":
            assert all(len(it.train) == max(1, n // 2) for it in plan.iterations)
        if method == "CV-hvBl":
            for it in plan.iterations:
                s, e = min(it.test), max(it.test)
                assert all(i < s - p or i > e + p for i in it.train)


@settings(max_examples=80, deadline=None)
@given(plan_space)
def test_plans_deterministic(space):
    n, K, p, seed = space
    for method in METHODS:
        if method == "Preq-Bls-Gap" and K < 3:
            continue
        try:
            a = build_plan(method, n, K=K, p=p, seed=seed)
            b = build_plan(method, n, K=K, p=p, seed=seed)
        except EmptyTrainingSetError:
            continue
        assert iteration_sets(a) == iteration_sets(b)
        if method not in ("CV", "CV-Mod", "Rep-Holdout"):
            c = build_plan(method, n, K=K, p=p, seed=seed + 1)
            assert iteration_sets(a) == iteration_sets(c)


# --- brute-force oracles --------------------------------------------------------

def oracle_blocks(n, K):
    sizes = [n // K + (i < n % K) for i in range(K)]
    return [sum(sizes[:i]) for i in range(K + 1)]


def oracle_cv(n, K, order):
    b = oracle_blocks(n, K)
    tests = [sorted(order[b[i] : b[i + 1]]) for i in range(K)]
    return [[sorted(set(range(n)) - set(test)), test, []] for test in tests]


def oracle_remove_near(method, iterations, p):
    out = []
    for k, (train, test, _) in enumerate(iterations):
        distance = np.abs(np.subtract.outer(train, test)).min(axis=1)
        kept = [r for r, d in zip(train, distance) if d > p]
        if not kept:
            raise EmptyTrainingSetError(
                f"{method}: empty training set in iteration {k} "
                f"(removal radius {p} covers every training row)"
            )
        out.append([kept, test, [r for r, d in zip(train, distance) if d <= p]])
    return out


def oracle_plan(method, n, K, p, seed):
    """Each iteration's [train, test, gap] row lists, from the definitions."""
    rows = list(range(n))
    b = oracle_blocks(n, K)
    if method in ("CV", "CV-Mod"):
        plan = oracle_cv(n, K, np.random.default_rng(seed).permutation(n).tolist())
        return oracle_remove_near(method, plan, p) if method == "CV-Mod" else plan
    if method in ("CV-Bl", "CV-hvBl"):
        plan = oracle_cv(n, K, rows)
        return oracle_remove_near(method, plan, p) if method == "CV-hvBl" else plan
    if method == "Holdout":
        cut = math.floor(0.7 * n)
        return [[rows[:cut], rows[cut:], []]]
    if method == "Rep-Holdout":
        rng, train, test = np.random.default_rng(seed), math.floor(0.6 * n), math.floor(0.1 * n)
        cuts = [int(rng.integers(train, n - test + 1)) for _ in range(10)]
        return [[rows[a - train : a], rows[a : a + test], []] for a in cuts]
    if method == "Preq-Bls":
        return [[rows[: b[i]], rows[b[i] : b[i + 1]], []] for i in range(1, K)]
    if method == "Preq-Sld-Bls":
        return [[rows[b[i - 1] : b[i]], rows[b[i] : b[i + 1]], []] for i in range(1, K)]
    if method == "Preq-Bls-Gap":
        return [[rows[: b[i]], rows[b[i + 1] : b[i + 2]], rows[b[i] : b[i + 1]]]
                for i in range(1, K - 1)]
    if method == "Preq-Grow":
        return [[rows[:j], [j], []] for j in range(n // 2, n)]
    return [[rows[j - n // 2 : j], [j], []] for j in range(n // 2, n)]


@pytest.mark.parametrize("method", METHODS)
def test_plans_equal_brute_force_oracles(method):
    cases = 0
    for n in (10, 11, 17, 40, 99, 160, 257):
        for K in range(2 if method != "Preq-Bls-Gap" else 3, 11):
            for p in (1, 2, 3, 5, 8, 10) if method in ("CV-Mod", "CV-hvBl") else (1,):
                for seed in (1, 2, 3) if method in ("CV", "CV-Mod", "Rep-Holdout") else (1,):
                    try:
                        expected = oracle_plan(method, n, K, p, seed)
                    except EmptyTrainingSetError as error:
                        with pytest.raises(EmptyTrainingSetError) as got:
                            build_plan(method, n, K=K, p=p, seed=seed)
                        assert str(got.value) == str(error)
                        continue
                    plan = build_plan(method, n, K=K, p=p, seed=seed)
                    assert iteration_sets(plan) == expected, (n, K, p, seed)
                    for it in plan.iterations:
                        for part in it:
                            assert part.dtype == np.intp and not part.flags.writeable
                            assert (part[1:] > part[:-1]).all()
                    cases += 1
    assert cases >= 50


def test_build_plan_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        build_plan("CV-Fancy", 20)

