import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tseval import (
    EmbeddedDataset,
    TimeSeries,
    embed,
    embedding,
    estimate_embedding_dimension,
    fnn_fractions,
)
from tseval.evaluation import KNN_WINDOW


def brute_fnn_fraction(y, d, r_tol=10.0, a_tol=2.0):
    """Straight-loop reference for the false-neighbour fraction at dimension d."""
    t = len(y)
    m = t - d
    sd = float(np.std(y))
    zero = 1e-9 * sd
    false = 0
    for i in range(m):
        dup_j, best_j, best_d2 = -1, -1, np.inf
        for j in range(m):
            if j == i:
                continue
            d2 = 0.0
            for k in range(d):
                d2 += (y[i + k] - y[j + k]) ** 2
            if dup_j < 0 and d2 <= zero * zero:
                dup_j = j
            if d2 < best_d2:
                best_d2, best_j = d2, j
        if dup_j >= 0:
            false += abs(y[i + d] - y[dup_j + d]) > zero
            continue
        dist = np.sqrt(best_d2)
        extra = abs(y[i + d] - y[best_j + d])
        if extra / dist > r_tol or np.sqrt(best_d2 + extra**2) > a_tol * sd:
            false += 1
    return false / m


def test_embed_small_example():
    ds = embed(TimeSeries([1, 2, 3, 4, 5]), 2)
    assert ds.predictors.tolist() == [[1, 2], [2, 3], [3, 4]]
    assert ds.targets.tolist() == [3, 4, 5]


def test_embed_minimal():
    ds = embed(TimeSeries([1, 2]), 1)
    assert ds.predictors.tolist() == [[1]]
    assert ds.targets.tolist() == [2]


def test_embed_row_count_for_study_length():
    ds = embed(TimeSeries(np.arange(200.0)), 5)
    assert ds.n == 195


def test_embed_rejects_large_p():
    with pytest.raises(ValueError):
        embed(TimeSeries([1.0, 2.0]), 2)
    with pytest.raises(ValueError):
        embed(TimeSeries([1.0, 2.0]), 0)


def test_embedded_dataset_rejects_non_finite_values():
    # run_plan's k-NN branch reads distances without a per-fold fit, so the
    # dataset itself refuses what fit would refuse
    X, y = np.ones((4, 2)), np.ones(4)
    with pytest.raises(ValueError, match="finite"):
        EmbeddedDataset(np.where(np.eye(4, 2), np.nan, X), y, 2)
    with pytest.raises(ValueError, match="finite"):
        EmbeddedDataset(X, np.array([1.0, np.inf, 1.0, 1.0]), 2)


def test_embed_consecutive_rows_overlap():
    ds = embed(TimeSeries(np.arange(30.0)), 4)
    for k in range(ds.n - 1):
        assert np.array_equal(ds.predictors[k, 1:], ds.predictors[k + 1, :-1])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=3, max_size=40),
    st.integers(min_value=1, max_value=6),
)
def test_embed_cell_multiplicities(values, p):
    if len(values) <= p:
        return
    s = TimeSeries(values)
    ds = embed(s, p)
    n = ds.n
    cells = np.concatenate([ds.predictors.ravel(), ds.targets])
    for i, v in enumerate(s.values):
        expected = max(0, min(i, n - 1) - max(0, i - p) + 1)
        assert np.count_nonzero(cells == v) >= expected  # duplicates only add


def test_fnn_sine_matches_brute_force_and_selects_two():
    y = np.sin(2 * np.pi * np.arange(400) / 20.0)
    s = TimeSeries(y)
    lib = fnn_fractions(s, 3)
    assert lib.tolist() == [brute_fnn_fraction(y, d) for d in (1, 2, 3)]
    assert lib[0] > 0.01
    assert lib[1] == 0.0
    assert estimate_embedding_dimension(s, d_max=10) == 2


_RNG = np.random.default_rng(11)


@pytest.mark.parametrize("y", [
    # one decimal of 150 normal draws repeats values and whole points
    np.round(_RNG.normal(size=150), 1),
    # at level 9000 a Gram expansion of the distances loses about eight digits
    9000.0 + np.cumsum(_RNG.normal(size=150)),
    np.full(60, 3.0),
], ids=["rounded-noise", "walk-at-9000", "constant"])
def test_fnn_matches_brute_force(y):
    lib = fnn_fractions(TimeSeries(y), 3)
    assert lib.tolist() == [brute_fnn_fraction(y, d) for d in (1, 2, 3)]


def test_fnn_constant_series():
    s = TimeSeries(np.full(60, 3.0))
    assert estimate_embedding_dimension(s, d_max=5) == 1
    assert fnn_fractions(s, 5).tolist() == [0.0] * 5


def test_fnn_deterministic_and_bounded():
    rng = np.random.default_rng(0)
    s = TimeSeries(rng.normal(size=120))
    with pytest.warns(UserWarning):
        first = estimate_embedding_dimension(s, d_max=4)
    with pytest.warns(UserWarning):
        second = estimate_embedding_dimension(s, d_max=4)
    assert first == second <= 4


def test_fnn_warns_when_nothing_qualifies():
    s = TimeSeries(np.random.default_rng(3).normal(size=80))
    with pytest.warns(UserWarning, match="d_max"):
        assert estimate_embedding_dimension(s, d_max=3) == 3


def test_fnn_preconditions():
    with pytest.raises(ValueError):
        estimate_embedding_dimension(TimeSeries(np.arange(10.0)), d_max=9)
    with pytest.raises(ValueError):
        estimate_embedding_dimension(TimeSeries(np.arange(50.0)), d_max=5, tolerance=0.0)


def test_fnn_ar3_distribution_frozen():
    """Selected dimension over 100 seeded AR(3) draws (n=200, d_max=10).

    The loneliness criterion keeps a false-neighbour floor of a few percent
    on short stochastic series, so most draws fall back to d_max; the
    distribution below was computed once with the brute-force oracle
    settings and is frozen as the contract.
    """
    from tseval.synthetic import DGPSpec, simulate

    spec = DGPSpec(kind="s1")
    counts = {}
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(100):
            series = simulate(spec, np.random.default_rng(seed))
            d = estimate_embedding_dimension(series, d_max=10)
            counts[d] = counts.get(d, 0) + 1
    assert counts == {3: 3, 4: 10, 5: 1, 10: 86}


@pytest.mark.parametrize("tolerance", [0.01, 0.05, 0.2])
def test_fnn_early_stop_picks_the_first_qualifying_dimension(tolerance):
    rng = np.random.default_rng(21)
    i = np.arange(500)
    for y in (np.sin(2 * np.pi * i / 20.0) + 0.05 * rng.normal(size=500),
              50.0 + np.cumsum(2.0 + rng.normal(size=500)),
              10.0 + 0.01 * i + 3.0 * np.sin(2 * np.pi * i / 12.0) + rng.normal(size=500)):
        s = TimeSeries(y)
        qualifying = np.flatnonzero(fnn_fractions(s, 12) <= tolerance)
        if qualifying.size:
            assert estimate_embedding_dimension(s, 12, tolerance) == qualifying[0] + 1
        else:
            with pytest.warns(UserWarning, match="d_max"):
                assert estimate_embedding_dimension(s, 12, tolerance) == 12


def test_fnn_fallback_still_warns_after_every_dimension():
    s = TimeSeries(np.random.default_rng(3).normal(size=80))
    assert np.all(fnn_fractions(s, 3) > 0.01)
    with pytest.warns(UserWarning, match="d_max=3"):
        assert estimate_embedding_dimension(s, d_max=3) == 3


def test_fnn_matches_brute_force_over_several_row_chunks():
    y = np.round(50.0 + np.cumsum(np.random.default_rng(22).normal(size=800)), 1)
    assert (len(y) - 1) ** 2 > embedding._CHUNK  # each step takes several row chunks
    assert len(y) - 1 > 3 * embedding._BLOCK  # and the last block's rows have three above
    lib = fnn_fractions(TimeSeries(y), 3)
    assert lib.tolist() == [brute_fnn_fraction(y.tolist(), d) for d in (1, 2, 3)]


def test_fnn_memory_is_about_half_a_running_sum_matrix():
    # the upper triangle of the (t-1) x (t-1) sums, in blocks, and row chunks
    t = 2000
    s = TimeSeries(np.random.default_rng(23).normal(size=t))
    tracemalloc.start()
    try:
        fnn_fractions(s, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 8 * (t - 1) ** 2


def test_knn_window_is_a_stable_sort():
    # one decimal puts many rows equally far apart, also at the window's edge
    ds = embed(TimeSeries(np.round(np.random.default_rng(24).normal(size=300), 1)), 2)
    window = embedding.nearest_rows(ds.predictors, ds.predictors, KNN_WINDOW)
    assert ds.n > KNN_WINDOW and window.shape == (ds.n, KNN_WINDOW)
    D = embedding.squared_distances(ds.predictors, ds.predictors)
    expected = np.argsort(D, axis=1, kind="stable")[:, :KNN_WINDOW]
    assert np.array_equal(window, expected)


def coordinate_loop(A, B):
    """Squared distances as the running sum over coordinates, in order."""
    out = np.zeros((A.shape[0], B.shape[0]))
    for j in range(A.shape[1]):
        out += (A[:, None, j] - B[None, :, j]) ** 2
    return out


@pytest.mark.parametrize("values", ["normal", "one-decimal", "huge"])
@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 12, 30])
def test_squared_distances_are_the_coordinate_order_running_sum(p, values):
    rng = np.random.default_rng([25, p])
    A, B = rng.normal(size=(100, p)), rng.normal(size=(900, p))
    if values == "one-decimal":
        A, B = np.round(A, 1), np.round(B, 1)
    elif values == "huge":  # most squares overflow to inf
        A, B = 1e154 * A, 1e154 * B
    assert A.shape[0] * B.shape[0] > 2 * embedding._CHUNK // 4  # several row chunks
    with np.errstate(over="ignore"):
        whole = embedding.squared_distances(A, B)
        assert whole.tobytes() == coordinate_loop(A, B).tobytes()
        for i in range(A.shape[0]):
            assert embedding.squared_distances(A[i : i + 1], B).tobytes() == whole[i].tobytes()
    assert np.isinf(whole).any() == (values == "huge")


@pytest.mark.parametrize("m, n, p", [(0, 5, 3), (4, 0, 3), (0, 0, 2), (4, 5, 0)])
def test_squared_distances_of_empty_inputs(m, n, p):
    rng = np.random.default_rng(26)
    dist = embedding.squared_distances(rng.normal(size=(m, p)), rng.normal(size=(n, p)))
    assert dist.shape == (m, n) and np.all(dist == 0.0)
