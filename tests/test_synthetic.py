from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tseval import (
    DGPSpec,
    TimeSeries,
    load_csv,
    monte_carlo,
    positivize,
    roots_to_ar_coefficients,
    sample_roots,
    simulate,
    simulate_ma1,
)
from tseval.synthetic import DGP_KINDS, S3_INTERCEPT, S3_SEASONAL, derive_seed, simulate_ar

DEATHS = Path(__file__).parent / "golden" / "us_accidental_deaths.csv"


def test_sample_roots_band_and_mean():
    rng = np.random.default_rng(7)
    roots = sample_roots(100_000, 5.0, rng)
    mags = np.abs(roots)
    assert np.all((mags >= 1.1) & (mags <= 5.0))
    # uniform magnitude on [1.1, 5] has mean 3.05
    assert np.mean(mags) == pytest.approx(3.05, abs=0.02)


def test_sample_roots_interval_collapse():
    roots = sample_roots(1000, 1.1 + 1e-9, np.random.default_rng(0))
    assert np.abs(np.abs(roots) - 1.1) .max() < 1e-8


def test_sample_roots_validation():
    with pytest.raises(ValueError):
        sample_roots(0, 5.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_roots(3, 1.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_roots(3, np.inf, np.random.default_rng(0))


def test_roots_to_coefficients_hand_expansion():
    # (1 - z/2)(1 + z/2)(1 - z/5) = 1 - z/5 - z^2/4 + z^3/20
    phi = roots_to_ar_coefficients([2.0, -2.0, 5.0])
    assert phi == pytest.approx([0.2, 0.25, -0.05])
    assert roots_to_ar_coefficients([2.0]) == pytest.approx([0.5])


def test_roots_to_coefficients_rejects_unstable():
    with pytest.raises(ValueError):
        roots_to_ar_coefficients([0.9])
    with pytest.raises(ValueError):
        roots_to_ar_coefficients([])


def test_char_polynomial_roots_stay_outside_unit_circle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        phi = roots_to_ar_coefficients(sample_roots(3, 5.0, rng))
        poly = np.concatenate(([1.0], -phi))[::-1]
        assert np.all(np.abs(np.roots(poly)) > 1.0)


def test_positivize_examples():
    assert positivize(TimeSeries([-3.0, 0.0, 2.0])).values.tolist() == [1.0, 4.0, 6.0]
    assert positivize(TimeSeries([5.0])).values.tolist() == [1.0]


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=40))
def test_positivize_idempotent(values):
    once = positivize(TimeSeries(values))
    twice = positivize(once)
    assert np.array_equal(once.values, twice.values)
    assert once.values.min() == 1.0


@pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
def test_series_minimum_exactly_one(kind):
    spec = DGPSpec(kind=kind)
    for series in monte_carlo(spec, 20, base_seed=3):
        assert len(series) == spec.length
        assert series.values.min() == 1.0


@pytest.mark.parametrize("kind", DGP_KINDS)
def test_simulate_replays_its_generator(kind):
    # one seed drives the coefficient draw, the recursion and the shift, in
    # that order; S2's theta = -1/z0 is invertible for every root drawn
    spec = DGPSpec(kind=kind, length=40, burn_in=25)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        if kind == "s1":
            y = simulate_ar(roots_to_ar_coefficients(sample_roots(3, spec.r, rng)), 40, rng, 25)
        elif kind == "s2":
            theta = -1.0 / float(sample_roots(1, spec.r, rng)[0])
            assert 0.2 - 1e-12 <= abs(theta) <= 1 / 1.1 + 1e-12
            y = simulate_ma1(theta, 40, rng, 25)
        else:
            y = simulate_ar([0.0] * 11 + [S3_SEASONAL], 40, rng, 25, intercept=S3_INTERCEPT)
        got = simulate(spec, np.random.default_rng(seed))
        assert got.name == kind
        assert got.values.tobytes() == positivize(TimeSeries(y)).values.tobytes()


def test_ma1_autocorrelation_matches_formula():
    theta = 0.6
    y = simulate_ma1(theta, 100_000, np.random.default_rng(3))
    yc = y - y.mean()
    denom = float(yc @ yc)
    lag1 = float(yc[1:] @ yc[:-1]) / denom
    lag2 = float(yc[2:] @ yc[:-2]) / denom
    assert lag1 == pytest.approx(theta / (1 + theta**2), abs=0.01)
    assert lag2 == pytest.approx(0.0, abs=0.01)


def test_s3_constants_are_the_seasonal_fit_to_the_deaths_series():
    # least squares of y_t = c + Phi y_{t-12} on the 72 monthly US accidental
    # deaths of 1973-1978
    y = load_csv(DEATHS, column="deaths").values
    assert y.size == 72
    X = np.column_stack([np.ones(y.size - 12), y[:-12]])
    (intercept, seasonal), _, rank, _ = np.linalg.lstsq(X, y[12:], rcond=None)
    assert rank == 2
    assert intercept == pytest.approx(S3_INTERCEPT, abs=1e-9)
    assert seasonal == pytest.approx(S3_SEASONAL, abs=1e-12)
    assert abs(S3_SEASONAL) < 1.0


def test_s3_is_the_fitted_seasonal_recursion():
    series = simulate(DGPSpec(kind="s3", length=60, burn_in=30), np.random.default_rng(4))
    eps = np.random.default_rng(4).normal(size=12 + 30 + 60)
    y = np.zeros(eps.size)
    for t in range(12, y.size):
        y[t] = S3_INTERCEPT + S3_SEASONAL * y[t - 12] + eps[t]
    expected = y[12 + 30 :]
    assert np.allclose(series.values, expected - expected.min() + 1.0, rtol=0.0, atol=1e-9)


def test_dgp_spec_validation():
    with pytest.raises(ValueError):
        DGPSpec(kind="s9")
    with pytest.raises(ValueError):
        DGPSpec(r=1.05)
    with pytest.raises(ValueError):
        DGPSpec(length=5)
    with pytest.raises(ValueError):
        DGPSpec(innovation_sd=0.0)


def test_monte_carlo_deterministic_and_seed_derivation():
    spec = DGPSpec(kind="s1")
    a = [s.values for s in monte_carlo(spec, 3, base_seed=9)]
    b = [s.values for s in monte_carlo(spec, 3, base_seed=9)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert derive_seed(9, "trial", 0) == 5728405213831603916
    assert derive_seed(9, "trial", 2) == 9172746319546877638
    single = simulate(spec, np.random.default_rng(derive_seed(9, "trial", 0)), "named")
    assert np.array_equal(a[0], single.values) and single.name == "named"
    # base seeds 2 and 3 once shared their trial seeds (2 ^ i and 3 ^ i)
    streams = [s.values.tobytes() for base in (1, 2, 3, 4) for s in monte_carlo(spec, 4, base)]
    assert len(set(streams)) == 16


def test_monte_carlo_names_trials():
    names = [s.name for s in monte_carlo(DGPSpec(kind="s2"), 2, base_seed=0)]
    assert names == ["s2-0000", "s2-0001"]
