import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import tseval.stationarity
from tseval import (
    KPSS_CRITICAL_5PCT,
    TimeSeries,
    difference,
    kpss_statistic,
    ndiffs,
    wavelet_stationarity_test,
)


def test_kpss_constant_is_zero():
    assert kpss_statistic(TimeSeries(np.full(50, 2.0))) == 0.0


def test_kpss_exact_trend_is_zero_under_trend_variant():
    assert kpss_statistic(TimeSeries(3.0 + 0.5 * np.arange(100.0))) == 0.0


def test_kpss_too_short():
    with pytest.raises(ValueError):
        kpss_statistic(TimeSeries(np.arange(9.0)))


def test_kpss_level_separates_walks_from_noise():
    # coarse Monte Carlo check of the trend variant, the only one ndiffs uses
    walks = noise = 0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        walks += kpss_statistic(TimeSeries(np.cumsum(rng.normal(size=1000)))) > KPSS_CRITICAL_5PCT
        noise += kpss_statistic(TimeSeries(rng.normal(size=1000))) > KPSS_CRITICAL_5PCT
    assert walks >= 24
    assert noise <= 4


def test_ndiffs_basics():
    assert ndiffs(TimeSeries(np.full(30, 7.0))) == 0
    walk = TimeSeries(np.cumsum(np.random.default_rng(0).normal(size=1000)))
    assert ndiffs(walk) == 1
    with pytest.raises(ValueError):
        ndiffs(TimeSeries(np.arange(11.0)), max_d=2)
    with pytest.raises(ValueError):
        ndiffs(TimeSeries(np.arange(100.0)), max_d=3)


def test_ndiffs_monotone_rejection():
    # whenever d* > 0 is returned, the trend test must reject at every d < d*
    for seed in range(20):
        series = TimeSeries(np.cumsum(np.random.default_rng(seed).normal(size=500)))
        d_star = ndiffs(series)
        for d in range(d_star):
            assert kpss_statistic(difference(series, d)) > KPSS_CRITICAL_5PCT


def test_wavelet_constant_series_is_stationary():
    result = wavelet_stationarity_test(TimeSeries(np.full(128, 5.0)))
    assert result.stationary
    assert result.rejections == ()


def test_wavelet_verdict_deterministic_and_consistent():
    rng = np.random.default_rng(1000)
    y = np.concatenate([rng.normal(0, 1, 256), rng.normal(0, 2, 256)])
    a = wavelet_stationarity_test(TimeSeries(y))
    b = wavelet_stationarity_test(TimeSeries(y))
    assert a == b
    assert a.stationary == (len(a.rejections) == 0)


def test_wavelet_flags_variance_break():
    rng = np.random.default_rng(1000)
    y = np.concatenate([rng.normal(0, 1, 256), rng.normal(0, 2, 256)])
    result = wavelet_stationarity_test(TimeSeries(y))
    assert not result.stationary
    r = result.rejections[0]
    assert r.periodogram_level >= 1
    assert r.coefficient_scale >= 2
    assert r.position >= 0


def test_wavelet_accepts_white_noise_sample():
    assert wavelet_stationarity_test(TimeSeries(np.random.default_rng(0).normal(size=512))).stationary


def test_wavelet_fdr_mode_detects_break_too():
    rng = np.random.default_rng(1001)
    y = np.concatenate([rng.normal(0, 1, 256), rng.normal(0, 2, 256)])
    bonf = wavelet_stationarity_test(TimeSeries(y))
    fdr = wavelet_stationarity_test(TimeSeries(y), correction="fdr")
    assert not fdr.stationary
    # Benjamini-Hochberg never rejects less than Bonferroni at the same alpha
    assert len(fdr.rejections) >= len(bonf.rejections)


@pytest.mark.parametrize("correction", ["bonferroni", "fdr"])
def test_wavelet_rejections_come_in_level_scale_position_order(correction):
    rng = np.random.default_rng(1000)
    y = np.concatenate([rng.normal(0, 1, 512), rng.normal(0, 3, 512)])
    triples = [(r.periodogram_level, r.coefficient_scale, r.position)
               for r in wavelet_stationarity_test(TimeSeries(y), correction=correction).rejections]
    assert len({level for level, _, _ in triples}) > 1
    assert len({scale for _, scale, _ in triples}) > 1
    assert triples == sorted(set(triples))


def test_wavelet_validation():
    with pytest.raises(ValueError):
        wavelet_stationarity_test(TimeSeries(np.arange(63.0)))
    with pytest.raises(ValueError):
        wavelet_stationarity_test(TimeSeries(np.arange(128.0)), alpha=0.7)
    with pytest.raises(ValueError):
        wavelet_stationarity_test(TimeSeries(np.arange(128.0)), correction="holm")


def test_wavelet_uses_most_recent_power_of_two():
    rng = np.random.default_rng(4)
    result = wavelet_stationarity_test(TimeSeries(rng.normal(size=700)))
    assert result.n_used == 512


def _oracle_series():
    """Seeded walks, level shifts, variance breaks and noise of varied length."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        yield np.cumsum(rng.normal(size=300))
        yield rng.normal(size=400) + np.where(np.arange(400) < 200, 0.0, 1.5)
        yield np.concatenate([rng.normal(0, 1, 128), rng.normal(0, 1.8, 128)])
        yield rng.normal(size=int(rng.integers(64, 520)))
    yield np.cumsum(np.random.default_rng(1).normal(size=1024) + 0.05)


def test_wavelet_normal_tails_match_scipy(monkeypatch):
    scipy_stats = pytest.importorskip("scipy.stats")
    from scipy.special import ndtr

    norm = scipy_stats.norm
    # ndtr(-z) is the value norm.sf(z) returns, without its per-call overhead
    z = np.linspace(0.0, 40.0, 401)
    assert ndtr(-z).tobytes() == norm.sf(z).tobytes()
    cases = [
        (TimeSeries(y), alpha, correction)
        for y in _oracle_series()
        for alpha in (0.01, 0.05, 0.1)
        for correction in ("bonferroni", "fdr")
    ]
    with monkeypatch.context() as patch:
        patch.setattr(tseval.stationarity, "NormalDist",
                      lambda: SimpleNamespace(inv_cdf=lambda q: float(norm.ppf(q))))
        # the p-value is erfc(z / sqrt 2); x * sqrt 2 gives back z to an ulp
        patch.setattr(tseval.stationarity, "math", SimpleNamespace(
            sqrt=math.sqrt, erfc=lambda x: 2.0 * float(ndtr(-x * math.sqrt(2.0)))))
        expected = [wavelet_stationarity_test(*case) for case in cases]
    assert [wavelet_stationarity_test(*case) for case in cases] == expected
    # rejection totals that scipy's norm gave on these cases; patching the
    # functions alone cannot catch a wrong formula around them
    totals = Counter()
    for result, (_, alpha, correction) in zip(expected, cases):
        totals[correction, alpha] += len(result.rejections)
    assert totals == {
        ("bonferroni", 0.01): 8, ("bonferroni", 0.05): 30, ("bonferroni", 0.1): 85,
        ("fdr", 0.01): 181, ("fdr", 0.05): 522, ("fdr", 0.1): 802,
    }
    assert {result.stationary for result in expected} == {True, False}
