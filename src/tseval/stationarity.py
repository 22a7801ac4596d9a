"""Differencing-order selection (KPSS) and a wavelet-spectrum stationarity test.

The differencing order comes from the trend variant of the KPSS test
(Kwiatkowski et al. 1992): residuals from a regression on an intercept and a
linear trend, compared with the 5% critical value 0.146, as in ``ndiffs``.

The wavelet test screens a series for second-order non-stationarity:

1. truncate to the most recent power-of-two window,
2. compute the non-decimated Haar raw wavelet periodogram per level,
3. smooth each level with a running mean,
4. take Haar coefficients of each smoothed level over a range of dyadic
   scales, and
5. studentize each coefficient and apply a two-sided normal test with a
   Bonferroni (or Benjamini-Hochberg) correction over every
   (level, scale, position) triple.

Simplifications versus a full evolutionary-wavelet-spectrum analysis: no
periodogram bias correction; the smoothing window is 2^ceil(J/2); the
smoothed periodogram is log-transformed (variance stabilization) before
the second-stage Haar analysis; the coefficient spread per level is the
median absolute deviation at the finest analysed scale, floored by and
transferred to the other scales through the analytic Gaussian-noise
values, which the log transform makes parameter-free; the
analysed Haar scales run from twice the smoothing window up to the full
smoothed length (finer scales only see pairs of raw chi-square
periodogram values, whose heavy tails break the normal studentization).
The false-positive and power behaviour of this variant is pinned by the
calibration tests.

Normal quantiles and tail probabilities come from the standard library
(``statistics.NormalDist`` and ``math.erfc``), so the module needs numpy
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .series import TimeSeries, difference

__all__ = [
    "KPSS_CRITICAL_5PCT",
    "kpss_statistic",
    "ndiffs",
    "Rejection",
    "WaveletTestResult",
    "wavelet_stationarity_test",
]

# standard 5% critical value of the trend variant
KPSS_CRITICAL_5PCT = 0.146

_MAD_TO_SD = 1.4826022185056018  # 1 / Phi^{-1}(3/4)


def kpss_statistic(series: TimeSeries) -> float:
    """KPSS statistic: normalized partial sums of residuals from a regression
    on an intercept plus linear trend.

    The long-run variance uses a Bartlett window with bandwidth
    floor(4 * (n/100)^(1/4)). Identically-zero residuals give 0.
    """
    y = series.values
    n = y.size
    if n < 10:
        raise ValueError(f"KPSS needs at least 10 observations, got {n}")
    X = np.column_stack([np.ones(n), np.arange(1.0, n + 1.0)])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    # residuals that are pure rounding noise count as identically zero
    if float(np.sqrt(np.mean(resid**2))) <= 1e-10 * max(1.0, float(np.abs(y).max())):
        return 0.0
    bandwidth = int(np.floor(4.0 * (n / 100.0) ** 0.25))
    lrv = float(resid @ resid) / n
    for lag in range(1, bandwidth + 1):
        gamma = float(resid[lag:] @ resid[:-lag]) / n
        lrv += 2.0 * (1.0 - lag / (bandwidth + 1.0)) * gamma
    if lrv <= 0.0:
        return 0.0
    partial = np.cumsum(resid)
    return float(partial @ partial) / (n * n * lrv)


def ndiffs(series: TimeSeries, max_d: int = 2) -> int:
    """Smallest number of differences after which the trend-variant KPSS test
    no longer rejects at the 5% level; ``max_d`` if none qualifies."""
    if max_d not in (0, 1, 2):
        raise ValueError("max_d must be 0, 1 or 2")
    if len(series) - max_d < 10:
        raise ValueError(f"series too short to difference {max_d} times and test")
    for d in range(max_d + 1):
        if kpss_statistic(difference(series, d)) <= KPSS_CRITICAL_5PCT:
            return d
    return max_d


@dataclass(frozen=True)
class Rejection:
    """One flagged (level, scale, position) triple.

    ``periodogram_level`` is the first-stage wavelet level j (span 2^j),
    ``coefficient_scale`` the span of the flagged Haar coefficient, and
    ``position`` the start of its support within the smoothed periodogram
    sequence of that level.
    """

    periodogram_level: int
    coefficient_scale: int
    position: int


@dataclass(frozen=True)
class WaveletTestResult:
    stationary: bool
    rejections: tuple[Rejection, ...]
    n_tests: int
    n_used: int


def _haar_details(values: np.ndarray, span: int) -> np.ndarray:
    """Non-decimated unit-norm Haar coefficients with support ``span``
    (first half minus second half, scaled by span^-1/2)."""
    half = span // 2
    csum = np.concatenate(([0.0], np.cumsum(values)))
    first = csum[half:-half] - csum[:-span]
    second = csum[span:] - csum[half:-half]
    return (first - second) / np.sqrt(span)


def _running_mean(values: np.ndarray, window: int) -> np.ndarray:
    csum = np.concatenate(([0.0], np.cumsum(values)))
    return (csum[window:] - csum[:-window]) / window


def _haar_filter_acf(span: int) -> np.ndarray:
    """Autocovariance of the unit-norm Haar filter for shifts 0..span-1."""
    delta = np.arange(span, dtype=float)
    return np.where(delta <= span / 2, 1.0 - 3.0 * delta / span, delta / span - 1.0)


@lru_cache(maxsize=None)
def _analytic_coefficient_sd(level_span: int, scale: int, smooth_window: int) -> float:
    """Standard deviation, under Gaussian noise, of a Haar coefficient of the
    log running-mean of the squared level-``level_span`` periodogram.

    The log transform removes the noise variance, so this is a pure number:
    the periodogram autocorrelation is the squared Haar-filter
    autocovariance (Isserlis), the running mean contributes a triangular
    kernel, and the delta method carries the result through the log.
    """
    rho_half = _haar_filter_acf(level_span) ** 2
    rho = np.concatenate([rho_half[::-1], rho_half[1:]])
    w = smooth_window
    tri = np.concatenate([np.arange(1.0, w + 1.0), np.arange(w - 1.0, 0.0, -1.0)])
    gamma = (2.0 / w**2) * np.convolve(rho, tri)  # autocovariance of log smooth
    acf_half = _haar_filter_acf(scale)
    acf = np.concatenate([acf_half[::-1], acf_half[1:]])
    # align the two symmetric sequences at zero shift and sum the products
    mid_g, mid_a = len(gamma) // 2, len(acf) // 2
    span = min(mid_g, mid_a)
    g = gamma[mid_g - span : mid_g + span + 1]
    a = acf[mid_a - span : mid_a + span + 1]
    return float(np.sqrt(max(float(g @ a), 0.0)))


def wavelet_stationarity_test(
    series: TimeSeries,
    alpha: float = 0.05,
    correction: str = "bonferroni",
) -> WaveletTestResult:
    """Test second-order stationarity; see the module docstring for the recipe.

    ``correction`` is ``"bonferroni"`` (default) or ``"fdr"`` for a
    Benjamini-Hochberg false-discovery-rate alternative. The verdict is
    deterministic for a fixed series.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")
    if correction not in ("bonferroni", "fdr"):
        raise ValueError("correction must be 'bonferroni' or 'fdr'")
    t = len(series)
    if t < 64:
        raise ValueError(f"wavelet test needs at least 64 observations, got {t}")

    J = int(np.floor(np.log2(t)))
    n_used = 2**J
    y = series.values[t - n_used :]
    smooth_window = 2 ** int(np.ceil(J / 2))

    blocks: list[tuple[int, int, np.ndarray]] = []  # (level, scale, |z| per position)
    for level in range(1, max(J - 2, 1) + 1):
        periodogram = _haar_details(y, 2**level) ** 2
        if periodogram.size < smooth_window + 1:
            continue
        smoothed = _running_mean(periodogram, smooth_window)
        top = float(smoothed.max())
        if top <= 0.0:
            continue  # constant data: a flat spectrum carries no evidence
        log_smoothed = np.log(np.maximum(smoothed, 1e-10 * top))
        m = log_smoothed.size
        base_scale = 2 * smooth_window
        if base_scale > m:
            continue
        # noise level anchored at the finest analysed scale (most positions,
        # least contamination by any true spectrum change), then transferred
        # to coarser scales through the analytic Gaussian ratios
        finest = _haar_details(log_smoothed, base_scale)
        mad_sd = float(np.median(np.abs(finest - np.median(finest)))) * _MAD_TO_SD
        anchor = _analytic_coefficient_sd(2**level, base_scale, smooth_window)
        multiplier = max(1.0, mad_sd / anchor) if anchor > 0 else 1.0
        scale = base_scale
        while scale <= m:
            sd = _analytic_coefficient_sd(2**level, scale, smooth_window) * multiplier
            if sd > 0.0:
                blocks.append((level, scale, np.abs(_haar_details(log_smoothed, scale)) / sd))
            scale *= 2

    z = np.concatenate([np.empty(0)] + [block for *_, block in blocks])
    n_tests = z.size
    if not n_tests:
        flagged = np.zeros(0, dtype=bool)
    elif correction == "bonferroni":
        flagged = z > NormalDist().inv_cdf(1.0 - alpha / (2.0 * n_tests))
    else:
        pvals = np.array([math.erfc(v / math.sqrt(2.0)) for v in z])
        ranked = np.sort(pvals)
        passing = ranked[ranked <= alpha * (np.arange(1, n_tests + 1) / n_tests)]
        # BH rejects every p-value up to the largest passing one
        flagged = pvals <= (passing[-1] if passing.size else -1.0)
    # blocks are in (level, scale) order, so rejections come out in
    # (level, scale, position) order
    rejections: list[Rejection] = []
    start = 0
    for level, scale, block in blocks:
        hits = np.flatnonzero(flagged[start : start + block.size])
        rejections += (Rejection(level, scale, int(pos)) for pos in hits)
        start += block.size
    return WaveletTestResult(
        stationary=not rejections,
        rejections=tuple(rejections),
        n_tests=n_tests,
        n_used=n_used,
    )
