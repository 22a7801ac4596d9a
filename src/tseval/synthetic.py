"""Synthetic data-generating processes and the Monte Carlo driver.

Three stationary generators:

* S1: auto-regressive process of order 3,
* S2: invertible moving-average process of order 1,
* S3: seasonal auto-regressive process (lag 12, one seasonal term).

S1/S2 draw real characteristic roots uniformly from
[-r, -1.1] + [1.1, r], which keeps them stable/invertible by
construction. Every generated series is shifted to a minimum of exactly 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .series import TimeSeries, load_csv

__all__ = [
    "DGPSpec",
    "S3Coefficients",
    "sample_roots",
    "roots_to_ar_coefficients",
    "simulate_ar",
    "simulate_ma1",
    "positivize",
    "fit_seasonal_ar",
    "default_s3_coefficients",
    "reference_deaths_series",
    "simulate_s1",
    "simulate_s2",
    "simulate_s3",
    "simulate",
    "monte_carlo",
    "derive_seed",
]

DGP_KINDS = ("s1", "s2", "s3")


@dataclass(frozen=True)
class S3Coefficients:
    """Additive seasonal AR parameters: y_t = c + seasonal*y_{t-period}
    + sum_i nonseasonal_i * y_{t-i} + e_t."""

    intercept: float
    seasonal: float
    nonseasonal: tuple[float, ...] = ()
    period: int = 12

    def char_polynomial(self) -> np.ndarray:
        """Coefficients of 1 - phi_1 z - ... - Phi z^period (ascending powers)."""
        coeffs = np.zeros(self.period + 1)
        coeffs[0] = 1.0
        for i, phi in enumerate(self.nonseasonal, start=1):
            coeffs[i] -= phi
        coeffs[self.period] -= self.seasonal
        return coeffs

    def is_stable(self) -> bool:
        roots = np.roots(self.char_polynomial()[::-1])
        return bool(np.all(np.abs(roots) > 1.0))


@dataclass(frozen=True)
class DGPSpec:
    kind: str = "s1"
    r: float = 5.0
    length: int = 200
    burn_in: int = 200
    innovation_sd: float = 1.0
    s3_coefficients: S3Coefficients | None = None

    def __post_init__(self) -> None:
        if self.kind not in DGP_KINDS:
            raise ValueError(f"kind must be one of {DGP_KINDS}, got {self.kind!r}")
        if not self.r > 1.1:
            raise ValueError("root bound r must exceed 1.1")
        if self.length < 20:
            raise ValueError("length must be >= 20")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.innovation_sd <= 0:
            raise ValueError("innovation_sd must be positive")


def sample_roots(count: int, r: float, rng: np.random.Generator) -> np.ndarray:
    """Draw roots uniformly from [-r, -1.1] + [1.1, r].

    The two intervals have equal length, so each carries half the mass.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not r > 1.1:
        raise ValueError("root bound r must exceed 1.1")
    magnitude = rng.uniform(1.1, r, size=count)
    sign = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    return sign * magnitude


def roots_to_ar_coefficients(roots) -> np.ndarray:
    """Expand prod_i (1 - z/root_i) into 1 - phi_1 z - ... - phi_q z^q
    and return (phi_1, ..., phi_q)."""
    roots = np.asarray(roots, dtype=float)
    if roots.size == 0:
        raise ValueError("need at least one root")
    if np.any(np.abs(roots) <= 1.0):
        raise ValueError("all roots must have modulus > 1 for a stable process")
    poly = np.array([1.0])
    for root in roots:
        poly = np.convolve(poly, np.array([1.0, -1.0 / root]))
    return -poly[1:]


def simulate_ar(
    phi,
    length: int,
    rng: np.random.Generator,
    burn_in: int = 200,
    innovation_sd: float = 1.0,
    intercept: float = 0.0,
) -> np.ndarray:
    """Simulate y_t = intercept + sum_i phi_i y_{t-i} + e_t from a zero start."""
    phi = np.asarray(phi, dtype=float)
    q = phi.size
    total = length + burn_in + q
    eps = rng.normal(0.0, innovation_sd, size=total)
    y = np.zeros(total)
    for t in range(q, total):
        y[t] = intercept + phi @ y[t - q : t][::-1] + eps[t]
    return y[q + burn_in :]


def simulate_ma1(
    theta: float,
    length: int,
    rng: np.random.Generator,
    burn_in: int = 200,
    innovation_sd: float = 1.0,
) -> np.ndarray:
    """Simulate y_t = e_t + theta * e_{t-1}."""
    eps = rng.normal(0.0, innovation_sd, size=length + burn_in + 1)
    y = eps[1:] + theta * eps[:-1]
    return y[burn_in:]


def positivize(series: TimeSeries) -> TimeSeries:
    """Shift so the minimum is exactly 1."""
    values = series.values - series.values.min() + 1.0
    return TimeSeries(values, series.name)


def draw_s1_coefficients(spec: DGPSpec, rng: np.random.Generator) -> np.ndarray:
    """AR(3) coefficients from three freshly sampled roots."""
    return roots_to_ar_coefficients(sample_roots(3, spec.r, rng))


def draw_s2_theta(spec: DGPSpec, rng: np.random.Generator) -> float:
    """MA(1) coefficient theta = -1/z0 for a sampled root z0 of 1 + theta*z."""
    z0 = float(sample_roots(1, spec.r, rng)[0])
    return -1.0 / z0


def simulate_s1(spec: DGPSpec, rng: np.random.Generator) -> TimeSeries:
    phi = draw_s1_coefficients(spec, rng)
    y = simulate_ar(phi, spec.length, rng, spec.burn_in, spec.innovation_sd)
    return positivize(TimeSeries(y, name="s1"))


def simulate_s2(spec: DGPSpec, rng: np.random.Generator) -> TimeSeries:
    theta = draw_s2_theta(spec, rng)
    y = simulate_ma1(theta, spec.length, rng, spec.burn_in, spec.innovation_sd)
    return positivize(TimeSeries(y, name="s2"))


def simulate_s3(spec: DGPSpec, rng: np.random.Generator) -> TimeSeries:
    coeffs = spec.s3_coefficients or default_s3_coefficients()
    if not coeffs.is_stable():
        raise ValueError("seasonal AR coefficient set is unstable")
    phi = np.zeros(coeffs.period)
    for i, value in enumerate(coeffs.nonseasonal, start=1):
        phi[i - 1] = value
    phi[coeffs.period - 1] = coeffs.seasonal
    y = simulate_ar(
        phi, spec.length, rng, spec.burn_in, spec.innovation_sd, coeffs.intercept
    )
    return positivize(TimeSeries(y, name="s3"))


_SIMULATORS = {"s1": simulate_s1, "s2": simulate_s2, "s3": simulate_s3}


def simulate(spec: DGPSpec, rng: np.random.Generator) -> TimeSeries:
    return _SIMULATORS[spec.kind](spec, rng)


def fit_seasonal_ar(series: TimeSeries, period: int = 12, seasonal_order: int = 1) -> np.ndarray:
    """Least-squares fit of y_t on an intercept and y_{t-period*k}, k=1..order.

    Returns (intercept, Phi_1, ..., Phi_order).
    """
    if period < 1 or seasonal_order < 1:
        raise ValueError("period and seasonal_order must be >= 1")
    t = len(series)
    lag_span = period * seasonal_order
    if t <= lag_span + 1:
        raise ValueError(
            f"series length {t} too short for period {period} x order {seasonal_order}"
        )
    y = series.values[lag_span:]
    columns = [np.ones(t - lag_span)]
    for k in range(1, seasonal_order + 1):
        columns.append(series.values[lag_span - k * period : t - k * period])
    X = np.column_stack(columns)
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise ValueError("singular design: seasonal lags are collinear")
    return coef


def reference_deaths_series() -> TimeSeries:
    """Bundled monthly accidental-deaths series used for the S3 defaults."""
    with resources.as_file(
        resources.files("tseval").joinpath("data/us_accidental_deaths.csv")
    ) as path:
        return load_csv(path, column="deaths", name="us_accidental_deaths")


@lru_cache(maxsize=1)
def default_s3_coefficients() -> S3Coefficients:
    coef = fit_seasonal_ar(reference_deaths_series(), period=12, seasonal_order=1)
    return S3Coefficients(intercept=float(coef[0]), seasonal=float(coef[1]))


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 63-bit seed from the base seed and any labels; adding methods,
    problems or trials never perturbs the seeds of the existing ones."""
    key = ":".join([str(base_seed), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") >> 1


def monte_carlo(dgp: DGPSpec, trials: int, base_seed: int):
    """Yield ``trials`` independent series; trial i is seeded with
    ``derive_seed(base_seed, "trial", i)``, so a given (dgp, trials,
    base_seed) always reproduces the same stream and different base seeds
    give unrelated streams."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(base_seed, "trial", trial))
        series = simulate(dgp, rng)
        yield TimeSeries(series.values, name=f"{dgp.kind}-{trial:04d}")
