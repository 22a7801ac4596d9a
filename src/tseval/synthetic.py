"""Synthetic data-generating processes and the Monte Carlo driver.

:func:`simulate` draws a series from one of three stationary generators
(``DGP_KINDS``):

* S1: auto-regressive process of order 3,
* S2: invertible moving-average process of order 1,
* S3: seasonal auto-regressive process y_t = c + Phi y_{t-12} + e_t.

S1/S2 draw real characteristic roots uniformly from
[-r, -1.1] + [1.1, r], which keeps them stable/invertible by
construction. S3's intercept c and seasonal coefficient Phi are the constants
``S3_INTERCEPT`` and ``S3_SEASONAL``, fitted once by least squares to the
monthly US accidental deaths of 1973-1978; ``tests/golden`` holds that series
and the test that refits it. |Phi| < 1 keeps the process stable. Every
generated series is shifted to a minimum of exactly 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries

__all__ = [
    "DGP_KINDS",
    "S3_INTERCEPT",
    "S3_SEASONAL",
    "DGPSpec",
    "sample_roots",
    "roots_to_ar_coefficients",
    "simulate_ar",
    "simulate_ma1",
    "positivize",
    "simulate",
    "monte_carlo",
    "derive_seed",
]

DGP_KINDS = ("s1", "s2", "s3")
SEASONAL_PERIOD = 12
S3_INTERCEPT = 2006.858908595285
S3_SEASONAL = 0.7522454193707956


@dataclass(frozen=True)
class DGPSpec:
    kind: str = "s1"
    r: float = 5.0
    length: int = 200
    burn_in: int = 200
    innovation_sd: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in DGP_KINDS:
            raise ValueError(f"kind must be one of {DGP_KINDS}, got {self.kind!r}")
        if not 1.1 < self.r < np.inf:
            raise ValueError("root bound r must exceed 1.1 and be finite")
        if self.length < 20:
            raise ValueError("length must be >= 20")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if not 0 < self.innovation_sd < np.inf:
            raise ValueError("innovation_sd must be positive and finite")


def sample_roots(count: int, r: float, rng: np.random.Generator) -> np.ndarray:
    """Draw roots uniformly from [-r, -1.1] + [1.1, r].

    The two intervals have equal length, so each carries half the mass.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 1.1 < r < np.inf:
        raise ValueError("root bound r must exceed 1.1 and be finite")
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


def simulate(spec: DGPSpec, rng: np.random.Generator, name: str | None = None) -> TimeSeries:
    """One positivized series of ``spec.kind``, named ``name`` (the kind when
    None). S1 draws its AR(3) coefficients from three sampled roots; S2 takes
    theta = -1/z0 for one sampled root z0 of 1 + theta z."""
    if spec.kind == "s2":
        theta = -1.0 / float(sample_roots(1, spec.r, rng)[0])
        y = simulate_ma1(theta, spec.length, rng, spec.burn_in, spec.innovation_sd)
    else:
        if spec.kind == "s1":
            phi, intercept = roots_to_ar_coefficients(sample_roots(3, spec.r, rng)), 0.0
        else:
            phi, intercept = np.zeros(SEASONAL_PERIOD), S3_INTERCEPT
            phi[-1] = S3_SEASONAL
        y = simulate_ar(phi, spec.length, rng, spec.burn_in, spec.innovation_sd, intercept)
    return positivize(TimeSeries(y, spec.kind if name is None else name))


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
        yield simulate(dgp, rng, f"{dgp.kind}-{trial:04d}")
