"""Independent computations the benchmark checks the program's outputs
against.  Nothing here calls markovbin: laws come from path enumeration or
from numerical inversion of the probability generating function, moments
from the covariance sum of the stationary chain, reference laws from
log-gamma formulas."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


def stationary_p(alpha: float, beta: float) -> float:
    """Stationary mass at state 1."""
    return alpha / (1.0 - beta + alpha)


def moments(alpha: float, beta: float, n: int) -> tuple[float, float]:
    """Mean and variance of the stationary n-step sum.

    Cov(X_i, X_{i+k}) = p(1-p) delta^k with delta = beta - alpha, so
    Var S = n p(1-p) + 2 p(1-p) sum_{k=1}^{n-1} (n-k) delta^k.
    """
    p = stationary_p(alpha, beta)
    k = np.arange(1, n, dtype=float)
    cov = 2.0 * p * (1.0 - p) * float(((n - k) * (beta - alpha) ** k).sum())
    return n * p, n * p * (1.0 - p) + cov


def enumerate_pmf(alpha: float, beta: float, n: int) -> np.ndarray:
    """Stationary law of S = X_1 + ... + X_n by weighting all 2^n paths."""
    p = stationary_p(alpha, beta)
    paths = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    step = np.array([[1.0 - alpha, alpha], [1.0 - beta, beta]])
    weights = np.where(paths[:, 0] == 1, p, 1.0 - p)
    for t in range(1, n):
        weights = weights * step[paths[:, t - 1], paths[:, t]]
    return np.bincount(paths.sum(axis=1), weights=weights, minlength=n + 1)


def pgf_pmf(alpha: float, beta: float, n: int) -> np.ndarray:
    """Stationary law of S by FFT inversion of its pgf pi^T M(z)^n 1, with
    M(z) = [[1-alpha, alpha z], [1-beta, beta z]] (Abate & Whitt 1992).

    The pgf is a polynomial of degree n, so sampling it at the n+1 roots of
    unity and applying a DFT recovers every mass exactly up to rounding.
    """
    size = n + 1
    z = np.exp(2j * np.pi * np.arange(size) / size)
    step = np.empty((size, 2, 2), dtype=complex)
    step[:, 0, 0] = 1.0 - alpha
    step[:, 0, 1] = alpha * z
    step[:, 1, 0] = 1.0 - beta
    step[:, 1, 1] = beta * z
    power = np.broadcast_to(np.eye(2, dtype=complex), step.shape).copy()
    remaining = n
    while remaining:
        if remaining & 1:
            power = power @ step
        step = step @ step
        remaining >>= 1
    p = stationary_p(alpha, beta)
    pgf = (1.0 - p) * power[:, 0, :].sum(axis=1) + p * power[:, 1, :].sum(axis=1)
    return np.fft.fft(pgf).real / size


def reference_pmf(row: dict, upto: int) -> np.ndarray:
    """Mass of the fitted reference law on 0..upto, from log-gamma formulas.

    ``row`` carries the fit fields as numbers: r and q for a negative
    binomial, m and theta for a binomial, or the Poisson mean ``lam``.
    """
    k = np.arange(upto + 1, dtype=float)
    if row.get("m") is not None:
        m, theta = row["m"], row["theta"]
        inside = k <= m
        kk = np.where(inside, k, 0.0)
        log_mass = (
            gammaln(m + 1.0) - gammaln(kk + 1.0) - gammaln(m - kk + 1.0)
            + kk * math.log(theta) + (m - kk) * math.log1p(-theta)
        )
        return np.where(inside, np.exp(log_mass), 0.0)
    if row.get("lam") is not None:
        lam = row["lam"]
        return np.exp(k * math.log(lam) - lam - gammaln(k + 1.0))
    r, q = row["r"], row["q"]
    log_mass = (
        gammaln(r + k) - gammaln(r) - gammaln(k + 1.0) + r * math.log(q) + k * math.log1p(-q)
    )
    return np.exp(log_mass)


def tv(p: np.ndarray, q: np.ndarray) -> float:
    """Half the L1 distance; the shorter array is zero-padded."""
    size = max(p.size, q.size)
    return 0.5 * float(np.abs(np.pad(p, (0, size - p.size)) - np.pad(q, (0, size - q.size))).sum())
