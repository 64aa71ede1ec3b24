"""Independent oracles used to freeze expected values and cross-check the
library.  Everything here recomputes from first principles (path
enumeration, plain Monte Carlo, direct log-gamma formulas) and shares no
code path with the implementation under test."""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln


def enumerate_pmf(alpha: float, beta: float, n: int, start: str = "stationary") -> np.ndarray:
    """Law of the n-step sum by weighting all 2^(n+1) anchored paths.

    Only practical for small n; used as the ground truth for the DP.
    """
    if start == "stationary":
        p1 = alpha / (1.0 - beta + alpha)
        init = np.array([1.0 - p1, p1])
    elif start == "state0":
        init = np.array([1.0, 0.0])
    elif start == "state1":
        init = np.array([0.0, 1.0])
    else:
        init = np.asarray(start, dtype=float)
    transition = np.array([[1.0 - alpha, alpha], [1.0 - beta, beta]])

    codes = np.arange(2 ** (n + 1))[:, None]
    paths = (codes >> np.arange(n, -1, -1)) & 1  # column 0 is the anchor state
    weights = init[paths[:, 0]]
    for t in range(1, n + 1):
        weights = weights * transition[paths[:, t - 1], paths[:, t]]
    sums = paths[:, 1:].sum(axis=1)
    return np.bincount(sums, weights=weights, minlength=n + 1)


def full_dp_pmf(alpha: float, beta: float, n: int, init: np.ndarray) -> np.ndarray:
    """Law of the n-step sum by the full-width DP over (partial sum, state).

    Every step updates all n + 1 partial sums, subnormal ones included, with
    the same arithmetic as the library's windowed DP, so masses the window
    keeps must agree with it to the last bit.  ``init`` is the law of the
    anchoring state on {0, 1}.
    """
    f0 = np.zeros(n + 1)
    f1 = np.zeros(n + 1)
    g0 = np.zeros(n + 1)
    g1 = np.zeros(n + 1)
    f0[0] = init[0]
    f1[0] = init[1]
    for t in range(n):
        hi = t + 1  # populated entries are 0..t before this step
        g0[:hi] = (1.0 - alpha) * f0[:hi] + (1.0 - beta) * f1[:hi]
        g0[hi] = 0.0
        g1[0] = 0.0
        g1[1 : hi + 1] = alpha * f0[:hi] + beta * f1[:hi]
        f0, g0 = g0, f0
        f1, g1 = g1, f1
    return f0 + f1


def mc_state1_frequency(
    alpha: float, beta: float, seed: int, chains: int = 20_000, burn: int = 200, keep: int = 500
) -> float:
    """Long-run frequency of state 1 from plain transition simulation.

    Simulates ``chains`` independent walks started at 0, discards ``burn``
    steps and averages over the next ``keep``; defaults give 10^7 retained
    states.
    """
    rng = np.random.default_rng(seed)
    state = np.zeros(chains, dtype=bool)
    ones = 0
    for t in range(burn + keep):
        u = rng.random(chains)
        state = u < np.where(state, beta, alpha)
        if t >= burn:
            ones += int(state.sum())
    return ones / (chains * keep)


def nb_pmf_reference(k: np.ndarray, r: float, q: float) -> np.ndarray:
    """Direct log-gamma evaluation of the negative binomial mass."""
    k = np.asarray(k, dtype=float)
    log_pmf = (
        gammaln(r + k)
        - gammaln(r)
        - gammaln(k + 1.0)
        + r * np.log(q)
        + k * np.log1p(-q)
    )
    return np.exp(log_pmf)


def binom_pmf_reference(k: np.ndarray, m: int, theta: float) -> np.ndarray:
    """Direct log-gamma evaluation of the binomial mass."""
    k = np.asarray(k, dtype=float)
    log_pmf = (
        gammaln(m + 1.0)
        - gammaln(k + 1.0)
        - gammaln(m - k + 1.0)
        + k * np.log(theta)
        + (m - k) * np.log1p(-theta)
    )
    return np.exp(log_pmf)


def poisson_pmf_reference(k: np.ndarray, lam: float) -> np.ndarray:
    """Direct log-gamma evaluation of the Poisson mass."""
    k = np.asarray(k, dtype=float)
    return np.exp(k * np.log(lam) - lam - gammaln(k + 1.0))
