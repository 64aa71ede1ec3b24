"""Independent oracles used to freeze expected values and cross-check the
library.  Everything here recomputes from first principles (path
enumeration, plain Monte Carlo, direct log-gamma formulas) and shares no
code path with the implementation under test, except ``scalar_lemma24``:
it pins the stacked Lemma 2.4 comparison against the per-index one, so it
builds each conditional law as a ``Pmf`` and compares with the library's
``tv_distance``, one index at a time."""

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


def scalar_nb_stein(
    a: float, b: float, pi: np.ndarray, tail: float, mean: float, members: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """One negative binomial Stein solve by the scalar recurrences, step by
    step: forward from g(1) below the mean, backward from the closed tail
    value above it.  Returns g, the sup residual and sup |g(j+2) - g(j+1)|."""
    top = pi.size - 1
    f = np.zeros(top + 1)
    f[members] = 1.0
    p_set = float(pi[members].sum())
    f -= p_set
    g = np.zeros(top + 2)
    seam = min(max(int(mean), 1), top)
    for j in range(seam):
        g[j + 1] = (j * g[j] + f[j]) / (a + b * j)
    pi_next = pi[top] * (a + b * top) / (top + 1)
    g[top + 1] = p_set * tail / ((top + 1) * pi_next) if pi_next > 0.0 else 0.0
    for j in range(top, seam, -1):
        g[j] = ((a + b * j) * g[j + 1] - f[j]) / j
    j = np.arange(top + 1, dtype=float)
    residual = (a + b * j) * g[1:] - j * g[:-1] - f
    return g, float(np.abs(residual).max()), float(np.abs(np.diff(g[1:])).max())


def scalar_binomial_stein(
    m: int, theta: float, pi: np.ndarray, members: np.ndarray, extend: int
) -> tuple[np.ndarray, float, float]:
    """One binomial Stein solve by the scalar recurrences on 0..m, extended
    by its constant up to m + extend.  Returns g, the sup residual on 0..m-1
    and sup |g(j+1) - g(j)|."""
    top = m + extend
    p_set = float(pi[members[members <= m]].sum())
    f = np.zeros(top + 1)
    f[members] = 1.0
    f -= p_set
    g = np.zeros(top + 1)
    seam = min(max(int(theta * m), 0), m - 1)
    for j in range(seam):
        g[j + 1] = ((1.0 - theta) * j * g[j] + f[j]) / (theta * (m - j))
    g[m] = -f[m] / ((1.0 - theta) * m)
    for j in range(m - 1, seam, -1):
        g[j] = (theta * (m - j) * g[j + 1] - f[j]) / ((1.0 - theta) * j)
    m_in_set = bool(np.any(members == m))
    g[m + 1 :] = -(1.0 + theta * m_in_set - theta * p_set) / (m * theta * (1.0 - theta))
    j = np.arange(m, dtype=float)
    residual = theta * (m - j) * g[1 : m + 1] - (1.0 - theta) * j * g[:m] - f[:m]
    return g, float(np.abs(residual).max()), float(np.abs(np.diff(g)).max())


def scalar_lemma31(
    g: np.ndarray, m: int, theta: float, pi: np.ndarray, members: np.ndarray
) -> tuple[float, float, float, float]:
    """The Lemma 3.1 quantities of one binomial solution g: the least slack
    of Bg >= 1_A - P(A), the error of |g(m+1) - g(m)| against
    1/(m theta (1-theta)), the largest difference past m and -g(last)."""
    top = g.size - 1
    p_set = float(pi[members[members <= m]].sum())
    f = np.zeros(top)
    f[members[members < top]] = 1.0
    f -= p_set
    j = np.arange(top, dtype=float)
    action = theta * (m - j) * g[1:] - (1.0 - theta) * j * g[:top]
    bound = 1.0 / (m * theta * (1.0 - theta))
    delta = np.diff(g)
    tail_delta_max = float(np.abs(delta[m + 1 :]).max()) if top > m + 1 else 0.0
    delta_at_m_error = abs(abs(float(delta[m])) - bound)
    return float((action - f).min()), delta_at_m_error, tail_delta_max, -float(g[-1])


def scalar_lemma24(alpha: float, beta: float, n: int, laws: dict, indices) -> dict:
    """The Lemma 2.4 report fields of each index, in ``Lemma24Report``
    order, by the per-index loop: each conditional law a ``Pmf`` built from
    ``np.convolve`` of its segment laws, the sup side by ``tv_distance`` and
    the probe side by ``np.cumsum`` of zero-padded laws.  ``laws`` holds the
    exact laws keyed by start and number of steps, as ``_lemma24_from_laws``
    reads them."""
    from markovbin.bounds import bound_constants, gamma_fn
    from markovbin.core import ChainParams, Pmf, _exact_tol, tv_distance

    consts = bound_constants(ChainParams(alpha, beta))
    amax = max(alpha, beta)
    smoothing = gamma_fn(consts, n / 4.0) + amax ** (n // 4)
    rhs_sup = consts.c1 * smoothing
    rhs_delta = abs(alpha - beta) * (5.0 + 23.0 * amax) / (1.0 - amax) ** 2 * smoothing
    law_s = laws["stationary"][n]
    fields = {}
    for i in sorted(indices):
        cond = {}
        for start in ("state1", "state0"):
            left, right = laws[start][i - 1], laws[start][n - i]
            cond[start] = Pmf(np.convolve(left.mass, right.mass), tail=left.tail + right.tail,
                              tol=_exact_tol(n))
        tv2 = 2.0 * tv_distance(cond["state1"], law_s)
        padded = {start: np.append(law.mass, 0.0) for start, law in cond.items()}
        k = np.arange(n, dtype=float)
        shift = float(k @ cond["state1"].mass) - float(k @ cond["state0"].mass)
        gap = np.cumsum(padded["state1"] - padded["state0"])
        probe_max = float(np.abs(gap + shift * law_s.mass).max())
        ok_sup = tv2 <= rhs_sup + 1e-12
        ok_delta = probe_max <= rhs_delta + 1e-12
        fields[i] = (ok_sup and ok_delta, ok_sup, ok_delta, tv2, rhs_sup, probe_max, rhs_delta,
                     smoothing)
    return fields
