"""Stein-equation solvers for the matched reference laws, and the
conditional-law comparison checks the error bounds rest on.

The negative binomial operator is Bg(j) = (a + b*j) g(j+1) - j g(j) with
a = r(1-q) and b = 1-q; b = 0 gives the Poisson operator.  The binomial
operator is Bg(j) = theta (m-j) g(j+1) - (1-theta) j g(j).  For an indicator
test set A, the solved equation is Bg = 1_A - P(A) with P the target law.

Solutions are tabulated with g(0) = 0 (the operator never reads g(0); fixing
it makes instances reproducible).  The defining forward recurrence pins g(1)
from the j = 0 equation and is run below the target mean, where it damps
rounding noise; above the mean it amplifies noise geometrically, so the tail
is instead swept backward from a closed-form anchor (the j = m equation for
the binomial, the constant-tail identity at the truncation point for the
negative binomial).  Residuals are checked, not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import bound_constants, gamma_fn
from .core import (
    ChainParams,
    Pmf,
    exact_conditional_pmf,
    exact_pmf,
    moments_from_pmf,
    tv_distance,
)
from .fit import binomial_pmf, fit_negative_binomial, nb_pmf, poisson_pmf

__all__ = [
    "NbSteinSetup",
    "SteinSolution",
    "DeltaBoundReport",
    "BinomialSteinReport",
    "Lemma24Report",
    "solve_nb_stein",
    "check_nb_delta_bound",
    "solve_binomial_stein",
    "check_binomial_lemma31",
    "verify_lemma24",
]

_STEIN_TOL = 1e-9  # slack on the Stein-solution bounds, for solver rounding
_LEMMA24_TOL = 1e-12  # slack on the Lemma 2.4 inequalities, for exact-law rounding
_BINOMIAL_EXTEND = 64  # how far past m binomial Stein solutions are tabulated


@dataclass(frozen=True, eq=False)
class NbSteinSetup:
    """Operator coefficients (a, b) together with the truncated target law."""

    a: float
    b: float
    target: Pmf

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise ValueError(f"a must be positive, got {self.a!r}")
        if not 0.0 <= self.b < 1.0:
            raise ValueError(f"b must lie in [0, 1), got {self.b!r}")

    @classmethod
    def from_rq(cls, r: float, q: float) -> "NbSteinSetup":
        """Setup for NB(r, q): a = r*(1-q), b = 1-q."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {q!r}")
        return cls(a=r * (1.0 - q), b=1.0 - q, target=nb_pmf(r, q))

    @classmethod
    def poisson(cls, lam: float) -> "NbSteinSetup":
        """Poisson setup, the b = 0 reduction of the operator."""
        return cls(a=lam, b=0.0, target=poisson_pmf(lam))

    @classmethod
    def from_chain(cls, params: ChainParams, n: int) -> "NbSteinSetup":
        """Setup for the moment-matched fit of the n-step sum."""
        fit = fit_negative_binomial(params, n)
        return cls.poisson(fit.lam) if fit.poisson_limit else cls.from_rq(fit.r, fit.q)

    @property
    def mean(self) -> float:
        return self.a / (1.0 - self.b)


@dataclass(frozen=True, eq=False)
class SteinSolution:
    """Tabulated solution g with its recurrence residual and difference norm.

    ``delta_sup`` is sup |g(j+2) - g(j+1)| for the negative binomial solver
    and sup |g(j+1) - g(j)| for the binomial one.
    """

    g: np.ndarray
    residual_sup: float
    delta_sup: float


def _normalize_subset(subset: Iterable[int], upper: int) -> np.ndarray:
    members = np.unique(np.asarray(list(subset), dtype=np.int64))
    if members.size and (members[0] < 0 or members[-1] > upper):
        raise ValueError(f"subset must lie within 0..{upper}")
    return members


def solve_nb_stein(setup: NbSteinSetup, subset: Iterable[int]) -> SteinSolution:
    """Solve Bg = 1_A - P(A) for the negative binomial (or Poisson) target.

    ``subset`` must lie within the truncated support {0..N}.  The returned g
    has entries 0..N+1; the residual is the largest equation defect over
    j = 0..N.
    """
    a, b = setup.a, setup.b
    pi = setup.target.mass
    top = pi.size - 1
    if top < 1:
        raise ValueError("target must be tabulated past 0 to solve the equation")
    members = _normalize_subset(subset, top)

    f = np.zeros(top + 1)
    f[members] = 1.0
    p_set = float(pi[members].sum())
    f -= p_set

    g = np.zeros(top + 2)
    seam = min(max(int(setup.mean), 1), top)
    for j in range(seam):
        g[j + 1] = (j * g[j] + f[j]) / (a + b * j)

    # Beyond the truncation point the test function is the constant -P(A),
    # which gives the bounded solution the closed tail value
    # g(top+1) = P(A) * P(>top) / ((top+1) * pi(top+1)).
    pi_next = pi[top] * (a + b * top) / (top + 1)
    g[top + 1] = p_set * setup.target.tail / ((top + 1) * pi_next) if pi_next > 0.0 else 0.0
    for j in range(top, seam, -1):
        g[j] = ((a + b * j) * g[j + 1] - f[j]) / j

    j = np.arange(top + 1, dtype=float)
    residual = (a + b * j) * g[1:] - j * g[:-1] - f
    delta_prime = np.diff(g[1:])
    return SteinSolution(
        g=g,
        residual_sup=float(np.abs(residual).max()),
        delta_sup=float(np.abs(delta_prime).max()),
    )


@dataclass(frozen=True)
class DeltaBoundReport:
    """Outcome of the second-difference norm check sup |dg'| <= 1/a."""

    ok: bool
    delta_sup: float
    bound: float
    margin: float


def check_nb_delta_bound(solution: SteinSolution, a: float) -> DeltaBoundReport:
    """Check sup_j |g(j+2) - g(j+1)| <= 1/a, returning the slack."""
    bound = 1.0 / a
    return DeltaBoundReport(
        ok=solution.delta_sup <= bound + _STEIN_TOL,
        delta_sup=solution.delta_sup,
        bound=bound,
        margin=bound - solution.delta_sup,
    )


def solve_binomial_stein(m: int, theta: float, subset: Iterable[int]) -> SteinSolution:
    """Solve the binomial Stein equation on 0..m and extend past the support.

    On 0..m the equation theta*(m-j) g(j+1) - (1-theta)*j g(j) = 1_A - P(A)
    holds exactly; for j >= m+1 the solution is the constant
    -(1 + theta*1_{m in A} - theta*P(A)) / (m*theta*(1-theta)), which turns
    the equation into an inequality.  The solution is tabulated up to
    m + _BINOMIAL_EXTEND (64) for the checks; ``subset`` may contain points
    up to there, but only its intersection with 0..m carries mass.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    top = m + _BINOMIAL_EXTEND
    members = _normalize_subset(subset, top)

    pi = binomial_pmf(m, theta).mass
    on_support = members[members <= m]
    p_set = float(pi[on_support].sum())
    f = np.zeros(top + 1)
    f[members] = 1.0
    f -= p_set

    g = np.zeros(top + 1)
    seam = min(max(int(theta * m), 0), m - 1)
    for j in range(seam):
        g[j + 1] = ((1.0 - theta) * j * g[j] + f[j]) / (theta * (m - j))

    # The j = m equation reads -(1-theta)*m*g(m) = f(m) and anchors the
    # backward sweep down to the seam.
    g[m] = -f[m] / ((1.0 - theta) * m)
    for j in range(m - 1, seam, -1):
        g[j] = (theta * (m - j) * g[j + 1] - f[j]) / ((1.0 - theta) * j)

    m_in_set = bool(np.any(members == m))
    constant = -(1.0 + theta * m_in_set - theta * p_set) / (m * theta * (1.0 - theta))
    g[m + 1 :] = constant

    j = np.arange(m, dtype=float)
    residual = theta * (m - j) * g[1 : m + 1] - (1.0 - theta) * j * g[:m] - f[:m]
    return SteinSolution(
        g=g,
        residual_sup=float(np.abs(residual).max()),
        delta_sup=float(np.abs(np.diff(g)).max()),
    )


@dataclass(frozen=True)
class BinomialSteinReport:
    """Outcome of the sub-solution checks for the binomial operator.

    ``inequality_min_slack`` is the smallest Bg(j) - (1_A(j) - P(A)) over the
    tabulated range (non-negative up to tolerance); the equality part of the
    range makes it sit near zero.  ``tail_slope`` is the per-step growth of
    Bg past m, positive whenever the constant extension is negative, which
    makes the inequality hold beyond the tabulated range as well.
    """

    ok: bool
    inequality_min_slack: float
    delta_sup: float
    delta_bound: float
    delta_at_m_error: float
    tail_delta_max: float
    tail_slope: float


def check_binomial_lemma31(
    solution: SteinSolution,
    m: int,
    theta: float,
    subset: Iterable[int],
) -> BinomialSteinReport:
    """Check the one-sided equation, the difference norm bound
    1/(m*theta*(1-theta)), the exact boundary difference at j = m and the
    vanishing differences past m."""
    g = solution.g
    top = g.size - 1
    members = _normalize_subset(subset, top)
    pi = binomial_pmf(m, theta).mass
    p_set = float(pi[members[members <= m]].sum())
    f = np.zeros(top)
    f[members[members < top]] = 1.0
    f -= p_set

    j = np.arange(top, dtype=float)
    action = theta * (m - j) * g[1:] - (1.0 - theta) * j * g[:top]
    slack = float((action - f).min())

    bound = 1.0 / (m * theta * (1.0 - theta))
    delta = np.diff(g)
    delta_at_m_error = abs(abs(float(delta[m])) - bound)
    tail_delta_max = float(np.abs(delta[m + 1 :]).max()) if top > m + 1 else 0.0
    tail_slope = -float(g[-1])  # Bg grows by (j+1) - j times this past m

    ok = (
        slack >= -_STEIN_TOL
        and solution.delta_sup <= bound + _STEIN_TOL
        and delta_at_m_error <= _STEIN_TOL
        and tail_delta_max == 0.0
        and tail_slope >= 0.0
    )
    return BinomialSteinReport(
        ok=ok,
        inequality_min_slack=slack,
        delta_sup=solution.delta_sup,
        delta_bound=bound,
        delta_at_m_error=delta_at_m_error,
        tail_delta_max=tail_delta_max,
        tail_slope=tail_slope,
    )


@dataclass(frozen=True)
class Lemma24Report:
    """Exact evaluation of the conditional-law comparison inequalities.

    ``tv2`` is twice the TV distance between L(S - X_i | X_i = 1) and L(S),
    the supremum of the first comparison over test functions bounded by 1.
    The second comparison is probed with every threshold indicator
    h_t = 1_{. <= t} (each with unit difference norm); ``probe_max`` is the
    worst left-hand side over t.
    """

    ok: bool
    ok_sup: bool
    ok_delta: bool
    tv2: float
    rhs_sup: float
    probe_max: float
    rhs_delta: float
    smoothing: float


def verify_lemma24(params: ChainParams, n: int, i: int) -> Lemma24Report:
    """Verify both conditional-law comparison inequalities at index i.

    The first is checked at its supremum (via twice the TV distance); the
    second over the threshold-probe family, a necessary-condition check since
    the supremum over all bounded test functions is not computable.
    """
    consts = bound_constants(params)
    amax = max(params.alpha, params.beta)
    smoothing = gamma_fn(consts, n / 4.0) + amax ** (n // 4)

    law1 = exact_conditional_pmf(params, n, i, 1)
    law0 = exact_conditional_pmf(params, n, i, 0)
    law_s = exact_pmf(params, n)

    tv2 = 2.0 * tv_distance(law1, law_s)
    rhs_sup = consts.c1 * smoothing
    ok_sup = tv2 <= rhs_sup + _LEMMA24_TOL

    # E dh_t(S) = -P(S = t) for the threshold probe h_t, so the probed
    # left side is |F1(t) - F0(t) + (mean1 - mean0) * P(S = t)|.
    width = n + 1
    pmf1 = np.pad(law1.mass, (0, width - law1.mass.size))
    pmf0 = np.pad(law0.mass, (0, width - law0.mass.size))
    mean1 = moments_from_pmf(law1)[0]
    mean0 = moments_from_pmf(law0)[0]
    probes = np.abs(np.cumsum(pmf1 - pmf0) + (mean1 - mean0) * law_s.mass)
    probe_max = float(probes.max())
    rhs_delta = (
        abs(params.alpha - params.beta)
        * (5.0 + 23.0 * amax)
        / (1.0 - amax) ** 2
        * smoothing
    )
    ok_delta = probe_max <= rhs_delta + _LEMMA24_TOL

    return Lemma24Report(
        ok=ok_sup and ok_delta,
        ok_sup=ok_sup,
        ok_delta=ok_delta,
        tv2=tv2,
        rhs_sup=rhs_sup,
        probe_max=probe_max,
        rhs_delta=rhs_delta,
        smoothing=smoothing,
    )
