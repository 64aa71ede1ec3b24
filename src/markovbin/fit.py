"""Moment-matched reference laws and dispersion-regime classification.

Overdispersed sums (Var S >= E S) are matched by a negative binomial with
r = (E S)^2 / (Var S - E S) and q = E S / Var S, degenerating to a Poisson
with mean E S at equidispersion.  Underdispersed sums are matched by a
binomial Bi(m, theta) with m = floor(m_tilde), m_tilde = (E S)^2 /
(E S - Var S) and theta = E S / m.  Reference mass functions are evaluated
through scipy.stats (log-gamma based, stable at large parameters) and carry
their truncation tail mass.

One private path serves every caller: the moments pick the regime
(``_regime``), the regime the fit (``_fit``), and the fit the reference law
(``_reference``) and its TV bound (``markovbin.bounds._bound``); a caller
holding the moments passes them down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import stats

from .core import ChainParams, MomentSummary, Pmf, moments_closed_form, stationary_law

__all__ = [
    "EQUIDISPERSION_RTOL",
    "Regime",
    "RegimeError",
    "DegenerateFitError",
    "ConsistencyError",
    "NbFit",
    "BinFit",
    "classify_regime",
    "fit_negative_binomial",
    "fit_binomial",
    "nb_pmf",
    "binomial_pmf",
    "poisson_pmf",
]

# |Var S - E S| <= EQUIDISPERSION_RTOL * E S triggers the Poisson limit:
# r and q degenerate continuously there.
EQUIDISPERSION_RTOL = 1e-12

# Reference pmfs are truncated where the cumulative mass reaches this level.
TRUNCATION_MASS = 1e-12


class Regime(str, Enum):
    OVERDISPERSED = "overdispersed"
    UNDERDISPERSED = "underdispersed"
    EQUIDISPERSED = "equidispersed"


class RegimeError(ValueError):
    """Requested fit does not apply to the dispersion regime of the inputs."""


class DegenerateFitError(ValueError):
    """Binomial fit collapsed: flooring m_tilde drove theta to 1 or beyond."""


class ConsistencyError(RuntimeError):
    """Internal invariant violated; signals an implementation bug."""


@dataclass(frozen=True)
class NbFit:
    """Matched negative binomial (r, q); the Poisson limit is flagged and
    carries its mean in ``lam``."""

    r: float
    q: float
    poisson_limit: bool
    lam: float

    def __post_init__(self) -> None:
        if self.poisson_limit:
            if not (math.isinf(self.r) and self.q == 1.0 and self.lam > 0.0):
                raise ValueError("Poisson limit requires r=inf, q=1 and a positive mean")
        else:
            if not (self.r > 0.0 and math.isfinite(self.r)):
                raise ValueError(f"r must be a positive real, got {self.r!r}")
            if not 0.0 < self.q < 1.0:
                raise ValueError(f"q must lie in (0, 1), got {self.q!r}")


@dataclass(frozen=True)
class BinFit:
    """Matched binomial: m_tilde, its integer part m, theta = E S / m and the
    fractional remainder epsilon = m_tilde - m."""

    m_tilde: float
    m: int
    theta: float
    epsilon: float

    def __post_init__(self) -> None:
        if self.m < 1 or self.m != math.floor(self.m_tilde):
            raise ValueError("m must equal floor(m_tilde) and be at least 1")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon!r}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta!r}")


def _classify_moments(mean: float, variance: float) -> Regime:
    if abs(variance - mean) <= EQUIDISPERSION_RTOL * mean:
        return Regime.EQUIDISPERSED
    return Regime.OVERDISPERSED if variance > mean else Regime.UNDERDISPERSED


def _regime(params: ChainParams, moments: MomentSummary) -> Regime:
    """The regime of the moments, with the self-check of ``classify_regime``."""
    regime = _classify_moments(moments.mean, moments.variance)
    if regime is not Regime.UNDERDISPERSED and not params.beta >= params.alpha:
        raise ConsistencyError(
            f"Var S >= E S with beta={params.beta} <= alpha={params.alpha}: "
            "this contradicts the dispersion/monotonicity relation"
        )
    return regime


def _nb_fit_from_moments(mean: float, variance: float) -> NbFit:
    """Negative binomial (Poisson at equidispersion) for Var S >= E S."""
    if _classify_moments(mean, variance) is Regime.EQUIDISPERSED:
        return NbFit(r=math.inf, q=1.0, poisson_limit=True, lam=mean)
    r = mean * mean / (variance - mean)
    q = mean / variance
    return NbFit(r=r, q=q, poisson_limit=False, lam=mean)


def _bin_fit_from_moments(mean: float, variance: float) -> BinFit:
    """Binomial matched to underdispersed moments."""
    m_tilde = mean * mean / (mean - variance)
    m = math.floor(m_tilde)
    if m < 1:
        raise DegenerateFitError(f"m_tilde={m_tilde!r} floors below 1")
    theta = mean / m
    if theta >= 1.0:
        raise DegenerateFitError(
            f"flooring m_tilde={m_tilde!r} to m={m} drives theta={theta!r} >= 1; "
            "no valid binomial fit at these parameters"
        )
    return BinFit(m_tilde=m_tilde, m=m, theta=theta, epsilon=m_tilde - m)


def _fit(params: ChainParams, n: int, moments: MomentSummary, regime: Regime) -> NbFit | BinFit:
    """The fit the regime calls for: binomial when underdispersed, else the
    negative binomial (the Poisson limit at equidispersion)."""
    if regime is not Regime.UNDERDISPERSED:
        return _nb_fit_from_moments(moments.mean, moments.variance)
    p = stationary_law(params).p
    if params.beta == params.alpha:
        # The sum is exactly Bi(n, alpha); going through the moment quotient
        # would leave m_tilde a few ulps around the integer n, and flooring
        # that jitter can corrupt m.  Return the exact degenerate fit.
        return BinFit(m_tilde=float(n), m=n, theta=p, epsilon=0.0)
    if n == 1:
        # One step is exactly Bernoulli(p): m_tilde = 1 in real arithmetic,
        # another integer point where flooring the float quotient misfires.
        return BinFit(m_tilde=1.0, m=1, theta=p, epsilon=0.0)
    return _bin_fit_from_moments(moments.mean, moments.variance)


def classify_regime(params: ChainParams, n: int) -> Regime:
    """Compare Var S against E S and name the matching regime.

    As a self-check, a non-underdispersed outcome must come with
    beta >= alpha; a violation cannot be produced by valid inputs and is
    raised as a ConsistencyError.
    """
    return _regime(params, moments_closed_form(params, n))


def fit_negative_binomial(params: ChainParams, n: int) -> NbFit:
    """Negative binomial matched to the exact mean and variance of S.

    Requires the overdispersed (or equidispersed) regime; the equidispersed
    case returns the Poisson limit with mean E S.
    """
    moments = moments_closed_form(params, n)
    regime = _regime(params, moments)
    if regime is Regime.UNDERDISPERSED:
        raise RegimeError(
            "variance < mean: the negative binomial match does not apply, use fit_binomial"
        )
    return _fit(params, n, moments, regime)


def fit_binomial(params: ChainParams, n: int) -> BinFit:
    """Binomial matched to the exact mean and variance of S.

    Requires the underdispersed regime.  Flooring can in corner cases push
    theta = E S / m to 1 or beyond (small variance with E S close under an
    integer); that raises DegenerateFitError rather than clamping.
    """
    moments = moments_closed_form(params, n)
    regime = _regime(params, moments)
    if regime is not Regime.UNDERDISPERSED:
        raise RegimeError(
            "variance >= mean: the binomial match does not apply, use fit_negative_binomial"
        )
    return _fit(params, n, moments, regime)


def _auto_truncation(quantile: float, cap_hint_mean: float, cap_hint_std: float) -> int:
    """The 1 - TRUNCATION_MASS quantile, capped at 10*(mean + 10*std)."""
    cap = int(math.ceil(10.0 * (cap_hint_mean + 10.0 * cap_hint_std))) + 1
    return max(1, min(int(quantile), cap))


def nb_pmf(r: float, q: float, trunc: int | None = None) -> Pmf:
    """Negative binomial mass on {0..N} with its tail mass reported.

    N defaults to the point where the cumulative mass reaches
    1 - 1e-12, capped at 10*(mean + 10*std).  q = 1 gives the point mass
    at 0.
    """
    if not r > 0.0:
        raise ValueError(f"r must be positive, got {r!r}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    if q == 1.0:
        return Pmf(np.ones(1))
    if trunc is None:
        mean = r * (1.0 - q) / q
        std = math.sqrt(mean / q)
        trunc = _auto_truncation(stats.nbinom.ppf(1.0 - TRUNCATION_MASS, r, q), mean, std)
    if trunc < 0:
        raise ValueError("truncation must be non-negative")
    mass = stats.nbinom.pmf(np.arange(trunc + 1), r, q)
    return Pmf(mass, tail=float(stats.nbinom.sf(trunc, r, q)))


def binomial_pmf(m: int, theta: float, trunc: int | None = None) -> Pmf:
    """Binomial Bi(m, theta) mass, zero above m; trunc >= m pads with zeros."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    if trunc is None:
        trunc = m
    if trunc < m:
        raise ValueError(f"truncation {trunc} cuts the support 0..{m}")
    mass = np.zeros(trunc + 1)
    mass[: m + 1] = stats.binom.pmf(np.arange(m + 1), m, theta)
    return Pmf(mass)


def poisson_pmf(lam: float, trunc: int | None = None) -> Pmf:
    """Poisson mass on {0..N} with its tail mass reported; lam = 0 is the
    point mass at 0."""
    if lam < 0.0:
        raise ValueError(f"lam must be non-negative, got {lam!r}")
    if lam == 0.0:
        return Pmf(np.ones(1))
    if trunc is None:
        trunc = _auto_truncation(stats.poisson.ppf(1.0 - TRUNCATION_MASS, lam), lam, math.sqrt(lam))
    if trunc < 0:
        raise ValueError("truncation must be non-negative")
    mass = stats.poisson.pmf(np.arange(trunc + 1), lam)
    return Pmf(mass, tail=float(stats.poisson.sf(trunc, lam)))


def _reference(fit: NbFit | BinFit) -> Pmf:
    """The reference law of a fit: binomial, Poisson or negative binomial."""
    if isinstance(fit, BinFit):
        return binomial_pmf(fit.m, fit.theta)
    return poisson_pmf(fit.lam) if fit.poisson_limit else nb_pmf(fit.r, fit.q)
