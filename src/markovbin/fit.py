"""Moment-matched reference laws and dispersion-regime classification.

Overdispersed sums (Var S >= E S) are matched by a negative binomial with
r = (E S)^2 / (Var S - E S) and q = E S / Var S, degenerating to a Poisson
with mean E S at equidispersion.  Underdispersed sums are matched by a
binomial Bi(m, theta) with m = floor(m_tilde), m_tilde = (E S)^2 /
(E S - Var S) and theta = E S / m.  Reference mass functions carry their
truncation tail mass and are evaluated on the scipy.special ufuncs that
scipy.stats calls for the same laws (Boost for the negative binomial and
binomial, log-gamma for the Poisson), so they equal scipy.stats bit for bit.
scipy.stats itself is never imported, and scipy.special only on the first
such call: importing either takes longer than the rest of the package.

One private path serves every caller: the moments pick the regime
(``_regime``), the regime the fit (``_fit``), and the fit the reference law
(``_reference``) and its TV bound (``markovbin.bounds._bound``); a caller
holding the moments passes them down.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PMF_TOL, ChainParams, MomentSummary, Pmf, moments_closed_form, stationary_law

__all__ = [
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
    """Fit collapsed: flooring m_tilde drove the binomial theta to 1 or
    beyond, or the negative binomial r underflowed below the normal range."""


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
    """The regime of the moments, with the self-check of ``classify_regime``.

    Only a strict overdispersed outcome is checked against beta >= alpha:
    inside the equidispersion band the sign of Var S - E S is below the
    resolution of the test, so it cannot contradict Lemma 2.2.  Tiny rates
    with beta < alpha land there, e.g. (1e-14, 1e-16), where |Var S - E S|
    is about 1e-14 relative, and (1e-30, 1e-100), where it is 0.
    """
    regime = _classify_moments(moments.mean, moments.variance)
    if regime is Regime.OVERDISPERSED and not params.beta >= params.alpha:
        raise ConsistencyError(
            f"Var S > E S with beta={params.beta} < alpha={params.alpha}: "
            "this contradicts the dispersion/monotonicity relation"
        )
    return regime


def _nb_fit_from_moments(mean: float, variance: float) -> NbFit:
    """Negative binomial (Poisson at equidispersion) for Var S >= E S."""
    if _classify_moments(mean, variance) is Regime.EQUIDISPERSED:
        return NbFit(r=math.inf, q=1.0, poisson_limit=True, lam=mean)
    if mean * mean >= sys.float_info.min:
        r = mean * mean / (variance - mean)
    else:
        # the square left the normal range and lost its digits, all of them
        # at alpha = 1e-300, so divide before multiplying
        r = mean * (mean / (variance - mean))
    if r < sys.float_info.min:
        # a subnormal r has no reference law: q**r rounds to 1, and the
        # kernels return nan or 0 for every mass
        raise DegenerateFitError(f"r={r!r} underflows below the normal range at E S={mean!r}")
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

    As a self-check, an overdispersed outcome (Var S - E S above the
    equidispersion band) must come with beta >= alpha; a violation cannot
    be produced by valid inputs and is raised as a ConsistencyError.
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


@functools.cache
def _kernels() -> dict:
    """Mass, survival and quantile functions of each tabulated family: the
    ``scipy.special`` ufuncs that ``scipy.stats`` evaluates for the same laws.

    ``scipy.special`` is imported here, on the first call, because importing
    it takes longer than the rest of the package; ``scipy.stats`` is never
    imported.
    """
    from scipy.special import _ufuncs, gammaln, pdtr, pdtrc, pdtrik, xlogy

    def nbinom_ppf(p, r, q):
        with np.errstate(over="ignore"):  # as scipy.stats does, see scipy gh-17432
            return _ufuncs._nbinom_ppf(p, r, q)

    def poisson_pmf(k, lam):
        return np.exp(xlogy(k, lam) - gammaln(k + 1) - lam)

    def poisson_ppf(p, lam):
        # pdtrik inverts the continuous extension; step back where one less
        # already reaches p
        upper = np.ceil(pdtrik(p, lam))
        lower = np.maximum(upper - 1.0, 0.0)
        return np.where(pdtr(lower, lam) >= p, lower, upper)

    return {
        "nbinom": (_ufuncs._nbinom_pmf, _ufuncs._nbinom_sf, nbinom_ppf),
        "poisson": (poisson_pmf, pdtrc, poisson_ppf),
        "binom": (_ufuncs._binom_pmf,),
    }


def _tabulated(family: str, args: dict, mean: float, std: float, tol: float = PMF_TOL) -> Pmf:
    """Mass of the ``family`` law with parameters ``args`` (by name) on
    {0..N}, with its tail mass, where N is the 1 - TRUNCATION_MASS quantile,
    capped at 10*(mean + 10*std).

    Masses and tail are clipped to [0, 1], as ``scipy.stats`` clips them, so
    the values equal ``scipy.stats.<family>.pmf`` and ``.sf`` bit for bit.

    A mean of 2**53 or more, or a quantile that is not finite, raises
    ``ValueError`` naming the parameters: past 2**53 the support points are
    no longer exact doubles, and the quantile kernels return NaN or do not
    return at all.
    """
    pmf, sf, ppf = _kernels()[family]
    quantile = float(ppf(1.0 - TRUNCATION_MASS, *args.values())) if mean < 2.0**53 else None
    if quantile is None or not math.isfinite(quantile):
        named = ", ".join(f"{name} = {value!r}" for name, value in args.items())
        why = f"mean {mean!r}, 2**53 or more" if quantile is None else f"quantile {quantile!r}"
        raise ValueError(f"{named}: cannot tabulate a law with {why}")
    cap = int(math.ceil(10.0 * (mean + 10.0 * std))) + 1
    trunc = max(1, min(int(quantile), cap))
    mass = np.clip(pmf(np.arange(trunc + 1), *args.values()), 0.0, 1.0)
    tail = float(np.clip(sf(trunc, *args.values()), 0.0, 1.0))
    return Pmf(mass, tail=tail, tol=tol)


def nb_pmf(r: float, q: float) -> Pmf:
    """Negative binomial mass on {0..N} with its tail mass reported.

    N is the point where the cumulative mass reaches 1 - 1e-12, capped at
    10*(mean + 10*std).  q = 1 gives the point mass at 0, on {0}.  A
    subnormal r raises ValueError: the kernels return nan or 0 for every
    mass there.  So does an infinite or NaN r.
    """
    if not sys.float_info.min <= r < math.inf:
        raise ValueError(f"r must be positive, finite and not subnormal, got {r!r}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    if q == 1.0:
        return Pmf(np.ones(1))
    mean = r * (1.0 - q) / q
    return _tabulated("nbinom", {"r": r, "q": q}, mean, math.sqrt(mean / q))


def binomial_pmf(m: int, theta: float) -> Pmf:
    """Binomial Bi(m, theta) mass on its support {0..m}.  An m of 2**53 or
    more raises ValueError: its support points are no longer exact doubles."""
    if not 1 <= m < 2**53:
        raise ValueError(f"m must be a positive integer below 2**53, got {m!r}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    (pmf,) = _kernels()["binom"]
    return Pmf(np.clip(pmf(np.arange(m + 1), m, theta), 0.0, 1.0))


def _poisson_tol(lam: float) -> float:
    """Normalization tolerance for a tabulated Poisson(lam) law.

    Mass k is exp(t_k) with t_k = k log(lam) - log(k!) - lam.  Its terms
    have sizes up to k |log lam|, log k! <= k log k and lam, each carried
    with at most a few roundings, so t_k is off by at most 4u times their sum
    (u = eps/2), and an absolute error in t_k is that relative error in the
    mass.  Weighted by the masses, E K |log lam| = lam |log lam| and
    E K log K <= lam log(lam + 1) (Jensen's inequality on the size-biased
    law), so mass + tail is off by at most 2 eps lam (|log lam| +
    log(lam + 1) + 1), plus the few roundings of the sum that ``PMF_TOL``
    covers.  The rounding of log(lam) shifts every t_k the same way, which is
    why a fixed tolerance fails at large lam (1.4e-11 off at lam = 1e4).
    """
    drift = lam * (abs(math.log(lam)) + math.log1p(lam) + 1.0)
    return max(PMF_TOL, 2.0 * sys.float_info.epsilon * drift)


def poisson_pmf(lam: float) -> Pmf:
    """Poisson mass on {0..N} with its tail mass reported, N as for
    ``nb_pmf``; lam = 0 is the point mass at 0, on {0}.  A negative,
    infinite or NaN lam raises ValueError."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be non-negative and finite, got {lam!r}")
    if lam == 0.0:
        return Pmf(np.ones(1))
    return _tabulated("poisson", {"lam": lam}, lam, math.sqrt(lam), _poisson_tol(lam))


def _reference(fit: NbFit | BinFit) -> Pmf:
    """The reference law of a fit: binomial, Poisson or negative binomial."""
    if isinstance(fit, BinFit):
        return binomial_pmf(fit.m, fit.theta)
    return poisson_pmf(fit.lam) if fit.poisson_limit else nb_pmf(fit.r, fit.q)
