"""Explicit constants and evaluators for the total-variation error bounds.

The two block means mu1 = (1-alpha)/alpha and mu2 = beta/(1-beta) count
revisits of 0's and 1's between switches, with variances sigma1_sq and
sigma2_sq; they drive the smoothness rate

    gamma(x) = K1/sqrt(x) + K2/x.

The negative binomial bound is C0 * [2*K1/sqrt(n) + 4*K2/n + beta^floor(n/4)]
and the binomial bound is

    (|p-theta|/(1-theta) * C1 + |beta-alpha|/(1-theta) * C2)
        * [2*K1/sqrt(n) + 4*K2/n + max(alpha,beta)^floor(n/4)]
        + theta^2 * epsilon / (n*p*(1-theta)).

Bounds above 1 are reported verbatim and also clipped to 1, so soundness
checks stay non-vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import ChainParams, moments_closed_form, stationary_law
from .fit import (
    BinFit, ConsistencyError, NbFit, Regime, RegimeError, _fit, _regime, classify_regime
)

__all__ = [
    "BoundConstants",
    "BoundReport",
    "bound_constants",
    "gamma_fn",
    "bound_nb",
    "bound_binomial",
]


@dataclass(frozen=True)
class BoundConstants:
    """All nine explicit constants attached to a parameter pair."""

    mu1: float
    mu2: float
    sigma1_sq: float
    sigma2_sq: float
    c0: float
    c1: float
    c2: float
    k1: float
    k2: float


def bound_constants(params: ChainParams) -> BoundConstants:
    """Evaluate the constant block for (alpha, beta) by direct substitution."""
    a, b = params.alpha, params.beta
    amax = max(a, b)
    mu1 = (1.0 - a) / a
    mu2 = b / (1.0 - b)
    # below alpha ~ 1.5e-162 alpha**2 underflows to 0; the true sigma1_sq
    # overflows there, so inf is its value as a double
    sigma1_sq = (1.0 - a) / a**2 if a**2 > 0.0 else math.inf
    sigma2_sq = b / (1.0 - b) ** 2
    blocks = mu1 + mu2 + 2.0
    # below alpha ~ 5.6e-309 mu1 overflows too, and K2 ~ 90/alpha with it;
    # its quotient of infinities would be nan
    k2 = 90.0 * (sigma1_sq + sigma2_sq) / blocks if blocks < math.inf else math.inf
    return BoundConstants(
        mu1=mu1,
        mu2=mu2,
        sigma1_sq=sigma1_sq,
        sigma2_sq=sigma2_sq,
        c0=abs(b - a) * (5.0 + 43.0 * amax) / (1.0 - amax) ** 2,
        c1=10.0 * amax / (1.0 - amax),
        c2=stationary_law(params).p0 * (5.0 + 23.0 * amax) / (1.0 - amax) ** 2,
        k1=math.sqrt(5.0) * math.sqrt(blocks / min(1.0 - a, b, 0.5)),
        k2=k2,
    )


def gamma_fn(consts: BoundConstants, x: float) -> float:
    """Smoothness rate K1/sqrt(x) + K2/x, defined for x > 0."""
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x!r}")
    return consts.k1 / math.sqrt(x) + consts.k2 / x


_BRACKET_KEYS = ("bracket_sqrt", "bracket_linear", "bracket_geometric")


@dataclass(frozen=True)
class BoundReport:
    """An evaluated error bound with its term breakdown.

    ``term_breakdown`` always carries ``prefactor`` and the three bracket
    terms; the binomial bound adds ``epsilon_term``.  The stored value must
    be reproducible from the breakdown, which is checked on construction.
    """

    regime: Regime
    bound_value: float
    clipped_value: float
    term_breakdown: dict[str, float] = field(repr=False)

    def __post_init__(self) -> None:
        if math.isnan(self.bound_value):
            raise ConsistencyError("bound_value is nan")
        recomputed = _bound_value(self.term_breakdown)
        if abs(recomputed - self.bound_value) > 1e-12 * max(1.0, abs(self.bound_value)):
            raise ConsistencyError(
                f"bound {self.bound_value!r} does not match its breakdown ({recomputed!r})"
            )
        if self.clipped_value != min(1.0, self.bound_value):
            raise ConsistencyError("clipped_value must be min(1, bound_value)")


def _bound_value(breakdown: dict[str, float]) -> float:
    """prefactor * (sum of the bracket terms) + epsilon term.  A zero
    prefactor makes the product 0, also where a bracket term overflows to
    inf (alpha == beta at rates whose constants overflow)."""
    prefactor = breakdown["prefactor"]
    bracket = sum(breakdown[key] for key in _BRACKET_KEYS)
    product = prefactor * bracket if prefactor != 0.0 else 0.0
    return product + breakdown.get("epsilon_term", 0.0)


def _bound(params: ChainParams, n: int, regime: Regime, fit: NbFit | BinFit | None) -> BoundReport:
    """The bound that goes with a fit from the shared path in ``markovbin.fit``:
    the binomial bound for a BinFit, else the negative binomial one (also
    the Poisson limit's, and ``bound_nb``'s where there is no fit), each as
    prefactor * [2*K1/sqrt(n) + 4*K2/n + base^floor(n/4)] + epsilon term."""
    consts = bound_constants(params)
    if isinstance(fit, BinFit):
        p = stationary_law(params).p
        one_minus_theta = 1.0 - fit.theta
        prefactor = (
            abs(p - fit.theta) / one_minus_theta * consts.c1
            + abs(params.beta - params.alpha) / one_minus_theta * consts.c2
        )
        base = max(params.alpha, params.beta)
        epsilon_term = fit.theta**2 * fit.epsilon / (n * p * one_minus_theta)
    else:
        prefactor, base, epsilon_term = consts.c0, params.beta, None
    # floor(n/4) by integer division; n < 4 makes the geometric term 1.
    breakdown = {
        "prefactor": prefactor,
        "bracket_sqrt": 2.0 * consts.k1 / math.sqrt(n),
        "bracket_linear": 4.0 * consts.k2 / n,
        "bracket_geometric": base ** (n // 4),
    }
    if epsilon_term is not None:
        breakdown["epsilon_term"] = epsilon_term
    value = _bound_value(breakdown)
    return BoundReport(regime, value, min(1.0, value), breakdown)


def bound_nb(params: ChainParams, n: int) -> BoundReport:
    """TV error bound for the matched negative binomial approximation.

    Applies in the overdispersed/equidispersed regime only (RegimeError otherwise).
    """
    regime = classify_regime(params, n)
    if regime is Regime.UNDERDISPERSED:
        raise RegimeError("underdispersed inputs: use bound_binomial")
    return _bound(params, n, regime, None)


def bound_binomial(params: ChainParams, n: int, fit: BinFit) -> BoundReport:
    """TV error bound for the matched binomial approximation.

    Applies in the underdispersed regime only (RegimeError otherwise).
    ``fit`` must be the fit for (params, n): it is checked against the one
    the shared fit path in ``markovbin.fit`` derives from the same moments.
    On the alpha == beta line both prefactor terms and epsilon vanish, so
    the bound is exactly 0.
    """
    moments = moments_closed_form(params, n)
    regime = _regime(params, moments)
    if regime is not Regime.UNDERDISPERSED:
        raise RegimeError("non-underdispersed inputs: use bound_nb")
    expected = _fit(params, n, moments, regime)
    if fit.m != expected.m or abs(fit.m_tilde - expected.m_tilde) > 1e-9 * max(
        1.0, abs(expected.m_tilde)
    ):
        raise ValueError("fit is not consistent with (params, n)")
    return _bound(params, n, regime, fit)
