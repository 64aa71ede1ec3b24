import math

import mpmath
import pytest

from markovbin import (
    BoundConstants,
    BoundReport,
    ChainParams,
    ConsistencyError,
    Regime,
    RegimeError,
    bound_binomial,
    bound_constants,
    bound_nb,
    fit_binomial,
    gamma_fn,
)
from markovbin.bounds import _bound_value


def _geometric_moments(stay):
    """Mean and variance of the revisit count N with P(N = j) = (1 - stay) * stay**j,
    j >= 0, as series sums at mpmath's working precision."""
    mean = mpmath.nsum(lambda j: j * (1 - stay) * stay**j, [0, mpmath.inf])
    second = mpmath.nsum(lambda j: j * j * (1 - stay) * stay**j, [0, mpmath.inf])
    return float(mean), float(second - mean**2)


class TestBoundConstants:
    @pytest.mark.parametrize(
        "alpha,beta", [(0.1, 0.8), (0.3, 0.6), (0.5, 0.5), (1e-3, 0.999), (0.999, 1e-3)]
    )
    def test_block_moments_are_geometric_series(self, alpha, beta):
        # the 0-block's revisit count stays with probability 1 - alpha, the
        # 1-block's with probability beta
        consts = bound_constants(ChainParams(alpha, beta))
        with mpmath.workdps(30):
            odd = _geometric_moments(1 - mpmath.mpf(alpha))
            even = _geometric_moments(mpmath.mpf(beta))
        assert (consts.mu1, consts.sigma1_sq) == pytest.approx(odd, rel=1e-14, abs=0.0)
        assert (consts.mu2, consts.sigma2_sq) == pytest.approx(even, rel=1e-14, abs=0.0)

    def test_reference_point(self):
        consts = bound_constants(ChainParams(0.1, 0.8))
        assert consts.mu1 == pytest.approx(9.0, rel=1e-14)
        assert consts.mu2 == pytest.approx(4.0, rel=1e-14)
        assert consts.sigma1_sq == pytest.approx(90.0, rel=1e-13)
        assert consts.sigma2_sq == pytest.approx(20.0, rel=1e-13)
        assert consts.k1 == pytest.approx(math.sqrt(150.0), rel=1e-13)
        assert consts.k2 == pytest.approx(660.0, rel=1e-12)
        assert consts.c0 == pytest.approx(689.5, rel=1e-12)
        assert consts.c1 == pytest.approx(40.0, rel=1e-13)
        assert consts.c2 == pytest.approx(390.0, rel=1e-12)

    def test_equal_rates(self):
        consts = bound_constants(ChainParams(0.5, 0.5))
        assert consts.c0 == 0.0
        assert consts.c1 == pytest.approx(10.0, rel=1e-14)
        assert consts.mu1 == 1.0 and consts.mu2 == 1.0

    def test_alpha_squared_underflow(self):
        # alpha**2 is 0 as a double; the true sigma1_sq overflows
        consts = bound_constants(ChainParams(1e-300, 0.5))
        assert consts.sigma1_sq == math.inf and consts.k2 == math.inf
        assert consts.mu1 == pytest.approx(1e300, rel=1e-14)

    def test_mu1_overflow(self):
        # below alpha ~ 5.6e-309 mu1 overflows too; K2 ~ 90/alpha is inf, not inf/inf
        consts = bound_constants(ChainParams(1e-310, 0.5))
        assert consts.mu1 == math.inf and consts.k2 == math.inf

    def test_second_point(self):
        consts = bound_constants(ChainParams(0.3, 0.6))
        assert consts.mu1 == pytest.approx(7 / 3, rel=1e-14)
        assert consts.mu2 == pytest.approx(1.5, rel=1e-14)
        assert consts.k1 == pytest.approx(math.sqrt(5 * (7 / 3 + 1.5 + 2) / 0.5), rel=1e-13)
        assert consts.k2 == pytest.approx(90 * (0.7 / 0.09 + 0.6 / 0.16) / (7 / 3 + 3.5), rel=1e-13)
        assert consts.c1 == pytest.approx(15.0, rel=1e-14)
        assert consts.c2 == pytest.approx((4 / 7) * 18.8 / 0.16, rel=1e-13)


class TestGammaFn:
    def test_substitution(self):
        consts = bound_constants(ChainParams(0.1, 0.8))
        assert gamma_fn(consts, 100.0) == pytest.approx(math.sqrt(150.0) / 10.0 + 6.6, rel=1e-13)

    def test_monotone_vanishing(self):
        consts = bound_constants(ChainParams(0.3, 0.6))
        values = [gamma_fn(consts, float(x)) for x in (10, 100, 1000, 10_000, 10_000_000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-2

    def test_zero_constants(self):
        consts = BoundConstants(1, 1, 1, 1, 0, 0, 0, k1=0.0, k2=0.0)
        assert gamma_fn(consts, 3.7) == 0.0

    def test_rejects_nonpositive_x(self):
        consts = bound_constants(ChainParams(0.3, 0.6))
        with pytest.raises(ValueError):
            gamma_fn(consts, 0.0)


class TestBoundNb:
    def test_reference_point(self):
        report = bound_nb(ChainParams(0.1, 0.8), 100)
        terms = report.term_breakdown
        assert terms["bracket_sqrt"] == pytest.approx(2 * math.sqrt(150.0) / 10.0, rel=1e-13)
        assert terms["bracket_linear"] == pytest.approx(26.4, rel=1e-13)
        assert terms["bracket_geometric"] == pytest.approx(0.8**25, rel=1e-13)
        assert report.bound_value == pytest.approx(689.5 * (2.449489742783178 + 26.4 + 0.8**25), rel=1e-12)
        assert report.clipped_value == 1.0
        assert report.regime is Regime.OVERDISPERSED

    def test_equal_rates_on_request(self):
        # on the alpha == beta line the prefactor C0 vanishes
        assert bound_constants(ChainParams(0.5, 0.5)).c0 == 0.0
        with pytest.raises(RegimeError):
            bound_nb(ChainParams(0.5, 0.5), 40)

    def test_monotone_vanishing(self):
        params = ChainParams(0.1, 0.8)
        values = [bound_nb(params, n).bound_value for n in range(16, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        big_n = bound_nb(params, 10**7).bound_value
        expected = 689.5 * (2 * math.sqrt(150.0) / math.sqrt(10**7) + 4 * 660.0 / 10**7)
        assert big_n == pytest.approx(expected, rel=1e-9)

    def test_scale_identity(self):
        # the linear bracket term carries exactly 4*C0*K2 after rescaling by n
        params = ChainParams(0.1, 0.8)
        consts = bound_constants(params)
        for n in (7, 32, 111, 4096):
            report = bound_nb(params, n)
            residual = (
                report.bound_value
                - consts.c0 * 2 * consts.k1 / math.sqrt(n)
                - consts.c0 * params.beta ** (n // 4)
            )
            assert n * residual == pytest.approx(4 * consts.c0 * consts.k2, rel=1e-12)

    @pytest.mark.parametrize("rate", [1e-300, 1e-158])
    def test_zero_prefactor_with_infinite_brackets(self, rate):
        # alpha == beta makes C0 vanish while alpha**2 underflows and the
        # brackets overflow; 0 * inf is nan, but the bound is exactly 0
        report = bound_nb(ChainParams(rate, rate), 3)
        terms = report.term_breakdown
        assert terms["prefactor"] == 0.0 and terms["bracket_linear"] == math.inf
        assert (report.bound_value, report.clipped_value) == (0.0, 0.0)
        assert _bound_value(terms) == 0.0


class TestBoundBinomial:
    def test_equal_rates_exactly_zero(self):
        params = ChainParams(0.4, 0.4)
        report = bound_binomial(params, 10, fit_binomial(params, 10))
        assert report.bound_value == 0.0
        assert report.clipped_value == 0.0

    def test_epsilon_term(self):
        params = ChainParams(0.3, 0.6)
        report = bound_binomial(params, 2, fit_binomial(params, 2))
        assert report.term_breakdown["epsilon_term"] == pytest.approx(
            (2 / 7) ** 2 * (1 / 3) / ((6 / 7) * (5 / 7)), rel=1e-12
        )

    def test_prefactor(self):
        params = ChainParams(0.3, 0.6)
        report = bound_binomial(params, 2, fit_binomial(params, 2))
        assert report.term_breakdown["prefactor"] == pytest.approx(31.2, rel=1e-12)

    def test_wrong_regime(self):
        params = ChainParams(0.3, 0.6)
        fit = fit_binomial(params, 2)
        with pytest.raises(RegimeError):
            bound_binomial(ChainParams(0.1, 0.8), 100, fit)

    def test_inconsistent_fit_rejected(self):
        params = ChainParams(0.3, 0.6)
        other = fit_binomial(ChainParams(0.2, 0.1), 50)
        with pytest.raises(ValueError):
            bound_binomial(params, 2, other)

    def test_bracket_decreasing(self):
        params = ChainParams(0.2, 0.1)
        brackets = []
        for n in range(16, 200):
            report = bound_binomial(params, n, fit_binomial(params, n))
            terms = report.term_breakdown
            brackets.append(
                terms["bracket_sqrt"] + terms["bracket_linear"] + terms["bracket_geometric"]
            )
        assert all(a > b for a, b in zip(brackets, brackets[1:]))


class TestBoundReport:
    def test_breakdown_must_recompute(self):
        with pytest.raises(ConsistencyError):
            BoundReport(
                regime=Regime.OVERDISPERSED,
                bound_value=2.0,
                clipped_value=1.0,
                term_breakdown={
                    "prefactor": 1.0,
                    "bracket_sqrt": 0.5,
                    "bracket_linear": 0.25,
                    "bracket_geometric": 0.1,
                },
            )

    def test_clip_must_match(self):
        with pytest.raises(ConsistencyError):
            BoundReport(
                regime=Regime.OVERDISPERSED,
                bound_value=0.85,
                clipped_value=1.0,
                term_breakdown={
                    "prefactor": 1.0,
                    "bracket_sqrt": 0.5,
                    "bracket_linear": 0.25,
                    "bracket_geometric": 0.1,
                },
            )

    def test_nan_rejected(self):
        # every comparison with nan is False, so nan passed the checks above
        # (min(1, nan) is 1); the breakdown's bound is 0
        with pytest.raises(ConsistencyError, match="nan"):
            BoundReport(
                regime=Regime.EQUIDISPERSED,
                bound_value=math.nan,
                clipped_value=1.0,
                term_breakdown={
                    "prefactor": 0.0,
                    "bracket_sqrt": math.inf,
                    "bracket_linear": math.inf,
                    "bracket_geometric": 1.0,
                },
            )
