import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from markovbin import (
    ChainParams,
    DegenerateFitError,
    Regime,
    RegimeError,
    binomial_pmf,
    classify_regime,
    exact_pmf,
    fit_binomial,
    fit_negative_binomial,
    moments_closed_form,
    moments_from_pmf,
    nb_pmf,
    poisson_pmf,
    tv_distance,
)
from markovbin.cli import evaluate_point
from markovbin.core import MomentSummary
from markovbin.fit import (
    TRUNCATION_MASS,
    ConsistencyError,
    _bin_fit_from_moments,
    _nb_fit_from_moments,
    _poisson_tol,
    _regime,
)

from oracles import binom_pmf_reference, nb_pmf_reference, poisson_pmf_reference


class TestClassifyRegime:
    def test_equal_rates_underdispersed(self):
        assert classify_regime(ChainParams(0.4, 0.4), 10) is Regime.UNDERDISPERSED

    def test_overdispersed(self):
        assert classify_regime(ChainParams(0.1, 0.8), 100) is Regime.OVERDISPERSED

    def test_small_n_underdispersed(self):
        assert classify_regime(ChainParams(0.3, 0.6), 2) is Regime.UNDERDISPERSED

    @given(
        st.floats(min_value=0.02, max_value=0.98),
        st.floats(min_value=0.02, max_value=0.98),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_raises_consistency_error(self, alpha, beta, n):
        # variance >= mean forces beta > alpha, so the internal check is quiet
        regime = classify_regime(ChainParams(alpha, beta), n)
        if regime is not Regime.UNDERDISPERSED:
            assert beta > alpha

    @pytest.mark.parametrize("n", [1, 10, 3000])
    @pytest.mark.parametrize("alpha,beta", [(1e-14, 1e-16), (1e-16, 1e-30), (1e-30, 1e-100)])
    def test_tiny_rates_below_alpha_are_equidispersed(self, alpha, beta, n):
        # |Var S - E S| is 3e-14 relative or less here (0 at (1e-30, 1e-100)),
        # inside the equidispersion band: a Poisson-limit row, not an error
        params = ChainParams(alpha, beta)
        assert classify_regime(params, n) is Regime.EQUIDISPERSED
        row = evaluate_point(params, n)
        assert (row["status"], row["regime"], row["poisson_limit"]) == ("ok", "equidispersed", True)
        assert math.isfinite(row["bound"])
        assert row["tv_exact"] <= row["bound_clipped"] + row["tail_mass"] + 1e-12

    def test_overdispersed_moments_below_alpha_still_raise(self):
        moments = MomentSummary(mean=1.0, variance=2.0, a0=0.0, a1=0.0)
        with pytest.raises(ConsistencyError):
            _regime(ChainParams(0.6, 0.3), moments)
        assert _regime(ChainParams(0.3, 0.6), moments) is Regime.OVERDISPERSED


class TestFitNegativeBinomial:
    def test_known_fit(self):
        fit = fit_negative_binomial(ChainParams(0.1, 0.8), 100)
        assert not fit.poisson_limit
        assert fit.r == pytest.approx(4500 / 361, rel=1e-12)
        assert fit.q == pytest.approx(135 / 496, rel=1e-12)

    def test_poisson_limit_on_equal_moments(self):
        fit = _nb_fit_from_moments(7.5, 7.5)
        assert fit.poisson_limit and math.isinf(fit.r) and fit.q == 1.0
        assert fit.lam == 7.5

    def test_regime_error_for_underdispersed(self):
        with pytest.raises(RegimeError):
            fit_negative_binomial(ChainParams(0.3, 0.6), 2)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-158])
    def test_underflowing_mean_squared(self, alpha):
        # (E S)^2 is 0 at alpha = 1e-300 and subnormal at 1e-158, where it
        # keeps about 8 digits; r divides first and keeps them all
        params = ChainParams(alpha, 1e-12)
        moments = moments_closed_form(params, 3)
        mean, variance = Fraction(moments.mean), Fraction(moments.variance)
        fit = fit_negative_binomial(params, 3)
        assert fit.r == pytest.approx(float(mean * mean / (variance - mean)), rel=1e-15)
        assert nb_pmf(fit.r, fit.q).mass[0] == 1.0

    def test_underflowing_r_is_degenerate(self):
        # an r that still underflows is a degenerate fit, to 0 or below the
        # normal range, where no kernel tabulates the law
        with pytest.raises(DegenerateFitError):
            _nb_fit_from_moments(5e-324, 1e-300)
        with pytest.raises(DegenerateFitError):
            _nb_fit_from_moments(6e-320, 1.1e-319)
        with pytest.raises(DegenerateFitError):
            fit_negative_binomial(ChainParams(1e-320, 0.5), 2)

    def test_moment_match_of_fit(self):
        fit = fit_negative_binomial(ChainParams(0.1, 0.8), 100)
        mean = fit.r * (1.0 - fit.q) / fit.q
        variance = mean / fit.q
        assert mean == pytest.approx(100 / 3, rel=1e-12)
        assert variance == pytest.approx(9920 / 81 - 280 / 81 * 0.7**100, rel=1e-12)


class TestFitBinomial:
    def test_known_fit(self):
        fit = fit_binomial(ChainParams(0.3, 0.6), 2)
        assert fit.m_tilde == pytest.approx(10 / 3, rel=1e-13)
        assert fit.m == 3
        assert fit.theta == pytest.approx(2 / 7, rel=1e-13)
        assert fit.epsilon == pytest.approx(1 / 3, rel=1e-12)

    def test_equal_rates_exact_degeneracy(self):
        fit = fit_binomial(ChainParams(0.4, 0.4), 10)
        assert fit.m_tilde == 10.0 and fit.m == 10
        assert fit.theta == 0.4 and fit.epsilon == 0.0

    def test_regime_error_for_overdispersed(self):
        with pytest.raises(RegimeError):
            fit_binomial(ChainParams(0.1, 0.8), 100)

    def test_degenerate_fit_raises(self):
        # alternating-chain corner: flooring m_tilde lands m on the mean
        with pytest.raises(DegenerateFitError):
            fit_binomial(ChainParams(0.9, 0.1), 10)

    def test_single_step_is_exact_bernoulli_fit(self):
        # at n = 1 the sum is Bernoulli(p) and m_tilde = 1 in real
        # arithmetic; the fit must not floor-jitter to a degenerate m = 0
        from markovbin import stationary_law

        for alpha, beta in [(0.05, 0.1), (0.3, 0.6), (0.8, 0.2)]:
            params = ChainParams(alpha, beta)
            fit = fit_binomial(params, 1)
            assert fit.m == 1 and fit.m_tilde == 1.0 and fit.epsilon == 0.0
            assert fit.theta == stationary_law(params).p

    def test_degenerate_from_raw_moments(self):
        with pytest.raises(DegenerateFitError):
            _bin_fit_from_moments(2.9, 0.049)

    def test_mean_matched_exactly(self):
        fit = fit_binomial(ChainParams(0.2, 0.1), 50)
        mean = 50 * 0.2 / (1.0 - (0.1 - 0.2))
        assert fit.m * fit.theta == pytest.approx(mean, rel=1e-14)


class TestNbPmf:
    def test_geometric_reduction(self):
        pmf = nb_pmf(1.0, 0.5)
        geometric = 0.5 ** (np.arange(len(pmf)) + 1)
        assert np.max(np.abs(pmf.mass - geometric)) <= 1e-14

    def test_q_one_point_mass(self):
        pmf = nb_pmf(3.0, 1.0)
        assert pmf.mass.tolist() == [1.0] and pmf.tail == 0.0

    def test_integer_r_values(self):
        pmf = nb_pmf(2.0, 0.5)
        assert pmf.mass[0] == pytest.approx(0.25, rel=1e-14)
        assert pmf.mass[1] == pytest.approx(0.25, rel=1e-14)
        assert pmf.mass[2] == pytest.approx(0.1875, rel=1e-14)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            nb_pmf(0.0, 0.5)
        with pytest.raises(ValueError, match="subnormal"):
            nb_pmf(8e-320, 0.5)
        with pytest.raises(ValueError):
            nb_pmf(2.0, 1.5)

    def test_matches_log_gamma_formula(self):
        pmf = nb_pmf(4500 / 361, 135 / 496)
        reference = nb_pmf_reference(np.arange(len(pmf)), 4500 / 361, 135 / 496)
        assert np.max(np.abs(pmf.mass - reference) / np.maximum(reference, 1e-300)) <= 1e-10

    def test_auto_truncation_tail(self):
        pmf = nb_pmf(4500 / 361, 135 / 496)
        assert 0.0 < pmf.tail <= 1e-12
        assert abs(float(pmf.mass.sum()) + pmf.tail - 1.0) <= 1e-12


class TestBinomialPmf:
    def test_single_trial(self):
        assert binomial_pmf(1, 0.5).mass == pytest.approx([0.5, 0.5])

    def test_cube_expansion(self):
        pmf = binomial_pmf(3, 2 / 7)
        expected = [125 / 343, 150 / 343, 60 / 343, 8 / 343]
        assert pmf.mass == pytest.approx(expected, rel=1e-14)

    def test_tiny_theta_stable(self):
        pmf = binomial_pmf(2, 1e-9)
        assert pmf.mass[0] == pytest.approx(1.0 - 2e-9, abs=1e-13)
        assert pmf.mass[1] == pytest.approx(2e-9, rel=1e-7)

    def test_matches_log_gamma_formula(self):
        pmf = binomial_pmf(30, 0.37)
        reference = binom_pmf_reference(np.arange(31), 30, 0.37)
        assert np.max(np.abs(pmf.mass - reference) / reference) <= 1e-10


class TestPoissonPmf:
    def test_lambda_zero(self):
        assert poisson_pmf(0.0).mass.tolist() == [1.0]

    def test_lambda_one(self):
        pmf = poisson_pmf(1.0)
        assert pmf.mass[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert pmf.mass[1] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_lambda_two(self):
        pmf = poisson_pmf(2.0)
        assert pmf.mass[2] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_matches_log_gamma_formula(self):
        pmf = poisson_pmf(33.0)
        reference = poisson_pmf_reference(np.arange(len(pmf)), 33.0)
        assert np.max(np.abs(pmf.mass - reference) / reference) <= 1e-10

    @pytest.mark.parametrize("lam", [4370.651008559057, 1e4, 1e5])
    def test_large_lambda(self, lam):
        # a fixed 1e-12 normalization tolerance rejected these laws
        pmf = poisson_pmf(lam)
        assert abs(float(pmf.mass.sum()) + pmf.tail - 1.0) <= _poisson_tol(lam)
        spread = math.sqrt(lam)
        for k in (int(lam - 3.0 * spread), int(lam), int(lam + 3.0 * spread)):
            with mpmath.workdps(30):
                mu = mpmath.mpf(lam)
                exact = mpmath.exp(k * mpmath.log(mu) - mpmath.loggamma(k + 1) - mu)
                rel = float(abs(mpmath.mpf(float(pmf.mass[k])) - exact) / exact)
            # the per-mass bound that _poisson_tol averages over the law
            bound = 2.0 * np.finfo(float).eps * (k * abs(math.log(lam)) + k * math.log(k) + lam)
            assert rel <= bound, (k, rel, bound)


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: nb_pmf(math.inf, 0.5), "r"),
        (lambda: nb_pmf(math.nan, 0.5), "r"),
        (lambda: poisson_pmf(math.inf), "lam"),
        (lambda: poisson_pmf(math.nan), "lam"),
    ],
    ids=["nb-r-inf", "nb-r-nan", "poisson-lam-inf", "poisson-lam-nan"],
)
def test_non_finite_parameters_rejected(build, name):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        build()


def test_huge_parameters_rejected():
    # past a mean of 2**53 the support points are not exact doubles; beyond
    # lam of about 1.13e11 the Poisson quantile is NaN.  A subprocess with a
    # timeout, so that a quantile kernel that does not return fails the test.
    calls = {
        "nb_pmf(1e17, 0.5)": "r",
        "nb_pmf(1e20, 0.5)": "r",
        "nb_pmf(1e300, 0.5)": "r",
        "poisson_pmf(1e12)": "lam",
        "poisson_pmf(1e300)": "lam",
        "binomial_pmf(2**53, 0.5)": "m",
    }
    code = "from markovbin import binomial_pmf, nb_pmf, poisson_pmf\n" + "".join(
        f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n"
        f"else:\n    print('returned')\n"
        for call in calls
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(nb_pmf.__code__.co_filename)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    lines = result.stdout.splitlines()
    assert len(lines) == len(calls), result.stdout
    for (call, name), line in zip(calls.items(), lines):
        assert line.startswith(f"{name} "), (call, line)


def _stats_law(law, args, mean, std):
    """What ``fit._tabulated`` tabulates, computed through scipy.stats."""
    cap = int(math.ceil(10.0 * (mean + 10.0 * std))) + 1
    trunc = max(1, min(int(law.ppf(1.0 - TRUNCATION_MASS, *args)), cap))
    return law.pmf(np.arange(trunc + 1), *args), float(law.sf(trunc, *args))


class TestScipyStatsIdentity:
    """The reference laws are built on the scipy.special kernels that
    scipy.stats calls; a scipy release that changes either side fails here.
    Each case compares the mass bytes, the tail and the truncation point."""

    def _assert_same(self, pmf, law, args, mean, std):
        mass, tail = _stats_law(law, args, mean, std)
        assert pmf.mass.tobytes() == mass.tobytes(), args
        assert pmf.tail == tail, args

    def test_negative_binomial(self):
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            r = 10.0 ** rng.uniform(-3.0, 5.0)
            if rng.random() < 0.5:
                q = 10.0 ** rng.uniform(-4.0, 0.0)
            else:
                q = 1.0 - 10.0 ** rng.uniform(-9.0, -1.0)
            mean = r * (1.0 - q) / q
            if mean > 2e5:
                continue
            std = math.sqrt(mean / q)
            self._assert_same(nb_pmf(r, q), stats.nbinom, (r, q), mean, std)

    # pdtrik lands past the quantile here, and the ppf steps back by one
    _STEP_BACK = [1.4142316033337135e-06, 178.71171607341614, 6963.469107547125]

    def test_poisson(self):
        rng = np.random.default_rng(20261020)
        for lam in [*self._STEP_BACK, *(10.0 ** rng.uniform(-6.0, 5.0, 300))]:
            self._assert_same(poisson_pmf(lam), stats.poisson, (lam,), lam, math.sqrt(lam))

    def test_binomial(self):
        rng = np.random.default_rng(20261021)
        for _ in range(200):
            m = int(rng.integers(1, 5001))
            theta = 10.0 ** rng.uniform(-12.0, 0.0) if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
            if not 0.0 < theta < 1.0:
                continue
            expected = stats.binom.pmf(np.arange(m + 1), m, theta)
            assert binomial_pmf(m, theta).mass.tobytes() == expected.tobytes(), (m, theta)


class TestMomentMatching:
    @pytest.mark.parametrize("alpha,beta,n", [(0.1, 0.8, 100), (0.1, 0.8, 1000), (0.3, 0.6, 200)])
    def test_nb_pmf_reproduces_targets(self, alpha, beta, n):
        fit = fit_negative_binomial(ChainParams(alpha, beta), n)
        pmf = nb_pmf(fit.r, fit.q)
        mean, variance = moments_from_pmf(pmf)
        target_mean = fit.r * (1.0 - fit.q) / fit.q
        assert mean == pytest.approx(target_mean, rel=1e-9)
        assert variance == pytest.approx(target_mean / fit.q, rel=1e-9)

    @pytest.mark.parametrize("alpha,beta,n", [(0.3, 0.6, 2), (0.2, 0.1, 50), (0.5, 0.5, 30)])
    def test_binomial_mean_matched(self, alpha, beta, n):
        params = ChainParams(alpha, beta)
        fit = fit_binomial(params, n)
        mean, _ = moments_from_pmf(binomial_pmf(fit.m, fit.theta))
        assert mean == pytest.approx(fit.m * fit.theta, rel=1e-12)

    def test_equal_rates_tv_identity(self):
        for alpha in (0.1, 0.5, 0.9):
            params = ChainParams(alpha, alpha)
            assert tv_distance(exact_pmf(params, 25), binomial_pmf(25, alpha)) <= 1e-12
