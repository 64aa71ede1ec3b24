from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovbin import (
    MAX_EXACT_N,
    ChainParams,
    Pmf,
    exact_conditional_pmf,
    exact_pmf,
    moments_closed_form,
    moments_from_pmf,
    shift_tv,
    stationary_law,
    tv_distance,
)

from markovbin.cli import evaluate_point
from markovbin import core
from markovbin.core import _MOMENT_RTOL, PMF_TOL, _exact_laws, _exact_tol
from markovbin.fit import DegenerateFitError, RegimeError
from oracles import enumerate_pmf, full_dp_pmf, mc_state1_frequency

TINY = np.finfo(float).tiny
EPS = np.finfo(float).eps

params_strategy = st.tuples(
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=0.02, max_value=0.98),
)


class TestChainParams:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.5)])
    def test_rejects_boundary_and_outside(self, alpha, beta):
        with pytest.raises(ValueError):
            ChainParams(alpha, beta)


class TestStationaryLaw:
    def test_equal_rates_give_alpha(self):
        assert stationary_law(ChainParams(0.2, 0.2)).p == 0.2
        assert stationary_law(ChainParams(0.7, 0.7)).p == 0.7

    def test_known_values(self):
        assert stationary_law(ChainParams(0.3, 0.6)).p == pytest.approx(3 / 7, rel=1e-15)
        assert stationary_law(ChainParams(0.1, 0.8)).p == pytest.approx(1 / 3, rel=1e-15)

    def test_matches_long_run_frequency(self):
        # 10^7 retained states from plain transition simulation
        freq = mc_state1_frequency(0.3, 0.6, seed=2024)
        assert freq == pytest.approx(3 / 7, abs=1.5e-3)
        freq = mc_state1_frequency(0.1, 0.8, seed=2025)
        assert freq == pytest.approx(1 / 3, abs=1.5e-3)

    def test_masses_sum_to_one(self):
        law = stationary_law(ChainParams(0.123, 0.456))
        assert law.p + law.p0 == pytest.approx(1.0, abs=1e-15)

    def test_detailed_balance(self):
        # the stationary two-state chain is reversible, which is what lets the
        # conditional law reuse the forward DP for its left segment
        params = ChainParams(0.37, 0.81)
        law = stationary_law(params)
        assert law.p0 * params.alpha == pytest.approx(law.p * (1.0 - params.beta), rel=1e-14)

    def test_cancelling_denominator(self):
        # 1 - (beta - alpha) cancels here; the quotients used to miss 1 by 5e-11
        law = stationary_law(ChainParams(1e-6, 0.999999))
        assert abs(law.p + law.p0 - 1.0) <= 4 * EPS
        assert law.p == pytest.approx(1e-6 / (1e-6 + (1.0 - 0.999999)), rel=4 * EPS)

    def test_edge_point_evaluates(self):
        try:
            row = evaluate_point(ChainParams(1e-6, 0.999999), 10)
        except (RegimeError, DegenerateFitError):
            return
        assert row["status"] in ("ok", "degenerate_fit")


class TestPmf:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, -0.1, 0.6]))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.4]))

    def test_tail_accounted(self):
        pmf = Pmf(np.array([0.6, 0.3]), tail=0.1)
        assert pmf.tail == 0.1 and len(pmf) == 2


class TestExactPmf:
    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            exact_pmf(ChainParams(0.3, 0.6), 0)

    def test_rejects_n_past_cap(self):
        with pytest.raises(ValueError, match="exceeds MAX_EXACT_N"):
            exact_pmf(ChainParams(0.3, 0.6), MAX_EXACT_N + 1)

    def test_equal_rates_degenerate_to_binomial(self):
        pmf = exact_pmf(ChainParams(0.5, 0.5), 3)
        assert np.allclose(pmf.mass, [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-15)

    def test_stationary_two_steps(self):
        pmf = exact_pmf(ChainParams(0.3, 0.6), 2)
        assert pmf.mass == pytest.approx([0.4, 12 / 35, 9 / 35], rel=1e-14)

    def test_state0_two_steps(self):
        pmf = exact_pmf(ChainParams(0.3, 0.6), 2, start="state0")
        assert pmf.mass == pytest.approx([0.49, 0.33, 0.18], rel=1e-14)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            exact_pmf(ChainParams(0.3, 0.6), 2, start="both")
        # a start is a name; a law on {0, 1} is not one
        with pytest.raises(ValueError, match="start must be"):
            exact_pmf(ChainParams(0.3, 0.6), 2, start=(0.5, 0.2))

    @pytest.mark.parametrize("start", ["stationary", "state0", "state1"])
    def test_matches_path_enumeration(self, start):
        params = ChainParams(0.3, 0.6)
        for n in range(1, 9):
            dp = exact_pmf(params, n, start=start)
            brute = enumerate_pmf(0.3, 0.6, n, start=start)
            assert tv_distance(dp, brute) <= 1e-13

    @given(params_strategy, st.integers(min_value=1, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_normalized_for_random_parameters(self, ab, n):
        pmf = exact_pmf(ChainParams(*ab), n)
        assert abs(float(pmf.mass.sum()) - 1.0) <= 1e-12
        assert np.all(pmf.mass >= 0.0)


class TestWindowedDp:
    @pytest.mark.parametrize(
        "alpha,beta,n,start",
        [
            (0.11, 0.8, 5000, "stationary"),
            (0.11, 0.8, 5000, "state0"),
            (0.11, 0.8, 5000, "state1"),
            (1e-3, 0.999, 2000, "stationary"),  # bimodal, peaks at 0 and n
        ],
    )
    def test_matches_full_width_dp(self, alpha, beta, n, start):
        params = ChainParams(alpha, beta)
        law = exact_pmf(params, n, start=start)
        inits = {
            "stationary": stationary_law(params).as_array(),
            "state0": [1.0, 0.0],
            "state1": [0.0, 1.0],
        }
        full = full_dp_pmf(alpha, beta, n, np.asarray(inits[start]))
        kept = full >= 1e-280
        assert law.mass.size == n + 1
        assert np.array_equal(law.mass[kept], full[kept])
        assert 0.0 <= law.tail <= (n + 1) * TINY
        assert not np.any((law.mass > 0.0) & (law.mass < TINY))

    def test_max_exact_n(self):
        params = ChainParams(0.1, 0.8)
        n = MAX_EXACT_N
        law = exact_pmf(params, n)
        tol = 2 * (n + 1) * EPS
        assert law.tol == tol
        assert abs(float(law.mass.sum()) + law.tail - 1.0) <= tol
        mean, variance = moments_from_pmf(law)
        closed = moments_closed_form(params, n)
        assert mean == pytest.approx(closed.mean, rel=1e-9)
        assert variance == pytest.approx(closed.variance, rel=1e-9)
        # the size-aware tolerance is never looser than PMF_TOL up to n = 1000
        assert exact_pmf(params, 1000).tol == PMF_TOL


class TestExactConditionalPmf:
    def test_single_step_is_point_mass(self):
        for j in (0, 1):
            pmf = exact_conditional_pmf(ChainParams(0.3, 0.6), 1, 1, j)
            assert pmf.mass == pytest.approx([1.0])

    def test_right_segment_only(self):
        pmf = exact_conditional_pmf(ChainParams(0.3, 0.6), 2, 1, 1)
        assert pmf.mass == pytest.approx([0.4, 0.6], rel=1e-15)

    def test_two_sided_convolution(self):
        pmf = exact_conditional_pmf(ChainParams(0.3, 0.6), 3, 2, 0)
        assert pmf.mass == pytest.approx([0.49, 0.42, 0.09], rel=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            exact_conditional_pmf(ChainParams(0.3, 0.6), 3, 4, 0)
        with pytest.raises(ValueError):
            exact_conditional_pmf(ChainParams(0.3, 0.6), 3, 0, 0)
        with pytest.raises(ValueError):
            exact_conditional_pmf(ChainParams(0.3, 0.6), 3, 2, 2)

    def test_mixture_identity(self):
        # conditioning on the state at step i and mixing back recovers L(S)
        params = ChainParams(0.3, 0.6)
        p = stationary_law(params).p
        n = 7
        law_s = exact_pmf(params, n)
        for i in range(1, n + 1):
            law1 = exact_conditional_pmf(params, n, i, 1).mass
            law0 = exact_conditional_pmf(params, n, i, 0).mass
            mix = np.zeros(n + 1)
            mix[1 : 1 + law1.size] += p * law1
            mix[: law0.size] += (1.0 - p) * law0
            assert tv_distance(mix, law_s) <= 1e-12

    @given(params_strategy, st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_mixture_identity_random(self, ab, n):
        params = ChainParams(*ab)
        p = stationary_law(params).p
        law_s = exact_pmf(params, n)
        i = (n + 1) // 2
        law1 = exact_conditional_pmf(params, n, i, 1).mass
        law0 = exact_conditional_pmf(params, n, i, 0).mass
        mix = np.zeros(n + 1)
        mix[1 : 1 + law1.size] += p * law1
        mix[: law0.size] += (1.0 - p) * law0
        assert tv_distance(mix, law_s) <= 1e-12


class TestDpPass:
    """The state after k steps of one DP pass is the k-step exact law."""

    @pytest.mark.parametrize("start", ["stationary", "state0", "state1"])
    @pytest.mark.parametrize(
        "alpha,beta,n",
        [(0.3, 0.6, 60), (1e-3, 0.999, 300), (0.5, 0.5, 1100)],
        ids=["overdispersed", "bimodal", "tailed"],
    )
    def test_snapshots_match_exact_pmf(self, alpha, beta, n, start):
        params = ChainParams(alpha, beta)
        wanted = {0, 1, 2, n // 7, n // 3, n // 2, n - 1, n}
        laws = _exact_laws(params, {start: wanted})[start]
        assert sorted(laws) == sorted(wanted)
        pi = stationary_law(params)
        assert laws[0].mass.tolist() == [pi.p0 + pi.p if start == "stationary" else 1.0]
        assert laws[0].tail == 0.0
        for k in wanted - {0}:
            law = exact_pmf(params, k, start)
            assert laws[k].mass.tobytes() == law.mass.tobytes()
            assert (laws[k].tail, laws[k].tol) == (law.tail, law.tol)
        if n == 1100:
            # the window dropped mass here, so the cut is covered
            assert laws[n].tail > 0.0


class TestExactLaws:
    """Several starts stepped as one pass, each start's laws in one stack."""

    STARTS = ("stationary", "state0", "state1")

    @pytest.mark.parametrize(
        "alpha,beta,n,diverge",
        [
            (0.5, 0.5, 1100, False),
            (0.5, 0.5, 5000, False),
            (0.999, 0.001, 1500, True),
            (1e-6, 0.999999, 500, False),
            (0.2, 1e-4, 600, True),
            (0.9, 0.02, 1200, True),
        ],
    )
    def test_each_start_matches_its_one_start_pass(self, alpha, beta, n, diverge):
        params = ChainParams(alpha, beta)
        # each start wants its own steps, so the stacks differ in rows and width
        wanted = {
            start: {0, 1, 2, n // 7, n // 3 + r, n // 2, n - 2 - r, n - 1, n - 3 * r}
            for r, start in enumerate(self.STARTS)
        }
        laws = _exact_laws(params, wanted)
        assert list(laws) == list(self.STARTS)
        dropped = False
        for start, by_steps in laws.items():
            assert sorted(by_steps) == sorted(wanted[start])
            for k, law in by_steps.items():
                alone = exact_pmf(params, k, start) if k else law
                assert law.mass.tobytes() == alone.mass.tobytes(), (start, k)
                assert (law.tail, law.tol) == (alone.tail, alone.tol), (start, k)
                dropped = dropped or law.tail > 0.0
        assert dropped == ((alpha, beta) != (1e-6, 0.999999))
        # where the starts' windows part, each start keeps its own edges
        common = set.intersection(*map(set, wanted.values()))
        supports = {
            k: {tuple(np.flatnonzero(laws[start][k].mass)[[0, -1]]) for start in self.STARTS}
            for k in common
        }
        assert any(len(edges) > 1 for edges in supports.values()) == diverge

    def test_laws_are_row_views_of_one_stack_per_start(self):
        laws = _exact_laws(ChainParams(0.3, 0.6), {"state0": [40, 3, 10], "state1": [5]})
        stack = laws["state0"][40].mass.base
        assert stack.shape == (3, 41)
        for row, k in enumerate((3, 10, 40)):
            law = laws["state0"][k]
            assert law.mass.base is stack and np.shares_memory(law.mass, stack[row])
            assert law.mass.size == k + 1 and not stack[row, k + 1 :].any()
        assert laws["state1"][5].mass.base.shape == (1, 6)

    @staticmethod
    def _planted(monkeypatch, plant):
        """Run ``plant`` on each stack just before the engine checks it."""
        check = core._check_laws

        def planted(mass, tails, tols):
            plant(mass, tols)
            check(mass, tails, tols)

        monkeypatch.setattr(core, "_check_laws", planted)

    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize(
        "value,message",
        [(np.nan, "mass entries must be finite"), (-1e-9, "mass entries must be finite and non-negative")],
    )
    def test_planted_bad_entry_raises(self, monkeypatch, row, value, message):
        def plant(mass, tols):
            if mass.shape[0] == 3:
                mass[row, 2] = value

        self._planted(monkeypatch, plant)
        with pytest.raises(ValueError, match=message):
            _exact_laws(ChainParams(0.3, 0.6), {"state1": [4], "state0": [3, 10, 40]})

    def test_each_row_is_checked_at_its_own_tolerance(self, monkeypatch):
        # rows after 3 and 6000 steps: tolerances 1e-12 and 2.7e-12
        small, large = _exact_tol(3), _exact_tol(6000)
        assert small == PMF_TOL and large > 2.5 * small
        params, wanted = ChainParams(0.3, 0.6), {"state0": [3, 6000]}

        def off_by(row):
            def plant(mass, tols):
                assert tols == [small, large]
                mass[row] *= 1.0 + 2.0 * small

            return plant

        self._planted(monkeypatch, off_by(1))
        laws = _exact_laws(params, wanted)["state0"]  # within the larger tolerance
        assert abs(laws[6000].mass.sum() - 1.0) > small
        self._planted(monkeypatch, off_by(0))
        with pytest.raises(ValueError, match=r"off by more than tol=1e-12$"):
            _exact_laws(params, wanted)


def _assert_conditionals_match_separate_runs(params, n):
    """Every L(S - X_i | X_i = j) equals the convolution of two separate DP
    runs; returns how many of them have dropped mass in both segments."""
    both_tailed = 0
    for j in (0, 1):
        start = "state1" if j == 1 else "state0"
        for i in range(1, n + 1):
            one = Pmf(np.ones(1))
            left = exact_pmf(params, i - 1, start) if i > 1 else one
            right = exact_pmf(params, n - i, start) if i < n else one
            law = exact_conditional_pmf(params, n, i, j)
            assert law.mass.tobytes() == np.convolve(left.mass, right.mass).tobytes()
            assert law.tail == left.tail + right.tail
            both_tailed += left.tail > 0.0 and right.tail > 0.0
    return both_tailed


class TestConditionalFromOnePass:
    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.6), (0.6, 0.25), (0.4, 0.4)])
    def test_matches_separate_runs(self, alpha, beta, n):
        _assert_conditionals_match_separate_runs(ChainParams(alpha, beta), n)

    def test_matches_separate_runs_with_tail(self):
        # 92 of these 400 laws have dropped mass in both segments, so the
        # cut is covered on the kept and on the live side
        assert _assert_conditionals_match_separate_runs(ChainParams(1e-4, 1e-4), 200) > 50


class TestMoments:
    def test_equal_rates(self):
        summary = moments_closed_form(ChainParams(0.5, 0.5), 4)
        assert summary.mean == 2.0
        assert summary.variance == pytest.approx(1.0, rel=1e-15)
        assert summary.a0 == 0.0 and summary.a1 == 0.0

    def test_small_case_fractions(self):
        summary = moments_closed_form(ChainParams(0.3, 0.6), 2)
        assert summary.mean == pytest.approx(6 / 7, rel=1e-14)
        assert summary.variance == pytest.approx(1092 / 1715, rel=1e-14)
        assert summary.a1 == pytest.approx(summary.a0 / 0.7, rel=1e-14)

    def test_large_case_fractions(self):
        summary = moments_closed_form(ChainParams(0.1, 0.8), 100)
        assert summary.mean == pytest.approx(100 / 3, rel=1e-13)
        assert summary.variance == pytest.approx(9920 / 81 - 280 / 81 * 0.7**100, rel=1e-13)

    def test_matches_pmf_moments(self):
        params = ChainParams(0.1, 0.8)
        for n in (2, 17, 100, 1000, 2000):
            summary = moments_closed_form(params, n)
            mean, variance = moments_from_pmf(exact_pmf(params, n))
            assert mean == pytest.approx(summary.mean, rel=1e-10)
            assert variance == pytest.approx(summary.variance, rel=1e-10)

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-8])
    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    def test_near_frozen_chain(self, eps, n):
        # alpha -> 0, beta -> 1: the closed-form variance cancels terms of
        # size 1/eps^2 and used to return 0 (eps=1e-12) or 32 (eps=1e-9)
        params = ChainParams(eps, 1.0 - eps)
        summary = moments_closed_form(params, n)
        mean, variance = moments_from_pmf(exact_pmf(params, n))
        assert summary.mean == pytest.approx(mean, rel=1e-9)
        assert summary.variance == pytest.approx(variance, rel=1e-9)

    @pytest.mark.parametrize("beta", [1e-300, 1e-158, 1e-16])
    @pytest.mark.parametrize("alpha", [1 - 2**-53, 0.9999999999999997, 1 - 1e-12])
    def test_near_alternating_chain(self, alpha, beta):
        # alpha -> 1, beta -> 0: beta - alpha is near -1 and the closed form
        # cancels n*p*(1-p) against n*a0; at (1 - 3e-16, 1e-158, n = 10) it
        # gave -2.8e-17, which MomentSummary rejects.  Checked against the
        # covariance sum in exact rational arithmetic.
        a, b = Fraction(alpha), Fraction(beta)
        d = b - a
        p, p0 = a / (1 - d), (1 - b) / (1 - d)
        for n in (1, 2, 10, 11, 40):
            exact = n * p * p0 + 2 * p * p0 * sum((n - k) * d**k for k in range(1, n))
            variance = moments_closed_form(ChainParams(alpha, beta), n).variance
            assert abs(Fraction(variance) - exact) <= _MOMENT_RTOL * exact, n

    def test_near_frozen_point_is_overdispersed(self):
        row = evaluate_point(ChainParams(1e-12, 1.0 - 1e-12), 10)
        assert row["status"] == "ok"
        assert row["regime"] == "overdispersed"


class TestMomentsFromPmf:
    def test_point_mass(self):
        assert moments_from_pmf([0, 0, 0, 0, 0, 1.0]) == (5.0, 0.0)

    def test_fair_coin(self):
        mean, variance = moments_from_pmf([0.5, 0.5])
        assert mean == 0.5 and variance == 0.25


class TestTvDistance:
    def test_identical(self):
        assert tv_distance([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance([1.0], [0.0, 1.0]) == 1.0

    def test_bernoulli_pair(self):
        assert tv_distance([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.25, abs=1e-15)

    @given(params_strategy, params_strategy, st.integers(min_value=1, max_value=15))
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, ab, cd, n):
        p = exact_pmf(ChainParams(*ab), n)
        q = exact_pmf(ChainParams(*cd), n)
        d = tv_distance(p, q)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(tv_distance(q, p), abs=1e-15)


class TestShiftTv:
    def test_point_mass(self):
        assert shift_tv([1.0]) == 1.0

    def test_fair_coin(self):
        assert shift_tv([0.5, 0.5]) == 0.5

    def test_uniform(self):
        assert shift_tv([0.1] * 10) == pytest.approx(0.1, abs=1e-15)

    def test_invariant_under_leading_zeros(self):
        pmf = exact_pmf(ChainParams(0.3, 0.6), 9).mass
        padded = np.concatenate((np.zeros(4), pmf))
        assert shift_tv(pmf) == pytest.approx(shift_tv(padded), abs=1e-15)
