import hashlib
import math

import numpy as np
import pytest

from markovbin import (
    ChainParams,
    CoupledState,
    coupled_transition_law,
    empirical_pmf,
    exact_pmf,
    sample_blocks,
    sample_meeting_times,
    sample_sums,
    tv_distance,
)
from markovbin.coupling import DEFAULT_STEP_CAP, LOCKSTEP_HORIZON


class TestSampleSums:
    def test_prefix_stable_in_num_samples(self):
        params = ChainParams(0.3, 0.6)
        small = sample_sums(params, 25, "stationary", 7, seed=3)
        large = sample_sums(params, 25, "stationary", 5000, seed=3)
        assert np.array_equal(small, large[:7])

    def test_agrees_with_exact_law(self):
        params = ChainParams(0.3, 0.6)
        sums = sample_sums(params, 20, "stationary", 200_000, seed=8)
        tv = tv_distance(empirical_pmf(sums, support_max=20), exact_pmf(params, 20))
        assert tv <= 0.01

    def test_empirical_pmf_normalized(self):
        pmf = empirical_pmf(np.array([0, 1, 1, 3]), support_max=4)
        assert pmf.mass == pytest.approx([0.25, 0.5, 0.0, 0.25, 0.0])


class TestCoupledKernel:
    def test_split_law_example(self):
        law = coupled_transition_law(ChainParams(0.3, 0.6), CoupledState(1, 0))
        assert law[(0, 0)] == pytest.approx(0.4)
        assert law[(1, 1)] == pytest.approx(0.3)
        assert law[(1, 0)] == pytest.approx(0.3)

    def test_split_swaps_when_beta_below_alpha(self):
        law = coupled_transition_law(ChainParams(0.6, 0.3), CoupledState(1, 0))
        assert law[(0, 1)] == pytest.approx(0.3)

    def test_equal_rates_meet_in_one_step(self):
        law = coupled_transition_law(ChainParams(0.4, 0.4), CoupledState(1, 0))
        assert set(law) == {(0, 0), (1, 1)}
        assert sum(law.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.6), (0.6, 0.3), (0.17, 0.94)])
    def test_marginals_equal_chain_rows(self, alpha, beta):
        # each coordinate, viewed alone, moves by its own row of the
        # transition matrix; checked by exact enumeration of the kernel
        params = ChainParams(alpha, beta)
        matrix = params.transition_matrix
        for z1 in (0, 1):
            for z0 in (0, 1):
                law = coupled_transition_law(params, CoupledState(z1, z0))
                assert sum(law.values()) == pytest.approx(1.0, abs=1e-15)
                to_one_first = sum(p for (a, _), p in law.items() if a == 1)
                to_one_second = sum(p for (_, b), p in law.items() if b == 1)
                assert to_one_first == pytest.approx(matrix[z1, 1], abs=1e-15)
                assert to_one_second == pytest.approx(matrix[z0, 1], abs=1e-15)

    def test_marginal_fidelity_monte_carlo(self):
        # 10^6 sampled transitions from the split state through the lockstep
        # sampler: the first lands on (0, 0) w.p. 0.4, on (1, 1) w.p. 0.3,
        # each within 4 sigma
        params = ChainParams(0.3, 0.6)
        samples = 1_000_000
        runs = sample_meeting_times(params, samples, seed=12)
        met_at_one = np.mean((runs.varsigma == 1) & (runs.tau > 1))
        met_at_zero = np.mean((runs.varsigma == 1) & (runs.tau == 1))
        assert abs(met_at_one - 0.3) <= 4 * math.sqrt(0.3 * 0.7 / samples)
        assert abs(met_at_zero - 0.4) <= 4 * math.sqrt(0.4 * 0.6 / samples)


class TestMeetingTimes:
    def test_equal_rates_meet_immediately(self):
        runs = sample_meeting_times(ChainParams(0.4, 0.4), 10_000, seed=6)
        assert np.all(runs.varsigma == 1)

    def test_tail_geometric(self):
        samples = 100_000
        runs = sample_meeting_times(ChainParams(0.3, 0.6), samples, seed=7)
        for m in range(1, 6):
            target = 0.3 ** (m - 1)
            sigma = math.sqrt(target * (1.0 - target) / samples)
            assert abs(runs.varsigma_tail(m) - target) <= 4 * sigma + 1e-12

    def test_tau_dominates_varsigma(self):
        runs = sample_meeting_times(ChainParams(0.1, 0.8), 50_000, seed=9)
        assert np.all(runs.tau >= runs.varsigma)
        assert np.all(runs.varsigma >= 1)
        assert runs.absorption_violations == 0

    def test_prefix_stable_in_num_samples(self):
        params = ChainParams(0.1, 0.8)
        small = sample_meeting_times(params, 10, seed=31)
        large = sample_meeting_times(params, 20_000, seed=31)
        assert np.array_equal(small.varsigma, large.varsigma[:10])
        assert np.array_equal(small.tau, large.tau[:10])

    def test_censoring_at_step_cap(self):
        runs = sample_meeting_times(ChainParams(0.1, 0.8), 5000, seed=13, step_cap=2)
        assert int(runs.censored.sum()) > 0
        assert np.all(runs.tau[runs.censored] == 2)
        # censored runs count as >= cap in tail fractions
        assert runs.tau_tail(2) >= float(np.mean(runs.censored))


class TestBlocks:
    def test_mean_one_at_half(self):
        blocks = sample_blocks(ChainParams(0.5, 0.3), 100_000, seed=21)
        assert blocks.xi_odd.mean() == pytest.approx(1.0, abs=0.03)
        blocks = sample_blocks(ChainParams(0.3, 0.5), 100_000, seed=22)
        assert blocks.xi_even.mean() == pytest.approx(1.0, abs=0.03)

    def test_matches_block_constants(self):
        blocks = sample_blocks(ChainParams(0.1, 0.8), 400_000, seed=23)
        assert blocks.xi_odd.mean() == pytest.approx(9.0, rel=0.02)
        assert blocks.xi_even.mean() == pytest.approx(4.0, rel=0.02)
        assert blocks.xi_odd.var() == pytest.approx(90.0, rel=0.05)
        assert blocks.xi_even.var() == pytest.approx(20.0, rel=0.05)

    def test_components_uncorrelated(self):
        blocks = sample_blocks(ChainParams(0.3, 0.6), 200_000, seed=24)
        corr = np.corrcoef(blocks.xi_odd, blocks.xi_even)[0, 1]
        assert abs(corr) <= 0.01

    def test_prefix_stable_in_num_samples(self):
        params = ChainParams(0.2, 0.7)
        small = sample_blocks(params, 8, seed=25)
        large = sample_blocks(params, 9000, seed=25)
        assert np.array_equal(small.xi_odd, large.xi_odd[:8])
        assert np.array_equal(small.xi_even, large.xi_even[:8])


def _digest(*columns):
    h = hashlib.sha256()
    for column in columns:
        h.update(np.ascontiguousarray(column, dtype="<i8").tobytes())
    return h.hexdigest()


class TestPinnedStreams:
    # sha256 of the sampled columns at seed 17, 2000 samples, pinned from the
    # sampler's output; (0.005, 0.995) runs past LOCKSTEP_HORIZON, so the
    # per-sample straggler streams are pinned too
    MEETING = {
        (0.3, 0.6, DEFAULT_STEP_CAP):
            "3a82cb1e81e607cd16c298c0155792447b38babcdb31b2fa902791c11c425639",
        (0.6, 0.3, DEFAULT_STEP_CAP):
            "bf96d7272cf4ef4b2e3800fb5108337f0491f84e88d68962c3f679e8837dc331",
        (0.4, 0.4, DEFAULT_STEP_CAP):
            "301699ca2a487b33abab4bd745115caf3677eee2bd7428e67eb951ef6fe047b7",
        (0.005, 0.995, DEFAULT_STEP_CAP):
            "20a823f730d62b1d423949de1d8dde90170e94ac817806e9c7914a6073cdcaef",
        (0.3, 0.6, 5):
            "855ad8d577d93464233ddfa9344f05a08c6eb04f426c015386092dc58acf4745",
    }
    BLOCKS = {
        (0.3, 0.6):
            "ec0aacee126f49494e9496854e45abe5c36f1cdbf69fbcef46e0e2215bf40875",
        (0.6, 0.3):
            "702c9f6c30f4f1b334564a06965160b503dfeae04121f75ef6fb75557f48bfcf",
        (0.4, 0.4):
            "008ef7e6faa017617a6feb141713acff3f53c56a25a92a3119f9206349b5a1f1",
        (0.005, 0.995):
            "da1fd9483a3796f7e9aaa22ed5ccbb2a6cc890f1b8bdba341cf9ae33bb486f69",
    }

    @pytest.mark.parametrize("alpha,beta,step_cap", list(MEETING))
    def test_meeting_times(self, alpha, beta, step_cap):
        runs = sample_meeting_times(ChainParams(alpha, beta), 2000, seed=17, step_cap=step_cap)
        assert runs.absorption_violations == 0
        digest = _digest(runs.varsigma, runs.tau, runs.censored)
        assert digest == self.MEETING[alpha, beta, step_cap]
        if alpha == 0.005:
            assert np.any(runs.tau > LOCKSTEP_HORIZON)
        if step_cap == 5:
            assert np.any(runs.censored)

    @pytest.mark.parametrize("alpha,beta", list(BLOCKS))
    def test_blocks(self, alpha, beta):
        blocks = sample_blocks(ChainParams(alpha, beta), 2000, seed=17)
        assert _digest(blocks.xi_odd, blocks.xi_even) == self.BLOCKS[alpha, beta]
        if alpha == 0.005:
            assert np.any(blocks.xi_odd >= LOCKSTEP_HORIZON)
