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
from markovbin import coupling
from markovbin.coupling import (
    _PURPOSE_BLOCKS,
    _PURPOSE_MEETING,
    DEFAULT_STEP_CAP,
    LOCKSTEP_HORIZON,
    _block_words,
    _kernel_table,
    _stream,
)


class TestSampleSums:
    def test_prefix_stable_in_num_samples(self):
        params = ChainParams(0.3, 0.6)
        small = sample_sums(params, 25, 7, seed=3)
        large = sample_sums(params, 25, 5000, seed=3)
        assert np.array_equal(small, large[:7])

    def test_agrees_with_exact_law(self):
        params = ChainParams(0.3, 0.6)
        sums = sample_sums(params, 20, 200_000, seed=8)
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

    # (meeting, blocks) digests at seed 17 for the sweep check's two regimes
    # and sample counts from one sample to its 20 000, pinned from the
    # sampler that stepped every sample until the slowest was done
    HOT = {
        (0.1, 0.45, 1): (
            "2dab308cb068a699e95029eb3f3893fa28b026a46950d57233712057fcd8bf99",
            "9b768a7138e147b4158a6b26c2e04ee536af084a18f7b751a9439af1a7cc0765",
        ),
        (0.1, 0.45, 7): (
            "fa59317d41df1e45bb4aa6a03438cb046356b0ee3c2634f1e73cb42efe40276b",
            "1f0a34faae01ee17af2c4715dc854f7a629ac2df28665c62328584b25d84f2c9",
        ),
        (0.1, 0.45, 4097): (
            "a39bc81b46d435876f12fa4a488a9689ab03b903d88dbf44ed0420fca4c07e46",
            "12edc6f583aefc998d2f9d654aebbd7175f121e1276f2f47cf0d74b3f017d86d",
        ),
        (0.1, 0.45, 20_000): (
            "2c1f78c6702bed454fba1f2558cd30f3f7c2a04e7e5f3b458a81871814a9ca59",
            "c0b955760e733acef850e9458cd95eaca74c5276926e391c7cbb5e09d33c1178",
        ),
        (0.8, 0.35, 1): (
            "2dab308cb068a699e95029eb3f3893fa28b026a46950d57233712057fcd8bf99",
            "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        ),
        (0.8, 0.35, 7): (
            "dd0f189418c05e5f7cf6da9befe540615d8718b6093e7e6ebac33f5374782d68",
            "5f166c4135a9da604f2f2abdb49be661b25ae27b021e2f1df7bb7419f81e3f83",
        ),
        (0.8, 0.35, 4097): (
            "78899ee97a087f7f24b73f951755a96432f4d1d9c7bd742622357706d7a6aec5",
            "3d7cf4ef26875c9603a11d5a7b37b9bd9ab7b214cf7c20507ba2b1ffd06d91a5",
        ),
        (0.8, 0.35, 20_000): (
            "b40cee8a8fa8d5b5cc07c421c8f64f71cd53cbe7345957b0752c0218bcf70f12",
            "687885bfd0bf77b6383425206ddf1930ed48181239fa1243a5d7f5d7857724b6",
        ),
    }
    # sha256 of the 4097 uniforms of block 3 of the meeting and block streams
    # at seed 17
    UNIFORMS = {
        _PURPOSE_MEETING: "245c97f9a09e0c079f301a4cf959166a2b2a0c0f42fb996911713d7aca5b8100",
        _PURPOSE_BLOCKS: "71692f5f5ff5a46d9cf0957eb739a766ed3f61ee9d458f0d96cb1e2cc87b4d41",
    }

    # sha256 of the stationary sums at 5000 samples, keyed by (alpha, beta, n,
    # seed), pinned from the sampler that took the start law as an argument
    SUMS = {
        (0.3, 0.6, 25, 3): "6cf4f7600ae26bb50dce517335d5653f8b40a9f4520e15e269f93d644af440a3",
        (0.02, 0.97, 40, 11): "1dd696339a7667f02dd574d130adfe3794bffb6ba6cb994f1b906afedf8c7664",
    }

    @pytest.mark.parametrize("alpha,beta,n,seed", list(SUMS))
    def test_sums(self, alpha, beta, n, seed):
        sums = sample_sums(ChainParams(alpha, beta), n, 5000, seed=seed)
        assert _digest(sums) == self.SUMS[alpha, beta, n, seed]

    @pytest.mark.parametrize("alpha,beta,size", list(HOT))
    def test_hot_shape(self, alpha, beta, size):
        params = ChainParams(alpha, beta)
        runs = sample_meeting_times(params, size, seed=17)
        blocks = sample_blocks(params, size, seed=17)
        assert runs.absorption_violations == 0
        meeting = _digest(runs.varsigma, runs.tau, runs.censored)
        assert (meeting, _digest(blocks.xi_odd, blocks.xi_even)) == self.HOT[alpha, beta, size]

    @pytest.mark.parametrize("purpose", list(UNIFORMS))
    def test_raw_word_prefixes(self, purpose):
        # any prefix of a block's raw words gives, as Generator.random maps
        # them, the uniforms the block's stream draws
        words = _block_words(17, purpose)
        full = _stream(17, purpose, 3).random(4097)
        assert hashlib.sha256(full.tobytes()).hexdigest() == self.UNIFORMS[purpose]
        for size in (1, 7, 4097):
            uniforms = (words(3, size) >> 11) * 2.0**-53
            assert np.array_equal(uniforms, full[:size])
        # re-seating the generator on a block does not depend on the blocks before
        assert np.array_equal(words(1, 9), _block_words(17, purpose)(1, 9))

    def test_threshold_ties_match_generator_random(self):
        # a threshold equal to a sample's uniform u is reached (u >= t1) and
        # one ulp above it is not, as with the uniforms Generator.random draws
        u = _stream(17, _PURPOSE_MEETING, 1).random(1)[0]
        for cut, tau_wanted in ((u, 2), (np.nextafter(u, 1.0), 1)):
            # state 2 moves to 0 below cut and to 3 above it; 3 moves to 0
            table = (np.array([1.0, 0.0, cut, 1.0]), np.ones(4), np.full(4, 3, dtype=np.int8))
            _, tau, _, _ = coupling._first_passages(table, 1, 17, _PURPOSE_MEETING, 5)
            assert tau[0] == tau_wanted


class TestAbsorptionGuard:
    """The lockstep no longer moves a sample after it reaches 0, so the
    diagonal's absorption is checked on the kernel table itself, and the
    violation count on a table that breaks it."""

    def test_diagonal_rows_stay_on_diagonal(self):
        rates = [1e-9, 0.005, 0.1, 0.3, 0.35, 0.5, 0.8, 0.995, 1 - 1e-9]
        for alpha in rates:
            for beta in rates:
                t1, t2, out3 = _kernel_table(ChainParams(alpha, beta))
                assert np.all(t1 <= t2), (alpha, beta)
                # row s moves to 0, to 3 or to out3[s]: from 0 and 3 all
                # three are diagonal
                assert out3[0] in (0, 3) and out3[3] in (0, 3), (alpha, beta)

    def test_leaking_table_counts_violations(self, monkeypatch):
        monkeypatch.setattr(coupling, "_kernel_table", lambda params: _leaking_table())
        runs = sample_meeting_times(ChainParams(0.3, 0.6), 2000, seed=17)
        assert runs.absorption_violations > 0


def _leaking_table():
    # row 3 sends a third of its mass to the split state 2
    t1, t2, out3 = _kernel_table(ChainParams(0.3, 0.6))
    broken = (t1, t2.copy(), out3.copy())
    broken[1][3] = t1[3] + (1.0 - t1[3]) * 2.0 / 3.0
    broken[2][3] = 2
    return broken


class TestHandOverPoint:
    """No result depends on where the lockstep hands the running copies over
    to per-copy stepping: at 0 every copy runs alone from the start, at
    10**12 the lockstep runs to the horizon."""

    @pytest.fixture(params=[0, 10**12], autouse=True)
    def solo_words(self, request, monkeypatch):
        monkeypatch.setattr(coupling, "_SOLO_WORDS", request.param)

    @pytest.mark.parametrize("alpha,beta,step_cap", list(TestPinnedStreams.MEETING))
    def test_meeting_times(self, alpha, beta, step_cap):
        TestPinnedStreams().test_meeting_times(alpha, beta, step_cap)

    @pytest.mark.parametrize("alpha,beta", list(TestPinnedStreams.BLOCKS))
    def test_blocks(self, alpha, beta):
        TestPinnedStreams().test_blocks(alpha, beta)

    @pytest.mark.parametrize("alpha,beta,size", list(TestPinnedStreams.HOT))
    def test_hot_shape(self, alpha, beta, size):
        TestPinnedStreams().test_hot_shape(alpha, beta, size)

    def test_threshold_ties(self):
        TestPinnedStreams().test_threshold_ties_match_generator_random()

    def test_leaking_table_violations(self, monkeypatch):
        def violations():
            passages = coupling._first_passages(_leaking_table(), 2000, 17, _PURPOSE_MEETING, 300)
            return passages[3]

        at_patched_point = violations()
        monkeypatch.undo()
        assert at_patched_point == violations() > 0
