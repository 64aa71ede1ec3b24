import hashlib
import math
import time

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
        # 10^6 sampled transitions from the split state through the sampler:
        # the first lands on (0, 0) w.p. 0.4, on (1, 1) w.p. 0.3, each within
        # 4 sigma
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
    # class-run sampler's output
    MEETING = {
        (0.3, 0.6, DEFAULT_STEP_CAP):
            "f65e848725f1315eaf1a4ea8bc3f353c8cdc58d7d19f6522cbc4944794f64aca",
        (0.6, 0.3, DEFAULT_STEP_CAP):
            "4fccd4218e53ed4cad7c244a65589dfa8a2b7e8aa34bfe9918f81426c1be0d28",
        (0.4, 0.4, DEFAULT_STEP_CAP):
            "06bf536804896a3745f8cf258652ba6d2e17624c3449f6cbcc562c2be14ad341",
        (0.005, 0.995, DEFAULT_STEP_CAP):
            "169a6a540010ab54edf337bbe6b845ccbad6a83012f7a101df6bacfbc81d9a07",
        (0.3, 0.6, 5):
            "60e4fe3f1bb520665e4a5cfd483e91e755df37e3e18f44af9534eb073bd31f88",
    }
    BLOCKS = {
        (0.3, 0.6):
            "49a1b3b64a3723bcc5b411bce096fdb886b040888825de9378dac6e5ea1259d4",
        (0.6, 0.3):
            "e53159daf6e7dd327a86b025e80909e4b65c2ee706e6788f5a1087c4abc515e1",
        (0.4, 0.4):
            "3fba524b6eca68907588560babc49a6261e8e2529832996ea8c993f63a3e7622",
        (0.005, 0.995):
            "ba4126f35b8fc7f082073f80ec8b3a256ee2091082697a046815bfafd9e7743b",
    }

    @pytest.mark.parametrize("alpha,beta,step_cap", list(MEETING))
    def test_meeting_times(self, alpha, beta, step_cap):
        runs = sample_meeting_times(ChainParams(alpha, beta), 2000, seed=17, step_cap=step_cap)
        assert runs.absorption_violations == 0
        digest = _digest(runs.varsigma, runs.tau, runs.censored)
        assert digest == self.MEETING[alpha, beta, step_cap]
        if step_cap == 5:
            assert np.any(runs.censored)

    @pytest.mark.parametrize("alpha,beta", list(BLOCKS))
    def test_blocks(self, alpha, beta):
        blocks = sample_blocks(ChainParams(alpha, beta), 2000, seed=17)
        assert _digest(blocks.xi_odd, blocks.xi_even) == self.BLOCKS[alpha, beta]

    # (meeting, blocks) digests at seed 17 for the sweep check's two regimes
    # and sample counts from one sample to its 20 000, pinned from the
    # class-run sampler
    HOT = {
        (0.1, 0.45, 1): (
            "38bc886a02414ca2ad4c4effc9b28d8732d257bd4bb8f9c7105cd30fb9634d9c",
            "966a28d35016032ee27b1860df4a9b16b6c007da76b2e4f94e7526e31c48959b",
        ),
        (0.1, 0.45, 7): (
            "2ce7f1e9017e192ae33514b778e2b7947e27441cb5a098989fe32509bb80741e",
            "a9998765dcf74c0670d8dde219f159bc976c02b56ed1f0746b7c0302bc091e57",
        ),
        (0.1, 0.45, 4097): (
            "5a0e2127d302251a1d2ea06e3b16e004446c55fa3c8994f6a2f9a1188f670254",
            "f04d1778b9f695cbfd8f9c23b97912b4a787d718e2dbbb9bd1b18fc816b3ce03",
        ),
        (0.1, 0.45, 20_000): (
            "9d1e6d3c200d469b8a8d4687380b5504bfbe86b70e254ace635b8f466776d183",
            "02b02722e02726db0a850147fbcd90e3dd98e53e04adedf28016a7d5bc02718d",
        ),
        (0.8, 0.35, 1): (
            "186371f97564ac3484aebb179f3f806b7370d656de2e06bfc896b74719806887",
            "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        ),
        (0.8, 0.35, 7): (
            "92366306d71c089fb7a08160c69dd4dc640aed11732173b9f9e5b507548ad661",
            "8c2c71edb4b947b01071fa583bd0db2df282d8f1c56d70b99eb2cf637370c935",
        ),
        (0.8, 0.35, 4097): (
            "fb7af34579e7c87bc4c29c61ec22cbe4454ae1dbea2dc7be8a56673e64eb0f1b",
            "9b7885fc3610a292f569934cc0a8895a0c393568116a10a031ad25394846cbe4",
        ),
        (0.8, 0.35, 20_000): (
            "06abb0f91cecf5fd591e36fc970aff4a5bc54693f6163c6b3ef68cfff84defe3",
            "605ef45b6cfa6ee5e3aca4595e927a295d9576b1963fc9431f0e9ce45131723a",
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
        # any prefix of a block's draws gives, as Generator.random maps
        # them, the uniforms the block's stream draws
        words = _block_words(17, purpose)
        full = _stream(17, purpose, 3).random(4097)
        assert hashlib.sha256(full.tobytes()).hexdigest() == self.UNIFORMS[purpose]
        for size in (1, 7, 4097):
            uniforms = words(3, size) * 2.0**-53
            assert np.array_equal(uniforms, full[:size])
        # re-seating the generator on a block does not depend on the blocks before
        assert np.array_equal(words(1, 9), _block_words(17, purpose)(1, 9))

    def test_threshold_ties_match_generator_random(self):
        # an exit threshold equal to a sample's uniform u is reached (u >= cut)
        # and one ulp above it is not, as with the uniforms Generator.random
        # draws.  The first exit reads block 2; with u >= 1/2 the exit masses
        # cut and 1 - cut sum to 1 exactly, so the threshold is cut itself.
        uniforms = _stream(17, _PURPOSE_MEETING, 2).random(16)
        i = int(np.argmax(uniforms >= 0.5))
        for cut, tau_wanted in ((uniforms[i], 2), (np.nextafter(uniforms[i], 1.0), 1)):
            # the split pair moves to 0 below cut and to 3 above it; 3 moves to 0
            table = (np.array([1.0, cut, cut, 1.0]), np.ones(4), np.full(4, 3, dtype=np.int8))
            _, tau, _, _ = coupling._first_passages(table, i + 1, 17, _PURPOSE_MEETING, 5)
            assert tau[i] == tau_wanted


class TestAbsorptionGuard:
    """The sampler does not move a sample after it reaches 0, so the
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


def _one_step_matrix(params):
    """The coupled kernel as a 4 x 4 matrix over the encoded states 2*z1 + z0."""
    matrix = np.zeros((4, 4))
    for s in range(4):
        for (z1, z0), mass in coupled_transition_law(params, CoupledState(s >> 1, s & 1)).items():
            matrix[s, 2 * z1 + z0] += mass
    return matrix


def _passage_pieces(matrix, cap):
    """h[m] = P(varsigma = tau = m), f[m] = P(varsigma = m, the pair at 3) and
    g[d] = P(the first visit to 0 from 3 takes d steps), for 1 <= m, d <= cap,
    from powers of the one-step matrix with 0 absorbing."""
    split = matrix * [0.0, 1.0, 1.0, 0.0]  # moves that stay in the split pair
    alive = matrix * [0.0, 1.0, 1.0, 1.0]  # moves that do not reach 0
    h, f, g = np.zeros((3, cap + 1))
    v, w = np.eye(4)[2], np.eye(4)[3]
    for m in range(1, cap + 1):
        h[m], f[m], g[m] = v @ matrix[:, 0], v @ matrix[:, 3], w @ matrix[:, 0]
        v, w = v @ split, w @ alive
    return h, f, g


# the cdf levels that bins of a passage law start past: its deciles and 0.99
_LEVELS = np.append(np.arange(1, 10) / 10, 0.99)


def _level_edges(pmf):
    """Left ends of the bins of 1..len(pmf) - 1 that start past each of
    ``pmf``'s ``_LEVELS`` (indexed by value, pmf[0] = 0)."""
    cap = len(pmf) - 1
    quantiles = np.searchsorted(np.cumsum(pmf), _LEVELS)
    return np.unique(np.clip(np.concatenate([[1], quantiles + 1]), 1, cap))


def _meeting_cells(params, cap):
    """Exact masses of the sampler's (varsigma, tau, censored) outcomes, by
    cells: met at 0, by varsigma's bin; met at 3, by the bins of varsigma
    and tau - varsigma; censored, by varsigma's bin.  Returns the edges and
    the three arrays of masses."""
    h, f, g = _passage_pieces(_one_step_matrix(params), cap)
    m_edges, d_edges = _level_edges(h + f), _level_edges(g)
    g_cdf = np.cumsum(g)
    m = np.arange(1, cap + 1)
    d_hi = np.minimum(np.append(d_edges[1:], cap + 1)[None, :] - 1, (cap - m)[:, None])
    via3 = f[1:, None] * np.clip(g_cdf[d_hi] - g_cdf[d_edges - 1][None, :], 0.0, None)
    censored = f[1:] * np.clip(1.0 - g_cdf[cap - m], 0.0, None)
    censored[-1] += max(0.0, 1.0 - (h + f).sum())
    at_zero = np.add.reduceat(h[1:], m_edges - 1)
    via3 = np.add.reduceat(via3, m_edges - 1, axis=0)
    return m_edges, d_edges, at_zero, via3, np.add.reduceat(censored, m_edges - 1)


def _geometric_cells(stay):
    """Left ends of bins of {0, 1, ...} past the ``_LEVELS`` of the count
    whose tail P(count >= j) is stay**j, and the bins' masses."""
    ends = np.floor(np.log1p(-np.append(0.0, _LEVELS)) / np.log(stay))
    edges = np.unique(np.asarray(ends, dtype=np.int64))
    tails = stay ** edges.astype(float)
    return edges, tails - np.append(tails[1:], 0.0)


def _assert_cells(counts, masses, samples):
    """Each cell's frequency within 5 standard errors of its exact mass at
    ``samples`` samples."""
    sigma = np.sqrt(masses * (1.0 - masses) / samples)
    assert np.all(np.abs(counts / samples - masses) <= 5.0 * sigma + 1e-12), (counts, masses)


class TestExactLaws:
    """Sampled first passages against the exact law of each table."""

    SAMPLES = 200_000

    @pytest.mark.parametrize(
        "alpha,beta,step_cap",
        [(0.3, 0.6, DEFAULT_STEP_CAP), (0.6, 0.3, DEFAULT_STEP_CAP), (0.4, 0.4, DEFAULT_STEP_CAP),
         (0.005, 0.995, DEFAULT_STEP_CAP), (0.3, 0.6, 5)],
    )
    def test_meeting_joint_law(self, alpha, beta, step_cap):
        params = ChainParams(alpha, beta)
        runs = sample_meeting_times(params, self.SAMPLES, seed=41, step_cap=step_cap)
        m_edges, d_edges, at_zero, via3, censored = _meeting_cells(params, step_cap)
        m_bin = np.searchsorted(m_edges, runs.varsigma, side="right") - 1
        d_bin = np.searchsorted(d_edges, runs.tau - runs.varsigma, side="right") - 1
        direct = ~runs.censored & (runs.tau == runs.varsigma)
        later = ~runs.censored & (runs.tau > runs.varsigma)
        bins = len(m_edges)
        _assert_cells(np.bincount(m_bin[direct], minlength=bins), at_zero, self.SAMPLES)
        _assert_cells(np.bincount(m_bin[runs.censored], minlength=bins), censored, self.SAMPLES)
        joint = np.zeros(via3.shape)
        np.add.at(joint, (m_bin[later], d_bin[later]), 1)
        _assert_cells(joint, via3, self.SAMPLES)
        assert runs.absorption_violations == 0

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.6), (0.6, 0.3), (0.4, 0.4), (0.005, 0.995)])
    def test_block_counts(self, alpha, beta):
        # xi_odd and xi_even are independent, with tails (1 - alpha)**j and beta**j
        blocks = sample_blocks(ChainParams(alpha, beta), self.SAMPLES, seed=42)
        (odd_edges, odd), (even_edges, even) = _geometric_cells(1.0 - alpha), _geometric_cells(beta)
        joint = np.zeros((odd.size, even.size))
        cells = (
            np.searchsorted(odd_edges, blocks.xi_odd, side="right") - 1,
            np.searchsorted(even_edges, blocks.xi_even, side="right") - 1,
        )
        np.add.at(joint, cells, 1)
        _assert_cells(joint, np.outer(odd, even), self.SAMPLES)

    def test_split_rows_that_differ_are_not_lumped(self):
        t1, t2, out3 = _kernel_table(ChainParams(0.3, 0.6))
        t1 = t1.copy()
        t1[1] += 0.1  # state 1 moves to 0 more often than state 2
        with pytest.raises(AssertionError, match="different masses"):
            coupling._first_passages((t1, t2, out3), 10, 17, _PURPOSE_MEETING, 100)


class TestCornerInputs:
    """Passage times grow without bound toward the corners of the square;
    the samplers' cost does not."""

    def test_slow_blocks_end_in_a_second(self):
        sample_blocks(ChainParams(0.3, 0.6), 10, 0)
        start = time.perf_counter()
        blocks = sample_blocks(ChainParams(1e-9, 0.5), 1000, 0)
        assert time.perf_counter() - start < 1.0
        # xi_odd has mean and standard deviation about 1 / alpha
        assert abs(blocks.xi_odd.mean() - 1e9) <= 5 * 1e9 / math.sqrt(1000)

    def test_slow_meeting_ends_in_a_second(self):
        params = ChainParams(1e-6, 0.999999)
        sample_meeting_times(params, 10, 0)
        start = time.perf_counter()
        runs = sample_meeting_times(params, 1_000_000, 0)
        assert time.perf_counter() - start < 1.0
        # most pairs are still split at the cap: P(varsigma >= cap) = |beta - alpha|**(cap - 1)
        target = abs(params.beta - params.alpha) ** (DEFAULT_STEP_CAP - 1)
        sigma = math.sqrt(target * (1.0 - target) / 1_000_000)
        assert abs(runs.varsigma_tail(DEFAULT_STEP_CAP) - target) <= 5 * sigma

    def test_block_counts_past_int64_raise(self):
        with pytest.raises(ValueError, match=r"alpha = 1e-300, beta = 0\.5"):
            sample_blocks(ChainParams(1e-300, 0.5), 10, 0)
        # counts of about 1e15 still fit and do not wrap around
        blocks = sample_blocks(ChainParams(1e-15, 0.5), 1000, 0)
        assert np.all(blocks.xi_odd >= 0) and blocks.xi_odd.mean() > 1e14

    def test_step_cap_past_int64_rejected(self):
        with pytest.raises(ValueError, match="step_cap"):
            sample_meeting_times(ChainParams(0.3, 0.6), 10, 0, step_cap=2**62)
