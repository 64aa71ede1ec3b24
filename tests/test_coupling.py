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
    sample_meeting_times,
    sample_sums,
    tv_distance,
)
from markovbin import coupling
from markovbin.cli import _coupling
from markovbin.coupling import (
    _PURPOSE_MEETING,
    _PURPOSE_SUMS,
    DEFAULT_STEP_CAP,
    _block_words,
    _kernel_matrix,
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
        matrix = np.array([[1.0 - alpha, alpha], [1.0 - beta, beta]])
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
        # varsigma tails for m <= 5 against their exact binomial laws at 4 sigma
        ok, _ = _coupling(ChainParams(0.3, 0.6), 7, 100_000, 4.0, 5, 0)
        assert ok is True

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
        assert np.mean(runs.tau >= 2) >= np.mean(runs.censored)


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

    @pytest.mark.parametrize("alpha,beta,step_cap", list(MEETING))
    def test_meeting_times(self, alpha, beta, step_cap):
        runs = sample_meeting_times(ChainParams(alpha, beta), 2000, seed=17, step_cap=step_cap)
        assert runs.absorption_violations == 0
        digest = _digest(runs.varsigma, runs.tau, runs.censored)
        assert digest == self.MEETING[alpha, beta, step_cap]
        if step_cap == 5:
            assert np.any(runs.censored)

    # meeting digests at seed 17 for the sweep check's two regimes and
    # sample counts from one sample to its 20 000, pinned from the class-run
    # sampler
    HOT = {
        (0.1, 0.45, 1):
            "38bc886a02414ca2ad4c4effc9b28d8732d257bd4bb8f9c7105cd30fb9634d9c",
        (0.1, 0.45, 7):
            "2ce7f1e9017e192ae33514b778e2b7947e27441cb5a098989fe32509bb80741e",
        (0.1, 0.45, 4097):
            "5a0e2127d302251a1d2ea06e3b16e004446c55fa3c8994f6a2f9a1188f670254",
        (0.1, 0.45, 20_000):
            "9d1e6d3c200d469b8a8d4687380b5504bfbe86b70e254ace635b8f466776d183",
        (0.8, 0.35, 1):
            "186371f97564ac3484aebb179f3f806b7370d656de2e06bfc896b74719806887",
        (0.8, 0.35, 7):
            "92366306d71c089fb7a08160c69dd4dc640aed11732173b9f9e5b507548ad661",
        (0.8, 0.35, 4097):
            "fb7af34579e7c87bc4c29c61ec22cbe4454ae1dbea2dc7be8a56673e64eb0f1b",
        (0.8, 0.35, 20_000):
            "06abb0f91cecf5fd591e36fc970aff4a5bc54693f6163c6b3ef68cfff84defe3",
    }
    # sha256 of the 4097 uniforms of block 3 of the sums and meeting streams
    # at seed 17
    UNIFORMS = {
        _PURPOSE_SUMS: "52f986d9b971e517b4848c3ae6a5ffe6e395a8256059714ec064d0cd9c3bb6a9",
        _PURPOSE_MEETING: "245c97f9a09e0c079f301a4cf959166a2b2a0c0f42fb996911713d7aca5b8100",
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
        assert runs.absorption_violations == 0
        assert _digest(runs.varsigma, runs.tau, runs.censored) == self.HOT[alpha, beta, size]

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
            mass = np.array([[1, 0, 0, 0], [cut, 0, 0, 1 - cut], [cut, 0, 0, 1 - cut], [1, 0, 0, 0]])
            _, tau, _, _ = coupling._first_passages(mass, i + 1, 17, 5)
            assert tau[i] == tau_wanted


class TestAbsorptionGuard:
    """The sampler does not move a sample after it reaches 0, so the
    diagonal's absorption is checked on the kernel matrix itself, and the
    violation count on a matrix that breaks it."""

    def test_diagonal_rows_stay_on_diagonal(self):
        rates = [1e-9, 0.005, 0.1, 0.3, 0.35, 0.5, 0.8, 0.995, 1 - 1e-9]
        for alpha in rates:
            for beta in rates:
                params = ChainParams(alpha, beta)
                mass = _kernel_matrix(params)
                assert np.array_equal(mass, _one_step_matrix(params)), (alpha, beta)
                assert np.all(mass >= 0.0), (alpha, beta)
                # from 0 and 3 no mass reaches the split states 1 and 2
                assert not mass[np.ix_([0, 3], [1, 2])].any(), (alpha, beta)

    def test_leaking_matrix_counts_violations(self, monkeypatch):
        monkeypatch.setattr(coupling, "_kernel_matrix", lambda params: _leaking_matrix())
        runs = sample_meeting_times(ChainParams(0.3, 0.6), 2000, seed=17)
        assert runs.absorption_violations > 0


def _leaking_matrix():
    # row 3 moves to the split state 2 with a third of the mass it kept on 3
    mass = _kernel_matrix(ChainParams(0.3, 0.6))
    mass[3, 2] = mass[3, 3] / 3.0
    mass[3, 3] -= mass[3, 2]
    return mass


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

    def test_split_rows_that_differ_are_not_lumped(self):
        mass = _kernel_matrix(ChainParams(0.3, 0.6))
        mass[1, [0, 3]] += [0.1, -0.1]  # state 1 moves to 0 more often than state 2
        with pytest.raises(AssertionError, match="different masses"):
            coupling._first_passages(mass, 10, 17, 100)


class TestCornerInputs:
    """Passage times grow without bound toward the corners of the square;
    the samplers' cost does not."""

    def test_slow_meeting_ends_in_a_second(self):
        # with beta < alpha the leftover mass swaps orientation at every step
        for params in (ChainParams(1e-6, 0.999999), ChainParams(0.999999, 1e-6)):
            sample_meeting_times(params, 10, 0)
            start = time.perf_counter()
            runs = sample_meeting_times(params, 1_000_000, 0)
            assert time.perf_counter() - start < 1.0, params
            # most pairs are still split at the cap: P(varsigma >= cap) = |beta - alpha|**(cap - 1)
            target = abs(params.beta - params.alpha) ** (DEFAULT_STEP_CAP - 1)
            sigma = math.sqrt(target * (1.0 - target) / 1_000_000)
            assert abs(np.mean(runs.varsigma >= DEFAULT_STEP_CAP) - target) <= 5 * sigma, params

    def test_largest_step_cap_keeps_counts_in_int64(self):
        # |beta - alpha| = 1 - 2**-53: meeting takes about 2**53 ~ 9.0e15 steps,
        # and the split pair's exit to 0 is certain (its other exit mass is 1e-300)
        step_cap = 2**62 - 1
        for params in (ChainParams(1e-300, 1 - 2**-53), ChainParams(1 - 2**-53, 1e-300)):
            sample_meeting_times(params, 10, 0, step_cap=step_cap)
            start = time.perf_counter()
            runs = sample_meeting_times(params, 1000, 0, step_cap=step_cap)
            assert time.perf_counter() - start < 1.0, params
            assert not runs.censored.any(), params
            assert np.all(runs.varsigma >= 1) and np.all(runs.tau >= runs.varsigma), params
            # varsigma is geometric with mean and standard deviation about 1 / (1 - |beta - alpha|)
            mean = 1.0 / (1.0 - abs(params.beta - params.alpha))
            assert abs(runs.varsigma.mean() - mean) <= 5 * mean / math.sqrt(1000), params

    def test_step_cap_past_int64_rejected(self):
        with pytest.raises(ValueError, match="step_cap"):
            sample_meeting_times(ChainParams(0.3, 0.6), 10, 0, step_cap=2**62)
