"""Seeded Monte Carlo for the chain, for the coupled pair of chains and for
the chain's regeneration blocks.

The coupled pair moves two copies of the chain, one started at 1 and one at
0, under the joint kernel that meets them as fast as possible: from a split
state both land on j together with probability min(p0j, p1j), the residual
mass |beta - alpha| keeps them split, and from the diagonal they move as one
chain.  The first meeting time and the first joint visit to 0 are the
quantities of interest.

Both first-passage samplers share one engine: copies of a 4-state chain
started at state 2, moved by inverse-cdf tables, record their first entry
into {0, 3} and their first entry into 0.  For the coupled pair the states
are the encoded pairs s = 2*z1 + z0, so these are the meeting time and the
joint visit to 0.  For the regeneration blocks the 0-block, the 1-block and
done are the states 2, 3 and 0, so the two entry times end the two blocks.

Streams are counter-based.  Block t of draws comes from a Philox generator
whose 256-bit counter encodes (purpose, t), and sample i always reads
position i of each block, so a sample is a pure function of (seed, i):
changing the number of samples, or splitting work across workers, never
changes an individual draw.  The first-passage lockstep advances only the
samples still running, grouped by state: it draws block t only up to the
last running index and reads just their words of it.  Once they are few
next to that index, each finishes alone on its own words of the blocks.
The rare sample still running after the fixed lockstep horizon switches to
a private stream keyed by its index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ChainParams, Pmf, stationary_law

__all__ = [
    "CoupledState",
    "MeetingSamples",
    "BlockSamples",
    "sample_sums",
    "empirical_pmf",
    "coupled_transition_law",
    "sample_meeting_times",
    "sample_blocks",
]

# Joint visits to 0 are simulated at most this many steps; a capped sample is
# recorded as censored and counts as >= cap in tail comparisons.
DEFAULT_STEP_CAP = 10_000

# Vectorized lockstep runs this many steps before stragglers switch to
# per-sample streams.
LOCKSTEP_HORIZON = 256

# The lockstep hands over to per-copy steps once running copies * _SOLO_WORDS <= words
# per block: one copy's word alone costs 650 to 800 block words (2-vCPU x86-64, numpy 2.4).
_SOLO_WORDS = 700

_PURPOSE_SUMS = 1
_PURPOSE_MEETING = 2
_PURPOSE_BLOCKS = 3
_TAIL_FLAG = 1 << 8

_KEY_MASK = (1 << 128) - 1
_WORD_MASK = (1 << 64) - 1


def _counter(purpose: int, block: int) -> int:
    return (purpose << 192) | (block << 64)


def _stream(seed: int, purpose: int, block: int) -> np.random.Generator:
    philox = np.random.Philox(key=int(seed) & _KEY_MASK, counter=_counter(purpose, block))
    return np.random.Generator(philox)


def _block_words(seed: int, purpose: int) -> Callable[..., np.ndarray]:
    """``words(block, size, skip=0)``: the first ``size`` raw words of
    ``_stream(seed, purpose, block)``, which its ``random`` turns into
    uniforms, or of its words from ``4 * skip`` on.  One Philox generator is
    re-seated on each block's counter, since setting its state costs a few
    microseconds and building a new one about 30 times more.
    """
    philox = np.random.Philox(key=int(seed) & _KEY_MASK)
    state = philox.state

    def words(block: int, size: int, skip: int = 0) -> np.ndarray:
        counter = _counter(purpose, block) + skip
        state["state"]["counter"] = np.array(
            [(counter >> shift) & _WORD_MASK for shift in (0, 64, 128, 192)], dtype=np.uint64
        )
        philox.state = state
        return philox.random_raw(size)

    return words


def _sample_word(words: Callable[..., np.ndarray], block: int, i: int) -> int:
    """Raw word i of ``block`` through ``words`` of ``_block_words``, fetched
    alone: Philox makes 4 words per counter value, so it is lane i & 3 of the
    words from counter value ``_counter(purpose, block) + (i >> 2)`` on."""
    return int(words(block, (i & 3) + 1, i >> 2)[-1])


def _tail_stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    return _stream(seed, purpose | _TAIL_FLAG, index)


def sample_sums(params: ChainParams, n: int, num_samples: int, seed: int) -> np.ndarray:
    """Sums over steps 1..n of ``num_samples`` independent stationary chains.

    Vectorized over samples in lockstep; sample i is reproducible on its own
    (see the module docstring for the stream layout).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    a, b = params.alpha, params.beta
    u0 = _stream(seed, _PURPOSE_SUMS, 0).random(num_samples)
    state = u0 < stationary_law(params).p
    totals = np.zeros(num_samples, dtype=np.int64)
    for t in range(1, n + 1):
        u = _stream(seed, _PURPOSE_SUMS, t).random(num_samples)
        state = u < np.where(state, b, a)
        totals += state
    return totals


def empirical_pmf(values: np.ndarray, support_max: int) -> Pmf:
    """Empirical mass function of non-negative integer samples."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("no samples")
    counts = np.bincount(values, minlength=support_max + 1)
    return Pmf(counts / values.size)


@dataclass(frozen=True)
class CoupledState:
    """Pair state: z1 is the coordinate started at 1, z0 the one started at 0."""

    z1: int
    z0: int

    def __post_init__(self) -> None:
        if self.z1 not in (0, 1) or self.z0 not in (0, 1):
            raise ValueError("coordinates must be 0 or 1")


def coupled_transition_law(
    params: ChainParams, state: CoupledState
) -> dict[tuple[int, int], float]:
    """Exact one-step law of the coupled pair out of ``state``.

    From the diagonal both coordinates move together by the chain's own row,
    so the diagonal is absorbing.  From a split state the pair meets at j
    with probability min(p0j, p1j); the leftover |beta - alpha| keeps the
    orientation when beta > alpha and swaps it when beta < alpha.
    """
    a, b = params.alpha, params.beta
    if state.z1 == state.z0:
        to_one = b if state.z1 == 1 else a
        return {(0, 0): 1.0 - to_one, (1, 1): to_one}
    law = {(0, 0): min(1.0 - a, 1.0 - b), (1, 1): min(a, b)}
    stay = abs(b - a)
    if stay > 0.0:
        target = (state.z1, state.z0) if b > a else (state.z0, state.z1)
        law[target] = stay
    return law


@dataclass(frozen=True, eq=False)
class MeetingSamples:
    """Column-wise collection of meeting samples.

    ``absorption_violations`` counts lockstep transitions that left the
    diagonal after a meeting; the kernel gives such moves probability zero,
    so any positive count flags a broken kernel.
    """

    varsigma: np.ndarray
    tau: np.ndarray
    censored: np.ndarray
    absorption_violations: int

    def varsigma_tail(self, m: int) -> float:
        """Empirical P(varsigma >= m)."""
        return float(np.mean(self.varsigma >= m))

    def tau_tail(self, m: int) -> float:
        """Empirical P(tau >= m); censored samples count as >= cap."""
        return float(np.mean(self.tau >= m))


# Pair states are encoded as s = 2*z1 + z0; 0 and 3 are the diagonal.
_SPLIT_10 = 2


def _kernel_table(params: ChainParams) -> tuple[np.ndarray, ...]:
    """Inverse-cdf tables of ``coupled_transition_law`` by encoded state s.

    A uniform u moves the pair from s to 0 if u < t1[s], to 3 if
    u < t2[s], and to out3[s] otherwise: the split state the law keeps its
    leftover mass on, or 3 when it keeps none there.
    """
    t1, t2 = np.empty(4), np.empty(4)
    out3 = np.full(4, 3, dtype=np.int8)
    for s in range(4):
        law = coupled_transition_law(params, CoupledState(z1=s >> 1, z0=s & 1))
        t1[s] = law[(0, 0)]
        t2[s] = law[(0, 0)] + law[(1, 1)]
        for z1, z0 in law:
            if z1 != z0:
                out3[s] = 2 * z1 + z0
    return t1, t2, out3


def _first_passages(
    table: tuple[np.ndarray, ...], num_samples: int, seed: int, purpose: int, step_cap: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run copies of a 4-state chain from state 2 through ``table``.

    ``table`` is ``(t1, t2, out3)`` as built by ``_kernel_table``.  Returns
    each copy's first entry time into {0, 3} and into 0 (0 where not reached
    within ``step_cap`` steps), whether it reached 0, and the number of
    transitions up to the lockstep horizon of a running copy that left
    {0, 3} after entering it.  A copy stops once it reaches 0, so moves
    after that are not simulated.

    The dense lockstep keeps the running copies' indices in groups keyed by
    (state, entered {0, 3}), in no particular order.  Block t is drawn as
    raw Philox words up to the last running index; ``Generator.random``
    would turn word w into the uniform u = (w >> 11) * 2**-53, and u >= t
    exactly when (w >> 11) >= ceil(t * 2**53), so each group compares its
    copies' words with its state's two integer thresholds and splits into
    the copies moving to 0, to 3 and to out3[s].  Once the running copies
    are so few that fetching each one's word alone is cheaper than drawing
    the block (``_SOLO_WORDS``), every copy left finishes alone: it reads
    its own word of each block up to the horizon, then its tail stream.
    Each copy's path is the same wherever the hand-over falls.
    """
    t1, t2, out3 = table
    k1, k2 = (np.ceil(cut * 2.0**53).astype(np.uint64) for cut in (t1, t2))
    varsigma = np.zeros(num_samples, dtype=np.int64)
    tau = np.zeros(num_samples, dtype=np.int64)
    groups = {(_SPLIT_10, False): np.arange(num_samples)}
    violations = 0

    block_words = _block_words(seed, purpose)
    horizon = min(step_cap, LOCKSTEP_HORIZON)
    t = 0
    while t < horizon and groups:
        last = max(int(idx.max()) for idx in groups.values())
        if sum(idx.size for idx in groups.values()) * _SOLO_WORDS <= last + 1:
            break
        t += 1
        raw = block_words(t, last + 1)
        moved: dict[tuple[int, bool], list[np.ndarray]] = {}
        for (s, met), idx in groups.items():
            words = (raw if t == 1 else raw.take(idx)) >> 11
            low, high = words < k1[s], words >= k2[s]
            for new, pick in ((0, low), (3, ~(low | high)), (int(out3[s]), high)):
                picked = idx.compress(pick)
                on_diag = new in (0, 3)
                if met and not on_diag:
                    violations += picked.size
                elif on_diag and not met:
                    varsigma[picked] = t
                if new == 0:
                    tau[picked] = t
                elif picked.size:
                    moved.setdefault((new, met or on_diag), []).append(picked)
        groups = {key: np.concatenate(parts) for key, parts in moved.items()}

    t1, t2, out3 = t1.tolist(), t2.tolist(), out3.tolist()
    for (s0, met0), idx in groups.items():
        for i in idx.tolist():
            s, has_met, rng, step = s0, met0, None, t
            while step < step_cap:
                step += 1
                if step <= horizon:
                    u = (_sample_word(block_words, step, i) >> 11) * 2.0**-53
                else:
                    rng = rng or _tail_stream(seed, purpose, i)
                    u = float(rng.random())
                s = 0 if u < t1[s] else (3 if u < t2[s] else out3[s])
                if s in (0, 3) and not has_met:
                    has_met = True
                    varsigma[i] = step
                elif has_met and s not in (0, 3) and step <= horizon:
                    violations += 1
                if s == 0:
                    tau[i] = step
                    break

    return varsigma, tau, tau > 0, violations


def sample_meeting_times(
    params: ChainParams,
    num_samples: int,
    seed: int,
    step_cap: int = DEFAULT_STEP_CAP,
) -> MeetingSamples:
    """Independent coupled runs from (1, 0), recording (varsigma, tau).

    The pair is advanced through the joint kernel until it has met and then
    hit 0 together, or ``step_cap`` steps have elapsed (a censored sample
    keeps tau = cap, and varsigma = cap if it never even met).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    varsigma, tau, done, violations = _first_passages(
        _kernel_table(params), num_samples, seed, _PURPOSE_MEETING, step_cap
    )
    varsigma[varsigma == 0] = step_cap
    tau[~done] = step_cap
    return MeetingSamples(
        varsigma=varsigma,
        tau=tau,
        censored=~done,
        absorption_violations=violations,
    )


@dataclass(frozen=True, eq=False)
class BlockSamples:
    """Revisit counts of one regeneration cycle per sample: xi_odd revisits
    of 0 before the move to 1, then xi_even revisits of 1 before the move
    back to 0."""

    xi_odd: np.ndarray
    xi_even: np.ndarray


def sample_blocks(params: ChainParams, num_samples: int, seed: int) -> BlockSamples:
    """Simulate one 0-block then one 1-block of the chain per sample.

    Starting at 0, each step stays (one more revisit) with probability
    1 - alpha or moves to 1; the 1-block then counts revisits with stay
    probability beta.  The two counts of a sample are independent by the
    regenerative structure.

    The blocks run on the coupled pair's engine, with the 0-block, the
    1-block and done as its states 2, 3 and 0 and no step cap: the 0-block
    ends at the first entry into 3, so xi_odd = varsigma - 1, and the
    1-block at the first entry into 0, so xi_even = tau - varsigma - 1.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    a, b = params.alpha, params.beta
    table = (
        np.array([1.0, 0.0, 0.0, 1.0 - b]),
        np.array([1.0, 0.0, a, 1.0]),
        np.array([0, 0, 2, 3], dtype=np.int8),
    )
    varsigma, tau, _, _ = _first_passages(table, num_samples, seed, _PURPOSE_BLOCKS, math.inf)
    return BlockSamples(xi_odd=varsigma - 1, xi_even=tau - varsigma - 1)
