"""Seeded Monte Carlo for the chain and for the coupled pair of chains.

The coupled pair moves two copies of the chain, one started at 1 and one at
0, under the joint kernel that meets them as fast as possible: from a split
state both land on j together with probability min(p0j, p1j), the residual
mass |beta - alpha| keeps them split, and from the diagonal they move as one
chain.

The meeting sampler runs copies of the pair as a 4-state chain, the states
encoded as s = 2*z1 + z0, started at state 2 and moved by its 4 x 4
one-step mass matrix; each copy records its first entry into the diagonal
{0, 3} (the meeting time) and into 0 (the joint visit to 0).  A copy moves
by whole runs inside its class, the split pair {1, 2} or the state 3, whose
lengths are geometric: one uniform gives a run's length by inversion
(Devroye 1986) and one the state it exits to, so a copy's cost does not
grow with its passage times.

Streams are counter-based: block e of draws comes from a Philox generator
whose 256-bit counter encodes (purpose, e), and sample i reads position i
of block e for its e-th draw, so a sample is a pure function of (seed, i)
whatever the number of samples or the split of work across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ChainParams, Pmf, stationary_law

__all__ = [
    "CoupledState",
    "MeetingSamples",
    "sample_sums",
    "empirical_pmf",
    "coupled_transition_law",
    "sample_meeting_times",
]

# Joint visits to 0 are simulated at most this many steps; a capped sample is
# recorded as censored and counts as >= cap in tail comparisons.
DEFAULT_STEP_CAP = 10_000

# Read only by the benchmark's draw estimate (perfbench/tracing.py): no sampler has a horizon.
LOCKSTEP_HORIZON = 256

# The largest step cap: a time up to it plus a run up to it + 1 fits in int64.
_MAX_STEPS = 2**62 - 1

_PURPOSE_SUMS = 1
_PURPOSE_MEETING = 2

_KEY_MASK = (1 << 128) - 1
_WORD_MASK = (1 << 64) - 1


def _counter(purpose: int, block: int) -> int:
    return (purpose << 192) | (block << 64)


def _stream(seed: int, purpose: int, block: int) -> np.random.Generator:
    philox = np.random.Philox(key=int(seed) & _KEY_MASK, counter=_counter(purpose, block))
    return np.random.Generator(philox)


def _block_words(seed: int, purpose: int) -> Callable[[int, int], np.ndarray]:
    """``words(block, size)``: the first ``size`` draws of ``_stream(seed,
    purpose, block)`` as integers m (raw words >> 11), which its ``random``
    turns into the uniforms m * 2**-53.  One generator is re-seated on each
    block's counter: that costs a few microseconds, building one 30x more.
    """
    philox = np.random.Philox(key=int(seed) & _KEY_MASK)
    state = philox.state

    def words(block: int, size: int) -> np.ndarray:
        counter = _counter(purpose, block)
        state["state"]["counter"] = np.array(
            [(counter >> shift) & _WORD_MASK for shift in (0, 64, 128, 192)], dtype=np.uint64
        )
        philox.state = state
        draws = philox.random_raw(size)
        draws >>= 11
        return draws

    return words


def _thresholds(cuts) -> np.ndarray:
    """Integer thresholds of ``cuts``: u = m * 2**-53 < cut exactly when m < ceil(cut * 2**53)."""
    return np.ceil(np.asarray(cuts) * 2.0**53).astype(np.uint64)


def sample_sums(params: ChainParams, n: int, num_samples: int, seed: int) -> np.ndarray:
    """Sums over steps 1..n of ``num_samples`` independent stationary chains.

    Vectorized over samples; sample i reads word i of block t for step t
    (block 0 for its start), so it is reproducible on its own.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    k_start, k0, k1 = _thresholds([stationary_law(params).p, params.alpha, params.beta])
    words = _block_words(seed, _PURPOSE_SUMS)
    state = words(0, num_samples) < k_start
    totals = np.zeros(num_samples, dtype=np.int64)
    for t in range(1, n + 1):
        state = words(t, num_samples) < np.where(state, k1, k0)
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

    ``absorption_violations`` counts the moves within the step cap that left
    the diagonal after a meeting; the kernel gives them probability zero, so
    a positive count flags a broken kernel.
    """

    varsigma: np.ndarray
    tau: np.ndarray
    censored: np.ndarray
    absorption_violations: int


def _kernel_matrix(params: ChainParams) -> np.ndarray:
    """``coupled_transition_law`` as a 4 x 4 one-step mass matrix:
    mass[s, j] moves the pair from s to j, states encoded as s = 2*z1 + z0,
    so that 0 and 3 are the diagonal."""
    mass = np.zeros((4, 4))
    for s in range(4):
        for (z1, z0), p in coupled_transition_law(params, CoupledState(s >> 1, s & 1)).items():
            mass[s, 2 * z1 + z0] = p
    return mass


def _first_passages(
    mass: np.ndarray, num_samples: int, seed: int, step_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run copies of a 4-state chain from state 2 through ``mass``, its
    one-step mass matrix.  Returns each copy's first entry time into {0, 3}
    and into 0 (0 if not within ``step_cap`` steps), whether it reached 0,
    and the moves within the cap that left {0, 3} after entry.

    A copy moves by runs inside a class: the split pair {1, 2}, lumped once
    the matrix gives both the same masses to 0 and 3, or the state 3.  Round
    r reads its word of block 2r - 1 for the run length 1 + floor(log U /
    log1p(-exit)), U in (0, 1], capped at step_cap + 1, and of block 2r for
    an uncertain exit: to 0 below an integer threshold, else from the pair to
    3 or from 3 to the pair.  Copies are grouped by (class, entered {0, 3}).
    """
    if not np.array_equal(mass[1, [0, 3]], mass[2, [0, 3]]):
        raise AssertionError("split states 1 and 2 move to 0 and 3 with different masses")
    # class -> its exit masses to 0 and to its other exit, and that exit
    exits = {2: (mass[2, 0], mass[2, 3], 3), 3: (mass[3, 0], mass[3, 1] + mass[3, 2], 2)}
    varsigma, tau, entered = (np.zeros(num_samples, dtype=np.int64) for _ in range(3))
    groups, violations, block = {(2, False): np.arange(num_samples)}, 0, 0
    block_words = _block_words(seed, _PURPOSE_MEETING)
    while groups:
        size = max(int(idx.max()) for idx in groups.values()) + 1
        run_words, exit_words = block_words(block + 1, size), None
        moved: dict[tuple[int, bool], list[np.ndarray]] = {}
        for (cls, met), idx in groups.items():
            to_zero, to_other, other = exits[cls]
            leave = min(to_zero + to_other, 1.0)
            with np.errstate(divide="ignore", over="ignore"):
                log_u = np.log((run_words.take(idx) + 1) * 2.0**-53)
                run = np.minimum(1.0 + np.floor(log_u / np.log1p(-leave)), step_cap + 1.0)
            at = entered.take(idx) + run.astype(np.int64)
            if at.max() > step_cap:
                idx, at = idx.compress(at <= step_cap), at.compress(at <= step_cap)
            k_zero = _thresholds(to_zero / leave)
            if 0 < k_zero < 2**53:  # an exit that is not certain reads its word
                exit_words = block_words(block + 2, size) if exit_words is None else exit_words
                zero = exit_words.take(idx) < k_zero
            else:
                zero = np.full(idx.size, k_zero > 0)
            for new, pick in ((0, zero), (other, ~zero)):
                picked, when = idx.compress(pick), at.compress(pick)
                if not met and new != 2:
                    varsigma[picked] = when
                violations += picked.size if met and new == 2 else 0
                if new == 0:
                    tau[picked] = when
                elif picked.size:
                    entered[picked] = when
                    moved.setdefault((new, met or new == 3), []).append(picked)
        groups, block = {key: np.concatenate(parts) for key, parts in moved.items()}, block + 2
    return varsigma, tau, tau > 0, violations


def sample_meeting_times(
    params: ChainParams, num_samples: int, seed: int, step_cap: int = DEFAULT_STEP_CAP
) -> MeetingSamples:
    """Independent coupled runs from (1, 0), recording (varsigma, tau).

    The pair is advanced through the joint kernel until it has met and then
    hit 0 together, or ``step_cap`` steps have elapsed (a censored sample
    keeps tau = cap, and varsigma = cap if it never even met).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if not 1 <= step_cap <= _MAX_STEPS:
        raise ValueError("step_cap must be >= 1 and < 2**62")
    varsigma, tau, done, violations = _first_passages(
        _kernel_matrix(params), num_samples, seed, step_cap
    )
    varsigma[varsigma == 0] = step_cap
    tau[~done] = step_cap
    return MeetingSamples(varsigma, tau, censored=~done, absorption_violations=violations)

