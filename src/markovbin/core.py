"""Exact distributional computations for two-state Markov chains.

The chain lives on {0, 1} with one-step probabilities P(0 -> 1) = alpha and
P(1 -> 1) = beta, both strictly inside (0, 1).  S denotes the sum of n
consecutive states; its law (the Markov binomial distribution) is computed
exactly by dynamic programming over (step, current state, partial sum).
Everything in this module is deterministic; Monte Carlo lives in
``markovbin.coupling``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MAX_EXACT_N",
    "ChainParams",
    "StationaryLaw",
    "Pmf",
    "MomentSummary",
    "stationary_law",
    "exact_pmf",
    "exact_conditional_pmf",
    "moments_closed_form",
    "moments_from_pmf",
    "tv_distance",
    "shift_tv",
]

# Cap on the exact DP.  Its live window spans the partial sums whose mass is
# a normal double (about 26 000 of them at n = 100 000 for alpha = 0.1,
# beta = 0.8), so this size runs in seconds; the cap guards against
# accidental huge inputs.
MAX_EXACT_N = 100_000

# Normalization tolerance for mass functions built by construction; exact
# laws of long sums use a size-aware one (see ``_exact_tol``).
PMF_TOL = 1e-12

# Masses below the smallest normal double are subnormal, and arithmetic on
# them is many times slower; the exact DP moves them to ``Pmf.tail``.
_TINY = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)

# Largest relative rounding error ``moments_closed_form`` accepts from its
# cancelling closed form before it switches to the covariance sum.
_MOMENT_RTOL = 1e-12


@dataclass(frozen=True)
class ChainParams:
    """Transition pair of the chain: P(0 -> 1) = alpha, P(1 -> 1) = beta."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not (0.0 < float(value) < 1.0):
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")


@dataclass(frozen=True)
class StationaryLaw:
    """Invariant law of the chain: mass ``p`` at state 1, ``p0`` at state 0."""

    p: float
    p0: float

    def __post_init__(self) -> None:
        if abs(self.p + self.p0 - 1.0) > PMF_TOL:
            raise ValueError("stationary masses must sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p0, self.p])


def stationary_law(params: ChainParams) -> StationaryLaw:
    """Invariant law: p = alpha / (1 - beta + alpha), p0 = 1 - p.

    The denominator is evaluated as ``1 - (beta - alpha)`` so that the
    alpha == beta case yields p == alpha exactly in floating point.  That form
    cancels when beta - alpha is near 1: its error is about eps/4 divided by
    the denominator, and at alpha = 1e-6, beta = 0.999999 the two quotients
    miss 1 by 5e-11.  When they miss 1 by more than a few roundings the
    denominator is recomputed as ``(1 - beta) + alpha``, whose terms are both
    non-negative and so cannot cancel.  Inputs that sum within rounding keep
    the first form, so their masses are unchanged.
    """
    a, b = params.alpha, params.beta
    denom = 1.0 - (b - a)
    p, p0 = a / denom, (1.0 - b) / denom
    if abs(p + p0 - 1.0) > 4.0 * _EPS:
        denom = (1.0 - b) + a
        p, p0 = a / denom, (1.0 - b) / denom
    return StationaryLaw(p=p, p0=p0)


@dataclass(frozen=True, eq=False)
class Pmf:
    """A law on {0, ..., N}, possibly the truncation of a law on Z+.

    ``mass[k]`` is P(k).  ``tail`` is the reported mass missing from ``mass``:
    the mass beyond N for truncated constructions, and for exact laws the
    subnormal masses the DP dropped from its window (below n + 1 times the
    smallest normal double, so about 2e-303 at most).  ``tol`` is the
    normalization tolerance the instance was declared with (mass + tail must
    sum to 1 within it).
    """

    mass: np.ndarray
    tail: float = 0.0
    tol: float = PMF_TOL

    def __post_init__(self) -> None:
        mass = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "mass", mass)
        if mass.ndim != 1 or mass.size == 0:
            raise ValueError("mass must be a non-empty 1-d sequence")
        _check_laws(mass, (self.tail,), (self.tol,))

    def __len__(self) -> int:
        return int(self.mass.size)


def _check_laws(mass: np.ndarray, tails: Sequence[float], tols: Sequence[float]) -> None:
    """Raise ``ValueError`` unless each law along the last axis of ``mass``,
    with its entries of ``tails`` and ``tols`` (one per law, in row order),
    is a law within its tolerance: finite, non-negative masses, a tail in
    [0, 1), and mass + tail within the tolerance of 1.  This is the one
    definition of the check: a ``Pmf`` passes its one law, and a stack of
    laws is checked in one call.  Each row is summed whole by numpy's
    pairwise sum, so a law padded with zeros to the width of its stack may
    sum to a last bit other than ``mass.sum()`` of the law alone; the
    pairwise sum's O(log2 n) roundings are within ``_exact_tol`` either way."""
    nonnegative = bool(mass.min() >= 0.0)  # a NaN entry is the minimum and fails
    sums = mass.sum(axis=-1, keepdims=True).ravel().tolist() if nonnegative else []
    # an infinite mass makes its law's sum infinite, and only then are the
    # entries tested one by one
    if not nonnegative or (math.inf in sums and not np.isfinite(mass).all()):
        raise ValueError("mass entries must be finite and non-negative")
    for mass_sum, tail, tol in zip(sums, tails, tols, strict=True):
        if not (0.0 <= tail < 1.0):
            raise ValueError(f"tail mass out of range: {tail!r}")
        total = mass_sum + tail
        if abs(total - 1.0) > tol:
            raise ValueError(f"mass + tail sums to {total!r}, off by more than tol={tol!r}")


def _as_mass(p: "Pmf | Sequence[float] | np.ndarray") -> np.ndarray:
    return np.asarray(getattr(p, "mass", p), dtype=float)


def _initial_law(params: ChainParams, start: str) -> np.ndarray:
    if start == "stationary":
        return stationary_law(params).as_array()
    if start == "state0":
        return np.array([1.0, 0.0])
    if start == "state1":
        return np.array([0.0, 1.0])
    raise ValueError(f"start must be 'stationary', 'state0' or 'state1', got {start!r}")


def _exact_tol(n: int) -> float:
    """Normalization tolerance for an exact law of an n-step sum.

    Each DP step updates every partial-sum mass with three roundings relative
    to that mass (the coefficient ``1 - alpha`` or ``1 - beta``, the multiply
    and the add), so one step changes the total mass by a relative amount of
    at most 3u, u = eps/2 being the unit roundoff.  After n steps the drift is
    at most 3nu; the final ``f0 + f1`` and the pairwise sum in the check add
    u + O(log2 n)u, and the stationary start a few u more.  All of this stays
    below 4(n+1)u = 2(n+1)eps once n exceeds about 40, and below ``PMF_TOL``
    before that, so ``max(PMF_TOL, 2(n+1)eps)`` is never looser than
    ``PMF_TOL`` for n up to about 2 250.  The drift is systematic, not a
    random walk: the coefficient roundings bias every step the same way, which
    is why a fixed tolerance fails at large n (2.0e-12 at n = 100 000).
    """
    return max(PMF_TOL, 2.0 * (n + 1) * _EPS)


def _exact_laws(params: ChainParams, wanted: dict[str, Iterable[int]]) -> dict[str, dict[int, Pmf]]:
    """The exact law of the k-step sum for every start and every k in its
    entry of ``wanted`` (k = 0 gives the law of the empty sum), keyed by
    start and k, from one pass of the windowed DP (see ``exact_pmf``) that
    steps every start to the largest k any start wants.  This is the one
    source of exact laws.

    The R starts step together, interleaved in flat buffers: the mass of
    partial sum j under start r sits at index (j + 1) * R + r.  Each of a
    step's six array operations then covers the union of the starts' windows
    as one contiguous block, and a lone start is the plain windowed DP.
    Each start keeps its own window and tail, and its entries outside its
    window are exactly 0: an edge entry it drops is set to 0.  As ``x + 0``
    and ``0 * c`` are exact, every start's masses and tail are those of a
    pass of that start alone, bit for bit, and its state after k steps does
    not depend on how many steps the pass goes on to run.

    Each start writes its laws into one zero-filled stack, one row per
    wanted k padded to its largest k, which one ``_check_laws`` call checks
    with each row's own tolerance ``_exact_tol(k)``.  The laws handed out
    are the row views ``stack[row, :k + 1]``.
    """
    steps = {start: sorted(set(ks)) for start, ks in wanted.items()}
    top = max(ks[-1] for ks in steps.values())
    if top > MAX_EXACT_N:
        raise ValueError(f"n={top} exceeds MAX_EXACT_N={MAX_EXACT_N}")
    starts = list(wanted)
    width = len(starts)
    # the coefficients as 0-d arrays, which a ufunc takes with less overhead
    # than floats, for the same products
    a, b = params.alpha, params.beta
    a, b, a0, b0 = (np.array(c) for c in (a, b, 1.0 - a, 1.0 - b))

    # f0[(j + 1) * width + r], f1[...]: mass of (partial sum j, start r) with
    # current state 0 or 1, live on the union window lo..hi of indices.  The
    # first block stays 0, and a start's entries outside its window are 0 in
    # both pairs of buffers (a dropped entry is zeroed in both), so a step
    # reads one block past the window on either side and writes every entry
    # of the next window; entries past those blocks are never read.
    size = (top + 2) * width
    f0, f1, g0, g1 = (np.zeros(size) for _ in range(4))
    scratch = np.empty(size)
    for r, start in enumerate(starts):
        f0[width + r], f1[width + r] = _initial_law(params, start)
    lo, hi = width, 2 * width
    # first and last live index of each start, and its dropped mass
    first, last = list(range(width, 2 * width)), list(range(width, 2 * width))
    tails = [0.0] * width
    stacks = [np.zeros((len(steps[start]), steps[start][-1] + 1)) for start in starts]
    emits: dict[int, list[tuple[int, int]]] = {}
    for r, start in enumerate(starts):
        for row, k in enumerate(steps[start]):
            emits.setdefault(k, []).append((r, row))
    row_tails: list[list[float]] = [[] for _ in starts]
    for k in range(top + 1):
        if k:
            src0, src1 = f0[lo : hi + width], f1[lo : hi + width]
            low0, low1 = f0[lo - width : hi], f1[lo - width : hi]
            dst0, dst1, tmp = g0[lo : hi + width], g1[lo : hi + width], scratch[lo : hi + width]
            np.multiply(src0, a0, out=dst0)
            np.multiply(src1, b0, out=tmp)
            np.add(dst0, tmp, out=dst0)
            np.multiply(low0, a, out=dst1)
            np.multiply(low1, b, out=tmp)
            np.add(dst1, tmp, out=dst1)
            f0, g0 = g0, f0
            f1, g1 = g1, f1
            # The total mass of a start is about 1, so both scans stop at its
            # largest entry.
            for r in range(width):
                j = first[r]
                while (edge := f0[j] + f1[j]) < _TINY:
                    tails[r] += edge
                    f0[j] = f1[j] = g0[j] = g1[j] = 0.0
                    j += width
                first[r] = j
                j = last[r] + width
                while (edge := f0[j] + f1[j]) < _TINY:
                    tails[r] += edge
                    f0[j] = f1[j] = g0[j] = g1[j] = 0.0
                    j -= width
                last[r] = j
            lo, hi = min(first) // width * width, (max(last) // width + 1) * width
        for r, row in emits.get(k, ()):
            live = slice(first[r], last[r] + 1, width)
            np.add(f0[live], f1[live], out=stacks[r][row, first[r] // width - 1 : last[r] // width])
            row_tails[r].append(float(tails[r]))
    laws = {}
    for start, stack, start_tails in zip(starts, stacks, row_tails):
        tols = [_exact_tol(k) for k in steps[start]]
        _check_laws(stack, start_tails, tols)
        laws[start] = {
            k: _checked_pmf(stack[row, : k + 1], tail, tol)
            for row, (k, tail, tol) in enumerate(zip(steps[start], start_tails, tols))
        }
    return laws


def _checked_pmf(mass: np.ndarray, tail: float, tol: float) -> Pmf:
    """A ``Pmf`` of a law that has already passed ``_check_laws`` as a row of
    its stack, built without checking it again."""
    law = object.__new__(Pmf)
    law.__dict__.update(mass=mass, tail=tail, tol=tol)
    return law


def exact_pmf(params: ChainParams, n: int, start: str = "stationary") -> Pmf:
    """Exact law of the n-step sum from start "stationary", "state0" or "state1".

    The chain is anchored at step 0 with the initial law named by ``start``
    and the sum runs over steps 1..n, so the anchoring state itself is never
    counted.  ``start="state0"`` therefore gives the law of the sum of n
    transitions out of state 0.  For the stationary start this coincides with
    summing n stationary states.

    Each step updates only a live window ``lo..hi`` of partial sums.  After
    each step, edge entries whose mass ``f0 + f1`` is below the smallest
    normal double (about 2.2e-308) leave the window, their mass goes to
    ``Pmf.tail`` and they read 0 in ``mass``.  Such masses are subnormal, and
    arithmetic on subnormal doubles is many times slower than on normal ones:
    a full-width DP keeps thousands of them alive at large n (8 731 of 20 001
    at n = 20 000), so its cost per cell grows with n.  Dropping one changes
    any later mass by less than the smallest normal double, so masses of
    1e-280 or more match the full-width DP to the last bit.  The window gains
    one entry per step and each drop removes one, so at most n + 1 entries
    are dropped and ``tail`` stays below n + 1 times the smallest normal
    double.  The cost is O(n * width) time, at most O(n^2), and O(n) memory.

    This is the one-start, one-step case of ``_exact_laws``.  Its pass holds
    ``exact_pmf(params, k, start)`` after k < n steps, to the last bit and
    tail included, whichever other starts step with it, so one pass serves
    every shorter sum of every start.
    """
    if n < 1:
        raise ValueError("n must be >= 1 (the empty sum is not defined here)")
    return _exact_laws(params, {start: [n]})[start][n]


def exact_conditional_pmf(params: ChainParams, n: int, i: int, j: int) -> Pmf:
    """Exact law of S - X_i given X_i = j, for the stationary chain.

    Conditioned on the state at step i, the left segment (steps 1..i-1) and
    the right segment (steps i+1..n) are independent.  The left segment is
    the reversed chain run i-1 steps out of state j; the stationary two-state
    chain satisfies detailed balance, so the reversed chain has the same
    transition matrix and both segments reuse the forward DP.  The result is
    ``np.convolve(left, right)`` of ``exact_pmf(params, i - 1, start)`` and
    ``exact_pmf(params, n - i, start)`` (the unit law for an empty segment),
    both taken from one DP pass out of j, whose states match those calls bit
    for bit.  It carries both segments' dropped subnormal mass as ``tail``
    and the size-aware tolerance of an n-step exact law.
    """
    if not 1 <= i <= n:
        raise ValueError(f"index i={i} out of range 1..{n}")
    if j not in (0, 1):
        raise ValueError(f"state j must be 0 or 1, got {j!r}")
    start = "state1" if j == 1 else "state0"
    laws = _exact_laws(params, {start: (i - 1, n - i)})[start]
    left, right = laws[i - 1], laws[n - i]
    return Pmf(np.convolve(left.mass, right.mass), tail=left.tail + right.tail, tol=_exact_tol(n))


@dataclass(frozen=True)
class MomentSummary:
    """Closed-form mean/variance of the stationary sum with its correction
    coefficients a0 (per-step variance excess) and a1 = a0 / (1 - beta + alpha)."""

    mean: float
    variance: float
    a0: float
    a1: float

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError(f"variance must be non-negative, got {self.variance!r}")


def _lag_weight_sum(n: int, d: float) -> float:
    """sum_{k=1}^{n-1} (n - k) * (1 - d)^k as a binomial series in d.

    Expanding (1 - d)^k and summing over k by the hockey-stick identity gives
    C(n, 2) + sum_{j>=1} C(n + 1, j + 2) * (-d)^j.  Successive terms shrink by
    d * (n - 1 - j) / (j + 3) < n*d / 4, so for n*d well below 1 the sum is
    dominated by its first term and accurate to a few roundings.
    """
    total = n * (n - 1) / 2.0
    term = -d * (n + 1) * n * (n - 1) / 6.0
    j = 1
    while abs(term) > _EPS * total:
        total += term
        term *= -d * (n - 1 - j) / (j + 3)
        j += 1
    return total


def moments_closed_form(params: ChainParams, n: int) -> MomentSummary:
    """Mean n*p and variance n*p*(1-p) + n*a0 - a1 + a1*(beta-alpha)^n.

    The variance form cancels terms of size n*a0 and a1 to leave the
    variance, so its rounding error is about eps times their size.  Near
    alpha -> 0, beta -> 1 with n*(1 - beta + alpha) small those terms grow
    like 1/(1 - beta + alpha)^2 while the variance stays near p*p0*n^2 (at
    alpha = 1e-12, beta = 1 - 1e-12, n = 10 the form evaluates to 0 for 25).  When the
    cancellation could cost more than ``_MOMENT_RTOL`` relative, the
    variance is taken from the covariance sum
    n*p*p0 + 2*p*p0*sum_{k=1}^{n-1} (n - k)*(beta - alpha)^k instead, with
    1 - (beta - alpha) evaluated as (1 - beta) + alpha; that happens only
    for beta > alpha and n*(1 - beta + alpha) below about 0.03, where the
    sum's series converges at once.  For beta < alpha the cancellation comes
    from beta - alpha near -1 (alpha near 1, beta near 0), and the sum is
    taken in its closed form n*p*p0*s/(1 - delta) - a1*(1 - delta^n) with
    s = 1 + delta = (1 - alpha) + beta.  ``p`` comes from ``stationary_law``.
    Inputs that stay well-conditioned keep the closed form's bits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = params.alpha, params.beta
    law = stationary_law(params)
    p, p0 = law.p, law.p0
    delta = b - a
    denom = 1.0 - delta
    a0 = 2.0 * a * (1.0 - b) * delta / denom**3
    a1 = a0 / denom
    variance = n * p * (1.0 - p) + n * a0 - a1 + a1 * delta**n
    cancelled = n * abs(a0) + abs(a1) * (1.0 + abs(delta) ** n)
    if not cancelled * _EPS <= _MOMENT_RTOL * variance:
        if delta > 0.0:
            denom = (1.0 - b) + a
            a0 = 2.0 * a * (1.0 - b) * delta / denom**3
            a1 = a0 / denom
            variance = n * p * p0 + 2.0 * p * p0 * _lag_weight_sum(n, denom)
        else:
            # delta < 0 (nothing cancels at 0): the covariance sum in closed
            # form, with s = 1 + delta, whose two terms are non-negative
            s = (1.0 - a) + b
            # for even n, delta^n = (1 - s)^n and 1 - delta^n would cancel
            decay = -math.expm1(n * math.log1p(-s)) if n % 2 == 0 else 1.0 - delta**n
            variance = n * p * p0 * s / denom - a1 * decay
    return MomentSummary(mean=n * p, variance=variance, a0=a0, a1=a1)


def moments_from_pmf(pmf: "Pmf | Sequence[float]") -> tuple[float, float]:
    """First two moments of a tabulated law by direct summation.

    The variance uses the two-pass form sum((k - mean)^2 * p_k), which avoids
    the cancellation of E[S^2] - (E S)^2 when the mean is large.  Tail mass of
    truncated laws is ignored (the moments are those of the tabulated part).
    """
    mass = _as_mass(pmf)
    k = np.arange(mass.size, dtype=float)
    mean = float(k @ mass)
    variance = float(((k - mean) ** 2) @ mass)
    return mean, variance


def tv_distance(p: "Pmf | Sequence[float]", q: "Pmf | Sequence[float]") -> float:
    """Total variation distance: half the L1 distance between mass functions.

    For laws on the integers this equals the supremum of |P(A) - Q(A)| over
    subsets A.  Supports of different lengths are zero-padded.
    """
    a = _as_mass(p)
    b = _as_mass(q)
    size = max(a.size, b.size)
    return 0.5 * float(np.abs(_zero_padded(a, size) - _zero_padded(b, size)).sum())


def _zero_padded(mass: np.ndarray, size: int) -> np.ndarray:
    """``mass`` extended with zeros to ``size`` entries (itself if it has them)."""
    if mass.size == size:
        return mass
    return np.concatenate((mass, np.zeros(size - mass.size)))


def shift_tv(p: "Pmf | Sequence[float]") -> float:
    """TV distance between a law and its unit right-shift.

    Small values mean the law is smooth enough for difference-based error
    terms to be small.
    """
    mass = _as_mass(p)
    padded = np.concatenate((mass, [0.0]))
    shifted = np.concatenate(([0.0], mass))
    return 0.5 * float(np.abs(padded - shifted).sum())
