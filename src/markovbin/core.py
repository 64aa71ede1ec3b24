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
from typing import Iterable, Iterator, Sequence

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

# State of the exact DP after a step: f0, f1, lo, hi, tail (see ``_dp_pass``).
_DpState = tuple[np.ndarray, np.ndarray, int, int, float]


@dataclass(frozen=True)
class ChainParams:
    """Transition pair of the chain: P(0 -> 1) = alpha, P(1 -> 1) = beta."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not (0.0 < float(value) < 1.0):
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")

    @property
    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic matrix [[1-alpha, alpha], [1-beta, beta]]."""
        return np.array(
            [[1.0 - self.alpha, self.alpha], [1.0 - self.beta, self.beta]]
        )


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
        _check_laws(mass, (self.tail,), self.tol)

    def __len__(self) -> int:
        return int(self.mass.size)


def _check_laws(mass: np.ndarray, tails: Sequence[float], tol: float) -> None:
    """Raise ``ValueError`` unless each law along the last axis of ``mass``,
    with its entry of ``tails`` (one per law, in row order), is a law within
    ``tol``: finite, non-negative masses, a tail in [0, 1), and mass + tail
    within ``tol`` of 1.  This is the one definition of the check: a ``Pmf``
    passes its one law, a stack of laws is checked in one call, and each law
    sums its masses as ``mass.sum()`` of that law alone would."""
    nonnegative = bool((mass >= 0.0).all())  # NaN fails the comparison
    sums = mass.sum(axis=-1, keepdims=True).ravel().tolist() if nonnegative else []
    # an infinite mass makes its law's sum infinite, and only then are the
    # entries tested one by one
    if not nonnegative or (math.inf in sums and not np.isfinite(mass).all()):
        raise ValueError("mass entries must be finite and non-negative")
    for mass_sum, tail in zip(sums, tails, strict=True):
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


def _dp_pass(params: ChainParams, n: int, start: str) -> Iterator[_DpState]:
    """Run the windowed exact DP for n steps, yielding its state after each
    step k = 0..n as ``(f0, f1, lo, hi, tail)``.

    ``f0[lo:hi] + f1[lo:hi]`` are the masses of the partial sums lo..hi-1
    (every other partial sum reads 0) and ``tail`` is the mass dropped so
    far.  The arrays are the live buffers, overwritten by the next step, so a
    caller copies what it keeps before it resumes the generator.  Every
    operation acts on the window alone and the cut after a step depends only
    on the masses after that step, so the state after k steps does not
    depend on how many steps the pass goes on to run: it is the state that a
    k-step pass ends in, bit for bit.
    """
    init = _initial_law(params, start)
    a, b = params.alpha, params.beta
    a0, b0 = 1.0 - a, 1.0 - b

    # f0[k], f1[k]: probability of (partial sum k, current state 0 or 1), live
    # on the half-open window lo..hi; entries outside it are never read.
    f0 = np.zeros(n + 1)
    f1 = np.zeros(n + 1)
    g0 = np.zeros(n + 1)
    g1 = np.zeros(n + 1)
    scratch = np.empty(n + 1)
    f0[0] = init[0]
    f1[0] = init[1]
    lo, hi = 0, 1
    tail = 0.0
    yield f0, f1, lo, hi, tail
    for _ in range(n):
        src0, src1, tmp = f0[lo:hi], f1[lo:hi], scratch[lo:hi]
        dst0, dst1 = g0[lo:hi], g1[lo + 1 : hi + 1]
        np.multiply(src0, a0, out=dst0)
        np.multiply(src1, b0, out=tmp)
        np.add(dst0, tmp, out=dst0)
        np.multiply(src0, a, out=dst1)
        np.multiply(src1, b, out=tmp)
        np.add(dst1, tmp, out=dst1)
        g0[hi] = 0.0
        g1[lo] = 0.0
        hi += 1
        f0, g0 = g0, f0
        f1, g1 = g1, f1
        # The total mass is about 1, so both scans stop at the largest entry.
        while (edge := f0[lo] + f1[lo]) < _TINY:
            tail += edge
            lo += 1
        while (edge := f0[hi - 1] + f1[hi - 1]) < _TINY:
            tail += edge
            hi -= 1
        yield f0, f1, lo, hi, tail


def _pass_snapshots(params: ChainParams, start: str, steps: Iterable[int]) -> dict[int, Pmf]:
    """The exact law of the k-step sum for every k in ``steps``, from one DP
    pass to the largest k (k = 0 gives the law of the empty sum).  This is
    the one source of exact laws: its state after k steps is the one a
    k-step pass ends in, bit for bit and tail included (see ``_dp_pass``)."""
    wanted = set(steps)
    top = max(wanted)
    if top > MAX_EXACT_N:
        raise ValueError(f"n={top} exceeds MAX_EXACT_N={MAX_EXACT_N}")
    laws = {}
    for k, (f0, f1, lo, hi, tail) in enumerate(_dp_pass(params, top, start)):
        if k in wanted:
            mass = np.zeros(k + 1)
            np.add(f0[lo:hi], f1[lo:hi], out=mass[lo:hi])
            laws[k] = Pmf(mass, tail=float(tail), tol=_exact_tol(k))
    return laws


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

    The result is the last state of one pass of the DP (``_pass_snapshots``);
    the state that pass holds after k < n steps is ``exact_pmf(params, k,
    start)`` to the last bit, tail included, which lets one pass serve every
    shorter sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1 (the empty sum is not defined here)")
    return _pass_snapshots(params, start, [n])[n]


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
    laws = _pass_snapshots(params, "state1" if j == 1 else "state0", (i - 1, n - i))
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
