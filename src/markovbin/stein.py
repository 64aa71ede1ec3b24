"""Stein-equation solvers for the matched reference laws, and the
conditional-law comparison checks the error bounds rest on.

Both operators are Bg(j) = up(j) g(j+1) - down(j) g(j), and for an indicator
test set A the solved equation is Bg = 1_A - P(A) with P the target law.
They differ only in their coefficients:

- negative binomial: up(j) = a + b*j and down(j) = j, with a = r(1-q) and
  b = 1-q; b = 0 gives the Poisson operator;
- binomial: up(j) = theta (m-j) and down(j) = (1-theta) j.

Solutions are tabulated with g(0) = 0 (the operator never reads g(0); fixing
it makes instances reproducible) by one recurrence, ``_recurrence``.  It
pins g(1) from the j = 0 equation and steps forward below the target mean,
where that damps rounding noise; above the mean forward steps amplify noise
geometrically, so the tail is instead swept backward from an anchor (g = 0
past m for the binomial, whose j = m step then solves the j = m equation;
the closed constant-tail value at the truncation point for the negative
binomial).  Residuals are checked, not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import bound_constants, gamma_fn
from .core import ChainParams, Pmf, _check_laws, _exact_laws, _exact_tol
from .fit import NbFit

__all__ = ["Lemma24Report", "verify_lemma24"]

_STEIN_TOL = 1e-9  # the one Stein tolerance (residuals, bound slack), for solver rounding
_LEMMA24_TOL = 1e-12  # slack on the Lemma 2.4 inequalities, for exact-law rounding
_BINOMIAL_EXTEND = 64  # how far past m binomial Stein solutions are tabulated
# Doubles of the segment-law stack one round of ``_lemma24_reports`` keeps per
# start state (32 MB).  A side takes two rows of at most n doubles, so every
# side at sum length n takes about n^2 of them, which is 80 GB per state at
# MAX_EXACT_N, and larger index sets take more rounds.
_KEPT_DOUBLES = 1 << 22
# Doubles in one stack of conditional laws in ``_lemma24_from_laws`` (256 kB),
# one row per side.  A block of sides then fits in L2, every index up to
# n = 255 fits in one block, and a larger n takes more blocks, not more
# memory: all-index peak RSS at n = 4000 stays where one law per index at a
# time kept it, which 1 MB stacks raise by about 2 MB.
_STACK_DOUBLES = 1 << 15


@dataclass(frozen=True, eq=False)
class NbSteinSetup:
    """Operator coefficients (a, b) together with the truncated target law."""

    a: float
    b: float
    target: Pmf

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise ValueError(f"a must be positive, got {self.a!r}")
        if not 0.0 <= self.b < 1.0:
            raise ValueError(f"b must lie in [0, 1), got {self.b!r}")

    @property
    def mean(self) -> float:
        return self.a / (1.0 - self.b)


def _nb_setup(fit: NbFit, target: Pmf) -> NbSteinSetup:
    """The setup of a negative binomial (or Poisson) fit whose reference law
    ``target`` is already tabulated."""
    if fit.poisson_limit:
        return NbSteinSetup(a=fit.lam, b=0.0, target=target)
    return NbSteinSetup(a=fit.r * (1.0 - fit.q), b=1.0 - fit.q, target=target)


def _subset_columns(mask: np.ndarray, rows: int, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The subsets of ``mask`` (row c marks the points of A_c) as columns:
    ``ind[j, c]`` is 1_{A_c}(j) for j < ``rows``, the transposed mask padded
    with zeros, and ``p_set[c]`` is P(A_c), the mass ``pi`` puts on A_c.
    Each P(A_c) is summed over its own members: one sum over all columns
    would group numpy's pairwise sums differently, and this order keeps the
    ``verify stein-*`` reports and each column's equality with the scalar
    recurrences bit for bit."""
    ind = np.zeros((rows, mask.shape[0]), dtype=bool)
    ind[: mask.shape[1]] = mask.T
    p_set = np.array([pi[row[: pi.size]].sum() for row in mask])
    return ind, p_set


def _sup(values: np.ndarray) -> np.ndarray:
    """sup |values| per column."""
    return np.abs(values).max(axis=0)


def _recurrence(
    up: np.ndarray, down: np.ndarray, f: np.ndarray, seam: int, g: np.ndarray
) -> None:
    """Solve up(j) g(j+1) - down(j) g(j) = f(j) in place for the columns of
    ``g``: forward from g(0) for j < seam, and backward for j from
    len(up) - 1 down to seam + 1, from the anchor already in row len(up)."""
    for j in range(seam):
        g[j + 1] = (down[j] * g[j] + f[j]) / up[j]
    for j in range(up.size - 1, seam, -1):
        g[j] = (up[j] * g[j + 1] - f[j]) / down[j]


def _action(up: np.ndarray, down: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Bg(j) = up(j) g(j+1) - down(j) g(j) for j < len(up), per column of g."""
    return up[:, None] * g[1 : up.size + 1] - down[:, None] * g[: up.size]


def _solve_nb(
    setup: NbSteinSetup, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve Bg = 1_A - P(A) for the negative binomial (or Poisson) target
    and the subsets A of ``mask`` (one row per subset, one column per point
    of 0..N) at once: the solutions as the columns of g (entries 0..N+1),
    with each column's residual sup and sup |g(j+2) - g(j+1)|.  Each entry
    takes the operations a lone subset's would, so every column is the one
    its subset gives alone."""
    pi = setup.target.mass
    top = pi.size - 1
    if top < 1:
        raise ValueError("target must be tabulated past 0 to solve the equation")
    ind, p_set = _subset_columns(mask, top + 1, pi)
    f = ind - p_set
    j = np.arange(top + 1, dtype=float)
    up, down = setup.a + setup.b * j, j

    # Beyond the truncation point the test function is the constant -P(A),
    # which gives the bounded solution the closed tail value
    # g(top+1) = P(A) * P(>top) / ((top+1) * pi(top+1)).
    g = np.zeros((top + 2, p_set.size))
    pi_next = pi[top] * up[top] / (top + 1)
    g[top + 1] = p_set * setup.target.tail / ((top + 1) * pi_next) if pi_next > 0.0 else 0.0
    _recurrence(up, down, f, min(max(int(setup.mean), 1), top), g)
    return g, _sup(_action(up, down, g) - f), _sup(np.diff(g[1:], axis=0))


def _nb_delta_bound(delta_sup: np.ndarray, a: float) -> tuple[np.ndarray, float, np.ndarray]:
    """The check sup_j |g(j+2) - g(j+1)| <= 1/a per column: whether each
    sup |dg'| is within 1/a, the bound 1/a, and each column's slack."""
    bound = 1.0 / a
    return delta_sup <= bound + _STEIN_TOL, bound, bound - delta_sup


def _binomial_coefficients(m: int, theta: float, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """up(j) = theta (m-j) and down(j) = (1-theta) j of the binomial operator
    for j = 0..rows-1."""
    j = np.arange(rows, dtype=float)
    return theta * (m - j), (1.0 - theta) * j


def _binomial_stein(
    m: int, theta: float, pi: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Solve the binomial Stein equation for the subsets of ``mask`` (one
    row per subset, one column per point from 0 up to at most m + 64) at
    once, for a target whose mass ``pi`` of Bi(m, theta) is already
    tabulated: the solutions as the columns of g, each column's residual
    sup, and its Lemma 3.1 report (``_lemma31``).  Each entry takes the
    operations a lone subset's would.  The equation holds on 0..m; past m
    g is a constant that turns it into an inequality, and only the points
    of A within 0..m carry mass."""
    ind, p_set = _subset_columns(mask, m + _BINOMIAL_EXTEND + 1, pi)
    g = np.zeros((m + _BINOMIAL_EXTEND + 1, p_set.size))
    # g = 0 past m anchors the backward sweep, whose j = m step then solves
    # the j = m equation -(1-theta)*m*g(m) = f(m); the extension comes after
    seam = min(max(int(theta * m), 0), m - 1)
    _recurrence(*_binomial_coefficients(m, theta, m + 1), ind - p_set, seam, g)
    g[m + 1 :] = -(1.0 + theta * ind[m] - theta * p_set) / (m * theta * (1.0 - theta))
    return (g, *_lemma31(g, m, theta, ind, p_set))


def _lemma31(
    g: np.ndarray, m: int, theta: float, ind: np.ndarray, p_set: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Each column's residual sup and Lemma 3.1 report, for the solutions in
    the columns of ``g`` and the subsets of ``_subset_columns`` over the
    rows of g.  The report holds one array per field, entry c for column c.
    One defect Bg - (1_A - P(A)) over the tabulated range serves both: its
    first m rows are the equation's residual, and its minimum is the
    one-sided slack.  ``tail_slope``, the per-step growth of Bg past m, is
    positive where the extension is negative: the inequality holds beyond."""
    top = g.shape[0] - 1
    defect = _action(*_binomial_coefficients(m, theta, top), g) - (ind[:top] - p_set)
    delta = np.diff(g, axis=0)
    delta_sup = _sup(delta)
    bound = 1.0 / (m * theta * (1.0 - theta))
    min_slack = defect.min(axis=0)
    at_m = np.abs(np.abs(delta[m]) - bound)
    tail = _sup(delta[m + 1 :]) if top > m + 1 else np.zeros(p_set.size)
    tail_slope = -g[-1]  # Bg grows by (j+1) - j times this past m
    ok = (
        (min_slack >= -_STEIN_TOL)
        & (delta_sup <= bound + _STEIN_TOL)
        & (at_m <= _STEIN_TOL)
        & (tail == 0.0)
        & (tail_slope >= 0.0)
    )
    return _sup(defect[:m]), {
        "ok": ok,
        "inequality_min_slack": min_slack,
        "delta_sup": delta_sup,
        "delta_bound": np.full(p_set.size, bound),
        "delta_at_m_error": at_m,
        "tail_delta_max": tail,
        "tail_slope": tail_slope,
    }


@dataclass(frozen=True)
class Lemma24Report:
    """Exact evaluation of the conditional-law comparison inequalities.

    ``tv2`` is twice the TV distance between L(S - X_i | X_i = 1) and L(S),
    the supremum of the first comparison over test functions bounded by 1.
    The second comparison is probed with every threshold indicator
    h_t = 1_{. <= t} (each with unit difference norm); ``probe_max`` is the
    worst left-hand side over t.
    """

    ok: bool
    ok_sup: bool
    ok_delta: bool
    tv2: float
    rhs_sup: float
    probe_max: float
    rhs_delta: float
    smoothing: float


def verify_lemma24(params: ChainParams, n: int, i: int) -> Lemma24Report:
    """Verify both conditional-law comparison inequalities at index i.

    The first is checked at its supremum (via twice the TV distance); the
    second over the threshold-probe family, a necessary-condition check since
    the supremum over all bounded test functions is not computable.  This is
    the one-index case of ``_lemma24_reports``, which serves many indices of
    one (params, n) for the cost of about one DP pass.
    """
    return _lemma24_reports(params, n, [i])[i]


def _lemma24_reports(
    params: ChainParams, n: int, indices: Iterable[int]
) -> dict[int, Lemma24Report]:
    """Lemma 2.4 reports for each index, keyed by index in ascending order.

    Each round of sides takes one DP pass (``core._exact_laws``) that steps
    the starts ``state1`` and ``state0``, and in the first round also
    ``stationary`` for the law of S, together.  A round's segment laws stay
    in one stack per state, two rows of at most n doubles per side and at
    most ``_KEPT_DOUBLES`` doubles per stack, until the next round; each
    stack is checked once.  Up to n of about 2 000 every index fits in one
    round, so the cost is about n DP steps of three starts plus the
    convolutions (O(n^3/12) multiply-adds for every index).
    """
    sides = _lemma24_sides(n, indices)
    order = list(sides)
    per_round = max(1, _KEPT_DOUBLES // (2 * n))
    law_s: dict[int, Pmf] = {}  # the law of S, from the first round's pass
    reports = {}
    for first in range(0, len(order), per_round):
        batch = {s: sides[s] for s in order[first : first + per_round]}
        steps = _lemma24_steps(n, batch)
        wanted = {"state1": steps, "state0": steps}
        if not law_s:
            wanted["stationary"] = [n]
        laws = {"stationary": law_s, **_exact_laws(params, wanted)}
        law_s = laws["stationary"]
        reports.update(_lemma24_from_laws(params, n, laws, batch))
        del laws  # before the next round's pass
    return dict(sorted(reports.items()))


def _lemma24_sides(n: int, indices: Iterable[int]) -> dict[int, list[int]]:
    """The indices keyed by side, in ascending order.  Index i reads the laws
    after i - 1 and n - i steps, and index n + 1 - i the same two swapped;
    by reversibility (``exact_conditional_pmf``) both have the law of side
    s = min(i - 1, n - i), which reads the laws after s and n - 1 - s steps."""
    wanted = sorted(set(indices))
    bad = [i for i in wanted if not 1 <= i <= n]
    if bad:
        raise ValueError(f"index i={bad[0]} out of range 1..{n}")
    sides: dict[int, list[int]] = {}
    for i in wanted:
        sides.setdefault(min(i - 1, n - i), []).append(i)
    return dict(sorted(sides.items()))


def _lemma24_steps(n: int, sides: Iterable[int]) -> set[int]:
    """The numbers of steps of every segment law the sides read."""
    return {k for s in sides for k in (s, n - 1 - s)}


def _lemma24_from_laws(
    params: ChainParams, n: int, laws: dict[str, dict[int, Pmf]], sides: dict[int, list[int]]
) -> dict[int, Lemma24Report]:
    """Lemma 2.4 reports for each index of ``sides`` (``_lemma24_sides``),
    keyed by index in ascending order, from exact laws keyed by start and
    number of steps: the law of S under ``"stationary"`` and the segment
    laws (``_lemma24_steps``) under ``"state1"`` and ``"state0"``.  The
    constants, the smoothing factor and both right-hand sides are computed
    once, the rest once per side.

    The sides go in blocks of at most ``_STACK_DOUBLES`` doubles per stack.
    A block fills one stack of conditional laws per start state, row r
    holding ``np.convolve`` of side r's segment laws in its first n columns
    and 0 in the last, checks each stack once by the conditions a ``Pmf``
    enforces (``core._check_laws``), and compares the rows with the law of
    S in array operations that reuse the two stacks, allocating no stack of
    their own.  ``np.convolve`` puts the longer law first, so every report
    is the one each index of the side gives alone, bit for bit.
    """
    consts = bound_constants(params)
    amax = max(params.alpha, params.beta)
    smoothing = gamma_fn(consts, n / 4.0) + amax ** (n // 4)
    rhs_sup = consts.c1 * smoothing
    spread = abs(params.alpha - params.beta) * (5.0 + 23.0 * amax) / (1.0 - amax) ** 2
    rhs_delta = spread * smoothing

    law_s = laws["stationary"][n].mass
    segments = (laws["state1"], laws["state0"])
    order = list(sides)
    rows = max(1, min(len(sides), _STACK_DOUBLES // (n + 1)))
    stacks = [np.empty((rows, n + 1)) for _ in segments]
    k = np.arange(n, dtype=float)
    tol = _exact_tol(n)
    reports = {}
    for first in range(0, len(order), rows):
        block = order[first : first + rows]
        means = []
        for stack, state in zip(stacks, segments):
            stack[:, n] = 0.0  # the comparisons below overwrite it
            for r, s in enumerate(block):
                stack[r, :n] = np.convolve(state[s].mass, state[n - 1 - s].mass)
            law = stack[: len(block), :n]
            tails = [state[s].tail + state[n - 1 - s].tail for s in block]
            _check_laws(law, tails, [tol] * len(block))
            means.append([float(k @ row) for row in law])
        law1, law0 = (stack[: len(block)] for stack in stacks)

        # E dh_t(S) = -P(S = t) for the threshold probe h_t, so the probed
        # left side is |F1(t) - F0(t) + (mean1 - mean0) * P(S = t)|.  The
        # stacks are the scratch space: the gap F1 - F0 overwrites law0's
        # stack, then the TV terms and the probe terms law1's.
        gap = np.cumsum(np.subtract(law1, law0, out=law0), axis=1, out=law0)
        diff = np.abs(np.subtract(law1, law_s, out=law1), out=law1)
        tv2 = (2.0 * (0.5 * diff.sum(axis=1))).tolist()
        shifted = np.multiply(np.subtract(*means)[:, None], law_s, out=law1)
        probe = np.abs(np.add(gap, shifted, out=gap), out=gap).max(axis=1).tolist()

        for s, tv2_s, probe_max in zip(block, tv2, probe):
            ok_sup = tv2_s <= rhs_sup + _LEMMA24_TOL
            ok_delta = probe_max <= rhs_delta + _LEMMA24_TOL
            report = Lemma24Report(
                ok=ok_sup and ok_delta,
                ok_sup=ok_sup,
                ok_delta=ok_delta,
                tv2=tv2_s,
                rhs_sup=rhs_sup,
                probe_max=probe_max,
                rhs_delta=rhs_delta,
                smoothing=smoothing,
            )
            reports.update(dict.fromkeys(sides[s], report))
    return dict(sorted(reports.items()))
