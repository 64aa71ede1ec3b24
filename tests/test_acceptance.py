"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance NN] ... PASS/FAIL` line (visible with
`pytest -s`); the asserts carry the same conditions.
"""

import math
import time

import numpy as np
import pytest

from markovbin import (
    ChainParams,
    DegenerateFitError,
    Regime,
    binomial_pmf,
    bound_binomial,
    bound_constants,
    classify_regime,
    empirical_pmf,
    exact_pmf,
    fit_binomial,
    fit_negative_binomial,
    gamma_fn,
    moments_closed_form,
    moments_from_pmf,
    sample_sums,
    shift_tv,
    tv_distance,
    verify_lemma24,
)
from markovbin.cli import _coupling, _stein, evaluate_point, main
from markovbin.fit import _reference

from oracles import enumerate_pmf

COARSE_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)

# The exact-TV comparisons carry the same evaluation-noise allowance the
# degeneracy criterion grants (the TV of two renderings of the same law is
# zero only up to ~1e-15 rounding).
NOISE = 1e-12


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_01_enumeration_oracle():
    start = time.perf_counter()
    worst = 0.0
    for alpha in COARSE_GRID:
        for beta in COARSE_GRID:
            params = ChainParams(alpha, beta)
            for n in range(1, 13):
                tv = tv_distance(exact_pmf(params, n), enumerate_pmf(alpha, beta, n))
                worst = max(worst, tv)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    report(1, "exact pmf vs path enumeration", ok, f"worst TV {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_02_moment_identity():
    worst = 0.0
    for alpha in COARSE_GRID:
        for beta in COARSE_GRID:
            params = ChainParams(alpha, beta)
            for n in (*range(1, 13), 100, 1000):
                summary = moments_closed_form(params, n)
                mean, variance = moments_from_pmf(exact_pmf(params, n))
                worst = max(
                    worst,
                    abs(mean - summary.mean) / summary.mean,
                    abs(variance - summary.variance) / summary.variance,
                )
    ok = worst <= 1e-10
    report(2, "closed-form vs pmf moments", ok, f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_03_binomial_degeneracy():
    worst_tv = 0.0
    bounds_zero = True
    for alpha in np.arange(0.1, 0.95, 0.1):
        params = ChainParams(float(alpha), float(alpha))
        for n in (1, 2, 3, 5, 10, 50, 200, 1000):
            tv = tv_distance(exact_pmf(params, n), binomial_pmf(n, float(alpha)))
            worst_tv = max(worst_tv, tv)
            fit = fit_binomial(params, n)
            bounds_zero &= bound_binomial(params, n, fit).bound_value == 0.0
    ok = worst_tv <= 1e-12 and bounds_zero
    report(3, "equal-rate degeneracy", ok, f"worst TV {worst_tv:.2e}")
    assert worst_tv <= 1e-12
    assert bounds_zero


def test_criterion_04_error_bound_soundness():
    grid = [round(float(x), 2) for x in np.arange(0.1, 0.95, 0.1)]
    violations = []
    degenerate = []
    below_one = 0
    cells = 0
    for alpha in grid:
        for beta in grid:
            params = ChainParams(alpha, beta)
            for n in (10, 50, 100, 1000, 5000):
                cells += 1
                try:
                    row = evaluate_point(params, n, exact=True)
                except DegenerateFitError:  # pragma: no cover - surfaced via status
                    row = {"status": "degenerate_fit"}
                if row["status"] == "degenerate_fit":
                    degenerate.append((alpha, beta, n))
                    continue
                if row["bound"] < 1.0:
                    below_one += 1
                if row["tv_exact"] > min(1.0, row["bound"]) + row["tail_mass"] + NOISE:
                    violations.append((alpha, beta, n, row["tv_exact"], row["bound"]))
    ok = not violations and below_one > 0 and len(degenerate) < cells // 50
    report(
        4,
        "TV bound soundness on the grid",
        ok,
        f"{cells} cells, {len(degenerate)} degenerate, {below_one} with bound < 1",
    )
    assert violations == []
    assert below_one > 0, "need non-vacuous cells with bound < 1"
    # the rare skipped cells must be the theta >= 1 flooring corner, nothing else
    assert len(degenerate) < cells // 50
    for alpha, beta, n in degenerate:
        with pytest.raises(DegenerateFitError):
            fit_binomial(ChainParams(alpha, beta), n)


def test_criterion_05_dispersion_implies_order():
    values = np.arange(0.05, 0.98, 0.05)
    violations = 0
    for alpha in values:
        for beta in values:
            params = ChainParams(float(alpha), float(beta))
            for n in range(2, 201):
                moments = moments_closed_form(params, n)
                if moments.variance >= moments.mean and not beta > alpha:
                    violations += 1
    ok = violations == 0
    report(5, "overdispersion forces beta > alpha", ok, f"{len(values)**2 * 199} cells")
    assert ok


def test_criterion_06_shift_smoothness_bound():
    worst_slack = math.inf
    worst_diag = -math.inf
    for alpha in COARSE_GRID:
        for beta in COARSE_GRID:
            params = ChainParams(alpha, beta)
            consts = bound_constants(params)
            for n in (16, 64, 256, 1024, 4096):
                value = shift_tv(exact_pmf(params, n, start="state0"))
                worst_slack = min(worst_slack, gamma_fn(consts, n) - value)
                worst_diag = max(worst_diag, math.sqrt(n) * value - 2.0 * consts.k1)
    ok = worst_slack >= 0.0 and worst_diag <= 0.0
    report(6, "shift TV below gamma(n)", ok, f"min slack {worst_slack:.3g}")
    assert worst_slack >= 0.0
    assert worst_diag <= 0.0


def test_criterion_07_conditional_law_comparisons():
    ok = True
    min_slack_sup = min_slack_probe = math.inf
    for alpha in COARSE_GRID:
        for beta in COARSE_GRID:
            params = ChainParams(alpha, beta)
            for n in (20, 50):
                for i in range(1, n + 1):
                    rep = verify_lemma24(params, n, i)
                    ok = ok and rep.ok
                    min_slack_sup = min(min_slack_sup, rep.rhs_sup - rep.tv2)
                    min_slack_probe = min(min_slack_probe, rep.rhs_delta - rep.probe_max)
    report(
        7,
        "conditional-law comparison inequalities",
        ok,
        f"min slacks {min_slack_sup:.3g} / {min_slack_probe:.3g}",
    )
    assert ok


NB_FIT_POINTS = [(0.1, 0.8, 100), (0.1, 0.8, 1000), (0.2, 0.6, 500), (0.3, 0.6, 200), (0.1, 0.5, 50)]


def _stein_at(fit, label, seed):
    """The Stein check that ``verify stein-*`` and ``sweep --checks stein``
    run, at 200 random subsets: its verdict and its report lines."""
    ok, lines = _stein(fit, _reference(fit), seed, 200)
    return ok, f"{label}: {'; '.join(lines)}"


def test_criterion_08_nb_stein_bounds():
    # every residual within the Stein tolerance and sup|dg'| <= 1/a
    checks = []
    for alpha, beta, n in NB_FIT_POINTS:
        params = ChainParams(alpha, beta)
        assert classify_regime(params, n) is Regime.OVERDISPERSED
        checks.append(_stein_at(fit_negative_binomial(params, n), (alpha, beta, n), 20240301))
    ok = all(passed for passed, _ in checks)
    report(8, "negative binomial Stein solution bounds", ok, " | ".join(d for _, d in checks))
    assert ok


BIN_FIT_POINTS = [(0.3, 0.6, 2), (0.4, 0.4, 10), (0.2, 0.1, 50), (0.5, 0.5, 30), (0.2, 0.1, 500)]


def test_criterion_09_binomial_stein_bounds():
    # every residual within the Stein tolerance and Lemma 3.1: the one-sided
    # equation, the difference bound, the boundary difference at m and
    # constant differences past it
    checks = [
        _stein_at(fit_binomial(ChainParams(alpha, beta), n), (alpha, beta, n), 20240302)
        for alpha, beta, n in BIN_FIT_POINTS
    ]
    ok = all(passed for passed, _ in checks)
    report(9, "binomial Stein sub-solution bounds", ok, " | ".join(d for _, d in checks))
    assert ok


def test_criterion_10_coupling_laws():
    # the verify suite's rule: each tail's count against its exact binomial
    # law at 4 sigma, varsigma tails for m <= 6 and tau tails for m <= 8
    start = time.perf_counter()
    ok = True
    for alpha, beta in ((0.3, 0.6), (0.6, 0.3), (0.1, 0.8)):
        verdict, _ = _coupling(ChainParams(alpha, beta), 42, 1_000_000, 4.0, 6, 8)
        ok = ok and verdict
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(10, "coupled meeting-time laws", ok, f"{elapsed:.1f}s for 3x10^6 runs")
    assert ok


def test_criterion_11_monte_carlo_vs_exact():
    params = ChainParams(0.3, 0.6)
    sums = sample_sums(params, 50, 1_000_000, seed=7)
    tv = tv_distance(empirical_pmf(sums, support_max=50), exact_pmf(params, 50))
    ok = tv <= 0.005
    report(11, "empirical pmf vs exact law", ok, f"TV {tv:.4f}")
    assert ok


def test_criterion_12_sweep_determinism(tmp_path):
    def sweep(path):
        code = main(
            ["sweep", "--alphas", "0.1", "0.4", "--betas", "0.3", "0.8", "--ns", "10", "25",
             "--checks", "bounds", "stein", "coupling", "lemma21", "lemma24",
             "--seed", "9", "--output", str(path)]
        )
        assert code == 0

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep(first)
    sweep(second)
    ok = first.read_bytes() == second.read_bytes()
    report(12, "sweep re-run is byte-identical", ok)
    assert ok
