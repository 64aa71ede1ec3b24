import csv
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovbin import (
    MAX_EXACT_N,
    ChainParams,
    DegenerateFitError,
    Regime,
    binomial_pmf,
    bound_binomial,
    bound_nb,
    check_binomial_lemma31,
    check_nb_delta_bound,
    classify_regime,
    exact_pmf,
    fit_binomial,
    fit_negative_binomial,
    moments_closed_form,
    nb_pmf,
    poisson_pmf,
    solve_binomial_stein,
    solve_nb_stein,
    tv_distance,
)
from markovbin.cli import SweepConfig, evaluate_point, main, run_sweep
from markovbin.stein import _lemma24_from_laws, _lemma24_reports, _lemma24_sides, verify_lemma24


def run(argv):
    return main(argv)


class TestFitCommand:
    def test_overdispersed_report(self, capsys):
        assert run(["fit", "--alpha", "0.1", "--beta", "0.8", "--n", "100"]) == 0
        out = capsys.readouterr().out
        record = dict(line.split(" = ") for line in out.strip().splitlines())
        assert record["regime"] == "overdispersed"
        assert float(record["r"]) == pytest.approx(4500 / 361, rel=1e-12)
        assert float(record["q"]) == pytest.approx(135 / 496, rel=1e-12)

    def test_equal_rates_report(self, capsys):
        assert run(["fit", "--alpha", "0.4", "--beta", "0.4", "--n", "10"]) == 0
        record = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert record["regime"] == "underdispersed"
        assert int(record["m"]) == 10
        assert float(record["theta"]) == 0.4
        assert float(record["bound"]) == 0.0

    def test_out_of_range_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["fit", "--alpha", "1.2", "--beta", "0.5", "--n", "10"])
        assert excinfo.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_json_output_finite(self, capsys):
        assert run(["fit", "--alpha", "0.1", "--beta", "0.8", "--n", "50", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        for value in record.values():
            if isinstance(value, float):
                assert math.isfinite(value)

    def test_exact_flag_adds_tv(self, capsys):
        assert run(["fit", "--alpha", "0.3", "--beta", "0.6", "--n", "30", "--exact", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert 0.0 <= record["tv_exact"] <= 1.0

    def test_degenerate_fit_reported(self, capsys):
        assert run(["fit", "--alpha", "0.9", "--beta", "0.1", "--n", "10", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "degenerate_fit"
        assert record["bound"] is None

    def test_overflowing_bound_reported_missing(self, capsys):
        # alpha = 1e-158 overflows the bound constants to inf
        argv = ["fit", "--alpha", "1e-158", "--beta", "0.5", "--n", "3"]
        assert run([*argv, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok"
        assert record["bound"] is None and record["bound_clipped"] == 1.0
        assert run(argv) == 0
        assert "bound = n/a\nbound_clipped = 1\n" in capsys.readouterr().out

    def test_underflowing_alpha_squared_reported_missing(self, capsys):
        # alpha**2 underflows to 0 at alpha = 1e-300: the bound constants
        # become inf instead of dividing by zero (at alpha == beta the zero
        # prefactor makes the bound 0 instead, as the next test checks)
        assert run(["fit", "--alpha", "1e-300", "--beta", "1e-12", "--n", "1", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok"
        assert record["bound"] is None and record["bound_clipped"] == 1.0

    @pytest.mark.parametrize("rate", ["1e-300", "1e-158"])
    def test_zero_prefactor_bound_is_zero(self, rate, capsys):
        # alpha == beta: the prefactor is 0 and the brackets are inf, which
        # used to make the bound nan, reported missing with bound_clipped 1
        argv = ["fit", "--alpha", rate, "--beta", rate, "--n", "3", "--exact", "--json"]
        assert run(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok"
        assert (record["bound"], record["bound_clipped"]) == (0.0, 0.0)
        assert record["tv_exact"] <= record["tail_mass"] + 1e-12

    def test_near_alternating_chain(self, capsys):
        # alpha -> 1, beta -> 0: the closed-form variance cancelled to
        # -2.8e-17 and MomentSummary raised ValueError
        argv = ["fit", "--alpha", "0.9999999999999997", "--beta", "1e-158", "--n", "10", "--json"]
        assert run(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok" and record["regime"] == "underdispersed"
        assert record["variance"] == pytest.approx(8.32667268468867e-16, rel=1e-14)

    def test_underflowing_mean_squared_keeps_r_positive(self, capsys):
        # (E S)^2 underflows to 0 at alpha = 1e-300; r is formed without it
        assert run(["fit", "--alpha", "1e-300", "--beta", "1e-12", "--n", "3", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok" and record["regime"] == "overdispersed"
        assert record["r"] == pytest.approx(2.25e-288, rel=1e-4)
        assert record["bound"] is None and record["bound_clipped"] == 1.0


# Rates for the contract: log-uniform down to 5e-324, the smallest subnormal,
# and within 1e-9 of 1, on the grid 1 - k*2^-53 and uniformly.
_RATES = st.one_of(
    st.floats(math.log10(5e-324), -1.0).map(lambda e: 10.0**e),
    st.integers(1, 9_000_000).map(lambda k: 1.0 - k * 2.0**-53),
    st.floats(1.0 - 1e-9, 1.0, exclude_max=True),
)
_CLOSE_PAIRS = (
    st.tuples(_RATES, st.floats(-1e-12, 1e-12))
    .map(lambda t: (t[0], t[0] + t[1]))
    .filter(lambda pair: 0.0 < pair[1] < 1.0)
)
# (n, with the exact law): exact laws up to n = 300, none above
_SIZES = st.one_of(
    st.tuples(st.integers(1, 4), st.booleans()),
    st.tuples(st.integers(5, 300), st.just(True)),
    st.tuples(st.integers(1, MAX_EXACT_N), st.just(False)),
)


class TestContract:
    """Every 0 < alpha, beta < 1 and 1 <= n <= MAX_EXACT_N gives an ``ok`` or
    ``degenerate_fit`` row that serialises as strict JSON, and the exact TV
    lies within the clipped bound plus the reference's tail mass."""

    @given(st.one_of(st.tuples(_RATES, _RATES), _CLOSE_PAIRS), _SIZES)
    @example((0.9999999999999997, 1e-158), (10, True))  # variance cancelled below 0
    @example((1e-300, 1e-300), (3, True))  # bound was nan
    @example((1e-310, 1e-12), (3, True))  # K2 is inf/inf unless taken as inf
    @example((1e-320, 0.5), (2, True))  # subnormal r: the kernel's pmf(0) is nan
    @example((3e-309, 0.5), (3, True))  # subnormal r: every mass and the tail are 0
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_every_point_ends_in_a_row(self, pair, size):
        (alpha, beta), (n, exact) = pair, size
        row = evaluate_point(ChainParams(alpha, beta), n, exact=exact)
        assert row["status"] in ("ok", "degenerate_fit")
        json.dumps(row, allow_nan=False)
        if row["tv_exact"] is not None:
            assert row["tv_exact"] <= row["bound_clipped"] + row["tail_mass"] + 1e-12


class TestSweepCommand:
    def test_grid_with_bounds_check(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        grid = ["0.1", "0.3", "0.5", "0.7", "0.9"]
        code = run(
            ["sweep", "--alphas", *grid, "--betas", *grid, "--ns", "5", "10", "20",
             "--checks", "bounds", "--output", str(out)]
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 75
        assert all(row["check_bounds"] != "fail" for row in rows)

    def test_empty_checks_rows_contain_fits_only(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--alphas", "0.3", "--betas", "0.6", "--ns", "4", "--output", str(out)])
        with open(out) as handle:
            header = next(csv.reader(handle))
        assert not any(column.startswith("check_") for column in header)
        assert header[:3] == ["alpha", "beta", "n"]

    def test_rerun_byte_identical(self, tmp_path):
        args = lambda path: [
            "sweep", "--alphas", "0.2", "0.4", "--betas", "0.5", "--ns", "8", "16",
            "--checks", "bounds", "stein", "lemma21", "--seed", "9", "--output", path,
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args(str(first)))
        run(args(str(second)))
        assert first.read_bytes() == second.read_bytes()

    def test_row_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--alphas", "0.2", "0.4", "--betas", "0.3", "0.6", "--ns", "2", "4",
             "--output", str(out)])
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        triples = [(float(r["alpha"]), float(r["beta"]), int(r["n"])) for r in rows]
        assert triples == sorted(triples)

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = SweepConfig(
            alpha_grid=(0.1,), beta_grid=(0.8,), n_list=(100,), checks=(),
            seed=0, output_path=str(out), format="csv",
        )
        rows = run_sweep(config)
        with open(out) as handle:
            written = next(csv.DictReader(handle))
        assert float(written["variance"]) == rows[0]["variance"]
        assert float(written["bound"]) == rows[0]["bound"]

    def test_json_schema_and_finiteness(self, tmp_path):
        out = tmp_path / "sweep.json"
        run(["sweep", "--alphas", "0.1", "0.9", "--betas", "0.1", "0.9", "--ns", "10",
             "--checks", "bounds", "--format", "json", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        for row in payload["rows"]:
            assert row["status"] in ("ok", "degenerate_fit")
            for value in row.values():
                if isinstance(value, float):
                    assert math.isfinite(value)

    def test_overflowing_bound_reported_missing(self, tmp_path):
        # alpha = 1e-158 overflows the bound constants to inf; CSV and JSON
        # both report the bound as missing and keep the clipped bound 1
        argv = ["sweep", "--alphas", "0.3", "1e-158", "--betas", "0.5", "--ns", "3",
                "--checks", "bounds"]
        json_out, csv_out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        assert run([*argv, "--format", "json", "--output", str(json_out)]) == 0
        assert run([*argv, "--output", str(csv_out)]) == 0
        finite, overflowed = json.loads(json_out.read_text())["rows"]
        assert finite["bound"] > 1.0
        assert overflowed["bound"] is None and overflowed["bound_clipped"] == 1.0
        assert overflowed["check_bounds"] == "pass"
        with open(csv_out) as handle:
            row = list(csv.DictReader(handle))[1]
        assert (row["bound"], row["bound_clipped"]) == ("", "1")

    def test_underflowing_rates_complete(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--alphas", "1e-300", "--betas", "1e-300", "1e-12", "--ns", "1", "3",
                "--output", str(out)]
        assert run(argv) == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert [row["status"] for row in rows] == ["ok"] * 4
        # alpha == beta rows first: their zero prefactor makes the bound 0
        bounds = [(row["bound"], row["bound_clipped"]) for row in rows]
        assert bounds == [("0", "0")] * 2 + [("", "1")] * 2

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SweepConfig(
                alpha_grid=(), beta_grid=(0.5,), n_list=(1,), checks=(),
                seed=0, output_path=str(tmp_path / "x.csv"),
            )
        with pytest.raises(ValueError):
            SweepConfig(
                alpha_grid=(0.5,), beta_grid=(0.5,), n_list=(1,), checks=("nosuch",),
                seed=0, output_path=str(tmp_path / "x.csv"),
            )


class TestVerifyCommand:
    def test_lemma21_passes(self, capsys):
        assert run(["verify", "lemma21", "--alpha", "0.3", "--beta", "0.6", "--n", "1024"]) == 0
        out = capsys.readouterr().out
        assert "shift TV" in out and "PASS" in out

    def test_stein_nb_passes(self):
        assert run(
            ["verify", "stein-nb", "--alpha", "0.1", "--beta", "0.8", "--n", "100",
             "--subsets", "200", "--seed", "7"]
        ) == 0

    def test_stein_binomial_passes(self):
        assert run(
            ["verify", "stein-binomial", "--alpha", "0.3", "--beta", "0.6", "--n", "2",
             "--subsets", "100", "--seed", "3"]
        ) == 0

    def test_lemma22_scan(self):
        assert run(["verify", "lemma22", "--step", "0.2", "--n-max", "50"]) == 0

    def test_lemma24_single_index(self):
        assert run(
            ["verify", "lemma24", "--alpha", "0.3", "--beta", "0.6", "--n", "40",
             "--index", "20"]
        ) == 0

    def test_lemma24_all_indices(self, capsys):
        params, n = ChainParams(0.3, 0.6), 12
        assert run(["verify", "lemma24", "--alpha", "0.3", "--beta", "0.6", "--n", "12"]) == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        reports = [verify_lemma24(params, n, i) for i in range(1, n + 1)]
        sup = min(report.rhs_sup - report.tv2 for report in reports)
        probe = min(report.rhs_delta - report.probe_max for report in reports)
        assert printed["worst sup-side margin"] == f"{sup:.6g}"
        assert printed["worst probe-side margin"] == f"{probe:.6g}"

    def test_lemma24_equal_rates_margin_has_no_negative_zero(self, capsys):
        # both sides of the probe inequality are 0 at alpha == beta
        assert run(["verify", "lemma24", "--alpha", "0.4", "--beta", "0.4", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "worst probe-side margin: 0\n" in out and "-0" not in out

    def test_lemma24_all_indices_long_sum(self, capsys):
        params, n = ChainParams(0.3, 0.6), 400
        assert run(["verify", "lemma24", "--alpha", "0.3", "--beta", "0.6", "--n", "400"]) == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        reports = _lemma24_reports(params, n, range(1, n + 1))
        assert list(reports) == list(range(1, n + 1))
        sup = {i: report.rhs_sup - report.tv2 for i, report in reports.items()}
        probe = {i: report.rhs_delta - report.probe_max for i, report in reports.items()}
        assert printed["worst sup-side margin"] == f"{min(sup.values()):.6g}"
        assert printed["worst probe-side margin"] == f"{min(probe.values()):.6g}"
        # the worst indices and both ends, each on its own
        for i in {min(sup, key=sup.get), min(probe, key=probe.get), 1, n}:
            assert reports[i] == verify_lemma24(params, n, i)

    @pytest.mark.parametrize(
        "argv",
        [
            ["stein-binomial", "--alpha", "0.1", "--beta", "0.8", "--n", "10"],
            ["stein-nb", "--alpha", "0.8", "--beta", "0.1", "--n", "10"],
            ["stein-binomial", "--alpha", "0.9", "--beta", "0.1", "--n", "10"],
            ["lemma24", "--alpha", "0.3", "--beta", "0.6", "--n", "5", "--index", "9"],
        ],
        ids=["binomial-overdispersed", "nb-underdispersed", "binomial-degenerate", "index-above-n"],
    )
    def test_inapplicable_inputs_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["verify", *argv])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemma21", "--alpha", "0.3", "--beta", "0.6"],
            ["lemma24", "--alpha", "0.3", "--beta", "0.6", "--n", "5", "--index", "9"],
            ["stein-nb", "--alpha", "0.3", "--beta", "0.6", "--n", "10", "--seed", "-1"],
            ["stein-binomial", "--alpha", "0.6", "--beta", "0.3", "--n", "10", "--seed", "-1"],
            # the lemma22 scan covers 2 <= n <= n_max, so n_max = 1 checks nothing
            ["lemma22", "--n-max", "1"],
        ],
        ids=[
            "missing-n", "index-above-n", "negative-seed-nb", "negative-seed-binomial",
            "n-max-below-2",
        ],
    )
    def test_usage_errors_show_verify_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["verify", *argv])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: markovbin verify")

    def test_coupling_small_run(self):
        assert run(
            ["verify", "coupling", "--alpha", "0.3", "--beta", "0.6",
             "--samples", "100000", "--seed", "1"]
        ) == 0

    def test_coupling_single_sample_in_small_target(self):
        # one sample has varsigma >= 6 where the target is 5.6e-8: a 4-sigma
        # normal bound fails it, the exact binomial tail at the same rate does not
        assert run(
            ["verify", "coupling", "--alpha", "0.3", "--beta", "0.33540095339517517",
             "--seed", "10"]
        ) == 0

    def test_mc_exact_small_run(self):
        assert run(
            ["verify", "mc-exact", "--alpha", "0.3", "--beta", "0.6", "--n", "50",
             "--samples", "100000", "--seed", "2", "--tol", "0.02"]
        ) == 0

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "1", "inf"])
    def test_mc_exact_tol_outside_unit_interval_exits_2(self, tol, capsys):
        # a TV distance lies in [0, 1], so no other tolerance means anything
        with pytest.raises(SystemExit) as excinfo:
            run(["verify", "mc-exact", "--alpha", "0.3", "--beta", "0.6", "--n", "20",
                 "--tol", tol])
        assert excinfo.value.code == 2
        assert "argument --tol" in capsys.readouterr().err

    @pytest.mark.xfail(
        strict=True,
        reason="the fixed absolute Stein tolerance fails valid points at small rates",
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["stein-nb", "--alpha", "1e-14", "--beta", "1e-16", "--n", "10"],
            ["stein-nb", "--alpha", "1e-08", "--beta", "0.9", "--n", "20"],
            ["stein-nb", "--alpha", "1e-10", "--beta", "0.99", "--n", "5"],
            ["stein-binomial", "--alpha", "1e-09", "--beta", "1e-10", "--n", "10"],
        ],
        ids=["nb-both-tiny", "nb-tiny-alpha", "nb-tiny-alpha-n5", "binomial-both-tiny"],
    )
    def test_stein_passes_at_small_rates(self, argv):
        assert run(["verify", *argv, "--subsets", "50"]) == 0

    def test_bounds_single_point(self):
        assert run(["verify", "bounds", "--alpha", "0.2", "--beta", "0.7", "--n", "64"]) == 0

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["verify", "nosuch"])
        assert excinfo.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["verify", "lemma21", "--alpha", "0.3", "--beta", "0.6"])
        assert excinfo.value.code == 2


def _folded_stein(fit, target, seed, count):
    """The Stein check as a fold over the public per-subset objects: the
    subsets of ``cli._random_subsets`` solved one at a time, each solution
    checked by its public report, then a running max and min from 0 and inf."""
    from markovbin import stein as stein_mod
    from markovbin.cli import _random_subsets
    from markovbin.fit import BinFit

    rng = np.random.default_rng(seed)
    checked = []
    if isinstance(fit, BinFit):
        for row in _random_subsets(rng, fit.m + 16, count):
            members = np.flatnonzero(row)
            solution = solve_binomial_stein(fit.m, fit.theta, members)
            checked.append(
                (solution, check_binomial_lemma31(solution, fit.m, fit.theta, members))
            )
    else:
        setup = stein_mod._nb_setup(fit, target)
        for row in _random_subsets(rng, target.mass.size - 1, count):
            solution = solve_nb_stein(setup, np.flatnonzero(row))
            checked.append((solution, check_nb_delta_bound(solution, setup.a)))
    ok = all(report.ok and s.residual_sup <= stein_mod._STEIN_TOL for s, report in checked)
    worst = max(0.0, *(s.residual_sup for s, _ in checked))
    lines = [f"subsets: {count}, max residual: {worst:.3g}"]
    if not isinstance(fit, BinFit):
        margin = min(math.inf, *(report.margin for _, report in checked))
        lines.append(f"min slack of sup|dg'| <= 1/a: {margin:.6g}")
    return ok, lines


class TestSteinVerdict:
    """``cli._stein`` reads its verdict off the batch's per-subset arrays: it
    must be the fold over the public per-subset objects, pass over a NaN as
    that fold does, and fail where one solution is off."""

    # the benchmark's sweep-grid centres, and the CI points of the two verify suites
    GRID = [(a, b, n) for a in (0.1, 0.8) for b in (0.35, 0.45, 0.55)
            for n in (12, 25, 50, 100, 175, 250)]
    VERIFY = [(fit_negative_binomial, 0.1, 0.45, 100), (fit_binomial, 0.8, 0.35, 100)]

    def test_sweep_rows_at_the_sweep_budget(self):
        from markovbin.cli import _SWEEP_STEIN_SUBSETS, _point_row, _row_seed, _stein

        kinds = set()
        for index, (alpha, beta, n) in enumerate(self.GRID):
            _, fit, reference = _point_row(ChainParams(alpha, beta), n, None)
            seed = _row_seed(3, index)
            got = _stein(fit, reference, seed, _SWEEP_STEIN_SUBSETS)
            assert got == _folded_stein(fit, reference, seed, _SWEEP_STEIN_SUBSETS), index
            assert got[0] is True
            kinds.add(type(fit).__name__)
        assert kinds == {"NbFit", "BinFit"}

    @pytest.mark.parametrize("fit_for,alpha,beta,n", VERIFY, ids=["nb", "binomial"])
    def test_verify_budget(self, fit_for, alpha, beta, n):
        from markovbin.cli import _stein
        from markovbin.fit import _reference

        fit = fit_for(ChainParams(alpha, beta), n)
        for seed in (0, 7):
            got = _stein(fit, _reference(fit), seed, 200)
            assert got == _folded_stein(fit, _reference(fit), seed, 200)
            assert got[0] is True

    @pytest.mark.parametrize("fit_for,alpha,beta,n", VERIFY, ids=["nb", "binomial"])
    def test_nan_residual_is_passed_over(self, monkeypatch, fit_for, alpha, beta, n):
        # every subset holding point 0 gets a NaN residual, in the batch and
        # in each public one-subset solve alike
        from markovbin import stein as stein_mod
        from markovbin.cli import _random_subsets, _stein
        from markovbin.fit import _reference

        solve, lemma31 = stein_mod._solve_nb, stein_mod._lemma31

        def nb_nan(setup, mask):
            g, residual, delta = solve(setup, mask)
            return g, np.where(mask[:, 0], np.nan, residual), delta

        def binomial_nan(g, m, theta, ind, p_set):
            residual, report = lemma31(g, m, theta, ind, p_set)
            return np.where(ind[0], np.nan, residual), report

        monkeypatch.setattr(stein_mod, "_solve_nb", nb_nan)
        monkeypatch.setattr(stein_mod, "_lemma31", binomial_nan)
        fit = fit_for(ChainParams(alpha, beta), n)
        holds_0 = _random_subsets(np.random.default_rng(11), 1, 20)[:, 0]
        assert 0 < holds_0.sum() < 20
        ok, lines = _stein(fit, _reference(fit), 11, 20)
        assert (ok, lines) == _folded_stein(fit, _reference(fit), 11, 20)
        assert ok is False and "nan" not in lines[0]

    @pytest.mark.parametrize("fit_for,alpha,beta,n", VERIFY, ids=["nb", "binomial"])
    def test_one_perturbed_solution_fails(self, monkeypatch, fit_for, alpha, beta, n):
        from markovbin import stein as stein_mod
        from markovbin.cli import _stein
        from markovbin.fit import _reference

        fit = fit_for(ChainParams(alpha, beta), n)
        ok, lines = _stein(fit, _reference(fit), 5, 20)
        assert ok is True
        recurrence = stein_mod._recurrence

        def perturbed(up, down, f, seam, g):
            recurrence(up, down, f, seam, g)
            g[1, -1] += 1e-6  # the last subset's solution only

        monkeypatch.setattr(stein_mod, "_recurrence", perturbed)
        ok, lines = _stein(fit, _reference(fit), 5, 20)
        assert ok is False
        assert float(lines[0].rsplit(" ", 1)[1]) > stein_mod._STEIN_TOL


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    def test_commands_repeat(self, tmp_path, capsys):
        from markovbin.cli import build_parser

        assert build_parser() is build_parser()
        report = tmp_path / "sweep.csv"
        commands = [
            ["fit", "--alpha", "0.1", "--beta", "0.45", "--n", "50", "--exact"],
            ["sweep", "--alphas", "0.1", "0.8", "--betas", "0.45", "--ns", "12", "30",
             "--checks", "bounds", "stein", "lemma21", "--seed", "4", "--output", str(report)],
            ["sweep", "--alphas", "0.3", "--betas", "0.6", "--ns", "4", "--output", str(report)],
            ["verify", "stein-nb", "--alpha", "0.1", "--beta", "0.45", "--n", "100"],
            ["verify", "lemma24", "--alpha", "0.3", "--beta", "0.6", "--n", "20"],
        ]
        rounds = []
        for _ in range(2):
            outputs = []
            for argv in commands:
                code = run(argv)
                written = report.read_text() if argv[0] == "sweep" else None
                outputs.append((code, capsys.readouterr().out, written))
            rounds.append(outputs)
        assert rounds[0] == rounds[1]
        assert [code for code, _, _ in rounds[0]] == [0] * len(commands)
        # the sweep without --checks leaves the shared default empty
        args = build_parser().parse_args(["sweep", "--alphas", "0.3", "--betas", "0.6",
                                          "--ns", "4", "--output", str(report)])
        assert args.checks == []

    def test_usage_error_repeats(self, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                run(["verify", "lemma21", "--alpha", "0.3", "--beta", "0.6"])
            assert excinfo.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].splitlines()[-1] == "markovbin verify: error: suite 'lemma21' requires --n"

    def test_handlers_are_looked_up_per_call(self, monkeypatch):
        import markovbin.cli as cli

        cli.build_parser()  # built before the handlers are replaced
        monkeypatch.setattr(cli, "cmd_fit", lambda args, parser: 5)
        monkeypatch.setattr(cli, "cmd_sweep", lambda args: 6)
        monkeypatch.setattr(cli, "cmd_verify", lambda args, parser: 7)
        assert run(["fit", "--alpha", "0.1", "--beta", "0.45", "--n", "5"]) == 5
        assert run(["sweep", "--alphas", "0.1", "--betas", "0.4", "--ns", "5",
                    "--output", os.devnull]) == 6
        assert run(["verify", "lemma22"]) == 7


class TestScipyStatsUnimported:
    """No command imports scipy.stats: importing it takes longer than a short
    command does without it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--alpha", "0.1", "--beta", "0.45", "--n", "100", "--exact"],
            ["sweep", "--alphas", "0.1", "0.8", "--betas", "0.45", "--ns", "12",
             "--checks", "bounds", "stein", "coupling", "lemma21", "lemma24",
             "--output", os.devnull],
            ["verify", "stein-nb", "--alpha", "0.1", "--beta", "0.45", "--n", "100"],
            ["verify", "stein-binomial", "--alpha", "0.8", "--beta", "0.35", "--n", "100"],
            ["verify", "bounds", "--alpha", "0.1", "--beta", "0.45", "--n", "100"],
            ["verify", "lemma24", "--alpha", "0.3", "--beta", "0.6", "--n", "20"],
        ],
        ids=["fit", "sweep", "verify-stein-nb", "verify-stein-binomial", "verify-bounds",
             "verify-lemma24"],
    )
    def test_command(self, argv):
        import markovbin

        src = os.path.dirname(os.path.dirname(os.path.abspath(markovbin.__file__)))
        code = (
            "import sys\n"
            "from markovbin.cli import main\n"
            f"status = main({argv!r})\n"
            "print(status, 'scipy.stats' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines()[-1] == "0 False"


class TestPastMaxExactN:
    """An n past MAX_EXACT_N is a usage error wherever it needs an exact law."""

    POINT = ["--alpha", "0.3", "--beta", "0.6"]
    BIG = str(MAX_EXACT_N + 1)

    @staticmethod
    def _assert_usage_error(argv, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: markovbin {command}")
        assert str(MAX_EXACT_N) in err

    def test_fit_exact(self, capsys):
        self._assert_usage_error(["fit", *self.POINT, "--n", self.BIG, "--exact"], capsys, "fit")
        # without --exact the fit needs no exact law
        assert run(["fit", *self.POINT, "--n", self.BIG]) == 0

    @pytest.mark.parametrize(
        "suite", [["bounds"], ["mc-exact"], ["lemma21"], ["lemma24"], ["lemma24", "--index", "7"]]
    )
    def test_verify(self, suite, capsys):
        self._assert_usage_error(["verify", *suite, *self.POINT, "--n", self.BIG], capsys, "verify")

    def test_verify_stein_nb_needs_no_exact_law(self):
        argv = ["verify", "stein-nb", "--alpha", "0.1", "--beta", "0.8", "--n", self.BIG]
        assert run([*argv, "--subsets", "2"]) == 0

    def test_sweep(self, tmp_path, capsys):
        output = tmp_path / "sweep.csv"
        argv = ["sweep", "--alphas", "0.3", "--betas", "0.6", "--ns", "5", self.BIG]
        self._assert_usage_error([*argv, "--output", str(output)], capsys, "sweep")
        assert not output.exists()


class TestSweepErrors:
    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.csv"
        code = run(["sweep", "--alphas", "0.3", "--betas", "0.6", "--ns", "4",
                    "--output", str(target)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_failed_write_keeps_existing_report(self, tmp_path, monkeypatch, capsys):
        # the rename of the complete report over the old one fails
        def failing_replace(source, target):
            raise OSError("replace failed")

        monkeypatch.setattr("markovbin.cli.os.replace", failing_replace)
        target = tmp_path / "output.json"
        target.write_bytes(b'{"previous": "report"}\n')
        code = run(["sweep", "--alphas", "0.3", "--betas", "0.5", "--ns", "3",
                    "--format", "json", "--output", str(target)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err
        assert target.read_bytes() == b'{"previous": "report"}\n'
        assert os.listdir(tmp_path) == ["output.json"]

    def test_report_mode_matches_plain_open(self, tmp_path):
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("old report\n")
        kept.chmod(0o640)
        for target in (fresh, kept):
            assert run(["sweep", "--alphas", "0.3", "--betas", "0.6", "--ns", "4",
                        "--output", str(target)]) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "kept.csv"]

    def test_fifo_report_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "report.csv"
        os.mkfifo(fifo)
        # a reader already at the FIFO lets the sweep open it without blocking
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(["sweep", "--alphas", "0.3", "--betas", "0.6", "--ns", "4",
                        "--output", str(fifo)]) == 0
            streamed = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert streamed.startswith("alpha,beta,n,status,regime,")
        assert streamed.count("\n") == 2
        assert os.listdir(tmp_path) == ["report.csv"]

    def test_linked_reports_keep_their_links(self, tmp_path):
        report, hard, soft = tmp_path / "report.csv", tmp_path / "hard.csv", tmp_path / "soft.csv"
        report.write_text("old report\n")
        os.link(report, hard)
        soft.symlink_to(report)
        for target in (hard, soft):
            assert run(["sweep", "--alphas", "0.3", "--betas", "0.6", "--ns", "4",
                        "--output", str(target)]) == 0
        assert report.stat().st_nlink == 2 and soft.is_symlink()
        assert report.read_text() == hard.read_text() == soft.read_text() != "old report\n"
        assert sorted(os.listdir(tmp_path)) == ["hard.csv", "report.csv", "soft.csv"]


def _composed_row(params, n):
    """The report row built from the public fit, reference-pmf and bound API."""
    moments = moments_closed_form(params, n)
    regime = classify_regime(params, n)
    row = {
        "alpha": params.alpha, "beta": params.beta, "n": n, "status": "ok",
        "regime": regime.value, "mean": moments.mean, "variance": moments.variance,
        "r": None, "q": None, "poisson_limit": None, "m_tilde": None, "m": None,
        "theta": None, "epsilon": None, "bound": None, "bound_clipped": None,
        "tail_mass": None, "tv_exact": None,
    }
    try:
        if regime is Regime.UNDERDISPERSED:
            fit = fit_binomial(params, n)
            row.update(m_tilde=fit.m_tilde, m=fit.m, theta=fit.theta, epsilon=fit.epsilon)
            reference = binomial_pmf(fit.m, fit.theta)
            report = bound_binomial(params, n, fit)
        else:
            fit = fit_negative_binomial(params, n)
            row["poisson_limit"] = fit.poisson_limit
            if fit.poisson_limit:
                reference = poisson_pmf(fit.lam)
            else:
                row.update(r=fit.r, q=fit.q)
                reference = nb_pmf(fit.r, fit.q)
            report = bound_nb(params, n)
    except DegenerateFitError:
        row["status"] = "degenerate_fit"
        return row
    row.update(
        bound=report.bound_value,
        bound_clipped=report.clipped_value,
        tail_mass=reference.tail,
        tv_exact=tv_distance(exact_pmf(params, n), reference),
    )
    return row


def test_evaluate_point_matches_public_composition():
    # both regimes, equal rates, n == 1 and a degenerate fit at (0.9, 0.1, 10)
    points = [
        (ChainParams(alpha, beta), n)
        for alpha, beta in [(0.1, 0.8), (0.3, 0.6), (0.8, 0.2), (0.4, 0.4), (0.9, 0.1), (0.2, 0.1)]
        for n in (1, 2, 10, 60)
    ]
    rows = [evaluate_point(params, n) for params, n in points]
    for (params, n), row in zip(points, rows):
        # repr keeps key order, int-vs-float and every bit of each float
        assert repr(row) == repr(_composed_row(params, n)), (params, n)
    assert {row["regime"] for row in rows} == {"overdispersed", "underdispersed"}
    assert {row["status"] for row in rows} == {"ok", "degenerate_fit"}


def _unshared_row(params, n, seed, coupling_seed, checks):
    """The sweep row built the unshared way: ``evaluate_point``, then each
    check called on its own with laws computed for that point alone.  The
    coupling check runs on ``coupling_seed``, the seed of the first row of
    the point's (alpha, beta)."""
    from markovbin.cli import (
        _SWEEP_COUPLING, _SWEEP_STEIN_SUBSETS, _check_bounds, _coupling, _lemma21, _lemma24,
        _stein, _sweep_indices, _verdict,
    )
    from markovbin.fit import _reference

    row = evaluate_point(params, n)
    if "bounds" in checks:
        row["check_bounds"] = _verdict(_check_bounds(row))
    if "stein" in checks:
        # the fit and its reference law derived afresh from the point
        fit_for = fit_binomial if row["regime"] == "underdispersed" else fit_negative_binomial
        try:
            fit = fit_for(params, n)
        except DegenerateFitError:
            row["check_stein"] = "skipped"  # a degenerate fit has nothing to solve
        else:
            stein = _stein(fit, _reference(fit), seed, _SWEEP_STEIN_SUBSETS)
            row["check_stein"] = _verdict(stein)
    if "coupling" in checks:
        row["check_coupling"] = _verdict(_coupling(params, coupling_seed, *_SWEEP_COUPLING))
    if "lemma21" in checks:
        row["check_lemma21"] = _verdict(_lemma21(params, n, exact_pmf(params, n, "state0")))
    if "lemma24" in checks:
        reports = _lemma24_reports(params, n, _sweep_indices(n))
        row["check_lemma24"] = _verdict(_lemma24(reports))
    return row


def _assert_sweep_matches_unshared(tmp_path, alphas, betas, ns, checks, seed=9):
    from markovbin.cli import _row_seed

    config = SweepConfig(
        alpha_grid=alphas, beta_grid=betas, n_list=ns, checks=checks,
        seed=seed, output_path=str(tmp_path / "sweep.csv"),
    )
    rows = run_sweep(config)
    points = [(ChainParams(a, b), n) for a in alphas for b in betas for n in ns]
    assert len(rows) == len(points)
    for index, (row, (params, n)) in enumerate(zip(rows, points)):
        first = index - index % len(ns)  # the first row of the point's (alpha, beta)
        wanted = _unshared_row(params, n, _row_seed(seed, index), _row_seed(seed, first), checks)
        # repr keeps key order, int-vs-float and every bit of each float
        assert repr(row) == repr(wanted), (params, n)
    return rows


class TestSweepEngine:
    """``run_sweep`` shares one DP pass per start state and one coupling check
    across the rows of each (alpha, beta); every row must equal the one its
    point gives alone, with the coupling check on the pair's first row seed."""

    ALL = ("bounds", "stein", "coupling", "lemma21", "lemma24")
    GRID = (0.1, 0.8), (0.35, 0.45, 0.55)  # the benchmark's sweep-grid centres

    @pytest.mark.parametrize(
        "ns,checks,calls",
        [
            ((12, 25, 50, 100, 175, 250), ALL, 6),
            ((25, 3, 25, 1), ("coupling",), 6),
            ((12, 25, 50, 100, 175, 250), ("bounds", "stein", "lemma21", "lemma24"), 0),
        ],
        ids=["sweep-grid", "repeated-n", "no-coupling"],
    )
    def test_one_coupling_run_per_pair(self, tmp_path, monkeypatch, ns, checks, calls):
        from markovbin import coupling as coupling_mod
        from markovbin.cli import _SWEEP_COUPLING, _coupling, _row_seed, _verdict

        seeds, sample = [], coupling_mod.sample_meeting_times

        def counting(params, num_samples, seed):
            seeds.append(seed)
            return sample(params, num_samples, seed)

        monkeypatch.setattr(coupling_mod, "sample_meeting_times", counting)
        config = SweepConfig(
            alpha_grid=self.GRID[0], beta_grid=self.GRID[1], n_list=ns, checks=checks,
            seed=3, output_path=str(tmp_path / "sweep.csv"),
        )
        rows = run_sweep(config)
        firsts = range(0, len(rows), len(ns)) if calls else ()
        assert seeds == [_row_seed(3, first) for first in firsts]
        for first in firsts:
            params = ChainParams(rows[first]["alpha"], rows[first]["beta"])
            verdict = _verdict(_coupling(params, _row_seed(3, first), *_SWEEP_COUPLING))
            pair = rows[first:first + len(ns)]
            assert [row["check_coupling"] for row in pair] == [verdict] * len(ns)

    def test_failed_pair_fails_its_rows(self, tmp_path, monkeypatch):
        import markovbin.cli as cli

        check = cli._coupling

        def failing(params, *args):
            ok, lines = check(params, *args)
            return (False if params == ChainParams(0.8, 0.45) else ok), lines

        monkeypatch.setattr(cli, "_coupling", failing)
        config = SweepConfig(
            alpha_grid=self.GRID[0], beta_grid=self.GRID[1], n_list=(12, 25, 50, 100, 175, 250),
            checks=("coupling",), seed=3, output_path=str(tmp_path / "sweep.csv"),
        )
        # pairs in row order: (0.1, 0.35), (0.1, 0.45), (0.1, 0.55), (0.8, 0.35), (0.8, 0.45), ...
        verdicts = [row["check_coupling"] for row in run_sweep(config)]
        assert verdicts == ["pass"] * 24 + ["fail"] * 6 + ["pass"] * 6

    def test_coupling_single_sample_in_small_target(self, tmp_path):
        # at the pair's seed one sample has varsigma >= 4 where the target is
        # 1.85e-6: a 5-sigma normal bound fails it, the exact binomial tail does not
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--alphas", "0.3", "--betas", "0.312274839118196247", "--ns", "5",
                "--checks", "coupling", "--seed", "13", "--output", str(out)]
        assert run(argv) == 0
        with open(out) as handle:
            assert [row["check_coupling"] for row in csv.DictReader(handle)] == ["pass"]

    def test_unsorted_repeated_n_both_regimes(self, tmp_path):
        # both regimes, equal rates at (0.1, 0.1) and (0.4, 0.4), and the
        # degenerate fit at (0.9, 0.1, 10)
        rows = _assert_sweep_matches_unshared(
            tmp_path, (0.1, 0.4, 0.9), (0.1, 0.4, 0.8), (60, 1, 7, 60, 2, 10), self.ALL
        )
        assert [row["n"] for row in rows[:6]] == [60, 1, 7, 60, 2, 10]
        assert {row["regime"] for row in rows} == {"overdispersed", "underdispersed"}
        assert {row["status"] for row in rows} == {"ok", "degenerate_fit"}
        assert {row["check_stein"] for row in rows} == {"pass", "skipped"}

    def test_reference_tabulated_once_per_row(self, tmp_path, monkeypatch):
        # the benchmark's sweep-grid shape: the Stein check solves against
        # the row's own reference law instead of tabulating it again
        from markovbin import fit as fit_mod
        from markovbin import stein as stein_mod

        calls = []

        def counting(name, tabulate):
            def counted(*args, **kwargs):
                calls.append(name)
                return tabulate(*args, **kwargs)

            return counted

        # stein tabulates no negative binomial or Poisson law of its own
        tabulators = {fit_mod: ("nb_pmf", "binomial_pmf", "poisson_pmf"),
                      stein_mod: ("binomial_pmf",)}
        for module, names in tabulators.items():
            for name in names:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        config = SweepConfig(
            alpha_grid=(0.1, 0.8), beta_grid=(0.35, 0.45, 0.55), n_list=(12, 25, 50, 100, 175, 250),
            checks=self.ALL, seed=3, output_path=str(tmp_path / "sweep.csv"),
        )
        rows = run_sweep(config)
        assert len(rows) == 36 and {row["status"] for row in rows} == {"ok"}
        assert sorted(calls) == ["binomial_pmf"] * 18 + ["nb_pmf"] * 18

    @pytest.mark.parametrize(
        "checks",
        [(), ("lemma24",), ("lemma21",), ("bounds", "stein"), ("coupling", "lemma21", "lemma24")],
    )
    def test_subsets_of_checks(self, tmp_path, checks):
        _assert_sweep_matches_unshared(tmp_path, (0.2, 0.7), (0.3, 0.7), (25, 3, 1, 25), checks)

    @staticmethod
    def _assert_shared_laws_are_unshared(params, config):
        """Every law ``_sweep_laws`` shares is the point's own exact law, and
        every row's Lemma 2.4 reports equal the unshared ones; returns the
        shared laws."""
        from markovbin.cli import _sweep_indices, _sweep_laws

        laws = _sweep_laws(params, config)
        for start, by_steps in laws.items():
            for k, law in by_steps.items():
                if k == 0:
                    assert (law.mass.tolist(), law.tail) == ([1.0], 0.0)
                    continue
                wanted = exact_pmf(params, k, start)
                assert law.mass.tobytes() == wanted.mass.tobytes()
                assert (law.tail, law.tol) == (wanted.tail, wanted.tol)
        for n in config.n_list:
            reports = _lemma24_reports(params, n, _sweep_indices(n))
            sides = _lemma24_sides(n, _sweep_indices(n))
            assert _lemma24_from_laws(params, n, laws, sides) == reports
        return laws

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.6), (0.6, 0.25), (0.4, 0.4)])
    def test_shared_laws_are_unshared_laws(self, tmp_path, alpha, beta):
        config = SweepConfig(
            alpha_grid=(alpha,), beta_grid=(beta,), n_list=(60, 1, 7, 60, 2), checks=self.ALL,
            seed=0, output_path=str(tmp_path / "sweep.csv"),
        )
        laws = self._assert_shared_laws_are_unshared(ChainParams(alpha, beta), config)
        assert sorted(laws) == ["state0", "state1", "stationary"]

    def test_laws_with_dropped_mass(self, tmp_path):
        checks = ("bounds", "lemma21", "lemma24")
        config = SweepConfig(
            alpha_grid=(0.5,), beta_grid=(0.5,), n_list=(1100, 3), checks=checks,
            seed=0, output_path=str(tmp_path / "sweep.csv"),
        )
        laws = self._assert_shared_laws_are_unshared(ChainParams(0.5, 0.5), config)
        assert laws["stationary"][1100].tail > 0.0
        assert laws["state0"][1100].tail > 0.0 and laws["state1"][1099].tail > 0.0
        _assert_sweep_matches_unshared(tmp_path, (0.5,), (0.5,), (1100, 3), checks)

    def test_dp_work_per_sweep(self, tmp_path, monkeypatch):
        # the benchmark's sweep-grid shape: 6 points, n up to 250, all checks
        import markovbin.cli as cli

        passes, exact_laws = [], cli._exact_laws

        def counting(params, wanted):
            laws = exact_laws(params, wanted)
            # the states one pass holds: its start state and one per step
            passes.append((sorted(laws), max(max(ks) for ks in wanted.values()) + 1))
            return laws

        monkeypatch.setattr(cli, "_exact_laws", counting)
        config = SweepConfig(
            alpha_grid=(0.1, 0.8), beta_grid=(0.35, 0.45, 0.55),
            n_list=(12, 25, 50, 100, 175, 250), checks=self.ALL,
            seed=4, output_path=str(tmp_path / "sweep.csv"),
        )
        run_sweep(config)
        # per point: one pass of the stationary, state-0 and state-1 starts
        # to n = 250, counting the start state
        assert passes == [(["state0", "state1", "stationary"], 251)] * 6


def _normal_fails(runs, params, samples, sigmas, varsigma_max, tau_max):
    """Whether the normal-approximation rule fails ``runs``: a tail more than
    ``sigmas`` standard errors off its target (two-sided for varsigma,
    one-sided for tau).  The exact rule's power is measured against it."""
    split, amax = abs(params.beta - params.alpha), max(params.alpha, params.beta)
    for m in range(1, varsigma_max + 1):
        target = split ** (m - 1)
        sigma = math.sqrt(target * (1.0 - target) / samples)
        if abs(np.mean(runs.varsigma >= m) - target) > sigmas * sigma + 1e-12:
            return True
    for m in range(1, tau_max + 1):
        cap = amax ** (m - 1)
        if np.mean(runs.tau >= m) > cap + sigmas * math.sqrt(cap * (1.0 - cap) / samples) + 1e-12:
            return True
    return False


class TestCouplingRule:
    """The coupling check tests each tail's count against the exact binomial
    law at its target, at the normal tail rate of its sigmas per side."""

    @staticmethod
    def _side(sigmas):
        return 0.5 * math.erfc(sigmas / math.sqrt(2.0))

    @pytest.mark.parametrize("sigmas", [4.0, 5.0])
    @pytest.mark.parametrize("samples", [1, 5, 20_000, 1_000_000])
    @pytest.mark.parametrize(
        "p", [0.0, 1e-300, 5.6e-8, 1.85e-6, 0.012274839118196247, 0.25, 0.5, 0.75, 1 - 1e-9, 1.0]
    )
    def test_rare_is_scipy_binomial_tail(self, sigmas, samples, p):
        # the reference: scipy's bdtr (P(X <= k)) and bdtrc (P(X > k)), at
        # every count within 12 standard deviations of the mean, and 0 and N
        from scipy.special import bdtr, bdtrc

        from markovbin.cli import _rare

        side, q = self._side(sigmas), 1.0 - p
        spread = 12.0 * math.sqrt(samples * p * q) + 2.0
        low, high = max(0, int(samples * p - spread)), min(samples, int(samples * p + spread))
        counts = np.unique(np.r_[0, np.arange(low, high + 1), samples])
        upper = np.where(counts > 0, bdtrc(counts - 1, samples, p), 1.0) < side
        lower = bdtr(counts, samples, p) < side
        assert [_rare(side, int(c), samples, p, q) for c in counts] == upper.tolist()
        assert [_rare(side, samples - int(c), samples, q, p) for c in counts] == lower.tolist()

    def test_targets_zero_and_one_fail_off_them(self, monkeypatch):
        # equal rates: P(varsigma >= 1) = 1 and P(varsigma >= m) = 0 past it
        import markovbin.cli as cli
        from markovbin.cli import _SWEEP_COUPLING, _coupling
        from markovbin.coupling import MeetingSamples

        at_one = np.ones(_SWEEP_COUPLING[0], dtype=np.int64)
        for varsigma, ok in ((at_one, True), (np.r_[2, at_one[1:]], False),
                             (np.r_[0, at_one[1:]], False)):
            runs = MeetingSamples(varsigma, varsigma, np.zeros(varsigma.size, bool), 0)
            monkeypatch.setattr(cli.coupling_mod, "sample_meeting_times", lambda *args: runs)
            assert _coupling(ChainParams(0.4, 0.4), 0, *_SWEEP_COUPLING)[0] is ok

    @pytest.mark.parametrize("alpha", (0.1, 0.8))
    @pytest.mark.parametrize("beta", (0.35, 0.45, 0.55))
    @pytest.mark.parametrize("budget", ["sweep", "verify"])
    def test_regions_near_normal_rule(self, alpha, beta, budget):
        # at the benchmark's sweep-grid centres each tail's exact acceptance
        # region lies within 5 counts of the normal rule's
        import bisect

        from markovbin.cli import _SWEEP_COUPLING, _VERIFY_COUPLING, _rare

        samples, sigmas, varsigma_max, tau_max = (
            _SWEEP_COUPLING if budget == "sweep" else (1_000_000, *_VERIFY_COUPLING)
        )
        side, counts = self._side(sigmas), range(samples + 1)
        split, amax = abs(beta - alpha), max(alpha, beta)
        tails = [(split ** (m - 1), True) for m in range(2, varsigma_max + 1)]
        tails += [(amax ** (m - 1), False) for m in range(2, tau_max + 1)]
        for target, two_sided in tails:
            half = sigmas * math.sqrt(target * (1.0 - target) / samples) + 1e-12
            normal_high = math.floor((target + half) * samples)
            high = bisect.bisect_left(
                counts, True, key=lambda c: _rare(side, c, samples, target, 1.0 - target)
            ) - 1
            assert abs(high - normal_high) <= 5, (target, high, normal_high)
            if two_sided:
                normal_low = math.ceil((target - half) * samples)
                low = bisect.bisect_left(
                    counts, True,
                    key=lambda c: not _rare(side, samples - c, samples, 1.0 - target, target),
                )
                assert abs(low - normal_low) <= 5, (target, low, normal_low)

    @pytest.mark.parametrize("budget", ["sweep", "verify"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturbed_kernel_fails(self, monkeypatch, budget, seed):
        # the sampler runs the kernel of beta + 0.02, the check targets beta:
        # P(varsigma >= 2) is 0.27 against 0.25, which the normal rule fails
        # at 20 000 samples and at 1e6, and so must the exact rule
        import markovbin.cli as cli
        from markovbin.cli import _SWEEP_COUPLING, _VERIFY_COUPLING, _coupling

        budget = _SWEEP_COUPLING if budget == "sweep" else (1_000_000, *_VERIFY_COUPLING)
        params, sample = ChainParams(0.1, 0.35), cli.coupling_mod.sample_meeting_times
        runs = sample(ChainParams(0.1, 0.37), budget[0], seed)
        assert _normal_fails(runs, params, *budget)
        monkeypatch.setattr(cli.coupling_mod, "sample_meeting_times", lambda *args: runs)
        assert _coupling(params, seed, *budget)[0] is False
