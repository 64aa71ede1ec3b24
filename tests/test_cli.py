import csv
import json
import math
import os
import stat

import pytest

from markovbin import (
    ChainParams,
    DegenerateFitError,
    Regime,
    binomial_pmf,
    bound_binomial,
    bound_nb,
    classify_regime,
    exact_pmf,
    fit_binomial,
    fit_negative_binomial,
    moments_closed_form,
    nb_pmf,
    poisson_pmf,
    tv_distance,
)
from markovbin.cli import SweepConfig, evaluate_point, main, run_sweep
from markovbin.stein import verify_lemma24


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
        ],
        ids=["missing-n", "index-above-n"],
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

    def test_mc_exact_small_run(self):
        assert run(
            ["verify", "mc-exact", "--alpha", "0.3", "--beta", "0.6", "--n", "50",
             "--samples", "100000", "--seed", "2", "--tol", "0.02"]
        ) == 0

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


class TestSweepErrors:
    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.csv"
        code = run(["sweep", "--alphas", "0.3", "--betas", "0.6", "--ns", "4",
                    "--output", str(target)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_failed_write_keeps_existing_report(self, tmp_path):
        # alpha = 1e-158 overflows the bound constants to inf, which the JSON
        # writer rejects part way through the report
        target = tmp_path / "output.json"
        target.write_bytes(b'{"previous": "report"}\n')
        with pytest.raises(ValueError):
            run(["sweep", "--alphas", "0.3", "1e-158", "--betas", "0.5", "--ns", "3",
                 "--format", "json", "--output", str(target)])
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
