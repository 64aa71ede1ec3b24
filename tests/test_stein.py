import math
from dataclasses import astuple, fields

import numpy as np
import pytest

from markovbin import (
    BinomialSteinReport,
    ChainParams,
    NbSteinSetup,
    check_binomial_lemma31,
    check_nb_delta_bound,
    fit_binomial,
    fit_negative_binomial,
    moments_closed_form,
    nb_pmf,
    poisson_pmf,
    solve_binomial_stein,
    solve_nb_stein,
    stationary_law,
    verify_lemma24,
)
from markovbin.cli import _random_subsets
from markovbin.fit import binomial_pmf
from markovbin.core import Pmf, _exact_laws, _exact_tol, exact_pmf
from markovbin.stein import (
    _binomial_stein, _lemma24_from_laws, _lemma24_reports, _lemma24_sides, _lemma24_steps,
    _solve_nb,
)
from oracles import scalar_binomial_stein, scalar_lemma24, scalar_lemma31, scalar_nb_stein


def random_subset(rng, upper):
    return np.flatnonzero(rng.random(upper + 1) < 0.5)


def nb_setup(r, q):
    """The Stein setup of NB(r, q): a = r*(1-q), b = 1-q."""
    return NbSteinSetup(a=r * (1.0 - q), b=1.0 - q, target=nb_pmf(r, q))


class TestNbSteinSetup:
    def test_matched_parameter_identity(self):
        # the matched coefficients satisfy a = n*(1-b)*p and
        # 1 - b = mean/variance at the same time
        for alpha, beta, n in [(0.1, 0.8, 100), (0.2, 0.6, 500), (0.1, 0.5, 50)]:
            params = ChainParams(alpha, beta)
            setup = NbSteinSetup.from_chain(params, n)
            moments = moments_closed_form(params, n)
            p = stationary_law(params).p
            assert setup.a == pytest.approx(n * (1.0 - setup.b) * p, rel=1e-12)
            assert 1.0 - setup.b == pytest.approx(moments.mean / moments.variance, rel=1e-12)

    def test_equidispersed_fit_takes_poisson_limit(self):
        fit = fit_negative_binomial(ChainParams(1e-13, 1e-13), 10)
        setup = NbSteinSetup.from_chain(ChainParams(1e-13, 1e-13), 10)
        assert fit.poisson_limit and (setup.a, setup.b) == (fit.lam, 0.0)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            NbSteinSetup(a=0.0, b=0.5, target=poisson_pmf(1.0))
        with pytest.raises(ValueError):
            NbSteinSetup(a=1.0, b=1.0, target=poisson_pmf(1.0))


class TestSolveNbStein:
    def test_empty_set_gives_zero(self):
        setup = nb_setup(3.0, 0.4)
        solution = solve_nb_stein(setup, [])
        assert np.all(solution.g == 0.0)
        assert solution.residual_sup == 0.0

    def test_full_set_gives_zero_up_to_tail(self):
        # the forcing is the constant truncation tail, so the solution
        # vanishes at tail scale: g(j)*j*pi(j) telescopes to tail*P(< j),
        # and g is zero to rounding wherever the target carries mass
        setup = nb_setup(3.0, 0.4)
        pi = setup.target.mass
        top = pi.size - 1
        solution = solve_nb_stein(setup, np.arange(top + 1))
        weighted = np.abs(solution.g[1 : top + 1]) * np.arange(1, top + 1) * pi[1:]
        assert np.max(weighted) <= setup.target.tail * (1.0 + 1e-9) + 1e-15
        bulk = np.flatnonzero(np.cumsum(pi) <= 0.99)
        assert np.max(np.abs(solution.g[bulk])) <= 1e-10

    def test_hand_run_geometric_case(self):
        setup = nb_setup(1.0, 0.5)
        solution = solve_nb_stein(setup, [0])
        assert solution.g[1] == pytest.approx(1.0, rel=1e-13)
        assert solution.g[2] == pytest.approx(0.5, rel=1e-13)
        assert solution.g[3] == pytest.approx(1 / 3, rel=1e-13)
        assert solution.residual_sup <= 1e-12

    def test_poisson_reduction(self):
        # b = 0 turns the recurrence into the Poisson operator
        # a*g(j+1) - j*g(j); at j = 0 that pins g(1) = f(0)/a
        setup = NbSteinSetup(a=1.0, b=0.0, target=poisson_pmf(1.0))
        solution = solve_nb_stein(setup, [0])
        assert solution.g[1] == pytest.approx((1.0 - math.exp(-1.0)) / 1.0, rel=1e-12)
        assert solution.residual_sup <= 1e-12

    def test_subset_outside_support_rejected(self):
        setup = nb_setup(1.0, 0.5)
        top = setup.target.mass.size - 1
        with pytest.raises(ValueError):
            solve_nb_stein(setup, [top + 1])

    def test_residuals_small_for_random_subsets(self):
        rng = np.random.default_rng(11)
        setup = NbSteinSetup.from_chain(ChainParams(0.1, 0.8), 100)
        top = setup.target.mass.size - 1
        for _ in range(25):
            solution = solve_nb_stein(setup, random_subset(rng, top))
            assert solution.residual_sup <= 1e-9


class TestCheckNbDeltaBound:
    def test_zero_solution(self):
        setup = nb_setup(3.0, 0.4)
        report = check_nb_delta_bound(solve_nb_stein(setup, []), setup.a)
        assert report.ok and report.delta_sup == 0.0

    def test_hand_case_margin(self):
        setup = nb_setup(1.0, 0.5)
        report = check_nb_delta_bound(solve_nb_stein(setup, [0]), setup.a)
        assert report.ok
        assert report.delta_sup == pytest.approx(0.5, rel=1e-12)
        assert report.bound == pytest.approx(2.0)

    def test_random_subsets_pass(self):
        rng = np.random.default_rng(23)
        setup = NbSteinSetup.from_chain(ChainParams(0.3, 0.6), 200)
        top = setup.target.mass.size - 1
        for _ in range(50):
            report = check_nb_delta_bound(solve_nb_stein(setup, random_subset(rng, top)), setup.a)
            assert report.ok and report.margin > 0.0


class TestSolveBinomialStein:
    def test_empty_set(self):
        solution = solve_binomial_stein(2, 0.5, [])
        assert np.all(solution.g[:3] == 0.0)
        assert solution.g[3] == pytest.approx(-2.0, rel=1e-14)

    def test_singleton_zero(self):
        solution = solve_binomial_stein(1, 0.5, [0])
        assert solution.g[1] == pytest.approx(1.0, rel=1e-14)
        assert solution.g[2] == pytest.approx(-3.0, rel=1e-14)

    def test_full_support(self):
        solution = solve_binomial_stein(1, 0.5, [0, 1])
        assert solution.g[1] == pytest.approx(0.0, abs=1e-15)
        assert solution.g[2] == pytest.approx(-4.0, rel=1e-14)

    def test_residual_small_large_m(self):
        rng = np.random.default_rng(3)
        fit = fit_binomial(ChainParams(0.2, 0.1), 500)
        for _ in range(10):
            subset = random_subset(rng, fit.m + 16)
            solution = solve_binomial_stein(fit.m, fit.theta, subset)
            assert solution.residual_sup <= 1e-9


class TestCheckBinomialLemma31:
    def test_boundary_difference_exact(self):
        solution = solve_binomial_stein(1, 0.5, [0])
        report = check_binomial_lemma31(solution, 1, 0.5, [0])
        assert report.ok
        assert abs(solution.g[2] - solution.g[1]) == pytest.approx(4.0, rel=1e-13)
        assert report.delta_bound == pytest.approx(4.0)
        assert report.delta_at_m_error <= 1e-12

    def test_empty_set_linear_growth(self):
        # with no test set the extension makes Bg(j) = (j - theta*m)/(m*theta*(1-theta))
        m, theta = 4, 0.3
        solution = solve_binomial_stein(m, theta, [])
        scale = 1.0 / (m * theta * (1.0 - theta))
        for j in range(m + 1, m + 10):
            action = theta * (m - j) * solution.g[j + 1] - (1.0 - theta) * j * solution.g[j]
            assert action == pytest.approx((j - theta * m) * scale, rel=1e-12)
            assert action >= 1.0
        report = check_binomial_lemma31(solution, m, theta, [])
        assert report.ok

    def test_certain_set_trivial(self):
        # a set with full mass makes the right side non-positive off the set
        m, theta = 3, 0.5
        subset = [0, 1, 2, 3]
        solution = solve_binomial_stein(m, theta, subset)
        report = check_binomial_lemma31(solution, m, theta, subset)
        assert report.ok

    def test_random_subsets_with_points_past_m(self):
        rng = np.random.default_rng(17)
        fit = fit_binomial(ChainParams(0.3, 0.6), 2)
        for _ in range(50):
            subset = random_subset(rng, fit.m + 16)
            solution = solve_binomial_stein(fit.m, fit.theta, subset)
            report = check_binomial_lemma31(solution, fit.m, fit.theta, subset)
            assert report.ok
            assert report.tail_delta_max == 0.0


class TestBatchedSolves:
    """A row's subsets are drawn as one mask and solved together in one
    (j, subset) array; every column must be bit for bit the scalar
    recurrences' solution, and the public one-subset functions the same as
    a column of a batch."""

    @staticmethod
    def _mask(seed, upper, count=8):
        """The sweep's draw of ``count`` subsets of 0..upper, then an
        all-False and an all-True row."""
        mask = _random_subsets(np.random.default_rng(seed), upper, count)
        return np.vstack([mask, np.zeros((1, upper + 1), bool), np.ones((1, upper + 1), bool)])

    NB_SETUPS = {
        "nb-0.1-0.45-100": lambda: NbSteinSetup.from_chain(ChainParams(0.1, 0.45), 100),
        "nb-0.1-0.35-12": lambda: NbSteinSetup.from_chain(ChainParams(0.1, 0.35), 12),
        "nb-0.3-0.6-250": lambda: NbSteinSetup.from_chain(ChainParams(0.3, 0.6), 250),
        "poisson-3.7": lambda: NbSteinSetup(a=3.7, b=0.0, target=poisson_pmf(3.7)),
        # an equidispersed fit: the Poisson-limit branch of _nb_setup
        "poisson-limit-1e-13-10": lambda: NbSteinSetup.from_chain(ChainParams(1e-13, 1e-13), 10),
    }

    @pytest.mark.parametrize("upper,count", [(0, 1), (12, 20), (250, 3)])
    def test_mask_rows_are_successive_draws(self, upper, count):
        # row c of the mask is the subset that the c-th one-row draw gives
        mask = _random_subsets(np.random.default_rng(upper), upper, count)
        assert mask.shape == (count, upper + 1) and mask.dtype == bool
        rng = np.random.default_rng(upper)
        for row in mask:
            assert np.array_equal(np.flatnonzero(row), random_subset(rng, upper))

    @pytest.mark.parametrize("name", list(NB_SETUPS))
    def test_nb_columns_equal_scalar_solves(self, name):
        setup = self.NB_SETUPS[name]()
        pi = setup.target.mass
        mask = self._mask(len(name), pi.size - 1)
        g, residual_sup, delta_sup = _solve_nb(setup, mask)
        assert g.shape == (pi.size + 1, mask.shape[0])
        for column, row in enumerate(mask):
            members = np.flatnonzero(row)
            wanted, wanted_residual, wanted_delta = scalar_nb_stein(
                setup.a, setup.b, pi, setup.target.tail, setup.mean, members
            )
            assert np.array_equal(g[:, column], wanted)
            assert (residual_sup[column], delta_sup[column]) == (wanted_residual, wanted_delta)
            single = solve_nb_stein(setup, members)
            assert np.array_equal(single.g, wanted)
            assert (single.residual_sup, single.delta_sup) == (wanted_residual, wanted_delta)

    @pytest.mark.parametrize(
        "alpha,beta,n", [(0.8, 0.35, 100), (0.8, 0.55, 12), (0.3, 0.6, 2), (0.2, 0.1, 500)]
    )
    def test_binomial_columns_equal_scalar_solves(self, alpha, beta, n):
        fit = fit_binomial(ChainParams(alpha, beta), n)
        m, theta = fit.m, fit.theta
        pi = binomial_pmf(m, theta).mass
        # the sweep's width m + 16 and the full tabulated one, m + 64: both
        # put points past m
        for past in (16, 64):
            mask = self._mask(n + past, m + past)
            g, residual_sup, report = _binomial_stein(m, theta, pi, mask)
            assert list(report) == [field.name for field in fields(BinomialSteinReport)]
            for column, row in enumerate(mask):
                members = np.flatnonzero(row)
                wanted, wanted_residual, wanted_delta = scalar_binomial_stein(
                    m, theta, pi, members, 64
                )
                assert np.array_equal(g[:, column], wanted)
                assert residual_sup[column] == wanted_residual
                assert report["delta_sup"][column] == wanted_delta
                assert tuple(
                    report[name][column] for name in
                    ("inequality_min_slack", "delta_at_m_error", "tail_delta_max", "tail_slope")
                ) == scalar_lemma31(wanted, m, theta, pi, members)
                single = solve_binomial_stein(m, theta, members)
                assert np.array_equal(single.g, wanted)
                assert (single.residual_sup, single.delta_sup) == (wanted_residual, wanted_delta)
                checked = astuple(check_binomial_lemma31(single, m, theta, members))
                assert checked == tuple(values[column] for values in report.values())

    def test_subset_forms_normalize_alike(self):
        setup = nb_setup(3.0, 0.4)
        top = setup.target.mass.size - 1
        wanted = solve_nb_stein(setup, [5, 1, 3])
        for subset in (np.array([3, 1, 5, 1]), np.array([5, 3, 1], dtype=np.int8), (1, 3, 5),
                       {1, 3, 5}, (k for k in (3, 5, 1)), np.array([1, 3, 5], dtype=np.uint16)):
            assert np.array_equal(solve_nb_stein(setup, subset).g, wanted.g)
        for subset in (np.array([top + 1]), np.array([-1, 2]), [top + 1], [-1]):
            with pytest.raises(ValueError, match=rf"^subset must lie within 0\.\.{top}$"):
                solve_nb_stein(setup, subset)
        with pytest.raises(ValueError, match=r"^subset must lie within 0\.\.66$"):
            solve_binomial_stein(2, 0.5, np.array([67]))

    def test_empty_forms_are_the_empty_set(self):
        setup = nb_setup(3.0, 0.4)
        wanted = solve_nb_stein(setup, [])
        for subset in (np.array([]), set(), (), np.array([], dtype=np.uint8)):
            assert np.array_equal(solve_nb_stein(setup, subset).g, wanted.g)

    @pytest.mark.parametrize(
        "subset",
        [
            np.array([True, True, False, False]),  # a mask, not the points {0, 1}
            [True, False],
            [1.5],
            np.array([2.7]),
            np.array([1.0, 3.0]),
            ["3"],
            [1, "2"],
        ],
        ids=["bool-mask", "bool-list", "float", "float-array", "integral-floats", "string",
             "mixed"],
    )
    def test_subsets_that_are_not_integer_points_are_refused(self, subset):
        setup = nb_setup(3.0, 0.4)
        message = r"^subset must hold integer points, got dtype "
        with pytest.raises(ValueError, match=message):
            solve_nb_stein(setup, subset)
        with pytest.raises(ValueError, match=message):
            solve_binomial_stein(10, 0.3, subset)
        solution = solve_binomial_stein(10, 0.3, [])
        with pytest.raises(ValueError, match=message):
            check_binomial_lemma31(solution, 10, 0.3, subset)


class TestVerifyLemma24:
    def test_equal_rates_both_sides_vanish(self):
        report = verify_lemma24(ChainParams(0.4, 0.4), 30, 15)
        assert report.ok
        assert report.probe_max <= 1e-12
        assert report.rhs_delta == 0.0

    def test_interior_index(self):
        report = verify_lemma24(ChainParams(0.3, 0.6), 40, 20)
        assert report.ok
        assert report.rhs_sup - report.tv2 > 0.0
        assert report.rhs_delta - report.probe_max > 0.0

    def test_boundary_index(self):
        report = verify_lemma24(ChainParams(0.1, 0.8), 60, 1)
        assert report.ok

    def test_index_validation(self):
        with pytest.raises(ValueError):
            verify_lemma24(ChainParams(0.3, 0.6), 10, 11)


class TestLemma24Reports:
    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.6), (0.6, 0.25), (0.4, 0.4)])
    def test_every_report_equals_single_index(self, alpha, beta, n):
        params = ChainParams(alpha, beta)
        singles = {i: verify_lemma24(params, n, i) for i in range(1, n + 1)}
        for indices in (range(1, n + 1), sorted({1, (n + 1) // 2, n}), [n // 2 + 1]):
            reports = _lemma24_reports(params, n, indices)
            assert list(reports) == sorted(set(indices))
            for i, report in reports.items():
                assert report == singles[i], (i, indices)
        # the stationary chain is reversible, so i and n + 1 - i have one law
        reports = _lemma24_reports(params, n, range(1, n + 1))
        for i in range(1, n + 1):
            assert reports[i] == reports[n + 1 - i], i

    @pytest.mark.parametrize("n,calls", [(40, 40), (41, 42)])
    def test_one_convolution_per_side_and_state(self, n, calls, monkeypatch):
        """Indices i and n + 1 - i share a side, so all n indices take one
        conditional law per side, ceil(n / 2) of them, out of each state."""
        made, convolve = [], np.convolve
        monkeypatch.setattr(np, "convolve", lambda *a: made.append(a) or convolve(*a))
        reports = _lemma24_reports(ChainParams(0.3, 0.6), n, range(1, n + 1))
        monkeypatch.undo()
        assert len(made) == calls
        assert list(reports) == list(range(1, n + 1))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            _lemma24_reports(ChainParams(0.3, 0.6), 10, [3, 11])
        with pytest.raises(ValueError, match=r"^index i=-2 out of range 1\.\.10$"):
            _lemma24_reports(ChainParams(0.3, 0.6), 10, [12, 3, 0, 11, -2])

    def test_memory_budget_splits_passes(self, monkeypatch):
        import markovbin.stein as stein

        params = ChainParams(0.3, 0.6)
        # Side s reads the laws after s and n - 1 - s steps: two rows of the
        # round's stack per state (one for the middle side of an odd n),
        # each padded to at most n doubles.  A budget of 600 doubles per
        # stack takes 600 // (2n) sides per round: 5 at n = 60, whose 30
        # sides take 6 rounds (the first fills 10 rows of 60 doubles), and
        # 4 at n = 61, whose 31 sides take 8.
        for n, rounds in ((60, 6), (61, 8)):
            whole = _lemma24_reports(params, n, range(1, n + 1))
            passes, exact_laws = [], stein._exact_laws

            def counting(*args):
                laws = exact_laws(*args)
                # the doubles of each start's stack, whose rows the laws view
                passes.append({
                    start: next(iter(by_steps.values())).mass.base.size
                    for start, by_steps in laws.items()
                })
                return laws

            monkeypatch.setattr(stein, "_KEPT_DOUBLES", 600)
            monkeypatch.setattr(stein, "_exact_laws", counting)
            reports = _lemma24_reports(params, n, range(1, n + 1))
            monkeypatch.undo()
            assert len(passes) == rounds  # one pass per round
            # the law of S comes from the first round's pass alone
            assert [sorted(stacks) for stacks in passes] == (
                [["state0", "state1", "stationary"]] + [["state0", "state1"]] * (rounds - 1)
            )
            assert passes[0]["stationary"] == n + 1
            assert passes[0]["state1"] == (600 if n == 60 else 8 * 61)
            kept = [stacks[start] for stacks in passes for start in ("state1", "state0")]
            assert max(kept) <= 600
            assert list(reports) == list(whole) == list(range(1, n + 1))
            assert all(reports[i] == whole[i] for i in whole)

    def test_sides_are_found_once(self, monkeypatch):
        import markovbin.stein as stein

        calls, sides = [], stein._lemma24_sides
        monkeypatch.setattr(stein, "_lemma24_sides", lambda *a: calls.append(a) or sides(*a))
        monkeypatch.setattr(stein, "_KEPT_DOUBLES", 600)  # six rounds at n = 60
        reports = _lemma24_reports(ChainParams(0.3, 0.6), 60, range(1, 61))
        assert len(calls) == 1 and list(reports) == list(range(1, 61))


def _lemma24_laws(params, n, indices):
    """The exact laws ``_lemma24_from_laws`` reads for these indices, each
    start from a pass of its own."""
    steps = _lemma24_steps(n, _lemma24_sides(n, indices))
    laws = {start: _exact_laws(params, {start: steps})[start] for start in ("state1", "state0")}
    return {"stationary": {n: exact_pmf(params, n)}, **laws}


class TestLemma24Stacks:
    """The blocked comparison against the per-index loop of ``scalar_lemma24``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 161, 1000])
    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.6), (0.6, 0.25), (0.4, 0.4), (1e-3, 0.999)])
    def test_every_field_matches_scalar_oracle(self, alpha, beta, n, monkeypatch):
        import markovbin.stein as stein

        params, indices = ChainParams(alpha, beta), range(1, n + 1)
        laws = _lemma24_laws(params, n, indices)
        wanted = scalar_lemma24(alpha, beta, n, laws, indices)
        reports = _lemma24_reports(params, n, indices)
        assert list(reports) == list(wanted)
        for i, report in reports.items():
            assert astuple(report) == wanted[i], i
            assert type(report.tv2) is float and type(report.probe_max) is float
            assert type(report.ok) is bool
        # blocks of one and of three rows give the same reports
        for rows in (1, 3):
            monkeypatch.setattr(stein, "_STACK_DOUBLES", rows * (n + 1))
            blocked = _lemma24_from_laws(params, n, laws, _lemma24_sides(n, indices))
            assert {i: astuple(r) for i, r in blocked.items()} == wanted, rows

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            ("nan", "mass entries must be finite"),
            ("negative", "mass entries must be finite and non-negative"),
            ("sum", "mass + tail sums to"),
            ("tail", "tail mass out of range"),
        ],
    )
    def test_corrupted_segment_raises_pmf_message(self, corrupt, message):
        params, n, index = ChainParams(0.3, 0.6), 12, 5
        laws = _lemma24_laws(params, n, range(1, n + 1))
        segment = laws["state0"][n - index]
        if corrupt == "nan":
            segment.mass[1] = np.nan
        elif corrupt == "negative":
            segment.mass[1] = -segment.mass[1]
        elif corrupt == "sum":
            segment.mass[1] *= 1.5
        else:
            object.__setattr__(segment, "tail", 1.5)
        left = laws["state0"][index - 1]
        with pytest.raises(ValueError) as expected:
            Pmf(np.convolve(left.mass, segment.mass), tail=left.tail + segment.tail,
                tol=_exact_tol(n))
        with pytest.raises(ValueError) as raised:
            _lemma24_from_laws(params, n, laws, _lemma24_sides(n, range(1, n + 1)))
        assert str(raised.value) == str(expected.value)
        assert str(raised.value).startswith(message)
