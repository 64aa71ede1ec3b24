"""Command-line surface: single-point fits, grid sweeps and verification
suites with CSV/JSON reporting.

Exit codes: 0 all checks passed, 1 an assertion failed, 2 usage error.
Output files are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, asdict
from typing import Any, Callable, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import coupling as coupling_mod
from . import stein as stein_mod
from .core import (
    MAX_EXACT_N, ChainParams, Pmf, _exact_laws, exact_pmf, moments_closed_form, shift_tv,
    tv_distance,
)
from .fit import (
    BinFit, DegenerateFitError, NbFit, RegimeError, _fit, _reference, _regime, fit_binomial,
    fit_negative_binomial,
)

__all__ = ["SweepConfig", "cmd_fit", "cmd_sweep", "cmd_verify", "run_sweep", "main"]

_CHECK_NAMES = ("bounds", "stein", "coupling", "lemma21", "lemma24")
# Fit columns of a report record; each regime fills some of them.
_FIT_FIELDS = ("r", "q", "poisson_limit", "m_tilde", "m", "theta", "epsilon")


@dataclass(frozen=True)
class SweepConfig:
    """Grid sweep configuration; rows are ordered alpha, then beta, then n."""

    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    n_list: tuple[int, ...]
    checks: tuple[str, ...]
    seed: int
    output_path: str
    format: str = "csv"

    def __post_init__(self) -> None:
        if not self.alpha_grid or not self.beta_grid or not self.n_list:
            raise ValueError("grids and n_list must be non-empty")
        for value in (*self.alpha_grid, *self.beta_grid):
            if not 0.0 < value < 1.0:
                raise ValueError(f"grid value {value!r} outside (0, 1)")
        if any(n < 1 for n in self.n_list):
            raise ValueError("n_list values must be >= 1")
        unknown = set(self.checks) - set(_CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")


class _LawTooLong(ValueError):
    """A reference law too long to tabulate: a usage error of its ``--n``."""


def _reference_law(fit: NbFit | BinFit, n: int) -> Pmf:
    """``fit._reference``, with its refusal to tabulate as ``_LawTooLong``."""
    try:
        return _reference(fit)
    except ValueError as exc:
        raise _LawTooLong(f"--n {n} is too large: {exc}") from exc


def evaluate_point(params: ChainParams, n: int, *, exact: bool = True) -> dict[str, Any]:
    """One report record: moments, regime, fit, bound and optional exact TV."""
    return _point_row(params, n, (lambda: exact_pmf(params, n)) if exact else None)[0]


def _point_row(
    params: ChainParams, n: int, exact_law: Callable[[], Pmf] | None
) -> tuple[dict[str, Any], NbFit | BinFit | None, Pmf | None]:
    """``evaluate_point`` with the exact law of S supplied by ``exact_law``,
    which is called only where there is a fit to compare it with; returns
    the record with the fit and its reference law (both None where the fit
    degenerates)."""
    moments = moments_closed_form(params, n)
    regime = _regime(params, moments)
    row: dict[str, Any] = {
        "alpha": params.alpha,
        "beta": params.beta,
        "n": n,
        "status": "ok",
        "regime": regime.value,
        "mean": moments.mean,
        "variance": moments.variance,
        **dict.fromkeys((*_FIT_FIELDS, "bound", "bound_clipped", "tail_mass", "tv_exact")),
    }
    try:
        fit = _fit(params, n, moments, regime)
    except DegenerateFitError:
        row["status"] = "degenerate_fit"
        return row, None, None
    # a Poisson limit reports only its flag: r = inf and q = 1 carry no fit
    fields = {"poisson_limit": True} if getattr(fit, "poisson_limit", False) else vars(fit)
    row.update({key: value for key, value in fields.items() if key in _FIT_FIELDS})
    report = bounds_mod._bound(params, n, regime, fit)
    reference = _reference_law(fit, n)
    # a bound that overflows to inf is reported missing; its clipped value 1 still holds
    row["bound"] = report.bound_value if math.isfinite(report.bound_value) else None
    row["bound_clipped"] = report.clipped_value
    row["tail_mass"] = reference.tail
    if exact_law is not None:
        row["tv_exact"] = tv_distance(exact_law(), reference)
    return row, fit, reference


def _row_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed & ((1 << 63) - 1), index]).generate_state(1)[0])


def _random_subsets(rng: np.random.Generator, upper: int, count: int) -> np.ndarray:
    """``count`` random subsets of 0..upper as one boolean mask, row c
    marking the points of subset c, each point in with probability 1/2.
    One draw of ``count`` rows reads the stream as ``count`` successive
    draws of one row would."""
    return rng.random((count, upper + 1)) < 0.5


# Each check returns (ok, report lines); ok is None when the check does not
# apply to the point (no fit or no exact TV), which counts as a pass.
_Check = tuple[bool | None, list[str]]


def _check_bounds(row: dict[str, Any]) -> _Check:
    """Exact TV within the clipped bound plus the reference's tail mass."""
    lines = _record_lines(row)
    if row["status"] != "ok" or row["tv_exact"] is None:
        return None, lines
    # 1e-12 absorbs the evaluation noise of the exact TV itself (it matters
    # only where the bound is exactly 0 and the TV is pure rounding).
    return row["tv_exact"] <= row["bound_clipped"] + row["tail_mass"] + 1e-12, lines


def _stein(fit: NbFit | BinFit, target: Pmf, seed: int, subsets: int) -> _Check:
    """Stein solutions of the fit's reference law ``target`` for random
    subsets: each residual within ``stein._STEIN_TOL``, and Lemma 3.1 for a
    binomial fit or sup|dg'| <= 1/a for a negative binomial one.  All the
    subsets are solved in one batch, and the verdict is read off its
    per-subset arrays."""
    rng = np.random.default_rng(seed)
    margin = None
    if isinstance(fit, BinFit):
        mask = _random_subsets(rng, fit.m + 16, subsets)
        _, residual, report = stein_mod._binomial_stein(fit.m, fit.theta, target.mass, mask)
        ok = report["ok"]
    else:
        setup = stein_mod._nb_setup(fit, target)
        mask = _random_subsets(rng, target.mass.size - 1, subsets)
        _, residual, delta = stein_mod._solve_nb(setup, mask)
        ok, _, margin = stein_mod._nb_delta_bound(delta, setup.a)
    # folded from 0 and inf, as a running max and min would, so NaN is passed over
    worst = np.fmax.reduce(residual, initial=0.0)
    lines = [f"subsets: {subsets}, max residual: {worst:.3g}"]
    if margin is not None:
        least = np.fmin.reduce(margin, initial=math.inf)
        lines.append(f"min slack of sup|dg'| <= 1/a: {least:.6g}")
    return bool(np.all(ok & (residual <= stein_mod._STEIN_TOL))), lines


def _rare(rate: float, count: int, samples: int, p: float, q: float) -> bool:
    """Whether P(X >= count) < rate for X ~ Binomial(samples, p), q = 1 - p,
    rate < 1/2.  A tail from samples * p or below holds the median, so it
    is at least 1/2; past it the terms fall from the first, and are summed
    until the total reaches ``rate`` or a geometric bound on the rest leaves
    it short."""
    if count <= samples * p:
        return False
    if p == 0.0:
        return True
    term = math.exp(
        math.lgamma(samples + 1) - math.lgamma(count + 1) - math.lgamma(samples - count + 1)
        + count * math.log(p) + (samples - count) * math.log(q)
    )
    total, j = 0.0, count
    while total < rate:
        total += term
        ratio = (samples - j) / (j + 1) * (p / q)  # < 1 past the mean, 0 at j = samples
        if total + term * ratio / (1.0 - ratio) < rate:
            return True
        term, j = term * ratio, j + 1
    return False


def _coupling(
    params: ChainParams, seed: int, samples: int, sigmas: float, varsigma_max: int, tau_max: int
) -> _Check:
    """Coupled runs: P(varsigma >= m) = |beta - alpha|^(m-1) for m <= varsigma_max
    and P(tau >= m) <= max(alpha, beta)^(m-1) for m <= tau_max, and no move
    off the diagonal.  Each tail's count is tested against the exact binomial
    law at its target, at the normal tail rate of ``sigmas``: two-sided for
    varsigma, one-sided for tau.  A target of 0 or 1 fails on any count off
    it."""
    runs = coupling_mod.sample_meeting_times(params, samples, seed)
    side = 0.5 * math.erfc(sigmas / math.sqrt(2.0))  # the false-alarm rate of one side
    split = abs(params.beta - params.alpha)
    amax = max(params.alpha, params.beta)
    ok = runs.absorption_violations == 0
    lines = []
    for m in range(1, varsigma_max + 1):
        target = split ** (m - 1)
        count = int(np.count_nonzero(runs.varsigma >= m))
        low = _rare(side, samples - count, samples, 1.0 - target, target)  # P(X <= count)
        ok = ok and not (low or _rare(side, count, samples, target, 1.0 - target))
        lines.append(f"P(varsigma >= {m}): empirical {count / samples:.6f} target {target:.6f}")
    for m in range(1, tau_max + 1):
        cap = amax ** (m - 1)
        ok = ok and not _rare(side, int(np.count_nonzero(runs.tau >= m)), samples, cap, 1.0 - cap)
    lines.append(f"absorption violations: {runs.absorption_violations}")
    return ok, lines


def _lemma21(params: ChainParams, n: int, law: Pmf) -> _Check:
    """Shift TV of ``law``, the n-step sum out of state 0, within gamma(n)."""
    value = shift_tv(law)
    limit = bounds_mod.gamma_fn(bounds_mod.bound_constants(params), n)
    return value <= limit, [
        f"shift TV = {value:.6g}, gamma(n) = {limit:.6g}, slack = {limit - value:.6g}"
    ]


def _lemma22(step: float, n_max: int) -> _Check:
    """Var S >= E S only where beta > alpha, on a (alpha, beta) grid, 2 <= n <= n_max."""
    values = np.arange(step, 1.0, step)
    cells = violations = 0
    for alpha in values:
        for beta in values:
            params = ChainParams(float(alpha), float(beta))
            for n in range(2, n_max + 1):
                moment = moments_closed_form(params, n)
                cells += 1
                if moment.variance >= moment.mean and not beta > alpha:
                    violations += 1
    return violations == 0, [f"scanned {cells} cells, {violations} violations"]


def _lemma24(reports: dict[int, stein_mod.Lemma24Report]) -> _Check:
    """Lemma 2.4 at each reported index, with the worst sup-side and
    probe-side margins."""
    ok, worst_sup, worst_delta = True, math.inf, math.inf
    for report in reports.values():
        ok = ok and report.ok
        worst_sup = min(worst_sup, report.rhs_sup - report.tv2)
        worst_delta = min(worst_delta, report.rhs_delta - report.probe_max)
    return ok, [
        f"worst sup-side margin: {worst_sup:.6g}",
        f"worst probe-side margin: {worst_delta:.6g}",
    ]


def _mc_exact(params: ChainParams, n: int, samples: int, seed: int, tol: float) -> _Check:
    """TV between the Monte Carlo and the exact law of the stationary sum."""
    sums = coupling_mod.sample_sums(params, n, samples, seed)
    value = tv_distance(coupling_mod.empirical_pmf(sums, support_max=n), exact_pmf(params, n))
    return value <= tol, [f"TV(empirical, exact) = {value:.6g} with {samples} samples (tol {tol})"]


# Sweep budgets.  The coupling check runs once per (alpha, beta) at 5 sigma
# on the varsigma tails for m <= 4, with no tau test: a false-alarm rate of
# erfc(5 / sqrt 2) = 5.7e-7 per tail, at most 4 * 5.7e-7 per pair.
_SWEEP_STEIN_SUBSETS = 20
_SWEEP_COUPLING = (20_000, 5.0, 4, 0)  # samples, sigmas, largest m of varsigma and tau tails


def _verdict(check: _Check) -> str:
    ok = check[0]
    return "skipped" if ok is None else "pass" if ok else "fail"


def _sweep_indices(n: int) -> list[int]:
    """The Lemma 2.4 indices a sweep row checks: 1, (n+1)//2 and n."""
    return sorted({1, (n + 1) // 2, n})


def _sweep_laws(params: ChainParams, config: SweepConfig) -> dict[str, dict[int, Pmf]]:
    """Every exact law the rows of one (alpha, beta) read, keyed by start
    and number of steps, from one DP pass that steps up to three start
    states together to the largest number of steps any of them needs: the
    law of S for every n, the sum out of state 0 for ``lemma21`` and, for
    ``lemma24``, the segment laws out of either state of the checked
    indices (``stein._lemma24_steps``).  Each start keeps its laws in one
    stack, one row per number of steps padded to the largest n, up to ten
    rows per n in the list.
    """
    sums = set(config.n_list)
    segments = set()
    if "lemma24" in config.checks:
        for n in sums:
            segments |= stein_mod._lemma24_steps(n, stein_mod._lemma24_sides(n, _sweep_indices(n)))
    lemma21 = sums if "lemma21" in config.checks else set()
    steps = {"stationary": sums, "state0": lemma21 | segments, "state1": segments}
    return _exact_laws(params, {start: ks for start, ks in steps.items() if ks})


def run_sweep(config: SweepConfig) -> list[dict[str, Any]]:
    """Evaluate the whole grid and write the report file.

    Each (alpha, beta) takes its exact laws from one DP pass of all its
    start states (``_sweep_laws``), so the rows of all its n share them.
    The coupling check reads only (alpha, beta): it runs once per pair, on
    the seed of the pair's first row, and every row of the pair carries its
    verdict.  Every other column of a row is the one its point gives on its
    own.
    """
    rows = []
    index = 0
    for alpha in config.alpha_grid:
        for beta in config.beta_grid:
            params = ChainParams(alpha, beta)
            laws = _sweep_laws(params, config)
            if "coupling" in config.checks:
                pair_seed = _row_seed(config.seed, index)
                coupling = _verdict(_coupling(params, pair_seed, *_SWEEP_COUPLING))
            for n in config.n_list:
                row, fit, reference = _point_row(params, n, lambda: laws["stationary"][n])
                if "bounds" in config.checks:
                    row["check_bounds"] = _verdict(_check_bounds(row))
                if "stein" in config.checks and fit is None:  # a degenerate fit: nothing to solve
                    row["check_stein"] = "skipped"
                elif "stein" in config.checks:
                    seed = _row_seed(config.seed, index)
                    stein = _stein(fit, reference, seed, _SWEEP_STEIN_SUBSETS)
                    row["check_stein"] = _verdict(stein)
                if "coupling" in config.checks:
                    row["check_coupling"] = coupling
                if "lemma21" in config.checks:
                    row["check_lemma21"] = _verdict(_lemma21(params, n, laws["state0"][n]))
                if "lemma24" in config.checks:
                    sides = stein_mod._lemma24_sides(n, _sweep_indices(n))
                    reports = stein_mod._lemma24_from_laws(params, n, laws, sides)
                    row["check_lemma24"] = _verdict(_lemma24(reports))
                rows.append(row)
                index += 1
    _write_report(config.output_path, _render(config, rows))
    return rows


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render(config: SweepConfig, rows: Sequence[dict[str, Any]]) -> str:
    if config.format == "json":
        payload = {
            "schema_version": 1,
            "kind": "markovbin-sweep",
            "config": asdict(config),
            "rows": list(rows),
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    writer.writerows([_fmt(row[key]) for key in header] for row in rows)
    return buffer.getvalue()


def _write_report(path: str, text: str) -> None:
    """Write a rendered report.  A new report, or a regular file with one link
    that the caller owns and may write, is replaced by renaming a complete
    file over it, so a failed write leaves the old report intact.  Any other
    target (a device, a FIFO, a hard-linked, foreign or read-only file) is
    written in place, as by a plain ``open(path, "w")``."""
    old = os.stat(path) if os.path.exists(path) else None
    if old is not None and not (
        stat.S_ISREG(old.st_mode)
        and (old.st_nlink, old.st_uid, old.st_gid) == (1, os.geteuid(), os.getegid())
        and os.access(path, os.W_OK)
    ):
        with open(path, "w", newline="\n") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)  # a symlink keeps pointing at the new report
    temp = f"{target}.{os.getpid()}.tmp"
    # created as open() creates a new report: mode 0o666 less the umask
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="\n") as handle:
            handle.write(text)
        if old is not None:
            os.chmod(temp, stat.S_IMODE(old.st_mode))
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly in (0, 1), got {text}")
    return value


def _int_in(low: int, high: float = math.inf) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {text}")
        return value

    return parse


_positive_int = _int_in(1)


def _record_lines(record: dict[str, Any]) -> list[str]:
    return [f"{key} = {'n/a' if value is None else _fmt(value)}" for key, value in record.items()]


def _print_record(record: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, indent=2, allow_nan=False))
    else:
        print("\n".join(_record_lines(record)))


def cmd_fit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.exact and args.n > MAX_EXACT_N:
        parser.error(f"--exact needs --n at most {MAX_EXACT_N}, got {args.n}")
    params = ChainParams(args.alpha, args.beta)
    try:
        record = evaluate_point(params, args.n, exact=args.exact)
    except _LawTooLong as exc:
        parser.error(str(exc))
    if not args.exact:
        record.pop("tv_exact")
    _print_record(record, args.json)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        alpha_grid=tuple(args.alphas),
        beta_grid=tuple(args.betas),
        n_list=tuple(args.ns),
        checks=tuple(args.checks),
        seed=args.seed,
        output_path=args.output,
        format=args.format,
    )
    try:
        rows = run_sweep(config)
    except OSError as exc:
        print(f"markovbin sweep: cannot write {config.output_path!r}: {exc}", file=sys.stderr)
        return 2
    failures = sum(
        1 for row in rows for key in row if key.startswith("check_") and row[key] == "fail"
    )
    print(f"wrote {len(rows)} rows to {config.output_path} ({failures} check failures)")
    return 0 if failures == 0 else 1


def _stein_suite(fit_for: Callable) -> Callable:
    """A verify suite running the Stein check on the fit ``fit_for`` gives
    the point and its reference law."""

    def run(args: argparse.Namespace, params: ChainParams) -> _Check:
        fit = fit_for(params, args.n)
        return _stein(fit, _reference_law(fit, args.n), args.seed, args.subsets)

    return run


# Verify budgets: one suite runs at the budget given on the command line;
# the coupling test is 4 sigma on varsigma tails for m <= 6 (6.3e-5 per tail)
# and on tau tails for m <= 8 (one-sided, 3.2e-5 per tail).
_VERIFY_COUPLING = (4.0, 6, 8)  # sigmas, largest m of the varsigma and tau tails
_POINT = ("alpha", "beta", "n")
_EXACT_SUITES = ("bounds", "mc-exact", "lemma21", "lemma24")  # they need the exact law at --n
# suite -> (options it requires, its check on the options and the chain they name)
_SUITES = {
    "bounds": (_POINT, lambda a, p: _check_bounds(evaluate_point(p, a.n))),
    "stein-nb": (_POINT, _stein_suite(fit_negative_binomial)),
    "stein-binomial": (_POINT, _stein_suite(fit_binomial)),
    "coupling": (("alpha", "beta"), lambda a, p: _coupling(p, a.seed, a.samples, *_VERIFY_COUPLING)),
    "mc-exact": (_POINT, lambda a, p: _mc_exact(p, a.n, a.samples, a.seed, a.tol)),
    "lemma21": (_POINT, lambda a, p: _lemma21(p, a.n, exact_pmf(p, a.n, "state0"))),
    "lemma22": ((), lambda a, p: _lemma22(a.step, a.n_max)),
    "lemma24": (
        _POINT,
        lambda a, p: _lemma24(
            stein_mod._lemma24_reports(p, a.n, [a.index] if a.index else range(1, a.n + 1))
        ),
    ),
}


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    required, check = _SUITES[args.suite]
    for name in required:
        if getattr(args, name) is None:
            parser.error(f"suite {args.suite!r} requires --{name}")
    if args.suite in _EXACT_SUITES and args.n > MAX_EXACT_N:
        parser.error(f"suite {args.suite!r} needs --n at most {MAX_EXACT_N}, got {args.n}")
    if args.suite == "lemma24" and args.index is not None and args.index > args.n:
        parser.error(f"--index {args.index} exceeds --n {args.n}")
    params = ChainParams(args.alpha, args.beta) if required else None
    try:
        ok, lines = check(args, params)
    except (RegimeError, DegenerateFitError, _LawTooLong) as exc:
        parser.error(f"suite {args.suite!r} does not apply to these inputs: {exc}")
    for line in lines:
        print(line)
    print(f"suite {args.suite}: {'FAIL' if ok is False else 'PASS'}")
    return 1 if ok is False else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Each subcommand's
    ``run`` looks its handler up when it runs, and no parse mutates a
    default (``cmd_sweep`` copies ``--checks`` into a tuple), so every
    ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="markovbin",
        description="Markov binomial distributions: exact laws, moment-matched "
        "approximations, explicit TV error bounds and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one parameter point and report the bound")
    fit.add_argument("--alpha", type=_probability, required=True)
    fit.add_argument("--beta", type=_probability, required=True)
    fit.add_argument("--n", type=_positive_int, required=True)
    fit.add_argument("--exact", action="store_true", help="also compute the exact TV (O(n^2))")
    fit.add_argument("--json", action="store_true", help="emit JSON instead of key = value lines")
    fit.set_defaults(run=lambda args: cmd_fit(args, fit))

    sweep = sub.add_parser("sweep", help="evaluate a parameter grid into CSV/JSON")
    sweep.add_argument("--alphas", type=_probability, nargs="+", required=True)
    sweep.add_argument("--betas", type=_probability, nargs="+", required=True)
    sweep.add_argument("--ns", type=_int_in(1, MAX_EXACT_N), nargs="+", required=True)
    sweep.add_argument("--checks", nargs="*", choices=_CHECK_NAMES, default=[])
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--output", required=True)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(run=lambda args: cmd_sweep(args))

    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument("suite", choices=tuple(_SUITES))
    verify.add_argument("--alpha", type=_probability)
    verify.add_argument("--beta", type=_probability)
    verify.add_argument("--n", type=_positive_int)
    verify.add_argument("--index", type=_positive_int, help="single index for lemma24")
    verify.add_argument("--subsets", type=_positive_int, default=200)
    verify.add_argument("--samples", type=_positive_int, default=1_000_000)
    # the Stein suites seed numpy generators, which reject negative seeds
    verify.add_argument("--seed", type=_int_in(0), default=0)
    verify.add_argument("--step", type=_probability, default=0.05, help="grid step for lemma22")
    verify.add_argument("--n-max", type=_int_in(2), default=200, help="largest n for lemma22")
    verify.add_argument("--tol", type=_probability, default=0.005, help="TV tolerance for mc-exact")
    # usage errors found after parsing are reported against verify's options
    verify.set_defaults(run=lambda args: cmd_verify(args, verify))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
