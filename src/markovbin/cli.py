"""Command-line surface: single-point fits, grid sweeps and verification
suites with CSV/JSON reporting.

Exit codes: 0 all checks passed, 1 an assertion failed, 2 usage error.
Output files are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, asdict
from typing import Any, Iterable, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import coupling as coupling_mod
from . import stein as stein_mod
from .core import ChainParams, exact_pmf, moments_closed_form, shift_tv, tv_distance
from .fit import DegenerateFitError, Regime, RegimeError, _fit, _reference, _regime, fit_binomial

__all__ = ["SweepConfig", "cmd_fit", "cmd_sweep", "cmd_verify", "run_sweep", "main"]

_CHECK_NAMES = ("bounds", "stein", "coupling", "lemma21", "lemma24")
# Fit columns of a report record; each regime fills some of them.
_FIT_FIELDS = ("r", "q", "poisson_limit", "m_tilde", "m", "theta", "epsilon")
# Stein solutions must satisfy their recurrence to this sup-norm residual.
_STEIN_RESIDUAL_TOL = 1e-9


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


def evaluate_point(params: ChainParams, n: int, *, exact: bool = True) -> dict[str, Any]:
    """One report record: moments, regime, fit, bound and optional exact TV."""
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
        return row
    # a Poisson limit reports only its flag: r = inf and q = 1 carry no fit
    fields = {"poisson_limit": True} if getattr(fit, "poisson_limit", False) else vars(fit)
    row.update({key: value for key, value in fields.items() if key in _FIT_FIELDS})
    report = bounds_mod._bound(params, n, regime, fit)
    reference = _reference(fit)
    row["bound"] = report.bound_value
    row["bound_clipped"] = report.clipped_value
    row["tail_mass"] = reference.tail
    if exact:
        row["tv_exact"] = tv_distance(exact_pmf(params, n), reference)
    return row


def _row_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed & ((1 << 63) - 1), index]).generate_state(1)[0])


def _random_subset(rng: np.random.Generator, upper: int) -> np.ndarray:
    return np.flatnonzero(rng.random(upper + 1) < 0.5)


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
    return row["tv_exact"] <= min(1.0, row["bound"]) + row["tail_mass"] + 1e-12, lines


def _stein_nb(params: ChainParams, n: int, seed: int, subsets: int) -> _Check:
    """Negative binomial Stein solutions for random subsets: residual and
    sup|dg'| <= 1/a."""
    setup = stein_mod.NbSteinSetup.from_chain(params, n)
    rng = np.random.default_rng(seed)
    top = setup.target.mass.size - 1
    ok, worst_resid, worst_margin = True, 0.0, math.inf
    for _ in range(subsets):
        solution = stein_mod.solve_nb_stein(setup, _random_subset(rng, top))
        report = stein_mod.check_nb_delta_bound(solution, setup.a)
        ok = ok and report.ok and solution.residual_sup <= _STEIN_RESIDUAL_TOL
        worst_resid = max(worst_resid, solution.residual_sup)
        worst_margin = min(worst_margin, report.margin)
    return ok, [
        f"subsets: {subsets}, max residual: {worst_resid:.3g}",
        f"min slack of sup|dg'| <= 1/a: {worst_margin:.6g}",
    ]


def _stein_binomial(params: ChainParams, n: int, seed: int, subsets: int) -> _Check:
    """Binomial Stein solutions for random subsets: residual and Lemma 3.1."""
    fit = fit_binomial(params, n)
    rng = np.random.default_rng(seed)
    ok, worst_resid = True, 0.0
    for _ in range(subsets):
        subset = _random_subset(rng, fit.m + 16)
        solution = stein_mod.solve_binomial_stein(fit.m, fit.theta, subset)
        report = stein_mod.check_binomial_lemma31(solution, fit.m, fit.theta, subset)
        ok = ok and report.ok and solution.residual_sup <= _STEIN_RESIDUAL_TOL
        worst_resid = max(worst_resid, solution.residual_sup)
    return ok, [f"subsets: {subsets}, max residual: {worst_resid:.3g}"]


def _coupling(
    params: ChainParams, seed: int, samples: int, sigmas: float, varsigma_max: int, tau_max: int
) -> _Check:
    """Coupled runs: P(varsigma >= m) = |beta - alpha|^(m-1) for m <= varsigma_max
    and P(tau >= m) <= max(alpha, beta)^(m-1) for m <= tau_max, each within
    ``sigmas`` standard errors, and no move off the diagonal."""
    runs = coupling_mod.sample_meeting_times(params, samples, seed)
    split = abs(params.beta - params.alpha)
    amax = max(params.alpha, params.beta)
    ok = runs.absorption_violations == 0
    lines = []
    for m in range(1, varsigma_max + 1):
        target = split ** (m - 1)
        sigma = math.sqrt(target * (1.0 - target) / samples)
        tail = runs.varsigma_tail(m)
        ok = ok and abs(tail - target) <= sigmas * sigma + 1e-12
        lines.append(f"P(varsigma >= {m}): empirical {tail:.6f} target {target:.6f}")
    for m in range(1, tau_max + 1):
        cap = amax ** (m - 1)
        sigma = math.sqrt(cap * (1.0 - cap) / samples)
        ok = ok and runs.tau_tail(m) <= cap + sigmas * sigma + 1e-12
    lines.append(f"absorption violations: {runs.absorption_violations}")
    return ok, lines


def _lemma21(params: ChainParams, n: int) -> _Check:
    """Shift TV of the sum out of state 0 within gamma(n)."""
    value = shift_tv(exact_pmf(params, n, start="state0"))
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


def _lemma24(params: ChainParams, n: int, indices: Iterable[int]) -> _Check:
    """Lemma 2.4 at each index, with the worst sup-side and probe-side margins."""
    ok, worst_sup, worst_delta = True, -math.inf, -math.inf
    for i in indices:
        report = stein_mod.verify_lemma24(params, n, i)
        ok = ok and report.ok
        worst_sup = max(worst_sup, report.tv2 - report.rhs_sup)
        worst_delta = max(worst_delta, report.probe_max - report.rhs_delta)
    return ok, [
        f"worst sup-side margin: {-worst_sup:.6g}",
        f"worst probe-side margin: {-worst_delta:.6g}",
    ]


def _mc_exact(params: ChainParams, n: int, samples: int, seed: int, tol: float) -> _Check:
    """TV between the Monte Carlo and the exact law of the stationary sum."""
    sums = coupling_mod.sample_sums(params, n, "stationary", samples, seed)
    value = tv_distance(coupling_mod.empirical_pmf(sums, support_max=n), exact_pmf(params, n))
    return value <= tol, [f"TV(empirical, exact) = {value:.6g} with {samples} samples (tol {tol})"]


# Sweep budgets.  A sweep runs every check on every row, so its coupling test
# is coarser than verify's (5 sigma, varsigma tails for m <= 4, no tau test)
# to keep a whole grid from failing by chance.
_SWEEP_STEIN_SUBSETS = 20
_SWEEP_COUPLING = (20_000, 5.0, 4, 0)  # samples, sigmas, largest m of varsigma and tau tails


def _verdict(check: _Check) -> str:
    ok = check[0]
    return "skipped" if ok is None else "pass" if ok else "fail"


def _sweep_stein(row: dict[str, Any], params: ChainParams, n: int, seed: int) -> _Check:
    if row["regime"] != Regime.UNDERDISPERSED.value:
        return _stein_nb(params, n, seed, _SWEEP_STEIN_SUBSETS)
    try:
        return _stein_binomial(params, n, seed, _SWEEP_STEIN_SUBSETS)
    except DegenerateFitError:
        return None, []


def run_sweep(config: SweepConfig) -> list[dict[str, Any]]:
    """Evaluate the whole grid and write the report file."""
    rows = []
    index = 0
    for alpha in config.alpha_grid:
        for beta in config.beta_grid:
            params = ChainParams(alpha, beta)
            for n in config.n_list:
                row = evaluate_point(params, n, exact=True)
                seed = _row_seed(config.seed, index)
                if "bounds" in config.checks:
                    row["check_bounds"] = _verdict(_check_bounds(row))
                if "stein" in config.checks:
                    row["check_stein"] = _verdict(_sweep_stein(row, params, n, seed))
                if "coupling" in config.checks:
                    row["check_coupling"] = _verdict(_coupling(params, seed, *_SWEEP_COUPLING))
                if "lemma21" in config.checks:
                    row["check_lemma21"] = _verdict(_lemma21(params, n))
                if "lemma24" in config.checks:
                    lemma24 = _lemma24(params, n, sorted({1, (n + 1) // 2, n}))
                    row["check_lemma24"] = _verdict(lemma24)
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _record_lines(record: dict[str, Any]) -> list[str]:
    return [f"{key} = {'n/a' if value is None else _fmt(value)}" for key, value in record.items()]


def _print_record(record: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, indent=2, allow_nan=False))
    else:
        print("\n".join(_record_lines(record)))


def cmd_fit(args: argparse.Namespace) -> int:
    params = ChainParams(args.alpha, args.beta)
    record = evaluate_point(params, args.n, exact=args.exact)
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


# Verify budgets: one suite runs at the budget given on the command line;
# the coupling test is 4 sigma on varsigma tails for m <= 6, tau tails m <= 8.
_VERIFY_COUPLING = (4.0, 6, 8)  # sigmas, largest m of the varsigma and tau tails
_POINT = ("alpha", "beta", "n")
# suite -> (options it requires, its check on the options and the chain they name)
_SUITES = {
    "bounds": (_POINT, lambda a, p: _check_bounds(evaluate_point(p, a.n))),
    "stein-nb": (_POINT, lambda a, p: _stein_nb(p, a.n, a.seed, a.subsets)),
    "stein-binomial": (_POINT, lambda a, p: _stein_binomial(p, a.n, a.seed, a.subsets)),
    "coupling": (("alpha", "beta"), lambda a, p: _coupling(p, a.seed, a.samples, *_VERIFY_COUPLING)),
    "mc-exact": (_POINT, lambda a, p: _mc_exact(p, a.n, a.samples, a.seed, a.tol)),
    "lemma21": (_POINT, lambda a, p: _lemma21(p, a.n)),
    "lemma22": ((), lambda a, p: _lemma22(a.step, a.n_max)),
    "lemma24": (_POINT, lambda a, p: _lemma24(p, a.n, [a.index] if a.index else range(1, a.n + 1))),
}


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    required, check = _SUITES[args.suite]
    for name in required:
        if getattr(args, name) is None:
            parser.error(f"suite {args.suite!r} requires --{name}")
    if args.suite == "lemma24" and args.index is not None and args.index > args.n:
        parser.error(f"--index {args.index} exceeds --n {args.n}")
    params = ChainParams(args.alpha, args.beta) if required else None
    try:
        ok, lines = check(args, params)
    except (RegimeError, DegenerateFitError) as exc:
        parser.error(f"suite {args.suite!r} does not apply to these inputs: {exc}")
    for line in lines:
        print(line)
    print(f"suite {args.suite}: {'FAIL' if ok is False else 'PASS'}")
    return 1 if ok is False else 0


def build_parser() -> argparse.ArgumentParser:
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
    fit.set_defaults(run=cmd_fit)

    sweep = sub.add_parser("sweep", help="evaluate a parameter grid into CSV/JSON")
    sweep.add_argument("--alphas", type=_probability, nargs="+", required=True)
    sweep.add_argument("--betas", type=_probability, nargs="+", required=True)
    sweep.add_argument("--ns", type=_positive_int, nargs="+", required=True)
    sweep.add_argument("--checks", nargs="*", choices=_CHECK_NAMES, default=[])
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--output", required=True)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(run=cmd_sweep)

    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument("suite", choices=tuple(_SUITES))
    verify.add_argument("--alpha", type=_probability)
    verify.add_argument("--beta", type=_probability)
    verify.add_argument("--n", type=_positive_int)
    verify.add_argument("--index", type=_positive_int, help="single index for lemma24")
    verify.add_argument("--subsets", type=_positive_int, default=200)
    verify.add_argument("--samples", type=_positive_int, default=1_000_000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--step", type=_probability, default=0.05, help="grid step for lemma22")
    verify.add_argument("--n-max", type=_positive_int, default=200, help="largest n for lemma22")
    verify.add_argument("--tol", type=float, default=0.005, help="TV tolerance for mc-exact")
    # usage errors found after parsing are reported against verify's options
    verify.set_defaults(run=lambda args: cmd_verify(args, verify))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
