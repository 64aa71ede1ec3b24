"""The three workloads: how each op's inputs are drawn from the workload
seed, the call into markovbin that is timed, and the checks of its output.

Op ``i`` of a run draws its inputs from ``SeedSequence([seed, i])``, so the
same seed gives the same op sequence however long the run is.  Every op gets
fresh ``(alpha, beta)`` values jittered around fixed centres: the work per
op stays the same from seed to seed, and no in-process cache can serve one
op from another.

Every op of a workload is the same work: ``exact-large-n`` runs its whole
cycle of sizes in one op, ``verify-lemma24`` uses one n and ``sweep-grid``
one grid.  The median op time is then one of like with like, and a run that
ends part-way through does not change the mix.

Checks never compare with a stored copy of earlier output.  They use the
independent computations in ``oracles`` and properties the methods must
have; ``check`` returns a list of problems, empty when the op is correct.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np

import oracles

# where runs write their reports, results and traces
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
CHECKS = ("bounds", "stein", "coupling", "lemma21", "lemma24")
# Laws of sums with at most this many steps are checked by path enumeration.
ENUMERABLE_N = 16


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the markovbin command line in process; exit code and stdout."""
    import markovbin.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = markovbin.cli.main(argv)
    return code, out.getvalue()


class Workload:
    name: str
    # ops a traced run performs, so that its per-op counts repeat exactly
    trace_ops: int
    # the n of an op, or its tuple of n
    size: int | tuple
    # the size used by warm-up and by the smoke mode, a quick pass over
    # every path and check
    smoke_size: int | tuple

    def __init__(self, smoke: bool = False) -> None:
        if smoke:
            self.size = self.smoke_size
            self.trace_ops = 1

    def inputs(self, seed: int, index: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, out, first: bool) -> list[str]:
        """Problems found in the output of one op; ``first`` marks op 0."""
        raise NotImplementedError

    def fingerprint(self, out) -> bytes | None:
        """The op's output as bytes, if a rerun must repeat it exactly."""
        return None

    def report_bytes(self, out) -> int:
        return 0

    def warm_up(self) -> None:
        """One small op with fixed inputs, to fill lazy import state."""
        size = self.size
        self.size = self.smoke_size
        self.run(self.inputs(0, 0))
        self.size = size


class SweepGrid(Workload):
    """``markovbin sweep`` with all five checks on a 2 x 3 grid of
    (alpha, beta) and six values of n.

    Three points are overdispersed (beta > alpha) and three underdispersed;
    every |beta - alpha| stays above 0.2, which keeps the coupling check's
    5-sigma tests in their Gaussian range.  n = 12 is small enough for path
    enumeration.
    """

    name = "sweep-grid"
    alphas = (0.1, 0.8)
    betas = (0.35, 0.45, 0.55)
    jitter = 0.02
    size = (12, 25, 50, 100, 175, 250)
    trace_ops = 6
    smoke_size = (12, 30)

    def inputs(self, seed, index):
        rng = _rng(seed, index)
        return {
            "alphas": [float(a + rng.uniform(-self.jitter, self.jitter)) for a in self.alphas],
            "betas": [float(b + rng.uniform(-self.jitter, self.jitter)) for b in self.betas],
            "ns": list(self.size),
            "seed": int(rng.integers(2**31)),
        }

    def run(self, inp):
        path = os.path.join(OUT, f"{self.name}.csv")  # one process runs at a time
        argv = ["sweep", "--alphas", *map(repr, inp["alphas"]), "--betas", *map(repr, inp["betas"])]
        argv += ["--ns", *map(str, inp["ns"]), "--checks", *CHECKS]
        argv += ["--seed", str(inp["seed"]), "--output", path]
        code, _ = _cli(argv)
        with open(path, "rb") as handle:
            return code, handle.read()

    def fingerprint(self, out):
        return out[1]

    def report_bytes(self, out):
        return len(out[1])

    def check(self, inp, out, first):
        code, report = out
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = list(csv.DictReader(io.StringIO(report.decode())))
        grid = [(a, b, n) for a in inp["alphas"] for b in inp["betas"] for n in inp["ns"]]
        if len(rows) != len(grid):
            return problems + [f"{len(rows)} rows for a grid of {len(grid)}"]
        for row, (alpha, beta, n) in zip(rows, grid):
            where = f"alpha={alpha!r} beta={beta!r} n={n}"
            if (float(row["alpha"]), float(row["beta"]), int(row["n"])) != (alpha, beta, n):
                problems.append(f"{where}: row out of order")
                continue
            problems += [f"{where}: {msg}" for msg in self._check_row(row, alpha, beta, n)]
        return problems

    @staticmethod
    def _check_row(row, alpha, beta, n):
        verdicts = {key: row.get(f"check_{key}") for key in CHECKS}
        problems = [f"check_{k} is {v!r}" for k, v in verdicts.items() if v not in ("pass", "skipped")]
        mean, var = oracles.moments(alpha, beta, n)
        if _rel(float(row["mean"]), mean) > 1e-9 or _rel(float(row["variance"]), var) > 1e-9:
            problems.append(f"moments {row['mean']}, {row['variance']} != {mean!r}, {var!r}")
        regime = "overdispersed" if var > mean else "underdispersed"
        if row["regime"] != regime:
            problems.append(f"regime {row['regime']} != {regime}")
            return problems
        fit: dict = {}
        if regime == "overdispersed":
            fit = {"r": mean * mean / (var - mean), "q": mean / var}
        else:
            m_tilde = mean * mean / (mean - var)
            m = math.floor(m_tilde)
            theta = mean / m if m >= 1 else math.inf
            if row["status"] == "degenerate_fit":
                if theta < 1.0:
                    problems.append(f"degenerate fit reported, but theta={theta!r} < 1")
                return problems
            fit = {"m_tilde": m_tilde, "m": m, "theta": theta, "epsilon": m_tilde - m}
        if row["status"] != "ok":
            return problems + [f"status {row['status']}"]
        for key, value in fit.items():
            got = float(row[key])
            scale = max(1.0, abs(fit.get("m_tilde", 1.0))) if key == "epsilon" else abs(value)
            if abs(got - value) > 1e-9 * scale:
                problems.append(f"{key} {got!r} != {value!r}")
        tv = float(row["tv_exact"])
        tail = float(row["tail_mass"])
        if not tv <= float(row["bound_clipped"]) + tail + 1e-12:
            problems.append(f"tv_exact {tv!r} above clipped bound + tail")
        if n <= ENUMERABLE_N:
            law = oracles.enumerate_pmf(alpha, beta, n)
            if regime == "overdispersed":
                upto = int(mean + 60.0 * math.sqrt(var)) + 60
            else:
                upto = max(n, fit["m"])
            ref = oracles.reference_pmf(fit, upto)
            # The program truncates its reference where ``tail_mass`` is
            # left, and that part of the distance is not in ``tv_exact``.
            full = oracles.tv(law, ref) + 0.5 * max(0.0, 1.0 - float(ref.sum()))
            if abs(tv - (full - 0.5 * tail)) > 1e-12:
                problems.append(f"tv_exact {tv!r} != enumerated {full - 0.5 * tail!r}")
        return problems


class ExactLargeN(Workload):
    """The library quick-start sequence at large n, once for each n of
    ``size``: exact law, negative binomial fit, reference pmf, bound and
    TV distance."""

    name = "exact-large-n"
    size = (5000, 8000, 11000, 15000, 20000)
    trace_ops = 3
    smoke_size = (300, 500)

    def inputs(self, seed, index):
        rng = _rng(seed, index)
        return {
            "points": [
                (float(rng.uniform(0.08, 0.14)), float(rng.uniform(0.75, 0.85)), n)
                for n in self.size
            ]
        }

    def run(self, inp):
        import markovbin as mb

        out = []
        for alpha, beta, n in inp["points"]:
            params = mb.ChainParams(alpha, beta)
            law = mb.exact_pmf(params, n)
            fit = mb.fit_negative_binomial(params, n)
            reference = mb.nb_pmf(fit.r, fit.q)
            report = mb.bound_nb(params, n)
            tv = mb.tv_distance(law, reference)
            out.append((law.mass, reference.tail, report.clipped_value, tv))
        return out

    def check(self, inp, out, first):
        problems = []
        for (alpha, beta, n), (mass, tail, clipped, tv) in zip(inp["points"], out):
            where = f"alpha={alpha!r} beta={beta!r} n={n}: "
            drift = abs(float(mass.sum()) - 1.0)
            if mass.size != n + 1 or mass.min() < 0.0 or drift > n * np.finfo(float).eps:
                problems.append(where + f"not a law on 0..{n}: size {mass.size}, drift {drift!r}")
            mean, var = oracles.moments(alpha, beta, n)
            k = np.arange(mass.size, dtype=float)
            got_mean = float(k @ mass)
            got_var = float(((k - got_mean) ** 2) @ mass)
            if _rel(got_mean, mean) > 1e-9 or _rel(got_var, var) > 1e-9:
                problems.append(where + f"moments {got_mean!r}, {got_var!r} != {mean!r}, {var!r}")
            if not tv <= clipped + tail:
                problems.append(where + f"tv {tv!r} above clipped bound {clipped!r} + tail {tail!r}")
            if first:
                gap = oracles.tv(mass, oracles.pgf_pmf(alpha, beta, n))
                if gap > 1e-9:
                    problems.append(where + f"TV {gap!r} to the pgf inversion")
        return problems


class VerifyLemma24(Workload):
    """``markovbin verify lemma24`` over all indices at one n, alternating an
    overdispersed and an underdispersed centre from op to op.

    The cost of the command depends on n alone, so every op is the same
    work and the median op time is one of like with like.
    """

    name = "verify-lemma24"
    size = 160
    trace_ops = 8
    smoke_size = 20
    centres = ((0.25, 0.6), (0.6, 0.25))
    jitter = 0.05
    probes = 3

    def inputs(self, seed, index):
        rng = _rng(seed, index)
        alpha, beta = self.centres[index % 2]
        return {
            "alpha": float(alpha + rng.uniform(-self.jitter, self.jitter)),
            "beta": float(beta + rng.uniform(-self.jitter, self.jitter)),
            "n": self.size,
            "indices": sorted({int(i) for i in rng.integers(1, self.size + 1, self.probes)}),
        }

    def run(self, inp):
        return _cli(["verify", "lemma24", "--alpha", repr(inp["alpha"]),
                     "--beta", repr(inp["beta"]), "--n", str(inp["n"])])

    def report_bytes(self, out):
        return len(out[1].encode())

    def check(self, inp, out, first):
        import markovbin as mb

        code, text = out
        problems = []
        if code != 0 or "suite lemma24: PASS" not in text:
            problems.append(f"exit code {code}, output {text!r}")
        printed = {}
        for line in text.splitlines():
            for side in ("sup", "probe"):
                prefix = f"worst {side}-side margin: "
                if line.startswith(prefix):
                    printed[side] = float(line[len(prefix):])
        if set(printed) != {"sup", "probe"}:
            return problems + [f"margins missing from {text!r}"]
        problems += [f"{side} margin {v!r} < 0" for side, v in printed.items() if v < 0.0]

        alpha, beta, n = inp["alpha"], inp["beta"], inp["n"]
        params = mb.ChainParams(alpha, beta)
        law = oracles.pgf_pmf(alpha, beta, n)
        p = oracles.stationary_p(alpha, beta)
        for i in inp["indices"]:
            report = mb.stein.verify_lemma24(params, n, i)
            margins = {"sup": report.rhs_sup - report.tv2, "probe": report.rhs_delta - report.probe_max}
            for side, margin in margins.items():
                # the command prints the worst margin with 6 significant digits
                if printed[side] > float(f"{margin:.6g}"):
                    problems.append(f"printed {side} margin {printed[side]!r} > {margin!r} at i={i}")
            law0 = mb.exact_conditional_pmf(params, n, i, 0).mass
            law1 = mb.exact_conditional_pmf(params, n, i, 1).mass
            total = (1.0 - p) * np.append(law0, 0.0) + p * np.append(0.0, law1)
            gap = float(np.abs(total - law).max())
            if gap > 1e-12:
                problems.append(f"total probability off by {gap!r} at i={i}")
        return problems


WORKLOADS = {cls.name: cls for cls in (SweepGrid, ExactLargeN, VerifyLemma24)}

