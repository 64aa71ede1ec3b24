"""Spans around the calls into each markovbin module, recorded from the
benchmark's side.

While a traced op runs, every public function of a layer module (``core``,
``fit``, ``bounds``, ``stein``, ``coupling``, ``cli``) is replaced, in every
markovbin namespace that binds it, by a wrapper that records a span and
the counts named in ``COUNTERS``.  Calls between layers go through those
namespaces, so nested calls become child spans.  Spans are kept in memory;
per-op layer figures are derived when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("core", "fit", "bounds", "stein", "coupling", "cli")
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op")


def _n_arg(args, kwargs) -> int:
    return int(kwargs["n"] if "n" in kwargs else args[1])


def _meeting_draws(args, kwargs, result) -> dict[str, float]:
    """Uniform draws of ``sample_meeting_times``, rebuilt from its taus.

    The lockstep loop draws one uniform per sample per step until every
    sample is done or the horizon is reached; a sample still running after
    that draws one uniform per further step from its own stream.  A draw is
    useful when its sample has not yet finished.
    """
    from markovbin import coupling

    step_cap = kwargs.get("step_cap", args[3] if len(args) > 3 else coupling.DEFAULT_STEP_CAP)
    tau = result.tau
    lockstep = min(min(step_cap, coupling.LOCKSTEP_HORIZON), int(tau.max()))
    tail = int((tau - lockstep).clip(min=0).sum())
    return {
        "samples": tau.size,
        "draws": lockstep * tau.size + tail,
        "useful_draws": int(tau.sum()),
    }


# function name -> counts it adds, from its arguments and result
COUNTERS = {
    "exact_pmf": lambda a, k, r: {"dp_steps": _n_arg(a, k)},
    "moments_closed_form": lambda a, k, r: {"moment_evals": 1},
    "nb_pmf": lambda a, k, r: {"ref_entries": len(r)},
    "binomial_pmf": lambda a, k, r: {"ref_entries": len(r)},
    "poisson_pmf": lambda a, k, r: {"ref_entries": len(r)},
    "solve_nb_stein": lambda a, k, r: {"solves": 1},
    "solve_binomial_stein": lambda a, k, r: {"solves": 1},
    "verify_lemma24": lambda a, k, r: {"lemma24_evals": 1},
    "sample_meeting_times": _meeting_draws,
}


class Tracer:
    """Span recorder for the op that ``begin_op`` opened."""

    def __init__(self) -> None:
        self.op: int | None = None
        self.stack: list[int] = []
        # span, as in SPAN_FIELDS: "layer.function", start and end in ns,
        # index of the parent span or -1, op index
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        # (namespace, name, plain function, wrapper) for install and remove
        self.bindings: list[tuple] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.clear()

    def end_op(self) -> None:
        self.op = None

    def wrap(self, fn, layer: str):
        counter = COUNTERS.get(fn.__name__)
        name = f"{layer}.{fn.__name__}"
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[op, f"{layer}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function in every markovbin namespace."""
        if not self.bindings:
            modules = {name: sys.modules[f"markovbin.{name}"] for name in LAYERS}
            wrapped = {}
            for layer, module in modules.items():
                for name, obj in vars(module).items():
                    if (
                        inspect.isfunction(obj)
                        and not name.startswith("_")
                        and obj.__module__ == module.__name__
                    ):
                        wrapped[obj] = self.wrap(obj, layer)
            for namespace in (sys.modules["markovbin"], *modules.values()):
                for name, obj in list(vars(namespace).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self.bindings.append((namespace, name, obj, wrapped[obj]))
        for namespace, name, _, traced in self.bindings:
            setattr(namespace, name, traced)

    def remove(self) -> None:
        """Put the unwrapped functions back."""
        for namespace, name, plain, _ in self.bindings:
            setattr(namespace, name, plain)

    def per_op(self, ops: int) -> dict[str, float]:
        """Layer self time, calls and counts, each summed and divided by ops.

        A span's self time is its duration minus its children's durations;
        calls are single-threaded, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for layer in LAYERS:
            totals[f"{layer}.self_ms"] = 0.0
            totals[f"{layer}.calls"] = 0.0
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            layer = name.partition(".")[0]
            totals[f"{layer}.self_ms"] += (end - start - children) / 1e6
            totals[f"{layer}.calls"] += 1
        for (_, key), value in self.counts.items():
            totals[key] += value
        return {f"{key}_per_op": value / ops for key, value in totals.items()}


def span_cost_ns() -> float:
    """Added wall time of one traced call, from a wrapped no-op."""
    rounds = 20000

    def noop(x):
        return x

    tracer = Tracer()
    traced = tracer.wrap(noop, "core")
    tracer.begin_op(0)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter_ns()
        for i in range(rounds):
            noop(i)
        plain = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for i in range(rounds):
            traced(i)
        best = min(best, (time.perf_counter_ns() - start - plain) / rounds)
        tracer.spans.clear()
    return best
