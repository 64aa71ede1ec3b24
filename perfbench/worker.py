"""One measuring process: import markovbin, warm up, run one workload's ops,
then check each output.  ``run.py`` starts it; it prints one JSON object.

With ``--setup-only`` it stops where the first timed op would start and
reports that moment, which ``run.py`` uses to time set-up.  With
``--trace-file`` it wraps the layer functions, runs a fixed number of ops and
writes the spans to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import markovbin  # set-up cost is part of what is measured
    import markovbin.cli  # noqa: F401
    import numpy
    import scipy

    import tracing
    from workloads import OUT, WORKLOADS

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    problems: list[str] = []
    try:
        workload.warm_up()
    except Exception as exc:  # the timed ops will fail and be counted too
        problems.append(f"warm-up raised {type(exc).__name__}: {exc}")
    if args.setup_only:
        print(json.dumps({"first_op_at": time.monotonic()}))
        return 0

    tracer = tracing.Tracer() if args.trace_file else None

    def timed(inp, traced: bool):
        """Output and wall time in ms of one op, or the exception it raised."""
        if traced:
            tracer.install()
            tracer.begin_op(index)
        error = out = None
        start = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a failing op is counted, and the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - start) * 1e3
        if traced:
            tracer.end_op()
            tracer.remove()
        return (out, error), elapsed

    # Outputs wait on disk until the timed loop ends and the peak RSS has
    # been read, so the memory the checks use stays out of that figure.
    kept_path = os.path.join(OUT, f"{args.workload}-outputs.pickle")
    op_ms: list[float] = []
    untraced_ms: list[float] = []
    first_op_at = time.monotonic()
    index = 0
    with open(kept_path, "wb") as kept:
        while True:
            inp = workload.inputs(args.seed, index)
            if tracer:
                # The op also runs untraced, before or after the traced run
                # in turn; the paired difference shows the tracing overhead.
                if index % 2:
                    result, elapsed = timed(inp, traced=True)
                    untraced_ms.append(timed(inp, traced=False)[1])
                else:
                    untraced_ms.append(timed(inp, traced=False)[1])
                    result, elapsed = timed(inp, traced=True)
            else:
                result, elapsed = timed(inp, traced=False)
            op_ms.append(elapsed)
            pickle.dump((inp, *result), kept, protocol=5)
            index += 1
            if index >= workload.trace_ops if tracer else time.monotonic() - first_op_at >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = 0
    report_bytes = 0
    first_output = None
    with open(kept_path, "rb") as kept:
        for op in range(index):
            inp, out, error = pickle.load(kept)
            if error:
                found = [error]
            else:
                try:
                    found = workload.check(inp, out, first=op == 0)
                except Exception as exc:  # output too malformed to check
                    found = [f"check raised {type(exc).__name__}: {exc}"]
                report_bytes += workload.report_bytes(out)
                if op == 0:
                    first_output = workload.fingerprint(out)
            if found:
                failed += 1
                problems += [f"op {op} {inp}: {msg}" for msg in found[:3]]
    os.remove(kept_path)

    # A second run of the first op's inputs must give the same output.
    run_ok = first_output is None or (
        workload.fingerprint(workload.run(workload.inputs(args.seed, 0))) == first_output
    )
    if not run_ok:
        problems.append("a rerun of op 0 gave a different output")

    result = {
        "first_op_at": first_op_at,
        "attempted": index,
        "failed": failed,
        "run_ok": run_ok,
        "op_ms": op_ms,
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "markovbin": markovbin.__version__,
        },
    }
    if tracer:
        layers = tracer.per_op(index)
        draws = layers.get("coupling.draws_per_op", 0.0)
        useful = layers.pop("coupling.useful_draws_per_op", 0.0)
        layers["coupling.useful_draw_ratio"] = useful / draws if draws else 0.0
        layers["cli.report_bytes_per_op"] = report_bytes / index
        spans = len(tracer.spans) / index
        layers["trace.spans_per_op"] = spans
        layers["trace.overhead_ms_per_op"] = spans * tracing.span_cost_ns() / 1e6
        layers["trace.op_ms"] = sum(op_ms) / index
        layers["trace.untraced_op_ms"] = sum(untraced_ms) / index
        layers["trace.paired_gap_ms"] = statistics.median(
            traced - plain for traced, plain in zip(op_ms, untraced_ms)
        )
        result["layers"] = layers
        result["untraced_ms"] = untraced_ms
        with open(args.trace_file, "w") as handle:
            json.dump({"fields": tracing.SPAN_FIELDS, "spans": tracer.spans}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
