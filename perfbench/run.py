"""markovbin benchmark: one workload per call, from the root of a checkout.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is the
result as JSON; the lines before it give the environment, ops attempted and
failed, any problems found, and the per-op tail for reference.  Results and
traces are also written under ``perfbench/out/``.  ``--smoke`` runs every
workload at small sizes, traced and untraced, in well under a minute.

Each measuring process is a fresh interpreter with BLAS and OpenMP pinned
to one thread, and only one runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("sweep-grid", "exact-large-n", "verify-lemma24")
# fresh processes whose import times give core.import_ms and fit.import_ms
IMPORT_RUNS = 3
PROCESS_TIMEOUT_S = 170


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return {metric["name"]: metric["unit"] for metric in json.load(spec)["per_layer"]}


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_process(argv: list[str]) -> tuple[float, dict]:
    """Run one child to its end; the moment it was started and its result."""
    started = time.monotonic()
    proc = subprocess.run(argv, env=pinned_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def worker_argv(args, *extra: str) -> list[str]:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    return argv + (["--smoke"] if args.smoke else [])


def import_ms() -> dict[str, float]:
    """Cumulative import time of markovbin.core and markovbin.fit in a fresh
    process, as ``-X importtime`` reports it: what importing each adds on
    top of the modules already loaded before it."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import markovbin"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=pinned_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    found = {}
    for line in proc.stderr.splitlines():
        fields = [part.strip() for part in line.removeprefix("import time:").split("|")]
        if len(fields) == 3 and fields[2] in ("markovbin.core", "markovbin.fit"):
            found[fields[2].split(".")[1] + ".import_ms"] = int(fields[1]) / 1e3
    if len(found) != 2:
        raise RuntimeError(f"no import times for markovbin.core/fit:\n{proc.stderr[-3000:]}")
    return found


def environment(versions: dict) -> dict:
    revision = "unknown"  # an exported checkout has no git metadata
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=10).stdout.strip() or revision
        except OSError:
            pass
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": revision,
    }


def tail_line(op_ms: list[float]) -> str:
    """Median and the highest percentile with at least ten ops beyond it."""
    count = len(op_ms)
    line = f"op_ms: n={count} p50={statistics.median(op_ms):.3f}"
    if count >= 40:
        pct = int(100 * (1 - 10 / count))
        cut = statistics.quantiles(op_ms, n=100)[pct - 1]
        line += f" p{pct}={cut:.3f} (reference only, not gated)"
    return line


def measure(args) -> dict:
    """One run of one workload; returns the printed result and details."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}")
    if args.trace:
        imports = [import_ms() for _ in range(1 if args.smoke else IMPORT_RUNS)]
        _, result = run_process(worker_argv(args, "--trace-file", stem + "-spans.json"))
        units = per_layer_units()
        values = dict.fromkeys(units, 0.0)
        values.update(result["layers"])
        for key in imports[0]:
            values[key] = statistics.median(entry[key] for entry in imports)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        def setup_probe() -> float:
            started, probe = run_process(worker_argv(args, "--setup-only"))
            return probe["first_op_at"] - started

        # Set-up is timed before, in and (but in the smoke mode) after the
        # measuring process, so that the samples span the whole run.
        setups = [setup_probe()]
        started, result = run_process(worker_argv(args))
        setups.append(result["first_op_at"] - started)
        if not args.smoke:
            setups.append(setup_probe())
        done = result["attempted"] - result["failed"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": done / (sum(result["op_ms"]) / 1e3), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(result["op_ms"]), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        result["setup_s_samples"] = setups
    final = {
        "correct": bool(result["run_ok"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": int(args.trace), "environment": environment(result["versions"]),
              "result": final,
              "op_ms": result["op_ms"], "untraced_ms": result.get("untraced_ms"),
              "problems": result["problems"],
              "setup_s_samples": result.get("setup_s_samples")}
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
    return record


def report(record: dict) -> None:
    print("environment: " + json.dumps(record["environment"]))
    result = record["result"]
    print(f"workload {record['workload']}: attempted {result['attempted']} "
          f"failed {result['failed']}")
    for problem in record["problems"]:
        print("problem: " + problem)
    print(tail_line(record["op_ms"]))
    if record["trace"]:
        layer = {name: entry["value"] for name, entry in result["metrics"].items()}
        self_ms = sum(layer[f"{name}.self_ms_per_op"] for name in LAYERS)
        print(f"trace per op: layer self times sum to {self_ms:.3f} ms of a traced op's "
              f"{layer['trace.op_ms']:.3f} ms; the same op untraced took "
              f"{layer['trace.untraced_op_ms']:.3f} ms; the median paired gap is "
              f"{layer['trace.paired_gap_ms']:.3f} ms; {layer['trace.spans_per_op']:.0f} spans "
              f"cost about {layer['trace.overhead_ms_per_op']:.3f} ms")
        gaps = [t - u for t, u in zip(record["op_ms"], record["untraced_ms"])]
        print("paired gaps, traced - untraced, ms: " + " ".join(f"{g:.3f}" for g in gaps))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at small sizes, untraced and traced")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "markovbin", "__init__.py")):
        print(f"no markovbin package under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (0, 1):
                args.workload, args.trace, args.seconds = name, trace, 0
                record = measure(args)
                report(record)
                print(json.dumps(record["result"]))
                ok = ok and record["result"]["correct"] and record["result"]["failed"] == 0
        print(f"smoke: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    record = measure(args)
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
