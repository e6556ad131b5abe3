"""Benchmark of the frobenius3 command line, end to end and per layer.

    python3 perfbench/run.py --workload random-100d --seed 1 --seconds 20 --trace 0

runs one workload in this process: a closed loop with one caller that sends
each operation of the workload's round through `frobenius3.cli.main`, with
stdout captured, after one untimed warm-up operation, and repeats whole
rounds until --seconds have passed. Each operation's time is its fastest
over the rounds (see best_times). Every output is checked against an
answer computed in perfbench/reference.py; a wrong answer stops the run
with exit code 1 and no result. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones from spans (perfbench/spans.py). Without
--workload, every workload runs once untraced and once traced, each in a
fresh process, and a table with the tracing overhead follows.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --out DIR also writes the run record
(machine, failures by type, operation times, spans) to DIR.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Imports timed before and again after the timed phase (after one warm-up),
# so that a slow spell of the host moves only part of them.
SETUP_RUNS = 10
# numpy's OpenBLAS starts a thread pool when it loads unless told otherwise
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import frobenius3.cli; print(time.perf_counter() - t)")

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from reference import frobenius_g  # noqa: E402


def import_times(runs: int) -> list:
    """Seconds to import frobenius3.cli, each in a fresh interpreter."""
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_TIMER, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "commit": commit}


def run_op(main, op):
    """(seconds, failure or None, certified results) of one operation."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(op.argv))
    except Exception as exc:  # an operation that raises counts as failed, by type
        return time.perf_counter() - start, type(exc).__name__, 0
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit {code}", 0
    return elapsed, None, op.check(out.getvalue())


def check_g(results, known: dict):
    """Compare every g that solver.frobenius returned with the reference."""
    for gens, g, _ in results:
        if gens not in known:
            known[gens] = frobenius_g(*gens)
        if g != known[gens]:
            raise workloads.WrongAnswer(f"g of {gens} is {g}, reference {known[gens]}")


def best_times(times: list, round_len: int) -> list:
    """Each operation's fastest time over the run's rounds.

    The host's speed changes in phases of seconds, during which every
    operation takes up to 1.7 times as long; an operation's fastest
    repetition is the least disturbed by them. A run of one round keeps its
    times as they are.
    """
    return [min(times[i::round_len]) for i in range(round_len)]


def measure(ops, main, seconds: float, tracer=None) -> dict:
    """Warm up on the first operation, then run whole rounds for `seconds`."""
    known = {}
    run_op(main, ops[0])
    times, per_op, failures, results = [], [], Counter(), 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            elapsed, failure, certified = run_op(main, op)
            times.append(elapsed)
            results += certified
            if failure is not None:
                failures[failure] += 1
            if tracer is not None:
                per_op.append(tracer.end_op())
                check_g(per_op[-1].results, known)
    return {"times": times, "per_op": per_op, "failures": failures, "results": results}


def run_workload(args) -> dict:
    if not (SRC / "frobenius3" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'frobenius3'} not found; run from a frobenius3 checkout")
    setup = [] if args.trace else import_times(SETUP_RUNS + 1)[1:]
    sys.path.insert(0, str(SRC))
    from frobenius3 import cli
    import spans

    ops = workloads.make_round(args.workload, args.seed)
    if args.trace:
        tracer = spans.Tracer()
        with tracer.installed() as main:
            run = measure(ops, main, args.seconds, tracer)
        metrics = spans.layer_metrics(run["per_op"])
        metrics["traced.op_ms_p50"] = 1000 * statistics.median(best_times(run["times"], len(ops)))
        units = {name: spans.unit(name) for name in metrics}
    else:
        tracer = None
        run = measure(ops, cli.main, args.seconds)
        setup += import_times(SETUP_RUNS)
        best = best_times(run["times"], len(ops))
        rounds = len(run["times"]) // len(ops)
        metrics = {
            "setup_s": statistics.median(setup),
            "op_ms_p50": 1000 * statistics.median(best),
            "results_per_s": run["results"] / rounds / sum(best),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "op_ms_p50": "ms", "results_per_s": "1/s", "peak_rss_mb": "MB"}
    failed = sum(run["failures"].values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "round": len(ops),
        "attempted": len(run["times"]), "failed": failed,
        "failures": dict(run["failures"]), "results": run["results"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "op_seconds": run["times"],
    }
    if tracer is not None:
        record["spans"] = {"fields": ["op", "id", "parent", "name", "start", "end"],
                           "kept": tracer.spans, "dropped": tracer.dropped}
    return record


def print_record(record):
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}"
          f"  trace {record['trace']}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for name, m in record["metrics"].items():
        print(f"  {name:36} {m['value']:14.6g} {m['unit']}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}"
          f"  failures {json.dumps(record['failures'])}")


def run_all(args) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    rows = []
    for workload in workloads.WORKLOADS:
        p50 = {}
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.out:
                cmd += ["--out", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                return proc.returncode
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            p50[trace] = metrics["traced.op_ms_p50" if trace else "op_ms_p50"]["value"]
        rows.append((workload, p50[0], p50[1]))
    print(f"{'workload':16} {'op_ms_p50':>10} {'traced':>10} {'overhead':>9}")
    for workload, plain, traced in rows:
        print(f"{workload:16} {plain:10.3f} {traced:10.3f} {traced / plain - 1:9.1%}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="DIR", help="also write the run record here")
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD)
    if args.workload is None:
        return run_all(args)
    try:
        record = run_workload(args)
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = Path(args.out) / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record))
    print_record(record)
    print(json.dumps({"correct": True, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
