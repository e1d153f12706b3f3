"""Benchmark for mnarmean.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from a traced run.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload in turn, each in its own process.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import spans
import truth

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5

# (metric, unit, workloads on which the layer must do work)
LAYER_METRICS = (
    ("cli.main.total_s", "s", ("fit-large-csv", "boot-t-small")),
    ("data.parse_dataset.total_s", "s", ("fit-large-csv",)),
    ("data.check_identifiability.calls", "count", ("fit-large-csv",)),
    ("data.check_identifiability.total_s", "s", ("fit-large-csv",)),
    ("data.build_design.total_s", "s", ("boot-t-small",)),
    ("data.Dataset.take.total_s", "s", ("boot-t-small",)),
    ("outcome.fit_least_squares.calls", "count", ("boot-t-small",)),
    ("outcome.fit_least_squares.total_s", "s", ("boot-t-small", "study-large-n")),
    ("propensity.fit_propensity.calls", "count", ("boot-t-small",)),
    ("propensity.fit_propensity.self_s", "s", ("boot-t-small", "study-large-n")),
    ("propensity.newton_iterations", "count", ("study-large-n", "boot-t-small")),
    ("mean_response.estimate_tau.total_s", "s", ("boot-t-small",)),
    ("inference.build_sandwich.calls", "count", ("boot-t-small",)),
    ("inference.build_sandwich.total_s", "s", ("boot-t-small", "study-large-n")),
    ("inference.estimate_sigma_tau.total_s", "s", ("boot-t-small",)),
    ("fitting.fit_tau_only.self_s", "s", ("boot-t-small",)),
    ("fitting.fit_mean_response.self_s", "s", ("fit-large-csv",)),
    ("bootstrap.bootstrap_t_ci.self_s", "s", ("boot-t-small",)),
    ("bootstrap.resamples_ok_ratio", "ratio", ("boot-t-small",)),
    ("diagnostics.ncv_score_test.total_s", "s", ("fit-large-csv",)),
    ("diagnostics.uss_gof_test.total_s", "s", ("fit-large-csv",)),
    ("ipw.solve_ipw.calls", "count", ("comparators",)),
    ("ipw.solve_ipw.total_s", "s", ("comparators",)),
    ("ipw.solve_gmm.calls", "count", ("comparators",)),
    ("ipw.solve_gmm.total_s", "s", ("comparators",)),
    ("ipw.converged_ratio", "ratio", ("comparators",)),
    ("simulate.generate_dataset.total_s", "s", ("study-large-n", "comparators")),
    ("simulate.run_study.self_s", "s", ("study-large-n",)),
    ("simulate.run_coverage_study.self_s", "s", ("study-large-n",)),
    ("simulate.worker_cpu_s", "s", ("study-large-n",)),
    ("simulate.reliable_ratio", "ratio", ("study-large-n", "comparators")),
)


def load_program():
    """Import mnarmean from this checkout's src/, and nothing else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mnarmean

    if not os.path.abspath(mnarmean.__file__).startswith(src + os.sep):
        raise ImportError(f"mnarmean imported from {mnarmean.__file__}, not {src}")


def cpu_seconds() -> float:
    """User + system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, n_ops: int) -> dict:
    """Per-layer metrics; times, calls and counts are per operation."""
    summary = spans.summarise(tracer)
    counters = tracer.counters
    derived = {
        "propensity.newton_iterations": counters["propensity.newton_iterations"] / n_ops,
        "bootstrap.resamples_ok_ratio": ratio(
            counters["bootstrap.resamples_ok"], counters["bootstrap.resamples_requested"]
        ),
        "ipw.converged_ratio": ratio(
            counters["ipw.converged"],
            sum(summary.get(f"ipw.{f}", {}).get("calls", 0) for f in ("solve_ipw", "solve_gmm")),
        ),
        "simulate.worker_cpu_s": counters["simulate.worker_cpu_s"] / n_ops,
        "simulate.reliable_ratio": ratio(
            counters["simulate.reliable"], counters["simulate.replications"]
        ),
    }
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name in derived:
            value = derived[name]
        else:
            span, field = name.rsplit(".", 1)
            value = summary.get(span, {}).get(field, 0) / n_ops
        out[name] = {"value": value, "unit": unit}
    return out


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import mnarmean and generate
    and write the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(args) -> dict:
    import workloads  # imports mnarmean

    wl = workloads.WORKLOADS[args.workload](args.seed, WORK)
    wl.prepare()
    if args.setup_only:
        return {}
    problems = [f"reference tau0: {p}" for p in truth.paper_table_mismatches()]
    wl.before()
    tracer = None
    if args.trace:
        tracer = spans.install()
    for i in range(wl.round_len):  # warm-up round, not counted
        wl.op(i)
    if tracer is not None:
        tracer.reset()

    latencies, observations = [], []
    failed = 0
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    while True:
        i = len(latencies)
        latency, op_problems, obs = wl.op(i)
        latencies.append(latency)
        observations.append(obs)
        if op_problems:
            failed += 1
            print(f"operation {i} failed: {'; '.join(op_problems)}", file=sys.stderr)
        if (i + 1) % wl.round_len == 0 and time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    cpu1 = cpu_seconds()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    n_ops = len(latencies)
    ops_per_s = n_ops / elapsed
    if tracer is not None:
        metrics = layer_metrics(tracer, n_ops)  # before the run-level checks call the program
        for name, _, required in LAYER_METRICS:
            if args.workload in required and metrics[name]["value"] == 0:
                problems.append(f"per-layer metric {name} reads 0")
        spans.write(tracer, os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl"))
    problems += wl.after(observations)
    if tracer is None:
        metrics = {
            "setup_s": {"value": time_setup(args.workload, args.seed), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "cpu_s_per_op": {"value": (cpu1 - cpu0) / n_ops, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{n_ops} operations attempted, {failed} failed, {ops_per_s:.4g} ops/s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": n_ops, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process; metrics are keyed workload.metric."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import mnarmean and write the inputs (times set-up)")
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"cannot import mnarmean from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    os.makedirs(WORK, exist_ok=True)
    result = run_all(args) if args.workload == "all" else run(args)
    if args.setup_only:
        return 0
    truth.write_text(
        os.path.join(WORK, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
        json.dumps(result, indent=1),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
