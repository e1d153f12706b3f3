"""In-memory span tracing of calls into ``mnarmean``, installed from outside
the package.

Each traced call records a span (id, parent id, name, start, end) with
``time.perf_counter``, which reads the system-wide monotonic clock, so spans
taken in worker processes line up with those of the parent.  A wrapper
replaces the function under every name that binds it in any ``mnarmean``
module, because modules import functions by name (``fitting`` binds its own
``fit_propensity``).

Study replications run through ``simulate._parallel_map``.  The tracer wraps
the task function that the pool receives, so each worker records its spans,
counters and CPU time per task and returns them with the task's result; the
parent merges them under the span that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

#: (module, attribute) of every traced call; ``Dataset.take`` is a method
TRACED = (
    ("cli", "main"),
    ("data", "parse_dataset"),
    ("data", "check_identifiability"),
    ("data", "build_design"),
    ("data", "Dataset.take"),
    ("outcome", "fit_least_squares"),
    ("propensity", "fit_propensity"),
    ("mean_response", "estimate_tau"),
    ("inference", "build_sandwich"),
    ("inference", "estimate_sigma_tau"),
    ("fitting", "fit_tau_only"),
    ("fitting", "fit_mean_response"),
    ("bootstrap", "bootstrap_t_ci"),
    ("diagnostics", "ncv_score_test"),
    ("diagnostics", "uss_gof_test"),
    ("ipw", "solve_ipw"),
    ("ipw", "solve_gmm"),
    ("simulate", "generate_dataset"),
    ("simulate", "run_study"),
    ("simulate", "run_coverage_study"),
)

TASK_SPAN = "simulate.task"


def _count_result(counters, name, result):
    """Counters read from a traced call's return value."""
    if name == "propensity.fit_propensity":
        counters["propensity.newton_iterations"] += result.iterations
    elif name == "bootstrap.bootstrap_t_ci":
        counters["bootstrap.resamples_ok"] += result.n_successful
        counters["bootstrap.resamples_requested"] += result.n_resamples_requested
    elif name in ("ipw.solve_ipw", "ipw.solve_gmm"):
        counters["ipw.converged"] += bool(result.converged)
    elif name == "simulate.run_study":
        for row in result:
            counters["simulate.replications"] += row.n_reps
            counters["simulate.reliable"] += row.n_reps - row.ncr


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.counters: defaultdict = defaultdict(float)
        self.stack: list = [None]
        self._next = 0

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def _new_id(self):
        self._next += 1
        return f"{os.getpid()}-{self._next}"

    def call(self, name, fn, args, kwargs):
        sid = self._new_id()
        parent = self.stack[-1]
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end))
        _count_result(self.counters, name, result)
        return result


ACTIVE: Tracer | None = None


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def install() -> Tracer:
    """Wrap every call in TRACED and the study pool; returns the tracer."""
    global ACTIVE
    tracer = Tracer()
    modules = {}
    for mod_name, _ in TRACED:
        modules[mod_name] = importlib.import_module(f"mnarmean.{mod_name}")
    package = [m for k, m in sys.modules.items() if k == "mnarmean" or k.startswith("mnarmean.")]
    for mod_name, attr in TRACED:
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(modules[mod_name], cls_name)
            setattr(cls, meth, _wrap(tracer, name, getattr(cls, meth)))
            continue
        original = getattr(modules[mod_name], attr)
        wrapper = _wrap(tracer, name, original)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    simulate = modules["simulate"]
    simulate._parallel_map = _traced_pool(tracer, simulate._parallel_map)
    ACTIVE = tracer
    return tracer


def _traced_pool(tracer, parallel_map):
    @functools.wraps(parallel_map)
    def traced(fn, items, threads):
        task = functools.partial(_run_task, fn, tracer.pid, tracer.stack[-1])
        out = parallel_map(task, items, threads)
        results = []
        for result, remote in out:
            if remote is not None:
                spans, counters, cpu_s = remote
                tracer.spans.extend(spans)
                for key, value in counters.items():
                    tracer.counters[key] += value
                tracer.counters["simulate.worker_cpu_s"] += cpu_s
            results.append(result)
        return results

    return traced


def _run_task(fn, owner_pid, parent, item):
    """One pool task.  In the process that owns the tracer it is an ordinary
    span; in a worker it returns the spans, counters and CPU time it made."""
    tracer = ACTIVE if ACTIVE is not None else install()
    if os.getpid() == owner_pid:
        return tracer.call(TASK_SPAN, fn, (item,), {}), None
    mark = len(tracer.spans)
    before = dict(tracer.counters)
    tracer.stack = [parent]
    cpu0 = time.process_time()
    result = tracer.call(TASK_SPAN, fn, (item,), {})
    cpu_s = time.process_time() - cpu0
    spans = tracer.spans[mark:]
    del tracer.spans[mark:]
    counters = {k: v - before.get(k, 0.0) for k, v in tracer.counters.items()}
    tracer.counters.clear()
    tracer.counters.update(before)
    return result, (spans, counters, cpu_s)


def summarise(tracer: Tracer) -> dict:
    """Per span name: calls, total seconds, and self seconds (duration minus
    the part of the interval that its direct children cover)."""
    children = defaultdict(list)
    for sid, parent, _, start, end in tracer.spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _, name, start, end in tracer.spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered
    return dict(out)


def write(tracer: Tracer, path) -> None:
    """Spans as JSON lines [id, parent, name, start, end], then the counters."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"counters": dict(tracer.counters)}) + "\n")
