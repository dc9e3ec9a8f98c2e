"""Span tracing around the public functions of the substat package.

``Tracer.install()`` replaces every public module-level function of the
traced modules, and the public methods of the three estimator classes, with
a wrapper that records a span: name, start, end, thread, id and parent.
Because the package binds many names at import time (``from .geometry
import project_xy``), a function is replaced under every name in every
loaded ``substat`` module that refers to it.  ``uninstall()`` restores the
originals.

Parents come from a thread-local stack.  A span that starts on a thread with
an empty stack (a pool worker) attaches to the innermost open ``run_table*``
or ``fit_theta`` span that was called with more than one thread on another
thread: that call owns the pool.

Spans are kept in memory.  ``Tracer.document()`` turns them into a JSON-ready
trace, and ``layer_metrics()`` derives every per-layer metric of the
benchmark from such a document alone.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import statistics
import sys
import threading
import time

import numpy as np

TRACED_MODULES = ("geometry", "kernels", "estimate", "simulate", "experiments", "io", "cli")
ESTIMATOR_METHODS = {
    "SubstationaryIntensity": ("__init__", "evaluate", "at_points", "integral"),
    "KernelIntensity2D": ("__init__", "evaluate", "at_points", "grid_values", "integral"),
    "StationaryIntensity": ("__init__", "evaluate", "at_points", "integral"),
}
POOL_OWNERS = ("experiments.run_table1", "experiments.run_table2", "estimate.fit_theta")
PROBE_EVERY = 16  # every 16th SubstationaryIntensity.at_points call is checked
PROBE_TARGETS = 64  # at most this many of its targets
MAX_REL_ERR = 1e-8  # accuracy gate for the kernel sum

SUBSTAT = "estimate.SubstationaryIntensity."


def direct_kernel_sums(data, targets, h):
    """Oracle: sum_j phi((data_j - t) / h) / h for each target t, one dense pass."""
    d = (np.asarray(targets, dtype=float)[:, None] - np.asarray(data, dtype=float)[None, :]) / h
    return np.exp(-0.5 * d * d).sum(axis=1) / (h * math.sqrt(2.0 * math.pi))


def oracle_intensity(est, x, y):
    """Substationary estimate at (x, y) with the kernel sum taken by the oracle."""
    from substat.kernels import correction_substat_closed

    c, s = math.cos(est.theta.theta), math.sin(est.theta.theta)
    v_data = est.pattern.y * c - est.pattern.x * s
    v = np.asarray(y) * c - np.asarray(x) * s
    return direct_kernel_sums(v_data, v, est.h) / correction_substat_closed(
        est.theta, est.window, est.h, v
    )


class Tracer:
    """Records spans from wrapped package functions; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, thread, id, parent, attrs]
        self.probes: list[tuple] = []  # (estimator, x, y, returned values)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._at_points_calls = itertools.count()
        self._owners: list[tuple[int, int]] = []  # (span id, thread) of open pool owners
        self._seen: set = set()
        self._keep_alive: list = []  # holds estimators so their ids stay unique
        self._patched: list[tuple] = []
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, owner_threads: int) -> list:
        stack = self._stack()
        thread = threading.get_ident()
        parent = stack[-1][4] if stack else None
        if parent is None:
            with self._lock:
                for span_id, owner_thread in reversed(self._owners):
                    if owner_thread != thread:
                        parent = span_id
                        break
        span = [name, time.perf_counter(), None, thread, next(self._ids), parent, None]
        if owner_threads > 1:
            with self._lock:
                self._owners.append((span[4], thread))
        stack.append(span)
        return span

    def _close(self, span: list, owner_threads: int) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()
        if owner_threads > 1:
            with self._lock:
                self._owners.remove((span[4], span[3]))
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        signature = inspect.signature(fn) if name in POOL_OWNERS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads = 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                threads = bound.arguments["threads"]
            span = tracer._open(name, threads)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, threads)
            if after is not None:
                span[6] = after(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [importlib.import_module(f"substat.{short}") for short in TRACED_MODULES]
        # every loaded package module, so no import during tracing binds a wrapper
        loaded = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "substat"]
        for short, module in zip(TRACED_MODULES, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", obj)
                for other in loaded:
                    for key, value in list(vars(other).items()):
                        if value is obj:
                            self._patched.append((other, key, obj))
                            setattr(other, key, wrapped)
        estimate = importlib.import_module("substat.estimate")
        for cls_name, methods in ESTIMATOR_METHODS.items():
            cls = getattr(estimate, cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"estimate.{cls_name}.{meth}", original))
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def probe_errors(self) -> list[float]:
        """Relative error of each sampled at_points call against the oracle."""
        errors = []
        for est, x, y, got in self.probes:
            want = oracle_intensity(est, x, y)
            errors.append(float(np.max(np.abs(got - want) / np.abs(want))))
        return errors

    def document(self, ops: list[dict], threads: int) -> dict:
        """JSON-ready trace: spans, the timed operations and the probe errors.

        ``threads`` is the workload's thread count.  ``ops`` lists each timed
        operation as ``{"start", "end", "traced", "thread"}`` in perf_counter
        seconds; times are stored relative to the tracer's creation.
        """
        t0 = self.t0
        spans = [
            {
                "name": name,
                "start": start - t0,
                "end": end - t0,
                "thread": thread,
                "id": span_id,
                "parent": parent,
                **({"attrs": attrs} if attrs else {}),
            }
            for name, start, end, thread, span_id, parent, attrs in self.spans
        ]
        spans.sort(key=lambda s: s["start"])
        return {
            "threads": threads,
            "spans": spans,
            "ops": [{**op, "start": op["start"] - t0, "end": op["end"] - t0} for op in ops],
            "probe_rel_errors": self.probe_errors(),
        }


# -- per-function hooks: run after a successful call, return span attributes --


def _substat_init(tracer, args, kwargs, result):
    est = args[0]
    key = (id(est.pattern), est.theta.theta, est.h)
    with tracer._lock:
        repeat = key in tracer._seen
        tracer._seen.add(key)
        tracer._keep_alive.append(est)
    return {"obj": id(est), "repeat": repeat}


def _substat_evaluate(tracer, args, kwargs, result):
    return {"obj": id(args[0]), "pairs": args[0].pattern.n * int(np.size(args[1]))}


def _substat_at_points(tracer, args, kwargs, result):
    if next(tracer._at_points_calls) % PROBE_EVERY == 0:
        est, x, y = args[0], np.atleast_1d(args[1]), np.atleast_1d(args[2])
        got = np.atleast_1d(result)
        pick = np.unique(np.linspace(0, got.size - 1, min(got.size, PROBE_TARGETS)).astype(int))
        tracer.probes.append((est, x[pick].copy(), y[pick].copy(), got[pick].copy()))
    return {"obj": id(args[0])}


def _substat_integral(tracer, args, kwargs, result):
    return {"obj": id(args[0])}


def _cv_scores(tracer, args, kwargs, result):
    """Kernel pairs of the leave-one-out sums (n x n) and, for candidates
    that are not degenerate, of the integral grid (n x cells)."""
    from substat.estimate import bandwidth_cv_scores

    bound = inspect.signature(bandwidth_cv_scores).bind(*args, **kwargs)
    bound.apply_defaults()
    n, cells = bound.arguments["pattern"].n, bound.arguments["integral_cells"]
    return {"pairs": sum(n * n + (n * cells if math.isfinite(s) else 0) for _, s in result)}


def _fit_theta(tracer, args, kwargs, result):
    coarse_best = max(value for _, value in result.trace)
    tracer._local.ise_count = 0  # the next substationary ISE scores the known angle
    return {
        "coarse": len(result.trace),
        "refined": bool(result.loglik > coarse_best),
        "degenerate": bool(result.degenerate),
    }


def _ise(tracer, args, kwargs, result):
    kind = args[0].kind
    if kind == "substationary":
        count = getattr(tracer._local, "ise_count", 0)
        tracer._local.ise_count = count + 1
        kind = "substat_known" if count % 2 == 0 else "substat_fitted"
    return {"estimator": kind}


def _points(tracer, args, kwargs, result):
    pattern = result[0] if isinstance(result, tuple) else result
    return {"points": pattern.n}


def _ingest(tracer, args, kwargs, result):
    return {"rows": result.n}


def _export(tracer, args, kwargs, result):
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    return {"bytes": os.path.getsize(path)}


_AFTER = {
    SUBSTAT + "__init__": _substat_init,
    SUBSTAT + "evaluate": _substat_evaluate,
    SUBSTAT + "at_points": _substat_at_points,
    SUBSTAT + "integral": _substat_integral,
    "estimate.bandwidth_cv_scores": _cv_scores,
    "estimate.fit_theta": _fit_theta,
    "experiments.integrated_squared_error": _ise,
    "simulate.simulate_poisson_beta": _points,
    "simulate.simulate_thomas": _points,
    "io.ingest_csv": _ingest,
    "io.export_intensity_grid": _export,
}


# -- derivation ----------------------------------------------------------------


def _union(intervals) -> float:
    """Total length covered by (lo, hi) intervals."""
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        kids = [(max(c["start"], lo), min(c["end"], hi)) for c in children.get(s["id"], ())]
        out[s["id"]] = (hi - lo) - _union((a, b) for a, b in kids if b > a)
    return out


def layer_metrics(doc: dict) -> dict[str, float]:
    """Every per-layer metric of the benchmark, from one trace document.

    Counts and times are per traced operation, so runs with different
    numbers of operations compare directly.
    """
    spans = doc["spans"]
    traced = [op for op in doc["ops"] if op["traced"]]
    untraced = [op for op in doc["ops"] if not op["traced"]]
    n_ops = max(1, len(traced))
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def calls(name):
        return len(named(name)) / n_ops

    def busy(name):
        return sum(s["end"] - s["start"] for s in named(name)) / n_ops

    def self_s(name):
        return sum(selfs[s["id"]] for s in named(name)) / n_ops

    def attr_sum(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in named(name))

    m: dict[str, float] = {}
    for name in (SUBSTAT + "evaluate", "kernels.correction_substat_closed"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.self_s"] = self_s(name)
    # direct kernel sums: the estimator's evaluate calls and the CV scores
    kernel_sums = (SUBSTAT + "evaluate", "estimate.bandwidth_cv_scores")
    pairs = sum(attr_sum(name, "pairs") for name in kernel_sums)
    m["estimate.kernel_pairs"] = pairs / n_ops
    sum_s = sum(self_s(name) for name in kernel_sums) * n_ops
    m["estimate.kernel_pairs_per_s"] = pairs / sum_s if sum_s > 0 else 0.0
    for name in (
        SUBSTAT + "at_points",
        SUBSTAT + "integral",
        "estimate.fit_theta",
        "estimate.KernelIntensity2D.grid_values",
        "geometry.project_xy",
        "geometry.v_range",
        "geometry.chord_measure",
        "geometry.chord_segments",
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    for name in (
        "estimate.bandwidth_cv_scores",
        "estimate.loglik",
        "simulate.simulate_poisson_beta",
        "io.ingest_csv",
        "io.export_intensity_grid",
    ):
        m[f"{name}.busy_s"] = busy(name)
    m["cli.main.busy_s"] = busy("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")

    # one profile evaluation: the point term and the integral of one estimator
    per_obj: dict[int, float] = {}
    for name in (SUBSTAT + "at_points", SUBSTAT + "integral"):
        for s in named(name):
            obj = s["attrs"]["obj"]
            per_obj[obj] = per_obj.get(obj, 0.0) + s["end"] - s["start"]
    paired = {s["attrs"]["obj"] for s in named(SUBSTAT + "at_points")} & {
        s["attrs"]["obj"] for s in named(SUBSTAT + "integral")
    }
    m["estimate.profile_eval_s"] = statistics.median(per_obj[o] for o in paired) if paired else 0.0

    # fit phases: estimators built under a fit, in start order; the first
    # `coarse` of them are the coarse grid, the rest golden-section probes
    def enclosing_fit(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == "estimate.fit_theta":
                return s["id"]
        return None

    builds: dict[int, list] = {}
    for s in named(SUBSTAT + "__init__"):
        fit = enclosing_fit(s)
        if fit is not None:
            builds.setdefault(fit, []).append(s["start"])
    fits = named("estimate.fit_theta")
    evals = golden = coarse_s = golden_s = 0.0
    for fit in fits:
        starts = sorted(builds.get(fit["id"], []))
        n_coarse = fit["attrs"]["coarse"]
        evals += len(starts)
        golden += max(0, len(starts) - n_coarse)
        split = starts[n_coarse] if len(starts) > n_coarse else fit["end"]
        coarse_s += split - fit["start"]
        golden_s += fit["end"] - split
    m["estimate.fit_theta.profile_evals"] = evals / n_ops
    m["estimate.fit_theta.golden_evals"] = golden / n_ops
    m["estimate.fit_theta.coarse_s"] = coarse_s / n_ops
    m["estimate.fit_theta.golden_s"] = golden_s / n_ops
    m["estimate.fit_theta.refined_frac"] = (
        sum(f["attrs"]["refined"] for f in fits) / len(fits) if fits else 0.0
    )
    m["estimate.fit_theta.degenerate"] = sum(f["attrs"]["degenerate"] for f in fits) / n_ops

    inits = named(SUBSTAT + "__init__")
    m["estimate.repeat_eval_frac"] = (
        sum(s["attrs"]["repeat"] for s in inits) / len(inits) if inits else 0.0
    )
    errors = doc["probe_rel_errors"]
    m["estimate.at_points.max_rel_err"] = max(errors) if errors else 0.0

    for label in ("substat_known", "substat_fitted", "kernel2d", "stationary"):
        spent = sum(
            s["end"] - s["start"]
            for s in named("experiments.integrated_squared_error")
            if s["attrs"]["estimator"] == label
        )
        m[f"experiments.ise.{label}.busy_s"] = spent / n_ops

    # replication work: per thread, the time the run's child spans cover
    work = capacity = 0.0
    for name in ("experiments.run_table1", "experiments.run_table2"):
        for run in named(name):
            per_thread: dict[int, list] = {}
            for s in spans:
                if s["parent"] == run["id"]:
                    per_thread.setdefault(s["thread"], []).append((s["start"], s["end"]))
            work += sum(_union(v) for v in per_thread.values())
            capacity += doc["threads"] * (run["end"] - run["start"])
    m["experiments.busy_frac"] = work / capacity if capacity > 0 else 0.0

    m["simulate.points"] = attr_sum("simulate.simulate_poisson_beta", "points") / n_ops
    ingest_s = busy("io.ingest_csv") * n_ops
    m["io.ingest_csv.rows_per_s"] = attr_sum("io.ingest_csv", "rows") / ingest_s if ingest_s else 0.0
    m["io.export_intensity_grid.bytes"] = attr_sum("io.export_intensity_grid", "bytes") / n_ops

    def median_wall(ops):
        return statistics.median(op["end"] - op["start"] for op in ops)

    m["trace.overhead_frac"] = (
        median_wall(traced) / median_wall(untraced) - 1.0 if traced and untraced else 0.0
    )
    # per thread and traced operation, the part of its active time that no
    # span covers: the whole operation on the client thread, first span start
    # to last span end on a pool thread
    active = uncovered = 0.0
    for op in traced:
        per_thread: dict[int, list] = {op["thread"]: []}
        for s in spans:
            if s["end"] > op["start"] and s["start"] < op["end"]:
                per_thread.setdefault(s["thread"], []).append(
                    (max(s["start"], op["start"]), min(s["end"], op["end"]))
                )
        for thread, intervals in per_thread.items():
            if thread == op["thread"]:
                window = op["end"] - op["start"]
            else:
                window = max(b for _, b in intervals) - min(a for a, _ in intervals)
            active += window
            uncovered += window - _union(intervals)
    m["trace.unattributed_frac"] = uncovered / active if active > 0 else 0.0
    return m
