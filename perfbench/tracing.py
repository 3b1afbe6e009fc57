"""Spans recorded around the package's public functions, from outside the package.

A Tracer patches module attributes (the names callers look up at call time),
records one span per call and restores the originals on exit. Spans are kept
in memory: (id, name, start, end, parent, thread, attrs). A layer's self time
is its span time minus the part of that interval its direct child spans cover.
"""

from __future__ import annotations

import csv
import itertools
import threading
import time

import numpy as np


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, sid, name, start, parent, thread, attrs):
        self.sid, self.name, self.start, self.parent = sid, name, start, parent
        self.thread, self.attrs, self.end = thread, attrs, None


class Tracer:
    """Records spans; `patch` installs wrappers until `restore` is called."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._threads = {}
        self._patched = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, **attrs):
        stack = self._stack()
        # a worker thread's first span hangs under the span that started the pool
        parent = stack[-1].sid if stack else (self._main_stack[-1].sid if self._main_stack else None)
        thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
        span = Span(next(self._ids), name, time.perf_counter(), parent, thread, attrs)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def patch(self, module, attr, name, attrs_of=None, after=None):
        """Replace module.attr with a wrapper that records span `name`.

        attrs_of(args, kwargs) gives span attributes; after(result, span, args)
        may return a replacement result (used to wrap drift objects).
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, **(attrs_of(args, kwargs) if attrs_of else {}))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            return after(result, span, args) if after else result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def clear(self):
        self.spans = []

    # --- analysis -------------------------------------------------------------

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def total(self, *names):
        return sum(s.end - s.start for s in self.named(*names))

    def self_time(self, *names):
        """Sum over spans `names` of duration minus the union of direct children."""
        children = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)
        total = 0.0
        for s in self.named(*names):
            covered, cursor = 0.0, s.start
            for lo, hi in sorted((c.start, c.end) for c in children.get(s.sid, ())):
                lo, hi = max(lo, cursor), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            total += (s.end - s.start) - covered
        return total

    def write_csv(self, path, round_index, mode="a"):
        """Append this round's spans: round, id, name, start, end, parent, thread."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, mode, newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            if mode == "w":
                out.writerow(["round", "id", "name", "start_s", "end_s", "parent", "thread"])
            for s in sorted(self.spans, key=lambda s: s.sid):
                parent = "" if s.parent is None else s.parent
                out.writerow([round_index, s.sid, s.name, f"{s.start - t0:.9f}",
                              f"{s.end - t0:.9f}", parent, s.thread])


# --- the package's layers -----------------------------------------------------------

SAMPLER_SPANS = ("samplers.run_ensemble", "metrics.strong_error_curve")
RUN_SPANS = ("samplers.sfs_run", "samplers.ula_run", "samplers.uld_euler_run")
DRIFT_VARIANTS = ("gmm_exact_diag", "gmm_exact_full", "grad_mc", "stein_mc")


def _points(x):
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def drift_variant(fn):
    kind = type(fn).__name__
    if kind == "GmmExactDrift":
        return "gmm_exact_diag" if fn.diagonal else "gmm_exact_full"
    if kind == "SteinMcDrift":
        return "stein_mc" if fn.form == "stein" else "grad_mc"
    return kind.lower()


class TracedDrift:
    """Forwards calls to a drift object, recording one span per evaluation."""

    def __init__(self, tracer, fn):
        self._tracer, self._fn = tracer, fn
        self._name = f"drift.{drift_variant(fn)}"

    def __call__(self, x, t):
        span = self._tracer.open(self._name, chains=_points(x))
        try:
            return self._fn(x, t)
        finally:
            self._tracer.close(span)


def _run_attrs(args, kwargs):
    inc = np.asarray(args[2] if len(args) > 2 else kwargs["increments"])
    b, n, d = (1,) + inc.shape if inc.ndim == 2 else inc.shape
    return {"chains": b, "steps": n, "normals": inc.size, "bytes": inc.nbytes}


def _make_drift_attrs(args, kwargs):
    pool = kwargs.get("pool")
    return {"normals": 0 if pool is None else pool.xi.size}


def _ladder_after(result, span, args):
    span.attrs.update(normals=result.increments.size, bytes=result.increments.nbytes)
    return result


def _path_arg(index):
    def attrs(args, kwargs):
        return {"path": args[index] if len(args) > index else kwargs.get("path")}
    return attrs


def install_sampler_clock(tracer, pkg):
    """Spans on the sampler entry points only: enough for chain-steps per second."""
    samplers, cli = pkg.samplers, pkg.cli
    tracer.patch(samplers, "run_ensemble", "samplers.run_ensemble")
    tracer.patch(cli, "run_ensemble", "samplers.run_ensemble")
    tracer.patch(cli, "strong_error_curve", "metrics.strong_error_curve")


def install_layers(tracer, pkg):
    """Spans at every layer boundary the per-layer metrics need."""
    samplers, metrics, targets, cli = pkg.samplers, pkg.metrics, pkg.targets, pkg.cli
    install_sampler_clock(tracer, pkg)

    def wrap_drift(result, span, args):
        return TracedDrift(tracer, result)

    def points(i):
        return lambda args, kwargs: {"points": _points(args[i])}

    for site, prefix in ((samplers, "samplers"), (metrics, "metrics")):
        tracer.patch(site, "make_drift", f"{prefix}.make_drift", _make_drift_attrs, wrap_drift)
        tracer.patch(site, "sfs_run", f"{prefix}.sfs_run", _run_attrs)
    tracer.patch(samplers, "ula_run", "samplers.ula_run", _run_attrs)
    tracer.patch(samplers, "uld_euler_run", "samplers.uld_euler_run", _run_attrs)
    tracer.patch(samplers, "grad_potential", "targets.grad_potential", points(1))
    tracer.patch(targets, "grad_potential", "targets.grad_potential", points(1))
    tracer.patch(targets, "log_g_beta", "targets.log_g_beta", points(2))
    tracer.patch(metrics, "brownian_ladder_make", "rng.brownian_ladder_make", after=_ladder_after)
    for site in (cli, metrics):
        tracer.patch(site, "w2_1d", "metrics.w2")
        tracer.patch(site, "w2_exact_smalln", "metrics.w2")
        tracer.patch(site, "mode_weights", "metrics.mode_weights")
    tracer.patch(metrics, "moment_stats", "metrics.moment_stats")
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "load_config", "cli.load_config")
    tracer.patch(cli, "write_samples_csv", "output.write", _path_arg(1))
    tracer.patch(cli, "emit_csv", "output.write", _path_arg(2))
    tracer.patch(cli, "write_json", "output.write", _path_arg(1))


def sum_attr(spans, key):
    return sum(s.attrs.get(key, 0) for s in spans)


def layer_metrics(tracer, file_size):
    """Per-layer metrics of one traced round; file_size(path) gives bytes written."""
    t = tracer
    runs = t.named(*RUN_SPANS, "metrics.sfs_run")
    ensemble_runs = t.named(*RUN_SPANS)
    ladders = t.named("rng.brownian_ladder_make")
    drift_builds = t.named("samplers.make_drift", "metrics.make_drift")
    out = {
        "rng.normals": sum_attr(ensemble_runs, "normals") + sum_attr(ladders, "normals")
        + sum_attr(drift_builds, "normals"),
        "rng.noise_bytes": sum_attr(ensemble_runs, "bytes") + sum_attr(ladders, "bytes"),
        "rng.ladder_s": t.total("rng.brownian_ladder_make"),
        "samplers.ensemble_self_s": t.self_time("samplers.run_ensemble"),
        "samplers.sfs_run_self_s": t.self_time("samplers.sfs_run", "metrics.sfs_run"),
        "samplers.langevin_self_s": t.self_time("samplers.ula_run", "samplers.uld_euler_run"),
        "samplers.chain_steps": sum(s.attrs["chains"] * s.attrs["steps"] for s in runs),
    }
    for variant in DRIFT_VARIANTS:
        name = f"drift.{variant}"
        spans = t.named(name)
        self_s = t.self_time(name)
        chain_steps = sum_attr(spans, "chains")
        out[f"{name}.calls"] = len(spans)
        out[f"{name}.self_s"] = self_s
        out[f"{name}.us_per_chain_step"] = 1e6 * self_s / chain_steps if chain_steps else 0.0
    for layer in ("log_g_beta", "grad_potential"):
        name = f"targets.{layer}"
        spans = t.named(name)
        out[f"{name}.calls"] = len(spans)
        out[f"{name}.points"] = sum_attr(spans, "points")
        out[f"{name}.self_s"] = t.self_time(name)
    writes = t.named("output.write")
    out.update({
        "metrics.w2_s": t.total("metrics.w2"),
        "metrics.w2_pairs": len(t.named("metrics.w2")),
        "metrics.mode_weights_s": t.total("metrics.mode_weights"),
        "metrics.strong_error_curve_self_s": t.self_time("metrics.strong_error_curve"),
        "output.write_s": t.total("output.write"),
        "output.bytes_written": sum(file_size(s.attrs["path"]) for s in writes),
        "cli.load_config_s": t.total("cli.load_config"),
    })
    return out
