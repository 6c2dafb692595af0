"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps the public functions of each mmzi layer (and the model
classes' ``prob_batch``) from outside the package: every module of the
package that holds a reference to a wrapped function, whether it defines
or imports it, gets the wrapper, so ``adaptive.build_model`` and
``cli.scan_grid`` are traced like ``probes.build_model``.  ``optics`` only
builds fixed splitter matrices once per model and is not traced.

A span is [name, start, end, parent, group, n, m, error]: ``parent`` is
the index of the enclosing span (-1 for a root), ``group`` the index of
the CLI call or protocol repetition the span belongs to, ``n`` and ``m``
counts taken from the call (points evaluated, cells scanned and singular,
bytes written, ...) and ``error`` the name of the exception it raised, if
any.  Spans stay in memory until ``save``.  A traced name the package no
longer has is skipped and listed in ``missing``.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

KINDS = {"FockProbeModel": "fock", "DistinguishableProbeModel": "distinguishable",
         "CoherentProbeModel": "coherent"}
GROUP_ROOTS = ("cli.main", "adaptive.run_protocol")


def _points(args, kwargs, result):
    return result[0].shape[0], 0


# (defining module, function, count taken from the call)
FUNCTIONS = (
    ("mmzi.cli", "main", None),
    ("mmzi.adaptive", "monte_carlo", None),
    ("mmzi.adaptive", "run_protocol", None),
    ("mmzi.adaptive", "log_likelihood", None),
    ("mmzi.adaptive", "sample_outcomes", None),
    ("mmzi.landscape", "scan_grid", lambda a, k, r: (r.tr_finv.size, r.singular_count())),
    ("mmzi.landscape", "find_working_points", lambda a, k, r: (len(r), 0)),
    ("mmzi.landscape", "export_grid", lambda a, k, r: (os.path.getsize(a[1]), 0)),
    # private, but it is where scans read the gradients they asked for
    ("mmzi.landscape", "_fim_components", _points),
    ("mmzi.fisher", "fisher_matrix", None),
    ("mmzi.fisher", "invert_fisher", lambda a, k, r: (int(r.singular), 0)),
    ("mmzi.fisher", "qfim_for_probe", None),
    ("mmzi.probes", "build_model", None),
    ("mmzi.fock", "sector_unitary", None),
    ("mmzi.fock", "permanent", None),
)


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mmzi" or name.startswith("mmzi."))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []  # (owner, attribute, original)
        self._originals: list = []
        self.missing: list = []

    def _record(self, name, fn, count):
        spans, stack = self.spans, self._stack
        group_root = name in GROUP_ROOTS

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            group = index if (group_root or parent < 0) else spans[parent][4]
            span = [name, perf_counter(), 0.0, parent, group, 0, 0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[7] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5:7] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A root span around benchmark code, such as model set-up."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        group = index if parent < 0 else self.spans[parent][4]
        self.spans.append([name, perf_counter(), 0.0, parent, group, 0, 0, None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def install(self):
        import importlib

        for modname, attr, count in FUNCTIONS:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._record(f"{modname[5:]}.{attr}", original, count)
            self._originals.append(original)
            for mod in package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        probes = importlib.import_module("mmzi.probes")
        for cls_name, kind in KINDS.items():
            cls = getattr(probes, cls_name)
            original = cls.__dict__["prob_batch"]
            setattr(cls, "prob_batch", self._record(f"probes.prob_batch.{kind}", original, _points))
            self._originals.append(original)
            self._restore.append((cls, "prob_batch", original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        self._originals.clear()

    def unpatched_sites(self) -> list[str]:
        """Module attributes that still hold an unwrapped traced function."""
        originals = {id(f) for f in self._originals}
        return [f"{mod.__name__}.{key}" for mod in package_modules()
                for key, value in vars(mod).items() if id(value) in originals]

    def save(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        errors = sorted({s[7] for s in self.spans if s[7]})
        np.savez_compressed(
            path,
            names=np.array(names),
            errors=np.array(errors),
            name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            group=np.array([s[4] for s in self.spans], dtype=np.int64),
            n=np.array([s[5] for s in self.spans], dtype=np.int64),
            m=np.array([s[6] for s in self.spans], dtype=np.int64),
            error=np.array([errors.index(s[7]) if s[7] else -1 for s in self.spans],
                           dtype=np.int32),
        )


# Per-layer metrics: name, unit, better.  Each one's end-to-end metric and
# workload are listed in bench/README.md.
LAYER_METRICS = (
    [(f"probes.prob_batch.{kind}.{size}.{stat}", unit, "lower")
     for kind in KINDS.values() for size in ("single", "batch")
     for stat, unit in (("calls", "count"), ("points", "count"), ("busy_s", "s"))]
    + [(f"probes.prob_batch.{kind}.batch.us_per_point", "us", "lower") for kind in KINDS.values()]
    + [
        ("probes.grad_use_ratio", "ratio", "higher"),
        ("probes.build_model.calls", "count", "lower"),
        ("probes.build_model.busy_s", "s", "lower"),
        ("adaptive.run_protocol.calls", "count", "higher"),
        ("adaptive.run_protocol.p50_s", "s", "lower"),
        ("adaptive.run_protocol.tail_s", "s", "lower"),
        ("adaptive.run_protocol.self_s", "s", "lower"),
        ("adaptive.log_likelihood.calls", "count", "lower"),
        ("adaptive.log_likelihood.busy_s", "s", "lower"),
        ("adaptive.sample_outcomes.calls", "count", "lower"),
        ("fisher.fisher_matrix.calls", "count", "lower"),
        ("fisher.fisher_matrix.busy_s", "s", "lower"),
        ("fisher.fisher_matrix.singular_support", "count", "lower"),
        ("fisher.invert_fisher.calls", "count", "lower"),
        ("fisher.invert_fisher.singular", "count", "lower"),
        ("fisher.qfim_for_probe.busy_s", "s", "lower"),
        ("landscape.scan_grid.busy_s", "s", "lower"),
        ("landscape.scan_grid.self_s", "s", "lower"),
        ("landscape.scan_grid.cells", "count", "higher"),
        ("landscape.scan_grid.singular_cells", "count", "lower"),
        ("landscape.find_working_points.busy_s", "s", "lower"),
        ("landscape.find_working_points.minima", "count", "lower"),
        ("landscape.find_working_points.prob_batch_calls", "count", "lower"),
        ("landscape.export_grid.busy_s", "s", "lower"),
        ("landscape.export_grid.bytes", "bytes", "lower"),
        ("fock.sector_unitary.calls", "count", "lower"),
        ("fock.sector_unitary.misses", "count", "lower"),
        ("fock.permanent.calls", "count", "lower"),
        ("fock.permanent.busy_s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def tail_value(durations) -> float:
    """Highest percentile with at least ten samples beyond it (0 if < 11)."""
    d = np.sort(np.asarray(durations, dtype=float))
    return float(d[-11]) if len(d) >= 11 else 0.0


def layer_metrics(spans, overhead_s: float) -> dict:
    """Per-layer values over the recorded spans."""
    names = np.array([s[0] for s in spans], dtype=object)
    start = np.array([s[1] for s in spans], dtype=float)
    end = np.array([s[2] for s in spans], dtype=float)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    n = np.array([s[5] for s in spans], dtype=float)
    m = np.array([s[6] for s in spans], dtype=float)
    err = np.array([s[7] for s in spans], dtype=object)
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    child_count = np.bincount(parent[has_parent], minlength=len(spans))
    self_time = dur - child_time

    def sel(name):
        return names == name

    out = {}
    for kind in KINDS.values():
        batches = sel(f"probes.prob_batch.{kind}")
        for size, pick in (("single", batches & (n == 1)), ("batch", batches & (n > 1))):
            out[f"probes.prob_batch.{kind}.{size}.calls"] = int(pick.sum())
            out[f"probes.prob_batch.{kind}.{size}.points"] = int(n[pick].sum())
            out[f"probes.prob_batch.{kind}.{size}.busy_s"] = float(dur[pick].sum())
        points = out[f"probes.prob_batch.{kind}.batch.points"]
        out[f"probes.prob_batch.{kind}.batch.us_per_point"] = (
            1e6 * out[f"probes.prob_batch.{kind}.batch.busy_s"] / points if points else 0.0)
    evaluated = sum(out[f"probes.prob_batch.{k}.{s}.points"]
                    for k in KINDS.values() for s in ("single", "batch"))
    grads_read = int(sel("fisher.fisher_matrix").sum()) + int(n[sel("landscape._fim_components")].sum())
    out["probes.grad_use_ratio"] = grads_read / evaluated if evaluated else 0.0
    for name in ("probes.build_model", "adaptive.log_likelihood", "fisher.fisher_matrix",
                 "fock.permanent"):
        out[f"{name}.calls"] = int(sel(name).sum())
    for name in ("probes.build_model", "adaptive.log_likelihood", "fisher.fisher_matrix",
                 "fock.permanent", "fisher.qfim_for_probe", "landscape.scan_grid",
                 "landscape.find_working_points", "landscape.export_grid"):
        out[f"{name}.busy_s"] = float(dur[sel(name)].sum())
    runs = sel("adaptive.run_protocol")
    out["adaptive.run_protocol.calls"] = int(runs.sum())
    out["adaptive.run_protocol.p50_s"] = float(np.median(dur[runs])) if runs.any() else 0.0
    out["adaptive.run_protocol.tail_s"] = tail_value(dur[runs])
    out["adaptive.run_protocol.self_s"] = float(self_time[runs].sum())
    out["adaptive.sample_outcomes.calls"] = int(sel("adaptive.sample_outcomes").sum())
    out["fisher.fisher_matrix.singular_support"] = int(
        (sel("fisher.fisher_matrix") & (err == "SingularSupportError")).sum())
    inverts = sel("fisher.invert_fisher")
    out["fisher.invert_fisher.calls"] = int(inverts.sum())
    out["fisher.invert_fisher.singular"] = int(n[inverts].sum())
    scans = sel("landscape.scan_grid")
    out["landscape.scan_grid.self_s"] = float(self_time[scans].sum())
    out["landscape.scan_grid.cells"] = int(n[scans].sum())
    out["landscape.scan_grid.singular_cells"] = int(m[scans].sum())
    finds = np.flatnonzero(sel("landscape.find_working_points"))
    out["landscape.find_working_points.minima"] = int(n[finds].sum())
    out["landscape.find_working_points.prob_batch_calls"] = _descendant_count(
        names, parent, finds, "probes.prob_batch.")
    out["landscape.export_grid.bytes"] = int(n[sel("landscape.export_grid")].sum())
    sectors = sel("fock.sector_unitary")
    out["fock.sector_unitary.calls"] = int(sectors.sum())
    # a miss computes the sector matrix, so it has child (permanent) spans
    out["fock.sector_unitary.misses"] = int((sectors & (child_count > 0)).sum())
    mains = sel("cli.main")
    out["cli.main.calls"] = int(mains.sum())
    out["cli.main.self_s"] = float(self_time[mains].sum())
    out["trace.overhead_s"] = float(overhead_s)
    return out


def _descendant_count(names, parent, roots, prefix) -> int:
    """Spans whose name starts with ``prefix`` below any of ``roots``."""
    inside = np.zeros(len(names), dtype=bool)
    inside[roots] = True
    for i in range(len(names)):  # parents precede their children
        if parent[i] >= 0 and inside[parent[i]]:
            inside[i] = True
    inside[roots] = False
    return int(sum(1 for i in np.flatnonzero(inside) if str(names[i]).startswith(prefix)))
