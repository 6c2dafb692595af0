"""Phase-landscape scans: sensitivity metrics over the (phi1, phi2) torus,
working-point location and refinement, stability of the neighbourhood of a
working point, and grid import/export.

A cell is flagged singular when the 2x2 information matrix fails the shared
condition-number/determinant thresholds, or when some outcome probability
vanishes with a non-vanishing gradient (diverging information).  Singular
cells carry NaN metrics and are legitimate values, not errors.

A scan evaluates the torus in ``SCAN_CHUNK``-point chunks, which bound the
memory of its Fisher arrays.  Scans and polishes run in the calling process.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import fisher
from .optics import Interferometer, TWO_PI
from .probes import FockProbeModel, Probe, build_model
from .simplex import nelder_mead

GRID_SCHEMA_VERSION = 1

CSV_COLUMNS = ("phi1", "phi2", "tr_finv", "finv11", "finv22", "detF", "singular")

SCAN_CHUNK = 8192  # phase points per fim_batch call of a scan
WORKPOINT_DEDUP_TOL = 1e-3  # working points closer than this (radians) merge
# one CSV cell in csv.writer's default (excel) dialect: no field written
# here contains a delimiter, quote or line break, so none is quoted
_CSV_CELL = ",".join(["%.17g"] * 6 + ["%d"]) + "\r\n"


def _fim_components(model, points):
    """The 2x2 Fisher entries (f11, f22, f12) and the support-bad flag of
    ``model.fim_batch`` at phase points (the model reduces them modulo 2pi).
    A function of its own because the benchmark's tracer counts the points a
    scan reads here."""
    f, support_bad = model.fim_batch(points)
    return f[:, 0, 0], f[:, 1, 1], f[:, 0, 1], support_bad


def _classify_2x2(f11, f22, f12, support_bad):
    """Determinant, condition number and singular flag per cell."""
    det = f11 * f22 - f12**2
    half_trace = 0.5 * (f11 + f22)
    disc = np.sqrt(np.maximum((0.5 * (f11 - f22)) ** 2 + f12**2, 0.0))
    lmax = np.abs(half_trace + disc)
    lmin = np.abs(half_trace - disc)
    cond = np.where(lmin > 0.0, lmax / np.maximum(lmin, 1e-300), np.inf)
    singular = (support_bad | (cond >= fisher.COND_THRESHOLD)
                | (np.abs(det) < fisher.DET_THRESHOLD))
    det = np.where(support_bad, np.nan, det)
    return det, cond, singular


def _inverse_metrics(model, points):
    """Tr F^-1, [F^-1]_11, [F^-1]_22, det F and the singular flag at each
    phase point (any real phases: the model reduces them modulo 2pi); the
    inverse metrics are NaN where singular."""
    f11, f22, f12, bad = _fim_components(model, points)
    det, _cond, singular = _classify_2x2(f11, f22, f12, bad)
    safe_det = np.where(singular, 1.0, det)
    tr, i11, i22 = np.where(singular, np.nan, np.array([f11 + f22, f22, f11]) / safe_det)
    return tr, i11, i22, det, singular


def _mesh(axes) -> np.ndarray:
    """Points [n, len(axes)] of the grid spanned by ``axes``, last axis fastest."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Mask of the cells not below any of their 3^ndim - 1 neighbours, with
    every axis periodic: each neighbour is a slice of ``values`` padded
    once by one wrapped cell per side."""
    padded = np.pad(values, 1, mode="wrap")
    is_max = np.ones(values.shape, dtype=bool)
    for shifts in np.ndindex(*([3] * values.ndim)):
        if all(s == 1 for s in shifts):
            continue
        is_max &= values >= padded[tuple(slice(s, s + n) for s, n in zip(shifts, values.shape))]
    return is_max


@dataclass(eq=False)
class LandscapeGrid:
    """Sensitivity metrics on a uniform [0, 2pi)^2 grid.

    Arrays are indexed [i, j] for phases (phi1[i], phi2[j]).  Metric arrays
    hold NaN where ``singular`` is True.  ``model`` is the probability model
    used to build the grid; it enables refinement and is not serialized.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    tr_finv: np.ndarray
    finv11: np.ndarray
    finv22: np.ndarray
    det_f: np.ndarray
    singular: np.ndarray
    model: object | None = field(default=None, repr=False)

    @property
    def resolution(self) -> tuple[int, int]:
        return len(self.phi1), len(self.phi2)

    def singular_count(self) -> int:
        return int(self.singular.sum())

    def min_trace(self) -> float:
        return float(np.nanmin(self.tr_finv))


def scan_grid(interf: Interferometer, probe: Probe, resolution: int = 256) -> LandscapeGrid:
    """Scan the full (phi1, phi2) torus at uniform spacing 2pi/resolution."""
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    model = build_model(interf, probe)
    axis = np.arange(resolution) * TWO_PI / resolution
    points = _mesh([axis, axis])
    chunks = [_inverse_metrics(model, points[start:start + SCAN_CHUNK])
              for start in range(0, len(points), SCAN_CHUNK)]
    tr, i11, i22, det, singular = (
        np.concatenate(part).reshape(resolution, resolution) for part in zip(*chunks)
    )
    return LandscapeGrid(
        phi1=axis,
        phi2=axis.copy(),
        tr_finv=tr,
        finv11=i11,
        finv22=i22,
        det_f=det,
        singular=singular,
        model=model,
    )


@dataclass(frozen=True)
class WorkingPoint:
    phases: tuple[float, float]
    tr_finv: float
    finv11: float
    finv22: float


def _point_metrics(model):
    """``metrics_at(x)``: (Tr F^-1, [F^-1]_11, [F^-1]_22) at one phase point
    x [2] (the model reduces it modulo 2pi), or None where singular; bit for bit
    ``_inverse_metrics(model, x[None, :])``.  Fock models take the Fisher
    entries from ``FockProbeModel._fim_at``, built here once, others from
    ``_fim_components``.  The 2x2 part repeats ``_classify_2x2`` on Python
    floats operation for operation: ``h * h`` is numpy's ``h**2`` (``pow``
    rounds differently), and ``max(x, 0.0)`` lets NaN through."""
    if isinstance(model, FockProbeModel):
        fim_at = model._fim_at()
    else:
        def fim_at(x):
            return [v.item() for v in _fim_components(model, x[None, :])]

    def metrics_at(x):
        f11, f22, f12, support_bad = fim_at(x)
        det = f11 * f22 - f12 * f12
        half_trace = 0.5 * (f11 + f22)
        half_gap = 0.5 * (f11 - f22)
        disc = math.sqrt(max(half_gap * half_gap + f12 * f12, 0.0))
        lmax = abs(half_trace + disc)
        lmin = abs(half_trace - disc)
        cond = lmax / max(lmin, 1e-300) if lmin > 0.0 else math.inf
        if support_bad or cond >= fisher.COND_THRESHOLD or abs(det) < fisher.DET_THRESHOLD:
            return None
        return (f11 + f22) / det, f22 / det, f11 / det

    return metrics_at


def _trace_objective(metrics_at):
    """The polish objective: Tr F^-1 from a ``_point_metrics`` evaluator,
    1e12 where the cell is singular."""
    def objective(x):
        metrics = metrics_at(x)
        return 1e12 if metrics is None else metrics[0]

    return objective


def _working_point(metrics_at, x) -> WorkingPoint | None:
    metrics = metrics_at(x)
    if metrics is None:
        return None
    return WorkingPoint((float(np.mod(x[0], TWO_PI)), float(np.mod(x[1], TWO_PI))), *metrics)


def circular_distance(a, b) -> float:
    """Euclidean distance on the torus between two phase pairs."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % TWO_PI
    d = np.minimum(d, TWO_PI - d)
    return float(np.hypot(*d))


def _grid_local_minima(grid: LandscapeGrid) -> list[tuple[int, int]]:
    values = np.where(grid.singular, np.inf, grid.tr_finv)
    if not np.isfinite(values).any():
        raise ValueError("all grid cells are singular")
    is_min = _local_maxima(-values) & np.isfinite(values)
    return [tuple(idx) for idx in np.argwhere(is_min)]


def find_working_points(grid: LandscapeGrid, refine_tol: float = 1e-5) -> list[WorkingPoint]:
    """Local minima of Tr[F^-1], polished by simplex descent.

    Minima are deduplicated within ``WORKPOINT_DEDUP_TOL`` radians on the torus and
    returned sorted ascending by the trace metric.  A constant landscape
    (every cell tied) collapses to the single grid-origin corner point.
    When the grid was loaded from a file and carries no model, the grid
    minima are returned without refinement.
    """
    def cell(i, j) -> WorkingPoint:
        return WorkingPoint((float(grid.phi1[i]), float(grid.phi2[j])),
                            float(grid.tr_finv[i, j]), float(grid.finv11[i, j]),
                            float(grid.finv22[i, j]))

    finite = grid.tr_finv[~grid.singular]
    if finite.size and float(np.nanmax(finite) - np.nanmin(finite)) < 1e-12:
        corner = (
            _working_point(_point_metrics(grid.model), np.array([grid.phi1[0], grid.phi2[0]]))
            if grid.model is not None
            else cell(0, 0)
        )
        return [corner] if corner is not None else []
    candidates = _grid_local_minima(grid)
    if grid.model is None:
        points = [cell(i, j) for i, j in candidates]
    else:
        metrics_at = _point_metrics(grid.model)
        objective = _trace_objective(metrics_at)
        points = []
        for i, j in candidates:
            x, _fun = nelder_mead(objective, np.array([grid.phi1[i], grid.phi2[j]]),
                                  xatol=refine_tol, fatol=1e-12, maxiter=600)
            wp = _working_point(metrics_at, x)
            if wp is not None:
                points.append(wp)
    points.sort(key=lambda w: w.tr_finv)
    kept: list[WorkingPoint] = []
    for wp in points:
        if all(circular_distance(wp.phases, other.phases) > WORKPOINT_DEDUP_TOL for other in kept):
            kept.append(wp)
    return kept


@dataclass(frozen=True)
class StabilityReport:
    center: tuple[float, float]
    delta: float
    n_samples: int
    singular_count: int
    min_abs_det: float


def stability_region(interf: Interferometer, probe: Probe, center, delta: float,
                     n_samples: int = 1000) -> StabilityReport:
    """Sample a disc of radius ``delta`` around ``center`` and report how
    many samples are singular-flagged plus the minimum |det F| seen.

    Sampling is a deterministic sunflower spiral, quasi-uniform over the
    disc, so reports are reproducible without a seed.
    """
    if not (isinstance(delta, numbers.Real) and math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be a finite number > 0, got {delta!r}")
    if not (isinstance(n_samples, numbers.Integral) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    center = np.asarray(center, dtype=float)
    if center.shape != (2,) or not np.isfinite(center).all():
        raise ValueError(f"center must be two finite phases, got {center}")
    model = build_model(interf, probe)
    k = np.arange(1, n_samples + 1)
    radius = delta * np.sqrt((k - 0.5) / n_samples)
    angle = k * math.pi * (3.0 - math.sqrt(5.0))
    points = np.column_stack(
        [center[0] + radius * np.cos(angle), center[1] + radius * np.sin(angle)]
    )
    _tr, _i11, _i22, det, singular = _inverse_metrics(model, points)
    return StabilityReport(
        center=(float(center[0]), float(center[1])),
        delta=float(delta),
        n_samples=int(n_samples),
        singular_count=int(singular.sum()),
        min_abs_det=float(np.nanmin(np.abs(det))),
    )


def _grid_blocks(grid: LandscapeGrid):
    """One float array [n2, 7] per phi1 row, columns in ``CSV_COLUMNS``
    order (singular as 0.0 or 1.0), phi2 varying fastest."""
    n2 = len(grid.phi2)
    for i, a in enumerate(grid.phi1):
        yield np.column_stack([np.full(n2, a), grid.phi2, grid.tr_finv[i], grid.finv11[i],
                               grid.finv22[i], grid.det_f[i], grid.singular[i]])


def export_grid(grid: LandscapeGrid, path, fmt: str = "csv") -> None:
    """Write a grid to ``path``; CSV columns are exactly
    phi1,phi2,tr_finv,finv11,finv22,detF,singular with phi2 varying fastest.
    Singular cells leave their metric fields empty and set singular=1."""
    if fmt == "csv":
        row_format = _CSV_CELL * len(grid.phi2)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for block in _grid_blocks(grid):
                if np.isfinite(block).all():
                    handle.write(row_format % tuple(block.ravel().tolist()))
                    continue
                for cell in block.tolist():  # singular cells leave fields empty
                    if all(map(math.isfinite, cell)):
                        handle.write(_CSV_CELL % tuple(cell))
                    else:
                        writer.writerow([f"{x:.17g}" if math.isfinite(x) else ""
                                         for x in cell[:-1]] + [int(cell[-1])])
    elif fmt == "json":
        cells = [dict(zip(CSV_COLUMNS, [x if math.isfinite(x) else None for x in cell[:-1]]
                          + [int(cell[-1])]))
                 for block in _grid_blocks(grid) for cell in block.tolist()]
        doc = {
            "schema_version": GRID_SCHEMA_VERSION,
            "resolution": list(grid.resolution),
            "cells": cells,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_grid(path, fmt: str = "csv") -> LandscapeGrid:
    """Parse a grid written by export_grid.  The returned grid carries no
    probability model, so working points found on it are unrefined."""
    if fmt == "csv":
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = tuple(next(reader, ()))
            if header != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header {list(header)}")
            rows = list(reader)
        if any(len(row) != len(CSV_COLUMNS) for row in rows):
            raise ValueError(f"CSV rows must have {len(CSV_COLUMNS)} fields")
        cells = [[math.nan if x == "" else float(x) for x in row[:-1]] + [int(row[-1])]
                 for row in rows]
    elif fmt == "json":
        with open(path) as handle:
            doc = json.load(handle)
        try:
            cells = [[math.nan if rec[k] is None else rec[k] for k in CSV_COLUMNS[:-1]]
                     + [int(rec["singular"])] for rec in doc["cells"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed grid JSON: {exc!r}") from exc
    else:
        raise ValueError(f"unknown format {fmt!r}")
    data = np.array(cells, dtype=float).reshape(-1, len(CSV_COLUMNS))
    phi1, i = np.unique(data[:, 0], return_inverse=True)
    phi2, j = np.unique(data[:, 1], return_inverse=True)
    tr, i11, i22, det, singular = arrays = np.full((5, len(phi1), len(phi2)), np.nan)
    arrays[:, i, j] = data[:, 2:].T
    # the singular column is never NaN, so a NaN there is a cell no record set
    if len(data) != singular.size or np.isnan(singular).any():
        raise ValueError("grid records do not form a full lattice")
    return LandscapeGrid(
        phi1=phi1,
        phi2=phi2,
        tr_finv=tr,
        finv11=i11,
        finv22=i22,
        det_f=det,
        singular=singular != 0,
        model=None,
    )
