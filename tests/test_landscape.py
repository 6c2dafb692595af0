import csv
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmzi.fisher import fisher_matrix, invert_fisher
from mmzi.landscape import (
    CSV_COLUMNS,
    LandscapeGrid,
    _classify_2x2,
    _inverse_metrics,
    _point_metrics,
    circular_distance,
    export_grid,
    find_working_points,
    load_grid,
    scan_grid,
    stability_region,
)
from mmzi.optics import four_mode_mzi, three_mode_mzi
from mmzi.probes import Probe, _ProbeModel, build_model

THREE = three_mode_mzi()


@pytest.fixture(scope="module")
def grid64():
    return scan_grid(THREE, Probe.fock((1, 1, 1)), resolution=64)


def test_scan_rejects_low_resolution():
    with pytest.raises(ValueError):
        scan_grid(THREE, Probe.fock((1, 1, 1)), resolution=32)


def test_grid_axes_cover_torus(grid64):
    assert len(grid64.phi1) == 64
    assert grid64.phi1[0] == 0.0
    assert np.allclose(np.diff(grid64.phi1), 2 * np.pi / 64)
    assert grid64.phi1[-1] < 2 * np.pi


def test_cells_match_pointwise_fisher(grid64):
    model = build_model(THREE, Probe.fock((1, 1, 1)))
    rng = np.random.default_rng(1)
    for _ in range(12):
        i, j = rng.integers(0, 64, 2)
        if grid64.singular[i, j]:
            continue
        f = fisher_matrix(model.distribution([grid64.phi1[i], grid64.phi2[j]]))
        inv = invert_fisher(f)
        assert np.isclose(grid64.tr_finv[i, j], np.trace(inv.inverse), atol=1e-9)
        assert np.isclose(grid64.finv11[i, j], inv.inverse[0, 0], atol=1e-9)
        assert np.isclose(grid64.det_f[i, j], inv.det, atol=1e-9)


def test_swap_mirror_symmetry(grid64):
    # metrics at (phi1, phi2) equal metrics at (phi2, phi1) with the
    # diagonal entries exchanged
    tr = grid64.tr_finv
    assert np.allclose(tr, tr.T, equal_nan=True, atol=1e-9)
    assert np.allclose(grid64.finv11, grid64.finv22.T, equal_nan=True, atol=1e-9)


def test_quantum_bound_on_every_cell(grid64):
    # Tr[F^-1] >= Tr[F_Q^-1] = 0.5 for the triple-Fock probe
    assert np.nanmin(grid64.tr_finv) >= 0.5 - 1e-9


def test_cauchy_schwarz_on_cells(grid64):
    finite = ~grid64.singular
    tr = grid64.tr_finv[finite]
    i11 = grid64.finv11[finite]
    i22 = grid64.finv22[finite]
    assert np.all(i11 + i22 <= tr + 1e-9)  # equality for 2x2, sanity
    det = grid64.det_f[finite]
    # reconstruct F diagonal entries: F11 = finv22 * det, F22 = finv11 * det
    assert np.all(i11 * (i22 * det) >= 1.0 - 1e-9)
    assert np.all(i22 * (i11 * det) >= 1.0 - 1e-9)


def test_working_points_refined_below_grid_min(grid64):
    points = find_working_points(grid64, refine_tol=1e-6)
    assert points
    assert points[0].tr_finv <= np.nanmin(grid64.tr_finv) + 1e-12
    # sorted ascending
    values = [wp.tr_finv for wp in points]
    assert values == sorted(values)


def test_working_points_contain_mirror_pair(grid64):
    points = find_working_points(grid64, refine_tol=1e-6)
    best = [wp for wp in points if wp.tr_finv < 0.60]
    target = (0.8920298, 2.1908384)
    found = [
        wp for wp in best if circular_distance(wp.phases, target) < 0.01
        or circular_distance(wp.phases, target[::-1]) < 0.01
    ]
    assert found, "expected a working point at the documented coordinates"


def test_constant_grid_policy():
    res = 8
    axis = np.arange(res) * 2 * np.pi / res
    ones = np.ones((res, res))
    grid = LandscapeGrid(
        phi1=axis,
        phi2=axis.copy(),
        tr_finv=ones * 2.0,
        finv11=ones,
        finv22=ones,
        det_f=ones,
        singular=np.zeros((res, res), dtype=bool),
        model=None,
    )
    points = find_working_points(grid)
    assert len(points) == 1
    assert points[0].phases == (0.0, 0.0)


def test_all_singular_grid_raises():
    res = 8
    axis = np.arange(res) * 2 * np.pi / res
    nan = np.full((res, res), np.nan)
    grid = LandscapeGrid(
        phi1=axis, phi2=axis.copy(), tr_finv=nan, finv11=nan, finv22=nan,
        det_f=nan, singular=np.ones((res, res), dtype=bool), model=None,
    )
    with pytest.raises(ValueError):
        find_working_points(grid)


def _make_export_grid():
    res = 2
    axis = np.arange(res) * 2 * np.pi / res
    tr = np.array([[0.6, np.nan], [0.9, 1.4]])
    singular = np.array([[False, True], [False, False]])
    return LandscapeGrid(
        phi1=axis,
        phi2=axis.copy(),
        tr_finv=tr,
        finv11=tr / 2,
        finv22=tr / 2,
        det_f=np.where(singular, np.nan, 3.0),
        singular=singular,
        model=None,
    )


def test_export_csv_layout(tmp_path):
    grid = _make_export_grid()
    path = tmp_path / "grid.csv"
    export_grid(grid, path, fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "phi1,phi2,tr_finv,finv11,finv22,detF,singular"
    assert len(lines) == 5
    # row order: phi2 varies fastest
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[0] == second[0]
    assert first[1] != second[1]
    # singular cell has empty metric fields and singular=1
    assert second[2] == ""
    assert second[-1] == "1"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_round_trip(tmp_path, fmt):
    grid = _make_export_grid()
    path = tmp_path / f"grid.{fmt}"
    export_grid(grid, path, fmt=fmt)
    back = load_grid(path, fmt=fmt)
    assert np.allclose(back.phi1, grid.phi1, atol=1e-12)
    assert np.allclose(back.tr_finv, grid.tr_finv, atol=1e-12, equal_nan=True)
    assert np.allclose(back.det_f, grid.det_f, atol=1e-12, equal_nan=True)
    assert np.array_equal(back.singular, grid.singular)


def test_export_real_grid_round_trip(tmp_path, grid64):
    path = tmp_path / "real.csv"
    export_grid(grid64, path, fmt="csv")
    back = load_grid(path, fmt="csv")
    assert np.allclose(back.tr_finv, grid64.tr_finv, atol=1e-12, equal_nan=True)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        export_grid(_make_export_grid(), tmp_path / "x.bin", fmt="parquet")
    export_grid(_make_export_grid(), tmp_path / "grid.csv")
    with pytest.raises(ValueError):
        load_grid(tmp_path / "grid.csv", fmt="parquet")


@pytest.fixture(scope="module")
def singular_grid64():
    # the four-mode distinguishable landscape at phi0 = 0 has singular cells
    grid = scan_grid(four_mode_mzi(0.0), Probe.distinguishable((1, 1, 1, 1)), resolution=64)
    assert 0 < grid.singular_count() < 64 * 64
    return grid


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_load_export_is_byte_identical(tmp_path, singular_grid64, fmt):
    first, second = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    export_grid(singular_grid64, first, fmt=fmt)
    back = load_grid(first, fmt=fmt)
    export_grid(back, second, fmt=fmt)
    assert first.read_bytes() == second.read_bytes()
    for name in ("phi1", "phi2", "tr_finv", "finv11", "finv22", "det_f", "singular"):
        assert np.array_equal(getattr(back, name), getattr(singular_grid64, name), equal_nan=True)


def _reference_csv(grid, path):
    """The CSV writer as it was: one csv.writer row per cell, each float
    formatted with ``f"{x:.17g}"`` and non-finite values left empty."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        n2 = len(grid.phi2)
        for i, a in enumerate(grid.phi1):
            block = np.column_stack([np.full(n2, a), grid.phi2, grid.tr_finv[i], grid.finv11[i],
                                     grid.finv22[i], grid.det_f[i]]).tolist()
            for cell, singular in zip(block, grid.singular[i].tolist()):
                writer.writerow([f"{x:.17g}" if math.isfinite(x) else "" for x in cell]
                                + [int(singular)])


def _assert_csv_is_the_reference(grid, tmp_path):
    export_grid(grid, tmp_path / "grid.csv")
    _reference_csv(grid, tmp_path / "reference.csv")
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.fixture(scope="module")
def coherent_grid64():
    return scan_grid(THREE, Probe.coherent(math.sqrt(3.0)), resolution=64)


@pytest.mark.parametrize("name", ["grid64", "singular_grid64", "coherent_grid64"])
def test_csv_is_the_csv_writer_output_on_scanned_grids(tmp_path, request, name):
    _assert_csv_is_the_reference(request.getfixturevalue(name), tmp_path)


def test_csv_is_the_csv_writer_output_on_special_values(tmp_path):
    nan, inf = math.nan, math.inf
    # row 0 is finite; row 1 holds a singular cell, a subnormal cell and an
    # infinite but non-singular cell
    tr, i11, i22, det = np.array([
        [[1.0 / 3.0, 1e308, -0.0], [nan, 5e-324, inf]],
        [[1e-5, -1e308, 0.0], [nan, 2.2250738585072014e-308, 1.0]],
        [[123456789.0, -2.2250738585072014e-308, 5e-324], [nan, -0.0, -inf]],
        [[1e308, 1.0, 7.0], [nan, 1e-320, 3.0]],
    ])
    grid = LandscapeGrid(
        phi1=np.array([-0.0, 5e-324]), phi2=np.array([0.0, 1e-300, 1e308]),
        tr_finv=tr, finv11=i11, finv22=i22, det_f=det,
        singular=np.array([[False] * 3, [True, False, False]]), model=None,
    )
    _assert_csv_is_the_reference(grid, tmp_path)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_percent_and_format_spec_give_the_same_digits(x):
    assert "%.17g" % x == f"{x:.17g}"


def _write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


HEADER = "phi1,phi2,tr_finv,finv11,finv22,detF,singular"


@pytest.mark.parametrize("lines", [
    ["phi1,phi2,trace,finv11,finv22,detF,singular", "0,0,1,0.5,0.5,4,0"],  # wrong header
    [],  # no header at all
    [HEADER, "0,0,1,0.5,0.5,4,0", "0,3.14,1,0.5"],  # truncated row
    [HEADER, "0,0,1,0.5,0.5,4,0", "0,1,1,0.5,0.5,4,0", "1,0,1,0.5,0.5,4,0"],  # not a lattice
    [HEADER, "0,0,1,0.5,0.5,4,0", "0,0,1,0.5,0.5,4,0", "1,1,1,0.5,0.5,4,0",
     "1,1,1,0.5,0.5,4,0"],  # four records, two cells of the 2 x 2 lattice missing
])
def test_load_grid_rejects_malformed_csv(tmp_path, lines):
    with pytest.raises(ValueError):
        load_grid(_write_csv(tmp_path / "bad.csv", lines))


@pytest.mark.parametrize("doc", [
    {"cells": [{"phi1": 0.0}]},  # a cell without the other six keys
    {"schema_version": 1},  # no cells
    [{"phi1": 0.0}],  # not an object
    {"cells": [0.0]},  # a cell that is not an object
    {"cells": [dict(zip(HEADER.split(","), [0, 0, 1, 0.5, 0.5, 4, None]))]},  # no flag
])
def test_load_grid_rejects_malformed_json(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_grid(path, fmt="json")


def test_four_mode_coherent_landscape_reaches_the_quantum_bound():
    # coherent light of mean photon number 4 without a phase reference has
    # Tr QFIM^-1 = 0.75 on the four-mode preset; the counting landscape
    # attains it near (pi, pi)
    grid = scan_grid(four_mode_mzi(0.01), Probe.coherent(2.0), resolution=256)
    assert 0.75 <= grid.min_trace() <= 0.75 + 1e-4
    assert grid.singular_count() == 0


def test_coherent_singular_flags_match_the_outcome_sum():
    # at phi0 = 0.001 the four-mode coherent scan has 28 singular cells; the
    # outcome sum over the truncated list flags the same cells, and so do
    # both on every neighbour of them
    grid = scan_grid(four_mode_mzi(0.001), Probe.coherent(2.0), resolution=256)
    assert grid.singular_count() == 28
    cells = {((i + di) % 256, (j + dj) % 256) for i, j in np.argwhere(grid.singular)
             for di in (-1, 0, 1) for dj in (-1, 0, 1)}
    rows, cols = np.array(sorted(cells)).T
    points = np.column_stack([grid.phi1[rows], grid.phi2[cols]])
    f, support_bad = _ProbeModel.fim_batch(grid.model, points)
    _det, _cond, singular = _classify_2x2(f[:, 0, 0], f[:, 1, 1], f[:, 0, 1], support_bad)
    assert np.array_equal(singular, grid.singular[rows, cols])


def test_stability_requires_positive_radius():
    with pytest.raises(ValueError):
        stability_region(four_mode_mzi(0.01), Probe.fock((1, 1, 1, 1)), (np.pi, np.pi), 0.0)


def test_stability_tiny_disc_regular():
    report = stability_region(
        four_mode_mzi(0.01), Probe.fock((1, 1, 1, 1)), (np.pi, np.pi), 1e-4,
        n_samples=64,
    )
    assert report.singular_count == 0
    assert report.min_abs_det > 0


@pytest.mark.parametrize("preset,probe", [
    (three_mode_mzi(), Probe.fock((1, 1, 1))),
    (four_mode_mzi(0.001), Probe.fock((1, 1, 1, 1))),
    (three_mode_mzi(), Probe.distinguishable((1, 1, 1))),
    (four_mode_mzi(0.001), Probe.distinguishable((1, 1, 1, 1))),
    (three_mode_mzi(), Probe.coherent(math.sqrt(3.0))),
    (four_mode_mzi(0.001), Probe.coherent(2.0)),
])
def test_one_point_metrics_match_the_batch_path_bit_for_bit(preset, probe):
    # random points, multiples of pi/4, the singular cells of a 64^2 scan,
    # (pi, pi), a tiny negative phase and NaN; the singular verdict must
    # agree as well as the bits of every metric
    grid = scan_grid(preset, probe, resolution=64)
    rows, cols = np.nonzero(grid.singular)
    eighths = np.arange(-8, 17) * np.pi / 4
    points = np.concatenate([
        np.random.default_rng(41).uniform(-7.0, 7.0, (2000, 2)),
        np.stack(np.meshgrid(eighths, eighths), axis=-1).reshape(-1, 2),
        np.column_stack([grid.phi1[rows], grid.phi2[cols]]),
        [[np.pi, np.pi], [-1e-100, 0.0], [np.nan, 0.5], [0.5, np.inf]],
    ])
    metrics_at = _point_metrics(grid.model)
    singular_seen = 0
    with np.errstate(invalid="ignore"):
        for x in points:
            tr, i11, i22, _det, singular = _inverse_metrics(grid.model, x[None, :])
            want = None if singular[0] else tuple(float(v[0]).hex() for v in (tr, i11, i22))
            got = metrics_at(x)
            assert (None if got is None else tuple(v.hex() for v in got)) == want, x
            singular_seen += got is None
    assert singular_seen >= 2 + grid.singular_count()


class _FixedFisher:
    """A model whose Fisher matrix and support flag are set by hand."""

    def __init__(self):
        self.f, self.support_bad = np.zeros((2, 2)), False

    def fim_batch(self, points):
        return (np.broadcast_to(self.f, (len(points), 2, 2)),
                np.full(len(points), self.support_bad))


def test_one_point_2x2_arithmetic_matches_the_batch_path_on_edge_matrices():
    # zeros of both signs, subnormals, overflow, inf and NaN entries, and
    # near-rank-one matrices around the determinant and condition thresholds
    special = [0.0, -0.0, 5e-324, 1e-300, 1e-12, 1e-6, 1.0, -1.0, 1e10, 1e200,
               np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(43)
    u, v = rng.lognormal(0.0, 4.0, (2, 2000))
    gap = 10.0 ** rng.uniform(-17.0, -3.0, 2000)
    matrices = list(itertools.product(special, repeat=3)) + list(zip(u * u, v * v, u * v * (1 - gap)))
    model = _FixedFisher()
    metrics_at = _point_metrics(model)
    x = np.array([0.3, 0.4])
    with np.errstate(all="ignore"):
        for (f11, f22, f12), support_bad in itertools.product(matrices, (False, True)):
            model.f, model.support_bad = np.array([[f11, f12], [f12, f22]]), support_bad
            tr, i11, i22, _det, singular = _inverse_metrics(model, x[None, :])
            want = None if singular[0] else tuple(float(w[0]).hex() for w in (tr, i11, i22))
            got = metrics_at(x)
            assert (None if got is None else tuple(w.hex() for w in got)) == want, (f11, f22, f12)
