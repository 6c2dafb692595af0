import json

import numpy as np
import pytest

from mmzi.fisher import fisher_matrix, invert_fisher
from mmzi.landscape import (
    LandscapeGrid,
    _classify_2x2,
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
