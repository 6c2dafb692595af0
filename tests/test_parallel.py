import concurrent.futures
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

import mmzi.landscape as landscape
from mmzi.cli import main
from mmzi.landscape import find_working_points, scan_grid
from mmzi.optics import three_mode_mzi
from mmzi.probes import Probe

THREE = three_mode_mzi()

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the pool needs fork")


def _pools_started(monkeypatch, cpus):
    """The worker count of every pool started, with ``cpus`` CPUs in this
    process's affinity set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    started = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counting(max_workers, *args, **kwargs):
        started.append(max_workers)
        return real_pool(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    return started


@needs_fork
@pytest.mark.parametrize("probe", [Probe.fock((1, 1, 1)), Probe.distinguishable((1, 1, 1))])
def test_pooled_and_serial_scans_and_polishes_are_identical(monkeypatch, probe):
    monkeypatch.setattr(landscape, "SCAN_CHUNK", 512)  # eight chunks at resolution 64
    runs = {}
    for path, pays_s, cpus in (("pooled", -1.0, 2), ("never pays", math.inf, 2),
                               ("one cpu", -1.0, 1)):
        monkeypatch.setattr(landscape, "FORK_PAYS_S", pays_s)
        started = _pools_started(monkeypatch, cpus)
        grid = scan_grid(THREE, probe, resolution=64)
        runs[path] = grid, find_working_points(grid), started
        assert multiprocessing.active_children() == []
    assert runs["pooled"][2] == [2, 2]  # one pool for the chunks, one for the polishes
    assert runs["never pays"][2] == runs["one cpu"][2] == []
    names = ("phi1", "phi2", "tr_finv", "finv11", "finv22", "det_f", "singular")
    pooled_grid, pooled_points, _ = runs["pooled"]
    for path in ("never pays", "one cpu"):
        grid, points, _ = runs[path]
        for name in names:
            assert getattr(grid, name).tobytes() == getattr(pooled_grid, name).tobytes(), name
        assert points == pooled_points and len(points) > 1


@needs_fork
def test_a_polish_error_in_a_child_reaches_the_caller(monkeypatch):
    grid = scan_grid(THREE, Probe.fock((1, 1, 1)), resolution=64)
    i, j = landscape._grid_local_minima(grid)[0]
    first = np.array([grid.phi1[i], grid.phi2[j]])
    real_minimize = landscape.minimize

    def only_the_first_converges(fun, x0, **kwargs):
        if not np.array_equal(x0, first):
            raise FloatingPointError(os.getpid())
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(landscape, "minimize", only_the_first_converges)
    monkeypatch.setattr(landscape, "FORK_PAYS_S", -1.0)
    started = _pools_started(monkeypatch, 2)
    with pytest.raises(FloatingPointError) as info:
        find_working_points(grid)
    assert started == [2] and info.value.args[0] != os.getpid()  # raised in a child
    assert multiprocessing.active_children() == []


def test_the_coherent_three_mode_workpoints_path_forks_no_process(monkeypatch, tmp_path, capsys):
    # its chunks and polishes take milliseconds: a pool would cost more than it saves
    _pools_started(monkeypatch, 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = tmp_path / "coh3.json"
    config.write_text(json.dumps({"circuit": {"modes": 3, "probe": "coherent",
                                              "alpha": math.sqrt(3.0)}}))
    assert main(["workpoints", "--config", str(config), "--resolution", "256"]) == 0
    assert "1.28867" in capsys.readouterr().out
