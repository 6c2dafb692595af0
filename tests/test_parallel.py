import concurrent.futures
import json
import math
import os

import pytest

from mmzi.cli import main


def _workpoints_without_a_pool(monkeypatch, tmp_path, capsys, circuit) -> dict:
    """The stdout document of ``mmzi workpoints`` at 256^2 for ``circuit``,
    with two CPUs in this process's affinity set and any process pool an
    error."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = tmp_path / "circuit.json"
    config.write_text(json.dumps({"circuit": circuit}))
    assert main(["workpoints", "--config", str(config), "--resolution", "256"]) == 0
    return json.loads(capsys.readouterr().out)


def test_the_coherent_three_mode_workpoints_path_forks_no_process(monkeypatch, tmp_path, capsys):
    doc = _workpoints_without_a_pool(monkeypatch, tmp_path, capsys,
                                     {"modes": 3, "probe": "coherent", "alpha": math.sqrt(3.0)})
    assert doc["working_points"][0]["tr_finv"] == pytest.approx(1.28867, abs=1e-5)


@pytest.mark.parametrize("circuit,min_trace", [
    ({"modes": 3, "probe": "fock"}, 0.5917),
    ({"modes": 3, "probe": "distinguishable"}, 4.2837),
    ({"modes": 4, "probe": "fock", "phi0": 0.001}, 0.375),
    ({"modes": 4, "probe": "distinguishable", "phi0": 0.001}, 0.75),
], ids=["fock3", "dist3", "fock4", "dist4"])
def test_no_scan_or_polish_of_the_fock_landscapes_forks_a_process(monkeypatch, tmp_path, capsys,
                                                                   circuit, min_trace):
    # scans and polishes run in the calling process, however long they take
    doc = _workpoints_without_a_pool(monkeypatch, tmp_path, capsys, circuit)
    assert doc["working_points"][0]["tr_finv"] == pytest.approx(min_trace, abs=1e-4)
