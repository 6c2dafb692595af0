import copy
import json

import numpy as np
import pytest

from mmzi.cli import DEFAULT_CONFIG, main
from mmzi.landscape import load_grid


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_three_mode_fock(capsys):
    code, out, _ = run_cli(capsys, ["bounds"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["qfim_trace_inv"] - 0.5) < 1e-6
    assert abs(doc["separable"]["trace_min"] - 2.0 / 3.0) < 1e-9
    assert doc["beats_separable_trace"] is True
    assert doc["schema_version"] == 1
    assert doc["config"]["circuit"]["modes"] == 3


def test_bounds_four_mode_coherent(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"circuit": {"modes": 4, "probe": "coherent", "alpha": 2.0}}))
    code, out, _ = run_cli(capsys, ["bounds", "--config", str(config)])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["qfim_trace_inv"] - 0.75) < 1e-6
    assert abs(doc["separable"]["trace_min"] - 0.5) < 1e-9


def test_bounds_three_mode_distinguishable(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"circuit": {"probe": "distinguishable"}}))
    code, out, _ = run_cli(capsys, ["bounds", "--config", str(config)])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["qfim_trace_inv"] - 1.0) < 1e-6


def test_unknown_config_key_rejected(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"circuit": {"modess": 3}}))
    code, _, err = run_cli(capsys, ["bounds", "--config", str(config)])
    assert code == 1
    assert "unknown config key" in err


def test_invalid_config_json(capsys, tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    code, _, err = run_cli(capsys, ["bounds", "--config", str(config)])
    assert code == 1


def test_scan_requires_output_path(capsys):
    code, _, err = run_cli(capsys, ["scan"])
    assert code == 1
    assert "output path" in err


def test_scan_quick_grid(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code, stdout, _ = run_cli(capsys, ["scan", "--resolution", "64", "--out", str(out)])
    assert code == 0
    assert "min tr_finv" in stdout
    grid = load_grid(out)
    assert grid.resolution == (64, 64)
    header = out.read_text().splitlines()[0]
    assert header == "phi1,phi2,tr_finv,finv11,finv22,detF,singular"
    assert abs(np.nanmin(grid.tr_finv) - 0.5917) < 0.01


def test_adaptive_requires_seed(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["adaptive", "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "seed" in err


def test_adaptive_rejects_single_repetition(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"adaptive": {"repetitions": 1, "seed": 4}}))
    code, _, err = run_cli(capsys, ["adaptive", "--config", str(config)])
    assert code == 1
    assert "repetitions" in err


def test_adaptive_rejects_zero_phi0_four_mode(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps({"circuit": {"modes": 4, "phi0": 0.0}, "adaptive": {"seed": 4}})
    )
    code, _, err = run_cli(capsys, ["adaptive", "--config", str(config)])
    assert code == 1
    assert "phi0" in err


def test_adaptive_run_record_deterministic(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps(
            {
                "adaptive": {
                    "true_phases": [2.0, 1.0],
                    "nu": 1000,
                    "repetitions": 3,
                    "seed": 42,
                }
            }
        )
    )
    out = tmp_path / "record.json"
    argv = ["adaptive", "--config", str(config), "--out", str(out)]
    code_a, stdout, _ = run_cli(capsys, argv)
    bytes_a = out.read_bytes()
    code_b, _, _ = run_cli(capsys, argv)
    bytes_b = out.read_bytes()
    assert code_a == code_b == 0
    assert "ratio" in stdout
    doc_a = json.loads(bytes_a)
    doc_b = json.loads(bytes_b)
    doc_a.pop("created_at")
    doc_b.pop("created_at")
    # byte-identical modulo the timestamp
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
    assert doc_a["config"]["nu"] == 1000


def test_workpoints_json(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"workpoints": {"resolution": 96}}))
    code, out, _ = run_cli(capsys, ["workpoints", "--config", str(config)])
    assert code == 0
    doc = json.loads(out)
    points = doc["working_points"]
    assert points
    best = points[0]
    assert abs(best["tr_finv"] - 0.5917) < 0.005
    diag = sorted([best["finv11"], best["finv22"]])
    assert abs(diag[0] - 0.282) < 0.005
    assert abs(diag[1] - 0.309) < 0.005


def test_flag_overrides_config(capsys, tmp_path):
    out = tmp_path / "g.csv"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"scan": {"resolution": 256}}))
    code, _, _ = run_cli(
        capsys, ["scan", "--config", str(config), "--resolution", "64", "--out", str(out)]
    )
    assert code == 0
    assert load_grid(out).resolution == (64, 64)


def test_runs_leave_the_default_config_unchanged(capsys, tmp_path):
    before = copy.deepcopy(DEFAULT_CONFIG)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"circuit": {"modes": 3}}))
    out = tmp_path / "g.csv"
    code, _, _ = run_cli(
        capsys, ["scan", "--config", str(config), "--resolution", "64", "--out", str(out)]
    )
    assert code == 0
    code, stdout, _ = run_cli(capsys, ["bounds"])
    assert code == 0
    assert DEFAULT_CONFIG == before
    assert json.loads(stdout)["config"] == before


@pytest.mark.parametrize(
    "command,doc,flags",
    [
        ("scan", {"scan": {"resolution": "abc"}}, []),
        ("scan", {}, ["--resolution", "10"]),
        ("adaptive", {"adaptive": {"nu": "1e4"}}, []),
        ("scan", {"scan": {"format": "xml"}}, []),
        ("adaptive", {"adaptive": {"true_phases": [1.0]}}, []),
        ("adaptive", {"adaptive": {"fractions": [0.5, 0.5]}}, []),
        ("bounds", {"scan": 5}, []),
    ],
)
def test_bad_config_values_exit_1_before_any_work(capsys, tmp_path, command, doc, flags):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--seed", "1", "--reps", "2", "--out", str(out)]
    code, _, err = run_cli(capsys, argv + flags)
    assert code == 1
    assert err.startswith("config error:")
    assert not out.exists()
