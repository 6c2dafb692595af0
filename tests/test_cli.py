import copy
import io
import json
import multiprocessing
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmzi.adaptive as adaptive
from mmzi import cli
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


@pytest.mark.parametrize("alpha,trace_min", [(0.5, 8.0), (1.5, 2.0 / 2.25)])
def test_bounds_coherent_separable_limit_at_the_mean_photon_number(capsys, tmp_path,
                                                                  alpha, trace_min):
    # N = alpha^2, not rounded: 0.25 photons would round to N = 0
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"circuit": {"probe": "coherent", "alpha": alpha}}))
    code, out, _ = run_cli(capsys, ["bounds", "--config", str(config)])
    assert code == 0
    doc = json.loads(out)
    assert doc["separable"]["trace_min"] == pytest.approx(trace_min, rel=1e-15)
    assert doc["separable"]["f_jj_max"] == pytest.approx([alpha**2] * 2, rel=1e-15)
    assert doc["qfim_trace_inv"] == pytest.approx(1.0 / alpha**2 * 3.0, rel=1e-14)


def test_tolerances_section_is_gone(capsys, tmp_path):
    # its one key, refine_tol, is workpoints.refine_tol
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"tolerances": {"refine_tol": 1e-5}}))
    code, _, err = run_cli(capsys, ["scan", "--config", str(config), "--out", str(tmp_path / "g.csv")])
    assert code == 1
    assert "unknown config key 'tolerances'" in err


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


@pytest.mark.parametrize(
    "argv,code",
    [
        (["scan", "--resolution", "abc", "--out", "x.csv"], 1),
        (["bogus"], 1),
        (["--help"], 0),
    ],
)
def test_usage_errors_exit_1_and_help_exits_0(capsys, argv, code):
    assert run_cli(capsys, argv)[0] == code


def test_adaptive_run_record_is_byte_identical_for_any_process_count(capsys, tmp_path, monkeypatch):
    out = tmp_path / "record.json"
    argv = ["adaptive", "--seed", "42", "--reps", "3", "--nu", "1000", "--out", str(out)]
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(adaptive, "_usable_cpus", lambda: cpus)
        code, stdout, _ = run_cli(capsys, argv)
        assert code == 0
        lines = [line for line in out.read_bytes().splitlines() if b'"created_at"' not in line]
        results.append((stdout, lines))
    assert multiprocessing.active_children() == []
    assert results[0] == results[1]


def test_exhausted_rough_step_retries_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(adaptive, "_joint_sigma", lambda batches, estimate: None)
    monkeypatch.setattr(adaptive, "_usable_cpus", lambda: 2)
    out = tmp_path / "record.json"
    argv = ["adaptive", "--seed", "3", "--reps", "2", "--nu", "1000", "--out", str(out)]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error: seed ") and "rough-step" in err
    assert not out.exists()


COMMANDS = ("scan", "bounds", "adaptive", "workpoints")
SCHEMA_KEYS = [(section, key) for section, keys in cli.CONFIG_SCHEMA.items() for key in keys]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
invalid_entries = st.sampled_from(SCHEMA_KEYS).flatmap(
    lambda sk: st.tuples(st.just(sk), json_values.filter(
        lambda v: not cli.CONFIG_SCHEMA[sk[0]][sk[1]][1](v))))


def _main_off_the_compute_path(argv):
    """main(argv) with every subcommand replaced by a failing stand-in, so
    only parsing and validation run; returns (exit code, stderr)."""

    def compute(*args, **kwargs):
        raise AssertionError("validation let a bad value through")

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()), redirect_stderr(err):
        for command in COMMANDS:
            mp.setattr(cli, f"cmd_{command}", compute)
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(COMMANDS), entry=invalid_entries)
def test_every_invalid_config_value_exits_1(tmp_path_factory, command, entry):
    (section, key), value = entry
    config = tmp_path_factory.mktemp("cfg") / "c.json"
    config.write_text(json.dumps({section: {key: value}}))
    code, err = _main_off_the_compute_path([command, "--config", str(config)])
    assert code == 1
    assert err.startswith("config error:")
