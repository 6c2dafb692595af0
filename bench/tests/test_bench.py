"""Tests of the benchmark itself: each workload at its smallest size, the
output checks on corrupted outputs, the tracer, and the result contract.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MMZI = run.import_mmzi()


def small_pass(name, workdir, seed=1):
    workload = wl.build(name, seed, workdir, small=True)
    workload.write_configs()
    return workload, run.run_pass(workload, MMZI.cli.main)


def call_named(workload, runs, name):
    i = [c.name for c in workload.calls].index(name)
    return workload.calls[i], runs[i]


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_small_workload_passes_its_checks(name, tmp_path):
    workload, runs = small_pass(name, tmp_path)
    assert [r.code for r in runs] == [0] * len(runs), [r.stderr for r in runs]
    digests = [run.output_digest(c, r) for c, r in zip(workload.calls, runs)]
    attempted, failed, precision, reasons = run.tally(workload, [(runs, digests)])
    assert attempted == sum(c.ops for c in workload.calls)
    assert failed == 0, reasons
    assert precision and all(p > 0 for p in precision)


@pytest.fixture(scope="module")
def separable_scan(tmp_path_factory):
    workload, runs = small_pass("landscape_fock", tmp_path_factory.mktemp("fock"))
    return call_named(workload, runs, "scan.dist3")


def test_flipped_singular_flag_fails_the_scan(separable_scan):
    call, result = separable_scan
    assert wl.evaluate(call, result.stdout).failed == 0
    lines = call.out.read_text().splitlines()
    k = next(i for i, line in enumerate(lines[1:], 1) if line.endswith(",0"))
    lines[k] = lines[k][:-1] + "1"
    call.out.write_text("\n".join(lines) + "\n")
    outcome = wl.evaluate(call, result.stdout)
    assert outcome.failed == 1
    assert "singular" in outcome.reasons[0]


def test_truncated_csv_is_a_failure_not_a_crash(separable_scan):
    call, result = separable_scan
    call.out.write_text("phi1,phi2\n1,2\n")
    outcome = wl.evaluate(call, result.stdout)
    assert outcome.failed == 1 and outcome.reasons


def test_moved_estimate_fails_one_repetition(tmp_path):
    workload, runs = small_pass("adaptive_mc", tmp_path)
    call, result = call_named(workload, runs, "adaptive.mc3")
    assert wl.evaluate(call, result.stdout).failed == 0
    record = json.loads(call.out.read_text())
    record["estimates"][0][0] += 0.3
    call.out.write_text(json.dumps(record))
    outcome = wl.evaluate(call, result.stdout)
    assert outcome.failed == 1
    record["estimates"][1] = [float("nan"), 1.0]
    call.out.write_text(json.dumps(record))
    assert wl.evaluate(call, result.stdout).failed == 2
    call.out.unlink()
    assert wl.evaluate(call, result.stdout).failed == call.ops


def test_qfim_trace_off_by_1e3_fails_bounds(tmp_path):
    workload, runs = small_pass("landscape_coherent", tmp_path)
    call, result = call_named(workload, runs, "bounds.coh4")
    assert wl.evaluate(call, result.stdout).failed == 0
    doc = json.loads(result.stdout)
    doc["qfim_trace_inv"] += 1e-3
    assert wl.evaluate(call, json.dumps(doc)).failed == 1
    assert wl.evaluate(call, "not json").failed == 1


def test_three_mode_images_are_the_tied_minima():
    tied = [(1.998, 5.3912), (0.0964, 2.9864), (4.0923, 3.2968), (6.1867, 1.2024),
            (5.0808, 4.2852), (0.892, 2.1908)]
    images = wl.three_mode_images(wl.THREE_MODE_POINT)
    for a, b in tied:
        for point in ((a, b), (b, a)):
            assert np.min(wl.torus_distance(point, images)) < 1e-3


def test_tracer_wraps_every_import_site_and_restores_them():
    tracer = tracing.Tracer()
    original = MMZI.probes.build_model
    tracer.install()
    try:
        assert tracer.unpatched_sites() == []
        assert tracer.missing == []
        for module in (MMZI, MMZI.probes, MMZI.adaptive, MMZI.landscape):
            assert module.build_model.__wrapped__ is original
        assert MMZI.cli.scan_grid.__wrapped__ is not None
        assert MMZI.cli.monte_carlo.__wrapped__ is not None
        assert MMZI.adaptive.fisher_matrix.__wrapped__ is not None
        assert "__wrapped__" in vars(MMZI.probes.FockProbeModel.prob_batch)
    finally:
        tracer.uninstall()
    assert MMZI.probes.build_model is original and MMZI.adaptive.build_model is original
    assert not hasattr(MMZI.probes.FockProbeModel.prob_batch, "__wrapped__")


def test_traced_pass_reproduces_untraced_outputs(tmp_path):
    workload, untraced = small_pass("landscape_fock", tmp_path)
    before = [run.output_digest(c, r) for c, r in zip(workload.calls, untraced)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_pass(workload, MMZI.cli.main)
    finally:
        tracer.uninstall()
    after = [run.output_digest(c, r) for c, r in zip(workload.calls, traced)]
    assert after == before
    values = tracing.layer_metrics(tracer.spans, overhead_s=0.0)
    assert set(values) == {name for name, _u, _b in tracing.LAYER_METRICS}
    assert values["cli.main.calls"] == len(workload.calls)
    assert values["landscape.scan_grid.cells"] == 4 * wl.SMALL_RESOLUTION**2
    assert values["probes.grad_use_ratio"] == pytest.approx(1.0)


def test_self_time_and_tail_from_spans():
    # a root of 10 s with children of 2 s and 3 s; one grandchild of 1 s
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, 0, 0, None],
        ["fisher.fisher_matrix", 1.0, 3.0, 0, 0, 0, 0, "SingularSupportError"],
        ["adaptive.run_protocol", 4.0, 7.0, 0, 2, 0, 0, None],
        ["probes.prob_batch.fock", 5.0, 6.0, 2, 2, 1, 0, None],
    ]
    values = tracing.layer_metrics(spans, overhead_s=0.5)
    assert values["cli.main.self_s"] == pytest.approx(5.0)
    assert values["adaptive.run_protocol.self_s"] == pytest.approx(2.0)
    assert values["fisher.fisher_matrix.singular_support"] == 1
    assert values["probes.prob_batch.fock.single.calls"] == 1
    assert values["probes.grad_use_ratio"] == pytest.approx(1.0)
    assert tracing.tail_value(np.arange(100.0)) == 89.0
    assert tracing.tail_value(np.arange(10.0)) == 0.0


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS)


def test_without_the_package_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "adaptive_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
