"""mmzi benchmark: run one workload through the CLI and print its metrics.

    python3 bench/run.py --workload adaptive_mc --seed 1 --seconds 40 --trace 0

Workloads (bench/workloads.py): ``adaptive_mc``, ``landscape_fock`` and
``landscape_coherent``.  Each calls ``mmzi.cli.main(argv)`` in this
process, one call after another (a closed loop with one client), and
repeats its pass of calls until ``--seconds`` is used up; every pass uses
the same inputs, made from ``--seed`` (the Monte Carlo master seed).

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time to import mmzi
  and build each circuit's model once (cold sector cache);
* ``wall_s``: median wall time of one pass of CLI calls;
* ``peak_rss_mb``: peak resident memory of this process;
* ``items_per_s``: Monte Carlo repetitions (adaptive_mc) or grid cells
  (landscape workloads) completed per second of CLI time;
* ``ok_frac``: 1 - failed operations / operations attempted;
* ``precision_ratio``: achieved precision over its reference, as a root
  mean square: Monte Carlo std * sqrt(nu) / bound_coeff per phase
  (adaptive_mc), scanned minimum Tr F^-1 over the paper's value
  (landscape workloads).

``--trace 1`` times the calls into each layer on one traced pass (after
one untraced pass, whose outputs it must reproduce byte for byte) and
prints the per-layer metrics of bench/tracing.py.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` ({name: {"value", "unit"}}).  The run's
metadata is printed on the line before it and, with the spans of a traced
run, written under bench/results/.  Exit status is non-zero, with no
result line, when the package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl
from setup_probe import build_models

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKROOT = HERE / ".work"
RESULTS = HERE / "results"

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("precision_ratio", "ratio"),
)


@dataclass
class CallRun:
    code: int
    stdout: str
    stderr: str
    seconds: float


def import_mmzi():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "mmzi" / "__init__.py").is_file():
        raise ImportError(f"no mmzi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mmzi
    import mmzi.cli

    if SRC.resolve() not in Path(mmzi.__file__).resolve().parents:
        raise ImportError(f"mmzi imported from {mmzi.__file__}, not {SRC}")
    return mmzi


def setup_seconds(circuits) -> float:
    """One cold start in a fresh interpreter (bench/setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(list(circuits))],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def run_pass(workload, main) -> list[CallRun]:
    runs = []
    for call in workload.calls:
        if call.out is not None:
            call.out.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(call.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash inside the program fails the call
                traceback.print_exc()
                code = -1
        runs.append(CallRun(code, out.getvalue(), err.getvalue(), perf_counter() - start))
    return runs


def output_digest(call, run: CallRun) -> str:
    """Hash of a call's stdout and output file; a run record's
    ``created_at`` timestamp is left out."""
    h = hashlib.sha256(run.stdout.encode())
    if call.out is not None and call.out.exists():
        data = call.out.read_bytes()
        if call.out.suffix == ".json":
            try:
                doc = json.loads(data)
                doc.pop("created_at", None)
                data = json.dumps(doc, sort_keys=True).encode()
            except (ValueError, AttributeError):
                pass
        h.update(data)
    return h.hexdigest()


def tally(workload, passes):
    """Failed and attempted operations over all passes.

    The last pass's outputs are checked; an earlier pass whose outputs
    differ from them byte for byte fails, so passes must be deterministic.
    """
    last_runs, last_digests = passes[-1]
    attempted = failed = 0
    precision, reasons = [], []
    for i, call in enumerate(workload.calls):
        final = last_runs[i]
        if final.code == 0:
            outcome = wl.evaluate(call, final.stdout)
        else:
            outcome = wl.Outcome(call.ops, [f"exit code {final.code}: {final.stderr.strip()[-400:]}"])
        precision += outcome.precision
        reasons += [f"{call.name}: {r}" for r in outcome.reasons]
        for runs, digests in passes:
            attempted += call.ops
            if runs[i].code != 0:
                failed += call.ops
            elif digests[i] != last_digests[i]:
                failed += call.ops
                reasons.append(f"{call.name}: outputs differ between passes")
            else:
                failed += outcome.failed
    return attempted, failed, precision, reasons


def measure(workload, main, seconds: float):
    """Closed loop of passes; a new pass starts only if it is expected to
    end within ``seconds`` (the first always runs)."""
    passes, costs = [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        runs = run_pass(workload, main)
        passes.append((runs, [output_digest(c, r) for c, r in zip(workload.calls, runs)]))
        costs.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(costs) > seconds:
            return passes


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def metadata(args) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmzi").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_untraced(args, workload):
    setups = [setup_seconds(workload.circuits) for _ in range(SETUP_REPEATS)]
    mmzi = import_mmzi()
    build_models(mmzi, workload.circuits)  # fill the sector cache before timing
    passes = measure(workload, mmzi.cli.main, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, precision, reasons = tally(workload, passes)
    walls = [sum(r.seconds for r in runs) for runs, _ in passes]
    items = sum(c.items for c in workload.calls) * len(passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "items_per_s": items / sum(walls),
        "ok_frac": 1.0 - failed / attempted,
        "precision_ratio": math.sqrt(statistics.fmean(p * p for p in precision)) if precision else 0.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {"setup_s": setups, "pass_wall_s": walls, "passes": len(passes)}
    return attempted, failed, reasons, metrics, detail, None


def run_traced(args, workload):
    mmzi = import_mmzi()
    tracer = tracing.Tracer()
    tracer.install()
    unpatched = tracer.unpatched_sites()
    if unpatched:
        raise RuntimeError(f"tracer left untraced references: {unpatched}")
    with tracer.span("setup"):
        build_models(mmzi, workload.circuits)
    tracer.uninstall()
    untraced = run_pass(workload, mmzi.cli.main)
    untraced_digests = [output_digest(c, r) for c, r in zip(workload.calls, untraced)]
    tracer.install()
    traced = run_pass(workload, mmzi.cli.main)
    tracer.uninstall()
    traced_digests = [output_digest(c, r) for c, r in zip(workload.calls, traced)]
    passes = [(untraced, untraced_digests), (traced, traced_digests)]
    attempted, failed, _precision, reasons = tally(workload, passes)
    walls = [sum(r.seconds for r in runs) for runs, _ in passes]
    values = tracing.layer_metrics(tracer.spans, overhead_s=walls[1] - walls[0])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _better in tracing.LAYER_METRICS}
    detail = {"pass_wall_s": walls, "spans": len(tracer.spans), "untraced_names": tracer.missing,
              "identical_outputs": untraced_digests == traced_digests}
    return attempted, failed, reasons, metrics, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    try:
        import_mmzi()
    except ImportError as exc:
        print(f"bench: cannot import mmzi: {exc}", file=sys.stderr)
        return 2

    WORKROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKROOT))
    try:
        workload = wl.build(args.workload, args.seed, workdir)
        workload.write_configs()
        runner = run_traced if args.trace else run_untraced
        attempted, failed, reasons, metrics, detail, tracer = runner(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = metadata(args)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"metadata": meta, "detail": detail, "reasons": reasons, "result": result}, indent=2))
    if tracer is not None:
        tracer.save(stem.with_suffix(".spans.npz"))
    for reason in reasons:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
