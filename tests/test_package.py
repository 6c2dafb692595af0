"""The package's public names: every export resolves, so that removing a
function cannot leave a dangling name that breaks ``from mmzi import *``;
and importing the package, or running any subcommand, loads no scipy."""

import os
import subprocess
import sys
from pathlib import Path

import mmzi

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(mmzi.__all__)) == len(mmzi.__all__)
    missing = [name for name in mmzi.__all__ if not hasattr(mmzi, name)]
    assert missing == []
    namespace = {}
    exec("from mmzi import *", namespace)
    assert set(mmzi.__all__) <= set(namespace)


def test_import_and_every_subcommand_load_no_scipy_module(tmp_path):
    # numpy is the package's only dependency: scipy serves the tests only
    script = f"""
import sys
import mmzi
from mmzi.cli import main
out = {str(tmp_path)!r}
for argv in (["adaptive", "--reps", "2", "--nu", "2000", "--seed", "3", "--out", out + "/run.json"],
             ["scan", "--resolution", "64", "--out", out + "/grid.csv"],
             ["workpoints", "--resolution", "64"],
             ["bounds"]):
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
