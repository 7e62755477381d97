"""Every name a module lists in __all__ must exist in it, and the CLI imports lightly."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["hilbert", "model", "dynamics", "observables", "oracle"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"lindnet.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _run_python(code: str, cwd=None) -> str:
    import lindnet

    src = str(Path(lindnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120, cwd=cwd)
    return done.stdout.strip().splitlines()[-1]


_HEAVY = "('scipy.linalg', 'scipy.sparse.csgraph', 'scipy.sparse.linalg')"


def test_cli_import_leaves_graph_and_solver_modules_unloaded():
    # scipy.linalg, csgraph and sparse.linalg are imported inside the
    # functions that use them, so starting the command line pays for none
    code = f"import sys, lindnet.cli; print([m for m in {_HEAVY} if m in sys.modules])"
    assert _run_python(code) == "[]"


def test_rk4_run_leaves_graph_and_solver_modules_unloaded(tmp_path):
    # an RK4 run searches, integrates and records with numpy and scipy.sparse only
    (tmp_path / "short.yaml").write_text(
        "preset: two_site_pump\ntimes: {start: 0.0, stop: 0.5, num: 3}\n", encoding="utf-8")
    code = ("import sys\nfrom lindnet import cli\n"
            "assert cli.main(['run', 'short.yaml', '--output', 'out']) == 0\n"
            f"print([m for m in {_HEAVY} if m in sys.modules])")
    assert _run_python(code, cwd=tmp_path) == "[]"
