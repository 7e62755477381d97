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


def test_cli_import_leaves_graph_and_solver_modules_unloaded():
    # csgraph and sparse.linalg are imported inside the functions that use
    # them, so starting the command line does not pay for either
    import lindnet

    src = str(Path(lindnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, lindnet.cli; print([m for m in "
            "('scipy.sparse.csgraph', 'scipy.sparse.linalg') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"
