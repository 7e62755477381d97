"""Every name a module lists in __all__ is defined there, and the CLI imports lightly."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


def _defined_names(path: Path) -> set[str]:
    """Names a module's own top-level statements define; imports define none."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


_LIBRARY = ("hilbert", "model", "dynamics", "observables", "oracle")
_SUBMODULES = (*_LIBRARY, "cli")


@pytest.mark.parametrize("module", _LIBRARY)
def test_all_names_resolve(module):
    # each public name has one home: the module that defines it
    mod = importlib.import_module(f"lindnet.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    foreign = sorted(set(mod.__all__) - _defined_names(Path(mod.__file__)))
    assert foreign == []


def _run_python(code: str, cwd=None, env=None) -> str:
    """The last line a fresh interpreter prints; env, if given, replaces os.environ."""
    import lindnet

    src = str(Path(lindnet.__file__).resolve().parents[1])
    base = os.environ if env is None else env
    env = dict(base, PYTHONPATH=os.pathsep.join(
        p for p in (src, base.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120, cwd=cwd)
    return done.stdout.strip().splitlines()[-1]


_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_package_import_loads_no_module():
    # each submodule, and NumPy with it, loads on first use of one of its names
    code = ("import sys, lindnet\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('lindnet.')))")
    assert _run_python(code) == "[]"


def test_package_names_are_their_home_objects():
    # each of the 31 names is the object its one home module defines and lists
    code = ("import importlib, lindnet\n"
            f"mods = [importlib.import_module('lindnet.' + m) for m in {_LIBRARY!r}]\n"
            "bad = []\n"
            "for name in lindnet.__all__:\n"
            "    if name == '__version__':\n"
            "        continue\n"
            "    homes = [m for m in mods if name in m.__all__]\n"
            "    if len(homes) != 1 or getattr(lindnet, name) is not getattr(homes[0], name):\n"
            "        bad.append(name)\n"
            "print(bad, len(lindnet.__all__))")
    assert _run_python(code) == "[] 32"


def test_package_resolves_submodules_without_import():
    code = ("import sys, lindnet\n"
            f"print(all(getattr(lindnet, m) is sys.modules['lindnet.' + m]"
            f" for m in {_SUBMODULES!r}))")
    assert _run_python(code) == "True"


def test_package_refuses_unknown_attribute():
    code = ("import lindnet\n"
            "try:\n    lindnet.propagator\nexcept AttributeError as exc:\n    print(exc)")
    assert _run_python(code) == "module 'lindnet' has no attribute 'propagator'"


def test_star_import_binds_every_name():
    code = ("import lindnet\nnames = {}\nexec('from lindnet import *', names)\n"
            "print(sorted(set(lindnet.__all__) - set(names)),"
            " sorted(dir(lindnet)) == sorted(lindnet.__all__))")
    assert _run_python(code) == "[] True"


def test_cli_import_leaves_the_collector_alone():
    # only the entry point freezes the import heap; a library or a test that
    # imports the command line keeps the collector as it found it
    code = "import gc, lindnet.cli\nprint(gc.isenabled(), gc.get_freeze_count())"
    assert _run_python(code) == "True 0"


def test_entry_point_freezes_the_import_heap():
    # python -m lindnet: the heap its imports leave is never scanned again,
    # and the collector runs on what the command allocates
    code = ("import gc, runpy, sys\n"
            "sys.argv = ['lindnet', 'presets']\n"
            "try:\n    runpy.run_module('lindnet', run_name='__main__')\n"
            "except SystemExit as exc:\n    code = exc.code\n"
            "print(code, gc.isenabled(), gc.get_freeze_count() > 0)")
    assert _run_python(code) == "0 True True"


def test_console_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"lindnet": "lindnet.__main__:main"}


def test_cli_import_leaves_graph_and_solver_modules_unloaded():
    # starting the command line imports no SciPy module at all
    code = f"import sys, lindnet.cli; print({_SCIPY})"
    assert _run_python(code) == "[]"


def test_rk4_run_leaves_graph_and_solver_modules_unloaded(tmp_path):
    # an RK4 run searches, integrates and records with NumPy alone
    (tmp_path / "short.yaml").write_text(
        "preset: two_site_pump\ntimes: {start: 0.0, stop: 0.5, num: 3}\n", encoding="utf-8")
    code = ("import sys\nfrom lindnet import cli\n"
            "assert cli.main(['run', 'short.yaml', '--output', 'out']) == 0\n"
            f"print({_SCIPY})")
    assert _run_python(code, cwd=tmp_path) == "[]"


def test_expm_run_and_sweep_leave_solver_modules_unloaded(tmp_path):
    # the exponential action is the engine's own Taylor loop over its own
    # sparse product, and a sweep's parent imports no SciPy before it forks
    (tmp_path / "expm.yaml").write_text(
        "preset: two_site_pump\nmethod: superoperator_expm\n"
        "times: {start: 0.0, stop: 40.0, num: 3}\n"
        "sweep: {path: params.J, values: [1.0, 2.0], observable: 'population:2',"
        " at_times: [40.0]}\n", encoding="utf-8")
    code = ("import sys\nfrom lindnet import cli\n"
            "assert cli.main(['run', 'expm.yaml', '--output', 'out']) == 0\n"
            "assert cli.main(['sweep', 'expm.yaml', '--output', 'out',"
            " '--workers', '2']) == 0\n"
            f"print({_SCIPY})")
    assert _run_python(code, cwd=tmp_path) == "[]"


def test_commands_load_no_scipy(tmp_path):
    # the engine assembles, searches, integrates, records and solves with
    # NumPy alone, and a sweep's parent forks its workers without SciPy
    (tmp_path / "pump.yaml").write_text(
        "preset: two_site_pump\ntimes: {start: 0.0, stop: 40.0, num: 3}\n"
        "sweep: {path: params.J, values: [1.0, 2.0], observable: 'population:2',"
        " at_times: [40.0]}\n", encoding="utf-8")
    (tmp_path / "expm.yaml").write_text(
        "preset: two_site_pump\nmethod: superoperator_expm\n"
        "times: {start: 0.0, stop: 40.0, num: 3}\n", encoding="utf-8")
    code = ("import contextlib, io, sys\nfrom lindnet import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['validate'], ['run', 'pump.yaml', '--dt', '0.1'],"
            " ['run', 'expm.yaml'], ['sweep', 'pump.yaml', '--dt', '0.1', '--workers', '2'],"
            " ['steady', 'pump.yaml'], ['presets']):\n"
            "        out = ['--output', 'out'] if argv[0] in ('run', 'sweep', 'steady') else []\n"
            "        assert cli.main(argv + out) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code, cwd=tmp_path) == "[]"


def test_parallel_sweep_loads_no_process_pool(tmp_path):
    # the parent forks its workers itself: no executor, no multiprocessing
    (tmp_path / "pump.yaml").write_text(
        "preset: two_site_pump\ntimes: {start: 0.0, stop: 1.0, num: 3}\n"
        "sweep: {path: params.J, values: [1.0, 2.0, 3.0], observable: 'population:2',"
        " at_times: [1.0]}\n", encoding="utf-8")
    code = ("import contextlib, io, sys\nfrom lindnet import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['sweep', 'pump.yaml', '--dt', '0.1', '--workers', '2',"
            " '--output', 'out']) == 0\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    assert _run_python(code, cwd=tmp_path) == "[]"


def test_run_and_sweep_load_no_masked_arrays(tmp_path):
    # np.unique without index outputs imports numpy.ma; the recorder counts
    # its components with np.bincount instead
    (tmp_path / "pump.yaml").write_text(
        "preset: two_site_pump\ntimes: {start: 0.0, stop: 1.0, num: 3}\n"
        "sweep: {path: params.J, values: [1.0, 2.0], observable: 'population:2',"
        " at_times: [1.0]}\n", encoding="utf-8")
    (tmp_path / "expm.yaml").write_text(
        "preset: two_site_pump\nmethod: superoperator_expm\n"
        "times: {start: 0.0, stop: 1.0, num: 3}\n", encoding="utf-8")
    code = ("import contextlib, io, sys\nfrom lindnet import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['run', 'pump.yaml', '--dt', '0.1'], ['run', 'expm.yaml'],"
            " ['sweep', 'pump.yaml', '--dt', '0.1', '--workers', '1']):\n"
            "        assert cli.main(argv + ['--output', 'out']) == 0, argv\n"
            "print('numpy.ma' in sys.modules)")
    assert _run_python(code, cwd=tmp_path) == "False"


def test_only_validate_loads_the_detectors(tmp_path):
    # run, steady and sweep neither compile nor execute lindnet.observables
    (tmp_path / "pump.yaml").write_text(
        "preset: two_site_pump\ntimes: {start: 0.0, stop: 1.0, num: 3}\n"
        "sweep: {path: params.J, values: [1.0, 2.0], observable: 'population:2',"
        " at_times: [1.0]}\n", encoding="utf-8")
    (tmp_path / "expm.yaml").write_text(
        "preset: two_site_pump\nmethod: superoperator_expm\n"
        "times: {start: 0.0, stop: 1.0, num: 3}\n", encoding="utf-8")
    code = ("import contextlib, io, sys\nfrom lindnet import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['run', 'pump.yaml', '--dt', '0.1'], ['run', 'expm.yaml'],"
            " ['steady', 'pump.yaml'], ['sweep', 'pump.yaml', '--dt', '0.1', '--workers', '2']):\n"
            "        assert cli.main(argv + ['--output', 'out']) == 0, argv\n"
            "    loaded = 'lindnet.observables' in sys.modules\n"
            "    assert cli.main(['validate']) == 0\n"
            "print(loaded, 'lindnet.observables' in sys.modules)")
    assert _run_python(code, cwd=tmp_path) == "False True"


def test_steady_loads_no_scipy(tmp_path):
    # the steady solve assembles, searches and factors with NumPy alone
    (tmp_path / "pump.yaml").write_text("preset: two_site_pump\n", encoding="utf-8")
    code = ("import sys\nfrom lindnet import cli\n"
            "assert cli.main(['steady', 'pump.yaml', '--output', 'out']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code, cwd=tmp_path) == "[]"


def test_no_module_level_scipy_import():
    # nor one inside a function: the package imports no SciPy at all
    import lindnet

    found = []
    for path in sorted(Path(lindnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT")


def _unpinned_env(**extra: str) -> dict:
    """os.environ without any BLAS thread setting, plus extra."""
    return {**{k: v for k, v in os.environ.items() if k not in _BLAS_VARS}, **extra}


def test_idle_blas_workers_sleep():
    # OpenBLAS's idle workers spin for 2**28 cycles (about 0.1 s) after a
    # threaded call unless told otherwise; importing lindnet first lets them
    # sleep after 2**20
    import numpy

    if len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()) < 2:
        pytest.skip("one CPU: OpenBLAS starts no second worker")
    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in blas.get("name", "").lower():
        pytest.skip("NumPy is not built on OpenBLAS")
    code = ("import time\nimport lindnet\nimport numpy as np\n"
            "np.linalg.inv(np.random.default_rng(0).standard_normal((400, 400)))\n"
            "t0 = time.process_time()\ntime.sleep(0.3)\n"
            "print(time.process_time() - t0)")
    assert float(_run_python(code, env=_unpinned_env())) < 0.02


@pytest.mark.parametrize("first, extra, expected", [
    ("", {}, "20"),
    ("", {"OPENBLAS_THREAD_TIMEOUT": "28"}, "28"),  # the user's value wins
    ("import numpy\n", {}, "None"),  # a host that loaded NumPy first is left alone
])
def test_blas_thread_timeout_default(first, extra, expected):
    code = f"import os\n{first}import lindnet\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
    assert _run_python(code, env=_unpinned_env(**extra)) == expected


def test_outputs_do_not_depend_on_blas_thread_timeout(tmp_path):
    # the timeout decides when idle workers sleep, never what they compute:
    # the default and the OpenBLAS default of 28 write the same bytes
    sweep = ("sweep: {path: params.J, values: [1.0, 2.0], observable: 'population:2',"
             " at_times: [10.0]}\n")
    (tmp_path / "pump.yaml").write_text(
        "preset: two_site_pump\ntimes: {start: 0.0, stop: 10.0, num: 11}\n" + sweep,
        encoding="utf-8")
    (tmp_path / "expm.yaml").write_text(
        "preset: two_site_pump\nmethod: superoperator_expm\n"
        "times: {start: 0.0, stop: 10.0, num: 11}\n", encoding="utf-8")
    outputs = {}
    for extra, expected in (({}, "20"), ({"OPENBLAS_THREAD_TIMEOUT": "28"}, "28")):
        code = ("import contextlib, io, os\nfrom lindnet import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    for argv in (['run', 'pump.yaml'], ['run', 'expm.yaml'],"
                " ['sweep', 'pump.yaml', '--workers', '2'], ['steady', 'pump.yaml']):\n"
                f"        assert cli.main(argv + ['--output', 'out{expected}']) == 0, argv\n"
                "print(os.environ['OPENBLAS_THREAD_TIMEOUT'])")
        assert _run_python(code, cwd=tmp_path, env=_unpinned_env(**extra)) == expected
        out = tmp_path / f"out{expected}"
        outputs[expected] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert sorted(outputs["20"]) == sorted(
        f"{stem}.{ext}" for stem in ("pump", "expm", "pump_sweep", "pump_steady")
        for ext in ("tsv", "meta.json"))
    assert outputs["20"] == outputs["28"]
