"""Tests of the benchmark itself, on the smoke-mode grids.

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
from checks import Case, rk4_substeps  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_within_format_limits():
    b = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                      "per_layer"}
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert 2 <= len(b["workloads"]) <= 8
    names = [w["name"] for w in b["workloads"]] + [
        m["name"] for m in b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in b["workloads"])
    for m in b["end_to_end"] + b["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert all(0 < v <= 0.25 for v in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(not p.startswith("/") and ".." not in p for p in b["command"] + b["paths"])


def test_substep_count_on_the_preset_grid():
    grid = np.linspace(0.0, 40.0, 2001)
    gaps = [max(1, int(np.ceil(float(b - a) / 1e-3))) for a, b in zip(grid[:-1], grid[1:])]
    assert gaps.count(21) == 688
    assert rk4_substeps(grid, 1e-3) == 40688


def test_inputs_follow_the_seed():
    for w in spec.WORKLOADS.values():
        assert w.config(3) == w.config(3)
        assert w.config(3) != w.config(4)
    values = spec.WORKLOADS["ring_valley_sweep"].config(5)["sweep"]["values"]
    assert 1e-2 <= values[0] < values[1] <= 10.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--smoke", "--seconds", "1",
                     "--trace", str(trace), "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = spec.PER_LAYER if trace else spec.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: spec.UNITS[name] for name in metrics}


def test_wrong_output_is_caught(tmp_path):
    workload = spec.WORKLOADS["chain_pump_run"]
    config = workload.config(1, smoke=True)
    (tmp_path / "case.yaml").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    env = {"PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-m", "lindnet",
                    *workload.argv(str(tmp_path / "case.yaml"), str(out))],
                   check=True, capture_output=True, env=env, timeout=60)
    case = Case(workload, config, 1, smoke=True)
    problems, _, digest = case.check(out)
    assert problems == []
    case.recorded = [x + 1e-6 for x in digest]
    assert "differs from the values recorded in reference.json" in case.check(out)[0]
    case.recorded = None
    tsv = out / "case.tsv"
    lines = tsv.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split("\t")
    cells[1] = repr(float(cells[1]) + 1e-6)
    tsv.write_text("\n".join(lines[:-1] + ["\t".join(cells)]) + "\n", encoding="utf-8")
    assert "differs from the expm_multiply reference" in case.check(out)[0]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "chain_steady", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
