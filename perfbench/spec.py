"""What the benchmark runs: the inputs of each workload and the check tolerances.

BENCHMARK.json at the repository root is the one definition of the
workloads' names and reasons and of the metrics' names, units and bounds;
this module reads it and adds, per workload, how its inputs are drawn from
the seed and how it is run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = BENCHMARK["run_seconds"]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# Documented invariant bounds (README "Invariant tolerances").
INVARIANT_TOL = 1e-9
# Agreement of a run's outputs with the values recorded in reference.json.
RECORDED_TOL = 1e-9
# Agreement with the benchmark's own expm_multiply / sparse-solve reference;
# RK4 at dt = 1e-3 is good to ~1e-12 on these runs.
INDEPENDENT_TOL = 1e-8

SWEEP_WORKERS = 2


def _rates(rng: random.Random) -> dict:
    return {"gamma_in": round(rng.uniform(0.1, 0.5), 4),
            "gamma_out": round(rng.uniform(0.1, 0.5), 4)}


def _chain_run(rng: random.Random, smoke: bool) -> dict:
    # The preset's own grid (2001 samples on [0, 40]) takes ~17 s, so a run
    # could time it only once. A tenth of it keeps the substep-to-sample
    # ratio, and with it the split between integrator and recorder.
    n, stop, num, dt = (3, 2.0, 21, 1e-2) if smoke else (6, 4.0, 201, 1e-3)
    return {"preset": "open_chain_pump", "params": {"N": n, **_rates(rng)},
            "times": {"start": 0.0, "stop": stop, "num": num},
            "method": "fixed_step_rk4", "dt": dt}


def _ring_sweep(rng: random.Random, smoke: bool) -> dict:
    # Two points, one per worker, at the ends of 1e-2..10, each pulled
    # inwards by up to a quarter decade.
    lo = -2.0 + rng.uniform(0.0, 0.25)
    hi = 1.0 - rng.uniform(0.0, 0.25)
    values = [float(f"{10.0 ** x:.6g}") for x in (lo, hi)]
    params = ({"N": 2, "excitations": 1, "battery_dim": 2} if smoke
              else {"excitations": 3})
    return {"preset": "lh1_ring", "params": params,
            "method": "superoperator_expm",
            "sweep": {"path": "params.gamma_b", "values": values,
                      "observable": "population:rc",
                      "at_times": [2.0 if smoke else 40.0]}}


def _chain_steady(rng: random.Random, smoke: bool) -> dict:
    return {"preset": "open_chain_pump",
            "params": {"N": 3 if smoke else 5, **_rates(rng)}}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # lindnet subcommand
    pin_blas: bool               # one BLAS thread per process
    make_config: Callable[[random.Random, bool], dict]

    def config(self, seed: int, smoke: bool = False) -> dict:
        return self.make_config(random.Random(f"{self.name}:{seed}"), smoke)

    def argv(self, config_path: str, outdir: str) -> list[str]:
        extra = ["--workers", str(SWEEP_WORKERS)] if self.command == "sweep" else []
        return [self.command, config_path, "--output", outdir, *extra]


# chain_pump_run's only BLAS work is a 64x64 eigvalsh per sample; with the
# default two threads the second one spins between calls, doubling CPU time
# and competing with the main thread. chain_steady's 1024x1024 eig gains
# from both threads, so it keeps the default.
_RUNS = {
    "chain_pump_run": ("run", True, _chain_run),
    "ring_valley_sweep": ("sweep", True, _ring_sweep),
    "chain_steady": ("steady", False, _chain_steady),
}
WORKLOADS = {w["name"]: Workload(w["name"], *_RUNS[w["name"]])
             for w in BENCHMARK["workloads"]}
