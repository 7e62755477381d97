"""lindnet benchmark: time the `lindnet` CLI on three workloads and check its outputs.

    python3 perfbench/run.py --workload chain_pump_run --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all           # every workload, both modes
    python3 perfbench/run.py --smoke ...     # tiny grids, for the benchmark's own tests

With --trace 0 it runs `lindnet` as a user would, one invocation at a time
(closed loop) for --seconds, and reports the end-to-end metrics. With
--trace 1 it runs traced.py once and reports the per-layer metrics. The
last line of standard output is one JSON object: correct, attempted,
failed and metrics. Workload and metric names, units and bounds come
from BENCHMARK.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec
from checks import REFERENCE_FILE, Case, load_recorded

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# A run, set-up and checks included, ends well inside 180 s.
RUN_LIMIT_S = 170.0
# Set-up probes per run, at least; they are spread over the run, after the
# timed invocations, so they see the same drift in machine speed.
SETUP_REPEATS = 8
# Every untraced run times at least this many invocations, so the counts
# can be compared and the median is not a single sample.
MIN_INVOCATIONS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(workload) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(SRC)
    if workload.pin_blas:
        env.update({k: "1" for k in BLAS_VARS})
    return env


def timed(argv: list[str], env: dict, log: Path, deadline: float) -> dict:
    """Run one process to completion: exit code, wall, CPU of the process tree, peak RSS.

    The process is killed if it is still running at `deadline`.
    """
    limit = max(1.0, deadline - time.perf_counter())
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            # ru_maxrss of a reaped child is the largest RSS of any single
            # process in its tree, in KiB on Linux.
            "peak_rss_mb": ru.ru_maxrss / 1024.0}


def lindnet(*args: str) -> list[str]:
    return [sys.executable, "-m", "lindnet", *args]


def environment(workload) -> dict:
    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "loadavg_1m": os.getloadavg()[0],
           "blas_threads": ("1 per process (OPENBLAS_NUM_THREADS=1)" if workload.pin_blas
                            else "default")}
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        env["blas"] = "unknown"
    env["commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    env["source_sha256"] = digest.hexdigest()[:16]
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                env[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


def run_untraced(workload, case, workdir: Path, env: dict, seconds: float,
                 deadline: float, log) -> dict:
    """Closed loop: the next invocation starts when the last one ended.

    Set-up probes run between invocations, as many after each as it takes
    to reach SETUP_REPEATS over the invocations the run is expected to hold.
    """
    cfg_path = str(workdir / "case.yaml")
    probe = [sys.executable, str(HERE / "setup_probe.py"), cfg_path]
    samples, setup, failures, counts_seen = [], [], 0, []
    probes_per_gap = None
    t_start = time.perf_counter()
    while True:
        outdir = workdir / f"inv{len(samples)}"
        sample = timed(lindnet(*workload.argv(cfg_path, str(outdir))), env,
                       workdir / f"inv{len(samples)}.log", deadline)
        problems, counts, _ = case.check(outdir) if sample["rc"] == 0 else (
            [f"exit code {sample['rc']}"], {}, [])
        samples.append(sample)
        counts_seen.append(counts)
        if problems:
            failures += 1
            log(f"invocation {len(samples)} failed: {'; '.join(problems)}")
        shutil.rmtree(outdir, ignore_errors=True)
        if probes_per_gap is None:
            expected = max(MIN_INVOCATIONS, int(seconds // max(sample["wall_s"], 1e-3)))
            probes_per_gap = math.ceil(SETUP_REPEATS / expected)
        setup += [timed(probe, env, workdir / "setup.log", deadline)
                  for _ in range(probes_per_gap)]
        now = time.perf_counter()
        if now + sample["wall_s"] > deadline or (
                len(samples) >= MIN_INVOCATIONS and len(setup) >= SETUP_REPEATS
                and now - t_start + sample["wall_s"] > seconds):
            break
    if any(s["rc"] for s in setup):
        failures += 1
        log("setup probe failed")
    metrics = {k: statistics.median(s[k] for s in samples)
               for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(s["wall_s"] for s in setup)
    log(f"samples: {len(samples)} invocations, {len(setup)} set-ups "
        f"(medians reported)")
    return {"metrics": metrics, "attempted": len(samples), "failed": failures,
            "counts": counts_seen, "samples": samples, "setup_samples": setup}


def run_traced(workload, case, workdir: Path, env: dict, deadline: float, log) -> dict:
    status = timed([sys.executable, str(HERE / "traced.py"), workload.name, str(workdir)],
                   env, workdir / "traced.log", deadline)
    if status["rc"] != 0:
        log(f"traced run exited {status['rc']}; see {workdir / 'traced.log'}")
        return {"metrics": {}, "attempted": 1, "failed": 1, "counts": []}
    traced = json.loads((workdir / "traced.json").read_text(encoding="utf-8"))
    failed, counts_seen = 0, []
    for sub, rc in traced["exit_codes"].items():
        problems, counts, _ = case.check(workdir / sub) if rc == 0 else (
            [f"exit code {rc}"], {}, [])
        counts_seen.append(counts)
        if problems:
            failed += 1
            log(f"cli.main ({sub}) failed: {'; '.join(problems)}")
    plain, wrapped = traced["cli_main_s"]["plain"], traced["cli_main_s"]["traced"]
    log("cli.main wall, plain:  " + " ".join(f"{x:.4f}" for x in plain) + " s")
    log("cli.main wall, traced: " + " ".join(f"{x:.4f}" for x in wrapped) + " s")
    return {"metrics": {**traced["metrics"], **counts_seen[-1]},
            "attempted": len(counts_seen), "failed": failed, "counts": counts_seen}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = spec.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    env = child_env(workload)
    info = environment(workload)
    log("env " + json.dumps(info, sort_keys=True))

    config = workload.config(seed, smoke)
    # JSON is YAML, so the config needs no YAML writer here.
    (workdir / "case.yaml").write_text(json.dumps(config, indent=1), encoding="utf-8")
    case = Case(workload, config, seed, smoke)

    valid = timed(lindnet("validate"), env, workdir / "validate.log", deadline)
    if valid["rc"] != 0:
        log(f"lindnet validate exited {valid['rc']}")
    if trace:
        res = run_traced(workload, case, workdir, env, deadline, log)
        spans = workdir / "spans.json"
        if spans.exists():
            shutil.copy(spans, OUT / f"spans-{tag}.json")
    else:
        res = run_untraced(workload, case, workdir, env, seconds, deadline, log)

    counts_repeat = all(c == res["counts"][0] for c in res["counts"])
    if not counts_repeat:
        log("computed counts differ between invocations: " + json.dumps(res["counts"]))
    correct = valid["rc"] == 0 and res["failed"] == 0 and counts_repeat
    names = spec.PER_LAYER if trace else spec.END_TO_END
    if correct and set(names) - set(res["metrics"]):
        log(f"metrics missing: {sorted(set(names) - set(res['metrics']))}")
        correct = False
    for key in names:
        if key in res["metrics"]:
            label = "  (computed)" if key.startswith("count.") else ""
            log(f"{key:32s} {res['metrics'][key]:.6g} {spec.UNITS[key]}{label}")
    log(f"{'failed_frac':32s} {res['failed'] / res['attempted']:.6g} "
        f"({res['failed']} of {res['attempted']} invocations)")
    result = {"correct": bool(correct), "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": float(res["metrics"][k]), "unit": spec.UNITS[k]}
                          for k in names if k in res["metrics"]}}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"seed": seed, "env": info, **result, "samples": res.get("samples"),
         "setup_samples": res.get("setup_samples")}, indent=1), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def record_reference(seeds: list[int]) -> None:
    """Store the checked output values of one invocation per workload and seed."""
    table = load_recorded()
    OUT.mkdir(exist_ok=True)
    for workload in spec.WORKLOADS.values():
        for seed in seeds:
            workdir = OUT / f"record-{workload.name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            config = workload.config(seed)
            (workdir / "case.yaml").write_text(json.dumps(config), encoding="utf-8")
            case = Case(workload, config, seed, smoke=False)
            case.recorded = None
            argv = workload.argv(str(workdir / "case.yaml"), str(workdir / "out"))
            status = timed(lindnet(*argv), child_env(workload), workdir / "log",
                           time.perf_counter() + RUN_LIMIT_S)
            problems, _, digest = case.check(workdir / "out") if status["rc"] == 0 else (
                [f"exit code {status['rc']}"], {}, [])
            if problems:
                raise SystemExit(f"{workload.name} seed {seed}: {problems}")
            table.setdefault(workload.name, {})[str(seed)] = digest
            print(f"recorded {workload.name} seed {seed}", flush=True)
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, for the benchmark's own tests")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--record-reference", type=int, nargs="+", metavar="SEED",
                        help="record reference.json values for these seeds")
    args = parser.parse_args(argv)

    if not (SRC / "lindnet" / "__init__.py").exists():
        print(f"error: no lindnet source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.record_reference:
        record_reference(args.record_reference)
        return 0
    if args.all:
        ok = True
        for name in spec.WORKLOADS:
            for trace in (False, True):
                print(f"== {name} ({'traced' if trace else 'end to end'}, seed {args.seed})")
                ok &= run_workload(name, args.seed, args.seconds, trace, args.smoke)["correct"]
        print("all outputs correct" if ok else "SOME OUTPUTS WRONG")
        return 0 if ok else 1
    if args.workload is None:
        parser.error("give --workload, --all or --record-reference")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
