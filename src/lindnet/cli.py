"""Command-line front end.

Subcommands:

  run       integrate one configuration, write a TSV trajectory + JSON metadata
  sweep     rerun a configuration while stepping one parameter, tabulate a readout
  steady    stationary state of a configuration
  validate  cross-check the integrator against the closed-form solutions
  presets   list available presets with their defaults

Configurations are single-document YAML files; see README for the schema.
Exit codes: 0 success, 1 bad input or configuration, 2 a propagated state
broke a physical invariant, 3 the validate battery found a mismatch.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from lindnet import __version__, oracle
from lindnet.dynamics import (
    InvariantViolation,
    LindbladGenerator,
    PropagationConfig,
    build_superoperator,
    propagate,
    steady_states,
)
from lindnet.hilbert import SiteDescriptor, basis_state, dicke_state
from lindnet.model import (
    Extraction,
    Injection,
    NetworkSpec,
    preset,
    preset_defaults,
    preset_description,
    preset_names,
)
from lindnet.observables import unitarity_distance

FLOAT_FMT = "%.17g"

# Every top-level key a configuration may hold; any other exits 1.
CONFIG_KEYS = ("preset", "params", "network", "initial", "times", "observables",
               "method", "dt", "sweep")


class UsageError(Exception):
    """Bad command line or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise UsageError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a single mapping")
    unknown = [key for key in data if key not in CONFIG_KEYS]
    if unknown:
        raise UsageError(f"config {path}: unknown keys {unknown}; "
                         f"valid: {', '.join(CONFIG_KEYS)}")
    return data


def _number(value, key: str) -> float:
    """value as a finite float, or a UsageError naming key."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise UsageError(f"{key} must be a finite number, got {value!r}")
    return x


def _integer(value, key: str) -> int:
    """value as an int, or a UsageError naming key; a fraction is not truncated."""
    x = _number(value, key)
    if not x.is_integer():
        raise UsageError(f"{key} must be an integer, got {value!r}")
    return int(x)


def _numbers(value, key: str) -> list[float]:
    """The nonempty list of finite numbers under key, or a UsageError naming it."""
    if not isinstance(value, list) or not value:
        raise UsageError(f"{key} must be a nonempty list of numbers, got {value!r}")
    return [_number(v, f"each of {key}") for v in value]


def _resolve_times(cfg: dict, default: np.ndarray | None) -> np.ndarray:
    spec = cfg.get("times")
    if spec is None:
        if default is None:
            raise UsageError("config needs a times entry (no preset default here)")
        return default
    if isinstance(spec, dict):
        missing = {"start", "stop", "num"} - set(spec)
        if missing:
            raise UsageError(f"times mapping missing keys: {sorted(missing)}")
        num = _integer(spec["num"], "times.num")
        if num < 1:
            raise UsageError(f"times.num must be at least 1, got {spec['num']!r}")
        return np.linspace(_number(spec["start"], "times.start"),
                           _number(spec["stop"], "times.stop"), num)
    if isinstance(spec, list):
        return np.asarray(_numbers(spec, "times"), dtype=float)
    raise UsageError("times must be a list or a {start, stop, num} mapping")


def _network_gen(cfg: dict, seed_override: int | None) -> tuple[LindbladGenerator, dict]:
    if seed_override is not None:
        raise UsageError("network configs accept no seed")
    try:
        spec = NetworkSpec.from_dict(cfg["network"])
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad network block: {exc}") from exc
    return LindbladGenerator.from_network(spec), {"network": spec.to_dict()}


def _build_run(cfg: dict, seed_override: int | None):
    """Returns (generator, initial state, times, metadata)."""
    has_preset = "preset" in cfg
    has_network = "network" in cfg
    if has_preset == has_network:
        raise UsageError("config must contain exactly one of 'preset' or 'network'")
    if has_preset:
        if "initial" in cfg:
            raise UsageError("initial: a preset sets its own initial state; "
                             "only network configs take an initial block")
        name = cfg["preset"]
        params = cfg.get("params", {})
        if not isinstance(params, dict):
            raise UsageError(f"params must be a mapping, got {params!r}")
        params = dict(params)
        if seed_override is not None:
            if "seed" not in preset_defaults(name):
                raise UsageError(f"preset {name!r} accepts no seed")
            params["seed"] = seed_override
        try:
            run = preset(name, **params)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        gen = LindbladGenerator.from_network(run.spec)
        return gen, run.initial, _resolve_times(cfg, run.times), dict(run.metadata)

    gen, meta = _network_gen(cfg, seed_override)
    basis = gen.basis
    init = cfg.get("initial")
    if not isinstance(init, dict):
        raise UsageError("network configs need an initial block")
    if "occupations" in init:
        occupations = _numbers(init["occupations"], "initial.occupations")
        state = basis_state(basis, tuple(_integer(o, "each of initial.occupations")
                                         for o in occupations))
    elif "dicke" in init:
        block = init["dicke"]
        if not isinstance(block, dict) or not {"sites", "n"} <= set(block):
            raise UsageError(f"initial.dicke needs sites and n, got {block!r}")
        state = dicke_state(basis, list(block["sites"]),
                            _integer(block["n"], "initial.dicke.n"))
    else:
        raise UsageError("initial block needs 'occupations' or 'dicke'")
    meta["initial"] = _jsonable(init)
    return gen, state, _resolve_times(cfg, None), meta


_SCALARS = ("purity", "purity_rate", "trace", "min_eigenvalue", "hermiticity_defect")


def _parse_observables(tokens, gen: LindbladGenerator | None):
    """Returns (columns, coherence index pairs) for the observable tokens.

    Each column is (name, reader), where reader(traj) is that TSV column's
    series in a Trajectory. No tokens means every site population, then
    purity, purity_rate, trace and min_eigenvalue. gen=None skips label checks.
    """
    labels = tuple(s.label for s in gen.basis.sites) if gen is not None else None
    if not tokens:
        tokens = [f"population:{label}" for label in labels] + list(_SCALARS[:4])
    cols = []
    pairs = []
    for tok in map(str, tokens):
        if tok in _SCALARS:
            cols.append((tok, lambda traj, name=tok: getattr(traj, name)))
        elif tok.startswith("population:"):
            label = tok.split(":", 1)[1]
            if labels is not None and label not in labels:
                raise UsageError(f"observable {tok!r}: no site labelled {label!r}")
            cols.append((f"population_{label}",
                         lambda traj, label=label: traj.population(label)))
        elif tok.startswith("coherence:"):
            body = tok.split(":", 1)[1]
            try:
                i, j = (int(part) for part in body.split(","))
            except ValueError:
                raise UsageError(f"observable {tok!r}: expected coherence:<i>,<j>") from None
            cols.append((f"coherence_{i}_{j}_re",
                         lambda traj, pair=(i, j): traj.coherences[pair].real))
            cols.append((f"coherence_{i}_{j}_im",
                         lambda traj, pair=(i, j): traj.coherences[pair].imag))
            pairs.append((i, j))
        else:
            raise UsageError(f"unknown observable {tok!r}")
    return cols, tuple(pairs)


def _rows(cols, traj, samples) -> list[list[str]]:
    """The formatted cells of cols at each sample index."""
    series = [read(traj) for _, read in cols]
    return [[_fmt(s[k]) for s in series] for k in samples]


def _write_outputs(args, suffix: str, cfg: dict, header: list[str], rows,
                   meta: dict) -> None:
    """Write <config stem><suffix>.tsv and .meta.json under --output; print the TSV path."""
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    # concatenated, not with_suffix: a stem with a dot keeps its tail
    base = str(outdir / (Path(args.config).stem + suffix))
    tsv = Path(base + ".tsv")
    with open(tsv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")
    payload = {"command": args.command, "version": __version__, "config": cfg, **meta}
    with open(base + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {tsv}")


def _propagation_config(cfg: dict, times: np.ndarray, pairs, dt_override) -> PropagationConfig:
    """PropagationConfig with the dt and method that --dt or the config set, else its defaults."""
    options = {}
    if dt_override is not None:
        options["dt"] = dt_override
    elif "dt" in cfg:
        options["dt"] = _number(cfg["dt"], "dt")
    if "method" in cfg:
        options["method"] = cfg["method"]
    try:
        return PropagationConfig(times=times, coherences=pairs, **options)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    gen, state, times, meta = _build_run(cfg, args.seed)
    tokens = cfg.get("observables")
    if tokens is not None and not isinstance(tokens, list):
        raise UsageError(f"observables must be a list of tokens, got {tokens!r}")
    cols, pairs = _parse_observables(tokens, gen)
    traj = propagate(gen, state, _propagation_config(cfg, times, pairs, args.dt))
    cols = [("t", lambda traj: traj.times)] + cols
    header = [name for name, _ in cols]
    _write_outputs(args, "", cfg, header, _rows(cols, traj, range(times.size)),
                   {"columns": header, "run_metadata": meta, "propagation": traj.metadata})
    return 0


def _set_dotted(cfg: dict, path: str, value) -> None:
    parts = path.split(".")
    node = cfg
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _sweep_values(block: dict) -> list[float]:
    if "values" in block:
        return _numbers(block["values"], "sweep.values")
    if "logspace" in block:
        ls = block["logspace"]
        if not isinstance(ls, dict) or not {"start", "stop", "num"} <= set(ls):
            raise UsageError(f"sweep.logspace needs numbers start, stop and num, "
                             f"got {ls!r}")
        start = _number(ls["start"], "sweep.logspace.start")
        stop = _number(ls["stop"], "sweep.logspace.stop")
        num = _integer(ls["num"], "sweep.logspace.num")
        if not (start > 0 and stop > 0 and num >= 1):
            raise UsageError(f"sweep.logspace needs start > 0, stop > 0 and num >= 1, "
                             f"got {ls!r}")
        return [float(v) for v in np.logspace(math.log10(start), math.log10(stop), num)]
    raise UsageError("sweep block needs 'values' or 'logspace'")


def _sweep_one(task):
    """One sweep point; module-level so it can cross a process boundary.

    An error names the point as <sweep path>=<value>.
    """
    cfg, seed, dt, value, at_times, token = task
    point = f"{cfg['sweep']['path']}={value!r}"
    try:
        run_cfg = copy.deepcopy(cfg)
        _set_dotted(run_cfg, run_cfg["sweep"]["path"], value)
        gen, state, _, _ = _build_run(run_cfg, seed)
        cols, pairs = _parse_observables([token], gen)
        times = np.asarray(sorted({0.0, *at_times}), dtype=float)
        pconfig = _propagation_config(run_cfg, times, pairs, dt)
        traj = propagate(gen, state, pconfig)
    except InvariantViolation as exc:
        raise InvariantViolation(exc.invariant, exc.time, exc.value, exc.bound,
                                 point) from exc
    except (UsageError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{point}: {exc}") from exc
    samples = [int(np.argmin(np.abs(times - t))) for t in at_times]
    return [[_fmt(value), _fmt(times[k])] + cells
            for k, cells in zip(samples, _rows(cols, traj, samples))]


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    cfg = _load_config(args.config)
    block = cfg.get("sweep")
    if not isinstance(block, dict):
        raise UsageError("config needs a sweep block for the sweep command")
    for key in ("path", "observable", "at_times"):
        if key not in block:
            raise UsageError(f"sweep block missing {key!r}")
    path = block["path"]
    if not isinstance(path, str) or path.split(".")[0] not in CONFIG_KEYS:
        raise UsageError(f"sweep.path must be a dotted path under one of "
                         f"{', '.join(CONFIG_KEYS)}, got {path!r}")
    values = _sweep_values(block)
    at_times = _numbers(block["at_times"], "sweep.at_times")
    # every point starts at t = 0; a negative time would move that origin
    if not all(t >= 0 for t in at_times):
        raise UsageError(f"sweep.at_times must not be negative, got {block['at_times']!r}")
    token = str(block["observable"])
    # the header's names only; each point parses the token against its own generator
    cols, _ = _parse_observables([token], None)
    tasks = [(cfg, args.seed, args.dt, v, at_times, token) for v in values]

    # under the fork start method the pool forks every worker at the first
    # submit, so never ask for more than there are points
    workers = min(args.workers, len(tasks))
    if workers > 1:
        # forked workers inherit the parent's modules: import the SciPy part
        # propagate uses once here instead of once in every worker
        import scipy.sparse  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, tasks))
    else:
        results = [_sweep_one(t) for t in tasks]

    header = [path.split(".")[-1], "t"] + [name for name, _ in cols]
    rows = [row for chunk in results for row in chunk]
    _write_outputs(args, "_sweep", cfg, header, rows,
                   {"columns": header, "n_points": len(values)})
    return 0


def _cmd_steady(args) -> int:
    cfg = _load_config(args.config)
    if "preset" in cfg:
        gen, _, _, meta = _build_run(cfg, args.seed)
    else:
        gen, meta = _network_gen(cfg, args.seed)
    result = steady_states(gen)
    sites = gen.basis.sites
    occ = gen.basis.occupation_table
    diag = np.real(np.diag(result.state))
    header = [f"population_{s.label}" for s in sites] + ["multiplicity", "residual"]
    row = ([_fmt(float(diag @ occ[:, k])) for k in range(len(sites))]
           + [str(result.multiplicity), _fmt(result.residual)])
    _write_outputs(args, "_steady", cfg, header, [row], {
        "state_re": result.state.real,
        "state_im": result.state.imag,
        "multiplicity": result.multiplicity,
        "blocks": result.blocks,
        "residual": result.residual,
        "zero_eigenvalues": [complex(z) for z in result.zero_eigenvalues],
        "run_metadata": meta,
    })
    return 0


def _cmd_presets(args) -> int:
    for name in preset_names():
        print(f"{name}: {preset_description(name)}")
        defaults = preset_defaults(name)
        for key in sorted(defaults):
            print(f"    {key} = {defaults[key]!r}")
    return 0


# ---------------------------------------------------------------------------
# validate: integrator vs closed forms


def _check(name: str, measured: float, bound: float, lines: list) -> bool:
    ok = measured <= bound
    lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: measured {measured:.3e}, "
                 f"bound {bound:.3e}")
    return ok


def _validate_battery() -> tuple[list[str], bool]:
    lines: list[str] = []
    ok = True

    # entrywise transfer channel against a fixed-seed mixed state
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = A @ A.conj().T
    rho0 /= rho0.trace()
    run = preset("two_site_transfer", gamma=1.0)
    gen = LindbladGenerator.from_network(run.spec)
    times = np.linspace(0.0, 6.0, 61)
    traj = propagate(gen, rho0, PropagationConfig(times=times, snapshots="all"))
    err = max(float(np.abs(traj.snapshots[k]
                           - oracle.two_site_transfer_map(rho0, 1.0, t)).max())
              for k, t in enumerate(times))
    ok &= _check("incoherent transfer channel", err, 1e-6, lines)

    # dimer populations with a lossy second site
    run = preset("four_site_congestion", J=1.0, gamma=0.1, excitations=1)
    gen = LindbladGenerator.from_network(run.spec)
    times = np.linspace(0.0, 40.0, 201)
    traj = propagate(gen, run.initial,
                     PropagationConfig(times=times, method="superoperator_expm"))
    n1_ref, n2_ref = oracle.four_site_single_excitation(1.0, 0.1, times)
    err = max(float(np.abs(traj.population("1") - n1_ref).max()),
              float(np.abs(traj.population("2") - n2_ref).max()))
    ok &= _check("dimer leak populations", err, 1e-6, lines)

    # pumped dimer stationary state
    sol = oracle.pump_two_site(2.0, 0.2, 0.3)
    run = preset("two_site_pump")
    gen = LindbladGenerator.from_network(run.spec)
    st = steady_states(gen)
    err = float(np.abs(st.state - sol.state).max())
    ok &= _check("pumped dimer stationary state", err, 1e-9, lines)

    # hop-off sink: distance and purity closed forms
    run = preset("hop_transfer", J=2.0, gamma=1.0)
    gen = LindbladGenerator.from_network(run.spec)
    times = np.linspace(0.0, 8.0, 81)
    traj = propagate(gen, run.initial,
                     PropagationConfig(times=times, method="superoperator_expm",
                                       snapshots="all"))
    sol = oracle.hop_transfer_closed_forms(2.0, 1.0, times)
    proj = np.zeros((2, 2), dtype=complex)
    proj[1, 1] = 1.0
    ref_full = np.kron(sol.dark_state, proj)
    H = gen.hamiltonian
    dist = np.array([unitarity_distance(traj.snapshots[k], ref_full, H, t)
                     for k, t in enumerate(times)])
    err_d = float(np.abs(dist - sol.distance).max())
    err_p = float(np.abs(traj.purity - sol.purity).max())
    ok &= _check("sink distance law", err_d, 1e-6, lines)
    ok &= _check("sink purity law", err_p, 1e-6, lines)
    return lines, ok


def _calibration_lines() -> list[str]:
    """Show which hopping convention reproduces the closed-form frequency."""
    J, gin, gout = 2.0, 0.2, 0.3
    sol = oracle.pump_two_site(J, gin, gout)
    target = sol.omega / 2.0
    lines = ["hopping calibration (pumped dimer, J = 2, rates 0.2 / 0.3):"]
    for label, element in (("J/2", J / 2.0), ("J", J)):
        spec = NetworkSpec(
            sites=(SiteDescriptor("1", "qubit", 2), SiteDescriptor("2", "qubit", 2)),
            hoppings=(("1", "2", element),),
            jumps=(Injection("1", gin), Extraction("2", gout)),
        )
        gen = LindbladGenerator.from_network(spec)
        ev = np.linalg.eigvals(build_superoperator(gen))
        sel = [e.imag for e in ev if abs(e.real + (gin + gout) / 2.0) < 1e-9]
        got = max(sel) if sel else float("nan")
        mark = "  <- matches closed form, used by presets" \
            if abs(got - target) < 1e-6 else ""
        lines.append(f"    element {label}: slow pair imag {got:.6f} "
                     f"(closed form {target:.6f}){mark}")
    return lines


def _cmd_validate(args) -> int:
    lines, ok = _validate_battery()
    for line in lines:
        print(line)
    for line in _calibration_lines():
        print(line)
    if not ok:
        print("validate: MISMATCH against closed forms")
        return 3
    print("validate: all checks passed")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="lindnet",
                     description="Lindblad dynamics of small open quantum networks")
    parser.add_argument("--version", action="version", version=f"lindnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.set_defaults(func=_cmd_run)
    p_sweep = sub.add_parser("sweep", help="step one parameter and tabulate a readout")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel sweep processes")
    p_sweep.set_defaults(func=_cmd_sweep)
    p_steady = sub.add_parser("steady", help="stationary state of a configuration")
    p_steady.set_defaults(func=_cmd_steady)
    for p in (p_run, p_sweep, p_steady):
        p.add_argument("config", help="YAML configuration file")
        p.add_argument("--output", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="noise seed override")
    # the substep only matters where something is integrated
    for p in (p_run, p_sweep):
        p.add_argument("--dt", type=float, default=None, help="integrator substep override")

    p_val = sub.add_parser("validate", help="cross-check against closed forms")
    p_val.set_defaults(func=_cmd_validate)

    p_pre = sub.add_parser("presets", help="list presets and their defaults")
    p_pre.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
