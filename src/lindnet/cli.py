"""Command-line front end.

Subcommands:

  run       integrate one configuration, write a TSV trajectory + JSON metadata
  sweep     rerun a configuration while stepping one parameter, tabulate a readout
  steady    stationary state of a configuration
  validate  cross-check the integrator against the closed-form solutions
  presets   list available presets with their defaults

Configurations are single-document YAML files; see README for the schema.
Exit codes: 0 success, 1 bad input or configuration (or a sweep worker that
died without its results), 2 a propagated state broke a physical invariant,
3 the validate battery found a mismatch.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import math
import os
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import yaml

from lindnet import __version__
from lindnet.dynamics import (
    InvariantViolation,
    LindbladGenerator,
    PropagationConfig,
    _superoperator_csr,
    propagate,
    steady_states,
)
from lindnet.hilbert import ProductBasis, SiteDescriptor, basis_state, dicke_state
from lindnet.model import (
    Extraction,
    Injection,
    NetworkSpec,
    _Either,
    _Leaf,
    _List,
    _Map,
    _NATURAL,
    _NETWORK,
    _NONNEGATIVE,
    _NUMBER,
    _POSITIVE,
    _TEXT,
    _WHOLE,
    _one_of,
    _parameters,
    _walk,
    preset,
    preset_defaults,
    preset_description,
    preset_names,
)

FLOAT_FMT = "%.17g"

_MAX_COUNT = 10**7  # the most output samples or sweep points a count may ask for


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


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


_SCALARS = ("purity", "purity_rate", "trace", "min_eigenvalue", "hermiticity_defect")


def _token_columns(tok: str):
    """(columns, coherence pair or None) of an observable token, or None for no token.

    A column is (name, reader): reader(traj) is its series in a Trajectory.
    """
    if tok in _SCALARS:
        return [(tok, lambda traj: getattr(traj, tok))], None
    if tok.startswith("population:"):
        label = tok.split(":", 1)[1]
        return [(f"population_{label}", lambda traj: traj.population(label))], None
    if tok.startswith("coherence:"):
        try:
            i, j = (int(part) for part in tok.split(":", 1)[1].split(","))
        except ValueError:
            return None
        return [(f"coherence_{i}_{j}_re", lambda traj: traj.coherences[(i, j)].real),
                (f"coherence_{i}_{j}_im", lambda traj: traj.coherences[(i, j)].imag)], (i, j)
    return None


_COUNT = _WHOLE.where(f"a whole number from 1 to {_MAX_COUNT}", lambda v: 1 <= v <= _MAX_COUNT)
_TOKEN = _TEXT.where("an observable token", lambda v: _token_columns(v) is not None)

# The configuration format, built from the nodes of lindnet.model. Each
# preset checks its own parameters, PropagationConfig checks dt, method and
# times, and NetworkSpec.from_dict what the network block's node cannot: site
# kinds, site references and duplicate labels.
_SCHEMA = _Map({
    "preset": _one_of(*preset_names()),
    "params": _Leaf("a mapping", lambda v: isinstance(v, dict)),
    "network": _NETWORK,
    "initial": _Map({"occupations": _List(_WHOLE),
                     "dicke": _Map({"sites": _List(_TEXT), "n": _WHOLE}, ("sites", "n"))},
                    one_of=("occupations", "dicke")),
    "times": _Either("a list or a mapping", type, {
        list: _List(_NUMBER),
        dict: _Map({"start": _NUMBER, "stop": _NUMBER, "num": _COUNT},
                   ("start", "stop", "num"))}),
    "observables": _Leaf("a list of observable tokens",
                         lambda v: isinstance(v, list) and all(map(_TOKEN.test, v))),
    "method": _TEXT,
    "dt": _NUMBER,
    "sweep": _Map({
        "path": _TEXT.where("a dotted path under a top-level key",
                            lambda v: v.split(".")[0] in _SCHEMA.keys),
        "values": _List(_NUMBER),
        "logspace": _Map({"start": _POSITIVE, "stop": _POSITIVE, "num": _COUNT},
                         ("start", "stop", "num")),
        "observable": _TOKEN,
        # every point starts at t = 0
        "at_times": _List(_NONNEGATIVE),
    }, ("path", "observable", "at_times"), ("values", "logspace")),
}, one_of=("preset", "network"))


def _check_config(cfg: dict, command: str, seed: int | None, dt: float | None) -> None:
    """Check a whole config, and the --seed and --dt given with it, for command."""
    _walk(_SCHEMA, cfg, "")
    if "preset" in cfg:
        if "initial" in cfg:
            raise ValueError("initial: a preset sets its own initial state; "
                             "only network configs take an initial block")
        params = _parameters(cfg["preset"], cfg.get("params", {}))
        if seed is not None:
            if "seed" not in params:
                raise ValueError(f"preset {cfg['preset']!r} accepts no seed")
            _walk(_NATURAL, seed, "--seed")
    else:
        NetworkSpec.from_dict(cfg["network"])
        if "params" in cfg:
            raise ValueError("params: only preset configs take params")
        if seed is not None:
            raise ValueError("network configs accept no seed")
        # a sweep point integrates on {0} and sweep.at_times only
        for key in {"run": ("initial", "times"), "sweep": ("initial",)}.get(command, ()):
            if key not in cfg:
                raise ValueError(f"{key}: a network config needs one for {command}")
    if command == "sweep":
        if "sweep" not in cfg:
            raise ValueError("config needs a sweep block for the sweep command")
        path = cfg["sweep"]["path"]
        for flag, given, key in (("--seed", seed, "params.seed"), ("--dt", dt, "dt")):
            if given is not None and path == key:
                raise ValueError(f"sweep.path: {flag} would override the swept {path}")
    if dt is not None:
        _walk(_SCHEMA.keys["dt"], dt, "--dt")
    # PropagationConfig owns dt's sign, the method names and the order of times
    _propagation_config(cfg, _resolve_times(cfg, np.zeros(1)), (), dt)


class _Loader(yaml.SafeLoader):
    """The safe loader with YAML 1.2's floats: 1e9, 1.0e9 and 1e-05 are numbers.

    YAML 1.1 reads an exponent only after a point and with a sign, as in
    1.0e+9; the rest of its schema is kept. A quoted scalar stays a string.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _load_config(args) -> dict:
    """The config file of args, checked whole for its command before any work."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"config {args.config} is not valid YAML: {exc}") from exc
    _check_config(data, args.command, args.seed, getattr(args, "dt", None))
    return data


def _resolve_times(cfg: dict, default: np.ndarray | None) -> np.ndarray:
    spec = cfg.get("times")
    if spec is None:
        return default
    if isinstance(spec, dict):
        return np.linspace(float(spec["start"]), float(spec["stop"]), int(spec["num"]))
    return np.asarray(spec, dtype=float)


def _build_run(cfg: dict, seed_override: int | None):
    """Returns (network spec, initial state, times, metadata) of a checked config.

    A network config's initial block is resolved on the spec's basis, so a
    bad one fails before any generator is built; without one the state is None.
    """
    if "preset" in cfg:
        params = dict(cfg.get("params", {}))
        if seed_override is not None:
            params["seed"] = seed_override
        run = preset(cfg["preset"], **params)
        return run.spec, run.initial, _resolve_times(cfg, run.times), dict(run.metadata)

    spec = NetworkSpec.from_dict(cfg["network"])
    meta = {"network": spec.to_dict()}
    if "initial" not in cfg:
        return spec, None, None, meta
    # the check left exactly one of occupations and dicke
    (kind, block), = cfg["initial"].items()
    basis = spec.basis()
    try:
        if kind == "occupations":
            state = basis_state(basis, tuple(int(o) for o in block))
        else:
            state = dicke_state(basis, block["sites"], int(block["n"]))
    except ValueError as exc:
        raise ValueError(f"initial.{kind}: {exc}") from exc
    meta["initial"] = _jsonable(cfg["initial"])
    return spec, state, _resolve_times(cfg, None), meta


def _parse_observables(tokens, basis: ProductBasis):
    """(columns, coherence index pairs) of checked observable tokens on basis's sites.

    No tokens means every site population, then purity, purity_rate, trace
    and min_eigenvalue.
    """
    labels = [s.label for s in basis.sites]
    tokens = tokens or [f"population:{label}" for label in labels] + list(_SCALARS[:4])
    for tok in tokens:
        if tok.startswith("population:") and tok[11:] not in labels:
            raise ValueError(f"observable {tok!r}: no site labelled {tok[11:]!r}")
    parsed = [_token_columns(tok) for tok in tokens]
    pairs = tuple(pair for _, pair in parsed if pair is not None)
    for (i, j) in pairs:
        if not (0 <= i < basis.dimension and 0 <= j < basis.dimension):
            raise ValueError(f"coherence index pair {(i, j)} out of range")
    return [col for cols, _ in parsed for col in cols], pairs


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
    options = {"method": cfg["method"]} if "method" in cfg else {}
    dt = cfg.get("dt") if dt_override is None else dt_override
    if dt is not None:
        options["dt"] = float(dt)
    return PropagationConfig(times=times, coherences=pairs, **options)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    spec, state, times, meta = _build_run(cfg, args.seed)
    cols, pairs = _parse_observables(cfg.get("observables"), spec.basis())
    traj = propagate(LindbladGenerator.from_network(spec), state,
                     _propagation_config(cfg, times, pairs, args.dt))
    cols = [("t", lambda traj: traj.times)] + cols
    header = [name for name, _ in cols]
    _write_outputs(args, "", cfg, header, _rows(cols, traj, range(times.size)),
                   {"columns": header, "run_metadata": meta, "propagation": traj.metadata})
    return 0


def _set_dotted(cfg: dict, path: str, value) -> None:
    *parents, last = path.split(".")
    node = cfg
    for part in parents:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[last] = value


def _sweep_values(block: dict) -> list[float]:
    if "values" in block:
        return [float(v) for v in block["values"]]
    ls = block["logspace"]
    return [float(v) for v in np.logspace(math.log10(float(ls["start"])),
                                          math.log10(float(ls["stop"])), int(ls["num"]))]


def _point(task) -> str:
    """The name of a sweep point, <sweep path>=<value>."""
    return f"{task[0]['sweep']['path']}={task[3]!r}"


def _sweep_one(task):
    """One sweep point, its config checked again; an error names the point."""
    cfg, seed, dt, value, at_times, token = task
    point = _point(task)
    try:
        run_cfg = copy.deepcopy(cfg)
        _set_dotted(run_cfg, run_cfg["sweep"]["path"], value)
        _check_config(run_cfg, "sweep", seed, dt)
        spec, state, _, _ = _build_run(run_cfg, seed)
        cols, pairs = _parse_observables([token], spec.basis())
        times = np.asarray(sorted({0.0, *at_times}), dtype=float)
        traj = propagate(LindbladGenerator.from_network(spec), state,
                         _propagation_config(run_cfg, times, pairs, dt))
    except InvariantViolation as exc:
        raise InvariantViolation(exc.invariant, exc.time, exc.value, exc.bound,
                                 point, exc.note) from exc
    except ValueError as exc:
        raise ValueError(f"{point}: {exc}") from exc
    samples = [int(np.argmin(np.abs(times - t))) for t in at_times]
    return [[_fmt(value), _fmt(times[k])] + cells
            for k, cells in zip(samples, _rows(cols, traj, samples))]


def _share(tasks, first: int, stride: int, parent: int | None = None):
    """(rows of each of tasks[first::stride], None), or (None, (k, error)) at
    the first point k that fails.

    Given the pid of the parent, returns None before a point once this
    process is no longer its child.
    """
    results = []
    for k in range(first, len(tasks), stride):
        if parent is not None and os.getppid() != parent:
            return None
        try:
            results.append(_sweep_one(tasks[k]))
        except Exception as exc:
            return None, (k, exc)
    return results, None


def _sweep_points(tasks, workers: int) -> list:
    """The rows of every sweep point, point k computed in process k mod workers.

    Process 0 is this one: it forks the others, runs its own share, then
    reads each child's pickled share to EOF and reaps the child. The
    failure at the lowest point index is raised, the one a serial sweep
    meets first. A child that ends without its share is a ValueError that
    names its points. No child outlives the call, whatever it raises.
    """
    parent = os.getpid()
    if workers > 1:
        # the children share every object made so far with this process:
        # frozen, no collection walks them again, in a child (whose walk
        # would copy the pages it touches) or in this process at exit
        gc.freeze()
    children = {}  # pid -> (read end of its pipe, its first point)
    shares, lost = {}, []
    try:
        for first in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    share = _share(tasks, first, workers, parent)
                    if share is not None:
                        # pickled whole first: an error that cannot be pickled writes nothing
                        data = pickle.dumps(share)
                        with open(w, "wb") as fh:
                            fh.write(data)
                        code = 0
                finally:
                    # never return into the caller
                    os._exit(code)
            os.close(w)
            children[pid] = (open(r, "rb"), first)
        shares[0] = _share(tasks, 0, workers)
        for pid, (fh, first) in list(children.items()):
            with fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if os.waitstatus_to_exitcode(status) == 0 and data:
                shares[first] = pickle.loads(data)
            else:
                lost.append((first, status))
    finally:
        if children:
            # imported here: only a sweep that fails midway kills its workers
            import signal
        for pid, (fh, _) in children.items():
            fh.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped already
    if lost:
        first, status = lost[0]
        how = (f"killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
               else f"exit status {os.waitstatus_to_exitcode(status)}")
        names = ", ".join(_point(t) for t in tasks[first::workers])
        raise ValueError(f"the sweep worker of {names} ended without a result ({how})")
    failures = [failure for _, failure in shares.values() if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows = [None] * len(tasks)
    for first, (results, _) in shares.items():
        rows[first::workers] = results
    return rows


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    cfg = _load_config(args)
    block = cfg["sweep"]
    values = _sweep_values(block)
    at_times = [float(t) for t in block["at_times"]]
    token = block["observable"]
    # the header's names only; each point reads the token on its own generator
    cols, _ = _token_columns(token)
    tasks = [(cfg, args.seed, args.dt, v, at_times, token) for v in values]
    workers = min(args.workers, len(tasks)) if hasattr(os, "fork") else 1
    results = _sweep_points(tasks, workers)

    header = [block["path"].split(".")[-1], "t"] + [name for name, _ in cols]
    rows = [row for chunk in results for row in chunk]
    _write_outputs(args, "_sweep", cfg, header, rows,
                   {"columns": header, "n_points": len(values)})
    return 0


def _cmd_steady(args) -> int:
    cfg = _load_config(args)
    spec, _, _, meta = _build_run(cfg, args.seed)
    gen = LindbladGenerator.from_network(spec)
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
        "settled": result.settled,
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
    # imported here: only validate checks the engine against the closed forms
    from lindnet import oracle
    from lindnet.observables import unitarity_distance

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
    from lindnet import oracle

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
        S = _superoperator_csr(LindbladGenerator.from_network(spec))
        dense = np.zeros((16, 16), dtype=complex)
        dense[S.rows, S.indices] = S.data
        ev = np.linalg.eigvals(dense)
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
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
