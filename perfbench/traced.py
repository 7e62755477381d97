"""Traced run of one workload, timing lindnet's layers from outside.

Run by run.py in a process of its own, so the workload's BLAS setting
applies:

    python3 perfbench/traced.py <workload> <workdir>

It reads <workdir>/case.yaml and writes <workdir>/traced.json (the
per-layer metrics) and <workdir>/spans.json (every span, once, at the
end). Spans are recorded only around calls into the library made from
here; nothing in lindnet is changed.

Layer times are totals per invocation of the workload's command: the
direct calls repeat what the command does (one pass per sweep point),
and then `cli.main` runs in this process, alternately plain and with the
library names it imports wrapped in spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from checks import rk4_substeps
from spec import SWEEP_WORKERS, WORKLOADS


class Tracer:
    """Spans kept in memory: id, name, start, end and the parent's id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": parent}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.spans if s["name"] == name)

    def self_time(self, index: int) -> float:
        """Span duration minus the time its (sequential) children cover."""
        kids = sum(self.duration(s) for s in self.spans if s["parent"] == index)
        return self.duration(self.spans[index]) - kids


class _TracedClass:
    """Stands in for a class imported by the CLI; spans around its named methods."""

    def __init__(self, cls, tracer: Tracer, methods: dict[str, str]):
        self._cls, self._tracer, self._methods = cls, tracer, methods

    def __getattr__(self, attr):
        value = getattr(self._cls, attr)
        if attr in self._methods:
            return self._tracer.wrap(value, self._methods[attr])
        return value


@contextmanager
def traced_cli(cli, tracer: Tracer):
    """Wrap the library entry points the CLI module calls."""
    saved = {n: getattr(cli, n) for n in
             ("preset", "propagate", "steady_states", "LindbladGenerator")}
    cli.preset = tracer.wrap(saved["preset"], "cli.call.preset")
    cli.propagate = tracer.wrap(saved["propagate"], "cli.call.propagate")
    cli.steady_states = tracer.wrap(saved["steady_states"], "cli.call.steady_states")
    cli.LindbladGenerator = _TracedClass(saved["LindbladGenerator"], tracer,
                                         {"from_network": "cli.call.from_network"})
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)


def layer_calls(tracer: Tracer, workload, cfg: dict) -> None:
    """The library calls the command makes, one pass per sweep point."""
    from lindnet.dynamics import LindbladGenerator, PropagationConfig, propagate, steady_states
    from lindnet.model import build_hamiltonian, build_jump_operators, preset

    sweep = cfg.get("sweep")
    for value in (sweep["values"] if sweep else [None]):
        params = dict(cfg["params"])
        if value is not None:
            params["gamma_b"] = value
        with tracer.span("point"):
            with tracer.span("model.preset"):
                run = preset(cfg["preset"], **params)
            basis = run.spec.basis()
            with tracer.span("model.hamiltonian"):
                H = build_hamiltonian(run.spec, basis)
            with tracer.span("model.jumps"):
                jumps = build_jump_operators(run.spec, basis)
            with tracer.span("dynamics.generator"):
                gen = LindbladGenerator(H, tuple(jumps), basis)
            if workload.command == "steady":
                with tracer.span("dynamics.steady"):
                    steady_states(gen)
                continue
            grid = endpoint_grid(cfg)
            opts = {"dt": float(cfg.get("dt", 1e-3)), "method": cfg["method"]}
            with tracer.span("dynamics.prologue"):
                propagate(gen, run.initial, PropagationConfig(times=grid[:1], **opts))
            with tracer.span("dynamics.endpoint"):
                propagate(gen, run.initial, PropagationConfig(times=grid, **opts))


def full_grid(cfg: dict) -> np.ndarray:
    t = cfg["times"]
    return np.linspace(t["start"], t["stop"], t["num"])


def endpoint_grid(cfg: dict) -> np.ndarray:
    """First and last output time of one propagate call."""
    if "sweep" in cfg:
        return np.asarray(sorted({0.0, float(cfg["sweep"]["at_times"][-1])}))
    grid = full_grid(cfg)
    return grid[[0, -1]]


def main(argv: list[str]) -> int:
    workload = WORKLOADS[argv[0]]
    workdir = Path(argv[1])
    cfg = json.loads((workdir / "case.yaml").read_text(encoding="utf-8"))
    from lindnet import cli

    tracer = Tracer()
    with tracer.span("layers"):
        layer_calls(tracer, workload, cfg)

    # Plain and traced cli.main alternate, so drift in machine speed falls
    # on both; a sweep invocation is too long to repeat.
    case = str(workdir / "case.yaml")
    plain, exit_codes = [], {}
    for i in range(1 if workload.command == "sweep" else 3):
        for kind in ("plain", "traced")[::1 if i % 2 == 0 else -1]:
            out = f"{kind}{i}"
            if kind == "plain":
                t0 = time.perf_counter()
                exit_codes[out] = cli.main(workload.argv(case, str(workdir / out)))
                plain.append(time.perf_counter() - t0)
            else:
                with traced_cli(cli, tracer), tracer.span("cli.main"):
                    exit_codes[out] = cli.main(workload.argv(case, str(workdir / out)))
    mains = [s for s in tracer.spans if s["name"] == "cli.main"]

    def children(name: str) -> list[float]:
        return [sum(Tracer.duration(c) for c in tracer.spans
                    if c["parent"] == s["id"] and c["name"] == name) for s in mains]

    prologue = tracer.total("dynamics.prologue")
    integrate = tracer.total("dynamics.endpoint") - prologue
    m = {name: 0.0 for name in (
        "dynamics.record_s", "dynamics.record_us_per_sample", "cli.self_s",
        "cli.sweep_efficiency")}
    m.update({
        "model.preset_s": tracer.total("model.preset"),
        "model.hamiltonian_s": tracer.total("model.hamiltonian"),
        "model.jumps_s": tracer.total("model.jumps"),
        "dynamics.generator_s": tracer.total("dynamics.generator"),
        "dynamics.prologue_s": prologue,
        "dynamics.integrate_s": integrate,
        "dynamics.steady_s": tracer.total("dynamics.steady"),
        "trace.overhead_s": (statistics.median(Tracer.duration(s) for s in mains)
                             - statistics.median(plain)),
    })
    if workload.command == "sweep":
        # Sweep points run in worker processes, where these spans do not
        # reach; the serial cost of a point is what the pool divides.
        serial = tracer.total("point") - prologue
        m["cli.sweep_efficiency"] = serial / (SWEEP_WORKERS * statistics.median(plain))
    else:
        m["cli.self_s"] = statistics.median(tracer.self_time(s["id"]) for s in mains)
    if workload.command == "run":
        grid, dt = full_grid(cfg), float(cfg["dt"])
        full = statistics.median(children("cli.call.propagate"))
        ratio = rk4_substeps(grid, dt) / rk4_substeps(endpoint_grid(cfg), dt)
        record = full - prologue - integrate * ratio
        m["dynamics.record_s"] = record
        m["dynamics.record_us_per_sample"] = 1e6 * record / (grid.size - 1)

    (workdir / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    (workdir / "traced.json").write_text(json.dumps(
        {"exit_codes": exit_codes, "metrics": m,
         "cli_main_s": {"plain": plain, "traced": [Tracer.duration(s) for s in mains]}}),
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
