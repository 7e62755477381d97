"""Output checks, independent references and computed counts.

A `Case` resolves one workload's config with the lindnet model API and
computes what a correct run must print: the documented invariant bounds,
values from its own expm_multiply or sparse-solve reference (a different
algorithm from the engine's RK4, dense expm and dense eig), and, for seeds
listed in reference.json, the values recorded there. `Case.check` applies
all of that to one invocation's output directory.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import expm_multiply, spsolve

from spec import INDEPENDENT_TOL, INVARIANT_TOL, RECORDED_TOL

REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Rows of the chain trajectory compared against the references.
CHECKPOINTS = 5


def rk4_substeps(times, dt: float) -> int:
    """Substeps of the fixed-step integrator on an output grid."""
    return sum(max(1, math.ceil(float(b - a) / dt))
               for a, b in zip(times[:-1], times[1:]))


def expm_calls(times) -> int:
    """Dense exponentials on a grid: one per distinct gap (the engine caches them)."""
    return len({round(float(b - a), 15) for a, b in zip(times[:-1], times[1:])})


def superoperator(H: np.ndarray, jumps) -> sp.csr_matrix:
    """Column-stacked Lindblad superoperator, built here independently."""
    eye = sp.identity(H.shape[0], dtype=complex, format="csr")
    Hs = sp.csr_matrix(H)
    S = -1j * (sp.kron(eye, Hs) - sp.kron(Hs.T, eye))
    for L in jumps:
        Ls = sp.csr_matrix(L)
        LdL = sp.csr_matrix(L.conj().T @ L)
        S = S + sp.kron(Ls.conj(), Ls) - 0.5 * (sp.kron(eye, LdL) + sp.kron(LdL.T, eye))
    return S.tocsr()


def reachable_states(gen, rho0: np.ndarray) -> np.ndarray:
    """Basis states reachable from the support of rho0 through H and the jumps."""
    adj = np.abs(gen.hamiltonian) > 0
    for L in gen.jump_operators:
        adj |= (np.abs(L) > 0).T
    graph = sp.csr_matrix(adj.astype(np.int8))
    start = np.flatnonzero(np.abs(rho0).max(axis=0) > 0)
    seen = set()
    for s in start:
        if s not in seen:
            seen.update(breadth_first_order(graph, int(s), return_predecessors=False))
    return np.array(sorted(seen))


def evolve(gen, rho0: np.ndarray, times) -> list[tuple[np.ndarray, np.ndarray, sp.csr_matrix]]:
    """Exact states at `times` by expm_multiply on the reachable subspace.

    Each entry is the full density matrix, its vectorised restriction and
    the restricted superoperator.
    """
    idx = reachable_states(gen, rho0)
    ix = np.ix_(idx, idx)
    S = superoperator(gen.hamiltonian[ix], [L[ix] for L in gen.jump_operators])
    v = rho0[ix].ravel(order="F")
    D, d = gen.dimension, idx.size
    out, t_prev = [], times[0]
    for t in times:
        if t > t_prev:
            v = expm_multiply(S * float(t - t_prev), v)
        t_prev = t
        rho = np.zeros((D, D), dtype=complex)
        rho[ix] = v.reshape(d, d, order="F")
        out.append((rho, v, S))
    return out


def steady_reference(gen) -> np.ndarray:
    """Unique stationary state: S v = 0 with row 0 replaced by the trace."""
    D = gen.dimension
    S = superoperator(gen.hamiltonian, gen.jump_operators).tolil()
    # The diagonal rows of a Lindbladian sum to zero, so row 0 is redundant.
    S[0, :] = 0
    S[0, np.arange(D) * (D + 1)] = 1.0
    b = np.zeros(D * D, dtype=complex)
    b[0] = 1.0
    return spsolve(S.tocsc(), b).reshape(D, D, order="F")


def read_tsv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    rows = [[float(x) for x in line.split("\t")] for line in lines[1:]]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def load_recorded() -> dict:
    if REFERENCE_FILE.exists():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {}


class Case:
    """One workload config at one seed, with everything needed to judge its output."""

    def __init__(self, workload, config: dict, seed: int, smoke: bool):
        from lindnet.dynamics import LindbladGenerator
        from lindnet.model import preset

        self.workload = workload
        sweep = config.get("sweep")
        self.points = sweep["values"] if sweep else [None]
        self.gens, self.runs = [], []
        for value in self.points:
            params = dict(config["params"])
            if value is not None:
                params["gamma_b"] = value
            run = preset(config["preset"], **params)
            self.runs.append(run)
            self.gens.append(LindbladGenerator.from_network(run.spec))
        gen, run = self.gens[0], self.runs[0]
        self.labels = [s.label for s in gen.basis.sites]
        self.occ = gen.basis.occupation_table
        self.hilbert_dim = gen.dimension
        self.effective_dim = gen.dimension
        self.recorded = None if smoke else (
            load_recorded().get(workload.name, {}).get(str(seed)))

        kind = workload.command
        if kind == "run":
            t = config["times"]
            self.grid = np.linspace(t["start"], t["stop"], t["num"])
            self.rows = np.linspace(0, self.grid.size - 1, CHECKPOINTS).round().astype(int)
            states = evolve(gen, run.initial.to_density().matrix, self.grid[self.rows])
            self.expected = np.array([self._observables(*s) for s in states])
            dt = float(config["dt"])
            substeps = rk4_substeps(self.grid, dt)
            self.formula = {"count.rk4_substeps": substeps,
                            "count.matvecs": 4 * substeps + self.grid.size,
                            "count.expm_calls": 0}
        elif kind == "sweep":
            at = float(sweep["at_times"][0])
            self.grid = np.asarray(sorted({0.0, at}), dtype=float)
            rc = self.labels.index("rc")
            self.expected = []
            for g, r in zip(self.gens, self.runs):
                rho = evolve(g, r.initial.to_density().matrix, self.grid)[-1][0]
                self.expected.append(float(np.real(np.diag(rho)) @ self.occ[:, rc]))
            rho0 = run.initial.to_density().matrix
            self.effective_dim = int(reachable_states(gen, rho0).size)
            n = len(self.points)
            self.formula = {"count.rk4_substeps": 0,
                            "count.matvecs": n * self.grid.size,
                            "count.expm_calls": n * expm_calls(self.grid)}
        else:
            self.expected = steady_reference(gen)
            self.formula = {"count.rk4_substeps": 0, "count.matvecs": 0,
                            "count.expm_calls": 0}

    def _observables(self, rho, v, S) -> list[float]:
        pops = np.real(np.diag(rho)) @ self.occ
        purity = float(np.vdot(v, v).real)
        rate = 2.0 * float(np.vdot(v, S @ v).real)
        lam = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        return [*pops, purity, rate, float(np.trace(rho).real), lam]

    def tsv_path(self, outdir: Path) -> Path:
        suffix = {"run": "", "sweep": "_sweep", "steady": "_steady"}[self.workload.command]
        return outdir / f"case{suffix}.tsv"

    def check(self, outdir: Path) -> tuple[list[str], dict, list[float]]:
        """Problems found, computed counts and the values kept in reference.json."""
        tsv = self.tsv_path(outdir)
        if not tsv.exists():
            return [f"missing {tsv.name}"], {}, []
        try:
            header, data = read_tsv(tsv)
            meta = json.loads(tsv.with_suffix(".meta.json").read_text(encoding="utf-8"))
            problems, digest = getattr(self, "_check_" + self.workload.command)(
                header, data, meta)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"], {}, []
        counts = {"count.hilbert_dim": self.hilbert_dim,
                  "count.effective_dim": self.effective_dim,
                  "count.output_samples": data.shape[0],
                  **self.formula,
                  "count.tsv_bytes": tsv.stat().st_size}
        if self.workload.command == "run":
            prop = meta["propagation"]
            counts["count.hilbert_dim"] = prop["dimension"]
            counts["count.effective_dim"] = prop.get("sector", {}).get(
                "dimension", prop["dimension"])
        if self.recorded is not None:
            got, want = np.array(digest), np.array(self.recorded)
            if got.shape != want.shape or np.abs(got - want).max() > RECORDED_TOL:
                problems.append("differs from the values recorded in reference.json")
        return problems, counts, digest

    def _check_run(self, header, data, meta):
        problems = []
        want = (["t"] + [f"population_{lbl}" for lbl in self.labels]
                + ["purity", "purity_rate", "trace", "min_eigenvalue"])
        if header != want:
            return [f"header {header}"], []
        if data.shape[0] != self.grid.size or np.abs(data[:, 0] - self.grid).max() > 1e-12:
            return ["time column does not match the grid"], []
        if np.abs(data[:, -2] - 1.0).max() > INVARIANT_TOL:
            problems.append("trace column outside bound")
        if data[:, -1].min() < -INVARIANT_TOL:
            problems.append("min_eigenvalue column outside bound")
        prop = meta["propagation"]
        if not (prop["max_trace_error"] <= INVARIANT_TOL
                and prop["max_hermiticity_defect"] <= INVARIANT_TOL
                and prop["min_eigenvalue_floor"] >= -INVARIANT_TOL):
            problems.append("meta.json invariant excursion outside bound")
        got = data[self.rows, 1:]
        if np.abs(got - self.expected).max() > INDEPENDENT_TOL:
            problems.append("differs from the expm_multiply reference")
        return problems, got.ravel().tolist()

    def _check_sweep(self, header, data, meta):
        if header != ["gamma_b", "t", "population_rc"]:
            return [f"header {header}"], []
        problems = []
        if (data.shape[0] != len(self.points) or meta["n_points"] != len(self.points)
                or np.abs(data[:, 0] / np.array(self.points) - 1.0).max() > 1e-12
                or np.abs(data[:, 1] - self.grid[-1]).max() > 1e-12):
            return ["sweep rows do not match the grid"], []
        pops = data[:, 2]
        if pops.min() < -INVARIANT_TOL or pops.max() > 1.0 + INVARIANT_TOL:
            problems.append("population outside [0, 1]")
        if np.abs(pops - np.array(self.expected)).max() > INDEPENDENT_TOL:
            problems.append("differs from the expm_multiply reference")
        return problems, pops.tolist()

    def _check_steady(self, header, data, meta):
        want = [f"population_{lbl}" for lbl in self.labels] + ["multiplicity", "residual"]
        if header != want or data.shape[0] != 1:
            return [f"header {header}"], []
        problems = []
        rho = np.array(meta["state_re"]) + 1j * np.array(meta["state_im"])
        pops = data[0, :-2]
        if data[0, -2] != 1 or meta["multiplicity"] != 1:
            problems.append("stationary state is not unique")
        if data[0, -1] > INVARIANT_TOL:
            problems.append("residual outside bound")
        if (abs(np.trace(rho) - 1.0) > INVARIANT_TOL
                or np.abs(rho - rho.conj().T).max() > INVARIANT_TOL
                or np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -INVARIANT_TOL):
            problems.append("state breaks an invariant bound")
        if np.abs(np.real(np.diag(rho)) @ self.occ - pops).max() > 1e-12:
            problems.append("populations do not match the state")
        if np.abs(rho - self.expected).max() > INDEPENDENT_TOL:
            problems.append("differs from the sparse-solve reference")
        return problems, [*pops.tolist(), float(data[0, -2])]
