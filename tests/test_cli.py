"""End-to-end tests of the command-line front end via main(argv)."""

import contextlib
import copy
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from lindnet import oracle
from lindnet.cli import _SCHEMA, _set_dotted, main
from lindnet.dynamics import LindbladGenerator, PropagationConfig, propagate
from lindnet.model import _Either, _Map, preset, preset_defaults


def write_config(path, payload):
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


def readme_example(marker):
    """The first yaml block of README.md after the marker text, loaded."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    example = readme.read_text(encoding="utf-8").split(marker, 1)[1]
    return yaml.safe_load(example.split("```yaml\n", 1)[1].split("```", 1)[0])


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_tsv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    return header, rows


def dense_superoperator(gen: LindbladGenerator) -> np.ndarray:
    """The column-stacked superoperator S as a dense D**2 x D**2 array."""
    H = gen.hamiltonian
    eye = np.eye(gen.dimension)
    S = -1j * np.kron(eye, H) + 1j * np.kron(H.T, eye)
    for L in gen.jump_operators:
        LdL = L.conj().T @ L
        S += np.kron(L.conj(), L) - 0.5 * np.kron(eye, LdL) - 0.5 * np.kron(LdL.T, eye)
    return S


def rk4_products(gaps, dt: float, norm: float) -> int:
    """Products with S of the Runge-Kutta steps over the gaps, by the chunk rule.

    A gap takes n = max(1, ceil(gap / dt)) steps of h, c at a time, c the
    largest count up to n with c h norm <= 1, the last chunk what is left.
    A chunk of c > 1 steps costs the smallest m with
    sum_{k>m} (c h norm)^k / k! <= 2**-53 products where m < 4c, and
    four per step otherwise, as one step does.
    """
    total = 0
    for gap in gaps:
        n = max(1, math.ceil(gap / dt))
        x = gap / n * norm
        c = max(1, min(n, math.floor(1 / x)))
        for size, repeats in ((c, n // c), (n % c, 1)):
            y = size * x
            m = next(m for m in range(60) if sum(
                y ** k / math.factorial(k) for k in range(m + 1, m + 40)) <= 2.0 ** -53)
            total += repeats * (m if size > 1 and m < 4 * size else 4 * size)
    return total


@pytest.fixture
def pump_config(tmp_path):
    return write_config(tmp_path / "pump.yaml", {
        "preset": "two_site_pump",
        "times": {"start": 0.0, "stop": 2.0, "num": 9},
    })


class TestRun:
    def test_writes_trajectory_and_metadata(self, tmp_path, pump_config):
        out = tmp_path / "out"
        assert main(["run", pump_config, "--output", str(out)]) == 0
        header, rows = read_tsv(out / "pump.tsv")
        assert header == ["t", "population_1", "population_2", "purity",
                          "purity_rate", "trace", "min_eigenvalue"]
        assert len(rows) == 9
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 0.0  # starts empty
        assert float(rows[0][3]) == 1.0  # pure initial state
        meta = json.loads((out / "pump.meta.json").read_text())
        assert meta["command"] == "run"
        assert meta["propagation"]["method"] == "fixed_step_rk4"
        assert meta["propagation"]["max_trace_error"] < 1e-9
        assert meta["run_metadata"]["convention"]

    def test_output_is_deterministic(self, tmp_path, pump_config):
        for d in ("a", "b"):
            assert main(["run", pump_config, "--output", str(tmp_path / d)]) == 0
        assert ((tmp_path / "a" / "pump.tsv").read_bytes()
                == (tmp_path / "b" / "pump.tsv").read_bytes())

    def test_params_override_defaults(self, tmp_path):
        cfg = write_config(tmp_path / "slow.yaml", {
            "preset": "two_site_transfer",
            "params": {"gamma": 2.0},
            "times": [0.0, 1.0],
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--output", str(out)]) == 0
        _, rows = read_tsv(out / "slow.tsv")
        # donor population follows exp(-gamma t)
        assert float(rows[1][1]) == pytest.approx(np.exp(-2.0), abs=1e-8)

    def test_whole_number_written_as_float(self, tmp_path):
        # the parameter reaches the preset as the int 4 either way
        for n in (4, 4.0):
            cfg = write_config(tmp_path / f"c{n}.yaml", {
                "preset": "open_chain_pump", "params": {"N": n},
                "times": [0.0, 1.0], "method": "superoperator_expm"})
            assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 0
        assert ((tmp_path / "out" / "c4.tsv").read_bytes()
                == (tmp_path / "out" / "c4.0.tsv").read_bytes())

    def test_network_config_with_occupations(self, tmp_path):
        cfg = write_config(tmp_path / "net.yaml", {
            "network": {
                "sites": [{"label": "1", "kind": "qubit", "dim": 2},
                          {"label": "2", "kind": "qubit", "dim": 2}],
                "hoppings": [],
                "jumps": [{"kind": "transfer", "source": "1", "target": "2",
                           "rate": 1.0}],
            },
            "initial": {"occupations": [1, 0]},
            "times": [0.0, 0.5, 1.0],
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--output", str(out)]) == 0
        _, rows = read_tsv(out / "net.tsv")
        assert float(rows[2][1]) == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_network_config_with_dicke_initial(self, tmp_path):
        cfg = write_config(tmp_path / "dicke.yaml", {
            "network": {
                "sites": [{"label": "a", "kind": "qubit", "dim": 2},
                          {"label": "b", "kind": "qubit", "dim": 2}],
                "hoppings": [["a", "b", 0.5]],
                "jumps": [],
            },
            "initial": {"dicke": {"sites": ["a", "b"], "n": 1}},
            "times": [0.0, 1.0],
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--output", str(out)]) == 0
        _, rows = read_tsv(out / "dicke.tsv")
        assert float(rows[0][1]) == pytest.approx(0.5)
        assert float(rows[0][2]) == pytest.approx(0.5)

    def test_coherence_observable_columns(self, tmp_path):
        cfg = write_config(tmp_path / "coh.yaml", {
            "preset": "two_site_pump",
            "times": [0.0, 1.0],
            "observables": ["population:1", "coherence:1,2"],
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--output", str(out)]) == 0
        header, rows = read_tsv(out / "coh.tsv")
        assert header == ["t", "population_1", "coherence_1_2_re", "coherence_1_2_im"]
        assert len(rows[0]) == 4

    def test_every_observable_kind_reads_its_series(self, tmp_path):
        # each column is "%.17g" of its Trajectory series, and a sweep point on
        # the same grid writes the same cells at 1 and 2 workers
        scalars = ["purity", "purity_rate", "trace", "min_eigenvalue", "hermiticity_defect"]
        times = [0.0, 0.5, 1.0, 2.0]
        cfg = write_config(tmp_path / "all.yaml", {
            "preset": "two_site_pump", "times": times,
            "observables": scalars + ["population:2", "coherence:1,2"]})
        assert main(["run", cfg, "--output", str(tmp_path / "run")]) == 0
        header, rows = read_tsv(tmp_path / "run" / "all.tsv")
        assert header == ["t"] + scalars + ["population_2", "coherence_1_2_re",
                                            "coherence_1_2_im"]
        run = preset("two_site_pump")
        traj = propagate(LindbladGenerator.from_network(run.spec), run.initial,
                         PropagationConfig(times=np.array(times), coherences=((1, 2),)))
        series = ([traj.times] + [getattr(traj, name) for name in scalars]
                  + [traj.population("2"), traj.coherences[(1, 2)].real,
                     traj.coherences[(1, 2)].imag])
        assert rows == [["%.17g" % s[k] for s in series] for k in range(len(times))]
        assert float(rows[-1][-1]) != 0.0

        cfg = write_config(tmp_path / "coh.yaml", {
            "preset": "two_site_pump",
            "sweep": {"path": "params.gamma_in", "values": [0.2, 0.4],
                      "observable": "coherence:1,2", "at_times": times[1:]}})
        tables = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", cfg, "--output", str(out), "--workers", workers]) == 0
            tables.append(read_tsv(out / "coh_sweep.tsv"))
        assert tables[0] == tables[1]
        header, sweep_rows = tables[0]
        assert header == ["gamma_in", "t", "coherence_1_2_re", "coherence_1_2_im"]
        # the preset's default gamma_in is 0.2, so the first point is the run
        assert [r for r in sweep_rows if r[0] == "0.20000000000000001"] == [
            ["0.20000000000000001"] + [row[0]] + row[-2:] for row in rows[1:]]

    def test_readme_preset_example_runs(self, tmp_path):
        payload = readme_example("A preset configuration:")
        payload["times"] = {"start": 0.0, "stop": 0.5, "num": 3}
        cfg = write_config(tmp_path / "readme.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output", str(out)]) == 0
        header, _ = read_tsv(out / "readme.tsv")
        assert header == ["t", "population_1", "population_2", "coherence_1_2_re",
                          "coherence_1_2_im", "purity"]

    def test_readme_network_example_runs(self, tmp_path):
        payload = readme_example("An explicit network instead of a preset:")
        payload["times"] = {"start": 0.0, "stop": 0.5, "num": 3}
        cfg = write_config(tmp_path / "net.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output", str(out)]) == 0
        header, rows = read_tsv(out / "net.tsv")
        assert header[:4] == ["t", "population_1", "population_2", "population_b"]
        assert len(rows) == 3

    def test_readme_sweep_example_runs(self, tmp_path):
        payload = readme_example("A sweep block reruns")
        payload["sweep"]["logspace"]["num"] = 2
        cfg = write_config(tmp_path / "sw.yaml", payload)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--output", str(out)]) == 0
        header, rows = read_tsv(out / "sw_sweep.tsv")
        assert header == ["gamma_b", "t", "population_3"]
        assert len(rows) == 2

    @pytest.mark.parametrize("key", ["mehtod", "sector_filter", "snapshots"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, key):
        # a typo would otherwise run with the default silently
        cfg = write_config(tmp_path / "typo.yaml", {
            "preset": "two_site_pump", "times": [0.0, 0.1], key: "superoperator_expm"})
        assert main(["run", cfg, "--output", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"unknown keys ['{key}']" in err
        assert "preset, params, network, initial, times, observables, method, dt, sweep" in err
        assert not (tmp_path / "typo.tsv").exists()

    def test_dt_override_is_recorded(self, tmp_path, pump_config):
        out = tmp_path / "out"
        assert main(["run", pump_config, "--output", str(out), "--dt", "5e-4"]) == 0
        meta = json.loads((out / "pump.meta.json").read_text())
        assert meta["propagation"]["dt"] == 5e-4

    def test_meta_reports_engine_counters(self, tmp_path, pump_config):
        # 8 gaps of 0.25 at dt 1e-3 (each rounds up to 250 or 251 substeps),
        # the chunks' products plus one per sample for the purity rate
        out = tmp_path / "out"
        assert main(["run", pump_config, "--output", str(out)]) == 0
        prop = json.loads((out / "pump.meta.json").read_text())["propagation"]
        times = np.linspace(0.0, 2.0, 9)
        substeps = sum(max(1, int(np.ceil(g / 1e-3))) for g in np.diff(times))
        assert prop["rk4_substeps"] == substeps
        assert 0.0 < prop["rk4_step_norm"] < 1.0
        # the reachable block: the four populations and the coherence pair
        # of the one-excitation states
        gen = LindbladGenerator.from_network(preset("two_site_pump").spec)
        S = dense_superoperator(gen)
        D = gen.dimension
        a, b = gen.basis.index((1, 0)), gen.basis.index((0, 1))
        R = [k * (D + 1) for k in range(D)] + [a + D * b, b + D * a]
        norm = float(np.abs(S[np.ix_(R, R)]).sum(axis=0).max())
        products = rk4_products(np.diff(times), 1e-3, norm)
        assert products == 8 * 16
        assert prop["matvecs"] == products + 9
        assert prop["expm_actions"] == 0
        assert prop["states"] == 4
        assert prop["reachable"] == {"entries": 6, "integrated": 5, "of": 16}
        assert prop["nnz"] > 0
        assert prop["positivity_blocks"] == {"count": 3, "largest": 2}

    def test_seed_override_on_seeded_preset(self, tmp_path):
        cfg = write_config(tmp_path / "noisy.yaml", {
            "preset": "open_chain_pump",
            "params": {"N": 3, "noise": "uniform"},
            "times": [0.0, 0.1],
        })
        outs = []
        for seed, d in ((1, "a"), (2, "b")):
            out = tmp_path / d
            assert main(["run", cfg, "--output", str(out), "--seed", str(seed)]) == 0
            outs.append((out / "noisy.tsv").read_bytes())
        assert outs[0] != outs[1]

    def test_negative_seed_flag_is_named(self, tmp_path, capsys):
        # it failed inside NumPy, with a message that named nothing
        cfg = write_config(tmp_path / "noisy.yaml", {
            "preset": "open_chain_pump", "params": {"N": 3, "noise": "uniform"},
            "times": [0.0, 0.1]})
        assert main(["run", cfg, "--output", str(tmp_path / "out"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "error: --seed must be a whole number not below 0, got -1\n")
        assert not (tmp_path / "out").exists()

    def test_seed_rejected_for_seedless_preset(self, tmp_path, pump_config):
        assert main(["run", pump_config, "--output", str(tmp_path), "--seed", "3"]) == 1

    def test_seed_rejected_for_network_config(self, tmp_path):
        cfg = write_config(tmp_path / "net.yaml", {
            "network": {
                "sites": [{"label": "1", "kind": "qubit", "dim": 2},
                          {"label": "2", "kind": "qubit", "dim": 2}],
                "jumps": [{"kind": "transfer", "source": "1", "target": "2",
                           "rate": 1.0}],
            },
            "initial": {"occupations": [1, 0]},
            "times": [0.0, 1.0],
        })
        for command in ("run", "steady"):
            assert main([command, cfg, "--output", str(tmp_path), "--seed", "5"]) == 1

    def test_unknown_observable(self, tmp_path):
        cfg = write_config(tmp_path / "bad.yaml", {
            "preset": "two_site_pump",
            "observables": ["entropy"],
        })
        assert main(["run", cfg, "--output", str(tmp_path)]) == 1

    def test_unknown_population_label(self, tmp_path):
        cfg = write_config(tmp_path / "bad.yaml", {
            "preset": "two_site_pump",
            "observables": ["population:7"],
        })
        assert main(["run", cfg, "--output", str(tmp_path)]) == 1

    def test_preset_and_network_together(self, tmp_path):
        cfg = write_config(tmp_path / "both.yaml", {
            "preset": "two_site_pump",
            "network": {"sites": []},
        })
        assert main(["run", cfg, "--output", str(tmp_path)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml"),
                     "--output", str(tmp_path)]) == 1

    def test_non_mapping_config(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        assert main(["run", str(path), "--output", str(tmp_path)]) == 1

    def test_times_mapping_missing_keys(self, tmp_path):
        cfg = write_config(tmp_path / "t.yaml", {
            "preset": "two_site_pump",
            "times": {"start": 0.0, "stop": 1.0},
        })
        assert main(["run", cfg, "--output", str(tmp_path)]) == 1

    def test_unknown_preset_parameter(self, tmp_path, capsys):
        # 'name' must reach the same error, not bind to preset()'s own argument
        for key in ("coupling", "name"):
            cfg = write_config(tmp_path / "p.yaml", {
                "preset": "two_site_pump",
                "params": {key: 1.0},
            })
            assert main(["run", cfg, "--output", str(tmp_path)]) == 1
            assert f"unknown parameters ['{key}']" in capsys.readouterr().err

    def test_invariant_violation_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "blowup.yaml", {
            "preset": "two_site_pump",
            "times": [0.0, 40.0],
            "dt": 1.5,
        })
        assert main(["run", cfg, "--output", str(tmp_path)]) == 2

    @staticmethod
    def stiff_config(path, method, rate=1.0e+6):
        # extraction at 1e6: h * rate = 1000 at the default dt, far outside
        # the stability interval of RK4
        return write_config(path, {
            "network": {
                "sites": [{"label": lbl, "kind": "qubit", "dim": 2} for lbl in ("1", "2")],
                "hoppings": [["1", "2", 1.0]],
                "jumps": [{"kind": "extraction", "site": "2", "rate": rate}],
            },
            "initial": {"occupations": [1, 0]},
            "times": {"start": 0.0, "stop": 0.5, "num": 6},
            "method": method,
        })

    def test_nan_state_breaks_the_audit(self, tmp_path, capsys):
        # the RK4 state overflows to NaN, which fails the trace bound, with
        # no NumPy warning ahead of the error; the error quotes the largest
        # h ||S||_1, far outside RK4's stability region
        cfg = self.stiff_config(tmp_path / "stiff.yaml", "fixed_step_rk4")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: trace invariant violated at t=0.1: "
                              "measured nan")
        norm = re.search(r"rk4_step_norm, was (\S+); a smaller dt", err)
        assert norm and float(norm[1]) >= 1000
        assert not out.exists()

    def test_rates_that_overflow_the_superoperator_exit_1(self, tmp_path, capsys):
        # the two losses on site 2 add to -2e308 on one diagonal entry of S
        network = {
            "sites": [{"label": lbl, "kind": "qubit", "dim": 2} for lbl in ("1", "2")],
            "hoppings": [["1", "2", 1.0]],
            "jumps": [{"kind": "injection", "site": "1", "rate": 0.2},
                      {"kind": "extraction", "site": "2", "rate": 1.0e+308},
                      {"kind": "dissipation", "site": "2", "rate": 1.0e+308}],
        }
        runs = {"network": network, "initial": {"occupations": [1, 0]},
                "times": {"start": 0.0, "stop": 0.5, "num": 6},
                "sweep": {"path": "dt", "values": [1e-3, 2e-3],
                          "observable": "population:2", "at_times": [0.5]}}
        out = tmp_path / "out"
        commands = [("run", "fixed_step_rk4", ""), ("run", "superoperator_expm", ""),
                    ("sweep", "fixed_step_rk4", "dt=0.001: "), ("steady", None, "")]
        for command, method, point in commands:
            cfg = {"network": network} if command == "steady" else {**runs, "method": method}
            path = write_config(tmp_path / "over.yaml", cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main([command, path, "--output", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {point}the rates overflow the superoperator: "
                "an entry of S is not finite\n")
        assert not out.exists()

    def test_huge_rate_names_the_generator_norm(self, tmp_path, capsys):
        # a finite rate of 2**70 makes every gap's Taylor step count too large
        cfg = self.stiff_config(tmp_path / "huge.yaml", "superoperator_expm", 2.0 ** 70)
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gap 0.1: the 1-norm of the gap times the generator, ")
        norm = re.search(r"the generator's own 1-norm, (\S+), is set by its largest "
                         r"rates and energies$", err.strip())
        assert norm and float(norm[1]) >= 2.0 ** 70

    def test_stiff_rate_stays_finite_under_expm(self, tmp_path):
        cfg = self.stiff_config(tmp_path / "stiff.yaml", "superoperator_expm")
        out = tmp_path / "out"
        assert main(["run", cfg, "--output", str(out)]) == 0
        _, rows = read_tsv(out / "stiff.tsv")
        assert len(rows) == 6
        assert all(math.isfinite(float(x)) for row in rows for x in row)

    @pytest.mark.parametrize("method", ["fixed_step_rk4", "superoperator_expm"])
    def test_endless_time_span_exits_1(self, tmp_path, capsys, method):
        # a gap of 5e307 needs more steps than could ever finish, or infinitely many
        cfg = write_config(tmp_path / "long.yaml", {
            "preset": "two_site_pump",
            "times": {"start": 0, "stop": 1.0e308, "num": 3},
            "method": method,
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gap 5e+307: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_dotted_stems_keep_one_file_per_command(self, tmp_path):
        cfg = write_config(tmp_path / "pump.v2.yaml", {
            "preset": "two_site_pump",
            "times": {"start": 0.0, "stop": 1.0, "num": 3},
            "sweep": {"path": "params.J", "values": [1.0], "observable": "population:2",
                      "at_times": [0.5]},
        })
        out = tmp_path / "out"
        for command in ("run", "sweep", "steady"):
            assert main([command, cfg, "--output", str(out)]) == 0
        names = ["pump.v2", "pump.v2_sweep", "pump.v2_steady"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            name + ext for name in names for ext in (".tsv", ".meta.json"))
        commands = [json.loads((out / f"{name}.meta.json").read_text())["command"]
                    for name in names]
        assert commands == ["run", "sweep", "steady"]


class TestSweep:
    def sweep_config(self, tmp_path, **extra):
        payload = {
            "preset": "four_site_congestion",
            "params": {"J": 1.0, "gamma": 0.1, "excitations": 1},
            "method": "superoperator_expm",
            "sweep": {
                "path": "params.gamma_b",
                "values": [0.05, 0.5],
                "observable": "population:4",
                "at_times": [10.0],
            },
        }
        payload.update(extra)
        return write_config(tmp_path / "sweep.yaml", payload)

    def test_tabulates_value_major_rows(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--output", str(out)]) == 0
        header, rows = read_tsv(out / "sweep_sweep.tsv")
        assert header == ["gamma_b", "t", "population_4"]
        assert [float(r[0]) for r in rows] == [0.05, 0.5]
        assert all(float(r[1]) == 10.0 for r in rows)
        # faster drain delivers more by t = 10
        assert float(rows[1][2]) > float(rows[0][2])

    def test_workers_do_not_change_output(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        for d, workers in (("a", "1"), ("b", "2")):
            out = tmp_path / d
            assert main(["sweep", cfg, "--output", str(out),
                         "--workers", workers]) == 0
        assert ((tmp_path / "a" / "sweep_sweep.tsv").read_bytes()
                == (tmp_path / "b" / "sweep_sweep.tsv").read_bytes())

    def test_sweeps_a_whole_number_parameter(self, tmp_path):
        # sweep values are floats: 1.0 and 2.0 run as the excitation counts 1
        # and 2, at any worker count, and each row is run's at that count
        base = {"preset": "four_site_congestion", "method": "superoperator_expm",
                "observables": ["population:3"]}
        sweep = write_config(tmp_path / "sw.yaml", {**base, "sweep": {
            "path": "params.excitations", "values": [1, 2], "observable": "population:3",
            "at_times": [40.0]}})
        for workers in ("1", "2"):
            assert main(["sweep", sweep, "--output", str(tmp_path / workers),
                         "--workers", workers]) == 0
        tsv = tmp_path / "1" / "sw_sweep.tsv"
        assert tsv.read_bytes() == (tmp_path / "2" / "sw_sweep.tsv").read_bytes()
        header, rows = read_tsv(tsv)
        assert header == ["excitations", "t", "population_3"]
        for n, row in zip((1, 2), rows, strict=True):
            single = write_config(tmp_path / f"one{n}.yaml", {
                **base, "params": {"excitations": n}, "times": [0.0, 40.0]})
            assert main(["run", single, "--output", str(tmp_path / "run")]) == 0
            _, run_rows = read_tsv(tmp_path / "run" / f"one{n}.tsv")
            assert row == [str(n), "40", run_rows[1][1]]
        # the two counts fill site 3 differently
        assert rows[0][2] != rows[1][2]

    def test_forks_never_exceed_points(self, tmp_path, monkeypatch):
        # the parent computes a share of its own, so 2 points fork 1 child
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        cfg = self.sweep_config(tmp_path)
        assert main(["sweep", cfg, "--output", str(tmp_path), "--workers", "64"]) == 0
        assert forks == [1]
        assert_no_children()
        for workers in ("0", "-1"):
            assert main(["sweep", cfg, "--output", str(tmp_path),
                         "--workers", workers]) == 1
        assert forks == [1]

    def test_strided_shares_keep_value_order(self, tmp_path):
        # 5 points on 3 processes: point k runs in process k mod 3
        cfg = self.sweep_config(tmp_path, sweep={
            "path": "params.gamma_b", "values": [0.05, 0.1, 0.2, 0.5, 1.0],
            "observable": "population:4", "at_times": [1.0, 10.0]})
        for workers in ("1", "3"):
            assert main(["sweep", cfg, "--output", str(tmp_path / workers),
                         "--workers", workers]) == 0
        assert_no_children()
        tsv = (tmp_path / "1" / "sweep_sweep.tsv").read_bytes()
        assert tsv == (tmp_path / "3" / "sweep_sweep.tsv").read_bytes()
        _, rows = read_tsv(tmp_path / "1" / "sweep_sweep.tsv")
        assert [float(r[0]) for r in rows] == [v for v in (0.05, 0.1, 0.2, 0.5, 1.0)
                                               for _ in range(2)]

    def test_lowest_failing_point_is_reported(self, tmp_path, monkeypatch, capsys):
        # at 2 workers the child runs points 1 and 3, the parent 0 and 2;
        # point 1 fails in the child and point 2 in the parent, and point 1
        # is the one reported
        from lindnet import cli

        parent_points = []
        real_one = cli._sweep_one

        def recorded(task):
            parent_points.append(task[3])
            return real_one(task)

        monkeypatch.setattr(cli, "_sweep_one", recorded)
        cfg = write_config(tmp_path / "bad.yaml", {
            "preset": "two_site_pump",
            "sweep": {"path": "params.gamma_in", "values": [0.2, -1.0, -2.0, 0.3],
                      "observable": "population:2", "at_times": [1.0]}})
        assert main(["sweep", cfg, "--output", str(tmp_path), "--workers", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: params.gamma_in=-1.0: params.gamma_in must be a finite "
            "number not below 0, got -1.0\n")
        # the child's calls are recorded in the child only
        assert parent_points == [0.2, -2.0]
        assert_no_children()

    def test_killed_worker_exits_1(self, tmp_path, monkeypatch, capsys):
        from lindnet import cli

        parent = os.getpid()
        real_one = cli._sweep_one

        def fatal(task):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_one(task)

        monkeypatch.setattr(cli, "_sweep_one", fatal)
        cfg = self.sweep_config(tmp_path)
        assert main(["sweep", cfg, "--output", str(tmp_path), "--workers", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: the sweep worker of params.gamma_b=0.5 ended without a result "
            f"(killed by signal {int(signal.SIGKILL)})\n")
        assert not (tmp_path / "sweep_sweep.tsv").exists()
        assert_no_children()

    def test_interrupted_parent_kills_its_workers(self, tmp_path, monkeypatch):
        # Ctrl-C in the parent's own share: the child, still in its point,
        # is killed and reaped before the interrupt propagates
        from lindnet import cli

        parent = os.getpid()

        def interrupted(task):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(cli, "_sweep_one", interrupted)
        cfg = self.sweep_config(tmp_path)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", cfg, "--output", str(tmp_path), "--workers", "2"])
        assert time.monotonic() - start < 30
        assert_no_children()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_invariant_violation_exit_code(self, tmp_path, workers):
        # one RK4 step across a 50-unit gap diverges, in a worker or not
        cfg = write_config(tmp_path / "blowup.yaml", {
            "preset": "two_site_pump",
            "dt": 50.0,
            "sweep": {"path": "params.J", "values": [1.0, 2.0],
                      "observable": "population:2", "at_times": [50.0]},
        })
        assert main(["sweep", cfg, "--output", str(tmp_path),
                     "--workers", workers]) == 2
        assert_no_children()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_errors_name_the_point(self, tmp_path, workers, capsys):
        # the first failing point, in value order, is the one reported
        cfg = write_config(tmp_path / "blowup.yaml", {
            "preset": "two_site_pump",
            "dt": 50.0,
            "sweep": {"path": "params.J", "values": [1.0, 2.0],
                      "observable": "population:2", "at_times": [50.0]},
        })
        assert main(["sweep", cfg, "--output", str(tmp_path),
                     "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert "invariant violation: params.J=1.0: " in err
        assert "; a smaller dt may keep the steps stable" in err
        bad = write_config(tmp_path / "bad.yaml", {
            "preset": "two_site_pump",
            "sweep": {"path": "params.gamma_in", "values": [0.2, -1.0],
                      "observable": "population:2", "at_times": [1.0]},
        })
        assert main(["sweep", bad, "--output", str(tmp_path),
                     "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err == ("error: params.gamma_in=-1.0: params.gamma_in must be a finite "
                       "number not below 0, got -1.0\n")
        assert_no_children()

    def test_dt_override_reaches_every_point(self, tmp_path):
        # a sweep point at --dt equals run at --dt on the same grid, and a
        # coarse substep visibly moves the RK4 result
        base = {"preset": "four_site_congestion",
                "params": {"J": 1.0, "gamma": 0.1, "excitations": 1, "gamma_b": 0.5},
                "observables": ["population:4"]}
        sweep = write_config(tmp_path / "sw.yaml", {
            **base, "sweep": {"path": "params.gamma_b", "values": [0.5],
                              "observable": "population:4", "at_times": [5.0]}})
        single = write_config(tmp_path / "one.yaml", {**base, "times": [0.0, 5.0]})
        got = {}
        for dt in (None, "0.5"):
            flag = [] if dt is None else ["--dt", dt]
            out = tmp_path / f"dt{dt}"
            assert main(["sweep", sweep, "--output", str(out), *flag]) == 0
            assert main(["run", single, "--output", str(out), *flag]) == 0
            _, sweep_rows = read_tsv(out / "sw_sweep.tsv")
            _, run_rows = read_tsv(out / "one.tsv")
            assert sweep_rows[0][2] == run_rows[1][1]
            got[dt] = sweep_rows[0][2]
        assert got[None] != got["0.5"]

    def test_logspace_values(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        data = yaml.safe_load(open(cfg))
        data["sweep"].pop("values")
        data["sweep"]["logspace"] = {"start": 0.01, "stop": 1.0, "num": 3}
        cfg = write_config(tmp_path / "sweep.yaml", data)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--output", str(out)]) == 0
        _, rows = read_tsv(out / "sweep_sweep.tsv")
        np.testing.assert_allclose([float(r[0]) for r in rows], [0.01, 0.1, 1.0],
                                   rtol=1e-12)

    def test_missing_sweep_block(self, tmp_path, pump_config):
        assert main(["sweep", pump_config, "--output", str(tmp_path)]) == 1

    def test_config_error_comes_before_any_fork(self, tmp_path, monkeypatch, capsys):
        # a mistake no point's value changes is reported once, without a
        # point, and no worker starts
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = write_config(tmp_path / "init.yaml", {
            "preset": "two_site_pump", "initial": {"occupations": [1, 1]},
            "sweep": {"path": "params.J", "values": [1.0, 2.0],
                      "observable": "population:2", "at_times": [0.5]}})
        assert main(["sweep", cfg, "--output", str(tmp_path / "out"), "--workers", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: initial: a preset sets its own initial state; "
            "only network configs take an initial block\n")

    def test_point_config_is_checked_again(self, tmp_path, capsys):
        # a swept value of the wrong type for its key names the point
        cfg = write_config(tmp_path / "m.yaml", {
            "preset": "two_site_pump",
            "sweep": {"path": "method", "values": [1.0], "observable": "population:2",
                      "at_times": [0.5]}})
        assert main(["sweep", cfg, "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: method=1.0: method must be a string, got 1.0\n")

    def test_incomplete_sweep_block(self, tmp_path):
        cfg = write_config(tmp_path / "s.yaml", {
            "preset": "two_site_pump",
            "sweep": {"path": "params.J", "values": [1.0]},
        })
        assert main(["sweep", cfg, "--output", str(tmp_path)]) == 1


_NETWORK = {"sites": [{"label": "1", "kind": "qubit", "dim": 2},
                      {"label": "2", "kind": "qubit", "dim": 2}]}
_SWEEP = {"path": "params.J", "values": [1.0], "observable": "population:2",
          "at_times": [0.5]}


class TestConfigValues:
    """Malformed values exit 1 with an error line that names their key."""

    @pytest.mark.parametrize("command,payload,key", [
        ("run", {"network": {**_NETWORK, "jumps": ["transfer"]},
                 "initial": {"occupations": [1, 0]}, "times": [0.0, 1.0]}, "jumps"),
        ("run", {"preset": "two_site_pump", "observables": "purity"}, "observables"),
        ("run", {"preset": "two_site_pump", "params": 5}, "params"),
        ("sweep", {"preset": "two_site_pump", "sweep": {**_SWEEP, "path": 5}},
         "sweep.path"),
        ("sweep", {"preset": "two_site_pump", "sweep": {**_SWEEP, "path": "parms.J"}},
         "sweep.path"),
        ("sweep", {"preset": "two_site_pump", "sweep": {
            **{k: v for k, v in _SWEEP.items() if k != "values"},
            "logspace": {"start": 0.0, "stop": 1.0, "num": 3}}}, "sweep.logspace"),
        ("sweep", {"preset": "two_site_pump", "sweep": {**_SWEEP, "values": []}},
         "sweep.values"),
        ("sweep", {"preset": "two_site_pump", "sweep": {**_SWEEP, "at_times": 0.5}},
         "sweep.at_times"),
        ("sweep", {"preset": "two_site_pump", "sweep": {**_SWEEP, "at_times": [-1.0, 0.5]}},
         "sweep.at_times"),
        ("run", {"network": _NETWORK, "initial": {"occupations": 5}, "times": [0.0, 1.0]},
         "initial.occupations"),
        ("run", {"network": _NETWORK, "initial": {"dicke": {"n": 1}}, "times": [0.0, 1.0]},
         "initial.dicke"),
        ("run", {"preset": "two_site_pump", "times": {"start": "a", "stop": 1, "num": 3}},
         "times.start"),
        ("run", {"preset": "two_site_pump", "times": [0, "x"]}, "times"),
        ("run", {"preset": "two_site_pump", "times": {"start": 0, "stop": 1, "num": -2}},
         "times.num"),
        ("run", {"preset": "two_site_pump", "dt": "abc"}, "dt"),
        ("run", {"network": {**_NETWORK, "hoppings": ["x"]},
                 "initial": {"occupations": [1, 0]}, "times": [0.0, 1.0]}, "hoppings"),
        ("run", {"network": {**_NETWORK, "onsite": [["1"]]},
                 "initial": {"occupations": [1, 0]}, "times": [0.0, 1.0]}, "onsite"),
        # counts are not truncated: [0.6, 0] would start from the vacuum
        ("run", {"network": _NETWORK, "initial": {"occupations": [0.6, 0]},
                 "times": [0.0, 1.0]}, "initial.occupations"),
        ("run", {"network": _NETWORK, "initial": {"dicke": {"sites": ["1", "2"], "n": 1.5}},
                 "times": [0.0, 1.0]}, "initial.dicke.n"),
        ("run", {"preset": "two_site_pump", "times": {"start": 0, "stop": 1, "num": 2.5}},
         "times.num"),
        ("sweep", {"preset": "two_site_pump", "sweep": {
            **{k: v for k, v in _SWEEP.items() if k != "values"},
            "logspace": {"start": 0.1, "stop": 1.0, "num": 2.5}}}, "sweep.logspace.num"),
        # a preset brings its own initial state, which an initial block would not change
        ("run", {"preset": "two_site_pump", "initial": {"occupations": [1, 1]}}, "initial"),
        ("sweep", {"preset": "two_site_pump", "initial": {"occupations": [1, 1]},
                   "sweep": _SWEEP}, "initial"),
        ("steady", {"preset": "two_site_pump", "initial": {"occupations": [1, 1]}},
         "initial"),
        # unknown nested keys, once ignored
        ("run", {"preset": "two_site_pump", "times": {"start": 0, "stop": 1, "num": 3,
                                                      "foo": 1}},
         "times: unknown keys ['foo']"),
        ("run", {"network": _NETWORK, "initial": {"occupations": [1, 0], "foo": 1},
                 "times": [0.0, 1.0]}, "initial: unknown keys ['foo']"),
        ("run", {"network": {**_NETWORK, "foo": 1}, "initial": {"occupations": [1, 0]},
                 "times": [0.0, 1.0]}, "network: unknown keys ['foo']"),
        ("sweep", {"preset": "two_site_pump", "sweep": {**_SWEEP, "foo": 1}},
         "sweep: unknown keys ['foo']"),
        # keys a config of the other kind would read, once ignored
        ("run", {"network": _NETWORK, "params": {"J": 1.0},
                 "initial": {"occupations": [1, 0]}, "times": [0.0, 1.0]}, "params"),
        ("run", {"network": _NETWORK, "initial": {"occupations": [1, 0],
                                                  "dicke": {"sites": ["1", "2"], "n": 1}},
                 "times": [0.0, 1.0]}, "initial.dicke"),
        # True is not a number: it ran as J = 1
        ("run", {"preset": "two_site_pump", "params": {"J": True}}, "params.J"),
        # keys that steady does not read are checked all the same
        ("steady", {"preset": "two_site_pump", "dt": -1}, "dt"),
        ("steady", {"preset": "two_site_pump", "method": 3}, "method"),
        ("steady", {"preset": "two_site_pump", "times": [1, 0]}, "times"),
        ("steady", {"preset": "two_site_pump", "observables": [3]}, "observables"),
        ("steady", {"preset": "two_site_pump", "sweep": {"path": 3}}, "sweep.path"),
        # errors that did not name the key
        ("run", {"preset": "two_site_pump", "params": {"gamma_in": "x"}}, "params.gamma_in"),
        ("run", {"preset": ["a"]}, "preset"),
        ("run", {"network": {"sites": [{"label": "1", "kind": "qubit", "dim": "x"}]},
                 "initial": {"occupations": [1]}, "times": [0.0, 1.0]},
         "network.sites[0].dim"),
        ("run", {"network": {**_NETWORK, "jumps": [{"kind": "dissipation", "rate": 0.1}]},
                 "initial": {"occupations": [1, 0]}, "times": [0.0, 1.0]},
         "network.jumps[0].site"),
        # a preset builder's own checks: a null seed drew a fresh profile on
        # every run, and 2 s + 1 overflowed to a traceback
        ("steady", {"preset": "open_chain_pump",
                    "params": {"N": 3, "noise": "uniform", "seed": None}}, "params.seed"),
        ("steady", {"preset": "qubit_to_battery", "params": {"s": 1.0e308}}, "params.s"),
    ], ids=["jumps", "observables", "params", "path-type", "path-key", "logspace",
            "values", "at_times", "at_times-negative", "occupations", "dicke", "times-start",
            "times-list", "times-num", "dt", "hoppings", "onsite", "occupations-fraction",
            "dicke-n-fraction", "times-num-fraction", "logspace-num-fraction",
            "preset-initial-run", "preset-initial-sweep", "preset-initial-steady",
            "times-unknown", "initial-unknown", "network-unknown", "sweep-unknown",
            "network-params", "occupations-and-dicke", "params-bool", "steady-dt",
            "steady-method", "steady-times", "steady-observables", "steady-sweep-path",
            "params-type", "preset-type", "site-dim", "jump-site", "uniform-seed-null",
            "battery-s-overflow"])
    def test_names_the_key(self, tmp_path, capsys, command, payload, key):
        cfg = write_config(tmp_path / "bad.yaml", payload)
        assert main([command, cfg, "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,message", [
        ("nan", "--dt must be a finite number, got nan"),
        ("-1", "dt must be a positive step size")])
    def test_dt_flag_is_checked_as_dt(self, tmp_path, capsys, flag, message):
        cfg = write_config(tmp_path / "c.yaml", {"preset": "two_site_pump", "sweep": _SWEEP})
        for command in ("run", "sweep"):
            assert main([command, cfg, "--output", str(tmp_path / "out"),
                         f"--dt={flag}"]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params,key", [
        ({"N": 20000}, "params.N"), ({"N": 2**70}, "params.N"),
        ({"noise": "uniform", "seed": -1}, "params.seed")])
    def test_out_of_range_parameter_refused_at_once(self, tmp_path, params, key):
        # N once reached the builders: 20000 sites failed to print D, and
        # 2**70 built labels until memory ran out; a negative seed failed
        # inside NumPy. main runs in a child capped at 2 GiB of address space,
        # which times its own call, so a regression cannot fill the host
        import lindnet

        cfg = write_config(tmp_path / "c.yaml", {"preset": "open_chain_pump", "params": params})
        code = ("import resource, sys, time\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
                "from lindnet.cli import main\n"
                "start = time.perf_counter()\n"
                "code = main(sys.argv[1:])\n"
                "print(time.perf_counter() - start)\n"
                "sys.exit(code)\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(lindnet.__file__).resolve().parents[1]))
        for command in ("run", "steady"):
            done = subprocess.run(
                [sys.executable, "-c", code, command, cfg, "--output", str(tmp_path / "out")],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 1, done.stderr
            assert done.stderr.startswith(f"error: {key} must be "), done.stderr
            assert float(done.stdout) < 1.0
        assert not (tmp_path / "out").exists()

    def test_dimension_budget(self, tmp_path, capsys):
        # six spins of dimension 40: D = 40**6, refused before any operator exists
        sites = [{"label": f"s{k}", "kind": "spin", "dim": 40} for k in range(6)]
        cfg = write_config(tmp_path / "big.yaml", {
            "network": {"sites": sites}, "initial": {"occupations": [0] * 6},
            "times": [0.0, 1.0]})
        for command in ("run", "steady"):
            assert main([command, cfg, "--output", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: dimension D = 4096000000: its 1 dense operators")
            assert f"budget of {2 * 1024**3} bytes" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("payload,message", [
        ({"initial": {"occupations": [2, 0]}},
         "initial.occupations: occupation 2 out of range for site '1'"),
        ({"initial": {"dicke": {"sites": ["1", "2"], "n": 3}}},
         "initial.dicke: excitation count 3 out of range 0..2"),
        ({"observables": ["coherence:4,0"]}, "coherence index pair (4, 0) out of range"),
    ], ids=["occupations", "dicke-n", "coherence"])
    def test_state_and_coherences_are_checked_before_the_build(
            self, tmp_path, monkeypatch, capsys, command, payload, message):
        # a bad initial block or coherence pair exits 1 with its own message
        # before any generator is built
        def no_build(cls, spec):
            raise AssertionError("the generator was built")

        monkeypatch.setattr(LindbladGenerator, "from_network", classmethod(no_build))
        runs = {"network": {**_NETWORK, "hoppings": [["1", "2", 1.0]]},
                "initial": {"occupations": [1, 0]}, "times": [0.0, 1.0], **payload}
        point = ""
        if command == "sweep":
            token = payload.get("observables", ["population:2"])[0]
            runs["sweep"] = {"path": "dt", "values": [1e-3], "observable": token,
                             "at_times": [1.0]}
            point = "dt=0.001: "
        cfg = write_config(tmp_path / "early.yaml", runs)
        assert main([command, cfg, "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {point}{message}\n"
        assert not (tmp_path / "out").exists()

    def test_preset_dimension_budget(self, tmp_path, capsys):
        # a spin of 2e300 + 1 levels: refused before the initial state's vector
        # exists, which NumPy failed to allocate with an error that named nothing
        cfg = write_config(tmp_path / "big.yaml",
                           {"preset": "qubit_to_battery", "params": {"s": 1.0e300}})
        for command in ("run", "steady"):
            assert main([command, cfg, "--output", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: dimension D = {2 * round(2.0e300 + 1)}: "
                                  "its 3 dense operators")
            assert f"budget of {2 * 1024**3} bytes" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_readme_table_lists_the_schema(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table = readme.read_text(encoding="utf-8").split(
            "| key | what it must be | read by |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
        keys = [row.split("|")[1].strip().strip("`") for row in table.splitlines()]
        assert keys == [path for path, _ in schema_nodes(_SCHEMA)]


def schema_nodes(node, prefix=""):
    """(dotted key, node) of every key in a schema node, in table order."""
    if isinstance(node, _Either):
        return [item for alt in node.options.values() for item in schema_nodes(alt, prefix)]
    if not isinstance(node, _Map):
        return []
    items = []
    for key, child in node.keys.items():
        path = f"{prefix}.{key}" if prefix else key
        items += [(path, child)] + schema_nodes(child, path)
    return items


_FUZZ_BASES = {
    "preset": {"preset": "two_site_pump", "times": [0, 0.5], "sweep": _SWEEP},
    "network": {
        "network": {**_NETWORK, "hoppings": [["1", "2", 0.5]],
                    "jumps": [{"kind": "extraction", "site": "2", "rate": 0.3}]},
        "initial": {"occupations": [1, 0]},
        "times": {"start": 0, "stop": 0.5, "num": 2},
        "sweep": {"path": "dt", "values": [0.01], "observable": "population:2",
                  "at_times": [0.5]}},
}
# nothing here is a valid value that would take long: no count between 50 and
# 2**70, and no positive dt below 1e-3
_FUZZ_VALUES = [None, True, "x", -1, 0, 0.5, 1.5, math.nan, math.inf, 1e308, 2**70,
                [], {}, [1, "x"], {"foo": 1}]
# the preset base's own parameters, each checked by its preset's leaf
_FUZZ_PATHS = ([path for path, _ in schema_nodes(_SCHEMA)]
               + [f"params.{key}" for key in preset_defaults("two_site_pump")])
# the mappings an unknown key can be put in: schema mappings (times and the
# network block among them) and the preset's parameters
_FUZZ_PARENTS = [path for path, node in schema_nodes(_SCHEMA)
                 if isinstance(node, (_Map, _Either))] + ["params"]


class TestYamlFloats:
    """Configs are read with YAML 1.2's floats, which YAML 1.1 reads as strings."""

    @pytest.mark.parametrize("command,body,forms", [
        ("steady", "params: {gamma_out: %s}", ("1e9", "1.0e9", "1.0e+9")),
        ("run", "times: {start: 0.0, stop: 0.5, num: 3}\ndt: %s", ("1e-3", "1.0e-3")),
    ])
    def test_exponents_give_the_same_tsv(self, tmp_path, command, body, forms):
        tsvs = set()
        for k, form in enumerate(forms):
            (tmp_path / str(k)).mkdir()
            cfg = tmp_path / str(k) / "pump.yaml"
            cfg.write_text(f"preset: two_site_pump\n{body % form}\n", encoding="utf-8")
            out = tmp_path / str(k) / "out"
            assert main([command, str(cfg), "--output", str(out)]) == 0
            (tsv,) = out.glob("*.tsv")
            tsvs.add(tsv.read_bytes())
        assert len(tsvs) == 1

    def test_quoted_exponent_label_stays_a_string(self, tmp_path):
        cfg = tmp_path / "net.yaml"
        cfg.write_text(
            "network:\n"
            "  sites:\n"
            "    - {label: \"1e3\", kind: qubit, dim: 2}\n"
            "    - {label: '2', kind: qubit, dim: 2}\n"
            "  hoppings: [[\"1e3\", '2', 1e0]]\n"
            "initial: {occupations: [1, 0]}\n"
            "times: [0.0, 1.0]\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == 0
        header, rows = read_tsv(out / "net.tsv")
        assert header[1:3] == ["population_1e3", "population_2"]
        meta = json.loads((out / "net.meta.json").read_text())
        assert meta["config"]["network"]["sites"][0]["label"] == "1e3"
        assert meta["config"]["network"]["hoppings"] == [["1e3", "2", 1.0]]


class TestConfigFuzz:
    @given(command=st.sampled_from(["run", "sweep", "steady"]),
           base=st.sampled_from(sorted(_FUZZ_BASES)),
           path=st.one_of(st.sampled_from(_FUZZ_PATHS),
                          st.sampled_from(_FUZZ_PARENTS).map(lambda p: p + ".foo")),
           value=st.sampled_from(_FUZZ_VALUES))
    @settings(max_examples=300, deadline=None)
    def test_every_exit_names_its_key(self, command, base, path, value):
        # one key set to one value: the exit code is documented, there is no
        # traceback, and an error names the key or a mapping that holds it
        cfg = copy.deepcopy(_FUZZ_BASES[base])
        _set_dotted(cfg, path, value)
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp) / "fuzz.yaml", cfg)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, config, "--output", str(Path(tmp) / "out")])
        err = err.getvalue()
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code == 1:
            line = err.splitlines()[0]
            assert line.startswith("error: ")
            parts = path.split(".")
            named = [".".join(parts[:k]) for k in range(1, len(parts) + 1)]
            assert (any(key in line for key in named) or "budget" in line
                    or line.startswith("error: gap ")), (path, value, line)


class TestRateFuzz:
    @given(data=st.data(), both=st.booleans(),
           method=st.sampled_from(["fixed_step_rk4", "superoperator_expm"]))
    @settings(max_examples=40, deadline=None)
    def test_finite_output_or_one_named_error(self, data, both, method):
        # a loss rate of 10**exponent on site 2, optionally twice: a run
        # writes only finite values, or exits with one error line, and NumPy
        # warns of nothing on the way. The Taylor action makes five to ten
        # products per unit of gap * ||S||_1 and refuses a gap only when that
        # norm is above 2**53, so at rates from 1e5 to 1e16 it runs for
        # seconds to years; those exponents are drawn for RK4 alone
        exponents = (st.integers(-3, 308) if method == "fixed_step_rk4"
                     else st.integers(-3, 4) | st.integers(17, 308))
        rate = 10.0 ** data.draw(exponents, label="exponent")
        jumps = [{"kind": "injection", "site": "1", "rate": 0.2},
                 {"kind": "extraction", "site": "2", "rate": rate}]
        if both:
            jumps.append({"kind": "dissipation", "site": "2", "rate": rate})
        cfg = {
            "network": {
                "sites": [{"label": lbl, "kind": "qubit", "dim": 2} for lbl in ("1", "2")],
                "hoppings": [["1", "2", 1.0]],
                "jumps": jumps,
            },
            "initial": {"occupations": [1, 0]},
            "times": {"start": 0.0, "stop": 0.2, "num": 3},
            "method": method,
        }
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp) / "rate.yaml", cfg)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["run", config, "--output", str(Path(tmp) / "out")])
            err = err.getvalue()
            if code == 0:
                _, rows = read_tsv(Path(tmp) / "out" / "rate.tsv")
                assert all(math.isfinite(float(x)) for row in rows for x in row)
                assert err == ""
            else:
                prefix = "error: " if code == 1 else "invariant violation: "
                assert code in (1, 2)
                assert err.startswith(prefix) and err.count("\n") == 1, err


class TestSteady:
    def test_pump_steady_state(self, tmp_path, pump_config):
        out = tmp_path / "out"
        assert main(["steady", pump_config, "--output", str(out)]) == 0
        header, rows = read_tsv(out / "pump_steady.tsv")
        assert header == ["population_1", "population_2", "multiplicity", "residual"]
        sol = oracle.pump_two_site(2.0, 0.2, 0.3)
        assert float(rows[0][0]) == pytest.approx(sol.n1, abs=1e-9)
        assert float(rows[0][1]) == pytest.approx(sol.n2, abs=1e-9)
        assert rows[0][2] == "1"
        assert float(rows[0][3]) < 1e-12
        meta = json.loads((out / "pump_steady.meta.json").read_text())
        state = np.array(meta["state_re"]) + 1j * np.array(meta["state_im"])
        np.testing.assert_allclose(state, sol.state, atol=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the zero threshold 1e-10*sqrt(|S|_1 |S|_inf) swallows singular "
        "values of about 0.07 that gamma_in gives, so steady exits 0 with multiplicity 3 "
        "(residual 3.6e-15) at gamma_out = 1e9 and multiplicity 4 (residual 0.050) at 1e10"))
    @pytest.mark.parametrize("gamma_out", [1.0e9, 1.0e10])
    def test_wide_rate_spread_is_solved_or_refused(self, tmp_path, capsys, gamma_out):
        # at gamma_out = 1e8 the engine agrees with the closed form; at 1e9 and
        # 1e10 it must still do so, or exit 1 with an error that names the block
        cfg = write_config(tmp_path / "wide.yaml", {
            "preset": "two_site_pump", "params": {"gamma_out": gamma_out}})
        out = tmp_path / "out"
        code = main(["steady", cfg, "--output", str(out)])
        if code == 1:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "block" in err and err.count("\n") == 1, err
            return
        assert code == 0
        meta = json.loads((out / "wide_steady.meta.json").read_text())
        assert meta["multiplicity"] == 1
        state = np.array(meta["state_re"]) + 1j * np.array(meta["state_im"])
        np.testing.assert_allclose(state, oracle.pump_two_site(2.0, 0.2, gamma_out).state,
                                   atol=1e-9)

    def test_network_initial_block_is_checked(self, tmp_path, capsys):
        # steady reads no initial state, but checks and records one it is given
        out = tmp_path / "out"
        for occupations, code in (([2, 0], 1), ([1, 0], 0)):
            cfg = write_config(tmp_path / "net.yaml", {
                "network": {**_NETWORK, "hoppings": [["1", "2", 1.0]]},
                "initial": {"occupations": occupations}})
            assert main(["steady", cfg, "--output", str(out)]) == code
        assert capsys.readouterr().err == (
            "error: initial.occupations: occupation 2 out of range for site '1'\n")
        meta = json.loads((out / "net_steady.meta.json").read_text())
        assert meta["run_metadata"]["initial"] == {"occupations": [1, 0]}

    def test_network_config_needs_no_initial_or_times(self, tmp_path):
        cfg = write_config(tmp_path / "net.yaml", {
            "network": {
                "sites": [{"label": "1", "kind": "qubit", "dim": 2},
                          {"label": "2", "kind": "qubit", "dim": 2}],
                "hoppings": [["1", "2", 1.0]],
                "jumps": [{"kind": "injection", "site": "1", "rate": 0.2},
                          {"kind": "extraction", "site": "2", "rate": 0.3}],
            },
        })
        out = tmp_path / "out"
        assert main(["steady", cfg, "--output", str(out)]) == 0
        header, rows = read_tsv(out / "net_steady.tsv")
        assert rows[0][2] == "1"

    def test_dt_flag_rejected(self, tmp_path, pump_config, capsys):
        # nothing is integrated, so a substep would be ignored silently
        out = tmp_path / "out"
        assert main(["steady", pump_config, "--output", str(out), "--dt", "0.1"]) == 1
        assert "unrecognized arguments: --dt" in capsys.readouterr().err
        assert not out.exists()

    def test_reports_blocks(self, tmp_path):
        cfg = write_config(tmp_path / "dark.yaml", {"preset": "two_site_transfer"})
        out = tmp_path / "out"
        assert main(["steady", cfg, "--output", str(out)]) == 0
        meta = json.loads((out / "dark_steady.meta.json").read_text())
        assert meta["multiplicity"] == 9
        assert meta["blocks"] == {"count": 15, "largest": 2, "of": 16}
        assert meta["settled"] == {"certified": 3, "bordered": 3, "mirrored": 6,
                                   "factored": 3}

    def test_oversized_block_exits_1(self, tmp_path, capsys):
        # an 8-qubit hopping chain: its half-filled block has 70**2 = 4900
        # entries, above the cap of 4096
        labels = [str(k) for k in range(8)]
        cfg = write_config(tmp_path / "wide.yaml", {
            "network": {
                "sites": [{"label": lbl, "kind": "qubit", "dim": 2} for lbl in labels],
                "hoppings": [[a, b, 1.0] for a, b in zip(labels, labels[1:])],
            },
        })
        assert main(["steady", cfg, "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.endswith("4900 entries, above the cap of 4096\n")


class TestInformational:
    def test_presets_lists_all(self, capsys):
        assert main(["presets"]) == 0
        text = capsys.readouterr().out
        for name in ("two_site_transfer", "qubit_to_battery", "four_site_congestion",
                     "two_site_pump", "three_site_pump", "hop_transfer",
                     "lh1_ring", "open_chain_pump"):
            assert name in text

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "lindnet" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        text = capsys.readouterr().out
        assert "all checks passed" in text
        assert text.count("PASS") == 5
        # the hopping calibration, from the dense superoperator of each convention
        assert ("element J/2: slow pair imag 1.999375 (closed form 1.999375)"
                "  <- matches closed form, used by presets\n") in text
        assert "element J: slow pair imag 3.999687 " in text
