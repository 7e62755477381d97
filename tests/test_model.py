"""Tests for network declarations, builders, noise profiles, and presets."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from lindnet.cli import main
from lindnet.hilbert import SiteDescriptor, embed_site_operator
from lindnet.model import (
    HBAR_MEV_PS,
    NOISE_PHASE_CONSTANT,
    Dephasing,
    Dissipation,
    Extraction,
    Injection,
    NetworkSpec,
    Transfer,
    _PRESETS,
    build_hamiltonian,
    build_jump_operators,
    cosine_noise,
    preset,
    preset_defaults,
    preset_names,
    uniform_noise,
)


def two_qubits(**kw):
    return NetworkSpec(
        sites=(SiteDescriptor("1", "qubit", 2), SiteDescriptor("2", "qubit", 2)), **kw)


class TestJumpProcesses:
    @pytest.mark.parametrize("cls", [Injection, Extraction, Dissipation, Dephasing])
    def test_negative_rate_rejected(self, cls):
        with pytest.raises(ValueError, match="rate"):
            cls("1", -0.1)

    @pytest.mark.parametrize("cls,kind", [(Injection, "injection"), (Extraction, "extraction"),
                                          (Dissipation, "dissipation"), (Dephasing, "dephasing")])
    def test_site_jump_identity(self, cls, kind):
        # the shared base keeps each kind's name, message, equality and dict form
        jump = cls("1", 0.2)
        assert repr(jump) == f"{cls.__name__}(site='1', rate=0.2)"
        assert jump == cls("1", 0.2)
        assert all(jump != other("1", 0.2)
                   for other in (Injection, Extraction, Dissipation, Dephasing)
                   if other is not cls)
        assert two_qubits(jumps=(jump,)).to_dict()["jumps"] == [
            {"kind": kind, "site": "1", "rate": 0.2}]
        with pytest.raises(ValueError, match=f"^{kind} rate must be a finite nonnegative"):
            cls("1", float("nan"))

    def test_transfer_needs_two_sites(self):
        with pytest.raises(ValueError, match="distinct"):
            Transfer("1", "1", 0.5)


class TestNetworkSpec:
    def test_duplicate_sites(self):
        with pytest.raises(ValueError, match="duplicate"):
            NetworkSpec(sites=(SiteDescriptor("1", "qubit", 2),
                               SiteDescriptor("1", "qubit", 2)))

    def test_unknown_hop_site(self):
        with pytest.raises(ValueError, match="unknown site"):
            two_qubits(hoppings=(("1", "3", 1.0),))

    def test_unknown_jump_site(self):
        with pytest.raises(ValueError, match="unknown site"):
            two_qubits(jumps=(Dissipation("7", 0.1),))

    def test_self_hop_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            two_qubits(hoppings=(("1", "1", 1.0),))

    def test_roundtrip_serialization(self):
        spec = two_qubits(
            hoppings=(("1", "2", 0.7),), onsite=(("2", -0.3),),
            jumps=(Transfer("1", "2", 0.5), Injection("1", 0.2),
                   Extraction("2", 0.1), Dissipation("1", 0.05),
                   Dephasing("2", 0.01)),
            note="roundtrip")
        again = NetworkSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_unknown_jump(self):
        data = two_qubits().to_dict()
        data["jumps"] = [{"kind": "teleport", "site": "1", "rate": 1.0}]
        with pytest.raises(ValueError, match="jump kind"):
            NetworkSpec.from_dict(data)

    @pytest.mark.parametrize("change,message", [
        (lambda d: d.update(foo=1), "network: unknown keys ['foo']"),
        (lambda d: d.update(sites=[]), "network.sites must be a nonempty list, got []"),
        (lambda d: d["sites"][0].update(dim="x"),
         "network.sites[0].dim must be a whole number, got 'x'"),
        (lambda d: d["sites"][0].pop("label"), "network.sites[0].label is required"),
        (lambda d: d["sites"][1].update(kind="qutrit"),
         "network.sites[1]: unknown site kind 'qutrit'"),
        (lambda d: d["hoppings"].append(["1", "2"]),
         "network.hoppings[1] must be [site, site, amplitude], got ['1', '2']"),
        (lambda d: d["onsite"].append(["2", "x"]), "network.onsite[1] must be [site, energy]"),
        (lambda d: d["jumps"][0].pop("site"), "network.jumps[0].site is required"),
        (lambda d: d["jumps"][0].update(kind=["injection"]),
         "network.jumps[0] must be a mapping whose jump kind is one of"),
        (lambda d: d["jumps"][0].update(rate=True),
         "network.jumps[0].rate must be a finite number, got True"),
        (lambda d: d["jumps"][0].update(rate=-1.0),
         "network.jumps[0]: injection rate must be a finite nonnegative rate"),
        (lambda d: d["onsite"].append(["9", 1.0]),
         "network: onsite term references unknown site '9'"),
    ])
    def test_from_dict_names_the_key(self, tmp_path, capsys, change, message):
        data = two_qubits(hoppings=(("1", "2", 0.7),), onsite=(("2", -0.3),),
                          jumps=(Injection("1", 0.2),)).to_dict()
        change(data)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}") as exc:
            NetworkSpec.from_dict(data)
        # the command line checks the block with the same walker: same message
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"network": data, "initial": {"occupations": [1, 0]},
                                       "times": [0.0, 1.0]}, sort_keys=False),
                       encoding="utf-8")
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines()[0] == f"error: {exc.value}"

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_dict_roundtrip_of_random_specs(self, data):
        # every jump kind, int and float numbers; from_dict converts each to float,
        # which the metadata's bytes depend on
        labels = [str(k) for k in range(data.draw(st.integers(1, 4), label="sites"))]
        kinds = st.sampled_from([("qubit", 2), ("spin", 2), ("spin", 3)])
        site = st.sampled_from(labels)
        pair = st.permutations(labels).map(lambda p: p[:2])
        number = st.integers(-3, 3) | st.floats(-3, 3)
        rate = st.integers(0, 3) | st.floats(0, 3)
        jump = st.builds(lambda cls, s, r: cls(s, r),
                         st.sampled_from([Injection, Extraction, Dissipation, Dephasing]),
                         site, rate)
        hoppings = st.just(())
        if len(labels) > 1:  # hoppings and transfers need two sites
            hoppings = st.lists(st.builds(lambda p, x: (*p, x), pair, number), max_size=3)
            jump |= st.builds(lambda p, r: Transfer(*p, r), pair, rate)
        spec = NetworkSpec(
            sites=tuple(SiteDescriptor(lbl, *data.draw(kinds)) for lbl in labels),
            hoppings=tuple(data.draw(hoppings)),
            onsite=tuple(data.draw(st.lists(st.tuples(site, number), max_size=3))),
            jumps=tuple(data.draw(st.lists(jump, max_size=6))),
            note=data.draw(st.text(max_size=5)))
        again = NetworkSpec.from_dict(spec.to_dict())
        assert again == spec
        out = again.to_dict()
        numbers = ([j["rate"] for j in out["jumps"]] + [h[2] for h in out["hoppings"]]
                   + [o[1] for o in out["onsite"]])
        assert all(type(x) is float for x in numbers)


class TestBuilders:
    def test_hopping_matrix_element(self):
        spec = two_qubits(hoppings=(("1", "2", 0.4),))
        H = build_hamiltonian(spec)
        # ascending order |00>,|01>,|10>,|11>: the amplitude sits between |01> and |10>
        assert H[1, 2] == pytest.approx(0.4)
        assert H[2, 1] == pytest.approx(0.4)
        np.testing.assert_allclose(H, H.conj().T, atol=1e-15)
        assert np.abs(np.diag(H)).max() == 0.0

    def test_onsite_energies(self):
        spec = two_qubits(onsite=(("1", 1.5), ("2", -0.5)))
        H = build_hamiltonian(spec)
        basis = spec.basis()
        occ = basis.occupation_table
        np.testing.assert_allclose(np.diag(H).real, 1.5 * occ[:, 0] - 0.5 * occ[:, 1])

    def test_jump_operator_forms(self):
        spec = two_qubits(jumps=(Transfer("1", "2", 0.25), Injection("1", 4.0),
                                 Extraction("2", 9.0), Dephasing("1", 16.0)))
        basis = spec.basis()
        ops = build_jump_operators(spec)
        low1 = embed_site_operator(basis, "1", "lower")
        rai1 = embed_site_operator(basis, "1", "raise")
        rai2 = embed_site_operator(basis, "2", "raise")
        low2 = embed_site_operator(basis, "2", "lower")
        num1 = embed_site_operator(basis, "1", "number")
        np.testing.assert_allclose(ops[0], 0.5 * low1 @ rai2, atol=1e-15)
        np.testing.assert_allclose(ops[1], 2.0 * rai1, atol=1e-15)
        np.testing.assert_allclose(ops[2], 3.0 * low2, atol=1e-15)
        np.testing.assert_allclose(ops[3], 4.0 * num1, atol=1e-15)

    def test_transfer_conserves_total_number(self):
        spec = two_qubits(jumps=(Transfer("1", "2", 1.0),))
        L = build_jump_operators(spec)[0]
        n = spec.basis().occupation_table.sum(axis=1).astype(float)
        comm = L * (n[None, :] - n[:, None])
        assert np.abs(comm).max() == 0.0

    @pytest.mark.parametrize("name", preset_names())
    def test_products_match_matmul_form_bitwise(self, name):
        # each a_s a_t^dag is one two-site embedding, equal to the product
        # of the two single-site embeddings
        spec = preset(name).spec
        basis = spec.basis()

        def hop(lowered, raised):
            return (embed_site_operator(basis, lowered, "lower")
                    @ embed_site_operator(basis, raised, "raise"))

        D = basis.dimension
        H = np.zeros((D, D), dtype=complex)
        for a, b, amp in spec.hoppings:
            term = hop(a, b)
            H += amp * (term + term.conj().T)
        for lbl, eps in spec.onsite:
            H += eps * embed_site_operator(basis, lbl, "number")
        assert np.array_equal(build_hamiltonian(spec, basis), H)
        ops = build_jump_operators(spec, basis)
        assert len(ops) == len(spec.jumps)
        kinds = {Injection: "raise", Extraction: "lower", Dissipation: "lower",
                 Dephasing: "number"}
        for j, L in zip(spec.jumps, ops):
            if isinstance(j, Transfer):
                ref = hop(j.source, j.target)
            else:
                ref = embed_site_operator(basis, j.site, kinds[type(j)])
            assert np.array_equal(L, np.sqrt(j.rate) * ref)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_networks_match_dense_accumulation_bitwise(self, data):
        # H scatter-added term by term against amp (T + T^dag) and eps N
        # summed densely in declaration order, each T a Kronecker chain;
        # every L against sqrt(rate) times its chain
        dims = data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=8))
        while math.prod(dims) > 512:
            dims.pop()
        sites = tuple(SiteDescriptor(f"s{k}", "qubit" if d == 2 and k % 2 else "spin", d)
                      for k, d in enumerate(dims))
        labels = [s.label for s in sites]
        label = st.sampled_from(labels)
        number = st.floats(-100.0, 100.0, allow_nan=False)
        pairs = st.lists(label, min_size=2, max_size=2, unique=True)
        hoppings = tuple((a, b, amp) for (a, b), amp in data.draw(
            st.lists(st.tuples(pairs, number), max_size=6)))
        onsite = tuple(data.draw(st.lists(st.tuples(label, number), max_size=4)))
        rate = st.floats(0.0, 100.0)
        site_jump = st.sampled_from([Injection, Extraction, Dissipation, Dephasing])
        jumps = tuple(data.draw(st.lists(st.one_of(
            st.builds(lambda ab, r: Transfer(*ab, r), pairs, rate),
            st.builds(lambda cls, lbl, r: cls(lbl, r), site_jump, label, rate)),
            max_size=4)))
        spec = NetworkSpec(sites=sites, hoppings=hoppings, onsite=onsite, jumps=jumps)
        basis = spec.basis()

        def chain(ops):
            factors = {basis.site_position(lbl): kind for lbl, kind in ops.items()}
            out = np.ones((1, 1), dtype=complex)
            for pos, site in enumerate(sites):
                out = np.kron(out, local_operator(site, factors.get(pos, "identity")))
            return out

        D = basis.dimension
        H = np.zeros((D, D), dtype=complex)
        for a, b, amp in hoppings:
            term = chain({a: "lower", b: "raise"})
            H += amp * (term + term.conj().T)
        for lbl, eps in onsite:
            H += eps * chain({lbl: "number"})
        got = build_hamiltonian(spec, basis)
        assert got.tobytes() == H.tobytes()
        for j, L in zip(jumps, build_jump_operators(spec, basis), strict=True):
            ops = ({j.source: "lower", j.target: "raise"} if isinstance(j, Transfer)
                   else {j.site: j.op_kind})
            assert L.tobytes() == (math.sqrt(j.rate) * chain(ops)).tobytes()


def local_operator(site, op_kind):
    """A site's local operator, S-|eta+1> = sqrt((eta+1)(2s-eta)) |eta>."""
    d = site.dim
    s = (d - 1) / 2
    low = np.zeros((d, d), dtype=complex)
    for eta in range(d - 1):
        low[eta, eta + 1] = np.sqrt((eta + 1) * (2 * s - eta))
    return {"lower": low, "raise": low.conj().T,
            "number": np.diag(np.arange(d, dtype=float)).astype(complex),
            "identity": np.eye(d, dtype=complex)}[op_kind]


class TestNoise:
    def test_cosine_profile(self):
        eps = cosine_noise(0.5, 4)
        expect = [0.5 * math.cos(NOISE_PHASE_CONSTANT * j) for j in (1, 2, 3, 4)]
        assert eps == pytest.approx(expect)
        assert NOISE_PHASE_CONSTANT == math.e

    def test_uniform_reproducible(self):
        a = uniform_noise(0.3, 5, seed=42)
        b = uniform_noise(0.3, 5, seed=42)
        assert a == b
        assert max(abs(x) for x in a) <= 0.3
        assert uniform_noise(0.3, 5, seed=43) != a

    def test_count_validation(self):
        with pytest.raises(ValueError):
            cosine_noise(1.0, -1)


class TestPresetRegistry:
    def test_names_sorted(self):
        names = preset_names()
        assert names == sorted(names)
        assert "two_site_pump" in names

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("no_such_model")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            preset("two_site_transfer", gamma=1.0, typo=2.0)

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_builds(self, name):
        run = preset(name)
        rho = run.initial.to_density()
        assert rho.matrix.trace() == pytest.approx(1.0)
        assert run.times[0] == 0.0 and run.times.size > 1
        assert run.metadata["preset"] == name
        # defaults documented for every accepted parameter
        assert set(run.metadata["params"]) == set(preset_defaults(name))


# (preset, parameter) of every preset parameter, and those whose leaf takes null
_PARAMETERS = [(name, key) for name in preset_names() for key in preset_defaults(name)]
_NULLABLE = {("lh1_ring", "battery_dim"), ("lh1_ring", "seed"), ("open_chain_pump", "seed")}


class TestPresetParameters:
    """Each parameter is checked by its own leaf, and every refusal names it."""

    @pytest.mark.parametrize("name,key", _PARAMETERS)
    def test_bad_value_names_the_key(self, name, key):
        bad = ["x", True, math.nan, math.inf] + [None] * ((name, key) not in _NULLABLE)
        for value in bad:
            # a ValueError, never a TypeError from a comparison in a builder
            with pytest.raises(ValueError, match=rf"^params\.{key} must be .+, got "
                                                 rf"{re.escape(repr(value))}$"):
                preset(name, **{key: value})

    @pytest.mark.parametrize("name,key", [(name, key) for name, key in _PARAMETERS
                                          if not isinstance(preset_defaults(name)[key], str)])
    def test_floats_and_numpy_scalars_are_numbers(self, name, key):
        # a whole-number parameter, declared by an int default, reaches the
        # builder as an int, also when written 4.0; any other value as given
        default = preset_defaults(name)[key]
        values = ([float(default), np.float64(default)]
                  + [np.int64(default)] * float(default).is_integer())
        for value in values:
            got = preset(name, **{key: value}).metadata["params"][key]
            if type(default) is int:
                assert type(got) is int and got == value
            else:
                assert got is value

    @pytest.mark.parametrize("name,params,message", [
        ("two_site_pump", {"gamma_in": 0, "gamma_out": 0.0},
         "params.gamma_in and params.gamma_out must not both be 0"),
        ("three_site_pump", {"gamma_in": 0.0, "gamma_out": 0.0},
         "params.gamma_in and params.gamma_out must not both be 0"),
        ("open_chain_pump", {"gamma_in": 0.0, "gamma_out": 0},
         "params.gamma_in and params.gamma_out must not both be 0"),
        ("qubit_to_battery", {"s": 0.5, "n_tot": 3}, "params.n_tot must be at most 2 s + 1 = 2"),
        ("open_chain_pump", {"noise": "uniform", "seed": None}, "params.seed must be an integer"),
        ("lh1_ring", {"N": 2, "excitations": 3}, "params.excitations: excitation count 3"),
    ])
    def test_two_parameter_rules_stay_with_the_builder(self, name, params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            preset(name, **params)

    def test_readme_table_lists_the_parameters(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table = readme.read_text(encoding="utf-8").split(
            "| parameter | default | rule |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
        rows = [[cell.strip() for cell in row.split("|")[1:-1]] for row in table.splitlines()]
        assert rows == [[f"`{name}.{key}`", f"`{default}`", leaf.what]
                        for name in preset_names()
                        for key, (default, leaf) in _PRESETS[name].params.items()]


class TestSplittingConvention:
    """The J quoted by the solvable presets is the two-site level splitting."""

    @pytest.mark.parametrize("name,key", [
        ("two_site_pump", "J"), ("three_site_pump", "J"),
        ("hop_transfer", "J"), ("four_site_congestion", "J")])
    def test_matrix_element_is_half_J(self, name, key):
        run = preset(name)
        J = run.metadata["params"][key]
        amps = [amp for _, _, amp in run.spec.hoppings]
        assert all(a == pytest.approx(J / 2) for a in amps)
        assert "J/2" in run.metadata["convention"]


class TestBatteryPreset:
    def test_shapes_and_initial(self):
        run = preset("qubit_to_battery", gamma=0.5, s=1.0, n_tot=2)
        basis = run.spec.basis()
        assert basis.dimension == 6
        occ = basis.occupation_table[np.abs(run.initial.amplitudes) > 0]
        assert occ.tolist() == [[1, 1]]  # qubit occupied, battery at n_tot - 1
        assert run.metadata["effective_rate"] == pytest.approx(0.5 * 2 * (3 - 2))

    def test_empty_sector(self):
        run = preset("qubit_to_battery", n_tot=0)
        assert run.initial.amplitudes[0] == 1.0

    def test_bad_spin(self):
        with pytest.raises(ValueError, match="half-integer"):
            preset("qubit_to_battery", s=0.7)

    def test_n_tot_range(self):
        with pytest.raises(ValueError, match="n_tot"):
            preset("qubit_to_battery", s=1.0, n_tot=4)


class TestRingPreset:
    def test_dimerized_bonds_internal_units(self):
        run = preset("lh1_ring", N=4, t=1.0, delta=0.12, energy_unit="internal",
                     noise="none")
        bonds = run.spec.hoppings[:4]
        # bond j carries t (1 + delta (-1)^j), wrapping back to r1
        assert [(a, b) for a, b, _ in bonds] == [
            ("r1", "r2"), ("r2", "r3"), ("r3", "r4"), ("r4", "r1")]
        np.testing.assert_allclose([amp for _, _, amp in bonds],
                                   [0.88, 1.12, 0.88, 1.12])

    def test_spokes_touch_every_ring_site(self):
        run = preset("lh1_ring", energy_unit="internal", noise="none")
        spokes = run.spec.hoppings[4:]
        assert [(a, b) for a, b, _ in spokes] == [
            ("r1", "c"), ("r2", "c"), ("r3", "c"), ("r4", "c")]
        np.testing.assert_allclose([amp for _, _, amp in spokes], 1.0)

    def test_mev_scaling(self):
        internal = preset("lh1_ring", energy_unit="internal", noise="none")
        mev = preset("lh1_ring", energy_unit="meV", noise="none")
        for (_, _, a_int), (_, _, a_mev) in zip(internal.spec.hoppings,
                                                mev.spec.hoppings):
            assert a_mev == pytest.approx(a_int / HBAR_MEV_PS)
        assert mev.metadata["energy_conversion"]["hbar_meV_ps"] == HBAR_MEV_PS

    def test_rates_not_scaled(self):
        mev = preset("lh1_ring", energy_unit="meV", gamma=0.3, noise="none")
        transfer = mev.spec.jumps[0]
        assert transfer.rate == 0.3

    def test_cosine_noise_on_ring_sites_only(self):
        run = preset("lh1_ring", energy_unit="internal", noise="cosine", t=1.0)
        onsite = dict(run.spec.onsite)
        assert set(onsite) == {"r1", "r2", "r3", "r4"}
        expect = cosine_noise(1.0, 4)
        assert [onsite[f"r{j}"] for j in (1, 2, 3, 4)] == pytest.approx(expect)

    def test_battery_optional(self):
        with_bat = preset("lh1_ring", battery_dim=3)
        without = preset("lh1_ring", battery_dim=None)
        labels_with = [s.label for s in with_bat.spec.sites]
        labels_without = [s.label for s in without.spec.sites]
        assert "bat" in labels_with and "bat" not in labels_without
        kinds_with = [type(j).__name__ for j in with_bat.spec.jumps]
        kinds_without = [type(j).__name__ for j in without.spec.jumps]
        assert kinds_with.count("Transfer") == 2
        assert kinds_without.count("Transfer") == 1

    def test_initial_is_ring_dicke(self):
        run = preset("lh1_ring", excitations=2)
        basis = run.spec.basis()
        hot = np.abs(run.initial.amplitudes) > 0
        assert hot.sum() == 6  # C(4, 2) ring configurations
        occ = basis.occupation_table[hot]
        ring_cols = [basis.site_position(f"r{j}") for j in (1, 2, 3, 4)]
        assert set(occ[:, ring_cols].sum(axis=1)) == {2}
        other = [k for k in range(len(run.spec.sites)) if k not in ring_cols]
        assert np.all(occ[:, other] == 0)

    def test_odd_ring_rejected(self):
        with pytest.raises(ValueError, match="even"):
            preset("lh1_ring", N=5)

    def test_dissipation_and_dephasing_on_ring(self):
        run = preset("lh1_ring", gamma_diss=0.03, gamma_deph=0.05)
        diss = [j.site for j in run.spec.jumps if type(j).__name__ == "Dissipation"]
        deph = [j.site for j in run.spec.jumps if type(j).__name__ == "Dephasing"]
        assert diss == ["r1", "r2", "r3", "r4"]
        assert deph == ["r1", "r2", "r3", "r4"]


class TestChainPreset:
    def test_layout(self):
        run = preset("open_chain_pump", N=5, J=0.8)
        hops = run.spec.hoppings
        assert [(a, b) for a, b, _ in hops] == [
            ("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")]
        # chain amplitudes are face value, not split
        np.testing.assert_allclose([amp for _, _, amp in hops], 0.8)

    def test_loss_on_inner_sites_only(self):
        run = preset("open_chain_pump", N=4, gamma_diss=0.1, gamma_deph=0.2)
        diss = [j.site for j in run.spec.jumps if type(j).__name__ == "Dissipation"]
        deph = [j.site for j in run.spec.jumps if type(j).__name__ == "Dephasing"]
        assert diss == ["2", "3"]
        assert deph == ["2", "3"]

    def test_pump_ends(self):
        run = preset("open_chain_pump", N=4)
        kinds = {type(j).__name__: j for j in run.spec.jumps}
        assert kinds["Injection"].site == "1"
        assert kinds["Extraction"].site == "4"

    def test_uniform_noise_seeded(self):
        a = preset("open_chain_pump", noise="uniform", seed=3)
        b = preset("open_chain_pump", noise="uniform", seed=3)
        c = preset("open_chain_pump", noise="uniform", seed=4)
        assert a.spec.onsite == b.spec.onsite
        assert a.spec.onsite != c.spec.onsite
        assert len(a.spec.onsite) == 6  # noise covers all chain sites


class TestPumpPresets:
    def test_two_site_initial_options(self):
        empty = preset("two_site_pump", initial="empty")
        site1 = preset("two_site_pump", initial="site1")
        assert empty.initial.amplitudes[0] == 1.0
        assert site1.initial.amplitudes[2] == 1.0
        with pytest.raises(ValueError, match="initial"):
            preset("two_site_pump", initial="both")

    def test_hop_transfer_initial(self):
        run = preset("hop_transfer")
        basis = run.spec.basis()
        assert run.initial.amplitudes[basis.index((1, 1, 0))] == 1.0
