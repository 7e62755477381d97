"""Network models: Hamiltonians, jump processes, noise profiles, presets.

A NetworkSpec declares sites, hopping bonds, onsite energies, and incoherent
jump processes. Builders turn it into matrices over the product basis. The
preset registry provides ready-made configurations for every network studied
by this package, each with documented parameter conventions.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, ClassVar, Mapping, NamedTuple, Union

import numpy as np

from lindnet.hilbert import (
    ProductBasis,
    PureState,
    SiteDescriptor,
    basis_state,
    dicke_state,
    embed_operator_product,
    embed_site_operator,
)

__all__ = [
    "Transfer",
    "Injection",
    "Extraction",
    "Dissipation",
    "Dephasing",
    "JumpProcess",
    "NetworkSpec",
    "PresetRun",
    "build_hamiltonian",
    "build_jump_operators",
    "cosine_noise",
    "uniform_noise",
    "preset",
    "preset_names",
    "preset_defaults",
    "HBAR_MEV_PS",
    "NOISE_PHASE_CONSTANT",
]

# hbar in meV * ps: divides energies quoted in meV to get angular frequencies
# in rad/ps, so they can sit next to rates quoted in 1/ps.
HBAR_MEV_PS = 0.6582119

# Phase step of the deterministic diagonal noise profile eps_j = a * cos(c * j).
# An irrational multiple of pi is wanted so the profile never repeats; Euler's
# number is the documented choice.
NOISE_PHASE_CONSTANT = math.e

# Bytes that the dense operators of a network may take: 16 D**2 each for H,
# every L and every L^dag L. lh1_ring with N = 8 (D = 3072, five operators)
# takes 755 MB of it.
DENSE_OPERATOR_BUDGET = 2 * 1024**3


def _check_rate(rate: float, what: str) -> None:
    if not np.isfinite(rate) or rate < 0:
        raise ValueError(f"{what} must be a finite nonnegative rate, got {rate}")


@dataclass(frozen=True)
class Transfer:
    """Incoherent hop: lowers `source`, raises `target`, L = sqrt(rate) s- s+."""

    source: str
    target: str
    rate: float

    def __post_init__(self):
        _check_rate(self.rate, "transfer rate")
        if self.source == self.target:
            raise ValueError("transfer needs two distinct sites")


@dataclass(frozen=True)
class _SiteJump:
    """Jump on one site, L = sqrt(rate) op_kind; op_kind is set per subclass."""

    site: str
    rate: float
    op_kind: ClassVar[str]

    def __post_init__(self):
        _check_rate(self.rate, f"{type(self).__name__.lower()} rate")


class Injection(_SiteJump):
    """Incoherent filling of one site, L = sqrt(rate) raise."""

    op_kind = "raise"


class Extraction(_SiteJump):
    """Incoherent draining of one site, L = sqrt(rate) lower."""

    op_kind = "lower"


class Dissipation(_SiteJump):
    """Local loss to the environment, L = sqrt(rate) lower."""

    op_kind = "lower"


class Dephasing(_SiteJump):
    """Local phase noise, L = sqrt(rate) number."""

    op_kind = "number"


JumpProcess = Union[Transfer, Injection, Extraction, Dissipation, Dephasing]

# the config and to_dict name each kind by its lowercased class name
_JUMP_KINDS = {cls.__name__.lower(): cls
               for cls in (Transfer, Injection, Extraction, Dissipation, Dephasing)}


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative open-network model.

    hoppings are (site_a, site_b, amplitude) with H gaining
    amplitude * (lower_a raise_b + raise_a lower_b); the amplitude is the
    matrix element between the two single-excitation kets. onsite entries are
    (site, energy) adding energy * number_site.
    """

    sites: tuple[SiteDescriptor, ...]
    hoppings: tuple[tuple[str, str, float], ...] = ()
    onsite: tuple[tuple[str, float], ...] = ()
    jumps: tuple[JumpProcess, ...] = ()
    note: str = ""

    def __post_init__(self):
        labels = {s.label for s in self.sites}
        if len(labels) != len(self.sites):
            raise ValueError("duplicate site labels")

        def need(lbl: str, where: str) -> None:
            if lbl not in labels:
                raise ValueError(f"{where} references unknown site {lbl!r}")

        for a, b, amp in self.hoppings:
            need(a, "hopping")
            need(b, "hopping")
            if a == b:
                raise ValueError("hopping needs two distinct sites")
            if not np.isfinite(amp):
                raise ValueError(f"hopping amplitude {amp} not finite")
        for lbl, eps in self.onsite:
            need(lbl, "onsite term")
            if not np.isfinite(eps):
                raise ValueError(f"onsite energy {eps} not finite")
        for j in self.jumps:
            if isinstance(j, Transfer):
                need(j.source, "jump")
                need(j.target, "jump")
            else:
                need(j.site, "jump")

    def basis(self) -> ProductBasis:
        """The product basis, refused when its dense operators would pass the budget."""
        basis = ProductBasis(self.sites)
        D = basis.dimension
        count = 1 + 2 * len(self.jumps)
        if 16 * D * D * count > DENSE_OPERATOR_BUDGET:
            raise ValueError(
                f"dimension D = {D}: its {count} dense operators (H, every L and every "
                f"L^dag L) would take {16 * D * D * count} bytes, above the budget of "
                f"{DENSE_OPERATOR_BUDGET} bytes")
        return basis

    def to_dict(self) -> dict:
        return {
            "sites": [asdict(s) for s in self.sites],
            "hoppings": [list(h) for h in self.hoppings],
            "onsite": [list(o) for o in self.onsite],
            "jumps": [{"kind": type(j).__name__.lower(), **asdict(j)} for j in self.jumps],
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetworkSpec":
        """The spec of a network block, the form to_dict writes.

        A key the block does not define is refused, and every error is a
        ValueError that names its key, as network.sites[0].dim.
        """
        _walk(_NETWORK, data, "network")
        sites = tuple(_from_fields(f"network.sites[{k}]", SiteDescriptor, s)
                      for k, s in enumerate(data["sites"]))
        jumps = tuple(_from_fields(f"network.jumps[{k}]", _JUMP_KINDS[j["kind"]], j)
                      for k, j in enumerate(data.get("jumps", ())))
        return _named("network", cls, sites,
                      tuple((a, b, float(amp)) for a, b, amp in data.get("hoppings", ())),
                      tuple((lbl, float(eps)) for lbl, eps in data.get("onsite", ())),
                      jumps, data.get("note", ""))


# ---------------------------------------------------------------------------
# config schema: the network block here, the rest of the config in cli


class _Leaf(NamedTuple):
    what: str
    test: Callable[[Any], bool]

    def where(self, what: str, test: Callable[[Any], bool]) -> "_Leaf":
        """A narrower leaf: this one's test, then test."""
        return _Leaf(what, lambda v: self.test(v) and test(v))


# Schema nodes: a _Leaf is what a value must be and its test; a _List checks
# each item of a list, nonempty unless told otherwise; an _Either checks a
# value against the option that tag(value) names; a _Map takes only its own
# keys, and needs each of required and exactly one of the pair one_of, if any.
_List = namedtuple("_List", "item nonempty", defaults=(True,))
_Either = namedtuple("_Either", "what tag options")
_Map = namedtuple("_Map", "keys required one_of", defaults=((), ()))


def _walk(node, value, key: str, noun: str = "keys") -> None:
    """Check value against a schema node; an error names key, its dotted path."""
    if isinstance(node, _Leaf):
        if not node.test(value):
            raise ValueError(f"{key} must be {node.what}, got {value!r}")
    elif isinstance(node, _Either):
        option = node.options.get(node.tag(value))
        if option is None:
            raise ValueError(f"{key} must be {node.what}, got {value!r}")
        _walk(option, value, key)
    elif isinstance(node, _List):
        if not isinstance(value, list) or (node.nonempty and not value):
            raise ValueError(f"{key} must be a {'nonempty ' * node.nonempty}list, got {value!r}")
        for i, item in enumerate(value):
            _walk(node.item, item, f"{key}[{i}]")
    else:
        if not isinstance(value, Mapping):
            raise ValueError(f"{key or 'config'} must be a mapping, got {value!r}")
        unknown = [k for k in value if k not in node.keys]
        if unknown:
            raise ValueError(f"{key or 'config'}: unknown {noun} {unknown}; "
                             f"valid: {', '.join(node.keys)}")
        for k, v in value.items():
            _walk(node.keys[k], v, f"{key}.{k}" if key else k)
        missing = [k for k in node.required if k not in value]
        if missing:
            raise ValueError(f"{key}.{missing[0]} is required")
        if node.one_of and sum(k in value for k in node.one_of) != 1:
            pair = [f"{key}.{k}" if key else k for k in node.one_of]
            raise ValueError(f"config needs exactly one of {pair[0]} and {pair[1]}")


_TEXT = _Leaf("a string", lambda v: isinstance(v, str))
# True and False are not numbers here; a whole number may be written 3 or 3.0
_NUMBER = _Leaf("a finite number",
                lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
_WHOLE = _NUMBER.where("a whole number", lambda v: float(v).is_integer())
# a dataclass field's annotation: the leaf that checks it and its conversion
_FIELD_TYPES = {"str": (_TEXT, str), "int": (_WHOLE, int), "float": (_NUMBER, float)}


def _fields_node(cls, **first: _Leaf) -> _Map:
    """A mapping of the keys first and then cls's fields, every one required."""
    keys = {**first, **{f.name: _FIELD_TYPES[f.type][0] for f in fields(cls)}}
    return _Map(keys, tuple(keys))


def _from_fields(key: str, cls, entry: Mapping):
    """cls of a checked entry, each field converted to the type it is annotated with."""
    return _named(key, cls, **{f.name: _FIELD_TYPES[f.type][1](entry[f.name])
                               for f in fields(cls)})


def _items(*leaves: _Leaf) -> Callable[[Any], bool]:
    """The test of a list entry such as [site, energy], one item per leaf."""
    return lambda v: (isinstance(v, (list, tuple)) and len(v) == len(leaves)
                      and all(leaf.test(x) for leaf, x in zip(leaves, v)))


_NETWORK = _Map({
    "sites": _List(_fields_node(SiteDescriptor)),
    "hoppings": _List(_Leaf("[site, site, amplitude]", _items(_TEXT, _TEXT, _NUMBER)), False),
    "onsite": _List(_Leaf("[site, energy]", _items(_TEXT, _NUMBER)), False),
    "jumps": _List(_Either(
        f"a mapping whose jump kind is one of {', '.join(_JUMP_KINDS)}",
        # only a string kind can read as a kind's name; the kind's node checks it is one
        lambda v: str(v.get("kind")) if isinstance(v, Mapping) else None,
        {kind: _fields_node(cls, kind=_TEXT) for kind, cls in _JUMP_KINDS.items()}), False),
    "note": _TEXT,
}, required=("sites",))


def _named(key: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError from it prefixed with key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def build_hamiltonian(spec: NetworkSpec, basis: ProductBasis | None = None) -> np.ndarray:
    """Hermitian Hamiltonian matrix of the hopping and onsite terms."""
    basis = basis or spec.basis()
    D = basis.dimension
    H = np.zeros((D, D), dtype=complex)
    for a, b, amp in spec.hoppings:
        term = embed_operator_product(basis, {a: "lower", b: "raise"})
        H += amp * (term + term.conj().T)
    for lbl, eps in spec.onsite:
        H += eps * embed_site_operator(basis, lbl, "number")
    return H


def build_jump_operators(spec: NetworkSpec, basis: ProductBasis | None = None) -> list[np.ndarray]:
    """Jump operators in declaration order, rates folded in as sqrt(rate)."""
    basis = basis or spec.basis()
    ops = []
    for j in spec.jumps:
        root = np.sqrt(j.rate)
        if isinstance(j, Transfer):
            L = embed_operator_product(basis, {j.source: "lower", j.target: "raise"})
        else:
            L = embed_site_operator(basis, j.site, j.op_kind)
        ops.append(root * L)
    return ops


def cosine_noise(amplitude: float, count: int,
                 constant: float = NOISE_PHASE_CONSTANT) -> list[float]:
    """Deterministic diagonal noise profile eps_j = amplitude*cos(constant*j), j=1..count."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return [amplitude * math.cos(constant * j) for j in range(1, count + 1)]


def uniform_noise(amplitude: float, count: int, seed: int) -> list[float]:
    """Seeded uniform diagonal noise in [-amplitude, amplitude]."""
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    return [float(x) for x in rng.uniform(-amplitude, amplitude, size=count)]


# --------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class PresetRun:
    """Resolved preset: network, initial state, default output grid, metadata."""

    spec: NetworkSpec
    initial: PureState
    times: np.ndarray
    metadata: dict


def _merge(defaults: dict, overrides: Mapping[str, Any], name: str) -> dict:
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"preset {name!r}: unknown parameters {sorted(unknown)}")
    out = dict(defaults)
    out.update(overrides)
    return out


def _grid(t_max: float, samples: int) -> np.ndarray:
    return np.linspace(0.0, t_max, samples)


# Display convention for the exactly solvable networks: the coupling J quoted
# by a preset is the level splitting of the isolated two-site problem, so the
# single-excitation matrix element is J/2. The spectral calibration in the
# validate command measures this (see its report and each preset's metadata).
_SPLITTING_NOTE = (
    "hopping matrix element = J/2 (J is the two-site level splitting); "
    "frequency formulas quoting sqrt(4J^2 - ...) refer to twice the "
    "generator's imaginary pair"
)


def _two_site_transfer(p: dict) -> PresetRun:
    gamma = p["gamma"]
    if gamma <= 0:
        raise ValueError("two_site_transfer: gamma must be > 0")
    spec = NetworkSpec(
        sites=(SiteDescriptor("1", "qubit", 2), SiteDescriptor("2", "qubit", 2)),
        jumps=(Transfer("1", "2", gamma),),
        note="incoherent two-qubit transfer, exactly solvable entrywise",
    )
    basis = spec.basis()
    return PresetRun(spec, basis_state(basis, (1, 0)), _grid(5.0 / gamma, 501),
                     {"preset": "two_site_transfer", "params": dict(p)})


def _qubit_to_battery(p: dict) -> PresetRun:
    gamma, s, n_tot = p["gamma"], p["s"], p["n_tot"]
    # a finite s can still overflow 2 s + 1, which round() refuses
    size = 2 * s + 1
    dim = round(size) if math.isfinite(size) else 0
    if abs(size - dim) > 1e-12 or dim < 2:
        raise ValueError(f"qubit_to_battery: params.s must be a half-integer >= 1/2, "
                         f"got {s!r}")
    if gamma <= 0:
        raise ValueError("qubit_to_battery: gamma must be > 0")
    if not isinstance(n_tot, (int, np.integer)) or not 0 <= n_tot <= dim:
        raise ValueError(f"qubit_to_battery: n_tot must be an integer in 0..{dim}")
    spec = NetworkSpec(
        sites=(SiteDescriptor("q", "qubit", 2), SiteDescriptor("b", "spin", dim)),
        jumps=(Transfer("q", "b", gamma),),
        note="qubit charging a finite spin battery at an occupation-dependent rate",
    )
    basis = spec.basis()
    occ = (1, n_tot - 1) if n_tot >= 1 else (0, 0)
    geff = gamma * n_tot * (dim - n_tot)
    t_max = 5.0 / geff if geff > 0 else 5.0 / gamma
    return PresetRun(spec, basis_state(basis, occ), _grid(t_max, 501),
                     {"preset": "qubit_to_battery", "params": dict(p),
                      "effective_rate": geff})


def _four_site_congestion(p: dict) -> PresetRun:
    J, gamma, gamma_b, exc = p["J"], p["gamma"], p["gamma_b"], p["excitations"]
    if exc not in (1, 2):
        raise ValueError("four_site_congestion: excitations must be 1 or 2")
    if gamma < 0 or gamma_b < 0 or J <= 0:
        raise ValueError("four_site_congestion: need J > 0 and nonnegative rates")
    spec = NetworkSpec(
        sites=tuple(SiteDescriptor(str(k), "qubit", 2) for k in range(1, 5)),
        hoppings=(("1", "2", J / 2),),
        jumps=(Transfer("2", "3", gamma), Transfer("3", "4", gamma_b)),
        note="coherent dimer feeding a two-step incoherent cascade",
    )
    basis = spec.basis()
    occ = (1, 1, 0, 0) if exc == 2 else (1, 0, 0, 0)
    return PresetRun(spec, basis_state(basis, occ), _grid(100.0, 1001),
                     {"preset": "four_site_congestion", "params": dict(p),
                      "convention": _SPLITTING_NOTE})


def _two_site_pump(p: dict) -> PresetRun:
    J, gin, gout = p["J"], p["gamma_in"], p["gamma_out"]
    if J <= 0 or gin < 0 or gout < 0 or gin + gout == 0:
        raise ValueError("two_site_pump: need J > 0 and rates >= 0, not both zero")
    spec = NetworkSpec(
        sites=(SiteDescriptor("1", "qubit", 2), SiteDescriptor("2", "qubit", 2)),
        hoppings=(("1", "2", J / 2),),
        jumps=(Injection("1", gin), Extraction("2", gout)),
        note="coherent dimer pumped at one end and drained at the other",
    )
    basis = spec.basis()
    initial = p["initial"]
    occ = {"empty": (0, 0), "site1": (1, 0), "site2": (0, 1)}.get(initial)
    if occ is None:
        raise ValueError("two_site_pump: initial must be empty, site1, or site2")
    return PresetRun(spec, basis_state(basis, occ), _grid(40.0, 2001),
                     {"preset": "two_site_pump", "params": dict(p),
                      "convention": _SPLITTING_NOTE})


def _three_site_pump(p: dict) -> PresetRun:
    J, gin, gout = p["J"], p["gamma_in"], p["gamma_out"]
    if J <= 0 or gin < 0 or gout < 0 or gin + gout == 0:
        raise ValueError("three_site_pump: need J > 0 and rates >= 0, not both zero")
    spec = NetworkSpec(
        sites=tuple(SiteDescriptor(str(k), "qubit", 2) for k in (1, 2, 3)),
        hoppings=(("1", "2", J / 2), ("2", "3", J / 2)),
        jumps=(Injection("1", gin), Extraction("3", gout)),
        note="uniform three-site chain pumped at one end and drained at the other",
    )
    basis = spec.basis()
    return PresetRun(spec, basis_state(basis, (0, 0, 0)), _grid(40.0, 2001),
                     {"preset": "three_site_pump", "params": dict(p),
                      "convention": _SPLITTING_NOTE})


def _hop_transfer(p: dict) -> PresetRun:
    J, gamma = p["J"], p["gamma"]
    if J <= 0 or gamma <= 0:
        raise ValueError("hop_transfer: need J > 0 and gamma > 0")
    spec = NetworkSpec(
        sites=tuple(SiteDescriptor(str(k), "qubit", 2) for k in (1, 2, 3)),
        hoppings=(("1", "2", J / 2),),
        jumps=(Transfer("2", "3", gamma),),
        note="coherent dimer with one excitation hopped off to a sink qubit",
    )
    basis = spec.basis()
    return PresetRun(spec, basis_state(basis, (1, 1, 0)), _grid(10.0 / gamma, 1001),
                     {"preset": "hop_transfer", "params": dict(p),
                      "convention": _SPLITTING_NOTE})


def _ring_labels(N: int) -> list[str]:
    return [f"r{j}" for j in range(1, N + 1)]


def _noise_profile(kind: str, amplitude: float, count: int, seed: int) -> list[float]:
    if kind == "cosine":
        return cosine_noise(amplitude, count)
    if kind == "uniform":
        # default_rng(None) would draw a fresh profile on every run
        if seed is None:
            raise ValueError("params.seed must be an integer for uniform noise, got None")
        return uniform_noise(amplitude, count, seed)
    if kind == "none":
        return [0.0] * count
    raise ValueError(f"unknown noise profile {kind!r}; valid: cosine, uniform, none")


def _lh1_ring(p: dict) -> PresetRun:
    N = p["N"]
    if not isinstance(N, (int, np.integer)) or N < 2 or N % 2:
        raise ValueError("lh1_ring: N must be an even integer >= 2")
    t_hop, J, delta = p["t"], p["J"], p["delta"]
    gamma, gamma_b = p["gamma"], p["gamma_b"]
    gdiss, gdeph = p["gamma_diss"], p["gamma_deph"]
    battery_dim = p["battery_dim"]
    n_exc = p["excitations"]
    if t_hop <= 0 or J < 0:
        raise ValueError("lh1_ring: need t > 0 and J >= 0")
    if not 0 <= delta < 1:
        raise ValueError("lh1_ring: delta must be in [0, 1)")
    for r, what in ((gamma, "gamma"), (gamma_b, "gamma_b"), (gdiss, "gamma_diss"),
                    (gdeph, "gamma_deph")):
        _check_rate(r, f"lh1_ring {what}")
    if battery_dim is not None and (not isinstance(battery_dim, (int, np.integer))
                                    or battery_dim < 2):
        raise ValueError("lh1_ring: battery_dim must be None or an integer >= 2")

    ring = _ring_labels(N)
    sites = [SiteDescriptor(lbl, "qubit", 2) for lbl in ring]
    sites.append(SiteDescriptor("c", "qubit", 2))
    sites.append(SiteDescriptor("rc", "qubit", 2))
    if battery_dim is not None:
        sites.append(SiteDescriptor("bat", "spin", int(battery_dim)))

    unit = p["energy_unit"]
    if unit == "meV":
        scale = 1.0 / HBAR_MEV_PS
    elif unit == "internal":
        scale = 1.0
    else:
        raise ValueError("lh1_ring: energy_unit must be 'meV' or 'internal'")

    hoppings = []
    for j in range(1, N + 1):
        a, b = ring[j - 1], ring[j % N]
        # dimerized bond j: t (1 + delta (-1)^j)
        hoppings.append((a, b, scale * t_hop * (1 + delta * (-1) ** j)))
    for lbl in ring:
        hoppings.append((lbl, "c", scale * J))

    onsite = [(lbl, scale * eps) for lbl, eps in
              zip(ring, _noise_profile(p["noise"], t_hop, N, p["seed"]))]

    jumps: list[JumpProcess] = [Transfer("c", "rc", gamma)]
    if battery_dim is not None:
        jumps.append(Transfer("rc", "bat", gamma_b))
    if gdiss > 0:
        jumps.extend(Dissipation(lbl, gdiss) for lbl in ring)
    if gdeph > 0:
        jumps.extend(Dephasing(lbl, gdeph) for lbl in ring)

    spec = NetworkSpec(
        sites=tuple(sites), hoppings=tuple(hoppings), onsite=tuple(onsite),
        jumps=tuple(jumps),
        note="dimerized antenna ring feeding a reaction-center qubit and battery",
    )
    basis = spec.basis()
    initial = dicke_state(basis, ring, n_exc)
    meta = {
        "preset": "lh1_ring", "params": dict(p),
        "energy_conversion": {"unit": unit, "hbar_meV_ps": HBAR_MEV_PS,
                              "scale_applied": scale},
        "noise": {"profile": p["noise"], "amplitude": t_hop,
                  "phase_constant": NOISE_PHASE_CONSTANT, "seed": p["seed"],
                  "sites": ring},
        "convention": "ring bond amplitudes and spoke J are direct matrix elements",
    }
    return PresetRun(spec, initial, _grid(40.0, 401), meta)


def _open_chain_pump(p: dict) -> PresetRun:
    N, J = p["N"], p["J"]
    gin, gout = p["gamma_in"], p["gamma_out"]
    gdiss, gdeph = p["gamma_diss"], p["gamma_deph"]
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError("open_chain_pump: N must be an integer >= 2")
    if J <= 0 or gin < 0 or gout < 0 or gin + gout == 0:
        raise ValueError("open_chain_pump: need J > 0 and rates >= 0, not both zero")
    _check_rate(gdiss, "open_chain_pump gamma_diss")
    _check_rate(gdeph, "open_chain_pump gamma_deph")
    labels = [str(k) for k in range(1, N + 1)]
    sites = tuple(SiteDescriptor(lbl, "qubit", 2) for lbl in labels)
    hoppings = tuple((labels[k], labels[k + 1], J) for k in range(N - 1))
    onsite = tuple((lbl, eps) for lbl, eps in
                   zip(labels, _noise_profile(p["noise"], J, N, p["seed"])))
    jumps: list[JumpProcess] = [Injection(labels[0], gin), Extraction(labels[-1], gout)]
    inner = labels[1:-1]
    if gdiss > 0:
        jumps.extend(Dissipation(lbl, gdiss) for lbl in inner)
    if gdeph > 0:
        jumps.extend(Dephasing(lbl, gdeph) for lbl in inner)
    spec = NetworkSpec(
        sites=sites, hoppings=hoppings, onsite=onsite, jumps=tuple(jumps),
        note="open uniform chain pumped at site 1 and drained at site N",
    )
    basis = spec.basis()
    meta = {
        "preset": "open_chain_pump", "params": dict(p),
        "noise": {"profile": p["noise"], "amplitude": J,
                  "phase_constant": NOISE_PHASE_CONSTANT, "seed": p["seed"],
                  "sites": labels},
        "convention": "chain amplitudes are direct matrix elements",
    }
    return PresetRun(spec, basis_state(basis, (0,) * N), _grid(40.0, 2001), meta)


_PRESETS: dict[str, tuple[dict, Any, str]] = {
    "two_site_transfer": (
        {"gamma": 1.0}, _two_site_transfer,
        "two qubits, incoherent transfer 1 -> 2 at rate gamma, start |1,0>"),
    "qubit_to_battery": (
        {"gamma": 0.5, "s": 1.0, "n_tot": 1}, _qubit_to_battery,
        "qubit feeding a spin-s battery; total number n_tot sets the rate"),
    "four_site_congestion": (
        {"J": 1.0, "gamma": 0.1, "gamma_b": 0.1, "excitations": 2}, _four_site_congestion,
        "dimer 1-2 (splitting J), transfers 2->3 (gamma) and 3->4 (gamma_b)"),
    "two_site_pump": (
        {"J": 2.0, "gamma_in": 0.2, "gamma_out": 0.3, "initial": "empty"}, _two_site_pump,
        "dimer with injection at 1 and extraction at 2"),
    "three_site_pump": (
        {"J": 2.0, "gamma_in": 0.2, "gamma_out": 0.3}, _three_site_pump,
        "uniform chain 1-2-3 with injection at 1 and extraction at 3"),
    "hop_transfer": (
        {"J": 2.0, "gamma": 1.0}, _hop_transfer,
        "dimer 1-2 (splitting J) with transfer 2->3, start |1,1,0>"),
    "lh1_ring": (
        {"N": 4, "t": 1.0, "J": 1.0, "delta": 0.12, "gamma": 0.3, "gamma_b": 0.1,
         "gamma_diss": 0.0, "gamma_deph": 0.0, "battery_dim": 3, "excitations": 2,
         "noise": "cosine", "seed": 0, "energy_unit": "meV"}, _lh1_ring,
        "dimerized ring + central site + reaction center (+ optional spin battery)"),
    "open_chain_pump": (
        {"N": 6, "J": 1.0, "gamma_in": 0.2, "gamma_out": 0.3, "gamma_diss": 0.0,
         "gamma_deph": 0.0, "noise": "none", "seed": 0}, _open_chain_pump,
        "open chain with injection at site 1 and extraction at site N"),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def _lookup(name: str) -> tuple[dict, Any, str]:
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; valid: {preset_names()}")
    return _PRESETS[name]


def preset_defaults(name: str) -> dict:
    return dict(_lookup(name)[0])


def preset_description(name: str) -> str:
    return _lookup(name)[2]


def preset(name: str, /, **overrides: Any) -> PresetRun:
    """Resolve a preset by name; keyword overrides replace its defaults."""
    defaults, builder, _ = _lookup(name)
    return builder(_merge(defaults, overrides, name))
