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
    _operator_triplet,
    basis_state,
    dicke_state,
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

# Bytes the dense operators of a network may take: 16 D**2 each for H, every L and
# every L^dag L, the products in K = H - (i/2) sum L^dag L of S = -i I (x) K + i
# conj(K) (x) I + sum conj(L) (x) L. lh1_ring N = 8 (D = 3072, five operators) takes 755 MB.
DENSE_OPERATOR_BUDGET = 2 * 1024**3


def _check_rate(rate: float, what: str) -> None:
    # compared, not np.isfinite: a Python int past 2**63 is no NumPy number
    if not 0 <= rate <= sys.float_info.max:
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
            if not abs(amp) <= sys.float_info.max:
                raise ValueError(f"hopping amplitude {amp} not finite")
        for lbl, eps in self.onsite:
            need(lbl, "onsite term")
            if not abs(eps) <= sys.float_info.max:
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
    # what a value that passes the test is converted to where it is used
    cast: Callable[[Any], Any] = lambda v: v

    def where(self, what: str, test: Callable[[Any], bool]) -> "_Leaf":
        """A narrower leaf: this one's test, then test."""
        return _Leaf(what, lambda v: self.test(v) and test(v), self.cast)

    def or_null(self) -> "_Leaf":
        """This leaf, or None."""
        return _Leaf(f"{self.what}, or null", lambda v: v is None or self.test(v),
                     lambda v: v if v is None else self.cast(v))


# Schema nodes: a _Leaf is what a value must be, its test and the conversion
# of a value that passes (an int for a whole number, say); a _List checks
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
# True and False are not numbers here, nor are NumPy's booleans; NumPy's real
# scalars are, for Python callers. A whole number may be written 3 or 3.0
_NUMBER = _Leaf("a finite number",
                lambda v: isinstance(v, (int, float, np.integer, np.floating))
                and not isinstance(v, bool) and abs(v) <= sys.float_info.max)
_WHOLE = _NUMBER.where("a whole number", lambda v: float(v).is_integer())._replace(cast=int)
_POSITIVE = _NUMBER.where("a finite number above 0", lambda v: v > 0)
_NONNEGATIVE = _NUMBER.where("a finite number not below 0", lambda v: v >= 0)
_NATURAL = _WHOLE.where("a whole number not below 0", lambda v: v >= 0)
# a dataclass field's annotation: the leaf that checks and converts it
_FIELD_TYPES = {"str": _TEXT, "int": _WHOLE, "float": _NUMBER._replace(cast=float)}


def _fields_node(cls, **first: _Leaf) -> _Map:
    """A mapping of the keys first and then cls's fields, every one required."""
    keys = {**first, **{f.name: _FIELD_TYPES[f.type] for f in fields(cls)}}
    return _Map(keys, tuple(keys))


def _from_fields(key: str, cls, entry: Mapping):
    """cls of a checked entry, each field converted to the type it is annotated with."""
    return _named(key, cls, **{f.name: _FIELD_TYPES[f.type].cast(entry[f.name])
                               for f in fields(cls)})


def _one_of(*names: str) -> _Leaf:
    """A string that is one of names."""
    return _TEXT.where(f"one of {', '.join(names)}", lambda v: v in names)


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
    """Hermitian Hamiltonian matrix of the hopping and onsite terms.

    Each hopping a -> b with amplitude amp adds amp v at (r, c) and
    amp conj(v) at (c, r) for every nonzero v at (r, c) of lower_a raise_b,
    and each onsite energy eps adds eps n at the diagonal, term by term in
    declaration order: the same sums as a dense accumulation of
    amp (T + T^dag) and eps N, bit for bit.
    """
    basis = basis or spec.basis()
    D = basis.dimension
    H = np.zeros((D, D), dtype=complex)
    for a, b, amp in spec.hoppings:
        rows, cols, vals = _operator_triplet(basis, {a: "lower", b: "raise"})
        # a term lowers a, its adjoint raises a: the two never share an entry,
        # and the values are real, so conj(v) = v
        term = amp * vals
        H[rows, cols] += term
        H[cols, rows] += term
    for lbl, eps in spec.onsite:
        rows, cols, vals = _operator_triplet(basis, {lbl: "number"})
        H[rows, cols] += eps * vals
    return H


def build_jump_operators(spec: NetworkSpec, basis: ProductBasis | None = None) -> list[np.ndarray]:
    """Jump operators in declaration order, rates folded in as sqrt(rate)."""
    basis = basis or spec.basis()
    D = basis.dimension
    ops = []
    for j in spec.jumps:
        rows, cols, vals = _operator_triplet(
            basis, {j.source: "lower", j.target: "raise"} if isinstance(j, Transfer)
            else {j.site: j.op_kind})
        L = np.zeros((D, D), dtype=complex)
        L[rows, cols] = math.sqrt(j.rate) * vals
        ops.append(L)
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


def _grid(t_max: float, samples: int) -> np.ndarray:
    return np.linspace(0.0, t_max, samples)


# Display convention for the exactly solvable networks: the coupling J quoted
# by a preset is the level splitting of the isolated two-site problem, so the
# single-excitation matrix element is J/2. The spectral calibration in the
# validate command measures this (see its report and each preset's metadata).
_SPLITTING = {"convention": (
    "hopping matrix element = J/2 (J is the two-site level splitting); "
    "frequency formulas quoting sqrt(4J^2 - ...) refer to twice the "
    "generator's imaginary pair"
)}

# A builder takes a preset's checked parameters and returns its network, its
# initial state, its default output grid and the metadata it adds to
# "preset" and "params". It checks only what involves two parameters.


def _pump_rates(p: dict) -> tuple[float, float]:
    if p["gamma_in"] == p["gamma_out"] == 0:
        raise ValueError("params.gamma_in and params.gamma_out must not both be 0")
    return p["gamma_in"], p["gamma_out"]


def _two_site_transfer(p: dict):
    spec = NetworkSpec(
        sites=(SiteDescriptor("1", "qubit", 2), SiteDescriptor("2", "qubit", 2)),
        jumps=(Transfer("1", "2", p["gamma"]),),
        note="incoherent two-qubit transfer, exactly solvable entrywise",
    )
    return spec, basis_state(spec.basis(), (1, 0)), _grid(5.0 / p["gamma"], 501), {}


def _qubit_to_battery(p: dict):
    gamma, s, n_tot = p["gamma"], p["s"], p["n_tot"]
    dim = round(2 * s + 1)
    if n_tot > dim:
        raise ValueError(f"params.n_tot must be at most 2 s + 1 = {dim}, got {n_tot}")
    spec = NetworkSpec(
        sites=(SiteDescriptor("q", "qubit", 2), SiteDescriptor("b", "spin", dim)),
        jumps=(Transfer("q", "b", gamma),),
        note="qubit charging a finite spin battery at an occupation-dependent rate",
    )
    occ = (1, n_tot - 1) if n_tot >= 1 else (0, 0)
    geff = gamma * n_tot * (dim - n_tot)
    t_max = 5.0 / geff if geff > 0 else 5.0 / gamma
    return (spec, basis_state(spec.basis(), occ), _grid(t_max, 501),
            {"effective_rate": geff})


def _four_site_congestion(p: dict):
    spec = NetworkSpec(
        sites=tuple(SiteDescriptor(str(k), "qubit", 2) for k in range(1, 5)),
        hoppings=(("1", "2", p["J"] / 2),),
        jumps=(Transfer("2", "3", p["gamma"]), Transfer("3", "4", p["gamma_b"])),
        note="coherent dimer feeding a two-step incoherent cascade",
    )
    occ = (1, 1, 0, 0) if p["excitations"] == 2 else (1, 0, 0, 0)
    return spec, basis_state(spec.basis(), occ), _grid(100.0, 1001), _SPLITTING


def _two_site_pump(p: dict):
    gin, gout = _pump_rates(p)
    spec = NetworkSpec(
        sites=(SiteDescriptor("1", "qubit", 2), SiteDescriptor("2", "qubit", 2)),
        hoppings=(("1", "2", p["J"] / 2),),
        jumps=(Injection("1", gin), Extraction("2", gout)),
        note="coherent dimer pumped at one end and drained at the other",
    )
    occ = {"empty": (0, 0), "site1": (1, 0), "site2": (0, 1)}[p["initial"]]
    return spec, basis_state(spec.basis(), occ), _grid(40.0, 2001), _SPLITTING


def _three_site_pump(p: dict):
    gin, gout = _pump_rates(p)
    spec = NetworkSpec(
        sites=tuple(SiteDescriptor(str(k), "qubit", 2) for k in (1, 2, 3)),
        hoppings=(("1", "2", p["J"] / 2), ("2", "3", p["J"] / 2)),
        jumps=(Injection("1", gin), Extraction("3", gout)),
        note="uniform three-site chain pumped at one end and drained at the other",
    )
    return spec, basis_state(spec.basis(), (0, 0, 0)), _grid(40.0, 2001), _SPLITTING


def _hop_transfer(p: dict):
    spec = NetworkSpec(
        sites=tuple(SiteDescriptor(str(k), "qubit", 2) for k in (1, 2, 3)),
        hoppings=(("1", "2", p["J"] / 2),),
        jumps=(Transfer("2", "3", p["gamma"]),),
        note="coherent dimer with one excitation hopped off to a sink qubit",
    )
    return (spec, basis_state(spec.basis(), (1, 1, 0)), _grid(10.0 / p["gamma"], 1001),
            _SPLITTING)


def _noise(p: dict, amplitude: float, sites: list[str]) -> tuple[list[float], dict]:
    """The diagonal noise of p on sites, and its metadata."""
    kind, seed = p["noise"], p["seed"]
    if kind == "uniform":
        # default_rng(None) would draw a fresh profile on every run
        if seed is None:
            raise ValueError("params.seed must be an integer for uniform noise, got None")
        eps = uniform_noise(amplitude, len(sites), seed)
    else:
        eps = cosine_noise(amplitude, len(sites)) if kind == "cosine" else [0.0] * len(sites)
    return eps, {"profile": kind, "amplitude": amplitude,
                 "phase_constant": NOISE_PHASE_CONSTANT, "seed": seed, "sites": sites}


def _lh1_ring(p: dict):
    N, t_hop, delta, battery_dim = p["N"], p["t"], p["delta"], p["battery_dim"]
    gdiss, gdeph = p["gamma_diss"], p["gamma_deph"]
    ring = [f"r{j}" for j in range(1, N + 1)]
    sites = [SiteDescriptor(lbl, "qubit", 2) for lbl in ring]
    sites.append(SiteDescriptor("c", "qubit", 2))
    sites.append(SiteDescriptor("rc", "qubit", 2))
    if battery_dim is not None:
        sites.append(SiteDescriptor("bat", "spin", battery_dim))

    unit = p["energy_unit"]
    scale = {"meV": 1.0 / HBAR_MEV_PS, "internal": 1.0}[unit]

    hoppings = []
    for j in range(1, N + 1):
        a, b = ring[j - 1], ring[j % N]
        # dimerized bond j: t (1 + delta (-1)^j)
        hoppings.append((a, b, scale * t_hop * (1 + delta * (-1) ** j)))
    for lbl in ring:
        hoppings.append((lbl, "c", scale * p["J"]))

    eps, noise = _noise(p, t_hop, ring)
    onsite = [(lbl, scale * e) for lbl, e in zip(ring, eps)]

    jumps: list[JumpProcess] = [Transfer("c", "rc", p["gamma"])]
    if battery_dim is not None:
        jumps.append(Transfer("rc", "bat", p["gamma_b"]))
    if gdiss > 0:
        jumps.extend(Dissipation(lbl, gdiss) for lbl in ring)
    if gdeph > 0:
        jumps.extend(Dephasing(lbl, gdeph) for lbl in ring)

    spec = NetworkSpec(
        sites=tuple(sites), hoppings=tuple(hoppings), onsite=tuple(onsite),
        jumps=tuple(jumps),
        note="dimerized antenna ring feeding a reaction-center qubit and battery",
    )
    initial = _named("params.excitations", dicke_state, spec.basis(), ring, p["excitations"])
    return spec, initial, _grid(40.0, 401), {
        "energy_conversion": {"unit": unit, "hbar_meV_ps": HBAR_MEV_PS,
                              "scale_applied": scale},
        "noise": noise,
        "convention": "ring bond amplitudes and spoke J are direct matrix elements",
    }


def _open_chain_pump(p: dict):
    gin, gout = _pump_rates(p)
    N, J, gdiss, gdeph = p["N"], p["J"], p["gamma_diss"], p["gamma_deph"]
    labels = [str(k) for k in range(1, N + 1)]
    eps, noise = _noise(p, J, labels)
    jumps: list[JumpProcess] = [Injection(labels[0], gin), Extraction(labels[-1], gout)]
    inner = labels[1:-1]
    if gdiss > 0:
        jumps.extend(Dissipation(lbl, gdiss) for lbl in inner)
    if gdeph > 0:
        jumps.extend(Dephasing(lbl, gdeph) for lbl in inner)
    spec = NetworkSpec(
        sites=tuple(SiteDescriptor(lbl, "qubit", 2) for lbl in labels),
        hoppings=tuple((labels[k], labels[k + 1], J) for k in range(N - 1)),
        onsite=tuple(zip(labels, eps)), jumps=tuple(jumps),
        note="open uniform chain pumped at site 1 and drained at site N",
    )
    return spec, basis_state(spec.basis(), (0,) * N), _grid(40.0, 2001), {
        "noise": noise, "convention": "chain amplitudes are direct matrix elements"}


# The most sites a chain or ring preset takes. The dense budget refuses far
# fewer (N = 13 on the chain, 10 on the ring, at the defaults); this bound only
# keeps the refusal cheap and D short enough to print.
_MAX_SITES = 1000
_SITES = _WHOLE.where(f"a whole number from 2 to {_MAX_SITES}", lambda v: 2 <= v <= _MAX_SITES)
_NOISE = _one_of("cosine", "uniform", "none")
_PUMP = {"J": (2.0, _POSITIVE), "gamma_in": (0.2, _NONNEGATIVE), "gamma_out": (0.3, _NONNEGATIVE)}


class _Preset(NamedTuple):
    build: Callable[[dict], tuple]
    description: str
    # each parameter's default and the leaf that checks a value given for it
    params: dict[str, tuple[Any, _Leaf]]


_PRESETS = {
    "two_site_transfer": _Preset(
        _two_site_transfer, "two qubits, incoherent transfer 1 -> 2 at rate gamma, start |1,0>",
        {"gamma": (1.0, _POSITIVE)}),
    "qubit_to_battery": _Preset(
        _qubit_to_battery, "qubit feeding a spin-s battery; total number n_tot sets the rate",
        {"gamma": (0.5, _POSITIVE),
         # 2 s + 1 is the battery's dimension, a finite whole number
         "s": (1.0, _NUMBER.where("a half-integer not below 1/2",
                                  lambda v: v >= 0.5 and float(2 * v).is_integer())),
         "n_tot": (1, _NATURAL)}),
    "four_site_congestion": _Preset(
        _four_site_congestion,
        "dimer 1-2 (splitting J), transfers 2->3 (gamma) and 3->4 (gamma_b)",
        {"J": (1.0, _POSITIVE), "gamma": (0.1, _NONNEGATIVE), "gamma_b": (0.1, _NONNEGATIVE),
         "excitations": (2, _WHOLE.where("1 or 2", lambda v: v in (1, 2)))}),
    "two_site_pump": _Preset(
        _two_site_pump, "dimer with injection at 1 and extraction at 2",
        {**_PUMP, "initial": ("empty", _one_of("empty", "site1", "site2"))}),
    "three_site_pump": _Preset(
        _three_site_pump, "uniform chain 1-2-3 with injection at 1 and extraction at 3", _PUMP),
    "hop_transfer": _Preset(
        _hop_transfer, "dimer 1-2 (splitting J) with transfer 2->3, start |1,1,0>",
        {"J": (2.0, _POSITIVE), "gamma": (1.0, _POSITIVE)}),
    "lh1_ring": _Preset(
        _lh1_ring, "dimerized ring + central site + reaction center (+ optional spin battery)",
        {"N": (4, _SITES.where(f"an even whole number from 2 to {_MAX_SITES}",
                               lambda v: v % 2 == 0)),
         "t": (1.0, _POSITIVE), "J": (1.0, _NONNEGATIVE),
         "delta": (0.12, _NUMBER.where("a finite number from 0 to below 1",
                                       lambda v: 0 <= v < 1)),
         "gamma": (0.3, _NONNEGATIVE), "gamma_b": (0.1, _NONNEGATIVE),
         "gamma_diss": (0.0, _NONNEGATIVE), "gamma_deph": (0.0, _NONNEGATIVE),
         "battery_dim": (3, _WHOLE.where("a whole number not below 2",
                                         lambda v: v >= 2).or_null()),
         "excitations": (2, _NATURAL), "noise": ("cosine", _NOISE),
         "seed": (0, _NATURAL.or_null()), "energy_unit": ("meV", _one_of("meV", "internal"))}),
    "open_chain_pump": _Preset(
        _open_chain_pump, "open chain with injection at site 1 and extraction at site N",
        {"N": (6, _SITES), "J": (1.0, _POSITIVE), "gamma_in": (0.2, _NONNEGATIVE),
         "gamma_out": (0.3, _NONNEGATIVE), "gamma_diss": (0.0, _NONNEGATIVE),
         "gamma_deph": (0.0, _NONNEGATIVE), "noise": ("none", _NOISE),
         "seed": (0, _NATURAL.or_null())}),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def _lookup(name: str) -> _Preset:
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; valid: {preset_names()}")
    return _PRESETS[name]


def preset_defaults(name: str) -> dict:
    return {key: default for key, (default, _) in _lookup(name).params.items()}


def preset_description(name: str) -> str:
    return _lookup(name).description


def _parameters(name: str, params: Mapping[str, Any]) -> dict:
    """The defaults of preset name, each replaced by its value in params.

    Each value in params is checked by its parameter's leaf, and an unknown
    key is refused; every error is a ValueError that names params.<key>. A
    whole-number parameter comes as an int (or None), any other as given.
    """
    declared = _lookup(name).params
    _walk(_Map({key: leaf for key, (_, leaf) in declared.items()}),
          params, "params", "parameters")
    return {key: leaf.cast(params[key]) if key in params else default
            for key, (default, leaf) in declared.items()}


def preset(name: str, /, **params: Any) -> PresetRun:
    """Resolve a preset by name; keyword parameters replace its defaults."""
    p = _parameters(name, params)
    spec, initial, times, meta = _lookup(name).build(p)
    return PresetRun(spec, initial, times, {"preset": name, "params": p, **meta})
