"""Tensor-product Hilbert space for networks of qubits and finite spins.

Sites are declared in a fixed order; the flat basis index is the mixed-radix
number whose most significant digit is the first declared site, with local
occupation ascending 0..d-1 within each site. All operators and states carry a
reference to the basis they live in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, prod
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "SiteDescriptor",
    "ProductBasis",
    "PureState",
    "DensityMatrix",
    "check_density",
    "basis_state",
    "dicke_state",
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "POSITIVITY_TOL",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9

OP_KINDS = ("lower", "raise", "number", "identity")


@dataclass(frozen=True)
class SiteDescriptor:
    """One network site: a qubit (dim 2) or a spin of dimension 2s+1."""

    label: str
    kind: str
    dim: int

    def __post_init__(self):
        if not self.label:
            raise ValueError("site label must be non-empty")
        if self.kind not in ("qubit", "spin"):
            raise ValueError(f"unknown site kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError(f"site {self.label!r}: dimension must be >= 2")
        if self.kind == "qubit" and self.dim != 2:
            raise ValueError(f"qubit site {self.label!r} must have dim 2")

    @property
    def spin(self) -> float:
        """Spin quantum number s with dim = 2s + 1."""
        return (self.dim - 1) / 2


@dataclass(frozen=True)
class ProductBasis:
    """Ordered tensor product of sites with a mixed-radix index map.

    The first declared site is the most significant digit of the flat index,
    and local occupations ascend 0..d-1.
    """

    sites: tuple[SiteDescriptor, ...]

    def __post_init__(self):
        if not self.sites:
            raise ValueError("basis needs at least one site")
        labels = [s.label for s in self.sites]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate site labels in {labels}")

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.sites)

    @cached_property
    def dimension(self) -> int:
        return prod(self.dims)

    @cached_property
    def occupation_table(self) -> np.ndarray:
        """(dimension, n_sites) array: occupation of each site in each basis ket."""
        table = np.stack(np.unravel_index(np.arange(self.dimension), self.dims), axis=1)
        table.flags.writeable = False
        return table

    def site_position(self, label: str) -> int:
        for k, s in enumerate(self.sites):
            if s.label == label:
                return k
        raise ValueError(f"unknown site {label!r}")

    def index(self, occupations: Sequence[int]) -> int:
        """Flat index of the product ket with the given occupations."""
        if len(occupations) != len(self.sites):
            raise ValueError(
                f"expected {len(self.sites)} occupations, got {len(occupations)}"
            )
        for eta, site in zip(occupations, self.sites):
            if not 0 <= eta < site.dim:
                raise ValueError(
                    f"occupation {eta} out of range for site {site.label!r}"
                )
        return int(np.ravel_multi_index(tuple(occupations), self.dims))


def _local_operator(site: SiteDescriptor, op_kind: str) -> np.ndarray:
    d = site.dim
    if op_kind == "identity":
        return np.eye(d, dtype=complex)
    if op_kind == "number":
        return np.diag(np.arange(d, dtype=float)).astype(complex)
    if op_kind in ("lower", "raise"):
        low = np.zeros((d, d), dtype=complex)
        if site.kind == "qubit":
            low[0, 1] = 1.0
        else:
            s = site.spin
            for eta in range(d - 1):
                # S- |eta+1> = sqrt((eta+1)(2s-eta)) |eta>
                low[eta, eta + 1] = np.sqrt((eta + 1) * (2 * s - eta))
        return low if op_kind == "lower" else low.conj().T
    raise ValueError(f"unknown op_kind {op_kind!r}; valid: {OP_KINDS}")


def _operator_triplet(basis: ProductBasis,
                      ops: Mapping[str, str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of the nonzeros of a product of single-site operators.

    ops maps site labels to op kinds: 'lower', 'raise', 'number' or
    'identity' (on a site of dimension 2s+1, sz is number - s). Operators on
    distinct sites commute. Each local operator has at most one nonzero per
    column, so column c of the product has at most one: each factor moves
    its site's digit of c to the row of its nonzero, and the real values
    multiply in site order, as the Kronecker chain multiplies them. No two
    entries share a column.
    """
    occ = basis.occupation_table
    cols = np.arange(basis.dimension)
    rows = cols.copy()
    vals = np.ones(basis.dimension)
    for pos, kind in sorted((basis.site_position(lbl), kind) for lbl, kind in ops.items()):
        local = _local_operator(basis.sites[pos], kind).real
        # the row of each column's nonzero; an empty column reads row 0 and value 0
        to = np.abs(local).argmax(axis=0)
        digit = occ[:, pos]
        rows += (to[digit] - digit) * prod(basis.dims[pos + 1:])
        vals = vals * local[to, np.arange(local.shape[1])][digit]
    keep = vals != 0
    return rows[keep], cols[keep], vals[keep]


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over a ProductBasis."""

    amplitudes: np.ndarray
    basis: ProductBasis

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, expected ({self.basis.dimension},)"
            )
        norm = np.linalg.norm(amp)
        # written so that NaN breaks it
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-12")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.basis)


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix over a ProductBasis, validated by check_density on construction."""

    matrix: np.ndarray
    basis: ProductBasis

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        D = self.basis.dimension
        if m.shape != (D, D):
            raise ValueError(f"matrix has shape {m.shape}, expected ({D}, {D})")
        check_density(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def check_density(m: np.ndarray) -> None:
    """Raise ValueError unless the square matrix m is a density matrix.

    Hermiticity within 1e-12 (max entry), trace within 1e-9 of one, smallest
    eigenvalue of the hermitian part >= -1e-9.
    """
    # each bound is written so that NaN breaks it
    herm_dev = np.abs(m - m.conj().T).max()
    if not herm_dev <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not hermitian: Hermiticity deviation "
                         f"{herm_dev:.3e} beyond {HERMITICITY_TOL}")
    tr = m.trace()
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    if not min_eig >= -POSITIVITY_TOL:
        raise ValueError(f"smallest eigenvalue {min_eig:.3e} below -{POSITIVITY_TOL}")


def basis_state(basis: ProductBasis, occupations: Sequence[int]) -> PureState:
    """Product ket with the given site occupations."""
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[basis.index(occupations)] = 1.0
    return PureState(amp, basis)


def dicke_state(basis: ProductBasis, site_labels: Sequence[str], n: int) -> PureState:
    """Symmetric n-excitation state over the named qubit sites.

    Equal amplitudes binomial(N, n)^(-1/2) on every configuration with n of the
    N named sites occupied; all other sites empty.
    """
    positions = [basis.site_position(lbl) for lbl in site_labels]
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate site labels")
    for p in positions:
        if basis.sites[p].kind != "qubit":
            raise ValueError(f"dicke_state needs qubit sites, {basis.sites[p].label!r} is not")
    N = len(positions)
    if not isinstance(n, (int, np.integer)) or not 0 <= n <= N:
        raise ValueError(f"excitation count {n!r} out of range 0..{N}")
    amp = np.zeros(basis.dimension, dtype=complex)
    weight = 1.0 / np.sqrt(comb(N, n))
    for chosen in combinations(positions, n):
        occ = [0] * len(basis.sites)
        for p in chosen:
            occ[p] = 1
        amp[basis.index(occ)] = weight
    return PureState(amp, basis)

