"""Time evolution and steady states of Lindblad generators.

The generator acts as the column-stacked sparse superoperator S,
assembled in NumPy as canonical CSR arrays: each Kronecker term from the
nonzeros of its two factors among H, the jump operators L and the
products L^dag L, and the entries of all terms added up by their position
in one keyed sum. No module here imports SciPy: the products with S are
the engine's own, on S stored as padded rows.

Propagation has one path, whatever the method or the recorded output. It
first finds the basis states that the rows and columns of the initial
state's support reach in the sparsity pattern of H, every L and every
L^dag L, and assembles S only on the block of vec(rho) those states span.
In that block's sparsity graph it finds the entries the initial state can
reach. Every other entry has zero derivative for all time, so both
integrators, fixed-step fourth-order Runge-Kutta and the action of the
matrix exponential (the truncated Taylor action of Al-Mohy and Higham,
one per output gap), run exactly on that block of S, stored as padded
rows for its products. Each jump of the models here shifts total
occupation by a fixed amount, so the block stays inside the
occupation-difference sectors the initial state touches, pumped and lossy
runs included. Observables and invariants are read from the
reachable entries through index maps built once per run: the diagonal,
each entry's mirror, the recorded coherences and the connected components
of the basis states, over which rho is block diagonal. Only
snapshots are scattered into the full density matrix. The graph searches
step a frontier with gathers and scatters over the edge arrays, and
connected components come from min-label propagation.

Steady states split the entries of vec(rho) into the weakly connected
components of the whole sparsity graph of S and take each block's null
space by a dense NumPy SVD, in one pass under the dense budget. Their
hermitian parts are found on the entries of the blocks that hold a null
vector, through the recorder's position map; only the state and
directions are scattered to D x D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from lindnet import model
from lindnet.hilbert import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    ProductBasis,
    PureState,
    check_density,
)

__all__ = [
    "PROPAGATION_HERMITICITY_TOL",
    "InvariantViolation",
    "LindbladGenerator",
    "PropagationConfig",
    "Trajectory",
    "SteadyStateResult",
    "propagate",
    "steady_states",
]

# Construction-time hermiticity is held to HERMITICITY_TOL; integration is
# allowed to drift up to this looser bound before a run is declared invalid.
PROPAGATION_HERMITICITY_TOL = 1e-9

# Relative size below which steady_states counts a singular value as zero.
_ZERO_TOL = 1e-10

# theta_m of Al-Mohy and Higham (2011): the largest ||tA/s||_1 at which m
# Taylor terms per step keep the backward error below 2**-53. m <= 30 is
# from Higham's Functions of Matrices, Table A.3; the rest from their Table 3.1.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}
_M_MAX = 55
# the largest p with p(p - 1) <= m_max + 1
_P_MAX = 8
# condition (3.13) with one vector and a one-column norm estimate: up to this
# ||tA||_1, estimating ||A^p||_1 would cost more products than it could save
_NORM_ONLY = 2 * _P_MAX * (_P_MAX + 3) * _THETA[_M_MAX] / _M_MAX
_UNIT_ROUNDOFF = 2.0 ** -53
# A gap is refused when its Runge-Kutta substep count, or its ||tA||_1
# (about ten Taylor products per unit), is not finite or exceeds the largest
# integer a float holds exactly: such a run could never finish.
_MAX_STEPS = 2.0 ** 53


class InvariantViolation(RuntimeError):
    """A propagated state broke a trace, hermiticity, or positivity bound.

    point names the sweep point it happened at, as path=value, when there
    is one; note, when there is one, says what may have caused it.
    """

    def __init__(self, invariant: str, time: float, value: float, bound: float,
                 point: str = "", note: str = ""):
        super().__init__(
            (f"{point}: " if point else "")
            + f"{invariant} invariant violated at t={time:.6g}: "
            f"measured {value:.3e}, bound {bound:.3e}"
            + (f"; {note}" if note else ""))
        self.invariant = invariant
        self.time = time
        self.value = value
        self.bound = bound
        self.point = point
        self.note = note

    def __reduce__(self):
        # rebuild from the fields; args holds only the message, so the
        # default reduction cannot cross a sweep worker's process boundary
        return (type(self), (self.invariant, self.time, self.value, self.bound,
                             self.point, self.note))


StateLike = Union[DensityMatrix, PureState, np.ndarray]


@dataclass(frozen=True)
class LindbladGenerator:
    """Hamiltonian plus jump operators, with the basis kept for observables."""

    hamiltonian: np.ndarray
    jump_operators: tuple[np.ndarray, ...] = ()
    basis: ProductBasis | None = None

    def __post_init__(self):
        H = np.asarray(self.hamiltonian, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"hamiltonian must be square, got shape {H.shape}")
        if not np.isfinite(H).all():
            raise ValueError("hamiltonian has an entry that is not finite")
        scale = max(1.0, float(np.abs(H).max()) if H.size else 1.0)
        if not float(np.abs(H - H.conj().T).max()) <= HERMITICITY_TOL * scale:
            raise ValueError("hamiltonian is not hermitian")
        jumps = tuple(np.asarray(L, dtype=complex) for L in self.jump_operators)
        for k, L in enumerate(jumps):
            if L.shape != H.shape:
                raise ValueError(
                    f"jump operator shape {L.shape} does not match hamiltonian {H.shape}")
            if not np.isfinite(L).all():
                raise ValueError(f"jump operator {k} has an entry that is not finite")
        if self.basis is not None and self.basis.dimension != H.shape[0]:
            raise ValueError(
                f"basis dimension {self.basis.dimension} does not match "
                f"hamiltonian dimension {H.shape[0]}")
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "jump_operators", jumps)

    @classmethod
    def from_network(cls, spec: model.NetworkSpec) -> "LindbladGenerator":
        basis = spec.basis()
        return cls(model.build_hamiltonian(spec, basis),
                   tuple(model.build_jump_operators(spec, basis)), basis)

    @property
    def dimension(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def _dissipator_products(self) -> tuple[np.ndarray, ...]:
        return tuple(L.conj().T @ L for L in self.jump_operators)


class _Csr(NamedTuple):
    """A square sparse matrix as CSR arrays.

    _superoperator_csr builds them canonical: sorted column indices, no
    stored zeros. _Padded stores one as padded rows for its products.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """Row index of each stored entry."""
        return np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))

    def adjoint(self) -> "_Csr":
        """The conjugate transpose, canonical when this matrix is."""
        n = self.indptr.size - 1
        return _summed(self.indices * n + self.rows, self.data.conj(), n)


def _summed(keys: np.ndarray, vals: np.ndarray, n: int) -> _Csr:
    """The canonical n x n matrix that sums the values vals at the keys row * n + col.

    Each key's values are added one by one in their given order, from +0, as
    a plain sum of terms adds them; exact zeros of the sums are dropped.
    """
    keys, slot = np.unique(keys, return_inverse=True)
    sums = np.zeros(keys.size, dtype=vals.dtype)
    # an overflow is reported by the caller that can name its cause
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(sums, slot, vals)
    keep = sums != 0
    keys = keys[keep]
    return _Csr(sums[keep], keys % n, np.searchsorted(keys, np.arange(n + 1) * n))


class _Padded:
    """A square sparse matrix as K padded rows, K its longest row, for products.

    Slot k of row i holds the row's k-th stored entry, in column order: its
    column in cols[k, i] and its value in vals[k, i]. A shorter row is padded
    with slots that hold 0 and point at the row itself, an index always in
    range whatever the row's entries. S @ x sums each row
    over its slots in order, starting from 0, as SciPy's CSR kernel does, so
    real products agree with it bit for bit. A complex product may differ
    in the last bit where NumPy's vector loop fuses a multiply and an add.
    """

    def __init__(self, S: _Csr):
        self.nnz = S.data.size
        n = S.indptr.size - 1
        # the largest column sum of absolute values
        self.norm = float(np.bincount(S.indices, np.abs(S.data), n).max())
        rows = S.rows
        slot = np.arange(self.nnz) - S.indptr[rows]
        width = int(np.diff(S.indptr).max(initial=0))
        self.cols = np.tile(np.arange(n), (width, 1))
        self.cols[slot, rows] = S.indices
        self.vals = np.zeros((width, n), dtype=S.data.dtype)
        self.vals[slot, rows] = S.data

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduce(x[self.cols] * self.vals, axis=0, initial=0)


def _nonzeros(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero entries of a dense matrix."""
    rows, cols = np.nonzero(M)
    return rows, cols, M[rows, cols]


def _kron(a, b, d: int, scale: complex = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """scale * kron(A, B) of two d x d factors, from the nonzeros of each.

    Returns the keys row * d**2 + col of its stored entries, and their values.
    """
    rows = (a[0][:, None] * d + b[0]).ravel()
    cols = (a[1][:, None] * d + b[1]).ravel()
    return rows * (d * d) + cols, (a[2][:, None] * b[2]).ravel() * scale


def _superoperator_csr(gen: LindbladGenerator, states: np.ndarray | None = None) -> _Csr:
    """Column-stacked superoperator: d vec(rho)/dt = S vec(rho).

    S = -i I (x) H + i H^T (x) I plus, per jump, conj(L) (x) L - I (x) L^dag L / 2
    - (L^dag L)^T (x) I / 2. Each Kronecker term is built from the nonzeros
    of its two factors, and the entries of all terms, in that order, go
    through one keyed sum (_summed), exact zeros dropped. With a sorted
    array of basis states T, only the block on the entries rho[T[p], T[q]],
    indexed p + len(T) * q, is assembled from H, every L and every L^dag L
    cut to T x T. When S maps that block into itself, each of its entries
    sums the same values in the same order as the full assembly's, so the
    two agree bit for bit. Raises ValueError when an entry is not finite.
    """
    H = gen.hamiltonian
    jumps = gen.jump_operators
    products = gen._dissipator_products
    if states is not None:
        cut = np.ix_(states, states)
        H = H[cut]
        jumps = [L[cut] for L in jumps]
        products = [LdL[cut] for LdL in products]
    D = H.shape[0]
    eye = (np.arange(D), np.arange(D), np.ones(D, dtype=complex))
    rows, cols, vals = _nonzeros(H)
    terms = [_kron(eye, (rows, cols, vals), D, -1j), _kron((cols, rows, vals), eye, D, 1j)]
    for L, LdL in zip(jumps, products):
        # conj(L) (x) L from real products: NumPy may round a complex product
        # differently on its vector and scalar loops, so a complex kron of the
        # cut could differ in the last bit from the whole space's
        Lr, Li = _nonzeros(L.real), _nonzeros(L.imag)
        rows, cols, vals = _nonzeros(LdL)
        terms += [_kron(Lr, Lr, D), _kron(Li, Li, D), _kron(Lr, Li, D, 1j),
                  _kron(Li, Lr, D, -1j), _kron(eye, (rows, cols, vals), D, -0.5),
                  _kron((cols, rows, vals), eye, D, -0.5)]
    S = _summed(np.concatenate([keys for keys, _ in terms]),
                np.concatenate([vals for _, vals in terms]), D * D)
    if not np.isfinite(S.data).all():
        raise ValueError("the rates overflow the superoperator: "
                         "an entry of S is not finite")
    return S


@dataclass(frozen=True)
class PropagationConfig:
    """How to integrate and what to record.

    times is the output grid; the initial state is taken at times[0]. dt is
    the integrator substep cap for the Runge-Kutta method. coherences are
    (row, col) index pairs of the full density matrix to record. snapshots is
    'none', 'last', or 'all': which samples to keep as full density matrices.
    Whatever is recorded, propagate integrates only the entries of vec(rho)
    that the initial state's support reaches (see the module docstring).
    """

    times: np.ndarray
    dt: float = 1e-3
    method: str = "fixed_step_rk4"
    coherences: tuple[tuple[int, int], ...] = ()
    snapshots: str = "none"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a nonempty 1-D array")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise ValueError("dt must be a positive step size")
        if self.method not in ("fixed_step_rk4", "superoperator_expm"):
            raise ValueError(
                f"unknown method {self.method!r}; "
                "valid: fixed_step_rk4, superoperator_expm")
        if self.snapshots not in ("none", "last", "all"):
            raise ValueError("snapshots must be none, last, or all")
        pairs = tuple((int(i), int(j)) for i, j in self.coherences)
        object.__setattr__(self, "coherences", pairs)


@dataclass
class Trajectory:
    """Observables recorded on the output grid, indices aligned with times."""

    times: np.ndarray
    site_labels: tuple[str, ...]
    populations: np.ndarray          # (n_times, n_sites) mean occupations
    purity: np.ndarray
    purity_rate: np.ndarray
    trace: np.ndarray
    min_eigenvalue: np.ndarray
    hermiticity_defect: np.ndarray
    coherences: dict[tuple[int, int], np.ndarray]
    snapshots: list[np.ndarray]
    metadata: dict = field(default_factory=dict)

    def population(self, label: str) -> np.ndarray:
        try:
            k = self.site_labels.index(label)
        except ValueError:
            raise KeyError(f"no site labelled {label!r} in this trajectory") from None
        return self.populations[:, k]


def _as_density(gen: LindbladGenerator, state: StateLike) -> np.ndarray:
    if isinstance(state, PureState):
        # the projector of a unit ket is a density matrix by construction
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    elif isinstance(state, DensityMatrix):
        rho = state.matrix
    else:
        rho = np.asarray(state, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"state must be a square matrix, got shape {rho.shape}")
        check_density(rho)
    if rho.shape[0] != gen.dimension:
        raise ValueError(
            f"state dimension {rho.shape[0]} does not match generator {gen.dimension}")
    return np.array(rho, dtype=complex)


def _closure(src: np.ndarray, dst: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Mask of the nodes that the nodes of the start mask reach along the edges src -> dst.

    Breadth-first: one gather over the edges' sources and one scatter to
    their ends move the whole frontier a step.
    """
    seen = start.copy()
    frontier = start
    while frontier.any():
        reached = np.zeros_like(seen)
        reached[dst[frontier[src]]] = True
        frontier = reached & ~seen
        seen |= frontier
    return seen


def _weak_components(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, np.ndarray]:
    """Count and labels of the weakly connected components of a graph on n nodes.

    Components are numbered by their smallest node, as SciPy's
    connected_components(..., connection="weak") numbers them. Min-label
    propagation: each edge hooks the root of its larger end under the
    smaller root, and pointer jumping then points every node at its root,
    until no edge joins two roots. A root is the smallest node of its tree.
    """
    root = np.arange(n)
    while True:
        a, b = root[src], root[dst]
        low = np.minimum(a, b)
        hooked = root.copy()
        np.minimum.at(hooked, a, low)
        np.minimum.at(hooked, b, low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, root):
            break
        root = hooked
    first = root == np.arange(n)
    return int(first.sum()), (np.cumsum(first) - 1)[root]


def _grouped(labels: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable order that groups the items by label, and each item's place in its group.

    sizes[g] is the number of items labelled g.
    """
    order = np.argsort(labels, kind="stable")
    local = np.empty(labels.size, dtype=np.int64)
    local[order] = np.arange(labels.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return order, local


def _reachable_entries(S: _Csr, v0: np.ndarray) -> np.ndarray:
    """Sorted vec(rho) entries that the support of v0 reaches under S.

    An entry that no path reaches from the initial support has zero
    derivative for all time, so propagating only the returned entries is
    exact.
    """
    # S is canonical: its stored entries are its nonzeros, entry j feeding
    # entry i through S[i, j]
    return np.flatnonzero(_closure(S.indices, S.rows, v0 != 0))


def _reachable_states(gen: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    """Sorted basis states T that the rows and columns of rho's support reach.

    S sends rho[k, l] to rows i with H, L or L^dag L nonzero at [i, k] and
    to columns j with L nonzero at [j, l] or H, L^dag L nonzero at [l, j],
    so S maps the block T x T of vec(rho) into itself.
    """
    # H and L^dag L act on column kets through their transposes
    sym = gen.hamiltonian != 0
    for LdL in gen._dissipator_products:
        sym |= LdL != 0
    pattern = sym | sym.T
    for L in gen.jump_operators:
        pattern |= L != 0
    support = rho != 0
    dst, src = np.nonzero(pattern)
    return np.flatnonzero(_closure(src, dst, support.any(axis=0) | support.any(axis=1)))


def _cut(S: _Csr, sub: np.ndarray) -> _Csr:
    """S restricted to the rows and columns of the sorted entries sub."""
    pos = np.full(S.indptr.size - 1, -1)
    pos[sub] = np.arange(sub.size)
    rows, cols = pos[S.rows], pos[S.indices]
    keep = (rows >= 0) & (cols >= 0)
    return _Csr(S.data[keep], cols[keep],
                np.searchsorted(rows[keep], np.arange(sub.size + 1)))


def _reachable_block(gen: LindbladGenerator, rho: np.ndarray,
                     T: np.ndarray) -> tuple[_Csr, np.ndarray]:
    """The block of S on the vec(rho) entries R that the support of rho reaches, and R.

    T is _reachable_states(gen, rho); R is found, and S cut to it, from the
    assembly of the block T x T alone.
    """
    D = gen.dimension
    S = _superoperator_csr(gen, T)
    sub = _reachable_entries(S, rho[np.ix_(T, T)].ravel(order="F"))
    return _cut(S, sub), T[sub % T.size] + D * T[sub // T.size]


def _positions(R: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Position of each vec(rho) entry in the sorted entries R, or -1 where R lacks it."""
    pos = np.searchsorted(R, entries)
    inside = pos < R.size
    inside[inside] = R[pos[inside]] == entries[inside]
    return np.where(inside, pos, -1)


class _Recorder:
    """Accumulates observables while the reachable block of vec(rho) marches forward.

    S is the superoperator restricted to the sorted vec(rho) entries R, as
    _Padded rows. Every observable and invariant is read from the block
    vector through index maps built here once: the positions of the
    diagonal entries, the position of each entry's mirror (l, k), the
    position of each recorded coherence, and the connected components of
    the basis states. Only snapshots are scattered into the full density
    matrix.
    """

    def __init__(self, gen: LindbladGenerator, config: PropagationConfig, S: _Padded,
                 R: np.ndarray):
        self.config = config
        self.S = S
        self.R = R
        self.dim = dim = gen.dimension
        rows, cols = R % dim, R // dim
        diag = np.flatnonzero(rows == cols)
        self.diag_pos, self.diag_state = diag, rows[diag]
        # position in R of each entry's mirror, and of each coherence; -1
        # points at the zero that pads the copy of the block vector
        self.mirror = _positions(R, cols + dim * rows)
        self.padded = np.zeros(R.size + 1, dtype=complex)
        self._components(rows, cols)
        n = config.times.size
        basis = gen.basis
        if basis is not None:
            self.site_labels = tuple(s.label for s in basis.sites)
            self.occ = basis.occupation_table
        else:
            self.site_labels = ()
            self.occ = np.zeros((dim, 0))
        self.populations = np.zeros((n, len(self.site_labels)))
        self.purity = np.zeros(n)
        self.purity_rate = np.zeros(n)
        self.trace = np.zeros(n)
        self.min_eigenvalue = np.zeros(n)
        self.hermiticity_defect = np.zeros(n)
        for (i, j) in config.coherences:
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"coherence index pair {(i, j)} out of range")
        self.coherences = {pair: np.zeros(n, dtype=complex) for pair in config.coherences}
        self.coherence_pos = _positions(
            R, np.array([i + dim * j for i, j in config.coherences], dtype=np.int64))
        self.snapshots: list[np.ndarray] = []

    def _components(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Index maps for lambda_min: rho is block diagonal over the components.

        The graph on all D basis states has an edge k - l for each entry
        (k, l) of R; rho[k, l] = 0 between components, and a state that no
        entry touches is a 1 x 1 zero block, whose eigenvalue is 0.
        Components of equal size m are stacked into one (count, m, m) array,
        so each size costs one batched eigvalsh.
        """
        dim = self.dim
        _, label = _weak_components(dim, rows, cols)
        sizes = np.bincount(label)
        # local index of each state inside its component, in sorted order
        local = _grouped(label, sizes)[1]
        comp = label[rows]
        self.blocks = []
        for m in np.unique(sizes):
            members = np.flatnonzero(sizes == m)
            slot = np.empty(sizes.size, dtype=np.int64)
            slot[members] = np.arange(members.size)
            pos = np.flatnonzero(sizes[comp] == m)
            dest = (slot[comp[pos]] * m + local[rows[pos]]) * m + local[cols[pos]]
            self.blocks.append((members.size, int(m), pos, dest))
        self.positivity_blocks = {"count": np.unique(comp).size, "largest": int(sizes[comp].max())}

    def record(self, k: int, t: float, v: np.ndarray) -> None:
        """Store observables for slot k; raise InvariantViolation on a broken bound.

        Nothing here keeps a reference to v, which the integrator updates in place.
        """
        cfg = self.config
        dim = self.dim
        padded = self.padded
        padded[:-1] = v
        defect = float(np.abs(padded[:-1] - padded[self.mirror].conj()).max())
        self.hermiticity_defect[k] = defect
        # the diagonal scattered into a length-D vector sums as rho.trace() does
        diag = np.zeros(dim, dtype=complex)
        diag[self.diag_state] = v[self.diag_pos]
        tr = diag.sum()
        self.trace[k] = tr.real
        if self.occ.shape[1]:
            self.populations[k] = diag.real @ self.occ
        self.purity[k] = float(np.vdot(v, v).real)
        self.purity_rate[k] = 2.0 * float(np.vdot(v, self.S @ v).real)
        lam_min = math.inf
        for count, m, pos, dest in self.blocks:
            block = np.zeros(count * m * m, dtype=complex)
            block[dest] = v[pos]
            block = block.reshape(count, m, m)
            try:
                low = float(np.linalg.eigvalsh(
                    0.5 * (block + block.conj().transpose(0, 2, 1))).min())
            except np.linalg.LinAlgError:
                # no convergence on a non-finite block
                low = math.nan
            # min() would drop a NaN
            if low < lam_min or math.isnan(low):
                lam_min = low
        self.min_eigenvalue[k] = lam_min
        for series, pos in zip(self.coherences.values(), self.coherence_pos):
            series[k] = padded[pos]
        want_snap = cfg.snapshots == "all" or (
            cfg.snapshots == "last" and k == cfg.times.size - 1)
        if want_snap:
            full = np.zeros(dim * dim, dtype=complex)
            full[self.R] = v
            self.snapshots.append(full.reshape(dim, dim, order="F"))
        # each bound is written so that NaN breaks it
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise InvariantViolation("trace", t, float(abs(tr - 1.0)), TRACE_TOL)
        if not defect <= PROPAGATION_HERMITICITY_TOL:
            raise InvariantViolation("hermiticity", t, defect,
                                     PROPAGATION_HERMITICITY_TOL)
        if not lam_min >= -POSITIVITY_TOL:
            raise InvariantViolation("positivity", t, lam_min, -POSITIVITY_TOL)

    def finish(self, states: int, step: "_RungeKutta | _TaylorAction") -> Trajectory:
        """The trajectory, with the run's invariant extremes and the stepper's work counters."""
        meta = {
            "method": self.config.method,
            "dt": step.dt,
            "dimension": self.dim,
            "reachable": {"entries": int(self.R.size), "of": self.dim * self.dim},
            "states": states,
            "nnz": int(self.S.nnz),
            "rk4_substeps": step.substeps,
            "rk4_step_norm": step.step_norm,
            # the integrator's, and one per sample for the purity rate
            "matvecs": step.products + self.config.times.size,
            "expm_actions": step.actions,
            "positivity_blocks": self.positivity_blocks,
            "max_trace_error": float(np.abs(self.trace - 1.0).max()),
            "min_eigenvalue_floor": float(self.min_eigenvalue.min()),
            "max_hermiticity_defect": float(self.hermiticity_defect.max()),
        }
        return Trajectory(
            times=self.config.times.copy(), site_labels=self.site_labels,
            populations=self.populations, purity=self.purity,
            purity_rate=self.purity_rate, trace=self.trace,
            min_eigenvalue=self.min_eigenvalue,
            hermiticity_defect=self.hermiticity_defect,
            coherences=self.coherences, snapshots=self.snapshots, metadata=meta)


class _RungeKutta:
    """v -> v advanced over a gap by classic fourth-order Runge-Kutta steps.

    A gap is split into the fewest equal steps no longer than dt. For
    dv/dt = S v the four-stage step equals the nested (Horner) form
    v + hS(v + (h/2)S(v + (h/3)S(v + (h/4)S v))): still four products with
    S, but one work vector updated in place instead of four stage vectors.
    substeps counts the steps taken, products the products with S, and
    step_norm the largest h ||S||_1 of a step. It bounds h |lambda| for every
    eigenvalue lambda of S; the steps stay bounded only while each h lambda
    lies in RK4's stability region, which reaches about 2.8 along the
    negative real axis.
    """

    # the Taylor action's counter, for the stepper-neutral metadata
    actions = 0

    def __init__(self, S: _Padded, dt: float):
        self.S = S
        self.dt = dt
        self.substeps = 0
        self.products = 0
        self.step_norm = 0.0

    def __call__(self, v: np.ndarray, gap: float) -> np.ndarray:
        """v advanced in place by the gap, and returned."""
        S, dt = self.S, self.dt
        if not gap / dt <= _MAX_STEPS:
            raise ValueError(f"gap {gap!r}: the substep count at dt {dt!r}, "
                             f"{gap / dt:.6g}, is not finite or above 2**53")
        n = max(1, math.ceil(gap / dt))
        h = gap / n
        self.step_norm = max(self.step_norm, h * S.norm)
        h2, h3, h4 = h / 2.0, h / 3.0, h / 4.0
        for _ in range(n):
            w = S @ v
            w *= h4
            w += v
            w = S @ w
            w *= h3
            w += v
            w = S @ w
            w *= h2
            w += v
            w = S @ w
            w *= h
            v += w
        self.substeps += n
        self.products += 4 * n
        return v


class _TaylorAction:
    """v -> exp(t S) v for the gaps t of one run, by truncated Taylor series.

    Algorithm 3.2 of Al-Mohy and Higham (SIAM J. Sci. Comput. 33 (2011) 488)
    on one vector. S is shifted once by mu = trace(S)/n to A = S - mu I, the
    keyed sum (_summed) of S's entries and -mu on every diagonal entry. A
    gap t is split into s steps of at most m Taylor terms, and a step ends
    early once two successive terms fall below the unit roundoff of the
    partial sum. (m, s) come from the paper's fragment 3.1 with m_max = 55,
    once per distinct gap. Unless ||tA||_1 satisfies condition (3.13), the
    fragment needs d_p = ||A^p||_1^(1/p) for p = 2 ... p_max + 1; these are
    estimated once per run by Hager's one-column 1-norm estimator (Higham and
    Tisseur, SIAM J. Matrix Anal. Appl. 21 (2000) 1185), run from two fixed
    starting vectors, so that it draws no random numbers. products counts
    every product with A or its adjoint, and actions the gaps taken.
    """

    # the Runge-Kutta stepper's, for the stepper-neutral metadata
    dt = math.nan
    substeps = 0
    step_norm = 0.0

    def __init__(self, S: _Csr):
        self.n = n = S.indptr.size - 1
        rows = S.rows
        # the whole diagonal, zeros included: a pairwise sum rounds by its length
        diag = np.zeros(n, dtype=complex)
        on = rows == S.indices
        diag[rows[on]] = S.data[on]
        self.mu = complex(diag.sum()) / n
        # A = S - mu I: S's entries and -mu on the diagonal, in one keyed sum
        self.csr = _summed(np.concatenate([rows * n + S.indices, np.arange(n) * (n + 1)]),
                           np.concatenate([S.data, np.full(n, -self.mu)]), n)
        self.A = _Padded(self.csr)
        self.norm = self.A.norm
        self.products = 0
        self.actions = 0
        self._d: dict[int, float] = {}
        self._steps: dict[float, tuple[int, int]] = {}

    def _power(self, M, x: np.ndarray, p: int) -> np.ndarray:
        """M^p x, counted as p products."""
        for _ in range(p):
            x = M @ x
        self.products += p
        return x

    def _power_norm(self, p: int, AH: _Padded) -> float:
        """An estimate of ||A^p||_1, a lower bound; AH is the adjoint of A.

        The larger of two runs of Hager's estimator, from e/n and from Higham's
        alternating vector x_i = (-1)^i (1 + i/(n-1)) scaled to unit 1-norm
        (LAPACK's xLACON). From e/n alone the estimate can stall far below the
        norm, since e sums each column of A^p and the columns of a closed
        system's commutator block largely cancel: on a three-level block it
        read a quarter of ||A^2||_1, and 0 when every row of H has the same
        sum, so that every row and column of the block sums to zero.
        """
        n = self.n
        alt = np.linspace(1.0, 2.0, n) * (-1.0) ** np.arange(n) + 0j
        return max(self._hager(p, AH, np.full(n, 1.0 / n, dtype=complex)),
                   self._hager(p, AH, alt / np.abs(alt).sum()))

    def _hager(self, p: int, AH: _Padded, x: np.ndarray) -> float:
        """Hager's estimate of ||A^p||_1 from x, ||x||_1 = 1, in at most five iterations.

        The first iteration always goes on to the adjoint product, with
        sign(0) = 1: when every row of A^p sums to zero, A^p x = 0 says
        nothing about A^p.
        """
        A = self.A
        n = self.n
        est, last = 0.0, -1
        for k in range(5):
            y = self._power(A, x, p)
            size = np.abs(y)
            total = float(size.sum())
            if k > 0 and total <= est:
                break
            est = total
            z = self._power(AH, np.divide(y, size, out=np.ones(n, dtype=complex),
                                          where=size > 0), p)
            j = int(np.argmax(np.abs(z)))
            if j == last or abs(z[j]) <= np.vdot(z, x).real:
                break
            last = j
            x = np.zeros(n, dtype=complex)
            x[j] = 1.0
        return est

    def _parameters(self, t: float) -> tuple[int, int]:
        """Taylor degree m and step count s for the gap t: the paper's fragment 3.1."""
        norm = t * self.norm
        if not norm <= _MAX_STEPS:
            raise ValueError(f"gap {t!r}: the 1-norm of the gap times the generator, "
                             f"{norm:.6g}, is not finite or above 2**53; the "
                             f"generator's own 1-norm, {self.norm:.6g}, is set by "
                             "its largest rates and energies")
        if norm == 0.0:
            return 0, 1
        if norm <= _NORM_ONLY:
            # ties go to the smaller m
            return min(((m, math.ceil(norm / theta)) for m, theta in _THETA.items()),
                       key=lambda ms: ms[0] * ms[1])
        if not self._d:
            AH = _Padded(self.csr.adjoint())
            self._d = {p: self._power_norm(p, AH) ** (1.0 / p) for p in range(2, _P_MAX + 2)}
        best = None
        for p in range(2, _P_MAX + 1):
            alpha = t * max(self._d[p], self._d[p + 1])
            for m, theta in _THETA.items():
                if m >= p * (p - 1) - 1:
                    s = math.ceil(alpha / theta)
                    if best is None or m * s < best[0] * best[1]:
                        best = m, s
        return best[0], max(best[1], 1)

    def __call__(self, v: np.ndarray, t: float) -> np.ndarray:
        """exp(t S) v as a new array."""
        if t not in self._steps:
            self._steps[t] = self._parameters(t)
        m, s = self._steps[t]
        self.actions += 1
        A = self.A
        eta = np.exp(t * self.mu / s)
        f = v
        for _ in range(s):
            f = f.copy()
            c1 = float(np.abs(v).max())
            for j in range(m):
                v = A @ v
                v *= t / (s * (j + 1))
                self.products += 1
                c2 = float(np.abs(v).max())
                f += v
                if c1 + c2 <= _UNIT_ROUNDOFF * float(np.abs(f).max()):
                    break
                c1 = c2
            f *= eta
            v = f
        return f


def propagate(gen: LindbladGenerator, state: StateLike,
              config: PropagationConfig) -> Trajectory:
    """Integrate the master equation and record observables on config.times.

    The reachable block is stored as _Padded rows for its products.
    """
    rho = _as_density(gen, state)
    T = _reachable_states(gen, rho)
    block, R = _reachable_block(gen, rho, T)
    S = _Padded(block)
    v = rho.ravel(order="F")[R]
    rec = _Recorder(gen, config, S, R)
    times = config.times
    # a state that overflows breaks the audit, which names the failure
    with np.errstate(over="ignore", invalid="ignore"):
        rec.record(0, times[0], v)
        step = (_TaylorAction(block) if config.method == "superoperator_expm"
                else _RungeKutta(S, config.dt))
        try:
            for k in range(1, times.size):
                v = step(v, float(times[k] - times[k - 1]))
                rec.record(k, times[k], v)
        except InvariantViolation as exc:
            if isinstance(step, _TaylorAction):
                raise
            raise InvariantViolation(
                exc.invariant, exc.time, exc.value, exc.bound,
                note=f"the largest RK4 step times ||S||_1, rk4_step_norm, was "
                     f"{step.step_norm:.6g}; a smaller dt may keep the steps stable"
            ) from None
    return rec.finish(T.size, step)


@dataclass
class SteadyStateResult:
    """Stationary solutions of the generator.

    state is the minimum-norm trace-one element of the stationary subspace;
    when the stationary state is unique this is that state. directions are
    traceless hermitian unit matrices spanning the remaining freedom, so
    every stationary density matrix has the form state + sum_m a_m
    directions[m] for real a_m (subject to positivity). blocks gives the
    count of weakly connected blocks of the superoperator that were solved,
    the entries of the largest, and the D*D entries of all of them.
    """

    state: np.ndarray
    directions: tuple[np.ndarray, ...]
    multiplicity: int
    zero_eigenvalues: np.ndarray
    residual: float
    blocks: dict[str, int]


def steady_states(gen: LindbladGenerator) -> SteadyStateResult:
    """All stationary solutions, solved block by block on the sparse superoperator.

    The entries of vec(rho) split into the weakly connected components of
    the sparsity graph of S; S maps each component into itself, so its null
    space is the direct sum of the null spaces of its diagonal blocks. Each
    block is solved densely by SVD, in label order: a right singular vector
    is a null vector when its singular value is at most _ZERO_TOL = 1e-10
    times max(1, sqrt(|S|_1 |S|_inf)), a bound on every singular value of S.
    A block of more than sqrt(DENSE_OPERATOR_BUDGET / 128) entries (4096)
    raises ValueError before any dense work.

    The blocks that hold a null vector are closed under the adjoint, since
    S(X^dag) = S(X)^dag. On their sorted entries E each null vector X gives
    the hermitian parts (X + X^dag)/2 and (X - X^dag)/2i, reading entry
    (k, l) of X^dag from the mirror (l, k) in E. The real and imaginary
    parts of the entries in E are isometric real coordinates for them, in
    which one SVD gives a real orthonormal basis of the hermitian stationary
    matrices and the trace is the sum over E's diagonal entries.
    """
    D = gen.dimension
    n = D * D
    S = _superoperator_csr(gen)
    rows = S.rows
    n_blocks, labels = _weak_components(n, S.indices, rows)
    sizes = np.bincount(labels)
    largest = int(sizes.max())
    # the SVD of a complex m x m block adds about 8 times its 16 m**2 bytes:
    # 6.8, 6.6 and 6.5 times, measured at m = 924, 1,512 and 2,500 on one BLAS thread
    cap = math.isqrt(model.DENSE_OPERATOR_BUDGET // (8 * 16))
    if largest > cap:
        raise ValueError(
            f"largest block of the superoperator has {largest} entries, "
            f"above the cap of {cap}")

    # every singular value of a block is at most ||S||_2 <= sqrt(|S|_1 |S|_inf), so each
    # block is settled at once; relative to S's largest entry, no rate overflows the sums
    size = np.abs(S.data)
    top = float(size.max(initial=1.0))
    col, row = (float(np.bincount(k, size / top, n).max()) for k in (S.indices, rows))
    zero = _ZERO_TOL * top * max(1.0 / top, math.sqrt(col * row))
    # grouped in stable label order, each block's entries come sorted, and so
    # do the stored entries of S in its rows; local is an entry's place in its block
    order, local = _grouped(labels, sizes)
    ends = np.cumsum(sizes)
    stored = np.argsort(labels[rows], kind="stable")
    stored_ends = np.cumsum(np.bincount(labels[rows], minlength=n_blocks))
    held = []
    zero_eigenvalues = []
    for idx, k in zip(np.split(order, ends[:-1]), np.split(stored, stored_ends[:-1])):
        block = np.zeros((idx.size, idx.size), dtype=complex)
        block[local[rows[k]], local[S.indices[k]]] = S.data[k]
        U, sv, Vh = np.linalg.svd(block)
        null = sv <= zero
        if not null.any():
            continue
        # columns of N are null vectors; B N = U diag(sv) on them
        N = Vh[null].conj().T
        zero_eigenvalues.append(np.linalg.eigvals(N.conj().T @ (U[:, null] * sv[null])))
        held.append((idx, N.T))
    if not held:
        raise ValueError("generator has no stationary mode within tolerance")
    zero_eigenvalues = np.concatenate(zero_eigenvalues)

    # row r of X is null vector r on E; a mirror outside E reads the last column's zero
    entries = np.concatenate([idx for idx, _ in held])
    E = np.sort(entries)
    X = np.zeros((sum(len(null) for _, null in held), E.size + 1), dtype=complex)
    top = 0
    for idx, null in held:
        X[top:top + len(null), _positions(E, idx)] = null
        top += len(null)
    X_adj = X[:, _positions(E, E // D + D * (E % D))].conj()
    X = X[:, :-1]
    parts = np.concatenate([0.5 * (X + X_adj), (X - X_adj) / 2j])
    M = np.concatenate([parts.real, parts.imag], axis=1)
    _, sv, Vt = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(sv > _ZERO_TOL * max(1.0, sv[0])))
    if rank == 0:
        raise ValueError("stationary subspace has no hermitian element")
    span = Vt[:rank]

    traces = span[:, :E.size][:, E % D == E // D].sum(axis=1)
    tnorm2 = float(traces @ traces)
    if tnorm2 <= _ZERO_TOL:
        raise ValueError("stationary subspace carries no trace; "
                         "no normalizable steady state")
    g_coords = (traces / tnorm2) @ span
    kernel = span - np.outer(traces, g_coords)
    _, sv2, Vt2 = np.linalg.svd(kernel, full_matrices=False)
    keep = sv2 > _ZERO_TOL * max(1.0, sv2[0] if sv2.size else 1.0)
    coords = np.vstack([g_coords, Vt2[keep]])
    full = np.zeros((len(coords), n), dtype=complex)
    full[:, E] = coords[:, :E.size] + 1j * coords[:, E.size:]
    # row-major D x D slices, transposed: each is a column-stacked vec(rho)
    state, *directions = full.reshape(-1, D, D).transpose(0, 2, 1)

    terms = S.data * state.ravel(order="F")[S.indices]
    residual = float(np.abs(np.bincount(rows, terms.real, n)
                            + 1j * np.bincount(rows, terms.imag, n)).max())
    return SteadyStateResult(state=state, directions=tuple(directions),
                             multiplicity=rank,
                             zero_eigenvalues=zero_eigenvalues,
                             residual=residual,
                             blocks={"count": int(n_blocks), "largest": largest, "of": n})
