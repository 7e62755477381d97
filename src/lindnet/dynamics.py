"""Time evolution and steady states of Lindblad generators.

The generator acts as the column-stacked sparse superoperator
S = -i I (x) K + i conj(K) (x) I + sum conj(L) (x) L over the jumps L, with
the effective Hamiltonian K = H - (i/2) sum L^dag L, assembled in NumPy as
canonical CSR arrays: each Kronecker term from the nonzeros of its two
factors, and the entries of all terms added up by their position in one
keyed sum. No module here imports SciPy: the products with S are the
engine's own, on S stored as padded rows.

Propagation has one path, whatever the method or the recorded output. It
first finds the basis states that the rows and columns of the initial
state's support reach in the sparsity pattern of K and every L, and
assembles S only on the block of vec(rho) those states span.
In that block's sparsity graph it finds the entries R the initial state
and its transpose can reach, a set closed under mirrors (k, l) -> (l, k).
Every other entry has zero derivative for all time. S keeps rho
hermitian, so one stepper integrates only the half U of R with k <= l,
exactly: each product takes S's rows U, as padded rows, over v_U and its
conjugate. It advances v_U by Horner evaluations of polynomials in a
matrix, which a planner chooses once per distinct gap of the output grid.
The method picks the planner. Fixed-step fourth-order Runge-Kutta takes
the c-th power of its four-stage step T_4(hS), c steps at a time while
c h ||S||_1 <= 1, truncated where its tail falls below 2**-53 (c = 1 is
the classic step); the action of the matrix exponential takes the
truncated Taylor steps of Al-Mohy and Higham in A = S - mu I, mu real,
one action per gap. Each jump of the models here shifts total occupation
by a fixed amount, so the block stays inside the occupation-difference
sectors the initial state touches, pumped and lossy runs included.
Observables and invariants are read from v_U through index maps built
once per run: the diagonal, the recorded coherences and the connected
components of the basis states, over which rho is block diagonal. Only
snapshots are scattered into the full density matrix. The graph searches
step a frontier with gathers and scatters over the edge arrays, and
connected components come from min-label propagation.

Steady states split the entries of vec(rho) into blocks closed under S and
under mirrors, and settle each block's null space densely, in one pass
under the dense budget: one inverse certifies most blocks, a mirror block
inherits its partner's result, and only what no certificate settles is
factored by SVD. A block that is its own mirror is settled in real
coordinates, where S is a real operator and every null vector a hermitian
matrix; a mirror pair's null vectors give their hermitian combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence, Union

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
# A gap is refused when its Runge-Kutta substep count, or its ||tA||_1
# (about ten Taylor products per unit), is not finite or exceeds the largest
# integer a float holds exactly: such a run could never finish.
_MAX_STEPS = 2.0 ** 53
# The Runge-Kutta stepper takes c steps of h as one chunk while c h ||S||_1
# stays at or below this: then at most 18 terms of T_4(hS)^c are kept
_CHUNK_THETA = 1.0


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
        skew = float(np.abs(H - H.conj().T).max())
        if not skew <= HERMITICITY_TOL * scale:
            raise ValueError("hamiltonian is not hermitian")
        if skew:  # only an exactly hermitian H keeps the trace; halve first, no overflow
            H = 0.5 * H + 0.5 * H.conj().T
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
    def _effective_hamiltonian(self) -> np.ndarray:
        K = self.hamiltonian.copy()
        # an overflow is reported by the assembly's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            for L in self.jump_operators:
                K -= 0.5j * (L.conj().T @ L)
        return K


class _Csr(NamedTuple):
    """A sparse matrix as CSR arrays, square but for the rows of a _Half.

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

    @property
    def norm(self) -> float:
        """||S||_1, the largest column sum of absolute values."""
        return float(np.bincount(self.indices, np.abs(self.data), self.indptr.size - 1).max())

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
    """Sparse rows as K padded rows, K the longest row, for products.

    Slot k of row i holds the row's k-th stored entry, in column order: its
    column in cols[k, i] and its value in vals[k, i]. A shorter row is padded
    with slots that hold 0 and point at the row's own index, always in range
    of the vectors it multiplies. S @ x sums each row
    over its slots in order, starting from 0, as SciPy's CSR kernel does, so
    real products agree with it bit for bit. A complex product may differ
    in the last bit where NumPy's vector loop fuses a multiply and an add.
    """

    def __init__(self, S: _Csr):
        n = S.indptr.size - 1
        rows = S.rows
        slot = np.arange(S.data.size) - S.indptr[rows]
        width = int(np.diff(S.indptr).max(initial=0))
        self.cols = np.tile(np.arange(n), (width, 1))
        self.cols[slot, rows] = S.indices
        self.vals = np.zeros((width, n), dtype=S.data.dtype)
        self.vals[slot, rows] = S.data

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduce(x[self.cols] * self.vals, axis=0, initial=0)


class _Half(_Padded):
    """The rows U of a block M on the sorted entries R of vec(rho), rho being D x D.

    U holds R's entries (k, l) with k <= l, and R their mirrors (l, k). When
    M keeps rho hermitian, M @ v_U is one product over [v_U, conj(v_U)], in
    which a column outside U points at its mirror's conjugate. The product is
    real-linear; on exactly hermitian rho each row sums the terms of M's
    _Padded row, in the same order.
    """

    def __init__(self, M: _Csr, R: np.ndarray, D: int):
        upper = R % D <= R // D
        rank = np.cumsum(upper) - 1
        mirror = _positions(R, _mirror(R, D))
        slot = np.where(upper, rank, np.count_nonzero(upper) + rank[mirror])
        super().__init__(_cut(M, np.where(upper, rank, -1), slot))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return super().__matmul__(np.concatenate([v, v.conj()]))


def _mirror(entries: np.ndarray, D: int) -> np.ndarray:
    """The mirror l + D k of each entry k + D l of vec(rho), rho being D x D."""
    return entries // D + D * (entries % D)


def _nonzeros(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero entries of a dense matrix."""
    rows, cols = np.nonzero(M)
    return rows, cols, M[rows, cols]


def _kron(a, b, d: int, scale: complex) -> tuple[np.ndarray, np.ndarray]:
    """scale * kron(A, B) of two d x d factors, from the nonzeros of each.

    Returns the keys row * d**2 + col of its stored entries, and their values.
    """
    rows = (a[0][:, None] * d + b[0]).ravel()
    cols = (a[1][:, None] * d + b[1]).ravel()
    # an overflow is reported by the assembly's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        return rows * (d * d) + cols, (a[2][:, None] * b[2]).ravel() * scale


def _superoperator_csr(gen: LindbladGenerator, states: np.ndarray | None = None) -> _Csr:
    """Column-stacked superoperator: d vec(rho)/dt = S vec(rho).

    S = -i I (x) K + i conj(K) (x) I + sum over jumps of conj(L) (x) L, with
    the effective Hamiltonian K = H - (i/2) sum L^dag L. Each Kronecker term
    is built from the nonzeros of its two factors, and the entries of all
    terms, in that order, go through one keyed sum (_summed), exact zeros
    dropped. With a sorted array of basis states T, only the block on the
    entries rho[T[p], T[q]], indexed p + len(T) * q, is assembled from K and
    every L cut to T x T. When S maps that block into itself, each of its
    entries sums the same values in the same order as the full assembly's,
    so the two agree bit for bit. Raises ValueError, before any term is
    formed, when the terms' entries would take more than the dense budget to
    assemble, and after, when an entry of S is not finite.
    """
    K = gen._effective_hamiltonian
    jumps = gen.jump_operators
    if states is not None:
        cut = np.ix_(states, states)
        K = K[cut]
        jumps = [L[cut] for L in jumps]
    D = K.shape[0]
    eye = (np.arange(D), np.arange(D), np.ones(D, dtype=complex))
    factors = [(eye, _nonzeros(K), -1j), (_nonzeros(K.conj()), eye, 1j)]
    for L in jumps:
        # conj(L) (x) L from real products: NumPy may round a complex product
        # differently on its vector and scalar loops, so a complex kron of the
        # cut could differ in the last bit from the whole space's
        Lr, Li = _nonzeros(L.real), _nonzeros(L.imag)
        factors += [(Lr, Lr, 1.0), (Li, Li, 1.0), (Lr, Li, 1j), (Li, Lr, -1j)]
    # the assembly peaks at about 97 bytes per term entry: 96.2 to 96.3 measured with
    # tracemalloc on open_chain_pump at N = 7 to 10, 94.4 to 95.7 on lh1_ring N = 6
    count = sum(a[0].size * b[0].size for a, b, _ in factors)
    if 97 * count > model.DENSE_OPERATOR_BUDGET:
        raise ValueError(
            f"the Kronecker terms of the superoperator have {count} entries; assembling "
            f"them would take about {97 * count} bytes, above the budget of "
            f"{model.DENSE_OPERATOR_BUDGET} bytes")
    terms = [_kron(a, b, D, scale) for a, b, scale in factors]
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


def _reachable_states(gen: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    """Sorted basis states T that the rows and columns of rho's support reach.

    S = -i I (x) K + i conj(K) (x) I + sum conj(L) (x) L sends rho[k, l] to
    rows i with K or L nonzero at [i, k] and to columns j with K or L nonzero
    at [j, l], so S maps the block T x T of vec(rho) into itself. T is closed
    under K's pattern made symmetric, the pattern of H and every L^dag L.
    """
    pattern = gen._effective_hamiltonian != 0
    pattern |= pattern.T
    for L in gen.jump_operators:
        pattern |= L != 0
    support = rho != 0
    dst, src = np.nonzero(pattern)
    return np.flatnonzero(_closure(src, dst, support.any(axis=0) | support.any(axis=1)))


def _cut(S: _Csr, rows: np.ndarray, cols: np.ndarray) -> _Csr:
    """S's entries in the kept rows and columns, each renumbered to its position.

    rows[i] and cols[j] are the positions of row i and column j, -1 where
    dropped; the rows kept keep their order.
    """
    r, c = rows[S.rows], cols[S.indices]
    keep = (r >= 0) & (c >= 0)
    return _Csr(S.data[keep], c[keep], np.searchsorted(r[keep], np.arange(rows.max() + 2)))


def _reachable_block(gen: LindbladGenerator, rho: np.ndarray,
                     T: np.ndarray) -> tuple[_Csr, np.ndarray]:
    """The block of S on the vec(rho) entries R that the support of rho reaches, and R.

    T is _reachable_states(gen, rho); R is found, and S cut to it, from the
    assembly of the block T x T alone. Every entry outside R has zero
    derivative for all time, so propagating R alone is exact. Searched from
    rho and its transpose, R holds the mirror (l, k) of each entry (k, l).
    """
    D = gen.dimension
    n = T.size
    S = _superoperator_csr(gen, T)
    start = rho[np.ix_(T, T)] != 0
    # S is canonical: its stored entries are its nonzeros, entry j feeding
    # entry i through S[i, j]. S maps rho^dag to (S rho)^dag; the mirrors keep
    # R closed, as _Half needs, should rounding zero one entry of a pair of S
    reached = _closure(S.indices, S.rows, (start | start.T).ravel(order="F"))
    sub = np.flatnonzero(reached | reached.reshape(n, n).T.ravel())
    pos = np.full(n * n, -1)
    pos[sub] = np.arange(sub.size)
    return _cut(S, pos, pos), T[sub % n] + D * T[sub // n]


def _positions(R: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Position of each vec(rho) entry in the sorted entries R, or -1 where R lacks it."""
    pos = np.searchsorted(R, entries)
    inside = pos < R.size
    inside[inside] = R[pos[inside]] == entries[inside]
    return np.where(inside, pos, -1)


class _Recorder:
    """Fills the Trajectory traj while the half vector v_U of vec(rho) marches forward.

    U holds the sorted reachable entries (k, l) with k <= l, and rho[l, k] is
    conj(rho[k, l]); S is the superoperator's _Half rows on U. Every
    observable and invariant is written into traj from v_U through index
    maps built here once: the positions of the diagonal entries and of each
    recorded coherence, and the connected components of the basis states.
    Only snapshots are scattered into the full matrix.
    """

    def __init__(self, gen: LindbladGenerator, config: PropagationConfig, S: _Half,
                 U: np.ndarray):
        self.config = config
        self.S = S
        self.dim = dim = gen.dimension
        self.rows, self.cols = rows, cols = U % dim, U // dim
        diag = np.flatnonzero(rows == cols)
        self.diag_pos, self.diag_state = diag, rows[diag]
        # an entry off the diagonal stands for itself and its mirror in sums over R
        self.weight = np.where(rows == cols, 1.0, 2.0)
        self._components(rows, cols)
        basis = gen.basis
        # without a basis, a (D, 0) table: no sites, and an empty population row
        self.occ = np.zeros((dim, 0)) if basis is None else basis.occupation_table
        n = config.times.size
        self.traj = Trajectory(
            times=config.times.copy(),
            site_labels=() if basis is None else tuple(s.label for s in basis.sites),
            populations=np.zeros((n, self.occ.shape[1])), purity=np.zeros(n),
            purity_rate=np.zeros(n), trace=np.zeros(n), min_eigenvalue=np.zeros(n),
            hermiticity_defect=np.zeros(n),
            coherences={pair: np.zeros(n, dtype=complex) for pair in config.coherences},
            snapshots=[])
        # each coherence in R, read from (min, max) and conjugated below the diagonal
        pairs = self.traj.coherences
        pos = _positions(U, np.array([min(p) + dim * max(p) for p in pairs], dtype=np.int64))
        self.coherence_reads = [(series, q, i > j)
                                for ((i, j), series), q in zip(pairs.items(), pos) if q >= 0]

    def _components(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Index maps for lambda_min: rho is block diagonal over the components.

        The graph on all D basis states has an edge k - l for each entry
        (k, l) of U; rho[k, l] = 0 between components, and a state that no
        entry touches is a 1 x 1 zero block, whose eigenvalue is 0.
        Components of equal size m are stacked into one (count, m, m) array,
        so each size costs one batched eigvalsh of the upper triangle U fills.
        """
        dim = self.dim
        _, label = _weak_components(dim, rows, cols)
        sizes = np.bincount(label)
        # local index of each state inside its component, in sorted order
        local = _grouped(label, sizes)[1]
        comp = label[rows]
        self.blocks = []
        # the sizes present, ascending; np.unique would import numpy.ma
        for m in np.flatnonzero(np.bincount(sizes)):
            members = np.flatnonzero(sizes == m)
            slot = np.empty(sizes.size, dtype=np.int64)
            slot[members] = np.arange(members.size)
            pos = np.flatnonzero(sizes[comp] == m)
            dest = (slot[comp[pos]] * m + local[rows[pos]]) * m + local[cols[pos]]
            self.blocks.append((members.size, int(m), pos, dest))
        self.positivity_blocks = {"count": int(np.count_nonzero(np.bincount(comp))),
                                  "largest": int(sizes[comp].max())}

    def record(self, k: int, t: float, v: np.ndarray, step: _Stepper | None = None,
               defect: float | None = None) -> None:
        """Write slot k of traj; raise InvariantViolation, with step's note, on a broken bound.

        step is None for the initial state, which no step reached. The
        hermiticity defect is 2 max |Im rho[k, k]|, unless given. Nothing here
        keeps a reference to v, which the integrator updates in place.
        """
        cfg = self.config
        traj = self.traj
        dim = self.dim
        d = v[self.diag_pos]
        if defect is None:
            defect = 2.0 * float(np.abs(d.imag).max(initial=0.0))
        traj.hermiticity_defect[k] = defect
        # the diagonal scattered into a length-D vector sums as rho.trace() does
        diag = np.zeros(dim, dtype=complex)
        diag[self.diag_state] = d
        tr = diag.sum()
        traj.trace[k] = tr.real
        traj.populations[k] = diag.real @ self.occ
        weighted = self.weight * v
        traj.purity[k] = float(np.vdot(weighted, v).real)
        traj.purity_rate[k] = 2.0 * float(np.vdot(weighted, self.S @ v).real)
        lam_min = math.inf
        for count, m, pos, dest in self.blocks:
            block = np.zeros(count * m * m, dtype=complex)
            block[dest] = v[pos]
            try:
                low = float(np.linalg.eigvalsh(block.reshape(count, m, m), UPLO="U").min())
            except np.linalg.LinAlgError:
                # no convergence on a non-finite block
                low = math.nan
            # min() would drop a NaN
            if low < lam_min or math.isnan(low):
                lam_min = low
        traj.min_eigenvalue[k] = lam_min
        for series, pos, mirrored in self.coherence_reads:
            series[k] = v[pos].conjugate() if mirrored else v[pos]
        if cfg.snapshots == "all" or (cfg.snapshots == "last" and k == cfg.times.size - 1):
            full = np.zeros((dim, dim), dtype=complex)
            full[self.cols, self.rows] = v.conj()
            full[self.rows, self.cols] = v
            traj.snapshots.append(full)
        # each bound is written so that NaN breaks it
        if not abs(tr - 1.0) <= TRACE_TOL:
            name, value, bound = "trace", float(abs(tr - 1.0)), TRACE_TOL
        elif not defect <= PROPAGATION_HERMITICITY_TOL:
            name, value, bound = "hermiticity", defect, PROPAGATION_HERMITICITY_TOL
        elif not lam_min >= -POSITIVITY_TOL:
            name, value, bound = "positivity", lam_min, -POSITIVITY_TOL
        else:
            return
        raise InvariantViolation(name, t, value, bound,
                                 note=step.note.format_map(step.counters) if step else "")

    def finish(self, step: _Stepper, states: int, entries: int, nnz: int) -> Trajectory:
        """The trajectory, with the run's counts, invariant extremes and the stepper's counters."""
        self.traj.metadata = {
            "method": self.config.method,
            **step.counters,
            "dimension": self.dim,
            "reachable": {"entries": entries, "integrated": int(self.rows.size),
                          "of": self.dim * self.dim},
            "states": states,
            "nnz": nnz,
            # the integrator's, and one per sample for the purity rate
            "matvecs": step.products + self.config.times.size,
            "positivity_blocks": self.positivity_blocks,
            "max_trace_error": float(np.abs(self.traj.trace - 1.0).max()),
            "min_eigenvalue_floor": float(self.traj.min_eigenvalue.min()),
            "max_hermiticity_defect": float(self.traj.hermiticity_defect.max()),
        }
        return self.traj


def _horner_steps(M: _Padded, v: np.ndarray, a: Sequence[float], s: int,
                  eta: complex) -> np.ndarray:
    """v advanced in place by s steps of eta p(M) v, and returned.

    p(M) v = v + a_1 M(v + a_2 M(v + ... + a_m M v)) is evaluated in nested
    (Horner) form, m = len(a), with m products with M and one work vector:
    the polynomial sum_k c_k (hM)^k of c_0 = 1 and positive c_k takes the
    multipliers a_k = h c_k / c_(k-1). The degree-m Taylor polynomial T_m(hM)
    of exp(hM) takes a_k = h / k. For dv/dt = S v, the four-stage Runge-Kutta
    step is T_4(hS), and the Taylor action's is eta T_m(hA), A = S - mu I.
    """
    for _ in range(s):
        w = v
        for j in range(len(a) - 1, 0, -1):
            w = M @ w
            w *= a[j]
            w += v
        if a:
            w = M @ w
            w *= a[0]
            v += w
        if eta != 1:
            v *= eta
    return v


def _tail_degree(x: float) -> int:
    """The smallest m with sum_{k>m} x^k / k! <= 2**-53, for 0 <= x <= _CHUNK_THETA.

    The tails are summed from the smallest term up; the terms past k = 40
    are below 1/40!, about 1e-48, and left out.
    """
    terms = np.cumprod(np.concatenate(([1.0], x / np.arange(1.0, 41.0))))
    tails = np.cumsum(terms[::-1])[::-1]
    return int(np.argmax(tails[1:] <= 2.0 ** -53))


def _rk4_power(c: int, m: int) -> np.ndarray:
    """The coefficients c_0 ... c_m of T_4(z)^c, the c-th power of the Runge-Kutta step.

    Binary powering of c, each product cut to degree m, takes at most
    2 log2(c) products of m + 1 terms. Each c_k is at most c^k / k!, which
    stays finite for every c <= 2**53 at the degrees m <= 18 of a chunk.
    """
    power = np.array([1.0, 1.0, 1 / 2, 1 / 6, 1 / 24])[:m + 1]
    result = np.ones(1)
    while True:
        if c & 1:
            result = np.convolve(result, power)[:m + 1]
        c >>= 1
        if not c:
            return result
        power = np.convolve(power, power)[:m + 1]


# meta.json's stepper counters as a run starts, and as the method that does not count
# one leaves it: Runge-Kutta's dt, substeps and largest step norm, the expm actions
_NEUTRAL = {"dt": math.nan, "rk4_substeps": 0, "rk4_step_norm": 0.0, "expm_actions": 0}

# a gap's plan: chunks (multipliers, repeats, eta) for _horner_steps, what each take of
# the gap adds to the counters, and how many products planning it took
_Plan = tuple[list[tuple[tuple[float, ...], int, complex]], dict[str, float], int]


class _Stepper:
    """v -> v advanced in place over a gap, by the polynomial steps its planner plans.

    M is S for Runge-Kutta and A = S - mu I for the exponential. planner maps
    each distinct gap, once, to its _Plan. A take of a gap runs the plan's
    chunks through _horner_steps and adds its counts to counters, which
    start from _NEUTRAL; of rk4_step_norm the largest is kept. products
    counts every product, planning's included. note, formatted with the
    counters, says what may have made a state break a bound.
    """

    def __init__(self, M: _Padded, planner: Callable[[float], _Plan], note: str = "",
                 **counters):
        self.M = M
        self.planner = planner
        self.note = note
        self.counters = {**_NEUTRAL, **counters}
        self.products = 0
        self._plans: dict[float, _Plan] = {}

    def __call__(self, v: np.ndarray, gap: float) -> np.ndarray:
        """v advanced in place by the gap, and returned."""
        if gap not in self._plans:
            self._plans[gap] = self.planner(gap)
            self.products += self._plans[gap][2]
        chunks, counts, _ = self._plans[gap]
        for key, value in counts.items():
            old = self.counters[key]
            self.counters[key] = max(old, value) if key == "rk4_step_norm" else old + value
        for a, repeats, eta in chunks:
            self.products += len(a) * repeats
            _horner_steps(self.M, v, a, repeats, eta)
        return v


def _rk4_planner(norm: float, dt: float) -> Callable[[float], _Plan]:
    """Plans of classic fourth-order Runge-Kutta steps, for a block S with ||S||_1 = norm.

    A gap is split into the fewest n equal steps h no longer than dt. For
    dv/dt = S v, c steps are exactly the polynomial T_4(hS)^c, so they are
    taken c at a time, c the largest count up to n with c h ||S||_1 <= theta
    = _CHUNK_THETA (the last chunk takes what is left of n). Each chunk is
    one _horner_steps evaluation of T_4(hS)^c cut to the smallest degree m
    with sum_{k>m} (c h ||S||_1)^k / k! <= 2**-53: T_4's coefficients are
    nonnegative and at most exp's, so those of T_4^c are at most c^k / k!,
    and the cut moves the chunk's result by at most 2**-53 ||v||_1, while
    Horner's rounding stays near m u e^theta ||v||_1. A chunk is taken only
    where m < 4c; otherwise, and always at c = 1, its steps are the classic
    four-stage ones, T_4(hS) with the multipliers h/k. A gap counts its n
    substeps and its step norm h ||S||_1. That bounds h |lambda| for every
    eigenvalue lambda of S; the steps stay bounded only while each h lambda
    lies in RK4's stability region, which reaches about 2.8 along the
    negative real axis, and a step that large is never chunked.
    """

    def plan(gap: float) -> _Plan:
        if not gap / dt <= _MAX_STEPS:
            raise ValueError(f"gap {gap!r}: the substep count at dt {dt!r}, "
                             f"{gap / dt:.6g}, is not finite or above 2**53")
        n = max(1, math.ceil(gap / dt))
        h = gap / n
        x = h * norm
        c = n if x == 0 else max(1, int(min(n, _CHUNK_THETA // x)))
        while c > 1 and c * x > _CHUNK_THETA:
            c -= 1
        chunks = []
        q, r = divmod(n, c)
        for size, repeats in ((c, q), (r, 1)):
            # a lone step, and a chunk that would keep all 4c terms, take the
            # classic four-stage steps
            m = _tail_degree(size * x) if size > 1 else 4
            if m < 4 * size:
                coef = _rk4_power(size, m)
                chunks.append((tuple(h * (coef[1:] / coef[:-1])), repeats, 1))
            elif size:
                chunks.append(((h, h / 2, h / 3, h / 4), size * repeats, 1))
        return chunks, {"rk4_substeps": n, "rk4_step_norm": x}, 0

    return plan


def _shifted(S: _Csr) -> tuple[float, _Csr]:
    """mu = Re trace(S)/n and A = S - mu I: S's entries and -mu on the diagonal, in one _summed.

    A block that keeps rho hermitian has a real trace; a real mu keeps A so, as _Half needs.
    """
    n = S.indptr.size - 1
    rows = S.rows
    # the whole diagonal, zeros included: a pairwise sum rounds by its length
    diag = np.zeros(n, dtype=complex)
    on = rows == S.indices
    diag[rows[on]] = S.data[on]
    mu = float(diag.sum().real) / n
    return mu, _summed(np.concatenate([rows * n + S.indices, np.arange(n) * (n + 1)]),
                       np.concatenate([S.data, np.full(n, -mu)]), n)


def _hager(M: _Padded, MH: _Padded, p: int, x: np.ndarray) -> tuple[float, int]:
    """Hager's estimate of ||M^p||_1 from x, ||x||_1 = 1, and the products it took.

    MH is the adjoint of M. At most five iterations; the first always goes
    on to the adjoint product, with sign(0) = 1: when every row of M^p sums
    to zero, M^p x = 0 says nothing about M^p.
    """
    n = x.size
    est, last, products = 0.0, -1, 0
    for k in range(5):
        y = x
        for _ in range(p):
            y = M @ y
        products += p
        size = np.abs(y)
        total = float(size.sum())
        if k > 0 and total <= est:
            break
        est = total
        z = np.divide(y, size, out=np.ones(n, dtype=complex), where=size > 0)
        for _ in range(p):
            z = MH @ z
        products += p
        j = int(np.argmax(np.abs(z)))
        if j == last or abs(z[j]) <= np.vdot(z, x).real:
            break
        last = j
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
    return est, products


def _power_norm(M: _Padded, MH: _Padded, p: int) -> tuple[float, int]:
    """An estimate of ||M^p||_1, a lower bound, and the products it took; MH is M's adjoint.

    The larger of two runs of Hager's estimator, from e/n and from Higham's
    alternating vector x_i = (-1)^i (1 + i/(n-1)) scaled to unit 1-norm
    (LAPACK's xLACON). From e/n alone the estimate can stall far below the
    norm, since e sums each column of M^p and the columns of a closed
    system's commutator block largely cancel: on a three-level block it
    read a quarter of ||M^2||_1, and 0 when every row of H has the same
    sum, so that every row and column of the block sums to zero.
    """
    n = M.cols.shape[1]
    alt = np.linspace(1.0, 2.0, n) * (-1.0) ** np.arange(n) + 0j
    (a, i), (b, j) = (_hager(M, MH, p, x) for x in (np.full(n, 1.0 / n, dtype=complex),
                                                    alt / np.abs(alt).sum()))
    return max(a, b), i + j


def _taylor_planner(A: _Csr, mu: float) -> Callable[[float], _Plan]:
    """Plans of exp(t S) v by truncated Taylor series, for S = A + mu I.

    Algorithm 3.2 of Al-Mohy and Higham (SIAM J. Sci. Comput. 33 (2011) 488)
    on one vector, with mu = Re trace(S)/n (_shifted). A gap t is one action of
    s steps of all m Taylor terms each (multipliers h/k with h = t/s, and eta
    = exp(t mu / s)), which keep the backward error below 2**-53 without
    the paper's early exit. (m, s) come from the paper's fragment 3.1 with
    m_max = 55. Unless ||tA||_1 satisfies condition (3.13), the fragment
    needs d_p = ||A^p||_1^(1/p) for p = 2 ... p_max + 1; the first gap that
    does estimates them, spending their products, by Hager's one-column
    1-norm estimator (Higham and Tisseur, SIAM J. Matrix Anal. Appl. 21
    (2000) 1185) from two fixed starting vectors: it draws no random numbers;
    its products are with A and A's adjoint as complex-linear _Padded rows.
    """
    d: dict[int, float] = {}
    norm_A = A.norm

    def plan(t: float) -> _Plan:
        norm = t * norm_A
        if not norm <= _MAX_STEPS:
            raise ValueError(f"gap {t!r}: the 1-norm of the gap times the generator, "
                             f"{norm:.6g}, is not finite or above 2**53; the "
                             f"generator's own 1-norm, {norm_A:.6g}, is set by "
                             "its largest rates and energies")
        spent = 0
        if norm <= _NORM_ONLY:
            pairs = ((m, math.ceil(norm / theta)) for m, theta in _THETA.items())
        else:
            if not d:
                M, MH = _Padded(A), _Padded(A.adjoint())
                for p in range(2, _P_MAX + 2):
                    est, products = _power_norm(M, MH, p)
                    d[p] = est ** (1.0 / p)
                    spent += products
            pairs = ((m, math.ceil(t * max(d[p], d[p + 1]) / theta))
                     for p in range(2, _P_MAX + 1) for m, theta in _THETA.items()
                     if m >= p * (p - 1) - 1)
        # the fewest products m s, ties going to the first pair
        m, s = min(pairs, key=lambda ms: ms[0] * ms[1]) if norm else (0, 1)
        s = max(s, 1)
        h = t / s
        return ([(tuple(h / k for k in range(1, m + 1)), s, np.exp(t * mu / s))],
                {"expm_actions": 1}, spent)

    return plan


def _stepper(method: str, block: _Csr, rows: Callable[[_Csr], _Padded],
             dt: float) -> _Stepper:
    """The stepper of method on the reachable block; rows(M) stores M's rows for its products."""
    if method == "superoperator_expm":
        mu, A = _shifted(block)
        return _Stepper(rows(A), _taylor_planner(A, mu))
    return _Stepper(rows(block), _rk4_planner(block.norm, dt), dt=dt,
                    note="the largest RK4 step times ||S||_1, rk4_step_norm, was "
                         "{rk4_step_norm:.6g}; a smaller dt may keep the steps stable")


def propagate(gen: LindbladGenerator, state: StateLike,
              config: PropagationConfig) -> Trajectory:
    """Integrate the master equation and record observables on config.times.

    The coherence pairs are checked before any state search. The block is
    integrated on v_U, with _Half rows; the recorder fills the Trajectory
    returned and raises at the first broken bound. The initial sample's
    hermiticity defect is read from rho as given.
    """
    rho = _as_density(gen, state)
    D = gen.dimension
    for (i, j) in config.coherences:
        if not (0 <= i < D and 0 <= j < D):
            raise ValueError(f"coherence index pair {(i, j)} out of range")
    T = _reachable_states(gen, rho)
    block, R = _reachable_block(gen, rho, T)
    rows = partial(_Half, R=R, D=D)
    U = R[R % D <= R // D]
    x = rho.ravel(order="F")
    v = x[U]
    rec = _Recorder(gen, config, rows(block), U)
    times = config.times
    # a state that overflows breaks the audit, which names the failure
    with np.errstate(over="ignore", invalid="ignore"):
        # rho is 0 outside R, which holds every mirror of its entries
        asymmetry = np.abs(x[R] - x[_mirror(R, D)].conj())
        rec.record(0, times[0], v, defect=float(asymmetry.max()))
        step = _stepper(config.method, block, rows, config.dt)
        for k in range(1, times.size):
            step(v, float(times[k] - times[k - 1]))
            rec.record(k, times[k], v, step)
    return rec.finish(step, int(T.size), int(R.size), int(block.data.size))


@dataclass
class SteadyStateResult:
    """Stationary solutions of the generator.

    state is the minimum-norm trace-one element of the stationary subspace;
    when the stationary state is unique this is that state. directions are
    traceless hermitian unit matrices spanning the remaining freedom, so
    every stationary density matrix has the form state + sum_m a_m
    directions[m] for real a_m (subject to positivity). blocks gives the
    count of weakly connected blocks of the superoperator that were solved,
    the entries of the largest, and the D*D entries of all of them; settled
    counts how those blocks were settled: certified free of null vectors,
    bordered (one null vector from a bordered solve), mirrored from their
    adjoint block, or factored by SVD.
    """

    state: np.ndarray
    directions: tuple[np.ndarray, ...]
    multiplicity: int
    zero_eigenvalues: np.ndarray
    residual: float
    blocks: dict[str, int]
    settled: dict[str, int]


def _settle(block: np.ndarray, diagonal: np.ndarray, zero: float,
            top: float) -> tuple[str, np.ndarray | None, np.ndarray | None]:
    """How one m x m block B of S is settled, its null vectors as rows and their zero eigenvalues.

    diagonal holds the places of B's diagonal entries (k, k). Since
    sigma_min(M) >= 1 / (sqrt(m) |M^-1|_1), one inverse proves:
    - "certified": B, with no diagonal entry, has no singular value at
      most zero, so no null vector;
    - "bordered": A is B / top with the row of its first diagonal entry r
      replaced by the trace row (ones on the diagonal entries); by interlacing
      sigma_{m-1}(B / top) >= sigma_m(A). When that bound exceeds zero and x =
      A^-1 e_r has |Bx| <= zero |x|, x is B's one null vector, with the
      Rayleigh quotient x^H B x / x^H x. The diagonal rows of B sum to zero,
      as S keeps the trace, so the equation that A drops follows from the rest.
    Both bounds are taken on B / top, against zero / top, so they stay
    finite at any rate. A
    singular inverse, a failed bound or a failed residual leaves the block
    "factored" by SVD: its null vectors are the right singular vectors of
    singular value at most zero.
    """
    m = len(block)
    A, cut = block / top, zero / top
    if diagonal.size:
        r = diagonal[0]
        A[r] = 0.0
        A[r, diagonal] = 1.0
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            inv = None
        if inv is not None and 1 / (math.sqrt(m) * np.abs(inv).sum(axis=0).max()) > cut:
            if not diagonal.size:
                return "certified", None, None
            x = inv[:, r] / np.linalg.norm(inv[:, r])
            # B x / top from A's rows and B's row r
            Bx = A @ x
            Bx[r] = block[r] / top @ x
            if np.linalg.norm(Bx) <= cut:
                return "bordered", x[None], np.array([top * np.vdot(x, Bx)])
    # the block cap budgets the SVD's memory beside the block alone
    del A, inv
    U, sv, Vh = np.linalg.svd(block)
    null = sv <= zero
    if not null.any():
        return "factored", None, None
    # columns of N are null vectors; B N = U diag(sv) on them
    N = Vh[null].conj().T
    return "factored", N.T, np.linalg.eigvals(N.conj().T @ (U[:, null] * sv[null]))


def steady_states(gen: LindbladGenerator) -> SteadyStateResult:
    """All stationary solutions, solved block by block on the sparse superoperator.

    The entries of vec(rho) split into blocks, the weakly connected components
    of the sparsity graph of S with each edge also joining the mirrors (l, k)
    of its ends (k, l): S maps each block into itself, so its null space is
    the direct sum of the blocks' null spaces, and the mirrors of a block's
    entries make up a block. A singular value counts as zero when it is at
    most _ZERO_TOL = 1e-10 times sqrt(|S|_1 |S|_inf), a bound on every
    singular value of S. A block of more than sqrt(DENSE_OPERATOR_BUDGET /
    128) entries (4096) raises ValueError before any dense work.

    Since S(X^dag) = S(X)^dag, a block's mirror holds the conjugated mirrors
    of its null vectors: of two mirror blocks the lower label is settled, in
    label order, and the other inherits the result ("mirrored"). A block
    that is its own mirror, as each block with diagonal entries is, is
    settled in real coordinates: rho[k, k], sqrt(2) Re rho[k, l] at (k, l)
    with k < l, and sqrt(2) Im rho[l, k] at (k, l) with k > l. The unitary T
    from them to the entries maps real vectors onto hermitian matrices,
    which S keeps hermitian, so B is the real T^dag B T there, and each real
    null vector y is the hermitian T y. Each settled block takes the
    cheapest proof of its null count (see _settle): one inverse certifies
    that a block without diagonal entries holds no null vector
    ("certified"), or that a block with them holds exactly one, found by a
    bordered solve with the trace row ("bordered"). Only a block that no
    bound settles is factored by SVD ("factored"). settled counts the blocks
    of each kind.

    A mirror pair's null vector X gives (X + X^dag)/sqrt(2) and
    i (X - X^dag)/sqrt(2). The blocks share no entry, so these and the real
    null vectors are, in real coordinates, an orthonormal basis of the
    hermitian stationary matrices, one per null vector: the multiplicity.
    The state and directions are found in these coordinates, where the trace
    sums the diagonal ones, and T maps them onto exactly hermitian matrices.
    """
    D = gen.dimension
    n = D * D
    S = _superoperator_csr(gen)
    rows = S.rows
    mirror = _mirror(np.arange(n), D)
    n_blocks, labels = _weak_components(n, np.concatenate([S.indices, mirror[S.indices]]),
                                        np.concatenate([rows, mirror[rows]]))
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
    # block is settled at once; relative to S's largest entry, no rate overflows the
    # sums, and no floor: an S of zeros has threshold 0 and keeps every mode
    size = np.abs(S.data)
    top = float(size.max(initial=0.0)) or 1.0
    col, row = (float(np.bincount(k, size / top, n).max()) for k in (S.indices, rows))
    zero = _ZERO_TOL * top * math.sqrt(col * row)
    # grouped in stable label order, each block's entries come sorted, and so
    # do the stored entries of S in its rows; local is an entry's place in its block
    order, local = _grouped(labels, sizes)
    ends = np.cumsum(sizes)
    stored = np.argsort(labels[rows], kind="stable")
    stored_ends = np.cumsum(np.bincount(labels[rows], minlength=n_blocks))
    pair = labels[mirror[order[ends - sizes]]]
    # T as two slots per entry: (T y)[j] = t0[j] y[j] + t1[j] y[mirror[j]]
    below = np.arange(n) % D - np.arange(n) // D
    t0 = np.select([below < 0, below > 0], [math.sqrt(0.5), -1j * math.sqrt(0.5)], 1)
    t1 = np.select([below < 0, below > 0], [1j * math.sqrt(0.5), math.sqrt(0.5)], 0)
    settled = dict.fromkeys(("certified", "bordered", "mirrored", "factored"), 0)
    found = {}
    held = []
    zero_eigenvalues = []
    for b, (idx, k) in enumerate(zip(np.split(order, ends[:-1]),
                                     np.split(stored, stored_ends[:-1]))):
        if pair[b] < b:
            settled["mirrored"] += 1
            if pair[b] in found:
                zero_eigenvalues.append(found[pair[b]].conj())
            continue
        block = np.zeros((idx.size, idx.size), dtype=complex)
        block[local[rows[k]], local[S.indices[k]]] = S.data[k]
        if pair[b] == b:
            # T^dag B T from B's columns, then rows, at each entry and its mirror:
            # T's column j holds t0[j] at j and t1[mirror[j]] at mirror[j]
            mir = local[mirror[idx]]
            t, u = t0[idx], t1[idx][mir]
            block = block * t + block[:, mir] * u
            block = (t.conj()[:, None] * block + u.conj()[:, None] * block[mir]).real
        how, null, z = _settle(block, np.flatnonzero(idx % D == idx // D), zero, top)
        settled[how] += 1
        if null is not None:
            found[b] = z
            zero_eigenvalues.append(z)
            if pair[b] > b:
                # X = x + iy at (k, l): (X + X^dag)/sqrt(2) has the coordinates x there and
                # y at (l, k) when k < l, -y there and x at (l, k) when k > l; iX gives the other
                W = np.where(idx % D < idx // D, null, 1j * null)
                idx = np.concatenate([idx, mirror[idx]])
                null = np.block([[W.real, W.imag], [-W.imag, W.real]])
            held.append(np.zeros((len(null), n)))
            held[-1][:, idx] = null
    if not held:
        raise ValueError("generator has no stationary mode within tolerance")
    zero_eigenvalues = np.concatenate(zero_eigenvalues, dtype=complex)

    span = np.concatenate(held)
    traces = span[:, np.arange(D) * (D + 1)].sum(axis=1)
    tnorm2 = float(traces @ traces)
    if tnorm2 <= _ZERO_TOL:
        raise ValueError("stationary subspace carries no trace; "
                         "no normalizable steady state")
    g_coords = (traces / tnorm2) @ span
    # the directions: span turned onto the orthogonal complement of the trace vector
    coords = np.vstack([g_coords, np.linalg.svd(traces[None])[2][1:] @ span])
    full = coords * t0 + coords[:, mirror] * t1
    # row-major D x D slices, transposed: each is a column-stacked vec(rho)
    state, *directions = full.reshape(-1, D, D).transpose(0, 2, 1)

    terms = S.data * state.ravel(order="F")[S.indices]
    residual = float(np.abs(np.bincount(rows, terms.real, n)
                            + 1j * np.bincount(rows, terms.imag, n)).max())
    return SteadyStateResult(state=state, directions=tuple(directions),
                             multiplicity=len(span),
                             zero_eigenvalues=zero_eigenvalues,
                             residual=residual,
                             blocks={"count": int(n_blocks), "largest": largest, "of": n},
                             settled=settled)
