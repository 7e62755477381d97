"""Tests for superoperators, propagation, the reachable-subspace reduction, and steady states."""

import contextlib
import functools
import math
import pickle
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import expm_multiply

from lindnet.cli import main
from lindnet.dynamics import (
    InvariantViolation,
    LindbladGenerator,
    PropagationConfig,
    _closure,
    _Csr,
    _hager,
    _Half,
    _Padded,
    _power_norm,
    _reachable_block,
    _reachable_states,
    _Recorder,
    _rk4_power,
    _shifted,
    _Stepper,
    _stepper,
    _superoperator_csr,
    _tail_degree,
    _taylor_planner,
    _weak_components,
    propagate,
    steady_states,
)
from lindnet.hilbert import (
    POSITIVITY_TOL,
    DensityMatrix,
    ProductBasis,
    PureState,
    SiteDescriptor,
    basis_state,
)
from lindnet.model import (
    Dephasing,
    Dissipation,
    Extraction,
    Injection,
    NetworkSpec,
    Transfer,
    preset,
    preset_names,
)


def rk4_stepper(S: _Csr, dt: float) -> _Stepper:
    """propagate's Runge-Kutta stepper for the block S, on the whole vector: _Padded rows."""
    return _stepper("fixed_step_rk4", S, _Padded, dt)


def taylor_stepper(S: _Csr) -> _Stepper:
    """propagate's exponential stepper for the block S, on the whole vector: _Padded rows."""
    return _stepper("superoperator_expm", S, _Padded, math.nan)


def as_scipy(S: _Csr) -> scipy.sparse.csr_matrix:
    n = S.indptr.size - 1
    return scipy.sparse.csr_matrix(S, shape=(n, n))


def as_engine(M) -> _Csr:
    """The canonical _Csr of a SciPy sparse matrix: sorted columns, no stored zeros."""
    M = scipy.sparse.csr_matrix(M, copy=True)
    M.sum_duplicates()
    M.eliminate_zeros()
    return _Csr(M.data, M.indices.astype(np.int64), M.indptr.astype(np.int64))


def scipy_superoperator(gen: LindbladGenerator,
                        states: np.ndarray | None = None) -> scipy.sparse.csr_matrix:
    """The plain sum, by SciPy, of the superoperator's Kronecker terms, taken
    in the order _superoperator_csr sums them."""
    # K = H - (i/2) sum L^dag L, each product subtracted in turn
    K = gen.hamiltonian.copy()
    for L in gen.jump_operators:
        K -= 0.5j * (L.conj().T @ L)
    jumps = gen.jump_operators
    if states is not None:
        cut = np.ix_(states, states)
        K = K[cut]
        jumps = [L[cut] for L in jumps]
    D = K.shape[0]
    eye = scipy.sparse.identity(D, dtype=complex, format="csr")

    def kron(a, b):
        return scipy.sparse.kron(a, b, format="csr")

    Ks = scipy.sparse.csr_matrix(K)
    terms = [-1j * kron(eye, Ks), 1j * kron(Ks.conj(), eye)]
    for L in jumps:
        Lr = scipy.sparse.csr_matrix(L.real)
        Li = scipy.sparse.csr_matrix(L.imag)
        terms += [kron(Lr, Lr), kron(Li, Li), 1j * kron(Lr, Li), -1j * kron(Li, Lr)]
    return sum(terms[1:], terms[0]).tocsr()


def assert_same_csr(S: _Csr, ref: scipy.sparse.csr_matrix, zero_signs: bool = True) -> None:
    """Equal arrays, and equal bits in the data, so signed zeros match too.

    Without zero_signs, a zero real or imaginary part may differ in sign only:
    SciPy's union sums add +0 where one side lacks an entry, the keyed sum
    does not. The padded product starts each row sum at +0, so a stored
    zero's sign changes no product.
    """
    assert np.array_equal(S.data, ref.data)
    same_bits = S.data.view(np.int64) == ref.data.view(np.int64)
    if not zero_signs:
        same_bits |= S.data.view(float) == 0
    assert same_bits.all()
    assert np.array_equal(S.indices, ref.indices)
    assert np.array_equal(S.indptr, ref.indptr)


def assert_canonical_form(gen: LindbladGenerator) -> None:
    """S maps rho^dag to (S rho)^dag bit for bit, and keeps the trace to rounding.

    The entry p = k + D l of vec(rho) has its mirror m(p) = l + D k in
    vec(rho^dag), so S[m(p), m(q)] must equal conj(S[p, q]) exactly; and
    vec(I)^T S must vanish to 1e-15 of the largest entry of S.
    """
    D = gen.dimension
    S = as_scipy(_superoperator_csr(gen)).tocoo()
    rows, cols = S.row.astype(np.int64), S.col.astype(np.int64)
    keys = rows * D * D + cols
    mirrored = (rows // D + D * (rows % D)) * D * D + cols // D + D * (cols % D)
    order, mirror_order = np.argsort(keys), np.argsort(mirrored)
    assert np.array_equal(keys[order], mirrored[mirror_order])
    assert np.array_equal(S.data[mirror_order], S.data[order].conj())
    left = np.asarray(S.tocsr()[np.arange(D) * (D + 1)].sum(axis=0)).ravel()
    assert np.abs(left).max() <= 1e-15 * np.abs(S.data).max()


def random_generator(seed: int, dim: int, n_jumps: int) -> LindbladGenerator:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = A + A.conj().T
    jumps = tuple(
        0.5 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        for _ in range(n_jumps))
    return LindbladGenerator(H, jumps)


def random_density(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / rho.trace()


def draw_raw_case(data):
    """A raw 2-3 qubit generator and a sparse initial matrix, drawn with hypothesis.

    H is sparse; each jump has two columns feeding one row (so L^dag L has
    off-diagonal entries) plus up to two random entries; the initial
    matrix's coherences need not sit on occupied diagonal entries. The
    generator carries a qubit basis, which changes neither S nor R.
    """
    qubits = data.draw(st.integers(2, 3), label="qubits")
    D = 2 ** qubits
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pair = st.tuples(st.integers(0, D - 1), st.integers(0, D - 1))

    def sparse(pairs):
        M = np.zeros((D, D), dtype=complex)
        for i, j in pairs:
            M[i, j] = complex(*rng.normal(size=2))
        return M

    A = sparse(data.draw(st.lists(pair, max_size=D), label="H"))
    jumps = []
    for _ in range(data.draw(st.integers(1, 2), label="jumps")):
        row = data.draw(st.integers(0, D - 1), label="row")
        cols = data.draw(st.lists(st.integers(0, D - 1), min_size=2, max_size=2,
                                  unique=True), label="cols")
        jumps.append(sparse([(row, c) for c in cols]
                            + data.draw(st.lists(pair, max_size=2), label="L")))
    basis = ProductBasis(tuple(SiteDescriptor(str(k), "qubit", 2) for k in range(qubits)))
    gen = LindbladGenerator(A + A.conj().T, tuple(jumps), basis)
    rho = sparse(data.draw(st.lists(pair, min_size=1, max_size=3), label="support"))
    return gen, rho, rng


def mirror(entries: np.ndarray, D: int) -> np.ndarray:
    """The vec(rho) index l + D k of the mirror (l, k) of each entry k + D l."""
    return entries // D + D * (entries % D)


def reference_record(gen: LindbladGenerator, R: np.ndarray, v: np.ndarray, pairs):
    """Observables read the plain way: v scattered into the full density matrix."""
    D = gen.dimension
    w = np.zeros(D * D, dtype=complex)
    w[R] = v
    rho = w.reshape(D, D, order="F")
    touched = np.union1d(R % D, R // D)
    block = rho[np.ix_(touched, touched)]
    lam = float(np.linalg.eigvalsh(0.5 * (block + block.conj().T)).min())
    if touched.size < D:
        lam = min(lam, 0.0)
    return {"defect": float(np.abs(rho - rho.conj().T).max()),
            "trace": rho.trace().real,
            "populations": np.real(np.diag(rho)) @ gen.basis.occupation_table,
            "min_eigenvalue": lam,
            "coherences": [rho[p] for p in pairs],
            "snapshot": rho}


def classic_rk4(S, v: np.ndarray, h: float, n: int) -> np.ndarray:
    """n four-stage Runge-Kutta steps written out stage by stage."""
    for _ in range(n):
        k1 = S @ v
        k2 = S @ (v + (0.5 * h) * k1)
        k3 = S @ (v + (0.5 * h) * k2)
        k4 = S @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def coherent_mixture(D: int, support, seed: int) -> np.ndarray:
    """A random density matrix of rank len(support) on those basis states."""
    rng = np.random.default_rng(seed)
    A = (rng.normal(size=(len(support), len(support)))
         + 1j * rng.normal(size=(len(support), len(support))))
    rho = np.zeros((D, D), dtype=complex)
    rho[np.ix_(support, support)] = A @ A.conj().T
    return rho / rho.trace()


def full_space_run(gen: LindbladGenerator, rho0: np.ndarray, times: np.ndarray, pairs,
                   method: str = "fixed_step_rk4", dt: float = 1e-3) -> dict:
    """Observables of a run on every entry of vec(rho), with no reduction.

    The whole superoperator is stepped by classic_rk4, split per gap as
    propagate splits it, or by the dense exponential, and each sample is read
    by reference_record; nothing is shared with propagate's recorder or
    integrators.
    """
    D = gen.dimension
    S = as_scipy(_superoperator_csr(gen))
    v = rho0.ravel(order="F").astype(complex)
    samples = []
    for k, t in enumerate(times):
        if k:
            gap = float(t - times[k - 1])
            if method == "superoperator_expm":
                v = scipy.linalg.expm(gap * S.toarray()) @ v
            else:
                n = max(1, math.ceil(gap / dt))
                v = classic_rk4(S, v, gap / n, n)
        rec = reference_record(gen, np.arange(D * D), v, pairs)
        rec["purity"] = float(np.vdot(v, v).real)
        rec["purity_rate"] = 2.0 * float(np.vdot(v, S @ v).real)
        samples.append(rec)
    out = {name: np.array([rec[name] for rec in samples])
           for name in ("populations", "purity", "purity_rate", "trace", "min_eigenvalue",
                        "snapshot")}
    out["coherences"] = {pair: np.array([rec["coherences"][m] for rec in samples])
                         for m, pair in enumerate(pairs)}
    return out


class TestLindbladGenerator:
    def test_nonhermitian_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            LindbladGenerator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nan_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="^hamiltonian has an entry that is not finite$"):
            LindbladGenerator(np.array([[np.nan, 0.0], [0.0, 1.0]]), ())

    def test_infinite_jump_rejected_by_position(self):
        L = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError, match="^jump operator 1 has an entry that is not finite$"):
            LindbladGenerator(np.eye(2), (np.zeros((2, 2)), L))

    @pytest.mark.filterwarnings("error")
    def test_finite_overflow_keeps_the_rates_message(self):
        # finite jumps whose terms overflow only when S sums them
        L = np.array([[0.0, 1e154], [0.0, 0.0]])
        with pytest.raises(ValueError, match="^the rates overflow the superoperator"):
            steady_states(LindbladGenerator(np.eye(2), (L, L)))

    def test_overflowing_products_raise_no_numpy_warning(self):
        # L^dag L and its Kronecker terms overflow to inf and nan; the
        # finiteness check names the cause, with no NumPy warning before it
        L = np.array([[0.0, 1e200], [0.0, 0.0]])
        config = PropagationConfig(times=np.array([0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (steady_states,
                          lambda gen: propagate(gen, np.diag([0.0, 1.0]), config)):
                with pytest.raises(ValueError, match="^the rates overflow the superoperator"):
                    solve(LindbladGenerator(np.zeros((2, 2)), (L,)))

    def test_skew_within_tolerance_is_dropped_exactly(self):
        # a hermitian H keeps its bits; a skewed one keeps 0.5 H + 0.5 H^dag
        H = np.array([[1.0, 2.0], [2.0, -1.0 + 1e-13j]])
        assert np.array_equal(LindbladGenerator(H.real).hamiltonian, H.real)
        stored = LindbladGenerator(H).hamiltonian
        assert np.array_equal(stored, stored.conj().T)
        assert np.array_equal(stored, H.real)

    def test_jump_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            LindbladGenerator(np.eye(2), (np.zeros((3, 3)),))

    def test_basis_dimension_mismatch(self):
        basis = ProductBasis((SiteDescriptor("a", "qubit", 2),))
        with pytest.raises(ValueError, match="dimension"):
            LindbladGenerator(np.eye(4), (), basis)

    def test_from_network(self):
        run = preset("two_site_transfer")
        gen = LindbladGenerator.from_network(run.spec)
        assert gen.dimension == 4
        assert len(gen.jump_operators) == 1
        assert gen.basis is not None

    def test_dense_operator_budget(self, monkeypatch):
        # two qubits and one jump: H, L and L^dag L, 16 * 4**2 bytes each
        spec = NetworkSpec(sites=(SiteDescriptor("1", "qubit", 2),
                                  SiteDescriptor("2", "qubit", 2)),
                           jumps=(Dissipation("1", 0.1),))
        monkeypatch.setattr("lindnet.model.DENSE_OPERATOR_BUDGET", 3 * 16 * 4**2)
        assert LindbladGenerator.from_network(spec).dimension == 4
        monkeypatch.setattr("lindnet.model.DENSE_OPERATOR_BUDGET", 3 * 16 * 4**2 - 1)
        with pytest.raises(ValueError, match=r"^dimension D = 4: its 3 dense operators .* "
                                             r"768 bytes, above the budget of 767 bytes$"):
            LindbladGenerator.from_network(spec)

    def test_block_cap_follows_the_dense_budget(self, monkeypatch):
        # steady_states caps a block at sqrt(budget / (8 * 16)) entries: 16
        # at 128 * 16**2 bytes, 15 one byte below
        shapes = []

        def recorded(factor):
            def call(a, *args, **kwargs):
                shapes.append(a.shape)
                return factor(a, *args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "svd", recorded(np.linalg.svd))
        monkeypatch.setattr(np.linalg, "inv", recorded(np.linalg.inv))
        monkeypatch.setattr("lindnet.model.DENSE_OPERATOR_BUDGET", 128 * 16**2)
        # a dense random H couples every entry: one block of D**2 entries
        steady_states(random_generator(0, 4, 0))
        assert shapes[0] == (16, 16)
        shapes.clear()
        with pytest.raises(ValueError, match=r"^largest block of the superoperator has "
                                             r"25 entries, above the cap of 16$"):
            steady_states(random_generator(0, 5, 0))
        monkeypatch.setattr("lindnet.model.DENSE_OPERATOR_BUDGET", 128 * 16**2 - 1)
        with pytest.raises(ValueError, match=r"16 entries, above the cap of 15$"):
            steady_states(random_generator(0, 4, 0))
        assert shapes == []

    def test_assembly_refused_above_the_dense_budget(self, monkeypatch, tmp_path, capsys):
        # the N = 6 chain's dense operators take 327,680 bytes, but its 28,672
        # Kronecker term entries would take 97 bytes each to assemble
        run = preset("open_chain_pump", N=6)
        monkeypatch.setattr("lindnet.model.DENSE_OPERATOR_BUDGET", 2_000_000)
        gen = LindbladGenerator.from_network(run.spec)

        def no_kron(*args, **kwargs):
            raise AssertionError("a Kronecker term was formed")

        monkeypatch.setattr("lindnet.dynamics._kron", no_kron)
        refusal = ("the Kronecker terms of the superoperator have 28672 entries; "
                   "assembling them would take about 2781184 bytes, above the budget "
                   "of 2000000 bytes")
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            steady_states(gen)
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            propagate(gen, run.initial, PropagationConfig(times=np.array([0.0, 1.0])))
        cfg = tmp_path / "chain.yaml"
        cfg.write_text("preset: open_chain_pump\nparams: {N: 6}\n", encoding="utf-8")
        for command in ("run", "steady"):
            assert main([command, str(cfg), "--output", str(tmp_path / command)]) == 1
            assert capsys.readouterr().err == f"error: {refusal}\n"


class TestSuperoperator:
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 5),
           n_jumps=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_action(self, seed, dim, n_jumps):
        gen = random_generator(seed, dim, n_jumps)
        rho = random_density(seed + 1, dim)
        S = as_scipy(_superoperator_csr(gen)).toarray()
        H = gen.hamiltonian
        direct = -1j * (H @ rho - rho @ H)
        for L in gen.jump_operators:
            LdL = L.conj().T @ L
            direct += L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)
        via_vec = (S @ rho.ravel(order="F")).reshape(dim, dim, order="F")
        np.testing.assert_allclose(via_vec, direct, atol=1e-12)

    def test_trace_is_conserved_exactly(self):
        gen = random_generator(3, 4, 2)
        S = as_scipy(_superoperator_csr(gen)).toarray()
        # vec(identity) is a left null vector of any Lindblad superoperator
        left = np.eye(4).ravel(order="F")
        assert np.abs(left @ S).max() < 1e-12

    @pytest.mark.parametrize("name", preset_names())
    def test_canonical_form_on_presets(self, name):
        assert_canonical_form(LindbladGenerator.from_network(preset(name).spec))

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5), n_jumps=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_canonical_form_on_skewed_hamiltonians(self, seed, dim, n_jumps):
        # H skewed by 5e-13 of its largest entry, within HERMITICITY_TOL; real
        # sparse jumps, so each conj(L) (x) L entry is a plain real sum
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = A + A.conj().T
        E = rng.uniform(-0.35, 0.35, (dim, dim)) + 1j * rng.uniform(-0.35, 0.35, (dim, dim))
        H = H + 5e-13 * np.abs(H).max() * E
        jumps = tuple(rng.normal(size=(dim, dim)) * (rng.random((dim, dim)) < 0.5)
                      for _ in range(n_jumps))
        assert_canonical_form(LindbladGenerator(H, jumps))

    @pytest.mark.parametrize("name", preset_names())
    def test_matches_scipy_assembly_on_presets(self, name):
        run = preset(name)
        gen = LindbladGenerator.from_network(run.spec)
        T = _reachable_states(gen, run.initial.to_density().matrix)
        assert_same_csr(_superoperator_csr(gen), scipy_superoperator(gen), zero_signs=False)
        assert_same_csr(_superoperator_csr(gen, T), scipy_superoperator(gen, T),
                        zero_signs=False)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_scipy_assembly_on_raw_generators(self, data):
        gen, rho, _ = draw_raw_case(data)
        T = _reachable_states(gen, rho)
        assert_same_csr(_superoperator_csr(gen), scipy_superoperator(gen), zero_signs=False)
        assert_same_csr(_superoperator_csr(gen, T), scipy_superoperator(gen, T),
                        zero_signs=False)


class TestPaddedProduct:
    """The engine's padded-row product against SciPy's CSR product."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_product(self, data):
        # random canonical blocks: empty rows, the all-zero block, n = 1, and
        # optionally one full row among sparse ones. Small integers multiply
        # and add exactly, so any order of the sums agrees bit for bit; on
        # random complex data each row agrees to 1e-15 of the sum of its
        # terms' sizes, the room a fused multiply-add leaves per term
        n = data.draw(st.integers(1, 30), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        density = data.draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]), label="density")
        mask = rng.random((n, n)) < density
        if data.draw(st.booleans(), label="long_row"):
            mask[rng.integers(n)] = True
        small = (rng.integers(-3, 4, (n, n)) * mask).astype(float)
        x = rng.integers(-3, 4, n).astype(float)
        M = scipy.sparse.csr_matrix(small)
        got = _Padded(as_engine(M)) @ x
        assert got.dtype == float
        np.testing.assert_array_equal(got, M @ x)
        M = scipy.sparse.csr_matrix(mask * (rng.normal(size=(n, n))
                                            + 1j * rng.normal(size=(n, n))))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        got, want = _Padded(as_engine(M)) @ x, M @ x
        assert np.all(np.abs(got - want) <= 1e-15 * (abs(M) @ np.abs(x)))

    @pytest.mark.parametrize("name", preset_names())
    def test_shift_and_adjoint_match_scipy(self, name):
        # the Taylor action's A = S - mu I, and its adjoint, bit for bit but
        # for the sign of a zero part
        run = preset(name)
        gen = LindbladGenerator.from_network(run.spec)
        rho0 = run.initial.to_density().matrix
        block, R = _reachable_block(gen, rho0, _reachable_states(gen, rho0))
        S = as_scipy(block)
        mu, shifted = _shifted(block)
        assert mu == S.trace().real / R.size
        A = S - mu * scipy.sparse.identity(R.size, dtype=complex, format="csr")
        assert_same_csr(shifted, A, zero_signs=False)
        assert_same_csr(shifted.adjoint(), A.conj().T.tocsr(), zero_signs=False)


class TestPropagationConfig:
    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            PropagationConfig(times=np.array([0.0, 1.0, 1.0]))

    def test_dt_positive(self):
        with pytest.raises(ValueError, match="dt"):
            PropagationConfig(times=np.array([0.0, 1.0]), dt=0.0)

    @pytest.mark.parametrize("field,value", [
        ("method", "euler"), ("snapshots", "sometimes")])
    def test_enum_fields(self, field, value):
        with pytest.raises(ValueError):
            PropagationConfig(times=np.array([0.0, 1.0]), **{field: value})


# Work counters of each preset's default run: RK4 matvecs and rk4_substeps,
# expm matvecs and expm_actions, and the reachable entries of vec(rho)
PRESET_WORK = {
    "two_site_pump": (18001, 40688, 20001, 2000, 6),
    "three_site_pump": (20001, 40688, 20001, 2000, 20),
    "open_chain_pump": (24001, 40688, 26001, 2000, 924),
    "four_site_congestion": (11001, 100552, 11001, 1000, 10),
    "hop_transfer": (8001, 10392, 8001, 1000, 5),
    "lh1_ring": (18585, 40216, 10001, 400, 152),
    "two_site_transfer": (4001, 5296, 4001, 500, 2),
    "qubit_to_battery": (4001, 5296, 4001, 500, 2),
}


class TestPropagation:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_rk4_matches_expm_and_keeps_invariants(self, seed):
        # random well-formed generator: the two routes must agree and the
        # internal trace/hermiticity/positivity checks must stay quiet
        gen = random_generator(seed, 3, 2)
        rho0 = random_density(seed + 7, 3)
        times = np.linspace(0.0, 1.0, 6)
        rk = propagate(gen, rho0, PropagationConfig(times=times, dt=2e-3,
                                                    snapshots="all"))
        ex = propagate(gen, rho0, PropagationConfig(
            times=times, method="superoperator_expm", snapshots="all"))
        for a, b in zip(rk.snapshots, ex.snapshots):
            np.testing.assert_allclose(a, b, atol=1e-8)
        assert rk.metadata["max_trace_error"] < 1e-9
        assert rk.metadata["min_eigenvalue_floor"] > -1e-9
        assert np.isnan(ex.metadata["dt"])

    def test_nan_density_refused_before_propagation(self):
        gen = random_generator(0, 2, 1)
        with pytest.raises(ValueError, match="^matrix is not hermitian"):
            propagate(gen, np.full((2, 2), np.nan), PropagationConfig(times=np.array([0.0])))

    def test_initial_state_recorded_at_first_time(self):
        run = preset("two_site_transfer")
        gen = LindbladGenerator.from_network(run.spec)
        traj = propagate(gen, run.initial,
                         PropagationConfig(times=np.array([0.0, 1.0])))
        assert traj.population("1")[0] == pytest.approx(1.0)
        assert traj.population("2")[0] == pytest.approx(0.0)

    def test_pure_state_needs_no_density_check(self, monkeypatch):
        # the projector of a unit ket is positive by construction, so a pure
        # start pays no eigvalsh, and its run equals the density matrix's
        run = preset("two_site_pump", initial="site1")
        gen = LindbladGenerator.from_network(run.spec)
        config = PropagationConfig(times=np.linspace(0.0, 1.0, 3))
        ref = propagate(gen, run.initial.to_density(), config)

        def refuse(*args):
            raise AssertionError("density check on a pure state")

        monkeypatch.setattr("lindnet.dynamics.check_density", refuse)
        monkeypatch.setattr(PureState, "to_density", refuse)
        traj = propagate(gen, run.initial, config)
        for name in ("populations", "purity", "purity_rate", "min_eigenvalue"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(ref, name))

    def test_population_counts_every_quantum_of_a_spin_site(self):
        basis = ProductBasis((SiteDescriptor("b", "spin", 3),))
        gen = LindbladGenerator(np.zeros((3, 3)), (), basis)
        rho = np.diag([0.5, 0.2, 0.3]).astype(complex)
        traj = propagate(gen, rho, PropagationConfig(times=np.array([0.0])))
        assert traj.population("b")[0] == pytest.approx(0.2 + 2 * 0.3)

    def test_population_accessor_unknown_label(self):
        run = preset("two_site_transfer")
        gen = LindbladGenerator.from_network(run.spec)
        traj = propagate(gen, run.initial,
                         PropagationConfig(times=np.array([0.0, 0.5])))
        with pytest.raises(KeyError):
            traj.population("9")

    def test_purity_rate_of_fresh_pure_state(self):
        # from |1,0> the transfer channel erodes purity at rate 2 gamma
        run = preset("two_site_transfer", gamma=0.7)
        gen = LindbladGenerator.from_network(run.spec)
        traj = propagate(gen, run.initial,
                         PropagationConfig(times=np.array([0.0, 0.1])))
        assert traj.purity_rate[0] == pytest.approx(-2 * 0.7, rel=1e-9)

    def test_snapshots_last_only(self):
        run = preset("two_site_transfer")
        gen = LindbladGenerator.from_network(run.spec)
        times = np.linspace(0.0, 2.0, 5)
        traj = propagate(gen, run.initial,
                         PropagationConfig(times=times, snapshots="last"))
        assert len(traj.snapshots) == 1
        assert traj.snapshots[-1].shape == (4, 4)

    def test_expm_output_ignores_global_rng(self):
        # the Taylor action's parameters come from deterministic norm
        # estimates; neither its result nor the caller's global stream may
        # depend on NumPy's global RNG
        gen = random_generator(0, 8, 2)
        rho0 = random_density(1, 8)
        config = PropagationConfig(times=np.array([0.0, 1.0]),
                                   method="superoperator_expm", snapshots="last")
        finals = []
        for seed in (0, 1, 2, 3):
            np.random.seed(seed)
            finals.append(propagate(gen, rho0, config).snapshots[-1])
        assert all(np.array_equal(finals[0], f) for f in finals[1:])
        # and the caller's stream carries on where it was
        np.random.seed(5)
        expect = np.random.random()
        np.random.seed(5)
        propagate(gen, rho0, config)
        assert np.random.random() == expect

    def test_unstable_step_raises_invariant_violation(self):
        run = preset("two_site_pump", J=2.0)
        gen = LindbladGenerator.from_network(run.spec)
        with pytest.raises(InvariantViolation):
            propagate(gen, run.initial,
                      PropagationConfig(times=np.array([0.0, 40.0]), dt=1.5))

    def test_dimension_mismatch_rejected(self):
        gen = random_generator(0, 3, 1)
        with pytest.raises(ValueError, match="dimension"):
            propagate(gen, np.eye(4) / 4.0,
                      PropagationConfig(times=np.array([0.0, 1.0])))

    def test_nonhermitian_initial_rejected(self):
        gen = random_generator(0, 3, 1)
        bad = np.diag([1.0, 0.0, 0.0]).astype(complex)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError, match="hermitian"):
            propagate(gen, bad, PropagationConfig(times=np.array([0.0, 1.0])))

    def test_nonpositive_initial_rejected(self):
        gen = random_generator(0, 2, 1)
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            propagate(gen, bad, PropagationConfig(times=np.array([0.0, 1.0])))

    def test_coherence_recording(self):
        run = preset("two_site_transfer")
        gen = LindbladGenerator.from_network(run.spec)
        basis = gen.basis
        pair = (basis.index((1, 0)), basis.index((0, 1)))
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[2, 2] = rho0[1, 1] = 0.5
        rho0[2, 1] = rho0[1, 2] = 0.5
        times = np.linspace(0.0, 2.0, 9)
        traj = propagate(gen, rho0, PropagationConfig(times=times, coherences=(pair,)))
        # the cross coherence decays at gamma / 2
        expect = 0.5 * np.exp(-0.5 * times)
        np.testing.assert_allclose(traj.coherences[pair].real, expect, atol=1e-9)

    def test_repeated_coherence_pair_keeps_the_others_in_place(self):
        # the series are keyed by pair, so a repeated pair must not shift the
        # pairs after it onto another pair's entry
        run = preset("two_site_pump")
        gen = LindbladGenerator.from_network(run.spec)
        pair = (gen.basis.index((1, 0)), gen.basis.index((0, 1)))
        times = np.linspace(0.0, 2.0, 5)
        alone, repeated = (propagate(gen, run.initial, PropagationConfig(
            times=times, coherences=pairs)).coherences[pair]
            for pairs in ((pair,), ((0, 0), (0, 0), pair)))
        assert np.abs(alone).max() > 0.05
        np.testing.assert_array_equal(repeated, alone)

    def test_coherence_index_out_of_range(self):
        run = preset("two_site_transfer")
        gen = LindbladGenerator.from_network(run.spec)
        with pytest.raises(ValueError, match="out of range"):
            propagate(gen, run.initial,
                      PropagationConfig(times=np.array([0.0, 1.0]),
                                        coherences=((0, 9),)))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_horner_step_matches_classic_stages(self, data):
        # random sparse complex blocks on non-uniform grids, split into
        # substeps per gap as propagate splits them
        n = data.draw(st.integers(1, 12), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        density = data.draw(st.floats(0.1, 1.0), label="density")
        S = scipy.sparse.random(n, n, density=density, format="csr", rng=rng,
                                dtype=complex, data_rvs=lambda k: (rng.normal(size=k)
                                                                   + 1j * rng.normal(size=k)))
        gaps = data.draw(st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=5), label="gaps")
        dt = data.draw(st.floats(1e-3, 0.2), label="dt")
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = v.copy()
        step = rk4_stepper(as_engine(S), dt)
        for gap in gaps:
            n_sub = max(1, math.ceil(gap / dt))
            assert step(v, gap) is v
            ref = classic_rk4(S, ref, gap / n_sub, n_sub)
            np.testing.assert_allclose(v, ref, rtol=0,
                                       atol=1e-12 * max(1.0, float(np.abs(ref).max())))

    def test_work_counters(self, monkeypatch):
        # substeps are sum over gaps of max(1, ceil(gap / dt)); at dt = 0.1 every
        # gap takes classic four-stage steps, four products with S each (its
        # chunks of c > 1 steps would need m >= 4c terms), and each sample one
        # more for the purity rate. The expm run's matvecs count every product
        # with the block it makes: all m s Taylor terms of each gap, the norm
        # estimates of the 40-unit gap and the purity rate. Stepping and the
        # purity rate take the _Half rows on v_U; only the norm estimates take
        # the whole block's complex-linear _Padded rows
        products = []
        matmul = _Padded.__matmul__

        def counted(self, other):
            products.append((type(self), np.ndim(other)))
            return matmul(self, other)

        monkeypatch.setattr(_Padded, "__matmul__", counted)
        run = preset("two_site_pump")
        gen = LindbladGenerator.from_network(run.spec)
        times = np.array([0.0, 0.05, 0.3, 0.31, 1.0])
        dt = 0.1
        substeps = sum(max(1, math.ceil(g / dt)) for g in np.diff(times))
        assert substeps == 1 + 3 + 1 + 7
        rk = propagate(gen, run.initial, PropagationConfig(times=times, dt=dt)).metadata
        assert products == [(_Half, 1)] * rk["matvecs"]
        products.clear()
        expm_times = np.append(times, 41.0)
        ex = propagate(gen, run.initial, PropagationConfig(
            times=expm_times, method="superoperator_expm")).metadata
        ex_products = products.copy()
        assert len(ex_products) == ex["matvecs"]
        again = propagate(gen, run.initial, PropagationConfig(
            times=expm_times, method="superoperator_expm")).metadata
        assert again["matvecs"] == ex["matvecs"]
        rho0 = run.initial.to_density().matrix
        T = _reachable_states(gen, rho0)
        block, _ = _reachable_block(gen, rho0, T)
        states, nnz = int(T.size), block.data.size
        # the four populations and the coherence pair of one excitation:
        # rho is block diagonal over {|00>}, {|10>, |01>} and {|11>}
        assert states == 4 and rk["reachable"]["entries"] == 6
        assert rk["reachable"]["integrated"] == ex["reachable"]["integrated"] == 5
        assert rk["positivity_blocks"] == {"count": 3, "largest": 2}
        assert rk["states"] == ex["states"] == states
        assert rk["nnz"] == ex["nnz"] == nnz
        assert (rk["rk4_substeps"], rk["matvecs"], rk["expm_actions"]) == (
            substeps, 4 * substeps + times.size, 0)
        assert (ex["rk4_substeps"], ex["expm_actions"]) == (0, expm_times.size - 1)
        # the largest step, 0.69 / 7, times the largest column sum of |S_R|
        norm = float(abs(as_scipy(block)).sum(axis=0).max())
        assert rk["rk4_step_norm"] == pytest.approx(max(
            g / max(1, math.ceil(g / dt)) for g in np.diff(times)) * norm, rel=1e-14)
        assert ex["rk4_step_norm"] == 0.0
        mu, A = _shifted(block)
        plans = list(map(_taylor_planner(A, mu), np.diff(expm_times)))
        terms = sum(len(a) * s for chunks, _, _ in plans for a, s, _ in chunks)
        spent = sum(spent for *_, spent in plans)
        assert spent > 0
        assert ex["matvecs"] == terms + spent + expm_times.size
        assert sorted(ex_products, key=lambda p: p[0] is _Half) == (
            [(_Padded, 1)] * spent + [(_Half, 1)] * (terms + expm_times.size))
        assert ex["positivity_blocks"] == rk["positivity_blocks"]

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_work_counters_from_plans(self, name):
        # each preset's default grid planned without stepping: matvecs are the
        # planned products of every gap taken, the norm estimates' products and
        # one per sample for the purity rate
        run = preset(name)
        gen = LindbladGenerator.from_network(run.spec)
        rho0 = run.initial.to_density().matrix
        block, R = _reachable_block(gen, rho0, _reachable_states(gen, rho0))
        gaps, takes = np.unique(np.diff(run.times), return_counts=True)
        work = []
        for method, counter in (("fixed_step_rk4", "rk4_substeps"),
                                ("superoperator_expm", "expm_actions")):
            step = _stepper(method, block, _Padded, PropagationConfig(times=run.times).dt)
            plans = [step.planner(float(gap)) for gap in gaps]
            products = sum(int(n) * len(a) * repeats for n, (chunks, _, _) in zip(takes, plans)
                           for a, repeats, _ in chunks)
            spent = sum(plan[2] for plan in plans)
            work += [products + spent + run.times.size,
                     sum(int(n) * plan[1][counter] for n, plan in zip(takes, plans))]
        assert (*work, R.size) == PRESET_WORK[name]

    def test_invariant_violation_pickles_with_its_point(self):
        exc = InvariantViolation("trace", 1.5, 2e-3, 1e-9, "params.J=2.0", "try again")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is InvariantViolation
        assert str(back) == str(exc)
        assert str(back).startswith("params.J=2.0: trace invariant violated at t=1.5")
        assert str(back).endswith("; try again")
        assert (back.invariant, back.time, back.value, back.bound, back.point,
                back.note) == ("trace", 1.5, 2e-3, 1e-9, "params.J=2.0", "try again")


def four_stage(M: _Padded, v: np.ndarray, h: float, n: int) -> np.ndarray:
    """n classic four-stage steps T_4(hM) on v in place, in the nested form
    v + hM(v + (h/2)M(v + (h/3)M(v + (h/4)M v))) with M's own product."""
    for _ in range(n):
        w = v
        for j in (4, 3, 2):
            w = M @ w
            w *= h / j
            w += v
        w = M @ w
        w *= h
        v += w
    return v


def exact_tail(x: float, m: int) -> tuple[Fraction, Fraction]:
    """Lower and upper bounds on sum_{k>m} x^k / k! for 0 <= x <= 1, in exact arithmetic.

    The sum of the 60 terms after m, and that plus twice the next term,
    which bounds the rest when x <= 1.
    """
    x = Fraction(x)
    terms = [x ** k / math.factorial(k) for k in range(m + 1, m + 62)]
    return sum(terms[:-1]), sum(terms[:-1]) + 2 * terms[-1]


class TestRungeKuttaChunks:
    """Runge-Kutta steps taken c at a time as one truncated polynomial of T_4."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_chunks_match_classic_stages(self, data):
        # random sparse complex blocks scaled to ||S||_1 = 1 (or all zero), so
        # that x = h ||S||_1 is drawn directly: 1e-4 to 3 covers chunks on both
        # sides of m < 4c and steps past theta = 1, which always take c = 1.
        # Growth per step is at most T_4(x) <= e^x, so n x <= 200 per gap keeps
        # the reference finite where RK4 is unstable
        d = data.draw(st.integers(1, 12), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        density = data.draw(st.floats(0.1, 1.0), label="density")
        S = scipy.sparse.random(d, d, density=density, format="csr", rng=rng,
                                dtype=complex, data_rvs=lambda k: (rng.normal(size=k)
                                                                   + 1j * rng.normal(size=k)))
        norm = float(abs(S).sum(axis=0).max())
        if norm:
            S = S / norm
        x = 10.0 ** data.draw(st.floats(-4.0, math.log10(3.0)), label="log10 x")
        counts = data.draw(st.lists(st.integers(1, min(2000, int(200 / x))),
                                    min_size=1, max_size=3), label="substeps")
        # dt a hair above h, so that a gap of n h takes exactly n steps
        h = x
        step = rk4_stepper(as_engine(S), h * (1 + 1e-9))
        M = step.M
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        ref = v.copy()
        for n in counts:
            gap = n * h
            h_n = gap / n
            before = v.copy()
            assert step(v, gap) is v
            ref = classic_rk4(S, ref, h_n, n)
            np.testing.assert_allclose(v, ref, rtol=0,
                                       atol=1e-12 * max(1.0, float(np.abs(ref).max())))
            xn = h_n * as_engine(S).norm
            c = n if xn == 0 else max(1, min(n, math.floor(1 / xn)))
            if c == 1:
                assert np.array_equal(v, four_stage(M, before, h_n, n))

    def test_degree_is_the_smallest_that_meets_the_tail_bound(self):
        u = Fraction(2) ** -53
        ladder = [0.0, 1e-300, 1e-16, 1e-12, 1e-8, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2,
                  0.25, 1 / 3, 0.5, 0.7, 0.9, 0.99, 1.0]
        degrees = []
        for x in ladder:
            m = _tail_degree(x)
            assert exact_tail(x, m)[1] <= u
            if m:
                assert exact_tail(x, m - 1)[0] > u
            degrees.append(m)
        assert degrees == sorted(degrees)
        assert (degrees[0], degrees[-1]) == (0, 18)

    def test_binary_powers_match_repeated_convolution(self):
        # up to degree 18, the most terms a chunk keeps
        step = np.array([1.0, 1.0, 1 / 2, 1 / 6, 1 / 24])
        full = np.ones(1)
        for c in range(1, 65):
            full = np.convolve(full, step)
            m = min(4 * c, 18)
            got = _rk4_power(c, m)
            assert got.shape == (m + 1,)
            np.testing.assert_allclose(got, full[:m + 1], rtol=1e-15, atol=0)

    def test_huge_gap_plans_and_runs_at_once(self):
        # 2**40 steps of h = 1 at ||S||_1 = 1e-13 are one chunk of a few terms;
        # step by step they would take 2**42 products
        rng = np.random.default_rng(7)
        S = scipy.sparse.random(6, 6, density=0.5, format="csr", rng=rng, dtype=complex,
                                data_rvs=lambda k: rng.normal(size=k) + 1j * rng.normal(size=k))
        S = 1e-13 * S / abs(S).sum(axis=0).max()
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        gap = 2.0 ** 40
        start = time.perf_counter()
        step = rk4_stepper(as_engine(S), 1.0)
        got = step(v.copy(), gap)
        assert time.perf_counter() - start < 0.1
        m = _tail_degree(gap * 1e-13)
        assert (step.counters["rk4_substeps"], step.products) == (2 ** 40, m)
        assert 0 < m < 16
        want = scipy.linalg.expm(gap * S.toarray()) @ v
        assert_close_relative(got, want, 1e-12)


def assert_close_relative(got: np.ndarray, want: np.ndarray, rtol: float) -> None:
    """Agreement to rtol in the max norm, relative to the reference's."""
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestTaylorAction:
    """The truncated Taylor action against SciPy's dense and sparse exponentials."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_expm(self, data):
        # random sparse complex non-normal blocks, the all-zero block among
        # them, or commutator blocks -i(I x H - H^T x I) of a closed system;
        # H holds eighths, so that when its rows sum to zero every row and
        # column of the block does too, exactly. |H_ij| <= 1/4 keeps
        # ||40 A||_1 below about 70, since a unitary step of norm near
        # theta_55 ~ 10 loses up to 1e-12 to rounding in its largest Taylor
        # terms, as in expm_multiply. Some decay on the diagonal makes the
        # trace shift matter. The shift is real, as the trace of a block that
        # keeps rho hermitian is, so a random block's mean imaginary diagonal
        # is moved out and the offset is real. Each block is applied over
        # several gaps from 1e-6 to 40
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        density = data.draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]), label="density")
        scale = data.draw(st.floats(0.05, 1.0), label="scale")
        if data.draw(st.booleans(), label="commutator"):
            d = data.draw(st.integers(1, 3), label="d")
            H = np.triu(rng.integers(-2, 3, (d, d)) * (rng.random((d, d)) < density))
            H = (H + H.T) / 8
            if data.draw(st.booleans(), label="balanced"):
                H -= np.diag(H.sum(axis=1))
            S = scipy.sparse.csr_matrix(-1j * (np.kron(np.eye(d), H) - np.kron(H.T, np.eye(d))))
            n = d * d
        else:
            n = data.draw(st.integers(1, 12), label="n")
            S = scale * scipy.sparse.random(
                n, n, density=density, format="csr", rng=rng, dtype=complex,
                data_rvs=lambda k: rng.normal(size=k) + 1j * rng.normal(size=k))
            S = S - (1j * S.diagonal().imag.mean()) * scipy.sparse.identity(n, format="csr")
        if data.draw(st.booleans(), label="offset"):
            offset = data.draw(st.floats(-1.0, 0.0), label="decay")
            S = S + offset * scipy.sparse.identity(n, dtype=complex, format="csr")
        S = scipy.sparse.csr_matrix(S)
        gaps = data.draw(st.lists(st.one_of(st.sampled_from([1e-6, 40.0]),
                                            st.floats(1e-6, 40.0)),
                                  min_size=1, max_size=4), label="gaps")
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        action = taylor_stepper(as_engine(S))
        for t in gaps:
            assert_close_relative(action(v.copy(), t), scipy.linalg.expm(t * S.toarray()) @ v,
                                  1e-12)

    @pytest.mark.parametrize("name", preset_names())
    def test_matches_expm_multiply_on_presets(self, name):
        # every preset's reachable block, at the distinct gaps of its grid and at 40
        run = preset(name)
        gen = LindbladGenerator.from_network(run.spec)
        rho0 = run.initial.to_density().matrix
        block, R = _reachable_block(gen, rho0, _reachable_states(gen, rho0))
        S = as_scipy(block)
        v = rho0.ravel(order="F")[R]
        action = taylor_stepper(block)
        for t in [*np.unique(np.diff(run.times)), 40.0]:
            assert_close_relative(action(v.copy(), float(t)), expm_multiply(S * float(t), v),
                                  1e-12)

    def test_closed_three_level_block(self):
        # the commutator block of H = -7/8 (|0><2| + |2><0|): from e/n, Hager's
        # estimate of ||A^2||_1 stalls at a quarter of it, and the steps it
        # would choose leave an error of about 1e-5
        H = np.zeros((3, 3))
        H[0, 2] = H[2, 0] = -0.875
        S = scipy.sparse.csr_matrix(-1j * (np.kron(np.eye(3), H) - np.kron(H.T, np.eye(3))))
        action = taylor_stepper(as_engine(S))
        AH = _Padded(as_engine(S.conj().T))
        assert _hager(action.M, AH, 2, np.full(9, 1 / 9 + 0j))[0] == pytest.approx(0.765625)
        assert _power_norm(action.M, AH, 2)[0] == pytest.approx(3.0625)
        v = np.arange(1.0, 10.0) - 4.0j
        assert_close_relative(action(v.copy(), 40.0),
                              scipy.linalg.expm(40.0 * S.toarray()) @ v, 1e-12)

    def test_zero_row_sums_go_on_to_the_adjoint(self):
        # the two nonzero rows are orthogonal to e and to the alternating
        # vector, so A^p e = 0 exactly; only the adjoint step from sign(0) = 1
        # finds the nonzero powers. ||40 A||_1 = 100
        A = np.zeros((4, 4), dtype=complex)
        A[0] = [0, 11, -2, -9]
        A[2] = [2, -9, 0, 7]
        S = scipy.sparse.csr_matrix(A / 8)
        alt = np.linspace(1.0, 2.0, 4) * (-1.0) ** np.arange(4)
        assert not np.any(S @ np.ones(4)) and not np.any(S @ alt)
        action = taylor_stepper(as_engine(S))
        AH = _Padded(as_engine(S.conj().T))
        for p in range(1, 10):
            assert 0 < _hager(action.M, AH, p, np.full(4, 0.25 + 0j))[0] <= np.linalg.norm(
                np.linalg.matrix_power(A / 8, p), 1)
        v = np.array([1.0, -2.0j, 0.5, 3.0])
        assert_close_relative(action(v.copy(), 40.0),
                              scipy.linalg.expm(40.0 * S.toarray()) @ v, 1e-12)

    def test_closed_congestion_preset_oscillates(self):
        # four_site_congestion with both transfer rates 0 is the closed dimer
        # of splitting J: population_1 = cos^2(J t / 2). Started on one site,
        # e is an eigenvector of H on the reachable block, so every row and
        # column of the block sums to zero, yet ||40 A||_1 = 40 needs five steps
        run = preset("four_site_congestion", gamma=0.0, gamma_b=0.0, excitations=1)
        gen = LindbladGenerator.from_network(run.spec)
        times = np.array([0.0, 40.0])
        traj = propagate(gen, run.initial, PropagationConfig(
            times=times, method="superoperator_expm"))
        np.testing.assert_allclose(traj.population("1"), np.cos(times / 2) ** 2,
                                   rtol=0, atol=1e-12)

    def test_powers_set_the_steps(self):
        # A^2 = 0 while ||tA||_1 = 100: the power norms, not ||A||_1, decide,
        # and one Taylor term is exact
        S = scipy.sparse.csr_matrix(([50.0 + 0j], ([0], [1])), shape=(3, 3))
        action = taylor_stepper(as_engine(S))
        assert [(len(a), s) for a, s, _ in action.planner(2.0)[0]] == [(1, 1)]
        v = np.array([0.5, 1.0 - 2.0j, 3.0])
        np.testing.assert_array_equal(action(v.copy(), 2.0), v + 2.0 * (S @ v))


class TestSectorFilter:
    """propagate integrates only the reachable entries of vec(rho).

    full_space_run, which steps every entry, is the reference.

    The "declines" cases are those a number-conserving sector could not
    cover; the reachable reduction still applies to each of them.
    """

    def conserving_model(self):
        # dimer with a downstream transfer and dephasing: conserves total number
        spec = NetworkSpec(
            sites=tuple(SiteDescriptor(str(k), "qubit", 2) for k in (1, 2, 3)),
            hoppings=(("1", "2", 0.5),),
            jumps=(Transfer("2", "3", 0.3), Dephasing("1", 0.1)),
        )
        return LindbladGenerator.from_network(spec)

    def test_engages_and_matches_full_run(self):
        gen = self.conserving_model()
        basis = gen.basis
        rho0 = basis_state(basis, (1, 0, 0))
        inside = (basis.index((1, 0, 0)), basis.index((0, 1, 0)))
        outside = (basis.index((1, 1, 0)), basis.index((0, 0, 0)))
        times = np.linspace(0.0, 5.0, 11)
        pairs = (inside, outside)
        traj = propagate(gen, rho0, PropagationConfig(times=times, dt=5e-3, coherences=pairs,
                                                    snapshots="last"))
        ref = full_space_run(gen, rho0.to_density().matrix, times, pairs, dt=5e-3)
        # |100>, |010> and their coherences, plus |001> fed only by the jump
        assert traj.metadata["reachable"] == {"entries": 5, "integrated": 4, "of": 64}
        np.testing.assert_allclose(traj.populations, ref["populations"], atol=1e-10)
        np.testing.assert_allclose(traj.purity, ref["purity"], atol=1e-10)
        # five basis states are never occupied; their zero eigenvalues set the floor
        np.testing.assert_allclose(traj.min_eigenvalue, ref["min_eigenvalue"], atol=1e-10)
        np.testing.assert_allclose(traj.coherences[inside], ref["coherences"][inside],
                                   atol=1e-10)
        assert np.all(traj.coherences[outside] == 0.0)
        np.testing.assert_allclose(traj.coherences[outside], ref["coherences"][outside],
                                   atol=1e-10)
        # snapshots come back embedded in the full space
        assert traj.snapshots[-1].shape == (8, 8)
        np.testing.assert_allclose(traj.snapshots[-1], ref["snapshot"][-1], atol=1e-10)

    def assert_matches_full_space(self, gen, support, seed):
        """propagate against full_space_run at both methods, from a fully
        coherent mixture on the basis states in support.

        Where the reference's lambda_min first falls below the positivity
        bound by more than 1e-10, propagate must raise there; a draw whose
        reference comes within 1e-10 of the bound is rejected, since the
        two may round to either side of it.
        """
        D = gen.dimension
        rho0 = coherent_mixture(D, support, seed)
        # each jump shifts both occupations of |a><b| alike, so a reachable
        # entry keeps an occupation difference the initial support has
        nvec = gen.basis.occupation_table.sum(axis=1)
        q = nvec[:, None] - nvec[None, :]
        bound = int(np.isin(q, q[np.ix_(support, support)]).sum())
        pairs = ((support[1], 0), (D - 1, 1))
        times = np.linspace(0.0, 2.0, 5)
        for method in ("fixed_step_rk4", "superoperator_expm"):
            config = PropagationConfig(times=times, dt=1e-2, method=method,
                                       coherences=pairs, snapshots="all")
            ref = full_space_run(gen, rho0, times, pairs, method, dt=1e-2)
            low = np.flatnonzero(ref["min_eigenvalue"] < -POSITIVITY_TOL + 1e-10)
            if low.size:
                if ref["min_eigenvalue"][low[0]] >= -POSITIVITY_TOL - 1e-10:
                    reject()
                with pytest.raises(InvariantViolation) as info:
                    propagate(gen, rho0, config)
                assert (info.value.invariant, info.value.time) == ("positivity",
                                                                   times[low[0]])
                continue
            traj = propagate(gen, rho0, config)
            assert traj.metadata["reachable"]["entries"] <= bound
            for name in ("populations", "purity", "purity_rate", "trace",
                         "min_eigenvalue"):
                np.testing.assert_allclose(getattr(traj, name), ref[name],
                                           atol=1e-10, err_msg=name)
            for pair in pairs:
                np.testing.assert_allclose(traj.coherences[pair], ref["coherences"][pair],
                                           atol=1e-10)
            np.testing.assert_allclose(np.array(traj.snapshots), ref["snapshot"],
                                       atol=1e-10)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_reduction_matches_full_space(self, data):
        # lossy and dephased qubit networks (D <= 8), pumped or not, started
        # from mixed states whose support spans several occupation sectors
        n = data.draw(st.integers(2, 3), label="sites")
        labels = [str(k) for k in range(n)]
        site = st.sampled_from(labels)
        rate = st.floats(0.05, 1.0)
        jumps = [Extraction(data.draw(site), data.draw(rate)),
                 Dissipation(data.draw(site), data.draw(rate)),
                 Dephasing(data.draw(site), data.draw(rate))]
        if data.draw(st.booleans(), label="pumped"):
            jumps.append(Injection(data.draw(site), data.draw(rate)))
        spec = NetworkSpec(
            sites=tuple(SiteDescriptor(lbl, "qubit", 2) for lbl in labels),
            hoppings=tuple((a, b, data.draw(st.floats(0.1, 2.0), label="J"))
                           for a, b in zip(labels, labels[1:])),
            jumps=tuple(jumps),
        )
        gen = LindbladGenerator.from_network(spec)
        # the vacuum plus up to three occupied states
        extra = data.draw(st.lists(st.integers(1, gen.dimension - 1), min_size=1,
                                   max_size=3, unique=True), label="support")
        self.assert_matches_full_space(gen, [0, *extra],
                                       data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def test_rk4_below_the_positivity_bound_raises(self):
        # a strongly damped draw of the property test above: at dt = 1e-2,
        # RK4 takes lambda_min to -2.6e-9 at t = 0.5 (the exact value is 0),
        # in the full-space reference as in the engine
        spec = NetworkSpec(
            sites=tuple(SiteDescriptor(str(k), "qubit", 2) for k in range(3)),
            hoppings=(("0", "1", 0.125), ("1", "2", 2.0)),
            jumps=(Extraction("0", 1.0), Dissipation("0", 1.0), Dephasing("0", 0.25)),
        )
        gen = LindbladGenerator.from_network(spec)
        with pytest.raises(InvariantViolation, match="positivity invariant violated at t=0.5"):
            propagate(gen, coherent_mixture(gen.dimension, [0, 1, 2, 5], 0),
                      PropagationConfig(times=np.linspace(0.0, 2.0, 5), dt=1e-2))
        self.assert_matches_full_space(gen, [0, 1, 2, 5], 0)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_state_restriction_matches_full_search(self, data):
        # the search on the whole space, from the support of rho and of its
        # transpose; it holds the mirror of each entry it reaches
        gen, rho, _ = draw_raw_case(data)
        D = gen.dimension
        S_full = _superoperator_csr(gen)
        start = (rho != 0) | (rho.T != 0)
        R_full = np.flatnonzero(_closure(S_full.indices, S_full.rows, start.ravel(order="F")))
        block, R = _reachable_block(gen, rho, _reachable_states(gen, rho))
        np.testing.assert_array_equal(R, R_full)
        np.testing.assert_array_equal(np.sort(mirror(R, D)), R)
        assert_same_csr(block, as_scipy(S_full)[R_full][:, R_full])

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_recorder_matches_full_scatter(self, data):
        # the recorder reads the half vector v_U through index maps; the
        # reference scatters each sample and its mirrors' conjugates into the
        # full matrix. Samples: a diagonally dominant hermitian matrix cut to
        # U (every block positive), the same with small noise, real on the
        # diagonal, and a random vector, whose diagonal is not real. Purity and
        # its rate read v_U as hermitian, so they are compared on real diagonals
        gen, rho, rng = draw_raw_case(data)
        D = gen.dimension
        S, R = _reachable_block(gen, rho, _reachable_states(gen, rho))
        U = R[R % D <= R // D]
        A = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        X = A + A.conj().T
        X += np.diag(np.abs(X).sum(axis=1) + 1.0)
        x = X.ravel(order="F")[U]
        noise = np.array([1.0, 1j]) @ rng.normal(size=(2, U.size))
        on_diagonal = U % D == U // D
        samples = [x, x + 1e-3 * np.where(on_diagonal, noise.real, noise),
                   rng.normal(size=U.size) + 1j * noise]
        pairs = tuple(data.draw(st.lists(st.tuples(st.integers(0, D - 1),
                                                   st.integers(0, D - 1)),
                                         max_size=4, unique=True), label="pairs"))
        pairs += ((int(R[0] % D), int(R[0] // D)), (int(R[-1] % D), int(R[-1] // D)))
        config = PropagationConfig(times=np.arange(float(len(samples))),
                                   coherences=pairs, snapshots="all")
        rec = _Recorder(gen, config, _Half(S, R, D), U)
        for k, v in enumerate(samples):
            # a sample that breaks a bound is stored before the bound is checked
            with contextlib.suppress(InvariantViolation):
                rec.record(k, float(k), v)
            # the mirrors first, so that each diagonal entry keeps v's value
            ref = reference_record(gen, np.concatenate([mirror(U, D), U]),
                                   np.concatenate([v.conj(), v]), pairs)
            assert rec.traj.hermiticity_defect[k] == ref["defect"]
            assert rec.traj.trace[k] == ref["trace"]
            assert np.array_equal(rec.traj.populations[k], ref["populations"])
            assert abs(rec.traj.min_eigenvalue[k] - ref["min_eigenvalue"]) <= 1e-12
            assert [rec.traj.coherences[p][k] for p in pairs] == ref["coherences"]
            assert np.array_equal(rec.traj.snapshots[k], ref["snapshot"])
            if k == 2:
                continue
            w = ref["snapshot"].ravel(order="F")[R]
            purity = float(np.vdot(w, w).real)
            rate = 2.0 * float(np.vdot(w, as_scipy(S) @ w).real)
            assert abs(rec.traj.purity[k] - purity) <= 1e-13 * purity
            assert abs(rec.traj.purity_rate[k] - rate) <= 1e-13 * float(
                np.abs(w) @ (abs(as_scipy(S)) @ np.abs(w)))
        # the positivity blocks are the components of the touched states
        touched, edges = np.unique(np.concatenate([R % D, R // D]), return_inverse=True)
        graph = scipy.sparse.csr_matrix((np.ones(R.size), (edges[:R.size], edges[R.size:])),
                                        shape=(touched.size, touched.size))
        count, labels = connected_components(graph, connection="weak")
        assert rec.positivity_blocks == {"count": count,
                                         "largest": int(np.bincount(labels).max())}

    def test_recorder_fails_a_nan_sample(self):
        # NaN in an off-diagonal entry of v_U leaves the trace and the
        # hermiticity defect finite; eigvalsh does not converge on the 3 x 3
        # block, whose minimum NaN breaks the positivity bound. An imaginary
        # part on the diagonal breaks the hermiticity bound. The error quotes
        # the note of the stepper that reached the sample, and none without one
        gen = random_generator(0, 3, 1)
        rho = random_density(1, 3)
        S, R = _reachable_block(gen, rho, _reachable_states(gen, rho))
        U = R[R % 3 <= R // 3]
        rec = _Recorder(gen, PropagationConfig(times=np.array([0.0])), _Half(S, R, 3), U)
        v = rho.ravel(order="F")[U]
        assert U[1] == 3
        v[1] = np.nan
        with pytest.raises(InvariantViolation,
                           match=r"^positivity invariant violated at t=0: measured nan, "
                                 r"bound -1\.000e-09$"):
            rec.record(0, 0.0, v)
        assert rec.traj.trace[0] == pytest.approx(1.0)
        assert rec.traj.hermiticity_defect[0] < 1e-15
        v = rho.ravel(order="F")[U]
        v[0] += 1e-9j
        with pytest.raises(InvariantViolation,
                           match=r"^hermiticity invariant violated at t=0: measured 2\.000e-09, "
                                 r"bound 1\.000e-09; the largest RK4 step"):
            rec.record(0, 0.0, v, rk4_stepper(S, 0.1))

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_reachable_entries_match_breadth_first_order(self, data):
        # canonical complex patterns (no stored zeros, as _superoperator_csr
        # builds them) with purely imaginary entries, against csgraph's
        # search from a virtual source node
        n = data.draw(st.integers(1, 12), label="n")
        cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                             st.sampled_from([1.0, 1j, -0.5j, 2.0])),
                                   max_size=3 * n, unique_by=lambda c: c[:2]),
                          label="cells")
        rows, cols, vals = zip(*cells) if cells else ((), (), ())
        S = scipy.sparse.csr_matrix((np.array(vals, dtype=complex), (rows, cols)),
                                    shape=(n, n))
        assert S.has_canonical_format and S.nnz == len(cells)
        v0 = np.zeros(n, dtype=complex)
        v0[data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True),
                     label="support")] = 1.0
        T = S.tocoo()
        sources = np.flatnonzero(v0)
        G = scipy.sparse.csr_matrix(
            (np.ones(T.nnz + sources.size),
             (np.concatenate([T.col, np.full(sources.size, n)]),
              np.concatenate([T.row, sources]))), shape=(n + 1, n + 1))
        order = breadth_first_order(G, n, directed=True, return_predecessors=False)
        rows = _Csr(S.data, S.indices, S.indptr).rows
        np.testing.assert_array_equal(np.flatnonzero(_closure(S.indices, rows, v0 != 0)),
                                      np.sort(order[1:]))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_graph_searches_match_csgraph(self, data):
        # random directed graphs with isolated nodes, self-loops and
        # duplicate edges
        n = data.draw(st.integers(1, 30), label="n")
        node = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(node, node), max_size=2 * n), label="edges")
        src, dst = (np.array(e, dtype=np.int64) for e in zip(*edges)) if edges else (
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        G = scipy.sparse.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
        count, labels = connected_components(G, directed=True, connection="weak")
        mine = _weak_components(n, src, dst)
        assert mine[0] == count
        np.testing.assert_array_equal(mine[1], labels)
        starts = data.draw(st.lists(node, min_size=1, unique=True), label="start")
        start = np.zeros(n, dtype=bool)
        start[starts] = True
        # csgraph's search from a virtual source n joined to every start node
        H = scipy.sparse.csr_matrix(
            (np.ones(src.size + len(starts)),
             (np.concatenate([src, np.full(len(starts), n)]),
              np.concatenate([dst, starts]))), shape=(n + 1, n + 1))
        reach = breadth_first_order(H, n, directed=True, return_predecessors=False)
        np.testing.assert_array_equal(np.flatnonzero(_closure(src, dst, start)),
                                      np.sort(reach[1:]))

    def test_declines_for_number_changing_jumps(self):
        spec = NetworkSpec(
            sites=(SiteDescriptor("1", "qubit", 2), SiteDescriptor("2", "qubit", 2)),
            hoppings=(("1", "2", 1.0),),
            jumps=(Injection("1", 0.2),),
        )
        gen = LindbladGenerator.from_network(spec)
        traj = propagate(gen, basis_state(gen.basis, (0, 0)),
                         PropagationConfig(times=np.array([0.0, 1.0])))
        # the populations and coherences of equal total occupation
        assert traj.metadata["reachable"] == {"entries": 6, "integrated": 5, "of": 16}

    def test_declines_for_mixed_sector_initial(self):
        gen = self.conserving_model()
        plus = np.zeros(8, dtype=complex)
        plus[gen.basis.index((1, 0, 0))] = 1 / np.sqrt(2)
        plus[gen.basis.index((1, 1, 0))] = 1 / np.sqrt(2)
        rho0 = np.outer(plus, plus.conj())
        traj = propagate(gen, rho0, PropagationConfig(times=np.array([0.0, 1.0])))
        assert traj.metadata["reachable"] == {"entries": 18, "integrated": 12, "of": 64}

    def test_declines_without_basis(self):
        gen_nb = LindbladGenerator(self.conserving_model().hamiltonian,
                                   self.conserving_model().jump_operators)
        traj = propagate(gen_nb, np.diag([0, 0, 0, 0, 1, 0, 0, 0.0]).astype(complex),
                         PropagationConfig(times=np.array([0.0, 1.0])))
        assert traj.metadata["reachable"] == {"entries": 5, "integrated": 4, "of": 64}
        assert traj.site_labels == ()


class TestHalfVector:
    """propagate integrates only the half U of the reachable entries R, k <= l.

    The reference is the full-vector stepper: the plans propagate makes, taken
    with the complex-linear _Padded rows of the whole block on every entry of R.
    """

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_half_path_matches_full_vector_path(self, data):
        # raw sparse generators, or dense random ones, from hermitian states of
        # rank 1 (pure) up to their support's size, sparse or dense
        if data.draw(st.booleans(), label="raw"):
            gen, _, rng = draw_raw_case(data)
        else:
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            gen = random_generator(seed, data.draw(st.integers(2, 4), label="dim"),
                                   data.draw(st.integers(0, 2), label="jumps"))
            rng = np.random.default_rng(seed)
        D = gen.dimension
        support = data.draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=D,
                                     unique=True), label="support")
        rank = data.draw(st.integers(1, len(support)), label="rank")
        B = np.zeros((D, rank), dtype=complex)
        B[support] = rng.normal(size=(len(support), rank)) + 1j * rng.normal(
            size=(len(support), rank))
        rho = B @ B.conj().T
        rho /= rho.trace().real
        block, R = _reachable_block(gen, rho, _reachable_states(gen, rho))
        assert np.array_equal(np.sort(mirror(R, D)), R)
        upper = R % D <= R // D

        # on an exactly hermitian vector, the half product is the full one on U
        X = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        x = (X + X.conj().T).ravel(order="F")[R]
        for M in (block, _shifted(block)[1]):
            assert np.array_equal(_Half(M, R, D) @ x[upper], (_Padded(M) @ x)[upper])

        gaps = data.draw(st.lists(st.floats(1e-3, 0.3), min_size=1, max_size=3), label="gaps")
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        for method in ("fixed_step_rk4", "superoperator_expm"):
            traj = propagate(gen, rho, PropagationConfig(times=times, dt=1e-3, method=method,
                                                         snapshots="all"))
            assert traj.metadata["reachable"]["integrated"] == np.count_nonzero(upper)
            step = _stepper(method, block, _Padded, 1e-3)
            v = rho.ravel(order="F")[R]
            for k, snapshot in enumerate(traj.snapshots):
                if k:
                    step(v, float(times[k] - times[k - 1]))
                want = np.zeros(D * D, dtype=complex)
                want[R] = v
                assert_close_relative(snapshot.ravel(order="F"), want, 1e-12)
                assert abs(traj.purity[k] - np.vdot(v, v).real) <= 1e-12 * np.vdot(v, v).real

    def test_asymmetric_zero_pattern_is_integrated_and_audited_as_given(self):
        # rho[|100>, |001>] is 4e-13 and its mirror 0: the search starts from
        # rho and its transpose, so R holds both entries, and v_U holds the
        # upper one, 0. The run matches the full-space run of rho as given, and
        # its sample at t = 0 reports rho's own hermiticity defect
        gen = TestSectorFilter().conserving_model()
        basis = gen.basis
        a, b, c = (basis.index(occ) for occ in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        rho = np.zeros((8, 8), dtype=complex)
        rho[a, a], rho[b, b] = 0.6, 0.4
        rho[a, b] = 0.2 + 0.1j
        rho[b, a] = 0.2 - 0.1j
        rho[a, c] = 4e-13
        assert c < a
        times = np.linspace(0.0, 2.0, 5)
        pairs = ((a, c), (c, a), (a, b))
        traj = propagate(gen, DensityMatrix(rho, basis), PropagationConfig(
            times=times, dt=1e-3, coherences=pairs, snapshots="all"))
        assert traj.hermiticity_defect[0] == 4e-13
        assert traj.snapshots[0][a, c] == traj.snapshots[0][c, a] == 0.0
        ref = full_space_run(gen, rho, times, pairs)
        for name in ("populations", "purity", "trace", "min_eigenvalue"):
            np.testing.assert_allclose(getattr(traj, name), ref[name], atol=1e-10,
                                       err_msg=name)
        for pair in pairs:
            np.testing.assert_allclose(traj.coherences[pair], ref["coherences"][pair],
                                       atol=1e-10)
        np.testing.assert_allclose(np.array(traj.snapshots), ref["snapshot"], atol=1e-10)


DISSIPATIVE_RING = {"gamma_diss": 0.05, "gamma_deph": 0.02, "battery_dim": 2}


@functools.cache
def dissipative_ring_steady():
    """steady_states of lh1_ring with loss, dephasing and a two-level battery, solved once."""
    spec = preset("lh1_ring", **DISSIPATIVE_RING).spec
    return steady_states(LindbladGenerator.from_network(spec))


class TestSteadyStates:
    def test_unique_pump_state(self):
        run = preset("two_site_pump")
        gen = LindbladGenerator.from_network(run.spec)
        result = steady_states(gen)
        assert result.multiplicity == 1
        assert result.directions == ()
        assert result.residual < 1e-12
        assert result.state.trace().real == pytest.approx(1.0)
        # propagating far forward lands on the same state
        traj = propagate(gen, run.initial,
                         PropagationConfig(times=np.array([0.0, 120.0]),
                                           method="superoperator_expm",
                                           snapshots="last"))
        np.testing.assert_allclose(traj.snapshots[-1], result.state, atol=1e-9)

    def test_degenerate_dark_space(self):
        # pure transfer: |0,0>, |0,1>, |1,1> and their coherences are all dark
        run = preset("two_site_transfer")
        gen = LindbladGenerator.from_network(run.spec)
        result = steady_states(gen)
        assert result.multiplicity == 9
        assert len(result.directions) == 8
        # the dark coherences |00><01| etc. sit in blocks of their own
        assert result.blocks == {"count": 15, "largest": 2, "of": 16}
        # minimum-norm representative: even mixture of the dark kets
        expect = np.diag([1, 1, 0, 1]).astype(complex) / 3.0
        np.testing.assert_allclose(result.state, expect, atol=1e-10)
        for d in result.directions:
            assert abs(np.trace(d)) < 1e-10
            np.testing.assert_allclose(d, d.conj().T, atol=1e-10)

    def test_every_direction_is_stationary(self):
        run = preset("two_site_transfer")
        gen = LindbladGenerator.from_network(run.spec)
        S = scipy_superoperator(gen).toarray()
        result = steady_states(gen)
        for d in result.directions:
            assert np.abs(S @ d.ravel(order="F")).max() < 1e-10

    @staticmethod
    def draw_generator(data) -> LindbladGenerator:
        """Qubit chains (D <= 8) with any mix of loss, pumping and dephasing, or
        raw generators whose jumps feed one row from two columns."""
        if data.draw(st.booleans(), label="raw"):
            return draw_raw_case(data)[0]
        n = data.draw(st.integers(2, 3), label="sites")
        labels = [str(k) for k in range(n)]
        site = st.sampled_from(labels)
        rate = st.floats(0.05, 1.0)
        kinds = data.draw(st.lists(st.sampled_from([Extraction, Injection, Dephasing]),
                                   max_size=4), label="jumps")
        spec = NetworkSpec(
            sites=tuple(SiteDescriptor(lbl, "qubit", 2) for lbl in labels),
            hoppings=tuple((a, b, data.draw(st.floats(0.1, 2.0), label="J"))
                           for a, b in zip(labels, labels[1:])),
            jumps=tuple(kind(data.draw(site), data.draw(rate)) for kind in kinds),
        )
        return LindbladGenerator.from_network(spec)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_full_space_null_space(self, data):
        # against one null space of the whole dense superoperator
        gen = self.draw_generator(data)
        D = gen.dimension
        S = scipy_superoperator(gen).toarray()
        K = scipy.linalg.null_space(S)
        result = steady_states(gen)
        assert result.multiplicity == K.shape[1]
        # the minimum-norm trace-one element of the null space; it is
        # hermitian because the null space is closed under the adjoint
        traces = K[np.arange(D) * (D + 1)].sum(axis=0)
        ref = K @ (traces.conj() / np.vdot(traces, traces).real)
        np.testing.assert_allclose(result.state, ref.reshape(D, D, order="F"), atol=1e-9)
        assert np.array_equal(result.state, result.state.conj().T)
        dirs = result.directions
        assert len(dirs) == result.multiplicity - 1
        for d in dirs:
            assert np.abs(S @ d.ravel(order="F")).max() < 1e-10
            assert np.array_equal(d, d.conj().T)
            assert abs(np.trace(d)) < 1e-10
        gram = np.array([[np.vdot(a, b).real for b in dirs] for a in dirs])
        np.testing.assert_allclose(gram.reshape(len(dirs), len(dirs)), np.eye(len(dirs)),
                                   atol=1e-10)

        # the hermitian parts of K's columns span the hermitian part of the
        # null space, whose real dimension is K's complex one; state and
        # directions add nothing to that span and span it themselves
        def real_rank(mats):
            rows = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats])
            return np.linalg.matrix_rank(rows, tol=1e-8)

        cols = [k.reshape(D, D, order="F") for k in K.T]
        ref_parts = [0.5 * (c + c.conj().T) for c in cols] + [(c - c.conj().T) / 2j for c in cols]
        mine = [result.state, *dirs]
        assert real_rank(ref_parts) == real_rank(ref_parts + mine) == real_rank(mine) \
            == K.shape[1]

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the zero threshold 1e-10*sqrt(|S|_1 |S|_inf) counts the singular "
        "value 1.65e-10 beside nine exact zeros as zero, so steady_states reports "
        "multiplicity 11"))
    def test_small_singular_value_is_not_null(self):
        # a raw draw of test_matches_full_space_null_space, rebuilt entry by
        # entry in the order it was drawn: SciPy's null_space finds 10 null vectors
        D = 8
        rng = np.random.default_rng(74300)

        def sparse(pairs):
            M = np.zeros((D, D), dtype=complex)
            for i, j in pairs:
                M[i, j] = complex(*rng.normal(size=2))
            return M

        A = sparse([(0, 0), (0, 0), (3, 3), (3, 4)])
        jumps = (sparse([(0, 0), (0, 1)]), sparse([(0, 3), (0, 2)]))
        basis = ProductBasis(tuple(SiteDescriptor(str(k), "qubit", 2) for k in range(3)))
        gen = LindbladGenerator(A + A.conj().T, jumps, basis)
        K = scipy.linalg.null_space(scipy_superoperator(gen).toarray())
        assert steady_states(gen).multiplicity == K.shape[1]

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_certificates_match_the_svd_path(self, data):
        # an inverse that always fails sends every settled block to its SVD
        gen = self.draw_generator(data)
        result = steady_states(gen)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "inv", singular)
            ref = steady_states(gen)
        assert ref.settled["certified"] == ref.settled["bordered"] == 0
        assert sum(result.settled.values()) == ref.blocks["count"]
        assert result.multiplicity == ref.multiplicity
        assert result.blocks == ref.blocks
        np.testing.assert_allclose(np.sort_complex(result.zero_eigenvalues),
                                   np.sort_complex(ref.zero_eigenvalues), rtol=0, atol=1e-12)
        # both paths are backward stable: their null vectors may part by about u
        # times cond = |S|_2 / (S's smallest nonzero singular value), which is
        # 3e5 on some raw draws, where both states lie 3e-12 from SciPy's
        sv = np.linalg.svd(scipy_superoperator(gen).toarray(), compute_uv=False)
        cond = sv[0] / sv[-1 - ref.multiplicity]
        np.testing.assert_allclose(result.state, ref.state, rtol=0, atol=max(1e-12, 1e-15 * cond))

        def real_rows(mats):
            return np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats])

        mine, theirs = real_rows([result.state, *result.directions]), \
            real_rows([ref.state, *ref.directions])
        assert np.linalg.matrix_rank(np.vstack([mine, theirs]), tol=1e-8) \
            == np.linalg.matrix_rank(mine, tol=1e-8) == ref.multiplicity

    def test_chain_steady_settles_without_block_svd(self):
        # open_chain_pump N = 5: the state block by a bordered solve, five blocks
        # certified free of null vectors, and their five mirrors by conjugation
        for rates in ({}, {"gamma_in": 0.1, "gamma_out": 0.5}, {"gamma_in": 0.5, "gamma_out": 0.1}):
            result = steady_states(LindbladGenerator.from_network(
                preset("open_chain_pump", N=5, **rates).spec))
            assert result.settled == {"certified": 5, "bordered": 1, "mirrored": 5,
                                      "factored": 0}
            assert result.multiplicity == 1
            assert result.residual < 1e-12

    @pytest.mark.parametrize("name, params", [(name, {}) for name in preset_names()]
                             + [("lh1_ring", DISSIPATIVE_RING)],
                             ids=[*preset_names(), "lh1_ring_dissipative"])
    def test_state_and_directions_are_exactly_hermitian(self, name, params):
        # T y of real coordinates y puts the conjugate of entry (k, l) at (l, k), bit for bit
        result = dissipative_ring_steady() if params else steady_states(
            LindbladGenerator.from_network(preset(name).spec))
        for m in (result.state, *result.directions):
            assert np.array_equal(m, m.conj().T)

    def test_dissipative_ring_settles_real_blocks_with_several_null_vectors(self):
        # D = 128: the 1,008-entry block that holds the diagonal, settled in real
        # coordinates, holds 3 null vectors; 3 mirror pairs give 2 hermitian ones each
        result = dissipative_ring_steady()
        assert result.multiplicity == 9
        assert result.settled == {"certified": 61, "bordered": 0, "mirrored": 64,
                                  "factored": 4}
        assert result.blocks == {"count": 129, "largest": 1008, "of": 16384}
        assert result.residual < 1e-12
        assert result.state.trace().real == pytest.approx(1.0)

    def test_dimension_beyond_dense_limit(self):
        # seven decaying qubits, D = 128: the blocks are labelled by where
        # row and column kets differ, 3**7 of them with at most 128 entries
        labels = [str(k) for k in range(7)]
        spec = NetworkSpec(
            sites=tuple(SiteDescriptor(lbl, "qubit", 2) for lbl in labels),
            onsite=tuple((lbl, 0.1 * (k + 1)) for k, lbl in enumerate(labels)),
            jumps=tuple(Dissipation(lbl, 0.3) for lbl in labels),
        )
        gen = LindbladGenerator.from_network(spec)
        result = steady_states(gen)
        assert result.blocks == {"count": 3**7, "largest": 128, "of": 128 * 128}
        assert result.multiplicity == 1
        assert result.residual < 1e-12
        vacuum = np.zeros((128, 128), dtype=complex)
        vacuum[0, 0] = 1.0
        np.testing.assert_allclose(result.state, vacuum, atol=1e-12)

    def test_threshold_scales_with_the_generator(self):
        # S -> c S keeps the null space; near the float limit |S|_1 |S|_inf
        # itself overflows, and the threshold must not. At small c no absolute
        # floor may swallow the small singular values as zeros; no step may warn
        gen = random_generator(0, 3, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = steady_states(gen).multiplicity
            for c in (1e-200, 1e-11, 1e-10, 1e200, 1e300):
                big = LindbladGenerator(c * gen.hamiltonian,
                                        tuple(math.sqrt(c) * L for L in gen.jump_operators))
                assert steady_states(big).multiplicity == want

    def test_oversized_block_refused_before_dense_work(self, monkeypatch):
        # a dense random H couples every entry: one block of 65**2 > 64**2
        gen = random_generator(0, 65, 0)

        def no_dense_work(*args, **kwargs):
            raise AssertionError("dense work started")

        monkeypatch.setattr(np.linalg, "svd", no_dense_work)
        monkeypatch.setattr(np.linalg, "inv", no_dense_work)
        with pytest.raises(ValueError, match=r"4225 entries, above the cap of 4096"):
            steady_states(gen)
