"""Tests for basis construction, indexing, embedded operators, and states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindnet.hilbert import (
    DensityMatrix,
    ProductBasis,
    PureState,
    SiteDescriptor,
    _operator_triplet,
    basis_state,
    dicke_state,
)

from kron_reference import embedded, kron_chain


def qubit(label):
    return SiteDescriptor(label, "qubit", 2)


def spin(label, dim):
    return SiteDescriptor(label, "spin", dim)


class TestSiteDescriptor:
    def test_qubit_dim_forced(self):
        with pytest.raises(ValueError, match="dim 2"):
            SiteDescriptor("a", "qubit", 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SiteDescriptor("a", "boson", 4)

    def test_min_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            SiteDescriptor("a", "spin", 1)

    def test_empty_label(self):
        with pytest.raises(ValueError, match="label"):
            SiteDescriptor("", "qubit", 2)

    @pytest.mark.parametrize("dim,s", [(2, 0.5), (3, 1.0), (5, 2.0)])
    def test_spin_quantum_number(self, dim, s):
        assert spin("b", dim).spin == s


# random site lists: mixed qubits and small spins
sites_strategy = st.lists(
    st.tuples(st.sampled_from(["qubit", "spin"]), st.integers(2, 4)),
    min_size=1, max_size=4,
).map(lambda kinds: tuple(
    SiteDescriptor(f"s{k}", kind, 2 if kind == "qubit" else dim)
    for k, (kind, dim) in enumerate(kinds)))


class TestProductBasis:
    def test_first_site_most_significant(self):
        basis = ProductBasis((qubit("1"), qubit("2")))
        assert basis.index((0, 0)) == 0
        assert basis.index((0, 1)) == 1
        assert basis.index((1, 0)) == 2
        assert basis.index((1, 1)) == 3

    def test_mixed_radix(self):
        basis = ProductBasis((qubit("q"), spin("b", 3)))
        assert basis.dimension == 6
        assert basis.index((1, 2)) == 5
        assert tuple(basis.occupation_table[4]) == (1, 1)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ProductBasis((qubit("a"), qubit("a")))

    def test_site_position(self):
        basis = ProductBasis((qubit("x"), qubit("y")))
        assert basis.site_position("y") == 1
        with pytest.raises(ValueError, match="unknown"):
            basis.site_position("z")

    def test_occupation_bounds(self):
        basis = ProductBasis((qubit("a"),))
        with pytest.raises(ValueError, match="out of range"):
            basis.index((2,))

    def test_occupation_table_readonly(self):
        basis = ProductBasis((qubit("a"), qubit("b")))
        with pytest.raises(ValueError):
            basis.occupation_table[0, 0] = 9

    @given(sites=sites_strategy, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_index_roundtrip(self, sites, data):
        basis = ProductBasis(sites)
        occ = tuple(data.draw(st.integers(0, s.dim - 1)) for s in sites)
        idx = basis.index(occ)
        assert 0 <= idx < basis.dimension
        assert tuple(basis.occupation_table[idx]) == occ


class TestEmbeddedOperators:
    def test_qubit_ladder_algebra(self):
        basis = ProductBasis((qubit("a"), qubit("b")))
        low, high, num, eye = (embedded(basis, {"a": kind})
                               for kind in ("lower", "raise", "number", "identity"))
        np.testing.assert_allclose(high @ low, num, atol=1e-15)
        np.testing.assert_allclose(low @ high, eye - num, atol=1e-15)

    def test_spin_ladder_elements(self):
        # S-|eta+1> = sqrt((eta+1)(2s-eta)) |eta>, s = 1
        basis = ProductBasis((spin("b", 3),))
        low = embedded(basis, {"b": "lower"})
        assert low[0, 1] == pytest.approx(np.sqrt(2.0))
        assert low[1, 2] == pytest.approx(np.sqrt(2.0))

    def test_unknown_kind(self):
        basis = ProductBasis((qubit("a"),))
        with pytest.raises(ValueError, match="op_kind"):
            _operator_triplet(basis, {"a": "parity"})

    def test_embedding_slot(self):
        basis = ProductBasis((qubit("a"), spin("b", 3), qubit("c")))
        num_b = embedded(basis, {"b": "number"})
        np.testing.assert_array_equal(np.diag(num_b).real,
                                      basis.occupation_table[:, 1])

    def test_different_sites_commute(self):
        basis = ProductBasis((qubit("a"), qubit("b")))
        ra = embedded(basis, {"a": "raise"})
        lb = embedded(basis, {"b": "lower"})
        np.testing.assert_allclose(ra @ lb, lb @ ra, atol=1e-15)

    @pytest.mark.parametrize("op_kind", ["lower", "raise", "number", "identity"])
    def test_matches_kron_chain_bitwise(self, op_kind):
        basis = ProductBasis((qubit("a"), spin("b", 3), qubit("c"), spin("d", 4)))
        for site in basis.sites:
            ops = {site.label: op_kind}
            assert np.array_equal(embedded(basis, ops), kron_chain(basis, ops))

    def test_product_matches_matmul_bitwise(self):
        basis = ProductBasis((qubit("a"), spin("b", 3), qubit("c"), spin("d", 4)))
        labels = [s.label for s in basis.sites]
        for first in labels:
            for second in labels:
                if first == second:
                    continue
                ref = embedded(basis, {first: "lower"}) @ embedded(basis, {second: "raise"})
                got = embedded(basis, {first: "lower", second: "raise"})
                assert np.array_equal(got, ref)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_products_match_kron_chain_bitwise(self, data):
        # the triplet build against the Kronecker chain it replaced, on
        # random site lists of D <= 512 and random maps over 1-3 sites
        sites = data.draw(site_lists(512))
        labels = [s.label for s in sites]
        chosen = data.draw(st.lists(st.sampled_from(labels), min_size=1,
                                    max_size=min(3, len(labels)), unique=True))
        ops = {lbl: data.draw(st.sampled_from(["lower", "raise", "number", "identity"]))
               for lbl in chosen}
        basis = ProductBasis(tuple(sites))
        got = embedded(basis, ops)
        ref = kron_chain(basis, ops)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@st.composite
def site_lists(draw, max_dim):
    """Qubits and spins of dimension 2-4 with a product of dimensions <= max_dim."""
    sites, dim = [], 1
    while not sites or (dim * 2 <= max_dim and draw(st.booleans())):
        d = draw(st.integers(2, min(4, max_dim // dim)))
        kind = "qubit" if d == 2 and draw(st.booleans()) else "spin"
        sites.append(SiteDescriptor(f"s{len(sites)}", kind, d))
        dim *= d
    return sites


class TestStates:
    def test_basis_state(self):
        basis = ProductBasis((qubit("a"), qubit("b")))
        psi = basis_state(basis, (1, 0))
        assert psi.amplitudes[2] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_pure_state_norm_enforced(self):
        basis = ProductBasis((qubit("a"),))
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]), basis)

    def test_pure_state_rejects_nan(self):
        basis = ProductBasis((qubit("a"),))
        with pytest.raises(ValueError, match="norm nan"):
            PureState(np.array([np.nan, 0.0]), basis)

    def test_to_density_is_projector(self):
        basis = ProductBasis((qubit("a"), qubit("b")))
        psi = PureState(np.full(4, 0.5, dtype=complex), basis)
        rho = psi.to_density()
        np.testing.assert_allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-14)
        assert rho.matrix.trace() == pytest.approx(1.0)

    def test_density_matrix_rejects_nonhermitian(self):
        basis = ProductBasis((qubit("a"),))
        m = np.array([[0.5, 1e-6], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity"):
            DensityMatrix(m, basis)

    def test_density_matrix_rejects_bad_trace(self):
        basis = ProductBasis((qubit("a"),))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex), basis)

    def test_density_matrix_rejects_negative(self):
        basis = ProductBasis((qubit("a"),))
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.1, -0.1]).astype(complex), basis)

    def test_density_matrix_rejects_nan(self):
        basis = ProductBasis((qubit("a"),))
        with pytest.raises(ValueError, match="Hermiticity deviation nan"):
            DensityMatrix(np.full((2, 2), np.nan), basis)

    def test_density_matrix_accepts_tiny_negative(self):
        basis = ProductBasis((qubit("a"),))
        DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]).astype(complex), basis)

    def test_matrix_is_locked(self):
        basis = ProductBasis((qubit("a"),))
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), basis)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0


class TestDickeState:
    def test_equal_weights(self):
        basis = ProductBasis(tuple(qubit(f"r{k}") for k in range(1, 5)))
        psi = dicke_state(basis, [f"r{k}" for k in range(1, 5)], 2)
        amps = psi.amplitudes
        hot = amps[np.abs(amps) > 0]
        assert hot.size == 6
        np.testing.assert_allclose(hot, 1.0 / np.sqrt(6.0))
        # support is exactly the two-excitation configurations
        occ = basis.occupation_table[np.abs(amps) > 0]
        assert set(occ.sum(axis=1)) == {2}

    def test_subset_of_sites(self):
        basis = ProductBasis((qubit("r1"), qubit("r2"), qubit("c")))
        psi = dicke_state(basis, ["r1", "r2"], 1)
        # the unnamed site stays empty
        occ = basis.occupation_table[np.abs(psi.amplitudes) > 0]
        assert set(occ[:, 2]) == {0}

    def test_vacuum(self):
        basis = ProductBasis((qubit("a"), qubit("b")))
        psi = dicke_state(basis, ["a", "b"], 0)
        assert psi.amplitudes[0] == 1.0

    def test_range_check(self):
        basis = ProductBasis((qubit("a"), qubit("b")))
        with pytest.raises(ValueError, match="out of range"):
            dicke_state(basis, ["a", "b"], 3)

    def test_spin_site_rejected(self):
        basis = ProductBasis((qubit("a"), spin("b", 3)))
        with pytest.raises(ValueError, match="qubit"):
            dicke_state(basis, ["a", "b"], 1)

