"""Unit and property tests for the Pauli algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.paulis import PAULI_MATRICES, PauliString, PauliSum, PauliTable, random_pauli


def dense(label: str) -> np.ndarray:
    sign = 1
    if label.startswith("-"):
        sign, label = -1, label[1:]
    out = np.array([[1.0 + 0j]])
    for ch in label:
        out = np.kron(out, PAULI_MATRICES[ch])
    return sign * out


labels = st.text(alphabet="IXYZ", min_size=1, max_size=6)
signed_labels = st.tuples(st.sampled_from(["", "-"]), labels).map(lambda t: t[0] + t[1])


class TestPauliString:
    def test_from_label_roundtrip(self):
        for lbl in ["IXYZ", "-ZZXY", "I", "-Y", "XX"]:
            assert PauliString.from_label(lbl).to_label() == lbl

    def test_identity(self):
        p = PauliString.identity(4)
        assert p.is_identity and p.is_z_type and p.weight == 0
        assert p.sign == 1 and p.expectation_all_zeros() == 1.0

    def test_from_sparse(self):
        p = PauliString.from_sparse({0: "X", 3: "Z"}, 5)
        assert p.to_label() == "XIIZI"
        p = PauliString.from_sparse({1: "Y"}, 2, sign=-1)
        assert p.to_label() == "-IY"

    def test_invalid_label_raises(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")

    def test_sparse_out_of_range_raises(self):
        with pytest.raises(ValueError):
            PauliString.from_sparse({7: "X"}, 3)

    @given(signed_labels)
    @settings(max_examples=80)
    def test_to_matrix_matches_dense(self, lbl):
        p = PauliString.from_label(lbl)
        np.testing.assert_allclose(p.to_matrix(), dense(lbl), atol=1e-12)

    @given(labels, labels)
    @settings(max_examples=80)
    def test_multiplication_matches_dense(self, a, b):
        n = max(len(a), len(b))
        a, b = a.ljust(n, "I"), b.ljust(n, "I")
        pa, pb = PauliString.from_label(a), PauliString.from_label(b)
        product = pa * pb
        expected = dense(a) @ dense(b)
        got = product.phase * 1j ** int(np.count_nonzero(product.x & product.z))
        body = dense(product.to_label(with_sign=False))
        np.testing.assert_allclose(got * body, expected, atol=1e-12)

    @given(labels, labels)
    @settings(max_examples=80)
    def test_commutation_matches_dense(self, a, b):
        n = max(len(a), len(b))
        a, b = a.ljust(n, "I"), b.ljust(n, "I")
        pa, pb = PauliString.from_label(a), PauliString.from_label(b)
        da, db = dense(a), dense(b)
        commute_dense = np.allclose(da @ db, db @ da)
        assert pa.commutes_with(pb) == commute_dense

    @given(labels)
    @settings(max_examples=40)
    def test_self_product_is_identity(self, a):
        p = PauliString.from_label(a)
        assert (p * p).is_identity
        assert (p * p).sign == 1

    def test_neg(self):
        p = PauliString.from_label("XY")
        assert (-p).sign == -1
        assert (-(-p)) == p

    def test_expectation_all_zeros(self):
        assert PauliString.from_label("ZZ").expectation_all_zeros() == 1.0
        assert PauliString.from_label("-ZI").expectation_all_zeros() == -1.0
        assert PauliString.from_label("XZ").expectation_all_zeros() == 0.0

    def test_weight_support(self):
        p = PauliString.from_label("IXYI")
        assert p.weight == 2
        np.testing.assert_array_equal(p.support, [1, 2])

    def test_hash_consistency(self):
        a = PauliString.from_label("XY")
        b = PauliString.from_label("XY")
        assert a == b and hash(a) == hash(b)

    def test_mismatched_sizes_raise(self):
        with pytest.raises(ValueError):
            PauliString.from_label("X") * PauliString.from_label("XX")

    def test_random_pauli_is_canonical_or_signed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_pauli(5, rng)
            assert p.sign in (1, -1)


class TestPauliTable:
    def test_from_labels_roundtrip(self):
        t = PauliTable.from_labels(["XX", "ZI", "-YZ"])
        assert t.num_rows == 3 and t.num_qubits == 2
        assert [p.to_label() for p in t.to_paulis()] == ["XX", "ZI", "-YZ"]

    def test_signs_and_ztype(self):
        t = PauliTable.from_labels(["ZZ", "-ZI", "XI", "II"])
        np.testing.assert_array_equal(t.signs(), [1, -1, 1, 1])
        np.testing.assert_array_equal(t.z_type_mask(), [True, True, False, True])
        np.testing.assert_array_equal(t.expectation_all_zeros(), [1, -1, 0, 1])

    def test_weights(self):
        t = PauliTable.from_labels(["IXI", "XYZ", "III"])
        np.testing.assert_array_equal(t.weights(), [1, 3, 0])

    def test_mul_pauli_on_rows_matches_pauli_mul(self):
        rng = np.random.default_rng(7)
        paulis = [random_pauli(4, rng) for _ in range(10)]
        other = random_pauli(4, rng)
        t = PauliTable.from_paulis(paulis)
        mask = np.zeros(10, dtype=bool)
        mask[::2] = True
        t.mul_pauli_on_rows(mask, other)
        for i, p in enumerate(paulis):
            expected = p * other if mask[i] else p
            assert t.row(i) == expected

    def test_identity_table(self):
        t = PauliTable.identity(3, 5)
        assert t.num_rows == 3
        np.testing.assert_array_equal(t.expectation_all_zeros(), [1, 1, 1])

    def test_copy_is_independent(self):
        t = PauliTable.from_labels(["XX"])
        c = t.copy()
        c.x[0, 0] = False
        assert t.x[0, 0]

    @staticmethod
    def sub_table_expectations(t: PauliTable) -> np.ndarray:
        """The sub-table formula: the Z-type rows' canonical signs, phase
        minus popcount(x & z) mod 4, and 0 for every other row."""
        x, z = t.unpack_x(), t.unpack_z()
        mask = ~x.any(axis=1)
        rel = (t.phase_exp[mask] - (x & z)[mask].sum(axis=1)) % 4
        assert not np.any(rel % 2)
        out = np.zeros(t.num_rows)
        out[mask] = np.where(rel == 0, 1.0, -1.0)
        return out

    @pytest.mark.parametrize("n", [5, 64, 65, 100], ids=lambda n: f"n{n}")
    @pytest.mark.parametrize("z_share", [0.0, 0.5, 1.0],
                             ids=["no-Z", "mixed", "all-Z"])
    def test_expectation_all_zeros_matches_sub_table_formula(self, n,
                                                             z_share):
        rng = np.random.default_rng(n)
        rows = 300
        x = rng.random((rows, n)) < 0.3
        x[rng.random(rows) < z_share] = False
        if z_share == 0.0:
            x[:, rng.integers(n)] = True
        if z_share < 1.0:
            x[:5] = False
            x[:5, n - 1] = True  # an X bit in the last word alone
        z = rng.random((rows, n)) < 0.5
        # a real phase on every row: popcount(x & z) plus 0 or 2
        phase = (x & z).sum(axis=1) + 2 * rng.integers(2, size=rows)
        t = PauliTable.from_bits(x, z, phase)
        # phase exponents count mod 4, also when a kernel leaves them
        # outside 0..3
        t.phase_exp += 4 * rng.integers(-2, 3, size=rows)
        expected = self.sub_table_expectations(t)
        np.testing.assert_array_equal(t.z_type_mask(), ~x.any(axis=1))
        got = t.expectation_all_zeros()
        np.testing.assert_array_equal(got.view(np.uint64),
                                      expected.view(np.uint64))
        if z_share in (0.0, 1.0):
            assert np.count_nonzero(got) == z_share * rows

    @pytest.mark.parametrize("n", [3, 100])
    def test_expectation_all_zeros_of_an_empty_table(self, n):
        t = PauliTable.identity(0, n)
        assert t.expectation_all_zeros().shape == (0,)
        assert t.z_type_mask().shape == (0,)

    def test_imaginary_phase_raises_only_on_z_type_rows(self):
        t = PauliTable.from_labels(["ZZ", "XI", "IZ"])
        t.phase_exp[1] = 1  # an X-type row's phase is never read
        np.testing.assert_array_equal(t.expectation_all_zeros(), [1, 0, 1])
        t.phase_exp[2] = 3
        with pytest.raises(ValueError, match="imaginary phase"):
            t.expectation_all_zeros()


class TestPauliSum:
    def test_duplicate_merge(self):
        h = PauliSum.from_terms([(1.0, "XX"), (2.0, "XX"), (0.5, "ZI")])
        assert h.num_terms == 2
        labels = {p.to_label(): c for c, p in h.terms()}
        assert labels == {"XX": 3.0, "ZI": 0.5}

    def test_sign_absorption(self):
        h = PauliSum.from_terms([(2.0, "-ZZ")])
        ((c, p),) = h.terms()
        assert c == -2.0 and p.to_label() == "ZZ"

    def test_cancellation_keeps_representable(self):
        h = PauliSum.from_terms([(1.0, "XX"), (-1.0, "XX")])
        assert h.num_terms == 1
        assert abs(h.coefficients[0]) < 1e-12

    def test_expectation_all_zeros(self):
        h = PauliSum.from_terms([(1.0, "ZZ"), (0.5, "ZI"), (2.0, "XX")])
        assert h.expectation_all_zeros() == pytest.approx(1.5)

    def test_mixed_state_energy_is_identity_coefficient(self):
        h = PauliSum.from_terms([(1.0, "ZZ"), (0.25, "II")])
        assert h.mixed_state_energy() == pytest.approx(0.25)
        dim = 2 ** h.num_qubits
        np.testing.assert_allclose(np.trace(h.to_matrix()) / dim, 0.25)

    def test_arithmetic(self):
        a = PauliSum.from_terms([(1.0, "X"), (1.0, "Z")])
        b = PauliSum.from_terms([(0.5, "X")])
        s = a + b
        labels = {p.to_label(): c for c, p in s.terms()}
        assert labels == {"X": 1.5, "Z": 1.0}
        d = a - b
        labels = {p.to_label(): c for c, p in d.terms()}
        assert labels == {"X": 0.5, "Z": 1.0}
        m = 2.0 * a
        assert m.max_abs_coefficient() == 2.0

    def test_to_matrix_hermitian(self):
        h = PauliSum.from_terms([(0.3, "XY"), (0.7, "ZZ"), (-0.2, "IX")])
        m = h.to_matrix()
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)

    @given(st.lists(st.tuples(
        st.floats(-2, 2, allow_nan=False), st.text("IXYZ", min_size=3, max_size=3)),
        min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_matrix_linearity(self, terms):
        h = PauliSum.from_terms(terms)
        expected = sum(c * dense(lbl) for c, lbl in terms)
        np.testing.assert_allclose(h.to_matrix(), expected, atol=1e-10)
