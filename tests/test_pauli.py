import tracemalloc

import numpy as np
import pytest
from conftest import dense_pauli, dense_pauli_basis

import seqtomo
from seqtomo import (
    pauli_coefficients,
    pauli_combination,
    pauli_matrix,
    random_density_matrix,
    standard_pauli_qst,
)
from seqtomo.errors import DimensionMismatch, IndexOutOfRange, SeqtomoError
from seqtomo.pauli import pauli_coefficient, pauli_labels, pauli_masks, pauli_word, times_pauli


class TestLabels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_label_words_in_index_order(self, n):
        # Base-4 digits against itertools.product: two independent spellings.
        assert [pauli_word(n, m) for m in range(4**n)] == pauli_labels(n)

    def test_each_call_returns_a_new_list(self):
        first = pauli_labels(2)
        assert type(first) is list and pauli_labels(2) == first and pauli_labels(2) is not first
        first[0] = "changed"
        first.append("more")
        assert pauli_labels(2) == [pauli_word(2, m) for m in range(16)]

    def test_the_package_exports_no_new_pauli_name(self):
        assert len(seqtomo.__all__) == 36
        assert [name for name in seqtomo.__all__ if name.startswith("pauli")] == [
            "pauli_coefficients",
            "pauli_combination",
            "pauli_matrix",
        ]

    def test_identity_is_index_zero(self):
        assert pauli_word(3, 0) == "III"
        np.testing.assert_array_equal(pauli_matrix(3, 0), np.eye(8))

    def test_encoding_is_big_endian(self):
        # qubit 0 carries the most significant base-4 digit
        assert pauli_word(2, 4) == "XI"
        assert pauli_word(2, 1) == "IX"

    @pytest.mark.parametrize("n", [0, -1])
    def test_label_words_need_a_qubit(self, n):
        with pytest.raises(DimensionMismatch):
            pauli_labels(n)
        with pytest.raises(DimensionMismatch):
            pauli_word(n, 0)

    @pytest.mark.parametrize("function", [pauli_word, pauli_matrix])
    @pytest.mark.parametrize("n, m", [(1, -1), (1, 4), (3, -1), (3, 64)])
    def test_index_out_of_range(self, function, n, m):
        with pytest.raises(IndexOutOfRange):
            function(n, m)


class TestMatrices:
    def test_single_qubit_convention(self):
        np.testing.assert_allclose(pauli_matrix(1, 0), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(pauli_matrix(1, 2), np.array([[0, -1j], [1j, 0]]), atol=1e-15)

    def test_tensor_structure(self):
        x = pauli_matrix(1, 1)
        z = pauli_matrix(1, 3)
        np.testing.assert_allclose(pauli_matrix(2, 7), np.kron(x, z), atol=1e-15)

    def test_read_only(self):
        with pytest.raises(ValueError):
            pauli_matrix(2, 7)[0, 0] = 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hermitian_and_unitary(self, n):
        for i in range(4**n):
            m = pauli_matrix(n, i)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
            np.testing.assert_allclose(m @ m, np.eye(2**n), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_kron_of_sigmas_entry_for_entry(self, n):
        basis = dense_pauli_basis(n)
        for i in range(4**n):
            np.testing.assert_array_equal(pauli_matrix(n, i), basis[i])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_masks_give_the_kron_of_sigmas(self, n):
        # P_m = phase[m] X^x Z^z with bit n - 1 - q of each mask on qubit q.
        x, z, phase = pauli_masks(n)
        basis = dense_pauli_basis(n)
        for m in range(4**n):
            xs = dense_pauli("".join("X" if x[m] >> (n - 1 - q) & 1 else "I" for q in range(n)))
            zs = dense_pauli("".join("Z" if z[m] >> (n - 1 - q) & 1 else "I" for q in range(n)))
            np.testing.assert_array_equal(phase[m] * xs @ zs, basis[m])


def random_stack(rng, count, n):
    d = 2**n
    return rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))


class TestGather:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_dense_product_bit_for_bit(self, n):
        # P_m has one entry 0, ±1 or ±i per column, so A @ P_m rounds nothing either.
        a = random_stack(np.random.default_rng(40 + n), 3, n)
        for m, p in enumerate(dense_pauli_basis(n)):
            np.testing.assert_array_equal(times_pauli(a, m), a @ p)

    def test_acts_on_the_last_axis_of_a_row(self):
        rng = np.random.default_rng(44)
        rows = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        np.testing.assert_array_equal(times_pauli(rows, 27), rows @ dense_pauli_basis(3)[27])

    @pytest.mark.parametrize("m", [-1, 16])
    def test_refuses_an_index_outside_the_basis(self, m):
        with pytest.raises(IndexOutOfRange):
            times_pauli(np.eye(4), m)

    def test_chosen_masks_match_the_tables(self):
        x, z, phase = pauli_masks(4)
        chosen = [0, 5, 77, 255]
        for got, want in zip(pauli_masks(4, chosen), (x, z, phase)):
            np.testing.assert_array_equal(got, want[chosen])
        with pytest.raises(IndexOutOfRange):
            pauli_masks(2, [3, 16])


def masks_from_word(n, m):
    """(x, z, phase) spelled from ``pauli_word``'s letters: X and Y set x, Y and Z set z, phase i^{#Y}; qubit 0 is bit n - 1."""
    word = pauli_word(n, m)
    x = sum(1 << (n - 1 - q) for q, c in enumerate(word) if c in "XY")
    z = sum(1 << (n - 1 - q) for q, c in enumerate(word) if c in "YZ")
    return x, z, 1j ** word.count("Y")


class TestChosenMasks:
    """Chosen indices are decoded as Python ints; the 4**n tables run the same bit rule on an array."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_index_matches_the_tables_and_the_letters(self, n):
        tables = pauli_masks(n)
        everything = pauli_masks(n, np.arange(4**n))
        for got, want in zip(everything, tables):
            np.testing.assert_array_equal(got, want)
        for m in range(4**n):
            x, z, phase = pauli_masks(n, m)
            assert (x, z, phase) == (tables[0][m], tables[1][m], tables[2][m])
            assert (x, z, phase) == masks_from_word(n, m)

    @pytest.mark.parametrize("m", [4**31 - 1, 4**31 - 2, 2 * 4**30, 0x2D2D2D2D2D2D2D2D, 0])
    def test_indices_at_thirty_one_qubits_match_the_letters(self, m):
        x, z, phase = pauli_masks(31, m)
        assert x.dtype == z.dtype == np.int64
        assert (int(x), int(z), complex(phase)) == masks_from_word(31, m)

    @pytest.mark.parametrize(
        "m, dtype, shape",
        [
            (5, np.int64, ()),
            (np.int64(5), np.int64, ()),
            (np.int32(5), np.int32, ()),
            ((1, 2), np.int64, (2,)),
            ([3, 9, 60], np.int64, (3,)),
            (np.array([0, 5, 63], dtype=np.int32), np.int32, (3,)),
            (np.array([1, 2], dtype=np.uint64), np.uint64, (2,)),
            (np.array([[1, 2], [3, 4]]), np.int64, (2, 2)),
        ],
        ids=["int", "int64", "int32", "tuple", "list", "int32-array", "uint64-array", "2d-array"],
    )
    def test_input_kinds_keep_their_dtype_and_shape(self, m, dtype, shape):
        x, z, phase = pauli_masks(3, m)
        for mask in (x, z):
            assert type(mask) is np.ndarray and mask.dtype == dtype and mask.shape == shape
        assert np.shape(phase) == shape and np.asarray(phase).dtype == complex
        if shape == ():
            assert type(phase) is np.complex128  # a numpy scalar, as indexing the tables gives
        tables = pauli_masks(3)
        flat = np.ravel(m).astype(int)
        for got, want in zip((x, z, phase), tables):
            np.testing.assert_array_equal(np.ravel(got), want[flat])

    @pytest.mark.parametrize("n, m", [(1, 4), (2, -1), (31, 4**31), (31, [0, 4**31])])
    def test_refuses_an_index_outside_the_basis(self, n, m):
        with pytest.raises(IndexOutOfRange):
            pauli_masks(n, m)


class TestCoefficients:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_traces(self, n):
        a = random_stack(np.random.default_rng(n), 3, n)
        want = np.einsum("mij,kji->km", dense_pauli_basis(n), a)
        np.testing.assert_allclose(pauli_coefficients(a), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_orthogonality_exhaustive(self, n):
        # Tr(P_m P_k) = D when m == k else 0, so the coefficients of P_k are D e_k
        np.testing.assert_array_equal(pauli_coefficients(dense_pauli_basis(n)), 2**n * np.eye(4**n))

    def test_random_pairs_match_dense_at_three_qubits(self):
        rng = np.random.default_rng(13)
        basis = dense_pauli_basis(3)
        for _ in range(200):
            i, j = rng.integers(0, 64, size=2)
            dense = np.trace(basis[i].conj().T @ basis[j])
            assert abs(pauli_coefficients(basis[j])[i] - dense) < 1e-12

    def test_standard_qst_at_seven_qubits_without_a_dense_basis(self):
        # The cached dense basis at n = 7 would have been 4**7 matrices of 128 x 128, 4.3 GB.
        rng = np.random.default_rng(70)
        rho = random_density_matrix(2**7, rng)
        tracemalloc.start()
        try:
            pairs = standard_pauli_qst(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert len(pairs) == 4**7
        for m in rng.choice(4**7, size=20, replace=False):
            label, value = pairs[m]
            assert label == pauli_word(7, int(m))
            assert abs(value - np.trace(rho.matrix @ dense_pauli(label)).real) < 1e-12


class TestSingleCoefficient:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_full_row_for_every_index(self, n):
        a = random_stack(np.random.default_rng(20 + n), 3, n)
        full = pauli_coefficients(a)
        np.testing.assert_allclose(pauli_coefficient(a, np.arange(4**n)), full, rtol=0, atol=1e-13)
        for m in range(4**n):
            np.testing.assert_allclose(pauli_coefficient(a, m), full[:, m], rtol=0, atol=1e-13)

    def test_shape_follows_the_matrices_and_the_indices(self):
        a = random_stack(np.random.default_rng(3), 4, 2)
        assert pauli_coefficient(a, 5).shape == (4,)
        assert pauli_coefficient(tuple(a), (5, 7)).shape == (4, 2)
        np.testing.assert_array_equal(pauli_coefficient(list(a), [[1, 2, 3]]), pauli_coefficient(a, [[1, 2, 3]]))
        assert pauli_coefficient(a, [[1, 2, 3]]).shape == (4, 1, 3)

    @pytest.mark.parametrize("m", [-1, 16, [0, 16]])
    def test_refuses_an_index_outside_the_basis(self, m):
        with pytest.raises(IndexOutOfRange):
            pauli_coefficient([np.eye(4)], m)


class TestCombination:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inverts_coefficients(self, n):
        a = random_stack(np.random.default_rng(10 + n), 2, n)
        np.testing.assert_allclose(pauli_combination(pauli_coefficients(a) / 2**n), a, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_vectors_give_the_basis_exactly(self, n):
        np.testing.assert_array_equal(pauli_combination(np.eye(4**n)), dense_pauli_basis(n))

    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_refuses_fewer_than_one_qubit_or_a_bad_size(self, size):
        with pytest.raises(SeqtomoError):
            pauli_coefficients(np.eye(size))
        with pytest.raises(SeqtomoError):
            pauli_combination(np.ones(size))
