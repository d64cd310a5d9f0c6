import tracemalloc

import numpy as np
import pytest
from conftest import dense_pauli, dense_pauli_basis

from seqtomo import (
    PauliLabel,
    PhasedPauli,
    pauli_coefficients,
    pauli_combination,
    pauli_matrix,
    pauli_product,
    random_density_matrix,
    standard_pauli_qst,
)
from seqtomo.errors import DimensionMismatch, IndexOutOfRange, LengthMismatch, SeqtomoError
from seqtomo.pauli import pauli_labels, pauli_masks


class TestLabels:
    def test_index_round_trip(self):
        for n in (1, 2, 3):
            for m in range(4**n):
                lbl = PauliLabel.from_index(n, m)
                assert lbl.index == m
                assert lbl.n == n

    def test_identity_is_index_zero(self):
        assert PauliLabel("III").index == 0
        assert PauliLabel.from_index(3, 0).letters == "III"

    def test_encoding_is_big_endian(self):
        # qubit 0 carries the most significant base-4 digit
        assert PauliLabel("XI").index == 4
        assert PauliLabel("IX").index == 1

    @pytest.mark.parametrize("letters", ["XQ", "", "IA", "xI", "I\n", " X"])
    def test_bad_letters_rejected(self, letters):
        with pytest.raises(ValueError):
            PauliLabel(letters)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_label_words_in_index_order(self, n):
        assert pauli_labels(n) == [str(PauliLabel.from_index(n, m)) for m in range(4**n)]

    @pytest.mark.parametrize("n", [0, -1])
    def test_label_words_need_a_qubit(self, n):
        with pytest.raises(DimensionMismatch):
            pauli_labels(n)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            PauliLabel.from_index(1, 4)

    def test_phase_must_be_unit(self):
        with pytest.raises(ValueError):
            PhasedPauli(PauliLabel("X"), 2.0)


class TestMatrices:
    def test_single_qubit_convention(self):
        np.testing.assert_allclose(pauli_matrix(PauliLabel("I")).matrix, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(
            pauli_matrix(PauliLabel("Y")).matrix, np.array([[0, -1j], [1j, 0]]), atol=1e-15
        )

    def test_tensor_structure(self):
        x = pauli_matrix(PauliLabel("X")).matrix
        z = pauli_matrix(PauliLabel("Z")).matrix
        np.testing.assert_allclose(pauli_matrix(PauliLabel("XZ")).matrix, np.kron(x, z), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hermitian_and_unitary(self, n):
        for i in range(4**n):
            m = pauli_matrix(PauliLabel.from_index(n, i)).matrix
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
            np.testing.assert_allclose(m @ m, np.eye(2**n), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_kron_of_sigmas_entry_for_entry(self, n):
        basis = dense_pauli_basis(n)
        for i in range(4**n):
            np.testing.assert_array_equal(pauli_matrix(PauliLabel.from_index(n, i)).matrix, basis[i])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_masks_give_the_kron_of_sigmas(self, n):
        # P_m = phase[m] X^x Z^z with bit n - 1 - q of each mask on qubit q.
        x, z, phase = pauli_masks(n)
        basis = dense_pauli_basis(n)
        for m in range(4**n):
            xs = dense_pauli("".join("X" if x[m] >> (n - 1 - q) & 1 else "I" for q in range(n)))
            zs = dense_pauli("".join("Z" if z[m] >> (n - 1 - q) & 1 else "I" for q in range(n)))
            np.testing.assert_array_equal(phase[m] * xs @ zs, basis[m])


class TestProducts:
    def test_involution(self):
        out = pauli_product(PauliLabel("X"), PauliLabel("X"))
        assert out == PhasedPauli(PauliLabel("I"), 1)

    def test_xy_gives_iz(self):
        out = pauli_product(PauliLabel("X"), PauliLabel("Y"))
        assert out == PhasedPauli(PauliLabel("Z"), 1j)

    def test_two_qubit_against_dense_oracle(self):
        # dense 4x4 multiply fixes the expected phase and label
        a, b = PauliLabel("XY"), PauliLabel("YY")
        out = pauli_product(a, b)
        dense = pauli_matrix(a).matrix @ pauli_matrix(b).matrix
        np.testing.assert_allclose(dense, out.phase * pauli_matrix(out.label).matrix, atol=1e-15)
        assert out == PhasedPauli(PauliLabel("ZI"), 1j)

    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_against_dense(self, n):
        basis = dense_pauli_basis(n)
        for i in range(4**n):
            for j in range(4**n):
                out = pauli_product(PauliLabel.from_index(n, i), PauliLabel.from_index(n, j))
                np.testing.assert_allclose(
                    basis[i] @ basis[j], out.phase * basis[out.label.index], atol=1e-14
                )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pauli_product(PauliLabel("X"), PauliLabel("XX"))




def random_stack(rng, count, n):
    d = 2**n
    return rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))


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
            assert label == PauliLabel.from_index(7, int(m))
            assert abs(value - np.trace(rho.matrix @ dense_pauli(label.letters)).real) < 1e-12


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
