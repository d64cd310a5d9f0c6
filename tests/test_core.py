import numpy as np
import pytest
from conftest import partial_trace

from seqtomo import (
    DensityMatrix,
    haar_random_state,
    haar_random_unitary,
    maximally_entangled_state,
    random_density_matrix,
)
from seqtomo.core import GATES
from seqtomo.errors import DimensionMismatch

I2 = np.eye(2, dtype=complex)


class TestTypes:
    def test_made_operators_are_read_only(self):
        rng = np.random.default_rng(1)
        for op in (GATES["cnot"], DensityMatrix(np.kron(I2, I2) / 4).matrix, haar_random_unitary(2, rng)):
            with pytest.raises(ValueError):
                op[0, 0] = 5.0

    def test_pure_state_norm_enforced(self):
        DensityMatrix.from_factor([1, 0])
        with pytest.raises(ValueError):
            DensityMatrix.from_factor([1, 1])

    def test_density_matrix_invariants_enforced(self):
        DensityMatrix(I2 / 2)
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.1], [0.2, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(I2)  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_factor_shape_and_rank(self):
        rho = DensityMatrix.from_factor(np.eye(4, 2) / np.sqrt(2))
        assert rho.dim == 4 and rho.factor.shape == (4, 2)
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5, 0, 0]), atol=1e-15)
        with pytest.raises(ValueError):
            rho.factor[0, 0] = 1.0
        for bad in ([], np.ones((2, 2, 2)) / np.sqrt(8)):
            with pytest.raises(DimensionMismatch):
                DensityMatrix.from_factor(bad)
        # A dense matrix keeps the eigenvectors of its positive eigenvalues.
        assert DensityMatrix(np.diag([0.5, 0.5, 0, 0])).factor.shape == (4, 2)

    def test_density_of_pure_state(self):
        rho = DensityMatrix.from_factor([1, 1j] / np.sqrt(2))
        np.testing.assert_allclose(rho.matrix, np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=1e-15)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(4)
        ra = random_density_matrix(2, rng)
        rb = random_density_matrix(3, rng)
        joint = DensityMatrix(np.kron(ra.matrix, rb.matrix))
        np.testing.assert_allclose(partial_trace(joint, (2, 3), "A").matrix, ra.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), "B").matrix, rb.matrix, atol=1e-12)

    def test_entangled_marginal_is_mixed(self):
        rho = maximally_entangled_state(1)
        np.testing.assert_allclose(partial_trace(rho, (2, 2), "A").matrix, I2 / 2, atol=1e-12)

    def test_against_index_sum_oracle(self):
        # explicit double-sum oracle on a random two-qubit state
        rho = random_density_matrix(4, np.random.default_rng(5))
        oracle = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            for l in range(2):
                for i in range(2):
                    oracle[j, l] += rho.matrix[2 * i + j, 2 * i + l]
        got = partial_trace(rho, (2, 2), "B")
        np.testing.assert_allclose(got.matrix, oracle, atol=1e-12)
        assert abs(np.trace(got.matrix) - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        rho = random_density_matrix(4, np.random.default_rng(6))
        with pytest.raises(DimensionMismatch):
            partial_trace(rho, (3, 2), "A")


class TestMaximallyEntangled:
    def test_one_pair(self):
        got = maximally_entangled_state(1).factor[:, 0]
        np.testing.assert_allclose(got, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_two_pairs(self):
        got = maximally_entangled_state(2).factor[:, 0]
        want = np.zeros(16)
        for i in range(4):
            want[4 * i + i] = 0.5
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_marginal_is_maximally_mixed(self):
        rho = maximally_entangled_state(2)
        np.testing.assert_allclose(partial_trace(rho, (4, 4), "A").matrix, np.eye(4) / 4, atol=1e-12)


class TestHaarSampling:
    def test_single_dimension(self):
        psi = haar_random_state(1, np.random.default_rng(7))
        assert abs(abs(psi.factor[0, 0]) - 1.0) < 1e-12

    def test_first_moment(self):
        # Haar moment E|<0|psi>|^2 = 1/d; binomial-scale tolerance at 1e5 samples
        rng = np.random.default_rng(8)
        vals = [abs(haar_random_state(4, rng).factor[0, 0]) ** 2 for _ in range(100_000)]
        mean = np.mean(vals)
        assert abs(mean - 0.25) < 0.01
        assert abs(mean - 0.25) < 3 * np.std(vals) / np.sqrt(len(vals))

    def test_second_moment(self):
        # E|<0|psi>|^4 = 2/(d(d+1)) = 0.1 at d = 4
        rng = np.random.default_rng(9)
        vals = [abs(haar_random_state(4, rng).factor[0, 0]) ** 4 for _ in range(100_000)]
        mean = np.mean(vals)
        assert abs(mean - 0.1) < 0.01
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(mean - 0.1) < 3 * se

    def test_unitary_invariance(self):
        # overlap moments with a rotated reference state match 1/d
        rng = np.random.default_rng(10)
        u = haar_random_unitary(4, rng)
        phi = u @ np.eye(4)[0]
        vals = [abs(phi.conj() @ haar_random_state(4, rng).factor[:, 0]) ** 2 for _ in range(50_000)]
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - 0.25) < 3 * se + 1e-4

    def test_haar_unitary_is_unitary(self):
        u = haar_random_unitary(8, np.random.default_rng(11))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)

    def test_random_density_matrix_is_valid(self):
        rho = random_density_matrix(8, np.random.default_rng(12))
        assert rho.dim == 8  # construction enforces the invariants
