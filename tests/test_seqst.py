import numpy as np
import pytest
from conftest import chi_square_pvalue, choi_basis, dense_pauli_basis

from seqtomo import (
    DensityMatrix,
    PreparationBasis,
    PureState,
    RandomStream,
    chernoff_plan,
    haar_random_unitary,
    random_density_matrix,
    seqst_exact,
    seqst_joint_state,
    seqst_outcome_distribution,
    seqst_sample,
    standard_pauli_qst,
)
from seqtomo.errors import IndexOutOfRange
from seqtomo.estimation import ShotPlan


def plus_state_density() -> DensityMatrix:
    return PureState(np.array([1, 1], dtype=complex) / np.sqrt(2)).density()


class TestPreparationBasis:
    @pytest.mark.parametrize(
        "basis",
        [
            PreparationBasis.computational(2),
            PreparationBasis.pauli_eigenbasis(2, "X"),
            PreparationBasis.pauli_eigenbasis(2, "Y"),
            PreparationBasis.pauli_eigenbasis(1, "Z"),
            PreparationBasis.random_unitary_columns(2, np.random.default_rng(0)),
            PreparationBasis.random_unitary_columns(3, np.random.default_rng(1)),
        ],
        ids=["comp", "pauliX", "pauliY", "pauliZ", "haar2", "haar3"],
    )
    def test_unitary_and_orthonormal(self, basis):
        unit_res, gram_res = basis.residuals()
        assert unit_res < 1e-9
        assert gram_res < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_haar_preparator_is_bit_identical_to_permutation_product(self, n):
        basis = PreparationBasis.random_unitary_columns(n, np.random.default_rng(7))
        u = haar_random_unitary(2**n, np.random.default_rng(7)).matrix
        flips = PreparationBasis.computational(n)
        for a in range(2**n):
            want = u @ flips.preparator_matrix(a) @ u.conj().T
            np.testing.assert_array_equal(basis.preparator_matrix(a), want)

    def test_computational_elements(self):
        basis = PreparationBasis.computational(2)
        for a in range(4):
            want = np.zeros(4)
            want[a] = 1.0
            np.testing.assert_allclose(basis.element(a).amplitudes, want, atol=1e-15)

    def test_index_out_of_range(self):
        basis = PreparationBasis.computational(1)
        with pytest.raises(IndexOutOfRange):
            basis.preparator(2)
        with pytest.raises(IndexOutOfRange):
            seqst_exact(plus_state_density(), basis, 0, 5)


class TestJointState:
    def test_equal_indices_is_product(self):
        rng = np.random.default_rng(2)
        basis = PreparationBasis.random_unitary_columns(1, rng)
        rho = random_density_matrix(2, rng)
        joint = seqst_joint_state(rho, basis, 1, 1).matrix
        va = basis.preparator_matrix(1)
        sys_part = va.conj().T @ rho.matrix @ va
        anc = np.full((2, 2), 0.5)
        np.testing.assert_allclose(joint, np.kron(sys_part, anc), atol=1e-12)

    def test_fiducial_block(self):
        # when rho is the b-th basis projector, the ancilla-|0> block returns
        # the fiducial projector (the |0> branch un-prepares index b)
        basis = PreparationBasis.computational(2)
        rho = basis.element(3).density()
        joint = seqst_joint_state(rho, basis, 1, 3).matrix
        block00 = joint[0::2, 0::2]
        fid = basis.fiducial.amplitudes
        np.testing.assert_allclose(block00, np.outer(fid, fid.conj()) / 2, atol=1e-12)

    def test_against_block_assembly_oracle(self):
        # independent entrywise assembly of the four ancilla blocks
        rng = np.random.default_rng(3)
        basis = PreparationBasis.random_unitary_columns(2, rng)
        rho = random_density_matrix(4, rng)
        a, b = 2, 1
        va = basis.preparator_matrix(a)
        vb = basis.preparator_matrix(b)
        blocks = {
            (0, 0): vb.conj().T @ rho.matrix @ vb / 2,
            (0, 1): vb.conj().T @ rho.matrix @ va / 2,
            (1, 0): va.conj().T @ rho.matrix @ vb / 2,
            (1, 1): va.conj().T @ rho.matrix @ va / 2,
        }
        oracle = np.zeros((8, 8), dtype=complex)
        for (i, j), blk in blocks.items():
            for s in range(4):
                for t in range(4):
                    oracle[2 * s + i, 2 * t + j] = blk[s, t]
        got = seqst_joint_state(rho, basis, a, b).matrix
        np.testing.assert_allclose(got, oracle, atol=1e-12)


def kron_circuit(rho: np.ndarray, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """The literal circuit U (rho ⊗ |+><+|) U† with U = V_b† ⊗ |0><0| + V_a† ⊗ |1><1|, ancilla last."""
    u = np.kron(vb.conj().T, np.diag([1.0, 0.0])) + np.kron(va.conj().T, np.diag([0.0, 1.0]))
    return u @ np.kron(rho, np.full((2, 2), 0.5)) @ u.conj().T


_CROSS_CHECK_BASES = {
    "computational": PreparationBasis.computational,
    "pauliX": lambda n: PreparationBasis.pauli_eigenbasis(n, "X"),
    "pauliY": lambda n: PreparationBasis.pauli_eigenbasis(n, "Y"),
    "pauliZ": lambda n: PreparationBasis.pauli_eigenbasis(n, "Z"),
    "haar": lambda n: PreparationBasis.random_unitary_columns(n, np.random.default_rng(40 + n)),
    "choi": choi_basis,
}


class TestKronCircuitOracle:
    """The blockwise joint state against the circuit written out with np.kron."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(_CROSS_CHECK_BASES))
    def test_joint_state_and_exact_match_kron_circuit(self, kind, n):
        basis = _CROSS_CHECK_BASES[kind](n)
        d = basis.dim
        rng = np.random.default_rng(50 + n)
        rho = random_density_matrix(d, rng)
        pairs = [(0, 0), (d - 1, d - 1), (0, d - 1), (d - 1, 1 % d)]
        pairs += [tuple(int(v) for v in rng.integers(0, d, size=2)) for _ in range(2)]
        for a, b in pairs:
            va, vb = basis.preparator_matrix(a), basis.preparator_matrix(b)
            want = kron_circuit(rho.matrix, va, vb)
            np.testing.assert_allclose(seqst_joint_state(rho, basis, a, b).matrix, want, rtol=0, atol=1e-13)
            direct = np.vdot(basis.element(a).amplitudes, rho.matrix @ basis.element(b).amplitudes)
            assert abs(seqst_exact(rho, basis, a, b) - direct) <= 1e-13


class TestExact:
    def test_basis_projector_diagonal(self):
        basis = PreparationBasis.computational(2)
        rho = basis.element(2).density()
        assert abs(seqst_exact(rho, basis, 2, 2) - 1.0) < 1e-12

    def test_plus_state_off_diagonal(self):
        basis = PreparationBasis.computational(1)
        assert abs(seqst_exact(plus_state_density(), basis, 0, 1) - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_direct_inner_product(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(6):
            basis = PreparationBasis.random_unitary_columns(n, rng)
            rho = random_density_matrix(2**n, rng)
            a, b = (int(v) for v in rng.integers(0, 2**n, size=2))
            got = seqst_exact(rho, basis, a, b)
            want = basis.element(a).amplitudes.conj() @ rho.matrix @ basis.element(b).amplitudes
            assert abs(got - want) < 1e-9

    def test_hermiticity_symmetry(self):
        rng = np.random.default_rng(14)
        basis = PreparationBasis.random_unitary_columns(2, rng)
        rho = random_density_matrix(4, rng)
        for a in range(4):
            for b in range(4):
                assert abs(seqst_exact(rho, basis, a, b) - np.conj(seqst_exact(rho, basis, b, a))) < 1e-9

    def test_diagonal_is_real(self):
        rng = np.random.default_rng(15)
        basis = PreparationBasis.random_unitary_columns(2, rng)
        rho = random_density_matrix(4, rng)
        for a in range(4):
            assert abs(seqst_exact(rho, basis, a, a).imag) < 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_trace_completeness(self, n):
        rng = np.random.default_rng(16 + n)
        basis = PreparationBasis.random_unitary_columns(n, rng)
        rho = random_density_matrix(2**n, rng)
        total = sum(seqst_exact(rho, basis, a, a) for a in range(2**n))
        assert abs(total - 1.0) < 1e-8


class TestOutcomeDistribution:
    def test_fiducial_diagonal_is_deterministic(self):
        basis = PreparationBasis.computational(2)
        rho = basis.fiducial.density()
        np.testing.assert_allclose(seqst_outcome_distribution(rho, basis, 0, 0, "X"), (1, 0, 0), atol=1e-12)

    def test_maximally_mixed_off_diagonal_balances(self):
        basis = PreparationBasis.computational(2)
        rho = DensityMatrix(np.eye(4) / 4)
        p_plus, p_minus, _ = seqst_outcome_distribution(rho, basis, 0, 3, "X")
        assert abs(p_plus - p_minus) < 1e-12

    def test_against_projector_trace_oracle(self):
        rng = np.random.default_rng(20)
        basis = PreparationBasis.random_unitary_columns(2, rng)
        rho = random_density_matrix(4, rng)
        joint = seqst_joint_state(rho, basis, 1, 2).matrix
        fid = basis.fiducial.amplitudes
        p0 = np.outer(fid, fid.conj())
        for axis, splus in (("X", [1, 1]), ("Y", [1, 1j])):
            v = np.array(splus, dtype=complex) / np.sqrt(2)
            pp = np.trace(joint @ np.kron(p0, np.outer(v, v.conj()))).real
            got = seqst_outcome_distribution(rho, basis, 1, 2, axis)
            assert abs(got[0] - pp) < 1e-12
            assert abs(sum(got) - 1.0) < 1e-10
            assert all(0 <= p <= 1 for p in got)

    def test_difference_recovers_coefficient(self):
        rng = np.random.default_rng(21)
        basis = PreparationBasis.random_unitary_columns(2, rng)
        rho = random_density_matrix(4, rng)
        alpha = seqst_exact(rho, basis, 0, 3)
        px = seqst_outcome_distribution(rho, basis, 0, 3, "X")
        py = seqst_outcome_distribution(rho, basis, 0, 3, "Y")
        assert abs((px[0] - px[1]) - alpha.real) < 1e-9
        assert abs((py[0] - py[1]) - alpha.imag) < 1e-9

    def test_axis_validation(self):
        basis = PreparationBasis.computational(1)
        with pytest.raises(ValueError):
            seqst_outcome_distribution(plus_state_density(), basis, 0, 0, "Z")


class TestSampling:
    def test_deterministic_distribution_gives_exact_real_part(self):
        basis = PreparationBasis.computational(2)
        rho = basis.fiducial.density()
        rep = seqst_sample(rho, basis, 0, 0, ShotPlan(0.1, 0.05, 25), RandomStream(0))
        assert rep.estimate.real == 1.0
        assert rep.se_re == 0.0
        assert rep.tallies_x == (25, 0, 0)

    def test_single_shot_values(self):
        basis = PreparationBasis.computational(1)
        for seed in range(10):
            rep = seqst_sample(plus_state_density(), basis, 0, 1, ShotPlan(0.1, 0.05, 1), RandomStream(seed))
            assert rep.estimate.real in (-1.0, 0.0, 1.0)
            assert rep.estimate.imag in (-1.0, 0.0, 1.0)

    def test_statistical_acceptance_at_planned_shots(self):
        # alpha_01 = 0.5 for |+><+| in the computational basis
        basis = PreparationBasis.computational(1)
        rho = plus_state_density()
        plan = chernoff_plan(0.05, 0.05)
        assert plan.m == 2952
        hits = 0
        for seed in range(200):
            rep = seqst_sample(rho, basis, 0, 1, plan, RandomStream(seed))
            if abs(rep.estimate.real - 0.5) <= 0.05:
                hits += 1
        assert hits / 200 >= 0.95

    def test_estimator_unbiasedness(self):
        rng = np.random.default_rng(22)
        basis = PreparationBasis.random_unitary_columns(1, rng)
        rho = random_density_matrix(2, rng)
        exact = seqst_exact(rho, basis, 0, 1)
        plan = ShotPlan(0.1, 0.05, 100)
        estimates = np.array(
            [seqst_sample(rho, basis, 0, 1, plan, RandomStream(seed)).estimate for seed in range(500)]
        )
        for part, target in ((estimates.real, exact.real), (estimates.imag, exact.imag)):
            se = part.std(ddof=1) / np.sqrt(len(part))
            assert abs(part.mean() - target) < 3 * se + 1e-12

    def test_sampling_consistency_chi_square(self):
        rng = np.random.default_rng(23)
        basis = PreparationBasis.random_unitary_columns(2, rng)
        rho = random_density_matrix(4, rng)
        probs = seqst_outcome_distribution(rho, basis, 1, 3, "X")
        rep = seqst_sample(rho, basis, 1, 3, ShotPlan(0.1, 0.05, 10_000), RandomStream(5))
        assert chi_square_pvalue(rep.tallies_x, probs) > 0.001

    def test_determinism_and_worker_partitioning(self):
        basis = PreparationBasis.computational(1)
        rho = plus_state_density()
        plan = ShotPlan(0.1, 0.05, 301)
        r1 = seqst_sample(rho, basis, 0, 1, plan, RandomStream(9))
        r2 = seqst_sample(rho, basis, 0, 1, plan, RandomStream(9))
        assert r1 == r2
        r3 = seqst_sample(rho, basis, 0, 1, plan, RandomStream(9), workers=3)
        r4 = seqst_sample(rho, basis, 0, 1, plan, RandomStream(9), workers=3)
        assert r3 == r4
        assert sum(r3.tallies_x) == plan.m

    def test_report_serialization(self):
        basis = PreparationBasis.computational(1)
        rep = seqst_sample(plus_state_density(), basis, 0, 1, ShotPlan(0.2, 0.1, 10), RandomStream(3))
        data = rep.to_json()
        assert set(data) == {"a", "b", "re", "im", "se_re", "se_im", "m_shots", "tallies", "seed"}
        assert data["m_shots"] == 10
        assert sum(data["tallies"]["x"]) == 10
        assert data["seed"] == 3


class TestStandardQst:
    def test_maximally_mixed(self):
        pairs = standard_pauli_qst(DensityMatrix(np.eye(4) / 4))
        assert abs(pairs[0][1] - 1.0) < 1e-12
        assert all(abs(v) < 1e-12 for _, v in pairs[1:])

    def test_zero_state_bloch_vector(self):
        pairs = standard_pauli_qst(DensityMatrix(np.diag([1.0, 0.0])))
        values = {str(lbl): v for lbl, v in pairs}
        assert values == pytest.approx({"I": 1.0, "X": 0.0, "Y": 0.0, "Z": 1.0})

    def test_reconstruction_identity(self):
        rho = random_density_matrix(4, np.random.default_rng(24))
        pairs = standard_pauli_qst(rho)
        basis = dense_pauli_basis(2)
        recon = sum(v * basis[lbl.index] for lbl, v in pairs) / 4
        np.testing.assert_allclose(recon, rho.matrix, atol=1e-9)
