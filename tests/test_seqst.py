import tracemalloc
from functools import reduce

import numpy as np
import pytest
from conftest import SIGMA, chi_square_pvalue, choi_basis, choi_unitary, dense_pauli_basis, estimate_block

from seqtomo import (
    DensityMatrix,
    PreparationBasis,
    RandomStream,
    chernoff_plan,
    haar_random_unitary,
    random_density_matrix,
    seqst_exact,
    seqst_sample,
    standard_pauli_qst,
)
from seqtomo.cli import build_state, main
from seqtomo.errors import DimensionMismatch, IndexOutOfRange, ParamOutOfRange
from seqtomo.estimation import ShotPlan
from seqtomo.pauli import pauli_labels
from seqtomo.seqst import _state_block, ancilla_readout


def plus_state_density() -> DensityMatrix:
    return DensityMatrix.from_factor(np.array([1, 1], dtype=complex) / np.sqrt(2))


def bit_flips(n: int, a: int) -> np.ndarray:
    """X^a: a kron of literal X on the set bits of a and I elsewhere, qubit 0 the most significant bit."""
    return reduce(np.kron, [SIGMA["X"] if a >> (n - 1 - q) & 1 else SIGMA["I"] for q in range(n)])


def kron_circuit(rho: np.ndarray, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """The literal circuit U (rho ⊗ |+><+|) U† with U = V_b† ⊗ |0><0| + V_a† ⊗ |1><1|, ancilla last."""
    u = np.kron(vb.conj().T, np.diag([1.0, 0.0])) + np.kron(va.conj().T, np.diag([0.0, 1.0]))
    return u @ np.kron(rho, np.full((2, 2), 0.5)) @ u.conj().T


def preparator(basis: PreparationBasis, a: int) -> np.ndarray:
    """V_a = W X^a, with W read column by column off the basis's own ``element``."""
    w = np.stack([basis.element(j).factor[:, 0] for j in range(basis.dim)], axis=1)
    return w @ bit_flips(basis.n, a)


H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
# kind -> (the basis on n qubits, its W written out without the gate simulator:
# a kron of literal rotations, the seeded Haar u, or the Choi columns).
_CROSS_CHECK_BASES = {
    "computational": (PreparationBasis.computational, lambda n: np.eye(2**n)),
    "pauliX": (lambda n: PreparationBasis.pauli_eigenbasis(n, "X"), lambda n: reduce(np.kron, [H] * n)),
    "pauliY": (
        lambda n: PreparationBasis.pauli_eigenbasis(n, "Y"),
        lambda n: reduce(np.kron, [np.diag([1, 1j]) @ H] * n),
    ),
    "pauliZ": (lambda n: PreparationBasis.pauli_eigenbasis(n, "Z"), lambda n: np.eye(2**n)),
    "haar": (
        lambda n: PreparationBasis.random_unitary_columns(n, np.random.default_rng(40 + n)),
        lambda n: haar_random_unitary(2**n, np.random.default_rng(40 + n)),
    ),
    "choi": (choi_basis, choi_unitary),
}


def fiducial_readout_of(joint: np.ndarray) -> complex:
    """Tr(rho_F P_0 ⊗ X) + i Tr(rho_F P_0 ⊗ Y) of a joint state, ancilla last, with P_0 = |0...0><0...0|."""
    p0 = np.zeros((joint.shape[0] // 2,) * 2)
    p0[0, 0] = 1.0
    x, y = (np.trace(joint @ np.kron(p0, SIGMA[s])).real for s in "XY")
    return complex(x, y)


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
        # Unitary gates prepare an orthonormal basis.
        vecs = np.stack([basis.element(a).factor[:, 0] for a in range(basis.dim)])
        gram_res = np.max(np.abs(vecs.conj() @ vecs.T - np.eye(basis.dim)))
        assert basis.residuals() < 1e-14
        assert gram_res < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", sorted(set(_CROSS_CHECK_BASES) - {"choi"}))
    def test_gate_list_elements_are_the_literal_columns(self, kind, n):
        # Bit for bit: the gate list run on |a> is column a of the literal W.
        make, literal = _CROSS_CHECK_BASES[kind]
        basis, w = make(n), literal(n)
        for a in range(2**n):
            np.testing.assert_array_equal(basis.element(a).factor[:, 0], w[:, a])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gate_lists_hold_no_dense_w_but_haar(self, n):
        for make, _ in (_CROSS_CHECK_BASES[k] for k in ("computational", "pauliX", "pauliY", "pauliZ")):
            assert all(np.shape(g)[0] == 2 for g, _ in make(n).gates)
        (u, qubits), = _CROSS_CHECK_BASES["haar"][0](n).gates
        assert u.shape == (2**n, 2**n) and qubits == tuple(range(n))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (4,), (1, 1)])
    def test_unitary_must_be_square_on_qubits(self, shape):
        with pytest.raises(DimensionMismatch):
            PreparationBasis.columns(np.ones(shape))

    def test_unitary_must_be_unitary(self):
        # Residual 2**-0.5: W†W has the off-diagonal <w_0|w_1> = 2**-0.5.
        with pytest.raises(ParamOutOfRange, match="7.071e-01 exceeds 1e-9"):
            PreparationBasis.columns([[1, 2**-0.5], [0, 2**-0.5]])
        with pytest.raises(ParamOutOfRange, match="nan exceeds 1e-9"):
            PreparationBasis.columns([[np.nan, 0], [0, 1]])
        # The shape is refused first, whatever the entries.
        with pytest.raises(DimensionMismatch):
            PreparationBasis.columns(np.full((3, 3), np.nan))

    def test_computational_elements(self):
        basis = PreparationBasis.computational(2)
        for a in range(4):
            want = np.zeros(4)
            want[a] = 1.0
            np.testing.assert_allclose(basis.element(a).factor[:, 0], want, atol=1e-15)

    def test_index_out_of_range(self):
        basis = PreparationBasis.computational(1)
        with pytest.raises(IndexOutOfRange):
            basis.element(2)
        with pytest.raises(IndexOutOfRange):
            basis.element(-1)
        with pytest.raises(IndexOutOfRange):
            seqst_exact(plus_state_density(), basis, 0, 5)


class TestJointState:
    """The joint state of the literal circuit, ``kron_circuit``, with W X^a preparators."""

    def test_equal_indices_is_product(self):
        rng = np.random.default_rng(2)
        basis = PreparationBasis.random_unitary_columns(1, rng)
        rho = random_density_matrix(2, rng)
        va = preparator(basis, 1)
        joint = kron_circuit(rho.matrix, va, va)
        sys_part = va.conj().T @ rho.matrix @ va
        anc = np.full((2, 2), 0.5)
        np.testing.assert_allclose(joint, np.kron(sys_part, anc), atol=1e-12)

    def test_fiducial_block(self):
        # when rho is the b-th basis projector, the ancilla-|0> block returns
        # the projector on |0...0> (the |0> branch un-prepares index b)
        basis = PreparationBasis.computational(2)
        rho = basis.element(3)
        joint = kron_circuit(rho.matrix, preparator(basis, 1), preparator(basis, 3))
        block00 = joint[0::2, 0::2]
        p0 = np.zeros((4, 4))
        p0[0, 0] = 0.5
        np.testing.assert_allclose(block00, p0, atol=1e-12)

    def test_against_block_assembly_oracle(self):
        # independent entrywise assembly of the four ancilla blocks
        rng = np.random.default_rng(3)
        basis = PreparationBasis.random_unitary_columns(2, rng)
        rho = random_density_matrix(4, rng)
        a, b = 2, 1
        va = preparator(basis, a)
        vb = preparator(basis, b)
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
        np.testing.assert_allclose(kron_circuit(rho.matrix, va, vb), oracle, atol=1e-12)


class TestKronCircuitOracle:
    """seqst_exact against the readout of the circuit written out with np.kron.

    W and V_a = W X^a are built here from literal rotations, the seeded Haar u
    or the Choi columns, never through the gate simulator."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(_CROSS_CHECK_BASES))
    def test_exact_matches_kron_circuit_and_inner_product(self, kind, n):
        make, literal = _CROSS_CHECK_BASES[kind]
        basis, w = make(n), literal(n)
        d = basis.dim
        rng = np.random.default_rng(50 + n)
        rho = random_density_matrix(d, rng)
        pairs = [(0, 0), (d - 1, d - 1), (0, d - 1), (d - 1, 1 % d)]
        pairs += [tuple(int(v) for v in rng.integers(0, d, size=2)) for _ in range(2)]
        for a, b in pairs:
            got = seqst_exact(rho, basis, a, b)
            joint = kron_circuit(rho.matrix, w @ bit_flips(basis.n, a), w @ bit_flips(basis.n, b))
            assert abs(got - fiducial_readout_of(joint)) <= 1e-12
            direct = np.vdot(w[:, a], rho.matrix @ w[:, b])
            assert abs(got - direct) <= 1e-12


class TestMemory:
    @pytest.mark.parametrize(
        "make",
        [PreparationBasis.computational, lambda n: PreparationBasis.pauli_eigenbasis(n, "Y")],
        ids=["computational", "pauliY"],
    )
    def test_routes_hold_no_dense_operator_besides_the_state(self, make):
        n = 9
        d = 2**n
        rho = random_density_matrix(d, np.random.default_rng(60))
        tracemalloc.start()
        try:
            basis = make(n)
            seqst_exact(rho, basis, 3, 200)
            seqst_sample(rho, basis, 3, 200, ShotPlan(0.1, 0.05, 100), RandomStream(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A D×D complex array takes 4 MiB here, a prepared state 8 KiB.
        assert peak < 16 * d * d // 8


def _pairs(z: np.ndarray) -> list:
    return np.stack([z.real, z.imag], axis=-1).tolist()


def state_specs(n: int) -> list:
    """A spec of every state kind on n qubits; entangled, on two registers of n/2, at even n only."""
    rng = np.random.default_rng(70 + n)
    d = 2**n
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    m = g @ g.conj().T  # rank 2: the matrix kind's factor drops D - 2 eigenvalues at rounding level
    specs = [{"kind": kind, "n": n} for kind in ("zero", "plus", "ghz", "maximally_mixed")]
    specs += [{"kind": "haar", "n": n, "seed": 3}, {"kind": "random_mixed", "n": n, "seed": 4}]
    specs += [{"kind": "amplitudes", "values": _pairs(v / np.linalg.norm(v))}]
    specs += [{"kind": "matrix", "values": _pairs(m / np.trace(m).real)}]
    return specs + [{"kind": "entangled", "n": n // 2}] * (n % 2 == 0)


def dense_state(spec: dict) -> np.ndarray:
    """The D×D rho of a state spec, written out here from the spec with numpy alone."""
    kind = spec["kind"]
    if kind == "matrix":
        return np.array([[complex(*p) for p in row] for row in spec["values"]])
    if kind == "amplitudes":
        v = np.array([complex(*p) for p in spec["values"]])
        return np.outer(v, v.conj())
    d = 2 ** spec["n"]
    if kind in ("haar", "random_mixed"):
        # The draws of the spec's seeded stream: d (haar) or d×d (random_mixed) complex Gaussians.
        seq = np.random.SeedSequence(entropy=spec["seed"], spawn_key=(9001 if kind == "haar" else 9002,))
        gen = np.random.Generator(np.random.Philox(seq))
        shape = (d, 1 if kind == "haar" else d)
        g = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        rho = g @ g.conj().T
        return rho / np.trace(rho)
    if kind == "maximally_mixed":
        return np.eye(d) / d
    v = {"zero": np.eye(d)[0], "plus": np.ones(d), "ghz": np.eye(d)[0] + np.eye(d)[-1]}.get(kind)
    v = np.eye(d).reshape(-1) if kind == "entangled" else v  # sum_i |ii> on two registers
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestFactoredStates:
    """Every state kind, held as its factor, against the dense rho written out from its spec."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10])
    def test_exact_and_block_match_the_dense_state(self, n):
        bases = [_CROSS_CHECK_BASES[kind] for kind in sorted(set(_CROSS_CHECK_BASES) - {"choi"})]
        bases = [(make(n), literal(n)) for make, literal in bases]
        d = 2**n
        pairs = [(d // 3, d - 1), (d - 1, d - 1)]
        for spec in state_specs(n):
            rho, dense = build_state(spec), dense_state(spec)
            for basis, w in bases:
                for a, b in pairs:
                    s = w[:, [b, a]]
                    t = s.conj().T @ dense @ s / 2
                    direct = np.vdot(w[:, a], dense @ w[:, b])
                    got = seqst_exact(rho, basis, a, b)
                    assert abs(got - complex((t[0, 1] + t[1, 0]).real, (1j * (t[0, 1] - t[1, 0])).real)) <= 1e-12
                    assert abs(got - direct) <= 1e-12, (spec["kind"], a, b)
                    g_aa, g_bb, g_ab = _state_block(rho, basis, a, b)
                    assert abs(g_aa - 2 * t[1, 1]) <= 1e-12 and abs(g_bb - 2 * t[0, 0]) <= 1e-12
                    assert abs(g_ab - direct) <= 1e-12

    def test_no_state_kind_but_matrix_is_diagonalized(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a state was diagonalized")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for spec in state_specs(4):
            if spec["kind"] != "matrix":
                assert build_state(spec).dim == 2**4
            else:  # the one kind from outside: its factor comes from eigh
                with pytest.raises(AssertionError, match="diagonalized"):
                    build_state(spec)

    def test_pure_state_route_peaks_at_a_few_vectors(self, capsys):
        # The state, the batch [|b>, |a>] and two gate outputs of that batch: 7 vectors of 2**n entries.
        n = 16
        args = ["run", "--protocol", "seqst-state", "--state", '{"kind": "ghz", "n": 16}', "--a", "5", "--b", "9"]
        tracemalloc.start()
        try:
            assert main([*args, "--basis", '{"kind": "pauli", "axis": "Y"}']) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 8 * 16 * 2**n


class TestExact:
    def test_basis_projector_diagonal(self):
        basis = PreparationBasis.computational(2)
        rho = basis.element(2)
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
            want = basis.element(a).factor[:, 0].conj() @ rho.matrix @ basis.element(b).factor[:, 0]
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
        rho = basis.element(0)
        np.testing.assert_allclose(ancilla_readout(_state_block(rho, basis, 0, 0), "X"), (1, 0, 0), atol=1e-12)

    def test_maximally_mixed_off_diagonal_balances(self):
        basis = PreparationBasis.computational(2)
        rho = DensityMatrix(np.eye(4) / 4)
        p_plus, p_minus, _ = ancilla_readout(_state_block(rho, basis, 0, 3), "X")
        assert abs(p_plus - p_minus) < 1e-12

    def test_against_projector_trace_oracle(self):
        rng = np.random.default_rng(20)
        basis = PreparationBasis.random_unitary_columns(2, rng)
        rho = random_density_matrix(4, rng)
        joint = kron_circuit(rho.matrix, preparator(basis, 1), preparator(basis, 2))
        p0 = np.zeros((4, 4))
        p0[0, 0] = 1.0
        for axis, splus in (("X", [1, 1]), ("Y", [1, 1j])):
            v = np.array(splus, dtype=complex) / np.sqrt(2)
            pp = np.trace(joint @ np.kron(p0, np.outer(v, v.conj()))).real
            got = ancilla_readout(_state_block(rho, basis, 1, 2), axis)
            assert abs(got[0] - pp) < 1e-12
            assert abs(sum(got) - 1.0) < 1e-10
            assert all(0 <= p <= 1 for p in got)

    def test_difference_recovers_coefficient(self):
        rng = np.random.default_rng(21)
        basis = PreparationBasis.random_unitary_columns(2, rng)
        rho = random_density_matrix(4, rng)
        alpha = seqst_exact(rho, basis, 0, 3)
        px = ancilla_readout(_state_block(rho, basis, 0, 3), "X")
        py = ancilla_readout(_state_block(rho, basis, 0, 3), "Y")
        assert abs((px[0] - px[1]) - alpha.real) < 1e-9
        assert abs((py[0] - py[1]) - alpha.imag) < 1e-9

    def test_axis_validation(self):
        basis = PreparationBasis.computational(1)
        with pytest.raises(ValueError):
            ancilla_readout(_state_block(plus_state_density(), basis, 0, 0), "Z")


class TestSampling:
    def test_deterministic_distribution_gives_exact_real_part(self):
        basis = PreparationBasis.computational(2)
        rho = basis.element(0)
        rep = seqst_sample(rho, basis, 0, 0, ShotPlan(0.1, 0.05, 25), RandomStream(0))
        assert rep.value.real == 1.0
        assert rep.se_re == 0.0
        assert rep.tallies[0] == (25, 0, 0)

    def test_single_shot_values(self):
        basis = PreparationBasis.computational(1)
        for seed in range(10):
            rep = seqst_sample(plus_state_density(), basis, 0, 1, ShotPlan(0.1, 0.05, 1), RandomStream(seed))
            assert rep.value.real in (-1.0, 0.0, 1.0)
            assert rep.value.imag in (-1.0, 0.0, 1.0)

    def test_statistical_acceptance_at_planned_shots(self):
        # alpha_01 = 0.5 for |+><+| in the computational basis
        basis = PreparationBasis.computational(1)
        rho = plus_state_density()
        plan = chernoff_plan(0.05, 0.05)
        assert plan.m == 2952
        hits = 0
        for seed in range(200):
            rep = seqst_sample(rho, basis, 0, 1, plan, RandomStream(seed))
            if abs(rep.value.real - 0.5) <= 0.05:
                hits += 1
        assert hits / 200 >= 0.95

    def test_estimator_unbiasedness(self):
        rng = np.random.default_rng(22)
        basis = PreparationBasis.random_unitary_columns(1, rng)
        rho = random_density_matrix(2, rng)
        exact = seqst_exact(rho, basis, 0, 1)
        plan = ShotPlan(0.1, 0.05, 100)
        estimates = np.array(
            [seqst_sample(rho, basis, 0, 1, plan, RandomStream(seed)).value for seed in range(500)]
        )
        for part, target in ((estimates.real, exact.real), (estimates.imag, exact.imag)):
            se = part.std(ddof=1) / np.sqrt(len(part))
            assert abs(part.mean() - target) < 3 * se + 1e-12

    def test_sampling_consistency_chi_square(self):
        rng = np.random.default_rng(23)
        basis = PreparationBasis.random_unitary_columns(2, rng)
        rho = random_density_matrix(4, rng)
        probs = ancilla_readout(_state_block(rho, basis, 1, 3), "X")
        rep = seqst_sample(rho, basis, 1, 3, ShotPlan(0.1, 0.05, 10_000), RandomStream(5))
        assert chi_square_pvalue(rep.tallies[0], probs) > 0.001

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
        assert sum(r3.tallies[0]) == plan.m

    def test_report_serialization(self):
        plan = chernoff_plan(0.5, 0.1)
        args = ["--protocol", "seqst-state", "--state", '{"kind": "plus"}', "--a", "0", "--b", "1"]
        data = estimate_block(*args, "--epsilon", "0.5", "--delta", "0.1", "--seed", "3")
        assert set(data) == {"a", "b", "re", "im", "se_re", "se_im", "m_shots", "tallies", "seed"}
        assert (data["a"], data["b"], data["m_shots"], data["seed"]) == (0, 1, plan.m, 3)
        assert [sum(data["tallies"][axis]) for axis in "xy"] == [plan.m, plan.m]
        rep = seqst_sample(plus_state_density(), PreparationBasis.computational(1), 0, 1, plan, RandomStream(3))
        want = {"re": rep.value.real, "im": rep.value.imag, "se_re": rep.se_re, "se_im": rep.se_im}
        assert {key: data[key] for key in want} == want
        assert [data["tallies"]["x"], data["tallies"]["y"]] == list(map(list, rep.tallies))


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
        assert [word for word, _ in pairs] == pauli_labels(2)
        recon = np.einsum("m,mij->ij", [v for _, v in pairs], dense_pauli_basis(2)) / 4
        np.testing.assert_allclose(recon, rho.matrix, atol=1e-9)
