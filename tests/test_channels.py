import tracemalloc

import numpy as np
import pytest
from conftest import (
    NotCompletelyPositive,
    apply_kraus,
    channel_to_json,
    chi_to_kraus,
    choi_state,
    dense_pauli_basis,
    partial_trace,
    random_channel,
    zoo_catalog,
)

from seqtomo import (
    DensityMatrix,
    KrausChannel,
    channel_from_json,
    channel_zoo,
    compose_channels,
    kraus_to_chi,
    maximally_entangled_state,
    random_density_matrix,
    tensor_channels,
    validate_channel,
)
from seqtomo import channels
from seqtomo.errors import (
    DimensionMismatch,
    ParamOutOfRange,
    SizeLimitExceeded,
    UnknownChannel,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def all_zoo_channels():
    out = list(zoo_catalog(1).items())
    out += [(f"{k} [n=2]", ch) for k, ch in zoo_catalog(2).items()]
    return out


class TestApply:
    def test_full_depolarizing_gives_maximally_mixed(self):
        # 2x2 Kraus-sum oracle at p=1: |0><0| -> diag(1/2, 1/2)
        out = apply_kraus(channel_zoo("depolarizing", p=1.0), DensityMatrix(np.diag([1.0, 0.0])))
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_chi_round_trip_on_random_channel(self):
        rng = np.random.default_rng(3)
        ch = random_channel(1, 3, rng)
        back = chi_to_kraus(kraus_to_chi(ch))
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            via_kraus = apply_kraus(back, rho)
            direct = apply_kraus(ch, rho)
            np.testing.assert_allclose(via_kraus.matrix, direct.matrix, atol=1e-8)


class TestConversions:
    def test_identity_chi(self):
        chi = kraus_to_chi(channel_zoo("identity"))
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        np.testing.assert_allclose(chi, want, atol=1e-12)

    def test_unitary_x_channel(self):
        chi = kraus_to_chi(KrausChannel(1, [X]))
        want = np.zeros((4, 4))
        want[1, 1] = 1.0
        np.testing.assert_allclose(chi, want, atol=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.37, 0.8])
    def test_depolarizing_diagonal(self, p):
        # coefficient-expansion oracle: diag(1 - 3p/4, p/4, p/4, p/4)
        chi = kraus_to_chi(channel_zoo("depolarizing", p=p))
        np.testing.assert_allclose(chi, np.diag([1 - 3 * p / 4, p / 4, p / 4, p / 4]), atol=1e-12)

    def test_chi_to_kraus_identity(self):
        chi = np.zeros((4, 4), dtype=complex)
        chi[0, 0] = 1.0
        ops = chi_to_kraus(chi).kraus_ops
        assert len(ops) == 1
        # single Kraus equal to I up to a global phase
        phase = ops[0][0, 0] / abs(ops[0][0, 0])
        np.testing.assert_allclose(ops[0] / phase, I2, atol=1e-12)

    def test_chi_to_kraus_depolarizing(self):
        p = 0.4
        chi = np.diag([1 - 3 * p / 4, p / 4, p / 4, p / 4]).astype(complex)
        ops = chi_to_kraus(chi).kraus_ops
        assert len(ops) == 4
        # eigendecomposition of a diagonal chi: each Kraus is proportional to one Pauli
        basis = dense_pauli_basis(1)
        for op in ops:
            overlaps = [abs(np.trace(b.conj().T @ op)) / 2 for b in basis]
            overlaps.sort()
            assert overlaps[-1] > 1e-8 and overlaps[-2] < 1e-10

    def test_negative_chi_rejected(self):
        chi = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(NotCompletelyPositive):
            chi_to_kraus(chi)

    @pytest.mark.parametrize("name,ch", all_zoo_channels())
    def test_round_trip_chi_matches_kraus(self, name, ch):
        rng = np.random.default_rng(4)
        chi = kraus_to_chi(ch)
        np.testing.assert_allclose(
            kraus_to_chi(chi_to_kraus(chi)), chi, atol=1e-8, err_msg=name
        )
        back = chi_to_kraus(chi)
        for _ in range(20):
            rho = random_density_matrix(ch.dim, rng)
            np.testing.assert_allclose(
                apply_kraus(back, rho).matrix, apply_kraus(ch, rho).matrix, atol=1e-8, err_msg=name
            )


class TestChoiState:
    def test_identity_channel(self):
        rho = choi_state(channel_zoo("identity"))
        phi = maximally_entangled_state(1).factor[:, 0]
        np.testing.assert_allclose(rho.matrix, np.outer(phi, phi.conj()), atol=1e-15)

    def test_full_bit_flip(self):
        # 4x4 conjugation oracle: projector onto (|10> + |01>)/sqrt(2)
        rho = choi_state(KrausChannel(1, [X]))
        v = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-12)

    @pytest.mark.parametrize("name,ch", all_zoo_channels())
    def test_untouched_register_marginal(self, name, ch):
        rho = choi_state(ch)
        d = ch.dim
        np.testing.assert_allclose(
            partial_trace(rho, (d, d), "B").matrix, np.eye(d) / d, atol=1e-10, err_msg=name
        )

    def test_matches_chi_expansion(self):
        # sum_mn chi_mn (P_m ⊗ I)|I><I|(P_n ⊗ I)† reproduces the dual state
        ch = channel_zoo("amplitude_damping", gamma=0.45)
        chi = kraus_to_chi(ch)
        phi = maximally_entangled_state(1).factor[:, 0]
        proj = np.outer(phi, phi.conj())
        basis = dense_pauli_basis(1)
        want = np.zeros((4, 4), dtype=complex)
        for m in range(4):
            for n in range(4):
                em = np.kron(basis[m], I2)
                en = np.kron(basis[n], I2)
                want += chi[m, n] * (em @ proj @ en.conj().T)
        np.testing.assert_allclose(choi_state(ch).matrix, want, atol=1e-8)


class TestValidate:
    def test_identity_chi_all_true(self):
        report = validate_channel(kraus_to_chi(channel_zoo("identity")))
        assert report.all_valid
        assert report.hermitian_residual < 1e-12
        assert report.tp_residual < 1e-12
        assert report.min_eigenvalue > -1e-12

    @pytest.mark.parametrize(
        "chi",
        [np.eye(3), np.zeros((4, 8)), np.eye(2), np.zeros(16), [[1, 0, 0, 0]] * 3, np.complex128(1), [[1, 0, 0, 0]] * 3 + [[1, 0]]],
        ids=["3x3", "4x8", "2x2", "16", "nested-3x4", "scalar", "ragged"],
    )
    def test_refuses_a_chi_of_no_4n_shape(self, chi):
        with pytest.raises(DimensionMismatch, match="shape"):
            validate_channel(chi)

    def test_refuses_a_shape_before_its_size(self):
        # 2**13 rows, no power of four: its shape is refused before the budgets would be.
        with pytest.raises(DimensionMismatch):
            validate_channel(np.broadcast_to(np.complex128(0), (2**13, 2**13)))

    def test_takes_a_nested_list(self):
        chi = kraus_to_chi(channel_zoo("amplitude_damping", gamma=0.3))
        assert validate_channel(chi.tolist()) == validate_channel(chi)

    def test_scaled_chi_breaks_trace_preservation(self):
        chi = kraus_to_chi(channel_zoo("identity"))
        report = validate_channel(0.5 * chi)
        assert report.hermitian and report.completely_positive
        assert not report.trace_preserving
        assert abs(report.tp_residual - 0.5) < 1e-12

    def test_amplitude_damping_chi_valid(self):
        ch = channel_zoo("amplitude_damping", gamma=0.3)
        assert validate_channel(kraus_to_chi(ch)).all_valid

    @pytest.mark.parametrize("name,ch", all_zoo_channels())
    def test_zoo_channels_valid(self, name, ch):
        assert ch.completeness_residual() < 1e-9, name
        assert validate_channel(kraus_to_chi(ch)).all_valid, name

    def test_corrupted_kraus_fails_some_predicate(self):
        ch = channel_zoo("amplitude_damping", gamma=0.3)
        ops = [k.copy() for k in ch.kraus_ops]
        ops[0] = ops[0] + 0.05 * np.array([[0, 0], [1, 0]], dtype=complex)
        report = validate_channel(kraus_to_chi(KrausChannel(1, ops)))
        assert not report.all_valid


def cross_check_channels():
    """Channels whose rank falls below, at and above 4**n, and one that is not trace-preserving."""
    out = all_zoo_channels()
    depol = channel_zoo("depolarizing", p=0.2)
    deep = depol
    for _ in range(5):
        deep = compose_channels(deep, depol)
    out += [
        ("depolarizing∘depolarizing", compose_channels(depol, depol)),  # r = 16 > 4**1
        ("depolarizing composed six deep", deep),  # r = 4096, where the 4×4 side is read
        ("amplitude_damping ⊗ depolarizing", tensor_channels(channel_zoo("amplitude_damping", gamma=0.3), depol)),
        ("0.9 I", KrausChannel(1, [0.9 * I2])),
    ]
    out += [
        (f"ginibre n={n} r={r}", random_channel(n, r, np.random.default_rng(100 * n + r)))
        for n in (1, 2, 3)
        for r in range(1, 21)
    ]
    return out


class TestValidityFromKraus:
    """``KrausChannel.validity`` against the dense ``validate_channel`` of ``kraus_to_chi``."""

    @pytest.mark.parametrize("name,ch", cross_check_channels())
    def test_matches_the_dense_route(self, name, ch):
        got, want = ch.validity(), validate_channel(kraus_to_chi(ch))
        assert (got.hermitian, got.trace_preserving, got.completely_positive) == (
            want.hermitian,
            want.trace_preserving,
            want.completely_positive,
        )
        for field in ("hermitian_residual", "tp_residual", "min_eigenvalue"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field

    def test_forms_no_chi(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("validity formed a chi")

        for name in ("kraus_to_chi", "validate_channel", "pauli_coefficients", "pauli_combination"):
            monkeypatch.setattr(channels, name, refuse)
        assert channel_zoo("amplitude_damping", gamma=0.3).validity().all_valid


class TestZoo:
    def test_identity_two_qubits(self):
        ch = channel_zoo("identity", n=2)
        assert len(ch.kraus_ops) == 1
        np.testing.assert_allclose(ch.kraus_ops[0], np.eye(4), atol=1e-15)

    def test_depolarizing_zero_is_identity(self):
        ch = channel_zoo("depolarizing", p=0.0)
        rho = random_density_matrix(2, np.random.default_rng(5))
        np.testing.assert_allclose(apply_kraus(ch, rho).matrix, rho.matrix, atol=1e-12)

    def test_amplitude_damping_full_decay(self):
        ch = channel_zoo("amplitude_damping", gamma=1.0)
        out = apply_kraus(ch, DensityMatrix(np.diag([0.0, 1.0])))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_unknown_channel(self):
        with pytest.raises(UnknownChannel):
            channel_zoo("teleporter")

    def test_param_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            channel_zoo("bit_flip", p=1.5)
        with pytest.raises(ParamOutOfRange):
            channel_zoo("amplitude_damping", gamma=-0.1)

    def test_compose(self):
        ch = compose_channels(channel_zoo("bit_flip", p=0.2), channel_zoo("bit_flip", p=0.3))
        rho = random_density_matrix(2, np.random.default_rng(6))
        stepwise = apply_kraus(channel_zoo("bit_flip", p=0.3), apply_kraus(channel_zoo("bit_flip", p=0.2), rho))
        np.testing.assert_allclose(apply_kraus(ch, rho).matrix, stepwise.matrix, atol=1e-12)

    def test_tensor(self):
        ch = tensor_channels(channel_zoo("bit_flip", p=0.2), channel_zoo("identity"))
        assert ch.n == 2
        assert ch.completeness_residual() < 1e-12

    def test_tensor_of_many_factors_matches_pairwise_folds(self):
        f = [channel_zoo("bit_flip", p=0.2), channel_zoo("depolarizing", p=0.4), channel_zoo("unitary", gate="h")]
        folded = tensor_channels(tensor_channels(f[0], f[1]), f[2])
        for got, want in zip(tensor_channels(*f).kraus_ops, folded.kraus_ops, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_compose_equals_the_pairwise_products(self):
        first = random_channel(2, 3, np.random.default_rng(50))
        then = random_channel(2, 2, np.random.default_rng(51))
        want = [b @ a for b in then.kraus_ops for a in first.kraus_ops]
        np.testing.assert_array_equal(compose_channels(first, then).kraus_ops, want)

    def test_kraus_stack_is_one_read_only_array(self):
        ch = tensor_channels(channel_zoo("depolarizing", p=0.2), channel_zoo("identity", n=2))
        assert isinstance(ch.kraus_ops, np.ndarray) and ch.kraus_ops.shape == (4, 8, 8)
        with pytest.raises(ValueError):
            ch.kraus_ops[0, 0, 0] = 2.0

    def test_tensor_builds_its_stack_once(self):
        # Rank 64 on 8 qubits, a 64 MiB stack: a second copy would double the peak.
        dep = {"name": "depolarizing", "params": {"p": 0.3}}
        spec = {"name": "tensor", "params": {"factors": [dep] * 3 + [{"name": "identity", "params": {"n": 5}}]}}
        tracemalloc.start()
        try:
            ch = channel_from_json(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ch.kraus_ops.nbytes == 64 * 16 * 4**8
        assert peak <= 1.1 * ch.kraus_ops.nbytes

    def test_identity_size_ceiling(self):
        assert channel_zoo("identity", n=10).n == 10  # one 16 MiB operator
        with pytest.raises(SizeLimitExceeded):
            channel_zoo("identity", n=11)

    def test_tensor_and_compose_refuse_large_stacks_before_building(self):
        flip = channel_zoo("bit_flip", p=0.1)
        with pytest.raises(SizeLimitExceeded):
            tensor_channels(*[flip] * 20)
        # depolarizing^⊗5 holds 1024 operators of 16 KiB; composed with itself, 16 GiB.
        depol5 = tensor_channels(*[channel_zoo("depolarizing", p=0.1)] * 5)
        with pytest.raises(SizeLimitExceeded):
            compose_channels(depol5, depol5)

    def test_explicit_unitary_is_checked(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_array_equal(channel_zoo("unitary", u=h.tolist()).kraus_ops[0], h)
        with pytest.raises(ParamOutOfRange):
            channel_zoo("unitary", u=[[1, 0], [0, 2]])
        with pytest.raises(ParamOutOfRange):
            channel_zoo("unitary", u=(h * (1 + 1e-8)).tolist())

    def test_random_channel_is_valid(self):
        for rank in (1, 2, 4):
            ch = random_channel(2, rank, np.random.default_rng(7 + rank))
            assert ch.completeness_residual() < 1e-9
            assert validate_channel(kraus_to_chi(ch)).all_valid


class TestSerialization:
    def test_zoo_spec_round_trip(self):
        ch = channel_from_json({"name": "depolarizing", "params": {"p": 0.2}})
        np.testing.assert_allclose(
            kraus_to_chi(ch), np.diag([0.85, 0.05, 0.05, 0.05]), atol=1e-12
        )

    def test_explicit_kraus_round_trip(self):
        ch = channel_zoo("amplitude_damping", gamma=0.3)
        back = channel_from_json(channel_to_json(ch))
        assert back.n == 1
        for a, b in zip(ch.kraus_ops, back.kraus_ops):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_combinator_specs(self):
        spec = {
            "name": "compose",
            "params": {
                "first": {"name": "bit_flip", "params": {"p": 0.1}},
                "then": {"name": "phase_flip", "params": {"p": 0.2}},
            },
        }
        assert channel_from_json(spec).completeness_residual() < 1e-12
        spec2 = {
            "name": "tensor",
            "params": {"factors": [{"name": "identity"}, {"name": "bit_flip", "params": {"p": 0.5}}]},
        }
        assert channel_from_json(spec2).n == 2
