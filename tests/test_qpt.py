import functools
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import channel_to_json, chi_square_pvalue, choi_basis, choi_state, dense_pauli_basis, estimate_block

from seqtomo import (
    ChiMatrix,
    KrausChannel,
    RandomStream,
    aapt_full_chi,
    chernoff_plan,
    channel_zoo,
    dcqd_distribution,
    entangled_state_circuit,
    haar_random_state,
    kraus_to_chi,
    maximally_entangled_state,
    random_channel,
    seqpt_estimate,
    seqpt_exact_average,
    seqst_exact,
    seqst_qpt_exact,
    seqst_qpt_sample,
    seqst_sample,
    tensor_channels,
    validate_channel,
    zoo_catalog,
)
from seqtomo import channels, core, pauli, qpt
from seqtomo.channels import chi_block, chi_diagonal
from seqtomo.cli import main
from seqtomo.errors import IndexOutOfRange, SizeLimitExceeded
from seqtomo.estimation import CHUNK_LIMIT, ShotPlan
from seqtomo.pauli import pauli_masks
from seqtomo.seqst import ancilla_readout, sample_block

# depolarizing(0.3)⊗3 ⊗ identity(7): n = 10 at Kraus rank 64, a 1 GiB Kraus
# stack that the channel budget admits and every dual-state route refuses.
RANK_64_AT_TEN_QUBITS = json.dumps(
    {
        "name": "tensor",
        "params": {
            "factors": [{"name": "depolarizing", "params": {"p": 0.3}}] * 3
            + [{"name": "identity", "params": {"n": 7}}]
        },
    }
)


class TestChoiBasis:
    """The dense test reference: {(P_k ⊗ I)|Phi>} is an orthonormal basis."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_gram_matrix_is_identity(self, n):
        cb = choi_basis(n)
        vecs = np.stack([cb.element(k).factor[:, 0] for k in range(4**n)])
        gram = vecs.conj() @ vecs.T
        np.testing.assert_allclose(gram, np.eye(4**n), atol=1e-10)


class TestAapt:
    def test_identity_channel(self):
        chi = aapt_full_chi(channel_zoo("identity")).entries
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        np.testing.assert_allclose(chi, want, atol=1e-12)

    def test_unitary_z_channel(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        chi = aapt_full_chi(KrausChannel(1, [z])).entries
        want = np.zeros((4, 4))
        want[3, 3] = 1.0
        np.testing.assert_allclose(chi, want, atol=1e-12)

    def test_matches_conversion_oracle(self):
        ch = channel_zoo("amplitude_damping", gamma=0.3)
        np.testing.assert_allclose(
            aapt_full_chi(ch).entries, kraus_to_chi(ch).entries, atol=1e-8
        )

    def test_size_limit(self):
        # Two chi matrices of 4 GiB each at n = 7; the CLI's report refuses n = 5 already.
        with pytest.raises(SizeLimitExceeded):
            aapt_full_chi(channel_zoo("identity", n=7))


class TestDcqdDiagonal:
    def test_identity_survival_probability(self):
        probs = dcqd_distribution(channel_zoo("identity"))
        assert abs(min(probs[0], 1) - 1.0) < 1e-12
        for k in (1, 2, 3):
            assert abs(probs[k]) < 1e-12

    def test_depolarizing_diagonal(self):
        p = 0.6
        ch = channel_zoo("depolarizing", p=p)
        assert abs(min(dcqd_distribution(ch)[1], 1) - p / 4) < 1e-9

    @pytest.mark.parametrize("name,ch", list(zoo_catalog(1).items()) + list(zoo_catalog(2).items()))
    def test_sums_to_one_and_matches_aapt(self, name, ch):
        chi = aapt_full_chi(ch).entries
        vals = np.minimum(dcqd_distribution(ch), 1)
        assert abs(sum(vals) - 1.0) < 1e-8, name
        for k, v in enumerate(vals):
            assert 0.0 <= v <= 1.0
            assert abs(v - chi[k, k].real) < 1e-9, (name, k)


# Each qpt entry point that reads Pauli indices, with the index under test at m.
_PLAN = ShotPlan(0.1, 0.05, 10)
_INDEXED = {
    "seqst_qpt_exact": lambda ch, m: seqst_qpt_exact(ch, m, 0),
    "seqst_qpt_sample": lambda ch, m: seqst_qpt_sample(ch, 0, m, _PLAN, RandomStream(0)),
    "seqpt_outcome_distribution": lambda ch, m: ancilla_readout(
        qpt._seqpt_block(ch, m, 0, haar_random_state(ch.dim, np.random.default_rng(0))), "X"
    ),
    "seqpt_estimate": lambda ch, m: seqpt_estimate(ch, 0, m, 1, _PLAN, RandomStream(0)),
    "seqpt_exact_average": lambda ch, m: seqpt_exact_average(ch, m, 0),
}


class TestIndexValidation:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("route", list(_INDEXED))
    def test_refuses_indices_outside_the_basis(self, route, n):
        ch = channel_zoo("identity", n=n)
        for m in (-1, 4**n):
            with pytest.raises(IndexOutOfRange):
                _INDEXED[route](ch, m)
        _INDEXED[route](ch, 4**n - 1)


def dcqd_rows(ch, plan, stream) -> list:
    """(k, frequency, stderr) for every Pauli index k, drawn from the exact DCQD distribution."""
    return qpt.dcqd_sample_rows(dcqd_distribution(ch), range(4**ch.n), plan, stream)


class TestDcqdSampling:
    def test_identity_all_survive(self):
        rows = dcqd_rows(channel_zoo("identity"), ShotPlan(0.1, 0.05, 200), RandomStream(0))
        assert rows[0][1] == 1.0
        assert all(freq == 0.0 for _, freq, _ in rows[1:])

    def test_half_bit_flip_frequencies(self):
        # chi diagonal of bit_flip(0.5) is (0.5, 0.5, 0, 0)
        ch = channel_zoo("bit_flip", p=0.5)
        rows = dcqd_rows(ch, ShotPlan(0.1, 0.05, 10_000), RandomStream(1))
        freqs = [f for _, f, _ in rows]
        assert abs(freqs[0] - 0.5) < 0.02 and abs(freqs[1] - 0.5) < 0.02
        assert freqs[2] == 0.0 and freqs[3] == 0.0

    @pytest.mark.parametrize("name", ["bit_flip(0.3)", "depolarizing(0.2)", "amplitude_damping(0.3)"])
    def test_goodness_of_fit(self, name):
        ch = zoo_catalog(1)[name]
        probs = np.minimum(dcqd_distribution(ch), 1)
        rows = dcqd_rows(ch, ShotPlan(0.1, 0.05, 10_000), RandomStream(2))
        tallies = [round(f * 10_000) for _, f, _ in rows]
        assert chi_square_pvalue(tallies, probs) > 0.001

    def test_refuses_indices_outside_the_distribution(self):
        probs = dcqd_distribution(channel_zoo("bit_flip", p=0.3))
        plan = ShotPlan(0.1, 0.05, 10)
        for k in (-1, 4):
            with pytest.raises(IndexOutOfRange):
                qpt.dcqd_sample_rows(probs, [0, k], plan, RandomStream(0))
        assert [k for k, _, _ in qpt.dcqd_sample_rows(probs, [3, 0], plan, RandomStream(0))] == [3, 0]

    def test_coverage_of_planned_interval(self):
        # frequencies are means of {0,1} outcomes, so the [-1,1] plan is conservative
        ch = channel_zoo("depolarizing", p=0.3)
        plan = chernoff_plan(0.1, 0.05)
        exact = min(dcqd_distribution(ch)[0], 1)
        covered = sum(
            abs(dict((k, f) for k, f, _ in dcqd_rows(ch, plan, RandomStream(seed)))[0] - exact) <= 0.1
            for seed in range(200)
        )
        assert covered / 200 >= 1 - 0.05 - 0.03


class TestSeqstQpt:
    def test_identity_diagonal(self):
        assert abs(seqst_qpt_exact(channel_zoo("identity"), 0, 0) - 1.0) < 1e-10

    def test_hadamard_cross_term(self):
        # H = (X + Z)/sqrt(2) gives chi = (e_x + e_z)(e_x + e_z)†/2, so the
        # X-Z entry is exactly 1/2
        ch = channel_zoo("unitary", gate="h")
        got = seqst_qpt_exact(ch, 1, 3)
        assert abs(got - 0.5) < 1e-10
        assert abs(kraus_to_chi(ch).entries[1, 3] - 0.5) < 1e-12

    def test_random_channels_match_conversion(self):
        rng = np.random.default_rng(30)
        for n in (1, 2):
            ch = random_channel(n, 3, rng)
            chi = kraus_to_chi(ch).entries
            for _ in range(6):
                a, b = (int(v) for v in rng.integers(0, 4**n, size=2))
                assert abs(seqst_qpt_exact(ch, a, b) - chi[a, b]) < 1e-8

    def test_size_limit(self, monkeypatch):
        # The oracle's estimate, that of the Bell readout: BELL_STACKS dual states of rank 2 plus one operator.
        ch = random_channel(3, 2, np.random.default_rng(31))
        need = (qpt.BELL_STACKS * 2 + 1) * 16 * 4**3
        monkeypatch.setattr(core, "WORKING_SET_MAX_BYTES", need)
        seqst_qpt_exact(ch, 5, 7)
        monkeypatch.setattr(core, "WORKING_SET_MAX_BYTES", need - 1)
        with pytest.raises(SizeLimitExceeded):
            seqst_qpt_exact(ch, 5, 7)
        # The sampler's block is r gathers of D entries, which no budget bounds.
        seqst_qpt_sample(ch, 5, 7, ShotPlan(0.1, 0.05, 10), RandomStream(0))

    def test_cli_run_over_the_byte_bound_exits_three(self):
        args = ["run", "--protocol", "seqst-qpt", "--channel", RANK_64_AT_TEN_QUBITS, "--a", "0", "--b", "0"]
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", *args], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert f"the Bell-basis readout of {qpt.BELL_STACKS * 64 + 1} operator(s) on 10 qubits" in proc.stderr
        assert proc.stdout == ""

    def test_cli_run_at_eight_qubits(self, capsys):
        args = ["run", "--protocol", "seqst-qpt", "--channel", "identity:n=8", "--a", "5", "--b", "7"]
        assert main(args) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert abs(complex(*res["exact"]) - complex(*res["circuit_exact"])) <= 1e-9

    def test_sample_identity_is_deterministic(self):
        est = seqst_qpt_sample(channel_zoo("identity"), 0, 0, ShotPlan(0.1, 0.05, 64), RandomStream(0))
        assert est.value.real == 1.0
        assert est.tallies[0] == (64, 0, 0)
        data = estimate_block("--protocol", "seqst-qpt", "--channel", "identity", "--a", "0", "--b", "0")
        assert (data["protocol"], data["re"], data["shots"]) == ("SEQST-QPT", 1.0, 2 * chernoff_plan(0.1, 0.05).m)

    def test_readout_clamps_a_rounding_excess(self, capsys):
        # chi_00 = 1 + 5e-10, within the trace tolerance: unclamped, p_zero would be -5e-10.
        ch = KrausChannel(1, [np.sqrt(1 + 5e-10) * np.eye(2)])
        est = seqst_qpt_sample(ch, 0, 0, ShotPlan(0.1, 0.05, 64), RandomStream(0))
        assert est.tallies[0] == (64, 0, 0)
        args = ["run", "--protocol", "seqst-qpt", "--channel", json.dumps(channel_to_json(ch)), "--a", "0", "--b", "0"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["results"]["estimate"]["re"] == 1.0

    def test_sample_coverage_on_depolarizing(self):
        # chi_00 = 1 - 3p/4 = 0.85 at p = 0.2
        ch = channel_zoo("depolarizing", p=0.2)
        plan = chernoff_plan(0.05, 0.05)
        hits = sum(
            abs(seqst_qpt_sample(ch, 0, 0, plan, RandomStream(seed)).value.real - 0.85) <= 0.05
            for seed in range(200)
        )
        assert hits / 200 >= 0.95

    def test_sample_vanishing_entry(self):
        # chi of a phase flip is diagonal, so the (I, Z) entry is 0
        ch = channel_zoo("phase_flip", p=0.3)
        plan = chernoff_plan(0.1, 0.05)
        hits = 0
        for seed in range(200):
            est = seqst_qpt_sample(ch, 0, 3, plan, RandomStream(seed))
            if abs(est.value.real) <= 0.1 and abs(est.value.imag) <= 0.1:
                hits += 1
        assert hits / 200 >= 0.95

    def test_estimate_serialization(self):
        args = ["--protocol", "seqst-qpt", "--channel", "depolarizing:p=0.2", "--a", "0", "--b", "3"]
        data = estimate_block(*args, "--epsilon", "0.5", "--seed", "5")
        plan = chernoff_plan(0.5, 0.05)
        assert set(data) == {"protocol", "a", "b", "re", "im", "se_re", "se_im", "shots", "seed"}
        assert data["protocol"] == "SEQST-QPT"
        assert data["a"] == "I" and data["b"] == "Z"
        assert data["shots"] == 2 * plan.m and data["seed"] == 5
        est = seqst_qpt_sample(channel_zoo("depolarizing", p=0.2), 0, 3, plan, RandomStream(5))
        want = {"re": est.value.real, "im": est.value.imag, "se_re": est.se_re, "se_im": est.se_im}
        assert {key: data[key] for key in want} == want


def oracle_channels(n, rng):
    """Ginibre channels of rank 1-4, flip and depolarizing products, and a CNOT-based unitary."""
    flips = ["bit_flip", "phase_flip", "bit_phase_flip"]
    chans = [random_channel(n, rank, rng) for rank in (1, 2, 3, 4)]
    chans.append(tensor_channels(*(channel_zoo(flips[q % 3], p=0.1 + 0.2 * q) for q in range(n))))
    chans.append(tensor_channels(*(channel_zoo("depolarizing", p=0.2 + 0.3 * q) for q in range(n))))
    if n == 2:
        chans.append(channel_zoo("unitary", gate="cnot"))
    if n == 3:
        chans.append(tensor_channels(channel_zoo("unitary", gate="cnot"), channel_zoo("unitary", gate="h")))
    return chans


class TestGateLevelOracle:
    """seqst_qpt_exact against the dense dual-state circuit and the Kraus-to-chi conversion."""

    @staticmethod
    def dense_route(ch, a, b):
        """The selective circuit on the D²×D² matrix rho_E with the kron(P_k, I) preparators."""
        return seqst_exact(choi_state(ch), choi_basis(ch.n), a, b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_route_and_conversion(self, n):
        rng = np.random.default_rng(80 + n)
        d2 = 4**n
        for ch in oracle_channels(n, rng):
            chi = kraus_to_chi(ch).entries
            diag = int(rng.integers(d2))
            pairs = [(0, 0), (diag, diag), (d2 - 1, 1)]
            pairs += [tuple(int(v) for v in rng.integers(0, d2, size=2)) for _ in range(4)]
            for a, b in pairs:
                got = seqst_qpt_exact(ch, a, b)
                assert abs(got - self.dense_route(ch, a, b)) < 1e-13, (ch, a, b)
                assert abs(got - chi[a, b]) < 1e-13, (ch, a, b)

    @pytest.mark.parametrize("scale", [0.8, 1.2])
    def test_refuses_non_trace_preserving_channel(self, scale):
        with pytest.raises(ValueError):
            seqst_qpt_exact(KrausChannel(1, [scale * np.eye(2)]), 0, 0)


class TestCoefficientRoute:
    """chi_block and chi_diagonal, the Pauli-coefficient oracles, against the
    gate-level circuit and the Bell route, which share no more than the
    (x, z, phase) tables with them, and against kraus_to_chi."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_matches_conversion(self, n):
        rng = np.random.default_rng(60 + n)
        for ch in oracle_channels(n, rng):
            chi = kraus_to_chi(ch).entries
            pairs = [(0, 0), (4**n - 1, 1)] + [tuple(int(v) for v in rng.integers(0, 4**n, 2)) for _ in range(4)]
            for a, b in pairs:
                got = chi_block(ch, a, b)
                np.testing.assert_allclose(got, (chi[a, a], chi[b, b], chi[a, b]), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_exact_matches_the_gate_route(self, n):
        rng = np.random.default_rng(70 + n)
        ch = random_channel(n, 2, rng)
        for _ in range(3):
            a, b = (int(v) for v in rng.integers(0, 4**n, size=2))
            g_aa, g_bb, g_ab = chi_block(ch, a, b)
            assert abs(g_ab - seqst_qpt_exact(ch, a, b)) <= 1e-10
            assert abs(g_aa - seqst_qpt_exact(ch, a, a)) <= 1e-10
            assert abs(g_bb - seqst_qpt_exact(ch, b, b)) <= 1e-10

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_diagonal_matches_the_bell_route(self, n):
        ch = random_channel(n, 2, np.random.default_rng(75 + n))
        np.testing.assert_allclose(chi_diagonal(ch), dcqd_distribution(ch), rtol=0, atol=1e-10)

    @staticmethod
    def peak(route) -> int:
        tracemalloc.start()
        try:
            route()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n, rank", [(5, 4), (6, 4), (8, 2)])
    def test_working_sets_stay_within_their_estimates(self, n, rank):
        # Each route's estimate, in operators of 16 * 4**n bytes; a chi matrix is 4**n of them.
        ch = random_channel(n, rank, np.random.default_rng(n))
        pauli_masks(n)  # the cached index tables are no part of a route
        routes = [
            (qpt.BELL_STACKS * rank + 1, lambda: seqst_qpt_exact(ch, 5, 7)),
            (qpt.BELL_STACKS * rank + 1, lambda: dcqd_distribution(ch)),
            (channels.DIAGONAL_STACKS * rank + 1, lambda: chi_diagonal(ch)),
            (qpt.HAAR_OPERATORS, lambda: seqpt_exact_average(ch, 5, 7)),
            # the Kraus stack it reads, which the peak does not count, and one operator
            (rank + 1, lambda: seqpt_estimate(ch, 5, 7, 2, _PLAN, RandomStream(0))),
        ]
        if n == 5:  # the chi routes; one chi takes 16 MB here and 268 MB at n = 6
            chi, chis = kraus_to_chi(ch), 4**n
            routes += [
                (channels.CHI_COPIES * chis + channels.DIAGONAL_STACKS * rank + 1, lambda: kraus_to_chi(ch)),
                # the estimate counts the chi it is given, which the peak does not
                ((channels.VALIDITY_CHIS - 1) * chis + 2, lambda: validate_channel(chi)),
                (channels.CHI_COPIES * chis + qpt.BELL_STACKS * rank + 1, lambda: aapt_full_chi(ch)),
            ]
        for operators, route in routes:
            assert self.peak(route) <= operators * 16 * 4**n

    @pytest.mark.parametrize(
        "route, ceiling",
        [(kraus_to_chi, 6), (aapt_full_chi, 6), (functools.partial(seqpt_exact_average, a=5, b=7), 10), (validate_channel, 5)],
    )
    def test_chi_routes_refuse_one_qubit_past_their_ceiling_before_allocating(self, monkeypatch, route, ceiling):
        # The estimates read only n and the rank, so a one-qubit argument stands in for one on more qubits.
        arg = ChiMatrix(1, np.eye(4)) if route is validate_channel else KrausChannel(1, [np.eye(2)])
        monkeypatch.setattr(arg, "n", ceiling + 1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded):
                route(arg)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_single_entry_routes_build_no_table_over_every_pauli(self):
        # Each reads two Paulis, so none needs the 4**n index tables or the D×D sign matrix.
        ch = random_channel(6, 2, np.random.default_rng(6))
        pauli._tables.cache_clear()
        seqst_qpt_sample(ch, 5, 7, _PLAN, RandomStream(0))
        seqst_qpt_exact(ch, 5, 7)
        chi_block(ch, 5, 7)
        seqpt_estimate(ch, 5, 7, 2, _PLAN, RandomStream(0))
        seqpt_exact_average(ch, 5, 7)
        assert pauli._tables.cache_info().currsize == 0

    def test_every_route_refuses_the_rank_64_channel_at_ten_qubits(self, monkeypatch):
        # The same verdicts as for depolarizing⊗3 ⊗ identity(7), without its 1 GiB stack:
        # the estimates read only n and the rank.
        ch = KrausChannel(1, [np.eye(2)])
        monkeypatch.setattr(ch, "n", 10)
        monkeypatch.setattr(ch, "kraus_ops", [np.eye(2)] * 64)
        for route in (
            lambda: seqst_qpt_exact(ch, 0, 0),
            lambda: dcqd_distribution(ch),
            lambda: chi_diagonal(ch),
            lambda: seqpt_estimate(ch, 0, 0, 1, _PLAN, RandomStream(0)),
        ):
            with pytest.raises(SizeLimitExceeded):
                route()

    def test_seqpt_budgets_a_fixed_operator_count_whatever_the_rank(self, monkeypatch):
        # HAAR_OPERATORS D×D operators beside the channel, at rank 4 as at rank 1.
        ch = random_channel(3, 4, np.random.default_rng(32))
        need = qpt.HAAR_OPERATORS * 16 * 4**3
        monkeypatch.setattr(core, "WORKING_SET_MAX_BYTES", need)
        seqpt_exact_average(ch, 5, 7)
        monkeypatch.setattr(core, "WORKING_SET_MAX_BYTES", need - 1)
        with pytest.raises(SizeLimitExceeded):
            seqpt_exact_average(ch, 5, 7)


class TestBellRoute:
    """aapt and DCQD, read from the purified dual state through U_Phi†, against
    the dense rho_E projected on the kron(P_k, I) basis and against kraus_to_chi."""

    @staticmethod
    def dense_chi(ch):
        """<r_m| rho_E |r_n> with the dense D²×D² rho_E and r_m = kron(P_m, I)|Phi>."""
        basis = choi_basis(ch.n)
        vecs = np.stack([basis.element(k).factor[:, 0] for k in range(4**ch.n)])
        return vecs.conj() @ choi_state(ch).matrix @ vecs.T

    @pytest.mark.parametrize("n", [1, 2])
    def test_aapt_matches_dense_route_and_conversion(self, n):
        for ch in oracle_channels(n, np.random.default_rng(90 + n)):
            got = aapt_full_chi(ch).entries
            np.testing.assert_allclose(got, self.dense_chi(ch), rtol=0, atol=1e-13, err_msg=repr(ch))
            np.testing.assert_allclose(got, kraus_to_chi(ch).entries, rtol=0, atol=1e-13, err_msg=repr(ch))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dcqd_matches_dense_route_and_conversion(self, n):
        for ch in oracle_channels(n, np.random.default_rng(95 + n)):
            got = dcqd_distribution(ch)
            dense = self.dense_chi(ch).diagonal().real
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13, err_msg=repr(ch))
            np.testing.assert_allclose(got, kraus_to_chi(ch).entries.diagonal().real, rtol=0, atol=1e-13)

    def test_dcqd_at_six_qubits_without_the_dense_dual_state(self):
        ch = random_channel(6, 2, np.random.default_rng(97))
        tracemalloc.start()
        try:
            probs = dcqd_distribution(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The dense rho_E alone would take 16 * 4**12 bytes = 268 MB.
        assert peak < 64 * 2**20
        assert abs(probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("scale", [0.8, 1.2])
    def test_refuses_non_trace_preserving_channel(self, scale):
        ch = KrausChannel(1, [scale * np.eye(2)])
        with pytest.raises(ValueError):
            dcqd_distribution(ch)
        with pytest.raises(ValueError):
            aapt_full_chi(ch)


class TestTraceTolerance:
    """The dual-state routes accept every channel that ``validate`` calls trace-preserving."""

    @staticmethod
    def off_by(off):
        ch = random_channel(2, 2, np.random.default_rng(98))
        return KrausChannel(2, [np.sqrt(1.0 + off) * k for k in ch.kraus_ops])

    EXTRA_ARGS = {
        "dcqd-diag": ["--target", "all-diagonal"],
        "aapt": ["--target", "all"],
        "seqst-qpt": ["--a", "5", "--b", "9"],
        "validate": [],
    }

    def run(self, capsys, protocol, ch):
        code = main(["run", "--protocol", protocol, "--channel", json.dumps(channel_to_json(ch))] + self.EXTRA_ARGS[protocol])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("protocol", ["dcqd-diag", "aapt", "seqst-qpt", "validate"])
    def test_half_a_validity_tolerance_off_runs(self, capsys, protocol):
        code, out, err = self.run(capsys, protocol, self.off_by(5e-10))
        assert code == 0, err
        res = json.loads(out)["results"]
        if protocol == "validate":
            assert res["all_valid"] is True
        elif protocol == "seqst-qpt":
            assert abs(complex(*res["circuit_exact"]) - complex(*res["exact"])) <= 1e-12
        else:
            assert max(v for k, v in res.items() if k.startswith("oracle_")) <= 1e-12

    @pytest.mark.parametrize("protocol", ["dcqd-diag", "aapt", "seqst-qpt"])
    def test_ten_validity_tolerances_off_exits_two(self, capsys, protocol):
        code, _, err = self.run(capsys, protocol, self.off_by(1e-8))
        assert code == 2
        assert "not trace-preserving" in err and "Traceback" not in err

    def test_validate_also_refuses_ten_tolerances_off(self, capsys):
        code, out, _ = self.run(capsys, "validate", self.off_by(1e-8))
        assert code == 0 and json.loads(out)["results"]["all_valid"] is False


class TestReadoutBlockCrossChecks:
    """The block samplers against dense routes they do not share code with."""

    def test_qpt_sample_matches_dense_dual_state_route(self):
        # Random channels keep every outcome probability off the sampler's
        # branch points, where a last-bit difference could move one shot.
        rng = np.random.default_rng(61)
        plan = ShotPlan(0.1, 0.05, 500)
        for n in (1, 2, 3):
            for i in range(8):
                ch = random_channel(n, 1 + i % 4, rng)
                a, b = (int(v) for v in rng.integers(0, 4**n, size=2))
                stream = RandomStream(100 * n + i)
                est = seqst_qpt_sample(ch, a, b, plan, stream)
                assert est == seqst_sample(choi_state(ch), choi_basis(n), a, b, plan, stream)

    @staticmethod
    def dense_seqpt_distribution(ch, a, b, psi, axis):
        """Controlled P_b/P_a, then the channel ⊗ I2, then the psi ⊗ |±><±| projector trace."""
        paulis = dense_pauli_basis(ch.n)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        u = np.kron(paulis[b], p0) + np.kron(paulis[a], p1)
        plus = np.full((2, 2), 0.5, dtype=complex)
        proj = np.outer(psi.factor[:, 0], psi.factor[:, 0].conj())
        joint = u @ np.kron(proj, plus) @ u.conj().T
        out = sum(np.kron(k, np.eye(2)) @ joint @ np.kron(k, np.eye(2)).conj().T for k in ch.kraus_ops)
        phase = 1 if axis == "X" else 1j
        probs = []
        for sign in (1, -1):
            s = np.array([1, sign * phase], dtype=complex) / np.sqrt(2)
            probs.append(float(np.trace(out @ np.kron(proj, np.outer(s, s.conj()))).real))
        return probs[0], probs[1], 1.0 - probs[0] - probs[1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_seqpt_distribution_matches_dense_joint_state(self, n):
        rng = np.random.default_rng(62 + n)
        for i in range(6):
            ch = random_channel(n, 1 + i % 3, rng)
            psi = haar_random_state(2**n, rng)
            a, b = (int(v) for v in rng.integers(0, 4**n, size=2))
            for axis in ("X", "Y"):
                got = ancilla_readout(qpt._seqpt_block(ch, a, b, psi), axis)
                want = self.dense_seqpt_distribution(ch, a, b, psi, axis)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [0.8, 1.2])
    def test_qpt_sample_refuses_non_trace_preserving_channel(self, scale):
        ch = KrausChannel(1, [scale * np.eye(2)])
        with pytest.raises(ValueError):
            seqst_qpt_sample(ch, 0, 0, ShotPlan(0.1, 0.05, 10), RandomStream(0))


def seqpt_single_state(ch, a, b, psi) -> tuple:
    """(x, y) = (p_plus - p_minus) on the X and Y axes: x + iy = <psi|E(P_a |psi><psi| P_b)|psi>."""
    dx, dy = (ancilla_readout(qpt._seqpt_block(ch, a, b, psi), axis) for axis in "XY")
    assert abs(sum(dx) - 1.0) < 1e-10 and abs(sum(dy) - 1.0) < 1e-10
    return dx[0] - dx[1], dy[0] - dy[1]


class TestSeqptSingleState:
    def test_identity_channel_trivial_pair(self):
        psi = haar_random_state(2, np.random.default_rng(40))
        x, y = seqpt_single_state(channel_zoo("identity"), 0, 0, psi)
        assert abs(x - 1.0) < 1e-12
        assert abs(y) < 1e-12

    def test_equal_indices_give_real_value(self):
        rng = np.random.default_rng(41)
        ch = random_channel(1, 2, rng)
        psi = haar_random_state(2, rng)
        for a in range(4):
            x, y = seqpt_single_state(ch, a, a, psi)
            p = dense_pauli_basis(1)[a]
            m = p @ np.outer(psi.factor[:, 0], psi.factor[:, 0].conj()) @ p
            want = sum(k @ m @ k.conj().T for k in ch.kraus_ops)
            assert abs(y) < 1e-10
            assert abs(x - (psi.factor[:, 0].conj() @ want @ psi.factor[:, 0]).real) < 1e-10

    def test_cross_block_oracle(self):
        # two-route check: x + iy must equal <psi|E(P_a |psi><psi| P_b)|psi>
        rng = np.random.default_rng(42)
        ch = random_channel(1, 3, rng)
        psi = haar_random_state(2, rng)
        basis = dense_pauli_basis(1)
        for a in range(4):
            for b in range(4):
                x, y = seqpt_single_state(ch, a, b, psi)
                m = basis[a] @ np.outer(psi.factor[:, 0], psi.factor[:, 0].conj()) @ basis[b]
                c = psi.factor[:, 0].conj() @ sum(k @ m @ k.conj().T for k in ch.kraus_ops) @ psi.factor[:, 0]
                assert abs(complex(x, y) - c) < 1e-10


class TestSeqptAverages:
    def test_identity_off_diagonal(self):
        assert seqpt_exact_average(channel_zoo("identity"), 0, 1) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_identity_diagonal(self):
        # (D * 1 + 1)/(D + 1) = 1 for chi_00 = 1
        avg_x, avg_y = seqpt_exact_average(channel_zoo("identity"), 0, 0)
        assert abs(avg_x - 1.0) < 1e-12 and abs(avg_y) < 1e-12

    def test_single_qubit_exhaustive_identity_with_conversion(self):
        rng = np.random.default_rng(44)
        ch = random_channel(1, 3, rng)
        chi = kraus_to_chi(ch).entries
        d = 2
        for a in range(4):
            for b in range(4):
                avg_x, avg_y = seqpt_exact_average(ch, a, b)
                delta = 1.0 if a == b else 0.0
                assert abs(avg_x - (d * chi[a, b].real + delta) / (d + 1)) < 1e-9
                assert abs(avg_y - d * chi[a, b].imag / (d + 1)) < 1e-9

    def test_two_qubit_random_pairs(self):
        rng = np.random.default_rng(45)
        ch = random_channel(2, 4, rng)
        chi = kraus_to_chi(ch).entries
        d = 4
        for _ in range(50):
            a, b = (int(v) for v in rng.integers(0, 16, size=2))
            avg_x, avg_y = seqpt_exact_average(ch, a, b)
            delta = 1.0 if a == b else 0.0
            assert abs(avg_x - (d * chi[a, b].real + delta) / (d + 1)) < 1e-9
            assert abs(avg_y - d * chi[a, b].imag / (d + 1)) < 1e-9

    @staticmethod
    def loop_swap_average(ch, a, b):
        """The dense two-copy route: sum_k Tr((K_k P_a ⊗ P_b K_k†)(I + SWAP)) / (D(D+1)), SWAP built by loops."""
        d = ch.dim
        basis = dense_pauli_basis(ch.n)
        swap = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                swap[i * d + j, j * d + i] = 1.0
        two_copy = (np.eye(d * d) + swap) / (d * (d + 1))
        avg = 0j
        for k in ch.kraus_ops:
            avg += np.einsum("ij,ji->", np.kron(k @ basis[a], basis[b] @ k.conj().T), two_copy)
        return float(avg.real), float(avg.imag)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_the_loop_built_swap(self, n):
        rng = np.random.default_rng(47 + n)
        for rank in (1, 2, 4):
            ch = random_channel(n, rank, rng)
            pairs = [(0, 0), (4**n - 1, 1)] + [tuple(int(v) for v in rng.integers(0, 4**n, size=2)) for _ in range(3)]
            for a, b in pairs:
                got, want = seqpt_exact_average(ch, a, b), self.loop_swap_average(ch, a, b)
                assert np.allclose(got, want, rtol=0, atol=1e-14), (rank, a, b)

    def test_monte_carlo_single_state_average_converges(self):
        # Haar-sample the exact single-state values and compare to the closed form
        rng = np.random.default_rng(46)
        ch = channel_zoo("amplitude_damping", gamma=0.5)
        xs, ys = [], []
        for _ in range(20_000):
            psi = haar_random_state(2, rng)
            x, y = seqpt_single_state(ch, 0, 1, psi)
            xs.append(x)
            ys.append(y)
        avg_x, avg_y = seqpt_exact_average(ch, 0, 1)
        assert abs(np.mean(xs) - avg_x) < 4 * np.std(xs) / np.sqrt(len(xs)) + 1e-6
        assert abs(np.mean(ys) - avg_y) < 4 * np.std(ys) / np.sqrt(len(ys)) + 1e-6


def stabilizer_states(n: int) -> np.ndarray:
    """The n-qubit stabilizer states, one row each, up to global phase.

    A breadth-first search from |0...0> under h and s on each qubit and cnot
    on neighbouring qubits, each gate a kron of literal matrices.
    """
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = np.diag([1, 1j])
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])

    def on(gate, q):
        width = gate.shape[0].bit_length() - 1
        return functools.reduce(np.kron, [np.eye(2**q), gate, np.eye(2 ** (n - q - width))])

    gates = [on(g, q) for g in (h, s) for q in range(n)] + [on(cnot, q) for q in range(n - 1)]

    def key(psi):
        lead = psi[np.flatnonzero(np.abs(psi) > 1e-9)[0]]
        return tuple(np.round(psi * abs(lead) / lead, 9).tolist())

    start = np.eye(2**n, dtype=complex)[0]
    seen, frontier = {key(start): start}, [start]
    while frontier:
        reached = {key(phi): phi for phi in (g @ psi for psi in frontier for g in gates)}
        frontier = [phi for k, phi in reached.items() if k not in seen]
        seen.update(reached)
    return np.stack(list(seen.values()))


class TestStabilizerDesign:
    """The Haar oracle against a finite exact 2-design: the stabilizer states
    form a 3-design (Kueng & Gross, arXiv:1510.02767), so their uniform average
    of <psi|K P_a|psi><psi|P_b K†|psi> is the Haar average."""

    @pytest.mark.parametrize("n, count", [(1, 6), (2, 60), (3, 1080)])
    def test_count_and_frame_potential(self, n, count):
        states = stabilizer_states(n)
        d = 2**n
        assert len(states) == count
        frame = np.mean(np.abs(states.conj() @ states.T) ** 4)
        assert abs(frame - 2 / (d * (d + 1))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_design_average_is_the_exact_average(self, n):
        states, paulis = stabilizer_states(n), dense_pauli_basis(n)
        rng = np.random.default_rng(140 + n)
        for rank in (1, 2, 4):
            ch = random_channel(n, rank, rng)
            for _ in range(3):
                a, b = (int(v) for v in rng.integers(0, 4**n, size=2))
                avg = 0j
                for k in ch.kraus_ops:
                    # <psi|K P_m|psi> for every state psi, m = a, b
                    wa, wb = (np.einsum("si,ij,sj->s", states.conj(), k @ paulis[m], states) for m in (a, b))
                    avg += np.mean(wa * wb.conj())
                got = seqpt_exact_average(ch, a, b)
                assert np.allclose(got, (avg.real, avg.imag), rtol=0, atol=1e-12), (rank, a, b)


class TestSeqptEstimate:
    def test_identity_diagonal_exact(self):
        est = seqpt_estimate(channel_zoo("identity"), 0, 0, 5, ShotPlan(0.1, 0.05, 40), RandomStream(0))
        assert est.value.real == 1.0
        args = ["--protocol", "seqpt", "--channel", "identity", "--a", "0", "--b", "0", "--n-states", "5"]
        data = estimate_block(*args)
        assert (data["protocol"], data["re"], data["shots"]) == ("SEQPT", 1.0, 2 * 5 * chernoff_plan(0.1, 0.05).m)

    @pytest.mark.parametrize("n_states, workers", [(1, 1), (6, 1), (4, 3)])
    def test_tallies_sum_over_the_states(self, n_states, workers):
        ch = channel_zoo("amplitude_damping", gamma=0.3)
        plan = ShotPlan(0.1, 0.05, 37)
        est = seqpt_estimate(ch, 1, 2, n_states, plan, RandomStream(8), workers)
        assert [sum(axis) for axis in est.tallies] == [n_states * plan.m] * 2
        # Each state draws its own runs: the sum of the per-state tallies.
        per_state = []
        for s in range(n_states):
            ss = RandomStream(8).substream(s)
            block = qpt._seqpt_block(ch, 1, 2, haar_random_state(2, ss.substream(0).generator()))
            per_state.append(sample_block(block, plan.m, (ss.substream(1), ss.substream(2)), workers).tallies)
        assert np.array_equal(est.tallies, np.sum(per_state, axis=0))
        assert all(isinstance(t, int) for axis in est.tallies for t in axis)

    def test_depolarizing_diagonal_entry(self):
        # chi_11 = p/4 = 0.1 at p = 0.4
        ch = channel_zoo("depolarizing", p=0.4)
        est = seqpt_estimate(ch, 1, 1, 40, ShotPlan(0.05, 0.05, 600), RandomStream(1))
        assert abs(est.value.real - 0.1) <= 3 * est.se_re + 1e-3
        assert est.se_re > 0

    def test_determinism(self):
        ch = channel_zoo("bit_flip", p=0.25)
        kwargs = dict(n_states=7, plan=ShotPlan(0.1, 0.05, 50), stream=RandomStream(11))
        assert seqpt_estimate(ch, 0, 1, **kwargs) == seqpt_estimate(ch, 0, 1, **kwargs)

    def test_coverage_of_planned_interval(self):
        # pooled outcomes across states still satisfy the Hoeffding budget,
        # inflated by the (D+1)/D inversion factor
        ch = channel_zoo("depolarizing", p=0.3)
        chi = kraus_to_chi(ch).entries
        plan = chernoff_plan(0.2, 0.05)
        bound = 0.2 * 1.5  # (D+1)/D = 3/2 at one qubit
        covered = 0
        for seed in range(200):
            est = seqpt_estimate(ch, 0, 0, 4, plan, RandomStream(seed))
            if abs(est.value.real - chi[0, 0].real) <= bound:
                covered += 1
        assert covered / 200 >= 1 - 0.05 - 0.03

    def test_n_states_validation(self):
        with pytest.raises(IndexOutOfRange):
            seqpt_estimate(channel_zoo("identity"), 0, 0, 0, ShotPlan(0.1, 0.05, 10), RandomStream(0))

    @pytest.mark.parametrize("n_states, workers", [(CHUNK_LIMIT + 1, 1), (100, 100), (10**9, 1)])
    def test_state_loop_over_the_chunk_limit_is_refused_before_any_draw(self, monkeypatch, n_states, workers):
        # n_states * min(workers, m) generators would be built
        def refuse(*args):
            raise AssertionError("a state was drawn before the chunk check")

        monkeypatch.setattr(qpt, "haar_random_state", refuse)
        plan = ShotPlan(0.1, 0.05, 738)
        with pytest.raises(SizeLimitExceeded):
            seqpt_estimate(channel_zoo("identity"), 0, 0, n_states, plan, RandomStream(0), workers)


class TestConcordance:
    @pytest.mark.parametrize("name,ch", list(zoo_catalog(1).items()))
    def test_three_routes_agree_single_qubit(self, name, ch):
        conv = kraus_to_chi(ch).entries
        aapt = aapt_full_chi(ch).entries
        np.testing.assert_allclose(aapt, conv, atol=1e-8, err_msg=name)
        selective = np.array([[seqst_qpt_exact(ch, a, b) for b in range(4)] for a in range(4)])
        np.testing.assert_allclose(selective, conv, atol=1e-8, err_msg=name)


class TestEntangledCircuit:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gate_counts_and_output(self, n):
        psi, counts = entangled_state_circuit(n)
        assert counts.single_qubit == n
        assert counts.two_qubit == n
        np.testing.assert_allclose(
            psi.factor[:, 0], maximally_entangled_state(n).factor[:, 0], atol=1e-12
        )

    def test_serialization_fields(self):
        args = ["--protocol", "seqpt", "--channel", "depolarizing:p=0.2", "--a", "1", "--b", "3", "--n-states", "3"]
        data = estimate_block(*args, "--epsilon", "0.5", "--seed", "4")
        plan = chernoff_plan(0.5, 0.05)
        est = seqpt_estimate(channel_zoo("depolarizing", p=0.2), 1, 3, 3, plan, RandomStream(4))
        assert data == {
            "protocol": "SEQPT",
            "a": "X",
            "b": "Z",
            "re": est.value.real,
            "im": est.value.imag,
            "se_re": est.se_re,
            "se_im": est.se_im,
            "shots": 2 * 3 * plan.m,
            "seed": 4,
        }
