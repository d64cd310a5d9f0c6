"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output) in addition to its assertions.
"""

import json
import re
import subprocess
import sys
import time

import numpy as np
from conftest import chi_square_pvalue, random_channel, zoo_catalog

from seqtomo import (
    DensityMatrix,
    PreparationBasis,
    RandomStream,
    ShotPlan,
    aapt_full_chi,
    chernoff_plan,
    dcqd_distribution,
    entangled_state_circuit,
    haar_random_state,
    kraus_to_chi,
    maximally_entangled_state,
    random_density_matrix,
    sample_categorical,
    seqpt_exact_average,
    seqst_exact,
    seqst_qpt_exact,
    seqst_sample,
    validate_channel,
)
from seqtomo import qpt
from seqtomo.seqst import _state_block, ancilla_readout


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_selective_state_tomography_correctness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in (1, 2, 3):
        for _ in range(17 if n < 3 else 16):
            basis = PreparationBasis.random_unitary_columns(n, rng)
            rho = random_density_matrix(2**n, rng)
            a, b = (int(v) for v in rng.integers(0, 2**n, size=2))
            got = seqst_exact(rho, basis, a, b)
            want = basis.element(a).factor[:, 0].conj() @ rho.matrix @ basis.element(b).factor[:, 0]
            worst = max(worst, abs(got - want))
            cases += 1
    elapsed = time.perf_counter() - start
    ok = cases == 50 and worst <= 1e-9 and elapsed < 10.0
    _verdict(1, ok, f"{cases} random coefficients, max |circuit - direct| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_protocol_concordance():
    start = time.perf_counter()
    worst = 0.0
    for name, ch in zoo_catalog(1).items():
        conv = kraus_to_chi(ch)
        full = aapt_full_chi(ch)
        worst = max(worst, float(np.max(np.abs(full - conv))))
        for a in range(4):
            for b in range(4):
                sel = seqst_qpt_exact(ch, a, b)
                worst = max(worst, abs(sel - conv[a, b]), abs(sel - full[a, b]))
    rng = np.random.default_rng(202)
    for _ in range(10):
        ch = random_channel(2, int(rng.integers(1, 5)), rng)
        conv = kraus_to_chi(ch)
        full = aapt_full_chi(ch)
        worst = max(worst, float(np.max(np.abs(full - conv))))
        for _ in range(40):
            a, b = (int(v) for v in rng.integers(0, 16, size=2))
            sel = seqst_qpt_exact(ch, a, b)
            worst = max(worst, abs(sel - conv[a, b]), abs(sel - full[a, b]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _verdict(2, ok, f"three chi routes, pairwise max diff = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_dcqd_diagonal():
    worst = 0.0
    worst_sum = 0.0
    channels = list(zoo_catalog(1).items()) + list(zoo_catalog(2).items())
    for name, ch in channels:
        chi = kraus_to_chi(ch)
        vals = np.minimum(dcqd_distribution(ch), 1)
        worst = max(worst, max(abs(v - chi[k, k].real) for k, v in enumerate(vals)))
        worst_sum = max(worst_sum, abs(sum(vals) - 1.0))
    ok = worst <= 1e-9 and worst_sum <= 1e-8
    _verdict(3, ok, f"{len(channels)} channels, max |p_k - chi_kk| = {worst:.2e}, max |sum - 1| = {worst_sum:.2e}")


def test_criterion_4_haar_average_identity():
    worst = 0.0
    rng = np.random.default_rng(303)
    single = list(zoo_catalog(1).values()) + [random_channel(1, 3, rng)]
    for ch in single:
        chi = kraus_to_chi(ch)
        for a in range(4):
            for b in range(4):
                avg_x, avg_y = seqpt_exact_average(ch, a, b)
                delta = 1.0 if a == b else 0.0
                worst = max(worst, abs(avg_x - (2 * chi[a, b].real + delta) / 3))
                worst = max(worst, abs(avg_y - 2 * chi[a, b].imag / 3))
    ch2 = random_channel(2, 4, rng)
    chi2 = kraus_to_chi(ch2)
    for _ in range(50):
        a, b = (int(v) for v in rng.integers(0, 16, size=2))
        avg_x, avg_y = seqpt_exact_average(ch2, a, b)
        delta = 1.0 if a == b else 0.0
        worst = max(worst, abs(avg_x - (4 * chi2[a, b].real + delta) / 5))
        worst = max(worst, abs(avg_y - 4 * chi2[a, b].imag / 5))
    ok = worst <= 1e-9
    _verdict(4, ok, f"Haar-average identity, max deviation = {worst:.2e}")


def test_criterion_5_chernoff_calibration():
    start = time.perf_counter()
    plan = chernoff_plan(0.1, 0.05)
    assert plan.m == 738
    basis = PreparationBasis.computational(1)
    rho = DensityMatrix.from_factor(np.array([1, 1], dtype=complex) / np.sqrt(2))
    exact = seqst_exact(rho, basis, 0, 1)
    assert abs(exact - 0.5) < 1e-12
    misses = sum(
        abs(seqst_sample(rho, basis, 0, 1, plan, RandomStream(seed)).value.real - 0.5) > 0.1
        for seed in range(1000)
    )
    elapsed = time.perf_counter() - start
    ok = misses / 1000 <= 0.05 and elapsed < 120.0
    _verdict(5, ok, f"M = {plan.m}, miss rate {misses}/1000 over seeded runs, {elapsed:.2f}s")


def test_criterion_6_validity_predicates_and_mutants():
    issues = []
    for name, ch in list(zoo_catalog(1).items()) + list(zoo_catalog(2).items()):
        if not validate_channel(kraus_to_chi(ch)).all_valid:
            issues.append(f"{name} failed validation")

    base = kraus_to_chi(zoo_catalog(1)["depolarizing(0.2)"])

    # anti-Hermitian defect between anticommuting Paulis: trace preservation
    # and the Hermitian-part spectrum are untouched
    mutant = base.copy()
    mutant[1, 2] += 0.01j
    mutant[2, 1] += 0.01j
    r = validate_channel(mutant)
    if not (not r.hermitian and r.trace_preserving and r.completely_positive):
        issues.append(f"non-Hermitian mutant: {r}")

    r = validate_channel(0.5 * base)
    if not (r.hermitian and not r.trace_preserving and r.completely_positive):
        issues.append(f"scaled mutant: {r}")

    r = validate_channel(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))
    if not (r.hermitian and r.trace_preserving and not r.completely_positive):
        issues.append(f"negative-eigenvalue mutant: {r}")

    _verdict(6, not issues, "all zoo channels valid; each mutant fails exactly its predicate" if not issues else "; ".join(issues))


def test_criterion_7_sampling_distribution_fit():
    shots = 10_000
    rng = np.random.default_rng(404)
    pvalues = {}

    basis1 = PreparationBasis.computational(1)
    plus = DensityMatrix.from_factor(np.array([1, 1], dtype=complex) / np.sqrt(2))
    probs = ancilla_readout(_state_block(plus, basis1, 0, 1), "X")
    tallies = sample_categorical(probs, shots, RandomStream(1))
    pvalues["seqst |+> X"] = chi_square_pvalue(tallies, probs)

    basis2 = PreparationBasis.random_unitary_columns(2, rng)
    rho2 = random_density_matrix(4, rng)
    probs = ancilla_readout(_state_block(rho2, basis2, 1, 2), "Y")
    tallies = sample_categorical(probs, shots, RandomStream(2))
    pvalues["seqst random Y"] = chi_square_pvalue(tallies, probs)

    for cname in ("bit_flip(0.3)", "amplitude_damping(0.3)"):
        ch = zoo_catalog(1)[cname]
        probs = np.minimum(dcqd_distribution(ch), 1)
        rows = qpt.dcqd_sample_rows(probs, range(4), ShotPlan(0.1, 0.05, shots), RandomStream(3))
        tallies = [round(f * shots) for _, f, _ in rows]
        pvalues[f"dcqd {cname}"] = chi_square_pvalue(tallies, probs)

    ch = zoo_catalog(1)["depolarizing(0.2)"]
    psi = haar_random_state(2, rng)
    probs = ancilla_readout(qpt._seqpt_block(ch, 1, 2, psi), "X")
    tallies = sample_categorical(probs, shots, RandomStream(4))
    pvalues["seqpt depolarizing X"] = chi_square_pvalue(tallies, probs)

    bad = {k: p for k, p in pvalues.items() if p <= 0.001}
    detail = ", ".join(f"{k}: p={p:.3f}" for k, p in pvalues.items())
    _verdict(7, len(pvalues) >= 5 and not bad, detail)


def test_criterion_8_entangling_circuit_audit():
    issues = []
    for n in range(1, 5):
        psi, counts = entangled_state_circuit(n)
        if counts.single_qubit != n or counts.two_qubit != n:
            issues.append(f"n={n}: counts {counts}")
        err = float(np.max(np.abs(psi.factor[:, 0] - maximally_entangled_state(n).factor[:, 0])))
        if err > 1e-12:
            issues.append(f"n={n}: state error {err:.2e}")
    _verdict(8, not issues, "n single- and n two-qubit gates, exact output state, n = 1..4" if not issues else "; ".join(issues))


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "protocol": "seqpt",
                "channel": {"name": "amplitude_damping", "params": {"gamma": 0.3}},
                "a": 0,
                "b": 3,
                "n_states": 10,
                "epsilon": 0.1,
                "delta": 0.05,
                "seed": 77,
                "out": str(tmp_path / "report.json"),
            }
        )
    )
    blobs = []
    for _ in range(2):
        subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", "run", "--config", str(cfg)],
            check=True,
            capture_output=True,
        )
        raw = (tmp_path / "report.json").read_bytes().decode()
        blobs.append(re.sub(r'"timing_seconds": [0-9eE+.-]+', '"timing_seconds": <T>', raw))
    ok = blobs[0] == blobs[1]
    _verdict(9, ok, "two CLI runs byte-identical modulo the timing field")
