"""Process tomography protocols built on the channel and selective-QST layers.

Everything revolves around the channel-state duality: the state
rho_E = (E ⊗ I)|I><I| of two n-qubit registers determines the channel E,
and the process matrix over the Pauli basis is exactly the matrix of rho_E
in the orthonormal basis {(P_k ⊗ I)|I>}:

    chi_mn = <r_m| rho_E |r_n>.

No route forms a dense Pauli (P_m acts by ``pauli.times_pauli``), and none
builds the D²×D² matrix rho_E: ``_dual_branches`` holds its
purification sum_k |k> ⊗ (K_k ⊗ I)|I>, each K_k's columns scaled by the
diagonal of |I> read as a D×D matrix (prepared by the gate list once per
circuit and n, ``_phi_diagonal``), and ``_bell_amplitudes`` runs the
gate list of U_Phi† on it with ``core.apply_gates``, the simulator that the
bases of ``seqst`` run too. U_Phi† turns the Bell-type measurement in
{(P_m ⊗ I)|I>} into a computational one with amplitudes
A[k, m] = <r_m|(K_k ⊗ I)|I> = Tr(P_m K_k)/D. That one readout serves every
exact dual-state route.

Four routes to chi coefficients are implemented, each checkable against the
direct Kraus-to-chi conversion:

- aapt_full_chi: full state tomography of rho_E, chi = Aᵀ conj(A), one
  read-only (4**n, 4**n) array like ``channels.kraus_to_chi``'s.
- dcqd_distribution: the diagonal chi_kk = sum_r |A[r, k]|² as outcome
  probabilities of the Bell-type measurement (DCQD), which
  ``dcqd_sample_rows`` samples.
- seqst_qpt_*: the selective circuit from ``seqst`` with that basis, giving
  any single chi_ab exactly or by shot sampling. The basis has the form of
  a ``seqst.PreparationBasis``, r_m = W|m> for a W whose W† is the Bell
  readout, so the exact route reads columns b and a of A.
- seqpt_*: an ancilla-controlled Pauli pair around the channel with the
  system state averaged over the Haar measure; the averages obey
      avg_x = (D Re(chi_ab) + delta_ab) / (D + 1),
      avg_y =  D Im(chi_ab) / (D + 1),
  inverted to recover chi_ab. ``seqpt_exact_average`` contracts the Haar
  integral to (Tr A Tr B + Tr(AB)) / (D(D+1)) for A = K_k P_a and
  B = P_b K_k†, with K_k P_m a gather of K_k's columns; the tests check it
  on the stabilizer states, a 2-design.

Both selective samplers draw through ``seqst.sample_block``, from a
readout block built from the Kraus operators, into one ``seqst.Estimate``.
For SEQST-QPT the block is ``channels.chi_block``,
g_ij = chi_ij = sum_k c_ki conj(c_kj) with c_km = Tr(P_m K_k)/D gathered
from D entries of each K_k, which also gives the CLI's exact chi_ab of
SEQST-QPT and SEQPT. For SEQPT
g_ij = sum_k <psi|K_k P_i|psi> conj(<psi|K_k P_j|psi>), with <psi|K_k P_m
the row <psi|K_k gathered by P_m. None of the single-entry routes
(``chi_block``, SEQST-QPT, SEQPT) builds the 4**n Pauli tables. The Bell
readout of the purified dual state and the closed-form Haar integral stay
as the oracles; the readout shares nothing with the gather.

No route has a qubit ceiling of its own. Each states its peak working set
in dense D×D operators beside it (the dual state is rank of them, a chi
matrix 4**n), and ``core.check_size`` refuses it, before anything is
allocated, when that peak would exceed the budgets.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DensityMatrix, apply_gates, check_size, haar_random_state
from .channels import VALIDITY_ATOL, KrausChannel, chi_block
from .errors import DimensionMismatch, IndexOutOfRange
from .estimation import RandomStream, ShotPlan, check_chunks, sample_categorical
from .pauli import check_indices, pauli_masks, times_pauli
from .seqst import Estimate, PreparationBasis, fiducial_readout, sample_block

# Peak working sets, in Kraus stacks (rank operators, the size of the
# purified dual state), of the Bell-basis amplitudes that aapt, DCQD and the
# SEQST-QPT oracle read; each route budgets one operator more for |Phi> and
# index arrays. tracemalloc measures 2.1 to 3.1 stacks (n = 5..8, rank
# 1..16), the most at rank 1. ``aapt_full_chi`` adds the one chi matrix it
# returns (1.0). ``seqpt_exact_average`` holds K_k P_a, K_k P_b and a
# product buffer of up to 128 KiB at any rank (2.0 to 3.2, n = 5..10, the
# most at n = 5). ``seqpt_estimate`` budgets the Kraus stack it reads and one
# operator; it holds 0.01 to 0.7 (n = 5..10). tests/test_qpt.py checks them.
BELL_STACKS = 3
HAAR_OPERATORS = 4


@dataclass(frozen=True)
class GateCounts:
    single_qubit: int
    two_qubit: int


def _check_dual_trace(ch: KrausChannel) -> None:
    """ValueError unless the dual state's trace Tr(sum_k K_k† K_k)/D is within VALIDITY_ATOL of 1.

    That deviation is at most the channel's ``completeness_residual``, the
    trace-preservation residual that ``KrausChannel.validity`` reports.
    """
    trace = np.vdot(ch.kraus_ops, ch.kraus_ops).real / ch.dim
    if abs(trace - 1.0) > VALIDITY_ATOL:
        raise ValueError(f"dual state trace {trace} deviates from 1: the channel is not trace-preserving")


@lru_cache(maxsize=16)
def _phi_diagonal(n: int, gates: tuple) -> np.ndarray:
    """The read-only diagonal of |Phi> = U_Phi|0...0> as a D×D matrix, with U_Phi the list ``gates`` on 2n qubits.

    Memoized per (n, gates), so each circuit runs once per process and a
    changed list runs anew. A |Phi> with weight off its diagonal raises
    RuntimeError, which is never memoized.
    """
    d = 2**n
    phi = PreparationBasis(2 * n, gates).element(0).factor.reshape(d, d)
    diagonal = np.diagonal(phi).copy()
    if np.count_nonzero(phi) != np.count_nonzero(diagonal):
        raise RuntimeError("the entangling circuit prepared a |Phi> with weight off its diagonal")
    diagonal.setflags(write=False)
    return diagonal


def _dual_branches(ch: KrausChannel) -> np.ndarray:
    """The purified dual state: branch k is (K_k ⊗ I)|Phi>, a (r, 2, ..., 2) tensor over 2n qubits.

    |Phi> as a D×D matrix is diagonal (``_phi_diagonal``), so each branch scales K_k's columns.
    """
    diagonal = _phi_diagonal(ch.n, tuple(_entangling_gates(ch.n)))
    return (ch.kraus_ops * diagonal).reshape((-1,) + (2,) * (2 * ch.n))


def _bell_amplitudes(ch: KrausChannel, indices=None) -> np.ndarray:
    """A[k, m] = <r_m|(K_k ⊗ I)|Phi> for r_m = (P_m ⊗ I)|Phi>, read after U_Phi†, over the indices m or all 4**n.

    U_Phi† maps r_m to conj(phase_m)|z_m>|x_m>, with (x, z, phase) from
    ``pauli_masks``. Past the budgets of ``check_size`` for BELL_STACKS
    copies of the dual state, raises SizeLimitExceeded first.
    """
    check_size("the Bell-basis readout", ch.n, BELL_STACKS * len(ch.kraus_ops) + 1)
    _check_dual_trace(ch)
    # The dual state is a temporary, so U_Phi†'s first gate frees it.
    bell = apply_gates(_dual_branches(ch), _entangling_gates(ch.n)[::-1])
    x, z, phase = pauli_masks(ch.n, indices)
    amps = bell.reshape(-1, ch.dim, ch.dim)[:, z, x]
    amps *= phase  # in place: no third copy of the dual state
    return amps


def aapt_full_chi(ch: KrausChannel) -> np.ndarray:
    """The full process matrix chi_mn = <r_m| rho_E |r_n> = sum_k A[k, m] conj(A[k, n]) (``_bell_amplitudes``), read-only."""
    check_size("the full chi", ch.n, 4**ch.n + BELL_STACKS * len(ch.kraus_ops) + 1)
    amps = _bell_amplitudes(ch)
    chi = amps.T @ amps.conj()
    chi.setflags(write=False)
    return chi


def dcqd_distribution(ch: KrausChannel) -> np.ndarray:
    """The exact outcome probabilities chi_kk = sum_r |A[r, k]|² (never negative) of the Bell-type measurement."""
    amps = _bell_amplitudes(ch)
    return np.sum(amps.real**2 + amps.imag**2, axis=0)


def dcqd_sample_rows(probs: np.ndarray, indices, plan: ShotPlan, stream: RandomStream, workers: int = 1) -> list:
    """(k, frequency, stderr) for each index k in ``indices``, from plan.m draws of a ``dcqd_distribution``."""
    ks = np.asarray(indices, dtype=int)
    if np.any((ks < 0) | (ks >= len(probs))):
        raise IndexOutOfRange(f"DCQD indices must lie in [0, {len(probs)})")
    f = sample_categorical(probs, plan.m, stream, workers)[ks] / plan.m
    return list(zip(ks.tolist(), f.tolist(), np.sqrt(f * (1.0 - f) / plan.m).tolist()))


def seqst_qpt_exact(ch: KrausChannel, a: int, b: int) -> complex:
    """One chi_ab coefficient via the selective circuit on the purified dual state.

    The basis r_m = (P_m ⊗ I)|Phi> has the one form of ``seqst.PreparationBasis``:
    r_m = W|m>, with W = U_Phi times the phased permutation
    |m> -> conj(phase_m)|z_m>|x_m>. So the controlled V† stage is W†, the
    Bell readout of ``_bell_amplitudes``, followed by ancilla-controlled
    flips of b and a. With A the readout's amplitudes,
    t[c, c'] = sum_k A[k, s_c] conj(A[k, s_c']) / 2, s = (b, a), is the
    fiducial block of the final state, from which
    Tr(rho_F P_0 ⊗ X) + i Tr(rho_F P_0 ⊗ Y) is read by ``fiducial_readout``.
    A channel that is not trace-preserving raises ValueError, and one whose
    readout would exceed the budgets of ``check_size`` raises SizeLimitExceeded.
    """
    check_indices(ch.n, a, b)
    amps = _bell_amplitudes(ch, [b, a])
    # The ancilla's |+> contributes the factor 1/2 of every entry.
    return fiducial_readout(amps.T @ amps.conj() / 2)


def seqst_qpt_sample(
    ch: KrausChannel,
    a: int,
    b: int,
    plan: ShotPlan,
    stream: RandomStream,
    workers: int = 1,
) -> Estimate:
    """Shot-sampled chi_ab, drawn from the block (chi_aa, chi_bb, chi_ab) of the dual-state circuit.

    The block is ``channels.chi_block``: r gathers of D entries, whatever n.
    A channel that is not trace-preserving raises ValueError (``_check_dual_trace``).
    """
    check_indices(ch.n, a, b)
    _check_dual_trace(ch)
    return sample_block(chi_block(ch, a, b), plan.m, (stream.substream(0), stream.substream(1)), workers)


def _seqpt_block(ch: KrausChannel, a: int, b: int, psi: DensityMatrix) -> tuple:
    """The readout block of the SEQPT circuit for one pure input state psi; ``times_pauli`` checks a and b."""
    if psi.dim != ch.dim:
        raise DimensionMismatch(f"state dim {psi.dim} != channel dim {ch.dim}")
    (v,) = psi.factor.T  # a ValueError for a state of rank above 1
    rows = v.conj() @ ch.kraus_ops  # rows[k] = <psi|K_k
    # w[k] = <psi|K_k P_m|psi> for m = a, b.
    wa, wb = (times_pauli(rows, m) @ v for m in (a, b))
    return np.vdot(wa, wa).real, np.vdot(wb, wb).real, np.vdot(wb, wa)


def seqpt_estimate(
    ch: KrausChannel,
    a: int,
    b: int,
    n_states: int,
    plan: ShotPlan,
    stream: RandomStream,
    workers: int = 1,
) -> Estimate:
    """Estimate chi_ab from sampled runs on n_states Haar-random input states.

    Pools plan.m outcomes per axis per state, then inverts the Haar-average
    relations: Re = ((D+1) avg_x - delta_ab)/D, Im = (D+1) avg_y / D. The
    tallies are summed over the states. Over ``estimation.CHUNK_LIMIT``
    chunks, n_states * min(workers, plan.m), or past the budgets for the
    Kraus stack and one operator, raise SizeLimitExceeded before any draw.
    """
    if n_states < 1:
        raise IndexOutOfRange(f"n_states must be >= 1, got {n_states}")
    check_indices(ch.n, a, b)
    check_size("the SEQPT readout block", ch.n, len(ch.kraus_ops) + 1)
    check_chunks(n_states * min(workers, plan.m))
    d = ch.dim
    states = []
    for s in range(n_states):
        ss = stream.substream(s)
        block = _seqpt_block(ch, a, b, haar_random_state(d, ss.substream(0).generator()))
        states.append(sample_block(block, plan.m, (ss.substream(1), ss.substream(2)), workers))
    means_x = np.array([est.value.real for est in states])
    means_y = np.array([est.value.imag for est in states])
    # With several states the per-state means carry both the shot noise and
    # the state-sampling spread, so their scatter is the honest error bar;
    # for a single state only the shot-level error is observable.
    se_x, se_y = states[0].se_re, states[0].se_im
    if n_states > 1:
        se_x = float(means_x.std(ddof=1) / np.sqrt(n_states))
        se_y = float(means_y.std(ddof=1) / np.sqrt(n_states))
    # Summed as Python ints, since n_states * plan.m may pass 2**63.
    tallies = tuple(tuple(map(sum, zip(*axis))) for axis in zip(*(est.tallies for est in states)))
    delta = 1.0 if a == b else 0.0
    scale = (d + 1) / d
    value = complex(scale * float(means_x.mean()) - delta / d, scale * float(means_y.mean()))
    return Estimate(value, scale * se_x, scale * se_y, tallies)


def seqpt_exact_average(ch: KrausChannel, a: int, b: int) -> tuple:
    """The Haar averages (avg_x, avg_y) of the single-state expectations.

    Evaluated in closed form: the average of <psi|A|psi><psi|B|psi> equals
    (Tr A Tr B + Tr(AB)) / (D(D+1)), applied to A = K_k P_a, B = P_b K_k†
    and summed over the Kraus operators: Tr(AB) = vdot(K_k P_b, K_k P_a),
    with each K_k P_m a gather of K_k's columns. Past the budgets (n >= 11),
    SizeLimitExceeded.
    """
    check_indices(ch.n, a, b)
    check_size("the Haar average", ch.n, HAAR_OPERATORS)
    avg = 0j
    for k in ch.kraus_ops:
        ka, kb = times_pauli(k, a), times_pauli(k, b)
        avg += np.trace(ka) * np.trace(kb).conj() + np.vdot(kb, ka)
        del ka, kb  # so that the next pair is not built beside this one
    avg /= ch.dim * (ch.dim + 1)
    return float(avg.real), float(avg.imag)


def _entangling_gates(n: int) -> list:
    """U_Phi, which maps |0...0> of 2n qubits to the maximally entangled state, as a gate list.

    One Hadamard per first-register qubit, then CNOT(q, n + q) for each
    qubit q; entries are (gate name, qubits). Both gates are self-inverse,
    so the reversed list is U_Phi†.
    """
    return [("h", (q,)) for q in range(n)] + [("cnot", (q, n + q)) for q in range(n)]


def entangled_state_circuit(n: int) -> tuple:
    """Prepare the maximally entangled state by running the audited gate list.

    Runs on |0...0> of 2n qubits, as element 0 of the basis it prepares, the
    U_Phi list whose reverse is the Bell readout of ``_bell_amplitudes``;
    returns (state, GateCounts) with the counts taken from that list. The
    gate count is linear in n, unlike the 2**n amplitudes written out.
    """
    gates = _entangling_gates(n)
    singles = sum(len(qubits) == 1 for _, qubits in gates)
    state = PreparationBasis(2 * n, gates).element(0)
    return state, GateCounts(single_qubit=singles, two_qubit=len(gates) - singles)

