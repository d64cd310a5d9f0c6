"""Process tomography protocols built on the channel and selective-QST layers.

Everything revolves around the channel-state duality: the state
rho_E = (E ⊗ I)|I><I| of two n-qubit registers determines the channel E,
and the process matrix over the Pauli basis is exactly the matrix of rho_E
in the orthonormal basis {(P_k ⊗ I)|I>}:

    chi_mn = <r_m| rho_E |r_n>.

No route builds the D²×D² matrix rho_E: ``_dual_branches`` holds its
purification sum_k |k> ⊗ (K_k ⊗ I)|I>, and the exact routes run gates on it.
U_Phi† turns the Bell-type measurement in {(P_m ⊗ I)|I>} into a
computational one with amplitudes A[k, m] = <r_m|(K_k ⊗ I)|I> = Tr(P_m K_k)/D.

Four routes to chi coefficients are implemented, each checkable against the
direct Kraus-to-chi conversion:

- aapt_full_chi: full state tomography of rho_E, chi = Aᵀ conj(A) (size-limited).
- dcqd_diagonal: the diagonal chi_kk = sum_r |A[r, k]|² as outcome
  probabilities of the Bell-type measurement (DCQD).
- seqst_qpt_*: the selective circuit from ``seqst`` with that basis, giving
  any single chi_ab exactly or by shot sampling; the exact route runs it
  gate by gate on the dual branches.
- seqpt_*: an ancilla-controlled Pauli pair around the channel with the
  system state averaged over the Haar measure; the averages obey
      avg_x = (D Re(chi_ab) + delta_ab) / (D + 1),
      avg_y =  D Im(chi_ab) / (D + 1),
  inverted to recover chi_ab. ``seqpt_exact_average`` evaluates the Haar
  integral in closed form through the two-copy identity
  ∫ |psi><psi|⊗|psi><psi| dpsi = (I + SWAP) / (D(D+1)).

Both selective samplers draw from the readout block of
``seqst.ancilla_readout`` built from the Kraus operators: for SEQST-QPT
g_ij = chi_ij = sum_k c_ki conj(c_kj) with c_km = Tr(P_m K_k)/D, and for
SEQPT g_ij = sum_k <psi|K_k P_i|psi> conj(<psi|K_k P_j|psi>). The
gate-level circuit on the purified dual state and the closed-form Haar
integral stay as the oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import GATES, PureState, haar_random_state
from .channels import VALIDITY_ATOL, ChiMatrix, KrausChannel
from .errors import DimensionMismatch, IndexOutOfRange, SizeLimitExceeded
from .estimation import RandomStream, ShotPlan, sample_categorical_partitioned
from .pauli import PauliLabel, pauli_masks, pauli_matrix
from .seqst import ancilla_readout, sample_readout

# Dense-simulation ceilings: full-matrix protocols hold a 4**n × 4**n chi;
# selective ones simulate 2n+1 qubits.
AAPT_MAX_QUBITS = 2
SELECTIVE_MAX_QUBITS = 3


@dataclass(frozen=True)
class ChiEstimate:
    """A sampled estimate of one process-matrix coefficient."""

    a: int
    b: int
    n: int
    value: complex
    se_re: float
    se_im: float
    protocol: str
    shots: int
    seed: int

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "a": str(PauliLabel.from_index(self.n, self.a)),
            "b": str(PauliLabel.from_index(self.n, self.b)),
            "re": self.value.real,
            "im": self.value.imag,
            "se_re": self.se_re,
            "se_im": self.se_im,
            "shots": self.shots,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class GateCounts:
    single_qubit: int
    two_qubit: int


def _pauli(n: int, m: int) -> np.ndarray:
    return pauli_matrix(PauliLabel.from_index(n, m)).matrix


def _check_pauli_indices(n: int, *indices) -> None:
    for idx in indices:
        if not 0 <= idx < 4**n:
            raise IndexOutOfRange(f"Pauli index {idx} outside [0, {4**n}) for n={n}")


def _check_size(ch: KrausChannel, limit: int, what: str) -> None:
    if ch.n > limit:
        raise SizeLimitExceeded(f"{what} for n={ch.n} exceeds the limit of {limit} qubits")


def _check_dual_trace(ch: KrausChannel) -> None:
    """ValueError unless the dual state's trace Tr(sum_k K_k† K_k)/D is within VALIDITY_ATOL of 1.

    That deviation is at most ``validate_channel``'s trace-preservation residual.
    """
    trace = sum(np.vdot(k, k).real for k in ch.kraus_ops) / ch.dim
    if abs(trace - 1.0) > VALIDITY_ATOL:
        raise ValueError(f"dual state trace {trace} deviates from 1: the channel is not trace-preserving")


def _dual_branches(ch: KrausChannel) -> np.ndarray:
    """The purified dual state: branch k is (K_k ⊗ I)|Phi>, a (r, 2, ..., 2) tensor over 2n qubits."""
    _check_dual_trace(ch)
    n, d = ch.n, ch.dim
    phi = entangled_state_circuit(n)[0].amplitudes.reshape(d, d)
    return (np.stack(ch.kraus_ops) @ phi).reshape((-1,) + (2,) * (2 * n))


def _bell_amplitudes(ch: KrausChannel) -> np.ndarray:
    """A[k, m] = <r_m|(K_k ⊗ I)|Phi> for r_m = (P_m ⊗ I)|Phi>, read after U_Phi†.

    U_Phi† maps r_m to conj(phase_m)|z_m>|x_m>, with (x, z, phase) from ``pauli_masks``.
    """
    x, z, phase = pauli_masks(ch.n)
    bell = _apply_gates(_dual_branches(ch), _entangling_gates(ch.n)[::-1], 1)
    return phase * bell.reshape(-1, ch.dim, ch.dim)[:, z, x]


def aapt_full_chi(ch: KrausChannel) -> ChiMatrix:
    """The full process matrix chi_mn = <r_m| rho_E |r_n> = sum_k A[k, m] conj(A[k, n]) (``_bell_amplitudes``)."""
    _check_size(ch, AAPT_MAX_QUBITS, "full chi")
    amps = _bell_amplitudes(ch)
    return ChiMatrix(ch.n, amps.T @ amps.conj())


def dcqd_diagonal(ch: KrausChannel, k: int) -> float:
    """chi_kk as the probability of finding the dual state in (P_k ⊗ I)|I>, at most 1."""
    _check_pauli_indices(ch.n, k)
    return min(float(dcqd_distribution(ch)[k]), 1.0)


def dcqd_distribution(ch: KrausChannel) -> np.ndarray:
    """The exact outcome probabilities chi_kk = sum_r |A[r, k]|² (never negative) of the Bell-type measurement."""
    amps = _bell_amplitudes(ch)
    return np.sum(amps.real**2 + amps.imag**2, axis=0)


def dcqd_diagonal_sample(ch: KrausChannel, plan: ShotPlan, stream: RandomStream, workers: int = 1) -> list:
    """Sample the basis measurement and return (k, frequency, stderr) per index.

    The exact outcome distribution over all 4**n basis states sums to one
    for a trace-preserving channel; frequencies converge to the chi diagonal.
    """
    return dcqd_sample_rows(dcqd_distribution(ch), plan, stream, workers)


def dcqd_sample_rows(probs: np.ndarray, plan: ShotPlan, stream: RandomStream, workers: int = 1) -> list:
    """(k, frequency, stderr) per index from plan.m draws of a ``dcqd_distribution``."""
    tallies = sample_categorical_partitioned(probs, plan.m, stream, workers)
    out = []
    for k, t in enumerate(tallies):
        f = t / plan.m
        out.append((k, float(f), float(np.sqrt(f * (1.0 - f) / plan.m))))
    return out


def _readout_block(wa: np.ndarray, wb: np.ndarray) -> tuple:
    """The block (sum |wa_k|², sum |wb_k|², sum wa_k conj(wb_k)) over Kraus index k."""
    return np.vdot(wa, wa).real, np.vdot(wb, wb).real, np.vdot(wb, wa)


def seqst_qpt_exact(ch: KrausChannel, a: int, b: int) -> complex:
    """One chi_ab coefficient via the selective circuit, run gate by gate on the purified dual state.

    The dual state sum_k v_k v_k†, v_k = (K_k ⊗ I)|Phi>, is held as the
    r pure branches of a (r, 2, 2, ..., 2) tensor: Kraus index, ancilla, 2n
    qubits. The circuit prepares |Phi> with ``entangled_state_circuit``,
    applies each K_k to the first register and puts the ancilla in |+>;
    then P_b acts on ancilla branch 0 and P_a on branch 1, as per-qubit
    gates (the controlled V† stage, since V_k = (P_k ⊗ I) U_Phi), and the
    reversed U_Phi gate list, U_Phi†, on both. With A[k, c] the branch
    amplitudes at |0...0>, t[c, c'] = sum_k A[k, c] conj(A[k, c']) / 2 is
    the fiducial block of the final state, from which
    Tr(rho_F P_0 ⊗ X) + i Tr(rho_F P_0 ⊗ Y) is read as in ``seqst_exact``.
    A channel that is not trace-preserving raises ValueError.
    """
    _check_size(ch, SELECTIVE_MAX_QUBITS, "selective tomography")
    _check_pauli_indices(ch.n, a, b)
    n = ch.n
    dual = _dual_branches(ch)
    branches = []
    for m in (b, a):
        paulis = [(p.lower(), (q,)) for q, p in enumerate(str(PauliLabel.from_index(n, m))) if p != "I"]
        branches.append(_apply_gates(dual, paulis, 1))
    final = _apply_gates(np.stack(branches, axis=1), _entangling_gates(n)[::-1], 2)
    amps = final.reshape(final.shape[0], 2, -1)[:, :, 0]
    # The ancilla's |+> contributes the factor 1/2 of every entry.
    t = amps.T @ amps.conj() / 2
    x = np.sum(t * GATES["x"].T)
    y = np.sum(t * GATES["y"].T)
    return complex(x.real, y.real)


def seqst_qpt_sample(
    ch: KrausChannel,
    a: int,
    b: int,
    plan: ShotPlan,
    stream: RandomStream,
    workers: int = 1,
) -> ChiEstimate:
    """Shot-sampled chi_ab, drawn from the block (chi_aa, chi_bb, chi_ab) of the dual-state circuit.

    A channel that is not trace-preserving raises ValueError (``_check_dual_trace``).
    """
    _check_size(ch, SELECTIVE_MAX_QUBITS, "selective tomography")
    _check_pauli_indices(ch.n, a, b)
    _check_dual_trace(ch)
    kraus = np.stack(ch.kraus_ops)
    ca, cb = (np.einsum("ij,kji->k", _pauli(ch.n, m), kraus) / ch.dim for m in (a, b))
    block = _readout_block(ca, cb)
    _, re, se_re = sample_readout(block, "X", plan.m, stream.substream(0), workers)
    _, im, se_im = sample_readout(block, "Y", plan.m, stream.substream(1), workers)
    return ChiEstimate(
        a=a,
        b=b,
        n=ch.n,
        value=complex(re, im),
        se_re=se_re,
        se_im=se_im,
        protocol="SEQST-QPT",
        shots=2 * plan.m,
        seed=stream.seed,
    )


def _seqpt_block(ch: KrausChannel, a: int, b: int, psi: PureState) -> tuple:
    """The readout block of the SEQPT circuit for one input state psi."""
    _check_pauli_indices(ch.n, a, b)
    if psi.dim != ch.dim:
        raise DimensionMismatch(f"state dim {psi.dim} != channel dim {ch.dim}")
    v = psi.amplitudes
    kraus = np.stack(ch.kraus_ops)
    # w[k] = <psi|K_k P_m|psi> for m = a, b.
    wa, wb = ((kraus @ (_pauli(ch.n, m) @ v)) @ v.conj() for m in (a, b))
    return _readout_block(wa, wb)


def seqpt_single_state(ch: KrausChannel, a: int, b: int, psi: PureState) -> tuple:
    """Ancilla X and Y expectations, conditioned on finding the system in psi.

    Returns (x_val, y_val) with x_val + i y_val = <psi|E(P_a |psi><psi| P_b)|psi>.
    """
    g_ab = _seqpt_block(ch, a, b, psi)[2]
    return float(g_ab.real), float(g_ab.imag)


def seqpt_outcome_distribution(ch: KrausChannel, a: int, b: int, psi: PureState, axis: str) -> tuple:
    """Three-outcome probabilities (p_plus, p_minus, p_zero) of a single run."""
    return ancilla_readout(_seqpt_block(ch, a, b, psi), axis)


def seqpt_estimate(
    ch: KrausChannel,
    a: int,
    b: int,
    n_states: int,
    plan: ShotPlan,
    stream: RandomStream,
    workers: int = 1,
) -> ChiEstimate:
    """Estimate chi_ab from sampled runs on n_states Haar-random input states.

    Pools plan.m outcomes per axis per state, then inverts the Haar-average
    relations: Re = ((D+1) avg_x - delta_ab)/D, Im = (D+1) avg_y / D.
    """
    if n_states < 1:
        raise IndexOutOfRange(f"n_states must be >= 1, got {n_states}")
    _check_pauli_indices(ch.n, a, b)
    d = ch.dim
    means_x = np.empty(n_states)
    means_y = np.empty(n_states)
    se_x = se_y = 0.0
    for s in range(n_states):
        ss = stream.substream(s)
        block = _seqpt_block(ch, a, b, haar_random_state(d, ss.substream(0).generator()))
        _, means_x[s], se_x = sample_readout(block, "X", plan.m, ss.substream(1), workers)
        _, means_y[s], se_y = sample_readout(block, "Y", plan.m, ss.substream(2), workers)
    avg_x = float(means_x.mean())
    avg_y = float(means_y.mean())
    # With several states the per-state means carry both the shot noise and
    # the state-sampling spread, so their scatter is the honest error bar;
    # for a single state only the shot-level error is observable.
    if n_states > 1:
        se_x = float(means_x.std(ddof=1) / np.sqrt(n_states))
        se_y = float(means_y.std(ddof=1) / np.sqrt(n_states))
    total = n_states * plan.m
    delta = 1.0 if a == b else 0.0
    scale = (d + 1) / d
    return ChiEstimate(
        a=a,
        b=b,
        n=ch.n,
        value=complex(scale * avg_x - delta / d, scale * avg_y),
        se_re=scale * se_x,
        se_im=scale * se_y,
        protocol="SEQPT",
        shots=2 * total,
        seed=stream.seed,
    )


def seqpt_exact_average(ch: KrausChannel, a: int, b: int) -> tuple:
    """The Haar averages (avg_x, avg_y) of the single-state expectations.

    Evaluated in closed form: the average of <psi|A|psi><psi|B|psi> equals
    Tr((A ⊗ B)(I + SWAP)) / (D(D+1)), applied to A = K_k P_a, B = P_b K_k†
    and summed over the Kraus operators.
    """
    _check_pauli_indices(ch.n, a, b)
    d = ch.dim
    pa, pb = _pauli(ch.n, a), _pauli(ch.n, b)
    # SWAP[i d + j, j d + i] = 1: the identity with its two row factors exchanged.
    swap = np.eye(d * d).reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, d * d)
    two_copy = (np.eye(d * d) + swap) / (d * (d + 1))
    avg = 0j
    for k in ch.kraus_ops:
        avg += np.einsum("ij,ji->", np.kron(k @ pa, pb @ k.conj().T), two_copy)
    return float(avg.real), float(avg.imag)


def _entangling_gates(n: int) -> list:
    """U_Phi, which maps |0...0> of 2n qubits to the maximally entangled state, as a gate list.

    One Hadamard per first-register qubit, then CNOT(q, n + q) for each
    qubit q; entries are (gate name, qubits). Both gates are self-inverse,
    so the reversed list is U_Phi†.
    """
    return [("h", (q,)) for q in range(n)] + [("cnot", (q, n + q)) for q in range(n)]


def _apply_gates(state: np.ndarray, gates: list, first: int) -> np.ndarray:
    """Run a gate list on a (..., 2, ..., 2) tensor whose qubit q is axis first + q."""
    for name, qubits in gates:
        axes = [first + q for q in qubits]
        if name == "cnot":
            state = _apply_cnot(state, *axes)
        else:
            state = _apply_single_qubit_gate(state, GATES[name], axes[0])
    return state


def _apply_single_qubit_gate(state: np.ndarray, gate: np.ndarray, axis: int) -> np.ndarray:
    pre = math.prod(state.shape[:axis])
    return (gate @ state.reshape(pre, 2, -1)).reshape(state.shape)


def _apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    """Flip the target axis of the half where the control axis reads 1."""
    out = state.copy()
    ones = (slice(None),) * control + (1,)
    out[ones] = np.flip(state[ones], axis=target - (target > control))
    return out


def entangled_state_circuit(n: int) -> tuple:
    """Prepare the maximally entangled state by running the audited gate list.

    Runs the U_Phi list that ``seqst_qpt_exact`` also runs on |0...0> of 2n
    qubits; returns (state, GateCounts) with the counts taken from that
    list. The gate count is linear in n, unlike the 2**n nonzero amplitudes
    written out directly.
    """
    if n < 1:
        raise DimensionMismatch("need at least one qubit")
    gates = _entangling_gates(n)
    state = np.zeros((2,) * (2 * n), dtype=complex)
    state[(0,) * (2 * n)] = 1.0
    state = _apply_gates(state, gates, 0)
    singles = sum(len(qubits) == 1 for _, qubits in gates)
    return PureState(state.reshape(-1)), GateCounts(single_qubit=singles, two_qubit=len(gates) - singles)

