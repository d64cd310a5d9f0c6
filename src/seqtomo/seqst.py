"""Selective state tomography via an ancilla-controlled preparation circuit.

Every basis is the circuit W that prepares it, a gate list run by
``core.apply_gates`` (``PreparationBasis``): state a is |psi_a> = W|a>,
prepared from |0...0> by V_a = W X^a, X^a the bit flips of a. Any matrix
element alpha_ab = <psi_a|rho|psi_b> of a state can then be read off one
ancilla qubit:

    ancilla in (|0> + |1>)/sqrt(2);
    V_b† applied to the system controlled on ancilla |0>,
    V_a† controlled on ancilla |1>;
    then Re(alpha_ab) = Tr(rho_F P_0 ⊗ X) and
         Im(alpha_ab) = Tr(rho_F P_0 ⊗ Y)

for the joint state rho_F before measurement and P_0 = |0...0><0...0|. The control polarity is pinned
by that postcondition under the Y = [[0,-i],[i,0]] convention: swapping the
two controlled operators yields the complex conjugate instead.

A single run has three outcomes: +1 (system found in |0...0>, ancilla in the
+1 eigenstate of the measured axis), -1 (system in |0...0>, ancilla in the
-1 eigenstate), or 0 (system elsewhere). Averaging M such outcomes per axis
estimates the real and imaginary parts with Chernoff-bounded shot counts
that do not grow with the system size.

The outcome statistics depend only on the 2×2 readout block
g_ij = <psi_i|rho|psi_j>, i, j in {a, b}: on axis X,
p_plus/minus = (g_aa + g_bb ± 2 Re g_ab) / 4 (Im on axis Y), and
p_zero = 1 - p_plus - p_minus. ``ancilla_readout`` is the one home of that
rule, and ``sample_block`` the one shot loop: every sampler, here and in
``qpt``, draws m runs per axis from a block it computes directly into one
``Estimate``. ``seqst_exact``, the independent oracle, reads the whole
fiducial block t = S† rho S / 2 of rho_F, with S = [psi_b, psi_a]. Both
read only u_i = psi_i† F for the factor F of rho = F F†: O(D r) work, O(D)
when pure.

The conventional Pauli-expectation route (standard_pauli_qst) is included
as a baseline: rho = (1/D) sum_i Tr(rho P_i) P_i.
"""

from dataclasses import dataclass

import numpy as np

from .core import GATES, DensityMatrix, apply_gates, haar_random_unitary, unitarity_residual
from .errors import DimensionMismatch, IndexOutOfRange, ParamOutOfRange
from .estimation import RandomStream, ShotPlan, sample_categorical
from .pauli import pauli_coefficients, pauli_labels


class PreparationBasis:
    """A basis of n-qubit states, held as the circuit W that prepares them.

    W is a gate list for ``core.apply_gates``: none for ``computational``, one
    rotation per qubit for ``pauli_eigenbasis``, one n-qubit gate for
    ``columns`` and ``random_unitary_columns``. State a is W|a>.
    """

    def __init__(self, n: int, gates=(), name: str = "custom"):
        if n < 1:
            raise DimensionMismatch("need at least one qubit")
        self.n, self.gates, self.name = n, tuple(gates), name

    @property
    def dim(self) -> int:
        return 2**self.n

    def element(self, a: int) -> DensityMatrix:
        """The pure basis state V_a|0...0> = W|a>, for a in [0, 2**n)."""
        return DensityMatrix.from_factor(self._states(a)[0])

    def _states(self, *indices) -> np.ndarray:
        """The amplitudes of W|i>, one row per index, from one run of the gate list on the batch of |i>."""
        for i in indices:
            if not 0 <= i < self.dim:
                raise IndexOutOfRange(f"basis index {i} outside [0, {self.dim})")
        batch = np.zeros((len(indices), self.dim), dtype=complex)
        batch[range(len(indices)), indices] = 1.0
        return apply_gates(batch.reshape((len(indices),) + (2,) * self.n), self.gates).reshape(len(indices), -1)

    def residuals(self) -> float:
        """The largest unitarity residual among W's gates, 0 for none."""
        return max((unitarity_residual(GATES[g] if isinstance(g, str) else g) for g, _ in self.gates), default=0.0)

    @classmethod
    def columns(cls, unitary, name: str = "custom") -> "PreparationBasis":
        """The columns of a dense unitary, W its one gate on all n qubits; W†W must be I to 1e-9."""
        w = np.array(unitary, dtype=complex)
        d = w.shape[0] if w.ndim == 2 else 0
        if w.shape != (d, d) or d < 2 or d & (d - 1):
            raise DimensionMismatch(f"a basis unitary must be square with a power-of-two size >= 2, got {w.shape}")
        residual = unitarity_residual(w)
        if not residual <= 1e-9:  # written so that a NaN residual fails too
            raise ParamOutOfRange(f"a basis unitary must be unitary: max |W†W - I| = {residual:.3e} exceeds 1e-9")
        w.setflags(write=False)
        n = d.bit_length() - 1
        return cls(n, [(w, tuple(range(n)))], name)

    @classmethod
    def computational(cls, n: int) -> "PreparationBasis":
        """W = I, no gates: V_a is the bit flips of a, |j> -> |j XOR a>."""
        return cls(n, name="computational")

    @classmethod
    def pauli_eigenbasis(cls, n: int, axis: str) -> "PreparationBasis":
        """Per-qubit eigenbases of X, Y or Z: W is one rotation per qubit, none for Z (the computational basis)."""
        axis = axis.upper()
        if axis not in ("X", "Y", "Z"):
            raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
        rot = {"X": GATES["h"], "Y": GATES["s"] @ GATES["h"]}.get(axis)
        return cls(n, [] if rot is None else [(rot, (q,)) for q in range(n)], name=f"pauli-{axis}")

    @classmethod
    def random_unitary_columns(cls, n: int, rng: np.random.Generator) -> "PreparationBasis":
        """Basis states are the columns of one Haar-random unitary W = u."""
        return cls.columns(haar_random_unitary(2**n, rng), name="random-unitary")


@dataclass(frozen=True)
class Estimate:
    """A sampled coefficient with the standard errors of its two parts.

    ``tallies`` holds the (+1, -1, 0) outcome counts of the X runs, then of
    the Y runs. The standard errors are sqrt(var/m) of the outcome values,
    or what an estimator derives from them.
    """

    value: complex
    se_re: float
    se_im: float
    tallies: tuple


def seqst_exact(rho: DensityMatrix, basis: PreparationBasis, a: int, b: int) -> complex:
    """The coefficient <psi_a|rho|psi_b> read exactly off the circuit state.

    Returns Tr(rho_F P_0 ⊗ X) + i Tr(rho_F P_0 ⊗ Y) with P_0 = |0...0><0...0|,
    from the fiducial block t = (S† F)(S† F)† / 2 of the prepared states
    S = [psi_b, psi_a]; equals the direct inner product to numerical precision.
    """
    u = _prepared(rho, basis, b, a)
    return fiducial_readout(u @ u.conj().T / 2)


def _prepared(rho: DensityMatrix, basis: PreparationBasis, *indices) -> np.ndarray:
    """u_i = psi_i† F for the prepared states psi_i = V_i|0...0>, one row each, after checking rho's dimension."""
    if rho.dim != basis.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != basis dim {basis.dim}")
    return basis._states(*indices).conj() @ rho.factor


def fiducial_readout(t: np.ndarray) -> complex:
    """Tr(rho_F P_0 ⊗ X) + i Tr(rho_F P_0 ⊗ Y) from the ancilla block t[c, c'] = Tr(block(c, c') P_0).

    Tr(rho_F P_0 ⊗ s) = sum t[c, c'] s[c', c] for each ancilla Pauli s: t01 + t10
    for X and i (t01 - t10) for Y, read in scalar complex arithmetic.
    """
    t01, t10 = t.item(0, 1), t.item(1, 0)
    return complex(t01.real + t10.real, t10.imag - t01.imag)


def ancilla_readout(block: tuple, axis: str) -> tuple:
    """Probabilities (p_plus, p_minus, p_zero) of a run from its block (g_aa, g_bb, g_ab)."""
    if axis not in ("X", "Y"):
        raise ValueError(f"axis must be 'X' or 'Y', got {axis!r}")
    g_aa, g_bb, g_ab = block
    base = float(g_aa + g_bb) / 4
    half = float(g_ab.real if axis == "X" else g_ab.imag) / 2
    p_plus = min(max(base + half, 0.0), 1.0)
    p_minus = min(max(base - half, 0.0), 1.0)
    return p_plus, p_minus, max(1.0 - p_plus - p_minus, 0.0)


def sample_block(block: tuple, m: int, streams: tuple, workers: int) -> Estimate:
    """Draw m runs per axis of the block (g_aa, g_bb, g_ab), X from streams[0] and Y from streams[1].

    The value is the mean outcome on X plus i times that on Y, with
    standard errors sqrt(var/m); draws may be split across ``workers``.
    """
    parts = []
    for axis, stream in zip("XY", streams):
        tallies = sample_categorical(ancilla_readout(block, axis), m, stream, workers)
        mean = (tallies[0] - tallies[1]) / m
        var = (tallies[0] + tallies[1]) / m - mean**2
        parts.append((float(mean), float(np.sqrt(max(var, 0.0) / m)), tuple(int(t) for t in tallies)))
    (re, se_re, tx), (im, se_im, ty) = parts
    return Estimate(complex(re, im), se_re, se_im, (tx, ty))


def _state_block(rho: DensityMatrix, basis: PreparationBasis, a: int, b: int) -> tuple:
    """(g_aa, g_bb, g_ab) with g_ij = <psi_i|rho|psi_j> = sum_k u_i[k] conj(u_j[k])."""
    u_a, u_b = _prepared(rho, basis, a, b)
    return np.vdot(u_a, u_a).real, np.vdot(u_b, u_b).real, np.vdot(u_b, u_a)


def seqst_sample(
    rho: DensityMatrix,
    basis: PreparationBasis,
    a: int,
    b: int,
    plan: ShotPlan,
    stream: RandomStream,
    workers: int = 1,
) -> Estimate:
    """Estimate alpha_ab from plan.m sampled runs per measurement axis.

    Deterministic for a given stream; shot draws may be partitioned across
    `workers` derived substreams.
    """
    return sample_block(_state_block(rho, basis, a, b), plan.m, (stream.substream(0), stream.substream(1)), workers)


def standard_pauli_qst(rho: DensityMatrix) -> list:
    """All Pauli expectations Tr(rho P_i), as (label word, value) pairs in index order.

    These are the conventional tomography data: rho = (1/D) sum_i Tr(rho P_i) P_i.
    """
    values = pauli_coefficients(rho.matrix).real
    return list(zip(pauli_labels(rho.dim.bit_length() - 1), values.tolist()))
