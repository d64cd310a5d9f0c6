"""Selective state tomography via an ancilla-controlled preparation circuit.

Any matrix element alpha_ab = <psi_a|rho|psi_b> of a state, written in a
basis {|psi_a> = V_a|psi_0>} of unitarily prepared states, can be read off
one ancilla qubit:

    ancilla in (|0> + |1>)/sqrt(2);
    V_b† applied to the system controlled on ancilla |0>,
    V_a† controlled on ancilla |1>;
    then Re(alpha_ab) = Tr(rho_F |psi_0><psi_0| ⊗ X) and
         Im(alpha_ab) = Tr(rho_F |psi_0><psi_0| ⊗ Y)

for the joint state rho_F before measurement. The control polarity is pinned
by that postcondition under the Y = [[0,-i],[i,0]] convention: swapping the
two controlled operators yields the complex conjugate instead.

A single run has three outcomes: +1 (system found in |psi_0>, ancilla in the
+1 eigenstate of the measured axis), -1 (system in |psi_0>, ancilla in the
-1 eigenstate), or 0 (system elsewhere). Averaging M such outcomes per axis
estimates the real and imaginary parts with Chernoff-bounded shot counts
that do not grow with the system size.

The outcome statistics depend only on the 2×2 readout block
g_ij = <psi_i|rho|psi_j>, i, j in {a, b}: on axis X,
p_plus/minus = (g_aa + g_bb ± 2 Re g_ab) / 4 (Im on axis Y), and
p_zero = 1 - p_plus - p_minus. ``ancilla_readout`` is the one home of that
rule; every sampler, here and in ``qpt``, draws from a block it computes
directly. The dense (2D)-dimensional circuit (``seqst_joint_state``,
``seqst_exact``) is kept only as the independent oracle. It simulates the
full joint state with the ancilla as the last qubit, applying the
controlled stage blockwise: block (c, c') of rho ⊗ |+><+| becomes
W_c rho W_c'† / 2 with W_0 = V_b†, W_1 = V_a†, a few D×D products in place
of (2D)×(2D) ones.

The conventional Pauli-expectation route (standard_pauli_qst) is included
as a baseline: rho = (1/D) sum_i Tr(rho P_i) P_i.
"""

from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .core import GATES, DensityMatrix, Operator, PureState, haar_random_unitary, unitarity_residual
from .errors import DimensionMismatch, IndexOutOfRange
from .estimation import RandomStream, ShotPlan, sample_categorical_partitioned
from .pauli import PauliLabel, pauli_coefficients, pauli_labels

class PreparationBasis:
    """A basis {V_a |psi_0>} of states prepared from a fiducial state.

    ``preparator_fn`` maps an index a in [0, 2**n) to the unitary matrix V_a.
    Matrices are generated lazily and cached.
    """

    def __init__(self, n: int, fiducial: PureState, preparator_fn: Callable[[int], np.ndarray], name: str = "custom"):
        if fiducial.dim != 2**n:
            raise DimensionMismatch(f"fiducial dim {fiducial.dim} != 2**{n}")
        self.n = n
        self.fiducial = fiducial
        self.name = name
        self._fn = preparator_fn
        self._cache: dict = {}

    @property
    def dim(self) -> int:
        return 2**self.n

    def preparator_matrix(self, a: int) -> np.ndarray:
        if not 0 <= a < self.dim:
            raise IndexOutOfRange(f"basis index {a} outside [0, {self.dim})")
        if a not in self._cache:
            m = np.array(np.asarray(self._fn(a), dtype=complex))
            m.setflags(write=False)
            self._cache[a] = m
        return self._cache[a]

    def preparator(self, a: int) -> Operator:
        return Operator(self.preparator_matrix(a))

    def element(self, a: int) -> PureState:
        """The basis state V_a |psi_0>."""
        return PureState(self.preparator_matrix(a) @ self.fiducial.amplitudes)

    def residuals(self) -> tuple:
        """(max unitarity residual of the V_a, max Gram deviation of the basis)."""
        vecs = np.stack([self.element(a).amplitudes for a in range(self.dim)])
        gram = vecs.conj() @ vecs.T
        gram_res = float(np.max(np.abs(gram - np.eye(self.dim))))
        unit_res = max(unitarity_residual(self.preparator_matrix(a)) for a in range(self.dim))
        return unit_res, gram_res

    @classmethod
    def computational(cls, n: int) -> "PreparationBasis":
        """V_a = bit flips on the set bits of a, i.e. |j> -> |j XOR a>; fiducial |0...0>."""
        d = 2**n

        def prep(a: int) -> np.ndarray:
            return np.eye(d, dtype=complex)[np.arange(d) ^ a]

        return cls(n, PureState(np.eye(d)[0]), prep, name="computational")

    @classmethod
    def pauli_eigenbasis(cls, n: int, axis: str) -> "PreparationBasis":
        """Per-qubit eigenbases of X, Y or Z (Z is the computational basis)."""
        axis = axis.upper()
        rot = {"X": GATES["h"], "Y": GATES["s"] @ GATES["h"], "Z": np.eye(2, dtype=complex)}.get(axis)
        if rot is None:
            raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
        # rot^{⊗n} times the bit flips of a: its columns permuted by j -> j XOR a.
        rot_n, flips = reduce(np.kron, [rot] * n), np.arange(2**n)
        return cls(n, PureState(np.eye(2**n)[0]), lambda a: rot_n[:, flips ^ a], name=f"pauli-{axis}")

    @classmethod
    def random_unitary_columns(cls, n: int, rng: np.random.Generator) -> "PreparationBasis":
        """Basis states are the columns of one Haar-random unitary."""
        u = haar_random_unitary(2**n, rng).matrix
        flips = np.arange(2**n)

        def prep(a: int) -> np.ndarray:
            # u times the bit flips of a (its columns permuted by j -> j XOR a), times u†.
            return u[:, flips ^ a] @ u.conj().T

        return cls(n, PureState(u[:, 0]), prep, name="random-unitary")


@dataclass(frozen=True)
class EstimateReport:
    """A sampled estimate of one coefficient with shot tallies and error bars.

    ``tallies_x`` / ``tallies_y`` count (+1, -1, 0) outcomes over m_shots
    runs per axis; standard errors are sqrt(var/m) of the outcome values.
    """

    a: int
    b: int
    estimate: complex
    se_re: float
    se_im: float
    m_shots: int
    tallies_x: tuple
    tallies_y: tuple
    seed: int

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "re": self.estimate.real,
            "im": self.estimate.imag,
            "se_re": self.se_re,
            "se_im": self.se_im,
            "m_shots": self.m_shots,
            "tallies": {"x": list(self.tallies_x), "y": list(self.tallies_y)},
            "seed": self.seed,
        }


def _controlled_preparation(rho: DensityMatrix, basis: PreparationBasis, a: int, b: int) -> np.ndarray:
    """The joint system+ancilla state after the controlled V† stage, as a (D, 2, D, 2) array.

    Blockwise, as in the module docstring: V_b† on ancilla |0>, V_a† on |1>.
    """
    if rho.dim != basis.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != basis dim {basis.dim}")
    vs = [basis.preparator_matrix(i) for i in (b, a)]
    half = [v.conj().T @ rho.matrix / 2 for v in vs]
    joint = np.empty((rho.dim, 2, rho.dim, 2), dtype=complex)
    for c in (0, 1):
        for c2 in (0, 1):
            joint[:, c, :, c2] = half[c] @ vs[c2]
    return joint


def seqst_joint_state(rho: DensityMatrix, basis: PreparationBasis, a: int, b: int) -> DensityMatrix:
    """The pre-measurement joint state rho_F on n system qubits plus the ancilla (the last qubit)."""
    return DensityMatrix(_controlled_preparation(rho, basis, a, b).reshape(2 * rho.dim, 2 * rho.dim))


def seqst_exact(rho: DensityMatrix, basis: PreparationBasis, a: int, b: int) -> complex:
    """The coefficient <psi_a|rho|psi_b> read exactly off the circuit state.

    Returns Tr(rho_F P_0 ⊗ X) + i Tr(rho_F P_0 ⊗ Y) with P_0 the fiducial
    projector; equals the direct inner product to numerical precision.
    """
    rho_f = _controlled_preparation(rho, basis, a, b)
    fid = basis.fiducial.amplitudes
    # t[c, c'] = Tr(block(c, c') P_0), so Tr(rho_F P_0 ⊗ s) = sum t[c, c'] s[c', c].
    t = np.einsum("icjd,ji->cd", rho_f, np.outer(fid, fid.conj()))
    x = np.sum(t * GATES["x"].T)
    y = np.sum(t * GATES["y"].T)
    return complex(x.real, y.real)


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


def sample_readout(block: tuple, axis: str, m: int, stream: RandomStream, workers: int = 1) -> tuple:
    """Draw m runs on one axis: (+1, -1, 0) tallies, outcome mean, sqrt(var/m)."""
    tallies = sample_categorical_partitioned(ancilla_readout(block, axis), m, stream, workers)
    mean = (tallies[0] - tallies[1]) / m
    var = (tallies[0] + tallies[1]) / m - mean**2
    return tallies, float(mean), float(np.sqrt(max(var, 0.0) / m))


def _state_block(rho: DensityMatrix, basis: PreparationBasis, a: int, b: int) -> tuple:
    """(g_aa, g_bb, g_ab) with g_ij = <psi_i|rho|psi_j>."""
    if rho.dim != basis.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != basis dim {basis.dim}")
    psi_a, psi_b = (basis.element(i).amplitudes for i in (a, b))
    rho_b = rho.matrix @ psi_b
    return np.vdot(psi_a, rho.matrix @ psi_a).real, np.vdot(psi_b, rho_b).real, np.vdot(psi_a, rho_b)


def seqst_outcome_distribution(rho: DensityMatrix, basis: PreparationBasis, a: int, b: int, axis: str) -> tuple:
    """Probabilities (p_plus, p_minus, p_zero); p_plus - p_minus is Re(alpha_ab) on "X", Im on "Y"."""
    return ancilla_readout(_state_block(rho, basis, a, b), axis)


def seqst_sample(
    rho: DensityMatrix,
    basis: PreparationBasis,
    a: int,
    b: int,
    plan: ShotPlan,
    stream: RandomStream,
    workers: int = 1,
) -> EstimateReport:
    """Estimate alpha_ab from plan.m sampled runs per measurement axis.

    Deterministic for a given stream; shot draws may be partitioned across
    `workers` derived substreams.
    """
    block = _state_block(rho, basis, a, b)
    tx, mean_x, se_x = sample_readout(block, "X", plan.m, stream.substream(0), workers)
    ty, mean_y, se_y = sample_readout(block, "Y", plan.m, stream.substream(1), workers)
    return EstimateReport(
        a=a,
        b=b,
        estimate=complex(mean_x, mean_y),
        se_re=se_x,
        se_im=se_y,
        m_shots=plan.m,
        tallies_x=tuple(int(t) for t in tx),
        tallies_y=tuple(int(t) for t in ty),
        seed=stream.seed,
    )


def standard_pauli_qst(rho: DensityMatrix) -> list:
    """All Pauli expectations Tr(rho P_i); the conventional tomography data.

    The state is recovered as rho = (1/D) sum_i Tr(rho P_i) P_i.
    """
    values = pauli_coefficients(rho.matrix).real
    return list(zip(map(PauliLabel, pauli_labels(rho.dim.bit_length() - 1)), values.tolist()))
