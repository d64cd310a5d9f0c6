"""Dense complex linear algebra and quantum-state primitives.

Everything here is plain NumPy on dense arrays. An operator is a plain
ndarray; the ones made here are read-only. The one state type,
DensityMatrix, is held as its read-only D×r factor F with rho = F F†: a
pure state is a single column, so it costs O(D) where the D×D matrix would
cost O(D²), and ``.matrix`` forms F F† only for a route that reads it.

Qubit ordering convention, shared by the whole package: qubit 0 is the
most significant bit of the computational-basis index, so in ``np.kron(a, b)``
``a`` acts on the leading qubits.
"""

import math

import numpy as np

from .errors import DimensionMismatch, SizeLimitExceeded

# Default absolute tolerance for algebraic identities; statistical tests
# use explicit sigma multipliers instead.
ATOL = 1e-10
# Eigenvalue floor below which a matrix is no longer accepted as a state.
EIG_FLOOR = -1e-9

# The one size policy, applied by ``check_size``: a dense D×D complex
# operator, 16 * 4**n bytes on n qubits, fits MATRIX_MAX_BYTES (n <= 10), as
# does a state's D×r factor of 16 * 2**n * r bytes (n <= 20 for a pure one), and
# a route's working set of such operators (a chi matrix is 4**n of them) plus
# its report's rows fits WORKING_SET_MAX_BYTES. ROW_BYTES bounds the max RSS of
# a report row, (max RSS at n - at n = 1) / rows: the largest measured is 0.96 KB
# per dcqd-diag row (JSON, n = 9), against 0.58 KB for standard-qst (n = 9) and
# 0.42 KB for aapt (n = 4). It was rounded up from 1.27 KB per dcqd-diag row,
# when each row's JSON text was held apart.
MATRIX_MAX_BYTES = 2**24
WORKING_SET_MAX_BYTES = 2**30
ROW_BYTES = 1536


def check_size(what: str, n: int, operators: int = 0, rows: int = 0, columns: int | None = None) -> None:
    """SizeLimitExceeded unless ``operators`` operators on n qubits and ``rows`` report rows fit the budgets.

    Called before anything is allocated. An operator is D×D, or D×columns
    for a state's factor. A route that holds s copies of a rank-r Kraus
    stack asks for s * r + 1 operators, the one for |Phi> and index arrays.
    """
    # Past n = 32 the verdict no longer changes; the cap keeps the integers small.
    d = 2 ** min(n, 32)
    matrix = 16 * d * (d if columns is None else columns)
    if matrix > MATRIX_MAX_BYTES or operators * matrix + rows * ROW_BYTES > WORKING_SET_MAX_BYTES:
        report = f" and {rows} report rows of {ROW_BYTES} bytes" if rows else ""
        raise SizeLimitExceeded(
            f"{what} of {operators} operator(s){report} on {n} qubits exceeds the dense budgets of "
            f"{MATRIX_MAX_BYTES} bytes per operator and {WORKING_SET_MAX_BYTES} bytes in all"
        )


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# The one home of the gate matrices, the first qubit of cnot its control;
# Y follows the sign convention fixed in ``pauli``.
GATES = {
    name: _freeze(np.array(m, dtype=complex))
    for name, m in {
        "x": [[0, 1], [1, 0]],
        "y": [[0, -1j], [1j, 0]],
        "z": [[1, 0], [0, -1]],
        "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "s": [[1, 0], [0, 1j]],
        "t": [[1, 0], [0, np.exp(1j * np.pi / 4)]],
        "cnot": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    }.items()
}


def apply_gates(state: np.ndarray, gates) -> np.ndarray:
    """Run a gate list on a (B, 2, ..., 2) batch of B tensors whose qubit q is axis 1 + q.

    Each entry is (gate, qubits): a name in GATES or a 2**k × 2**k matrix, on
    k contiguous qubits. cnot, on (control, target), flips the target axis of
    the half where the control reads 1: as exact as its matrix, and faster.
    """
    for gate, qubits in gates:
        u = GATES[gate] if isinstance(gate, str) else gate
        axis = 1 + qubits[0]
        if u is GATES["cnot"]:
            ones = (slice(None),) * axis + (1,)
            flipped = state.copy()
            flipped[ones] = np.flip(state[ones], axis=1 + qubits[1] - (qubits[1] > qubits[0]))
            state = flipped
        else:
            state = (u @ state.reshape(math.prod(state.shape[:axis]), len(u), -1)).reshape(state.shape)
    return state


class DensityMatrix:
    """A state rho = F F†, held as its read-only D×r factor F (r = 1 for a pure state).

    ``from_factor`` checks the trace ||F||² = 1 to ATOL only, as F F† is
    Hermitian and positive semidefinite by construction. A dense matrix from
    outside must have max |rho - rho†| <= ATOL, |tr(rho) - 1| <= ATOL and
    every eigenvalue >= EIG_FLOOR; its factor is V sqrt(lambda) over the
    eigenpairs of ``eigh`` with lambda > 0.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(f"density matrix must be square, got shape {m.shape}")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > ATOL:
            raise ValueError(f"density matrix is not Hermitian (residual {herm:.3e})")
        tr = m.trace()
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        vals, vecs = np.linalg.eigh(m)
        if vals[0] < EIG_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {vals[0]:.3e} below {EIG_FLOOR}")
        self._f = _freeze(vecs[:, vals > 0] * np.sqrt(vals[vals > 0]))

    @classmethod
    def from_factor(cls, factor) -> "DensityMatrix":
        """The state F F† of a D×r factor F; a vector is the pure state |psi><psi|."""
        f = np.array(factor, dtype=complex)
        f = f.reshape(-1, 1) if f.ndim == 1 else f
        if f.ndim != 2 or f.size < 1:
            raise DimensionMismatch(f"a state factor must be a vector or a D×r matrix, got shape {f.shape}")
        tr = np.vdot(f, f).real
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"state trace {tr} deviates from 1 by more than {ATOL}")
        state = cls.__new__(cls)
        state._f = _freeze(f)
        return state

    @property
    def factor(self) -> np.ndarray:
        return self._f

    @property
    def matrix(self) -> np.ndarray:
        """rho = F F†, formed anew on each call: D×D, where the factor is D×r."""
        return _freeze(self._f @ self._f.conj().T)

    @property
    def dim(self) -> int:
        return self._f.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, rank={self._f.shape[1]})"


def unitarity_residual(u) -> float:
    """Max-norm deviation of u†u from the identity."""
    m = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def maximally_entangled_state(n: int) -> DensityMatrix:
    """The state sum_i |ii> / sqrt(D) on two n-qubit registers, D = 2**n."""
    if n < 1:
        raise DimensionMismatch("need at least one qubit")
    d = 2**n
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return DensityMatrix.from_factor(v)


def haar_random_state(d: int, rng: np.random.Generator) -> DensityMatrix:
    """A Haar-random pure state: a normalized vector of iid complex Gaussians."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return DensityMatrix.from_factor(v / np.linalg.norm(v))


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """A read-only Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return _freeze(q * (ph / np.abs(ph)))


def random_density_matrix(d: int, rng: np.random.Generator) -> DensityMatrix:
    """A random full-rank state G G† / Tr(G G†), held as its factor G / ||G||_F."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g /= np.linalg.norm(g)
    return DensityMatrix.from_factor(g)
