"""Dense complex linear algebra and quantum-state primitives.

Everything here is plain NumPy on dense arrays. An operator is a plain
ndarray; the ones made here are read-only, as are the backing arrays of
the state types, which enforce their physical invariants at construction:
PureState is normalized, DensityMatrix is Hermitian, unit-trace and
positive semidefinite up to tolerance.

Qubit ordering convention, shared by the whole package: qubit 0 is the
most significant bit of the computational-basis index, so ``tensor(a, b)``
puts ``a`` on the leading qubits.
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
# operator, 16 * 4**n bytes on n qubits, fits MATRIX_MAX_BYTES (n <= 10), and
# a route's working set of such operators (a chi matrix is 4**n of them) plus
# its report's rows fits WORKING_SET_MAX_BYTES. ROW_BYTES is the max RSS of a
# report row, rounded up from the largest measured: 1.27 KB per dcqd-diag row
# (JSON, n = 9), against 0.69 KB for standard-qst and 0.40 KB for aapt (n = 4).
MATRIX_MAX_BYTES = 2**24
WORKING_SET_MAX_BYTES = 2**30
ROW_BYTES = 1536


def check_size(what: str, n: int, operators: int = 0, rows: int = 0) -> None:
    """SizeLimitExceeded unless ``operators`` D×D operators on n qubits and ``rows`` report rows fit the budgets.

    Called before anything is allocated. A route that holds s copies of a
    rank-r Kraus stack asks for s * r + 1 operators, the one for |Phi> and
    index arrays.
    """
    # Past n = 32 the verdict no longer changes; the cap keeps the integers small.
    matrix = 16 * 4 ** min(n, 32)
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


def apply_gates(state: np.ndarray, gates, first: int = 0) -> np.ndarray:
    """Run a gate list on a (..., 2, ..., 2) tensor whose qubit q is axis first + q.

    Each entry is (gate, qubits): a name in GATES or a 2**k × 2**k matrix, on
    k contiguous qubits. cnot, on (control, target), flips the target axis of
    the half where the control reads 1: as exact as its matrix, and faster.
    """
    for gate, qubits in gates:
        u = GATES[gate] if isinstance(gate, str) else gate
        axis = first + qubits[0]
        if u is GATES["cnot"]:
            ones = (slice(None),) * axis + (1,)
            flipped = state.copy()
            flipped[ones] = np.flip(state[ones], axis=first + qubits[1] - (qubits[1] > qubits[0]))
            state = flipped
        else:
            state = (u @ state.reshape(math.prod(state.shape[:axis]), len(u), -1)).reshape(state.shape)
    return state


class PureState:
    """A normalized state vector of dimension D."""

    def __init__(self, amplitudes):
        v = np.array(np.asarray(amplitudes, dtype=complex)).reshape(-1)
        if v.size < 1:
            raise DimensionMismatch("state vector must have dimension >= 1")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state vector norm {norm} deviates from 1 by more than {ATOL}")
        self._v = _freeze(v)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._v

    @property
    def dim(self) -> int:
        return self._v.size

    def density(self) -> "DensityMatrix":
        """The projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix(np.outer(self._v, self._v.conj()))

    def __repr__(self):
        return f"PureState(dim={self.dim})"


class DensityMatrix:
    """A D×D density matrix: Hermitian, trace one, positive semidefinite.

    Invariants are checked at construction: max |rho - rho†| <= ATOL,
    |tr(rho) - 1| <= ATOL, and all eigenvalues >= EIG_FLOOR.
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
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < EIG_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {lo:.3e} below {EIG_FLOOR}")
        self._m = _freeze(m)

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def tensor(a, b) -> np.ndarray:
    """Kronecker product, read-only: block (i, j) of the result is a[i, j] * b."""
    return _freeze(np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def unitarity_residual(u) -> float:
    """Max-norm deviation of u†u from the identity."""
    m = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def partial_trace(rho: DensityMatrix, dims: tuple, keep: str) -> DensityMatrix:
    """Trace out one factor of a bipartite state.

    Args:
        rho: state on a Hilbert space of dimension D_A * D_B.
        dims: (D_A, D_B), with subsystem A on the leading index bits.
        keep: "A" or "B", the subsystem left after tracing.
    """
    da, db = dims
    if da * db != rho.dim:
        raise DimensionMismatch(f"dims {dims} do not factor dimension {rho.dim}")
    r4 = rho.matrix.reshape(da, db, da, db)
    if keep == "A":
        out = np.einsum("ijkj->ik", r4)
    elif keep == "B":
        out = np.einsum("ijil->jl", r4)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityMatrix(out)


def maximally_entangled_state(n: int) -> PureState:
    """The state sum_i |ii> / sqrt(D) on two n-qubit registers, D = 2**n."""
    if n < 1:
        raise DimensionMismatch("need at least one qubit")
    d = 2**n
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return PureState(v)


def haar_random_state(d: int, rng: np.random.Generator) -> PureState:
    """A Haar-random pure state: a normalized vector of iid complex Gaussians."""
    if d < 1:
        raise DimensionMismatch("dimension must be >= 1")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """A read-only Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return _freeze(q * (ph / np.abs(ph)))


def random_density_matrix(d: int, rng: np.random.Generator) -> DensityMatrix:
    """A random full-rank density matrix, G G† normalized to unit trace."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())
