"""Dense complex linear algebra and quantum-state primitives.

Everything here is plain NumPy on dense arrays. States and operators are
immutable after construction (backing arrays are write-protected), and the
state types enforce their physical invariants at construction time:
PureState is normalized, DensityMatrix is Hermitian, unit-trace and
positive semidefinite up to tolerance.

Qubit ordering convention, shared by the whole package: qubit 0 is the
most significant bit of the computational-basis index, so ``tensor(a, b)``
puts ``a`` on the leading qubits.
"""

import numpy as np

from .errors import DimensionMismatch

# Default absolute tolerance for algebraic identities; statistical tests
# use explicit sigma multipliers instead.
ATOL = 1e-10
# Eigenvalue floor below which a matrix is no longer accepted as a state.
EIG_FLOOR = -1e-9
# Memory budget for one dense D×D complex matrix, 16 * 4**n bytes on n
# qubits: n <= 10. States and Kraus operators are refused above it.
MATRIX_MAX_BYTES = 2**24


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# The one home of the single-qubit gate matrices; Y follows the sign
# convention fixed in ``pauli``.
GATES = {
    name: _freeze(np.array(m, dtype=complex))
    for name, m in {
        "x": [[0, 1], [1, 0]],
        "y": [[0, -1j], [1j, 0]],
        "z": [[1, 0], [0, -1]],
        "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "s": [[1, 0], [0, 1j]],
    }.items()
}


def as_matrix(op) -> np.ndarray:
    """Coerce an Operator, DensityMatrix or array-like to a complex ndarray."""
    if isinstance(op, (Operator, DensityMatrix)):
        return op.matrix
    return np.asarray(op, dtype=complex)


class Operator:
    """A D×D complex matrix: gates, Kraus operators, observables."""

    def __init__(self, matrix):
        m = np.array(as_matrix(matrix), dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(f"operator must be square, got shape {m.shape}")
        self._m = _freeze(m)

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    def __repr__(self):
        return f"Operator(dim={self.dim})"


class PureState:
    """A normalized state vector of dimension D."""

    def __init__(self, amplitudes, atol: float = ATOL):
        v = np.array(np.asarray(amplitudes, dtype=complex)).reshape(-1)
        if v.size < 1:
            raise DimensionMismatch("state vector must have dimension >= 1")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > atol:
            raise ValueError(f"state vector norm {norm} deviates from 1 by more than {atol}")
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

    Invariants are checked at construction: max |rho - rho†| <= atol,
    |tr(rho) - 1| <= atol, and all eigenvalues >= eig_floor.
    """

    def __init__(self, matrix, atol: float = ATOL, eig_floor: float = EIG_FLOOR):
        m = np.array(as_matrix(matrix), dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(f"density matrix must be square, got shape {m.shape}")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > atol:
            raise ValueError(f"density matrix is not Hermitian (residual {herm:.3e})")
        tr = m.trace()
        if abs(tr - 1.0) > atol:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < eig_floor:
            raise ValueError(f"density matrix has eigenvalue {lo:.3e} below {eig_floor}")
        self._m = _freeze(m)

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product: block (i, j) of the result is a[i, j] * b."""
    return Operator(np.kron(a.matrix, b.matrix))


def unitarity_residual(u) -> float:
    """Max-norm deviation of u†u from the identity."""
    m = as_matrix(u)
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


def haar_random_unitary(d: int, rng: np.random.Generator) -> Operator:
    """A Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    q = q * (ph / np.abs(ph))
    return Operator(q)


def random_density_matrix(d: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """A random full-rank (by default) density matrix, G G† normalized to unit trace."""
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())
