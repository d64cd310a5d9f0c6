import contextlib
import io
import json
from functools import reduce
from itertools import product

import numpy as np
from scipy import stats

from seqtomo import DensityMatrix, KrausChannel, PreparationBasis, maximally_entangled_state, pauli_combination
from seqtomo.cli import main
from seqtomo.errors import DimensionMismatch, NotCompletelyPositive

# Eigenvalues of a chi matrix in (CHI_EIG_ZERO_LO, CHI_EIG_ZERO_HI) are
# treated as numerical zeros when extracting Kraus operators; anything
# below the lower cutoff is a genuine negativity.
CHI_EIG_ZERO_LO = -1e-7
CHI_EIG_ZERO_HI = 1e-9

# Literal single-qubit Paulis, independent of the package's (x, z) encoding.
SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(letters: str) -> np.ndarray:
    """The Pauli of a label as a kron of literal 2x2 sigmas, qubit 0 leftmost."""
    return reduce(np.kron, [SIGMA[c] for c in letters])


def dense_pauli_basis(n: int) -> np.ndarray:
    """All 4**n Paulis, stacked in base-4 index order (I=0, X=1, Y=2, Z=3, qubit 0 most significant)."""
    return np.stack([dense_pauli("".join(w)) for w in product("IXYZ", repeat=n)])


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
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    # rho's factor F[(i, j), k] holds the traced index j among its columns in rho_A = F_A F_A†.
    f = rho.factor.reshape(da, db, -1)
    return DensityMatrix.from_factor(f.reshape(da, -1) if keep == "A" else f.transpose(1, 0, 2).reshape(db, -1))


def chi_to_kraus(chi) -> KrausChannel:
    """Extract Kraus operators from a positive chi matrix by eigendecomposition.

    K_k = sqrt(l_k) sum_m v_mk P_m for eigenpairs (l_k, v_k). Eigenvalues in
    the numerical-zero window are dropped; below it, NotCompletelyPositive.
    """
    herm = (chi.entries + chi.entries.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    if vals.min() < CHI_EIG_ZERO_LO:
        raise NotCompletelyPositive(f"chi has eigenvalue {vals.min():.3e}")
    keep = vals >= CHI_EIG_ZERO_HI
    return KrausChannel(chi.n, np.sqrt(vals[keep])[:, None, None] * pauli_combination(vecs[:, keep].T))


def apply_kraus(ch, rho) -> DensityMatrix:
    """The Kraus-sum reference E(rho) = sum_k K_k rho K_k†."""
    return DensityMatrix(sum(k @ rho.matrix @ k.conj().T for k in ch.kraus_ops))


def channel_to_json(ch) -> dict:
    """The explicit {"kraus": ...} channel spec of a channel, entries as [re, im] pairs."""
    return {"kraus": [[[[float(v.real), float(v.imag)] for v in row] for row in k] for k in ch.kraus_ops]}


def choi_state(ch) -> DensityMatrix:
    """The dense D²×D² dual state sum_k (K_k ⊗ I)|Phi><Phi|(K_k ⊗ I)†, two kron products per Kraus operator."""
    d = ch.dim
    phi = maximally_entangled_state(ch.n).factor[:, 0]
    proj = np.outer(phi, phi.conj())
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus_ops:
        big = np.kron(k, eye)
        out += big @ proj @ big.conj().T
    return DensityMatrix(out)


def choi_unitary(n: int) -> np.ndarray:
    """The unitary W on two n-qubit registers whose column k is kron(P_k, I)|Phi>."""
    eye = np.eye(2**n, dtype=complex)
    phi = maximally_entangled_state(n).factor[:, 0]
    return np.stack([np.kron(p, eye) @ phi for p in dense_pauli_basis(n)], axis=1)


def choi_basis(n: int) -> PreparationBasis:
    """The preparation basis {(P_k ⊗ I)|Phi>}, the columns of ``choi_unitary``."""
    return PreparationBasis.columns(choi_unitary(n), name="choi-pauli")


def chi_square_pvalue(observed, probs) -> float:
    """Goodness-of-fit p-value of observed tallies against exact probabilities.

    Zero-probability categories must be unobserved and are dropped; remaining
    categories with expected count < 5 are merged into one bin to keep the
    chi-square approximation honest.
    """
    observed = np.asarray(observed, dtype=float)
    probs = np.asarray(probs, dtype=float)
    total = observed.sum()
    zero = probs <= 1e-15
    assert not observed[zero].any(), "outcome observed in a zero-probability category"
    observed, probs = observed[~zero], probs[~zero]
    expected = probs * total
    small = expected < 5
    if small.any() and (~small).any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    if len(observed) < 2:
        return 1.0
    stat, pvalue = stats.chisquare(observed, expected)
    return float(pvalue)


def estimate_block(*args: str) -> dict:
    """The ``estimate`` block of the JSON report of ``seqtomo run`` with these arguments."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", *args]) == 0
    return json.loads(out.getvalue())["results"]["estimate"]
