from functools import reduce
from itertools import product

import numpy as np
from scipy import stats

from seqtomo import DensityMatrix, PreparationBasis, maximally_entangled_state

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


def choi_state(ch) -> DensityMatrix:
    """The dense D²×D² dual state sum_k (K_k ⊗ I)|Phi><Phi|(K_k ⊗ I)†, two kron products per Kraus operator."""
    d = ch.dim
    phi = maximally_entangled_state(ch.n).amplitudes
    proj = np.outer(phi, phi.conj())
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus_ops:
        big = np.kron(k, eye)
        out += big @ proj @ big.conj().T
    return DensityMatrix(out)


def choi_basis(n: int) -> PreparationBasis:
    """The preparation basis {(P_k ⊗ I)|Phi>} on two n-qubit registers, with kron(P_k, I) preparators."""
    eye = np.eye(2**n, dtype=complex)
    paulis = dense_pauli_basis(n)
    return PreparationBasis(2 * n, maximally_entangled_state(n), lambda k: np.kron(paulis[k], eye), name="choi-pauli")


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
