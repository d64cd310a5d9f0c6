import contextlib
import io
import json
from functools import reduce
from itertools import product

import numpy as np
from scipy import stats

from seqtomo import DensityMatrix, PreparationBasis, maximally_entangled_state
from seqtomo.cli import main

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
