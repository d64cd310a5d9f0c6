"""The n-qubit Pauli operators in symplectic (x, z) form.

A Pauli is named by its index m in [0, 4**n) alone: the base-4 number of
its word over {I, X, Y, Z} (``pauli_word``, ``pauli_labels``) with I=0,
X=1, Y=2, Z=3 and qubit 0 the most significant digit, so index 0 is the
identity. This is the only module that knows how a Pauli is encoded: m
maps to the n-bit masks x (qubits carrying X or Y) and z (qubits carrying
Y or Z), qubit 0 the most significant bit, and, as in Aaronson & Gottesman
(quant-ph/0406196),

    P_m = i^{|x∧z|} X^x Z^z,   so   P_m|j> = i^{|x∧z|} (-1)^{|z∧j|} |j⊕x>.

That fixes the sign convention of the package: Y = iXZ = [[0, -i], [i, 0]].
Dense work goes through the D×D sign matrix (-1)^{|j∧k|}: ``pauli_matrix``
scatters one Pauli, ``pauli_coefficient`` takes chosen Tr(P_m A) with a
gather of D entries each, ``pauli_coefficients`` takes every Tr(P_m A) with
a gather and one product by it, ``pauli_combination`` builds
sum_m v_m P_m, and ``pauli_masks`` hands out (x, z, phase). Only the
O(4**n) index tables and the sign matrix are cached, never a dense Pauli.
"""

from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange

LETTERS = "IXYZ"
_DIGITS = str.maketrans("0123", LETTERS)  # base-4 digit -> letter


def check_indices(n: int, *indices) -> None:
    """DimensionMismatch unless n >= 1; IndexOutOfRange unless each index lies in [0, 4**n)."""
    if n < 1:
        raise DimensionMismatch(f"need at least one qubit, got n={n}")
    for m in indices:
        if not 0 <= m < 4**n:
            raise IndexOutOfRange(f"Pauli index {m} outside [0, {4**n}) for n={n}")


def pauli_labels(n: int) -> list:
    """The 4**n label words, in index order."""
    check_indices(n)
    return list(map("".join, product(LETTERS, repeat=n)))


def pauli_word(n: int, m: int) -> str:
    """The label word of index m, ``pauli_labels(n)[m]`` without the other 4**n - 1."""
    check_indices(n, m)
    return np.base_repr(m, 4).rjust(n, "0").translate(_DIGITS)


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple:
    """(x, z, phase, index, sign) for n qubits.

    x[m], z[m] and phase[m] = i^{|x∧z|} describe P_m; index[x, z] = m
    inverts them; sign[j, k] = (-1)^{|j∧k|}.
    """
    check_indices(n)
    m = np.arange(4**n)
    x, z, ys = np.zeros_like(m), np.zeros_like(m), np.zeros_like(m)
    for q in range(n):
        digit = (m >> 2 * q) & 3  # the letter on mask bit q
        zq = digit >> 1
        xq = (digit ^ zq) & 1
        x |= xq << q
        z |= zq << q
        ys += xq & zq
    index = np.empty((2**n, 2**n), dtype=m.dtype)
    index[x, z] = m
    sign = np.ones((1, 1))
    for _ in range(n):
        sign = np.kron(sign, [[1.0, 1.0], [1.0, -1.0]])
    tables = (x, z, np.array([1, 1j, -1, -1j])[ys % 4], index, sign)
    for t in tables:
        t.setflags(write=False)
    return tables


def pauli_masks(n: int) -> tuple:
    """(x, z, phase) over the 4**n indices: P_m = phase[m] X^x[m] Z^z[m], phase = i^{|x∧z|}."""
    return _tables(n)[:3]


def _qubits(size: int, base: int) -> int:
    """n with size == base**n, refusing n < 1."""
    n = (size.bit_length() - 1) // (base.bit_length() - 1)
    if n < 1 or size != base**n:
        raise DimensionMismatch(f"size {size} is not {base}**n for a number of qubits n >= 1")
    return n


def pauli_matrix(n: int, m: int) -> np.ndarray:
    """The dense, read-only 2**n × 2**n matrix of P_m, entries exactly 0, ±1 or ±i."""
    check_indices(n, m)
    x, z, phase, _, sign = _tables(n)
    j = np.arange(2**n)
    out = np.zeros((j.size, j.size), dtype=complex)
    out[j ^ x[m], j] = phase[m] * sign[z[m]]
    out.setflags(write=False)
    return out


def pauli_coefficient(mats, m) -> np.ndarray:
    """Tr(P_m A) for each D×D matrix A of ``mats`` and an index m, or an array of them.

    Tr(P_m A) = i^{|x∧z|} sum_j (-1)^{|z∧j|} A[j, j⊕x]: a gather of D entries
    per matrix and index. ``mats`` is a sequence of matrices or a stack along
    its first axis, read one matrix at a time and never copied whole; the
    result is shaped (len(mats), m...). An index outside [0, 4**n) raises
    IndexOutOfRange.
    """
    d = np.shape(mats[0])[-1]
    x, z, phase, _, sign = _tables(_qubits(d, 2))
    m = np.asarray(m)
    if np.any((m < 0) | (m >= x.size)):
        raise IndexOutOfRange(f"Pauli index {m} outside [0, {x.size})")
    j = np.arange(d)
    flat = j * d + (j ^ x[m][..., None])  # A[j, j⊕x] in the flattened A
    entries = np.array([np.ravel(a)[flat] for a in mats])
    return phase[m] * np.sum(entries * sign[z[m]], axis=-1)


def pauli_coefficients(a) -> np.ndarray:
    """Tr(P_m A) for every index m, over the last two axes of a stack of D×D matrices.

    Tr(P_m A) = i^{|x∧z|} sum_j (-1)^{|z∧j|} A[j, j⊕x]: a gather, one product
    by the sign matrix, and a gather of the (x, z) entries.
    """
    a = np.asarray(a)
    x, z, phase, _, sign = _tables(_qubits(a.shape[-1], 2))
    j = np.arange(sign.shape[0])
    shifted = a[..., j, j[:, None] ^ j]  # shifted[..., x, j] = A[j, j⊕x]
    rows = shifted @ sign
    del shifted
    out = rows[..., x, z]
    out *= phase
    return out


def pauli_combination(v) -> np.ndarray:
    """sum_m v_m P_m over the last axis of v (length 4**n), as D×D matrices."""
    v = np.asarray(v)
    _, _, phase, index, sign = _tables(_qubits(v.shape[-1], 4))
    # rows[..., x, j] = sum_z v_m i^{|x∧z|} (-1)^{|z∧j|} = (sum_m v_m P_m)[j⊕x, j]
    rows = (v * phase)[..., index] @ sign
    j = np.arange(sign.shape[0])
    out = np.empty_like(rows)
    out[..., j[:, None] ^ j, j] = rows
    return out
