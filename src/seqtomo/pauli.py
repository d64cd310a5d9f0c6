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
Chosen Paulis cost O(D) each and build no table: their (x, z, phase) come
from the index bits and the sign row (-1)^{|z∧j|} from one parity rule.
``times_pauli`` is A·P_m as a gather of columns (``pauli_matrix`` is that
gather on I), and ``pauli_coefficient`` takes chosen Tr(P_m A) from D
entries each. Only ``pauli_coefficients`` (every Tr(P_m A)),
``pauli_combination`` (sum_m v_m P_m) and ``pauli_masks(n)`` read the
cached 4**n tables and D×D sign matrix. No dense Pauli is ever cached.
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


def _masks(n: int, m) -> tuple:
    """(x, z, phase) of an index or index array m, from its bits: base-4 digit q, from the last, is mask bit q."""
    m = np.asarray(m)
    x, z, ys = np.zeros_like(m), np.zeros_like(m), np.zeros_like(m)
    for q in range(n):
        digit = (m >> 2 * q) & 3
        zq = digit >> 1
        xq = (digit ^ zq) & 1
        x |= xq << q
        z |= zq << q
        ys += xq & zq
    return x, z, np.array([1, 1j, -1, -1j])[ys % 4]


def _signs(n: int, z) -> np.ndarray:
    """(-1)^{|z∧j|} over j in [0, 2**n), one row per mask of z: the parity of z∧j, its bits folded by shifts."""
    v = np.asarray(z)[..., None] & np.arange(2**n)
    shift = 1
    while shift < n:
        v ^= v >> shift
        shift <<= 1
    return 1.0 - 2.0 * (v & 1)


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple:
    """(x, z, phase, index, sign) over all 4**n indices, for the routes that read every Pauli.

    x[m], z[m] and phase[m] = i^{|x∧z|} describe P_m; index[x, z] = m
    inverts them; sign[j, k] = (-1)^{|j∧k|}.
    """
    check_indices(n)
    m = np.arange(4**n)
    x, z, phase = _masks(n, m)
    index = np.empty((2**n, 2**n), dtype=m.dtype)
    index[x, z] = m
    tables = (x, z, phase, index, _signs(n, np.arange(2**n)))
    for t in tables:
        t.setflags(write=False)
    return tables


def pauli_masks(n: int, m=None) -> tuple:
    """(x, z, phase) of the indices m from their bits, or of all 4**n from the tables: P_m = phase X^x Z^z."""
    if m is None:
        return _tables(n)[:3]
    check_indices(n, *np.ravel(m))
    return _masks(n, m)


def _qubits(size: int, base: int) -> int:
    """n with size == base**n, refusing n < 1."""
    n = (size.bit_length() - 1) // (base.bit_length() - 1)
    if n < 1 or size != base**n:
        raise DimensionMismatch(f"size {size} is not {base}**n for a number of qubits n >= 1")
    return n


def times_pauli(a, m: int) -> np.ndarray:
    """A·P_m as a new array, P_m acting on the last axis of a: a row, a D×D matrix or a stack of them.

    Column j is phase (-1)^{|z∧j|} A[..., j⊕x]: a gather and a product by D
    factors, in the size of A, where the dense product costs D times that.
    """
    a = np.asarray(a, dtype=complex)
    n = _qubits(a.shape[-1], 2)
    x, z, phase = pauli_masks(n, m)
    out = np.take(a, np.arange(a.shape[-1]) ^ x, axis=-1)  # C-ordered, unlike a[..., j ^ x]
    out *= phase * _signs(n, z)
    return out


def pauli_matrix(n: int, m: int) -> np.ndarray:
    """The dense, read-only 2**n × 2**n matrix of P_m, entries exactly 0, ±1 or ±i: ``times_pauli`` on I."""
    check_indices(n, m)
    out = times_pauli(np.eye(2**n, dtype=complex), m)
    out.setflags(write=False)
    return out


def pauli_coefficient(mats, m) -> np.ndarray:
    """Tr(P_m A) for each D×D matrix A of ``mats`` and an index m, or an array of them.

    Tr(P_m A) = i^{|x∧z|} sum_j (-1)^{|z∧j|} A[j, j⊕x]: a gather of D entries
    per matrix and index, with no table built. ``mats`` is a stack along its
    first axis or a sequence of matrices; the result is shaped
    (len(mats), m...). An index outside [0, 4**n) raises IndexOutOfRange.
    """
    mats = np.asarray(mats)
    d = mats.shape[-1]
    n = _qubits(d, 2)
    x, z, phase = pauli_masks(n, m)
    j = np.arange(d)
    flat = j * d + (j ^ x[..., None])  # A[j, j⊕x] in the flattened A
    entries = np.take(mats.reshape(len(mats), d * d), flat, axis=1)
    return phase * np.sum(entries * _signs(n, z), axis=-1)


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
