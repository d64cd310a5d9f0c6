"""The n-qubit Pauli operators in symplectic (x, z) form.

Labels are words over {I, X, Y, Z}; the index m of a label is its base-4
number with I=0, X=1, Y=2, Z=3 and qubit 0 the most significant digit, so
index 0 is the identity. This is the only module that knows how a Pauli
is encoded: m maps to the n-bit masks x (qubits carrying X or Y) and z
(qubits carrying Y or Z), qubit 0 the most significant bit, and, as in
Aaronson & Gottesman (quant-ph/0406196),

    P_m = i^{|x∧z|} X^x Z^z,   so   P_m|j> = i^{|x∧z|} (-1)^{|z∧j|} |j⊕x>.

That fixes the sign convention of the package: Y = iXZ = [[0, -i], [i, 0]].
Products are an XOR of the masks and a popcount phase. Dense work goes
through the D×D sign matrix (-1)^{|j∧k|}: ``pauli_matrix`` scatters one
Pauli, ``pauli_coefficients`` takes every Tr(P_m A) with a gather and one
product by it, ``pauli_combination`` builds sum_m v_m P_m, and
``pauli_masks`` hands out (x, z, phase). Only the O(4**n) index tables and
the sign matrix are cached, never a dense Pauli.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .core import Operator
from .errors import DimensionMismatch, IndexOutOfRange, LengthMismatch

LETTERS = "IXYZ"

PHASES = (1, -1, 1j, -1j)


@dataclass(frozen=True)
class PauliLabel:
    """A symbolic n-qubit Pauli operator, e.g. PauliLabel("XZ") = X ⊗ Z."""

    letters: str

    def __post_init__(self):
        if not self.letters or self.letters.strip(LETTERS):
            raise ValueError(f"letters must be a nonempty word over {LETTERS}, got {self.letters!r}")

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def index(self) -> int:
        """Base-4 index in [0, 4**n), qubit 0 most significant."""
        m = 0
        for c in self.letters:
            m = 4 * m + LETTERS.index(c)
        return m

    @classmethod
    def from_index(cls, n: int, index: int) -> "PauliLabel":
        if not 0 <= index < 4**n:
            raise IndexOutOfRange(f"index {index} outside [0, {4**n}) for n={n}")
        digits = []
        m = index
        for _ in range(n):
            digits.append(LETTERS[m % 4])
            m //= 4
        return cls("".join(reversed(digits)))

    def __str__(self):
        return self.letters


def pauli_labels(n: int) -> list:
    """The 4**n label words, in index order."""
    if n < 1:
        raise DimensionMismatch(f"need at least one qubit, got n={n}")
    return list(map("".join, product(LETTERS, repeat=n)))


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli label together with a unit phase from {+1, -1, +i, -i}."""

    label: PauliLabel
    phase: complex

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple:
    """(x, z, phase, index, sign) for n qubits.

    x[m], z[m] and phase[m] = i^{|x∧z|} describe P_m; index[x, z] = m
    inverts them; sign[j, k] = (-1)^{|j∧k|}.
    """
    if n < 1:
        raise DimensionMismatch(f"need at least one qubit, got n={n}")
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


def pauli_matrix(label: PauliLabel) -> Operator:
    """The dense 2**n × 2**n matrix of a Pauli label, entries exactly 0, ±1 or ±i."""
    x, z, phase, _, sign = _tables(label.n)
    m = label.index
    j = np.arange(2**label.n)
    out = np.zeros((j.size, j.size), dtype=complex)
    out[j ^ x[m], j] = phase[m] * sign[z[m]]
    return Operator(out)


def pauli_coefficients(a) -> np.ndarray:
    """Tr(P_m A) for every index m, over the last two axes of a stack of D×D matrices.

    Tr(P_m A) = i^{|x∧z|} sum_j (-1)^{|z∧j|} A[j, j⊕x]: a gather, one product
    by the sign matrix, and a gather of the (x, z) entries.
    """
    a = np.asarray(a)
    x, z, phase, _, sign = _tables(_qubits(a.shape[-1], 2))
    j = np.arange(sign.shape[0])
    shifted = a[..., j, j[:, None] ^ j]  # shifted[..., x, j] = A[j, j⊕x]
    return phase * (shifted @ sign)[..., x, z]


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


def pauli_product(a: PauliLabel, b: PauliLabel) -> PhasedPauli:
    """The symbolic product: pauli(a) @ pauli(b) = phase * pauli(result).

    Z^z_a X^x_b = (-1)^{|z_a∧x_b|} X^x_b Z^z_a, so the result's masks are the
    XOR of the factors' masks and the phase is a popcount.
    """
    if a.n != b.n:
        raise LengthMismatch(f"labels act on {a.n} and {b.n} qubits")
    x, z, phase, index, _ = _tables(a.n)
    i, k = a.index, b.index
    c = index[x[i] ^ x[k], z[i] ^ z[k]]
    sign = (-1) ** int(z[i] & x[k]).bit_count()
    phased = sign * phase[i] * phase[k] * phase[c].conjugate()
    return PhasedPauli(PauliLabel.from_index(a.n, int(c)), complex(phased))
