"""Quantum channels in Kraus and process-matrix (chi) form.

A channel acts as E(rho) = sum_k K_k rho K_k†, or equivalently as
E(rho) = sum_mn chi_mn P_m rho P_n† over the n-qubit Pauli basis {P_m}.
The chi matrix of a physical channel is Hermitian (hermiticity
preservation), satisfies sum_mn chi_mn P_n† P_m = I (trace preservation),
and is positive semidefinite (complete positivity); ``validate_channel``
reports all three predicates with their numerical residuals and never
throws, so malformed matrices can be diagnosed.

Only trace-preserving, dimension-preserving qubit channels are in scope.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import MATRIX_MAX_BYTES, GATES, DensityMatrix, as_matrix, unitarity_residual
from .errors import (
    ConfigError,
    DimensionMismatch,
    NotCompletelyPositive,
    ParamOutOfRange,
    SizeLimitExceeded,
    UnknownChannel,
)
from .pauli import pauli_coefficients, pauli_combination, pauli_labels

# Eigenvalues of a chi matrix in (CHI_EIG_ZERO_LO, CHI_EIG_ZERO_HI) are
# treated as numerical zeros when extracting Kraus operators; anything
# below the lower cutoff is a genuine negativity.
CHI_EIG_ZERO_LO = -1e-7
CHI_EIG_ZERO_HI = 1e-9

# Memory budget for a channel's dense Kraus stack, rank * 16 * 4**n bytes,
# on top of core.MATRIX_MAX_BYTES per operator. Every channel of Kraus rank
# at most 4**n fits up to n = 6 (depolarizing⊗6 takes 256 MiB). The same
# budget bounds the 16 * 16**n bytes of a chi matrix: n <= 6.
KRAUS_MAX_BYTES = 2**30

# Tolerance of the ``validate_channel`` predicates and of the dual-state
# trace check in ``qpt``, so both call the same channels trace-preserving.
VALIDITY_ATOL = 1e-9


class KrausChannel:
    """A channel given by Kraus operators on n qubits.

    Construction checks shapes only; trace preservation is a property
    (``completeness_residual``) so that deliberately corrupted channels can
    still be represented and diagnosed.
    """

    def __init__(self, n: int, kraus_ops):
        if n < 1:
            raise DimensionMismatch("need at least one qubit")
        d = 2**n
        ops = tuple(np.array(as_matrix(k), dtype=complex) for k in kraus_ops)
        if not ops:
            raise DimensionMismatch("need at least one Kraus operator")
        for k in ops:
            if k.shape != (d, d):
                raise DimensionMismatch(f"Kraus operator shape {k.shape} != ({d}, {d})")
            k.setflags(write=False)
        self.n = n
        self.kraus_ops = ops

    @property
    def dim(self) -> int:
        return 2**self.n

    def completeness_residual(self) -> float:
        """Max-norm deviation of sum_k K_k† K_k from the identity."""
        s = sum(k.conj().T @ k for k in self.kraus_ops)
        return float(np.max(np.abs(s - np.eye(self.dim))))

    def __repr__(self):
        return f"KrausChannel(n={self.n}, rank={len(self.kraus_ops)})"


class ChiMatrix:
    """A D²×D² process matrix over the Pauli basis, D = 2**n.

    Entry (m, n) multiplies P_m rho P_n† in the channel expansion. The
    constructor checks the shape only; physicality is assessed by
    ``validate_channel``.
    """

    def __init__(self, n: int, entries):
        if n < 1:
            raise DimensionMismatch("need at least one qubit")
        d2 = 4**n
        m = np.array(np.asarray(entries, dtype=complex))
        if m.shape != (d2, d2):
            raise DimensionMismatch(f"chi matrix shape {m.shape} != ({d2}, {d2})")
        m.setflags(write=False)
        self.n = n
        self.entries = m

    @property
    def dim(self) -> int:
        return 2**self.n

    def __repr__(self):
        return f"ChiMatrix(n={self.n})"


@dataclass(frozen=True)
class ValidityReport:
    """The three channel predicates with their numerical evidence."""

    hermitian: bool
    hermitian_residual: float
    trace_preserving: bool
    tp_residual: float
    completely_positive: bool
    min_eigenvalue: float

    @property
    def all_valid(self) -> bool:
        return self.hermitian and self.trace_preserving and self.completely_positive

    def to_json(self) -> dict:
        return {
            "hermitian": {"ok": self.hermitian, "residual": self.hermitian_residual},
            "trace_preserving": {"ok": self.trace_preserving, "residual": self.tp_residual},
            "completely_positive": {
                "ok": self.completely_positive,
                "min_eigenvalue": self.min_eigenvalue,
            },
        }


def apply_kraus(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """E(rho) = sum_k K_k rho K_k†."""
    if ch.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} != state dim {rho.dim}")
    out = sum(k @ rho.matrix @ k.conj().T for k in ch.kraus_ops)
    return DensityMatrix(out)


def apply_chi(chi: ChiMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Evaluate the double sum sum_mn chi_mn P_m rho P_n† directly from chi."""
    if chi.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {chi.dim} != state dim {rho.dim}")
    return DensityMatrix(_pauli_sandwich(chi.entries, rho.matrix))


def _pauli_sandwich(chi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_mn chi_mn P_m x P_n as two Pauli combinations (Paulis are Hermitian)."""
    left = pauli_combination(chi.T) @ x  # left[n] = (sum_m chi_mn P_m) x
    # [r, b, b', c] = sum_n left_n[r, b] P_n[b', c]; sum_n left_n P_n is its b = b' trace.
    return np.einsum("rbbc->rc", pauli_combination(np.moveaxis(left, 0, -1)))


def kraus_to_chi(ch: KrausChannel) -> ChiMatrix:
    """Expand each Kraus operator over the Pauli basis and form chi.

    K_k = sum_m c_km P_m with c_km = Tr(P_m† K_k) / D, and
    chi_mn = sum_k c_km conj(c_kn). A chi over the dense budget of
    ``KRAUS_MAX_BYTES`` (so n >= 7) raises SizeLimitExceeded.
    """
    if 16 * 16**ch.n > KRAUS_MAX_BYTES:
        raise SizeLimitExceeded(f"a chi matrix on {ch.n} qubits exceeds the dense budget of {KRAUS_MAX_BYTES} bytes")
    # c[k, m] = Tr(P_m K_k) / D  (Pauli matrices are Hermitian)
    c = pauli_coefficients(np.stack(ch.kraus_ops)) / ch.dim
    chi = np.einsum("km,kn->mn", c, c.conj())
    return ChiMatrix(ch.n, chi)


def chi_to_kraus(chi: ChiMatrix) -> KrausChannel:
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


def validate_channel(chi: ChiMatrix, atol: float = VALIDITY_ATOL) -> ValidityReport:
    """Report hermiticity, trace preservation and complete positivity.

    Positivity is assessed on the Hermitian part (chi + chi†)/2, so a purely
    anti-Hermitian defect shows up only in the hermiticity predicate.
    """
    m = chi.entries
    herm_res = float(np.max(np.abs(m - m.conj().T)))
    tp = _pauli_sandwich(m.T, np.eye(chi.dim))  # sum_ab chi_ab P_b† P_a
    tp_res = float(np.max(np.abs(tp - np.eye(chi.dim))))
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
    return ValidityReport(
        hermitian=herm_res <= atol,
        hermitian_residual=herm_res,
        trace_preserving=tp_res <= atol,
        tp_residual=tp_res,
        completely_positive=min_eig >= -atol,
        min_eigenvalue=min_eig,
    )


# ---------------------------------------------------------------------------
# Named channels
# ---------------------------------------------------------------------------

_GATES = {
    **GATES,
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}


# The Pauli each flip channel applies with probability p.
_FLIPS = {"bit_flip": "x", "phase_flip": "z", "bit_phase_flip": "y"}
# Parameters each zoo family takes; all but identity and unitary act on one qubit.
_ZOO_PARAMS = {"identity": (), "unitary": ("gate", "u"), "depolarizing": ("p",), "amplitude_damping": ("gamma",)}
_ZOO_PARAMS.update(dict.fromkeys(_FLIPS, ("p",)))


def _check_kraus_size(n: int, rank: int) -> None:
    """Refuse, before it is allocated, a Kraus stack over the dense budgets."""
    # Past n = 32 the verdict no longer changes; the cap keeps the integers small.
    matrix = 16 * 4 ** min(n, 32)
    if matrix > MATRIX_MAX_BYTES or rank * matrix > KRAUS_MAX_BYTES:
        raise SizeLimitExceeded(
            f"{rank} Kraus operator(s) on {n} qubits exceed the dense budgets of "
            f"{MATRIX_MAX_BYTES} bytes per operator and {KRAUS_MAX_BYTES} bytes in all"
        )


def _check_prob(name: str, value: float, hi: float = 1.0) -> float:
    value = float(value)
    if not 0.0 <= value <= hi:
        raise ParamOutOfRange(f"{name} must be in [0, {hi}], got {value}")
    return value


def channel_zoo(name: str, n: int | None = None, **params) -> KrausChannel:
    """Construct a named channel.

    Names: identity(n), unitary (param ``gate`` from {x,y,z,h,s,t,cnot} or
    ``u`` an explicit matrix), bit_flip(p), phase_flip(p), bit_phase_flip(p),
    depolarizing(p), amplitude_damping(gamma). The flip and damping channels
    are single-qubit; build multi-qubit ones with ``tensor_channels``.
    ``n`` defaults to 1, or to the gate's qubit count for unitary. Unknown
    parameters, n != 1 for a single-qubit family, an n that differs from
    the gate's qubit count and a ``u`` that is not unitary to 1e-9 are
    refused, and a channel over the Kraus budgets raises SizeLimitExceeded.
    """
    if name not in _ZOO_PARAMS:
        raise UnknownChannel(f"unknown channel {name!r}; see zoo_descriptions()")
    unknown = set(params) - set(_ZOO_PARAMS[name])
    if unknown:
        raise UnknownChannel(f"channel {name!r} takes no parameter(s) {sorted(unknown)}")
    if name not in ("identity", "unitary") and n not in (None, 1):
        raise DimensionMismatch(f"{name} is a single-qubit channel, got n={n}; use tensor for more qubits")
    eye2 = np.eye(2, dtype=complex)
    if name == "identity":
        n = 1 if n is None else n
        _check_kraus_size(n, 1)
        return KrausChannel(n, [np.eye(2**n, dtype=complex)])
    if name == "unitary":
        if "u" in params:
            u = np.asarray(params["u"], dtype=complex)
        elif "gate" in params:
            gate = str(params["gate"]).lower()
            if gate not in _GATES:
                raise UnknownChannel(f"unknown gate {gate!r}; known: {sorted(_GATES)}")
            u = _GATES[gate]
        else:
            raise ParamOutOfRange("unitary channel needs a 'gate' name or matrix 'u'")
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 2:
            raise DimensionMismatch(f"u must be a square matrix of dimension >= 2, got shape {u.shape}")
        nq = int(np.log2(u.shape[0]))
        if 2**nq != u.shape[0]:
            raise DimensionMismatch(f"unitary dimension {u.shape[0]} is not a power of two")
        if n is not None and n != nq:
            raise DimensionMismatch(f"the unitary acts on {nq} qubit(s), got n={n}")
        _check_kraus_size(nq, 1)
        residual = unitarity_residual(u)
        if not residual <= 1e-9:  # written so that a NaN residual fails too
            raise ParamOutOfRange(f"u is not unitary: max |u†u - I| = {residual:.3e} exceeds 1e-9")
        return KrausChannel(nq, [u])
    if name in _FLIPS:
        p = _check_prob("p", params["p"])
        return KrausChannel(1, [np.sqrt(1 - p) * eye2, np.sqrt(p) * _GATES[_FLIPS[name]]])
    if name == "depolarizing":
        # Kraus weights stay nonnegative up to p = 4/3.
        p = _check_prob("p", params["p"], hi=4.0 / 3.0)
        return KrausChannel(
            1,
            [
                np.sqrt(1 - 3 * p / 4) * eye2,
                np.sqrt(p / 4) * _GATES["x"],
                np.sqrt(p / 4) * _GATES["y"],
                np.sqrt(p / 4) * _GATES["z"],
            ],
        )
    if name == "amplitude_damping":
        g = _check_prob("gamma", params["gamma"])
        k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
        return KrausChannel(1, [k0, k1])


def compose_channels(first: KrausChannel, then: KrausChannel) -> KrausChannel:
    """Sequential composition: apply `first`, then `then` (all pairwise products)."""
    if first.n != then.n:
        raise DimensionMismatch(f"cannot compose channels on {first.n} and {then.n} qubits")
    _check_kraus_size(first.n, len(first.kraus_ops) * len(then.kraus_ops))
    return KrausChannel(first.n, [b @ a for b in then.kraus_ops for a in first.kraus_ops])


def tensor_channels(*factors: KrausChannel) -> KrausChannel:
    """Per-register tensor product, the first factor on the leading qubits."""
    _check_kraus_size(sum(f.n for f in factors), math.prod(len(f.kraus_ops) for f in factors))
    out = factors[0]
    for f in factors[1:]:
        out = KrausChannel(out.n + f.n, [np.kron(ka, kb) for ka in out.kraus_ops for kb in f.kraus_ops])
    return out


def random_channel(n: int, kraus_rank: int, rng: np.random.Generator) -> KrausChannel:
    """A random CPTP channel from normalized Ginibre Kraus operators."""
    d = 2**n
    gs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(kraus_rank)]
    s = sum(g.conj().T @ g for g in gs)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.conj().T
    return KrausChannel(n, [g @ inv_sqrt for g in gs])


def zoo_descriptions() -> dict:
    """Name -> parameter description for every zoo channel."""
    return {
        "identity": "no parameters (any n)",
        "unitary": "gate: one of x,y,z,h,s,t,cnot — or u: explicit matrix",
        "bit_flip": "p in [0, 1]",
        "phase_flip": "p in [0, 1]",
        "bit_phase_flip": "p in [0, 1]",
        "depolarizing": "p in [0, 4/3]",
        "amplitude_damping": "gamma in [0, 1]",
        "tensor": "factors: list of channel specs",
        "compose": "first, then: channel specs",
    }


def zoo_catalog(n: int = 1) -> dict:
    """Canonical named instances used by tests and the CLI.

    n=1 covers every zoo family; n=2 gives representative products and a
    two-qubit unitary.
    """
    if n == 1:
        return {
            "identity": channel_zoo("identity"),
            "hadamard": channel_zoo("unitary", gate="h"),
            "bit_flip(0.3)": channel_zoo("bit_flip", p=0.3),
            "phase_flip(0.3)": channel_zoo("phase_flip", p=0.3),
            "bit_phase_flip(0.3)": channel_zoo("bit_phase_flip", p=0.3),
            "depolarizing(0.2)": channel_zoo("depolarizing", p=0.2),
            "amplitude_damping(0.3)": channel_zoo("amplitude_damping", gamma=0.3),
        }
    if n == 2:
        return {
            "identity": channel_zoo("identity", n=2),
            "cnot": channel_zoo("unitary", gate="cnot"),
            "bit_flip(0.2) ⊗ amplitude_damping(0.4)": tensor_channels(
                channel_zoo("bit_flip", p=0.2), channel_zoo("amplitude_damping", gamma=0.4)
            ),
            "depolarizing(0.5) ⊗ phase_flip(0.1)": tensor_channels(
                channel_zoo("depolarizing", p=0.5), channel_zoo("phase_flip", p=0.1)
            ),
        }
    raise ParamOutOfRange(f"catalog provided for n in {{1, 2}}, got {n}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def channel_from_json(spec) -> KrausChannel:
    """Build a channel from {"name", "params"} or {"kraus": [...]}.

    Combinators: {"name": "tensor", "params": {"factors": [spec, ...]}} and
    {"name": "compose", "params": {"first": spec, "then": spec}}. Explicit
    Kraus matrices are nested lists of [re, im] pairs.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise UnknownChannel(f"channel spec must be an object, got {spec!r}")
    if "kraus" in spec:
        ops = [matrix_from_pairs(k) for k in _nonempty_list(spec["kraus"], "kraus")]
        n = int(np.log2(ops[0].shape[0]))
        return KrausChannel(n, ops)
    name = spec.get("name")
    if name is None:
        raise UnknownChannel(f"channel spec needs 'name' or 'kraus': {spec!r}")
    params = dict(spec.get("params") or {})
    if name == "tensor":
        return tensor_channels(*(channel_from_json(f) for f in _nonempty_list(params["factors"], "factors")))
    if name == "compose":
        return compose_channels(channel_from_json(params["first"]), channel_from_json(params["then"]))
    n = params.pop("n", None)
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
        raise UnknownChannel(f"channel n must be an integer >= 1, got {n!r}")
    return channel_zoo(name, n=n, **params)


def channel_to_json(ch: KrausChannel) -> dict:
    """Serialize to the explicit {"kraus": ...} form ([re, im] pair matrices)."""
    return {"kraus": [_matrix_to_pairs(k) for k in ch.kraus_ops]}


def chi_csv_rows(chi: ChiMatrix) -> list:
    """Rows (m, n, label_m, label_n, re, im) for every chi entry."""
    d2 = 4**chi.n
    labels = pauli_labels(chi.n)
    rows = []
    for m in range(d2):
        for k in range(d2):
            v = chi.entries[m, k]
            rows.append((m, k, labels[m], labels[k], float(v.real), float(v.imag)))
    return rows


def _nonempty_list(value, key: str) -> list:
    if not isinstance(value, list) or not value:
        raise UnknownChannel(f"{key!r} must be a nonempty list, got {value!r}")
    return value


def matrix_from_pairs(rows) -> np.ndarray:
    """A complex matrix from rows of [re, im] number pairs, the form of every explicit matrix in a spec."""
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"explicit matrices must be rows of [re, im] number pairs: {exc}") from None


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]
