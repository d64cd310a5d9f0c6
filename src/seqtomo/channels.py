"""Quantum channels in Kraus and process-matrix (chi) form.

A channel acts as E(rho) = sum_k K_k rho K_k†, or equivalently as
E(rho) = sum_mn chi_mn P_m rho P_n† over the n-qubit Pauli basis {P_m}.
The chi matrix of a physical channel is Hermitian (hermiticity
preservation), satisfies sum_mn chi_mn P_n† P_m = I (trace preservation),
and is positive semidefinite (complete positivity); ``validate_channel``
reports all three predicates with their numerical residuals and does
not throw on a malformed matrix, so it can be diagnosed.

A channel is one read-only (r, D, D) Kraus stack, built once and read as
it is. Sizes follow the one policy of ``core.check_size``: a Kraus stack is
rank dense D×D operators, a chi matrix 4**n of them, and each route states
its peak in these units beside it. Building a channel over the budgets, or
running a route whose peak would exceed them, raises SizeLimitExceeded
before anything is allocated.

Only trace-preserving, dimension-preserving qubit channels are in scope.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import GATES, check_size, unitarity_residual
from .errors import ConfigError, DimensionMismatch, ParamOutOfRange, UnknownChannel
from .pauli import pauli_coefficient, pauli_coefficients, pauli_combination

# Peak working sets, checked by ``core.check_size`` with one operator more
# for index arrays; tests/test_qpt.py checks each bound. ``chi_diagonal``
# holds DIAGONAL_STACKS Kraus stacks (tracemalloc: 2.5 to 3.1, n = 5..9,
# rank 1..16). ``kraus_to_chi`` holds CHI_COPIES chi matrices, as ChiMatrix
# copies its input, besides the coefficients' stacks (2.0, n = 4..5).
# ``validate_channel`` holds VALIDITY_CHIS, the chi it is given included,
# and two operators more, for its index tables and D×D trace (4.0 chi and
# 1.6 to 2.1 operators, n = 4..5): so n <= 5.
DIAGONAL_STACKS = 3
CHI_COPIES = 2
VALIDITY_CHIS = 4

# Tolerance of the ``validate_channel`` predicates and of the dual-state
# trace check in ``qpt``, so both call the same channels trace-preserving.
VALIDITY_ATOL = 1e-9


class KrausChannel:
    """A channel given by Kraus operators on n qubits, held as one read-only (r, D, D) stack.

    A complex ndarray stack is adopted without a copy and made read-only; a
    sequence of D×D matrices is stacked. Construction checks shapes only;
    trace preservation is a property (``completeness_residual``) so that
    deliberately corrupted channels can still be represented and diagnosed.
    """

    def __init__(self, n: int, kraus_ops):
        if n < 1:
            raise DimensionMismatch("need at least one qubit")
        d = 2**n
        shapes = {np.shape(k) for k in kraus_ops}
        if shapes != {(d, d)}:
            raise DimensionMismatch(f"need Kraus operators of shape ({d}, {d}), got shapes {sorted(shapes)}")
        self.n = n
        self.kraus_ops = np.asarray(kraus_ops, dtype=complex)
        self.kraus_ops.setflags(write=False)

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


def kraus_to_chi(ch: KrausChannel) -> ChiMatrix:
    """Expand each Kraus operator over the Pauli basis and form chi.

    K_k = sum_m c_km P_m with c_km = Tr(P_m† K_k) / D, and
    chi_mn = sum_k c_km conj(c_kn). Over its byte estimate (n >= 7),
    SizeLimitExceeded.
    """
    check_size("a chi matrix", ch.n, CHI_COPIES * 4**ch.n + DIAGONAL_STACKS * len(ch.kraus_ops) + 1)
    # c[k, m] = Tr(P_m K_k) / D  (Pauli matrices are Hermitian)
    c = pauli_coefficients(ch.kraus_ops) / ch.dim
    chi = np.einsum("km,kn->mn", c, c.conj())
    return ChiMatrix(ch.n, chi)


def chi_block(ch: KrausChannel, a: int, b: int) -> tuple:
    """(chi_aa, chi_bb, chi_ab) from c_km = Tr(P_m K_k) / D, gathered as D entries of each Kraus operator."""
    ca, cb = (pauli_coefficient(ch.kraus_ops, (a, b)) / ch.dim).T
    return np.vdot(ca, ca).real, np.vdot(cb, cb).real, np.vdot(cb, ca)


def chi_diagonal(ch: KrausChannel) -> np.ndarray:
    """chi_mm = sum_k |c_km|² over every m, in r * 4**n memory; over its byte estimate, SizeLimitExceeded.

    One ``pauli_coefficients`` call on the Kraus stack: DIAGONAL_STACKS bounds its peak.
    """
    check_size("the chi diagonal", ch.n, DIAGONAL_STACKS * len(ch.kraus_ops) + 1)
    c = pauli_coefficients(ch.kraus_ops) / ch.dim
    return np.sum(c.real**2 + c.imag**2, axis=0)


def validate_channel(chi: ChiMatrix) -> ValidityReport:
    """Report hermiticity, trace preservation and complete positivity.

    Positivity is assessed on the Hermitian part (chi + chi†)/2, so a purely
    anti-Hermitian defect shows up only in the hermiticity predicate. Over
    its byte estimate (n >= 6), SizeLimitExceeded.
    """
    check_size("the validity check", chi.n, VALIDITY_CHIS * 4**chi.n + 2)
    m = chi.entries
    herm_res = float(np.max(np.abs(m - m.conj().T)))
    # With L_a = sum_b chi_ab P_b (pauli_combination(m)), the b = b' trace of
    # [r, b, b', c] = sum_a L_a[r, b] P_a[b', c] is sum_ab chi_ab P_b† P_a.
    tp = np.einsum("rbbc->rc", pauli_combination(np.moveaxis(pauli_combination(m), 0, -1)))
    tp_res = float(np.max(np.abs(tp - np.eye(chi.dim))))
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
    return ValidityReport(
        hermitian=herm_res <= VALIDITY_ATOL,
        hermitian_residual=herm_res,
        trace_preserving=tp_res <= VALIDITY_ATOL,
        tp_residual=tp_res,
        completely_positive=min_eig >= -VALIDITY_ATOL,
        min_eigenvalue=min_eig,
    )


# ---------------------------------------------------------------------------
# Named channels
# ---------------------------------------------------------------------------

# The Pauli each flip channel applies with probability p.
_FLIPS = {"bit_flip": "x", "phase_flip": "z", "bit_phase_flip": "y"}
# Parameters each zoo family takes; all but identity and unitary act on one qubit.
_ZOO_PARAMS = {"identity": (), "unitary": ("gate", "u"), "depolarizing": ("p",), "amplitude_damping": ("gamma",)}
_ZOO_PARAMS.update(dict.fromkeys(_FLIPS, ("p",)))


def _check_prob(name: str, value: float, hi: float = 1.0) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= hi:
        raise ParamOutOfRange(f"{name} must be a number in [0, {hi}], got {value!r}")
    return float(value)


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
        check_size("a Kraus stack", n, 1)
        return KrausChannel(n, np.eye(2**n, dtype=complex)[None])
    if name == "unitary":
        if "u" in params:
            try:
                u = np.asarray(params["u"], dtype=complex)
            except (TypeError, ValueError):
                raise ParamOutOfRange(f"u must be a square matrix of numbers, got {params['u']!r}") from None
        elif "gate" in params:
            gate = str(params["gate"]).lower()
            if gate not in GATES:
                raise UnknownChannel(f"unknown gate {gate!r}; known: {sorted(GATES)}")
            u = GATES[gate]
        else:
            raise ParamOutOfRange("unitary channel needs a 'gate' name or matrix 'u'")
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 2:
            raise DimensionMismatch(f"u must be a square matrix of dimension >= 2, got shape {u.shape}")
        nq = int(np.log2(u.shape[0]))
        if 2**nq != u.shape[0]:
            raise DimensionMismatch(f"unitary dimension {u.shape[0]} is not a power of two")
        if n is not None and n != nq:
            raise DimensionMismatch(f"the unitary acts on {nq} qubit(s), got n={n}")
        check_size("a Kraus stack", nq, 1)
        residual = unitarity_residual(u)
        if not residual <= 1e-9:  # written so that a NaN residual fails too
            raise ParamOutOfRange(f"u is not unitary: max |u†u - I| = {residual:.3e} exceeds 1e-9")
        return KrausChannel(nq, [u])
    if name in _FLIPS:
        p = _check_prob("p", params.get("p"))
        return KrausChannel(1, [np.sqrt(1 - p) * eye2, np.sqrt(p) * GATES[_FLIPS[name]]])
    if name == "depolarizing":
        # Kraus weights stay nonnegative up to p = 4/3.
        p = _check_prob("p", params.get("p"), hi=4.0 / 3.0)
        return KrausChannel(1, [np.sqrt(1 - 3 * p / 4) * eye2] + [np.sqrt(p / 4) * GATES[g] for g in "xyz"])
    if name == "amplitude_damping":
        g = _check_prob("gamma", params.get("gamma"))
        k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
        return KrausChannel(1, [k0, k1])


def compose_channels(first: KrausChannel, then: KrausChannel) -> KrausChannel:
    """Sequential composition: apply `first`, then `then` (all pairwise products)."""
    if first.n != then.n:
        raise DimensionMismatch(f"cannot compose channels on {first.n} and {then.n} qubits")
    check_size("a Kraus stack", first.n, len(first.kraus_ops) * len(then.kraus_ops))
    # Entry (k, l) is then_k @ first_l, as the pairwise products in that order.
    stack = then.kraus_ops[:, None] @ first.kraus_ops
    return KrausChannel(first.n, stack.reshape(-1, first.dim, first.dim))


def tensor_channels(*factors: KrausChannel) -> KrausChannel:
    """Per-register tensor product, the first factor on the leading qubits."""
    check_size("a Kraus stack", sum(f.n for f in factors), math.prod(len(f.kraus_ops) for f in factors))
    out = factors[0]
    for f in factors[1:]:
        # Entry (k, l) is kron(out_k, f_l), written once into the stack the channel adopts.
        stack = np.einsum("kij,lpq->klipjq", out.kraus_ops, f.kraus_ops, order="C")
        out = KrausChannel(out.n + f.n, stack.reshape(-1, out.dim * f.dim, out.dim * f.dim))
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
    """Canonical named instances that the tests and the acceptance suite sweep.

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
    """Build a channel from {"name", "params"} or {"kraus": [...]}, refusing any other key.

    Combinators: {"name": "tensor", "params": {"factors": [spec, ...]}} and
    {"name": "compose", "params": {"first": spec, "then": spec}}. Explicit
    Kraus matrices are nested lists of [re, im] pairs.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise UnknownChannel(f"channel spec must be an object, got {spec!r}")
    unknown = set(spec) - ({"kraus"} if "kraus" in spec else {"name", "params"})
    if unknown:
        raise UnknownChannel(f"channel spec takes no key(s) {sorted(unknown)}")
    if "kraus" in spec:
        ops = [matrix_from_pairs(k) for k in _nonempty_list(spec["kraus"], "kraus")]
        if len(ops[0]) < 2 or len(ops[0]) & (len(ops[0]) - 1):
            raise DimensionMismatch(f"Kraus operator dimension {len(ops[0])} is not 2^n for any n >= 1")
        return KrausChannel(len(ops[0]).bit_length() - 1, ops)
    name, params = spec.get("name"), spec.get("params", {})
    if not isinstance(name, str):
        raise UnknownChannel(f"channel spec needs a 'name' string or 'kraus': {spec!r}")
    if not isinstance(params, dict):
        raise UnknownChannel(f"channel params must be an object, got {params!r}")
    params = dict(params)
    if name in ("tensor", "compose"):
        keys = {"factors"} if name == "tensor" else {"first", "then"}
        unknown, missing = sorted(set(params) - keys), sorted(keys - set(params))
        if unknown or missing:
            fault = f"takes no parameter(s) {unknown}" if unknown else f"needs the parameter(s) {missing}"
            raise UnknownChannel(f"channel {name!r} {fault}")
    if name == "tensor":
        return tensor_channels(*(channel_from_json(f) for f in _nonempty_list(params["factors"], "factors")))
    if name == "compose":
        return compose_channels(channel_from_json(params["first"]), channel_from_json(params["then"]))
    n = params.pop("n", None)
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
        raise UnknownChannel(f"channel n must be an integer >= 1, got {n!r}")
    return channel_zoo(name, n=n, **params)


def _nonempty_list(value, key: str) -> list:
    if not isinstance(value, list) or not value:
        raise UnknownChannel(f"{key!r} must be a nonempty list, got {value!r}")
    return value


def matrix_from_pairs(rows) -> np.ndarray:
    """A complex matrix from rows of [re, im] number pairs, the form of every explicit matrix in a spec."""
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"explicit matrices must be rows of [re, im] number pairs: {exc}") from None
    if not np.isfinite(m).all():
        raise ConfigError("explicit matrices must have finite entries")
    return m

