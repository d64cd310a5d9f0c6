"""Seeded operations for the seqtomo benchmark workloads.

An op is the argv of one ``seqtomo run`` plus the inputs the oracle needs
to check its report. Every config value, channel specs included, is drawn
from the workload seed; the program only ever sees the generated argv.

A workload is a fixed multiset of op shapes (protocol, n). One cycle runs
every shape of the multiset once, in a seeded order, with fresh seeded
parameters. Runs measure whole rounds of cycles (``round_cycles``), so every
run sees the same op mix whatever its seed and length.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

EPSILON = 0.05
DELTA = 0.05

# Shape multisets: (protocol, n) -> ops per cycle. The selective weights put
# its p50 among the seqst-state n=6 ops rather than in the gap between two
# clusters of similar ops, where run-to-run noise would move it most.
WORKLOADS = {
    # Every op runs the dense controlled-preparation circuit; the seqst-qpt
    # half also builds the Choi state. The state half bypasses `channels`.
    "selective": {
        ("seqst-qpt", 1): 1,
        ("seqst-qpt", 2): 1,
        ("seqst-qpt", 3): 10,
        ("seqst-state", 1): 1,
        ("seqst-state", 2): 1,
        ("seqst-state", 3): 2,
        ("seqst-state", 4): 2,
        ("seqst-state", 5): 2,
        ("seqst-state", 6): 4,
    },
    # Every op sweeps all 4**n Paulis and does almost no sampling.
    "full-basis": {
        ("dcqd-diag", 2): 2,
        ("dcqd-diag", 3): 2,
        ("validate", 2): 2,
        ("validate", 3): 2,
        ("validate", 4): 1,
        ("aapt", 1): 2,
        ("aapt", 2): 2,
        ("standard-qst", 3): 2,
        ("standard-qst", 4): 2,
        ("standard-qst", 5): 1,
        ("standard-qst", 6): 1,
    },
}

# Variant axes per protocol. The i-th op of a shape takes entry i % len of
# each axis, so a run's mix of variants depends on its length, not its seed;
# the lcm of a protocol's axis lengths (at most 8) ops cover all combinations.
# Channels are half explicit Ginibre Kraus channels of rank 1-4, half zoo
# tensor products without or with one depolarizing factor.
_CHANNELS = ["kraus1", "zoo-flip", "kraus2", "zoo-depol", "kraus3", "zoo-flip", "kraus4", "zoo-depol"]
_STATES = ["mixed", "pure"]
_BASES = ["computational", "pauli", "haar"]
VARIANT_AXES = {
    "seqst-qpt": [_CHANNELS],
    "dcqd-diag": [_CHANNELS],
    "validate": [_CHANNELS],
    "aapt": [_CHANNELS],
    "standard-qst": [_STATES],
    "seqst-state": [_STATES, _BASES],
}

_FLIP_FACTORS = ("bit_flip", "phase_flip", "bit_phase_flip", "amplitude_damping")


@dataclass
class Op:
    """One ``seqtomo run``: its argv and the inputs its oracle needs."""

    protocol: str
    n: int
    argv: list
    a: int | None = None
    b: int | None = None
    state: dict | None = None  # state spec of the state protocols
    basis: dict | None = None  # basis spec of seqst-state


def _pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def ginibre_channel(n: int, rank: int, rng: np.random.Generator) -> list:
    """Kraus operators G_k S^(-1/2) with S = sum_k G_k† G_k, G_k Ginibre."""
    d = 2**n
    gs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(rank)]
    vals, vecs = np.linalg.eigh(sum(g.conj().T @ g for g in gs))
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [g @ inv_sqrt for g in gs]


def channel_spec(n: int, variant: str, rng: np.random.Generator) -> dict:
    """A Ginibre channel ("kraus<rank>") or a zoo product ("zoo-flip", "zoo-depol")."""
    if variant.startswith("kraus"):
        ops = ginibre_channel(n, int(variant[len("kraus") :]), rng)
        return {"kraus": [_pairs(k) for k in ops]}
    names = [_FLIP_FACTORS[i] for i in rng.integers(len(_FLIP_FACTORS), size=n)]
    if variant == "zoo-depol":
        names[int(rng.integers(n))] = "depolarizing"
    factors = [
        {"name": name, "params": {"gamma" if name == "amplitude_damping" else "p": float(rng.uniform(0.0, 1.0))}}
        for name in names
    ]
    return {"name": "tensor", "params": {"factors": factors}}


def state_spec(n: int, kind: str, rng: np.random.Generator) -> dict:
    """A seeded "random_mixed" state or a "pure" state given by its amplitudes."""
    if kind == "mixed":
        return {"kind": "random_mixed", "n": n, "seed": int(rng.integers(2**32))}
    d = 2**n
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return {"kind": "amplitudes", "values": [[float(z.real), float(z.imag)] for z in v]}


def basis_spec(kind: str, rng: np.random.Generator) -> dict:
    if kind == "pauli":
        return {"kind": "pauli", "axis": "XYZ"[int(rng.integers(3))]}
    if kind == "haar":
        return {"kind": "haar", "seed": int(rng.integers(2**32))}
    return {"kind": "computational"}


def variant_at(protocol: str, i: int) -> tuple:
    """The i-th variant of a shape's rotation."""
    return tuple(axis[i % len(axis)] for axis in VARIANT_AXES[protocol])


def make_op(protocol: str, n: int, variant: tuple, rng: np.random.Generator) -> Op:
    """Draw one op of the given shape and variant (see VARIANT_AXES)."""
    seed = int(rng.integers(2**32))
    argv = ["run", "--protocol", protocol, "--epsilon", str(EPSILON), "--delta", str(DELTA)]
    argv += ["--seed", str(seed), "--workers", "1"]
    op = Op(protocol, n, argv)
    if protocol in ("seqst-state", "standard-qst"):
        op.state = state_spec(n, variant[0], rng)
        argv += ["--state", json.dumps(op.state)]
        if protocol == "seqst-state":
            op.basis = basis_spec(variant[1], rng)
            op.a, op.b = (int(v) for v in rng.integers(0, 2**n, size=2))
            argv += ["--basis", json.dumps(op.basis), "--a", str(op.a), "--b", str(op.b)]
        return op
    argv += ["--channel", json.dumps(channel_spec(n, variant[0], rng))]
    if protocol == "seqst-qpt":
        op.a, op.b = (int(v) for v in rng.integers(0, 4**n, size=2))
        argv += ["--a", str(op.a), "--b", str(op.b)]
    elif protocol == "dcqd-diag":
        argv += ["--target", "all-diagonal"]
    elif protocol == "aapt":
        argv += ["--target", "all"]
    return op


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    salt = sum(ord(c) << (8 * i) for i, c in enumerate(workload)) % 2**32
    return np.random.default_rng([salt, seed, stream])


def shapes(workload: str) -> list:
    """The distinct (protocol, n) shapes of a workload, in a fixed order."""
    return sorted(WORKLOADS[workload])


def round_cycles(workload: str) -> int:
    """Cycles after which every shape has gone through whole rotations of its
    variants; runs end on these boundaries, so their mix of costly and cheap
    variants does not depend on where the clock ran out."""
    k = 1
    for (protocol, _), w in WORKLOADS[workload].items():
        period = math.lcm(*(len(axis) for axis in VARIANT_AXES[protocol]))
        k = math.lcm(k, period // math.gcd(period, w))
    return k


def cycle(workload: str, seed: int, index: int) -> list:
    """Cycle `index` of a workload: every shape of its multiset, shuffled.

    The j-th op of a shape with weight w takes variant index * w + j, so
    consecutive cycles go through all variants evenly.
    """
    rng = _rng(workload, seed, index + 1)
    slots = []
    for protocol, n in shapes(workload):
        w = WORKLOADS[workload][(protocol, n)]
        slots += [(protocol, n, variant_at(protocol, index * w + j)) for j in range(w)]
    return [make_op(*slots[i], rng) for i in rng.permutation(len(slots))]


def warmup_ops(workload: str, seed: int) -> list:
    """One op of each distinct shape, for the untimed set-up pass."""
    rng = _rng(workload, seed, 0)
    return [make_op(p, n, variant_at(p, 0), rng) for p, n in shapes(workload)]
