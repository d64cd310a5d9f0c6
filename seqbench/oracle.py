"""Independent checks of ``seqtomo run`` reports.

Each protocol's report is compared with a value the benchmark computes or
reads on a path of its own. The direct inner product of ``seqst-state`` and
the state rebuilt from ``standard-qst`` expectations use plain NumPy on the
op's generated inputs, never the package's circuit or Pauli code; seeded
state and basis specs are expanded by mirroring the CLI's documented
derivations.
"""

import json

import numpy as np

TOL = 1e-9

_SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
# Column b of each rotation is the single-qubit basis state for bit b.
_AXIS_ROTATION = {"X": _H, "Y": _S @ _H, "Z": np.eye(2, dtype=complex)}


def _complex(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def _stream(seed: int, path: int) -> np.random.Generator:
    """The generator the CLI derives for a seeded spec: Philox on (seed, path)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(path,))))


def haar_basis_unitary(seed: int, d: int) -> np.ndarray:
    """The unitary whose columns form the CLI's {"kind": "haar"} basis.

    Mirrors the documented derivation: stream path (9003,) of the basis seed,
    a Ginibre matrix and QR with the phases of R's diagonal divided out.
    """
    gen = _stream(seed, 9003)
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def state_matrix(spec: dict) -> np.ndarray:
    """rho of a generated state spec: "amplitudes" or "random_mixed".

    "random_mixed" mirrors the documented derivation: stream path (9002,) of
    the state seed, a full-rank D x D Ginibre matrix G and G G† / tr.
    """
    if spec["kind"] == "amplitudes":
        v = np.array([_complex(pair) for pair in spec["values"]])
        return np.outer(v, v.conj())
    if spec["kind"] == "random_mixed":
        d = 2 ** int(spec["n"])
        gen = _stream(int(spec["seed"]), 9002)
        g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        m = g @ g.conj().T
        return m / m.trace()
    raise ValueError(f"unknown state kind {spec['kind']!r}")


def basis_vector(spec: dict, n: int, a: int) -> np.ndarray:
    """|psi_a> of a basis spec, with qubit 0 the most significant bit of a."""
    d = 2**n
    kind = spec["kind"]
    if kind == "computational":
        v = np.zeros(d, dtype=complex)
        v[a] = 1.0
        return v
    if kind == "pauli":
        rot = _AXIS_ROTATION[spec["axis"]]
        v = np.ones(1, dtype=complex)
        for q in range(n):
            v = np.kron(v, rot[:, (a >> (n - 1 - q)) & 1])
        return v
    if kind == "haar":
        return haar_basis_unitary(int(spec["seed"]), d)[:, a]
    raise ValueError(f"unknown basis kind {kind!r}")


def state_from_expectations(n: int, expectations: list) -> np.ndarray:
    """rho = (1/D) sum_P <P> P from every n-qubit Pauli expectation, once each."""
    coeff = np.full((4,) * n, np.nan)
    for item in expectations:
        coeff[tuple("IXYZ".index(c) for c in item["label"])] = item["value"]
    if len(expectations) != 4**n or np.isnan(coeff).any():
        raise ValueError("expectations do not cover each Pauli label exactly once")
    t = coeff.astype(complex)
    # Each step consumes the leading qubit's letter axis and appends (row, col).
    for _ in range(n):
        t = np.tensordot(t, _SIGMA, axes=([0], [0]))
    order = [2 * q for q in range(n)] + [2 * q + 1 for q in range(n)]
    return t.transpose(order).reshape(2**n, 2**n) / 2**n


def _dev_seqst_qpt(op, res) -> float:
    return abs(_complex(res["circuit_exact"]) - _complex(res["exact"]))


def _dev_seqst_state(op, res) -> float:
    rho = state_matrix(op.state)
    direct = basis_vector(op.basis, op.n, op.a).conj() @ rho @ basis_vector(op.basis, op.n, op.b)
    return abs(_complex(res["exact"]) - direct)


def _dev_dcqd(op, res) -> float:
    if len(res["diagonal"]) != 4**op.n:
        return np.inf
    return float(res["oracle_diagonal_max_abs_diff"])


def _dev_aapt(op, res) -> float:
    if len(res["chi"]) != 4**op.n:
        return np.inf
    return float(res["oracle_max_abs_diff"])


def _dev_validate(op, res) -> float:
    # Every generated channel is CPTP, so all three predicates must hold.
    return 0.0 if res["all_valid"] is True else np.inf


def _dev_standard_qst(op, res) -> float:
    return float(np.max(np.abs(state_from_expectations(op.n, res["expectations"]) - state_matrix(op.state))))


_DEVIATION = {
    "seqst-qpt": _dev_seqst_qpt,
    "seqst-state": _dev_seqst_state,
    "dcqd-diag": _dev_dcqd,
    "aapt": _dev_aapt,
    "validate": _dev_validate,
    "standard-qst": _dev_standard_qst,
}


def check(op, code, stdout: str) -> str | None:
    """None if the op's run succeeded and its report passes the oracle, else why not."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
        res = report["results"]
        if report["protocol"] != op.protocol or res["n"] != op.n:
            return f"report is for {report['protocol']} n={res['n']}"
        dev = _DEVIATION[op.protocol](op, res)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"
    if not dev <= TOL:
        return f"oracle deviation {dev:.3e} > {TOL:g}"
    return None
