"""Config-driven experiment runner.

Every protocol is a subcommand target; each run writes a machine-readable
report carrying the estimates, the exact oracle values recomputed in the
same run, absolute errors, shot counts, wall-clock timing, the fully
resolved configuration and the library version. Runs are deterministic for
a fixed config and seed (only the timing field varies).

Subcommands:
    run       execute one experiment from a config file and/or flags
    sweep     repeat an experiment along one numeric config axis, emit CSV
    validate  shorthand for run --protocol validate
    zoo list  print the named channels and their parameters

Exit codes: 0 success, 2 invalid configuration, 3 size-limit refusal.
"""

import argparse
import csv
import functools
import io
import json
import sys
import time
import typing
from dataclasses import dataclass, fields
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import __version__
from .channels import channel_from_json, kraus_to_chi, matrix_from_pairs, validate_channel, zoo_descriptions
from .channels import VALIDITY_CHIS, chi_block, chi_diagonal
from .core import DensityMatrix, check_size, haar_random_state, maximally_entangled_state, random_density_matrix
from .errors import ConfigError, DimensionMismatch, SeqtomoError, SizeLimitExceeded
from .estimation import RandomStream, ShotPlan, chernoff_plan
from .pauli import pauli_labels, pauli_word
from .qpt import (
    aapt_full_chi,
    dcqd_distribution,
    dcqd_sample_rows,
    seqpt_estimate,
    seqpt_exact_average,
    seqst_qpt_exact,
    seqst_qpt_sample,
)
from .seqst import Estimate, PreparationBasis, seqst_exact, seqst_sample, standard_pauli_qst

# The spec and index fields each protocol reads. epsilon, delta, seed,
# workers, out and format are run-wide; target is checked on its own.
_READS = {
    "seqst-state": ("state", "basis", "a", "b"),
    "standard-qst": ("state",),
    "aapt": ("channel",),
    "dcqd-diag": ("channel", "a"),
    "seqst-qpt": ("channel", "a", "b"),
    "seqpt": ("channel", "a", "b", "n_states"),
    "validate": ("channel",),
}
PROTOCOLS = tuple(_READS)


@dataclass
class ExperimentConfig:
    protocol: str = ""
    channel: dict | None = None
    state: dict | None = None
    basis: dict | None = None
    a: int | None = None
    b: int | None = None
    target: str | None = None  # None (single pair/index), "all-diagonal" or "all"
    epsilon: float = 0.1
    delta: float = 0.05
    n_states: int | None = None
    seed: int = 0
    workers: int = 1
    out: str | None = None
    format: str = "json"

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a JSON object whose fields each hold their annotated type (an int is a float)."""
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key, value in data.items():
            allowed = typing.get_args(types[key]) or (types[key],)
            if float in allowed:
                allowed += (int,)
            if isinstance(value, bool) or not isinstance(value, allowed):
                want = getattr(types[key], "__name__", types[key])
                raise ConfigError(f"config field {key!r} must be {want}, got {value!r}")
        return cls(**data)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

# The keys each state kind takes besides "kind".
_STATE_KEYS = dict.fromkeys(("zero", "plus", "ghz", "maximally_mixed", "entangled"), ("n",))
_STATE_KEYS.update(haar=("n", "seed"), random_mixed=("n", "seed"), amplitudes=("values",), matrix=("values",))
_BASIS_KEYS = {"computational": (), "pauli": ("axis",), "haar": ("seed",)}


def _spec_int(spec: dict, key: str, default: int, lo: int, what: str) -> int:
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < lo:
        raise ConfigError(f"{what} {key} must be an integer >= {lo}, got {value!r}")
    return value


def _spec_kind(spec, allowed: dict, what: str) -> str:
    """The spec's kind, after refusing a spec that is no object, an unknown kind or a key the kind does not take."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in allowed:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    unknown = set(spec) - {"kind", *allowed[kind]}
    if unknown:
        raise ConfigError(f"{what} kind {kind!r} takes no key(s) {sorted(unknown)}")
    return kind


def _state_qubits(spec) -> int:
    """The qubits of the state a spec describes, read before anything is built.

    That is n, 2n for entangled(n), which spans two registers, or for
    explicit values the qubits of their length of entries or rows. A spec of
    an unknown kind, with a key its kind does not take or with a bad n
    raises ConfigError, and explicit values whose length is not 2**n for an
    n >= 1 raise DimensionMismatch.
    """
    kind = _spec_kind(spec, _STATE_KEYS, "state")
    if kind in ("amplitudes", "matrix"):
        values = spec.get("values")
        size = len(values) if isinstance(values, list) else 2  # matrix_from_pairs refuses a non-list
        if size < 2 or size & (size - 1):
            raise DimensionMismatch(f"state dimension {size} is not 2^n for any n >= 1")
        return size.bit_length() - 1
    n = _spec_int(spec, "n", 1, 1, "state")
    return 2 * n if kind == "entangled" else n


def build_state(spec: dict) -> DensityMatrix:
    """Build the input state from a config spec.

    Kinds: zero(n), plus(n), ghz(n), maximally_mixed(n), entangled(n),
    haar(n, seed), random_mixed(n, seed), amplitudes(values),
    matrix(values) — explicit values use [re, im] pairs. n defaults to 1
    and seed to 0; a key the kind does not take is refused. Each state is
    held as its factor, one column for a pure kind; a factor over the
    budgets of ``core.check_size`` (``_state_qubits``), 2**n × 1 or
    2**n × 2**n for the mixed kinds, raises SizeLimitExceeded.
    """
    n, kind = _state_qubits(spec), spec["kind"]
    rank = 2**n if kind in ("maximally_mixed", "random_mixed", "matrix") else 1
    check_size(f"the factor of a rank-{rank} state", n, 1, columns=rank)
    d = 2 ** spec.get("n", 1)
    if kind in ("zero", "plus", "ghz"):
        ones = {"zero": [0], "plus": slice(None), "ghz": [0, -1]}[kind]
        v = np.zeros(d)
        v[ones] = 1.0 / np.sqrt(v[ones].size)
        return DensityMatrix.from_factor(v)
    if kind == "maximally_mixed":
        return DensityMatrix.from_factor(np.eye(d) / np.sqrt(d))
    if kind == "entangled":
        return maximally_entangled_state(spec.get("n", 1))
    if kind in ("haar", "random_mixed"):
        gen = RandomStream(_spec_int(spec, "seed", 0, 0, "state"), (9001 if kind == "haar" else 9002,)).generator()
        return (haar_random_state if kind == "haar" else random_density_matrix)(d, gen)
    if kind == "amplitudes":
        # A vector of pairs is the one row of a matrix of pairs.
        return DensityMatrix.from_factor(matrix_from_pairs([spec.get("values")])[0])
    return DensityMatrix(matrix_from_pairs(spec.get("values")))


def build_basis(spec: dict | None, n: int) -> PreparationBasis:
    """Build the preparation basis; defaults to the computational basis.

    Kinds: computational, pauli(axis), haar(seed). axis is a string naming
    X, Y or Z (default X) and seed an integer >= 0 (default 0); a key the
    kind does not take is refused. A haar basis holds its W as one D×D
    operator, so past the budgets of ``core.check_size`` it raises
    SizeLimitExceeded before W is drawn.
    """
    kind = "computational" if spec is None else _spec_kind(spec, _BASIS_KEYS, "basis")
    if kind == "haar":
        check_size("a haar basis", n, 1)
    if kind == "computational":
        return PreparationBasis.computational(n)
    if kind == "pauli":
        axis = spec.get("axis", "X")
        if not isinstance(axis, str):
            raise ConfigError(f"basis axis must be a string, got {axis!r}")
        return PreparationBasis.pauli_eigenbasis(n, axis)
    gen = RandomStream(_spec_int(spec, "seed", 0, 0, "basis"), (9003,)).generator()
    return PreparationBasis.random_unitary_columns(n, gen)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _validate_indices(cfg: ExperimentConfig, size: int, what: str) -> None:
    if cfg.target == "all-diagonal":
        return
    _require(cfg.a is not None, f"protocol {cfg.protocol} needs index a (or target=all-diagonal)")
    _require(0 <= cfg.a < size, f"index a={cfg.a} outside [0, {size}) for {what}")
    if "b" in _READS[cfg.protocol]:
        _require(cfg.b is not None, f"protocol {cfg.protocol} needs index b")
        _require(0 <= cfg.b < size, f"index b={cfg.b} outside [0, {size}) for {what}")


# ---------------------------------------------------------------------------
# Protocol execution
# ---------------------------------------------------------------------------


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _plan_json(plan: ShotPlan, seed: int) -> dict:
    return {"epsilon": plan.epsilon, "delta": plan.delta, "m": plan.m, "seed": seed}


def _estimate_json(est: Estimate, **fields) -> dict:
    """A report's ``estimate`` block: the sampled value and its standard errors, beside ``fields``."""
    return {"re": est.value.real, "im": est.value.imag, "se_re": est.se_re, "se_im": est.se_im, **fields}


def execute(cfg: ExperimentConfig) -> dict:
    """Run one experiment and return the results payload."""
    _require(cfg.protocol in PROTOCOLS, f"protocol must be one of {PROTOCOLS}, got {cfg.protocol!r}")
    _require(cfg.format in ("json", "csv"), f"format must be json or csv, got {cfg.format!r}")
    _require(cfg.workers >= 1, f"workers must be >= 1, got {cfg.workers}")
    plan = chernoff_plan(cfg.epsilon, cfg.delta)
    if cfg.target == "all":
        _require(cfg.protocol == "aapt", "target=all applies to aapt only")
    elif cfg.target == "all-diagonal":
        _require(cfg.protocol == "dcqd-diag", "target=all-diagonal applies to dcqd-diag only")
        _require(cfg.a is None, "target=all-diagonal reads no index a")
    else:
        _require(cfg.target is None, f"target must be all, all-diagonal or omitted, got {cfg.target!r}")
    reads = _READS[cfg.protocol]
    given = [key for key in ("channel", "state", "basis", "a", "b", "n_states") if getattr(cfg, key) is not None]
    unread = [key for key in given if key not in reads]
    _require(not unread, f"protocol {cfg.protocol} reads no {', '.join(unread)}")
    stream = RandomStream(cfg.seed)

    if "channel" in reads:
        _require(cfg.channel is not None, f"protocol {cfg.protocol} needs a channel spec")
        ch = channel_from_json(cfg.channel)
    else:
        _require(cfg.state is not None, f"protocol {cfg.protocol} needs a state spec")
        if cfg.protocol == "standard-qst":
            n = _state_qubits(cfg.state)
            check_size("the standard-qst report", n, rows=4**n)
        rho = build_state(cfg.state)

    if cfg.protocol == "validate":
        # validate_channel's own estimate, checked before kraus_to_chi builds the chi it judges.
        check_size("the validity check", ch.n, VALIDITY_CHIS * 4**ch.n + 2)
        report = validate_channel(kraus_to_chi(ch))
        return {"n": ch.n, "validity": report.to_json(), "all_valid": report.all_valid}

    if cfg.protocol == "standard-qst":
        pairs = standard_pauli_qst(rho)
        return {
            "n": int(np.log2(rho.dim)),
            "expectations": [{"label": word, "value": val} for word, val in pairs],
        }

    if cfg.protocol == "seqst-state":
        n = int(np.log2(rho.dim))
        basis = build_basis(cfg.basis, n)
        _validate_indices(cfg, basis.dim, "the state basis")
        est = seqst_sample(rho, basis, cfg.a, cfg.b, plan, stream, cfg.workers)
        exact = seqst_exact(rho, basis, cfg.a, cfg.b)
        tallies = dict(zip("xy", map(list, est.tallies)))
        return {
            "n": n,
            "basis": basis.name,
            "estimate": _estimate_json(est, a=cfg.a, b=cfg.b, m_shots=plan.m, tallies=tallies, seed=cfg.seed),
            "exact": _pair(exact),
            "abs_error": abs(est.value - exact),
            "plan": _plan_json(plan, cfg.seed),
        }

    if cfg.protocol == "aapt":
        check_size("the aapt report", ch.n, rows=16**ch.n)
        chi = aapt_full_chi(ch)
        oracle = kraus_to_chi(ch)
        return {
            "n": ch.n,
            "chi": np.stack((chi.entries.real, chi.entries.imag), axis=-1).tolist(),
            "oracle_max_abs_diff": float(np.max(np.abs(chi.entries - oracle.entries))),
        }

    if cfg.protocol == "dcqd-diag":
        _validate_indices(cfg, 4**ch.n, "the Pauli basis")
        ks = range(4**ch.n) if cfg.target else [cfg.a]  # target is all-diagonal or None here
        check_size("the dcqd-diag report", ch.n, rows=len(ks))
        # The oracle first: its byte estimate is the larger, so a refusal comes before any work.
        oracle = chi_diagonal(ch)
        probs = dcqd_distribution(ch)
        # The distribution the rows are drawn from; each exact chi_kk is reported clamped at 1.
        diagonal = np.minimum(probs, 1.0)
        labels = pauli_labels(ch.n) if cfg.target else {cfg.a: pauli_word(ch.n, cfg.a)}
        payload = []
        for k, freq, err in dcqd_sample_rows(probs, ks, plan, stream, cfg.workers):
            exact = float(diagonal[k])
            payload.append(
                {
                    "k": k,
                    "label": labels[k],
                    "exact": exact,
                    "frequency": freq,
                    "stderr": err,
                    "abs_error": abs(freq - exact),
                }
            )
        return {
            "n": ch.n,
            "oracle_diagonal_max_abs_diff": float(np.max(np.abs(diagonal - oracle))),
            "plan": _plan_json(plan, cfg.seed),
            "diagonal": payload,
        }

    _validate_indices(cfg, 4**ch.n, "the Pauli basis")
    if cfg.protocol == "seqst-qpt":
        results = {"circuit_exact": _pair(seqst_qpt_exact(ch, cfg.a, cfg.b))}
        est = seqst_qpt_sample(ch, cfg.a, cfg.b, plan, stream, workers=cfg.workers)
    else:
        _require(cfg.n_states is not None and cfg.n_states >= 1, "protocol seqpt needs n_states >= 1")
        # The estimate first: its size check refuses a Kraus stack before the oracle's r products run.
        est = seqpt_estimate(ch, cfg.a, cfg.b, cfg.n_states, plan, stream, cfg.workers)
        avg_x, avg_y = seqpt_exact_average(ch, cfg.a, cfg.b)
        results = {"exact_average": {"x": avg_x, "y": avg_y}}
    exact = chi_block(ch, cfg.a, cfg.b)[2]
    a, b = pauli_word(ch.n, cfg.a), pauli_word(ch.n, cfg.b)
    shots = 2 * (cfg.n_states or 1) * plan.m  # m runs per axis of each input state
    return results | {
        "n": ch.n,
        "estimate": _estimate_json(est, protocol=cfg.protocol.upper(), a=a, b=b, shots=shots, seed=cfg.seed),
        "exact": _pair(exact),
        "abs_error": abs(est.value - exact),
        "plan": _plan_json(plan, cfg.seed),
    }


def run_report(cfg: ExperimentConfig) -> dict:
    """Execute and wrap results with the resolved config, version and timing."""
    start = time.perf_counter()
    results = execute(cfg)
    elapsed = time.perf_counter() - start
    return {
        "version": __version__,
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "protocol": cfg.protocol,
        "results": results,
        "timing_seconds": elapsed,
    }


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


# json's spelling of the scalars of each exact type; floats then respell NaN and ±inf.
_SCALARS = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii}
_SCALARS.update(dict.fromkeys((bool, type(None)), {True: "true", False: "false", None: "null"}.__getitem__))
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@functools.lru_cache(maxsize=256)
def _template(level: int, keys) -> str:
    """The ``%`` template of a list of ``keys`` items or of a dict with these sorted str keys."""
    inner = "\n" + "  " * (level + 1)
    if type(keys) is int:
        return "[" + inner + ("," + inner).join(["%s"] * keys) + "\n" + "  " * level + "]"
    items = (encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + inner + ("," + inner).join(items) + "\n" + "  " * level + "}"


def _json_values(values: list, level: int) -> list:
    """``json.dumps(v, indent=2, sort_keys=True)`` of each value, nested ``level`` deep.

    Siblings are rendered together: scalars of one exact type in one C-level
    map; same-length lists flattened, rendered as one batch and regrouped by
    a ``%`` template; dicts with the same str keys one sorted key column at a
    time. Anything else goes through json one value at a time; as strings
    hold no raw newline, json's output is indented by prefixing its newlines.
    """
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _SCALARS:
        out = list(map(_SCALARS[kind], values))
        return list(map(_FLOAT_WORDS.get, out, out)) if kind is float else out
    if kind is list or kind is tuple:
        lengths = set(map(len, values))
        k = lengths.pop() if len(lengths) == 1 else 0
        if k:
            flat = _json_values(list(chain.from_iterable(values)), level + 1)
            return list(map(_template(level, k).__mod__, zip(*[iter(flat)] * k)))
    if kind is dict:
        keysets = set(map(frozenset, values))
        keys = keysets.pop() if len(keysets) == 1 else ()
        if keys and all(type(key) is str for key in keys):
            keys = tuple(sorted(keys))
            columns = [_json_values(list(map(itemgetter(key), values)), level + 1) for key in keys]
            return list(map(_template(level, keys).__mod__, zip(*columns)))
    if len(values) > 1:
        return [_json_values([v], level)[0] for v in values]
    return [json.dumps(values[0], indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)]


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_values([report], 0)[0] + "\n"
    buf = io.StringIO()
    buf.write(f"# seqtomo {report['version']}\n")
    buf.write(f"# config: {json.dumps(report['config'], sort_keys=True)}\n")
    w = csv.writer(buf)
    res = report["results"]
    if "chi" in res:
        w.writerow(["m", "n", "label_m", "label_n", "re", "im"])
        cells = product(enumerate(pauli_labels(res["n"])), repeat=2)
        pairs = chain.from_iterable(res["chi"])
        w.writerows((m, k, lm, lk, re, im) for ((m, lm), (k, lk)), (re, im) in zip(cells, pairs))
    elif "diagonal" in res:
        w.writerow(["k", "label", "exact", "frequency", "stderr"])
        for r in res["diagonal"]:
            w.writerow([r["k"], r["label"], r["exact"], r["frequency"], r["stderr"]])
    elif "expectations" in res:
        w.writerow(["label", "value"])
        for r in res["expectations"]:
            w.writerow([r["label"], r["value"]])
    elif "validity" in res:
        w.writerow(["predicate", "ok", "evidence"])
        v = res["validity"]
        w.writerow(["hermitian", v["hermitian"]["ok"], v["hermitian"]["residual"]])
        w.writerow(["trace_preserving", v["trace_preserving"]["ok"], v["trace_preserving"]["residual"]])
        w.writerow(
            ["completely_positive", v["completely_positive"]["ok"], v["completely_positive"]["min_eigenvalue"]]
        )
    else:
        est = res["estimate"]
        w.writerow(["re", "im", "se_re", "se_im", "exact_re", "exact_im", "abs_error", "m"])
        w.writerow(
            [
                est["re"],
                est["im"],
                est["se_re"],
                est["se_im"],
                res["exact"][0],
                res["exact"][1],
                res["abs_error"],
                res["plan"]["m"],
            ]
        )
    return buf.getvalue()


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _set_dotted(data: dict, path: str, value) -> None:
    parts = path.split(".")
    node = data
    for p in parts[:-1]:
        if not isinstance(node.get(p), dict):
            raise ConfigError(f"sweep axis {path!r} does not resolve inside the config")
        node = node[p]
    if parts[-1] not in node and parts[-1] not in {f.name for f in fields(ExperimentConfig)}:
        raise ConfigError(f"sweep axis {path!r} does not name a config field")
    node[parts[-1]] = value


def _scalar_view(results: dict) -> tuple:
    """(estimate, exact, m) of the results of a sampling protocol with a single target."""
    if "estimate" in results:
        est = results["estimate"]
        return complex(est["re"], est["im"]), complex(*results["exact"]), results["plan"]["m"]
    (r,) = results["diagonal"]
    return complex(r["frequency"], 0.0), complex(r["exact"], 0.0), results["plan"]["m"]


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def run_sweep(cfg_data: dict, axis: str, values: list, out: str | None) -> int:
    """Write one CSV row per value of ``axis``; an integral value is set as an int, which number fields accept too."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    _require(cfg_data.get("format", "csv") == "csv", "sweep writes CSV: format must be csv or omitted")
    single = cfg_data.get("protocol") not in ("aapt", "standard-qst", "validate") and cfg_data.get("target") is None
    _require(single, "sweep supports sampling protocols with a single target")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["value", "estimate", "exact", "abs_error", "m", "seconds"])
    for value in values:
        data = json.loads(json.dumps(cfg_data))
        _set_dotted(data, axis, int(value) if value.is_integer() else value)
        cfg = ExperimentConfig.from_dict(data)
        start = time.perf_counter()
        results = execute(cfg)
        seconds = time.perf_counter() - start
        est, exact, m = _scalar_view(results)
        w.writerow([value, _fmt_complex(est), _fmt_complex(exact), abs(est - exact), m, f"{seconds:.6f}"])
    _write_output(buf.getvalue(), out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_channel_arg(text: str) -> dict:
    """Accept inline JSON, a bare zoo name, or name:key=val,key=val shorthand."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            try:
                params[key.strip()] = json.loads(val)
            except json.JSONDecodeError:
                params[key.strip()] = val
    return {"name": name.strip(), "params": params}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--channel", help="channel spec: JSON, zoo name, or name:key=val,...")
    p.add_argument("--state", help="state spec as JSON")
    p.add_argument("--basis", help="basis spec as JSON")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--target", choices=["all-diagonal", "all"])
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n-states", type=int, dest="n_states")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="seqtomo", description="Selective quantum tomography workbench.")
    parser.add_argument("--version", action="version", version=f"seqtomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_config_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="run an experiment along one numeric axis")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, help="config field to sweep, dotted paths allowed")
    p_sweep.add_argument("--values", required=True, help="comma-separated numeric values")

    p_val = sub.add_parser("validate", help="check a channel's three validity predicates")
    _add_config_flags(p_val)

    p_zoo = sub.add_parser("zoo", help="channel zoo utilities")
    zoo_sub = p_zoo.add_subparsers(dest="zoo_command", required=True)
    zoo_sub.add_parser("list", help="list the named channels")

    return parser


# The report echoes the config one level deeper, and its writer spends at
# most three Python frames per JSON level (a list whose items differ in
# type), so a config this deep stays well inside the default recursion
# limit of 1000 frames.
MAX_CONFIG_DEPTH = 250


def _check_depth(data: dict) -> None:
    """ConfigError if ``data`` nests deeper than MAX_CONFIG_DEPTH JSON levels, counted level by level."""
    depth, level = 0, [data]
    while containers := [v for v in level if isinstance(v, (dict, list))]:
        depth += 1
        if depth > MAX_CONFIG_DEPTH:
            raise ConfigError(f"the config nests deeper than {MAX_CONFIG_DEPTH} JSON levels, the most a report echoes")
        level = list(chain.from_iterable(v.values() if isinstance(v, dict) else v for v in containers))


def _config_from_args(args: argparse.Namespace) -> dict:
    data: dict = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"a config file must hold a JSON object, got {type(data).__name__}")
    scalars = ("protocol", "a", "b", "target", "epsilon", "delta", "n_states", "seed", "workers", "out", "format")
    overrides = {key: getattr(args, key) for key in scalars}
    if args.channel is not None:
        overrides["channel"] = _parse_channel_arg(args.channel)
    if args.state is not None:
        overrides["state"] = json.loads(args.state)
    if args.basis is not None:
        overrides["basis"] = json.loads(args.basis)
    data.update({k: v for k, v in overrides.items() if v is not None})
    return data


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "zoo":
            for name, desc in zoo_descriptions().items():
                print(f"{name:18s} {desc}")
            return 0
        cfg_data = _config_from_args(args)
        _check_depth(cfg_data)
        if args.command == "validate":
            protocol = cfg_data.setdefault("protocol", "validate")
            _require(protocol == "validate", f"the validate command runs protocol validate, not {protocol!r}")
        if args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
            return run_sweep(cfg_data, args.axis, values, cfg_data.get("out"))
        cfg = ExperimentConfig.from_dict(cfg_data)
        report = run_report(cfg)
        _write_output(render_report(report, cfg.format), cfg.out)
        return 0
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SeqtomoError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # json recurses once per level of JSON nesting as it decodes.
        print(f"error: the config nests deeper than {sys.getrecursionlimit()} frames allow", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
