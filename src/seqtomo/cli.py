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
import math
import sys
import time
from dataclasses import dataclass, fields
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import __version__
from .channels import (
    ChiMatrix,
    channel_from_json,
    chi_csv_rows,
    kraus_to_chi,
    matrix_from_pairs,
    validate_channel,
    zoo_descriptions,
)
from .core import (
    MATRIX_MAX_BYTES,
    DensityMatrix,
    PureState,
    haar_random_state,
    maximally_entangled_state,
    random_density_matrix,
)
from .errors import ConfigError, SeqtomoError, SizeLimitExceeded
from .estimation import RandomStream, chernoff_plan
from .pauli import pauli_labels
from .qpt import (
    aapt_full_chi,
    dcqd_distribution,
    dcqd_sample_rows,
    seqpt_estimate,
    seqpt_exact_average,
    seqst_qpt_exact,
    seqst_qpt_sample,
)
from .seqst import PreparationBasis, seqst_exact, seqst_sample, standard_pauli_qst

PROTOCOLS = ("seqst-state", "standard-qst", "aapt", "dcqd-diag", "seqst-qpt", "seqpt", "validate")


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
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

_CHANNEL_PROTOCOLS = {"aapt", "dcqd-diag", "seqst-qpt", "seqpt", "validate"}
_STATE_PROTOCOLS = {"seqst-state", "standard-qst"}


# The keys each state kind takes besides "kind".
_STATE_KEYS = dict.fromkeys(("zero", "plus", "ghz", "maximally_mixed", "entangled"), ("n",))
_STATE_KEYS.update(haar=("n", "seed"), random_mixed=("n", "seed"), amplitudes=("values",), matrix=("values",))


def _check_state_size(d: int) -> None:
    if 16 * d * d > MATRIX_MAX_BYTES:
        raise SizeLimitExceeded(f"a dense state of dimension 2^{math.log2(d):g} exceeds {MATRIX_MAX_BYTES} bytes")


def _spec_int(spec: dict, key: str, default: int, lo: int) -> int:
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < lo:
        raise ConfigError(f"state {key} must be an integer >= {lo}, got {value!r}")
    return value


def build_state(spec: dict) -> DensityMatrix:
    """Build the input state from a config spec.

    Kinds: zero(n), plus(n), ghz(n), maximally_mixed(n), entangled(n),
    haar(n, seed), random_mixed(n, seed), amplitudes(values),
    matrix(values) — explicit values use [re, im] pairs. n defaults to 1
    and seed to 0; a key the kind does not take is refused, and a state
    over ``core.MATRIX_MAX_BYTES`` raises SizeLimitExceeded.
    """
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _STATE_KEYS:
        raise ConfigError(f"unknown state kind {kind!r}")
    unknown = set(spec) - {"kind", *_STATE_KEYS[kind]}
    if unknown:
        raise ConfigError(f"state kind {kind!r} takes no key(s) {sorted(unknown)}")
    if kind == "amplitudes" and isinstance(spec.get("values"), list):
        _check_state_size(len(spec["values"]))
    n = _spec_int(spec, "n", 1, 1)
    _check_state_size(2 ** (2 * n if kind == "entangled" else n))  # entangled(n) spans two registers
    d = 2**n
    if kind == "zero":
        return PureState(np.eye(d)[0]).density()
    if kind == "plus":
        return PureState(np.full(d, 1.0 / np.sqrt(d), dtype=complex)).density()
    if kind == "ghz":
        v = np.zeros(d, dtype=complex)
        v[0] = v[-1] = 1.0 / np.sqrt(2)
        return PureState(v).density()
    if kind == "maximally_mixed":
        return DensityMatrix(np.eye(d) / d)
    if kind == "entangled":
        return maximally_entangled_state(n).density()
    if kind == "haar":
        gen = RandomStream(_spec_int(spec, "seed", 0, 0), (9001,)).generator()
        return haar_random_state(d, gen).density()
    if kind == "random_mixed":
        gen = RandomStream(_spec_int(spec, "seed", 0, 0), (9002,)).generator()
        return random_density_matrix(d, gen)
    if kind == "amplitudes":
        # A vector of pairs is the one row of a matrix of pairs.
        return PureState(matrix_from_pairs([spec.get("values")])[0]).density()
    return DensityMatrix(matrix_from_pairs(spec.get("values")))


def build_basis(spec: dict | None, n: int) -> PreparationBasis:
    """Build the preparation basis; defaults to the computational basis."""
    spec = spec or {"kind": "computational"}
    kind = spec.get("kind")
    if kind == "computational":
        return PreparationBasis.computational(n)
    if kind == "pauli":
        return PreparationBasis.pauli_eigenbasis(n, spec.get("axis", "X"))
    if kind == "haar":
        gen = RandomStream(int(spec.get("seed", 0)), (9003,)).generator()
        return PreparationBasis.random_unitary_columns(n, gen)
    raise ConfigError(f"unknown basis kind {kind!r}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _validate_indices(cfg: ExperimentConfig, size: int, what: str) -> None:
    if cfg.target == "all-diagonal":
        return
    _require(cfg.a is not None, f"protocol {cfg.protocol} needs index a (or target=all-diagonal)")
    _require(0 <= cfg.a < size, f"index a={cfg.a} outside [0, {size}) for {what}")
    if cfg.protocol in ("seqst-state", "seqst-qpt", "seqpt"):
        _require(cfg.b is not None, f"protocol {cfg.protocol} needs index b")
        _require(0 <= cfg.b < size, f"index b={cfg.b} outside [0, {size}) for {what}")


# ---------------------------------------------------------------------------
# Protocol execution
# ---------------------------------------------------------------------------


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def execute(cfg: ExperimentConfig) -> dict:
    """Run one experiment and return the results payload."""
    _require(cfg.protocol in PROTOCOLS, f"protocol must be one of {PROTOCOLS}, got {cfg.protocol!r}")
    _require(cfg.format in ("json", "csv"), f"format must be json or csv, got {cfg.format!r}")
    _require(cfg.workers >= 1, f"workers must be >= 1, got {cfg.workers}")
    if cfg.target == "all":
        _require(cfg.protocol == "aapt", "target=all applies to aapt only")
    elif cfg.target == "all-diagonal":
        _require(cfg.protocol == "dcqd-diag", "target=all-diagonal applies to dcqd-diag only")
    else:
        _require(cfg.target is None, f"target must be all, all-diagonal or omitted, got {cfg.target!r}")
    stream = RandomStream(cfg.seed)

    if cfg.protocol in _CHANNEL_PROTOCOLS:
        _require(cfg.channel is not None, f"protocol {cfg.protocol} needs a channel spec")
        ch = channel_from_json(cfg.channel)
    if cfg.protocol in _STATE_PROTOCOLS:
        _require(cfg.state is not None, f"protocol {cfg.protocol} needs a state spec")
        rho = build_state(cfg.state)

    if cfg.protocol == "validate":
        report = validate_channel(kraus_to_chi(ch))
        return {"n": ch.n, "validity": report.to_json(), "all_valid": report.all_valid}

    if cfg.protocol == "standard-qst":
        pairs = standard_pauli_qst(rho)
        return {
            "n": int(np.log2(rho.dim)),
            "expectations": [{"label": lbl.letters, "value": val} for lbl, val in pairs],
        }

    if cfg.protocol == "seqst-state":
        n = int(np.log2(rho.dim))
        basis = build_basis(cfg.basis, n)
        _validate_indices(cfg, basis.dim, "the state basis")
        plan = chernoff_plan(cfg.epsilon, cfg.delta)
        rep = seqst_sample(rho, basis, cfg.a, cfg.b, plan, stream, cfg.workers)
        exact = seqst_exact(rho, basis, cfg.a, cfg.b)
        return {
            "n": n,
            "basis": basis.name,
            "estimate": rep.to_json(),
            "exact": _pair(exact),
            "abs_error": abs(rep.estimate - exact),
            "plan": {"epsilon": plan.epsilon, "delta": plan.delta, "m": plan.m, "seed": cfg.seed},
        }

    if cfg.protocol == "aapt":
        chi = aapt_full_chi(ch)
        oracle = kraus_to_chi(ch)
        return {
            "n": ch.n,
            "chi": [[_pair(v) for v in row] for row in chi.entries],
            "oracle_max_abs_diff": float(np.max(np.abs(chi.entries - oracle.entries))),
        }

    if cfg.protocol == "dcqd-diag":
        _validate_indices(cfg, 4**ch.n, "the Pauli basis")
        plan = chernoff_plan(cfg.epsilon, cfg.delta)
        oracle = kraus_to_chi(ch)
        probs = dcqd_distribution(ch)
        rows = dcqd_sample_rows(probs, plan, stream, cfg.workers)
        # The distribution the rows are drawn from, with dcqd_diagonal's clamp at 1.
        diagonal = np.minimum(probs, 1.0)
        labels = pauli_labels(ch.n)
        payload = []
        for k, freq, err in rows:
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
        result = {
            "n": ch.n,
            "oracle_diagonal_max_abs_diff": float(np.max(np.abs(diagonal - oracle.entries.diagonal().real))),
            "plan": {"epsilon": plan.epsilon, "delta": plan.delta, "m": plan.m, "seed": cfg.seed},
        }
        result["diagonal"] = payload if cfg.target == "all-diagonal" else [payload[cfg.a]]
        return result

    if cfg.protocol == "seqst-qpt":
        _validate_indices(cfg, 4**ch.n, "the Pauli basis")
        plan = chernoff_plan(cfg.epsilon, cfg.delta)
        est = seqst_qpt_sample(ch, cfg.a, cfg.b, plan, stream, workers=cfg.workers)
        exact = kraus_to_chi(ch).entries[cfg.a, cfg.b]
        circuit_exact = seqst_qpt_exact(ch, cfg.a, cfg.b)
        return {
            "n": ch.n,
            "estimate": est.to_json(),
            "exact": _pair(exact),
            "circuit_exact": _pair(circuit_exact),
            "abs_error": abs(est.value - exact),
            "plan": {"epsilon": plan.epsilon, "delta": plan.delta, "m": plan.m, "seed": cfg.seed},
        }

    if cfg.protocol == "seqpt":
        _validate_indices(cfg, 4**ch.n, "the Pauli basis")
        _require(cfg.n_states is not None and cfg.n_states >= 1, "protocol seqpt needs n_states >= 1")
        plan = chernoff_plan(cfg.epsilon, cfg.delta)
        est = seqpt_estimate(ch, cfg.a, cfg.b, cfg.n_states, plan, stream, cfg.workers)
        exact = kraus_to_chi(ch).entries[cfg.a, cfg.b]
        avg_x, avg_y = seqpt_exact_average(ch, cfg.a, cfg.b)
        return {
            "n": ch.n,
            "estimate": est.to_json(),
            "exact": _pair(exact),
            "exact_average": {"x": avg_x, "y": avg_y},
            "abs_error": abs(est.value - exact),
            "plan": {"epsilon": plan.epsilon, "delta": plan.delta, "m": plan.m, "seed": cfg.seed},
        }

    raise ConfigError(f"unhandled protocol {cfg.protocol!r}")


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
        entries = np.array([[complex(re, im) for re, im in row] for row in res["chi"]])
        for row in chi_csv_rows(ChiMatrix(res["n"], entries)):
            w.writerow(row)
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

_INT_AXES = {"seed", "a", "b", "n_states", "workers"}


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
    """(estimate, exact, m) for sweep rows; requires a single-target run."""
    if "estimate" in results:
        est = results["estimate"]
        return complex(est["re"], est["im"]), complex(*results["exact"]), results["plan"]["m"]
    if "diagonal" in results:
        rows = results["diagonal"]
        if len(rows) != 1:
            raise ConfigError("sweep needs a single-index dcqd-diag target, not all-diagonal")
        r = rows[0]
        return complex(r["frequency"], 0.0), complex(r["exact"], 0.0), results["plan"]["m"]
    raise ConfigError("sweep supports sampling protocols with a single target")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def run_sweep(cfg_data: dict, axis: str, values: list, out: str | None) -> int:
    if not values:
        raise ConfigError("sweep needs at least one value")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["value", "estimate", "exact", "abs_error", "m", "seconds"])
    for value in values:
        data = json.loads(json.dumps(cfg_data))
        leaf = axis.split(".")[-1]
        _set_dotted(data, axis, int(value) if leaf in _INT_AXES else value)
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


def _config_from_args(args: argparse.Namespace) -> dict:
    data: dict = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    overrides = {
        "protocol": args.protocol,
        "a": args.a,
        "b": args.b,
        "target": args.target,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "n_states": args.n_states,
        "seed": args.seed,
        "workers": args.workers,
        "out": args.out,
        "format": args.format,
    }
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
        if args.command == "validate":
            cfg_data["protocol"] = "validate"
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


if __name__ == "__main__":
    sys.exit(main())
