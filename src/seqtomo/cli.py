"""Config-driven experiment runner.

A protocol is one entry of the runner table: the fields it reads, its run,
its CSV rows, for a single-target sampler its sweep view, and any target
that runs it over every entry. Each flag is a config field. A report
carries the estimates, the exact oracle values recomputed in the same run,
absolute errors, shot counts, timing, the resolved config and the library
version; only its timing varies between runs of one config and seed.

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
import typing
from dataclasses import dataclass, fields
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import __version__
from .channels import channel_from_json, chi_block, chi_diagonal, kraus_to_chi, matrix_from_pairs, zoo_descriptions
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

@dataclass
class ExperimentConfig:
    protocol: str = ""
    channel: dict | None = None
    state: dict | None = None
    basis: dict | None = None
    a: int | None = None
    b: int | None = None
    target: str | None = None  # a protocol's whole-range target (its runner's), or None for one entry
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


def _check_indices(cfg: ExperimentConfig, size: int, what: str) -> None:
    """Refuse an index a or b that the protocol reads but is missing or outside [0, size); its target reads none."""
    runner = _RUNNERS[cfg.protocol]
    hint = f" (or target={runner.target})" if runner.target else ""
    for key in ("a", "b") if cfg.target is None else ():
        if key in runner.reads:
            value = getattr(cfg, key)
            _require(value is not None, f"protocol {cfg.protocol} needs index {key}{hint}")
            _require(0 <= value < size, f"index {key}={value} outside [0, {size}) for {what}")


# ---------------------------------------------------------------------------
# Protocol execution
# ---------------------------------------------------------------------------


class _Runner(typing.NamedTuple):
    """One protocol. Its functions call the library through this module's globals, which tests and tracers replace."""

    reads: tuple  # the spec and index fields it reads, the spec it needs first; the others are run-wide
    run: typing.Callable  # (cfg, plan, stream) -> results, after execute's run-wide checks
    rows: typing.Callable  # results -> the CSV header, then the rows
    sweep: typing.Callable | None = None  # results -> (estimate, exact, m)
    target: str | None = None  # the config target that runs it over every entry instead of the indices


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _plan_json(plan: ShotPlan, seed: int) -> dict:
    return {"epsilon": plan.epsilon, "delta": plan.delta, "m": plan.m, "seed": seed}


def _sampled_results(n: int, est: Estimate, exact: complex, plan: ShotPlan, seed: int, **fields) -> dict:
    """The results of one sampled entry: its estimate block with ``fields``, the exact value, the error and the plan."""
    estimate = {"re": est.value.real, "im": est.value.imag, "se_re": est.se_re, "se_im": est.se_im, "seed": seed}
    return {
        "n": n,
        "estimate": estimate | fields,
        "exact": _pair(exact),
        "abs_error": abs(est.value - exact),
        "plan": _plan_json(plan, seed),
    }


def _columns(key: str, *columns: str) -> typing.Callable:
    """The CSV rows of the list of dicts under ``key`` in the results: ``columns``, then those of each dict."""
    return lambda res: chain([columns], map(itemgetter(*columns), res[key]))


def _estimate_rows(res: dict) -> list:
    est = res["estimate"]
    row = [est["re"], est["im"], est["se_re"], est["se_im"], *res["exact"], res["abs_error"], res["plan"]["m"]]
    return [("re", "im", "se_re", "se_im", "exact_re", "exact_im", "abs_error", "m"), row]


def _estimate_view(res: dict) -> tuple:
    return complex(res["estimate"]["re"], res["estimate"]["im"]), complex(*res["exact"]), res["plan"]["m"]


def _run_seqst_state(cfg: ExperimentConfig, plan: ShotPlan, stream: RandomStream) -> dict:
    rho = build_state(cfg.state)
    n = int(np.log2(rho.dim))
    basis = build_basis(cfg.basis, n)
    _check_indices(cfg, basis.dim, "the state basis")
    est = seqst_sample(rho, basis, cfg.a, cfg.b, plan, stream, cfg.workers)
    exact = seqst_exact(rho, basis, cfg.a, cfg.b)
    tallies = dict(zip("xy", map(list, est.tallies)))
    results = _sampled_results(n, est, exact, plan, cfg.seed, a=cfg.a, b=cfg.b, m_shots=plan.m, tallies=tallies)
    return {"basis": basis.name} | results


def _run_standard_qst(cfg: ExperimentConfig, plan: ShotPlan, stream: RandomStream) -> dict:
    n = _state_qubits(cfg.state)
    check_size("the standard-qst report", n, rows=4**n)
    pairs = standard_pauli_qst(build_state(cfg.state))
    return {"n": n, "expectations": [{"label": word, "value": val} for word, val in pairs]}


def _run_aapt(cfg: ExperimentConfig, plan: ShotPlan, stream: RandomStream) -> dict:
    ch = channel_from_json(cfg.channel)
    check_size("the aapt report", ch.n, rows=16**ch.n)
    chi = aapt_full_chi(ch)
    oracle = kraus_to_chi(ch)
    return {
        "n": ch.n,
        "chi": np.stack((chi.real, chi.imag), axis=-1).tolist(),
        "oracle_max_abs_diff": float(np.max(np.abs(chi - oracle))),
    }


def _chi_rows(res: dict):
    cells = product(enumerate(pauli_labels(res["n"])), repeat=2)
    rows = ((m, k, lm, lk, re, im) for ((m, lm), (k, lk)), (re, im) in zip(cells, chain.from_iterable(res["chi"])))
    return chain([("m", "n", "label_m", "label_n", "re", "im")], rows)


def _run_dcqd_diag(cfg: ExperimentConfig, plan: ShotPlan, stream: RandomStream) -> dict:
    ch = channel_from_json(cfg.channel)
    _check_indices(cfg, 4**ch.n, "the Pauli basis")
    ks = range(4**ch.n) if cfg.target else [cfg.a]  # target is all-diagonal or None here
    check_size("the dcqd-diag report", ch.n, rows=len(ks))
    # The oracle first: its byte estimate is the larger, so a refusal comes before any work.
    oracle = chi_diagonal(ch)
    probs = dcqd_distribution(ch)
    # The distribution the rows are drawn from; each exact chi_kk is reported clamped at 1.
    diagonal = np.minimum(probs, 1.0)
    labels = pauli_labels(ch.n) if cfg.target else {cfg.a: pauli_word(ch.n, cfg.a)}
    exacts = diagonal.tolist() if cfg.target else {cfg.a: diagonal.item(cfg.a)}
    payload = []
    for k, freq, err in dcqd_sample_rows(probs, ks, plan, stream, cfg.workers):
        exact = exacts[k]
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


def _diagonal_view(res: dict) -> tuple:
    (r,) = res["diagonal"]
    return complex(r["frequency"], 0.0), complex(r["exact"], 0.0), res["plan"]["m"]


def _run_seqst_qpt(cfg: ExperimentConfig, plan: ShotPlan, stream: RandomStream) -> dict:
    ch = channel_from_json(cfg.channel)
    _check_indices(cfg, 4**ch.n, "the Pauli basis")
    results = {"circuit_exact": _pair(seqst_qpt_exact(ch, cfg.a, cfg.b))}
    est = seqst_qpt_sample(ch, cfg.a, cfg.b, plan, stream, workers=cfg.workers)
    return results | _chi_entry_results(cfg, ch, plan, est)


def _run_seqpt(cfg: ExperimentConfig, plan: ShotPlan, stream: RandomStream) -> dict:
    ch = channel_from_json(cfg.channel)
    _check_indices(cfg, 4**ch.n, "the Pauli basis")
    _require(cfg.n_states is not None and cfg.n_states >= 1, "protocol seqpt needs n_states >= 1")
    # The estimate first: its size check refuses a Kraus stack before the oracle's r products run.
    est = seqpt_estimate(ch, cfg.a, cfg.b, cfg.n_states, plan, stream, cfg.workers)
    avg_x, avg_y = seqpt_exact_average(ch, cfg.a, cfg.b)
    return {"exact_average": {"x": avg_x, "y": avg_y}} | _chi_entry_results(cfg, ch, plan, est)


def _chi_entry_results(cfg: ExperimentConfig, ch, plan: ShotPlan, est: Estimate) -> dict:
    """The results seqst-qpt and seqpt share: the sampled chi_ab beside the exact one."""
    exact = chi_block(ch, cfg.a, cfg.b)[2]
    a, b = pauli_word(ch.n, cfg.a), pauli_word(ch.n, cfg.b)
    shots = 2 * (cfg.n_states or 1) * plan.m  # m runs per axis of each input state
    return _sampled_results(ch.n, est, exact, plan, cfg.seed, protocol=cfg.protocol.upper(), a=a, b=b, shots=shots)


def _run_validate(cfg: ExperimentConfig, plan: ShotPlan, stream: RandomStream) -> dict:
    # Read from the Kraus stack, which sizes itself before it allocates: no chi is formed.
    ch = channel_from_json(cfg.channel)
    report = ch.validity()
    return {"n": ch.n, "validity": report.to_json(), "all_valid": report.all_valid}


def _validity_rows(res: dict) -> list:
    v = res["validity"]
    evidence = {"hermitian": "residual", "trace_preserving": "residual", "completely_positive": "min_eigenvalue"}
    return [("predicate", "ok", "evidence"), *((name, v[name]["ok"], v[name][key]) for name, key in evidence.items())]


_DIAGONAL_ROWS = _columns("diagonal", "k", "label", "exact", "frequency", "stderr")
_RUNNERS = {
    "seqst-state": _Runner(("state", "basis", "a", "b"), _run_seqst_state, _estimate_rows, _estimate_view),
    "standard-qst": _Runner(("state",), _run_standard_qst, _columns("expectations", "label", "value")),
    "aapt": _Runner(("channel",), _run_aapt, _chi_rows, target="all"),
    "dcqd-diag": _Runner(("channel", "a"), _run_dcqd_diag, _DIAGONAL_ROWS, _diagonal_view, "all-diagonal"),
    "seqst-qpt": _Runner(("channel", "a", "b"), _run_seqst_qpt, _estimate_rows, _estimate_view),
    "seqpt": _Runner(("channel", "a", "b", "n_states"), _run_seqpt, _estimate_rows, _estimate_view),
    "validate": _Runner(("channel",), _run_validate, _validity_rows),
}
PROTOCOLS = tuple(_RUNNERS)
_FORMATS = ("json", "csv")
_TARGETS = {runner.target: protocol for protocol, runner in _RUNNERS.items() if runner.target}
# The spec and index fields, which only some protocols read, in field order.
_READ_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if any(f.name in r.reads for r in _RUNNERS.values()))


def execute(cfg: ExperimentConfig) -> dict:
    """Run one experiment and return the results payload."""
    _require(cfg.protocol in PROTOCOLS, f"protocol must be one of {PROTOCOLS}, got {cfg.protocol!r}")
    _require(cfg.format in _FORMATS, f"format must be {' or '.join(_FORMATS)}, got {cfg.format!r}")
    _require(cfg.workers >= 1, f"workers must be >= 1, got {cfg.workers}")
    plan = chernoff_plan(cfg.epsilon, cfg.delta)
    runner = _RUNNERS[cfg.protocol]
    if cfg.target is not None:
        owner = _TARGETS.get(cfg.target)
        _require(owner is not None, f"target must be {', '.join(_TARGETS)} or omitted, got {cfg.target!r}")
        _require(owner == cfg.protocol, f"target={cfg.target} applies to {owner} only")
        _require(cfg.a is None or "a" not in runner.reads, f"target={cfg.target} reads no index a")
    unread = [key for key in _READ_FIELDS if getattr(cfg, key) is not None and key not in runner.reads]
    _require(not unread, f"protocol {cfg.protocol} reads no {', '.join(unread)}")
    stream = RandomStream(cfg.seed)
    spec = runner.reads[0]
    _require(getattr(cfg, spec) is not None, f"protocol {cfg.protocol} needs a {spec} spec")
    return runner.run(cfg, plan, stream)


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
# Cuts one join into several texts: rendered JSON holds no raw control character.
_CUT = "\0"
# The rows of a table whose cell texts are alive at once: the 4**6 rows of a
# six-qubit report are one join, and a larger table holds a block's cells
# and pieces instead of all of them.
_TABLE_ROWS = 4096


@functools.lru_cache(maxsize=256)
def _template(level: int, keys) -> str:
    """The ``%`` template of a list of ``keys`` items or of a dict with these sorted str keys."""
    inner = "\n" + "  " * (level + 1)
    if type(keys) is int:
        return "[" + inner + ("," + inner).join(["%s"] * keys) + "\n" + "  " * level + "]"
    items = (encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + inner + ("," + inner).join(items) + "\n" + "  " * level + "}"


def _table(rows: list, level: int, group: int = 0) -> list | None:
    """The texts of ``rows``, dicts with one set of str keys, or None if they are not such dicts.

    With ``group``, each run of that many rows is the items of one list and
    a text is that list, one level up; without, a text is a row. The rows
    are written _TABLE_ROWS at a time: their literal pieces are one list,
    repeated from a handful of shared strings; one column per sorted key is
    gathered (a KeyError there means another key set), rendered as one batch
    and written straight into the pieces, which are joined. The joined blocks
    are joined once more and cut into the texts.
    """
    first = rows[0]
    if not first or set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(first)}:
        return None
    if not all(type(key) is str for key in first):
        return None
    keys = sorted(first)
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    opening, closing = ("[" + outer, outer[:-2] + "]") if group else ("", "")
    head, *heads = (("," if j else "{") + inner + encode_basestring_ascii(key) + ": " for j, key in enumerate(keys))
    end, step, per = outer + "}", 2 * len(keys), group or 1
    # Each row is led by the end of the row before it and its first head; a cell follows each head.
    row = [end + "," + outer + head, *chain.from_iterable((None, h) for h in heads), None]
    blocks = []
    for start in range(0, len(rows), _TABLE_ROWS):
        block = rows[start : start + _TABLE_ROWS]
        pieces = row * len(block)
        firsts = range(-start % per, len(block), per)  # the rows that begin a text
        pieces[firsts.start * step :: per * step] = [end + closing + _CUT + opening + head] * len(firsts)
        if not start:
            pieces[0] = opening + head
        if start + len(block) == len(rows):
            pieces.append(end + closing)
        for j, key in enumerate(keys):
            try:
                column = list(map(itemgetter(key), block))
            except KeyError:
                return None
            pieces[2 * j + 1 :: step] = _json_values(column, level + 1)
        blocks.append("".join(pieces))
    return "".join(blocks).split(_CUT)


def _json_values(values: list, level: int) -> list:
    """``json.dumps(v, indent=2, sort_keys=True)`` of each value, nested ``level`` deep.

    Siblings are rendered together: scalars of one exact type in one C-level
    map, a column of floats respelled only if its sum is not finite (NaN or
    ±inf, or an overflow); dicts with the same str keys, alone or as the
    items of same-length lists, as one table (``_table``) of joined literal
    pieces; other same-length lists flattened, rendered as one batch and
    regrouped by a ``%`` template; and a lone dict in one pass over its
    cells, scalars spelled on the spot (no cell but a float's reads nan or
    ±inf). Anything else goes through json one value at a time; as strings
    hold no raw newline, json's output is indented by prefixing its newlines.
    """
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _SCALARS:
        out = list(map(_SCALARS[kind], values))
        return list(map(_FLOAT_WORDS.get, out, out)) if kind is float and not math.isfinite(sum(values)) else out
    if kind is list or kind is tuple:
        lengths = set(map(len, values))
        k = lengths.pop() if len(lengths) == 1 else 0
        if k:
            items = list(chain.from_iterable(values))
            table = _table(items, level + 1, k) if type(items[0]) is dict else None
            if table is not None:
                return table
            flat = _json_values(items, level + 1)
            return list(map(_template(level, k).__mod__, zip(*[iter(flat)] * k)))
    if kind is dict:
        if len(values) > 1:
            table = _table(values, level)
            if table is not None:
                return table
        elif values[0] and all(type(key) is str for key in values[0]):
            cells = []
            keys = tuple(sorted(values[0]))
            for v in map(values[0].__getitem__, keys):
                render = _SCALARS.get(type(v))
                cells.append(_json_values([v], level + 1)[0] if render is None else render(v))
            return [_template(level, keys) % tuple(map(_FLOAT_WORDS.get, cells, cells))]
    if len(values) > 1:
        return [_json_values([v], level)[0] for v in values]
    return [json.dumps(values[0], indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)]


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_values([report], 0)[0] + "\n"
    buf = io.StringIO()
    buf.write(f"# seqtomo {report['version']}\n")
    buf.write(f"# config: {json.dumps(report['config'], sort_keys=True)}\n")
    csv.writer(buf).writerows(_RUNNERS[report["protocol"]].rows(report["results"]))
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


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def run_sweep(cfg_data: dict, axis: str, values: list, out: str | None) -> int:
    """Write one CSV row per value of ``axis``; an integral value is set as an int, which number fields accept too."""
    _require(len(values) > 0, "sweep needs at least one value")
    _require(cfg_data.get("format", "csv") == "csv", "sweep writes CSV: format must be csv or omitted")
    protocol = cfg_data.get("protocol")  # one with no runner is left for execute to refuse, an unhashable one too
    single = (protocol not in PROTOCOLS or _RUNNERS[protocol].sweep is not None) and cfg_data.get("target") is None
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
        est, exact, m = _RUNNERS[cfg.protocol].sweep(results)
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


# The value of each spec flag's text; every other flag holds its field's int, float or str as it is.
_SPEC_PARSERS = {"channel": _parse_channel_arg, "state": json.loads, "basis": json.loads}
# What a flag shows in usage and help besides its name: the values it takes, or a help text.
_FLAG_DOCS = {
    "protocol": {"metavar": "{" + ",".join(PROTOCOLS) + "}"},
    "channel": {"help": "channel spec: JSON, zoo name, or name:key=val,..."},
    "state": {"help": "state spec as JSON"},
    "basis": {"help": "basis spec as JSON"},
    "target": {"metavar": "{" + ",".join(_TARGETS) + "}"},
    "out": {"help": "output path (default: stdout)"},
    "format": {"metavar": "{" + ",".join(_FORMATS) + "}"},
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config, then one flag per config field, its value judged by the config layer like a config file's."""
    p.add_argument("--config", help="JSON config file; flags override its fields")
    for f in fields(ExperimentConfig):
        kind = next((t for t in (int, float) if t in (typing.get_args(f.type) or (f.type,))), str)
        p.add_argument("--" + f.name.replace("_", "-"), type=kind, **_FLAG_DOCS.get(f.name, {}))


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
    while level:
        kinds = set(map(type, level))
        if kinds.isdisjoint((dict, list)):
            return
        if kinds == {list}:
            items = chain.from_iterable(level)
        else:
            containers = (v for v in level if isinstance(v, (dict, list)))
            items = chain.from_iterable(v.values() if isinstance(v, dict) else v for v in containers)
        depth += 1
        if depth > MAX_CONFIG_DEPTH:
            raise ConfigError(f"the config nests deeper than {MAX_CONFIG_DEPTH} JSON levels, the most a report echoes")
        level = list(items)


def _sweep_values(text: str) -> list:
    """The numbers of ``--values``, blank items skipped; ConfigError names an item that is no number."""
    values = []
    for item in filter(str.strip, text.split(",")):
        try:
            values.append(float(item))
        except ValueError:
            raise ConfigError(f"sweep --values takes comma-separated numbers, got {item!r}") from None
    return values


def _config_from_args(args: argparse.Namespace) -> dict:
    data: dict = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"a config file must hold a JSON object, got {type(data).__name__}")
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            data[f.name] = _SPEC_PARSERS[f.name](value) if f.name in _SPEC_PARSERS else value
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
            return run_sweep(cfg_data, args.axis, _sweep_values(args.values), cfg_data.get("out"))
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
