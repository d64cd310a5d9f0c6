"""Byte-identity corpus of the CLI: one line per argv of what `cli.main` prints and returns.

Builds a fixed, seeded corpus of argvs: every protocol in its default, JSON
and CSV format on zoo, tensor, compose and explicit channels and on every
state kind in three bases; refused flags (bad protocol, target and format
values, argparse type errors, missing, out-of-range and unread indices,
bad specs); random mixes of valid and junk flags; config files with junk
fields, each run through `run`, `validate` and `sweep`, alone and with a
flag over them; sweeps of every protocol along seed, epsilon, a and
state.n, a bad axis and an empty value list; `--out` files; and `zoo list`.
The corpus depends on nothing but this file, so two trees see the same argvs.

Each argv runs in-process through `seqtomo.cli.main` of the `src/` given
(default: this repository's). The line printed for it is the exit code (or
the uncaught exception's type), a digest of stdout with `timing_seconds`
and the sweep's seconds column masked (an `--out` file counts as stdout),
stderr as a JSON string, and the argv. Temporary paths read `$TMP`. A
summary of exit codes goes to stderr.

Two trees behave alike on the corpus when their outputs do not differ:

    python scripts/identity.py path/to/other/src > other.txt
    python scripts/identity.py > this.txt
    diff other.txt this.txt
"""

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 2026

PROTOCOLS = ["seqst-state", "standard-qst", "aapt", "dcqd-diag", "seqst-qpt", "seqpt", "validate"]
CHANNEL_PROTOCOLS = ["aapt", "dcqd-diag", "seqst-qpt", "seqpt", "validate"]
FORMATS = [[], ["--format", "json"], ["--format", "csv"]]


def _spec(name: str, **params) -> dict:
    return {"name": name, "params": params}


_AMP = _spec("amplitude_damping", gamma=0.3)
_DEP = _spec("depolarizing", p=0.2)
# (qubits, --channel text) of the valid channels, shorthand and JSON.
CHANNELS = [
    (1, "identity"),
    (2, "identity:n=2"),
    (1, "depolarizing:p=0.2"),
    (1, "bit_flip:p=0.1"),
    (1, "phase_flip:p=0.3"),
    (1, "bit_phase_flip:p=0.4"),
    (1, "amplitude_damping:gamma=0.3"),
    (1, "unitary:gate=h"),
    (2, "unitary:gate=cnot"),
    (2, json.dumps(_spec("tensor", factors=[_DEP, _AMP]))),
    (1, json.dumps(_spec("compose", first=_AMP, then=_spec("unitary", gate="s")))),
    (1, json.dumps({"kraus": [[[[0.6, 0], [0, 0]], [[0, 0], [0.6, 0]]], [[[0, 0], [0.8, 0]], [[0.8, 0], [0, 0]]]]})),
]
# (qubits, state spec) of the valid states.
STATES = [
    (1, {"kind": "zero"}),
    (2, {"kind": "plus", "n": 2}),
    (3, {"kind": "ghz", "n": 3}),
    (2, {"kind": "maximally_mixed", "n": 2}),
    (2, {"kind": "entangled", "n": 1}),
    (2, {"kind": "haar", "n": 2, "seed": 3}),
    (2, {"kind": "random_mixed", "n": 2, "seed": 1}),
    (1, {"kind": "amplitudes", "values": [[0.6, 0], [0, 0.8]]}),
    (1, {"kind": "matrix", "values": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]}),
]
BASES = [None, {"kind": "computational"}, {"kind": "pauli", "axis": "Y"}, {"kind": "haar", "seed": 2}]

BAD_CHANNELS = [
    "nope",
    "depolarizing:p=2",
    "depolarizing:p=0.1,q=1",
    "bit_flip:p=0.1,n=2",
    "unitary:gate=q",
    "unitary",
    "identity:n=0",
    "{bad json",
    "[1, 2]",
    json.dumps(_spec("tensor", factors=[])),
    json.dumps(_spec("tensor", factors=[_DEP], bogus=1)),
    json.dumps(_spec("tensor")),
    json.dumps(_spec("compose", first=_DEP)),
    json.dumps(_spec("compose", first=_DEP, then=_spec("identity", n=2))),
    json.dumps({"name": "identity", "extra": 1}),
    json.dumps({"kraus": [[[1, 0]]]}),
]
BAD_SPECS = ["{bad", "5", '"zero"', '{"kind": "nope"}', '{"kind": "zero", "bogus": 1}', '{"kind": "zero", "n": 0}']
BAD_SPECS += ["[]"]
BAD_VALUES = {
    "--protocol": ["bogus", "SEQST-QPT", "", "aapt ", "validat"],
    "--target": ["none", "all-diag", "ALL", "", "diagonal"],
    "--format": ["xml", "JSON", "", "csv "],
    "--a": ["x", "1.5", "-1", "99"],
    "--b": ["y", "-2", "64"],
    "--epsilon": ["abc", "0", "-0.1", "5", "nan", "inf"],
    "--delta": ["zz", "0", "1", "1.5"],
    "--seed": ["1.5", "-1", "s"],
    "--workers": ["two", "0", "-3"],
    "--n-states": ["q", "0", "-1"],
}
# Junk for a config file's fields: every JSON type, and values of the wrong field.
JUNK = [None, True, 0, -1, 3, 2.5, float("nan"), "", "x", "all", "all-diagonal", "csv", [], [1], {}, {"kind": "zero"}]


def _state_args(rng: random.Random, protocol: str) -> list:
    n, state = rng.choice(STATES)
    args = ["--state", json.dumps(state)]
    if protocol == "seqst-state":
        basis = rng.choice(BASES)
        args += ["--basis", json.dumps(basis)] if basis else []
        args += ["--a", str(rng.randrange(2**n)), "--b", str(rng.randrange(2**n))]
    return args


def _channel_args(rng: random.Random, protocol: str) -> list:
    n, channel = rng.choice(CHANNELS)
    if protocol == "aapt":
        return ["--channel", channel]
    args = ["--channel", channel, "--a", str(rng.randrange(4**n))]
    if protocol == "dcqd-diag":
        return args if rng.random() < 0.7 else ["--channel", channel, "--target", "all-diagonal"]
    if protocol in ("seqst-qpt", "seqpt"):
        args += ["--b", str(rng.randrange(4**n))]
    if protocol == "seqpt":
        args += ["--n-states", str(rng.randint(1, 3))]
    return [] if protocol == "validate" else args


def valid_runs(rng: random.Random) -> list:
    """Every protocol in every format, with seeds, shot plans and sometimes workers drawn from ``rng``."""
    argvs = []
    for protocol in PROTOCOLS:
        for fmt in FORMATS:
            for _ in range(30):
                args = _state_args(rng, protocol) if protocol in ("seqst-state", "standard-qst") else []
                if protocol in CHANNEL_PROTOCOLS:
                    args = _channel_args(rng, protocol) or ["--channel", rng.choice(CHANNELS)[1]]
                args += ["--seed", str(rng.randrange(100))]
                if rng.random() < 0.3:
                    args += ["--epsilon", str(rng.choice([0.05, 0.2, 0.5])), "--delta", str(rng.choice([0.01, 0.1]))]
                if rng.random() < 0.2:
                    args += ["--workers", str(rng.randint(1, 3))]
                argvs.append(["run", "--protocol", protocol, *args, *fmt])
    for channel in rng.sample([c for _, c in CHANNELS], 6):
        argvs.append(["validate", "--channel", channel])
    return argvs


def refused_flags(rng: random.Random) -> list:
    """Each bad flag value on every protocol; missing, unread and misplaced fields; bad specs."""
    argvs = []
    for protocol in PROTOCOLS:
        base = ["run", "--protocol", protocol, *_valid_args(rng, protocol)]
        for flag, values in BAD_VALUES.items():
            for value in values:
                argvs.append([*base, flag, value] if flag != "--protocol" else ["run", *base[3:], flag, value])
        argvs.append(["run", "--protocol", protocol, "--seed", "1"])  # no spec, no index
        for flag in ("--a", "--b"):  # each index dropped in turn
            args = _valid_args(rng, protocol)
            if flag in args:
                i = args.index(flag)
                argvs.append(["run", "--protocol", protocol, *args[:i], *args[i + 2 :]])
        for target in ("all", "all-diagonal"):
            argvs.append([*base, "--target", target])
        argvs.append([*base, "--state", '{"kind": "zero"}'])
        argvs.append([*base, "--channel", "identity"])
        argvs.append([*base, "--basis", '{"kind": "pauli"}'])
        argvs.append([*base, "--n-states", "2"])
        for channel in BAD_CHANNELS:
            argvs.append(["run", "--protocol", protocol, "--channel", channel, "--a", "0", "--b", "0"])
        for flag in ("--state", "--basis"):
            for spec in BAD_SPECS:
                argvs.append([*base, flag, spec])
    argvs += [["validate", "--protocol", p, "--channel", "identity"] for p in PROTOCOLS + ["bogus"]]
    argvs += [["run"], ["run", "--protocol"], ["run", "--bogus", "1"], ["zoo"], ["zoo", "bogus"], ["bogus"], []]
    argvs += [["run", "--config"], ["run", "--config", "$TMP/missing.json"], ["sweep", "--protocol", "aapt"]]
    # Size refusals, each before its route allocates.
    big = ["--channel", "identity:n=11"]
    argvs += [["run", "--protocol", "standard-qst", "--state", '{"kind": "zero", "n": 10}'], ["validate", *big]]
    argvs += [["run", "--protocol", "dcqd-diag", "--target", "all-diagonal", "--channel", "identity:n=10"]]
    argvs += [["run", "--protocol", "aapt", "--channel", "identity:n=5"], ["run", "--protocol", "seqst-qpt", *big]]
    return argvs


def _valid_args(rng: random.Random, protocol: str) -> list:
    if protocol in ("seqst-state", "standard-qst"):
        return _state_args(rng, protocol)
    return _channel_args(rng, protocol) or ["--channel", rng.choice(CHANNELS)[1]]


def random_mixes(rng: random.Random, count: int) -> list:
    """``count`` runs, each a random subset of good and junk flag values."""
    pools = {
        "--protocol": PROTOCOLS + BAD_VALUES["--protocol"],
        "--channel": [c for _, c in CHANNELS] + BAD_CHANNELS,
        "--state": [json.dumps(s) for _, s in STATES] + BAD_SPECS,
        "--basis": [json.dumps(b) for b in BASES if b] + BAD_SPECS,
        "--target": ["all", "all-diagonal"] + BAD_VALUES["--target"],
        "--format": ["json", "csv"] + BAD_VALUES["--format"],
        **{flag: [str(v) for v in range(4)] + BAD_VALUES[flag] for flag in ("--a", "--b", "--seed", "--n-states")},
        "--epsilon": ["0.1", "0.3"] + BAD_VALUES["--epsilon"],
        "--delta": ["0.05", "0.2"] + BAD_VALUES["--delta"],
        "--workers": ["1", "2"] + BAD_VALUES["--workers"],
    }
    argvs = []
    for _ in range(count):
        command = rng.choice([["run"], ["run"], ["run"], ["validate"], ["sweep", "--axis", "seed", "--values", "1,2"]])
        args = []
        for flag in rng.sample(sorted(pools), rng.randint(1, 6)):
            args += [flag, rng.choice(pools[flag])]
        argvs.append([*command, *args])
    return argvs


def config_files(rng: random.Random, count: int) -> list:
    """(argv, config) pairs: a config of real fields with some junk, run through each command, alone or under a flag."""
    pairs = []
    for _ in range(count):
        protocol = rng.choice(PROTOCOLS)
        args = _valid_args(rng, protocol)
        config = {"protocol": protocol}
        for flag, value in zip(args[::2], args[1::2]):
            key = flag[2:].replace("-", "_")
            config[key] = json.loads(value) if key in ("state", "basis") else value
        if "channel" in config:
            config["channel"] = json.loads(config["channel"]) if config["channel"][0] == "{" else {"name": "identity"}
        for key in ("a", "b", "n_states"):
            if key in config:
                config[key] = int(config[key])
        for _ in range(rng.randint(0, 2)):
            key = rng.choice(["protocol", "channel", "state", "basis", "a", "b", "target", "epsilon", "delta",
                              "n_states", "seed", "workers", "format", "zzz"])
            config[key] = rng.choice(JUNK)
        command = rng.choice([["run"], ["validate"], ["sweep", "--axis", "seed", "--values", "1,2"]])
        over = rng.choice([[], [], ["--seed", "5"], ["--format", "csv"], ["--protocol", rng.choice(PROTOCOLS)]])
        pairs.append(([*command, "--config", "$CONFIG", *over], config))
    return pairs


def sweeps(rng: random.Random) -> list:
    """Every protocol swept along each axis, in each format and target, plus a bad axis and no values."""
    argvs = []
    for protocol in PROTOCOLS:
        args = _valid_args(rng, protocol)
        if "--target" in args:
            args = args[: args.index("--target")] + ["--a", "1"]
        for axis, values in [("seed", "1,2"), ("epsilon", "0.2,0.4"), ("a", "0,1"), ("state.n", "1,2"),
                             ("channel.params.p", "0.1"), ("bogus", "1"), ("seed", ""), ("seed", "x")]:
            for extra in ([], ["--format", "csv"], ["--format", "json"], ["--target", "all-diagonal"]):
                argvs.append(["sweep", "--protocol", protocol, *args, *extra, "--axis", axis, "--values", values])
    return argvs


def corpus() -> list:
    """The (argv, config or None) pairs, the same on every run."""
    rng = random.Random(SEED)
    argvs = [["zoo", "list"], ["--version"]]
    argvs += valid_runs(rng) + refused_flags(rng) + random_mixes(rng, 600) + sweeps(rng)
    argvs += [[*argv, "--out", "$TMP/report.out"] for argv in rng.sample(valid_runs(rng), 40)]
    return [(argv, None) for argv in argvs] + config_files(rng, 200)


def run_one(main, argv: list, config, tmp: str) -> tuple:
    """(exit code or exception, masked stdout, stderr) of ``main(argv)``, ``$TMP`` and ``$CONFIG`` filled in."""
    if config is not None:
        Path(tmp, "config.json").write_text(json.dumps(config))
    argv = [a.replace("$CONFIG", f"{tmp}/config.json").replace("$TMP", tmp) for a in argv]
    out_file = Path(tmp, "report.out")
    out_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an outcome the corpus records, not a crash of this script
            code = f"raised {type(exc).__name__}"
    text = out.getvalue() + (out_file.read_text() if out_file.exists() else "")
    text = re.sub(r'"timing_seconds": [^,\n}]+', '"timing_seconds": 0', text)
    if argv and argv[0] == "sweep":
        text = re.sub(r",\d+\.\d{6}\r\n", ",S\r\n", text)
    return code, text.replace(tmp, "$TMP"), err.getvalue().replace(tmp, "$TMP")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(Path(args[0]).resolve() if args else ROOT / "src"))
    from seqtomo import cli

    codes = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for command, config in corpus():
            code, out, err = run_one(cli.main, command, config, tmp)
            codes[code] += 1
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            shown = command if config is None else [*command, config]
            print(code, digest, json.dumps(err), json.dumps(shown), sep="\t")
    print(f"{sum(codes.values())} argvs; exit codes: {dict(sorted(codes.items(), key=str))}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
