"""The seqtomo benchmark: closed-loop ``seqtomo run`` ops, one client.

Usage (from the repository root):

    python3 seqbench/run.py --workload selective --seed 1 --seconds 45 --trace 0
    python3 seqbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Each op is one ``seqtomo run`` config executed in-process through
``seqtomo.cli.main`` with its stdout captured, and every report is checked
against an independent oracle (``oracle.py``). With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics of ``tracing.py`` from cycles run both untraced and traced. The last
line of stdout is one JSON object; results, spans and an environment
fingerprint are also written under ``.seqbench_out/`` in the repository root.
"""

import os

# Single-threaded BLAS/OpenMP baseline; must be set before NumPy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ops  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".seqbench_out"

# Set-up runs per measurement: this process plus fresh child processes.
SETUP_RUNS = 5
# A run measures at least this many ops, so its p90 has ten samples above it.
MIN_OPS = 100
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_seqtomo():
    """Import the package from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("seqtomo")
    if Path(pkg.__file__).resolve().parent != SRC / "seqtomo":
        raise ImportError(f"seqtomo imported from {pkg.__file__}, not from {SRC}")
    return importlib.import_module("seqtomo.cli")


def run_op(cli, op) -> tuple:
    """(exit code or exception, stdout, wall seconds) of one op through cli.main."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects a config by exiting
        code = exc.code
    except Exception as exc:  # an op that raises counts as failed; the loop goes on
        code = repr(exc)
    return code, out.getvalue(), time.perf_counter() - start


def setup(workload: str, seed: int) -> tuple:
    """(set-up seconds, cli module, failures): import plus one op per shape."""
    warm = ops.warmup_ops(workload, seed)
    start = time.perf_counter()
    cli = import_seqtomo()
    results = [(op, run_op(cli, op)) for op in warm]
    elapsed = time.perf_counter() - start
    failures = [f for op, (code, out, _) in results if (f := oracle.check(op, code, out))]
    return elapsed, cli, failures


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def fingerprint(seed: int) -> dict:
    """What a number depends on besides the code; compare only equal fingerprints."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "seed": seed,
    }


class Loop:
    """Closed loop over whole cycles of a workload, checking every report."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli, self.workload, self.seed = cli, workload, seed
        self.attempted = 0
        self.failures: list = []
        self.spent = 0.0  # summed op wall seconds
        self.origin = time.perf_counter()
        self.log: list = []  # (protocol, n, start offset s, wall s) per op

    def run(self, batch: list) -> float:
        """Run a batch of ops; return their summed wall seconds."""
        total = 0.0
        for op in batch:
            start = time.perf_counter() - self.origin
            code, out, dt = run_op(self.cli, op)
            self.log.append((op.protocol, op.n, round(start, 6), dt))
            total += dt
            self.attempted += 1
            reason = oracle.check(op, code, out)
            if reason:
                self.failures.append(f"{op.protocol} n={op.n}: {reason}")
        self.spent += total
        return total

    def cycles(self, seconds: float):
        """Yield (index, ops) of successive cycles until `seconds` of op time
        were spent, at least MIN_OPS ops were attempted and the last round of
        variant rotations is whole."""
        k, rounds = 0, ops.round_cycles(self.workload)
        while self.spent < seconds or self.attempted < MIN_OPS or k % rounds:
            yield k, ops.cycle(self.workload, self.seed, k)
            k += 1


def measure(cli, workload: str, seed: int, seconds: float) -> tuple:
    loop = Loop(cli, workload, seed)
    for _, batch in loop.cycles(seconds):
        loop.run(batch)
    lat = sorted(dt for *_, dt in loop.log)
    metrics = {
        "ops_per_s": len(lat) / loop.spent,
        "op_p50_ms": 1e3 * lat[(len(lat) - 1) // 2],
        # Nearest rank: at least ten samples lie above it, as a run has >= MIN_OPS ops.
        "op_p90_ms": 1e3 * lat[-(len(lat) // 10) - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, loop


def measure_traced(cli, workload: str, seed: int, seconds: float) -> tuple:
    """Run each cycle untraced and traced, alternating which goes first."""
    tracer = tracing.Tracer()
    loop = Loop(cli, workload, seed)
    plain = traced = 0.0
    for k, batch in loop.cycles(seconds):
        for with_trace in (k % 2 == 1, k % 2 == 0):
            if not with_trace:
                plain += loop.run(batch)
                continue
            tracer.install()
            try:
                for op in batch:
                    traced += loop.run([op])
                    tracer.op += 1
            finally:
                tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, tracer.op, traced / plain - 1.0)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"names": tracer.names, "spans": tracer.spans}, fh)
    return metrics, loop


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    setup_s, cli, failures = setup(workload, seed)
    if traced:
        metrics, loop = measure_traced(cli, workload, seed, seconds)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics, loop = measure(cli, workload, seed, seconds)
        runs = [setup_s] + [setup_probe(workload, seed) for _ in range(SETUP_RUNS - 1)]
        metrics["setup_s"] = statistics.median(runs)
        units = dict(END_TO_END)
    failures += loop.failures
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    env = fingerprint(seed)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump({"workload": workload, "env": env, "failures": failures, **result, "ops": loop.log}, fh)
    print(f"# {workload} seed={seed} env={json.dumps(env, sort_keys=True)}")
    print(f"{workload} ops={loop.attempted} fail_frac={len(loop.failures) / loop.attempted:.6g}")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    return result


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    """Each workload in its own child process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ops.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*ops.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "seqtomo" / "__init__.py").is_file():
        print(f"error: no seqtomo sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_s, _, failures = setup(args.workload, args.seed)
        print("\n".join(failures), file=sys.stderr)
        print(json.dumps({"setup_s": setup_s}))
        return 1 if failures else 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
