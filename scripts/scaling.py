"""Largest n per protocol: time and max RSS of one `seqtomo run` at each n, and the oracles it reports.

For every protocol, runs `python -m seqtomo.cli run --seed n` at
n = 1..ceiling + 1 on a rank-2 channel (bit_flip ⊗ identity), a random_mixed
state or, in the pure-state row, the plus state read at a = b = 0 in the
Pauli-X basis. There alpha_00 = 1, so the X runs are certain and the Y runs
draw p = (1/2, 1/2, 0), the largest variance of a run. Runs one child
process at a time and records its wall time, max RSS (the child's own
rusage) and exit code. From each report it records the oracle check the
report carries, and for sampled protocols the largest abs_error beside the
plan's epsilon. Fails unless every n up to the ceiling exits 0 with every
oracle check within ORACLE_TOL, and ceiling + 1 exits 3. Writes
BENCH_scaling.json at the repository root.

    python scripts/scaling.py
"""

import json
import multiprocessing
import os
import platform
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_PAULI_X = json.dumps({"kind": "pauli", "axis": "X"})
_PAULI_Y = json.dumps({"kind": "pauli", "axis": "Y"})
# protocol label -> (largest n, argv after `run` for n qubits)
PROTOCOLS = {
    "seqst-state": (10, lambda n: ["--state", _state(n), "--a", "0", "--b", "1"]),
    "seqst-state --basis pauli-Y": (10, lambda n: ["--state", _state(n), "--basis", _PAULI_Y, "--a", "0", "--b", "1"]),
    "seqst-state plus --basis pauli-X": (
        20,
        lambda n: ["--state", json.dumps({"kind": "plus", "n": n}), "--basis", _PAULI_X, "--a", "0", "--b", "0"],
    ),
    "standard-qst": (9, lambda n: ["--state", _state(n)]),
    "aapt": (4, lambda n: ["--channel", _channel(n)]),
    "dcqd-diag --target all-diagonal": (9, lambda n: ["--channel", _channel(n), "--target", "all-diagonal"]),
    "dcqd-diag --a 1": (10, lambda n: ["--channel", _channel(n), "--a", "1"]),
    "seqst-qpt": (10, lambda n: ["--channel", _channel(n), "--a", "1", "--b", "2"]),
    "seqpt": (10, lambda n: ["--channel", _channel(n), "--a", "1", "--b", "2", "--n-states", "10"]),
    "validate": (5, lambda n: ["--channel", _channel(n)]),
}
# The largest deviation an oracle check may report.
ORACLE_TOL = 1e-9


def _state(n: int) -> str:
    return json.dumps({"kind": "random_mixed", "n": n, "seed": 1})


def _channel(n: int) -> str:
    factors = [{"name": "bit_flip", "params": {"p": 0.3}}] + [{"name": "identity", "params": {"n": n - 1}}] * (n > 1)
    return json.dumps({"name": "tensor", "params": {"factors": factors}})


def oracle_check(protocol: str, n: int, results: dict) -> dict:
    """What a report says of its oracles: the deviation each check measures, and the sampling error.

    ``oracle_deviation`` is, per protocol, |circuit_exact - exact| (seqst-qpt),
    the reported oracle differences (dcqd-diag, aapt), the Haar-average
    identity avg_x = (D Re chi_ab + delta_ab)/(D + 1), avg_y = D Im chi_ab/(D + 1)
    (seqpt), and 0 for a validate report whose all_valid is true (inf if not).
    """
    check = {}
    if protocol == "seqst-qpt":
        check["oracle_deviation"] = abs(complex(*results["circuit_exact"]) - complex(*results["exact"]))
    elif protocol == "dcqd-diag":
        check["oracle_deviation"] = results["oracle_diagonal_max_abs_diff"]
    elif protocol == "aapt":
        check["oracle_deviation"] = results["oracle_max_abs_diff"]
    elif protocol == "validate":
        check["oracle_deviation"] = 0.0 if results["all_valid"] is True else float("inf")
    elif protocol == "seqpt":
        d, chi, avg = 2**n, complex(*results["exact"]), results["exact_average"]
        delta = float(results["estimate"]["a"] == results["estimate"]["b"])
        check["oracle_deviation"] = max(
            abs(avg["x"] - (d * chi.real + delta) / (d + 1)), abs(avg["y"] - d * chi.imag / (d + 1))
        )
    if "plan" in results:
        rows = results.get("diagonal", [results])
        check["abs_error"] = max(row["abs_error"] for row in rows)
        check["epsilon"] = results["plan"]["epsilon"]
    return check


def measure(protocol: str, n: int, argv: list) -> dict:
    """One child's exit code, wall seconds, max RSS in MB and, on exit 0, the ``oracle_check`` of its report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    report = protocol != "standard-qst"  # whose report carries no oracle
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out if report else subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        child.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        check = oracle_check(protocol, n, json.load(out)["results"]) if report and code == 0 else {}
    return {"n": n, "exit": code, "seconds": round(seconds, 3), "max_rss_mb": round(usage.ru_maxrss / 1024, 1), **check}


def main() -> int:
    table, failures = {}, []
    for label, (ceiling, args) in PROTOCOLS.items():
        protocol = label.split()[0]
        runs = []
        for n in range(1, ceiling + 2):
            argv = [sys.executable, "-m", "seqtomo.cli", "run", "--protocol", protocol, "--seed", str(n), *args(n)]
            # A child's max RSS counts that of the process it was spawned from, so each
            # is spawned from a fresh fork of this process, before any report is parsed.
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as fresh:
                runs.append(fresh.submit(measure, protocol, n, argv).result())
            print(label, runs[-1], flush=True)
        exits_ok = [r["exit"] for r in runs] == [0] * ceiling + [3]
        # Written so that a NaN deviation fails too.
        if not exits_ok or not all(r.get("oracle_deviation", 0.0) <= ORACLE_TOL for r in runs):
            failures.append(label)
        table[label] = {"largest_n": ceiling, "at_largest": runs[ceiling - 1], "runs": runs}
    machine = {"python": platform.python_version(), "cpus": os.cpu_count(), "OPENBLAS_NUM_THREADS": 1}
    out = ROOT / "BENCH_scaling.json"
    out.write_text(json.dumps({"machine": machine, "oracle_tol": ORACLE_TOL, "protocols": table}, indent=2) + "\n")
    print(f"wrote {out}; ceilings or oracle checks not met: {failures or 'none'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
