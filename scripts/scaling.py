"""Largest n per protocol: time and max RSS of one `seqtomo run` at each n.

For every protocol, runs `python -m seqtomo.cli run` at n = 1..ceiling + 1
on a rank-2 channel (bit_flip ⊗ identity) or a random_mixed state, one
child process at a time, and records its wall time, max RSS (the child's
own rusage) and exit code. Fails unless every n up to the ceiling exits 0
and ceiling + 1 exits 3. Writes BENCH_scaling.json at the repository root.

    python scripts/scaling.py
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# protocol label -> (largest n, argv after `run` for n qubits)
PROTOCOLS = {
    "seqst-state": (10, lambda n: ["--state", _state(n), "--a", "0", "--b", "1"]),
    "standard-qst": (9, lambda n: ["--state", _state(n)]),
    "aapt": (4, lambda n: ["--channel", _channel(n)]),
    "dcqd-diag --target all-diagonal": (9, lambda n: ["--channel", _channel(n), "--target", "all-diagonal"]),
    "dcqd-diag --a 1": (10, lambda n: ["--channel", _channel(n), "--a", "1"]),
    "seqst-qpt": (10, lambda n: ["--channel", _channel(n), "--a", "1", "--b", "2"]),
    "seqpt": (6, lambda n: ["--channel", _channel(n), "--a", "1", "--b", "2", "--n-states", "10"]),
    "validate": (5, lambda n: ["--channel", _channel(n)]),
}


def _state(n: int) -> str:
    return json.dumps({"kind": "random_mixed", "n": n, "seed": 1})


def _channel(n: int) -> str:
    factors = [{"name": "bit_flip", "params": {"p": 0.3}}] + [{"name": "identity", "params": {"n": n - 1}}] * (n > 1)
    return json.dumps({"name": "tensor", "params": {"factors": factors}})


def run(argv: list) -> dict:
    """One child: its exit code, wall seconds and max RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"exit": code, "seconds": round(seconds, 3), "max_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def main() -> int:
    table, failures = {}, []
    for label, (ceiling, args) in PROTOCOLS.items():
        protocol = label.split()[0]
        runs = []
        for n in range(1, ceiling + 2):
            argv = [sys.executable, "-m", "seqtomo.cli", "run", "--protocol", protocol, *args(n)]
            runs.append({"n": n, **run(argv)})
            print(label, runs[-1], flush=True)
        if [r["exit"] for r in runs] != [0] * ceiling + [3]:
            failures.append(label)
        table[label] = {"largest_n": ceiling, "at_largest": runs[ceiling - 1], "runs": runs}
    machine = {"python": platform.python_version(), "cpus": os.cpu_count(), "OPENBLAS_NUM_THREADS": 1}
    out = ROOT / "BENCH_scaling.json"
    out.write_text(json.dumps({"machine": machine, "protocols": table}, indent=2) + "\n")
    print(f"wrote {out}; ceilings not met: {failures or 'none'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
