"""Tests of the benchmark itself: op generation, oracle checks and tracing.

Run from the repository root: python -m pytest seqbench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "seqbench"), str(ROOT / "src")]

import ops  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from seqtomo import cli  # noqa: E402


def _run(op) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(op.argv)
    return code, out.getvalue()


def _op(protocol: str, n: int, variant: tuple, seed: int = 0):
    return ops.make_op(protocol, n, variant, np.random.default_rng(seed))


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_same_seed_same_ops(workload):
    def argvs(seed):
        return [op.argv for k in range(2) for op in ops.cycle(workload, seed, k)] + [
            op.argv for op in ops.warmup_ops(workload, seed)
        ]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_cycles_cover_the_shape_multiset(workload):
    for k in range(3):
        counts = {}
        for op in ops.cycle(workload, 5, k):
            counts[(op.protocol, op.n)] = counts.get((op.protocol, op.n), 0) + 1
        assert counts == ops.WORKLOADS[workload]


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_a_round_covers_each_variant_equally(workload):
    rounds = ops.round_cycles(workload)
    for (protocol, _), w in ops.WORKLOADS[workload].items():
        period = {"seqst-state": 6, "standard-qst": 2}.get(protocol, 8)
        assert all(ops.variant_at(protocol, i) == ops.variant_at(protocol, i + period) for i in range(period))
        assert rounds * w % period == 0


@pytest.mark.parametrize("variant", ["zoo-flip", "zoo-depol"])
def test_zoo_products_have_one_factor_per_qubit(variant):
    rng = np.random.default_rng(3)
    for n in range(1, 5):
        for _ in range(20):
            names = [f["name"] for f in ops.channel_spec(n, variant, rng)["params"]["factors"]]
            assert len(names) == n
            assert names.count("depolarizing") == (variant == "zoo-depol")


@pytest.mark.parametrize(
    "protocol,n,variant",
    [
        ("seqst-qpt", 2, ("kraus2",)),
        ("seqst-qpt", 1, ("zoo-depol",)),
        ("seqst-state", 3, ("mixed", "haar")),
        ("seqst-state", 2, ("pure", "pauli")),
        ("seqst-state", 2, ("mixed", "computational")),
        ("dcqd-diag", 2, ("zoo-depol",)),
        ("aapt", 1, ("kraus4",)),
        ("validate", 2, ("kraus1",)),
        ("standard-qst", 3, ("pure",)),
        ("standard-qst", 2, ("mixed",)),
        ("seqst-state", 6, ("mixed", "haar")),
    ],
)
def test_oracle_accepts_correct_reports(protocol, n, variant):
    op = _op(protocol, n, variant)
    code, out = _run(op)
    assert oracle.check(op, code, out) is None


def test_oracle_flags_perturbed_circuit_exact():
    op = _op("seqst-qpt", 1, ("kraus2",))
    code, out = _run(op)
    report = json.loads(out)
    report["results"]["circuit_exact"][0] += 1e-6
    assert "oracle deviation" in oracle.check(op, code, json.dumps(report))


def test_oracle_flags_nonzero_exit():
    op = _op("seqst-qpt", 1, ("kraus2",))
    _, out = _run(op)
    assert oracle.check(op, 2, out) == "exit code 2"


def test_oracle_flags_wrong_state_and_basis():
    op = _op("seqst-state", 2, ("mixed", "haar"))
    code, out = _run(op)
    op.basis = {"kind": "haar", "seed": op.basis["seed"] + 1}
    assert oracle.check(op, code, out) is not None
    op = _op("standard-qst", 2, ("mixed",))
    code, out = _run(op)
    op.state = {**op.state, "seed": op.state["seed"] + 1}
    assert oracle.check(op, code, out) is not None


def test_run_measures_at_least_min_ops():
    metrics, loop = run.measure(cli, "selective", 1, 0.0)
    assert loop.attempted >= run.MIN_OPS and not loop.failures
    lat = sorted(dt for *_, dt in loop.log)
    assert sum(dt > metrics["op_p90_ms"] / 1e3 for dt in lat) >= 10


def test_self_time_subtracts_child_coverage():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6].
    spans = [(0, -1, 0.0, 10.0, 0), (1, 0, 1.0, 3.0, 0), (1, 0, 4.0, 8.0, 0), (2, 2, 5.0, 6.0, 0)]
    calls, self_s = tracing.self_times(spans, 3)
    assert calls == [1, 2, 1]
    assert self_s == pytest.approx([4.0, 5.0, 1.0])


def test_tracer_rebinds_every_namespace_and_restores():
    import seqtomo.channels
    import seqtomo.qpt

    original = seqtomo.channels.choi_state
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert seqtomo.qpt.choi_state is seqtomo.channels.choi_state is not original
        op = _op("seqst-qpt", 1, ("kraus2",))
        code, out = _run(op)
    finally:
        tracer.uninstall()
    assert seqtomo.qpt.choi_state is seqtomo.channels.choi_state is original
    assert oracle.check(op, code, out) is None
    totals = tracer.totals()
    assert totals["channels.choi_state"][0] == 2
    assert totals["cli.main"][0] == 1
    metrics = tracing.layer_metrics(tracer, 1, 0.0)
    assert metrics["estimation.shots"] == 2 * 2952
    assert metrics["pauli.pauli_basis.hit_ratio"] > 0
    # Layer self times partition the root span.
    root = next(s for s in tracer.spans if s[1] == -1)
    assert sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(root[3] - root[2])


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(ops.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "ops_per_s",
        "op_p50_ms",
        "op_p90_ms",
        "setup_s",
        "peak_rss_mb",
    }
