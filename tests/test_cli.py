import contextlib
import csv
import io
import json
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqtomo import channel_zoo, channels, cli, core, kraus_to_chi, qpt, seqst
from seqtomo.cli import main, render_report
from seqtomo.errors import ConfigError


def run_cli(args, out_path=None):
    argv = list(args)
    if out_path is not None:
        argv += ["--out", str(out_path)]
    return main(argv)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def real_pairs(values: np.ndarray) -> list:
    """The [re, im] pairs of a real vector or matrix, as explicit values in a spec spell them."""
    return np.stack([values, np.zeros_like(values)], axis=-1).tolist()


def nested_compose(depth: int) -> str:
    """The JSON text of a channel spec of ``depth`` compose levels, one inside the next.

    Spelled as text: json.dumps itself recurses once per level.
    """
    inner = '{"name": "compose", "params": {"first": ' * depth + '{"name": "identity"}'
    return inner + ', "then": {"name": "identity"}}}' * depth


class TestRun:
    def test_validate_protocol(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["run", "--protocol", "validate", "--channel", "depolarizing:p=0.2"], out)
        assert code == 0
        report = load_json(out)
        assert report["results"]["all_valid"] is True
        for predicate in ("hermitian", "trace_preserving", "completely_positive"):
            assert report["results"]["validity"][predicate]["ok"] is True

    def test_validate_subcommand_shorthand(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["validate", "--channel", "amplitude_damping:gamma=0.3"], out) == 0
        assert load_json(out)["results"]["all_valid"] is True

    def test_validate_subcommand_refuses_another_protocol(self, tmp_path, capsys):
        assert main(["validate", "--protocol", "aapt", "--channel", "identity"]) == 2
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"protocol": "seqst-qpt", "channel": {"name": "identity"}}))
        assert main(["validate", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error: the validate command runs protocol validate, not ") == 2
        assert run_cli(["validate", "--protocol", "validate", "--channel", "identity"], tmp_path / "r.json") == 0

    def test_dcqd_identity_diagonal(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["run", "--protocol", "dcqd-diag", "--channel", "identity", "--target", "all-diagonal", "--seed", "4"],
            out,
        )
        assert code == 0
        diag = load_json(out)["results"]["diagonal"]
        assert [d["exact"] for d in diag] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-9)
        assert [d["frequency"] for d in diag] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-9)

    @staticmethod
    def spy(monkeypatch, owner, name):
        calls, original = [], getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
        return calls

    def test_dcqd_and_aapt_run_without_the_dense_dual_state(self, tmp_path, monkeypatch):
        density_inits = self.spy(monkeypatch, core.DensityMatrix, "__init__")
        gate_lists = self.spy(monkeypatch, qpt, "_entangling_gates")
        spec = json.dumps({"name": "tensor", "params": {"factors": [{"name": "depolarizing", "params": {"p": 0.3}}] * 2}})
        for protocol, target in (("dcqd-diag", "all-diagonal"), ("aapt", "all")):
            args = ["run", "--protocol", protocol, "--channel", spec, "--target", target]
            assert run_cli(args, tmp_path / "report.json") == 0
        assert density_inits == []
        # Each run prepares |Phi> and reads the Bell basis with the one U_Phi list.
        assert gate_lists == [(2,)] * 4

    def test_seqst_qpt_runs_without_the_dense_dual_state(self, tmp_path, monkeypatch):
        density_inits = self.spy(monkeypatch, core.DensityMatrix, "__init__")
        gate_lists = self.spy(monkeypatch, qpt, "_entangling_gates")
        spec = json.dumps({"name": "tensor", "params": {"factors": [{"name": "depolarizing", "params": {"p": 0.3}}] * 3}})
        args = ["run", "--protocol", "seqst-qpt", "--channel", spec, "--a", "27", "--b", "6"]
        assert run_cli(args, tmp_path / "report.json") == 0
        assert density_inits == []
        # The oracle prepares |Phi> and undoes it with the one U_Phi list that
        # entangled_state_circuit runs and counts.
        assert gate_lists == [(3,), (3,)]
        res = load_json(tmp_path / "report.json")["results"]
        assert res["circuit_exact"] == pytest.approx(res["exact"], abs=1e-13)

    def test_two_seqst_qpt_runs_prepare_phi_once(self, tmp_path, monkeypatch):
        qpt._phi_diagonal.cache_clear()
        preparations = self.spy(monkeypatch, qpt, "PreparationBasis")
        args = ["run", "--protocol", "seqst-qpt", "--channel", "bit_flip:p=0.3", "--a", "1", "--b", "2"]
        for seed in ("1", "2"):
            assert run_cli(args + ["--seed", seed], tmp_path / "report.json") == 0
        assert preparations == [(2, tuple(qpt._entangling_gates(1)))]

    def test_seqst_qpt_within_planned_precision(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "run",
                "--protocol",
                "seqst-qpt",
                "--channel",
                "amplitude_damping:gamma=0.3",
                "--a",
                "0",
                "--b",
                "3",
                "--epsilon",
                "0.05",
                "--delta",
                "0.05",
                "--seed",
                "7",
            ],
            out,
        )
        assert code == 0
        res = load_json(out)["results"]
        assert res["abs_error"] <= 0.05 * 1.5  # per-axis budget, modulus slack
        assert abs(res["estimate"]["re"] - res["exact"][0]) <= 0.05

    def test_seqst_state_run(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "run",
                "--protocol",
                "seqst-state",
                "--state",
                '{"kind": "plus", "n": 1}',
                "--a",
                "0",
                "--b",
                "1",
                "--epsilon",
                "0.05",
                "--delta",
                "0.05",
                "--seed",
                "3",
            ],
            out,
        )
        assert code == 0
        res = load_json(out)["results"]
        assert res["exact"] == [pytest.approx(0.5), pytest.approx(0.0)]
        assert abs(res["estimate"]["re"] - 0.5) <= 0.05

    def test_standard_qst_run(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["run", "--protocol", "standard-qst", "--state", '{"kind": "zero", "n": 1}'], out
        )
        assert code == 0
        values = {e["label"]: e["value"] for e in load_json(out)["results"]["expectations"]}
        assert values == pytest.approx({"I": 1.0, "X": 0.0, "Y": 0.0, "Z": 1.0})

    def test_aapt_run_with_oracle(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["run", "--protocol", "aapt", "--channel", "bit_flip:p=0.25"], out)
        assert code == 0
        res = load_json(out)["results"]
        assert res["oracle_max_abs_diff"] < 1e-8
        assert res["chi"][0][0] == [pytest.approx(0.75), pytest.approx(0.0)]
        assert res["chi"][1][1] == [pytest.approx(0.25), pytest.approx(0.0)]

    def test_seqpt_run(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "run",
                "--protocol",
                "seqpt",
                "--channel",
                "depolarizing:p=0.2",
                "--a",
                "0",
                "--b",
                "0",
                "--n-states",
                "20",
                "--epsilon",
                "0.1",
                "--delta",
                "0.05",
                "--seed",
                "2",
            ],
            out,
        )
        assert code == 0
        res = load_json(out)["results"]
        assert abs(res["estimate"]["re"] - 0.85) < 0.1 * 1.5
        assert res["exact"] == [pytest.approx(0.85), pytest.approx(0.0)]
        assert res["exact_average"]["x"] == pytest.approx((2 * 0.85 + 1) / 3)

    def test_haar_state_and_basis_with_workers(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "run",
                "--protocol",
                "seqst-state",
                "--state",
                '{"kind": "haar", "n": 2, "seed": 5}',
                "--basis",
                '{"kind": "haar", "seed": 6}',
                "--a",
                "1",
                "--b",
                "2",
                "--epsilon",
                "0.1",
                "--seed",
                "9",
                "--workers",
                "3",
            ],
            out,
        )
        assert code == 0
        res = load_json(out)["results"]
        assert res["basis"] == "random-unitary"
        assert res["abs_error"] <= 0.1 * 1.5

    def test_ghz_in_pauli_x_basis(self, tmp_path):
        # <++|GHZ><GHZ|--> = 1/2
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "run",
                "--protocol",
                "seqst-state",
                "--state",
                '{"kind": "ghz", "n": 2}',
                "--basis",
                '{"kind": "pauli", "axis": "X"}',
                "--a",
                "0",
                "--b",
                "3",
                "--seed",
                "2",
            ],
            out,
        )
        assert code == 0
        res = load_json(out)["results"]
        assert res["exact"] == [pytest.approx(0.5), pytest.approx(0.0)]

    def test_report_embeds_config_and_version(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli(["run", "--protocol", "validate", "--channel", "identity"], out)
        report = load_json(out)
        assert report["version"]
        assert report["config"]["protocol"] == "validate"
        assert report["config"]["channel"] == {"name": "identity", "params": {}}
        assert "timing_seconds" in report

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(
            [
                "run",
                "--protocol",
                "dcqd-diag",
                "--channel",
                "bit_flip:p=0.5",
                "--target",
                "all-diagonal",
                "--seed",
                "1",
                "--format",
                "csv",
            ],
            out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# seqtomo ")
        assert lines[1].startswith("# config:")
        rows = list(csv.reader(lines[2:]))
        assert rows[0] == ["k", "label", "exact", "frequency", "stderr"]
        assert len(rows) == 5

    def test_aapt_csv_lists_every_chi_entry(self, tmp_path):
        out = tmp_path / "report.csv"
        args = ["run", "--protocol", "aapt", "--channel", "amplitude_damping:gamma=0.3", "--format", "csv"]
        assert run_cli(args, out) == 0
        rows = list(csv.reader(out.read_text().splitlines()[2:]))
        assert rows[0] == ["m", "n", "label_m", "label_n", "re", "im"]
        chi = kraus_to_chi(channel_zoo("amplitude_damping", gamma=0.3))
        cells = [[str(m), str(k), a, b] for m, a in enumerate("IXYZ") for k, b in enumerate("IXYZ")]
        assert [row[:4] for row in rows[1:]] == cells
        got = np.array([complex(float(re), float(im)) for *_, re, im in rows[1:]]).reshape(4, 4)
        np.testing.assert_allclose(got, chi, rtol=0, atol=1e-12)


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "protocol": "dcqd-diag",
                    "channel": {"name": "depolarizing", "params": {"p": 0.2}},
                    "target": "all-diagonal",
                    "seed": 1,
                }
            )
        )
        out = tmp_path / "report.json"
        code = run_cli(["run", "--config", str(cfg), "--seed", "99"], out)
        assert code == 0
        assert load_json(out)["config"]["seed"] == 99

    def test_missing_channel_is_config_error(self):
        assert run_cli(["run", "--protocol", "aapt"]) == 2

    def test_unknown_channel_is_config_error(self):
        assert main(["run", "--protocol", "validate", "--channel", "warp"]) == 2

    def test_unknown_protocol_in_config_file(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"protocol": "bogus", "channel": {"name": "identity"}}))
        assert run_cli(["run", "--config", str(cfg)]) == 2

    def test_bad_protocol_flag_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", "run", "--protocol", "bogus"], capture_output=True
        )
        assert proc.returncode == 2

    def test_mismatched_target_is_config_error(self):
        args = ["run", "--protocol", "seqst-qpt", "--channel", "identity", "--a", "0", "--b", "1", "--target", "all"]
        assert main(args) == 2

    @pytest.mark.parametrize("field, value", [("protocol", "bogus"), ("target", "everything"), ("format", "xml")])
    def test_bad_flag_value_is_judged_like_a_config_value(self, tmp_path, capsys, field, value):
        # The config layer judges a value, whether a flag or a config file holds it; argparse only types it.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: value}))
        flags = {"protocol": "--protocol=aapt", "channel": "--channel=identity", field: f"--{field}={value}"}
        rest = [flag for key, flag in flags.items() if key != field]
        errors = []
        for argv in (["run", *rest, flags[field]], ["run", *rest, "--config", str(path)]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            errors.append(err)
        assert errors[0] == errors[1]

    @pytest.mark.parametrize(
        "protocol, args, hint",
        [
            ("seqst-state", ["--state", '{"kind": "zero"}', "--b", "0"], ""),
            ("seqst-qpt", ["--channel", "identity", "--b", "1"], ""),
            ("seqpt", ["--channel", "identity", "--b", "1", "--n-states", "1"], ""),
            ("dcqd-diag", ["--channel", "identity"], " (or target=all-diagonal)"),
        ],
    )
    def test_missing_index_a_hints_only_a_target_its_runner_takes(self, capsys, protocol, args, hint):
        assert main(["run", "--protocol", protocol, *args]) == 2
        assert capsys.readouterr().err == f"error: protocol {protocol} needs index a{hint}\n"

    # A valid config holding each field, for the test below.
    FIELD_CONFIGS = [
        {
            "protocol": "seqst-qpt",
            "channel": {"name": "depolarizing", "params": {"p": 0.2}},
            "a": 1,
            "b": 2,
            "epsilon": 0.2,
            "delta": 0.1,
            "seed": 3,
            "workers": 2,
            "format": "csv",
            "out": "report.txt",
        },
        {"protocol": "seqst-state", "state": {"kind": "ghz", "n": 2}, "basis": {"kind": "haar"}, "a": 0, "b": 3},
        {"protocol": "dcqd-diag", "channel": {"name": "bit_flip", "params": {"p": 0.1}}, "target": "all-diagonal"},
        {"protocol": "seqpt", "channel": {"name": "identity"}, "a": 1, "b": 1, "n_states": 2},
    ]

    @pytest.mark.parametrize("field", [f.name for f in fields(cli.ExperimentConfig)])
    def test_flag_and_config_file_give_one_report(self, tmp_path, monkeypatch, capsys, field):
        monkeypatch.chdir(tmp_path)
        config = next(c for c in self.FIELD_CONFIGS if field in c)
        Path("config.json").write_text(json.dumps({field: config[field]}))
        values = {key: value if isinstance(value, str) else json.dumps(value) for key, value in config.items()}
        flags = {key: f"--{key.replace('_', '-')}={value}" for key, value in values.items()}
        rest = [flag for key, flag in flags.items() if key != field]
        reports = []
        for argv in (["run", *rest, flags[field]], ["run", *rest, "--config", "config.json"]):
            assert main(argv) == 0
            text = capsys.readouterr().out + (Path("report.txt").read_text() if "out" in config else "")
            reports.append(TestParserReuse.masked(text))
        assert reports[0] == reports[1] and reports[0]

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"protocol": "validate", "channel": {"name": "identity"}, "zzz": 1}))
        assert run_cli(["run", "--config", str(cfg)]) == 2

    def test_index_out_of_range_is_config_error(self):
        args = ["run", "--protocol", "seqst-qpt", "--channel", "identity", "--a", "0", "--b", "9"]
        assert main(args) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            '{"kraus": []}',
            '{"name": "tensor", "params": {"factors": []}}',
            '{"kraus": [[1]]}',
            "bit_flip:p=0.1,n=3",
            "bit_flip:p=0.1,q=3",
            "unitary:gate=h,n=3",
            "identity:n=1.7",
            "identity:n=true",
            "identity:n=-1",
            '{"name": "unitary", "params": {"u": [[1, 0], [0, 2]]}}',
            '{"name": "unitary", "params": {"u": []}}',
            '{"name": "unitary", "params": {"u": {}}}',
            '{"name": "identity", "params": [1]}',
            "depolarizing:p=null",
            "depolarizing:p=true",
            '{"name": ["identity"]}',
            '{"kraus": [[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
            '{"name": "identity", "foo": 1}',
            '{"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "params": {}}',
            '{"params": {}}',
            '{"name": "tensor", "params": {"factors": [{"name": "identity"}], "bogus": 1}}',
            '{"name": "tensor", "params": {}}',
            '{"name": "compose", "params": {"first": {"name": "identity"}, "then": {"name": "identity"}, "n": 5}}',
            '{"name": "compose", "params": {"first": {"name": "identity"}}}',
            json.dumps({"kraus": [real_pairs(np.eye(3))]}),
        ],
    )
    def test_malformed_channel_spec_exits_two_without_traceback(self, spec):
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", "validate", "--channel", spec], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"name": "tensor", "params": {"factors": [{"name": "identity"}], "bogus": 1}}', "parameter(s) ['bogus']"),
            ('{"name": "compose", "params": {"first": {"name": "identity"}, "then": {"name": "identity"}, "n": 5}}', "['n']"),
            ('{"name": "compose", "params": {"first": {"name": "identity"}}}', "needs the parameter(s) ['then']"),
            ('{"name": "tensor", "params": {}}', "needs the parameter(s) ['factors']"),
            (json.dumps({"kraus": [real_pairs(np.eye(3))]}), "dimension 3 is not 2^n"),
        ],
    )
    def test_combinator_and_kraus_refusals_name_the_fault(self, capsys, spec, message):
        assert main(["validate", "--channel", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec, n",
        [
            ("unitary:gate=cnot,n=2", 2),
            ("unitary:gate=h,n=1", 1),
            (json.dumps({"name": "unitary", "params": {"u": [[0.5**0.5, 0.5**0.5], [0.5**0.5, -(0.5**0.5)]]}}), 1),
        ],
    )
    def test_unitary_with_matching_n_runs(self, tmp_path, spec, n):
        out = tmp_path / "report.json"
        assert run_cli(["validate", "--channel", spec], out) == 0
        assert load_json(out)["results"]["n"] == n
        assert load_json(out)["results"]["all_valid"] is True

    @pytest.mark.parametrize(
        "spec",
        [
            "identity:n=20",
            json.dumps({"name": "tensor", "params": {"factors": [{"name": "bit_flip", "params": {"p": 0.1}}] * 20}}),
        ],
    )
    def test_oversized_channel_exits_three_without_traceback(self, spec):
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", "validate", "--channel", spec],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind": "matrix", "values": [[1]]}',
            '{"kind": "amplitudes", "values": [1, 0]}',
            '{"kind": "zero", "n": -1}',
            '{"kind": "zero", "n": 0}',
            '{"kind": "zero", "n": 1, "q": 4}',
            '{"kind": "plus", "n": 1.7}',
        ],
    )
    def test_malformed_state_spec_exits_two_without_traceback(self, spec):
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", "run", "--protocol", "standard-qst", "--state", spec],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "spec",
        [
            "[1]",
            '"x"',
            "{}",
            '{"kind": "pauli", "axis": 3}',
            '{"kind": "pauli", "axis": "Q"}',
            '{"kind": "haar", "seed": 1.7}',
            '{"kind": "haar", "seed": true}',
            '{"kind": "haar", "seed": -1}',
            '{"kind": "computational", "axis": "Q"}',
            '{"kind": ["pauli"]}',
        ],
    )
    def test_malformed_basis_spec_exits_two_without_traceback(self, capsys, spec):
        args = ["run", "--protocol", "seqst-state", "--state", '{"kind": "plus"}', "--a", "0", "--b", "1"]
        assert main(args + ["--basis", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "config",
        [
            {"a": "0"},
            {"workers": "2"},
            {"seed": "x"},
            {"epsilon": "0.1"},
            {"a": 0.5},
            {"a": True},
            {"format": 1},
            [1, 2],
            "run",
            # values seqst-qpt never reads
            {"state": {"kind": "plus"}},
            {"basis": {"kind": "computational"}},
            {"n_states": 3},
            {"target": "all-diagonal"},
        ],
    )
    def test_mistyped_config_file_exits_two_without_traceback(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = ["run", "--protocol", "seqst-qpt", "--channel", "identity", "--b", "0"]
        assert main(args + ([] if "a" in config else ["--a", "0"]) + ["--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_config_numbers_take_ints_for_floats(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"protocol": "validate", "channel": {"name": "identity"}, "epsilon": 1}))
        out = tmp_path / "report.json"
        assert run_cli(["run", "--config", str(path)], out) == 0
        assert load_json(out)["config"]["epsilon"] == 1
        # An int delta passes the type check and meets the plan's range check.
        path.write_text(json.dumps({"protocol": "validate", "channel": {"name": "identity"}, "delta": 0}))
        assert run_cli(["run", "--config", str(path)], out) == 2
        assert capsys.readouterr().err.startswith("error: delta must be in (0, 1)")

    @pytest.mark.parametrize(
        "args, code",
        [
            ("run --protocol standard-qst --state {PLUS} --epsilon 5 --channel warp", 2),
            ('validate --channel {"name":"identity","foo":1} --state {PLUS} --a 3', 2),
            ('validate --channel {"name":"identity","foo":1}', 2),
            ("run --protocol aapt --channel identity --b 7 --n-states 3", 2),
            ('run --protocol aapt --channel identity --basis {"kind":"computational"}', 2),
            ("run --protocol seqst-state --state {PLUS} --a 0 --b 1 --n-states 1", 2),
            ("run --protocol dcqd-diag --channel identity --target all-diagonal --a 1", 2),
            ("run --protocol seqst-qpt --channel identity --a 0 --b 0 --epsilon 0.01 --workers 1000000", 3),
        ],
    )
    def test_unread_values_and_chunk_counts_end_in_their_exit(self, args, code):
        # a value the protocol never reads is an invalid config; over CHUNK_LIMIT worker chunks, a refusal
        argv = args.replace("{PLUS}", '{"kind":"plus"}').split()
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", *argv], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("epsilon", ["1e-200", "1e-10"])
    def test_shot_plan_over_one_draw_exits_three(self, capsys, epsilon):
        args = ["run", "--protocol", "seqst-qpt", "--channel", "identity", "--a", "0", "--b", "0", "--epsilon", epsilon]
        assert main(args) == 3
        assert "2**63" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ['{"kind": "plus", "n": 40}', '{"kind": "entangled", "n": 6}'])
    def test_oversized_state_exits_three_without_traceback(self, spec):
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", "run", "--protocol", "standard-qst", "--state", spec],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "spec, code",
        [
            ({"kind": "matrix", "values": real_pairs(np.eye(8) / 8)}, 3),
            ({"kind": "amplitudes", "values": real_pairs(np.eye(32)[0])}, 3),
            ({"kind": "random_mixed", "n": 3}, 3),
            ({"kind": "matrix", "values": real_pairs(np.eye(4) / 4)}, 0),
            ({"kind": "amplitudes", "values": real_pairs(np.eye(8)[0])}, 0),
        ],
    )
    def test_every_state_kind_is_sized_by_its_qubits(self, monkeypatch, spec, code):
        # Under a budget of one 2-qubit operator, 256 bytes, each mixed spelling of a 3-qubit
        # state is refused; a pure state is sized by its 2**n × 1 factor, so 3 qubits fit and 5 do not.
        monkeypatch.setattr(core, "MATRIX_MAX_BYTES", 16 * 4**2)
        args = ["run", "--protocol", "seqst-state", "--state", json.dumps(spec), "--a", "0", "--b", "1"]
        assert main(args) == code

    def test_standard_qst_refuses_its_rows_before_building_the_state(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the state was built before the row check")

        monkeypatch.setattr(cli, "random_density_matrix", refuse)
        assert main(["run", "--protocol", "standard-qst", "--state", '{"kind":"random_mixed","n":10}']) == 3
        assert "the standard-qst report" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            '{"protocol": "standard-qst", "state": ' + "[" * 100000 + "]" * 100000 + "}",
            '{"protocol": "validate", "channel": ' + nested_compose(2000) + "}",
            '{"protocol": "validate", "channel": ' + nested_compose(300) + "}",
        ],
        ids=["state-100000", "compose-2000", "compose-300"],
    )
    def test_deep_nesting_exits_two_without_traceback(self, tmp_path, config):
        # json decoding fails on the first two; the third is refused before it runs.
        path = tmp_path / "config.json"
        path.write_text(config)
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", "run", "--config", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: the config nests deeper than")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_config_past_the_depth_limit_is_refused_before_it_runs(self, tmp_path, monkeypatch, capsys):
        compositions = TestRun.spy(monkeypatch, channels, "compose_channels")
        path = tmp_path / "config.json"
        path.write_text('{"protocol": "validate", "channel": ' + nested_compose(300) + "}")
        assert main(["run", "--config", str(path)]) == 2
        assert compositions == []
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the config nests deeper than")

    def test_deepest_config_runs_and_one_level_more_is_refused(self, capsys):
        # nested_compose(k) is 2k + 1 levels deep, one more inside the config object.
        k = (cli.MAX_CONFIG_DEPTH - 2) // 2
        assert 2 * k + 2 == cli.MAX_CONFIG_DEPTH
        deepest = nested_compose(k)
        assert main(["validate", "--channel", deepest]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["channel"] == json.loads(deepest)
        # A params object inside the innermost spec adds the one level.
        deeper = deepest.replace('{"name": "identity"}', '{"name": "identity", "params": {}}', 1)
        assert main(["validate", "--channel", deeper]) == 2
        assert capsys.readouterr().err.startswith("error: the config nests deeper than")

    @pytest.mark.parametrize("opening", ["[", "[1, "], ids=["lists-only", "lists-beside-numbers"])
    def test_list_nesting_is_refused_one_level_past_the_depth_limit(self, opening):
        # The config object is one level; each list is one more, the innermost holding a float.
        def nested(lists: int) -> dict:
            return {"state": json.loads(opening * lists + "0.5" + "]" * lists)}

        cli._check_depth(nested(cli.MAX_CONFIG_DEPTH - 1))
        with pytest.raises(ConfigError, match="the config nests deeper than"):
            cli._check_depth(nested(cli.MAX_CONFIG_DEPTH))

    @pytest.mark.parametrize("protocol", ["aapt", "validate", "standard-qst"])
    @pytest.mark.parametrize("flags, code", [(["--epsilon", "5"], 2), (["--delta", "7"], 2), (["--epsilon", "1e-10"], 3)])
    def test_protocols_without_shots_check_the_plan(self, capsys, protocol, flags, code):
        # A plan no protocol would accept is refused by every one, including those that draw no shots.
        spec = ["--state", '{"kind": "plus"}'] if protocol == "standard-qst" else ["--channel", "identity"]
        assert main(["run", "--protocol", protocol, *spec, *flags]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_huge_worker_count_finishes_quickly(self):
        # only the min(workers, m) chunks that get draws are visited
        args = ["run", "--protocol", "seqst-state", "--state", '{"kind":"zero","n":1}', "--a", "0", "--b", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", *args, "--workers", "100000000"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["config"]["workers"] == 100000000

    @pytest.mark.parametrize("n, code", [(7, 0), (9, 0), (11, 3)])
    def test_validate_runs_to_the_kraus_budget_and_exits_three_past_it(self, n, code):
        # validate forms no chi, which would take 4 GiB at n = 7 and 1 TiB at n = 9; at n = 11
        # the Kraus stack itself is over the budgets and refused before it is allocated
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", "validate", "--channel", f"identity:n={n}"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code:
            assert f"a Kraus stack of 1 operator(s) on {n} qubits" in proc.stderr
            assert proc.stdout == ""
        else:
            assert json.loads(proc.stdout)["results"]["all_valid"] is True

    def test_dual_state_over_the_byte_bound_exits_three_without_traceback(self):
        # depolarizing(0.3)⊗3 ⊗ identity(7): a 1 GiB Kraus stack of rank 64 on 10 qubits,
        # which the channel budget admits and the DCQD oracle, at four such stacks, refuses;
        # one index, as the report of all 4**10 rows is refused before the oracle
        factors = [{"name": "depolarizing", "params": {"p": 0.3}}] * 3 + [{"name": "identity", "params": {"n": 7}}]
        spec = json.dumps({"name": "tensor", "params": {"factors": factors}})
        args = ["run", "--protocol", "dcqd-diag", "--a", "0", "--channel", spec]
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", *args], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert f"the chi diagonal of {channels.DIAGONAL_STACKS * 64 + 1} operator(s) on 10 qubits" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["--protocol", "seqst-qpt", "--a", "5", "--b", "7"],
            ["--protocol", "seqpt", "--a", "5", "--b", "7", "--n-states", "2"],
            ["--protocol", "dcqd-diag", "--a", "5"],
            ["--protocol", "dcqd-diag", "--target", "all-diagonal"],
        ],
    )
    def test_single_entry_protocols_build_no_chi(self, monkeypatch, capsys, args):
        def refuse(*args):
            raise AssertionError("a single-entry protocol built a whole chi")

        monkeypatch.setattr(cli, "kraus_to_chi", refuse)
        monkeypatch.setattr(channels, "kraus_to_chi", refuse)
        factors = [{"name": "depolarizing", "params": {"p": 0.2}}, {"name": "bit_flip", "params": {"p": 0.3}}]
        assert main(["run", "--channel", json.dumps({"name": "tensor", "params": {"factors": factors}}), *args]) == 0
        assert capsys.readouterr().err == ""

    def test_dcqd_index_checked_before_the_dual_state(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the index must be checked first")

        monkeypatch.setattr(cli, "kraus_to_chi", refuse)
        monkeypatch.setattr(cli, "dcqd_distribution", refuse)
        spec = json.dumps({"name": "tensor", "params": {"factors": [{"name": "depolarizing", "params": {"p": 0.3}}] * 4}})
        assert main(["run", "--protocol", "dcqd-diag", "--channel", spec, "--a", "100000"]) == 2
        assert capsys.readouterr().err == "error: index a=100000 outside [0, 256) for the Pauli basis\n"

    def test_seqpt_state_loop_over_the_chunk_limit_exits_three_quickly(self, capsys):
        args = "run --protocol seqpt --channel depolarizing:p=0.2 --a 0 --b 0 --n-states 1000000000".split()
        start = time.perf_counter()
        assert main(args) == 3
        assert time.perf_counter() - start < 2
        assert "1000000000 worker chunks exceed the limit of 4096" in capsys.readouterr().err

    def test_size_limit_exit_code(self):
        # 16**5 chi entries, one report row each
        args = ["run", "--protocol", "aapt", "--channel", '{"name": "identity", "params": {"n": 5}}']
        assert main(args) == 3


class Reached(Exception):
    """Raised by a stubbed route: every check before it passed."""

    @classmethod
    def stub(cls, *args):
        raise cls


# The ceilings that a report's rows, a chi-sized working set or a Kraus
# stack set: each protocol's argv on n qubits, its largest n, and the route
# the CLI must not reach past it, with the namespace it is looked up in.
CEILINGS = {
    "aapt": ("run --protocol aapt --channel identity:n={n}", 4, (cli, "aapt_full_chi")),
    "validate": ("validate --channel identity:n={n}", 10, (channels.KrausChannel, "validity")),
    "standard-qst": ('run --protocol standard-qst --state {"kind":"zero","n":{n}}', 9, (cli, "standard_pauli_qst")),
    "dcqd-diag": ("run --protocol dcqd-diag --target all-diagonal --channel identity:n={n}", 9, (cli, "chi_diagonal")),
}


class TestCeilings:
    @staticmethod
    def argv(protocol: str, n: int) -> list:
        return CEILINGS[protocol][0].replace("{n}", str(n)).split()

    @pytest.mark.parametrize("protocol", sorted(CEILINGS))
    def test_one_qubit_past_the_ceiling_is_refused_before_the_route(self, monkeypatch, capsys, protocol):
        _, ceiling, (owner, route) = CEILINGS[protocol]
        monkeypatch.setattr(owner, route, Reached.stub)
        with pytest.raises(Reached):
            main(self.argv(protocol, ceiling))
        assert main(self.argv(protocol, ceiling + 1)) == 3
        assert "exceeds the dense budgets" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["aapt", "validate"])
    def test_cheap_ceilings_run(self, capsys, protocol):
        assert main(self.argv(protocol, CEILINGS[protocol][1])) == 0
        assert capsys.readouterr().err == ""


def json_reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# Strings with the characters json escapes or that a % template would read.
_TEXT = st.text(st.sampled_from('%s"\\/\n\t\x00\x1f\x7fé€😀 aZ')) | st.text(max_size=8)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0])
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
    | _TEXT
)


def _containers(children):
    same_length = st.integers(0, 3).flatmap(
        lambda k: st.lists(st.lists(children, min_size=k, max_size=k), max_size=4)
    )
    same_keys = st.lists(_TEXT, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({key: children for key in keys}), max_size=4)
    )
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=5)
        | same_length
        | same_keys
        | st.lists(st.lists(st.floats(), min_size=2, max_size=2), min_size=1, max_size=6)
    )


def seqst_state_argv(state: dict, basis: str = "pauli") -> list:
    """The argv of seqst-state on a state spec, read at (0, 1) in a Pauli-Y or another basis kind."""
    spec = json.dumps({"kind": basis, "axis": "Y"} if basis == "pauli" else {"kind": basis})
    return ["run", "--protocol", "seqst-state", "--state", json.dumps(state), "--basis", spec, "--a", "0", "--b", "1"]


class TestStateFactorCeilings:
    """A state is sized by its factor: 2**n × 1 for a pure kind (n <= 20), 2**n × 2**n for a mixed one (n <= 10)."""

    def test_pure_state_at_twenty_qubits_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", *seqst_state_argv({"kind": "ghz", "n": 20})],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["results"]["n"] == 20

    def test_pure_state_at_twenty_one_qubits_is_refused_before_allocation(self, capsys):
        tracemalloc.start()
        try:
            assert main(seqst_state_argv({"kind": "ghz", "n": 21})) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a 21-qubit vector takes 32 MiB
        assert "the factor of a rank-1 state of 1 operator(s) on 21 qubits" in capsys.readouterr().err

    def test_haar_basis_is_sized_as_one_dense_operator_before_it_is_drawn(self, monkeypatch, capsys):
        monkeypatch.setattr(seqst, "haar_random_unitary", Reached.stub)
        assert main(seqst_state_argv({"kind": "ghz", "n": 11}, "haar")) == 3
        assert "a haar basis of 1 operator(s) on 11 qubits" in capsys.readouterr().err
        with pytest.raises(Reached):
            main(seqst_state_argv({"kind": "ghz", "n": 10}, "haar"))

    def test_mixed_states_stop_at_ten_qubits_before_they_are_built(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "random_density_matrix", Reached.stub)
        assert main(seqst_state_argv({"kind": "random_mixed", "n": 11})) == 3
        assert "rank-2048 state" in capsys.readouterr().err
        with pytest.raises(Reached):
            main(seqst_state_argv({"kind": "random_mixed", "n": 10}))

    def test_standard_qst_stops_a_pure_state_at_its_rows(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_state", Reached.stub)
        assert main(["run", "--protocol", "standard-qst", "--state", '{"kind": "plus", "n": 10}']) == 3
        assert "the standard-qst report" in capsys.readouterr().err

    def test_entangled_state_on_twenty_qubits_runs_and_on_twenty_two_is_refused(self, capsys):
        assert main(seqst_state_argv({"kind": "entangled", "n": 10})) == 0
        assert json.loads(capsys.readouterr().out)["results"]["n"] == 20
        assert main(seqst_state_argv({"kind": "entangled", "n": 11})) == 3
        assert "on 22 qubits" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["seqst-state", "standard-qst"])
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "amplitudes", "values": real_pairs(np.array([1.0, 0.0, 0.0]))},
            {"kind": "matrix", "values": real_pairs(np.eye(3) / 3)},
            {"kind": "amplitudes", "values": real_pairs(np.array([1.0]))},
        ],
        ids=["amplitudes-3", "matrix-3", "amplitudes-1"],
    )
    def test_state_dimension_must_be_a_power_of_two(self, capsys, protocol, spec):
        args = ["run", "--protocol", protocol, "--state", json.dumps(spec)]
        assert main(args + ["--a", "0", "--b", "0"] * (protocol == "seqst-state")) == 2
        size = len(spec["values"])
        assert capsys.readouterr().err == f"error: state dimension {size} is not 2^n for any n >= 1\n"


def _whole_basis_case(protocol: str, n: int, *flags: str) -> dict:
    depolarizing = {"name": "tensor", "params": {"factors": [{"name": "depolarizing", "params": {"p": 0.2}}] * n}}
    state = {"kind": "random_mixed", "n": n, "seed": 3}
    spec = ["--state", json.dumps(state)] if protocol == "standard-qst" else ["--channel", json.dumps(depolarizing)]
    return {"id": f"{protocol}-{n}", "argv": ["run", "--protocol", protocol, *spec, *flags]}


# Reports of every row of a basis, which the writer renders as tables; at n = 7, in several blocks.
WHOLE_BASIS_CASES = (
    [_whole_basis_case("standard-qst", n) for n in range(1, 8)]
    + [_whole_basis_case("dcqd-diag", n, "--target", "all-diagonal") for n in range(1, 5)]
    + [_whole_basis_case("aapt", n) for n in (1, 2)]
)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(st.recursive(_LEAVES, _containers, max_leaves=40))
    def test_matches_json_dumps(self, value):
        assert render_report(value, "json") == json_reference(value)

    def test_int_keys_sort_as_json_does(self):
        value = {"rows": [{2: 0.5, 10: None}, {2: 1.5, 10: True}], "x": {}}
        assert render_report(value, "json") == json_reference(value)

    # A lone dict renders its scalar cells in one pass and its nested values through the batched paths.
    @pytest.mark.parametrize(
        "value",
        [
            {"f": 0.1, "i": -(2**70), "s": 'a"%s\\né', "t": True, "u": False, "z": None, "e": "", "g": 1e300},
            {"nan": float("nan"), "inf": float("inf"), "ninf": -float("inf"), "neg0": -0.0, "np": np.float64(2.5)},
            {"word": "nan", "int": 0, "inf": "inf", "%": "%s"},
            {"list": [1, 2.5, None], "dict": {"b": [float("nan")], "a": {"c": -float("inf")}}, "x": 1},
            {"empty_list": [], "empty_dict": {}, "rows": [{"k": 1}, {"k": 2}], "mixed": [1, "a", [2]]},
            {1: "one", 10: 2.0, 2: None},
            {"outer": {3: True, 20: [0.5]}, "v": -0.0},
        ],
        ids=["scalars", "float-words", "words-in-strings", "nested", "empties", "int-keys", "int-keys-nested"],
    )
    def test_single_dict_cells_match_json_dumps(self, value):
        assert render_report(value, "json") == json_reference(value)

    # Sibling dicts with one key set are written as one table: a column per key, joined once per list.
    @pytest.mark.parametrize(
        "value",
        [
            [{"%s": 1.5, "%%": "%s", 'a"b': None}, {"%s": -2.0, "%%": "%%", 'a"b': True}],
            {"rows": [{"v": float("nan")}, {"v": float("inf")}, {"v": -float("inf")}, {"v": -0.0}, {"v": 1.0}]},
            {"rows": [{"v": 1e308}, {"v": 1e308}, {"v": -0.0}], "sums": [1e308, 1e308]},
            [{"a": 1, "b": 2}, {"a": 1, "c": 2}, {"b": 1, "c": 2}],
            [{1: "one", 10: 2.0}, {1: "uno", 10: 3.0}, {"1": 0, "10": 1}],
            [{"x": [1, [2.5]], "y": {"z": {"w": [None]}}}, {"x": [3, [4.5]], "y": {"z": {"w": [True]}}}],
            [[{"k": 0, "l": "I"}, {"k": 1, "l": "X"}], [{"k": 2, "l": "Y"}, {"k": 3, "l": "Z"}]],
            [[{"k": 3 * i + j, "v": j / 7} for j in range(3)] for i in range(4)],
            [[[{"k": 0}], [{"k": 1}]], [[{"k": 2}], [{"k": 3}]]],
            [[{"k": 0}, {"k": 1}], [{"k": 2}], [], [{"k": 3}, {"j": 4}]],
            [{}, {}, {"rows": [{}, {}]}, {"rows": [{"a": {}}, {"a": {}}]}],
            [{"k": 1}, [1], {"k": 2}, "k"],
            [{"k": np.float64(0.5)}, {"k": np.float64(float("nan"))}],
        ],
        ids=[
            "keys-percent-quote",
            "float-words-in-a-column",
            "sum-overflows",
            "other-key-sets",
            "int-keys",
            "nested-cells",
            "list-of-row-lists",
            "four-lists-of-three-rows",
            "lists-of-lists-of-rows",
            "ragged-parents",
            "empty-dicts",
            "mixed-siblings",
            "numpy-cells",
        ],
    )
    @pytest.mark.parametrize("block", [None, 1, 2, 5], ids=["block-default", "block-1", "block-2", "block-5"])
    def test_tables_match_json_dumps(self, value, block, monkeypatch):
        # Small blocks put block boundaries inside and between the lists a table's texts are.
        if block:
            monkeypatch.setattr(cli, "_TABLE_ROWS", block)
        assert render_report(value, "json") == json_reference(value)

    @pytest.mark.parametrize(
        "case",
        json.loads((Path(__file__).parent / "data" / "reports.json").read_text()) + WHOLE_BASIS_CASES,
        ids=lambda c: c["id"],
    )
    def test_golden_reports_match_json_dumps(self, case, monkeypatch):
        reports = []
        monkeypatch.setattr(cli, "render_report", lambda r, fmt: reports.append(r) or render_report(r, fmt))
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert main(case["argv"]) == 0
        assert render_report(reports[0], "json") == json_reference(reports[0])


class TestSweep:
    def test_epsilon_sweep_shows_planner(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            [
                "sweep",
                "--protocol",
                "seqst-qpt",
                "--channel",
                "depolarizing:p=0.2",
                "--a",
                "0",
                "--b",
                "0",
                "--seed",
                "5",
                "--axis",
                "epsilon",
                "--values",
                "0.2,0.1,0.05",
            ],
            out,
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["value"] for r in rows] == ["0.2", "0.1", "0.05"]
        assert [int(r["m"]) for r in rows] == [185, 738, 2952]

    def test_channel_parameter_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            [
                "sweep",
                "--protocol",
                "dcqd-diag",
                "--channel",
                "depolarizing:p=0",
                "--a",
                "1",
                "--seed",
                "5",
                "--axis",
                "channel.params.p",
                "--values",
                "0,0.5,1",
            ],
            out,
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        # chi_11 of depolarizing is p/4
        assert [r["exact"] for r in rows] == ["0+0j", "0.125+0j", "0.25+0j"]

    def test_empty_values_is_error(self):
        args = [
            "sweep",
            "--protocol",
            "dcqd-diag",
            "--channel",
            "identity",
            "--a",
            "0",
            "--axis",
            "epsilon",
            "--values",
            "",
        ]
        assert main(args) == 2

    @pytest.mark.parametrize(
        "axis, values",
        [("seed", "1.5"), ("seed", "1e400"), ("a", "0.5,1.7"), ("workers", "nan"), ("b", "1,inf")],
    )
    def test_integer_axis_refuses_non_integral_values(self, capsys, axis, values):
        # The value reaches the field's own type check.
        args = ["sweep", "--protocol", "seqst-qpt", "--channel", "identity", "--a", "0", "--b", "0"]
        assert main(args + ["--axis", axis, "--values", values]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: config field {axis!r} must be int")

    @pytest.mark.parametrize(
        "args",
        [
            ["--protocol", "seqst-state", "--state", '{"kind": "plus", "n": 1}', "--a", "0", "--b", "1"],
            ["--protocol", "seqst-qpt", "--channel", "identity:n=1", "--a", "0", "--b", "0"],
        ],
        ids=["state.n", "channel.params.n"],
    )
    def test_qubit_count_sweeps(self, tmp_path, args):
        axis = "state.n" if "--state" in args else "channel.params.n"
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", *args, "--axis", axis, "--values", "1,2,3"], out) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["value"] for r in rows] == ["1.0", "2.0", "3.0"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--protocol", "aapt", "--channel", "identity"],
            ["--protocol", "validate", "--channel", "identity"],
            ["--protocol", "standard-qst", "--state", '{"kind": "plus"}'],
            ["--protocol", "dcqd-diag", "--channel", "identity", "--target", "all-diagonal"],
            ["--protocol", "seqst-qpt", "--channel", "identity", "--a", "0", "--b", "0", "--format", "json"],
        ],
        ids=["aapt", "validate", "standard-qst", "all-diagonal", "format-json"],
    )
    def test_sweep_refuses_what_it_cannot_write_before_the_first_point(self, monkeypatch, capsys, args):
        def refuse(cfg):
            raise AssertionError("a point ran before the refusal")

        monkeypatch.setattr(cli, "execute", refuse)
        assert main(["sweep", *args, "--axis", "epsilon", "--values", "0.2,0.1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: sweep ") and err.count("\n") == 1

    def test_sweep_takes_format_csv(self, tmp_path):
        args = ["sweep", "--protocol", "seqst-qpt", "--channel", "identity", "--a", "0", "--b", "0", "--format", "csv"]
        assert run_cli([*args, "--axis", "epsilon", "--values", "0.2"], tmp_path / "sweep.csv") == 0
        assert (tmp_path / "sweep.csv").read_text().startswith("value,estimate,exact")

    @pytest.mark.parametrize("values, item", [("x", "x"), ("0.1, 0.2x", " 0.2x"), ("1,,nan,1e", "1e")])
    def test_values_that_are_no_numbers_are_refused_by_name(self, monkeypatch, capsys, values, item):
        monkeypatch.setattr(cli, "execute", Reached.stub)
        args = ["sweep", "--protocol", "dcqd-diag", "--channel", "identity", "--a", "1", "--axis", "seed"]
        assert main([*args, "--values", values]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: sweep --values takes comma-separated numbers, got {item!r}\n"

    def test_bad_axis_is_error(self):
        args = [
            "sweep",
            "--protocol",
            "dcqd-diag",
            "--channel",
            "identity",
            "--a",
            "0",
            "--axis",
            "nonsense.path",
            "--values",
            "1,2",
        ]
        assert main(args) == 2


class TestDeterminism:
    def test_reports_identical_modulo_timing(self, tmp_path):
        args = [
            sys.executable,
            "-m",
            "seqtomo.cli",
            "run",
            "--protocol",
            "seqst-qpt",
            "--channel",
            "depolarizing:p=0.2",
            "--a",
            "1",
            "--b",
            "1",
            "--epsilon",
            "0.1",
            "--delta",
            "0.05",
            "--seed",
            "21",
        ]
        out = tmp_path / "report.json"
        reports = []
        for _ in range(2):
            subprocess.run(args + ["--out", str(out)], check=True)
            data = load_json(out)
            data.pop("timing_seconds")
            reports.append(json.dumps(data, sort_keys=True))
        assert reports[0] == reports[1]


class TestParserReuse:
    # A sampling run of each selective protocol, a bad flag value, a config error and an argparse error.
    CASES = [
        ["run", "--protocol", "seqst-qpt", "--channel", "depolarizing:p=0.2", "--a", "1", "--b", "2", "--seed", "3"],
        [
            "run",
            "--protocol",
            "seqst-state",
            "--state",
            '{"kind": "ghz", "n": 2}',
            "--basis",
            '{"kind": "pauli", "axis": "Y"}',
            "--a",
            "0",
            "--b",
            "3",
            "--seed",
            "4",
        ],
        ["run", "--protocol", "bogus"],
        ["run", "--protocol", "seqst-qpt", "--channel", "identity", "--a", "0", "--b", "9"],
        ["run", "--protocol", "seqst-qpt", "--a", "x"],
    ]

    @staticmethod
    def masked(text):
        return re.sub(r'"timing_seconds": [^,\n}]+', '"timing_seconds": 0', text)

    def test_repeated_calls_match_fresh_processes(self, capsys):
        fresh = [
            subprocess.run([sys.executable, "-m", "seqtomo.cli", *argv], capture_output=True, text=True)
            for argv in self.CASES
        ]
        # Alternate the cases twice through one process and its one parser.
        for i in [0, 2, 1, 4, 3, 0, 3, 1, 4, 2]:
            try:
                code = main(self.CASES[i])
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert code == fresh[i].returncode
            assert self.masked(out) == self.masked(fresh[i].stdout)
            assert err == fresh[i].stderr
        assert [p.returncode for p in fresh] == [0, 0, 2, 2, 2]


class TestZoo:
    def test_zoo_list(self, capsys):
        # The full listing, pinned as the program printed it before the zoo became one table.
        assert main(["zoo", "list"]) == 0
        assert capsys.readouterr().out == (Path(__file__).parent / "data" / "zoo_list.txt").read_text(encoding="utf-8")


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    """The README's promises: its library quick start and every CLI example run."""

    @staticmethod
    def block(section: str, lang: str) -> str:
        text = README.read_text()
        return re.search(rf"```{lang}\n(.*?)```", text[text.index(section) :], re.S).group(1)

    def test_library_quick_start_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        exec(compile(self.block("## Library quick start", "python"), str(README), "exec"), {})
        assert capsys.readouterr().out.count("\n") == 3

    def test_cli_examples_exit_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        lines = self.block("## CLI", "sh").replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("seqtomo ")]
        assert len(commands) == 7
        for argv in commands:
            assert main(argv[1:]) == 0, argv
        assert (tmp_path / "report.json").is_file()


# Junk JSON: scalars of every JSON type, non-finite and tiny floats
# included, nested in short lists and objects.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
SMALL_N = st.integers(-1, 2) | JUNK


def _spec(kinds, keys):
    """A {"kind": ...} spec with real keys and values, one with junk in them, or junk alone."""
    real = st.fixed_dictionaries({"kind": st.sampled_from(kinds)}, optional=keys)
    junky = st.fixed_dictionaries(
        {"kind": st.sampled_from(kinds) | JUNK}, optional={key: value | JUNK for key, value in keys.items()}
    )
    return real | junky | JUNK


STATE_SPECS = _spec(sorted(cli._STATE_KEYS), {"n": st.integers(1, 2), "seed": st.integers(0, 3), "values": JUNK})
BASIS_SPECS = _spec(sorted(cli._BASIS_KEYS), {"axis": st.sampled_from("XYZxQ"), "seed": st.integers(0, 3)})
PARAMS = st.dictionaries(
    st.sampled_from(["p", "gamma", "gate", "u", "n", "factors", "first", "then"]),
    st.floats(0, 1) | st.sampled_from(["h", "cnot", "t"]) | SMALL_N,
    max_size=2,
)
ZOO_SPECS = st.sampled_from(["identity", "depolarizing:p=0.2", "amplitude_damping:gamma=0.3", "unitary:gate=cnot"]).map(
    cli._parse_channel_arg
)
CHANNEL_SPECS = st.recursive(
    ZOO_SPECS
    | st.fixed_dictionaries(
        {"name": st.sampled_from(sorted(cli.zoo_descriptions())) | JUNK}, optional={"params": PARAMS | JUNK}
    )
    | st.fixed_dictionaries({"kraus": JUNK})
    | JUNK,
    lambda inner: st.fixed_dictionaries(
        {"name": st.just("tensor"), "params": st.fixed_dictionaries({"factors": st.lists(inner, max_size=2)})}
    ),
    max_leaves=3,
)
# Plausible values for every config field; loop counts (workers, n_states)
# stay small, as their cost grows with the value by design.
FIELDS = {
    "basis": BASIS_SPECS,
    "a": st.integers(0, 3),
    "b": st.integers(0, 3),
    "epsilon": st.floats(0.01, 2) | st.floats(),
    "delta": st.floats(0.01, 0.99) | st.floats(),
    "n_states": st.integers(1, 3),
    "seed": st.integers(0, 2**64 - 1),
    "workers": st.integers(1, 3),
    "format": st.sampled_from(["json", "csv"]),
}
# The spec and index fields, which a protocol refuses unless it reads them.
PROTOCOL_FIELDS = cli._READ_FIELDS


def _read_fields(config: dict) -> dict:
    """The config without the spec and index fields its protocol does not read, so its specs get parsed."""
    reads = cli._RUNNERS[config["protocol"]].reads
    return {key: value for key, value in config.items() if key in reads or key not in PROTOCOL_FIELDS}


# A config of plausible fields, half the time cut to those its protocol
# reads, often with one field (or an unknown one) replaced by junk. A junk
# string for `out` is wrapped in a list: as a path, it would write the
# report wherever it points.
CONFIGS = st.builds(
    lambda config, key, junk: config if key is None else {**config, key: [junk] if key == "out" else junk},
    st.fixed_dictionaries(
        {"protocol": st.sampled_from(cli.PROTOCOLS), "channel": CHANNEL_SPECS, "state": STATE_SPECS}, optional=FIELDS
    ).flatmap(lambda config: st.sampled_from([config, _read_fields(config)])),
    st.sampled_from([None, None, "protocol", "channel", "state", "out", "target", "zzz", *FIELDS]),
    JUNK,
)

# Each command that reads a config file, with the flags it needs besides.
COMMANDS = [["run"], ["validate"], ["sweep", "--axis", "seed", "--values", "1,2"]]


class TestJunkInput:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=CONFIGS, command=st.sampled_from(COMMANDS))
    def test_config_files_end_in_a_documented_exit(self, tmp_path, config, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([*command, "--config", str(path)]) in (0, 2, 3)

    @settings(max_examples=150, deadline=None)
    @given(channel=CHANNEL_SPECS, state=STATE_SPECS, basis=BASIS_SPECS, protocol=st.sampled_from(cli.PROTOCOLS))
    def test_spec_flags_end_in_a_documented_exit(self, channel, state, basis, protocol):
        # Only the flags the protocol reads, so that its specs get parsed.
        flags = {"channel": channel, "state": state, "basis": basis, "a": 1, "b": 0, "n_states": 1}
        argv = ["run", "--protocol", protocol]
        argv += [f"--{key.replace('_', '-')}={json.dumps(flags[key])}" for key in cli._RUNNERS[protocol].reads]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3)
