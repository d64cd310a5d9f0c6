import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtomo import cli, core, qpt
from seqtomo.cli import main, render_report


def run_cli(args, out_path=None):
    argv = list(args)
    if out_path is not None:
        argv += ["--out", str(out_path)]
    return main(argv)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


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

    @pytest.mark.parametrize(
        "args",
        [
            ["validate", "--channel", "identity:n=7"],
            ["validate", "--channel", "identity:n=9"],
            ["run", "--protocol", "dcqd-diag", "--target", "all-diagonal", "--channel", "identity:n=7"],
        ],
    )
    def test_chi_over_the_dense_budget_exits_three_without_traceback(self, args):
        # a 4 GiB (n = 7) or 1 TiB (n = 9) chi is refused before it is allocated
        proc = subprocess.run(
            [sys.executable, "-m", "seqtomo.cli", *args], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "chi matrix on" in proc.stderr
        assert proc.stdout == ""

    def test_dcqd_index_checked_before_the_dual_state(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the index must be checked first")

        monkeypatch.setattr(cli, "kraus_to_chi", refuse)
        monkeypatch.setattr(cli, "dcqd_distribution", refuse)
        spec = json.dumps({"name": "tensor", "params": {"factors": [{"name": "depolarizing", "params": {"p": 0.3}}] * 4}})
        assert main(["run", "--protocol", "dcqd-diag", "--channel", spec, "--a", "100000"]) == 2
        assert capsys.readouterr().err == "error: index a=100000 outside [0, 256) for the Pauli basis\n"

    def test_size_limit_exit_code(self):
        args = ["run", "--protocol", "aapt", "--channel", '{"name": "identity", "params": {"n": 3}}']
        assert main(args) == 3


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


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(st.recursive(_LEAVES, _containers, max_leaves=40))
    def test_matches_json_dumps(self, value):
        assert render_report(value, "json") == json_reference(value)

    def test_int_keys_sort_as_json_does(self):
        value = {"rows": [{2: 0.5, 10: None}, {2: 1.5, 10: True}], "x": {}}
        assert render_report(value, "json") == json_reference(value)

    @pytest.mark.parametrize(
        "case", json.loads((Path(__file__).parent / "data" / "reports.json").read_text()), ids=lambda c: c["id"]
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
    # A sampling run of each selective protocol, an argparse error and a config error.
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
        for i in [0, 2, 1, 3, 0, 3, 1, 2]:
            try:
                code = main(self.CASES[i])
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert code == fresh[i].returncode
            assert self.masked(out) == self.masked(fresh[i].stdout)
            assert err == fresh[i].stderr
        assert [p.returncode for p in fresh] == [0, 0, 2, 2]


class TestZoo:
    def test_zoo_list(self, capsys):
        assert main(["zoo", "list"]) == 0
        text = capsys.readouterr().out
        for name in ("identity", "depolarizing", "amplitude_damping", "bit_flip"):
            assert name in text
