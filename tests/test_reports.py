"""Golden `seqtomo run` reports: refactors must reproduce them.

``data/reports.json`` holds, for each case, the argv of one ``seqtomo run``
and the text it printed. Integers and strings must match exactly, floats to
1e-12, and ``timing_seconds`` is ignored. The cases cover all seven
protocols at n <= 3, ``--workers 3``, and ``--format csv`` for every
protocol. A change that alters a report on purpose re-pins the cases it
alters, by id:

    PYTHONPATH=src python tests/test_reports.py CASE_ID [CASE_ID ...]

With no id, every case is re-pinned, which also rewrites the cases listed in
``CHANGED``. A new case is added by appending its ``id`` and ``argv`` to the
data and re-pinning that id, which fills in its ``output``.
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

from seqtomo.cli import PROTOCOLS, main

DATA = Path(__file__).parent / "data" / "reports.json"
FLOAT_TOL = 1e-12
CASES = json.loads(DATA.read_text())

# Fields that differ from the data on purpose, per case. Where exact outcome
# probabilities sit on a branch point of numpy's binomial sampler (p = 1/2,
# or a mode boundary floor((n + 1) p)), a change in their last bit moves
# shots.
# - seqst-state-n1-plus: the data was made by the dense circuit; the sampler
#   now draws from the 2×2 readout block. The Y axis has p = (1/4, 1/4, 1/2);
#   its second binomial draw has (n + 1) p = 552/3 = 184, so one shot moves
#   from outcome 0 to -1.
# - dcqd-n1-dep-all: DCQD now reads chi_kk from the Bell-basis amplitudes of
#   the purified dual state, where chi_YY = chi_ZZ = 0.05 agree to the last
#   bit. numpy's multinomial draws Y from Bin(·, 0.05/0.10 = 1/2), the
#   binomial's branch point, so the Y and Z tallies trade places.
CHANGED = {
    "dcqd-n1-dep-all": [
        "results.diagonal[2].abs_error",
        "results.diagonal[2].frequency",
        "results.diagonal[2].stderr",
        "results.diagonal[3].abs_error",
        "results.diagonal[3].frequency",
        "results.diagonal[3].stderr",
    ],
    "seqst-state-n1-plus": [
        "results.abs_error",
        "results.estimate.im",
        "results.estimate.se_im",
        "results.estimate.tallies.y[1]",
        "results.estimate.tallies.y[2]",
    ],
}


def run_argv(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def parse_output(text: str):
    """A JSON report without its timing, or the CSV rows with numbers parsed."""
    if text.startswith("{"):
        report = json.loads(text)
        report.pop("timing_seconds")
        return report
    return [[_number(cell) for cell in row] for row in csv.reader(io.StringIO(text))]


def _number(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def differences(got, want, path: str = "") -> list:
    """Paths where got differs from want: floats beyond FLOAT_TOL, anything else at all."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if abs(got - want) <= FLOAT_TOL else [path]
    if isinstance(want, dict) and isinstance(got, dict) and set(got) == set(want):
        return [d for key in sorted(want) for d in differences(got[key], want[key], f"{path}.{key}".lstrip("."))]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{path}[{i}]")]
    return [] if type(got) is type(want) and got == want else [path]


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_report_matches_golden(case):
    got = parse_output(run_argv(case["argv"]))
    assert differences(got, parse_output(case["output"])) == CHANGED.get(case["id"], [])


def flag(argv: list, name: str):
    """The value after ``name`` in ``argv``, or None if the flag is absent."""
    return argv[argv.index(name) + 1] if name in argv else None


def test_cases_cover_every_protocol_workers_and_csv():
    argvs = [c["argv"] for c in CASES]
    protocols = {flag(argv, "--protocol") for argv in argvs}
    csv_protocols = {flag(argv, "--protocol") for argv in argvs if flag(argv, "--format") == "csv"}
    assert protocols == csv_protocols == set(PROTOCOLS)
    assert any("--workers" in argv for argv in argvs)


if __name__ == "__main__":
    ids = set(sys.argv[1:])
    unknown = ids - {case["id"] for case in CASES}
    if unknown:
        sys.exit(f"no case with id(s) {sorted(unknown)}")
    for case in CASES:
        if not ids or case["id"] in ids:
            case["output"] = run_argv(case["argv"])
    DATA.write_text(json.dumps(CASES, indent=1) + "\n")
