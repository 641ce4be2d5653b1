"""Golden-output test of the command line.

Every command of the README's "Command line" section, plus record
conditioning on the detector and blocked scenarios, runs in-process
through ``cli.main`` in table and JSON format.  Exit code, stdout and
stderr are compared with the files under ``tests/golden/``: table output
byte for byte, JSON output structurally with floats within 1e-12 (full
``repr`` floats may differ in the last bit across BLAS builds).

Regenerate the expected files, after a deliberate output change only,
with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import math
import os
import sys

import pytest

from qcondprob import cli

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "golden")
FLOAT_TOL = 1e-12

_MIXED = ["--state", "fixtures/state_mixed_dim4.json"]
_PAIR = ["--outcome", "fixtures/objective_pair_d.json", "--event", "fixtures/objective_pair_e.json"]

# name -> argv, with fixture paths relative to the repository root.
COMMANDS = {
    "condprob_single": ["condprob", *_MIXED, *_PAIR],
    "condprob_sequence": ["condprob", *_MIXED, *_PAIR, "--event", "fixtures/proj_first_axis_dim4.json"],
    "condprob_undefined": ["condprob", "--state", "fixtures/state_lower_block_dim4.json", *_PAIR],
    "objective_pair": ["objective", *_PAIR],
    "objective_finer_outcome": [
        "objective", "--outcome", "fixtures/proj_first_axis_dim4.json",
        "--event", "fixtures/objective_pair_e.json",
    ],
    "chain_rejoined": ["chain", "--scenario", "fixtures/chain_rejoined.json"],
    "chain_blocked": ["chain", "--scenario", "fixtures/chain_blocked.json"],
    "chain_detector": ["chain", "--scenario", "fixtures/chain_detector.json"],
    "chain_detector_record_positive": ["chain", "--scenario", "fixtures/chain_detector.json", "--record", "positive"],
    "chain_detector_record_negation": ["chain", "--scenario", "fixtures/chain_detector.json", "--record", "negation"],
    "chain_blocked_record_positive": ["chain", "--scenario", "fixtures/chain_blocked.json", "--record", "positive"],
    "chain_detector_sample": [
        "chain", "--scenario", "fixtures/chain_detector.json", "--sample",
        "--trials", "100000", "--seed", "42", "--workers", "4",
    ],
    "slit": ["slit", "--model", "fixtures/double_slit_dim8.json"],
    "valuation_kochen_specker_18": ["valuation", "--problem", "fixtures/kochen_specker_18.json"],
    "valuation_qubit_sat": ["valuation", "--problem", "fixtures/valuation_qubit_sat.json"],
    "valuation_classical_sat": ["valuation", "--problem", "fixtures/valuation_classical_sat.json"],
}

CASES = {
    f"{name}-{fmt}": argv + ["--format", fmt]
    for name, argv in COMMANDS.items()
    for fmt in ("table", "json")
}


def run_main(argv):
    """Run ``cli.main`` in the repository root and capture its exit code and streams."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_path(case):
    return os.path.join(GOLDEN_DIR, f"{case}.json")


def assert_json_close(got, want, where="$"):
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for k, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_matches_golden(case):
    with open(golden_path(case), "r", encoding="utf-8") as fh:
        want = json.load(fh)
    got = run_main(CASES[case])
    assert got["argv"] == want["argv"]
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    if case.endswith("-json") and want["exit"] == 0:
        assert_json_close(json.loads(got["stdout"]), json.loads(want["stdout"]))
    else:
        assert got["stdout"] == want["stdout"]


def test_golden_files_cover_exactly_the_cases():
    on_disk = sorted(name[: -len(".json")] for name in os.listdir(GOLDEN_DIR))
    assert on_disk == sorted(CASES)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case, argv in sorted(CASES.items()):
        with open(golden_path(case), "w", encoding="utf-8") as fh:
            json.dump(run_main(argv), fh, indent=2, sort_keys=True)
            fh.write("\n")
    sys.exit(0)
