import json
import os
import subprocess
import sys

from qcondprob import repeated_cond_prob
from qcondprob.fixtures import double_slit_model
from qcondprob.interference import double_slit_scan, scan_to_csv
from qcondprob.io import load_event, load_state

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "fixtures")


def fixture(name):
    return os.path.join(FIXTURE_DIR, name)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qcondprob", *args],
        capture_output=True,
        text=True,
    )


def test_condprob_single_event():
    result = run_cli(
        "condprob",
        "--state", fixture("state_mixed_dim4.json"),
        "--outcome", fixture("objective_pair_d.json"),
        "--event", fixture("objective_pair_e.json"),
    )
    assert result.returncode == 0
    assert result.stdout == "value  0.5\n"
    assert result.stderr == ""


def test_condprob_repeated_events_match_library():
    args = [
        "condprob",
        "--state", fixture("state_mixed_dim4.json"),
        "--outcome", fixture("objective_pair_d.json"),
        "--event", fixture("objective_pair_e.json"),
        "--event", fixture("proj_first_axis_dim4.json"),
    ]
    result = run_cli(*args)
    assert result.returncode == 0
    printed = float(result.stdout.split()[-1])
    state = load_state(fixture("state_mixed_dim4.json"))
    outcome = load_event(fixture("objective_pair_d.json"))
    chain = [load_event(fixture("objective_pair_e.json")), load_event(fixture("proj_first_axis_dim4.json"))]
    assert abs(printed - repeated_cond_prob(state, outcome, chain)) < 1e-9


def test_condprob_undefined_exits_3():
    result = run_cli(
        "condprob",
        "--state", fixture("state_lower_block_dim4.json"),
        "--outcome", fixture("objective_pair_d.json"),
        "--event", fixture("objective_pair_e.json"),
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error:")


def test_objective_reference_pair():
    result = run_cli(
        "objective",
        "--outcome", fixture("objective_pair_d.json"),
        "--event", fixture("objective_pair_e.json"),
    )
    assert result.returncode == 0
    lines = dict(line.split(None, 1) for line in result.stdout.splitlines())
    assert lines["value"] == "0.5"
    assert lines["lambda_re"] == "0.5"
    assert lines["lambda_im"] == "0"
    assert lines["residual"] == "0"
    assert lines["objective"] == "true"
    assert lines["chain_length"] == "1"


def test_objective_state_dependent_case():
    result = run_cli(
        "objective",
        "--outcome", fixture("proj_first_axis_dim4.json"),
        "--event", fixture("objective_pair_e.json"),
    )
    assert result.returncode == 0
    lines = dict(line.split(None, 1) for line in result.stdout.splitlines())
    assert lines["value"] == "undefined"
    assert lines["objective"] == "false"
    assert float(lines["residual"]) > 0.1


def test_objective_json_format():
    result = run_cli(
        "objective",
        "--outcome", fixture("objective_pair_d.json"),
        "--event", fixture("objective_pair_e.json"),
        "--format", "json",
    )
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj["value"] == 0.5
    assert obj["objective"] is True
    assert obj["chain_length"] == 1


def test_chain_values_and_trace():
    for name, value in (("chain_rejoined.json", "1"), ("chain_blocked.json", "0.5"), ("chain_detector.json", "0.5")):
        result = run_cli("chain", "--scenario", fixture(name))
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == f"value  {value}"
    detector = run_cli("chain", "--scenario", fixture("chain_detector.json"))
    assert "incoherent-split" in detector.stdout
    assert "which-way record" in detector.stdout
    rejoined = run_cli("chain", "--scenario", fixture("chain_rejoined.json"))
    assert "coherent-join" in rejoined.stdout
    blocked = run_cli("chain", "--scenario", fixture("chain_blocked.json"))
    assert "block-on-negation" in blocked.stdout


def test_chain_record_conditioning():
    result = run_cli("chain", "--scenario", fixture("chain_detector.json"), "--record", "positive")
    assert result.returncode == 0
    lines = dict(line.split(None, 1) for line in result.stdout.splitlines() if not line.startswith(" "))
    assert lines["value_given_positive"] == "0.5"
    no_detector = run_cli("chain", "--scenario", fixture("chain_blocked.json"), "--record", "positive")
    assert no_detector.returncode == 2
    assert no_detector.stderr.startswith("error:")


def test_chain_sampling_is_reproducible():
    args = (
        "chain", "--scenario", fixture("chain_detector.json"),
        "--sample", "--trials", "5000", "--seed", "9",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lines = dict(line.split(None, 1) for line in first.stdout.splitlines() if not line.startswith(" "))
    assert int(lines["count_positive"]) + int(lines["count_negation"]) == 5000
    assert lines["trials"] == "5000"
    assert lines["seed"] == "9"
    shuffled = run_cli(*args, "--workers", "3")
    again = run_cli(*args, "--workers", "3")
    assert shuffled.stdout == again.stdout
    assert shuffled.stdout != first.stdout


def test_chain_json_format():
    result = run_cli(
        "chain", "--scenario", fixture("chain_detector.json"),
        "--sample", "--trials", "2000", "--format", "json",
    )
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj["value"] == 0.5
    assert len(obj["steps"]) == 2
    sample = obj["sample"]
    assert sample["trials"] == 2000
    assert sum(sample["outcome_counts"].values()) == 2000
    assert set(sample["detector_counts"]) == {"apparatus0:positive", "apparatus0:negation"}


def test_slit_csv_matches_library():
    result = run_cli("slit", "--model", fixture("double_slit_dim8.json"))
    assert result.returncode == 0
    model = double_slit_model()
    expected = scan_to_csv(double_slit_scan(model.preparation, model.slit1, model.slit2, model.detectors))
    assert result.stdout == expected
    lines = result.stdout.splitlines()
    assert lines[0] == "index,coherent,incoherent,defined"
    assert len(lines) == 9
    assert result.stdout.endswith("\n")


def test_slit_json_format():
    result = run_cli("slit", "--model", fixture("double_slit_dim8.json"), "--format", "json")
    assert result.returncode == 0
    rows = json.loads(result.stdout)
    assert len(rows) == 8
    assert all(row["defined"] for row in rows)
    assert abs(rows[0]["coherent"] - 0.5) < 1e-12
    assert abs(rows[0]["incoherent"] - 0.25) < 1e-12


def test_valuation_unsat_and_sat():
    unsat = run_cli("valuation", "--problem", fixture("kochen_specker_18.json"))
    assert unsat.returncode == 0
    lines = dict(line.split(None, 1) for line in unsat.stdout.splitlines())
    assert lines["result"] == "UNSAT"
    assert int(lines["nodes_explored"]) >= 1
    assert "true_indices" not in lines

    sat = run_cli("valuation", "--problem", fixture("valuation_qubit_sat.json"))
    lines = dict(line.split(None, 1) for line in sat.stdout.splitlines())
    assert lines["result"] == "SAT"
    assert lines["true_indices"] in ("0", "1")

    classical = run_cli("valuation", "--problem", fixture("valuation_classical_sat.json"), "--format", "json")
    obj = json.loads(classical.stdout)
    assert obj["satisfiable"] is True
    assert sum(obj["assignment"]) == 1

    ks_json = run_cli("valuation", "--problem", fixture("kochen_specker_18.json"), "--format", "json")
    obj = json.loads(ks_json.stdout)
    assert obj["satisfiable"] is False
    assert obj["assignment"] is None


def test_input_problems_exit_2(tmp_path):
    missing = run_cli("condprob", "--state", str(tmp_path / "nope.json"),
                      "--outcome", fixture("objective_pair_d.json"),
                      "--event", fixture("objective_pair_e.json"))
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:")

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{broken")
    broken = run_cli("objective", "--outcome", str(garbage), "--event", fixture("objective_pair_e.json"))
    assert broken.returncode == 2

    bad_tol = run_cli("objective", "--outcome", fixture("objective_pair_d.json"),
                      "--event", fixture("objective_pair_e.json"), "--atol", "-1")
    assert bad_tol.returncode == 2

    not_projection = tmp_path / "scaled.json"
    not_projection.write_text(json.dumps({"dim": 2, "entries": [[2.0, 0.0], [0.0, 0.0]]}))
    rejected = run_cli("objective", "--outcome", str(not_projection), "--event", fixture("objective_pair_e.json"))
    assert rejected.returncode == 2


def test_json_booleans_exit_2(tmp_path):
    as_bools = tmp_path / "bools.json"
    as_bools.write_text('{"dim": true, "entries": [[true]]}')
    rejected = run_cli("objective", "--outcome", str(as_bools), "--event", str(as_bools))
    assert rejected.returncode == 2
    assert rejected.stdout == ""
    assert rejected.stderr.startswith("error:")
    assert "Traceback" not in rejected.stderr


def test_argparse_failures_exit_2():
    none = run_cli("condprob")
    assert none.returncode == 2
    unknown = run_cli("frobnicate")
    assert unknown.returncode == 2
