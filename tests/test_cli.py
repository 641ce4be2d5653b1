import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from qcondprob import DEFAULT_TOL, InvariantError, cli, conditioning, repeated_cond_prob, validate_event
from qcondprob.fixtures import double_slit_model
from qcondprob.interference import double_slit_scan
from qcondprob.io import load_event, load_state, matrix_to_obj, write_json

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


def run_main(*args):
    """Run ``cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


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


def test_an_internal_invariant_failure_exits_4(monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantError("the two routes disagree")

    monkeypatch.setattr(conditioning, "repeated_cond_prob", broken)
    code, out, err = run_main("condprob", "--state", fixture("state_mixed_dim4.json"),
                              "--outcome", fixture("objective_pair_d.json"), "--event", fixture("objective_pair_e.json"))
    assert (code, out) == (4, "")
    assert err == "error: the two routes disagree\n"


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


def test_chain_with_both_detector_outlets_pruned_exits_3():
    # At prob-floor 0.6 both outlets of the fixture's one detector are pruned.
    result = run_cli("chain", "--scenario", fixture("chain_detector.json"), "--sample", "--prob-floor", "0.6")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("error:")


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


def write_chain(path, preparation, apparatuses, final):
    """A scenario file: ``apparatuses`` lists (matrix, mode, detector)."""
    path.write_text(json.dumps({
        "preparation": matrix_to_obj(preparation),
        "apparatuses": [{"event": matrix_to_obj(m), "mode": mode, "detector": detector}
                        for m, mode, detector in apparatuses],
        "final": matrix_to_obj(final),
    }))
    return str(path)


def test_chain_block_after_detector_and_tiny_overlaps_exit_0(tmp_path):
    u = np.ones(3) / np.sqrt(3.0)
    e1 = np.diag([1.0, 0.0, 0.0])
    dim3 = write_chain(tmp_path / "dim3.json", np.outer(u, u),
                       [(e1, "pass_both", "positive"), (np.diag([1.0, 1.0, 0.0]), "block_on_negation", None)], e1)
    code, out, err = run_main("chain", "--scenario", dim3, "--sample", "--trials", "1000", "--seed", "42")
    assert (code, err) == (0, "")
    pairs = dict(line.split() for line in out.splitlines() if not line.startswith(" "))
    assert (pairs["value"], pairs["analytic_positive"]) == ("0.5", "0.5")
    zero = np.diag([1.0, 0.0])
    for overlap, printed in ((1e-5, "0.9999800002"), (1e-6, "0.999998000002")):
        r = np.array([np.sqrt(overlap), np.sqrt(1.0 - overlap)])
        path = write_chain(tmp_path / f"tiny{overlap}.json", zero,
                           [(np.outer(r, r), "pass_both", "positive"), (zero, "pass_both", "positive")], zero)
        code, out, err = run_main("chain", "--scenario", path)
        assert (code, err) == (0, "")
        assert out.startswith(f"value  {printed}\n")


def _slack_event(tmp_path):
    # Its idempotence defect, 2.5e-10, is within validation's budget of 3e-10 for a rank-1 event.
    path = tmp_path / "slack_event.json"
    path.write_text(json.dumps(matrix_to_obj(np.diag([1.0 + 2.5e-10, 0.0]))))
    return str(path)


def test_condprob_on_an_event_within_its_validation_slack_exits_0(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_obj(np.diag([1.0, 0.0]))))
    event = _slack_event(tmp_path)
    assert run_main("condprob", "--state", str(state), "--outcome", event, "--event", event) == (0, "value  1\n", "")


def test_objective_on_an_event_within_its_validation_slack_exits_0(tmp_path):
    event = _slack_event(tmp_path)
    code, out, err = run_main("objective", "--outcome", event, "--event", event, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 1.0


def test_objective_on_a_ray_in_dimension_128(tmp_path):
    # A 128 x 128 event file, past the decoding test's d <= 16, decodes bit for bit.
    v = np.ones(128) / np.sqrt(128)
    ray = validate_event(np.outer(v, v))
    path = str(tmp_path / "ray.json")
    write_json(path, matrix_to_obj(ray.matrix))
    assert np.array_equal(load_event(path).matrix, ray.matrix)
    code, out, err = run_main("objective", "--outcome", path, "--event", path, "--format", "json")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["objective"] is True and abs(record["value"] - 1.0) <= 1e-12


def test_chain_blocking_on_an_event_within_its_validation_slack_exits_0(tmp_path):
    plus = np.full((2, 2), 0.5)
    event = np.diag([1.0 + 2.5e-10, 0.0])
    path = write_chain(tmp_path / "chain.json", np.diag([1.0, 0.0]), [(event, "block_on_negation", None)], plus)
    code, out, err = run_main("chain", "--scenario", path)
    assert (code, err) == (0, "")
    assert out.startswith("value  0.5\n")


def test_slit_csv_matches_library():
    result = run_cli("slit", "--model", fixture("double_slit_dim8.json"))
    assert result.returncode == 0
    model = double_slit_model()
    points = double_slit_scan(model.preparation, model.slit1, model.slit2, model.detectors)
    expected = ["index,coherent,incoherent,defined"] + [
        f"{p.index},{cli._fmt(p.coherent)},{cli._fmt(p.incoherent)},{str(p.defined).lower()}" for p in points
    ]
    assert result.stdout == "\n".join(expected) + "\n"
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


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_undefined_slit_scan_prints_null_in_json_and_nan_in_csv(tmp_path):
    # The preparation lies in slit1, so slit2's branch has no weight and every row is undefined.
    up, down = matrix_to_obj(np.diag([1.0, 0.0])), matrix_to_obj(np.diag([0.0, 1.0]))
    path = tmp_path / "slit.json"
    path.write_text(json.dumps({"dim": 2, "preparation": up, "slit1": up, "slit2": down, "detectors": [up, down]}))
    code, out, err = run_main("slit", "--model", str(path), "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out, parse_constant=_refuse_constant)
    assert rows == [{"index": i, "coherent": None, "incoherent": None, "defined": False} for i in range(2)]
    code, out, err = run_main("slit", "--model", str(path))
    assert (code, out, err) == (0, "index,coherent,incoherent,defined\n0,nan,nan,false\n1,nan,nan,false\n", "")


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

    for atol in ("-1", "inf", "2"):
        bad_tol = run_cli("objective", "--outcome", fixture("objective_pair_d.json"),
                          "--event", fixture("objective_pair_e.json"), "--atol", atol)
        assert bad_tol.returncode == 2
    # Under an infinite tolerance these non-projections would pass as events and a state.
    not_state = tmp_path / "not_state.json"
    not_state.write_text(json.dumps({"dim": 2, "entries": [[7.0, 0.0], [0.0, -2.0]]}))
    not_event = tmp_path / "not_event.json"
    not_event.write_text(json.dumps({"dim": 2, "entries": [[5.0, 0.0], [0.0, -3.0]]}))
    lax = run_cli("condprob", "--state", str(not_state), "--outcome", str(not_event),
                  "--event", str(not_event), "--atol", "inf")
    assert (lax.returncode, lax.stdout) == (2, "")

    not_projection = tmp_path / "scaled.json"
    not_projection.write_text(json.dumps({"dim": 2, "entries": [[2.0, 0.0], [0.0, 0.0]]}))
    rejected = run_cli("objective", "--outcome", str(not_projection), "--event", fixture("objective_pair_e.json"))
    assert rejected.returncode == 2


def test_deeply_nested_json_exits_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    result = run_cli("objective", "--outcome", str(deep), "--event", str(deep))
    assert result.returncode == 2
    assert result.stderr.startswith("error:") and "deep.json" in result.stderr and "nests too deeply" in result.stderr


def test_each_command_takes_the_tolerance_flags_it_reads():
    reads = {
        "condprob": {"--atol", "--rtol", "--prob-floor"},
        "objective": {"--atol", "--rtol", "--objectivity-tol", "--prob-floor"},
        "chain": {"--atol", "--rtol", "--prob-floor"},
        "slit": {"--atol", "--rtol", "--prob-floor"},
        "valuation": {"--atol", "--rtol"},
    }
    flags = {"--atol", "--rtol", "--objectivity-tol", "--prob-floor"}
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(reads)
    for name, sub in commands.items():
        assert flags & set(sub._option_string_actions) == reads[name]
    # Every default is the library's.
    args = parser.parse_args(["objective", "--outcome", "d.json", "--event", "e.json"])
    assert cli._tol(args) == DEFAULT_TOL
    args = parser.parse_args(["valuation", "--problem", "p.json"])
    assert cli._tol(args) == DEFAULT_TOL
    ignored = run_cli("condprob", "--state", fixture("state_mixed_dim4.json"),
                      "--outcome", fixture("objective_pair_d.json"), "--event", fixture("objective_pair_e.json"),
                      "--objectivity-tol", "1e-9")
    assert ignored.returncode == 2
    assert "unrecognized arguments: --objectivity-tol" in ignored.stderr


def test_ensembles_are_not_revalidated_under_strict_tolerances(tmp_path):
    state = tmp_path / "ensemble.json"
    state.write_text(json.dumps({"ensemble": [
        {"weight": 0.2, "vector": [[-0.3, 0.5], [1.2, -0.8], [-1.8, 1.2], [0, 0.7]]},
        {"weight": 0.3, "vector": [[-1.3, 1.7], [0.7, -0.1], [-0.4, 0.1], [-0.2, -0.3]]},
        {"weight": 0.5, "vector": [[-1.1, 1.3], [0, 0.1], [0.1, -2.4], [0.5, -0.3]]},
    ]}))
    strict = run_cli("condprob", "--state", str(state), "--outcome", fixture("objective_pair_d.json"),
                     "--event", fixture("objective_pair_e.json"), "--atol", "1e-16", "--rtol", "1e-16")
    assert (strict.returncode, strict.stdout) == (0, "value  0.5\n")


def test_json_booleans_exit_2(tmp_path):
    as_bools = tmp_path / "bools.json"
    as_bools.write_text('{"dim": true, "entries": [[true]]}')
    rejected = run_cli("objective", "--outcome", str(as_bools), "--event", str(as_bools))
    assert rejected.returncode == 2
    assert rejected.stdout == ""
    assert rejected.stderr.startswith("error:")
    assert "Traceback" not in rejected.stderr


def test_out_of_range_numbers_exit_2(tmp_path):
    # An integer beyond float range, and entries whose Frobenius norm overflows.
    huge_int = tmp_path / "huge_int.json"
    huge_int.write_text('{"entries": [[1, ' + "1" + "0" * 400 + '], [0, 0]]}')
    huge_norm = tmp_path / "huge_norm.json"
    huge_norm.write_text(json.dumps({"entries": [[0.5, 1e200], [1e200, 0.5]]}))
    for path, message in ((huge_int, "integer beyond float range"), (huge_norm, "norm overflows")):
        code, out, err = run_main("objective", "--outcome", str(path), "--event", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err


def test_argparse_failures_exit_2():
    none = run_cli("condprob")
    assert none.returncode == 2
    unknown = run_cli("frobnicate")
    assert unknown.returncode == 2


def test_valuation_explicit_resolution_matches_enumeration(tmp_path):
    # Rays along e_i + 0.95e-10 * (the other axes): pairwise exclusive within
    # the default tolerance, summing to the identity only to about 6.6e-10.
    events = []
    for i in range(4):
        v = np.full(4, 0.95e-10)
        v[i] = 1.0
        v /= np.linalg.norm(v)
        events.append(matrix_to_obj(np.outer(v, v)))
    enumerated = tmp_path / "enumerated.json"
    enumerated.write_text(json.dumps({"events": events}))
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps({"events": events, "resolutions": [[0, 1, 2, 3]]}))
    want = (0, "result          SAT\nnodes_explored  2\ntrue_indices    0\n", "")
    assert run_main("valuation", "--problem", str(enumerated)) == want
    assert run_main("valuation", "--problem", str(explicit)) == want


def test_valuation_fractional_resolution_index_exits_2(tmp_path):
    up, down = matrix_to_obj(np.diag([1.0, 0.0])), matrix_to_obj(np.diag([0.0, 1.0]))
    problem = tmp_path / "fractional.json"
    problem.write_text(json.dumps({"events": [up, down], "resolutions": [[0.7, 1.2]]}))
    code, out, err = run_main("valuation", "--problem", str(problem))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "resolutions" in err


def test_sampler_options_belong_to_chain():
    seeded = run_cli(
        "condprob",
        "--state", fixture("state_mixed_dim4.json"),
        "--outcome", fixture("objective_pair_d.json"),
        "--event", fixture("objective_pair_e.json"),
        "--seed", "1",
    )
    assert seeded.returncode == 2
    assert seeded.stdout == ""
    # Unsampled chains ignore the sampler settings; sample_chain checks them.
    code, out, _ = run_main("chain", "--scenario", fixture("chain_detector.json"), "--trials", "0")
    assert code == 0 and out.startswith("value  0.5\n")
    for option, value, word in (("--trials", "0", "trials"), ("--seed", "-1", "seed"), ("--workers", "0", "workers")):
        code, out, err = run_main("chain", "--scenario", fixture("chain_detector.json"), "--sample", option, value)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {word} must be")
