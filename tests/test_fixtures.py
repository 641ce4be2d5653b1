import os
from pathlib import Path

import numpy as np

from qcondprob import evaluate_chain, search_valuation
from qcondprob.fixtures import (
    double_slit_model,
    objective_pair,
    write_fixture_files,
)
from qcondprob.io import load_chain, load_event, load_slit_model, load_state, load_valuation

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "fixtures")

EXPECTED_FILES = [
    "chain_blocked.json",
    "chain_detector.json",
    "chain_rejoined.json",
    "double_slit_dim8.json",
    "kochen_specker_18.json",
    "objective_pair_d.json",
    "objective_pair_e.json",
    "proj_first_axis_dim4.json",
    "state_lower_block_dim4.json",
    "state_mixed_dim4.json",
    "valuation_classical_sat.json",
    "valuation_qubit_sat.json",
]


def test_checked_in_fixtures_match_regeneration(tmp_path):
    written = write_fixture_files(str(tmp_path))
    assert sorted(written) == EXPECTED_FILES
    assert sorted(os.listdir(FIXTURE_DIR)) == EXPECTED_FILES
    for name in EXPECTED_FILES:
        fresh = (tmp_path / name).read_bytes()
        committed = Path(FIXTURE_DIR, name).read_bytes()
        assert fresh == committed, f"{name} has drifted from its generator"


def test_fixture_files_load_into_working_objects():
    e = load_event(os.path.join(FIXTURE_DIR, "objective_pair_e.json"))
    d = load_event(os.path.join(FIXTURE_DIR, "objective_pair_d.json"))
    ref_e, ref_d = objective_pair()
    assert np.allclose(e.matrix, ref_e.matrix)
    assert np.allclose(d.matrix, ref_d.matrix)

    proj = load_event(os.path.join(FIXTURE_DIR, "proj_first_axis_dim4.json"))
    assert proj.rank == 1 and proj.dim == 4

    mixed = load_state(os.path.join(FIXTURE_DIR, "state_mixed_dim4.json"))
    assert abs(float(np.trace(mixed.rho).real) - 1.0) < 1e-12
    lower = load_state(os.path.join(FIXTURE_DIR, "state_lower_block_dim4.json"))
    assert np.allclose(lower.rho, np.diag([0.0, 0.0, 0.5, 0.5]))

    for name, value in (("chain_rejoined.json", 1.0), ("chain_blocked.json", 0.5), ("chain_detector.json", 0.5)):
        chain = load_chain(os.path.join(FIXTURE_DIR, name))
        assert abs(evaluate_chain(chain).value - value) <= 1e-12

    slit = load_slit_model(os.path.join(FIXTURE_DIR, "double_slit_dim8.json"))
    model = double_slit_model()
    assert np.allclose(slit.preparation.matrix, model.preparation.matrix)
    assert len(slit.detectors) == 8

    ks = load_valuation(os.path.join(FIXTURE_DIR, "kochen_specker_18.json"))
    assert len(ks.events) == 18 and len(ks.resolutions) == 9
    assert not search_valuation(ks).satisfiable
    assert search_valuation(load_valuation(os.path.join(FIXTURE_DIR, "valuation_qubit_sat.json"))).satisfiable
    assert search_valuation(load_valuation(os.path.join(FIXTURE_DIR, "valuation_classical_sat.json"))).satisfiable


def test_readme_documents_every_fixture():
    readme = Path(REPO_ROOT, "README.md").read_text(encoding="utf-8")
    for name in EXPECTED_FILES:
        assert name in readme, f"README.md does not mention fixtures/{name}"
