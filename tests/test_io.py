from pathlib import Path

import numpy as np
import pytest

from qcondprob import ValidationError, spin_projector
from qcondprob.io import (
    chain_from_obj,
    classical_event_from_obj,
    classical_space_from_obj,
    event_from_obj,
    event_to_obj,
    load_event,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    slit_model_from_obj,
    state_from_obj,
    state_to_obj,
    valuation_from_obj,
    vector_from_obj,
    write_json,
)

from helpers import random_full_rank_state, random_projection


def test_matrix_round_trip():
    rng = np.random.default_rng(601)
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        back = matrix_from_obj(matrix_to_obj(m))
        assert np.array_equal(back, m)


def test_matrix_accepts_bare_reals_and_defaults_dim():
    m = matrix_from_obj({"entries": [[1, 0], [0, [0, 1]]]})
    assert np.array_equal(m, np.array([[1, 0], [0, 1j]]))


def test_matrix_rejects_malformed_objects():
    with pytest.raises(ValidationError):
        matrix_from_obj([[1, 0], [0, 1]])
    with pytest.raises(ValidationError):
        matrix_from_obj({"entries": []})
    with pytest.raises(ValidationError):
        matrix_from_obj({"dim": 3, "entries": [[1, 0], [0, 1]]})
    with pytest.raises(ValidationError):
        matrix_from_obj({"entries": [[1, 0], [0]]})
    with pytest.raises(ValidationError):
        matrix_from_obj({"entries": [[1, "x"], [0, 1]]})
    with pytest.raises(ValidationError):
        matrix_from_obj({"entries": [[1, [0, 1, 2]], [0, 1]]})
    with pytest.raises(ValidationError):
        matrix_from_obj({"dim": 0, "entries": []})


def test_vector_from_obj():
    v = vector_from_obj([1, [0, 1]])
    assert np.array_equal(v.amplitudes, np.array([1.0, 1j]))
    with pytest.raises(ValidationError):
        vector_from_obj([])
    with pytest.raises(ValidationError):
        vector_from_obj({"entries": [1, 0]})


def test_event_round_trip_and_spin_form():
    rng = np.random.default_rng(607)
    for _ in range(10):
        e = random_projection(rng, 4, int(rng.integers(1, 4)))
        back = event_from_obj(event_to_obj(e))
        assert np.allclose(back.matrix, e.matrix)
        assert back.rank == e.rank
    named = event_from_obj({"spin": {"axis": "y", "sign": "-"}})
    assert np.allclose(named.matrix, spin_projector("y", "-").matrix)
    with pytest.raises(ValidationError):
        event_from_obj({"spin": "y-"})
    with pytest.raises(ValidationError):
        event_from_obj({"spin": {"axis": "y", "sign": "?"}})
    # A matrix that is not a projection is rejected at load time.
    with pytest.raises(ValidationError):
        event_from_obj(matrix_to_obj(np.array([[0.5, 0.0], [0.0, 1.0]]) * 1.7))


def test_state_round_trip_and_ensemble_form():
    rng = np.random.default_rng(613)
    for _ in range(10):
        mu = random_full_rank_state(rng, int(rng.integers(1, 5)))
        back = state_from_obj(state_to_obj(mu))
        assert np.allclose(back.rho, mu.rho)
    mixed = state_from_obj({
        "ensemble": [
            {"weight": 1.0, "vector": [1, 0]},
            {"weight": 3.0, "vector": [0, [0, 2]]},
        ]
    })
    assert np.allclose(mixed.rho, np.diag([0.25, 0.75]))
    with pytest.raises(ValidationError):
        state_from_obj({"ensemble": []})
    with pytest.raises(ValidationError):
        state_from_obj({"ensemble": [{"weight": 1.0}]})
    with pytest.raises(ValidationError):
        state_from_obj({"ensemble": [{"weight": "heavy", "vector": [1, 0]}]})


def test_chain_from_obj():
    obj = {
        "preparation": {"spin": {"axis": "z", "sign": "+"}},
        "apparatuses": [
            {"event": {"spin": {"axis": "x", "sign": "+"}}, "mode": "pass_both", "detector": "positive"},
            {"event": {"spin": {"axis": "y", "sign": "+"}}, "mode": "block_on_negation"},
            {"event": {"spin": {"axis": "x", "sign": "-"}}},
        ],
        "final": {"spin": {"axis": "z", "sign": "-"}},
    }
    chain = chain_from_obj(obj)
    assert len(chain.apparatuses) == 3
    assert chain.apparatuses[0].detector == "positive"
    assert chain.apparatuses[1].mode == "block_on_negation"
    assert chain.apparatuses[2].mode == "pass_both"
    assert chain.apparatuses[2].detector is None
    with pytest.raises(ValidationError):
        chain_from_obj({"preparation": obj["preparation"], "final": obj["final"]})
    with pytest.raises(ValidationError):
        chain_from_obj({**obj, "apparatuses": [{"mode": "pass_both"}]})
    with pytest.raises(ValidationError):
        chain_from_obj([obj])


def test_slit_model_from_obj():
    eye = matrix_to_obj(np.eye(2))
    up = matrix_to_obj(np.diag([1.0, 0.0]))
    down = matrix_to_obj(np.diag([0.0, 1.0]))
    model = slit_model_from_obj({
        "preparation": up,
        "slit1": up,
        "slit2": down,
        "detectors": [up, down],
    })
    assert len(model.detectors) == 2
    assert model.slit1.rank == 1
    for missing in ("preparation", "slit1", "slit2", "detectors"):
        broken = {"preparation": up, "slit1": up, "slit2": down, "detectors": [eye]}
        del broken[missing]
        with pytest.raises(ValidationError):
            slit_model_from_obj(broken)
    with pytest.raises(ValidationError):
        slit_model_from_obj({"preparation": up, "slit1": up, "slit2": down, "detectors": []})


def test_valuation_from_obj():
    up = matrix_to_obj(np.diag([1.0, 0.0]))
    down = matrix_to_obj(np.diag([0.0, 1.0]))
    problem = valuation_from_obj({"events": [up, down]})
    assert problem.resolutions == ((0, 1),)
    explicit = valuation_from_obj({"events": [up, down], "resolutions": [[0, 1]]})
    assert explicit.resolutions == ((0, 1),)
    with pytest.raises(ValidationError):
        valuation_from_obj({"events": []})
    with pytest.raises(ValidationError):
        valuation_from_obj({"events": [up, down], "resolutions": [0, 1]})
    with pytest.raises(ValidationError):
        valuation_from_obj({"resolutions": [[0, 1]]})


def test_classical_objects():
    space = classical_space_from_obj({"weights": [0.2, 0.3, 0.5]})
    assert space.n_outcomes == 3
    event = classical_event_from_obj({"indices": [0, 2]}, 3)
    assert event.indices() == (0, 2)
    with pytest.raises(ValidationError):
        classical_space_from_obj({"weights": "abc"})
    with pytest.raises(ValidationError):
        classical_event_from_obj({"mask": [1, 0, 1]}, 3)


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "event.json")
    e = spin_projector("x", "+")
    write_json(path, event_to_obj(e))
    loaded = load_event(path)
    assert np.allclose(loaded.matrix, e.matrix)
    text = Path(path).read_text(encoding="utf-8")
    assert text.endswith("\n")
    # Serialisation is stable: keys are sorted, so rewriting is a no-op.
    write_json(path, event_to_obj(loaded))
    assert Path(path).read_text(encoding="utf-8") == text


def test_load_json_errors(tmp_path):
    with pytest.raises(ValidationError):
        load_json(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ValidationError):
        load_json(str(broken))


def test_json_booleans_are_not_numbers(tmp_path):
    # JSON true/false load as Python bools, which subclass int.
    with pytest.raises(ValidationError, match="dim"):
        matrix_from_obj({"dim": True, "entries": [[True]]})
    with pytest.raises(ValidationError, match="number"):
        matrix_from_obj({"entries": [[True, False], [False, False]]})
    with pytest.raises(ValidationError, match="number"):
        matrix_from_obj({"entries": [[1, [0, True]], [0, 1]]})
    with pytest.raises(ValidationError, match="number"):
        vector_from_obj([True, 0])
    ensemble = {"ensemble": [{"weight": True, "vector": [1, 0]}, {"weight": 1.0, "vector": [0, 1]}]}
    with pytest.raises(ValidationError, match="weight"):
        state_from_obj(ensemble)
    with pytest.raises(ValidationError, match="indices"):
        classical_event_from_obj({"indices": [True]}, 3)
    with pytest.raises(ValidationError, match="weights"):
        classical_space_from_obj({"weights": [True, False]})
    up = matrix_to_obj(np.diag([1.0, 0.0]))
    down = matrix_to_obj(np.diag([0.0, 1.0]))
    with pytest.raises(ValidationError, match="resolutions"):
        valuation_from_obj({"events": [up, down], "resolutions": [[False, True]]})
    path = tmp_path / "bool_event.json"
    path.write_text('{"dim": true, "entries": [[true]]}', encoding="utf-8")
    with pytest.raises(ValidationError):
        load_event(str(path))
