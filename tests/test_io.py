import json
from pathlib import Path

import numpy as np
import pytest

from qcondprob import Apparatus, ValidationError, spin_projector
from qcondprob.io import (
    chain_from_obj,
    classical_event_from_obj,
    classical_space_from_obj,
    event_from_obj,
    load_event,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    slit_model_from_obj,
    state_from_obj,
    valuation_from_obj,
    vector_from_obj,
    write_json,
)

from helpers import (
    random_full_rank_state,
    random_projection,
    reference_entry_to_complex,
    reference_matrix_from_obj,
)


def test_matrix_round_trip():
    rng = np.random.default_rng(601)
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        back = matrix_from_obj(matrix_to_obj(m))
        assert np.array_equal(back, m)
    # The writer reads any layout and keeps signed zeros, as a per-entry writer would.
    m = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).T
    m[0, 1] = complex(-0.0, -0.0)
    per_entry = [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(4)] for i in range(4)]
    assert json.dumps(matrix_to_obj(m)) == json.dumps({"dim": 4, "entries": per_entry})


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


def _random_number(rng, huge=True):
    """A JSON-like number: ints, floats, signed zeros, subnormals, +-1e+-300, numpy float scalars."""
    kind = int(rng.integers(8 if huge else 7))
    sign = float(rng.choice([-1.0, 1.0]))
    if kind == 0:
        return int(rng.integers(-5, 6))
    if kind == 1:
        return int(sign) * 3 ** int(rng.integers(30, 200))  # beyond 2**53: rounded on conversion
    if kind == 2:
        return float(rng.normal())
    if kind == 3:
        return sign * 0.0
    if kind == 4:
        return sign * float(rng.uniform()) * 2.2250738585072014e-308
    if kind == 5:
        return np.float64(rng.normal())
    if kind == 6:
        return sign * 5e-324
    return sign * float(rng.uniform(1.0, 1.7)) * 10.0 ** float(rng.choice([300, -300]))


def _random_entry(rng, form, huge=True):
    if form == "mixed":
        form = str(rng.choice(["bare", "list", "tuple"]))
    if form == "bare":
        return _random_number(rng, huge)
    pair = [_random_number(rng, huge), _random_number(rng, huge)]
    return pair if form == "list" else tuple(pair)


def test_bulk_decoding_is_bit_identical_to_the_per_entry_reference():
    rng = np.random.default_rng(619)
    for _ in range(240):
        dim = int(rng.integers(1, 17))
        form = str(rng.choice(["bare", "list", "tuple", "mixed"]))
        entries = [[_random_entry(rng, form) for _ in range(dim)] for _ in range(dim)]
        obj = {"dim": dim, "entries": entries} if rng.random() < 0.5 else {"entries": entries}
        fast = matrix_from_obj(obj)
        assert fast.dtype == np.complex128 and fast.shape == (dim, dim)
        assert np.array_equal(_bits(fast), _bits(reference_matrix_from_obj(obj))), (dim, form)
        # Vectors: no +-1e300 entries, whose squared norm overflows in PureVector.
        amplitudes = [1] + [_random_entry(rng, form, huge=False) for _ in range(dim - 1)]
        expected = [reference_entry_to_complex(x, "v") for x in amplitudes]
        assert np.array_equal(_bits(vector_from_obj(amplitudes).amplitudes), _bits(expected)), (dim, form)


_EACH = "each entry must be a number or an [re, im] pair, got"


@pytest.mark.parametrize("obj, message", [
    pytest.param([[1, 0], [0, 1]], "m: expected an object with 'dim' and 'entries'", id="not-an-object"),
    pytest.param({"entries": []}, "m: 'entries' must be a non-empty list of rows", id="empty-entries"),
    pytest.param({"dim": 0, "entries": [[1]]}, "m: 'dim' must be a positive integer", id="dim-zero"),
    pytest.param({"dim": 3, "entries": [[1, 0], [0, 1]]}, "m: declared dim 3 but found 2 rows", id="dim-mismatch"),
    pytest.param({"entries": [[1, 0], [0]]}, "m: row 1 must be a list of 2 entries", id="ragged-row"),
    pytest.param({"entries": [[1, 0], (0, 1)]}, "m: row 1 must be a list of 2 entries", id="row-not-a-list"),
    pytest.param({"entries": [[1, "x"], [0]]}, f"m[0][1]: {_EACH} 'x'", id="entry-before-ragged-row"),
    pytest.param({"entries": [[1, True], [0, 1]]}, f"m[0][1]: {_EACH} True", id="bool"),
    pytest.param({"entries": [[[1, 0], [0, False]], [[0, 0], [1, 0]]]}, f"m[0][1]: {_EACH} [0, False]", id="bool-in-pair"),
    pytest.param({"entries": [[1, "x"], [0, 1]]}, f"m[0][1]: {_EACH} 'x'", id="string"),
    pytest.param({"entries": [[1, 0], [None, 1]]}, f"m[1][0]: {_EACH} None", id="none"),
    pytest.param({"entries": [[[1, 0], [0, 1, 2]], [[0, 0], [1, 0]]]}, f"m[0][1]: {_EACH} [0, 1, 2]", id="three-element-pair"),
    pytest.param({"entries": [[[[1, 0], [0, 0]], [0, 0]], [[0, 0], [1, 0]]]}, f"m[0][0]: {_EACH} [[1, 0], [0, 0]]", id="nested-pair"),
    pytest.param({"entries": [[[[1, 0], [0, 0]]]]}, f"m[0][0]: {_EACH} [[1, 0], [0, 0]]", id="all-nested"),
    pytest.param({"entries": [[[1]]]}, f"m[0][0]: {_EACH} [1]", id="one-element-pair"),
    pytest.param({"entries": [[1, [0, 1]], [0, None]]}, f"m[1][1]: {_EACH} None", id="none-in-mixed"),
    pytest.param({"entries": [[np.array([1.0, 0.0])]]}, f"m[0][0]: {_EACH} array([1., 0.])", id="array-pair"),
])
def test_malformed_matrices_keep_their_messages(obj, message):
    for parse in (matrix_from_obj, reference_matrix_from_obj):
        with pytest.raises(ValidationError) as info:
            parse(obj, "m")
        assert str(info.value) == message


def test_integers_beyond_float_range_are_refused(tmp_path):
    huge = 10 ** 400
    for entries, message in (
        ([[1, huge], [0, 1]], "m[0][1]: integer beyond float range"),
        ([[[1, 0], [0, -huge]], [[0, 0], [1, 0]]], "m[0][1]: integer beyond float range"),
        ([[1, [huge, 0]], [0, 1]], "m[0][1]: integer beyond float range"),
    ):
        with pytest.raises(ValidationError) as info:
            matrix_from_obj({"entries": entries}, "m")
        assert str(info.value) == message
    with pytest.raises(ValidationError, match=r"^v\[1\]: integer beyond float range$"):
        vector_from_obj([1, huge], "v")
    with pytest.raises(ValidationError, match=r"^s\.ensemble\[0\]\.weight: integer beyond float range$"):
        state_from_obj({"ensemble": [{"weight": huge, "vector": [1, 0]}]}, where="s")
    with pytest.raises(ValidationError, match=r"weights\[1\]: integer beyond float range$"):
        classical_space_from_obj({"weights": [0.5, huge]})
    # Past the interpreter's integer-string limit the parse itself refuses; below it, the loader does.
    path = tmp_path / "long_integer.json"
    path.write_text('{"entries": [[1' + "0" * 5000 + "]]}", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_event(str(path))


def test_matrix_accepts_bare_reals_and_defaults_dim():
    m = matrix_from_obj({"entries": [[1, 0], [0, [0, 1]]]})
    assert np.array_equal(m, np.array([[1, 0], [0, 1j]]))


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
        back = event_from_obj(matrix_to_obj(e.matrix))
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
        back = state_from_obj(matrix_to_obj(mu.rho))
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
    # A key the spec leaves out takes Apparatus's default; a null one is passed on as None.
    nulls = chain_from_obj({**obj, "apparatuses": [{"event": obj["final"], "detector": None}]})
    assert (nulls.apparatuses[0].mode, nulls.apparatuses[0].detector) == (Apparatus.mode, None)
    with pytest.raises(ValidationError, match="unknown apparatus mode None"):
        chain_from_obj({**obj, "apparatuses": [{"event": obj["final"], "mode": None}]})
    with pytest.raises(ValidationError, match="'apparatuses' must be a list"):
        chain_from_obj({**obj, "apparatuses": {"event": obj["final"]}})
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
    with pytest.raises(ValidationError, match="slit model: expected a JSON object"):
        slit_model_from_obj([up, up, down, [up, down]])


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
    write_json(path, matrix_to_obj(e.matrix))
    loaded = load_event(path)
    assert np.allclose(loaded.matrix, e.matrix)
    text = Path(path).read_text(encoding="utf-8")
    assert text.endswith("\n")
    # Serialisation is stable: keys are sorted, so rewriting is a no-op.
    write_json(path, matrix_to_obj(loaded.matrix))
    assert Path(path).read_text(encoding="utf-8") == text


def test_load_json_errors(tmp_path):
    with pytest.raises(ValidationError):
        load_json(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ValidationError):
        load_json(str(broken))


def test_loaders_read_tol_by_the_argument_rule():
    # A spin event and an ensemble read no tolerance, but a wrong tol is refused there too.
    spin = {"spin": {"axis": "x", "sign": "+"}}
    ensemble = {"ensemble": [{"weight": 1, "vector": [1.0, 0.0]}]}
    for load, obj in ((event_from_obj, spin), (state_from_obj, ensemble), (chain_from_obj, {
        "preparation": spin, "apparatuses": [], "final": spin,
    })):
        with pytest.raises(ValidationError, match="tol must be a Tolerances, got NoneType"):
            load(obj, None)


def test_fractional_indices_are_refused():
    with pytest.raises(ValidationError, match="indices"):
        classical_event_from_obj({"indices": [1.5]}, 3)
    with pytest.raises(ValidationError, match="indices"):
        classical_event_from_obj({"indices": [1.0]}, 3)
    up = matrix_to_obj(np.diag([1.0, 0.0]))
    down = matrix_to_obj(np.diag([0.0, 1.0]))
    with pytest.raises(ValidationError, match="resolutions"):
        valuation_from_obj({"events": [up, down], "resolutions": [[0.7, 1.2]]})
    assert valuation_from_obj({"events": [up, down], "resolutions": [[0, 1]]}).resolutions == ((0, 1),)


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
