"""JSON wire formats for matrices, states, scenarios and problems.

Complex matrices travel as::

    {"dim": n, "entries": [[[re, im], ...], ...]}

with one ``[re, im]`` pair per entry (a bare number is accepted as a
real entry).  States are either a density matrix in that format or an
ensemble::

    {"ensemble": [{"weight": w, "vector": [[re, im], ...]}, ...]}

Events in scenario files may be written as a matrix or by name::

    {"spin": {"axis": "x", "sign": "+"}}

All loaders raise :class:`ValidationError` on malformed input, so the
command line maps every file problem to its input-error exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalEvent, ClassicalSpace
from .conditioning import PureVector, State
from .errors import ValidationError
from .events import Event, validate_event
from .experiments import Apparatus, Chain, spin_projector
from .tolerances import DEFAULT_TOL, Tolerances
from .valuation import ValuationProblem


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path!r} is not valid JSON: {exc}") from exc


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_number(x, kinds=(int, float)) -> bool:
    """The loaders' one number test; JSON booleans load as ``bool``, an ``int`` subclass, and are refused."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def _entry_to_complex(entry, where: str) -> complex:
    if _is_number(entry):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and all(_is_number(x) for x in entry):
        return complex(entry[0], entry[1])
    raise ValidationError(f"{where}: each entry must be a number or an [re, im] pair, got {entry!r}")


def matrix_from_obj(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValidationError(f"{where}: expected an object with 'dim' and 'entries'")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{where}: 'entries' must be a non-empty list of rows")
    dim = obj.get("dim", len(entries))
    if not _is_number(dim, int) or dim < 1:
        raise ValidationError(f"{where}: 'dim' must be a positive integer")
    if len(entries) != dim:
        raise ValidationError(f"{where}: declared dim {dim} but found {len(entries)} rows")
    m = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{where}: row {i} must be a list of {dim} entries")
        for j, entry in enumerate(row):
            m[i, j] = _entry_to_complex(entry, f"{where}[{i}][{j}]")
    return m


def vector_from_obj(obj, where: str = "vector") -> PureVector:
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{where}: expected a non-empty list of amplitudes")
    return PureVector([_entry_to_complex(x, f"{where}[{k}]") for k, x in enumerate(obj)])


def event_from_obj(obj, tol: Tolerances = DEFAULT_TOL, where: str = "event") -> Event:
    if isinstance(obj, dict) and "spin" in obj:
        spec = obj["spin"]
        if not isinstance(spec, dict):
            raise ValidationError(f"{where}: 'spin' must be an object with 'axis' and 'sign'")
        return spin_projector(spec.get("axis"), spec.get("sign"))
    return validate_event(matrix_from_obj(obj, where), tol)


def state_from_obj(obj, tol: Tolerances = DEFAULT_TOL, where: str = "state") -> State:
    if isinstance(obj, dict) and "ensemble" in obj:
        components = obj["ensemble"]
        if not isinstance(components, list) or not components:
            raise ValidationError(f"{where}: 'ensemble' must be a non-empty list")
        pairs = []
        for k, comp in enumerate(components):
            if not isinstance(comp, dict) or "weight" not in comp or "vector" not in comp:
                raise ValidationError(f"{where}: ensemble component {k} needs 'weight' and 'vector'")
            weight = comp["weight"]
            if not _is_number(weight):
                raise ValidationError(f"{where}: ensemble weight must be a number, got {weight!r}")
            pairs.append((float(weight), vector_from_obj(comp["vector"], f"{where}.ensemble[{k}].vector")))
        return State.from_ensemble(pairs, tol=tol)
    return State(matrix_from_obj(obj, where), tol=tol)


def chain_from_obj(obj, tol: Tolerances = DEFAULT_TOL) -> Chain:
    if not isinstance(obj, dict):
        raise ValidationError("scenario: expected a JSON object")
    for key in ("preparation", "apparatuses", "final"):
        if key not in obj:
            raise ValidationError(f"scenario: missing required key {key!r}")
    preparation = event_from_obj(obj["preparation"], tol, "scenario.preparation")
    if not isinstance(obj["apparatuses"], list):
        raise ValidationError("scenario: 'apparatuses' must be a list")
    apparatuses = []
    for k, spec in enumerate(obj["apparatuses"]):
        if not isinstance(spec, dict) or "event" not in spec:
            raise ValidationError(f"scenario: apparatus {k} needs an 'event'")
        apparatuses.append(Apparatus(
            test_event=event_from_obj(spec["event"], tol, f"scenario.apparatuses[{k}].event"),
            mode=spec.get("mode", "pass_both"),
            detector=spec.get("detector"),
        ))
    final = event_from_obj(obj["final"], tol, "scenario.final")
    return Chain(preparation=preparation, apparatuses=tuple(apparatuses), final_outcome=final)


@dataclass(frozen=True)
class SlitModel:
    """A two-slit arrangement: preparation, the two slits, detector bank."""

    preparation: Event
    slit1: Event
    slit2: Event
    detectors: tuple[Event, ...]


def slit_model_from_obj(obj, tol: Tolerances = DEFAULT_TOL) -> SlitModel:
    if not isinstance(obj, dict):
        raise ValidationError("slit model: expected a JSON object")
    for key in ("preparation", "slit1", "slit2", "detectors"):
        if key not in obj:
            raise ValidationError(f"slit model: missing required key {key!r}")
    if not isinstance(obj["detectors"], list) or not obj["detectors"]:
        raise ValidationError("slit model: 'detectors' must be a non-empty list")
    return SlitModel(
        preparation=event_from_obj(obj["preparation"], tol, "slit.preparation"),
        slit1=event_from_obj(obj["slit1"], tol, "slit.slit1"),
        slit2=event_from_obj(obj["slit2"], tol, "slit.slit2"),
        detectors=tuple(
            event_from_obj(d, tol, f"slit.detectors[{k}]") for k, d in enumerate(obj["detectors"])
        ),
    )


def valuation_from_obj(obj, tol: Tolerances = DEFAULT_TOL) -> ValuationProblem:
    if not isinstance(obj, dict) or "events" not in obj:
        raise ValidationError("valuation problem: expected an object with 'events'")
    if not isinstance(obj["events"], list) or not obj["events"]:
        raise ValidationError("valuation problem: 'events' must be a non-empty list")
    events = [event_from_obj(e, tol, f"valuation.events[{k}]") for k, e in enumerate(obj["events"])]
    resolutions = obj.get("resolutions")
    if resolutions is not None:
        if not isinstance(resolutions, list) or not all(
            isinstance(f, list) and all(_is_number(i) for i in f) for f in resolutions
        ):
            raise ValidationError("valuation problem: 'resolutions' must be a list of index lists")
    return ValuationProblem(events, resolutions=resolutions, tol=tol)


def classical_space_from_obj(obj, tol: Tolerances = DEFAULT_TOL) -> ClassicalSpace:
    if not isinstance(obj, dict) or "weights" not in obj or not isinstance(obj["weights"], list):
        raise ValidationError("classical space: expected an object with a 'weights' list")
    if not all(_is_number(w) for w in obj["weights"]):
        raise ValidationError(f"classical space: weights must be numbers, got {obj['weights']!r}")
    return ClassicalSpace(obj["weights"], tol=tol)


def classical_event_from_obj(obj, n_outcomes: int) -> ClassicalEvent:
    if not isinstance(obj, dict) or "indices" not in obj or not isinstance(obj["indices"], list):
        raise ValidationError("classical event: expected an object with an 'indices' list")
    if not all(_is_number(i) for i in obj["indices"]):
        raise ValidationError(f"classical event: indices must be numbers, got {obj['indices']!r}")
    return ClassicalEvent.from_indices(n_outcomes, obj["indices"])


def matrix_to_obj(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=np.complex128)
    return {
        "dim": int(m.shape[0]),
        "entries": [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(m.shape[1])] for i in range(m.shape[0])],
    }


def event_to_obj(e: Event) -> dict:
    return matrix_to_obj(e.matrix)


def state_to_obj(state: State) -> dict:
    return matrix_to_obj(state.rho)


def load_event(path: str, tol: Tolerances = DEFAULT_TOL) -> Event:
    return event_from_obj(load_json(path), tol, where=path)


def load_state(path: str, tol: Tolerances = DEFAULT_TOL) -> State:
    return state_from_obj(load_json(path), tol, where=path)


def load_chain(path: str, tol: Tolerances = DEFAULT_TOL) -> Chain:
    return chain_from_obj(load_json(path), tol)


def load_slit_model(path: str, tol: Tolerances = DEFAULT_TOL) -> SlitModel:
    return slit_model_from_obj(load_json(path), tol)


def load_valuation(path: str, tol: Tolerances = DEFAULT_TOL) -> ValuationProblem:
    return valuation_from_obj(load_json(path), tol)
