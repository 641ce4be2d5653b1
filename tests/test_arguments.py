"""The argument contract of every public callable.

Each public callable is called once per positional parameter, ``tol``
included, and per entry of a catalogue of wrong arguments, with every
other argument valid.  Only a :class:`QcpError` may escape.  A parameter
annotated with a library kind must refuse each catalogue entry with
:class:`ValidationError`: the wrong kind, and an :class:`Event` of the
wrong dimension where another argument fixes the dimension.  A ``tol``
is passed by keyword and refuses every entry.  What a
parameter accepts beyond its kind is listed below with the docstring
line that allows it.
"""

import inspect
import re

import numpy as np
import pytest

import qcondprob
from qcondprob import (
    Apparatus,
    Chain,
    ClassicalEvent,
    ClassicalSpace,
    PureVector,
    QcpError,
    State,
    ValidationError,
    ValuationProblem,
    spin_projector,
    validate_event,
)

KINDS = ("Event", "State", "Chain", "Apparatus", "ValuationProblem", "ClassicalSpace", "ClassicalEvent", "PureVector")

# Every valid call below is in dimension 2 (two outcomes for the classical calls).
CATALOGUE = {
    "ndarray": np.diag([1.0, 0.0]),
    "nested list": [[1.0, 0.0], [0.0, 0.0]],
    "None": None,
    "True": True,
    "float": 0.5,
    "str": "not an argument",
    "wrong dimension": validate_event(np.diag([1.0, 0.0, 0.0])),
}

# Public names whose calls the contract does not cover, with the reason.
EXCLUDED = {
    "CondProbResult": "result record: its fields are stored as given",
    "InterferenceReport": "result record: its fields are stored as given",
    "ScanPoint": "result record: its fields are stored as given",
    "ChainEvaluation": "result record: its fields are stored as given",
    "TraceStep": "result record: its fields are stored as given",
    "SampleReport": "result record: its fields are stored as given",
    "ValuationResult": "result record: its fields are stored as given",
    "QcpError": "exception class: takes any message",
    "ValidationError": "exception class: takes any message",
    "UndefinedProbabilityError": "exception class: takes any message",
    "ConvergenceError": "exception class: takes any message",
    "InvariantError": "exception class: takes any message",
}

# Public classmethods, which the __all__-driven contract does not reach: a valid call, and the
# wrong arguments each must refuse with ValidationError, by name.
CLASSMETHODS = {
    "State.from_ensemble": (
        State.from_ensemble,
        ([(1, [1.0, 0.0])],),
        {**CATALOGUE, "[1]": [1], "[(None, [1, 0])]": [(None, [1, 0])], "bool weight": [(True, [1, 0])],
         "weight beyond float range": [(10**400, [1, 0])], "triple": [(1.0, [1, 0], 2)]},
    ),
    "ClassicalEvent.from_indices(n_outcomes)": (
        lambda n: ClassicalEvent.from_indices(n, [0]),
        (2,),
        CATALOGUE,
    ),
    "ClassicalEvent.from_indices(indices)": (
        lambda indices: ClassicalEvent.from_indices(2, indices),
        ([1],),
        CATALOGUE,
    ),
}

# (callable, parameter) -> a valid raw argument it reads, and the docstring line that allows it.
DOCUMENTED = {
    ("validate_event", "matrix"): (np.eye(2), "Check that a matrix is an orthogonal projection and wrap it."),
    ("State", "rho"): (np.eye(2) / 2, "Construct from an explicit matrix"),
    ("PureVector", "amplitudes"): ([1.0, 0.0], "A nonzero one-dimensional vector of complex amplitudes."),
    ("ClassicalSpace", "weights"): ([0.5, 0.5], "read from a one-dimensional list of weights."),
    ("ClassicalEvent", "membership"): ([True, False], "read from a one-dimensional boolean membership mask."),
    ("pure_event_prob", "psi"): ([3.7, 0.0], "``psi`` may be raw amplitudes, read as a :class:`PureVector`."),
    ("transition_prob", "psi"): ([1.0, 1.0], "Either argument may be raw amplitudes"),
    ("transition_prob", "xi"): ([1.0, 1.0], "Either argument may be raw amplitudes"),
    ("state_value", "a"): (np.eye(2), "``a`` may be an :class:`Event` or a self-adjoint matrix."),
    ("cond_prob", "d"): (np.eye(2), "``d`` may be an event or any self-adjoint matrix"),
    ("repeated_cond_prob", "d"): (np.eye(2), "``d`` may be an event or any self-adjoint matrix."),
    ("Apparatus", "detector"): (None, '("positive" or "negation"), or None.'),
    ("ValuationProblem", "resolutions"): (None, "When ``resolutions`` is omitted they are"),
}

# (callable, parameter) whose Event is the call's only argument with a dimension, so any dimension is valid.
ANY_DIMENSION = {("Apparatus", "test_event"), ("complement", "e"), ("state_from_outcome", "e")}


def _valid_calls():
    """A valid positional argument list for each covered public callable, all in dimension 2."""
    zp, zm = spin_projector("z", "+"), spin_projector("z", "-")
    xp, xm = spin_projector("x", "+"), spin_projector("x", "-")
    mu = State.maximally_mixed(2)
    space, heads, tails = ClassicalSpace([0.5, 0.5]), ClassicalEvent([True, False]), ClassicalEvent([True, True])
    detector = Apparatus(xp, "pass_both", "positive")
    chain = Chain(zp, [detector], zp)
    return {
        "DEFAULT_TOL": None,
        "MAX_EVENTS": None,
        "Tolerances": (1e-10, 1e-10, 1e-9, 1e-12),
        "clamp_probability": (0.5, 1e-9, "probability"),
        "probability_slack": (1,),
        "Event": (np.eye(2), 2),
        "validate_event": (np.eye(2),),
        "zero_event": (2,),
        "identity_event": (2,),
        "complement": (zp,),
        "commutes": (zp, xp),
        "implies": (zp, zp),
        "is_orthogonal": (zp, zm),
        "lattice_meet": (zp, xp),
        "ClassicalSpace": ([0.5, 0.5],),
        "ClassicalEvent": ([True, False],),
        "classical_prob": (space, heads),
        "classical_cond_prob": (space, heads, tails),
        "classical_repeated": (space, heads, [tails]),
        "embed_event": (heads,),
        "embed_diagonal": (space,),
        "PureVector": ([1.0, 0.0],),
        "State": (np.eye(2) / 2,),
        "state_value": (mu, zp),
        "cond_state": (mu, xp),
        "cond_prob": (mu, zp, xp),
        "repeated_cond_prob": (mu, zp, [xp]),
        "objective_cond_prob": (zp, xp),
        "objective_seq": (zp, [xp]),
        "pure_event_prob": (PureVector([1.0, 0.0]), xp),
        "transition_prob": (PureVector([1.0, 0.0]), PureVector([0.0, 1.0])),
        "state_from_outcome": (zp,),
        "split_cond_prob": (mu, xp, zp, zm),
        "objective_split": (xp, xp, zp, zm),
        "incoherent_combine": (xp, xp, zp, zm),
        "double_slit_scan": (xp, zp, zm, [xp, xm]),
        "spin_projector": ("z", "+"),
        "spin_vector": ("z", "+"),
        "Apparatus": (xp, "pass_both", "positive"),
        "Chain": (zp, [detector], zp),
        "evaluate_chain": (chain,),
        "conditioned_on_record": (chain, "positive"),
        "sample_chain": (chain, 10, 1, 1),
        "ValuationProblem": ([zp, zm], None),
        "search_valuation": (ValuationProblem([zp, zm]),),
    }


VALID = _valid_calls()
COVERED = sorted(name for name in qcondprob.__all__ if name not in EXCLUDED)


def _positional(f):
    """The positional parameters of ``f`` other than ``tol``, which the tests pass by keyword."""
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p for p in inspect.signature(f).parameters.values() if p.kind in kinds and p.name != "tol"]


def _library_kinds(param):
    """The library kinds named by a parameter's annotation, which ``from __future__ import annotations`` keeps as text."""
    return set(re.findall(r"\w+", str(param.annotation))) & set(KINDS)


def _outcome(f, args, **kwargs):
    """None when the call returns, else the QcpError it raises; any other exception fails the test."""
    try:
        f(*args, **kwargs)
    except QcpError as exc:
        return exc
    return None


def test_every_public_name_is_covered_or_excluded():
    assert set(VALID) | set(EXCLUDED) == set(qcondprob.__all__)
    assert not set(VALID) & set(EXCLUDED)


@pytest.mark.parametrize("name", COVERED)
def test_only_qcp_errors_escape_and_library_arguments_are_checked(name):
    f = getattr(qcondprob, name)
    valid = VALID[name]
    if not callable(f):
        assert valid is None
        return
    params = _positional(f)
    assert len(valid) == len(params), [p.name for p in params]
    assert _outcome(f, valid) is None
    for k, param in enumerate(params):
        library = _library_kinds(param)
        for entry, wrong in CATALOGUE.items():
            args = valid[:k] + (wrong,) + valid[k + 1:]
            try:
                exc = _outcome(f, args)
            except Exception as escaped:  # noqa: BLE001 - the contract is that nothing else escapes
                pytest.fail(f"{name}({param.name}={entry}) raised {type(escaped).__name__}: {escaped}")
            accepted = entry == "wrong dimension" and (name, param.name) in ANY_DIMENSION
            if library and not accepted:
                assert isinstance(exc, ValidationError), f"{name}({param.name}={entry}) gave {exc!r}"
    if "tol" in inspect.signature(f).parameters:
        for entry, wrong in CATALOGUE.items():
            try:
                exc = _outcome(f, valid, tol=wrong)
            except Exception as escaped:  # noqa: BLE001 - the contract is that nothing else escapes
                pytest.fail(f"{name}(tol={entry}) raised {type(escaped).__name__}: {escaped}")
            assert isinstance(exc, ValidationError), f"{name}(tol={entry}) gave {exc!r}"
            assert str(exc) == f"tol must be a Tolerances, got {type(wrong).__name__}"


@pytest.mark.parametrize("key", [f"{name}.{param}" for name, param in sorted(DOCUMENTED)])
def test_documented_acceptances_hold_and_are_documented(key):
    name, param = key.split(".")
    f = getattr(qcondprob, name)
    raw, line = DOCUMENTED[name, param]
    assert line in " ".join(inspect.getdoc(f).split())
    k = [p.name for p in _positional(f)].index(param)
    valid = VALID[name]
    assert _outcome(f, valid[:k] + (raw,) + valid[k + 1:]) is None


@pytest.mark.parametrize("key", [f"{name}:{entry}" for name, (_, _, wrong) in CLASSMETHODS.items() for entry in wrong])
def test_public_classmethods_refuse_malformed_arguments(key):
    name, entry = key.split(":", 1)
    f, valid, wrong = CLASSMETHODS[name]
    assert _outcome(f, valid) is None
    assert isinstance(_outcome(f, (wrong[entry],)), ValidationError)
