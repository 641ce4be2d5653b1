"""Reference objects used by the test-suite, the docs and the CLI examples.

Everything here is small enough to check by hand:

* a rank-2 event pair in dimension 4 whose conditional probability is
  state-independent and equals one half;
* three spin-half apparatus chains that differ only in what happens at
  the middle apparatus (rejoined, blocking, detecting) and land at
  probabilities 1, 1/2 and 1/2 for the same final test;
* an eight-mode two-slit arrangement whose coherent profile vanishes on
  odd detector modes while the incoherent profile does not;
* an 18-event, 9-resolution collection in dimension 4 admitting no
  noncontextual truth assignment, plus two small satisfiable instances.

``write_fixture_files`` renders them all to JSON; the checked-in
``fixtures/`` directory is its output.  The spin chains and the
lower-block ensemble are described once, as the JSON their files hold,
and their objects are parsed from it.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .conditioning import State
from .events import Event, validate_event
from .experiments import Chain, spin_projector
from .io import SlitModel, chain_from_obj, matrix_to_obj, state_from_obj, write_json
from .valuation import ValuationProblem


def objective_pair() -> tuple[Event, Event]:
    """A rank-2 pair (e, d) with a state-independent conditional probability.

    ``e`` occupies the first two axes of a four-dimensional space; ``d``
    couples each of those axes to a partner outside ``e`` with equal
    weight.  Compressing ``d`` by ``e`` halves it, so the conditional
    probability of ``d`` given ``e`` is 1/2 in every state, even though
    neither event is minimal and the two do not commute.
    """
    e = validate_event(np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128))
    d = validate_event(0.5 * np.array([
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ], dtype=np.complex128))
    return e, d


def first_axis_projector_dim4() -> Event:
    """Minimal event on the first axis; not state-independent given the pair's ``e``."""
    return validate_event(np.diag([1.0, 0.0, 0.0, 0.0]).astype(np.complex128))


def mixed_state_dim4() -> State:
    return State.maximally_mixed(4)


# The lower-block ensemble as its fixture file writes it.
_LOWER_BLOCK = {
    "ensemble": [
        {"weight": 0.5, "vector": [[0, 0], [0, 0], [1, 0], [0, 0]]},
        {"weight": 0.5, "vector": [[0, 0], [0, 0], [0, 0], [1, 0]]},
    ]
}


def lower_block_state_dim4() -> State:
    """A state supported entirely outside the objective pair's ``e``."""
    return state_from_obj(_LOWER_BLOCK)


def _spin_obj(axis: str, sign: str) -> dict:
    return {"spin": {"axis": axis, "sign": sign}}


def _chain_obj(apparatus_mode: str, detector: str | None) -> dict:
    """A spin chain from z+ to z+ through one x+ apparatus, as its fixture file writes it."""
    apparatus: dict = {"event": _spin_obj("x", "+"), "mode": apparatus_mode}
    if detector is not None:
        apparatus["detector"] = detector
    return {
        "dim": 2,
        "preparation": _spin_obj("z", "+"),
        "apparatuses": [apparatus],
        "final": _spin_obj("z", "+"),
    }


def rejoined_chain() -> Chain:
    """Spin chain whose middle apparatus passes both outlets with no record."""
    return chain_from_obj(_chain_obj("pass_both", None))


def blocked_chain() -> Chain:
    """Spin chain whose middle apparatus absorbs the negation outlet."""
    return chain_from_obj(_chain_obj("block_on_negation", None))


def detector_chain() -> Chain:
    """Spin chain whose middle apparatus records the outlet taken."""
    return chain_from_obj(_chain_obj("pass_both", "positive"))


def _fourier_mode(dim: int, k: int) -> np.ndarray:
    j = np.arange(dim)
    return np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)


def double_slit_model() -> SlitModel:
    """Eight-mode two-slit arrangement with a full bank of mode detectors.

    The preparation is the uniform superposition over all eight
    positions; the slits occupy positions {1, 2} and {5, 6}; detector
    ``k`` is the k-th discrete Fourier mode.  The coherent profile is
    ``cos^2(pi k / 8) * (1 + (-1)^k) / 4``: zero for odd ``k``, while
    the incoherent profile ``cos^2(pi k / 8) / 4`` is not.  Both
    profiles sum to 1 over the bank.
    """
    dim = 8
    u = np.ones(dim, dtype=np.complex128) / math.sqrt(dim)
    preparation = validate_event(np.outer(u, u.conj()))
    slit1 = validate_event(np.diag([0, 1, 1, 0, 0, 0, 0, 0]).astype(np.complex128))
    slit2 = validate_event(np.diag([0, 0, 0, 0, 0, 1, 1, 0]).astype(np.complex128))
    detectors = []
    for k in range(dim):
        chi = _fourier_mode(dim, k)
        detectors.append(validate_event(np.outer(chi, chi.conj())))
    return SlitModel(preparation=preparation, slit1=slit1, slit2=slit2, detectors=tuple(detectors))


# 18 rays in dimension 4, listed with the 9 four-element resolutions they
# form.  Each ray appears in exactly two resolutions, so a truth
# assignment would make the 9 per-resolution "true" slots an even count,
# which 9 is not: no assignment exists.
_KS18_VECTORS = [
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (1, 1, 0, 0),
    (1, -1, 0, 0),
    (0, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, -1, 0),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
    (0, 0, 1, 1),
    (1, 1, 1, 1),
    (0, 1, 0, -1),
    (1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 1, -1, 0),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
    (-1, 1, 1, 1),
]

_KS18_RESOLUTIONS = [
    (0, 1, 2, 3),
    (0, 4, 5, 6),
    (2, 7, 8, 9),
    (6, 7, 10, 11),
    (1, 4, 12, 13),
    (8, 10, 13, 14),
    (3, 9, 15, 16),
    (5, 11, 15, 17),
    (12, 14, 16, 17),
]


def kochen_specker_18() -> ValuationProblem:
    """The 18-ray collection admitting no noncontextual truth assignment."""
    events = []
    for v in _KS18_VECTORS:
        a = np.array(v, dtype=np.complex128)
        events.append(validate_event(np.outer(a, a.conj()) / float(np.vdot(a, a).real)))
    return ValuationProblem(events, resolutions=_KS18_RESOLUTIONS)


def qubit_valuation() -> ValuationProblem:
    """Two complementary spin events: satisfiable."""
    return ValuationProblem([spin_projector("z", "+"), spin_projector("z", "-")])


def classical_valuation() -> ValuationProblem:
    """Four diagonal minimal events in dimension 4: satisfiable."""
    events = []
    for i in range(4):
        diag = np.zeros(4)
        diag[i] = 1.0
        events.append(validate_event(np.diag(diag).astype(np.complex128)))
    return ValuationProblem(events)


def write_fixture_files(outdir: str) -> list[str]:
    """Write every fixture to ``outdir`` and return the file names."""
    os.makedirs(outdir, exist_ok=True)
    e, d = objective_pair()
    slit = double_slit_model()
    files = {
        "objective_pair_e.json": matrix_to_obj(e.matrix),
        "objective_pair_d.json": matrix_to_obj(d.matrix),
        "proj_first_axis_dim4.json": matrix_to_obj(first_axis_projector_dim4().matrix),
        "state_mixed_dim4.json": matrix_to_obj(mixed_state_dim4().rho),
        "state_lower_block_dim4.json": _LOWER_BLOCK,
        "chain_rejoined.json": _chain_obj("pass_both", None),
        "chain_blocked.json": _chain_obj("block_on_negation", None),
        "chain_detector.json": _chain_obj("pass_both", "positive"),
        "double_slit_dim8.json": {
            "dim": 8,
            "preparation": matrix_to_obj(slit.preparation.matrix),
            "slit1": matrix_to_obj(slit.slit1.matrix),
            "slit2": matrix_to_obj(slit.slit2.matrix),
            "detectors": [matrix_to_obj(det.matrix) for det in slit.detectors],
        },
        "kochen_specker_18.json": {
            "dim": 4,
            "events": [matrix_to_obj(ev.matrix) for ev in kochen_specker_18().events],
            "resolutions": [list(fam) for fam in _KS18_RESOLUTIONS],
        },
        "valuation_qubit_sat.json": {
            "dim": 2,
            "events": [matrix_to_obj(ev.matrix) for ev in qubit_valuation().events],
        },
        "valuation_classical_sat.json": {
            "dim": 4,
            "events": [matrix_to_obj(ev.matrix) for ev in classical_valuation().events],
        },
    }
    for name, obj in files.items():
        write_json(os.path.join(outdir, name), obj)
    return sorted(files)


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    for name in write_fixture_files(target):
        print(name)
