"""Sequential test-apparatus scenarios and their sampling model.

A chain prepares a system in a minimal event and passes it through a
sequence of two-outlet test apparatuses before a final outcome test.
Each apparatus tests one event and is configured by what happens to the
two outlets:

* ``pass_both`` with no detector: both outlets continue and are
  rejoined.  No record of the outlet exists anywhere, so the apparatus
  as a whole tests the sum of the two outlet events, which is the
  certain event; it cannot change any later probability.
* ``block_on_negation``: the negation outlet is absorbed.  Whatever
  continues has passed the test, so later probabilities are conditioned
  on the tested event.
* ``pass_both`` with a detector on an outlet: both outlets continue but
  a which-way record now exists.  Later probabilities combine the two
  outlet branches as a classical mixture weighted by the branch
  probabilities; the interference between the outlets is gone even
  though nothing was absorbed.

The distinction is physical, not bookkeeping: adding a detector to a
rejoined apparatus changes downstream probabilities.  The analytic
evaluation returns a derivation trace recording which rule fired at
each apparatus; the sampler reproduces the same statistics by
simulating trials with a counter-based pseudorandom generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conditioning import PureVector, State, _chain_events, cond_state, state_value
from .errors import InvariantError, UndefinedProbabilityError, ValidationError
from .events import Event, complement
from .objective import objective_seq
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

_SPIN_VECTORS = {
    ("x", "+"): (1 / math.sqrt(2), 1 / math.sqrt(2)),
    ("x", "-"): (1 / math.sqrt(2), -1 / math.sqrt(2)),
    ("y", "+"): (1 / math.sqrt(2), 1j / math.sqrt(2)),
    ("y", "-"): (1 / math.sqrt(2), -1j / math.sqrt(2)),
    ("z", "+"): (1, 0),
    ("z", "-"): (0, 1),
}

MODE_BLOCK = "block_on_negation"
MODE_PASS = "pass_both"

RULE_COHERENT_JOIN = "coherent-join"
RULE_BLOCK = "block-on-negation"
RULE_INCOHERENT_SPLIT = "incoherent-split"


def spin_projector(axis: str, sign: str) -> Event:
    """Minimal spin-half event for the given axis (x, y or z) and sign.

    Convention: the z axis is diagonal, so ``spin_projector("z", "+")``
    is ``diag(1, 0)``; the x and y events are ``(identity +/- sigma)/2``
    for the corresponding Pauli matrix.
    """
    axis = str(axis).lower()
    if axis not in _PAULI:
        raise ValidationError(f"unknown spin axis {axis!r}; expected one of x, y, z")
    if sign not in ("+", "-"):
        raise ValidationError(f"unknown spin sign {sign!r}; expected '+' or '-'")
    s = 1.0 if sign == "+" else -1.0
    return Event((np.eye(2, dtype=np.complex128) + s * _PAULI[axis]) / 2.0, 1)


def spin_vector(axis: str, sign: str) -> PureVector:
    """Unit vector spanning the range of the matching spin projector."""
    key = (str(axis).lower(), sign)
    if key not in _SPIN_VECTORS:
        raise ValidationError(f"unknown spin direction {key!r}")
    return PureVector(np.array(_SPIN_VECTORS[key], dtype=np.complex128))


@dataclass(frozen=True)
class Apparatus:
    """One two-outlet test in a chain.

    ``detector`` names the outlet carrying a recording device
    ("positive" or "negation"), or None.  Detectors only make sense when
    both outlets continue, so they require ``pass_both`` mode.
    """

    test_event: Event
    mode: str = MODE_PASS
    detector: str | None = None

    def __post_init__(self):
        if not isinstance(self.test_event, Event):
            raise ValidationError("apparatus test_event must be an Event")
        if self.mode not in (MODE_BLOCK, MODE_PASS):
            raise ValidationError(f"unknown apparatus mode {self.mode!r}")
        if self.detector is not None:
            if self.detector not in ("positive", "negation"):
                raise ValidationError(f"unknown detector outlet {self.detector!r}")
            if self.mode != MODE_PASS:
                raise ValidationError("a detector requires pass_both mode")

    @property
    def has_detector(self) -> bool:
        return self.detector is not None


@dataclass(frozen=True)
class Chain:
    """Preparation, apparatuses and a final outcome test."""

    preparation: Event
    apparatuses: tuple[Apparatus, ...]
    final_outcome: Event

    def __post_init__(self):
        if not isinstance(self.preparation, Event):
            raise ValidationError("preparation must be an Event")
        if not self.preparation.is_minimal():
            raise ValidationError("preparation must be a minimal (rank-1) event")
        object.__setattr__(self, "apparatuses", tuple(self.apparatuses))
        if not all(isinstance(app, Apparatus) for app in self.apparatuses):
            raise ValidationError("chain apparatuses must be Apparatus instances")
        _chain_events([app.test_event for app in self.apparatuses] + [self.final_outcome], self.preparation.dim)

    @property
    def dim(self) -> int:
        return self.preparation.dim


@dataclass(frozen=True)
class TraceStep:
    """One derivation-trace entry: which rule fired at which apparatus."""

    apparatus_index: int
    rule: str
    branch: str | None = None
    weight: float | None = None
    note: str = ""


@dataclass(frozen=True)
class ChainEvaluation:
    """Analytic value of a chain plus the derivation trace behind it."""

    value: float
    steps: tuple[TraceStep, ...]


def _seq_value(d: Event, prefix: list[Event], tol: Tolerances) -> float:
    result = objective_seq(d, prefix, tol)
    if result.value is None:
        raise InvariantError("chain prefixed by a minimal preparation must give state-independent values")
    return result.value


def evaluate_chain(chain: Chain, tol: Tolerances = DEFAULT_TOL) -> ChainEvaluation:
    """Analytic probability of the final outcome, with a derivation trace.

    Recurses over the apparatuses, maintaining the conditioning prefix.
    A rejoined apparatus tests the sum of its outlet events, the certain
    event, and leaves the prefix unchanged; a blocking apparatus appends
    its tested event to the prefix, and a detector apparatus splits into
    a probability-weighted classical mixture over its outlets.  Outlet
    branches of probability zero are noted and skipped.  Because the
    preparation is minimal, the result is the same for every state that
    can be prepared this way.
    """
    steps: list[TraceStep] = []

    def recurse(prefix: list[Event], idx: int) -> float:
        if idx == len(chain.apparatuses):
            return _seq_value(chain.final_outcome, prefix, tol)
        app = chain.apparatuses[idx]
        if app.mode == MODE_BLOCK:
            steps.append(TraceStep(
                apparatus_index=idx,
                rule=RULE_BLOCK,
                note="negation outlet absorbed; survivors are conditioned on the tested event",
            ))
            return recurse(prefix + [app.test_event], idx + 1)
        if not app.has_detector:
            steps.append(TraceStep(
                apparatus_index=idx,
                rule=RULE_COHERENT_JOIN,
                note="no record exists of the outlet taken; the apparatus tests the certain sum event",
            ))
            return recurse(prefix, idx + 1)
        total = 0.0
        for branch_name, branch_event in (("positive", app.test_event), ("negation", complement(app.test_event))):
            weight = _seq_value(branch_event, prefix, tol)
            if weight <= tol.prob_floor:
                steps.append(TraceStep(
                    apparatus_index=idx,
                    rule=RULE_INCOHERENT_SPLIT,
                    branch=branch_name,
                    weight=0.0,
                    note="outlet unreachable from this preparation; contributes nothing",
                ))
                continue
            steps.append(TraceStep(
                apparatus_index=idx,
                rule=RULE_INCOHERENT_SPLIT,
                branch=branch_name,
                weight=weight,
                note="which-way record created as the system clears the detector outlet; "
                     "branches combine as a classical mixture",
            ))
            total += weight * recurse(prefix + [branch_event], idx + 1)
        return total

    value = clamp_probability(recurse([chain.preparation], 0), tol, what="chain probability")
    return ChainEvaluation(value=value, steps=tuple(steps))


def conditioned_on_record(chain: Chain, record: str, tol: Tolerances = DEFAULT_TOL) -> float:
    """Final-outcome probability given the detector's recorded outlet.

    The chain must contain exactly one detector apparatus.  ``record``
    selects which outlet its record shows ("positive" or "negation");
    the returned value conditions on that branch alongside the blocking
    and rejoining rules of the other apparatuses.
    """
    if record not in ("positive", "negation"):
        raise ValidationError(f"unknown record value {record!r}")
    detector_count = sum(1 for app in chain.apparatuses if app.has_detector)
    if detector_count != 1:
        raise ValidationError(f"conditioning on a record needs exactly one detector apparatus, found {detector_count}")
    prefix = [chain.preparation]
    for app in chain.apparatuses:
        if app.mode == MODE_BLOCK:
            prefix.append(app.test_event)
        elif app.has_detector:
            prefix.append(app.test_event if record == "positive" else complement(app.test_event))
    return _seq_value(chain.final_outcome, prefix, tol)


@dataclass(frozen=True)
class SampleReport:
    """Summary of a simulated run of a chain.

    ``outcome_counts`` spans "positive", "negation" and, when blocking
    occurs, "blocked"; it sums to ``trials``.  ``frequencies`` are over
    surviving trials only, so they compare directly to ``analytic``,
    the evaluated probabilities.  ``detector_counts`` tallies which-way
    records per detector apparatus.  ``seed`` and ``workers`` pin down
    the exact pseudorandom stream for reproducibility.
    """

    trials: int
    outcome_counts: dict[str, int]
    frequencies: dict[str, float]
    analytic: dict[str, float]
    max_abs_deviation: float
    seed: int
    workers: int
    detector_counts: dict[str, int] = field(default_factory=dict)


class _DrawNode:
    """Precomputed decision point: probability of the positive branch plus children."""

    __slots__ = ("kind", "p", "on_positive", "on_negation", "apparatus_index")

    def __init__(self, kind, p, on_positive=None, on_negation=None, apparatus_index=None):
        self.kind = kind  # "block", "detector" or "final"
        self.p = p
        self.on_positive = on_positive
        self.on_negation = on_negation
        self.apparatus_index = apparatus_index


def _snap_unit(p: float, tol: Tolerances) -> float:
    # Probabilities within tolerance of 0 or 1 are treated as exact so a
    # certain branch can never lose a trial to a stray uniform draw.
    if p <= tol.atol + tol.rtol:
        return 0.0
    if p >= 1.0 - (tol.atol + tol.rtol):
        return 1.0
    return p


def _build_draw_tree(chain: Chain, tol: Tolerances) -> _DrawNode:
    """Turn the chain into a tree of scalar decision points.

    All matrix work happens here, once; sampling then only draws
    uniforms and walks the tree.  States are propagated by conditioning
    on the branch events, mirroring the analytic rules.
    """
    def build(state: State, idx: int) -> _DrawNode:
        if idx == len(chain.apparatuses):
            p = _snap_unit(state_value(state, chain.final_outcome, tol), tol)
            return _DrawNode("final", p)
        app = chain.apparatuses[idx]
        if app.mode == MODE_PASS and not app.has_detector:
            # Rejoined outlets: the apparatus tests the certain event,
            # so no draw happens and the state is unchanged.
            return build(state, idx + 1)
        p = _snap_unit(state_value(state, app.test_event, tol), tol)
        if app.mode == MODE_BLOCK:
            child = build(cond_state(state, app.test_event, tol), idx + 1) if p > 0.0 else None
            return _DrawNode("block", p, on_positive=child, apparatus_index=idx)
        pos = build(cond_state(state, app.test_event, tol), idx + 1) if p > 0.0 else None
        neg_event = complement(app.test_event)
        neg = build(cond_state(state, neg_event, tol), idx + 1) if p < 1.0 else None
        return _DrawNode("detector", p, on_positive=pos, on_negation=neg, apparatus_index=idx)

    return build(State(chain.preparation.matrix, tol=tol), 0)


def _run_worker(root: _DrawNode, trials: int, rng: np.random.Generator) -> tuple[dict[str, int], dict[str, int]]:
    counts = {"positive": 0, "negation": 0, "blocked": 0}
    detector_counts: dict[str, int] = {}
    for _ in range(trials):
        node = root
        outcome = None
        while outcome is None:
            if node.kind == "final":
                took_positive = node.p > 0.0 and (node.p >= 1.0 or rng.random() < node.p)
                outcome = "positive" if took_positive else "negation"
            elif node.kind == "block":
                passed = node.p > 0.0 and (node.p >= 1.0 or rng.random() < node.p)
                if not passed:
                    outcome = "blocked"
                else:
                    node = node.on_positive
            else:
                took_positive = node.p > 0.0 and (node.p >= 1.0 or rng.random() < node.p)
                key = f"apparatus{node.apparatus_index}:{'positive' if took_positive else 'negation'}"
                detector_counts[key] = detector_counts.get(key, 0) + 1
                node = node.on_positive if took_positive else node.on_negation
        counts[outcome] += 1
    return counts, detector_counts


def sample_chain(
    chain: Chain,
    trials: int,
    seed: int,
    workers: int = 1,
    tol: Tolerances = DEFAULT_TOL,
) -> SampleReport:
    """Simulate a chain and compare frequencies to the analytic values.

    The pseudorandom source is numpy's PCG64 generator; worker substreams
    are derived from ``SeedSequence((seed, worker_index))``, so results
    are bit-for-bit reproducible for a given (seed, workers, trials)
    regardless of how the work is scheduled.  Trials absorbed at a
    blocking apparatus count as "blocked" and are excluded from the
    frequency denominator.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    root = _build_draw_tree(chain, tol)
    evaluation = evaluate_chain(chain, tol)

    counts = {"positive": 0, "negation": 0, "blocked": 0}
    detector_counts: dict[str, int] = {}
    base, extra = divmod(int(trials), int(workers))
    for w in range(int(workers)):
        n = base + (1 if w < extra else 0)
        if n == 0:
            continue
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), w))))
        wc, wd = _run_worker(root, n, rng)
        for k, v in wc.items():
            counts[k] += v
        for k, v in wd.items():
            detector_counts[k] = detector_counts.get(k, 0) + v

    survivors = counts["positive"] + counts["negation"]
    if survivors == 0:
        raise UndefinedProbabilityError("every trial was blocked; no surviving frequencies exist")
    frequencies = {
        "positive": counts["positive"] / survivors,
        "negation": counts["negation"] / survivors,
    }
    analytic = {"positive": evaluation.value, "negation": 1.0 - evaluation.value}
    max_dev = max(abs(frequencies[k] - analytic[k]) for k in ("positive", "negation"))
    outcome_counts = {k: v for k, v in counts.items() if not (k == "blocked" and v == 0)}
    return SampleReport(
        trials=int(trials),
        outcome_counts=outcome_counts,
        frequencies=frequencies,
        analytic=analytic,
        max_abs_deviation=max_dev,
        seed=int(seed),
        workers=int(workers),
        detector_counts=detector_counts,
    )
