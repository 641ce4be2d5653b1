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
rejoined apparatus changes downstream probabilities.

One interpreter applies these rules, the Lüders branch tree.  A
projection maps a ray to a ray, so each branch carries one unnormalised
vector u, starting at the preparation's ray: a block maps u to P u, a
detector branches into P u and u - P u, and rejoined outlets pass u on.
An outlet's probability given its path is |P u|^2 / |u|^2 (or
|u - P u|^2 / |u|^2); one at or below ``prob_floor`` is unreachable and
pruned.  Over the leaves, value = sum <u|D|u> / sum |u|^2 for the final
outcome D: Bayes' rule, each record's branch weighted by its chance of
surviving later blocks.  The one refusal is a survival sum |u|^2 at or
below ``prob_floor``.  :func:`evaluate_chain` folds the tree and records
a derivation trace, whose ``weight`` on a detector entry is the outlet's
probability given its path (0.0 if unreachable); :func:`conditioned_on_record`
folds the recorded branch; :func:`sample_chain` splits trials down the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditioning import PureVector, _chain_events
from .errors import UndefinedProbabilityError, ValidationError
from .events import Event, _is_integer, _ray
from .tolerances import DEFAULT_TOL, Tolerances, clamp_probability, probability_slack

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
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
    return PureVector(_ray(spin_projector(axis, sign)))


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
    """One derivation-trace entry: which rule fired at which apparatus, with a detector outlet's ``weight``."""

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


_NOTES = {
    RULE_COHERENT_JOIN: "no record exists of the outlet taken; the apparatus tests the certain sum event",
    RULE_BLOCK: "negation outlet absorbed; survivors are conditioned on the tested event",
    "recorded": "which-way record created as the system clears the detector outlet; "
                "branches combine as a classical mixture",
    "unreachable": "outlet unreachable from this preparation; contributes nothing",
}
_FINAL = "final"


@dataclass(slots=True)
class _Node:
    """Apparatus ``index`` (trace rule ``kind``) or the final test, reached by a branch with |u|^2 = ``mass``.

    ``p`` and ``q`` are the positive and negation outlets' probabilities
    given the path, ``p`` the final outcome's on a leaf; a pruned outlet
    has 0.0 and child None.  A rejoin's one child is ``positive``.
    """

    index: int
    kind: str
    mass: float
    p: float = 1.0
    q: float = 0.0
    positive: _Node | None = None
    negation: _Node | None = None


def _branch_tree(chain: Chain, tol: Tolerances) -> _Node:
    """The Lüders branch tree of ``chain`` (module docstring); one matrix-vector product per node.

    Grown from an explicit stack of (node, its vector), depth first and
    positive first, so a chain of any length needs no recursion.  A node
    is made, with its rule and mass, when its parent passes an outlet on
    to it, and is expanded when it leaves the stack.  Probabilities clamp
    within their event's :func:`probability_slack`, taken once per event.
    """
    apparatuses = chain.apparatuses
    final = chain.final_outcome.matrix
    kinds = [
        RULE_BLOCK if app.mode == MODE_BLOCK else RULE_INCOHERENT_SPLIT if app.has_detector else RULE_COHERENT_JOIN
        for app in apparatuses
    ] + [_FINAL]
    slacks = [probability_slack(app.test_event.rank, tol) for app in apparatuses]
    slacks.append(probability_slack(chain.final_outcome.rank, tol))

    def weigh(v: np.ndarray, mass: float, slack: float) -> tuple[float, float]:
        # The outlet's probability given the path, 0.0 when it is pruned, and its |v|^2.
        v_mass = float(np.vdot(v, v).real)
        p = clamp_probability(v_mass / mass, slack, what="branch probability")
        return (p if p > tol.prob_floor else 0.0), v_mass

    u = _ray(chain.preparation)
    root = _Node(0, kinds[0], float(np.vdot(u, u).real))
    pending = [(root, u)]
    while pending:
        node, u = pending.pop()
        idx, mass = node.index, node.mass
        if node.kind == _FINAL:
            hits = float(np.vdot(u, final @ u).real)
            node.p = clamp_probability(hits / mass, slacks[idx], what="final-outcome probability")
        elif node.kind == RULE_COHERENT_JOIN:
            node.positive = _Node(idx + 1, kinds[idx + 1], mass)
            pending.append((node.positive, u))
        else:
            pu = apparatuses[idx].test_event.matrix @ u
            node.p, p_mass = weigh(pu, mass, slacks[idx])
            if node.kind == RULE_INCOHERENT_SPLIT:
                qu = u - pu
                node.q, q_mass = weigh(qu, mass, slacks[idx])
                if node.q:
                    node.negation = _Node(idx + 1, kinds[idx + 1], q_mass)
                    pending.append((node.negation, qu))
            if node.p:
                node.positive = _Node(idx + 1, kinds[idx + 1], p_mass)
                pending.append((node.positive, pu))
    return root


def _fold(node: _Node | None) -> tuple[float, float]:
    """Sums of <u|D|u> and |u|^2 over the leaves below ``node``: final-outcome hits and survivors.

    Each node adds its positive child's sums to its negation child's, a
    pruned child counting as zeros.  The nodes are listed in preorder,
    positive first, and summed in reverse, so a node's children have put
    their sums on the stack, positive on top, when it takes them.
    """
    order = []
    pending = [] if node is None else [node]
    while pending:
        node = pending.pop()
        order.append(node)
        if node.negation is not None:
            pending.append(node.negation)
        if node.positive is not None:
            pending.append(node.positive)
    sums = [(0.0, 0.0)]  # the sums of an empty tree
    for node in reversed(order):
        if node.kind == _FINAL:
            sums.append((node.p * node.mass, node.mass))
            continue
        hits_p, mass_p = sums.pop() if node.positive is not None else (0.0, 0.0)
        hits_n, mass_n = sums.pop() if node.negation is not None else (0.0, 0.0)
        sums.append((hits_p + hits_n, mass_p + mass_n))
    return sums[-1]


def _value(hits: float, survival: float, tol: Tolerances) -> float:
    """Final-outcome probability among survivors; the one refusal, when none survive."""
    if survival <= tol.prob_floor:
        raise UndefinedProbabilityError(f"no trial survives the chain: survival probability {survival!r}")
    # A mass-weighted mean of leaf probabilities clamped into [0, 1], summed alike: no slack.
    return clamp_probability(hits / survival, 0.0, what="chain probability")


def evaluate_chain(chain: Chain, tol: Tolerances = DEFAULT_TOL) -> ChainEvaluation:
    """Analytic probability of the final outcome, with a derivation trace.

    The trace lists each apparatus that a branch of the tree reaches,
    depth first and positive outlet first, one entry per detector outlet.
    Because the preparation is minimal, the result is the same for every
    state that can be prepared this way.
    """
    root = _branch_tree(chain, tol)
    steps: list[TraceStep] = []
    # Depth first, positive first: a node to trace, or a detector entry to record before its outlet's subtree.
    pending: list[_Node | TraceStep | None] = [root]
    while pending:
        item = pending.pop()
        if isinstance(item, TraceStep):
            steps.append(item)
        elif item is None or item.kind == _FINAL:
            continue
        elif item.kind != RULE_INCOHERENT_SPLIT:
            steps.append(TraceStep(item.index, item.kind, note=_NOTES[item.kind]))
            pending.append(item.positive)
        else:
            for branch, weight, child in (("negation", item.q, item.negation), ("positive", item.p, item.positive)):
                note = _NOTES["unreachable" if child is None else "recorded"]
                pending.append(child)
                pending.append(TraceStep(item.index, RULE_INCOHERENT_SPLIT, branch, weight, note))
    return ChainEvaluation(value=_value(*_fold(root), tol), steps=tuple(steps))


def conditioned_on_record(chain: Chain, record: str, tol: Tolerances = DEFAULT_TOL) -> float:
    """Final-outcome probability given the detector's recorded outlet.

    The chain must contain exactly one detector apparatus.  ``record``
    selects which outlet its record shows ("positive" or "negation"),
    and only that outlet's branch of the tree is folded.
    """
    if record not in ("positive", "negation"):
        raise ValidationError(f"unknown record value {record!r}")
    detector_count = sum(1 for app in chain.apparatuses if app.has_detector)
    if detector_count != 1:
        raise ValidationError(f"conditioning on a record needs exactly one detector apparatus, found {detector_count}")
    node = _branch_tree(chain, tol)
    while node is not None and node.kind != RULE_INCOHERENT_SPLIT:
        node = node.positive
    return _value(*_fold(node and getattr(node, record)), tol)


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


def sample_chain(
    chain: Chain,
    trials: int,
    seed: int,
    workers: int = 1,
    tol: Tolerances = DEFAULT_TOL,
) -> SampleReport:
    """Simulate a chain and compare frequencies to the analytic values.

    The trials are dealt out as evenly as possible over ``workers``
    substreams of numpy's PCG64 generator, each seeded by
    ``SeedSequence((seed, worker_index))``.  A worker's trials start at
    the root of the branch tree.  Of the n reaching a block, detector or
    leaf, k ~ Binomial(n, p) take the positive outlet or outcome, where a
    detector's p is its positive share p / (p + q); nodes are visited
    depth first, positive first.  The counts have the joint law of walking
    each trial alone, the cost does not grow with ``trials``, and results
    are bit-for-bit reproducible for a given (seed, trials, workers).
    Blocked trials are excluded from the frequency denominator.
    """
    for name, value, low in (("trials", trials, 1), ("workers", workers, 1), ("seed", seed, 0)):
        if not _is_integer(value) or value < low:
            kind = "positive" if low else "nonnegative"
            raise ValidationError(f"{name} must be a {kind} integer, got {value!r}")
    if -(-int(trials) // int(workers)) > np.iinfo(np.int64).max:  # Generator.binomial takes an int64 n
        raise ValidationError(f"trials per worker must fit in int64, got {trials!r} over {workers!r} workers")
    root = _branch_tree(chain, tol)
    value = _value(*_fold(root), tol)
    edge = tol.budget()

    counts = {"positive": 0, "negation": 0, "blocked": 0}
    detector_counts: dict[str, int] = {}

    def split(root: _Node, n: int) -> None:
        # Depth first, positive first: (node, trials reaching it, detector record key or None).
        pending: list[tuple[_Node, int, str | None]] = [(root, n, None)]
        while pending:
            node, n, key = pending.pop()
            if key is not None:
                detector_counts[key] = detector_counts.get(key, 0) + n
            if node.kind == RULE_COHERENT_JOIN:
                pending.append((node.positive, n, None))
                continue
            p = node.p / (node.p + node.q) if node.kind == RULE_INCOHERENT_SPLIT else node.p
            # Within ``edge`` (tol.budget()) of 0 or 1 counts as exact, so a
            # certain branch can never lose a trial to a stray uniform draw.
            k = int(rng.binomial(n, 0.0 if p <= edge else 1.0 if p >= 1.0 - edge else p))
            if node.kind == _FINAL:
                counts["positive"] += k
                counts["negation"] += n - k
            elif node.kind == RULE_BLOCK:
                counts["blocked"] += n - k
                if k:
                    pending.append((node.positive, k, None))
            else:
                for branch, child, m in (("negation", node.negation, n - k), ("positive", node.positive, k)):
                    if m:
                        pending.append((child, m, f"apparatus{node.index}:{branch}"))

    base, extra = divmod(int(trials), int(workers))
    # Workers past the trial count would receive no trials.
    for w in range(min(int(workers), int(trials))):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), w))))
        split(root, base + (1 if w < extra else 0))

    survivors = counts["positive"] + counts["negation"]
    if survivors == 0:
        raise UndefinedProbabilityError("every trial was blocked; no surviving frequencies exist")
    frequencies = {
        "positive": counts["positive"] / survivors,
        "negation": counts["negation"] / survivors,
    }
    analytic = {"positive": value, "negation": 1.0 - value}
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
