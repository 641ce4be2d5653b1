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
pruned.  Such a ratio, and each leaf's <u|D|u> / |u|^2, is read as it is
inside [0, 1]; only a ratio outside goes through ``clamp_probability``,
which clamps round-off within the rank's slack and refuses more.  Over
the leaves, value = sum <u|D|u> / sum |u|^2 for the final outcome D:
Bayes' rule, each record's branch weighted by its chance of
surviving later blocks.  The one refusal is a survival sum |u|^2 at or
below ``prob_floor``.  One depth-first walk visits the tree without
storing it and serves all three entry points: :func:`evaluate_chain`
reads its total and its derivation trace, whose ``weight`` on a detector
entry is the outlet's probability given its path (0.0 if unreachable);
:func:`conditioned_on_record` reads the leaves below the recorded outlet;
:func:`sample_chain` reads the trials it splits down the tree.  A chain
is compiled once, at construction, into the plan the walk reads; only
the slacks derived from the tolerances are taken per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .conditioning import PureVector
from .errors import UndefinedProbabilityError, ValidationError
from .events import Event, _arg, _args, _event, _is_choice, _is_integer, _ray
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
    if not _is_choice(sign, ("+", "-")):
        raise ValidationError(f"unknown spin sign {sign!r}; expected '+' or '-'")
    s = 1.0 if sign == "+" else -1.0
    return _event((np.eye(2, dtype=np.complex128) + s * _PAULI[axis]) / 2.0, 1)


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
        _arg(self.test_event, Event, "apparatus test_event")
        if not _is_choice(self.mode, (MODE_BLOCK, MODE_PASS)):
            raise ValidationError(f"unknown apparatus mode {self.mode!r}")
        if self.detector is not None:
            if not _is_choice(self.detector, ("positive", "negation")):
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
    _plan: tuple = field(init=False, repr=False, compare=False)  # compiled once for the walk: _compile

    def __post_init__(self):
        if not _arg(self.preparation, Event, "preparation").is_minimal():
            raise ValidationError("preparation must be a minimal (rank-1) event")
        apparatuses = tuple(_args(self.apparatuses, Apparatus, "chain apparatuses", empty=True))
        object.__setattr__(self, "apparatuses", apparatuses)
        _args([app.test_event for app in apparatuses], Event, "apparatus test_event", self.dim, empty=True)
        _arg(self.final_outcome, Event, "final outcome", self.dim)
        object.__setattr__(self, "_plan", _compile(self))

    @property
    def dim(self) -> int:
        return self.preparation.dim


class TraceStep(NamedTuple):
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


def _compile(chain: Chain) -> tuple[tuple[tuple, ...], int, frozenset[int]]:
    """The plan :func:`_walk` reads, built once per chain; nothing in it depends on the tolerances.

    Per apparatus: its kind, matrix and rank, then a block's or rejoin's shared trace entry, or a detector's
    two shared "unreachable" outlet entries and record keys.  Then the detector count and the ranks to take slacks for.
    """
    plan = []
    for idx, app in enumerate(chain.apparatuses):
        outlets = ("positive", "negation") if app.has_detector else ()
        kind = RULE_INCOHERENT_SPLIT if outlets else RULE_BLOCK if app.mode == MODE_BLOCK else RULE_COHERENT_JOIN
        dead = [TraceStep(idx, kind, b, 0.0, _NOTES["unreachable"]) for b in outlets] or [None, None]
        keys = [f"apparatus{idx}:{b}" for b in outlets] or [None, None]
        step = None if outlets else TraceStep(idx, kind, note=_NOTES[kind])
        plan.append((kind, app.test_event.matrix, app.test_event.rank, step, *dead, *keys))
    ranks = frozenset(entry[2] for entry in plan) | {chain.final_outcome.rank}
    return tuple(plan), sum(app.has_detector for app in chain.apparatuses), ranks


def _walk(chain: Chain, tol: Tolerances, shares=(), rngs=(), trace=False) -> tuple[dict, list[TraceStep], dict, dict]:
    """The one depth-first, positive-first pass over the Lüders branch tree (module docstring).

    It reads the plan the chain compiled once, at construction
    (:func:`_compile`); only the tolerance-derived slacks are per call, one
    :func:`probability_slack` per rank, which :func:`clamp_probability`
    reads only for a branch or leaf ratio outside [0, 1]: inside, it would
    return the ratio unchanged.  Each entry of an explicit stack, so
    a chain of any length needs no recursion, is one branch: the trace entry
    that leads to it (None when ``trace`` is false), the next apparatus, its
    vector u (None for a pruned outlet, which only adds its "unreachable"
    entry, and is not stacked when ``trace`` is false), |u|^2, the outlet
    taken at the last detector (None before any) and each worker's trials
    there.  A branch advances in place through rejoins and blocks until a
    detector stacks its outlets or the leaf ends it.  At a block, detector or
    leaf every worker with m > 0 trials draws k ~ Binomial(m, p) from its
    own generator in ``rngs``, for the positive outlet's or outcome's share
    p; a worker with none draws nothing, so each generator sees the draws of
    walking its trials alone.  A detector whose outlets are both pruned has
    no share, and no trial goes on from it.

    Returns, per outlet, the leaf sums [<u|D|u>, |u|^2] (each leaf's
    outcome probability is clamped, as above, before it is weighted), the
    trace as :class:`TraceStep` records (empty unless ``trace``), the
    outcome counts and the record counts.  The trace changes none of the
    others.
    """
    plan, _, ranks = chain._plan
    last = len(plan)
    slacks = {rank: probability_slack(rank, tol) for rank in ranks}  # the walk's gate for tol, as ranks is never empty
    final, final_slack = chain.final_outcome.matrix, slacks[chain.final_outcome.rank]
    floor, edge, recorded = tol.prob_floor, tol.budget(), _NOTES["recorded"]
    new_step = tuple.__new__  # all five fields given, so the named tuple's Python-level __new__ adds nothing

    def draw(ms: list[int], p: float) -> list[int]:
        # Within ``edge`` (tol.budget()) of 0 or 1 counts as exact, so a
        # certain branch can never lose a trial to a stray uniform draw.
        p = 0.0 if p <= edge else 1.0 if p >= 1.0 - edge else p
        return [int(rng.binomial(m, p)) if m else 0 for rng, m in zip(rngs, ms)]

    sums = {None: [0.0, 0.0], "positive": [0.0, 0.0], "negation": [0.0, 0.0]}
    steps: list[TraceStep] = []
    counts = {"positive": 0, "negation": 0, "blocked": 0}
    records: dict[str, int] = {}
    u = _ray(chain.preparation)
    pending = [(None, 0, u, float(np.vdot(u, u).real), None, list(shares))]
    while pending:
        step, idx, u, mass, outlet, ms = pending.pop()
        if step is not None:
            steps.append(step)
        if u is None:
            continue
        while idx < last:
            kind, matrix, rank, rule_step, dead_positive, dead_negation, key_positive, key_negation = plan[idx]
            if trace and rule_step is not None:
                steps.append(rule_step)
            if kind == RULE_COHERENT_JOIN:
                idx += 1
                continue
            # Each outlet's probability given the path, 0.0 when it is pruned, and its |v|^2.
            pu = matrix.dot(u)
            p_mass = float(np.vdot(pu, pu).real)
            p = p_mass / mass
            if not 0.0 <= p <= 1.0:
                p = clamp_probability(p, slacks[rank], what="branch probability")
            p = p if p > floor else 0.0
            if kind == RULE_BLOCK:
                if ms:
                    ks = draw(ms, p)
                    counts["blocked"] += sum(ms) - sum(ks)
                    ms = ks
                if not p:
                    break
                idx, u, mass = idx + 1, pu, p_mass
                continue
            qu = u - pu
            q_mass = float(np.vdot(qu, qu).real)
            q = q_mass / mass
            if not 0.0 <= q <= 1.0:
                q = clamp_probability(q, slacks[rank], what="branch probability")
            q = q if q > floor else 0.0
            ks = rest = []
            if ms and (p or q):  # with both outlets pruned there is no share, and no trial goes on
                ks = draw(ms, p / (p + q))
                rest = [m - k for m, k in zip(ms, ks)]
                for key, m in ((key_positive, ks), (key_negation, rest)):
                    if n := sum(m):
                        records[key] = records.get(key, 0) + n
            if trace:
                pending.append((new_step(TraceStep, (idx, kind, "negation", q, recorded)) if q else dead_negation,
                                idx + 1, qu if q else None, q_mass, "negation", rest))
                pending.append((new_step(TraceStep, (idx, kind, "positive", p, recorded)) if p else dead_positive,
                                idx + 1, pu if p else None, p_mass, "positive", ks))
                break
            if q:
                pending.append((None, idx + 1, qu, q_mass, "negation", rest))
            if p:
                pending.append((None, idx + 1, pu, p_mass, "positive", ks))
            break
        else:  # the leaf
            hits = float(np.vdot(u, final.dot(u)).real)
            p = hits / mass
            if not 0.0 <= p <= 1.0:
                p = clamp_probability(p, final_slack, what="final-outcome probability")
            leaf = sums[outlet]
            leaf[0] += p * mass
            leaf[1] += mass
            if ms:
                k = sum(draw(ms, p))
                counts["positive"] += k
                counts["negation"] += sum(ms) - k
    return sums, steps, counts, records


def _value(sums, tol: Tolerances) -> float:
    """Final-outcome probability among survivors, from the outlets' leaf sums; the one refusal, when none survive."""
    hits = sum(h for h, _ in sums)
    survival = sum(s for _, s in sums)
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
    sums, steps, _, _ = _walk(_arg(chain, Chain, "chain"), tol, trace=True)
    return ChainEvaluation(value=_value(sums.values(), tol), steps=tuple(steps))


def conditioned_on_record(chain: Chain, record: str, tol: Tolerances = DEFAULT_TOL) -> float:
    """Final-outcome probability given the detector's recorded outlet.

    The chain must contain exactly one detector apparatus.  ``record``
    selects which outlet its record shows ("positive" or "negation"),
    and only the leaves below that outlet count.
    """
    if not _is_choice(record, ("positive", "negation")):
        raise ValidationError(f"unknown record value {record!r}")
    detector_count = _arg(chain, Chain, "chain")._plan[1]
    if detector_count != 1:
        raise ValidationError(f"conditioning on a record needs exactly one detector apparatus, found {detector_count}")
    sums, _, _, _ = _walk(chain, tol)
    return _value([sums[record]], tol)


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
    ``SeedSequence((seed, worker_index))``.  Every worker's trials start
    at the root of the branch tree, and one walk of the tree, depth first
    and positive first, carries all workers' counts.  Of a worker's n > 0
    trials reaching a block, detector or leaf, k ~ Binomial(n, p) take the
    positive outlet or outcome, where a detector's p is its positive share
    p / (p + q); a worker with no trials at a node draws nothing there, so
    its substream sees the draws of walking its trials alone.  The counts
    have the joint law of walking each trial alone, the cost does not grow
    with ``trials``, and results are bit-for-bit reproducible for a given
    (seed, trials, workers).  Blocked trials are excluded from the
    frequency denominator.

    Each of the first ``min(workers, trials)`` workers builds its own
    ``SeedSequence``/``PCG64`` generator, about 10 us apiece on an x86-64
    server core with numpy 2.4, so the set-up grows with
    ``min(workers, trials)``: more workers buy no speed, only a different
    reproducible stream.
    """
    for name, value, low in (("trials", trials, 1), ("workers", workers, 1), ("seed", seed, 0)):
        if not _is_integer(value) or value < low:
            kind = "positive" if low else "nonnegative"
            raise ValidationError(f"{name} must be a {kind} integer, got {value!r}")
    if -(-int(trials) // int(workers)) > np.iinfo(np.int64).max:  # Generator.binomial takes an int64 n
        raise ValidationError(f"trials per worker must fit in int64, got {trials!r} over {workers!r} workers")
    base, extra = divmod(int(trials), int(workers))
    # Workers past the trial count would receive no trials.
    shares = [base + (1 if w < extra else 0) for w in range(min(int(workers), int(trials)))]
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), w)))) for w in range(len(shares))]
    sums, _, counts, detector_counts = _walk(_arg(chain, Chain, "chain"), tol, shares, rngs)
    value = _value(sums.values(), tol)

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
