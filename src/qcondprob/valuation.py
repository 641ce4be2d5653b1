"""Search for noncontextual truth assignments over a finite event set.

A truth valuation assigns every event in a finite collection a definite
value, true or false, subject to the logic of the collection:

* in every resolution (a family of pairwise exclusive events that
  together exhaust all possibilities, i.e. sum to the identity),
  exactly one member is true;
* two mutually exclusive events are never both true.

Classical event collections always admit such an assignment.  Suitable
quantum collections do not: the demand that an event's value not depend
on which resolution it is read in becomes unsatisfiable.  The search
below either produces an assignment or exhausts the constraint-pruned
search tree, reporting the node count as the certificate of exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .errors import InvariantError, ValidationError
from .events import Event, _excludes
from .tolerances import DEFAULT_TOL, Tolerances

# The search is exhaustive, so cap the instance size well below where
# exhaustive search could become unreasonable.
MAX_EVENTS = 24


@dataclass(frozen=True)
class ValuationResult:
    """Outcome of a valuation search.

    ``assignment`` aligns with the problem's event list and is None for
    unsatisfiable instances.  ``nodes_explored`` counts decision nodes
    visited; for unsatisfiable instances it certifies that the pruned
    tree was exhausted.
    """

    satisfiable: bool
    assignment: tuple[bool, ...] | None
    nodes_explored: int

    def true_indices(self) -> tuple[int, ...]:
        if self.assignment is None:
            return ()
        return tuple(i for i, v in enumerate(self.assignment) if v)


def _exclusion_relation(events: Sequence[Event], tol: Tolerances) -> np.ndarray:
    """Symmetric boolean matrix of mutual exclusion, False on the diagonal.

    Decided by the same rule as :func:`is_orthogonal`, one batched
    product per row against the events after it, so memory stays at the
    size of the event stack.
    """
    stack = np.stack([e.matrix for e in events])
    n = len(events)
    relation = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        relation[i, i + 1:] = _excludes(stack[i], stack[i + 1:], tol)
    return relation | relation.T


def _enumerate_resolutions(events: Sequence[Event], relation: np.ndarray) -> list[tuple[int, ...]]:
    n, dim = len(events), events[0].dim
    ranks = [e.rank for e in events]
    exclusive = relation.tolist()
    found: list[tuple[int, ...]] = []

    def extend(start: int, chosen: list[int], rank_sum: int) -> None:
        if rank_sum == dim:
            found.append(tuple(chosen))
            return
        for k in range(start, n):
            if rank_sum + ranks[k] <= dim and all(exclusive[k][c] for c in chosen):
                chosen.append(k)
                extend(k + 1, chosen, rank_sum + ranks[k])
                chosen.pop()

    extend(0, [], 0)
    return found


def build_resolutions(events: Sequence[Event], tol: Tolerances = DEFAULT_TOL) -> list[tuple[int, ...]]:
    """All families of pairwise exclusive events summing to the identity.

    Since pairwise orthogonal projections add to a projection whose rank
    is the sum of theirs, a family sums to the identity exactly when its
    ranks total the dimension.  Returns sorted index tuples in a
    deterministic order.
    """
    events = list(events)
    if not events:
        return []
    if any(e.dim != events[0].dim for e in events):
        raise ValidationError("all events must share one dimension")
    return _enumerate_resolutions(events, _exclusion_relation(events, tol))


class ValuationProblem:
    """A finite event collection together with its resolutions.

    Duplicate events (equal matrices within tolerance) are merged.  The
    exclusion relation between the distinct events is computed once,
    and the resolutions and the search both read it.  When
    ``resolutions`` is omitted they are enumerated from scratch; when
    given explicitly, each family is validated for pairwise exclusion
    and completeness.  At most ``MAX_EVENTS`` distinct events are
    accepted since the search is exhaustive.
    """

    __slots__ = ("_events", "_resolutions", "_exclusive_pairs")

    def __init__(
        self,
        events: Sequence[Event],
        resolutions: Sequence[Sequence[int]] | None = None,
        tol: Tolerances = DEFAULT_TOL,
    ):
        raw = list(events)
        if not raw:
            raise ValidationError("valuation problem needs at least one event")
        dim = None
        for e in raw:
            if not isinstance(e, Event):
                raise ValidationError("valuation problem events must be Events")
            if dim is None:
                dim = e.dim
            elif e.dim != dim:
                raise ValidationError("all events must share one dimension")
            if e.is_zero():
                raise ValidationError("the zero event cannot carry a truth value")

        deduped: list[Event] = []
        remap: list[int] = []
        for e in raw:
            match = None
            for j, seen in enumerate(deduped):
                if float(np.linalg.norm(e.matrix - seen.matrix, "fro")) <= tol.atol + tol.rtol:
                    match = j
                    break
            if match is None:
                deduped.append(e)
                remap.append(len(deduped) - 1)
            else:
                remap.append(match)
        if len(deduped) > MAX_EVENTS:
            raise ValidationError(f"at most {MAX_EVENTS} distinct events are supported, got {len(deduped)}")

        relation = _exclusion_relation(deduped, tol)
        if resolutions is None:
            families = _enumerate_resolutions(deduped, relation)
        else:
            families = []
            identity = np.eye(dim, dtype=np.complex128)
            for fam in resolutions:
                for i in fam:
                    if not 0 <= int(i) < len(raw):
                        raise ValidationError(f"resolution index {i} out of range")
                mapped = sorted({remap[int(i)] for i in fam})
                if not all(relation[a, b] for k, a in enumerate(mapped) for b in mapped[k + 1:]):
                    raise ValidationError("resolution members must be pairwise exclusive")
                total = sum((deduped[i].matrix for i in mapped), np.zeros((dim, dim), dtype=np.complex128))
                if float(np.linalg.norm(total - identity, "fro")) > tol.atol + tol.rtol * dim:
                    raise ValidationError("resolution members must sum to the identity")
                families.append(tuple(mapped))
        self._events = tuple(deduped)
        self._resolutions = tuple(families)
        self._exclusive_pairs = tuple((int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(relation))))

    @property
    def events(self) -> tuple[Event, ...]:
        return self._events

    @property
    def resolutions(self) -> tuple[tuple[int, ...], ...]:
        return self._resolutions

    @property
    def exclusive_pairs(self) -> tuple[tuple[int, int], ...]:
        """Index pairs ``(i, j)``, ``i < j`` in lexicographic order, of mutually exclusive events."""
        return self._exclusive_pairs

    def __repr__(self) -> str:
        return f"ValuationProblem(n_events={len(self._events)}, n_resolutions={len(self._resolutions)})"


def _propagate(values: list, resolutions, orth_pairs) -> bool:
    """Fixpoint constraint propagation; False on contradiction."""
    changed = True
    while changed:
        changed = False
        for fam in resolutions:
            n_true = 0
            unassigned = []
            for i in fam:
                if values[i] is True:
                    n_true += 1
                elif values[i] is None:
                    unassigned.append(i)
            if n_true > 1:
                return False
            if n_true == 1:
                for i in unassigned:
                    values[i] = False
                    changed = True
            elif not unassigned:
                return False
            elif len(unassigned) == 1:
                values[unassigned[0]] = True
                changed = True
        for i, j in orth_pairs:
            if values[i] is True and values[j] is True:
                return False
            if values[i] is True and values[j] is None:
                values[j] = False
                changed = True
            elif values[j] is True and values[i] is None:
                values[i] = False
                changed = True
    return True


def _verify(values: Sequence[bool], resolutions, orth_pairs) -> bool:
    for fam in resolutions:
        if sum(1 for i in fam if values[i]) != 1:
            return False
    return all(not (values[i] and values[j]) for i, j in orth_pairs)


def search_valuation(problem: ValuationProblem) -> ValuationResult:
    """Backtracking search for a truth assignment.

    Depth-first over the events in order, trying true before false, with
    fixpoint propagation of the exactly-one and exclusion constraints at
    every node.  The exclusion constraints are the problem's own
    :attr:`~ValuationProblem.exclusive_pairs`.  A found assignment is
    re-verified against the full constraint set before being returned.
    """
    n = len(problem.events)
    orth_pairs = problem.exclusive_pairs
    resolutions = problem.resolutions
    nodes = 0

    def dfs(values: list) -> tuple[bool, ...] | None:
        nonlocal nodes
        nodes += 1
        if not _propagate(values, resolutions, orth_pairs):
            return None
        try:
            pivot = values.index(None)
        except ValueError:
            return tuple(bool(v) for v in values)
        for choice in (True, False):
            trial = list(values)
            trial[pivot] = choice
            result = dfs(trial)
            if result is not None:
                return result
        return None

    assignment = dfs([None] * n)
    if assignment is None:
        return ValuationResult(satisfiable=False, assignment=None, nodes_explored=nodes)
    if not _verify(assignment, resolutions, orth_pairs):
        raise InvariantError("search produced an assignment violating its own constraints")
    return ValuationResult(satisfiable=True, assignment=assignment, nodes_explored=nodes)
