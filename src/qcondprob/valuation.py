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
from .events import Event, _excludes, _index, _same
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


def _stack(events: Sequence[Event]) -> np.ndarray:
    """The events' matrices as one stack, after the shared-dimension check."""
    if any(e.dim != events[0].dim for e in events):
        raise ValidationError("all events must share one dimension")
    return np.stack([e.matrix for e in events])


# Entries of complex128 (4 MiB) that one block of rows of a batched pass may
# hold, so that the passes stay bounded in memory at d = 128.
_PASS_ENTRIES = 1 << 18


def _rows_per_block(stack: np.ndarray) -> int:
    """Rows of a block of a batched pass over ``stack``: each row meets at most the whole stack."""
    n, d, _ = stack.shape
    return max(1, _PASS_ENTRIES // (n * d * d))


def _deduplicate(stack: np.ndarray, tol: Tolerances) -> tuple[list[int], list[int]]:
    """``(kept, remap)``: the stack indices of the distinct events, and each event's position in ``kept``.

    Each event maps to the first kept event that the sameness rule of
    :func:`lattice_meet`, ``|e - f|_F``, matches, or is kept itself.  One
    batched pass per block of rows compares the block with the events
    kept before it and with itself.
    """
    step = _rows_per_block(stack)
    kept: list[int] = []
    remap: list[int] = []
    for start in range(0, len(stack), step):
        block = stack[start:start + step]
        before = len(kept)
        candidates = np.concatenate([stack[kept], block])
        same = _same(np.linalg.norm(block[:, None] - candidates[None], axis=(-2, -1)), tol).tolist()
        # Column of each kept event in ``same``: kept before the block, then block rows.
        columns = list(range(before))
        for r, row in enumerate(same):
            match = next((k for k, c in enumerate(columns) if row[c]), None)
            if match is None:
                match = len(kept)
                kept.append(start + r)
                columns.append(before + r)
            remap.append(match)
    return kept, remap


def _exclusion_relation(stack: np.ndarray, tol: Tolerances) -> list[list[bool]]:
    """Symmetric mutual exclusion by :func:`is_orthogonal`'s rule, ``|e_i @ e_j|_F``, as lists.

    One matrix product per block of rows: the block's events stacked as
    rows times the events from the block's first on, side by side, has
    block (i, j) equal to ``e_i @ e_j``, read by its Frobenius norm.
    Pairs ``i < j`` are decided and mirrored; no event excludes itself.
    """
    n, d, _ = stack.shape
    side_by_side = stack.transpose(1, 0, 2).reshape(d, n * d)
    step = _rows_per_block(stack)
    norms = np.full((n, n), np.inf)
    for start in range(0, n, step):
        products = stack[start:start + step].reshape(-1, d) @ side_by_side[:, start * d:]
        # Squared norm of each row of each block e_i @ e_j, over the real and
        # imaginary parts, then summed over the block's rows.
        parts = products.view(np.float64).reshape(len(products), n - start, 2 * d)
        rows = np.einsum("ijk,ijk->ij", parts, parts).reshape(-1, d, n - start)
        norms[start:start + step, start:] = np.sqrt(rows.sum(axis=1))
    relation = np.triu(_excludes(norms, tol), 1)
    return (relation | relation.T).tolist()


def _enumerate_resolutions(ranks: list[int], dim: int, exclusive: list[list[bool]]) -> list[tuple[int, ...]]:
    n = len(ranks)
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
    relation = _exclusion_relation(_stack(events), tol)
    return _enumerate_resolutions([e.rank for e in events], events[0].dim, relation)


class ValuationProblem:
    """A finite event collection together with its resolutions.

    The events are stacked once.  Batched passes over that stack find
    the duplicates (each event maps to the first kept event the sameness
    rule of :func:`lattice_meet` matches) and then build the exclusion
    relation between the kept events, which the resolutions and the
    search both read.  When ``resolutions`` is omitted they are
    enumerated; explicit families pass the enumerator's rule: integer
    indices, members pairwise exclusive, ranks summing to the
    dimension.  At most ``MAX_EVENTS`` distinct events are accepted
    since the search is exhaustive.
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
        if not all(isinstance(e, Event) for e in raw):
            raise ValidationError("valuation problem events must be Events")
        stack = _stack(raw)
        if any(e.is_zero() for e in raw):
            raise ValidationError("the zero event cannot carry a truth value")

        kept, remap = _deduplicate(stack, tol)
        if len(kept) > MAX_EVENTS:
            raise ValidationError(f"at most {MAX_EVENTS} distinct events are supported, got {len(kept)}")

        exclusive = _exclusion_relation(stack[kept], tol)
        ranks, dim = [raw[i].rank for i in kept], raw[0].dim
        if resolutions is None:
            families = _enumerate_resolutions(ranks, dim, exclusive)
        else:
            families = []
            for fam in resolutions:
                mapped = sorted({remap[_index(i, len(raw), "resolution index")] for i in fam})
                if not all(exclusive[a][b] for k, a in enumerate(mapped) for b in mapped[k + 1:]):
                    raise ValidationError("resolution members must be pairwise exclusive")
                if sum(ranks[i] for i in mapped) != dim:
                    raise ValidationError("resolution members must sum to the identity")
                families.append(tuple(mapped))
        self._events = tuple(raw[i] for i in kept)
        self._resolutions = tuple(families)
        self._exclusive_pairs = tuple(
            (i, j) for i, row in enumerate(exclusive) for j in range(i + 1, len(row)) if row[j]
        )

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
