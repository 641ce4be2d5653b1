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

The exclusion relation is held once, as one integer bitmask per
distinct event: bit j of mask i is set when events i and j exclude each
other.  Enumerated resolutions are the cliques of that graph whose
ranks total the dimension, explicit ones are checked against the same
masks, and a search node is a pair of masks, the events set true and
the events set false.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .errors import InvariantError, ValidationError
from .events import Event, _arg, _args, _excludes, _index, _resolution, _same
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


# Entries of complex128 (4 MiB) that one block of rows of a batched pass may
# hold, so that the passes stay bounded in memory at d = 128.
_PASS_ENTRIES = 1 << 18


def _rows_per_block(stack: np.ndarray) -> int:
    """Rows of a block of a batched pass over ``stack``: each row meets at most the whole stack."""
    n, d, _ = stack.shape
    return max(1, _PASS_ENTRIES // (n * d * d))


def _deduplicate(stack: np.ndarray, limits: np.ndarray) -> tuple[list[int], list[int]]:
    """``(kept, remap)``: the stack indices of the distinct events, and each event's position in ``kept``.

    Each event maps to the first kept event that the sameness rule of
    :func:`lattice_meet`, ``|e - f|_F`` at the larger of the pair's
    resolution limits in ``limits``, matches, or is kept itself.  One
    batched pass per block of rows compares the block with the events kept
    before it and with itself.
    """
    step = _rows_per_block(stack)
    kept: list[int] = []
    remap: list[int] = []
    for start in range(0, len(stack), step):
        block = stack[start:start + step]
        before = len(kept)
        candidates = np.concatenate([stack[kept], block])
        block_limits = limits[start:start + step]
        tau = np.maximum(block_limits[:, None], np.concatenate([limits[kept], block_limits]))
        same = _same(np.linalg.norm(block[:, None] - candidates[None], axis=(-2, -1)), tau).tolist()
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


def _exclusion_relation(stack: np.ndarray, limits: np.ndarray) -> list[int]:
    """Symmetric mutual exclusion by :func:`is_orthogonal`'s rule, at the larger of the pair's ``limits``.

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
    relation = np.triu(_excludes(norms, np.maximum(limits[:, None], limits[None])), 1)
    rows = np.packbits(relation | relation.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _enumerate_resolutions(ranks: list[int], dim: int, exclusive: list[int]) -> list[tuple[int, ...]]:
    """Cliques of the exclusion graph whose ranks total ``dim``, in lexicographic order.

    Pairwise orthogonal projections add to a projection whose rank is the
    sum of theirs, so a clique sums to the identity exactly when its ranks
    total the dimension.
    """
    found: list[tuple[int, ...]] = []

    def extend(start: int, candidates: int, chosen: list[int], rank_sum: int) -> None:
        if rank_sum == dim:
            found.append(tuple(chosen))
            return
        for k in range(start, len(ranks)):
            if candidates >> k & 1 and rank_sum + ranks[k] <= dim:
                chosen.append(k)
                extend(k + 1, candidates & exclusive[k], chosen, rank_sum + ranks[k])
                chosen.pop()

    extend(0, (1 << len(ranks)) - 1, [], 0)
    return found


class ValuationProblem:
    """A finite event collection together with its resolutions.

    The events are stacked once.  Batched passes over that stack find
    the duplicates (each event maps to the first kept event the sameness
    rule of :func:`lattice_meet` matches) and then build the exclusion
    relation between the kept events, which the resolutions and the
    search both read; both rules read the lattice's one resolution limit,
    so a merged copy's complement excludes the kept event.  When ``resolutions`` is omitted they are
    enumerated; explicit families pass the enumerator's rule: integer
    indices naming distinct events, members pairwise exclusive, ranks
    summing to the dimension.  At most ``MAX_EVENTS`` distinct events
    are accepted since the search is exhaustive.
    """

    __slots__ = ("_events", "_resolutions", "_exclusive")

    def __init__(
        self,
        events: Sequence[Event],
        resolutions: Sequence[Sequence[int]] | None = None,
        tol: Tolerances = DEFAULT_TOL,
    ):
        raw = _args(events, Event, "valuation problem events")
        _args(raw, Event, "valuation problem events", raw[0].dim)
        stack = np.stack([e.matrix for e in raw])
        if any(e.is_zero() for e in raw):
            raise ValidationError("the zero event cannot carry a truth value")

        limits = _resolution(np.array([e.rank for e in raw]), tol)
        kept, remap = _deduplicate(stack, limits)
        if len(kept) > MAX_EVENTS:
            raise ValidationError(f"at most {MAX_EVENTS} distinct events are supported, got {len(kept)}")

        exclusive = _exclusion_relation(stack[kept], limits[kept])
        ranks, dim = [raw[i].rank for i in kept], raw[0].dim
        if resolutions is None:
            families = _enumerate_resolutions(ranks, dim, exclusive)
        else:
            families = []
            for fam in _args(resolutions, object, "resolutions", empty=True):
                family = _args(fam, object, "resolution", empty=True)
                listed = [remap[_index(i, len(raw), "resolution index")] for i in family]
                mapped = sorted(set(listed))
                if len(mapped) < len(listed):
                    raise ValidationError("resolution members must be distinct events")
                members = sum(1 << i for i in mapped)
                if any(members & ~exclusive[i] != 1 << i for i in mapped):
                    raise ValidationError("resolution members must be pairwise exclusive")
                if sum(ranks[i] for i in mapped) != dim:
                    raise ValidationError("resolution members must sum to the identity")
                families.append(tuple(mapped))
        self._events = tuple(raw[i] for i in kept)
        self._resolutions = tuple(families)
        self._exclusive = exclusive

    @property
    def events(self) -> tuple[Event, ...]:
        return self._events

    @property
    def resolutions(self) -> tuple[tuple[int, ...], ...]:
        return self._resolutions

    @property
    def exclusive_pairs(self) -> tuple[tuple[int, int], ...]:
        """Index pairs ``(i, j)``, ``i < j`` in lexicographic order, of mutually exclusive events."""
        n = len(self._exclusive)
        return tuple((i, j) for i, mask in enumerate(self._exclusive) for j in range(i + 1, n) if mask >> j & 1)

    def __repr__(self) -> str:
        return f"ValuationProblem(n_events={len(self._events)}, n_resolutions={len(self._resolutions)})"


def _propagate(true: int, false: int, families: list[int], exclusive: list[int]) -> tuple[int, int] | None:
    """Fixpoint constraint propagation on the true and false masks; None on contradiction.

    An event set true, here or by the caller, is open (not false) and at
    once makes the events it excludes false, so no event is ever both.
    Members of a family exclude one another, so a true member has made
    the rest false.  What is left: a family with no member open
    contradicts, and a lone open member becomes true.  The rules only
    add to the masks, so any order reaches the same fixpoint or
    contradiction.
    """
    while True:
        before = true, false
        for fam in families:
            open_ = fam & ~false
            if not open_:
                return None
            if not open_ & (open_ - 1):
                true |= open_
                false |= exclusive[open_.bit_length() - 1]
        if (true, false) == before:
            return true, false


def search_valuation(problem: ValuationProblem) -> ValuationResult:
    """Backtracking search for a truth assignment.

    Depth-first over the events in order, trying true before false, with
    fixpoint propagation of the exactly-one and exclusion constraints at
    every node.  The exclusion constraints are the problem's own masks.
    A found assignment is re-verified against the full constraint set
    before being returned.
    """
    n = len(_arg(problem, ValuationProblem, "problem").events)
    exclusive = problem._exclusive
    families = [sum(1 << i for i in fam) for fam in problem.resolutions]
    everything = (1 << n) - 1
    nodes = 0

    def dfs(true: int, false: int) -> int | None:
        nonlocal nodes
        nodes += 1
        masks = _propagate(true, false, families, exclusive)
        if masks is None:
            return None
        true, false = masks
        free = everything & ~(true | false)
        if not free:
            return true
        pivot = free & -free
        found = dfs(true | pivot, false | exclusive[pivot.bit_length() - 1])
        return found if found is not None else dfs(true, false | pivot)

    true = dfs(0, 0)
    if true is None:
        return ValuationResult(satisfiable=False, assignment=None, nodes_explored=nodes)
    assignment = tuple(bool(true >> i & 1) for i in range(n))
    one_per_family = all((fam & true).bit_count() == 1 for fam in families)
    if not one_per_family or any(value and exclusive[i] & true for i, value in enumerate(assignment)):
        raise InvariantError("search produced an assignment violating its own constraints")
    return ValuationResult(satisfiable=True, assignment=assignment, nodes_explored=nodes)
