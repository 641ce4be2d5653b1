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
search tree, reporting its node count.

One blocked pass over the stacked events decides sameness, from their
differences, and exclusion, from their products.  The exclusion relation
is held once, as one integer bitmask per distinct event: bit j of mask i
is set when events i and j exclude each other.  Enumerated resolutions
are the cliques of that graph whose ranks total the dimension, explicit
ones are checked against the same masks, and each is kept as the mask
of its members too.  A search node is a pair of masks, the events set
true and the events set false.
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
    unsatisfiable instances.  ``nodes_explored`` is the node count: the
    decision nodes visited, for unsatisfiable instances every node of the
    pruned tree.
    """

    satisfiable: bool
    assignment: tuple[bool, ...] | None
    nodes_explored: int

    def true_indices(self) -> tuple[int, ...]:
        if self.assignment is None:
            return ()
        return tuple(i for i, v in enumerate(self.assignment) if v)


# Entries of complex128 (4 MiB) that one block of rows of the pairwise pass
# may hold, so that the pass stays bounded in memory at d = 128.
_PASS_ENTRIES = 1 << 18


def _relations(stack: np.ndarray, limits: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """``(kept, remap, exclusive)``: the kept events' stack indices, each event's position in ``kept``, their masks.

    One pass over blocks of at most ``_PASS_ENTRIES`` entries, or one
    event, meets each event of a block with the events kept before it and
    with the block (a view of the stack while none has merged), under the
    larger of each pair's ``limits``.  ``|e_j - e_i|_F`` decides sameness by
    :func:`_same`; only events with an earlier match reach the first-match
    loop.  One matrix product, the events met as rows times the block side
    by side, gives ``|e_i @ e_j|_F`` for :func:`_excludes`, decided for
    ``i < j`` and mirrored.  Products stop once more than ``MAX_EVENTS``
    events are kept, and the pass then ends in that refusal.
    """
    n, d, _ = stack.shape
    step = max(1, _PASS_ENTRIES // (n * d * d))
    flat = stack.reshape(n, -1).view(np.float64)
    # Exclusion between kept events, by position in ``kept``; positions with products stay below its size.
    relation = np.zeros((min(n, MAX_EVENTS + step),) * 2, dtype=bool)
    kept: list[int] = []
    remap: list[int] = []
    ladder = np.arange(n)
    for start in range(0, n, step):
        stop, before = min(start + step, n), len(kept)
        meets = slice(stop) if before == start else kept + list(range(start, stop))
        tau = np.maximum(limits[start:stop, None], limits[meets])
        # Squares of e_j - e_i, e_j in the block and e_i met, freed before the next block's are built.
        gaps = flat[start:stop, None] - flat[None, meets]
        distances = np.sqrt(np.einsum("jik,jik->ji", gaps, gaps))
        del gaps
        width = distances.shape[1]
        # Row r's own column is before + r, and column c is met before it when c < before + r.
        earlier = _same(distances, tau) & (ladder[:width] < ladder[before:width, None])
        if earlier.any():
            # A row that merges takes its first kept match as its column and leaves the kept columns.
            alive, own = np.ones(width, dtype=bool), ladder[before:width].copy()
            for r in np.flatnonzero(earlier.any(axis=1)):
                hits = np.flatnonzero(earlier[r] & alive)
                if hits.size:
                    alive[before + r], own[r] = False, hits[0]
            pick = np.ix_(alive, alive[before:])
            remap += (np.cumsum(alive) - 1)[own].tolist()
            kept += (start + np.flatnonzero(alive[before:])).tolist()
        else:
            pick = np.s_[:, :]
            remap += range(before, width)
            kept += range(start, stop)
        if len(kept) <= MAX_EVENTS:
            products = stack[meets].reshape(-1, d) @ stack[start:stop].transpose(1, 0, 2).reshape(d, -1)
            parts = products.view(np.float64).reshape(width * d, stop - start, 2 * d)
            rows = np.einsum("ijk,ijk->ij", parts, parts).reshape(width, d, stop - start)
            del products, parts
            relation[:len(kept), before:len(kept)] = _excludes(np.sqrt(rows.sum(axis=1)), tau.T)[pick]
    if len(kept) > MAX_EVENTS:
        raise ValidationError(f"at most {MAX_EVENTS} distinct events are supported, got {len(kept)}")
    order = ladder[:len(kept)]
    relation = relation[:len(kept), :len(kept)] & (order[:, None] < order)
    masks = np.packbits(relation | relation.T, axis=1, bitorder="little")
    width, packed = masks.shape[1], masks.tobytes()
    return kept, remap, [int.from_bytes(packed[k:k + width], "little") for k in range(0, len(packed), width)]


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

    One pass over the stacked events (:func:`_relations`) maps each event
    to the first kept event that the sameness rule of :func:`lattice_meet`
    matches and builds the exclusion relation between the kept events,
    which the resolutions and the search read; both rules read the
    lattice's one resolution limit, so a merged copy's complement excludes
    the kept event.  When ``resolutions`` is omitted they are enumerated;
    explicit families pass the enumerator's rule: integer indices naming
    distinct events, members pairwise exclusive, ranks summing to the
    dimension.  At most ``MAX_EVENTS`` distinct events are accepted since
    the search is exhaustive.
    """

    __slots__ = ("_events", "_resolutions", "_exclusive", "_families")

    def __init__(
        self,
        events: Sequence[Event],
        resolutions: Sequence[Sequence[int]] | None = None,
        tol: Tolerances = DEFAULT_TOL,
    ):
        raw = _args(events, Event, "valuation problem events")
        _args(raw, Event, "valuation problem events", raw[0].dim)
        ranks = [e.rank for e in raw]
        if 0 in ranks:
            raise ValidationError("the zero event cannot carry a truth value")
        kept, remap, exclusive = _relations(np.array([e.matrix for e in raw]), _resolution(np.array(ranks), tol))
        ranks, dim = [ranks[i] for i in kept], raw[0].dim
        if resolutions is None:
            families = _enumerate_resolutions(ranks, dim, exclusive)
            masks = [sum(1 << k for k in family) for family in families]
        else:
            families, masks = [], []
            closed = [mask | 1 << i for i, mask in enumerate(exclusive)]
            for fam in _args(resolutions, object, "resolutions", empty=True):
                family = _args(fam, object, "resolution", empty=True)
                listed = [remap[_index(i, len(raw), "resolution index")] for i in family]
                # The members, the events every member excludes or is, and the rank sum.
                members, common, total = 0, -1, 0
                for k in listed:
                    members, common, total = members | 1 << k, common & closed[k], total + ranks[k]
                if members.bit_count() < len(listed):
                    raise ValidationError("resolution members must be distinct events")
                if members & ~common:
                    raise ValidationError("resolution members must be pairwise exclusive")
                if total != dim:
                    raise ValidationError("resolution members must sum to the identity")
                families.append(tuple(sorted(listed)))
                masks.append(members)
        self._events = tuple(raw[i] for i in kept)
        self._resolutions = tuple(families)
        self._exclusive = exclusive
        self._families = masks  # one member mask per resolution, which the search reads

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
    changed = True
    while changed:
        changed = False
        for fam in families:
            open_ = fam & ~false
            if not open_:
                return None
            # A lone open member not yet true; one already true has made its exclusions false.
            if not open_ & (open_ - 1 | true):
                true |= open_
                false |= exclusive[open_.bit_length() - 1]
                changed = True
    return true, false


def search_valuation(problem: ValuationProblem) -> ValuationResult:
    """Backtracking search for a truth assignment.

    Depth-first over the events in order, trying true before false, with
    fixpoint propagation of the exactly-one and exclusion constraints at
    every node.  Both kinds of constraint read the problem's own masks.
    A found assignment is re-verified against the full constraint set
    before being returned.
    """
    n = len(_arg(problem, ValuationProblem, "problem").events)
    exclusive, families = problem._exclusive, problem._families
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
