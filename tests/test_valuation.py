import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from qcondprob import (
    DEFAULT_TOL,
    MAX_EVENTS,
    Tolerances,
    ValidationError,
    ValuationProblem,
    complement,
    is_orthogonal,
    lattice_meet,
    search_valuation,
    spin_projector,
    validate_event,
)
from qcondprob import valuation
from qcondprob.fixtures import classical_valuation, kochen_specker_18, qubit_valuation

from helpers import cut_angle, e8_rays, peres33_rays, random_projection, random_unitary, reference_valuation


def diag_event(pattern):
    return validate_event(np.diag(np.array(pattern, dtype=np.complex128)))


def test_build_resolutions_simple_cases():
    zp = spin_projector("z", "+")
    zm = spin_projector("z", "-")
    assert ValuationProblem([zp, zm]).resolutions == ((0, 1),)
    assert ValuationProblem([zp]).resolutions == ()
    # A repeated event is deduplicated before the enumeration.
    assert ValuationProblem([zp, zm, zp]).resolutions == ((0, 1),)
    with pytest.raises(ValidationError, match="valuation problem events must contain at least one entry"):
        ValuationProblem([])


def test_build_resolutions_mixed_ranks():
    a = diag_event([1, 0, 0])
    b = diag_event([0, 1, 1])
    c = diag_event([0, 1, 0])
    d = diag_event([0, 0, 1])
    assert ValuationProblem([a, b, c, d]).resolutions == ((0, 1), (0, 2, 3))


def test_build_resolutions_finds_the_designed_bases():
    problem = kochen_specker_18()
    enumerated = set(ValuationProblem(problem.events).resolutions)
    assert set(problem.resolutions) <= enumerated
    assert len(problem.resolutions) == 9
    assert all(len(fam) == 4 for fam in problem.resolutions)
    # Every ray sits in exactly two of the designed bases; that parity
    # is what makes the instance unsatisfiable.
    appearances = [0] * len(problem.events)
    for fam in problem.resolutions:
        for i in fam:
            appearances[i] += 1
    assert appearances == [2] * 18


def test_duplicate_events_are_merged():
    zp = spin_projector("z", "+")
    zm = spin_projector("z", "-")
    copy = validate_event(np.diag([1.0, 0.0]))
    problem = ValuationProblem([zp, copy, zm], resolutions=[(1, 2)])
    assert len(problem.events) == 2
    assert problem.resolutions == ((0, 1),)


def test_problem_validation():
    zp = spin_projector("z", "+")
    zm = spin_projector("z", "-")
    with pytest.raises(ValidationError):
        ValuationProblem([])
    with pytest.raises(ValidationError, match="valuation problem events must be a sequence, got NoneType"):
        ValuationProblem(None)
    with pytest.raises(ValidationError):
        ValuationProblem([zp, zp.matrix])
    with pytest.raises(ValidationError):
        ValuationProblem([zp, diag_event([1, 0, 0])])
    with pytest.raises(ValidationError):
        ValuationProblem([zp, diag_event([0, 0])])
    crowd = [diag_event([1.0 if i == j else 0.0 for j in range(MAX_EVENTS + 1)]) for i in range(MAX_EVENTS + 1)]
    with pytest.raises(ValidationError):
        ValuationProblem(crowd)


def test_explicit_resolutions_are_checked():
    a = diag_event([1, 0, 0])
    b = diag_event([0, 1, 0])
    c = diag_event([0, 0, 1])
    wide = diag_event([1, 1, 0])
    ValuationProblem([a, b, c], resolutions=[(0, 1, 2)])
    with pytest.raises(ValidationError):
        ValuationProblem([a, b, c], resolutions=[(0, 1)])
    with pytest.raises(ValidationError):
        ValuationProblem([a, wide, c], resolutions=[(0, 1, 1)])
    with pytest.raises(ValidationError, match="pairwise exclusive"):
        ValuationProblem([a, wide, c], resolutions=[(0, 1, 2)])
    with pytest.raises(ValidationError):
        ValuationProblem([a, b, c], resolutions=[(0, 1, 7)])
    with pytest.raises(ValidationError, match="resolutions must be a sequence, got int"):
        ValuationProblem([a, b, c], resolutions=5)
    with pytest.raises(ValidationError, match="resolution must be a sequence, got int"):
        ValuationProblem([a, b, c], resolutions=[5])
    # One event listed twice, by its index or by a copy's, is not a family
    # of distinct exclusive members, whatever the ranks add up to.
    with pytest.raises(ValidationError, match="distinct"):
        ValuationProblem([a, b, c], resolutions=[(0, 0, 1, 2)])
    with pytest.raises(ValidationError, match="distinct"):
        ValuationProblem([a, b, c, diag_event([1, 0, 0])], resolutions=[(0, 1, 2, 3)])


def test_classical_collection_is_satisfiable():
    result = search_valuation(classical_valuation())
    assert result.satisfiable
    assert len(result.true_indices()) == 1
    assert result.nodes_explored >= 1


def test_qubit_pair_is_satisfiable():
    problem = qubit_valuation()
    assert problem.resolutions == ((0, 1),)
    result = search_valuation(problem)
    assert result.satisfiable
    assert sum(result.assignment) == 1


def test_assignment_respects_all_constraints():
    a = diag_event([1, 0, 0])
    b = diag_event([0, 1, 1])
    c = diag_event([0, 1, 0])
    d = diag_event([0, 0, 1])
    problem = ValuationProblem([a, b, c, d])
    result = search_valuation(problem)
    assert result.satisfiable
    for fam in problem.resolutions:
        assert sum(1 for i in fam if result.assignment[i]) == 1
    assert result.true_indices() == (0,)


def test_eighteen_ray_collection_is_unsatisfiable():
    result = search_valuation(kochen_specker_18())
    assert not result.satisfiable
    assert result.assignment is None
    assert result.true_indices() == ()
    assert result.nodes_explored == 31
    again = search_valuation(kochen_specker_18())
    assert again.nodes_explored == result.nodes_explored


def _planted_problem(rng, tol):
    """Events in d 2-6 with one planted pair at |e f|_F = 0.5x or 2x the exclusion threshold.

    e projects onto u plus a block a, f onto v = sqrt(1 - s^2) w + s u plus
    a block b, with u, w, a, b mutually orthogonal, so |e f|_F = s.  The
    complements and a random projection of mixed rank fill the problem out.
    """
    dim = int(rng.integers(2, 7))
    q = random_unitary(rng, dim)
    factor = 0.5 if rng.random() < 0.5 else 2.0
    extra_e = int(rng.integers(0, dim - 1))
    extra_f = int(rng.integers(0, dim - 1 - extra_e))
    s = factor * cut_angle(1 + max(extra_e, extra_f), tol)
    v = np.sqrt(1.0 - s * s) * q[:, 1] + s * q[:, 0]
    cols_e = np.column_stack([q[:, 0], q[:, 2:2 + extra_e]])
    cols_f = np.column_stack([v, q[:, 2 + extra_e:2 + extra_e + extra_f]])
    e = validate_event(cols_e @ cols_e.conj().T, tol)
    f = validate_event(cols_f @ cols_f.conj().T, tol)
    other = random_projection(rng, dim, int(rng.integers(1, dim)))
    events = [e, f, complement(e), complement(f), other, complement(other)]
    return [x for x in events if not x.is_zero()], factor


def _pairwise(events, tol):
    n = len(events)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if is_orthogonal(events[i], events[j], tol))


def test_exclusion_relation_matches_pairwise_is_orthogonal():
    for problem in (kochen_specker_18(), qubit_valuation(), classical_valuation()):
        assert problem.exclusive_pairs == _pairwise(problem.events, DEFAULT_TOL)
    rng = np.random.default_rng(1103)
    loose = Tolerances(atol=1e-6, rtol=1e-6)
    for k in range(240):
        tol = loose if k % 4 == 3 else DEFAULT_TOL
        events, factor = _planted_problem(rng, tol)
        problem = ValuationProblem(events, tol=tol)
        assert problem.exclusive_pairs == _pairwise(problem.events, tol)
        # The planted pair sits first and survives deduplication.
        assert ((0, 1) in problem.exclusive_pairs) == (factor < 1.0)
        # Enumerated resolutions against a brute force over subsets on the same rule.
        dim = events[0].dim
        expected = [
            fam
            for r in range(1, len(problem.events) + 1)
            for fam in combinations(range(len(problem.events)), r)
            if sum(problem.events[i].rank for i in fam) == dim
            and all(is_orthogonal(problem.events[a], problem.events[b], tol) for a, b in combinations(fam, 2))
        ]
        assert sorted(problem.resolutions) == sorted(expected)
        # The enumerated families, given back as explicit resolutions, pass
        # the same completeness rule and leave the search unchanged.
        explicit = ValuationProblem(problem.events, resolutions=problem.resolutions, tol=tol)
        assert explicit.resolutions == problem.resolutions
        assert explicit.exclusive_pairs == problem.exclusive_pairs
        found, again = search_valuation(problem), search_valuation(explicit)
        assert (again.assignment, again.nodes_explored) == (found.assignment, found.nodes_explored)


def test_batched_passes_do_not_depend_on_the_block_size(monkeypatch):
    # The passes split their rows into blocks under an entry budget; one row
    # per block, a few rows, and the whole stack at once give one problem.
    rng = np.random.default_rng(1117)
    raws = []
    for _ in range(40):
        events, _ = _planted_problem(rng, DEFAULT_TOL)
        raws.append(events + [events[i] for i in rng.integers(len(events), size=3)])

    def built():
        return [(p.events, p.exclusive_pairs, p.resolutions) for p in map(ValuationProblem, raws)]

    whole = built()
    for entries in (1, 64, 512):
        monkeypatch.setattr(valuation, "_PASS_ENTRIES", entries)
        assert built() == whole


def test_search_reads_the_problems_exclusion_relation():
    # Two rays 1e-6 apart from orthogonal in a qutrit, plus the third axis.
    # Under a loose tolerance they exclude each other, so at most one is
    # true; under the default they may both be true.
    s = 1e-6
    u = validate_event(np.diag([1.0, 0.0, 0.0]))
    v_vec = np.array([s, np.sqrt(1.0 - s * s), 0.0])
    v = validate_event(np.outer(v_vec, v_vec))
    third = validate_event(np.diag([0.0, 0.0, 1.0]))
    loose = Tolerances(atol=1e-5, rtol=1e-5)
    strict_result = search_valuation(ValuationProblem([u, v, third], resolutions=[]))
    loose_problem = ValuationProblem([u, v, third], resolutions=[], tol=loose)
    assert loose_problem.exclusive_pairs == ((0, 1), (0, 2), (1, 2))
    loose_result = search_valuation(loose_problem)
    assert strict_result.assignment == (True, True, False)
    assert loose_result.assignment == (True, False, False)


def tilted_basis(dim=4, tilt=0.95e-10):
    """Rays along e_i + tilt * (sum of the other axes).

    Pairwise |e_i e_j|_F is 2 tilt, inside the default exclusion threshold
    2e-10, while the four projectors sum to the identity only to about 6.6e-10.
    """
    rays = []
    for i in range(dim):
        v = np.full(dim, tilt)
        v[i] = 1.0
        v /= np.linalg.norm(v)
        rays.append(validate_event(np.outer(v, v)))
    return rays


def test_explicit_and_enumerated_resolutions_follow_one_completeness_rule():
    events = tilted_basis()
    enumerated = ValuationProblem(events)
    explicit = ValuationProblem(events, resolutions=[[0, 1, 2, 3]])
    assert enumerated.resolutions == explicit.resolutions == ((0, 1, 2, 3),)
    assert explicit.exclusive_pairs == enumerated.exclusive_pairs
    found, again = search_valuation(enumerated), search_valuation(explicit)
    assert found == again
    assert found.assignment == (True, False, False, False)
    assert found.nodes_explored == 2


def test_resolution_indices_must_be_integers():
    up, down = diag_event([1, 0]), diag_event([0, 1])
    assert ValuationProblem([up, down], resolutions=[(np.int64(0), np.int32(1))]).resolutions == ((0, 1),)
    for family in ([0.7, 1.2], [0, 1.0], [True, 1], ["0", 1]):
        with pytest.raises(ValidationError, match="not an integer"):
            ValuationProblem([up, down], resolutions=[family])
    with pytest.raises(ValidationError, match="outside range"):
        ValuationProblem([up, down], resolutions=[(0, -1)])


def _rotated(q, rank, t):
    """Projection onto q's first ``rank`` columns, the first turned by angle t toward column ``rank``.

    Two such projections at angles s and t are sqrt(2) |sin(s - t)| apart in Frobenius norm.
    """
    cols = q[:, :rank].copy()
    cols[:, 0] = np.cos(t) * q[:, 0] + np.sin(t) * q[:, rank]
    return validate_event(cols @ cols.conj().T)


def _first_match(events, tol):
    """Brute-force deduplication: each event maps to the first kept event within the sameness cut of the pair."""
    kept, remap = [], []
    for e in events:
        match = next(
            (
                k
                for k, f in enumerate(kept)
                if np.linalg.norm(e.matrix - f.matrix, "fro") <= np.sqrt(2.0) * cut_angle(max(e.rank, f.rank), tol)
            ),
            None,
        )
        if match is None:
            kept.append(e)
            match = len(kept) - 1
        remap.append(match)
    return kept, remap


def test_deduplication_matches_a_first_match_oracle():
    # Copies of each base projection turned by u * threshold / sqrt(2), so
    # copies sit 0.5x, 1.5x, 2x, 2.5x ... the sameness threshold at their
    # rank apart, never at it; their complements, whose threshold is that of
    # the complementary rank, sit at least 6 % off it.  Complements ride
    # along, so that pairs of raw indices form resolutions whose mapped
    # families reveal the first-match mapping.
    rng = np.random.default_rng(2209)
    loose = Tolerances(atol=1e-6, rtol=1e-6)
    merged = distinct = 0
    for k in range(120):
        tol = loose if k % 4 == 3 else DEFAULT_TOL
        dim = int(rng.integers(2, 7))
        raw = []
        for _ in range(int(rng.integers(1, 3))):
            q = random_unitary(rng, dim)
            rank = int(rng.integers(1, dim))
            step = cut_angle(rank, tol)
            for u in rng.choice([0.0, 0.5, 2.0, 2.5, -2.0], size=int(rng.integers(2, 5)), replace=False):
                copy = _rotated(q, rank, u * step)
                raw += [copy, complement(copy)]
        raw = [raw[i] for i in rng.permutation(len(raw))]
        kept, remap = _first_match(raw, tol)
        merged += len(raw) - len(kept)
        distinct += len(kept)
        pairs = [
            (i, j)
            for i, j in combinations(range(len(raw)), 2)
            if remap[i] != remap[j]
            and kept[remap[i]].rank + kept[remap[j]].rank == dim
            and is_orthogonal(kept[remap[i]], kept[remap[j]], tol)
        ]
        problem = ValuationProblem(raw, resolutions=pairs, tol=tol)
        assert len(problem.events) == len(kept)
        assert all(a is b for a, b in zip(problem.events, kept))
        assert problem.resolutions == tuple(tuple(sorted((remap[i], remap[j]))) for i, j in pairs)
    assert merged > 0 and distinct > merged


def test_deduplication_maps_to_the_first_of_several_matches():
    # Copies at 0 and 1.5 thresholds are both kept; one at 0.75 matches
    # both and maps to the first kept, wherever the copies sit in the stack.
    q = random_unitary(np.random.default_rng(2211), 4)
    step = cut_angle(2, DEFAULT_TOL)
    low, high, middle = (_rotated(q, 2, u * step) for u in (0.0, 1.5, 0.75))
    for raw, want in (([low, high, middle], (low, high)), ([high, low, middle], (high, low))):
        problem = ValuationProblem(raw + [complement(middle)], resolutions=[(2, 3)])
        assert problem.events[:2] == want
        assert problem.resolutions == ((0, 2),)


def test_meet_of_rays_and_deduplication_share_the_sameness_rule():
    rng = np.random.default_rng(2210)
    loose = Tolerances(atol=1e-6, rtol=1e-6)
    for k in range(40):
        tol = loose if k % 4 == 3 else DEFAULT_TOL
        q = random_unitary(rng, int(rng.integers(2, 7)))
        for factor in (0.5, 2.0):
            e = _rotated(q, 1, 0.0)
            f = _rotated(q, 1, np.arcsin(factor * cut_angle(1, tol)))
            same = len(ValuationProblem([e, f], tol=tol).events) == 1
            assert same == (factor < 1.0)
            assert lattice_meet(e, f, tol).rank == (1 if same else 0)


def _reference_instances(rng):
    """600 ``(events, resolutions)``: rotated KS18 and Peres-33 ray subsets, diagonal sets in d = 5.

    KS18 subsets carry, every other time, the designed bases that lie
    inside them as explicit resolutions; the rest leave them to the
    enumerator (None).
    """
    ks = kochen_specker_18()
    peres = [validate_event(np.outer(v, v)) for v in peres33_rays()]
    for k in range(200):
        q = random_unitary(rng, 4)
        members = sorted(rng.choice(18, size=int(rng.integers(12, 19)), replace=False))
        events = [validate_event(q @ ks.events[i].matrix @ q.conj().T) for i in members]
        position = {m: i for i, m in enumerate(members)}
        inside = [tuple(position[i] for i in fam) for fam in ks.resolutions if set(fam) <= position.keys()]
        yield events, inside if k % 2 else None
    for _ in range(200):
        q = random_unitary(rng, 3)
        members = rng.choice(33, size=int(rng.integers(4, MAX_EVENTS + 1)), replace=False)
        yield [validate_event(q @ peres[i].matrix @ q.conj().T) for i in members], None
    for _ in range(200):
        patterns = rng.integers(0, 2, size=(int(rng.integers(3, 13)), 5))
        yield [diag_event(row) for row in patterns if row.any()], None


def test_masks_match_the_list_based_reference():
    unsat = branched = 0
    for events, resolutions in _reference_instances(np.random.default_rng(1409)):
        problem = ValuationProblem(events, resolutions=resolutions)
        found = search_valuation(problem)
        expected = reference_valuation(problem.events, resolutions)
        assert (problem.resolutions, problem.exclusive_pairs) == expected[:2]
        assert (found.assignment, found.nodes_explored) == expected[2:]
        unsat += not found.satisfiable
        branched += found.nodes_explored > 1
    assert unsat >= 20 and branched >= 300


def test_full_collections_match_the_reference(monkeypatch):
    ks = kochen_specker_18()
    found = search_valuation(ks)
    assert reference_valuation(ks.events, ks.resolutions)[2:] == (None, found.nodes_explored) == (None, 31)
    monkeypatch.setattr(valuation, "MAX_EVENTS", 33)
    peres = ValuationProblem([validate_event(np.outer(v, v)) for v in peres33_rays()])
    found = search_valuation(peres)
    assert len(peres.events) == 33 and len(peres.resolutions) == 16
    assert (found.satisfiable, found.nodes_explored) == (False, 47)
    expected = reference_valuation(peres.events)
    assert (peres.resolutions, peres.exclusive_pairs, None, 47) == expected


def test_e8_root_rays_are_unsatisfiable(monkeypatch):
    # 120 rays in d = 8: more than 64 masks, and blocks of 34 rows at the
    # default entry budget.  The rays are exact, so the integer inner
    # products are the oracle for the exclusion relation and the bases.
    rays = e8_rays()
    events = [validate_event(np.outer(v, v) / (v @ v)) for v in rays]
    monkeypatch.setattr(valuation, "MAX_EVENTS", len(rays))
    assert valuation._PASS_ENTRIES // (len(rays) * 8 * 8) == 34
    problem = ValuationProblem(events)
    assert len(problem.events) == 120 and all(a is b for a, b in zip(problem.events, events))
    assert problem.exclusive_pairs == tuple((i, j) for i, j in combinations(range(120), 2) if rays[i] @ rays[j] == 0)
    assert len(problem.resolutions) == 2025
    for fam in problem.resolutions:
        assert len(fam) == 8 and all(rays[a] @ rays[b] == 0 for a, b in combinations(fam, 2))
    found = search_valuation(problem)
    # 283 nodes in this ray order; the count depends on the order.
    assert (found.satisfiable, found.nodes_explored) == (False, 283)
    # Every ray listed twice merges into its first copy, in blocks of 17 rows
    # and in one block, and leaves the problem as it was.
    for entries in (valuation._PASS_ENTRIES, 1 << 30):
        monkeypatch.setattr(valuation, "_PASS_ENTRIES", entries)
        twice = ValuationProblem(events + events, resolutions=[fam[::-1] for fam in problem.resolutions])
        assert all(a is b for a, b in zip(twice.events, events)) and len(twice.events) == 120
        assert (twice.resolutions, twice.exclusive_pairs) == (problem.resolutions, problem.exclusive_pairs)
        assert search_valuation(twice) == found


def test_the_pairwise_pass_stays_within_three_stacks_of_memory():
    # 24 random rays at d = 128: a 6 MiB stack, so blocks of one row.  The
    # pass holds one block's differences or products beside the stack and
    # frees each before the next is built, about two stacks in all.
    rng = np.random.default_rng(1201)
    events = [random_projection(rng, 128, 1) for _ in range(24)]
    stack_bytes = 24 * 128 * 128 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        problem = ValuationProblem(events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(problem.events) == 24 and problem.exclusive_pairs == ()
    assert peak <= 3 * stack_bytes
