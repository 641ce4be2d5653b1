from itertools import combinations

import numpy as np
import pytest

from qcondprob import (
    DEFAULT_TOL,
    MAX_EVENTS,
    Tolerances,
    ValidationError,
    ValuationProblem,
    build_resolutions,
    complement,
    is_orthogonal,
    search_valuation,
    spin_projector,
    validate_event,
)
from qcondprob.fixtures import classical_valuation, kochen_specker_18, qubit_valuation

from helpers import random_projection, random_unitary


def diag_event(pattern):
    return validate_event(np.diag(np.array(pattern, dtype=np.complex128)))


def test_build_resolutions_simple_cases():
    zp = spin_projector("z", "+")
    zm = spin_projector("z", "-")
    assert build_resolutions([zp, zm]) == [(0, 1)]
    assert build_resolutions([zp]) == []
    assert build_resolutions([]) == []


def test_build_resolutions_mixed_ranks():
    a = diag_event([1, 0, 0])
    b = diag_event([0, 1, 1])
    c = diag_event([0, 1, 0])
    d = diag_event([0, 0, 1])
    assert build_resolutions([a, b, c, d]) == [(0, 1), (0, 2, 3)]


def test_build_resolutions_finds_the_designed_bases():
    problem = kochen_specker_18()
    enumerated = set(build_resolutions(problem.events))
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
    with pytest.raises(ValidationError):
        ValuationProblem([a, b, c], resolutions=[(0, 1, 7)])


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
    s = factor * (tol.atol + tol.rtol)
    extra_e = int(rng.integers(0, dim - 1))
    extra_f = int(rng.integers(0, dim - 1 - extra_e))
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
        assert build_resolutions(problem.events, tol) == list(problem.resolutions)


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
