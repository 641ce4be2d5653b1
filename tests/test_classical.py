import numpy as np
import pytest

from qcondprob import (
    ClassicalEvent,
    ClassicalSpace,
    UndefinedProbabilityError,
    ValidationError,
    classical_cond_prob,
    classical_prob,
    classical_repeated,
    cond_prob,
    embed_diagonal,
    embed_event,
    repeated_cond_prob,
)

from helpers import random_subset_mask


def uniform_die():
    return ClassicalSpace(np.full(6, 1 / 6))


def test_space_validation():
    with pytest.raises(ValidationError):
        ClassicalSpace([0.5, 0.6])
    with pytest.raises(ValidationError):
        ClassicalSpace([1.2, -0.2])
    with pytest.raises(ValidationError):
        ClassicalSpace([])
    with pytest.raises(ValidationError, match="weights must be one-dimensional"):
        ClassicalSpace([[0.5], [0.5]])


def test_event_construction():
    e = ClassicalEvent.from_indices(6, [0, 2, 4])
    assert e.indices() == (0, 2, 4)
    assert e.complement().indices() == (1, 3, 5)
    with pytest.raises(ValidationError):
        ClassicalEvent.from_indices(6, [6])
    assert ClassicalEvent.from_indices(3, [np.int64(2), 0]).indices() == (0, 2)
    for indices in ([True, 2], [2.9], [1.0], ["1"]):
        with pytest.raises(ValidationError, match="not an integer"):
            ClassicalEvent.from_indices(3, indices)
    for n_outcomes in (-1, 2.5, True):
        with pytest.raises(ValidationError, match="positive integer"):
            ClassicalEvent.from_indices(n_outcomes, [0])
    with pytest.raises(ValidationError, match="needs a membership entry per outcome"):
        ClassicalEvent([])
    # A mask is one-dimensional and boolean; nothing is flattened or read by truthiness.
    for membership in ([[True, False], [False, True]], None, ["a", ""], [2, 0.5], [1, 0]):
        with pytest.raises(ValidationError, match="one-dimensional boolean mask"):
            ClassicalEvent(membership)


def test_prob_and_cond_prob_on_die():
    space = uniform_die()
    evens = ClassicalEvent.from_indices(6, [1, 3, 5])
    low = ClassicalEvent.from_indices(6, [0, 1, 2])
    assert abs(classical_prob(space, evens) - 0.5) < 1e-15
    # One low face is even, out of three low faces.
    assert abs(classical_cond_prob(space, evens, low) - 1 / 3) < 1e-15


def test_conditioning_on_impossible_event_raises():
    space = ClassicalSpace([0.5, 0.5, 0.0])
    dead = ClassicalEvent.from_indices(3, [2])
    with pytest.raises(UndefinedProbabilityError):
        classical_cond_prob(space, dead, dead)


def test_repeated_equals_intersection_and_ignores_order():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        w = rng.random(n) + 0.01
        space = ClassicalSpace(w / w.sum())
        d = ClassicalEvent(random_subset_mask(rng, n))
        chain = [ClassicalEvent(random_subset_mask(rng, n)) for _ in range(int(rng.integers(1, 4)))]
        joint = chain[0]
        for e in chain[1:]:
            joint = joint.intersect(e)
        if classical_prob(space, joint) <= 1e-12:
            with pytest.raises(UndefinedProbabilityError):
                classical_repeated(space, d, chain)
            continue
        value = classical_repeated(space, d, chain)
        assert abs(value - classical_cond_prob(space, d, joint)) < 1e-12
        permuted = [chain[i] for i in rng.permutation(len(chain))]
        assert abs(classical_repeated(space, d, permuted) - value) < 1e-12
    with pytest.raises(ValidationError, match="conditioning chain must contain at least one entry"):
        classical_repeated(space, d, [])


def test_embed_event_shapes():
    e = ClassicalEvent.from_indices(4, [1, 3])
    embedded = embed_event(e)
    assert embedded.rank == 2
    assert np.allclose(embedded.matrix, np.diag([0.0, 1.0, 0.0, 1.0]))


def test_embedding_reproduces_classical_ratios():
    rng = np.random.default_rng(103)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        w = rng.random(n) + 0.01
        space = ClassicalSpace(w / w.sum())
        state = embed_diagonal(space)
        d = ClassicalEvent(random_subset_mask(rng, n))
        e = ClassicalEvent(random_subset_mask(rng, n))
        if classical_prob(space, e) <= 1e-12:
            continue
        expected = classical_cond_prob(space, d, e)
        got = cond_prob(state, embed_event(d), embed_event(e))
        assert abs(got - expected) < 1e-12


def test_embedding_reproduces_repeated_conditioning():
    rng = np.random.default_rng(107)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        w = rng.random(n) + 0.01
        space = ClassicalSpace(w / w.sum())
        state = embed_diagonal(space)
        d = ClassicalEvent(random_subset_mask(rng, n))
        chain = [ClassicalEvent(random_subset_mask(rng, n)) for _ in range(int(rng.integers(2, 4)))]
        joint = chain[0]
        for e in chain[1:]:
            joint = joint.intersect(e)
        if classical_prob(space, joint) <= 1e-12:
            continue
        expected = classical_repeated(space, d, chain)
        got = repeated_cond_prob(state, embed_event(d), [embed_event(e) for e in chain])
        assert abs(got - expected) < 1e-12


def test_mismatched_outcome_counts_raise():
    space = uniform_die()
    with pytest.raises(ValidationError):
        classical_prob(space, ClassicalEvent.from_indices(4, [0]))
    with pytest.raises(ValidationError):
        ClassicalEvent.from_indices(3, [0]).intersect(ClassicalEvent.from_indices(4, [0]))
