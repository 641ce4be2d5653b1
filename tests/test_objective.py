import numpy as np
import pytest

from qcondprob import (
    DEFAULT_TOL,
    State,
    UndefinedProbabilityError,
    ValidationError,
    cond_prob,
    complement,
    objective_cond_prob,
    objective_seq,
    pure_event_prob,
    repeated_cond_prob,
    spin_projector,
    spin_vector,
    state_from_outcome,
    state_value,
    transition_prob,
    validate_event,
    zero_event,
)
from qcondprob.fixtures import first_axis_projector_dim4, objective_pair

from helpers import random_full_rank_state, random_projection, random_rank1, random_unitary


def test_reference_pair_is_objective_at_one_half():
    e, d = objective_pair()
    result = objective_cond_prob(d, e)
    assert result.objective
    assert result.value == 0.5
    assert result.lam == 0.5
    assert result.residual == 0.0
    assert result.chain_length == 1


def test_non_objective_pair_reports_no_value():
    e, _ = objective_pair()
    result = objective_cond_prob(first_axis_projector_dim4(), e)
    assert not result.objective
    assert result.value is None
    # Best fit halves the compression; the remainder has norm sqrt(1/2).
    assert abs(result.lam - 0.5) < 1e-12
    assert abs(result.residual - np.sqrt(0.5)) < 1e-12


def test_orthogonal_and_contained_cases():
    e = validate_event(np.diag([1.0, 1.0, 0.0, 0.0]))
    disjoint = validate_event(np.diag([0.0, 0.0, 1.0, 0.0]))
    r0 = objective_cond_prob(disjoint, e)
    assert r0.objective and r0.value == 0.0
    containing = validate_event(np.diag([1.0, 1.0, 1.0, 0.0]))
    r1 = objective_cond_prob(containing, e)
    assert r1.objective and r1.value == 1.0


def test_minimal_condition_is_always_objective():
    rng = np.random.default_rng(307)
    for _ in range(40):
        dim = int(rng.integers(2, 6))
        e = random_rank1(rng, dim)
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        result = objective_cond_prob(d, e)
        assert result.objective
        assert 0.0 <= result.value <= 1.0


def test_commuting_events_only_admit_zero_or_one():
    rng = np.random.default_rng(311)
    hits = {0.0: 0, 1.0: 0, None: 0}
    for _ in range(60):
        dim = int(rng.integers(2, 6))
        u = random_unitary(rng, dim)
        de = np.diag((rng.random(dim) < 0.5).astype(float))
        dd = np.diag((rng.random(dim) < 0.5).astype(float))
        e = validate_event(u @ de @ u.conj().T)
        d = validate_event(u @ dd @ u.conj().T)
        if e.is_zero():
            continue
        result = objective_cond_prob(d, e)
        if result.objective:
            assert min(abs(result.value - 0.0), abs(result.value - 1.0)) < 1e-9
            hits[result.value > 0.5 and 1.0 or 0.0] += 1
        else:
            hits[None] += 1
    # The sweep must actually visit all three outcomes.
    assert hits[0.0] > 0 and hits[1.0] > 0 and hits[None] > 0


def test_objectivity_matches_state_independence():
    # The operative meaning of the flag: when it is set, every state
    # yields the same conditional probability; when it is not, two
    # states that disagree exist.
    rng = np.random.default_rng(313)
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        e = random_projection(rng, dim, int(rng.integers(1, dim)))
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        result = objective_cond_prob(d, e)
        values = []
        for _ in range(12):
            mu = random_full_rank_state(rng, dim)
            values.append(cond_prob(mu, d, e))
        spread = max(values) - min(values)
        if result.objective:
            assert all(abs(v - result.value) < 1e-9 for v in values)
        else:
            assert spread > 1e-8


def test_objective_on_zero_event_is_undefined():
    e, d = objective_pair()
    with pytest.raises(UndefinedProbabilityError):
        objective_cond_prob(d, zero_event(4))


def test_objective_seq_length_one_matches_single():
    # A single condition is the sequence of length one, bit for bit, also
    # on events written to 10 decimals (idempotent only within tolerance).
    rng = np.random.default_rng(317)
    rounded = 0
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        e = random_projection(rng, dim, int(rng.integers(1, dim)))
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        pairs = [(d, e)]
        try:
            pairs.append((validate_event(np.round(d.matrix, 10)), validate_event(np.round(e.matrix, 10))))
            rounded += 1
        except ValidationError:
            pass
        for d, e in pairs:
            single = objective_cond_prob(d, e)
            seq = objective_seq(d, [e])
            assert (single.lam, single.residual, single.objective, single.value) == (
                seq.lam, seq.residual, seq.objective, seq.value
            )
    assert rounded >= 30


def test_objective_seq_last_event_certain():
    rng = np.random.default_rng(331)
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        chain = [random_projection(rng, dim, int(rng.integers(1, dim))) for _ in range(int(rng.integers(1, 4)))]
        try:
            result = objective_seq(chain[-1], chain)
        except UndefinedProbabilityError:
            continue
        assert result.objective
        assert abs(result.value - 1.0) < 1e-12


def test_objective_seq_minimal_tail_screens_history():
    rng = np.random.default_rng(337)
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        chain = [random_projection(rng, dim, int(rng.integers(1, dim))), random_rank1(rng, dim)]
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        try:
            seq = objective_seq(d, chain)
        except UndefinedProbabilityError:
            continue
        tail_only = objective_cond_prob(d, chain[-1])
        assert seq.objective and tail_only.objective
        assert abs(seq.value - tail_only.value) < 1e-10
        assert seq.chain_length == 2


def test_objective_seq_value_is_state_independent():
    rng = np.random.default_rng(347)
    checked = 0
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        chain = [random_projection(rng, dim, int(rng.integers(1, dim))) for _ in range(2)]
        chain.append(random_rank1(rng, dim))
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        result = objective_seq(d, chain)
        if not result.objective:
            continue
        for _ in range(8):
            mu = random_full_rank_state(rng, dim)
            assert abs(repeated_cond_prob(mu, d, chain) - result.value) < 1e-9
        checked += 1
    assert checked > 0


def test_objective_seq_vanishing_product_is_undefined():
    with pytest.raises(UndefinedProbabilityError):
        objective_seq(spin_projector("z", "+"), [spin_projector("x", "+"), spin_projector("x", "-")])


def test_objective_seq_refuses_a_fit_below_the_zero_reference_threshold():
    # e1 = diag(1, 0), e2 the ray (s, sqrt(1 - s^2)): the product has weight
    # s^2, well above prob_floor, but |E adjoint(E)|_F^2 = s^4.  The fit is
    # refused as numerically zero exactly when s^4 <= (atol + rtol)^2, while
    # repeated_cond_prob still answers 1 - s^2.
    threshold = (DEFAULT_TOL.atol + DEFAULT_TOL.rtol) ** 2
    e1 = validate_event(np.diag([1.0, 0.0]))
    outcome = validate_event(np.diag([0.0, 1.0]))
    for factor in (0.5, 2.0):
        s = (factor * threshold) ** 0.25
        ray = np.array([s, np.sqrt(1.0 - s * s)])
        e2 = validate_event(np.outer(ray, ray))
        answer = repeated_cond_prob(State.maximally_mixed(2), outcome, [e1, e2])
        assert abs(answer - (1.0 - s * s)) < 1e-15
        if factor < 1.0:
            with pytest.raises(ValidationError, match="numerically zero"):
                objective_seq(outcome, [e1, e2])
        else:
            result = objective_seq(outcome, [e1, e2])
            assert result.objective
            assert abs(result.value - answer) < 1e-15


def test_objective_seq_validation():
    e, d = objective_pair()
    with pytest.raises(ValidationError):
        objective_seq(d, [])
    with pytest.raises(ValidationError):
        objective_seq(d, [spin_projector("z", "+")])
    with pytest.raises(ValidationError):
        objective_cond_prob(d, e.matrix)


def test_pure_event_prob():
    zp = spin_vector("z", "+")
    assert abs(pure_event_prob(zp, spin_projector("x", "+")) - 0.5) < 1e-15
    assert pure_event_prob(zp, spin_projector("z", "+")) == 1.0
    assert pure_event_prob(zp, spin_projector("z", "-")) == 0.0
    # Normalisation of the vector is irrelevant.
    from qcondprob import PureVector
    scaled = PureVector(3.7 * zp.amplitudes)
    assert abs(pure_event_prob(scaled, spin_projector("x", "+")) - 0.5) < 1e-15


def test_pure_event_prob_matches_state_route():
    rng = np.random.default_rng(353)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        from qcondprob import PureVector
        psi = PureVector(v)
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        via_state = state_value(State.from_pure(psi), d)
        assert abs(pure_event_prob(psi, d) - via_state) < 1e-12


def test_transition_prob():
    zp = spin_vector("z", "+")
    zm = spin_vector("z", "-")
    xp = spin_vector("x", "+")
    assert transition_prob(zp, zm) == 0.0
    assert transition_prob(zp, zp) == 1.0
    assert abs(transition_prob(zp, xp) - 0.5) < 1e-15
    assert abs(transition_prob(xp, zp) - 0.5) < 1e-15
    # Equals the probability of one minimal event given the other.
    r = objective_cond_prob(zp.projector(), xp.projector())
    assert abs(transition_prob(xp, zp) - r.value) < 1e-12


def test_state_from_outcome():
    xp = spin_projector("x", "+")
    s = state_from_outcome(xp)
    assert np.allclose(s.rho, xp.matrix)
    with pytest.raises(UndefinedProbabilityError):
        state_from_outcome(validate_event(np.diag([1.0, 1.0, 0.0])))
    with pytest.raises(UndefinedProbabilityError):
        state_from_outcome(complement(validate_event(np.eye(2))))
