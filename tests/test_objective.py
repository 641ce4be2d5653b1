import time

import numpy as np
import pytest

from qcondprob import (
    DEFAULT_TOL,
    PureVector,
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

from helpers import dense_objective_seq, random_full_rank_state, random_projection, random_rank1, random_unitary


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


def _written_to_10_decimals(rng, e):
    """``(event, rounded)``: with probability 1/3, ``e`` rounded to 10 decimals, when that still validates."""
    if rng.random() < 1.0 / 3.0:
        try:
            return validate_event(np.round(e.matrix, 10)), True
        except ValidationError:
            pass
    return e, False


def _ray_at_overlap(rng, v, s):
    """A minimal event on a unit vector whose overlap with the unit vector ``v`` is ``s``."""
    w = rng.normal(size=v.size) + 1j * rng.normal(size=v.size)
    w -= np.vdot(v, w) * v
    w = np.sqrt(1.0 - s * s) * w / np.linalg.norm(w) + s * v
    return validate_event(np.outer(w, w.conj()))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the dense fit's absolute slack certifies away state dependence "
                          "in a direction whose weight is below about 1e-9")
@pytest.mark.parametrize("s", [3e-5, 1e-5])
def test_objective_seq_does_not_certify_a_state_dependent_value(s):
    # After e1 = diag(1, 1, 0, 0) and e2 onto {e0, (0, s, 0, sqrt(1 - s^2))},
    # d = |0><0| has probability 1 from |0> and 0 from |1>, whose weight
    # s^2 is far above prob_floor; no single value holds for every state.
    e1 = validate_event(np.diag([1.0, 1.0, 0.0, 0.0]))
    b = np.array([[1.0, 0.0], [0.0, s], [0.0, 0.0], [0.0, np.sqrt(1.0 - s * s)]])
    e2 = validate_event(b @ b.T)
    d = validate_event(np.diag([1.0, 0.0, 0.0, 0.0]))
    values = [repeated_cond_prob(State(np.diag(v)), d, [e1, e2]) for v in ([1.0, 0, 0, 0], [0, 1.0, 0, 0])]
    assert values == pytest.approx([1.0, 0.0], abs=1e-12)
    assert not objective_seq(d, [e1, e2]).objective


def test_rank_one_path_matches_the_dense_fit():
    # A sequence with a minimal event factors through its ray; against the
    # fit from dense products: d 2-16, 1-4 events, the minimal event at the
    # head, middle or tail, a third of the events written to 10 decimals.
    # Some sequences are planted to hit each refusal: the complement of the
    # minimal event beside it (a vanishing product), or a ray at overlap s
    # from it, s log-uniform in [1e-6, 1e-4], across both thresholds.
    rng = np.random.default_rng(1009)
    seen = {"rounded": 0, "objective": 0, "not objective": 0,
            UndefinedProbabilityError: 0, ValidationError: 0}
    for case in range(480):
        dim = int(rng.integers(2, 17))
        k = int(rng.integers(1, 5))
        j = (0, k // 2, k - 1)[case % 3]
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        chain = [validate_event(np.outer(v, v.conj())) if i == j else random_projection(rng, dim, int(rng.integers(1, dim)))
                 for i in range(k)]
        if k > 1 and case % 8 in (0, 1):
            beside = j + 1 if j + 1 < k else j - 1
            chain[beside] = complement(chain[j]) if case % 8 == 0 else _ray_at_overlap(rng, v, 10.0 ** rng.uniform(-6, -4))
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        written = [_written_to_10_decimals(rng, x) for x in (d, *chain)]
        d, chain = written[0][0], [x for x, _ in written[1:]]
        rounded = any(r for _, r in written)
        bound = 1e-9 if rounded else 1e-12
        try:
            want = dense_objective_seq(d, chain)
        except (UndefinedProbabilityError, ValidationError) as exc:
            with pytest.raises(type(exc)):
                objective_seq(d, chain)
            seen[type(exc)] += 1
            continue
        got = objective_seq(d, chain)
        lam, _, objective, value = want
        assert abs(got.lam - lam) <= bound
        assert got.objective == objective and (got.value is None) == (value is None)
        if value is not None:
            assert abs(got.value - value) <= bound
        seen["rounded"] += rounded
        seen["objective" if objective else "not objective"] += 1
    # A minimal condition certifies every value it can fit.
    assert seen["not objective"] == 0
    assert seen["objective"] >= 300 and seen["rounded"] >= 100
    assert seen[UndefinedProbabilityError] >= 20 and seen[ValidationError] >= 5


def test_rank_one_path_cost_is_quadratic_in_the_dimension():
    # At d = 512 the dense fit forms d x d products in O(d^3); a sequence
    # with a minimal event needs only matrix-vector products.
    rng = np.random.default_rng(1013)
    dim = 512
    chain = [random_projection(rng, dim, dim // 2), random_rank1(rng, dim), random_projection(rng, dim, dim // 2)]
    d = random_projection(rng, dim, dim // 4)

    def best_of_three(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    dense = best_of_three(lambda: dense_objective_seq(d, chain))
    fast = best_of_three(lambda: objective_seq(d, chain))
    assert 5.0 * fast <= dense


def test_objective_seq_validation():
    e, d = objective_pair()
    with pytest.raises(ValidationError):
        objective_seq(d, [])
    with pytest.raises(ValidationError):
        objective_seq(d, [spin_projector("z", "+")])
    with pytest.raises(ValidationError):
        objective_cond_prob(d, e.matrix)
    with pytest.raises(ValidationError, match="outcome must be an Event, got ndarray"):
        objective_seq(d.matrix, [e])


def test_pure_event_prob():
    zp = spin_vector("z", "+")
    assert abs(pure_event_prob(zp, spin_projector("x", "+")) - 0.5) < 1e-15
    assert pure_event_prob(zp, spin_projector("z", "+")) == 1.0
    assert pure_event_prob(zp, spin_projector("z", "-")) == 0.0
    # Normalisation of the vector is irrelevant.
    from qcondprob import PureVector
    scaled = PureVector(3.7 * zp.amplitudes)
    assert abs(pure_event_prob(scaled, spin_projector("x", "+")) - 0.5) < 1e-15
    # Raw amplitudes are read as a PureVector, and refused as one.
    assert abs(pure_event_prob([3.7, 0.0], spin_projector("x", "+")) - 0.5) < 1e-15
    with pytest.raises(ValidationError, match="vector must be nonzero"):
        pure_event_prob([0.0, 0.0], spin_projector("x", "+"))
    with pytest.raises(ValidationError, match="dimension mismatch: event has dimension 3, expected 2"):
        pure_event_prob(zp, validate_event(np.eye(3)))


def test_pure_event_prob_matches_state_route():
    rng = np.random.default_rng(353)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        from qcondprob import PureVector
        psi = PureVector(v)
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        via_state = state_value(State.from_ensemble([(1.0, psi)]), d)
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
    with pytest.raises(ValidationError, match="dimension mismatch: xi has dimension 3, expected 2"):
        transition_prob(zp, [1.0, 0.0, 0.0])


def test_pure_probabilities_of_huge_and_tiny_amplitudes():
    # Both read the unit vector, so no squared norm overflows or underflows.
    z = validate_event(np.diag([1.0, 0.0]))
    assert transition_prob([1e200, 0.0], [1.0, 0.0]) == 1.0
    assert pure_event_prob(PureVector([1e200, 0.0]), z) == 1.0
    assert abs(transition_prob([1e-200, 1e-200], [1e200, 0.0]) - 0.5) < 1e-15
    assert abs(pure_event_prob(PureVector([3e-200, 4e-200]), z) - 0.36) < 1e-15


def test_state_from_outcome():
    xp = spin_projector("x", "+")
    s = state_from_outcome(xp)
    assert np.allclose(s.rho, xp.matrix)
    with pytest.raises(UndefinedProbabilityError):
        state_from_outcome(validate_event(np.diag([1.0, 1.0, 0.0])))
    with pytest.raises(UndefinedProbabilityError):
        state_from_outcome(complement(validate_event(np.eye(2))))
    with pytest.raises(ValidationError, match="outcome must be an Event, got ndarray"):
        state_from_outcome(xp.matrix)


def test_state_from_outcome_builds_the_state_from_the_ray():
    # diag(1 + 2.5e-10, 0) is a minimal event within its validation budget;
    # its state is |v><v| for its ray v, not the event's matrix checked again
    # as a state, whose trace would miss 1 beyond tolerance.
    s = state_from_outcome(validate_event(np.diag([1.0 + 2.5e-10, 0.0])))
    assert np.array_equal(s.rho, np.diag([1.0, 0.0]))
    rng = np.random.default_rng(1811)
    for dim in (2, 5, 16):
        e = random_rank1(rng, dim)
        rho = state_from_outcome(e).rho
        assert np.array_equal(rho, rho.conj().T) and not rho.flags.writeable
        assert abs(np.trace(rho) - 1.0) < 1e-15 and np.linalg.norm(rho - e.matrix) < 1e-15
