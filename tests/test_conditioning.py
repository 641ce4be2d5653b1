import math
import warnings

import numpy as np
import pytest

from qcondprob import (
    DEFAULT_TOL,
    ClassicalSpace,
    InvariantError,
    PureVector,
    State,
    Tolerances,
    UndefinedProbabilityError,
    ValidationError,
    complement,
    cond_prob,
    cond_state,
    conditioning,
    embed_diagonal,
    repeated_cond_prob,
    spin_projector,
    spin_vector,
    state_value,
    transition_prob,
    validate_event,
)
from qcondprob.fixtures import lower_block_state_dim4, mixed_state_dim4, objective_pair
from qcondprob.io import state_from_obj

from helpers import random_full_rank_state, random_projection, random_rank1, random_unitary


def test_pure_vector_validation():
    with pytest.raises(ValidationError):
        PureVector([0, 0, 0])
    with pytest.raises(ValidationError):
        PureVector([])
    with pytest.raises(ValidationError):
        PureVector([np.inf, 1])
    # A matrix is not flattened into a vector, wherever amplitudes are read.
    with pytest.raises(ValidationError, match="one-dimensional vector"):
        PureVector(np.eye(2))
    with pytest.raises(ValidationError, match="one-dimensional vector"):
        State.from_ensemble([(1, np.eye(2))])
    with pytest.raises(ValidationError, match="one-dimensional vector"):
        transition_prob(np.eye(2), [1, 0, 0, 0])
    v = PureVector([3, 4j])
    assert v.dim == 2
    assert abs(v.norm() - 5) < 1e-15
    assert abs(PureVector(v.amplitudes / v.norm()).norm() - 1) < 1e-15


def test_pure_vector_projector():
    p = PureVector([1, 1]).projector()
    assert p.rank == 1
    assert np.allclose(p.matrix, np.full((2, 2), 0.5))
    # Scaling the vector does not change the projector.
    q = PureVector([10, 10]).projector()
    assert np.allclose(p.matrix, q.matrix)


def test_state_validation():
    with pytest.raises(ValidationError, match="self-adjoint"):
        State(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="trace"):
        State(np.eye(2))
    with pytest.raises(ValidationError, match="positive semi-definite"):
        State(np.diag([1.5, -0.5]))
    # Indefinite with nonnegative diagonal: caught by the elimination
    # update, not by any diagonal inspection.
    with pytest.raises(ValidationError, match="positive semi-definite"):
        State(np.array([[0.5, 0.6], [0.6, 0.5]]))
    # Vanishing diagonal with surviving off-diagonal coupling: caught by
    # the early-stop block check.
    with pytest.raises(ValidationError, match="positive semi-definite"):
        State(np.array([
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 0.1],
            [0.0, 0.1, 0.0],
        ]))


def test_state_accepts_boundary_rank_deficiency():
    State(np.diag([1.0, 0.0]))
    State(np.diag([0.5, 0.5, 0.0, 0.0]))
    s = State.maximally_mixed(3)
    assert s.dim == 3
    assert abs(np.trace(s.rho).real - 1) < 1e-15


def test_state_psd_check_matches_planted_smallest_eigenvalue():
    # The construction is the oracle: rho = U diag(w) U^+ with trace 1 and
    # a planted smallest eigenvalue w[0].  State must accept exactly when
    # w[0] >= -atol; planted values within 1 % of that slack are not called.
    rng = np.random.default_rng(601)
    slack = DEFAULT_TOL.atol
    accepted = rejected = 0
    for dim in (2, 3, 4, 8, 16):
        for _ in range(80):
            smallest = -(10.0 ** rng.uniform(-13, -8))
            if abs(-smallest - slack) <= 0.01 * slack:
                continue
            w = np.concatenate([[smallest], rng.dirichlet(np.ones(dim - 1)) * (1.0 - smallest)])
            u = random_unitary(rng, dim)
            rho = (u * w) @ u.conj().T
            if -smallest <= slack:
                State(rho)
                accepted += 1
            else:
                with pytest.raises(ValidationError, match="positive semi-definite"):
                    State(rho)
                rejected += 1
    assert accepted >= 100 and rejected >= 100


def test_from_ensemble_normalises_weights_and_vectors():
    s = State.from_ensemble([(2.0, PureVector([1, 0])), (2.0, PureVector([0, 5]))])
    assert np.allclose(s.rho, np.diag([0.5, 0.5]))
    with pytest.raises(ValidationError):
        State.from_ensemble([])
    with pytest.raises(ValidationError):
        State.from_ensemble([(-1.0, PureVector([1, 0]))])
    with pytest.raises(ValidationError):
        State.from_ensemble([(0.0, PureVector([1, 0]))])
    with pytest.raises(ValidationError):
        State.from_ensemble([(1.0, PureVector([1, 0])), (1.0, PureVector([1, 0, 0]))])


def test_from_ensemble_is_not_revalidated_under_strict_tolerances():
    # A convex mixture of unit rays is a state by construction; checking its
    # trace again at atol = rtol = 1e-16 refused about a quarter of these.
    strict = Tolerances(atol=1e-16, rtol=1e-16)
    rng = np.random.default_rng(1502)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        weights = rng.dirichlet(np.ones(3))
        vectors = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        obj = {"ensemble": [{"weight": float(w), "vector": [[z.real, z.imag] for z in v]}
                            for w, v in zip(weights, vectors)]}
        rho = state_from_obj(obj, strict).rho
        units = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        assert np.allclose(rho, np.einsum("k,ki,kj->ij", weights, units, units.conj()), atol=1e-15, rtol=0)
        assert np.array_equal(rho, rho.conj().T)
    with pytest.raises(TypeError):
        State.from_ensemble([(1.0, PureVector([1, 0]))], tol=strict)


def test_integers_beyond_float_range_are_refused_by_every_constructor():
    # Each coerces with np.array, which raises OverflowError for such an int.
    for build in (validate_event, State, PureVector, ClassicalSpace):
        arg = [10**400] if build in (PureVector, ClassicalSpace) else [[10**400]]
        with pytest.raises(ValidationError, match="cannot interpret"):
            build(arg)


def test_from_ensemble_takes_huge_amplitudes_and_weights_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pairs, expected in (
            ([(1.0, [1e200, 0, 0, 0])], np.diag([1.0, 0, 0, 0])),
            ([(1.0, [1e308, 1e308, 1e308, 1e308])], np.full((4, 4), 0.25)),
            ([(1e308, [1, 0]), (1e308, [0, 1])], np.diag([0.5, 0.5])),
            ([(1.0, [1e-200, 0]), (3.0, [0, 1e-170])], np.diag([0.25, 0.75])),
        ):
            assert np.allclose(State.from_ensemble(pairs).rho, expected, atol=1e-15, rtol=0)
        assert PureVector([1e200, 1e200]).norm() == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        assert PureVector([3e-200, 4e-200]).norm() == pytest.approx(5e-200, rel=1e-15)
        assert np.allclose(PureVector([1e300, 1e300j]).projector().matrix, [[0.5, -0.5j], [0.5j, 0.5]])


def test_state_value_on_events_and_observables():
    zp = State.from_ensemble([(1.0, spin_vector("z", "+"))])
    assert abs(state_value(zp, spin_projector("z", "+")) - 1.0) < 1e-15
    assert abs(state_value(zp, spin_projector("x", "+")) - 0.5) < 1e-15
    sigma_z = np.diag([1.0, -1.0])
    assert abs(state_value(zp, sigma_z) - 1.0) < 1e-15
    with pytest.raises(ValidationError):
        state_value(zp, np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValidationError, match="norm overflows"):
        state_value(zp, np.array([[0, 1e200], [0, 0]]))


def test_state_value_dimension_mismatch():
    mixed, wide = State.maximally_mixed(2), validate_event(np.eye(3))
    with pytest.raises(ValidationError):
        state_value(mixed, wide)
    # Conditioning refuses the same mismatch, in the event and in the conditioned operand.
    with pytest.raises(ValidationError, match="dimension mismatch"):
        cond_state(mixed, wide)
    with pytest.raises(ValidationError, match="dimension mismatch: conditioned operand has dimension 3, expected 2"):
        cond_prob(mixed, wide, validate_event(np.eye(2)))


def test_cond_state_is_projection_update():
    xp = State.from_ensemble([(1.0, spin_vector("x", "+"))])
    updated = cond_state(xp, spin_projector("z", "+"))
    assert np.allclose(updated.rho, spin_projector("z", "+").matrix)
    with pytest.raises(UndefinedProbabilityError):
        cond_state(State.from_ensemble([(1.0, spin_vector("z", "-"))]), spin_projector("z", "+"))


def test_cond_state_agrees_with_cond_prob():
    rng = np.random.default_rng(211)
    for _ in range(40):
        dim = int(rng.integers(2, 6))
        mu = random_full_rank_state(rng, dim)
        e = random_projection(rng, dim, int(rng.integers(1, dim)))
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        direct = cond_prob(mu, d, e)
        via_state = state_value(cond_state(mu, e), d)
        assert abs(direct - via_state) < 1e-12


def test_cond_prob_reference_pair_is_half_in_any_state():
    e, d = objective_pair()
    rng = np.random.default_rng(223)
    for _ in range(25):
        mu = random_full_rank_state(rng, 4)
        assert abs(cond_prob(mu, d, e) - 0.5) < 1e-10
    assert abs(cond_prob(mixed_state_dim4(), d, e) - 0.5) < 1e-12


def test_cond_prob_undefined_on_zero_probability_condition():
    e, d = objective_pair()
    with pytest.raises(UndefinedProbabilityError):
        cond_prob(lower_block_state_dim4(), d, e)


def test_cond_prob_requires_event_condition():
    mu = mixed_state_dim4()
    e, d = objective_pair()
    with pytest.raises(ValidationError):
        cond_prob(mu, d, e.matrix)


def test_repeated_single_event_reduces_to_cond_prob():
    # A single condition is the chain of length one, bit for bit, also on
    # events written to 10 decimals (idempotent only within tolerance).
    rng = np.random.default_rng(227)
    rounded = 0
    for dim in (2, 3, 4, 8):
        for _ in range(20):
            mu = random_full_rank_state(rng, dim)
            e = random_projection(rng, dim, int(rng.integers(1, dim)))
            d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
            assert repeated_cond_prob(mu, d, [e]) == cond_prob(mu, d, e)
            try:
                e = validate_event(np.round(e.matrix, 10))
            except ValidationError:
                continue
            assert repeated_cond_prob(mu, d, [e]) == cond_prob(mu, d, e)
            rounded += 1
    assert rounded >= 60


def test_last_event_of_a_chain_is_certain():
    rng = np.random.default_rng(229)
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        mu = random_full_rank_state(rng, dim)
        chain = [random_projection(rng, dim, int(rng.integers(1, dim))) for _ in range(int(rng.integers(1, 4)))]
        try:
            value = repeated_cond_prob(mu, chain[-1], chain)
        except UndefinedProbabilityError:
            continue
        assert abs(value - 1.0) < 1e-12


def test_two_step_spin_chain_gives_half():
    # Conditioning on x+ then y+ gives probability 1/2 for x+ again:
    # the second conditioning erases the first observation's certainty.
    xp = spin_projector("x", "+")
    yp = spin_projector("y", "+")
    mu = State.maximally_mixed(2)
    assert abs(repeated_cond_prob(mu, xp, [xp, yp]) - 0.5) < 1e-12
    # With a third conditioning back on x+, certainty returns: the last
    # event of the chain always has probability 1.
    assert abs(repeated_cond_prob(mu, xp, [xp, yp, xp]) - 1.0) < 1e-12


def test_chain_order_matters():
    # Conditioning sequences are ordered observations, not sets.
    zp = spin_projector("z", "+")
    xp = spin_projector("x", "+")
    w = PureVector([1.0, (1.0 + 1.0j) / math.sqrt(2)]).projector()
    mu = State.maximally_mixed(2)
    forward = repeated_cond_prob(mu, xp, [zp, w])
    backward = repeated_cond_prob(mu, xp, [w, zp])
    assert abs(forward - (2 + math.sqrt(2)) / 4) < 1e-12
    assert abs(backward - 0.5) < 1e-12
    assert abs(forward - backward) > 0.1


def test_minimal_last_event_screens_off_history():
    rng = np.random.default_rng(233)
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        mu = random_full_rank_state(rng, dim)
        chain = [random_projection(rng, dim, int(rng.integers(1, dim))) for _ in range(int(rng.integers(1, 3)))]
        chain.append(random_rank1(rng, dim))
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        try:
            chained = repeated_cond_prob(mu, d, chain)
        except UndefinedProbabilityError:
            continue
        assert abs(chained - cond_prob(mu, d, chain[-1])) < 1e-10


def test_repeated_cond_prob_validation():
    mu = State.maximally_mixed(2)
    xp = spin_projector("x", "+")
    with pytest.raises(ValidationError):
        repeated_cond_prob(mu, xp, [])
    with pytest.raises(ValidationError):
        repeated_cond_prob(mu, xp, [validate_event(np.eye(3))])
    with pytest.raises(UndefinedProbabilityError):
        repeated_cond_prob(mu, xp, [spin_projector("z", "+"), spin_projector("z", "-")])


def test_cross_check_runs_by_default():
    # The step-by-step recomputation always runs; on healthy inputs both
    # paths agree, no error surfaces, and the closed form is returned.
    mu = State.maximally_mixed(2)
    xp = spin_projector("x", "+")
    yp = spin_projector("y", "+")
    a = repeated_cond_prob(mu, xp, [xp, yp])
    assert a == conditioning._closed_form(mu, xp, [xp, yp], DEFAULT_TOL)[0]
    assert abs(a - 0.5) < 1e-12


def _state_of_rank(rng, dim, rank):
    vectors = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    return State.from_ensemble(zip(rng.dirichlet(np.ones(rank)), vectors))


def test_trusted_updates_match_validated_construction():
    rng = np.random.default_rng(2024)
    for dim in (2, 3, 4, 8, 16):
        for state_rank in range(1, dim + 1):
            mu = _state_of_rank(rng, dim, state_rank)
            for event_rank in range(1, dim):
                e = random_projection(rng, dim, event_rank)
                updated = cond_state(mu, e)
                assert not updated.rho.flags.writeable
                assert np.array_equal(State(updated.rho).rho, updated.rho)
                expected = e.matrix @ mu.rho @ e.matrix / np.real(np.trace(mu.rho @ e.matrix))
                assert np.max(np.abs(updated.rho - expected)) < 1e-12
                d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
                chain = [e, random_projection(rng, dim, int(rng.integers(1, dim + 1)))]
                try:
                    checked = repeated_cond_prob(mu, d, chain)
                except UndefinedProbabilityError:
                    with pytest.raises(UndefinedProbabilityError):
                        conditioning._closed_form(mu, d, chain, DEFAULT_TOL)
                    continue
                assert checked == conditioning._closed_form(mu, d, chain, DEFAULT_TOL)[0]
        weights = rng.dirichlet(np.ones(dim))
        weights[rng.integers(dim)] = 0.0
        weights = weights / weights.sum()
        embedded = embed_diagonal(ClassicalSpace(weights))
        assert not embedded.rho.flags.writeable
        assert np.array_equal(embedded.rho, State(np.diag(weights)).rho)


def test_cross_check_still_runs(monkeypatch):
    # With a negative agreement threshold every cross-checked call must fail.
    mu = mixed_state_dim4()
    e = validate_event(np.diag([1.0, 1.0, 0.0, 0.0]))
    d = validate_event(np.diag([1.0, 0.0, 0.0, 0.0]))
    monkeypatch.setattr(conditioning, "_PATH_AGREEMENT_TOL", -1.0)
    with pytest.raises(InvariantError):
        repeated_cond_prob(mu, d, [e, e])
    with pytest.raises(InvariantError):
        repeated_cond_prob(mu, d, [e])
    # The closed form alone, and cond_prob with it, is not cross-checked.
    assert conditioning._closed_form(mu, d, [e, e], DEFAULT_TOL)[0] == cond_prob(mu, d, e)


def test_repeated_cond_prob_validates_a_matrix_operand_once(monkeypatch):
    mu = State.maximally_mixed(2)
    check, seen = conditioning._self_adjoint_matrix, []

    def counted(entries, what, tol):
        seen.append(what)
        return check(entries, what, tol)

    monkeypatch.setattr(conditioning, "_self_adjoint_matrix", counted)
    a = np.array([[1.0, 2.0], [2.0, -1.0]])
    value = repeated_cond_prob(mu, a, [spin_projector("x", "+"), spin_projector("y", "+")])
    assert value == pytest.approx(0.0, abs=1e-12)  # <y+|a|y+> = 0
    assert seen == ["conditioned operand"]


def test_a_state_at_its_eigenvalue_floor_conditions_without_invariant_error():
    # The event's weight in rho is 9.2e-11 - 9e-11 = 2e-12, above prob_floor,
    # and the outcome's share of it is -9e-11, so the density-matrix quotient
    # would be -45.  The eigenvalue -9e-11 is inside the state's floor and
    # reads as 0 in its factor, so the conditioned weight is 9.2e-11 and
    # the outcome's share 0.
    mu = State(np.diag([1.0 - 2e-12, 9.2e-11, -9e-11]))
    value = cond_prob(mu, validate_event(np.diag([0.0, 0.0, 1.0])), validate_event(np.diag([0.0, 1.0, 1.0])))
    assert value == 0.0


def test_cross_check_scales_with_the_value():
    # A conditional expectation of 2.2e6: the two paths differ by 5e-10,
    # a relative gap of 2e-16, which an absolute 1e-12 refused.
    a = 1e6 * np.array([[-1.8, 3.5], [3.5, -0.8]])
    chain = [validate_event(np.outer(v, v)) for v in (np.array([1, 2]) / np.sqrt(5), np.array([3, 4]) / 5)]
    mu = State.maximally_mixed(2)
    assert repeated_cond_prob(mu, a, chain) == pytest.approx(2.2e6, rel=1e-15)
    assert repeated_cond_prob(mu, a / 1e6, chain) == pytest.approx(2.2, rel=1e-15)


def test_cross_check_accepts_events_idempotent_only_within_tolerance():
    # Projectors written to 10 decimals pass validate_event with an
    # idempotence error near 1e-10, far above the 1e-12 agreement
    # tolerance.  Each step normalises by the trace of its own
    # compression, as the closed form does, so the two paths still agree.
    rng = np.random.default_rng(0)
    mu = State.maximally_mixed(4)
    d = validate_event(np.diag([1.0, 0.0, 0.0, 0.0]))
    defined = 0
    worst_idempotence = 0.0
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        e = validate_event(np.round(q @ q.conj().T, 10))
        worst_idempotence = max(worst_idempotence, float(np.linalg.norm(e.matrix @ e.matrix - e.matrix)))
        for chain in ([e], [e, e], [e, complement(e), e]):
            try:
                value = repeated_cond_prob(mu, d, chain)
            except UndefinedProbabilityError:
                # e @ not(e) vanishes up to round-off: only the third chain may be undefined.
                assert len(chain) == 3
                continue
            assert value == conditioning._closed_form(mu, d, chain, DEFAULT_TOL)[0]
            defined += 1
    assert defined == 100
    assert worst_idempotence > 1e-11


def test_cross_check_accepts_events_self_adjoint_only_within_tolerance():
    # A real antisymmetric error of size 3e-11 keeps many projectors within
    # validate_event's self-adjointness slack, and events are stored as
    # given.  The step compresses by adjoint(e) @ rho @ e, as the closed
    # form does, so the two paths still agree to 1e-12.
    rng = np.random.default_rng(0)
    mu = State.maximally_mixed(4)
    d = validate_event(np.diag([1.0, 0.0, 0.0, 0.0]))
    accepted = 0
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        g = rng.normal(size=(4, 4))
        try:
            e = validate_event(q @ q.conj().T + 3e-11 * (g - g.T))
        except ValidationError:
            continue
        accepted += 1
        repeated_cond_prob(mu, d, [e])  # raises InvariantError when the paths disagree
    assert accepted >= 25


def _perturbed(rng, e, how):
    """``e`` as given, written to 10 decimals, or plus a real antisymmetric error of Frobenius norm 3e-11.

    None when the result fails validation.
    """
    if how == "exact":
        return e
    if how == "rounded":
        m = np.round(e.matrix, 10)
    else:
        g = rng.normal(size=e.matrix.shape)
        m = e.matrix + 3e-11 * (g - g.T) / np.linalg.norm(g - g.T)
    try:
        return validate_event(m)
    except ValidationError:
        return None


def test_cross_check_agrees_with_the_closed_form_on_every_valid_chain():
    # Seeded states of every rank, chains of 1 to 8 events (some exclusive
    # pairs among them, so that some chains are undefined), exact events and
    # events within their validation slack.  The step-by-step fold never
    # raises InvariantError, the value is the closed form's bit for bit, and
    # UndefinedProbabilityError comes exactly where the closed form raises it.
    rng = np.random.default_rng(1951)
    seen = {"defined": 0, "undefined": 0, "exact": 0, "rounded": 0, "antisymmetric": 0}
    for dim in (2, 3, 4, 6, 8, 12, 16):
        for state_rank in range(1, dim + 1):
            mu = _state_of_rank(rng, dim, state_rank)
            for how in ("exact", "rounded", "antisymmetric") * 2:
                length = int(rng.integers(1, 9))
                chain = [random_projection(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(length)]
                if rng.random() < 0.3:
                    at = int(rng.integers(length))
                    chain[at:at + 1] = [chain[at], complement(chain[at])]
                chain = [_perturbed(rng, e, how) for e in chain[:8]]
                if any(e is None for e in chain):
                    continue
                seen[how] += 1
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                for d in (random_projection(rng, dim, int(rng.integers(1, dim + 1))), g + g.conj().T):
                    try:
                        expected = conditioning._closed_form(mu, d, chain, DEFAULT_TOL)[0]
                    except UndefinedProbabilityError:
                        with pytest.raises(UndefinedProbabilityError):
                            repeated_cond_prob(mu, d, chain)
                        seen["undefined"] += 1
                        continue
                    assert repeated_cond_prob(mu, d, chain) == expected
                    seen["defined"] += 1
    assert seen["defined"] >= 250 and seen["undefined"] >= 50
    assert min(seen["exact"], seen["rounded"], seen["antisymmetric"]) >= 40


def test_conditioning_on_an_event_within_its_validation_slack_is_defined():
    e = validate_event(np.diag([1.0 + 2.5e-10, 0.0]))
    assert cond_prob(State(np.diag([1.0, 0.0])), e, e) == 1.0
