"""Events' orthonormal factors, and the Lüders kernels that read them, against dense d x d formulas.

The oracles here form the products of the event matrices themselves:
``E = e1 @ ... @ en`` and the traces of ``rho @ E @ d @ adjoint(E)``, or
walk a chain of blocking apparatuses, so agreement checks the factor
coordinates, the overlaps and the outcome's smaller side.
"""

import numpy as np
import pytest

from qcondprob import (
    DEFAULT_TOL,
    Apparatus,
    Chain,
    ClassicalEvent,
    ClassicalSpace,
    InvariantError,
    PureVector,
    State,
    UndefinedProbabilityError,
    ValidationError,
    complement,
    cond_prob,
    cond_state,
    embed_diagonal,
    embed_event,
    evaluate_chain,
    identity_event,
    lattice_meet,
    objective_seq,
    objective_split,
    repeated_cond_prob,
    split_cond_prob,
    state_from_outcome,
    validate_event,
    zero_event,
)
from qcondprob import conditioning
from qcondprob.events import _cholesky, _range, _ray, _side

import test_conditioning
from helpers import dense_objective_seq, random_rank1, random_unitary, with_anti_hermitian_defect

DIMS = (2, 3, 4, 5, 6, 7, 8, 64, 128)


def _columns_event(cols):
    return validate_event(cols @ cols.conj().T)


def _event(rng, dim, rank):
    """A random projection of any rank 0..dim."""
    return _columns_event(random_unitary(rng, dim)[:, :rank])


def _state(rng, dim, case):
    """A full-rank density matrix, an ensemble of 1..dim rays, or the state of a minimal outcome."""
    kind = case % 3
    if kind == 0:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return State(g @ g.conj().T / np.linalg.norm(g) ** 2)
    if kind == 1:
        k = int(rng.integers(1, dim + 1))
        vectors = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
        return State.from_ensemble(zip(rng.dirichlet(np.ones(k)).tolist(), vectors))
    return state_from_outcome(random_rank1(rng, dim))


def _product(chain):
    product = chain[0].matrix
    for e in chain[1:]:
        product = product @ e.matrix
    return product


def _dense_value(rho, d, chain):
    """``trace(rho @ E @ d @ adjoint(E)) / trace(rho @ E @ adjoint(E))``, or None at or below the floor."""
    product = _product(chain)
    weight = np.real(np.trace(rho @ product @ product.conj().T))
    if weight <= DEFAULT_TOL.prob_floor:
        return None
    return float(np.real(np.trace(rho @ product @ d @ product.conj().T)) / weight)


def _dense_split(rho, d, e1, e2):
    """``(normalizer, part1, part2, cross, total)`` from traces of ``rho @ e_i @ d @ e_j``, or None."""
    w1, w2 = (np.real(np.trace(rho @ e.matrix)) for e in (e1, e2))
    if min(w1, w2) <= DEFAULT_TOL.prob_floor:
        return None
    p1, p2 = (np.real(np.trace(rho @ e.matrix @ d @ e.matrix)) for e in (e1, e2))
    cross = np.trace(rho @ e1.matrix @ d @ e2.matrix)
    return w1 + w2, p1, p2, cross, (p1 + p2 + 2.0 * cross.real) / (w1 + w2)


@pytest.fixture(params=["factors from d = 32", "factors at every d"])
def route(request, monkeypatch):
    """Runs a test with the conditioning kernel's own crossover, and with factors at every dimension."""
    if request.param == "factors at every d":
        monkeypatch.setattr(conditioning, "_FACTOR_DIM", 1)


def test_lueders_kernels_match_the_dense_formulas(route):
    # d 2-8, 64 and 128; event ranks 0..d on both sides of d / 2; states of
    # every rank, from a matrix, an ensemble and a minimal outcome; chains of
    # 1-4 events; exact projections, so every value agrees to 1e-12.
    rng = np.random.default_rng(2901)
    seen = {"defined": 0, "undefined": 0, "complement side": 0, "range side": 0, "split": 0}
    for dim in DIMS:
        for case in range(24 if dim <= 8 else 6):
            mu = _state(rng, dim, case)
            chain = [_event(rng, dim, int(rng.integers(0, dim + 1))) for _ in range(int(rng.integers(1, 5)))]
            d = _event(rng, dim, int(rng.integers(0, dim + 1)))
            seen["complement side" if _side(d)[1] else "range side"] += 1
            expected = _dense_value(mu.rho, d.matrix, chain)
            if expected is None:
                with pytest.raises(UndefinedProbabilityError):
                    repeated_cond_prob(mu, d, chain)
                seen["undefined"] += 1
            else:
                assert abs(repeated_cond_prob(mu, d, chain) - expected) <= 1e-12
                seen["defined"] += 1
            first = _dense_value(mu.rho, d.matrix, chain[:1])
            if first is None:
                with pytest.raises(UndefinedProbabilityError):
                    cond_prob(mu, d, chain[0])
                with pytest.raises(UndefinedProbabilityError):
                    cond_state(mu, chain[0])
            else:
                assert abs(cond_prob(mu, d, chain[0]) - first) <= 1e-12
                e = chain[0].matrix
                updated = e @ mu.rho @ e
                assert np.max(np.abs(cond_state(mu, chain[0]).rho - updated / np.real(np.trace(updated)))) <= 1e-12
            try:
                lam, _, objective, value = dense_objective_seq(d, chain)
            except (UndefinedProbabilityError, ValidationError) as exc:
                with pytest.raises(type(exc)):
                    objective_seq(d, chain)
            else:
                got = objective_seq(d, chain)
                assert abs(got.lam - lam) <= 1e-12 and got.objective == objective
                assert (got.value is None) == (value is None) and (value is None or abs(got.value - value) <= 1e-12)
            # An exclusive split of random ranks, 0 included, read at the state and at a minimal preparation.
            u = random_unitary(rng, dim)
            r1 = int(rng.integers(0, dim + 1))
            r2 = int(rng.integers(0, dim - r1 + 1))
            e1, e2 = _columns_event(u[:, :r1]), _columns_event(u[:, r1:r1 + r2])
            f = random_rank1(rng, dim)
            for report, rho in ((lambda: split_cond_prob(mu, d, e1, e2), mu.rho),
                                (lambda: objective_split(f, d, e1, e2), f.matrix)):
                want = _dense_split(rho, d.matrix, e1, e2)
                if want is None:
                    with pytest.raises(UndefinedProbabilityError):
                        report()
                    continue
                got = report()
                normalizer, p1, p2, cross, total = want
                assert abs(got.normalizer - normalizer) <= 1e-12 and abs(got.total - total) <= 1e-12
                assert abs(got.part1 - p1) <= 1e-12 and abs(got.part2 - p2) <= 1e-12
                assert abs(got.lambda_complex - cross) <= 1e-12
                seen["split"] += 1
    assert seen["defined"] >= 60 and seen["undefined"] >= 20 and seen["split"] >= 80
    assert min(seen["complement side"], seen["range side"]) >= 50


@pytest.mark.parametrize("dim", [3, 8, 64])
def test_weights_near_the_floor_are_read_on_the_condition_range(dim, route):
    # The state puts weight w on a direction b in the condition's range and
    # the rest on a direction outside it: at w = 1e-11 the value is the
    # outcome's expectation at b, at w = 1e-13 every route refuses.  The
    # ensemble's factor carries b exactly; the density matrix's eigenvector
    # for w is determined only to about eps / w, so that state is checked
    # for being defined, not for its value.
    rng = np.random.default_rng(dim)
    for rank in (1, dim // 2, dim - 1):
        u = random_unitary(rng, dim)
        e = _columns_event(u[:, :rank])
        b, a = u[:, 0], u[:, rank]
        d = _event(rng, dim, int(rng.integers(1, dim)))
        f = _columns_event(u[:, rank:rank + 1])
        expected = float(np.real(np.vdot(b, d.matrix @ b)))
        for w, defined in ((1e-11, True), (1e-13, False)):
            rho = (1 - w) * np.outer(a, a.conj()) + w * np.outer(b, b.conj())
            ensemble = State.from_ensemble([(1 - w, a), (w, b)])
            for mu in (ensemble, State((rho + rho.conj().T) / 2)):
                calls = (lambda: cond_prob(mu, d, e), lambda: repeated_cond_prob(mu, d, [e, e]),
                         lambda: cond_state(mu, e), lambda: split_cond_prob(mu, d, e, f))
                if defined:
                    values = [call() for call in calls[:2]]
                    assert mu is not ensemble or all(abs(value - expected) <= 1e-9 for value in values)
                else:
                    for call in calls:
                        with pytest.raises(UndefinedProbabilityError):
                            call()


def test_factor_route_cross_check_holds_on_exact_and_written_events(monkeypatch):
    # The cross-check properties of the matrix route, with factors read at
    # d <= 16: exact events and events with an anti-Hermitian defect within
    # their budget (stored exactly self-adjoint) have factors, events written
    # to 10 decimals have none and are read by their matrices; chains of 1
    # to 8 events.
    monkeypatch.setattr(conditioning, "_FACTOR_DIM", 1)
    test_conditioning.test_cross_check_agrees_with_the_closed_form_on_every_valid_chain()
    test_conditioning.test_cross_check_accepts_events_idempotent_only_within_tolerance()
    test_conditioning.test_cross_check_accepts_events_self_adjoint_only_within_tolerance()


def _written(e, decimals=10):
    """``e`` written to ``decimals`` decimals, a projection within its budget only; None if that fails validation."""
    try:
        return validate_event(np.round(e.matrix, decimals))
    except ValidationError:
        return None


@pytest.mark.parametrize("dim", [64, 128])
def test_large_events_agree_with_the_chain_walk(dim):
    # Events written to 12 decimals (10 would leave most of them out of
    # their budget at these dimensions) and events with an anti-Hermitian
    # defect within their budget, at dimensions where the kernel reads factors:
    # cond_prob and repeated_cond_prob read at a minimal preparation agree
    # with the walk of the chain of blocking apparatuses, which applies the
    # matrices, to round-off, and objective_seq with the dense fit.  A
    # written event has no factor, so its kernel applies its matrix.
    rng = np.random.default_rng(dim + 29)
    seen = {"written": 0, "defect": 0}
    for trial in range(8):
        kind = "written" if trial % 2 else "defect"
        f = random_rank1(rng, dim)
        chain = [_event(rng, dim, int(rng.integers(2, dim - 1))) for _ in range(int(rng.integers(1, 4)))]
        d = _event(rng, dim, int(rng.integers(2, dim - 1)))
        if kind == "written":
            f, d, *chain = (_written(x, 12) for x in (f, d, *chain))
            if any(x is None for x in (f, d, *chain)):
                continue
            assert all(_range(x) is None for x in (f, d, *chain))
        else:
            f, d, *chain = (with_anti_hermitian_defect(rng, x) for x in (f, d, *chain))
            assert all(_range(x) is not None for x in (f, d, *chain))
        seen[kind] += 1
        walk = evaluate_chain(Chain(f, tuple(Apparatus(e, "block_on_negation") for e in chain), d)).value
        mu = state_from_outcome(f)
        assert abs(repeated_cond_prob(mu, d, chain) - walk) <= 1e-13
        single = evaluate_chain(Chain(f, (Apparatus(chain[0], "block_on_negation"),), d)).value
        assert abs(cond_prob(mu, d, chain[0]) - single) <= 1e-13
        lam, _, objective, _ = dense_objective_seq(d, chain)
        got = objective_seq(d, chain)
        assert got.objective == objective and abs(got.lam - lam) <= 1e-12
    assert min(seen.values()) >= 3


def test_certified_sequences_without_a_minimal_event_fit_on_the_first_factor(route):
    # The last event e = A adjoint(A) of rank r and an outcome spanning
    # cos(t) a_i + sin(t) b_i, the b_i orthonormal outside e's range:
    # e d e = cos^2(t) e, so every prefix of weight above the floor
    # certifies lam = cos^2(t).  d 32-128, 0-3 non-minimal events in front.
    # The first event has a factor, so objective_seq takes the factor
    # pivot, except where it is written to 12 decimals: then it has none
    # and the fit takes the matrix pivot.  Any pivot certifies such a
    # sequence, so a random outcome on it checks the fit against the dense
    # one too.
    rng = np.random.default_rng(3501)
    seen = {"factor": 0, "matrix": 0}
    for dim in (32, 48, 64, 128):
        for case in range(6):
            q = random_unitary(rng, dim)
            r = int(rng.integers(2, dim // 2 + 1))
            t = rng.uniform(0.1, 1.4)
            d = _columns_event(np.cos(t) * q[:, :r] + np.sin(t) * q[:, r:2 * r])
            chain = [_event(rng, dim, int(rng.integers(2, dim - 1))) for _ in range(case % 4)]
            chain.append(_columns_event(q[:, :r]))
            pivot = "matrix" if case in (1, 5) else "factor"
            if pivot == "matrix":
                chain[0] = _written(chain[0], 12)
                assert _range(chain[0]) is None
            assert all(not x.is_minimal() for x in chain)
            assert (_range(chain[0]) is not None) == (pivot == "factor")
            got = objective_seq(d, chain)
            lam, _, objective, _ = dense_objective_seq(d, chain)
            assert got.objective and objective
            assert abs(got.lam - np.cos(t) ** 2) <= 1e-12 and abs(got.lam - lam) <= 1e-12
            assert abs(got.value - np.cos(t) ** 2) <= 1e-12
            other = _event(rng, dim, int(rng.integers(2, dim - 1)))
            got = objective_seq(other, chain)
            lam, _, objective, _ = dense_objective_seq(other, chain)
            assert got.objective == objective and abs(got.lam - lam) <= 1e-12
            seen[pivot] += 1
    assert seen == {"factor": 16, "matrix": 8}


def test_a_corrupted_factor_trips_the_cross_check(monkeypatch):
    # From d = 32 the closed form reads the factors and the step-by-step
    # fold the matrices, so a factor that misses its event, orthonormal or
    # not, makes repeated_cond_prob raise; cond_prob, not cross-checked,
    # returns the corrupted value.
    rng = np.random.default_rng(64)
    mu = _state(rng, 64, 0)
    chain = [_event(rng, 64, 20), _event(rng, 64, 40)]
    d = _event(rng, 64, 10)
    exact, single = repeated_cond_prob(mu, d, chain), cond_prob(mu, d, chain[0])
    assert single == repeated_cond_prob(mu, d, chain[:1])
    tilt = random_unitary(rng, 64)
    for corrupt in (lambda v: np.linalg.qr(v + 1e-6 * tilt[:, :v.shape[1]])[0], lambda v: (1 + 1e-9) * v):
        monkeypatch.setattr(conditioning, "_range", lambda e, corrupt=corrupt: corrupt(_range(e)))
        with pytest.raises(InvariantError):
            repeated_cond_prob(mu, d, chain)
        with pytest.raises(InvariantError):
            repeated_cond_prob(mu, d, chain[:1])
        assert cond_prob(mu, d, chain[0]) != single
    monkeypatch.undo()
    assert repeated_cond_prob(mu, d, chain) == exact


def test_refusals_keep_their_order(route):
    # A malformed operand or a wrong dimension is reported before a vanishing weight.
    mu = State.maximally_mixed(4)
    nothing = zero_event(4)
    with pytest.raises(ValidationError, match="self-adjoint"):
        cond_prob(mu, np.array([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]), nothing)
    with pytest.raises(ValidationError, match="dimension"):
        repeated_cond_prob(mu, identity_event(4), [nothing, identity_event(3)])
    with pytest.raises(UndefinedProbabilityError):
        repeated_cond_prob(mu, identity_event(4), [identity_event(4), nothing])
    with pytest.raises(UndefinedProbabilityError, match="chain product vanishes"):
        objective_seq(identity_event(4), [nothing])
    with pytest.raises(ValidationError, match="outcome"):
        split_cond_prob(mu, identity_event(3), nothing, nothing)


def test_factors_span_their_events_to_round_off():
    # Exact projections of every rank have a factor on both sides,
    # orthonormal and spanning the side within 64 eps d.  Projections
    # written to 10 decimals, and (1 + 2.5e-11) I in dimension 16, whose
    # idempotence defect, 4e-10, lies within its budget, miss their factor
    # by more than round-off, so they have none and the kernels read their
    # matrices; the factor they were refused is still orthonormal within
    # the budget.  Each factor is derived once, a refusal too, and a
    # minimal event's ray is the one-step factor bit for bit.
    rng = np.random.default_rng(14)
    events = [(validate_event((1 + 2.5e-11) * np.eye(16)), False)]
    for dim in (1, 2, 3, 5, 8, 16, 64, 128):
        for rank in sorted({0, 1, dim // 2, dim // 2 + 1, dim - 1, dim} - {-1, dim + 1}):
            e = _event(rng, dim, rank)
            events.append((e, True))
            written = _written(e) if rank else None
            if written is not None and np.linalg.norm(written.matrix - e.matrix) > 1e-12:
                events.append((written, False))
    assert len(events) >= 50 and sum(not exact for _, exact in events) >= 10
    for e, exact in events:
        eye = np.eye(e.dim)
        v = _range(e)
        side, on_complement = _side(e)
        assert _range(e) is v and _side(e)[0] is side and on_complement == (2 * e.rank > e.dim)
        target = eye - e.matrix if on_complement else e.matrix
        if exact:
            assert v.shape == (e.dim, e.rank) and not v.flags.writeable
            assert side.shape[1] <= e.dim // 2 and not side.flags.writeable
            for factor, projection in ((v, e.matrix), (side, target)):
                assert np.linalg.norm(factor.conj().T @ factor - np.eye(factor.shape[1])) <= 64 * 2.0 ** -52 * e.dim
                assert np.linalg.norm(factor @ factor.conj().T - projection) <= 64 * 2.0 ** -52 * e.dim
        else:
            assert v is None and side is None and e._range is False
            budget = DEFAULT_TOL.budget(np.linalg.norm(e.matrix))
            refused = _cholesky(e.matrix, e.rank)
            assert np.linalg.norm(refused.conj().T @ refused - np.eye(e.rank)) <= budget
        if e.is_minimal():
            k = int(np.argmax(e.matrix.diagonal().real))
            ray = _ray(e)
            assert ray is _ray(e) and not ray.flags.writeable
            assert np.array_equal(ray, _cholesky(e.matrix, 1)[:, 0])
            assert np.array_equal(ray, e.matrix[:, k] / np.linalg.norm(e.matrix[:, k]))
            assert v is None or np.array_equal(ray, v[:, 0])


def test_constructors_that_know_a_factor_keep_it():
    rng = np.random.default_rng(29)
    mask = rng.random(9) < 0.7
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    derived = _event(rng, 5, 3)
    _range(derived), _side(derived)
    built = [
        (embed_event(ClassicalEvent(mask)), True),
        (embed_event(ClassicalEvent(np.zeros(4, dtype=bool))), True),
        (identity_event(5), True),
        (zero_event(5), True),
        (PureVector(v).projector(), False),
        (lattice_meet(validate_event(np.diag([1.0, 1, 1, 0])), validate_event(np.diag([0.0, 1, 1, 1]))), False),
        (complement(derived), True),
    ]
    for e, with_complement in built:
        assert e._range is not None and (e._null is not None) == with_complement
        pairs = [(e._range, e.matrix)] + ([(e._null, np.eye(e.dim) - e.matrix)] if with_complement else [])
        for factor, target in pairs:
            assert not factor.flags.writeable
            assert np.linalg.norm(factor.conj().T @ factor - np.eye(factor.shape[1])) <= 1e-14
            assert np.linalg.norm(factor @ factor.conj().T - target) <= 1e-14
    assert np.array_equal(built[0][0]._range, np.eye(9)[:, mask])
    # A zero weight costs the embedded state no factor column, and rho is unchanged.
    weights = rng.dirichlet(np.ones(9))
    weights[[1, 4]] = 0.0
    weights /= weights.sum()
    mu = embed_diagonal(ClassicalSpace(weights))
    assert mu._factor.shape == (9, 7)
    assert np.array_equal(mu.rho, np.diag(weights.astype(complex)))
    assert np.max(np.abs(mu._factor @ mu._factor.conj().T - mu.rho)) <= 1e-16
