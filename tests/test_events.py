import numpy as np
import pytest

from qcondprob import (
    DEFAULT_TOL,
    ClassicalEvent,
    PureVector,
    State,
    Tolerances,
    ValidationError,
    ValuationProblem,
    commutes,
    complement,
    embed_event,
    identity_event,
    implies,
    is_orthogonal,
    lattice_meet,
    spin_projector,
    state_value,
    validate_event,
    zero_event,
)
from qcondprob import events

from helpers import (
    cut_angle,
    intersection_projector,
    off_block_anti_hermitian,
    random_projection,
    random_unitary,
    with_anti_hermitian_defect,
)


def test_validate_event_accepts_projections():
    e = validate_event(np.diag([1.0, 1.0, 0.0]))
    assert e.rank == 2
    assert e.dim == 3
    assert not e.is_minimal()
    identity = validate_event(np.eye(2))
    assert identity.rank == identity.dim
    assert validate_event(np.zeros((2, 2))).is_zero()


def test_validate_event_rejects_non_projections():
    with pytest.raises(ValidationError, match="self-adjoint"):
        validate_event(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="idempotent"):
        validate_event(np.diag([0.5, 0.5]))
    with pytest.raises(ValidationError, match="idempotent"):
        validate_event(2.0 * np.eye(2))
    # An infinite norm would make every budget infinite.
    with pytest.raises(ValidationError, match="norm overflows"):
        validate_event(np.array([[0.5, 1e200], [1e200, 0.5]]))
    # At |e|_F = 4 the idempotence defect, 4e-10, is within the budget; the trace's, 1.6e-9, is not.
    with pytest.raises(ValidationError, match="is not a valid rank for dimension 16"):
        validate_event((1 + 1e-10) * np.eye(16))


def test_tolerances_are_reals_in_the_open_unit_interval():
    # An infinite atol would pass diag(5, -3) as a rank-2 event.
    with pytest.raises(ValidationError, match="in \\(0, 1\\)"):
        validate_event([[5, 0], [0, -3]], Tolerances(atol=float("inf")))
    for field in ("atol", "rtol", "objectivity_tol", "prob_floor"):
        for value in (float("inf"), float("nan"), 1.0, 2, True, 0.0, -1e-10, "1e-10", None):
            with pytest.raises(ValidationError, match=field):
                Tolerances(**{field: value})
    assert Tolerances(atol=np.float64(1e-6), rtol=0.999).atol == 1e-6


def test_frobenius_matches_numpy_and_overflows_to_inf():
    # The input check's norm keeps np.linalg.norm's bits, so no budget moves.
    rng = np.random.default_rng(701)
    for _ in range(200):
        dim = int(rng.integers(1, 20))
        m = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * 10.0 ** int(rng.integers(-300, 70))
        for x in (m, m.T, m - m.conj().T):
            assert events._frobenius(x) == float(np.linalg.norm(x, "fro"))
    assert events._frobenius(np.array([[0.5, 1e200], [1e200, 0.5]], dtype=np.complex128)) == np.inf


def test_self_adjointness_budget_is_shared_by_events_states_and_operands():
    # Plant an anti-Hermitian part t * k with |m - adjoint(m)|_F = 2 t at
    # 0.5x and 2x the budget atol + rtol * (1 + |m|_F); all three inputs
    # must then be accepted, or all rejected as not self-adjoint.
    rng = np.random.default_rng(707)
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        rank = int(rng.integers(1, dim))
        p = random_projection(rng, dim, rank).matrix
        k = off_block_anti_hermitian(rng, p)
        checks = (
            (validate_event, p),
            (State, p / rank),
            (lambda m: state_value(State.maximally_mixed(dim), m), p),
        )
        for factor in (0.5, 2.0):
            verdicts = []
            for check, base in checks:
                t = factor * (DEFAULT_TOL.atol + DEFAULT_TOL.rtol * (1.0 + np.linalg.norm(base))) / 2.0
                try:
                    check(base + t * k)
                    verdicts.append(True)
                except ValidationError as exc:
                    assert "self-adjoint" in str(exc)
                    verdicts.append(False)
            assert verdicts == [factor < 1.0] * 3, (dim, rank, factor, verdicts)


def test_stored_matrices_are_exactly_self_adjoint():
    # Every stored matrix is its own adjoint bit for bit, so a Lüders step
    # applies it as stored: validated inputs (an np.outer ray, an in-budget
    # anti-Hermitian defect), meets of non-minimal events, vector
    # projectors, complements, embeddings, spin events and states.
    rng = np.random.default_rng(2802)
    matrices = [spin_projector(axis, sign).matrix for axis in "xyz" for sign in "+-"]
    matrices.append(embed_event(ClassicalEvent([True, False, True])).matrix)
    for _ in range(40):
        dim = int(rng.integers(3, 9))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rank = int(rng.integers(1, dim))
        defective = with_anti_hermitian_defect(rng, random_projection(rng, dim, rank))
        e, f, _ = _planted_meet_pair(rng, dim, int(rng.integers(1, dim - 1)), 0.7)
        meet = lattice_meet(validate_event(e), validate_event(f))
        w = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        rho = w @ w.conj().T
        k = off_block_anti_hermitian(rng, defective.matrix)
        matrices += [
            validate_event(np.outer(v, v.conj())).matrix,
            defective.matrix,
            complement(defective).matrix,
            meet.matrix,
            PureVector(v).projector().matrix,
            State(rho / np.trace(rho).real + 1e-11 * k).rho,
            State.from_ensemble([(0.3, v), (0.7, w[:, 0])]).rho,
        ]
    for m in matrices:
        assert np.array_equal(m, m.conj().T)


def test_event_matrix_is_read_only():
    e = validate_event(np.eye(2))
    with pytest.raises(ValueError):
        e.matrix[0, 0] = 5.0


def test_complement():
    e = validate_event(np.diag([1.0, 0.0, 0.0]))
    c = complement(e)
    assert c.rank == 2
    assert np.allclose(e.matrix + c.matrix, np.eye(3))
    assert np.allclose(complement(c).matrix, e.matrix)
    assert complement(identity_event(3)).is_zero()


def test_orthogonality():
    zp = spin_projector("z", "+")
    zm = spin_projector("z", "-")
    xp = spin_projector("x", "+")
    assert is_orthogonal(zp, zm)
    assert is_orthogonal(zm, zp)
    assert not is_orthogonal(zp, xp)
    assert is_orthogonal(zp, zero_event(2))


def test_implies():
    small = validate_event(np.diag([1.0, 0.0, 0.0]))
    big = validate_event(np.diag([1.0, 1.0, 0.0]))
    assert implies(small, big)
    assert not implies(big, small)
    assert implies(big, identity_event(3))
    assert implies(zero_event(3), small)
    assert implies(small, small)


def test_implies_needs_containment_not_overlap():
    xp = spin_projector("x", "+")
    zp = spin_projector("z", "+")
    assert not implies(xp, zp)
    assert not implies(zp, xp)


def test_commutes():
    a = validate_event(np.diag([1.0, 0.0, 0.0]))
    b = validate_event(np.diag([1.0, 1.0, 0.0]))
    assert commutes(a, b)
    assert not commutes(spin_projector("x", "+"), spin_projector("z", "+"))
    rng = np.random.default_rng(3)
    e = random_projection(rng, 4, 2)
    assert commutes(e, identity_event(4))
    assert commutes(e, complement(e))


def test_dimension_mismatch_raises():
    e2 = identity_event(2)
    e3 = identity_event(3)
    for fn in (is_orthogonal, implies, commutes, lattice_meet):
        with pytest.raises(ValidationError):
            fn(e2, e3)


def test_dimension_arguments_follow_one_rule():
    # Only a positive integer (a bool is not one) is a dimension; anything
    # else is an input error, for every constructor that takes one.
    constructors = (zero_event, identity_event, State.maximally_mixed)
    for build in constructors:
        for bad in (0, -1, 2.5, True, False, "3", None):
            with pytest.raises(ValidationError, match="dimension must be a positive integer"):
                build(bad)
        assert build(np.int64(3)).dim == 3
    assert zero_event(2).is_zero() and identity_event(2).rank == 2


def test_ray_spans_a_minimal_event():
    # Exact rays and rays written to 10 decimals (dims up to 6, where
    # rounding stays within the idempotence budget).
    rng = np.random.default_rng(181)
    for dim in (1, 2, 5, 6, 16):
        for _ in range(10):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            p = np.outer(v, v.conj())
            for e in (validate_event(p), *([validate_event(np.round(p, 10))] if dim <= 6 else [])):
                ray = events._ray(e)
                assert abs(np.linalg.norm(ray) - 1.0) < 1e-15
                assert np.linalg.norm(np.outer(ray, ray.conj()) - e.matrix) < 1e-9


def test_minimal_event_keeps_its_ray():
    # However a minimal event was built, the first _ray call derives the
    # ray and every later call returns that same read-only array, equal bit
    # for bit to the column / norm computation.
    rng = np.random.default_rng(17)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    built = [
        validate_event(np.outer(v, v.conj()) / np.vdot(v, v).real),
        spin_projector("y", "-"),
        PureVector(v).projector(),
        complement(random_projection(rng, 4, 3)),
        lattice_meet(validate_event(np.diag([1.0, 1.0, 0.0])), validate_event(np.diag([0.0, 1.0, 1.0]))),
    ]
    for e in built:
        assert e.is_minimal()
        k = int(np.argmax(e.matrix.diagonal().real))
        fresh = e.matrix[:, k] / np.linalg.norm(e.matrix[:, k])
        ray = events._ray(e)
        assert events._ray(e) is ray
        assert not ray.flags.writeable
        assert np.array_equal(ray, fresh)


def test_meet_commuting_is_product():
    a = validate_event(np.diag([1.0, 1.0, 0.0, 0.0]))
    b = validate_event(np.diag([0.0, 1.0, 1.0, 0.0]))
    m = lattice_meet(a, b)
    assert np.allclose(m.matrix, np.diag([0.0, 1.0, 0.0, 0.0]))
    assert lattice_meet(a, complement(a)).is_zero()
    assert np.allclose(lattice_meet(a, identity_event(4)).matrix, a.matrix)


def test_meet_of_minimal_events():
    xp = spin_projector("x", "+")
    yp = spin_projector("y", "+")
    assert lattice_meet(xp, yp).is_zero()
    assert lattice_meet(xp, xp).rank == 1
    # Nearly parallel minimal events still meet in zero: distinct lines
    # share only the origin.
    v1 = np.array([1.0, 1e-5])
    v1 = v1 / np.linalg.norm(v1)
    e1 = validate_event(np.outer(v1, v1))
    e0 = validate_event(np.diag([1.0, 0.0]))
    assert lattice_meet(e0, e1).is_zero()


def test_meet_known_intersection():
    # Two planes in dimension 4 sharing exactly one line.
    q = random_unitary(np.random.default_rng(5), 4)
    shared = q[:, 0:1]
    e = validate_event(q[:, 0:2] @ q[:, 0:2].conj().T)
    mix = (q[:, 1] + q[:, 2]) / np.sqrt(2)
    cols = np.column_stack([q[:, 0], mix])
    f = validate_event(cols @ cols.conj().T)
    assert not commutes(e, f)
    m = lattice_meet(e, f)
    assert m.rank == 1
    assert np.allclose(m.matrix, shared @ shared.conj().T, atol=1e-9)


def test_meet_matches_svd_oracle():
    rng = np.random.default_rng(41)
    for _ in range(40):
        dim = int(rng.integers(3, 7))
        shared_rank = int(rng.integers(0, 2))
        u = random_unitary(rng, dim)
        shared = u[:, :shared_rank]
        rest = u[:, shared_rank:]
        free = dim - shared_rank
        extra_e = int(rng.integers(1, max(2, free // 2 + 1)))
        extra_f = int(rng.integers(1, max(2, free // 2 + 1)))
        if extra_e + extra_f > free:
            continue
        ve = rest @ np.linalg.qr(rng.normal(size=(free, extra_e)) + 1j * rng.normal(size=(free, extra_e)))[0]
        vf = rest @ np.linalg.qr(rng.normal(size=(free, extra_f)) + 1j * rng.normal(size=(free, extra_f)))[0]
        ce = np.column_stack([shared, ve])
        cf = np.column_stack([shared, vf])
        e = validate_event(ce @ ce.conj().T)
        f = validate_event(cf @ cf.conj().T)
        m = lattice_meet(e, f)
        oracle = intersection_projector(e, f)
        assert m.rank == shared_rank
        assert np.allclose(m.matrix, oracle, atol=1e-8)
    # Full-rank pairs: u @ adjoint(u) is the identity up to round-off.
    for dim in (2, 4, 7):
        for _ in range(3):
            u, v = random_unitary(rng, dim), random_unitary(rng, dim)
            e = validate_event(u @ u.conj().T)
            for f in (e, validate_event(v @ v.conj().T)):
                m = lattice_meet(e, f)
                assert m.rank == dim
                assert np.allclose(m.matrix, intersection_projector(e, f), atol=1e-8)


def test_meet_result_is_lower_bound():
    rng = np.random.default_rng(43)
    for _ in range(20):
        e = random_projection(rng, 5, 3)
        f = random_projection(rng, 5, 3)
        m = lattice_meet(e, f)
        assert implies(m, e)
        assert implies(m, f)


def _planted_meet_pair(rng, dim, shared_rank, theta):
    """Projections sharing ``shared_rank`` directions, one more each at angle theta.

    Returns both projections and the planted meet, the projection onto
    the shared directions.
    """
    u = random_unitary(rng, dim)
    shared = u[:, :shared_rank]
    x, y = u[:, shared_rank], u[:, shared_rank + 1]
    ce = np.column_stack([shared, x])
    cf = np.column_stack([shared, np.cos(theta) * x + np.sin(theta) * y])
    return ce @ ce.conj().T, cf @ cf.conj().T, shared @ shared.conj().T


def test_meet_matches_svd_oracle_down_to_small_angles():
    # The meet resolves the smallest principal angle theta to about
    # eps / theta, hence the looser bound below 1e-2.  Inputs written to
    # 10 decimals are projections only within validate_event's tolerance;
    # they are compared with the oracle on the same rounded matrices.
    thetas = sorted(set(np.logspace(-4, np.log10(np.pi / 2), 11)) | {1e-3, 0.05})
    rng = np.random.default_rng(53)
    rounded_checked = 0
    for dim in (3, 4, 6, 16):
        for shared_rank in (1, 2):
            if shared_rank + 2 > dim:
                continue
            for theta in thetas:
                for _ in range(3):
                    pe, pf, _ = _planted_meet_pair(rng, dim, shared_rank, theta)
                    e, f = validate_event(pe), validate_event(pf)
                    m = lattice_meet(e, f)
                    assert m.rank == shared_rank
                    gap = np.linalg.norm(m.matrix - intersection_projector(e, f))
                    assert gap <= (1e-10 if theta < 1e-2 else 1e-12), (dim, shared_rank, theta, gap)
                    try:
                        e, f = validate_event(np.round(pe, 10)), validate_event(np.round(pf, 10))
                    except ValidationError:
                        continue
                    m = lattice_meet(e, f)
                    gap = np.linalg.norm(m.matrix - intersection_projector(e, f))
                    assert gap <= 1e-6, (dim, shared_rank, theta, gap)
                    rounded_checked += 1
    assert rounded_checked >= 100


def test_meet_recovers_the_planted_intersection_from_1e9_to_pi_over_2():
    # One SVD of the stacked complements sees a gap of about theta, so the
    # meet of exact inputs is off the planted one by about eps / theta.
    # Inputs written to 10 decimals determine the meet only to about
    # 1e-10 / theta; the rank stays right down to 1e-9, whose singular
    # value sqrt(2) sin(theta / 2) still clears the cut by a factor of
    # about 1.2 after rounding.
    # At 10 decimals the dim-16 projections fail validation, so only dims
    # up to 8 are rounded.
    thetas = np.logspace(-9, np.log10(np.pi / 2), 19)
    rng = np.random.default_rng(61)
    for dim in (3, 4, 5, 6, 8, 12, 16):
        for shared_rank in (1, 2):
            if shared_rank + 2 > dim:
                continue
            for theta in thetas:
                for _ in range(3):
                    pe, pf, planted = _planted_meet_pair(rng, dim, shared_rank, theta)
                    m = lattice_meet(validate_event(pe), validate_event(pf))
                    gap = np.linalg.norm(m.matrix - planted)
                    assert m.rank == shared_rank and gap <= 1e-13 + 4e-15 / theta, (dim, shared_rank, theta, gap)
                    if dim > 8:
                        continue
                    m = lattice_meet(validate_event(np.round(pe, 10)), validate_event(np.round(pf, 10)))
                    gap = np.linalg.norm(m.matrix - planted)
                    assert m.rank == shared_rank and gap <= 1e-9 / theta, (dim, shared_rank, theta, gap)


@pytest.mark.parametrize("theta", [2e-5, 1e-6, 1e-7, 1e-8])
def test_meet_resolves_small_principal_angles(theta):
    # A meet that sees a gap of theta^2, as repeated squaring of
    # e @ f @ e did, cannot resolve these angles: it stops without
    # converging, or returns one dimension too many.
    rng = np.random.default_rng(67)
    for dim in (4, 8, 16):
        for shared_rank in (1, 2):
            for _ in range(5):
                pe, pf, planted = _planted_meet_pair(rng, dim, shared_rank, theta)
                m = lattice_meet(validate_event(pe), validate_event(pf))
                assert m.rank == shared_rank, (dim, shared_rank)
                assert np.linalg.norm(m.matrix - planted) <= 1e-13 + 4e-15 / theta, (dim, shared_rank)


def test_meet_at_the_resolution_limit_is_not_an_input_error():
    # Two directions at an angle below sqrt(2) tau, about 7e-10 here,
    # count as shared; above it they are told apart.  Either way the
    # result is a valid event of the rank it reports.
    rng = np.random.default_rng(59)
    for dim, theta in [(4, 1e-10), (4, 3e-10), (4, 1.5e-9), (16, 1e-10), (16, 3e-10), (16, 1.5e-9)]:
        for shared_rank in (1, 2):
            for _ in range(5):
                pe, pf, _ = _planted_meet_pair(rng, dim, shared_rank, theta)
                m = lattice_meet(validate_event(pe), validate_event(pf))
                assert validate_event(m.matrix).rank == m.rank == shared_rank + (theta < 1e-9)


def test_meet_has_one_resolution_limit():
    # At theta = 5e-10 two rays in d = 3 meet in zero, while two planes in
    # d = 4 that share one axis and whose second directions are theta
    # apart meet in the whole plane.  Directions theta apart should count
    # as shared in both meets or in neither.
    theta = 5e-10
    a, b = np.array([1.0, 0.0, 0.0]), np.array([np.cos(theta), np.sin(theta), 0.0])
    rays = lattice_meet(validate_event(np.outer(a, a)), validate_event(np.outer(b, b)))
    c = np.array([[1.0, 0.0], [0.0, np.cos(theta)], [0.0, np.sin(theta)], [0.0, 0.0]])
    planes = lattice_meet(validate_event(np.diag([1.0, 1.0, 0.0, 0.0])), validate_event(c @ c.T))
    assert planes.rank == rays.rank + 1, (rays.rank, planes.rank)


def _is_same(e, f, tol):
    """The sameness rule, read through the valuation problems' deduplication."""
    return len(ValuationProblem([e, f], tol=tol).events) == 1


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(atol=1e-6, rtol=1e-6)], ids=["default", "1e-6"])
def test_meet_implication_and_sameness_cut_one_angle(tol):
    # One planted angle at 0.8x or 1.25x the cut: the meet's rank, implies
    # in both directions and deduplication all land on the planted side,
    # for rays (the meet's closed form) and for planes and volumes (its SVD).
    rng = np.random.default_rng(2011)
    for _ in range(300):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, min(3, dim - 1) + 1))
        factor = float(rng.choice([0.8, 1.25]))
        pe, pf, _ = _planted_meet_pair(rng, dim, rank - 1, factor * cut_angle(rank, tol))
        e, f = validate_event(pe, tol), validate_event(pf, tol)
        shared = factor < 1.0
        assert lattice_meet(e, f, tol).rank == rank - 1 + shared, (dim, rank, factor)
        assert implies(f, e, tol) == implies(e, f, tol) == shared, (dim, rank, factor)
        assert _is_same(e, f, tol) == shared, (dim, rank, factor)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(atol=1e-6, rtol=1e-6)], ids=["default", "1e-6"])
def test_sameness_and_implication_are_no_looser_than_the_meet(tol):
    # f shares ``shared`` directions with e and turns each of k more away
    # from one of e's by its own angle; e may hold ``extra`` directions of its
    # own.  Several angles add up in the Frobenius norms, so sameness and
    # implication may refuse what the meet still shares, never the reverse.
    rng = np.random.default_rng(2013)
    seen = {"same": 0, "implied": 0, "stricter": 0}
    for _ in range(400):
        dim, k = int(rng.integers(4, 9)), int(rng.integers(2, 4))
        shared, extra = int(rng.integers(0, 4 - k)), int(rng.integers(0, 2))
        rank_f, rank_e = shared + k, shared + k + extra
        if rank_e > 3 or shared + 2 * k + extra > dim:
            continue
        thetas = rng.choice([0.3, 0.5, 0.8, 1.25], size=k) * cut_angle(rank_e, tol)
        u = random_unitary(rng, dim)
        x, y = u[:, shared:shared + k], u[:, shared + k:shared + 2 * k]
        ce = np.column_stack([u[:, :shared + k], u[:, shared + 2 * k:shared + 2 * k + extra]])
        cf = np.column_stack([u[:, :shared], x * np.cos(thetas) + y * np.sin(thetas)])
        e, f = validate_event(ce @ ce.conj().T, tol), validate_event(cf @ cf.conj().T, tol)
        meet = lattice_meet(e, f, tol).rank
        same, implied = _is_same(e, f, tol), implies(f, e, tol)
        if same:
            assert meet == rank_e == rank_f, (dim, shared, k, extra, thetas)
        if implied:
            assert meet == rank_f, (dim, shared, k, extra, thetas)
        seen["same"] += same
        seen["implied"] += implied
        seen["stricter"] += meet == rank_f and not implied
    assert min(seen.values()) >= 10, seen


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: exclusion reads the pair's larger rank, the meet of e with f's "
                          "complement reads the complement's, so a ray inside it by the meet can fail is_orthogonal")
def test_exclusion_agrees_with_the_meet_of_a_complement():
    # Two rays in d = 3 whose overlap is 6.4e-10: the meet of e with f's
    # complement reads rank 2 and cuts at 6.8e-10, so it is e, and implies
    # agrees, but is_orthogonal reads rank 1 and cuts at 6e-10.
    t = 6.4e-10
    a, b = np.array([1.0, 0.0, 0.0]), np.array([t, np.sqrt(1.0 - t * t), 0.0])
    e, f = validate_event(np.outer(a, a)), validate_event(np.outer(b, b))
    inside = lattice_meet(e, complement(f)).rank == e.rank
    assert implies(e, complement(f)) == inside
    assert is_orthogonal(e, f) == inside


def test_an_event_excludes_its_complement_within_its_validation_budget():
    # diag(1 + 2.5e-10, 0) validates, and |e (I - e)|_F = 2.5e-10: within
    # the lattice's resolution limit, as the meet of e and its complement
    # (zero) and implies(e, e) say, so the pair is exclusive and a resolution.
    e = validate_event(np.diag([1.0 + 2.5e-10, 0.0]))
    assert is_orthogonal(e, complement(e)) and implies(e, e)
    assert lattice_meet(e, complement(e)).is_zero()
    assert ValuationProblem([e, complement(e)], resolutions=[(0, 1)]).resolutions == ((0, 1),)
    assert ValuationProblem([e, complement(e)]).resolutions == ((0, 1),)


def test_event_repr():
    assert repr(identity_event(2)) == "Event(dim=2, rank=2)"


def test_event_constructor_checks_structure_only():
    # No numerics: diag(1, 0) with rank 2 is structurally an event.
    assert events.Event(np.diag([1.0, 0.0]), np.int64(2)).rank == 2
    for matrix, rank in ((np.eye(2), 5), (np.eye(2), -1), (np.eye(2), 1.0), (np.eye(2), True),
                         (None, 1), ("not a matrix", 1), (np.zeros((0, 0)), 0), (np.ones((2, 3)), 1)):
        with pytest.raises(ValidationError):
            events.Event(matrix, rank)


def test_public_events_copy_and_internal_events_are_read_only():
    # The public constructor copies what it is given, so a caller's later
    # write never reaches the event; the package's own constructors hand
    # over the matrix they have just built, uncopied, and every event's
    # matrix is read-only either way.
    given = np.diag([1.0, 0.0]).astype(np.complex128)
    public = events.Event(given, 1)
    assert not np.shares_memory(public.matrix, given)
    given[0, 0] = 0.0
    assert public.matrix[0, 0] == 1.0
    rng = np.random.default_rng(2301)
    e, f = random_projection(rng, 4, 2), random_projection(rng, 4, 2)
    entries = np.diag([1.0, 1.0, 0.0, 0.0])
    built = {
        "public": public,
        "validate_event": validate_event(entries),
        "complement": complement(e),
        "zero_event": zero_event(3),
        "identity_event": identity_event(3),
        "embed_event": embed_event(ClassicalEvent([True, False, True])),
        "lattice_meet": lattice_meet(e, f),
        "lattice_meet of rays": lattice_meet(random_projection(rng, 3, 1), random_projection(rng, 3, 1)),
        "PureVector.projector": PureVector([1.0, 1.0j, 0.0]).projector(),
        "spin_projector": spin_projector("y", "-"),
    }
    assert not np.shares_memory(built["validate_event"].matrix, entries)
    for name, event in built.items():
        assert not event.matrix.flags.writeable, name
        with pytest.raises(ValueError):
            event.matrix[0, 0] = 0.5
