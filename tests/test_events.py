import numpy as np
import pytest

from qcondprob import (
    DEFAULT_TOL,
    ConvergenceError,
    State,
    ValidationError,
    commutes,
    complement,
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

from helpers import intersection_projector, random_projection, random_unitary


def test_validate_event_accepts_projections():
    e = validate_event(np.diag([1.0, 1.0, 0.0]))
    assert e.rank == 2
    assert e.dim == 3
    assert not e.is_minimal()
    assert validate_event(np.eye(2)).is_identity()
    assert validate_event(np.zeros((2, 2))).is_zero()


def test_validate_event_rejects_non_projections():
    with pytest.raises(ValidationError, match="self-adjoint"):
        validate_event(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="idempotent"):
        validate_event(np.diag([0.5, 0.5]))
    with pytest.raises(ValidationError, match="idempotent"):
        validate_event(2.0 * np.eye(2))


def _off_block_anti_hermitian(rng, p):
    """A unit-norm anti-Hermitian matrix mapping range(p) and its complement into each other.

    Adding t times it to p changes only self-adjointness to first order:
    idempotence moves by t**2 and the trace not at all.
    """
    d = p.shape[0]
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = p @ a @ (np.eye(d) - p)
    k = x - x.conj().T
    return k / np.linalg.norm(k)


def test_self_adjointness_budget_is_shared_by_events_states_and_operands():
    # Plant an anti-Hermitian part t * k with |m - adjoint(m)|_F = 2 t at
    # 0.5x and 2x the budget atol + rtol * (1 + |m|_F); all three inputs
    # must then be accepted, or all rejected as not self-adjoint.
    rng = np.random.default_rng(707)
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        rank = int(rng.integers(1, dim))
        p = random_projection(rng, dim, rank).matrix
        k = _off_block_anti_hermitian(rng, p)
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


def test_meet_iteration_cap(monkeypatch):
    e = random_projection(np.random.default_rng(47), 5, 3)
    f = random_projection(np.random.default_rng(48), 5, 3)
    monkeypatch.setattr(events, "_MEET_MAX_SQUARINGS", 1)
    with pytest.raises(ConvergenceError):
        lattice_meet(e, f)


def _planted_meet_pair(rng, dim, shared_rank, theta):
    """Projections sharing ``shared_rank`` directions, one more each at angle theta."""
    u = random_unitary(rng, dim)
    shared = u[:, :shared_rank]
    x, y = u[:, shared_rank], u[:, shared_rank + 1]
    ce = np.column_stack([shared, x])
    cf = np.column_stack([shared, np.cos(theta) * x + np.sin(theta) * y])
    return ce @ ce.conj().T, cf @ cf.conj().T


def test_meet_matches_svd_oracle_down_to_small_angles():
    # Squaring e f e resolves the smallest principal angle theta to about
    # eps / theta^2, hence the looser bound below 1e-2.  Inputs written to
    # 10 decimals are projections only within validate_event's tolerance;
    # they are compared with the oracle on the same rounded matrices.
    assert events._MEET_MAX_SQUARINGS <= 40
    thetas = sorted(set(np.logspace(-4, np.log10(np.pi / 2), 11)) | {1e-3, 0.05})
    rng = np.random.default_rng(53)
    rounded_checked = 0
    for dim in (3, 4, 6, 16):
        for shared_rank in (1, 2):
            if shared_rank + 2 > dim:
                continue
            for theta in thetas:
                for _ in range(3):
                    pe, pf = _planted_meet_pair(rng, dim, shared_rank, theta)
                    e, f = validate_event(pe), validate_event(pf)
                    m = lattice_meet(e, f)
                    assert m.rank == shared_rank
                    gap = np.linalg.norm(m.matrix - intersection_projector(e, f))
                    assert gap <= (1e-7 if theta < 1e-2 else 1e-10), (dim, shared_rank, theta, gap)
                    try:
                        e, f = validate_event(np.round(pe, 10)), validate_event(np.round(pf, 10))
                    except ValidationError:
                        continue
                    m = lattice_meet(e, f)
                    gap = np.linalg.norm(m.matrix - intersection_projector(e, f))
                    assert gap <= 1e-6, (dim, shared_rank, theta, gap)
                    rounded_checked += 1
    assert rounded_checked >= 100


def test_meet_at_the_resolution_limit_is_not_an_input_error():
    # Near the squaring bound (theta about 3e-5) the loop stops with its
    # floor at its largest; below it the bound runs out, and below about
    # 1e-7 the two directions count as shared.  Valid inputs never raise
    # ValidationError.
    rng = np.random.default_rng(59)
    for dim, theta in [(4, 1e-7), (4, 3e-7), (4, 2.5e-5), (4, 3e-5), (16, 2.5e-5), (16, 3e-5)]:
        for shared_rank in (1, 2):
            for _ in range(5):
                e, f = (validate_event(p) for p in _planted_meet_pair(rng, dim, shared_rank, theta))
                try:
                    m = lattice_meet(e, f)
                except ConvergenceError:
                    continue
                assert validate_event(m.matrix).rank == m.rank >= shared_rank


def test_event_repr():
    assert repr(identity_event(2)) == "Event(dim=2, rank=2)"
