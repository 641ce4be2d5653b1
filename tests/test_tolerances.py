"""Probabilities read from validated events stay within their clamp.

Every event here has one eigen-direction x pushed to the edge of what
validation accepts: eigenvalue 1 + s b inside its range, -s b outside,
for its budget b and s up to 0.99.  A state or preparation along x
reads those eigenvalues, so every public function that clamps sees a
value outside [0, 1] by up to about 2 s b, which ``probability_slack``
must absorb.
"""

import collections
import math

import numpy as np

from qcondprob import (
    DEFAULT_TOL,
    Apparatus,
    Chain,
    PureVector,
    State,
    UndefinedProbabilityError,
    ValidationError,
    cond_prob,
    conditioned_on_record,
    double_slit_scan,
    evaluate_chain,
    identity_event,
    incoherent_combine,
    is_orthogonal,
    objective_seq,
    objective_split,
    pure_event_prob,
    repeated_cond_prob,
    sample_chain,
    split_cond_prob,
    state_value,
    validate_event,
)

from helpers import cut_angle, random_unitary


def _pushed(q, members, x_value):
    """The event on columns ``members`` of ``q`` (column 0 excluded), with eigenvalue ``x_value`` along column 0."""
    values = np.zeros(q.shape[0])
    values[list(members)] = 1.0
    values[0] = x_value
    return validate_event(q @ np.diag(values) @ q.conj().T)


def _edge_event(rng, q, s, inside=None):
    """A random-rank event whose eigenvalue along q[:, 0] is 1 + s b inside its range or -s b outside."""
    n = q.shape[0]
    if inside is None:
        inside = bool(rng.random() < 0.6)
    others = [int(j) for j in rng.permutation(np.arange(1, n))]
    rank = int(rng.integers(1, n + 1)) if inside else int(rng.integers(1, n))
    b = DEFAULT_TOL.budget(math.sqrt(rank))
    if inside:
        return _pushed(q, others[:rank - 1], 1.0 + s * b)
    return _pushed(q, others[:rank], -s * b)


def _split(rng, q, s):
    """Exclusive parts and a ray that reaches both.

    e1 holds q[:, 0] pushed to 1 + s b1; e2 holds other columns and is
    pushed along q[:, 0] by +/- s times ``budget()``, within e2's
    validation budget, so ``|e1 @ e2|_F`` stays within the exclusion rule.  The ray mixes q[:, 0] with a
    column of e2, since one along q[:, 0] alone leaves e2 no weight.
    """
    n = q.shape[0]
    others = [int(j) for j in rng.permutation(np.arange(1, n))]
    r1 = int(rng.integers(1, n))
    r2 = int(rng.integers(1, n - r1 + 1))
    e1 = _pushed(q, others[:r1 - 1], 1.0 + s * DEFAULT_TOL.budget(math.sqrt(r1)))
    e2 = _pushed(q, others[r1 - 1:r1 - 1 + r2], float(rng.choice([-1.0, 1.0])) * s * DEFAULT_TOL.budget())
    t = rng.uniform(0.2, 1.4)
    ray = math.cos(t) * q[:, 0] + math.sin(t) * q[:, others[r1 - 1]]
    return e1, e2, ray


def test_probabilities_from_events_at_the_edge_of_validation_stay_within_their_clamp():
    rng = np.random.default_rng(1818)
    seen = collections.Counter()

    def call(name, f, *args, **kwargs):
        # Refusals are allowed; an InvariantError is not.
        try:
            f(*args, **kwargs)
        except (UndefinedProbabilityError, ValidationError):
            seen[name + " refused"] += 1
        else:
            seen[name] += 1

    for _ in range(300):
        n = int(rng.integers(2, 7))
        q = random_unitary(rng, n)
        s = float(rng.uniform(0.9, 0.99))
        x = q[:, 0]
        mu = State.from_ensemble([(1.0, PureVector(x))])
        f = _pushed(q, [], 1.0 + s * DEFAULT_TOL.budget(1.0))
        d = _edge_event(rng, q, s)
        e = _edge_event(rng, q, s, inside=True)
        chain = [_edge_event(rng, q, s, inside=bool(rng.random() < 0.8)) for _ in range(int(rng.integers(1, 4)))]
        dense = [ev for ev in chain if not ev.is_minimal()] or [_edge_event(rng, q, s, inside=True)]
        minimal = chain + [f]

        call("state_value", state_value, mu, d)
        call("cond_prob", cond_prob, mu, d, e)
        call("repeated_cond_prob", repeated_cond_prob, mu, d, chain)
        call("objective_seq rank-one", objective_seq, d, minimal)
        if not any(ev.is_minimal() for ev in dense):
            call("objective_seq dense", objective_seq, d, dense)
        call("pure_event_prob", pure_event_prob, PureVector(x), d)
        if n >= 3:
            e1, e2, ray = _split(rng, q, s)
            g = validate_event((1.0 + s * DEFAULT_TOL.budget(1.0)) * np.outer(ray, ray.conj()))
            call("split_cond_prob", split_cond_prob, State.from_ensemble([(1.0, PureVector(ray))]), d, e1, e2)
            call("objective_split", objective_split, g, d, e1, e2)
            call("incoherent_combine", incoherent_combine, g, d, e1, e2)
            call("double_slit_scan", double_slit_scan, g, e1, e2, [d, e, e1])

        detector = int(rng.integers(len(chain)))
        apparatuses = [
            Apparatus(ev, "pass_both", "positive") if k == detector
            else Apparatus(ev, str(rng.choice(["pass_both", "block_on_negation"])))
            for k, ev in enumerate(chain)
        ]
        scenario = Chain(f, apparatuses, d)
        call("evaluate_chain", evaluate_chain, scenario)
        call("conditioned_on_record", conditioned_on_record, scenario, str(rng.choice(["positive", "negation"])))
        call("sample_chain", sample_chain, scenario, 100, int(rng.integers(1000)))

    named = ["state_value", "cond_prob", "repeated_cond_prob", "objective_seq rank-one", "objective_seq dense",
             "pure_event_prob", "split_cond_prob", "objective_split", "incoherent_combine", "double_slit_scan",
             "evaluate_chain", "conditioned_on_record", "sample_chain"]
    assert all(seen[name] >= 100 for name in named), seen


def test_a_split_at_the_edge_of_exclusion_is_accepted_within_its_clamp():
    # Exact parts whose ranges overlap by s times the exclusion cut at the
    # larger rank: the split is exclusive, and on a ray that reaches both the
    # coherent total, a Rayleigh quotient of d at (e1 + e2) v, stays within
    # d's clamp.
    rng = np.random.default_rng(2020)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        q = random_unitary(rng, n)
        s = float(rng.uniform(0.9, 0.99))
        r1 = int(rng.integers(1, n))
        r2 = int(rng.integers(1, n - r1 + 1))
        tilt = s * cut_angle(max(r1, r2))
        c1 = q[:, :r1]
        c2 = q[:, r1:r1 + r2].copy()
        c2[:, 0] = math.sqrt(1.0 - tilt * tilt) * q[:, r1] + tilt * q[:, 0]
        e1, e2 = validate_event(c1 @ c1.conj().T), validate_event(c2 @ c2.conj().T)
        assert is_orthogonal(e1, e2)
        t = rng.uniform(0.2, 1.4)
        ray = math.cos(t) * q[:, 0] + math.sin(t) * c2[:, 0]
        ray /= np.linalg.norm(ray)
        g = validate_event(np.outer(ray, ray.conj()))
        for d in (_edge_event(rng, q, s), identity_event(n)):
            split_cond_prob(State.from_ensemble([(1.0, PureVector(ray))]), d, e1, e2)
            assert objective_split(g, d, e1, e2).total <= 1.0
            incoherent_combine(g, d, e1, e2)
            double_slit_scan(g, e1, e2, [d, e1])


def test_coherent_total_near_the_branch_floor_is_the_block_chains_value():
    # e1 couples two directions outside its range by eps = 2e-10, one of
    # them e2's: both parts validate and |e1 @ e2|_F = eps passes the
    # exclusion rule.  On branch weights of about 1.2e-12 the split's
    # overlap then moves (part1 + part2 + interference) / normalizer to
    # about 1 + 1.8e-4, while the Lüders value of e1 + e2, a Rayleigh
    # quotient of d, stays inside [0, 1]: the coherent total is that value,
    # the chain that prepares f and blocks on the negation of e1 + e2.
    eps, amp = 2e-10, 1.1e-6
    e1 = np.zeros((3, 3))
    e1[0, 0], e1[1, 2], e1[2, 1] = 1.0, eps, eps
    v = np.array([amp, amp, 1.0]) / math.sqrt(1.0 + 2.0 * amp * amp)
    u = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    e1, e2, f, d = (validate_event(m) for m in (e1, np.diag([0.0, 1.0, 0.0]), np.outer(v, v), np.outer(u, u)))
    block = Apparatus(validate_event(e1.matrix + e2.matrix), "block_on_negation")
    luders = evaluate_chain(Chain(f, (block,), d)).value
    assert abs(luders - 0.99999999174) < 1e-11
    report = objective_split(f, d, e1, e2)
    assert (report.part1 + report.part2 + report.interference) / report.normalizer > 1.0 + 1e-4
    assert abs(report.total - luders) <= 1e-12
    assert incoherent_combine(f, d, e1, e2).total < 1.0
    [point] = double_slit_scan(f, e1, e2, [d])
    assert point.defined and abs(point.coherent - luders) <= 1e-12
