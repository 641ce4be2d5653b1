import collections
import dataclasses
import math
import os

import numpy as np
import pytest

from qcondprob import (
    DEFAULT_TOL,
    Apparatus,
    Chain,
    QcpError,
    ScanPoint,
    State,
    UndefinedProbabilityError,
    ValidationError,
    cond_prob,
    double_slit_scan,
    evaluate_chain,
    identity_event,
    incoherent_combine,
    objective_seq,
    objective_split,
    split_cond_prob,
    state_from_outcome,
    validate_event,
)
from qcondprob import cli
from qcondprob.fixtures import double_slit_model
from qcondprob.interference import _decompose
from qcondprob.io import load_slit_model

from helpers import (
    orthogonal_split,
    random_full_rank_state,
    random_projection,
    random_rank1,
    random_unitary,
    reference_decompose,
    with_anti_hermitian_defect,
)

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def test_split_identity_holds_for_random_states():
    rng = np.random.default_rng(401)
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        e1, e2 = orthogonal_split(rng, dim)
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        mu = random_full_rank_state(rng, dim)
        report = split_cond_prob(mu, d, e1, e2)
        lhs = report.total * report.normalizer
        rhs = report.part1 + report.part2 + report.interference
        assert abs(lhs - rhs) < 1e-12
        assert report.coherent
        assert abs(2.0 * report.lambda_complex.real - report.interference) == 0.0


def test_split_validation_and_undefined():
    e1 = validate_event(np.diag([1.0, 0.0, 0.0]))
    e2 = validate_event(np.diag([0.0, 1.0, 0.0]))
    overlapping = validate_event(np.diag([1.0, 1.0, 0.0]))
    d = validate_event(np.diag([0.0, 0.0, 1.0]))
    mu = State(np.eye(3) / 3.0)
    with pytest.raises(ValidationError):
        split_cond_prob(mu, d, e1, overlapping)
    with pytest.raises(ValidationError):
        split_cond_prob(mu, d.matrix, e1, e2)
    with pytest.raises(ValidationError, match="branch condition must be an Event, got ndarray"):
        split_cond_prob(mu, d, e1, e2.matrix)
    with pytest.raises(ValidationError, match="dimension mismatch: branch condition has dimension 2, expected 3"):
        split_cond_prob(mu, d, e1, validate_event(np.diag([0.0, 1.0])))
    concentrated = State(np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(UndefinedProbabilityError):
        split_cond_prob(concentrated, d, e2, validate_event(np.diag([0.0, 0.0, 1.0])))
    f = validate_event(np.diag([1.0, 0.0, 0.0]))
    for route in (objective_split, incoherent_combine):
        with pytest.raises(ValidationError, match="preparation must be an Event"):
            route(f.matrix, d, e1, e2)


def test_commuting_family_has_exactly_zero_interference():
    rng = np.random.default_rng(409)
    for _ in range(40):
        dim = int(rng.integers(4, 8))
        perm = rng.permutation(dim)
        labels = np.zeros(dim, dtype=int)
        labels[perm[0]] = 1
        labels[perm[1]] = 2
        for i in perm[2:]:
            labels[i] = int(rng.integers(0, 3))
        e1 = validate_event(np.diag((labels == 1).astype(float)))
        e2 = validate_event(np.diag((labels == 2).astype(float)))
        d = validate_event(np.diag((rng.random(dim) < 0.5).astype(float)))
        weights = rng.random(dim) + 0.1
        mu = State(np.diag(weights / weights.sum()))
        report = split_cond_prob(mu, d, e1, e2)
        assert report.interference == 0.0
        assert report.lambda_complex == 0.0
        assert abs(report.total * report.normalizer - (report.part1 + report.part2)) < 1e-15


def test_objective_split_total_matches_sequential_route():
    rng = np.random.default_rng(419)
    checked = 0
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        e1, e2 = orthogonal_split(rng, dim)
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        f = random_rank1(rng, dim)
        combined = validate_event(e1.matrix + e2.matrix)
        try:
            report = objective_split(f, d, e1, e2)
        except UndefinedProbabilityError:
            continue
        seq = objective_seq(d, [f, combined])
        assert seq.objective
        assert abs(report.total - seq.value) < 1e-10
        checked += 1
    assert checked >= 40


def test_objective_split_agrees_with_prepared_state_route():
    rng = np.random.default_rng(421)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        e1, e2 = orthogonal_split(rng, dim)
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        f = random_rank1(rng, dim)
        try:
            objective = objective_split(f, d, e1, e2)
        except UndefinedProbabilityError:
            continue
        stateful = split_cond_prob(state_from_outcome(f), d, e1, e2)
        assert abs(objective.total - stateful.total) < 1e-10
        assert abs(objective.part1 - stateful.part1) < 1e-10
        assert abs(objective.part2 - stateful.part2) < 1e-10
        assert abs(objective.normalizer - stateful.normalizer) < 1e-10
        assert abs(objective.lambda_complex - stateful.lambda_complex) < 1e-10


def _coupled_split(rng, dim):
    """A split whose first part couples a direction ``a`` of the second's range to a direction ``k`` of neither.

    ``e1 = P1 + eps (|a><k| + |k><a|)`` with eps in [3e-11, 2e-10] validates,
    and ``|e1 @ e2|_F = eps`` passes the exclusion rule.  The preparation's
    ray ``k + amp (q0 + a)``, q0 in range(P1) and amp log-uniform in
    [1e-6, 1e-4], leaves both branches weights of about amp^2, down to the
    probability floor, where the split's overlap is largest against them.
    """
    q = random_unitary(rng, dim)
    r1 = int(rng.integers(1, dim - 1))
    r2 = int(rng.integers(1, dim - r1))
    a, k = q[:, r1], q[:, r1 + r2]
    eps = float(rng.uniform(3e-11, 2e-10))
    amp = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e-4))))
    p1 = q[:, :r1] @ q[:, :r1].conj().T
    e1 = validate_event(p1 + eps * (np.outer(a, k.conj()) + np.outer(k, a.conj())))
    e2 = validate_event(q[:, r1:r1 + r2] @ q[:, r1:r1 + r2].conj().T)
    v = k + amp * (q[:, 0] + a)
    v /= np.linalg.norm(v)
    return validate_event(np.outer(v, v.conj())), e1, e2


def test_coherent_totals_are_the_block_chain_value_of_the_sum():
    # With no record the two parts act as the single condition e1 + e2: the
    # coherent total of objective_split and of the scan is the value of the
    # chain that prepares f and blocks on the negation of e1 + e2, and so
    # are the density route's values at the state f, which read the ray of
    # f as the state's one-column factor, and away from the floor the
    # state-independent value of [f, e1 + e2].  The incoherent total is not compared
    # with a block-then-detector chain: that is a different instrument.
    # Inputs validated with an anti-Hermitian defect inside their budget
    # are stored exactly self-adjoint, so every route applies the same
    # Lüders step and they agree to round-off there.
    rng = np.random.default_rng(11)
    seen = collections.Counter()
    for trial in range(500):
        dim = int(rng.integers(3, 7))
        kind = "coupled" if trial < 300 else "exact" if trial < 400 else "defect"
        if kind == "coupled":
            f, e1, e2 = _coupled_split(rng, dim)
        else:
            f, (e1, e2) = random_rank1(rng, dim), orthogonal_split(rng, dim)
        d = random_rank1(rng, dim)
        if kind == "defect":
            f, e1, e2, d = (with_anti_hermitian_defect(rng, x) for x in (f, e1, e2, d))
        try:
            report = objective_split(f, d, e1, e2)
        except UndefinedProbabilityError:
            seen["undefined"] += 1
            continue
        e = validate_event(e1.matrix + e2.matrix)
        if kind == "defect":
            e = with_anti_hermitian_defect(rng, e)
        luders = evaluate_chain(Chain(f, (Apparatus(e, "block_on_negation"),), d)).value
        [point] = double_slit_scan(f, e1, e2, [d])
        mu = state_from_outcome(f)
        close = 1e-13 if kind == "defect" else 1e-9
        assert abs(report.total - luders) <= close
        assert point.defined and abs(point.coherent - luders) <= close
        assert abs(cond_prob(mu, d, e) - luders) <= close
        assert abs(split_cond_prob(mu, d, e1, e2).total - luders) <= close
        if kind != "coupled":  # near the probability floor the fit refuses a numerically zero reference
            assert abs(objective_seq(d, [f, e]).value - luders) <= close
        seen[kind] += 1
    assert seen["coupled"] == 300 and seen["exact"] >= 80 and seen["defect"] >= 80, seen


def test_incoherent_combination_drops_the_cross_term():
    rng = np.random.default_rng(431)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        e1, e2 = orthogonal_split(rng, dim)
        d = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        f = random_rank1(rng, dim)
        try:
            coherent = objective_split(f, d, e1, e2)
            incoherent = incoherent_combine(f, d, e1, e2)
        except UndefinedProbabilityError:
            continue
        assert not incoherent.coherent
        assert incoherent.interference == 0.0
        assert incoherent.lambda_complex is None
        assert incoherent.part1 == coherent.part1
        assert incoherent.part2 == coherent.part2
        assert incoherent.normalizer == coherent.normalizer
        gap = coherent.total - incoherent.total
        assert abs(gap - coherent.interference / coherent.normalizer) < 1e-12


def test_branch_preparation_must_be_minimal():
    e1 = validate_event(np.diag([1.0, 0.0, 0.0, 0.0]))
    e2 = validate_event(np.diag([0.0, 1.0, 0.0, 0.0]))
    d = validate_event(np.diag([0.0, 0.0, 1.0, 0.0]))
    wide = validate_event(np.diag([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        objective_split(wide, d, e1, e2)
    with pytest.raises(ValidationError):
        incoherent_combine(wide, d, e1, e2)


def test_branch_with_no_weight_is_undefined():
    f = validate_event(np.diag([1.0, 0.0, 0.0]))
    e1 = validate_event(np.diag([0.0, 1.0, 0.0]))
    e2 = validate_event(np.diag([0.0, 0.0, 1.0]))
    d = validate_event(np.diag([0.0, 1.0, 1.0]))
    with pytest.raises(UndefinedProbabilityError):
        objective_split(f, d, e1, e2)
    with pytest.raises(UndefinedProbabilityError):
        incoherent_combine(f, d, e1, e2)


def test_mode_bank_scan_reproduces_both_profiles():
    model = double_slit_model()
    points = double_slit_scan(model.preparation, model.slit1, model.slit2, model.detectors)
    assert [p.index for p in points] == list(range(8))
    assert all(p.defined for p in points)
    coherent = [p.coherent for p in points]
    incoherent = [p.incoherent for p in points]
    expected_coherent = [math.cos(math.pi * k / 8.0) ** 2 * (1 + (-1) ** k) / 4.0 for k in range(8)]
    expected_incoherent = [math.cos(math.pi * k / 8.0) ** 2 / 4.0 for k in range(8)]
    for got, want in zip(coherent, expected_coherent):
        assert abs(got - want) < 1e-12
    for got, want in zip(incoherent, expected_incoherent):
        assert abs(got - want) < 1e-12
    assert abs(sum(coherent) - 1.0) < 1e-12
    assert abs(sum(incoherent) - 1.0) < 1e-12
    # The cross term changes sign between the first two modes.
    r0 = objective_split(model.preparation, model.detectors[0], model.slit1, model.slit2)
    r1 = objective_split(model.preparation, model.detectors[1], model.slit1, model.slit2)
    assert abs(r0.interference - 0.125) < 1e-12
    assert abs(r1.interference + math.cos(math.pi / 8.0) ** 2 / 8.0) < 1e-12


def test_scan_flags_undefined_detectors():
    model = double_slit_model()
    # A source aimed past both slits gives every branch zero weight.
    blocked_source = validate_event(np.diag([1.0] + [0.0] * 7))
    points = double_slit_scan(blocked_source, model.slit1, model.slit2, model.detectors)
    assert len(points) == 8
    for p in points:
        assert not p.defined
        assert math.isnan(p.coherent) and math.isnan(p.incoherent)
    with pytest.raises(ValidationError):
        double_slit_scan(model.preparation, model.slit1, model.slit2, [])


def test_scan_to_csv_layout(capsys):
    # The command line's table form of a scan: CSV with a header from ScanPoint's fields.
    points = [
        ScanPoint(index=0, coherent=0.5, incoherent=0.25, defined=True),
        ScanPoint(index=1, coherent=float("nan"), incoherent=float("nan"), defined=False),
    ]
    cli._emit("table", [dataclasses.asdict(p) for p in points])
    assert capsys.readouterr().out == "index,coherent,incoherent,defined\n0,0.5,0.25,true\n1,nan,nan,false\n"


def _assert_scan_matches_per_detector_routes(f, e1, e2, detectors):
    points = double_slit_scan(f, e1, e2, detectors)
    assert [p.index for p in points] == list(range(len(detectors)))
    for p, det in zip(points, detectors):
        assert p.defined
        assert abs(p.coherent - objective_split(f, det, e1, e2).total) <= 1e-12
        assert abs(p.incoherent - incoherent_combine(f, det, e1, e2).total) <= 1e-12


def test_scan_rows_match_split_and_incoherent_routes():
    model = load_slit_model(os.path.join(FIXTURE_DIR, "double_slit_dim8.json"))
    _assert_scan_matches_per_detector_routes(model.preparation, model.slit1, model.slit2, model.detectors)
    rng = np.random.default_rng(409)
    for dim in (4, 16):
        for _ in range(5):
            e1, e2 = orthogonal_split(rng, dim)
            detectors = [random_projection(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(6)]
            _assert_scan_matches_per_detector_routes(random_rank1(rng, dim), e1, e2, detectors)


def test_scan_with_one_vanishing_branch_is_undefined_everywhere():
    # The source lies inside the first slit, so the second branch has no weight.
    f = validate_event(np.diag([1.0, 0.0, 0.0, 0.0]))
    e1 = validate_event(np.diag([1.0, 1.0, 0.0, 0.0]))
    e2 = validate_event(np.diag([0.0, 0.0, 1.0, 0.0]))
    detectors = [random_projection(np.random.default_rng(k), 4, 2) for k in range(5)]
    points = double_slit_scan(f, e1, e2, detectors)
    assert len(points) == len(detectors)
    for p, det in zip(points, detectors):
        assert not p.defined
        assert math.isnan(p.coherent) and math.isnan(p.incoherent)
        with pytest.raises(UndefinedProbabilityError):
            objective_split(f, det, e1, e2)
        with pytest.raises(UndefinedProbabilityError):
            incoherent_combine(f, det, e1, e2)


def _random_rank_deficient_state(rng, dim, rank):
    b = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = b @ b.conj().T
    return State(rho / np.real(np.trace(rho)))


def _trace_oracle(rho, d, e1, e2):
    """The decomposition from plain dense products, term by term."""
    e = e1 + e2
    normalizer = np.trace(rho @ e).real
    part1 = np.trace(rho @ e1 @ d @ e1).real
    part2 = np.trace(rho @ e2 @ d @ e2).real
    cross = complex(np.trace(rho @ e1 @ d @ e2))
    return {
        "part1": part1,
        "part2": part2,
        "cross": cross,
        "interference": 2.0 * cross.real,
        "normalizer": normalizer,
        "total": np.trace(rho @ e @ d @ e).real / normalizer,
        "incoherent": (part1 + part2) / normalizer,
    }


def _assert_report_matches(report, want, total_key, bound=1e-12):
    assert abs(report.part1 - want["part1"]) <= bound
    assert abs(report.part2 - want["part2"]) <= bound
    assert abs(report.normalizer - want["normalizer"]) <= bound
    assert abs(report.total - want[total_key]) <= bound
    if report.coherent:
        assert abs(report.interference - want["interference"]) <= bound
        assert abs(report.lambda_complex - want["cross"]) <= bound
    else:
        assert report.interference == 0.0 and report.lambda_complex is None


def test_all_entry_points_match_dense_trace_oracle():
    rng = np.random.default_rng(433)
    rounded = 0
    for dim in (2, 3, 4, 8, 16):
        for trial in range(4):
            e1, e2 = orthogonal_split(rng, dim)
            f = random_rank1(rng, dim)
            detectors = [random_projection(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(3)]
            states = [random_full_rank_state(rng, dim), _random_rank_deficient_state(rng, dim, 1 + trial % (dim - 1))]
            for mu in states:
                for d in detectors:
                    want = _trace_oracle(mu.rho, d.matrix, e1.matrix, e2.matrix)
                    report = split_cond_prob(mu, d, e1, e2)
                    _assert_report_matches(report, want, "total")
                    assert abs((report.part1 + report.part2) / report.normalizer - want["incoherent"]) <= 1e-12
            # A minimal preparation runs on its ray; the oracle reads the
            # projector itself, also when it is written to 10 decimals and
            # so a rank-1 projection only within tolerance.
            preparations = [(f, 1e-12)]
            try:
                preparations.append((validate_event(np.round(f.matrix, 10)), 1e-9))
                rounded += 1
            except ValidationError:
                pass
            for prep, bound in preparations:
                for d in detectors:
                    want = _trace_oracle(prep.matrix, d.matrix, e1.matrix, e2.matrix)
                    _assert_report_matches(objective_split(prep, d, e1, e2), want, "total", bound)
                    _assert_report_matches(incoherent_combine(prep, d, e1, e2), want, "incoherent", bound)
                for p, d in zip(double_slit_scan(prep, e1, e2, detectors), detectors):
                    want = _trace_oracle(prep.matrix, d.matrix, e1.matrix, e2.matrix)
                    assert p.defined
                    assert abs(p.coherent - want["total"]) <= bound
                    assert abs(p.incoherent - want["incoherent"]) <= bound
            # A source inside the first branch leaves the second with no weight:
            # every entry point is undefined, and so is every row of a scan.
            # Written to 10 decimals, the source is still undefined for the
            # entry points that run on its ray: the rounding leaves the second
            # branch a weight quadratic in the rounding error, far below the
            # floor (the rounded matrix itself, read as a state, has a weight
            # linear in it, about 1e-11).
            v = e1.matrix @ (rng.normal(size=dim) + 1j * rng.normal(size=dim))
            inside = validate_event(np.outer(v, v.conj()) / np.vdot(v, v).real)
            for d in detectors:
                with pytest.raises(UndefinedProbabilityError):
                    split_cond_prob(state_from_outcome(inside), d, e1, e2)
            sources = [inside]
            try:
                sources.append(validate_event(np.round(inside.matrix, 10)))
            except ValidationError:
                pass
            for source in sources:
                for d in detectors:
                    with pytest.raises(UndefinedProbabilityError):
                        objective_split(source, d, e1, e2)
                    with pytest.raises(UndefinedProbabilityError):
                        incoherent_combine(source, d, e1, e2)
                points = double_slit_scan(source, e1, e2, detectors)
                assert [p.index for p in points] == list(range(len(detectors)))
                assert all(not p.defined and math.isnan(p.coherent) and math.isnan(p.incoherent) for p in points)
    assert rounded >= 12


def test_invalid_outcome_is_reported_before_vanishing_weights():
    # The source lies inside the first slit, so the second branch has no weight.
    f = validate_event(np.diag([1.0, 0.0, 0.0, 0.0]))
    e1 = validate_event(np.diag([1.0, 1.0, 0.0, 0.0]))
    e2 = validate_event(np.diag([0.0, 0.0, 1.0, 0.0]))
    good = validate_event(np.diag([0.0, 1.0, 1.0, 0.0]))
    wrong_dim = validate_event(np.diag([1.0, 0.0, 0.0]))
    mu = State(np.diag([1.0, 0.0, 0.0, 0.0]))
    for bad in (wrong_dim, good.matrix):
        with pytest.raises(ValidationError):
            double_slit_scan(f, e1, e2, [good, bad])
        with pytest.raises(ValidationError):
            objective_split(f, bad, e1, e2)
        with pytest.raises(ValidationError):
            incoherent_combine(f, bad, e1, e2)
        with pytest.raises(ValidationError):
            split_cond_prob(mu, bad, e1, e2)
    with pytest.raises(UndefinedProbabilityError):
        split_cond_prob(mu, good, e1, e2)
    with pytest.raises(ValidationError):
        double_slit_scan(validate_event(np.diag([1.0, 1.0, 0.0, 0.0])), e1, e2, [good])


def _kernel_result(kernel, rho, e1, e2, outcomes):
    try:
        return kernel(rho, e1, e2, outcomes, DEFAULT_TOL)
    except QcpError as exc:
        return type(exc)


def test_kernel_matches_the_two_formula_reference():
    """``vdot(b_i, d @ b_j)`` on a factor against the compressions-and-traces kernel it replaced."""
    rng = np.random.default_rng(1515)
    seen = collections.Counter()
    for _ in range(600):
        dim = int(rng.integers(2, 17))
        u = random_unitary(rng, dim)
        r1 = int(rng.integers(1, dim))
        r2 = int(rng.integers(1, dim - r1 + 1))
        ranges = [u[:, :r1], u[:, r1:r1 + r2]]
        branches = []
        for cols in ranges:
            m = cols @ cols.conj().T
            if rng.random() < 1 / 3:
                # Written to 10 decimals, as a JSON input carries it.
                try:
                    branches.append(validate_event(np.round(m, 10)))
                    seen["rounded"] += 1
                    continue
                except ValidationError:
                    pass
            branches.append(validate_event(m))
        if rng.random() < 0.05:
            branches[1] = random_projection(rng, dim, r2)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        vanishing = rng.random() < 0.2
        if vanishing:
            # The input lives outside one branch, so that branch has no weight.
            cols = ranges[int(rng.integers(2))]
            g -= cols @ (cols.conj().T @ g)
        if rng.random() < 0.5:
            rho = factor = g[:, 0] / np.linalg.norm(g[:, 0])
        else:
            g = g[:, :int(rng.integers(1, dim + 1))]
            mu = State(g @ g.conj().T / np.linalg.norm(g) ** 2)
            # The kernel reads the state's factor, the reference its density matrix.
            rho, factor = mu.rho, mu._factor
        # The identity outcome's parts are the branch weights.
        outcomes = [identity_event(dim)]
        outcomes += [random_projection(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(int(rng.integers(1, 4)))]
        if rng.random() < 0.15:
            k = int(rng.integers(len(outcomes)))
            outcomes[k] = outcomes[k].matrix if rng.random() < 0.5 else identity_event(dim + 1)
            # Outcomes are checked before the weights.
            seen["invalid outcome, vanishing branch"] += vanishing
        got = _kernel_result(_decompose, factor, *branches, outcomes)
        want = _kernel_result(reference_decompose, rho, *branches, outcomes)
        if isinstance(want, type):
            assert got is want
            seen[want.__name__] += 1
            continue
        assert not isinstance(got, type), got
        (normalizer, terms), (ref_normalizer, ref_terms) = got, want
        # The normalizer is now the sum of the branch weights, which are
        # quadratic in the parts; the reference reads trace(rho @ e), linear
        # in them, and clamps it into [0, 1].  Both agree for exact
        # projections; for parts written to 10 decimals they differ by at
        # most the parts' idempotence defects.
        defect = sum(np.linalg.norm(e.matrix.conj().T @ e.matrix - e.matrix, 2) for e in branches)
        assert abs(min(normalizer, 1.0) - ref_normalizer) <= 1e-12 + defect
        assert len(terms) == len(ref_terms) == len(outcomes)
        for term, ref_term in zip(terms, ref_terms):
            assert all(abs(x - y) <= 1e-12 for x, y in zip(term, ref_term))
        seen["defined ray" if rho.ndim == 1 else "defined density matrix"] += 1
    assert seen["rounded"] >= 200 and seen["invalid outcome, vanishing branch"] >= 10
    assert seen["UndefinedProbabilityError"] >= 50 and seen["ValidationError"] >= 100
    assert seen["defined ray"] >= 120 and seen["defined density matrix"] >= 120
