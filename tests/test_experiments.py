import time

import numpy as np
import pytest

from qcondprob import (
    DEFAULT_TOL,
    Apparatus,
    Chain,
    Event,
    InvariantError,
    Tolerances,
    UndefinedProbabilityError,
    ValidationError,
    complement,
    conditioned_on_record,
    evaluate_chain,
    is_orthogonal,
    sample_chain,
    spin_projector,
    spin_vector,
    transition_prob,
    validate_event,
)
from qcondprob import experiments
from qcondprob.experiments import (
    MODE_BLOCK,
    MODE_PASS,
    RULE_BLOCK,
    RULE_COHERENT_JOIN,
    RULE_INCOHERENT_SPLIT,
    TraceStep,
    _walk,
)
from qcondprob.fixtures import blocked_chain, detector_chain, rejoined_chain
from qcondprob.tolerances import clamp_probability, probability_slack

from helpers import (
    chain_forward_pass,
    random_chain,
    random_projection,
    random_rank1,
    reference_sample_counts,
    reference_trace,
    within_sigmas,
)


def test_spin_projector_conventions():
    zp = spin_projector("z", "+")
    assert np.allclose(zp.matrix, np.diag([1.0, 0.0]))
    zm = spin_projector("z", "-")
    assert np.allclose(zm.matrix, np.diag([0.0, 1.0]))
    xp = spin_projector("x", "+")
    assert np.allclose(xp.matrix, np.array([[0.5, 0.5], [0.5, 0.5]]))
    yp = spin_projector("y", "+")
    assert np.allclose(yp.matrix, np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    for axis in ("x", "y", "z"):
        plus = spin_projector(axis, "+")
        minus = spin_projector(axis, "-")
        assert plus.is_minimal() and minus.is_minimal()
        assert is_orthogonal(plus, minus)
        assert np.allclose(plus.matrix + minus.matrix, np.eye(2))
        # The named vector spans the same ray as the projector.
        assert np.allclose(spin_vector(axis, "+").projector().matrix, plus.matrix)
    assert spin_projector("Z", "+").rank == 1
    with pytest.raises(ValidationError):
        spin_projector("w", "+")
    with pytest.raises(ValidationError):
        spin_projector("x", "up")
    with pytest.raises(ValidationError):
        spin_vector("q", "-")


def test_spin_vectors_are_the_rays_of_the_spin_projectors():
    h = 1 / np.sqrt(2)
    table = {
        ("x", "+"): (h, h), ("x", "-"): (h, -h),
        ("y", "+"): (h, 1j * h), ("y", "-"): (h, -1j * h),
        ("z", "+"): (1, 0), ("z", "-"): (0, 1),
    }
    for (axis, sign), amplitudes in table.items():
        assert np.array_equal(spin_vector(axis, sign).amplitudes, np.array(amplitudes, dtype=np.complex128))
    assert np.array_equal(spin_vector("Y", "-").amplitudes, spin_vector("y", "-").amplitudes)
    for axis, sign in (("q", "-"), ("x", "up")):
        with pytest.raises(ValidationError):
            spin_vector(axis, sign)


def test_spin_transition_probabilities():
    assert abs(transition_prob(spin_vector("z", "+"), spin_vector("x", "+")) - 0.5) < 1e-15
    assert abs(transition_prob(spin_vector("x", "+"), spin_vector("y", "-")) - 0.5) < 1e-15
    assert transition_prob(spin_vector("y", "+"), spin_vector("y", "+")) == 1.0


def test_apparatus_validation():
    xp = spin_projector("x", "+")
    Apparatus(xp)
    Apparatus(xp, mode=MODE_BLOCK)
    Apparatus(xp, mode=MODE_PASS, detector="negation")
    with pytest.raises(ValidationError):
        Apparatus(xp.matrix)
    with pytest.raises(ValidationError):
        Apparatus(xp, mode="absorb_everything")
    with pytest.raises(ValidationError):
        Apparatus(xp, detector="sideways")
    with pytest.raises(ValidationError):
        Apparatus(xp, mode=MODE_BLOCK, detector="positive")
    # A string choice is a str among the options; an array is never compared elementwise.
    with pytest.raises(ValidationError, match="unknown apparatus mode array"):
        Apparatus(xp, mode=np.array([MODE_PASS, MODE_BLOCK]))
    with pytest.raises(ValidationError, match="unknown detector outlet array"):
        Apparatus(xp, detector=np.array(["positive", "negation"]))
    with pytest.raises(ValidationError, match="unknown spin sign array"):
        spin_projector("z", np.array(["+", "-"]))
    with pytest.raises(ValidationError, match="unknown record value array"):
        conditioned_on_record(detector_chain(), np.array(["positive", "negation"]))


def test_chain_validation():
    zp = spin_projector("z", "+")
    xp = spin_projector("x", "+")
    wide = complement(zp)
    chain = Chain(zp, [Apparatus(xp)], zp)
    assert isinstance(chain.apparatuses, tuple)
    assert chain.dim == 2
    import qcondprob

    with pytest.raises(ValidationError):
        Chain(qcondprob.identity_event(2), [], zp)
    with pytest.raises(ValidationError, match="preparation must be an Event"):
        Chain(zp.matrix, [], zp)
    with pytest.raises(ValidationError):
        Chain(zp, [xp], zp)
    big = qcondprob.validate_event(np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        Chain(zp, [Apparatus(big)], zp)
    with pytest.raises(ValidationError):
        Chain(zp, [], big)
    with pytest.raises(ValidationError, match="chain apparatuses must be a sequence, got NoneType"):
        Chain(zp, None, zp)
    assert wide.rank == 1  # complement of a minimal qubit event stays minimal


def test_rejoined_apparatus_cannot_matter():
    evaluation = evaluate_chain(rejoined_chain())
    assert abs(evaluation.value - 1.0) <= 1e-12
    assert len(evaluation.steps) == 1
    step = evaluation.steps[0]
    assert step.rule == RULE_COHERENT_JOIN
    assert step.apparatus_index == 0
    assert "certain" in step.note


def test_blocking_apparatus_conditions():
    evaluation = evaluate_chain(blocked_chain())
    assert abs(evaluation.value - 0.5) <= 1e-12
    assert [s.rule for s in evaluation.steps] == [RULE_BLOCK]


def test_detector_apparatus_splits_incoherently():
    evaluation = evaluate_chain(detector_chain())
    assert abs(evaluation.value - 0.5) <= 1e-12
    assert [s.rule for s in evaluation.steps] == [RULE_INCOHERENT_SPLIT, RULE_INCOHERENT_SPLIT]
    branches = {s.branch: s.weight for s in evaluation.steps}
    assert abs(branches["positive"] - 0.5) < 1e-12
    assert abs(branches["negation"] - 0.5) < 1e-12
    assert any("which-way record" in s.note for s in evaluation.steps)


def test_rejoined_equals_deleted_apparatus():
    rng = np.random.default_rng(443)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        prep = random_rank1(rng, dim)
        tested = random_projection(rng, dim, int(rng.integers(1, dim)))
        final = random_projection(rng, dim, int(rng.integers(1, dim + 1)))
        with_app = Chain(prep, [Apparatus(tested)], final)
        without = Chain(prep, [], final)
        assert abs(evaluate_chain(with_app).value - evaluate_chain(without).value) < 1e-12


def test_two_blocking_apparatuses_compose():
    zp = spin_projector("z", "+")
    chain = Chain(
        zp,
        [Apparatus(spin_projector("x", "+"), mode=MODE_BLOCK),
         Apparatus(spin_projector("y", "+"), mode=MODE_BLOCK)],
        zp,
    )
    assert abs(evaluate_chain(chain).value - 0.5) < 1e-12


def test_unreachable_detector_branch_is_noted():
    zp = spin_projector("z", "+")
    chain = Chain(zp, [Apparatus(zp, detector="positive")], zp)
    evaluation = evaluate_chain(chain)
    assert abs(evaluation.value - 1.0) <= 1e-12
    dead = [s for s in evaluation.steps if s.weight == 0.0]
    assert len(dead) == 1
    assert dead[0].branch == "negation"
    assert "unreachable" in dead[0].note


def test_blocking_an_impossible_event_leaves_nothing():
    zp = spin_projector("z", "+")
    zm = spin_projector("z", "-")
    chain = Chain(zp, [Apparatus(zm, mode=MODE_BLOCK)], zp)
    with pytest.raises(UndefinedProbabilityError):
        evaluate_chain(chain)


def test_conditioned_on_record_values():
    chain = detector_chain()
    assert abs(conditioned_on_record(chain, "positive") - 0.5) < 1e-12
    assert abs(conditioned_on_record(chain, "negation") - 0.5) < 1e-12
    # Recording the outlet decides a later test of the same event.
    zp = spin_projector("z", "+")
    xp = spin_projector("x", "+")
    deciding = Chain(zp, [Apparatus(xp, detector="positive")], xp)
    assert abs(conditioned_on_record(deciding, "positive") - 1.0) < 1e-12
    assert abs(conditioned_on_record(deciding, "negation") - 0.0) < 1e-12
    with pytest.raises(ValidationError):
        conditioned_on_record(chain, "both")
    with pytest.raises(ValidationError):
        conditioned_on_record(blocked_chain(), "positive")
    two = Chain(zp, [Apparatus(xp, detector="positive"), Apparatus(xp, detector="positive")], zp)
    with pytest.raises(ValidationError):
        conditioned_on_record(two, "positive")


def test_record_conditioning_skips_other_apparatus_kinds():
    zp = spin_projector("z", "+")
    xp = spin_projector("x", "+")
    yp = spin_projector("y", "+")
    chain = Chain(
        zp,
        [Apparatus(yp),  # rejoined, must not affect anything
         Apparatus(xp, detector="positive"),
         Apparatus(yp, mode=MODE_BLOCK)],
        zp,
    )
    plain = Chain(zp, [Apparatus(xp, detector="positive"), Apparatus(yp, mode=MODE_BLOCK)], zp)
    for record in ("positive", "negation"):
        assert abs(conditioned_on_record(chain, record) - conditioned_on_record(plain, record)) < 1e-12


def test_sample_chain_is_deterministic():
    chain = detector_chain()
    a = sample_chain(chain, trials=20000, seed=42)
    b = sample_chain(chain, trials=20000, seed=42)
    assert a == b
    c = sample_chain(chain, trials=20000, seed=43)
    assert c.outcome_counts != a.outcome_counts


def test_sample_chain_counts_and_frequencies():
    report = sample_chain(detector_chain(), trials=20000, seed=42)
    assert sum(report.outcome_counts.values()) == 20000
    assert "blocked" not in report.outcome_counts
    assert abs(report.frequencies["positive"] + report.frequencies["negation"] - 1.0) < 1e-15
    assert report.analytic == {"positive": 0.5, "negation": 0.5}
    assert report.max_abs_deviation < 0.02
    assert sum(report.detector_counts.values()) == 20000
    assert set(report.detector_counts) == {"apparatus0:positive", "apparatus0:negation"}


def test_sample_chain_blocked_trials_are_excluded():
    report = sample_chain(blocked_chain(), trials=20000, seed=42)
    assert "blocked" in report.outcome_counts
    survivors = report.outcome_counts["positive"] + report.outcome_counts["negation"]
    assert survivors + report.outcome_counts["blocked"] == 20000
    assert abs(report.frequencies["positive"] - report.outcome_counts["positive"] / survivors) < 1e-15
    assert report.max_abs_deviation < 0.02
    assert report.detector_counts == {}


def test_sample_chain_certain_outcome_is_exact():
    report = sample_chain(rejoined_chain(), trials=5000, seed=42)
    assert report.outcome_counts == {"positive": 5000, "negation": 0}
    assert report.frequencies["positive"] == 1.0


def test_sample_chain_worker_split():
    chain = detector_chain()
    split = sample_chain(chain, trials=999, seed=11, workers=4)
    again = sample_chain(chain, trials=999, seed=11, workers=4)
    assert split == again
    assert sum(split.outcome_counts.values()) == 999
    assert split.workers == 4
    lone = sample_chain(chain, trials=999, seed=11, workers=1)
    assert lone.workers == 1
    # More workers than trials still runs and still sums correctly.
    sparse = sample_chain(chain, trials=3, seed=11, workers=8)
    assert sum(sparse.outcome_counts.values()) == 3


def test_sample_chain_validation():
    chain = detector_chain()
    with pytest.raises(ValidationError):
        sample_chain(chain, trials=0, seed=1)
    with pytest.raises(ValidationError):
        sample_chain(chain, trials=2.5, seed=1)
    with pytest.raises(ValidationError):
        sample_chain(chain, trials=10, seed=1, workers=0)
    for seed in (-1, 1.5, "1"):
        with pytest.raises(ValidationError, match="seed"):
            sample_chain(chain, trials=10, seed=seed)
    assert sample_chain(chain, trials=10, seed=np.uint64(1)).seed == 1
    # Generator.binomial takes an int64 count, so a worker's share must fit in one.
    with pytest.raises(ValidationError, match="int64"):
        sample_chain(chain, trials=2**63, seed=1)
    assert sum(sample_chain(chain, trials=2**63, seed=1, workers=2).outcome_counts.values()) == 2**63


def test_sample_chain_with_nothing_surviving():
    zp = spin_projector("z", "+")
    zm = spin_projector("z", "-")
    chain = Chain(zp, [Apparatus(zm, mode=MODE_BLOCK)], zm)
    with pytest.raises(UndefinedProbabilityError):
        sample_chain(chain, trials=50, seed=3)


def test_a_detector_with_both_outlets_pruned_is_refused_everywhere():
    # At prob_floor 0.6 both x outlets from z+ (1/2 each) are pruned, so
    # nothing survives.  The sampler must neither draw nor divide by p + q
    # = 0 there: every entry point refuses instead.
    chain, tol = detector_chain(), Tolerances(prob_floor=0.6)
    for call in (
        lambda: evaluate_chain(chain, tol),
        lambda: conditioned_on_record(chain, "positive", tol),
        lambda: conditioned_on_record(chain, "negation", tol),
        lambda: sample_chain(chain, trials=1000, seed=1, workers=2, tol=tol),
    ):
        with pytest.raises(UndefinedProbabilityError):
            call()


def test_sample_chain_refuses_bools():
    chain = detector_chain()
    for kwargs in (
        {"trials": True, "seed": 1},
        {"trials": 10, "seed": True},
        {"trials": 10, "seed": False},
        {"trials": 10, "seed": 1, "workers": True},
        {"trials": np.True_, "seed": 1},
    ):
        with pytest.raises(ValidationError, match="integer"):
            sample_chain(chain, **kwargs)
    with pytest.raises(ValidationError, match="trials"):
        sample_chain(chain, True, True, workers=True)


def test_sample_chain_extra_workers_cost_nothing():
    chain = detector_chain()
    start = time.perf_counter()
    report = sample_chain(chain, trials=3, seed=11, workers=10**9)
    assert time.perf_counter() - start < 1.0
    assert report.workers == 10**9
    assert sum(report.outcome_counts.values()) == 3
    # Workers past the trial count receive no trials, so they change nothing.
    lean = sample_chain(chain, trials=3, seed=11, workers=3)
    assert (report.outcome_counts, report.detector_counts) == (lean.outcome_counts, lean.detector_counts)


def test_sample_chain_cost_does_not_grow_with_trials():
    for chain, recorded in ((detector_chain(), 10**9), (blocked_chain(), 0)):
        start = time.perf_counter()
        report = sample_chain(chain, trials=10**9, seed=5, workers=4)
        assert time.perf_counter() - start < 1.0
        assert sum(report.outcome_counts.values()) == 10**9
        assert sum(report.detector_counts.values()) == recorded
        assert report.max_abs_deviation < 1e-3


def test_sample_chain_matches_forward_pass_oracle():
    rng = np.random.default_rng(9090)
    trials = 200_000
    blocks_after_detectors = 0
    for _ in range(40):
        chain = random_chain(rng, int(rng.integers(2, 7)), int(rng.integers(1, 9)))
        survival, value, reach = chain_forward_pass(chain)
        blocks = [app.mode == MODE_BLOCK for app in chain.apparatuses]
        if reach and any(blocks[min(reach):]):
            blocks_after_detectors += 1
        try:
            report = sample_chain(chain, trials, seed=int(rng.integers(2**32)), workers=int(rng.integers(1, 5)))
        except UndefinedProbabilityError:
            assert (1.0 - survival) ** trials > 1e-9
            continue
        counts = report.outcome_counts
        survivors = counts["positive"] + counts["negation"]
        assert survivors + counts.get("blocked", 0) == trials
        assert within_sigmas(survivors, trials, survival)
        assert within_sigmas(counts["positive"], survivors, value)
        # Trials reaching each checkpoint (start, each detector, end): a
        # detector's two counts are the trials that reach it, and only a
        # blocking apparatus between two checkpoints can lose trials.
        positions = [-1, *sorted(reach), len(chain.apparatuses)]
        reached = [trials]
        for idx in sorted(reach):
            n = sum(report.detector_counts.get(f"apparatus{idx}:{b}", 0) for b in ("positive", "negation"))
            assert within_sigmas(n, trials, reach[idx])
            reached.append(n)
        reached.append(survivors)
        for k in range(len(positions) - 1):
            if any(blocks[positions[k] + 1:positions[k + 1]]):
                assert reached[k + 1] <= reached[k]
            else:
                assert reached[k + 1] == reached[k]
    assert blocks_after_detectors >= 10


def test_one_walk_samples_as_each_worker_walking_alone():
    # One walk carries every worker's trials; each worker's substream must
    # see the draws it saw walking its trials alone down a stored tree, so
    # the counts equal that reference's bit for bit.  Few trials over many
    # workers leave some workers with none at a node that others reach.
    rng = np.random.default_rng(1919)
    seen = {"compared": 0, "many_detectors_and_workers": 0}
    for _ in range(300):
        chain = random_chain(rng, int(rng.integers(2, 7)), int(rng.integers(2, 9)))
        trials = int(rng.choice([1, 5, 1000, 10**6]))
        seed, workers = int(rng.integers(2**32)), int(rng.integers(1, 6))
        try:
            report = sample_chain(chain, trials, seed, workers)
        except UndefinedProbabilityError:
            continue
        assert (report.outcome_counts, report.detector_counts) == reference_sample_counts(chain, trials, seed, workers)
        seen["compared"] += 1
        detectors = sum(app.has_detector for app in chain.apparatuses)
        seen["many_detectors_and_workers"] += detectors >= 2 and workers >= 2
    assert seen["compared"] >= 200 and seen["many_detectors_and_workers"] >= 50


def test_the_walk_builds_its_trace_only_when_asked_and_changes_nothing_else():
    # sample_chain and conditioned_on_record walk without a trace; their leaf
    # sums, counts and records must be those of the traced walk bit for bit.
    rng = np.random.default_rng(2121)
    tol = Tolerances()
    for _ in range(200):
        chain = random_chain(rng, int(rng.integers(2, 7)), int(rng.integers(1, 9)))
        seed = int(rng.integers(2**32))
        shares = [int(m) for m in rng.integers(0, 1000, size=int(rng.integers(0, 4)))]

        def walk(trace):
            rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, w)))) for w in range(len(shares))]
            return _walk(chain, tol, shares, rngs, trace=trace)

        sums, steps, counts, records = walk(False)
        traced_sums, traced_steps, traced_counts, traced_records = walk(True)
        assert (sums, counts, records) == (traced_sums, traced_counts, traced_records)
        assert steps == [] and [TraceStep(*s) for s in traced_steps] == list(evaluate_chain(chain, tol).steps)


def test_trace_step_is_an_immutable_named_tuple():
    assert TraceStep._fields == ("apparatus_index", "rule", "branch", "weight", "note")
    assert TraceStep._field_defaults == {"branch": None, "weight": None, "note": ""}
    step = TraceStep(0, RULE_BLOCK)
    assert step == (0, RULE_BLOCK, None, None, "") and isinstance(step, tuple)
    with pytest.raises(AttributeError):
        step.weight = 0.5
    assert step._replace(weight=0.5) == (0, RULE_BLOCK, None, 0.5, "") and step.weight is None
    first = evaluate_chain(detector_chain()).steps[0]
    assert type(first) is TraceStep and first._asdict() == {"apparatus_index": 0, "rule": RULE_INCOHERENT_SPLIT, "branch": "positive",
                               "weight": first.weight, "note": first.note}


def dim3_block_after_detector_chain():
    """Detector on e1, then a block on e1 + e2, from (1, 1, 1)/sqrt(3); Bayes gives 1/2 for e1."""
    u = np.ones(3) / np.sqrt(3.0)
    e1 = validate_event(np.diag([1.0, 0.0, 0.0]))
    return Chain(
        validate_event(np.outer(u, u)),
        [Apparatus(e1, detector="positive"), Apparatus(validate_event(np.diag([1.0, 1.0, 0.0])), mode=MODE_BLOCK)],
        e1,
    )


def tiny_overlap_chain(overlap):
    """From |0>, a detector on a ray r with |<0|r>|^2 = overlap, then a detector on |0>; final outcome |0>."""
    r = np.array([np.sqrt(overlap), np.sqrt(1.0 - overlap)])
    zero = validate_event(np.diag([1.0, 0.0]))
    return Chain(zero, [Apparatus(validate_event(np.outer(r, r)), detector="positive"),
                        Apparatus(zero, detector="positive")], zero)


def test_block_after_detector_weighs_each_record_by_its_survival():
    # Of the 1/3 recorded at e1 all survive the block, of the 2/3 recorded
    # elsewhere half do: 1/3 / (1/3 + 1/3) = 1/2, not the 1/3 of weighting
    # the records before the block.
    chain = dim3_block_after_detector_chain()
    evaluation = evaluate_chain(chain)
    assert abs(evaluation.value - 0.5) < 1e-12
    assert abs(sample_chain(chain, trials=100, seed=1).analytic["positive"] - 0.5) < 1e-12
    assert [(s.rule, s.branch) for s in evaluation.steps] == [
        (RULE_INCOHERENT_SPLIT, "positive"), (RULE_BLOCK, None),
        (RULE_INCOHERENT_SPLIT, "negation"), (RULE_BLOCK, None),
    ]
    assert [s.weight for s in evaluation.steps if s.branch] == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
    report = sample_chain(chain, trials=100_000, seed=42)
    survivors = report.outcome_counts["positive"] + report.outcome_counts["negation"]
    assert within_sigmas(report.outcome_counts["positive"], survivors, 0.5)


def test_a_chain_answers_alike_under_any_tolerances_in_turn():
    # A chain is compiled once, at construction, and only the slacks derived
    # from the tolerances are taken per call.  One chain object, asked under
    # the defaults, then under a floor of 0.6 that prunes both outlets of its
    # detector (every entry point refuses), then under the defaults again,
    # must answer each time as a freshly built identical chain does.
    def answers(chain, tol):
        calls = (lambda: evaluate_chain(chain, tol),
                 lambda: conditioned_on_record(chain, "positive", tol),
                 lambda: conditioned_on_record(chain, "negation", tol),
                 lambda: sample_chain(chain, trials=1000, seed=5, workers=2, tol=tol))
        out = []
        for call in calls:
            try:
                out.append(call())
            except UndefinedProbabilityError as exc:
                out.append(str(exc))
        return out

    strict = Tolerances(prob_floor=0.6)
    for chain in (detector_chain(), dim3_block_after_detector_chain()):
        for tol in (DEFAULT_TOL, strict, DEFAULT_TOL):
            got = answers(chain, tol)
            assert got == answers(Chain(chain.preparation, chain.apparatuses, chain.final_outcome), tol)
            assert all(isinstance(a, str) for a in got) == (tol is strict)


@pytest.mark.parametrize("overlap", [1e-5, 1e-6])
def test_tiny_detector_overlap_is_evaluated_not_refused(overlap):
    # The leaf recorded at r and then at |0> has absolute weight overlap**2,
    # a negligible share of the value; no leaf may refuse on its own.
    chain = tiny_overlap_chain(overlap)
    expected = overlap ** 2 + (1.0 - overlap) ** 2
    assert abs(evaluate_chain(chain).value - expected) < 1e-12
    assert abs(sample_chain(chain, trials=1000, seed=7).analytic["positive"] - expected) < 1e-12


def test_the_trace_is_the_stored_trees_read_depth_first():
    # reference_trace grows the whole branch tree before it reads a single
    # entry off it; the walk emits its entries as it goes.  Every field must
    # agree, each weight bit for bit.  Some chains get a detector on e
    # followed by a block or a detector on complement(e), which prunes an
    # outlet below each of its records.
    rng = np.random.default_rng(2323)
    chains = [tiny_overlap_chain(1e-5), tiny_overlap_chain(1e-6)]
    for n in range(360):
        dim = int(rng.integers(2, 7))
        chain = random_chain(rng, dim, int(rng.integers(1, 10)))
        if n % 3 == 1:
            apparatuses = list(chain.apparatuses)
            at = int(rng.integers(0, len(apparatuses) + 1))
            e = random_projection(rng, dim, int(rng.integers(1, dim)))
            after = Apparatus(complement(e), **({"mode": MODE_BLOCK} if n % 2 else {"detector": "positive"}))
            apparatuses[at:at] = [Apparatus(e, detector="negation"), after]
            chain = Chain(chain.preparation, apparatuses, chain.final_outcome)
        chains.append(chain)
    seen = {"compared": 0, "three_detectors": 0, "unreachable": 0}
    for chain in chains:
        try:
            steps = evaluate_chain(chain).steps
        except UndefinedProbabilityError:
            continue
        assert [(s.apparatus_index, s.rule, s.branch, s.weight, s.note) for s in steps] == reference_trace(chain)
        seen["compared"] += 1
        seen["three_detectors"] += sum(app.has_detector for app in chain.apparatuses) >= 3
        seen["unreachable"] += any(s.weight == 0.0 for s in steps)
    assert seen["compared"] >= 300 and seen["three_detectors"] >= 50 and seen["unreachable"] >= 30


def test_one_tree_matches_the_forward_pass_on_random_chains():
    # The analytic value, the sampler's analytic value and the value given a
    # record all come from one tree; each must match the density-matrix pass,
    # and each must refuse exactly where that pass finds no survivors.  Some
    # chains get a block pair that nothing survives, some a detector whose
    # positive record the next block kills.
    rng = np.random.default_rng(1212)
    seen = {"refused": 0, "record_refused": 0, "records": 0, "blocks_after_detectors": 0}

    def agrees(call, want):
        if want is None:
            with pytest.raises(UndefinedProbabilityError):
                call()
            return
        assert abs(call() - want) < 1e-10

    for n in range(240):
        dim = int(rng.integers(2, 7))
        chain = random_chain(rng, dim, int(rng.integers(1, 9)))
        apparatuses = list(chain.apparatuses)
        at = int(rng.integers(0, len(apparatuses) + 1))
        e = random_projection(rng, dim, int(rng.integers(1, dim)))
        if n % 6 == 1:
            apparatuses[at:at] = [Apparatus(e, mode=MODE_BLOCK), Apparatus(complement(e), mode=MODE_BLOCK)]
        elif n % 6 == 2:
            apparatuses = [a for a in apparatuses if not a.has_detector]
            at = min(at, len(apparatuses))
            apparatuses[at:at] = [Apparatus(e, detector="negation"), Apparatus(complement(e), mode=MODE_BLOCK)]
        chain = Chain(chain.preparation, apparatuses, chain.final_outcome)
        survival, value, reach = chain_forward_pass(chain)
        if reach and any(a.mode == MODE_BLOCK for a in apparatuses[min(reach):]):
            seen["blocks_after_detectors"] += 1
        seen["refused"] += value is None
        agrees(lambda: evaluate_chain(chain).value, value)
        # Enough trials that some survive wherever the pass finds survivors.
        agrees(lambda: sample_chain(chain, trials=10**18, seed=n).analytic["positive"], value)
        if len(reach) == 1:
            for record in ("positive", "negation"):
                _, want, _ = chain_forward_pass(chain, record=record)
                seen["records"] += 1
                seen["record_refused"] += want is None
                agrees(lambda: conditioned_on_record(chain, record), want)
    assert seen["refused"] >= 30 and seen["record_refused"] >= 30
    assert seen["records"] >= 100 and seen["blocks_after_detectors"] >= 60


def test_six_alternating_detectors_trace_126_outlets_of_weight_one_half():
    # From z+, x and z detectors alternate: every recorded branch splits evenly at the next
    # apparatus, so the trace lists 2 + 4 + ... + 64 = 126 outlet entries, depth first from
    # the all-positive path, and the final x test sees each branch at 1/2.
    apparatuses = [Apparatus(spin_projector(axis, "+"), detector="positive") for axis in "xzxzxz"]
    evaluation = evaluate_chain(Chain(spin_projector("z", "+"), apparatuses, spin_projector("x", "+")))
    outlets = [step for step in evaluation.steps if step.branch is not None]
    assert len(outlets) == 126 and [step.branch for step in outlets[:6]] == ["positive"] * 6
    assert all(abs(step.weight - 0.5) <= 1e-12 for step in outlets)
    assert abs(evaluation.value - 0.5) <= 1e-12


@pytest.mark.parametrize("blocks", [2000, 10**4])
def test_long_chains_do_not_recurse(blocks):
    # One x detector, then z blocks: each record survives the first block
    # with probability 1/2 and every later one with certainty, and the final
    # x test sees z+ on both branches.  The one walk of the tree keeps an
    # explicit stack, so no length hits Python's recursion limit.
    apparatuses = [Apparatus(spin_projector("x", "+"), detector="positive")]
    apparatuses += [Apparatus(spin_projector("z", "+"), mode=MODE_BLOCK)] * blocks
    chain = Chain(spin_projector("z", "+"), apparatuses, spin_projector("x", "+"))
    evaluation = evaluate_chain(chain)
    assert abs(evaluation.value - 0.5) < 1e-12
    assert len(evaluation.steps) == 2 * (blocks + 1)
    assert [s.branch for s in evaluation.steps if s.rule == RULE_INCOHERENT_SPLIT] == ["positive", "negation"]
    assert evaluation.steps[1].rule == RULE_BLOCK and evaluation.steps[blocks + 1].branch == "negation"
    for record in ("positive", "negation"):
        assert abs(conditioned_on_record(chain, record) - 0.5) < 1e-12
    report = sample_chain(chain, trials=1000, seed=1)
    counts = report.outcome_counts
    assert sum(counts.values()) == 1000 and within_sigmas(counts["blocked"], 1000, 0.5)
    assert sum(report.detector_counts.values()) == 1000


def scaled_ray_event(scale):
    """A structure-only ``Event`` whose matrix is ``scale`` times |0><0| in d = 2: no projection unless scale is 1."""
    return Event(np.diag([scale, 0.0]), 1)


def slightly_over_one_chain():
    """From |0>, a detector and a final outcome on (1 + eps)|0><0|, eps an eighth of the rank-1 slack."""
    over = scaled_ray_event(1.0 + probability_slack(1) / 8)
    return Chain(spin_projector("z", "+"), [Apparatus(over, detector="positive")], over)


def walk_entry_points(chain):
    """Every entry point of the one walk, both records included, on a chain with exactly one detector."""
    return (lambda: evaluate_chain(chain),
            lambda: conditioned_on_record(chain, "positive"),
            lambda: conditioned_on_record(chain, "negation"),
            lambda: sample_chain(chain, trials=1000, seed=1, workers=2))


def test_the_walk_refuses_a_ratio_beyond_its_slack():
    # From |0>, a detector on 2|0><0| reads the branch ratio |2 P u|^2 / |u|^2 = 4,
    # and a final outcome of 3|0><0| or -|0><0| the leaf ratio 3/2 or -1/2 on
    # either branch of a valid x detector: each lies beyond the rank's slack.
    zero = spin_projector("z", "+")
    detector = [Apparatus(spin_projector("x", "+"), detector="positive")]
    cases = [(Chain(zero, [Apparatus(scaled_ray_event(2.0), detector="positive")], zero), "branch probability")]
    cases += [(Chain(zero, detector, scaled_ray_event(scale)), "final-outcome probability") for scale in (3.0, -1.0)]
    for chain, what in cases:
        for call in walk_entry_points(chain):
            with pytest.raises(InvariantError, match=what):
                call()


def test_the_walk_clamps_a_ratio_within_its_slack_to_one():
    # The positive branch ratio (1 + eps)^2 and the leaf ratio 1 + eps both
    # exceed 1 within the slack, so each reads 1.0, and the negation outlet,
    # eps^2, is pruned.
    chain = slightly_over_one_chain()
    assert 1.0 < chain.final_outcome.matrix[0, 0].real < 1.0 + probability_slack(1)
    evaluation = evaluate_chain(chain)
    assert evaluation.value == 1.0 and [s.weight for s in evaluation.steps] == [1.0, 0.0]
    assert conditioned_on_record(chain, "positive") == 1.0
    report = sample_chain(chain, trials=1000, seed=1)
    assert report.outcome_counts == {"positive": 1000, "negation": 0}
    assert report.detector_counts == {"apparatus0:positive": 1000}


def test_the_walk_calls_clamp_probability_only_outside_the_unit_interval(monkeypatch):
    # A ratio inside [0, 1] is read as it is; clamp_probability would return it
    # unchanged.  Valid random chains keep every ratio inside, so the walk makes
    # no call; _value's one "chain probability" call per value is not the walk's.
    calls = []

    def counted(value, slack, what="probability"):
        calls.append(what)
        return clamp_probability(value, slack, what)

    monkeypatch.setattr(experiments, "clamp_probability", counted)
    walk = {"branch probability", "final-outcome probability"}
    rng = np.random.default_rng(3232)
    evaluated = 0
    for n in range(100):
        chain = random_chain(rng, int(rng.integers(2, 7)), int(rng.integers(1, 11)))
        calls.clear()
        try:
            evaluate_chain(chain)
            sample_chain(chain, trials=1000, seed=n, workers=2)
            evaluated += 1
        except UndefinedProbabilityError:
            pass
        if sum(app.has_detector for app in chain.apparatuses) == 1:
            for record in ("positive", "negation"):
                try:
                    conditioned_on_record(chain, record)
                except UndefinedProbabilityError:
                    pass
        assert not walk & set(calls)
    assert evaluated >= 50
    # Over 1 within the slack, the branch and the leaf each make one call.
    calls.clear()
    evaluate_chain(slightly_over_one_chain())
    assert calls == ["branch probability", "final-outcome probability", "chain probability"]
