"""Shared random generators and independent oracles for the tests.

Oracles here mostly use different algorithms than the package
(brute-force enumeration, a forward pass over unnormalised density
matrices, the state-independence fit from dense products) so agreement
is evidence, not circularity.  The one exception is
:func:`intersection_projector`, which shares the package's meet
algorithm; meet tests that need an independent check compare with a
planted meet instead.
"""

import itertools
import math

import numpy as np
from scipy.linalg import svd

from qcondprob import (
    DEFAULT_TOL,
    Apparatus,
    Chain,
    Event,
    State,
    UndefinedProbabilityError,
    ValidationError,
    clamp_probability,
    is_orthogonal,
    probability_slack,
    validate_event,
)
from qcondprob.events import _ray
from qcondprob.experiments import _NOTES, MODE_BLOCK, RULE_BLOCK, RULE_COHERENT_JOIN, RULE_INCOHERENT_SPLIT


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q @ np.diag(d / np.abs(d))


def random_projection(rng, dim, rank):
    u = random_unitary(rng, dim)
    cols = u[:, :rank]
    return validate_event(cols @ cols.conj().T)


def random_rank1(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return validate_event(np.outer(v, v.conj()))


def random_full_rank_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T + 0.05 * np.eye(dim)
    return State(rho / np.real(np.trace(rho)))


def random_state(rng, dim):
    return random_full_rank_state(rng, dim)


def cut_angle(rank, tol=DEFAULT_TOL):
    """The angle ``2 (atol + rtol (1 + sqrt(r)))`` below which the event lattice counts a direction as shared.

    At rank r the meet's cut is ``tau = sqrt(2) (atol + rtol (1 + sqrt(r)))``.
    A direction at principal angle theta has meet singular value
    ``sqrt(2) sin(theta / 2)``, adds ``sin(theta)`` to ``|e f - f|_F``
    (implication, and exclusion of the complement, at ``sqrt(2) tau``) and
    ``sqrt(2) sin(theta)`` to ``|e - f|_F`` (sameness at ``2 tau``), so all
    of them cut at ``sqrt(2) tau``, read as an angle or as its sine.
    """
    return 2.0 * (tol.atol + tol.rtol * (1.0 + np.sqrt(rank)))


# Singular values of the stacked complements at or below this count as
# zero.  The cutoff is absolute: when both events are numerically the
# identity the stack is pure round-off, and a cutoff relative to its
# largest singular value would count every direction as nonzero.  It sits
# well above the 1e-10 slack of events written to 10 decimals.
NULL_SPACE_CUTOFF = 1e-8


def intersection_projector(e: Event, f: Event) -> np.ndarray:
    """SVD-based oracle for the projection onto range(e) & range(f).

    A vector lies in both ranges exactly when both complements kill it,
    so the intersection is the null space of the stacked complements.
    ``lattice_meet`` uses the same algorithm with a cut derived from the
    tolerances, so agreement with it checks only the cut, not the
    algorithm; the planted-angle tests in ``test_events.py`` check the
    meet against the planted intersection.
    """
    eye = np.eye(e.dim)
    _, s, vh = svd(np.vstack([eye - e.matrix, eye - f.matrix]), full_matrices=False)
    basis = vh[s <= NULL_SPACE_CUTOFF].conj().T
    return basis @ basis.conj().T


def off_block_anti_hermitian(rng, p):
    """A unit-norm anti-Hermitian matrix mapping range(p) and its complement into each other.

    Adding t times it to p changes only self-adjointness to first order:
    idempotence moves by t**2 and the trace not at all.
    """
    d = p.shape[0]
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = p @ a @ (np.eye(d) - p)
    k = x - x.conj().T
    return k / np.linalg.norm(k)


def with_anti_hermitian_defect(rng, e: Event, share=0.5, tol=DEFAULT_TOL):
    """``e`` validated again after adding an off-block anti-Hermitian part at ``share`` of its self-adjointness budget."""
    p = e.matrix
    t = share * tol.budget(np.linalg.norm(p)) / 2.0  # |m - adjoint(m)|_F = 2 t
    return validate_event(p + t * off_block_anti_hermitian(rng, p), tol)


def random_subset_mask(rng, n):
    mask = rng.random(n) < 0.5
    if not mask.any():
        mask[rng.integers(n)] = True
    return mask


def orthogonal_split(rng, dim):
    """Two nonzero orthogonal events carved from a shared random frame."""
    u = random_unitary(rng, dim)
    r1 = int(rng.integers(1, dim))
    r2 = int(rng.integers(1, dim - r1 + 1))
    b1 = u[:, :r1]
    b2 = u[:, r1:r1 + r2]
    return validate_event(b1 @ b1.conj().T), validate_event(b2 @ b2.conj().T)


def random_chain(rng, dim, n_apparatuses):
    """A chain of rejoined, blocking and detector apparatuses on random events of mixed rank."""
    apparatuses = []
    for _ in range(n_apparatuses):
        event = random_projection(rng, dim, int(rng.integers(1, dim)))
        kind = rng.choice(["block", "detector", "rejoin"])
        if kind == "block":
            apparatuses.append(Apparatus(event, mode=MODE_BLOCK))
        elif kind == "detector":
            apparatuses.append(Apparatus(event, detector=str(rng.choice(["positive", "negation"]))))
        else:
            apparatuses.append(Apparatus(event))
    final = random_projection(rng, dim, int(rng.integers(1, dim)))
    return Chain(random_rank1(rng, dim), apparatuses, final)


def chain_forward_pass(chain: Chain, record=None):
    """Forward Lueders pass over unnormalised density matrices.

    A block maps rho to B rho B, a detector to P rho P + P' rho P' (or,
    when ``record`` names an outlet, to that outlet's term alone) and a
    rejoined apparatus leaves rho alone.  Returns the survival tr(rho),
    the final-outcome value tr(rho D) / tr(rho), None when the survival
    is at or below the default prob_floor, and, per detector apparatus
    index, the probability tr(rho) that a trial reaches it.
    """
    rho = chain.preparation.matrix
    eye = np.eye(chain.dim)
    reach = {}
    for idx, app in enumerate(chain.apparatuses):
        p = app.test_event.matrix
        if app.mode == MODE_BLOCK:
            rho = p @ rho @ p
        elif app.has_detector:
            reach[idx] = np.trace(rho).real
            q = eye - p
            branches = {"positive": p @ rho @ p, "negation": q @ rho @ q}
            rho = branches[record] if record is not None else branches["positive"] + branches["negation"]
    survival = np.trace(rho).real
    if survival <= DEFAULT_TOL.prob_floor:
        return survival, None, reach
    return survival, np.trace(rho @ chain.final_outcome.matrix).real / survival, reach


def _reference_tree(chain: Chain, tol=DEFAULT_TOL):
    """The Lueders branch tree of ``chain``, stored as nested dicts and grown by recursion, so keep chains short.

    Every node holds its ``kind`` ("rejoin", "block", "detector" or
    "final") and, but for the leaf, the apparatus ``index``.  A block or
    detector holds its outlets' probabilities given the path, ``p`` and
    ``q`` (the package's ray, clamps and pruning: 0.0 when at or below
    ``prob_floor``, and ``q`` 0.0 at a block), and a child per reachable
    outlet under "positive" and "negation"; a rejoin passes its vector on
    to its one child under "positive".  The leaf holds the final
    outcome's probability ``p``.
    """
    apparatuses = chain.apparatuses

    def weight(v, mass, rank):
        p = clamp_probability(float(np.vdot(v, v).real) / mass, probability_slack(rank, tol))
        return p if p > tol.prob_floor else 0.0

    def grow(idx, u):
        mass = float(np.vdot(u, u).real)
        if idx == len(apparatuses):
            hits = float(np.vdot(u, chain.final_outcome.matrix @ u).real)
            slack = probability_slack(chain.final_outcome.rank, tol)
            return {"kind": "final", "p": clamp_probability(hits / mass, slack)}
        app = apparatuses[idx]
        if app.mode != MODE_BLOCK and not app.has_detector:
            return {"kind": "rejoin", "index": idx, "positive": grow(idx + 1, u)}
        node = {"kind": "block" if app.mode == MODE_BLOCK else "detector", "index": idx, "q": 0.0}
        pu = app.test_event.matrix @ u
        node["p"] = weight(pu, mass, app.test_event.rank)
        if node["p"]:
            node["positive"] = grow(idx + 1, pu)
        if app.has_detector:
            node["q"] = weight(u - pu, mass, app.test_event.rank)
            if node["q"]:
                node["negation"] = grow(idx + 1, u - pu)
        return node

    return grow(0, _ray(chain.preparation))


def reference_trace(chain: Chain, tol=DEFAULT_TOL):
    """``evaluate_chain``'s trace read off the stored tree of :func:`_reference_tree`.

    Depth first and positive first: a rejoin or block gives one entry with
    its rule's note, a detector one entry per outlet with the outlet's
    probability given its path as ``weight``; a pruned outlet has weight
    0.0 and the "unreachable" note, and nothing below it.  Returns
    ``(apparatus_index, rule, branch, weight, note)`` tuples.
    """
    rules = {"rejoin": RULE_COHERENT_JOIN, "block": RULE_BLOCK, "detector": RULE_INCOHERENT_SPLIT}
    steps = []

    def emit(node):
        if node["kind"] == "final":
            return
        rule = rules[node["kind"]]
        if node["kind"] != "detector":
            steps.append((node["index"], rule, None, None, _NOTES[rule]))
            if "positive" in node:
                emit(node["positive"])
            return
        for branch, w in (("positive", node["p"]), ("negation", node["q"])):
            steps.append((node["index"], rule, branch, w, _NOTES["recorded" if w else "unreachable"]))
            if w:
                emit(node[branch])

    emit(_reference_tree(chain, tol))
    return steps


def reference_sample_counts(chain: Chain, trials, seed, workers=1, tol=DEFAULT_TOL):
    """``sample_chain``'s counts by two passes: grow the Lueders branch tree, then walk each worker alone.

    The tree is :func:`_reference_tree`'s.  Worker w takes its share of
    ``trials`` (dealt as the package deals them) down the tree with its
    own generator, seeded by ``SeedSequence((seed, w))``: one
    Binomial(n, p) draw at each block, detector or leaf that its n > 0
    trials reach, depth first and positive first, where a detector's p is
    its positive share p / (p + q).  The branch probabilities are those
    of the package, so the counts must match bit for bit.  Only for
    chains that ``sample_chain`` does not refuse.  Returns
    (outcome_counts, detector_counts).
    """
    edge = tol.budget()
    counts = {"positive": 0, "negation": 0, "blocked": 0}
    records = {}

    def split(node, n, rng):
        if node["kind"] == "rejoin":
            split(node["positive"], n, rng)
            return
        p = node["p"] / (node["p"] + node["q"]) if node["kind"] == "detector" else node["p"]
        k = int(rng.binomial(n, 0.0 if p <= edge else 1.0 if p >= 1.0 - edge else p))
        if node["kind"] == "final":
            counts["positive"] += k
            counts["negation"] += n - k
        elif node["kind"] == "block":
            counts["blocked"] += n - k
            if k:
                split(node["positive"], k, rng)
        else:
            for branch, m in (("positive", k), ("negation", n - k)):
                if m:
                    key = f"apparatus{node['index']}:{branch}"
                    records[key] = records.get(key, 0) + m
                    split(node[branch], m, rng)

    root = _reference_tree(chain, tol)
    base, extra = divmod(trials, workers)
    for w in range(min(workers, trials)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, w))))
        split(root, base + (1 if w < extra else 0), rng)
    return {k: v for k, v in counts.items() if not (k == "blocked" and v == 0)}, records


def within_sigmas(count, n, p, sigmas=5.0):
    """Whether ``count`` successes of ``n`` fit probability ``p``; one count of slack for tiny n p."""
    p = min(max(p, 0.0), 1.0)
    return abs(count - n * p) <= sigmas * math.sqrt(n * p * (1.0 - p)) + 1.0


def dense_objective_seq(d: Event, chain, tol=DEFAULT_TOL):
    """The state-independence fit of ``objective_seq`` from dense d x d products.

    With the ordered product E: refuse a chain weight tr(E E^H) at or below
    prob_floor, then a reference G = E E^H with |G|_F^2 <= (atol + rtol)^2;
    fit lam = <G, C> / <G, G> for C = E d E^H; accept when |C - lam G|_F <=
    objectivity_tol (1 + |G|_F) and Im lam is within atol + rtol |lam|.
    Returns ``(lam, residual, objective, value)``.
    """
    product = chain[0].matrix
    for e in chain[1:]:
        product = product @ e.matrix
    if np.vdot(product, product).real <= tol.prob_floor:
        raise UndefinedProbabilityError("chain product vanishes")
    adjoint = product.conj().T
    reference = product @ adjoint
    compressed = product @ d.matrix @ adjoint
    denom = np.vdot(reference, reference).real
    if denom <= (tol.atol + tol.rtol) ** 2:
        raise ValidationError("numerically zero reference")
    lam = complex(np.vdot(reference, compressed)) / denom
    residual = float(np.linalg.norm(compressed - lam * reference))
    objective = residual <= tol.objectivity_tol * (1.0 + np.linalg.norm(reference))
    if objective and abs(lam.imag) > tol.atol + tol.rtol * abs(lam):
        objective = False
    value = clamp_probability(lam.real, probability_slack(d.rank, tol)) if objective else None
    return lam, residual, objective, value


def _reference_is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def reference_entry_to_complex(entry, where):
    """One matrix or vector entry, the per-entry way: a number or an [re, im] pair."""
    if _reference_is_number(entry):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and all(_reference_is_number(x) for x in entry):
        return complex(entry[0], entry[1])
    raise ValidationError(f"{where}: each entry must be a number or an [re, im] pair, got {entry!r}")


def reference_matrix_from_obj(obj, where="matrix"):
    """Reference for ``io.matrix_from_obj``: one Python conversion and one numpy store per entry."""
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValidationError(f"{where}: expected an object with 'dim' and 'entries'")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{where}: 'entries' must be a non-empty list of rows")
    dim = obj.get("dim", len(entries))
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError(f"{where}: 'dim' must be a positive integer")
    if len(entries) != dim:
        raise ValidationError(f"{where}: declared dim {dim} but found {len(entries)} rows")
    m = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{where}: row {i} must be a list of {dim} entries")
        for j, entry in enumerate(row):
            m[i, j] = reference_entry_to_complex(entry, f"{where}[{i}][{j}]")
    return m


def peres33_rays():
    """Peres' 33 rays in dimension 3: components 0, +-1, +-sqrt(2), up to overall sign, unit length."""
    s = math.sqrt(2.0)
    seeds = [(0, 0, 1), (0, 1, 1), (0, 1, -1), (0, 1, s), (0, 1, -s),
             (1, 1, s), (1, -1, s), (1, 1, -s), (1, -1, -s)]
    rays = {}
    for seed in seeds:
        for perm in itertools.permutations(seed):
            v = np.array(perm, dtype=float)
            if v[np.flatnonzero(v)[0]] < 0:
                v = -v
            rays.setdefault(tuple(np.round(v, 12)), v / np.linalg.norm(v))
    return list(rays.values())


def e8_rays():
    """The 120 root rays of E8 in dimension 8 as integer vectors, one of each +-pair.

    The roots (+-1, +-1, 0^6) up to permutation, and (+-1/2)^8 with an even
    number of minus signs, doubled to (+-1)^8 and taken with a leading +1.
    Their projectors ``v v^T / (v^T v)`` have entries 0, +-1/8, +-1/4, 1/2
    and 1, all exact floats, so two rays exclude each other exactly when
    their integer inner product is zero.
    """
    rays = []
    for i, j in itertools.combinations(range(8), 2):
        for sign in (1, -1):
            v = np.zeros(8, dtype=np.int64)
            v[i], v[j] = 1, sign
            rays.append(v)
    for signs in itertools.product((1, -1), repeat=7):
        if signs.count(-1) % 2 == 0:
            rays.append(np.array((1,) + signs, dtype=np.int64))
    return rays


def reference_valuation(events, resolutions=None, tol=DEFAULT_TOL):
    """The list-based valuation rules on distinct events: ``(resolutions, exclusive_pairs, assignment, nodes)``.

    The exclusion relation is a list of lists of bools from pairwise
    :func:`is_orthogonal`; resolutions, when not given, come from a
    recursion that adds an event when its rank fits and it excludes every
    member chosen so far; the search copies a True/False/None list per
    node, branches on the first None, true before false, and sweeps every
    family and every exclusive pair until nothing changes.
    """
    n, dim = len(events), events[0].dim
    exclusive = [[i != j and is_orthogonal(e, f, tol) for j, f in enumerate(events)] for i, e in enumerate(events)]
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n) if exclusive[i][j])
    if resolutions is None:
        resolutions = []

        def extend(start, chosen, rank_sum):
            if rank_sum == dim:
                resolutions.append(tuple(chosen))
                return
            for k in range(start, n):
                if rank_sum + events[k].rank <= dim and all(exclusive[k][c] for c in chosen):
                    chosen.append(k)
                    extend(k + 1, chosen, rank_sum + events[k].rank)
                    chosen.pop()

        extend(0, [], 0)
    resolutions = tuple(resolutions)

    def propagate(values):
        changed = True
        while changed:
            changed = False
            for fam in resolutions:
                n_true = 0
                unassigned = []
                for i in fam:
                    if values[i] is True:
                        n_true += 1
                    elif values[i] is None:
                        unassigned.append(i)
                if n_true > 1:
                    return False
                if n_true == 1:
                    for i in unassigned:
                        values[i] = False
                        changed = True
                elif not unassigned:
                    return False
                elif len(unassigned) == 1:
                    values[unassigned[0]] = True
                    changed = True
            for i, j in pairs:
                if values[i] is True and values[j] is True:
                    return False
                if values[i] is True and values[j] is None:
                    values[j] = False
                    changed = True
                elif values[j] is True and values[i] is None:
                    values[i] = False
                    changed = True
        return True

    nodes = 0

    def dfs(values):
        nonlocal nodes
        nodes += 1
        if not propagate(values):
            return None
        try:
            pivot = values.index(None)
        except ValueError:
            return tuple(values)
        for choice in (True, False):
            trial = list(values)
            trial[pivot] = choice
            found = dfs(trial)
            if found is not None:
                return found
        return None

    return resolutions, pairs, dfs([None] * n), nodes


def reference_decompose(rho, e1, e2, outcomes, tol=DEFAULT_TOL):
    """The two-formula interference kernel: ``(normalizer, [(part1, part2, cross), ...])``.

    A density matrix goes through the compressions ``e1 rho e1``,
    ``e2 rho e2`` and ``e2 rho e1`` and three traces per outcome; a ray
    ``v`` through ``b_i = e_i v``.  The normalizer is read from the sum
    event ``e1 + e2`` and refused on its own, after the branch weights.
    """
    if not isinstance(e1, Event) or not isinstance(e2, Event):
        raise ValidationError("branch conditions must be Events")
    if e1.dim != e2.dim:
        raise ValidationError("branch events live in different dimensions")
    if not is_orthogonal(e1, e2, tol):
        raise ValidationError("branch events must be mutually exclusive (orthogonal)")
    e = Event(e1.matrix + e2.matrix, e1.rank + e2.rank)
    for d in outcomes:
        if not isinstance(d, Event):
            raise ValidationError("outcome must be an Event")
    if any(x.dim != rho.shape[0] for x in (e, *outcomes)):
        raise ValidationError("state, outcome and branch dimensions must agree")
    if rho.ndim == 1:
        b1, b2 = e1.matrix @ rho, e2.matrix @ rho
        weights = (np.vdot(b1, b1).real, np.vdot(b2, b2).real)
        raw_normalizer = np.vdot(rho, e.matrix @ rho).real

        def parts(d):
            d2 = d @ b2
            return np.vdot(b1, d @ b1), np.vdot(b2, d2), np.vdot(b1, d2)
    else:
        left = rho @ e1.matrix
        a1 = e1.matrix @ left
        a2 = e2.matrix @ rho @ e2.matrix
        c = e2.matrix @ left
        weights = (np.trace(a1).real, np.trace(a2).real)
        raw_normalizer = np.real(np.vdot(e.matrix, rho))

        def parts(d):
            flat = d.T.ravel()
            return (np.dot(x.ravel(), flat) for x in (a1, a2, c))
    slack = probability_slack(e.rank, tol)
    normalizer = clamp_probability(float(raw_normalizer), slack, what="probability of the condition")
    if min(weights) <= tol.prob_floor:
        raise UndefinedProbabilityError("branch probability vanishes; decomposition is undefined")
    if normalizer <= tol.prob_floor:
        raise UndefinedProbabilityError("combined condition has vanishing probability")
    terms = []
    for d in outcomes:
        p1, p2, cross = parts(d.matrix)
        terms.append((float(p1.real), float(p2.real), complex(cross)))
    return normalizer, terms
