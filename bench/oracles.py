"""Independent numpy-only oracles for the benchmark's correctness checks.

Nothing here imports qcondprob.  Each oracle recomputes a quantity from
the raw arrays the input generator produced, by a more direct route than
the package takes:

* conditional probabilities straight from the trace formula over the
  ordered product of the conditioning events;
* apparatus chains by one forward pass over unnormalised density
  matrices (the Lueders rule), and sampled frequencies by a 5 sigma
  binomial check against that pass;
* lattice meets as the null space of the stacked complements, by SVD;
* truth valuations by constraint verification, the parity argument for
  Kochen-Specker families, and a small exact-cover search otherwise.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# The package's default probability floor: conditioning on less is undefined.
PROB_FLOOR = 1e-12
# The package's default objectivity threshold, used to tell clear verdicts
# from ones too close to the threshold to call.
OBJECTIVITY_TOL = 1e-9


def _tr(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def product(events) -> np.ndarray:
    return functools.reduce(np.matmul, events)


def cond_prob(rho: np.ndarray, d: np.ndarray, events) -> float | None:
    """tr(rho E d E^+) / tr(rho E E^+) for E the ordered product; None when undefined."""
    e = product(events)
    den = _tr(rho @ e @ e.conj().T)
    if den <= PROB_FLOOR:
        return None
    return _tr(rho @ e @ d @ e.conj().T) / den


def objective_verdict(d: np.ndarray, events) -> tuple[bool | None, complex]:
    """Scalar fit of E d E^+ against E E^+: (verdict, fitted scalar).

    The verdict is None when the fit residual lies within a factor of
    1000 of the package's threshold, where either answer is defensible.
    """
    e = product(events)
    gram = e @ e.conj().T
    compressed = e @ d @ e.conj().T
    lam = complex(np.vdot(gram, compressed) / np.vdot(gram, gram))
    residual = float(np.linalg.norm(compressed - lam * gram))
    threshold = OBJECTIVITY_TOL * (1.0 + float(np.linalg.norm(gram)))
    if residual < threshold / 1e3:
        return True, lam
    if residual > threshold * 1e3:
        return False, lam
    return None, lam


def split_terms(rho: np.ndarray, d: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> dict[str, float] | None:
    """Two-part decomposition of the conditional probability of d given e1 + e2."""
    e = e1 + e2
    normalizer = _tr(rho @ e)
    if normalizer <= PROB_FLOOR or _tr(rho @ e1) <= PROB_FLOOR or _tr(rho @ e2) <= PROB_FLOOR:
        return None
    part1 = _tr(rho @ e1 @ d @ e1)
    part2 = _tr(rho @ e2 @ d @ e2)
    return {
        "total": _tr(rho @ e @ d @ e) / normalizer,
        "part1": part1,
        "part2": part2,
        "interference": 2.0 * float(np.trace(rho @ e1 @ d @ e2).real),
        "normalizer": normalizer,
        "incoherent": (part1 + part2) / normalizer,
    }


def meet(p: np.ndarray, q: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Projector onto range(p) intersected with range(q), via the SVD null space."""
    eye = np.eye(p.shape[0])
    _, s, vh = np.linalg.svd(np.vstack([eye - p, eye - q]), full_matrices=False)
    basis = vh[s <= tol].conj().T
    return basis @ basis.conj().T


def chain_pass(prep: np.ndarray, apparatuses, final: np.ndarray, record: str | None = None) -> tuple[float | None, float]:
    """Forward Lueders pass over a chain: (final-outcome probability, survival).

    ``apparatuses`` lists ``(kind, projector)`` with kind ``block``,
    ``detector`` or ``rejoin``.  A block maps rho to P rho P, a detector to
    P rho P + P' rho P' (or to the recorded branch alone when ``record``
    names it), a rejoin leaves rho alone.  The probability is None when
    no trial survives.
    """
    rho = prep / _tr(prep)
    eye = np.eye(prep.shape[0])
    for kind, p in apparatuses:
        if kind == "block":
            rho = p @ rho @ p
        elif kind == "detector":
            q = eye - p
            if record is None:
                rho = p @ rho @ p + q @ rho @ q
            else:
                b = p if record == "positive" else q
                rho = b @ rho @ b
    survival = _tr(rho)
    if survival <= PROB_FLOOR:
        return None, survival
    return _tr(rho @ final) / survival, survival


def binomial_ok(count: int, n: int, p: float, sigmas: float = 5.0) -> bool:
    """Whether ``count`` successes in ``n`` draws fit probability ``p`` within ``sigmas`` standard deviations.

    One extra count of slack keeps the check meaningful when n p is tiny.
    """
    if n == 0:
        return False
    p = min(max(p, 0.0), 1.0)
    return abs(count - n * p) <= sigmas * math.sqrt(n * p * (1.0 - p)) + 1.0


def orthogonal_pairs(projectors, tol: float = 1e-9) -> set[tuple[int, int]]:
    """Index pairs (i < j) of mutually exclusive events: P Q = 0."""
    return {
        (i, j) for i, j in itertools.combinations(range(len(projectors)), 2)
        if np.linalg.norm(projectors[i] @ projectors[j]) <= tol
    }


def orthogonal_bases(projectors, tol: float = 1e-9) -> list[tuple[int, ...]]:
    """All families of pairwise exclusive events whose ranks add up to the dimension."""
    dim = projectors[0].shape[0]
    ranks = [round(_tr(p)) for p in projectors]
    pairs = orthogonal_pairs(projectors, tol)
    found = []

    def extend(start: int, chosen: tuple[int, ...], total: int) -> None:
        if total == dim:
            found.append(chosen)
            return
        for k in range(start, len(projectors)):
            if total + ranks[k] <= dim and all((c, k) in pairs for c in chosen):
                extend(k + 1, chosen + (k,), total + ranks[k])

    extend(0, (), 0)
    return found


def verify_valuation(assignment, bases, pairs) -> bool:
    """Exactly one true ray per basis and no orthogonal pair both true."""
    return all(sum(1 for i in b if assignment[i]) == 1 for b in bases) and not any(
        assignment[i] and assignment[j] for i, j in pairs
    )


def parity_unsat(n_events: int, bases) -> bool:
    """The Kochen-Specker parity argument.

    When every ray lies in an even number of bases and the number of
    bases is odd, the true slots (one per basis) would count each true
    ray an even number of times, so no valuation exists.
    """
    uses = [0] * n_events
    for b in bases:
        for i in b:
            uses[i] += 1
    return len(bases) % 2 == 1 and all(u % 2 == 0 for u in uses)


def find_valuation(n_events: int, bases, pairs) -> list[bool] | None:
    """A valuation by exact-cover search over bases, or None when none exists."""
    neighbours: list[set[int]] = [set() for _ in range(n_events)]
    for i, j in pairs:
        neighbours[i].add(j)
        neighbours[j].add(i)

    def search(true: frozenset, false: frozenset) -> frozenset | None:
        open_bases = [b for b in bases if not true.intersection(b)]
        if not open_bases:
            return true
        best = min(open_bases, key=lambda b: sum(1 for i in b if i not in false))
        for i in best:
            if i in false:
                continue
            found = search(true | {i}, false | neighbours[i])
            if found is not None:
                return found
        return None

    found = search(frozenset(), frozenset())
    if found is None:
        return None
    return [i in found for i in range(n_events)]
