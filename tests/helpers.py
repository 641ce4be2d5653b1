"""Shared random generators and independent oracles for the tests.

Oracles here deliberately use different algorithms than the package
(SVD-based subspace math, brute-force enumeration) so agreement is
evidence, not circularity.
"""

import numpy as np
from scipy.linalg import null_space

from qcondprob import Event, State, validate_event


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


def intersection_projector(e: Event, f: Event, rcond=None) -> np.ndarray:
    """SVD-based oracle for the projection onto range(e) & range(f).

    A vector lies in both ranges exactly when both complements kill it,
    so the intersection is the null space of the stacked complements.
    ``rcond`` is passed to ``null_space``; raise it above round-off for
    events that are projections only within a tolerance.
    """
    dim = e.dim
    eye = np.eye(dim)
    stacked = np.vstack([eye - e.matrix, eye - f.matrix])
    basis = null_space(stacked, rcond=rcond)
    if basis.size == 0:
        return np.zeros((dim, dim), dtype=complex)
    return basis @ basis.conj().T


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
