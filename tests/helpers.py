"""Shared random generators and independent oracles for the tests.

Oracles here deliberately use different algorithms than the package
(SVD-based subspace math, brute-force enumeration) so agreement is
evidence, not circularity.
"""

import numpy as np
from scipy.linalg import svd

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
    """
    eye = np.eye(e.dim)
    _, s, vh = svd(np.vstack([eye - e.matrix, eye - f.matrix]), full_matrices=False)
    basis = vh[s <= NULL_SPACE_CUTOFF].conj().T
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
