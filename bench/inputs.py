"""Seeded input generators and the JSON wire format the package reads.

Every generator takes a ``numpy.random.Generator`` so that one workload
seed fixes every matrix.  The package only ever sees the JSON files
written here; the raw arrays stay with the benchmark for its oracles.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def span_projector(columns: np.ndarray) -> np.ndarray:
    """Projector onto the span of orthonormal columns."""
    p = columns @ columns.conj().T
    return (p + p.conj().T) / 2.0


def random_projector(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    return span_projector(haar_unitary(rng, d)[:, :rank])


def random_ray(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def ray_projector(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """A full-rank density matrix (Wishart, trace 1)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def orthogonal_split(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Two mutually exclusive projectors of random ranks."""
    u = haar_unitary(rng, d)
    r1 = int(rng.integers(1, d))
    r2 = int(rng.integers(1, d - r1 + 1))
    return span_projector(u[:, :r1]), span_projector(u[:, r1:r1 + r2])


def meet_pair(rng: np.random.Generator, d: int, theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two events sharing a planted subspace, their other directions at angle theta.

    Returns (e, f, planted meet).  The shared part has dimension 1 or 2.
    """
    u = haar_unitary(rng, d)
    shared = int(rng.integers(1, 3)) if d >= 5 else 1
    common = u[:, :shared]
    a = u[:, shared:shared + 1]
    b = u[:, shared + 1:shared + 2]
    tilted = math.cos(theta) * a + math.sin(theta) * b
    return (
        span_projector(np.hstack([common, a])),
        span_projector(np.hstack([common, tilted])),
        span_projector(common),
    )


def log_uniform_strata(lo: float, hi: float, n: int) -> np.ndarray:
    """The midpoints of n equal strata of [log lo, log hi] (n a power of 2).

    A fixed quadrature of the log-uniform distribution: every seed gets the
    same values, so cost differences between seeds do not come from them.
    The strata come in bit-reversed order (0, n/2, n/4, 3n/4, ...), so any
    prefix covers the range evenly.
    """
    bits = n.bit_length() - 1
    order = np.array([int(format(k, f"0{bits}b")[::-1], 2) for k in range(n)])
    return np.exp(math.log(lo) + (order + 0.5) / n * (math.log(hi) - math.log(lo)))


# Cabello, Estebaranz and Garcia-Alcaine (1996): 18 rays in dimension 4
# forming 9 orthogonal bases; every ray lies in exactly two of them.
KS18_RAYS = [
    (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0),
    (1, 0, -1, 0), (1, -1, 1, -1), (1, -1, -1, 1), (0, 0, 1, 1), (1, 1, 1, 1), (0, 1, 0, -1),
    (1, 0, 0, 1), (1, 0, 0, -1), (0, 1, -1, 0), (1, 1, -1, 1), (1, 1, 1, -1), (-1, 1, 1, 1),
]
KS18_BASES = [
    (0, 1, 2, 3), (0, 4, 5, 6), (2, 7, 8, 9), (6, 7, 10, 11), (1, 4, 12, 13),
    (8, 10, 13, 14), (3, 9, 15, 16), (5, 11, 15, 17), (12, 14, 16, 17),
]


def peres33_rays() -> list[np.ndarray]:
    """Peres' 33 rays in dimension 3: components 0, +-1, +-sqrt(2), up to overall sign."""
    s = math.sqrt(2.0)
    seeds = [(0, 0, 1), (0, 1, 1), (0, 1, -1), (0, 1, s), (0, 1, -s),
             (1, 1, s), (1, -1, s), (1, 1, -s), (1, -1, -s)]
    rays: dict[tuple, np.ndarray] = {}
    for seed in seeds:
        for perm in itertools.permutations(seed):
            v = np.array(perm, dtype=float)
            if v[np.flatnonzero(v)[0]] < 0:
                v = -v
            rays.setdefault(tuple(np.round(v, 12)), v / np.linalg.norm(v))
    return list(rays.values())


def rotated_rays(rng: np.random.Generator, rays) -> list[np.ndarray]:
    """The rays under one random unitary (orthogonality is preserved)."""
    u = haar_unitary(rng, len(rays[0]))
    return [u @ (np.asarray(r, dtype=complex) / np.linalg.norm(r)) for r in rays]


def matrix_obj(m: np.ndarray) -> dict:
    """A matrix in the package's wire format: rows of [re, im] pairs."""
    return {"dim": int(m.shape[0]), "entries": [[[z.real, z.imag] for z in row] for row in m.tolist()]}


def write_json(path: str, obj) -> int:
    """Write ``obj`` as JSON and return the file size in bytes."""
    text = json.dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text)


def chain_obj(prep: np.ndarray, apparatuses, final: np.ndarray) -> dict:
    """A chain scenario; ``apparatuses`` lists (kind, projector) as in ``oracles.chain_pass``."""
    specs = []
    for kind, p in apparatuses:
        spec = {"event": matrix_obj(p), "mode": "block_on_negation" if kind == "block" else "pass_both"}
        if kind == "detector":
            spec["detector"] = "positive"
        specs.append(spec)
    return {"dim": int(prep.shape[0]), "preparation": matrix_obj(prep), "apparatuses": specs, "final": matrix_obj(final)}


def spin_projector(axis: str, sign: str) -> np.ndarray:
    """(1 +- sigma_axis) / 2 for the Pauli matrix of the named axis."""
    sigma = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }[axis]
    return (np.eye(2) + (1.0 if sign == "+" else -1.0) * sigma) / 2.0


def event_from_json(obj) -> np.ndarray:
    """Read an event as the fixtures write it (matrix or named spin), without the package."""
    if "spin" in obj:
        return spin_projector(obj["spin"]["axis"], obj["spin"]["sign"])
    return np.array([[complex(*z) if isinstance(z, list) else complex(z) for z in row] for row in obj["entries"]])


def chain_from_json(obj) -> tuple[np.ndarray, list, np.ndarray]:
    """A chain scenario as the fixtures write it, as (preparation, apparatuses, final)."""
    apparatuses = [
        ("block" if a.get("mode") == "block_on_negation" else "detector" if a.get("detector") else "rejoin",
         event_from_json(a["event"]))
        for a in obj["apparatuses"]
    ]
    return event_from_json(obj["preparation"]), apparatuses, event_from_json(obj["final"])


def block_after_detector(apparatuses) -> bool:
    """Whether a block follows a detector: the shape evaluate_chain gets wrong."""
    kinds = [kind for kind, _ in apparatuses]
    return "detector" in kinds and "block" in kinds[kinds.index("detector"):]


def dim3_chain_with_block_after_detector() -> tuple[np.ndarray, list, np.ndarray]:
    """The dim-3 diagonal chain with a block after a detector; Bayes gives 1/2."""
    u = np.ones(3) / math.sqrt(3.0)
    return (
        ray_projector(u),
        [("detector", np.diag([1.0, 0.0, 0.0]).astype(complex)), ("block", np.diag([1.0, 1.0, 0.0]).astype(complex))],
        np.diag([1.0, 0.0, 0.0]).astype(complex),
    )

