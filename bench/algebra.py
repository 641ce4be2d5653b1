"""Workload ``algebra``: library queries on events and states already validated.

Set-up generates pools of states, events, rays, orthogonal splits,
classical spaces, meet pairs and valuation problems at d in {4, 16, 64,
128}, writes them in the JSON wire format and loads them through ``io``.
Ops then draw from the pools in rounds of fixed composition, shuffled
per round, so every seed runs the same mix of op types and dimensions:
about two thirds of the ops are at d <= 16 (p50 reads the Python-overhead
regime, p90 the BLAS and pivoted-Cholesky regime).  Meet angles are the
midpoints of 16 log-uniform strata of [1e-4, pi/2], one meet every sixth
round; the pinned theta = 1e-3 meet opens every run.  Peres-33 runs in
every round.
"""

from __future__ import annotations

import math
import os

import numpy as np

import qcondprob as qc
from qcondprob import io as qio

import inputs
import oracles
from ops import Op, check_value, close, is_undefined_error, known, raised

DIMS = (4, 16, 64, 128)
SMALL_DIMS = (4, 16)
# Pool sizes per dimension: small at d >= 64, where parsing the JSON
# matrices dominates set-up (16k entries each at d = 128).
POOL = {
    4: {"states": 4, "events": 16, "rays": 10, "splits": 4, "spaces": 2},
    16: {"states": 4, "events": 16, "rays": 10, "splits": 4, "spaces": 2},
    64: {"states": 1, "events": 6, "rays": 3, "splits": 1, "spaces": 1},
    128: {"states": 1, "events": 4, "rays": 2, "splits": 1, "spaces": 1},
}
SMALL_ROUND = {"cond_prob": 6, "repeated_cond_prob": 3, "objective_seq": 4, "split_cond_prob": 2,
               "objective_split": 2, "classical_repeated": 2, "double_slit_scan": 1}
LARGE_ROUND = {"cond_prob": 3, "repeated_cond_prob": 1, "objective_seq": 2, "split_cond_prob": 1,
               "objective_split": 1, "classical_repeated": 1}
VALUATION_ROUND = [("valuation_ks18", 4), ("valuation_ks18_subset", 4), ("valuation_ks18_subset", 4),
                   ("valuation_peres33", 3)]
MEET_STRATA = 16
# A meet that fails to converge costs 165-320 ms, a whole round of other
# ops; one meet every sixth round keeps them from swamping the run.
MEET_EVERY = 6
MEET_THETA_RANGE = (1e-4, math.pi / 2)
PINNED_MEET_THETA = 1e-3
SLIT_DETECTORS = 8
MEET_TOL = 1e-6


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


class Algebra:
    name = "algebra"
    split_by_dim = True
    # Ops at d <= 16 are scaled by a kernel of small numpy calls, ops at
    # d >= 64 by the pivoted elimination that dominates them.
    calibration_mixes = {"small": {"small": 2, "blas": 1}, "large": {"updates": 1}}
    min_ops = 100

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.t = tracer
        rng = np.random.default_rng([seed, 1])
        self.pools = {d: self._make_pool(rng, d, workdir) for d in DIMS}
        self.meets = self._make_meets(rng, workdir)
        self.valuations = self._make_valuations(rng, workdir)

    @staticmethod
    def kernel_for(op) -> str:
        return "large" if op.dim >= 64 else "small"

    # --- set-up: generate, write, load through io -------------------------

    def _load(self, path: str, objs: list, parse) -> list:
        nbytes = inputs.write_json(path, objs)

        def load():
            return [parse(o) for o in qio.load_json(path)]

        self.t.add("io.load.bytes", nbytes)
        return self.t.call("io.load", load)

    def _events(self, path: str, mats: list) -> list:
        parsed = self._load(path, [inputs.matrix_obj(m) for m in mats], qio.matrix_from_obj)
        return [self.t.call("events.validate_event", qc.validate_event, m) for m in parsed]

    def _make_pool(self, rng, d: int, workdir: str) -> dict:
        size = POOL[d]
        rhos = [inputs.random_state(rng, d) for _ in range(size["states"])]
        parsed = self._load(os.path.join(workdir, f"states_d{d}.json"), [inputs.matrix_obj(r) for r in rhos],
                            qio.matrix_from_obj)
        states = [self.t.call("conditioning.State", qc.State, m) for m in parsed]
        evs = [inputs.random_projector(rng, d, int(rng.integers(2, d))) for _ in range(size["events"])]
        rays = [inputs.random_ray(rng, d) for _ in range(size["rays"])]
        splits = [inputs.orthogonal_split(rng, d) for _ in range(size["splits"])]
        flat = evs + [inputs.ray_projector(v) for v in rays] + [p for pair in splits for p in pair]
        loaded = self._events(os.path.join(workdir, f"events_d{d}.json"), flat)
        n_ev, n_ray = len(evs), len(rays)
        spaces = []
        for k in range(size["spaces"]):
            # A fixed share of zero weights and fixed event sizes: the ranks
            # they give set the cost of validating the embedded states.
            w = rng.dirichlet(np.ones(d))
            w[rng.choice(d, d // 5, replace=False)] = 0.0
            w = w / w.sum()
            masks = [np.isin(np.arange(d), rng.choice(d, round(0.7 * d), replace=False)) for _ in range(8)]
            objs = [{"weights": w.tolist()}] + [{"indices": np.flatnonzero(m).tolist()} for m in masks]
            loaded_space = self._load(
                os.path.join(workdir, f"classical_d{d}_{k}.json"), objs,
                lambda o: qio.classical_space_from_obj(o) if "weights" in o else qio.classical_event_from_obj(o, d),
            )
            spaces.append((w, loaded_space[0], list(zip(masks, loaded_space[1:]))))
        return {
            "states": list(zip(rhos, states)),
            "events": list(zip(evs, loaded[:n_ev])),
            "rays": list(zip(rays, loaded[n_ev:n_ev + n_ray])),
            "splits": [
                ((splits[k][0], splits[k][1]), (loaded[n_ev + n_ray + 2 * k], loaded[n_ev + n_ray + 2 * k + 1]))
                for k in range(len(splits))
            ],
            "spaces": spaces,
        }

    def _make_meets(self, rng, workdir: str) -> list:
        thetas = inputs.log_uniform_strata(*MEET_THETA_RANGE, MEET_STRATA)
        specs = [(4, PINNED_MEET_THETA)] + [(SMALL_DIMS[k % 2], float(th)) for k, th in enumerate(thetas)]
        meets = []
        for k, (d, theta) in enumerate(specs):
            e, f, planted = inputs.meet_pair(rng, d, theta)
            loaded = self._events(os.path.join(workdir, f"meet_{k}.json"), [e, f])
            meets.append({"dim": d, "theta": theta, "raw": (e, f), "events": loaded})
        return meets

    def _make_valuations(self, rng, workdir: str) -> dict:
        ks = [np.array(v, dtype=float) for v in inputs.KS18_RAYS]
        out: dict[str, list] = {"valuation_ks18": [], "valuation_ks18_subset": [], "valuation_peres33": []}
        for k in range(3):
            rays = inputs.rotated_rays(rng, ks)
            out["valuation_ks18"].append((rays, list(inputs.KS18_BASES)))
        for k in range(6):
            chosen = sorted(rng.choice(len(inputs.KS18_BASES), int(rng.integers(3, 9)), replace=False))
            members = sorted({i for b in chosen for i in inputs.KS18_BASES[b]})
            index = {r: j for j, r in enumerate(members)}
            bases = [tuple(index[i] for i in inputs.KS18_BASES[b]) for b in chosen]
            out["valuation_ks18_subset"].append((inputs.rotated_rays(rng, [ks[i] for i in members]), bases))
        peres = inputs.peres33_rays()
        out["valuation_peres33"].append((peres, None))
        problems = {}
        for kind, instances in out.items():
            problems[kind] = []
            for k, (rays, bases) in enumerate(instances):
                projectors = [inputs.ray_projector(v) for v in rays]
                events = self._events(os.path.join(workdir, f"{kind}_{k}.json"), projectors)
                problems[kind].append((projectors, bases or oracles.orthogonal_bases(projectors), events))
        return problems

    # --- the op stream ----------------------------------------------------

    def ops(self):
        rng = np.random.default_rng([self.seed, 2])
        rnd = 0
        while True:
            plan = [(getattr(self, "_" + kind), kind, d)
                    for d in SMALL_DIMS for kind, n in SMALL_ROUND.items() for _ in range(n)]
            plan += [(getattr(self, "_" + kind), kind, d)
                     for d in DIMS[2:] for kind, n in LARGE_ROUND.items() for _ in range(n)]
            plan += [(self._valuation, kind, d) for kind, d in VALUATION_ROUND]
            order = list(rng.permutation(len(plan)))
            if rnd % MEET_EVERY == 0:
                # The pinned meet (index 0) opens the run.
                order.insert(0 if rnd == 0 else int(rng.integers(len(plan) + 1)), len(plan))
                plan.append((self._lattice_meet, "lattice_meet", (rnd // MEET_EVERY) % len(self.meets)))
            for i in order:
                build, kind, arg = plan[i]
                yield build(rng, kind, arg)
            rnd += 1

    def _cond_prob(self, rng, kind, d):
        pool = self.pools[d]
        rho, mu = _pick(rng, pool["states"])
        dr, dv = _pick(rng, pool["events"])
        er, ev = _pick(rng, pool["events"])
        return Op(kind, d, lambda t: t.call("conditioning.cond_prob", qc.cond_prob, mu, dv, ev),
                  lambda r, x: check_value(oracles.cond_prob(rho, dr, [er]))(r, x))

    def _repeated_cond_prob(self, rng, kind, d):
        pool = self.pools[d]
        rho, mu = _pick(rng, pool["states"])
        dr, dv = _pick(rng, pool["events"])
        chain = [_pick(rng, pool["events"]) for _ in range(int(rng.integers(2, 7)))]
        evs = [c[1] for c in chain]
        return Op(kind, d, lambda t: t.call("conditioning.repeated_cond_prob", qc.repeated_cond_prob, mu, dv, evs),
                  lambda r, x: check_value(oracles.cond_prob(rho, dr, [c[0] for c in chain]))(r, x))

    def _objective_seq(self, rng, kind, d):
        pool = self.pools[d]
        dr, dv = _pick(rng, pool["events"])
        chain = [_pick(rng, pool["events"]) for _ in range(int(rng.integers(1, 5)))]
        planted = bool(rng.random() < 0.5)
        if planted:
            v, ray = _pick(rng, pool["rays"])
            chain.append((inputs.ray_projector(v), ray))
        evs = [c[1] for c in chain]

        def check(res, exc):
            raw = [c[0] for c in chain]
            if np.linalg.norm(oracles.product(raw)) ** 2 <= oracles.PROB_FLOOR:
                return None if is_undefined_error(exc) else "oracle says the chain product vanishes"
            if exc is not None:
                return raised(exc)
            verdict, lam = oracles.objective_verdict(dr, raw)
            if planted:
                verdict, lam = True, complex(np.vdot(v, dr @ v))
            if verdict is None:
                return None
            if res.objective != verdict:
                return f"objective={res.objective}, oracle says {verdict}"
            if verdict and not close(res.value, lam.real):
                return f"value {res.value!r} differs from oracle {lam.real!r}"
            return None

        return Op(f"{kind}_{'planted' if planted else 'random'}", d,
                  lambda t: t.call("objective.objective_seq", qc.objective_seq, dv, evs), check)

    @staticmethod
    def _check_split(expected: dict | None, fields):
        def check(res, exc):
            if expected is None:
                return None if is_undefined_error(exc) else "oracle says a branch is undefined"
            if exc is not None:
                return raised(exc)
            for field in fields:
                if not close(getattr(res, field), expected[field]):
                    return f"{field} {getattr(res, field)!r} differs from oracle {expected[field]!r}"
            return None

        return check

    def _split_cond_prob(self, rng, kind, d):
        pool = self.pools[d]
        rho, mu = _pick(rng, pool["states"])
        dr, dv = _pick(rng, pool["events"])
        (r1, r2), (e1, e2) = _pick(rng, pool["splits"])
        fields = ("total", "part1", "part2", "interference", "normalizer")
        return Op(kind, d, lambda t: t.call("interference.split_cond_prob", qc.split_cond_prob, mu, dv, e1, e2),
                  lambda r, x: self._check_split(oracles.split_terms(rho, dr, r1, r2), fields)(r, x))

    def _objective_split(self, rng, kind, d):
        pool = self.pools[d]
        v, f = _pick(rng, pool["rays"])
        dr, dv = _pick(rng, pool["events"])
        (r1, r2), (e1, e2) = _pick(rng, pool["splits"])
        fields = ("total", "part1", "part2", "interference")
        return Op(kind, d, lambda t: t.call("interference.objective_split", qc.objective_split, f, dv, e1, e2),
                  lambda r, x: self._check_split(
                      oracles.split_terms(inputs.ray_projector(v), dr, r1, r2), fields)(r, x))

    def _double_slit_scan(self, rng, kind, d):
        pool = self.pools[d]
        picks = rng.choice(len(pool["rays"]), SLIT_DETECTORS + 1, replace=False)
        v, f = pool["rays"][picks[0]]
        dets = [pool["rays"][i] for i in picks[1:]]
        (r1, r2), (e1, e2) = _pick(rng, pool["splits"])

        def check(points, exc):
            if exc is not None:
                return raised(exc)
            rho = inputs.ray_projector(v)
            for p, (w, _) in zip(points, dets):
                expected = oracles.split_terms(rho, inputs.ray_projector(w), r1, r2)
                if expected is None:
                    if p.defined:
                        return f"detector {p.index}: oracle says undefined"
                elif not (p.defined and close(p.coherent, expected["total"])
                          and close(p.incoherent, expected["incoherent"])):
                    return f"detector {p.index}: ({p.coherent!r}, {p.incoherent!r}) differs from oracle"
            return None if len(points) == len(dets) else f"{len(points)} points for {len(dets)} detectors"

        return Op(kind, d, lambda t: t.call("interference.double_slit_scan", qc.double_slit_scan, f, e1, e2,
                                            [det for _, det in dets]), check)

    def _classical_repeated(self, rng, kind, d):
        w, space, events = _pick(rng, self.pools[d]["spaces"])
        picks = rng.choice(len(events), int(rng.integers(3, 5)), replace=False)
        (dm, dv), chain = events[picks[0]], [events[i] for i in picks[1:]]

        def run(t):
            classical = t.call("classical.classical_repeated", qc.classical_repeated, space, dv, [c[1] for c in chain])
            mu = t.call("classical.embed_diagonal", qc.embed_diagonal, space)
            embedded = [t.call("classical.embed_event", qc.embed_event, c[1]) for c in chain]
            outcome = t.call("classical.embed_event", qc.embed_event, dv)
            quantum = t.call("conditioning.repeated_cond_prob", qc.repeated_cond_prob, mu, outcome, embedded)
            return classical, quantum

        def check(res, exc):
            joint = np.logical_and.reduce([c[0] for c in chain])
            den = float(w[joint].sum())
            expected = None if den <= oracles.PROB_FLOOR else float(w[joint & dm].sum()) / den
            single = check_value(expected)
            return single(None if res is None else res[0], exc) or single(None if res is None else res[1], exc)

        return Op(kind, d, run, check)

    def _lattice_meet(self, rng, kind, index):
        m = self.meets[index]
        e, f = m["events"]

        def check(res, exc):
            if isinstance(exc, qc.ConvergenceError):
                return known("meet-convergence", raised(exc))
            if exc is not None:
                return raised(exc)
            gap = float(np.linalg.norm(res.matrix - oracles.meet(*m["raw"])))
            return None if gap <= MEET_TOL else f"meet differs from the SVD oracle by {gap:.3g}"

        return Op(kind, m["dim"], lambda t: t.call("events.lattice_meet", qc.lattice_meet, e, f), check,
                  tags={"theta": m["theta"]})

    def _valuation(self, rng, kind, d):
        projectors, bases, events = _pick(rng, self.valuations[kind])

        def run(t):
            problem = t.call("valuation.ValuationProblem", qc.ValuationProblem, events, resolutions=bases)
            result = t.call("valuation.search_valuation", qc.search_valuation, problem)
            t.add("valuation.nodes_explored", result.nodes_explored)
            return result

        def check(res, exc):
            if isinstance(exc, qc.ValidationError) and len(projectors) > qc.MAX_EVENTS:
                return known("event-cap", raised(exc))
            if exc is not None:
                return raised(exc)
            pairs = oracles.orthogonal_pairs(projectors)
            n = len(projectors)
            sat = not oracles.parity_unsat(n, bases) and oracles.find_valuation(n, bases, pairs) is not None
            if res.satisfiable != sat:
                return f"{'SAT' if res.satisfiable else 'UNSAT'}, oracle says {'SAT' if sat else 'UNSAT'}"
            if sat and not oracles.verify_valuation(res.assignment, bases, pairs):
                return "assignment violates the constraints"
            return None

        return Op(kind, projectors[0].shape[0], run, check)
