"""Workload ``chains``: random apparatus chains, evaluated and sampled.

``experiments`` does nearly all its work here: the 2^k recursion of
``evaluate_chain`` over k detectors and the sampler's per-trial walk.
The other workloads bypass it, so a chain rewrite predicts no change
there.

Set-up writes a pool of random chains (d in [2, 6], 1-10 apparatuses,
each a detector, a block or a rejoin in random order, so blocks after
detectors occur) and loads them through ``io``.  Every round evaluates
one shape of each size twice (detector counts floor(n/2) and ceil(n/2))
plus the pinned chains: the three spin fixtures and the dim-3 chain with
a block after a detector.  Each round also samples three chains at a
fixed trial count: the pinned dim-3 one and two of the round's shapes,
so that every ten rounds each shape is sampled once.
"""

from __future__ import annotations

import json
import os

import numpy as np

import qcondprob as qc
from qcondprob import io as qio

import inputs
import oracles
from ops import Op, close, is_undefined_error, known, raised

SIZES = range(1, 11)
# Chain structures (the order of detectors, blocks and rejoins, and the
# event ranks) come from a fixed generator, the same for every seed, so
# every run evaluates the same mix of shapes; the workload seed draws the
# events' orientations.  Ranks matter to correctness as well as cost: a
# rank-1 block after the last detector collapses the state, and then the
# chain-branch-weights defect does not show.
STRUCTURE_SEED = 2010
POOL_ROUNDS = 40
TRIALS = 10_000
SPIN_FIXTURES = ("chain_rejoined.json", "chain_blocked.json", "chain_detector.json")
FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


class Chains:
    name = "chains"
    split_by_dim = False
    calibration_mixes = {"all": {"objects": 1, "small": 2}}
    min_ops = 100

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.t = tracer
        rng = np.random.default_rng([seed, 3])
        structure = np.random.default_rng(STRUCTURE_SEED)
        shapes = [(n, n // 2 + (n % 2) * k) for n in SIZES for k in (0, 1)]
        self.pool = [
            [self._random_chain(rng, structure, workdir, f"r{r}_{i}", *shape, d=2 + i % 5)
             for i, shape in enumerate(shapes)]
            for r in range(POOL_ROUNDS)
        ]
        self.pinned = [self._load(os.path.join(FIXTURES, name), self._fixture_raw(name), "evaluate_pinned_spin")
                       for name in SPIN_FIXTURES]
        dim3 = inputs.dim3_chain_with_block_after_detector()
        self.dim3 = self._write_and_load(os.path.join(workdir, "pinned_dim3.json"), dim3, "evaluate_pinned_dim3")
        self.pinned.append(self.dim3)

    def _load(self, path: str, raw, kind: str) -> dict:
        self.t.add("io.load.bytes", os.path.getsize(path))
        chain = self.t.call("io.load", qio.load_chain, path)
        kinds = [k for k, _ in raw[1]]
        return {
            "chain": chain,
            "raw": raw,
            "kind": kind,
            "detectors": kinds.count("detector"),
            "block_after_detector": inputs.block_after_detector(raw[1]),
        }

    def _write_and_load(self, path: str, raw, kind: str) -> dict:
        inputs.write_json(path, inputs.chain_obj(*raw))
        return self._load(path, raw, kind)

    def _random_chain(self, rng, structure, workdir: str, tag: str, n: int, detectors: int, d: int) -> dict:
        kinds = ["detector"] * detectors + [("block" if structure.random() < 0.5 else "rejoin")
                                            for _ in range(n - detectors)]
        kinds = [kinds[i] for i in structure.permutation(n)]
        ranks = [int(r) for r in structure.integers(1, d, size=n + 1)]
        apparatuses = [(k, inputs.random_projector(rng, d, r)) for k, r in zip(kinds, ranks)]
        raw = (inputs.ray_projector(inputs.random_ray(rng, d)), apparatuses, inputs.random_projector(rng, d, ranks[-1]))
        return self._write_and_load(os.path.join(workdir, f"chain_{tag}.json"), raw, "evaluate")

    @staticmethod
    def _fixture_raw(name: str):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            return inputs.chain_from_json(json.load(fh))

    # --- the op stream ----------------------------------------------------

    def ops(self):
        rng = np.random.default_rng([self.seed, 4])
        rnd = 0
        while True:
            chunk = self.pool[rnd % POOL_ROUNDS]
            plan = [("evaluate", c, None) for c in chunk + self.pinned]
            plan += [("sample_pinned_dim3", self.dim3, 1 + rnd % 2)]
            # Every ten rounds sample each shape once, with 1 and 2 workers.
            plan += [("sample", chunk[(2 * rnd + k) % len(chunk)], 1 + k) for k in (0, 1)]
            for i in rng.permutation(len(plan)):
                kind, entry, workers = plan[i]
                if kind == "evaluate":
                    yield self._evaluate(entry)
                else:
                    yield self._sample(kind, entry, workers, seed=self.seed * 100_003 + rnd)
            rnd += 1

    def _evaluate(self, entry: dict) -> Op:
        chain, raw = entry["chain"], entry["raw"]
        records = ("positive", "negation") if entry["detectors"] == 1 else ()

        def run(t):
            evaluation = t.call("experiments.evaluate_chain", qc.evaluate_chain, chain)
            t.add("experiments.trace_steps", len(evaluation.steps))
            given = {}
            for record in records:
                try:
                    given[record] = t.call("experiments.conditioned_on_record", qc.conditioned_on_record, chain, record)
                except qc.UndefinedProbabilityError as exc:  # correct when the oracle says undefined
                    given[record] = exc
            return evaluation.value, given

        def check(res, exc):
            reason = evaluate_reason(res, exc)
            return known("chain-branch-weights", reason) if reason and entry["block_after_detector"] else reason

        def evaluate_reason(res, exc):
            expected, _ = oracles.chain_pass(*raw)
            if exc is not None:
                return None if expected is None and is_undefined_error(exc) else raised(exc)
            if expected is None:
                return f"oracle says no trial survives; got {res[0]!r}"
            if not close(res[0], expected):
                return f"value {res[0]!r} differs from the forward pass {expected!r}"
            for record, got in res[1].items():
                want, _ = oracles.chain_pass(*raw, record=record)
                if want is None and not is_undefined_error(got if isinstance(got, Exception) else None):
                    return f"record {record}: oracle says undefined; got {got!r}"
                if want is not None and not close(got if isinstance(got, float) else None, want):
                    return f"record {record}: {got!r} differs from the forward pass {want!r}"
            return None

        tags = {"detectors": entry["detectors"], "block_after_detector": entry["block_after_detector"]}
        return Op(entry["kind"], chain.dim, run, check, tags=tags)

    def _sample(self, kind: str, entry: dict, workers: int, seed: int) -> Op:
        chain, raw = entry["chain"], entry["raw"]

        def run(t):
            report = t.call("experiments.sample_chain", qc.sample_chain, chain, TRIALS, seed, workers)
            t.add("experiments.trials", report.trials)
            t.add("experiments.survivors", report.outcome_counts["positive"] + report.outcome_counts["negation"])
            return report

        def check(report, exc):
            expected, survival = oracles.chain_pass(*raw)
            defect = entry["block_after_detector"]
            if exc is not None:
                # All trials blocked is a legitimate draw when survival is tiny.
                all_blocked = (1.0 - survival) ** TRIALS > 1e-9
                if is_undefined_error(exc) and (expected is None or all_blocked):
                    return None
                return known("chain-branch-weights", raised(exc)) if defect else raised(exc)
            counts = report.outcome_counts
            survivors = counts["positive"] + counts["negation"]
            if expected is None:
                return "oracle says no trial survives"
            if not oracles.binomial_ok(survivors, TRIALS, survival):
                return f"{survivors} of {TRIALS} trials survived; the forward pass expects {survival:.4f}"
            if not oracles.binomial_ok(counts["positive"], survivors, expected):
                return f"frequency {counts['positive'] / survivors:.4f} beyond 5 sigma of {expected:.4f}"
            if not close(report.analytic["positive"], expected):
                reason = f"analytic {report.analytic['positive']!r} differs from the forward pass {expected!r}"
                return known("chain-branch-weights", reason) if defect else reason
            return None

        return Op(kind, chain.dim, run, check)
