"""Workload ``cli``: subprocess runs of ``python -m qcondprob``, ``src`` on the path, no install.

Interpreter start and imports dominate a CLI run, so a library speed-up
predicts no change here; an import or ``io`` change shows only here.

Set-up writes generated inputs at d = 4 and d = 128 (parsing the 128 x 128
JSON matrices is the heaviest ``io`` case) and computes every expected
answer with the numpy oracles.  The op list covers all five subcommands in
``table`` and ``json`` format on the 12 fixtures, the generated inputs and
the pinned dim-3 chain; it is shuffled per cycle and every entry runs
twice a run.  Every generated input holds four matrices, so the d = 128
runs, about a fifth of the ops and all of the p90 tail, cost about the
same and the p90 does not jump between them.  An op fails on a wrong parsed value, an unexpected
exit code, or stdout that differs from the entry's first run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from qcondprob import cli as qcli
from qcondprob import io as qio

import inputs
import oracles
from ops import Op, known, raised

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")
PRINTED_TOL = 1e-9  # the CLI prints 12 significant digits
SAMPLE_TRIALS = 2000
CYCLES = 2
START_PROBES = 5
CLI_TIMEOUT_S = 120
EXIT_UNDEFINED = 3


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _state_from_json(obj) -> np.ndarray:
    if "ensemble" not in obj:
        return inputs.event_from_json(obj)
    total = sum(c["weight"] for c in obj["ensemble"])
    rho = 0
    for c in obj["ensemble"]:
        v = np.array([complex(*z) if isinstance(z, list) else complex(z) for z in c["vector"]])
        rho = rho + c["weight"] / total * inputs.ray_projector(v)
    return rho


def _pairs(stdout: str) -> dict[str, str]:
    """``key  value`` lines of table output (indented trace lines skipped)."""
    return dict(line.split(None, 1) for line in stdout.splitlines() if line and not line[0].isspace())


def _num(text) -> float | None:
    return None if text in (None, "undefined") else float(text)


def _near(got, want) -> bool:
    return got is not None and abs(got - want) <= PRINTED_TOL


class Cli:
    name = "cli"
    split_by_dim = False
    # A CLI run is mostly interpreter start and imports, so its kernel is one.
    calibration_mixes = {"all": {"interpreter": 1}}
    rss_of_children = True

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.generated: list[tuple[str, str]] = []  # (loader name, path) of every written input
        self.first_stdout: dict[int, str] = {}
        rng = np.random.default_rng([seed, 5])
        entries = self._fixture_entries() + self._pinned_entries()
        for d in (4, 128):
            entries += self._generated_entries(rng, d)
        self.entries = [(sub, argv + ["--format", fmt], dim, check)
                        for sub, argv, dim, check in entries for fmt in ("table", "json")]
        self.min_ops = CYCLES * len(self.entries)

    # --- inputs and expected answers --------------------------------------

    def _write(self, name: str, obj, loader: str) -> str:
        path = os.path.join(self.workdir, name)
        inputs.write_json(path, obj)
        self.generated.append((loader, path))
        return path

    def _condprob(self, rho, d, events, state_path, outcome_path, event_paths, dim):
        argv = ["condprob", "--state", state_path, "--outcome", outcome_path]
        for p in event_paths:
            argv += ["--event", p]
        expected = oracles.cond_prob(rho, d, events)
        return ("condprob", argv, dim, self._value_check(expected, "value"))

    def _objective(self, d, events, outcome_path, event_paths, dim, planted_value=None):
        argv = ["objective", "--outcome", outcome_path]
        for p in event_paths:
            argv += ["--event", p]
        verdict, lam = oracles.objective_verdict(d, events)
        if planted_value is not None:
            verdict, lam = True, planted_value

        def check(fmt, out):
            got = json.loads(out) if fmt == "json" else _pairs(out)
            objective = got["objective"] in (True, "true")
            if verdict is not None and objective != verdict:
                return f"objective={objective}, oracle says {verdict}"
            if verdict and not _near(_num(got["value"]), lam.real):
                return f"value {got['value']!r} differs from oracle {lam.real!r}"
            return None

        return ("objective", argv, dim, (False, check))

    def _chain(self, raw, path, dim, record=None, sample=False):
        argv = ["chain", "--scenario", path]
        expected, survival = oracles.chain_pass(*raw)
        want_record = oracles.chain_pass(*raw, record=record)[0] if record else None
        if record:
            argv += ["--record", record]
        if sample:
            argv += ["--sample", "--trials", str(SAMPLE_TRIALS), "--seed", str(self.seed), "--workers", "2"]

        def check(fmt, out):
            if fmt == "json":
                got = json.loads(out)
                value, given = got["value"], got.get(f"value_given_{record}")
                counts = got.get("sample", {}).get("outcome_counts", {})
            else:
                got = _pairs(out)
                value, given = _num(got["value"]), _num(got.get(f"value_given_{record}"))
                counts = {k[len("count_"):]: int(v) for k, v in got.items() if k.startswith("count_")}
            if not _near(value, expected):
                reason = f"value {value!r} differs from the forward pass {expected!r}"
                return known("chain-branch-weights", reason) if inputs.block_after_detector(raw[1]) else reason
            if record and not _near(given, want_record):
                return f"value given {record} {given!r} differs from the forward pass {want_record!r}"
            if sample:
                survivors = counts.get("positive", 0) + counts.get("negation", 0)
                if not (oracles.binomial_ok(survivors, SAMPLE_TRIALS, survival)
                        and oracles.binomial_ok(counts.get("positive", 0), survivors, expected)):
                    return f"sampled counts {counts} beyond 5 sigma of the forward pass"
            return None

        return ("chain", argv, dim, (expected is None, check))

    def _slit(self, prep, e1, e2, detectors, path, dim):
        rows = [oracles.split_terms(prep, det, e1, e2) for det in detectors]

        def check(fmt, out):
            if fmt == "json":
                got = [(r["coherent"], r["incoherent"], r["defined"]) for r in json.loads(out)]
            else:
                lines = out.strip().splitlines()[1:]
                got = [(float(c), float(i), f == "true") for _, c, i, f in (line.split(",") for line in lines)]
            if len(got) != len(rows):
                return f"{len(got)} rows for {len(rows)} detectors"
            for k, ((coh, inc, defined), want) in enumerate(zip(got, rows)):
                if want is None:
                    if defined:
                        return f"detector {k}: oracle says undefined"
                elif not (defined and _near(coh, want["total"]) and _near(inc, want["incoherent"])):
                    return f"detector {k}: ({coh!r}, {inc!r}) differs from oracle"
            return None

        return ("slit", ["slit", "--model", path], dim, (False, check))

    def _valuation(self, projectors, bases, path, dim):
        bases = bases if bases is not None else oracles.orthogonal_bases(projectors)
        pairs = oracles.orthogonal_pairs(projectors)
        n = len(projectors)
        sat = not oracles.parity_unsat(n, bases) and oracles.find_valuation(n, bases, pairs) is not None

        def check(fmt, out):
            if fmt == "json":
                got = json.loads(out)
                verdict, true = got["satisfiable"], got["true_indices"]
            else:
                got = _pairs(out)
                verdict = got["result"] == "SAT"
                true = [int(i) for i in got.get("true_indices", "-").split() if i != "-"]
            if verdict != sat:
                return f"{'SAT' if verdict else 'UNSAT'}, oracle says {'SAT' if sat else 'UNSAT'}"
            if sat and not oracles.verify_valuation([i in true for i in range(n)], bases, pairs):
                return "assignment violates the constraints"
            return None

        return ("valuation", ["valuation", "--problem", path], dim, (False, check))

    @staticmethod
    def _value_check(expected, key):
        def check(fmt, out):
            got = json.loads(out)[key] if fmt == "json" else _num(_pairs(out)[key])
            return None if _near(got, expected) else f"{key} {got!r} differs from oracle {expected!r}"

        return (expected is None, check)

    def _fixture_entries(self) -> list:
        ev = {name: inputs.event_from_json(_read(_fixture(name + ".json")))
              for name in ("objective_pair_d", "objective_pair_e", "proj_first_axis_dim4")}
        states = {name: _state_from_json(_read(_fixture(name + ".json")))
                  for name in ("state_mixed_dim4", "state_lower_block_dim4")}
        d, e, first = ev["objective_pair_d"], ev["objective_pair_e"], ev["proj_first_axis_dim4"]
        dp, ep, fp = (_fixture(n + ".json") for n in ("objective_pair_d", "objective_pair_e", "proj_first_axis_dim4"))
        entries = [
            self._condprob(states["state_mixed_dim4"], d, [e], _fixture("state_mixed_dim4.json"), dp, [ep], 4),
            self._condprob(states["state_mixed_dim4"], d, [e, first], _fixture("state_mixed_dim4.json"), dp,
                           [ep, fp], 4),
            self._condprob(states["state_lower_block_dim4"], d, [e], _fixture("state_lower_block_dim4.json"), dp,
                           [ep], 4),
            self._objective(d, [e], dp, [ep], 4),
            self._objective(first, [e], fp, [ep], 4),
        ]
        for name in ("chain_rejoined", "chain_blocked", "chain_detector"):
            raw = inputs.chain_from_json(_read(_fixture(name + ".json")))
            entries.append(self._chain(raw, _fixture(name + ".json"), 2))
            if name == "chain_detector":
                entries.append(self._chain(raw, _fixture(name + ".json"), 2, record="positive"))
                entries.append(self._chain(raw, _fixture(name + ".json"), 2, sample=True))
        slit = _read(_fixture("double_slit_dim8.json"))
        entries.append(self._slit(*(inputs.event_from_json(slit[k]) for k in ("preparation", "slit1", "slit2")),
                                  [inputs.event_from_json(x) for x in slit["detectors"]],
                                  _fixture("double_slit_dim8.json"), 8))
        for name in ("kochen_specker_18", "valuation_qubit_sat", "valuation_classical_sat"):
            obj = _read(_fixture(name + ".json"))
            projectors = [inputs.event_from_json(x) for x in obj["events"]]
            bases = [tuple(b) for b in obj["resolutions"]] if "resolutions" in obj else None
            entries.append(self._valuation(projectors, bases, _fixture(name + ".json"), obj["dim"]))
        return entries

    def _pinned_entries(self) -> list:
        raw = inputs.dim3_chain_with_block_after_detector()
        return [self._chain(raw, self._write("pinned_dim3.json", inputs.chain_obj(*raw), "load_chain"), 3)]

    def _generated_entries(self, rng, d: int) -> list:
        m = inputs.matrix_obj
        rho = inputs.random_state(rng, d)
        outcome, e1, e2 = (inputs.random_projector(rng, d, int(rng.integers(2, d))) for _ in range(3))
        v = inputs.random_ray(rng, d)
        ray = inputs.ray_projector(v)
        sp = self._write(f"state_d{d}.json", m(rho), "load_state")
        op, p1, p2, rp = (self._write(f"{n}_d{d}.json", m(x), "load_event")
                          for n, x in (("outcome", outcome), ("e1", e1), ("e2", e2), ("ray", ray)))
        s1, s2 = inputs.orthogonal_split(rng, d)
        detector = inputs.ray_projector(inputs.random_ray(rng, d))
        slit_path = self._write(f"slit_d{d}.json", {"dim": d, "preparation": m(ray), "slit1": m(s1), "slit2": m(s2),
                                                    "detectors": [m(detector)]}, "load_slit_model")
        # Block, then detector: a shape the CLI path must get right; the
        # chains workload covers blocks after detectors.
        raw = (ray, [(k, inputs.random_projector(rng, d, int(rng.integers(1, d)))) for k in ("block", "detector")],
               outcome)
        chain_path = self._write(f"chain_d{d}.json", inputs.chain_obj(*raw), "load_chain")
        if d == 4:
            projectors = [inputs.ray_projector(r) for r in inputs.rotated_rays(rng, inputs.KS18_RAYS)]
            problem = {"events": [m(x) for x in projectors], "resolutions": [list(b) for b in inputs.KS18_BASES]}
            bases = list(inputs.KS18_BASES)
        else:
            u = inputs.haar_unitary(rng, d)
            projectors = [inputs.span_projector(u[:, k:k + d // 4]) for k in range(0, d, d // 4)]
            problem = {"events": [m(x) for x in projectors]}
            bases = None
        valuation_path = self._write(f"valuation_d{d}.json", problem, "load_valuation")
        entries = [
            self._condprob(rho, outcome, [e1, e2], sp, op, [p1, p2], d),
            self._objective(outcome, [e1, e2, ray], op, [p1, p2, rp], d,
                            planted_value=complex(np.vdot(v, outcome @ v))),
            self._chain(raw, chain_path, d),
            self._slit(ray, s1, s2, [detector], slit_path, d),
            self._valuation(projectors, bases, valuation_path, d),
        ]
        if d == 4:
            entries.append(self._chain(raw, chain_path, d, record="positive"))
            entries.append(self._chain(raw, chain_path, d, sample=True))
        return entries

    # --- the op stream ----------------------------------------------------

    def ops(self):
        rng = np.random.default_rng([self.seed, 6])
        while True:
            for i in rng.permutation(len(self.entries)):
                yield self._op(int(i))

    def _op(self, index: int) -> Op:
        sub, argv, dim, (undefined, check_stdout) = self.entries[index]
        fmt = argv[-1]
        cmd = [sys.executable, "-m", "qcondprob"] + argv

        def run(t):
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

        def check(proc, exc):
            if exc is not None:
                return raised(exc)
            if undefined:
                ok = proc.returncode == EXIT_UNDEFINED
                return None if ok else f"exit {proc.returncode}; oracle says undefined (exit {EXIT_UNDEFINED})"
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
            if self.first_stdout.setdefault(index, proc.stdout) != proc.stdout:
                return "stdout differs from this input's first run"
            try:
                return check_stdout(fmt, proc.stdout)
            except (KeyError, ValueError, TypeError) as error:
                return f"unparsable output ({type(error).__name__}: {error})"

        return Op(f"{sub}_{fmt}", dim, run, check, tags={"subcommand": sub})

    # --- traced extras ----------------------------------------------------

    def traced_extras(self, t) -> dict[str, float]:
        """Interpreter start, import cost, in-process io loads and ``cli.main`` runs."""

        def median_ms(code: str) -> float:
            runs = []
            for _ in range(START_PROBES):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=CLI_TIMEOUT_S)
                runs.append((time.perf_counter() - start) * 1e3)
            return statistics.median(runs)

        start_ms = median_ms("pass")
        import_ms = median_ms("import qcondprob.cli") - start_ms
        for loader, path in self.generated:
            t.add("io.load.bytes", os.path.getsize(path))
            t.call("io.load", getattr(qio, loader), path)
        for index, (sub, argv, _, _) in enumerate(self.entries):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                t.call(f"cli.main.{sub}", qcli.main, argv)
            if index in self.first_stdout and out.getvalue() != self.first_stdout[index]:
                t.add("cli.main.stdout_mismatch")
        return {"cli.interp_start_ms": start_ms, "cli.import_ms": import_ms}

