#!/usr/bin/env python3
"""Benchmark for qcondprob: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (no install needed; ``src`` is put on the
path):

    python3 bench/run.py --workload algebra --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads (see each module's docstring for why it was chosen):

* ``algebra``: library queries on validated events and states (bench/algebra.py);
* ``chains``: random apparatus chains, evaluated and sampled (bench/chains.py);
* ``cli``: subprocess runs of ``python -m qcondprob`` (bench/clirun.py).

One caller, closed loop, one process pinned to one CPU; BLAS is pinned to
one thread before numpy is imported.  Each op is timed around its package
calls only and then checked against a numpy oracle (bench/oracles.py), so
oracle time is not in the figures.  Op and set-up times are scaled to a
reference speed by a calibration kernel (bench/calibrate.py); raw times
are printed beside them.  With ``--trace 0`` the run reports the end-to-end
metrics listed in BENCHMARK.json; with ``--trace 1`` it runs the op
stream once untraced and once traced, reports the per-layer metrics from
the spans (raw times), and writes the spans to ``.bench_out/``.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  ``failed`` counts unexpected failures; ops that hit a known
defect (``ops.KnownDefect``) count against ``correct_frac`` and are named
in the printed report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from ops import KnownDefect

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("algebra", "chains", "cli")
# One BLAS thread: the closed loop has a single caller, and on a two-CPU
# machine one thread measured steadier (and no slower at d <= 128).
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# CPUs this process may use before bootstrap pins it to one.
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
MEET_SMALL_ANGLE = 0.03


def bootstrap() -> None:
    """Check the checkout, pin BLAS threads and put ``src`` first on the path, before numpy loads."""
    if not (SRC / "qcondprob" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'qcondprob'} not found; run from the root of a qcondprob checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    # One CPU for this process and its children, so the calibration kernel
    # and the ops it scales run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def workload_class(name: str):
    if name == "algebra":
        from algebra import Algebra
        return Algebra
    if name == "chains":
        from chains import Chains
        return Chains
    from clirun import Cli
    return Cli


class Tally:
    """Outcomes of the ops of one pass.

    Each op is correct, a known defect (``ops.KnownDefect``) or failed.
    Latencies are kept raw and scaled to the calibration kernel's reference
    speed; the metrics use the scaled ones.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.attempted = 0
        self.kinds: Counter = Counter()
        self.dims: Counter = Counter()
        self.failed: Counter = Counter()
        self.known: Counter = Counter()
        self.bad_s: Counter = Counter()
        self.reasons: dict[str, str] = {}
        self.tags: dict[str, list] = defaultdict(list)

    def record(self, op, raw_s: float, scale: float, reason: str | None) -> None:
        seconds = raw_s * scale
        self.attempted += 1
        self.busy_s += seconds
        self.raw_busy_s += raw_s
        self.kinds[op.kind] += 1
        self.dims[op.dim] += 1
        for key, value in op.tags.items():
            self.tags[key].append(value)
        if reason is None:
            self.latencies.append(seconds)
            self.raw_latencies.append(raw_s)
            return
        (self.known if isinstance(reason, KnownDefect) else self.failed)[op.kind] += 1
        self.bad_s[op.kind] += seconds
        self.reasons.setdefault(op.kind, reason)

    @property
    def n_failed(self) -> int:
        """Unexpected failures only; known defects are counted apart."""
        return sum(self.failed.values())

    @property
    def n_not_correct(self) -> int:
        return self.attempted - len(self.latencies)

    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy_s


def measure(workload, tracer, seconds: float) -> Tally:
    """Closed loop: run ops until ``seconds`` have passed and at least ``min_ops`` ran."""
    from calibrate import Calibration

    calibrations = {name: Calibration(mix) for name, mix in workload.calibration_mixes.items()}
    kernel_for = getattr(workload, "kernel_for", lambda op: next(iter(calibrations)))
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for op_id, op in enumerate(workload.ops()):
        if tally.attempted >= workload.min_ops and time.perf_counter() >= deadline:
            break
        scale = calibrations[kernel_for(op)].refresh()
        slot = tracer.open_op(op_id, op.kind, op.dim)
        start = time.perf_counter()
        try:
            result, exc = op.run(tracer), None
        except Exception as error:  # any error from the package fails the op; its reason is reported
            result, exc = None, error
        end = time.perf_counter()
        reason = op.check(result, exc)
        tracer.close_op(slot, end, reason is None)
        tally.record(op, end - start, scale, reason)
    return tally


def input_summary(tally: Tally) -> dict:
    """What the op stream contained, so a later change can quote the share it targets."""
    n = tally.attempted
    out: dict = {
        "op_types": dict(sorted(tally.kinds.items())),
        "dim_histogram": {str(d): c for d, c in sorted(tally.dims.items())},
    }
    tags = tally.tags
    if "theta" in tags:
        out["meets_theta_below_0.03_share"] = sum(t < MEET_SMALL_ANGLE for t in tags["theta"]) / len(tags["theta"])
    if "detectors" in tags:
        out["detector_histogram"] = {str(k): c for k, c in sorted(Counter(tags["detectors"]).items())}
    if "block_after_detector" in tags:
        out["chains_block_after_detector_share"] = sum(tags["block_after_detector"]) / len(tags["block_after_detector"])
    if "subcommand" in tags:
        out["cli_subcommand_share"] = {k: c / n for k, c in sorted(Counter(tags["subcommand"]).items())}
    return out


def run_record(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "cpus_used": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def self_test() -> None:
    """Run the oracle self-tests (bench/test_oracles.py); a failing oracle stops the run."""
    import test_oracles

    for name in sorted(dir(test_oracles)):
        if name.startswith("test_"):
            getattr(test_oracles, name)()


def setup_probes(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, spawn to first op ready (import, generate, load): (scaled, raw).

    They are scaled by the workload's first calibration kernel.
    """
    from calibrate import Calibration

    cls = workload_class(workload)
    calibration = Calibration(next(iter(cls.calibration_mixes.values())))
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        # perf_counter is the system-wide monotonic clock, so the child's
        # reading compares directly with the parent's.
        ready, kernel_s = (float(x) for x in done.stdout.split()[-2:])
        raw.append(ready - start)
        times.append(raw[-1] * calibration.factor(kernel_s))
    return times, raw


def end_to_end(tally: Tally, setup_times: list[float], rss_mb: float) -> dict[str, float]:
    ok = tally.latencies
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(ok) * 1e3,
        "op_p90_ms": statistics.quantiles(ok, n=10, method="inclusive")[8] * 1e3,
        "correct_frac": len(ok) / tally.attempted,
        "peak_rss_mb": rss_mb,
    }


def derived_layer_metrics(m: dict[str, float]) -> None:
    sample_s = m.get("experiments.sample_chain.busy_ms", 0.0) / 1e3
    trials = m.get("experiments.trials", 0.0)
    if sample_s > 0:
        m["experiments.trials_per_s"] = trials / sample_s
    if trials > 0:
        m["experiments.survival_ratio"] = m.get("experiments.survivors", 0.0) / trials


def print_report(workload: str, record: dict, tally: Tally, rows: list[tuple[str, float, str, str]]) -> None:
    print(f"# workload {workload}: {json.dumps(record)}")
    print(f"# inputs: {json.dumps(input_summary(tally))}")
    width = max(len(r[0]) for r in rows)
    for name, value, unit, samples in rows:
        print(f"{name.ljust(width)}  {value:14.6g} {unit:6s} {samples}")
    n_bad = tally.n_not_correct
    if not n_bad:
        print("# no op failed")
        return
    print(f"# failing op types ({n_bad} of {tally.attempted} ops, "
          f"{sum(tally.bad_s.values()) / tally.busy_s:.1%} of timed time):")
    for kind in sorted(tally.bad_s, key=tally.bad_s.get, reverse=True):
        count = tally.failed[kind] + tally.known[kind]
        print(f"#   {kind}: {count} of {tally.kinds[kind]} failed ({tally.known[kind]} known defects), "
              f"{tally.bad_s[kind] / tally.busy_s:.1%} of timed time; first: {tally.reasons[kind]}")


def run(args) -> int:
    from spans import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cls = workload_class(args.workload)
    record = run_record(args.seed)
    self_test()
    tracer = Tracer(enabled=bool(args.trace))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        workload = cls(args.seed, str(workdir), tracer)
        untraced = measure(workload, Tracer(enabled=False), args.seconds)
        who = resource.RUSAGE_CHILDREN if getattr(cls, "rss_of_children", False) else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        if args.trace:
            traced = measure(workload, tracer, args.seconds)
            extras = workload.traced_extras(tracer) if hasattr(workload, "traced_extras") else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        setup_times, setup_raw = setup_probes(args.workload, args.seed)
        values = end_to_end(untraced, setup_times, rss_mb)
        n_ok = len(untraced.latencies)
        raw = untraced.raw_latencies
        samples = {
            "setup_s": f"median of {len(setup_times)} fresh-process set-ups (raw {statistics.median(setup_raw):.4g} s)",

            "op_p50_ms": f"{n_ok} correct ops (raw {statistics.median(raw) * 1e3:.4g} ms)",
            "op_p90_ms": f"{n_ok} correct ops, {n_ok - math.ceil(0.9 * n_ok)} beyond p90 "
                         f"(raw {statistics.quantiles(raw, n=10, method='inclusive')[8] * 1e3:.4g} ms)",
            "correct_frac": f"{n_ok} of {untraced.attempted} attempted",
            "peak_rss_mb": "ru_maxrss of " + ("the CLI children" if who == resource.RUSAGE_CHILDREN else "this process"),
        }
        metrics = spec["end_to_end"]
        rows = [(m["name"], values[m["name"]], m["unit"], samples[m["name"]]) for m in metrics]
        # Printed, not gated: dominated by the slowest ops, it moved about
        # 10 % between runs with the machine's speed even after calibration.
        rows.append(("ops_per_s", untraced.ops_per_s(), "1/s",
                     f"{n_ok} correct ops / {untraced.busy_s:.2f} s timed (raw {n_ok / untraced.raw_busy_s:.4g})"))
        rows.append(("failed_frac", untraced.n_not_correct / untraced.attempted, "1",
                     f"{untraced.n_not_correct} of {untraced.attempted} attempted, "
                     f"{sum(untraced.known.values())} of them known defects"))
        print_report(args.workload, record, untraced, rows)
        result_tally = untraced
    else:
        values = tracer.layer_metrics(split_by_dim=cls.split_by_dim)
        values.update(extras)
        derived_layer_metrics(values)
        values["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / untraced.ops_per_s()
        metrics = spec["per_layer"]
        rows = [(m["name"], values.get(m["name"], 0.0), m["unit"], "") for m in metrics]
        print_report(args.workload, record, traced, rows)
        print("# waiting time is 0 by construction: one thread, no queues")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(str(spans_path), {**record, "workload": args.workload, "layer_metrics": values})
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
        result_tally = traced

    # "failed" counts unexpected failures; known defects are in correct_frac
    # and in the failed_frac printed above.
    result = {
        "correct": result_tally.n_failed == 0,
        "attempted": result_tally.attempted,
        "failed": result_tally.n_failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


def probe(args) -> int:
    """Set up the workload in this fresh process; print when set-up finished and the kernel's time."""
    from spans import Tracer

    cls = workload_class(args.workload)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-probe-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        cls(args.seed, str(workdir), Tracer(enabled=False))
        ready = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from calibrate import Calibration

    print(repr(ready), repr(Calibration(next(iter(cls.calibration_mixes.values()))).time_kernel()))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            returncode = subprocess.run(cmd, cwd=ROOT).returncode
            status = status or returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    bootstrap()
    if args.workload == "all":
        return run_all(args)
    return probe(args) if args.probe_setup else run(args)


if __name__ == "__main__":
    sys.exit(main())
