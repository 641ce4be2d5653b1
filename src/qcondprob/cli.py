"""Command-line interface.

Five subcommands cover the package's main entry points:

* ``condprob``: conditional probability of an outcome given one or more
  conditioning events, in a given state;
* ``objective``: state-independence test for an outcome given a
  conditioning sequence;
* ``chain``: analytic evaluation of an apparatus scenario, optionally
  with a record conditioning or a sampling run;
* ``slit``: coherent/incoherent detector scan of a two-slit model, as CSV;
* ``valuation``: noncontextual truth-assignment search.

Exit codes: 0 on success, 2 for input or validation problems, 3 when the
requested quantity is mathematically undefined, 4 when an internal
invariant breaks.  All numeric output is printed to 12 significant
digits and depends only on the inputs, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .conditioning import repeated_cond_prob
from .errors import (
    ConvergenceError,
    InvariantError,
    QcpError,
    UndefinedProbabilityError,
    ValidationError,
)
from .experiments import conditioned_on_record, evaluate_chain, sample_chain
from .interference import double_slit_scan, scan_to_csv
from .io import load_chain, load_event, load_slit_model, load_state, load_valuation
from .objective import objective_seq
from .tolerances import Tolerances
from .valuation import search_valuation

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDEFINED = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class RunConfig:
    """Validated run-wide settings shared by the subcommands."""

    tol: Tolerances
    fmt: str
    seed: int
    trials: int
    workers: int

    def __post_init__(self):
        if self.fmt not in ("table", "json"):
            raise ValidationError(f"unknown output format {self.fmt!r}")
        if self.trials < 1:
            raise ValidationError(f"trials must be at least 1, got {self.trials}")
        if self.workers < 1:
            raise ValidationError(f"workers must be at least 1, got {self.workers}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _config_from_args(args) -> RunConfig:
    tol = Tolerances(
        atol=args.atol,
        rtol=args.rtol,
        objectivity_tol=args.objectivity_tol,
        prob_floor=args.prob_floor,
    )
    return RunConfig(
        tol=tol,
        fmt=args.format,
        seed=args.seed,
        trials=args.trials,
        workers=args.workers,
    )


def _print_pairs(pairs: list[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)}  {value}")


def _emit(fmt: str, pairs: list[tuple[str, str]], obj: dict) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        _print_pairs(pairs)


def cmd_condprob(args) -> int:
    cfg = _config_from_args(args)
    state = load_state(args.state, cfg.tol)
    outcome = load_event(args.outcome, cfg.tol)
    events = [load_event(path, cfg.tol) for path in args.event]
    value = repeated_cond_prob(state, outcome, events, cfg.tol)
    _emit(cfg.fmt, [("value", _fmt(value))], {"value": value})
    return EXIT_OK


def cmd_objective(args) -> int:
    cfg = _config_from_args(args)
    outcome = load_event(args.outcome, cfg.tol)
    events = [load_event(path, cfg.tol) for path in args.event]
    result = objective_seq(outcome, events, cfg.tol)
    pairs = [
        ("value", _fmt(result.value) if result.value is not None else "undefined"),
        ("lambda_re", _fmt(result.lam.real)),
        ("lambda_im", _fmt(result.lam.imag)),
        ("residual", _fmt(result.residual)),
        ("objective", str(result.objective).lower()),
        ("chain_length", str(result.chain_length)),
    ]
    obj = {
        "value": result.value,
        "lambda_re": result.lam.real,
        "lambda_im": result.lam.imag,
        "residual": result.residual,
        "objective": result.objective,
        "chain_length": result.chain_length,
    }
    _emit(cfg.fmt, pairs, obj)
    return EXIT_OK


def _step_line(step) -> str:
    parts = [f"[{step.apparatus_index}] {step.rule}"]
    if step.branch is not None:
        parts.append(f"({step.branch}, weight {_fmt(step.weight)})")
    line = " ".join(parts)
    if step.note:
        line += f": {step.note}"
    return line


def cmd_chain(args) -> int:
    cfg = _config_from_args(args)
    chain = load_chain(args.scenario, cfg.tol)
    evaluation = evaluate_chain(chain, cfg.tol)
    pairs = [("value", _fmt(evaluation.value))]
    obj: dict = {
        "value": evaluation.value,
        "steps": [
            {
                "apparatus_index": s.apparatus_index,
                "rule": s.rule,
                "branch": s.branch,
                "weight": s.weight,
                "note": s.note,
            }
            for s in evaluation.steps
        ],
    }
    if args.record is not None:
        record_value = conditioned_on_record(chain, args.record, cfg.tol)
        pairs.append((f"value_given_{args.record}", _fmt(record_value)))
        obj[f"value_given_{args.record}"] = record_value
    if cfg.fmt == "table":
        _print_pairs(pairs)
        for step in evaluation.steps:
            print(f"  {_step_line(step)}")
    if args.sample:
        report = sample_chain(chain, cfg.trials, cfg.seed, workers=cfg.workers, tol=cfg.tol)
        sample_pairs = [
            ("trials", str(report.trials)),
            ("seed", str(report.seed)),
            ("workers", str(report.workers)),
        ]
        for key in sorted(report.outcome_counts):
            sample_pairs.append((f"count_{key}", str(report.outcome_counts[key])))
        for key in sorted(report.frequencies):
            sample_pairs.append((f"freq_{key}", _fmt(report.frequencies[key])))
        for key in sorted(report.analytic):
            sample_pairs.append((f"analytic_{key}", _fmt(report.analytic[key])))
        for key in sorted(report.detector_counts):
            sample_pairs.append((f"records_{key}", str(report.detector_counts[key])))
        sample_pairs.append(("max_abs_deviation", _fmt(report.max_abs_deviation)))
        obj["sample"] = {
            "trials": report.trials,
            "seed": report.seed,
            "workers": report.workers,
            "outcome_counts": report.outcome_counts,
            "frequencies": report.frequencies,
            "analytic": report.analytic,
            "detector_counts": report.detector_counts,
            "max_abs_deviation": report.max_abs_deviation,
        }
        if cfg.fmt == "table":
            _print_pairs(sample_pairs)
    if cfg.fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_slit(args) -> int:
    cfg = _config_from_args(args)
    model = load_slit_model(args.model, cfg.tol)
    points = double_slit_scan(model.preparation, model.slit1, model.slit2, model.detectors, cfg.tol)
    if cfg.fmt == "json":
        rows = [
            {"index": p.index, "coherent": p.coherent, "incoherent": p.incoherent, "defined": p.defined}
            for p in points
        ]
        print(json.dumps(rows, sort_keys=True, indent=2))
    else:
        sys.stdout.write(scan_to_csv(points))
    return EXIT_OK


def cmd_valuation(args) -> int:
    cfg = _config_from_args(args)
    problem = load_valuation(args.problem, cfg.tol)
    result = search_valuation(problem)
    verdict = "SAT" if result.satisfiable else "UNSAT"
    pairs = [("result", verdict), ("nodes_explored", str(result.nodes_explored))]
    if result.satisfiable:
        pairs.append(("true_indices", " ".join(str(i) for i in result.true_indices()) or "-"))
    obj = {
        "satisfiable": result.satisfiable,
        "nodes_explored": result.nodes_explored,
        "assignment": list(result.assignment) if result.assignment is not None else None,
        "true_indices": list(result.true_indices()),
    }
    _emit(cfg.fmt, pairs, obj)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--atol", type=float, default=1e-10, help="absolute comparison tolerance")
    parser.add_argument("--rtol", type=float, default=1e-10, help="relative comparison tolerance")
    parser.add_argument("--objectivity-tol", type=float, default=1e-9,
                        help="residual threshold for state-independence")
    parser.add_argument("--prob-floor", type=float, default=1e-12,
                        help="smallest usable conditioning probability")
    parser.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (the slit scan prints CSV in table mode)")
    parser.add_argument("--seed", type=int, default=42, help="pseudorandom seed for sampling")
    parser.add_argument("--trials", type=int, default=100000, help="number of sampling trials")
    parser.add_argument("--workers", type=int, default=1, help="independent sampling substreams")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcondprob",
        description="Conditional probabilities over classical and quantum event algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("condprob", help="conditional probability of an outcome in a state")
    p.add_argument("--state", required=True, help="state JSON file (density matrix or ensemble)")
    p.add_argument("--outcome", required=True, help="outcome event JSON file")
    p.add_argument("--event", required=True, action="append",
                   help="conditioning event JSON file; repeat to condition on a sequence in order")
    _add_common(p)
    p.set_defaults(func=cmd_condprob)

    p = sub.add_parser("objective", help="state-independence test for a conditioning sequence")
    p.add_argument("--outcome", required=True, help="outcome event JSON file")
    p.add_argument("--event", required=True, action="append",
                   help="conditioning event JSON file; repeat for a sequence in order")
    _add_common(p)
    p.set_defaults(func=cmd_objective)

    p = sub.add_parser("chain", help="evaluate an apparatus scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--record", choices=("positive", "negation"),
                   help="condition on the detector record showing this outlet")
    p.add_argument("--sample", action="store_true", help="also run a sampling comparison")
    _add_common(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("slit", help="two-slit detector scan (CSV)")
    p.add_argument("--model", required=True, help="slit model JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_slit)

    p = sub.add_parser("valuation", help="noncontextual truth-assignment search")
    p.add_argument("--problem", required=True, help="valuation problem JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_valuation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UndefinedProbabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (InvariantError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except QcpError as exc:  # pragma: no cover - no other subtypes today
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
