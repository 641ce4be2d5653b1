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

Each ``cmd_*`` handler imports the library modules it calls, so a run
loads only what its subcommand uses, and builds one record of the run
from the library's result types, which ``_emit`` prints as JSON or a table.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .errors import QcpError, UndefinedProbabilityError, ValidationError
from .tolerances import DEFAULT_TOL, Tolerances

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDEFINED = 3
EXIT_INTERNAL = 4


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# The tolerance flags, by Tolerances field; each subcommand registers the ones it reads.
_TOL_HELP = {
    "atol": "absolute comparison tolerance",
    "rtol": "relative comparison tolerance",
    "objectivity_tol": "residual threshold for state-independence",
    "prob_floor": "smallest usable conditioning probability",
}


def _tol(args) -> Tolerances:
    return Tolerances(**{name: value for name, value in vars(args).items() if name in _TOL_HELP})


def _cell(value) -> str:
    """A table cell: floats by ``_fmt``, booleans in lower case, None as ``undefined``."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _fmt(value)
    return "undefined" if value is None else str(value)


def _print_rows(rows: dict) -> None:
    width = max(map(len, rows), default=0)
    for key, value in rows.items():
        print(f"{key.ljust(width)}  {_cell(value)}")


def _step_line(step: dict) -> str:
    line = f"[{step['apparatus_index']}] {step['rule']}"
    if step["branch"] is not None:
        line += f" ({step['branch']}, weight {_fmt(step['weight'])})"
    return line + (f": {step['note']}" if step["note"] else "")


# The table's row prefix for each tally of a chain's sample, as in ``count_positive``.
_TALLY_PREFIX = {"outcome_counts": "count_", "frequencies": "freq_", "analytic": "analytic_", "detector_counts": "records_"}


def _sample_rows(sample: dict) -> dict:
    """A sample's table block: its integer fields, each tally flattened in key order, then its float fields."""
    rows = {key: value for key, value in sample.items() if isinstance(value, int)}
    rows |= {prefix + key: sample[name][key] for name, prefix in _TALLY_PREFIX.items() for key in sorted(sample[name])}
    return rows | {key: value for key, value in sample.items() if isinstance(value, float)}


def _emit(fmt: str, record: dict | list) -> None:
    """Print a run's record: as one JSON value, or as the table's aligned ``key  value`` blocks.

    In a table, a list (a chain's trace) prints one indented line per step
    after the rows before it, and a dict (a chain's sample) prints as a
    block of its own.  A record that is itself a list of rows (the slit
    scan) prints as CSV: a header from the first row's keys, then each
    row's cells.
    """
    if fmt == "json":
        print(json.dumps(record, sort_keys=True, indent=2))
        return
    if isinstance(record, list):
        print(",".join(record[0]))
        for row in record:
            print(",".join(map(_cell, row.values())))
        return
    rows: dict = {}
    for key, value in record.items():
        if isinstance(value, list):
            _print_rows(rows)
            rows = {}
            for step in value:
                print(f"  {_step_line(step)}")
        elif isinstance(value, dict):
            _print_rows(rows)
            rows = _sample_rows(value)
        else:
            rows[key] = value
    _print_rows(rows)


def cmd_condprob(args) -> int:
    from .conditioning import repeated_cond_prob
    from .io import load_event, load_state

    tol = _tol(args)
    state = load_state(args.state, tol)
    outcome = load_event(args.outcome, tol)
    events = [load_event(path, tol) for path in args.event]
    _emit(args.format, {"value": repeated_cond_prob(state, outcome, events, tol)})
    return EXIT_OK


def cmd_objective(args) -> int:
    from .io import load_event
    from .objective import objective_seq

    tol = _tol(args)
    outcome = load_event(args.outcome, tol)
    events = [load_event(path, tol) for path in args.event]
    result = objective_seq(outcome, events, tol)
    _emit(args.format, {
        "value": result.value,
        "lambda_re": result.lam.real,
        "lambda_im": result.lam.imag,
        "residual": result.residual,
        "objective": result.objective,
        "chain_length": result.chain_length,
    })
    return EXIT_OK


def cmd_chain(args) -> int:
    from .experiments import conditioned_on_record, evaluate_chain, sample_chain
    from .io import load_chain

    tol = _tol(args)
    chain = load_chain(args.scenario, tol)
    evaluation = evaluate_chain(chain, tol)
    record: dict = {"value": evaluation.value}
    if args.record is not None:
        record[f"value_given_{args.record}"] = conditioned_on_record(chain, args.record, tol)
    record["steps"] = [step._asdict() for step in evaluation.steps]
    if args.sample:
        record["sample"] = asdict(sample_chain(chain, args.trials, args.seed, workers=args.workers, tol=tol))
    _emit(args.format, record)
    return EXIT_OK


def cmd_slit(args) -> int:
    from .interference import double_slit_scan
    from .io import load_slit_model

    tol = _tol(args)
    model = load_slit_model(args.model, tol)
    points = double_slit_scan(model.preparation, model.slit1, model.slit2, model.detectors, tol)
    rows = [asdict(point) for point in points]
    if args.format == "json":  # JSON has no NaN: an undefined scan prints null in JSON, nan in the CSV
        rows = [{key: None if math.isnan(value) else value for key, value in row.items()} for row in rows]
    _emit(args.format, rows)
    return EXIT_OK


def cmd_valuation(args) -> int:
    from .io import load_valuation
    from .valuation import search_valuation

    result = search_valuation(load_valuation(args.problem, _tol(args)))
    record = asdict(result) | {"true_indices": list(result.true_indices())}
    if args.format == "table":  # the verdict by name, and a SAT assignment by its true indices
        record = {"result": "SAT" if result.satisfiable else "UNSAT", "nodes_explored": result.nodes_explored}
        if result.satisfiable:
            record["true_indices"] = " ".join(map(str, result.true_indices())) or "-"
    _emit(args.format, record)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *tolerances: str) -> None:
    for name in ("atol", "rtol", *tolerances):
        parser.add_argument("--" + name.replace("_", "-"), type=float, default=getattr(DEFAULT_TOL, name),
                            help=_TOL_HELP[name])
    parser.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (the slit scan prints CSV in table mode)")


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
    _add_common(p, "prob_floor")
    p.set_defaults(func=cmd_condprob)

    p = sub.add_parser("objective", help="state-independence test for a conditioning sequence")
    p.add_argument("--outcome", required=True, help="outcome event JSON file")
    p.add_argument("--event", required=True, action="append",
                   help="conditioning event JSON file; repeat for a sequence in order")
    _add_common(p, "objectivity_tol", "prob_floor")
    p.set_defaults(func=cmd_objective)

    p = sub.add_parser("chain", help="evaluate an apparatus scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--record", choices=("positive", "negation"),
                   help="condition on the detector record showing this outlet")
    p.add_argument("--sample", action="store_true", help="also run a sampling comparison")
    p.add_argument("--seed", type=int, default=42, help="pseudorandom seed for sampling")
    p.add_argument("--trials", type=int, default=100000, help="number of sampling trials")
    p.add_argument("--workers", type=int, default=1, help="independent sampling substreams; each builds its own "
                   "seeded generator, so set-up grows with min(workers, trials)")
    _add_common(p, "prob_floor")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("slit", help="two-slit detector scan (CSV)")
    p.add_argument("--model", required=True, help="slit model JSON file")
    _add_common(p, "prob_floor")
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
    except QcpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValidationError):
            return EXIT_INPUT
        return EXIT_UNDEFINED if isinstance(exc, UndefinedProbabilityError) else EXIT_INTERNAL  # InvariantError


if __name__ == "__main__":
    sys.exit(main())
