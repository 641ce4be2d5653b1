"""Conditional probability over classical and quantum event algebras.

Events are orthogonal projection matrices, states are density matrices,
and conditioning follows the compression rule

    mu(d | e) = trace(rho @ e @ d @ e) / trace(rho @ e).

The package detects when such a conditional probability is
state-independent, decomposes two-part conditions into classical and
interference contributions, evaluates and samples sequential apparatus
chains, and searches finite event collections for noncontextual truth
assignments.

Nothing below ``qcondprob`` is imported with the package itself.  Each
public name is looked up in ``_EXPORTS`` and its home module is imported
on first access (PEP 562), so a caller pays only for the modules it
uses: ``import qcondprob`` loads no submodule, and each command-line
subcommand loads only the modules it runs.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "errors": ("ConvergenceError", "InvariantError", "QcpError", "UndefinedProbabilityError", "ValidationError"),
    "tolerances": ("DEFAULT_TOL", "Tolerances", "clamp_probability", "probability_slack"),
    "events": ("Event", "commutes", "complement", "identity_event", "implies", "is_orthogonal", "lattice_meet",
               "validate_event", "zero_event"),
    "classical": ("ClassicalEvent", "ClassicalSpace", "classical_cond_prob", "classical_prob",
                  "classical_repeated", "embed_diagonal", "embed_event"),
    "conditioning": ("PureVector", "State", "cond_prob", "cond_state", "repeated_cond_prob", "state_value"),
    "objective": ("CondProbResult", "objective_cond_prob", "objective_seq", "pure_event_prob",
                  "state_from_outcome", "transition_prob"),
    "interference": ("InterferenceReport", "ScanPoint", "double_slit_scan", "incoherent_combine",
                     "objective_split", "split_cond_prob"),
    "experiments": ("Apparatus", "Chain", "ChainEvaluation", "SampleReport", "TraceStep", "conditioned_on_record",
                    "evaluate_chain", "sample_chain", "spin_projector", "spin_vector"),
    "valuation": ("MAX_EVENTS", "ValuationProblem", "ValuationResult", "search_valuation"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's home module on first access and keep the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
