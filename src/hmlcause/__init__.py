"""Actual-cause analysis for modal-logic effects over labeled transition
systems, with causal projections and compositional-law verification."""

import importlib

# Each public name, by the submodule that defines it.  `import hmlcause` loads
# no submodule; a name's home is imported when the name is first read.
_EXPORTS = {
    "causality": (
        "CauseReport",
        "CauseSet",
        "ConditionReport",
        "Exactness",
        "causal_projection",
        "cause_candidate",
        "causes",
        "default_bound",
        "exploration_is_exact",
    ),
    "composition": (
        "CrossCheckReport",
        "PreconditionReport",
        "TheoremReport",
        "check_preconditions",
        "cross_check_disjunction_lifting",
        "cross_check_single_component",
        "shrink_counterexample",
        "verify_conjunction_theorem",
        "verify_disjunction_theorem",
        "write_counterexample_bundle",
    ),
    "computation": (
        "Computation",
        "Core",
        "computation_traces",
    ),
    "hml": (
        "And",
        "Box",
        "Diamond",
        "EffectContext",
        "FF",
        "Formula",
        "FormulaParseError",
        "Not",
        "Or",
        "TT",
        "Top",
        "format_formula",
        "formula_alphabet",
        "is_immediate_effect",
        "parse_formula",
        "satisfies",
        "states_satisfying",
    ),
    "lts": (
        "AutParseError",
        "CHOICE_INITIAL",
        "Lts",
        "choice",
        "emit_aut",
        "emit_dot",
        "format_state",
        "interleave",
        "longest_acyclic_path",
        "make_lts",
        "parse_aut",
        "reachable_states",
        "step",
    ),
    "oracle": (
        "oracle_check_cause",
        "oracle_check_details",
    ),
    "testkit": (
        "CorpusInstance",
        "GenParams",
        "corpus",
        "gen_effect",
        "gen_lts",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
