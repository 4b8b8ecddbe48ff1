"""Actual-cause analysis for modal-logic effects over labeled transition
systems, with causal projections and compositional-law verification."""

from .causality import (
    Classification,
    CauseReport,
    CauseSet,
    ConditionReport,
    Exactness,
    causal_projection,
    cause_candidate,
    causes,
    classify_word,
    default_bound,
    exploration_is_exact,
    oracle_check_cause,
    oracle_check_details,
)
from .composition import (
    CrossCheckReport,
    PreconditionReport,
    TheoremReport,
    check_preconditions,
    cross_check_disjunction_lifting,
    cross_check_single_component,
    shrink_counterexample,
    verify_conjunction_theorem,
    verify_disjunction_theorem,
    write_counterexample_bundle,
)
from .computation import (
    Computation,
    Core,
    computation_traces,
    size_compatible,
    trivial_computation,
)
from .hml import (
    And,
    Box,
    Diamond,
    EffectContext,
    FF,
    Formula,
    FormulaParseError,
    Not,
    Or,
    TT,
    Top,
    format_formula,
    formula_alphabet,
    is_immediate_effect,
    parse_formula,
    satisfies,
    states_satisfying,
)
from .lts import (
    AutParseError,
    CHOICE_INITIAL,
    Lts,
    choice,
    emit_aut,
    emit_dot,
    format_state,
    interleave,
    is_acyclic,
    isomorphic,
    longest_acyclic_path,
    make_lts,
    parse_aut,
    project_word,
    reach,
    reachable_states,
    restrict_to_reachable,
    step,
    subwords,
)
from .testkit import (
    CorpusInstance,
    GenParams,
    corpus,
    fixture_context,
    fixtures,
    gen_effect,
    gen_lts,
)

__version__ = "0.1.0"
