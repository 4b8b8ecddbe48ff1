"""The package's public surface: what `hmlcause` exports and how a corpus is
drawn.  A name that only the tests need lives under `tests/`, so adding one
here shows up as a diff of this list."""

from __future__ import annotations

import inspect

import hmlcause
from hmlcause import testkit

PUBLIC = [
    "And",
    "AutParseError",
    "Box",
    "CHOICE_INITIAL",
    "CauseReport",
    "CauseSet",
    "Classification",
    "Computation",
    "ConditionReport",
    "Core",
    "CorpusInstance",
    "CrossCheckReport",
    "Diamond",
    "EffectContext",
    "Exactness",
    "FF",
    "Formula",
    "FormulaParseError",
    "GenParams",
    "Lts",
    "Not",
    "Or",
    "PreconditionReport",
    "TT",
    "TheoremReport",
    "Top",
    "causal_projection",
    "cause_candidate",
    "causes",
    "check_preconditions",
    "choice",
    "classify_word",
    "computation_traces",
    "corpus",
    "cross_check_disjunction_lifting",
    "cross_check_single_component",
    "default_bound",
    "emit_aut",
    "emit_dot",
    "exploration_is_exact",
    "fixture_context",
    "fixtures",
    "format_formula",
    "format_state",
    "formula_alphabet",
    "gen_effect",
    "gen_lts",
    "interleave",
    "is_acyclic",
    "is_immediate_effect",
    "isomorphic",
    "longest_acyclic_path",
    "make_lts",
    "oracle_check_cause",
    "oracle_check_details",
    "parse_aut",
    "parse_formula",
    "project_word",
    "reach",
    "reachable_states",
    "restrict_to_reachable",
    "satisfies",
    "shrink_counterexample",
    "size_compatible",
    "states_satisfying",
    "step",
    "subwords",
    "trivial_computation",
    "verify_conjunction_theorem",
    "verify_disjunction_theorem",
    "write_counterexample_bundle",
]


def test_public_names_are_the_listed_ones():
    # submodules become attributes once imported, so they are not counted
    names = sorted(
        name
        for name, value in vars(hmlcause).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC


def test_corpus_takes_only_a_count_and_a_seed():
    assert list(inspect.signature(testkit.corpus).parameters) == ["count", "seed"]
