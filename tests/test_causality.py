"""Cause extraction: conditions, bounded universes, projections, oracle."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import w, words
from reference import (
    Classification,
    classify_word,
    extension_universe,
    sub_cores,
    validate_computation,
)
from hmlcause import (
    CauseReport,
    Computation,
    Core,
    EffectContext,
    Exactness,
    cause_candidate,
    causal_projection,
    causes,
    default_bound,
    exploration_is_exact,
    format_state,
    make_lts,
    oracle_check_cause,
    oracle_check_details,
    parse_formula,
)
from hmlcause.testkit import fixture_context, fixtures

FIX = fixtures()


# ---------------------------------------------------------------- classify


def test_classify_word_examples():
    t3 = fixture_context("t3")
    t1 = fixture_context("t1")
    assert classify_word(t3, w("a")) is Classification.MIXED
    assert classify_word(t1, w("ah")) is Classification.ALL_VIOLATE
    assert classify_word(t1, w("a")) is Classification.ALL_SATISFY
    assert classify_word(t1, w("ha")) is Classification.NOT_EXECUTABLE


def test_classify_empty_word():
    t1 = fixture_context("t1")
    t2 = fixture_context("t2")
    assert classify_word(t1, ()) is Classification.ALL_VIOLATE
    assert classify_word(t2, ()) is Classification.ALL_SATISFY


# ---------------------------------------------------------------- universe


def test_extension_universe_linear():
    t1 = FIX["t1"][0]
    core = Core(("s10", "s11"), ("a",))
    assert extension_universe(t1, core, 2) == words("a", "ah")


def test_extension_universe_branching():
    t4 = FIX["t4"][0]
    core = Core(("s40", "s42"), ("a",))
    assert extension_universe(t4, core, 2) == words(
        "a", "ab", "ah", "abb", "abh"
    )


def test_extension_universe_bound_zero():
    t4 = FIX["t4"][0]
    core = Core(("s40", "s42"), ("a",))
    assert extension_universe(t4, core, 0) == words("a")


def test_extension_universe_rejects_foreign_core():
    t1 = FIX["t1"][0]
    with pytest.raises(ValueError):
        extension_universe(t1, Core(("s11", "s12"), ("h",)), 2)


# ---------------------------------------------------------------- candidate


def test_candidate_accepts_linear_handoff():
    t1 = fixture_context("t1")
    comp, report = cause_candidate(t1, Core(("s10", "s11"), ("a",)), 2)
    assert comp == Computation(("s10", "s11"), ("a",), ((w("h"),),))
    assert report.first_failed is None
    assert report.ac3 is None  # minimality is judged across candidates


def test_candidate_rejects_mixed_outcome():
    t3 = fixture_context("t3")
    comp, report = cause_candidate(t3, Core(("s30", "s31"), ("a",)), 2)
    assert comp is None
    assert report.ac1 is True
    assert report.ac2a is True
    assert report.ac2b is False
    assert report.first_failed == "AC2B"


def test_candidate_collects_branching_kills():
    t4 = fixture_context("t4")
    comp, report = cause_candidate(t4, Core(("s40", "s42"), ("a",)), 2)
    assert report.first_failed is None
    # extension words sorted by flattened trace, one list per gap
    assert comp == Computation(
        ("s40", "s42"), ("a",), ((w("bb"), w("bh"), w("h")),)
    )


def test_candidate_rejects_inconclusive_one_step_prefix():
    t6 = fixture_context("t6")
    comp, report = cause_candidate(t6, Core(("s60", "s61"), ("a",)), 3)
    assert comp is None
    assert report.ac2b is False


# ---------------------------------------------------------------- causes


def expect_single_cause(name, k, states, labels, kills, dlists):
    cause_set = causes(fixture_context(name), k)
    assert len(cause_set.causes) == 1
    report = cause_set.causes[0]
    assert report.computation.states == states
    assert report.computation.labels == labels
    assert report.kill_traces == kills
    assert report.computation.dlists == dlists
    return cause_set


def test_causes_linear_handoff():
    cause_set = expect_single_cause(
        "t1", 3, ("s10", "s11"), ("a",), words("ah"), ((w("h"),),)
    )
    assert cause_set.exactness is Exactness.EXACT
    assert cause_set.bound == 3
    assert not cause_set.immediate


def test_causes_branching_disablers():
    expect_single_cause(
        "t4",
        3,
        ("s40", "s42"),
        ("a",),
        words("ah", "abb", "abh"),
        ((w("bb"), w("bh"), w("h")),),
    )


def test_causes_nondeterministic_mix_empty():
    cause_set = causes(fixture_context("t3"), 3)
    assert cause_set.causes == ()
    assert cause_set.exactness is Exactness.EXACT


def test_causes_self_loop_truncated():
    cause_set = expect_single_cause(
        "t5",
        4,
        ("s50", "s51"),
        ("a",),
        words("ah", "aih", "aiih", "aiiih"),
        ((w("h"), w("ih"), w("iih"), w("iiih")),),
    )
    assert cause_set.exactness is Exactness.BOUNDED_APPROX
    assert cause_set.causes[0].computation.truncated


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_causes_self_loop_kills_grow_with_bound(k):
    cause_set = causes(fixture_context("t5"), k)
    assert len(cause_set.causes) == 1
    expected = frozenset(
        ("a",) + ("i",) * j + ("h",) for j in range(k)
    )
    assert cause_set.causes[0].kill_traces == expected


def test_causes_two_step_core_on_both_branches():
    cause_set = causes(fixture_context("t6"), 3)
    assert len(cause_set.causes) == 2
    by_states = {c.computation.states: c for c in cause_set.causes}
    assert set(by_states) == {("s60", "s61", "s62"), ("s60", "s63", "s65")}
    for report in cause_set.causes:
        assert report.computation.labels == ("a", "b")
        assert report.kill_traces == words("abh")
    assert by_states[("s60", "s61", "s62")].computation.dlists == (
        ((),),
        (w("h"),),
    )
    # no single-step cause survives
    assert all(c.computation.labels != ("a",) for c in cause_set.causes)


def test_causes_sharing_a_word_are_ordered_by_their_formatted_states():
    # nondeterminism gives the core word a b two cores, which differ in
    # their middle state.  Causes come by label word, then by formatted
    # states, where "10" comes before "9"
    lts = make_lts(
        0,
        [
            (0, "a", 9),
            (0, "a", 10),
            (0, "c", 5),
            (9, "b", 1),
            (10, "b", 1),
            (5, "b", 1),
            (1, "d", 2),
        ],
    )
    found = causes(EffectContext(lts, parse_formula("<d>tt")), 3).causes
    cores = [(c.computation.labels, c.computation.states) for c in found]
    assert cores == [
        (("a", "b"), (0, 10, 1)),
        (("a", "b"), (0, 9, 1)),
        (("c", "b"), (0, 5, 1)),
    ]
    assert cores == sorted(
        cores, key=lambda core: (core[0], tuple(map(format_state, core[1])))
    )


def test_causes_immediate_effect_without_escape():
    cause_set = causes(fixture_context("t2"), 3)
    assert cause_set.immediate
    assert cause_set.causes == ()
    assert cause_set.exactness is Exactness.BOUNDED_APPROX


def _immediate_effect_with_escape():
    lts = make_lts(
        "q0", [("q0", "h", "q0"), ("q0", "a", "q1")]
    )
    return EffectContext(lts, parse_formula("<h>tt"))


def test_causes_immediate_effect_with_escape():
    ctx = _immediate_effect_with_escape()
    cause_set = causes(ctx, 3)
    assert cause_set.immediate
    assert len(cause_set.causes) == 1
    comp = cause_set.causes[0].computation
    assert comp.is_trivial and comp.states == ("q0",)
    assert cause_set.causes[0].kill_traces == frozenset()


@pytest.mark.parametrize("k", range(5))
def test_the_empty_core_is_judged_like_any_other(k):
    # the system is cyclic, so no bound is exact; the empty core passes
    # AC1, AC2(a) and AC2(b) at every bound, and minimality then leaves it
    # the only cause
    ctx = _immediate_effect_with_escape()
    empty = Computation(("q0",), (), ())
    cause_set = causes(ctx, k)
    assert cause_set.causes == (CauseReport(empty, frozenset()),)
    assert not cause_set.causes[0].computation.truncated
    comp, report = cause_candidate(ctx, Core(("q0",), ()), k)
    assert comp == empty
    assert (report.ac1, report.ac2a, report.ac2b) == (True, True, True)


@pytest.mark.parametrize("name", ["t1", "t3", "t4", "t6", "fig3_t", "fig3_tp"])
def test_a_huge_bound_on_an_acyclic_system_ends_with_its_levels(name):
    # the level loop stops at the first empty level, not at the bound
    ctx = fixture_context(name)
    longest = causes(ctx, len(ctx.lts.states))
    start = time.perf_counter()
    huge = causes(ctx, 10**18)
    assert time.perf_counter() - start < 2.0
    assert huge.exactness is Exactness.EXACT
    assert [c.to_json() for c in huge.causes] == [
        c.to_json() for c in longest.causes
    ]
    assert not any(c.computation.truncated for c in huge.causes)


@pytest.mark.parametrize("escapes", [True, False], ids=["cause", "no-escape"])
def test_a_huge_bound_stops_once_the_empty_core_is_judged(escapes):
    # cyclic, so only the loop's stop rules end it: the empty core is a
    # cause and no core extends it, or it fails AC2(a) and so does every core
    ctx = _immediate_effect_with_escape() if escapes else fixture_context("t2")
    start = time.perf_counter()
    cause_set = causes(ctx, 10**18)
    assert time.perf_counter() - start < 2.0
    assert [c.computation.labels for c in cause_set.causes] == ([()] if escapes else [])


@pytest.mark.parametrize(
    "transitions, effect, cause_words",
    [
        # no state satisfies the effect, so the empty core cannot reach it
        ([(0, "a", 0), (0, "b", 1)], "<b><a>tt", []),
        # a leads into a loop outside the effect, b into the effect
        ([(0, "a", 1), (1, "a", 1), (0, "b", 2)], "[a]ff", [("b",)]),
    ],
    ids=["spin-no-cause", "loop-off-the-effect"],
)
def test_a_huge_bound_stops_once_no_open_core_can_reach_the_effect(
    transitions, effect, cause_words
):
    # cyclic, so no level is empty: a core whose last state has no path
    # into the effect fails AC1 with every extension, and is not extended
    ctx = EffectContext(make_lts(0, transitions), parse_formula(effect))
    start = time.perf_counter()
    cause_set = causes(ctx, 10**18)
    assert time.perf_counter() - start < 2.0
    assert [c.computation.labels for c in cause_set.causes] == cause_words


def test_causes_default_bound_is_state_count():
    t1 = fixture_context("t1")
    assert default_bound(t1.lts) == 3
    assert causes(t1).bound == 3


def test_cause_set_json_schema():
    obj = causes(fixture_context("t4"), 3).to_json()
    assert set(obj) == {"effect", "bound", "exactness", "causes"}
    assert obj["effect"] == "<h>tt"
    assert obj["bound"] == 3
    assert obj["exactness"] == "exact"
    assert obj["causes"] == [
        {
            "core": {"states": ["s40", "s42"], "labels": ["a"]},
            "kill_traces": [["a", "b", "b"], ["a", "b", "h"], ["a", "h"]],
            "dlists": [[["b", "b"], ["b", "h"], ["h"]]],
        }
    ]


# ---------------------------------------------------------------- exactness


def test_exploration_exactness_rule():
    t1 = FIX["t1"][0]
    t2 = FIX["t2"][0]
    assert exploration_is_exact(t1, 2)
    assert not exploration_is_exact(t1, 1)
    assert not exploration_is_exact(t2, 99)


@pytest.mark.parametrize("name", ["t1", "t3", "t4", "t6"])
def test_causes_stable_past_longest_path(name):
    ctx = fixture_context(name)
    k = len(ctx.lts.states)
    lo = causes(ctx, k)
    hi = causes(ctx, k + 1)
    assert lo.exactness is Exactness.EXACT
    assert [c.to_json() for c in lo.causes] == [
        c.to_json() for c in hi.causes
    ]


# ---------------------------------------------------------------- projection


def test_projection_linear():
    proj = causal_projection(fixture_context("t1"), 3)
    assert proj.transitions == frozenset({("s10", "a", "s11")})
    assert proj.states == frozenset({"s10", "s11"})
    assert proj.initial == "s10"


def test_projection_empty_keeps_initial():
    proj = causal_projection(fixture_context("t3"), 3)
    assert proj.transitions == frozenset()
    assert proj.states == frozenset({"s30"})
    assert proj.alphabet == FIX["t3"][0].alphabet


def test_projection_two_step_path():
    proj = causal_projection(fixture_context("fig3_tp"), 4)
    assert proj.transitions == frozenset(
        {("p0", "d", "p1"), ("p1", "e", "p2")}
    )


# ---------------------------------------------------------------- oracle


@pytest.mark.parametrize("name", ["t1", "t4", "t5", "t6"])
def test_oracle_confirms_emitted_causes(name):
    ctx = fixture_context(name)
    k = 4
    for report in causes(ctx, k).causes:
        assert oracle_check_cause(ctx, report.computation, k)
        assert validate_computation(ctx.lts, report.computation).valid


def test_oracle_accepts_long_kill_lists():
    # 1200 kill traces on the self-loop fixture, one extension entry each
    ctx = fixture_context("t5")
    k = 1200
    (report,) = causes(ctx, k).causes
    assert len(report.kill_traces) == k
    assert oracle_check_cause(ctx, report.computation, k)


def test_oracle_rejects_emptied_kill_list():
    t1 = fixture_context("t1")
    hollow = Computation(("s10", "s11"), ("a",), ((),))
    details = oracle_check_details(t1, hollow, 3)
    assert details["ac2b"] is False
    assert not oracle_check_cause(t1, hollow, 3)


def test_oracle_rejects_epsilon_placeholder_kills():
    t4 = fixture_context("t4")
    hollow = Computation(("s40", "s42"), ("a",), (((),),))
    details = oracle_check_details(t4, hollow, 3)
    assert details["ac2b"] is False
    assert details["ac2c"] is True


def test_oracle_rejects_non_executable_core():
    t1 = fixture_context("t1")
    broken = Computation(("s10", "s12"), ("a",), ((),))
    details = oracle_check_details(t1, broken, 3)
    assert details["valid_path"] is False
    assert not oracle_check_cause(t1, broken, 3)


@pytest.mark.parametrize(
    "states, labels",
    [(("s10", "zz"), ("a",)), (("zz",), ())],
    ids=["one-step", "zero-step"],
)
def test_oracle_rejects_a_core_off_the_system(states, labels):
    t1 = fixture_context("t1")
    broken = Computation(states, labels, ((),) * len(labels))
    details = oracle_check_details(t1, broken, 3)
    assert details["valid_path"] is False
    assert not oracle_check_cause(t1, broken, 3)


def test_oracle_rejects_non_minimal_core():
    t4 = fixture_context("t4")
    comp, report = cause_candidate(
        t4, Core(("s40", "s42", "s43"), ("a", "b")), 3
    )
    # the constructive conditions pass in isolation ...
    assert comp is not None and report.first_failed is None
    # ... but the one-step prefix is itself a cause, so minimality fails
    details = oracle_check_details(t4, comp, 3)
    assert details["ac2b"] is True
    assert details["ac3"] is False


def test_a_candidate_and_the_oracle_refuse_a_negative_bound():
    # at k=0 the core a of t1 is truncated; a negative bound is no bound at
    # all, as `causes` says, so neither may answer for it
    t1 = fixture_context("t1")
    core = Core(("s10", "s11"), ("a",))
    comp, _ = cause_candidate(t1, core, 0)
    assert comp is not None and comp.truncated
    for check in (cause_candidate, oracle_check_details, oracle_check_cause):
        with pytest.raises(ValueError, match="bound must be nonnegative"):
            check(t1, core if check is cause_candidate else comp, -1)


# ---------------------------------------------------------------- properties


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["t1", "t4", "t5", "t6"]),
    k=st.integers(0, 3),
)
def test_universe_monotone_in_bound(name, k):
    ctx = fixture_context(name)
    for report in causes(ctx, 4).causes:
        if report.computation.is_trivial:
            continue
        core = report.computation.core
        smaller = extension_universe(ctx.lts, core, k)
        larger = extension_universe(ctx.lts, core, k + 1)
        assert smaller <= larger


@settings(max_examples=20, deadline=None, derandomize=True)
@given(name=st.sampled_from(["t1", "t4", "t6"]), k=st.integers(2, 4))
def test_no_accepted_core_has_successful_sub_core(name, k):
    ctx = fixture_context(name)
    for report in causes(ctx, k).causes:
        core = report.computation.core
        for sub in sub_cores(ctx.lts, core):
            if sub.labels == ():
                continue
            sub_comp, _ = cause_candidate(ctx, sub, k)
            assert sub_comp is None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(name=st.sampled_from(["t1", "t3", "t4", "t5", "t6"]), k=st.integers(1, 4))
def test_kill_traces_disjoint_from_core_and_all_violate(name, k):
    ctx = fixture_context(name)
    for report in causes(ctx, k).causes:
        comp = report.computation
        if comp.is_trivial:
            continue
        assert comp.labels not in report.kill_traces
        assert classify_word(ctx, comp.labels) is Classification.ALL_SATISFY
        for trace in report.kill_traces:
            assert classify_word(ctx, trace) is Classification.ALL_VIOLATE
