"""Transition-system core: parsing, serialization, reachability, words and
composition."""

from __future__ import annotations

import gc
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fixture_context, init_actions, seeded_lts, w, words
from reference import (
    brute_longest_acyclic_path,
    project_word,
    reach,
    searched_interleave,
    subwords,
    successors,
)
from hmlcause import (
    And,
    AutParseError,
    CHOICE_INITIAL,
    EffectContext,
    GenParams,
    Lts,
    causal_projection,
    causes,
    choice,
    cross_check_disjunction_lifting,
    cross_check_single_component,
    emit_aut,
    emit_dot,
    gen_effect,
    gen_lts,
    interleave,
    longest_acyclic_path,
    make_lts,
    oracle_check_cause,
    parse_aut,
    parse_formula,
    reachable_states,
    states_satisfying,
    verify_conjunction_theorem,
    verify_disjunction_theorem,
)
from hmlcause import composition
from hmlcause import lts as lts_module
from hmlcause.testkit import corpus

T1_AUT = 'des (0,2,3)\n(0,"a",1)\n(1,"h",2)\n'


# ---------------------------------------------------------------- parsing


def test_parse_aut_linear():
    lts = parse_aut(T1_AUT)
    assert lts.states == frozenset({0, 1, 2})
    assert lts.initial == 0
    assert lts.alphabet == frozenset({"a", "h"})
    assert lts.transitions == frozenset({(0, "a", 1), (1, "h", 2)})


def test_parse_aut_single_state():
    lts = parse_aut("des (0,0,1)\n")
    assert lts.states == frozenset({0})
    assert lts.alphabet == frozenset()
    assert lts.transitions == frozenset()


def test_parse_aut_index_out_of_range():
    with pytest.raises(AutParseError, match="out of range"):
        parse_aut('des (0,1,1)\n(0,"a",5)\n')


def test_parse_aut_malformed_header():
    with pytest.raises(AutParseError, match="header"):
        parse_aut('desx (0,1,2)\n(0,"a",1)\n')


def test_parse_aut_unterminated_label():
    with pytest.raises(AutParseError, match="unterminated"):
        parse_aut('des (0,1,2)\n(0,"a,1)\n')


def test_parse_aut_alphabet_directive():
    lts = parse_aut('des (0,1,2)\n(0,"a",1)\n#alphabet: h x\n')
    assert lts.alphabet == frozenset({"a", "h", "x"})


def test_emit_parse_round_trip_on_fixture():
    text = emit_aut(fixture_context("t4").lts)
    assert emit_aut(parse_aut(text)) == text


# ---------------------------------------------------------------- dot


def test_emit_dot_plain():
    t1 = fixture_context("t1").lts
    dot = emit_dot(t1)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert dot.count("->") == len(t1.transitions)


# ---------------------------------------------------------------- words


def test_reach_examples():
    t1 = fixture_context("t1").lts
    t3 = fixture_context("t3").lts
    assert reach(t1, 0, w("ah")) == frozenset({2})
    assert reach(t3, 0, w("a")) == frozenset({1, 2})
    assert reach(t1, 0, w("hh")) == frozenset()


def test_reach_epsilon_reflexive():
    t4 = fixture_context("t4").lts
    for s in t4.states:
        assert reach(t4, s, ()) == frozenset({s})


def test_reach_unknown_state():
    with pytest.raises(ValueError):
        reach(fixture_context("t1").lts, "nope", ())


def test_init_actions_examples():
    t1 = fixture_context("t1").lts
    t4 = fixture_context("t4").lts
    assert init_actions(t1, 0) == frozenset({"a"})
    assert init_actions(t1, 2) == frozenset()
    assert init_actions(t4, 1) == frozenset({"h", "b"})


def test_subwords_examples():
    assert subwords(w("ab")) == frozenset({(), w("a"), w("b")})
    assert subwords(w("a")) == frozenset({()})
    assert subwords(w("aba")) == words("", "a", "b", "ab", "ba", "aa")
    # the word itself is never a subword, and the empty word has none
    assert subwords(()) == frozenset()


def test_project_word_examples():
    assert project_word(w("adbe"), {"a", "b"}) == w("ab")
    assert project_word((), {"a"}) == ()
    assert project_word(w("ddd"), {"a"}) == ()


# ---------------------------------------------------------------- composition


def test_interleave_frozen_right_component():
    t1 = fixture_context("t1").lts
    unit = make_lts("u", [])
    prod = interleave(t1, unit)
    assert prod.states == {(s, "u") for s in t1.states}
    assert prod.initial == (t1.initial, "u")
    assert prod.transitions == {
        ((s, "u"), a, (t, "u")) for s, a, t in t1.transitions
    }


def test_interleave_fig3_transitions():
    left = fixture_context("fig3_t").lts
    right = fixture_context("fig3_tp").lts
    prod = interleave(left, right)
    assert ((0, 0), "a", (1, 0)) in prod.transitions
    assert ((0, 0), "d", (0, 1)) in prod.transitions
    assert prod.initial == (0, 0)
    assert prod.alphabet == left.alphabet | right.alphabet


def test_interleave_reachable_count():
    t1 = fixture_context("t1").lts
    copy = make_lts("x10", [("x10", "c", "x11"), ("x11", "k", "x12")])
    assert len(interleave(t1, copy).states) == 9


def _copy(lts: Lts) -> Lts:
    return Lts(lts.states, lts.initial, lts.alphabet, lts.transitions)


def _fig3() -> tuple:
    return fixture_context("fig3_t").lts, fixture_context("fig3_tp").lts


def test_interleave_returns_the_product_it_built_for_the_pair():
    left, right = _fig3()
    assert interleave(left, right) is interleave(left, right)


def test_interleave_of_equal_components_gives_equal_products():
    left, right = _fig3()
    product = interleave(left, right)
    # the product is kept on the left component with its right one, and an
    # equal right component finds it
    assert interleave(left, _copy(right)) is product
    again = interleave(_copy(left), _copy(right))
    assert again is not product
    assert again == product


def test_a_product_is_freed_with_its_left_component():
    left, right = _fig3()
    product = weakref.ref(interleave(left, right))
    gc.collect()
    assert product() is not None
    del left
    gc.collect()
    assert product() is None


def test_a_component_keeps_only_its_last_product():
    # shrinking a counterexample interleaves one component with many others
    left, right = _fig3()
    first = weakref.ref(interleave(left, right))
    interleave(left, fixture_context("t1").lts)
    gc.collect()
    assert first() is None


def test_the_laws_and_lemmas_build_one_product_per_pair(monkeypatch):
    # the pair's product, shared by the four checks, and the conjunction's
    # product of the component projections
    built: list = []

    def recording(left, right):
        product = interleave(left, right)
        if not any(product is seen for seen in built):
            built.append(product)
        return product

    monkeypatch.setattr(composition, "interleave", recording)
    inst = list(corpus(1, seed=7))[0]
    left, right, k = inst.left, inst.right, inst.bound
    for verify in (verify_disjunction_theorem, verify_conjunction_theorem):
        assert verify(left, right, k).verdict == "holds"
    for check in (cross_check_disjunction_lifting, cross_check_single_component):
        assert check(left, right, k).ok
    assert len(built) == 2
    assert built[0] is interleave(left.lts, right.lts)
    assert built[1] == interleave(
        causal_projection(left, k), causal_projection(right, k)
    )


def test_choice_initial_actions_union():
    t1 = fixture_context("t1").lts
    other = make_lts("x10", [("x10", "c", "x11"), ("x11", "k", "x12")])
    sum_lts = choice(t1, other)
    assert sum_lts.initial == CHOICE_INITIAL
    assert init_actions(sum_lts, CHOICE_INITIAL) == init_actions(
        t1, 0
    ) | init_actions(other, "x10")
    outgoing = [t for t in sum_lts.transitions if t[0] == CHOICE_INITIAL]
    assert len(outgoing) == 2


def test_choice_preserves_tail_behavior():
    t1 = fixture_context("t1").lts
    other = make_lts("x10", [("x10", "c", "x11"), ("x11", "k", "x12")])
    sum_lts = choice(t1, other)
    assert ("L:1", "h", "L:2") in sum_lts.transitions
    assert ("R:x11", "k", "R:x12") in sum_lts.transitions


# ---------------------------------------------------------------- shape


def test_acyclicity_and_longest_path():
    t1 = fixture_context("t1").lts
    t2 = fixture_context("t2").lts
    t5 = fixture_context("t5").lts
    assert longest_acyclic_path(t1) == 2
    assert longest_acyclic_path(t2) is None
    assert longest_acyclic_path(t5) is None


def test_longest_acyclic_path_leaves_no_garbage():
    systems = [fixture_context(name).lts for name in ("t1", "t2", "t4", "t5", "t6")]
    # collect what earlier code left before saving anything, so the test
    # sees only the cycles made by the calls below, whatever ran before it
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        for lts in systems:
            longest_acyclic_path(lts)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_longest_acyclic_path_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("the recursion limit was changed")

    limit = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    chain = make_lts(0, [(i, "a", i + 1) for i in range(5000)])
    assert longest_acyclic_path(chain) == 5000
    assert sys.getrecursionlimit() == limit


def test_reachable_states_and_heights_are_computed_once_per_system():
    # the laws, the lemmas and the oracle ask each system, component or
    # product, for its reachable states and its heights many times.  A
    # component computes each once; a product is born with both.  Each
    # computation is counted by its code object, so a call through any
    # name a module bound it to counts too
    seen: list = []
    counts: dict = {}
    names = {lts_module._walk.__code__: "walk", lts_module._settle.__code__: "settle"}

    def count(frame, event, arg):
        name = names.get(frame.f_code) if event == "call" else None
        if name is not None:
            lts = frame.f_locals["lts"]
            if not any(lts is system for system in seen):
                seen.append(lts)
            counts[name, id(lts)] = counts.get((name, id(lts)), 0) + 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        inst = list(corpus(1, seed=7))[0]
        left, right, k = inst.left, inst.right, inst.bound
        for verify in (verify_disjunction_theorem, verify_conjunction_theorem):
            verify(left, right, k)
        for check in (cross_check_disjunction_lifting, cross_check_single_component):
            check(left, right, k)
        product = interleave(left.lts, right.lts)
        for ctx in (left, right, EffectContext(product, left.formula)):
            for report in causes(ctx, k).causes:
                assert oracle_check_cause(ctx, report.computation, k)
    finally:
        sys.setprofile(previous)
    assert any(system is left.lts for system in seen)
    assert set(counts.values()) == {1}
    # every state of a generated system is reachable, and kept once
    assert reachable_states(left.lts) is left.lts.states
    for system in seen:
        assert longest_acyclic_path(system) == brute_longest_acyclic_path(system)
    assert longest_acyclic_path(product) == brute_longest_acyclic_path(product)
    searched = searched_interleave(left.lts, right.lts)
    assert reachable_states(product) == searched.states
    assert not any(system is product for system in seen)


def test_choice_drops_unreachable_operand_states_and_their_edges():
    # neither operand's initial state is entered again, b0 and d0 are never
    # reached, and d0's z-edge leads into a state that is
    left = make_lts("a0", [("a0", "x", "a1"), ("b0", "x", "b1")])
    right = make_lts("c0", [("c0", "y", "c1"), ("d0", "y", "d0"), ("d0", "z", "c1")])
    sum_lts = choice(left, right)
    assert sum_lts.states == frozenset({CHOICE_INITIAL, "L:a1", "R:c1"})
    assert sum_lts.transitions == frozenset(
        {(CHOICE_INITIAL, "x", "L:a1"), (CHOICE_INITIAL, "y", "R:c1")}
    )
    assert sum_lts.alphabet == frozenset({"x", "y", "z"})


_edges = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from("ab"), st.integers(0, 4)),
    max_size=8,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(left=_edges, right=_edges)
def test_choice_keeps_exactly_the_reachable_part_of_each_operand(left, right):
    operands = {"L": make_lts(0, left), "R": make_lts(0, right)}
    sum_lts = choice(operands["L"], operands["R"])
    assert reachable_states(sum_lts) == sum_lts.states
    assert all(t[0] in sum_lts.states for t in sum_lts.transitions)
    for state in sum_lts.states - {CHOICE_INITIAL}:
        side, name = state.split(":")
        operand = operands[side]
        assert sorted(sum_lts.outgoing(state)) == sorted(
            (label, f"{side}:{dst}") for label, dst in operand.outgoing(int(name))
        )


# ---------------------------------------------------------------- the memo


def _fresh_t4() -> Lts:
    t4 = fixture_context("t4").lts
    return Lts(t4.states, t4.initial, t4.alphabet, t4.transitions)


def test_untraversed_system_equals_and_hashes_like_a_traversed_one():
    fresh, walked = _fresh_t4(), _fresh_t4()
    reachable_states(walked)
    assert fresh._memo == {} and "out" in walked._memo
    assert fresh == walked and hash(fresh) == hash(walked)
    assert {fresh: 1}[walked] == 1


def test_causes_over_untraversed_system_are_equal_and_kept_per_system():
    formula = parse_formula("<h>tt")
    walked = _fresh_t4()
    first = causes(EffectContext(walked, formula), 3)
    fresh = _fresh_t4()
    assert fresh._memo == {}
    again = causes(EffectContext(fresh, formula), 3)
    assert again == first and again is not first
    assert causes(EffectContext(fresh, formula), 3) is again
    assert causes(EffectContext(walked, formula), 3) is first


def test_a_system_and_its_memo_are_freed_together():
    formula = parse_formula("<h>tt")
    system = _fresh_t4()
    product = interleave(system, fixture_context("t1").lts)
    causes(EffectContext(system, formula), 3)
    causes(EffectContext(product, formula), 3)
    states_satisfying(system, formula)
    dead = weakref.ref(system), weakref.ref(product)
    del system, product
    gc.collect()
    assert [ref() for ref in dead] == [None, None]


def _both_effects(seed: int) -> EffectContext:
    """The "both effects" context of two small cyclic components."""
    sides = []
    for namespace in ("L", "R"):
        params = GenParams(seed=seed, max_states=4, acyclic=False, namespace=namespace)
        lts = gen_lts(params)
        sides.append(EffectContext(lts, gen_effect(params, lts)))
    left, right = sides
    return EffectContext(
        interleave(left.lts, right.lts), And(left.formula, right.formula)
    )


def test_causes_on_throwaway_systems_leave_no_memory_behind():
    # 80 cause sets on throwaway systems, whose memos hold about 1.8 MB
    # between them and die with the systems; what stays traced afterwards
    # is the interpreter's free lists, about 0.1 MB
    for seed in range(10):
        causes(_both_effects(seed), 4)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for seed in range(10, 50):
            for k in (4, 5):
                assert causes(_both_effects(seed), k).bound == k
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 512 * 1024


@pytest.mark.parametrize(
    "transitions, alphabet",
    [
        ([("s0", "a", "s9")], {"a"}),
        ([("s9", "a", "s0")], {"a"}),
        ([("s0", "b", "s1")], {"a"}),
    ],
    ids=["unknown-target", "unknown-source", "label-outside-alphabet"],
)
def test_bad_transition_is_rejected_at_construction(transitions, alphabet):
    with pytest.raises(ValueError):
        Lts(frozenset({"s0", "s1"}), "s0", frozenset(alphabet), frozenset(transitions))


def test_outgoing_of_unknown_state_raises_on_the_first_call():
    fresh = _fresh_t4()
    assert fresh._memo == {}
    with pytest.raises(ValueError, match="unknown state"):
        fresh.outgoing("nowhere")


# ---------------------------------------------------------------- properties

short_words = st.lists(
    st.sampled_from(["La", "Lb", "Lc"]), max_size=4
).map(tuple)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 400), word=short_words)
def test_reach_step_rule(seed, word):
    """Appending one letter to the word composes with a single step."""
    lts = seeded_lts(seed, namespace="L")
    for label in sorted(lts.alphabet):
        direct = reach(lts, lts.initial, word + (label,))
        prefix = reach(lts, lts.initial, word)
        stepped = frozenset(
            t for s in prefix for t in successors(lts, s, label)
        )
        assert direct == stepped


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 400))
def test_interleave_commutes_under_pair_swap(seed):
    left = seeded_lts(seed, namespace="L")
    right = seeded_lts(seed, namespace="R")
    ab = interleave(left, right)
    ba = interleave(right, left)
    swap = {s: (s[1], s[0]) for s in ab.states}
    assert set(swap.values()) == set(ba.states)
    assert {(swap[s], a, swap[t]) for (s, a, t) in ab.transitions} == set(
        ba.transitions
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 400))
def test_interleave_moves_one_component(seed):
    left = seeded_lts(seed, namespace="L")
    right = seeded_lts(seed, namespace="R")
    for (src, _label, dst) in interleave(left, right).transitions:
        changed = (src[0] != dst[0]) + (src[1] != dst[1])
        assert changed == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(u=short_words, v=short_words)
def test_project_word_concatenation(u, v):
    alpha = {"La", "Lc"}
    assert project_word(u + v, alpha) == project_word(u, alpha) + project_word(
        v, alpha
    )
    assert len(u) == len(project_word(u, {"La", "Lb", "Lc"}))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 400))
def test_parse_emit_identity(seed):
    lts = seeded_lts(seed)
    back = parse_aut(emit_aut(lts))
    # gen_lts reaches every state, so the emitted reachable part is all of it
    assert len(back.states) == len(lts.states)
    assert len(back.transitions) == len(lts.transitions)
    assert emit_aut(back) == emit_aut(lts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(word=short_words)
def test_subwords_are_proper_subsequences(word):
    from helpers import is_subsequence

    subs = subwords(word)
    assert word not in subs
    if word:
        assert () in subs
    for sub in subs:
        assert len(sub) < len(word)
        assert is_subsequence(sub, word)
