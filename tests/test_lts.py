"""Transition-system core: parsing, reachability, composition, isomorphism."""

from __future__ import annotations

import gc
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import init_actions, seeded_lts, w, words
from reference import project_word, reach
from hmlcause import (
    AutParseError,
    CHOICE_INITIAL,
    EffectContext,
    Lts,
    causes,
    choice,
    emit_aut,
    emit_dot,
    interleave,
    is_acyclic,
    isomorphic,
    longest_acyclic_path,
    make_lts,
    parse_aut,
    parse_formula,
    reachable_states,
    restrict_to_reachable,
    subwords,
)
from hmlcause.testkit import fixtures

FIX = fixtures()

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
    t4 = FIX["t4"][0]
    back = parse_aut(emit_aut(t4))
    assert isomorphic(back, t4) is not None
    assert len(back.transitions) == len(t4.transitions)


# ---------------------------------------------------------------- dot


def test_emit_dot_plain():
    t1 = FIX["t1"][0]
    dot = emit_dot(t1)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert dot.count("->") == len(t1.transitions)


# ---------------------------------------------------------------- words


def test_reach_examples():
    t1 = FIX["t1"][0]
    t3 = FIX["t3"][0]
    assert reach(t1, "s10", w("ah")) == frozenset({"s12"})
    assert reach(t3, "s30", w("a")) == frozenset({"s31", "s32"})
    assert reach(t1, "s10", w("hh")) == frozenset()


def test_reach_epsilon_reflexive():
    t4 = FIX["t4"][0]
    for s in t4.states:
        assert reach(t4, s, ()) == frozenset({s})


def test_reach_unknown_state():
    with pytest.raises(ValueError):
        reach(FIX["t1"][0], "nope", ())


def test_init_actions_examples():
    t1 = FIX["t1"][0]
    t4 = FIX["t4"][0]
    assert init_actions(t1, "s10") == frozenset({"a"})
    assert init_actions(t1, "s12") == frozenset()
    assert init_actions(t4, "s42") == frozenset({"h", "b"})


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
    t1 = FIX["t1"][0]
    unit = make_lts("u", [])
    prod = interleave(t1, unit)
    assert len(prod.states) == len(t1.states)
    assert isomorphic(prod, t1) is not None


def test_interleave_fig3_transitions():
    left = FIX["fig3_t"][0]
    right = FIX["fig3_tp"][0]
    prod = interleave(left, right)
    assert (("s0", "p0"), "a", ("s1", "p0")) in prod.transitions
    assert (("s0", "p0"), "d", ("s0", "p1")) in prod.transitions
    assert prod.initial == ("s0", "p0")
    assert prod.alphabet == left.alphabet | right.alphabet


def test_interleave_reachable_count():
    t1 = FIX["t1"][0]
    copy = make_lts("x10", [("x10", "c", "x11"), ("x11", "k", "x12")])
    assert len(interleave(t1, copy).states) == 9


def test_choice_initial_actions_union():
    t1 = FIX["t1"][0]
    other = make_lts("x10", [("x10", "c", "x11"), ("x11", "k", "x12")])
    sum_lts = choice(t1, other)
    assert sum_lts.initial == CHOICE_INITIAL
    assert init_actions(sum_lts, CHOICE_INITIAL) == init_actions(
        t1, "s10"
    ) | init_actions(other, "x10")
    outgoing = [t for t in sum_lts.transitions if t[0] == CHOICE_INITIAL]
    assert len(outgoing) == 2


def test_choice_preserves_tail_behavior():
    t1 = FIX["t1"][0]
    other = make_lts("x10", [("x10", "c", "x11"), ("x11", "k", "x12")])
    sum_lts = choice(t1, other)
    assert ("L:s11", "h", "L:s12") in sum_lts.transitions
    assert ("R:x11", "k", "R:x12") in sum_lts.transitions


# ---------------------------------------------------------------- isomorphism


def test_isomorphic_identity():
    t1 = FIX["t1"][0]
    mapping = isomorphic(t1, t1)
    assert mapping == {s: s for s in t1.states}


def test_isomorphic_renaming():
    t1 = FIX["t1"][0]
    renamed = make_lts("r0", [("r0", "a", "r1"), ("r1", "h", "r2")])
    mapping = isomorphic(t1, renamed)
    assert mapping == {"s10": "r0", "s11": "r1", "s12": "r2"}


def test_isomorphic_distinguishes_branching():
    assert isomorphic(FIX["t1"][0], FIX["t3"][0]) is None


def test_isomorphic_mismatched_alphabets():
    t1 = FIX["t1"][0]
    relabeled = make_lts("r0", [("r0", "c", "r1"), ("r1", "k", "r2")])
    assert isomorphic(t1, relabeled) is None


def test_isomorphic_checks_self_loops():
    # each x-successor loops on itself on one side and steps to the other on
    # the other side; the self-loops are the only edges that tell them apart
    loops = make_lts(0, [(0, "x", 1), (0, "x", 2), (1, "y", 1), (2, "y", 2)])
    swap = make_lts(0, [(0, "x", 1), (0, "x", 2), (1, "y", 2), (2, "y", 1)])
    assert isomorphic(loops, swap) is None
    assert isomorphic(swap, loops) is None


# Each case runs with a budget of outgoing-edge lookups that a search trying
# the unmarked branches in every arrangement, about (n - 1)! of them for n
# branches, exceeds at once.


@pytest.fixture
def outgoing_budget(monkeypatch):
    lookup = Lts.outgoing
    calls = 0

    def counted(self, s):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise RuntimeError("outgoing lookup budget exceeded")
        return lookup(self, s)

    monkeypatch.setattr(Lts, "outgoing", counted)


def _broom(depth, loops, prefix=""):
    """Twelve branches from one root, `root -a-> i.1 -b-> ... -b-> i.depth`
    for i = 00..11; `loops` maps (branch, level) to a self-loop's label."""
    transitions = []
    for i in range(12):
        names = [prefix + "root"] + [f"{prefix}{i:02d}.{d}" for d in range(1, depth + 1)]
        transitions += [
            (src, "a" if d == 0 else "b", dst)
            for d, (src, dst) in enumerate(zip(names, names[1:]))
        ]
        transitions += [
            (names[d], label, names[d]) for (b, d), label in loops.items() if b == i
        ]
    return make_lts(prefix + "root", transitions)


@pytest.mark.parametrize("depth", [2, 5])
def test_isomorphic_pairs_the_marked_branches_first(outgoing_budget, depth):
    # the loop is two levels below the branch heads, or further than the
    # signatures see; the right side's marked branch is the last one tried
    left = _broom(depth, {(0, depth): "c"})
    right = _broom(depth, {(11, depth): "c"}, prefix="r")
    mapping = isomorphic(left, right)
    assert mapping is not None
    for d in range(1, depth + 1):
        assert mapping[f"00.{d}"] == f"r11.{d}"
    assert isomorphic(left, _broom(depth, {(11, depth): "d"}, prefix="r")) is None


def test_isomorphic_tries_only_successors_of_the_same_signature(outgoing_budget):
    # six a-successors step to c-loops and six to d-loops; on the right the
    # d-side sorts first among the root's successors, where a search that
    # let the c-side try them would meet the loops only after every
    # arrangement of both sides
    def two_sided(prefix, c_side, d_side):
        transitions = []
        for i in range(6):
            for side, loop in ((c_side, "c"), (d_side, "d")):
                head, tail = f"{prefix}{side}{i}", f"{prefix}t{side}{i}"
                transitions += [(prefix + "root", "a", head), (head, "b", tail)]
                transitions.append((tail, loop, tail))
        return make_lts(prefix + "root", transitions)

    left = two_sided("", "p", "q")
    right = two_sided("r", "z", "k")
    mapping = isomorphic(left, right)
    assert mapping is not None
    assert all(mapping[f"p{i}"].startswith("rz") for i in range(6))


def test_isomorphic_maps_long_chains_without_recursion():
    # one search position per state: deeper than a recursive search could go
    n = 3000
    chain = make_lts(0, [(i, "a", i + 1) for i in range(n)])
    renamed = make_lts("r0", [(f"r{i}", "a", f"r{i + 1}") for i in range(n)])
    assert isomorphic(chain, renamed) == {i: f"r{i}" for i in range(n + 1)}


# ---------------------------------------------------------------- shape


def test_acyclicity_and_longest_path():
    t1 = FIX["t1"][0]
    t2 = FIX["t2"][0]
    t5 = FIX["t5"][0]
    assert is_acyclic(t1) and longest_acyclic_path(t1) == 2
    assert not is_acyclic(t2) and longest_acyclic_path(t2) is None
    assert not is_acyclic(t5)


def test_longest_acyclic_path_leaves_no_garbage():
    systems = [FIX[name][0] for name in ("t1", "t2", "t4", "t5", "t6")]
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


def test_restrict_to_reachable_drops_orphans():
    lts = make_lts(
        "a0",
        [("a0", "x", "a1"), ("b0", "x", "b1")],
    )
    trimmed = restrict_to_reachable(lts)
    assert trimmed.states == frozenset({"a0", "a1"})


# ---------------------------------------------------------------- lazy indexes


def _fresh_t4() -> Lts:
    t4 = FIX["t4"][0]
    return Lts(t4.states, t4.initial, t4.alphabet, t4.transitions)


def test_untraversed_system_equals_and_hashes_like_a_traversed_one():
    fresh, walked = _fresh_t4(), _fresh_t4()
    reachable_states(walked)
    assert fresh._out is None and walked._out is not None
    assert fresh == walked and hash(fresh) == hash(walked)
    assert {fresh: 1}[walked] == 1


def test_causes_over_untraversed_system_hit_the_same_cache_entry():
    formula = parse_formula("<h>tt")
    walked = _fresh_t4()
    first = causes(EffectContext(walked, formula), 3)
    fresh = _fresh_t4()
    assert fresh._out is None
    assert causes(EffectContext(fresh, formula), 3) is first


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
    assert fresh._out is None
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
            t for s in prefix for t in lts.successors(s, label)
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
    assert isomorphic(ab, ba) is not None


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
    trimmed = restrict_to_reachable(lts)
    assert len(back.states) == len(trimmed.states)
    assert len(back.transitions) == len(trimmed.transitions)
    assert isomorphic(back, trimmed) is not None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 400))
def test_isomorphic_equivalence_on_renamed_copies(seed):
    lts = seeded_lts(seed)

    def renamed(prefix):
        table = {s: f"{prefix}{s}" for s in lts.states}
        return make_lts(
            table[lts.initial],
            [(table[s], a, table[t]) for (s, a, t) in lts.transitions],
            extra_labels=lts.alphabet,
            extra_states=[table[s] for s in lts.states],
        )

    a, b, c = lts, renamed("m_"), renamed("n_")
    ab = isomorphic(a, b)
    bc = isomorphic(b, c)
    assert ab is not None and bc is not None
    # symmetry: the inverse of a witness is a witness
    ba = {v: k for k, v in ab.items()}
    assert isomorphic(b, a) is not None
    assert ba[ab[a.initial]] == a.initial
    # transitivity along the composed map
    ac = isomorphic(a, c)
    assert ac is not None


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
