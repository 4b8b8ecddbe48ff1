"""The cause engine against word-level references and the oracle, on cyclic,
nondeterministic systems, plus metamorphic checks of the cause sets."""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Optional

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hmlcause import (
    And,
    Core,
    EffectContext,
    GenParams,
    Lts,
    cause_candidate,
    causal_projection,
    causes,
    cross_check_disjunction_lifting,
    gen_effect,
    emit_aut,
    exploration_is_exact,
    gen_lts,
    interleave,
    Computation,
    Not,
    fixture_context,
    format_state,
    longest_acyclic_path,
    make_lts,
    reachable_states,
    oracle_check_cause,
    oracle_check_details,
    parse_aut,
    parse_formula,
    states_satisfying,
    step,
    verify_disjunction_theorem,
)
from hmlcause import causality
from hmlcause.causality import (
    KillSet,
    _evaluate_core,
    _extend_level,
    _StateSets,
)
from hmlcause.computation import computation_traces
from hmlcause.oracle import _admits_candidate, _oracle_view, _OracleView
from hmlcause.testkit import corpus, fixtures
from helpers import cyclic_pair
from reference import (
    brute_isomorphic,
    brute_longest_acyclic_path,
    is_proper_subsequence,
    reach,
    satisfies,
    searched_interleave,
    searched_live,
    shaped_words,
    subwords,
    successors,
    validate_computation,
    word_lifting_check,
    word_oracle_details,
)

# ---------------------------------------------------------------- kernel


def _decompose_greedy(core_labels: tuple, word: tuple) -> Optional[tuple]:
    """Split word as core letters with interleaved gaps, matching every core
    letter at its leftmost possible position.  None when word lacks the
    shape."""
    m = len(core_labels)
    positions: list[int] = []
    i = 0
    for letter in core_labels:
        j = i
        while j < len(word) and word[j] != letter:
            j += 1
        if j == len(word):
            return None
        positions.append(j)
        i = j + 1
    if m and positions[0] != 0:
        return None
    gaps = []
    for t in range(m):
        lo = positions[t] + 1
        hi = positions[t + 1] if t + 1 < m else len(word)
        gaps.append(tuple(word[lo:hi]))
    return tuple(gaps)


def _dlists_from_kill(core_labels: tuple, kill: frozenset) -> tuple:
    ordered = sorted(kill)
    per_trace = []
    for word in ordered:
        gaps = _decompose_greedy(core_labels, word)
        if gaps is None:
            raise RuntimeError(f"escape trace {word!r} does not embed the core")
        per_trace.append(gaps)
    return tuple(
        tuple(gaps[i] for gaps in per_trace) for i in range(len(core_labels))
    )


def _word_level_verdict(universe: dict, sat: frozenset, labels: tuple):
    """(clean, kill) over a spelled-out universe of shaped words: the core
    word must always satisfy the effect, every other word must always
    satisfy it or always escape it, and the escaping ones are the kills."""
    kill = set()
    clean = True
    for word, reached in universe.items():
        if word == labels:
            if not reached <= sat:
                clean = False
        elif not reached & sat:
            kill.add(word)
        elif not reached <= sat:
            clean = False
    return clean, frozenset(kill)


def _word_level_evaluate(universe, universe_next, sat, labels):
    """What `_evaluate_core` returns, from the universes at k and k+1."""
    clean, kill = _word_level_verdict(universe, sat, labels)
    if not clean:
        return None
    clean_next, kill_next = _word_level_verdict(universe_next, sat, labels)
    truncated = (not clean_next) or kill_next != kill
    return kill, _dlists_from_kill(labels, kill), truncated


@st.composite
def _systems(draw, letters="abc"):
    """A system on at most 5 states and labels drawn from letters, where
    cycles, self-loops, nondeterminism and unreachable states all occur,
    with an effect state set.  Each state up to a drawn one gets a tree edge
    from a lower state; the states after it have only the random edges."""
    n = draw(st.integers(1, 5))
    reached = n - draw(st.integers(0, n - 1))
    labels = draw(
        st.lists(st.sampled_from(letters), min_size=1, max_size=3, unique=True)
    )
    label = st.sampled_from(labels)
    states = [f"s{i}" for i in range(n)]
    state = st.sampled_from(states)
    transitions = [
        (f"s{draw(st.integers(0, i - 1))}", draw(label), f"s{i}")
        for i in range(1, reached)
    ] + draw(st.lists(st.tuples(state, label, state), max_size=9))
    lts = Lts(frozenset(states), "s0", frozenset(labels), frozenset(transitions))
    return lts, frozenset(draw(st.sets(st.sampled_from(states))))


# a self-loop, parallel edges, nondeterminism, and a cycle that enters the
# reachable part only from unreachable states
@example(system=(make_lts("s0", [("s0", "a", "s0")]), frozenset()))
@example(
    system=(make_lts("s0", [("s0", "a", "s1"), ("s0", "b", "s1")]), frozenset())
)
@example(
    system=(
        make_lts("s0", [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "b", "s2")]),
        frozenset(),
    )
)
@example(
    system=(
        make_lts(
            "s0",
            [("s0", "a", "s1"), ("s2", "a", "s3"), ("s3", "a", "s2"), ("s3", "b", "s1")],
        ),
        frozenset(),
    )
)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(system=_systems())
def test_longest_acyclic_path_matches_exhaustive_search(system):
    lts, _ = system
    assert longest_acyclic_path(lts) == brute_longest_acyclic_path(lts)


# a label shared by both sides, and unreachable states on both sides
@example(
    left=(make_lts("s0", [("s0", "a", "s1"), ("s2", "b", "s0")]), frozenset()),
    right=(make_lts("s0", [("s0", "a", "s0"), ("s1", "a", "s2")]), frozenset()),
)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(left=_systems(), right=_systems())
def test_interleave_matches_a_breadth_first_search(left, right):
    product = interleave(left[0], right[0])
    searched = searched_interleave(left[0], right[0])
    assert product.states == searched.states
    assert product.initial == searched.initial
    assert product.alphabet == searched.alphabet
    assert product.transitions == searched.transitions
    assert emit_aut(product) == emit_aut(searched)


# a cycle on one side only, and a label shared by both sides
@example(
    left=(make_lts("s0", [("s0", "a", "s1"), ("s1", "b", "s0")]), frozenset()),
    right=(make_lts("s0", [("s0", "a", "s1"), ("s1", "c", "s2")]), frozenset()),
)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(left=_systems(), right=_systems())
def test_a_product_is_born_with_its_reachable_states_and_longest_path(left, right):
    # a value-equal copy starts with an empty memo, so it searches for both
    product = interleave(left[0], right[0])
    fresh = Lts(product.states, product.initial, product.alphabet, product.transitions)
    assert "reachable" in product._memo and "longest" in product._memo
    assert reachable_states(product) == reachable_states(fresh)
    assert longest_acyclic_path(product) == longest_acyclic_path(fresh)
    assert longest_acyclic_path(fresh) == brute_longest_acyclic_path(fresh)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    system=_systems(),
    k=st.integers(0, 3),
    longest=st.lists(st.sampled_from("abc"), min_size=3, max_size=3),
)
def test_kernel_matches_word_level_reference(system, k, longest):
    # every label word of length 0 to 2 as a core, executable or not, and
    # one of length 3 below bound 3: at bound 3 its reference would spell
    # out over half a million words of k+1 on a dense system
    lts, sat = system
    space = _StateSets(lts, sat)
    alphabet = sorted(lts.alphabet)
    cores = [
        labels for m in range(3) for labels in itertools.product(alphabet, repeat=m)
    ]
    if k < 3:
        cores.append(tuple(longest))
    for labels in cores:
        universe = shaped_words(lts, labels, k)
        universe_next = shaped_words(lts, labels, k + 1)
        evaluated = _evaluate_core(space, labels, k)
        reference = _word_level_evaluate(universe, universe_next, sat, labels)
        if evaluated is not None:
            probes = _probes(universe_next, labels)
            _assert_same_kills_and_lists(evaluated, reference, labels, probes)
        assert evaluated == reference


def _with_an_escape(drawn):
    """The drawn system with an e-step from every state into a fresh dead
    end x."""
    return Lts(
        drawn.states | {"x"},
        drawn.initial,
        drawn.alphabet | {"e"},
        drawn.transitions | {(s, "e", "x") for s in drawn.states},
    )


def _effect_around_the_core(universe, labels):
    """The least state set that holds what the core word reaches and that
    each shaped word reaches only inside or only outside of."""
    effect = universe[labels]
    mixed = [r for r in universe.values() if r & effect and not r <= effect]
    while mixed:
        effect = effect.union(*mixed)
        mixed = [r for r in universe.values() if r & effect and not r <= effect]
    return effect


def _assert_kernel_matches_on_cores_that_can_escape(drawn, k, cores):
    # every state gets an e-step into a fresh dead end x, and the effect is
    # the least state set that holds what the core word reaches and that
    # each word reaches only inside or only outside of.  x stays outside
    # (a word ending in e reaches x alone), so every executable core is
    # clean at k and its word followed by e is a kill.  Returns how many
    # cores were judged
    lts = _with_an_escape(drawn)
    judged = 0
    for labels in cores:
        universe = shaped_words(lts, labels, k)
        if labels not in universe:
            continue
        judged += 1
        effect = _effect_around_the_core(universe, labels)
        universe_next = shaped_words(lts, labels, k + 1)
        probes = _probes(universe_next, labels)
        space = _StateSets(lts, effect)
        evaluated = _evaluate_core(space, labels, k)
        reference = _word_level_evaluate(universe, universe_next, effect, labels)
        assert labels + ("e",) in reference[0]
        _assert_same_kills_and_lists(evaluated, reference, labels, probes)
        assert evaluated == reference
    return judged


@settings(max_examples=100, deadline=None, derandomize=True)
@given(system=_systems(), k=st.integers(1, 3))
def test_kernel_matches_the_reference_on_cores_that_can_escape(system, k):
    drawn, _ = system
    alphabet = sorted(drawn.alphabet)
    cores = itertools.chain(
        itertools.product(alphabet, repeat=1), itertools.product(alphabet, repeat=2)
    )
    _assert_kernel_matches_on_cores_that_can_escape(drawn, k, cores)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(system=_systems("ab"), k=st.sampled_from((1, 2, 5, 6)))
def test_kernel_matches_the_reference_where_a_gap_fills_its_field(system, k):
    # a row of the kernel's positions is a field of B = (k + 2).bit_length()
    # value bits under a guard bit; at these bounds k+1 or k+2 is 2^B - 1 or
    # 2^B, so a field one bit too narrow, a value off by one or a missing
    # guard shows.  Two-letter cores only up to k=2, where the reference
    # stays cheap
    drawn, _ = system
    alphabet = sorted(drawn.alphabet)
    cores = [(a,) for a in alphabet]
    if k <= 2:
        cores += itertools.product(alphabet, repeat=2)
    _assert_kernel_matches_on_cores_that_can_escape(drawn, k, cores)


def _probes(universe_next, labels):
    """Every prefix of the words at k+1, which all end inside the DAG, and
    three that are not words of it; a string spells a word letter by letter
    but is not one."""
    probes = [word[:i] for word in universe_next for i in range(len(word) + 1)]
    return probes + [labels + ("z",), "".join(labels), None]


def _dag(kill):
    """A KillSet's slot values, once its slots are checked to be the three
    of its DAG and no others; () for a frozenset."""
    if not isinstance(kill, KillSet):
        return ()
    slots = [s for cls in type(kill).__mro__ for s in getattr(cls, "__slots__", ())]
    assert slots == ["_labels", "_nodes", "_root"] and not hasattr(kill, "__dict__")
    return tuple(getattr(kill, slot) for slot in slots)


def _assert_same_kills_and_lists(evaluated, reference, labels, probes):
    # length first, while the kill set is still unspelled; a KillSet spells
    # its words in sorted order on every pass and keeps only its DAG
    kill, dlists, _ = evaluated
    reference_kill, reference_dlists, _ = reference
    dag = _dag(kill)
    assert len(kill) == len(reference_kill)
    for word in probes:
        assert (word in kill) == (isinstance(word, tuple) and word in reference_kill)
    assert not any(labels[:i] in kill for i in range(len(labels) + 1))
    with pytest.raises(TypeError):
        [] in kill
    spelled = list(kill)
    assert spelled == sorted(reference_kill) and list(kill) == spelled
    assert hash(kill) == hash(reference_kill) == hash(frozenset(kill))
    words = frozenset(word for word in probes if isinstance(word, tuple))
    assert kill & words == reference_kill & words == words & kill
    assert kill | words == reference_kill | words == words | kill
    assert dlists == reference_dlists and reference_dlists == dlists
    assert all(map(operator.is_, _dag(kill), dag))


def test_kernel_spells_the_loop_family_in_closed_form():
    # s0 -a-> s1, s1 -{i,j}-> s1, s1 -h-> s2: the kill words at k are
    # a {i,j}^j h for j < k, 2^k - 1 of them
    lts = make_lts(
        "s0",
        [("s0", "a", "s1"), ("s1", "i", "s1"), ("s1", "j", "s1"), ("s1", "h", "s2")],
    )
    k = 12
    closed = frozenset(
        ("a",) + middle + ("h",)
        for j in range(k)
        for middle in itertools.product("ij", repeat=j)
    )
    entries = {word[1:] for word in closed}
    space = _StateSets(lts, frozenset({"s1"}))
    probes = [*closed, ("a",) + ("i",) * k + ("h",), ("a", "h", "h"), ("a", "i")]
    reference = (closed, (tuple(sorted(entries)),), True)
    _assert_same_kills_and_lists(
        _evaluate_core(space, ("a",), k), reference, ("a",), probes
    )
    comp, _ = cause_candidate(
        EffectContext(lts, parse_formula("<h>tt")), Core(("s0", "s1"), ("a",)), k
    )
    assert computation_traces(comp) == closed


def _handoff_loop() -> EffectContext:
    """s0 -a-> s1 -b-> s2, s2 -{i,j}-> s2, s2 -h-> s3 with effect <h>tt: the
    one cause is a b, and its second extension list is {i,j}^j h."""
    lts = make_lts(
        "s0",
        [
            ("s0", "a", "s1"),
            ("s1", "b", "s2"),
            ("s2", "i", "s2"),
            ("s2", "j", "s2"),
            ("s2", "h", "s3"),
        ],
    )
    return EffectContext(lts, parse_formula("<h>tt"))


def test_extension_lists_hold_their_kill_set_alone_after_every_read():
    # the lists are spelled off the kill DAG on every read and kept nowhere
    k = 4
    (report,) = causes(_handoff_loop(), k).causes
    kill, dlists = report.kill_traces, report.computation.dlists
    dag = _dag(kill)
    middles = sorted(
        middle + ("h",)
        for j in range(k)
        for middle in itertools.product("ij", repeat=j)
    )
    expected = (((),) * len(middles), tuple(middles))
    first = tuple(dlists)
    assert first == expected and tuple(dlists) == first and list(dlists) == list(first)
    assert dlists[1] == expected[1] and dlists[:1] == expected[:1]
    assert dlists == expected and expected == dlists and dlists == dlists
    assert hash(dlists) == hash(expected) and repr(dlists) == repr(expected)
    slots = [s for cls in type(dlists).__mro__ for s in getattr(cls, "__slots__", ())]
    assert slots == ["_kill"] and not hasattr(dlists, "__dict__")
    assert dlists._kill is kill and all(map(operator.is_, _dag(kill), dag))


def test_the_oracle_spells_a_causes_lists_once_per_check(monkeypatch):
    ctx = _handoff_loop()
    (report,) = causes(ctx, 4).causes
    spell, spelled = causality._spell, []

    def counted(*args):
        spelled.append(args)
        return spell(*args)

    monkeypatch.setattr(causality, "_spell", counted)
    for checks in (1, 2, 3):
        assert oracle_check_cause(ctx, report.computation, 4)
        assert len(spelled) == checks


def test_kernel_truncates_when_the_next_bound_adds_a_kill_word():
    # s0 -a-> s1, s1 -i-> s1, s1 -h-> s2: the kill word a i^k h exists only
    # at k+1, so every finite bound truncates
    lts = make_lts("s0", [("s0", "a", "s1"), ("s1", "i", "s1"), ("s1", "h", "s2")])
    space = _StateSets(lts, frozenset({"s1"}))
    for k in range(4):
        kill, _, truncated = _evaluate_core(space, ("a",), k)
        assert kill == frozenset(("a",) + ("i",) * j + ("h",) for j in range(k))
        assert truncated


def test_kernel_truncates_when_the_next_bound_adds_a_mixed_word():
    # a and a i stay in the effect; a i b reaches s3 (effect) and s4 (not),
    # so bound 1 is clean with no kills but bound 2 rejects the core
    lts = make_lts(
        "s0",
        [("s0", "a", "s1"), ("s1", "i", "s2"), ("s2", "b", "s3"), ("s2", "b", "s4")],
    )
    space = _StateSets(lts, frozenset({"s1", "s2", "s3"}))
    assert _evaluate_core(space, ("a",), 1) == (frozenset(), ((),), True)
    assert _evaluate_core(space, ("a",), 2) is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    system=_systems(),
    picks=st.lists(st.integers(0, 5), max_size=3),
    k=st.integers(0, 3),
)
def test_kernel_numbers_the_productive_dag_children_first(system, picks, k):
    # a node is kept only once its productive children are numbered, so a
    # sort key that let a child come after its parent would lose the
    # child's words from the count and from the spelling alike; the escaping
    # shaped words of the reference tell.  The core is an executable word
    # of up to 3 letters, each picked among those its prefix enables, and
    # the effect is drawn around it with an e-step out, as in the test
    # above, so that many cores have kill words
    drawn, _ = system
    labels, current = (), frozenset({drawn.initial})
    for pick in picks:
        enabled = sorted({label for s in current for label, _ in drawn.outgoing(s)})
        if not enabled:
            break
        labels += (enabled[pick % len(enabled)],)
        current = step(drawn, current, labels[-1])
    lts = _with_an_escape(drawn)
    universe = shaped_words(lts, labels, k)
    sat = _effect_around_the_core(universe, labels)
    space = _StateSets(lts, sat)
    escaping = {
        word
        for word, reached in universe.items()
        if word != labels and not reached & sat
    }
    evaluated = _evaluate_core(space, labels, k)
    if evaluated is None:
        return
    kill = evaluated[0]
    if isinstance(kill, KillSet):
        for number, (_, _, children) in enumerate(kill._nodes):
            assert all(child < number for _, child in children)
    size = len(kill)
    assert size == len(set(kill)) == len(escaping)
    assert kill == escaping


def _acyclic(drawn: Lts) -> Lts:
    """The drawn system without the edges out of reachable states that do
    not lead to a higher-numbered state, so its reachable part is acyclic,
    and with a two-state cycle that enters it only from outside."""
    reachable = reachable_states(drawn)
    kept = [
        (src, label, dst)
        for src, label, dst in drawn.transitions
        if src not in reachable or int(src[1:]) < int(dst[1:])
    ]
    cycle = [("u0", "a", "u1"), ("u1", "b", "u0"), ("u1", "a", drawn.initial)]
    return Lts(
        drawn.states | {"u0", "u1"},
        drawn.initial,
        drawn.alphabet | {"a", "b"},
        frozenset(kept + cycle),
    )


def test_kernel_matches_the_reference_at_and_just_below_the_exact_bound():
    # at k = the longest path the kernel keeps no gaps; at one less it keeps
    # gap fields.  The kernel picks its encoding as `exploration_is_exact`
    # does, and the draws must judge cores with both
    judged_at = {True: 0, False: 0}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(system=_systems())
    def check(system):
        drawn = _acyclic(system[0])
        lts = _with_an_escape(drawn)
        longest = longest_acyclic_path(lts)
        assert _StateSets(lts, frozenset()).longest == longest
        alphabet = sorted(drawn.alphabet)
        cores = [*itertools.product(alphabet, repeat=1)]
        cores += itertools.product(alphabet, repeat=2)
        for k in (longest - 1, longest):
            gapless = exploration_is_exact(lts, k)
            assert gapless == (k == longest)
            judged_at[gapless] += _assert_kernel_matches_on_cores_that_can_escape(
                drawn, k, cores
            )

    check()
    assert judged_at[True] and judged_at[False]


def test_kernel_judges_a_long_chain_at_its_exact_bound():
    # 5,000 states in a row, so the depth-first finish walks a DAG 5,000
    # nodes deep, without recursion.  The word-level reference would spell
    # 12.5 million letters here, so the result is given in closed form: the
    # effect holds everywhere but at the end, so the one kill word is the
    # whole chain
    n = 5000
    lts = make_lts(0, [(i, "a", i + 1) for i in range(n)])
    space = _StateSets(lts, frozenset(range(n)))
    assert space.longest == n
    kill, dlists, truncated = _evaluate_core(space, ("a",), n)
    assert len(kill) == 1 and not truncated
    assert set(kill) == {("a",) * n}
    assert dlists == ((("a",) * (n - 1),),)


# Dead ends, nodes whose states have no move, in every role the kernel
# judges them in: (transitions, effect, cores).  x, y and d_out are outside
# the effect.
_DEAD_ENDS = {
    # a b reaches d_in inside the effect and d_out outside, neither moves
    "straddle": (
        [("s0", "a", "s1"), ("s1", "b", "d_in"), ("s1", "b", "d_out")],
        {"s1", "d_in"},
        [("a",)],
    ),
    # the core word reaches a dead end: a b reaches s2 alone, inside the
    # effect, and in the next system a reaches s1 alone, outside it
    "core inside": (
        [("s0", "a", "s1"), ("s0", "a", "s3"), ("s3", "b", "s2"), ("s3", "h", "x")],
        {"s1", "s2", "s3"},
        [("a", "b")],
    ),
    "core outside": (
        [("s0", "a", "s1"), ("s0", "b", "s2"), ("s2", "h", "x")],
        {"s0", "s2"},
        [("a",)],
    ),
    # a i^j h for j < 3: at k < 3, a i^k h has gap k+1 only
    "truncating": (
        [("s0", "a", "s1"), ("s1", "i", "s2"), ("s2", "i", "s3")]
        + [(f"s{j}", "h", "x") for j in (1, 2, 3)],
        {"s1", "s2", "s3"},
        [("a",), ("a", "i")],
    ),
    # x is the child of s2, s3 and s4 under h or g, and y of s2 under g
    "shared kill": (
        [("s0", "a", "s1"), ("s1", "b", "s2"), ("s1", "c", "s3"), ("s2", "d", "s3")]
        + [("s1", "b", "s4"), ("s2", "g", "y"), ("s4", "g", "x")]
        + [(s, "h", "x") for s in ("s2", "s3", "s4")],
        {"s1", "s2", "s3", "s4"},
        [("a",), ("a", "b")],
    ),
}


@pytest.mark.parametrize("role", sorted(_DEAD_ENDS))
def test_kernel_judges_dead_ends_where_it_finds_them(role):
    # each system as drawn and with a z-loop on s0, which makes it cyclic
    # but adds no shaped word; the acyclic one has its longest path at 4 or
    # less, so k = 0..4 judges it in both encodings
    transitions, effect, cores = _DEAD_ENDS[role]
    encodings = set()
    for loop in ([], [("s0", "z", "s0")]):
        lts = make_lts("s0", transitions + loop)
        space = _StateSets(lts, frozenset(effect))
        for labels, k in itertools.product(cores, range(5)):
            encodings.add(exploration_is_exact(lts, k))
            universe = shaped_words(lts, labels, k)
            universe_next = shaped_words(lts, labels, k + 1)
            evaluated = _evaluate_core(space, labels, k)
            if role == "shared kill" and len(evaluated[0]):
                # every killing dead end is the one leaf; its parents count it
                leaves = [node for node in evaluated[0]._nodes if not node[2]]
                assert leaves == [(True, 1, ())]
            reference = _word_level_evaluate(universe, universe_next, effect, labels)
            if evaluated is None or reference is None:
                assert evaluated == reference
                assert role == "straddle" and k or role == "core outside"
                continue
            kill, _, truncated = evaluated
            _assert_same_kills_and_lists(
                evaluated, reference, labels, _probes(universe_next, labels)
            )
            if role == "straddle":
                assert truncated and not kill  # a b straddles at k+1 only
            if role == "truncating" and labels == ("a",):
                assert truncated == (k < 3)
            assert evaluated == reference
    assert encodings == {True, False}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(system=_systems(), word=st.lists(st.sampled_from("abcd"), max_size=3))
def test_live_masks_match_a_forward_search(system, word):
    # the live entries of a word and of its suffixes, asked shortest suffix
    # first so that the longer word finds some entries memoised; d is never
    # a label of the system
    lts, sat = system
    word = tuple(word)
    space = _StateSets(lts, sat)
    number = {s: i for i, s in enumerate(lts.states)}
    for asked in (word[1:], word):
        rows = space.live(asked)
        assert len(rows) == len(asked) + 1
        for t, row in enumerate(rows):
            searched = searched_live(lts, sat, asked[t:])
            assert row == sum(1 << number[s] for s in searched)


def test_a_straddle_behind_one_live_state_is_found():
    # after a the core reaches s1, which can no longer leave the effect, and
    # s2, which can.  a b reaches s3 outside the effect and s4 inside, so
    # AC2(b) fails; a kernel that asked every reached state to be live
    # would drop the node after a and accept the core
    lts = make_lts(
        "s0",
        [
            ("s0", "a", "s1"),
            ("s0", "a", "s2"),
            ("s1", "b", "s4"),
            ("s2", "b", "s3"),
            ("s4", "c", "s4"),
        ],
    )
    ctx = EffectContext(lts, parse_formula("<b>tt | <c>tt"))
    sat = states_satisfying(lts, ctx.formula)
    assert sat == {"s1", "s2", "s4"}
    space = _StateSets(lts, sat)
    number = {s: i for i, s in enumerate(lts.states)}
    assert space.live(()) == [sum(1 << number[s] for s in ("s0", "s2", "s3"))]
    assert _evaluate_core(space, ("a",), 2) is None
    computation, report = cause_candidate(ctx, Core(("s0", "s1"), ("a",)), 2)
    assert computation is None and report.first_failed == "AC2B"
    assert causes(ctx, 2).causes == ()


# a label word repeated within a level, by nondeterminism, both when its
# copies succeed and when only their extensions do
@example(
    system=(
        make_lts(
            "s0",
            [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "b", "s3"), ("s2", "b", "s3")],
        ),
        frozenset({"s1", "s2"}),
    )
)
@example(
    system=(
        make_lts(
            "s0",
            [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "b", "s3"), ("s2", "b", "s3")],
        ),
        frozenset({"s3"}),
    )
)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(system=_systems("ab"))
def test_pruning_by_last_letter_matches_proper_subsequences(system):
    # the core loop's levels, grown by `_extend_level` and by testing every
    # extension against every successful word; a core counts as successful
    # when its path ends in the drawn state set
    lts, ends = system
    level, successful = [((lts.initial,), ())], set()
    for _ in range(5):
        grown = _extend_level(lts, level, successful)
        assert grown == [
            (states + (dst,), labels + (label,))
            for states, labels in level
            for label, dst in lts.outgoing(states[-1])
            if not any(
                is_proper_subsequence(word, labels + (label,)) for word in successful
            )
        ]
        successful.update(labels for states, labels in grown if states[-1] in ends)
        level = grown


# ---------------------------------------------------------------- oracle


def _matches_shape_bounded(word: tuple, core_labels: tuple, k: int) -> bool:
    """The full (consumed, gap) dynamic program: word embeds the core
    letters in order, starting with the first, with every gap at most k."""
    m = len(core_labels)
    if m == 0:
        return word == ()
    if not word or word[0] != core_labels[0]:
        return False
    states = {(1, 0)}
    for letter in word[1:]:
        nxt = set()
        for consumed, gap in states:
            if consumed < m and letter == core_labels[consumed]:
                nxt.add((consumed + 1, 0))
            if gap < k:
                nxt.add((consumed, gap + 1))
        states = nxt
        if not states:
            return False
    return any(consumed == m for consumed, _ in states)


def _executable_words(lts: Lts, maxlen: int) -> dict:
    """Every executable word up to maxlen, mapped to the states it reaches."""
    frontier = {(): frozenset({lts.initial})}
    table = dict(frontier)
    for _ in range(maxlen):
        frontier = {
            word + (label,): stepped
            for word, reached in frontier.items()
            for label in sorted(lts.alphabet)
            if (stepped := step(lts, reached, label))
        }
        table.update(frontier)
    return table


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    system=_systems(),
    k=st.integers(0, 3),
    longest=st.lists(st.sampled_from("abc"), min_size=3, max_size=3),
)
def test_oracle_walk_matches_shaped_words_and_the_full_shape_filter(
    system, k, longest
):
    lts, _ = system
    alphabet = sorted(lts.alphabet)
    cores = [
        labels for m in range(3) for labels in itertools.product(alphabet, repeat=m)
    ]
    if k < 3:
        cores.append(tuple(longest))
    table = _executable_words(lts, max(map(len, cores)) * (k + 1))
    view = _OracleView(lts)
    # every core twice, so the second walks read moves the first ones kept
    for labels in cores + cores[::-1]:
        walked = list(view.shaped(labels, k))
        assert len({word for word, _ in walked}) == len(walked)
        walked = dict(walked)
        assert walked == shaped_words(lts, labels, k)
        assert walked == {
            word: reached
            for word, reached in table.items()
            if _matches_shape_bounded(word, labels, k)
        }


class _CountingView(_OracleView):
    """An oracle view that counts, per state set, the words a walk enters:
    a walk asks for the moves of every word it enters and of no other."""

    def __init__(self, lts: Lts) -> None:
        super().__init__(lts)
        self.entered: Counter = Counter()

    def moves(self, reached: frozenset) -> list:
        self.entered[reached] += 1
        return super().moves(reached)


def _most_consumed(word: tuple, core_labels: tuple, k: int) -> Optional[int]:
    """The most core letters a shape prefix can have consumed after word, by
    the full (consumed, gap) program; None when word starts no shaped word."""
    m = len(core_labels)
    positions = {(0, k)}
    for letter in word:
        nxt = set()
        for consumed, gap in positions:
            if gap < k:
                nxt.add((consumed, gap + 1))
            if consumed < m and letter == core_labels[consumed]:
                nxt.add((consumed + 1, 0))
        positions = nxt
    return max((consumed for consumed, _ in positions), default=None)


def test_the_shape_walk_enters_no_word_too_shallow_to_finish_the_core():
    # corpus instance 3's "both effects" cores have 6 letters and its product's
    # longest path is its bound 8, so most words end too soon to spell the
    # core letters still missing.  A word's height, the most letters a word
    # below it adds, is the largest height of the states it reaches.  Both
    # walks run at this bound and enter the same words: the exact walk, like
    # the gapped one, enters every word below one that finishes the core
    inst = list(corpus(4, seed=7))[3]
    k = inst.bound
    both = EffectContext(
        interleave(inst.left.lts, inst.right.lts),
        And(inst.left.formula, inst.right.formula),
    )
    lts = both.lts
    table = _executable_words(lts, k)
    heights = dict.fromkeys(table, 0)
    children: dict = {word: [] for word in table}
    for word in sorted(table, key=len, reverse=True)[:-1]:
        heights[word[:-1]] = max(heights[word[:-1]], heights[word] + 1)
        children[word[:-1]].append(word)
    view = _OracleView(lts)
    assert view.longest == k
    assert all(
        max(view._heights[s] for s in table[word]) == height
        for word, height in heights.items()
    )
    found = causes(both, k).causes
    entered = without_heights = 0
    for report in found:
        core = report.computation.labels
        m = len(core)
        consumed = {word: _most_consumed(word, core, k) for word in table}
        expected = _entered_words(children, consumed, heights, m)
        exact, gapped = _CountingView(lts), _CountingView(lts)
        walked = dict(exact.shaped(core, k))
        assert walked == dict(gapped._walk(core, k))
        assert walked == {
            word: reached
            for word, reached in table.items()
            if _matches_shape_bounded(word, core, k)
        }
        assert exact.entered == gapped.entered == Counter(map(table.get, expected))
        entered += len(expected)
        without_heights += len(_entered_words(children, consumed, heights, 0))
    # both walks enter 4,641 words for these cores, 650 of them at or below
    # a word that finishes its core; without the height rule they would
    # enter 24,180
    assert (len(found), entered, without_heights) == (60, 4_641, 24_180)


def _entered_words(children: dict, consumed: dict, heights: dict, m: int) -> set:
    """The words below which a shaped word can still spell m core letters,
    reached from the empty word through such words; m=0 keeps every word
    that starts a shaped word."""
    entered, stack = {()}, [()]
    while stack:
        for word in children[stack.pop()]:
            if consumed[word] is not None and consumed[word] + heights[word] >= m:
                entered.add(word)
                stack.append(word)
    return entered


def test_the_exact_walk_yields_the_words_of_the_gapped_walk_and_of_shaped_words():
    # at a bound that covers an acyclic system's longest path the shape walk
    # carries only the greedy consumed count; its words must be those of the
    # gapped walk and of the shaped words.  The drawn cycle lies outside the
    # reachable part, and at least half the draws must yield a word
    yielding_draws = []

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(system=_systems(), extra=st.integers(0, 2))
    def check(system, extra):
        lts = _acyclic(system[0])
        view = _OracleView(lts)
        k = view.longest + extra
        alphabet = sorted(lts.alphabet)
        yielded = 0
        for m in range(1, 4):
            for labels in itertools.product(alphabet, repeat=m):
                shaped = view.shaped(labels, k)
                assert shaped.gi_code is _OracleView._exact_walk.__code__
                walked = list(shaped)
                assert len({word for word, _ in walked}) == len(walked)
                walked = dict(walked)
                assert walked == dict(view._walk(labels, k))
                assert walked == shaped_words(lts, labels, k)
                yielded += len(walked)
        yielding_draws.append(yielded > 0)

    check()
    assert sum(yielding_draws) >= 50


@st.composite
def _contexts(draw, namespace="", max_states=5):
    """A generated system on at most max_states states that may have cycles,
    made nondeterministic by one extra transition that reuses the label of an
    existing one and may close a cycle, with a generated effect.  Its labels
    start with namespace."""
    params = GenParams(
        seed=draw(st.integers(0, 10**6)),
        max_states=max_states,
        max_out_degree=3,
        acyclic=False,
        namespace=namespace,
    )
    lts = gen_lts(params)
    src, label, dst = draw(st.sampled_from(sorted(lts.transitions)))
    other = draw(st.sampled_from(sorted(lts.states - {dst})))
    lts = Lts(
        lts.states, lts.initial, lts.alphabet, lts.transitions | {(src, label, other)}
    )
    try:
        return EffectContext(lts, gen_effect(params, lts))
    except RuntimeError:
        assume(False)


@st.composite
def _contexts_with_an_exit(draw, namespace=""):
    """A `_contexts` system where some states other than the initial one get
    an h-step into a fresh dead end x, with the effect <h>tt.  A word that
    ends in h reaches x alone and escapes the effect, so most causes have
    kill words.  The labels h and x start with namespace."""
    lts = draw(_contexts(namespace)).lts
    inner = sorted(lts.states - {lts.initial})
    gates = draw(st.sets(st.sampled_from(inner), min_size=1))
    exit_label, dead_end = namespace + "h", namespace + "x"
    lts = Lts(
        lts.states | {dead_end},
        lts.initial,
        lts.alphabet | {exit_label},
        lts.transitions | {(s, exit_label, dead_end) for s in gates},
    )
    return EffectContext(lts, parse_formula(f"<{exit_label}>tt"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    system=_systems(),
    k=st.integers(0, 1),
    longest=st.lists(st.sampled_from("abc"), min_size=4, max_size=4),
)
def test_the_subword_walk_yields_the_executable_proper_subwords(system, k, longest):
    lts, _ = system
    alphabet = sorted(lts.alphabet)
    cores = [tuple(longest)] + [
        labels for m in range(4) for labels in itertools.product(alphabet, repeat=m)
    ]
    view = _OracleView(lts)
    for labels in cores:
        walked = list(view.subwords(labels))
        assert len({word for word, _ in walked}) == len(walked)
        assert dict(walked) == {
            word: reach(lts, lts.initial, word)
            for word in subwords(labels)
            if reach(lts, lts.initial, word)
        }


def _path_cores(lts: Lts, k: int):
    level = [((lts.initial,), ())]
    for _ in range(k + 1):
        yield from (Core(states, labels) for states, labels in level)
        level = [
            (states + (dst,), labels + (label,))
            for states, labels in level
            for label, dst in lts.outgoing(states[-1])
        ]


# at k=0 no core is enumerated, so the draws start at 1
@settings(max_examples=120, deadline=None, derandomize=True)
@given(ctx=_contexts(), k=st.integers(1, 3))
@example(ctx=fixture_context("t5"), k=0)
def test_engine_agrees_with_oracle_on_cyclic_nondeterministic_systems(ctx, k):
    lts = ctx.lts
    emitted = {}
    for report in causes(ctx, k).causes:
        comp = report.computation
        assert oracle_check_cause(ctx, comp, k)
        emitted[comp.core] = comp

    sat = frozenset(s for s in lts.states if satisfies(lts, s, ctx.formula))
    for core in _path_cores(lts, k):
        admits = core.final in sat and _admits_candidate(
            _oracle_view(lts), sat, core.labels, k
        )
        comp, _ = cause_candidate(ctx, core, k)
        assert (comp is not None) == admits
        if comp is not None and oracle_check_cause(ctx, comp, k):
            assert emitted.get(core) == comp


# three cores share the word a c, two of them through one a-step, and
# their formatted states order them otherwise than their numbers do
@example(
    ctx=EffectContext(
        make_lts(
            0,
            [
                (0, "a", 9), (0, "a", 10), (9, "c", 5), (10, "c", 4),
                (10, "c", 11), (5, "b", 6), (4, "b", 6), (11, "b", 6), (6, "a", 6),
            ],
        ),
        parse_formula("<b>tt"),
    ),
    k=3,
)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(ctx=st.one_of(_contexts(), _contexts_with_an_exit()), k=st.integers(1, 3))
def test_causes_come_by_word_then_by_formatted_states(ctx, k):
    # `causes` sorts by word alone, stably, so the levels must already list
    # the cores that share a word by their formatted states.  Writing a
    # cause out spells its kill words in sorted order and leaves its KillSet
    # holding its DAG alone
    reports = causes(ctx, k).causes
    cores = [
        (r.computation.labels, tuple(map(format_state, r.computation.states)))
        for r in reports
    ]
    assert cores == sorted(cores)
    for report in reports:
        kill = report.kill_traces
        dag = _dag(kill)
        spelled = report.to_json()["kill_traces"]
        assert spelled == [list(word) for word in sorted(frozenset(kill))]
        assert all(map(operator.is_, _dag(kill), dag))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    left=st.one_of(_contexts("L"), _contexts_with_an_exit("L")),
    right=st.one_of(_contexts("R"), _contexts_with_an_exit("R")),
)
@example(left=cyclic_pair()[0], right=cyclic_pair()[1])
def test_lifting_check_on_states_matches_the_word_level_check(left, right):
    # the word-level check classifies the projection of every kill word.
    # Every pair is checked at each bound from 0 to 3, since a drawn bound
    # is mostly 0, which admits no kill word; a side with an exit gives
    # most causes kill words, and the example has 4,673 at bound 3
    for k in range(4):
        on_states = cross_check_disjunction_lifting(left, right, k)
        on_words = word_lifting_check(left, right, k)
        assert (on_states.ok, on_states.detail) == (on_words.ok, on_words.detail)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    left=_contexts("L", max_states=3),
    right=_contexts("R", max_states=3),
    k=st.integers(2, 3),
)
@example(
    left=EffectContext(
        make_lts("s0", [("s0", "a", "s1"), ("s1", "h", "s2")]),
        parse_formula("<h>tt"),
    ),
    right=EffectContext(
        make_lts("p0", [("p0", "d", "p1"), ("p0", "d", "p0"), ("p1", "e", "p2")]),
        parse_formula("<e>tt"),
    ),
    k=2,
)
def test_a_failing_disjunction_has_no_isomorphic_projections(left, right, k):
    # the law is checked by its branch renaming alone; when that fails, no
    # other bijection of the two projections fits either.  The bound starts
    # at 2, since at 1 such small pairs rarely if ever fail
    report = verify_disjunction_theorem(left, right, k)
    if report.verdict == "fails":
        lhs = parse_aut(report.counterexample["lhs"])
        rhs = parse_aut(report.counterexample["rhs"])
        assert not brute_isomorphic(lhs, rhs)


def _assert_dropping_any_trace_breaks_ac2b(ctx: EffectContext, k: int) -> None:
    # the dropped kill word is still a shaped word that escapes the effect,
    # but no longer a trace
    for report in causes(ctx, k).causes:
        comp = report.computation
        assert oracle_check_details(ctx, comp, k)["ac2b"]
        for i in range(len(report.kill_traces)):
            dropped = Computation(
                comp.states,
                comp.labels,
                tuple(dl[:i] + dl[i + 1 :] for dl in comp.dlists),
                comp.truncated,
            )
            assert oracle_check_details(ctx, dropped, k)["ac2b"] is False


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ctx=_contexts())
def test_oracle_rejects_a_cause_with_one_trace_dropped(ctx):
    # every bound, since most generated causes have no kill trace at all
    for k in range(5):
        _assert_dropping_any_trace_breaks_ac2b(ctx, k)


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_oracle_rejects_a_fixture_cause_with_one_trace_dropped(name):
    ctx = fixture_context(name)
    _assert_dropping_any_trace_breaks_ac2b(ctx, len(ctx.lts.states))


@pytest.mark.parametrize(
    "name, k, entry", [("t4", 1, ("b", "b")), ("t5", 2, ("i", "i", "h"))]
)
def test_oracle_rejects_a_trace_longer_than_the_bound(name, k, entry):
    # the added trace is executable and escapes the effect, but has more
    # than k letters after the core letter
    ctx = fixture_context(name)
    (report,) = causes(ctx, k).causes
    comp = report.computation
    longer = Computation(
        comp.states, comp.labels, (comp.dlists[0] + (entry,),), comp.truncated
    )
    details = oracle_check_details(ctx, longer, k)
    assert details["ac2c"] is False
    assert details == word_oracle_details(ctx, longer, k)
    assert not oracle_check_cause(ctx, longer, k)


def _lengthened(lts: Lts, comp: Computation, k: int):
    """The computation with the first entry of its last extension list made
    longer than k: once by an executable suffix that carries its trace past
    every shaped word of this core, once by an executable suffix to
    length k and then a letter the trace cannot take there."""
    m = len(comp.labels)
    if not m or not comp.dlists[-1]:
        return
    entry = comp.dlists[-1][0]
    trace = tuple(
        itertools.chain.from_iterable(
            (label,) + dl[0] for label, dl in zip(comp.labels, comp.dlists)
        )
    )
    reached = reach(lts, lts.initial, trace)
    suffix: list[str] = []
    tails = []
    while True:
        enabled = sorted({label for s in reached for label, _ in lts.outgoing(s)})
        if len(entry) + len(suffix) == k:
            stuck = sorted(lts.alphabet - set(enabled))
            if stuck:
                tails.append(tuple(suffix) + (stuck[0],))
        if len(entry) + len(suffix) > m * k:
            tails.append(tuple(suffix))
            break
        if not enabled:
            break
        suffix.append(enabled[0])
        reached = step(lts, reached, enabled[0])
    for tail in tails:
        last = (entry + tail,) + comp.dlists[-1][1:]
        yield Computation(comp.states, comp.labels, comp.dlists[:-1] + (last,))


def _mutations(ctx: EffectContext, comp: Computation, k: int):
    """(context, computation, bound) for the cause and each mutation of it."""
    yield ctx, comp, k
    for longer in _lengthened(ctx.lts, comp, k):
        yield ctx, longer, k
    if comp.dlists and comp.dlists[0]:
        dropped = tuple(dl[1:] for dl in comp.dlists)
        yield ctx, Computation(comp.states, comp.labels, dropped), k
    if k > 0:
        yield ctx, comp, k - 1
    yield ctx, comp, k + 1
    yield EffectContext(ctx.lts, Not(ctx.formula)), comp, k


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ctx=_contexts())
def test_oracle_matches_the_word_level_oracle_on_causes_and_mutations(ctx):
    for k in range(5):
        for report in causes(ctx, k).causes:
            for query in _mutations(ctx, report.computation, k):
                assert oracle_check_details(*query) == word_oracle_details(*query)


def _malformed(lts: Lts, comp: Computation):
    """The computation with one requirement of the definition broken in
    each way: a core state unknown, a core step off the transition
    relation, another first state, an extension list one entry short, and
    an extension entry with a letter its trace cannot take."""
    states, labels, dlists = comp.states, comp.labels, comp.dlists
    for i in range(len(states)):
        yield Computation(states[:i] + ("unknown",) + states[i + 1 :], labels, dlists)
    for i, label in enumerate(labels):
        off = lts.states - successors(lts, states[i], label)
        for dst in sorted(off, key=format_state)[:1]:
            yield Computation(states[: i + 1] + (dst,) + states[i + 2 :], labels, dlists)
    for first in sorted(lts.states - {states[0]}, key=format_state):
        yield Computation((first,) + states[1:], labels, dlists)
    for i, dl in enumerate(dlists):
        if not dl:
            continue
        yield Computation(states, labels, dlists[:i] + (dl[:-1],) + dlists[i + 1 :])
        prefix = tuple(
            itertools.chain.from_iterable(
                (label,) + d[0] for label, d in zip(labels[: i + 1], dlists)
            )
        )
        reached = reach(lts, lts.initial, prefix)
        enabled = {label for s in reached for label, _ in lts.outgoing(s)}
        for stuck in sorted(lts.alphabet - enabled)[:1]:
            longer = (dl[0] + (stuck,),) + dl[1:]
            yield Computation(states, labels, dlists[:i] + (longer,) + dlists[i + 1 :])


_VALIDITY_FLAGS = (
    ("valid_path", "path"),
    ("valid_sizes", "size-compatibility"),
    ("valid_traces", "trace"),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ctx=_contexts())
def test_oracle_validity_flags_match_the_definition(ctx):
    lts = ctx.lts
    for k in range(5):
        for report in causes(ctx, k).causes:
            comp = report.computation
            for c in (comp, *_malformed(lts, comp)):
                details = oracle_check_details(ctx, c, k)
                reference = validate_computation(lts, c)
                anchored = c.states[0] == lts.initial
                assert (
                    details["valid_path"]
                    and details["valid_sizes"]
                    and details["valid_traces"]
                ) == (reference.valid and anchored)
                first_false = next(
                    (kind for flag, kind in _VALIDITY_FLAGS if not details[flag]),
                    None,
                )
                # a core that starts elsewhere fails the oracle's path flag
                # whatever else is wrong with it
                assert first_false == (reference.violation if anchored else "path")


# ---------------------------------------------------------------- metamorphic


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ctx=_contexts())
def test_kill_set_of_a_core_grows_with_the_bound(ctx):
    seen: dict = {}
    for k in range(5):
        for report in causes(ctx, k).causes:
            core = report.computation.core
            if core in seen:
                assert seen[core] <= report.kill_traces
            seen[core] = report.kill_traces


def _with_unreachable_states(lts: Lts) -> Lts:
    label = min(lts.alphabet)
    some = min(lts.states, key=str)
    extra = {("u0", label, "u1"), ("u1", label, "u0"), ("u1", label, some)}
    return Lts(
        lts.states | {"u0", "u1"},
        lts.initial,
        lts.alphabet,
        lts.transitions | extra,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ctx=_contexts(), k=st.integers(1, 4))
@example(ctx=fixture_context("t5"), k=0)
def test_unreachable_states_change_no_cause_set(ctx, k):
    grown = EffectContext(_with_unreachable_states(ctx.lts), ctx.formula)
    assert causes(grown, k).to_json() == causes(ctx, k).to_json()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ctx=_contexts(), k=st.integers(1, 4))
@example(ctx=fixture_context("t5"), k=0)
def test_renamed_states_give_the_renamed_projection(ctx, k):
    lts = ctx.lts
    # reverse the name order so that core sorting sees a different order
    names = sorted(lts.states)
    rename = dict(zip(names, (f"r{len(names) - i}" for i in range(len(names)))))
    renamed = Lts(
        frozenset(rename.values()),
        rename[lts.initial],
        lts.alphabet,
        frozenset((rename[s], a, rename[t]) for s, a, t in lts.transitions),
    )
    projection = causal_projection(ctx, k)
    renamed_projection = causal_projection(EffectContext(renamed, ctx.formula), k)
    assert renamed_projection == Lts(
        frozenset(rename[s] for s in projection.states),
        rename[projection.initial],
        projection.alphabet,
        frozenset((rename[s], a, rename[t]) for s, a, t in projection.transitions),
    )
