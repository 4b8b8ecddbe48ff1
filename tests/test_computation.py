"""D-lists, trace expansion, computation validity, sub-cores."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fixture_context, is_subsequence, w, words
from reference import sub_cores, traces, validate_computation
from hmlcause import (
    Computation,
    Core,
    computation_traces,
)


# ---------------------------------------------------------------- traces


def test_traces_three_pair_expansion():
    """Three positions expand pairwise: the j-th entry of every list lands
    after its own core letter in the j-th word."""
    pairs = (
        ("a", (w("p"), w("q"), w("r"))),
        ("b", ((), (), ())),
        ("c", ((), w("u"), ())),
    )
    assert traces(pairs) == words("apbc", "aqbcu", "arbc")


def test_traces_all_empty_lists_yield_core():
    assert traces((("a", ()), ("b", ()))) == words("ab")


def test_traces_single_epsilon_entry():
    assert traces((("a", ((),)),)) == words("a")


def test_traces_nonempty_lists_exclude_bare_core():
    # once lists carry entries, only the spliced words remain
    assert traces((("a", (w("h"),)),)) == words("ah")
    assert traces((("a", (w("h"), ())),)) == words("ah", "a")


def test_traces_size_incompatible_rejected():
    with pytest.raises(ValueError):
        traces((("a", (w("h"),)), ("b", ())))
    with pytest.raises(ValueError):
        traces((("a", ()), ("b", ((),))))


# ---------------------------------------------------------------- structures


def test_core_path_shape_enforced():
    Core((0, 1), ("a",))
    with pytest.raises(ValueError):
        Core((0,), ("a",))


def test_computation_shape_enforced():
    with pytest.raises(ValueError):
        Computation((0, 1), ("a",), ())


def test_trivial_computation():
    c = Computation((0,), (), ())
    assert c.states == (0,)
    assert c.labels == ()
    assert computation_traces(c) == frozenset({()})


# ---------------------------------------------------------------- validity


def test_validate_accepts_known_cause():
    t4 = fixture_context("t4").lts
    c = Computation((0, 1), ("a",), ((w("h"), w("bb"), w("bh")),))
    report = validate_computation(t4, c)
    assert report.valid and report.violation is None


def test_validate_rejects_size_mismatch():
    t4 = fixture_context("t4").lts
    c = Computation(
        (0, 1, 2), ("a", "b"), ((), (w("h"),))
    )
    report = validate_computation(t4, c)
    assert not report.valid
    assert report.violation == "size-compatibility"


def test_validate_rejects_non_executable_trace():
    t1 = fixture_context("t1").lts
    c = Computation((0, 1), ("a",), ((w("z"),),))
    report = validate_computation(t1, c)
    assert not report.valid
    assert report.violation == "trace"
    assert "az" in report.detail


def test_validate_rejects_broken_path():
    t1 = fixture_context("t1").lts
    c = Computation((0, 2), ("a",), (((),),))
    report = validate_computation(t1, c)
    assert not report.valid
    assert report.violation == "path"


# ---------------------------------------------------------------- sub-cores


def test_sub_cores_drop_non_executable_words():
    t4 = fixture_context("t4").lts
    core = Core((0, 1, 2), ("a", "b"))
    subs = sub_cores(t4, core)
    # "b" alone is not executable from state 0, so only "a" and the empty core
    assert subs == frozenset(
        {Core((0, 1), ("a",)), Core((0,), ())}
    )


def test_sub_cores_of_single_step():
    t1 = fixture_context("t1").lts
    assert sub_cores(t1, Core((0, 1), ("a",))) == frozenset(
        {Core((0,), ())}
    )


def test_sub_cores_keep_initial_anchor():
    t6 = fixture_context("t6").lts
    core = Core((0, 1, 3), ("a", "b"))
    for sub in sub_cores(t6, core):
        assert sub.states[0] == 0


def test_sub_cores_enumerate_all_state_paths():
    t6 = fixture_context("t6").lts
    core = Core((0, 1, 3), ("a", "b"))
    paths = {
        sub.states for sub in sub_cores(t6, core) if sub.labels == ("a",)
    }
    # the nondeterministic a-step contributes one sub-core per target
    assert paths == {(0, 1), (0, 2)}


# ---------------------------------------------------------------- properties

label_strategy = st.sampled_from(["a", "b", "c"])
word_strategy = st.lists(label_strategy, max_size=2).map(tuple)


@st.composite
def compatible_pairs(draw):
    n_steps = draw(st.integers(1, 3))
    n_entries = draw(st.integers(0, 3))
    return tuple(
        (
            draw(label_strategy),
            tuple(draw(word_strategy) for _ in range(n_entries)),
        )
        for _ in range(n_steps)
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pairs=compatible_pairs())
def test_traces_cardinality_and_shape(pairs):
    result = traces(pairs)
    entries = len(pairs[0][1])
    assert result
    assert len(result) <= max(entries, 1)
    core = tuple(label for label, _ in pairs)
    for trace in result:
        assert is_subsequence(core, trace)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pairs=compatible_pairs())
def test_traces_empty_lists_equal_singleton_core(pairs):
    stripped = tuple((label, ()) for label, _ in pairs)
    core = tuple(label for label, _ in pairs)
    assert traces(stripped) == frozenset({core})
