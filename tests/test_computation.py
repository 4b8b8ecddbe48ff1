"""D-lists, trace expansion, computation validity, sub-cores."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_subsequence, w, words
from reference import sub_cores, traces, validate_computation
from hmlcause import (
    Computation,
    Core,
    computation_traces,
    size_compatible,
)
from hmlcause.testkit import fixtures

FIX = fixtures()


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
    assert not size_compatible(((w("h"),), ()))
    assert size_compatible(((), ()))


# ---------------------------------------------------------------- structures


def test_core_path_shape_enforced():
    Core(("s40", "s42"), ("a",))
    with pytest.raises(ValueError):
        Core(("s40",), ("a",))


def test_computation_shape_enforced():
    with pytest.raises(ValueError):
        Computation(("s40", "s42"), ("a",), ())


def test_trivial_computation():
    c = Computation(("s20",), (), ())
    assert c.is_trivial
    assert c.states == ("s20",)
    assert c.labels == ()
    assert computation_traces(c) == frozenset({()})


# ---------------------------------------------------------------- validity


def test_validate_accepts_known_cause():
    t4 = FIX["t4"][0]
    c = Computation(("s40", "s42"), ("a",), ((w("h"), w("bb"), w("bh")),))
    report = validate_computation(t4, c)
    assert report.valid and report.violation is None


def test_validate_rejects_size_mismatch():
    t4 = FIX["t4"][0]
    c = Computation(
        ("s40", "s42", "s43"), ("a", "b"), ((), (w("h"),))
    )
    report = validate_computation(t4, c)
    assert not report.valid
    assert report.violation == "size-compatibility"


def test_validate_rejects_non_executable_trace():
    t1 = FIX["t1"][0]
    c = Computation(("s10", "s11"), ("a",), ((w("z"),),))
    report = validate_computation(t1, c)
    assert not report.valid
    assert report.violation == "trace"
    assert "az" in report.detail


def test_validate_rejects_broken_path():
    t1 = FIX["t1"][0]
    c = Computation(("s10", "s12"), ("a",), (((),),))
    report = validate_computation(t1, c)
    assert not report.valid
    assert report.violation == "path"


# ---------------------------------------------------------------- sub-cores


def test_sub_cores_drop_non_executable_words():
    t4 = FIX["t4"][0]
    core = Core(("s40", "s42", "s43"), ("a", "b"))
    subs = sub_cores(t4, core)
    # "b" alone is not executable from s40, so only "a" and the empty core
    assert subs == frozenset(
        {Core(("s40", "s42"), ("a",)), Core(("s40",), ())}
    )


def test_sub_cores_of_single_step():
    t1 = FIX["t1"][0]
    assert sub_cores(t1, Core(("s10", "s11"), ("a",))) == frozenset(
        {Core(("s10",), ())}
    )


def test_sub_cores_keep_initial_anchor():
    t6 = FIX["t6"][0]
    core = Core(("s60", "s61", "s62"), ("a", "b"))
    for sub in sub_cores(t6, core):
        assert sub.states[0] == "s60"


def test_sub_cores_enumerate_all_state_paths():
    t6 = FIX["t6"][0]
    core = Core(("s60", "s61", "s62"), ("a", "b"))
    paths = {
        sub.states for sub in sub_cores(t6, core) if sub.labels == ("a",)
    }
    # the nondeterministic a-step contributes one sub-core per target
    assert paths == {("s60", "s61"), ("s60", "s63")}


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
