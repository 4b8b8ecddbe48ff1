"""Modal formulas: grammar, satisfaction, immediate effects."""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from helpers import FIXTURE_DIR, ROOT, init_actions, rand_formula, seeded_lts
from hmlcause import (
    And,
    Box,
    Diamond,
    EffectContext,
    FormulaParseError,
    Lts,
    Not,
    Or,
    Top,
    causes,
    format_formula,
    formula_alphabet,
    is_immediate_effect,
    make_lts,
    oracle_check_cause,
    parse_formula,
    satisfies,
    states_satisfying,
)
from hmlcause.cli import main
from hmlcause.hml import MAX_FORMULA_DEPTH
from hmlcause.lts import valid_label
from hmlcause.testkit import fixture_context, fixtures
from test_differential import _contexts

FIX = fixtures()


# ---------------------------------------------------------------- parsing


def test_parse_diamond():
    assert parse_formula("<h>tt") == Diamond("h", Top())


def test_parse_nested_with_precedence_override():
    assert parse_formula("[a](<b>tt | !<c>tt)") == Box(
        "a", Or(Diamond("b", Top()), Not(Diamond("c", Top())))
    )


def test_parse_ff_is_negated_top():
    assert parse_formula("ff") == Not(Top())


def test_conjunction_binds_tighter_than_disjunction():
    assert parse_formula("<a>tt & <b>tt | <c>tt") == Or(
        And(Diamond("a", Top()), Diamond("b", Top())), Diamond("c", Top())
    )


def test_binary_connectives_associate_left():
    f = parse_formula("<a>tt & <b>tt & <c>tt")
    assert f == And(
        And(Diamond("a", Top()), Diamond("b", Top())), Diamond("c", Top())
    )


def test_primed_label():
    assert parse_formula("<h'>tt") == Diamond("h'", Top())


def test_parse_error_carries_position():
    with pytest.raises(FormulaParseError) as err:
        parse_formula("&tt")
    assert err.value.position == 0


def test_empty_label_rejected():
    with pytest.raises(FormulaParseError, match="empty label"):
        parse_formula("<>tt")


def test_trailing_garbage_rejected():
    with pytest.raises(FormulaParseError, match="after formula"):
        parse_formula("<a>tt extra")


def test_deep_parentheses_parse_to_their_content():
    # 400 levels of grouping around a tree of depth 1
    assert parse_formula("(" * 400 + "tt" + ")" * 400) == Top()


def test_parse_does_not_depend_on_the_callers_stack_depth():
    text = "(" * 400 + "<a>(tt | !tt)" + ")" * 400

    def from_depth(frames: int):
        return parse_formula(text) if frames == 0 else from_depth(frames - 1)

    assert from_depth(800) == parse_formula(text) == Diamond("a", Or(Top(), Not(Top())))


def test_whitespace_insignificant():
    assert parse_formula(" [ a ] tt ") == parse_formula("[a]tt")


_DEEP = f"formula nests deeper than {MAX_FORMULA_DEPTH} levels"


@pytest.mark.parametrize(
    "text, message, position",
    [
        ('tt "', "unexpected quote character", 3),
        ('<"a>tt', "unexpected quote character", 1),
        ("tt x", "unexpected 'x' after formula", 3),
        ("", "unexpected end of input", 0),
        ("   ", "unexpected end of input", 3),
        ("tt & ", "unexpected end of input", 5),
        ("<>tt", "empty label inside a modality", 1),
        ("[]tt", "empty label inside a modality", 1),
        ("<&>tt", "expected a label inside the modality", 1),
        ("<", "expected a label inside the modality", 1),
        ("<a tt", "expected '>' to close the modality", 3),
        ("[a>tt", "expected ']' to close the modality", 2),
        ("(tt tt", "expected ')'", 4),
        (")", "unexpected ')'", 0),
        ("&tt", "unexpected '&'", 0),
        (">tt", "unexpected '>'", 0),
        ("x", "unexpected 'x'", 0),
        (" & ".join(["tt"] * (MAX_FORMULA_DEPTH + 1)), _DEEP, 0),
        ("!" * MAX_FORMULA_DEPTH + "tt", _DEEP, 0),
        # the trailing word is reported before the depth
        ("!" * MAX_FORMULA_DEPTH + "tt x", "unexpected 'x' after formula", 103),
    ],
)
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(FormulaParseError) as err:
        parse_formula(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_a_formula_at_the_depth_limit_parses():
    # the limit counts nodes: a chain of n conjuncts and n-1 negations of tt
    # each nest n deep
    assert parse_formula(" & ".join(["tt"] * MAX_FORMULA_DEPTH)) is not None
    assert parse_formula("!" * (MAX_FORMULA_DEPTH - 1) + "tt") is not None


def test_a_parse_error_survives_copy_and_pickle():
    with pytest.raises(FormulaParseError) as err:
        parse_formula("<a tt")
    for clone in (copy.copy(err.value), pickle.loads(pickle.dumps(err.value))):
        assert type(clone) is FormulaParseError
        assert str(clone) == str(err.value) == "expected '>' to close the modality (at position 3)"
        assert clone.position == 3


@given(
    st.text(
        st.sampled_from('<>[]!&|()"' + " \t\n\x1c\x85\xa0 　" + "ab'_é")
        | st.characters(categories=["Zs", "Zl", "Zp", "Cc"])
    )
)
@example("a b")
@example("a\xa0b")
@example("h'")
@example(" a\u2028")
def test_a_modality_takes_exactly_the_labels_an_aut_file_takes(s):
    # the formula grammar and the AUT label rule agree on every word; the
    # whitespace around a label is not part of it
    try:
        formula = parse_formula(f"<{s}>tt")
    except FormulaParseError:
        assert not valid_label(s.strip())
    else:
        assert valid_label(s.strip()) and formula == Diamond(s.strip(), Top())


# ---------------------------------------------------------------- alphabet


def test_formula_alphabet_examples():
    assert formula_alphabet(parse_formula("<h>tt")) == frozenset({"h"})
    assert formula_alphabet(parse_formula("tt")) == frozenset()
    assert formula_alphabet(parse_formula("[a]<b>tt & <a>tt")) == frozenset(
        {"a", "b"}
    )
    # a node that adds no label to a child's shares the child's set
    inner = parse_formula("<a>tt & [b]tt")
    for outer in (
        Diamond("a", inner),
        Not(inner),
        And(inner, Box("b", Top())),
        Or(Diamond("a", Top()), inner),
    ):
        assert formula_alphabet(outer) is formula_alphabet(inner)


def _labels(f) -> frozenset:
    """The labels of f's modalities, by recursion on the formula."""
    match f:
        case Diamond(label, body) | Box(label, body):
            return {label} | _labels(body)
        case Not(body):
            return _labels(body)
        case And(left, right) | Or(left, right):
            return _labels(left) | _labels(right)
    return frozenset()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_a_formula_keeps_its_alphabet_and_hash_out_of_equality_and_repr(seed):
    rng = random.Random(seed)
    f = rand_formula(rng, ["a", "b", "c", "d"], 4)
    assert formula_alphabet(f) == _labels(f)
    # the hash a frozen dataclass gives: its fields' tuple, children hashed
    # the same way
    assert hash(f) == hash(tuple(getattr(f, name) for name in f.__match_args__))
    built = parse_formula(format_formula(f))
    assert built == f and built is not f and repr(built) == repr(f)
    assert "_hash" not in repr(f) and "_alphabet" not in repr(f)
    # equal fields, different nodes
    assert Diamond("a", f) != Box("a", f)


def test_a_pickled_formula_hashes_as_the_loading_process_builds_it():
    # a node keeps its hash once asked for it, and a string's hash differs
    # between processes, so the pickle holds the fields alone and the loaded
    # node hashes anew
    text = "<a>(tt & [b]!<c>tt) | !<a>tt"
    formula = parse_formula(text)
    assert formula in {formula} and formula_alphabet(formula) == {"a", "b", "c"}
    data = pickle.dumps(formula)
    check = (
        "import pickle, sys\n"
        "from hmlcause import formula_alphabet, parse_formula\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        f"built = parse_formula({text!r})\n"
        "assert loaded == built and hash(loaded) == hash(built)\n"
        "assert loaded in {built} and formula_alphabet(loaded) == {'a', 'b', 'c'}\n"
    )
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    for seed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join(filter(None, paths)),
        }
        run = subprocess.run(
            [sys.executable, "-c", check], input=data, env=env, capture_output=True
        )
        assert run.returncode == 0, run.stderr.decode()
    assert pickle.loads(data) == parse_formula(text)


# ---------------------------------------------------------------- satisfaction


def test_top_holds_everywhere():
    t4 = FIX["t4"][0]
    for s in t4.states:
        assert satisfies(t4, s, Top())


def test_diamond_on_linear_chain():
    t1 = FIX["t1"][0]
    phi = parse_formula("<h>tt")
    assert satisfies(t1, "s11", phi)
    assert not satisfies(t1, "s10", phi)


def test_vacuous_box():
    t1 = FIX["t1"][0]
    # s12 has no outgoing transitions at all
    assert satisfies(t1, "s12", Box("a", Not(Top())))
    assert satisfies(t1, "s12", Box("h", Not(Top())))


def test_satisfies_unknown_state():
    with pytest.raises(ValueError):
        satisfies(FIX["t1"][0], "ghost", Top())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ctx=_contexts(), seed=st.integers(0, 10_000), depth=st.integers(0, 4))
@example(
    ctx=EffectContext(FIX["t6"][0], parse_formula("[a]<h>tt | <b>tt")),
    seed=0,
    depth=0,
)
def test_states_satisfying_matches_pointwise(ctx, seed, depth):
    lts = ctx.lts
    drawn = rand_formula(random.Random(seed), sorted(lts.alphabet), depth)
    for f in (ctx.formula, drawn):
        assert states_satisfying(lts, f) == frozenset(
            s for s in lts.states if reference.satisfies(lts, s, f)
        )


# ---------------------------------------------------------------- deep formulas
#
# Each case runs with a budget of successor lookups that a per-state
# recursion, exponential in the modal depth on a branching system, exceeds
# at once.


@pytest.fixture
def successor_budget(monkeypatch):
    lookup = Lts.outgoing
    calls = 0

    def counted(self, s):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise RuntimeError("successor lookup budget exceeded")
        return lookup(self, s)

    monkeypatch.setattr(Lts, "outgoing", counted)


BOXES = "[a]" * 99 + "tt"


@pytest.fixture
def all_a(tmp_path):
    """Two states, each with an a-step to both."""
    path = tmp_path / "all_a.aut"
    path.write_text('des (0,4,2)\n(0,"a",0)\n(0,"a",1)\n(1,"a",0)\n(1,"a",1)\n')
    return str(path)


def test_check_evaluates_the_deepest_formula(successor_budget, all_a, capsys):
    assert main(["check", all_a, BOXES]) == 0
    assert capsys.readouterr().out == "initial state 0 satisfies the formula\n"


def test_law_preconditions_evaluate_the_deepest_formula(
    successor_budget, all_a, capsys
):
    right = str(FIXTURE_DIR / "fig3_tp.aut")
    argv = ["verify", all_a, right, BOXES, "<h'>tt", "--theorem", "disjunction"]
    assert main(argv) == 1
    assert "effect already holds at the initial state" in capsys.readouterr().out


def test_oracle_evaluates_the_deepest_formula(successor_budget):
    lts = make_lts(
        0, [(0, "c", 1), (1, "a", 1), (1, "a", 2), (2, "a", 1), (2, "a", 2)]
    )
    ctx = EffectContext(lts, parse_formula("[a]" * 97 + "tt & <a>tt"))
    (report,) = causes(ctx, 3).causes
    assert report.computation.labels == ("c",)
    assert oracle_check_cause(ctx, report.computation, 3)


# ---------------------------------------------------------------- context


def test_effect_context_rejects_foreign_alphabet():
    with pytest.raises(ValueError):
        EffectContext(FIX["t1"][0], parse_formula("<z>tt"))


def test_is_immediate_effect_examples():
    assert is_immediate_effect(fixture_context("t2"))
    assert not is_immediate_effect(fixture_context("t1"))
    assert is_immediate_effect(EffectContext(FIX["t1"][0], Top()))


# ---------------------------------------------------------------- properties


def _sample(seed: int):
    rng = random.Random(seed)
    lts = seeded_lts(seed % 60, namespace="L")
    state = rng.choice(sorted(lts.states))
    labels = sorted(lts.alphabet)
    return rng, lts, state, labels


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_box_diamond_duality(seed):
    rng, lts, state, labels = _sample(seed)
    body = rand_formula(rng, labels, 2)
    label = rng.choice(labels)
    assert satisfies(lts, state, Box(label, body)) == (
        not satisfies(lts, state, Diamond(label, Not(body)))
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_connectives_respect_truth_tables(seed):
    rng, lts, state, labels = _sample(seed)
    f = rand_formula(rng, labels, 2)
    g = rand_formula(rng, labels, 2)
    vf = satisfies(lts, state, f)
    vg = satisfies(lts, state, g)
    assert satisfies(lts, state, And(f, g)) == (vf and vg)
    assert satisfies(lts, state, Or(f, g)) == (vf or vg)
    assert satisfies(lts, state, Not(f)) == (not vf)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_satisfied_diamond_implies_enabled_action(seed):
    rng, lts, state, labels = _sample(seed)
    body = rand_formula(rng, labels, 2)
    label = rng.choice(labels)
    if satisfies(lts, state, Diamond(label, body)):
        assert label in init_actions(lts, state)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_alphabet_of_conjunction_is_union(seed):
    rng = random.Random(seed)
    labels = ["a", "b", "c", "d"]
    f = rand_formula(rng, labels, 3)
    g = rand_formula(rng, labels, 3)
    assert formula_alphabet(And(f, g)) == formula_alphabet(
        f
    ) | formula_alphabet(g)
    assert formula_alphabet(Not(f)) == formula_alphabet(f)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_parse_format_round_trip(seed):
    rng = random.Random(seed)
    f = rand_formula(rng, ["a", "b", "h'", "step2"], 4)
    assert parse_formula(format_formula(f)) == f


@pytest.mark.parametrize(
    "text, formatted",
    [
        ("(tt & tt) | tt", "tt & tt | tt"),
        ("tt & (tt & tt)", "tt & (tt & tt)"),
        ("tt | (tt | tt)", "tt | (tt | tt)"),
        ("(tt | tt) | tt", "tt | tt | tt"),
        ("(tt & tt) & tt", "tt & tt & tt"),
        ("(tt | tt) & tt", "(tt | tt) & tt"),
        ("tt & (tt | tt)", "tt & (tt | tt)"),
        ("tt | tt & tt", "tt | tt & tt"),
        ("<a>(tt & tt)", "<a>(tt & tt)"),
        ("[a]!(tt | tt)", "[a]!(tt | tt)"),
        ("!(tt & ff)", "!(tt & !tt)"),
        ("ff", "!tt"),
        ("<a>[b]!tt", "<a>[b]!tt"),
        ("!<a>(tt | [b]ff)", "!<a>(tt | [b]!tt)"),
        ("(<a>tt | tt) & !(tt & tt)", "(<a>tt | tt) & !(tt & tt)"),
    ],
)
def test_format_places_parentheses_only_where_needed(text, formatted):
    assert format_formula(parse_formula(text)) == formatted
