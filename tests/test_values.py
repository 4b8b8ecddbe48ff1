"""The immutable value classes, `Lts`, `EffectContext` and the formula
nodes: equality within one class, hashing, repr, immutability, copying,
pickling and class patterns."""

from __future__ import annotations

import copy
import pickle

import pytest

from hmlcause import (
    FF,
    TT,
    And,
    Box,
    Diamond,
    EffectContext,
    Lts,
    Not,
    Or,
    Top,
    causes,
    formula_alphabet,
    make_lts,
)


def system() -> Lts:
    return Lts(frozenset({0, 1}), 0, frozenset({"a"}), frozenset({(0, "a", 1)}))


LTS_REPR = (
    "Lts(states=frozenset({0, 1}), initial=0, alphabet=frozenset({'a'}), "
    "transitions=frozenset({(0, 'a', 1)}))"
)

# (build a value, its fields in order, its repr); each call builds a new
# object, and no two rows build equal values
VALUES = [
    (system, ("states", "initial", "alphabet", "transitions"), LTS_REPR),
    (
        lambda: EffectContext(system(), Diamond("a", TT)),
        ("lts", "formula"),
        f"EffectContext(lts={LTS_REPR}, formula=Diamond(label='a', body=Top()))",
    ),
    (Top, (), "Top()"),
    (lambda: Diamond("a", TT), ("label", "body"), "Diamond(label='a', body=Top())"),
    (lambda: Box("a", TT), ("label", "body"), "Box(label='a', body=Top())"),
    (lambda: Not(Not(TT)), ("body",), "Not(body=Not(body=Top()))"),
    (
        lambda: And(TT, FF),
        ("left", "right"),
        "And(left=Top(), right=Not(body=Top()))",
    ),
    (lambda: Or(TT, FF), ("left", "right"), "Or(left=Top(), right=Not(body=Top()))"),
]
IDS = [repr_.split("(")[0] for _, _, repr_ in VALUES]


def bound_by_match(value) -> tuple:
    """The fields a class pattern binds, positionally."""
    match value:
        case Lts(states, initial, alphabet, transitions):
            return states, initial, alphabet, transitions
        case EffectContext(lts, formula):
            return lts, formula
        case Top():
            return ()
        case Diamond(label, body) | Box(label, body):
            return label, body
        case Not(body):
            return (body,)
        case And(left, right) | Or(left, right):
            return left, right
    raise AssertionError(f"no pattern binds {value!r}")


@pytest.mark.parametrize("build, fields, text", VALUES, ids=IDS)
def test_equal_values_hash_equal_and_print_their_fields(build, fields, text):
    value, twin = build(), build()
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert repr(value) == repr(twin) == text
    assert bound_by_match(value) == tuple(getattr(value, f) for f in fields)


def test_equality_holds_only_within_one_class():
    assert Diamond("a", TT) != Box("a", TT)
    assert And(TT, FF) != Or(TT, FF)
    values = [build() for build, _, _ in VALUES]
    for i, value in enumerate(values):
        for j, other in enumerate(values):
            assert (value == other) is (i == j), (value, other)
        # a value is not the tuple of its fields
        assert value != bound_by_match(value)


@pytest.mark.parametrize("build, fields, text", VALUES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(build, fields, text):
    value = build()
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def systems(value) -> list:
    return [v for v in (value, getattr(value, "lts", None)) if isinstance(v, Lts)]


def fill_caches(value) -> None:
    """Hash value, read a formula's alphabet, and for a system run `causes`
    at bound 12 with its effect, or with `<label>tt` for each label, and
    read every kill set and extension lists, so that the memo holds cause
    sets whose kill words and lists were spelled."""
    hash(value)
    if isinstance(value, EffectContext):
        contexts = [value]
    elif isinstance(value, Lts):
        contexts = [EffectContext(value, Diamond(label, TT)) for label in value.alphabet]
    else:
        contexts = []
        formula_alphabet(value)
    for ctx in contexts:
        for cause in causes(ctx, 12).causes:
            list(cause.kill_traces)
            list(cause.computation.dlists)
    assert all(system._memo for system in systems(value))


def pickled_sizes(value) -> list:
    return [len(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]


def copies_hold_no_memo(value, copies) -> bool:
    """Whether each system a copy rebuilt starts with an empty memo of its
    own; a shallow copy of a context keeps the original's system."""
    return all(
        system is original or not system._memo
        for twin in copies
        for original, system in zip(systems(value), systems(twin))
    )


@pytest.mark.parametrize("build, fields, text", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal_values(build, fields, text):
    value = build()
    sizes = pickled_sizes(value)
    fill_caches(value)
    hash(value)  # a formula node now holds its hash; a copy computes its own
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text
    # a copy is rebuilt from the fields alone, whatever the value has cached
    assert copies_hold_no_memo(value, copies)
    assert pickled_sizes(value) == sizes


def loop() -> Lts:
    """`s0-a->s1`, `s1-{i,j}->s1`, `s1-h->s2`: the cyclic loop whose kill
    sets for `<h>tt` grow as 2^k - 1 words."""
    return make_lts(
        "s0", [("s0", "a", "s1"), ("s1", "i", "s1"), ("s1", "j", "s1"), ("s1", "h", "s2")]
    )


@pytest.mark.parametrize(
    "build",
    [loop, lambda: EffectContext(loop(), Diamond("h", TT))],
    ids=["Lts", "EffectContext"],
)
def test_a_system_with_spelled_kill_sets_copies_and_pickles_without_them(build):
    """Once `causes` has spelled the loop's 4,095 kill words for `<h>tt`
    at bound 12, the loop and a context on it still copy without their
    memo and pickle as small as a fresh value.  Reprs are not compared: a
    copy may list the string labels in another order."""
    value = build()
    sizes = pickled_sizes(value)
    fill_caches(value)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(twin == value and hash(twin) == hash(value) for twin in copies)
    assert copies_hold_no_memo(value, copies)
    assert pickled_sizes(value) == sizes
