"""Seeded generators and the example systems under fixtures/."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from helpers import FIXTURE_NAMES, fixture_context, seeded_lts
from hmlcause import (
    Exactness,
    GenParams,
    causes,
    corpus,
    emit_aut,
    format_formula,
    formula_alphabet,
    gen_effect,
    gen_lts,
    is_immediate_effect,
    longest_acyclic_path,
    make_lts,
    parse_aut,
    reachable_states,
    satisfies,
    states_satisfying,
)
from hmlcause.testkit import RETRY_BUDGET, _edge_bits, _random_formula

EXPECTED_FIXTURES = {
    "t1",
    "t2",
    "t3",
    "t4",
    "t5",
    "t6",
    "fig3_t",
    "fig3_tp",
}


# ---------------------------------------------------------------- gen_lts


def test_gen_lts_deterministic():
    p = GenParams(seed=11)
    assert gen_lts(p) == gen_lts(p)


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(seed=1, max_states=0)
    with pytest.raises(ValueError):
        GenParams(seed=1, alphabet_size=0)
    # an out-degree of 0 leaves gen_lts no state to attach the next one to
    with pytest.raises(ValueError):
        GenParams(seed=3, max_out_degree=0)
    # below 0 the depth never reaches 0, so only the 15 % chance of a leaf
    # ends a branch, and gen_effect mostly recurses until the stack runs out
    with pytest.raises(ValueError):
        GenParams(seed=1, formula_depth=-1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 1000))
def test_gen_lts_well_formed(seed):
    lts = seeded_lts(seed, namespace="L")
    assert longest_acyclic_path(lts) is not None
    assert reachable_states(lts) == lts.states
    assert len(lts.alphabet) == 3
    assert all(label.startswith("L") for label in lts.alphabet)
    # at most one successor per state and label: generated systems are
    # deterministic so the composition laws apply
    seen = set()
    for (src, label, _dst) in lts.transitions:
        assert (src, label) not in seen
        seen.add((src, label))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 1000))
def test_gen_lts_respects_out_degree(seed):
    lts = gen_lts(GenParams(seed=seed, max_out_degree=2))
    for s in lts.states:
        assert len(lts.outgoing(s)) <= 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 1000))
def test_namespaces_give_disjoint_alphabets(seed):
    left = seeded_lts(seed, namespace="L")
    right = seeded_lts(seed, namespace="R")
    assert not (left.alphabet & right.alphabet)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 1000))
def test_gen_lts_serialization_round_trip(seed):
    lts = seeded_lts(seed)
    text = emit_aut(lts)
    assert emit_aut(parse_aut(text)) == text


# ---------------------------------------------------------------- gen_effect


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 1000))
def test_gen_effect_contracts(seed):
    p = GenParams(seed=seed, namespace="L")
    lts = gen_lts(p)
    effect = gen_effect(p, lts)
    assert effect == gen_effect(p, lts)
    assert formula_alphabet(effect) <= lts.alphabet
    assert not satisfies(lts, lts.initial, effect)
    assert any(satisfies(lts, s, effect) for s in reachable_states(lts))


@pytest.mark.parametrize("namespace", ["", "L", "R"])
@pytest.mark.parametrize("acyclic", [True, False])
def test_each_draw_is_the_reference_draw_with_its_satisfying_states(
    acyclic, namespace
):
    # the reference draws the formula alone and the draw is judged
    # afterwards, as the generator did before it judged as it drew; at
    # depth 0 every draw is tt or ff and is rejected
    kept_count = rejected = 0
    for seed in range(10):
        for depth in range(5):
            p = GenParams(
                seed=seed,
                max_states=5,
                max_out_degree=3,
                acyclic=acyclic,
                formula_depth=depth,
                namespace=namespace,
            )
            lts = gen_lts(p)
            bit, edges = _edge_bits(lts)
            full = (1 << len(bit)) - 1
            labels = sorted(lts.alphabet)
            kept = None
            for attempt in range(RETRY_BUDGET):
                seeded = f"effect/{seed}/{namespace}/{attempt}"
                rng, reference_rng = random.Random(seeded), random.Random(seeded)
                formula, mask = _random_formula(rng, edges, full, depth)
                expected = reference.random_formula(reference_rng, labels, depth)
                assert formula == expected
                assert rng.getstate() == reference_rng.getstate()
                sat = states_satisfying(lts, formula)
                assert mask == sum(bit[s] for s in sat)
                if lts.initial not in sat and not sat.isdisjoint(reachable_states(lts)):
                    kept = formula
                    break
                rejected += depth > 0
            if kept is None:
                with pytest.raises(RuntimeError, match="no usable effect"):
                    gen_effect(p, lts)
            else:
                assert gen_effect(p, lts) == kept
                kept_count += 1
    assert kept_count >= 10 and rejected >= kept_count


def test_gen_effect_on_cyclic_systems_is_pinned():
    # a cyclic family with rejected draws; the digest was recorded before
    # the effect generator judged its draws as it drew them
    digest = hashlib.sha256()
    for seed in range(300):
        p = GenParams(seed=seed, max_states=5, max_out_degree=3, acyclic=False)
        lts = gen_lts(p)
        digest.update(emit_aut(lts).encode())
        digest.update(format_formula(gen_effect(p, lts)).encode() + b"\n")
    assert digest.hexdigest() == (
        "b3cb9257e428328dbaeacb2b9b6ced3d6011c90374fe814b85b6073ec7f0b2d3"
    )


def test_gen_effect_exhausts_on_degenerate_input():
    p = GenParams(seed=5, max_states=1)
    lts = make_lts("q0", [], extra_labels=["La"])
    with pytest.raises(RuntimeError, match="no usable effect"):
        gen_effect(p, lts)
    # `<La>tt` holds at the unreachable q1 alone, and every effect that
    # holds somewhere reachable holds at the initial state too
    lts = make_lts("q0", [("q1", "La", "q2")])
    with pytest.raises(RuntimeError, match="no usable effect"):
        gen_effect(p, lts)


# ---------------------------------------------------------------- fixtures


def test_fixture_names_complete():
    assert set(FIXTURE_NAMES) == EXPECTED_FIXTURES


def test_fixture_shapes():
    counts = {}
    for name in FIXTURE_NAMES:
        lts = fixture_context(name).lts
        counts[name] = (len(lts.states), len(lts.transitions))
    assert counts == {
        "t1": (3, 2),
        "t2": (2, 3),
        "t3": (4, 3),
        "t4": (6, 5),
        "t5": (3, 3),
        "t6": (8, 7),
        "fig3_t": (4, 3),
        "fig3_tp": (5, 4),
    }


def test_fixture_effects():
    for name in FIXTURE_NAMES:
        expected = "<h'>tt" if name == "fig3_tp" else "<h>tt"
        assert format_formula(fixture_context(name).formula) == expected


def test_fixture_context_unknown_name():
    with pytest.raises(FileNotFoundError):
        fixture_context("t99")


def test_fixture_regression_anchors():
    """The documented cause sets for the shipped systems, in brief: each
    fixture exists to pin one behavior of the engine."""
    assert [
        "".join(c.computation.labels)
        for c in causes(fixture_context("t1"), 4).causes
    ] == ["a"]
    assert causes(fixture_context("t3"), 4).causes == ()
    assert len(causes(fixture_context("t6"), 4).causes) == 2


# ---------------------------------------------------------------- corpus


def test_corpus_is_deterministic_and_indexed():
    batch_a = list(corpus(5, seed=9))
    batch_b = list(corpus(5, seed=9))
    assert [i.index for i in batch_a] == [0, 1, 2, 3, 4]
    for a, b in zip(batch_a, batch_b):
        assert a.left.lts == b.left.lts
        assert a.right.formula == b.right.formula
        assert a.bound == b.bound


def test_the_paper_corpus_is_pinned():
    # acceptance criterion 10's corpus, both sides as AUT text and formula
    # text, and the bound; perfbench's golden digests assume it unchanged
    digest = hashlib.sha256()
    for inst in corpus(200, seed=7):
        for side in (inst.left, inst.right):
            digest.update(emit_aut(side.lts).encode())
            digest.update(format_formula(side.formula).encode() + b"\n")
        digest.update(b"%d\n" % inst.bound)
    assert digest.hexdigest() == (
        "7f47eb3d24142170c34d259e1f98cf6b17aa219088a7afc0bbe61a5e7d25c2d6"
    )


def test_corpus_instances_satisfy_law_hypotheses():
    for inst in corpus(6, seed=2):
        assert not (inst.left.lts.alphabet & inst.right.lts.alphabet)
        assert not is_immediate_effect(inst.left)
        assert not is_immediate_effect(inst.right)
        assert longest_acyclic_path(inst.left.lts) is not None
        assert longest_acyclic_path(inst.right.lts) is not None


def test_corpus_bound_covers_longest_composite_path():
    for inst in corpus(6, seed=2):
        assert inst.bound == longest_acyclic_path(
            inst.left.lts
        ) + longest_acyclic_path(inst.right.lts)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 500))
def test_acyclic_generation_is_exact_at_state_count(seed):
    lts = seeded_lts(seed, namespace="L")
    p = GenParams(seed=seed, namespace="L")
    ctx_formula = gen_effect(p, lts)
    from hmlcause import EffectContext

    cause_set = causes(EffectContext(lts, ctx_formula), len(lts.states))
    assert cause_set.exactness is Exactness.EXACT
