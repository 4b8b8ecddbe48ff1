"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import random
from pathlib import Path

from hmlcause import (
    And,
    Box,
    Diamond,
    EffectContext,
    GenParams,
    Lts,
    Not,
    Or,
    Top,
    gen_lts,
    make_lts,
    parse_aut,
    parse_formula,
    verify_conjunction_theorem,
    verify_disjunction_theorem,
)

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = ROOT / "fixtures"
FIXTURE_NAMES = sorted(path.stem for path in FIXTURE_DIR.glob("*.aut"))


def fixture_context(name: str) -> EffectContext:
    """The example system `fixtures/<name>.aut` with the effect in
    `fixtures/<name>.formula`; its states are the file's indices."""
    return EffectContext(
        parse_aut((FIXTURE_DIR / f"{name}.aut").read_text()),
        parse_formula((FIXTURE_DIR / f"{name}.formula").read_text()),
    )


def child_env() -> dict:
    """The environment for a child `python` that must import the package."""
    # the child finds the package the way this process does, also when only
    # pytest's own pythonpath setting put src/ on sys.path
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def w(text: str) -> tuple:
    """Word literal for single-character labels: w("ah") == ("a", "h")."""
    return tuple(text)


def words(*texts: str) -> frozenset:
    return frozenset(w(t) for t in texts)


def seeded_lts(seed: int, **overrides) -> "Lts":
    return gen_lts(GenParams(seed=seed, **overrides))


def rand_formula(rng: random.Random, labels: list, depth: int):
    """Formula sampler independent of the generator shipped in the package."""
    if depth == 0 or rng.random() < 0.2:
        return Top() if rng.random() < 0.5 else Not(Top())
    pick = rng.randrange(5)
    if pick == 0:
        return Diamond(rng.choice(labels), rand_formula(rng, labels, depth - 1))
    if pick == 1:
        return Box(rng.choice(labels), rand_formula(rng, labels, depth - 1))
    if pick == 2:
        return Not(rand_formula(rng, labels, depth - 1))
    if pick == 3:
        return And(
            rand_formula(rng, labels, depth - 1),
            rand_formula(rng, labels, depth - 1),
        )
    return Or(
        rand_formula(rng, labels, depth - 1),
        rand_formula(rng, labels, depth - 1),
    )


def is_subsequence(shorter: tuple, longer: tuple) -> bool:
    it = iter(longer)
    return all(letter in it for letter in shorter)


def init_actions(lts: Lts, s) -> frozenset:
    """Labels enabled as a first step from s."""
    return frozenset(label for label, _ in lts.outgoing(s))


def verify_both(left: EffectContext, right: EffectContext, k=None) -> tuple:
    """The disjunction and the conjunction law reports, in that order."""
    return (
        verify_disjunction_theorem(left, right, k),
        verify_conjunction_theorem(left, right, k),
    )


def cyclic_pair():
    """A 25-state, 60-transition interleaving whose "both effects" context
    has millions of kill words per core at bound 4."""
    left = EffectContext(
        make_lts(
            "q0",
            [("q0", "Lc", "q1"), ("q1", "Lc", "q2"), ("q2", "Lb", "q4"), ("q2", "Lc", "q3")],
            extra_labels=["La", "Lb", "Lc"],
        ),
        parse_formula("<Lc>([La]!tt & <Lb>tt)"),
    )
    right = EffectContext(
        make_lts(
            "q0",
            [
                ("q0", "Ra", "q2"), ("q0", "Rb", "q0"), ("q0", "Rc", "q1"),
                ("q1", "Rb", "q3"), ("q2", "Ra", "q0"), ("q2", "Ra", "q4"),
                ("q2", "Rc", "q2"), ("q3", "Rb", "q2"),
            ],
        ),
        parse_formula("<Ra>[Rc](!tt & tt)"),
    )
    return left, right
