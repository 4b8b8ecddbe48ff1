"""Canonical fixtures and seeded random instance generation.

The fixtures are the small systems the rest of the test suite reasons
about; the generators produce acyclic, deterministic, disjoint-alphabet
component pairs suitable for checking the composition laws at an exact
bound.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Iterator

from .hml import (
    TT,
    And,
    Box,
    Diamond,
    EffectContext,
    FF,
    Formula,
    Not,
    Or,
    _evaluate,
    parse_formula,
)
from .lts import Lts, longest_acyclic_path, make_lts, reachable_states


@dataclass(frozen=True)
class GenParams:
    seed: int
    max_states: int = 6
    max_out_degree: int = 2
    alphabet_size: int = 3
    acyclic: bool = True
    formula_depth: int = 3
    namespace: str = ""

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if self.max_out_degree < 1:
            raise ValueError("max_out_degree must be at least 1")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        if self.alphabet_size > len(string.ascii_lowercase):
            raise ValueError("alphabet_size too large")
        if self.formula_depth < 0:
            raise ValueError("formula_depth must not be negative")


def _labels(p: GenParams) -> list:
    return [p.namespace + string.ascii_lowercase[i] for i in range(p.alphabet_size)]


def gen_lts(p: GenParams) -> Lts:
    """Deterministic in p.  Every state is reachable, at most one successor
    per (state, label), and with acyclic=True all transitions point from
    lower to higher state index."""
    rng = random.Random(
        f"lts/{p.seed}/{p.namespace}/{p.max_states}/{p.alphabet_size}/"
        f"{p.max_out_degree}/{p.acyclic}"
    )
    labels = _labels(p)
    n = 1 if p.max_states == 1 else rng.randint(2, p.max_states)
    states = [f"q{i}" for i in range(n)]
    capacity = min(p.max_out_degree, p.alphabet_size)
    used: dict = {s: set() for s in states}
    transitions = set()
    for i in range(1, n):
        candidates = [j for j in range(i) if len(used[states[j]]) < capacity]
        src = states[rng.choice(candidates)]
        label = rng.choice(sorted(set(labels) - used[src]))
        transitions.add((src, label, states[i]))
        used[src].add(label)
    for _ in range(rng.randint(0, n - 1) if n > 1 else 0):
        lo = rng.randrange(0, n - 1)
        src = states[lo]
        if len(used[src]) >= capacity:
            continue
        hi = rng.randrange(lo + 1, n) if p.acyclic else rng.randrange(0, n)
        free = sorted(set(labels) - used[src])
        if not free:
            continue
        label = rng.choice(free)
        transitions.add((src, label, states[hi]))
        used[src].add(label)
    return Lts(
        frozenset(states),
        states[0],
        frozenset(labels),
        frozenset(transitions),
    )


def _random_formula(rng: random.Random, labels: list, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.15:
        return TT if rng.random() < 0.5 else FF
    op = rng.choice(("dia", "dia", "box", "not", "and", "or"))
    if op == "dia":
        return Diamond(rng.choice(labels), _random_formula(rng, labels, depth - 1))
    if op == "box":
        return Box(rng.choice(labels), _random_formula(rng, labels, depth - 1))
    if op == "not":
        return Not(_random_formula(rng, labels, depth - 1))
    left = _random_formula(rng, labels, depth - 1)
    right = _random_formula(rng, labels, depth - 1)
    return And(left, right) if op == "and" else Or(left, right)


RETRY_BUDGET = 500


def gen_effect(p: GenParams, lts: Lts) -> Formula:
    """A random effect over the system's alphabet that has not already
    occurred initially but can occur somewhere reachable.  Deterministic in
    p; raises after a bounded number of rejected draws."""
    labels = sorted(lts.alphabet)
    reachable = reachable_states(lts)
    for attempt in range(RETRY_BUDGET):
        rng = random.Random(f"effect/{p.seed}/{p.namespace}/{attempt}")
        formula = _random_formula(rng, labels, p.formula_depth)
        # uncached: most draws are rejected and never asked about again
        sat = _evaluate(lts, formula)
        if lts.initial not in sat and not sat.isdisjoint(reachable):
            return formula
    raise RuntimeError(
        f"no usable effect found in {RETRY_BUDGET} draws; "
        "the system is too degenerate"
    )


def fixtures() -> dict:
    """The canonical named systems, each paired with its effect formula."""
    t1 = make_lts("s10", [("s10", "a", "s11"), ("s11", "h", "s12")])
    t2 = make_lts(
        "s20",
        [("s20", "h", "s20"), ("s20", "a", "s21"), ("s21", "h", "s21")],
    )
    t3 = make_lts(
        "s30",
        [("s30", "a", "s31"), ("s30", "a", "s32"), ("s31", "h", "s33")],
    )
    t4 = make_lts(
        "s40",
        [
            ("s40", "a", "s42"),
            ("s42", "h", "s45"),
            ("s42", "b", "s43"),
            ("s43", "h", "s46"),
            ("s43", "b", "s44"),
        ],
    )
    t5 = make_lts(
        "s50",
        [("s50", "a", "s51"), ("s51", "i", "s51"), ("s51", "h", "s52")],
    )
    t6 = make_lts(
        "s60",
        [
            ("s60", "a", "s61"),
            ("s61", "h", "s64"),
            ("s61", "b", "s62"),
            ("s62", "h", "s67"),
            ("s60", "a", "s63"),
            ("s63", "b", "s65"),
            ("s65", "h", "s66"),
        ],
    )
    fig3_t = make_lts(
        "s0", [("s0", "a", "s1"), ("s1", "h", "s2"), ("s0", "b", "s3")]
    )
    fig3_tp = make_lts(
        "p0",
        [
            ("p0", "d", "p1"),
            ("p1", "e", "p2"),
            ("p2", "h'", "p3"),
            ("p0", "f", "p4"),
        ],
    )
    h = parse_formula("<h>tt")
    return {
        "t1": (t1, h),
        "t2": (t2, h),
        "t3": (t3, h),
        "t4": (t4, h),
        "t5": (t5, h),
        "t6": (t6, h),
        "fig3_t": (fig3_t, h),
        "fig3_tp": (fig3_tp, parse_formula("<h'>tt")),
    }


def fixture_context(name: str) -> EffectContext:
    lts, formula = fixtures()[name]
    return EffectContext(lts, formula)


@dataclass(frozen=True)
class CorpusInstance:
    index: int
    left: EffectContext
    right: EffectContext
    bound: int


def corpus(count: int, seed: int) -> Iterator[CorpusInstance]:
    """Seeded stream of acyclic disjoint-alphabet instance pairs, each side
    drawn with the `GenParams` defaults: at most 6 states, out-degree at
    most 2, a 3-letter alphabet and effects of depth at most 3.  The bound
    is the longest path of the interleaved product, which makes the bounded
    analysis exact on every instance."""
    for i in range(count):
        instance_seed = seed * 100003 + i
        sides = {}
        for ns in ("L", "R"):
            params = GenParams(seed=instance_seed, namespace=ns)
            lts = gen_lts(params)
            sides[ns] = EffectContext(lts, gen_effect(params, lts))
        # both sides are acyclic, so each has a longest path
        bound = longest_acyclic_path(sides["L"].lts) + longest_acyclic_path(
            sides["R"].lts
        )
        yield CorpusInstance(i, sides["L"], sides["R"], bound)
