"""Seeded random instance generation.

The generators produce acyclic, deterministic, disjoint-alphabet component
pairs suitable for checking the composition laws at an exact bound.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Iterator

from .hml import TT, And, Box, Diamond, EffectContext, FF, Formula, Not, Or
from .lts import Lts, longest_acyclic_path, reachable_states


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
        label = rng.choice(sorted(set(labels) - used[src]))
        transitions.add((src, label, states[hi]))
        used[src].add(label)
    return Lts(
        frozenset(states),
        states[0],
        frozenset(labels),
        frozenset(transitions),
    )


def _edge_bits(lts: Lts) -> tuple[dict, list]:
    """One bit per state, and each label of the alphabet in sorted order
    with the (source bit, target bit) pair of each of its transitions."""
    bit = {s: 1 << i for i, s in enumerate(lts.states)}
    edges: dict[str, list] = {label: [] for label in sorted(lts.alphabet)}
    for src, label, dst in lts.transitions:
        edges[label].append((bit[src], bit[dst]))
    return bit, list(edges.items())


def _random_formula(
    rng: random.Random, edges: list, full: int, depth: int
) -> tuple[Formula, int]:
    """A random formula of depth at most `depth` over the labels of
    `edges` (as `_edge_bits` gives them), with the bitmask of the states
    that satisfy it, judged in the same recursion that draws it: `full` is
    every state, `<a>f` the sources of an a-edge into f's states, `[a]f`
    every state but the sources of an a-edge out of them."""
    if depth == 0 or rng.random() < 0.15:
        return (TT, full) if rng.random() < 0.5 else (FF, 0)
    op = rng.choice(("dia", "dia", "box", "not", "and", "or"))
    if op == "dia" or op == "box":
        label, pairs = rng.choice(edges)
        body, sat = _random_formula(rng, edges, full, depth - 1)
        if op == "dia":
            found = 0
            for src, dst in pairs:
                if dst & sat:
                    found |= src
            return Diamond(label, body), found
        found = full
        for src, dst in pairs:
            if not dst & sat:
                found &= ~src
        return Box(label, body), found
    if op == "not":
        body, sat = _random_formula(rng, edges, full, depth - 1)
        return Not(body), full & ~sat
    left, left_sat = _random_formula(rng, edges, full, depth - 1)
    right, right_sat = _random_formula(rng, edges, full, depth - 1)
    if op == "and":
        return And(left, right), left_sat & right_sat
    return Or(left, right), left_sat | right_sat


RETRY_BUDGET = 500


def gen_effect(p: GenParams, lts: Lts) -> Formula:
    """A random effect over the system's alphabet that has not already
    occurred initially but can occur somewhere reachable.  Deterministic in
    p; raises after a bounded number of rejected draws.  Each draw is judged
    as it is drawn, over bitmasks of the system's states, so a rejected draw
    costs no second pass and leaves nothing in the system's memo."""
    bit, edges = _edge_bits(lts)
    full = (1 << len(bit)) - 1
    initial = bit[lts.initial]
    reachable = sum(bit[s] for s in reachable_states(lts))
    for attempt in range(RETRY_BUDGET):
        rng = random.Random(f"effect/{p.seed}/{p.namespace}/{attempt}")
        formula, sat = _random_formula(rng, edges, full, p.formula_depth)
        if not sat & initial and sat & reachable:
            return formula
    raise RuntimeError(
        f"no usable effect found in {RETRY_BUDGET} draws; "
        "the system is too degenerate"
    )


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
