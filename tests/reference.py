"""References that the tests hold the package to.

- `satisfies`, HML satisfaction at one state by direct recursion on the
  formula, the definition that `states_satisfying` is held to.
- `random_formula`, the effect generator's drawer as it was when it drew a
  formula alone and its caller judged the draw afterwards, which the
  drawer that judges as it draws is held to.
- `successors`, the states one label leads to from one state.
- `subwords`, every word obtained by deleting at least one letter.
- The word layer: `reach`, the states one word reaches letter by letter;
  `project_word`, a word's letters inside one alphabet; and `classify_word`
  with its `Classification` of the states a word reaches against an effect.
- `word_lifting_check`, the lifting cross-check as it was when it spelled
  every kill word of every composite cause and classified its projection
  onto the moving component, which `cross_check_disjunction_lifting` is
  held to.
- The shaped-word universe spelled out word by word over the alphabet, and
  the oracle as it was when it reached every traced word letter by letter
  with `reach` and skipped traced words by their spelling, on that universe
  and with its own satisfaction map built with `satisfies`.
- `validate_computation`, the paper's definition of a computation checked
  requirement by requirement, which the oracle's validity flags must match.
- `sub_cores`, every core below a given one, as the minimality reference,
  and `is_proper_subsequence`, the pairwise test that the core loop's
  pruning by last letter is held to.
- `traces`, the (label, extension list) pairs form of `computation_traces`.
- `brute_longest_acyclic_path`, an exhaustive simple-path and cycle search.
- `searched_live`, the states from which some path embeds a word and then
  ends outside an effect, by a forward search from each state, which the
  engine's backward passes (`_StateSets.live`) are held to.
- `brute_isomorphic`, a search over every bijection of the reachable parts,
  which shows that a failing disjunction law fails beyond its renaming too.
- `searched_interleave`, the interleaving found by a breadth-first search
  from the joint initial state.

None of this serves the engine, the oracle or the CLI.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

from hmlcause import (
    And,
    Box,
    Computation,
    Core,
    CrossCheckReport,
    Diamond,
    EffectContext,
    FF,
    Formula,
    Lts,
    Not,
    Or,
    TT,
    Top,
    causes,
    format_state,
    reachable_states,
    states_satisfying,
    step,
)
from hmlcause.causality import _require_valid_core
from hmlcause.composition import _prepare
from hmlcause.computation import computation_traces
from hmlcause.lts import State, Word


def successors(lts: Lts, s: State, label: str) -> frozenset:
    return frozenset(dst for name, dst in lts.outgoing(s) if name == label)


def subwords(word: Word) -> frozenset:
    """All words obtained by deleting at least one letter from word.

    Contains the empty word for any nonempty input and never contains the
    input itself; the empty word has no subwords.
    """
    result: set = set()
    n = len(word)
    indices = range(n)
    for keep in range(n):
        for positions in combinations(indices, keep):
            result.add(tuple(word[i] for i in positions))
    return frozenset(result)


def satisfies(lts: Lts, s: State, f: Formula) -> bool:
    """Satisfaction at a single state, by direct recursion on the formula."""
    if s not in lts.states:
        raise ValueError(f"unknown state {format_state(s)!r}")
    match f:
        case Top():
            return True
        case Diamond(label, body):
            return any(satisfies(lts, t, body) for t in successors(lts, s, label))
        case Box(label, body):
            return all(satisfies(lts, t, body) for t in successors(lts, s, label))
        case Not(body):
            return not satisfies(lts, s, body)
        case And(left, right):
            return satisfies(lts, s, left) and satisfies(lts, s, right)
        case Or(left, right):
            return satisfies(lts, s, left) or satisfies(lts, s, right)
    raise TypeError(f"not a formula: {f!r}")


def random_formula(rng: random.Random, labels: list, depth: int) -> Formula:
    """A random formula of depth at most `depth` over `labels`."""
    if depth == 0 or rng.random() < 0.15:
        return TT if rng.random() < 0.5 else FF
    op = rng.choice(("dia", "dia", "box", "not", "and", "or"))
    if op == "dia":
        return Diamond(rng.choice(labels), random_formula(rng, labels, depth - 1))
    if op == "box":
        return Box(rng.choice(labels), random_formula(rng, labels, depth - 1))
    if op == "not":
        return Not(random_formula(rng, labels, depth - 1))
    left = random_formula(rng, labels, depth - 1)
    right = random_formula(rng, labels, depth - 1)
    return And(left, right) if op == "and" else Or(left, right)


def reach(lts: Lts, source: State, word: Word) -> frozenset:
    """States reachable from source by executing exactly the given word.

    The empty word reaches the source itself; each further letter extends
    every execution by one enabled transition.
    """
    if source not in lts.states:
        raise ValueError(f"unknown state {format_state(source)!r}")
    current = frozenset({source})
    for label in word:
        current = step(lts, current, label)
        if not current:
            return frozenset()
    return current


def project_word(word: Word, alphabet: Iterable[str]) -> Word:
    """Subsequence of word consisting of the letters inside alphabet."""
    allowed = frozenset(alphabet)
    return tuple(label for label in word if label in allowed)


class Classification(Enum):
    """How the states reached by one word relate to the effect."""

    ALL_SATISFY = "AllSatisfy"
    ALL_VIOLATE = "AllViolate"
    MIXED = "Mixed"
    NOT_EXECUTABLE = "NotExecutable"


def classify_word(ctx: EffectContext, word: Word) -> Classification:
    """Classify a word by the effect status of every state it can reach."""
    reached = reach(ctx.lts, ctx.lts.initial, tuple(word))
    return _classify(reached, states_satisfying(ctx.lts, ctx.formula))


def _classify(reached: frozenset, sat: frozenset) -> Classification:
    if not reached:
        return Classification.NOT_EXECUTABLE
    if reached <= sat:
        return Classification.ALL_SATISFY
    if not (reached & sat):
        return Classification.ALL_VIOLATE
    return Classification.MIXED


def shaped_words(lts: Lts, core_labels: Word, k: int) -> dict:
    """All executable words that interleave the core labels, in order, with
    a gap of at most k extra letters after each core letter.  Maps each word
    to the full set of states it reaches from the initial state.

    There is no gap before the first core letter: every word starts with it.
    """
    m = len(core_labels)
    alphabet = sorted(lts.alphabet)
    result: dict[Word, frozenset] = {}
    seen: set = set()
    stack: list[tuple[Word, frozenset, int, int]] = [
        ((), frozenset({lts.initial}), 0, 0)
    ]
    while stack:
        word, reached, consumed, gap = stack.pop()
        key = (word, consumed, gap)
        if key in seen:
            continue
        seen.add(key)
        if consumed == m:
            result.setdefault(word, reached)
        if consumed < m:
            nxt = step(lts, reached, core_labels[consumed])
            if nxt:
                stack.append(
                    (word + (core_labels[consumed],), nxt, consumed + 1, 0)
                )
        if consumed >= 1 and gap < k:
            for label in alphabet:
                nxt = step(lts, reached, label)
                if nxt:
                    stack.append((word + (label,), nxt, consumed, gap + 1))
    return result


def extension_universe(lts: Lts, core: Core, k: int) -> frozenset:
    """The bounded word universe a candidate for this core is judged on."""
    _require_valid_core(lts, core)
    return frozenset(shaped_words(lts, core.labels, k))


def _word_admits_candidate(
    lts: Lts, sat_map: dict, core_word: Word, k: int
) -> bool:
    for word, reached in shaped_words(lts, core_word, k).items():
        flags = {sat_map[s] for s in reached}
        if word == core_word:
            if False in flags:
                return False
        elif len(flags) == 2:
            return False
    return True


def word_oracle_details(ctx: EffectContext, c: Computation, k: int) -> dict:
    """`oracle_check_details` on the shaped words of `shaped_words`: every
    traced word is reached with `reach`, traced words are skipped in AC2(b)
    and held to the shape in AC2(c) by their spelling, and satisfaction is
    evaluated state by state."""
    lts, formula = ctx.lts, ctx.formula
    details = {
        "valid_path": True,
        "valid_sizes": True,
        "valid_traces": True,
        "ac1": False,
        "ac2a": False,
        "ac2b": False,
        "ac2c": False,
        "ac3": False,
    }
    for s in c.states:
        if s not in lts.states:
            details["valid_path"] = False
            return details
    for i, label in enumerate(c.labels):
        if (c.states[i], label, c.states[i + 1]) not in lts.transitions:
            details["valid_path"] = False
            return details
    if c.states[0] != lts.initial:
        details["valid_path"] = False
        return details
    if not size_compatible(c.dlists):
        details["valid_sizes"] = False
        return details

    traced: dict[Word, frozenset] = {}
    for word in computation_traces(c):
        reached = reach(lts, lts.initial, word)
        if not reached:
            details["valid_traces"] = False
            return details
        traced[word] = reached

    sat_map = {s: satisfies(lts, s, formula) for s in lts.states}
    details["ac1"] = sat_map[c.states[-1]]
    details["ac2a"] = any(not sat_map[s] for s in reachable_states(lts))

    core_word = c.labels
    shaped = shaped_words(lts, core_word, k)
    ac2b = True
    for word, reached in shaped.items():
        if word != core_word and word in traced:
            continue
        if any(not sat_map[s] for s in reached):
            ac2b = False
            break
    details["ac2b"] = ac2b

    ac2c = True
    for word, reached in traced.items():
        if word == core_word:
            continue
        if word not in shaped or any(sat_map[s] for s in reached):
            ac2c = False
            break
    details["ac2c"] = ac2c

    ac3 = True
    if details["ac2a"]:
        for smaller in sorted(subwords(core_word)):
            if not any(sat_map[s] for s in reach(lts, lts.initial, smaller)):
                continue
            if _word_admits_candidate(lts, sat_map, smaller, k):
                ac3 = False
                break
    details["ac3"] = ac3
    return details


def size_compatible(dlists) -> bool:
    """All extension lists have the same length."""
    return len({len(dl) for dl in dlists}) <= 1


def traces(pairs: Sequence[tuple[str, Sequence[Word]]]) -> frozenset:
    """`computation_traces` of the computation with these (label, extension
    list) steps, on placeholder states."""
    labels = tuple(label for label, _ in pairs)
    dlists = tuple(tuple(tuple(w) for w in dl) for _, dl in pairs)
    states = tuple(range(len(labels) + 1))
    return computation_traces(Computation(states, labels, dlists))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violation: Optional[str] = None
    detail: str = ""


def validate_computation(lts: Lts, c: Computation) -> ValidationReport:
    """Check the three requirements in order: the core steps through the
    transition relation, the extension lists are size-compatible, and every
    expanded trace is executable from the first state."""
    for s in c.states:
        if s not in lts.states:
            return ValidationReport(
                False, "path", f"unknown state {format_state(s)!r}"
            )
    for i, label in enumerate(c.labels):
        if (c.states[i], label, c.states[i + 1]) not in lts.transitions:
            return ValidationReport(
                False,
                "path",
                f"missing transition ({format_state(c.states[i])},{label},"
                f"{format_state(c.states[i + 1])})",
            )
    if not size_compatible(c.dlists):
        return ValidationReport(
            False, "size-compatibility", "extension lists differ in length"
        )
    for trace in sorted(computation_traces(c)):
        if not reach(lts, c.states[0], trace):
            return ValidationReport(
                False, "trace", f"trace {''.join(trace) or 'ε'} is not executable"
            )
    return ValidationReport(True)


def _paths_for_word(lts: Lts, start, word: Word) -> list[tuple]:
    """All state paths from start labeled exactly by word."""
    paths: list[tuple] = []

    def walk(prefix: tuple, i: int) -> None:
        if i == len(word):
            paths.append(prefix)
            return
        for nxt in sorted(successors(lts, prefix[-1], word[i]), key=format_state):
            walk(prefix + (nxt,), i + 1)

    walk((start,), 0)
    return paths


def sub_cores(lts: Lts, core: Core) -> frozenset:
    """Every core anchored at the same first state whose label word deletes
    at least one letter from the given core's labels, one per executable
    state path."""
    first = core.states[0]
    if first not in lts.states:
        raise ValueError(f"unknown state {format_state(first)!r}")
    result: set = set()
    for word in subwords(core.labels):
        for path in _paths_for_word(lts, first, word):
            result.add(Core(path, word))
    return frozenset(result)


def is_proper_subsequence(shorter: Word, longer: Word) -> bool:
    if len(shorter) >= len(longer):
        return False
    i = 0
    for letter in longer:
        if i < len(shorter) and shorter[i] == letter:
            i += 1
    return i == len(shorter)


def brute_longest_acyclic_path(lts: Lts) -> Optional[int]:
    """`longest_acyclic_path` by exhaustive search: None when some state
    reachable from the initial one reaches itself again, else the length of
    the longest simple path from the initial state."""
    edges = sorted((src, dst) for src, _, dst in lts.transitions)
    reachable = {lts.initial}
    while True:
        grown = reachable | {dst for src, dst in edges if src in reachable}
        if grown == reachable:
            break
        reachable = grown
    for start in reachable:
        after = {dst for src, dst in edges if src == start}
        while True:
            grown = after | {dst for src, dst in edges if src in after}
            if grown == after:
                break
            after = grown
        if start in after:
            return None
    longest = 0
    paths = [(lts.initial,)]
    while paths:
        path = paths.pop()
        longest = max(longest, len(path) - 1)
        paths.extend(
            path + (dst,) for src, dst in edges if src == path[-1] and dst not in path
        )
    return longest


def searched_live(lts: Lts, sat: frozenset, word: Word) -> frozenset:
    """The states from which some path whose labels embed word in order
    ends outside sat.  From each state, a search over (state, letters of
    word matched) pairs, each letter matched at its first chance, which
    loses nothing for a subsequence."""
    live = set()
    for start in lts.states:
        seen = {(start, 0)}
        todo = [(start, 0)]
        while todo:
            s, matched = todo.pop()
            if matched == len(word) and s not in sat:
                live.add(start)
                break
            for label, dst in lts.outgoing(s):
                pair = (dst, matched + (matched < len(word) and label == word[matched]))
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
    return frozenset(live)


def brute_isomorphic(left: Lts, right: Lts) -> bool:
    """Whether some bijection between the reachable parts sends the initial
    state to the initial state and the transitions of one onto those of the
    other, trying every bijection."""

    def reachable_part(lts: Lts) -> tuple[list, frozenset]:
        seen = {lts.initial}
        while True:
            grown = seen | {dst for src, _, dst in lts.transitions if src in seen}
            if grown == seen:
                break
            seen = grown
        return list(seen), frozenset(t for t in lts.transitions if t[0] in seen)

    left_states, left_transitions = reachable_part(left)
    right_states, right_transitions = reachable_part(right)
    if len(left_states) != len(right_states):
        return False
    for image in permutations(right_states):
        m = dict(zip(left_states, image))
        if m[left.initial] == right.initial and right_transitions == {
            (m[src], label, m[dst]) for src, label, dst in left_transitions
        }:
            return True
    return False


def searched_interleave(left: Lts, right: Lts) -> Lts:
    """The interleaving as the states and transitions met by a breadth-first
    search from the joint initial state, either side moving alone."""
    initial = (left.initial, right.initial)
    states = {initial}
    transitions: set = set()
    queue = deque([initial])
    while queue:
        l, r = queue.popleft()
        moves = [((dst, r), label) for label, dst in left.outgoing(l)]
        moves += [((l, dst), label) for label, dst in right.outgoing(r)]
        for nxt, label in moves:
            transitions.add(((l, r), label, nxt))
            if nxt not in states:
                states.add(nxt)
                queue.append(nxt)
    return Lts(
        frozenset(states),
        initial,
        left.alphabet | right.alphabet,
        frozenset(transitions),
    )


def word_lifting_check(
    left: EffectContext, right: EffectContext, k: Optional[int] = None
) -> CrossCheckReport:
    """`cross_check_disjunction_lifting` word by word: the same lifting
    test, then every kill word of every composite cause projected onto the
    component that moves first and classified there."""
    composite, k, pre = _prepare(left, right, k)
    if not pre.ok:
        return CrossCheckReport(False, "; ".join(pre.issues))
    ctx = EffectContext(composite, Or(left.formula, right.formula))
    composite_causes = causes(ctx, k).causes

    expected = set()
    for side_ctx, lift in (
        (left, lambda s: (s, right.lts.initial)),
        (right, lambda s: (left.lts.initial, s)),
    ):
        for report in causes(side_ctx, k).causes:
            comp = report.computation
            expected.add((tuple(map(lift, comp.states)), comp.labels))

    actual = {
        (r.computation.states, r.computation.labels) for r in composite_causes
    }
    if actual != expected:
        missing = expected - actual
        extra = actual - expected
        return CrossCheckReport(
            False,
            f"lifting mismatch: {len(missing)} expected lifts missing, "
            f"{len(extra)} unexpected causes",
        )

    for report in composite_causes:
        labels = report.computation.labels
        moving = left if labels[0] in left.lts.alphabet else right
        for trace in report.kill_traces:
            projected = project_word(trace, moving.lts.alphabet)
            if (
                classify_word(moving, projected)
                is not Classification.ALL_VIOLATE
            ):
                return CrossCheckReport(
                    False,
                    f"escape trace {trace} projects to {projected}, which "
                    "does not always escape in its own component",
                )
    return CrossCheckReport(True, "composite causes are exactly the lifts")
