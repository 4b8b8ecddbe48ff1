"""Independent re-verification of claimed causes.

The checks here share no search machinery with the cause engine in
`causality`, and import nothing from it: the oracle's independence is the
point.  Words stay explicit: a walk from the initial state builds each word
when it reaches it, with the states it reaches.  The words of a core's shape
come from one walk, and its smaller label words from a second that keeps
each word's embedding into the core word.  A trace is looked up among the
shaped words, or else stepped from the initial state.  The effect enters
only as the set of states satisfying it, which the tests hold to the
definition.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf

from .computation import Computation, computation_traces
from .hml import EffectContext, states_satisfying
from .lts import Lts, Word, longest_acyclic_path, reachable_states, state_heights, step


class _OracleView:
    """The oracle's own view of one system: its reachable states, its longest
    path, the height of each state and the one-letter moves of each state
    set a walk has reached.

    A set's height is the most letters any word executable from it has: the
    largest height of its states, or unbounded when one of them can reach a
    cycle.  A letter consumes at most one core letter, so a shape walk skips
    every word whose height is below the core letters it still misses.
    """

    def __init__(self, lts: Lts) -> None:
        self.lts = lts
        self.reachable = reachable_states(lts)
        self.longest = longest_acyclic_path(lts)
        self._heights = state_heights(lts)
        self._moves: dict[frozenset, list] = {}

    def moves(self, reached: frozenset) -> list:
        """(letter, successor set, its height) for each letter some state of
        the set can take, largest letter first, so that a walk's stack pops
        the smallest first."""
        found = self._moves.get(reached)
        if found is None:
            targets: dict[str, set] = {}
            for s in reached:
                for label, dst in self.lts.outgoing(s):
                    targets.setdefault(label, set()).add(dst)
            found = self._moves[reached] = []
            for label in sorted(targets, reverse=True):
                stepped = frozenset(targets[label])
                height = max(self._heights.get(s, inf) for s in stepped)
                found.append((label, stepped, height))
        return found

    def shaped(self, core_labels: Word, k: int):
        """(word, reached) for every executable word that starts with the
        first core letter and embeds the rest in order, with at most k
        letters after each core letter; an empty core gives the empty word
        alone."""
        if core_labels and self.longest is not None and k >= self.longest:
            return self._exact_walk(core_labels)
        return self._walk(core_labels, k)

    def _exact_walk(self, core_labels: Word):
        """The shape walk on an acyclic system at a bound no word can pass,
        where a word has the shape exactly when it starts with the first core
        letter and embeds the core.  A word carries the count of core letters
        a greedy leftmost match consumes, which finishes the core exactly
        when some match does."""
        m = len(core_labels)
        stack = [((), frozenset({self.lts.initial}), 0)]
        while stack:
            word, reached, consumed = stack.pop()
            if consumed == m:
                # every word below embeds the core too
                yield word, reached
                stack.extend(
                    (word + (letter,), stepped, m)
                    for letter, stepped, _ in self.moves(reached)
                )
                continue
            wanted = core_labels[consumed]
            for letter, stepped, height in self.moves(reached):
                if letter == wanted:
                    if consumed + 1 + height >= m:
                        stack.append((word + (letter,), stepped, consumed + 1))
                elif consumed and consumed + height >= m:
                    stack.append((word + (letter,), stepped, consumed))

    def _walk(self, core_labels: Word, k: int):
        """The shape walk in general.  A word carries a dynamic program over
        (consumed core letters, gap since the last one) that keeps only the
        smallest gap per consumed count, since a smaller gap admits every
        continuation a larger one does."""
        m = len(core_labels)
        # gap k at zero consumed letters: no letter may come before the first
        stack = [((), frozenset({self.lts.initial}), ((0, k),))]
        while stack:
            word, reached, shape = stack.pop()
            top = shape[-1][0]
            if top == m:
                yield word, reached
            for letter, stepped, height in self.moves(reached):
                if top + 1 + height < m:
                    continue
                nxt: list[tuple[int, int]] = []
                for consumed, gap in shape:
                    # a (consumed, 0) added just before dominates this gap
                    if gap < k and not (nxt and nxt[-1][0] == consumed):
                        nxt.append((consumed, gap + 1))
                    if consumed < m and letter == core_labels[consumed]:
                        nxt.append((consumed + 1, 0))
                if nxt and nxt[-1][0] + height >= m:
                    stack.append((word + (letter,), stepped, tuple(nxt)))

    def subwords(self, core_labels: Word):
        """(word, reached) for every executable proper subword of a core
        word.

        Each word is kept with its greedy embedding into the core word: the
        shortest prefix of the core word that holds it as a subsequence.  A
        letter extends it only at its next occurrence after that prefix; a
        letter with none extends it to no subword.
        """
        m = len(core_labels)
        if not m:
            return
        # the prefix each letter's next occurrence extends a prefix to
        after: list[dict] = [{}]
        for p in range(m - 1, -1, -1):
            after.append({**after[-1], core_labels[p]: p + 1})
        after.reverse()
        stack = [((), frozenset({self.lts.initial}), 0)]
        while stack:
            word, reached, spanned = stack.pop()
            yield word, reached
            if len(word) == m - 1:
                continue  # any longer subword would be the core word itself
            nexts = after[spanned]
            for letter, stepped, _ in self.moves(reached):
                if letter in nexts:
                    stack.append((word + (letter,), stepped, nexts[letter]))


# Bounded rather than kept in the system's memo: a run that keeps many
# systems alive would keep the moves of every set the oracle reached in each.
@lru_cache(maxsize=8)
def _oracle_view(lts: Lts) -> _OracleView:
    return _OracleView(lts)


def oracle_check_details(ctx: EffectContext, c: Computation, k: int) -> dict:
    """Per-condition outcome of the naive re-verification of a computation."""
    if k < 0:
        raise ValueError("bound must be nonnegative")
    lts = ctx.lts
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
    for i, label in enumerate(c.labels):
        if (c.states[i], label, c.states[i + 1]) not in lts.transitions:
            details["valid_path"] = False
            return details
    if c.states[0] != lts.initial:
        details["valid_path"] = False
        return details
    try:
        traces = computation_traces(c)  # reads the lists once
    except ValueError:  # they are not size-compatible
        details["valid_sizes"] = False
        return details

    view = _oracle_view(lts)
    core_word = c.labels
    shaped = dict(view.shaped(core_word, k))
    traced: dict[Word, frozenset] = {}
    for word in traces:
        reached = shaped.get(word)
        if reached is None:
            reached = frozenset({lts.initial})
            for label in word:
                reached = step(lts, reached, label)
        if not reached:
            details["valid_traces"] = False
            return details
        traced[word] = reached

    sat = states_satisfying(lts, ctx.formula)
    details["ac1"] = c.states[-1] in sat
    details["ac2a"] = not view.reachable <= sat
    # the core word is judged even when it is a trace
    details["ac2b"] = all(
        reached <= sat
        for word, reached in shaped.items()
        if word == core_word or word not in traced
    )
    # a trace off the shape is no continuation the bound admits
    details["ac2c"] = all(
        word in shaped and reached.isdisjoint(sat)
        for word, reached in traced.items()
        if word != core_word
    )
    details["ac3"] = not details["ac2a"] or not any(
        not reached.isdisjoint(sat) and _admits_candidate(view, sat, smaller, k)
        for smaller, reached in view.subwords(core_word)
    )
    return details


def _admits_candidate(
    view: _OracleView, sat: frozenset, core_word: Word, k: int
) -> bool:
    """Extension lists for this label word exist exactly when no bounded
    shaped word straddles the effect boundary and the word itself always
    satisfies the effect."""
    for word, reached in view.shaped(core_word, k):
        if word == core_word:
            if not reached <= sat:
                return False
        elif not (reached <= sat or reached.isdisjoint(sat)):
            return False
    return True


def oracle_check_cause(ctx: EffectContext, c: Computation, k: int) -> bool:
    """Naive re-verification of a claimed cause; True only when the
    computation is well-formed and every condition holds at bound k."""
    details = oracle_check_details(ctx, c, k)
    return all(bool(v) for v in details.values())
