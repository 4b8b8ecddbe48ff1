"""Independent re-verification of claimed causes.

The checks here share no search machinery with the cause engine in
`causality`, and import nothing from it: the oracle's independence is the
point.  Words stay explicit: the executable words of a system are the rows
of one trie, kept per system with a table from each word to its row, and
the words of a core's shape are found by walking down that trie.  When the
system is acyclic and the bound covers its longest path, no gap can pass
the bound, so a word has the shape exactly when it starts with the first
core letter and embeds the core: the walk carries one int, the count of
core letters a greedy leftmost match has consumed, and takes the subtree of
a row that finishes the core whole, without reading its rows.  Otherwise it
carries a small dynamic program over (consumed core letters, gap since the
last one) and keeps only the smallest gap per consumed count, since a
smaller gap admits every continuation a larger one does.  Either walk
skips a subtree whole where the core can no longer be spelled (the walk
runs empty, or the subtree is too shallow for the letters still missing).
Traces are re-expanded entry by entry and found in the table.  The core's
smaller label words are the rows of a second walk, which keeps each row's
embedding into the core word.  The effect enters only as the set of states
satisfying it, which the tests hold to the definition.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .computation import Computation, computation_traces, size_compatible
from .hml import EffectContext, states_satisfying
from .lts import Lts, Word, longest_acyclic_path, reachable_states, step


class _OracleView:
    """The oracle's own view of one system: its reachable states, its longest
    path and a trie of its executable words.

    Trie rows are [last letter, reached states, index just past the row's
    subtree, height] in depth-first order with letters sorted; row 0 is the
    empty word.  A row's height is the most letters any word below it adds,
    within the trie's depth.  `index` maps each word of the trie to its row.
    The trie is rebuilt only when a deeper one is asked for, so row indices
    hold until the next `shape_rows` call that needs more depth.
    """

    def __init__(self, lts: Lts) -> None:
        self.lts = lts
        self.reachable = reachable_states(lts)
        self.longest = longest_acyclic_path(lts)
        self.rows: list[list] = []
        self.index: dict[Word, int] = {}
        self._depth = -1

    def _trie(self, depth: int) -> list[list]:
        if depth <= self._depth:
            return self.rows
        lts = self.lts
        rows: list[list] = []
        index: dict[Word, int] = {}
        # the rows still open, one per length; a closed row gives its parent
        # its height
        ancestors: list[list] = []

        def close_to(length: int) -> None:
            while len(ancestors) > length:
                row = ancestors.pop()
                row[2] = len(rows)
                if ancestors and ancestors[-1][3] <= row[3]:
                    ancestors[-1][3] = row[3] + 1

        # the one-letter moves of each reached set, so equal sets share them
        moves_of: dict[frozenset, list] = {}
        stack: list[tuple[Word, frozenset]] = [((), frozenset({lts.initial}))]
        while stack:
            word, reached = stack.pop()
            length = len(word)
            close_to(length)
            ancestors.append([word[-1] if word else None, reached, 0, 0])
            index[word] = len(rows)
            rows.append(ancestors[-1])
            if length < depth:
                found = moves_of.get(reached)
                if found is None:
                    moves: dict[str, set] = {}
                    for s in reached:
                        for label, dst in lts.outgoing(s):
                            moves.setdefault(label, set()).add(dst)
                    # descending, so the smallest letter is popped first
                    found = moves_of[reached] = [
                        (label, frozenset(moves[label]))
                        for label in sorted(moves, reverse=True)
                    ]
                for label, stepped in found:
                    stack.append((word + (label,), stepped))
        close_to(0)
        self.rows, self.index, self._depth = rows, index, depth
        return rows

    def lookup(self, word: Word) -> tuple[Optional[int], frozenset]:
        """The row of a word and the states it reaches.  A word longer than
        the trie goes on from its prefix's row with `step` and has no row; a
        word that is not executable has no row and reaches nothing."""
        depth = self._depth
        i = self.index.get(word[:depth])
        if i is None:
            return None, frozenset()
        reached = self.rows[i][1]
        if len(word) <= depth:
            return i, reached
        for label in word[depth:]:
            reached = step(self.lts, reached, label)
        return None, reached

    def shape_rows(self, core_labels: Word, k: int):
        """Grow the trie deep enough for this shape, then return an iterator
        over the rows of every executable word that starts with the first
        core letter and embeds the rest in order, with at most k letters
        after each core letter; an empty core gives the empty word's row
        alone."""
        m = len(core_labels)
        depth = m + m * k
        if self.longest is not None:
            # nothing executes past the longest path
            depth = min(depth, self.longest)
            if m and k >= self.longest:
                return self._exact_walk(self._trie(depth), core_labels)
        return self._walk(self._trie(depth), core_labels, k)

    @staticmethod
    def _exact_walk(rows: list[list], core_labels: Word):
        """The shape walk at a bound no word can pass.  A row carries the
        count of core letters its word consumes when they are matched
        greedily leftmost, which finishes the core exactly when some match
        does; the root enters only the first core letter."""
        m = len(core_labels)
        stack = [(0, 0)]
        while stack:
            i, consumed = stack.pop()
            wanted = core_labels[consumed]
            child, end = i + 1, rows[i][2]
            while child < end:
                letter, _, after, height = rows[child]
                # a letter consumes at most one core letter, so a child whose
                # subtree cannot spell the letters still missing yields nothing
                if letter == wanted:
                    if consumed + 1 == m:
                        # every word below embeds the core too
                        yield from range(child, after)
                    elif consumed + 1 + height >= m:
                        stack.append((child, consumed + 1))
                elif consumed and consumed + height >= m:
                    stack.append((child, consumed))
                child = after

    @staticmethod
    def _walk(rows: list[list], core_labels: Word, k: int):
        m = len(core_labels)
        # gap k at zero consumed letters: no letter may come before the first
        stack = [(0, ((0, k),))]
        while stack:
            i, shape = stack.pop()
            top = shape[-1][0]
            if top == m:
                yield i
            child, end = i + 1, rows[i][2]
            while child < end:
                letter, _, after, height = rows[child]
                # a letter consumes at most one core letter, so a child whose
                # subtree cannot spell the letters still missing yields nothing
                if top + 1 + height >= m:
                    nxt: list[tuple[int, int]] = []
                    for consumed, gap in shape:
                        # a (consumed, 0) added just before dominates this gap
                        if gap < k and not (nxt and nxt[-1][0] == consumed):
                            nxt.append((consumed, gap + 1))
                        if consumed < m and letter == core_labels[consumed]:
                            nxt.append((consumed + 1, 0))
                    if nxt and nxt[-1][0] + height >= m:
                        stack.append((child, tuple(nxt)))
                child = after

    def subword_rows(self, core_labels: Word):
        """(row, word) for every executable proper subword of a core word,
        from one walk down the trie grown for the core word's shape.

        Each row is kept with its greedy embedding into the core word: the
        shortest prefix of the core word that holds the row's word as a
        subsequence.  A child takes its letter's next occurrence after that
        prefix; a child whose letter has none is no subword, and neither is
        any word below it.
        """
        m = len(core_labels)
        if not m:
            return
        # the prefix each letter's next occurrence extends a prefix to
        after: list[dict] = [{}]
        for p in range(m - 1, -1, -1):
            after.append({**after[-1], core_labels[p]: p + 1})
        after.reverse()
        rows = self.rows
        stack = [(0, 0, ())]
        while stack:
            i, spanned, word = stack.pop()
            yield i, word
            if len(word) == m - 1:
                continue  # any longer subword would be the core word itself
            nexts = after[spanned]
            child, end = i + 1, rows[i][2]
            while child < end:
                letter = rows[child][0]
                if letter in nexts:
                    stack.append((child, nexts[letter], word + (letter,)))
                child = rows[child][2]


# Bounded rather than kept in the system's memo: a run that keeps many
# systems alive would keep a trie for each.
@lru_cache(maxsize=8)
def _oracle_view(lts: Lts) -> _OracleView:
    return _OracleView(lts)


def oracle_check_details(ctx: EffectContext, c: Computation, k: int) -> dict:
    """Per-condition outcome of the naive re-verification of a computation."""
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
    if not size_compatible(c.dlists):
        details["valid_sizes"] = False
        return details

    view = _oracle_view(lts)
    core_word = c.labels
    # the core's shape fixes the trie, so every row index below is stable
    shaped = set(view.shape_rows(core_word, k))
    traced: dict[Word, tuple] = {}
    for word in computation_traces(c):
        row, reached = view.lookup(word)
        if not reached:
            details["valid_traces"] = False
            return details
        traced[word] = (row, reached)
    # the core word is judged even when it is a trace
    core_row = view.lookup(core_word)[0]
    traced_rows = {row for row, _ in traced.values()} - {core_row}

    sat = states_satisfying(lts, ctx.formula)
    details["ac1"] = c.states[-1] in sat
    details["ac2a"] = not view.reachable <= sat

    rows = view.rows
    details["ac2b"] = all(
        rows[i][1] <= sat for i in shaped if i not in traced_rows
    )
    # a trace outside the bounded universe (no row, or a row off the shape)
    # is no continuation the bound admits
    details["ac2c"] = all(
        row in shaped and reached.isdisjoint(sat)
        for word, (row, reached) in traced.items()
        if word != core_word
    )

    details["ac3"] = not details["ac2a"] or not any(
        not rows[i][1].isdisjoint(sat) and _admits_candidate(view, sat, smaller, k)
        for i, smaller in view.subword_rows(core_word)
    )
    return details


def _admits_candidate(
    view: _OracleView, sat: frozenset, core_word: Word, k: int
) -> bool:
    """Extension lists for this label word exist exactly when no bounded
    shaped word straddles the effect boundary and the word itself always
    satisfies the effect."""
    shaped = view.shape_rows(core_word, k)
    core_row = view.lookup(core_word)[0]
    rows = view.rows
    for i in shaped:
        reached = rows[i][1]
        if i == core_row:
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
