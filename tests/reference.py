"""Word-level references that the tests hold the package to.

The shaped-word universe spelled out word by word, the oracle's trie walk
spelled back into words, and the oracle as it was when it reached every
traced word letter by letter with `reach` and skipped traced words by their
spelling.  None of this serves the engine, the oracle or the CLI.
"""

from __future__ import annotations

from hmlcause import Computation, Core, EffectContext, Lts, reach, step, subwords
from hmlcause.causality import _oracle_view, _OracleView, _require_valid_core
from hmlcause.computation import computation_traces, size_compatible
from hmlcause.lts import Word


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


def spell_row(rows: list, i: int) -> Word:
    """The word of trie row i, read off the rows: descend from the root into
    the child whose subtree holds row i."""
    word: list[str] = []
    at = 0
    while at != i:
        child = at + 1
        while rows[child][2] <= i:
            child = rows[child][2]
        word.append(rows[child][0])
        at = child
    return tuple(word)


def shaped_row_words(view: _OracleView, core_labels: Word, k: int) -> list:
    """(word, reached) for every row the oracle's shape walk yields, in the
    walk's order."""
    shaped = view.shape_rows(core_labels, k)
    rows = view.rows
    return [(spell_row(rows, i), rows[i][1]) for i in shaped]


def _word_admits_candidate(
    view: _OracleView, sat_map: dict, core_word: Word, k: int
) -> bool:
    for word, reached in shaped_row_words(view, core_word, k):
        flags = {sat_map[s] for s in reached}
        if word == core_word:
            if False in flags:
                return False
        elif len(flags) == 2:
            return False
    return True


def word_oracle_details(ctx: EffectContext, c: Computation, k: int) -> dict:
    """`oracle_check_details` as it was before it read traced words off its
    trie: every word it checks is reached with `reach`, and traced words are
    skipped in AC2(b) by their spelling."""
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

    view = _oracle_view(lts)
    sat_map = view.sat_map(formula)
    details["ac1"] = sat_map[c.states[-1]]
    details["ac2a"] = any(not sat_map[s] for s in view.reachable)

    core_word = c.labels
    ac2b = True
    for word, reached in shaped_row_words(view, core_word, k):
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
        if any(sat_map[s] for s in reached):
            ac2c = False
            break
    details["ac2c"] = ac2c

    ac3 = True
    if details["ac2a"]:
        for smaller in sorted(subwords(core_word)):
            if not any(sat_map[s] for s in reach(lts, lts.initial, smaller)):
                continue
            if _word_admits_candidate(view, sat_map, smaller, k):
                ac3 = False
                break
    details["ac3"] = ac3
    return details
