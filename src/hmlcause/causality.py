"""Bounded cause analysis: which minimal executions make an effect unavoidable.

A cause is a computation whose core always leads into the effect, whose
extension lists enumerate exactly the bounded continuations that escape it,
and which is minimal among its sub-cores.  All word quantifiers are explored
up to a per-gap extension bound k; on acyclic systems a large enough k makes
the analysis exact.
"""

from __future__ import annotations

from collections.abc import Sequence, Set
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Optional

from .computation import Computation, Core
from .hml import EffectContext, format_formula, states_satisfying
from .lts import (
    Lts,
    Word,
    _state_to_json,
    format_state,
    longest_acyclic_path,
    reachable_states,
)


class Exactness(Enum):
    EXACT = "exact"
    BOUNDED_APPROX = "bounded"


@dataclass(frozen=True)
class ConditionReport:
    """Outcome per condition; None marks a condition that was never reached
    because an earlier one already failed."""

    ac1: Optional[bool] = None
    ac2a: Optional[bool] = None
    ac2b: Optional[bool] = None

    @property
    def first_failed(self) -> Optional[str]:
        for name in ("ac1", "ac2a", "ac2b"):
            if getattr(self, name) is False:
                return name.upper()
        return None


@dataclass(frozen=True)
class CauseReport:
    computation: Computation
    kill_traces: AbstractSet[Word]

    def to_json(self) -> dict:
        return {
            "core": {
                "states": [_state_to_json(s) for s in self.computation.states],
                "labels": list(self.computation.labels),
            },
            "kill_traces": [list(w) for w in self.kill_traces],
            "dlists": [[list(w) for w in dl] for dl in self.computation.dlists],
        }


@dataclass(frozen=True)
class CauseSet:
    causes: tuple
    effect: EffectContext
    bound: int
    exactness: Exactness
    immediate: bool = False

    def to_json(self) -> dict:
        return {
            "effect": format_formula(self.effect.formula),
            "bound": self.bound,
            "exactness": self.exactness.value,
            "causes": [c.to_json() for c in self.causes],
        }


def exploration_is_exact(lts: Lts, k: int) -> bool:
    """Bounded exploration loses nothing on an acyclic system once k covers
    its longest path."""
    longest = longest_acyclic_path(lts)
    return longest is not None and k >= longest


def default_bound(lts: Lts) -> int:
    return len(lts.states)


def _require_valid_core(lts: Lts, core: Core) -> None:
    if core.states[0] != lts.initial:
        raise ValueError("cores are anchored at the initial state")
    for i, label in enumerate(core.labels):
        if (core.states[i], label, core.states[i + 1]) not in lts.transitions:
            raise ValueError(
                f"core step ({format_state(core.states[i])},{label},"
                f"{format_state(core.states[i + 1])}) is not a transition"
            )


class _StateSets:
    """One system's states numbered once, state sets as int bitmasks, the
    mask of the states that have a move, the one-letter moves out of each
    set memoised per set, and the states that can still finish a core and
    leave the effect memoised per core suffix.

    An instance lives for one `causes` or `cause_candidate` call and is
    shared by every core that call judges.  It is not kept in the system's
    memo: its memos grow with every core judged, and only the call's cause
    set is asked for again.
    """

    def __init__(self, lts: Lts, sat: frozenset) -> None:
        index = {s: i for i, s in enumerate(lts.states)}
        succ: dict[str, list[int]] = {}
        self._into: list[list[int]] = [[] for _ in index]
        for src, label, dst in lts.transitions:
            row = succ.setdefault(label, [0] * len(index))
            row[index[src]] |= 1 << index[dst]
            self._into[index[dst]].append(index[src])
        self._rows = succ
        self._succ = sorted(succ.items())
        self._moves: dict[int, tuple] = {}
        self.movable = sum(1 << index[s] for s in {t[0] for t in lts.transitions})
        self.initial = 1 << index[lts.initial]
        self.index = index
        self.sat = sum(1 << index[s] for s in sat)
        self.reachable = sum(1 << index[s] for s in reachable_states(lts))
        self._live: dict[Word, int] = {}
        self.longest = longest_acyclic_path(lts)

    def moves(self, mask: int) -> tuple:
        """(label, successor set) for every label some state of mask enables,
        in label order, kept in the `_moves` memo, which the kernel reads
        itself before it asks here."""
        bits = _bits(mask)
        found = []
        for label, row in self._succ:
            nxt = 0
            for i in bits:
                nxt |= row[i]
            if nxt:
                found.append((label, nxt))
        found = self._moves[mask] = tuple(found)
        return found

    def live(self, word: Word) -> list[int]:
        """Entry t: the states from which some path whose labels embed
        word[t:] in order ends outside the effect.  The last entry holds
        the states that can leave the effect, and each entry lies inside
        the next.  An entry is memoised per suffix; a new one is the
        predecessors under word[t] of entry t+1, closed under predecessors,
        so one pass over the label's successor sets and one backward
        search."""
        memo = self._live
        if not memo:
            memo[()] = self._reaching(((1 << len(self._into)) - 1) & ~self.sat)
        m = len(word)
        t = m
        while t and word[t - 1 :] in memo:
            t -= 1
        rows = [memo[word[u:]] for u in range(m, t - 1, -1)]
        for u in range(t - 1, -1, -1):
            before = 0
            for i, row in enumerate(self._rows.get(word[u], ())):
                if row & rows[-1]:
                    before |= 1 << i
            rows.append(self._reaching(before))
            memo[word[u:]] = rows[-1]
        rows.reverse()
        return rows

    def _reaching(self, mask: int) -> int:
        """mask and every state with a path into it."""
        stack = _bits(mask)
        into = self._into
        while stack:
            for i in into[stack.pop()]:
                if not mask >> i & 1:
                    mask |= 1 << i
                    stack.append(i)
        return mask


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, one step per set bit."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _evaluate_core(space: _StateSets, labels: Word, k: int) -> Optional[tuple]:
    """Judge one label word at bound k: None when AC2(b) fails, otherwise
    (kill, dlists, truncated).  On a bound that is not exact, truncated says
    whether the verdict or the kill set changes at k+1.

    The shaped words at k and at k+1 (executable words that start with the
    first core letter and embed the rest in order, with at most k letters
    after each) are explored at once as a DAG.  A node is (reached set,
    shape positions, word length capped at m+1); a shape position is a
    (consumed, gap) pair.  Each consumed count keeps only its smallest gap:
    a smaller gap admits every continuation a larger one does, so
    acceptance at k and at k+1, the kill flag and the truncation test, all
    existence tests, come out as they would with every position kept.

    So the positions with c letters consumed, row c, are one small number.
    Both position sets share one int of 2(m+1) fields, the set at k+1 in
    the high half.  A field is B value bits under a guard bit, and row c of
    the set at bound K sits at field c and holds K+1-gap, or 0 when the
    row is empty; row 0 starts at gap K, as no letter may come before the
    first core letter.
    A letter lowers every nonzero field by one at once, through the guard
    bits, so a gap that passes K empties its row; core letter c then sets
    row c+1 to K+1 wherever row c was nonempty, in both halves at once.

    When the system's reachable part is acyclic and k covers its longest
    path, no word is longer than k, so no gap can pass k and the bounded
    search is complete.  A row then stays set once entered, except row 0,
    which every letter empties, and the gaps carry nothing: the positions
    are m+1 bits, bit c saying that row c is nonempty, a letter clears
    bit 0 and core letter c sets bit c+1 wherever bit c is set.  The sets
    at k and at k+1 are the same, so there is one of them and nothing is
    truncated.  This is decided from the system.

    Only the live part of the DAG is explored.  Every node that counts (a
    kill node, a straddling accepted one, the core word's own node or a
    truncation witness) is accepted at k+1 and reaches a state outside the
    effect.  So a node on the way to one reaches a state from which the
    rest of the word, which embeds the core letters its most-consumed row
    at k+1 still misses, leads outside the effect: a state of that row's
    live mask (`_StateSets.live`).  A child that reaches none is dropped
    unexplored.  Nothing that counts is lost, so the verdict, the kill set,
    the extension lists and the truncated flag are those of the whole DAG.
    The test is skipped when the mask of row 1, the smallest of those a
    child can use, holds every reachable state.  A child none of whose
    states has a move, a dead end, is judged where it is found, each time,
    and kept nowhere: on a cyclic bound about half the nodes are dead ends,
    since each step of an unrolled loop can also step out of it.

    A node is a function of the word, so every word follows exactly one
    path.  A word reaches the same states whatever the bound and the
    universe at k lies inside the one at k+1, so the bound is truncating
    exactly when a node accepted at k+1 but not at k reaches a state
    outside the effect.  No word is spelled here: the kill set is a KillSet
    over the productive sub-DAG (the nodes from which a kill node can be
    reached) and the extension lists are an ExtensionLists that spells them
    off the same DAG on every read.  Without kill words they are an empty
    frozenset and m empty tuples.

    AC2(c) needs no check of its own: every kill word is executable and
    always escapes the effect by construction of the verdict.
    """
    m = len(labels)
    gapless = space.longest is not None and k >= space.longest
    if gapless:
        width, field, high = 1, 1, 0
    else:
        B = (k + 2).bit_length()
        width = B + 1
        high = (m + 1) * width
        field = (1 << B) - 1
        half = ((1 << high) - 1) // ((1 << width) - 1)  # bit 0 of each field of a half
        ones = half | half << high
        guards = ones << B
        values = ones * field
        fresh = (k + 1) * half | (k + 2) * half << high  # gap 0 in every row
    # the set at k+1 sits `high` bits above the set at k; gapless they are one
    accepting = field << m * width
    accepting_next = accepting << high
    start = 1 | 1 << high
    # per label, the rows c whose core letter it is
    advance: dict[str, int] = {}
    for c, label in enumerate(labels):
        advance[label] = advance.get(label, 0) | (field | field << high) << c * width
    # every child has consumed the first core letter, so the highest set bit
    # of its positions lies in the field of its most-consumed row c >= 1 at
    # k+1, and live[c-1] is its mask
    live = space.live(labels[1:])
    prune = m and live[0] & space.reachable != space.reachable
    live_at = [0] * (high + width) + [mask for mask in live for _ in range(width)]

    # The DAG is acyclic: gapless, the height of the reached set (the
    # longest path out of any of its states) falls along every edge of an
    # acyclic system; with fields, along every edge the least-consumed
    # nonempty row at k+1 either loses gap budget or empties, and rows are
    # set only at higher consumed counts.  So a depth-first search that
    # pushes a node's unexpanded children above its ~i marker finishes each
    # node after every node it reaches.  Each node is judged and numbered
    # when first found, and its key, its children (None until it is
    # expanded, dropped when it finishes) and its kill flag are kept in
    # lists under that number.  A dead end, a child whose reached states
    # have no move, is judged each time it is found and never enters the
    # lists: slot 0 stands for every one that kills, and the root is slot 1.
    # Each productive node (a kill node, or one with a productive child) is
    # renumbered when it finishes and kept as (kill flag, path count,
    # productive children as (label, number) pairs); the killing dead ends
    # share one such leaf, numbered when first needed.  Those tuples hold
    # only str and int, so the cyclic collector stops scanning them, and
    # the lists die on return.
    sat, movable, known = space.sat, space.movable, space._moves.get
    if not m and not space.initial & sat:
        return None  # the empty core's own word is the root's
    root = (space.initial, start, 0)
    index = {root: 1}
    keys = [None, root]
    edges: list = [(), None]
    kill_flags = [True, False]
    number = [-1, -1]
    nodes: list[tuple] = []
    truncated = False
    stack = [1]
    while stack:
        i = stack.pop()
        if i < 0:
            i = ~i
            children = [(label, number[j]) for label, j in edges[i] if number[j] >= 0]
            edges[i] = ()
            is_kill = kill_flags[i]
            if is_kill or children:
                count = is_kill
                for _, child in children:
                    count += nodes[child][1]
                number[i] = len(nodes)
                nodes.append((is_kill, count, tuple(children)))
            continue
        if edges[i] is not None:
            continue  # already expanded below another parent
        reached, positions, length = keys[i]
        out = edges[i] = []
        stack.append(~i)
        longer = length + (length <= m)
        if gapless:
            grown = positions & ~1
        else:
            # every gap grows: each nonzero field loses one
            grown = positions - (((positions + values) & guards) >> B)
        for label, nxt in known(reached) or space.moves(reached):
            moved = positions & advance.get(label, 0)
            if gapless:
                nxt_positions = grown | moved << 1
            elif moved:
                # a core letter moves row c to gap 0 in row c+1, one field higher
                rows = (((moved + values) & guards) << 1) * field
                nxt_positions = grown & ~rows | fresh & rows
            else:
                nxt_positions = grown
            if not nxt_positions:
                continue
            if prune and not nxt & live_at[nxt_positions.bit_length() - 1]:
                continue
            j = 0
            if nxt & movable:
                child = (nxt, nxt_positions, longer)
                j = index.setdefault(child, len(keys))
                out.append((label, j))
                if j < len(keys):
                    if edges[j] is None:
                        stack.append(j)
                    continue
                keys.append(child)
                edges.append(None)
                kill_flags.append(False)
                number.append(-1)
                stack.append(j)
            # a new node or a dead end is judged.  Only one accepted at k+1
            # that reaches a state outside the effect counts: accepted at
            # k+1 only, it truncates; accepted at k (so at k+1 too), it
            # fails AC2(b) as the core word or by straddling, or else kills
            if nxt_positions & accepting_next and nxt & sat != nxt:
                if not nxt_positions & accepting:
                    truncated = True
                elif longer == m or nxt & sat:
                    return None
                elif j:
                    kill_flags[j] = True
                else:
                    if number[0] < 0:
                        number[0] = len(nodes)
                        nodes.append((True, 1, ()))
                    out.append((label, 0))
    if number[1] < 0:
        return frozenset(), ((),) * m, truncated
    kill = KillSet(labels, tuple(nodes), number[1])
    return kill, ExtensionLists(kill), truncated


def _spell(labels: Word, nodes: tuple, root: int):
    """The kill words of a numbered productive DAG, each with its extension
    list entries, as (word, entries) pairs in sorted word order; none is
    kept.  Depth first in label order, so a word comes after its prefixes
    and before its siblings' words.  Every kill word starts with the first
    core letter, the root's one child; each path carries the entries its
    core letters, matched leftmost, have closed and where its open entry
    starts, and a kill word's entries are those with the open one
    appended."""
    m = len(labels)
    spell = [(child, (label,), (), 1) for label, child in reversed(nodes[root][2])]
    while spell:
        node, word, closed, start = spell.pop()
        is_kill, _, children = nodes[node]
        if is_kill:
            yield word, closed + (word[start:],)
        wanted = labels[len(closed) + 1] if len(closed) + 1 < m else None
        for label, child in reversed(children):
            longer = word + (label,)
            if label == wanted:
                spell.append((child, longer, closed + (word[start:],), len(longer)))
            else:
                spell.append((child, longer, closed, start))


class KillSet(Set):
    """The kill words of one core, kept only as the productive DAG that
    judged it: an acyclic automaton for them, often far smaller than the
    2^k words it spells.

    `len` is the root's path count.  Iteration spells the words off the DAG
    in sorted order and keeps none, so each pass spells them again.  A word
    is a member when its one path through the DAG ends at a kill node; as
    in a frozenset, a value that is not a tuple is not one and an unhashable
    value raises TypeError.  Equality and the hash, which is the frozenset's,
    are those of `collections.abc.Set`, and `&`, `|` and `-` give frozensets.
    """

    __slots__ = ("_labels", "_nodes", "_root")

    def __init__(self, labels: Word, nodes: tuple, root: int) -> None:
        self._labels = labels
        self._nodes = nodes
        self._root = root

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __len__(self) -> int:
        return self._nodes[self._root][1]

    def __iter__(self):
        return (word for word, _ in _spell(self._labels, self._nodes, self._root))

    def __contains__(self, word) -> bool:
        hash(word)
        if not isinstance(word, tuple):
            return False
        node = self._root
        for letter in word:
            node = dict(self._nodes[node][2]).get(letter)
            if node is None:
                return False
        return self._nodes[node][0]

    __hash__ = Set._hash

    def __repr__(self) -> str:
        return f"KillSet({set(self)!r})"


class ExtensionLists(Sequence):
    """A core's m extension lists, spelled off its KillSet's DAG on every
    read and kept nowhere; equal to and hashed as the tuple of tuples they
    are.  `len` is m and spells nothing."""

    __slots__ = ("_kill",)

    def __init__(self, kill: KillSet) -> None:
        self._kill = kill

    def __len__(self) -> int:
        return len(self._kill._labels)

    def __getitem__(self, i):
        return tuple(self)[i]

    def __iter__(self):
        kill = self._kill
        spelled = _spell(kill._labels, kill._nodes, kill._root)
        # a productive DAG holds a kill word, so there are m lists
        return zip(*(entries for _, entries in spelled))

    def __eq__(self, other) -> bool:
        # the tuple defers to other lists, whose own __eq__ then spells them
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


# What `_judge` can find before minimality is asked
_AC1_FAILS = ConditionReport(ac1=False)
_AC2A_FAILS = ConditionReport(ac1=True, ac2a=False)
_AC2B_FAILS = ConditionReport(ac1=True, ac2a=True, ac2b=False)
_CANDIDATE = ConditionReport(ac1=True, ac2a=True, ac2b=True)


def _judge(
    space: _StateSets, states: tuple, labels: Word, k: int, memo: dict
) -> ConditionReport | CauseReport:
    """The first of AC1, AC2(a) and AC2(b) that a core fails at bound k, as
    its ConditionReport, or the core's CauseReport when all three hold.
    `memo` keeps `_evaluate_core`'s outcome per label word, which cores that
    nondeterminism gives the same word share."""
    if not space.sat >> space.index[states[-1]] & 1:
        return _AC1_FAILS
    if not space.reachable & ~space.sat:
        return _AC2A_FAILS
    if labels not in memo:
        memo[labels] = _evaluate_core(space, labels, k)
    if memo[labels] is None:
        return _AC2B_FAILS
    kill, dlists, truncated = memo[labels]
    return CauseReport(Computation(states, labels, dlists, truncated), kill)


def cause_candidate(
    ctx: EffectContext, core: Core, k: int
) -> tuple[Optional[Computation], ConditionReport]:
    """Evaluate one core against the occurrence and non-occurrence
    conditions, constructing its extension lists when they hold.

    Minimality is the caller's concern; the returned diagnostics leave it
    unset.  The computation is absent when some condition fails, and the
    report shows the first failure.
    """
    if k < 0:
        raise ValueError("bound must be nonnegative")
    _require_valid_core(ctx.lts, core)
    space = _StateSets(ctx.lts, states_satisfying(ctx.lts, ctx.formula))
    judged = _judge(space, core.states, core.labels, k, {})
    if isinstance(judged, ConditionReport):
        return None, judged
    return judged.computation, _CANDIDATE


def causes(ctx: EffectContext, k: Optional[int] = None) -> CauseSet:
    """All minimal causes of the effect, explored up to bound k.

    Cores of every length up to k are judged breadth-first from the empty
    core; a core is dropped as soon as any strictly smaller label word
    already admits a candidate, which is exactly the minimality condition.
    So when the effect already holds initially, the empty core is the only
    possible cause: it is one when some reachable state escapes the effect,
    and nothing is otherwise.  A core whose last state has no path into the
    effect is not extended: every extension fails AC1, so none is a cause
    or a successful word.  The cause set is kept in the system's memo, so
    asking again for the same formula and bound returns it.
    """
    lts = ctx.lts
    if k is None:
        k = default_bound(lts)
    if k < 0:
        raise ValueError("bound must be nonnegative")
    memo, key = lts._memo, (ctx.formula, k)
    if key in memo:
        return memo[key]
    sat = states_satisfying(lts, ctx.formula)
    exact = exploration_is_exact(lts, k)
    exactness = Exactness.EXACT if exact else Exactness.BOUNDED_APPROX
    space = _StateSets(lts, sat)
    finishing = space._reaching(space.sat)
    successful_words: set[Word] = set()
    evaluated: dict[Word, Optional[tuple]] = {}
    accepted: list[CauseReport] = []
    level: list[tuple[tuple, Word]] = [((lts.initial,), ())]
    for length in range(k + 1):
        # a cause is not extended, nor a core that fails AC2(a), since every
        # core then does, nor one that can no longer end in the effect
        open_cores = []
        for states, labels in level:
            judged = _judge(space, states, labels, k, evaluated)
            if isinstance(judged, CauseReport):
                successful_words.add(labels)
                accepted.append(judged)
            elif judged is not _AC2A_FAILS and finishing >> space.index[states[-1]] & 1:
                open_cores.append((states, labels))
        if length == k or not open_cores:
            break
        level = _extend_level(lts, open_cores, successful_words)

    immediate = lts.initial in sat
    # a level lists cores that share a word by their formatted states, as
    # it extends the last level in order through `outgoing`, which sorts by
    # label and then formatted target; so a stable sort by word suffices
    accepted.sort(key=lambda r: r.computation.labels)
    memo[key] = CauseSet(tuple(accepted), ctx, k, exactness, immediate)
    return memo[key]


def _extend_level(lts: Lts, level: list, successful: set) -> list:
    """The one-letter extensions of a level's cores that have no successful
    proper subsequence, in level order.

    A core p of the level has no successful proper subsequence itself, so
    one of p·a either is p or, failing to embed in p, ends in a with the
    rest embedding in p.  The successful words are split by their last
    letter once, before any core of the level is extended, so a label word
    that nondeterminism repeats within a level is extended alike each time.
    """
    shorter: dict[str, list[Word]] = {}
    for word in successful:
        shorter.setdefault(word[-1], []).append(word[:-1])
    grown = []
    for states, labels in level:
        if labels in successful:
            continue
        for label, dst in lts.outgoing(states[-1]):
            if not any(_embeds(rest, labels) for rest in shorter.get(label, ())):
                grown.append((states + (dst,), labels + (label,)))
    return grown


def _embeds(short: Word, word: Word) -> bool:
    """Whether short is a subsequence of word."""
    rest = iter(word)
    return all(letter in rest for letter in short)


def causal_projection(ctx: EffectContext, k: Optional[int] = None) -> Lts:
    """The sub-system spanned by the causal cores: their states and the
    transitions they step through, always keeping the initial state."""
    cause_set = causes(ctx, k)
    states = {ctx.lts.initial}
    transitions: set = set()
    for report in cause_set.causes:
        comp = report.computation
        states.update(comp.states)
        for i, label in enumerate(comp.labels):
            transitions.add((comp.states[i], label, comp.states[i + 1]))
    return Lts(
        frozenset(states), ctx.lts.initial, ctx.lts.alphabet, frozenset(transitions)
    )
