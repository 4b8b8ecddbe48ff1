"""Finite labeled transition systems: construction, traversal, composition."""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable, Optional, Union

State = Union[str, int, tuple]
Word = tuple[str, ...]
Transition = tuple[State, str, State]

# A label: a nonempty run of characters that are neither whitespace nor the
# formula grammar's reserved characters.  The formula parser reads its words
# with this pattern too.
LABEL_RE = re.compile(r'[^\s<>\[\]!&|()"]+')


class AutParseError(ValueError):
    """Raised when an AUT document cannot be parsed."""


def valid_label(label) -> bool:
    """Whether `label` is a string that is one whole label by `LABEL_RE`."""
    return isinstance(label, str) and LABEL_RE.fullmatch(label) is not None


def format_state(s: State) -> str:
    """Human-readable rendering; pair states from interleavings nest as (l,r)."""
    if isinstance(s, tuple):
        return "(" + ",".join(format_state(part) for part in s) + ")"
    return str(s)


def _state_to_json(s: State):
    if isinstance(s, tuple):
        return [_state_to_json(part) for part in s]
    return s


# Sets a field of an immutable value class from its `__init__`, past the
# class's own `__setattr__`.  A write through `__dict__` would be cheaper
# but makes every later attribute read slower.
_set_field = object.__setattr__


class _Immutable:
    """Base of the value classes (`Lts`, `EffectContext`, the formula
    nodes).  Each sets its fields once, in `__init__`, names them in
    `__match_args__`, and refuses to have any attribute assigned or deleted
    afterwards.  Equality (within one class), the hash (of the fields'
    tuple), the repr and pickling read those fields alone: a copy or a
    pickle is rebuilt through `__init__`, validated again, and keeps no memo
    or cached hash.
    """

    __slots__ = ()
    __match_args__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        # field by field, identity first, as a tuple compares its items;
        # building the two tuples would cost more than the comparison
        for name in self.__match_args__:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and not mine == theirs:
                return False
        return True

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple([getattr(self, f) for f in self.__match_args__])


class Lts(_Immutable):
    """Immutable LTS: a finite state set, one initial state, a finite label
    alphabet and a set of labeled transitions.

    The alphabet may strictly contain the labels used by transitions; the
    converse is an error.  Construction validates every field.

    What is derived from the system is computed on first use and kept in
    its one memo, which lives and dies with it: the successor index
    ("out"), the reachable states ("reachable"), the height of each
    reachable state that reaches no cycle, the longest path out of it
    ("heights"), the last product it was interleaved into as the left
    component ("product"), the states satisfying each formula asked about
    (keyed by the formula) and each cause set (keyed by formula and bound).
    A system that is only compared or hashed never pays for them, and a
    value-equal but distinct system computes its own.  A product of
    `interleave` is born with "reachable" and "heights", which follow from
    its components'.

    Equality, hashing, repr and pickling go by the four fields alone
    (`_Immutable`): a copy or an unpickled system starts with an empty memo
    of its own.  Neither fields nor memo can be assigned or deleted.
    """

    __match_args__ = ("states", "initial", "alphabet", "transitions")

    def __init__(
        self,
        states: frozenset,
        initial: State,
        alphabet: frozenset,
        transitions: frozenset,
    ) -> None:
        if initial not in states:
            raise ValueError(f"initial state {format_state(initial)!r} not a state")
        for label in alphabet:
            if not valid_label(label):
                raise ValueError(f"invalid label {label!r}")
        for src, label, dst in transitions:
            if src not in states or dst not in states:
                raise ValueError("transition endpoint is not a state")
            if label not in alphabet:
                raise ValueError(f"transition label {label!r} not in alphabet")
        _set_field(self, "states", states)
        _set_field(self, "initial", initial)
        _set_field(self, "alphabet", alphabet)
        _set_field(self, "transitions", transitions)
        _set_field(self, "_memo", {})

    def outgoing(self, s: State) -> tuple:
        """Sorted (label, target) pairs leaving s."""
        out = self._memo.get("out")
        if out is None:
            edges: dict[State, set] = {state: set() for state in self.states}
            for src, label, dst in self.transitions:
                edges[src].add((label, dst))
            out = self._memo["out"] = {
                state: tuple(sorted(v, key=lambda e: (e[0], format_state(e[1]))))
                for state, v in edges.items()
            }
        try:
            return out[s]
        except KeyError:
            raise ValueError(f"unknown state {format_state(s)!r}") from None


def make_lts(
    initial: State,
    transitions: Iterable[Transition],
    extra_labels: Iterable[str] = (),
) -> Lts:
    """Build an Lts from a transition list, deriving states and alphabet."""
    transitions = frozenset(transitions)
    states = {initial}
    labels = set(extra_labels)
    for src, label, dst in transitions:
        states.add(src)
        states.add(dst)
        labels.add(label)
    return Lts(frozenset(states), initial, frozenset(labels), transitions)


def step(lts: Lts, sources: frozenset, label: str) -> frozenset:
    """One-step successor set of a state set under a single label."""
    return frozenset(
        dst for s in sources for name, dst in lts.outgoing(s) if name == label
    )


def _walk(lts: Lts) -> dict:
    """Every reachable state mapped to its breadth-first discovery index over
    sorted `outgoing`; the initial state's is 0."""
    order: dict[State, int] = {lts.initial: 0}
    queue = deque([lts.initial])
    while queue:
        s = queue.popleft()
        for _, dst in lts.outgoing(s):
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)
    return order


def reachable_states(lts: Lts) -> frozenset:
    """All states reachable from the initial state by any word."""
    found = lts._memo.get("reachable")
    if found is None:
        found = frozenset(_walk(lts))
        # a system reachable throughout keeps no second copy of its states
        if len(found) == len(lts.states):
            found = lts.states
        lts._memo["reachable"] = found
    return found


def interleave(left: Lts, right: Lts) -> Lts:
    """Parallel composition without communication, restricted to the
    reachable part.

    Neither side ever waits for the other, so the reachable states are the
    pairs of reachable states, and each side's steps go with every reachable
    state of the other side.  A label shared by both alphabets moves either
    side nondeterministically.

    The left component keeps its last product with the right component in
    its memo: interleaving it again with the same or an equal right
    component returns that product, so the product's own memo is shared by
    every check of the pair.  Only the last is kept, so a component
    interleaved with many others, as in counterexample shrinking, holds one
    product at a time, and the product is freed with its left component.
    The product's memo starts with its reachable states, every pair, and
    its heights, read from the sides' (`_SumOfHeights`).
    """
    kept = left._memo.get("product")
    if kept is not None and kept[0] == right:
        return kept[1]
    lkeep = reachable_states(left)
    rkeep = reachable_states(right)
    transitions = {
        ((l, r), label, (dst, r))
        for l, label, dst in left.transitions
        if l in lkeep
        for r in rkeep
    } | {
        ((l, r), label, (l, dst))
        for r, label, dst in right.transitions
        if r in rkeep
        for l in lkeep
    }
    product = Lts(
        frozenset((l, r) for l in lkeep for r in rkeep),
        (left.initial, right.initial),
        left.alphabet | right.alphabet,
        frozenset(transitions),
    )
    product._memo["reachable"] = product.states
    product._memo["heights"] = _SumOfHeights(state_heights(left), state_heights(right))
    left._memo["product"] = (right, product)
    return product


class _SumOfHeights:
    """The heights of an interleaving's states, read from its sides'
    heights when asked.  A pair reaches a cycle when either side does, and
    otherwise its height is the sum of its sides' (a path is the two sides'
    paths interleaved)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right

    def get(self, pair: tuple, default=None):
        l, r = pair
        mine, theirs = self.left.get(l), self.right.get(r)
        if mine is None or theirs is None:
            return default
        return mine + theirs


CHOICE_INITIAL = "+"


def choice_state(side: str, s: State) -> str:
    """The name `choice` gives state s of its left ("L") or right ("R")
    operand."""
    return side + ":" + format_state(s)


def choice(left: Lts, right: Lts) -> Lts:
    """Nondeterministic choice with a fresh initial state, restricted to the
    reachable part.

    The fresh initial offers the first steps of both operands; afterwards the
    chosen side runs alone.  Operand states are namespaced L:/R: by
    `choice_state`, so equal ids on the two sides never clash.
    """
    transitions: set = set()
    for side, operand in (("L", left), ("R", right)):
        for label, dst in operand.outgoing(operand.initial):
            transitions.add((CHOICE_INITIAL, label, choice_state(side, dst)))
        for src, label, dst in operand.transitions:
            transitions.add((choice_state(side, src), label, choice_state(side, dst)))

    full = make_lts(
        CHOICE_INITIAL,
        transitions,
        extra_labels=left.alphabet | right.alphabet,
    )
    keep = reachable_states(full)
    # the target of a reachable state's edge is reachable too
    return Lts(
        keep,
        full.initial,
        full.alphabet,
        frozenset(t for t in full.transitions if t[0] in keep),
    )


def longest_acyclic_path(lts: Lts) -> Optional[int]:
    """Transition count of the longest path in the reachable part, or None
    when the reachable part contains a cycle.  Every path there extends
    back to the initial state, so that is the initial state's height."""
    return state_heights(lts).get(lts.initial)


def state_heights(lts: Lts):
    """Each reachable state from which no cycle is reachable, mapped to the
    transition count of the longest path out of it; kept in the system's
    memo.  Only its `get` is used: a product's is a `_SumOfHeights`."""
    found = lts._memo.get("heights")
    if found is None:
        found = lts._memo["heights"] = _settle(lts)
    return found


def _settle(lts: Lts) -> dict:
    """`state_heights` without the memo."""
    keep = reachable_states(lts)
    before: dict[State, list] = {s: [] for s in keep}
    waiting = {}
    for s in keep:
        out = lts.outgoing(s)
        waiting[s] = len(out)
        for _, dst in out:
            before[dst].append(s)
    # Kahn's order backwards: a state is settled once all its successors
    # are, so the states left over are exactly those on or before a cycle,
    # the initial state among them when there is one
    heights = {}
    ready = [s for s in keep if not waiting[s]]
    while ready:
        s = ready.pop()
        heights[s] = max((heights[dst] + 1 for _, dst in lts.outgoing(s)), default=0)
        for src in before[s]:
            waiting[src] -= 1
            if not waiting[src]:
                ready.append(src)
    return heights


# ---------------------------------------------------------------------------
# AUT parsing and serialization

_HEADER_RE = re.compile(r"^des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_TRANS_RE = re.compile(r'^\(\s*(\d+)\s*,\s*"([^"]*)"\s*,\s*(\d+)\s*\)\s*$')
_ALPHABET_DIRECTIVE = "#alphabet:"


def parse_aut(text: str) -> Lts:
    """Parse an AUT document.

    The header `des (I,T,N)` gives the initial state index, the transition
    count and the state count; states are the indices 0..N-1.  Each
    transition line reads `(src,"label",dst)`.  Lines starting with `#` are
    comments, except `#alphabet: a b c` which declares extra labels beyond
    those used by transitions.
    """
    lines = text.splitlines()
    header: Optional[tuple[int, int, int]] = None
    transitions: list[Transition] = []
    extra_labels: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_ALPHABET_DIRECTIVE):
                for label in line[len(_ALPHABET_DIRECTIVE):].split():
                    if not valid_label(label):
                        raise AutParseError(
                            f"line {lineno}: invalid label {label!r} in alphabet directive"
                        )
                    extra_labels.append(label)
            continue
        if header is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise AutParseError(f"line {lineno}: malformed header {line!r}")
            header = (int(m.group(1)), int(m.group(2)), int(m.group(3)))
            continue
        m = _TRANS_RE.match(line)
        if not m:
            if line.count('"') % 2 == 1:
                raise AutParseError(f"line {lineno}: unterminated quoted label")
            raise AutParseError(f"line {lineno}: malformed transition {line!r}")
        src, label, dst = int(m.group(1)), m.group(2), int(m.group(3))
        if not valid_label(label):
            raise AutParseError(f"line {lineno}: invalid label {label!r}")
        transitions.append((src, label, dst))
    if header is None:
        raise AutParseError("missing `des (initial,transitions,states)` header")
    initial, declared_count, state_count = header
    if state_count < 1 or initial >= state_count:
        raise AutParseError("malformed header: initial state index out of range")
    if len(transitions) != declared_count:
        raise AutParseError(
            f"header declares {declared_count} transitions, found {len(transitions)}"
        )
    for src, label, dst in transitions:
        if src >= state_count or dst >= state_count:
            raise AutParseError(
                f"transition ({src},\"{label}\",{dst}): state index out of range"
            )
    return Lts(
        frozenset(range(state_count)),
        initial,
        frozenset(label for _, label, _ in transitions) | frozenset(extra_labels),
        frozenset(transitions),
    )


def emit_aut(lts: Lts) -> str:
    """Serialize the reachable part back to AUT.

    States are reindexed in deterministic breadth-first order with the
    initial state at index 0; alphabet labels unused by any reachable
    transition are kept via an `#alphabet:` directive.
    """
    order = _walk(lts)
    transitions = sorted(
        (
            (order[src], label, order[dst])
            for src, label, dst in lts.transitions
            if src in order and dst in order
        ),
    )
    used = {label for _, label, _ in transitions}
    unused = sorted(lts.alphabet - used)
    lines = [f"des (0,{len(transitions)},{len(order)})"]
    lines.extend(f'({src},"{label}",{dst})' for src, label, dst in transitions)
    if unused:
        lines.append(f"{_ALPHABET_DIRECTIVE} {' '.join(unused)}")
    return "\n".join(lines) + "\n"


def emit_dot(lts: Lts) -> str:
    """Render to DOT with the initial state double-circled."""
    lines = ["digraph lts {", "  rankdir=LR;", '  node [shape=circle];']
    for s in sorted(lts.states, key=format_state):
        shape = "doublecircle" if s == lts.initial else "circle"
        lines.append(f'  "{format_state(s)}" [shape={shape}];')
    for src, label, dst in sorted(
        lts.transitions,
        key=lambda t: (format_state(t[0]), t[1], format_state(t[2])),
    ):
        lines.append(
            f'  "{format_state(src)}" -> "{format_state(dst)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
