"""Computations: core paths annotated with per-step extension word lists."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .lts import (
    Lts,
    State,
    Word,
    _state_from_json,
    _state_to_json,
    format_state,
    reach,
    subwords,
)


@dataclass(frozen=True)
class Core:
    """A path: n+1 visited states joined by n labeled steps.

    The trivial core is a single state with no steps.
    """

    states: tuple
    labels: Word

    def __post_init__(self) -> None:
        if len(self.states) != len(self.labels) + 1:
            raise ValueError("a core needs exactly one more state than labels")

    @property
    def first(self) -> State:
        return self.states[0]

    @property
    def final(self) -> State:
        return self.states[-1]

    def sort_key(self):
        return (self.labels, tuple(format_state(s) for s in self.states))


@dataclass(frozen=True)
class Computation:
    """A core whose steps each carry a finite list of extension words.

    The extension lists must be size-compatible: one entry per expanded
    trace, the same count on every step.  `truncated` records that the lists
    were cut off at an exploration bound and would grow at a larger one.
    """

    states: tuple
    labels: Word
    dlists: tuple
    truncated: bool = False

    def __post_init__(self) -> None:
        if len(self.states) != len(self.labels) + 1:
            raise ValueError("a computation needs exactly one more state than labels")
        if len(self.dlists) != len(self.labels):
            raise ValueError("one extension list per step is required")

    @property
    def core(self) -> Core:
        return Core(self.states, self.labels)

    @property
    def is_trivial(self) -> bool:
        return not self.labels

    def to_json(self) -> dict:
        return {
            "states": [_state_to_json(s) for s in self.states],
            "labels": list(self.labels),
            "dlists": [[list(w) for w in dl] for dl in self.dlists],
            "truncated": self.truncated,
        }

    @staticmethod
    def from_json(obj: dict) -> "Computation":
        return Computation(
            states=tuple(_state_from_json(s) for s in obj["states"]),
            labels=tuple(obj["labels"]),
            dlists=tuple(
                tuple(tuple(w) for w in dl) for dl in obj["dlists"]
            ),
            truncated=bool(obj.get("truncated", False)),
        )


def trivial_computation(state: State) -> Computation:
    return Computation(states=(state,), labels=(), dlists=())


def size_compatible(dlists: Sequence[Sequence[Word]]) -> bool:
    """All extension lists have the same length."""
    lengths = {len(dl) for dl in dlists}
    return len(lengths) <= 1


def traces(pairs: Sequence[tuple[str, Sequence[Word]]]) -> frozenset:
    """Expand (label, extension list) pairs into the set of full words.

    With all-empty lists the only trace is the bare label word.  Otherwise
    entry j of every list is spliced after its label, producing one word per
    entry position; only those spliced words are traces.
    """
    labels = tuple(label for label, _ in pairs)
    dlists = tuple(tuple(tuple(w) for w in dl) for _, dl in pairs)
    return _splice(labels, dlists)


def computation_traces(c: Computation) -> frozenset:
    return _splice(c.labels, c.dlists)


def _splice(labels: Word, dlists: tuple) -> frozenset:
    if not size_compatible(dlists):
        raise ValueError("extension lists are not size-compatible")
    count = len(dlists[0]) if dlists else 0
    if count == 0:
        return frozenset({labels})
    out = set()
    for j in range(count):
        word: list[str] = []
        for i, label in enumerate(labels):
            word.append(label)
            word.extend(dlists[i][j])
        out.add(tuple(word))
    return frozenset(out)


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


def _paths_for_word(lts: Lts, start: State, word: Word) -> list[tuple]:
    """All state paths from start labeled exactly by word."""
    paths: list[tuple] = []

    def walk(prefix: tuple, i: int) -> None:
        if i == len(word):
            paths.append(prefix)
            return
        for nxt in sorted(lts.successors(prefix[-1], word[i]), key=format_state):
            walk(prefix + (nxt,), i + 1)

    walk((start,), 0)
    return paths


def sub_cores(lts: Lts, core: Core) -> frozenset:
    """Every core anchored at the same first state whose label word deletes
    at least one letter from the given core's labels, one per executable
    state path."""
    if core.first not in lts.states:
        raise ValueError(f"unknown state {format_state(core.first)!r}")
    result: set = set()
    for word in subwords(core.labels):
        for path in _paths_for_word(lts, core.first, word):
            result.add(Core(path, word))
    return frozenset(result)
