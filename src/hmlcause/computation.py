"""Computations: core paths annotated with per-step extension word lists."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lts import State, Word


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


@dataclass(frozen=True)
class Computation:
    """A core whose steps each carry a finite list of extension words.

    `dlists` is any sequence of m size-compatible lists: the same number of
    entries on every step, one per expanded trace.  The cause engine's
    lists are spelled on every read.  `truncated` records that the lists
    were cut off at an exploration bound and would grow at a larger one.
    """

    states: tuple
    labels: Word
    dlists: Sequence[Sequence[Word]]
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


def size_compatible(dlists: Sequence[Sequence[Word]]) -> bool:
    """All extension lists have the same length."""
    lengths = {len(dl) for dl in dlists}
    return len(lengths) <= 1


def computation_traces(c: Computation) -> frozenset:
    """Expand a computation into the set of full words.

    With all-empty lists the only trace is the bare label word.  Otherwise
    entry j of every list is spliced after its label, producing one word per
    entry position; only those spliced words are traces.
    """
    labels, dlists = c.labels, tuple(c.dlists)
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
