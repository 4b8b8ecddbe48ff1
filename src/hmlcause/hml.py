"""Hennessy-Milner logic: formulas, parsing, and satisfaction over an Lts."""

from __future__ import annotations

from dataclasses import dataclass

from .lts import Lts, State, format_state, valid_label


class Formula:
    """Base class for formula nodes; all nodes are frozen and hashable.

    A node keeps its hash and its alphabet once asked for them, so each is
    computed once per node, from its children's.  Neither takes part in
    equality, repr or pickling: a string's hash differs between processes,
    so an unpickled node computes its own.
    """

    __slots__ = ()
    _hash = None
    _alphabet = None

    def __hash__(self) -> int:
        if self._hash is None:
            self.__dict__["_hash"] = self._fields_hash()
        return self._hash

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, f) for f in self.__match_args__)


def _node(cls):
    """A frozen dataclass node with the generated equality and repr.  The
    generated hash, of the fields' tuple, becomes `_fields_hash`, which
    Formula's hash calls once per node."""
    cls = dataclass(frozen=True)(cls)
    cls._fields_hash, cls.__hash__ = cls.__hash__, Formula.__hash__
    return cls


@_node
class Top(Formula):
    pass


@_node
class Diamond(Formula):
    label: str
    body: Formula


@_node
class Box(Formula):
    label: str
    body: Formula


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


TT = Top()
FF = Not(TT)


class FormulaParseError(ValueError):
    """Raised with a position when a formula text cannot be parsed."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_PUNCT = set("<>[]!&|()")

# Satisfaction, formatting, equality and a node's first hash recurse once per
# nesting level, so a parsed formula deeper than this is rejected before it
# reaches them.
MAX_FORMULA_DEPTH = 100


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """(kind, value, position); kind is 'punct', 'word' or 'end'."""
        self._skip_ws()
        start = self.pos
        if start >= len(self.text):
            return ("end", "", start)
        ch = self.text[start]
        if ch in _PUNCT:
            return ("punct", ch, start)
        if ch == '"':
            raise FormulaParseError("unexpected quote character", start)
        end = start
        while end < len(self.text):
            c = self.text[end]
            if c.isspace() or c in _PUNCT or c == '"':
                break
            end += 1
        return ("word", self.text[start:end], start)

    def take(self) -> tuple[str, str, int]:
        kind, value, start = self.peek()
        self.pos = start + (len(value) if value else 0)
        return (kind, value, start)


def parse_formula(text: str) -> Formula:
    """Parse a formula.

    Grammar: tt, ff, <label>F, [label]F, !F, F & F, F | F and parentheses.
    Negation and the modalities bind tighter than conjunction, which binds
    tighter than disjunction; the binary operators associate to the left.
    `ff` is shorthand for `!tt` and has no node of its own.  A formula that
    nests deeper than MAX_FORMULA_DEPTH nodes is rejected.
    """
    tok = _Tokenizer(text)
    formula = _parse(tok)
    kind, value, pos = tok.peek()
    if kind != "end":
        raise FormulaParseError(f"unexpected {value!r} after formula", pos)
    if _depth(formula) > MAX_FORMULA_DEPTH:
        raise FormulaParseError(
            f"formula nests deeper than {MAX_FORMULA_DEPTH} levels", 0
        )
    return formula


def _depth(f: Formula) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    deepest = 0
    stack = [(f, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        match node:
            case Diamond(_, body) | Box(_, body) | Not(body):
                stack.append((body, depth + 1))
            case And(left, right) | Or(left, right):
                stack.extend(((left, depth + 1), (right, depth + 1)))
    return deepest


class _Group:
    """One parenthesis level being parsed: the disjunction and conjunction
    built so far and the prefix operators, as (node class, label), waiting
    for the next operand."""

    def __init__(self) -> None:
        self.prefixes: list = []
        self.conjunction = None
        self.disjunction = None

    def close(self) -> Formula:
        if self.disjunction is None:
            return self.conjunction
        return Or(self.disjunction, self.conjunction)


def _parse(tok: _Tokenizer) -> Formula:
    """Operator-precedence parse of one formula with an explicit stack of
    open parentheses, so nesting never deepens the Python stack."""
    outer: list[_Group] = []
    group = _Group()
    while True:
        kind, value, pos = tok.peek()
        if kind == "punct" and value in "!<[(":
            tok.take()
            if value == "(":
                outer.append(group)
                group = _Group()
            elif value == "!":
                group.prefixes.append((Not, None))
            else:
                label = _parse_modality_label(tok, ">" if value == "<" else "]")
                group.prefixes.append((Diamond if value == "<" else Box, label))
            continue
        if kind == "punct":
            raise FormulaParseError(f"unexpected {value!r}", pos)
        if kind == "end":
            raise FormulaParseError("unexpected end of input", pos)
        tok.take()
        if value == "tt":
            operand = TT
        elif value == "ff":
            operand = FF
        else:
            raise FormulaParseError(f"unexpected {value!r}", pos)
        while True:
            for node, label in reversed(group.prefixes):
                operand = Not(operand) if node is Not else node(label, operand)
            group.prefixes = []
            if group.conjunction is None:
                group.conjunction = operand
            else:
                group.conjunction = And(group.conjunction, operand)
            kind, value, _ = tok.peek()
            if kind == "punct" and value == "&":
                tok.take()
                break
            if kind == "punct" and value == "|":
                tok.take()
                group.disjunction = group.close()
                group.conjunction = None
                break
            if not outer:
                return group.close()
            kind, close, cpos = tok.take()
            if kind != "punct" or close != ")":
                raise FormulaParseError("expected ')'", cpos)
            operand = group.close()
            group = outer.pop()


def _parse_modality_label(tok: _Tokenizer, closing: str) -> str:
    kind, value, pos = tok.take()
    if kind == "punct" and value == closing:
        raise FormulaParseError("empty label inside a modality", pos)
    if kind != "word":
        raise FormulaParseError("expected a label inside the modality", pos)
    if not valid_label(value):
        raise FormulaParseError(f"invalid label {value!r}", pos)
    kind, close, pos = tok.take()
    if kind != "punct" or close != closing:
        raise FormulaParseError(f"expected {closing!r} to close the modality", pos)
    return value


def _prec(f: Formula) -> int:
    match f:
        case Or():
            return 1
        case And():
            return 2
        case _:
            return 3


def _operand(f: Formula, prec: int) -> str:
    """f rendered for a slot that needs precedence prec, parenthesised when
    it binds more loosely."""
    text = format_formula(f)
    return f"({text})" if _prec(f) < prec else text


def format_formula(f: Formula) -> str:
    """Render a formula so that parsing the text yields the same tree."""
    match f:
        case Top():
            return "tt"
        case Diamond(label, body):
            return f"<{label}>{_operand(body, 3)}"
        case Box(label, body):
            return f"[{label}]{_operand(body, 3)}"
        case Not(body):
            return f"!{_operand(body, 3)}"
        case And(left, right):
            return f"{_operand(left, 2)} & {_operand(right, 3)}"
        case Or(left, right):
            return f"{_operand(left, 1)} | {_operand(right, 2)}"
    raise TypeError(f"not a formula: {f!r}")


def formula_alphabet(f: Formula) -> frozenset:
    """Labels appearing in modalities."""
    if getattr(f, "_alphabet", None) is None:
        match f:
            case Top():
                alphabet = frozenset()
            case Diamond(label, body) | Box(label, body):
                alphabet = formula_alphabet(body) | {label}
            case Not(body):
                alphabet = formula_alphabet(body)
            case And(left, right) | Or(left, right):
                alphabet = formula_alphabet(left) | formula_alphabet(right)
            case _:
                raise TypeError(f"not a formula: {f!r}")
        f.__dict__["_alphabet"] = alphabet
    return f._alphabet


def satisfies(lts: Lts, s: State, f: Formula) -> bool:
    """Satisfaction at a single state."""
    if s not in lts.states:
        raise ValueError(f"unknown state {format_state(s)!r}")
    return s in states_satisfying(lts, f)


def states_satisfying(lts: Lts, f: Formula) -> frozenset:
    """The set of states satisfying f, computed bottom-up over the formula
    and kept in the system's memo."""
    found = lts._memo.get(f)
    if found is None:
        found = lts._memo[f] = _evaluate(lts, f)
    return found


def _evaluate(lts: Lts, f: Formula) -> frozenset:
    """`states_satisfying` without the memo, which keeps whole formulas
    only: one entry per question asked, not one per subformula."""
    match f:
        case Top():
            return frozenset(lts.states)
        case Diamond(label, body):
            sat = _evaluate(lts, body)
            return frozenset(
                src
                for src, name, dst in lts.transitions
                if name == label and dst in sat
            )
        case Box(label, body):
            sat = _evaluate(lts, body)
            return frozenset(lts.states).difference(
                src
                for src, name, dst in lts.transitions
                if name == label and dst not in sat
            )
        case Not(body):
            return frozenset(lts.states) - _evaluate(lts, body)
        case And(left, right):
            return _evaluate(lts, left) & _evaluate(lts, right)
        case Or(left, right):
            return _evaluate(lts, left) | _evaluate(lts, right)
    raise TypeError(f"not a formula: {f!r}")


@dataclass(frozen=True)
class EffectContext:
    """An effect formula paired with the system it is interpreted over.

    Every label of the formula must be declared in the system's alphabet;
    AUT inputs can extend the alphabet with an `#alphabet:` directive.
    """

    lts: Lts
    formula: Formula

    def __post_init__(self) -> None:
        missing = formula_alphabet(self.formula) - self.lts.alphabet
        if missing:
            raise ValueError(
                "formula uses labels outside the system alphabet: "
                + ", ".join(sorted(missing))
            )


def is_immediate_effect(ctx: EffectContext) -> bool:
    """True when the effect already holds at the initial state."""
    return ctx.lts.initial in states_satisfying(ctx.lts, ctx.formula)
