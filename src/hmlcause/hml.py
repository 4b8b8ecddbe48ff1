"""Hennessy-Milner logic: formulas, parsing, and satisfaction over an Lts."""

from __future__ import annotations

import re

from .lts import LABEL_RE, Lts, State, _Immutable, _set_field, format_state


class Formula(_Immutable):
    """Base class for formula nodes; all nodes are immutable and hashable.

    Each node class writes out only its constructor (Diamond and Box share
    theirs, as do And and Or), so building a node runs no generic code;
    equality, repr and pickling come from `_Immutable`, and equality holds
    only between nodes of one class.  A node keeps its hash and its
    alphabet once asked for them, so each is computed once per node, from
    its children's.  Neither takes part in equality, repr or pickling: a
    string's hash differs between processes, so an unpickled node computes
    its own.
    """

    __slots__ = ()
    _hash = None
    _alphabet = None

    def __hash__(self) -> int:
        found = self._hash
        if found is None:
            found = _Immutable.__hash__(self)
            _set_field(self, "_hash", found)
        return found


class Top(Formula):
    """`tt`: holds at every state."""


class _Modality(Formula):
    """The fields and constructor Diamond and Box share."""

    __match_args__ = ("label", "body")

    def __init__(self, label: str, body: Formula) -> None:
        _set_field(self, "label", label)
        _set_field(self, "body", body)


class Diamond(_Modality):
    """`<label>body`: some `label` step leads to a state satisfying body."""


class Box(_Modality):
    """`[label]body`: every `label` step leads to a state satisfying body."""


class Not(Formula):
    __match_args__ = ("body",)

    def __init__(self, body: Formula) -> None:
        _set_field(self, "body", body)


class _Binary(Formula):
    """The fields and constructor And and Or share."""

    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        _set_field(self, "left", left)
        _set_field(self, "right", right)


class And(_Binary):
    """`left & right`."""


class Or(_Binary):
    """`left | right`."""


TT = Top()
FF = Not(TT)


class FormulaParseError(ValueError):
    """Raised with a position when a formula text cannot be parsed."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(message, position)
        self.position = position

    def __str__(self) -> str:
        message, position = self.args
        return f"{message} (at position {position})"


# Satisfaction, formatting, equality and a node's first hash recurse once per
# nesting level, so a parsed formula deeper than this is rejected before it
# reaches them.
MAX_FORMULA_DEPTH = 100

# One token after any whitespace: a word, which is a label by the pattern
# AUT labels follow; one reserved character; or the end of the text.
_TOKEN = re.compile(rf"\s*(?:({LABEL_RE.pattern})|(\S)|\Z)")


def _tokens(text: str):
    """(word, reserved character, position) of each token in order; the
    end of the text has neither.  A quote is an error where it is read."""
    for token in _TOKEN.finditer(text):
        word, char = token.groups()
        at = token.start(token.lastindex) if token.lastindex else len(text)
        if char == '"':
            raise FormulaParseError("unexpected quote character", at)
        yield word, char, at


def _join(node, left, right):
    """node(left, right) of two (formula, depth) pairs, as a pair; a missing
    left operand leaves the right one alone."""
    if left is None:
        return right
    return node(left[0], right[0]), 1 + max(left[1], right[1])


def parse_formula(text: str) -> Formula:
    """Parse a formula.

    Grammar: tt, ff, <label>F, [label]F, !F, F & F, F | F and parentheses.
    Negation and the modalities bind tighter than conjunction, which binds
    tighter than disjunction; the binary operators associate to the left.
    `ff` is shorthand for `!tt` and has no node of its own.  A label is
    what `valid_label` accepts, and whitespace around a token is skipped.

    One pass over the tokens builds the tree, keeping the open parentheses
    on a stack of its own, so nesting never deepens the Python stack.  Each
    node is built with its depth, and a formula that nests deeper than
    MAX_FORMULA_DEPTH nodes is rejected once the whole text has parsed.
    """
    # Per open parenthesis: the prefix operators waiting for an operand, as
    # (node class, *label), and the disjunction and conjunction built so
    # far, as (formula, depth) pairs.
    outer = []
    prefixes, disjunction, conjunction = [], None, None
    want_operand = True
    tokens = _tokens(text)
    for word, char, at in tokens:
        if want_operand:
            if char == "(":
                outer.append((prefixes, disjunction, conjunction))
                prefixes, disjunction, conjunction = [], None, None
                continue
            if char == "!":
                prefixes.append((Not,))
                continue
            if char == "<" or char == "[":
                closing = ">" if char == "<" else "]"
                label, close, at = next(tokens)
                if close == closing:
                    raise FormulaParseError("empty label inside a modality", at)
                if label is None:
                    raise FormulaParseError("expected a label inside the modality", at)
                _, close, at = next(tokens)
                if close != closing:
                    raise FormulaParseError(
                        f"expected {closing!r} to close the modality", at
                    )
                prefixes.append((Diamond if char == "<" else Box, label))
                continue
            if word == "tt":
                operand = TT, 1
            elif word == "ff":
                operand = FF, 2
            elif word or char:
                raise FormulaParseError(f"unexpected {word or char!r}", at)
            else:
                raise FormulaParseError("unexpected end of input", at)
        elif char == "&" or char == "|":
            if char == "|":
                disjunction, conjunction = _join(Or, disjunction, conjunction), None
            want_operand = True
            continue
        elif char == ")" and outer:
            operand = _join(Or, disjunction, conjunction)
            prefixes, disjunction, conjunction = outer.pop()
        elif outer:
            raise FormulaParseError("expected ')'", at)
        elif word or char:
            raise FormulaParseError(f"unexpected {word or char!r} after formula", at)
        else:
            break
        # a finished operand takes the prefixes waiting for it and joins
        # the conjunction
        formula, depth = operand
        for node, *label in reversed(prefixes):
            formula = node(*label, formula)
        operand = formula, depth + len(prefixes)
        prefixes = []
        conjunction = _join(And, conjunction, operand)
        want_operand = False
    formula, depth = _join(Or, disjunction, conjunction)
    if depth > MAX_FORMULA_DEPTH:
        raise FormulaParseError(
            f"formula nests deeper than {MAX_FORMULA_DEPTH} levels", 0
        )
    return formula


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
    """Labels appearing in modalities.  A node that adds no label to a
    child's shares the child's set, as the node keeps it."""
    if getattr(f, "_alphabet", None) is None:
        match f:
            case Top():
                alphabet = frozenset()
            case Diamond(label, body) | Box(label, body):
                alphabet = formula_alphabet(body)
                if label not in alphabet:
                    alphabet = alphabet | {label}
            case Not(body):
                alphabet = formula_alphabet(body)
            case And(left, right) | Or(left, right):
                alphabet, other = formula_alphabet(left), formula_alphabet(right)
                if not other <= alphabet:
                    alphabet = other if alphabet <= other else alphabet | other
            case _:
                raise TypeError(f"not a formula: {f!r}")
        _set_field(f, "_alphabet", alphabet)
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


class EffectContext(_Immutable):
    """An effect formula paired with the system it is interpreted over.

    Every label of the formula must be declared in the system's alphabet;
    AUT inputs can extend the alphabet with an `#alphabet:` directive.
    Immutable, and equal to another context with equal fields.
    """

    __match_args__ = ("lts", "formula")

    def __init__(self, lts: Lts, formula: Formula) -> None:
        missing = formula_alphabet(formula) - lts.alphabet
        if missing:
            raise ValueError(
                "formula uses labels outside the system alphabet: "
                + ", ".join(sorted(missing))
            )
        _set_field(self, "lts", lts)
        _set_field(self, "formula", formula)


def is_immediate_effect(ctx: EffectContext) -> bool:
    """True when the effect already holds at the initial state."""
    return ctx.lts.initial in states_satisfying(ctx.lts, ctx.formula)
