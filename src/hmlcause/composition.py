"""Compositional laws for causes in interleaved, non-communicating systems.

Two components with disjoint alphabets run side by side.  For a disjunctive
effect the causal projection of the product is, up to a fixed renaming, the
choice of the component projections; for a conjunctive effect it is their
product, literally.  The verifiers here check both laws on concrete
instances and produce witnesses or counterexamples.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from .causality import causal_projection, causes, default_bound
from .hml import (
    And,
    EffectContext,
    Or,
    format_formula,
    formula_alphabet,
    is_immediate_effect,
)
from .lts import (
    CHOICE_INITIAL,
    Lts,
    choice,
    choice_state,
    emit_aut,
    format_state,
    interleave,
    make_lts,
)


@dataclass(frozen=True)
class PreconditionReport:
    ok: bool
    issues: tuple


def check_preconditions(left_lts, right_lts, left_formula, right_formula) -> PreconditionReport:
    """The laws assume disjoint alphabets, effects stated over their own
    component's alphabet, and effects that have not already occurred
    initially."""
    issues = []
    shared = left_lts.alphabet & right_lts.alphabet
    if shared:
        issues.append("alphabets share labels: " + ", ".join(sorted(shared)))
    sides = (
        ("left", left_lts, left_formula),
        ("right", right_lts, right_formula),
    )
    stray = {}
    for name, lts, formula in sides:
        stray[name] = formula_alphabet(formula) - lts.alphabet
        if stray[name]:
            issues.append(
                f"{name} effect uses labels outside its component: "
                + ", ".join(sorted(stray[name]))
            )
    for name, lts, formula in sides:
        # an effect with stray labels cannot be evaluated on its component
        if not stray[name] and is_immediate_effect(
            EffectContext(lts, formula)
        ):
            issues.append(f"{name} effect already holds at the initial state")
    return PreconditionReport(not issues, tuple(issues))


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    verdict: str
    witness: Optional[dict]
    counterexample: Optional[dict]
    bound: int

    def to_json(self) -> dict:
        return asdict(self)


def _renaming(lhs: Lts, rhs: Lts, left_init, right_init) -> Optional[dict]:
    """The expected disjunction renaming, when it is an isomorphism: the
    joint initial state becomes the fresh choice initial, pairs that kept the
    right side at rest go to the left branch, and symmetrically.  Both sides
    carry the joint alphabet, and the joint initial state is `lhs.initial`,
    so alphabets and initial states agree by construction."""
    mapping = {}
    for s in lhs.states:
        l, r = s
        if l == left_init and r == right_init:
            mapping[s] = CHOICE_INITIAL
        elif r == right_init:
            mapping[s] = choice_state("L", l)
        elif l == left_init:
            mapping[s] = choice_state("R", r)
        else:
            return None
    image = set(mapping.values())
    if len(image) != len(mapping) or image != rhs.states:
        return None
    mapped = {(mapping[s], label, mapping[t]) for s, label, t in lhs.transitions}
    return mapping if mapped == rhs.transitions else None


def _counterexample_payload(
    left: EffectContext, right: EffectContext, lhs: Lts, rhs: Lts, reason: str
) -> dict:
    return {
        "reason": reason,
        "left": {
            "aut": emit_aut(left.lts),
            "formula": format_formula(left.formula),
        },
        "right": {
            "aut": emit_aut(right.lts),
            "formula": format_formula(right.formula),
        },
        "lhs": emit_aut(lhs),
        "rhs": emit_aut(rhs),
    }


def _witness_json(mapping: dict) -> dict:
    return {
        format_state(s): format_state(t)
        for s, t in sorted(mapping.items(), key=lambda kv: format_state(kv[0]))
    }


def _precondition_report(theorem: str, pre: PreconditionReport, k: int) -> TheoremReport:
    return TheoremReport(
        theorem=theorem,
        verdict="precondition",
        witness=None,
        counterexample={"preconditions": list(pre.issues)},
        bound=k,
    )


def _prepare(left: EffectContext, right: EffectContext, k: Optional[int]) -> tuple:
    """The interleaving, the bound (its state count unless given) and the
    precondition report that every law check starts from."""
    composite = interleave(left.lts, right.lts)
    if k is None:
        k = default_bound(composite)
    pre = check_preconditions(left.lts, right.lts, left.formula, right.formula)
    return composite, k, pre


def verify_disjunction_theorem(
    left: EffectContext, right: EffectContext, k: Optional[int] = None
) -> TheoremReport:
    """Causal projection of the product under "either effect" should be the
    choice of the component projections, up to the branch renaming."""
    composite, k, pre = _prepare(left, right, k)
    if not pre.ok:
        return _precondition_report("disjunction", pre, k)
    lhs = causal_projection(
        EffectContext(composite, Or(left.formula, right.formula)), k
    )
    rhs = choice(causal_projection(left, k), causal_projection(right, k))
    mapping = _renaming(lhs, rhs, left.lts.initial, right.lts.initial)
    if mapping is not None:
        return TheoremReport(
            "disjunction", "holds", _witness_json(mapping), None, k
        )
    return TheoremReport(
        "disjunction",
        "fails",
        None,
        _counterexample_payload(
            left, right, lhs, rhs, "projections differ under the branch renaming"
        ),
        k,
    )


def verify_conjunction_theorem(
    left: EffectContext, right: EffectContext, k: Optional[int] = None
) -> TheoremReport:
    """Causal projection of the product under "both effects" should equal the
    product of the component projections, state for state."""
    composite, k, pre = _prepare(left, right, k)
    if not pre.ok:
        return _precondition_report("conjunction", pre, k)
    lhs = causal_projection(
        EffectContext(composite, And(left.formula, right.formula)), k
    )
    left_causes = causes(left, k)
    right_causes = causes(right, k)
    if not left_causes.causes or not right_causes.causes:
        # one side can never be caused, so nothing is causal on the product
        # side either: both projections collapse to the bare initial state
        pair = (left.lts.initial, right.lts.initial)
        rhs = make_lts(pair, (), left.lts.alphabet | right.lts.alphabet)
    else:
        rhs = interleave(causal_projection(left, k), causal_projection(right, k))
    if lhs == rhs:
        return TheoremReport("conjunction", "holds", None, None, k)
    return TheoremReport(
        "conjunction",
        "fails",
        None,
        _counterexample_payload(left, right, lhs, rhs, "projections differ"),
        k,
    )


@dataclass(frozen=True)
class CrossCheckReport:
    ok: bool
    detail: str


def cross_check_single_component(
    left: EffectContext, right: EffectContext, k: Optional[int] = None
) -> CrossCheckReport:
    """Every cause of "either effect" on the product must move only one
    component, and its core must be one of that component's cause cores."""
    composite, k, pre = _prepare(left, right, k)
    if not pre.ok:
        return CrossCheckReport(False, "; ".join(pre.issues))
    ctx = EffectContext(composite, Or(left.formula, right.formula))
    side_cores = {
        name: {r.computation.labels for r in causes(side_ctx, k).causes}
        for name, side_ctx in (("left", left), ("right", right))
    }
    for report in causes(ctx, k).causes:
        labels = report.computation.labels
        sides = {
            "left" if label in left.lts.alphabet else "right"
            for label in labels
        }
        if len(sides) > 1:
            return CrossCheckReport(
                False, f"core {labels} moves both components"
            )
        # corollary: the core, which is its own projection onto the moving
        # component's alphabet, is one of that component's own cause cores
        name = sides.pop()
        if labels not in side_cores[name]:
            return CrossCheckReport(
                False,
                f"core {labels} projects to {labels}, which is not a "
                f"cause core of the {name} component",
            )
    return CrossCheckReport(True, "all cores single-component")


def cross_check_disjunction_lifting(
    left: EffectContext, right: EffectContext, k: Optional[int] = None
) -> CrossCheckReport:
    """Causes of "either effect" on the product must be exactly the component
    causes run while the other component stays at rest, and every escape
    trace must still escape when projected onto the moving component.

    Only the cause half is checked; the escape half holds by construction.
    A product word reaches the product of the sets its projections reach.
    With disjoint alphabets, which the preconditions enforce, each side's
    formula names only its own labels, and only its own side moves on them,
    so by induction on the formula a pair (l, r) satisfies `Or(φL, φR)`
    exactly when l satisfies φL or r satisfies φR.  A kill word leaves every
    pair it reaches outside the effect, so its projection onto the moving
    component leaves every state it reaches outside that side's effect."""
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
    return CrossCheckReport(True, "composite causes are exactly the lifts")


def _one_step_smaller(pair: tuple):
    """(side, smaller system) for every pair one drop away: each transition
    of side 0, then of side 1, then each non-initial state of side 0, then
    of side 1, in a fixed order."""
    for side, ctx in enumerate(pair):
        lts = ctx.lts
        for tr in sorted(
            lts.transitions,
            key=lambda t: (t[1], format_state(t[0]), format_state(t[2])),
        ):
            yield side, Lts(
                lts.states, lts.initial, lts.alphabet, lts.transitions - {tr}
            )
    for side, ctx in enumerate(pair):
        lts = ctx.lts
        for s in sorted(lts.states - {lts.initial}, key=format_state):
            kept = frozenset(
                t for t in lts.transitions if s not in (t[0], t[2])
            )
            yield side, Lts(lts.states - {s}, lts.initial, lts.alphabet, kept)


def shrink_counterexample(
    left: EffectContext,
    right: EffectContext,
    k: int,
    verify: Callable[[EffectContext, EffectContext, int], TheoremReport],
) -> tuple:
    """Greedily drop one transition or state from either component while the
    law still fails, starting over after each drop.  Transitions go before
    states and the left component before the right; within a component,
    transitions are tried by (label, source, target) and states by name.
    A pair that breaks a precondition gets the verdict "precondition", not
    "fails", so it is never kept."""
    current = (left, right)
    while True:
        for side, lts in _one_step_smaller(current):
            trial = list(current)
            # the alphabet is kept, so the formula stays within it
            trial[side] = EffectContext(lts, current[side].formula)
            try:  # a caller's own verify may reject a smaller pair
                fails = verify(trial[0], trial[1], k).verdict == "fails"
            except ValueError:
                fails = False
            if fails:
                current = tuple(trial)
                break
        else:
            return current


def write_counterexample_bundle(
    directory: str,
    left: EffectContext,
    right: EffectContext,
    report: TheoremReport,
) -> None:
    """Persist a failing instance as a directory of plain files."""
    import json

    os.makedirs(directory, exist_ok=True)
    manifest = json.dumps(report.to_json(), indent=2, sort_keys=True)
    files = {
        "left.aut": emit_aut(left.lts),
        "right.aut": emit_aut(right.lts),
        "left.formula": format_formula(left.formula) + "\n",
        "right.formula": format_formula(right.formula) + "\n",
        "manifest.json": manifest + "\n",
    }
    for name, text in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
