"""Acceptance gate: one test per criterion, each printing a pass line and
enforcing its runtime budget.  Run with -v to see one verdict line per
criterion; any red line here is a real defect, not noise."""

from __future__ import annotations

import random
import time
from pathlib import Path

from helpers import ROOT, init_actions, rand_formula, verify_both, w, words
from reference import Classification, classify_word, traces
from hmlcause import (
    And,
    Box,
    Computation,
    Core,
    Diamond,
    EffectContext,
    Exactness,
    GenParams,
    Not,
    Or,
    causal_projection,
    cause_candidate,
    causes,
    corpus,
    cross_check_disjunction_lifting,
    cross_check_single_component,
    gen_lts,
    interleave,
    is_immediate_effect,
    oracle_check_cause,
    oracle_check_details,
    satisfies,
    shrink_counterexample,
    verify_conjunction_theorem,
    verify_disjunction_theorem,
    write_counterexample_bundle,
)
from hmlcause.testkit import fixture_context

BUNDLE_ROOT = ROOT / "counterexamples"


class Budget:
    """Context manager asserting a wall-clock limit and printing the verdict."""

    def __init__(self, criterion: str, limit: float | None):
        self.criterion = criterion
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"FAIL {self.criterion} ({elapsed:.2f}s)")
            return False
        if self.limit is not None:
            assert elapsed < self.limit, (
                f"{self.criterion} exceeded its {self.limit}s budget: "
                f"{elapsed:.2f}s"
            )
        print(f"PASS {self.criterion} ({elapsed:.2f}s)")
        return False


def test_criterion_01_linear_handoff_cause():
    with Budget("criterion 1: single cause on the linear handoff", 1.0):
        cause_set = causes(fixture_context("t1"), 3)
        assert len(cause_set.causes) == 1
        cause = cause_set.causes[0]
        assert cause.computation.labels == ("a",)
        assert cause.kill_traces == words("ah")


def test_criterion_02_branching_kills_and_rejections():
    with Budget("criterion 2: branching kills, empty-kill and non-minimal rejections", 1.0):
        ctx = fixture_context("t4")
        cause_set = causes(ctx, 3)
        assert len(cause_set.causes) == 1
        cause = cause_set.causes[0]
        assert cause.computation.labels == ("a",)
        assert cause.kill_traces == words("ah", "abb", "abh")

        # same core with its kill traces stripped: placement now fails
        hollow = Computation(("s40", "s42"), ("a",), (((),),))
        details = oracle_check_details(ctx, hollow, 3)
        assert details["ac2b"] is False or details["ac2c"] is False
        assert not oracle_check_cause(ctx, hollow, 3)

        # the two-step extension is well-formed but not minimal
        comp, _report = cause_candidate(
            ctx, Core(("s40", "s42", "s43"), ("a", "b")), 3
        )
        assert comp is not None
        assert oracle_check_details(ctx, comp, 3)["ac3"] is False
        assert all(
            c.computation.labels != ("a", "b") for c in cause_set.causes
        )


def test_criterion_03_ambiguous_action_has_no_cause():
    with Budget("criterion 3: ambiguous action yields an empty cause set", 1.0):
        ctx = fixture_context("t3")
        assert causes(ctx, 3).causes == ()

        # independent sweep: every executable core up to the bound is
        # disqualified by word-level classification alone
        lts = ctx.lts
        cores = []

        def extend(path, labels):
            if labels:
                cores.append((path, labels))
            if len(labels) == 3:
                return
            for (src, label, dst) in sorted(lts.transitions):
                if src == path[-1]:
                    extend(path + (dst,), labels + (label,))

        extend((lts.initial,), ())
        assert cores  # the sweep is not vacuous

        def shaped(word, core, k):
            # anchored gap-bounded embedding: word starts with the first
            # core letter and every stretch between consumed letters has
            # length at most k
            if not word or word[0] != core[0]:
                return False
            frontiers = {(1, 0)}
            for letter in word[1:]:
                nxt = set()
                for consumed, gap in frontiers:
                    if consumed < len(core) and letter == core[consumed]:
                        nxt.add((consumed + 1, 0))
                    if gap < k:
                        nxt.add((consumed, gap + 1))
                frontiers = nxt
                if not frontiers:
                    return False
            return any(consumed == len(core) for consumed, _ in frontiers)

        all_words = [()]
        frontier = [()]
        for _ in range(6):
            frontier = [
                word + (label,)
                for word in frontier
                for label in sorted(lts.alphabet)
                if classify_word(ctx, word + (label,))
                is not Classification.NOT_EXECUTABLE
            ]
            all_words.extend(frontier)

        for path, labels in cores:
            core_ok = (
                classify_word(ctx, labels) is Classification.ALL_SATISFY
            )
            mixed_exists = any(
                shaped(word, labels, 3)
                and classify_word(ctx, word) is Classification.MIXED
                for word in all_words
            )
            assert not core_ok or mixed_exists, (path, labels)


def test_criterion_04_self_loop_truncation():
    with Budget("criterion 4: unbounded disabler family truncated per bound", 1.0):
        ctx = fixture_context("t5")
        for k in range(1, 6):
            cause_set = causes(ctx, k)
            assert cause_set.exactness is Exactness.BOUNDED_APPROX
            assert len(cause_set.causes) == 1
            cause = cause_set.causes[0]
            assert cause.computation.labels == ("a",)
            assert cause.kill_traces == frozenset(
                ("a",) + ("i",) * j + ("h",) for j in range(k)
            )
        assert len(causes(ctx, 4).causes[0].kill_traces) == 4


def test_criterion_05_two_step_core_without_one_step_cause():
    with Budget("criterion 5: two-step core accepted, its prefix rejected", 1.0):
        cause_set = causes(fixture_context("t6"), 3)
        label_words = ["".join(c.computation.labels) for c in cause_set.causes]
        assert "ab" in label_words
        assert "a" not in label_words


def test_criterion_06_immediate_effect_policy():
    with Budget("criterion 6: immediate effect resolved by policy", 1.0):
        ctx = fixture_context("t2")
        assert is_immediate_effect(ctx)
        cause_set = causes(ctx, 3)
        assert cause_set.immediate
        assert all(c.computation.is_trivial for c in cause_set.causes)


def test_criterion_07_trace_expansion_worked_example():
    with Budget("criterion 7: three-position trace expansion", None):
        pairs = (
            ("a", (w("p"), w("q"), w("r"))),
            ("b", ((), (), ())),
            ("c", ((), w("u"), ())),
        )
        assert traces(pairs) == words("apbc", "aqbcu", "arbc")


def test_criterion_08_disjunction_law_with_witness():
    with Budget("criterion 8: disjunction law with explicit witness", 2.0):
        report = verify_disjunction_theorem(
            fixture_context("fig3_t"), fixture_context("fig3_tp"), 4
        )
        assert report.verdict == "holds"
        assert report.witness == {
            "(s0,p0)": "+",
            "(s0,p1)": "R:p1",
            "(s0,p2)": "R:p2",
            "(s1,p0)": "L:s1",
        }


def test_criterion_09_conjunction_law_literal_equality():
    with Budget("criterion 9: conjunction law by literal equality", 2.0):
        left = fixture_context("fig3_t")
        right = fixture_context("fig3_tp")
        report = verify_conjunction_theorem(left, right, 4)
        assert report.verdict == "holds"
        lhs = causal_projection(
            EffectContext(
                interleave(left.lts, right.lts),
                And(left.formula, right.formula),
            ),
            4,
        )
        rhs = interleave(
            causal_projection(left, 4), causal_projection(right, 4)
        )
        assert lhs.states == rhs.states
        assert lhs.transitions == rhs.transitions


def test_criterion_10_random_corpus_laws_and_oracle():
    with Budget("criterion 10: 200-instance corpus, both laws and oracle", 600.0):
        failures = []
        for inst in corpus(200, seed=7):
            disj, conj = verify_both(inst.left, inst.right, inst.bound)
            lift = cross_check_disjunction_lifting(
                inst.left, inst.right, inst.bound
            )
            single = cross_check_single_component(
                inst.left, inst.right, inst.bound
            )
            for theorem, report in (("disjunction", disj), ("conjunction", conj)):
                if report.verdict != "holds":
                    verify = (
                        verify_disjunction_theorem
                        if theorem == "disjunction"
                        else verify_conjunction_theorem
                    )
                    small = shrink_counterexample(
                        inst.left, inst.right, inst.bound, verify
                    )
                    bundle = BUNDLE_ROOT / f"{theorem}-{inst.index}"
                    write_counterexample_bundle(
                        str(bundle),
                        small[0],
                        small[1],
                        verify(small[0], small[1], inst.bound),
                    )
                    failures.append(f"{theorem} fails on #{inst.index}: {bundle}")
            if not lift.ok:
                failures.append(f"lifting violated on #{inst.index}: {lift.detail}")
            if not single.ok:
                failures.append(
                    f"single-component violated on #{inst.index}: {single.detail}"
                )

            composite = interleave(inst.left.lts, inst.right.lts)
            contexts = (
                inst.left,
                inst.right,
                EffectContext(
                    composite, Or(inst.left.formula, inst.right.formula)
                ),
                EffectContext(
                    composite, And(inst.left.formula, inst.right.formula)
                ),
            )
            for ctx in contexts:
                for cause in causes(ctx, inst.bound).causes:
                    if not oracle_check_cause(
                        ctx, cause.computation, inst.bound
                    ):
                        failures.append(
                            f"oracle rejects emitted cause on #{inst.index}: "
                            f"{cause.computation}"
                        )
        assert not failures, "\n".join(failures)


def test_criterion_11_modal_logic_invariants():
    with Budget("criterion 11: modal invariants on 500 samples", 30.0):
        systems = [
            gen_lts(GenParams(seed=s, namespace="L")) for s in range(50)
        ]
        for i in range(500):
            rng = random.Random(i)
            lts = systems[i % len(systems)]
            state = rng.choice(sorted(lts.states))
            labels = sorted(lts.alphabet)
            f = rand_formula(rng, labels, 3)
            g = rand_formula(rng, labels, 2)
            label = rng.choice(labels)

            assert satisfies(lts, state, Box(label, f)) == (
                not satisfies(lts, state, Diamond(label, Not(f)))
            )
            vf = satisfies(lts, state, f)
            vg = satisfies(lts, state, g)
            assert satisfies(lts, state, And(f, g)) == (vf and vg)
            assert satisfies(lts, state, Or(f, g)) == (vf or vg)
            assert satisfies(lts, state, Not(f)) == (not vf)
            if label not in init_actions(lts, state):
                assert satisfies(lts, state, Box(label, f))
