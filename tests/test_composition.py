"""Compositional laws for interleaved systems with disjoint alphabets."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from helpers import ROOT, cyclic_pair, verify_both, w
from hmlcause import (
    And,
    EffectContext,
    Or,
    causal_projection,
    causes,
    check_preconditions,
    choice,
    cross_check_disjunction_lifting,
    cross_check_single_component,
    emit_aut,
    format_state,
    interleave,
    make_lts,
    parse_aut,
    parse_formula,
    shrink_counterexample,
    states_satisfying,
    verify_conjunction_theorem,
    verify_disjunction_theorem,
    write_counterexample_bundle,
)
from hmlcause import causality, composition
from hmlcause.cli import main
from hmlcause.testkit import corpus, fixture_context

FIG3_L = fixture_context("fig3_t")
FIG3_R = fixture_context("fig3_tp")


def nondet_pair():
    """Deterministic left chain against a right component whose first action
    is ambiguous; the ambiguity lets mixed-alphabet cores sneak into the
    product, so the disjunction law genuinely fails here."""
    left = EffectContext(
        make_lts("s0", [("s0", "a", "s1"), ("s1", "h", "s2")]),
        parse_formula("<h>tt"),
    )
    right = EffectContext(
        make_lts(
            "p0",
            [("p0", "d", "p1"), ("p0", "d", "p2"), ("p1", "h'", "p3")],
        ),
        parse_formula("<h'>tt"),
    )
    return left, right


# ---------------------------------------------------------------- hypotheses


def test_preconditions_hold_on_disjoint_pair():
    report = check_preconditions(
        FIG3_L.lts, FIG3_R.lts, FIG3_L.formula, FIG3_R.formula
    )
    assert report.ok and report.issues == ()


def test_preconditions_reject_shared_alphabet():
    report = check_preconditions(
        FIG3_L.lts, FIG3_L.lts, FIG3_L.formula, FIG3_L.formula
    )
    assert not report.ok
    assert any("share labels" in issue for issue in report.issues)


def test_preconditions_reject_immediate_effect():
    t2 = fixture_context("t2")
    report = check_preconditions(
        t2.lts, FIG3_R.lts, t2.formula, FIG3_R.formula
    )
    assert report.issues == (
        "left effect already holds at the initial state",
    )


def test_preconditions_reject_stray_formula_labels():
    report = check_preconditions(
        FIG3_L.lts, FIG3_R.lts, parse_formula("<d>tt"), FIG3_R.formula
    )
    assert report.issues == (
        "left effect uses labels outside its component: d",
    )


def test_precondition_violation_never_crashes_verification():
    t2 = fixture_context("t2")
    for verify in (verify_disjunction_theorem, verify_conjunction_theorem):
        report = verify(t2, FIG3_R)
        assert report.verdict == "precondition"
        assert report.witness is None
        assert report.counterexample["preconditions"] == [
            "left effect already holds at the initial state"
        ]


# ---------------------------------------------------------------- disjunction


def test_disjunction_on_branching_fixture():
    report = verify_disjunction_theorem(FIG3_L, FIG3_R, 4)
    assert report.verdict == "holds"
    assert report.bound == 4
    assert report.witness == {
        "(s0,p0)": "+",
        "(s0,p1)": "R:p1",
        "(s0,p2)": "R:p2",
        "(s1,p0)": "L:s1",
    }


def test_disjunction_witness_is_checkable():
    """The reported mapping really is an isomorphism between the two sides."""
    report = verify_disjunction_theorem(FIG3_L, FIG3_R, 4)
    composite = EffectContext(
        interleave(FIG3_L.lts, FIG3_R.lts),
        Or(FIG3_L.formula, FIG3_R.formula),
    )
    lhs = causal_projection(composite, 4)
    rhs = choice(
        causal_projection(FIG3_L, 4), causal_projection(FIG3_R, 4)
    )
    rename = {
        f"({s[0]},{s[1]})": s for s in lhs.states
    }
    mapping = {rename[key]: value for key, value in report.witness.items()}
    assert len(mapping) == len(lhs.states) == len(rhs.states)
    assert {
        (mapping[s], a, mapping[t]) for (s, a, t) in lhs.transitions
    } == set(rhs.transitions)


def test_disjunction_holds_at_exact_bound_too():
    report = verify_disjunction_theorem(FIG3_L, FIG3_R, 5)
    assert report.verdict == "holds"


def test_disjunction_with_both_cause_sets_empty():
    left = EffectContext(
        make_lts("q0", [("q0", "La", "q1")], extra_labels=["Lb"]),
        parse_formula("<Lb>tt"),
    )
    right = EffectContext(
        make_lts("p0", [("p0", "Ra", "p1")], extra_labels=["Rc"]),
        parse_formula("<Rc>tt"),
    )
    assert causes(left).causes == () and causes(right).causes == ()
    report = verify_disjunction_theorem(left, right)
    assert report.verdict == "holds"
    assert report.witness == {"(q0,p0)": "+"}


# ---------------------------------------------------------------- conjunction


def test_conjunction_on_branching_fixture():
    report = verify_conjunction_theorem(FIG3_L, FIG3_R, 4)
    assert report.verdict == "holds"
    assert report.witness is None  # literal equality needs no mapping
    assert report.counterexample is None


def test_conjunction_sides_are_the_cause_interleavings():
    composite = EffectContext(
        interleave(FIG3_L.lts, FIG3_R.lts),
        And(FIG3_L.formula, FIG3_R.formula),
    )
    cores = sorted(
        "".join(c.computation.labels) for c in causes(composite, 4).causes
    )
    assert cores == ["ade", "dae", "dea"]


def test_conjunction_with_one_empty_side():
    left = EffectContext(
        make_lts("q0", [("q0", "La", "q1")], extra_labels=["Lb"]),
        parse_formula("<Lb>tt"),
    )
    right = EffectContext(
        make_lts("p0", [("p0", "Ra", "p1"), ("p1", "Rb", "p2")]),
        parse_formula("<Rb>tt"),
    )
    assert causes(left).causes == ()
    assert [c.computation.labels for c in causes(right).causes] == [("Ra",)]
    assert verify_conjunction_theorem(left, right).verdict == "holds"
    assert verify_disjunction_theorem(left, right).verdict == "holds"


def test_conjunction_law_counts_kill_words_without_spelling_them(monkeypatch):
    def refuse(*args):
        raise AssertionError("a kill set was spelled")

    monkeypatch.setattr(causality, "_spell", refuse)
    left, right = cyclic_pair()
    assert verify_conjunction_theorem(left, right, 4).verdict == "holds"
    both = EffectContext(
        interleave(left.lts, right.lts), And(left.formula, right.formula)
    )
    assert [len(r.kill_traces) for r in causes(both, 4).causes] == [
        15864, 11881364, 15277, 4796055, 4171823, 3467350
    ]


def _count_dag_work(monkeypatch) -> dict:
    """Count what the kernel does for the cause sets computed from here on:
    "nodes", the DAG nodes that enter its tables, each expanded by one read
    of the moves memo, and "dead ends", the children whose reached states
    have no move, each judged where it is found by one AND with the mask of
    the states that can move that comes out 0."""
    counts = {"nodes": 0, "dead ends": 0}

    class Memo(dict):
        def get(self, mask, default=None):
            counts["nodes"] += 1
            return super().get(mask, default)

    class Movable(int):
        def __rand__(self, other):
            found = int(self) & other
            counts["dead ends"] += not found
            return found

    init = causality._StateSets.__init__

    def counted(self, lts, sat):
        init(self, lts, sat)
        self._moves, self.movable = Memo(), Movable(self.movable)

    monkeypatch.setattr(causality._StateSets, "__init__", counted)
    return counts


def test_the_shape_dag_keeps_one_position_per_consumed_count(monkeypatch):
    # with every gap of a consumed count kept, the "both effects" cores at
    # bound 4 build 70,380 nodes, and with only the smallest one 18,704.
    # The count is exact, so a node expanded twice or skipped shows
    counts = _count_dag_work(monkeypatch)
    left, right = cyclic_pair()
    both = EffectContext(
        interleave(left.lts, right.lts), And(left.formula, right.formula)
    )
    found = causes(both, 4).causes
    assert counts == {"nodes": 18_704, "dead ends": 0}
    assert len(found) == 6
    assert sum(len(r.kill_traces) for r in found) == 24_347_733


def test_the_shape_dag_keeps_no_gap_at_an_exact_bound(monkeypatch):
    # the product of corpus instance 3 is acyclic and its bound 8 covers its
    # longest path, so no gap can pass the bound.  Exploring the whole DAG,
    # its "either effect" cores build 667 nodes with gap values in the node
    # key and 166 with one bit per consumed count.  Exploring only the live
    # part, they build 49 with gap values and 20 without
    counts = _count_dag_work(monkeypatch)
    inst = list(corpus(4, seed=7))[3]
    product = interleave(inst.left.lts, inst.right.lts)
    either = EffectContext(product, Or(inst.left.formula, inst.right.formula))
    assert causality.exploration_is_exact(product, inst.bound)
    found = causes(either, inst.bound).causes
    assert counts == {"nodes": 20, "dead ends": 0}
    assert len(found) == 4
    assert sum(len(r.kill_traces) for r in found) == 25


def test_the_loop_fixture_keeps_its_dead_ends_out_of_the_tables(monkeypatch):
    # t5 is s0 -a-> s1 with an i-loop on s1 and s1 -h-> s2.  At k=1200 the
    # core a has 1,203 nodes (the root, then a i^j for j <= k+1) and 1,201
    # dead ends (a i^j h for j <= k, the last one only at k+1), which used
    # to enter the tables too, 2,404 nodes in all
    counts = _count_dag_work(monkeypatch)
    ctx = fixture_context("t5")
    (report,) = causes(ctx, 1200).causes
    assert counts == {"nodes": 1_203, "dead ends": 1_201}
    assert report.computation.labels == ("a",) and report.computation.truncated
    assert len(report.kill_traces) == 1200
    assert report.kill_traces == {("a",) + ("i",) * j + ("h",) for j in range(1200)}


def test_the_loop_fixture_judges_its_dead_ends_in_less_memory():
    # the tracemalloc peak of one kernel call on t5 at k=1200, each call on
    # a fresh state space as `causes` makes one, the least of three calls
    # (the first calls in a process peak higher).  While the 1,201 dead
    # ends entered the tables it was 659,608 bytes on Python 3.11
    ctx = fixture_context("t5")
    sat = states_satisfying(ctx.lts, ctx.formula)
    peaks = []
    for _ in range(3):
        space = causality._StateSets(ctx.lts, sat)
        tracemalloc.start()
        try:
            kill, _, truncated = causality._evaluate_core(space, ("a",), 1200)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(kill) == 1200 and truncated
    assert min(peaks) < 0.6 * 659_608


def test_cli_verifies_the_conjunction_law_on_the_cyclic_pair(tmp_path, capsys):
    argv = ["verify", "--theorem", "conjunction"]
    for name, ctx in zip(("left", "right"), cyclic_pair()):
        path = tmp_path / f"{name}.aut"
        path.write_text(emit_aut(ctx.lts))
        argv.append(str(path))
    argv += ["<Lc>([La]!tt & <Lb>tt)", "<Ra>[Rc](!tt & tt)", "--bound", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "conjunction: holds-at-bound (bound 4)\n"


def test_lemmas_spell_no_kill_word(monkeypatch):
    def refuse(*args):
        raise AssertionError("a kill set was spelled")

    monkeypatch.setattr(causality, "_spell", refuse)
    left, right = cyclic_pair()
    lifting = cross_check_disjunction_lifting(left, right, 5)
    assert (lifting.ok, lifting.detail) == (
        True,
        "composite causes are exactly the lifts",
    )
    single = cross_check_single_component(left, right, 5)
    assert (single.ok, single.detail) == (True, "all cores single-component")


def test_lifting_check_names_a_state_whose_effect_does_not_split(monkeypatch):
    composite = interleave(FIG3_L.lts, FIG3_R.lts)
    either = Or(FIG3_L.formula, FIG3_R.formula)
    real = composition.states_satisfying
    dropped = min(real(composite, either), key=format_state)

    def drop_one(lts, formula):
        sat = real(lts, formula)
        return sat - {dropped} if lts == composite else sat

    monkeypatch.setattr(composition, "states_satisfying", drop_one)
    report = cross_check_disjunction_lifting(FIG3_L, FIG3_R, 4)
    assert (report.ok, report.detail) == (
        False,
        f"the effect at {format_state(dropped)} is not decided by its "
        "components' effects",
    )


def _run_in_300_mb(argv):
    """Run argv in a child whose address space is capped at 300 MB."""
    import resource

    def cap_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (300 * 2**20, hard))

    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        argv,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        preexec_fn=cap_address_space,
    )


linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="RLIMIT_AS is honoured on Linux"
)


@linux_only
@pytest.mark.parametrize(
    "theorem, bound, expected",
    [
        (
            "lemmas",
            5,
            "lifting: ok - composite causes are exactly the lifts\n"
            "single-component: ok - all cores single-component\n",
        ),
        ("conjunction", 6, "conjunction: holds-at-bound (bound 6)\n"),
    ],
    ids=["lemmas-5", "conjunction-6"],
)
def test_cli_checks_the_cyclic_pair_in_bounded_memory(
    tmp_path, theorem, bound, expected
):
    argv = [sys.executable, "-m", "hmlcause", "verify", "--theorem", theorem]
    for name, ctx in zip(("left", "right"), cyclic_pair()):
        path = tmp_path / f"{name}.aut"
        path.write_text(emit_aut(ctx.lts))
        argv.append(str(path))
    argv += ["<Lc>([La]!tt & <Lb>tt)", "<Ra>[Rc](!tt & tt)", "--bound", str(bound)]
    done = _run_in_300_mb(argv)
    assert (done.returncode, done.stdout) == (0, expected), done.stderr


_T5_AT_30000 = """
import sys
from pathlib import Path
from hmlcause import EffectContext, causality, causes, parse_aut, parse_formula

def refuse(*args):
    raise AssertionError("a kill set was spelled")

causality._spell = refuse
ctx = EffectContext(parse_aut(Path(sys.argv[1]).read_text()), parse_formula("<h>tt"))
for report in causes(ctx, 30000).causes:
    comp = report.computation
    print("".join(comp.labels), comp.truncated, len(report.kill_traces))
"""


@linux_only
def test_causes_of_the_loop_fixture_at_a_large_bound_fit_in_bounded_memory():
    # t5 is s0 -a-> s1 with an i-loop on s1 and s1 -h-> s2: the one cause a
    # has the kill words a i^j h for j < k, and its DAG about k nodes, each
    # keyed by an int whose size grows with log k only, and about k dead
    # ends, judged where they are found
    argv = [sys.executable, "-c", _T5_AT_30000, str(ROOT / "fixtures" / "t5.aut")]
    done = _run_in_300_mb(argv)
    assert (done.returncode, done.stdout) == (0, "a True 30000\n"), done.stderr


@linux_only
def test_a_bound_too_large_to_finish_ends_in_one_error_line():
    # t5's DAG at this bound keeps about k nodes, so memory runs out first
    t5 = str(ROOT / "fixtures" / "t5.aut")
    argv = [sys.executable, "-m", "hmlcause", "causes", t5, "<h>tt"]
    argv += ["--bound", "99999999999999999999"]
    done = _run_in_300_mb(argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: out of memory\n"


def test_verify_both_returns_paired_reports():
    disj, conj = verify_both(FIG3_L, FIG3_R, 4)
    assert disj.theorem == "disjunction" and conj.theorem == "conjunction"
    assert disj.verdict == conj.verdict == "holds"


# ---------------------------------------------------------------- report shape


def test_theorem_report_json_schema():
    obj = verify_disjunction_theorem(FIG3_L, FIG3_R, 4).to_json()
    assert set(obj) == {
        "theorem",
        "verdict",
        "witness",
        "counterexample",
        "bound",
    }
    assert obj["theorem"] == "disjunction"
    assert obj["verdict"] == "holds"
    assert obj["counterexample"] is None
    assert obj["bound"] == 4


def test_default_bound_is_composite_state_count():
    report = verify_disjunction_theorem(FIG3_L, FIG3_R)
    assert report.bound == len(interleave(FIG3_L.lts, FIG3_R.lts).states)


# ---------------------------------------------------------------- cross-checks


def test_lifting_cross_check_on_fixture():
    report = cross_check_disjunction_lifting(FIG3_L, FIG3_R, 4)
    assert report.ok, report.detail


def test_single_component_cross_check_on_fixture():
    report = cross_check_single_component(FIG3_L, FIG3_R, 4)
    assert report.ok, report.detail


def test_composite_cores_stay_in_one_alphabet():
    composite = EffectContext(
        interleave(FIG3_L.lts, FIG3_R.lts),
        Or(FIG3_L.formula, FIG3_R.formula),
    )
    for report in causes(composite, 4).causes:
        labels = set(report.computation.labels)
        assert labels <= FIG3_L.lts.alphabet or labels <= FIG3_R.lts.alphabet


# ------------------------------------------------- nondeterministic boundary


def test_ambiguous_first_action_breaks_disjunction_law():
    left, right = nondet_pair()
    pre = check_preconditions(left.lts, right.lts, left.formula, right.formula)
    assert pre.ok  # every stated hypothesis holds; determinism is extra
    report = verify_disjunction_theorem(left, right)
    assert report.verdict == "fails"
    assert (
        report.counterexample["reason"]
        == "projections differ under the branch renaming"
    )


def test_ambiguous_pair_grows_mixed_alphabet_cores():
    left, right = nondet_pair()
    composite = EffectContext(
        interleave(left.lts, right.lts), Or(left.formula, right.formula)
    )
    cores = sorted(
        "".join(c.computation.labels) for c in causes(composite).causes
    )
    assert cores == ["adh'", "dah'", "dh'a"]
    single = cross_check_single_component(left, right)
    assert not single.ok and "moves both components" in single.detail
    lifting = cross_check_disjunction_lifting(left, right)
    assert not lifting.ok


def test_ambiguous_pair_still_satisfies_conjunction_law():
    left, right = nondet_pair()
    assert verify_conjunction_theorem(left, right).verdict == "holds"


def test_shrink_preserves_failure_and_bundle_is_complete(tmp_path):
    left, right = nondet_pair()
    small_left, small_right = shrink_counterexample(
        left, right, 12, verify_disjunction_theorem
    )
    assert len(small_left.lts.transitions) <= len(left.lts.transitions)
    assert len(small_right.lts.transitions) <= len(right.lts.transitions)
    report = verify_disjunction_theorem(small_left, small_right, 12)
    assert report.verdict == "fails"

    bundle = tmp_path / "bundle"
    write_counterexample_bundle(str(bundle), small_left, small_right, report)
    assert sorted(os.listdir(bundle)) == [
        "left.aut",
        "left.formula",
        "manifest.json",
        "right.aut",
        "right.formula",
    ]
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["verdict"] == "fails"
    assert manifest["bound"] == 12
    assert (bundle / "left.formula").read_text().strip() == "<h>tt"


# ---------------------------------------------------------------- corpus slice


@pytest.mark.parametrize("instance", list(corpus(8, seed=3)), ids=lambda i: i.index)
def test_laws_hold_on_generated_pairs(instance):
    disj, conj = verify_both(instance.left, instance.right, instance.bound)
    assert disj.verdict == "holds", disj.counterexample
    assert conj.verdict == "holds", conj.counterexample
    k = instance.bound
    assert cross_check_disjunction_lifting(
        instance.left, instance.right, k
    ).ok
    assert cross_check_single_component(instance.left, instance.right, k).ok


def test_projected_kill_traces_disable_component_effect():
    """Every kill trace of a lifted cause projects onto the moving component
    as a word that disables that component's effect."""
    from reference import Classification, classify_word, project_word

    composite = EffectContext(
        interleave(FIG3_L.lts, FIG3_R.lts),
        Or(FIG3_L.formula, FIG3_R.formula),
    )
    for report in causes(composite, 4).causes:
        labels = set(report.computation.labels)
        side = FIG3_L if labels <= FIG3_L.lts.alphabet else FIG3_R
        for trace in report.kill_traces:
            projected = project_word(trace, side.lts.alphabet)
            assert (
                classify_word(side, projected)
                is Classification.ALL_VIOLATE
            )


# ------------------------------------------------- pinned reports and order


@pytest.mark.parametrize(
    "left_formula, right_formula, expected",
    [
        (
            "<x>tt",
            "<y>tt",
            (
                "alphabets share labels: a, e",
                "left effect uses labels outside its component: x",
                "right effect uses labels outside its component: y",
            ),
        ),
        (
            "tt",
            "tt",
            (
                "alphabets share labels: a, e",
                "left effect already holds at the initial state",
                "right effect already holds at the initial state",
            ),
        ),
        (
            "<x>tt",
            "tt",
            (
                "alphabets share labels: a, e",
                "left effect uses labels outside its component: x",
                "right effect already holds at the initial state",
            ),
        ),
    ],
)
def test_precondition_issues_come_in_a_fixed_order(
    left_formula, right_formula, expected
):
    # a side with stray labels skips its immediate-effect check, so at most
    # three issues fire at once; these cases fix the order of all five
    left = make_lts("s0", [("s0", "a", "s1"), ("s1", "e", "s2")])
    right = make_lts("p0", [("p0", "e", "p1"), ("p1", "a", "p2")])
    report = check_preconditions(
        left, right, parse_formula(left_formula), parse_formula(right_formula)
    )
    assert not report.ok
    assert report.issues == expected


def test_failing_disjunction_report_on_ambiguous_pair():
    left, right = nondet_pair()
    assert verify_disjunction_theorem(left, right).to_json() == {
        "theorem": "disjunction",
        "verdict": "fails",
        "witness": None,
        "counterexample": {
            "reason": "projections differ under the branch renaming",
            "left": {
                "aut": 'des (0,2,3)\n(0,"a",1)\n(1,"h",2)\n',
                "formula": "<h>tt",
            },
            "right": {
                "aut": 'des (0,3,4)\n(0,"d",1)\n(0,"d",2)\n(1,"h\'",3)\n',
                "formula": "<h'>tt",
            },
            "lhs": (
                'des (0,7,6)\n(0,"a",1)\n(0,"d",2)\n(1,"d",3)\n(2,"a",3)\n'
                '(2,"h\'",4)\n(3,"h\'",5)\n(4,"a",5)\n#alphabet: h\n'
            ),
            "rhs": 'des (0,1,2)\n(0,"a",1)\n#alphabet: d h h\'\n',
        },
        "bound": 12,
    }


def test_lemma_reports_on_ambiguous_pair():
    left, right = nondet_pair()
    lifting = cross_check_disjunction_lifting(left, right)
    assert (lifting.ok, lifting.detail) == (
        False,
        "lifting mismatch: 1 expected lifts missing, 3 unexpected causes",
    )
    single = cross_check_single_component(left, right)
    assert (single.ok, single.detail) == (
        False,
        "core ('a', 'd', \"h'\") moves both components",
    )


@pytest.mark.parametrize(
    "left_aut, left_formula, right_aut, right_formula, k, side, core",
    [
        (
            'des (0,4,4)\n(0,"Lb",1)\n(0,"Lc",2)\n(1,"Lb",2)\n(2,"Lc",3)\n'
            "#alphabet: La\n",
            "[Lc]<Lc><Lb>!tt",
            'des (0,2,2)\n(0,"Rb",0)\n(0,"Rb",1)\n#alphabet: Ra Rc\n',
            "[Rb]!tt & tt",
            3,
            "left",
            ("Lb", "Lb", "Lc"),
        ),
        (
            'des (0,4,3)\n(0,"Lb",1)\n(0,"Lb",2)\n(1,"Lb",2)\n(1,"Lc",2)\n'
            "#alphabet: La\n",
            "<La><La>!tt | <Lc>(tt | !tt)",
            'des (0,3,3)\n(0,"Rb",1)\n(1,"Ra",2)\n(1,"Rc",0)\n',
            "tt & [Rb]<Rb>!tt",
            2,
            "right",
            ("Rb", "Ra"),
        ),
    ],
    ids=["left", "right"],
)
def test_lemma_reports_on_a_core_that_is_no_component_cause(
    left_aut, left_formula, right_aut, right_formula, k, side, core
):
    left = EffectContext(parse_aut(left_aut), parse_formula(left_formula))
    right = EffectContext(parse_aut(right_aut), parse_formula(right_formula))
    lifting = cross_check_disjunction_lifting(left, right, k)
    assert (lifting.ok, lifting.detail) == (
        False,
        "lifting mismatch: 1 expected lifts missing, 1 unexpected causes",
    )
    single = cross_check_single_component(left, right, k)
    assert (single.ok, single.detail) == (
        False,
        f"core {core} projects to {core}, which is not a cause core of the "
        f"{side} component",
    )


_SHRINK_SCRIPT = """
from hmlcause import (
    EffectContext, emit_aut, make_lts, parse_formula, shrink_counterexample,
    verify_disjunction_theorem,
)
left = EffectContext(
    make_lts("q0", [("q0", "Lb", "q1"), ("q0", "Lc", "q2"), ("q0", "Lc", "q4"),
                    ("q1", "Lb", "q2"), ("q2", "Lb", "q3"), ("q2", "Lc", "q4")],
             extra_labels=["La"]),
    parse_formula("!<Lb>[La]!tt"),
)
right = EffectContext(
    make_lts("q0", [("q0", "Rb", "q1"), ("q0", "Rb", "q2"), ("q1", "Ra", "q3"),
                    ("q1", "Rb", "q2"), ("q2", "Ra", "q3"), ("q2", "Rc", "q3"),
                    ("q3", "Rb", "q4"), ("q3", "Rc", "q4")]),
    parse_formula("<Ra>tt"),
)
assert verify_disjunction_theorem(left, right, 7).verdict == "fails"
small = shrink_counterexample(left, right, 7, verify_disjunction_theorem)
print(emit_aut(small[0].lts) + emit_aut(small[1].lts))
"""


def test_shrinking_does_not_depend_on_the_hash_seed():
    # both sides have two transitions with the same label and source; which
    # one is dropped first must not follow frozenset order
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    results = set()
    for seed in range(1, 6):
        env = {
            **os.environ,
            "PYTHONHASHSEED": str(seed),
            "PYTHONPATH": os.pathsep.join(filter(None, paths)),
        }
        done = subprocess.run(
            [sys.executable, "-c", _SHRINK_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        results.add(done.stdout)
    assert len(results) == 1
