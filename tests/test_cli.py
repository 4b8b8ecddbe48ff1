"""Command-line front end: output shapes and exit codes."""

from __future__ import annotations

import ast
import inspect
import json
import subprocess
import sys

import pytest

from helpers import FIXTURE_DIR, ROOT, child_env
from hmlcause import parse_aut
from hmlcause import causality, cli
from hmlcause.cli import main
from hmlcause.hml import MAX_FORMULA_DEPTH

T1 = str(FIXTURE_DIR / "t1.aut")
T2 = str(FIXTURE_DIR / "t2.aut")
T3 = str(FIXTURE_DIR / "t3.aut")
T4 = str(FIXTURE_DIR / "t4.aut")
F3L = str(FIXTURE_DIR / "fig3_t.aut")
F3R = str(FIXTURE_DIR / "fig3_tp.aut")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- check


def test_check_satisfied(capsys):
    code, out, _err = run(capsys, "check", T1, "<a><h>tt")
    assert code == 0
    assert out == "initial state 0 satisfies the formula\n"


def test_check_not_satisfied(capsys):
    code, out, _err = run(capsys, "check", T1, "<h>tt")
    assert code == 1
    assert out == "initial state 0 does not satisfy the formula\n"


def test_check_json(capsys):
    code, out, _err = run(capsys, "check", T1, "<h>tt", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "state": "0",
        "formula": "<h>tt",
        "satisfies": False,
    }


def test_check_missing_file(capsys):
    code, _out, err = run(capsys, "check", "missing.aut", "tt")
    assert code == 2
    assert err.startswith("error:")


def test_check_formula_parse_error(capsys):
    code, _out, err = run(capsys, "check", T1, "&tt")
    assert code == 2
    assert "unexpected '&'" in err


@pytest.mark.parametrize(
    "formula", ["!" * 5000 + "tt", "tt&" * 3000 + "tt"], ids=["parser", "parsed"]
)
def test_too_deep_formula_is_bad_input(capsys, formula):
    code, out, err = run(capsys, "check", T1, formula)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_formula_at_depth_limit_still_evaluates(capsys):
    # MAX_FORMULA_DEPTH nodes: the negations, the diamond and tt
    formula = "!" * (MAX_FORMULA_DEPTH - 2) + "<h>tt"
    code, out, _err = run(capsys, "check", T1, formula)
    assert code == 1
    code, out, _err = run(capsys, "causes", T1, formula, "--bound", "3")
    assert code == 0
    assert out.endswith("cause 1: core: a | kills: ah\n")
    code, _out, err = run(capsys, "check", T1, "!" + formula)
    assert code == 2
    assert err.startswith("error:")


def test_check_formula_from_file(capsys):
    code, out, _err = run(capsys, "check", T1, str(FIXTURE_DIR / "t1.formula"))
    assert code == 1
    assert "does not satisfy" in out


# ---------------------------------------------------------------- causes


def test_causes_human_output(capsys):
    code, out, _err = run(capsys, "causes", T4, "<h>tt", "--bound", "3")
    assert code == 0
    assert out == (
        "effect: <h>tt\n"
        "bound: 3 (exact)\n"
        "cause 1: core: a | kills: ah, abb, abh\n"
    )


def test_causes_empty_set(capsys):
    code, out, _err = run(capsys, "causes", T3, "<h>tt", "--bound", "3")
    assert code == 1
    assert out.endswith("no causes\n")


def test_causes_immediate_note(capsys):
    code, out, _err = run(capsys, "causes", T2, "<h>tt", "--bound", "3")
    assert code == 1
    assert out == (
        "effect: <h>tt\n"
        "bound: 3 (bounded)\n"
        "note: effect already holds at the initial state; "
        "immediate-effect policy applies\n"
        "no causes\n"
    )


def test_causes_default_bound_warns_on_cycles(capsys):
    code, _out, err = run(capsys, "causes", T2, "<h>tt")
    assert code == 1
    assert err.startswith(
        "note: system has cycles; using default bound 2, "
        "results are bounded rather than exact\n"
    )


@pytest.mark.parametrize("name", ["t2", "t5"])
def test_cycle_note_leaves_machine_output_parseable(capsys, name):
    lts = str(FIXTURE_DIR / f"{name}.aut")
    _code, out, err = run(capsys, "causes", lts, "<h>tt", "--format", "json")
    assert err.startswith("note: system has cycles")
    assert json.loads(out)["effect"] == "<h>tt"
    code, out, err = run(capsys, "project", lts, "<h>tt")
    assert code == 0
    assert err.startswith("note: system has cycles")
    parse_aut(out)


def test_causes_json_schema(capsys):
    code, out, _err = run(
        capsys, "causes", T4, "<h>tt", "--bound", "3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "effect": "<h>tt",
        "bound": 3,
        "exactness": "exact",
        "causes": [
            {
                "core": {"states": [0, 1], "labels": ["a"]},
                "kill_traces": [["a", "b", "b"], ["a", "b", "h"], ["a", "h"]],
                "dlists": [[["b", "b"], ["b", "h"], ["h"]]],
            }
        ],
    }


def test_causes_rejects_negative_bound(capsys):
    code, _out, err = run(capsys, "causes", T4, "<h>tt", "--bound", "-1")
    assert code == 2
    assert "bound" in err


# ---------------------------------------------------------------- project


def test_project_linear(capsys):
    code, out, _err = run(capsys, "project", T1, "<h>tt", "--format", "aut")
    assert code == 0
    assert out == 'des (0,1,2)\n(0,"a",1)\n#alphabet: h\n'


def test_project_empty(capsys):
    code, out, _err = run(capsys, "project", T3, "<h>tt", "--format", "aut")
    assert code == 0
    assert out == "des (0,0,1)\n#alphabet: a h\n"


def test_project_two_step(capsys):
    code, out, _err = run(capsys, "project", F3R, "<h'>tt", "--format", "aut")
    assert code == 0
    assert out == 'des (0,2,3)\n(0,"d",1)\n(1,"e",2)\n#alphabet: f h\'\n'


def test_project_dot(capsys):
    code, out, _err = run(capsys, "project", T1, "<h>tt", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_project_round_trips_through_parser(capsys):
    from hmlcause import parse_aut

    _code, out, _err = run(capsys, "project", F3R, "<h'>tt", "--format", "aut")
    lts = parse_aut(out)
    assert len(lts.transitions) == 2
    assert lts.alphabet == frozenset({"d", "e", "f", "h'"})


# ---------------------------------------------------------------- compose/dot


def test_compose_interleave(capsys):
    code, out, _err = run(capsys, "compose", "interleave", T1, F3R)
    assert code == 0
    assert out.startswith("des (0,22,15)\n")


def test_compose_choice(capsys):
    code, out, _err = run(capsys, "compose", "choice", T1, F3R)
    assert code == 0
    assert out.startswith("des (0,6,7)\n")


def test_compose_rejects_unknown_operator(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compose", "badop", T1, T3])
    assert exc.value.code == 2


def test_dot_command(capsys):
    code, out, _err = run(capsys, "dot", T1)
    assert code == 0
    assert out.startswith("digraph")
    assert "doublecircle" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["dot", "{bad}"],
        ["compose", "interleave", T1, "{bad}"],
        ["causes", "{bad}", "<h>tt"],
    ],
    ids=["dot", "compose", "causes"],
)
def test_malformed_aut_is_bad_input(capsys, tmp_path, argv):
    bad = tmp_path / "bad.aut"
    bad.write_text('des (0,2,2)\n(0,"a",1)\n', encoding="utf-8")
    code, out, err = run(capsys, *(arg.format(bad=bad) for arg in argv))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


# ---------------------------------------------------------------- verify


def test_verify_disjunction_human(capsys):
    code, out, _err = run(
        capsys,
        "verify", F3L, F3R, "<h>tt", "<h'>tt",
        "--theorem", "disjunction", "--bound", "4",
    )
    assert code == 0
    assert out == (
        "disjunction: holds-at-bound (bound 4)\n"
        "witness:\n"
        "  (0,0) -> +\n"
        "  (0,1) -> R:1\n"
        "  (0,3) -> R:3\n"
        "  (1,0) -> L:1\n"
    )


def test_verify_exact_bound_drops_qualifier(capsys):
    code, out, _err = run(
        capsys,
        "verify", F3L, F3R, "<h>tt", "<h'>tt",
        "--theorem", "disjunction", "--bound", "5",
    )
    assert code == 0
    assert out.startswith("disjunction: holds (bound 5)\n")


def test_verify_conjunction_human(capsys):
    code, out, _err = run(
        capsys,
        "verify", F3L, F3R, "<h>tt", "<h'>tt",
        "--theorem", "conjunction", "--bound", "4",
    )
    assert code == 0
    assert out == "conjunction: holds-at-bound (bound 4)\n"


def test_verify_json(capsys):
    code, out, _err = run(
        capsys,
        "verify", F3L, F3R, "<h>tt", "<h'>tt",
        "--theorem", "disjunction", "--bound", "5", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "theorem": "disjunction",
        "verdict": "holds",
        "witness": {
            "(0,0)": "+",
            "(0,1)": "R:1",
            "(0,3)": "R:3",
            "(1,0)": "L:1",
        },
        "counterexample": None,
        "bound": 5,
    }


def test_verify_lemmas_human(capsys):
    code, out, _err = run(
        capsys,
        "verify", F3L, F3R, "<h>tt", "<h'>tt",
        "--theorem", "lemmas", "--bound", "4",
    )
    assert code == 0
    assert out == (
        "lifting: ok - composite causes are exactly the lifts\n"
        "single-component: ok - all cores single-component\n"
    )


def test_verify_lemmas_json(capsys):
    code, out, _err = run(
        capsys,
        "verify", F3L, F3R, "<h>tt", "<h'>tt",
        "--theorem", "lemmas", "--bound", "4", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "lifting": {
            "ok": True,
            "detail": "composite causes are exactly the lifts",
        },
        "single_component": {
            "ok": True,
            "detail": "all cores single-component",
        },
        "bound": 4,
    }


def test_verify_precondition_violation(capsys):
    code, out, _err = run(
        capsys,
        "verify", T2, F3R, "<h>tt", "<h'>tt", "--theorem", "disjunction",
    )
    assert code == 1
    assert out == (
        "disjunction: precondition (bound 10)\n"
        "  violated: left effect already holds at the initial state\n"
    )


def test_verify_random_disjunction(capsys):
    code, out, _err = run(
        capsys,
        "verify", "--random", "--seed", "7", "--count", "15",
        "--theorem", "disjunction",
    )
    assert code == 0
    assert out == "15/15 hold (disjunction)\n"


def test_verify_random_lemmas(capsys):
    code, out, _err = run(
        capsys,
        "verify", "--random", "--seed", "7", "--count", "10",
        "--theorem", "lemmas",
    )
    assert code == 0
    assert out == "10/10 hold (lemmas)\n"


def test_verify_random_requires_seed_and_count(capsys):
    code, _out, err = run(capsys, "verify", "--random", "--theorem", "disjunction")
    assert code == 2
    assert "requires --seed and --count" in err


RANDOM = ("verify", "--theorem", "conjunction", "--random", "--seed", "7", "--count", "3")
PAIR = ("verify", "--theorem", "disjunction", F3L, F3R, "<h>tt", "<h'>tt")


@pytest.mark.parametrize(
    "argv",
    [
        RANDOM + ("--bound", "1"),
        RANDOM + ("--format", "json"),
        RANDOM + (F3L, F3R, "<h>tt", "<h'>tt"),
        PAIR + ("--seed", "7"),
        PAIR + ("--count", "3"),
        ("verify", "--theorem", "lemmas", "--random", "--seed", "1", "--count", "-3"),
        ("verify", "--theorem", "lemmas", "--random", "--seed", "1", "--count", "0"),
    ],
    ids=[
        "random-bound",
        "random-json",
        "random-positionals",
        "seed",
        "count",
        "negative-count",
        "zero-count",
    ],
)
def test_verify_rejects_flags_its_mode_does_not_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_verify_partial_positionals(capsys):
    code, _out, err = run(capsys, "verify", T1, "--theorem", "disjunction")
    assert code == 2
    assert "verify needs LEFT RIGHT LEFT-FORMULA RIGHT-FORMULA" in err


def test_verify_requires_theorem_flag():
    with pytest.raises(SystemExit) as exc:
        main(["verify", F3L, F3R, "<h>tt", "<h'>tt"])
    assert exc.value.code == 2


def test_running_out_of_memory_ends_in_one_error_line(monkeypatch, capsys):
    # MemoryError is the first clause matched: matching a tuple of classes
    # builds a tuple, which can fail again while the traceback still holds
    # the analysis, and that second MemoryError would escape with exit 1
    source = ast.parse(inspect.getsource(cli.main))
    (handled,) = [node for node in ast.walk(source) if isinstance(node, ast.Try)]
    assert ast.unparse(handled.handlers[0].type) == "MemoryError"

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_dot", exhausted)
    code, out, err = run(capsys, "dot", T1)
    assert (code, out, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_running_out_of_memory_while_spelling_kill_words_prints_nothing(
    fmt, monkeypatch, capsys
):
    # kill words are spelled only once output is written, so every line is
    # built before the first is printed
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(causality, "_spell", exhausted)
    code, out, err = run(capsys, "causes", T4, "<h>tt", "--format", fmt)
    assert (code, out, err) == (2, "", "error: out of memory\n")


# ---------------------------------------------------------------- misc


def test_cli_is_deterministic(capsys):
    first = run(capsys, "causes", T4, "<h>tt", "--bound", "3")
    second = run(capsys, "causes", T4, "<h>tt", "--bound", "3")
    assert first == second


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hmlcause", "check", T1, "<a><h>tt"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env=child_env(),
    )
    assert result.returncode == 0
    assert "satisfies" in result.stdout


LOADED_BY = """
import contextlib, io, sys
from hmlcause.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = list(sys.modules)
import json
print(json.dumps([code, loaded]))
"""


def loaded_modules(argv):
    """The modules, the package's and the standard library's, that one
    `main` call leaves loaded in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", LOADED_BY, *argv],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stdout)
    assert code in (0, 1), result.stderr
    return set(modules)


LTS_LAYER = {"hmlcause", "hmlcause.cli", "hmlcause.lts"}
# What only the report records and machine output need: a command that
# writes neither has no use for them.
RECORD_MODULES = {"dataclasses", "inspect", "json"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["dot", T1], LTS_LAYER),
        (["compose", "interleave", T1, F3R], LTS_LAYER),
        (["check", T1, "<a><h>tt"], LTS_LAYER | {"hmlcause.hml"}),
    ],
    ids=["dot", "compose", "check"],
)
def test_command_loads_only_its_layers(argv, modules):
    loaded = loaded_modules(argv)
    assert {m for m in loaded if m.split(".")[0] == "hmlcause"} == modules
    assert not loaded & RECORD_MODULES


@pytest.mark.parametrize(
    "argv, unused",
    [
        (
            ["causes", T4, "<h>tt"],
            {"hmlcause.composition", "hmlcause.oracle", "hmlcause.testkit"},
        ),
        (
            ["project", T4, "<h>tt"],
            {"hmlcause.composition", "hmlcause.oracle", "hmlcause.testkit"},
        ),
        (
            ["verify", F3L, F3R, "<h>tt", "<h'>tt", "--theorem", "disjunction"],
            {"hmlcause.oracle", "hmlcause.testkit"},
        ),
    ],
    ids=["causes", "project", "verify"],
)
def test_command_skips_layers_it_does_not_run(argv, unused):
    assert not loaded_modules(argv) & unused
