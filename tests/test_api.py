"""The package's public surface: what `hmlcause` exports and how a corpus is
drawn.  A name that only the tests need lives under `tests/`, so adding one
here shows up as a diff of this list.  The one module-level cache and the
import boundary between the engine and the oracle are checked here too."""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
from pathlib import Path

import pytest

from helpers import ROOT, fixture_context
import hmlcause
from hmlcause import testkit

PUBLIC = [
    "And",
    "AutParseError",
    "Box",
    "CHOICE_INITIAL",
    "CauseReport",
    "CauseSet",
    "Computation",
    "ConditionReport",
    "Core",
    "CorpusInstance",
    "CrossCheckReport",
    "Diamond",
    "EffectContext",
    "Exactness",
    "FF",
    "Formula",
    "FormulaParseError",
    "GenParams",
    "Lts",
    "Not",
    "Or",
    "PreconditionReport",
    "TT",
    "TheoremReport",
    "Top",
    "causal_projection",
    "cause_candidate",
    "causes",
    "check_preconditions",
    "choice",
    "computation_traces",
    "corpus",
    "cross_check_disjunction_lifting",
    "cross_check_single_component",
    "default_bound",
    "emit_aut",
    "emit_dot",
    "exploration_is_exact",
    "format_formula",
    "format_state",
    "formula_alphabet",
    "gen_effect",
    "gen_lts",
    "interleave",
    "is_immediate_effect",
    "longest_acyclic_path",
    "make_lts",
    "oracle_check_cause",
    "oracle_check_details",
    "parse_aut",
    "parse_formula",
    "reachable_states",
    "satisfies",
    "shrink_counterexample",
    "states_satisfying",
    "step",
    "verify_conjunction_theorem",
    "verify_disjunction_theorem",
    "write_counterexample_bundle",
]


def public_names(names):
    # submodules become attributes once imported, so they are not counted
    return sorted(
        name
        for name in names
        if not name.startswith("_") and not inspect.ismodule(getattr(hmlcause, name))
    )


def test_public_names_are_the_listed_ones():
    assert sorted(hmlcause.__all__) == PUBLIC
    assert public_names(dir(hmlcause)) == PUBLIC


def test_public_names_resolve_to_their_home_definitions():
    for name in PUBLIC:
        value = getattr(hmlcause, name)
        home = importlib.import_module(f"hmlcause.{hmlcause._HOME[name]}")
        assert value is getattr(home, name), name
        # a class or function is exported from the module that defines it
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert public_names(vars(hmlcause)) == PUBLIC


def test_unknown_names_are_errors():
    with pytest.raises(AttributeError):
        hmlcause.no_such_name
    with pytest.raises(ImportError):
        from hmlcause import no_such_name  # noqa: F401


def test_corpus_takes_only_a_count_and_a_seed():
    assert list(inspect.signature(testkit.corpus).parameters) == ["count", "seed"]


def test_the_readme_library_example_runs(monkeypatch, capsys):
    # the example reads fixtures/ by relative path, as from the repository root
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "('a',) ['abb', 'abh', 'ah']\n"


def test_the_cli_reads_only_exported_names():
    # the package serves its names through a module __getattr__, which
    # static tools cannot see, so a misspelt name would fail only when its
    # command ran
    tree = ast.parse(Path(hmlcause.__file__).with_name("cli.py").read_text())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "hmlcause"
    }
    assert read and read <= set(hmlcause.__all__), read - set(hmlcause.__all__)
    relative = [
        (node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert relative == [("composition", ["_precondition_report"])]


def test_the_one_module_level_cache_is_the_oracle_view():
    # what is derived from a system lives in its memo and dies with it; the
    # oracle's views stay in a bounded cache, since `corpus_laws` keeps its
    # 200 instances alive: a view in each system's memo, with the moves of
    # every state set the oracle reached, raised its peak RSS from 32.7 to
    # 35.8 MB, and a view built on every call raised its wall time from
    # 0.65 to 0.90 s
    cached = []
    for path in sorted(Path(hmlcause.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                name = getattr(decorator, "attr", getattr(decorator, "id", None))
                if name in ("lru_cache", "cache"):
                    cached.append((path.stem, node.name))
    assert cached == [("oracle", "_oracle_view")]


def test_the_oracle_writes_to_a_systems_memo_only_through_the_system():
    # the oracle reads a system through `outgoing`, `reachable_states`,
    # `longest_acyclic_path` and `states_satisfying`, which keep what they
    # derive in the memo, and keeps its own view out of it
    ctx = fixture_context("t5")
    k = 2
    found = hmlcause.causes(ctx, k).causes
    # with a label no other test adds, so that no cached view of an equal
    # system serves the copy
    t5 = ctx.lts
    lts = hmlcause.Lts(t5.states, t5.initial, t5.alphabet | {"unused"}, t5.transitions)
    judged, asked = copy.copy(lts), copy.copy(lts)
    judged_ctx = hmlcause.EffectContext(judged, ctx.formula)
    assert all(
        hmlcause.oracle_check_cause(judged_ctx, report.computation, k)
        for report in found
    )
    asked.outgoing(asked.initial)
    hmlcause.reachable_states(asked)
    hmlcause.longest_acyclic_path(asked)
    hmlcause.states_satisfying(asked, ctx.formula)
    assert "reachable" in judged._memo
    assert set(judged._memo) <= set(asked._memo)


def imported_modules(path: Path) -> set:
    """The package modules a source file imports from, by any import form:
    relative, absolute, or a name read from the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package
                base = f"hmlcause.{base}".rstrip(".")
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] != "hmlcause" or len(parts) < 2:
                continue
            found.add(hmlcause._HOME.get(parts[1], parts[1]))
    return found


def test_the_oracle_and_the_engine_import_nothing_from_each_other():
    # the oracle re-verifies the engine's causes, so its independence is the
    # point: neither may reach the other's code
    src = Path(hmlcause.__file__).parent
    oracle, engine = src / "oracle.py", src / "causality.py"
    assert imported_modules(oracle) == {"computation", "hml", "lts"}
    assert "oracle" not in imported_modules(engine)
    assert "causality" in imported_modules(src / "composition.py")


def test_every_module_level_import_is_used_in_its_module():
    # no linter runs on the package, so an import left behind when the code
    # that read it is deleted would otherwise stay unnoticed
    unused = []
    for path in sorted(Path(hmlcause.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [(path.stem, name) for name in bound if name not in read]
    assert unused == []
