"""Command-line front end.

Subcommands: check, causes, project, compose, verify, dot.  Formula
arguments accept either literal text or a path to a file holding the
formula.  Exit codes: 0 for the affirmative outcome (satisfied, nonempty,
all verdicts hold), 1 for the negative one, 2 for usage and parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys

# Every public name is read through the package's lazy namespace, so a
# command loads only the modules it runs; `json` and `dataclasses` are
# imported where machine output is written, for the same reason.
import hmlcause


def _load_lts(path: str):
    with open(path, encoding="utf-8") as fh:
        return hmlcause.parse_aut(fh.read())


def _load_formula(arg: str):
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as fh:
            arg = fh.read()
    return hmlcause.parse_formula(arg.strip())


def render_word(word) -> str:
    if not word:
        return "ε"
    if all(len(label) == 1 for label in word):
        return "".join(word)
    return " ".join(word)


def _display_order(words):
    return sorted(words, key=lambda w: (len(w), w))


def _effective_bound(requested, lts) -> int:
    if requested is not None:
        return requested
    k = hmlcause.default_bound(lts)
    if hmlcause.longest_acyclic_path(lts) is None:
        print(
            f"note: system has cycles; using default bound {k}, "
            "results are bounded rather than exact",
            file=sys.stderr,
        )
    return k


def cmd_check(args) -> int:
    lts = _load_lts(args.lts)
    formula = _load_formula(args.formula)
    verdict = hmlcause.satisfies(lts, lts.initial, formula)
    state = hmlcause.format_state(lts.initial)
    if args.format == "json":
        import json

        text = hmlcause.format_formula(formula)
        print(json.dumps({"state": state, "formula": text, "satisfies": verdict}))
    else:
        status = "satisfies" if verdict else "does not satisfy"
        print(f"initial state {state} {status} the formula")
    return 0 if verdict else 1


def cmd_causes(args) -> int:
    lts = _load_lts(args.lts)
    ctx = hmlcause.EffectContext(lts, _load_formula(args.formula))
    k = _effective_bound(args.bound, lts)
    cause_set = hmlcause.causes(ctx, k)
    if args.format == "json":
        import json

        print(json.dumps(cause_set.to_json(), indent=2))
        return 0 if cause_set.causes else 1
    # every line is built before any is written, so a run that fails while
    # spelling kill words leaves stdout empty
    lines = [
        f"effect: {hmlcause.format_formula(ctx.formula)}",
        f"bound: {k} ({cause_set.exactness.value})",
    ]
    if cause_set.immediate:
        lines.append(
            "note: effect already holds at the initial state; "
            "immediate-effect policy applies"
        )
    if not cause_set.causes:
        lines.append("no causes")
    for i, report in enumerate(cause_set.causes, start=1):
        core = render_word(report.computation.labels)
        kills = ", ".join(render_word(w) for w in _display_order(report.kill_traces))
        line = f"cause {i}: core: {core}"
        line += f" | kills: {kills}" if kills else " | kills: (none)"
        if report.computation.truncated:
            line += " | truncated"
        lines.append(line)
    print("\n".join(lines))
    return 0 if cause_set.causes else 1


def _emit(lts, fmt: str) -> None:
    if fmt == "dot":
        print(hmlcause.emit_dot(lts))
    else:
        sys.stdout.write(hmlcause.emit_aut(lts))


def cmd_project(args) -> int:
    lts = _load_lts(args.lts)
    ctx = hmlcause.EffectContext(lts, _load_formula(args.formula))
    k = _effective_bound(args.bound, lts)
    _emit(hmlcause.causal_projection(ctx, k), args.format)
    return 0


def cmd_compose(args) -> int:
    compose = hmlcause.interleave if args.operator == "interleave" else hmlcause.choice
    _emit(compose(_load_lts(args.left), _load_lts(args.right)), args.format)
    return 0


def cmd_dot(args) -> int:
    _emit(_load_lts(args.lts), "dot")
    return 0


def _render_theorem_report(report, exact: bool, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(report.to_json(), indent=2))
        return
    verdict = report.verdict
    if verdict == "holds" and not exact:
        verdict = "holds-at-bound"
    print(f"{report.theorem}: {verdict} (bound {report.bound})")
    if report.witness:
        print("witness:")
        for src in sorted(report.witness):
            print(f"  {src} -> {report.witness[src]}")
    if report.verdict == "precondition":
        for issue in (report.counterexample or {}).get("preconditions", []):
            print(f"  violated: {issue}")
    elif report.counterexample is not None:
        print(f"  reason: {report.counterexample.get('reason', 'mismatch')}")


def _law_check(theorem: str):
    if theorem == "disjunction":
        return hmlcause.verify_disjunction_theorem
    return hmlcause.verify_conjunction_theorem


def _run_instance(theorem: str, left, right, k):
    """Returns (all_ok, reports, checks): theorem reports for disjunction /
    conjunction, cross-check results for lemmas."""
    if theorem == "lemmas":
        lifting = hmlcause.cross_check_disjunction_lifting(left, right, k)
        single = hmlcause.cross_check_single_component(left, right, k)
        return lifting.ok and single.ok, (), (lifting, single)
    report = _law_check(theorem)(left, right, k)
    return report.verdict == "holds", (report,), ()


def _verify_random(args) -> int:
    if args.seed is None or args.count is None:
        raise ValueError("--random requires --seed and --count")
    if args.left is not None or args.bound is not None or args.format == "json":
        raise ValueError("--random takes no LEFT RIGHT, --bound or --format json")
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    failures = 0
    total = 0
    for inst in hmlcause.corpus(args.count, args.seed):
        total += 1
        ok, reports, checks = _run_instance(
            args.theorem, inst.left, inst.right, inst.bound
        )
        if ok:
            continue
        failures += 1
        print(f"instance {inst.index}: FAILED")
        for check in checks:
            if not check.ok:
                print(f"  {check.detail}")
        for report in reports:
            if report.verdict == "holds":
                continue
            verify = _law_check(report.theorem)
            small_left, small_right = hmlcause.shrink_counterexample(
                inst.left, inst.right, inst.bound, verify
            )
            bundle = f"counterexample-{report.theorem}-{inst.index}"
            hmlcause.write_counterexample_bundle(
                bundle,
                small_left,
                small_right,
                verify(small_left, small_right, inst.bound),
            )
            print(f"  minimized bundle written to {bundle}/")
    print(f"{total - failures}/{total} hold ({args.theorem})")
    return 0 if failures == 0 else 1


def cmd_verify(args) -> int:
    if args.random:
        return _verify_random(args)
    if args.seed is not None or args.count is not None:
        raise ValueError("--seed and --count need --random")
    positional = (args.left, args.right, args.left_formula, args.right_formula)
    if any(value is None for value in positional):
        raise ValueError(
            "verify needs LEFT RIGHT LEFT-FORMULA RIGHT-FORMULA, "
            "or --random with --seed and --count"
        )
    left_lts = _load_lts(args.left)
    right_lts = _load_lts(args.right)
    left_formula = _load_formula(args.left_formula)
    right_formula = _load_formula(args.right_formula)
    composite = hmlcause.interleave(left_lts, right_lts)
    k = args.bound if args.bound is not None else hmlcause.default_bound(composite)
    if k < 0:
        raise ValueError("bound must be nonnegative")
    pre = hmlcause.check_preconditions(
        left_lts, right_lts, left_formula, right_formula
    )
    if not pre.ok:
        from .composition import _precondition_report

        report = _precondition_report(args.theorem, pre, k)
        _render_theorem_report(report, True, args.format)
        return 1
    left = hmlcause.EffectContext(left_lts, left_formula)
    right = hmlcause.EffectContext(right_lts, right_formula)
    ok, reports, checks = _run_instance(args.theorem, left, right, k)
    exact = hmlcause.exploration_is_exact(composite, k)
    if args.theorem == "lemmas":
        if args.format == "json":
            import json
            from dataclasses import asdict

            lifting, single = checks
            print(
                json.dumps(
                    {
                        "lifting": asdict(lifting),
                        "single_component": asdict(single),
                        "bound": k,
                    },
                    indent=2,
                )
            )
        else:
            for name, check in zip(("lifting", "single-component"), checks):
                status = "ok" if check.ok else "VIOLATED"
                print(f"{name}: {status} - {check.detail}")
    else:
        for report in reports:
            _render_theorem_report(report, exact, args.format)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmlcause",
        description=(
            "Actual-cause analysis for modal-logic effects over labeled "
            "transition systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula at the initial state")
    p.add_argument("lts")
    p.add_argument("formula")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("causes", help="compute the bounded cause set")
    p.add_argument("lts")
    p.add_argument("formula")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=cmd_causes)

    p = sub.add_parser("project", help="emit the causal projection")
    p.add_argument("lts")
    p.add_argument("formula")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--format", choices=("aut", "dot"), default="aut")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("compose", help="compose two systems")
    p.add_argument("operator", choices=("interleave", "choice"))
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--format", choices=("aut", "dot"), default="aut")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("verify", help="check a composition law")
    p.add_argument("left", nargs="?", default=None)
    p.add_argument("right", nargs="?", default=None)
    p.add_argument("left_formula", nargs="?", default=None)
    p.add_argument("right_formula", nargs="?", default=None)
    p.add_argument(
        "--theorem",
        choices=("disjunction", "conjunction", "lemmas"),
        required=True,
    )
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dot", help="render a system as DOT")
    p.add_argument("lts")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        # matched first, as matching a tuple of classes builds a tuple, and
        # that can fail again while the traceback still holds the analysis
        pass
    except (OSError, ValueError) as exc:  # parse errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # only a MemoryError gets here; its traceback, and the analysis the
    # traceback kept alive, are freed once the handler is left
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
