"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Feeds corrupted outputs to the reference checks and expects each to be
rejected: a kill set missing one word, a flipped law verdict, a flipped CLI
exit code and a non-JSON line ahead of CLI JSON output.  The genuine outputs
must pass the same checks.  Then runs two cold traced passes of kill_blowup
and expects identical operation counts and output digests, and checks that the metric names a run prints are those
BENCHMARK.json declares.  Exits 0 when every check behaves as expected.
"""

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402


def kill_cases(tr):
    op_id = "loop.k6"
    payload = dict(worker.kill_setup(tr))[op_id]
    genuine = worker.kill_op(tr, payload)
    report = genuine.causes[0]
    short = dataclasses.replace(report, kill_traces=frozenset(sorted(report.kill_traces)[1:]))
    corrupted = dataclasses.replace(genuine, causes=(short,))
    yield "kill set", lambda out: worker.kill_check(tr, op_id, payload, out, {}), genuine, {
        "kill set missing one word": corrupted
    }


def laws_cases(tr, expected):
    op_id, inst = worker.laws_setup(tr)[0]
    genuine = worker.laws_op(tr, inst)
    sets, theorems, lemmas, oracle = genuine
    flipped = [dataclasses.replace(theorems[0], verdict="fails")] + theorems[1:]
    yield "corpus instance", lambda out: worker.laws_check(
        tr, op_id, inst, out, expected["corpus_laws"]
    ), genuine, {"flipped law verdict": (sets, flipped, lemmas, oracle)}


def cli_cases(tr):
    for name, argv, corrupt in (
        ("check t1", ("check", "fixtures/t1.aut", "fixtures/t1.formula"), None),
        ("causes-json t4", ("causes", "fixtures/t4.aut", "fixtures/t4.formula", "--format", "json"), "json"),
    ):
        genuine = worker.cli_op(tr, argv)
        code, stdout = genuine
        if corrupt == "json":
            bad = {"non-JSON line before the JSON output": (code, "note: bounded\n" + stdout)}
        else:
            bad = {"flipped exit code": (1 - code, stdout)}
        yield f"CLI {name}", lambda out, argv=argv, name=name: worker.cli_check(tr, name, argv, out, {}), genuine, bad


def counts_repeat():
    """Two cold traced passes: same counts, same outputs."""
    records = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "kill_blowup", "time,trace"],
            capture_output=True,
            text=True,
            check=True,
        )
        records.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = records
    problems = []
    if first["trace"]["counts"] != second["trace"]["counts"]:
        problems.append("operation counts differ between two runs")
    if first["digests"] != second["digests"]:
        problems.append("outputs differ between two runs")
    return problems


def metric_names_match():
    """The metrics a run prints are the ones BENCHMARK.json declares."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    traced = {"layers": {}, "counts": {}, "timed_total_s": 1.0, "accounted_s": 1.0, "spans_file": ""}
    layer_metrics, _ = run.per_layer(traced, [1.0])
    produced = {
        "end_to_end": {name: run.END_TO_END_UNITS[name] for name in run.BOUNDED},
        "per_layer": {name: m["unit"] for name, m in layer_metrics.items()},
    }
    return [
        f"{kind} metrics differ from BENCHMARK.json"
        for kind, units in produced.items()
        if units != {m["name"]: m["unit"] for m in declared[kind]}
    ]


def main():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    tr = worker.Tracer(False)
    problems = []
    for cases in (kill_cases(tr), laws_cases(tr, expected), cli_cases(tr)):
        for what, check, genuine, corrupted in cases:
            reason = check(genuine)
            if reason is not None:
                problems.append(f"{what}: genuine output rejected ({reason})")
            for corruption, out in corrupted.items():
                reason = check(out)
                print(f"{corruption}: rejected with {reason!r}")
                if reason is None:
                    problems.append(f"{what}: {corruption} was accepted")
    problems += metric_names_match()
    problems += counts_repeat()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
